import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from polyrealize import report, sweeps
from polyrealize.cli import main, parse_roots_file
from polyrealize.sampler import Mixture, SearchConfig
from polyrealize.signpatterns import from_runs

Q1_FILE = "-0.723\n-0.59\n-0.48\nc:0.985,0.0823104\n"
GAP_FILE = "-0.19\n-0.18\n0.13\n0.21\n0.67\n0.96\n"


@pytest.fixture
def runner():
    return CliRunner()


class TestRootsFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "roots.txt"
        path.write_text(Q1_FILE)
        spec = parse_roots_file(str(path))
        assert spec.real_roots == (-0.723, -0.59, -0.48)
        assert spec.complex_pairs == ((0.985, 0.0823104),)

    def test_bad_line(self, tmp_path):
        path = tmp_path / "roots.txt"
        path.write_text("1.25\nnot-a-number\n")
        with pytest.raises(ValueError):
            parse_roots_file(str(path))

    def test_empty_file(self, tmp_path):
        path = tmp_path / "roots.txt"
        path.write_text("\n\n")
        with pytest.raises(ValueError):
            parse_roots_file(str(path))

    @pytest.mark.parametrize("line", ["nan", "inf", "-inf", "c:0.5,inf"])
    def test_non_finite(self, tmp_path, line):
        path = tmp_path / "roots.txt"
        path.write_text(f"0.5\n{line}\n-0.3\n")
        with pytest.raises(ValueError, match=r"roots\.txt:2: root is not finite"):
            parse_roots_file(str(path))


class TestSearchCommands:
    def test_trivial_pair_found(self, runner):
        result = runner.invoke(main, ["search", "pair", "--sigma", "+-",
                                      "--pos", "1", "--neg", "0", "--n", "10"])
        assert result.exit_code == 0
        assert "found at attempt 1" in result.output

    def test_exhausted_exits_one(self, runner):
        result = runner.invoke(main, ["search", "pair", "--sigma", "+---+",
                                      "--pos", "0", "--neg", "2", "--n", "500"])
        assert result.exit_code == 1
        assert "exhausted 500 attempts" in result.output

    def test_bad_sigma_exits_two(self, runner):
        result = runner.invoke(main, ["search", "pair", "--sigma", "garbage",
                                      "--pos", "0", "--neg", "1"])
        assert result.exit_code == 2

    def test_incompatible_pair_exits_two(self, runner):
        result = runner.invoke(main, ["search", "pair", "--sigma", "+-",
                                      "--pos", "0", "--neg", "1", "--n", "10"])
        assert result.exit_code == 2

    def test_empty_bracket_order_exits_two(self, runner):
        result = runner.invoke(main, ["search", "moduli", "--sigma", "+-",
                                      "--order", "[0]", "--n", "10"])
        assert result.exit_code == 2
        assert "bracket [0] describes no modulus" in result.output
        assert "order word" not in result.output

    @pytest.mark.parametrize("sigma", ["+", "1"])
    def test_degree_zero_exits_two(self, runner, sigma):
        result = runner.invoke(main, ["search", "pair", "--sigma", sigma,
                                      "--pos", "0", "--neg", "0", "--n", "10"])
        assert result.exit_code == 2
        assert "need degree >= 1" in result.output
        assert "internal error" not in result.output

    def test_json_report_schema(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["search", "pair", "--sigma", "1,3,2",
                                      "--pos", "0", "--neg", "3",
                                      "--n", "10000", "--seed", "42",
                                      "--json", str(out)])
        assert result.exit_code == 0
        doc = json.loads(out.read_text())
        assert doc["schema_version"] == 1
        assert doc["config"]["seed"] == 42
        assert doc["config"]["strategy"] == {"kind": "uniform"}
        assert doc["outcome"]["status"] == "found"
        assert doc["outcome"]["attempt_index"] == 467
        assert doc["outcome"]["timing"]["attempts"] == 467
        coeffs = doc["outcome"]["polynomial"]["coefficients"]
        assert all(isinstance(c, str) for c in coeffs)
        cert = doc["outcome"]["certificate"]
        assert all("/" in c for c in cert["rational_coefficients"])

    def test_moduli_with_bracket_order(self, runner):
        result = runner.invoke(main, ["search", "moduli", "--sigma", "3,4,1",
                                      "--order", "[0,0,5]", "--n", "1000",
                                      "--ell", "5", "--seed", "5"])
        assert result.exit_code == 0
        assert "found at attempt 115" in result.output

    def test_gaps_search(self, runner):
        result = runner.invoke(main, ["search", "gaps", "--degree", "6",
                                      "--class", "L-R+", "--n", "1000", "--seed", "3"])
        assert result.exit_code == 0
        assert "gap class L-R+" in result.output

    def test_gaps_report_with_overflow_is_strict_json(self, runner, tmp_path):
        # at ell = 1.7e308 the gap statistics overflow: m_prime, M_prime, xi[1]
        # and both margins are inf, which JSON cannot hold as a number
        out = tmp_path / "report.json"
        result = runner.invoke(main, ["search", "gaps", "--degree", "3", "--class", "L+R-",
                                      "--ell", "1.7e308", "--seed", "1", "--n", "200",
                                      "--json", str(out)])
        assert result.exit_code == 0

        def no_constant(name):
            raise ValueError(f"{name} is not JSON")

        gap = json.loads(out.read_text(), parse_constant=no_constant)["outcome"]["gap_report"]
        assert (gap["m_prime"], gap["M_prime"], gap["xi"][1]) == ("inf", "inf", "inf")
        assert gap["margins"] == ["inf", "-inf"]
        assert all(isinstance(v, float) for v in gap["x"])

    def test_mixture_strategy_flags(self, runner):
        result = runner.invoke(main, ["search", "moduli", "--sigma", "1,2,3,2",
                                      "--order", "[0,4,0,0]", "--n", "20000",
                                      "--seed", "7", "--strategy", "mixture",
                                      "--narrow-scale", "0.05"])
        assert result.exit_code == 0


class TestSweepCommands:
    def test_sweep_pairs_json_deterministic(self, runner, tmp_path):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        for out in (out1, out2):
            result = runner.invoke(main, ["sweep", "pairs", "--degree", "2",
                                          "--budget", "300", "--json", str(out)])
            assert result.exit_code == 0
        assert out1.read_bytes() == out2.read_bytes()
        doc = json.loads(out1.read_text())
        assert doc["totals"]["realized"] == len(doc["rows"]) == 6

    @pytest.mark.parametrize("args, library_sweep", [
        (["pairs", "--degree", "3", "--budget", "500"],
         lambda: sweeps.sweep_pairs(3, SearchConfig(n=500, seed=2024))),
        (["moduli", "--sigma", "1,2,3,2", "--budget", "300"],
         lambda: sweeps.sweep_moduli(from_runs((1, 2, 3, 2)), SearchConfig(
             n=300, seed=2024, strategy=Mixture(narrow_scale=0.05)))),
    ], ids=["pairs", "moduli"])
    def test_sweep_seed_writes_the_library_report(self, runner, tmp_path, args, library_sweep):
        out = tmp_path / "sweep.json"
        result = runner.invoke(main, ["sweep", *args, "--seed", "2024", "--json", str(out)])
        assert result.exit_code in (0, 1), result.output
        doc = report.sweep_report_json(f"sweep {args[0]}", library_sweep())
        assert doc["config"]["seed"] == 2024
        assert out.read_bytes() == report.dump_json(doc).encode()

    def test_closed_output_pipe_exits_141(self):
        # `poly sweep ... | head -1` once head has gone: the reader of stdout is
        # closed before the command writes, which is no usage error
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        read, write = os.pipe()
        os.close(read)
        try:
            out = subprocess.run(
                [sys.executable, "-m", "polyrealize", "sweep", "pairs", "--degree", "2",
                 "--budget", "300"],
                stdout=write, stderr=subprocess.PIPE, text=True, env=env, timeout=120)
        finally:
            os.close(write)
        assert out.returncode == 141, out.stderr
        assert out.stderr == ""

    def test_sweep_pairs_orbits(self, runner):
        result = runner.invoke(main, ["sweep", "pairs", "--degree", "2",
                                      "--budget", "300", "--orbits"])
        assert result.exit_code == 0

    def test_sweep_moduli(self, runner):
        result = runner.invoke(main, ["sweep", "moduli", "--sigma", "2,1,1",
                                      "--budget", "2000"])
        assert result.exit_code == 0
        assert "forced" in result.output

    @pytest.mark.parametrize("sigma", ["+", "1"])
    def test_sweep_moduli_degree_zero_exits_two(self, runner, sigma):
        result = runner.invoke(main, ["sweep", "moduli", "--sigma", sigma, "--budget", "10"])
        assert result.exit_code == 2
        assert "degree must be >= 1" in result.output

    def test_readme_experiments(self, runner):
        # the three experiment commands README documents, at the default seed
        result = runner.invoke(main, ["sweep", "pairs", "--degree", "4", "--budget", "100000"])
        assert result.exit_code == 1
        assert "46 couples: 44 realized, 0 forced non-realizable, 2 unresolved" in result.output
        result = runner.invoke(main, ["sweep", "moduli", "--sigma", "1,2,3,2",
                                      "--budget", "1000000"])
        assert result.exit_code == 0
        assert "35 couples: 21 realized, 14 forced non-realizable, 0 unresolved" in result.output
        result = runner.invoke(main, ["search", "gaps", "--degree", "6", "--class", "L-R+",
                                      "--n", "100000", "--seed", "3"])
        assert result.exit_code == 0
        assert "found at attempt 2 " in result.output


class TestVerifyCommand:
    def test_verified(self, runner, tmp_path):
        path = tmp_path / "roots.txt"
        path.write_text(Q1_FILE)
        result = runner.invoke(main, ["verify", "--roots", str(path),
                                      "--sigma", "1,3,2", "--pos", "0", "--neg", "3"])
        assert result.exit_code == 0
        assert "verified" in result.output

    def test_mismatch_exits_one(self, runner, tmp_path):
        path = tmp_path / "roots.txt"
        path.write_text(Q1_FILE)
        result = runner.invoke(main, ["verify", "--roots", str(path),
                                      "--sigma", "1,3,2", "--pos", "2", "--neg", "1"])
        assert result.exit_code == 1
        assert "mismatch at root_counts" in result.output

    @pytest.mark.parametrize("pair, code, word", [
        (["--pos", "0", "--neg", "3"], 0, "verified"),
        (["--pos", "2", "--neg", "1"], 1, "mismatch at root_counts"),
    ], ids=["verified", "mismatch"])
    def test_python_dash_m(self, runner, tmp_path, pair, code, word):
        # `python -m polyrealize` is the `poly` command: same output, same exit code
        path = tmp_path / "roots.txt"
        path.write_text(Q1_FILE)
        args = ["verify", "--roots", str(path), "--sigma", "1,3,2", *pair]
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-m", "polyrealize", *args],
                             capture_output=True, text=True, env=env, timeout=120)
        result = runner.invoke(main, args)
        assert out.returncode == result.exit_code == code, out.stderr
        assert word in out.stdout
        assert out.stdout == result.output

    def test_order_claim(self, runner, tmp_path):
        path = tmp_path / "roots.txt"
        path.write_text("0.77\n4.28\n-4.31\n-4.47\n-4.59\n-4.68\n-4.91\n")
        result = runner.invoke(main, ["verify", "--roots", str(path),
                                      "--sigma", "3,4,1", "--order", "[0,0,5]"])
        assert result.exit_code == 0

    @pytest.mark.parametrize("roots, claim, check", [
        ("1\n-1\n", ["--sigma", "1,1,1", "--pos", "2", "--neg", "0"], "sign_vector"),
        ("1\n-1\n2\n", ["--sigma", "1,2,1", "--order", "PNP"], "moduli_order"),
    ], ids=["zero_coefficient", "tied_moduli"])
    def test_degenerate_roots_are_a_mismatch(self, runner, tmp_path, roots, claim, check):
        # a zero coefficient or tied moduli make the claim false, not the input invalid
        path = tmp_path / "roots.txt"
        path.write_text(roots)
        result = runner.invoke(main, ["verify", "--roots", str(path), *claim])
        assert result.exit_code == 1
        assert f"mismatch at {check}" in result.output

    def test_pos_without_neg_rejected(self, runner, tmp_path):
        path = tmp_path / "roots.txt"
        path.write_text(Q1_FILE)
        result = runner.invoke(main, ["verify", "--roots", str(path),
                                      "--sigma", "1,3,2", "--pos", "0"])
        assert result.exit_code == 2
        assert "--pos and --neg go together" in result.output

    def test_both_claims_rejected(self, runner, tmp_path):
        path = tmp_path / "roots.txt"
        path.write_text(Q1_FILE)
        result = runner.invoke(main, ["verify", "--roots", str(path),
                                      "--sigma", "1,3,2", "--pos", "0", "--neg", "3",
                                      "--order", "NNN"])
        assert result.exit_code == 2


class TestGapsCommand:
    def test_report_and_certify(self, runner, tmp_path):
        path = tmp_path / "roots.txt"
        path.write_text(GAP_FILE)
        result = runner.invoke(main, ["gaps", "--roots", str(path), "--certify"])
        assert result.exit_code == 0
        assert "class L-R+" in result.output
        assert "exact certification: L-R+" in result.output

    def test_rationalization_tie_is_a_mismatch(self, runner, tmp_path):
        path = tmp_path / "roots.txt"
        path.write_text("-0.7\n0.3000000000001\n0.3000000000002\n0.9\n")
        result = runner.invoke(main, ["gaps", "--roots", str(path), "--certify"])
        assert result.exit_code == 1
        assert "class L+R-" in result.output
        assert "exact certification: mismatch at simple_roots" in result.output

    def test_zero_root(self, runner, tmp_path):
        # a zero root is valid for gap analysis, unlike for sign patterns
        path = tmp_path / "roots.txt"
        path.write_text("-1\n0\n1\n")
        result = runner.invoke(main, ["gaps", "--roots", str(path), "--certify"])
        assert result.exit_code == 0
        assert "class L+R-" in result.output
        assert "exact certification: L+R-" in result.output

    @pytest.mark.parametrize("certify, code", [(False, 1), (True, 0)])
    def test_underflowing_derivative(self, runner, tmp_path, certify, code):
        # the float margins of roots this small are far under MARGIN_EPS, so
        # the float classification is degenerate, but the exact bisection
        # decides the class
        path = tmp_path / "roots.txt"
        path.write_text("1e-200\n2e-200\n3e-200\n")
        args = ["gaps", "--roots", str(path)] + (["--certify"] if certify else [])
        result = runner.invoke(main, args)
        assert result.exit_code == code
        assert "float classification is degenerate" in result.output
        assert ("exact certification: L+R-" in result.output) == certify

    @pytest.mark.parametrize("certify, code", [(False, 1), (True, 0)])
    def test_overflowing_midpoints(self, runner, tmp_path, certify, code):
        # the float midpoints overflow to inf and both margins are NaN
        path = tmp_path / "roots.txt"
        path.write_text("1e308\n1.5e308\n1.7e308\n")
        args = ["gaps", "--roots", str(path)] + (["--certify"] if certify else [])
        result = runner.invoke(main, args)
        assert result.exit_code == code
        assert "float classification is degenerate" in result.output
        assert "class L-R-" not in result.output
        assert ("exact certification: L+R-" in result.output) == certify

    def test_complex_roots_rejected(self, runner, tmp_path):
        path = tmp_path / "roots.txt"
        path.write_text("1.0\n2.0\n3.0\nc:0.5,0.5\n")
        result = runner.invoke(main, ["gaps", "--roots", str(path)])
        assert result.exit_code == 2


class TestConcatCommand:
    def test_fixture_inputs(self, runner):
        result = runner.invoke(main, ["concat", "--left", "q1", "--right", "q1"])
        assert result.exit_code == 0
        assert "realized" in result.output

    def test_file_input(self, runner, tmp_path):
        path = tmp_path / "roots.txt"
        path.write_text("-1.0\n")
        result = runner.invoke(main, ["concat", "--left", str(path), "--right", str(path)])
        assert result.exit_code == 0
        assert "(++-, " not in result.output  # (x+1)(x+eps) keeps all-plus signs

    def test_unknown_ref(self, runner):
        result = runner.invoke(main, ["concat", "--left", "nope", "--right", "q1"])
        assert result.exit_code == 2

    def test_entry_without_root_spec(self, runner):
        result = runner.invoke(main, ["concat", "--left", "gap-d6-LmRp", "--right", "q1"])
        assert result.exit_code == 2
        assert "carries no root spec" in result.output


class TestCatalogCommands:
    def test_list(self, runner):
        result = runner.invoke(main, ["catalog", "list"])
        assert result.exit_code == 0
        for entry_id in ("grabiner-d4", "gap-d6-LmRp", "sigma1232-table"):
            assert entry_id in result.output

    def test_show(self, runner):
        result = runner.invoke(main, ["catalog", "show", "grabiner-d4"])
        assert result.exit_code == 0
        assert "+---+" in result.output

    def test_show_root_spec(self, runner):
        result = runner.invoke(main, ["catalog", "show", "q1"])
        assert result.exit_code == 0
        assert "spec: real=[-0.723, -0.59, -0.48] complex=[(0.985, " in result.output

    def test_show_table(self, runner):
        result = runner.invoke(main, ["catalog", "show", "sigma1232-table"])
        assert result.exit_code == 0
        assert "runs: (1, 2, 3, 2)" in result.output
        assert "rigid: (1, 1, 1, 1)" in result.output

    def test_show_unknown(self, runner):
        result = runner.invoke(main, ["catalog", "show", "nope"])
        assert result.exit_code == 2
