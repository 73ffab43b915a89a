"""Internal invariants raise named errors, also under `python -O`.

Each test breaks one invariant on purpose by monkeypatching the step that
feeds it, and expects the named error rather than a silent pass.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from polyrealize import certifier, sweeps
from polyrealize.certifier import RootSumIdentityError, certify_couple
from polyrealize.polycore import RootSpec
from polyrealize.sampler import SearchConfig
from polyrealize.signpatterns import PairCouple, RootCountPair, from_runs
from polyrealize.sweeps import OrbitWitnessError, sweep_pairs

SRC = Path(__file__).resolve().parents[1] / "src"


_integer_expansion = certifier._integer_expansion


def broken_expansion(spec):
    """Integer expansion with a doubled subdominant coefficient: same signs, wrong sum."""
    D, A, S = _integer_expansion(spec)
    return D, [A[0], 2 * A[1], *A[2:]], S


def q1_couple():
    spec = certifier.rationalize(
        RootSpec(real_roots=(-0.723, -0.59, -0.48), complex_pairs=((0.985, 0.0707),))
    )
    return spec, PairCouple(from_runs((1, 3, 2)), RootCountPair(0, 3))


def test_root_sum_identity_violation_raises(monkeypatch):
    spec, claim = q1_couple()
    assert isinstance(certify_couple(spec, claim), certifier.Certificate)
    monkeypatch.setattr(certifier, "_integer_expansion", broken_expansion)
    with pytest.raises(RootSumIdentityError):
        certify_couple(spec, claim)


def test_orbit_mapped_witness_failure_raises(monkeypatch):
    cfg = SearchConfig(n=2000, seed=1)
    assert sweep_pairs(2, cfg, orbits=True).totals["realized"] > 0
    # hand every orbit member the representative's own witness, unmapped
    monkeypatch.setattr(sweeps, "_map_witness", lambda spec, src, dst: spec)
    with pytest.raises(OrbitWitnessError):
        sweep_pairs(2, cfg, orbits=True)


def test_root_sum_check_survives_python_O():
    script = "\n".join([
        "from polyrealize import certifier",
        "from test_invariants import broken_expansion, q1_couple",
        "assert False, 'asserts must be stripped under -O'",
        "certifier._integer_expansion = broken_expansion",
        "spec, claim = q1_couple()",
        "try:",
        "    certifier.certify_couple(spec, claim)",
        "except certifier.RootSumIdentityError:",
        "    print('raised')",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(Path(__file__).parent)]))
    out = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env, timeout=120
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"
