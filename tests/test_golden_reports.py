"""Golden digests of the CLI's JSON reports.

Each case runs one command with --json and compares the sha256 of the
document with the digest recorded when the case was added.  Search reports
carry the scan's wall time, so outcome.timing.seconds is dropped before
hashing; everything else in every report is a pure function of the command
line.  A refactor that must keep reports byte-identical keeps these digests.
`golden_digests.py` rebuilds the search and sweep reports through the
library alone, so the same digests can be checked under every supported
Python without click or pytest.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from polyrealize.cli import main

GOLDEN = [
    pytest.param(
        "sweep pairs --degree 4 --budget 20000",
        1, "49e3748272674a8ca7d546fb986eb0bc7f6a7375d47b02f9385cf42e75c66b98",
        id="sweep-pairs",
    ),
    pytest.param(
        "sweep pairs --degree 4 --budget 20000 --orbits",
        1, "845b5ac415022d8523880676cfb06e8663d7c9ece0f427b4cbd8ac8d0fe86050",
        id="sweep-pairs-orbits",
    ),
    pytest.param(
        "sweep moduli --sigma 1,2,3,2 --budget 500",
        1, "feb023dc7c3dfcdb2bb4ce312cd871d1b4102bcd1cb994d41cf06c154343e4a2",
        id="sweep-moduli",
    ),
    pytest.param(
        "search gaps --degree 6 --class L-R+ --n 100000 --seed 3",
        0, "d574880b9655c4a931168471fe9a6080f320a070640eb233f274947b955fd869",
        id="search-gaps",
    ),
    pytest.param(
        "search moduli --sigma 1,2,3,2 --order [1,1,2,0] --strategy mixture "
        "--narrow-scale 0.05 --seed 2024 --n 1000",
        0, "0cca477f57c6db228c2bed7020fc258453726eeb9e79527b9becd4b76e686839",
        id="search-moduli-mixture",
    ),
    pytest.param(
        "search pair --sigma 1,3,2 --pos 0 --neg 3 --strategy multiplicity "
        "--seed 42 --n 20000",
        0, "d40f6b3214f99313424c1cdc5d3c23055092a46f31a2fca7f8703122534e16c2",
        id="search-pair-multiplicity",
    ),
    pytest.param(
        "concat --left q1 --right q1",
        0, "b2c757afdceb2c2877a840a387986f2ea571ceff30f6fbec6c77f9429a670e48",
        id="concat",
    ),
    pytest.param(
        "search pair --sigma +---+ --pos 0 --neg 2 --n 200",
        1, "7603aeeb71aa03ae5f52706aa15bd1d26ca3af788855c86cc09d3675515b0bfc",
        id="search-pair-exhausted",
    ),
    pytest.param(
        "search pair --sigma ++-++- --pos 3 --neg 0 --strategy mixture --seed 3 --n 1000",
        0, "d35cb24845b5396042981ed4c65a9c4d79a9693a42949753316ab335e90b173a",
        id="search-pair-mixture",
    ),
    pytest.param(
        "search gaps --degree 6 --class L-R+ --strategy mixture --seed 1 --n 1000",
        0, "9fe796e913b98603bf388acd58a7bbfae4ea7fee798dfcb77c9b668d4cedd175",
        id="search-gaps-mixture",
    ),
    pytest.param(
        "search moduli --sigma 3,4,1 --order [0,0,5] --seed 5 --n 1000",
        0, "95cfae850b3ae05d9b887467df81a6eeeba9e770dec5d712a8c78fb2753a07ba",
        id="search-moduli-uniform",
    ),
    pytest.param(
        "sweep pairs --degree 5 --budget 3000",
        1, "b28bf074dc5a7e895f482c67191b858fc05b0933b696ec403eb18c221a256582",
        id="sweep-pairs-degree5",
    ),
    pytest.param(
        "sweep pairs --degree 3 --budget 500",
        0, "22293d364e5c3db93ceff1dfc8ac3414086f5d6c9678f5eee97cd4629d506668",
        id="sweep-pairs-degree3",
    ),
    pytest.param(
        "sweep moduli --sigma 3,4,1 --budget 2000",
        1, "67989388aa12f34681181941eda4226acdb56a82edc745d8e19588ccaf52c06d",
        id="sweep-moduli-341",
    ),
    pytest.param(
        "search gaps --degree 8 --class L+R- --seed 1 --n 1000",
        0, "9fbd9ffd4f78abb815ac746180c71281567f99bd6181a697701d9b1437e08279",
        id="search-gaps-degree8",
    ),
    pytest.param(
        "search gaps --degree 10 --class L+R+ --seed 1 --n 1000",
        0, "2392e02b16f1acd3c378f0d8f19a023b65e8ef23955920567c2f246e96e236c5",
        id="search-gaps-degree10",
    ),
    pytest.param(
        "search gaps --degree 12 --class L-R- --seed 2 --n 1000",
        0, "d9cb6d4a5ce1cffe52eaf1c1c307ca8ce43aaa0411e47ed6ee0da6e389d6884c",
        id="search-gaps-degree12",
    ),
    pytest.param(
        "search gaps --degree 5 --class L-R+ --seed 11 --n 2000",
        1, "b21f807c9f7eff5b48a3674d5fb9a7ead05334790889458136b1eaf8098edca1",
        id="search-gaps-exhausted",
    ),
    pytest.param(
        "search gaps --degree 17 --class L-R+ --seed 1 --n 1000",
        0, "1b7fcc877f8c3a7820ea4da58cb3ef72f636bb5fe3e4457b81b772282a12895a",
        id="search-gaps-degree17",
    ),
    pytest.param(
        "search gaps --degree 20 --class L-R- --seed 1 --n 1000",
        0, "d4019d41bef286f057c98b34a5d1b898e3f50685b8e4f58d3532175be5560f9a",
        id="search-gaps-degree20",
    ),
]


@pytest.mark.parametrize("command, exit_code, digest", GOLDEN)
def test_report_digest(tmp_path, command, exit_code, digest):
    path = tmp_path / "report.json"
    result = CliRunner().invoke(main, command.split() + ["--json", str(path)])
    assert result.exit_code == exit_code, result.output
    doc = json.loads(path.read_text())
    if "outcome" in doc:
        del doc["outcome"]["timing"]["seconds"]
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# -O strips asserts; the package states no invariant as one, so no digest moves
@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimize"])
def test_library_script_prints_the_golden_digests(flags):
    script = Path(__file__).with_name("golden_digests.py")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, *flags, str(script)], capture_output=True, text=True,
                         env=env, timeout=600)
    assert out.returncode == 0, out.stderr
    printed = dict(line.split() for line in out.stdout.splitlines())
    assert printed == {p.id: p.values[2] for p in GOLDEN if p.id != "concat"}
