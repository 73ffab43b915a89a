"""The benchmark's coupling to the package: perfbench's replay must still agree.

perfbench/replay.py re-runs every attempt of a traced benchmark run through
the layers' public functions and rejects a run whose hits differ from the
engine's.  It imports names from the package and reads config fields that
no engine needs, so this runs one short witness search per engine through
the benchmark's Recorder and Replayer, with perfbench/ on sys.path as it is
for perfbench/run.py.  The slow test runs the benchmark's own smoke check,
which also compares every workload's outputs with perfbench/pins.json.
"""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(PERFBENCH))
    try:
        workloads = importlib.import_module("workloads")
        replay = importlib.import_module("replay")
    finally:
        sys.path.remove(str(PERFBENCH))
    yield workloads, replay
    for name in ("workloads", "replay"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("kind", ["pair", "moduli", "gap"])
def test_replay_agrees_with_engine(bench, kind):
    workloads, replay = bench
    wl = workloads.Workload("witness")
    u = next(i for i, unit in enumerate(wl.units) if unit[1] == kind)
    tracer = replay.Tracer()
    replayer = replay.Replayer(tracer)
    with workloads.Recorder() as rec:
        call = wl.run_unit(u, rec)
    replayer.replay_call(call)
    (search,) = call.searches
    assert search.outcome.found, search.label
    if kind == "moduli":  # the replay's Mixture path reads cfg.narrow_scale
        assert search.cfg.strategy == workloads.MODULI_STRATEGY
    assert workloads.check_call(call) == []
    assert replayer.mismatches == []
    assert tracer.counts["attempts"] == call.attempts


@pytest.mark.slow
def test_benchmark_smoke():
    # one cycle of every workload, untraced and traced, checked against pins.json
    out = subprocess.run([sys.executable, str(PERFBENCH / "run.py"), "--smoke"],
                         cwd=PERFBENCH.parent, capture_output=True, text=True, timeout=600)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "smoke ok" in out.stdout.splitlines()
