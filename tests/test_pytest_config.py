"""The suite's pytest configuration reports a failing test and runs on.

`pyproject.toml` turns every warning into an error.  A failing hypothesis
test used to end the whole session with an INTERNALERROR, because
hypothesis imports a module that warns while it reports the failure;
`conftest.py` imports that module up front.  The CI workflow names its slow
tests by hand, so a test here checks that every one of them still collects.
"""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

PROBE = '''\
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_failing_hypothesis_test_is_reported_and_the_session_runs_on(tmp_path):
    # the probe runs under this suite's pytest configuration and conftest
    shutil.copy(Path(__file__).with_name("conftest.py"), tmp_path)
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path), "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
    assert run.returncode == 1


WORKFLOW = ROOT / ".github" / "workflows" / "tier1.yml"


def slow_step_ids() -> list[str]:
    """Every tests/... node ID that a `pytest -m slow` step of the workflow names."""
    steps = re.split(r"\n\s*- ", WORKFLOW.read_text())
    return [node for step in steps if "-m slow" in step
            for node in re.findall(r"tests/[^\s\"]+", step)]


def test_the_workflow_slow_ids_collect():
    # the IDs are kept by hand; a renamed or deleted test must fail here, not in CI
    ids = slow_step_ids()
    assert "tests/test_benchmark_replay.py::test_benchmark_smoke" in ids
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-m", "slow",
         "-p", "no:cacheprovider", *ids],
        cwd=ROOT, capture_output=True, text=True, env=env, timeout=300,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 0 and "not found" not in out, out
    # each ID selects at least one slow test, not only tests `-m slow` deselects
    collected = [line for line in run.stdout.splitlines() if line.startswith("tests/")]
    for node in ids:
        assert any(c == node or c.startswith((node + "::", node + "[")) for c in collected), node
