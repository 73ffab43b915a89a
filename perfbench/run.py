#!/usr/bin/env python3
"""The polyrealize benchmark.

One workload run, untraced (end-to-end metrics) or traced (per-layer metrics):

    python3 perfbench/run.py --workload sweep|gaps|witness [--seed N]
                             [--seconds S] [--trace 0|1]

Every workload, both modes, one cycle each, checked against BENCHMARK.json:

    python3 perfbench/run.py --smoke

Re-record the expected outputs at the default seeds (perfbench/pins.json):

    python3 perfbench/run.py --record-pins

Run from the root of a source checkout: the program is imported from
``src/``.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md.
"""

import os

# One process, one thread: later numpy code must not spread over the cores.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PINS = BENCH / "pins.json"
OUT = BENCH / "out"
SETUP_PROBES = 9  # fresh processes timed per run; setup_s is their median
# The reference loop's fastest time on this machine when other tenants left
# it alone (2-core Intel Xeon VM, Python 3.11.7); see reference_loop().
REFERENCE_S = 0.005
REFERENCE_EVERY_S = 0.25  # call time between two reference samples
PROCESS_TIMEOUT = 170


def import_program() -> None:
    """Put the checkout's src/ first on the path; refuse any other copy."""
    sys.path.insert(0, str(SRC))
    try:
        import polyrealize
    except ImportError as exc:
        sys.exit(f"error: cannot import polyrealize from {SRC}: {exc}")
    if SRC.resolve() not in Path(polyrealize.__file__).resolve().parents:
        sys.exit(f"error: polyrealize came from {polyrealize.__file__}, not {SRC}")


def machine() -> dict:
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "not installed"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def probe_command(workload: str, seed) -> list[str]:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"]
    return cmd if seed is None else cmd + ["--seed", str(seed)]


def setup_times(workload: str, seed) -> list[float]:
    """Fresh process to ready, timed from outside, SETUP_PROBES times.

    Each time is scaled by the reference loop run right after its probe.
    """
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(probe_command(workload, seed), cwd=ROOT,
                              stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=PROCESS_TIMEOUT)
        if line != "ready" or code != 0:
            sys.exit(f"error: setup probe failed (exit {code}, said {line!r})")
        slowdown = min(reference_loop() for _ in range(3)) / REFERENCE_S
        times.append(elapsed / slowdown)
    return times


def load_pins(wl):
    """(pins for this workload or None, problems)."""
    from workloads import budgets

    if not wl.pinned_seed:
        return None, []
    try:
        pins = json.loads(PINS.read_text())
    except (OSError, ValueError) as exc:
        return None, [f"pinned record unreadable: {exc}"]
    if pins["budgets"] != budgets():
        return None, ["pinned record was taken with other budgets; re-record it"]
    return pins[wl.name], []


def quantile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100)[q - 1]


def reference_loop() -> float:
    """Seconds for a fixed pure-Python loop that does not touch the program.

    Other tenants of the shared machine slow it down by up to 2x, in phases
    that last from seconds to minutes.  The loop slows down with it, so the
    end-to-end timings are scaled by its fastest time in the run, measured
    between calls, relative to REFERENCE_S.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    return time.perf_counter() - t0


def cycles(wl, done, rec, on_call):
    """Run every unit of wl, over and over, until done(timed seconds) holds.

    Whole cycles only, so every unit is repeated equally often.  The first
    cycle's calls are checked in full; later repeats must return exactly what
    the first did.  on_call(u, call) sees every call.  Returns (first-cycle
    calls, cycles run, timed seconds, operations, failures, slowdown), where
    slowdown is the reference loop's fastest time over REFERENCE_S.
    """
    from workloads import check_call, check_pins, compare_calls

    pins, failures = load_pins(wl)
    first = []
    timed = 0.0
    operations = 0
    reference = float("inf")
    since_reference = float("inf")
    r = 0
    while r == 0 or not done(timed):
        for u in range(len(wl.units)):
            call = wl.run_unit(u, rec)
            timed += call.seconds
            since_reference += call.seconds
            if since_reference >= REFERENCE_EVERY_S:
                reference = min(reference, reference_loop())
                since_reference = 0.0
            operations += call.operations
            if r == 0:
                first.append(call)
                failures.extend(check_call(call))
            else:
                failures.extend(compare_calls(first[u], call))
            on_call(u, call)
        r += 1
    if pins is not None:
        failures.extend(check_pins(first, pins))
    slowdown = reference / REFERENCE_S
    print(f"machine reference loop: fastest {1e3 * reference:.4f} ms, "
          f"slowdown x{slowdown:.4f} against {1e3 * REFERENCE_S:g} ms")
    return first, r, timed, operations, failures, slowdown


def run_untraced(wl, seconds: float):
    """End-to-end metrics from each unit's fastest repeat.

    Other tenants of a shared machine slow it down in phases that last
    seconds, so a mean over repeats follows the machine more than the
    program; a unit's fastest repeat is the one they disturbed least.
    Slower phases that last the whole run are taken out by scaling with the
    reference loop; the unscaled values are printed too.
    """
    from workloads import Recorder

    setup = setup_times(wl.name, wl.seed)
    wl.warm_up()
    best_call: list[float] = []
    best_search: list[list[float]] = []

    def keep_fastest(u: int, call) -> None:
        if u == len(best_call):
            best_call.append(call.seconds)
            best_search.append([s.seconds for s in call.searches])
            return
        best_call[u] = min(best_call[u], call.seconds)
        best_search[u] = [min(a, s.seconds) for a, s in zip(best_search[u], call.searches)]

    with Recorder() as rec:
        first, r, timed, operations, failures, slowdown = cycles(
            wl, lambda timed: timed >= seconds, rec, keep_fastest)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempts = sum(c.attempts for c in first)
    certified = sum(c.certified for c in first)
    fastest = sum(best_call)
    latencies = [t for row in best_search for t in row]
    raw = {
        "attempts_per_s": attempts / fastest,
        "certified_per_s": certified / fastest,
        "search_p50_ms": 1e3 * quantile(latencies, 50),
        "search_p90_ms": 1e3 * quantile(latencies, 90),
    }
    metrics = {
        "setup_s": statistics.median(setup),
        "attempts_per_s": raw["attempts_per_s"] * slowdown,
        "certified_per_s": raw["certified_per_s"] * slowdown,
        "search_p50_ms": raw["search_p50_ms"] / slowdown,
        "search_p90_ms": raw["search_p90_ms"] / slowdown,
        "peak_rss_mb": peak_rss_mb,
    }
    beyond = sum(1 for t in latencies if 1e3 * t > raw["search_p90_ms"])
    print(f"workload {wl.name}, seed {wl.seed}: {len(wl.units)} units x {r} cycles, "
          f"{timed:.2f} s timed; per cycle {attempts} attempts, {certified} certified, "
          f"{fastest:.3f} s summed over fastest repeats")
    print("unscaled: " + ", ".join(f"{name} {value}" for name, value in raw.items()))
    print(f"setup_s samples (scaled): {' '.join(f'{t:.4f}' for t in setup)}")
    print(f"search latency: {len(latencies)} searches (fastest of {r} repeats each), "
          f"{beyond} beyond p90")
    print(f"checks: {operations} operations; pinned record "
          + ("checked" if wl.pinned_seed else "not applied (not the default seed)"))
    return metrics, operations, failures


def run_traced(wl, seconds: float, machine_info: dict):
    """Per-layer metrics from a replay of every call through the layers' public API."""
    from replay import ATTEMPT_LAYERS, Replayer, Tracer
    from workloads import Recorder

    wl.warm_up()
    tracer = Tracer()
    rp = Replayer(tracer)
    if wl.name == "witness":
        rp.enumerate_couples(-1)  # the witness units are built from this call
    acc = {"engine_s": 0.0, "replay_s": 0.0, "search_s": 0.0, "sweep_self_s": 0.0,
           "sweeps": 0, "attempts": 0}

    def replay(u: int, call) -> None:
        search_s = sum(s.seconds for s in call.searches)
        acc["engine_s"] += call.seconds
        acc["search_s"] += search_s
        acc["attempts"] += call.attempts
        if call.sweep is not None:
            acc["sweeps"] += 1
            acc["sweep_self_s"] += call.seconds - call.report_seconds - search_s
        t0 = time.perf_counter()
        rp.replay_call(call)
        acc["replay_s"] += time.perf_counter() - t0

    with Recorder() as rec:
        _, r, _, operations, failures, _ = cycles(
            wl, lambda timed: timed + acc["replay_s"] >= seconds, rec, replay)

    counts = tracer.counts
    if counts["attempts"] != acc["attempts"]:
        rp.mismatches.append(f"replay made {counts['attempts']} attempts, "
                             f"engine {acc['attempts']}")
    totals = tracer.totals()

    def per_call_us(name: str) -> float:
        calls, secs = totals[name]
        return 1e6 * secs / calls if calls else 0.0

    def ratio(num: str, den: str) -> float:
        return counts[num] / counts[den] if counts[den] else 0.0

    layer_s = sum(totals[name][1] for name in ATTEMPT_LAYERS)
    report_calls = totals["report.json"][0]
    metrics = {
        "sampler.draw_us": per_call_us("sampler.draw"),
        "sampler.loop_self_us": 1e6 * (acc["search_s"] - layer_s) / acc["attempts"],
        "sampler.attempts": counts["attempts"],
        "sampler.float_hits": counts["float_hits"],
        "polycore.expand_sign_us": per_call_us("polycore.expand_sign"),
        "polycore.ambiguous_ratio": ratio("ambiguous", "sign_tests"),
        "criticalgaps.gap_report_us": per_call_us("criticalgaps.gap_report"),
        "criticalgaps.degenerate_ratio": ratio("degenerate", "gap_reports"),
        "certifier.rationalize_us": per_call_us("certifier.rationalize"),
        "certifier.certify_couple_us": per_call_us("certifier.certify_couple"),
        "certifier.certify_gap_us": per_call_us("certifier.certify_gap"),
        "certifier.reject_ratio": ratio("rejects", "float_hits"),
        "moduliorders.forcing_us": per_call_us("moduliorders.forcing"),
        "signpatterns.enumerate_us": per_call_us("signpatterns.enumerate"),
        "sweeps.self_s": acc["sweep_self_s"] / acc["sweeps"] if acc["sweeps"] else 0.0,
        "report.json_us": per_call_us("report.json"),
        "report.bytes": counts["report_bytes"] / report_calls if report_calls else 0.0,
    }
    path = OUT / f"trace-{wl.name}-seed{wl.seed}.json.gz"
    tracer.write(path, {"workload": wl.name, "seed": wl.seed, "cycles": r,
                        "engine_s": acc["engine_s"], "replay_s": acc["replay_s"],
                        "machine": machine_info})
    engine_s, replay_s = acc["engine_s"], acc["replay_s"]
    print(f"workload {wl.name}, seed {wl.seed}: {len(wl.units)} units x {r} traced cycles, "
          f"{len(tracer.name)} spans written to {path.relative_to(ROOT)}")
    print(f"tracing overhead: replay {replay_s:.3f} s vs untraced engine {engine_s:.3f} s "
          f"on the same calls (+{replay_s - engine_s:.3f} s, x{replay_s / engine_s:.2f})")
    print("sampler.loop_self_us is derived: engine search time minus the replayed "
          "layer spans, per attempt")
    for name, (calls, secs) in totals.items():
        print(f"  span {name}: {calls} calls, {secs:.4f} s")
    if rp.mismatches:
        print("trace check FAILED; per-layer numbers withheld:")
        for msg in rp.mismatches:
            print(f"  {msg}")
        return {}, operations, failures + rp.mismatches
    print(f"trace check: replay reproduced all {rp.search_ids} engine searches")
    return metrics, operations, failures


def run(args) -> int:
    from workloads import Workload

    info = machine()
    wl = Workload(args.workload, args.seed)
    if args.trace:
        metrics, operations, failures = run_traced(wl, args.seconds, info)
    else:
        metrics, operations, failures = run_untraced(wl, args.seconds)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    for name, value in metrics.items():
        print(f"{name} {value} {units[name]}")
    failed = min(len(failures), operations)
    print(f"failed_ops_ratio {failed / operations} ({failed} of {operations} operations)")
    for msg in failures:
        print(f"FAILED {msg}")
    print("machine " + json.dumps(info))
    print(json.dumps({
        "correct": not failures,
        "attempted": operations,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


def setup_probe(args) -> int:
    from workloads import Workload

    Workload(args.workload, args.seed).warm_up()
    print("ready", flush=True)
    return 0


def record_pins() -> int:
    from workloads import WORKLOADS, Recorder, Workload, budgets, check_call, pin_record

    pins: dict = {"budgets": budgets()}
    for name in WORKLOADS:
        wl = Workload(name)
        with Recorder() as rec:
            calls = [wl.run_unit(u, rec) for u in range(len(wl.units))]
        failures = [msg for call in calls for msg in check_call(call)]
        if failures:
            sys.exit("error: cannot pin failing calls:\n" + "\n".join(failures))
        pins[name] = pin_record(calls)
        print(f"{name}: {len(pins[name]['codes'])} searches recorded from seed {wl.seed}")
    PINS.write_text(json.dumps(pins, separators=(",", ":")) + "\n")
    return 0


def smoke() -> int:
    """One pass of every workload in both modes; names and units must match."""
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seconds", "0", "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=PROCESS_TIMEOUT)
            where = f"{name} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()}")
                continue
            result = json.loads(lines[-1])
            want = [m["name"] for m in spec[key]]
            got = list(result["metrics"])
            if sorted(got) != sorted(want):
                problems.append(f"{where}: metrics {got} differ from BENCHMARK.json {want}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: correct={result['correct']} "
                                f"failed={result['failed']} attempted={result['attempted']}")
            if not any(line.startswith("checks:") or line.startswith("trace check:")
                       for line in lines):
                problems.append(f"{where}: no output checks reported")
            print(f"{where}: {len(got)} metrics, attempted {result['attempted']}, "
                  f"correct {result['correct']}")
    for p in problems:
        print(f"SMOKE FAILED {p}")
    print("smoke ok" if not problems else f"smoke failed: {len(problems)} problems")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("sweep", "gaps", "witness"))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default: the pinned acceptance seed)")
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="timed seconds to fill with passes (at least one pass)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-pins", action="store_true")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    import_program()
    if args.smoke:
        return smoke()
    if args.record_pins:
        return record_pins()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        return setup_probe(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
