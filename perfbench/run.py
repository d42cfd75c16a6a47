"""Repo benchmark: end-to-end and per-layer metrics of three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload route-waves --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time (median of
``SETUP_REPEATS`` fresh processes, each importing the package and
building the workload's state), then whole rounds until ``--seconds``
have passed; the rate is the median over rounds.  ``--trace 1`` replays
round 0 from a fresh state, first with counting probes, then plain and
with timed spans in turn until ``--seconds`` have passed, and reports
the per-layer metrics of the last timed pass, the tracing overhead
(median timed minus median plain pass) and whether every count the
program made repeated exactly.  Every check runs outside the timed
regions.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 5
WORKLOADS = ("route-waves", "chaos-replay", "live-stack")


def _prepare_environment() -> None:
    """Keep every file the program writes inside the checkout."""
    build = ROOT / ".bench_build"
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_KERNEL_CACHE"] = str(build / "kernels")
    os.environ["TMPDIR"] = str(build / "tmp")
    sys.path.insert(0, str(ROOT / "src"))


def _declared(kind: str) -> dict:
    """``{name: unit}`` of the metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _workload(name: str):
    if name == "route-waves":
        from route_waves import RouteWaves
        return RouteWaves()
    if name == "chaos-replay":
        from chaos_replay import ChaosReplay
        return ChaosReplay()
    from live_stack import LiveStack
    return LiveStack()


def _reset_caches() -> None:
    """Start a round from empty process-wide caches (snapshots, memos)."""
    from repro.runtime.memo import clear_shard_caches
    clear_shard_caches()


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_block() -> dict:
    import networkx
    import numpy

    from repro.runtime.parallel import resolve_workers
    from repro.topology._walk_kernel import load_kernel
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    return {
        "cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "networkx": networkx.__version__,
        "walk_kernel": load_kernel() is not None,
        "workers": resolve_workers(),
    }


def setup_seconds(args: argparse.Namespace) -> float:
    """Median set-up time over fresh interpreter processes."""
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--setup-only"],
            capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def measure(wl, args: argparse.Namespace) -> dict:
    """The ``--trace 0`` run: set-up time, then timed rounds."""
    setup_s = setup_seconds(args)
    state = wl.setup(args.seed)
    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        _reset_caches()
        gc.collect()
        rounds.append(wl.round(state, args.seed, len(rounds),
                               contextlib.nullcontext))
    failures = wl.checks(args.seed)
    values = {"ops_per_s": wl.rate(rounds),
              "setup_s": setup_s, "peak_rss_mb": _peak_rss_mb()}
    return {
        "correct": not failures and not any(r.failures for r in rounds),
        "attempted": sum(r.attempted for r in rounds) + len(failures),
        "failed": sum(r.failed for r in rounds) + len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in _declared("end_to_end").items()},
    }


def trace(wl, args: argparse.Namespace) -> dict:
    """The ``--trace 1`` run: counted, plain and timed replays of round 0."""
    from layers import COMPARED_CALLS, layer_metrics, probes
    from tracer import Tracer

    from repro.orbits.snapshot import snapshot_cache_info
    from repro.runtime.parallel import pools_created
    from repro.runtime.planner import planner_decisions

    def replay(tracer):
        state = wl.setup(args.seed)
        _reset_caches()
        gc.collect()
        decisions = len(planner_decisions())
        pools = pools_created()
        with tracer.installed() if tracer else contextlib.nullcontext():
            paused = tracer.paused if tracer else contextlib.nullcontext
            outcome = wl.round(state, args.seed, 0, paused)
        outcome.counts["snapshot_builds"] = snapshot_cache_info()[1]
        modes = [d["mode"] for d in planner_decisions()[decisions:]]
        runtime = {"pools_created": pools_created() - pools,
                   "serial": modes.count("serial"),
                   "sharded": modes.count("sharded")}
        return outcome, runtime

    # The counted pass goes first and pays one-time warm-up.  Plain and
    # timed passes then alternate until --seconds have passed, so the
    # overhead compares medians of warm passes, not two noisy samples.
    counter = Tracer(probes(), timed=False)
    counted, _ = replay(counter)
    plains, timed_passes = [], []
    start = time.perf_counter()
    while not plains or time.perf_counter() - start < args.seconds:
        plains.append(replay(None)[0])
        timer = Tracer(probes(), timed=True)
        timed_passes.append((timer,) + replay(timer))
    timer, timed, runtime = timed_passes[-1]

    problems = wl.checks(args.seed)
    passes = [counted] + plains + [p[1] for p in timed_passes]
    if any(p.counts != counted.counts for p in passes):
        problems.append("program counts differ between passes")
    if any(p.outputs != counted.outputs for p in passes):
        problems.append("outputs differ between passes")
    for name in COMPARED_CALLS:
        calls = {t.stats[name].calls for t, *_ in timed_passes}
        if calls != {counter.stats[name].calls}:
            problems.append(f"{name}: {counter.stats[name].calls} calls "
                            f"counted, {sorted(calls)} timed")
    plain_s = statistics.median(p.op_s for p in plains)
    overhead = statistics.median(p[1].op_s for p in timed_passes) - plain_s
    declared = _declared("per_layer")
    # Metrics of layers this workload does not exercise read 0.
    metrics = dict.fromkeys(declared, 0)
    metrics.update(layer_metrics(timer, timed.counts["snapshot_builds"],
                                 runtime, timed.wall_s, timed.faults_fired))
    metrics.update(wl.layer_metrics(plains, timed))
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / plain_s
    if set(metrics) != set(declared):
        raise RuntimeError("metrics missing from BENCHMARK.json: "
                           f"{sorted(set(metrics) - set(declared))}")
    problems += [f"predicted zero {name} reads {metrics[name]}"
                 for name in wl.predicted_zeros if metrics[name] != 0]
    for problem in problems:
        print(f"trace check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems and not any(p.failures for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes) + len(problems),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _prepare_environment()
    if args.setup_only:
        from common import timed
        with timed() as clock:
            _workload(args.workload).setup(args.seed)
        print(clock.seconds)
        return 0
    if args.trace:
        # Every span must land in this process.
        os.environ["REPRO_WORKERS"] = "1"
    wl = _workload(args.workload)
    host = host_block()  # also builds the walk kernel before any timing
    result = trace(wl, args) if args.trace else measure(wl, args)
    from repro.runtime.parallel import shutdown_worker_pools
    shutdown_worker_pools()
    print(json.dumps({"host": host}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
