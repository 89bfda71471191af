"""Benchmark for banditlab's three costs: expert-pool games, cold dimension
searches and short bandit games.

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

With --workload, runs that workload; without it, runs all three one after
another.  Each workload runs in its own single-threaded process (child.py).
Set-up time is the median over SETUP_SAMPLES fresh processes, half started
before the timed run and half after it, of the time from process start to
READY, printed by the child once it has imported banditlab and built its
first inputs.  Like every timing, each sample is scaled to the host speed
measured just before and after it (hostspeed.py).  Every metric is printed
by name and unit, and the last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics, or with --trace 1 the per-layer metrics.  The
full result, with each workload's named parts, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import hostspeed

BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"
WORKLOADS = ("agnostic-exp4", "exact-dims", "bandit-games")
SETUP_SAMPLES = 10  # set-up-only processes, half on each side of the timed run
CHILD_LIMIT_S = 150.0  # a run, set-up samples included, must end within 180 s
ENV = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")


class ChildFailed(RuntimeError):
    pass


def start_child(workload: str, seed: int, seconds: float, trace: bool, mode: str):
    """Start a workload process; returns it and the seconds until its READY line."""
    args = [sys.executable, str(CHILD), workload, str(seed), str(seconds), str(int(trace)), mode]
    start = perf_counter()
    proc = subprocess.Popen(args, stdout=subprocess.PIPE, text=True, env=ENV, cwd=BENCH.parent)
    watchdog = threading.Timer(CHILD_LIMIT_S, proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    ready = perf_counter() - start
    if line.strip() != "READY":
        proc.kill()
        proc.communicate()
        watchdog.cancel()
        raise ChildFailed(f"{workload} did not set up (exit code {proc.returncode})")
    return proc, watchdog, ready


def finish_child(proc, watchdog) -> str:
    try:
        out, _ = proc.communicate()
    finally:
        watchdog.cancel()
    if proc.returncode != 0:
        raise ChildFailed(f"workload process exited with code {proc.returncode}")
    return out


def setup_only(workload: str, seed: int, seconds: float, trace: bool, count: int) -> list[float]:
    """Set-up times of `count` fresh processes, each scaled to the host
    speed around it."""
    setups = []
    for _ in range(count):
        before = hostspeed.speed_point()
        proc, watchdog, ready = start_child(workload, seed, seconds, trace, "setup")
        finish_child(proc, watchdog)
        setups.append(hostspeed.scale(ready, (before + hostspeed.speed_point()) / 2))
    return setups


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    # set-up samples on both sides of the timed run, so that one busy spell
    # of the host does not cover all of them
    setups = setup_only(workload, seed, seconds, trace, SETUP_SAMPLES // 2)
    proc, watchdog, _ = start_child(workload, seed, seconds, trace, "run")
    lines = finish_child(proc, watchdog).strip().splitlines()
    setups += setup_only(workload, seed, seconds, trace, SETUP_SAMPLES // 2)
    if not lines:
        raise ChildFailed(f"{workload} printed no result")
    result = json.loads(lines[-1])
    result["setup_samples"] = setups
    result["setup_s"] = statistics.median(setups)
    return result


def end_to_end(result: dict) -> dict:
    return {
        "setup_s": {"value": result["setup_s"], "unit": "s"},
        "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        "round_s": {"value": result["round_s"], "unit": "s"},
    }


def per_layer(result: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in result["layers"].items()}


def report(workload: str, result: dict, trace: bool) -> None:
    print(
        f"{workload}: attempted {result['attempted']}, failed {result['failed']}, "
        f"correct {str(result['correct']).lower()}, {len(result['rounds'])} rounds"
    )
    for problem in result["problems"]:
        print(f"  problem: {problem}")
    for name, metric in end_to_end(result).items():
        print(f"  {name} {metric['value']:.6g} {metric['unit']}")
    for name, unit, value in result["parts"]:
        print(f"  {name} {value:.6g} {unit}")
    if trace:
        for name, metric in per_layer(result).items():
            print(f"  {name} {metric['value']:.6g} {metric['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    trace = bool(args.trace)
    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, trace)
    except ChildFailed as err:
        print(f"benchmark failed: {err}", file=sys.stderr)
        return 1
    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    for name, result in results.items():
        report(name, result, trace)
        path = out_dir / f"{name}-seed{args.seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(result, indent=1) + "\n")
    metrics_of = per_layer if trace else end_to_end
    if args.workload:
        metrics = metrics_of(results[args.workload])
    else:
        metrics = {f"{n}.{m}": v for n, r in results.items() for m, v in metrics_of(r).items()}
    summary = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
