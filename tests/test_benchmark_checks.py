"""The benchmark's own output checks pass on the presets at the sizes its
bandit-games workload calls them with.  bench/workloads.py is imported as it
is, read-only, so a preset change that the benchmark would report as a wrong
output fails here first.  claim-permutation's check, which replays every
tape through the protocol (about 2 s), is left to the benchmark."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

from banditlab import run_experiment  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def test_claim_guessing_passes_the_benchmark_checks_pooled_over_eight_calls():
    wl = workloads.BanditGames(1, Tracer(False))
    calls = []
    for op in range(8):
        report = run_experiment("claim-guessing", seed=op, trials=500)
        assert wl.check_claim_guessing(report) == [], op
        calls.append(workloads.Call("claim-guessing_s", 0, op, [(0.0, 0.1)], 500, report))
    wl.check_together(calls)
    assert wl.problems == [] and not any(c.failed for c in calls)


def test_thm2_realizable_and_thm4_linear_pass_the_benchmark_checks():
    wl = workloads.BanditGames(1, Tracer(False))
    assert wl.check_thm2_realizable(run_experiment("thm2-realizable", seed=1, trials=20)) == []
    assert wl.check_thm4_linear(run_experiment("thm4-linear", seed=1, trials=250)) == []
