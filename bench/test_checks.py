"""Each output check of the benchmark rejects a planted wrong answer and passes
the right one.

    python3 -m pytest bench/test_checks.py
"""

import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import banditlab as bl  # noqa: E402
from banditlab import catalog  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def shattered_by(fc, mode):
    return lambda depth: bl.shatter_oracle(fc.full_space(), depth, mode, depth_cap=max(depth, 1))


def test_full_class_dimension_off_by_one_is_rejected():
    ldim, bldim = checks.full_class_dims(3, 3)
    assert checks.dimension_problems("full-3x3", "L", ldim, 27, expected=ldim) == []
    assert checks.dimension_problems("full-3x3", "L", ldim + 1, 27, expected=ldim)
    assert checks.dimension_problems("full-3x3", "BL", bldim - 1, 27, expected=bldim, ldim=ldim)


def test_ldim_off_by_one_is_rejected_by_the_tree_oracle():
    fc = catalog.permutation_class(2, 3)
    shattered = shattered_by(fc, "L")
    assert checks.dimension_problems("perm-2x3", "L", 4, 36, shattered) == []
    assert checks.dimension_problems("perm-2x3", "L", 3, 36, shattered)
    assert checks.dimension_problems("perm-2x3", "L", 5, 36, shattered)


def test_bldim_off_by_one_is_rejected_by_the_tree_oracle():
    fc = catalog.permutation_class(1, 3)
    shattered = shattered_by(fc, "BL")
    assert checks.dimension_problems("perm-1x3", "BL", 3, 6, shattered, ldim=2) == []
    assert checks.dimension_problems("perm-1x3", "BL", 2, 6, shattered, ldim=2)


def test_dimensions_outside_their_bounds_are_rejected():
    assert checks.dimension_problems("r", "L", 4, 31) == []  # floor(log2 31) = 4
    assert checks.dimension_problems("r", "L", 5, 31)
    assert checks.dimension_problems("r", "BL", 2, 8, ldim=3)
    assert checks.dimension_problems("r", "BL", 8, 8, ldim=3)
    assert checks.dimension_problems("r", "BL", 7, 8, ldim=3) == []


def _transcript(xs_correct, allowed, mistakes):
    rounds = [SimpleNamespace(x=x, correct=c) for x, c in xs_correct]
    seq = [SimpleNamespace(x=x, allowed=frozenset(a)) for (x, _), a in zip(xs_correct, allowed)]
    return SimpleNamespace(rounds=rounds, mistakes=mistakes, justification=seq)


def test_transcript_with_wrong_counts_or_errors_is_rejected():
    table = [(0, 0), (1, 1)]
    t = _transcript([(0, False), (1, True)], [{1}, {1}], mistakes=1)
    assert checks.transcript_problems("g", t, 2, True, table, 0) == []
    assert checks.transcript_problems("g", _transcript([(0, False)], [{1}], 0), 2, True, table, 0)
    assert checks.transcript_problems("g", t, 2, True, table, 1)  # class_error disagrees
    noisy = _transcript([(0, True), (1, True)], [{0}, {1}], mistakes=0)
    assert checks.transcript_problems("g", noisy, 2, False, table, 1) == []
    assert checks.transcript_problems("g", noisy, 2, True, table, 1)  # not realizable
    assert checks.transcript_problems("g", t, 1, True, table, 0)  # longer than T


def test_minimax_mistake_counts_off_the_forced_value_are_rejected():
    assert checks.minimax_problems("m", "bsoa", 6, 8, 6, 3, 3) == []
    assert checks.minimax_problems("m", "bsoa", 5, 8, 6, 3, 3)
    assert checks.minimax_problems("m", "bsoa", 6, 5, 6, 3, 3)
    assert checks.minimax_problems("m", "capacity", 7, 8, 6, 3, 3) == []
    assert checks.minimax_problems("m", "capacity", 5, 8, 6, 3, 3)
    assert checks.minimax_problems("m", "capacity", 40, 50, 6, 3, 3)  # 4*3*ln3*3 = 39.5


def test_capacity_that_shrinks_too_little_is_rejected():
    assert checks.capacity_step_problems("c", 3, 600, 500) == []
    assert checks.capacity_step_problems("c", 3, 600, 501)


def test_expectations_below_the_floor_are_rejected():
    floor = Fraction(3, 2)
    assert checks.floor_problems("f", Fraction(3, 2), floor, attains=True) == []
    assert checks.floor_problems("f", Fraction(7, 5), floor)
    assert checks.floor_problems("f", Fraction(2), floor) == []
    assert checks.floor_problems("f", Fraction(2), floor, attains=True)


def test_monte_carlo_mean_far_from_the_exact_expectation_is_rejected():
    nonrepeating = checks.Exact.uniform_over(range(4))  # k=4: wrong guesses 0, 1, 2, 3
    assert nonrepeating.mean == Fraction(3, 2) and nonrepeating.var == Fraction(5, 4)
    floor = Fraction(3, 2)
    eps = checks.bernstein_tolerance(nonrepeating, 4000)
    assert 0 < eps < checks.bernstein_tolerance(nonrepeating, 1000)
    assert checks.mc_problems("mc", 1.5 + 0.9 * eps, nonrepeating, 4000, floor) == []
    assert checks.mc_problems("mc", 1.5 + 1.1 * eps, nonrepeating, 4000, floor)
    # the seeded failure of the preset's own flag (2.02 against 1.5 at 50 trials)
    assert checks.mc_problems("mc", 2.02, nonrepeating, 50, floor) == []


def test_monte_carlo_mean_below_the_floor_is_rejected():
    # claim-permutation perm:2x4 at 100 trials: exact 9 over tapes with 6..12
    # mistakes, floor 6; a reported mean of 5 must not pass
    exact = checks.Exact.uniform_over([6, 8, 9, 9, 10, 12])
    assert checks.mc_problems("mc", 9.1, exact, 100, Fraction(6)) == []
    assert checks.mc_problems("mc", 5.0, exact, 100, Fraction(6))
    # a mean near an exact value that sits on the floor is held to the floor too
    on_floor = checks.Exact.uniform_over([5, 7])
    eps = checks.bernstein_tolerance(on_floor, 100)
    assert len(checks.mc_problems("mc", 6 - 1.1 * eps, on_floor, 100, Fraction(6))) == 2


def test_binomial_distribution_of_a_random_player():
    exact = checks.Exact.binomial(3, Fraction(2, 3))
    assert (exact.mean, exact.var, exact.lo, exact.hi) == (2, Fraction(2, 3), 0, 3)


def test_pooled_monte_carlo_mean_off_the_exact_expectation_is_rejected():
    # k=8 non-repeating guesser, exact 3.5: eight calls of 500 trials reading
    # 3.15 each pass the per-call tolerance (0.84) but not the pooled one (0.28)
    wl = workloads.BanditGames(1, Tracer(False))

    def call(op, mean):
        row = SimpleNamespace(klass="k=8", learner="nonrepeating", direction=">=", mean_mistakes=mean, trials=500)
        return workloads.Call("claim-guessing_s", 0, op, [(0.0, 0.1)], 500, SimpleNamespace(rows=[row]))

    for mean, rejected in ((3.5, False), (3.15, True)):
        calls = [call(op, mean) for op in range(8)]
        assert all(wl.check_claim_guessing(c.out) == [] for c in calls)
        wl.check_together(calls)
        assert bool(wl.problems) == rejected
        assert all(c.failed == rejected for c in calls)


def test_best_expert_rows_that_lose_or_disagree_are_rejected():
    assert checks.best_expert_problems("b", -2, -2) == []
    assert checks.best_expert_problems("b", 1)
    assert checks.best_expert_problems("b", -1, -2)


def _row(klass, learner, adversary, value):
    return SimpleNamespace(klass=klass, learner=learner, adversary=adversary, mean_mistakes=value)


def test_margin_rows_off_their_closed_forms_are_rejected():
    gap = 9 * (1 - math.cos(2 * math.pi / 3))
    assert checks.linear_row_problems(_row("bijections:2x3", "-", "min-gap", gap)) == []
    assert checks.linear_row_problems(_row("bijections:2x3", "-", "min-gap", gap * 1.001))
    assert checks.linear_row_problems(_row("bijections:2x3", "-", "norm-sq", 2 * 3**5)) == []
    assert checks.linear_row_problems(_row("bijections:2x3", "-", "norm-sq", 2 * 3**5 + 1))
    assert checks.linear_row_problems(_row("labelings:3x3", "perceptron", "stream", 6)) == []
    assert checks.linear_row_problems(_row("labelings:3x3", "perceptron", "stream", 7))


def test_brute_class_error_counts_the_best_row():
    table = [(0, 1), (1, 1)]
    seq = [SimpleNamespace(x=0, allowed=frozenset({1})), SimpleNamespace(x=1, allowed=frozenset({0}))]
    assert checks.brute_class_error(table, seq) == 1


def test_benchmark_json_declares_exactly_the_traced_metrics():
    declared = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(workloads.PER_LAYER)
