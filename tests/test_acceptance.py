"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see per-criterion output.
"""

import math
import time

import numpy as np
import pytest

from banditlab import (
    BanditFeedback,
    CapacityLearner,
    FiniteClass,
    bldim,
    capacity,
    full_class,
    ldim,
    make_learner,
    play,
    run_experiment,
    sample_realizable_sequence,
    shatter_oracle,
)
from banditlab.adversaries import MinimaxBanditAdversary
from banditlab.catalog import subclass
from corpus_util import enumerated_spaces, named_corpus, random_spaces


def _report(criterion, detail, t0):
    print(f"criterion {criterion} PASS: {detail} ({time.time() - t0:.1f}s)")


# ---------------------------------------------------------------------------


def test_criterion_1_dimension_oracle_equivalence():
    t0 = time.time()
    spaces = enumerated_spaces() + random_spaces(200, seed=20260809)
    checked = 0
    for space in spaces:
        for mode, dim in (("L", ldim(space)), ("BL", bldim(space))):
            cap = max(6, dim + 1)
            for depth in range(dim + 2):
                assert shatter_oracle(space, depth, mode, depth_cap=cap) == (
                    depth <= dim
                ), (space, mode, depth)
            checked += 1
    assert time.time() - t0 < 60.0
    _report(1, f"recursive dimensions match the tree oracle on {checked} (space, mode) pairs", t0)


def test_criterion_2_known_dimensions():
    t0 = time.time()
    for n in (1, 2, 3):
        for k in (2, 3, 4):
            space = full_class(n, k).full_space()
            assert ldim(space) == n, (n, k)
            assert bldim(space) == (k - 1) * n, (n, k)
    _report(2, "ldim = n and bldim = (k-1)*n on all full classes with n<=3, k<=4", t0)


# ---------------------------------------------------------------------------


def _capacity_run_checked(fc, seq):
    """One capacity-learner run verifying exact shrinkage on every mistake."""
    k = fc.k
    learner = CapacityLearner.for_class(fc)
    for ex in seq:
        pred = learner.predict(ex.x)
        correct = pred in ex.allowed
        before = capacity(learner.collection)
        learner = learner.update(ex.x, pred, BanditFeedback(correct))
        if not correct:
            after = capacity(learner.collection)
            assert 2 * k * after <= (2 * k - 1) * before
        assert capacity(learner.collection) >= 1
    return learner.mistakes


def test_criterion_3_realizable_mistake_ceiling():
    t0 = time.time()
    classes = [
        subclass(space.cls, space.mask)
        for space in enumerated_spaces()
        if ldim(space) >= 1
    ] + named_corpus()
    seeds_per_class = max(1, math.ceil(1000 / len(classes)))
    runs = 0
    for fc in classes:
        bound = 4.0 * fc.k * math.log(fc.k) * ldim(fc.full_space())
        for seed in range(seeds_per_class):
            rng = np.random.default_rng((hash(fc.name) & 0xFFFF) * 1000 + seed)
            seq, _ = sample_realizable_sequence(fc, 20, rng)
            mistakes = _capacity_run_checked(fc, seq)
            assert mistakes < bound, (fc.name, seed, mistakes, bound)
            runs += 1
    assert runs >= 1000
    # degenerate case: a one-hypothesis class is learned with zero mistakes
    single = FiniteClass("single", 2, 3, [[1, 2]])
    seq, _ = sample_realizable_sequence(single, 10, np.random.default_rng(0))
    assert _capacity_run_checked(single, seq) == 0
    _report(3, f"{runs} realizable runs below 4*k*ln(k)*ldim with exact capacity shrinkage", t0)


def test_criterion_4_minimax_floor():
    t0 = time.time()
    classes = [subclass(s.cls, s.mask) for s in enumerated_spaces()] + [
        subclass(s.cls, s.mask) for s in random_spaces(30, seed=314)
    ]
    zoo = ("capacity", "soa-bandit", "constant", "cycling")
    games = 0
    for fc in classes:
        d = bldim(fc.full_space())
        if d > 6:
            continue
        for T in (1, d + 2):
            floor = min(T, d)
            for name in zoo:
                adversary = MinimaxBanditAdversary(fc)
                learner, _ = play(make_learner(name, fc, T), adversary, T, None)
                assert learner.mistakes >= floor, (fc.name, name, T)
                assert fc.full_space().class_error(adversary.sequence()) == 0
                games += 1
            # the optimal bandit learner attains the floor exactly
            learner, _ = play(make_learner("bsoa", fc, T), MinimaxBanditAdversary(fc), T, None)
            assert learner.mistakes == floor, (fc.name, T)
    _report(4, f"minimax adversary forced >= min(T, bldim) in {games} zoo games", t0)


# ---------------------------------------------------------------------------


def test_criterion_5_agnostic_pipeline():
    t0 = time.time()
    report = run_experiment("thm3-agnostic", trials=50, T=200)
    for row in report.rows:
        assert row.passed, (row.klass, row.learner, row.adversary)
    best_expert_rows = [r for r in report.rows if r.learner == "best-expert"]
    assert best_expert_rows and all(r.mean_mistakes <= 0 for r in best_expert_rows)
    elapsed = time.time() - t0
    assert elapsed < 300.0
    _report(5, "mean exp4 regret within e*sqrt(k*T*ldim*ln(T*k)); best expert <= class error", t0)


def test_criterion_6_guessing_floor():
    t0 = time.time()
    report = run_experiment("claim-guessing", trials=100_000)
    for row in report.rows:
        assert row.passed, (row.klass, row.learner, row.direction)
    exact_rows = [r for r in report.rows if r.direction == "="]
    assert len(exact_rows) == 7  # the non-repeating strategy at every k
    _report(6, "all strategies >= (k-1)/2 over 1e5 trials; non-repeating attains it", t0)


def test_criterion_7_permutation_floor():
    t0 = time.time()
    report = run_experiment("claim-permutation", trials=10_000)
    for row in report.rows:
        assert row.passed, (row.klass, row.learner, row.direction)
    # every deterministic learner exactly, over all 3! and (4!)^2 tapes
    exact = {(r.klass, r.learner, r.direction): r for r in report.rows if r.learner != "random"}
    means = {
        "perm:1x3": {"capacity": 5 / 3, "soa-bandit": 1.5, "bsoa": 1.5, "constant": 2.0, "cycling": 2.0},
        "perm:2x4": {"capacity": 7.0, "soa-bandit": 6.0, "bsoa": 6.0, "constant": 9.0, "cycling": 9.0},
    }
    # each of the 6 and 576 tapes equally often, in at least 10^4 games
    games = {"perm:1x3": 1667 * 6, "perm:2x4": 18 * 576}
    for klass, learners in means.items():
        for lname, mean in learners.items():
            directions = (">=", "=") if lname in ("soa-bandit", "bsoa") else (">=",)
            for direction in directions:  # soa-bandit and bsoa attain the floor: it is tight
                row = exact.pop((klass, lname, direction))
                assert (row.trials, row.mean_mistakes, row.stderr) == (games[klass], mean, 0.0)
    assert exact == {}
    randomized = [r for r in report.rows if r.learner == "random"]
    assert [(r.klass, r.trials) for r in randomized] == [("perm:1x3", 10_000), ("perm:2x4", 10_000)]
    _report(7, "every learner >= delta*(k-1)*k/4, exactly over every tape on (1,3) and (2,4), "
            "soa-bandit and bsoa = it; random over 1e4 trials", t0)


def test_criterion_8_linear_constructions():
    t0 = time.time()
    report = run_experiment("thm4-linear")
    for row in report.rows:
        if row.direction != "info":
            assert row.passed, (row.klass, row.adversary)
    info = [r for r in report.rows if r.direction == "info"]
    assert len(info) == 3  # the threshold comparison is reported, never asserted
    gaps = {r.klass: r.bound for r in report.rows if r.adversary == "min-gap"}
    assert gaps["bijections:1x3"] == pytest.approx(13.5)
    assert gaps["bijections:2x4"] == pytest.approx(16.0)
    _report(8, "exact gaps/norms, perceptron within 2*D^2, threshold gap flagged not failed", t0)


def test_criterion_9_byte_identical_reports():
    t0 = time.time()
    for preset, kwargs in (
        ("dim-ratio", {}),
        ("thm2-realizable", {"trials": 10}),
        ("claim-permutation", {"trials": 300}),
        ("thm4-linear", {"trials": 100}),
    ):
        a = run_experiment(preset, seed=77, **kwargs).to_csv()
        b = run_experiment(preset, seed=77, **kwargs).to_csv()
        assert a.encode() == b.encode(), preset
    _report(9, "repeated preset runs emit byte-identical CSV", t0)
