import ast
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditlab import (
    BanditFeedback,
    CapacityLearner,
    Exp4Learner,
    FiniteClass,
    FullInfoFeedback,
    RealizabilityViolation,
    SOALearner,
    best_expert_loss,
    bldim,
    capacity,
    exp4_gamma,
    expert_count,
    full_class,
    ldim,
    make_learner,
    make_sequence,
    run_game,
    sample_realizable_sequence,
    soa_prediction,
)
from banditlab import learners
from banditlab.catalog import parse_spec
from banditlab.dimensions import _ldim_mask
from banditlab.harness import GameConfig
from banditlab.learners import (
    LEARNER_NAMES,
    capacity_drops,
    learner_class,
)
from capacity_oracle import bandit_potential
from corpus_util import named_corpus
from exp4_oracle import (
    enumerate_experts,
    imitating_expert,
    numpy_advice_weights,
    numpy_distribution,
    ordered_sum,
    play_oracle,
    uncached_moves,
    uncached_soa_label,
)


# ---------------------------------------------------------------------------
# SOA
# ---------------------------------------------------------------------------


def test_soa_breaks_ties_toward_smallest_label():
    fc = full_class(1, 2)  # two constants, both restrictions have ldim 0
    assert soa_prediction(fc.full_space(), 0) == 0


def test_soa_prefers_the_dimension_keeping_label():
    # three rows: two with h(0)=1 (they still differ at x=1), one with h(0)=0
    fc = FiniteClass("m", 2, 2, [[0, 0], [1, 0], [1, 1]])
    space = fc.full_space()
    assert ldim(space.restrict_eq(0, 1)) > ldim(space.restrict_eq(0, 0))
    assert soa_prediction(space, 0) == 1


@pytest.mark.parametrize("fc", named_corpus(), ids=lambda c: c.name)
def test_soa_mistake_bound_on_realizable_runs(fc):
    bound = ldim(fc.full_space())
    for seed in range(10):
        rng = np.random.default_rng(seed)
        seq, _ = sample_realizable_sequence(fc, 25, rng)
        learner = SOALearner.for_class(fc)
        for ex in seq:
            pred = learner.predict(ex.x)
            learner = learner.update(ex.x, pred, FullInfoFeedback(ex.allowed))
        assert learner.mistakes <= bound


def test_soa_raises_once_the_space_is_contradicted():
    fc = FiniteClass("c0", 1, 2, [[0]])
    learner = SOALearner.for_class(fc)
    learner = learner.update(0, 0, FullInfoFeedback(frozenset({1})))
    with pytest.raises(RealizabilityViolation):
        learner.predict(0)


# ---------------------------------------------------------------------------
# the capacity potential
# ---------------------------------------------------------------------------


def test_potential_full_binary_class():
    fc = full_class(1, 2)
    for y0 in (0, 1):
        selected, updated, drop = bandit_potential((fc.full_space(),), 0, y0)
        assert len(selected) == 1
        assert [v.size for v in updated] == [1]
        assert drop == 3  # capacity 4 -> 1


def test_potential_singleton_off_its_own_label():
    fc = full_class(1, 2)
    single = fc.space([1])  # the constant-1 row
    selected, updated, drop = bandit_potential((single,), 0, 1)
    assert len(selected) == 1 and updated == () and drop == 1
    selected, updated, drop = bandit_potential((single,), 0, 0)
    assert selected == () and updated == (single,) and drop == 0


def test_potential_is_never_negative_and_mass_bounds_hold():
    # collections reached by running the learner, plus handmade ones
    for fc in named_corpus():
        k = fc.k
        collections = [
            (fc.full_space(),),
            tuple(fc.space([h]) for h in range(min(3, fc.size))),
        ]
        learner = CapacityLearner.for_class(fc)
        rng = np.random.default_rng(3)
        seq, _ = sample_realizable_sequence(fc, 12, rng)
        for ex in seq:
            pred = learner.predict(ex.x)
            learner = learner.update(ex.x, pred, BanditFeedback(pred in ex.allowed))
            collections.append(learner.collection)
        for coll in collections:
            if not coll:
                continue
            cap = capacity(coll)
            drops = []
            for x in range(fc.n):
                drops_x = [bandit_potential(coll, x, y)[2] for y in range(k)]
                assert all(d >= 0 for d in drops_x)
                # total potential mass: k * sum >= (k-1) * capacity, exactly
                assert k * sum(drops_x) >= (k - 1) * cap
                # argmax floor: 2k * max >= capacity, exactly
                assert 2 * k * max(drops_x) >= cap
                drops.append(drops_x)


def test_capacity_learner_hand_trace():
    # adversary answers "wrong" while it can; exactly one mistake then perfect
    fc = full_class(1, 2)
    learner = CapacityLearner.for_class(fc)
    p1 = learner.predict(0)
    assert p1 == 0  # smallest-label tie-break
    learner = learner.update(0, p1, BanditFeedback(False))
    assert learner.mistakes == 1
    p2 = learner.predict(0)
    assert p2 == 1
    learner = learner.update(0, p2, BanditFeedback(True))
    assert learner.mistakes == 1


def run_capacity_instrumented(fc, seq):
    """Run the learner over a sequence, checking exact shrinkage and coverage."""
    k = fc.k
    learner = CapacityLearner.for_class(fc)
    consistent = fc.full_mask  # hypotheses agreeing with all feedback so far
    for ex in seq:
        pred = learner.predict(ex.x)
        correct = pred in ex.allowed
        cap_before = capacity(learner.collection)
        learner = learner.update(ex.x, pred, BanditFeedback(correct))
        if not correct:
            cap_after = capacity(learner.collection)
            assert 2 * k * cap_after <= (2 * k - 1) * cap_before  # exact integers
            consistent &= ~fc.eq_mask(ex.x, pred)
        elif len(ex.allowed) == 1:
            consistent &= fc.eq_mask(ex.x, pred)
        union = 0
        for v in learner.collection:
            union |= v.mask
        assert consistent & ~union == 0  # every consistent hypothesis is covered
        assert capacity(learner.collection) >= 1
    return learner.mistakes


@pytest.mark.parametrize("fc", named_corpus(), ids=lambda c: c.name)
def test_capacity_learner_bound_shrinkage_and_coverage(fc):
    bound = 4.0 * fc.k * math.log(fc.k) * ldim(fc.full_space())
    for seed in range(8):
        rng = np.random.default_rng(seed)
        seq, _ = sample_realizable_sequence(fc, 20, rng)
        mistakes = run_capacity_instrumented(fc, seq)
        assert mistakes < bound


def test_capacity_learner_raises_on_unrealizable_run():
    fc = FiniteClass("c01", 1, 2, [[0], [1]])
    learner = CapacityLearner.for_class(fc)
    with pytest.raises(RealizabilityViolation):
        for _ in range(5):  # nothing is ever correct: no hypothesis survives
            pred = learner.predict(0)
            learner = learner.update(0, pred, BanditFeedback(False))


@st.composite
def capacity_games(draw):
    """A generated class (n <= 4, k <= 4) and a single-label run realized by one of its rows."""
    n, k = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    row = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    fc = FiniteClass("drawn", n, k, draw(st.lists(row, min_size=1, max_size=14)))
    target = fc.table[draw(st.integers(0, fc.size - 1))]
    xs = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=12))
    return fc, [(x, target[x]) for x in xs]


@settings(max_examples=200, deadline=None)
@given(capacity_games())
def test_one_pass_drops_match_the_potential_and_capacity_shrinks(game):
    fc, run = game
    k = fc.k
    learner = CapacityLearner.for_class(fc)
    for x, truth in run:
        for z in range(fc.n):
            drops = [bandit_potential(learner.collection, z, y)[2] for y in range(k)]
            assert capacity_drops(learner.collection, z) == drops
        drops = [bandit_potential(learner.collection, x, y)[2] for y in range(k)]
        pred = learner.predict(x)
        assert pred == max(range(k), key=drops.__getitem__)  # largest drop, smallest label
        before = learner.collection
        learner = learner.update(x, pred, BanditFeedback(pred == truth))
        if pred != truth:
            assert learner.collection == bandit_potential(before, x, pred)[1]
            # C' <= (1 - 1/(2k)) C, in exact integers
            assert 2 * k * capacity(learner.collection) <= (2 * k - 1) * capacity(before)


# ---------------------------------------------------------------------------
# experts
# ---------------------------------------------------------------------------


def test_expert_count_examples():
    assert expert_count(2, 2, 1) == 5
    assert expert_count(2, 2, 1) <= (2 * 2 + 1) ** 1
    assert expert_count(10, 3, 0) == 1
    assert expert_count(10, 3, 0) <= (10 * 3 + 1) ** 0
    assert expert_count(100, 3, 2) == 1 + 300 + math.comb(100, 2) * 9
    assert expert_count(100, 3, 2) <= (100 * 3 + 1) ** 2


@pytest.mark.parametrize("L", [0, 1, 2, 3, 5])
def test_expert_count_ceiling_holds_on_a_grid(L):
    # it always holds: C(T,j) * k^j <= C(L,j) * (T*k)^j for j <= L, and the
    # right-hand terms sum to (T*k + 1)^L
    for T in (1, 2, 3, 7, 50, 200):
        for k in (2, 3, 5):
            assert expert_count(T, k, L) <= (T * k + 1) ** L, (T, k, L)
    # the plainer (T*k)^L misses 1 + T*k at L = 1, e.g. 601 > 600 at T=200, k=3
    assert expert_count(200, 3, 1) == 601


@pytest.mark.parametrize("T", [0, -3])
def test_exp4_refuses_a_horizon_below_one(T):
    fc = full_class(1, 3)
    for call in (
        lambda: expert_count(T, 3, 1),
        lambda: exp4_gamma(T, 3, 1),
        lambda: Exp4Learner.for_class(fc, T),
    ):
        with pytest.raises(ValueError, match=f"T={T}"):
            call()


def test_singleton_class_has_one_expert_following_it():
    fc = FiniteClass("one", 2, 3, [[2, 1]])
    assert expert_count(5, fc.k, ldim(fc.full_space())) == 1
    (expert,) = enumerate_experts(fc, 5)
    xs = [0, 1, 0, 1, 0]
    assert expert.advice_sequence(fc, xs) == [2, 1, 2, 1, 2]


def play_exp4(fc, seq, T, rng):
    """The dynamic-program learner against seq; returns it and its per-round
    play distributions."""
    learner = Exp4Learner.for_class(fc, T)
    distributions = []
    for ex in seq:
        distributions.append(learner.distribution(ex.x))
        pred = learner.predict(ex.x, rng)
        learner = learner.update(ex.x, pred, BanditFeedback(pred in ex.allowed))
    return learner, distributions


def assert_matches_oracle(fc, seq, T, seed):
    learner, distributions = play_exp4(fc, seq, T, np.random.default_rng(seed))
    oracle = play_oracle(fc, seq, T, np.random.default_rng(seed))
    assert oracle.experts == expert_count(T, fc.k, learner.L)
    assert learner.gamma == oracle.gamma
    for p, q in zip(distributions, oracle.distributions):
        assert np.max(np.abs(p - q)) <= 1e-9
    assert learner.mistakes == oracle.mistakes
    assert best_expert_loss(fc, seq) == oracle.best_expert_loss


def test_pool_advice_matches_expert_simulation():
    # wrong answers leave every expert's weight at 1/N, so the summed advice
    # weights are the enumerated experts' advice counts over N
    fc = full_class(2, 2)
    T = 4
    xs = [0, 1, 1, 0]
    experts = enumerate_experts(fc, T)
    advice = np.array([e.advice_sequence(fc, xs) for e in experts])
    learner = Exp4Learner.for_class(fc, T)
    for t, x in enumerate(xs):
        counts = np.bincount(advice[:, t], minlength=fc.k)
        assert np.array(learner.advice_weights(x)) * len(experts) == pytest.approx(counts, abs=1e-9)
        learner = learner.update(x, 0, BanditFeedback(False))


def test_imitating_expert_replays_the_hypothesis():
    fc = full_class(2, 3)
    rng = np.random.default_rng(12)
    L = ldim(fc.full_space())
    for h in range(fc.size):
        row = fc.table[h]
        xs = [int(v) for v in rng.integers(fc.n, size=10)]
        expert = imitating_expert(fc, xs, [row[x] for x in xs])
        assert len(expert.rounds) <= L
        assert expert.advice_sequence(fc, xs) == [row[x] for x in xs]


def test_best_expert_never_beats_by_less_than_the_class():
    fc = full_class(2, 2)
    rng = np.random.default_rng(5)
    for _ in range(6):
        seq = make_sequence(
            [(int(rng.integers(fc.n)), {int(rng.integers(fc.k))}) for _ in range(8)]
        )
        best = best_expert_loss(fc, seq)
        assert best <= fc.full_space().class_error(seq)
        assert best == play_oracle(fc, seq, 8, np.random.default_rng(1)).best_expert_loss


def test_exp4_plays_a_class_with_hundreds_of_millions_of_experts():
    fc = full_class(3, 3)
    assert expert_count(400, fc.k, ldim(fc.full_space())) > 2 * 10**8
    (transcript,) = run_game(GameConfig(fc, "exp4", "noise:1", T=400, trials=1, seed=3))
    assert len(transcript.rounds) == 400


# ---------------------------------------------------------------------------
# exp4
# ---------------------------------------------------------------------------


def test_single_expert_pool_follows_it_exactly():
    fc = FiniteClass("one", 1, 3, [[2]])
    learner = Exp4Learner.for_class(fc, 6)
    assert learner.gamma == 0.0
    seq = make_sequence([(0, {2})] * 6)
    learner, _ = play_exp4(fc, seq, 6, np.random.default_rng(0))
    assert learner.mistakes == 0 and best_expert_loss(fc, seq) == 0
    oracle = play_oracle(fc, seq, 6, np.random.default_rng(0))
    assert oracle.experts == 1 and oracle.mistakes == 0 and oracle.best_expert_loss == 0


def test_uniform_advice_mixture():
    # round 0 on full:1x3, T=20: of the 61 experts, the 58 that do not deviate
    # at round 0 follow SOA's label 0 and one deviates to each label
    fc = full_class(1, 3)
    learner = Exp4Learner.for_class(fc, 20)
    gamma = learner.gamma
    assert 0.0 < gamma < 1.0
    assert np.array(learner.advice_weights(0)) * 61 == pytest.approx([59, 1, 1])
    p = np.array(learner.distribution(0))
    assert p[0] == pytest.approx((1 - gamma) * 59 / 61 + gamma / 3)
    assert p[1] == pytest.approx((1 - gamma) / 61 + gamma / 3)
    assert p.sum() == pytest.approx(1.0)


def test_exp4_learner_matches_sequence_runner():
    fc = full_class(1, 3)
    T = 30
    seq, _ = sample_realizable_sequence(fc, T, np.random.default_rng(77))
    assert_matches_oracle(fc, seq, T, seed=5)


@st.composite
def small_games(draw):
    n, k = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    row = st.lists(st.integers(0, k - 1), min_size=n, max_size=n)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    T = draw(st.integers(1, 6))
    labels = st.sets(st.integers(0, k - 1), min_size=1, max_size=k)
    seq = draw(st.lists(st.tuples(st.integers(0, n - 1), labels), min_size=T, max_size=T))
    return FiniteClass("drawn", n, k, rows), make_sequence(seq), T, draw(st.integers(0, 2**32))


@settings(max_examples=80, deadline=None)
@given(small_games())
def test_exp4_dynamic_program_matches_enumerated_experts(game):
    fc, seq, T, seed = game
    assert_matches_oracle(fc, seq, T, seed)


def test_exp4_update_is_pure():
    fc = full_class(1, 2)
    learner = Exp4Learner.for_class(fc, 10)
    w0 = dict(learner.weights)
    nxt = learner.update(0, 0, BanditFeedback(True))
    assert learner.weights == w0 and learner.t == 0
    assert nxt.t == 1


@pytest.mark.parametrize(
    "pairs, message",
    [([(0, {7})], r"label 7 outside \[0, 3\)"), ([(5, {1})], r"instance 5 outside \[0, 1\)")],
    ids=["label", "instance"],
)
def test_best_expert_loss_checks_its_sequence_as_class_error_does(pairs, message):
    fc = full_class(1, 3)
    seq = make_sequence(pairs)
    for call in (best_expert_loss, lambda fc, seq: fc.full_space().class_error(seq)):
        with pytest.raises(ValueError, match=message):
            call(fc, seq)


def test_exp4_refuses_rounds_past_its_horizon():
    fc = full_class(1, 2)
    learner = Exp4Learner.for_class(fc, 1).update(0, 0, BanditFeedback(True))
    with pytest.raises(ValueError):
        learner.predict(0, np.random.default_rng(0))


@pytest.mark.parametrize(
    "make",
    [
        lambda: full_class(2, 3),
        lambda: full_class(3, 3),
        lambda: FiniteClass("rand:4x3", 4, 3, np.random.default_rng(19).integers(3, size=(20, 4))),
    ],
    ids=["full:2x3", "full:3x3", "rand:4x3"],
)
def test_label_cache_holds_the_uncached_labels(make):
    fc = make()
    (transcript,) = run_game(GameConfig(fc, "exp4", "noise:1", T=40, trials=1, seed=8))
    seq = transcript.justification
    xs = [ex.x for ex in seq]
    best_expert_loss(fc, seq)
    for row in fc.table[:: max(1, fc.size // 6)]:
        labels = [row[x] for x in xs]
        assert imitating_expert(fc, xs, labels).advice_sequence(fc, xs) == labels
    assert len(fc.label_cache) >= fc.n
    for (mask, x), y in fc.label_cache.items():
        assert y == uncached_soa_label(fc, mask, x)
    L = ldim(fc.full_space())
    assert len(fc.move_cache) >= fc.n
    for (mask, j, x), moves in fc.move_cache.items():
        assert moves == tuple(uncached_moves(fc, L, mask, j, x))
    fresh = make()
    assert fresh.label_cache == {} and fresh.move_cache == {}


def test_exp4_builds_each_distribution_and_each_label_once(monkeypatch):
    fc = full_class(2, 3)
    builds, computed, lookups = [], [], []
    advice_weights, soa_label = Exp4Learner.advice_weights, learners._soa_label_mask

    def counted_advice(self, x):
        builds.append(x)
        return advice_weights(self, x)

    def counted_ldim(fc, mask):
        computed.append(mask)
        return _ldim_mask(fc, mask)

    def counted_label(fc, mask, x):
        lookups.append((mask, x))
        return soa_label(fc, mask, x)

    monkeypatch.setattr(Exp4Learner, "advice_weights", counted_advice)
    monkeypatch.setattr(learners, "_ldim_mask", counted_ldim)
    monkeypatch.setattr(learners, "_soa_label_mask", counted_label)
    learner = Exp4Learner.for_class(fc, 50)
    assert learner.gamma > 0.0
    pred = learner.predict(1, np.random.default_rng(3))
    learner.update(1, pred, BanditFeedback(True))  # the boost reads predict's distribution
    assert builds == [1]

    fc = full_class(2, 3)
    fc.move_cache = moves = CountedDict()
    computed.clear()
    lookups.clear()
    run_game(GameConfig(fc, "exp4", "noise:1", T=50, trials=1, seed=4))
    assert set(lookups) == set(fc.label_cache)
    assert len(computed) == fc.k * len(fc.label_cache) < fc.k * len(lookups)
    assert len(moves.writes) == len(set(moves.writes)) == len(moves) < moves.reads


class CountedDict(dict):
    """A dict that counts its `get` calls and records the keys written."""

    def __init__(self):
        super().__init__()
        self.reads, self.writes = 0, []

    def get(self, key, default=None):
        self.reads += 1
        return super().get(key, default)

    def __setitem__(self, key, value):
        self.writes.append(key)
        super().__setitem__(key, value)


def test_exp4_caches_only_the_moves_of_the_states_it_visits():
    # ldim 6: 173,117 (mask, j) states are reachable over every instance
    # order, and a table of all of them takes seconds to build; the game
    # weights 34,198 states over its rounds and caches 9,655 moves
    fc = FiniteClass("rand:12x3", 12, 3, np.random.default_rng(29).integers(3, size=(200, 12)))
    assert fc.size == 200
    rng = np.random.default_rng(4)
    target = fc.table[int(rng.integers(fc.size))]
    learner = Exp4Learner.for_class(fc, 50)
    visited = 0
    for _ in range(50):
        x = int(rng.integers(fc.n))
        visited += len(learner.weights)
        pred = learner.predict(x, rng)
        learner = learner.update(x, pred, BanditFeedback(pred == target[x]))
    assert 0 < len(fc.move_cache) <= visited


@pytest.mark.parametrize("T", [1, 5, 200])
@pytest.mark.parametrize("n", [1, 2], ids=["full:1x3", "full:2x3"])
def test_exp4_reads_each_rounds_shares_from_one_table(n, T):
    fc = full_class(n, 3)
    learner = Exp4Learner.for_class(fc, T)
    L, table = learner.L, learner.shares_by_round
    rng = np.random.default_rng(T)
    for t in range(T):
        assert learner.t == t and learner.shares_by_round is table
        expected = [learners._continuations(T - t - 1, fc.k, L - j) for j in range(L + 2)]
        assert list(learner._shares) == expected
        x = int(rng.integers(fc.n))
        pred = learner.predict(x, rng)
        learner = learner.update(x, pred, BanditFeedback(bool(rng.integers(2))))
    with pytest.raises(ValueError, match=f"set up for {T} rounds"):
        learner._shares


def test_exp4_share_table_is_built_once_per_horizon_labels_and_ldim():
    # its entries are checked round by round in the test above
    full, const = full_class(1, 3), parse_spec("const:2x3")  # both k = 3, L = 1
    a, b = Exp4Learner.for_class(full, 40), Exp4Learner.for_class(const, 40)
    assert (a.fc.k, a.L) == (b.fc.k, b.L) == (3, 1)
    assert a.shares_by_round is b.shares_by_round
    assert Exp4Learner.for_class(full, 41).shares_by_round is not a.shares_by_round


def assert_draws_as_choice(learner, x, seed, draws):
    """`predict` against `Generator.choice` on the same distribution, draw
    for draw from two generators of one seed: equal labels, equal states."""
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    p = learner.distribution(x)
    for _ in range(draws):
        assert learner.predict(x, rng_a) == int(rng_b.choice(learner.fc.k, p=p))
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@pytest.mark.parametrize("spec", ["full:1x3", "full:2x3"])
def test_exp4_draws_as_generator_choice_draws(spec):
    fc = parse_spec(spec)
    learner = Exp4Learner.for_class(fc, 30)
    rng = np.random.default_rng(11)
    for t in range(30):
        x = int(rng.integers(fc.n))
        assert_draws_as_choice(learner, x, seed=t, draws=50)
        pred = learner.predict(x, rng)
        learner = learner.update(x, pred, BanditFeedback(bool(rng.integers(2))))


def test_exp4_draws_the_one_label_of_a_one_row_class():
    fc = FiniteClass("one", 2, 3, [[2, 1]])
    learner = Exp4Learner.for_class(fc, 10)
    assert learner.L == 0 and learner.gamma == 0.0
    for x, label in ((0, 2), (1, 1)):
        assert list(learner.distribution(x)) == [float(y == label) for y in range(3)]
        assert_draws_as_choice(learner, x, seed=x, draws=50)
        assert learner.predict(x, np.random.default_rng(x)) == label


def holding(p):
    """An Exp4 state on full:1xk whose cached distribution at x = 0 is p."""
    learner = Exp4Learner.for_class(full_class(1, len(p)), 5)
    learner._distributions[0] = tuple(p)
    return learner


@pytest.mark.parametrize("k", range(2, 9))
def test_exp4_draws_as_choice_on_distributions_with_zero_entries(k):
    rng = np.random.default_rng(k)
    ps = [np.eye(k)[y] for y in range(k)]  # one-hot
    for zero in range(k):
        p = rng.random(k)
        p[zero] = 0.0
        ps.append(p / p.sum())
    p = np.zeros(k)
    p[[0, k - 1]] = 0.5
    ps.append(p)
    for seed, p in enumerate(ps):
        assert_draws_as_choice(holding(p), 0, seed, draws=200)


@pytest.mark.parametrize("seed", range(8))
def test_exp4_draws_as_choice_where_the_uniform_meets_a_cdf_step(seed):
    # [u, 1 - u] puts the first cdf step at the generator's next uniform u,
    # and [a, s - a] (s = 1 - 1e-9, which `choice` accepts as summing to 1)
    # puts it below u before normalizing and above u after, so a search on
    # the wrong side of a step, an unnormalized cdf or a rounded uniform
    # draws another label than `choice` does
    u = np.random.default_rng(seed).random()
    s = 1.0 - 1e-9
    a = u * s + u * 0.5e-9
    for p in (np.array([u, 1.0 - u]), np.array([a, s - a])):
        assert_draws_as_choice(holding(p), 0, seed, draws=1)


def test_exp4_distribution_is_shared_and_read_only():
    learner = Exp4Learner.for_class(full_class(1, 3), 20)
    p = learner.distribution(0)
    assert learner.distribution(0) is p
    with pytest.raises(TypeError):
        p[0] = 1.0


def test_exp4_normalizes_by_the_sum_taken_left_to_right():
    # pasts with no deviation left keep one continuation each, so the
    # normalizer is the sum of their weights; math.fsum rounds these terms
    # up, where the sum taken left to right (and `sum` before Python 3.12)
    # does not
    learner = Exp4Learner.for_class(full_class(2, 2), 5)
    terms = [1.0, 1e-16, 1e-16]
    ordered = 0.0
    for w in terms:
        ordered += w
    assert math.fsum(terms) != ordered
    weights = {(1 << h, learner.L): w for h, w in enumerate(terms)}  # singletons stay put
    nxt = replace(learner, weights=weights).update(0, 0, BanditFeedback(False))
    assert nxt.weights == {state: w / ordered for state, w in weights.items()}


def exp4_states(spec, T, seed):
    """Every state of an Exp4 game on spec, fed random instances and random
    bandit feedback."""
    fc = parse_spec(spec)
    learner = Exp4Learner.for_class(fc, T)
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(T):
        states.append(learner)
        x = int(rng.integers(fc.n))
        pred = learner.predict(x, rng)
        learner = learner.update(x, pred, BanditFeedback(bool(rng.integers(2))))
    return states


@pytest.mark.parametrize("spec", [f"full:1x{k}" for k in range(2, 8)] + ["full:2x3"])
def test_exp4_computes_in_floats_what_numpy_computes_below_eight_labels(spec):
    # below 8 terms numpy's sum is taken left to right, as the learner's is
    for t, learner in enumerate(exp4_states(spec, 30, seed=11)):
        for x in range(learner.fc.n):
            assert learner.advice_weights(x) == numpy_advice_weights(learner, x).tolist()
            assert learner.distribution(x) == tuple(numpy_distribution(learner, x).tolist())
            assert_draws_as_choice(learner, x, seed=t, draws=20)


@pytest.mark.parametrize("k", [8, 9])
def test_exp4_sums_left_to_right_from_eight_labels_on(k):
    # from 8 terms on numpy sums pairwise; the learner still sums in order
    for t, learner in enumerate(exp4_states(f"full:1x{k}", 30, seed=k)):
        p = learner.distribution(0)
        assert learner.advice_weights(0) == numpy_advice_weights(learner, 0).tolist()
        assert p == tuple(numpy_distribution(learner, 0, total=ordered_sum).tolist())
        assert np.max(np.abs(np.array(p) - numpy_distribution(learner, 0))) <= 1e-15
        assert_draws_as_choice(learner, 0, seed=t, draws=20)


def test_exp4_distribution_normalizes_by_the_sums_taken_left_to_right():
    # pasts with no deviation left advise their own label with one
    # continuation each, so on full:1x8 the advice weights are these terms;
    # numpy's pairwise sum, math.fsum and the sum taken left to right all
    # round them differently.  Without exploration (gamma 0) p is the terms
    # over their sum
    learner = Exp4Learner.for_class(full_class(1, 8), 5)
    terms = [1.0] + [2.0**-53] * 7
    assert len({np.sum(terms), math.fsum(terms), ordered_sum(terms)}) == 3
    weights = {(1 << y, learner.L): w for y, w in enumerate(terms)}  # row y plays y
    state = replace(learner, weights=weights, gamma=0.0)
    assert state.advice_weights(0) == terms
    p = state.distribution(0)
    assert p == tuple(numpy_distribution(state, 0, total=ordered_sum).tolist())
    assert p != tuple(numpy_distribution(state, 0).tolist())
    assert p != tuple(numpy_distribution(state, 0, total=math.fsum).tolist())


class NoNumpy:
    """Stands in for numpy, failing on any use."""

    def __getattr__(self, name):
        raise AssertionError(f"numpy.{name} was called")


def test_exp4_plays_its_rounds_without_numpy(monkeypatch):
    fc = full_class(2, 3)
    learner = Exp4Learner.for_class(fc, 30)
    rng = np.random.default_rng(8)
    xs = [int(x) for x in rng.integers(fc.n, size=30)]
    target = [int(y) for y in fc.table[int(rng.integers(fc.size))]]
    monkeypatch.setattr(learners, "np", NoNumpy(), raising=False)
    for x in xs:
        assert len(learner.advice_weights(x)) == len(learner.distribution(x)) == fc.k
        pred = learner.predict(x, rng)
        learner = learner.update(x, pred, BanditFeedback(pred == target[x]))
    assert learner.t == 30


def test_learners_module_imports_no_numpy():
    # with the game above, a numpy path cannot come back under another name
    # (`import numpy`, `from numpy import cumsum`, a function-level import)
    tree = ast.parse(Path(learners.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add(node.module)
    assert imported and not {m for m in imported if m.split(".")[0] == "numpy"}


def test_make_learner_registry():
    fc = full_class(1, 3)
    for name in ("soa", "capacity", "soa-bandit", "bsoa", "exp4", "constant:2", "cycling", "random"):
        learner = make_learner(name, fc, 5)
        assert hasattr(learner, "predict")
    for bad in ("nope", "constant:9", "cycling:5", "soa:x", "exp4:1000", "random:"):
        with pytest.raises(ValueError):
            make_learner(bad, fc, 5)


def test_every_learner_declares_whether_it_is_deterministic():
    fc = full_class(1, 3)
    randomized = set()
    for name in LEARNER_NAMES:
        learner = make_learner(name, fc, 5)
        assert type(learner) is learner_class(name)
        assert type(learner).deterministic in (True, False)
        if learner.deterministic:
            learner.predict(0, None)  # plays without a generator
        else:
            randomized.add(name)
    assert randomized == {"exp4", "random"}


def test_bsoa_bound_on_realizable_bandit_runs():
    for fc in named_corpus():
        bound = bldim(fc.full_space())
        for seed in range(6):
            rng = np.random.default_rng(seed)
            seq, _ = sample_realizable_sequence(fc, 20, rng)
            learner = make_learner("bsoa", fc, 20)
            for ex in seq:
                pred = learner.predict(ex.x)
                learner = learner.update(ex.x, pred, BanditFeedback(pred in ex.allowed))
            assert learner.mistakes <= bound
