import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from banditlab import (
    BanditOptimalLearner,
    MinimaxBanditAdversary,
    MultiLabelExample,
    PermutationAdversary,
    VersionSpace,
    bldim,
    constants_class,
    draw_permutation_tape,
    full_class,
    guessing_game,
    make_adversary,
    make_guesser,
    make_learner,
    make_sequence,
    permutation_class,
    permutation_sequence,
    play,
    run_experiment,
    sample_noise_sequence,
    sample_realizable_sequence,
)
from banditlab.adversaries import (
    GUESSER_LEARNERS,
    GUESSER_NAMES,
    SequenceAdversary,
    every_permutation_sequence,
    guessing_run,
    permutation_floor,
)
from bsoa_oracle import bsoa_prediction, forcing_instance
from corpus_util import enumerated_spaces, random_spaces
from banditlab.catalog import parse_spec, subclass
from banditlab.dimensions import bldim_split
from banditlab.harness import _mean_stderr, _schedule_mistakes


# ---------------------------------------------------------------------------
# the guessing game
# ---------------------------------------------------------------------------


def enumerated_mistakes(k, strategy, hidden):
    """Oracle: the deterministic game against one hidden label, written out."""
    guesser, mistakes = make_guesser(strategy, k), 0
    for _ in range(k - 1):
        guess = guesser.next_guess()
        correct = guess == hidden
        mistakes += not correct
        guesser.observe(guess, correct)
    return mistakes


def exact_expected_mistakes(k, strategy):
    """Enumeration oracle: average the deterministic game over all hidden labels."""
    return Fraction(sum(enumerated_mistakes(k, strategy, h) for h in range(k)), k)


@pytest.mark.parametrize("k", range(2, 9))
def test_nonrepeating_guesser_attains_the_floor_exactly(k):
    assert exact_expected_mistakes(k, "nonrepeating") == Fraction(k - 1, 2)


def test_constant_guesser_exact_expectation():
    assert exact_expected_mistakes(3, "constant") == Fraction(4, 3)


@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("strategy", ["nonrepeating", "constant", "cycling"])
def test_every_deterministic_strategy_meets_the_floor(k, strategy):
    assert exact_expected_mistakes(k, strategy) >= Fraction(k - 1, 2)


@pytest.mark.parametrize("strategy", GUESSER_NAMES)
def test_monte_carlo_agrees_with_the_floor(strategy):
    k, trials = 4, 4000
    rng = np.random.default_rng(8)
    guess_rng = np.random.default_rng(9)
    counts = [
        guessing_game(k, make_guesser(strategy, k, guess_rng), rng)
        for _ in range(trials)
    ]
    mean = sum(counts) / trials
    se = (np.var(counts, ddof=1) / trials) ** 0.5
    assert mean >= (k - 1) / 2 - 3 * se


class _HiddenLabel:
    """Stands in for the game's generator: always hides the same label."""

    def __init__(self, label):
        self.label = label

    def integers(self, k):
        return self.label


# Each guessing strategy is its learner on full:1xk.  A deterministic one's
# wrong guesses against hidden label h have a closed form, and each is checked
# three ways: through the guesser protocol `make_guesser` serves, through
# `_schedule_mistakes` on the fixed runs as claim-guessing counts them, and
# through `play` against the replayed run.

CLOSED_FORMS = {
    "nonrepeating": lambda k, h: h,  # guesses 0, 1, ..., h
    "constant": lambda k, h: (k - 1) * (h != 0),
    "cycling": lambda k, h: k - 1 - (h < k - 1),  # guesses 0, ..., k-2 once each
}


def counts_by_protocol(strategy, k):
    return [guessing_game(k, make_guesser(strategy, k), _HiddenLabel(h)) for h in range(k)]


def counts_by_schedule(strategy, k):
    start = make_learner(GUESSER_LEARNERS[strategy], full_class(1, k), k - 1)
    return _schedule_mistakes(start, [guessing_run(h, k - 1) for h in range(k)])


def counts_by_play(strategy, k):
    fc, lname = full_class(1, k), GUESSER_LEARNERS[strategy]
    replays = [SequenceAdversary(guessing_run(h, k - 1), True) for h in range(k)]
    return [play(make_learner(lname, fc, k - 1), adv, k - 1, None)[0].mistakes for adv in replays]


@pytest.mark.parametrize("count", [counts_by_protocol, counts_by_schedule, counts_by_play])
@pytest.mark.parametrize("k", range(2, 9))
@pytest.mark.parametrize("strategy", sorted(CLOSED_FORMS))
def test_every_deterministic_strategy_makes_its_closed_form_count(strategy, k, count):
    assert count(strategy, k) == [CLOSED_FORMS[strategy](k, h) for h in range(k)]


@pytest.mark.parametrize("k", range(2, 9))
def test_the_random_row_is_the_scalar_games_on_its_streams(k):
    """claim-guessing draws the random guesser's games over arrays, from one
    stream pair per k: the row must be the scalar games on those streams."""
    trials, seed = 300, 5
    ss = np.random.SeedSequence(seed)
    game_ss, guess_ss = [ss.spawn(2) for _ in range(2, 9)][k - 2]
    game_rng, guess_rng = np.random.default_rng(game_ss), np.random.default_rng(guess_ss)
    scalar = [guessing_game(k, make_guesser("random", k, guess_rng), game_rng) for _ in range(trials)]
    report = run_experiment("claim-guessing", seed=seed, trials=trials)
    (row,) = [r for r in report.rows if r.klass == f"k={k}" and r.learner == "random"]
    assert (row.mean_mistakes, row.stderr) == _mean_stderr(scalar)


def test_guessing_game_rejects_tiny_k():
    guesser = make_guesser("constant", 2)
    with pytest.raises(ValueError):
        guessing_game(1, guesser, np.random.default_rng(0))
    with pytest.raises(ValueError):
        make_guesser("constant", 1)


def test_guessing_adversary_requires_all_labels_at_zero():
    rng = np.random.default_rng(0)
    make_adversary("guessing", constants_class(1, 4), 5, rng)  # fine
    missing = subclass(full_class(1, 3), 0b011)  # no row with h(0)=2
    with pytest.raises(ValueError):
        make_adversary("guessing", missing, 5, rng)


def test_guessing_adversary_ends_after_T_rounds_on_one_hidden_label():
    fc = constants_class(1, 4)
    adv = make_adversary("guessing", fc, 5, np.random.default_rng(2))
    learner, rounds = play(make_learner("cycling", fc, 50), adv, 50, None)
    assert len(rounds) == 5 and adv.next_instance() is None
    assert {r.x for r in rounds} == {0}
    assert len({r.allowed for r in rounds}) == 1
    assert fc.full_space().class_error(adv.sequence()) == 0


# ---------------------------------------------------------------------------
# the permutation adversary
# ---------------------------------------------------------------------------


def test_permutation_schedule_structure():
    fc = permutation_class(1, 3)
    tape = ((1, 2, 0),)
    adv = PermutationAdversary(fc, 1, tape=tape)
    assert adv.seq == permutation_sequence(fc, 1, tape) == make_sequence([(0, {1}), (0, {1}), (1, {2})])
    xs = []
    while (x := adv.next_instance()) is not None:
        xs.append(x)
        adv.respond(0)
    assert xs == [0, 0, 1]  # instance (0,0) twice, then (0,1) once
    assert adv.length == 3


@pytest.mark.parametrize("delta,k", [(1, 3), (2, 4)])
def test_permutation_justification_is_realizable(delta, k):
    fc = permutation_class(delta, k)
    rng = np.random.default_rng(21)
    for _ in range(5):
        adv = PermutationAdversary(fc, delta, rng)
        while (x := adv.next_instance()) is not None:
            adv.respond(int(rng.integers(k)))
        assert adv.length == delta * k * (k - 1) // 2
        assert fc.full_space().class_error(adv.sequence()) == 0


@pytest.mark.parametrize("delta,k", [(1, 2), (1, 3), (2, 4), (3, 5), (2, 9)])
def test_permutation_tape_is_one_permutation_per_block(delta, k):
    """Per element, as the tape was read before: each block's permutation
    read value by value.  The same ints, the same next draw."""
    for seed in range(20):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        tape = draw_permutation_tape(delta, k, rng)
        assert tape == tuple(tuple(int(v) for v in ref.permutation(k)) for _ in range(delta))
        assert all(type(v) is int for row in tape for v in row)
        assert rng.integers(2**62) == ref.integers(2**62)


def test_permutation_tape_makes_runs_reproducible():
    fc = permutation_class(2, 4)
    tape = draw_permutation_tape(2, 4, np.random.default_rng(3))
    runs = []
    for _ in range(2):
        adv = PermutationAdversary(fc, 2, tape=tape)
        learner, _ = play(make_learner("capacity", fc, adv.length), adv, adv.length, None)
        runs.append(learner.mistakes)
    assert runs[0] == runs[1]


def test_permutation_shape_mismatch_raises():
    with pytest.raises(ValueError):
        PermutationAdversary(full_class(2, 3), 1, np.random.default_rng(0))


def test_permutation_floor_values():
    assert permutation_floor(1, 3) == 1.5
    assert permutation_floor(2, 4) == 6.0


@pytest.mark.parametrize("spec", ["perm:1x3", "perm:2x3", "perm:2x4"])
def test_every_permutation_sequence_is_each_tape_schedule_on_the_product(spec):
    fc = parse_spec(spec)
    delta, k = fc.n // fc.k, fc.k
    tapes = every_permutation_sequence(fc, delta)
    assert list(tapes) == list(itertools.product(itertools.permutations(range(k)), repeat=delta))
    for tape, seq in tapes.items():
        assert seq == permutation_sequence(fc, delta, tape), tape


@pytest.mark.parametrize("spec, delta", [("perm:2x3", 1), ("perm:1x3", 2), ("full:2x3", 3)])
def test_every_permutation_sequence_refuses_a_class_that_is_not_delta_blocks(spec, delta):
    with pytest.raises(ValueError, match="needs n = delta\\*k"):
        every_permutation_sequence(parse_spec(spec), delta)


def test_every_permutation_sequence_builds_each_table_once():
    fc, other = parse_spec("perm:2x3"), parse_spec("perm:2x3")
    tapes = every_permutation_sequence(fc, 2)
    assert every_permutation_sequence(fc, 2) is tapes
    assert every_permutation_sequence(other, 2) is tapes  # equal classes share one table

# ---------------------------------------------------------------------------
# the minimax forcing adversary
# ---------------------------------------------------------------------------


def play_minimax(fc, learner_name, T):
    adv = MinimaxBanditAdversary(fc)
    learner, _ = play(make_learner(learner_name, fc, T), adv, T, np.random.default_rng(0))
    return learner.mistakes, adv


ZOO = ("capacity", "soa-bandit", "constant", "cycling")


def test_minimax_floor_on_sampled_spaces():
    spaces = enumerated_spaces()[::3] + random_spaces(10, seed=5)
    for space in spaces:
        fc = subclass(space.cls, space.mask)
        d = bldim(fc.full_space())
        if d > 6:
            continue
        T = d + 2
        for name in ZOO:
            mistakes, adv = play_minimax(fc, name, T)
            assert mistakes >= min(T, d), (fc.name, name)
            # the survivor dimension moves down by at most one per forced round
            trace = adv.bldim_trace
            assert all(prev - 1 <= nxt <= prev for prev, nxt in zip(trace, trace[1:]))
            assert all(v >= 0 for v in trace)
            assert fc.full_space().class_error(adv.sequence()) == 0


def test_minimax_truncated_horizon_forces_every_round():
    fc = full_class(2, 3)  # bldim 4
    mistakes, _ = play_minimax(fc, "capacity", T=2)
    assert mistakes == 2


def test_bsoa_attains_the_minimax_value_exactly():
    for space in enumerated_spaces()[::2]:
        fc = subclass(space.cls, space.mask)
        d = bldim(fc.full_space())
        for T in (1, d + 3):
            mistakes, _ = play_minimax(fc, "bsoa", T)
            assert mistakes == min(T, d), fc.name


@pytest.mark.parametrize("spec", ["full:2x3", "perm:1x3"])
def test_bandit_split_matches_the_label_by_label_routes(spec):
    """bsoa and the minimax adversary read `bldim_split`; on every nonempty
    subclass they choose what the label-by-label loops chose."""
    fc = parse_spec(spec)
    adv = MinimaxBanditAdversary(fc)
    for mask in range(1, fc.full_mask + 1):
        space = VersionSpace(fc, mask)
        learner = BanditOptimalLearner(space)
        for x in range(fc.n):
            assert bldim_split(space, x) == [bldim(space.restrict_ne(x, y)) for y in range(fc.k)]
            assert learner.predict(x) == bsoa_prediction(space, x), (mask, x)
        adv.space = space
        assert adv._forcing_instance() == forcing_instance(space), mask


def test_bandit_split_rejects_an_instance_outside_the_class():
    fc = full_class(2, 3)
    for x in (fc.n, -1):
        with pytest.raises(ValueError, match="outside"):
            BanditOptimalLearner.for_class(fc).predict(x)
        with pytest.raises(ValueError, match="outside"):
            bldim_split(fc.full_space(), x)


def test_minimax_on_singleton_is_honest_from_the_start():
    fc = subclass(full_class(1, 3), 0b001)
    mistakes, adv = play_minimax(fc, "bsoa", T=4)
    assert mistakes == 0
    assert adv.bldim_trace == [0]


# ---------------------------------------------------------------------------
# sequence samplers
# ---------------------------------------------------------------------------


def test_sampled_sequences_are_realizable():
    fc = full_class(2, 3)
    for setsize in (1, 2, 3):
        seq, h = sample_realizable_sequence(fc, 15, np.random.default_rng(4), setsize)
        assert fc.full_space().class_error(seq) == 0
        row = fc.table[h]
        assert all(row[ex.x] in ex.allowed and len(ex.allowed) == setsize for ex in seq)


def test_sampler_is_deterministic_under_a_seed():
    fc = full_class(2, 3)
    a, _ = sample_realizable_sequence(fc, 10, np.random.default_rng(11), 2)
    b, _ = sample_realizable_sequence(fc, 10, np.random.default_rng(11), 2)
    assert a == b


def _sample_round_by_round(fc, T, rng, label_set_size):
    """The sampler's draws with a fresh example built every round."""
    h = int(rng.integers(fc.size))
    items = []
    for x in rng.integers(fc.n, size=T):
        truth = fc.table[h][int(x)]
        allowed = {truth}
        if label_set_size > 1:
            others = [y for y in range(fc.k) if y != truth]
            decoys = rng.choice(len(others), size=label_set_size - 1, replace=False)
            allowed.update(others[int(i)] for i in decoys)
        items.append(MultiLabelExample(int(x), frozenset(allowed)))
    return tuple(items), h


@pytest.mark.parametrize("setsize", [1, 2, 3])
def test_sampler_draws_as_a_fresh_example_per_round(setsize):
    fc = full_class(2, 4)
    for seed in range(5):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        seq, h = sample_realizable_sequence(fc, 40, rng, setsize)
        assert (seq, h) == _sample_round_by_round(fc, 40, ref, setsize)
        assert rng.integers(2**62) == ref.integers(2**62)  # the same draws, in order
        # equal rounds are one object, each built once
        assert len({id(ex) for ex in seq}) == len(set(seq))


def test_sampler_rejects_bad_set_size():
    fc = full_class(1, 2)
    with pytest.raises(ValueError):
        sample_realizable_sequence(fc, 5, np.random.default_rng(0), 3)


def _noise_round_by_round(fc, T, rng, label_set_size):
    """The noise sampler's draws as it made them one round at a time: the T
    instances, then one `choice` per round, with a fresh example each round."""
    items = []
    for x in rng.integers(fc.n, size=T):
        labels = rng.choice(fc.k, size=label_set_size, replace=False)
        items.append(MultiLabelExample(int(x), frozenset(int(y) for y in labels)))
    return tuple(items)


@pytest.mark.parametrize("spec", [f"full:1x{k}" for k in range(2, 10)] + ["full:2x4"])
def test_noise_sampler_draws_as_a_choice_per_round(spec):
    """At one label the T label sets are one `integers(k, size=T)` draw: the
    same bounded draws `choice(k, 1, replace=False)` makes round by round."""
    fc = parse_spec(spec)
    for setsize, T, seed in itertools.product(range(1, fc.k + 1), (0, 1, 59, 200), range(5)):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        seq = sample_noise_sequence(fc, T, rng, setsize)
        assert seq == _noise_round_by_round(fc, T, ref, setsize), (setsize, T, seed)
        assert rng.integers(2**62) == ref.integers(2**62)  # the same draws, in order
        # equal rounds are one object, each built once
        assert len({id(ex) for ex in seq}) == len(set(seq))


# sha256 of `repr` of each sampler's return on full:2x3, T=200,
# default_rng(7), per label set size, recorded before the samplers read
# their draws as whole arrays.  Any change to a sampler's draw layout moves them
PINNED_SAMPLE_SHA256 = {
    ("noise", 1): "f7964064191a5508bc61e364eec23c787ac83cc345d670bfa7e3b8eb612db17e",
    ("noise", 2): "92ca76f800cc256b610ded6f418bd8fe8e9eb72c1c746d6a5676066ce643f509",
    ("noise", 3): "fc7fedd41ca69393e741711d4fa943837f8e44fc59561b295551e7b27ddfb724",
    ("realizable", 1): "c964aa9845a13e08419bd4f59dcd145a012035ac3a83b29cd5288dfe24c556b9",
    ("realizable", 2): "b20f78b18eb4b67cb943b5780f09a3baeb37f3fc54c01f914ab6abbcd00499e7",
    ("realizable", 3): "4311f466f5dc72f04eee1d094fd4186d20a987008ed2d15076f1c1934b7fa3d3",
}
SAMPLERS = {"noise": sample_noise_sequence, "realizable": sample_realizable_sequence}


@pytest.mark.parametrize("sampler, setsize", sorted(PINNED_SAMPLE_SHA256))
def test_samplers_keep_their_pinned_draws(sampler, setsize):
    out = SAMPLERS[sampler](full_class(2, 3), 200, np.random.default_rng(7), setsize)
    assert hashlib.sha256(repr(out).encode()).hexdigest() == PINNED_SAMPLE_SHA256[sampler, setsize]


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
@pytest.mark.parametrize("field", ["T", "label_set_size"])
@pytest.mark.parametrize("bad", [-1, 2.5, True, "3", 1.0])
def test_samplers_refuse_a_bad_size_naming_it(sampler, field, bad):
    sizes = {"T": 5, "label_set_size": 1, field: bad}
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        SAMPLERS[sampler](full_class(2, 3), rng=np.random.default_rng(0), **sizes)


@pytest.mark.parametrize("sampler", sorted(SAMPLERS))
def test_samplers_take_numpy_integer_sizes(sampler):
    fc, draw = full_class(2, 3), SAMPLERS[sampler]
    out = draw(fc, np.int64(4), np.random.default_rng(3), np.int64(2))
    assert out == draw(fc, 4, np.random.default_rng(3), 2)


def test_make_adversary_names():
    fc = permutation_class(1, 3)
    rng = np.random.default_rng(0)
    for name in ("guessing", "permutation:1", "minimax", "random-realizable:1", "noise:2"):
        adv = make_adversary(name, fc, 5, rng)
        assert adv.next_instance() is not None
    with pytest.raises(ValueError):
        make_adversary("nope", fc, 5, rng)
