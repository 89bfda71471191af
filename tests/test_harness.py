import functools
import hashlib
import math
import operator
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditlab import (
    full_class,
    harness,
    learners,
    linear,
    make_adversary,
    make_learner,
    permutation_class,
    play,
    run_experiment,
    run_game,
    sample_noise_sequence,
)
from banditlab.adversaries import (
    NonRepeatingGuesser,
    SequenceAdversary,
    draw_permutation_tape,
    sample_realizable_sequence,
)
from banditlab.catalog import subclass
from banditlab.harness import (
    CSV_COLUMNS,
    PRESETS,
    GameConfig,
    bound_holds,
    play_bound,
    resolve_class,
)
from banditlab.hypotheses import RealizabilityViolation, dumps_class, make_sequence


def test_run_game_is_deterministic():
    cfg = GameConfig("full:2x3", "exp4", "random-realizable:2", T=15, trials=3, seed=9)
    a = run_game(cfg)
    b = run_game(cfg)
    assert [t.mistakes for t in a] == [t.mistakes for t in b]
    assert [[r.prediction for r in t.rounds] for t in a] == [
        [r.prediction for r in t.rounds] for t in b
    ]


def test_capacity_vs_minimax_is_a_fixed_deterministic_game():
    cfg = GameConfig("full:1x3", "capacity", "minimax", T=10, trials=3, seed=0)
    transcripts = run_game(cfg)
    assert [t.mistakes for t in transcripts] == [2, 2, 2]  # bldim = 2, then perfect
    space = full_class(1, 3).full_space()
    assert all(space.class_error(t.justification) == 0 for t in transcripts)


def test_soa_within_dimension_on_realizable_games():
    cfg = GameConfig("full:2x2", "soa", "random-realizable:1", T=20, trials=6, seed=4)
    assert all(t.mistakes <= 2 for t in run_game(cfg))


def test_full_info_learner_rejected_by_minimax():
    cfg = GameConfig("full:1x3", "soa", "minimax", T=5, trials=1, seed=0)
    with pytest.raises(ValueError, match="round 1 to the full-information SOALearner$"):
        run_game(cfg)


def test_unknown_names_raise():
    with pytest.raises(ValueError):
        run_game(GameConfig("full:1x2", "nope", "minimax", T=2))
    with pytest.raises(ValueError):
        run_game(GameConfig("full:1x2", "soa", "nope", T=2))
    with pytest.raises(ValueError):
        run_experiment("nope")


def test_resolve_class_accepts_files_and_specs(tmp_path):
    fc = full_class(1, 3)
    path = tmp_path / "c.json"
    path.write_text(dumps_class(fc))
    assert resolve_class(str(path)) == fc
    assert resolve_class("full:1x3") == fc
    assert resolve_class(fc) is fc


def test_play_bounds_resolution():
    fc = full_class(1, 3)
    value, direction = play_bound(
        GameConfig(fc, "capacity", "minimax", T=10), fc
    )
    assert (value, direction) == (2.0, ">=")
    value, direction = play_bound(
        GameConfig(fc, "capacity", "random-realizable:1", T=10), fc
    )
    assert direction == "<" and value == pytest.approx(4 * 3 * np.log(3) * 1)
    value, direction = play_bound(
        GameConfig(fc, "soa", "random-realizable:1", T=10), fc
    )
    assert (value, direction) == (1.0, "<=")
    # the SOA ceiling needs singleton label sets: after a miss, the union of
    # two restrictions can keep the Littlestone dimension
    assert play_bound(GameConfig(fc, "soa", "random-realizable:2", T=10), fc) is None
    assert play_bound(GameConfig(fc, "soa", "guessing", T=10), fc) == (1.0, "<=")
    assert play_bound(GameConfig(fc, "cycling", "noise:1", T=10), fc) is None


def test_permutation_games_stop_at_the_schedule_end():
    fc = permutation_class(1, 3)
    cfg = GameConfig(fc, "cycling", "permutation:1", T=50, trials=2, seed=1)
    for t in run_game(cfg):
        assert len(t.rounds) == 3
        assert fc.full_space().class_error(t.justification) == 0


def test_play_stops_at_the_end_of_the_schedule():
    fc = permutation_class(1, 3)
    adversary = make_adversary("permutation:1", fc, 50, np.random.default_rng(1))
    _, rounds = play(make_learner("cycling", fc, 50), adversary, 50, None)
    assert len(rounds) == 3
    assert adversary.next_instance() is None


@dataclass(frozen=True)
class FeedbackRecorder:
    """A full-information learner that always predicts label 0 and keeps the
    feedback of every round."""

    kind: ClassVar[str] = "full"
    deterministic: ClassVar[bool] = True
    seen: tuple = ()

    def predict(self, x, rng):
        return 0

    def update(self, x, prediction, feedback):
        return FeedbackRecorder(self.seen + ((x, feedback.allowed),))


@pytest.mark.parametrize("aname", ["guessing", "permutation:1", "random-realizable:2", "noise:2"])
def test_play_gives_a_full_information_learner_the_revealed_sets(aname):
    fc = permutation_class(1, 3)
    adversary = make_adversary(aname, fc, 12, np.random.default_rng(3))
    learner, rounds = play(FeedbackRecorder(), adversary, 12, None)
    revealed = [(ex.x, ex.allowed) for ex in adversary.sequence()]
    assert [(r.x, r.allowed) for r in rounds] == revealed == list(learner.seen)
    assert all(r.correct == (r.prediction in r.allowed) for r in rounds)
    if adversary.claims_realizable:
        # SOA keeps exactly the hypotheses that fit every revealed set
        adversary = make_adversary(aname, fc, 12, np.random.default_rng(3))
        soa, _ = play(make_learner("soa", fc, 12), adversary, 12, None)
        space = fc.full_space()
        for x, allowed in revealed:
            space = space.restrict_in(x, allowed)
        assert space != fc.full_space()
        assert soa.space == space


def test_play_refuses_a_full_information_learner_an_unrevealed_round():
    fc = full_class(1, 3)
    with pytest.raises(ValueError, match="revealed no label set at round 1"):
        play(make_learner("soa", fc, 3), make_adversary("minimax", fc, 3, None), 3, None)
    # with bldim 0 there is no forcing phase: labels are revealed from round 1
    single = subclass(fc, 0b001)
    learner, rounds = play(
        make_learner("soa", single, 3), make_adversary("minimax", single, 3, None), 3, None
    )
    assert len(rounds) == 3 and learner.mistakes == 0


@pytest.mark.parametrize(
    "lname, aname",
    [
        ("capacity", "minimax"),
        ("cycling", "permutation:1"),
        ("random", "guessing"),
        ("exp4", "noise:2"),
        ("soa", "random-realizable:1"),
    ],
)
def test_play_rounds_count_the_learners_mistakes(lname, aname):
    fc = permutation_class(1, 3)
    rng = np.random.default_rng(5)
    learner, rounds = play(make_learner(lname, fc, 10), make_adversary(aname, fc, 10, rng), 10, rng)
    assert sum(not r.correct for r in rounds) == learner.mistakes
    assert learner.mistakes > 0 or lname == "soa"


def test_report_csv_shape_and_determinism():
    a = run_experiment("dim-ratio", seed=5)
    b = run_experiment("dim-ratio", seed=5)
    assert a.to_csv() == b.to_csv()
    lines = a.to_csv().strip().split("\n")
    assert lines[0] == CSV_COLUMNS
    assert len(lines) == len(a.rows) + 1
    assert a.all_pass
    payload = a.to_json()
    assert payload["preset"] == "dim-ratio" and payload["all_pass"]


def test_info_rows_do_not_fail_reports():
    report = run_experiment("thm4-linear", trials=60)
    assert any(r.direction == "info" and r.passed is None for r in report.rows)
    assert report.all_pass


def test_preset_seeds_change_measurements():
    a = run_experiment("thm2-realizable", seed=1, trials=8)
    b = run_experiment("thm2-realizable", seed=2, trials=8)
    assert a.all_pass and b.all_pass
    assert a.to_csv() != b.to_csv()


@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize(
    "counts", [{"trials": 0}, {"T": 0}, {"trials": -3}, {"T": True}, {"trials": 2.0}, {"T": "5"}]
)
def test_run_experiment_rejects_counts_that_are_not_positive_ints(preset, counts):
    with pytest.raises(ValueError):
        run_experiment(preset, **counts)


def test_bound_holds_in_every_direction():
    assert bound_holds(2, 2, ">=") and not bound_holds(1, 2, ">=")
    assert bound_holds(1, 2, "<") and not bound_holds(2, 2, "<")
    assert bound_holds(2, 2, "<=") and not bound_holds(3, 2, "<=")
    assert bound_holds(2.5, 2, "=", slack=0.5) and not bound_holds(2.5, 2, "=")
    assert bound_holds(1.5, 2, ">=", slack=0.5) and bound_holds(2.5, 2, "<", slack=0.6)
    with pytest.raises(ValueError):
        bound_holds(1, 1, "info")


def _recording_play(monkeypatch):
    """Replace the presets' `play` with one that records (learner, rng) per game."""
    games = []

    def recording_play(learner, adversary, T, rng):
        games.append((learner, rng))
        return play(learner, adversary, T, rng)

    monkeypatch.setattr(harness, "play", recording_play)
    return games


def _recording_runs(monkeypatch, *classes):
    """Replace each class's whole-run `run_mistakes` with one that records
    (learner, rng) per call."""
    runs = []
    for cls in classes:

        def recording_run(self, seq, rng=None, run_mistakes=cls.run_mistakes):
            runs.append((self, rng))
            return run_mistakes(self, seq, rng)

        monkeypatch.setattr(cls, "run_mistakes", recording_run)
    return runs


def test_thm4_linear_plays_each_embedded_tape_once(monkeypatch):
    """bijections:2x3 has 36 tapes, so most of 300 trials reuse a tape's
    count from its one walk of the game tree; were the embedded learner's
    class randomized, every trial would play through `play`, and the report
    is the same either way."""
    games = _recording_play(monkeypatch)
    runs = _recording_runs(monkeypatch, harness._Replayed)
    cached = run_experiment("thm4-linear", seed=3, trials=300).to_csv()
    assert 0 < len(runs) <= 36 and not games
    runs.clear()
    monkeypatch.setattr(linear.EmbeddedLearner, "deterministic", False)
    assert run_experiment("thm4-linear", seed=3, trials=300).to_csv() == cached
    assert len(games) == 300 and not runs


def test_claim_permutation_builds_generators_only_for_randomized_learners(monkeypatch):
    """Deterministic learners count each distinct tape once, through their
    own whole-run route or the game tree's, without a generator; the random
    learner counts every trial of both schedules, each with a generator.
    Nothing plays through `play`."""
    games = _recording_play(monkeypatch)
    runs = _recording_runs(
        monkeypatch,
        harness._Replayed,
        learners.ConstantLearner,
        learners.CyclingLearner,
        learners.RandomLearner,
    )
    run_experiment("claim-permutation", seed=1, trials=20)
    assert not games
    tapes = 0  # distinct tapes times deterministic learners, over both schedules
    for delta, k in ((1, 3), (2, 4)):
        _, seqs, _ = _permutation_games(delta, k, 20, seed=1)
        tapes += len(seqs) * (len(harness._permutation_zoo(delta, k)) - 1)
    deterministic = [(learner, rng) for learner, rng in runs if learner.deterministic]
    assert len(deterministic) == tapes
    assert {type(learner) for learner, _ in deterministic} == {
        harness._Replayed, learners.ConstantLearner, learners.CyclingLearner
    }
    assert all(rng is None for _, rng in deterministic)
    randomized = [(learner, rng) for learner, rng in runs if not learner.deterministic]
    assert len(randomized) == 2 * 20
    for learner, rng in randomized:
        assert type(learner) is learners.RandomLearner and isinstance(rng, np.random.Generator)


def test_integer_draws_of_a_size_equal_the_scalar_draws():
    """`RandomLearner.run_mistakes` draws a run's predictions at once and
    `predict` one at a time; reports stay byte-identical only while these
    agree."""
    for k in (2, 3, 4, 5, 8, 1000):
        for seed in range(40):
            n = 1 + seed % 13
            batch = np.random.default_rng(seed).integers(k, size=n).tolist()
            rng = np.random.default_rng(seed)
            assert batch == [int(rng.integers(k)) for _ in range(n)], (k, seed)


@pytest.mark.parametrize(
    "start",
    [
        learners.ConstantLearner(4),
        learners.ConstantLearner(4, 2, 3),
        learners.CyclingLearner(4),
        learners.CyclingLearner(4, 6, 2),
    ],
)
@pytest.mark.parametrize("aname", ["guessing", "noise:1", "noise:2", "random-realizable:3"])
def test_baseline_whole_runs_match_play_round_by_round(start, aname):
    fc = full_class(2, 4)
    for seed in range(10):
        seq = make_adversary(aname, fc, 15, np.random.default_rng(seed)).seq
        for length in (0, 1, 6, 15):
            end, _ = play(start, SequenceAdversary(seq[:length], False), length, None)
            assert start.run_mistakes(seq[:length]) == end.mistakes, (seed, length)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize(
    "spec, aname",
    [
        ("full:2x3", "noise:2"),
        ("full:2x3", "random-realizable:2"),
        ("full:1x4", "random-realizable:3"),
        ("perm:1x3", "permutation:1"),
        ("perm:2x4", "permutation:2"),
    ],
)
def test_random_whole_runs_match_play_round_by_round(spec, aname, seed):
    fc = resolve_class(spec)
    for mistakes in (0, 2):
        start = learners.RandomLearner(fc.k, mistakes)
        for child in np.random.SeedSequence(seed).spawn(20):
            adv_ss, lrn_ss = child.spawn(2)
            seq = make_adversary(aname, fc, 15, np.random.default_rng(adv_ss)).seq
            end, _ = play(start, SequenceAdversary(seq, False), len(seq), np.random.default_rng(lrn_ss))
            assert start.run_mistakes(seq, np.random.default_rng(lrn_ss)) == end.mistakes


# ---------------------------------------------------------------------------
# the game tree of a deterministic learner, against fresh learners per game
# ---------------------------------------------------------------------------


def _permutation_games(delta, k, trials, seed):
    """A class and its block schedules from seeded (tape, learner seed)
    draws, as claim-permutation draws them."""
    fc = permutation_class(delta, k)
    draws = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        adv_ss, lrn_ss = child.spawn(2)
        draws.append((draw_permutation_tape(delta, k, np.random.default_rng(adv_ss)), lrn_ss))
    return (fc, *harness._block_schedules(fc, delta, draws))


def _fresh_schedule_mistakes(fc, lname, horizon, seqs, games):
    """Every game played in full through `play` from a fresh, unwrapped learner."""
    out = []
    for i, lrn_ss in games:
        learner = make_learner(lname, fc, horizon)
        rng = None if learner.deterministic else np.random.default_rng(lrn_ss)
        out.append(play(learner, SequenceAdversary(seqs[i], True), len(seqs[i]), rng)[0].mistakes)
    return out


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("delta, k", [(1, 3), (2, 4)])
def test_schedule_mistakes_match_fresh_learners_on_every_game(delta, k, seed):
    fc, seqs, games = _permutation_games(delta, k, 80, seed)
    horizon = delta * k * (k - 1) // 2
    for lname in harness._permutation_zoo(delta, k) + ("soa",):
        expected = _fresh_schedule_mistakes(fc, lname, horizon, seqs, games)
        got = harness._schedule_mistakes(make_learner(lname, fc, horizon), seqs, games)
        assert got == expected, lname


def _realizable_games(spec, size, trials, seed, T=24):
    """A class and thm2-realizable's sampled runs with allowed sets of `size`
    labels: trial i's sequence from the adversary stream run_game gives it,
    and its learner seed."""
    fc = resolve_class(spec)
    seqs, games = [], []
    for i, child in enumerate(np.random.SeedSequence(seed).spawn(trials)):
        adv_ss, lrn_ss = child.spawn(2)
        seqs.append(sample_realizable_sequence(fc, T, np.random.default_rng(adv_ss), size)[0])
        games.append((i, lrn_ss))
    return fc, seqs, games


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("spec", ["full:1x2", "full:2x3", "perm:1x3"])
def test_schedule_mistakes_match_fresh_learners_on_sampled_runs(spec, size, seed):
    fc, seqs, games = _realizable_games(spec, size, 40, seed)
    for lname in harness._permutation_zoo(1, fc.k) + ("soa",):
        try:
            expected = _fresh_schedule_mistakes(fc, lname, 24, seqs, games)
        except RealizabilityViolation:  # the learner refuses multi-label runs
            with pytest.raises(RealizabilityViolation):
                harness._schedule_mistakes(make_learner(lname, fc, 24), seqs, games)
            continue
        got = harness._schedule_mistakes(make_learner(lname, fc, 24), seqs, games)
        assert got == expected, lname


def _fresh_run_game(cfg):
    """run_game's trials as (rounds, mistakes, justification), each played
    through `play` from a fresh, unwrapped learner."""
    fc = resolve_class(cfg.klass)
    out = []
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.trials):
        adv_ss, lrn_ss = child.spawn(2)
        adversary = make_adversary(cfg.adversary, fc, cfg.T, np.random.default_rng(adv_ss))
        learner = make_learner(cfg.learner, fc, cfg.T)
        learner, rounds = play(learner, adversary, cfg.T, np.random.default_rng(lrn_ss))
        out.append((rounds, learner.mistakes, adversary.sequence()))
    return out


@pytest.mark.parametrize("lname", ["capacity", "bsoa", "soa-bandit", "constant", "cycling"])
@pytest.mark.parametrize(
    "spec, aname",
    [
        ("perm:1x3", "minimax"),
        ("perm:1x3", "guessing"),
        ("perm:1x3", "permutation:1"),
        ("perm:1x3", "random-realizable:1"),
        ("perm:1x3", "random-realizable:2"),
        ("full:2x3", "minimax"),
        ("full:2x3", "random-realizable:1"),
        ("full:2x3", "random-realizable:2"),
    ],
)
def test_run_game_transcripts_match_fresh_learners_per_trial(lname, spec, aname):
    cfg = GameConfig(spec, lname, aname, T=10, trials=40, seed=3)
    try:
        expected = _fresh_run_game(cfg)
    except RealizabilityViolation:  # the learner refuses the adversary's runs
        with pytest.raises(RealizabilityViolation):
            run_game(cfg)
        return
    assert [(t.rounds, t.mistakes, t.justification) for t in run_game(cfg)] == expected


def test_the_tree_computes_shared_capacity_steps_once(monkeypatch):
    calls = []
    predict = learners.CapacityLearner.predict

    def counted(self, x, rng=None):
        calls.append(x)
        return predict(self, x, rng)

    monkeypatch.setattr(learners.CapacityLearner, "predict", counted)
    fc, seqs, games = _permutation_games(2, 4, 100, seed=7)
    horizon = 12
    harness._schedule_mistakes(make_learner("capacity", fc, horizon), seqs, games)
    # sequences that share a prefix share its predictions, so there are far
    # fewer than one per round of every game, or of every distinct sequence
    assert len(calls) < len(games) * horizon
    assert len(calls) < len(seqs) * horizon / 4
    calls.clear()
    cfg = GameConfig("full:2x3", "capacity", "random-realizable:1", T=24, trials=100, seed=7)
    run_game(cfg)
    assert len(calls) < cfg.trials * cfg.T / 4


def test_randomized_learners_are_never_wrapped(monkeypatch):
    games = _recording_play(monkeypatch)
    run_game(GameConfig("full:1x3", "random", "random-realizable:1", T=5, trials=3, seed=1))
    run_game(GameConfig("full:1x3", "exp4", "random-realizable:1", T=5, trials=3, seed=1))
    run_game(GameConfig("full:1x3", "cycling", "random-realizable:1", T=5, trials=3, seed=1))
    kinds = [type(learner) for learner, _ in games]
    assert kinds == [learners.RandomLearner] * 3 + [learners.Exp4Learner] * 3 + [harness._Replayed] * 3


def test_run_game_builds_generators_only_for_randomized_learners(monkeypatch):
    games = _recording_play(monkeypatch)
    run_game(GameConfig("full:1x3", "capacity", "random-realizable:1", T=5, trials=3, seed=1))
    assert [rng for _, rng in games] == [None] * 3
    games.clear()
    run_game(GameConfig("full:1x3", "random", "random-realizable:1", T=5, trials=3, seed=1))
    assert len(games) == 3
    assert all(isinstance(rng, np.random.Generator) for _, rng in games)


def test_play_takes_a_numpy_correctness_bit():
    class NumpyReplies(SequenceAdversary):
        def respond(self, prediction):
            reply = super().respond(prediction)
            return type(reply)(np.bool_(reply.correct), reply.allowed)

    fc = full_class(1, 3)
    seq = sample_noise_sequence(fc, 12, np.random.default_rng(4))
    start = make_learner("cycling", fc, 12)
    expected = play(start, SequenceAdversary(seq, False), 12, None)[0]
    assert play(start, NumpyReplies(seq, False), 12, None)[0] == expected


def test_run_game_refuses_an_unjustified_realizability_claim(monkeypatch):
    fc = full_class(1, 3)
    noise = sample_noise_sequence(fc, 10, np.random.default_rng(0))
    assert fc.full_space().class_error(noise) > 0
    monkeypatch.setattr(harness, "make_adversary", lambda *_: SequenceAdversary(noise, True))
    with pytest.raises(AssertionError, match="failed to justify"):
        run_game(GameConfig(fc, "cycling", "noise:1", T=10, trials=1))


@dataclass(frozen=True)
class Forgetful:
    """A bandit learner that predicts label 0 and never counts its mistakes."""

    kind: ClassVar[str] = "bandit"
    deterministic: ClassVar[bool] = True
    mistakes: int = 0

    def predict(self, x, rng):
        return 0

    def update(self, x, prediction, feedback):
        return self


def test_run_game_refuses_a_diverging_mistake_count(monkeypatch):
    monkeypatch.setattr(harness, "make_learner", lambda *_: Forgetful())
    with pytest.raises(AssertionError, match="diverged"):
        run_game(GameConfig("full:1x3", "constant", "noise:1", T=10, trials=1))


# ---------------------------------------------------------------------------
# the non-repeating guesser's rows
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("shift", [1, -1])
def test_a_nonrepeating_guesser_off_by_five_hundredths_fails(monkeypatch, shift):
    trials = 100_000  # the preset's default
    for k in range(2, 9):
        bound, slack = (k - 1) / 2, harness._uniform_count_slack(k, trials)
        assert bound_holds(bound, bound, "=", slack)
        assert not bound_holds(bound + 0.05 * shift, bound, "=", slack)
    exact = NonRepeatingGuesser.wrong_guesses

    def biased(self, hidden):  # a planted bias: one wrong guess more (or fewer) every 20th game
        counts = exact(self, hidden)
        counts[::20] += shift
        return counts

    monkeypatch.setattr(NonRepeatingGuesser, "wrong_guesses", biased)
    report = run_experiment("claim-guessing", seed=7)
    rows = [r for r in report.rows if r.learner == "nonrepeating"]
    assert len(rows) == 14
    assert [r.passed for r in rows if r.direction == "="] == [False] * 7
    assert [r.passed for r in rows if r.direction == ">="] == [shift > 0] * 7
    assert all(r.passed for r in report.rows if r.learner != "nonrepeating")


# sha256 of preset CSVs at seed 7, recorded before the presets' games were
# batched into array operations and shared tapes (thm3-agnostic: before its
# games went through `play`; thm4-linear at its default 2000 trials, where all
# 36 embedded tapes recur: before its Perceptron streams ran as one batch and
# its tapes were played once each; claim-permutation at 100 and
# thm2-realizable at 20 trials, the benchmark's call sizes, where games share
# the most prefixes: before deterministic learners walked one game tree per
# call); any change to a preset's random draw layout, or to what its learners
# play, moves them
PINNED_CSV_SHA256 = {
    ("claim-guessing", 2000): "64e987470d4d877b6cb50661ae5c9b4e666620fe18d94eef63445237d54cce76",
    ("claim-permutation", 100): "f0a794ec60820783dc4d83385414368b1a5771d9120c87a28a60708345a0ca59",
    ("claim-permutation", 300): "a5884e0a5481788cc840fc625f90febc0f9a72ba365e5fdae4f4b274c0d74330",
    ("dim-ratio", 1): "138d64b4da963ecbbb7ec03aeb7c25791070cb6309abcc1d0ae6c087db5766b2",
    ("thm4-linear", 100): "22f12db3e9fa9a9de10ca4fb46ad4deadbbc92d3c7c4ce8cf606bee90402eb03",
    ("thm4-linear", 2000): "acd69c31da7580d725d8e44a72c8b5604935acde71c17469eafa4134430e8723",
    ("thm2-realizable", 10): "102be97181c4f7ee727f2e9bab9aaa6271a2d228b0b5c41d43f7fb6619c1866c",
    ("thm2-realizable", 20): "c8362eb2ef8af85b0e21e337bb84f19024520758e1d309f0281e9130fddfe325",
    ("thm3-agnostic", 4): "f00b4d08fc9619926f66832c0cba987a669e27cc24733f63b38fdf9428c8c57a",
}
PINNED_T = {"thm3-agnostic": 40}  # the others run at their default horizon


@pytest.mark.parametrize("preset, trials", sorted(PINNED_CSV_SHA256))
def test_preset_reports_keep_their_pinned_bytes(preset, trials):
    csv = run_experiment(preset, seed=7, trials=trials, T=PINNED_T.get(preset)).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == PINNED_CSV_SHA256[preset, trials]


# ---------------------------------------------------------------------------
# thm2-realizable against run_game, and the report statistics
# ---------------------------------------------------------------------------

THM2_CLASSES = ("full:1x2", "full:1x3", "full:2x2", "full:2x3", "perm:1x3")


@pytest.mark.parametrize("seed", range(5))
def test_thm2_realizable_rows_are_the_means_of_run_game_transcripts(seed):
    trials, T = 20, 24
    rows = iter(run_experiment("thm2-realizable", seed=seed, trials=trials).rows)
    for spec in THM2_CLASSES:
        counts = {
            lname: [
                t.mistakes
                for t in run_game(GameConfig(spec, lname, "random-realizable:1", T, trials, seed))
            ]
            for lname in ("capacity", "soa")
        }
        row = next(rows)
        assert (row.klass, row.learner, row.T, row.trials) == (spec, "capacity", T, trials)
        assert (row.mean_mistakes, row.stderr) == harness._mean_stderr(counts["capacity"])
        assert row.passed == (max(counts["capacity"]) < row.bound)
        full_mean, _ = harness._mean_stderr(counts["soa"])
        if full_mean > 0:
            ratio = next(rows)
            assert (ratio.klass, ratio.learner) == (spec, "pob-estimate")
            assert ratio.mean_mistakes == row.mean_mistakes / full_mean
    assert next(rows, None) is None


def test_thm2_realizable_refuses_a_run_no_hypothesis_realizes(monkeypatch):
    # one instance shown with label 0, then with label 1: no hypothesis fits both
    clash = make_sequence([(0, [0]), (0, [1])])
    assert full_class(1, 2).full_space().class_error(clash) > 0
    monkeypatch.setattr(harness, "sample_realizable_sequence", lambda fc, T, rng: (clash, 0))
    with pytest.raises(AssertionError, match="failed to justify"):
        run_experiment("thm2-realizable", seed=0, trials=3)


def _sequential_mean_stderr(values):
    """The report statistics with every sum taken left to right, one
    `operator.add` at a time."""
    vals = [float(v) for v in values]
    n = len(vals)
    mean = functools.reduce(operator.add, vals) / n
    if n < 2:
        return mean, 0.0
    var = functools.reduce(operator.add, [(v - mean) ** 2 for v in vals]) / (n - 1)
    return mean, math.sqrt(var / n)


def test_report_statistics_sum_in_order_on_every_python():
    # a compensated sum (math.fsum, or the built-in sum from Python 3.12 on)
    # gives 4.7 here; the sum in order gives 4.699999999999999
    vals = [0.1] * 10 + [0.7, 3.0]
    assert math.fsum(vals) == 4.7
    assert functools.reduce(operator.add, vals) == 4.699999999999999
    mean, se = harness._mean_stderr(vals)
    assert mean == 4.699999999999999 / 12
    assert (mean.hex(), se.hex()) == tuple(v.hex() for v in _sequential_mean_stderr(vals))


_counts = st.lists(st.integers(-50, 50), min_size=1, max_size=60)
_floats = st.lists(
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False), min_size=1, max_size=60
)
_constant = st.builds(lambda v, n: [v] * n, st.floats(-1e3, 1e3), st.integers(1, 30))


@settings(max_examples=300, deadline=None)
@given(_counts | _floats | _constant)
def test_report_statistics_match_the_sequential_sums(values):
    expected = tuple(v.hex() for v in _sequential_mean_stderr(values))
    assert tuple(v.hex() for v in harness._mean_stderr(values)) == expected
    assert tuple(v.hex() for v in harness._mean_stderr(np.array(values))) == expected
