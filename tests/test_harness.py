import ast
import functools
import hashlib
import itertools
import json
import math
import operator
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditlab import (
    catalog,
    full_class,
    harness,
    ldim,
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
    GUESSER_LEARNERS,
    SequenceAdversary,
    draw_permutation_tape,
    guessing_run,
    permutation_sequence,
    sample_realizable_sequence,
)
from banditlab.catalog import parse_spec, subclass
from banditlab.harness import (
    CSV_COLUMNS,
    PRESETS,
    GameConfig,
    bound_holds,
    play_bound,
    resolve_class,
)
from banditlab.hypotheses import RealizabilityViolation, dumps_class, make_sequence
from process_caches import clear_process_caches
from test_adversaries import exact_expected_mistakes


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
    "counts",
    [
        {"trials": 0}, {"T": 0}, {"trials": -3}, {"T": True}, {"trials": 2.0}, {"T": "5"},
        {"seed": -1}, {"seed": 1.5}, {"seed": True},
    ],
)
def test_run_experiment_rejects_counts_that_are_not_positive_ints(preset, counts):
    (name,) = counts
    with pytest.raises(ValueError, match=f"^{name} must be"):
        run_experiment(preset, **counts)


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", -1), ("seed", 1.5), ("seed", True),
        ("T", 0), ("T", True), ("T", 2.5), ("trials", 0), ("trials", True), ("trials", 2.0),
    ],
)
def test_run_game_rejects_a_bad_seed_horizon_or_trial_count(field, value):
    cfg = replace(GameConfig("full:1x3", "capacity", "guessing", T=2, trials=2), **{field: value})
    with pytest.raises(ValueError, match=f"^{field} must be"):
        run_game(cfg)


def test_numpy_integer_seeds_and_counts_are_their_ints():
    ints = {"seed": 7, "trials": 10, "T": 24}
    wide = {name: np.int64(v) for name, v in ints.items()}
    report = run_experiment("thm2-realizable", **wide)
    assert report.to_csv() == run_experiment("thm2-realizable", **ints).to_csv()
    assert type(report.seed) is int
    cfg = GameConfig("full:1x3", "random", "noise:1", T=5, trials=3, seed=4)
    same = replace(cfg, T=np.int64(5), trials=np.int64(3), seed=np.int64(4))
    assert [t.rounds for t in run_game(same)] == [t.rounds for t in run_game(cfg)]


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
    (learner, sequence, rng) per call."""
    runs = []
    for cls in classes:

        def recording_run(self, seq, rng=None, run_mistakes=cls.run_mistakes):
            runs.append((self, seq, rng))
            return run_mistakes(self, seq, rng)

        monkeypatch.setattr(cls, "run_mistakes", recording_run)
    return runs


def test_thm4_linear_plays_each_embedded_tape_once(cold_caches, monkeypatch):
    """bijections:2x3 has 36 tapes: the embedded row walks one game tree
    along each tape's sequence once, whatever `trials` asks for, and nothing
    plays through `play`; `trials` moves only the row's game count, and a
    second call reads the law the first counted.  Its mean is that of fresh
    learners played through `play` on every tape."""
    games = _recording_play(monkeypatch)
    runs = _recording_runs(monkeypatch, harness._Replayed)
    report = run_experiment("thm4-linear", seed=3, trials=300)
    fc = permutation_class(2, 3)
    seqs = [permutation_sequence(fc, 2, tape) for tape in _all_tapes(2, 3)]
    assert Counter(seq for _, seq, _ in runs) == Counter(seqs) and len(set(seqs)) == 36
    assert all(rng is None for _, _, rng in runs) and not games
    monkeypatch.undo()
    _, graph = linear.roots_of_unity_embedding([list(range(3))] * 2)
    points = {x: graph[x][0] for x in range(6)}
    start = linear.EmbeddedLearner(linear.BanditPerceptron.zeros(3, 4), points)
    counts = [play(start, SequenceAdversary(seq, True), len(seq), None)[0].mistakes for seq in seqs]
    row = report.rows[-1]  # 9 games on each tape: the fewest not below 300
    assert (row.learner, row.trials, row.stderr, row.passed) == ("bandit-perceptron", 324, 0.0, True)
    assert row.mean_mistakes == float(harness.Law.uniform_over(counts).mean) == 10 / 3
    runs.clear()
    one = run_experiment("thm4-linear", seed=3, trials=1).rows
    assert one[:-1] == report.rows[:-1] and one[-1] == replace(row, trials=36)
    assert not runs


def _perceptron_worsts_run_by_run(seed, T=60, runs=100):
    """thm4-linear's Perceptron rows with each run's stream drawn on its own,
    as the preset drew them before one draw made all of a construction's
    streams; the labelings rows read the generator after those draws."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    worsts = []
    for delta, k in ((1, 3), (2, 4), (3, 5)):
        table = [list(rng.permutation(k)) for _ in range(delta)]
        _, graph = linear.roots_of_unity_embedding(table)
        idx = np.array([rng.integers(len(graph), size=T) for _ in range(runs)])
        points, labels = np.array([x for x, _ in graph]), np.array([y for _, y in graph])
        worsts.append(int(linear.perceptron_mistakes(points[idx], labels[idx], k)[0].max()))
    for L, k in ((2, 2), (3, 3)):
        rng.integers(k, size=L)  # the construction's labeling
        draws = [(rng.integers(k, size=L), rng.integers(L, size=T)) for _ in range(runs)]
        idx, labels = np.array([i for _, i in draws]), np.array([g[i] for g, i in draws])
        worsts.append(int(linear.perceptron_mistakes(np.eye(L)[idx], labels, k)[0].max()))
    return worsts


@pytest.mark.parametrize("seed", [0, 3, 7, 20260809])
def test_thm4_linear_streams_are_the_per_run_draws(seed):
    rows = [r for r in run_experiment("thm4-linear", seed=seed, trials=1).rows if r.learner == "perceptron"]
    assert [r.mean_mistakes for r in rows] == _perceptron_worsts_run_by_run(seed)


def test_claim_permutation_builds_generators_only_for_randomized_learners(cold_caches, monkeypatch):
    """Each deterministic learner walks each of the (k!)^delta whole tapes
    once, on a `_Replayed` tree, with no generator; the random learner
    counts every trial of both schedules, each with a generator.  Nothing
    plays through `play`."""
    games = _recording_play(monkeypatch)
    runs = _recording_runs(monkeypatch, harness._Replayed, learners.RandomLearner)
    run_experiment("claim-permutation", seed=1, trials=20)
    assert not games
    tapes = Counter()  # every whole tape of both schedules, once each
    for delta, k in ((1, 3), (2, 4)):
        fc = permutation_class(delta, k)
        seqs = [permutation_sequence(fc, delta, tape) for tape in _all_tapes(delta, k)]
        assert len(set(seqs)) == math.factorial(k) ** delta
        tapes.update(seqs)
    got = {}
    for learner, seq, rng in runs:
        if learner.deterministic:
            assert type(learner) is harness._Replayed and rng is None
            got.setdefault(type(learner.state), Counter())[seq] += 1
    assert got == {learners.learner_class(lname): tapes for lname in DETERMINISTIC_ZOO}
    assert learners.BanditOptimalLearner in got  # bsoa plays both schedules
    randomized = [(learner, rng) for learner, _, rng in runs if not learner.deterministic]
    assert len(randomized) == 2 * 20
    for learner, rng in randomized:
        assert type(learner) is learners.RandomLearner and isinstance(rng, np.random.Generator)
    runs.clear()  # a second call counts only the random learner: every other law is kept
    run_experiment("claim-permutation", seed=2, trials=20)
    assert len(runs) == 2 * 20 and all(type(learner) is learners.RandomLearner for learner, _, _ in runs)


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
            assert harness._Replayed(start).run_mistakes(seq[:length]) == end.mistakes, (seed, length)


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


DETERMINISTIC_ZOO = tuple(
    name for name in harness.PERMUTATION_ZOO if learners.learner_class(name).deterministic
)


def _fresh_counts(fc, lname, horizon, seqs):
    """Every fixed run played in full through `play` from a fresh, unwrapped
    deterministic learner."""
    return [
        play(make_learner(lname, fc, horizon), SequenceAdversary(seq, True), len(seq), None)[0].mistakes
        for seq in seqs
    ]


@pytest.mark.parametrize("delta, k", [(1, 3), (2, 3), (2, 4)])
def test_schedule_mistakes_match_fresh_learners_on_every_tape(delta, k):
    fc = permutation_class(delta, k)
    seqs = [permutation_sequence(fc, delta, tape) for tape in _all_tapes(delta, k)]
    horizon = delta * k * (k - 1) // 2
    for lname in DETERMINISTIC_ZOO + ("soa",):
        expected = _fresh_counts(fc, lname, horizon, seqs)
        assert harness._schedule_mistakes(make_learner(lname, fc, horizon), seqs) == expected, lname


def _all_tapes(delta, k):
    return list(itertools.product(itertools.permutations(range(k)), repeat=delta))


@pytest.mark.parametrize("seed", [5, 6])
def test_claim_permutation_rows_match_fresh_learners(seed):
    """A deterministic learner's row holds the law of fresh, unwrapped
    learners played through `play` on every whole tape, judged exactly; the
    random learner's row holds the mean and stderr of fresh
    learners played game by game on the drawn tapes."""
    rows = iter(run_experiment("claim-permutation", seed=seed, trials=80).rows)
    streams = [child.spawn(2) for child in np.random.SeedSequence(seed).spawn(80)]
    for delta, k in ((1, 3), (2, 4)):
        fc = permutation_class(delta, k)
        seqs = [permutation_sequence(fc, delta, tape) for tape in _all_tapes(delta, k)]
        horizon, floor = delta * k * (k - 1) // 2, Fraction(delta * (k - 1) * k, 4)
        for lname in harness.PERMUTATION_ZOO:
            row = next(rows)
            assert (row.klass, row.learner, row.direction, row.bound) == (fc.name, lname, ">=", floor)
            if lname == "random":
                counts = []
                for adv_ss, lrn_ss in streams:
                    tape = draw_permutation_tape(delta, k, np.random.default_rng(adv_ss))
                    seq, rng = permutation_sequence(fc, delta, tape), np.random.default_rng(lrn_ss)
                    learner = make_learner(lname, fc, horizon)
                    counts.append(play(learner, SequenceAdversary(seq, True), len(seq), rng)[0].mistakes)
                assert (row.trials, row.mean_mistakes, row.stderr) == (80, *harness._mean_stderr(counts))
                assert row.passed
                continue
            law = harness.Law.uniform_over(_fresh_counts(fc, lname, horizon, seqs))
            assert (row.mean_mistakes, row.stderr) == (float(law.mean), 0.0)
            # each tape equally often, in the fewest games not below the 80 asked for
            assert row.trials % len(seqs) == 0 and 80 <= row.trials < 80 + len(seqs)
            assert row.passed is (law.mean >= floor)
            if lname in ("soa-bandit", "bsoa"):
                row = next(rows)
                assert (row.learner, row.direction, row.mean_mistakes) == (lname, "=", float(law.mean))
                assert row.passed is (law.mean == floor) is True
    assert next(rows, None) is None


def _fresh_generator_counts(seed, trials):
    """The slow route for claim-permutation's random row: per schedule, trial
    i's tape drawn by a fresh `default_rng` of its first spawned seed and
    played with a fresh `default_rng` of its second, as the preset built them
    before it rewound one generator pair per trial."""
    streams = [child.spawn(2) for child in np.random.SeedSequence(seed).spawn(trials)]
    counts = []
    for delta, k in ((1, 3), (2, 4)):
        fc = permutation_class(delta, k)
        start = make_learner("random", fc, delta * k * (k - 1) // 2)
        for a, b in streams:
            tape = draw_permutation_tape(delta, k, np.random.default_rng(a))
            counts.append(start.run_mistakes(permutation_sequence(fc, delta, tape), np.random.default_rng(b)))
    return counts


@pytest.mark.parametrize("seed", [0, 7, 11])
@pytest.mark.parametrize("trials", [1, 7, 100])
def test_claim_permutation_random_row_matches_fresh_generators(monkeypatch, seed, trials):
    want = _fresh_generator_counts(seed, trials)
    counts = []
    run_mistakes = learners.RandomLearner.run_mistakes

    def recording_run(self, seq, rng=None):
        counts.append(run_mistakes(self, seq, rng))
        return counts[-1]

    monkeypatch.setattr(learners.RandomLearner, "run_mistakes", recording_run)
    rows = [r for r in run_experiment("claim-permutation", seed=seed, trials=trials).rows if r.learner == "random"]
    assert counts == want
    assert [(r.mean_mistakes, r.stderr) for r in rows] == [
        harness._mean_stderr(want[:trials]),
        harness._mean_stderr(want[trials:]),
    ]


def test_one_shared_class_per_spec():
    """Presets and games named by spec share one class per spec; every
    builder still returns a fresh one."""
    for spec in ("full:1x3", "perm:2x4", "const:2x3"):
        shared = catalog.shared_class(spec)
        assert catalog.shared_class(spec) is shared and resolve_class(spec) is shared
        fresh = parse_spec(spec)
        assert fresh == shared and fresh is not shared
    with pytest.raises(ValueError):
        catalog.shared_class("perm:0x3")


# one pinned size per preset (see PINNED_CSV_SHA256)
REGISTRY_SIZES = {
    "claim-guessing": 2000,
    "claim-permutation": 100,
    "dim-ratio": None,
    "thm2-realizable": 10,
    "thm3-agnostic": 4,
    "thm4-linear": 100,
}


def _pinned_csv_sha256(preset):
    trials = REGISTRY_SIZES[preset]
    csv = run_experiment(preset, seed=7, trials=trials, T=PINNED_T.get((preset, trials))).to_csv()
    return hashlib.sha256(csv.encode()).hexdigest()


@pytest.mark.parametrize("preset", sorted(REGISTRY_SIZES))
def test_preset_reports_keep_their_bytes_on_cold_and_warm_shared_classes(preset):
    """A preset run first on cold per-process caches (shared classes, tape
    tables and exact laws), and again after the other five have warmed them,
    writes its pinned bytes both times: the caches hold only exact values."""
    clear_process_caches()
    cold = _pinned_csv_sha256(preset)
    clear_process_caches()
    for other in sorted(set(REGISTRY_SIZES) - {preset}):
        _pinned_csv_sha256(other)
    warm = _pinned_csv_sha256(preset)
    assert cold == warm == PINNED_CSV_SHA256[preset, REGISTRY_SIZES[preset]]


# ---------------------------------------------------------------------------
# the seed-free exact laws, each counted once per process
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("delta, k", [(1, 3), (2, 4)])
def test_each_permutation_law_is_that_of_fresh_learners_on_every_tape(cold_caches, delta, k):
    fc = permutation_class(delta, k)
    seqs = [permutation_sequence(fc, delta, tape) for tape in _all_tapes(delta, k)]
    horizon = delta * k * (k - 1) // 2
    for lname in DETERMINISTIC_ZOO:
        law = harness._permutation_law(lname, delta, k)
        assert law == harness.Law.uniform_over(_fresh_counts(fc, lname, horizon, seqs)), lname
        assert harness._permutation_law(lname, delta, k) is law  # counted once


@pytest.mark.parametrize("k", range(2, 9))
def test_each_guessing_law_is_that_of_fresh_learners_on_every_hidden_label(cold_caches, k):
    runs = [guessing_run(hidden, k - 1) for hidden in range(k)]
    deterministic = [name for name in GUESSER_LEARNERS.values() if learners.learner_class(name).deterministic]
    assert deterministic == ["soa-bandit", "constant", "cycling"]
    for lname in deterministic:
        law = harness._guessing_law(lname, k)
        assert law == harness.Law.uniform_over(_fresh_counts(full_class(1, k), lname, k - 1, runs)), lname
        assert harness._guessing_law(lname, k) is law


def test_the_embedded_law_is_that_of_fresh_learners_on_every_tape(cold_caches):
    fc = permutation_class(2, 3)
    _, graph = linear.roots_of_unity_embedding([list(range(3))] * 2)
    points = {x: graph[x][0] for x in range(6)}
    counts = []
    for tape in _all_tapes(2, 3):
        seq = permutation_sequence(fc, 2, tape)
        start = linear.EmbeddedLearner(linear.BanditPerceptron.zeros(3, 4), points)
        counts.append(play(start, SequenceAdversary(seq, True), len(seq), None)[0].mistakes)
    law = harness._embedded_law(2, 3)
    assert law == harness.Law.uniform_over(counts) and harness._embedded_law(2, 3) is law


# ---------------------------------------------------------------------------
# one game tree per call: _Replayed against fresh learners
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Lazy:
    """A deterministic learner whose update returns itself whenever a round
    leaves the wrapped state unchanged, as capacity's does on a correct round."""

    inner: object
    deterministic: ClassVar[bool] = True

    @property
    def kind(self):
        return self.inner.kind

    @property
    def mistakes(self):
        return self.inner.mistakes

    def predict(self, x, rng=None):
        return self.inner.predict(x, rng)

    def update(self, x, prediction, feedback):
        nxt = self.inner.update(x, prediction, feedback)
        return self if nxt == self.inner else _Lazy(nxt)


def _self_loops(node) -> int:
    """The children a `_Replayed` tree records as its own node."""
    return sum(child is None or _self_loops(child) for child in node._children.values())


@pytest.mark.parametrize("wrap", [lambda s: s, _Lazy], ids=["plain", "lazy"])
@pytest.mark.parametrize("lname", ["soa", "capacity", "soa-bandit", "bsoa"])
@pytest.mark.parametrize("spec", ["full:1x3", "full:2x3", "perm:1x3"])
def test_a_replayed_tree_plays_as_fresh_learners(spec, lname, wrap):
    """On thm2-realizable's runs, each twice, one `_Replayed` node counts
    every run by `run_mistakes`, and a second plays it through `play`: both
    give the counts, and `play` the rounds, of fresh learners.  A state whose
    update returns itself (capacity's, and every lazy wrap's) stays its node."""
    fc = parse_spec(spec)
    seqs = _realizable_games(spec, 1, 20, 7)[1] * 2

    def start():
        return wrap(make_learner(lname, fc, 24))

    fresh = [play(start(), SequenceAdversary(seq, True), len(seq), None) for seq in seqs]
    counted, played = harness._Replayed(start()), harness._Replayed(start())
    assert [counted.run_mistakes(seq) for seq in seqs] == [end.mistakes for end, _ in fresh]
    for seq, (end, rounds) in zip(seqs, fresh):
        node, got = play(played, SequenceAdversary(seq, True), len(seq), None)
        assert (node.mistakes, got) == (end.mistakes, rounds)
    if wrap is _Lazy or lname == "capacity":
        assert _self_loops(counted) > 0 and _self_loops(played) > 0


def _realizable_games(spec, size, trials, seed, T=24):
    """A class and thm2-realizable's sampled runs with allowed sets of `size`
    labels: trial i's sequence from the adversary stream run_game gives it,
    and its learner seed."""
    fc = resolve_class(spec)
    seqs, seeds = [], []
    for child in np.random.SeedSequence(seed).spawn(trials):
        adv_ss, lrn_ss = child.spawn(2)
        seqs.append(sample_realizable_sequence(fc, T, np.random.default_rng(adv_ss), size)[0])
        seeds.append(lrn_ss)
    return fc, seqs, seeds


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("size", [1, 2])
@pytest.mark.parametrize("spec", ["full:1x2", "full:2x3", "perm:1x3"])
def test_schedule_mistakes_match_fresh_learners_on_sampled_runs(spec, size, seed):
    fc, seqs, seeds = _realizable_games(spec, size, 40, seed)
    for lname in DETERMINISTIC_ZOO + ("soa",):
        try:
            expected = _fresh_counts(fc, lname, 24, seqs)
        except RealizabilityViolation:  # the learner refuses multi-label runs
            with pytest.raises(RealizabilityViolation):
                harness._schedule_mistakes(make_learner(lname, fc, 24), seqs)
            continue
        got = harness._schedule_mistakes(make_learner(lname, fc, 24), seqs)
        assert got == expected, lname
    start = make_learner("random", fc, 24)  # every run with a generator of its seed
    for seq, lrn_ss in zip(seqs, seeds):
        end, _ = play(start, SequenceAdversary(seq, True), len(seq), np.random.default_rng(lrn_ss))
        assert start.run_mistakes(seq, np.random.default_rng(lrn_ss)) == end.mistakes


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
    fc = permutation_class(2, 4)
    seqs = [permutation_sequence(fc, 2, tape) for tape in _all_tapes(2, 4)]
    horizon = 12
    harness._schedule_mistakes(make_learner("capacity", fc, horizon), seqs)
    # tapes that share a prefix share its predictions, so there are far fewer
    # than one per round of every tape (336 of the 6,912 rounds)
    assert len(calls) < len(seqs) * horizon / 16
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
# the exact law of a game, and the rows it judges
# ---------------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 12), min_size=1, max_size=6))
def test_a_uniform_law_is_that_of_fraction_sums(counts):
    """`Law.uniform_over`, summed as integers, against `Fraction` sums."""
    law = harness.Law.uniform_over(counts)
    mean = Fraction(sum(counts), len(counts))
    assert law == harness.Law(
        mean, sum((c - mean) ** 2 for c in counts) / len(counts), min(counts), max(counts)
    )


@pytest.mark.parametrize("n, k", [(1, 2), (3, 3), (4, 4), (2, 5)])
def test_the_binomial_law_is_that_of_every_prediction_vector(n, k):
    """A random learner's n predictions against a hidden label: every one
    of the k^n prediction vectors is equally likely."""
    misses = [sum(y != 0 for y in guesses) for guesses in itertools.product(range(k), repeat=n)]
    assert harness.Law.binomial(n, Fraction(k - 1, k)) == harness.Law.uniform_over(misses)


def _uniform_count_slack(k, trials, p=1e-6):
    """The Bernstein half-width the non-repeating guesser's rows were judged
    by before `Law`: the exact variance (k^2-1)/12 and the range k-1 of a
    count uniform on {0, ..., k-1}."""
    log = math.log(2.0 / p)
    linear = 2.0 * (k - 1) * log / 3.0
    var = (k * k - 1) / 12.0
    return (linear + math.sqrt(linear**2 + 8.0 * trials * var * log)) / (2.0 * trials)


def test_the_tolerance_of_a_uniform_count_keeps_its_bits():
    for k in range(2, 9):
        law = harness.Law.uniform_over(range(k))
        assert law == harness.Law(Fraction(k - 1, 2), Fraction(k * k - 1, 12), 0, k - 1)
        shifted = harness.Law.uniform_over(range(3, k + 3))  # the range, not the largest count
        for trials in (1, 50, 100, 2000, 100_000):
            assert law.tolerance(trials) == _uniform_count_slack(k, trials), (k, trials)
            assert shifted.tolerance(trials) == law.tolerance(trials)


def test_exact_rows_are_judged_with_no_slack():
    law = harness.Law(Fraction(6, 1) - Fraction(1, 10**30), Fraction(1), 0, 12)
    label = ("perm:2x4", "x", "permutation:2", 12)
    (row,) = harness._law_rows(label, 576, law, Fraction(6), (">=",))
    assert row.mean_mistakes == 6.0 and row.stderr == 0.0 and row.passed is False
    assert [r.passed for r in harness._law_rows(label, 576, law, Fraction(6), ("<=", "="))] == [
        True, False,
    ]


def test_every_row_is_made_and_judged_by_the_one_row_rule():
    """harness.py builds a `ReportRow` and calls `bound_holds` only inside
    `_row`, so no preset writes its own pass test."""
    calls, defs = [], set()

    def scan(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and isinstance(child.func, ast.Name):
                if child.func.id in ("ReportRow", "bound_holds"):
                    calls.append((child.func.id, function))
            if isinstance(child, ast.FunctionDef):
                defs.add(child.name)
            scan(child, child.name if isinstance(child, ast.FunctionDef) else function)

    scan(ast.parse(Path(harness.__file__).read_text()), None)
    assert sorted(calls) == [("ReportRow", "_row"), ("bound_holds", "_row")]
    assert "_row" in defs and "_mc_pass" not in defs


@pytest.mark.parametrize("k", range(2, 9))
def test_every_guesser_law_is_its_count_over_every_hidden_label(k):
    """claim-guessing's deterministic rows are exact: each holds its guesser's
    mean over every hidden label, by the round-by-round enumeration, with
    stderr 0, in the fewest games at least those asked for that play every
    label equally often.  The random guesser's row is sampled, and its law's
    mean is at least the floor, with equality only at k=2."""
    trials = 50
    report = run_experiment("claim-guessing", seed=k, trials=trials)
    rows = [r for r in report.rows if r.klass == f"k={k}"]
    assert [(r.learner, r.direction) for r in rows] == [
        ("nonrepeating", ">="), ("nonrepeating", "="), ("constant", ">="), ("cycling", ">="),
        ("random", ">="),
    ]
    floor = Fraction(k - 1, 2)
    for row in rows[:-1]:
        exact = exact_expected_mistakes(k, row.learner)
        assert exact >= floor
        assert (row.mean_mistakes, row.stderr) == (float(exact), 0.0)
        assert row.trials % k == 0 and trials <= row.trials < trials + k
        assert row.passed is bound_holds(exact, floor, row.direction)
    assert (rows[-1].trials, rows[-1].passed) == (trials, True) and rows[-1].stderr > 0
    assert (harness.Law.binomial(k - 1, Fraction(k - 1, k)).mean == floor) is (k == 2)


@pytest.mark.parametrize("shift", [1, -1])
def test_a_nonrepeating_guesser_off_by_one_guess_on_one_label_fails(cold_caches, monkeypatch, shift):
    exact = harness._schedule_mistakes

    def biased(start, seqs):  # a planted bias: one wrong guess more (or fewer) on hidden label 1
        counts = exact(start, seqs)
        if isinstance(start, learners.SOABanditLearner):
            counts[1] += shift
        return counts

    monkeypatch.setattr(harness, "_schedule_mistakes", biased)
    report = run_experiment("claim-guessing", seed=7, trials=2000)
    rows = [r for r in report.rows if r.learner == "nonrepeating"]
    assert len(rows) == 14
    means = [float(Fraction(k - 1, 2) + Fraction(shift, k)) for k in range(2, 9)]
    assert [r.mean_mistakes for r in rows[::2]] == means
    assert [r.passed for r in rows if r.direction == "="] == [False] * 7
    assert [r.passed for r in rows if r.direction == ">="] == [shift > 0] * 7
    assert all(r.passed for r in report.rows if r.learner != "nonrepeating")


def _failing_rows(monkeypatch, preset, owner, name, shift, **sizes):
    """(class, learner, adversary) of each row that fails once `owner.name`
    returns `shift` more than it does, in a report that passes without.  The
    per-process caches are cleared once the plant is in, so no law counted
    before it hides it; the caller's `cold_caches` drops what it planted."""
    assert run_experiment(preset, seed=7, **sizes).all_pass
    exact = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args: exact(*args) + shift)
    clear_process_caches()
    report = run_experiment(preset, seed=7, **sizes)
    assert not report.all_pass
    assert all(r.passed is None for r in report.rows if r.direction == "info")
    return [(r.klass, r.learner, r.adversary) for r in report.rows if r.passed is False]


BIJECTIONS = ("bijections:1x3", "bijections:2x4", "bijections:3x5")


@pytest.mark.parametrize(
    "name, adversary, classes",
    [
        ("frobenius_norm", "norm-sq", BIJECTIONS + ("labelings:2x2", "labelings:3x3")),
        ("roots_of_unity_gap", "min-gap", BIJECTIONS),
    ],
)
def test_thm4_linear_fails_a_gap_or_norm_off_by_a_hair(cold_caches, monkeypatch, name, adversary, classes):
    failing = _failing_rows(monkeypatch, "thm4-linear", linear, name, 1e-6, trials=100)
    assert failing == [(spec, "-", adversary) for spec in classes]


@pytest.mark.parametrize(
    "name, shift, adversaries", [("bldim", 100, ("-", "bldim")), ("ldim", 1, ("ldim",))]
)
def test_dim_ratio_fails_a_dimension_off_its_envelope_or_closed_form(
    cold_caches, monkeypatch, name, shift, adversaries
):
    """bldim + 100 breaks every subclass's envelope and every full class's
    closed form; ldim + 1 only raises the envelopes, so only ldim = n fails."""
    rows = run_experiment("dim-ratio").rows
    failing = _failing_rows(monkeypatch, "dim-ratio", harness, name, shift)
    assert failing == [(r.klass, "-", r.adversary) for r in rows if r.adversary in adversaries]
    assert len(failing) == (15 + 9 if name == "bldim" else 9)


def test_thm3_agnostic_fails_a_best_expert_worse_than_the_best_hypothesis(cold_caches, monkeypatch):
    sizes = {"trials": 4, "T": 40}
    failing = _failing_rows(monkeypatch, "thm3-agnostic", harness, "best_expert_loss", 1, **sizes)
    assert failing == [
        (spec, "best-expert", aname)
        for spec in ("full:1x3", "full:2x3")
        for aname in ("random-realizable:1", "noise:1")
    ]


# sha256 of preset CSVs at seed 7, recorded before the presets' games were
# batched into array operations and shared tapes (thm3-agnostic: before its
# games went through `play`; thm2-realizable at 20 trials, the benchmark's
# call size, where games share the most prefixes: before deterministic
# learners walked one game tree per call).  claim-permutation and thm4-linear
# were recorded when their deterministic rows became exact over every tape,
# each tape played equally often in at least `trials` games; their random
# and Perceptron stream rows kept the bytes they had before.  thm3-agnostic
# at 1 trial and T=200, the benchmark's call, was recorded before Exp4 cached
# its SOA labels and play distributions.  claim-guessing was recorded when its
# deterministic rows became exact over every hidden label, each label played
# equally often in at least `trials` games, and its random rows began drawing
# from one stream pair per k.  dim-ratio takes no trials.  Any change to a
# preset's random draw layout, or to what its learners play, moves them
PINNED_CSV_SHA256 = {
    ("claim-guessing", 2000): "2bc019fd33880118368aacb4e7cb722708bc33f45c53b2873723c636b25bf201",
    ("claim-permutation", 100): "03997688daaae4d6ce9c817973459204e59e53aae6a246d80f5f2833df5bc8f2",
    ("claim-permutation", 300): "23a931d84cc7b81dc4c4f9f23209eea482d054de3ee7dfd16b5b9dfc040788e3",
    ("dim-ratio", None): "138d64b4da963ecbbb7ec03aeb7c25791070cb6309abcc1d0ae6c087db5766b2",
    ("thm4-linear", 100): "fcf4a05d4eb2e925b6fd92388b6c341f81f025fdec84fe85b7cea427db9f60b8",
    ("thm4-linear", 2000): "366f1391a6d34f977a4d718b8a8ffde9395cc69f5ed136adebb123af8f320491",
    ("thm2-realizable", 10): "102be97181c4f7ee727f2e9bab9aaa6271a2d228b0b5c41d43f7fb6619c1866c",
    ("thm2-realizable", 20): "c8362eb2ef8af85b0e21e337bb84f19024520758e1d309f0281e9130fddfe325",
    ("thm3-agnostic", 1): "127bb13e61eb99584694cfc7f0b42d7f344afb1ecbcf161d99cb696527ba13b4",
    ("thm3-agnostic", 4): "f00b4d08fc9619926f66832c0cba987a669e27cc24733f63b38fdf9428c8c57a",
}
# the others run at their default horizon
PINNED_T = {("thm3-agnostic", 1): 200, ("thm3-agnostic", 4): 40}


@pytest.mark.parametrize("preset, trials", sorted(PINNED_CSV_SHA256))
def test_preset_reports_keep_their_pinned_bytes(preset, trials):
    csv = run_experiment(preset, seed=7, trials=trials, T=PINNED_T.get((preset, trials))).to_csv()
    assert hashlib.sha256(csv.encode()).hexdigest() == PINNED_CSV_SHA256[preset, trials]


# sha256 of `json.dumps(report.to_json(), indent=2)` for the same calls,
# recorded before every row was made by `harness._row`.  The CSV writes
# mean_mistakes and bound through `repr(float(...))`, so it cannot see an int
# become a float there; --json emits the raw values, and these pins see them
PINNED_JSON_SHA256 = {
    ("claim-guessing", 2000): "8da1d9da800d07b90d4bd53b8814ca2927a3c4e04892e48f41b10e5e1bf00c9e",
    ("claim-permutation", 100): "223aafb1f9f0c0157bd9de54bdd3ce8353ec04581c51e10e5f859164bc39851a",
    ("claim-permutation", 300): "4c1d50dce3c353fe107a30178bf199a2a66aea2e857ceaa8ef32fccb06ab7ee8",
    ("dim-ratio", None): "62c46e07565063eb03998b04f7e3ca0ad2020f27ac401e5d57576298f32db10b",
    ("thm4-linear", 100): "cd487e759cfad3bdfd29e3487c0b7493a901e77b8f97f674def981a25edfcbaa",
    ("thm4-linear", 2000): "2caa658dc7d83c40415dae8593690b39f805991932ab8c0e32cd04d35ddd7633",
    ("thm2-realizable", 10): "f85fdf6413e116e64cc6af658c8b5fb32d2215b549d222960b34550af536b066",
    ("thm2-realizable", 20): "f35d0a79f722af26f96c07599534c8e9d19abda6fa1ec3f128f68ced145e03a2",
    ("thm3-agnostic", 1): "c04e613b9129b257941d8ad778665f1402d2234cb221e73d58e17b706d2a8fcc",
    ("thm3-agnostic", 4): "98f77bc69d84369201777bd862675f19f3a922bbb79bfb07bf7848ddba100971",
}


@pytest.mark.parametrize("preset, trials", sorted(PINNED_JSON_SHA256))
def test_preset_json_keeps_its_pinned_bytes(preset, trials):
    report = run_experiment(preset, seed=7, trials=trials, T=PINNED_T.get((preset, trials)))
    payload = json.dumps(report.to_json(), indent=2)
    assert hashlib.sha256(payload.encode()).hexdigest() == PINNED_JSON_SHA256[preset, trials]


# sha256 of `repr` of every trial's (mistakes, [(x, prediction, correct), ...])
# from `run_game`, the path `banditlab play` takes: exp4 on full:2x3 at T=200,
# 3 trials, seed 7, recorded before Exp4 drew from its own cdf instead of
# through `Generator.choice`
PINNED_GAME_SHA256 = {
    "noise:1": "5869f0e5e12d48ae78c5806171a482e1ab816b02f01e773e10e1aea05bddbaf6",
    "random-realizable:1": "94ea47468902ae8f7209c9f222e59cd96a795a4dbbfa294d9eb7d473785ad59a",
}


def exp4_transcript_sha256(spec, adversary, T):
    transcripts = run_game(GameConfig(spec, "exp4", adversary, T=T, trials=3, seed=7))
    payload = repr([
        (t.mistakes, [(int(r.x), int(r.prediction), bool(r.correct)) for r in t.rounds])
        for t in transcripts
    ])
    return hashlib.sha256(payload.encode()).hexdigest()


@pytest.mark.parametrize("adversary", sorted(PINNED_GAME_SHA256))
def test_exp4_games_keep_their_pinned_transcripts(adversary):
    assert exp4_transcript_sha256("full:2x3", adversary, 200) == PINNED_GAME_SHA256[adversary]


def test_exp4_game_with_eight_labels_keeps_its_pinned_transcript():
    # recorded before Exp4 summed its play distribution in Python floats:
    # from 8 labels on numpy's sum is pairwise and the learner's is taken
    # left to right, which moves some distributions' last bits but no label
    # of this game
    digest = "d6e2bd43fc850912cdc9c1f7a828aa82edd238f3bd4fab473c6081387859918f"
    assert exp4_transcript_sha256("full:1x8", "noise:1", 60) == digest


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


@pytest.mark.parametrize("below, passed", [(0, False), (1, True)])
def test_thm2_realizable_judges_every_run_not_the_mean(cold_caches, monkeypatch, below, passed):
    """One run planted at the ceiling, rounded up, fails each capacity row
    although the mean stays below; one mistake fewer passes."""
    exact = harness._schedule_mistakes
    ceilings = iter(
        math.ceil(4 * fc.k * math.log(fc.k) * ldim(fc.full_space()))
        for fc in map(parse_spec, THM2_CLASSES)
    )

    def planted(start, seqs):
        counts = exact(start, seqs)
        if isinstance(start, learners.CapacityLearner):
            counts[0] = next(ceilings) - below
        return counts

    monkeypatch.setattr(harness, "_schedule_mistakes", planted)
    report = run_experiment("thm2-realizable", seed=7, trials=50)
    rows = [r for r in report.rows if r.learner == "capacity"]
    assert [r.klass for r in rows] == list(THM2_CLASSES)
    assert all(r.mean_mistakes < r.bound and r.passed is passed for r in rows)
    assert report.all_pass is passed


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
