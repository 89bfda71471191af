"""The game loop, experiment presets, and report emission.

All randomness in a run flows from one seed through spawned generator streams
(one per trial for the adversary, one for the learner), so reports are
byte-stable across repeats.

`play` is the one round-by-round loop: `run_game` plays every game through it,
against the minimax adversary, which reacts to predictions, as against any
other.  A preset whose games are fixed sequences counts each whole run with a
`run_mistakes(seq, rng)` instead (see `_schedule_mistakes`), and `play` is the
reference those are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import adversaries, catalog, linear
from .adversaries import (
    SequenceAdversary,
    draw_permutation_tape,
    make_adversary,
    make_guesser,
    permutation_floor,
    permutation_sequence,
    sample_realizable_sequence,
)
from .dimensions import bldim, ldim
from .hypotheses import FiniteClass, LabeledSequence, VersionSpace, read_class
from .learners import (
    BanditFeedback,
    FullInfoFeedback,
    best_expert_loss,
    learner_class,
    make_learner,
)

PRESET_SEED = 20260809


# ---------------------------------------------------------------------------
# single games
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GameConfig:
    klass: str | FiniteClass
    learner: str
    adversary: str
    T: int
    trials: int = 1
    seed: int = 0


@dataclass(slots=True)
class RoundRecord:
    x: int
    prediction: int
    correct: bool
    allowed: frozenset[int] | None


@dataclass
class GameTranscript:
    rounds: list[RoundRecord]
    mistakes: int
    justification: LabeledSequence


def resolve_class(source: str | FiniteClass) -> FiniteClass:
    if isinstance(source, FiniteClass):
        return source
    if Path(source).exists():
        return read_class(source)
    return catalog.parse_spec(source)


# The two bandit feedbacks, by correctness bit: feedback is a value, so every
# round shares them.  A dict, since numpy's bool hashes as bool but cannot
# index a tuple.
_BANDIT_FEEDBACK = {correct: BanditFeedback(correct) for correct in (False, True)}


def play(learner, adversary, T: int, rng) -> tuple[object, list[RoundRecord]]:
    """Play up to T rounds, fewer if the adversary's schedule ends first, and
    return the final learner state and the rounds.  A full-information learner
    is given each round's revealed label set, any other the correctness bit."""
    rounds = []
    full = learner.kind == "full"
    for _ in range(T):
        x = adversary.next_instance()
        if x is None:
            break
        prediction = learner.predict(x, rng)
        reply = adversary.respond(prediction)
        if not full:
            feedback = _BANDIT_FEEDBACK[reply.correct]
        elif reply.allowed is None:
            named = learner.state if isinstance(learner, _Replayed) else learner
            raise ValueError(
                f"{type(adversary).__name__} revealed no label set at round {len(rounds) + 1} "
                f"to the full-information {type(named).__name__}"
            )
        else:
            feedback = FullInfoFeedback(reply.allowed)
        learner = learner.update(x, prediction, feedback)
        rounds.append(RoundRecord(x, prediction, reply.correct, reply.allowed))
    return learner, rounds


class _Replayed:
    """A deterministic learner state as a node of its game tree, kept for one
    call: its prediction at each x, and its child for each (x, feedback), are
    computed once, so games that share a prefix of (instance, feedback) pairs
    share those steps.  A state whose update returns itself keeps its node."""

    __slots__ = ("state", "kind", "mistakes", "_predictions", "_children")
    deterministic: ClassVar[bool] = True

    def __init__(self, state):
        self.state, self.kind, self.mistakes = state, state.kind, state.mistakes
        self._predictions: dict[int, int] = {}
        self._children: dict[tuple, _Replayed] = {}

    def predict(self, x: int, rng=None) -> int:
        if (prediction := self._predictions.get(x)) is None:
            prediction = self._predictions[x] = self.state.predict(x, rng)
        return prediction

    def update(self, x: int, prediction: int, feedback) -> "_Replayed":
        if (child := self._children.get((x, feedback))) is None:
            nxt = self.state.update(x, prediction, feedback)
            if nxt is self.state:
                return self  # not stored: no cycle, so the tree is freed when the call ends
            child = self._children[x, feedback] = _Replayed(nxt)
        return child

    def run_mistakes(self, seq: LabeledSequence, rng=None) -> int:
        """The mistake count after playing the fixed run seq from this node,
        walking the tree along it: a full-information learner is given each
        round's allowed set, any other the correctness bit, as `play` gives
        them."""
        node, full = self, self.kind == "full"
        for ex in seq:
            x, allowed = ex.x, ex.allowed
            prediction = node.predict(x, rng)
            if full:
                feedback = FullInfoFeedback(allowed)
            else:
                feedback = _BANDIT_FEEDBACK[prediction in allowed]
            node = node.update(x, prediction, feedback)
        return node.mistakes


def run_game(cfg: GameConfig) -> list[GameTranscript]:
    """Play cfg.trials independent games of learner vs adversary, each from
    the same starting state.  A deterministic learner starts every trial from
    one `_Replayed` node, so the call walks one game tree and computes each
    (state, instance, feedback) step once; a randomized one plays every trial
    in full with its own generator."""
    fc = resolve_class(cfg.klass)
    if cfg.T < 1 or cfg.trials < 1:
        raise ValueError("T and trials must be >= 1")
    start = make_learner(cfg.learner, fc, cfg.T)
    if start.deterministic:
        start = _Replayed(start)
    out = []
    for child in np.random.SeedSequence(cfg.seed).spawn(cfg.trials):
        adv_ss, lrn_ss = child.spawn(2)
        adversary = make_adversary(cfg.adversary, fc, cfg.T, np.random.default_rng(adv_ss))
        rng = None if start.deterministic else np.random.default_rng(lrn_ss)
        learner, rounds = play(start, adversary, cfg.T, rng)
        mistakes = sum(not r.correct for r in rounds)
        if learner.mistakes != mistakes:
            raise AssertionError("learner mistake count diverged from the transcript")
        justification = adversary.sequence()
        if adversary.claims_realizable and fc.full_space().class_error(justification) != 0:
            raise AssertionError(
                f"adversary {cfg.adversary!r} failed to justify its run as realizable"
            )
        out.append(GameTranscript(rounds, mistakes, justification))
    return out


def play_bound(cfg: GameConfig, fc: FiniteClass) -> tuple[float, str] | None:
    """The theorem ceiling/floor applicable to a play configuration, if any."""
    lname = cfg.learner.partition(":")[0]
    aname, _, aarg = cfg.adversary.partition(":")
    if aname == "minimax" and learner_class(lname).deterministic:
        return float(min(cfg.T, bldim(fc.full_space()))), ">="
    single_label_realizable = (
        aname in ("guessing", "permutation")
        or (aname == "random-realizable" and (not aarg or int(aarg) == 1))
    )
    if lname == "capacity" and (single_label_realizable or aname == "random-realizable"):
        k, L = fc.k, ldim(fc.full_space())
        return 4.0 * k * math.log(k) * L, "<"
    if lname == "soa" and single_label_realizable:
        return float(ldim(fc.full_space())), "<="
    if lname == "bsoa" and single_label_realizable:
        return float(bldim(fc.full_space())), "<="
    return None


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

CSV_COLUMNS = (
    "preset,class,learner,adversary,T,trials,seed,mean_mistakes,stderr,bound,direction,pass"
)


@dataclass
class ReportRow:
    klass: str
    learner: str
    adversary: str
    T: int
    trials: int
    mean_mistakes: float
    stderr: float
    bound: float
    direction: str  # "<", "<=", ">=", "=", "info"
    passed: bool | None  # None for info rows

    def to_csv(self, preset: str, seed: int) -> str:
        passed = "" if self.passed is None else str(self.passed).lower()
        return ",".join(
            [
                preset,
                self.klass,
                self.learner,
                self.adversary,
                str(self.T),
                str(self.trials),
                str(seed),
                repr(float(self.mean_mistakes)),
                repr(float(self.stderr)),
                repr(float(self.bound)),
                self.direction,
                passed,
            ]
        )


@dataclass
class Report:
    preset: str
    seed: int
    header: str
    rows: list[ReportRow]
    notes: list[str] = field(default_factory=list)

    @property
    def all_pass(self) -> bool:
        return all(row.passed is not False for row in self.rows)

    def to_csv(self) -> str:
        lines = [row.to_csv(self.preset, self.seed) for row in self.rows]
        return "\n".join([CSV_COLUMNS] + lines) + "\n"

    def to_json(self) -> dict:
        return {
            "preset": self.preset,
            "seed": self.seed,
            "header": self.header,
            "all_pass": self.all_pass,
            "notes": list(self.notes),
            "rows": [
                {
                    "class": r.klass,
                    "learner": r.learner,
                    "adversary": r.adversary,
                    "T": r.T,
                    "trials": r.trials,
                    "seed": self.seed,
                    "mean_mistakes": r.mean_mistakes,
                    "stderr": r.stderr,
                    "bound": r.bound,
                    "direction": r.direction,
                    "pass": r.passed,
                }
                for r in self.rows
            ],
        }

    def summary_lines(self) -> list[str]:
        lines = [f"# {self.preset}: {self.header}"]
        lines += [f"# note: {note}" for note in self.notes]
        for r in self.rows:
            status = "info" if r.passed is None else ("pass" if r.passed else "FAIL")
            lines.append(
                f"# {status}: {r.klass} {r.learner} vs {r.adversary}: "
                f"measured {r.mean_mistakes:g} {r.direction} bound {r.bound:g}"
            )
        lines.append(f"# overall: {'pass' if self.all_pass else 'FAIL'}")
        return lines


def _mean_stderr(values) -> tuple[float, float]:
    """The mean of a nonempty sequence of numbers and its standard error, each
    sum taken strictly left to right (`np.add.accumulate`), so the bits do not
    depend on numpy's pairwise sums or on the Python version's `sum`.  Each
    distinct value's squared deviation is one Python float `(v - mean) ** 2`."""
    vals = np.asarray(values, dtype=float)
    n = len(vals)
    mean = float(np.add.accumulate(vals)[-1]) / n
    if n < 2:
        return mean, 0.0
    distinct, where = np.unique(vals, return_inverse=True)
    squares = np.array([(v - mean) ** 2 for v in distinct.tolist()])
    var = float(np.add.accumulate(squares[where])[-1]) / (n - 1)
    return mean, math.sqrt(var / n)


def bound_holds(value: float, bound: float, direction: str, slack: float = 0.0) -> bool:
    """Whether value meets bound in the given direction, allowing slack on
    the bound's side."""
    if direction == ">=":
        return value >= bound - slack
    if direction == "<":
        return value < bound + slack
    if direction == "<=":
        return value <= bound + slack
    if direction == "=":
        return abs(value - bound) <= slack
    raise ValueError(f"bad direction {direction!r}")


def _mc_pass(mean: float, stderr: float, bound: float, direction: str) -> bool:
    """Monte Carlo acceptance: mean within 3 standard errors on the correct side."""
    return bound_holds(mean, bound, direction, slack=3.0 * stderr)


UNIFORM_FAILURE_PROB = 1e-6  # per row checked by `_uniform_count_slack`


def _uniform_count_slack(k: int, trials: int, p: float = UNIFORM_FAILURE_PROB) -> float:
    """Half-width eps with P(|mean - (k-1)/2| >= eps) <= p for the mean of
    `trials` iid counts uniform on {0, ..., k-1}: Bernstein's inequality with
    the exact variance (k^2-1)/12 and the range k-1."""
    log = math.log(2.0 / p)
    linear = 2.0 * (k - 1) * log / 3.0
    var = (k * k - 1) / 12.0
    return (linear + math.sqrt(linear**2 + 8.0 * trials * var * log)) / (2.0 * trials)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _block_schedules(fc: FiniteClass, delta: int, draws) -> tuple[list[LabeledSequence], list]:
    """Block-schedule games from (tape, learner seed) draws: the sequence of
    each distinct tape, built once in order of first draw, and each game as
    (index of its sequence, learner seed)."""
    tapes: dict[tuple, int] = {}
    games = [(tapes.setdefault(tape, len(tapes)), lrn_ss) for tape, lrn_ss in draws]
    return [permutation_sequence(fc, delta, tape) for tape in tapes], games


def _schedule_mistakes(start, seqs: list[LabeledSequence], games) -> list[int]:
    """The mistakes of learner state `start` in each game, a (sequence index,
    learner seed) pair, played in full against seqs[index].  States are
    values, so every game starts from `start`, and each is counted by a
    whole-run `run_mistakes(seq, rng)`:

    - a sequence fixes a deterministic learner's whole game, so each sequence
      is counted once, without a generator: by the learner's own
      `run_mistakes` (the baselines'), else along one `_Replayed` game tree,
      where sequences that share a prefix of (instance, feedback) pairs share
      its steps;
    - a randomized learner with a `run_mistakes` (`RandomLearner`) counts
      every game with a generator of its seed;
    - any other learner plays every game through `play`, which stays the
      reference for every `run_mistakes`."""
    run = getattr(start, "run_mistakes", None)
    if start.deterministic:
        per_seq = list(map(run or _Replayed(start).run_mistakes, seqs))
        return [per_seq[i] for i, _ in games]
    if run is None:
        def run(seq, rng):
            return play(start, SequenceAdversary(seq, True), len(seq), rng)[0].mistakes
    return [run(seqs[i], np.random.default_rng(lrn_ss)) for i, lrn_ss in games]


def preset_thm2_realizable(seed: int, trials: int | None = None, T: int | None = None) -> Report:
    """Capacity learner on realizable single-label bandit runs: every run stays
    strictly below 4*k*ln(k)*ldim(H).  Each trial's run is drawn once per class,
    as run_game's random-realizable:1 adversary would draw it, checked
    realizable, and counted for both `capacity` and `soa`."""
    trials = 50 if trials is None else trials
    T = 24 if T is None else T
    rows = []
    adv_streams = [child.spawn(2)[0] for child in np.random.SeedSequence(seed).spawn(trials)]
    games = [(i, None) for i in range(trials)]
    for spec in ("full:1x2", "full:1x3", "full:2x2", "full:2x3", "perm:1x3"):
        fc = catalog.parse_spec(spec)
        space = fc.full_space()
        k, L = fc.k, ldim(space)
        bound = 4.0 * k * math.log(k) * L
        seqs = [
            sample_realizable_sequence(fc, T, np.random.default_rng(ss))[0] for ss in adv_streams
        ]
        for seq in seqs:
            if space.class_error(seq) != 0:
                raise AssertionError(
                    f"random-realizable:1 failed to justify its run as realizable on {spec}"
                )
        counts = _schedule_mistakes(make_learner("capacity", fc, T), seqs, games)
        mean, se = _mean_stderr(counts)
        rows.append(
            ReportRow(
                spec, "capacity", "random-realizable:1",
                T, trials, mean, se, bound, "<", max(counts) < bound,
            )
        )
        # bandit-to-full-info mistake ratio on matched runs: an estimate only,
        # the ratio of optimal error rates involves an infimum over algorithms
        full_mean, _ = _mean_stderr(_schedule_mistakes(make_learner("soa", fc, T), seqs, games))
        if full_mean > 0:
            rows.append(
                ReportRow(
                    spec, "pob-estimate", "random-realizable:1",
                    T, trials, mean / full_mean, 0.0,
                    8.0 * k * math.log(k), "info", None,
                )
            )
    return Report(
        "thm2-realizable",
        seed,
        "realizable bandit mistake ceiling 4*k*ln(k)*ldim(H) for the capacity learner",
        rows,
    )


def preset_thm3_agnostic(seed: int, trials: int | None = None, T: int | None = None) -> Report:
    """Deviation experts + exponential-weights pipeline: mean regret within
    e*sqrt(k*T*ldim(H)*ln(T*k)), and the best expert never loses to the best
    hypothesis."""
    trials = 50 if trials is None else trials
    T = 200 if T is None else T
    rows = []
    ss = np.random.SeedSequence(seed)
    for spec in ("full:1x3", "full:2x3"):
        fc = catalog.parse_spec(spec)
        k, L = fc.k, ldim(fc.full_space())
        bound = math.e * math.sqrt(k * T * L * math.log(T * k))
        for aname in ("random-realizable:1", "noise:1"):
            regrets = []
            excess = []  # best expert loss minus best hypothesis loss, per trial
            for child in ss.spawn(trials):
                adv_ss, lrn_ss = child.spawn(2)
                adversary = make_adversary(aname, fc, T, np.random.default_rng(adv_ss))
                learner = make_learner("exp4", fc, T)
                learner, _ = play(learner, adversary, T, np.random.default_rng(lrn_ss))
                seq = adversary.sequence()
                err = fc.full_space().class_error(seq)
                regrets.append(learner.mistakes - err)
                excess.append(best_expert_loss(fc, seq) - err)
            mean, se = _mean_stderr(regrets)
            rows.append(
                ReportRow(
                    spec, "exp4", aname,
                    T, trials, mean, se, bound, "<=", _mc_pass(mean, se, bound, "<="),
                )
            )
            rows.append(
                ReportRow(
                    spec, "best-expert", aname,
                    T, trials, max(excess), 0.0, 0.0, "<=", max(excess) <= 0,
                )
            )
    return Report(
        "thm3-agnostic",
        seed,
        "agnostic bandit regret ceiling e*sqrt(k*T*ldim(H)*ln(T*k)) for the expert pipeline",
        rows,
    )


def preset_thm4_linear(seed: int, trials: int | None = None, T: int | None = None) -> Report:
    """Margin constructions: exact gaps and norms, Perceptron runs within
    2*D^2, and the block-bijection schedule forces its floor on a bandit
    linear learner."""
    trials = 2000 if trials is None else trials
    runs = 100  # Perceptron streams per construction
    stream_len = 60 if T is None else T
    rows = []
    notes = []
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    for delta, k in ((1, 3), (2, 4), (3, 5)):
        name = f"bijections:{delta}x{k}"
        table = [list(rng.permutation(k)) for _ in range(delta)]
        w, graph = linear.roots_of_unity_embedding(table)
        _, min_gap = linear.check_margin_realization(w, graph)
        gap_bound = linear.roots_of_unity_gap(k)
        rows.append(
            ReportRow(
                name, "-", "min-gap", 0, 1,
                min_gap, 0.0, gap_bound, "=", abs(min_gap - gap_bound) <= 1e-9,
            )
        )
        norm_sq = linear.frobenius_norm(w) ** 2
        rows.append(
            ReportRow(
                name, "-", "norm-sq", 0, 1,
                norm_sq, 0.0, float(delta * k**5), "=",
                abs(norm_sq - delta * k**5) <= 1e-9 * max(1.0, delta * k**5),
            )
        )
        report = linear.embedding_norm_report(delta, k)
        rows.append(
            ReportRow(
                name, "-", "threshold-k^3*d", 0, 1,
                report["normalized_norm_sq"], 0.0, report["threshold_norm_sq"],
                "info", None,
            )
        )
        if not report["fits_threshold"]:
            notes.append(
                f"{name}: normalized squared norm {report['normalized_norm_sq']:g} "
                f"exceeds the quoted threshold k^3*d = {report['threshold_norm_sq']:g}"
            )
        # Perceptron against streams realized by the normalized construction
        d_sq = norm_sq / min_gap**2
        idx = np.array([rng.integers(len(graph), size=stream_len) for _ in range(runs)])
        points = np.array([x for x, _ in graph])
        labels = np.array([y for _, y in graph])
        worst = int(linear.perceptron_mistakes(points[idx], labels[idx], k)[0].max())
        rows.append(
            ReportRow(
                name, "perceptron", "stream", stream_len,
                runs, worst, 0.0, 2.0 * d_sq, "<=",
                worst <= 2.0 * d_sq,
            )
        )

    for L, k in ((2, 2), (3, 3)):
        name = f"labelings:{L}x{k}"
        f = [int(v) for v in rng.integers(k, size=L)]
        w, graph = linear.standard_basis_embedding(f, k)
        _, min_gap = linear.check_margin_realization(w, graph)
        rows.append(
            ReportRow(
                name, "-", "min-gap", 0, 1,
                min_gap, 0.0, 1.0, "=", abs(min_gap - 1.0) <= 1e-9,
            )
        )
        norm_sq = linear.frobenius_norm(w) ** 2
        rows.append(
            ReportRow(
                name, "-", "norm-sq", 0, 1,
                norm_sq, 0.0, float(L), "=", abs(norm_sq - L) <= 1e-9,
            )
        )
        # run r labels basis point i by g_r[i], as the standard-basis embedding of g_r does
        draws = [(rng.integers(k, size=L), rng.integers(L, size=stream_len)) for _ in range(runs)]
        idx = np.array([i for _, i in draws])
        labels = np.array([g[i] for g, i in draws])
        worst = int(linear.perceptron_mistakes(np.eye(L)[idx], labels, k)[0].max())
        rows.append(
            ReportRow(
                name, "perceptron", "stream", stream_len,
                runs, worst, 0.0, 2.0 * L, "<=", worst <= 2.0 * L,
            )
        )

    # lower-bound transfer: the block schedule on embedded points; point (j, m)
    # is the m-th root of unity on coordinate j whatever the tape
    delta, k = 2, 3
    fc = catalog.permutation_class(delta, k)
    floor = permutation_floor(delta, k)
    _, graph = linear.roots_of_unity_embedding([list(range(k))] * delta)
    points = {x: graph[x][0] for x in range(delta * k)}
    start = linear.EmbeddedLearner(linear.BanditPerceptron.zeros(k, 2 * delta), points)
    seqs, games = _block_schedules(fc, delta, (
        (draw_permutation_tape(delta, k, np.random.default_rng(child)), None)
        for child in np.random.SeedSequence(seed).spawn(trials)
    ))
    counts = _schedule_mistakes(start, seqs, games)
    mean, se = _mean_stderr(counts)
    rows.append(
        ReportRow(
            f"bijections:{delta}x{k}", "bandit-perceptron",
            "permutation-embedded", fc.n, trials, mean, se, floor, ">=",
            _mc_pass(mean, se, floor, ">="),
        )
    )
    return Report(
        "thm4-linear",
        seed,
        "margin embeddings: exact gaps/norms, Perceptron within 2*D^2, embedded schedule floor",
        rows,
        notes,
    )


def preset_claim_guessing(seed: int, trials: int | None = None, T: int | None = None) -> Report:
    """Hidden-label guessing game: every strategy averages at least (k-1)/2
    wrong guesses; the non-repeating strategy attains it exactly."""
    trials = 100_000 if trials is None else trials
    rows = []
    ss = np.random.SeedSequence(seed)
    for k in range(2, 9):
        for strategy in adversaries.GUESSER_NAMES:
            game_ss, guess_ss = ss.spawn(2)
            # one draw per game, in game order, as `guessing_game` makes them
            hidden = np.random.default_rng(game_ss).integers(k, size=trials)
            guesser = make_guesser(strategy, k, np.random.default_rng(guess_ss))
            mean, se = _mean_stderr(guesser.wrong_guesses(hidden))
            bound = (k - 1) / 2
            directions, slack = (">=",), 3.0 * se
            if strategy == "nonrepeating":
                # its count is exactly uniform on {0, ..., k-1}, so its mean
                # sits on the bound: judge it by that law, not by the sample
                directions, slack = (">=", "="), _uniform_count_slack(k, trials)
            for direction in directions:
                rows.append(
                    ReportRow(
                        f"k={k}", strategy, "guessing",
                        k - 1, trials, mean, se, bound, direction,
                        bound_holds(mean, bound, direction, slack),
                    )
                )
    return Report(
        "claim-guessing",
        seed,
        "hidden-label guessing floor (k-1)/2 for every strategy, attained by non-repeating",
        rows,
    )


def _permutation_zoo(delta: int, k: int) -> tuple[str, ...]:
    # bsoa at delta=2 solves bldim through perm:2x4's factors, about 20 ms per
    # 100-trial call, but stays out: adding it moves this preset's CSV.
    zoo = ["capacity", "soa-bandit", "constant", "cycling", "random"]
    if delta == 1:
        zoo.insert(2, "bsoa")
    return tuple(zoo)


def preset_claim_permutation(seed: int, trials: int | None = None, T: int | None = None) -> Report:
    """Block-bijection schedule: every bandit learner averages at least
    delta*(k-1)*k/4 mistakes.  Trial i's (adversary, learner) seed pair is
    spawned once per call and serves both (delta, k) schedules.  Every learner
    plays the same trials, each a (tape, learner seed) pair drawn once; each
    distinct tape's sequence is built once and replayed to every learner."""
    trials = 10_000 if trials is None else trials
    rows = []
    streams = [child.spawn(2) for child in np.random.SeedSequence(seed).spawn(trials)]
    for delta, k in ((1, 3), (2, 4)):
        fc = catalog.permutation_class(delta, k)
        horizon = delta * k * (k - 1) // 2
        floor = permutation_floor(delta, k)
        seqs, games = _block_schedules(fc, delta, (
            (draw_permutation_tape(delta, k, np.random.default_rng(adv_ss)), lrn_ss)
            for adv_ss, lrn_ss in streams
        ))
        for lname in _permutation_zoo(delta, k):
            counts = _schedule_mistakes(make_learner(lname, fc, horizon), seqs, games)
            mean, se = _mean_stderr(counts)
            rows.append(
                ReportRow(
                    fc.name, lname, f"permutation:{delta}",
                    horizon, trials, mean, se, floor, ">=",
                    _mc_pass(mean, se, floor, ">="),
                )
            )
    return Report(
        "claim-permutation",
        seed,
        "block-bijection schedule floor delta*(k-1)*k/4 for every bandit learner",
        rows,
    )


def preset_dim_ratio(seed: int, trials: int | None = None, T: int | None = None) -> Report:
    """Dimension ratio sweep: bldim <= 4*k*ln(k)*ldim on every subclass, with
    the full class attaining ldim = n and bldim = (k-1)*n."""
    rows = []
    fc = catalog.full_class(2, 2)
    envelope = 4.0 * fc.k * math.log(fc.k)
    for mask in range(1, fc.full_mask + 1):  # every nonempty subclass
        space = VersionSpace(fc, mask)
        l, bl = ldim(space), bldim(space)
        rows.append(
            ReportRow(
                f"{fc.name}#{mask}", "-", "-", 0, 1,
                bl, 0.0, envelope * l, "<=", bl <= envelope * l,
            )
        )
    for n in (1, 2, 3):
        for k in (2, 3, 4):
            full = catalog.full_class(n, k)
            space = full.full_space()
            rows.append(
                ReportRow(
                    full.name, "-", "ldim", 0, 1,
                    ldim(space), 0.0, float(n), "=", ldim(space) == n,
                )
            )
            rows.append(
                ReportRow(
                    full.name, "-", "bldim", 0, 1,
                    bldim(space), 0.0, float((k - 1) * n), "=",
                    bldim(space) == (k - 1) * n,
                )
            )
    return Report(
        "dim-ratio",
        seed,
        "bldim within 4*k*ln(k)*ldim everywhere; full classes attain ldim=n, bldim=(k-1)*n",
        rows,
    )


PRESETS = {
    "thm2-realizable": preset_thm2_realizable,
    "thm3-agnostic": preset_thm3_agnostic,
    "thm4-linear": preset_thm4_linear,
    "claim-guessing": preset_claim_guessing,
    "claim-permutation": preset_claim_permutation,
    "dim-ratio": preset_dim_ratio,
}


def run_experiment(
    preset: str, seed: int | None = None, trials: int | None = None, T: int | None = None
) -> Report:
    """Run a preset; trials and T left as None take the preset's defaults."""
    try:
        fn = PRESETS[preset]
    except KeyError:
        raise ValueError(f"unknown preset {preset!r}; known: {', '.join(sorted(PRESETS))}")
    for name, value in (("trials", trials), ("T", T)):
        if value is not None and (type(value) is not int or value <= 0):
            raise ValueError(f"{name} must be a positive int, got {value!r}")
    return fn(seed if seed is not None else PRESET_SEED, trials=trials, T=T)
