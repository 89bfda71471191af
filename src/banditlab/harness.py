"""The game loop, experiment presets, and report emission.

All randomness in a run flows from one seed through spawned generator streams
(one per trial for the adversary, one for the learner), so reports are
byte-stable across repeats.

`play` is the one round-by-round loop: `run_game` plays every game through it,
against the minimax adversary, which reacts to predictions, as against any
other.  A preset whose games are fixed sequences counts each whole run with a
`run_mistakes(seq, rng)` instead: a deterministic learner's along its
`_Replayed` game tree (see `_schedule_mistakes`), the random learner's as one
draw, and `play` is the reference those are tested against.  A block-schedule
tape is one of (k!)^delta equally likely, and a hidden label one of k, so a
deterministic learner's row there is exact: the `Law` of its counts over every
whole tape or label, counted once per process (see `preset_claim_permutation`
and `preset_claim_guessing`).
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import ClassVar

import numpy as np

from . import catalog, hypotheses, linear
from .adversaries import (
    GUESSER_LEARNERS,
    draw_permutation_tape,
    every_permutation_sequence,
    guessing_run,
    make_adversary,
    permutation_floor,
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


def _positive_int(value: object, what: str) -> int:
    """A game or trial count: `hypotheses._int_field`, refusing 0 and negatives too."""
    if (out := hypotheses._int_field(value, what)) <= 0:
        raise ValueError(f"{what} must be positive, got {out}")
    return out


def resolve_class(source: str | FiniteClass) -> FiniteClass:
    if isinstance(source, FiniteClass):
        return source
    if Path(source).exists():
        return read_class(source)
    return catalog.shared_class(source)


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
    call: its prediction at each x, and its child for each instance and
    feedback, are computed once, so games that share a prefix of (instance,
    feedback) pairs share those steps.  A bandit node keys its children by
    (x, correctness bit), a full-information one by (x, allowed set), and
    builds the feedback a state is given only when it makes a child.  A
    state whose update returns itself is recorded as None, meaning this same
    node: the tree holds no cycle, so it is freed when the call ends."""

    __slots__ = ("state", "kind", "mistakes", "_predictions", "_children")
    deterministic: ClassVar[bool] = True

    def __init__(self, state):
        self.state, self.kind, self.mistakes = state, state.kind, state.mistakes
        self._predictions: dict[int, int] = {}
        self._children: dict[tuple, _Replayed | None] = {}

    def predict(self, x: int, rng=None) -> int:
        if (prediction := self._predictions.get(x)) is None:
            prediction = self._predictions[x] = self.state.predict(x, rng)
        return prediction

    def update(self, x: int, prediction: int, feedback) -> "_Replayed":
        seen = feedback.allowed if self.kind == "full" else feedback.correct
        return self._step(x, prediction, seen)

    def _step(self, x: int, prediction: int, seen) -> "_Replayed":
        """The node after predicting `prediction` at x and seeing `seen`: the
        allowed set for a full-information node, else the correctness bit."""
        key = (x, seen)
        try:
            child = self._children[key]
        except KeyError:
            feedback = FullInfoFeedback(seen) if self.kind == "full" else _BANDIT_FEEDBACK[seen]
            nxt = self.state.update(x, prediction, feedback)
            child = self._children[key] = None if nxt is self.state else _Replayed(nxt)
        return self if child is None else child

    def run_mistakes(self, seq: LabeledSequence, rng=None) -> int:
        """The mistake count after playing the fixed run seq from this node,
        walking the tree along it: a full-information learner sees each
        round's allowed set, any other the correctness bit, as `play` gives
        them."""
        node, full = self, self.kind == "full"
        for ex in seq:
            x = ex.x
            prediction = node.predict(x, rng)
            node = node._step(x, prediction, ex.allowed if full else prediction in ex.allowed)
        return node.mistakes


def run_game(cfg: GameConfig) -> list[GameTranscript]:
    """Play cfg.trials independent games of learner vs adversary, each from
    the same starting state.  A deterministic learner starts every trial from
    one `_Replayed` node, so the call walks one game tree and computes each
    (state, instance, feedback) step once; a randomized one plays every trial
    in full with its own generator."""
    seed = hypotheses._nonnegative_field(cfg.seed, "seed")
    T, trials = _positive_int(cfg.T, "T"), _positive_int(cfg.trials, "trials")
    fc = resolve_class(cfg.klass)
    start = make_learner(cfg.learner, fc, T)
    if start.deterministic:
        start = _Replayed(start)
    out = []
    for child in np.random.SeedSequence(seed).spawn(trials):
        adv_ss, lrn_ss = child.spawn(2)
        adversary = make_adversary(cfg.adversary, fc, T, np.random.default_rng(adv_ss))
        rng = None if start.deterministic else np.random.default_rng(lrn_ss)
        learner, rounds = play(start, adversary, T, rng)
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
    if lname == "capacity" and aname in ("guessing", "permutation", "random-realizable"):
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


def bound_holds(value, bound, direction: str, slack=0) -> bool:
    """Whether value meets bound in the given direction, allowing slack on
    the bound's side; exact for `Fraction`s at the default slack."""
    if direction == ">=":
        return value >= bound - slack
    if direction == "<":
        return value < bound + slack
    if direction == "<=":
        return value <= bound + slack
    if direction == "=":
        return abs(value - bound) <= slack
    raise ValueError(f"bad direction {direction!r}")


def _row(label, value, bound, direction, slack=0, stderr=0.0, judged=None) -> ReportRow:
    """The one way a report row is made, for label (class, learner,
    adversary, T, trials).  It shows `value` and is judged by `bound_holds`
    on `judged`, or on `value` if none is given, within `slack`; an info row
    is not judged."""
    judged = value if judged is None else judged
    passed = None if direction == "info" else bound_holds(judged, bound, direction, slack)
    return ReportRow(*label, value, stderr, float(bound), direction, passed)


@dataclass(frozen=True)
class Law:
    """The exact law of one game's mistake count: its mean and variance, and
    its least and largest count.  `_row` makes and judges every row: a game
    with a known law gives it its slack (`_law_rows`), any other a stated one."""

    mean: Fraction
    var: Fraction
    lo: int
    hi: int

    @classmethod
    def uniform_over(cls, counts) -> "Law":
        """One count per equally likely draw, summed as integers, not `Fraction`s."""
        counts = [int(c) for c in counts]
        n, total, squares = len(counts), sum(counts), sum(c * c for c in counts)
        mean, var = Fraction(total, n), Fraction(n * squares - total**2, n * n)
        return cls(mean, var, min(counts), max(counts))

    @classmethod
    def binomial(cls, n: int, p: Fraction) -> "Law":
        """n independent rounds, each a mistake with probability p."""
        return cls(n * p, n * p * (1 - p), 0, n)

    def tolerance(self, trials: int) -> float:
        """Half-width eps with P(|mean - E| >= eps) <= 1e-6 for the mean of
        `trials` independent counts of this law: Bernstein's inequality with
        the exact variance and the range hi - lo."""
        log = math.log(2.0 / 1e-6)
        linear = 2.0 * (self.hi - self.lo) * log / 3.0
        var = float(self.var)
        return (linear + math.sqrt(linear**2 + 8.0 * trials * var * log)) / (2.0 * trials)


def _balanced(trials: int, draws: int) -> int:
    """The fewest games, at least `trials`, that play each of `draws` equally
    likely draws equally often: the game count of an exact row."""
    return -(-trials // draws) * draws


def _law_rows(label, trials, law, bound, directions, sample=None) -> list[ReportRow]:
    """One row per direction for the game (class, learner, adversary, T) of
    `label`, whose one-game law is `law`.  Without a sample the row is exact:
    its `trials` games play each of the law's equally likely draws equally
    often (`_balanced`), never fewer than were asked for, so a reader taking
    `trials` for a sample size judges it no more loosely than a sampled row.
    It holds the law's mean, stderr 0, and is judged by exact comparison.  A
    sample is the (mean, stderr) of `trials` games, judged within the law's
    tolerance."""
    mean, se = (law.mean, 0.0) if sample is None else sample
    tol = 0 if sample is None else law.tolerance(trials)
    return [_row((*label, trials), float(mean), bound, d, tol, se, mean) for d in directions]


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _schedule_mistakes(start, seqs) -> list[int]:
    """The mistakes of deterministic learner state `start` on each fixed run
    of seqs, each counted whole from `start` along one `_Replayed` game tree,
    where runs that share a prefix of (instance, feedback) pairs share its
    steps.  `play` is the reference.  Its callers: thm2-realizable, on each
    call's sampled runs, and the seed-free exact laws below
    (`_permutation_law`, `_guessing_law`, `_embedded_law`)."""
    return list(map(_Replayed(start).run_mistakes, seqs))


# The exact law of a deterministic row depends only on (learner, class,
# horizon), never on the seed or on `trials`, so each is counted once per
# process, as `every_permutation_sequence` builds each tape table once.  A
# `Law` is frozen: callers share it.


@functools.cache
def _permutation_law(lname: str, delta: int, k: int) -> Law:
    """The law of deterministic learner lname's mistakes on perm:deltaxk's
    block schedule, counted on each of its (k!)^delta equally likely tapes."""
    fc = catalog.shared_class(f"perm:{delta}x{k}")
    start = make_learner(lname, fc, delta * k * (k - 1) // 2)
    tapes = every_permutation_sequence(fc, delta).values()
    return Law.uniform_over(_schedule_mistakes(start, tapes))


@functools.cache
def _guessing_law(lname: str, k: int) -> Law:
    """The law of deterministic learner lname's wrong guesses in the guessing
    game on full:1xk, over its k equally likely hidden labels' runs."""
    runs = [guessing_run(h, k - 1) for h in range(k)]
    start = make_learner(lname, catalog.shared_class(f"full:1x{k}"), k - 1)
    return Law.uniform_over(_schedule_mistakes(start, runs))


@functools.cache
def _embedded_law(delta: int, k: int) -> Law:
    """The law of a bandit Perceptron's mistakes on the block schedule of
    perm:deltaxk played on its roots-of-unity embedding, over every tape;
    point (j, m) is the m-th root of unity on coordinate j whatever the tape."""
    fc = catalog.shared_class(f"perm:{delta}x{k}")
    _, graph = linear.roots_of_unity_embedding([list(range(k))] * delta)
    points = {x: graph[x][0] for x in range(delta * k)}
    start = linear.EmbeddedLearner(linear.BanditPerceptron.zeros(k, 2 * delta), points)
    tapes = every_permutation_sequence(fc, delta).values()
    return Law.uniform_over(_schedule_mistakes(start, tapes))


def preset_thm2_realizable(seed: int, trials: int = 50, T: int = 24) -> Report:
    """Capacity learner on realizable single-label bandit runs: every run stays
    strictly below 4*k*ln(k)*ldim(H).  Each trial's run is drawn once per class,
    as run_game's random-realizable:1 adversary would draw it, checked
    realizable, and counted for both `capacity` and `soa`."""
    rows = []
    adv_streams = [child.spawn(2)[0] for child in np.random.SeedSequence(seed).spawn(trials)]
    for spec in ("full:1x2", "full:1x3", "full:2x2", "full:2x3", "perm:1x3"):
        fc = catalog.shared_class(spec)
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
        counts = _schedule_mistakes(make_learner("capacity", fc, T), seqs)
        mean, se = _mean_stderr(counts)
        label = (spec, "capacity", "random-realizable:1", T, trials)
        rows.append(_row(label, mean, bound, "<", stderr=se, judged=max(counts)))
        # bandit-to-full-info mistake ratio on matched runs: an estimate only,
        # the ratio of optimal error rates involves an infimum over algorithms
        full_mean, _ = _mean_stderr(_schedule_mistakes(make_learner("soa", fc, T), seqs))
        if full_mean > 0:
            label = (spec, "pob-estimate", "random-realizable:1", T, trials)
            rows.append(_row(label, mean / full_mean, 8.0 * k * math.log(k), "info"))
    return Report(
        "thm2-realizable",
        seed,
        "realizable bandit mistake ceiling 4*k*ln(k)*ldim(H) for the capacity learner",
        rows,
    )


def preset_thm3_agnostic(seed: int, trials: int = 50, T: int = 200) -> Report:
    """Deviation experts + exponential-weights pipeline: mean regret within
    e*sqrt(k*T*ldim(H)*ln(T*k)), and the best expert never loses to the best
    hypothesis."""
    rows = []
    ss = np.random.SeedSequence(seed)
    for spec in ("full:1x3", "full:2x3"):
        fc = catalog.shared_class(spec)
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
            # no law is known for Exp4's regret: the mean is judged within 3 stderrs
            rows.append(_row((spec, "exp4", aname, T, trials), mean, bound, "<=", 3.0 * se, se))
            rows.append(_row((spec, "best-expert", aname, T, trials), max(excess), 0.0, "<="))
    return Report(
        "thm3-agnostic",
        seed,
        "agnostic bandit regret ceiling e*sqrt(k*T*ldim(H)*ln(T*k)) for the expert pipeline",
        rows,
    )


def preset_thm4_linear(seed: int, trials: int = 2000, T: int = 60) -> Report:
    """Margin constructions: exact gaps and norms, Perceptron runs of T
    points within 2*D^2, and the block-bijection schedule forces its floor on
    a bandit linear learner, exactly, over every tape: the embedded row plays
    each of the 36 tapes equally often in at least `trials` games.  That
    row's law is seed-free, so it is counted once per process
    (`_embedded_law`)."""
    runs = 100  # Perceptron streams per construction
    rows = []
    notes = []
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    for delta, k in ((1, 3), (2, 4), (3, 5)):
        name = f"bijections:{delta}x{k}"
        table = [list(rng.permutation(k)) for _ in range(delta)]
        w, graph = linear.roots_of_unity_embedding(table)
        _, min_gap = linear.check_margin_realization(w, graph)
        norm_sq, raw_sq = linear.frobenius_norm(w) ** 2, delta * k**5
        report = linear.embedding_norm_report(delta, k)
        normalized, threshold = report["normalized_norm_sq"], report["threshold_norm_sq"]
        rows += [
            _row((name, "-", "min-gap", 0, 1), min_gap, linear.roots_of_unity_gap(k), "=", 1e-9),
            _row((name, "-", "norm-sq", 0, 1), norm_sq, raw_sq, "=", 1e-9 * max(1.0, raw_sq)),
            _row((name, "-", "threshold-k^3*d", 0, 1), normalized, threshold, "info"),
        ]
        if not report["fits_threshold"]:
            notes.append(
                f"{name}: normalized squared norm {normalized:g} "
                f"exceeds the quoted threshold k^3*d = {threshold:g}"
            )
        # Perceptron against streams realized by the normalized construction
        d_sq = norm_sq / min_gap**2
        # the runs' streams in one draw: row r is what run r's own draw would be
        idx = rng.integers(len(graph), size=(runs, T))
        points = np.array([x for x, _ in graph])
        labels = np.array([y for _, y in graph])
        worst = int(linear.perceptron_mistakes(points[idx], labels[idx], k)[0].max())
        rows.append(_row((name, "perceptron", "stream", T, runs), worst, 2.0 * d_sq, "<="))

    for L, k in ((2, 2), (3, 3)):
        name = f"labelings:{L}x{k}"
        f = [int(v) for v in rng.integers(k, size=L)]
        w, graph = linear.standard_basis_embedding(f, k)
        _, min_gap = linear.check_margin_realization(w, graph)
        rows.append(_row((name, "-", "min-gap", 0, 1), min_gap, 1.0, "=", 1e-9))
        norm_sq = linear.frobenius_norm(w) ** 2
        rows.append(_row((name, "-", "norm-sq", 0, 1), norm_sq, L, "=", 1e-9))
        # run r labels basis point i by g_r[i], as the standard-basis embedding of g_r does
        draws = [(rng.integers(k, size=L), rng.integers(L, size=T)) for _ in range(runs)]
        idx = np.array([i for _, i in draws])
        labels = np.array([g[i] for g, i in draws])
        worst = int(linear.perceptron_mistakes(np.eye(L)[idx], labels, k)[0].max())
        rows.append(_row((name, "perceptron", "stream", T, runs), worst, 2.0 * L, "<="))

    # lower-bound transfer: the block schedule on embedded points, over every tape
    delta, k = 2, 3
    tapes = math.factorial(k) ** delta
    label = (f"bijections:{delta}x{k}", "bandit-perceptron", "permutation-embedded", delta * k)
    law, floor = _embedded_law(delta, k), permutation_floor(delta, k)
    rows += _law_rows(label, _balanced(trials, tapes), law, floor, (">=",))
    return Report(
        "thm4-linear",
        seed,
        "margin embeddings: exact gaps/norms, Perceptron within 2*D^2, embedded schedule floor",
        rows,
        notes,
    )


def preset_claim_guessing(seed: int, trials: int = 100_000) -> Report:
    """Hidden-label guessing game: every strategy averages at least (k-1)/2
    wrong guesses; the non-repeating strategy attains it exactly.  Each
    strategy is its learner on full:1xk (`adversaries.GUESSER_LEARNERS`).  A
    deterministic one's row is exact: the law of its counts on the k equally
    likely hidden labels' runs, each played equally often in at least
    `trials` games; that law is seed-free, so it is counted once per process
    (`_guessing_law`).  The random guesser plays `trials` games, its hidden
    labels and guesses drawn from one pair of streams spawned per k, and is
    judged by its law, Binomial(k-1, (k-1)/k)."""
    rows = []
    ss = np.random.SeedSequence(seed)
    for k in range(2, 9):
        floor = Fraction(k - 1, 2)
        for strategy, lname in GUESSER_LEARNERS.items():
            label = (f"k={k}", strategy, "guessing", k - 1)
            if not learner_class(lname).deterministic:
                game_rng, guess_rng = map(np.random.default_rng, ss.spawn(2))
                # one draw per game, then each game's k-1 guesses, as `guessing_game` makes them
                hidden = game_rng.integers(k, size=trials)
                guesses = guess_rng.integers(k, size=(trials, k - 1))
                law = Law.binomial(k - 1, Fraction(k - 1, k))
                sample = _mean_stderr((guesses != hidden[:, None]).sum(axis=1))
                rows += _law_rows(label, trials, law, floor, (">=",), sample)
                continue
            law = _guessing_law(lname, k)
            directions = (">=", "=") if strategy == "nonrepeating" else (">=",)
            rows += _law_rows(label, _balanced(trials, k), law, floor, directions)
    return Report(
        "claim-guessing",
        seed,
        "hidden-label guessing floor (k-1)/2 for every strategy, attained by non-repeating",
        rows,
    )


PERMUTATION_ZOO = ("capacity", "soa-bandit", "bsoa", "constant", "cycling", "random")


def preset_claim_permutation(seed: int, trials: int = 10_000) -> Report:
    """Block-bijection schedule: every bandit learner averages at least
    delta*(k-1)*k/4 mistakes, and soa-bandit and bsoa attain it.

    A deterministic learner's row is exact over the (k!)^delta equally likely
    tapes, each played equally often in at least `trials` games.  Its law
    (`_permutation_law`) is seed-free, so it is counted once per process, on
    every whole tape.  The random learner plays `trials` games, trial i's
    (tape, learner) generator pair built once per call from one spawned seed
    pair and rewound to its fresh state before each schedule, and is judged
    by its law, Binomial(horizon, (k-1)/k)."""
    rows = []
    rngs = [
        tuple(map(np.random.default_rng, child.spawn(2)))
        for child in np.random.SeedSequence(seed).spawn(trials)
    ]
    fresh = [(a.bit_generator.state, b.bit_generator.state) for a, b in rngs]
    for delta, k in ((1, 3), (2, 4)):
        fc = catalog.shared_class(f"perm:{delta}x{k}")
        horizon = delta * k * (k - 1) // 2
        floor = permutation_floor(delta, k)
        tapes = every_permutation_sequence(fc, delta)
        for lname in PERMUTATION_ZOO:
            label = (fc.name, lname, f"permutation:{delta}", horizon)
            if not learner_class(lname).deterministic:
                start, counts = make_learner(lname, fc, horizon), []
                for (tape_rng, rng), (tape_state, state) in zip(rngs, fresh):
                    tape_rng.bit_generator.state, rng.bit_generator.state = tape_state, state
                    tape = draw_permutation_tape(delta, k, tape_rng)
                    counts.append(start.run_mistakes(tapes[tape], rng))
                law = Law.binomial(horizon, Fraction(k - 1, k))
                rows += _law_rows(label, trials, law, floor, (">=",), _mean_stderr(counts))
                continue
            law = _permutation_law(lname, delta, k)
            # soa-bandit and bsoa sit exactly on the floor: the bound is tight
            directions = (">=", "=") if lname in ("soa-bandit", "bsoa") else (">=",)
            rows += _law_rows(label, _balanced(trials, len(tapes)), law, floor, directions)
    return Report(
        "claim-permutation",
        seed,
        "block-bijection schedule floor delta*(k-1)*k/4 for every bandit learner",
        rows,
    )


def preset_dim_ratio(seed: int) -> Report:
    """Dimension ratio sweep: bldim <= 4*k*ln(k)*ldim on every subclass, with
    the full class attaining ldim = n and bldim = (k-1)*n."""
    rows = []
    fc = catalog.full_class(2, 2)
    envelope = 4.0 * fc.k * math.log(fc.k)
    for mask in range(1, fc.full_mask + 1):  # every nonempty subclass
        space = VersionSpace(fc, mask)
        l, bl = ldim(space), bldim(space)
        rows.append(_row((f"{fc.name}#{mask}", "-", "-", 0, 1), bl, envelope * l, "<="))
    for n in (1, 2, 3):
        for k in (2, 3, 4):
            full = catalog.full_class(n, k)
            space = full.full_space()
            rows.append(_row((full.name, "-", "ldim", 0, 1), ldim(space), n, "="))
            rows.append(_row((full.name, "-", "bldim", 0, 1), bldim(space), (k - 1) * n, "="))
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
    """Run a preset; trials and T left as None take the preset's defaults,
    and a preset that takes no such size refuses one."""
    try:
        fn = PRESETS[preset]
    except KeyError:
        raise ValueError(f"unknown preset {preset!r}; known: {', '.join(sorted(PRESETS))}")
    seed = PRESET_SEED if seed is None else hypotheses._nonnegative_field(seed, "seed")
    sizes = {n: _positive_int(v, n) for n, v in (("trials", trials), ("T", T)) if v is not None}
    for name, value in sizes.items():
        if name not in inspect.signature(fn).parameters:
            raise ValueError(f"preset {preset!r} takes no {name}, got {name}={value}")
    return fn(seed, **sizes)
