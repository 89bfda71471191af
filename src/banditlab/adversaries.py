"""Sequence generators and adaptive adversaries for lower-bound games.

An adversary exposes

    next_instance() -> int | None      (None once its run is exhausted)
    respond(prediction) -> RoundReply
    sequence() -> LabeledSequence      (the labels committed so far, possibly
                                        fixed retroactively at game end)
    claims_realizable                  whether sequence() must have class_error 0

An oblivious adversary fixes its whole labeled run before the first
prediction, so it is that run: the guessing game, the block-bijection schedule
and the random samplers each draw a LabeledSequence, and SequenceAdversary
replays it.  Only MinimaxBanditAdversary reacts to the predictions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import hypotheses
from .catalog import full_class
from .dimensions import bldim, bldim_split
from .hypotheses import FiniteClass, LabeledSequence, MultiLabelExample, is_decimal
from .learners import BanditFeedback, make_learner


@dataclass(frozen=True)
class RoundReply:
    correct: bool
    allowed: frozenset[int] | None  # None when labels cannot be revealed yet


# ---------------------------------------------------------------------------
# oblivious adversaries: a fixed run, replayed
# ---------------------------------------------------------------------------


class SequenceAdversary:
    """Replays a fixed sequence, judging predictions against the allowed sets."""

    def __init__(self, seq: LabeledSequence, claims_realizable: bool):
        self.seq = seq
        self.claims_realizable = claims_realizable
        self.pos = 0

    @property
    def length(self) -> int:
        return len(self.seq)

    def next_instance(self) -> int | None:
        if self.pos >= len(self.seq):
            return None
        return self.seq[self.pos].x

    def respond(self, prediction: int) -> RoundReply:
        ex = self.seq[self.pos]
        self.pos += 1
        return RoundReply(prediction in ex.allowed, ex.allowed)

    def sequence(self) -> LabeledSequence:
        return self.seq[: self.pos]


# ---------------------------------------------------------------------------
# the hidden-label guessing game
# ---------------------------------------------------------------------------
#
# The guessing game is the bandit game on full:1xk: k-1 rounds of instance 0
# under one hidden label.  Each strategy is the learner that plays it there.

GUESSER_LEARNERS = {
    "nonrepeating": "soa-bandit",
    "constant": "constant",
    "cycling": "cycling",
    "random": "random",
}
GUESSER_NAMES = tuple(GUESSER_LEARNERS)


class _Guesser:
    """A learner on full:1xk behind the round-by-round guessing protocol,
    next_guess()/observe(guess, correct), which bench/workloads.py calls."""

    def __init__(self, learner, rng):
        self.learner, self.rng = learner, rng

    def next_guess(self) -> int:
        return self.learner.predict(0, self.rng)

    def observe(self, guess: int, correct: bool) -> None:
        self.learner = self.learner.update(0, guess, BanditFeedback(correct))


def make_guesser(name: str, k: int, rng=None) -> _Guesser:
    if name not in GUESSER_LEARNERS:
        raise ValueError(f"unknown guesser {name!r}; known: {', '.join(GUESSER_NAMES)}")
    return _Guesser(make_learner(GUESSER_LEARNERS[name], full_class(1, k), k - 1), rng)


def guessing_game(k: int, guesser, rng) -> int:
    """One game: k-1 guesses at a uniformly hidden label; returns wrong guesses.

    Whatever the strategy, the expected count is at least (k-1)/2, with
    equality for the feedback-aware non-repeating guesser.
    """
    if k < 2:
        raise ValueError("the guessing game needs k >= 2")
    hidden, mistakes = int(rng.integers(k)), 0
    for _ in range(k - 1):
        guess = guesser.next_guess()
        mistakes += guess != hidden
        guesser.observe(guess, guess == hidden)
    return mistakes


def guessing_run(hidden: int, T: int) -> LabeledSequence:
    """Instance 0, T times, with the one allowed label `hidden`."""
    return (MultiLabelExample(0, frozenset((hidden,))),) * T


def guessing_sequence(fc: FiniteClass, T: int, rng) -> LabeledSequence:
    """The guessing game as a fixed run: instance 0, T times, under one
    uniformly hidden label that every round's honest feedback reveals."""
    for y in range(fc.k):
        if fc.eq_mask(0, y) == 0:
            raise ValueError(
                f"class {fc.name!r} realizes no hypothesis with h(0)={y}; "
                "the guessing game needs every label available at instance 0"
            )
    return guessing_run(int(rng.integers(fc.k)), T)


# ---------------------------------------------------------------------------
# the per-block permutation adversary
# ---------------------------------------------------------------------------


def draw_permutation_tape(delta: int, k: int, rng) -> tuple[tuple[int, ...], ...]:
    """Per block, the uniformly random order in which labels get committed:
    one `rng.permutation(k)` per block, in block order."""
    return tuple(tuple(rng.permutation(k).tolist()) for _ in range(delta))


def permutation_floor(delta: int, k: int) -> Fraction:
    """Expected-mistake floor delta*(k-1)*k/4 forced on any learner, exactly."""
    return Fraction(delta * (k - 1) * k, 4)


def permutation_sequence(fc: FiniteClass, delta: int, tape) -> LabeledSequence:
    """The block schedule over X = [0,delta) x [0,k) (flattened to j*k+m).

    Block by block, instance (j, m) is shown k-1-m times with hidden label
    tape[j][m]; the committed labels form a bijection per block, so the run is
    realizable by the per-block permutation class.
    """
    k = fc.k
    if fc.n != delta * k:
        raise ValueError(
            f"class {fc.name!r} has n={fc.n}; the block schedule needs n = delta*k = {delta * k}"
        )
    seq: LabeledSequence = ()
    for j in range(delta):
        for m in range(k - 1):
            seq += (MultiLabelExample(j * k + m, frozenset((tape[j][m],))),) * (k - 1 - m)
    return seq


@functools.cache
def every_permutation_sequence(fc: FiniteClass, delta: int) -> dict[tuple, LabeledSequence]:
    """Every tape of the block schedule on fc (a perm:deltaxk class), in
    `itertools.product` order, with its `permutation_sequence`.  The table is
    built once per (fc, delta) per process and shared: read it, never change
    it."""
    rows = itertools.permutations(range(fc.k))
    return {tape: permutation_sequence(fc, delta, tape) for tape in itertools.product(rows, repeat=delta)}


class PermutationAdversary(SequenceAdversary):
    """The block schedule of a tape, drawn from rng when none is given.  All
    randomness sits in the up-front tape, never in reactions to predictions."""

    def __init__(self, fc: FiniteClass, delta: int, rng=None, tape=None):
        if tape is None:
            tape = draw_permutation_tape(delta, fc.k, rng)
        super().__init__(permutation_sequence(fc, delta, tape), claims_realizable=True)


# ---------------------------------------------------------------------------
# the bandit-dimension forcing adversary
# ---------------------------------------------------------------------------


class MinimaxBanditAdversary:
    """Forces >= min(T, bldim(H)) wrong answers from any deterministic learner.

    While the survivor space has positive bandit dimension, present the
    smallest dimension-attaining instance, declare the prediction wrong, and
    keep only avoiding hypotheses; the avoidance restriction at such an
    instance loses at most one dimension level, so the forcing phase lasts at
    least bldim(H) rounds.  Once the dimension hits zero, commit the smallest
    surviving hypothesis and answer honestly.  Reveals no label set while
    forcing, so only bandit learners can play through a forcing phase.
    """

    claims_realizable = True

    def __init__(self, fc: FiniteClass):
        self.fc = fc
        self.space = fc.full_space()
        self.committed: int | None = None
        self.rounds: list[tuple[int, int]] = []  # (x, prediction)
        self.bldim_trace: list[int] = [bldim(self.space)]
        self._pending: int | None = None

    def _forcing_instance(self) -> int:
        # an unused label's entry is bldim(V), at least every other entry since
        # bldim cannot grow under restriction: counting it cannot change the test
        target = bldim(self.space)
        for x in range(self.fc.n):
            if 1 + min(bldim_split(self.space, x)) == target:
                return x
        raise AssertionError("no instance attains the bandit dimension")  # unreachable

    def next_instance(self) -> int | None:
        if self.committed is None and bldim(self.space) > 0:
            self._pending = self._forcing_instance()
        else:
            if self.committed is None:
                self.committed = next(self.space.members())
            self._pending = len(self.rounds) % self.fc.n
        return self._pending

    def respond(self, prediction: int) -> RoundReply:
        x = self._pending
        self.rounds.append((x, prediction))
        if self.committed is None:
            self.space = self.space.restrict_ne(x, prediction)
            self.bldim_trace.append(bldim(self.space))
            return RoundReply(False, None)
        truth = self.fc.table[self.committed][x]
        return RoundReply(prediction == truth, frozenset((truth,)))

    def sequence(self) -> LabeledSequence:
        if self.committed is None and not self.space.is_empty:
            self.committed = next(self.space.members())
        row = self.fc.table[self.committed]
        return tuple(
            MultiLabelExample(x, frozenset((row[x],))) for x, _ in self.rounds
        )


# ---------------------------------------------------------------------------
# stochastic sequence samplers
# ---------------------------------------------------------------------------


def _sampler_sizes(fc: FiniteClass, T: object, label_set_size: object) -> tuple[int, int]:
    """A sampler's T and label_set_size as ints; ValueError, naming the
    field, for a negative T, a size outside [1, k], or any non-integer."""
    T = hypotheses._nonnegative_field(T, "T")
    size = hypotheses._int_field(label_set_size, "label_set_size")
    if not 1 <= size <= fc.k:
        raise ValueError(f"label_set_size must be in [1, {fc.k}], got {size}")
    return T, size


def _one_example_per_round(rounds: list[tuple[int, tuple | frozenset]]) -> LabeledSequence:
    """The run of (x, allowed labels) rounds, each distinct round one example
    object (examples are frozen); equal rounds must have equal keys."""
    examples = {r: MultiLabelExample(r[0], frozenset(r[1])) for r in set(rounds)}
    return tuple(map(examples.__getitem__, rounds))


def sample_realizable_sequence(
    fc: FiniteClass, T: int, rng, label_set_size: int = 1
) -> tuple[LabeledSequence, int]:
    """A length-T sequence realized by a uniformly drawn hypothesis.

    Each round's allowed set is the hypothesis's label plus label_set_size - 1
    distinct decoys.  Returns (sequence, realizing row index).  Draw layout:
    the row, then the T instances in one draw, then, when label_set_size > 1,
    one `choice` of decoys per round in round order.  Each distinct round is
    one example object, built once per call.
    """
    T, label_set_size = _sampler_sizes(fc, T, label_set_size)
    h = int(rng.integers(fc.size))
    row = fc.table[h]
    xs = rng.integers(fc.n, size=T).tolist()
    labels = []
    for x in xs:
        truth = row[x]
        if label_set_size == 1:
            labels.append((truth,))
            continue
        others = [y for y in range(fc.k) if y != truth]
        decoys = rng.choice(len(others), size=label_set_size - 1, replace=False).tolist()
        labels.append(frozenset([truth, *(others[i] for i in decoys)]))
    return _one_example_per_round(list(zip(xs, labels))), h


def sample_noise_sequence(fc: FiniteClass, T: int, rng, label_set_size: int = 1) -> LabeledSequence:
    """Uniform instances with uniform label sets; generally not realizable.

    Draw layout: the T instances in one draw, then the T label sets, each
    `rng.choice(k, label_set_size, replace=False)` in round order.  A
    single-label choice is one bounded draw, the one `rng.integers(k)` makes,
    so at label_set_size 1 the T sets are one `rng.integers(k, size=T)` on
    the same stream.  Each distinct round is one example object, built once
    per call.
    """
    T, label_set_size = _sampler_sizes(fc, T, label_set_size)
    xs = rng.integers(fc.n, size=T).tolist()
    if label_set_size == 1:
        labels = zip(rng.integers(fc.k, size=T).tolist())  # one-label tuples
    else:
        labels = [frozenset(rng.choice(fc.k, size=label_set_size, replace=False).tolist()) for _ in xs]
    return _one_example_per_round(list(zip(xs, labels)))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

ADVERSARY_NAMES = (
    "guessing",
    "permutation:<delta>",
    "minimax",
    "random-realizable:<setsize>",
    "noise:<setsize>",
)
_ADVERSARY_FORMS = {form.partition(":")[0]: form for form in ADVERSARY_NAMES}


def make_adversary(name: str, fc: FiniteClass, T: int, rng):
    """Fresh adversary by CLI name.  One whose form has a count takes it as
    a plain decimal after the colon, or 1 when the colon is left out; any
    other takes no colon."""
    base, sep, arg = name.partition(":")
    form = _ADVERSARY_FORMS.get(base)
    if form is None:
        raise ValueError(f"unknown adversary {name!r}; known: {', '.join(ADVERSARY_NAMES)}")
    if sep and form == base:
        raise ValueError(f"adversary {base!r} takes no argument, got {name!r}")
    if sep and not is_decimal(arg):
        raise ValueError(f"adversary {base!r} takes the form {form}, got {name!r}")
    count = int(arg) if sep else 1
    if base == "guessing":
        return SequenceAdversary(guessing_sequence(fc, T, rng), claims_realizable=True)
    if base == "permutation":
        return PermutationAdversary(fc, count, rng)
    if base == "minimax":
        return MinimaxBanditAdversary(fc)
    if base == "random-realizable":
        seq, _ = sample_realizable_sequence(fc, T, rng, count)
        return SequenceAdversary(seq, claims_realizable=True)
    return SequenceAdversary(sample_noise_sequence(fc, T, rng, count), claims_realizable=False)
