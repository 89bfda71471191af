"""Learning algorithms for the full-information and bandit protocols.

Learner states are value-semantic: `predict` is read-only and `update` returns
a fresh state, so independent rollouts can share a starting state.  All
learners expose

    kind          "full" or "bandit" (which feedback they consume)
    deterministic whether predict ignores its rng (a class-level trait)
    blockwise     whether, on a product class, it plays each factor's instances
                  as it would play that factor alone (a class-level trait)
    predict(x, rng) -> label
    update(x, prediction, feedback) -> next state
    mistakes      running count

The version-space learners (soa, soa-bandit, bsoa) share `_SpaceLearner`: its
space, count, `for_class` and correctness-bit update; each adds its predict,
and soa its full-information update.  The baseline predictors also count a
whole fixed run at once, with `run_mistakes(seq, rng)`.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import ClassVar

from .dimensions import ClassCollection, _ldim_mask, bldim_split, ldim
from .hypotheses import (
    FiniteClass,
    LabeledSequence,
    RealizabilityViolation,
    VersionSpace,
    _check_sequence,
    is_decimal,
)


@dataclass(frozen=True)
class FullInfoFeedback:
    """The revealed allowed-label set of the round."""

    allowed: frozenset[int]


@dataclass(frozen=True)
class BanditFeedback:
    """Only whether the played label was in the allowed set."""

    correct: bool


# ---------------------------------------------------------------------------
# version-space learners
# ---------------------------------------------------------------------------


def soa_prediction(space: VersionSpace, x: int) -> int:
    """Label whose matching restriction keeps the largest dimension (ties: smallest label)."""
    return _soa_label_mask(space.cls, space.mask, x)


def _soa_label_mask(fc: FiniteClass, mask: int, x: int) -> int:
    """The SOA label of the space `mask` at x, memoized in `fc.label_cache`."""
    key = (mask, x)
    label = fc.label_cache.get(key)
    if label is None:
        best_y, best_d = 0, -2
        for y in range(fc.k):
            d = _ldim_mask(fc, mask & fc.eq_mask(x, y))
            if d > best_d:
                best_y, best_d = y, d
        label = fc.label_cache[key] = best_y
    return label


@dataclass(frozen=True)
class _SpaceLearner:
    """A deterministic learner that keeps one version space, starting from the
    whole class, and by default restricts it by the correctness bit: to
    h(x) = prediction when right, to h(x) != prediction when wrong.

    Blockwise: on a product A x B every restriction at an instance of A keeps
    the space a product with the same B-part, and the dimension the learner
    compares for each label there (ldim of V[x=y], or bldim of V[x!=y]) is the
    A-part's plus that of the B-part, a constant shift (an empty restriction
    stays -1, below every nonempty one).  So its predictions, ties included,
    and its mistakes on A's instances are those of the learner on A alone.
    """

    deterministic: ClassVar[bool] = True

    space: VersionSpace
    mistakes: int = 0

    @classmethod
    def for_class(cls, fc: FiniteClass):
        return cls(fc.full_space())

    def update(self, x: int, prediction: int, feedback: BanditFeedback):
        if feedback.correct:
            return type(self)(self.space.restrict_eq(x, prediction), self.mistakes)
        return type(self)(self.space.restrict_ne(x, prediction), self.mistakes + 1)


@dataclass(frozen=True)
class SOALearner(_SpaceLearner):
    """Standard optimal version-space learner for full-information rounds.

    Predicts the dimension-maximizing label and keeps only hypotheses agreeing
    with the revealed label set.  On single-label realizable runs it makes at
    most ldim(H) mistakes.
    """

    kind: ClassVar[str] = "full"
    blockwise: ClassVar[bool] = True

    def predict(self, x: int, rng=None) -> int:
        if self.space.is_empty:
            raise RealizabilityViolation("version space emptied: run was not realizable")
        return soa_prediction(self.space, x)

    def update(self, x: int, prediction: int, feedback: FullInfoFeedback) -> "SOALearner":
        mistake = prediction not in feedback.allowed
        nxt = self.space.restrict_in(x, feedback.allowed)
        return SOALearner(nxt, self.mistakes + mistake)


@dataclass(frozen=True)
class SOABanditLearner(_SpaceLearner):
    """SOA heuristic fed only correctness bits.

    Equality-restricts on correct rounds (exact when label sets are
    singletons) and inequality-restricts on wrong ones.  No mistake guarantee;
    it is a zoo member for lower-bound probes.
    """

    kind: ClassVar[str] = "bandit"
    blockwise: ClassVar[bool] = True

    def predict(self, x: int, rng=None) -> int:
        return soa_prediction(self.space, x)


@dataclass(frozen=True)
class BanditOptimalLearner(_SpaceLearner):
    """Bandit version-space learner that predicts the label whose avoidance
    restriction has the smallest bandit dimension (ties: smallest label).

    Every x has a label whose avoidance drops bldim, so each wrong answer
    shrinks bldim by at least one: single-label realizable runs cost at most
    bldim(H) mistakes.
    """

    kind: ClassVar[str] = "bandit"
    blockwise: ClassVar[bool] = True

    def predict(self, x: int, rng=None) -> int:
        if self.space.is_empty:
            raise RealizabilityViolation("version space emptied: run was not realizable")
        dims = bldim_split(self.space, x)
        return dims.index(min(dims))


# ---------------------------------------------------------------------------
# capacity-collection bandit learner
# ---------------------------------------------------------------------------


def _member_dims(collection: ClassCollection, x: int):
    """Each member V in order as (V, ldim(V), [ldim(V[x=y]) for every label y]),
    with -1 for an empty restriction: the one split both the drops and the
    update read."""
    if not collection:
        return
    fc = collection[0].cls
    eqs = fc.eq_masks(x)
    cache = fc.ldim_cache  # looked up here first: most restrictions are memo hits
    for v in collection:
        mask = v.mask
        if not mask:
            raise ValueError("collections must hold nonempty spaces")
        dv = cache.get(mask)
        if dv is None:
            dv = _ldim_mask(fc, mask)
        dims = []
        for eq in eqs:
            sub = mask & eq
            if not sub:
                dims.append(-1)
            elif (d := cache.get(sub)) is not None:
                dims.append(d)
            else:
                dims.append(_ldim_mask(fc, sub))
        yield v, dv, dims


def capacity_drops(collection: ClassCollection, x: int) -> list[int]:
    """Every label's exact wrong-answer capacity drop at x, over a nonempty collection.

    A member V's restriction dimensions d_y = ldim(V[x=y]) do not depend on
    the predicted label y0, and V is split at y0 exactly when no label other
    than y0 keeps d_y = ldim(V).  At most one label can keep it: two would
    root a tree one level deeper than ldim(V).  So V counts only for that
    label when one keeps its dimension, and for every label when none does;
    where it counts, it adds
    k^(2 ldim V) - sum over y != y0 with V[x=y] nonempty of k^(2 d_y).
    """
    k = collection[0].cls.k
    drops = [0] * k
    for _, dv, dims in _member_dims(collection, x):
        keepers = []  # the label whose restriction keeps ldim(V), if any
        weights = []  # k^(2 d_y) by label, 0 for an empty restriction
        for y, d in enumerate(dims):
            if d == dv:
                keepers.append(y)
            weights.append(k ** (2 * d) if d >= 0 else 0)
        rest = k ** (2 * dv) - sum(weights)  # plus the y0 term, which is not removed
        for y in keepers or range(k):
            drops[y] += rest + weights[y]
    return drops


@dataclass(frozen=True)
class CapacityLearner:
    """Deterministic realizable-case bandit learner driven by the capacity potential.

    Keeps a collection of version spaces; predicts the label whose
    wrong-answer capacity drop is largest (ties: smallest label) and applies
    that drop when told wrong.  Every hypothesis consistent with the feedback
    so far stays inside some member, so on realizable runs the capacity never
    reaches zero and the total mistakes stay below 4*k*ln(k)*ldim(H).

    `predict` reads all k drops from one pass over the collection
    (`capacity_drops`): a member's restriction dimensions at x are computed
    once; if one label's restriction keeps the member's dimension, the member
    counts only for that label, and otherwise for every label.  `update`
    reads the same split: a member stays when a label other than the wrong
    one keeps its dimension, and is otherwise replaced, in label order, by
    its nonempty restrictions to the other labels.

    Blockwise: on a product A x B its members stay the products V_A x V_B of
    an A collection and a B collection, since an update at an instance of A
    keeps each member's B-part.  There every label's drop is the A
    collection's drop times the sum of k^(2 ldim V_B) over the B-parts, a
    positive common multiple, so its predictions, ties included, and its
    mistakes on A's instances are those of the learner on A alone.
    """

    kind: ClassVar[str] = "bandit"
    deterministic: ClassVar[bool] = True
    blockwise: ClassVar[bool] = True

    collection: ClassCollection
    k: int
    mistakes: int = 0

    @classmethod
    def for_class(cls, fc: FiniteClass) -> "CapacityLearner":
        return cls((fc.full_space(),), fc.k)

    def predict(self, x: int, rng=None) -> int:
        if not self.collection:
            raise RealizabilityViolation("capacity exhausted: run was not realizable")
        drops = capacity_drops(self.collection, x)
        return drops.index(max(drops))

    def update(self, x: int, prediction: int, feedback: BanditFeedback) -> "CapacityLearner":
        if feedback.correct:
            return self
        off = [y for y in range(self.k) if y != prediction]
        updated = []
        for v, dv, dims in _member_dims(self.collection, x):
            if any(dims[y] == dv for y in off):
                updated.append(v)
            else:
                eqs = v.cls.eq_masks(x)
                updated.extend(VersionSpace(v.cls, v.mask & eqs[y]) for y in off if dims[y] >= 0)
        if not updated:
            raise RealizabilityViolation("capacity reached 0: run was not realizable")
        return CapacityLearner(tuple(updated), self.k, self.mistakes + 1)


# ---------------------------------------------------------------------------
# baseline predictors
# ---------------------------------------------------------------------------
#
# Besides the round-by-round protocol, which `play` runs and which stays the
# reference, every baseline has `run_mistakes(seq, rng)`: the mistake count
# after playing a whole fixed run from its state, computed without the loop.


@dataclass(frozen=True)
class ConstantLearner:
    """Predicts one label every round.  Blockwise: what it plays never depends
    on what it has seen."""

    kind: ClassVar[str] = "bandit"
    deterministic: ClassVar[bool] = True
    blockwise: ClassVar[bool] = True

    k: int
    label: int = 0
    mistakes: int = 0

    def predict(self, x: int, rng=None) -> int:
        return self.label

    def update(self, x, prediction, feedback) -> "ConstantLearner":
        return ConstantLearner(self.k, self.label, self.mistakes + (not feedback.correct))

    def run_mistakes(self, seq: LabeledSequence, rng=None) -> int:
        """The mistake count after playing seq from this state: every round
        whose allowed set misses the label."""
        return self.mistakes + sum(self.label not in ex.allowed for ex in seq)


@dataclass(frozen=True)
class CyclingLearner:
    """Predicts t mod k at its t-th round.  Not blockwise: its round counter
    runs across blocks, so a block starts where the rounds before it left the
    cycle."""

    kind: ClassVar[str] = "bandit"
    deterministic: ClassVar[bool] = True
    blockwise: ClassVar[bool] = False

    k: int
    t: int = 0
    mistakes: int = 0

    def predict(self, x: int, rng=None) -> int:
        return self.t % self.k

    def update(self, x, prediction, feedback) -> "CyclingLearner":
        return CyclingLearner(self.k, self.t + 1, self.mistakes + (not feedback.correct))

    def run_mistakes(self, seq: LabeledSequence, rng=None) -> int:
        """The mistake count after playing seq from this state: round i
        predicts (t + i) mod k."""
        k = self.k
        return self.mistakes + sum((t % k) not in ex.allowed for t, ex in enumerate(seq, self.t))


@dataclass(frozen=True)
class RandomLearner:
    """Predicts a uniformly random label, ignoring all feedback.  Not
    blockwise: one generator draws the whole run, so a block's draws depend
    on the rounds before it."""

    kind: ClassVar[str] = "bandit"
    deterministic: ClassVar[bool] = False
    blockwise: ClassVar[bool] = False

    k: int
    mistakes: int = 0

    def predict(self, x: int, rng=None) -> int:
        return int(rng.integers(self.k))

    def update(self, x, prediction, feedback) -> "RandomLearner":
        return RandomLearner(self.k, self.mistakes + (not feedback.correct))

    def run_mistakes(self, seq: LabeledSequence, rng) -> int:
        """The mistake count after playing seq from this state: the run's
        predictions drawn as one `rng.integers(k, size=len(seq))`, which gives
        the values `predict` draws one round at a time."""
        picks = rng.integers(self.k, size=len(seq)).tolist()
        return self.mistakes + sum(y not in ex.allowed for y, ex in zip(picks, seq))


# ---------------------------------------------------------------------------
# deviation experts and the exponential-weights bandit aggregator
# ---------------------------------------------------------------------------


def expert_count(T: int, k: int, L: int) -> int:
    """Exact number of deviation experts over a horizon of T >= 1 rounds:
    sum_{j<=L} C(T,j) * k^j (0 for L < 0)."""
    if T < 1:
        raise ValueError(f"horizon T must be >= 1, got T={T}")
    return _continuations(T, k, L)


def _continuations(r: int, k: int, L: int) -> int:
    """expert_count over r >= 0 rounds: 1 continuation when none are left."""
    return sum(math.comb(r, j) * k**j for j in range(L + 1))


@functools.cache
def _shares_table(T: int, k: int, L: int) -> tuple[tuple[int, ...], ...]:
    """Experts per past at each round t < T, by deviations used j = 0..L+1:
    the past's continuations over the T - t - 1 rounds after t.  Built once
    per (T, k, L) and shared by every Exp4 game with those sizes."""
    return tuple(tuple(_continuations(T - t - 1, k, L - j) for j in range(L + 2)) for t in range(T))


def exp4_gamma(T: int, k: int, L: int) -> float:
    """Exp4's exploration rate over the expert_count(T, k, L) deviation experts."""
    count = expert_count(T, k, L)
    return min(1.0, math.sqrt(k * math.log(count) / ((math.e - 1) * T)))


@dataclass(frozen=True)
class Expert:
    """Deviation-augmented replay of the full-info learner.

    Follows the dimension-maximizing prediction except on `rounds`, where the
    corresponding forced label is played; the simulated version space restricts
    by the advised label in both branches.  Advice depends only on the
    instance stream, never on feedback.
    """

    rounds: tuple[int, ...]  # strictly increasing round indices
    labels: tuple[int, ...]  # forced label per deviation round

    def advice_sequence(self, fc: FiniteClass, xs) -> list[int]:
        forced = dict(zip(self.rounds, self.labels))
        mask = fc.full_mask
        out = []
        for t, x in enumerate(xs):
            y = forced.get(t)
            if y is None:
                y = _soa_label_mask(fc, mask, x)
            out.append(y)
            mask &= fc.eq_mask(x, y)
        return out


# An expert's advice at a round depends only on its simulated version space and
# on whether it deviates there, so experts that share a past -- a state
# (mask, deviations used j) -- differ only in their future deviation plans.
# The dynamic programs below therefore keep one number per state instead of
# one per expert.


def _moves(fc: FiniteClass, L: int, mask: int, j: int, x: int) -> tuple:
    """(advised label, next state) for every way a state's experts play x:
    the SOA label first, then each forced label while deviations remain.
    Memoized in `fc.move_cache` by (mask, j, x), L being the class's ldim."""
    key = (mask, j, x)
    moves = fc.move_cache.get(key)
    if moves is None:
        eqs = fc.eq_masks(x)
        soa = _soa_label_mask(fc, mask, x)
        forced = [(y, (mask & eq, j + 1)) for y, eq in enumerate(eqs)] if j < L else []
        moves = fc.move_cache[key] = ((soa, (mask & eqs[soa], j)), *forced)
    return moves


def best_expert_loss(fc: FiniteClass, seq) -> int:
    """Fewest misses of any deviation expert on seq: the fewest misses of any
    past leading to each state, extended round by round."""
    _check_sequence(fc, seq)
    L = ldim(fc.full_space())
    best = {(fc.full_mask, 0): 0}
    for ex in seq:
        nxt: dict[tuple[int, int], int] = {}
        for (mask, j), loss in best.items():
            for y, state in _moves(fc, L, mask, j, ex.x):
                cost = loss + (y not in ex.allowed)
                if cost < nxt.get(state, cost + 1):
                    nxt[state] = cost
        best = nxt
    return min(best.values())


@dataclass(frozen=True, eq=False)
class Exp4Learner:
    """Exponential-weights bandit learner over every deviation expert, exact.

    `weights[(mask, j)]` is the summed weight of the pasts that reach that
    state; each past stands for the M(r, L-j) = sum_{i<=L-j} C(r,i) * k^i
    experts that share it, r being the rounds left.  Weights are rescaled so
    that the experts' total weight is 1.  Not blockwise: its play is random,
    and its weights and exploration rate span the whole class and horizon.

    `for_class` takes every round's shares from one table built once per
    (T, k, L), which every game with those sizes shares.  A state computes
    its play distribution at each x once, so `update` reuses the
    distribution `predict` drew from.  A round's arithmetic is done in
    Python floats, every sum taken left to right: on k-label vectors numpy's
    per-call cost outweighs its work.
    """

    kind: ClassVar[str] = "bandit"
    deterministic: ClassVar[bool] = False
    blockwise: ClassVar[bool] = False

    fc: FiniteClass
    T: int
    L: int
    gamma: float
    weights: dict[tuple[int, int], float]
    shares_by_round: tuple[tuple[int, ...], ...] = field(repr=False)
    t: int = 0
    mistakes: int = 0
    _distributions: dict[int, tuple[float, ...]] = field(default_factory=dict, init=False, repr=False)

    @classmethod
    def for_class(cls, fc: FiniteClass, T: int) -> "Exp4Learner":
        L = ldim(fc.full_space())
        weights = {(fc.full_mask, 0): 1.0 / expert_count(T, fc.k, L)}
        return cls(fc, T, L, exp4_gamma(T, fc.k, L), weights, _shares_table(T, fc.k, L))

    @property
    def _shares(self) -> tuple[int, ...]:
        """Experts per past with j deviations used, by j (0 past L): each
        past's continuations over the rounds after this one."""
        if self.t >= self.T:
            raise ValueError(f"exp4 was set up for {self.T} rounds")
        return self.shares_by_round[self.t]

    def advice_weights(self, x: int) -> list[float]:
        """Total weight of the experts advising each label on x this round:
        a past's followers advise its SOA label, its deviators every label."""
        shares = self._shares
        by_label = [0.0] * self.fc.k
        deviating = 0.0
        for (mask, j), w in self.weights.items():
            by_label[_soa_label_mask(self.fc, mask, x)] += w * shares[j]
            deviating += w * shares[j + 1]
        return [b + deviating for b in by_label]

    def distribution(self, x: int) -> tuple[float, ...]:
        """Play distribution: weight-averaged advice mixed with gamma of uniform.
        Both normalizers are summed left to right from -0.0, which is numpy's
        order for fewer than 8 terms.  Every call at x returns the same tuple."""
        p = self._distributions.get(x)
        if p is None:
            by_label = self.advice_weights(x)
            scale, floor = 1.0 - self.gamma, self.gamma / self.fc.k
            total = -0.0
            for b in by_label:
                total += b
            mixed = [scale * b / total + floor for b in by_label]
            total = -0.0
            for m in mixed:
                total += m
            p = self._distributions[x] = tuple(m / total for m in mixed)
        return p

    def predict(self, x: int, rng) -> int:
        """A draw from `distribution(x)`, made as `rng.choice(k, p=...)` makes
        it (one `rng.random()` searched in the cdf summed left to right and
        normalized by its last entry), so label and generator state match
        that call's, without its checks on p."""
        cdf = list(itertools.accumulate(self.distribution(x)))
        last = cdf[-1]
        return bisect.bisect_right([c / last for c in cdf], rng.random())

    def update(self, x: int, prediction: int, feedback: BanditFeedback) -> "Exp4Learner":
        """Importance-weighted exponential update of the experts that advised
        the played label, when it was correct."""
        k = self.fc.k
        boost = 1.0
        if feedback.correct and self.gamma > 0.0:
            boost = math.exp(self.gamma / (k * self.distribution(x)[prediction]))
        weights: dict[tuple[int, int], float] = {}
        for (mask, j), w in self.weights.items():
            for y, state in _moves(self.fc, self.L, mask, j, x):
                weights[state] = weights.get(state, 0.0) + (w * boost if y == prediction else w)
        shares = self._shares
        total = 0.0  # summed left to right, as `sum` does before Python 3.12
        for (_, j), w in weights.items():
            total += w * shares[j]
        weights = {state: w / total for state, w in weights.items()}
        return Exp4Learner(
            self.fc, self.T, self.L, self.gamma, weights, self.shares_by_round,
            self.t + 1, self.mistakes + (not feedback.correct),
        )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

LEARNERS = {
    "soa": SOALearner,
    "capacity": CapacityLearner,
    "soa-bandit": SOABanditLearner,
    "bsoa": BanditOptimalLearner,
    "exp4": Exp4Learner,
    "constant": ConstantLearner,
    "cycling": CyclingLearner,
    "random": RandomLearner,
}
LEARNER_NAMES = tuple(LEARNERS)


def learner_class(name: str) -> type:
    """The class a CLI learner name builds, for reading its traits."""
    try:
        return LEARNERS[name.partition(":")[0]]
    except KeyError:
        raise ValueError(f"unknown learner {name!r}; known: {', '.join(LEARNER_NAMES)}") from None


def make_learner(name: str, fc: FiniteClass, T: int):
    """Fresh learner instance by CLI name (constant takes an optional :label,
    in decimal digits)."""
    cls = learner_class(name)
    base, sep, arg = name.partition(":")
    if sep and cls is not ConstantLearner:
        raise ValueError(f"learner {base!r} takes no argument, got {name!r}")
    if sep and not is_decimal(arg):
        raise ValueError(f"learner {base!r} takes the form {base}:<label>, got {name!r}")
    if cls is Exp4Learner:
        return Exp4Learner.for_class(fc, T)
    if cls is ConstantLearner:
        label = int(arg) if sep else 0
        fc.check_label(label)
        return ConstantLearner(fc.k, label)
    if cls in (CyclingLearner, RandomLearner):
        return cls(fc.k)
    return cls.for_class(fc)
