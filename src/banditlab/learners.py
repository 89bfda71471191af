"""Learning algorithms for the full-information and bandit protocols.

Learner states are value-semantic: `predict` is read-only and `update` returns
a fresh state, so independent rollouts can share a starting state.  All
learners expose

    kind          "full" or "bandit" (which feedback they consume)
    deterministic whether predict ignores its rng (a class-level trait)
    predict(x, rng) -> label
    update(x, prediction, feedback) -> next state
    mistakes      running count

The baseline predictors also count a whole fixed run at once, with
`run_mistakes(seq, rng)`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .dimensions import ClassCollection, _ldim_mask, bldim, ldim
from .hypotheses import (
    FiniteClass,
    LabeledSequence,
    RealizabilityViolation,
    VersionSpace,
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
# full-information version-space learner
# ---------------------------------------------------------------------------


def soa_prediction(space: VersionSpace, x: int) -> int:
    """Label whose matching restriction keeps the largest dimension (ties: smallest label)."""
    return _soa_label_mask(space.cls, space.mask, x)


def _soa_label_mask(fc: FiniteClass, mask: int, x: int) -> int:
    best_y, best_d = 0, -2
    for y in range(fc.k):
        d = _ldim_mask(fc, mask & fc.eq_mask(x, y))
        if d > best_d:
            best_y, best_d = y, d
    return best_y


@dataclass(frozen=True)
class SOALearner:
    """Standard optimal version-space learner for full-information rounds.

    Predicts the dimension-maximizing label and keeps only hypotheses agreeing
    with the revealed label set.  On single-label realizable runs it makes at
    most ldim(H) mistakes.
    """

    kind: ClassVar[str] = "full"
    deterministic: ClassVar[bool] = True

    space: VersionSpace
    mistakes: int = 0

    @classmethod
    def for_class(cls, fc: FiniteClass) -> "SOALearner":
        return cls(fc.full_space())

    def predict(self, x: int, rng=None) -> int:
        if self.space.is_empty:
            raise RealizabilityViolation("version space emptied: run was not realizable")
        return soa_prediction(self.space, x)

    def update(self, x: int, prediction: int, feedback: FullInfoFeedback) -> "SOALearner":
        mistake = prediction not in feedback.allowed
        nxt = self.space.restrict_in(x, feedback.allowed)
        return SOALearner(nxt, self.mistakes + mistake)


@dataclass(frozen=True)
class SOABanditLearner:
    """SOA heuristic fed only correctness bits.

    Equality-restricts on correct rounds (exact when label sets are
    singletons) and inequality-restricts on wrong ones.  No mistake guarantee;
    it is a zoo member for lower-bound probes.
    """

    kind: ClassVar[str] = "bandit"
    deterministic: ClassVar[bool] = True

    space: VersionSpace
    mistakes: int = 0

    @classmethod
    def for_class(cls, fc: FiniteClass) -> "SOABanditLearner":
        return cls(fc.full_space())

    def predict(self, x: int, rng=None) -> int:
        return soa_prediction(self.space, x)

    def update(self, x: int, prediction: int, feedback: BanditFeedback) -> "SOABanditLearner":
        if feedback.correct:
            return SOABanditLearner(self.space.restrict_eq(x, prediction), self.mistakes)
        return SOABanditLearner(self.space.restrict_ne(x, prediction), self.mistakes + 1)


@dataclass(frozen=True)
class BanditOptimalLearner:
    """Bandit version-space learner that predicts the label whose avoidance
    restriction has the smallest bandit dimension.

    Every x has a label whose avoidance drops bldim, so each wrong answer
    shrinks bldim by at least one: single-label realizable runs cost at most
    bldim(H) mistakes.
    """

    kind: ClassVar[str] = "bandit"
    deterministic: ClassVar[bool] = True

    space: VersionSpace
    mistakes: int = 0

    @classmethod
    def for_class(cls, fc: FiniteClass) -> "BanditOptimalLearner":
        return cls(fc.full_space())

    def predict(self, x: int, rng=None) -> int:
        if self.space.is_empty:
            raise RealizabilityViolation("version space emptied: run was not realizable")
        best_y, best_d = 0, None
        for y in range(self.space.cls.k):
            d = bldim(self.space.restrict_ne(x, y))
            if best_d is None or d < best_d:
                best_y, best_d = y, d
        return best_y

    def update(self, x: int, prediction: int, feedback: BanditFeedback) -> "BanditOptimalLearner":
        if feedback.correct:
            return BanditOptimalLearner(self.space.restrict_eq(x, prediction), self.mistakes)
        return BanditOptimalLearner(self.space.restrict_ne(x, prediction), self.mistakes + 1)


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
    """

    kind: ClassVar[str] = "bandit"
    deterministic: ClassVar[bool] = True

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
    kind: ClassVar[str] = "bandit"
    deterministic: ClassVar[bool] = True

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
    kind: ClassVar[str] = "bandit"
    deterministic: ClassVar[bool] = True

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
    """Predicts a uniformly random label, ignoring all feedback."""

    kind: ClassVar[str] = "bandit"
    deterministic: ClassVar[bool] = False

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


def _moves(fc: FiniteClass, L: int, mask: int, j: int, x: int):
    """(advised label, next state) for every way a state's experts play x:
    the SOA label first, then each forced label while deviations remain."""
    soa = _soa_label_mask(fc, mask, x)
    yield soa, (mask & fc.eq_mask(x, soa), j)
    if j < L:
        for y in range(fc.k):
            yield y, (mask & fc.eq_mask(x, y), j + 1)


def best_expert_loss(fc: FiniteClass, seq) -> int:
    """Fewest misses of any deviation expert on seq: the fewest misses of any
    past leading to each state, extended round by round."""
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
    that the experts' total weight is 1.
    """

    kind: ClassVar[str] = "bandit"
    deterministic: ClassVar[bool] = False

    fc: FiniteClass
    T: int
    L: int
    gamma: float
    weights: dict[tuple[int, int], float]
    t: int = 0
    mistakes: int = 0

    @classmethod
    def for_class(cls, fc: FiniteClass, T: int) -> "Exp4Learner":
        L = ldim(fc.full_space())
        weights = {(fc.full_mask, 0): 1.0 / expert_count(T, fc.k, L)}
        return cls(fc, T, L, exp4_gamma(T, fc.k, L), weights)

    def _shares(self) -> list[int]:
        """Experts per past with j deviations used, by j (0 past L): each
        past's continuations over the rounds after this one."""
        if self.t >= self.T:
            raise ValueError(f"exp4 was set up for {self.T} rounds")
        r = self.T - self.t - 1
        return [_continuations(r, self.fc.k, self.L - j) for j in range(self.L + 2)]

    def advice_weights(self, x: int) -> np.ndarray:
        """Total weight of the experts advising each label on x this round:
        a past's followers advise its SOA label, its deviators every label."""
        shares = self._shares()
        by_label = np.zeros(self.fc.k)
        deviating = 0.0
        for (mask, j), w in self.weights.items():
            by_label[_soa_label_mask(self.fc, mask, x)] += w * shares[j]
            deviating += w * shares[j + 1]
        return by_label + deviating

    def distribution(self, x: int) -> np.ndarray:
        """Play distribution: weight-averaged advice mixed with gamma of uniform."""
        by_label = self.advice_weights(x)
        p = (1.0 - self.gamma) * by_label / by_label.sum() + self.gamma / self.fc.k
        return p / p.sum()

    def predict(self, x: int, rng) -> int:
        return int(rng.choice(self.fc.k, p=self.distribution(x)))

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
        shares = self._shares()
        total = sum(w * shares[j] for (_, j), w in weights.items())
        weights = {state: w / total for state, w in weights.items()}
        return replace(
            self, weights=weights, t=self.t + 1, mistakes=self.mistakes + (not feedback.correct)
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
