"""Brute-force Exp4 over the enumerated deviation experts.

Every expert (at most ldim(H) deviation rounds, each with a forced label) is
replayed on its own with `Expert.advice_sequence`, and exponential weights run
per expert in numpy.  This is the slow route the learners' dynamic program is
checked against; keep it to small horizons.  `imitating_expert` names the
expert that replays a given labeling.  `uncached_soa_label` and
`uncached_moves` compute a state's SOA label and moves without the class's
caches: the oracles for `label_cache` and `move_cache`.
`numpy_advice_weights` and `numpy_distribution` compute a learner state's
advice and play distribution in numpy arrays, the oracles for the learner's
float arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from banditlab import Expert, ldim, soa_prediction
from banditlab.dimensions import _ldim_mask


def enumerate_experts(fc, T: int) -> list[Expert]:
    L = ldim(fc.full_space())
    return [
        Expert(rounds, labels)
        for j in range(L + 1)
        for rounds in combinations(range(T), j)
        for labels in product(range(fc.k), repeat=j)
    ]


def uncached_soa_label(fc, mask: int, x: int) -> int:
    """The SOA label loop without the class's label cache."""
    best_y, best_d = 0, -2
    for y in range(fc.k):
        d = _ldim_mask(fc, mask & fc.eq_mask(x, y))
        if d > best_d:
            best_y, best_d = y, d
    return best_y


def uncached_moves(fc, L: int, mask: int, j: int, x: int):
    """(advised label, next state) for every way a state's experts play x:
    the SOA label first, then each forced label while deviations remain."""
    soa = uncached_soa_label(fc, mask, x)
    yield soa, (mask & fc.eq_mask(x, soa), j)
    if j < L:
        for y in range(fc.k):
            yield y, (mask & fc.eq_mask(x, y), j + 1)


def numpy_advice_weights(learner, x: int) -> np.ndarray:
    """An Exp4 state's advice weight per label on x: each state's followers
    added into a zeroed array, then the deviators' total added to every label."""
    shares = learner._shares
    by_label = np.zeros(learner.fc.k)
    deviating = 0.0
    for (mask, j), w in learner.weights.items():
        by_label[uncached_soa_label(learner.fc, mask, x)] += w * shares[j]
        deviating += w * shares[j + 1]
    return by_label + deviating


def numpy_distribution(learner, x: int, total=np.sum) -> np.ndarray:
    """An Exp4 state's play distribution on x, both normalizers taken by
    `total`: numpy's own sum (pairwise from 8 terms on) by default."""
    by_label = numpy_advice_weights(learner, x)
    p = (1.0 - learner.gamma) * by_label / total(by_label) + learner.gamma / learner.fc.k
    return p / total(p)


def ordered_sum(a: np.ndarray) -> float:
    """The sum of a taken left to right: the last entry of its cumsum, which
    numpy takes in order at every length."""
    return np.cumsum(a)[-1]


def imitating_expert(fc, xs, labels) -> Expert:
    """The expert that replays a target labeling: deviations at the rounds where
    the plain dimension-maximizing learner would have erred against it."""
    space = fc.full_space()
    rounds, forced = [], []
    for t, (x, y) in enumerate(zip(xs, labels)):
        if soa_prediction(space, x) != y:
            rounds.append(t)
            forced.append(y)
        space = space.restrict_eq(x, y)
    return Expert(tuple(rounds), tuple(forced))


@dataclass
class OracleGame:
    experts: int
    gamma: float
    distributions: list[np.ndarray]  # play distribution per round
    plays: list[int]
    mistakes: int
    best_expert_loss: int


def play_oracle(fc, seq, T: int, rng) -> OracleGame:
    """Exp4 with the exploration rate min(1, sqrt(k ln N / ((e-1) T))) over the
    N enumerated experts, played against seq with rng."""
    k = fc.k
    experts = enumerate_experts(fc, T)
    xs = [ex.x for ex in seq]
    advice = np.array([e.advice_sequence(fc, xs) for e in experts], dtype=np.int64).reshape(
        len(experts), len(xs)
    )
    gamma = min(1.0, math.sqrt(k * math.log(len(experts)) / ((math.e - 1) * T)))
    weights = np.full(len(experts), 1.0 / len(experts))
    losses = np.zeros(len(experts), dtype=np.int64)
    distributions, plays = [], []
    for t, ex in enumerate(seq):
        adv = advice[:, t]
        by_label = np.bincount(adv, weights=weights, minlength=k)
        p = (1.0 - gamma) * by_label / weights.sum() + gamma / k
        p = p / p.sum()
        played = int(rng.choice(k, p=p))
        if played in ex.allowed and gamma > 0.0:
            weights[adv == played] *= math.exp(gamma / (k * p[played]))
        weights /= weights.sum()
        losses += ~np.isin(adv, list(ex.allowed))
        distributions.append(p)
        plays.append(played)
    mistakes = sum(y not in ex.allowed for y, ex in zip(plays, seq))
    return OracleGame(len(experts), gamma, distributions, plays, mistakes, int(losses.min()))
