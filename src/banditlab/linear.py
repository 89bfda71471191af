"""Margin multiclass linear separators: scoring, two explicit embeddings, and
the multiclass Perceptron.

A scorer is a k x d matrix W acting on unit-ball instances; a pair (x, y) is
margin-realized when row y beats every other row by at least 1.  The two
constructions below realize finite classes inside the Frobenius ball:

* standard-basis embedding: any f: [0,L) -> [0,k) becomes a 0/1 matrix with
  gap exactly 1 and squared norm L;
* roots-of-unity embedding: any per-block bijection table becomes a matrix of
  magnitude-k^2 unit-phase entries with gap k^2*(1 - cos(2*pi/k)) and squared
  norm delta*k^5.  Complex coordinates are realized explicitly in R^(2*delta),
  so real inner products equal real parts of hermitian products and instances
  stay in the unit ball.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

GAP_TOL = 1e-9


def frobenius_norm(w: np.ndarray) -> float:
    return float(np.linalg.norm(w))


def margin_gap(w: np.ndarray, x: np.ndarray, y: int) -> float:
    """Score advantage of row y over the best other row; >= 1 means margin-realized."""
    scores = w @ x
    others = np.delete(scores, y)
    return float(scores[y] - others.max())


def check_margin_realization(
    w: np.ndarray, graph: list[tuple[np.ndarray, int]]
) -> tuple[bool, float]:
    """Whether every listed (point, label) pair has gap >= 1; also the minimum gap."""
    if not graph:
        return True, math.inf
    min_gap = min(margin_gap(w, x, y) for x, y in graph)
    return min_gap >= 1.0 - GAP_TOL, min_gap


def standard_basis_embedding(
    f, k: int
) -> tuple[np.ndarray, list[tuple[np.ndarray, int]]]:
    """Realize a labeling f: [0,L) -> [0,k) on the L basis vectors of R^L.

    Row i of the matrix is the indicator sum of the points labeled i, so every
    pair has gap exactly 1 and the squared Frobenius norm is L.
    """
    f = list(f)
    L = len(f)
    for y in f:
        if not 0 <= y < k:
            raise ValueError(f"label {y} outside [0, {k})")
    w = np.zeros((k, L))
    for j, y in enumerate(f):
        w[y, j] = 1.0
    graph = [(np.eye(L)[j], f[j]) for j in range(L)]
    return w, graph


def roots_of_unity_embedding(
    table: list[list[int]]
) -> tuple[np.ndarray, list[tuple[np.ndarray, int]]]:
    """Realize a per-block bijection table f(j, m) = table[j][m] with margin.

    Point (j, m) is the m-th k-th root of unity on complex coordinate j;
    the matrix entry for its label is k^2 times the same phase.  Complex
    coordinate j maps to real coordinates (2j, 2j+1), which preserves norms
    and turns Re<u, v> into a plain dot product.  Scores are computed from the
    matrix itself rather than any closed form.
    """
    delta = len(table)
    if delta < 1:
        raise ValueError("need at least one block")
    k = len(table[0])
    for j, row in enumerate(table):
        if sorted(row) != list(range(k)):
            raise ValueError(f"block {j} is not a bijection on [0, {k})")
    d = 2 * delta
    w = np.zeros((k, d))
    graph = []
    for j in range(delta):
        for m in range(k):
            phase = 2.0 * math.pi * m / k
            re, im = math.cos(phase), math.sin(phase)
            w[table[j][m], 2 * j] = k**2 * re
            w[table[j][m], 2 * j + 1] = k**2 * im
            x = np.zeros(d)
            x[2 * j], x[2 * j + 1] = re, im
            graph.append((x, table[j][m]))
    return w, graph


def roots_of_unity_gap(k: int) -> float:
    """The construction's closed-form minimum gap k^2*(1 - cos(2*pi/k)), k >= 2."""
    if k < 2:
        raise ValueError(f"need at least two labels, got k={k}")
    return k**2 * (1.0 - math.cos(2.0 * math.pi / k))


def embedding_norm_report(delta: int, k: int) -> dict:
    """Norm bookkeeping for the bijection construction at block count delta.

    Reports the raw squared norm delta*k^5, the squared norm after scaling the
    minimum gap down to exactly 1, and the threshold k^3*d quoted for ambient
    dimension d = 2*delta, flagging when the normalized construction still
    exceeds it (it does once k grows; no attempt is made to reconcile this).
    """
    if delta < 1:
        raise ValueError(f"need at least one block, got delta={delta}")
    d = 2 * delta
    gap = roots_of_unity_gap(k)
    raw_sq = delta * k**5
    normalized_sq = raw_sq / gap**2
    threshold = k**3 * d
    return {
        "delta": delta,
        "k": k,
        "d": d,
        "min_gap": gap,
        "raw_norm_sq": float(raw_sq),
        "normalized_norm_sq": normalized_sq,
        "threshold_norm_sq": float(threshold),
        "fits_threshold": normalized_sq <= threshold,
    }


# ---------------------------------------------------------------------------
# the multiclass Perceptron
# ---------------------------------------------------------------------------


@dataclass
class PerceptronResult:
    mistakes: int
    weights: np.ndarray


def perceptron_mistakes(
    points: np.ndarray, labels: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Independent Perceptron runs side by side: points (runs, T, d) and labels
    (runs, T) give each run's mistake count and final k x d matrix.  Each round
    predicts the argmax row and, on a mistake, adds x to the true row and
    subtracts it from the predicted one.

    On a stream margin-realized by some matrix of Frobenius norm at most D,
    the mistake count is at most 2*D^2.
    """
    runs, _, d = points.shape
    w = np.zeros((runs, k, d))
    mistakes = np.zeros(runs, dtype=np.int64)
    for x, y in zip(points.transpose(1, 0, 2), labels.T):
        pred = (w @ x[:, :, None])[:, :, 0].argmax(axis=1)
        wrong = pred != y
        if wrong.any():
            r = np.flatnonzero(wrong)
            w[r, y[r]] += x[r]
            w[r, pred[r]] -= x[r]
            mistakes += wrong
    return mistakes, w


def multiclass_perceptron(stream, k: int, d: int) -> PerceptronResult:
    """One Perceptron run over (point, label) pairs."""
    stream = list(stream)
    points = np.array([x for x, _ in stream], dtype=float).reshape(1, len(stream), d)
    labels = np.array([y for _, y in stream], dtype=np.int64).reshape(1, len(stream))
    mistakes, w = perceptron_mistakes(points, labels, k)
    return PerceptronResult(int(mistakes[0]), w[0])


@dataclass(frozen=True, eq=False)
class BanditPerceptron:
    """Perceptron probe for bandit games on embedded points: wrong answers
    push the played row away, correct answers leave the matrix alone.  Used
    only to witness lower bounds; it carries no mistake guarantee."""

    weights: np.ndarray
    mistakes: int = 0

    @classmethod
    def zeros(cls, k: int, d: int) -> "BanditPerceptron":
        return cls(np.zeros((k, d)))

    def predict(self, x: np.ndarray) -> int:
        return int((self.weights @ x).argmax())

    def update(self, x: np.ndarray, prediction: int, correct: bool) -> "BanditPerceptron":
        if correct:
            return self
        w = self.weights.copy()
        w[prediction] -= x
        return BanditPerceptron(w, self.mistakes + 1)


@dataclass(frozen=True, eq=False)
class EmbeddedLearner:
    """A BanditPerceptron in a finite class's game: instance x is played as
    the embedded point points[x]."""

    kind: ClassVar[str] = "bandit"
    deterministic: ClassVar[bool] = True
    inner: BanditPerceptron
    points: dict[int, np.ndarray]

    @property
    def mistakes(self) -> int:
        return self.inner.mistakes

    def predict(self, x: int, rng) -> int:
        return self.inner.predict(self.points[x])

    def update(self, x: int, prediction: int, feedback) -> "EmbeddedLearner":
        return replace(self, inner=self.inner.update(self.points[x], prediction, feedback.correct))
