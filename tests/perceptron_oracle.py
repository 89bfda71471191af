"""The multiclass Perceptron one point at a time: the reference the batched
`linear.perceptron_mistakes` is checked against."""

import numpy as np


def multiclass_perceptron(stream, k: int, d: int) -> tuple[int, np.ndarray]:
    """Online run over (point, label) pairs: argmax prediction, additive
    correction of the true and predicted rows on mistakes."""
    w = np.zeros((k, d))
    mistakes = 0
    for x, y in stream:
        pred = int((w @ x).argmax())
        if pred != y:
            mistakes += 1
            w[y] += x
            w[pred] -= x
    return mistakes, w
