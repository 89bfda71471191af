"""Shared class corpus for the test suite."""

from __future__ import annotations

import numpy as np

from banditlab import FiniteClass, VersionSpace, full_class

ENUMERATED_SHAPES = ((1, 2), (1, 3), (2, 2))


def random_class(rng: np.random.Generator, max_n: int = 3, max_k: int = 3, name: str | None = None) -> FiniteClass:
    """A uniformly drawn table with random shape (duplicates collapse at load)."""
    n = int(rng.integers(1, max_n + 1))
    k = int(rng.integers(2, max_k + 1))
    size = int(rng.integers(1, k**n + 1))
    rows = rng.integers(0, k, size=(size, n))
    return FiniteClass(name or f"rand:{n}x{k}", n, k, rows.tolist())


def empty_space(fc: FiniteClass) -> VersionSpace:
    """The version space with no members."""
    return VersionSpace(fc, 0)


def enumerated_spaces() -> list[VersionSpace]:
    """Every nonempty subclass of the small full classes, as version spaces."""
    out = []
    for n, k in ENUMERATED_SHAPES:
        fc = full_class(n, k)
        out.extend(VersionSpace(fc, mask) for mask in range(1, fc.full_mask + 1))
    return out


def random_spaces(count: int, seed: int, max_n: int = 3, max_k: int = 3) -> list[VersionSpace]:
    rng = np.random.default_rng(seed)
    return [
        random_class(rng, max_n, max_k, name=f"rand{i}").full_space()
        for i in range(count)
    ]


def named_corpus() -> list[FiniteClass]:
    """Small named classes with ldim >= 1, for learner sweeps."""
    from banditlab import permutation_class

    return [
        full_class(1, 2),
        full_class(1, 3),
        full_class(1, 4),
        full_class(2, 2),
        full_class(2, 3),
        permutation_class(1, 3),
    ]
