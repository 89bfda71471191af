"""Builders for the hypothesis classes used by presets and tests.

Every builder, `parse_spec` included, returns a fresh class with cold memos;
`shared_class` keeps one class per spec for the presets and for games named
by spec."""

from __future__ import annotations

import functools
from itertools import permutations, product

from .hypotheses import FiniteClass, is_decimal, product_class


def _power(block: FiniteClass, count: int, kind: str) -> FiniteClass:
    """count copies of block on consecutive instance blocks, named kind:jxk at
    every level; the copies are one object, so they share its memos."""
    out = block
    for j in range(2, count + 1):
        out = product_class(f"{kind}:{j}x{block.k}", block, out)
    return out


def full_class(n: int, k: int) -> FiniteClass:
    """Every function [0,n) -> [0,k): the k^n-row table, the product of n
    copies of full:1xk."""
    if n <= 1:
        return FiniteClass(f"full:{n}x{k}", n, k, product(range(k), repeat=n))
    return _power(full_class(1, k), n, "full")


def constants_class(n: int, k: int) -> FiniteClass:
    """The k constant functions over n instances."""
    return FiniteClass(f"const:{n}x{k}", n, k, ([c] * n for c in range(k)))


def permutation_class(delta: int, k: int) -> FiniteClass:
    """Functions on [0,delta)x[0,k) that restrict to a bijection on every block.

    Instance (j, m) is flattened to j*k + m.  The table has (k!)^delta rows, so
    keep delta and k small; it is the product of delta copies of perm:1xk.
    """
    if delta < 1:
        raise ValueError("delta must be >= 1")
    return _power(FiniteClass(f"perm:1x{k}", k, k, permutations(range(k))), delta, "perm")


def subclass(cls: FiniteClass, mask: int) -> FiniteClass:
    """The rows selected by a version-space mask, as a standalone class."""
    if not 0 < mask <= cls.full_mask:
        raise ValueError(f"mask {mask:#x} selects no rows of {cls.name!r}")
    rows = [cls.table[h] for h in range(cls.size) if mask >> h & 1]
    return FiniteClass(f"{cls.name}#{mask}", cls.n, cls.k, rows)


def parse_spec(spec: str) -> FiniteClass:
    """Resolve a builtin class spec: full:NxK, const:NxK, or perm:DxK, as a
    fresh class with cold memos (see `shared_class` for the shared one)."""
    kind, _, shape = spec.partition(":")
    parts = shape.split("x")
    if len(parts) != 2 or not all(is_decimal(part) for part in parts):
        raise ValueError(f"bad class spec {spec!r}; expected full:NxK, const:NxK, or perm:DxK")
    a, b = (int(part) for part in parts)
    if kind == "full":
        return full_class(a, b)
    if kind == "const":
        return constants_class(a, b)
    if kind == "perm":
        return permutation_class(a, b)
    raise ValueError(f"unknown class kind {kind!r} in spec {spec!r}")


@functools.cache
def shared_class(spec: str) -> FiniteClass:
    """One `parse_spec(spec)` class per spec per process, so every preset call
    and every game named by spec reuses its memos; they hold only exact values
    and stay for the life of the process (`shared_class.cache_clear()` drops
    them)."""
    return parse_spec(spec)
