"""Unpruned ldim and bldim recursions.

These visit every instance and every label of every space they reach, with
no ceiling, skip or cutoff.  They are the slow route the pruned searches in
`banditlab.dimensions` are checked against, next to the shattered-tree
oracle.  Each keeps its memo in a dict owned by the caller, so a check can
compare it entry by entry with the class's own `ldim_cache`/`bldim_cache`
without the two routes sharing a value.
"""

from __future__ import annotations


def oracle_ldim(cls, mask: int, cache: dict[int, int]) -> int:
    if mask == 0:
        return -1
    got = cache.get(mask)
    if got is not None:
        return got
    best = 0
    for x in range(cls.n):
        top = second = -1  # two largest restriction dimensions at x
        for y in range(cls.k):
            sub = mask & cls.eq_mask(x, y)
            if sub == 0:
                continue
            if sub == mask:
                # the whole space agrees on x: no usable label pair here
                top, second = 0, -1
                break
            d = oracle_ldim(cls, sub, cache)
            if d > top:
                top, second = d, top
            elif d > second:
                second = d
        if second >= 0 and 1 + second > best:
            best = 1 + second
    cache[mask] = best
    return best


def oracle_bldim(cls, mask: int, cache: dict[int, int]) -> int:
    if mask == 0:
        return -1
    got = cache.get(mask)
    if got is not None:
        return got
    best = 0
    for x in range(cls.n):
        worst = None  # min over labels that actually shrink the space
        for y in range(cls.k):
            sub = mask & ~cls.eq_mask(x, y)
            if sub == mask:
                continue  # unused label: its branch never attains the min
            d = oracle_bldim(cls, sub, cache)
            if worst is None or d < worst:
                worst = d
            if worst == -1:
                break
        # worst is set: a nonempty space uses at least one label at every x
        if 1 + worst > best:
            best = 1 + worst
    cache[mask] = best
    return best
