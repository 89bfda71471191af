"""Label-by-label routes to bsoa's prediction and the minimax adversary's
forcing instance.

Both restrict the space one label at a time and ask `bldim` of each
restriction.  They are the slow route that `dimensions.bldim_split`, which
both now read, is checked against.
"""

from __future__ import annotations

from banditlab import bldim


def bsoa_prediction(space, x: int) -> int:
    """The label whose avoidance restriction has the smallest bldim, ties
    going to the smallest label."""
    best_y, best_d = 0, None
    for y in range(space.cls.k):
        d = bldim(space.restrict_ne(x, y))
        if best_d is None or d < best_d:
            best_y, best_d = y, d
    return best_y


def forcing_instance(space) -> int:
    """The first x at which 1 + the smallest bldim over the proper avoidance
    restrictions is bldim(space); a restriction equal to the space is
    skipped."""
    target = bldim(space)
    for x in range(space.cls.n):
        worst = None
        for y in range(space.cls.k):
            sub = space.restrict_ne(x, y)
            if sub.mask == space.mask:
                continue
            d = bldim(sub)
            if worst is None or d < worst:
                worst = d
        if 1 + worst == target:
            return x
    raise AssertionError("no instance attains the bandit dimension")
