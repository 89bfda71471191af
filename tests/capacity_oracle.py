"""The capacity potential member by member, through `VersionSpace` and `capacity`.

This is the slow route the capacity learner's one-pass drops and its update
are checked against: `capacity_drops(C, x)[y] == bandit_potential(C, x, y)[2]`,
and a wrong answer y0 at x leaves the learner holding
`bandit_potential(C, x, y0)[1]`.
"""

from __future__ import annotations

from banditlab import ClassCollection, VersionSpace, capacity, ldim


def bandit_potential(
    collection: ClassCollection, x: int, y0: int
) -> tuple[ClassCollection, ClassCollection, int]:
    """Capacity drop if y0 were predicted and judged wrong.

    Returns (selected, updated, drop): `selected` holds the members whose every
    off-y0 restriction strictly loses dimension; `updated` is the collection
    with each such member replaced in place by its nonempty off-y0 restrictions
    (other members untouched); `drop` is the exact integer
    capacity(collection) - capacity(updated).
    """
    selected: list[VersionSpace] = []
    updated: list[VersionSpace] = []
    for v in collection:
        if v.is_empty:
            raise ValueError("collections must hold nonempty spaces")
        k = v.cls.k
        dv = ldim(v)
        pieces: list[VersionSpace] = []
        in_selected = True
        for y in range(k):
            if y == y0:
                continue
            sub = v.restrict_eq(x, y)
            if ldim(sub) >= dv:
                in_selected = False
                break
            if not sub.is_empty:
                pieces.append(sub)
        if in_selected:
            selected.append(v)
            updated.extend(pieces)
        else:
            updated.append(v)
    drop = capacity(collection) - capacity(tuple(updated))
    return tuple(selected), tuple(updated), drop
