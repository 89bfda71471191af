"""Exact Littlestone and bandit-Littlestone dimensions, plus the capacity measure.

Two independent routes are provided for each dimension:

* a memoized version-space recursion (`ldim`, `bldim`) used by the learners,
  and
* a brute-force search for an explicitly shattered tree (`shatter_oracle`,
  `shatter_witness`) that follows the tree definitions directly and can emit
  the witness tree.

The recursions:

    ldim(empty) = -1
    ldim(V)     = max over x and label pairs y1 != y2 with both restrictions
                  nonempty of 1 + min(ldim(V[x=y1]), ldim(V[x=y2])), or 0 when
                  no such pair exists.

    bldim(empty) = -1
    bldim(V)     = max over x of 1 + min over labels y of bldim(V[x!=y]),
                  floored at 0.

In both recursions a restriction equal to V itself can never bind: for ldim it
forces every other label's restriction empty at that x (no usable pair), and
for bldim its value is bldim(V) >= the value of any proper restriction, so the
min is always attained on a proper subset.  Skipping those branches keeps the
recursion well-founded.  The tree oracles do not rely on this argument: they
recurse on depth, which is how the two routes stay independent cross-checks.

`bldim_split(V, x)` lists bldim(V[x!=y]) by label: the bsoa learner predicts
its smallest entry, and the minimax adversary forces at the first x where
1 + its smallest entry is bldim(V).

Both recursions are searched branch and bound.  Every call still returns
the exact value of its own space, and memoizes it unless it is closed form;
a cut only skips branches of the current call that cannot change its max, so
no memo entry is ever a bound.  With best the largest value found so far at V:

* ldim(V) <= floor(log2 |V|), since a shattered tree of depth d needs 2^d
  members; the search stops once best reaches it.  So the value at x is at
  most 1 + floor(log2 |second-largest restriction at x|), and an instance
  whose cap is at most best is skipped.  Within an instance the
  restrictions are visited largest first, and the search leaves the
  instance once floor(log2 |sub|) is at most the running second-best (no
  smaller restriction can change the two largest) or below best (the value
  at x then stays at most best).
* bldim(V) <= |V| - 1, since every restriction searched drops at least one
  member of V; the search stops once best reaches it.  The value at x is then at most the
  size of its smallest restriction, and an instance capped at best is
  skipped.  Labels are visited smallest restriction first, and the
  instance is left once 1 + its running min is at most best (alpha-beta:
  the min can only fall).
* bldim(V) >= |Y_x(V)| - 1 for every x, where Y_x(V) is the set of labels V
  uses at x: asking x alone is the guessing game on those labels (by
  induction, each restriction V[x!=y] still uses |Y_x(V)| - 1 of them).
  One pass over the instances builds every split and starts best at the
  largest such bound, so the cuts above start from it, and a space whose
  members all disagree at some x returns at once.
* A space of at most two members is solved in closed form, |V| - 1, and
  never memoized: rows are deduplicated, so two members differ at some x,
  and asking it leaves a singleton on each used label.
* For both, an instance that splits V into the same set of restrictions as
  an earlier one has the same value and is skipped.

Products.  The catalog builds full:nxk and perm:dxk as products A x B of
classes on disjoint instance blocks (`FiniteClass.factors`).  On a product,
both dimensions add: ldim(A x B) = ldim(A) + ldim(B), and the same for bldim.
Playing A's shattered tree and then, at each of its leaves, B's gives the
lower bound (Littlestone 1988); playing each block with its own optimal
strategy gives the upper bound, bldim being the optimal deterministic bandit
mistake bound (Daniely, Sabato, Ben-David & Shalev-Shwartz 2011).  So on a
memo miss a product class projects the mask onto its factors, and when the
mask is exactly the product of its projections it returns, and memoizes, the
sum of the factors' memoized values.  Every restriction V[x=y] or V[x!=y] of
a product is again a product, so the learners and the minimax adversary on
full and permutation classes only ever search the one-block factors.  Any
other mask, and any class without factors, takes the search above.  The
tree oracles never read the factors.

Scaling, on a 2-core machine with Python 3.11: bldim(perm:2x4) = 12 takes
about 8 ms through its factors, leaving 1 memo entry on perm:2x4 and 1,429
on perm:1x4.  The same table without factors (loaded from JSON, say) takes
the search: about 4.5 s, 285k memo entries and 63 MiB peak (the unpruned
recursion had not finished after 65 s and 3.1M entries).  bldim(perm:1x5) =
10 is one block and takes about 16 s, 1.5M entries and 212 MiB peak.  ldim
on a random 40x40 binary table takes milliseconds (unpruned: 6 s and 144k
entries).  bldim still explores spaces cut out by forbidding label sets, up
to (2^k)^n masks, so keep bandit-dimension work on classes without factors to
universes of a few hundred rows.
"""

from __future__ import annotations

from dataclasses import dataclass

from .hypotheses import FiniteClass, VersionSpace

DEFAULT_DEPTH_CAP = 6

_LEAF = object()  # sentinel: subtree of depth 0 exists


def ldim(space: VersionSpace) -> int:
    """Littlestone dimension of a version space (-1 for the empty space)."""
    return _ldim_mask(space.cls, space.mask)


def bldim(space: VersionSpace) -> int:
    """Bandit Littlestone dimension of a version space (-1 for the empty space)."""
    return _bldim_mask(space.cls, space.mask)


def bldim_split(space: VersionSpace, x: int) -> list[int]:
    """bldim(V[x!=y]) for every label y, in label order; an unused label's
    restriction is V itself and counts at bldim(V)."""
    cls, mask = space.cls, space.mask
    cls.check_instance(x)
    return [_bldim_mask(cls, mask & ne) for ne in cls.ne_masks(x)]


def _ldim_mask(cls: FiniteClass, mask: int) -> int:
    if mask == 0:
        return -1
    cache = cls.ldim_cache
    got = cache.get(mask)
    if got is not None:
        return got
    if cls.factors is not None:
        (outer, inner), (o, i) = cls.factors, cls.projections(mask)
        if o.bit_count() * i.bit_count() == mask.bit_count():
            best = cache[mask] = _ldim_mask(outer, o) + _ldim_mask(inner, i)
            return best
    best = 0
    ceiling = mask.bit_count().bit_length() - 1  # floor(log2 |V|)
    seen = set()  # splits already solved
    for x in range(cls.n):
        if best == ceiling:
            break
        # nonempty restrictions, largest first; one of them means all agree on x
        # (a plain loop: before Python 3.12 a comprehension makes mask a closure
        # cell, which every call pays for, memo hits included)
        subs = []
        for eq in cls.eq_masks(x):
            if sub := mask & eq:
                subs.append(sub)
        subs.sort(key=int.bit_count, reverse=True)
        # 1 + floor(log2 |second-largest|) caps the value at x
        if len(subs) < 2 or subs[1].bit_count().bit_length() <= best:
            continue
        split = frozenset(subs)
        if split in seen:
            continue
        seen.add(split)
        top = second = -1  # two largest restriction dimensions at x
        for sub in subs:
            cap = sub.bit_count().bit_length() - 1  # ldim(sub) <= floor(log2 |sub|)
            if cap <= second or cap < best:
                break  # no smaller restriction can lift 1 + second above best
            d = cache.get(sub)
            if d is None:
                d = _ldim_mask(cls, sub)
            if d > top:
                top, second = d, top
            elif d > second:
                second = d
        if 1 + second > best:
            best = 1 + second
    cache[mask] = best
    return best


def _bldim_mask(cls: FiniteClass, mask: int) -> int:
    size = mask.bit_count()
    if size <= 2:
        # rows are distinct, so two members split at some x into two
        # singletons: 1; in closed form, with no memo entry
        return size - 1
    cache = cls.bldim_cache
    got = cache.get(mask)
    if got is not None:
        return got
    if cls.factors is not None:
        (outer, inner), (o, i) = cls.factors, cls.projections(mask)
        if o.bit_count() * i.bit_count() == size:
            best = cache[mask] = _bldim_mask(outer, o) + _bldim_mask(inner, i)
            return best
    # one pass builds every split and seeds best with the guessing bound
    ceiling = size - 1
    best = 0
    splits = []
    for x in range(cls.n):
        # restrictions by the labels V uses at x (at least one); an unused
        # label's branch is V itself and never attains the min
        subs = []
        for ne in cls.ne_masks(x):
            sub = mask & ne
            if sub != mask:
                subs.append(sub)
        if len(subs) > best + 1:
            best = len(subs) - 1
            if best == ceiling:
                break
        splits.append(subs)
    seen = set()  # splits already solved
    for subs in splits:
        if best == ceiling:
            break
        # bldim(sub) <= |sub| - 1, so the smallest restriction's size caps the value at x
        subs.sort(key=int.bit_count)
        if subs[0].bit_count() <= best:
            continue
        split = frozenset(subs)
        if split in seen:
            continue
        seen.add(split)
        worst = ceiling  # above every restriction's bldim, which is at most |V| - 2
        for sub in subs:
            d = cache.get(sub)
            if d is None:
                d = _bldim_mask(cls, sub)
            if d < worst:
                worst = d
                if 1 + worst <= best:
                    break  # x can no longer raise the max
        if 1 + worst > best:
            best = 1 + worst
    cache[mask] = best
    return best


@dataclass
class WitnessNode:
    """Internal node of a shattered tree: an instance and one subtree per edge label."""

    x: int
    edges: dict[int, "WitnessNode | None"]  # None marks a leaf child


def shatter_oracle(
    space: VersionSpace, depth: int, mode: str = "L", depth_cap: int = DEFAULT_DEPTH_CAP
) -> bool:
    """Whether a complete shattered tree of the given depth exists.

    Mode "L": binary tree, each node carrying two distinct edge labels; every
    root-to-leaf label path must be realizable by some member.  Mode "BL":
    k-ary tree with one edge per label; every path must admit a member
    avoiding each edge label.  Exhaustive search over node instances (and, in
    L mode, label pairs), memoized on (surviving members, remaining depth).
    """
    return _search(space, depth, mode, depth_cap) is not False


def shatter_witness(
    space: VersionSpace, depth: int, mode: str = "L", depth_cap: int = DEFAULT_DEPTH_CAP
) -> WitnessNode | None:
    """A shattered tree of the given depth, or None if depth is 0 or unattainable."""
    got = _search(space, depth, mode, depth_cap)
    if got is False or got is _LEAF:
        return None
    return got


def _search(space: VersionSpace, depth: int, mode: str, depth_cap: int):
    if mode not in ("L", "BL"):
        raise ValueError(f"mode must be 'L' or 'BL', got {mode!r}")
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > depth_cap:
        raise ValueError(f"depth {depth} above the tractability cap {depth_cap}")
    fn = _l_search if mode == "L" else _bl_search
    return fn(space.cls, space.mask, depth)


def _l_search(cls: FiniteClass, mask: int, depth: int):
    if depth == 0:
        return _LEAF if mask else False
    key = ("L", mask, depth)
    cache = cls.shatter_cache
    got = cache.get(key)
    if got is not None:
        return got
    result = False
    for x in range(cls.n):
        subs = [mask & cls.eq_mask(x, y) for y in range(cls.k)]
        for y1 in range(cls.k):
            if not subs[y1]:
                continue
            left = _l_search(cls, subs[y1], depth - 1)
            if left is False:
                continue
            for y2 in range(y1 + 1, cls.k):
                if not subs[y2]:
                    continue
                right = _l_search(cls, subs[y2], depth - 1)
                if right is False:
                    continue
                result = WitnessNode(
                    x,
                    {
                        y1: None if left is _LEAF else left,
                        y2: None if right is _LEAF else right,
                    },
                )
                break
            if result is not False:
                break
        if result is not False:
            break
    cache[key] = result
    return result


def _bl_search(cls: FiniteClass, mask: int, depth: int):
    if depth == 0:
        return _LEAF if mask else False
    key = ("BL", mask, depth)
    cache = cls.shatter_cache
    got = cache.get(key)
    if got is not None:
        return got
    result = False
    for x in range(cls.n):
        edges: dict[int, WitnessNode | None] = {}
        ok = True
        for y in range(cls.k):
            child = _bl_search(cls, mask & ~cls.eq_mask(x, y), depth - 1)
            if child is False:
                ok = False
                break
            edges[y] = None if child is _LEAF else child
        if ok:
            result = WitnessNode(x, edges)
            break
    cache[key] = result
    return result


def format_witness(node: WitnessNode | None, indent: int = 0) -> str:
    """Indented text rendering of a witness tree."""
    if node is None:
        return " " * indent + "leaf"
    lines = [" " * indent + f"x={node.x}"]
    for y in sorted(node.edges):
        lines.append(" " * (indent + 2) + f"y={y} ->")
        lines.append(format_witness(node.edges[y], indent + 4))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# collections of version spaces and their capacity
# ---------------------------------------------------------------------------

ClassCollection = tuple[VersionSpace, ...]
"""Ordered multiset of nonempty version spaces over one class.

Multiset semantics matter: the capacity accounting sums over members
individually, so equal subsets must not be merged.
"""


def capacity(collection: ClassCollection) -> int:
    """Exact capacity sum_{V} k^(2*ldim(V)); comparisons must never round.

    k^(2L) overflows 64 bits already at moderate k and L, hence exact Python
    integers throughout.
    """
    total = 0
    for v in collection:
        if v.is_empty:
            raise ValueError("capacity is defined over nonempty spaces only")
        total += v.cls.k ** (2 * ldim(v))
    return total
