import json
import math
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditlab import (
    FiniteClass,
    VersionSpace,
    bldim,
    capacity,
    catalog,
    dumps_class,
    full_class,
    ldim,
    load_class,
    permutation_class,
    shatter_oracle,
    shatter_witness,
)
from corpus_util import empty_space, enumerated_spaces, random_class, random_spaces
from banditlab.hypotheses import product_class
from dims_oracle import oracle_bldim, oracle_ldim


# ---------------------------------------------------------------------------
# the two recursions on known classes
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_full_class_dimensions(n, k):
    space = full_class(n, k).full_space()
    assert ldim(space) == n
    assert bldim(space) == (k - 1) * n
    assert_exact_and_memos_exact(space)


def test_singleton_dimensions():
    fc = FiniteClass("one", 2, 3, [[1, 2]])
    assert ldim(fc.full_space()) == 0
    assert bldim(fc.full_space()) == 0
    assert_exact_and_memos_exact(fc.full_space())


def test_empty_space_sentinel():
    fc = full_class(1, 2)
    assert ldim(empty_space(fc)) == -1
    assert bldim(empty_space(fc)) == -1


def test_pinned_class_ldim_one():
    # {f: [2] -> [2] with f(0) = 0}: two rows differing only at x=1
    fc = FiniteClass("pinned", 2, 2, [[0, 0], [0, 1]])
    space = fc.full_space()
    assert shatter_oracle(space, 1, "L")
    assert not shatter_oracle(space, 2, "L")
    assert ldim(space) == 1


def test_full_1x3_bldim_two():
    space = full_class(1, 3).full_space()
    assert shatter_oracle(space, 2, "BL")
    assert not shatter_oracle(space, 3, "BL")
    assert bldim(space) == 2


def test_bldim_of_two_permutation_blocks():
    # delta * k(k-1)/2, as perm:1x4 = 6; the unpruned recursion does not finish
    # here, and without its factors the pruned search takes seconds
    fc = permutation_class(2, 4)
    assert bldim(fc.full_space()) == 12
    assert len(fc.bldim_cache) == 1  # the full mask, solved through the factors
    cold = permutation_class(1, 4)
    bldim(cold.full_space())
    assert len(cold.bldim_cache) == 1429
    assert sum(len(f.bldim_cache) for f in _factor_tree(fc)[1:]) <= len(cold.bldim_cache)


# ---------------------------------------------------------------------------
# the pruned searches against the unpruned recursions
# ---------------------------------------------------------------------------


def assert_exact_and_memos_exact(space):
    """The pruned ldim and bldim of space equal the unpruned recursions', and so
    does every memo entry the pruned searches have left on the class; bldim
    leaves none for a space of two or fewer members, which it solves in
    closed form."""
    fc = space.cls
    for pruned, oracle, memo in (
        (ldim, oracle_ldim, fc.ldim_cache),
        (bldim, oracle_bldim, fc.bldim_cache),
    ):
        exact: dict[int, int] = {}
        assert pruned(space) == oracle(fc, space.mask, exact)
        for mask, value in memo.items():
            assert value == oracle(fc, mask, exact), (fc.table, bin(mask), pruned.__name__)
    assert all(mask.bit_count() > 2 for mask in fc.bldim_cache)


@st.composite
def tables(draw):
    n = draw(st.integers(1, 5))
    k = draw(st.integers(2, 4))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, k - 1), min_size=n, max_size=n),
            min_size=1,
            max_size=14,
        )
    )
    return FiniteClass("gen", n, k, rows)


@settings(max_examples=300, deadline=None)
@given(tables(), st.data())
def test_pruned_dimensions_match_the_unpruned_recursions(fc, data):
    assert_exact_and_memos_exact(fc.full_space())
    # a subspace solved afterwards starts from the memos the full space left
    mask = data.draw(st.integers(0, fc.full_mask))
    assert_exact_and_memos_exact(VersionSpace(fc, mask))


def test_pruned_dimensions_match_on_seeded_random_tables():
    # uniform tables of up to 14 rows reach splits that the small examples
    # hypothesis favours rarely do
    rng = np.random.default_rng(7)
    for _ in range(400):
        n, k, size = int(rng.integers(1, 6)), int(rng.integers(2, 5)), int(rng.integers(1, 15))
        fc = FiniteClass("rand", n, k, rng.integers(0, k, size=(size, n)).tolist())
        assert_exact_and_memos_exact(fc.full_space())


@pytest.mark.parametrize("rows, k", [(18, 4), (30, 3)])
def test_pruned_bldim_matches_on_tables_of_the_benchmark_shapes(rows, k):
    # the shapes of the random bldim rungs: 5 instances, mostly distinct rows
    rng = np.random.default_rng(rows * k)
    for _ in range(16):
        fc = FiniteClass("rand", 5, k, rng.integers(0, k, size=(rows, 5)).tolist())
        assert_exact_and_memos_exact(fc.full_space())


def _small_spaces(fc, most):
    """Every space of 1 to `most` members of fc."""
    for size in range(1, most + 1):
        for members in combinations(range(fc.size), size):
            yield fc.space(members)


@pytest.mark.parametrize("fc", [full_class(2, 3), permutation_class(1, 4), catalog.constants_class(2, 4)])
def test_bldim_of_every_space_of_three_or_fewer_members(fc):
    exact: dict[int, int] = {}
    for space in _small_spaces(fc, 3):
        assert bldim(space) == oracle_bldim(fc, space.mask, exact), bin(space.mask)
    # the two-member spaces are all closed form, the three-member ones memoized
    assert all(m.bit_count() == 3 for m in fc.bldim_cache)


def _guessing_bound(space):
    """max over x of (labels the space uses at x) - 1: the value of asking x alone."""
    table = space.cls.table
    return max(len({table[h][x] for h in space.members()}) for x in range(space.cls.n)) - 1


def test_guessing_bound_is_a_lower_bound():
    rng = np.random.default_rng(13)
    for _ in range(300):
        n, k, size = int(rng.integers(1, 6)), int(rng.integers(2, 5)), int(rng.integers(1, 15))
        fc = FiniteClass("rand", n, k, rng.integers(0, k, size=(size, n)).tolist())
        mask = int(rng.integers(1, fc.full_mask + 1))
        space = VersionSpace(fc, mask)
        assert _guessing_bound(space) <= oracle_bldim(fc, mask, {}) == bldim(space)
    # attained by the guessing game itself, and by full:1xk
    for k in (2, 3, 4):
        assert _guessing_bound(full_class(1, k).full_space()) == bldim(full_class(1, k).full_space()) == k - 1


def test_ne_masks_complement_eq_masks():
    rng = np.random.default_rng(5)
    for fc in (full_class(2, 3), permutation_class(2, 3), FiniteClass("r", 4, 3, rng.integers(0, 3, size=(20, 4)).tolist())):
        for x in range(fc.n):
            assert len(fc.ne_masks(x)) == fc.k
            for y in range(fc.k):
                assert fc.ne_masks(x)[y] == fc.full_mask & ~fc.eq_mask(x, y)
                assert fc.full_space().restrict_ne(x, y).mask == fc.full_mask & ~fc.eq_mask(x, y)


@pytest.mark.parametrize(
    "rows, k, expected",
    [
        ([[1, 0], [1, 1], [1, 2]], 3, (1, 2)),  # every member agrees on x=0
        ([[a, a, b] for a in range(3) for b in range(3)], 3, (2, 4)),  # x=0, x=1 duplicated
        ([[0, 1, 1], [1, 0, 0], [1, 1, 1], [0, 0, 0]], 2, (2, 2)),  # x=1, x=2 duplicated
    ],
)
def test_pruned_dimensions_on_edge_cases(rows, k, expected):
    fc = FiniteClass("edge", len(rows[0]), k, rows)
    assert (ldim(fc.full_space()), bldim(fc.full_space())) == expected
    assert_exact_and_memos_exact(fc.full_space())


# ---------------------------------------------------------------------------
# product classes, solved through their factors
# ---------------------------------------------------------------------------


def _factor_tree(fc):
    """fc and every class below it in its factors, each object once (equal
    copies stay apart)."""
    out = [fc]
    for c in out:
        for f in c.factors or ():
            if all(f is not seen for seen in out):
                out.append(f)
    return out


def _plain(fc):
    """The same table as a class that records no factors."""
    return FiniteClass(fc.name, fc.n, fc.k, fc.table)


def _random_factor(rng, k, max_n):
    n = int(rng.integers(1, max_n + 1))
    size = int(rng.integers(1, k**n + 1))
    return FiniteClass("f", n, k, rng.integers(0, k, size=(size, n)).tolist())


def _random_product(rng):
    """A product of two or three random factors over one label count: two of
    up to two instances each, or three of one instance."""
    k = int(rng.integers(2, 4))
    if rng.random() < 0.7:
        return product_class("p2", _random_factor(rng, k, 2), _random_factor(rng, k, 2))
    a, b, c = (_random_factor(rng, k, 1) for _ in range(3))
    return product_class("p3", a, product_class("p2", b, c))


def _random_restriction(rng, space):
    x = int(rng.integers(space.cls.n))
    y = int(rng.integers(space.cls.k))
    step = int(rng.integers(3))
    if step == 0:
        return space.restrict_eq(x, y)
    if step == 1:
        return space.restrict_ne(x, y)
    labels = [y for y in range(space.cls.k) if rng.random() < 0.5] or [y]
    return space.restrict_in(x, labels)


def assert_product_dims_exact(fc, masks):
    """ldim and bldim of each mask of the product fc equal the unpruned
    recursions' and the plain search's on a factorless copy, and every memo
    entry left on fc and on the classes below it is exact."""
    plain = _plain(fc)
    exact = {"L": {}, "BL": {}}
    for mask in masks:
        for mode, fn, oracle in (("L", ldim, oracle_ldim), ("BL", bldim, oracle_bldim)):
            want = oracle(plain, mask, exact[mode])
            assert fn(VersionSpace(fc, mask)) == want, (fc.table, bin(mask), mode)
            assert fn(VersionSpace(plain, mask)) == want, (fc.table, bin(mask), mode)
    for c in _factor_tree(fc):
        own = {"L": {}, "BL": {}}
        for mode, memo, oracle in (("L", c.ldim_cache, oracle_ldim), ("BL", c.bldim_cache, oracle_bldim)):
            for mask, value in memo.items():
                assert value == oracle(_plain(c), mask, own[mode]), (c.table, bin(mask), mode)


def test_product_dimensions_match_the_unpruned_recursions():
    rng = np.random.default_rng(12)
    for _ in range(150):
        fc = _random_product(rng)
        space = fc.full_space()
        masks = [space.mask]
        for _ in range(int(rng.integers(1, 6))):  # a chain of restrictions
            space = _random_restriction(rng, space)
            if space.is_empty:
                break
            masks.append(space.mask)
        masks += [int(rng.integers(1, fc.full_mask + 1)) for _ in range(3)]  # mostly not products
        assert_product_dims_exact(fc, masks)


@pytest.mark.parametrize("spec", [(full_class, 2, 3), (full_class, 3, 2), (permutation_class, 2, 3), (permutation_class, 3, 2)])
def test_builtin_products_match_the_unpruned_recursions(spec):
    build, a, k = spec
    fc = build(a, k)
    assert fc.factors is not None
    rng = np.random.default_rng(a * 10 + k)
    masks = [fc.full_mask] + [int(rng.integers(1, fc.full_mask + 1)) for _ in range(5)]
    assert_product_dims_exact(fc, masks)


def test_shatter_oracle_never_reads_the_factors():
    fc = permutation_class(2, 3)
    space = fc.full_space()
    assert shatter_oracle(space, 4, "L") and not shatter_oracle(space, 5, "L")
    assert shatter_oracle(space, 6, "BL") and not shatter_oracle(space, 7, "BL", depth_cap=7)
    block = fc.factors[0]
    assert not (block.ldim_cache or block.bldim_cache or block.shatter_cache)
    assert (ldim(space), bldim(space)) == (4, 6)


def test_every_build_starts_with_cold_memos():
    first = permutation_class(2, 4)
    bldim(first.full_space())
    ldim(first.full_space())
    second = permutation_class(2, 4)
    assert second == first
    for c in _factor_tree(second):
        assert not (c.ldim_cache or c.bldim_cache or c.shatter_cache)
        assert all(c is not d for d in _factor_tree(first))


def _without_factors(fc):
    """fc's class document with its rows only, as documents were written
    before they carried factors."""
    doc = json.loads(dumps_class(fc))
    del doc["factors"]
    return json.dumps(doc)


def test_classes_outside_the_catalog_record_no_factors():
    fc = permutation_class(2, 3)
    assert load_class(_without_factors(fc)).factors is None
    assert catalog.subclass(fc, fc.full_mask).factors is None
    assert catalog.constants_class(3, 3).factors is None
    assert random_class(np.random.default_rng(0)).factors is None


@pytest.mark.parametrize("build, a, k", [(full_class, 3, 2), (permutation_class, 2, 4), (permutation_class, 3, 3)])
def test_a_saved_product_loads_as_the_same_product(build, a, k):
    """A product's document carries its factors, and the loaded class is the
    same tree of factors, with one object wherever the catalog shares one."""
    fc = build(a, k)
    loaded = load_class(dumps_class(fc))
    assert loaded == fc and dumps_class(loaded) == dumps_class(fc)
    built, got = _factor_tree(fc), _factor_tree(loaded)
    assert got == built  # the same classes, as many distinct objects, in the same order
    assert [c.factors for c in got] == [d.factors for d in built]
    leaves = {id(f) for c in got for f in c.factors or () if f.factors is None}
    assert len(leaves) == 1  # one block object, as _power builds it
    assert load_class(_without_factors(fc)) == loaded


def test_a_saved_perm_2x4_solves_through_its_factors():
    # it took the cold search before its document carried the factors
    loaded = load_class(dumps_class(permutation_class(2, 4)))
    assert bldim(loaded.full_space()) == 12
    assert len(loaded.bldim_cache) == 1


def test_a_product_document_must_hold_its_factors_rows():
    doc = json.loads(dumps_class(permutation_class(2, 3)))
    swapped = dict(doc, rows=doc["rows"][::-1])  # the same rows, another order
    missing = dict(doc, rows=doc["rows"][1:])
    other = dict(doc, factors=[doc["factors"][0], json.loads(dumps_class(full_class(1, 3)))])
    for bad in (swapped, missing, other):
        with pytest.raises(ValueError, match="not the product of its factors"):
            load_class(json.dumps(bad))
    for factors in ([doc["factors"][0]], {}, [doc["factors"][0], [[0, 1, 2]]]):
        with pytest.raises(ValueError):
            load_class(json.dumps(dict(doc, factors=factors)))


def _flat_full(n, k):
    return FiniteClass(f"full:{n}x{k}", n, k, product(range(k), repeat=n))


def _flat_perm(delta, k):
    rows = (
        [y for block in combo for y in block]
        for combo in product(permutations(range(k)), repeat=delta)
    )
    return FiniteClass(f"perm:{delta}x{k}", delta * k, k, rows)


@pytest.mark.parametrize("a", [1, 2, 3])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_products_keep_the_itertools_table_order(a, k):
    # every table, and so every mask and report, is the one the flat
    # itertools.product construction gave
    for build, flat in ((full_class, _flat_full), (permutation_class, _flat_perm)):
        fc, want = build(a, k), flat(a, k)
        assert (fc.name, fc.n, fc.k, fc.table) == (want.name, want.n, want.k, want.table)
        if a == 1:
            assert fc.factors is None
            continue
        outer, inner = fc.factors
        assert outer == build(1, k) and inner == build(a - 1, k)
        assert inner.factors is None or inner.factors[0] is outer  # one block object


# ---------------------------------------------------------------------------
# the tree oracles
# ---------------------------------------------------------------------------


def test_oracle_examples():
    assert shatter_oracle(full_class(2, 2).full_space(), 2, "L")
    singleton = FiniteClass("one", 1, 2, [[0]])
    assert not shatter_oracle(singleton.full_space(), 1, "L")
    assert not shatter_oracle(full_class(1, 3).full_space(), 3, "BL")


def test_oracle_rejects_bad_arguments():
    space = full_class(1, 2).full_space()
    with pytest.raises(ValueError):
        shatter_oracle(space, 7, "L")  # above the default cap
    with pytest.raises(ValueError):
        shatter_oracle(space, 1, "weird")
    with pytest.raises(ValueError):
        shatter_oracle(space, -1, "L")


def _witness_paths(node, prefix):
    if node is None:
        yield prefix
        return
    for y, child in node.edges.items():
        yield from _witness_paths(child, prefix + [(node.x, y)])


def _validate_witness(space, node, depth, mode):
    """Replay every root-to-leaf path of a witness against the definitions."""
    k = space.cls.k
    table = space.cls.table
    paths = list(_witness_paths(node, []))
    assert all(len(p) == depth for p in paths)
    for path in paths:
        if mode == "L":
            assert any(
                all(table[h][x] == y for x, y in path) for h in space.members()
            )
        else:
            assert any(
                all(table[h][x] != y for x, y in path) for h in space.members()
            )
    # completeness: L nodes carry two distinct labels, BL nodes all k
    def check_node(nd):
        if nd is None:
            return
        if mode == "L":
            assert len(nd.edges) == 2
        else:
            assert sorted(nd.edges) == list(range(k))
        for child in nd.edges.values():
            check_node(child)

    check_node(node)


@pytest.mark.parametrize("mode", ["L", "BL"])
def test_witness_trees_are_valid(mode):
    for space in enumerated_spaces():
        dim = ldim(space) if mode == "L" else bldim(space)
        if dim <= 0:
            assert shatter_witness(space, dim if dim > 0 else 1, mode) is None or dim > 0
            continue
        node = shatter_witness(space, dim, mode)
        assert node is not None
        _validate_witness(space, node, dim, mode)


def test_oracle_equivalence_on_enumerated_corpus():
    for space in enumerated_spaces():
        for mode, dim in (("L", ldim(space)), ("BL", bldim(space))):
            cap = max(6, dim + 1)
            for depth in range(dim + 2):
                assert shatter_oracle(space, depth, mode, depth_cap=cap) == (
                    depth <= dim
                ), (space, mode, depth)


def test_oracle_equivalence_on_random_sample():
    # a slice of the random corpus; the full 200-class sweep runs in acceptance
    for space in random_spaces(25, seed=411):
        for mode, dim in (("L", ldim(space)), ("BL", bldim(space))):
            cap = max(6, dim + 1)
            assert shatter_oracle(space, dim, mode, depth_cap=cap)
            assert not shatter_oracle(space, dim + 1, mode, depth_cap=cap)


def test_dimension_monotonicity():
    for space in enumerated_spaces():
        cls = space.cls
        sub = VersionSpace(cls, space.mask & (space.mask >> 1))
        if sub.mask == space.mask:
            continue
        assert ldim(sub) <= ldim(space)
        assert bldim(sub) <= bldim(space)


def test_bandit_dimension_envelope():
    # bldim <= 4 * k * ln(k) * ldim on every corpus space
    for space in enumerated_spaces() + random_spaces(25, seed=97):
        k = space.cls.k
        assert bldim(space) <= 4.0 * k * math.log(k) * ldim(space) + 1e-12


def test_at_most_one_label_keeps_the_dimension():
    for space in enumerated_spaces():
        d = ldim(space)
        for x in range(space.cls.n):
            keepers = [
                y for y in range(space.cls.k) if ldim(space.restrict_eq(x, y)) == d
            ]
            assert len(keepers) <= 1, (space, x, keepers)


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------


def test_capacity_single_full_class():
    assert capacity((full_class(1, 3).full_space(),)) == 9
    assert capacity((full_class(2, 2).full_space(),)) == 16


def test_capacity_of_singletons():
    fc = full_class(1, 4)
    singles = tuple(fc.space([h]) for h in range(3))
    assert capacity(singles) == 3


def test_capacity_rejects_empty_members():
    fc = full_class(1, 2)
    with pytest.raises(ValueError):
        capacity((empty_space(fc),))


def test_capacity_positive_and_exact():
    for space in enumerated_spaces():
        assert capacity((space,)) >= 1
        assert capacity((space,)) == space.cls.k ** (2 * ldim(space))
