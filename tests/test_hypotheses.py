import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from banditlab import (
    FiniteClass,
    MultiLabelExample,
    dumps_class,
    dumps_sequence,
    full_class,
    load_class,
    load_sequence,
    make_sequence,
    read_sequence,
    write_sequence,
)
from corpus_util import empty_space


def class_doc(n, k, rows, name="t"):
    return json.dumps({"name": name, "n": n, "k": k, "rows": rows})


# ---------------------------------------------------------------------------
# loading and validation
# ---------------------------------------------------------------------------


def test_load_two_constants():
    fc = load_class(class_doc(1, 2, [[0], [1]]))
    assert fc.size == 2 and fc.n == 1 and fc.k == 2


def test_load_full_class_nine_rows():
    rows = [[a, b] for a in range(3) for b in range(3)]
    fc = load_class(class_doc(2, 3, rows))
    assert fc.size == 9


def test_load_collapses_duplicates():
    fc = load_class(class_doc(1, 2, [[0], [0]]))
    assert fc.size == 1


def test_load_keeps_first_occurrence_order():
    fc = load_class(class_doc(1, 3, [[2], [0], [2], [1]]))
    assert fc.table == ((2,), (0,), (1,))


@pytest.mark.parametrize(
    "doc",
    [
        "not json at all {",
        json.dumps([1, 2, 3]),
        json.dumps({"n": 1, "k": 2}),
        class_doc(1, 2, []),
        class_doc(1, 2, [[0], [2]]),  # label out of range
        class_doc(2, 2, [[0]]),  # wrong row length
        class_doc(1, 1, [[0]]),  # k too small
        class_doc(True, 2, [[0], [1]]),  # a bool is not a count
        class_doc(1, 2.0, [[0], [1]]),
        class_doc(1, 2, [[0], [1.9]]),  # would truncate to label 1
        class_doc(1, 2, [[0], [False]]),
        class_doc(1, 2, [[0], ["1"]]),
        class_doc(1, 2, [0, 1]),  # rows that are not lists
    ],
)
def test_load_rejects_bad_documents(doc):
    with pytest.raises(ValueError):
        load_class(doc)


@pytest.mark.parametrize(
    "n, k, rows",
    [
        (True, 2, [[0]]),  # a bool is not a count
        (1, True, [[0]]),
        (1.0, 2, [[0]]),
        (1, 2.0, [[0]]),
        (1, 2, [[1.9]]),  # would truncate to label 1
        (1, 2, [[1.0]]),
        (1, 2, [[True]]),
        (1, 2, [[np.bool_(False)]]),
        (1, 2, [["1"]]),
        (1, 2, [[None]]),
        (1, 2, [[np.int64(2)]]),  # numpy integer outside [0, k)
    ],
)
def test_finite_class_rejects_what_it_would_coerce(n, k, rows):
    with pytest.raises(ValueError):
        FiniteClass("x", n, k, rows)


def test_finite_class_accepts_numpy_integers():
    rows = np.array([[0, 1], [1, 1], [0, 1]])
    fc = FiniteClass("np", np.int64(2), np.int32(2), rows)
    assert fc.table == ((0, 1), (1, 1))
    assert type(fc.n) is int and type(fc.k) is int
    assert all(type(v) is int for row in fc.table for v in row)
    assert fc == FiniteClass("np", 2, 2, rows.tolist())


def test_class_roundtrip():
    fc = load_class(class_doc(2, 3, [[0, 1], [2, 2], [1, 0]], name="rt"))
    again = load_class(dumps_class(fc))
    assert again == fc
    assert dumps_class(again) == dumps_class(fc)


def test_sequence_roundtrip():
    seq = make_sequence([(0, {1}), (1, {0, 2}), (0, {2})])
    assert load_sequence(dumps_sequence(seq)) == seq


def test_sequence_rejects_empty_allowed():
    with pytest.raises(ValueError):
        make_sequence([(0, set())])


@pytest.mark.parametrize(
    "records",
    [
        [{"x": 0, "allowed": "12"}],  # a string is not a label list
        [{"x": 0, "allowed": 1}],
        [{"x": 0, "allowed": [1.0]}],
        [{"x": 0, "allowed": [True]}],
        [{"x": 0, "allowed": [-1]}],
        [{"x": 1.7, "allowed": [0]}],  # would truncate to instance 1
        [{"x": True, "allowed": [0]}],
        [{"x": "0", "allowed": [0]}],
        [{"x": -3, "allowed": [0]}],
        [{"x": 0}],
        [[0, [1]]],
    ],
)
def test_load_sequence_rejects_malformed_records(records):
    with pytest.raises(ValueError):
        load_sequence(json.dumps(records))


@pytest.mark.parametrize(
    "x, label",
    [(1.9, 0), (True, 0), (1.0, 0), ("1", 0), (-3, 0), (0, 1.9), (0, True), (0, "1"), (0, -1)],
)
def test_multilabel_example_refuses_what_it_would_coerce(x, label):
    with pytest.raises(ValueError):
        MultiLabelExample(x, frozenset({label}))


def test_multilabel_example_takes_numpy_integers_as_ints():
    ex = MultiLabelExample(np.int64(2), frozenset({np.int8(1)}))
    assert ex == MultiLabelExample(2, frozenset({1}))
    assert type(ex.x) is int and all(type(y) is int for y in ex.allowed)


def test_load_sequence_reads_a_valid_document():
    text = json.dumps([{"x": 2, "allowed": [1, 0]}, {"x": 0, "allowed": [3]}])
    assert load_sequence(text) == make_sequence([(2, {0, 1}), (0, {3})])


@pytest.mark.parametrize(
    "record, message",
    [
        ({"x": 3, "allowed": [0]}, "bad sequence record 1: instance 3 outside [0, 3)"),
        ({"x": 1, "allowed": [0, 2]}, "bad sequence record 1: label 2 outside [0, 2)"),
    ],
)
def test_load_sequence_against_a_class_refuses_what_the_class_lacks(record, message, tmp_path):
    fc = full_class(3, 2)
    text = json.dumps([{"x": 0, "allowed": [1]}, record])
    load_sequence(text)  # well formed without a class
    with pytest.raises(ValueError) as err:
        load_sequence(text, fc)
    assert str(err.value) == message
    path = tmp_path / "seq.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad sequence record 1"):
        read_sequence(path, fc)


def test_load_sequence_against_a_class_reads_a_valid_document(tmp_path):
    fc = full_class(3, 2)
    seq = make_sequence([(2, {0, 1}), (0, {1}), (1, {0})])
    assert load_sequence(dumps_sequence(seq), fc) == seq
    path = tmp_path / "seq.json"
    write_sequence(seq, path)
    assert read_sequence(path, fc) == read_sequence(path) == seq


# ---------------------------------------------------------------------------
# restriction
# ---------------------------------------------------------------------------


def test_restrict_eq_filters_full_class():
    fc = full_class(1, 2)
    # rows are (0,) and (1,); only one has h(0) == 1
    sub = fc.full_space().restrict_eq(0, 1)
    assert list(sub.members()) == [1]


def test_restrict_eq_can_empty():
    fc = FiniteClass("c0", 1, 2, [[0]])
    assert fc.full_space().restrict_eq(0, 1).is_empty


def test_empty_space_is_absorbing():
    fc = full_class(1, 2)
    empty = empty_space(fc)
    assert empty.restrict_eq(0, 0).is_empty
    assert empty.restrict_ne(0, 0).is_empty


def test_restrict_ne_drops_one_constant():
    fc = FiniteClass("consts", 1, 3, [[0], [1], [2]])
    sub = fc.full_space().restrict_ne(0, 2)
    assert sorted(sub.members()) == [0, 1]


def test_restrict_index_errors():
    fc = full_class(1, 2)
    with pytest.raises(ValueError):
        fc.full_space().restrict_eq(1, 0)
    with pytest.raises(ValueError):
        fc.full_space().restrict_ne(0, 2)


@st.composite
def small_classes(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(2, 4))
    size = draw(st.integers(1, 10))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, k - 1), min_size=n, max_size=n),
            min_size=size,
            max_size=size,
        )
    )
    return FiniteClass("gen", n, k, rows)


@settings(max_examples=60)
@given(small_classes(), st.data())
def test_eq_restrictions_partition_the_space(fc, data):
    x = data.draw(st.integers(0, fc.n - 1))
    v = fc.full_space()
    masks = [v.restrict_eq(x, y).mask for y in range(fc.k)]
    union = 0
    for m in masks:
        assert union & m == 0  # pairwise disjoint
        union |= m
    assert union == v.mask


@settings(max_examples=60)
@given(small_classes(), st.data())
def test_eq_and_ne_split_the_space(fc, data):
    x = data.draw(st.integers(0, fc.n - 1))
    y = data.draw(st.integers(0, fc.k - 1))
    v = fc.full_space()
    eq, ne = v.restrict_eq(x, y), v.restrict_ne(x, y)
    assert eq.mask & ne.mask == 0
    assert eq.mask | ne.mask == v.mask
    assert eq.mask & ~v.mask == 0 and ne.mask & ~v.mask == 0  # monotone


# ---------------------------------------------------------------------------
# realizability and class error
# ---------------------------------------------------------------------------


def test_full_class_realizes_pointwise_consistent_sequences():
    fc = full_class(2, 3)
    seq = make_sequence([(0, {2}), (1, {0}), (0, {2}), (1, {0, 1})])
    assert fc.full_space().class_error(seq) == 0


def test_even_full_class_fails_on_contradictory_repeats():
    # one hypothesis must fit every round, so disjoint allowed sets at the
    # same instance are unrealizable even by the full class
    fc = full_class(2, 3)
    seq = make_sequence([(0, {2}), (0, {0, 1})])
    assert fc.full_space().class_error(seq) == 1


def test_singleton_fails_off_label():
    fc = FiniteClass("c0", 1, 2, [[0]])
    assert fc.full_space().class_error(make_sequence([(0, {1})])) == 1


def test_empty_sequence_has_no_class_error():
    fc = FiniteClass("c0", 1, 2, [[0]])
    assert fc.full_space().class_error(()) == 0


def test_class_error_counts_disagreements():
    fc = FiniteClass("c0", 1, 2, [[0]])
    seq = make_sequence([(0, {1}), (0, {0}), (0, {1})])
    assert fc.full_space().class_error(seq) == 2


def test_class_error_exhaustive_minimum():
    # both constants miss exactly one of the two contradictory rounds
    fc = full_class(1, 2)
    seq = make_sequence([(0, {0}), (0, {1})])
    assert fc.full_space().class_error(seq) == 1


def test_class_error_on_empty_space_raises():
    fc = full_class(1, 2)
    with pytest.raises(ValueError):
        empty_space(fc).class_error(make_sequence([(0, {0})]))


def test_universe_mismatch_raises():
    fc = full_class(1, 2)
    with pytest.raises(ValueError):
        fc.full_space().class_error(make_sequence([(5, {0})]))
    with pytest.raises(ValueError):
        fc.full_space().class_error(make_sequence([(0, {7})]))


@settings(max_examples=60)
@given(small_classes(), st.data())
def test_error_realizability_coherence(fc, data):
    T = data.draw(st.integers(0, 8))
    seq = make_sequence(
        [
            (
                data.draw(st.integers(0, fc.n - 1)),
                {data.draw(st.integers(0, fc.k - 1))},
            )
            for _ in range(T)
        ]
    )
    # oracle: some row of the table picks an allowed label at every round
    realizable = any(all(row[ex.x] in ex.allowed for ex in seq) for row in fc.table)
    assert (fc.full_space().class_error(seq) == 0) == realizable


@settings(max_examples=40)
@given(small_classes(), st.data())
def test_documents_round_trip(fc, data):
    assert load_class(dumps_class(fc)) == fc
    pairs = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, fc.n - 1),
                st.sets(st.integers(0, fc.k - 1), min_size=1),
            ),
            max_size=6,
        )
    )
    seq = make_sequence(pairs)
    assert load_sequence(dumps_sequence(seq)) == seq
