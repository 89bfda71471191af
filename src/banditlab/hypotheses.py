"""Finite multiclass hypothesis classes and version spaces.

All combinatorics downstream (dimensions, learners, adversaries) runs over an
explicit table of hypotheses h: [0,n) -> [0,k).  A version space is a bitmask
over table rows, so restriction is a single integer AND and spaces double as
hashable memoization keys.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np


class RealizabilityViolation(RuntimeError):
    """A learner that assumes a realizable run observed evidence against one."""


def is_decimal(text: str) -> bool:
    """Whether text is a count in ASCII decimal digits, the only form the CLI
    names take: int() would also accept signs, spaces and underscores."""
    return text.isascii() and text.isdigit()


def _int_field(value: object, what: str) -> int:
    """A Python or numpy integer as an int; bools, floats and strings raise
    ValueError instead of being coerced."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{what} must be an integer, got {value!r}") from None


def _nonnegative_field(value: object, what: str) -> int:
    """`_int_field`, refusing negatives too."""
    out = _int_field(value, what)
    if out < 0:
        raise ValueError(f"{what} must be nonnegative, got {out}")
    return out


def _label_row(row: tuple, i: int, k: int) -> tuple[int, ...]:
    """Row i with numpy integers made ints; ValueError for any other label
    type or a label outside [0, k)."""
    out = tuple(_int_field(v, f"label in row {i}") for v in row)
    for v in out:
        if not 0 <= v < k:
            raise ValueError(f"row {i} contains label {v} outside [0, {k})")
    return out


class FiniteClass:
    """Explicit hypothesis class over instances [0, n) and labels [0, k).

    Duplicate rows are dropped at construction (first occurrence kept): they
    change no dimension, error count, or learner behaviour.  Instances are
    immutable by convention; per-class dimension, shattering and SOA-label
    memos hang off the object so memoization stays scoped to one class.  A
    product's factors (see `product_class`) are objects of that product alone.
    """

    def __init__(self, name: str, n: int, k: int, rows: Iterable[Sequence[int]]):
        n = _int_field(n, "n")
        if n < 1:
            raise ValueError(f"need at least one instance, got n={n!r}")
        k = _int_field(k, "k")
        if k < 2:
            raise ValueError(f"need at least two labels, got k={k!r}")
        table: list[tuple[int, ...]] = []
        seen: set[tuple[int, ...]] = set()
        for i, raw in enumerate(rows):
            row = tuple(raw)
            if len(row) != n:
                raise ValueError(f"row {i} has length {len(row)}, expected n={n}")
            for v in row:
                if type(v) is not int or not 0 <= v < k:
                    row = _label_row(row, i, k)
                    break
            if row not in seen:
                seen.add(row)
                table.append(row)
        if not table:
            raise ValueError("hypothesis list is empty")
        self.name = str(name)
        self.n = n
        self.k = k
        self.table: tuple[tuple[int, ...], ...] = tuple(table)
        self.size = len(table)
        self.full_mask = (1 << self.size) - 1
        eq = [[0] * k for _ in range(n)]
        for h, row in enumerate(self.table):
            for x, y in enumerate(row):
                eq[x][y] |= 1 << h
        self._eq = tuple(tuple(col) for col in eq)
        self._ne = tuple(tuple(self.full_mask & ~m for m in col) for col in eq)
        self._hash = hash((self.name, n, k, self.table))
        # caches filled lazily by other modules; writes are idempotent
        self.ldim_cache: dict[int, int] = {}
        self.bldim_cache: dict[int, int] = {}
        self.shatter_cache: dict[tuple, object] = {}
        self.label_cache: dict[tuple[int, int], int] = {}  # SOA label by (mask, x)
        self.move_cache: dict[tuple[int, int, int], tuple] = {}  # Exp4 moves by (mask, j, x)
        # (outer, inner) when this class is their product (see product_class)
        self.factors: tuple[FiniteClass, FiniteClass] | None = None

    def projections(self, mask: int) -> tuple[int, int]:
        """A mask of a product class projected onto its factors: the outer
        rows and the inner rows that its members join.  The mask is the
        product of the two exactly when its size is the product of theirs."""
        inner = self.factors[1]
        width, chunk = inner.size, inner.full_mask
        o = i = 0
        bit = 1
        while mask:
            if sub := mask & chunk:
                i |= sub
                o |= bit
            mask >>= width
            bit <<= 1
        return o, i

    def eq_mask(self, x: int, y: int) -> int:
        """Bitmask of hypotheses with h(x) == y."""
        return self._eq[x][y]

    def eq_masks(self, x: int) -> tuple[int, ...]:
        """eq_mask(x, y) for every label y, in label order."""
        return self._eq[x]

    def ne_masks(self, x: int) -> tuple[int, ...]:
        """Bitmask of hypotheses with h(x) != y, for every label y in label
        order: full_mask & ~eq_mask(x, y)."""
        return self._ne[x]

    def check_instance(self, x: int) -> None:
        if not 0 <= x < self.n:
            raise ValueError(f"instance {x} outside [0, {self.n})")

    def check_label(self, y: int) -> None:
        if not 0 <= y < self.k:
            raise ValueError(f"label {y} outside [0, {self.k})")

    def full_space(self) -> "VersionSpace":
        return VersionSpace(self, self.full_mask)

    def space(self, members: Iterable[int]) -> "VersionSpace":
        mask = 0
        for h in members:
            if not 0 <= h < self.size:
                raise ValueError(f"hypothesis index {h} out of range")
            mask |= 1 << h
        return VersionSpace(self, mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteClass):
            return NotImplemented
        return (self.name, self.n, self.k, self.table) == (
            other.name,
            other.n,
            other.k,
            other.table,
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FiniteClass({self.name!r}, n={self.n}, k={self.k}, |H|={self.size})"


def product_class(name: str, outer: FiniteClass, inner: FiniteClass) -> FiniteClass:
    """outer x inner on disjoint instance blocks, outer's instances first.

    Row i_outer * inner.size + i_inner joins those two rows, the order
    `itertools.product` yields, and the class records (outer, inner) as its
    `factors`.
    """
    fc = FiniteClass(name, outer.n + inner.n, outer.k, (a + b for a in outer.table for b in inner.table))
    fc.factors = (outer, inner)
    return fc


@dataclass(frozen=True)
class VersionSpace:
    """Subset of a FiniteClass's rows, stored as a canonical bitmask."""

    cls: FiniteClass
    mask: int

    def __post_init__(self) -> None:
        if not 0 <= self.mask <= self.cls.full_mask:
            raise ValueError(f"mask {self.mask:#x} outside the class universe")

    @property
    def size(self) -> int:
        return self.mask.bit_count()

    @property
    def is_empty(self) -> bool:
        return self.mask == 0

    def members(self) -> Iterator[int]:
        m = self.mask
        while m:
            low = m & -m
            yield low.bit_length() - 1
            m ^= low

    def restrict_eq(self, x: int, y: int) -> "VersionSpace":
        """Hypotheses of this space with h(x) == y."""
        self.cls.check_instance(x)
        self.cls.check_label(y)
        return VersionSpace(self.cls, self.mask & self.cls.eq_mask(x, y))

    def restrict_ne(self, x: int, y: int) -> "VersionSpace":
        """Hypotheses of this space with h(x) != y."""
        self.cls.check_instance(x)
        self.cls.check_label(y)
        return VersionSpace(self.cls, self.mask & self.cls.ne_masks(x)[y])

    def restrict_in(self, x: int, labels: Iterable[int]) -> "VersionSpace":
        """Hypotheses with h(x) in the given label set."""
        self.cls.check_instance(x)
        allowed_mask = 0
        for y in labels:
            self.cls.check_label(y)
            allowed_mask |= self.cls.eq_mask(x, y)
        return VersionSpace(self.cls, self.mask & allowed_mask)

    def class_error(self, seq: "LabeledSequence") -> int:
        """Minimum over members of the number of rounds whose allowed set is missed."""
        if self.is_empty:
            raise ValueError("class_error is undefined for an empty version space")
        _check_sequence(self.cls, seq)
        table = self.cls.table
        best = len(seq) + 1
        for h in self.members():
            row = table[h]
            misses = 0
            for ex in seq:
                if row[ex.x] not in ex.allowed:
                    misses += 1
                    if misses >= best:
                        break
            if misses < best:
                best = misses
                if best == 0:
                    break
        return best

    def __repr__(self) -> str:
        return f"VersionSpace({self.cls.name!r}, |V|={self.size})"


@dataclass(frozen=True)
class MultiLabelExample:
    """One round's instance together with its allowed label set."""

    x: int
    allowed: frozenset[int]

    def __post_init__(self) -> None:
        if type(self.x) is not int or self.x < 0:
            object.__setattr__(self, "x", _nonnegative_field(self.x, "instance"))
        allowed = frozenset(
            y if type(y) is int and y >= 0 else _nonnegative_field(y, "label") for y in self.allowed
        )
        object.__setattr__(self, "allowed", allowed)
        if not allowed:
            raise ValueError("allowed label set must be nonempty")


LabeledSequence = tuple[MultiLabelExample, ...]


def make_sequence(pairs: Iterable[tuple[int, Iterable[int]]]) -> LabeledSequence:
    return tuple(MultiLabelExample(x, frozenset(labels)) for x, labels in pairs)


def _check_sequence(cls: FiniteClass, seq: LabeledSequence) -> None:
    for ex in seq:
        cls.check_instance(ex.x)
        for y in ex.allowed:
            cls.check_label(y)


# ---------------------------------------------------------------------------
# serialization: both formats are plain JSON and round-trip exactly
# ---------------------------------------------------------------------------


def load_class(text: str) -> FiniteClass:
    """Parse a class document: {"name": ..., "n": ..., "k": ..., "rows": [[...], ...]},
    with "factors": [outer document, inner document] beside "rows" for a
    product (see `dumps_class`)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"malformed class document: {err}") from err
    return _class_from_doc(doc, {})


def _class_from_doc(doc: object, loaded: dict[FiniteClass, FiniteClass]) -> FiniteClass:
    """The class of a parsed document.  A product is rebuilt through
    `product_class` from its factors and must have the document's rows; equal
    factors load as one object (`loaded`), as `catalog` shares one block."""
    if not isinstance(doc, dict):
        raise ValueError("malformed class document: expected a JSON object")
    try:
        n, k, rows = doc["n"], doc["k"], doc["rows"]
    except KeyError as err:
        raise ValueError(f"class document missing field {err}") from err
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ValueError("class document field 'rows' must be a list of lists")
    # FiniteClass refuses counts and labels that are not integers
    fc = FiniteClass(doc.get("name", "unnamed"), n, k, rows)
    if "factors" in doc:
        factors = doc["factors"]
        if not isinstance(factors, list) or len(factors) != 2:
            raise ValueError("class document field 'factors' must list two class documents")
        outer, inner = (_class_from_doc(factor, loaded) for factor in factors)
        product = product_class(fc.name, outer, inner)
        if (product.n, product.k, product.table) != (fc.n, fc.k, fc.table):
            raise ValueError(f"class {fc.name!r}: its rows are not the product of its factors")
        fc = product
    return loaded.setdefault(fc, fc)


def dumps_class(cls: FiniteClass) -> str:
    """The class document of cls; a product's carries its factors' documents,
    nested, so that it loads as a product again."""
    return json.dumps(_class_doc(cls), indent=2)


def _class_doc(cls: FiniteClass) -> dict:
    doc = {
        "name": cls.name,
        "n": cls.n,
        "k": cls.k,
        "rows": [list(row) for row in cls.table],
    }
    if cls.factors is not None:
        doc["factors"] = [_class_doc(factor) for factor in cls.factors]
    return doc


def read_class(path: str | Path) -> FiniteClass:
    return load_class(Path(path).read_text())


def load_sequence(text: str, cls: FiniteClass | None = None) -> LabeledSequence:
    """Parse a sequence document: a JSON list of {"x": ..., "allowed": [...]} records.
    Given a class, an instance outside [0, n) or a label outside [0, k) is
    refused too."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ValueError(f"malformed sequence document: {err}") from err
    if not isinstance(doc, list):
        raise ValueError("malformed sequence document: expected a JSON list")
    out = []
    for i, rec in enumerate(doc):
        if not isinstance(rec, dict) or "x" not in rec or "allowed" not in rec:
            raise ValueError(f"bad sequence record {i}: expected an object with 'x' and 'allowed'")
        allowed = rec["allowed"]
        if not isinstance(allowed, list):
            raise ValueError(f"record {i} allowed must be a list of labels, got {allowed!r}")
        try:  # MultiLabelExample refuses an instance or label that is not a nonnegative integer
            ex = MultiLabelExample(rec["x"], allowed)
            if cls is not None:
                _check_sequence(cls, (ex,))
            out.append(ex)
        except ValueError as err:
            raise ValueError(f"bad sequence record {i}: {err}") from None
    return tuple(out)


def dumps_sequence(seq: LabeledSequence) -> str:
    doc = [{"x": ex.x, "allowed": sorted(ex.allowed)} for ex in seq]
    return json.dumps(doc, indent=2)


def read_sequence(path: str | Path, cls: FiniteClass | None = None) -> LabeledSequence:
    return load_sequence(Path(path).read_text(), cls)


def write_sequence(seq: LabeledSequence, path: str | Path) -> None:
    Path(path).write_text(dumps_sequence(seq))
