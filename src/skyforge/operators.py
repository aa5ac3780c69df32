"""Bitmap-encoded search states and the one-flip Augment/Reduct operators.

A state is fully determined by its bitmap: one bit per (attribute, literal)
pair of the universal table, attribute presence being implied by having at
least one value bit set.  Two equal bitmaps always materialize cell-identical
datasets, so bitmaps serve as state keys everywhere.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import and_
from typing import Iterable, Optional

import numpy as np

from .errors import ArgumentError, DegenerateStateError, InapplicableOperatorError
from .tabular import Literal, Relation, UniversalTable

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class Bitmap:
    """Fixed-length bit vector over the universal (attribute, literal) pairs."""

    bits: int
    length: int

    def test(self, i: int) -> bool:
        return bool(self.bits >> i & 1)

    def with_bit(self, i: int, value: bool) -> "Bitmap":
        if value:
            return Bitmap(self.bits | (1 << i), self.length)
        return Bitmap(self.bits & ~(1 << i), self.length)

    def ones(self) -> list:
        return [i for i in range(self.length) if self.bits >> i & 1]

    def popcount(self) -> int:
        return self.bits.bit_count()

    def contains(self, other: "Bitmap") -> bool:
        """True when ``other``'s set bits are a subset of this bitmap's."""
        return other.bits & ~self.bits == 0

    def to_hex(self) -> str:
        width = (self.length + 3) // 4
        return format(self.bits, f"0{max(width, 1)}x")

    @classmethod
    def from_hex(cls, text: str, length: int) -> "Bitmap":
        return cls(int(text, 16), length)

    def __str__(self):
        return "".join("1" if self.test(i) else "0" for i in range(self.length))


@dataclass(frozen=True)
class SearchState:
    """A node of the running graph: bitmap, depth, and (once valuated) its
    performance vector."""

    bitmap: Bitmap
    level: int = 0
    perf: Optional[object] = None

    def valuated(self, perf) -> "SearchState":
        return SearchState(self.bitmap, self.level, perf)


@dataclass(frozen=True)
class Transition:
    """One-flip edge of the running graph."""

    source: Bitmap
    kind: str  # "reduct" | "augment"
    literal: Literal
    target: Bitmap

    def __post_init__(self):
        if (self.source.bits ^ self.target.bits).bit_count() != 1:
            raise ArgumentError("transitions must differ in exactly one bit")


class _LruCache:
    def __init__(self, capacity: int):
        self.capacity = capacity
        self._data: OrderedDict = OrderedDict()

    def get(self, key):
        if key in self._data:
            self._data.move_to_end(key)
            return self._data[key]
        return None

    def put(self, key, value):
        self._data[key] = value
        self._data.move_to_end(key)
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)


def _mask_of(flags) -> int:
    """Row mask (bit r set for each true ``flags[r]``) of a boolean sequence."""
    packed = np.packbits(np.asarray(flags, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


@dataclass(frozen=True)
class ColumnarView:
    """Column arrays of the universal relation, for scoring a state from its
    row mask without materializing its rows."""

    values: np.ndarray  # rows x attributes, NaN for null and non-numeric cells
    column: dict        # attribute -> column of ``values``
    number: dict        # attribute -> row mask of int/float cells (bools count)
    non_numeric: dict   # attribute -> row mask of non-null bool or non-number cells
    weights: np.ndarray  # row multiplicities


class StateSpace:
    """Materialization and transition engine over one universal table.

    Row membership per (attribute, literal) bit is precomputed as integer
    bitsets, so row counts and filters cost a few word operations per
    attribute.  Materialized relations go through a bounded LRU cache since
    most explored states are never output; estimators that only need
    numbers read the lazily built ``columns`` view instead.
    """

    def __init__(self, universal: UniversalTable, protected: Iterable[str] = (),
                 cache_size: int = 256):
        self.universal = universal
        self.protected = tuple(a for a in protected if a)
        for a in self.protected:
            if a not in universal.schema:
                raise ArgumentError(f"protected attribute {a!r} not in universal schema")
        self.bit_attrs: list = []
        self.bit_literals: list = []
        self.attr_bits: dict = {}
        self._attr_field: dict = {}  # attribute -> its bits as a bitmap mask
        for a in universal.schema:
            lits = universal.literals(a)
            start = len(self.bit_literals)
            for lit in lits:
                self.bit_attrs.append(a)
                self.bit_literals.append(lit)
            self.attr_bits[a] = tuple(range(start, len(self.bit_literals)))
            self._attr_field[a] = ((1 << len(lits)) - 1) << start
        self.n_bits = len(self.bit_literals)
        if self.n_bits == 0:
            raise ArgumentError("universal table has no literals; derive them first")

        rel = universal.relation
        self._n_rows = len(rel.rows)
        self._all_rows_mask = (1 << self._n_rows) - 1
        self._null_mask = {}
        self._bit_mask = [0] * self.n_bits
        for a in universal.schema:
            cells = rel.column(a)
            self._null_mask[a] = _mask_of([v is None for v in cells])
            # cluster index per row; NaN where the cell is null or in no cluster
            clusters = np.array([universal.cluster_of(a, v) for v in cells], dtype=float)
            for k, i in enumerate(self.attr_bits[a]):
                self._bit_mask[i] = _mask_of(clusters == k)

        self._row_count_cache: dict = {}
        self._dataset_cache = _LruCache(cache_size)
        self._weights = rel.row_weights
        weights = np.array(self._weights, dtype=np.int64)
        # plane k holds the rows whose weight has bit k set, so a weighted
        # count is a handful of popcounts
        self._weight_planes = [_mask_of(weights >> k & 1)
                               for k in range(max(self._weights, default=0).bit_length())]

    @cached_property
    def columns(self) -> ColumnarView:
        """The universal relation as a float matrix plus per-column masks of
        numeric and non-numeric cells, built on first use."""
        rel = self.universal.relation
        values = np.full((self._n_rows, len(rel.schema)), np.nan)
        number, non_numeric = {}, {}
        for c, a in enumerate(rel.schema):
            cells = rel.column(a)
            is_number = [isinstance(v, (int, float)) for v in cells]
            values[:, c] = [float(v) if ok else np.nan for v, ok in zip(cells, is_number)]
            number[a] = _mask_of(is_number)
            non_numeric[a] = _mask_of([
                v is not None and (isinstance(v, bool) or not ok)
                for v, ok in zip(cells, is_number)
            ])
        return ColumnarView(values, {a: c for c, a in enumerate(rel.schema)},
                            number, non_numeric, np.array(self._weights, dtype=np.int64))

    # -- bitmap construction -------------------------------------------------

    def full_bitmap(self) -> Bitmap:
        return Bitmap((1 << self.n_bits) - 1 if self.n_bits else 0, self.n_bits)

    def bitmap_from_bits(self, indices: Iterable[int]) -> Bitmap:
        bits = 0
        for i in indices:
            bits |= 1 << i
        return Bitmap(bits, self.n_bits)

    def bit_of(self, literal: Literal) -> int:
        for i in self.attr_bits.get(literal.attribute, ()):
            if self.bit_literals[i].value == literal.value:
                return i
        raise ArgumentError(f"no bit for literal {literal!r}")

    def root_state(self) -> SearchState:
        return SearchState(self.full_bitmap(), level=0)

    # -- semantics -----------------------------------------------------------

    def row_indices(self, mask: int) -> np.ndarray:
        """Ascending indices of the rows set in a row mask."""
        raw = np.frombuffer(mask.to_bytes((self._n_rows + 7) // 8, "little"), dtype=np.uint8)
        return np.flatnonzero(np.unpackbits(raw, count=self._n_rows, bitorder="little"))

    def _allowed(self, attribute: str, bits: int) -> int:
        """Rows attribute ``attribute`` keeps under bitmap ``bits``: every row
        when none of its bits is set (column absent), else its nulls plus the
        rows of each retained value cluster."""
        present = bits & self._attr_field[attribute]
        if not present:
            return self._all_rows_mask
        allowed = self._null_mask[attribute]
        for i in self.attr_bits[attribute]:
            if present >> i & 1:
                allowed |= self._bit_mask[i]
        return allowed

    def _count(self, mask: int) -> int:
        return sum((mask & plane).bit_count() << k
                   for k, plane in enumerate(self._weight_planes))

    def row_mask(self, bitmap: Bitmap) -> int:
        cached = self._row_count_cache.get(bitmap.bits)
        if cached is not None:
            return cached[0]
        mask = self._all_rows_mask
        for a in self.universal.schema:
            mask &= self._allowed(a, bitmap.bits)
        self._row_count_cache[bitmap.bits] = (mask, self._count(mask))
        return mask

    def row_count(self, bitmap: Bitmap) -> int:
        """Expanded (multiplicity-weighted) number of surviving rows."""
        self.row_mask(bitmap)
        return self._row_count_cache[bitmap.bits][1]

    def active_attributes(self, bitmap: Bitmap) -> list:
        return [a for a in self.universal.schema if bitmap.bits & self._attr_field[a]]

    def is_degenerate(self, bitmap: Bitmap) -> bool:
        if bitmap.bits == 0:
            return True
        return self.row_count(bitmap) == 0

    def dataset(self, bitmap: Bitmap) -> Relation:
        """Materialize the state's table (schema-projected, row-filtered)."""
        cached = self._dataset_cache.get(bitmap.bits)
        if cached is not None:
            return cached
        rel = self.universal.relation
        attrs = self.active_attributes(bitmap)
        cols = [rel.schema.index(a) for a in attrs]
        kept = self.row_indices(self.row_mask(bitmap)).tolist()
        result = Relation("state", tuple(attrs),
                          tuple(tuple(rel.rows[r][c] for c in cols) for r in kept),
                          weights=tuple(self._weights[r] for r in kept))
        self._dataset_cache.put(bitmap.bits, result)
        return result

    # -- operators -----------------------------------------------------------

    def apply_reduct(self, state: SearchState, literal: Literal) -> SearchState:
        i = self.bit_of(literal)
        if not state.bitmap.test(i):
            raise InapplicableOperatorError(f"value bit for {literal!r} already clear")
        child = state.bitmap.with_bit(i, False)
        if self.is_degenerate(child):
            raise DegenerateStateError(f"reduct by {literal!r} empties the dataset")
        return SearchState(child, state.level + 1)

    def apply_augment(self, state: SearchState, literal: Literal) -> SearchState:
        i = self.bit_of(literal)
        if state.bitmap.test(i):
            raise InapplicableOperatorError(f"value bit for {literal!r} already set")
        child = state.bitmap.with_bit(i, True)
        return SearchState(child, state.level + 1)

    def op_gen(self, state: SearchState, direction: str):
        """All applicable one-flip children with their transitions.

        Forward yields reducts, backward yields augments, attributes in
        schema order and literals in derivation order.  Children with empty
        datasets are skipped, as are bits of protected attributes.  A child
        differs from its parent in one attribute, so its row mask is the
        parent's other attributes' masks (prefix and suffix ANDs) and the
        flipped attribute's new mask; every child's (mask, count) is cached.
        """
        if direction not in (FORWARD, BACKWARD):
            raise ArgumentError(f"unknown direction {direction!r}")
        out = []
        want_set = direction == FORWARD
        kind = "reduct" if want_set else "augment"
        bits = state.bitmap.bits
        schema = self.universal.schema
        allowed = [self._allowed(a, bits) for a in schema]
        # before[j] is the AND of allowed[:j], after[j] the AND of allowed[j:]
        before = list(accumulate(allowed, and_, initial=self._all_rows_mask))
        after = list(accumulate(reversed(allowed), and_, initial=self._all_rows_mask))[::-1]
        cache = self._row_count_cache
        for j, a in enumerate(schema):
            if a in self.protected:
                continue
            others = before[j] & after[j + 1]
            for i in self.attr_bits[a]:
                if bool(bits >> i & 1) != want_set:
                    continue
                child_bits = bits ^ (1 << i)
                if not child_bits:
                    continue
                entry = cache.get(child_bits)
                if entry is None:
                    mask = others & self._allowed(a, child_bits)
                    entry = cache[child_bits] = (mask, self._count(mask))
                if entry[1] == 0:
                    continue
                child = Bitmap(child_bits, state.bitmap.length)
                transition = Transition(state.bitmap, kind, self.bit_literals[i], child)
                out.append((SearchState(child, state.level + 1), transition))
        return out
