"""Bitmap-encoded search states and the one-flip Augment/Reduct operators.

A state is fully determined by its bitmap: one bit per (attribute, literal)
pair of the universal table, attribute presence being implied by having at
least one value bit set.  Two equal bitmaps always materialize cell-identical
datasets, so bitmaps serve as state keys everywhere.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import ArgumentError, DegenerateStateError, InapplicableOperatorError
from .tabular import Literal, Relation, UniversalTable

FORWARD = "forward"
BACKWARD = "backward"

_BYTE_BITS = [[i for i in range(8) if b >> i & 1] for b in range(256)]


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


class StateSpace:
    """Materialization and transition engine over one universal table.

    Row membership per (attribute, literal) bit is precomputed as integer
    bitsets, so row counts and filters cost a few word operations per
    attribute.  Materialized relations go through a bounded LRU cache since
    most explored states are never output.
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
        for a in universal.schema:
            lits = universal.literals(a)
            start = len(self.bit_literals)
            for lit in lits:
                self.bit_attrs.append(a)
                self.bit_literals.append(lit)
            self.attr_bits[a] = tuple(range(start, len(self.bit_literals)))
        self.n_bits = len(self.bit_literals)
        if self.n_bits == 0:
            raise ArgumentError("universal table has no literals; derive them first")

        rel = universal.relation
        n_rows = len(rel.rows)
        self._all_rows_mask = (1 << n_rows) - 1
        self._null_mask = {}
        self._bit_mask = [0] * self.n_bits
        col_index = {a: i for i, a in enumerate(rel.schema)}
        for a in universal.schema:
            ci = col_index[a]
            nulls = 0
            for r, row in enumerate(rel.rows):
                if row[ci] is None:
                    nulls |= 1 << r
            self._null_mask[a] = nulls
        for r, row in enumerate(rel.rows):
            for a in universal.schema:
                v = row[col_index[a]]
                if v is None:
                    continue
                cluster = universal.cluster_of(a, v)
                if cluster is None:
                    continue
                self._bit_mask[self.attr_bits[a][cluster]] |= 1 << r

        self._row_count_cache: dict = {}
        self._dataset_cache = _LruCache(cache_size)
        self._weights = rel.row_weights
        self._uniform_weights = all(w == 1 for w in self._weights)
        self._n_rows = n_rows

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

    def _set_indices(self, mask: int) -> list:
        out = []
        offset = 0
        for byte in mask.to_bytes((self._n_rows + 7) // 8, "little"):
            if byte:
                out.extend(offset + i for i in _BYTE_BITS[byte])
            offset += 8
        return out

    def row_mask(self, bitmap: Bitmap) -> int:
        cached = self._row_count_cache.get(bitmap.bits)
        if cached is not None:
            return cached[0]
        mask = self._all_rows_mask
        for a in self.universal.schema:
            bits = [i for i in self.attr_bits[a] if bitmap.test(i)]
            if not bits:
                continue  # attribute absent: no constraint
            allowed = self._null_mask[a]
            for i in bits:
                allowed |= self._bit_mask[i]
            mask &= allowed
        if self._uniform_weights:
            count = mask.bit_count()
        else:
            count = sum(self._weights[r] for r in self._set_indices(mask))
        self._row_count_cache[bitmap.bits] = (mask, count)
        return mask

    def row_count(self, bitmap: Bitmap) -> int:
        """Expanded (multiplicity-weighted) number of surviving rows."""
        self.row_mask(bitmap)
        return self._row_count_cache[bitmap.bits][1]

    def active_attributes(self, bitmap: Bitmap) -> list:
        return [a for a in self.universal.schema
                if any(bitmap.test(i) for i in self.attr_bits[a])]

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
        col_index = {a: i for i, a in enumerate(rel.schema)}
        mask = self.row_mask(bitmap)
        cols = [col_index[a] for a in attrs]
        rows = []
        weights = []
        for r in self._set_indices(mask):
            row = rel.rows[r]
            rows.append(tuple(row[c] for c in cols))
            weights.append(self._weights[r])
        result = Relation("state", tuple(attrs), tuple(rows), weights=tuple(weights))
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
        datasets are skipped, as are bits of protected attributes.
        """
        if direction not in (FORWARD, BACKWARD):
            raise ArgumentError(f"unknown direction {direction!r}")
        out = []
        want_set = direction == FORWARD
        kind = "reduct" if want_set else "augment"
        for a in self.universal.schema:
            if a in self.protected:
                continue
            for i in self.attr_bits[a]:
                if state.bitmap.test(i) != want_set:
                    continue
                child = state.bitmap.with_bit(i, not want_set)
                if self.is_degenerate(child):
                    continue
                transition = Transition(state.bitmap, kind, self.bit_literals[i], child)
                out.append((SearchState(child, state.level + 1), transition))
        return out
