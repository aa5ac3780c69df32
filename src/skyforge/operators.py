"""Bitmap-encoded search states and the one-flip Augment/Reduct operators.

A state is fully determined by its bitmap: one bit per (attribute, literal)
pair of the universal table, attribute presence being implied by having at
least one value bit set.  Two equal bitmaps always materialize cell-identical
datasets, so bitmaps serve as state keys everywhere.

``StateSpace.op_gen`` returns children as plain ``int`` bitmaps: the walk
deduplicates them and wraps only the distinct ones it keeps in a
``SearchState``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate, repeat
from operator import and_, itemgetter
from typing import Iterable, Optional

import numpy as np

from .errors import ArgumentError
from .tabular import Literal, Relation, UniversalTable, _csv_cell, _csv_lines

FORWARD = "forward"
BACKWARD = "backward"


@dataclass(frozen=True)
class Bitmap:
    """Fixed-length bit vector over the universal (attribute, literal) pairs."""

    bits: int
    length: int

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


@dataclass(frozen=True)
class SearchState:
    """An unvaluated node of the running graph: its bitmap.  A valuated
    state is its ``measures.LogEntry``."""

    bitmap: Bitmap


def _powers_in(low: int, high: int) -> int:
    """Mask of the bit positions ``i`` with ``low <= 2**i < high``."""
    below_high = (1 << (high - 1).bit_length()) - 1 if high > 1 else 0
    below_low = (1 << (low - 1).bit_length()) - 1 if low > 1 else 0
    return below_high & ~below_low


def _mask_of(flags) -> int:
    """Row mask (bit r set for each true ``flags[r]``) of a boolean sequence."""
    packed = np.packbits(np.asarray(flags, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


@dataclass(frozen=True)
class ColumnarView:
    """Column arrays of the universal relation, for scoring a state from its
    row mask without materializing its rows.

    Besides the arrays, a view keeps what every estimate would otherwise
    rebuild: whether all weights are 1 (``unit_weights``), the row split
    patterns of ``every_nth`` and one float ``workspace``.
    """

    values: np.ndarray  # rows x attributes, NaN for null and non-numeric cells
    column: dict        # attribute -> column of ``values``
    number: dict        # attribute -> row mask of int/float cells (bools count)
    non_numeric: dict   # attribute -> row mask of non-null bool or non-number cells
    weights: np.ndarray  # row multiplicities
    # one flat float buffer, kept for the view's lifetime (see ``workspace``)
    _buffer: list = field(default_factory=lambda: [np.empty(0)], repr=False, compare=False)
    # stride -> (rest, picked) patterns over every expanded row (see ``every_nth``)
    _patterns: dict = field(default_factory=dict, repr=False, compare=False)

    @cached_property
    def unit_weights(self) -> bool:
        """Every row has multiplicity 1, so a row list is already expanded."""
        return bool((self.weights == 1).all())

    def every_nth(self, stride: int, n: int) -> tuple:
        """``(rest, picked)`` bool patterns of ``n`` expanded rows: ``picked``
        marks rows ``stride - 1``, ``2 * stride - 1``, ... and ``rest`` the
        others.  Built once per stride over all expanded rows and sliced, so
        ``picked`` holds ``n // stride`` rows."""
        patterns = self._patterns.get(stride)
        if patterns is None:
            picked = np.arange(int(self.weights.sum())) % stride == stride - 1
            patterns = self._patterns[stride] = (~picked, picked)
        return patterns[0][:n], patterns[1][:n]

    def workspace(self, *sizes: int) -> list:
        """Flat float arrays of the given sizes, consecutive views into one
        buffer that grows when too small and is otherwise reused, so repeated
        estimates write to pages already mapped instead of faulting new ones
        in.  A call's arrays overwrite the previous call's."""
        if self._buffer[0].size < sum(sizes):
            self._buffer[0] = np.empty(sum(sizes))
        buffer = self._buffer[0]
        return [buffer[end - size:end] for size, end in zip(sizes, accumulate(sizes))]


class StateSpace:
    """Materialization and transition engine over one universal table.

    Row membership per (attribute, literal) bit is precomputed as integer
    bitsets, so row counts and filters cost a few word operations per
    attribute.  Estimators that only need numbers read the lazily built
    ``columns`` view instead of materializing relations.
    """

    def __init__(self, universal: UniversalTable, protected: Iterable[str] = ()):
        self.universal = universal
        self.protected = tuple(a for a in protected if a)
        for a in self.protected:
            if a not in universal.schema:
                raise ArgumentError(f"protected attribute {a!r} not in universal schema")
        self.bit_literals: list = []
        self.attr_bits: dict = {}
        self._attr_field: dict = {}  # attribute -> its bits as a bitmap mask
        self._bit_attribute: list = []  # bit index -> (schema index, attribute)
        for j, a in enumerate(universal.schema):
            lits = universal.literals(a)
            start = len(self.bit_literals)
            self.bit_literals.extend(lits)
            self.attr_bits[a] = tuple(range(start, len(self.bit_literals)))
            self._attr_field[a] = ((1 << len(lits)) - 1) << start
            self._bit_attribute += [(j, a)] * len(lits)
        self.n_bits = len(self.bit_literals)
        if self.n_bits == 0:
            raise ArgumentError("universal table has no literals; derive them first")
        self.free_bits = (1 << self.n_bits) - 1  # bits op_gen may flip: all but protected
        for a in self.protected:
            self.free_bits &= ~self._attr_field[a]

        rel = universal.relation
        self._n_rows = len(rel.rows)
        self._all_rows_mask = (1 << self._n_rows) - 1
        self._null_mask = {}
        self._bit_mask = [0] * self.n_bits
        for a in universal.schema:
            cells = rel.column(a)
            self._null_mask[a] = _mask_of([v is None for v in cells])
            # cluster index per row; -1 where the cell is null or in no cluster
            table = universal._cluster_tables.get(a, {})
            clusters = np.fromiter(map(table.get, cells, repeat(-1)), np.intp, len(cells))
            for k, i in enumerate(self.attr_bits[a]):
                self._bit_mask[i] = _mask_of(clusters == k)

        self._row_count_cache: dict = {}
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
            # one pass over the cells: 0 null, 1 number, 2 bool (a number too), 3 other
            kind = np.array([(2 if isinstance(v, bool) else 1) if isinstance(v, (int, float))
                             else 0 if v is None else 3 for v in cells], dtype=np.int8)
            is_number = (kind == 1) | (kind == 2)
            values[is_number, c] = np.array(cells, dtype=object)[is_number]
            number[a], non_numeric[a] = _mask_of(is_number), _mask_of(kind >= 2)
        return ColumnarView(values, {a: c for c, a in enumerate(rel.schema)},
                            number, non_numeric, np.array(self._weights, dtype=np.int64))

    # -- bitmap construction -------------------------------------------------

    def full_bitmap(self) -> Bitmap:
        return Bitmap((1 << self.n_bits) - 1, self.n_bits)

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
        return SearchState(self.full_bitmap())

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
        total = 0
        for k, plane in enumerate(self._weight_planes):
            total += (mask & plane).bit_count() << k
        return total

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

    @cached_property
    def _csv(self) -> tuple:
        """Every universal cell rendered once by ``_csv_cell``, row by row,
        and every universal row's whole CSV line."""
        cells = [tuple(map(_csv_cell, row)) for row in self.universal.relation.rows]
        return cells, _csv_lines(cells, len(self.universal.schema))

    def dataset(self, bitmap: Bitmap) -> Relation:
        """Materialize the state's table (schema-projected, row-filtered) with its CSV lines."""
        rel, (cells, full_lines) = self.universal.relation, self._csv
        attrs = self.active_attributes(bitmap)
        kept = self.row_indices(self.row_mask(bitmap)).tolist()
        rows, lines = map(rel.rows.__getitem__, kept), map(full_lines.__getitem__, kept)
        if len(attrs) < len(rel.schema):
            cols = [rel.schema.index(a) for a in attrs]
            # itemgetter returns a bare cell, not a tuple, for one column
            pick = itemgetter(*cols) if len(cols) > 1 else lambda row: tuple(row[c] for c in cols)
            rows = map(pick, rows)
            lines = _csv_lines(map(pick, map(cells.__getitem__, kept)), len(cols))
        return Relation("state", tuple(attrs), rows,
                        weights=list(map(self._weights.__getitem__, kept)), lines=lines)

    # -- operators -----------------------------------------------------------

    def apply_reduct(self, state: SearchState, literal: Literal) -> SearchState:
        bit, bits = 1 << self.bit_of(literal), state.bitmap.bits
        if not bits & bit:
            raise ArgumentError(f"value bit for {literal!r} already clear")
        child = Bitmap(bits & ~bit, state.bitmap.length)
        if self.is_degenerate(child):
            raise ArgumentError(f"reduct by {literal!r} empties the dataset")
        return SearchState(child)

    def apply_augment(self, state: SearchState, literal: Literal) -> SearchState:
        bit, bits = 1 << self.bit_of(literal), state.bitmap.bits
        if bits & bit:
            raise ArgumentError(f"value bit for {literal!r} already set")
        return SearchState(Bitmap(bits | bit, state.bitmap.length))

    def op_gen(self, state: SearchState, direction: str, lo: int = 0,
               hi: Optional[int] = None) -> list:
        """The bitmaps (ints) of every applicable one-flip child ``c`` of
        ``state`` (only its bitmap is read, so a valuated ``LogEntry`` will
        do) with ``lo <= c < hi`` (``hi`` None: no upper limit).

        Forward flips set bits off (reducts), backward flips clear bits on
        (augments), in ascending bit order: attributes in schema order,
        literals in derivation order.  Children with empty datasets are
        skipped, as are bits of protected attributes.  A reduct of bit ``i``
        is ``bits - 2**i`` and an augment ``bits + 2**i``, so the range is a
        window of bit positions, and no child outside it is built.  A child
        differs from its parent in one attribute, so on a row-count cache
        miss its row mask is the parent's other attributes' masks (prefix
        and suffix ANDs, built on the call's first miss) and the flipped
        attribute's new mask; every built child's (mask, count) is cached.
        """
        if direction not in (FORWARD, BACKWARD):
            raise ArgumentError(f"unknown direction {direction!r}")
        bits = state.bitmap.bits
        if direction == FORWARD and not bits & (bits - 1):
            return []  # reducts of at most one set bit leave the empty bitmap
        if hi is None and lo <= 0:  # every bit position is in the window
            flippable = bits if direction == FORWARD else ~bits
        else:
            hi = 1 << self.n_bits if hi is None else hi  # above every bitmap
            if direction == FORWARD:  # lo <= bits - 2**i < hi
                flippable = bits & _powers_in(bits - hi + 1, bits - lo + 1)
            else:  # lo <= bits + 2**i < hi
                flippable = ~bits & _powers_in(lo - bits, hi - bits)
        flippable &= self.free_bits
        cache = self._row_count_cache
        others = None  # schema index -> AND of the parent's other attributes' masks
        out = []
        while flippable:  # set bits, lowest first: ascending child order
            flip = flippable & -flippable
            flippable ^= flip
            child = bits ^ flip
            entry = cache.get(child)
            if entry is None:
                if others is None:
                    allowed = [self._allowed(x, bits) for x in self.universal.schema]
                    # before[k] is the AND of allowed[:k], after[k] of allowed[k:]
                    before = list(accumulate(allowed, and_, initial=self._all_rows_mask))
                    after = list(accumulate(reversed(allowed), and_,
                                            initial=self._all_rows_mask))[::-1]
                    others = [b & c for b, c in zip(before, after[1:])]
                j, a = self._bit_attribute[flip.bit_length() - 1]
                mask = others[j] & self._allowed(a, child)
                entry = cache[child] = (mask, self._count(mask))
            if entry[1]:
                out.append(child)
        return out
