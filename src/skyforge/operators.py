"""Bitmap-encoded search states and the one-flip Augment/Reduct operators.

A state is its ``Bitmap``: one bit per (attribute, literal) pair of the
universal table, attribute presence being implied by having at least one
value bit set.  Two equal bitmaps always materialize cell-identical datasets,
so bitmaps serve as state keys everywhere, and estimators are called as
``estimate(bitmap, space, upcoming=())``.

``StateSpace.op_gen`` expands a whole frontier of ``int`` bitmaps at once: it
returns each distinct child once, as a plain ``int`` bitmap with its
lowest-index parent.  ``SearchState`` and ``apply_reduct``/``apply_augment``
exist only to replay manifest provenance one named literal at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import accumulate
from operator import and_, itemgetter
from typing import Iterable, Optional, Sequence

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
    """A bitmap as the provenance replay operators ``apply_reduct`` and
    ``apply_augment`` take and return it."""

    bitmap: Bitmap


def _powers_in(low: int, high: int) -> int:
    """Mask of the bit positions ``i`` with ``low <= 2**i < high``."""
    below_high = (1 << (high - 1).bit_length()) - 1 if high > 1 else 0
    below_low = (1 << (low - 1).bit_length()) - 1 if low > 1 else 0
    return below_high & ~below_low


def _row_masks(flags: np.ndarray) -> list:
    """Row mask (bit r set for each true ``flags[i, r]``) of each line ``i``."""
    size = (flags.shape[1] + 7) // 8
    raw = np.packbits(flags, axis=1, bitorder="little").tobytes()
    return [int.from_bytes(raw[i * size:i * size + size], "little") for i in range(len(flags))]


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

        rel, schema, n_bits = universal.relation, universal.schema, self.n_bits
        n, width = len(rel.rows), len(schema)
        self._n_rows, self._all_rows_mask = n, (1 << n) - 1
        # Columns are coded over their distinct cell objects, told apart by
        # identity (0.0 and -0.0, or 1, 1.0 and True, differ in kind or text):
        # ``_codes[r, j]`` indexes cell (r, j)'s object in ``_distinct``, whose
        # slot is its cluster's bit, else its column's null or the clusterless slot.
        first_at, firsts, self._distinct, slots = [], [], [], []
        for j, (a, cells) in enumerate(zip(schema, zip(*rel.rows))):
            first: dict = {}  # object id -> its first position j * n + r
            first_at += map(first.setdefault, map(id, cells), range(j * n, j * n + n))
            objects = [cells[p - j * n] for p in first.values()]
            firsts += first.values()
            table, slot_of = universal._cluster_tables.get(a, {}), self.attr_bits[a]
            slots += [n_bits + j if v is None else slot_of[table[v]] if v in table
                      else n_bits + width for v in objects]
            self._distinct += objects
        code = np.empty(n * width, np.intp)
        code[firsts] = np.arange(len(firsts))
        self._codes = code[np.fromiter(first_at, np.intp, n * width).reshape(width, n).T]

        self._row_count_cache: dict = {}
        self._weights = rel.row_weights
        # one line per slot, then plane k: the rows whose weight has bit k
        # set, so a weighted count is a handful of popcounts
        planes = max(self._weights, default=0).bit_length()
        flags = np.zeros((n_bits + width + 1 + planes, n), bool)
        flags[np.array(slots, dtype=np.intp)[self._codes], np.arange(n)[:, None]] = True
        flags[n_bits + width + 1:] = np.array(self._weights, int) >> np.arange(planes)[:, None] & 1
        masks = _row_masks(flags)
        self._bit_mask, self._weight_planes = masks[:n_bits], masks[n_bits + width + 1:]
        self._null_mask = dict(zip(schema, masks[n_bits:]))

    @cached_property
    def columns(self) -> ColumnarView:
        """The universal relation as a float matrix plus per-column masks of
        numeric and non-numeric cells, built on first use."""
        schema = self.universal.schema
        # per distinct cell object: whether it is a number (bools count), and
        # whether it is a non-null bool or non-number
        number = [isinstance(v, (int, float)) for v in self._distinct]
        other = [v is not None and (isinstance(v, bool) or not k) for v, k in zip(self._distinct, number)]
        floats = np.array([float(v) if k else np.nan for v, k in zip(self._distinct, number)])
        masks = _row_masks(np.array([number, other], bool)[:, self._codes.T].reshape(2 * len(schema), -1))
        # row-major, as estimators gather whole rows
        values = np.ascontiguousarray(floats[self._codes])
        return ColumnarView(values, {a: c for c, a in enumerate(schema)}, dict(zip(schema, masks)),
                            dict(zip(schema, masks[len(schema):])), np.array(self._weights, dtype=np.int64))

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
        """Every universal cell as ``_csv_cell`` renders each distinct object
        once, row by row, and every universal row's whole CSV line."""
        cells = np.array(list(map(_csv_cell, self._distinct)), dtype=object)[self._codes].tolist()
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

    def op_gen(self, parent_bits: Sequence[int], direction: str, lo: int = 0,
               hi: Optional[int] = None) -> list:
        """``(child, index)`` for every distinct applicable one-flip child of
        the parents' ``int`` bitmaps with ``lo <= child < hi`` (``hi`` None:
        no upper limit), in ascending child order, ``index`` being the
        lowest index of a parent that generates the child.

        Forward flips set bits off (reducts), backward flips clear bits on
        (augments).  Children with empty datasets are skipped, as are bits
        of protected attributes.  A reduct of bit ``i`` is ``bits - 2**i``
        and an augment ``bits + 2**i``, so the range is a window of bit
        positions, and no child outside it is built.

        Every child is first mapped to its lowest-index parent; only then is
        each distinct child looked up once in the row-count cache, and a
        missing one's (mask, count) built and cached.  A child differs from
        that parent in one attribute, so when the parent's mask is cached
        the child's is one AND away for a reduct that leaves the attribute
        another cluster (the parent's mask without the flipped cluster's
        rows) or an augment of an absent attribute (the parent's mask with
        the attribute's nulls and the cluster's rows).  Otherwise it is the
        AND of the parent's other attributes' masks (prefix and suffix
        ANDs, built once per parent on first need) and the flipped
        attribute's new mask.
        """
        if direction not in (FORWARD, BACKWARD):
            raise ArgumentError(f"unknown direction {direction!r}")
        forward, free = direction == FORWARD, self.free_bits
        windowed = hi is not None or lo > 0
        hi = 1 << self.n_bits if hi is None else hi  # above every bitmap
        first: dict = {}  # child bits -> lowest parent index
        for index in range(len(parent_bits) - 1, -1, -1):  # lower indices write last
            bits = parent_bits[index]
            if forward:
                if not bits & (bits - 1):
                    continue  # reducts of at most one set bit leave the empty bitmap
                flippable = bits & free
                if windowed:  # lo <= bits - 2**i < hi
                    flippable &= _powers_in(bits - hi + 1, bits - lo + 1)
            else:
                flippable = ~bits & free
                if windowed:  # lo <= bits + 2**i < hi
                    flippable &= _powers_in(lo - bits, hi - bits)
            while flippable:
                flip = flippable & -flippable
                flippable ^= flip
                first[bits ^ flip] = index
        cache, out = self._row_count_cache, []
        others: dict = {}  # parent index -> AND of its other attributes' masks, by schema index
        for item in sorted(first.items()):
            child, index = item
            entry = cache.get(child)
            if entry is None:
                bits = parent_bits[index]
                i = (child ^ bits).bit_length() - 1
                j, a = self._bit_attribute[i]
                parent = cache.get(bits)
                if parent is not None and forward and child & self._attr_field[a]:
                    mask = parent[0] & ~self._bit_mask[i]  # ``a`` keeps another cluster
                elif parent is not None and not forward and not bits & self._attr_field[a]:
                    mask = parent[0] & (self._null_mask[a] | self._bit_mask[i])  # ``a`` was absent
                else:
                    if index not in others:
                        others[index] = self._others(bits)
                    mask = others[index][j] & self._allowed(a, child)
                entry = cache[child] = (mask, self._count(mask))
            if entry[1]:
                out.append(item)
        return out

    def _others(self, bits: int) -> list:
        """By schema index ``j``, the AND of every other attribute's mask
        under ``bits``: prefix and suffix ANDs of the attribute masks."""
        allowed = [self._allowed(a, bits) for a in self.universal.schema]
        # before[k] is the AND of allowed[:k], after[k] of allowed[k:]
        before = list(accumulate(allowed, and_, initial=self._all_rows_mask))
        after = list(accumulate(reversed(allowed), and_, initial=self._all_rows_mask))[::-1]
        return [b & c for b, c in zip(before, after[1:])]
