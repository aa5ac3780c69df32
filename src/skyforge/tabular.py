"""Source tables, active domains, literals, and universal-table construction.

Cells are typed scalars (int, float, str) or None for null.  Nulls never
join and never appear in active domains.
"""

from __future__ import annotations

import csv
import math
import re
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from functools import cached_property
from types import MappingProxyType
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from .errors import ArgumentError

Cell = Any  # int | float | str | None


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _all_numbers(values, bools: bool = False) -> bool:
    """Whether every value is a number (or a bool, when ``bools``); each
    distinct type is tested once."""
    return all(issubclass(t, (int, float)) and (bools or not issubclass(t, bool))
               for t in set(map(type, values)))


# cells a blocked pairwise kernel (here, in the oracle and in search) holds
# at once, which bounds its memory for any number of points
_BLOCK_CELLS = 1 << 16

# below this many point-center pairs, the blocked scan's few numpy calls
# cost less than the many of ``_nearest_sorted``'s binary search
_SORTED_MIN_CELLS = 1 << 12

# the least int that float() cannot convert: it rounds up to 2**1024
_FLOAT_OVERFLOW_INT = 2**1024 - 2**970

# a cell that int() reads (spaces, a sign, Unicode decimal digits) but that is
# not str() of its int, among a column's cells each framed as ";cell,"
_INT_WRITTEN_OTHERWISE = re.compile(r";(?!(?:0|-?[1-9][0-9]*),)\s*[+-]?\d+\s*,")


def _row_blocks(n_rows: int, n_cols: int) -> list:
    """Slices cutting ``n_rows`` rows into blocks of at most ``_BLOCK_CELLS``
    cells against ``n_cols`` columns (one row a block when a row is larger)."""
    step = max(1, _BLOCK_CELLS // max(1, n_cols))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _nearest(points, centers) -> np.ndarray:
    """Index of each point's nearest center, ties to the lowest index.

    Equals ``min(range(len(centers)), key=lambda i: (abs(p - centers[i]), i))``
    for every point ``p``: float64 subtraction and ``abs`` round as Python
    floats do.  Python subtracts two ints exactly, so an int beyond 2**52
    (where a float64 difference may round) sends both sides through object
    arrays and Python's own arithmetic.  Finite ascending float centers take
    a binary search (``_nearest_sorted``) unless the input is small; all
    others take a blocked scan of every point against every center, where
    ``argmin`` keeps the first minimum.
    """
    p, c = _number_array(points), _number_array(centers)
    if p.dtype == object or c.dtype == object:
        p, c = p.astype(object), c.astype(object)
    elif (len(p) * len(c) > _SORTED_MIN_CELLS and np.isfinite(c[[0, -1]]).all()
          and not (c[1:] < c[:-1]).any() and not np.isnan(p).any()):
        return _nearest_sorted(p, c)
    out = np.empty(len(p), dtype=np.intp)
    # one block-sized array holds every block's distances, written in place:
    # a fresh pair of them per block costs a page fault per 4 KiB whenever
    # the allocator has handed that memory back to the system
    d = None
    with np.errstate(over="ignore"):  # a difference beyond float range is inf, as in Python
        for rows in _row_blocks(len(p), len(c)):
            block = p[rows, None]
            if d is None:
                d = block - c
            else:
                d = np.subtract(block, c, out=d[:len(block)])
            out[rows] = np.abs(d, out=d).argmin(axis=1)
    return out


def _nearest_sorted(p: np.ndarray, c: np.ndarray) -> np.ndarray:
    """``_nearest`` for float points (none NaN) and finite ascending float centers.

    Rounding is monotone, so ``abs(p - c[i])`` falls (or stays) as ``i``
    climbs to the last center below ``p`` and rises (or stays) from the
    first center at or above it.  The nearest distance is thus one of those
    two neighbours', the lower one winning a tie, and the lowest index with
    that distance starts the run of centers that share it, which a binary
    search finds when the center below the winner ties with it.
    """
    right = np.searchsorted(c, p)  # the first center >= p, clipped to the centers
    left, right = np.maximum(right - 1, 0), np.minimum(right, len(c) - 1)
    with np.errstate(over="ignore"):  # a difference beyond float range is inf, as in Python
        d_left, d_right = np.abs(p - c[left]), np.abs(p - c[right])
        take_left = d_left <= d_right
        out, d = np.where(take_left, left, right), np.minimum(d_left, d_right)
        tie = np.flatnonzero((out > 0) & (np.abs(p - c[out - 1]) <= d))
        if len(tie):
            lo, hi, pt, dt = np.zeros(len(tie), dtype=np.intp), out[tie] - 1, p[tie], d[tie]
            while (lo < hi).any():  # hi: the least index known to be at distance dt
                mid = (lo + hi) // 2
                ok = np.abs(pt - c[mid]) <= dt
                hi, lo = np.where(ok, mid, hi), np.where(ok, lo, mid + 1)
            out[tie] = hi
    return out


def _number_array(values) -> np.ndarray:
    if isinstance(values, np.ndarray):
        return values
    # the max of the magnitudes screens cheaply for an int beyond 2**52; it
    # is NaN, which fails ``<=``, when a NaN comes first, so it hides no int
    if (not max(map(abs, values), default=0) <= 2**52
            and any(type(v) is int and abs(v) > 2**52 for v in values)):
        return np.array(values, dtype=object)
    return np.array(values, dtype=np.float64)


def _sort_key(v):
    # adoms may mix ints, floats and bools; strings sort among themselves
    if isinstance(v, (int, float)):
        return (0, float(v), "")
    return (1, 0.0, str(v))


@dataclass(frozen=True)
class Relation:
    """A named table: ordered schema, rows of cells, per-attribute active domains."""

    name: str
    schema: tuple
    rows: tuple
    weights: Optional[tuple] = None  # row multiplicities from compression
    # each row as ``_csv_lines`` renders it, when the maker has it at hand
    lines: Optional[tuple] = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "rows", tuple(map(tuple, self.rows)))
        if len(set(self.schema)) != len(self.schema):
            raise ArgumentError(f"duplicate attribute names in schema of {self.name!r}")
        for width in set(map(len, self.rows)) - {len(self.schema)}:
            raise ArgumentError(f"row of width {width} does not match schema of width "
                                f"{len(self.schema)} in {self.name!r}")
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))
            if len(self.weights) != len(self.rows):
                raise ArgumentError("weights length must equal number of rows")
        if self.lines is not None:
            object.__setattr__(self, "lines", tuple(self.lines))

    def column(self, attribute: str) -> list:
        i = self.schema.index(attribute)
        return [r[i] for r in self.rows]

    def adom(self, attribute: str) -> tuple:
        """Distinct non-null values of a column, in ascending order; computed
        once per column, for literal derivation and the cluster tables alike."""
        adom = self._adoms.get(attribute)
        if adom is None:
            seen = {v for v in self.column(attribute) if v is not None}
            # on numbers and bools, _sort_key orders as float does
            key = float if _all_numbers(seen, bools=True) else _sort_key
            adom = self._adoms[attribute] = tuple(sorted(seen, key=key))
        return adom

    @cached_property
    def _adoms(self) -> dict:
        return {}

    @property
    def row_weights(self) -> tuple:
        return self.weights if self.weights is not None else (1,) * len(self.rows)

    @property
    def expanded_row_count(self) -> int:
        return sum(self.row_weights)


@dataclass(frozen=True)
class Literal:
    """Equality condition ``attribute = value`` on a value-cluster representative."""

    attribute: str
    value: Cell


@dataclass(frozen=True)
class UniversalTable:
    """Outer-joined pool table plus its derived value-cluster literals."""

    relation: Relation
    literal_index: dict = field(default_factory=dict)  # attribute -> tuple[Literal]

    def __post_init__(self):
        # a read-only copy, so no literal can change under _cluster_tables
        object.__setattr__(self, "literal_index", MappingProxyType(dict(self.literal_index)))

    @property
    def schema(self) -> tuple:
        return self.relation.schema

    def literals(self, attribute: str) -> tuple:
        return self.literal_index.get(attribute, ())

    @cached_property
    def _cluster_tables(self) -> dict:
        """Attribute -> {cell value: cluster index}, built on first use
        (``compress_rows`` gives its table these maps ready-made)."""
        tables = {}
        for a in self.schema:
            lits = self.literal_index.get(a)
            if not lits:
                continue
            values = [lit.value for lit in lits]
            adom = self.relation.adom(a)
            if _all_numbers(values):
                numbers, rest = adom, ()
                if not _all_numbers(adom):
                    numbers = [v for v in adom if _is_number(v)]
                    rest = [v for v in adom if not _is_number(v)]
                mapping = dict(zip(numbers, _nearest(numbers, values).tolist()))
            else:
                mapping, rest = {}, adom
            for v in rest:
                if v in values:
                    mapping[v] = values.index(v)
                # truncated categorical values map to no cluster
            tables[a] = mapping
        return tables


def _infer_column_types(header: Sequence[str], raw_rows: list) -> list:
    """Per-column parse as int, then float, then str; empty string is null.
    A column with an underscore stays str: ``int`` and ``float`` read
    "1_234" as 1234.  So does an int or float column with a cell that
    ``int`` reads but that is not ``str`` of its int: "012", "+12", " 12"
    and "-0" all read as an int that is written otherwise, and leading
    zeros are part of codes such as postal codes.  Each column comes back
    as its type and its cells."""
    typed = []
    # ingest_csv passes rows of the header's width, so zip cuts no column
    for cells in zip(*raw_rows) if raw_rows else [()] * len(header):
        joined = "".join(cells)
        for caster in (str,) if "_" in joined else (int, float, str):
            try:
                col = [None if c == "" else caster(c) for c in cells]
            except (TypeError, ValueError):
                continue
            if caster is not str and _has_int_written_otherwise(cells, joined, caster):
                caster, col = str, [c or None for c in cells]
            typed.append((caster, col))
            break
    return typed


def _has_int_written_otherwise(cells: Sequence[str], joined: str, caster: type) -> bool:
    """Whether a cell of a column that ``caster`` (``int`` or ``float``)
    reads is one that ``int`` reads but that is not ``str`` of its int.  A
    number holds at most one "." and ``int`` reads none that holds one, so
    a float column is searched only if some non-empty cell holds none."""
    if caster is float:
        dots = joined.count(".")
        if dots == len(cells) or dots == len(cells) - cells.count(""):
            return False
    # no cell that int() or float() reads holds ";" or ","
    return _INT_WRITTEN_OTHERWISE.search(";%s," % ",;".join(cells)) is not None


def ingest_csv(path: str, name: str) -> Relation:
    """Load an RFC-4180 CSV with a header row into a Relation."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # Excel writes a BOM
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise ArgumentError(f"{path}: empty CSV") from None
            raw = [row for row in reader]
    except OSError as exc:
        raise ArgumentError(f"{path}: cannot read CSV: {exc.strerror or exc}") from None
    for row in raw:
        if len(row) != len(header):
            raise ArgumentError(f"{path}: ragged row of width {len(row)}")
    cols = []
    for c, (kind, col) in enumerate(_infer_column_types(header, raw)):
        # a float column must be finite, an int column within float range
        cells = [v for v in col if v is not None]
        if kind is float and not all(map(math.isfinite, cells)):
            r = next(r for r, v in enumerate(col) if v is not None and not math.isfinite(v))
            raise ArgumentError(f"{path}: non-finite value {raw[r][c]!r} "
                                f"in column {header[c]!r}, row {r + 1}")
        if kind is int and max(map(abs, cells), default=0) >= _FLOAT_OVERFLOW_INT:
            r = next(r for r, v in enumerate(col) if v is not None and abs(v) >= _FLOAT_OVERFLOW_INT)
            raise ArgumentError(f"{path}: {col[r].bit_length()}-bit integer beyond "
                                f"float range in column {header[c]!r}, row {r + 1}")
        cols.append(col)
    rows = list(zip(*cols)) if cols and raw else []
    return Relation(name, tuple(header), tuple(rows))


def _csv_cell(v: Cell) -> str:
    """A cell as ``csv.writer`` (excel dialect, minimal quoting) renders it
    among other fields."""
    if isinstance(v, float):
        return repr(v)
    if v is None:
        return ""
    if isinstance(v, str):
        return v if {",", '"', "\r", "\n"}.isdisjoint(v) else '"' + v.replace('"', '""') + '"'
    return str(v)


def _csv_lines(rows: Iterable[Sequence[str]], width: int) -> list:
    """Rows of ``width`` rendered cells as CSV lines without terminators; a
    lone empty field is written ``""``, as ``csv.writer`` writes it."""
    if width == 1:
        return [cells[0] or '""' for cells in rows]
    return list(map(",".join, rows))


def write_csv(path: str, relation: Relation):
    """Write the header and the relation's rows, each repeated by its
    weight, byte for byte as ``csv.writer`` writes them."""
    width = len(relation.schema)
    header, = _csv_lines([tuple(map(_csv_cell, relation.schema))], width)
    lines = relation.lines
    if lines is None:
        lines = _csv_lines([tuple(map(_csv_cell, r)) for r in relation.rows], width)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write("".join([f"{header}\r\n"] +
                         [f"{line}\r\n" * w for line, w in zip(lines, relation.row_weights)]))


def _join_pairs_for(join_keys: dict, merged_names: list, right_name: str) -> list:
    pairs = []
    for left_name in merged_names:
        for key, attr_pairs in join_keys.items():
            a, b = key
            if a == left_name and b == right_name:
                pairs.extend([(la, ra) for la, ra in attr_pairs])
            elif b == left_name and a == right_name:
                pairs.extend([(ra, la) for la, ra in attr_pairs])
    return pairs


def _outer_join(acc_schema, acc_rows, right: Relation, pairs) -> tuple:
    """Binary full outer join; join-key columns with equal names are merged.
    Without key pairs nothing matches, and both sides are null-padded."""
    merged = [ra for la, ra in pairs if la == ra]
    right_extra = [a for a in right.schema if a not in merged]
    out_schema = list(acc_schema) + right_extra

    left_idx = {a: i for i, a in enumerate(acc_schema)}
    right_idx = {a: i for i, a in enumerate(right.schema)}
    # merged key columns take the right value on right-only rows
    merged_from = {left_idx[a]: right_idx[a] for a in merged}

    table = {}
    if pairs:  # an empty key would match every row with every row
        for j, rrow in enumerate(right.rows):
            key = tuple(rrow[right_idx[ra]] for _, ra in pairs)
            if any(k is None for k in key):
                continue  # null keys never match
            table.setdefault(key, []).append(j)
    out_rows = []
    matched_right = set()
    for lrow in acc_rows:
        key = tuple(lrow[left_idx[la]] for la, _ in pairs)
        hits = table.get(key, [])  # null keys never entered the table
        if hits:
            for j in hits:
                matched_right.add(j)
                rrow = right.rows[j]
                out_rows.append(tuple(lrow) + tuple(rrow[right_idx[a]] for a in right_extra))
        else:
            out_rows.append(tuple(lrow) + (None,) * len(right_extra))
    for j, rrow in enumerate(right.rows):
        if j in matched_right:
            continue
        padded = tuple(rrow[merged_from[i]] if i in merged_from else None
                       for i in range(len(acc_schema)))
        out_rows.append(padded + tuple(rrow[right_idx[a]] for a in right_extra))
    return tuple(out_schema), out_rows


def build_universal(sources: Sequence[Relation], join_keys: Optional[dict] = None) -> UniversalTable:
    """Left-to-right multi-way full outer join of the sources in declared order.

    ``join_keys`` maps a (nameA, nameB) pair to a list of (attrA, attrB)
    equality pairs.  Join-key columns sharing one name collapse into a single
    output column; a shared name without a key is a schema conflict.
    """
    if not sources:
        raise ArgumentError("at least one source relation is required")
    names = {}
    for s in sources:
        if names.setdefault(s.name, s) is not s:
            raise ArgumentError(f"duplicate source name {s.name!r}")
    join_keys = join_keys or {}
    for (a, b), attr_pairs in join_keys.items():
        if a not in names or b not in names:
            raise ArgumentError(f"join key references unknown relation ({a!r}, {b!r})")
        for la, ra in attr_pairs:
            if la not in names[a].schema:
                raise ArgumentError(f"join key attribute {la!r} not in {a!r}")
            if ra not in names[b].schema:
                raise ArgumentError(f"join key attribute {ra!r} not in {b!r}")

    first = sources[0]
    acc_schema = tuple(first.schema)
    acc_rows = [tuple(r) for r in first.rows]
    merged_names = [first.name]

    for right in sources[1:]:
        pairs = _join_pairs_for(join_keys, merged_names, right.name)
        keyed_right = {ra for la, ra in pairs if la == ra}
        overlap = (set(acc_schema) & set(right.schema)) - keyed_right
        if overlap:
            raise ArgumentError(
                f"attributes {sorted(overlap)} appear in {right.name!r} and an earlier "
                f"source without a join key"
            )
        acc_schema, acc_rows = _outer_join(acc_schema, acc_rows, right, pairs)
        merged_names.append(right.name)

    relation = Relation("universal", acc_schema, tuple(acc_rows))
    return UniversalTable(relation=relation)


_KMEANS_TOL = 1e-9  # Lloyd stops once no centroid moves this far
_KMEANS_MAX_ITER = 200

# the largest magnitude M (among the values and the centroids) below which
# float distances neither overflow nor round across a centroid gap above
# M * _KMEANS_GAP (see ``_run_cuts``)
_KMEANS_MAX_MAGNITUDE = 2.0**1000
_KMEANS_GAP = 2.0**-48


def _run_cuts(vals: list, centroids: list, top: float, last: Optional[tuple]) -> Optional[list]:
    """Where ``_nearest`` splits the ascending ``vals`` among ``centroids``,
    as cuts: cluster i is ``vals[cuts[i]:cuts[i + 1]]``.  None unless the
    centroids ascend with every gap above M * 2**-48, M < 2**1000 being the
    largest magnitude among ``top`` (that of the values) and the centroids;
    ``kmeans_1d`` says why the cuts are exact then.  Cut i depends on
    centroids i - 1 and i alone, so it stays where ``last`` (an earlier
    call's centroids and cuts) has it while neither moved.
    """
    m = max(top, abs(centroids[0]), abs(centroids[-1]))
    gap = m * _KMEANS_GAP
    if not (m < _KMEANS_MAX_MAGNITUDE
            and all(b - a > gap for a, b in zip(centroids, centroids[1:]))):
        return None
    n, cuts = len(vals), [0]
    for i in range(1, len(centroids)):
        a, b = centroids[i - 1], centroids[i]
        if last and last[0][i - 1] == a and last[0][i] == b:
            cuts.append(last[1][i])
            continue
        j = bisect_left(vals, (a + b) / 2, cuts[-1])
        if j < n and not abs(vals[j] - b) < abs(vals[j] - a):
            j = bisect_left(vals, True, j + 1, n, key=lambda v: abs(v - b) < abs(v - a))
        cuts.append(j)
    cuts.append(n)
    return cuts


def kmeans_1d(values: Sequence[float], k: int) -> list:
    """Deterministic 1-D Lloyd clustering.

    Centroids seed at the k quantile midpoints of the sorted values; no RNG.
    Returns the list of non-empty clusters as lists of values.

    Each iteration gives every value its nearest centroid as ``_nearest``
    does, ties to the lower one.  When the centroids ascend with every gap
    above M * 2**-48, M < 2**1000 being the largest magnitude among the
    values and the centroids, no value needs a label: a float subtraction
    of two values within M errs by at most M * 2**-52, so two distances
    whose exact values differ by more than M * 2**-50 keep their order.
    Across such a gap no two distances round into a false tie, so each
    cluster is a run of the sorted values, and cluster i starts at the
    first value strictly nearer centroid i than centroid i - 1.  No value
    below the two centroids' rounded midpoint is: no float lies strictly
    between the exact midpoint and its rounding, and rounding keeps order.
    So the cut is the first value at or above that midpoint, unless its
    distances round it no nearer centroid i, and then a bisection on the
    distances above it finds the cut.  An iteration thus moves only the
    k - 1 cuts (``_run_cuts``) and re-averages only the runs whose ends
    moved, since the same run sums to the same float.  Any other iteration
    labels every value through ``_nearest``.  Both give the same clusters,
    bit for bit.
    """
    vals = sorted(map(float, values))
    n = len(vals)
    k = min(k, n)
    if k <= 0:
        return []
    points = np.array(vals, dtype=np.float64)
    if k == n and not (points[1:] <= points[:-1]).any():
        return [[v] for v in vals]  # each seed is a distinct value, nearest to itself alone
    top = float(np.abs(points).max())  # NaN, failing the bound, when a value is NaN
    centroids = [vals[(2 * j + 1) * n // (2 * k)] for j in range(k)]
    last = None  # the last iteration's centroids and cuts, when it found them as runs
    for _ in range(_KMEANS_MAX_ITER):
        cuts = _run_cuts(vals, centroids, top, last) if top < _KMEANS_MAX_MAGNITUDE else None
        runs = last and last[1]  # the runs ``centroids`` are the means of
        last = cuts and (centroids, cuts)
        ordered = vals
        if cuts is None:
            labels = _nearest(points, centroids)
            if (labels[1:] < labels[:-1]).any():  # centroids out of order
                order = np.argsort(labels, kind="stable")
                labels, ordered = labels[order], points[order].tolist()
            cuts = np.searchsorted(labels, np.arange(k + 1)).tolist()
        # each cluster is a run of ascending Python floats, so ``sum`` adds
        # them in the order a cluster's mask would list them; a run that
        # kept its ends keeps its centroid
        new_centroids = [
            centroids[i] if a == b or runs and runs[i] == a and runs[i + 1] == b
            else sum(ordered[a:b]) / (b - a)
            for i, (a, b) in enumerate(zip(cuts, cuts[1:]))]
        shift = max(abs(a - b) for a, b in zip(centroids, new_centroids))
        centroids = new_centroids
        if shift < _KMEANS_TOL:
            break
    return [ordered[a:b] for a, b in zip(cuts, cuts[1:]) if a < b]


def derive_all_literals(u: UniversalTable, max_clusters: int = 30) -> UniversalTable:
    """A copy of ``u`` whose ``literal_index`` holds one equality literal per
    value cluster of every attribute.

    Numeric attributes cluster their active domain with deterministic 1-D
    k-means (k capped by the domain size) and take the adom member nearest
    each centroid; categorical attributes keep the ``max_clusters`` most
    frequent values.
    """
    if not (isinstance(max_clusters, int) and max_clusters >= 1):  # JSON's 2.0 too
        raise ArgumentError(f"max_clusters must be an integer >= 1, got {max_clusters!r}")
    index = {}
    for attribute in u.schema:
        adom = u.relation.adom(attribute)
        if not adom:
            reps = []
        elif _all_numbers(adom):
            clusters = kmeans_1d(adom, min(max_clusters, len(adom)))
            centroids = [sum(cluster) / len(cluster) for cluster in clusters]
            reps = []
            # adom ascends by _sort_key, so the first nearest member is the
            # one with the least _sort_key
            for i in _nearest(centroids, adom).tolist():
                if adom[i] not in reps:
                    reps.append(adom[i])
            reps.sort(key=_sort_key)
        else:
            counts = {}
            for v, w in zip(u.relation.column(attribute), u.relation.row_weights):
                if v is not None:
                    counts[v] = counts.get(v, 0) + w
            ranked = sorted(adom, key=lambda v: (-counts.get(v, 0), _sort_key(v)))
            reps = sorted(ranked[:max_clusters], key=_sort_key)
        index[attribute] = tuple(Literal(attribute, r) for r in reps)
    return replace(u, literal_index=index)


def compress_rows(u: UniversalTable) -> UniversalTable:
    """Replace each cell by its cluster representative and merge duplicates.

    Multiplicities land in the relation's hidden weight column.  Categorical
    cells whose value was truncated out of the literal set become null.
    """
    for a in u.schema:
        if a not in u.literal_index:
            raise ArgumentError(f"literals not derived for attribute {a!r}")
    columns = []
    for a, cells in zip(u.schema, zip(*u.relation.rows)):
        # cell value -> its representative (null and clusterless cells map to
        # None), one column at a time, so one such map is alive at once
        literals = u.literal_index[a]
        representative = {v: literals[i].value for v, i in u._cluster_tables.get(a, {}).items()}
        columns.append(list(map(representative.get, cells)))
    merged: dict = {}  # compressed row -> multiplicity, in first-seen order
    for row, w in zip(zip(*columns), u.relation.row_weights):
        merged[row] = merged.get(row, 0) + w
    relation = Relation(u.relation.name, u.schema, tuple(merged), weights=tuple(merged.values()))
    out = UniversalTable(relation=relation, literal_index=u.literal_index)
    # every compressed cell is a representative, in its own literal's
    # cluster, so the compressed tables come from the ones at hand
    object.__setattr__(out, "_cluster_tables", {
        a: {u.literal_index[a][i].value: i for i in set(table.values())}
        for a, table in u._cluster_tables.items()})
    return out
