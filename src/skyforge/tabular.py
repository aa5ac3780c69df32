"""Source tables, active domains, literals, and universal-table construction.

Cells are typed scalars (int, float, str) or None for null.  Nulls never
join and never appear in active domains.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence

import numpy as np

from .errors import ArgumentError, SchemaConflictError

Cell = Any  # int | float | str | None


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# cells a blocked pairwise kernel (here, in the oracle and in search) holds
# at once, which bounds its memory for any number of points
_BLOCK_CELLS = 1 << 16

# the least int that float() cannot convert: it rounds up to 2**1024
_FLOAT_OVERFLOW_INT = 2**1024 - 2**970


def _row_blocks(n_rows: int, n_cols: int) -> list:
    """Slices cutting ``n_rows`` rows into blocks of at most ``_BLOCK_CELLS``
    cells against ``n_cols`` columns (one row a block when a row is larger)."""
    step = max(1, _BLOCK_CELLS // max(1, n_cols))
    return [slice(start, start + step) for start in range(0, n_rows, step)]


def _nearest(points, centers) -> np.ndarray:
    """Index of each point's nearest center, ties to the lowest index.

    Equals ``min(range(len(centers)), key=lambda i: (abs(p - centers[i]), i))``
    for every point ``p``: float64 subtraction and ``abs`` round as Python
    floats do, and ``argmin`` keeps the first minimum.  Python subtracts two
    ints exactly, so an int beyond 2**52 (where a float64 difference may
    round) sends both sides through object arrays and Python's own arithmetic.
    """
    p, c = _number_array(points), _number_array(centers)
    if p.dtype == object or c.dtype == object:
        p, c = p.astype(object), c.astype(object)
    out = np.empty(len(p), dtype=np.intp)
    for rows in _row_blocks(len(p), len(c)):
        out[rows] = np.abs(p[rows, None] - c[None, :]).argmin(axis=1)
    return out


def _number_array(values) -> np.ndarray:
    if isinstance(values, np.ndarray):
        return values
    if any(type(v) is int and abs(v) > 2**52 for v in values):
        return np.array(values, dtype=object)
    return np.array(values, dtype=np.float64)


def _sort_key(v):
    # adoms may mix ints and floats; strings sort among themselves
    if isinstance(v, bool):
        return (0, float(v), "")
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

    def __post_init__(self):
        object.__setattr__(self, "schema", tuple(self.schema))
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        if len(set(self.schema)) != len(self.schema):
            raise ArgumentError(f"duplicate attribute names in schema of {self.name!r}")
        for r in self.rows:
            if len(r) != len(self.schema):
                raise ArgumentError(
                    f"row of width {len(r)} does not match schema of width "
                    f"{len(self.schema)} in {self.name!r}"
                )
        if self.weights is not None:
            object.__setattr__(self, "weights", tuple(self.weights))
            if len(self.weights) != len(self.rows):
                raise ArgumentError("weights length must equal number of rows")

    @classmethod
    def from_rows(cls, name: str, schema: Iterable[str], rows: Iterable[Iterable[Cell]]) -> "Relation":
        return cls(name, tuple(schema), tuple(tuple(r) for r in rows))

    def column(self, attribute: str) -> list:
        i = self.schema.index(attribute)
        return [r[i] for r in self.rows]

    def adom(self, attribute: str) -> tuple:
        """Distinct non-null values of a column, in ascending order."""
        seen = {v for v in self.column(attribute) if v is not None}
        return tuple(sorted(seen, key=_sort_key))

    @property
    def row_weights(self) -> tuple:
        return self.weights if self.weights is not None else (1,) * len(self.rows)

    @property
    def expanded_row_count(self) -> int:
        return sum(self.row_weights)

    def expanded_rows(self) -> list:
        out = []
        for r, w in zip(self.rows, self.row_weights):
            out.extend([r] * w)
        return out


@dataclass(frozen=True)
class Literal:
    """Equality condition ``attribute = value`` on a value-cluster representative."""

    attribute: str
    value: Cell


@dataclass
class UniversalTable:
    """Outer-joined pool table plus provenance and derived value-cluster literals."""

    relation: Relation
    provenance: dict = field(default_factory=dict)
    literal_index: dict = field(default_factory=dict)  # attribute -> tuple[Literal]

    @property
    def schema(self) -> tuple:
        return self.relation.schema

    def literals(self, attribute: str) -> tuple:
        return self.literal_index.get(attribute, ())

    def cluster_of(self, attribute: str, value: Cell) -> Optional[int]:
        """Index into ``literals(attribute)`` of the cluster a cell belongs to.

        Numeric attributes map every value to the nearest representative;
        categorical values without a literal (truncated tail) map to None.
        """
        if value is None:
            return None
        table = self._cluster_tables().get(attribute)
        if table is None:
            return None
        return table.get(value)

    def _cluster_tables(self) -> dict:
        cached = getattr(self, "_cluster_cache", None)
        if cached is not None:
            return cached
        tables = {}
        for a in self.schema:
            lits = self.literal_index.get(a)
            if not lits:
                continue
            values = [lit.value for lit in lits]
            adom = self.relation.adom(a)
            if all(_is_number(v) for v in values):
                numbers = [v for v in adom if _is_number(v)]
                mapping = dict(zip(numbers, _nearest(numbers, values).tolist()))
                rest = [v for v in adom if not _is_number(v)]
            else:
                mapping, rest = {}, adom
            for v in rest:
                if v in values:
                    mapping[v] = values.index(v)
                # truncated categorical values map to no cluster
            tables[a] = mapping
        object.__setattr__(self, "_cluster_cache", tables)
        return tables

    def invalidate_caches(self):
        object.__setattr__(self, "_cluster_cache", None)


def infer_column_types(header: Sequence[str], raw_rows: list) -> list:
    """Per-column parse as int, then float, then str; empty string is null."""
    typed = []
    for i in range(len(header)):
        cells = [r[i] for r in raw_rows]
        parsed = None
        for caster in (int, float):
            try:
                parsed = [None if c == "" else caster(c) for c in cells]
                break
            except (TypeError, ValueError):
                parsed = None
        if parsed is None:
            parsed = [None if c == "" else c for c in cells]
        typed.append(parsed)
    return [list(col) for col in typed]


def ingest_csv(path: str, name: str) -> Relation:
    """Load an RFC-4180 CSV with a header row into a Relation."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
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
    cols = infer_column_types(header, raw)
    for c, col in enumerate(cols):
        for r, v in enumerate(col):
            if isinstance(v, float) and not math.isfinite(v):
                raise ArgumentError(f"{path}: non-finite value {raw[r][c]!r} "
                                    f"in column {header[c]!r}, row {r + 1}")
            if isinstance(v, int) and abs(v) >= _FLOAT_OVERFLOW_INT:
                raise ArgumentError(f"{path}: {v.bit_length()}-bit integer beyond "
                                    f"float range in column {header[c]!r}, row {r + 1}")
    rows = list(zip(*cols)) if cols and raw else []
    return Relation(name, tuple(header), tuple(rows))


def write_csv(path: str, relation: Relation, expand: bool = True):
    rows = relation.expanded_rows() if expand else list(relation.rows)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(relation.schema)
        for r in rows:
            writer.writerow(["" if c is None else c for c in r])


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
    """Binary full outer join; join-key columns with equal names are merged."""
    right_key_attrs = [ra for _, ra in pairs]
    merged = [ra for la, ra in pairs if la == ra]
    right_extra = [a for a in right.schema if a not in merged]
    out_schema = list(acc_schema) + right_extra

    left_idx = {a: i for i, a in enumerate(acc_schema)}
    right_idx = {a: i for i, a in enumerate(right.schema)}

    out_rows = []
    if pairs:
        table = {}
        for j, rrow in enumerate(right.rows):
            key = tuple(rrow[right_idx[ra]] for _, ra in pairs)
            if any(k is None for k in key):
                continue  # null keys never match
            table.setdefault(key, []).append(j)
        matched_right = set()
        for lrow in acc_rows:
            key = tuple(lrow[left_idx[la]] for la, _ in pairs)
            hits = [] if any(k is None for k in key) else table.get(key, [])
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
            padded = []
            for a in acc_schema:
                # merged key columns take the right value on right-only rows
                src = None
                for la, ra in pairs:
                    if la == a and la == ra:
                        src = rrow[right_idx[ra]]
                        break
                padded.append(src)
            out_rows.append(tuple(padded) + tuple(rrow[right_idx[a]] for a in right_extra))
    else:
        # no applicable keys: nothing matches, both sides are null-padded
        for lrow in acc_rows:
            out_rows.append(tuple(lrow) + (None,) * len(right_extra))
        for rrow in right.rows:
            out_rows.append((None,) * len(acc_schema) + tuple(rrow[right_idx[a]] for a in right_extra))
    return tuple(out_schema), out_rows


def build_universal(sources: Sequence[Relation], join_keys: Optional[dict] = None) -> UniversalTable:
    """Left-to-right multi-way full outer join of the sources in declared order.

    ``join_keys`` maps a (nameA, nameB) pair to a list of (attrA, attrB)
    equality pairs.  Join-key columns sharing one name collapse into a single
    output column; a shared name without a key is a schema conflict.
    """
    if not sources:
        raise ArgumentError("at least one source relation is required")
    join_keys = join_keys or {}
    for (a, b), attr_pairs in join_keys.items():
        names = {s.name: s for s in sources}
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
    provenance = {a: first.name for a in first.schema}
    merged_names = [first.name]

    for right in sources[1:]:
        pairs = _join_pairs_for(join_keys, merged_names, right.name)
        keyed_right = {ra for la, ra in pairs if la == ra}
        overlap = (set(acc_schema) & set(right.schema)) - keyed_right
        if overlap:
            raise SchemaConflictError(
                f"attributes {sorted(overlap)} appear in {right.name!r} and an earlier "
                f"source without a join key"
            )
        acc_schema, acc_rows = _outer_join(acc_schema, acc_rows, right, pairs)
        for a in right.schema:
            provenance.setdefault(a, right.name)
        merged_names.append(right.name)

    relation = Relation("universal", acc_schema, tuple(acc_rows))
    return UniversalTable(relation=relation, provenance=provenance)


def kmeans_1d(values: Sequence[float], k: int, tol: float = 1e-9, max_iter: int = 200) -> list:
    """Deterministic 1-D Lloyd clustering.

    Centroids seed at the k quantile midpoints of the sorted values; no RNG.
    Returns the list of non-empty clusters as lists of values.
    """
    vals = sorted(float(v) for v in values)
    n = len(vals)
    k = min(k, n)
    if k <= 0:
        return []
    points = np.array(vals)
    centroids = [vals[(2 * j + 1) * n // (2 * k)] for j in range(k)]
    for _ in range(max_iter):
        labels = _nearest(points, centroids)
        # ascending Python floats, so ``sum`` adds them in the same order
        clusters = [points[labels == i].tolist() for i in range(k)]
        new_centroids = [
            (sum(c) / len(c)) if c else centroids[i] for i, c in enumerate(clusters)
        ]
        shift = max(abs(a - b) for a, b in zip(centroids, new_centroids))
        centroids = new_centroids
        if shift < tol:
            break
    return [c for c in clusters if c]


def derive_literals(u: UniversalTable, attribute: str, max_clusters: int = 30) -> list:
    """One equality literal per value cluster of the attribute.

    Numeric attributes cluster their active domain with deterministic 1-D
    k-means (k capped by the domain size) and take the adom member nearest
    each centroid; categorical attributes keep the ``max_clusters`` most
    frequent values.
    """
    if attribute not in u.schema:
        raise ArgumentError(f"unknown attribute {attribute!r}")
    if max_clusters < 1:
        raise ArgumentError("max_clusters must be >= 1")
    adom = u.relation.adom(attribute)
    if not adom:
        return []
    if all(_is_number(v) for v in adom):
        clusters = kmeans_1d(adom, min(max_clusters, len(adom)))
        centroids = [sum(cluster) / len(cluster) for cluster in clusters]
        reps = []
        # adom ascends by _sort_key, so the first nearest member is the one
        # with the least _sort_key
        for i in _nearest(centroids, adom).tolist():
            rep = adom[i]
            if rep not in reps:
                reps.append(rep)
        reps.sort(key=_sort_key)
        return [Literal(attribute, r) for r in reps]
    counts = {}
    weights = u.relation.row_weights
    col = u.relation.column(attribute)
    for v, w in zip(col, weights):
        if v is not None:
            counts[v] = counts.get(v, 0) + w
    ranked = sorted(adom, key=lambda v: (-counts.get(v, 0), _sort_key(v)))
    kept = sorted(ranked[:max_clusters], key=_sort_key)
    return [Literal(attribute, v) for v in kept]


def derive_all_literals(u: UniversalTable, max_clusters: int = 30) -> UniversalTable:
    """Populate ``literal_index`` for every attribute in place and return ``u``."""
    for a in u.schema:
        u.literal_index[a] = tuple(derive_literals(u, a, max_clusters))
    u.invalidate_caches()
    return u


def compress_rows(u: UniversalTable) -> UniversalTable:
    """Replace each cell by its cluster representative and merge duplicates.

    Multiplicities land in the relation's hidden weight column.  Categorical
    cells whose value was truncated out of the literal set become null.
    """
    for a in u.schema:
        if a not in u.literal_index:
            raise ArgumentError(f"literals not derived for attribute {a!r}")
    new_rows = []
    for row in u.relation.rows:
        cells = []
        for a, v in zip(u.schema, row):
            if v is None:
                cells.append(None)
                continue
            ci = u.cluster_of(a, v)
            cells.append(None if ci is None else u.literal_index[a][ci].value)
        new_rows.append(tuple(cells))

    weights = u.relation.row_weights
    merged: dict = {}
    order = []
    for row, w in zip(new_rows, weights):
        if row not in merged:
            merged[row] = 0
            order.append(row)
        merged[row] += w
    relation = Relation(
        u.relation.name,
        u.schema,
        tuple(order),
        weights=tuple(merged[r] for r in order),
    )
    out = UniversalTable(relation=relation, provenance=dict(u.provenance),
                         literal_index=dict(u.literal_index))
    return out
