"""Measure declarations, normalization, the valuated-test log, and the
correlation machinery feeding interval estimates for unvaluated states.

Every measure is normalized into (0,1] and minimized; maximized raw measures
invert during normalization.  The test log is the single source of truth for
valuated performance vectors and doubles as the estimator cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Sequence

from .errors import ArgumentError, EstimatorFailure
from .operators import Bitmap, SearchState, StateSpace

MINIMIZE = "minimize"
MAXIMIZE = "maximize"

NORMALIZED_FLOOR = 1e-6

#: pseudo-measure name for the (always known) dataset row count, used only
#: inside the correlation graph to anchor interval estimates
ROWCOUNT = "__rows__"


@dataclass(frozen=True)
class MeasureSpec:
    name: str
    direction: str = MINIMIZE
    raw_low: float = 0.0
    raw_high: float = 1.0
    p_low: float = NORMALIZED_FLOOR
    p_high: float = 1.0
    decisive: bool = False

    def __post_init__(self):
        if self.direction not in (MINIMIZE, MAXIMIZE):
            raise ArgumentError(f"bad direction {self.direction!r}")
        if not self.raw_high > self.raw_low:
            raise ArgumentError(f"{self.name}: raw_high must exceed raw_low")
        if not (0.0 < self.p_low <= self.p_high <= 1.0):
            raise ArgumentError(f"{self.name}: need 0 < p_low <= p_high <= 1")
        if self.name == ROWCOUNT:
            raise ArgumentError(f"{ROWCOUNT!r} is reserved")


class MeasureSet:
    """Ordered measure declarations with exactly one decisive measure.

    When no spec is flagged decisive, the last-declared one is.
    """

    def __init__(self, specs: Sequence[MeasureSpec], decisive_override: Optional[str] = None):
        if not specs:
            raise ArgumentError("at least one measure is required")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ArgumentError("duplicate measure names")
        flagged = [s.name for s in specs if s.decisive]
        if len(flagged) > 1:
            raise ArgumentError("at most one measure may be decisive")
        decisive = decisive_override or (flagged[0] if flagged else names[-1])
        if decisive not in names:
            raise ArgumentError(f"decisive measure {decisive!r} not declared")
        self.specs = tuple(specs)
        self.names = tuple(names)
        self.decisive = decisive
        self.decisive_index = names.index(decisive)
        self.grid_indices = tuple(i for i in range(len(names)) if i != self.decisive_index)

    def __len__(self):
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    def index(self, name: str) -> int:
        return self.names.index(name)

    def spec(self, name: str) -> MeasureSpec:
        return self.specs[self.index(name)]


class Bounds(NamedTuple):
    lo: float
    hi: float


@dataclass(frozen=True)
class PerfVector:
    """Per-measure entries: a normalized float, a Bounds interval estimate,
    or None while unvaluated.  Entry order follows the MeasureSet."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))

    @classmethod
    def of(cls, *values) -> "PerfVector":
        return cls(tuple(values))

    def entry(self, i: int):
        return self.values[i]

    def is_fully_valuated(self) -> bool:
        return all(isinstance(v, (int, float)) and not isinstance(v, Bounds)
                   for v in self.values)

    def lower(self, i: int) -> Optional[float]:
        v = self.values[i]
        if isinstance(v, Bounds):
            return v.lo
        return float(v) if v is not None else None

    def upper(self, i: int) -> Optional[float]:
        v = self.values[i]
        if isinstance(v, Bounds):
            return v.hi
        return float(v) if v is not None else None

    def as_floats(self) -> tuple:
        if not self.is_fully_valuated():
            raise ArgumentError("performance vector is not fully valuated")
        return tuple(float(v) for v in self.values)

    def __len__(self):
        return len(self.values)


def normalize(spec: MeasureSpec, raw: float) -> float:
    """Scale a raw measure into (0,1], inverting maximized measures.

    The result clamps to [1e-6, 1] so downstream logarithms stay defined.
    """
    if not isinstance(raw, (int, float)) or not math.isfinite(raw):
        raise EstimatorFailure(f"non-finite raw value {raw!r} for {spec.name}")
    span = spec.raw_high - spec.raw_low
    if spec.direction == MINIMIZE:
        v = (raw - spec.raw_low) / span
    else:
        v = (spec.raw_high - raw) / span
    return min(max(v, NORMALIZED_FLOOR), 1.0)


@dataclass(frozen=True)
class LogEntry:
    bitmap: Bitmap
    perf: PerfVector
    row_count: int
    raw: Optional[dict] = None  # un-normalized estimator output, for reporting

    def value(self, i: int) -> Optional[float]:
        v = self.perf.values[i]
        if isinstance(v, Bounds) or v is None:
            return None
        return float(v)


class TestLog:
    """Append-only log of valuated tests, keyed by bitmap.

    Entries are never mutated; fixtures may seed partially valuated vectors,
    the runtime always appends fully valuated ones.
    """

    __test__ = False  # not a pytest class despite the name

    def __init__(self):
        self.entries: list = []
        self._index: dict = {}
        self.version = 0

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def get(self, bitmap: Bitmap) -> Optional[LogEntry]:
        return self._index.get(bitmap.bits)

    def append(self, entry: LogEntry) -> LogEntry:
        existing = self._index.get(entry.bitmap.bits)
        if existing is not None:
            if existing.perf.is_fully_valuated() or not entry.perf.is_fully_valuated():
                return existing
            # upgrading a partially seeded entry fills its gaps; fully
            # valuated values never change
            self.entries[self.entries.index(existing)] = entry
            self._index[entry.bitmap.bits] = entry
            self.version += 1
            return entry
        self.entries.append(entry)
        self._index[entry.bitmap.bits] = entry
        self.version += 1
        return entry


def valuate(state: SearchState, estimator, log: TestLog, measures: MeasureSet,
            space: StateSpace):
    """Return the state's normalized vector, invoking the estimator at most once.

    All measures come back from a single estimator call; repeats on the same
    bitmap are served from the log.  Returns ``(perf, invoked)``.
    """
    cached = log.get(state.bitmap)
    if cached is not None and cached.perf.is_fully_valuated():
        return cached.perf, False
    try:
        raw = estimator.estimate(state, space)
    except EstimatorFailure:
        raise
    except Exception as exc:  # protocol violation
        raise EstimatorFailure(f"estimator raised {exc!r}", bitmap=state.bitmap) from exc
    values = []
    for spec in measures:
        if spec.name not in raw:
            raise EstimatorFailure(
                f"estimator returned no value for measure {spec.name!r}",
                bitmap=state.bitmap,
            )
        try:
            values.append(normalize(spec, raw[spec.name]))
        except EstimatorFailure as exc:
            exc.bitmap = state.bitmap
            raise
    perf = PerfVector(tuple(values))
    log.append(LogEntry(state.bitmap, perf, space.row_count(state.bitmap),
                        raw={s.name: float(raw[s.name]) for s in measures}))
    return perf, True


def _rank(values: Sequence[float]) -> list:
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1  # average rank for ties
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def spearman(xs: Sequence[float], ys: Sequence[float]) -> Optional[float]:
    """Spearman rank correlation with average-rank ties.

    Returns None for constant sequences (undefined correlation).
    """
    if len(xs) != len(ys):
        raise ArgumentError("sequences must have equal length")
    if len(xs) < 2:
        raise ArgumentError("need at least two observations")
    rx, ry = _rank(xs), _rank(ys)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        return None
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    return sxy / math.sqrt(sxx * syy)


CORRELATION_MIN_SUPPORT = 3


@dataclass
class CorrelationGraph:
    """Undirected graph over measures; an edge means |spearman| >= theta."""

    theta: float
    edges: dict = field(default_factory=dict)  # frozenset({a,b}) -> rho

    def weight(self, a: str, b: str) -> Optional[float]:
        return self.edges.get(frozenset((a, b)))

    def is_empty(self) -> bool:
        return not self.edges


def build_correlation_graph(log: TestLog, theta: float, measures: MeasureSet) -> CorrelationGraph:
    """Correlate every measure pair (plus the row-count pseudo-measure) over
    log entries where both sides are valuated; below three co-valuated
    entries no edge forms."""
    graph = CorrelationGraph(theta=theta)
    if len(log) < CORRELATION_MIN_SUPPORT:
        return graph
    names = list(measures.names) + [ROWCOUNT]

    def series(entry: LogEntry, name: str) -> Optional[float]:
        if name == ROWCOUNT:
            return float(entry.row_count)
        return entry.value(measures.index(name))

    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            a, b = names[i], names[j]
            xs, ys = [], []
            for entry in log:
                va, vb = series(entry, a), series(entry, b)
                if va is not None and vb is not None:
                    xs.append(va)
                    ys.append(vb)
            if len(xs) < CORRELATION_MIN_SUPPORT:
                continue
            rho = spearman(xs, ys)
            if rho is None or abs(rho) < theta:
                continue
            graph.edges[frozenset((a, b))] = rho
    return graph


def estimate_bounds(bitmap: Bitmap, row_count: int, log: TestLog,
                    graph: CorrelationGraph, measures: MeasureSet) -> PerfVector:
    """Interval-estimate a state's vector from correlated, already-valuated
    measures.

    For each unvaluated measure p, the strongest correlated anchor q whose
    value is known for this state (a valuated measure of the state itself, or
    its row count) brackets the state between the two log entries whose
    q-values most tightly enclose it; the p-interval spans their p-values.
    With no usable bracket the declared [p_low, p_high] range applies.
    """
    entry = log.get(bitmap)
    values: list = []
    for i, spec in enumerate(measures):
        known = entry.value(i) if entry is not None else None
        if known is not None:
            values.append(known)
            continue
        anchors = [(ROWCOUNT, float(row_count))]
        if entry is not None:
            for j in range(len(measures)):
                vj = entry.value(j)
                if vj is not None:
                    anchors.append((measures.names[j], vj))
        best = None
        for qname, qval in anchors:
            rho = graph.weight(spec.name, qname)
            if rho is None:
                continue
            if best is None or abs(rho) > abs(best[2]):
                best = (qname, qval, rho)
        interval = None
        if best is not None:
            interval = _bracket(spec.name, best[0], best[1], log, measures)
        if interval is None:
            values.append(Bounds(spec.p_low, spec.p_high))
        else:
            lo = min(max(interval[0], spec.p_low), spec.p_high)
            hi = min(max(interval[1], spec.p_low), spec.p_high)
            values.append(Bounds(min(lo, hi), max(lo, hi)))
    return PerfVector(tuple(values))


def _bracket(p: str, q: str, qval: float, log: TestLog, measures: MeasureSet):
    pi = measures.index(p)

    def qvalue(entry: LogEntry) -> Optional[float]:
        if q == ROWCOUNT:
            return float(entry.row_count)
        return entry.value(measures.index(q))

    lo_entry = hi_entry = None
    for entry in log:
        qv = qvalue(entry)
        pv = entry.value(pi)
        if qv is None or pv is None:
            continue
        if qv <= qval and (lo_entry is None or qv > lo_entry[0]):
            lo_entry = (qv, pv)
        if qv >= qval and (hi_entry is None or qv < hi_entry[0]):
            hi_entry = (qv, pv)
    if lo_entry is None or hi_entry is None:
        return None
    return (min(lo_entry[1], hi_entry[1]), max(lo_entry[1], hi_entry[1]))
