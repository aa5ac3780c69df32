"""Measure declarations, normalization, the valuated-test log, and the
row-count correlations feeding interval estimates for unvaluated states.

Every measure is normalized into (0,1] and minimized; maximized raw measures
invert during normalization.  A valuated performance vector is a plain tuple
of normalized floats in measure order, always complete.  The test log is the
single source of truth for valuated vectors and doubles as the estimator
cache.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ArgumentError, EstimatorFailure
from .operators import Bitmap, SearchState, StateSpace

MINIMIZE = "minimize"
MAXIMIZE = "maximize"

NORMALIZED_FLOOR = 1e-6
_BIG = sys.float_info.max  # NaN fails every comparison with it


@dataclass(frozen=True)
class MeasureSpec:
    name: str
    direction: str = MINIMIZE
    raw_low: float = 0.0
    raw_high: float = 1.0
    p_low: float = NORMALIZED_FLOOR
    p_high: float = 1.0

    def __post_init__(self):
        if self.direction not in (MINIMIZE, MAXIMIZE):
            raise ArgumentError(f"bad direction {self.direction!r}")
        if not (-_BIG <= self.raw_low < self.raw_high <= _BIG
                and self.raw_high - self.raw_low <= _BIG):
            raise ArgumentError(f"{self.name}: need finite raw_low < raw_high with a finite span")
        if not (0.0 < self.p_low <= self.p_high <= 1.0):
            raise ArgumentError(f"{self.name}: need 0 < p_low <= p_high <= 1")


class MeasureSet:
    """Ordered measure declarations with exactly one decisive measure:
    ``decisive`` names it, and by default the last-declared one is."""

    def __init__(self, specs: Sequence[MeasureSpec], decisive: Optional[str] = None):
        if not specs:
            raise ArgumentError("at least one measure is required")
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ArgumentError("duplicate measure names")
        decisive = names[-1] if decisive is None else decisive
        if decisive not in names:
            raise ArgumentError(f"decisive measure {decisive!r} not declared")
        self.specs = tuple(specs)
        self.names = tuple(names)
        self.decisive = decisive
        self.decisive_index = names.index(decisive)
        self.grid_indices = tuple(i for i in range(len(names)) if i != self.decisive_index)
        # one row per measure, read by ``valuate`` on every estimate
        self.table = tuple((s.name, s.raw_low, s.raw_high, s.raw_high - s.raw_low,
                            s.direction == MINIMIZE) for s in specs)

    def __len__(self):
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)


@dataclass(frozen=True)
class LogEntry:
    """A valuated state, as the log records it once for its bitmap."""

    bitmap: Bitmap
    perf: tuple  # normalized floats, one per measure
    row_count: int
    raw: Optional[dict] = None  # un-normalized estimator output, for reporting


class TestLog:
    """Append-only log of valuated tests, keyed by bitmap.

    Entries are never mutated and the first write for a bitmap wins, so the
    log only grows and its length identifies its contents.
    """

    __test__ = False  # not a pytest class despite the name

    def __init__(self):
        self.entries: list = []
        self._index: dict = {}

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def get(self, bitmap: Bitmap) -> Optional[LogEntry]:
        return self._index.get(bitmap.bits)

    def append(self, entry: LogEntry) -> LogEntry:
        existing = self._index.setdefault(entry.bitmap.bits, entry)
        if existing is entry:
            self.entries.append(entry)
        return existing


def valuate(state: SearchState, estimator, log: TestLog, measures: MeasureSet,
            space: StateSpace, upcoming: tuple = ()):
    """Return the state's log entry, invoking the estimator at most once.

    All measures come back from a single estimator call; repeats on the same
    bitmap are served from the log.  ``upcoming``, the states the caller
    valuates next, in order (empty when it knows none), goes to the
    estimator.  Returns ``(entry, invoked)``.

    Each raw value scales into (0,1] over its measure's raw bounds, inverted
    for a maximized measure, and clamps to [1e-6, 1] so downstream logarithms
    stay defined.  Booleans, strings and other non-numbers are estimator
    faults, never coerced, and so are non-finite values and ints beyond
    float range.
    """
    cached = log.get(state.bitmap)
    if cached is not None:
        return cached, False
    try:
        raw = estimator.estimate(state, space, upcoming)
        values, reported = [], {}
        for name, low, high, span, minimize in measures.table:
            if name not in raw:
                raise EstimatorFailure(f"estimator returned no value for measure {name!r}")
            x = raw[name]
            if not (type(x) is float and -_BIG <= x <= _BIG):  # ints, float subclasses, refusals
                if isinstance(x, bool) or not isinstance(x, (int, float)):
                    raise EstimatorFailure(f"non-numeric raw value {x!r} for {name}")
                if isinstance(x, int) and not -_BIG <= x <= _BIG:  # compared exactly
                    raise EstimatorFailure(f"int raw value beyond float range for {name}")
                if not math.isfinite(x):
                    raise EstimatorFailure(f"non-finite raw value {x!r} for {name}")
            v = (x - low) / span if minimize else (high - x) / span
            values.append(1.0 if v > 1.0 else NORMALIZED_FLOOR if v < NORMALIZED_FLOOR else v)
            reported[name] = float(x)
    except EstimatorFailure as exc:  # the one place a failure learns its state
        exc.bitmap = state.bitmap
        raise
    except Exception as exc:  # protocol violation, such as a reply that is no mapping
        raise EstimatorFailure(f"estimator raised {exc!r}", bitmap=state.bitmap) from exc
    return log.append(LogEntry(state.bitmap, tuple(values), space.row_count(state.bitmap),
                               raw=reported)), True


def _rank(values: Sequence[float]) -> list:
    order = sorted(range(len(values)), key=values.__getitem__)
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


def build_correlation_graph(log: TestLog, theta: float, measures: MeasureSet) -> dict:
    """Measure index -> Spearman rho of that measure against the row count
    over the log, for every measure with ``|rho| >= theta``; the row counts
    are ranked once.  No measure correlates below three logged entries or
    with constant row counts, and a constant measure never does."""
    n = len(log)
    if n < 3:
        return {}
    ry = _rank([float(entry.row_count) for entry in log])
    my = sum(ry) / n
    dy = [b - my for b in ry]
    syy = sum(d ** 2 for d in dy)
    if syy == 0:
        return {}
    graph = {}
    for i in range(len(measures)):
        rx = _rank([entry.perf[i] for entry in log])
        mx = sum(rx) / n
        sxx = sum((a - mx) ** 2 for a in rx)
        if sxx == 0:
            continue
        rho = sum((a - mx) * d for a, d in zip(rx, dy)) / math.sqrt(sxx * syy)
        if abs(rho) >= theta:
            graph[i] = rho
    return graph


def estimate_bounds(row_count: int, log: TestLog, graph: dict,
                    measures: MeasureSet) -> tuple:
    """Interval-estimate an unvaluated state's vector from its row count: a
    tuple of ``(lo, hi)`` pairs in measure order.

    A measure in the correlation graph spans its values at the two log
    entries whose row counts most tightly enclose the state's.  Any other
    measure, or a row count outside the logged ones, gets the declared
    [p_low, p_high] range.
    """
    below, above = _bracket(row_count, log)
    values = []
    for i, spec in enumerate(measures):
        if i not in graph or below is None or above is None:
            values.append((spec.p_low, spec.p_high))
            continue
        lo, hi = sorted((below.perf[i], above.perf[i]))
        values.append((min(max(lo, spec.p_low), spec.p_high),
                       min(max(hi, spec.p_low), spec.p_high)))
    return tuple(values)


def _bracket(row_count: int, log: TestLog) -> tuple:
    """The first-logged entries with the nearest row counts at or below and
    at or above ``row_count``; None for an empty side."""
    below = above = None
    for entry in log:
        if entry.row_count <= row_count and (below is None or entry.row_count > below.row_count):
            below = entry
        if entry.row_count >= row_count and (above is None or entry.row_count < above.row_count):
            above = entry
    return below, above
