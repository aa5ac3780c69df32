"""Brute-force verification harness.

Everything here is deliberately independent of the search machinery: the
oracle owns its dominance and relaxed-dominance predicates, the front comes
from an O(n^2) pairwise filter, and enumeration walks the whole bitmap space
directly instead of following any transition order.  The pairwise work runs
as blocked numpy comparisons, one measure column at a time, so its memory is
bounded for any number of states; ``naive_dominates`` and
``naive_eps_dominates`` are the scalar specifications the front and cover
kernels compute.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ArgumentError, EnumerationCapError
from .measures import MeasureSet, TestLog, valuate
from .operators import SearchState, StateSpace
from .search import PrunedState, div_score
from .skyline import SkylineGrid
from .tabular import UniversalTable, _row_blocks


@dataclass
class EnumerationReport:
    total_states: int = 0
    degenerate: int = 0
    exact_front: list = field(default_factory=list)  # bitmap hex strings
    eps_cover_violations: list = field(default_factory=list)  # (hex, reason)
    pruned_validated: int = 0

    def ok(self) -> bool:
        return not self.eps_cover_violations

    def to_dict(self) -> dict:
        return {
            "total_states": self.total_states,
            "degenerate": self.degenerate,
            "exact_front": list(self.exact_front),
            "eps_cover_violations": [list(v) for v in self.eps_cover_violations],
            "pruned_validated": self.pruned_validated,
            "ok": self.ok(),
        }


def naive_dominates(a: Sequence[float], b: Sequence[float]) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and better somewhere."""
    if len(a) != len(b):
        raise ArgumentError("performance vectors cover different measure sets")
    no_worse = all(x <= y for x, y in zip(a, b))
    better = any(x < y for x, y in zip(a, b))
    return no_worse and better


def naive_eps_dominates(a: Sequence[float], b: Sequence[float], eps: float) -> bool:
    """Relaxed dominance: within a (1+eps) factor everywhere, and no worse
    than ``b`` outright on at least one measure (non-strict)."""
    if len(a) != len(b):
        raise ArgumentError("performance vectors cover different measure sets")
    if eps < 0:
        raise ArgumentError("eps must be non-negative")
    factor = 1.0 + eps
    anchored = False
    for x, y in zip(a, b):
        if x > factor * y:
            return False
        if x <= y:
            anchored = True
    return anchored


def _dominated(v: np.ndarray) -> np.ndarray:
    """``out[i]``: some row of ``v`` ``naive_dominates`` row ``i``."""
    out = np.zeros(len(v), dtype=bool)
    for rows in _row_blocks(len(v), len(v)):
        b = v[rows]
        no_worse = np.ones((len(b), len(v)), dtype=bool)
        better = np.zeros_like(no_worse)
        for m in range(v.shape[1]):
            no_worse &= v[None, :, m] <= b[:, None, m]
            better |= v[None, :, m] < b[:, None, m]
        out[rows] = (no_worse & better).any(axis=1)
    return out


def naive_exact_pareto(states: Sequence[SearchState]) -> list:
    """The non-dominated states in input order, the first of each vector."""
    vectors = [s.perf for s in states]
    if not vectors:
        return []
    out = []
    seen = set()
    for s, vec, dominated in zip(states, vectors,
                                 _dominated(np.array(vectors, dtype=np.float64)).tolist()):
        if not dominated and vec not in seen:
            out.append(s)
            seen.add(vec)
    return out


def eps_covered(dominators, targets, eps: float) -> np.ndarray:
    """``out[i]``: some dominator ``naive_eps_dominates`` ``targets[i]``.

    Both arguments are float vectors of one width (valuated tuples or matrix
    rows).  ``a`` eps-dominates ``b`` when no ``a[m] > (1+eps) * b[m]`` and
    some ``a[m] <= b[m]``, the relaxed dominance the grid promises.
    """
    if eps < 0:
        raise ArgumentError("eps must be non-negative")
    factor = 1.0 + eps
    d = np.asarray(dominators, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    out = np.zeros(len(t), dtype=bool)
    if not len(d) or not len(t):
        return out
    if d.shape[1] != t.shape[1]:
        raise ArgumentError("performance vectors cover different measure sets")
    for rows in _row_blocks(len(t), len(d)):
        b = t[rows]
        rejected = np.zeros((len(b), len(d)), dtype=bool)
        anchored = np.zeros_like(rejected)
        for m in range(t.shape[1]):
            rejected |= d[None, :, m] > factor * b[:, None, m]
            anchored |= d[None, :, m] <= b[:, None, m]
        out[rows] = (anchored & ~rejected).any(axis=1)
    return out


def state_count_bound(space: StateSpace) -> int:
    """Number of attribute-consistent bitmaps, empty schema excluded."""
    total = 1
    for a in space.universal.schema:
        bits = space.attr_bits[a]
        if a in space.protected:
            continue
        total *= 2 ** len(bits)
    return total - (0 if space.protected else 1)


def enumerate_all(universal: UniversalTable, estimator, measures: MeasureSet,
                  target: Optional[str] = None, max_bits: int = 20,
                  log: Optional[TestLog] = None) -> list:
    """Valuate every non-degenerate state of the instance.

    Walks the product of per-attribute literal subsets (the protected target,
    when given, always keeps its full set).  Refuses instances whose bitmap
    is longer than ``max_bits``.
    """
    protected = (target,) if target else ()
    space = StateSpace(universal, protected=protected)
    if space.n_bits > max_bits:
        raise EnumerationCapError(
            f"bitmap length {space.n_bits} exceeds the {max_bits}-bit enumeration cap",
            required=state_count_bound(space),
        )
    log = log if log is not None else TestLog()

    per_attr_choices = []
    for a in universal.schema:
        bits = space.attr_bits[a]
        if a in space.protected:
            per_attr_choices.append([tuple(bits)])
            continue
        subsets = []
        for r in range(len(bits) + 1):
            subsets.extend(itertools.combinations(bits, r))
        per_attr_choices.append(subsets)

    states = []
    for combo in itertools.product(*per_attr_choices):
        chosen = [i for subset in combo for i in subset]
        bitmap = space.bitmap_from_bits(chosen)
        if space.is_degenerate(bitmap):
            continue
        state = SearchState(bitmap, level=0)
        perf, _ = valuate(state, estimator, log, measures, space)
        states.append(state.valuated(perf))
    states.sort(key=lambda s: s.bitmap.bits)
    return states


def check_eps_cover(grid: SkylineGrid, all_states: Sequence[SearchState],
                    eps: float) -> EnumerationReport:
    """Assert every valuated in-bounds state is eps-dominated by an occupant."""
    report = EnumerationReport(total_states=len(all_states))
    specs = grid.measures.specs
    values = np.array([s.perf for s in all_states],
                      dtype=np.float64).reshape(len(all_states), len(specs))
    in_bounds = np.flatnonzero((values <= [spec.p_high for spec in specs]).all(axis=1))
    covered = eps_covered([o.perf for o in grid.cells.values()],
                          values[in_bounds], eps)
    for i in in_bounds[~covered].tolist():
        report.eps_cover_violations.append(
            (all_states[i].bitmap.to_hex(), "no occupant eps-dominates this state")
        )
    report.exact_front = [s.bitmap.to_hex() for s in naive_exact_pareto(list(all_states))]
    return report


def check_pruned(report: EnumerationReport, pruned: Sequence[PrunedState],
                 all_states: Sequence[SearchState],
                 searched: TestLog, oracle_log: TestLog, eps: float):
    """Audit pruning into ``report``: every pruned state the oracle valuated
    must be eps-dominated by some state the search valuated (``searched``),
    both taken at their oracle vectors."""
    valuated = [s.perf for s in all_states if searched.get(s.bitmap) is not None]
    audited = [(p, oracle_log.get(p.bitmap)) for p in pruned]
    audited = [(p, entry) for p, entry in audited if entry is not None]
    covered = eps_covered(valuated, [entry.perf for _, entry in audited], eps)
    for (p, _), ok in zip(audited, covered.tolist()):
        if ok:
            report.pruned_validated += 1
        else:
            report.eps_cover_violations.append(
                (p.bitmap.to_hex(), "pruned state not eps-dominated by a valuated state")
            )


def check_div_bound(chosen: Sequence[SearchState], ground: Sequence[SearchState],
                    k: int, alpha: float, log: TestLog,
                    measures: MeasureSet) -> float:
    """Ratio of the chosen set's diversity to the best k-subset's.

    The caller asserts the streaming guarantee ``ratio >= 0.25``.
    """
    if len(ground) > 14:
        raise ArgumentError("ground set too large to enumerate (max 14)")
    if k > len(ground):
        raise ArgumentError("k exceeds the ground set size")
    best = 0.0
    for subset in itertools.combinations(ground, k):
        best = max(best, div_score(subset, alpha, log, measures))
    achieved = div_score(list(chosen), alpha, log, measures)
    if best == 0.0:
        return 1.0
    return achieved / best
