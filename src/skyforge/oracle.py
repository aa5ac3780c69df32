"""Brute-force verification harness.

Everything here is deliberately independent of the search machinery: the
oracle owns its dominance and relaxed-dominance predicates, the front comes
from an O(n^2) pairwise filter (after a few pivot rows drop what they
dominate), and enumeration walks the whole bitmap space
directly instead of following any transition order.  The pairwise work runs
as blocked numpy comparisons, one measure column at a time, so its memory is
bounded for any number of states; ``naive_dominates`` and
``naive_eps_dominates`` are the scalar specifications the front and cover
kernels compute.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import Optional, Sequence

import numpy as np

from .errors import ArgumentError, EnumerationCapError
from .measures import LogEntry, MeasureSet, TestLog, valuate
from .operators import Bitmap, StateSpace
from .search import PrunedState, div_score
from .skyline import SkylineGrid
from .tabular import UniversalTable, _row_blocks

MAX_BITS = 20  # the default enumeration cap, in bitmap bits
PIVOTS = 8  # smallest-sum rows that screen the exact front before its pairwise pass


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


def _some_row(d: np.ndarray, t: np.ndarray, every, some) -> np.ndarray:
    """``out[i]``: for some row ``r`` of ``d``, ``every(r[m], t[i, m])`` holds
    at every measure ``m`` and ``some(r[m], t[i, m])`` at one or more; the
    blocked pairwise loop of both kernels below."""
    out = np.zeros(len(t), dtype=bool)
    for rows in _row_blocks(len(t), len(d)):
        b = t[rows]
        all_hold = np.ones((len(b), len(d)), dtype=bool)
        one_holds = np.zeros_like(all_hold)
        for m in range(t.shape[1]):
            all_hold &= every(d[None, :, m], b[:, None, m])
            one_holds |= some(d[None, :, m], b[:, None, m])
        out[rows] = (all_hold & one_holds).any(axis=1)
    return out


def _dominated(v: np.ndarray) -> np.ndarray:
    """``out[i]``: some row of ``v`` ``naive_dominates`` row ``i``."""
    return _some_row(v, v, np.less_equal, np.less)


def naive_exact_pareto(states: Sequence[LogEntry]) -> list:
    """The non-dominated states in input order, the first of each vector.

    The ``PIVOTS`` rows of smallest sum first drop every state they
    dominate; the pairwise filter then runs on the states left.  A
    dominated state is dominated by some non-dominated state (dominance is
    transitive), and no pivot drops a non-dominated state, so the second
    pass still finds every dominated state among those left.
    """
    vectors = [s.perf for s in states]
    if not vectors:
        return []
    v = np.array(vectors, dtype=np.float64)
    pivots = v[np.argsort(v.sum(axis=1), kind="stable")[:PIVOTS]]
    left = np.flatnonzero(~_some_row(pivots, v, np.less_equal, np.less))
    out = []
    seen = set()
    for i in left[~_dominated(v[left])].tolist():
        if vectors[i] not in seen:
            out.append(states[i])
            seen.add(vectors[i])
    return out


def eps_covered(dominators, targets, eps: float) -> np.ndarray:
    """``out[i]``: some dominator ``naive_eps_dominates`` ``targets[i]``.

    Both arguments are float vectors of one width (valuated tuples or matrix
    rows).  ``a`` eps-dominates ``b`` when every ``a[m] <= (1+eps) * b[m]``
    and some ``a[m] <= b[m]``, the relaxed dominance the grid promises (on
    finite vectors, as valuated ones are, the first test is the predicate's
    "no ``a[m] > (1+eps) * b[m]``").
    """
    if eps < 0:
        raise ArgumentError("eps must be non-negative")
    factor = 1.0 + eps
    d = np.asarray(dominators, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if not len(d) or not len(t):
        return np.zeros(len(t), dtype=bool)
    if d.shape[1] != t.shape[1]:
        raise ArgumentError("performance vectors cover different measure sets")
    return _some_row(d, t, lambda x, y: x <= factor * y, np.less_equal)


def state_count_bound(space: StateSpace) -> int:
    """Number of bitmaps holding every protected bit, empty schema excluded."""
    return 2 ** space.free_bits.bit_count() - (0 if space.protected else 1)


def _check_cap(universal: UniversalTable, target: Optional[str], max_bits: int):
    """Refuse an instance whose bitmap (one bit per literal) is longer than
    ``max_bits``; only a refusal builds a state space, to count ``required``."""
    if max_bits < 1:
        raise ArgumentError(f"the enumeration cap must be at least 1 bit, got {max_bits!r}")
    n_bits = sum(len(universal.literals(a)) for a in universal.schema)
    if n_bits > max_bits:
        space = StateSpace(universal, protected=(target,))
        raise EnumerationCapError(f"bitmap length {n_bits} exceeds the {max_bits}-bit enumeration cap",
                                  required=state_count_bound(space))


def enumerate_all(universal: UniversalTable, estimator, measures: MeasureSet,
                  target: Optional[str] = None, max_bits: int = MAX_BITS,
                  log: Optional[TestLog] = None) -> list:
    """The log entries of every non-degenerate state of the instance, in
    ascending bitmap order.

    Walks the submasks of the free bits in ascending order, each with every
    bit of the protected target, when given.  Each valuation is told up to
    the estimator's ``lookahead`` next bitmaps whose valuations call the
    estimator (those not already in the log), from a queue of the bitmaps
    pulled ahead of it, as the search's walk does, so each bitmap is looked
    up in the log once.  Refuses instances whose bitmap is longer than
    ``max_bits``.
    """
    _check_cap(universal, target, max_bits)
    space = StateSpace(universal, protected=(target,))
    log = log if log is not None else TestLog()
    free = space.free_bits
    fixed = space.full_bitmap().bits & ~free
    todo = []
    sub = 0
    while True:
        bitmap = Bitmap(sub | fixed, space.n_bits)
        if not space.is_degenerate(bitmap):
            todo.append(bitmap)
        if sub == free:
            break
        sub = (sub - free) & free  # the next submask of free, in ascending order
    lookahead = getattr(estimator, "lookahead", 0)
    logged = {entry.bitmap.bits for entry in log}  # valuating these calls no estimator
    entries, pending, calls = [], deque(), 0  # pulled (bitmap, call) pairs; their calls
    for bitmap in itertools.chain(todo, (None,)):
        if bitmap is not None:
            call = bitmap.bits not in logged
            pending.append((bitmap, call))
            calls += call
        # the head goes once ``lookahead`` calls follow it, or at the end
        while pending and (bitmap is None or calls - pending[0][1] >= lookahead):
            head, call = pending.popleft()
            calls -= call
            upcoming = tuple(b for b, c in pending if c) if calls else ()
            entries.append(valuate(head, estimator, log, measures, space, upcoming)[0])
    return entries


def check_eps_cover(grid: SkylineGrid, all_states: Sequence[LogEntry],
                    eps: float) -> dict:
    """The cover part of a verify report: every valuated in-bounds state
    must be eps-dominated by an occupant.  Violations are ``(hex, reason)``."""
    specs = grid.measures.specs
    values = np.array([s.perf for s in all_states],
                      dtype=np.float64).reshape(len(all_states), len(specs))
    in_bounds = np.flatnonzero((values <= [spec.p_high for spec in specs]).all(axis=1))
    covered = eps_covered([o.perf for o in grid.cells.values()],
                          values[in_bounds], eps)
    return {
        "total_states": len(all_states),
        "exact_front": [s.bitmap.to_hex() for s in naive_exact_pareto(list(all_states))],
        "eps_cover_violations": [(all_states[i].bitmap.to_hex(),
                                  "no occupant eps-dominates this state")
                                 for i in in_bounds[~covered].tolist()],
    }


def check_pruned(report: dict, pruned: Sequence[PrunedState],
                 all_states: Sequence[LogEntry],
                 searched: TestLog, oracle_log: TestLog, eps: float):
    """Audit pruning into ``report``: every pruned state the oracle valuated
    must be eps-dominated by some state the search valuated (``searched``),
    both taken at their oracle vectors.  Sets ``pruned_validated`` and adds
    to ``eps_cover_violations``."""
    valuated = [s.perf for s in all_states if searched.get(s.bitmap) is not None]
    audited = [(p, oracle_log.get(p.bitmap)) for p in pruned]
    audited = [(p, entry) for p, entry in audited if entry is not None]
    covered = eps_covered(valuated, [entry.perf for _, entry in audited], eps).tolist()
    report["pruned_validated"] = sum(covered)
    report["eps_cover_violations"] += [
        (p.bitmap.to_hex(), "pruned state not eps-dominated by a valuated state")
        for (p, _), ok in zip(audited, covered) if not ok
    ]


def check_div_bound(chosen: Sequence[LogEntry], ground: Sequence[LogEntry],
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
