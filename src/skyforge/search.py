"""The generation algorithms: one level-wise walk over the running graph.

``apx``   reduce-from-universal: reducts forward from the full bitmap only.
``nobi``  bidirectional: reducts forward, augments backward from ``back_st``.
``bi``    bidirectional with correlation-based pruning of sandwiched states.
``div``   ``bi`` whose per-level survivors are greedily diversified down to
          k states before expansion continues.

Everything is deterministic: children valuate and submit in bitmap order,
queues advance level by level, and no RNG is involved anywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import ArgumentError, EstimatorFailure
from .measures import (
    Bounds,
    CorrelationGraph,
    MeasureSet,
    PerfVector,
    TestLog,
    build_correlation_graph,
    estimate_bounds,
    valuate,
)
from .operators import BACKWARD, FORWARD, Bitmap, SearchState, StateSpace
from .skyline import SkylineGrid
from .tabular import UniversalTable, _row_blocks

ALGORITHMS = ("apx", "bi", "nobi", "div")


@dataclass
class SearchConfig:
    epsilon: float
    budget: int = 2**31
    max_len: Optional[int] = None
    algorithm: str = "apx"
    k: int = 0
    alpha: float = 0.5
    theta: float = 0.8
    target: Optional[str] = None

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ArgumentError("epsilon must be positive")
        if self.budget < 1:
            raise ArgumentError("budget must be at least 1")
        if self.algorithm not in ALGORITHMS:
            raise ArgumentError(f"unknown algorithm {self.algorithm!r}")
        if self.algorithm == "div" and self.k < 1:
            raise ArgumentError("diversified search needs k >= 1")
        if self.algorithm != "apx" and not self.target:
            raise ArgumentError("bidirectional search needs a target attribute")
        if not 0.0 <= self.alpha <= 1.0:
            raise ArgumentError("alpha must lie in [0, 1]")


@dataclass
class RunningGraph:
    """DAG of explored states connected by one-flip transitions."""

    nodes: dict = field(default_factory=dict)   # bits -> SearchState (valuated)
    roots: list = field(default_factory=list)
    parents: dict = field(default_factory=dict)  # bits -> first inbound Transition

    def path_to(self, bitmap: Bitmap) -> list:
        """Operator path from a root to the bitmap, for provenance replay."""
        path = []
        bits = bitmap.bits
        root_bits = {b.bits for b in self.roots}
        while bits not in root_bits:
            edge = self.parents.get(bits)
            if edge is None:
                raise ArgumentError(f"no recorded path to bitmap {bits:x}")
            path.append(edge)
            bits = edge.source.bits
        path.reverse()
        return path


@dataclass(frozen=True)
class PrunedState:
    bitmap: Bitmap
    forward: Bitmap
    backward: Bitmap
    level: int


@dataclass
class RunResult:
    grid: SkylineGrid
    graph: RunningGraph
    log: TestLog
    algorithm: str
    space: StateSpace
    valuations: int = 0
    partial: bool = False
    failure: Optional[str] = None
    pruned: list = field(default_factory=list)
    div_set: list = field(default_factory=list)


def back_st(space: StateSpace, target: str, needs_feature: bool = False) -> SearchState:
    """Minimal backward start: the target attribute with all of its value
    clusters retained, so no class of the target is missed.

    When the estimator needs a feature column, the first non-target
    attribute's first literal joins the bitmap (fixed deterministic choice).
    """
    u = space.universal
    if target not in u.schema:
        raise ArgumentError(f"target {target!r} not in universal schema")
    bits = list(space.attr_bits[target])
    if not bits:
        raise ArgumentError(f"target {target!r} has no literals")
    if needs_feature:
        for a in u.schema:
            if a != target and space.attr_bits[a]:
                bits.append(space.attr_bits[a][0])
                break
    return SearchState(space.bitmap_from_bits(bits), level=0)


def _bounds_of(state: SearchState, space: StateSpace, log: TestLog,
               graph: CorrelationGraph, measures: MeasureSet) -> PerfVector:
    if state.perf is not None and state.perf.is_fully_valuated():
        return state.perf
    return estimate_bounds(state.bitmap, space.row_count(state.bitmap),
                           log, graph, measures)


def param_eps_dominates(a: PerfVector, b: PerfVector, eps: float) -> bool:
    """Interval form of eps-dominance of ``b`` by ``a``.

    Valuated entries are point intervals, so all the mixed cases collapse to
    upper(a) <= (1+eps) * lower(b) per measure.  Any unvaluated-and-unbounded
    entry makes the relation indeterminate, reported as False.
    """
    if len(a) != len(b):
        raise ArgumentError("vectors cover different measure sets")
    factor = 1.0 + eps
    for i in range(len(a)):
        ua, lb = a.upper(i), b.lower(i)
        if ua is None or lb is None:
            return False
        if ua > factor * lb:
            return False
    return True


def _informative(bounds: PerfVector, measures: MeasureSet) -> bool:
    for i, spec in enumerate(measures.specs):
        v = bounds.values[i]
        if isinstance(v, Bounds):
            if (v.lo, v.hi) != (spec.p_low, spec.p_high):
                return True
        elif v is not None:
            return True
    return False


def can_prune(s_mid: SearchState, fwd: SearchState, bwd: SearchState, eps: float,
              graph: CorrelationGraph, log: TestLog, measures: MeasureSet,
              space: StateSpace) -> bool:
    """Skip ``s_mid`` without valuating it?

    Requires: the mid state sandwiched between the endpoints by bitmap
    containment, the backward endpoint interval-dominating the forward one
    within (1+eps), and the same interval relation holding against the mid's
    own estimated bounds, so an already-valuated state eps-dominates whatever
    value the mid could take.  A mid whose bounds all come from the declared
    measure ranges carries no evidence and is never pruned; with an empty
    correlation graph no bounds are derivable at all.
    """
    if graph.is_empty():
        return False
    if s_mid.bitmap.bits in (fwd.bitmap.bits, bwd.bitmap.bits):
        return False
    if not (fwd.bitmap.contains(s_mid.bitmap) and s_mid.bitmap.contains(bwd.bitmap)):
        return False
    fwd_b = _bounds_of(fwd, space, log, graph, measures)
    bwd_b = _bounds_of(bwd, space, log, graph, measures)
    if not param_eps_dominates(bwd_b, fwd_b, eps):
        return False
    mid_b = estimate_bounds(s_mid.bitmap, space.row_count(s_mid.bitmap),
                            log, graph, measures)
    if not _informative(mid_b, measures):
        return False
    return param_eps_dominates(bwd_b, mid_b, eps)


# -- diversification ---------------------------------------------------------


def _euc(a: PerfVector, b: PerfVector) -> float:
    sq = 0.0
    for x, y in zip(a.as_floats(), b.as_floats()):
        # plain left-to-right adds, as _euc_max does (sum() compensates
        # rounding from Python 3.12 on)
        sq += (x - y) ** 2
    return math.sqrt(sq)


def _euc_max(log: TestLog, measures: MeasureSet) -> float:
    """Largest ``_euc`` between two fully valuated log entries, cached per
    log version (``sqrt(len(measures))`` when there is no positive one).

    Blocked over rows, one measure column at a time, in ``_euc``'s order of
    subtractions, squares and additions.  ``np.float_power`` squares through
    the C library's ``pow``, as Python's ``**`` does; ``d * d`` differs from
    it in the last bit for about one ``d`` in a thousand.  ``sqrt`` is
    correctly rounded and monotone, so ``sqrt`` of the largest square sum is
    the largest distance bit for bit.
    """
    cached = getattr(log, "_euc_max_cache", None)
    if cached is not None and cached[0] == log.version:
        return cached[1]
    x = np.array([e.perf.as_floats() for e in log if e.perf.is_fully_valuated()],
                 dtype=np.float64)
    largest = 0.0
    if len(x) >= 2:
        for rows in _row_blocks(len(x), len(x)):
            # row i against every j >= the block's first row: each pair once
            # or twice, never skipped
            sq = np.zeros((len(x[rows]), len(x) - rows.start))
            for m in range(x.shape[1]):
                sq += np.float_power(x[rows, None, m] - x[None, rows.start:, m], 2.0)
            largest = max(largest, float(sq.max()))
    value = math.sqrt(largest) if largest > 0.0 else math.sqrt(len(measures))
    log._euc_max_cache = (log.version, value)
    return value


def dis_score(a: SearchState, b: SearchState, alpha: float, log: TestLog,
              measures: MeasureSet) -> float:
    """Blend of bitmap cosine dissimilarity and normalized performance
    distance, in [0, 1]."""
    if a.bitmap.length != b.bitmap.length:
        raise ArgumentError("bitmaps have different lengths")
    if a.perf is None or b.perf is None:
        raise ArgumentError("dis_score needs valuated states")
    na, nb = a.bitmap.popcount(), b.bitmap.popcount()
    if na == 0 or nb == 0:
        cos = 0.0  # cosine undefined on a zero bitmap
    else:
        common = (a.bitmap.bits & b.bitmap.bits).bit_count()
        cos = common / math.sqrt(na * nb)
    euc_m = _euc_max(log, measures)
    euc = _euc(a.perf, b.perf) / euc_m if euc_m > 0 else 0.0
    score = alpha * (1.0 - cos) / 2.0 + (1.0 - alpha) * euc
    return min(max(score, 0.0), 1.0)


def div_score(states: Sequence[SearchState], alpha: float, log: TestLog,
              measures: MeasureSet) -> float:
    total = 0.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            total += dis_score(states[i], states[j], alpha, log, measures)
    return total


def diversify_level(level_set: Sequence[SearchState], k: int, alpha: float,
                    log: TestLog, measures: MeasureSet) -> list:
    """Greedy swap diversification of one level's survivors down to k.

    Seeds with the first k states in bitmap order, then gives every seed
    member one chance to be replaced by the outside state that most improves
    the summed pairwise distance.
    """
    if k < 1:
        raise ArgumentError("k must be at least 1")
    states = list(level_set)
    if len(states) <= k:
        return states

    pair_cache: dict = {}

    def dis(a: SearchState, b: SearchState) -> float:
        key = (min(a.bitmap.bits, b.bitmap.bits), max(a.bitmap.bits, b.bitmap.bits))
        if key not in pair_cache:
            pair_cache[key] = dis_score(a, b, alpha, log, measures)
        return pair_cache[key]

    def score(members: list) -> float:
        total = 0.0
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                total += dis(members[i], members[j])
        return total

    ordered = sorted(states, key=lambda s: s.bitmap.bits)
    chosen = ordered[:k]
    best_score = score(chosen)
    for seed in list(chosen):
        if seed not in chosen:
            continue
        best_swap = None
        for candidate in ordered:
            if any(candidate.bitmap.bits == m.bitmap.bits for m in chosen):
                continue
            trial = [m for m in chosen if m is not seed] + [candidate]
            trial_score = score(trial)
            if trial_score > best_score and (
                best_swap is None or trial_score > best_swap[0]
            ):
                best_swap = (trial_score, candidate)
        if best_swap is not None:
            chosen = [m for m in chosen if m is not seed] + [best_swap[1]]
            best_score = best_swap[0]
    return sorted(chosen, key=lambda s: s.bitmap.bits)


# -- the level-wise runner ----------------------------------------------------


class _BudgetExhausted(Exception):
    pass


class _Runner:
    def __init__(self, universal: UniversalTable, measures: MeasureSet,
                 estimator, cfg: SearchConfig):
        protected = (cfg.target,) if cfg.target else ()
        self.space = StateSpace(universal, protected=protected)
        self.measures = measures
        self.estimator = estimator
        self.cfg = cfg
        self.pruning = cfg.algorithm in ("bi", "div")
        self.grid = SkylineGrid(cfg.epsilon, measures)
        self.log = TestLog()
        self.graph = RunningGraph()
        self.valuations = 0
        self.regions: list = []  # validated (forward state, backward state) pairs
        self.pruned: list = []
        self.pruned_bits: set = set()  # once pruned, never revisited from either side
        self.div_set: list = []
        self._corr_cache = None

    def corr_graph(self) -> CorrelationGraph:
        if self._corr_cache is None or self._corr_cache[0] != self.log.version:
            graph = build_correlation_graph(self.log, self.cfg.theta, self.measures)
            self._corr_cache = (self.log.version, graph)
        return self._corr_cache[1]

    def valuate_one(self, state: SearchState) -> SearchState:
        cached = self.log.get(state.bitmap)
        if cached is not None and cached.perf.is_fully_valuated():
            return state.valuated(cached.perf)
        if self.valuations >= self.cfg.budget:
            raise _BudgetExhausted
        perf, invoked = valuate(state, self.estimator, self.log, self.measures,
                                self.space)
        if invoked:
            self.valuations += 1
        return state.valuated(perf)

    def valuate_level(self, children: list) -> tuple:
        """Valuate a sorted batch; returns (valuated, budget_hit)."""
        out = []
        for child in children:
            try:
                out.append(self.valuate_one(child))
            except _BudgetExhausted:
                return out, True
        return out, False

    def expand(self, frontier: list, direction: str, seen: set) -> list:
        children = []
        for state in frontier:
            for child, transition in self.space.op_gen(state, direction):
                self.graph.parents.setdefault(child.bitmap.bits, transition)
                if child.bitmap.bits in seen:
                    continue
                seen.add(child.bitmap.bits)
                children.append(child)
        children.sort(key=lambda s: s.bitmap.bits)
        return children

    def start_root(self, state: SearchState) -> SearchState:
        valuated = self.valuate_one(state)
        self.graph.roots.append(valuated.bitmap)
        self.graph.nodes[valuated.bitmap.bits] = valuated
        self.grid.submit(valuated)
        return valuated

    def try_prune(self, child: SearchState) -> bool:
        if not self.pruning or not self.regions:
            return False
        if child.bitmap.bits in self.pruned_bits:
            return True
        cached = self.log.get(child.bitmap)
        if cached is not None and cached.perf.is_fully_valuated():
            return False  # nothing to save: valuation is a cache hit
        graph = self.corr_graph()
        if graph.is_empty():
            return False
        for f_state, b_state in self.regions:
            if can_prune(child, f_state, b_state, self.cfg.epsilon, graph,
                         self.log, self.measures, self.space):
                self.pruned.append(PrunedState(child.bitmap, f_state.bitmap,
                                               b_state.bitmap, child.level))
                self.pruned_bits.add(child.bitmap.bits)
                return True
        return False

    def add_regions(self, valuated_f: list, valuated_b: list):
        for f_state in valuated_f:
            for b_state in valuated_b:
                if f_state.bitmap.bits == b_state.bitmap.bits:
                    continue
                if not f_state.bitmap.contains(b_state.bitmap):
                    continue
                if param_eps_dominates(b_state.perf, f_state.perf, self.cfg.epsilon):
                    self.regions.append((f_state, b_state))

    def diversify(self, valuated: list) -> list:
        unique: dict = {}
        for s in valuated[0] + valuated[1]:
            unique.setdefault(s.bitmap.bits, s)
        self.div_set = diversify_level(list(unique.values()), self.cfg.k,
                                       self.cfg.alpha, self.log, self.measures)
        chosen = {s.bitmap.bits for s in self.div_set}
        return [[s for s in side if s.bitmap.bits in chosen] for side in valuated]

    def walk(self):
        """Valuate the start states, then expand forward (reducts) and
        backward (augments) level by level until the frontiers empty or
        meet, or ``max_len`` or the budget stops the walk."""
        cfg = self.cfg
        try:
            fwd_root = self.start_root(self.space.root_state())
            frontiers = [[fwd_root], []]
            if cfg.algorithm != "apx":
                needs_feature = bool(getattr(self.estimator, "requires_feature", False))
                bwd_start = back_st(self.space, cfg.target, needs_feature)
                if bwd_start.bitmap.bits == fwd_root.bitmap.bits:
                    return
                frontiers[1].append(self.start_root(bwd_start))
        except _BudgetExhausted:
            return
        seen = [{s.bitmap.bits for s in side} for side in frontiers]
        level = 0
        while frontiers[0] or frontiers[1]:
            if cfg.max_len is not None and level >= cfg.max_len:
                break
            if {s.bitmap.bits for s in frontiers[0]} & {s.bitmap.bits for s in frontiers[1]}:
                break  # frontiers met: every candidate between is explored
            children = [self.expand(frontiers[0], FORWARD, seen[0]),
                        self.expand(frontiers[1], BACKWARD, seen[1])]
            valuated: list = [[], []]
            for side, batch in enumerate(children):
                got, budget_hit = self.valuate_level(
                    [c for c in batch if not self.try_prune(c)])
                for child in got:
                    self.graph.nodes[child.bitmap.bits] = child
                    self.grid.submit(child)
                valuated[side] = got
                if budget_hit:
                    break
            if self.pruning:
                self.add_regions(*valuated)
            if budget_hit:
                break
            if cfg.algorithm == "div":
                valuated = self.diversify(valuated)
            frontiers = valuated
            level += 1


def run_algorithm(universal: UniversalTable, measures: MeasureSet, estimator,
                  cfg: SearchConfig) -> RunResult:
    """Run ``cfg.algorithm``; an estimator failure ends the walk early and
    returns what was found so far, flagged ``partial``."""
    runner = _Runner(universal, measures, estimator, cfg)
    failure = None
    try:
        runner.walk()
    except EstimatorFailure as exc:
        failure = str(exc)
    return RunResult(grid=runner.grid, graph=runner.graph, log=runner.log,
                     algorithm=cfg.algorithm, space=runner.space,
                     valuations=runner.valuations, partial=failure is not None,
                     failure=failure, pruned=runner.pruned, div_set=runner.div_set)
