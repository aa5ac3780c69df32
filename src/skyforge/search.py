"""The generation algorithms: one level-wise walk over the running graph.

``apx``   reduce-from-universal: reducts forward from the full bitmap only.
``nobi``  bidirectional: reducts forward, augments backward from a minimal
          backward start (the target's clusters, see ``_Runner.batches``).
``bi``    bidirectional with correlation-based pruning of sandwiched states.
``div``   ``bi`` whose per-level survivors are greedily diversified down to
          k states before expansion continues.

Everything is deterministic and RNG-free.  The walk is one stream of
states in valuation order, children in bitmap order, cut by the budget in
one place; it reads results only at barriers, so each estimator call is
told the next calls across batches, sides and levels.  Each batch of a
level is one ``StateSpace.op_gen`` call over the frontier's open parents,
which deduplicates their children before it builds any row mask.
Frontiers are ``int`` bitmaps, and children stay ints through generation,
deduplication and containment tests; each level builds one ``Bitmap`` per
distinct child it yields.  That ``Bitmap`` is the unvaluated state that
``valuate``, ``can_prune`` and the estimator, as ``estimate(bitmap, space,
upcoming=())``, take; ``SearchState`` exists only for the ``apply_reduct``
and ``apply_augment`` provenance replay.  Once valuated, a state is the
log's own ``LogEntry``.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .errors import ArgumentError, EstimatorFailure
from .measures import (LogEntry, MeasureSet, TestLog, build_correlation_graph, estimate_bounds,
                       valuate)
from .operators import BACKWARD, FORWARD, Bitmap, StateSpace
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
        # NaN fails every comparison and nothing finite exceeds
        # sys.float_info.max, so the float ranges also refuse NaN and infinity
        if self.algorithm not in ALGORITHMS:
            raise ArgumentError(f"unknown algorithm {self.algorithm!r}")
        if not 0 < self.epsilon <= sys.float_info.max:
            raise ArgumentError("epsilon must be finite and positive")
        # JSON's 2.0 passes the schema's "integer", but the walk needs ints
        for key in ("budget", "k", "max_len"):
            value = getattr(self, key)
            if not (isinstance(value, int) or key == "max_len" and value is None):
                raise ArgumentError(f"{key} must be an integer, got {value!r}")
        if self.budget < 1:
            raise ArgumentError("budget must be at least 1")
        if self.max_len is not None and self.max_len < 0:
            raise ArgumentError("max_len must be non-negative")
        if not 0 <= self.theta <= sys.float_info.max:
            raise ArgumentError("theta must be non-negative and finite")
        if self.k < 0:
            raise ArgumentError("k must be non-negative")
        if self.algorithm == "div" and self.k < 1:
            raise ArgumentError("diversified search needs k >= 1")
        if self.algorithm != "apx" and not self.target:
            raise ArgumentError("bidirectional search needs a target attribute")
        if not 0.0 <= self.alpha <= 1.0:
            raise ArgumentError("alpha must lie in [0, 1]")


@dataclass(frozen=True)
class PrunedState:
    bitmap: Bitmap
    forward: Bitmap
    backward: Bitmap
    level: int


@dataclass
class RunResult:
    """What a run found.  ``roots`` and ``parents`` are its running graph:
    the start bitmaps, and for every child the walk reached, its bits ->
    its first inbound parent's bits, one flipped bit away."""

    grid: SkylineGrid
    log: TestLog
    algorithm: str
    space: StateSpace
    roots: list
    parents: dict
    valuations: int = 0
    partial: bool = False
    failure: Optional[str] = None
    pruned: list = field(default_factory=list)
    div_set: list = field(default_factory=list)


def param_eps_dominates(a: tuple, b: tuple, eps: float) -> bool:
    """``a`` eps-dominates ``b`` in the interval sense: every measure of
    ``a`` is at most (1+eps) times the same measure of ``b``."""
    if len(a) != len(b):
        raise ArgumentError("vectors cover different measure sets")
    factor = 1.0 + eps
    for x, y in zip(a, b):
        if not x <= factor * y:
            return False
    return True


def can_prune(mid: Bitmap, regions: Sequence[tuple], eps: float, graph: dict,
              log: TestLog, measures: MeasureSet, space: StateSpace) -> Optional[tuple]:
    """The first ``(forward, backward)`` region that certifies skipping the
    unvaluated bitmap ``mid`` without valuating it, or None.

    A region certifies the skip when its bitmaps sandwich the mid by
    containment and its valuated backward endpoint eps-dominates the lower
    bounds of the mid's row-count estimate, so an already-valuated state
    eps-dominates whatever value the mid could take.  Regions are admitted
    only when the backward endpoint eps-dominates the forward one.  The
    estimate depends on the mid alone and is made once; when every measure
    falls back to its declared range (an empty correlation graph, or no
    bracketing log entries) it carries no evidence and nothing is pruned.
    """
    lower, bits = None, mid.bits
    for fwd, bwd in regions:
        if bits & ~fwd.bitmap.bits or bwd.bitmap.bits & ~bits:
            continue  # the region does not sandwich the mid
        if lower is None:
            bounds = estimate_bounds(space.row_count(mid), log, graph, measures)
            if all(b == (spec.p_low, spec.p_high) for b, spec in zip(bounds, measures)):
                return None
            lower = tuple(lo for lo, _ in bounds)
        if param_eps_dominates(bwd.perf, lower, eps):
            return fwd, bwd
    return None


# -- diversification ---------------------------------------------------------


def _euc(a: tuple, b: tuple) -> float:
    sq = 0.0
    for x, y in zip(a, b):
        # plain left-to-right adds, as _euc_max does (sum() compensates
        # rounding from Python 3.12 on)
        sq += (x - y) ** 2
    return math.sqrt(sq)


def _euc_max(log: TestLog, measures: MeasureSet) -> float:
    """Largest ``_euc`` between two log entries, cached per log length (the
    log only grows; ``sqrt(len(measures))`` when there is no positive one).

    Blocked over rows, one measure column at a time, in ``_euc``'s order of
    subtractions, squares and additions.  ``np.float_power`` squares through
    the C library's ``pow``, as Python's ``**`` does; ``d * d`` differs from
    it in the last bit for about one ``d`` in a thousand.  ``sqrt`` is
    correctly rounded and monotone, so ``sqrt`` of the largest square sum is
    the largest distance bit for bit.
    """
    cached = getattr(log, "_euc_max_cache", None)
    if cached is not None and cached[0] == len(log):
        return cached[1]
    x = np.array([e.perf for e in log], dtype=np.float64)
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
    log._euc_max_cache = (len(log), value)
    return value


def dis_score(a: LogEntry, b: LogEntry, alpha: float, log: TestLog,
              measures: MeasureSet) -> float:
    """Blend of bitmap cosine dissimilarity and normalized performance
    distance, in [0, 1]."""
    if a.bitmap.length != b.bitmap.length:
        raise ArgumentError("bitmaps have different lengths")
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


def div_score(states: Sequence[LogEntry], alpha: float, log: TestLog,
              measures: MeasureSet) -> float:
    total = 0.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            total += dis_score(states[i], states[j], alpha, log, measures)
    return total


def diversify_level(level_set: Sequence[LogEntry], k: int, alpha: float,
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

    def dis(a: LogEntry, b: LogEntry) -> float:
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


class _Runner:
    def __init__(self, universal: UniversalTable, measures: MeasureSet,
                 estimator, cfg: SearchConfig):
        self.space = StateSpace(universal, protected=(cfg.target,) if cfg.target else ())
        self.measures = measures
        self.estimator = estimator
        self.cfg = cfg
        self.grid = SkylineGrid(cfg.epsilon, measures)
        self.log = TestLog()
        self.roots: list = []  # the start bitmaps
        self.parents: dict = {}  # child bits -> first inbound parent bits
        self.regions: list = []  # validated (forward entry, backward entry) pairs
        self.pruned: list = []
        self.pruned_bits: set = set()  # once pruned, never revisited from either side
        self.div_set: list = []
        self.claimed: set = set()  # bits of every call the stream has yielded
        self.kept: list = []  # the entry of every state valuated, in stream order
        self._corr_cache = None

    def corr_graph(self) -> dict:
        if self._corr_cache is None or self._corr_cache[0] != len(self.log):
            graph = build_correlation_graph(self.log, self.cfg.theta, self.measures)
            self._corr_cache = (len(self.log), graph)
        return self._corr_cache[1]

    def expand(self, frontier: list, direction: str):
        """Yield the children of the frontier's ``int`` bitmaps in ascending
        order, as sorted batches of ``Bitmap``s, and record for each child
        the lowest-index frontier bitmap that generates it as its parent.

        When the unclaimed budget covers every possible child (one per
        flippable bit of each parent), one ``op_gen`` call over the whole
        frontier is the only batch, and no bound is computed.  Otherwise
        parents open in batches that double from one (see
        ``_bounded_batches``), so a budget stop leaves later parents
        unopened.  Children stay ints until yielded, so a child reached from
        several parents becomes one ``Bitmap``.
        """
        n_bits, parents = self.space.n_bits, self.parents
        if self.cfg.budget - len(self.claimed) >= len(frontier) * self.space.free_bits.bit_count():
            batches = [self.space.op_gen(frontier, direction)]
        else:
            batches = self._bounded_batches(frontier, direction)
        for children in batches:
            if children:
                batch = []
                for bits, index in children:
                    parents.setdefault(bits, frontier[index])
                    batch.append(Bitmap(bits, n_bits))
                yield batch

    def _bounded_batches(self, frontier: list, direction: str):
        """``expand``'s batches when the budget may stop the level, as
        ``op_gen`` lists of ``(child bits, frontier index)``.

        A parent's bound is the smallest bitmap one of its children could
        have: the parent with its highest unprotected set bit cleared
        (reducts) or its lowest unprotected clear bit set (augments).
        Parents open in bound order, in batches that double from one; once a
        batch is open, every child below the next unopened parent's bound is
        final.  Each batch is one ``op_gen`` call over every open parent for
        only the children from the previous batch's limit up to that bound
        (no limit once every parent is open), so every child built is
        yielded in that batch.
        """
        forward, free = direction == FORWARD, self.space.free_bits
        order = []  # (bound, frontier index) of every parent with a flippable bit
        for index, bits in enumerate(frontier):
            eligible = (bits if forward else ~bits) & free
            if eligible:
                flip = 1 << (eligible.bit_length() - 1) if forward else eligible & -eligible
                order.append((bits ^ flip, index))
        order.sort()
        opened, size, lo = 0, 1, 0
        while opened < len(order):
            opened += size
            size *= 2
            hi = order[opened][0] if opened < len(order) else None
            # in frontier order, so op_gen's lowest parent is the lowest frontier index
            open_indices = sorted(index for _, index in order[:opened])
            children = self.space.op_gen([frontier[i] for i in open_indices], direction, lo, hi)
            lo = hi
            yield [(bits, open_indices[k]) for bits, k in children]

    def try_prune(self, child: Bitmap, level: int) -> bool:
        if not self.regions:
            return False
        if child.bits in self.pruned_bits:
            return True
        if self.log.get(child) is not None:
            return False  # nothing to save: valuation is a cache hit
        graph = self.corr_graph()
        if not graph:
            return False  # every estimate would be the declared ranges
        region = can_prune(child, self.regions, self.cfg.epsilon, graph, self.log,
                           self.measures, self.space)
        if region is None:
            return False
        self.pruned.append(PrunedState(child, region[0].bitmap, region[1].bitmap, level))
        self.pruned_bits.add(child.bits)
        return True

    def add_regions(self, valuated_f: list, valuated_b: list):
        """Admit each (forward, backward) pair whose backward endpoint lies
        strictly inside the forward one and eps-dominates it, forward-major."""
        eps = self.cfg.epsilon
        backward = [(b_state.bitmap.bits, b_state) for b_state in valuated_b]
        for f_state in valuated_f:
            f = f_state.bitmap.bits
            outside = ~f
            for b, b_state in backward:
                if b == f or b & outside:
                    continue  # the backward endpoint must lie strictly inside
                if param_eps_dominates(b_state.perf, f_state.perf, eps):
                    self.regions.append((f_state, b_state))

    def batches(self):
        """The walk's bitmaps in valuation order, as lists: the roots, then
        each level's forward and backward sides.  None marks a barrier, the
        only place the walk reads results: every bitmap yielded before it is
        valuated by then, its entry in ``kept``.  A pruning side checks each
        child before it yields any, after a barrier once regions exist, and
        each bi and div level ends at one to admit regions and diversify;
        apx and nobi read only bitmaps, so they have no barrier."""
        cfg, space, pruning = self.cfg, self.space, self.cfg.algorithm in ("bi", "div")
        root = space.full_bitmap()
        yield [root]
        self.roots.append(root)
        frontiers = [[root.bits], []]  # forward and backward, as int bitmaps
        if cfg.algorithm != "apx":
            # minimal backward start: the target attribute with all of its
            # value clusters retained, so no class of the target is missed
            bits = list(space.attr_bits[cfg.target])
            if not bits:
                raise ArgumentError(f"target {cfg.target!r} has no literals")
            # when the estimator needs a feature column, the first non-target
            # attribute's first literal joins the bitmap (fixed deterministic choice)
            if getattr(self.estimator, "requires_feature", False):
                for a in space.universal.schema:
                    if a != cfg.target and space.attr_bits[a]:
                        bits.append(space.attr_bits[a][0])
                        break
            back = space.bitmap_from_bits(bits)
            if back == root:
                return
            yield [back]
            self.roots.append(back)
            frontiers[1].append(back.bits)
        level = 0
        while (frontiers[0] or frontiers[1]) and (cfg.max_len is None or level < cfg.max_len):
            if not set(frontiers[0]).isdisjoint(frontiers[1]):
                return  # frontiers met: every candidate between is explored
            sides = []
            for frontier, direction in zip(frontiers, (FORWARD, BACKWARD)):
                batches = self.expand(frontier, direction)
                if pruning:
                    if self.regions:
                        yield None  # each check reads the log as it stood before the side
                    batches = [[c for batch in batches for c in batch
                                if not self.try_prune(c, level + 1)]]
                sides.append([])
                for batch in batches:
                    yield batch
                    sides[-1] += (child.bits for child in batch)
            frontiers = sides
            if pruning:
                yield None  # the level's entries are the last ones kept
                n, kept = len(sides[0]), self.kept[len(self.kept) - len(sides[0]) - len(sides[1]):]
                self.add_regions(kept[:n], kept[n:])
                if cfg.algorithm == "div":
                    unique = {s.bitmap.bits: s for s in kept}  # both sides may reach a state
                    self.div_set = diversify_level(list(unique.values()), cfg.k, cfg.alpha,
                                                   self.log, self.measures)
                    chosen = {s.bitmap.bits for s in self.div_set}
                    frontiers = [[bits for bits in f if bits in chosen] for f in frontiers]
            level += 1

    def states(self):
        """The walk as one stream: ``(bitmap, call)`` in valuation order, and
        None at each barrier; ``call`` says no earlier bitmap is equal, so
        valuating it calls the estimator.  The stream ends before the first
        call past the budget, so a cut level reaches no barrier."""
        claimed, budget = self.claimed, self.cfg.budget
        for batch in self.batches():
            if batch is None:
                yield None
                continue
            for bitmap in batch:
                call = bitmap.bits not in claimed
                if call:
                    if len(claimed) >= budget:
                        return
                    claimed.add(bitmap.bits)
                yield bitmap, call

    def walk(self):
        """Valuate the stream in order, telling each estimator call the next
        ``lookahead`` calls of the stream; a barrier, or the stream's end,
        valuates every bitmap pulled before it.  Each entry goes to the grid
        at once, so an estimator failure loses no paid valuation; a bitmap
        the stream yields again is kept from the log, since submitting an
        entry twice changes nothing."""
        lookahead = getattr(self.estimator, "lookahead", 0)  # upcoming bitmaps it can use
        submit, kept = self.grid.submit, self.kept
        pending, calls = deque(), 0  # pulled (bitmap, call) pairs; their calls
        for item in chain(self.states(), (None,)):
            if item is not None:
                pending.append(item)
                calls += item[1]
            # the head goes once ``lookahead`` calls follow it, or at a barrier
            while pending and (item is None or calls - pending[0][1] >= lookahead):
                bitmap, call = pending.popleft()
                if not call:  # logged and submitted when the stream first yielded it
                    kept.append(self.log.get(bitmap))
                    continue
                calls -= 1
                upcoming = tuple(b for b, c in pending if c) if calls else ()
                entry = valuate(bitmap, self.estimator, self.log, self.measures, self.space,
                                upcoming)[0]
                submit(entry)
                kept.append(entry)


def run_algorithm(universal: UniversalTable, measures: MeasureSet, estimator,
                  cfg: SearchConfig) -> RunResult:
    """Run ``cfg.algorithm``; an estimator failure ends the walk early and
    returns what was found so far, flagged ``partial``, whose ``parents``
    may also name bitmaps the stream had already yielded past the failing
    call."""
    runner = _Runner(universal, measures, estimator, cfg)
    failure = None
    try:
        runner.walk()
    except EstimatorFailure as exc:
        failure = str(exc)
    return RunResult(grid=runner.grid, log=runner.log, algorithm=cfg.algorithm,
                     space=runner.space, roots=runner.roots, parents=runner.parents,
                     valuations=len(runner.log), partial=failure is not None,
                     failure=failure, pruned=runner.pruned, div_set=runner.div_set)
