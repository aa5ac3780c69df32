"""Dominance relations, the discretized skyline grid, and the exact front.

The grid quantizes every non-decisive measure onto floor-log cells of width
(1+eps); at most one state occupies a cell, ties broken by a strictly lower
decisive value.  Any state that ever passed the upper-bound filter stays
(1+eps)-covered by the current occupant of its cell, which is the whole
approximation argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import ArgumentError
from .measures import MeasureSet, PerfVector
from .operators import Bitmap, SearchState

INSERTED = "inserted"
REPLACED = "replaced"
REJECTED = "rejected"


def _check_pair(a: PerfVector, b: PerfVector):
    if len(a) != len(b):
        raise ArgumentError("performance vectors cover different measure sets")
    if not a.is_fully_valuated() or not b.is_fully_valuated():
        raise ArgumentError("dominance needs fully valuated vectors")


def dominates(a: PerfVector, b: PerfVector) -> bool:
    """True when ``a`` is no worse than ``b`` everywhere and better somewhere."""
    _check_pair(a, b)
    strict = False
    for x, y in zip(a.values, b.values):
        if x > y:
            return False
        if x < y:
            strict = True
    return strict


def eps_dominates(a: PerfVector, b: PerfVector, eps: float) -> bool:
    """Relaxed dominance: within a (1+eps) factor everywhere, and no worse
    than ``b`` outright on at least one measure (non-strict)."""
    _check_pair(a, b)
    if eps < 0:
        raise ArgumentError("eps must be non-negative")
    factor = 1.0 + eps
    anchored = False
    for x, y in zip(a.values, b.values):
        if x > factor * y:
            return False
        if x <= y:
            anchored = True
    return anchored


@dataclass(frozen=True)
class GridPosition:
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))


@dataclass
class Occupant:
    bitmap: Bitmap
    perf: PerfVector


@dataclass
class SkylineGrid:
    """Cell -> single retained state, over the non-decisive measure axes."""

    epsilon: float
    measures: MeasureSet
    cells: dict = field(default_factory=dict)
    below_floor: set = field(default_factory=set)  # bitmaps seen under p_low

    def __post_init__(self):
        if self.epsilon <= 0:
            raise ArgumentError("epsilon must be positive")
        self._log_base = math.log1p(self.epsilon)

    def _coord(self, value: float, p_low: float) -> int:
        return math.floor(math.log(value / p_low) / self._log_base)

    def position_unchecked(self, perf: PerfVector) -> GridPosition:
        coords = []
        for i in self.measures.grid_indices:
            spec = self.measures.specs[i]
            coords.append(self._coord(float(perf.values[i]), spec.p_low))
        return GridPosition(tuple(coords))

    def max_cells(self) -> int:
        total = 1
        for i in self.measures.grid_indices:
            spec = self.measures.specs[i]
            total *= self._coord(spec.p_high, spec.p_low) + 1
        return total

    def submit(self, state: SearchState) -> str:
        """UPareto step: bound-filter, locate the cell, insert or replace.

        Replacement needs a strictly lower decisive value; ties keep the
        incumbent so replays are stable.
        """
        perf = state.perf
        if perf is None or not perf.is_fully_valuated():
            raise ArgumentError("candidate must be valuated before submission")
        for i, spec in enumerate(self.measures.specs):
            if float(perf.values[i]) > spec.p_high:
                return REJECTED
        for i, spec in enumerate(self.measures.specs):
            if float(perf.values[i]) < spec.p_low:
                # reported, not rejected: normalization flooring should make
                # this unreachable unless bounds were configured above it
                self.below_floor.add(state.bitmap.bits)
        pos = self.position_unchecked(perf)
        holder = self.cells.get(pos)
        if holder is None:
            self.cells[pos] = Occupant(state.bitmap, perf)
            return INSERTED
        d = self.measures.decisive_index
        if float(perf.values[d]) < float(holder.perf.values[d]):
            self.cells[pos] = Occupant(state.bitmap, perf)
            return REPLACED
        return REJECTED

    def occupants(self) -> list:
        return [self.cells[pos] for pos in sorted(self.cells, key=lambda p: p.coords)]

    def occupant_count(self) -> int:
        return len(self.cells)

    def covers(self, perf: PerfVector) -> bool:
        """Some occupant eps-dominates the vector."""
        return any(eps_dominates(o.perf, perf, self.epsilon) for o in self.cells.values())


def exact_pareto(states: Sequence[SearchState]) -> list:
    """Maximal set under ``dominates`` via sort + linear-scan maxima filter.

    Identical vectors keep only the first in input order.  Sorting is
    lexicographic over the full vector, so any dominator of a state precedes
    it and scanning against the kept set alone is sufficient.
    """
    for s in states:
        if s.perf is None or not s.perf.is_fully_valuated():
            raise ArgumentError("exact_pareto needs valuated states")
    seen_vectors = set()
    ordered = sorted(
        range(len(states)),
        key=lambda i: (states[i].perf.as_floats(), i),
    )
    kept: list = []
    kept_states: list = []
    for i in ordered:
        vec = states[i].perf.as_floats()
        if vec in seen_vectors:
            continue
        if any(dominates(k, states[i].perf) for k in kept):
            continue
        seen_vectors.add(vec)
        kept.append(states[i].perf)
        kept_states.append((i, states[i]))
    kept_states.sort(key=lambda t: t[0])  # restore input order
    return [s for _, s in kept_states]
