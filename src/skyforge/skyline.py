"""The discretized skyline archive.

The grid quantizes every non-decisive measure onto floor-log cells of width
(1+eps); at most one state occupies a cell, ties broken by a strictly lower
decisive value.  Any state that ever passed the upper-bound filter stays
(1+eps)-covered by the current occupant of its cell, which is the whole
approximation argument.  The dominance predicates that check this live in
``skyforge.oracle``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from operator import gt, lt

from .errors import ArgumentError
from .measures import LogEntry, MeasureSet

INSERTED = "inserted"
REPLACED = "replaced"
REJECTED = "rejected"


@dataclass
class SkylineGrid:
    """Cell -> single retained log entry, over the non-decisive measure axes.

    A cell key is the tuple of a vector's integer coordinates, one per
    non-decisive measure in declaration order.
    """

    epsilon: float
    measures: MeasureSet
    cells: dict = field(default_factory=dict)  # coordinates -> LogEntry
    below_floor: set = field(default_factory=set)  # bitmaps seen under p_low

    def __post_init__(self):
        if not 0 < self.epsilon <= sys.float_info.max:  # also false for NaN
            raise ArgumentError("epsilon must be finite and positive")
        self._log_base = math.log1p(self.epsilon)
        specs = self.measures.specs
        self._p_high = tuple(spec.p_high for spec in specs)
        self._p_low = tuple(spec.p_low for spec in specs)
        self._axes = tuple((i, specs[i].p_low) for i in self.measures.grid_indices)
        self._decisive = self.measures.decisive_index

    def position_unchecked(self, perf: tuple) -> tuple:
        """The vector's cell: ``floor(log(v / p_low) / log1p(eps))`` on each
        grid axis, without the bound filter ``submit`` applies first."""
        floor, log, base = math.floor, math.log, self._log_base
        pos = []
        for i, p_low in self._axes:
            pos.append(floor(log(perf[i] / p_low) / base))
        return tuple(pos)

    def max_cells(self) -> int:
        return math.prod(coord + 1 for coord in self.position_unchecked(self._p_high))

    def submit(self, entry: LogEntry) -> str:
        """UPareto step: bound-filter, locate the cell, insert or replace.

        Replacement needs a strictly lower decisive value; ties keep the
        incumbent so replays are stable.
        """
        perf = entry.perf
        if any(map(gt, perf, self._p_high)):
            return REJECTED
        if any(map(lt, perf, self._p_low)):
            # reported, not rejected: normalization flooring should make
            # this unreachable unless bounds were configured above it
            self.below_floor.add(entry.bitmap.bits)
        pos = self.position_unchecked(perf)
        holder = self.cells.get(pos)
        if holder is None:
            self.cells[pos] = entry
            return INSERTED
        d = self._decisive
        if perf[d] < holder.perf[d]:
            self.cells[pos] = entry
            return REPLACED
        return REJECTED

    def occupants(self) -> list:
        return [self.cells[pos] for pos in sorted(self.cells)]

    def occupant_count(self) -> int:
        return len(self.cells)
