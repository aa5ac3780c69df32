import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyforge import (
    ArgumentError,
    Bitmap,
    MeasureSet,
    MeasureSpec,
    SkylineGrid,
    naive_dominates,
    naive_eps_dominates,
    naive_exact_pareto,
)

from skyforge.measures import LogEntry

from conftest import EXAMPLE_VECTORS, perf, three_measures

T1 = perf(*EXAMPLE_VECTORS["D1"])
T2 = perf(*EXAMPLE_VECTORS["D2"])
T3 = perf(*EXAMPLE_VECTORS["D3"])
T4 = perf(*EXAMPLE_VECTORS["D4"])
T5 = perf(*EXAMPLE_VECTORS["D5"])

vec3 = st.tuples(*([st.floats(min_value=0.01, max_value=1.0)] * 3))


class TestDominates:
    def test_chain_from_worked_example(self):
        assert naive_dominates(T3, T1)
        assert naive_dominates(T2, T1)
        assert naive_dominates(T3, T2)
        assert naive_dominates(T5, T4)

    def test_incomparable_pair(self):
        assert not naive_dominates(T3, T5)
        assert not naive_dominates(T5, T3)

    def test_irreflexive(self):
        assert not naive_dominates(T3, T3)

    def test_mismatched_sets_rejected(self):
        with pytest.raises(ArgumentError):
            naive_dominates(perf(0.1, 0.2), T3)


class TestEpsDominates:
    def test_reflexive_at_any_eps(self):
        assert naive_eps_dominates(T3, T3, 0.0)
        assert naive_eps_dominates(T3, T3, 0.7)

    def test_relaxed_cross_pair(self):
        # componentwise within 1.3x and no worse on the middle measure
        assert naive_eps_dominates(T3, T5, 0.3)

    def test_eps_zero_collapses_to_dominates_or_equal(self):
        for a in (T1, T2, T3, T4, T5):
            for b in (T1, T2, T3, T4, T5):
                expected = naive_dominates(a, b) or a == b
                assert naive_eps_dominates(a, b, 0.0) == expected

    @given(vec3, vec3,
           st.floats(min_value=0, max_value=1), st.floats(min_value=0, max_value=1))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_eps(self, a, b, e1, e2):
        lo, hi = min(e1, e2), max(e1, e2)
        if naive_eps_dominates(perf(*a), perf(*b), lo):
            assert naive_eps_dominates(perf(*a), perf(*b), hi)


def make_grid(eps=0.3, p_low=0.1, p_high=1.0):
    ms = three_measures(p_low=p_low, p_high=p_high)
    return SkylineGrid(eps, ms)


class TestGridEpsilon:
    @pytest.mark.parametrize("eps", [0.0, -0.1, float("nan"), float("inf")])
    def test_epsilon_must_be_finite_and_positive(self, eps):
        with pytest.raises(ArgumentError, match="epsilon"):
            make_grid(eps=eps)


class TestGridPos:
    def test_all_lower_bound_is_origin(self):
        grid = make_grid(p_low=0.1)
        assert grid.position_unchecked(perf(0.1, 0.1, 0.1)) == (0, 0)

    def test_floor_log_coordinates(self):
        grid = make_grid(eps=0.3, p_low=0.1)
        pos = grid.position_unchecked(perf(0.26, 0.15, 0.37))
        assert pos == (3, 1)

    def test_same_cell_values_within_factor(self):
        grid = make_grid(eps=0.3, p_low=0.1)
        rng = random.Random(1)
        for _ in range(200):
            a = tuple(rng.uniform(0.1, 1.0) for _ in range(3))
            b = tuple(rng.uniform(0.1, 1.0) for _ in range(3))
            if grid.position_unchecked(perf(*a)) == grid.position_unchecked(perf(*b)):
                for i in (0, 1):  # non-decisive axes
                    assert a[i] <= 1.3 * b[i] + 1e-12
                    assert b[i] <= 1.3 * a[i] + 1e-12


def state(bits, vec, n=5):
    return LogEntry(Bitmap(bits, n), perf(*vec), 1)


class TestUPareto:
    def test_upper_bound_filter_rejects(self):
        grid = make_grid(p_high=0.5)
        assert grid.submit(state(1, (0.2, 0.6, 0.2))) == "rejected"
        assert grid.occupant_count() == 0

    def test_insert_into_empty_cell(self):
        grid = make_grid()
        assert grid.submit(state(1, (0.3, 0.3, 0.3))) == "inserted"

    def test_replacement_on_strictly_lower_decisive(self):
        grid = make_grid()
        grid.submit(state(1, (0.26, 0.15, 0.37)))
        assert grid.submit(state(2, (0.26, 0.15, 0.35))) == "replaced"
        (occ,) = grid.occupants()
        assert occ.perf[2] == 0.35

    def test_decisive_tie_keeps_incumbent(self):
        grid = make_grid()
        grid.submit(state(1, (0.3, 0.3, 0.3)))
        assert grid.submit(state(2, (0.3, 0.3, 0.3))) == "rejected"
        (occ,) = grid.occupants()
        assert occ.bitmap.bits == 1

    def test_below_floor_reported_not_rejected(self):
        grid = make_grid(p_low=0.2)
        assert grid.submit(state(1, (0.05, 0.3, 0.3))) == "inserted"
        assert grid.below_floor == {1}

    def test_single_measure_degenerates_to_scalar_minimum(self):
        ms = MeasureSet([MeasureSpec("only", p_low=0.1)])
        grid = SkylineGrid(0.3, ms)
        grid.submit(LogEntry(Bitmap(1, 3), perf(0.9), 1))
        grid.submit(LogEntry(Bitmap(2, 3), perf(0.4), 1))
        grid.submit(LogEntry(Bitmap(4, 3), perf(0.6), 1))
        assert grid.max_cells() == 1
        (occ,) = grid.occupants()
        assert occ.perf[0] == 0.4

    @given(st.floats(0.05, 2.0),
           st.lists(st.tuples(st.floats(1e-6, 1.0), st.floats(1e-6, 1.0)), min_size=1,
                    max_size=4),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_max_cells_is_the_product_of_axis_cell_counts(self, eps, bounds, data):
        specs = [MeasureSpec(f"m{i}", p_low=min(a, b), p_high=max(a, b))
                 for i, (a, b) in enumerate(bounds)]
        decisive = data.draw(st.sampled_from([spec.name for spec in specs]))
        grid = SkylineGrid(eps, MeasureSet(specs, decisive=decisive))
        expected = 1
        for i in grid.measures.grid_indices:
            ratio = specs[i].p_high / specs[i].p_low
            expected *= math.floor(math.log(ratio) / math.log1p(eps)) + 1
        assert grid.max_cells() == expected

    def test_occupancy_never_exceeds_cell_bound(self):
        grid = make_grid(eps=0.5, p_low=0.1)
        rng = random.Random(7)
        for i in range(500):
            grid.submit(state(i + 1, tuple(rng.uniform(0.1, 1.0) for _ in range(3)), n=16))
        assert grid.occupant_count() <= grid.max_cells()

    def test_cover_invariant_replayed(self):
        """Every in-bounds submission stays eps-dominated by some occupant."""
        rng = random.Random(13)
        grid = make_grid(eps=0.3, p_low=0.1)
        submitted = []
        for i in range(400):
            s = state(i + 1, tuple(rng.uniform(0.05, 1.0) for _ in range(3)), n=16)
            grid.submit(s)
            if all(v <= spec.p_high for v, spec in zip(s.perf, grid.measures.specs)):
                submitted.append(s)
        for s in submitted:
            assert any(naive_eps_dominates(o.perf, s.perf, grid.epsilon)
                       for o in grid.cells.values()), s.perf


def reference_position(grid, vec):
    """A vector's cell as the grid first computed it: a generator over the
    specs of the non-decisive measures."""
    specs = grid.measures.specs
    return tuple(math.floor(math.log(vec[i] / specs[i].p_low) / math.log1p(grid.epsilon))
                 for i in grid.measures.grid_indices)


def reference_submit(grid, cells, below_floor, entry):
    """``SkylineGrid.submit`` as it first read, over its own ``cells`` and
    ``below_floor``."""
    specs = grid.measures.specs
    if any(v > spec.p_high for v, spec in zip(entry.perf, specs)):
        return "rejected"
    if any(v < spec.p_low for v, spec in zip(entry.perf, specs)):
        below_floor.add(entry.bitmap.bits)
    pos = reference_position(grid, entry.perf)
    holder = cells.get(pos)
    if holder is None:
        cells[pos] = entry
        return "inserted"
    d = grid.measures.decisive_index
    if entry.perf[d] < holder.perf[d]:
        cells[pos] = entry
        return "replaced"
    return "rejected"


@st.composite
def grids_and_vectors(draw):
    """A grid over one to four measures with random p ranges and decisive
    measure, and vectors that also fall below p_low and above p_high."""
    n = draw(st.integers(1, 4))
    specs = []
    for j in range(n):
        p_low = draw(st.floats(1e-6, 0.5))
        specs.append(MeasureSpec(f"m{j}", p_low=p_low, p_high=draw(st.floats(p_low, 1.0))))
    ms = MeasureSet(specs, decisive=draw(st.sampled_from([s.name for s in specs])))
    grid = SkylineGrid(draw(st.floats(1e-3, 2.0)), ms)
    value = st.one_of(st.floats(1e-7, 1.2), st.sampled_from(
        [s.p_low for s in specs] + [s.p_high for s in specs]))
    vectors = draw(st.lists(st.tuples(*[value] * n), max_size=40))
    return grid, vectors


class TestGridAgainstReference:
    @given(grids_and_vectors())
    @settings(max_examples=200, deadline=None)
    def test_submit_and_position_match_the_first_formulas(self, case):
        grid, vectors = case
        cells, below_floor = {}, set()
        for i, vec in enumerate(vectors):
            entry = LogEntry(Bitmap(i, 8), vec, 1)
            assert grid.position_unchecked(vec) == reference_position(grid, vec)
            assert grid.submit(entry) == reference_submit(grid, cells, below_floor, entry)
        assert grid.cells == cells and all(grid.cells[p] is cells[p] for p in cells)
        assert grid.below_floor == below_floor


class TestExactPareto:
    def test_worked_example_front(self, example_states):
        front = naive_exact_pareto(list(example_states.values()))
        names = {s.bitmap.bits for s in front}
        expected = {example_states["D3"].bitmap.bits, example_states["D5"].bitmap.bits}
        assert names == expected

    def test_singleton(self):
        s = state(1, (0.5, 0.5, 0.5))
        assert naive_exact_pareto([s]) == [s]

    def test_output_is_antichain_and_zero_covers_inputs(self):
        rng = random.Random(5)
        states = [state(i + 1, tuple(rng.uniform(0.1, 1.0) for _ in range(3)), n=8)
                  for i in range(12)]
        front = naive_exact_pareto(states)
        for a in front:
            for b in front:
                if a is not b:
                    assert not naive_dominates(a.perf, b.perf)
        for s in states:
            assert any(naive_eps_dominates(f.perf, s.perf, 0.0) for f in front)

    def test_identical_vectors_keep_first(self):
        a = state(1, (0.3, 0.3, 0.3))
        b = state(2, (0.3, 0.3, 0.3))
        front = naive_exact_pareto([a, b])
        assert [s.bitmap.bits for s in front] == [1]
