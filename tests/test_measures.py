import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyforge import (
    ArgumentError,
    Bitmap,
    EstimatorFailure,
    LookupEstimator,
    MeasureSet,
    MeasureSpec,
    RidgeEstimator,
    SearchState,
    TestLog,
    build_correlation_graph,
    estimate_bounds,
    valuate,
)
from skyforge.estimators import TRAIN_ERROR
from skyforge.measures import MINIMIZE, NORMALIZED_FLOOR, LogEntry
from skyforge.operators import StateSpace
from skyforge.tabular import Literal, Relation, UniversalTable

from conftest import (
    EXAMPLE_VECTORS,
    Counting,
    build_pruning_fixture,
    build_toy_universal,
    perf,
    seeded_worked_log,
    three_measures,
)


def normalized(spec: MeasureSpec, raw) -> float:
    """``valuate``'s normalization of one raw value, or its refusal raised."""
    got = valuated_or_refused([spec], [raw])
    if isinstance(got, str):
        raise EstimatorFailure(got)
    return got[0]


class TestNormalize:
    def test_midpoint_of_an_hour_budget(self):
        spec = MeasureSpec("train_cost", raw_low=0, raw_high=3600)
        assert normalized(spec, 1800) == 0.5

    def test_floor_keeps_range_open_at_zero(self):
        spec = MeasureSpec("m", raw_low=0, raw_high=10)
        assert normalized(spec, 0) == NORMALIZED_FLOOR

    def test_maximize_inverts(self):
        spec = MeasureSpec("acc", direction="maximize", raw_low=0, raw_high=1)
        assert normalized(spec, 0.65) == pytest.approx(0.35)

    def test_non_finite_raw_fails(self):
        spec = MeasureSpec("m")
        with pytest.raises(EstimatorFailure):
            normalized(spec, float("nan"))

    @pytest.mark.parametrize("raw", [True, False, "1.5", " 7 ", None, [1.0]])
    def test_non_numeric_raw_fails_naming_the_measure(self, raw):
        spec = MeasureSpec("holdout_error")
        with pytest.raises(EstimatorFailure, match="non-numeric raw value .* holdout_error"):
            normalized(spec, raw)

    def test_clamps_above_one(self):
        spec = MeasureSpec("m", raw_low=0, raw_high=10)
        assert normalized(spec, 25) == 1.0

    @given(st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100))
    @settings(max_examples=80, deadline=None)
    def test_monotone_for_minimize(self, a, b):
        spec = MeasureSpec("m", raw_low=0, raw_high=100)
        lo, hi = min(a, b), max(a, b)
        assert normalized(spec, lo) <= normalized(spec, hi)

    @given(st.floats(min_value=0, max_value=100), st.floats(min_value=0, max_value=100))
    @settings(max_examples=80, deadline=None)
    def test_antitone_for_maximize(self, a, b):
        spec = MeasureSpec("m", direction="maximize", raw_low=0, raw_high=100)
        lo, hi = min(a, b), max(a, b)
        assert normalized(spec, lo) >= normalized(spec, hi)


class TestMeasureSpec:
    @pytest.mark.parametrize("bounds", [
        {"raw_low": math.nan}, {"raw_high": math.nan}, {"raw_low": -math.inf},
        {"raw_high": math.inf}, {"raw_low": 2.0},
        {"raw_low": -1e308, "raw_high": 1e308},  # each finite, the span is not
        {"raw_low": 10 ** 400, "raw_high": 10 ** 400 + 1},  # beyond float range
    ], ids=["low-nan", "high-nan", "low-inf", "high-inf", "empty", "span-inf", "int-beyond-float"])
    def test_raw_bounds_must_be_finite_with_a_finite_span(self, bounds):
        with pytest.raises(ArgumentError, match="m: need finite raw_low < raw_high"):
            MeasureSpec("m", **{"raw_high": 1.0, **bounds})

    @pytest.mark.parametrize("bad", [{"p_low": math.nan}, {"p_high": math.inf},
                                     {"p_low": 0.0}, {"direction": "sideways"}])
    def test_p_range_and_direction_rejected(self, bad):
        with pytest.raises(ArgumentError):
            MeasureSpec("m", **bad)

    def test_extreme_finite_bounds_accepted(self):
        spec = MeasureSpec("m", raw_low=-1e307, raw_high=1e307)
        assert normalized(spec, 0.0) == 0.5


class TestMeasureSet:
    def test_last_measure_decisive_by_default(self):
        ms = three_measures()
        assert ms.decisive == "train_cost"
        assert ms.grid_indices == (0, 1)

    def test_override(self):
        ms = MeasureSet([MeasureSpec("a"), MeasureSpec("b")], decisive="a")
        assert ms.decisive_index == 0

    def test_any_name_may_be_declared(self):
        # row counts are not a measure, so no measure name is reserved
        ms = MeasureSet([MeasureSpec("__rows__"), MeasureSpec("b")])
        assert ms.names.index("__rows__") == 0


class TestValuate:
    def test_cache_contract(self, toy_universal):
        space = StateSpace(toy_universal)
        ms = three_measures()
        est = Counting(LookupEstimator({}, default={"rmse": 0.3, "r2_inv": 0.2, "train_cost": 0.1}))
        log = TestLog()
        s = space.root_state()
        first, invoked1 = valuate(s, est, log, ms, space)
        second, invoked2 = valuate(s, est, log, ms, space)
        assert invoked1 and not invoked2
        assert first is second is log.get(s.bitmap)
        assert est.calls == 1

    def test_lookup_returns_example_vector(self, toy_universal):
        space = StateSpace(toy_universal)
        ms = three_measures()
        bitmap = space.bitmap_from_bits([0, 1, 2])
        est = LookupEstimator({bitmap.bits: dict(zip(ms.names, EXAMPLE_VECTORS["D3"]))})
        log = TestLog()
        got, _ = valuate(SearchState(bitmap), est, log, ms, space)
        assert got.perf == pytest.approx(EXAMPLE_VECTORS["D3"])

    def test_missing_measure_is_protocol_violation(self, toy_universal):
        space = StateSpace(toy_universal)
        ms = three_measures()
        est = LookupEstimator({}, default={"rmse": 0.5})
        with pytest.raises(EstimatorFailure) as err:
            valuate(space.root_state(), est, TestLog(), ms, space)
        assert err.value.bitmap is not None

    def test_ridge_perfect_fit_hits_floor(self):
        rel = Relation("u", ["x", "y"], [[0.0, 0.0], [1.0, 2.0]])
        u = UniversalTable(relation=rel, literal_index={
            "x": (Literal("x", 0.0), Literal("x", 1.0)),
            "y": (Literal("y", 0.0), Literal("y", 2.0)),
        })
        space = StateSpace(u)
        ms = MeasureSet([MeasureSpec(TRAIN_ERROR)])
        est = RidgeEstimator(target="y")
        got, _ = valuate(space.root_state(), est, TestLog(), ms, space)
        assert got.perf[0] == NORMALIZED_FLOOR


class Tagged(float):
    """A float subclass, as numpy's float64 is one."""


@functools.lru_cache(maxsize=None)
def toy_space() -> StateSpace:
    return StateSpace(build_toy_universal())


def valuated_or_refused(specs, raws):
    """What ``valuate`` makes of one estimator reply ``raws`` (one raw value
    per spec): the normalized vector, or the refusal's message."""
    space = toy_space()
    est = LookupEstimator({}, default={spec.name: raw for spec, raw in zip(specs, raws)})
    try:
        entry, _ = valuate(space.root_state(), est, TestLog(), MeasureSet(specs), space)
    except EstimatorFailure as exc:
        return exc.args[0]  # the message without the bitmap valuate attaches
    return entry.perf


def normalize(spec: MeasureSpec, raw: float) -> float:
    """Scale a raw measure into (0,1], inverting maximized measures.

    The result clamps to [1e-6, 1] so downstream logarithms stay defined.
    Booleans, strings and other non-numbers are estimator faults, never
    coerced, and so are ints beyond float range.
    """
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise EstimatorFailure(f"non-numeric raw value {raw!r} for {spec.name}")
    if isinstance(raw, int) and abs(raw) > sys.float_info.max:
        raise EstimatorFailure(f"int raw value beyond float range for {spec.name}")
    if not math.isfinite(raw):
        raise EstimatorFailure(f"non-finite raw value {raw!r} for {spec.name}")
    span = spec.raw_high - spec.raw_low
    if spec.direction == MINIMIZE:
        v = (raw - spec.raw_low) / span
    else:
        v = (spec.raw_high - raw) / span
    return min(max(v, NORMALIZED_FLOOR), 1.0)


def normalized_or_refused(specs, raws):
    """The same through ``normalize``, one measure at a time, and the
    message ``valuate`` gives a refusal."""
    try:
        return tuple(normalize(spec, raw) for spec, raw in zip(specs, raws))
    except EstimatorFailure as exc:
        return str(exc)


def same_bits(got, expected):
    """Equal refusal messages, or vectors equal element for element in
    type and bits."""
    if isinstance(expected, str):
        return got == expected
    return (not isinstance(got, str) and len(got) == len(expected) and all(
        type(a) is type(b) and float.hex(a) == float.hex(b) for a, b in zip(got, expected)))


@st.composite
def specs_and_raws(draw):
    """One to three measures of either direction with random finite raw
    bounds, and one raw value each: a float, an int, a float subclass or a
    clamp edge (a bound, or just past one)."""
    specs, raws = [], []
    for j in range(draw(st.integers(1, 3))):
        low = draw(st.floats(-1e6, 1e6))
        high = low + draw(st.floats(1e-3, 1e6))
        spec = MeasureSpec(f"m{j}", direction=draw(st.sampled_from(["minimize", "maximize"])),
                           raw_low=low, raw_high=high)
        edges = [low, high, low - 1.0, high + 1.0, low + (high - low) * NORMALIZED_FLOOR,
                 high - (high - low) * NORMALIZED_FLOOR]
        raw = draw(st.one_of(
            st.floats(allow_nan=False, allow_infinity=False), st.floats(-2e6, 2e6),
            st.integers(-2 * 10**6, 2 * 10**6), st.floats(-2e6, 2e6).map(Tagged),
            st.floats(-2e6, 2e6).map(np.float64), st.sampled_from(edges)))
        specs.append(spec)
        raws.append(raw)
    return specs, raws


class TestNormalizationTable:
    """``valuate`` normalizes through ``MeasureSet.table``; ``normalize``, a
    per-measure function the library once had, is the reference, bit for
    bit, refusals and their messages included."""

    @given(specs_and_raws())
    @settings(max_examples=400, deadline=None)
    def test_matches_normalize_bit_for_bit(self, case):
        specs, raws = case
        assert same_bits(valuated_or_refused(specs, raws), normalized_or_refused(specs, raws))

    @pytest.mark.parametrize("raw", [True, False, "0.5", None, [0.5], math.nan, math.inf,
                                     -math.inf, Tagged(math.nan), np.float64(math.inf),
                                     10**400, -(10**400)],
                             ids=["true", "false", "text", "none", "list", "nan", "inf", "-inf",
                                  "nan-subclass", "inf-float64", "int-beyond-float",
                                  "-int-beyond-float"])
    @pytest.mark.parametrize("direction", ["minimize", "maximize"])
    def test_refusals_keep_their_messages(self, raw, direction):
        specs = [MeasureSpec("a", direction=direction), MeasureSpec("b")]
        expected = normalized_or_refused(specs, [0.5, raw])
        assert isinstance(expected, str)
        assert valuated_or_refused(specs, [0.5, raw]) == expected

    @pytest.mark.parametrize("raw", [0.0, 10.0, -1.0, 11.0, 1e-5, 10 - 1e-5, 5, 0, 10,
                                     -3, 25, 1e308, -1e308, 5e-324])
    @pytest.mark.parametrize("direction", ["minimize", "maximize"])
    def test_clamp_edges(self, raw, direction):
        specs = [MeasureSpec("m", direction=direction, raw_low=0.0, raw_high=10.0)]
        assert same_bits(valuated_or_refused(specs, [raw]), normalized_or_refused(specs, [raw]))

    def test_reported_raw_values_are_floats_in_measure_order(self):
        space = toy_space()
        specs = [MeasureSpec("b"), MeasureSpec("a", raw_high=10)]
        est = LookupEstimator({}, default={"a": 4, "b": Tagged(0.25), "extra": 1})
        entry, _ = valuate(space.root_state(), est, TestLog(), MeasureSet(specs), space)
        assert list(entry.raw.items()) == [("b", 0.25), ("a", 4.0)]
        assert all(type(v) is float for v in entry.raw.values())


def column_log(columns, rows) -> TestLog:
    """A log whose entry ``j`` has the vector ``(c[j] for c in columns)`` and
    row count ``rows[j]``."""
    log = TestLog()
    for j, row_count in enumerate(rows):
        log.append(LogEntry(Bitmap(j, 64), tuple(c[j] for c in columns), row_count))
    return log


def rho(column, rows):
    """The rho ``build_correlation_graph`` reports for one measure, None when
    it reports none at threshold 0."""
    graph = build_correlation_graph(column_log([column], rows), 0, MeasureSet([MeasureSpec("m")]))
    return graph.get(0)


def reference_rank(values):
    """Average ranks, ties sharing their mean rank: the reference for the graph."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def reference_spearman(xs, ys):
    """A general Spearman rho, None when either sequence is constant."""
    rx, ry = reference_rank(xs), reference_rank(ys)
    mx = sum(rx) / len(rx)
    my = sum(ry) / len(ry)
    sxx = sum((a - mx) ** 2 for a in rx)
    syy = sum((b - my) ** 2 for b in ry)
    if sxx == 0 or syy == 0:
        return None
    sxy = sum((a - mx) * (b - my) for a, b in zip(rx, ry))
    return sxy / math.sqrt(sxx * syy)


def reference_graph(log, theta, measures):
    """The correlation graph from one general ``reference_spearman`` call per measure."""
    if len(log) < 3:
        return {}
    rows = [float(entry.row_count) for entry in log]
    graph = {}
    for i in range(len(measures)):
        r = reference_spearman([entry.perf[i] for entry in log], rows)
        if r is not None and abs(r) >= theta:
            graph[i] = r
    return graph


class TestSpearman:
    def test_perfect_monotone(self):
        assert rho([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_reverse(self):
        assert rho([1, 2, 3], [30, 20, 10]) == pytest.approx(-1.0)

    def test_rank_formula_example(self):
        # d^2 = 4 over n = 4: rho = 1 - 24/60
        assert rho([1, 2, 3, 4], [2, 1, 4, 3]) == pytest.approx(0.6)

    def test_constant_sequence_undefined(self):
        assert rho([1, 1, 1], [1, 2, 3]) is None

    def test_tie_handling_uses_average_ranks(self):
        got = rho([1, 1, 2, 3], [1, 2, 3, 4])
        assert got == pytest.approx(0.9486832980505138)


@pytest.fixture
def worked_example():
    u, measures, estimator, names, vectors = build_pruning_fixture()
    space = StateSpace(u, protected=("t",))
    # the unit-level variant pins the upper bound of the third measure so a
    # range fallback still certifies the published relation
    unit_measures = MeasureSet([
        MeasureSpec("p1", p_low=0.1),
        MeasureSpec("p2", p_low=0.1),
        MeasureSpec("p3", p_low=0.1, p_high=0.13),
    ])
    log = seeded_worked_log(names, vectors, space)
    return space, unit_measures, names, log


class TestCorrelationGraph:
    def test_strong_pair_has_edge(self, worked_example):
        space, ms, names, log = worked_example
        graph = build_correlation_graph(log, 0.8, ms)
        # p1 and p2 track the row count inversely; p3 barely correlates
        assert graph == {0: pytest.approx(-0.8), 1: pytest.approx(-0.8)}
        assert 2 in build_correlation_graph(log, 0.05, ms)

    def test_below_minimum_support_graph_empty(self):
        ms = three_measures()
        log = TestLog()
        log.append(LogEntry(Bitmap(1, 3), perf(0.1, 0.2, 0.3), 5))
        log.append(LogEntry(Bitmap(2, 3), perf(0.2, 0.3, 0.4), 4))
        assert build_correlation_graph(log, 0.5, ms) == {}

    def test_constant_measure_never_correlates(self):
        ms = three_measures()
        log = TestLog()
        for i, v in enumerate((0.1, 0.2, 0.3)):
            log.append(LogEntry(Bitmap(1 << i, 4), perf(0.5, v, v), 5 + i))
        graph = build_correlation_graph(log, 0.5, ms)
        assert 0 not in graph
        assert graph == {1: pytest.approx(1.0), 2: pytest.approx(1.0)}

    def test_constant_row_counts_give_empty_graph(self):
        log = column_log([(0.1, 0.2, 0.3, 0.4), (0.4, 0.3, 0.2, 0.1), (0.2, 0.4, 0.1, 0.3)],
                         [6, 6, 6, 6])
        assert build_correlation_graph(log, 0, three_measures()) == {}

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(0, 40), theta=st.sampled_from([0, 0.5, 0.8]))
    def test_equals_per_measure_spearman_reference(self, data, n, theta):
        # few distinct values, so ties and constant columns are common
        values = st.lists(st.sampled_from([0.1, 0.2, 0.3, 0.5, 0.7]), min_size=n, max_size=n)
        columns = [data.draw(values) for _ in range(3)]
        rows = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        ms = three_measures()
        log = column_log(columns, rows)
        assert build_correlation_graph(log, theta, ms) == reference_graph(log, theta, ms)

    def test_weak_pair_has_no_edge(self):
        ms = three_measures()
        log = TestLog()
        vals = [(0.1, 0.3), (0.2, 0.1), (0.3, 0.4), (0.4, 0.2)]
        for i, (a, b) in enumerate(vals):
            log.append(LogEntry(Bitmap(1 << i, 5), perf(a, b, 0.1 * (i + 1)), i))
        graph = build_correlation_graph(log, 0.9, ms)
        # r2_inv ranks 2, 1, 4, 3 against row counts 0..3: rho 0.6
        assert 1 not in graph
        assert graph == {0: pytest.approx(1.0), 2: pytest.approx(1.0)}


class TestEstimateBounds:
    def test_rowcount_anchor_for_fully_unvaluated_state(self, worked_example):
        space, ms, names, log = worked_example
        graph = build_correlation_graph(log, 0.8, ms)
        bounds = estimate_bounds(2, log, graph, ms)
        # row count 2 sits between the seeded counts 1 (s_b) and 3 (s_3)
        assert bounds[0] == (0.45, 0.60)
        assert bounds[1] == (0.20, 0.40)
        assert bounds[2] == (0.1, 0.13)  # uncorrelated: declared range

    def test_no_graph_means_declared_ranges(self, worked_example):
        space, ms, names, log = worked_example
        bounds = estimate_bounds(2, log, {}, ms)
        assert bounds[0] == (0.1, 1.0)


class TestTestLog:
    def test_append_only_and_duplicate_guard(self):
        log = TestLog()
        e1 = LogEntry(Bitmap(3, 4), perf(0.1, 0.2, 0.3), 7)
        e2 = LogEntry(Bitmap(3, 4), perf(0.9, 0.9, 0.9), 7)
        assert log.append(e1) is e1
        assert log.append(e2) is e1  # first write wins
        assert len(log) == 1
        assert log.get(Bitmap(3, 4)).perf[0] == 0.1
