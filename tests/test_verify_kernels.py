"""Differential tests for the blocked numpy kernels of verification.

The oracle's exact front (``naive_exact_pareto``), its eps-cover check, its
pruned-state audit and search's distance normalizer (``_euc_max``) are
compared with the scalar loops they replaced, kept here as references.
Every comparison is exact: the kernels compare, subtract, square and add
the same floats in the same order.
"""

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from skyforge.errors import ArgumentError
from skyforge.measures import LogEntry, MeasureSet, MeasureSpec, TestLog
from skyforge.operators import Bitmap
from skyforge.oracle import (
    PIVOTS,
    check_eps_cover,
    check_pruned,
    enumerate_all,
    eps_covered,
    naive_dominates,
    naive_eps_dominates,
    naive_exact_pareto,
)
from skyforge.search import PrunedState, SearchConfig, _euc, _euc_max, run_algorithm
from skyforge.skyline import SkylineGrid
from skyforge.tabular import _BLOCK_CELLS

from conftest import build_pruning_fixture, make_monotone_instance, make_random_instance

# -- the scalar references ----------------------------------------------------


def reference_exact_pareto(states):
    out = []
    vectors = [s.perf for s in states]
    seen = set()
    for i, s in enumerate(states):
        if vectors[i] in seen:
            continue
        dominated = any(
            naive_dominates(vectors[j], vectors[i])
            for j in range(len(states)) if j != i
        )
        if not dominated:
            out.append(s)
            seen.add(vectors[i])
    return out


def reference_eps_cover(grid, all_states, eps):
    violations = []
    occupants = list(grid.cells.values())
    for state in all_states:
        perf = state.perf
        in_bounds = all(
            float(perf[i]) <= spec.p_high
            for i, spec in enumerate(grid.measures.specs)
        )
        if not in_bounds:
            continue
        if not any(naive_eps_dominates(o.perf, perf, eps) for o in occupants):
            violations.append((state.bitmap.to_hex(), "no occupant eps-dominates this state"))
    return violations


def reference_pruned_audit(pruned, all_states, searched, oracle_log, eps):
    validated, violations = 0, []
    valuated = [s for s in all_states if searched.get(s.bitmap) is not None]
    for p in pruned:
        entry = oracle_log.get(p.bitmap)
        if entry is None:
            continue
        if any(naive_eps_dominates(v.perf, entry.perf, eps) for v in valuated):
            validated += 1
        else:
            violations.append((p.bitmap.to_hex(),
                               "pruned state not eps-dominated by a valuated state"))
    return validated, violations


def reference_euc(a, b):
    sq = 0.0
    for x, y in zip(a, b):
        sq += (x - y) ** 2
    return math.sqrt(sq)


def reference_euc_max(log, measures):
    vectors = [e.perf for e in log]
    value = 0.0
    for i in range(len(vectors)):
        for j in range(i + 1, len(vectors)):
            value = max(value, reference_euc(vectors[i], vectors[j]))
    return value if value != 0.0 else math.sqrt(len(measures))


# -- helpers ------------------------------------------------------------------


def states_of(vectors):
    return [LogEntry(Bitmap(i, 32), v, 1) for i, v in enumerate(vectors)]


def measures_of(width, p_high=1.0):
    return MeasureSet([MeasureSpec(f"m{j}", p_low=0.01, p_high=p_high) for j in range(width)])


def grid_of(occupant_vectors, width, p_high=1.0):
    grid = SkylineGrid(0.1, measures_of(width, p_high))
    for k, v in enumerate(occupant_vectors):
        grid.cells[(k,)] = LogEntry(Bitmap(1 << 20 | k, 32), v, 1)
    return grid


def log_of(vectors):
    log = TestLog()
    for i, v in enumerate(vectors):
        log.append(LogEntry(Bitmap(i, 32), v, row_count=1))
    return log


def bits(states):
    return [s.bitmap.bits for s in states]


def assert_front_matches(vectors):
    states = states_of(vectors)
    assert bits(naive_exact_pareto(states)) == bits(reference_exact_pareto(states))


def assert_cover_matches(occupants, vectors, eps, width, p_high=1.0):
    grid = grid_of(occupants, width, p_high)
    states = states_of(vectors)
    report = check_eps_cover(grid, states, eps)
    assert report["eps_cover_violations"] == reference_eps_cover(grid, states, eps)
    assert report["exact_front"] == [s.bitmap.to_hex() for s in reference_exact_pareto(states)]
    got = eps_covered(occupants, vectors, eps).tolist()
    assert got == [any(naive_eps_dominates(a, b, eps) for a in occupants)
                   for b in vectors]


# a few values shared by many vectors make duplicates and exact ties common
TIE_VALUES = (0.05, 0.1, 0.2, 0.25, 0.3, 0.5, 0.75, 1.0)


def tied_vectors(rng, n, width):
    return [tuple(rng.choice(TIE_VALUES) for _ in range(width)) for _ in range(n)]


# sizes around a block edge: 256 rows against 256 columns fill exactly one
# block, 257 split into blocks of 255 and 2, 600 into six
SIZES = (0, 1, 2, int(math.isqrt(_BLOCK_CELLS)) - 1, int(math.isqrt(_BLOCK_CELLS)),
         int(math.isqrt(_BLOCK_CELLS)) + 1, 600)

value = st.one_of(st.sampled_from(TIE_VALUES), st.floats(0.01, 1.0))
EPS = st.one_of(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]), st.floats(0.0, 2.0))


@st.composite
def vector_lists(draw, max_size=40):
    width = draw(st.integers(1, 4))
    vec = st.tuples(*[value] * width)
    return width, draw(st.lists(vec, max_size=max_size)), draw(st.lists(vec, max_size=12))


@st.composite
def screened_vectors(draw):
    """More mutually non-dominated rows than pivots (a trade-off line in the
    first two measures), then bumped copies of them: a copy is dominated,
    often only by a row no pivot dominates, so only the pairwise pass after
    the pivot screen drops it.  A zero bump makes a duplicate."""
    width = draw(st.integers(2, 4))
    k = draw(st.integers(PIVOTS + 1, 40))
    line = [(i / k, 1 - i / k, *(draw(value) for _ in range(width - 2))) for i in range(k)]
    copies = []
    for i, m, bump in draw(st.lists(st.tuples(st.integers(0, k - 1), st.integers(0, width - 1),
                                              st.sampled_from((0.0, 0.01, 0.5))), max_size=60)):
        vec = list(line[i])
        vec[m] += bump
        copies.append(tuple(vec))
    return draw(st.permutations(line + copies))


# -- exact front ----------------------------------------------------------------


class TestExactFront:
    @pytest.mark.parametrize("n", SIZES)
    def test_fixed_sizes(self, n):
        rng = random.Random(n)
        assert_front_matches(tied_vectors(rng, n, 3))
        assert_front_matches([tuple(rng.random() for _ in range(3)) for _ in range(n)])

    @settings(max_examples=150, deadline=None)
    @given(vector_lists())
    def test_generated(self, drawn):
        _, vectors, _ = drawn
        assert_front_matches(vectors)

    @settings(max_examples=100, deadline=None)
    @given(screened_vectors())
    def test_pivot_screen_keeps_the_front(self, vectors):
        assert_front_matches(vectors)

    def test_first_of_each_duplicate_kept(self):
        vectors = [(0.5, 0.5), (0.2, 0.9), (0.5, 0.5), (0.9, 0.2), (0.2, 0.9), (0.6, 0.6)]
        front = naive_exact_pareto(states_of(vectors))
        assert bits(front) == [0, 1, 3]
        assert_front_matches(vectors)

    def test_exact_ties_do_not_dominate(self):
        # identical vectors never dominate one another; a strict gain does
        vectors = [(0.3, 0.3, 0.3)] * 3 + [(0.3, 0.3, 0.2), (0.2, 0.3, 0.3)]
        assert bits(naive_exact_pareto(states_of(vectors))) == [3, 4]
        assert_front_matches(vectors)

    def test_int_valued_vectors(self):
        rng = random.Random(3)
        assert_front_matches([tuple(rng.randint(1, 4) for _ in range(3)) for _ in range(50)])


# -- eps cover ------------------------------------------------------------------


class TestEpsCover:
    @pytest.mark.parametrize("n", SIZES)
    def test_fixed_sizes(self, n):
        rng = random.Random(100 + n)
        vectors = tied_vectors(rng, n, 3)
        occupants = tied_vectors(rng, 1 + n // 20, 3)
        for eps in (0.0, 0.25, 1.0):
            assert_cover_matches(occupants, vectors, eps, 3, p_high=0.75)

    @pytest.mark.parametrize("n", [0, 1, 2, 255, 256, 257, 600])
    def test_block_edges_on_the_occupant_side(self, n):
        # the kernel's blocks run over targets against all occupants
        rng = random.Random(200 + n)
        occupants = [tuple(rng.random() for _ in range(2)) for _ in range(n)]
        vectors = [tuple(rng.random() for _ in range(2)) for _ in range(300)]
        assert_cover_matches(occupants, vectors, 0.05, 2)

    @settings(max_examples=150, deadline=None)
    @given(vector_lists(), EPS, st.sampled_from([0.5, 0.75, 1.0]))
    def test_generated(self, drawn, eps, p_high):
        width, vectors, occupants = drawn
        assert_cover_matches(occupants, vectors, eps, width, p_high)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.3, 0.5, 1.0])
    def test_factor_boundary(self, eps):
        factor = 1.0 + eps
        b = (0.2, 0.1, 0.7)
        at = tuple(factor * x for x in b)          # a == factor * b: not rejected
        above = tuple(math.nextafter(x, 2.0) for x in at)
        anchored = (at[0], 0.1, at[2])             # a == b on one measure anchors
        for a in (at, above, anchored, (at[0], math.nextafter(0.1, 0.0), above[2])):
            assert_cover_matches([a], [b], eps, 3)
        assert eps_covered([anchored], [b], eps).tolist() == [True]
        assert eps_covered([(above[0], 0.1, at[2])], [b], eps).tolist() == [False]
        if eps > 0:
            assert eps_covered([at], [b], eps).tolist() == [False]  # no anchor

    def test_anchor_needed_with_zero_eps_ties(self):
        # at eps = 0 a tie everywhere still anchors; a strict excess rejects
        assert eps_covered([(0.3, 0.4)], [(0.3, 0.4)], 0.0).tolist() == [True]
        assert eps_covered([(0.3, 0.41)], [(0.3, 0.4)], 0.0).tolist() == [False]

    def test_int_valued_vectors(self):
        rng = random.Random(4)
        vectors = [tuple(rng.randint(1, 5) for _ in range(3)) for _ in range(60)]
        occupants = [tuple(rng.randint(1, 5) for _ in range(3)) for _ in range(6)]
        for eps in (0.0, 0.2, 0.5):
            assert_cover_matches(occupants, vectors, eps, 3)

    def test_negative_eps_raises(self):
        with pytest.raises(ArgumentError):
            eps_covered([(0.5,)], [(0.5,)], -0.1)
        with pytest.raises(ArgumentError):
            eps_covered([], [], -1e-9)
        with pytest.raises(ArgumentError):
            check_eps_cover(grid_of([(0.5,)], 1), states_of([(0.5,)]), -0.1)

    def test_widths_must_agree(self):
        with pytest.raises(ArgumentError):
            eps_covered([(0.5, 0.5)], [(0.5,)], 0.1)


# -- pruned-state audit -----------------------------------------------------------


def assert_audit_matches(pruned, all_states, searched, oracle_log, eps):
    report = {"eps_cover_violations": []}
    check_pruned(report, pruned, all_states, searched, oracle_log, eps)
    assert (report["pruned_validated"], report["eps_cover_violations"]) == \
        reference_pruned_audit(pruned, all_states, searched, oracle_log, eps)


def bi_instances():
    yield build_pruning_fixture()[:3], 0.3, 0.55
    for seed in range(8):
        yield make_monotone_instance(seed), 0.3, 0.8
    for seed in range(4):
        yield make_random_instance(seed), 0.3, 0.8


class TestPrunedAudit:
    def test_bi_runs(self):
        audited = 0
        for (u, measures, estimator), eps, theta in bi_instances():
            cfg = SearchConfig(epsilon=eps, target="t", theta=theta, algorithm="bi")
            result = run_algorithm(u, measures, estimator, cfg)
            oracle_log = TestLog()
            everything = enumerate_all(u, estimator, measures, target="t", log=oracle_log)
            assert_audit_matches(result.pruned, everything, result.log, oracle_log, eps)
            audited += len(result.pruned)
        assert audited > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_random_audits_find_violations_alike(self, seed):
        # random "pruned" and "searched" sets make both outcomes common
        u, measures, estimator = make_random_instance(seed)
        oracle_log = TestLog()
        everything = enumerate_all(u, estimator, measures, target="t", log=oracle_log)
        rng = random.Random(seed)
        searched = TestLog()
        for s in rng.sample(everything, max(1, len(everything) // 4)):
            searched.append(oracle_log.get(s.bitmap))
        n_bits = everything[0].bitmap.length
        pruned = [PrunedState(Bitmap(rng.randrange(1, 2 ** n_bits), n_bits),
                              everything[0].bitmap, everything[0].bitmap, 1)
                  for _ in range(40)]
        for eps in (0.0, 0.05, 0.3):
            assert_audit_matches(pruned, everything, searched, oracle_log, eps)

    def test_nothing_searched_or_nothing_pruned(self):
        u, measures, estimator = make_random_instance(1)
        oracle_log = TestLog()
        everything = enumerate_all(u, estimator, measures, target="t", log=oracle_log)
        pruned = [PrunedState(s.bitmap, s.bitmap, s.bitmap, 1) for s in everything[:5]]
        assert_audit_matches(pruned, everything, TestLog(), oracle_log, 0.3)
        assert_audit_matches([], everything, oracle_log, oracle_log, 0.3)


# -- the distance normalizer ------------------------------------------------------


def pow_square_sensitive_pair(width=3):
    """Two vectors whose distance differs when squares are ``d * d`` instead
    of Python's ``d ** 2`` (the C library's ``pow``)."""
    rng = random.Random(11)
    while True:
        a = tuple(rng.random() for _ in range(width))
        b = tuple(rng.random() for _ in range(width))
        by_mul = math.sqrt(sum((x - y) * (x - y) for x, y in zip(a, b)))
        if reference_euc(a, b) != by_mul:
            return a, b


class TestEucMax:
    @pytest.mark.parametrize("n", SIZES)
    def test_fixed_sizes(self, n):
        rng = random.Random(300 + n)
        measures = measures_of(3)
        for vectors in (tied_vectors(rng, n, 3),
                        [tuple(rng.random() for _ in range(3)) for _ in range(n)]):
            log = log_of(vectors)
            assert _euc_max(log, measures) == reference_euc_max(log, measures)

    @settings(max_examples=150, deadline=None)
    @given(vector_lists(max_size=60))
    def test_generated(self, drawn):
        width, vectors, _ = drawn
        log = log_of(vectors)
        assert _euc_max(log, measures_of(width)) == reference_euc_max(log, measures_of(width))

    def test_squares_round_as_python_pow(self):
        a, b = pow_square_sensitive_pair()
        rng = random.Random(12)
        # the sensitive pair is the farthest apart: others sit near its middle
        vectors = [a, b] + [tuple((x + y) / 2 + rng.uniform(-1e-3, 1e-3) for x, y in zip(a, b))
                            for _ in range(20)]
        log = log_of(vectors)
        assert _euc_max(log, measures_of(3)) == reference_euc_max(log, measures_of(3))
        assert _euc_max(log, measures_of(3)) == reference_euc(a, b)

    def test_pair_distance_rounds_as_the_normalizer(self):
        # dis_score divides _euc by _euc_max: both square and add alike
        a, b = pow_square_sensitive_pair()
        assert _euc(a, b) == reference_euc(a, b)

    def test_all_equal_or_single_falls_back_to_sqrt_width(self):
        for vectors in ([], [(0.4, 0.4)], [(0.4, 0.4)] * 5):
            assert _euc_max(log_of(vectors), measures_of(2)) == math.sqrt(2)

    def test_int_valued_vectors(self):
        log = log_of([(1, 2, 3), (4, 2, 1), (1, 1, 1), (2, 5, 3)])
        assert _euc_max(log, measures_of(3)) == reference_euc_max(log, measures_of(3))
