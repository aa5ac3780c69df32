import random

import pytest

from skyforge import (
    ArgumentError,
    Bitmap,
    EnumerationCapError,
    Literal,
    LookupEstimator,
    MeasureSet,
    MeasureSpec,
    Relation,
    SearchConfig,
    SkylineGrid,
    TestLog,
    UniversalTable,
    check_div_bound,
    check_eps_cover,
    enumerate_all,
    naive_exact_pareto,
    run_algorithm,
)
from skyforge.measures import LogEntry
from skyforge.operators import StateSpace
from skyforge.oracle import state_count_bound

from conftest import build_toy_universal, make_random_instance, perf, three_measures


def plain_universal(lit_counts):
    """One attribute per entry of ``lit_counts`` with that many literals;
    a single row valued so nothing is degenerate."""
    attrs = [f"a{i}" for i in range(len(lit_counts))]
    rows = []
    values = {a: list(range(k)) for a, k in zip(attrs, lit_counts)}
    for combo in range(max(lit_counts)):
        rows.append([values[a][combo % k] for a, k in zip(attrs, lit_counts)])
    return UniversalTable(relation=Relation("u", attrs, rows), literal_index={
        a: tuple(Literal(a, v) for v in range(k)) for a, k in zip(attrs, lit_counts)})


def flat_estimator(names=("m0", "m1", "m2")):
    return LookupEstimator({}, default={n: 0.5 for n in names})


def flat_measures():
    return MeasureSet([MeasureSpec(f"m{j}", p_low=0.05) for j in range(3)])


class TestEnumerateAll:
    def test_two_single_literal_attributes(self):
        u = plain_universal([1, 1])
        states = enumerate_all(u, flat_estimator(), flat_measures())
        assert len(states) == 3  # full plus each single; empty schema excluded

    def test_one_attribute_three_literals(self):
        u = plain_universal([3])
        states = enumerate_all(u, flat_estimator(), flat_measures())
        assert len(states) == 7  # 2^3 - 1

    def test_four_attributes_two_literals_each(self):
        u = plain_universal([2, 2, 2, 2])
        states = enumerate_all(u, flat_estimator(), flat_measures())
        space = StateSpace(u)
        # closed form: (2^2 subsets per attribute)^4 minus the all-suppressed
        # bitmap, minus whichever states end up with no rows
        assert state_count_bound(space) == 4 ** 4 - 1
        degenerate = sum(
            1 for bits in range(1, 2 ** space.n_bits)
            if space.is_degenerate(Bitmap(bits, space.n_bits))
        )
        assert len(states) == 4 ** 4 - 1 - degenerate

    def test_cap_refusal_reports_required_count(self):
        u = plain_universal([3, 3, 3, 3, 3, 3, 3])  # 21 bits
        with pytest.raises(EnumerationCapError) as err:
            enumerate_all(u, flat_estimator(), flat_measures(), max_bits=20)
        assert err.value.required == 8 ** 7 - 1

    @pytest.mark.parametrize("cap", [0, -3])
    def test_cap_below_one_is_an_argument_error(self, cap):
        with pytest.raises(ArgumentError, match="at least 1"):
            enumerate_all(plain_universal([2, 1]), flat_estimator(), flat_measures(), max_bits=cap)

    def test_states_come_back_valuated_and_sorted(self):
        u = plain_universal([2, 1])
        states = enumerate_all(u, flat_estimator(), flat_measures())
        assert all(s.perf is not None for s in states)
        bits = [s.bitmap.bits for s in states]
        assert bits == sorted(bits)

    def test_each_call_is_told_the_next_call(self):
        # each call is told the next ``lookahead`` calls, in order; a state
        # already in the log calls no estimator, so it is skipped
        calls = []

        class Recording(LookupEstimator):
            lookahead = 3

            def estimate(self, bitmap, space, upcoming=()):
                calls.append((bitmap.bits, tuple(u.bits for u in upcoming)))
                return super().estimate(bitmap, space, upcoming)

        u, ms = build_toy_universal(), flat_measures()
        every = [s.bitmap.bits for s in enumerate_all(u, flat_estimator(), ms)]
        log = TestLog()
        for bits in every[1::3]:
            log.append(LogEntry(Bitmap(bits, 6), perf(0.5, 0.5, 0.5), 1))
        enumerate_all(u, Recording({}, default={n: 0.5 for n in ("m0", "m1", "m2")}), ms,
                      log=log)
        called = [bits for bits, _ in calls]
        assert called == [bits for i, bits in enumerate(every) if i % 3 != 1]
        assert [upcoming for _, upcoming in calls] == [
            tuple(called[i + 1:i + 4]) for i in range(len(called))]

    def test_each_state_is_looked_up_once(self, monkeypatch):
        # the hints come from the states pulled ahead, not from a second
        # pass over the log: one TestLog.get per state, in valuation order
        gets, calls, get = [], [], TestLog.get

        def counting_get(log, bitmap):
            gets.append(bitmap.bits)
            return get(log, bitmap)

        class Recording(LookupEstimator):
            lookahead = 3

            def estimate(self, bitmap, space, upcoming=()):
                calls.append((bitmap.bits, tuple(u.bits for u in upcoming)))
                return super().estimate(bitmap, space, upcoming)

        monkeypatch.setattr(TestLog, "get", counting_get)
        states = enumerate_all(build_toy_universal(), Recording({}, default={
            n: 0.5 for n in ("m0", "m1", "m2")}), flat_measures())
        every = [s.bitmap.bits for s in states]
        assert len(every) == 62 and gets == every
        # each call is told the next three calls, as when every state was
        # first looked up to list the calls
        assert calls == [(bits, tuple(every[i + 1:i + 4])) for i, bits in enumerate(every)]

    def test_an_estimator_without_lookahead_is_told_nothing(self):
        hints = []

        class Recording(LookupEstimator):
            def estimate(self, bitmap, space, upcoming=()):
                hints.append(upcoming)
                return super().estimate(bitmap, space, upcoming)

        enumerate_all(build_toy_universal(), Recording({}, default={n: 0.5 for n in (
            "m0", "m1", "m2")}), flat_measures())
        assert len(hints) > 1 and set(hints) == {()}

    @pytest.mark.parametrize("target", [None, "t"])
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_filter(self, seed, target):
        # seed 0 is the toy universal: keeping only t=0, A=10 and B=200
        # empties the dataset
        u = build_toy_universal() if seed == 0 else make_random_instance(seed)[0]
        space = StateSpace(u, protected=(target,) if target else ())
        need = sum(1 << i for i in space.attr_bits[target]) if target else 0
        holding = [bits for bits in range(1, 1 << space.n_bits) if bits & need == need]
        expected = [bits for bits in holding
                    if not space.is_degenerate(Bitmap(bits, space.n_bits))]
        if seed == 0 and target is None:
            assert len(expected) < len(holding)
        states = enumerate_all(u, flat_estimator(), flat_measures(), target=target)
        got = [s.bitmap.bits for s in states]
        assert got == expected
        assert all(a < b for a, b in zip(got, got[1:]))
        assert state_count_bound(space) == len(holding)


class TestCheckEpsCover:
    def setup_states(self, seed=7, n=12):
        rng = random.Random(seed)
        return [
            LogEntry(Bitmap(i + 1, 6), perf(*(rng.uniform(0.1, 1.0) for _ in range(3))), 1)
            for i in range(n)
        ]

    def test_exact_front_zero_violations_any_eps(self):
        states = self.setup_states()
        front = naive_exact_pareto(states)
        ms = three_measures(p_low=0.05)
        for eps in (0.05, 0.4):
            grid = SkylineGrid(eps, ms)
            for s in front:
                grid.submit(s)
            report = check_eps_cover(grid, states, eps)
            assert report["eps_cover_violations"] == []
            assert set(report["exact_front"]) == {s.bitmap.to_hex() for s in front}

    def test_empty_grid_reports_every_state(self):
        states = self.setup_states()
        grid = SkylineGrid(0.3, three_measures(p_low=0.05))
        report = check_eps_cover(grid, states, 0.3)
        assert len(report["eps_cover_violations"]) == len(states)

    def test_out_of_bounds_states_ignored(self):
        ms = three_measures(p_low=0.05, p_high=0.5)
        grid = SkylineGrid(0.3, ms)
        state = LogEntry(Bitmap(1, 3), perf(0.9, 0.9, 0.9), 1)
        report = check_eps_cover(grid, [state], 0.3)
        assert report["eps_cover_violations"] == []


class TestCheckDivBound:
    def make_states(self, vectors, bitmaps):
        log = TestLog()
        return [log.append(LogEntry(Bitmap(bits, 6), perf(*vec), 2))
                for bits, vec in zip(bitmaps, vectors)], log

    def test_optimal_subset_scores_one(self):
        rng = random.Random(2)
        import itertools

        from skyforge import div_score

        states, log = self.make_states(
            [tuple(rng.uniform(0.1, 1.0) for _ in range(3)) for _ in range(7)],
            [1, 2, 4, 8, 16, 32, 33],
        )
        ms = three_measures()
        best = max(itertools.combinations(states, 3),
                   key=lambda sub: div_score(sub, 0.5, log, ms))
        assert check_div_bound(list(best), states, 3, 0.5, log, ms) == pytest.approx(1.0)

    def test_symmetric_distances_make_every_subset_optimal(self):
        # identical perf vectors and pairwise-orthogonal bitmaps: all pairwise
        # distances coincide, so any k-subset is optimal
        states, log = self.make_states(
            [(0.5, 0.5, 0.5)] * 4, [0b000011, 0b001100, 0b110000, 0b000000])
        states = states[:3]
        ms = three_measures()
        ratio = check_div_bound(states[:2], states, 2, 1.0, log, ms)
        assert ratio == pytest.approx(1.0)

    def test_oversized_k_rejected(self):
        states, log = self.make_states([(0.5, 0.5, 0.5)] * 2, [1, 2])
        with pytest.raises(ArgumentError):
            check_div_bound(states, states, 3, 0.5, log, three_measures())

    def test_oversized_ground_rejected(self):
        states, log = self.make_states([(0.5, 0.5, 0.5)] * 15, list(range(1, 16)))
        with pytest.raises(ArgumentError):
            check_div_bound(states[:2], states, 2, 0.5, log, three_measures())


class TestOracleAgainstSearch:
    def test_search_grid_covers_enumeration(self):
        u = plain_universal([2, 2])
        rng = random.Random(31)
        space = StateSpace(u)
        table = {
            bits: {f"m{j}": rng.uniform(0.05, 1.0) for j in range(3)}
            for bits in range(2 ** space.n_bits)
        }
        est = LookupEstimator(table)
        ms = flat_measures()
        res = run_algorithm(u, ms, est, SearchConfig(epsilon=0.2))
        states = enumerate_all(u, est, ms)
        assert not check_eps_cover(res.grid, states, 0.2)["eps_cover_violations"]
