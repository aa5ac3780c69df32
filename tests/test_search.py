import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyforge import (
    ArgumentError,
    Bitmap,
    EstimatorFailure,
    Literal,
    LookupEstimator,
    MeasureSet,
    MeasureSpec,
    Relation,
    SearchConfig,
    SearchState,
    SkylineGrid,
    TestLog,
    UniversalTable,
    back_st,
    build_correlation_graph,
    can_prune,
    check_eps_cover,
    dis_score,
    diversify_level,
    div_score,
    enumerate_all,
    naive_eps_dominates,
    param_eps_dominates,
    run_algorithm,
    valuate,
)
import skyforge.search as search_module
from skyforge.measures import LogEntry
from skyforge.operators import BACKWARD, FORWARD, StateSpace

from conftest import (
    Counting,
    build_pruning_fixture,
    build_toy_universal,
    make_monotone_instance,
    make_random_instance,
    perf,
    seeded_worked_log,
    three_measures,
)


def toy_setup(seed=0):
    u = build_toy_universal()
    space = StateSpace(u, protected=("t",))
    rng = random.Random(seed)
    table = {
        bits: {name: rng.uniform(0.05, 1.0) for name in ("rmse", "r2_inv", "train_cost")}
        for bits in range(2 ** space.n_bits)
    }
    return u, three_measures(p_low=0.05), LookupEstimator(table)


class TestSearchConfig:
    def test_validation(self):
        with pytest.raises(ArgumentError):
            SearchConfig(epsilon=0.0)
        with pytest.raises(ArgumentError):
            SearchConfig(epsilon=0.1, budget=0)
        with pytest.raises(ArgumentError):
            SearchConfig(epsilon=0.1, algorithm="div", k=0)
        with pytest.raises(ArgumentError):
            SearchConfig(epsilon=0.1, alpha=1.5)

    @pytest.mark.parametrize("bad", [{"theta": -5}, {"theta": -1e-9}, {"theta": math.nan},
                                     {"max_len": -1}])
    def test_theta_and_max_len_ranges(self, bad):
        with pytest.raises(ArgumentError, match=next(iter(bad))):
            SearchConfig(epsilon=0.1, **bad)

    def test_theta_and_max_len_bounds_accepted(self):
        cfg = SearchConfig(epsilon=0.1, theta=0, max_len=0)
        assert (cfg.theta, cfg.max_len) == (0, 0)

    @pytest.mark.parametrize("bad", [
        {"epsilon": math.nan}, {"epsilon": math.inf}, {"epsilon": 10 ** 400},
        {"theta": math.inf}, {"alpha": math.nan}, {"k": -1}, {"algorithm": "foo"},
    ], ids=["eps-nan", "eps-inf", "eps-int-beyond-float", "theta-inf", "alpha-nan", "k-negative",
            "unknown-algorithm"])
    def test_non_finite_or_out_of_range_rejected(self, bad):
        with pytest.raises(ArgumentError, match=next(iter(bad))):
            SearchConfig(**{"epsilon": 0.1, **bad})


class TestBackSt:
    def test_all_target_literals_retained(self, toy_universal):
        space = StateSpace(toy_universal, protected=("t",))
        s = back_st(space, "t")
        assert s.bitmap == space.bitmap_from_bits(space.attr_bits["t"])

    def test_binary_target_keeps_both_classes(self, toy_universal):
        space = StateSpace(toy_universal, protected=("t",))
        s = back_st(space, "t")
        data = space.dataset(s.bitmap)
        assert set(data.column("t")) == {0, 1}

    def test_backward_children_one_per_unset_bit(self, toy_universal):
        space = StateSpace(toy_universal, protected=("t",))
        s = back_st(space, "t")
        children = space.op_gen(s, BACKWARD)
        assert len(children) == space.n_bits - len(space.attr_bits["t"])

    def test_feature_needing_estimator_gets_first_literal(self, toy_universal):
        space = StateSpace(toy_universal, protected=("t",))
        s = back_st(space, "t", needs_feature=True)
        extra = s.bitmap.bits & ~space.bitmap_from_bits(space.attr_bits["t"]).bits
        assert extra == 1 << space.attr_bits["A"][0]

    def test_unknown_target(self, toy_universal):
        space = StateSpace(toy_universal, protected=())
        with pytest.raises(ArgumentError):
            back_st(space, "nope")


def walkthrough_fixture():
    """Reduce-from-universal walkthrough: budget of five valuations at
    eps = 0.3 must finish with exactly the two incomparable survivors."""
    rel = Relation("u", ["X", "Y"], [[1, 1], [1, 2], [2, 1], [2, 2]])
    u = UniversalTable(relation=rel, literal_index={
        "X": (Literal("X", 1), Literal("X", 2)),
        "Y": (Literal("Y", 1), Literal("Y", 2)),
    })
    ms = MeasureSet([
        MeasureSpec("p1", p_low=0.05, p_high=0.9),
        MeasureSpec("p2", p_low=0.05),
    ])
    table = {
        0b1111: {"p1": 0.95, "p2": 0.50},  # universal state: over the bound
        0b0111: {"p1": 0.31, "p2": 0.52},  # D1
        0b1011: {"p1": 0.55, "p2": 0.25},  # D2
        0b1101: {"p1": 0.30, "p2": 0.40},  # D3
        0b1110: {"p1": 0.56, "p2": 0.33},  # D4
    }
    return u, ms, LookupEstimator(table, default={"p1": 0.99, "p2": 0.99})


class TestRunApx:
    def test_budget_one_valuates_exactly_one_state(self):
        u, ms, est = toy_setup()
        est = Counting(est)
        res = run_algorithm(u, ms, est, SearchConfig(epsilon=0.3, target="t", budget=1))
        assert res.valuations == 1
        assert est.calls == 1
        assert res.grid.occupant_count() <= 1

    def test_exhaustive_grid_covers_every_valuated_state(self):
        u, ms, est = toy_setup()
        res = run_algorithm(u, ms, est, SearchConfig(epsilon=0.5, target="t"))
        everything = enumerate_all(u, est, ms, target="t")
        report = check_eps_cover(res.grid, everything, 0.5)
        assert report["eps_cover_violations"] == []

    def test_walkthrough_ends_with_the_two_survivors(self):
        u, ms, est = walkthrough_fixture()
        res = run_algorithm(u, ms, est, SearchConfig(epsilon=0.3, budget=5))
        assert res.valuations == 5
        got = {o.bitmap.bits for o in res.grid.occupants()}
        assert got == {0b1011, 0b1101}  # D2 and D3
        # the relaxed-dominance outcomes behind the walkthrough
        d1, d2 = perf(0.31, 0.52), perf(0.55, 0.25)
        d3, d4 = perf(0.30, 0.40), perf(0.56, 0.33)
        assert naive_eps_dominates(d3, d1, 0.3)
        assert naive_eps_dominates(d2, d4, 0.3)
        assert not naive_eps_dominates(d2, d3, 0.3) and not naive_eps_dominates(d3, d2, 0.3)

    def test_max_len_limits_depth(self):
        u, ms, est = toy_setup()
        res = run_algorithm(u, ms, est, SearchConfig(epsilon=0.3, target="t", max_len=1))
        assert all(len(res.graph.path_to(e.bitmap)) <= 1 for e in res.log)
        # root plus its four feature flips
        assert res.valuations == 5

    def test_estimator_failure_flags_partial(self, toy_universal):
        class Flaky:
            requires_feature = False
            calls = 0

            def estimate(self, state, space, upcoming=None):
                Flaky.calls += 1
                if Flaky.calls > 3:
                    raise EstimatorFailure("boom", bitmap=state.bitmap)
                return {"rmse": 0.5, "r2_inv": 0.5, "train_cost": 0.5}

        res = run_algorithm(toy_universal, three_measures(p_low=0.05), Flaky(),
                            SearchConfig(epsilon=0.3, target="t"))
        assert res.partial
        assert "boom" in res.failure

    def test_estimator_failure_keeps_every_paid_valuation(self, toy_universal):
        class FailsOnFourthCall:
            requires_feature = False
            calls = 0

            def estimate(self, state, space, upcoming=None):
                self.calls += 1
                if self.calls == 4:
                    raise EstimatorFailure("boom", bitmap=state.bitmap)
                spread = (state.bitmap.bits * 37 % 11) / 11
                return {"rmse": 0.1 + 0.8 * spread, "r2_inv": 0.9 - 0.8 * spread,
                        "train_cost": 0.5}

        res = run_algorithm(toy_universal, three_measures(p_low=0.05), FailsOnFourthCall(),
                            SearchConfig(epsilon=0.3, target="t"))
        assert res.partial and len(res.log) == res.valuations == 3
        reached = set(res.graph.parents) | {b.bits for b in res.graph.roots}
        assert {e.bitmap.bits for e in res.log} <= reached
        assert not check_eps_cover(res.grid, list(res.log), 0.3)["eps_cover_violations"]

    def test_non_mapping_estimate_ends_walk_as_failure(self, toy_universal):
        class NoneAfterTwoCalls:
            requires_feature = False
            calls = 0

            def estimate(self, state, space, upcoming=None):
                self.calls += 1
                if self.calls > 2:
                    return None
                return {"rmse": 0.5, "r2_inv": 0.5, "train_cost": 0.5}

        res = run_algorithm(toy_universal, three_measures(p_low=0.05), NoneAfterTwoCalls(),
                            SearchConfig(epsilon=0.1))
        assert res.partial and res.valuations == len(res.log) == 2
        # the failure names the state whose estimate was not a mapping
        assert res.failure.startswith("estimator raised TypeError(")
        assert "NoneType" in res.failure and " (bitmap " in res.failure


class TestRunBi:
    def test_needs_target(self):
        for algo in ("bi", "nobi", "div"):
            with pytest.raises(ArgumentError):
                SearchConfig(epsilon=0.3, algorithm=algo, k=1)

    def test_meet_in_the_middle_on_single_attribute(self):
        rel = Relation("u", ["t", "a"], [[1, "p"], [1, "q"]])
        u = UniversalTable(relation=rel, literal_index={
            "t": (Literal("t", 1),),
            "a": (Literal("a", "p"), Literal("a", "q")),
        })
        ms = three_measures(p_low=0.05)
        est = LookupEstimator({}, default={"rmse": 0.5, "r2_inv": 0.5, "train_cost": 0.5})
        res = run_algorithm(u, ms, est, SearchConfig(epsilon=0.3, target="t", algorithm="nobi"))
        # frontiers meet at the one-literal states; all four states valuated,
        # nothing expanded past the meeting level
        assert res.valuations == 4
        assert all(len(res.graph.path_to(e.bitmap)) <= 1 for e in res.log)
        assert len(res.graph.parents) == 2

    def test_exhaustive_no_pruning_covers_full_space(self):
        u, ms, est = toy_setup()
        eps = 0.3
        res_bi = run_algorithm(u, ms, est, SearchConfig(epsilon=eps, target="t",
                                                        algorithm="nobi"))
        res_apx = run_algorithm(u, ms, est, SearchConfig(epsilon=eps, target="t"))
        everything = enumerate_all(u, est, ms, target="t")
        for res in (res_bi, res_apx):
            assert check_eps_cover(res.grid, everything, eps)["eps_cover_violations"] == []

    def test_worked_fixture_prunes_the_sandwiched_states(self):
        u, ms, est, names, vectors = build_pruning_fixture()
        cfg = SearchConfig(epsilon=0.3, target="t", theta=0.55, algorithm="bi")
        res = run_algorithm(u, ms, est, cfg)
        pruned_bits = {p.bitmap.bits for p in res.pruned}
        assert pruned_bits == {names["s_4"], names["s_5"]}
        # pruned states were skipped without valuation
        space = StateSpace(u, protected=("t",))
        for b in pruned_bits:
            assert res.log.get(Bitmap(b, space.n_bits)) is None
        assert res.valuations == 14
        # soundness: force-valuating each pruned state, some valuated state
        # eps-dominates it
        audit = TestLog()
        valuated = [e.perf for e in res.log]
        for b in pruned_bits:
            got, _ = valuate(SearchState(Bitmap(b, space.n_bits)), est, audit, ms, space)
            assert any(naive_eps_dominates(v, got.perf, 0.3) for v in valuated)

    def test_pruning_never_breaks_cover_of_the_full_space(self):
        u, ms, est, names, vectors = build_pruning_fixture()
        res = run_algorithm(u, ms, est, SearchConfig(epsilon=0.3, target="t", theta=0.55,
                                                     algorithm="bi"))
        everything = enumerate_all(u, est, ms, target="t")
        assert check_eps_cover(res.grid, everything, 0.3)["eps_cover_violations"] == []

    def test_pruning_side_checks_every_child_before_valuating(self, monkeypatch):
        # every prune check of a side reads the log as it stood before the
        # side's valuations, however many batches ``expand`` yields
        sides = []  # the "prune" and "estimate" events of each side, in order
        real_expand = search_module._Runner.expand
        real_prune = search_module._Runner.try_prune

        def recording_expand(runner, frontier, direction):
            sides.append([])  # a side starts with its expansion
            return real_expand(runner, frontier, direction)

        def recording_prune(runner, child, level):
            sides[-1].append("prune")
            return real_prune(runner, child, level)

        class Recording:
            def __init__(self, inner):
                self.inner = inner

            def estimate(self, state, space, upcoming=None):
                if sides:  # the roots are valuated before the first side
                    sides[-1].append("estimate")
                return self.inner.estimate(state, space, upcoming)

        monkeypatch.setattr(search_module._Runner, "expand", recording_expand)
        monkeypatch.setattr(search_module._Runner, "try_prune", recording_prune)
        mixed = 0
        for seed, budget in itertools.product(range(8), (7, 15, 40)):
            u, ms, est = make_monotone_instance(seed)
            sides.clear()
            run_algorithm(u, ms, Recording(est), SearchConfig(
                epsilon=0.2, target="t", algorithm="bi", budget=budget))
            for events in sides:
                if "estimate" in events:
                    assert "prune" not in events[events.index("estimate"):]
                    mixed += "prune" in events
        assert mixed


def worked_log_setup():
    u, ms_run, est, names, vectors = build_pruning_fixture()
    space = StateSpace(u, protected=("t",))
    ms = MeasureSet([
        MeasureSpec("p1", p_low=0.1),
        MeasureSpec("p2", p_low=0.1),
        MeasureSpec("p3", p_low=0.1, p_high=0.13),
    ])
    log = seeded_worked_log(names, vectors, space)
    graph = build_correlation_graph(log, 0.8, ms)
    return space, ms, names, log, graph


class TestParamEpsDominates:
    def test_worked_partial_example(self):
        # the engine tests a valuated backward point against the lower bounds
        # of a mid's estimate.  At s_3's row count the correlated measures
        # bracket to s_3's own values and p3 falls back to its declared
        # range, so s_3's point eps-dominates the lower bounds: 0.45 <= 1.3 *
        # 0.45, 0.20 <= 1.3 * 0.20 and 0.12 <= 1.3 * 0.10
        space, ms, names, log, graph = worked_log_setup()
        from skyforge.measures import estimate_bounds

        s3 = log.get(Bitmap(names["s_3"], space.n_bits)).perf
        sb = log.get(Bitmap(names["s_b"], space.n_bits)).perf
        at_s3 = estimate_bounds(3, log, graph, ms)
        assert at_s3 == ((0.45, 0.45), (0.20, 0.20), (0.1, 0.13))
        lower = tuple(lo for lo, _ in at_s3)
        assert param_eps_dominates(s3, lower, 0.3)
        assert not param_eps_dominates(sb, lower, 0.3)  # 0.60 > 1.3 * 0.45
        # one row fewer brackets with s_b as well: the upper bounds widen,
        # the lower bounds the engine reads stay
        at_two = estimate_bounds(2, log, graph, ms)
        assert at_two[0] == (0.45, 0.60)
        assert tuple(lo for lo, _ in at_two) == lower

    def test_all_valuated_collapses_to_componentwise_factor(self):
        # strictly worse everywhere but within the factor: the interval form
        # holds even though plain eps-dominance fails its anchor clause
        a = perf(0.50, 0.50, 0.50)
        b = perf(0.40, 0.40, 0.40)
        assert param_eps_dominates(a, b, 0.3)
        assert not naive_eps_dominates(a, b, 0.3)

    def test_factor_bound_is_inclusive_and_lengths_must_match(self):
        b = perf(0.40, 0.50, 0.25)
        at_bound = tuple((1.0 + 0.3) * y for y in b)
        assert param_eps_dominates(at_bound, b, 0.3)
        # one measure a single float step past the bound fails, at any position
        for m in range(3):
            past = list(at_bound)
            past[m] = math.nextafter(past[m], 1.0)
            assert not param_eps_dominates(tuple(past), b, 0.3)
        with pytest.raises(ArgumentError, match="different measure sets"):
            param_eps_dominates(at_bound[:2], b, 0.3)


class TestAddRegions:
    @pytest.mark.parametrize("algorithm", ["bi", "div"])
    def test_admits_exactly_the_strictly_nested_dominated_pairs(self, algorithm, monkeypatch):
        # each call admits, forward-major, every (forward, backward) pair
        # whose backward bitmap lies strictly inside the forward one and
        # whose backward vector is within (1+eps) of the forward one
        calls = []
        real = search_module._Runner.add_regions

        def recording(runner, valuated_f, valuated_b):
            before = len(runner.regions)
            real(runner, valuated_f, valuated_b)
            calls.append((list(valuated_f), list(valuated_b), runner.regions[before:],
                          runner.cfg.epsilon))

        monkeypatch.setattr(search_module._Runner, "add_regions", recording)
        k = 2 if algorithm == "div" else 0
        u, ms, est, _, _ = build_pruning_fixture()
        run_algorithm(u, ms, est, SearchConfig(epsilon=0.3, target="t", theta=0.55,
                                               algorithm=algorithm, k=k))
        for seed in range(8):
            u, ms, est = make_monotone_instance(seed)
            run_algorithm(u, ms, est, SearchConfig(epsilon=0.2, target="t",
                                                   algorithm=algorithm, k=k))
        admitted = refused = 0
        for valuated_f, valuated_b, got, eps in calls:
            nested = [(f, b) for f in valuated_f for b in valuated_b
                      if f.bitmap.contains(b.bitmap) and b.bitmap.bits != f.bitmap.bits]
            expected = [(f, b) for f, b in nested
                        if all(b.perf[m] <= (1 + eps) * f.perf[m] for m in range(len(f.perf)))]
            assert [(f.bitmap.bits, b.bitmap.bits) for f, b in got] == \
                   [(f.bitmap.bits, b.bitmap.bits) for f, b in expected]
            assert all(g[0] is e[0] and g[1] is e[1] for g, e in zip(got, expected))
            admitted += len(expected)
            refused += len(nested) - len(expected)
        assert admitted > 0 and refused > 0


class TestCanPrune:
    def level_one_log(self):
        """Replay the run's first two levels so the prune check sees exactly
        the evidence the search had."""
        u, ms, est, names, vectors = build_pruning_fixture()
        space = StateSpace(u, protected=("t",))
        log = TestLog()
        order = [names["s_U"], names["s_b"]]
        fwd = sorted(b for b in vectors if Bitmap(b, 5).popcount() == 4)
        bwd = sorted(b for b in vectors if Bitmap(b, 5).popcount() == 2)
        for b in order + fwd + bwd:
            valuate(SearchState(Bitmap(b, space.n_bits)), est, log, ms, space)
        graph = build_correlation_graph(log, 0.55, ms)
        return space, ms, names, log, graph, est

    def states(self, names, log, space):
        def mk(name_or_bits):
            # a logged state is its entry, any other an unvaluated state
            bitmap = Bitmap(names.get(name_or_bits, name_or_bits), space.n_bits)
            return log.get(bitmap) or SearchState(bitmap)
        return mk

    def test_worked_fixture_mid_states_prune(self):
        space, ms, names, log, graph, est = self.level_one_log()
        mk = self.states(names, log, space)
        region = (mk("s_1"), mk("s_3"))
        for mid in ("s_4", "s_5"):
            assert can_prune(mk(mid), [region], 0.3, graph, log, ms, space) == region

    def test_mid_without_bracket_evidence_is_kept(self):
        space, ms, names, log, graph, est = self.level_one_log()
        mk = self.states(names, log, space)
        # s_2's row count (2) is below every logged count: no bracket, only
        # declared ranges, hence no evidence and no prune, although at eps 5
        # the backward point is within the factor of those ranges' lower ends
        s2 = mk("s_2")
        region = (mk("s_U"), mk(space.bitmap_from_bits((0, 4)).bits))
        assert region[0].bitmap.contains(s2.bitmap) and s2.bitmap.contains(region[1].bitmap)
        assert param_eps_dominates(region[1].perf, tuple(s.p_low for s in ms), 5.0)
        assert can_prune(s2, [region], 5.0, graph, log, ms, space) is None

    def test_empty_graph_never_prunes(self):
        space, ms, names, log, graph, est = self.level_one_log()
        mk = self.states(names, log, space)
        region = (mk("s_1"), mk("s_3"))
        assert can_prune(mk("s_4"), [region], 0.3, {}, log, ms, space) is None

    def test_sandwich_required(self):
        space, ms, names, log, graph, est = self.level_one_log()
        mk = self.states(names, log, space)
        region = (mk("s_1"), mk("s_3"))
        assert can_prune(mk("s_2"), [region], 0.3, graph, log, ms, space) is None

    def test_first_certifying_region_is_returned(self, monkeypatch):
        space, ms, names, log, graph, est = self.level_one_log()
        mk = self.states(names, log, space)
        estimates = []
        real = search_module.estimate_bounds
        monkeypatch.setattr(search_module, "estimate_bounds",
                            lambda *args: estimates.append(args) or real(*args))
        regions = [
            (mk("s_U"), mk(space.bitmap_from_bits((0, 4)).bits)),  # no sandwich
            (mk("s_U"), mk("s_b")),  # sandwich, but 0.60 > 1.3 * 0.37
            (mk("s_1"), mk("s_3")),
            (mk("s_U"), mk("s_3")),
        ]
        assert can_prune(mk("s_5"), regions, 0.3, graph, log, ms, space) == regions[2]
        assert len(estimates) == 1

    def test_mid_is_estimated_at_most_once_per_call(self, monkeypatch):
        per_call = []
        estimate, prune = search_module.estimate_bounds, search_module.can_prune

        def counting_estimate(*args):
            per_call[-1] += 1
            return estimate(*args)

        def counting_prune(*args):
            per_call.append(0)
            return prune(*args)

        monkeypatch.setattr(search_module, "estimate_bounds", counting_estimate)
        monkeypatch.setattr(search_module, "can_prune", counting_prune)
        pruned = 0
        for seed in range(4):
            u, ms, est = make_monotone_instance(seed)
            cfg = SearchConfig(epsilon=0.2, theta=0.5, algorithm="bi", target="t")
            pruned += len(run_algorithm(u, ms, est, cfg).pruned)
        assert pruned > 0 and sum(per_call) > 0
        assert max(per_call) <= 1


class TestDisScore:
    def two_state_log(self, ms):
        log = TestLog()
        a = log.append(LogEntry(Bitmap(0b0011, 4), perf(0.1, 0.1, 0.1), 3))
        b = log.append(LogEntry(Bitmap(0b1100, 4), perf(0.9, 0.9, 0.9), 3))
        return log, a, b

    def test_identical_states_score_zero(self):
        ms = three_measures()
        log, a, _ = self.two_state_log(ms)
        assert dis_score(a, a, 0.5, log, ms) == 0.0

    def test_orthogonal_bitmaps_alpha_one(self):
        ms = three_measures()
        log, a, b = self.two_state_log(ms)
        assert dis_score(a, b, 1.0, log, ms) == pytest.approx(0.5)

    def test_log_extremal_pair_alpha_zero(self):
        ms = three_measures()
        log, a, b = self.two_state_log(ms)
        assert dis_score(a, b, 0.0, log, ms) == pytest.approx(1.0)

    def test_zero_bitmap_treated_as_orthogonal(self):
        ms = three_measures()
        log, a, _ = self.two_state_log(ms)
        z = LogEntry(Bitmap(0, 4), perf(0.5, 0.5, 0.5), 1)
        assert dis_score(z, a, 1.0, log, ms) == pytest.approx(0.5)

    def test_symmetry(self):
        ms = three_measures()
        log, a, b = self.two_state_log(ms)
        assert dis_score(a, b, 0.3, log, ms) == dis_score(b, a, 0.3, log, ms)


def random_valuated_states(rng, n, bits=8):
    out = []
    log = TestLog()
    ms = three_measures()
    chosen = rng.sample(range(1, 2 ** bits), n)
    for b in chosen:
        out.append(log.append(LogEntry(Bitmap(b, bits),
                                       perf(*(rng.uniform(0.05, 1.0) for _ in range(3))),
                                       b % 7 + 1)))
    return out, log, ms


class TestDiversifyLevel:
    def test_identity_when_level_fits(self):
        rng = random.Random(0)
        states, log, ms = random_valuated_states(rng, 3)
        assert diversify_level(states, 3, 0.5, log, ms) == states

    def test_duplicate_bitmaps_not_both_kept(self):
        ms = three_measures()
        log = TestLog()
        dup1 = log.append(LogEntry(Bitmap(0b0001, 4), perf(0.2, 0.2, 0.2), 2))
        dup2 = LogEntry(Bitmap(0b0001, 4), perf(0.2, 0.2, 0.2), 2)
        other = log.append(LogEntry(Bitmap(0b1110, 4), perf(0.8, 0.8, 0.8), 2))
        far = log.append(LogEntry(Bitmap(0b0110, 4), perf(0.5, 0.9, 0.1), 2))
        chosen = diversify_level([dup1, dup2, other, far], 2, 0.5, log, ms)
        assert len({s.bitmap.bits for s in chosen}) == 2

    def test_quarter_bound_against_subset_enumeration(self):
        from skyforge.oracle import check_div_bound

        rng = random.Random(11)
        for trial in range(10):
            n = rng.randint(5, 10)
            k = rng.randint(2, 4)
            states, log, ms = random_valuated_states(rng, n)
            chosen = diversify_level(states, k, 0.5, log, ms)
            ratio = check_div_bound(chosen, states, k, 0.5, log, ms)
            assert ratio >= 0.25

    def test_div_monotone_on_subsets(self):
        rng = random.Random(4)
        states, log, ms = random_valuated_states(rng, 6)
        for size in range(1, len(states)):
            for subset in itertools.combinations(states, size):
                extended = list(subset) + [s for s in states if s not in subset][:1]
                assert div_score(subset, 0.5, log, ms) <= div_score(extended, 0.5, log, ms) + 1e-12


class TestRunDiv:
    def test_large_k_matches_unconstrained_run(self):
        u, ms, est = toy_setup()
        res_div = run_algorithm(u, ms, est, SearchConfig(
            epsilon=0.3, target="t", algorithm="div", k=10_000))
        res_bi = run_algorithm(u, ms, est, SearchConfig(epsilon=0.3, target="t", algorithm="bi"))
        assert {p: o.bitmap.bits for p, o in res_div.grid.cells.items()} == \
               {p: o.bitmap.bits for p, o in res_bi.grid.cells.items()}

    def test_k_one_propagates_single_state_per_level(self):
        u, ms, est = toy_setup()
        res = run_algorithm(u, ms, est, SearchConfig(
            epsilon=0.3, target="t", algorithm="div", k=1))
        assert len(res.div_set) <= 1
        assert not res.partial

    def test_skewed_level_keeps_both_clusters(self):
        ms = three_measures()
        log = TestLog()
        cluster_a = [log.append(LogEntry(Bitmap(0b000111 | (1 << i), 9),
                                         perf(0.2, 0.2, 0.2 + i / 100), 2))
                     for i in range(3, 5)]
        cluster_b = [log.append(LogEntry(Bitmap(0b111000000, 9), perf(0.9, 0.9, 0.9), 2))]
        chosen = diversify_level(cluster_a + cluster_b, 2, 0.5, log, ms)
        bits = {s.bitmap.bits for s in chosen}
        assert any(s.bitmap.bits in bits for s in cluster_a)
        assert any(s.bitmap.bits in bits for s in cluster_b)


class TestOneRecordPerState:
    def test_holders_keep_the_logs_own_entries(self):
        # a valuated state is its log entry: grid cells, the diversified set
        # and the oracle's states are the log's objects, never copies
        u, ms, est = toy_setup(seed=1)
        res = run_algorithm(u, ms, est, SearchConfig(
            epsilon=0.3, target="t", algorithm="div", k=2, budget=10))
        assert res.grid.occupants() and res.div_set
        for entry in res.grid.occupants() + res.div_set:
            assert entry is res.log.get(entry.bitmap)
        log = TestLog()
        everything = enumerate_all(u, est, ms, target="t", log=log)
        assert len(everything) == len(log)
        assert all(entry is log.get(entry.bitmap) for entry in everything)
        space, state = StateSpace(u, protected=("t",)), SearchState(everything[-1].bitmap)
        fresh = TestLog()
        first, invoked = valuate(state, est, fresh, ms, space)
        again, repeated = valuate(state, est, fresh, ms, space)
        assert invoked and not repeated and first is again is fresh.get(state.bitmap)
        assert valuate(state, est, log, ms, space)[0] is everything[-1]


@st.composite
def same_level_frontiers(draw):
    """A random instance, a direction, a search config and a frontier of
    distinct same-popcount states in random order, some drawn in pairs
    that differ by one swapped bit and so share a child."""
    u, ms, est = make_random_instance(draw(st.integers(0, 40)))
    n = StateSpace(u).n_bits
    pop = draw(st.integers(0, n))
    cfg = SearchConfig(epsilon=0.3, target="t", algorithm=draw(st.sampled_from(["apx", "bi"])),
                       budget=draw(st.sampled_from([1, 5, 2**31])))
    frontier = []
    for members in draw(st.lists(st.sets(st.integers(0, n - 1), min_size=pop, max_size=pop),
                                 max_size=10)):
        bits = sum(1 << i for i in members)
        frontier.append(bits)
        outside = [i for i in range(n) if not bits >> i & 1]
        if members and outside and draw(st.booleans()):
            drop, add = draw(st.sampled_from(sorted(members))), draw(st.sampled_from(outside))
            frontier.append(bits ^ (1 << drop) ^ (1 << add))
    frontier = [SearchState(Bitmap(b, n)) for b in dict.fromkeys(frontier)]
    return u, ms, est, cfg, draw(st.sampled_from([FORWARD, BACKWARD])), frontier


class TestLazyExpansion:
    @given(same_level_frontiers())
    @settings(max_examples=150, deadline=None)
    def test_stream_matches_eager_children(self, case):
        u, ms, est, cfg, direction, frontier = case
        runner = search_module._Runner(u, ms, est, cfg)
        first_parent = {}
        for state in frontier:
            for child in runner.space.op_gen(state, direction):
                first_parent.setdefault(child, state.bitmap.bits)
        batches = list(runner.expand(frontier, direction))
        streamed = [c.bitmap.bits for batch in batches for c in batch]
        assert all(batches)
        assert streamed == sorted(first_parent)
        assert all((bits ^ first_parent[bits]).bit_count() == 1 for bits in streamed)
        assert runner.graph.parents == first_parent
        if cfg.budget == 2**31:
            assert len(batches) <= 1

    @given(same_level_frontiers())
    @settings(max_examples=150, deadline=None)
    def test_every_built_child_is_yielded(self, case):
        u, ms, est, cfg, direction, frontier = case
        runner = search_module._Runner(u, ms, est, cfg)
        built, op_gen = [], StateSpace.op_gen

        def recording_op_gen(space, state, direction, lo=0, hi=None):
            children = op_gen(space, state, direction, lo, hi)
            built.extend(children)
            return children

        streamed = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(StateSpace, "op_gen", recording_op_gen)
            for batch in runner.expand(frontier, direction):
                streamed += [c.bitmap.bits for c in batch]
                # no child built so far waits for a later batch; a child
                # reached from several parents is built once by each
                assert set(built) == set(streamed)
        # and the batches' ranges build each parent's children once
        assert sorted(built) == sorted(c for s in frontier
                                       for c in op_gen(runner.space, s, direction))

    @pytest.mark.parametrize("seed", [0, 3, 5])
    def test_one_state_per_distinct_child(self, seed, monkeypatch):
        made, levels = [], []
        real_state, real_expand = search_module.SearchState, search_module._Runner.expand

        def counting_state(*args, **kwargs):
            made.append(args[0].bits)
            return real_state(*args, **kwargs)

        def recording_expand(runner, frontier, direction):
            made.clear()
            batches = list(real_expand(runner, frontier, direction))
            generated = [c for s in frontier for c in runner.space.op_gen(s, direction)]
            levels.append((list(made), generated, [c.bitmap.bits for b in batches for c in b]))
            yield from batches

        monkeypatch.setattr(search_module, "SearchState", counting_state)
        monkeypatch.setattr(search_module._Runner, "expand", recording_expand)
        u, ms, est = make_monotone_instance(seed)
        run_algorithm(u, ms, est, SearchConfig(epsilon=0.3, target="t", algorithm="bi"))
        assert levels
        for made_bits, generated, yielded in levels:
            assert made_bits == yielded == sorted(set(generated))
        # some level reaches a child from more than one parent
        assert any(len(generated) > len(set(generated)) for _, generated, _ in levels)

    @staticmethod
    def eager_apx(u, ms, est, budget):
        """Reference walk: valuate each level, built eagerly and sorted, in
        order until the budget is spent."""
        space = StateSpace(u, protected=("t",))
        log, grid = TestLog(), SkylineGrid(0.3, ms)
        level, used = [space.root_state()], 0
        while level:
            valuated = []
            for state in level:
                if used == budget:
                    return log, grid
                entry, invoked = valuate(state, est, log, ms, space)
                used += invoked
                valuated.append(entry)
                grid.submit(entry)
            children = {c for s in valuated for c in space.op_gen(s, FORWARD)}
            level = [SearchState(Bitmap(b, space.n_bits)) for b in sorted(children)]
        return log, grid

    @pytest.mark.parametrize("seed", [0, 3, 5, 9])
    def test_budget_stop_opens_fewer_parents(self, seed, monkeypatch):
        opened = []  # (parent bits, children returned) per call
        op_gen = StateSpace.op_gen

        def counting_op_gen(space, state, direction, lo=0, hi=None):
            children = op_gen(space, state, direction, lo, hi)
            opened.append((state.bitmap.bits, len(children)))
            return children

        monkeypatch.setattr(StateSpace, "op_gen", counting_op_gen)
        u, ms, est = make_random_instance(seed)
        space = StateSpace(u, protected=("t",))
        level_one = op_gen(space, space.root_state(), FORWARD)
        assert len(level_one) >= 3
        for budget in range(1, 1 + len(level_one) + 4):
            opened.clear()
            res = run_algorithm(u, ms, est, SearchConfig(epsilon=0.3, target="t",
                                                         budget=budget))
            # an open parent is asked again for each batch
            parents = {bits for bits, _ in opened}
            level_two = sum(n for bits, n in opened if bits in level_one)
            # the open level-1 parents' whole child lists, as eager generation built
            eager = sum(len(op_gen(space, SearchState(Bitmap(bits, space.n_bits)), FORWARD))
                        for bits in parents & set(level_one))
            log, grid = self.eager_apx(u, ms, est, budget)
            assert [(e.bitmap, e.perf, e.row_count) for e in res.log] == \
                   [(e.bitmap, e.perf, e.row_count) for e in log]
            assert res.grid.cells == grid.cells
            if budget == 1 + len(level_one) + 1:
                # one level-2 valuation: the root's call plus a few parents,
                # which build only part of their child lists
                assert 1 < len(parents) < 1 + len(level_one)
                assert 0 < level_two < eager


class TestDeterminismAndBudget:
    def test_identical_runs_bit_identical(self):
        for algo in ("apx", "bi", "nobi", "div"):
            u, ms, est1 = toy_setup(seed=2)
            _, _, est2 = toy_setup(seed=2)
            cfg = SearchConfig(epsilon=0.2, target="t", algorithm=algo,
                               k=4 if algo == "div" else 0)
            r1 = run_algorithm(u, ms, est1, cfg)
            r2 = run_algorithm(u, ms, est2, cfg)
            assert {p: o.bitmap.bits for p, o in r1.grid.cells.items()} == \
                   {p: o.bitmap.bits for p, o in r2.grid.cells.items()}
            assert [e.bitmap.bits for e in r1.log] == [e.bitmap.bits for e in r2.log]
            assert list(r1.graph.parents.items()) == list(r2.graph.parents.items())

    @pytest.mark.parametrize("budget", [1, 3, 7])
    def test_budget_compliance(self, budget):
        for algo in ("apx", "nobi", "bi"):
            u, ms, est = toy_setup(seed=3)
            est = Counting(est)
            cfg = SearchConfig(epsilon=0.3, target="t", budget=budget, algorithm=algo)
            res = run_algorithm(u, ms, est, cfg)
            assert res.valuations <= budget
            assert est.calls == res.valuations

    @pytest.mark.parametrize("make", [make_random_instance, make_monotone_instance])
    @pytest.mark.parametrize("budget", [1, 5, None])
    def test_valuations_are_the_estimator_calls_that_returned(self, make, budget):
        limit = {} if budget is None else {"budget": budget}
        for seed, algo, fail_at in itertools.product(range(4), search_module.ALGORITHMS,
                                                     (None, 4)):
            u, ms, est = make(seed)
            counting = Counting(est, fail_at)
            res = run_algorithm(u, ms, counting, SearchConfig(
                epsilon=0.2, target="t", algorithm=algo, k=2 if algo == "div" else 0, **limit))
            assert res.valuations == len(res.log) == counting.returned
            assert res.partial == (counting.calls == fail_at)

    def test_provenance_paths_replay(self):
        u, ms, est = toy_setup(seed=1)
        space = StateSpace(u, protected=("t",))
        res = run_algorithm(u, ms, est, SearchConfig(epsilon=0.3, target="t"))
        for occupant in res.grid.occupants():
            path = res.graph.path_to(occupant.bitmap)
            state = SearchState(res.graph.roots[0])
            for src, dst in path:
                assert src == state.bitmap.bits
                literal = space.bit_literals[(src ^ dst).bit_length() - 1]
                if src & ~dst:
                    state = space.apply_reduct(state, literal)
                else:
                    state = space.apply_augment(state, literal)
            assert state.bitmap == occupant.bitmap


class HintRecorder:
    """Wraps an estimator as one that uses three upcoming states, and
    records each call's state and hint as bits."""

    requires_feature = False
    lookahead = 3

    def __init__(self, inner):
        self.inner, self.calls = inner, []

    def estimate(self, state, space, upcoming=()):
        self.calls.append((state.bitmap.bits, tuple(s.bitmap.bits for s in upcoming)))
        return self.inner.estimate(state, space, upcoming)


class TestValuationStream:
    @pytest.mark.parametrize("algorithm", search_module.ALGORITHMS)
    def test_hints_are_exact_across_every_edge(self, algorithm):
        # each call is told the calls that follow it, in order, across
        # batches, sides, levels and the two roots; apx and nobi read only
        # bitmaps, so every hint is full, and only a barrier of bi or div (a
        # side's prune checks once regions exist, or a level's end) cuts one
        cases = [(toy_setup(seed), 0.3) for seed in range(6)]
        cases += [(make_monotone_instance(seed), 0.2) for seed in range(8)]
        short = 0
        for ((u, ms, est), eps), budget in itertools.product(cases, (3, 10, 2**31)):
            recorder = HintRecorder(est)
            res = run_algorithm(u, ms, recorder, SearchConfig(
                epsilon=eps, target="t", budget=budget, algorithm=algorithm,
                k=2 if algorithm == "div" else 0))
            called = [bits for bits, _ in recorder.calls]
            assert called == [e.bitmap.bits for e in res.log]  # each call once
            assert len(called) == res.valuations <= budget
            for i, (_, hint) in enumerate(recorder.calls):
                # a prefix of the calls that follow: never a logged state,
                # never one past the budget
                assert hint == tuple(called[i + 1:i + 1 + len(hint)])
                full = min(3, len(called) - i - 1)
                if algorithm in ("apx", "nobi"):
                    assert len(hint) == full
                short += len(hint) < full
        assert short if algorithm in ("bi", "div") else not short
