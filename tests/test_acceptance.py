"""Acceptance suite: the release criteria, one test per criterion.

Each test prints a single PASS/FAIL line on the real stdout so the gate is
visible even under pytest capture.  Criteria 2, 3, and 6 share one seeded
sweep of 50 random instances x 3 epsilons x 4 algorithms.
"""

import itertools
import json
import random
import time

import pytest

from skyforge import (
    Bitmap,
    MeasureSet,
    MeasureSpec,
    Relation,
    SearchConfig,
    TestLog,
    UniversalTable,
    check_div_bound,
    check_eps_cover,
    dis_score,
    diversify_level,
    div_score,
    enumerate_all,
    naive_dominates,
    naive_eps_dominates,
    naive_exact_pareto,
    run_algorithm,
    valuate,
)
from skyforge.estimators import RidgeEstimator
from skyforge.measures import LogEntry
from skyforge.operators import StateSpace
from skyforge.tabular import derive_all_literals

from conftest import (
    build_pruning_fixture,
    make_monotone_instance,
    make_random_instance,
    perf,
    three_measures,
)

SWEEP_SEEDS = range(50)
SWEEP_EPSILONS = (0.05, 0.2, 0.5)
SWEEP_ALGORITHMS = ("apx", "bi", "nobi", "div")


def checked(criterion: str, ok: bool, detail: str = "") -> bool:
    from conftest import ACCEPTANCE_LINES

    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"ACCEPTANCE {criterion}: {status}{suffix}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    return ok


# -- criterion 1: worked-example fidelity -------------------------------------


def test_criterion_1_worked_example_fidelity(example_states):
    started = time.perf_counter()
    states = example_states
    front = naive_exact_pareto(list(states.values()))
    front_names = {
        name for name, s in states.items()
        if s.bitmap.bits in {f.bitmap.bits for f in front}
    }
    relations = (
        naive_dominates(states["D2"].perf, states["D1"].perf),
        naive_dominates(states["D3"].perf, states["D2"].perf),
        naive_dominates(states["D3"].perf, states["D1"].perf),
        naive_dominates(states["D5"].perf, states["D4"].perf),
        not naive_dominates(states["D3"].perf, states["D5"].perf),
        not naive_dominates(states["D5"].perf, states["D3"].perf),
    )
    elapsed = time.perf_counter() - started
    ok = front_names == {"D3", "D5"} and all(relations) and elapsed < 1e-3
    assert checked("1 worked-example fidelity", ok,
                   f"front={sorted(front_names)}, {elapsed * 1e6:.0f}us")


# -- criteria 2, 3, 6: the seeded sweep ---------------------------------------


@pytest.fixture(scope="module")
def sweep():
    started = time.perf_counter()
    cover_violations = []
    front_misses = []
    bound_breaks = []
    runs = 0
    for seed in SWEEP_SEEDS:
        u, measures, estimator = make_random_instance(seed)
        everything = enumerate_all(u, estimator, measures, target="t")
        front = naive_exact_pareto(everything)
        for eps in SWEEP_EPSILONS:
            for algo in SWEEP_ALGORITHMS:
                cfg = SearchConfig(
                    epsilon=eps, target="t", algorithm=algo,
                    k=10 ** 6 if algo == "div" else 0,
                )
                result = run_algorithm(u, measures, estimator, cfg)
                runs += 1
                report = check_eps_cover(result.grid, everything, eps)
                for violation in report["eps_cover_violations"]:
                    cover_violations.append((seed, eps, algo, violation))
                for s in front:
                    if not any(naive_eps_dominates(o.perf, s.perf, eps)
                               for o in result.grid.cells.values()):
                        front_misses.append((seed, eps, algo, s.bitmap.to_hex()))
                if result.grid.occupant_count() > result.grid.max_cells():
                    bound_breaks.append((seed, eps, algo))
    elapsed = time.perf_counter() - started
    return {
        "runs": runs,
        "elapsed": elapsed,
        "cover_violations": cover_violations,
        "front_misses": front_misses,
        "bound_breaks": bound_breaks,
    }


def test_criterion_2_eps_cover_guarantee(sweep):
    ok = not sweep["cover_violations"] and sweep["elapsed"] < 60.0
    assert checked(
        "2 eps-cover guarantee", ok,
        f"{sweep['runs']} runs, {len(sweep['cover_violations'])} violations, "
        f"{sweep['elapsed']:.1f}s",
    )


def test_criterion_3_oracle_front_coverage(sweep):
    ok = not sweep["front_misses"]
    assert checked("3 oracle front coverage", ok,
                   f"{len(sweep['front_misses'])} uncovered front members")


def test_criterion_6_grid_occupancy_bound(sweep):
    ok = not sweep["bound_breaks"]
    assert checked("6 grid occupancy bound", ok,
                   f"{len(sweep['bound_breaks'])} runs over the cell bound")


# -- criterion 4: pruning soundness -------------------------------------------


def audit_pruned(result, u, measures, estimator, eps):
    """Force-valuate each pruned state; it must be eps-dominated by a state
    the run valuated."""
    space = StateSpace(u, protected=("t",))
    audit_log = TestLog()
    valuated = [e.perf for e in result.log]
    bad = []
    for p in {p.bitmap.bits for p in result.pruned}:
        got, _ = valuate(Bitmap(p, space.n_bits), estimator, audit_log, measures, space)
        if not any(naive_eps_dominates(v, got.perf, eps) for v in valuated):
            bad.append(p)
    return bad


def test_criterion_4_pruning_soundness():
    u, measures, estimator, names, vectors = build_pruning_fixture()
    cfg = SearchConfig(epsilon=0.3, target="t", theta=0.55, algorithm="bi")
    result = run_algorithm(u, measures, estimator, cfg)
    pruned_bits = {p.bitmap.bits for p in result.pruned}
    fixture_ok = pruned_bits == {names["s_4"], names["s_5"]}
    fixture_ok &= all(result.log.get(Bitmap(b, 5)) is None for b in pruned_bits)
    fixture_ok &= not audit_pruned(result, u, measures, estimator, 0.3)

    audited = unsound = 0
    for seed in range(20):
        mu, mms, mest = make_monotone_instance(seed)
        for eps in (0.2, 0.5):
            res = run_algorithm(mu, mms, mest, SearchConfig(epsilon=eps, target="t",
                                                            algorithm="bi"))
            bad = audit_pruned(res, mu, mms, mest, eps)
            audited += len({p.bitmap.bits for p in res.pruned})
            unsound += len(bad)
    ok = fixture_ok and unsound == 0 and audited > 0
    assert checked("4 pruning soundness", ok,
                   f"fixture pruned both sandwiched states, "
                   f"{audited} pruned states audited, {unsound} unsound")


# -- criterion 5: diversification bound ---------------------------------------


def diversification_fixture(rng, n):
    log = TestLog()
    states = []
    for bits in rng.sample(range(1, 2 ** 10), n):
        states.append(log.append(LogEntry(Bitmap(bits, 10),
                                          perf(*(rng.uniform(0.05, 1.0) for _ in range(3))),
                                          bits % 9 + 1)))
    return states, log


def test_criterion_5_diversification_bound():
    measures = three_measures()
    rng = random.Random(2024)
    worst = 1.0
    checks = 0
    for trial in range(30):
        n = rng.randint(6, 12)
        k = rng.choice((2, 3, 4))
        alpha = rng.choice((0.0, 0.5, 1.0))
        states, log = diversification_fixture(rng, n)
        chosen = diversify_level(states, k, alpha, log, measures)
        ratio = check_div_bound(chosen, states, k, alpha, log, measures)
        worst = min(worst, ratio)
        checks += 1

    states, log = diversification_fixture(rng, 6)
    metric_ok = True
    for a in states:
        metric_ok &= dis_score(a, a, 0.5, log, measures) == 0.0
        for b in states:
            metric_ok &= (dis_score(a, b, 0.5, log, measures)
                          == dis_score(b, a, 0.5, log, measures))

    ground, log8 = diversification_fixture(rng, 8)
    monotone_ok = True
    for size in range(len(ground)):
        for subset in itertools.combinations(ground, size):
            rest = [s for s in ground if s not in subset]
            bigger = list(subset) + rest[:1]
            if div_score(subset, 0.5, log8, measures) > \
               div_score(bigger, 0.5, log8, measures) + 1e-12:
                monotone_ok = False

    ok = worst >= 0.25 and metric_ok and monotone_ok
    assert checked("5 diversification bound", ok,
                   f"{checks} fixtures, worst ratio {worst:.3f}")


# -- criterion 7: efficiency smoke test ---------------------------------------


def build_wide_pool(n_rows=4000, n_feats=11, seed=99):
    rng = random.Random(seed)
    schema = ["y"] + [f"f{i}" for i in range(n_feats)]
    rows = []
    for _ in range(n_rows):
        feats = [round(rng.uniform(0, 10), 1) if rng.random() > 0.03 else None
                 for _ in range(n_feats)]
        base = sum(f for f in feats[:4] if f is not None)
        rows.append([round(base + rng.uniform(-2, 2), 1)] + feats)
    u = derive_all_literals(UniversalTable(relation=Relation("u", schema, rows)), 30)
    measures = MeasureSet([
        MeasureSpec("holdout_error", raw_low=0, raw_high=100, p_low=1e-6),
        MeasureSpec("train_cost", raw_low=0, raw_high=n_rows, p_low=0.001),
        MeasureSpec("model_size", raw_low=0, raw_high=n_feats, p_low=0.01),
    ])
    return u, measures


def test_criterion_7_efficiency_smoke():
    u, measures = build_wide_pool()
    assert len(u.schema) == 12
    assert len(u.relation.rows) == 4000

    started = time.perf_counter()
    res_apx = run_algorithm(u, measures, RidgeEstimator("y"),
                            SearchConfig(epsilon=0.2, budget=500, target="y"))
    t_apx = time.perf_counter() - started

    started = time.perf_counter()
    res_bi = run_algorithm(u, measures, RidgeEstimator("y"),
                           SearchConfig(epsilon=0.2, budget=500, target="y", algorithm="bi"))
    t_bi = time.perf_counter() - started

    ok = (t_apx < 60.0 and t_bi <= t_apx
          and res_apx.valuations <= 500 and res_bi.valuations <= 500)
    assert checked("7 efficiency smoke test", ok,
                   f"apx {t_apx:.1f}s, bi {t_bi:.1f}s on 12x4000 with ridge")


# -- criterion 8: determinism / replay ----------------------------------------


def test_criterion_8_replay_determinism(tmp_path):
    # External-corpus benchmark numbers need real data pools and trained
    # models, so they are out of reach at desk scale; in their place the suite
    # pins exact engine-level guarantees (criteria 1-7) plus this check that
    # identical configurations replay to byte-identical manifests.
    from test_cli import base_config, strip_volatile
    from skyforge.cli import RunConfig, execute_run

    cfg1 = RunConfig.from_file(str(base_config(tmp_path)))
    _, m1, _, _ = execute_run(cfg1)
    raw = dict(cfg1.raw)
    raw["output_dir"] = "out_replay"
    cfg2 = RunConfig(raw, base_dir=cfg1.base_dir)
    _, m2, _, _ = execute_run(cfg2)
    blob1 = json.dumps(strip_volatile(m1), sort_keys=True)
    blob2 = json.dumps(strip_volatile(m2), sort_keys=True)
    ok = blob1 == blob2 and m1["config_hash"] == m2["config_hash"]
    assert checked("8 determinism and replay", ok,
                   "reruns byte-identical apart from timing")
