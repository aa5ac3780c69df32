"""The benchmark's tracer patches skyforge functions by attribute name.

A refactor that renames or moves a traced function would otherwise break
only the benchmark; these checks make it fail the test suite too.
"""

import os
import sys
import textwrap
from dataclasses import replace

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import tracing
finally:
    sys.path.remove(PERFBENCH)

from skyforge import cli
from skyforge.estimators import LookupEstimator, SubprocessEstimator
from skyforge.operators import BACKWARD, FORWARD, SearchState, StateSpace
from skyforge.search import SearchConfig, run_algorithm
from skyforge.tabular import Relation

from conftest import build_toy_universal, three_measures

HOOKS = [(owner, attr) for owner, attr, _, _ in tracing.SPANNED] + \
        [(owner, attr) for owner, attr, _ in tracing.COUNTED]


def owner_name(owner) -> str:
    return getattr(owner, "__qualname__", getattr(owner, "__name__", repr(owner)))


@pytest.mark.parametrize("owner,attr", HOOKS,
                         ids=[f"{owner_name(o)}.{a}" for o, a in HOOKS])
def test_traced_name_is_defined_on_its_owner(owner, attr):
    assert callable(owner.__dict__[attr])


def test_probe_targets_exist():
    # perfbench/run.py's Probe wraps these two
    assert callable(cli.run_algorithm)
    assert callable(cli.RunConfig.__dict__["build_estimator"])


def test_op_gen_returns_a_list():
    # the tracer counts operators.children with len() of op_gen's result
    space = StateSpace(build_toy_universal(), protected=("t",))
    back = SearchState(space.bitmap_from_bits(space.attr_bits["t"]))
    assert isinstance(space.op_gen(space.root_state(), FORWARD), list)
    assert isinstance(space.op_gen(back, BACKWARD), list)


def test_install_then_uninstall_restores_every_original():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr in HOOKS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not fn for owner, attr, fn in originals)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is fn for owner, attr, fn in originals)


ECHO_CHILD = textwrap.dedent("""
    import json, sys
    for line in sys.stdin:
        print(json.dumps({"id": json.loads(line)["id"], "measures": {"m": 1.0}}), flush=True)
""")


def test_traced_csv_layers_see_every_dataset_and_row(tmp_path):
    # perfbench's temp-CSV and dataset layers time write_csv and dataset
    # calls and count the expanded rows written
    u = build_toy_universal()
    u = replace(u, relation=Relation("u", u.schema, u.relation.rows,
                                     weights=(1, 2, 1, 3, 1, 1)))
    child = tmp_path / "child.py"
    child.write_text(ECHO_CHILD)
    cfg = cli.RunConfig({
        "sources": [{"path": "pool.csv", "name": "pool"}],
        "measures": [{"name": "m"}],
        "estimator": {"builtin": "lookup"},
        "search": {"algorithm": "apx", "epsilon": 0.3},
        "output_dir": "out",
    })
    lookup = LookupEstimator({}, default={"rmse": 0.5, "r2_inv": 0.4, "train_cost": 0.3})
    tracer = tracing.Tracer()
    tracer.install()
    try:
        space = StateSpace(u)
        estimator = SubprocessEstimator([sys.executable, str(child)], timeout=10)
        try:
            assert estimator.estimate(space.root_state(), space) == {"m": 1.0}
        finally:
            estimator.close()
        result = run_algorithm(u, three_measures(p_low=0.05), lookup,
                               SearchConfig(epsilon=0.3, target="t", budget=3))
        manifest = cli.build_manifest(cfg, result, str(tmp_path), 0.0)
    finally:
        tracer.uninstall()
    calls = tracing.summarize(tracer.spans, 0, len(tracer.spans))["calls"]
    outputs = len(manifest["grid"])
    assert outputs >= 1
    assert calls["tabular.write_csv"] == calls["operators.dataset"] == 1 + outputs
    assert tracer.counts["tabular.write_csv_rows"] == \
        space.row_count(space.full_bitmap()) + sum(e["rows"] for e in manifest["grid"])
    assert tracer.counts["tabular.write_csv_rows"] > tracer.counts["operators.dataset_rows"]
