"""The benchmark's tracer patches skyforge functions by attribute name.

A refactor that renames or moves a traced function would otherwise break
only the benchmark; these checks make it fail the test suite too.
"""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")
sys.path.insert(0, PERFBENCH)
try:
    import tracing
finally:
    sys.path.remove(PERFBENCH)

from skyforge import cli
from skyforge.operators import BACKWARD, FORWARD, SearchState, StateSpace

from conftest import build_toy_universal

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
