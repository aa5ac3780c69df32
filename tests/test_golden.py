"""Pinned fingerprints of ``run_algorithm``'s results.

Each algorithm runs over the toy pool (several lookup tables and budgets),
the pruning worked example and a few monotone instances.  Everything a run
leaves behind is serialized in order: the test log (bitmaps, vectors, row
counts), grid cells, running-graph nodes, roots, the first-inbound parent of
every child the walk reached (in the order reached), pruned states, the
diversified set and the valuation count.  Any change to search order,
pruning or diversification changes the digest.  Only lookup estimators are
used, so the digests do not depend on floating-point BLAS.
"""

import hashlib
import json

import pytest

from skyforge import SearchConfig, run_algorithm

from conftest import build_pruning_fixture, make_monotone_instance
from test_search import toy_setup

GOLDEN = {
    "apx": "6c818f8b6a8b85734759d363e3961e8a74ee0de5b7ca8ff47b279ef4f55368ea",
    "bi": "f05675b75e3c9fa883cfcad93da12fe68f9b41cfdfa0e23a223adbebfafa4306",
    "nobi": "fe24afd9d53ce92fb128c593d26d4e10ab7f9989d1873319cbff99e77650dd3f",
    "div": "1b05038c1c3299044ce6302b8d796ba5cf1cda434a67264449af04eec7f8594b",
}


def fingerprint(res) -> dict:
    return {
        "algorithm": res.algorithm,
        "valuations": res.valuations,
        "partial": res.partial,
        "failure": res.failure,
        "log": [(e.bitmap.bits, list(e.perf), e.row_count) for e in res.log],
        "cells": sorted((list(p), o.bitmap.bits, list(o.perf))
                        for p, o in res.grid.cells.items()),
        "below_floor": sorted(res.grid.below_floor),
        "nodes": [(bits, s.level) for bits, s in res.graph.nodes.items()],
        "roots": [b.bits for b in res.graph.roots],
        "parents": [(bits, parent, "reduct" if parent & ~bits else "augment")
                    for bits, parent in res.graph.parents.items()],
        "pruned": [(p.bitmap.bits, p.forward.bits, p.backward.bits, p.level)
                   for p in res.pruned],
        "div_set": [s.bitmap.bits for s in res.div_set],
    }


def runs(algorithm):
    k = 2 if algorithm == "div" else 0
    for seed in range(6):
        for budget in (3, 10, 2**31):
            u, ms, est = toy_setup(seed)
            yield run_algorithm(u, ms, est, SearchConfig(
                epsilon=0.3, target="t", budget=budget, algorithm=algorithm, k=k))
    u, ms, est, _, _ = build_pruning_fixture()
    yield run_algorithm(u, ms, est, SearchConfig(
        epsilon=0.3, target="t", theta=0.55, algorithm=algorithm, k=k))
    for seed in range(8):
        u, ms, est = make_monotone_instance(seed)
        yield run_algorithm(u, ms, est, SearchConfig(
            epsilon=0.2, target="t", algorithm=algorithm, k=k))


@pytest.mark.parametrize("algorithm", sorted(GOLDEN))
def test_results_match_pinned_digest(algorithm):
    results = [fingerprint(res) for res in runs(algorithm)]
    if algorithm in ("bi", "div"):
        assert sum(len(r["pruned"]) for r in results) > 0
    blob = json.dumps(results, separators=(",", ":"))
    assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == GOLDEN[algorithm]
