"""Pinned fingerprints of ``run_algorithm``'s results.

Each algorithm runs over the toy pool (several lookup tables and budgets),
the pruning worked example and a few monotone instances.  Everything a run
leaves behind is serialized in order: the test log (bitmaps, vectors, row
counts), grid cells, running-graph nodes, roots and first-inbound parents,
pruned states, the diversified set and the valuation count.  Any change to
search order, pruning or diversification changes the digest.  Only lookup
estimators are used, so the digests do not depend on floating-point BLAS.
"""

import hashlib
import json

import pytest

from skyforge import SearchConfig, run_algorithm

from conftest import build_pruning_fixture, make_monotone_instance
from test_search import toy_setup

GOLDEN = {
    "apx": "77e308f5798f17e51b73331d3e0107f482af778bdf44ab78c14096fb2a98b94c",
    "bi": "67ecec22a9335832274987e3fb534c9d605cdabf9bfb90482ef1e025693ae4dd",
    "nobi": "d14140a256c03a444549ca42be569800766007cd2cba38dba510bb992f3fa153",
    "div": "345b504d03afef87cfea5ddc8546aa21870d4fade04c3fc6b9dd29d915a1ce7a",
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
