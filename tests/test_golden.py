"""Pinned fingerprints of ``run_algorithm``'s results.

Each algorithm runs over the toy pool (several lookup tables and budgets),
the pruning worked example and a few monotone instances.  Everything a run
leaves behind is serialized in order: the test log (bitmaps, vectors, row
counts), grid cells, roots, the first-inbound parent of every child the walk
reached (in the order reached), pruned states, the diversified set and the
valuation count.  Any change to search order,
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
    "apx": "a792fdac53d605e3c9abfa1a92e9c1ac319729208185e95f676680ac1b79e11e",
    "bi": "f16d3de6491b45ad32936b1ae3f84f46762f9909fedad7a745da11342244c11b",
    "nobi": "3f41b2b96907012087f59a6400149e9b0cddf947727dc85f9210f343996b12e4",
    "div": "d91ff02f3742312d2d8d58a1b155ede85f5284daec5c84be59b8c92103dbe686",
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
