"""Spans and counts recorded from outside the program.

``Tracer.install`` replaces the public functions and methods of each
skyforge module, under the name its caller looks up, with wrappers that
record a span (name, start, end, parent span, operation id) and update
counts at the same boundary.  ``uninstall`` puts the originals back, so
untraced rounds run the unmodified program.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from time import perf_counter

from skyforge import cli, estimators, search, tabular
from skyforge.estimators import LookupEstimator, RidgeEstimator, SubprocessEstimator
from skyforge.measures import TestLog
from skyforge.operators import StateSpace
from skyforge.skyline import SkylineGrid

LAYERS = ("cli", "tabular", "operators", "measures", "estimators", "skyline", "search", "oracle")


def _rows_of(key):
    def after(counts, args, kwargs, result):
        counts[key] += len(result.relation.rows)
    return after


def _literal_bits(counts, args, kwargs, result):
    counts["tabular.literal_bits"] += sum(len(result.literals(a)) for a in result.schema)


def _written_rows(counts, args, kwargs, result):
    relation = args[1]
    expand = kwargs.get("expand", args[2] if len(args) > 2 else True)
    counts["tabular.write_csv_rows"] += relation.expanded_row_count if expand else len(relation.rows)


def _children(counts, args, kwargs, result):
    counts["operators.children"] += len(result)


def _dataset_rows(counts, args, kwargs, result):
    counts["operators.dataset_rows"] += len(result.rows)


def _invoked(counts, args, kwargs, result):
    counts["measures.valuations"] += bool(result[1])


def _child_busy(counts, args, kwargs, result):
    counts["estimators.wait_s"] += result.get("fake_busy_s", 0.0)


def _submitted(counts, args, kwargs, result):
    counts[f"skyline.{result}"] += 1


def _search_result(counts, args, kwargs, result):
    counts["search.budget_used"] += result.valuations
    counts["skyline.occupants"] += result.grid.occupant_count()


def _pruned(counts, args, kwargs, result):
    counts["search.prunes"] += bool(result)


def _states(counts, args, kwargs, result):
    counts["oracle.states"] += len(result)


def _log_lookup(counts, args, kwargs, result):
    counts["measures.log_lookups"] += 1
    counts["measures.log_hits"] += result is not None


# (owner, attribute, span name, count hook); module functions are replaced in
# the module their caller reads them from
SPANNED = (
    (cli, "ingest_csv", "tabular.ingest_csv", None),
    (cli, "build_universal", "tabular.build_universal", _rows_of("tabular.universal_rows")),
    (cli, "derive_all_literals", "tabular.derive_all_literals", _literal_bits),
    (tabular, "kmeans_1d", "tabular.kmeans_1d", None),
    (cli, "compress_rows", "tabular.compress_rows", _rows_of("tabular.compressed_rows")),
    (cli, "write_csv", "tabular.write_csv", _written_rows),
    (estimators, "write_csv", "tabular.write_csv", _written_rows),
    (StateSpace, "__init__", "operators.StateSpace", None),
    (StateSpace, "op_gen", "operators.op_gen", _children),
    (StateSpace, "dataset", "operators.dataset", _dataset_rows),
    (search, "valuate", "measures.valuate", _invoked),
    (search, "build_correlation_graph", "measures.build_correlation_graph", None),
    (search, "estimate_bounds", "measures.estimate_bounds", None),
    (LookupEstimator, "estimate", "estimators.LookupEstimator.estimate", None),
    (RidgeEstimator, "estimate", "estimators.RidgeEstimator.estimate", None),
    (SubprocessEstimator, "estimate", "estimators.SubprocessEstimator.estimate", _child_busy),
    (SkylineGrid, "submit", "skyline.submit", _submitted),
    (cli, "run_algorithm", "search.run_algorithm", _search_result),
    (search, "can_prune", "search.can_prune", _pruned),
    (search, "diversify_level", "search.diversify_level", None),
    (cli, "enumerate_all", "oracle.enumerate_all", _states),
    (cli, "check_eps_cover", "oracle.check_eps_cover", None),
    (cli, "check_div_bound", "oracle.check_div_bound", None),
    (cli, "build_manifest", "cli.build_manifest", None),
)
# hot calls that get counts but no span
COUNTED = (
    (TestLog, "get", _log_lookup),
)

ESTIMATE_SPANS = tuple(name for _, _, name, _ in SPANNED if name.startswith("estimators."))


class Tracer:
    def __init__(self):
        self.spans: list = []   # (name, start, end, parent index, op id)
        self.counts: Counter = Counter()
        self.op = None
        self._stack: list = []
        self._saved: list = []

    def _spanned(self, fn, name, after):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if after is not None:
                after(counts, args, kwargs, result)
            return result
        return wrapper

    def _counted(self, fn, after):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(counts, args, kwargs, result)
            return result
        return wrapper

    def call(self, name: str, fn, *args):
        """Call ``fn(*args)`` inside a span recorded from benchmark code."""
        return self._spanned(fn, name, None)(*args)

    def install(self):
        for owner, attr, name, after in SPANNED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._spanned(original, name, after))
        for owner, attr, after in COUNTED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._counted(original, after))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write_spans(self, path: str, origin: float):
        """One JSON line per span, times in seconds from ``origin``."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": round(start - origin, 7),
                                     "end": round(end - origin, 7), "parent": parent,
                                     "op": op}) + "\n")


def summarize(spans: list, first: int, last: int) -> dict:
    """Total time, self time and call count per span name over spans
    ``first`` to ``last``; self time is a span's duration minus that of its
    direct children."""
    child_time = Counter()
    for name, start, end, parent, _ in spans[first:last]:
        if parent >= first:
            child_time[parent] += end - start
    total, own, calls = Counter(), Counter(), Counter()
    for i in range(first, last):
        name, start, end, _, _ = spans[i]
        total[name] += end - start
        own[name] += end - start - child_time[i]
        calls[name] += 1
    return {"total": total, "self": own, "calls": calls}


def layer_self(summary: dict) -> dict:
    out = {layer: 0.0 for layer in LAYERS}
    for name, seconds in summary["self"].items():
        out[name.split(".", 1)[0]] += seconds
    return out


def per_layer(summary: dict, counts: Counter) -> dict:
    """The per-layer metrics of one traced round, without the ones the
    benchmark takes from its own operation records."""
    total, own, calls = summary["total"], summary["self"], summary["calls"]
    estimate_s = sum(total[n] for n in ESTIMATE_SPANS)
    subprocess_self = own["estimators.SubprocessEstimator.estimate"]
    lookups = counts["measures.log_lookups"]
    prune_calls = calls["search.can_prune"]
    return {
        "tabular.ingest_s": total["tabular.ingest_csv"],
        "tabular.join_s": total["tabular.build_universal"],
        "tabular.literals_s": total["tabular.derive_all_literals"],
        "tabular.kmeans_calls": calls["tabular.kmeans_1d"],
        "tabular.compress_s": total["tabular.compress_rows"],
        "tabular.universal_rows": counts["tabular.universal_rows"],
        "tabular.compressed_rows": counts["tabular.compressed_rows"],
        "tabular.literal_bits": counts["tabular.literal_bits"],
        "tabular.write_csv_s": total["tabular.write_csv"],
        "tabular.write_csv_rows": counts["tabular.write_csv_rows"],
        "operators.op_gen_s": total["operators.op_gen"],
        "operators.op_gen_calls": calls["operators.op_gen"],
        "operators.children": counts["operators.children"],
        "operators.dataset_s": total["operators.dataset"],
        "operators.dataset_calls": calls["operators.dataset"],
        "operators.dataset_rows": counts["operators.dataset_rows"],
        "operators.space_build_s": total["operators.StateSpace"],
        "operators.space_builds": calls["operators.StateSpace"],
        "measures.valuations": counts["measures.valuations"],
        "measures.log_lookups": lookups,
        "measures.log_hits": counts["measures.log_hits"],
        "measures.log_hit_ratio": counts["measures.log_hits"] / lookups if lookups else 0.0,
        "measures.corr_graph_s": total["measures.build_correlation_graph"],
        "measures.corr_graph_builds": calls["measures.build_correlation_graph"],
        "measures.estimate_bounds_s": total["measures.estimate_bounds"],
        "measures.estimate_bounds_calls": calls["measures.estimate_bounds"],
        "estimators.estimate_s": estimate_s,
        "estimators.estimate_calls": sum(calls[n] for n in ESTIMATE_SPANS),
        "estimators.self_s": sum(own[n] for n in ESTIMATE_SPANS),
        "estimators.wait_s": counts["estimators.wait_s"],
        "estimators.ipc_s": max(subprocess_self - counts["estimators.wait_s"], 0.0),
        "skyline.submit_s": total["skyline.submit"],
        "skyline.submits": calls["skyline.submit"],
        "skyline.inserted": counts["skyline.inserted"],
        "skyline.replaced": counts["skyline.replaced"],
        "skyline.rejected": counts["skyline.rejected"],
        "skyline.occupants": counts["skyline.occupants"],
        "search.self_s": own["search.run_algorithm"],
        "search.can_prune_calls": prune_calls,
        "search.can_prune_s": total["search.can_prune"],
        "search.prunes": counts["search.prunes"],
        "search.prune_ratio": counts["search.prunes"] / prune_calls if prune_calls else 0.0,
        "search.diversify_calls": calls["search.diversify_level"],
        "search.diversify_s": total["search.diversify_level"],
        "search.budget_used": counts["search.budget_used"],
        "oracle.enumerate_s": total["oracle.enumerate_all"],
        "oracle.states": counts["oracle.states"],
        "oracle.check_eps_cover_s": total["oracle.check_eps_cover"],
        "oracle.check_div_bound_s": total["oracle.check_div_bound"],
        "cli.config_s": total["cli.config"],
        "cli.manifest_s": total["cli.build_manifest"],
    }
