"""Input generation for the benchmark's four workloads.

Every input (CSV sources, lookup tables, configs) is made here from the
workload seed alone, with the standard library only, so the program under
test receives nothing but generated files.  Shapes that set the amount of
work (row counts, column counts, literal counts, budgets) are fixed per
workload; the seed chooses the cell values.  That keeps the work of one
round nearly the same from seed to seed while the data still varies.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import dataclass
from typing import Optional

WHY = {
    "wide-apx": "apx expands every level-1 state before the budget stops it, so child "
                "generation and ridge estimates dominate; tabular and cli do little",
    "continuous-join-bi": "outer join of two sources with unrounded floats: 1-D k-means "
                          "literal derivation dominates set-up, and bi calls op_gen twice",
    "verify-small": "many tiny verify runs with a lookup estimator: search control, "
                    "pruning on monotone fields, the skyline and the oracle dominate",
    "subprocess-nobi": "nobi with a command estimator whose child sleeps 10 ms a call: "
                       "measures the subprocess protocol, temp CSVs and pipe framing",
}

# Sizes of one round.  A round is one pass over the workload's operations;
# a run repeats rounds until its measuring time is used up.
WIDE_ROWS, WIDE_FEATURES, WIDE_CLUSTERS, WIDE_BUDGET = 1000, 11, 12, 160
JOIN_ROWS, JOIN_MATCHED, JOIN_FEATURES, JOIN_CLUSTERS, JOIN_BUDGET = 700, 550, 5, 30, 120
VERIFY_EPSILON, VERIFY_K = 0.2, 3
VERIFY_ALGORITHMS = ("apx", "bi", "nobi", "div")
# (literal count per feature, row count) of verify instance j; at most nine
# feature bits, so with the two target bits every instance has <= 11 bits.
# Each shape is drawn twice, so that a round's latency percentiles depend
# less on one seed's draws.
VERIFY_SHAPES = (((3, 3, 3), 24), ((2, 3, 2), 30), ((3, 2), 15), ((1, 3, 3, 2), 20)) * 2
SUBPROCESS_ROWS, SUBPROCESS_BUDGET = 2000, 50


@dataclass
class Op:
    """One operation: a ``run`` or a ``verify`` of one generated config."""

    kind: str
    config: str
    out_dir: str
    algorithm: str
    budget: Optional[int]  # the run's valuation budget; None for verify
    label: str


@dataclass
class Workload:
    name: str
    why: str
    ops: list
    inputs: dict  # sizes recorded with every result


def _write_csv(path: str, header: list, rows: list):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(["" if v is None else v for v in row])


def _write_json(path: str, obj):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, sort_keys=True)


def _ridge_measures(rows: int, features: int) -> list:
    return [
        {"name": "holdout_error", "raw_low": 0, "raw_high": 100, "p_low": 1e-6},
        {"name": "train_cost", "raw_low": 0, "raw_high": rows, "p_low": 0.001},
        {"name": "model_size", "raw_low": 0, "raw_high": features, "p_low": 0.01},
    ]


def _rounded_pool(rng: random.Random, rows: int, features: int) -> tuple:
    """The efficiency-smoke pool: target ``y`` plus features on a 0.1 grid,
    3% nulls, ``y`` driven by the first four features."""
    header = ["y"] + [f"f{i}" for i in range(features)]
    out = []
    for _ in range(rows):
        feats = [round(rng.uniform(0, 10), 1) if rng.random() > 0.03 else None
                 for _ in range(features)]
        base = sum(f for f in feats[:4] if f is not None)
        out.append([round(base + rng.uniform(-2, 2), 1)] + feats)
    return header, out


def _op_dir(base: str, label: str) -> str:
    path = os.path.join(base, label)
    os.makedirs(path, exist_ok=True)
    return path


def wide_apx(base: str, seed: int) -> Workload:
    rng = random.Random(seed)
    d = _op_dir(base, "wide")
    header, rows = _rounded_pool(rng, WIDE_ROWS, WIDE_FEATURES)
    _write_csv(os.path.join(d, "pool.csv"), header, rows)
    cfg = os.path.join(d, "config.json")
    _write_json(cfg, {
        "sources": [{"path": "pool.csv", "name": "pool"}],
        "target": "y",
        "max_clusters": WIDE_CLUSTERS,
        "measures": _ridge_measures(WIDE_ROWS, WIDE_FEATURES),
        "estimator": {"builtin": "ridge"},
        "search": {"algorithm": "apx", "epsilon": 0.2, "budget": WIDE_BUDGET},
        "output_dir": "out",
    })
    return Workload("wide-apx", WHY["wide-apx"],
                    [Op("run", cfg, os.path.join(d, "out"), "apx", WIDE_BUDGET, "wide-apx")],
                    {"sources": 1, "rows": WIDE_ROWS, "columns": WIDE_FEATURES + 1,
                     "max_clusters": WIDE_CLUSTERS, "budget": WIDE_BUDGET})


def _value_set(column: int, mu: float, sigma: float, n: int) -> list:
    """n normal draws that depend on the column alone, never on the seed."""
    fixed = random.Random(column)
    return [fixed.gauss(mu, sigma) for _ in range(n)]


def continuous_join_bi(base: str, seed: int) -> Workload:
    """Two sources sharing ``JOIN_MATCHED`` keys; each also has keys the
    other lacks, so the outer join pads rows on both sides."""
    rng = random.Random(seed)
    d = _op_dir(base, "join")
    universal_rows = 2 * JOIN_ROWS - JOIN_MATCHED
    keys = list(range(universal_rows))
    rng.shuffle(keys)
    left_keys = keys[:JOIN_ROWS]
    right_keys = keys[:JOIN_MATCHED] + keys[JOIN_ROWS:]
    rng.shuffle(right_keys)
    # Every column holds the same set of values on every seed, so 1-D k-means
    # does the same work; the seed chooses which row gets which value.
    a = [rng.sample(_value_set(j, 0.1 * j, 1.0 + 0.2 * j, JOIN_ROWS), JOIN_ROWS)
         for j in range(JOIN_FEATURES)]
    b = [rng.sample(_value_set(JOIN_FEATURES + j, 0.0, 3.0 + j, JOIN_ROWS), JOIN_ROWS)
         for j in range(JOIN_FEATURES)]
    # y is a noisy linear score mapped by rank onto its own fixed values
    score = [2.0 * a[0][i] + a[1][i] + rng.gauss(0.0, 0.5) for i in range(JOIN_ROWS)]
    y_values = sorted(_value_set(2 * JOIN_FEATURES, 0.0, 2.5, JOIN_ROWS))
    y = [0.0] * JOIN_ROWS
    for rank, i in enumerate(sorted(range(JOIN_ROWS), key=score.__getitem__)):
        y[i] = y_values[rank]
    left = [[k, repr(y[i])] + [repr(col[i]) for col in a] for i, k in enumerate(left_keys)]
    right = [[k] + [repr(col[i]) for col in b] for i, k in enumerate(right_keys)]
    _write_csv(os.path.join(d, "left.csv"),
               ["key", "y"] + [f"a{i}" for i in range(JOIN_FEATURES)], left)
    _write_csv(os.path.join(d, "right.csv"),
               ["key"] + [f"b{i}" for i in range(JOIN_FEATURES)], right)
    features = 2 * JOIN_FEATURES + 1  # the key column is numeric too
    cfg = os.path.join(d, "config.json")
    _write_json(cfg, {
        "sources": [{"path": "left.csv", "name": "left"},
                    {"path": "right.csv", "name": "right"}],
        "join_keys": [{"left": "left", "right": "right", "on": [["key", "key"]]}],
        "target": "y",
        "max_clusters": JOIN_CLUSTERS,
        "measures": _ridge_measures(universal_rows, features),
        "estimator": {"builtin": "ridge"},
        "search": {"algorithm": "bi", "epsilon": 0.2, "budget": JOIN_BUDGET},
        "output_dir": "out",
    })
    return Workload("continuous-join-bi", WHY["continuous-join-bi"],
                    [Op("run", cfg, os.path.join(d, "out"), "bi", JOIN_BUDGET,
                        "continuous-join-bi")],
                    {"sources": 2, "rows": universal_rows, "source_rows": [JOIN_ROWS, JOIN_ROWS],
                     "matched_keys": JOIN_MATCHED, "columns": features + 1,
                     "max_clusters": JOIN_CLUSTERS, "budget": JOIN_BUDGET})


def _verify_instance(rng: random.Random, lit_counts: tuple, n_rows: int) -> list:
    """Integer cells: target ``t`` in {0, 1}, feature ``f<i>`` in
    range(lit_counts[i]) with 15-20% nulls; every value occurs at least once,
    so each column has exactly that many literals with max_clusters 3."""
    cols = [[rng.randint(0, 1) for _ in range(n_rows)]]
    cols[0][:2] = [0, 1]
    for k in lit_counts:
        col = [None if rng.random() < 0.18 else rng.randrange(k) for _ in range(n_rows)]
        for v, r in zip(range(k), rng.sample(range(n_rows), k)):
            col[r] = v
        cols.append(col)
    return cols


def _row_counts(cols: list, lit_counts: tuple) -> list:
    """Surviving row count of every bitmap, computed here from the cells.

    Bits run over (attribute, value) in column order with values ascending;
    an attribute with no set bit is unconstrained, otherwise a row survives
    when its cell is null or one of the set values.
    """
    widths = (2,) + tuple(lit_counts)
    n_rows = len(cols[0])
    allowed = []  # per attribute: row mask of each value, and of nulls
    for col, width in zip(cols, widths):
        nulls = sum(1 << r for r, v in enumerate(col) if v is None)
        masks = [sum(1 << r for r, v in enumerate(col) if v == value) for value in range(width)]
        allowed.append((nulls, masks))
    n_bits = sum(widths)
    everyone = (1 << n_rows) - 1
    counts = []
    for bits in range(1 << n_bits):
        mask, offset = everyone, 0
        for width, (nulls, masks) in zip(widths, allowed):
            chosen = bits >> offset & ((1 << width) - 1)
            if chosen:
                keep = nulls
                for value in range(width):
                    if chosen >> value & 1:
                        keep |= masks[value]
                mask &= keep
            offset += width
        counts.append(mask.bit_count())
    return counts


def verify_small(base: str, seed: int) -> Workload:
    """One instance per shape in ``VERIFY_SHAPES``, each with a random and a
    monotone lookup field, each verified with every algorithm."""
    rng = random.Random(seed)
    ops = []
    bits_seen = []
    for j, (lit_counts, n_rows) in enumerate(VERIFY_SHAPES):
        cols = _verify_instance(rng, lit_counts, n_rows)
        n_bits = 2 + sum(lit_counts)
        bits_seen.append(n_bits)
        counts = _row_counts(cols, lit_counts)
        coef = [rng.uniform(0.3, 0.7) for _ in range(3)]
        base_value = [rng.uniform(0.75, 0.95) for _ in range(3)]
        fields = {
            "random": [[rng.uniform(0.05, 1.0) for _ in range(3)] for _ in counts],
            # decreasing in row count, so rank correlations hold and
            # bi's interval estimates can prune
            "monotone": [[max(base_value[m] - coef[m] * c / n_rows, 0.06) for m in range(3)]
                         for c in counts],
        }
        header = ["t"] + [f"f{i}" for i in range(len(lit_counts))]
        for name, values in fields.items():
            d = _op_dir(base, f"inst{j:02d}-{name}")
            _write_csv(os.path.join(d, "cells.csv"), header, list(zip(*cols)))
            _write_json(os.path.join(d, "lookup.json"), {
                format(bits, "x"): {f"m{m}": v[m] for m in range(3)}
                for bits, v in enumerate(values)
            })
            for algorithm in VERIFY_ALGORITHMS:
                cfg = os.path.join(d, f"{algorithm}.json")
                search = {"algorithm": algorithm, "epsilon": VERIFY_EPSILON}
                if algorithm == "div":
                    search["k"] = VERIFY_K
                _write_json(cfg, {
                    "sources": [{"path": "cells.csv", "name": "cells"}],
                    "target": "t",
                    "max_clusters": 3,
                    "measures": [{"name": f"m{m}", "p_low": 0.05} for m in range(3)],
                    "estimator": {"builtin": "lookup", "path": "lookup.json"},
                    "search": search,
                    "output_dir": f"out-{algorithm}",
                })
                ops.append(Op("verify", cfg, os.path.join(d, f"out-{algorithm}"), algorithm, None,
                              f"inst{j:02d}-{name}-{algorithm}"))
    return Workload("verify-small", WHY["verify-small"], ops,
                    {"instances": len(VERIFY_SHAPES), "fields": 2,
                     "algorithms": list(VERIFY_ALGORITHMS), "bits": bits_seen,
                     "rows": [rows for _, rows in VERIFY_SHAPES],
                     "epsilon": VERIFY_EPSILON, "k": VERIFY_K})


def subprocess_nobi(base: str, seed: int, command: list) -> Workload:
    rng = random.Random(seed)
    d = _op_dir(base, "subprocess")
    header, rows = _rounded_pool(rng, SUBPROCESS_ROWS, WIDE_FEATURES)
    _write_csv(os.path.join(d, "pool.csv"), header, rows)
    cfg = os.path.join(d, "config.json")
    _write_json(cfg, {
        "sources": [{"path": "pool.csv", "name": "pool"}],
        "target": "y",
        "measures": _ridge_measures(SUBPROCESS_ROWS, WIDE_FEATURES),
        "estimator": {"command": command, "timeout": 60},
        "search": {"algorithm": "nobi", "epsilon": 0.2, "budget": SUBPROCESS_BUDGET},
        "output_dir": "out",
    })
    return Workload("subprocess-nobi", WHY["subprocess-nobi"],
                    [Op("run", cfg, os.path.join(d, "out"), "nobi", SUBPROCESS_BUDGET,
                        "subprocess-nobi")],
                    {"sources": 1, "rows": SUBPROCESS_ROWS, "columns": WIDE_FEATURES + 1,
                     "max_clusters": 30, "budget": SUBPROCESS_BUDGET})
