"""Output checks and digests for one operation, independent of the search code.

The checks read what the program wrote (manifest, CSVs, report) and use
only the public state-space operators to replay provenance.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os

from skyforge.operators import Bitmap, SearchState
from skyforge.tabular import Literal


def digest(document: dict) -> str:
    """SHA-256 of a manifest or report with its volatile ``timing`` removed."""
    stable = {k: v for k, v in document.items() if k != "timing"}
    blob = json.dumps(stable, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _is_start(bitmap: Bitmap, space, target: str) -> bool:
    """A start state is the full bitmap, or a backward start: every target
    bit plus at most one other bit."""
    if bitmap == space.full_bitmap():
        return True
    target_bits = space.bitmap_from_bits(space.attr_bits[target])
    return bitmap.contains(target_bits) and bitmap.popcount() <= target_bits.popcount() + 1


def _replay(entry: dict, space, target: str) -> str:
    bitmap = Bitmap.from_hex(entry["bitmap"], space.n_bits)
    steps = entry["provenance"]
    start = Bitmap.from_hex(steps[0]["from"], space.n_bits) if steps else bitmap
    if not _is_start(start, space, target):
        return f"{entry['bitmap']}: provenance starts at {start.to_hex()}, not a start state"
    state = SearchState(start)
    for step in steps:
        if state.bitmap.to_hex() != step["from"]:
            return f"{entry['bitmap']}: step from {step['from']} does not follow the path"
        literal = Literal(step["attribute"], step["value"])
        if step["op"] == "reduct":
            state = space.apply_reduct(state, literal)
        elif step["op"] == "augment":
            state = space.apply_augment(state, literal)
        else:
            return f"{entry['bitmap']}: unknown operator {step['op']!r}"
        if state.bitmap.to_hex() != step["to"]:
            return f"{entry['bitmap']}: step lands on {state.bitmap.to_hex()}, not {step['to']}"
    if state.bitmap != bitmap:
        return f"{entry['bitmap']}: provenance ends at {state.bitmap.to_hex()}"
    return ""


def _data_lines(path: str) -> int:
    with open(path, newline="", encoding="utf-8") as fh:
        return sum(1 for _ in csv.reader(fh)) - 1


def check_run(code: int, manifest: dict, result, space, out_dir: str,
              budget: int, target: str) -> list:
    """Problems with one ``run``; an empty list means it passed."""
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        written = json.load(fh)
    if written != json.loads(json.dumps(manifest)):
        problems.append("manifest.json differs from the returned manifest")
    if written["valuations"] > budget:
        problems.append(f"{written['valuations']} valuations exceed the budget {budget}")
    grid = written["grid"]
    positions = [tuple(e["position"]) for e in grid]
    if len(set(positions)) != len(positions):
        problems.append("two grid entries share a position")
    if len(grid) > result.grid.max_cells():
        problems.append(f"{len(grid)} occupants exceed max_cells {result.grid.max_cells()}")
    for entry in grid:
        for name, m in entry["measures"].items():
            if not 0.0 < m["normalized"] <= 1.0:
                problems.append(f"{entry['bitmap']}: {name} normalized {m['normalized']} "
                                f"outside (0, 1]")
        try:
            bad = _replay(entry, space, target)
        except Exception as exc:  # an operator refusing a step is a failed check
            bad = f"{entry['bitmap']}: replay raised {exc!r}"
        if bad:
            problems.append(bad)
        lines = _data_lines(os.path.join(out_dir, entry["csv"]))
        if lines != entry["rows"]:
            problems.append(f"{entry['csv']}: {lines} data lines, manifest says {entry['rows']}")
    return problems


def output_files(out_dir: str) -> tuple:
    """Number and total bytes of the files an operation wrote."""
    if not os.path.isdir(out_dir):
        return 0, 0
    names = os.listdir(out_dir)
    return len(names), sum(os.path.getsize(os.path.join(out_dir, n)) for n in names)
