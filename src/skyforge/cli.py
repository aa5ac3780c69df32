"""Configuration loading, run orchestration, result manifests, and the
verify subcommand.

Exit codes: 0 success, 1 verification violations, 2 invalid configuration,
3 estimator failure (partial manifest written), 4 empty skyline,
5 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import string
import sys
import time
from dataclasses import dataclass

import jsonschema

from .errors import ArgumentError, EnumerationCapError, EstimatorFailure
from .estimators import LookupEstimator, RidgeEstimator, SubprocessEstimator
from .measures import MeasureSet, MeasureSpec, TestLog
from .operators import Bitmap
from .oracle import (MAX_BITS, _check_cap, check_div_bound, check_eps_cover, check_pruned,
                     enumerate_all, state_count_bound)
from .search import RunResult, SearchConfig, run_algorithm
from .tabular import UniversalTable, build_universal, compress_rows, derive_all_literals, ingest_csv, write_csv

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_BAD_CONFIG = 2
EXIT_ESTIMATOR = 3
EXIT_EMPTY = 4
EXIT_CAP = 5

# the document's shape only: keys, JSON types, join-key pairs and the builtin
# estimator names; each value's range is checked by the object that owns it
_STR, _NUM, _INT = {"type": "string"}, {"type": "number"}, {"type": "integer"}
CONFIG_SCHEMA = {
    "type": "object",
    "required": ["sources", "measures", "estimator", "search"],
    "additionalProperties": False,
    "properties": {
        "sources": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["path", "name"],
                "additionalProperties": False,
                "properties": {"path": _STR, "name": _STR},
            },
        },
        "join_keys": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["left", "right", "on"],
                "additionalProperties": False,
                "properties": {
                    "left": _STR,
                    "right": _STR,
                    "on": {
                        "type": "array",
                        "minItems": 1,
                        "items": {"type": "array", "minItems": 2, "maxItems": 2, "items": _STR},
                    },
                },
            },
        },
        "target": _STR,
        "max_clusters": _INT,
        "decisive": _STR,
        "measures": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name"],
                "additionalProperties": False,
                "properties": {"name": _STR, "direction": _STR, "raw_low": _NUM,
                               "raw_high": _NUM, "p_low": _NUM, "p_high": _NUM},
            },
        },
        "estimator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "builtin": {"enum": ["lookup", "ridge"]},
                "path": _STR, "default": {"type": "object"}, "lam": _NUM,
                "command": {"type": "array", "items": _STR}, "timeout": _NUM,
            },
        },
        "search": {
            "type": "object",
            "required": ["epsilon"],
            "additionalProperties": False,
            "properties": {
                "algorithm": _STR, "epsilon": _NUM, "budget": _INT,
                "max_len": {"type": ["integer", "null"]}, "k": _INT, "alpha": _NUM, "theta": _NUM,
            },
        },
        "output_dir": _STR,
    },
}

_HEX_DIGITS = frozenset(string.hexdigits)  # the only characters of a lookup key
# built once: jsonschema.validate re-checks the schema on every call
_CONFIG_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


@dataclass
class RunConfig:
    """A validated config; its ``measures`` (a ``MeasureSet``) and ``search``
    (a ``SearchConfig``, which holds the target) are built once, at load."""

    raw: dict
    base_dir: str = "."

    def __post_init__(self):
        error = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(self.raw))
        if error is not None:
            raise ArgumentError(f"config invalid: {error.message} at {list(error.absolute_path)}")
        est = self.raw["estimator"]
        if "builtin" not in est and "command" not in est:
            raise ArgumentError("estimator needs either a builtin name or a command")
        if est.get("builtin") == "ridge" and not self.raw.get("target"):
            raise ArgumentError("ridge estimator needs a target column")
        # the schema's measure and search keys are MeasureSpec's and
        # SearchConfig's field names, so the dataclasses hold every default
        try:
            self.measures = MeasureSet([MeasureSpec(**m) for m in self.raw["measures"]],
                                       decisive=self.raw.get("decisive"))
            self.search = SearchConfig(**self.raw["search"], target=self.raw.get("target"))
        except ArgumentError as exc:
            raise ArgumentError(f"config invalid: {exc}") from None

    @classmethod
    def from_file(cls, path: str, args=None) -> "RunConfig":
        """Load a config; ``args``' search flags override the file's values
        before anything is validated."""
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ArgumentError(f"cannot read config {path}: {exc}")
        if args is not None and isinstance(raw, dict) and isinstance(raw.get("search"), dict):
            raw = _with_flag_overrides(raw, args)
        return cls(raw, base_dir=os.path.dirname(os.path.abspath(path)))

    def semantic_hash(self) -> str:
        semantic = {k: v for k, v in self.raw.items() if k != "output_dir"}
        blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _path(self, p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(self.base_dir, p)

    def build_universal(self) -> UniversalTable:
        sources = [ingest_csv(self._path(s["path"]), s["name"]) for s in self.raw["sources"]]
        join_keys = {}
        for jk in self.raw.get("join_keys", []):
            key = (jk["left"], jk["right"])
            join_keys.setdefault(key, []).extend(tuple(pair) for pair in jk["on"])
        u = build_universal(sources, join_keys)
        return compress_rows(derive_all_literals(u, **_given(self.raw, "max_clusters")))

    def build_estimator(self):
        est = self.raw["estimator"]
        if est.get("builtin") == "ridge":
            return RidgeEstimator(self.search.target, **_given(est, "lam"))
        if est.get("builtin") == "lookup":
            table = {}
            if "path" in est:
                path = self._path(est["path"])
                try:
                    with open(path, encoding="utf-8") as fh:
                        loaded = json.load(fh)
                    # json.load builds each object afresh, so a row that is
                    # one is kept as it is; dict() reads (or refuses) any other
                    table = {int(hex_bits, 16): vals if type(vals) is dict else dict(vals)
                             for hex_bits, vals in loaded.items()}
                    # int(k, 16) also reads "0x1f", "+1f", " 1f", "1_f" and "-1"
                    if not _HEX_DIGITS.issuperset("".join(loaded)) or len(table) != len(loaded):
                        raise ValueError("keys must be distinct bitmaps in hex digits")
                except (OSError, ValueError, TypeError, AttributeError) as exc:
                    raise ArgumentError(f"cannot read lookup table {path}: {exc}") from None
            return LookupEstimator(table, default=est.get("default"))
        return SubprocessEstimator(est["command"], **_given(est, "timeout"))

    def output_dir(self) -> str:
        return self._path(self.raw.get("output_dir", "skyforge_out"))


def _given(raw: dict, *keys) -> dict:
    """The keyword arguments ``raw`` sets; the callee's signature holds the
    default of every key it leaves out."""
    return {key: raw[key] for key in keys if key in raw}


# (flag, search key, type) of every command-line search override
_SEARCH_FLAGS = (
    ("--epsilon", "epsilon", float), ("--max-length", "max_len", int),
    ("--budget", "budget", int), ("--k", "k", int), ("--alpha", "alpha", float),
    ("--theta", "theta", float), ("--algorithm", "algorithm", str),
)


def _with_flag_overrides(raw: dict, args) -> dict:
    search = dict(raw["search"])
    for _, key, _ in _SEARCH_FLAGS:
        value = getattr(args, key, None)
        if value is not None:
            search[key] = value
    return {**raw, "search": search}


def _provenance(result: RunResult, bitmap: Bitmap) -> list:
    """One manifest step per edge of the running graph's path from a root to
    the bitmap, named by the edge's one flipped bit."""
    space, steps, dst = result.space, [], bitmap.bits
    root_bits = {b.bits for b in result.roots}
    while dst not in root_bits:  # the walk records a parent for every child it reaches
        src = result.parents[dst]
        i = (src ^ dst).bit_length() - 1
        literal = space.bit_literals[i]
        steps.append({
            "op": "reduct" if src >> i & 1 else "augment",
            "attribute": literal.attribute,
            "value": literal.value,
            "from": Bitmap(src, space.n_bits).to_hex(),
            "to": Bitmap(dst, space.n_bits).to_hex(),
        })
        dst = src
    steps.reverse()
    return steps


# the longest file name, in bytes, that common file systems take (NAME_MAX)
MAX_NAME_BYTES = 255


def dataset_name(bitmap: Bitmap) -> str:
    """The output CSV's name: ``dataset_<hex bitmap>.csv``, or, when that
    is longer than a file name may be (above 972 bits), the SHA-256 of the
    hex bitmap in its place."""
    name = f"dataset_{bitmap.to_hex()}.csv"
    if len(name) <= MAX_NAME_BYTES:
        return name
    return f"dataset_sha256_{hashlib.sha256(bitmap.to_hex().encode()).hexdigest()}.csv"


def build_manifest(cfg: RunConfig, result: RunResult, out_dir: str,
                   wall_time: float) -> dict:
    measures = result.grid.measures
    space = result.space
    entries = []
    for occupant in result.grid.occupants():
        dataset = space.dataset(occupant.bitmap)
        csv_name = dataset_name(occupant.bitmap)
        write_csv(os.path.join(out_dir, csv_name), dataset)
        entries.append({
            "bitmap": occupant.bitmap.to_hex(),
            "csv": csv_name,
            "position": list(result.grid.position_unchecked(occupant.perf)),
            "rows": dataset.expanded_row_count,
            "columns": list(dataset.schema),
            "measures": {
                name: {
                    "raw": occupant.raw[name],
                    "normalized": float(occupant.perf[i]),
                }
                for i, name in enumerate(measures.names)
            },
            "provenance": _provenance(result, occupant.bitmap),
        })
    manifest = {
        "config_hash": cfg.semantic_hash(),
        "algorithm": result.algorithm,
        "epsilon": result.grid.epsilon,
        "valuations": result.valuations,
        "partial": result.partial,
        "grid": entries,
        "diversified": [s.bitmap.to_hex() for s in result.div_set],
        "pruned": [p.bitmap.to_hex() for p in result.pruned],
        "below_floor": sorted(
            Bitmap(bits, space.n_bits).to_hex() for bits in result.grid.below_floor
        ),
        "timing": {"wall_time_s": wall_time},
    }
    if result.failure:
        manifest["failure"] = result.failure
    return manifest


def execute_run(cfg: RunConfig):
    """Build everything and run the configured algorithm.

    Returns ``(exit_code, manifest, result, space)``.
    """
    # first, so a command estimator's first child starts up during the set-up
    estimator = cfg.build_estimator()
    try:
        universal = cfg.build_universal()
        out_dir = cfg.output_dir()
        try:
            os.makedirs(out_dir, exist_ok=True)
        except OSError as exc:
            raise ArgumentError(f"cannot create output directory {out_dir}: "
                                f"{exc.strerror or exc}") from None
    except BaseException:
        estimator.close()
        raise

    started = time.perf_counter()
    try:
        result = run_algorithm(universal, cfg.measures, estimator, cfg.search)
        wall = time.perf_counter() - started
    finally:
        estimator.close()

    space = result.space
    try:
        manifest = build_manifest(cfg, result, out_dir, wall)
        with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
    except OSError as exc:
        raise ArgumentError(f"cannot write output {exc.filename or out_dir}: "
                            f"{exc.strerror or exc}") from None

    if result.partial:
        return EXIT_ESTIMATOR, manifest, result, space
    if not manifest["grid"]:
        return EXIT_EMPTY, manifest, result, space
    return EXIT_OK, manifest, result, space


def execute_verify(cfg: RunConfig, max_bits: int = MAX_BITS):
    """Run the configured algorithm, then check it against full enumeration.

    An instance over the ``max_bits`` cap is refused before its search and
    its estimator.  Returns ``(exit_code, report_dict)``.
    """
    universal, measures, search_cfg = cfg.build_universal(), cfg.measures, cfg.search
    try:
        _check_cap(universal, search_cfg.target, max_bits)
    except EnumerationCapError as exc:
        return EXIT_CAP, {"error": str(exc), "required": exc.required}
    estimator = cfg.build_estimator()

    try:
        result = run_algorithm(universal, measures, estimator, search_cfg)
        if result.partial:
            return EXIT_ESTIMATOR, {"error": result.failure or "estimator failure"}
        oracle_log = TestLog()
        try:
            everything = enumerate_all(universal, estimator, measures, target=search_cfg.target,
                                       max_bits=max_bits, log=oracle_log)
        except EstimatorFailure as exc:
            return EXIT_ESTIMATOR, {"error": str(exc)}
    finally:
        estimator.close()

    report = check_eps_cover(result.grid, everything, search_cfg.epsilon)
    check_pruned(report, result.pruned, everything, result.log, oracle_log,
                 search_cfg.epsilon)
    report["degenerate"] = state_count_bound(result.space) - len(everything)
    if search_cfg.algorithm == "div" and result.div_set:
        ground = list({s.bitmap.bits: s for s in result.div_set}.values())
        for s in result.grid.occupants():
            if all(s.bitmap.bits != g.bitmap.bits for g in ground):
                ground.append(s)
        report["div_ratio"] = None
        if len(ground) <= 14 and search_cfg.k <= len(ground):
            ratio = check_div_bound(result.div_set, ground, search_cfg.k,
                                    search_cfg.alpha, result.log, measures)
            report["div_ratio"] = ratio
            if ratio < 0.25:
                report["eps_cover_violations"].append(
                    ("-", f"diversification ratio {ratio:.3f} below 0.25"))
    report["ok"] = not report["eps_cover_violations"]
    return (EXIT_OK if report["ok"] else EXIT_VIOLATIONS), report


def _positive_int(text: str) -> int:
    """``--max-bits``' type: an integer >= 1, so a bad cap exits 2 at parsing."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {text!r}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="skyforge",
                                     description="skyline dataset generation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True)
        for flag, key, kind in _SEARCH_FLAGS:
            p.add_argument(flag, dest=key, type=kind)

    add_common(sub.add_parser("run", help="generate skyline datasets"))
    verify_p = sub.add_parser("verify", help="check a run against full enumeration")
    add_common(verify_p)
    verify_p.add_argument("--max-bits", dest="max_bits", type=_positive_int, default=MAX_BITS)

    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config, args)
        if args.command == "run":
            code, manifest, _, _ = execute_run(cfg)
            print(json.dumps({
                "exit": code,
                "outputs": len(manifest["grid"]),
                "valuations": manifest["valuations"],
                "manifest": os.path.join(cfg.output_dir(), "manifest.json"),
            }, sort_keys=True))
            return code
        code, payload = execute_verify(cfg, max_bits=args.max_bits)
        print(json.dumps(payload, indent=2, sort_keys=True))
        return code
    except ArgumentError as exc:
        print(f"skyforge: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
