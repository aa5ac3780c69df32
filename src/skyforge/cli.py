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
import sys
import time
from dataclasses import dataclass
from typing import Optional

import jsonschema

from .errors import ArgumentError, EnumerationCapError, SkyforgeError
from .estimators import LookupEstimator, RidgeEstimator, SubprocessEstimator
from .measures import MeasureSet, MeasureSpec, TestLog
from .operators import Bitmap, SearchState
from .oracle import check_div_bound, check_eps_cover, check_pruned, enumerate_all, state_count_bound
from .search import RunResult, SearchConfig, run_algorithm
from .tabular import UniversalTable, build_universal, compress_rows, derive_all_literals, ingest_csv, write_csv

EXIT_OK = 0
EXIT_VIOLATIONS = 1
EXIT_BAD_CONFIG = 2
EXIT_ESTIMATOR = 3
EXIT_EMPTY = 4
EXIT_CAP = 5

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["sources", "measures", "estimator", "search"],
    "additionalProperties": False,
    "properties": {
        "sources": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["path", "name"],
                "additionalProperties": False,
                "properties": {
                    "path": {"type": "string"},
                    "name": {"type": "string"},
                },
            },
        },
        "join_keys": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["left", "right", "on"],
                "additionalProperties": False,
                "properties": {
                    "left": {"type": "string"},
                    "right": {"type": "string"},
                    "on": {
                        "type": "array",
                        "minItems": 1,
                        "items": {
                            "type": "array",
                            "minItems": 2,
                            "maxItems": 2,
                            "items": {"type": "string"},
                        },
                    },
                },
            },
        },
        "target": {"type": "string"},
        "max_clusters": {"type": "integer", "minimum": 1},
        "decisive": {"type": "string"},
        "measures": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string"},
                    "direction": {"enum": ["minimize", "maximize"]},
                    "raw_low": {"type": "number"},
                    "raw_high": {"type": "number"},
                    "p_low": {"type": "number", "exclusiveMinimum": 0},
                    "p_high": {"type": "number", "maximum": 1},
                    "decisive": {"type": "boolean"},
                },
            },
        },
        "estimator": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "builtin": {"enum": ["lookup", "ridge"]},
                "path": {"type": "string"},
                "default": {"type": "object"},
                "target": {"type": "string"},
                "lam": {"type": "number"},
                "command": {"type": "array", "items": {"type": "string"}},
                "timeout": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "search": {
            "type": "object",
            "required": ["epsilon"],
            "additionalProperties": False,
            "properties": {
                "algorithm": {"enum": ["apx", "bi", "nobi", "div"]},
                "epsilon": {"type": "number", "exclusiveMinimum": 0},
                "budget": {"type": "integer", "minimum": 1},
                "max_len": {"type": ["integer", "null"], "minimum": 0},
                "k": {"type": "integer", "minimum": 1},
                "alpha": {"type": "number", "minimum": 0, "maximum": 1},
                "theta": {"type": "number", "minimum": 0},
            },
        },
        "output_dir": {"type": "string"},
        "verify_max_bits": {"type": "integer", "minimum": 1},
    },
}

# built once: jsonschema.validate re-checks the schema on every call
_CONFIG_VALIDATOR = jsonschema.validators.validator_for(CONFIG_SCHEMA)(CONFIG_SCHEMA)


class ConfigError(SkyforgeError):
    pass


@dataclass
class RunConfig:
    raw: dict
    base_dir: str = "."

    def __post_init__(self):
        error = jsonschema.exceptions.best_match(_CONFIG_VALIDATOR.iter_errors(self.raw))
        if error is not None:
            raise ConfigError(f"config invalid: {error.message} at {list(error.absolute_path)}")
        est = self.raw["estimator"]
        if "builtin" not in est and "command" not in est:
            raise ConfigError("estimator needs either a builtin name or a command")
        if "target" in est and "target" in self.raw and est["target"] != self.raw["target"]:
            raise ConfigError(f"target {self.raw['target']!r} and estimator target "
                              f"{est['target']!r} differ")
        if est.get("builtin") == "ridge" and not (est.get("target") or self.raw.get("target")):
            raise ConfigError("ridge estimator needs a target column")
        try:
            self.measure_set()
            self.search_config()
        except ArgumentError as exc:
            raise ConfigError(f"config invalid: {exc}") from None

    @classmethod
    def from_file(cls, path: str, args=None) -> "RunConfig":
        """Load a config; ``args``' search flags override the file's values
        before anything is validated."""
        try:
            with open(path, encoding="utf-8") as fh:
                raw = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}")
        if args is not None and isinstance(raw, dict) and isinstance(raw.get("search"), dict):
            raw = _with_flag_overrides(raw, args)
        return cls(raw, base_dir=os.path.dirname(os.path.abspath(path)))

    def semantic_hash(self) -> str:
        semantic = {k: v for k, v in self.raw.items() if k != "output_dir"}
        blob = json.dumps(semantic, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def _path(self, p: str) -> str:
        return p if os.path.isabs(p) else os.path.join(self.base_dir, p)

    def measure_set(self) -> MeasureSet:
        specs = [
            MeasureSpec(
                name=m["name"],
                direction=m.get("direction", "minimize"),
                raw_low=m.get("raw_low", 0.0),
                raw_high=m.get("raw_high", 1.0),
                p_low=m.get("p_low", 1e-6),
                p_high=m.get("p_high", 1.0),
                decisive=m.get("decisive", False),
            )
            for m in self.raw["measures"]
        ]
        return MeasureSet(specs, decisive_override=self.raw.get("decisive"))

    def search_config(self) -> SearchConfig:
        s = dict(self.raw["search"])
        return SearchConfig(
            epsilon=s["epsilon"],
            budget=s.get("budget", 2**31),
            max_len=s.get("max_len"),
            algorithm=s.get("algorithm", "apx"),
            k=s.get("k", 0),
            alpha=s.get("alpha", 0.5),
            theta=s.get("theta", 0.8),
            # the estimator's own target is protected too
            target=self.raw.get("target") or self.raw["estimator"].get("target"),
        )

    def build_universal(self) -> UniversalTable:
        sources = [ingest_csv(self._path(s["path"]), s["name"]) for s in self.raw["sources"]]
        join_keys = {}
        for jk in self.raw.get("join_keys", []):
            key = (jk["left"], jk["right"])
            join_keys.setdefault(key, []).extend(tuple(pair) for pair in jk["on"])
        u = build_universal(sources, join_keys)
        derive_all_literals(u, self.raw.get("max_clusters", 30))
        return compress_rows(u)

    def build_estimator(self):
        est = self.raw["estimator"]
        if est.get("builtin") == "ridge":
            return RidgeEstimator(est.get("target") or self.raw.get("target"),
                                  lam=est.get("lam", 1e-8))
        if est.get("builtin") == "lookup":
            table = {}
            if "path" in est:
                with open(self._path(est["path"]), encoding="utf-8") as fh:
                    loaded = json.load(fh)
                table = {int(hex_bits, 16): dict(vals) for hex_bits, vals in loaded.items()}
            return LookupEstimator(table, default=est.get("default"))
        return SubprocessEstimator(est["command"], timeout=est.get("timeout", 60.0))

    def output_dir(self) -> str:
        return self._path(self.raw.get("output_dir", "skyforge_out"))


def _with_flag_overrides(raw: dict, args) -> dict:
    search = dict(raw["search"])
    for flag, key in (
        ("epsilon", "epsilon"), ("max_length", "max_len"), ("budget", "budget"),
        ("k", "k"), ("alpha", "alpha"), ("theta", "theta"),
        ("algorithm", "algorithm"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            search[key] = value
    return {**raw, "search": search}


def _provenance(result: RunResult, bitmap: Bitmap) -> list:
    steps = []
    for edge in result.graph.path_to(bitmap):
        steps.append({
            "op": edge.kind,
            "attribute": edge.literal.attribute,
            "value": edge.literal.value,
            "from": edge.source.to_hex(),
            "to": edge.target.to_hex(),
        })
    return steps


def build_manifest(cfg: RunConfig, result: RunResult, out_dir: str,
                   wall_time: float) -> dict:
    measures = result.grid.measures
    space = result.space
    entries = []
    for occupant in result.grid.occupants():
        entry_log = result.log.get(occupant.bitmap)
        dataset = space.dataset(occupant.bitmap)
        csv_name = f"dataset_{occupant.bitmap.to_hex()}.csv"
        write_csv(os.path.join(out_dir, csv_name), dataset, expand=True)
        entries.append({
            "bitmap": occupant.bitmap.to_hex(),
            "csv": csv_name,
            "position": list(result.grid.position_unchecked(occupant.perf).coords),
            "rows": dataset.expanded_row_count,
            "columns": list(dataset.schema),
            "measures": {
                name: {
                    "raw": (entry_log.raw or {}).get(name) if entry_log else None,
                    "normalized": float(occupant.perf.values[i]),
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
    universal = cfg.build_universal()
    measures = cfg.measure_set()
    estimator = cfg.build_estimator()
    search_cfg = cfg.search_config()
    out_dir = cfg.output_dir()
    os.makedirs(out_dir, exist_ok=True)

    started = time.perf_counter()
    try:
        result = run_algorithm(universal, measures, estimator, search_cfg)
        wall = time.perf_counter() - started
    finally:
        estimator.close()

    space = result.space
    manifest = build_manifest(cfg, result, out_dir, wall)
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")

    if result.partial:
        return EXIT_ESTIMATOR, manifest, result, space
    if not manifest["grid"]:
        return EXIT_EMPTY, manifest, result, space
    return EXIT_OK, manifest, result, space


def execute_verify(cfg: RunConfig, max_bits: Optional[int] = None, _corrupt_grid=None):
    """Run the configured algorithm, then check it against full enumeration.

    ``_corrupt_grid`` is a test hook mutating the grid before the check.
    Returns ``(exit_code, report_dict)``.
    """
    universal = cfg.build_universal()
    measures = cfg.measure_set()
    estimator = cfg.build_estimator()
    search_cfg = cfg.search_config()
    cap = max_bits if max_bits is not None else cfg.raw.get("verify_max_bits", 20)

    try:
        result = run_algorithm(universal, measures, estimator, search_cfg)
        if result.partial:
            return EXIT_ESTIMATOR, {"error": result.failure or "estimator failure"}

        if _corrupt_grid is not None:
            _corrupt_grid(result.grid)

        oracle_log = TestLog()
        try:
            everything = enumerate_all(universal, estimator, measures,
                                       target=search_cfg.target, max_bits=cap,
                                       log=oracle_log)
        except EnumerationCapError as exc:
            return EXIT_CAP, {"error": str(exc), "required": exc.required}
    finally:
        estimator.close()

    report = check_eps_cover(result.grid, everything, search_cfg.epsilon)
    report.degenerate = state_count_bound(result.space) - len(everything)

    check_pruned(report, result.pruned, everything, result.log, oracle_log,
                 search_cfg.epsilon)

    payload = report.to_dict()
    if search_cfg.algorithm == "div" and result.div_set:
        ground = list({s.bitmap.bits: s for s in result.div_set}.values())
        occupant_states = [
            SearchState(o.bitmap, perf=o.perf) for o in result.grid.occupants()
        ]
        for s in occupant_states:
            if all(s.bitmap.bits != g.bitmap.bits for g in ground):
                ground.append(s)
        if len(ground) <= 14 and search_cfg.k <= len(ground):
            ratio = check_div_bound(result.div_set, ground, search_cfg.k,
                                    search_cfg.alpha, result.log, measures)
            payload["div_ratio"] = ratio
            if ratio < 0.25:
                payload["ok"] = False
                payload["eps_cover_violations"].append(
                    ["-", f"diversification ratio {ratio:.3f} below 0.25"]
                )
        else:
            payload["div_ratio"] = None

    return (EXIT_OK if payload["ok"] else EXIT_VIOLATIONS), payload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="skyforge",
                                     description="skyline dataset generation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--max-length", dest="max_length", type=int)
        p.add_argument("--budget", type=int)
        p.add_argument("--k", type=int)
        p.add_argument("--alpha", type=float)
        p.add_argument("--theta", type=float)
        p.add_argument("--algorithm", choices=["apx", "bi", "nobi", "div"])

    add_common(sub.add_parser("run", help="generate skyline datasets"))
    verify_p = sub.add_parser("verify", help="check a run against full enumeration")
    add_common(verify_p)
    verify_p.add_argument("--max-bits", dest="max_bits", type=int)

    args = parser.parse_args(argv)
    try:
        cfg = RunConfig.from_file(args.config, args)
    except ConfigError as exc:
        print(f"skyforge: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG

    try:
        if args.command == "run":
            code, manifest, _, _ = execute_run(cfg)
            print(json.dumps({
                "exit": code,
                "outputs": len(manifest["grid"]),
                "valuations": manifest["valuations"],
                "manifest": os.path.join(cfg.output_dir(), "manifest.json"),
            }, sort_keys=True))
            return code
        code, payload = execute_verify(cfg, max_bits=getattr(args, "max_bits", None))
        print(json.dumps(payload, indent=2, sort_keys=True))
        return code
    except ConfigError as exc:
        print(f"skyforge: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG
    except ArgumentError as exc:
        print(f"skyforge: {exc}", file=sys.stderr)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
