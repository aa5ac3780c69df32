import copy
import errno
import hashlib
import json
import math
import os
import sys
import time
import warnings

import jsonschema
import pytest

import skyforge.cli as cli
from skyforge import (ArgumentError, Bitmap, EstimatorFailure, MeasureSet, MeasureSpec,
                      SearchState, SubprocessEstimator)
from skyforge.operators import StateSpace
from skyforge.estimators import MAX_CHILDREN
from skyforge.oracle import state_count_bound
from skyforge.tabular import Literal
from skyforge.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CAP,
    EXIT_EMPTY,
    EXIT_ESTIMATOR,
    EXIT_OK,
    EXIT_VIOLATIONS,
    CONFIG_SCHEMA,
    RunConfig,
    execute_run,
    execute_verify,
    main,
)

from conftest import SerialEstimator, in_flight_at_writes, reaped, record_steps
from test_operators import reference_csv

POOL_CSV = "y,f1,f2\n" + "\n".join(
    f"{2.0 * i + (i % 3)},{float(i)},{float(i % 4)}" for i in range(12)
) + "\n"


# a command estimator answering every request with the same measures
CONSTANT_CHILD = (
    "import json, sys\n"
    "for line in sys.stdin:\n"
    "    req = json.loads(line)\n"
    "    print(json.dumps({'id': req['id'], 'measures': {'holdout_error': 50.0,"
    " 'train_cost': 5.0, 'model_size': 2.0}}), flush=True)\n"
)


def base_config(tmp_path, **overrides):
    (tmp_path / "pool.csv").write_text(POOL_CSV)
    cfg = {
        "sources": [{"path": "pool.csv", "name": "pool"}],
        "target": "y",
        "max_clusters": 2,
        "measures": [
            {"name": "holdout_error", "raw_low": 0, "raw_high": 200, "p_low": 1e-6},
            {"name": "train_cost", "raw_low": 0, "raw_high": 20, "p_low": 0.01},
            {"name": "model_size", "raw_low": 0, "raw_high": 10, "p_low": 0.01},
        ],
        "estimator": {"builtin": "ridge"},
        "search": {"algorithm": "apx", "epsilon": 0.3, "budget": 500},
        "output_dir": "out",
    }
    cfg.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


# every float key with NaN and both infinities (Python's json reads and
# writes them), then one finite value out of range for each key
FLOAT_KEYS = ("epsilon", "alpha", "theta", "raw_low", "raw_high", "p_low", "p_high", "lam",
              "timeout")
BAD_VALUES = [(key, value) for key in FLOAT_KEYS for value in (math.nan, math.inf, -math.inf)] + [
    ("epsilon", 0), ("alpha", 1.5), ("theta", -0.5), ("raw_low", 200), ("raw_high", -1),
    ("p_low", 0), ("p_high", 1.5), ("lam", -1), ("timeout", 0), ("budget", 0), ("k", -1),
    ("max_len", -1), ("max_clusters", 0), ("algorithm", "foo"), ("direction", "up"),
    ("sources", []), ("measures", []),
]


def config_with(tmp_path, key, value):
    """``base_config`` with one value replaced, wherever its key lives."""
    raw = json.loads(base_config(tmp_path).read_text())
    if key in ("raw_low", "raw_high", "p_low", "p_high", "direction"):
        raw["measures"][0][key] = value
    elif key == "lam":
        raw["estimator"]["lam"] = value
    elif key == "timeout":
        raw["estimator"] = {"command": [sys.executable, "-c", CONSTANT_CHILD], "timeout": value}
    elif key in ("max_clusters", "sources", "measures"):
        raw[key] = value
    else:
        raw["search"][key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


def load_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def strip_volatile(manifest):
    m = copy.deepcopy(manifest)
    m.pop("timing", None)
    return m


class RowShareEstimator:
    """Measures that fall with the state's row share, so bi prunes on the
    pool; call ``fail_at`` fails instead, and ``hints`` records the length
    of each call's hint."""

    requires_feature = False

    def __init__(self, lookahead, fail_at=None):
        self.lookahead, self.fail_at, self.hints = lookahead, fail_at, []

    def estimate(self, bitmap, space, upcoming=()):
        self.hints.append(len(upcoming))
        if len(self.hints) == self.fail_at:
            raise EstimatorFailure("boom", bitmap=bitmap)
        share = space.row_count(bitmap) / len(space.universal.relation.rows)
        return {"holdout_error": 200 * (0.9 - 0.6 * share),
                "train_cost": 20 * (0.9 - 0.5 * share), "model_size": 10 * (0.9 - 0.4 * share)}

    def close(self):
        """Nothing to release."""


class TestConfigValidation:
    def test_schema_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"sources": []}))
        with pytest.raises(ArgumentError):
            RunConfig.from_file(str(path))

    def test_config_schema_is_a_valid_schema(self):
        jsonschema.validators.validator_for(CONFIG_SCHEMA).check_schema(CONFIG_SCHEMA)

    @pytest.mark.parametrize("raw", [
        {},
        {"sources": []},
        {"sources": [{"path": "p.csv"}], "measures": [], "estimator": {}, "search": {}},
        {"sources": [{"path": "p.csv", "name": "p"}], "measures": [{"name": "m"}],
         "estimator": {"builtin": "ridge"}, "search": {"epsilon": 0, "workers": 2}},
    ])
    def test_schema_messages_match_jsonschema_validate(self, raw):
        with pytest.raises(jsonschema.ValidationError) as expected:
            jsonschema.validate(raw, CONFIG_SCHEMA)
        exc = expected.value
        with pytest.raises(ArgumentError) as info:
            RunConfig(raw)
        assert str(info.value) == f"config invalid: {exc.message} at {list(exc.absolute_path)}"

    def test_missing_source_csv_exits_2(self, tmp_path, capsys):
        path = base_config(tmp_path, sources=[{"path": "missing.csv", "name": "pool"}])
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG
        assert "missing.csv" in capsys.readouterr().err

    def test_two_decisive_measures_rejected(self, tmp_path):
        path = base_config(tmp_path)
        raw = json.loads(path.read_text())
        for m in raw["measures"][:2]:
            m["decisive"] = True
        path.write_text(json.dumps(raw))
        with pytest.raises(ArgumentError):
            RunConfig.from_file(str(path))

    def test_unknown_decisive_override_rejected(self, tmp_path):
        path = base_config(tmp_path, decisive="nope")
        with pytest.raises(ArgumentError):
            RunConfig.from_file(str(path))

    def test_empty_decisive_is_a_name_not_the_default(self, tmp_path, capsys):
        # "" names no declared measure, so it is refused, not read as absent
        path = base_config(tmp_path, decisive="")
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG
        assert "decisive measure '' not declared" in capsys.readouterr().err
        ms = MeasureSet([MeasureSpec(""), MeasureSpec("b")], decisive="")
        assert ms.decisive_index == 0

    def test_bom_csv_first_column_is_the_target(self, tmp_path):
        # Excel's "CSV UTF-8" starts with a byte order mark, which must not
        # become part of the first column's name
        path = base_config(tmp_path)
        (tmp_path / "pool.csv").write_text("\ufeff" + POOL_CSV, encoding="utf-8")
        assert main(["run", "--config", str(path)]) == EXIT_OK

    def test_main_exits_2_on_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("key", ["workers", "estimator.target", "measure.decisive",
                                     "verify_max_bits"])
    def test_retired_key_rejected(self, tmp_path, key):
        # each value has one setting: the top-level target and "decisive",
        # and verify's --max-bits
        raw = json.loads(base_config(tmp_path).read_text())
        if key == "workers":
            raw["search"]["workers"] = 2
        elif key == "estimator.target":
            raw["estimator"]["target"] = "y"
        elif key == "measure.decisive":
            raw["measures"][0]["decisive"] = True
        else:
            raw["verify_max_bits"] = 20
        path = tmp_path / "retired.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(ArgumentError):
            RunConfig.from_file(str(path))
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG
        assert main(["verify", "--config", str(path)]) == EXIT_BAD_CONFIG

    def test_readme_configuration_example_loads(self):
        with open(os.path.join(os.path.dirname(__file__), "..", "README.md"),
                  encoding="utf-8") as fh:
            section = fh.read().split("### Configuration", 1)[1]
        example = section.split("```json", 1)[1].split("```", 1)[0]
        cfg = RunConfig(json.loads(example))
        assert cfg.search.target == "ci_index"
        assert cfg.measures.decisive == "model_size"

    def test_config_objects_built_once(self, tmp_path, monkeypatch):
        cfg = RunConfig.from_file(str(base_config(tmp_path)))
        built, searched = [], []
        for name in ("MeasureSet", "SearchConfig"):
            monkeypatch.setattr(cli, name, lambda *a, **k: built.append(a) or None)
        run_algorithm = cli.run_algorithm

        def recording(universal, measures, estimator, search_cfg):
            searched.append((measures, search_cfg, estimator.target))
            return run_algorithm(universal, measures, estimator, search_cfg)

        monkeypatch.setattr(cli, "run_algorithm", recording)
        assert execute_run(cfg)[0] == EXIT_OK
        assert execute_verify(cfg)[0] == EXIT_OK
        assert built == []
        assert searched == [(cfg.measures, cfg.search, "y")] * 2
        assert all(m is cfg.measures and s is cfg.search for m, s, _ in searched)

    @pytest.mark.parametrize("key, flag", [("theta", "--theta"), ("max_len", "--max-length")])
    def test_negative_theta_or_max_len_exits_2_before_ingest(self, tmp_path, capsys, key, flag):
        # SearchConfig owns both ranges; the schema only checks the types
        path = base_config(tmp_path, sources=[{"path": "missing.csv", "name": "pool"}])
        for command in ("run", "verify"):
            assert main([command, "--config", str(path), flag, "-1"]) == EXIT_BAD_CONFIG
            err = capsys.readouterr().err
            assert f"{key} must be non-negative" in err and "missing.csv" not in err
        raw = json.loads(path.read_text())
        raw["search"][key] = -1
        path.write_text(json.dumps(raw))
        with pytest.raises(ArgumentError, match=f"config invalid: {key} must be non-negative"):
            RunConfig.from_file(str(path))

    @pytest.mark.parametrize("lam", [-1000, -1e-12])
    def test_negative_ridge_lam_exits_2(self, tmp_path, capsys, lam):
        path = base_config(tmp_path, estimator={"builtin": "ridge", "lam": lam})
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG
        assert "lam" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", BAD_VALUES, ids=str)
    def test_bad_value_exits_2_before_search(self, tmp_path, monkeypatch, capsys, key, value):
        # the schema checks only types; each value's owner checks its range
        monkeypatch.setattr(cli, "run_algorithm", lambda *args: pytest.fail("search ran"))
        path = config_with(tmp_path, key, value)
        for command in ("run", "verify"):
            assert main([command, "--config", str(path)]) == EXIT_BAD_CONFIG
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and err.startswith("skyforge: ")
            assert key.rstrip("s") in err  # "sources" -> "source", "measures" -> "measure"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["budget", "k", "max_len", "max_clusters"])
    def test_non_int_integer_key_exits_2(self, tmp_path, monkeypatch, capsys, key):
        # JSON's 2.0 passes the schema's "integer"; the key's owner refuses it
        monkeypatch.setattr(cli, "run_algorithm", lambda *args: pytest.fail("search ran"))
        raw = json.loads(base_config(tmp_path).read_text())
        raw["search"].update(algorithm="div", k=2)
        (raw if key == "max_clusters" else raw["search"])[key] = 2.0
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        for command in ("run", "verify"):
            assert main([command, "--config", str(path)]) == EXIT_BAD_CONFIG
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1
            assert err.startswith("skyforge: ") and f"{key} must be an integer" in err
        assert not (tmp_path / "out").exists()

    def test_timeout_beyond_the_wait_cap_exits_2(self, tmp_path, monkeypatch, capsys):
        # epoll refuses a wait above 2**31 - 1 ms, which would fail every valuation
        monkeypatch.setattr(cli, "run_algorithm", lambda *args: pytest.fail("search ran"))
        path = config_with(tmp_path, "timeout", 3e6)
        for command in ("run", "verify"):
            assert main([command, "--config", str(path)]) == EXIT_BAD_CONFIG
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and "timeout must be positive and at most" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_timeout_just_under_the_wait_cap_runs(self, tmp_path, command):
        path = config_with(tmp_path, "timeout", 2_147_483.0)
        assert main([command, "--config", str(path)]) == EXIT_OK

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_zero_k_on_apx_runs(self, tmp_path, command):
        path = config_with(tmp_path, "k", 0)
        assert main([command, "--config", str(path)]) == EXIT_OK

    def test_unknown_algorithm_flag_exits_2(self, tmp_path, capsys):
        path = base_config(tmp_path)
        assert main(["run", "--config", str(path), "--algorithm", "foo"]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == "skyforge: config invalid: unknown algorithm 'foo'\n"

    def test_duplicate_source_names_exit_2(self, tmp_path, capsys):
        (tmp_path / "extra.csv").write_text("y,g\n" + "\n".join(
            f"{2.0 * i + (i % 3)},{float(i % 2)}" for i in range(12)) + "\n")
        path = base_config(tmp_path, sources=[{"path": "pool.csv", "name": "pool"},
                                              {"path": "extra.csv", "name": "pool"}],
                           join_keys=[{"left": "pool", "right": "pool", "on": [["y", "y"]]}])
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG
        assert capsys.readouterr().err == "skyforge: duplicate source name 'pool'\n"

    def test_output_dir_that_is_a_file_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "run_algorithm", lambda *args: pytest.fail("search ran"))
        closed = []
        build_estimator = RunConfig.build_estimator

        def recording(cfg):
            estimator = build_estimator(cfg)
            monkeypatch.setattr(estimator, "close", lambda: closed.append(estimator))
            return estimator

        monkeypatch.setattr(RunConfig, "build_estimator", recording)
        path = base_config(tmp_path)
        (tmp_path / "out").write_text("a file, not a directory\n")
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("skyforge: cannot create output directory ")
        assert str(tmp_path / "out") in err and len(err.splitlines()) == 1
        assert len(closed) == 1

    def test_bad_measure_range_rejected_at_load(self, tmp_path):
        path = base_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["measures"][0]["raw_high"] = raw["measures"][0]["raw_low"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ArgumentError):
            RunConfig.from_file(str(path))

    def test_non_finite_csv_cell_exits_2(self, tmp_path, capsys):
        path = base_config(tmp_path)
        (tmp_path / "pool.csv").write_text(POOL_CSV.replace("\n3.0,", "\nnan,", 1))
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG
        assert "non-finite" in capsys.readouterr().err

    def test_int_cell_beyond_float_range_exits_2(self, tmp_path, capsys):
        path = base_config(tmp_path)
        rows = [f"{2 * i},{'9' * 400 if i == 5 else i},{i % 4}" for i in range(12)]
        (tmp_path / "pool.csv").write_text("y,f1,f2\n" + "\n".join(rows) + "\n")
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "float range" in err and "'f1'" in err and "row 6" in err

    @pytest.mark.parametrize("algorithm", ["bi", "apx"])  # bi: search, apx: ridge
    def test_missing_target_reported_before_ingest(self, tmp_path, capsys, algorithm):
        path = base_config(tmp_path, sources=[{"path": "missing.csv", "name": "pool"}],
                           search={"algorithm": algorithm, "epsilon": 0.3})
        raw = json.loads(path.read_text())
        del raw["target"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ArgumentError, match="target"):
            RunConfig.from_file(str(path))
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "target" in err and "missing.csv" not in err

    def test_flags_apply_before_search_validation(self, tmp_path):
        # the file alone is an invalid div search (no k); the flag completes it
        path = base_config(tmp_path, search={"algorithm": "div", "epsilon": 0.3, "budget": 40})
        with pytest.raises(ArgumentError):
            RunConfig.from_file(str(path))
        assert main(["run", "--config", str(path), "--k", "2"]) == EXIT_OK

    def test_semantic_hash_ignores_output_dir(self, tmp_path):
        c1 = RunConfig.from_file(str(base_config(tmp_path)))
        raw = dict(c1.raw)
        raw["output_dir"] = "elsewhere"
        c2 = RunConfig(raw, base_dir=c1.base_dir)
        assert c1.semantic_hash() == c2.semantic_hash()
        raw2 = copy.deepcopy(c1.raw)
        raw2["search"]["epsilon"] = 0.4
        assert RunConfig(raw2, base_dir=c1.base_dir).semantic_hash() != c1.semantic_hash()


class TestRunCommand:
    def test_run_writes_manifest_and_datasets(self, tmp_path):
        cfg = RunConfig.from_file(str(base_config(tmp_path)))
        code, manifest, result, space = execute_run(cfg)
        assert code == EXIT_OK
        assert space is result.space  # the search's own state space, not a rebuild
        assert manifest["grid"], "expected at least one output dataset"
        assert manifest["valuations"] == result.valuations
        out = cfg.output_dir()
        assert os.path.exists(os.path.join(out, "manifest.json"))
        for entry in manifest["grid"]:
            assert os.path.exists(os.path.join(out, entry["csv"]))
            for name, vals in entry["measures"].items():
                assert vals["raw"] is not None
                assert 0 < vals["normalized"] <= 1

    def test_wide_universal_writes_its_manifest(self, tmp_path, capsys):
        # 1,002 bits: dataset_<hex>.csv would be a 263-byte file name, over
        # the 255 a file system takes, so the hex's SHA-256 names the file
        rows = "".join(f"{i % 2},v{i}\n" for i in range(1000))
        (tmp_path / "wide.csv").write_text("t,f\n" + rows)
        path = base_config(tmp_path, sources=[{"path": "wide.csv", "name": "wide"}],
                           target="t", max_clusters=1000, measures=[{"name": "m"}],
                           estimator={"builtin": "lookup", "default": {"m": 0.5}},
                           search={"algorithm": "apx", "epsilon": 0.3, "budget": 3})
        assert main(["run", "--config", str(path)]) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        manifest = load_manifest(os.path.dirname(out["manifest"]))
        [entry] = manifest["grid"]
        digest = hashlib.sha256(entry["bitmap"].encode()).hexdigest()
        assert len(entry["bitmap"]) == 251 and entry["csv"] == f"dataset_sha256_{digest}.csv"
        assert os.path.exists(tmp_path / "out" / entry["csv"])

    def test_output_that_cannot_be_written_exits_2(self, tmp_path, monkeypatch, capsys):
        def full_disk(path, data):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), path)

        monkeypatch.setattr(cli, "write_csv", full_disk)
        assert main(["run", "--config", str(base_config(tmp_path))]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("skyforge: cannot write output ") and "dataset_" in err
        assert "No space left on device" in err and "Traceback" not in err

    def test_zero_lam_with_a_constant_feature_exits_0(self, tmp_path, capsys):
        # lam 0 and a constant f2 make the normal equations singular
        path = base_config(tmp_path, estimator={"builtin": "ridge", "lam": 0})
        (tmp_path / "pool.csv").write_text("y,f1,f2\n" + "\n".join(
            f"{2.0 * i + (i % 3)},{float(i)},1.0" for i in range(12)) + "\n")
        assert main(["run", "--config", str(path)]) == EXIT_OK
        manifest = load_manifest(os.path.dirname(json.loads(capsys.readouterr().out)["manifest"]))
        assert manifest["grid"] and manifest["valuations"] > 1
        for entry in manifest["grid"]:
            assert all(math.isfinite(vals["raw"]) for vals in entry["measures"].values())

    def test_ridge_overflow_exits_3_without_a_warning(self, tmp_path, capsys):
        # products of +-1e200 cells overflow the gram matrix: the fit gives
        # NaN, which normalize refuses, whatever the warnings filter is
        path = base_config(tmp_path)
        (tmp_path / "pool.csv").write_text("y,f1,f2\n" + "\n".join(
            f"{2.0 * i + (i % 3)},{(1e200 if i % 2 else -1e200) * (i + 1)},"
            f"{-1e200 if i % 3 else 1e200}" for i in range(12)) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(path)]) == EXIT_ESTIMATOR
        assert not caught
        manifest = load_manifest(os.path.dirname(json.loads(capsys.readouterr().out)["manifest"]))
        assert "non-finite raw value nan for holdout_error" in manifest["failure"]

    @pytest.mark.parametrize("algorithm", ["apx", "nobi"])
    def test_provenance_replays_to_each_output(self, tmp_path, algorithm):
        cfg = RunConfig.from_file(str(base_config(
            tmp_path, search={"algorithm": algorithm, "epsilon": 0.3, "budget": 500})))
        code, manifest, result, space = execute_run(cfg)
        assert code == EXIT_OK
        ops = []
        for entry in manifest["grid"]:
            steps = entry["provenance"]
            start = steps[0]["from"] if steps else entry["bitmap"]
            state = SearchState(Bitmap.from_hex(start, space.n_bits))
            for step in steps:
                assert step["from"] == state.bitmap.to_hex()
                lit = Literal(step["attribute"], step["value"])
                if step["op"] == "reduct":
                    state = space.apply_reduct(state, lit)
                else:
                    state = space.apply_augment(state, lit)
                assert step["to"] == state.bitmap.to_hex()
                ops.append(step["op"])
            assert state.bitmap.to_hex() == entry["bitmap"]
        if algorithm == "nobi":
            assert "augment" in ops  # paths from the backward root

    def test_rerun_is_byte_identical_modulo_timing(self, tmp_path):
        cfg1 = RunConfig.from_file(str(base_config(tmp_path)))
        _, m1, _, _ = execute_run(cfg1)
        raw = dict(cfg1.raw)
        raw["output_dir"] = "out2"
        cfg2 = RunConfig(raw, base_dir=cfg1.base_dir)
        _, m2, _, _ = execute_run(cfg2)
        assert json.dumps(strip_volatile(m1), sort_keys=True) == \
               json.dumps(strip_volatile(m2), sort_keys=True)

    def test_bi_and_nobi_agree_when_pruning_is_neutral(self, tmp_path):
        outputs = {}
        for algo in ("bi", "nobi"):
            raw = json.loads(base_config(tmp_path).read_text())
            raw["search"]["algorithm"] = algo
            raw["search"]["theta"] = 5.0  # no correlation can reach this
            raw["output_dir"] = f"out_{algo}"
            cfg = RunConfig(raw, base_dir=str(tmp_path))
            code, manifest, _, _ = execute_run(cfg)
            assert code == EXIT_OK
            m = strip_volatile(manifest)
            m.pop("algorithm")
            m.pop("config_hash")
            outputs[algo] = m
        assert outputs["bi"] == outputs["nobi"]

    def test_empty_skyline_exits_4(self, tmp_path):
        raw = json.loads(base_config(tmp_path).read_text())
        for m in raw["measures"]:
            m["p_low"] = 1e-6
            m["p_high"] = 1e-6  # nothing can satisfy this
        path = tmp_path / "strict.json"
        path.write_text(json.dumps(raw))
        cfg = RunConfig.from_file(str(path))
        code, manifest, _, _ = execute_run(cfg)
        assert code == EXIT_EMPTY
        assert manifest["grid"] == []

    def test_estimator_failure_exits_3_with_partial_manifest(self, tmp_path):
        raw = json.loads(base_config(tmp_path).read_text())
        raw["estimator"] = {"command": [sys.executable, "-c", "import sys; sys.exit(1)"],
                            "timeout": 2}
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(raw))
        cfg = RunConfig.from_file(str(path))
        code, manifest, _, _ = execute_run(cfg)
        assert code == EXIT_ESTIMATOR
        assert manifest["partial"] is True

    def test_string_measure_from_child_exits_3(self, tmp_path, capsys):
        child = CONSTANT_CHILD.replace("'holdout_error': 50.0", "'holdout_error': '1.5'")
        raw = json.loads(base_config(tmp_path).read_text())
        raw["estimator"] = {"command": [sys.executable, "-c", child], "timeout": 10}
        path = tmp_path / "string.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == EXIT_ESTIMATOR
        out = json.loads(capsys.readouterr().out)
        failure = load_manifest(os.path.dirname(out["manifest"]))["failure"]
        assert "non-numeric raw value '1.5' for holdout_error" in failure

    @pytest.mark.parametrize("estimator", ["lookup", "command"])
    def test_int_beyond_float_range_exits_3_naming_the_measure(self, tmp_path, capsys,
                                                               estimator):
        # a raw value of 1 followed by 400 zeros fails like a non-finite one,
        # without its digits in the message
        raw = json.loads(base_config(tmp_path).read_text())
        if estimator == "lookup":
            raw["estimator"] = {"builtin": "lookup", "default": {
                "holdout_error": 10 ** 400, "train_cost": 5.0, "model_size": 2.0}}
        else:
            child = CONSTANT_CHILD.replace("'holdout_error': 50.0", "'holdout_error': 10 ** 400")
            raw["estimator"] = {"command": [sys.executable, "-c", child], "timeout": 10}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == EXIT_ESTIMATOR
        out = json.loads(capsys.readouterr().out)
        failure = load_manifest(os.path.dirname(out["manifest"]))["failure"]
        assert "int raw value beyond float range for holdout_error" in failure
        assert "0" * 20 not in failure

    @pytest.mark.parametrize("child,timeout,cause", [
        # a reply line that is not JSON
        ("import sys\nfor line in sys.stdin:\n    print('not json', flush=True)\n",
         10, "estimator protocol error: Expecting value"),
        # a reply without the declared ``train_cost``
        (CONSTANT_CHILD.replace(" 'train_cost': 5.0,", ""),
         10, "estimator returned no value for measure 'train_cost'"),
        # reads the request, then sleeps past the timeout
        ("import sys, time\nsys.stdin.readline()\ntime.sleep(30)\n",
         0.5, "estimator timed out after 0.5s"),
    ], ids=["non-json", "missing-measure", "timeout"])
    def test_hostile_child_exits_3(self, tmp_path, capsys, child, timeout, cause):
        raw = json.loads(base_config(tmp_path).read_text())
        raw["estimator"] = {"command": [sys.executable, "-c", child], "timeout": timeout}
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == EXIT_ESTIMATOR
        out = json.loads(capsys.readouterr().out)
        manifest = load_manifest(os.path.dirname(out["manifest"]))
        assert manifest["partial"] is True and manifest["valuations"] == 0
        assert cause in manifest["failure"]

    def test_hostile_child_failure_names_the_state(self, tmp_path, capsys):
        raw = json.loads(base_config(tmp_path).read_text())
        raw["estimator"] = {"command": [sys.executable, "-c", "import sys\nsys.exit(1)"],
                            "timeout": 10}
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == EXIT_ESTIMATOR
        out = json.loads(capsys.readouterr().out)
        failure = load_manifest(os.path.dirname(out["manifest"]))["failure"]
        # the first valuation, of the full bitmap, is the one that failed
        space = StateSpace(RunConfig(raw, base_dir=str(tmp_path)).build_universal())
        assert f"(bitmap {space.full_bitmap().to_hex()})" in failure

    def test_extra_non_numeric_reply_key_is_ignored(self, tmp_path):
        child = CONSTANT_CHILD.replace("'model_size': 2.0}", "'model_size': 2.0, 'note': 'x'}")
        raw = json.loads(base_config(tmp_path).read_text())
        raw["estimator"] = {"command": [sys.executable, "-c", child], "timeout": 10}
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(raw))
        assert execute_run(RunConfig.from_file(str(path)))[0] == EXIT_OK

    @pytest.mark.parametrize("execute", [execute_run, execute_verify])
    def test_estimator_child_exits_with_the_operation(self, tmp_path, monkeypatch, spawned,
                                                      execute):
        monkeypatch.setenv("SKYFORGE_TMPDIR", str(tmp_path / "tmp"))
        raw = json.loads(base_config(tmp_path).read_text())
        raw["estimator"] = {"command": [sys.executable, "-c", CONSTANT_CHILD], "timeout": 10}
        path = tmp_path / "child.json"
        path.write_text(json.dumps(raw))
        assert execute(RunConfig.from_file(str(path)))[0] == EXIT_OK
        # the first child starts with the operation; three more serve the
        # requests sent ahead
        assert len(spawned) == MAX_CHILDREN
        assert reaped(spawned)

    def test_bad_source_after_the_first_child_starts_exits_2(self, tmp_path, monkeypatch,
                                                             spawned, capsys):
        # the estimator, and so its first child, is built before the sources
        # are read; a source that cannot be read still leaves no process
        monkeypatch.setenv("SKYFORGE_TMPDIR", str(tmp_path / "tmp"))
        raw = json.loads(base_config(tmp_path).read_text())
        raw["estimator"] = {"command": [sys.executable, "-c", CONSTANT_CHILD], "timeout": 10}
        raw["sources"] = [{"path": "missing.csv", "name": "pool"}]
        path = tmp_path / "child.json"
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG
        assert "missing.csv" in capsys.readouterr().err
        assert len(spawned) == 1 and reaped(spawned)

    @pytest.mark.parametrize("failing", range(1, 7))
    @pytest.mark.parametrize("fault, timeout", [("sys.exit(1)", 10), ("time.sleep(30)", 1)],
                             ids=["crash", "timeout"])
    def test_failure_with_the_next_request_in_flight(self, tmp_path, monkeypatch, spawned,
                                                     fault, timeout, failing):
        # request ``failing`` fails while other children hold the requests
        # after it: the run ends as the serial one does, and no reply past
        # the failing one is waited for
        tmp = tmp_path / "tmp"
        monkeypatch.setenv("SKYFORGE_TMPDIR", str(tmp))
        child = CONSTANT_CHILD.replace("import json, sys\n", "import json, sys, time\n").replace(
            "    req = json.loads(line)\n",
            f"    req = json.loads(line)\n    if req['id'] == {failing}:\n        {fault}\n")
        raw = json.loads(base_config(tmp_path).read_text())
        raw["estimator"] = {"command": [sys.executable, "-c", child], "timeout": timeout}
        raw["search"] = {"algorithm": "nobi", "epsilon": 0.3}
        path = tmp_path / "child.json"
        path.write_text(json.dumps(raw))
        receive, waits = SubprocessEstimator._receive, []
        monkeypatch.setattr(SubprocessEstimator, "_receive",
                            lambda self, *args: waits.append(self) or receive(self, *args))
        results = []
        for cls in (SubprocessEstimator, SerialEstimator):
            built = []
            monkeypatch.setattr(cli, "SubprocessEstimator",
                                lambda *args, cls=cls, **kw: built.append(cls(*args, **kw))
                                or built[-1])
            spawned.clear()
            waits.clear()
            started = time.monotonic()
            code, manifest, _, _ = execute_run(RunConfig.from_file(str(path)))
            assert time.monotonic() - started < 10
            assert code == EXIT_ESTIMATOR and manifest["valuations"] == failing - 1
            assert len(waits) == failing  # replies 1 to ``failing``, each once
            assert reaped(spawned) and list(tmp.glob("skyforge_*.csv")) == []
            results.append((strip_volatile(manifest), built[0].calls, len(spawned)))
        (pooled, calls, children), (serial, serial_calls, serial_children) = results
        assert pooled == serial
        assert (serial_calls, serial_children) == (failing, 1)
        # the forward root's call already sends the backward root and two
        # children ahead, so each call tops the requests in flight up to
        # three past its own
        assert (calls, children) == (failing + MAX_CHILDREN - 1, MAX_CHILDREN)

    @pytest.mark.parametrize("algorithm", ["bi", "div"])
    def test_partial_run_with_lookahead_matches_the_serial_one(self, tmp_path, monkeypatch,
                                                               algorithm):
        """When call ``i`` of an estimator told three upcoming states fails,
        a bi or div run keeps the serial run's log and manifest, whichever
        barrier, prune check or level the call falls next to.  Only
        ``result.parents`` may differ: it may also name states the stream had
        already yielded past the failing call, and no manifest reads those."""
        raw = json.loads(base_config(tmp_path).read_text())
        raw["max_clusters"] = 3
        raw["search"] = {"algorithm": algorithm, "epsilon": 0.3,
                         "k": 2 if algorithm == "div" else 0}
        path = tmp_path / "row-share.json"
        path.write_text(json.dumps(raw))
        cfg = RunConfig.from_file(str(path))
        built = []

        def run(lookahead, fail_at=None):
            monkeypatch.setattr(RunConfig, "build_estimator", lambda self: built.append(
                RowShareEstimator(lookahead, fail_at)) or built[-1])
            code, manifest, result, _ = execute_run(cfg)
            return code, strip_volatile(manifest), [(e.bitmap, e.perf) for e in result.log]

        code, manifest, log = run(0)
        assert code == EXIT_OK and manifest["pruned"]
        for fail_at in range(1, len(log) + 1):
            serial = run(0, fail_at)
            assert serial[0] == EXIT_ESTIMATOR and serial[2] == log[:fail_at - 1]
            assert run(3, fail_at) == serial
            assert built[-1].hints[0] == 3  # the forward root's call sends three ahead

    @pytest.mark.parametrize("case", ["finished", "budget-stop", "malformed", "timeout"])
    def test_no_temp_csv_left_behind(self, tmp_path, monkeypatch, case):
        # the engine writes the next state's CSV while the child works on
        # the current one; every ending of a run removes both
        tmp = tmp_path / "tmp"
        monkeypatch.setenv("SKYFORGE_TMPDIR", str(tmp))
        fourth = {"malformed": "print('not json', flush=True)", "timeout": "time.sleep(30)"}
        child = CONSTANT_CHILD
        if case in fourth:  # the fourth request gets a bad reply or none
            child = child.replace("import json, sys\n", "import json, sys, time\n").replace(
                "    req = json.loads(line)\n",
                f"    req = json.loads(line)\n    if req['id'] == 4:\n"
                f"        {fourth[case]}\n        continue\n")
        raw = json.loads(base_config(tmp_path).read_text())
        raw["estimator"] = {"command": [sys.executable, "-c", child], "timeout": 1}
        raw["search"] = {"algorithm": "nobi", "epsilon": 0.3,
                         "budget": 6 if case == "budget-stop" else 500}
        path = tmp_path / "child.json"
        path.write_text(json.dumps(raw))
        code, manifest, _, _ = execute_run(RunConfig.from_file(str(path)))
        if case == "finished":
            assert code == EXIT_OK and manifest["valuations"] > 6
        elif case == "budget-stop":
            assert code == EXIT_OK and manifest["valuations"] == 6
        else:
            assert code == EXIT_ESTIMATOR and manifest["valuations"] == 3
        assert list(tmp.glob("skyforge_*.csv")) == []

    def test_cli_flags_override_config(self, tmp_path):
        path = base_config(tmp_path)
        code = main(["run", "--config", str(path), "--epsilon", "0.5",
                     "--algorithm", "nobi", "--budget", "50"])
        assert code == EXIT_OK
        manifest = load_manifest(str(tmp_path / "out"))
        assert manifest["algorithm"] == "nobi"
        assert manifest["epsilon"] == 0.5
        assert manifest["valuations"] <= 50

    def test_schema_conflict_exits_2(self, tmp_path, capsys):
        (tmp_path / "left.csv").write_text("id,a\n1,2\n")
        (tmp_path / "right.csv").write_text("id,a\n1,3\n")
        path = base_config(tmp_path, target="id",
                           sources=[{"path": "left.csv", "name": "left"},
                                    {"path": "right.csv", "name": "right"}],
                           join_keys=[{"left": "left", "right": "right", "on": [["id", "id"]]}])
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "['a']" in err and "without a join key" in err and "Traceback" not in err

    # int(key, 16) reads each of the keys 0x1f, +1f, " 1f" and 1_f as 1f, and
    # -1 as a bitmap that no state has; 1f with 01f or 1F is one bitmap twice
    @pytest.mark.parametrize("content", [
        None, '{"zz": {"m": 0.4}}', '{"1": ',
        *(f'{{"{key}": {{"m": 0.4}}}}' for key in ("0x1f", "+1f", " 1f", "1_f", "-1")),
        '{"1f": {"m": 0.4}, "01f": {"m": 0.2}}', '{"1f": {"m": 0.4}, "1F": {"m": 0.2}}',
        # json.loads reads UTF-16 and UTF-32 bytes too, but a table is UTF-8
        '{"1": {"m": 0.4}}'.encode("utf-16"), '{"1": {"m": 0.4}, "\u00e9": {}}'.encode("latin-1"),
        '{"1": 0.4}',
    ], ids=["missing", "non-hex-key", "invalid-json", "0x-prefix", "plus-sign", "space",
            "underscore", "minus-sign", "leading-zero-twin", "upper-case-twin", "utf-16",
            "latin-1", "number-row"])
    def test_bad_lookup_table_exits_2(self, tmp_path, capsys, content):
        (tmp_path / "small.csv").write_text("c\na\nb\n")
        if isinstance(content, bytes):
            (tmp_path / "table.json").write_bytes(content)
        elif content is not None:
            (tmp_path / "table.json").write_text(content)
        path = base_config(tmp_path, sources=[{"path": "small.csv", "name": "small"}],
                           target="c", measures=[{"name": "m", "p_low": 0.01}],
                           estimator={"builtin": "lookup", "path": "table.json"})
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "cannot read lookup table" in err and "table.json" in err
        assert "Traceback" not in err

    def test_boolean_lookup_value_exits_3(self, tmp_path, capsys):
        (tmp_path / "small.csv").write_text("c\na\na\nb\n")
        (tmp_path / "table.json").write_text(json.dumps({"3": {"m": True}}))
        path = base_config(tmp_path, sources=[{"path": "small.csv", "name": "small"}],
                           target="c", measures=[{"name": "m", "p_low": 0.01}],
                           estimator={"builtin": "lookup", "path": "table.json"})
        assert main(["run", "--config", str(path)]) == EXIT_ESTIMATOR
        out = json.loads(capsys.readouterr().out)
        assert "non-numeric raw value True for m" in load_manifest(
            os.path.dirname(out["manifest"]))["failure"]

    def test_lookup_estimator_from_file(self, tmp_path):
        (tmp_path / "small.csv").write_text("c\na\na\nb\n")
        # bit 0 = c:a, bit 1 = c:b after literal derivation
        table = {
            format(0b01, "x"): {"m": 0.4},
            format(0b10, "x"): {"m": 0.2},
            format(0b11, "x"): {"m": 0.3},
        }
        (tmp_path / "table.json").write_text(json.dumps(table))
        cfg_raw = {
            "sources": [{"path": "small.csv", "name": "small"}],
            "max_clusters": 2,
            "measures": [{"name": "m", "p_low": 0.01}],
            "estimator": {"builtin": "lookup", "path": "table.json"},
            "search": {"algorithm": "apx", "epsilon": 0.2},
            "output_dir": "out_lookup",
        }
        path = tmp_path / "lookup.json"
        path.write_text(json.dumps(cfg_raw))
        code, manifest, _, _ = execute_run(RunConfig.from_file(str(path)))
        assert code == EXIT_OK
        # single-measure grid keeps the scalar minimum
        assert len(manifest["grid"]) == 1
        assert manifest["grid"][0]["measures"]["m"]["normalized"] == pytest.approx(0.2)


class TestOutputBytes:
    """A run's dataset files, byte for byte, end to end: a lookup estimator
    (no BLAS) over a pool of quoted strings, a newline in a cell, nulls,
    ints, floats and -0.0, with a repeated row and an output that drops a
    column."""

    POOL = ('name,qty,price,note\r\n'
            '"Paris, FR",3,1.5,"say ""hi"", twice"\r\n'
            '"Oslo\nN",,2.25,\r\n'
            '"Paris, FR",7,,"say ""hi"", twice"\r\n'
            'The "Hub",3,-0.0,\r\n'
            '"Oslo\nN",12,1.5,"say ""hi"", twice"\r\n'
            'The "Hub",7,10.125,\r\n'
            'Lima,3,-0.0,"say ""hi"", twice"\r\n'
            '"Paris, FR",3,1.5,"say ""hi"", twice"\r\n')
    # ten bits: name, qty and price three each, note one (bit 9); 3ff keeps
    # every value, 1ff drops note, 3fe drops the first name cluster
    TABLE = {"3ff": {"m": 0.2, "n": 0.8}, "1ff": {"m": 0.8, "n": 0.2}, "3fe": {"m": 0.5, "n": 0.5}}
    # SHA-256 of the dataset files in file-name order
    DIGEST = "4d0511b1387a491817e334f3da7efb2a61b5d9ef99612a9aa5a79748f07f52ac"

    def test_files_match_csv_writer_and_digest(self, tmp_path):
        (tmp_path / "pool.csv").write_bytes(self.POOL.encode())
        (tmp_path / "table.json").write_text(json.dumps(self.TABLE))
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "sources": [{"path": "pool.csv", "name": "pool"}],
            "max_clusters": 3,
            "measures": [{"name": "m", "p_low": 0.01}, {"name": "n", "p_low": 0.01}],
            "estimator": {"builtin": "lookup", "path": "table.json",
                          "default": {"m": 0.9, "n": 0.9}},
            "search": {"algorithm": "apx", "epsilon": 0.1},
            "output_dir": "out",
        }))
        code, manifest, _, space = execute_run(RunConfig.from_file(str(path)))
        assert code == EXIT_OK
        entries = sorted(manifest["grid"], key=lambda e: e["csv"])
        assert [e["bitmap"] for e in entries] == ["1ff", "2ff", "3fe", "3ff"]
        assert entries[0]["columns"] == ["name", "qty", "price"]
        digest = hashlib.sha256()
        for entry in entries:
            ours = (tmp_path / "out" / entry["csv"]).read_bytes()
            dataset = space.dataset(Bitmap.from_hex(entry["bitmap"], space.n_bits))
            reference_csv(str(tmp_path / "reference.csv"), dataset)
            assert ours == (tmp_path / "reference.csv").read_bytes(), entry["csv"]
            digest.update(ours)
        assert b'"The ""Hub""",3,-0.0' in ours and b'"Oslo\nN",,1.5' in ours
        assert digest.hexdigest() == self.DIGEST


class TestLookupTable:
    """Estimators built from one lookup file share no state that either
    could change, and a row may be any value ``dict`` reads."""

    # all 128 bitmaps of small.csv's seven literals (c:a, c:b, d:x, d:y, d:z, e:p, e:q)
    TABLE = {format(bits, "x"): {"m": 0.05 + bits * 7 % 11 / 11, "n": 0.05 + bits * 5 % 13 / 13}
             for bits in range(128)}

    def config(self, tmp_path):
        (tmp_path / "small.csv").write_text("c,d,e\na,x,p\na,y,q\nb,x,q\nb,z,p\n")
        (tmp_path / "table.json").write_text(json.dumps(self.TABLE))
        path = tmp_path / "apx.json"
        path.write_text(json.dumps({
            "sources": [{"path": "small.csv", "name": "small"}],
            "target": "c",
            "measures": [{"name": "m", "p_low": 0.01}, {"name": "n", "p_low": 0.01}],
            "estimator": {"builtin": "lookup", "path": "table.json"},
            "search": {"algorithm": "apx", "epsilon": 0.2},
        }))
        return str(path)

    def test_estimators_from_one_table_share_no_state(self, tmp_path):
        cfg = RunConfig.from_file(self.config(tmp_path))
        first = cfg.build_estimator()
        first.table[0] = {"m": 9.0, "n": 9.0}
        del first.table[1]
        first.table[2]["m"] = 9.0
        first.estimate(Bitmap(3, 7), None)["m"] = 9.0
        assert first.estimate(Bitmap(3, 7), None) == self.TABLE["3"]
        second = cfg.build_estimator()
        assert {format(bits, "x"): second.estimate(Bitmap(bits, 7), None)
                for bits in range(128)} == self.TABLE

    def test_row_written_as_pairs_reads_as_its_object(self, tmp_path):
        path = self.config(tmp_path)
        (tmp_path / "table.json").write_text(json.dumps({"3": [["m", 0.2], ["n", 0.7]]}))
        estimator = RunConfig.from_file(path).build_estimator()
        assert estimator.estimate(Bitmap(3, 7), None) == {"m": 0.2, "n": 0.7}


class TestVerifyCommand:
    def test_fixture_verifies_clean(self, tmp_path):
        cfg = RunConfig.from_file(str(base_config(tmp_path)))
        code, payload = execute_verify(cfg)
        assert code == EXIT_OK
        assert payload["ok"]
        assert payload["eps_cover_violations"] == []
        assert payload["exact_front"]

    def test_enumeration_writes_ahead_of_the_child(self, tmp_path, monkeypatch):
        # after the first, every CSV of the oracle's enumeration is written
        # while children work on the requests before it, up to three at once
        monkeypatch.setenv("SKYFORGE_TMPDIR", str(tmp_path / "tmp"))
        events = record_steps(monkeypatch)
        enumerate_all = cli.enumerate_all

        def marking_enumerate_all(*args, **kwargs):
            events.clear()
            return enumerate_all(*args, **kwargs)

        monkeypatch.setattr(cli, "enumerate_all", marking_enumerate_all)
        raw = json.loads(base_config(tmp_path).read_text())
        raw["estimator"] = {"command": [sys.executable, "-c", CONSTANT_CHILD], "timeout": 10}
        raw["search"] = {"algorithm": "nobi", "epsilon": 0.3}
        path = tmp_path / "child.json"
        path.write_text(json.dumps(raw))
        code, payload = execute_verify(RunConfig.from_file(str(path)))
        assert code == EXIT_OK
        at_writes, _ = in_flight_at_writes(events)
        assert len(at_writes) == payload["total_states"] > MAX_CHILDREN
        assert at_writes == [0, 1, 2] + [3] * (len(at_writes) - 3)
        assert list((tmp_path / "tmp").glob("skyforge_*.csv")) == []

    @pytest.mark.parametrize("algorithm", ["nobi", "bi"])
    def test_command_estimator_reports_as_the_serial_one(self, tmp_path, monkeypatch, spawned,
                                                          algorithm):
        # the search and the oracle's enumeration both send requests ahead;
        # the report equals the one-child run's
        tmp = tmp_path / "tmp"
        monkeypatch.setenv("SKYFORGE_TMPDIR", str(tmp))
        child = CONSTANT_CHILD.replace(
            "'holdout_error': 50.0", "'holdout_error': int(req['bitmap'], 16) % 97 + req['rows']")
        raw = json.loads(base_config(tmp_path).read_text())
        raw["estimator"] = {"command": [sys.executable, "-c", child], "timeout": 10}
        raw["search"] = {"algorithm": algorithm, "epsilon": 0.3}
        path = tmp_path / "child.json"
        path.write_text(json.dumps(raw))
        reports = []
        for cls in (SubprocessEstimator, SerialEstimator):
            monkeypatch.setattr(cli, "SubprocessEstimator", cls)
            spawned.clear()
            code, report = execute_verify(RunConfig.from_file(str(path)))
            assert reaped(spawned) and list(tmp.glob("skyforge_*.csv")) == []
            reports.append((code, report, len(spawned)))
        (code, report, children), (serial_code, serial_report, serial_children) = reports
        assert (code, report) == (serial_code, serial_report) and code in (EXIT_OK, EXIT_VIOLATIONS)
        assert report["total_states"] > MAX_CHILDREN and report["exact_front"]
        assert (children, serial_children) == (MAX_CHILDREN, 1)

    def test_corrupted_grid_detected(self, tmp_path, monkeypatch):
        cfg = RunConfig.from_file(str(base_config(tmp_path)))
        run_algorithm = cli.run_algorithm

        def run_then_empty_grid(*args):
            result = run_algorithm(*args)
            result.grid.cells.clear()
            return result

        monkeypatch.setattr(cli, "run_algorithm", run_then_empty_grid)
        code, payload = execute_verify(cfg)
        assert code == EXIT_VIOLATIONS
        assert not payload["ok"]
        assert payload["eps_cover_violations"]

    @pytest.mark.parametrize("cap", ["0", "-2", "two"])
    def test_bad_max_bits_exits_2_before_search(self, tmp_path, monkeypatch, capsys, cap):
        monkeypatch.setattr(cli, "run_algorithm", lambda *args: pytest.fail("search ran"))
        with pytest.raises(SystemExit) as info:
            main(["verify", "--config", str(base_config(tmp_path)), "--max-bits", cap])
        assert info.value.code == EXIT_BAD_CONFIG
        assert "--max-bits: must be an integer >= 1" in capsys.readouterr().err

    def test_cap_exceeded_exits_5(self, tmp_path):
        cfg = RunConfig.from_file(str(base_config(tmp_path)))
        code, payload = execute_verify(cfg, max_bits=3)
        assert code == EXIT_CAP
        assert payload["required"] > 0

    @pytest.fixture
    def no_search(self, monkeypatch):
        """Fails a test that searches or builds an estimator."""
        monkeypatch.setattr(cli, "run_algorithm", lambda *args: pytest.fail("search ran"))
        monkeypatch.setattr(RunConfig, "build_estimator",
                            lambda self: pytest.fail("estimator built"))

    @pytest.mark.parametrize("cap", [0, -2])
    def test_bad_cap_raises_before_search(self, tmp_path, no_search, cap):
        cfg = RunConfig.from_file(str(base_config(tmp_path)))
        with pytest.raises(ArgumentError, match="at least 1"):
            execute_verify(cfg, max_bits=cap)

    def test_cap_exceeded_refused_before_search(self, tmp_path, no_search):
        cfg = RunConfig.from_file(str(base_config(tmp_path)))
        space = StateSpace(cfg.build_universal(), protected=("y",))
        cap = space.n_bits - 1
        code, payload = execute_verify(cfg, max_bits=cap)
        assert code == EXIT_CAP
        assert payload == {
            "error": f"bitmap length {space.n_bits} exceeds the {cap}-bit enumeration cap",
            "required": state_count_bound(space),
        }

    def test_cap_equal_to_bitmap_length_verifies(self, tmp_path):
        cfg = RunConfig.from_file(str(base_config(tmp_path)))
        n_bits = StateSpace(cfg.build_universal()).n_bits
        code, payload = execute_verify(cfg, max_bits=n_bits)
        assert code == EXIT_OK and payload["ok"]

    def test_estimator_failure_in_enumeration_exits_3(self, tmp_path, capsys):
        # the run valuates only the full bitmap, which the table answers;
        # the oracle's enumeration then asks for a bitmap it does not hold
        raw = json.loads(base_config(tmp_path).read_text())
        space = StateSpace(RunConfig(raw, base_dir=str(tmp_path)).build_universal())
        full = {"holdout_error": 50.0, "train_cost": 5.0, "model_size": 2.0}
        (tmp_path / "table.json").write_text(json.dumps({space.full_bitmap().to_hex(): full}))
        raw["estimator"] = {"builtin": "lookup", "path": "table.json"}
        raw["search"]["budget"] = 1
        path = tmp_path / "full_only.json"
        path.write_text(json.dumps(raw))
        assert main(["verify", "--config", str(path)]) == EXIT_ESTIMATOR
        payload = json.loads(capsys.readouterr().out)
        assert "no lookup entry" in payload["error"]

    def test_cli_verify_smoke(self, tmp_path, capsys):
        path = base_config(tmp_path)
        assert main(["verify", "--config", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        payload = json.loads(out)
        assert payload["ok"]

    def test_div_run_reports_ratio(self, tmp_path):
        raw = json.loads(base_config(tmp_path).read_text())
        raw["search"]["algorithm"] = "div"
        raw["search"]["k"] = 3
        path = tmp_path / "div.json"
        path.write_text(json.dumps(raw))
        cfg = RunConfig.from_file(str(path))
        code, payload = execute_verify(cfg)
        assert code == EXIT_OK
        if payload.get("div_ratio") is not None:
            assert payload["div_ratio"] >= 0.25

    def cut_div_config(self, tmp_path):
        # max_len 2 stops the walk at a level that diversify filled, so the
        # run ends with a non-empty diversified set and its ratio is checked;
        # the cut also leaves deeper states uncovered, reported as such
        raw = json.loads(base_config(tmp_path).read_text())
        raw["search"].update(algorithm="div", k=3, max_len=2)
        path = tmp_path / "div.json"
        path.write_text(json.dumps(raw))
        return RunConfig.from_file(str(path))

    def test_div_ratio_at_or_above_bound_passes(self, tmp_path):
        _, payload = execute_verify(self.cut_div_config(tmp_path))
        assert isinstance(payload["div_ratio"], float)
        assert payload["div_ratio"] >= 0.25
        assert all(hex_ != "-" for hex_, _ in payload["eps_cover_violations"])

    def test_div_ratio_below_bound_is_a_violation(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "check_div_bound", lambda *args: 0.1)
        code, payload = execute_verify(self.cut_div_config(tmp_path))
        assert code == EXIT_VIOLATIONS
        assert not payload["ok"]
        assert payload["div_ratio"] == 0.1
        assert list(payload["eps_cover_violations"][-1]) == [
            "-", "diversification ratio 0.100 below 0.25"]
