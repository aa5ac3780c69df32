import copy
import json
import os
import subprocess
import sys

import jsonschema
import pytest

from skyforge import SearchState
from skyforge.cli import (
    EXIT_BAD_CONFIG,
    EXIT_CAP,
    EXIT_EMPTY,
    EXIT_ESTIMATOR,
    EXIT_OK,
    EXIT_VIOLATIONS,
    CONFIG_SCHEMA,
    ConfigError,
    RunConfig,
    execute_run,
    execute_verify,
    main,
)

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


def load_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        return json.load(fh)


def strip_volatile(manifest):
    m = copy.deepcopy(manifest)
    m.pop("timing", None)
    return m


class TestConfigValidation:
    def test_schema_violation(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"sources": []}))
        with pytest.raises(ConfigError):
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
        with pytest.raises(ConfigError) as info:
            RunConfig(raw)
        assert str(info.value) == f"config invalid: {exc.message} at {list(exc.absolute_path)}"

    def test_conflicting_targets_rejected_before_ingest(self, tmp_path, capsys):
        path = base_config(tmp_path, sources=[{"path": "missing.csv", "name": "pool"}],
                           target="f1", estimator={"builtin": "ridge", "target": "y"})
        with pytest.raises(ConfigError, match="'f1'.*'y'"):
            RunConfig.from_file(str(path))
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "'f1'" in err and "'y'" in err and "missing.csv" not in err

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
        with pytest.raises(ConfigError):
            RunConfig.from_file(str(path))

    def test_unknown_decisive_override_rejected(self, tmp_path):
        path = base_config(tmp_path, decisive="nope")
        with pytest.raises(ConfigError):
            RunConfig.from_file(str(path))

    def test_main_exits_2_on_bad_config(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{}")
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG

    def test_workers_key_rejected(self, tmp_path):
        path = base_config(tmp_path, search={"algorithm": "apx", "epsilon": 0.3, "workers": 2})
        with pytest.raises(ConfigError):
            RunConfig.from_file(str(path))
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG

    def test_bad_measure_range_rejected_at_load(self, tmp_path):
        path = base_config(tmp_path)
        raw = json.loads(path.read_text())
        raw["measures"][0]["raw_high"] = raw["measures"][0]["raw_low"]
        path.write_text(json.dumps(raw))
        with pytest.raises(ConfigError):
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
        with pytest.raises(ConfigError, match="target"):
            RunConfig.from_file(str(path))
        assert main(["run", "--config", str(path)]) == EXIT_BAD_CONFIG
        err = capsys.readouterr().err
        assert "target" in err and "missing.csv" not in err

    def test_flags_apply_before_search_validation(self, tmp_path):
        # the file alone is an invalid div search (no k); the flag completes it
        path = base_config(tmp_path, search={"algorithm": "div", "epsilon": 0.3, "budget": 40})
        with pytest.raises(ConfigError):
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

    def test_provenance_replays_to_each_output(self, tmp_path):
        cfg = RunConfig.from_file(str(base_config(tmp_path)))
        code, manifest, result, space = execute_run(cfg)
        assert code == EXIT_OK
        for entry in manifest["grid"]:
            state = SearchState(result.graph.roots[0])
            for step in entry["provenance"]:
                from skyforge.tabular import Literal

                lit = Literal(step["attribute"], step["value"])
                if step["op"] == "reduct":
                    state = space.apply_reduct(state, lit)
                else:
                    state = space.apply_augment(state, lit)
            assert state.bitmap.to_hex() == entry["bitmap"]

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

    @pytest.mark.parametrize("execute", [execute_run, execute_verify])
    def test_estimator_child_exits_with_the_operation(self, tmp_path, monkeypatch, execute):
        monkeypatch.setenv("SKYFORGE_TMPDIR", str(tmp_path / "tmp"))
        spawned = []

        class RecordingPopen(subprocess.Popen):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                spawned.append(self)

        monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
        raw = json.loads(base_config(tmp_path).read_text())
        raw["estimator"] = {"command": [sys.executable, "-c", CONSTANT_CHILD], "timeout": 10}
        path = tmp_path / "child.json"
        path.write_text(json.dumps(raw))
        assert execute(RunConfig.from_file(str(path)))[0] == EXIT_OK
        assert len(spawned) == 1
        child = spawned[0]
        assert child.returncode is not None  # exited and reaped
        assert child.stdin.closed and child.stdout.closed

    def test_cli_flags_override_config(self, tmp_path):
        path = base_config(tmp_path)
        code = main(["run", "--config", str(path), "--epsilon", "0.5",
                     "--algorithm", "nobi", "--budget", "50"])
        assert code == EXIT_OK
        manifest = load_manifest(str(tmp_path / "out"))
        assert manifest["algorithm"] == "nobi"
        assert manifest["epsilon"] == 0.5
        assert manifest["valuations"] <= 50

    def test_ridge_target_protected_without_top_level_target(self, tmp_path):
        path = base_config(tmp_path, estimator={"builtin": "ridge", "target": "y"})
        raw = json.loads(path.read_text())
        del raw["target"]
        path.write_text(json.dumps(raw))
        assert main(["run", "--config", str(path)]) == EXIT_OK
        manifest = load_manifest(str(tmp_path / "out"))
        assert manifest["grid"]
        for entry in manifest["grid"]:
            assert "y" in entry["columns"]
            header = (tmp_path / "out" / entry["csv"]).read_text().splitlines()[0]
            assert "y" in header.split(",")

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


class TestVerifyCommand:
    def test_fixture_verifies_clean(self, tmp_path):
        cfg = RunConfig.from_file(str(base_config(tmp_path)))
        code, payload = execute_verify(cfg)
        assert code == EXIT_OK
        assert payload["ok"]
        assert payload["eps_cover_violations"] == []
        assert payload["exact_front"]

    def test_corrupted_grid_detected(self, tmp_path):
        cfg = RunConfig.from_file(str(base_config(tmp_path)))

        def corrupt(grid):
            grid.cells.clear()

        code, payload = execute_verify(cfg, _corrupt_grid=corrupt)
        assert code == EXIT_VIOLATIONS
        assert not payload["ok"]
        assert payload["eps_cover_violations"]

    def test_cap_exceeded_exits_5(self, tmp_path):
        cfg = RunConfig.from_file(str(base_config(tmp_path)))
        code, payload = execute_verify(cfg, max_bits=3)
        assert code == EXIT_CAP
        assert payload["required"] > 0

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
