import json
import sys
import textwrap

import pytest

from skyforge import (
    EstimatorFailure,
    Literal,
    LookupEstimator,
    Relation,
    RidgeEstimator,
    SubprocessEstimator,
    UniversalTable,
)
from skyforge.estimators import HOLDOUT_ERROR, MODEL_SIZE, TRAIN_COST, TRAIN_ERROR
from skyforge.operators import StateSpace


def numeric_universal(rows, schema=("x", "y")):
    u = UniversalTable(relation=Relation.from_rows("u", schema, rows))
    for a in schema:
        u.literal_index[a] = tuple(Literal(a, v) for v in u.relation.adom(a))
    u.invalidate_caches()
    return u


class TestLookup:
    def test_missing_bitmap_fails_with_bitmap_attached(self):
        u = numeric_universal([[1.0, 2.0], [2.0, 3.0]])
        space = StateSpace(u)
        est = LookupEstimator({})
        with pytest.raises(EstimatorFailure) as err:
            est.estimate(space.root_state(), space)
        assert err.value.bitmap == space.full_bitmap()

    def test_default_answers_unknown_states(self):
        u = numeric_universal([[1.0, 2.0]])
        space = StateSpace(u)
        est = LookupEstimator({}, default={"m": 0.4})
        assert est.estimate(space.root_state(), space) == {"m": 0.4}


class TestRidge:
    def test_exact_linear_data_fits(self):
        rows = [[float(i), 2.0 * i + 1.0] for i in range(10)]
        u = numeric_universal(rows)
        space = StateSpace(u)
        est = RidgeEstimator(target="y")
        out = est.estimate(space.root_state(), space)
        assert out[TRAIN_ERROR] < 1e-8
        assert out[HOLDOUT_ERROR] < 1e-8
        assert out[TRAIN_COST] == 10.0
        assert out[MODEL_SIZE] == 1.0

    def test_compressed_weights_expand(self):
        rows = [[1.0, 1.0], [2.0, 2.0]]
        u = numeric_universal(rows)
        u.relation = Relation("u", u.schema, u.relation.rows, weights=(3, 2))
        space = StateSpace(u)
        out = RidgeEstimator(target="y").estimate(space.root_state(), space)
        assert out[TRAIN_COST] == 5.0

    def test_no_feature_columns_returns_worst_error(self):
        u = numeric_universal([[1.0]], schema=("y",))
        space = StateSpace(u)
        out = RidgeEstimator(target="y", worst_error=0.77).estimate(
            space.root_state(), space)
        assert out[TRAIN_ERROR] == 0.77
        assert out[MODEL_SIZE] == 0.0

    def test_missing_target_is_failure(self):
        u = numeric_universal([[1.0, 2.0]])
        space = StateSpace(u)
        with pytest.raises(EstimatorFailure):
            RidgeEstimator(target="zz").estimate(space.root_state(), space)

    def test_null_features_imputed_deterministically(self):
        rows = [[1.0, 1.0], [None, 2.0], [3.0, 3.0], [4.0, 4.0], [5.0, 5.0]]
        u = numeric_universal(rows)
        space = StateSpace(u)
        est = RidgeEstimator(target="y")
        a = est.estimate(space.root_state(), space)
        b = est.estimate(space.root_state(), space)
        assert a == b


CHILD_OK = textwrap.dedent("""
    import csv, json, sys
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["csv_path"]) as fh:
            n = sum(1 for _ in csv.reader(fh)) - 1
        resp = {"id": req["id"], "measures": {"rows_seen": float(n), "cols": float(req["cols"])}}
        print(json.dumps(resp), flush=True)
""")

CHILD_SLOW = textwrap.dedent("""
    import sys, time
    for line in sys.stdin:
        time.sleep(5)
""")

CHILD_GARBAGE = textwrap.dedent("""
    import sys
    for line in sys.stdin:
        print("not json", flush=True)
""")


CHILD_CRASH = "import sys; sys.exit(1)"


class TestSubprocess:
    def make(self, tmp_path, script, **kw):
        path = tmp_path / "child.py"
        path.write_text(script)
        return SubprocessEstimator([sys.executable, str(path)], **kw)

    def test_protocol_roundtrip_sees_expanded_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SKYFORGE_TMPDIR", str(tmp_path / "tmp"))
        u = numeric_universal([[1.0, 2.0], [2.0, 3.0]])
        u.relation = Relation("u", u.schema, u.relation.rows, weights=(2, 3))
        space = StateSpace(u)
        est = self.make(tmp_path, CHILD_OK, timeout=10)
        try:
            out = est.estimate(space.root_state(), space)
        finally:
            est.close()
        assert out == {"rows_seen": 5.0, "cols": 2.0}

    def test_timeout_raises_estimator_failure(self, tmp_path):
        u = numeric_universal([[1.0, 2.0]])
        space = StateSpace(u)
        est = self.make(tmp_path, CHILD_SLOW, timeout=0.3)
        try:
            with pytest.raises(EstimatorFailure):
                est.estimate(space.root_state(), space)
        finally:
            est.close()

    def test_protocol_violation_raises(self, tmp_path):
        u = numeric_universal([[1.0, 2.0]])
        space = StateSpace(u)
        est = self.make(tmp_path, CHILD_GARBAGE, timeout=5)
        try:
            with pytest.raises(EstimatorFailure):
                est.estimate(space.root_state(), space)
        finally:
            est.close()

    def test_close_reaps_a_dead_child_and_is_idempotent(self, tmp_path):
        u = numeric_universal([[1.0, 2.0]])
        space = StateSpace(u)
        est = self.make(tmp_path, CHILD_CRASH, timeout=5)
        with pytest.raises(EstimatorFailure):
            est.estimate(space.root_state(), space)
        proc = est._proc
        proc.wait(timeout=5)  # dead before close() runs
        est.close()
        assert proc.returncode == 1 and proc.stdin.closed and proc.stdout.closed
        est.close()
        assert est._proc is None

    def test_respawn_closes_the_dead_childs_pipes(self, tmp_path):
        u = numeric_universal([[1.0, 2.0]])
        space = StateSpace(u)
        est = self.make(tmp_path, CHILD_CRASH, timeout=5)
        try:
            with pytest.raises(EstimatorFailure):
                est.estimate(space.root_state(), space)
            first = est._proc
            first.wait(timeout=5)
            with pytest.raises(EstimatorFailure):
                est.estimate(space.root_state(), space)
            assert est._proc is not first
            assert first.stdin.closed and first.stdout.closed
        finally:
            est.close()
