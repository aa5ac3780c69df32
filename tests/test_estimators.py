import json
import math
import os
import sys
import textwrap
import time
from dataclasses import replace

import pytest

from skyforge import (
    ArgumentError,
    Bitmap,
    EstimatorFailure,
    Literal,
    LookupEstimator,
    MeasureSet,
    MeasureSpec,
    Relation,
    RidgeEstimator,
    SearchConfig,
    SearchState,
    SubprocessEstimator,
    TestLog,
    UniversalTable,
    run_algorithm,
    valuate,
)
from skyforge import search
from skyforge.estimators import (HOLDOUT_ERROR, MAX_CHILDREN, MAX_TIMEOUT_S, MODEL_SIZE,
                                 TRAIN_COST, TRAIN_ERROR, WORST_ERROR)
from skyforge.operators import FORWARD, StateSpace

from conftest import (SerialEstimator, in_flight_at_writes, make_monotone_instance,
                      one_request_per_child, reaped, record_steps)


def numeric_universal(rows, schema=("x", "y")):
    rel = Relation("u", schema, rows)
    return UniversalTable(relation=rel, literal_index={
        a: tuple(Literal(a, v) for v in rel.adom(a)) for a in schema})


class TestLookup:
    def test_missing_bitmap_fails_with_bitmap_attached(self):
        # valuate attaches the state's bitmap to every estimator failure
        u = numeric_universal([[1.0, 2.0], [2.0, 3.0]])
        space = StateSpace(u)
        est = LookupEstimator({})
        with pytest.raises(EstimatorFailure) as err:
            valuate(space.root_state(), est, TestLog(), MeasureSet([MeasureSpec("m")]), space)
        assert err.value.bitmap == space.full_bitmap()
        assert str(err.value) == f"no lookup entry (bitmap {space.full_bitmap().to_hex()})"

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
        u = replace(u, relation=Relation("u", u.schema, u.relation.rows, weights=(3, 2)))
        space = StateSpace(u)
        out = RidgeEstimator(target="y").estimate(space.root_state(), space)
        assert out[TRAIN_COST] == 5.0

    def test_no_feature_columns_returns_worst_error(self):
        u = numeric_universal([[1.0]], schema=("y",))
        space = StateSpace(u)
        out = RidgeEstimator(target="y").estimate(space.root_state(), space)
        assert out[TRAIN_ERROR] == out[HOLDOUT_ERROR] == WORST_ERROR
        assert out[MODEL_SIZE] == 0.0

    def test_missing_target_is_failure(self):
        u = numeric_universal([[1.0, 2.0]])
        space = StateSpace(u)
        with pytest.raises(EstimatorFailure):
            RidgeEstimator(target="zz").estimate(space.root_state(), space)

    @pytest.mark.parametrize("lam", [-1.0, -1e-300, float("nan"), float("inf")])
    def test_negative_or_non_finite_lam_rejected(self, lam):
        with pytest.raises(ArgumentError, match="lam"):
            RidgeEstimator(target="y", lam=lam)

    def test_zero_lam_accepted(self):
        u = numeric_universal([[float(i), 2.0 * i + 1.0] for i in range(10)])
        space = StateSpace(u)
        out = RidgeEstimator(target="y", lam=0).estimate(space.root_state(), space)
        assert out[TRAIN_ERROR] < 1e-8

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

# replies in two writes 0.2 s apart, the first ending mid-line
CHILD_CHUNKED = textwrap.dedent("""
    import json, sys, time
    for line in sys.stdin:
        reply = json.dumps({"id": json.loads(line)["id"], "measures": {"m": 1.5}}) + "\\n"
        sys.stdout.write(reply[:7])
        sys.stdout.flush()
        time.sleep(0.2)
        sys.stdout.write(reply[7:])
        sys.stdout.flush()
""")

# closes its stdout on the first request and stays alive without replying
CHILD_CLOSES_STDOUT = textwrap.dedent("""
    import os, sys, time
    sys.stdin.readline()
    os.close(1)
    time.sleep(5)
""")


class TestSubprocess:
    def make(self, tmp_path, script, **kw):
        path = tmp_path / "child.py"
        path.write_text(script)
        return SubprocessEstimator([sys.executable, str(path)], **kw)

    def test_protocol_roundtrip_sees_expanded_rows(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SKYFORGE_TMPDIR", str(tmp_path / "tmp"))
        u = numeric_universal([[1.0, 2.0], [2.0, 3.0]])
        u = replace(u, relation=Relation("u", u.schema, u.relation.rows, weights=(2, 3)))
        space = StateSpace(u)
        est = self.make(tmp_path, CHILD_OK, timeout=10)
        try:
            out = est.estimate(space.root_state(), space)
        finally:
            est.close()
        assert out == {"rows_seen": 5.0, "cols": 2.0}

    @pytest.mark.parametrize("timeout", [0, -1.0, float("nan"), float("inf"), 10 ** 400],
                             ids=["zero", "negative", "nan", "inf", "int-beyond-float"])
    def test_timeout_must_be_finite_and_positive(self, tmp_path, timeout):
        with pytest.raises(ArgumentError, match="timeout"):
            self.make(tmp_path, CHILD_OK, timeout=timeout)

    def test_timeout_raises_estimator_failure(self, tmp_path):
        u = numeric_universal([[1.0, 2.0]])
        space = StateSpace(u)
        est = self.make(tmp_path, CHILD_SLOW, timeout=0.3)
        try:
            with pytest.raises(EstimatorFailure):
                est.estimate(space.root_state(), space)
        finally:
            est.close()

    def test_reply_split_across_two_writes(self, tmp_path):
        u = numeric_universal([[1.0, 2.0]])
        space = StateSpace(u)
        est = self.make(tmp_path, CHILD_CHUNKED, timeout=5)
        try:
            assert est.estimate(space.root_state(), space) == {"m": 1.5}
            assert est.estimate(space.root_state(), space) == {"m": 1.5}
        finally:
            est.close()

    def test_closed_stdout_without_reply_raises(self, tmp_path):
        u = numeric_universal([[1.0, 2.0]])
        space = StateSpace(u)
        est = self.make(tmp_path, CHILD_CLOSES_STDOUT, timeout=5)
        try:
            with pytest.raises(EstimatorFailure, match="closed its stdout"):
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
        [child] = est._children
        proc = child.proc
        proc.wait(timeout=5)  # dead before close() runs
        est.close()
        assert proc.returncode == 1 and proc.stdin.closed and proc.stdout.closed
        est.close()
        assert est._children == []

    def test_respawn_closes_the_dead_childs_pipes(self, tmp_path):
        u = numeric_universal([[1.0, 2.0]])
        space = StateSpace(u)
        est = self.make(tmp_path, CHILD_CRASH, timeout=5)
        try:
            with pytest.raises(EstimatorFailure):
                est.estimate(space.root_state(), space)
            [first] = est._children
            first.proc.wait(timeout=5)
            with pytest.raises(EstimatorFailure):
                est.estimate(space.root_state(), space)
            [second] = est._children
            assert second is not first
            assert first.proc.stdin.closed and first.proc.stdout.closed
        finally:
            est.close()


# records each request (without its temp path) and its CSV's text, one JSON
# line each, to a file of its own, argv[1] with the child's pid appended, and
# answers with measures derived from the bitmap and the row count
CHILD_RECORDING = textwrap.dedent("""
    import json, os, sys
    with open(f"{sys.argv[1]}.{os.getpid()}", "a") as record:
        for line in sys.stdin:
            req = json.loads(line)
            with open(req["csv_path"], newline="") as fh:
                text = fh.read()
            seen = {k: v for k, v in req.items() if k != "csv_path"}
            record.write(json.dumps({"request": seen, "csv": text}) + "\\n")
            record.flush()
            rows = req["rows"]
            measures = {"m0": (int(req["bitmap"], 16) % 7 + 1) / 10, "m1": 1 / (rows + 2),
                        "m2": rows / (rows + 5)}
            print(json.dumps({"id": req["id"], "measures": measures}), flush=True)
""")


# answers at once, except 0.8 s late to the second request
CHILD_SLOW_SECOND = textwrap.dedent("""
    import json, sys, time
    for line in sys.stdin:
        req = json.loads(line)
        if req["id"] == 2:
            time.sleep(0.8)
        print(json.dumps({"id": req["id"], "measures": {"m": 1.0}}), flush=True)
""")


class TestLookahead:
    def make(self, tmp_path, name, cls=SubprocessEstimator, script=CHILD_RECORDING, **kw):
        path = tmp_path / "child.py"
        path.write_text(script)
        return cls([sys.executable, str(path), str(tmp_path / name)], **kw)

    @staticmethod
    def recorded(tmp_path, name):
        """Every child's records, by request id."""
        lines = [line for path in tmp_path.glob(f"{name}.*")
                 for line in path.read_text().splitlines()]
        return sorted((json.loads(line) for line in lines), key=lambda r: r["request"]["id"])

    @staticmethod
    def two_states(space):
        root = space.root_state()
        child = sorted(space.op_gen(root, FORWARD))[0]
        return root, SearchState(Bitmap(child, space.n_bits))

    @pytest.mark.parametrize("algorithm, budget", [
        ("nobi", 2**31), ("bi", 2**31), ("div", 2**31), ("nobi", 6), ("bi", 9), ("apx", 2**31),
        *((algorithm, budget) for algorithm in ("apx", "bi", "nobi", "div")
          for budget in (1, 2, 3, 5))])
    def test_child_sees_what_the_serial_path_sends(self, tmp_path, monkeypatch, spawned,
                                                   algorithm, budget):
        # the same requests and CSV bytes under the same ids, none beyond the
        # budget, while the next requests are in flight on up to three more
        # children, never two at one child
        tmp = tmp_path / "tmp"
        monkeypatch.setenv("SKYFORGE_TMPDIR", str(tmp))
        steps = record_steps(monkeypatch)
        busy = one_request_per_child(monkeypatch)
        results = {}
        for label, cls in (("ahead", SubprocessEstimator), ("serial", SerialEstimator)):
            u, measures, _ = make_monotone_instance(3)
            steps.clear()
            spawned.clear()
            est = self.make(tmp_path, label, cls, timeout=10)
            cfg = SearchConfig(epsilon=0.2, target="t", algorithm=algorithm, k=2, budget=budget)
            try:
                res = run_algorithm(u, measures, est, cfg)
            finally:
                est.close()
            assert not res.partial and est.calls == res.valuations <= budget
            assert steps.count("_write") == steps.count("_send") == res.valuations  # none wasted
            assert reaped(spawned) and not busy
            assert list(tmp.glob("skyforge_*.csv")) == []
            results[label] = (self.recorded(tmp_path, label), *in_flight_at_writes(steps),
                              len(spawned), res.valuations)
        ahead, at_writes, most, children, valuations = results["ahead"]
        serial, serial_at_writes, serial_most, serial_children, _ = results["serial"]
        assert ahead == serial and len(ahead) == valuations
        assert [r["request"]["id"] for r in ahead] == list(range(1, valuations + 1))
        assert set(serial_at_writes) == {0} and serial_most == serial_children == 1
        assert most == children <= MAX_CHILDREN
        if budget > 5:
            assert most == MAX_CHILDREN
            assert sum(n > 0 for n in at_writes) >= valuations // 2

    def test_next_request_reuses_the_csv_written_ahead(self, tmp_path, monkeypatch):
        # the upcoming state's request goes to the other child before the
        # current reply is read, and its own call sends nothing
        monkeypatch.setenv("SKYFORGE_TMPDIR", str(tmp_path / "tmp"))
        space = StateSpace(numeric_universal([[1.0, 2.0], [2.0, 3.0]]))
        root, child = self.two_states(space)
        est = self.make(tmp_path, "record", timeout=10)
        sent = []
        send = est._send
        monkeypatch.setattr(est, "_send", lambda to, request: sent.append(
            (to, request["csv_path"])) or send(to, request))
        try:
            est.estimate(root, space, (child,))
            [(_, _, request, to, _)] = est._ahead
            written = request["csv_path"]
            assert os.path.exists(written) and est.calls == 2
            assert sent[1] == (to, written) and sent[0][0] is not to
            est.estimate(child, space)
            assert len(sent) == 2 and est.calls == 2 and not os.path.exists(written)
        finally:
            est.close()
        assert [r["request"]["bitmap"] for r in self.recorded(tmp_path, "record")] == [
            root.bitmap.to_hex(), child.bitmap.to_hex()]

    def test_unused_csv_is_discarded(self, tmp_path, monkeypatch, spawned):
        # a call for another state than the one announced drains the reply
        # sent ahead and deletes its CSV; close() removes a CSV sent ahead
        tmp = tmp_path / "tmp"
        monkeypatch.setenv("SKYFORGE_TMPDIR", str(tmp))
        space = StateSpace(numeric_universal([[1.0, 2.0], [2.0, 3.0], [3.0, 1.0]]))
        root, child = self.two_states(space)
        est = self.make(tmp_path, "record", timeout=10)
        try:
            est.estimate(child, space, (root,))
            est.estimate(child, space, (root,))  # not the announced state
            assert len(list(tmp.glob("skyforge_*.csv"))) == 1  # root's, sent again
            assert len(spawned) == 2 and not any(p.poll() for p in spawned)  # drained, not stopped
            assert est.estimate(root, space)["m1"] == 1 / (3 + 2)  # reply 4, not the drained 2
        finally:
            est.close()
        assert list(tmp.glob("skyforge_*.csv")) == [] and reaped(spawned)
        assert [(r["request"]["id"], r["request"]["bitmap"])
                for r in self.recorded(tmp_path, "record")] == [
            (1, child.bitmap.to_hex()), (2, root.bitmap.to_hex()),
            (3, child.bitmap.to_hex()), (4, root.bitmap.to_hex())]

    def test_requests_ahead_are_answered_in_order(self, tmp_path, monkeypatch, spawned):
        # a call tops the requests in flight up to three from its hint; a
        # call for a later state drains the replies ahead of its own
        tmp = tmp_path / "tmp"
        monkeypatch.setenv("SKYFORGE_TMPDIR", str(tmp))
        space = StateSpace(numeric_universal([[1.0, 2.0], [2.0, 3.0], [3.0, 1.0]]))
        root = space.root_state()
        c = [SearchState(Bitmap(bits, space.n_bits))
             for bits in sorted(space.op_gen(root, FORWARD))]
        est = self.make(tmp_path, "record", timeout=10)

        def in_flight():
            return [entry[1] for entry in est._ahead]
        try:
            est.estimate(root, space, tuple(c))  # six named, three sent
            assert in_flight() == [s.bitmap.bits for s in c[:3]] and est.calls == 4
            est.estimate(c[0], space, tuple(c[1:]))  # one more sent
            assert in_flight() == [s.bitmap.bits for s in c[1:4]] and est.calls == 5
            est.estimate(c[2], space)  # c[1]'s reply is read and discarded
            assert in_flight() == [c[3].bitmap.bits] and est.calls == 5
            assert len(list(tmp.glob("skyforge_*.csv"))) == 1
            est.estimate(c[3], space)
            assert in_flight() == [] and est.calls == 5
            assert len(spawned) == MAX_CHILDREN and not any(p.poll() for p in spawned)
        finally:
            est.close()
        assert list(tmp.glob("skyforge_*.csv")) == [] and reaped(spawned)
        assert [(r["request"]["id"], r["request"]["bitmap"])
                for r in self.recorded(tmp_path, "record")] == [
            (i + 1, s.bitmap.to_hex()) for i, s in enumerate([root, *c[:4]])]

    @pytest.mark.parametrize("seed", [1, 5])
    def test_hints_name_only_states_that_call_the_estimator(self, tmp_path, monkeypatch,
                                                           seed):
        # these div walks keep children that are already in the log: the
        # hint skips them, so no request or CSV is spent on a logged state
        monkeypatch.setenv("SKYFORGE_TMPDIR", str(tmp_path / "tmp"))
        steps = record_steps(monkeypatch)
        calls, runners = [], []
        estimate, init = SubprocessEstimator.estimate, search._Runner.__init__

        def recording_estimate(self, state, space, upcoming=()):
            calls.append((state.bitmap.bits, tuple(u.bitmap.bits for u in upcoming)))
            return estimate(self, state, space, upcoming)
        monkeypatch.setattr(SubprocessEstimator, "estimate", recording_estimate)
        monkeypatch.setattr(search._Runner, "__init__",
                            lambda self, *args: runners.append(self) or init(self, *args))
        u, measures, _ = make_monotone_instance(seed)
        est = self.make(tmp_path, "record", timeout=10)
        try:
            res = run_algorithm(u, measures, est,
                                SearchConfig(epsilon=0.2, target="t", algorithm="div", k=2))
        finally:
            est.close()
        keeps, = (runner.kept for runner in runners)
        assert not res.partial and len(keeps) > res.valuations  # logged states kept again
        assert est.calls == res.valuations == steps.count("_write") == len(calls)
        assert calls[-1][1] == () and any(len(hint) == MAX_CHILDREN - 1 for _, hint in calls)
        assert all(len(hint) < MAX_CHILDREN and hint == tuple(
            bits for bits, _ in calls[i + 1:i + 1 + len(hint)]) for i, (_, hint) in enumerate(calls))

    def test_failed_lookahead_surfaces_from_its_own_state(self, tmp_path, monkeypatch):
        tmp = tmp_path / "tmp"
        monkeypatch.setenv("SKYFORGE_TMPDIR", str(tmp))
        space = StateSpace(numeric_universal([[1.0, 2.0], [2.0, 3.0]]))
        root, child = self.two_states(space)
        real = space.dataset

        def dataset(bitmap):
            if bitmap.bits == child.bitmap.bits:
                raise OSError("no space left on device")
            return real(bitmap)

        monkeypatch.setattr(space, "dataset", dataset)
        est = self.make(tmp_path, "record", timeout=10)
        ms = MeasureSet([MeasureSpec(m) for m in ("m0", "m1", "m2")])
        log = TestLog()
        try:
            assert valuate(root, est, log, ms, space, (child,))[1]  # reply 1 still read
            assert not est._ahead
            with pytest.raises(EstimatorFailure, match="no space left") as err:
                valuate(child, est, log, ms, space)
            assert err.value.bitmap == child.bitmap and est.calls == 1
        finally:
            est.close()
        assert list(tmp.glob("skyforge_*.csv")) == []

    def test_reply_deadline_counts_from_the_send(self, tmp_path, monkeypatch):
        # writing ahead takes 0.5 s and the reply comes 0.8 s after the send:
        # a 0.6 s timeout fails although the wait itself starts at 0.5 s
        tmp = tmp_path / "tmp"
        monkeypatch.setenv("SKYFORGE_TMPDIR", str(tmp))
        space = StateSpace(numeric_universal([[1.0, 2.0], [2.0, 3.0]]))
        root, child = self.two_states(space)
        real = space.dataset

        def slow_dataset(bitmap):
            if bitmap.bits == child.bitmap.bits:
                time.sleep(0.5)
            return real(bitmap)

        est = self.make(tmp_path, "unused", script=CHILD_SLOW_SECOND, timeout=0.6)
        try:
            est.estimate(root, space)  # the child is up before the timed call
            monkeypatch.setattr(space, "dataset", slow_dataset)
            with pytest.raises(EstimatorFailure, match="timed out"):
                est.estimate(root, space, (child,))
            # the request sent ahead is not waited for: both children are gone
            assert not est._ahead and est._children == []
            assert list(tmp.glob("skyforge_*.csv")) == []
        finally:
            est.close()
        assert list(tmp.glob("skyforge_*.csv")) == []

    def test_timeout_cap(self, tmp_path, monkeypatch):
        # epoll refuses a wait above 2**31 - 1 ms
        monkeypatch.setenv("SKYFORGE_TMPDIR", str(tmp_path / "tmp"))
        for timeout in (3e6, math.nextafter(MAX_TIMEOUT_S, math.inf)):
            with pytest.raises(ArgumentError, match="timeout"):
                self.make(tmp_path, "unused", script=CHILD_OK, timeout=timeout)
        space = StateSpace(numeric_universal([[1.0, 2.0]]))
        for timeout in (MAX_TIMEOUT_S, 2_147_483.0):
            est = self.make(tmp_path, "unused", script=CHILD_OK, timeout=timeout)
            try:
                assert est.estimate(space.root_state(), space) == {"rows_seen": 1.0, "cols": 2.0}
            finally:
                est.close()
