"""Built-in deterministic estimators and the external subprocess protocol.

An estimator maps a search state to raw (un-normalized) measure values in a
single call.  All built-ins are RNG-free so identical runs stay bit-identical.
"""

from __future__ import annotations

import json
import os
import subprocess
import tempfile
import threading
import warnings
from typing import Optional, Sequence

import numpy as np

from .errors import ArgumentError, EstimatorFailure
from .operators import SearchState, StateSpace
from .tabular import write_csv


class LookupEstimator:
    """Table-lookup estimator keyed by bitmap; the workhorse for fixtures.

    ``table`` maps bitmap ``bits`` integers to {measure: raw value} dicts.
    A ``default`` dict, when given, answers unknown bitmaps.
    """

    requires_feature = False

    def __init__(self, table: dict, default: Optional[dict] = None):
        self.table = dict(table)
        self.default = default
        self.calls = 0

    def estimate(self, state: SearchState, space: StateSpace) -> dict:
        self.calls += 1
        row = self.table.get(state.bitmap.bits, self.default)
        if row is None:
            raise EstimatorFailure(
                f"no lookup entry for bitmap {state.bitmap.to_hex()}",
                bitmap=state.bitmap,
            )
        return dict(row)

    def close(self):
        """Nothing to release (every estimator has ``close``)."""


TRAIN_ERROR = "train_error"
HOLDOUT_ERROR = "holdout_error"
TRAIN_COST = "train_cost"
MODEL_SIZE = "model_size"

HOLDOUT_STRIDE = 5  # every fifth expanded row is held out: a fixed 80/20 split


class RidgeEstimator:
    """Closed-form ridge regression over the state's numeric feature columns.

    Measures produced: training / held-out mean squared error, a training
    cost proportional to the expanded row count, and a model size
    proportional to the feature-column count.  Deterministic: the holdout is
    every fifth expanded row and the solver is a direct solve.
    """

    requires_feature = True

    def __init__(self, target: str, lam: float = 1e-8, worst_error: float = 1.0):
        if not target:
            raise ArgumentError("ridge estimator needs a target column")
        self.target = target
        self.lam = lam
        self.worst_error = worst_error
        self.calls = 0

    def estimate(self, state: SearchState, space: StateSpace) -> dict:
        self.calls += 1
        attrs = space.active_attributes(state.bitmap)
        if self.target not in attrs:
            raise EstimatorFailure(
                f"target column {self.target!r} missing from state",
                bitmap=state.bitmap,
            )
        view = space.columns
        mask = space.row_mask(state.bitmap)
        # a feature has at least one number and nothing else among the rows
        feature_names = [
            a for a in attrs
            if a != self.target and mask & view.number[a] and not mask & view.non_numeric[a]
        ]
        out = {
            TRAIN_COST: float(space.row_count(state.bitmap)),
            MODEL_SIZE: float(len(feature_names)),
        }
        # rows with a numeric target, each repeated by its multiplicity
        rows = space.row_indices(mask & view.number[self.target])
        rows = np.repeat(rows, view.weights[rows])
        if not len(rows) or not feature_names:
            out[TRAIN_ERROR] = self.worst_error
            out[HOLDOUT_ERROR] = self.worst_error
            return out
        x = view.values[np.ix_(rows, [view.column[a] for a in feature_names])]
        y = view.values[rows, view.column[self.target]]
        with warnings.catch_warnings():
            # an all-NaN column ("Mean of empty slice") is imputed with 0 below
            warnings.simplefilter("ignore", RuntimeWarning)
            col_mean = np.nanmean(x, axis=0)
        col_mean = np.where(np.isfinite(col_mean), col_mean, 0.0)
        nan_at = np.isnan(x)
        x[nan_at] = np.take(col_mean, np.nonzero(nan_at)[1])

        idx = np.arange(len(y))
        hold = idx % HOLDOUT_STRIDE == HOLDOUT_STRIDE - 1
        train = ~hold
        if not train.any():
            train = np.ones_like(hold)
        beta = self._fit(x[train], y[train])
        out[TRAIN_ERROR] = self._mse(x[train], y[train], beta)
        if hold.any():
            out[HOLDOUT_ERROR] = self._mse(x[hold], y[hold], beta)
        else:
            out[HOLDOUT_ERROR] = out[TRAIN_ERROR]
        return out

    def close(self):
        """Nothing to release (every estimator has ``close``)."""

    def _fit(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        xb = np.hstack([x, np.ones((x.shape[0], 1))])
        gram = xb.T @ xb + self.lam * np.eye(xb.shape[1])
        return np.linalg.solve(gram, xb.T @ y)

    def _mse(self, x: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
        xb = np.hstack([x, np.ones((x.shape[0], 1))])
        resid = xb @ beta - y
        return float(np.mean(resid * resid))


class SubprocessEstimator:
    """Estimator living in a child process speaking line-delimited JSON.

    Request:  {"id": n, "bitmap": hex, "rows": int, "cols": int,
               "columns": [names], "csv_path": path}
    Response: {"id": n, "measures": {"name": raw, ...}}

    The engine writes the expanded dataset to a temp CSV before each request
    and normalizes the returned raw values.  One child serves all requests;
    framing is serialized under a lock.
    """

    requires_feature = False

    def __init__(self, command: Sequence[str], timeout: float = 60.0):
        if not command:
            raise ArgumentError("subprocess estimator needs a command")
        self.command = list(command)
        self.timeout = timeout
        self._proc: Optional[subprocess.Popen] = None
        self._lock = threading.Lock()
        self._next_id = 0
        self.calls = 0

    def _ensure_proc(self) -> subprocess.Popen:
        if self._proc is not None and self._proc.poll() is not None:
            self.close()  # a dead child's pipes are still open
        if self._proc is None:
            self._proc = subprocess.Popen(
                self.command,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        return self._proc

    def estimate(self, state: SearchState, space: StateSpace) -> dict:
        self.calls += 1
        data = space.dataset(state.bitmap)
        tmpdir = os.environ.get("SKYFORGE_TMPDIR") or tempfile.gettempdir()
        os.makedirs(tmpdir, exist_ok=True)
        fd, csv_path = tempfile.mkstemp(prefix="skyforge_", suffix=".csv", dir=tmpdir)
        os.close(fd)
        try:
            write_csv(csv_path, data, expand=True)
            with self._lock:
                self._next_id += 1
                request = {
                    "id": self._next_id,
                    "bitmap": state.bitmap.to_hex(),
                    "rows": data.expanded_row_count,
                    "cols": len(data.schema),
                    "columns": list(data.schema),
                    "csv_path": csv_path,
                }
                response = self._roundtrip(request, state)
            measures = response.get("measures")
            if response.get("id") != request["id"] or not isinstance(measures, dict):
                raise EstimatorFailure("malformed estimator response", bitmap=state.bitmap)
            return {k: float(v) for k, v in measures.items()}
        finally:
            try:
                os.unlink(csv_path)
            except OSError:
                pass

    def _roundtrip(self, request: dict, state: SearchState) -> dict:
        proc = self._ensure_proc()
        line: dict = {}
        error: list = []

        def read():
            try:
                raw = proc.stdout.readline()
                if not raw:
                    error.append("estimator closed its stdout")
                    return
                line.update(json.loads(raw))
            except Exception as exc:
                error.append(str(exc))

        try:
            proc.stdin.write(json.dumps(request) + "\n")
            proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise EstimatorFailure(f"estimator pipe broke: {exc}", bitmap=state.bitmap)
        reader = threading.Thread(target=read)
        reader.start()
        reader.join(self.timeout)
        if reader.is_alive():
            proc.kill()
            reader.join()
            raise EstimatorFailure(
                f"estimator timed out after {self.timeout}s", bitmap=state.bitmap
            )
        if error:
            raise EstimatorFailure(f"estimator protocol error: {error[0]}",
                                   bitmap=state.bitmap)
        return line

    def close(self):
        """Close both pipes and reap the child, alive or not; idempotent."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        for pipe in (proc.stdin, proc.stdout):
            try:
                pipe.close()
            except OSError:  # a dead child leaves a broken pipe to flush
                pass
        if proc.poll() is None:
            proc.terminate()
        try:
            proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
