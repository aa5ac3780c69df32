"""Built-in deterministic estimators and the external subprocess protocol.

An estimator maps a search state to raw (un-normalized) measure values in a
single call, ``estimate(state, space, upcoming=())``; ``upcoming`` is a tuple
of the next states whose valuations call it, in order, which it may get
ready while it works on ``state``.  Its class attribute ``lookahead`` says
how many it can use (0 for the built-ins, which ignore them); the walk names
that many, across batches, sides and levels, up to a barrier or the budget.
All built-ins are RNG-free so identical runs stay bit-identical.
"""

from __future__ import annotations

import json
import os
import selectors
import subprocess
import sys
import tempfile
import time
from collections import deque
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
    lookahead = 0

    def __init__(self, table: dict, default: Optional[dict] = None):
        self.table = dict(table)
        self.default = default

    def estimate(self, state: SearchState, space: StateSpace, upcoming: tuple = ()) -> dict:
        row = self.table.get(state.bitmap.bits, self.default)
        if row is None:
            raise EstimatorFailure("no lookup entry")
        return dict(row)

    def close(self):
        """Nothing to release (every estimator has ``close``)."""


TRAIN_ERROR = "train_error"
HOLDOUT_ERROR = "holdout_error"
TRAIN_COST = "train_cost"
MODEL_SIZE = "model_size"

HOLDOUT_STRIDE = 5  # every fifth expanded row is held out: a fixed 80/20 split
WORST_ERROR = 1.0  # both errors of a state with no target rows or no features


class RidgeEstimator:
    """Closed-form ridge regression over the state's numeric feature columns.

    Measures produced: training / held-out mean squared error, a training
    cost proportional to the expanded row count, and a model size
    proportional to the feature-column count.  Deterministic: the holdout is
    every fifth expanded row and the solver is a direct solve, or the
    least-norm least-squares solution when the system is singular.

    Each call keeps its numpy passes few: rows are repeated by weight only
    when some weight is above 1, NaNs are found once as flat positions and
    imputed through them, the holdout pattern is a slice of one the view
    keeps, and each error is ``np.add.reduce(r * r) / n``, as ``np.mean``
    computes it.  The measures equal a row-at-a-time reference bit for bit,
    which fixes the layout of every sum: a feature mean is a column sum of
    the n x f C-ordered feature matrix, as ``np.nanmean`` takes it there.
    """

    requires_feature = True
    lookahead = 0

    def __init__(self, target: str, lam: float = 1e-8):
        if not target:
            raise ArgumentError("ridge estimator needs a target column")
        if not 0 <= lam <= sys.float_info.max:  # also false for NaN
            raise ArgumentError(f"ridge lam must be finite and >= 0, got {lam!r}")
        self.target = target
        self.lam = lam

    def estimate(self, state: SearchState, space: StateSpace, upcoming: tuple = ()) -> dict:
        attrs = space.active_attributes(state.bitmap)
        if self.target not in attrs:
            raise EstimatorFailure(f"target column {self.target!r} missing from state")
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
        if not view.unit_weights:
            rows = np.repeat(rows, view.weights[rows])
        if not len(rows) or not feature_names:
            out[TRAIN_ERROR] = WORST_ERROR
            out[HOLDOUT_ERROR] = WORST_ERROR
            return out
        # rows first, then columns, into C-ordered workspace views, so the
        # axis-0 sums below add the rows in order, as ``np.nanmean`` does;
        # "clip" writes straight to ``out`` (every index is in range), where
        # "raise" would buffer the result first
        n, width, n_features = len(rows), view.values.shape[1], len(feature_names)
        gathered, flat_x, design = view.workspace(n * width, n * n_features,
                                                  n * (n_features + 1))
        gathered = np.take(view.values, rows, axis=0, out=gathered.reshape(n, width), mode="clip")
        x = np.take(gathered, [view.column[a] for a in feature_names], axis=1,
                    out=flat_x.reshape(n, n_features), mode="clip")
        y = gathered[:, view.column[self.target]]
        # an overflow or 0/0 gives a non-finite measure, which ``valuate``
        # refuses, whatever the warnings filter says
        with np.errstate(over="ignore", invalid="ignore"):
            # a NaN takes its feature's mean over the other rows (0.0 when it
            # has none); numpy adds a contiguous column pairwise but a strided
            # one row by row, so the sums stay on this n x f matrix
            nan_at = np.flatnonzero(np.isnan(x))
            if len(nan_at):
                feature_of = nan_at % n_features
                flat_x[nan_at] = 0.0
                col_mean = x.sum(axis=0) / (n - np.bincount(feature_of, minlength=n_features))
                flat_x[nan_at] = np.where(np.isfinite(col_mean), col_mean, 0.0)[feature_of]

            # fit on the train split (row 0 is always in it), then score both splits
            train, hold = view.every_nth(HOLDOUT_STRIDE, n)
            errors = []
            for part, size in ((train, n - n // HOLDOUT_STRIDE), (hold, n // HOLDOUT_STRIDE)):
                if not size:  # fewer than HOLDOUT_STRIDE rows: nothing held out
                    break
                xb = design[:size * (n_features + 1)].reshape(size, n_features + 1)
                np.compress(part, x, axis=0, out=xb[:, :-1])
                xb[:, -1] = 1.0
                y_part = y[part]
                if not errors:
                    gram = xb.T @ xb
                    gram.flat[::len(gram) + 1] += self.lam  # the diagonal
                    rhs = xb.T @ y_part
                    try:
                        beta = np.linalg.solve(gram, rhs)
                    except np.linalg.LinAlgError:  # singular: lam 0 and a constant feature
                        beta = np.linalg.lstsq(gram, rhs, rcond=None)[0]  # the least-norm fit
                resid = xb @ beta - y_part
                errors.append(float(np.add.reduce(resid * resid) / size))  # ``np.mean``
        out[TRAIN_ERROR], out[HOLDOUT_ERROR] = errors[0], errors[-1]
        return out

    def close(self):
        """Nothing to release (every estimator has ``close``)."""


# epoll refuses a wait above 2**31 - 1 ms, so no finite timeout may exceed it
MAX_TIMEOUT_S = (2**31 - 1) / 1000
# copies of a command that run at once: one for the current state and one for
# each upcoming state whose request is in flight (more lose to start-up CPU
# on two cores)
MAX_CHILDREN = 4


class SubprocessEstimator:
    """Estimator living in child processes speaking line-delimited JSON.

    Request:  {"id": n, "bitmap": hex, "rows": int, "cols": int,
               "columns": [names], "csv_path": path}
    Response: {"id": n, "measures": {"name": raw, ...}}

    The engine writes the expanded dataset to a temp CSV before each request
    and normalizes the returned raw values.  Up to ``MAX_CHILDREN`` copies of
    the command run at once, and each sees one request at a time; the first
    starts when the estimator is built.  Given the states valuated next
    (``upcoming``), the engine writes their CSVs and sends their requests to
    idle copies, up to one request in flight per copy, before it waits for
    the current reply.  Requests in flight are answered in the order sent: a
    call takes the first if it is for its state, and drains and discards it
    otherwise.  Ids increase across every copy, in valuation order.  A
    command that must not run twice at once has to serialize itself (behind
    a lock file, say).
    """

    requires_feature = False
    lookahead = MAX_CHILDREN - 1  # upcoming states a call can use

    def __init__(self, command: Sequence[str], timeout: float = 60.0):
        if not command:
            raise ArgumentError("subprocess estimator needs a command")
        if not 0 < timeout <= MAX_TIMEOUT_S:  # also false for NaN
            raise ArgumentError(f"estimator timeout must be positive and at most "
                                f"{MAX_TIMEOUT_S} s, got {timeout!r}")
        self.command = list(command)
        self.timeout = timeout
        self._children: list = []  # at most MAX_CHILDREN
        # (space, bits, request, child, deadline) sent for later calls, in
        # send order, at most one per child
        self._ahead: deque = deque()
        self.calls = 0  # requests sent; each request's id is its number
        try:
            self._idle()  # the first child starts up while the caller sets up
        except Exception:
            pass  # the first call starts it again and reports the error

    def _idle(self, busy=()) -> _Child:
        """A live child not in ``busy``, started if there is none."""
        for child in [c for c in self._children if c not in busy]:
            if child.proc.poll() is None:
                return child
            self._reap(child)  # a dead child's pipes are still open
        child = _Child(self.command)
        self._children.append(child)
        return child

    def estimate(self, state: SearchState, space: StateSpace, upcoming: tuple = ()) -> dict:
        ahead, bits = self._ahead, state.bitmap.bits
        while ahead and (ahead[0][0] is not space or ahead[0][1] != bits):
            self._drop(ahead.popleft(), drain=True)
        if ahead:
            request, child, deadline = ahead.popleft()[2:]
        else:
            child = self._idle()  # a new child starts up while the CSV is written
            request, deadline = self._write(state, space), None
        try:
            if deadline is None:
                deadline = self._send(child, request)
            self._send_ahead(upcoming, space, child)
            response = self._receive(child, deadline)
            if not (isinstance(response, dict) and response.get("id") == request["id"]
                    and isinstance(response.get("measures"), dict)):
                raise EstimatorFailure("malformed estimator response")
            return response["measures"]  # values are checked by valuate
        except BaseException:
            while ahead:  # the walk ends here, so no reply ahead is waited for
                self._drop(ahead.popleft(), drain=False)
            raise
        finally:
            _unlink(request["csv_path"])

    def _send_ahead(self, upcoming: tuple, space: StateSpace, current: _Child):
        """Top the requests in flight up from ``upcoming``: the first states
        are the ones already sent, and each next state's CSV is written and
        its request sent to an idle child while a child is free (``current``
        holds the current request).  The first state that cannot be sent
        stops the rest, so ids stay in valuation order."""
        ahead = self._ahead
        for state in upcoming[len(ahead):MAX_CHILDREN - 1]:
            try:
                # a new child starts up while the CSV is written
                child = self._idle([current, *(entry[3] for entry in ahead)])
                request = self._write(state, space)
            except Exception:
                return  # the state's own call tries again and reports the error
            try:
                deadline = self._send(child, request)
            except EstimatorFailure:  # a broken pipe: that child is gone
                _unlink(request["csv_path"])
                self._reap(child)
                return
            ahead.append((space, state.bitmap.bits, request, child, deadline))

    def _drop(self, entry: tuple, drain: bool):
        """Discard a request sent ahead: read and ignore its reply, or stop
        its child without waiting, then delete its CSV."""
        request, child, deadline = entry[2:]
        try:
            if drain:
                self._receive(child, deadline)
                child = None  # answered, so free for the next request
        except EstimatorFailure:
            pass  # a child that gives no reply is not asked again
        finally:
            if child is not None:
                self._reap(child)
            _unlink(request["csv_path"])

    def _write(self, state: SearchState, space: StateSpace) -> dict:
        """Write the state's dataset to a new temp CSV and return its
        request, whose id the send fills in."""
        data = space.dataset(state.bitmap)
        tmpdir = os.environ.get("SKYFORGE_TMPDIR") or tempfile.gettempdir()
        os.makedirs(tmpdir, exist_ok=True)
        fd, csv_path = tempfile.mkstemp(prefix="skyforge_", suffix=".csv", dir=tmpdir)
        os.close(fd)
        try:
            write_csv(csv_path, data)
        except BaseException:
            _unlink(csv_path)
            raise
        return {
            "id": None,
            "bitmap": state.bitmap.to_hex(),
            "rows": data.expanded_row_count,
            "cols": len(data.schema),
            "columns": list(data.schema),
            "csv_path": csv_path,
        }

    def _send(self, child: _Child, request: dict) -> float:
        """Number the request and write it as one line; return the reply's
        deadline."""
        request["id"] = self.calls + 1
        try:
            child.proc.stdin.write((json.dumps(request) + "\n").encode())
            child.proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise EstimatorFailure(f"estimator pipe broke: {exc}")
        self.calls += 1
        return time.monotonic() + self.timeout

    def _receive(self, child: _Child, deadline: float) -> dict:
        fd = child.proc.stdout.fileno()
        with selectors.DefaultSelector() as selector:
            selector.register(fd, selectors.EVENT_READ)
            while b"\n" not in child.unread:
                if not selector.select(max(deadline - time.monotonic(), 0.0)):
                    child.proc.kill()
                    self._reap(child)
                    raise EstimatorFailure(f"estimator timed out after {self.timeout}s")
                chunk = os.read(fd, 1 << 16)
                if not chunk:
                    raise EstimatorFailure("estimator protocol error: estimator closed "
                                           "its stdout")
                child.unread += chunk
        raw, _, child.unread = child.unread.partition(b"\n")
        try:
            return json.loads(raw)
        except ValueError as exc:
            raise EstimatorFailure(f"estimator protocol error: {exc}")

    def _reap(self, child: _Child):
        """Forget the child, close both its pipes and wait for it to exit,
        stopping it if it is alive; idempotent."""
        if child in self._children:
            self._children.remove(child)
        proc = child.proc
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

    def close(self):
        """Reap every child, alive or not, then remove every CSV sent ahead;
        idempotent."""
        while self._children:
            self._reap(self._children[-1])
        while self._ahead:
            _unlink(self._ahead.popleft()[2]["csv_path"])


class _Child:
    """One running copy of the command and the bytes of its stdout past its
    last reply."""

    __slots__ = ("proc", "unread")

    def __init__(self, command: list):
        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        self.unread = b""


def _unlink(path: str):
    try:
        os.unlink(path)
    except OSError:
        pass
