"""Shared fixtures: worked-example vectors, toy universes, and seeded
instance generators used by both the unit tests and the acceptance suite."""

import random
import subprocess
import warnings

import pytest

# Hypothesis imports its failure-patch writer, which imports libcst, only
# once a property test fails.  libcst's import emits a DeprecationWarning
# that the error::DeprecationWarning filter would turn into an INTERNALERROR
# ending the whole session, so import it here, before any test runs.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from skyforge import (
    Bitmap,
    EstimatorFailure,
    Literal,
    LookupEstimator,
    MeasureSet,
    MeasureSpec,
    Relation,
    SubprocessEstimator,
    TestLog,
    UniversalTable,
)
from skyforge.measures import LogEntry
from skyforge.operators import StateSpace

# The running example's five valuated vectors (measures normalized to
# minimize; third measure is the decisive one by default).
EXAMPLE_VECTORS = {
    "D1": (0.48, 0.33, 0.37),
    "D2": (0.41, 0.24, 0.37),
    "D3": (0.26, 0.15, 0.37),
    "D4": (0.37, 0.22, 0.39),
    "D5": (0.25, 0.18, 0.35),
}


def perf(*values) -> tuple:
    return tuple(values)


class SerialEstimator(SubprocessEstimator):
    """Never told the upcoming states, so every CSV is written just before
    its own request and one child serves every request: the serial
    reference for the command estimator."""

    lookahead = 0


@pytest.fixture
def spawned(monkeypatch):
    """Every process started during the test, in start order."""
    started = []

    class RecordingPopen(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            started.append(self)

    monkeypatch.setattr(subprocess, "Popen", RecordingPopen)
    return started


def reaped(procs) -> bool:
    """Every process exited and was waited for, with both pipes closed."""
    return all(p.returncode is not None and p.stdin.closed and p.stdout.closed for p in procs)


def record_steps(monkeypatch) -> list:
    """Make every estimator append the name of each write, send and receive
    it finishes to the returned list."""
    steps = []
    for name in ("_write", "_send", "_receive"):
        real = getattr(SubprocessEstimator, name)

        def recording(self, *args, real=real, name=name):
            result = real(self, *args)
            steps.append(name)
            return result
        monkeypatch.setattr(SubprocessEstimator, name, recording)
    return steps


def one_request_per_child(monkeypatch) -> set:
    """Make every estimator fail the test if it sends a child a request
    while that child owes a reply; returns the children that owe one."""
    busy = set()
    send, receive = SubprocessEstimator._send, SubprocessEstimator._receive

    def checked_send(self, child, request):
        assert child not in busy, "two requests in flight at one child"
        deadline = send(self, child, request)
        busy.add(child)
        return deadline

    def checked_receive(self, child, deadline):
        busy.discard(child)
        return receive(self, child, deadline)

    monkeypatch.setattr(SubprocessEstimator, "_send", checked_send)
    monkeypatch.setattr(SubprocessEstimator, "_receive", checked_receive)
    return busy


def in_flight_at_writes(steps: list) -> tuple:
    """The number of requests sent and not yet answered at each write, and
    the most at any one time."""
    in_flight, at_writes, most = 0, [], 0
    for name in steps:
        if name == "_write":
            at_writes.append(in_flight)
        else:
            in_flight += 1 if name == "_send" else -1
            most = max(most, in_flight)
    assert in_flight == 0
    return at_writes, most


class Counting:
    """Wraps an estimator: ``calls`` counts the calls made, ``returned`` the
    calls that returned; call number ``fail_at`` raises instead."""

    def __init__(self, inner, fail_at=None):
        self.inner, self.fail_at, self.calls, self.returned = inner, fail_at, 0, 0

    def estimate(self, bitmap, space, upcoming=()):
        self.calls += 1
        if self.calls == self.fail_at:
            raise EstimatorFailure("boom", bitmap=bitmap)
        raw = self.inner.estimate(bitmap, space, upcoming)
        self.returned += 1
        return raw


def three_measures(p_low=1e-6, p_high=1.0) -> MeasureSet:
    return MeasureSet([
        MeasureSpec("rmse", p_low=p_low, p_high=p_high),
        MeasureSpec("r2_inv", p_low=p_low, p_high=p_high),
        MeasureSpec("train_cost", p_low=p_low, p_high=p_high),
    ])


@pytest.fixture
def example_states():
    """The five worked-example datasets as valuated states (log entries) D1..D5."""
    states = {}
    for i, (name, vec) in enumerate(EXAMPLE_VECTORS.items()):
        states[name] = LogEntry(Bitmap(1 << i, 5), perf(*vec), 1)
    return states


def build_toy_universal():
    """Numeric toy pool: protected target ``t`` plus A and B with two value
    clusters each (6 bits, 16 consistent states)."""
    rel = Relation("u", ["t", "A", "B"], [
        [1, 10, 100], [1, 10, 200], [1, 20, 100],
        [1, 20, 200], [0, 10, 100], [0, 20, None],
    ])
    u = UniversalTable(relation=rel, literal_index={
        "t": (Literal("t", 0), Literal("t", 1)),
        "A": (Literal("A", 10), Literal("A", 20)),
        "B": (Literal("B", 100), Literal("B", 200)),
    })
    return u


@pytest.fixture
def toy_universal():
    return build_toy_universal()


def children_of(space, bitmap, direction, lo=0, hi=None) -> list:
    """One parent's child bitmaps in ascending order: ``op_gen`` over a
    frontier of that parent alone."""
    return [child for child, _ in space.op_gen([bitmap.bits], direction, lo, hi)]


def make_random_instance(seed: int):
    """Seeded random instance for the sweep: <= 5 attributes, <= 3 literals
    each, three measures, and a deterministic random lookup estimator."""
    rng = random.Random(seed)
    n_feats = rng.randint(2, 4)
    lit_counts = [rng.randint(1, 3) for _ in range(n_feats)]
    while sum(lit_counts) > 9:
        lit_counts[lit_counts.index(max(lit_counts))] -= 1
    attrs = ["t"] + [f"f{i}" for i in range(n_feats)]
    lit_index = {"t": (Literal("t", 0), Literal("t", 1))}
    for a, k in zip(attrs[1:], lit_counts):
        lit_index[a] = tuple(Literal(a, v) for v in range(k))
    rows = []
    for _ in range(rng.randint(12, 30)):
        row = [rng.randint(0, 1)]
        for a, k in zip(attrs[1:], lit_counts):
            row.append(None if rng.random() < 0.15 else rng.randint(0, k - 1))
        rows.append(tuple(row))
    u = UniversalTable(relation=Relation("u", attrs, rows), literal_index=lit_index)
    space = StateSpace(u, protected=("t",))
    table = {}
    for bits in range(2 ** space.n_bits):
        vec_rng = random.Random(seed * 2_654_435_761 + bits)
        table[bits] = {f"m{j}": vec_rng.uniform(0.05, 1.0) for j in range(3)}
    estimator = LookupEstimator(table)
    measures = MeasureSet([MeasureSpec(f"m{j}", p_low=0.05) for j in range(3)])
    return u, measures, estimator


def make_monotone_instance(seed: int):
    """Instance whose lookup values are an exact decreasing function of the
    state's row count, so rank correlations (and hence pruning's interval
    estimates) are genuinely trustworthy."""
    rng = random.Random(seed)
    n_feats = rng.randint(2, 3)
    lit_counts = [rng.randint(1, 3) for _ in range(n_feats)]
    attrs = ["t"] + [f"f{i}" for i in range(n_feats)]
    lit_index = {"t": (Literal("t", 0), Literal("t", 1))}
    for a, k in zip(attrs[1:], lit_counts):
        lit_index[a] = tuple(Literal(a, v) for v in range(k))
    rows = []
    for _ in range(rng.randint(15, 25)):
        row = [rng.randint(0, 1)]
        for a, k in zip(attrs[1:], lit_counts):
            row.append(None if rng.random() < 0.2 else rng.randint(0, k - 1))
        rows.append(tuple(row))
    u = UniversalTable(relation=Relation("u", attrs, rows), literal_index=lit_index)
    space = StateSpace(u, protected=("t",))
    total = len(rows)
    coef = [rng.uniform(0.3, 0.7) for _ in range(3)]
    base = [rng.uniform(0.75, 0.95) for _ in range(3)]
    table = {}
    for bits in range(2 ** space.n_bits):
        bm = Bitmap(bits, space.n_bits)
        if bm.bits == 0 or space.is_degenerate(bm):
            continue
        frac = space.row_count(bm) / total
        table[bits] = {f"m{j}": max(base[j] - coef[j] * frac, 0.06) for j in range(3)}
    estimator = LookupEstimator(table)
    measures = MeasureSet([MeasureSpec(f"m{j}", p_low=0.05) for j in range(3)])
    return u, measures, estimator


def build_pruning_fixture():
    """The bidirectional worked example: states s_U, s_1, s_2, s_3, s_b with
    the published vectors, plus the sandwiched states s_4 and s_5 that the
    correlation-based pruning must skip.

    Bit layout: 0 = t:1 (protected target), 1 = x:a, 2 = x:b, 3 = y:c,
    4 = y:d.  The rows give the states distinct row counts so the row count
    correlates with the performance field.
    """
    rows = [
        (1, "a", "c"), (1, "a", "d"), (1, "a", "d"), (1, "b", "c"),
        (1, "b", None), (1, None, "c"), (1, "a", "zz"), (1, "a", "zz"),
    ]
    rel = Relation("u", ["t", "x", "y"], rows)
    u = UniversalTable(relation=rel, literal_index={
        "t": (Literal("t", 1),),
        "x": (Literal("x", "a"), Literal("x", "b")),
        "y": (Literal("y", "c"), Literal("y", "d")),
    })
    space = StateSpace(u, protected=("t",))

    def bits(*ixs):
        return space.bitmap_from_bits(ixs).bits

    names = {
        "s_U": bits(0, 1, 2, 3, 4),
        "s_1": bits(0, 1, 2, 3),
        "s_2": bits(0, 1, 4),
        "s_3": bits(0, 2),
        "s_b": bits(0),
        "s_4": bits(0, 1, 2),
        "s_5": bits(0, 2, 3),
    }
    vectors = {
        names["s_U"]: (0.42, 0.18, 0.90),
        names["s_1"]: (0.40, 0.17, 0.10),
        names["s_2"]: (0.50, 0.22, 0.12),
        names["s_3"]: (0.45, 0.20, 0.12),
        names["s_b"]: (0.60, 0.40, 0.30),
        names["s_4"]: (0.58, 0.38, 0.30),
        names["s_5"]: (0.46, 0.21, 0.12),
        bits(0, 1, 2, 4): (0.37, 0.165, 0.50),
        bits(0, 1, 3, 4): (0.407, 0.178, 0.50),
        bits(0, 2, 3, 4): (0.38, 0.172, 0.50),
        bits(0, 1): (0.43, 0.19, 0.50),
        bits(0, 3): (0.412, 0.18, 0.50),
        bits(0, 4): (0.39, 0.175, 0.50),
        bits(0, 1, 3): (0.49, 0.225, 0.50),
        bits(0, 2, 4): (0.52, 0.24, 0.50),
        bits(0, 3, 4): (0.425, 0.185, 0.50),
    }
    measures = MeasureSet([
        MeasureSpec("p1", p_low=0.1),
        MeasureSpec("p2", p_low=0.1),
        MeasureSpec("p3", p_low=0.1),
    ])
    estimator = LookupEstimator(
        {b: {"p1": v[0], "p2": v[1], "p3": v[2]} for b, v in vectors.items()}
    )
    return u, measures, estimator, names, vectors


def seeded_worked_log(names, vectors, space):
    """The worked bidirectional example's five historical tests, with their
    published vectors and descending fictional row counts.

    Row counts 6, 5, 4, 3, 1 rank 5, 4, 3, 2, 1.  p1 (0.42, 0.40, 0.50,
    0.45, 0.60) and p2 (0.18, 0.17, 0.22, 0.20, 0.40) both rank 2, 1, 4, 3,
    5: the rank differences are -3, -3, 1, 1, 4, so rho = 1 - 6 * 36 / 120
    = -0.8.  p3 (0.90, 0.10, 0.12, 0.12, 0.30) ranks 5, 1, 2.5, 2.5, 4; on
    centered ranks sxy = 0.5, sxx = 9.5 and syy = 10, so rho = 0.5 /
    sqrt(95) ~ 0.05.
    """
    log = TestLog()
    for name, count in (("s_U", 6), ("s_1", 5), ("s_2", 4), ("s_3", 3), ("s_b", 1)):
        bitmap = Bitmap(names[name], space.n_bits)
        log.append(LogEntry(bitmap, vectors[names[name]], count))
    return log
