"""Differential tests of the columnar state engine.

The ridge estimator scores states from ``StateSpace.columns`` and op_gen
builds child row masks from a parent's prefix/suffix ANDs.  Both are checked
here against small row-wise references that materialize every state from
scratch: the ridge measures must be exactly equal (no tolerance) and op_gen
must produce the same children and cache the same (mask, count) pairs.
"""

import random
import warnings

import numpy as np
import pytest

from skyforge import (
    Bitmap,
    EstimatorFailure,
    Literal,
    Relation,
    RidgeEstimator,
    SearchState,
    UniversalTable,
)
from skyforge.estimators import HOLDOUT_ERROR, HOLDOUT_STRIDE, MODEL_SIZE, TRAIN_COST, TRAIN_ERROR
from skyforge.operators import BACKWARD, FORWARD, StateSpace
from skyforge.tabular import build_universal, compress_rows, derive_all_literals

from conftest import build_pruning_fixture, build_toy_universal, make_monotone_instance

MEASURES = (TRAIN_ERROR, HOLDOUT_ERROR, TRAIN_COST, MODEL_SIZE)


# -- row-wise references -------------------------------------------------------


def reference_ridge(est: RidgeEstimator, bitmap: Bitmap, space: StateSpace) -> dict:
    """Ridge over the materialized dataset, one expanded row at a time."""
    data = space.dataset(bitmap)
    if est.target not in data.schema:
        raise EstimatorFailure("target missing", bitmap=bitmap)

    def numeric_column(cells):
        saw = False
        for v in cells:
            if v is None:
                continue
            if isinstance(v, bool) or not isinstance(v, (int, float)):
                return False
            saw = True
        return saw

    feature_names = [a for a in data.schema
                     if a != est.target and numeric_column(data.column(a))]
    out = {TRAIN_COST: float(data.expanded_row_count),
           MODEL_SIZE: float(len(feature_names))}
    ti = data.schema.index(est.target)
    fi = [data.schema.index(a) for a in feature_names]
    xs, ys = [], []
    for row, w in zip(data.rows, data.row_weights):
        y = row[ti]
        if y is None or not isinstance(y, (int, float)):
            continue
        for _ in range(w):
            xs.append([row[i] for i in fi])
            ys.append(float(y))
    if not ys or not feature_names:
        out[TRAIN_ERROR] = out[HOLDOUT_ERROR] = est.worst_error
        return out
    x = np.array([[np.nan if v is None else float(v) for v in row] for row in xs], dtype=float)
    y = np.array(ys, dtype=float)
    with warnings.catch_warnings():
        # a feature whose numbers sit only on rows with a non-numeric target
        # imputes from an all-NaN column, as the estimator always has
        warnings.simplefilter("ignore", RuntimeWarning)
        col_mean = np.nanmean(x, axis=0)
    col_mean = np.where(np.isfinite(col_mean), col_mean, 0.0)
    nan_at = np.isnan(x)
    x[nan_at] = np.take(col_mean, np.nonzero(nan_at)[1])
    hold = np.arange(len(y)) % HOLDOUT_STRIDE == HOLDOUT_STRIDE - 1
    train = ~hold
    if not train.any():
        train = np.ones_like(hold)
    beta = est._fit(x[train], y[train])
    out[TRAIN_ERROR] = est._mse(x[train], y[train], beta)
    out[HOLDOUT_ERROR] = est._mse(x[hold], y[hold], beta) if hold.any() else out[TRAIN_ERROR]
    return out


def reference_mask(space: StateSpace, bits: int) -> tuple:
    """(row mask, weighted count) straight from the rows and ``cluster_of``."""
    u = space.universal
    rel = u.relation
    mask, count = 0, 0
    for r, (row, w) in enumerate(zip(rel.rows, rel.row_weights)):
        keep = True
        for c, a in enumerate(rel.schema):
            kept = [i for i in space.attr_bits[a] if bits >> i & 1]
            if not kept or row[c] is None:
                continue
            cluster = u.cluster_of(a, row[c])
            if cluster is None or space.attr_bits[a][cluster] not in kept:
                keep = False
                break
        if keep:
            mask |= 1 << r
            count += w
    return mask, count


def reference_children(space: StateSpace, bitmap: Bitmap, direction: str) -> list:
    want_set = direction == FORWARD
    kind = "reduct" if want_set else "augment"
    out = []
    for i in range(space.n_bits):
        if space.bit_attrs[i] in space.protected or bitmap.test(i) != want_set:
            continue
        child = bitmap.bits ^ (1 << i)
        if child == 0 or reference_mask(space, child)[1] == 0:
            continue
        out.append((child, kind, space.bit_literals[i]))
    return out


# -- fixtures ------------------------------------------------------------------


def universal_of(schema, rows, weights=None):
    """One literal per distinct value of every column."""
    u = UniversalTable(relation=Relation("u", tuple(schema), tuple(map(tuple, rows)),
                                         weights=weights))
    for a in schema:
        u.literal_index[a] = tuple(Literal(a, v) for v in u.relation.adom(a))
    u.invalidate_caches()
    return u


def weighted_compressed(seed: int) -> UniversalTable:
    """Rounded random floats with nulls, clustered and compressed so rows
    carry multiplicities above one."""
    rng = random.Random(seed)
    schema = ("y", "f1", "f2", "f3")
    rows = []
    for _ in range(60):
        y = round(rng.uniform(0, 10), 1)
        feats = [None if rng.random() < 0.15 else round(rng.uniform(0, 3), 1) for _ in range(3)]
        rows.append((None if rng.random() < 0.1 else y, *feats))
    u = build_universal([Relation.from_rows("pool", schema, rows)])
    derive_all_literals(u, max_clusters=3)
    return compress_rows(u)


def mixed_universal() -> UniversalTable:
    """Nulls in features and target, a str/number column ``m`` that is
    numeric only on states without ``m = "x"``, a target with non-numeric
    cells, a bool column ``b`` and multiplicities above one."""
    schema = ("y", "f", "m", "b", "s")
    rows = [
        (1.0, 0.5, 1, None, "p"),
        (2.0, None, 2, True, "q"),
        (None, 1.5, "x", 0.25, "p"),
        ("bad", 2.0, 1, 0.25, "q"),
        (4.5, 2.5, "x", None, "p"),
        (3.0, 3.0, 2, True, None),
        (True, 1.0, 2, 0.25, "q"),
        (6.0, None, None, None, "p"),
        (7.5, 4.0, 1, 0.25, "q"),
    ]
    weights = (1, 3, 2, 1, 4, 1, 2, 5, 1)
    return universal_of(schema, rows, weights)


def all_bitmaps(space: StateSpace):
    return [Bitmap(bits, space.n_bits) for bits in range(1, 2 ** space.n_bits)]


# -- ridge ---------------------------------------------------------------------


def assert_ridge_matches(space: StateSpace, est: RidgeEstimator, bitmaps) -> int:
    compared = 0
    for bitmap in bitmaps:
        if space.is_degenerate(bitmap):
            continue
        try:
            expected = reference_ridge(est, bitmap, space)
        except EstimatorFailure:
            with pytest.raises(EstimatorFailure):
                est.estimate(SearchState(bitmap), space)
            continue
        got = est.estimate(SearchState(bitmap), space)
        assert set(got) == set(MEASURES)
        for name in MEASURES:
            assert got[name] == expected[name], (bitmap.to_hex(), name)
        compared += 1
    return compared


class TestRidgeDifferential:
    def test_mixed_cells_random_states(self):
        space = StateSpace(mixed_universal())
        full = space.full_bitmap()
        rng = random.Random(5)
        bitmaps = [full] + [full.with_bit(i, False) for i in range(space.n_bits)] + [
            Bitmap(rng.getrandbits(space.n_bits), space.n_bits) for _ in range(600)]
        assert assert_ridge_matches(space, RidgeEstimator("y"), bitmaps) > 300

    def test_mixed_column_numeric_only_on_some_states(self):
        space = StateSpace(mixed_universal())
        est = RidgeEstimator("y")
        full = space.full_bitmap()
        without_x = full.with_bit(space.bit_of(Literal("m", "x")), False)
        without_true = full.with_bit(space.bit_of(Literal("b", True)), False)
        sizes = [est.estimate(SearchState(bm), space)[MODEL_SIZE]
                 for bm in (full, without_x, without_true)]
        assert sizes == [1.0, 2.0, 2.0]  # ``f``; then ``m`` or ``b`` turns numeric
        assert assert_ridge_matches(space, est, [full, without_x, without_true]) == 3

    @pytest.mark.parametrize("seed", range(3))
    def test_weighted_compressed_states(self, seed):
        u = weighted_compressed(seed)
        assert any(w > 1 for w in u.relation.row_weights)
        space = StateSpace(u, protected=("y",))
        rng = random.Random(seed)
        bitmaps = [space.full_bitmap()] + [Bitmap(rng.getrandbits(space.n_bits), space.n_bits)
                                           for _ in range(150)]
        assert assert_ridge_matches(space, RidgeEstimator("y"), bitmaps) > 50

    def test_fewer_than_five_rows_and_no_features(self):
        u = universal_of(("y", "f", "s"),
                         [(1.0, 2.0, "a"), (2.0, 1.0, "b"), (4.0, None, "a")],
                         weights=(1, 2, 1))
        space = StateSpace(u)
        est = RidgeEstimator("y")
        assert assert_ridge_matches(space, est, all_bitmaps(space)) > 10
        only_target = space.bitmap_from_bits(space.attr_bits["y"])
        out = est.estimate(SearchState(only_target), space)
        assert out[MODEL_SIZE] == 0.0 and out[TRAIN_ERROR] == est.worst_error

    def test_target_missing_fails(self):
        space = StateSpace(mixed_universal())
        no_target = space.bitmap_from_bits(space.attr_bits["f"])
        with pytest.raises(EstimatorFailure):
            RidgeEstimator("y").estimate(SearchState(no_target), space)

    def test_ridge_reads_no_materialized_dataset(self):
        space = StateSpace(weighted_compressed(0), protected=("y",))
        space.dataset = None  # any materialization would fail loudly
        out = RidgeEstimator("y").estimate(space.root_state(), space)
        assert out[TRAIN_COST] == float(space.row_count(space.full_bitmap()))


# -- op_gen --------------------------------------------------------------------


def spaces():
    toy = StateSpace(build_toy_universal(), protected=("t",))
    pruning = StateSpace(build_pruning_fixture()[0], protected=("t",))
    monotone = [StateSpace(make_monotone_instance(seed)[0], protected=("t",)) for seed in range(4)]
    weighted = StateSpace(weighted_compressed(1), protected=("y",))
    mixed = StateSpace(mixed_universal())
    return [("toy", toy), ("pruning", pruning), ("weighted", weighted), ("mixed", mixed)] + [
        (f"monotone{seed}", s) for seed, s in enumerate(monotone)
    ]


@pytest.mark.parametrize("name,space", spaces(), ids=lambda v: v if isinstance(v, str) else "")
def test_op_gen_matches_from_scratch_reference(name, space):
    rng = random.Random(name)
    parents = [space.full_bitmap()] + [Bitmap(rng.getrandbits(space.n_bits), space.n_bits)
                                       for _ in range(40)]
    protected_bits = sum(1 << i for a in space.protected for i in space.attr_bits[a])
    for parent in parents:
        for direction in (FORWARD, BACKWARD):
            state = SearchState(parent, level=3)
            got = space.op_gen(state, direction)
            assert [(c.bitmap.bits, t.kind, t.literal) for c, t in got] == \
                reference_children(space, parent, direction)
            for child, transition in got:
                assert child.level == 4 and child.bitmap.length == space.n_bits
                assert transition.source == parent and transition.target == child.bitmap
                assert (child.bitmap.bits ^ parent.bits) & protected_bits == 0
    assert space._row_count_cache
    for bits, entry in space._row_count_cache.items():
        assert entry == reference_mask(space, bits), hex(bits)


def test_row_indices_lists_set_rows():
    space = StateSpace(mixed_universal())
    assert space.row_indices(0).tolist() == []
    assert space.row_indices(0b100000101).tolist() == [0, 2, 8]
