"""Differential tests of the columnar state engine.

The ridge estimator scores states from ``StateSpace.columns`` and op_gen
builds child row masks from a parent's prefix/suffix ANDs.  Both are checked
here against small row-wise references that materialize every state from
scratch: the ridge measures must be exactly equal (no tolerance) and op_gen
must produce the same children and cache the same (mask, count) pairs.  The
space's row masks, float view and CSV rendering, built from columns coded
over their distinct cell objects, are checked against per-cell loops.
"""

import random
import warnings
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyforge import (
    ArgumentError,
    Bitmap,
    EstimatorFailure,
    Literal,
    Relation,
    RidgeEstimator,
    SearchConfig,
    UniversalTable,
    run_algorithm,
)
from skyforge import search
from skyforge.estimators import (
    HOLDOUT_ERROR,
    HOLDOUT_STRIDE,
    MODEL_SIZE,
    TRAIN_COST,
    TRAIN_ERROR,
    WORST_ERROR,
)
from skyforge.operators import BACKWARD, FORWARD, StateSpace
from skyforge.tabular import _csv_cell, _csv_lines, build_universal, compress_rows, derive_all_literals

from conftest import (
    build_pruning_fixture,
    build_toy_universal,
    children_of,
    make_monotone_instance,
    three_measures,
)

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
        out[TRAIN_ERROR] = out[HOLDOUT_ERROR] = WORST_ERROR
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
    beta = ridge_fit(x[train], y[train], est.lam)
    out[TRAIN_ERROR] = ridge_mse(x[train], y[train], beta)
    out[HOLDOUT_ERROR] = ridge_mse(x[hold], y[hold], beta) if hold.any() else out[TRAIN_ERROR]
    return out


def ridge_fit(x: np.ndarray, y: np.ndarray, lam: float) -> np.ndarray:
    xb = np.hstack([x, np.ones((x.shape[0], 1))])
    gram = xb.T @ xb + lam * np.eye(xb.shape[1])
    return np.linalg.solve(gram, xb.T @ y)


def ridge_mse(x: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    xb = np.hstack([x, np.ones((x.shape[0], 1))])
    resid = xb @ beta - y
    return float(np.mean(resid * resid))


def reference_mask(space: StateSpace, bits: int) -> tuple:
    """(row mask, weighted count) straight from the rows and the cluster tables."""
    u = space.universal
    rel = u.relation
    mask, count = 0, 0
    for r, (row, w) in enumerate(zip(rel.rows, rel.row_weights)):
        keep = True
        for c, a in enumerate(rel.schema):
            kept = [i for i in space.attr_bits[a] if bits >> i & 1]
            if not kept or row[c] is None:
                continue
            cluster = u._cluster_tables[a].get(row[c])
            if cluster is None or space.attr_bits[a][cluster] not in kept:
                keep = False
                break
        if keep:
            mask |= 1 << r
            count += w
    return mask, count


def without(bitmap: Bitmap, i: int) -> Bitmap:
    return Bitmap(bitmap.bits & ~(1 << i), bitmap.length)


def reference_children(space: StateSpace, bitmap: Bitmap, direction: str) -> list:
    want_set = direction == FORWARD
    out = []
    for i in range(space.n_bits):
        if space.bit_literals[i].attribute in space.protected or bool(bitmap.bits >> i & 1) != want_set:
            continue
        child = bitmap.bits ^ (1 << i)
        if child == 0 or reference_mask(space, child)[1] == 0:
            continue
        out.append(child)
    return out


# -- fixtures ------------------------------------------------------------------


def universal_of(schema, rows, weights=None):
    """One literal per distinct value of every column."""
    rel = Relation("u", tuple(schema), tuple(map(tuple, rows)), weights=weights)
    return UniversalTable(relation=rel, literal_index={
        a: tuple(Literal(a, v) for v in rel.adom(a)) for a in schema})


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
    u = build_universal([Relation("pool", schema, rows)])
    return compress_rows(derive_all_literals(u, max_clusters=3))


def wide_rounded(seed: int) -> UniversalTable:
    """1000 rows of a target ``y`` and 11 features on a 0.1 grid with 3%
    nulls, clustered into at most 12 literals per column.  ``y`` is null on
    about 3% of the rows, and exactly there ``f10`` holds 50.0, a value no
    other row has."""
    rng = random.Random(seed)
    schema = ("y",) + tuple(f"f{i}" for i in range(11))
    rows = []
    for _ in range(1000):
        feats = [None if rng.random() < 0.03 else round(rng.uniform(0, 10), 1)
                 for _ in range(11)]
        y = round(sum(f for f in feats[:4] if f is not None) + rng.uniform(-2, 2), 1)
        if rng.random() < 0.03:
            y, feats[10] = None, 50.0
        rows.append((y, *feats))
    u = build_universal([Relation("pool", schema, rows)])
    return compress_rows(derive_all_literals(u, max_clusters=12))


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


def outer_join_pool(seed: int) -> UniversalTable:
    """Two sources of unrounded floats sharing 20 of their keys, as in the
    continuous join benchmark: the full outer join pads every unmatched row
    with a whole block of nulls (``b0``, ``b1`` on left-only rows; ``y``,
    ``a0``, ``a1`` on right-only ones).  Left uncompressed, so the cells keep
    their drawn values and every weight is 1."""
    rng = random.Random(seed)
    keys = list(range(50))
    rng.shuffle(keys)
    left = Relation("left", ("key", "y", "a0", "a1"),
                    [(k, rng.gauss(0.0, 2.0), rng.gauss(0.0, 1.0), rng.gauss(1.0, 3.0))
                     for k in keys[:35]])
    right = Relation("right", ("key", "b0", "b1"),
                     [(k, rng.gauss(0.0, 3.0), rng.gauss(2.0, 1.0))
                      for k in keys[:20] + keys[35:]])
    u = build_universal([left, right], {("left", "right"): [("key", "key")]})
    return derive_all_literals(u, max_clusters=4)


def single_feature_pool(seed: int) -> UniversalTable:
    """A target and two features drawn from a few unrounded values each,
    with nulls, so compression leaves weights above one: dropping either
    feature leaves one feature column over dozens of expanded rows."""
    rng = random.Random(seed)
    values = [[rng.gauss(0.0, 1.0 + j) for _ in range(5)] for j in range(3)]
    rows = [tuple(None if j and rng.random() < 0.2 else rng.choice(values[j]) for j in range(3))
            for _ in range(80)]
    u = build_universal([Relation("pool", ("y", "f", "g"), rows)])
    return compress_rows(derive_all_literals(u, max_clusters=3))


def all_bitmaps(space: StateSpace):
    return [Bitmap(bits, space.n_bits) for bits in range(1, 2 ** space.n_bits)]


def valid_bitmaps(space: StateSpace):
    """Every non-degenerate bitmap holding all protected bits."""
    protected = space.full_bitmap().bits & ~space.free_bits
    return [bm for bm in all_bitmaps(space)
            if bm.bits & protected == protected and not space.is_degenerate(bm)]


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
                est.estimate(bitmap, space)
            continue
        got = est.estimate(bitmap, space)
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
        bitmaps = [full] + [without(full, i) for i in range(space.n_bits)] + [
            Bitmap(rng.getrandbits(space.n_bits), space.n_bits) for _ in range(600)]
        assert assert_ridge_matches(space, RidgeEstimator("y"), bitmaps) > 300

    def test_mixed_column_numeric_only_on_some_states(self):
        space = StateSpace(mixed_universal())
        est = RidgeEstimator("y")
        full = space.full_bitmap()
        without_x = without(full, space.bit_of(Literal("m", "x")))
        without_true = without(full, space.bit_of(Literal("b", True)))
        sizes = [est.estimate(bm, space)[MODEL_SIZE]
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

    def test_wide_rounded_pool(self):
        u = wide_rounded(7)
        space = StateSpace(u, protected=("y",))
        full = space.full_bitmap()
        free = [i for i in range(space.n_bits) if space.free_bits >> i & 1]
        rng = random.Random(7)
        bitmaps = [full] + [without(full, i) for i in free]
        for _ in range(100):
            bits = full.bits
            for i in rng.sample(free, rng.randint(2, 12)):
                bits &= ~(1 << i)
            bitmaps.append(Bitmap(bits, space.n_bits))
        est = RidgeEstimator("y")
        assert assert_ridge_matches(space, est, bitmaps) >= len(free) + 50
        assert est.estimate(space.full_bitmap(), space)[MODEL_SIZE] == 11.0

    def test_feature_numeric_only_on_null_target_rows(self):
        # keeping only the 50.0 cluster of f10 leaves f10 a feature whose
        # numbers all sit on rows with a null target: among the rows that
        # are fitted it is all NaN, and it imputes 0.0
        u = wide_rounded(7)
        space = StateSpace(u, protected=("y",))
        keep = space.attr_bits["f10"][u._cluster_tables["f10"].get(50.0)]
        bitmap = space.full_bitmap()
        for i in space.attr_bits["f10"]:
            if i != keep:
                bitmap = without(bitmap, i)
        target_rows = space.row_mask(bitmap) & space.columns.number["y"]
        assert not target_rows & space.columns.number["f10"]
        est = RidgeEstimator("y")
        assert est.estimate(bitmap, space)[MODEL_SIZE] == 11.0
        assert assert_ridge_matches(space, est, [bitmap]) == 1

    def test_fewer_than_five_rows_and_no_features(self):
        u = universal_of(("y", "f", "s"),
                         [(1.0, 2.0, "a"), (2.0, 1.0, "b"), (4.0, None, "a")],
                         weights=(1, 2, 1))
        space = StateSpace(u)
        est = RidgeEstimator("y")
        assert assert_ridge_matches(space, est, all_bitmaps(space)) > 10
        only_target = space.bitmap_from_bits(space.attr_bits["y"])
        out = est.estimate(only_target, space)
        assert out[MODEL_SIZE] == 0.0 and out[TRAIN_ERROR] == WORST_ERROR

    @pytest.mark.parametrize("seed", range(3))
    def test_outer_join_null_blocks(self, seed):
        space = StateSpace(outer_join_pool(seed), protected=("y",))
        full = space.full_bitmap()
        free = [i for i in range(space.n_bits) if space.free_bits >> i & 1]
        rng = random.Random(seed)
        bitmaps = [full] + [without(full, i) for i in free] + [
            Bitmap(rng.getrandbits(space.n_bits) | ~space.free_bits & full.bits, space.n_bits)
            for _ in range(100)]
        assert assert_ridge_matches(space, RidgeEstimator("y"), bitmaps) > 50

    @pytest.mark.parametrize("seed", range(3))
    def test_single_feature_with_nulls_over_many_rows(self, seed):
        # one contiguous feature column: numpy sums it pairwise, where an
        # n x f matrix (f > 1) is summed row by row
        space = StateSpace(single_feature_pool(seed), protected=("y",))
        assert any(w > 1 for w in space.universal.relation.row_weights)
        est = RidgeEstimator("y")
        single = [bm for bm in valid_bitmaps(space)
                  if est.estimate(bm, space)[MODEL_SIZE] == 1.0]
        view = space.columns
        many_rows_with_nulls = [
            bm for bm in single
            if sum(view.weights[space.row_indices(space.row_mask(bm) & view.number["y"])]) > 8
            and any(space.row_mask(bm) & view.number["y"] & ~view.number[a]
                    for a in ("f", "g") if a in space.active_attributes(bm))]
        assert len(many_rows_with_nulls) > 10
        assert assert_ridge_matches(space, est, single) == len(single)

    @pytest.mark.parametrize("weights", [(1, 1, 1, 1, 1), (2, 1, 1, 1), (1, 3, 1)])
    def test_four_and_five_expanded_rows(self, weights):
        # four rows hold nothing out; the fifth is the first held-out row
        rows = [(1.5, 0.25, 3.0), (2.0, None, 1.0), (3.75, 1.5, None),
                (4.0, 2.0, 2.0), (6.5, 2.75, 0.5)][:len(weights)]
        space = StateSpace(universal_of(("y", "f", "g"), rows, weights), protected=("y",))
        bitmaps = valid_bitmaps(space)
        counts = {RidgeEstimator("y").estimate(bm, space)[TRAIN_COST]
                  for bm in bitmaps}
        assert {4.0, 5.0} <= counts
        assert assert_ridge_matches(space, RidgeEstimator("y"), bitmaps) == len(bitmaps)

    def test_unit_and_repeated_weights(self):
        # one estimator over both kinds of view: rows go through np.repeat
        # only where some weight is above one
        unit = StateSpace(outer_join_pool(0), protected=("y",))
        weighted = StateSpace(weighted_compressed(0), protected=("y",))
        assert unit.columns.unit_weights and not weighted.columns.unit_weights
        est = RidgeEstimator("y")
        for space in (unit, weighted, unit):
            rng = random.Random(space.n_bits)
            bitmaps = [space.full_bitmap()] + [
                Bitmap(rng.getrandbits(space.n_bits), space.n_bits) for _ in range(60)]
            assert assert_ridge_matches(space, est, bitmaps) > 20

    def test_target_missing_fails(self):
        space = StateSpace(mixed_universal())
        no_target = space.bitmap_from_bits(space.attr_bits["f"])
        with pytest.raises(EstimatorFailure):
            RidgeEstimator("y").estimate(no_target, space)

    def test_ridge_reads_no_materialized_dataset(self):
        space = StateSpace(weighted_compressed(0), protected=("y",))
        space.dataset = None  # any materialization would fail loudly
        out = RidgeEstimator("y").estimate(space.full_bitmap(), space)
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
    runner = search._Runner(space.universal, three_measures(), None, SearchConfig(epsilon=0.3))
    runner.space = space  # expand through the space whose cache is checked below
    for parent in parents:
        for direction in (FORWARD, BACKWARD):
            got = children_of(space, parent, direction)
            assert got == sorted(reference_children(space, parent, direction))
            for child in got:
                assert 0 < child < 1 << space.n_bits
                assert (child ^ parent.bits) & protected_bits == 0
            yielded = [c for batch in runner.expand([parent.bits], direction) for c in batch]
            assert [c.bits for c in yielded] == got
            for child in yielded:
                assert child.length == space.n_bits
    assert space._row_count_cache
    for bits, entry in space._row_count_cache.items():
        assert entry == reference_mask(space, bits), hex(bits)


@pytest.mark.parametrize("seed", range(4))
def test_row_count_cache_after_bi_walk_matches_reference(seed):
    # op_gen builds a parent's prefix/suffix masks only on its first cache
    # miss; every entry a whole unbudgeted walk leaves must still be exact
    u, ms, est = make_monotone_instance(seed)
    res = run_algorithm(u, ms, est, SearchConfig(epsilon=0.3, target="t", algorithm="bi"))
    cache = res.space._row_count_cache
    assert {e.bitmap.bits for e in res.log} <= set(cache)
    for bits, entry in cache.items():
        assert entry == reference_mask(res.space, bits), hex(bits)


def test_row_indices_lists_set_rows():
    space = StateSpace(mixed_universal())
    assert space.row_indices(0).tolist() == []
    assert space.row_indices(0b100000101).tolist() == [0, 2, 8]


# -- coded columns -------------------------------------------------------------


def _mask_of(flags) -> int:
    """Row mask (bit r set for each true ``flags[r]``) of a boolean sequence."""
    packed = np.packbits(np.asarray(flags, dtype=bool), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def reference_coded(space: StateSpace) -> tuple:
    """The null masks, literal bit masks, weight planes, ``ColumnarView``
    arrays and masks, and rendered CSV cells and lines of ``space``'s
    universal, from loops over every cell: the space's own construction
    before its columns were coded over their distinct cell objects."""
    u = space.universal
    rel = u.relation
    null_mask, bit_mask = {}, [0] * space.n_bits
    for a in u.schema:
        cells = rel.column(a)
        null_mask[a] = _mask_of([v is None for v in cells])
        # cluster index per row; -1 where the cell is null or in no cluster
        table = u._cluster_tables.get(a, {})
        clusters = np.fromiter(map(table.get, cells, repeat(-1)), np.intp, len(cells))
        for k, i in enumerate(space.attr_bits[a]):
            bit_mask[i] = _mask_of(clusters == k)
    values = np.full((len(rel.rows), len(rel.schema)), np.nan)
    number, non_numeric = {}, {}
    for c, a in enumerate(rel.schema):
        cells = rel.column(a)
        # one pass over the cells: 0 null, 1 number, 2 bool (a number too), 3 other
        kind = np.array([(2 if isinstance(v, bool) else 1) if isinstance(v, (int, float))
                         else 0 if v is None else 3 for v in cells], dtype=np.int8)
        is_number = (kind == 1) | (kind == 2)
        values[is_number, c] = np.array(cells, dtype=object)[is_number]
        number[a], non_numeric[a] = _mask_of(is_number), _mask_of(kind >= 2)
    weights = np.array(rel.row_weights, dtype=np.int64)
    planes = [_mask_of(weights >> k & 1) for k in range(max(rel.row_weights, default=0).bit_length())]
    csv_cells = [tuple(map(_csv_cell, row)) for row in rel.rows]
    return (null_mask, bit_mask, planes, values, number, non_numeric,
            csv_cells, _csv_lines(csv_cells, len(rel.schema)))


def assert_coded_matches(space: StateSpace):
    null_mask, bit_mask, planes, values, number, non_numeric, cells, lines = reference_coded(space)
    assert space._null_mask == null_mask
    assert space._bit_mask == bit_mask
    assert space._weight_planes == planes
    view = space.columns
    assert view.values.shape == values.shape
    # bitwise, so -0.0 against 0.0 and a NaN's payload count
    assert view.values.view(np.uint64).tolist() == values.view(np.uint64).tolist()
    assert view.column == {a: c for c, a in enumerate(space.universal.schema)}
    assert (view.number, view.non_numeric) == (number, non_numeric)
    assert view.weights.tolist() == list(space.universal.relation.row_weights)
    got_cells, got_lines = space._csv
    assert [tuple(row) for row in got_cells] == cells
    assert got_lines == lines


def fresh(v):
    """A cell equal to ``v`` that is another object, wherever Python makes
    one (not for None, bools, small ints or one-character strings)."""
    if isinstance(v, float):
        return float(repr(v))
    if isinstance(v, str):
        return "".join(list(v))
    if type(v) is int:
        return int(str(v))
    return v


# values that are equal, or nearly so, but differ in type, sign, or how
# they render; a column draws its cells from one such family and a few others
CODED_FAMILIES = ([0.0, -0.0], [1, 1.0, True], [0, False, None], ["a,b", 'say "hi"', "a,b"],
                  ["x\ry", "two\nlines", ""], [2**53 - 1, 2**53, 2**53 + 1, float(2**53)],
                  [-(2**53) - 1, 0.5, -0.0])
CODED_VALUES = st.one_of(
    st.none(),
    st.integers(-3, 3),
    st.floats(-4.0, 4.0, allow_nan=False),
    st.text(alphabet=st.sampled_from([",", '"', "\r", "\n", "a", "b"]), max_size=3),
)


@st.composite
def coded_universals(draw):
    """A weighted table of 1-3 columns and 1-7 rows, with derived literals,
    some attributes' literals dropped, and compressed or not.  Each column
    draws its cells from a family of ``CODED_FAMILIES`` and up to two other
    values, each cell the value itself or an equal copy that is another
    object."""
    width, n = draw(st.integers(1, 3)), draw(st.integers(1, 7))
    schema = [f"c{j}" for j in range(width)]
    columns = []
    for _ in schema:
        palette = draw(st.sampled_from(CODED_FAMILIES)) + draw(st.lists(CODED_VALUES, max_size=2))
        picks = draw(st.lists(st.tuples(st.sampled_from(palette), st.booleans()),
                              min_size=n, max_size=n))
        columns.append([fresh(v) if copy else v for v, copy in picks])
    weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
    u = derive_all_literals(UniversalTable(Relation("u", schema, zip(*columns), weights=weights)),
                            draw(st.integers(1, 3)))
    dropped = draw(st.lists(st.booleans(), min_size=width, max_size=width))
    dropped[draw(st.integers(0, width - 1))] = False
    u = UniversalTable(u.relation, {a: () if drop else u.literals(a)
                                    for a, drop in zip(schema, dropped)})
    return compress_rows(u) if draw(st.booleans()) else u


class TestCodedColumns:
    """The space codes each column over its distinct cell objects and builds
    its masks, float view and CSV cells from the codes."""

    @settings(max_examples=300, deadline=None)
    @given(coded_universals())
    def test_matches_per_cell_reference(self, universal):
        try:
            space = StateSpace(universal)
        except ArgumentError:  # no attribute kept a literal
            return
        assert_coded_matches(space)

    def test_equal_cells_of_other_objects_stay_apart(self):
        zero, minus_zero, big = 0.0, fresh(-0.0), 2**53 + 1
        rows = [
            (zero, 1, "a,b", big, None),
            (minus_zero, 1.0, fresh("a,b"), fresh(big), "q"),
            (fresh(zero), True, 'say "hi"', 2**53, "q"),
            (-0.0, 1, "two\nlines", None, "r\rs"),
            (None, False, "a,b", big, "q"),
        ]
        schema = ("z", "one", "s", "big", "d")
        u = derive_all_literals(UniversalTable(Relation("u", schema, rows, weights=(1, 3, 1, 2, 5))), 2)
        u = UniversalTable(u.relation, {**u.literal_index, "d": ()})  # an attribute with no literal
        space = StateSpace(u)
        assert_coded_matches(space)
        cells, lines = space._csv
        assert [row[0] for row in cells] == ["0.0", "-0.0", "0.0", "-0.0", ""]
        assert [row[1] for row in cells] == ["1", "1.0", "True", "1", "False"]
        assert lines[1] == '-0.0,1.0,"a,b",9007199254740993,q'
        view = space.columns
        assert np.signbit(view.values[:, 0]).tolist() == [False, True, False, True, False]
        assert view.values[0, 3] == float(big) and view.non_numeric["one"] == 0b10100
        assert_coded_matches(StateSpace(compress_rows(u)))

    @pytest.mark.parametrize("rows", [[(0.5,)], [(None, "x")], [("x", 1), ("x", 2)]])
    def test_one_row_or_one_column(self, rows):
        schema = [f"c{j}" for j in range(len(rows[0]))]
        u = derive_all_literals(UniversalTable(Relation("u", schema, rows, weights=[3] * len(rows))))
        assert_coded_matches(StateSpace(u))
