import csv
import functools
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyforge import (
    ArgumentError,
    Bitmap,
    Literal,
    Relation,
    SearchState,
    UniversalTable,
)
from skyforge.operators import BACKWARD, FORWARD, StateSpace
from skyforge.tabular import write_csv

from conftest import build_toy_universal, make_random_instance


@pytest.fixture
def space():
    return StateSpace(build_toy_universal())


class TestBitmap:
    def test_hex_roundtrip(self):
        b = Bitmap(0b101101, 6)
        assert Bitmap.from_hex(b.to_hex(), 6) == b

    def test_containment(self):
        big = Bitmap(0b111, 3)
        small = Bitmap(0b101, 3)
        assert big.contains(small)
        assert not small.contains(big)


class TestApplyOperators:
    def test_reduct_drops_matching_rows(self, space):
        root = space.root_state()
        child = space.apply_reduct(root, Literal("A", 10))
        data = space.dataset(child.bitmap)
        assert all(r[data.schema.index("A")] in (20, None) for r in data.rows)

    def test_reduct_of_last_literal_drops_column(self, space):
        s = space.apply_reduct(space.root_state(), Literal("A", 10))
        s = space.apply_reduct(s, Literal("A", 20))
        assert "A" not in space.dataset(s.bitmap).schema

    def test_reduct_requires_set_bit(self, space):
        s = space.apply_reduct(space.root_state(), Literal("A", 10))
        with pytest.raises(ArgumentError, match="already clear"):
            space.apply_reduct(s, Literal("A", 10))

    def test_reduct_to_empty_dataset_is_degenerate(self):
        rel = Relation("u", ["a"], [[1], [1]])
        u = UniversalTable(relation=rel, literal_index={"a": (Literal("a", 1),)})
        sp = StateSpace(u)
        with pytest.raises(ArgumentError, match="empties the dataset"):
            sp.apply_reduct(sp.root_state(), Literal("a", 1))

    def test_augment_adds_column(self, space):
        back = SearchState(space.bitmap_from_bits(space.attr_bits["t"]))
        child = space.apply_augment(back, Literal("A", 10))
        assert "A" in space.dataset(child.bitmap).schema

    def test_augment_requires_clear_bit(self, space):
        with pytest.raises(ArgumentError, match="already set"):
            space.apply_augment(space.root_state(), Literal("A", 10))

    def test_augment_then_reduct_restores_bitmap(self, space):
        back = SearchState(space.bitmap_from_bits(space.attr_bits["t"]))
        lit = Literal("B", 100)
        forth = space.apply_augment(back, lit)
        again = space.apply_reduct(forth, lit)
        assert again.bitmap == back.bitmap

    def test_augmented_column_carries_nulls(self, space):
        # the pool row missing a B value keeps a null cell after augmenting B
        back = SearchState(space.bitmap_from_bits(
            list(space.attr_bits["t"]) + list(space.attr_bits["A"])))
        child = space.apply_augment(back, Literal("B", 200))
        data = space.dataset(child.bitmap)
        col = data.column("B")
        assert None in col

    def test_year_style_reduct_sequence(self):
        rel = Relation("u", ["year", "v"], [
            [2001, 1], [2002, 2], [2003, 3], [2004, 4],
        ])
        u = UniversalTable(relation=rel, literal_index={
            "year": tuple(Literal("year", y) for y in (2001, 2002, 2003, 2004)),
            "v": tuple(Literal("v", x) for x in (1, 2, 3, 4)),
        })
        sp = StateSpace(u)
        s = sp.root_state()
        for y in (2001, 2002):  # drop all pre-2003 clusters
            s = sp.apply_reduct(s, Literal("year", y))
        years = sp.dataset(s.bitmap).column("year")
        assert all(y >= 2003 for y in years)


@functools.lru_cache(maxsize=None)
def universal_of(seed: int) -> UniversalTable:
    """The toy pool for seed -1, else a seeded random instance's universal."""
    return build_toy_universal() if seed < 0 else make_random_instance(seed)[0]


@st.composite
def ranged_op_gen_calls(draw):
    """A universal, protected attributes, a parent state (sometimes one
    bit), a direction and a child range, sometimes empty or inverted, with
    no upper limit when ``hi`` is None."""
    u = universal_of(draw(st.integers(-1, 5)))
    protected = draw(st.sampled_from([(), ("t",)]))
    n = sum(len(u.literals(a)) for a in u.schema)
    bits = draw(st.one_of(st.integers(0, 2**n - 1), st.sampled_from([1 << i for i in range(n)])))
    lo = draw(st.integers(-2, 2**n + 1))
    hi = draw(st.one_of(st.none(), st.integers(-2, 2**n + 1), st.integers(lo - 3, lo)))
    return (u, protected, SearchState(Bitmap(bits, n)), draw(st.sampled_from([FORWARD, BACKWARD])),
            lo, hi)


def scanned_children(space, bits, direction, lo, top):
    """op_gen's children by a scan of every bit position in ascending
    order: each unprotected bit the direction flips, kept when the child
    lies in ``[lo, top)`` and ``row_mask`` leaves it rows."""
    out = []
    for i in range(space.n_bits):
        if not space.free_bits >> i & 1 or bool(bits >> i & 1) != (direction == FORWARD):
            continue
        child = bits ^ (1 << i)
        if child and lo <= child < top and space.row_mask(Bitmap(child, space.n_bits)):
            out.append(child)
    return out


class TestOpGen:
    @given(ranged_op_gen_calls())
    @settings(max_examples=300, deadline=None)
    def test_range_keeps_the_unbounded_children_inside_it(self, call):
        u, protected, state, direction, lo, hi = call
        ranged_space = StateSpace(u, protected)
        ranged = ranged_space.op_gen(state, direction, lo, hi)
        every = StateSpace(u, protected).op_gen(state, direction)
        top = math.inf if hi is None else hi
        assert ranged == [c for c in every if lo <= c < top]
        scan = StateSpace(u, protected)
        assert ranged == scanned_children(scan, state.bitmap.bits, direction, lo, top)
        assert every == scanned_children(scan, state.bitmap.bits, direction, 0, math.inf)
        # every row mask op_gen cached is the one row_mask builds from scratch
        for bits, (mask, _) in ranged_space._row_count_cache.items():
            assert mask == StateSpace(u, protected).row_mask(Bitmap(bits, scan.n_bits))
        # no row mask or count was built for a child outside the range
        assert all(lo <= c < top for c in ranged_space._row_count_cache)

    def test_full_forward_has_one_child_per_bit(self):
        # no protected attribute: every set bit is flippable
        sp = StateSpace(build_toy_universal())
        children = sp.op_gen(sp.root_state(), FORWARD)
        assert len(children) == sp.n_bits

    def test_zero_bitmap_forward_empty(self, space):
        s = SearchState(Bitmap(0, space.n_bits))
        assert space.op_gen(s, FORWARD) == []

    def test_backward_complement_count(self, space):
        s = SearchState(space.bitmap_from_bits([0, 1, 2]))
        children = space.op_gen(s, BACKWARD)
        assert len(children) == space.n_bits - 3

    def test_protected_attribute_not_flipped(self):
        sp = StateSpace(build_toy_universal(), protected=("t",))
        children = sp.op_gen(sp.root_state(), FORWARD)
        flipped = {sp.bit_literals[(c ^ sp.full_bitmap().bits).bit_length() - 1].attribute
                   for c in children}
        assert "t" not in flipped
        assert len(children) == sp.n_bits - len(sp.attr_bits["t"])

    def test_deterministic_order(self, space):
        a = space.op_gen(space.root_state(), FORWARD)
        b = space.op_gen(space.root_state(), FORWARD)
        assert a == b

    @given(st.integers(min_value=0, max_value=63))
    @settings(max_examples=64, deadline=None)
    def test_one_flip_property(self, bits):
        sp = StateSpace(build_toy_universal())
        s = SearchState(Bitmap(bits, sp.n_bits))
        for direction in (FORWARD, BACKWARD):
            for child in sp.op_gen(s, direction):
                assert (child ^ bits).bit_count() == 1


class TestSemantics:
    def test_equal_bitmaps_materialize_identical_datasets(self, space):
        b = space.bitmap_from_bits([0, 2, 4])
        d1 = space.dataset(b)
        d2 = space.dataset(Bitmap(b.bits, b.length))
        assert d1.schema == d2.schema
        assert d1.rows == d2.rows

    def test_null_cells_never_remove_rows(self, space):
        # the row with a null B survives any B-cluster selection
        b = space.bitmap_from_bits(
            list(space.attr_bits["t"]) + list(space.attr_bits["A"])
            + [space.attr_bits["B"][0]])
        data = space.dataset(b)
        assert (0, 20, None) in data.rows

    def test_row_count_matches_dataset(self, space):
        for bits in range(2 ** space.n_bits):
            bm = Bitmap(bits, space.n_bits)
            if bm.bits == 0:
                continue
            assert space.row_count(bm) == space.dataset(bm).expanded_row_count

    def test_reachability_by_reducts_only(self):
        """Every non-degenerate bitmap is reachable from the full one through
        non-degenerate intermediate states."""
        sp = StateSpace(build_toy_universal())
        reached = set()
        frontier = [sp.root_state()]
        reached.add(frontier[0].bitmap.bits)
        while frontier:
            nxt = []
            for s in frontier:
                for child in sp.op_gen(s, FORWARD):
                    if child not in reached:
                        reached.add(child)
                        nxt.append(SearchState(Bitmap(child, sp.n_bits)))
            frontier = nxt
        expected = {
            bits for bits in range(1, 2 ** sp.n_bits)
            if not sp.is_degenerate(Bitmap(bits, sp.n_bits))
        }
        assert reached == expected


def reference_csv(path, relation):
    """The csv.writer loop that wrote every dataset file before lines were
    rendered once per space; the byte-for-byte reference."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(relation.schema)
        for row, weight in zip(relation.rows, relation.row_weights):
            for _ in range(weight):
                writer.writerow(["" if c is None else c for c in row])


def assert_same_bytes(relation, directory):
    ours, theirs = os.path.join(directory, "ours.csv"), os.path.join(directory, "ref.csv")
    write_csv(ours, relation)
    reference_csv(theirs, relation)
    with open(ours, "rb") as a, open(theirs, "rb") as b:
        assert a.read() == b.read()


def assert_every_state_matches(space, lineless=False):
    with tempfile.TemporaryDirectory() as d:
        for bits in range(1, 2 ** space.n_bits):
            bitmap = Bitmap(bits, space.n_bits)
            if space.is_degenerate(bitmap):
                continue
            data = space.dataset(bitmap)
            assert data.lines is not None
            assert_same_bytes(data, d)
            if lineless:  # a relation without lines goes through the same renderer
                assert_same_bytes(Relation(data.name, data.schema, data.rows, data.weights), d)


CSV_TEXT = st.text(alphabet=st.sampled_from([",", '"', "\r", "\n", " ", "a", "\u00e9",
                                              "\u4e2d", "\t", "'"]), max_size=6) | st.text(max_size=4)
CSV_CELLS = st.one_of(
    st.none(),
    CSV_TEXT,
    st.integers(-2**70, 2**70),
    st.sampled_from([2**53 + 1, -(2**63), -0.0, 0.0, 1e-300, 1e16, 1.5, 1 / 3]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def csv_universals(draw):
    """A weighted universal table of 1-3 columns of mixed cells whose
    literals are up to two of each column's values."""
    width = draw(st.integers(1, 3))
    schema = [f"c{j}" for j in range(width)]
    rows = draw(st.lists(st.tuples(*[CSV_CELLS] * width), min_size=1, max_size=8))
    weights = draw(st.lists(st.integers(1, 3), min_size=len(rows), max_size=len(rows)))
    rel = Relation("u", schema, rows, weights=weights)
    literals = {}
    for a in schema:
        if rel.adom(a):
            literals[a] = tuple(Literal(a, v) for v in rel.adom(a)[:2])
    return UniversalTable(relation=rel, literal_index=literals)


class TestDatasetCsv:
    """Dataset files are byte-identical to the csv.writer loop they replace."""

    @settings(max_examples=200, deadline=None)
    @given(csv_universals())
    def test_every_state_of_a_mixed_table(self, universal):
        try:
            space = StateSpace(universal)
        except ArgumentError:  # every column null: no literal, no state
            return
        assert_every_state_matches(space, lineless=True)

    @pytest.mark.parametrize("seed", range(8))
    def test_every_state_of_a_random_instance(self, seed):
        universal, _, _ = make_random_instance(seed)
        assert_every_state_matches(StateSpace(universal, protected=("t",)))

    @pytest.mark.parametrize("rows", [[(None,)], [("",)], [(None, None)], [(None, "a")]])
    def test_lone_empty_field_is_quoted(self, rows, tmp_path):
        rel = Relation("r", [f"c{j}" for j in range(len(rows[0]))], rows, weights=[2])
        assert_same_bytes(rel, str(tmp_path))
