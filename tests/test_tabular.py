import hashlib
import math
import random
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyforge import (
    ArgumentError,
    Literal,
    Relation,
    UniversalTable,
    build_universal,
    compress_rows,
    derive_all_literals,
    derive_literals,
    ingest_csv,
    kmeans_1d,
)
from skyforge import tabular
from skyforge.operators import StateSpace
from skyforge.tabular import (_BLOCK_CELLS, _nearest, _nearest_sorted, _outer_join, _run_cuts,
                              _sort_key)


def rel(name, schema, rows):
    return Relation(name, schema, rows)


class TestRelation:
    def test_row_width_checked(self):
        with pytest.raises(ArgumentError):
            Relation("r", ("a", "b"), ((1,),))

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(ArgumentError):
            Relation("r", ("a", "a"), ())

    def test_adom_excludes_nulls_and_sorts(self):
        r = rel("r", ["a"], [[3], [None], [1], [3], [2]])
        assert r.adom("a") == (1, 2, 3)

    def test_weights_default_to_ones(self):
        r = rel("r", ["a"], [[1], [2]])
        assert r.row_weights == (1, 1)
        assert r.expanded_row_count == 2


class TestCsvIngest:
    def test_type_inference_int_float_str(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("i,f,s\n1,1.5,x\n2,,y\n,2.5,1\n")
        r = ingest_csv(str(p), "t")
        assert r.rows[0] == (1, 1.5, "x")
        assert r.rows[1] == (2, None, "y")
        assert r.rows[2] == (None, 2.5, "1")  # mixed column falls back to str

    def test_quoted_fields(self, tmp_path):
        p = tmp_path / "q.csv"
        p.write_text('a,b\n"hello, world",3\n')
        r = ingest_csv(str(p), "q")
        assert r.rows[0] == ("hello, world", 3)

    def test_empty_file_rejected(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(ArgumentError):
            ingest_csv(str(p), "e")

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_float_rejected_with_location(self, tmp_path, cell):
        p = tmp_path / "n.csv"
        p.write_text(f"a,x\n1,0.5\n2,{cell}\n")
        with pytest.raises(ArgumentError) as info:
            ingest_csv(str(p), "n")
        message = str(info.value)
        assert str(p) in message and "'x'" in message and "row 2" in message

    @pytest.mark.parametrize("cell", [2**1024 - 2**970, -(2**1024 - 2**970), int("9" * 400)],
                             ids=["limit", "minus-limit", "400-digits"])
    def test_int_beyond_float_range_rejected_with_location(self, tmp_path, cell):
        p = tmp_path / "i.csv"
        p.write_text(f"a,x\n1,5\n2,{cell}\n")
        with pytest.raises(ArgumentError) as info:
            ingest_csv(str(p), "i")
        message = str(info.value)
        assert str(p) in message and "'x'" in message and "row 2" in message

    def test_largest_float_convertible_int_accepted(self, tmp_path):
        cell = 2**1024 - 2**970 - 1  # float() rounds it down to the largest float
        p = tmp_path / "i.csv"
        p.write_text(f"x\n5\n{cell}\n")
        assert ingest_csv(str(p), "i").column("x") == [5, cell]

    def test_byte_order_mark_is_not_part_of_the_header(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_text("\ufeffa,b\n1,x\n", encoding="utf-8")
        r = ingest_csv(str(p), "b")
        assert r.schema == ("a", "b") and r.rows[0] == (1, "x")

    def test_digit_group_underscores_keep_a_column_str(self, tmp_path):
        # int() and float() read both codes as 1234; as text they stay apart
        p = tmp_path / "u.csv"
        p.write_text("code,x,y\n1_234,5,1_0.5\n12_34,6,2.5\n")
        r = ingest_csv(str(p), "u")
        assert r.adom("code") == ("12_34", "1_234")
        assert r.column("x") == [5, 6] and r.column("y") == ["1_0.5", "2.5"]

    @pytest.mark.parametrize("code", ["012", "+12", " 12", "12 ", "-0", "١٢"])
    def test_int_written_otherwise_keeps_a_column_str(self, tmp_path, code):
        # int() reads each of these as 12 (or 0), but none is str() of its int:
        # "012" and "12" are distinct codes (postal codes keep their zeros),
        # and "-0" stays text as well, beside "0" and "-1" that round-trip
        p = tmp_path / "c.csv"
        p.write_text(f"code,x\n12,5\n{code},6\n0,7\n-1,\n")
        r = ingest_csv(str(p), "c")
        assert r.column("code") == ["12", code, "0", "-1"]
        assert r.column("x") == [5, 6, 7, None]
        assert len(r.adom("code")) == 4

    @pytest.mark.parametrize("code", ["012", "+12", " 12", "12 ", "-0", "١٢"])
    def test_int_written_otherwise_keeps_a_float_column_str(self, tmp_path, code):
        # the same beside a cell that only float() reads: "012", "12" and
        # "1.5" are three codes, not 12.0 twice and 1.5
        p = tmp_path / "f.csv"
        p.write_text(f"code\n12\n{code}\n1.5\n")
        assert ingest_csv(str(p), "f").column("code") == ["12", code, "1.5"]

    def test_int_written_otherwise_among_empty_cells_keeps_a_float_column_str(self, tmp_path):
        # one "." in four cells, two of them empty: "012" is the one without
        p = tmp_path / "f.csv"
        p.write_text("code,w\n1.5,a\n,a\n012,a\n,a\n")
        assert ingest_csv(str(p), "f").column("code") == ["1.5", None, "012", None]

    def test_float_column_with_ints_written_as_python_writes_them(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_text("v,w\n12,a\n0,a\n-1,a\n1.5,a\n-0.0,a\n1e3,a\n,a\n")
        assert ingest_csv(str(p), "f").column("v") == [12.0, 0.0, -1.0, 1.5, -0.0, 1000.0, None]

    def test_nan_text_in_string_column_stays_a_category(self, tmp_path):
        p = tmp_path / "s.csv"
        p.write_text("s\nnan\nabc\n")
        r = ingest_csv(str(p), "s")
        assert r.adom("s") == ("abc", "nan")


class TestBuildUniversal:
    def test_join_on_full_key_match(self):
        left = rel("l", ["id", "a"], [[1, "x"], [2, "y"]])
        right = rel("r", ["id", "b"], [[1, 10], [2, 20]])
        u = build_universal([left, right], {("l", "r"): [("id", "id")]})
        assert u.schema == ("id", "a", "b")
        assert len(u.relation.rows) == 2
        assert set(u.relation.rows) == {(1, "x", 10), (2, "y", 20)}

    def test_disjoint_keys_null_padded(self):
        left = rel("l", ["id", "a"], [[1, "x"], [2, "y"]])
        right = rel("r", ["id", "b"], [[3, 10], [4, 20]])
        u = build_universal([left, right], {("l", "r"): [("id", "id")]})
        assert len(u.relation.rows) == 4
        assert (1, "x", None) in u.relation.rows
        assert (3, None, 10) in u.relation.rows

    def test_null_keys_never_match(self):
        left = rel("l", ["id", "a"], [[None, "x"]])
        right = rel("r", ["id", "b"], [[None, 10]])
        u = build_universal([left, right], {("l", "r"): [("id", "id")]})
        assert len(u.relation.rows) == 2

    def test_schema_conflict_without_key(self):
        left = rel("l", ["id", "v"], [[1, 2]])
        right = rel("r", ["id", "v"], [[1, 3]])
        with pytest.raises(ArgumentError, match="without a join key"):
            build_universal([left, right], {("l", "r"): [("id", "id")]})

    def test_duplicate_source_names_rejected(self):
        first = rel("p", ["id", "f1"], [[1, 2]])
        second = rel("p", ["id", "f2"], [[1, 3]])
        with pytest.raises(ArgumentError, match="duplicate source name 'p'"):
            build_universal([first, second], {("p", "p"): [("f1", "f2")]})

    def test_empty_sources_rejected(self):
        with pytest.raises(ArgumentError):
            build_universal([])

    def test_twelve_column_pool_shape(self):
        # several sources whose union schema has 12 attributes
        sources = [
            rel("s0", ["key", "c1", "c2", "c3"], [[i, i, i, i] for i in range(4)]),
            rel("s1", ["key", "c4", "c5", "c6"], [[i, i, i, i] for i in range(4)]),
            rel("s2", ["key", "c7", "c8", "c9"], [[i, i, i, i] for i in range(4)]),
            rel("s3", ["key", "c10", "c11"], [[i, i, i] for i in range(4)]),
        ]
        keys = {("s0", n): [("key", "key")] for n in ("s1", "s2", "s3")}
        u = build_universal(sources, keys)
        assert len(u.schema) == 12

    def test_source_order_permutation_preserves_columns(self):
        a = rel("a", ["id", "x"], [[1, "p"], [2, "q"]])
        b = rel("b", ["id", "y"], [[1, 7], [2, 8]])
        keys = {("a", "b"): [("id", "id")]}
        u1 = build_universal([a, b], keys)
        u2 = build_universal([b, a], keys)
        assert set(u1.schema) == set(u2.schema)
        for attr in u1.schema:
            c1 = sorted(u1.relation.column(attr), key=repr)
            c2 = sorted(u2.relation.column(attr), key=repr)
            assert c1 == c2


def reference_outer_join(acc_schema, acc_rows, right, pairs):
    """The join as it was written with a separate keyless branch and a
    scan of the key pairs for every right-only row."""
    right_key_attrs = [ra for _, ra in pairs]
    merged = [ra for la, ra in pairs if la == ra]
    right_extra = [a for a in right.schema if a not in merged]
    out_schema = list(acc_schema) + right_extra

    left_idx = {a: i for i, a in enumerate(acc_schema)}
    right_idx = {a: i for i, a in enumerate(right.schema)}

    out_rows = []
    if pairs:
        table = {}
        for j, rrow in enumerate(right.rows):
            key = tuple(rrow[right_idx[ra]] for _, ra in pairs)
            if any(k is None for k in key):
                continue  # null keys never match
            table.setdefault(key, []).append(j)
        matched_right = set()
        for lrow in acc_rows:
            key = tuple(lrow[left_idx[la]] for la, _ in pairs)
            hits = [] if any(k is None for k in key) else table.get(key, [])
            if hits:
                for j in hits:
                    matched_right.add(j)
                    rrow = right.rows[j]
                    out_rows.append(tuple(lrow) + tuple(rrow[right_idx[a]] for a in right_extra))
            else:
                out_rows.append(tuple(lrow) + (None,) * len(right_extra))
        for j, rrow in enumerate(right.rows):
            if j in matched_right:
                continue
            padded = []
            for a in acc_schema:
                # merged key columns take the right value on right-only rows
                src = None
                for la, ra in pairs:
                    if la == a and la == ra:
                        src = rrow[right_idx[ra]]
                        break
                padded.append(src)
            out_rows.append(tuple(padded) + tuple(rrow[right_idx[a]] for a in right_extra))
    else:
        # no applicable keys: nothing matches, both sides are null-padded
        for lrow in acc_rows:
            out_rows.append(tuple(lrow) + (None,) * len(right_extra))
        for rrow in right.rows:
            out_rows.append((None,) * len(acc_schema) + tuple(rrow[right_idx[a]] for a in right_extra))
    return tuple(out_schema), out_rows


@st.composite
def join_chains(draw):
    """2-3 sources joined left to right, each later one keyless, on a merged
    key ``k``, on differently named ids, or on both; cells drawn from
    {None, 0, 1, 2} make null and duplicate keys common."""
    sources, steps, seen = [], [], set()
    for i in range(draw(st.integers(2, 3))):
        kinds = draw(st.sets(st.sampled_from(["merged", "renamed"]))) if i else set()
        # a shared ``k`` without its key pair would be a schema conflict
        has_k = draw(st.booleans()) and ("k" not in seen or "merged" in kinds)
        pairs = [("k", "k")] if "merged" in kinds and has_k and "k" in seen else []
        if "renamed" in kinds:
            pairs.append((f"id{draw(st.integers(0, i - 1))}", f"id{i}"))
        schema = draw(st.permutations((["k"] if has_k else []) + [f"id{i}", f"v{i}"]))
        rows = draw(st.lists(st.lists(st.sampled_from([None, 0, 1, 2]), min_size=len(schema),
                                      max_size=len(schema)), max_size=6))
        sources.append(Relation(f"s{i}", schema, rows))
        steps.append(draw(st.permutations(pairs)))
        seen.update(schema)
    return sources, steps[1:]


class TestOuterJoin:
    @given(join_chains())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_rows_and_order(self, chain):
        sources, steps = chain
        schema, rows = sources[0].schema, list(sources[0].rows)
        for right, pairs in zip(sources[1:], steps):
            got = _outer_join(schema, rows, right, pairs)
            assert got == reference_outer_join(schema, rows, right, pairs)
            schema, rows = got


def sse_of_partition(values, split_points):
    total = 0.0
    bounds = [0] + list(split_points) + [len(values)]
    for lo, hi in zip(bounds, bounds[1:]):
        chunk = values[lo:hi]
        mean = sum(chunk) / len(chunk)
        total += sum((v - mean) ** 2 for v in chunk)
    return total


def best_two_means(values):
    """Exhaustive 1-D 2-means over the sorted values (oracle)."""
    values = sorted(values)
    best = None
    for cut in range(1, len(values)):
        sse = sse_of_partition(values, [cut])
        if best is None or sse < best[0]:
            best = (sse, cut)
    cut = best[1]
    return values[:cut], values[cut:]


class TestDeriveLiterals:
    def make_u(self, column, name="a"):
        r = rel("u", [name], [[v] for v in column])
        return UniversalTable(relation=r)

    def test_k_capped_by_adom(self):
        u = self.make_u([1, 2, 3])
        lits = derive_literals(u, "a", 30)
        assert len(lits) == 3
        assert [l.value for l in lits] == [1, 2, 3]

    def test_two_tight_groups(self):
        values = [0, 0.1, 0.2, 9.8, 9.9, 10.0]
        u = self.make_u(values)
        lits = derive_literals(u, "a", 2)
        lo, hi = best_two_means(values)
        expected = set()
        for cluster in (lo, hi):
            centroid = sum(cluster) / len(cluster)
            expected.add(min(cluster, key=lambda v: abs(v - centroid)))
        assert {l.value for l in lits} == expected
        assert {l.value for l in lits} == {0.1, 9.9}

    def test_kmeans_matches_exhaustive_oracle(self):
        # deterministic seeding lands on the SSE-optimal split for well
        # separated groups
        values = [1, 2, 3, 50, 51, 52, 53]
        clusters = kmeans_1d(values, 2)
        lo, hi = best_two_means(values)
        assert sorted(map(tuple, clusters)) == sorted([tuple(map(float, lo)), tuple(map(float, hi))])

    def test_categorical_truncates_by_frequency(self):
        u = self.make_u(["x", "x", "x", "y", "y", "z"])
        lits = derive_literals(u, "a", 2)
        assert {l.value for l in lits} == {"x", "y"}

    def test_empty_adom_gives_no_literals(self):
        u = self.make_u([None, None])
        assert derive_literals(u, "a", 5) == []

    def test_unknown_attribute(self):
        u = self.make_u([1])
        with pytest.raises(ArgumentError):
            derive_literals(u, "nope", 3)

    def test_bad_max_clusters(self):
        u = self.make_u([1])
        with pytest.raises(ArgumentError):
            derive_literals(u, "a", 0)

    @given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=25),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_literal_values_in_adom(self, column, k):
        u = self.make_u(column)
        adom = set(u.relation.adom("a"))
        for lit in derive_literals(u, "a", k):
            assert lit.value in adom

    def test_table_is_frozen_and_derivation_copies_it(self):
        u = self.make_u([1, 2])
        with pytest.raises(FrozenInstanceError):
            u.literal_index = {}
        derived = derive_all_literals(u, 2)
        assert u.literal_index == {}
        assert derived.literals("a") == (Literal("a", 1), Literal("a", 2))
        assert derived.relation is u.relation
        # the literal maps are read-only copies, so no literal can change
        # under the cached cluster tables
        index = {"a": derived.literals("a")}
        v = UniversalTable(relation=u.relation, literal_index=index)
        assert v._cluster_tables["a"].get(2) == 1
        with pytest.raises(TypeError):
            v.literal_index["a"] = (Literal("a", 2),)
        index["a"] = ()
        assert v.literals("a") == (Literal("a", 1), Literal("a", 2))
        assert v._cluster_tables["a"].get(2) == 1


class TestCompressRows:
    def make_u(self, rows):
        r = rel("u", ["a", "b"], rows)
        u = UniversalTable(relation=r)
        return derive_all_literals(u, 2)

    def test_duplicate_merge(self):
        u = self.make_u([[1, 1]] * 4)
        c = compress_rows(u)
        assert len(c.relation.rows) == 1
        assert c.relation.weights == (4,)
        assert c.relation.expanded_row_count == 4

    def test_idempotent(self):
        u = self.make_u([[1, 10], [2, 20], [3, 30], [1, 10]])
        once = compress_rows(u)
        twice = compress_rows(once)
        assert once.relation.rows == twice.relation.rows
        assert once.relation.weights == twice.relation.weights

    def test_representative_table_unchanged(self):
        u = self.make_u([[1, 10], [9, 90]])
        c = compress_rows(u)
        assert set(c.relation.rows) == {(1, 10), (9, 90)}

    def test_six_value_columns_compress_to_four_rows(self):
        vals = [0, 0.1, 0.2, 9.8, 9.9, 10.0]
        rows = [[v, w] for v, w in zip(vals, reversed(vals))]
        u = self.make_u(rows)
        c = compress_rows(u)
        # after nearest-representative replacement at k=2 per column at most
        # 4 distinct (rep_a, rep_b) combinations can remain
        assert len(c.relation.rows) <= 4
        assert c.relation.expanded_row_count == 6

    def test_requires_literals(self):
        u = UniversalTable(relation=rel("u", ["a"], [[1]]))
        with pytest.raises(ArgumentError):
            compress_rows(u)

    def test_truncated_categorical_becomes_null(self):
        r = rel("u", ["a"], [["x"], ["x"], ["y"]])
        u = UniversalTable(relation=r, literal_index={"a": (Literal("a", "x"),)})
        c = compress_rows(u)
        assert set(c.relation.rows) == {("x",), (None,)}


# -- literal derivation against the scalar reference ---------------------------
#
# kmeans_1d, the representative pick and the cluster tables share one numpy
# nearest-center kernel.  The references below do the same work one value at
# a time in plain Python; every comparison is exact (no tolerance), types
# included.


def reference_kmeans_1d(values, k, tol=1e-9, max_iter=200):
    vals = sorted(float(v) for v in values)
    n = len(vals)
    k = min(k, n)
    if k <= 0:
        return []
    centroids = [vals[(2 * j + 1) * n // (2 * k)] for j in range(k)]
    for _ in range(max_iter):
        clusters = [[] for _ in range(k)]
        for v in vals:
            best = min(range(k), key=lambda i: (abs(v - centroids[i]), i))
            clusters[best].append(v)
        new_centroids = [(sum(c) / len(c)) if c else centroids[i] for i, c in enumerate(clusters)]
        shift = max(abs(a - b) for a, b in zip(centroids, new_centroids))
        centroids = new_centroids
        if shift < tol:
            break
    return [c for c in clusters if c]


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def reference_literal_values(u, attribute, max_clusters):
    adom = u.relation.adom(attribute)
    if not adom:
        return []
    if all(is_number(v) for v in adom):
        reps = []
        for cluster in reference_kmeans_1d(adom, min(max_clusters, len(adom))):
            centroid = sum(cluster) / len(cluster)
            rep = min(adom, key=lambda v: (abs(v - centroid), _sort_key(v)))
            if rep not in reps:
                reps.append(rep)
        return sorted(reps, key=_sort_key)
    counts = {}
    for v, w in zip(u.relation.column(attribute), u.relation.row_weights):
        if v is not None:
            counts[v] = counts.get(v, 0) + w
    ranked = sorted(adom, key=lambda v: (-counts.get(v, 0), _sort_key(v)))
    return sorted(ranked[:max_clusters], key=_sort_key)


def reference_cluster_tables(u):
    tables = {}
    for a in u.schema:
        values = [lit.value for lit in u.literal_index.get(a, ())]
        if not values:
            continue
        numeric = all(is_number(v) for v in values)
        mapping = {}
        for v in u.relation.adom(a):
            if numeric and is_number(v):
                mapping[v] = min(range(len(values)), key=lambda i: (abs(v - values[i]), i))
            elif v in values:
                mapping[v] = values.index(v)
        tables[a] = mapping
    return tables


def reference_compress(u, cluster_of):
    merged = {}
    for row, w in zip(u.relation.rows, u.relation.row_weights):
        cells = []
        for a, v in zip(u.schema, row):
            ci = None if v is None else cluster_of(a, v)
            cells.append(None if ci is None else u.literal_index[a][ci].value)
        merged[tuple(cells)] = merged.get(tuple(cells), 0) + w
    return list(merged), list(merged.values())


def typed(values):
    return [(type(v), repr(v)) for v in values]


def assert_same_derivation(columns, k):
    schema = list(columns)
    u = derive_all_literals(UniversalTable(relation=rel("u", schema, zip(*columns.values()))), k)
    for a in schema:
        adom = u.relation.adom(a)
        if adom and all(is_number(v) for v in adom):
            kk = min(k, len(adom))
            assert kmeans_1d(adom, kk) == reference_kmeans_1d(adom, kk), a
        literals = [lit.value for lit in u.literals(a)]
        assert typed(literals) == typed(reference_literal_values(u, a, k)), a
    tables = reference_cluster_tables(u)
    for a in schema:
        for v in u.relation.adom(a):
            assert u._cluster_tables[a].get(v) == tables[a].get(v), (a, v)
    out = compress_rows(u)
    rows, weights = reference_compress(u, lambda a, v: tables[a].get(v))
    assert repr(out.relation.rows) == repr(tuple(rows))
    assert list(out.relation.weights) == weights
    assert out._cluster_tables == UniversalTable(out.relation, out.literal_index)._cluster_tables


def _cases(rng, n):
    mixed = [rng.choice([None, rng.randrange(-40, 40), rng.uniform(-40, 40)]) for _ in range(n)]
    return {
        "gauss-1e-9": [rng.gauss(0, 1e-9) for _ in range(n)],
        "gauss-1": [rng.gauss(0, 1) for _ in range(n)],
        "gauss-1e6": [rng.gauss(0, 1e6) for _ in range(n)],
        "ints": [rng.randrange(-n, n) for _ in range(n)],
        "grid-0.1": [rng.randrange(2 * n) * 0.1 for _ in range(n)],
        "mixed-nulls": mixed,
        "adjacent": [1 + i * 2**-52 for i in range(n)],
        "ints-beyond-2**53": [2**53 + rng.randrange(-2 * n, 2 * n) for _ in range(n)],
    }


CASE_NAMES = sorted(_cases(random.Random(0), 1))


class TestLiteralDifferential:
    @pytest.mark.parametrize("k", [1, 2, 3, 12, 30])
    @pytest.mark.parametrize("case", CASE_NAMES)
    def test_fixed_cases(self, case, k):
        for n in (1, 2, 9, 100, 800):
            column = _cases(random.Random(n), n)[case]
            labels = [random.Random(n).choice("pq") for _ in range(n)]
            assert_same_derivation({"x": column, "label": labels}, k)

    @given(
        st.lists(st.one_of(
            st.none(),
            st.integers(-1000, 1000),
            st.integers(-2**60, 2**60),
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
        ), min_size=1, max_size=60),
        st.sampled_from([1, 2, 3, 12, 30]),
    )
    @settings(max_examples=150, deadline=None)
    def test_generated_columns(self, column, k):
        assert_same_derivation({"x": column}, k)

    @pytest.mark.parametrize("literals, cell, cluster", [
        # float64 rounds 2**53+3 and 2**53+5 both to 2**53+4
        ((2**53 + 2, 2**53 + 5), 2**53 + 3, 0),
        # exact distances 2**54 and 2**54-1 both round to 2**54 in float64
        ((-2**53, -2**53 + 1), 2**53, 1),
    ])
    def test_big_ints_compare_exactly(self, literals, cell, cluster):
        u = UniversalTable(relation=rel("u", ["x"], [[v] for v in (*literals, cell)]),
                           literal_index={"x": tuple(Literal("x", v) for v in literals)})
        assert u._cluster_tables["x"].get(cell) == cluster
        assert u._cluster_tables == reference_cluster_tables(u)


@pytest.mark.parametrize("kind", ["floats", "ints-beyond-2**53"])
@pytest.mark.parametrize("n", [_BLOCK_CELLS // 30 - 1, _BLOCK_CELLS // 30,
                               _BLOCK_CELLS // 30 + 1, 3 * (_BLOCK_CELLS // 30) + 7])
def test_nearest_across_block_boundaries(kind, n):
    # 30 centers: blocks of _BLOCK_CELLS // 30 points, the last one partial
    rng = random.Random(n)
    if kind == "floats":
        centers = sorted(rng.uniform(-5, 5) for _ in range(30))
        points = [rng.uniform(-6, 6) for _ in range(n)]
    else:
        centers = sorted(2**53 + rng.randrange(-100, 100) for _ in range(30))
        points = [2**53 + rng.randrange(-120, 120) for _ in range(n)]
    expect = [min(range(30), key=lambda i: (abs(p - centers[i]), i)) for p in points]
    assert _nearest(points, centers).tolist() == expect


def test_nearest_distance_beyond_float_range():
    # a distance that overflows is inf, as Python's float subtraction makes it
    big = 1.7976931348623155e+308
    centers = [-2.9937604643020797e+292, big]
    points = [big, -big, -2.9937604643020797e+292]
    expect = [min(range(2), key=lambda i: (abs(p - centers[i]), i)) for p in points]
    assert _nearest(points, centers).tolist() == expect == [1, 0, 0]
    assert _nearest([-big], [big, 1e308]).tolist() == [0]  # inf to both: the first wins


# -- the binary-search path of _nearest against the scalar spec ----------------


def nearest_spec(points, centers):
    return [min(range(len(centers)), key=lambda i: (abs(p - centers[i]), i)) for p in points]


def ulp_run(x, n):
    """n ascending floats, each one ulp above the last."""
    run = [x]
    for _ in range(n - 1):
        run.append(math.nextafter(run[-1], math.inf))
    return run


def assert_nearest(points, centers, sorted_path=True):
    expect = nearest_spec(points, centers)
    assert _nearest(points, centers).tolist() == expect
    if sorted_path:  # the kernel alone, as _nearest picks it for these centers
        p, c = np.array(points, dtype=float), np.array(centers, dtype=float)
        assert _nearest_sorted(p, c).tolist() == expect
    return expect


class TestNearestSorted:
    def test_tie_runs_of_centers_one_ulp_apart(self):
        centers = ulp_run(1.0, 4) + ulp_run(1000.0, 5) + ulp_run(1e6, 3)
        points = [0.0, 500.0, 1e3, 2e3, 5e5, 1e9, -1e9, *centers,
                  *(math.nextafter(c, math.inf) for c in centers)]
        expect = assert_nearest(points, centers)
        # a point far from a run is as near to each of its centers: the lowest wins
        assert expect[:7] == [0, 0, 4, 8, 4, 9, 0]

    def test_generated_tie_runs(self):
        rng = random.Random(5)
        for _ in range(300):
            centers = sorted(x for _ in range(rng.randrange(1, 5))
                             for x in ulp_run(rng.uniform(-50, 50), rng.randrange(3, 7)))
            points = [rng.uniform(-100, 100) for _ in range(10)] + \
                     [math.nextafter(rng.choice(centers), rng.choice([-math.inf, math.inf]))
                      for _ in range(10)]
            assert_nearest(points, centers)

    def test_duplicate_centers_and_signed_zeros(self):
        # ascending, since -0.0 == 0.0
        centers = [-1.0, -0.0, 0.0, -0.0, 0.0, 5e-324, 2.0, 2.0, 2.0]
        points = [0.0, -0.0, 1.0, 2.0, 3.0, -0.5, -1.0, -2.0, 1e-300, -1e-300, 5e-324, -5e-324]
        expect = assert_nearest(points, centers)
        assert expect[:2] == [1, 1]  # 0.0 and -0.0 are both at distance 0 from -0.0
        assert expect[3] == 6  # the first of three equal centers

    def test_distances_that_overflow_to_inf(self):
        big = 1.7976931348623157e308
        centers = [-big, -1e308, -3e292, 0.0, 1e308, big]
        points = [big, -big, 1e308, -1e308, 0.0, math.inf, -math.inf, 9e307, -9e307]
        expect = assert_nearest(points, centers)
        assert expect[5:7] == [0, 0]  # inf from every center: the first wins
        assert _nearest([-big], [big, 1e308, big]).tolist() == [0]

    def test_ints_beyond_2_53(self):
        # exact int arithmetic: float64 would round these distances to ties
        centers = [2**53 + 1, 2**53 + 2, 2**53 + 3, 2**60, 2**60 + 1]
        points = [2**53, 2**53 + 2, 2**53 + 3, float(2**53 + 2), 2**60 - 1, 2**60 + 1, 0]
        expect = assert_nearest(points, centers, sorted_path=False)
        assert expect[:3] == [0, 1, 2] and expect[5] == 4
        # ints below 2**52 are exact floats and take the sorted path
        small = [-2**52, -7, 0, 3, 2**52]
        assert_nearest([-2**52 + 1, -4, 1, 2, 2**51, 2**52 - 1, 0.5], small)

    def test_non_ascending_centers(self):
        rng = random.Random(9)
        for _ in range(100):
            centers = [rng.choice([0.0, -0.0, 1.0, 2.5, -3.0, 1e308, -1e308]) for _ in range(6)]
            rng.shuffle(centers)
            points = [rng.uniform(-5, 5) for _ in range(12)] + [1e308, -1e308, 0.0]
            assert_nearest(points, centers, sorted_path=centers == sorted(centers))


@pytest.mark.parametrize("values", [
    [0.3, -1.5, 2.0, 7.25, -0.0, 1e-300],
    [1, 2, 3.5, 4],
    # 2**53 + 1 rounds to 2**53 as a float, so only three values stay distinct
    [2**53, 2**53 + 1, 2**53 + 2, 2**53 + 4],
    [2**53 + 1, 2**53 + 1.0, 2**53 + 3, 2**53 + 5, 2**53 + 7, 5],
    [0.1, 0.1, 0.1, 0.30000000000000004],
])
def test_kmeans_k_equals_n(values):
    assert kmeans_1d(values, len(values)) == reference_kmeans_1d(values, len(values))


# -- k-means iterations that move cuts between runs of the sorted values ------
#
# An iteration whose centroids ascend with every gap above M * 2**-48 (M the
# largest magnitude among the values and the centroids) moves the cuts
# between runs (``_run_cuts``); any other labels every value through
# ``_nearest``.  Unit-scale values beside ~1e17-scale ones (whose floats lie
# 16 apart) put some centroid gaps far above M * 2**-48 and others far below.

unit_floats = st.floats(-4, 4, allow_nan=False)
big_floats = st.tuples(st.sampled_from([1e17, -1e17]), st.integers(-64, 64)).map(
    lambda t: t[0] + 16.0 * t[1])
kmeans_pieces = st.one_of(
    unit_floats.map(lambda x: [x]),
    big_floats.map(lambda x: [x]),
    st.sampled_from([[0.0], [-0.0]]),
    st.tuples(st.one_of(unit_floats, big_floats), st.integers(2, 12)).map(
        lambda t: ulp_run(*t)),
    st.tuples(st.one_of(unit_floats, big_floats), st.integers(2, 4)).map(
        lambda t: [t[0]] * t[1]),  # duplicates
)


def cuts_of(labels, k):
    """The cuts between the runs of ascending ``labels``."""
    assert labels == sorted(labels)
    return [sum(label < i for label in labels) for i in range(k + 1)]


def run_cut_results(monkeypatch):
    """Record, for each iteration, whether ``_run_cuts`` found the clusters."""
    found = []
    monkeypatch.setattr(tabular, "_run_cuts",
                        lambda *args: found.append(_run_cuts(*args)) or found[-1])
    return found


class TestKmeansRuns:
    @given(st.lists(kmeans_pieces, min_size=1, max_size=12).map(
        lambda pieces: [v for piece in pieces for v in piece]), st.integers(1, 12))
    @settings(max_examples=200, deadline=None)
    def test_matches_reference_across_the_guard(self, column, k):
        assert repr(kmeans_1d(column, k)) == repr(reference_kmeans_1d(column, k))

    def test_guard_at_the_gap_edge(self):
        # M is 1.0, so a centroid gap must exceed 2**-48: a gap of exactly
        # 2**-48 fails the guard, and one ulp more passes it
        vals = sorted([-1.0, 1.0, -0.5, *ulp_run(0.25, 80), *ulp_run(0.25 + 2**-47, 80)])
        at = 0.25 + 2**-48
        above = math.nextafter(at, math.inf)
        assert _run_cuts(vals, [-0.5, 0.25, at], 1.0, None) is None
        assert _run_cuts(vals, [-0.5, 0.25, above, above + 2**-48], 1.0, None) is None
        for centroids in ([-0.5, 0.25, above], [-0.5, 0.25, above, above + 2**-47]):
            cuts = cuts_of(nearest_spec(vals, centroids), len(centroids))
            assert _run_cuts(vals, centroids, 1.0, None) == cuts
            assert 0 < cuts[2] - cuts[1] < 80  # the ulp run splits between 0.25 and above

    def test_rounded_ties_past_the_midpoint_stay_below(self):
        # a value v below 2**-54 lies at 1.0 from both -1.0 and 1.0 once
        # rounded, so the tie keeps it with -1.0: the cut is 56 values past
        # the midpoint 0.0
        vals = [-1.0, *(i * 1e-18 for i in range(100)), 1.0]
        cuts = _run_cuts(vals, [-1.0, 1.0], 1.0, None)
        assert cuts == cuts_of(nearest_spec(vals, [-1.0, 1.0]), 2) == [0, 57, 102]
        # seeds -(1 + 5 * 2**-52) and 1 + 5 * 2**-52, whose midpoint is 0.0
        column = [-v for v in ulp_run(1.0, 60)] + vals[1:99] + ulp_run(1.0, 60)
        assert repr(kmeans_1d(column, 2)) == repr(reference_kmeans_1d(column, 2))

    @pytest.mark.parametrize("last", [0.25 + 2**-48, math.nextafter(0.25 + 2**-48, math.inf)])
    def test_first_iteration_at_the_gap_edge(self, monkeypatch, last):
        # seeds -0.5, 0.25 and the last value, 2**-48 apart or one ulp more
        column = [-1.0, -0.5, 0.0, 0.25, 0.25 + 2**-49, last]
        found = run_cut_results(monkeypatch)
        assert repr(kmeans_1d(column, 3)) == repr(reference_kmeans_1d(column, 3))
        assert (found[0] is not None) == (last > 0.25 + 2**-48)

    def test_iterations_take_both_paths_in_one_call(self, monkeypatch):
        # the seeds 1e17 and 1e17 + 32 lie closer than 1e17 * 2**-48; the
        # next centroids, near 5e16 and 1e17, do not
        column = [-0.0, 1e17, 1e17 + 16, 1e17 + 32]
        found = run_cut_results(monkeypatch)
        assert repr(kmeans_1d(column, 2)) == repr(reference_kmeans_1d(column, 2))
        assert found[0] is None and found[1] is not None

    def test_well_spread_column_labels_no_value(self, monkeypatch):
        rng = random.Random(700)
        column = [rng.gauss(0.0, 1.0) for _ in range(700)]
        monkeypatch.setattr(tabular, "_run_cuts", lambda *args: None)
        labelled = kmeans_1d(column, 30)  # every iteration through _nearest
        monkeypatch.undo()

        def no_labels(points, centers):
            raise AssertionError("_nearest called")
        monkeypatch.setattr(tabular, "_nearest", no_labels)
        assert kmeans_1d(column, 30) == labelled

    # recorded from the labelling loop, which the scalar reference is too
    # slow to check at these sizes; sum() of floats, and so a centroid's
    # last bits, is as Python 3.11 computes it
    @pytest.mark.parametrize("kind, n, digest", [
        ("gauss", 5000, "1da6406ce2a378a9987a47c2dec0c0bb126272da9ead376bac646354796254c9"),
        ("gauss", 50000, "e4708b78297162ed6a89d4e608c45e61c24355009f2ae406e47b6f4c4f91c2b5"),
        ("lognormal", 5000, "e45aa26c292ca93f900c07a7c727eeeb70b149f9fce2d11a56cbfc7c10d202b7"),
        ("lognormal", 50000, "9006c470e7427e18b9946be33f3c4ea6e4b860d5943a0d6c7fc4ae75f5274e9e"),
    ])
    def test_large_columns_keep_their_clusters(self, kind, n, digest):
        rng = random.Random(n)
        draw = rng.gauss if kind == "gauss" else rng.lognormvariate
        clusters = kmeans_1d([draw(0.0, 1.0) for _ in range(n)], 30)
        assert hashlib.sha256(repr(clusters).encode()).hexdigest() == digest


class TestOuterJoinCompression:
    """compress_rows and the StateSpace bit masks on a universal whose
    float columns are null-padded by an outer join, against per-cell
    lookups in ``_cluster_tables``; at k >= 7 the cluster tables take the sorted kernel."""

    def universal(self, k):
        rng = random.Random(k)
        left = rel("left", ["key", "x", "label"],
                   [[i, rng.gauss(0, 3), rng.choice("pqr")] for i in range(0, 1200, 2)])
        right = rel("right", ["key", "z"],
                    [[i, rng.choice([None, rng.uniform(-1, 1), rng.randrange(5)])]
                     for i in range(0, 1200, 3)])
        u = build_universal([left, right], {("left", "right"): [("key", "key")]})
        assert None in u.relation.column("x") and None in u.relation.column("z")
        return derive_all_literals(u, k)

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 30])
    def test_compress_rows_matches_per_cell_clusters(self, k):
        u = self.universal(k)
        out = compress_rows(u)
        rows, weights = reference_compress(u, lambda a, v: u._cluster_tables[a].get(v))
        assert repr(out.relation.rows) == repr(tuple(rows))
        assert list(out.relation.weights) == weights

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 30])
    def test_compressed_space_makes_no_nearest_pass(self, k, monkeypatch):
        out = compress_rows(self.universal(k))
        calls = []
        monkeypatch.setattr(tabular, "_nearest", lambda *args: calls.append(args) or _nearest(*args))
        StateSpace(out)
        assert calls == []
        # the tables compress_rows hands over are the ones a fresh pass builds
        assert out._cluster_tables == UniversalTable(out.relation, out.literal_index)._cluster_tables
        assert calls

    @pytest.mark.parametrize("k", [1, 2, 3, 7, 30])
    def test_state_space_masks_match_per_cell_clusters(self, k):
        for u in (self.universal(k), compress_rows(self.universal(k))):
            space = StateSpace(u)
            for i, lit in enumerate(space.bit_literals):
                a = lit.attribute
                # with only bit i set, attribute a keeps its nulls and cluster i
                # and every other attribute is absent
                c = u.schema.index(a)
                table = u._cluster_tables[a]
                keep = [r for r, row in enumerate(u.relation.rows)
                        if row[c] is None or table.get(row[c]) == u.literals(a).index(lit)]
                mask = space.row_mask(space.bitmap_from_bits([i]))
                assert space.row_indices(mask).tolist() == keep, (a, lit)
