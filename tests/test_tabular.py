import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skyforge import (
    ArgumentError,
    Literal,
    Relation,
    SchemaConflictError,
    UniversalTable,
    build_universal,
    compress_rows,
    derive_all_literals,
    derive_literals,
    ingest_csv,
    kmeans_1d,
)
from skyforge.tabular import _sort_key


def rel(name, schema, rows):
    return Relation.from_rows(name, schema, rows)


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
        with pytest.raises(SchemaConflictError):
            build_universal([left, right], {("l", "r"): [("id", "id")]})

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
        assert u.provenance["c7"] == "s2"

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
        u = UniversalTable(relation=r)
        u.literal_index = {"a": (Literal("a", "x"),)}
        u.invalidate_caches()
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


def reference_compress(u, tables):
    merged = {}
    for row, w in zip(u.relation.rows, u.relation.row_weights):
        cells = []
        for a, v in zip(u.schema, row):
            ci = None if v is None else tables[a].get(v)
            cells.append(None if ci is None else u.literal_index[a][ci].value)
        merged[tuple(cells)] = merged.get(tuple(cells), 0) + w
    return list(merged), list(merged.values())


def typed(values):
    return [(type(v), repr(v)) for v in values]


def assert_same_derivation(columns, k):
    schema = list(columns)
    u = UniversalTable(relation=rel("u", schema, zip(*columns.values())))
    derive_all_literals(u, k)
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
            assert u.cluster_of(a, v) == tables[a].get(v), (a, v)
    out = compress_rows(u)
    rows, weights = reference_compress(u, tables)
    assert repr(out.relation.rows) == repr(tuple(rows))
    assert list(out.relation.weights) == weights


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
        u = UniversalTable(relation=rel("u", ["x"], [[v] for v in (*literals, cell)]))
        u.literal_index = {"x": tuple(Literal("x", v) for v in literals)}
        u.invalidate_caches()
        assert u.cluster_of("x", cell) == cluster
        assert u._cluster_tables() == reference_cluster_tables(u)
