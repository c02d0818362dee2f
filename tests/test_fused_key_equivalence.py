"""Fused-key construction is byte-identical to the sorts it replaced.

``from_coo``, ``Graph`` and ``estimate_compression`` sort by one fused int64
key (``row * n_cols + col``, ``lo * n + hi``, ``sample * n_cols + col``).
The implementations they replaced — a two-key ``np.lexsort``, a 2m-entry
stable argsort, a per-row ``np.unique`` loop — live on here only as
references, and every test compares arrays or ratios byte for byte.  The
O(nnz) row-start check in ``CsrMatrix._validate`` and the weighted
``bincount`` in ``load_vector`` are held to their old forms the same way.
"""

from __future__ import annotations

import importlib
import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs.graph import Graph
from repro.sparse.construct import from_coo
from repro.sparse.csr import CsrMatrix, _ranges_gather
from repro.sparse.io import read_matrix_market
from repro.sparse.spgemm import estimate_compression, load_vector
from repro.util.errors import ValidationError
from repro.util.rng import as_generator
from repro.workloads.suite import dataset_names, load_dataset
from tests.conftest import random_sparse

# ``repro.sparse.spgemm`` the attribute is the function; this is the module.
spgemm_module = importlib.import_module("repro.sparse.spgemm")

# -- the replaced implementations (references only) -----------------------------


def lexsort_from_coo(rows, cols, vals, shape, sum_duplicates=True):
    """``(indptr, indices, data)`` as the two-key lexsort path built them."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    order = np.lexsort((cols, rows))
    rows, cols, vals = rows[order], cols[order], vals[order]
    if rows.size:
        dup = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if np.any(dup):
            if not sum_duplicates:
                raise ValidationError("duplicate coordinates present")
            first = np.concatenate(([True], ~dup))
            seg_ids = np.cumsum(first) - 1
            summed = np.zeros(int(seg_ids[-1]) + 1, dtype=np.float64)
            np.add.at(summed, seg_ids, vals)
            rows, cols, vals = rows[first], cols[first], summed
    indptr = np.concatenate(([0], np.cumsum(np.bincount(rows, minlength=shape[0]))))
    return indptr.astype(np.int64), cols, vals


def argsort_graph(n, edge_u, edge_v):
    """``(edge_u, edge_v, indptr, adjacency)`` as the 2m-argsort path built them."""
    u = np.asarray(edge_u, dtype=np.int64)
    v = np.asarray(edge_v, dtype=np.int64)
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    if lo.size:
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        keep = np.concatenate(([True], (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])))
        lo, hi = lo[keep], hi[keep]
    both_src = np.concatenate([lo, hi])
    both_dst = np.concatenate([hi, lo])
    counts = np.bincount(both_src, minlength=n)
    indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
    adjacency = both_dst[np.argsort(both_src, kind="stable")]
    return lo, hi, indptr, adjacency


def per_row_compression(a, b, max_rows=256, rng=None):
    """The per-row ``np.unique`` loop of the old ``estimate_compression``."""
    lv = load_vector(a, b)
    if float(lv.sum()) == 0:
        return 1.0
    if rng is None:
        rng = (a.n_rows * 1_000_003 + a.nnz * 101 + b.nnz) % (2**63)
    rng = as_generator(rng)
    candidates = np.flatnonzero(lv > 0)
    rows = rng.choice(candidates, size=min(max_rows, candidates.size), replace=False)
    sampled_mults = 0.0
    sampled_nnz = 0.0
    b_row_nnz = b.row_nnz()
    for i in rows:
        cols_a, _ = a.row(int(i))
        if cols_a.size == 0:
            continue
        expand_counts = b_row_nnz[cols_a]
        out_cols = b.indices[_ranges_gather(b.indptr[cols_a], expand_counts)]
        sampled_mults += float(out_cols.size)
        sampled_nnz += float(np.unique(out_cols).size)
    if sampled_mults == 0:
        return 1.0
    return float(np.clip(sampled_nnz / sampled_mults, 0.0, 1.0))


def add_at_load_vector(a, b):
    out = np.zeros(a.n_rows, dtype=np.float64)
    rows = np.repeat(np.arange(a.n_rows, dtype=np.int64), a.row_nnz())
    np.add.at(out, rows, b.row_nnz().astype(np.float64)[a.indices])
    return out


def isin_indices_ok(indptr, indices):
    """The old sorted-unique-per-row rule: descents only at row boundaries."""
    descents = np.flatnonzero(np.diff(indices) <= 0) + 1
    return bool(np.all(np.isin(descents, indptr[1:-1])))


def assert_bytes_equal(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# -- strategies -----------------------------------------------------------------

_VALUES = st.floats(
    min_value=-1e12, max_value=1e12, allow_nan=False, allow_infinity=False
)


@st.composite
def coo_inputs(draw):
    n_rows = draw(st.integers(0, 12))
    n_cols = draw(st.integers(0, 12))
    if n_rows == 0 or n_cols == 0:
        entries = []
    else:
        entries = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n_rows - 1), st.integers(0, n_cols - 1), _VALUES
                ),
                max_size=60,
            )
        )
    rows = np.array([e[0] for e in entries], dtype=np.int64)
    cols = np.array([e[1] for e in entries], dtype=np.int64)
    vals = np.array([e[2] for e in entries], dtype=np.float64)
    if draw(st.booleans()):
        # Presorted (row-major) input: the sort is skipped.
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
    return rows, cols, vals, (n_rows, n_cols)


@st.composite
def edge_lists(draw):
    n = draw(st.integers(0, 15))
    if n < 2:
        return n, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda p: p[0] != p[1]
            ),
            max_size=50,
        )
    )
    # Repeat a prefix of the edges in the opposite orientation.
    flipped = draw(st.integers(0, len(pairs)))
    pairs = pairs + [(v, u) for u, v in pairs[:flipped]]
    order = draw(st.permutations(range(len(pairs))))
    u = np.array([pairs[i][0] for i in order], dtype=np.int64)
    v = np.array([pairs[i][1] for i in order], dtype=np.int64)
    return n, u, v


# -- from_coo -------------------------------------------------------------------


class TestFromCooMatchesLexsort:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(coo_inputs())
    def test_summed(self, case):
        rows, cols, vals, shape = case
        got = from_coo(rows, cols, vals, shape)
        want = lexsort_from_coo(rows, cols, vals, shape)
        for g, w in zip((got.indptr, got.indices, got.data), want):
            assert_bytes_equal(g, w)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(coo_inputs())
    def test_duplicates_refused_alike(self, case):
        rows, cols, vals, shape = case
        try:
            want = lexsort_from_coo(rows, cols, vals, shape, sum_duplicates=False)
        except ValidationError:
            with pytest.raises(ValidationError, match="duplicate"):
                from_coo(rows, cols, vals, shape, sum_duplicates=False)
            return
        got = from_coo(rows, cols, vals, shape, sum_duplicates=False)
        for g, w in zip((got.indptr, got.indices, got.data), want):
            assert_bytes_equal(g, w)

    def test_duplicates_fold_in_input_order(self):
        # 1e16 + 1 + 1 != 1 + 1 + 1e16 in float64: the fold order shows.
        rows = np.array([2, 0, 2, 2, 1, 2])
        cols = np.array([3, 0, 3, 3, 4, 3])
        vals = np.array([1e16, 5.0, 1.0, 1.0, -2.0, -1e16])
        got = from_coo(rows, cols, vals, (4, 5))
        want = lexsort_from_coo(rows, cols, vals, (4, 5))
        assert_bytes_equal(got.data, want[2])
        assert got.data[2] == (1e16 + 1.0 + 1.0) - 1e16

    def test_many_duplicates(self):
        # Large enough that an unstable sort would reorder equal keys.
        gen = np.random.default_rng(17)
        rows = gen.integers(0, 40, 20_000)
        cols = gen.integers(0, 30, 20_000)
        vals = gen.standard_normal(20_000) * 10.0 ** gen.integers(-8, 8, 20_000)
        got = from_coo(rows, cols, vals, (40, 30))
        want = lexsort_from_coo(rows, cols, vals, (40, 30))
        for g, w in zip((got.indptr, got.indices, got.data), want):
            assert_bytes_equal(g, w)

    def test_does_not_alias_presorted_values(self):
        vals = np.array([1.0, 2.0])
        a = from_coo(np.array([0, 1]), np.array([1, 0]), vals, (2, 2))
        vals[0] = 99.0
        assert a.data[0] == 1.0

    def test_large_suite_matrix_round_trip(self):
        a = load_dataset("web-BerkStan", scale=1 / 128).matrix
        rows = np.repeat(np.arange(a.n_rows), a.row_nnz())
        perm = np.random.default_rng(3).permutation(a.nnz)
        args = (rows[perm], a.indices[perm], a.data[perm], a.shape)
        got = from_coo(*args)
        for g, w in zip((got.indptr, got.indices, got.data), lexsort_from_coo(*args)):
            assert_bytes_equal(g, w)


# -- Graph ----------------------------------------------------------------------


class TestGraphMatchesArgsort:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(edge_lists())
    def test_arrays(self, case):
        n, u, v = case
        g = Graph(n, u, v)
        want = argsort_graph(n, u, v)
        for got, w in zip((g.edge_u, g.edge_v, g.indptr, g.adjacency), want):
            assert_bytes_equal(got, w)

    def test_neighbour_order_higher_then_lower(self):
        g = Graph(6, np.array([3, 5, 3, 1, 0, 4]), np.array([0, 3, 1, 3, 3, 3]))
        # Vertex 3: higher neighbours ascending, then lower ones ascending.
        assert g.neighbors(3).tolist() == [4, 5, 0, 1]
        assert g.neighbors(2).size == 0  # isolated

    def test_suite_graph(self):
        g = load_dataset("germany_osm", scale=1 / 128).as_graph()
        perm = np.random.default_rng(5).permutation(g.m)
        # Feed the edges shuffled and half of them flipped.
        u, v = g.edge_u[perm].copy(), g.edge_v[perm].copy()
        flip = np.arange(g.m) % 2 == 1
        u[flip], v[flip] = g.edge_v[perm][flip], g.edge_u[perm][flip]
        h = Graph(g.n, u, v)
        want = argsort_graph(g.n, u, v)
        for got, w in zip((h.edge_u, h.edge_v, h.indptr, h.adjacency), want):
            assert_bytes_equal(got, w)


# -- estimate_compression -------------------------------------------------------


class TestCompressionMatchesPerRowUnique:
    @pytest.mark.parametrize("name", dataset_names())
    def test_suite_dataset(self, name):
        a = load_dataset(name, scale=1 / 128).matrix
        assert estimate_compression(a, a) == per_row_compression(a, a)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.integers(1, 30),
        st.integers(1, 30),
        st.integers(1, 30),
        st.floats(0.02, 0.6),
        st.integers(0, 2**32 - 1),
        st.integers(1, 40),
    )
    def test_random_operands(self, m, k, n, density, seed, max_rows):
        a = random_sparse(m, k, density, seed)
        b = random_sparse(k, n, density, seed + 1)
        got = estimate_compression(a, b, max_rows=max_rows, rng=seed)
        assert got == per_row_compression(a, b, max_rows=max_rows, rng=seed)

    @pytest.mark.parametrize("block_mults", [1, 7, 64])
    def test_block_boundaries(self, monkeypatch, block_mults):
        # Tiny blocks: rows heavier than a block, and blocks of many rows.
        monkeypatch.setattr(spgemm_module, "_SAMPLE_BLOCK_MULTS", block_mults)
        a = random_sparse(50, 40, 0.1, seed=11)
        b = random_sparse(40, 45, 0.2, seed=12)
        got = estimate_compression(a, b, max_rows=30)
        assert got == per_row_compression(a, b, max_rows=30)


# -- the cheaper exact checks ---------------------------------------------------


class TestCheapChecks:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(0, 4), max_size=6),
        st.data(),
    )
    def test_row_start_mask_matches_isin(self, lengths, data):
        indptr = np.concatenate(([0], np.cumsum(lengths))).astype(np.int64)
        nnz = int(indptr[-1])
        indices = np.array(
            data.draw(st.lists(st.integers(0, 5), min_size=nnz, max_size=nnz)),
            dtype=np.int64,
        )
        ok = isin_indices_ok(indptr, indices)
        try:
            CsrMatrix(indptr, indices, np.ones(nnz), (len(lengths), 6))
        except ValidationError as exc:
            assert not ok
            assert "sorted and unique" in str(exc)
        else:
            assert ok

    @pytest.mark.parametrize("name", ["web-BerkStan", "pdb1HYS", "germany_osm"])
    def test_load_vector_bincount_matches_add_at(self, name):
        a = load_dataset(name, scale=1 / 128).matrix
        assert_bytes_equal(load_vector(a, a), add_at_load_vector(a, a))


# -- the int64 key guard --------------------------------------------------------


class TestKeyOverflowGuard:
    def test_from_coo_names_the_shape(self):
        with pytest.raises(ValidationError, match=r"\(4294967296, 4294967296\)"):
            from_coo(np.array([0]), np.array([0]), np.array([1.0]), (2**32, 2**32))

    def test_from_coo_accepts_the_largest_key(self):
        # n_rows * n_cols == 2**63: the largest key, 2**63 - 1, still fits.
        a = from_coo(np.array([1]), np.array([2**62 - 1]), np.array([1.0]), (2, 2**62))
        assert a.indptr.tolist() == [0, 0, 1]
        assert a.indices.tolist() == [2**62 - 1]

    def test_graph_names_n(self):
        with pytest.raises(ValidationError, match="n=4000000000"):
            Graph(4_000_000_000, np.array([0]), np.array([1]))

    def test_matrix_market_header(self):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "4000000000 4000000000 1\n"
            "1 1 1.0\n"
        )
        with pytest.raises(ValidationError, match="4000000000"):
            read_matrix_market(io.StringIO(text))
