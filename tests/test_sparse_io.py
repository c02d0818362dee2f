"""Tests for repro.sparse.io — MatrixMarket reading and writing."""

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sparse.io import MatrixMarketError, read_matrix_market, write_matrix_market
from repro.util.errors import ReproError, ValidationError
from repro.workloads.dataset import dataset_from_matrix_market
from tests.conftest import random_sparse

GENERAL = """%%MatrixMarket matrix coordinate real general
% a comment
3 4 3
1 1 2.5
2 3 -1.0
3 4 7
"""

SYMMETRIC = """%%MatrixMarket matrix coordinate real symmetric
3 3 3
1 1 1.0
2 1 2.0
3 2 3.0
"""

SKEW = """%%MatrixMarket matrix coordinate real skew-symmetric
3 3 2
2 1 4.0
3 1 -5.0
"""

PATTERN = """%%MatrixMarket matrix coordinate pattern general
2 2 2
1 2
2 1
"""


class TestRead:
    def test_general(self):
        m = read_matrix_market(io.StringIO(GENERAL))
        assert m.shape == (3, 4)
        dense = m.to_dense()
        assert dense[0, 0] == 2.5 and dense[1, 2] == -1.0 and dense[2, 3] == 7.0

    def test_symmetric_mirrors(self):
        m = read_matrix_market(io.StringIO(SYMMETRIC))
        dense = m.to_dense()
        assert dense[0, 1] == dense[1, 0] == 2.0
        assert dense[1, 2] == dense[2, 1] == 3.0
        assert m.nnz == 5  # diagonal entry not duplicated

    def test_skew_symmetric_negates(self):
        m = read_matrix_market(io.StringIO(SKEW))
        dense = m.to_dense()
        assert dense[1, 0] == 4.0 and dense[0, 1] == -4.0
        assert dense[2, 0] == -5.0 and dense[0, 2] == 5.0

    def test_pattern_entries_are_one(self):
        m = read_matrix_market(io.StringIO(PATTERN))
        assert np.all(m.data == 1.0)

    def test_from_file(self, tmp_path):
        path = tmp_path / "a.mtx"
        path.write_text(GENERAL)
        assert read_matrix_market(path).nnz == 3

    @pytest.mark.parametrize("text,fragment", [
        ("", "empty"),
        ("%%MatrixMarket matrix array real general\n1 1\n1.0\n", "coordinate"),
        ("%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n", "field"),
        ("%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n", "symmetry"),
        ("not a header\n", "header"),
        ("%%MatrixMarket matrix coordinate real general\n", "size"),
        ("%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", "declares"),
        ("%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1\n", "bad entry"),
    ])
    def test_malformed_rejected(self, text, fragment):
        with pytest.raises(ValidationError) as exc:
            read_matrix_market(io.StringIO(text))
        assert fragment.split()[0] in str(exc.value).lower()

    @pytest.mark.parametrize("entry", ["2 2 2-.0", "2 x 1.0", "1.5 1 1.0", "3 1 1.0", "1 0 1.0"])
    def test_bad_entry_names_its_line(self, entry):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "% a comment line\n2 2 2\n1 1 1.0\n" + entry + "\n"
        )
        with pytest.raises(MatrixMarketError, match="line 5") as exc:
            read_matrix_market(io.StringIO(text))
        assert isinstance(exc.value, ReproError)
        assert entry in str(exc.value) or "outside" in str(exc.value)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.integers(0, len(GENERAL) - 1), st.sampled_from("0129 .-+e%x\n")),
            min_size=1,
            max_size=3,
        )
    )
    def test_mutated_file_raises_only_repro_errors(self, edits):
        chars = list(GENERAL)
        for position, char in edits:
            chars[position] = char
        try:
            read_matrix_market(io.StringIO("".join(chars)))
        except ReproError:
            pass


class TestWriteRoundTrip:
    def test_round_trip(self):
        a = random_sparse(25, 30, 0.15, seed=1)
        buf = io.StringIO()
        write_matrix_market(a, buf, comment="generated for tests")
        buf.seek(0)
        b = read_matrix_market(buf)
        assert b.allclose(a)

    def test_round_trip_via_file(self, tmp_path):
        a = random_sparse(10, 10, 0.3, seed=2)
        path = tmp_path / "m.mtx"
        write_matrix_market(a, path)
        assert read_matrix_market(path).allclose(a)

    def test_empty_matrix(self):
        from repro.sparse.construct import from_dense

        a = from_dense(np.zeros((3, 3)))
        buf = io.StringIO()
        write_matrix_market(a, buf)
        buf.seek(0)
        assert read_matrix_market(buf).nnz == 0


class TestDatasetFromMatrixMarket:
    def test_wraps_square_matrix(self, tmp_path):
        a = random_sparse(20, 20, 0.2, seed=3)
        path = tmp_path / "real.mtx"
        write_matrix_market(a, path)
        ds = dataset_from_matrix_market(str(path))
        assert ds.name == "real"
        assert ds.n == 20
        assert ds.as_graph().n == 20

    def test_rejects_rectangular(self, tmp_path):
        a = random_sparse(5, 7, 0.4, seed=4)
        path = tmp_path / "rect.mtx"
        write_matrix_market(a, path)
        with pytest.raises(ValidationError):
            dataset_from_matrix_market(str(path))
