"""Row-row (Gustavson) sparse matrix-matrix multiplication.

Two entry points matter to the paper:

* :func:`load_vector` — the exact work-volume predictor from Section IV:
  with ``V_B[k]`` the nonzero count of row ``k`` of ``B``, the product
  ``|A| x V_B`` gives ``L_AB[i]``, the number of multiply-accumulates row
  ``i`` of ``A`` generates in ``A x B``.  Algorithm 2 splits ``A`` on the
  prefix sums of this vector, and the cost models charge device time
  against it.
* :func:`spgemm` — the actual numeric product, used to verify results and
  to run the real kernels in examples/tests.  Implemented as the vectorized
  "expand, sort, coalesce" formulation of Gustavson's algorithm: every
  nonzero ``a_ik`` expands into ``a_ik * B[k, :]``, and the expanded
  coordinate list is folded by (row, col).
"""

from __future__ import annotations

import numpy as np

from repro.sparse.construct import from_coo
from repro.sparse.csr import CsrMatrix, _ranges_gather
from repro.util.errors import ValidationError
from repro.util.rng import as_generator

_INDEX = np.int64
#: Multiplies per keyed sort in :func:`estimate_compression`.
_SAMPLE_BLOCK_MULTS = 1 << 16


def _check_compatible(a: CsrMatrix, b: CsrMatrix) -> None:
    if a.n_cols != b.n_rows:
        raise ValidationError(
            f"incompatible shapes for product: {a.shape} x {b.shape}"
        )


def load_vector(a: CsrMatrix, b: CsrMatrix) -> np.ndarray:
    """``L_AB``: multiply-accumulate count of each row of ``A`` in ``A x B``.

    Exactly the paper's ``A x V_B`` trick, computed pattern-only: for each
    row ``i`` of ``A``, sum ``row_nnz(B)[k]`` over the columns ``k`` where
    ``A`` is nonzero.  Runs in O(nnz(A)).
    """
    _check_compatible(a, b)
    v_b = b.row_nnz().astype(np.float64)
    contributions = v_b[a.indices]
    rows = np.repeat(np.arange(a.n_rows, dtype=_INDEX), a.row_nnz())
    return np.bincount(rows, weights=contributions, minlength=a.n_rows)


def row_flops(a: CsrMatrix, b: CsrMatrix) -> np.ndarray:
    """Per-row FLOPs of ``A x B`` (2 per multiply-accumulate)."""
    return 2.0 * load_vector(a, b)


def total_flops(a: CsrMatrix, b: CsrMatrix) -> float:
    """Total FLOPs of the product."""
    return float(row_flops(a, b).sum())


# The bucketed fold walks a dense accumulator of n_cols cells per row; it
# only pays off when the expansion stream roughly fills those cells.  Below
# this expansion-to-cells ratio the sort-based fold in ``from_coo`` wins.
_FOLD_DENSITY_CUTOFF = 8
# Dense-accumulator budget per row block (cells, not bytes): bounds peak
# memory of the fold at ~3 arrays of this many elements.
_FOLD_BLOCK_CELLS = 1 << 22


def _bucket_fold(
    exp_ptr: np.ndarray,
    out_cols: np.ndarray,
    out_vals: np.ndarray,
    shape: tuple[int, int],
) -> CsrMatrix:
    """Fold an expansion stream (already grouped by row) without sorting.

    ``exp_ptr[r]`` bounds row *r*'s slice of ``out_cols``/``out_vals`` — the
    stream ``np.repeat`` produces is non-decreasing in row, so no sort is
    needed: each row block scatters into a dense ``rows_in_block x n_cols``
    accumulator via ``np.bincount``.  Weighted bincount adds duplicates in
    input order — the same left-fold :func:`from_coo` performs after its
    stable fused-key sort — so the result is bit-identical to that path.
    Unweighted counts supply the structural pattern, which keeps explicit
    zeros exactly as ``from_coo`` does.
    """
    n_rows, n_cols = shape
    block_rows = max(1, _FOLD_BLOCK_CELLS // max(n_cols, 1))
    row_exp = np.diff(exp_ptr)
    cols_parts: list[np.ndarray] = []
    vals_parts: list[np.ndarray] = []
    row_counts = np.zeros(n_rows, dtype=_INDEX)
    for r0 in range(0, n_rows, block_rows):
        r1 = min(r0 + block_rows, n_rows)
        lo, hi = int(exp_ptr[r0]), int(exp_ptr[r1])
        if lo == hi:
            continue
        local = np.repeat(np.arange(r1 - r0, dtype=_INDEX), row_exp[r0:r1])
        key = local * n_cols + out_cols[lo:hi]
        cells = (r1 - r0) * n_cols
        hits = np.bincount(key, minlength=cells)
        sums = np.bincount(key, weights=out_vals[lo:hi], minlength=cells)
        nz = np.flatnonzero(hits)
        cols_parts.append(nz % n_cols)
        vals_parts.append(sums[nz])
        row_counts[r0:r1] = np.bincount(nz // n_cols, minlength=r1 - r0)
    indices = (
        np.concatenate(cols_parts) if cols_parts else np.empty(0, dtype=_INDEX)
    )
    data = (
        np.concatenate(vals_parts) if vals_parts else np.empty(0, dtype=np.float64)
    )
    indptr = np.concatenate(([0], np.cumsum(row_counts)))
    return CsrMatrix(indptr, indices, data, shape)


def spgemm(a: CsrMatrix, b: CsrMatrix) -> CsrMatrix:
    """Numeric product ``C = A x B`` via vectorized Gustavson expansion.

    Memory use is proportional to the multiply count (``sum(load_vector)``),
    the same intermediate size a hash-based Gustavson would stream through;
    suitable for the scaled experiment instances and all tests.

    Dense expansion streams (banded operands, where overlapping bands make
    the per-row expansion comparable to ``n_cols``) skip the ``from_coo``
    sort entirely and fold through :func:`_bucket_fold`; sparse streams
    (rmat/uniform) keep the sort-based fold.  Both paths produce
    bit-identical matrices.
    """
    _check_compatible(a, b)
    if a.nnz == 0 or b.nnz == 0:
        return from_coo(
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=np.float64),
            (a.n_rows, b.n_cols),
        )
    b_row_nnz = b.row_nnz()
    # Per A-nonzero: how many products it expands into (the nnz of B's row
    # selected by the A-nonzero's column).
    expand_counts = b_row_nnz[a.indices]
    cum_exp = np.concatenate(([0], np.cumsum(expand_counts)))
    total = int(cum_exp[-1])
    shape = (a.n_rows, b.n_cols)
    if total == 0:
        return from_coo(
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=_INDEX),
            np.empty(0, dtype=np.float64),
            shape,
        )
    gather = _ranges_gather(b.indptr[a.indices], expand_counts)
    out_cols = b.indices[gather]
    out_vals = np.repeat(a.data, expand_counts) * b.data[gather]
    if a.n_rows * b.n_cols <= _FOLD_DENSITY_CUTOFF * total:
        # exp_ptr[r] = first expansion entry of row r (a.indptr indexes the
        # per-nonzero prefix sums).
        exp_ptr = cum_exp[a.indptr]
        return _bucket_fold(exp_ptr, out_cols, out_vals, shape)
    a_rows = np.repeat(np.arange(a.n_rows, dtype=_INDEX), a.row_nnz())
    out_rows = np.repeat(a_rows, expand_counts)
    return from_coo(out_rows, out_cols, out_vals, shape)


def spgemm_dense_reference(a: CsrMatrix, b: CsrMatrix) -> np.ndarray:
    """Dense O(n^3)-ish reference product for small-matrix tests."""
    _check_compatible(a, b)
    return a.to_dense() @ b.to_dense()


def estimate_compression(
    a: CsrMatrix, b: CsrMatrix, max_rows: int = 256, rng=None
) -> float:
    """Estimate ``nnz(AxB) / multiply-count`` from a row sample.

    Row-row SpGEMM merges colliding column contributions, so the output is
    smaller than the multiply stream — dramatically so for banded matrices
    (overlapping bands collide constantly), hardly at all for uniform
    random ones.  The result-transfer terms of the cost models need this
    ratio; an exact symbolic pass would cost as much as the product itself,
    so we measure it exactly on up to *max_rows* uniformly random rows.

    Deterministic by default: the sample seed derives from the operand
    shapes and nonzero counts, so repeated pricing of one instance agrees.
    """
    _check_compatible(a, b)
    lv = load_vector(a, b)
    total_mults = float(lv.sum())
    if total_mults == 0:
        return 1.0
    if rng is None:
        # The operand fingerprint is the seed, so repeated pricing of one
        # instance agrees.  Kept as the historical arithmetic hash (not
        # stable_seed) so previously published runs replay unchanged.
        rng = (a.n_rows * 1_000_003 + a.nnz * 101 + b.nnz) % (2**63)
    rng = as_generator(rng)
    candidates = np.flatnonzero(lv > 0)
    k = min(max_rows, candidates.size)
    rows = rng.choice(candidates, size=k, replace=False)
    if k == 0:
        return 1.0
    # Per-row multiply counts are exact integers in the float load vector.
    # Blocks of consecutive sampled rows hold at most _SAMPLE_BLOCK_MULTS
    # multiplies (a heavier row is a block of its own), which bounds the
    # keyed sort's memory.
    row_mults = lv[rows].astype(_INDEX)
    ends = np.cumsum(row_mults)
    sampled_nnz = 0
    start = 0
    while start < k:
        base = int(ends[start - 1]) if start else 0
        stop = int(np.searchsorted(ends, base + _SAMPLE_BLOCK_MULTS, side="right"))
        stop = max(stop, start + 1)
        sampled_nnz += _distinct_cols(a, b, rows[start:stop], row_mults[start:stop])
        start = stop
    return float(np.clip(sampled_nnz / float(ends[-1]), 0.0, 1.0))


def _distinct_cols(
    a: CsrMatrix, b: CsrMatrix, rows: np.ndarray, row_mults: np.ndarray
) -> int:
    """Summed distinct output-column counts of *rows* of ``A x B``.

    One sort of the fused ``(sample index, column)`` key over the block's
    whole expansion stream; distinct keys are distinct (row, column)
    pairs, so the count equals a per-row ``np.unique`` summed.
    """
    a_counts = a.indptr[rows + 1] - a.indptr[rows]
    cols_a = a.indices[_ranges_gather(a.indptr[rows], a_counts)]
    b_counts = b.indptr[cols_a + 1] - b.indptr[cols_a]
    key = np.repeat(np.arange(rows.size, dtype=_INDEX), row_mults)
    key *= b.n_cols
    key += b.indices[_ranges_gather(b.indptr[cols_a], b_counts)]
    key.sort()
    return 1 + int(np.count_nonzero(key[1:] != key[:-1]))
