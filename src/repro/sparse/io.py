"""Matrix Market I/O.

The paper's datasets live in the University of Florida collection as
MatrixMarket (``.mtx``) files.  This offline reproduction generates
synthetic analogs, but a user with the real files should be able to run
every experiment on them — this module reads and writes the coordinate
format those files use, dependency-free.

Supported: ``matrix coordinate`` with field ``real``/``integer``/
``pattern`` and symmetry ``general``/``symmetric``/``skew-symmetric``
(pattern entries get value 1.0; symmetric/skew off-diagonals are mirrored,
as the format specifies).  ``array`` (dense) and ``complex`` files are out
of scope and rejected with a clear error.
"""

from __future__ import annotations

from pathlib import Path
from typing import IO, Iterator

import numpy as np

from repro.sparse.construct import from_coo
from repro.sparse.csr import CsrMatrix
from repro.util.errors import ValidationError

_INDEX = np.int64

_FIELDS = ("real", "integer", "pattern")
_SYMMETRIES = ("general", "symmetric", "skew-symmetric")


class MatrixMarketError(ValidationError):
    """A MatrixMarket file is malformed; the message names the line."""


def _open_lines(source: str | Path | IO[str]) -> Iterator[str]:
    if hasattr(source, "read"):
        yield from source  # type: ignore[misc]
    else:
        with open(source, "r") as fh:
            yield from fh


def _data_lines(lines: Iterator[tuple[int, str]]) -> Iterator[tuple[int, str]]:
    """Numbered lines with blanks and ``%`` comments skipped, stripped."""
    for lineno, line in lines:
        stripped = line.strip()
        if stripped and not stripped.startswith("%"):
            yield lineno, stripped


def read_matrix_market(source: str | Path | IO[str]) -> CsrMatrix:
    """Parse a MatrixMarket coordinate file into a :class:`CsrMatrix`.

    Malformed input raises :class:`MatrixMarketError` naming the line.
    """
    lines = enumerate(_open_lines(source), start=1)
    try:
        _, header = next(lines)
    except StopIteration:
        raise MatrixMarketError("empty MatrixMarket file") from None
    parts = header.strip().lower().split()
    if len(parts) != 5 or parts[0] not in ("%%matrixmarket",):
        raise MatrixMarketError(
            f"line 1: not a MatrixMarket header: {header.strip()!r}"
        )
    _, obj, fmt, field, symmetry = parts
    if obj != "matrix" or fmt != "coordinate":
        raise MatrixMarketError(
            f"only 'matrix coordinate' files are supported, got {obj} {fmt}"
        )
    if field not in _FIELDS:
        raise MatrixMarketError(f"unsupported field {field!r} (supported: {_FIELDS})")
    if symmetry not in _SYMMETRIES:
        raise MatrixMarketError(
            f"unsupported symmetry {symmetry!r} (supported: {_SYMMETRIES})"
        )

    data = _data_lines(lines)
    try:
        lineno, size_line = next(data)
    except StopIteration:
        raise MatrixMarketError("missing size line") from None
    try:
        n_rows, n_cols, nnz = (int(tok) for tok in size_line.split())
    except ValueError:
        raise MatrixMarketError(
            f"line {lineno}: bad size line: {size_line!r}"
        ) from None
    if min(n_rows, n_cols, nnz) < 0:
        raise MatrixMarketError(f"line {lineno}: negative size: {size_line!r}")

    row_list: list[int] = []
    col_list: list[int] = []
    val_list: list[float] = []
    for lineno, stripped in data:
        if len(row_list) >= nnz:
            raise MatrixMarketError(
                f"line {lineno}: more entries than the size line declares"
            )
        toks = stripped.split()
        try:
            row, col = int(toks[0]), int(toks[1])
            value = 1.0 if field == "pattern" else float(toks[2])
        except (IndexError, ValueError):
            raise MatrixMarketError(
                f"line {lineno}: bad {field} entry: {stripped!r}"
            ) from None
        if not (1 <= row <= n_rows and 1 <= col <= n_cols):
            raise MatrixMarketError(
                f"line {lineno}: entry ({row}, {col}) is outside the declared "
                f"{n_rows} x {n_cols} shape"
            )
        row_list.append(row - 1)  # MatrixMarket is 1-based
        col_list.append(col - 1)
        val_list.append(value)
    if len(row_list) != nnz:
        raise MatrixMarketError(
            f"size line declares {nnz} entries, file has {len(row_list)}"
        )
    rows = np.asarray(row_list, dtype=_INDEX)
    cols = np.asarray(col_list, dtype=_INDEX)
    vals = np.asarray(val_list, dtype=np.float64)

    if symmetry in ("symmetric", "skew-symmetric"):
        off = rows != cols
        sign = -1.0 if symmetry == "skew-symmetric" else 1.0
        orig_rows, orig_cols = rows, cols
        rows = np.concatenate([orig_rows, orig_cols[off]])
        cols = np.concatenate([orig_cols, orig_rows[off]])
        vals = np.concatenate([vals, sign * vals[off]])
    return from_coo(rows, cols, vals, (n_rows, n_cols))


def write_matrix_market(
    matrix: CsrMatrix,
    target: str | Path | IO[str],
    comment: str | None = None,
) -> None:
    """Write *matrix* as ``matrix coordinate real general``."""
    own = not hasattr(target, "write")
    fh: IO[str] = open(target, "w") if own else target  # type: ignore[assignment]
    try:
        fh.write("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"% {line}\n")
        fh.write(f"{matrix.n_rows} {matrix.n_cols} {matrix.nnz}\n")
        rows = np.repeat(
            np.arange(matrix.n_rows, dtype=_INDEX), matrix.row_nnz()
        )
        for r, c, v in zip(rows, matrix.indices, matrix.data):
            fh.write(f"{int(r) + 1} {int(c) + 1} {float(v)!r}\n")
    finally:
        if own:
            fh.close()
