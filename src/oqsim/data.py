"""Complex matrix storage in three interchangeable formats with dispatched arithmetic.

A :class:`DataMatrix` is a complex double-precision matrix tagged with a storage
format: ``"dense"`` (contiguous column-major array), ``"csr"`` (compressed
sparse row) or ``"dia"`` (sparse diagonals).  All arithmetic is exposed as
module-level functions that accept any mix of formats, convert operands as
needed, and return a result in the format selected by the promotion rule
(dense > csr > dia, i.e. the denser operand wins).

Every format change goes through one function, ``_coerce``: building from an
array, :func:`convert` and the results of arithmetic alike.  Conversions are
lossless, and a conversion between the two sparse formats never allocates a
dense matrix.

The heavy kernels (products, eigensolves, LU, matrix exponential) are backed by
NumPy/SciPy; this module owns the format tagging, dispatch and promotion layer
on top of them.
"""

from __future__ import annotations

import functools
import numbers

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .exceptions import (
    ArgumentError,
    ConvergenceError,
    DimensionMismatchError,
    NotHermitianError,
    RangeError,
    SingularMatrixError,
)

__all__ = [
    "FORMATS",
    "DataMatrix",
    "from_array",
    "identity_data",
    "zeros_data",
    "convert",
    "add",
    "mul",
    "matmul",
    "kron",
    "adjoint",
    "transpose",
    "conjugate",
    "unary",
    "trace",
    "tidyup",
    "expm",
    "eig_herm",
    "solve_linear",
    "max_abs",
    "isherm_data",
]

FORMATS = ("dense", "csr", "dia")

# Promotion priority for mixed-format binary operations: the result takes the
# denser operand's format so sparse x sparse stays sparse while anything
# touching dense stays dense.
_DENSITY = {"dense": 2, "csr": 1, "dia": 0}

TIDYUP_ATOL = 1e-14
HERM_ATOL = 1e-12


class DataMatrix:
    """A complex matrix payload tagged with its storage format.

    Instances are immutable: every operation returns a new ``DataMatrix``.
    Use :func:`from_array` or the factory helpers to build one.

    Attributes
    ----------
    fmt : str
        One of ``"dense"``, ``"csr"``, ``"dia"``.
    shape : tuple of int
        ``(nrows, ncols)``.
    """

    __slots__ = ("fmt", "_m")

    def __init__(self, payload, fmt: str):
        if fmt not in FORMATS:
            raise RangeError(f"unknown data format {fmt!r}; expected one of {FORMATS}")
        self.fmt = fmt
        self._m = payload

    @property
    def shape(self):
        return self._m.shape

    @property
    def nnz(self) -> int:
        """Number of stored values (all entries for dense)."""
        if self.fmt == "dense":
            return self._m.size
        return self._m.nnz

    def to_array(self) -> np.ndarray:
        """Dense column-major ndarray copy of the entries."""
        if self.fmt == "dense":
            return self._m.copy(order="F")
        return np.asfortranarray(self._m.toarray())

    # Raw payload accessors used by tests and by format-aware callers.
    def csr_parts(self):
        """CSR triplet ``(indptr, indices, values)``; only valid for csr format."""
        if self.fmt != "csr":
            raise RangeError("csr_parts() requires csr format")
        m = self._m
        return m.indptr.copy(), m.indices.copy(), m.data.copy()

    def dia_parts(self):
        """Offsets and per-diagonal rows of length min(nrows, ncols); dia only.

        Row ``k`` holds the diagonal at ``offsets[k]``: entry ``i`` is the
        matrix element ``(i, i + offset)`` for offsets >= 0 and
        ``(i - offset, i)`` for negative offsets, zero-padded past the end of
        the diagonal.
        """
        if self.fmt != "dia":
            raise RangeError("dia_parts() requires dia format")
        n, m = self.shape
        length = min(n, m)
        offsets = np.asarray(self._m.offsets, dtype=np.int64)
        rows = np.zeros((len(offsets), length), dtype=np.complex128)
        for k, off in enumerate(offsets):
            d = self._m.diagonal(off)
            rows[k, : len(d)] = d
        return offsets, rows

    def scipy_matrix(self):
        """The underlying ndarray (dense) or scipy sparse matrix."""
        return self._m

    def __repr__(self):
        return f"DataMatrix(fmt={self.fmt!r}, shape={self.shape}, nnz={self.nnz})"


def _canonical_dense(arr) -> np.ndarray:
    a = np.asarray(arr, dtype=np.complex128)
    if a.ndim == 1:
        a = a.reshape(-1, 1)
    if a.ndim != 2:
        raise DimensionMismatchError(f"expected a 2D matrix, got ndim={a.ndim}")
    return np.asfortranarray(a)


def _canonical_csr(m) -> sp.csr_matrix:
    # Every caller passes a matrix it has just made, so a complex128
    # csr_matrix is kept, not re-wrapped, and its indices sorted in place.
    if m.__class__ is not sp.csr_matrix or m.dtype != np.complex128:
        m = sp.csr_matrix(m, dtype=np.complex128)
    m.sort_indices()
    return m


def _canonical_dia(m) -> sp.dia_matrix:
    # Route through CSC: scipy's .todia() emits unique, ascending offsets.
    # Stored zeros are dropped first, so the offsets are exactly the nonzero
    # diagonals (a copy keeps a CSC input untouched).  scipy warns when many
    # diagonals are stored; the format choice is the caller's, so the warning
    # is suppressed here.
    import warnings

    m = sp.csc_matrix(m, dtype=np.complex128, copy=True)
    m.eliminate_zeros()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", sp.SparseEfficiencyWarning)
        return m.todia()


def _coerce(raw, fmt: str) -> DataMatrix:
    """Give a raw ndarray or scipy sparse matrix a format: the one conversion path."""
    if fmt == "dense":
        if sp.issparse(raw):
            raw = raw.toarray()
        return DataMatrix(_canonical_dense(raw), "dense")
    if fmt == "csr":
        return DataMatrix(_canonical_csr(raw), "csr")
    if fmt == "dia":
        return DataMatrix(_canonical_dia(raw), "dia")
    raise RangeError(f"unknown data format {fmt!r}; expected one of {FORMATS}")


def from_array(arr, fmt: str = "dense") -> DataMatrix:
    """Build a DataMatrix from any array-like, in the requested format."""
    return _coerce(_canonical_dense(arr), fmt)


def identity_data(n: int, fmt: str = "csr", scale: complex = 1.0) -> DataMatrix:
    if fmt == "dense":
        return DataMatrix(np.asfortranarray(scale * np.eye(n, dtype=np.complex128)), "dense")
    eye = sp.identity(n, dtype=np.complex128, format=fmt) * scale
    return DataMatrix(eye, fmt)


def zeros_data(nrows: int, ncols: int, fmt: str = "csr") -> DataMatrix:
    return _coerce(sp.csr_matrix((nrows, ncols), dtype=np.complex128), fmt)


def convert(m: DataMatrix, fmt: str) -> DataMatrix:
    """Convert to the target format; entries are preserved exactly."""
    return m if m.fmt == fmt else _coerce(m._m, fmt)


def _result_format(a: DataMatrix, b: DataMatrix) -> str:
    return a.fmt if _DENSITY[a.fmt] >= _DENSITY[b.fmt] else b.fmt


def add(a: DataMatrix, b: DataMatrix, scale: complex = 1.0) -> DataMatrix:
    """Entrywise ``a + scale * b`` in the promoted format."""
    if a.shape != b.shape:
        raise DimensionMismatchError(f"add: incompatible shapes {a.shape} and {b.shape}")
    fmt = _result_format(a, b)
    if a.fmt == "dense" or b.fmt == "dense":
        raw = a.to_array() + scale * b.to_array()
    else:
        raw = a._m + scale * b._m
    return _coerce(raw, fmt)


def mul(a: DataMatrix, scale: complex) -> DataMatrix:
    """Scalar multiple, format preserved."""
    if not isinstance(scale, numbers.Number):
        raise ArgumentError(f"scale must be a number, got {type(scale)}")
    return _coerce(a._m * complex(scale), a.fmt)


def matmul(a: DataMatrix, b: DataMatrix) -> DataMatrix:
    """Matrix product with mixed-format kernels (csr x dense runs natively)."""
    if a.shape[1] != b.shape[0]:
        raise DimensionMismatchError(
            f"matmul: inner dimensions disagree, {a.shape} x {b.shape}"
        )
    fmt = _result_format(a, b)
    if fmt == "dia" and not (a._m.offsets.size and b._m.offsets.size):
        # SciPy's dia x dia kernel fails on a factor that stores no diagonal.
        raw = a._m.tocsr() @ b._m.tocsr()
    else:
        raw = a._m @ b._m
    return _coerce(raw, fmt)


def kron(a: DataMatrix, b: DataMatrix) -> DataMatrix:
    """Kronecker product, shape ``(a.nrows*b.nrows, a.ncols*b.ncols)``."""
    fmt = _result_format(a, b)
    if a.fmt == "dense" and b.fmt == "dense":
        raw = np.kron(a._m, b._m)
    else:
        raw = sp.kron(sp.csr_matrix(a._m), sp.csr_matrix(b._m), format="csr")
    return _coerce(raw, fmt)


# NumPy arrays and scipy sparse matrices share .conjugate(), .transpose() and
# .diagonal(), so the involutions and the trace need no format branch.
def adjoint(m: DataMatrix) -> DataMatrix:
    return _coerce(m._m.conjugate().transpose(), m.fmt)


def transpose(m: DataMatrix) -> DataMatrix:
    return _coerce(m._m.transpose(), m.fmt)


def conjugate(m: DataMatrix) -> DataMatrix:
    return _coerce(m._m.conjugate(), m.fmt)


_UNARY = {"adjoint": adjoint, "transpose": transpose, "conjugate": conjugate}


def unary(m: DataMatrix, kind: str) -> DataMatrix:
    """One of the three entrywise/structural involutions."""
    try:
        return _UNARY[kind](m)
    except KeyError:
        raise RangeError(f"unknown unary kind {kind!r}") from None


def trace(m: DataMatrix) -> complex:
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"trace requires a square matrix, got {m.shape}")
    return complex(m._m.diagonal().sum())


def tidyup(m: DataMatrix, atol: float = TIDYUP_ATOL) -> DataMatrix:
    """Drop entries with magnitude below ``atol`` (stored zeros are removed)."""
    if m.fmt == "dense":
        arr = m.to_array()
        arr[np.abs(arr) < atol] = 0.0
        return DataMatrix(arr, "dense")
    raw = m._m.copy()
    if m.fmt == "dia":
        raw = sp.csr_matrix(raw)
    raw.data[np.abs(raw.data) < atol] = 0.0
    raw.eliminate_zeros()
    return _coerce(raw, m.fmt)


def max_abs(m: DataMatrix) -> float:
    if m.fmt == "dense":
        return float(np.max(np.abs(m._m))) if m._m.size else 0.0
    if m.nnz == 0:
        return 0.0
    return float(np.max(np.abs(m._m.data)))


def isherm_data(m: DataMatrix, atol: float = HERM_ATOL) -> bool:
    if m.shape[0] != m.shape[1]:
        return False
    return max_abs(add(m, adjoint(m), -1.0)) <= atol


def expm(m: DataMatrix) -> DataMatrix:
    """Matrix exponential, returned in the input's format.

    Hermitian inputs (within ``HERM_ATOL``) take a spectral path; everything
    else goes through scaling-and-squaring with a Pade core.
    """
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expm requires a square matrix, got {m.shape}")
    a = m.to_array()
    if isherm_data(m):
        w, v = np.linalg.eigh(a)
        raw = (v * np.exp(w)) @ v.conj().T
    else:
        raw = scipy.linalg.expm(a)
    return _coerce(raw, m.fmt)


def eig_herm(m: DataMatrix, atol: float = HERM_ATOL):
    """Eigen-decomposition of a Hermitian matrix.

    Returns ``(eigenvalues, eigenvectors)`` with real eigenvalues in ascending
    order and orthonormal eigenvector columns in a dense DataMatrix.

    Raises
    ------
    NotHermitianError
        If ``max|m - m^dag|`` exceeds ``atol``.
    """
    if m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"eig_herm requires a square matrix, got {m.shape}")
    dev = max_abs(add(m, adjoint(m), -1.0))
    if dev > atol:
        raise NotHermitianError(
            f"matrix is not Hermitian: max|m - m^dag| = {dev:.3e} > {atol:.1e}"
        )
    w, v = np.linalg.eigh(m.to_array())
    return w, DataMatrix(np.asfortranarray(v), "dense")


def solve_linear(
    A: DataMatrix,
    b: DataMatrix,
    method: str = "direct_lu",
    rtol: float = 1e-10,
    maxiter: int = 1000,
) -> DataMatrix:
    """Solve ``A x = b`` for one or several right-hand-side columns.

    ``direct_lu`` uses an LU factorization (sparse or dense following the
    input); a pivot below ``1e-14 * max|A|`` raises :class:`SingularMatrixError`.
    ``iterative_gmres`` runs restarted GMRES per column and raises
    :class:`ConvergenceError` if any column fails to reach ``rtol`` within
    ``maxiter`` iterations.
    """
    if A.shape[0] != A.shape[1]:
        raise DimensionMismatchError(f"solve_linear requires square A, got {A.shape}")
    if b.shape[0] != A.shape[0]:
        raise DimensionMismatchError(
            f"right-hand side has {b.shape[0]} rows, expected {A.shape[0]}"
        )
    scale = max_abs(A)
    if scale == 0.0:
        raise SingularMatrixError("matrix is exactly zero")
    bd = b.to_array()

    if method == "direct_lu":
        if A.fmt == "dense":
            try:
                lu = scipy.linalg.lu_factor(A._m)
            except scipy.linalg.LinAlgError as exc:
                raise SingularMatrixError(str(exc)) from exc
            pivots, solve = np.diag(lu[0]), functools.partial(scipy.linalg.lu_solve, lu)
        else:
            try:
                lu = spla.splu(sp.csc_matrix(A._m))
            except RuntimeError as exc:
                raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
            pivots, solve = lu.U.diagonal(), lu.solve
        umin = np.min(np.abs(pivots))
        if umin <= 1e-14 * scale:
            raise SingularMatrixError(
                f"pivot {umin:.3e} below 1e-14 * max|A| = {1e-14 * scale:.3e}"
            )
        x = solve(bd)
        return DataMatrix(np.asfortranarray(np.atleast_2d(x.reshape(bd.shape))), "dense")

    if method == "iterative_gmres":
        cols = []
        for j in range(bd.shape[1]):
            x, info = spla.gmres(A._m, bd[:, j], rtol=rtol, atol=0.0, maxiter=maxiter)
            if info != 0:
                raise ConvergenceError(
                    f"GMRES did not converge for column {j} (info={info})"
                )
            cols.append(x)
        return DataMatrix(np.asfortranarray(np.column_stack(cols)), "dense")

    raise RangeError(f"unknown linear solver method {method!r}")
