"""Quantum objects: states, operators and superoperators with dimension metadata.

A :class:`Qobj` couples a :class:`~oqsim.data.DataMatrix` payload with
subsystem :class:`~oqsim.dimensions.Dimensions` and an inferred kind (ket, bra,
oper, super, operator_ket, operator_bra).  Objects are immutable; arithmetic
returns new instances and the only mutable state is the lazily cached
Hermiticity flag, whose computation is idempotent.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import data as _d
from .dimensions import Dimensions, infer_kind
from .exceptions import (ArgumentError, DimensionMismatchError, NotHermitianError, RangeError,
                         UnsupportedError)

__all__ = ["Qobj", "tensor", "ptrace", "expect", "qobj_new"]


class Qobj:
    """A quantum object: matrix data plus subsystem dimensions.

    Parameters
    ----------
    data : DataMatrix or array_like
        Matrix payload.  Arrays are stored in the requested format
        (``fmt``, default dense).
    dims : Dimensions or [ket_dims, bra_dims], optional
        Tensor structure; defaults to a single subsystem of the full shape.
    fmt : str, optional
        Storage format when building from an array.
    """

    __slots__ = ("data", "dims", "kind", "_isherm")

    def __init__(self, data, dims=None, fmt=None):
        if isinstance(data, Qobj):
            dims = dims if dims is not None else data.dims
            data = data.data
        if not isinstance(data, _d.DataMatrix):
            data = _d.from_array(data, fmt or "dense")
        elif fmt is not None and fmt != data.fmt:
            data = _d.convert(data, fmt)
        if dims is None:
            dims = Dimensions.from_shape(data.shape)
        elif not isinstance(dims, Dimensions):
            dims = Dimensions(dims[0], dims[1])
        dims.check_shape(data.shape)
        self.data = data
        self.dims = dims
        self.kind = infer_kind(data.shape, dims)
        self._isherm = None

    # -- basic structure ---------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self) -> str:
        return self.data.fmt

    @property
    def isket(self):
        return self.kind == "ket"

    @property
    def isbra(self):
        return self.kind == "bra"

    @property
    def isoper(self):
        return self.kind == "oper"

    @property
    def issuper(self):
        return self.kind == "super"

    @property
    def isoperket(self):
        return self.kind == "operator_ket"

    @property
    def isoperbra(self):
        return self.kind == "operator_bra"

    @property
    def isherm(self) -> bool:
        # Cached lazily; a racing second computation lands on the same value.
        if self._isherm is None:
            self._isherm = self.kind == "oper" and _d.isherm_data(self.data)
        return self._isherm

    def full(self) -> np.ndarray:
        """Dense ndarray copy of the data."""
        return self.data.to_array()

    def diag(self) -> np.ndarray:
        return self.data.scipy_matrix().diagonal().copy()

    def to(self, fmt: str) -> "Qobj":
        """Convert the data layer to the given format."""
        return Qobj(_d.convert(self.data, fmt), dims=self.dims)

    def tidyup(self, atol: float = _d.TIDYUP_ATOL) -> "Qobj":
        return Qobj(_d.tidyup(self.data, atol), dims=self.dims)

    def copy(self) -> "Qobj":
        return Qobj(self.data, dims=self.dims)

    def __repr__(self):
        return (
            f"Qobj(kind={self.kind}, dims={self.dims.as_list()}, shape={self.shape},"
            f" dtype={self.dtype})\n{np.array_str(self.full(), precision=5)}"
        )

    # -- arithmetic ---------------------------------------------------------

    def _scalar_to_like(self, value: complex) -> "Qobj":
        if self.shape[0] != self.shape[1]:
            raise DimensionMismatchError("scalar addition needs a square object")
        return Qobj(
            _d.identity_data(self.shape[0], self.dtype, complex(value)), dims=self.dims
        )

    def _add(self, other, scale: float):
        """``self + scale * other`` for ``scale`` 1 (add) or -1 (subtract)."""
        if isinstance(other, numbers.Number):
            if other == 0:
                return self.copy()
            other = self._scalar_to_like(other)
        if not isinstance(other, Qobj):
            return NotImplemented
        if self.dims != other.dims:
            verb = "add" if scale == 1.0 else "subtract"
            raise DimensionMismatchError(
                f"cannot {verb} objects with dims {self.dims.as_list()} and {other.dims.as_list()}"
            )
        return Qobj(_d.add(self.data, other.data, scale), dims=self.dims)

    def __add__(self, other):
        return self._add(other, 1.0)

    __radd__ = __add__

    def __sub__(self, other):
        return self._add(other, -1.0)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __neg__(self):
        return Qobj(_d.mul(self.data, -1.0), dims=self.dims)

    def __mul__(self, other):
        if isinstance(other, numbers.Number):
            return Qobj(_d.mul(self.data, other), dims=self.dims)
        if isinstance(other, Qobj):
            return self.__matmul__(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return Qobj(_d.mul(self.data, other), dims=self.dims)
        return NotImplemented

    def __truediv__(self, other):
        if isinstance(other, numbers.Number):
            return Qobj(_d.mul(self.data, 1.0 / other), dims=self.dims)
        return NotImplemented

    def __matmul__(self, other):
        if not isinstance(other, Qobj):
            return NotImplemented
        if self.dims.enr != other.dims.enr:
            raise DimensionMismatchError("cannot multiply objects on different ENR spaces")
        if self.dims.bra != other.dims.ket:
            raise DimensionMismatchError(
                f"dims mismatch in product: {self.dims.as_list()} @ {other.dims.as_list()}"
            )
        dims = Dimensions(self.dims.ket, other.dims.bra, enr=self.dims.enr)
        return Qobj(_d.matmul(self.data, other.data), dims=dims)

    def __and__(self, other):
        """Tensor product operator."""
        return tensor(self, other)

    # -- structural maps ----------------------------------------------------

    def dag(self) -> "Qobj":
        return Qobj(_d.adjoint(self.data), dims=self.dims.transposed())

    def conj(self) -> "Qobj":
        return Qobj(_d.conjugate(self.data), dims=self.dims)

    def trans(self) -> "Qobj":
        return Qobj(_d.transpose(self.data), dims=self.dims.transposed())

    def tr(self) -> complex:
        val = _d.trace(self.data)
        if self.isherm:
            return val.real
        return val

    def purity(self) -> float:
        return float((self @ self).tr().real)

    def norm(self, kind: str | None = None) -> float:
        """Vector 2-norm for states, trace norm for operators (overridable)."""
        if kind is None:
            kind = "l2" if self.kind in ("ket", "bra", "operator_ket", "operator_bra") else "tr"
        if kind == "max":
            return _d.max_abs(self.data)
        a = self.full()
        if kind == "l2":
            return float(np.linalg.norm(a))
        if kind == "fro":
            return float(np.linalg.norm(a, "fro"))
        if kind == "tr":
            return float(np.sum(np.linalg.svd(a, compute_uv=False)))
        raise RangeError(f"unknown norm kind {kind!r}")

    def unit(self) -> "Qobj":
        """Normalize: 2-norm for states, unit trace for operators.  A zero norm or
        trace raises :class:`RangeError`."""
        state = self.kind in ("ket", "bra", "operator_ket", "operator_bra")
        n = self.norm("l2") if state else abs(self.tr())
        if n == 0:
            raise RangeError(f"cannot normalize an object of zero {'norm' if state else 'trace'}")
        return self / n

    def proj(self) -> "Qobj":
        if self.isket:
            return self @ self.dag()
        if self.isbra:
            return self.dag() @ self
        raise DimensionMismatchError("proj() requires a ket or bra")

    def overlap(self, other: "Qobj") -> complex:
        if not (self.isket and other.isket):
            raise DimensionMismatchError("overlap() requires two kets")
        return complex(np.vdot(self.full().ravel(), other.full().ravel()))

    # -- spectral -----------------------------------------------------------

    def expm(self) -> "Qobj":
        if self.shape[0] != self.shape[1]:
            raise DimensionMismatchError("expm requires a square object")
        return Qobj(_d.expm(self.data), dims=self.dims)

    def eigenstates(self):
        """Eigenvalues (ascending) and eigenkets of a Hermitian operator."""
        w, v = _d.eig_herm(self.data)
        varr = v.to_array()
        ket_dims = Dimensions(self.dims.ket, [1] * len(self.dims.ket), enr=self.dims.enr)
        kets = [Qobj(varr[:, k].reshape(-1, 1), dims=ket_dims) for k in range(varr.shape[1])]
        return w, kets

    def eigenenergies(self):
        w, _ = _d.eig_herm(self.data)
        return w

    def groundstate(self):
        w, kets = self.eigenstates()
        return w[0], kets[0]

    def sqrtm(self) -> "Qobj":
        """Square root of a Hermitian positive-semidefinite operator.

        Small negative eigenvalues (roundoff) are clipped at zero; a negative
        eigenvalue beyond -1e-10 raises.
        """
        w, v = _d.eig_herm(self.data)
        if np.min(w) < -1e-10:
            raise NotHermitianError(
                f"operator has negative eigenvalue {np.min(w):.3e}; no PSD square root"
            )
        varr = v.to_array()
        root = (varr * np.sqrt(np.clip(w, 0.0, None))) @ varr.conj().T
        return Qobj(_d.from_array(root, self.dtype), dims=self.dims)

    def ptrace(self, keep) -> "Qobj":
        return ptrace(self, keep)


def qobj_new(data, dims=None, fmt=None) -> Qobj:
    """Functional constructor mirroring ``Qobj(...)``."""
    return Qobj(data, dims=dims, fmt=fmt)


def tensor(*objs) -> Qobj:
    """Tensor product of kets, bras or operators (all of the same kind).

    Accepts either separate arguments or a single list.  ENR objects are
    rejected: their compressed enumeration does not factor into a product.
    """
    if len(objs) == 1 and isinstance(objs[0], (list, tuple)):
        objs = tuple(objs[0])
    if not objs:
        raise RangeError("tensor() needs at least one operand")
    if any(not isinstance(q, Qobj) for q in objs):
        raise ArgumentError("tensor() operands must be Qobj")
    if any(q.dims.enr is not None for q in objs):
        raise UnsupportedError("tensor is not defined for ENR objects")
    kinds = {q.kind for q in objs}
    if not kinds <= {"ket", "bra", "oper"}:
        raise DimensionMismatchError(f"tensor supports ket/bra/oper, got {sorted(kinds)}")
    if len(kinds) > 1:
        raise DimensionMismatchError(f"cannot tensor mixed kinds {sorted(kinds)}")
    out = objs[0].data
    ket, bra = list(objs[0].dims.ket), list(objs[0].dims.bra)
    for q in objs[1:]:
        out = _d.kron(out, q.data)
        ket += q.dims.ket
        bra += q.dims.bra
    return Qobj(out, dims=Dimensions(ket, bra))


def ptrace(q: Qobj, keep) -> Qobj:
    """Reduced density operator on the subsystems listed in ``keep``.

    Kets and bras are promoted to projectors first.  The trace is preserved:
    ``ptrace(rho, keep).tr() == rho.tr()``.
    """
    if q.dims.enr is not None:
        raise UnsupportedError("ptrace is not defined for ENR objects")
    if q.isket or q.isbra:
        q = q.proj()
    if not q.isoper:
        raise DimensionMismatchError("ptrace requires an operator (or ket/bra)")
    if q.dims.ket != q.dims.bra:
        raise DimensionMismatchError("ptrace requires equal ket and bra dims")
    dims = q.dims.ket
    nd = len(dims)
    if isinstance(keep, (int, np.integer)):
        keep = [int(keep)]
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= nd for k in keep):
        raise RangeError(f"subsystem index out of range in {keep}; have {nd} subsystems")
    if keep == list(range(nd)):
        return q.copy()
    arr = q.full().reshape(dims + dims)
    row = list(range(nd))
    col = list(range(nd, 2 * nd))
    for i in range(nd):
        if i not in keep:
            col[i] = row[i]
    out_idx = [row[i] for i in keep] + [col[i] for i in keep]
    red = np.einsum(arr, row + col, out_idx)
    kept = [dims[i] for i in keep]
    size = math.prod(kept)
    return Qobj(red.reshape(size, size), dims=Dimensions(kept, kept), fmt=q.dtype)


def expect(op: Qobj, state) -> complex | float:
    """Expectation value: ``<psi|op|psi>`` for kets, ``tr(op @ rho)`` for opers.

    Returns a real float when ``op`` is Hermitian and the state is a ket or a
    Hermitian operator; otherwise the complex value.  Lists of states map to
    an ndarray of values.
    """
    if isinstance(state, (list, tuple)):
        vals = [expect(op, s) for s in state]
        return np.array(vals)
    if not isinstance(op, Qobj) or not op.isoper:
        raise DimensionMismatchError("expect requires an operator as first argument")
    if state.isket:
        if op.dims.bra != state.dims.ket or op.dims.enr != state.dims.enr:
            raise DimensionMismatchError("operator and ket dims do not match")
        psi = state.full().ravel()
        val = complex(np.vdot(psi, op.data.scipy_matrix() @ psi))
        herm_state = True
    elif state.isoper:
        if op.dims.bra != state.dims.ket or op.dims.enr != state.dims.enr:
            raise DimensionMismatchError("operator and state dims do not match")
        val = complex(_d.trace(_d.matmul(op.data, state.data)))
        herm_state = state.isherm
    else:
        raise DimensionMismatchError(f"cannot take expectation in a {state.kind}")
    if op.isherm and herm_state:
        return val.real
    return val
