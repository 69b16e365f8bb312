"""Time-dependent quantum objects: sums of (Qobj, coefficient) terms.

A :class:`QobjEvo` represents ``Q(t) = sum_k c_k(t) Q_k``.  All algebra is
pointwise in time: ``(a + b)(t) = a(t) + b(t)``, ``(a @ b)(t) = a(t) @ b(t)``,
``a.dag()(t) = a(t).dag()``.  Constant terms are folded together so solvers
pay for time dependence only where it exists.
"""

from __future__ import annotations

import numbers

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse._sparsetools import csr_matvec

from .coefficient import Coefficient, ConstantCoefficient, coefficient
from .exceptions import ArgumentError, DimensionMismatchError, RangeError
from .qobj import Qobj
from .superop import liouvillian, spost, spre, sprepost

__all__ = ["QobjEvo", "apply_matrix", "as_evo", "liouvillian_evo"]


class QobjEvo:
    """A list of ``(Qobj, Coefficient)`` terms evaluable at any time.

    Parameters
    ----------
    spec : Qobj, QobjEvo, or list
        List entries are either bare Qobjs (constant term) or
        ``(Qobj, coefficient-like)`` pairs, where the coefficient may be a
        number, a callable, a ``(times, values)`` sample pair or a
        :class:`~oqsim.coefficient.Coefficient`.  A callable is called as
        ``f(t, args)`` when its second positional parameter has no default
        or is named ``args``, else as ``f(t)``; a one-input NumPy ufunc such
        as ``np.cos`` is called as ``f(t)``, and other ufuncs are refused.
        See :class:`~oqsim.coefficient.FunctionCoefficient`.

    Constant terms fold into one leading term with coefficient 1.  They are
    shared, not copied: a lone constant term with coefficient 1 is the
    caller's own Qobj, and the integrators multiply by its matrix.
    """

    __slots__ = ("terms", "dims", "_const", "_td_mats")

    def __init__(self, spec):
        if isinstance(spec, QobjEvo):
            terms = list(spec.terms)
        elif isinstance(spec, Qobj):
            terms = [(spec, ConstantCoefficient(1.0))]
        elif isinstance(spec, (list, tuple)):
            terms = []
            for entry in spec:
                if isinstance(entry, Qobj):
                    terms.append((entry, ConstantCoefficient(1.0)))
                elif isinstance(entry, (list, tuple)) and len(entry) == 2 and isinstance(entry[0], Qobj):
                    terms.append((entry[0], coefficient(entry[1])))
                else:
                    raise ArgumentError(
                        "QobjEvo spec entries must be Qobj or (Qobj, coefficient)"
                    )
            if not terms:
                raise RangeError("QobjEvo needs at least one term")
        else:
            raise ArgumentError(f"an operator must be a Qobj, a QobjEvo or a list spec; "
                                f"got {type(spec).__name__}")

        dims = terms[0][0].dims
        for q, _ in terms[1:]:
            if q.dims != dims:
                raise DimensionMismatchError(
                    f"all QobjEvo terms must share dims; got {q.dims.as_list()} vs {dims.as_list()}"
                )
        self.dims = dims
        self.terms = self._fold(terms)
        self._const = None
        self._td_mats = None

    @staticmethod
    def _fold(terms):
        """Combine all constant terms into a single leading term."""
        const = None
        rest = []
        for q, c in terms:
            if c.is_constant:
                value = c(0.0)
                scaled = q if value == 1 else q * value
                const = scaled if const is None else const + scaled
            else:
                rest.append((q, c))
        out = []
        if const is not None:
            out.append((const, ConstantCoefficient(1.0)))
        return out + rest

    # -- evaluation ----------------------------------------------------------

    @property
    def isconstant(self) -> bool:
        return all(c.is_constant for _, c in self.terms)

    @property
    def shape(self):
        return self.dims.shape

    def __call__(self, t: float, args: dict | None = None) -> Qobj:
        out = None
        for q, c in self.terms:
            val = c(t, args)
            term = q if val == 1 else q * val
            out = term if out is None else out + term
        return out

    def _compiled(self):
        """Cache ``(const, td)`` for fast matvec: the folded constant term's
        own matrix (or None) and ``(matrix, coefficient)`` for the rest."""
        if self._td_mats is None:
            q0, c0 = self.terms[0]
            self._const = q0.data.scipy_matrix() if c0.is_constant else None
            self._td_mats = [(q.data.scipy_matrix(), c) for q, c in self.terms
                             if not c.is_constant]
        return self._const, self._td_mats

    def matvec(self, t: float, y: np.ndarray, args: dict | None = None) -> np.ndarray:
        """Evaluate ``Q(t) @ y`` on a flat ndarray without building a Qobj.

        Each CSR term runs SciPy's ``csr_matvec`` kernel directly (see
        :func:`apply_matrix`): the bytes of ``m @ y`` without SciPy's sparse
        dispatch, which costs several times the kernel on small systems.
        """
        const, td = self._compiled()
        out = apply_matrix(const, y) if const is not None else np.zeros_like(y)
        for m, c in td:
            out = out + c(t, args) * apply_matrix(m, y)
        return out

    # -- algebra (pointwise in t) ---------------------------------------------

    def __add__(self, other):
        if isinstance(other, numbers.Number):
            if other == 0:
                return QobjEvo(self)
            eye = self._identity_like()
            other = QobjEvo([(eye, ConstantCoefficient(other))])
        elif isinstance(other, Qobj):
            other = QobjEvo(other)
        if not isinstance(other, QobjEvo):
            return NotImplemented
        if self.dims != other.dims:
            raise DimensionMismatchError("cannot add QobjEvo with different dims")
        return QobjEvo._from_terms(self.terms + other.terms, self.dims)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-1 * other if not isinstance(other, numbers.Number) else -other)

    def __neg__(self):
        return (-1) * self

    def __mul__(self, other):
        if isinstance(other, numbers.Number):
            return QobjEvo._from_terms(
                [(q * other, c) for q, c in self.terms], self.dims
            )
        if isinstance(other, (Qobj, QobjEvo)):
            return self.__matmul__(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, numbers.Number):
            return self.__mul__(other)
        if isinstance(other, Qobj):
            return QobjEvo(other).__matmul__(self)
        return NotImplemented

    def __matmul__(self, other):
        if isinstance(other, Qobj):
            other = QobjEvo(other)
        if not isinstance(other, QobjEvo):
            return NotImplemented
        terms = []
        for qa, ca in self.terms:
            for qb, cb in other.terms:
                prod = qa @ qb
                if ca.is_constant and cb.is_constant:
                    co = ConstantCoefficient(ca(0.0) * cb(0.0))
                else:
                    co = ca * cb
                terms.append((prod, co))
        return QobjEvo._from_terms(terms, terms[0][0].dims)

    def dag(self) -> "QobjEvo":
        return QobjEvo._from_terms(
            [(q.dag(), c.conj() if not c.is_constant else ConstantCoefficient(c(0.0).conjugate()))
             for q, c in self.terms],
            self.dims.transposed(),
        )

    def _identity_like(self) -> Qobj:
        from .operators import qeye_like

        if self.shape[0] != self.shape[1]:
            raise DimensionMismatchError("scalar addition needs square dims")
        return qeye_like(self.terms[0][0])

    @classmethod
    def _from_terms(cls, terms, dims):
        obj = cls.__new__(cls)
        obj.dims = dims
        obj.terms = cls._fold(list(terms))
        obj._const = None
        obj._td_mats = None
        return obj


_C128 = np.dtype(np.complex128)


def apply_matrix(m, y: np.ndarray) -> np.ndarray:
    """``m @ y`` for a term matrix ``m`` (a SciPy sparse matrix or an ndarray).

    A CSR matrix times a complex128 vector calls SciPy's ``csr_matvec`` kernel
    on the matrix's own ``indptr``/``indices``/``data`` into a fresh zeroed
    output, which is what ``m @ y`` does after its dispatch; the bytes are the
    same.  Any other operand pair, a dense term or a stack of vectors
    (``floquet`` propagates a matrix), is ``m @ y``.
    """
    if m.__class__ is csr_matrix and y.__class__ is np.ndarray and y.dtype is _C128:
        n, k = m.shape
        if y.shape == (k,):
            out = np.zeros(n, dtype=np.complex128)
            csr_matvec(n, k, m.indptr, m.indices, m.data, y, out)
            return out
    return m @ y


def as_evo(op) -> QobjEvo:
    """``op``, a QobjEvo, Qobj or list spec, as a QobjEvo: how every solver reads an
    operator argument.  Anything else raises :class:`ArgumentError`."""
    return op if isinstance(op, QobjEvo) else QobjEvo(op)


def liouvillian_evo(H, c_ops=()) -> QobjEvo:
    """Time-dependent Lindblad generator ``L(t) = L_0 + sum_k f_k(t) L_k``.

    ``H`` may be a Qobj, a QobjEvo, or ``None``; superoperator terms pass
    through unchanged.  :func:`~oqsim.superop.liouvillian`, the one builder of
    Lindblad generators, makes the constant part ``L_0`` (the constant part of
    ``H`` with every constant collapse operator) and the commutator of each
    time-dependent term of ``H``.  Only the expansion of a time-dependent
    collapse operator is done here: a coefficient ``f`` enters the dissipator
    with ``|f(t)|^2`` on both the sandwich and anticommutator parts, i.e. the
    physical-rate semantics ``D[f(t) c]``.
    """
    H_terms = [] if H is None else as_evo(H).terms
    H0 = next((q for q, c in H_terms if c.is_constant), None)
    parts = [(liouvillian(q), c) for q, c in H_terms if not c.is_constant]
    const_c = []
    for c in c_ops or ():
        cev = as_evo(c)
        if cev.terms[0][0].issuper or cev.isconstant:
            const_c += [q for q, co in cev.terms if co.is_constant]
            parts += [(q, co) for q, co in cev.terms if not co.is_constant]
            continue
        # D[c(t)] expanded termwise; for a single term (A, f) the sandwich and
        # anticommutator pieces both carry |f(t)|^2.  The one constant term
        # pairs with itself into constant pieces.
        for qa, ca in cev.terms:
            for qb, cb in cev.terms:
                bd = qb.dag()
                ab = bd @ qa
                pieces = [sprepost(qa, bd), -0.5 * (spre(ab) + spost(ab))]
                if ca.is_constant and cb.is_constant:
                    const_c.extend(pieces)
                else:
                    co = ca.abs2() if ca is cb else ca * cb.conj()
                    parts += [(p, co) for p in pieces]
    if H0 is not None or const_c:
        parts.insert(0, (liouvillian(H0, const_c), ConstantCoefficient(1.0)))
    if not parts:
        raise RangeError("liouvillian_evo needs a Hamiltonian or collapse operators")
    dims = parts[0][0].dims
    for q, _ in parts:
        if q.dims != dims:
            raise DimensionMismatchError("liouvillian terms have mismatched dims")
    return QobjEvo._from_terms(parts, dims)
