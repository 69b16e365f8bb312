"""Superoperators via the column-stacking isomorphism.

An operator acting as ``A . B`` on a density matrix maps to the matrix
``kron(B^T, A)`` acting on the column-stacked vector ``vec(rho)``:
``vec(A rho B) = (B^T (x) A) vec(rho)``.  At the level of basis projectors
|i><j| this corresponds to the basis ket |j> (x) |i| of the doubled space,
which is why textbook statements written for basis kets carry a dagger
(``B^dag (x) A``) where the component-level form used here has a transpose.
"""

from __future__ import annotations

from . import data as _d
from .dimensions import Dimensions
from .exceptions import DimensionMismatchError, RangeError
from .qobj import Qobj

__all__ = [
    "spre",
    "spost",
    "sprepost",
    "super_lr",
    "lindblad_dissipator",
    "liouvillian",
    "operator_to_vector",
    "vector_to_operator",
]


def _super_dims(op_dims: Dimensions) -> Dimensions:
    pair = [op_dims.ket, op_dims.bra]
    return Dimensions(pair, pair, enr=op_dims.enr)


def _require_square_oper(q: Qobj, name: str) -> None:
    if not q.isoper or q.dims.ket != q.dims.bra:
        raise DimensionMismatchError(f"{name} requires a square operator")


def spre(A: Qobj) -> Qobj:
    """Superoperator for left multiplication: ``rho -> A rho``."""
    _require_square_oper(A, "spre")
    eye = _d.identity_data(A.shape[0], "csr")
    return Qobj(_d.kron(eye, A.data), dims=_super_dims(A.dims))


def spost(B: Qobj) -> Qobj:
    """Superoperator for right multiplication: ``rho -> rho B``."""
    _require_square_oper(B, "spost")
    eye = _d.identity_data(B.shape[0], "csr")
    return Qobj(_d.kron(_d.transpose(B.data), eye), dims=_super_dims(B.dims))


def sprepost(A: Qobj, B: Qobj) -> Qobj:
    """Superoperator for the sandwich ``rho -> A rho B``."""
    _require_square_oper(A, "sprepost")
    _require_square_oper(B, "sprepost")
    if A.dims != B.dims:
        raise DimensionMismatchError("sprepost operands must share dims")
    return Qobj(_d.kron(_d.transpose(B.data), A.data), dims=_super_dims(A.dims))


def super_lr(A: Qobj | None = None, B: Qobj | None = None) -> Qobj:
    """General left/right action ``rho -> A rho B`` with identity defaults."""
    if A is None and B is None:
        raise RangeError("super_lr needs at least one operand")
    if A is None:
        return spost(B)
    if B is None:
        return spre(A)
    return sprepost(A, B)


def lindblad_dissipator(a: Qobj, b: Qobj | None = None) -> Qobj:
    """Dissipator ``D[a, b] rho = a rho b^dag - (a^dag b rho + rho a^dag b)/2``.

    With the default ``b = a`` this is the standard Lindblad dissipator D[a].
    """
    b = a if b is None else b
    _require_square_oper(a, "lindblad_dissipator")
    if a.dims != b.dims:
        raise DimensionMismatchError("dissipator operands must share dims")
    ad_b = a.dag() @ b
    return sprepost(a, b.dag()) - 0.5 * (spre(ad_b) + spost(ad_b))


def liouvillian(H: Qobj | None, c_ops=()) -> Qobj:
    """Lindblad generator ``-i[H, .] + sum_n D[C_n]`` as a superoperator.

    This is the one place that assembles a constant Lindblad generator:
    :func:`~oqsim.qobjevo.liouvillian_evo` calls it for the constant part and
    for each time-dependent Hamiltonian term, and ``mesolve``, ``smesolve``,
    ``steadystate`` and the HEOM build go through one of the two.

    ``H`` may already be a superoperator, in which case it is passed through
    and the dissipators are added.  Entries of ``c_ops`` that are already
    superoperators are likewise added unchanged.
    """
    L = None
    if H is not None:
        if H.issuper:
            L = H.copy()
        else:
            _require_square_oper(H, "liouvillian")
            L = -1j * (spre(H) - spost(H))
    for c in c_ops:
        term = c if c.issuper else lindblad_dissipator(c)
        L = term if L is None else L + term
    if L is None:
        raise RangeError("liouvillian needs a Hamiltonian or at least one collapse operator")
    return L


def operator_to_vector(q: Qobj) -> Qobj:
    """Column-stack an operator into an operator-ket."""
    if not q.isoper:
        raise DimensionMismatchError("operator_to_vector requires an operator")
    vec = q.full().flatten(order="F").reshape(-1, 1)
    dims = Dimensions([q.dims.ket, q.dims.bra], [1], enr=q.dims.enr)
    return Qobj(_d.from_array(vec, "dense"), dims=dims)


def vector_to_operator(v: Qobj) -> Qobj:
    """Invert :func:`operator_to_vector`."""
    if not v.isoperket:
        raise DimensionMismatchError("vector_to_operator requires an operator-ket")
    ket_dims, bra_dims = v.dims.ket[0], v.dims.ket[1]
    nrows = 1
    for d in ket_dims:
        nrows *= d
    arr = v.full().reshape((nrows, -1), order="F")
    return Qobj(_d.from_array(arr, "dense"), dims=Dimensions(ket_dims, bra_dims, enr=v.dims.enr))
