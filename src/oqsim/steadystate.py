"""Steady states of time-independent master equations: L rho_ss = 0."""

from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dimensions import Dimensions
from .exceptions import ConvergenceError, MethodError, RangeError, SingularMatrixError
from .qobj import Qobj
from .result import check_list, constant_operator
from .superop import liouvillian

__all__ = ["steadystate"]

_POWER_SHIFT = 1e-10
_POWER_TOL = 1e-12
_POWER_MAXITER = 100
_RESIDUAL_TOL = 1e-10
_DEGENERACY_PROBE_LIMIT = 1024


def _unvec_to_dm(x, n, op_dims) -> Qobj:
    rho = x.reshape((n, n), order="F")
    rho = (rho + rho.conj().T) / 2
    tr = np.trace(rho).real
    if abs(tr) < 1e-300:
        raise ConvergenceError("candidate steady state has zero trace")
    return Qobj(rho / tr, dims=op_dims)


def _lu_solve(A):
    """The ``solve`` of one sparse LU factorization of ``A``."""
    try:
        return spla.splu(sp.csc_matrix(A)).solve
    except RuntimeError as exc:
        raise SingularMatrixError(f"sparse LU failed: {exc}") from exc


def _gmres_solve(A, b):
    try:
        ilu = spla.spilu(sp.csc_matrix(A), drop_tol=1e-10, fill_factor=20)
        M = spla.LinearOperator(A.shape, ilu.solve)
    except RuntimeError:
        M = None
    x, info = spla.gmres(A, b, rtol=1e-12, atol=0.0, maxiter=5000, M=M)
    if info != 0:
        raise ConvergenceError(f"GMRES did not converge (info={info})")
    return x


def steadystate(H_or_L, c_ops=(), method: str = "direct", solver: str = "direct_lu") -> Qobj:
    """Unique steady state of ``d rho/dt = L rho``.

    ``H_or_L`` (a Hamiltonian, a Liouvillian or None) and ``c_ops`` may be
    constant QobjEvos or list specs; a time-dependent one raises
    :class:`~oqsim.exceptions.MethodError`.

    Methods
    -------
    ``direct``
        Solve ``L x = 0`` with the trace condition substituted for the row of
        L carrying the largest diagonal magnitude (right-hand side 1), by sparse
        LU (``solver="direct_lu"``) or ILU-preconditioned GMRES (``"iterative_gmres"``).
    ``power``
        Inverse power iteration on ``L - _POWER_SHIFT I``, reusing one sparse LU
        across at most ``_POWER_MAXITER`` sweeps, until ``||L x|| < _POWER_TOL``.
        Any solver but ``direct_lu`` raises :class:`~oqsim.exceptions.MethodError`.
    ``svd``
        Null vector from a dense singular value decomposition.

    An unknown ``method`` or ``solver`` raises :class:`RangeError` before
    anything is built.  The returned density operator is Hermitian with unit
    trace and satisfies ``||L vec(rho)||_2 <= _RESIDUAL_TOL * ||L||_F``; otherwise
    :class:`ConvergenceError` is raised.  If the null space looks degenerate a
    warning is emitted and an arbitrary element is returned.
    """
    if method not in ("direct", "power", "svd"):
        raise RangeError(f"unknown steadystate method {method!r}")
    if solver not in ("direct_lu", "iterative_gmres"):
        raise RangeError(f"unknown linear solver {solver!r}")
    if method == "power" and solver != "direct_lu":
        raise MethodError(f"the power method needs solver='direct_lu'; got {solver!r}")
    if H_or_L is not None:
        H_or_L = constant_operator(H_or_L, "steadystate's generator")
    L = liouvillian(H_or_L, [constant_operator(c, "a steadystate collapse operator")
                             for c in check_list(c_ops, "c_ops")])
    n = math.prod(L.dims.ket[0])
    op_dims = Dimensions(L.dims.ket[0], L.dims.ket[1], enr=L.dims.enr)
    Lmat = sp.csr_matrix(L.data.scipy_matrix())
    size = n * n
    Lnorm = spla.norm(Lmat, "fro")
    if Lnorm == 0.0:
        raise SingularMatrixError("generator is identically zero")
    pop_rows = np.arange(n) * (n + 1)  # the populations rho_aa in vec(rho)

    if method == "direct":
        # The left null vector of L is vec(identity), so the trace condition
        # may only replace a population row; pick the one with the largest
        # diagonal magnitude.
        diag = np.abs(Lmat.diagonal()[pop_rows])
        row = int(pop_rows[int(np.argmax(diag))])
        trace_row = sp.csr_matrix(
            (np.ones(n), (np.zeros(n, dtype=int), pop_rows)),
            shape=(1, size),
        )
        A = sp.vstack(
            [Lmat[:row, :], trace_row, Lmat[row + 1 :, :]], format="csr"
        )
        b = np.zeros(size, dtype=np.complex128)
        b[row] = 1.0
        x = _lu_solve(A)(b) if solver == "direct_lu" else _gmres_solve(A, b)
    elif method == "power":
        shifted = Lmat - _POWER_SHIFT * sp.identity(size, dtype=np.complex128, format="csr")
        solve = _lu_solve(shifted)
        x = np.zeros(size, dtype=np.complex128)
        x[pop_rows] = 1.0
        x /= np.linalg.norm(x)
        for _ in range(_POWER_MAXITER):
            x = solve(x)
            x /= np.linalg.norm(x)
            if np.linalg.norm(Lmat @ x) < _POWER_TOL:
                break
        else:
            raise ConvergenceError(
                f"inverse power iteration did not reach ||L x|| < {_POWER_TOL}"
            )
    else:
        _, s, vh = scipy.linalg.svd(Lmat.toarray())
        x = vh[-1].conj()

    if method != "svd":  # probe a small generator's null space as the svd method does
        small = size <= _DEGENERACY_PROBE_LIMIT
        s = scipy.linalg.svd(Lmat.toarray(), compute_uv=False) if small else ()
    if len(s) >= 2 and s[-2] < 1e-10 * max(s[0], 1e-300):
        warnings.warn("steady state appears degenerate; returning one null-space element",
                      RuntimeWarning)

    rho = _unvec_to_dm(x, n, op_dims)
    residual = np.linalg.norm(Lmat @ rho.full().flatten(order="F"))
    if residual > _RESIDUAL_TOL * Lnorm:
        raise ConvergenceError(
            f"steady-state residual {residual:.3e} exceeds {_RESIDUAL_TOL:.1e} * ||L||"
        )
    return rho
