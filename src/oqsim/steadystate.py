"""Steady states of time-independent master equations: L rho_ss = 0."""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .dimensions import Dimensions
from .exceptions import ConvergenceError, RangeError, SingularMatrixError
from .qobj import Qobj
from .result import check_list, constant_operator
from .superop import liouvillian

__all__ = ["steadystate"]

_POWER_SHIFT = 1e-10
_POWER_TOL = 1e-12
_RESIDUAL_TOL = 1e-10
_DEGENERACY_PROBE_LIMIT = 1024


def _unvec_to_dm(x, n, op_dims) -> Qobj:
    rho = x.reshape((n, n), order="F")
    rho = (rho + rho.conj().T) / 2
    tr = np.trace(rho).real
    if abs(tr) < 1e-300:
        raise ConvergenceError("candidate steady state has zero trace")
    return Qobj(rho / tr, dims=op_dims)


def _solve_columns(A_sparse, b, solver, rtol=1e-12, maxiter=5000):
    if solver == "direct_lu":
        try:
            lu = spla.splu(sp.csc_matrix(A_sparse))
        except RuntimeError as exc:
            raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
        return lu.solve(b)
    if solver == "iterative_gmres":
        try:
            ilu = spla.spilu(sp.csc_matrix(A_sparse), drop_tol=1e-10, fill_factor=20)
            M = spla.LinearOperator(A_sparse.shape, ilu.solve)
        except RuntimeError:
            M = None
        x, info = spla.gmres(A_sparse, b, rtol=rtol, atol=0.0, maxiter=maxiter, M=M)
        if info != 0:
            raise ConvergenceError(f"GMRES did not converge (info={info})")
        return x
    raise RangeError(f"unknown linear solver {solver!r}")


def steadystate(
    H_or_L,
    c_ops=(),
    method: str = "direct",
    solver: str = "direct_lu",
    *,
    power_tol: float = _POWER_TOL,
    power_maxiter: int = 100,
    residual_tol: float = _RESIDUAL_TOL,
) -> Qobj:
    """Unique steady state of ``d rho/dt = L rho``.

    ``H_or_L`` (a Hamiltonian, a Liouvillian or None) and ``c_ops`` may be
    constant QobjEvos or list specs; a time-dependent one raises
    :class:`~oqsim.exceptions.MethodError`.

    Methods
    -------
    ``direct``
        Solve ``L x = 0`` with the trace condition substituted for the row of
        L carrying the largest diagonal magnitude (right-hand side 1).
    ``power``
        Inverse power iteration on ``L - sigma I`` with a tiny shift, reusing
        one LU factorization across sweeps, until ``||L x|| < power_tol``.
    ``svd``
        Null vector from a dense singular value decomposition.

    The returned density operator is Hermitian with unit trace and satisfies
    ``||L vec(rho)||_2 <= residual_tol * ||L||_F``; otherwise
    :class:`ConvergenceError` is raised.  If the null space looks degenerate a
    warning is emitted and an arbitrary element is returned.
    """
    if H_or_L is not None:
        H_or_L = constant_operator(H_or_L, "steadystate's generator")
    L = liouvillian(H_or_L, [constant_operator(c, "a steadystate collapse operator")
                             for c in check_list(c_ops, "c_ops")])
    op_ket = L.dims.ket[0]
    n = 1
    for d in op_ket:
        n *= d
    op_dims = Dimensions(L.dims.ket[0], L.dims.ket[1], enr=L.dims.enr)
    Lmat = sp.csr_matrix(L.data.scipy_matrix())
    size = n * n
    Lnorm = spla.norm(Lmat, "fro")
    if Lnorm == 0.0:
        raise SingularMatrixError("generator is identically zero")

    if method == "direct":
        # The left null vector of L is vec(identity), so the trace condition
        # may only replace a population row (index a*(n+1)); pick the one with
        # the largest diagonal magnitude.
        pop_rows = np.arange(n) * (n + 1)
        diag = np.abs(Lmat.diagonal()[pop_rows])
        row = int(pop_rows[int(np.argmax(diag))])
        trace_row = sp.csr_matrix(
            (np.ones(n), (np.zeros(n, dtype=int), np.arange(n) * (n + 1))),
            shape=(1, size),
        )
        A = sp.vstack(
            [Lmat[:row, :], trace_row, Lmat[row + 1 :, :]], format="csr"
        )
        b = np.zeros(size, dtype=np.complex128)
        b[row] = 1.0
        x = _solve_columns(A, b, solver)
    elif method == "power":
        shifted = Lmat - _POWER_SHIFT * sp.identity(size, dtype=np.complex128, format="csr")
        if solver == "direct_lu":
            try:
                lu = spla.splu(sp.csc_matrix(shifted))
            except RuntimeError as exc:
                raise SingularMatrixError(f"sparse LU failed: {exc}") from exc
            solve = lu.solve
        else:
            def solve(v):
                return _solve_columns(shifted, v, "iterative_gmres")
        x = np.zeros(size, dtype=np.complex128)
        x[np.arange(n) * (n + 1)] = 1.0
        x /= np.linalg.norm(x)
        for _ in range(power_maxiter):
            x = solve(x)
            x /= np.linalg.norm(x)
            if np.linalg.norm(Lmat @ x) < power_tol:
                break
        else:
            raise ConvergenceError(
                f"inverse power iteration did not reach ||L x|| < {power_tol}"
            )
    elif method == "svd":
        _, s, vh = scipy.linalg.svd(Lmat.toarray())
        x = vh[-1].conj()
    else:
        raise RangeError(f"unknown steadystate method {method!r}")

    if method != "svd":  # probe a small generator's null space as the svd method does
        small = size <= _DEGENERACY_PROBE_LIMIT
        s = scipy.linalg.svd(Lmat.toarray(), compute_uv=False) if small else ()
    if len(s) >= 2 and s[-2] < 1e-10 * max(s[0], 1e-300):
        warnings.warn("steady state appears degenerate; returning one null-space element",
                      RuntimeWarning)

    rho = _unvec_to_dm(x, n, op_dims)
    residual = np.linalg.norm(Lmat @ rho.full().flatten(order="F"))
    if residual > residual_tol * Lnorm:
        raise ConvergenceError(
            f"steady-state residual {residual:.3e} exceeds {residual_tol:.1e} * ||L||"
        )
    return rho
