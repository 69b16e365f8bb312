"""Floquet basis for time-periodic Hamiltonians and the stroboscopic solver.

For ``H(t + T) = H(t)`` the propagator over one period determines quasienergies
(folded into ``(-pi/T, pi/T]``) and periodic Floquet modes; states at any later
time follow from one period of integration plus phase factors.
"""

from __future__ import annotations

import numpy as np

from .dimensions import Dimensions
from .exceptions import ArgumentError, DimensionMismatchError, RangeError
from .integrator import IntegratorOptions, check_tlist, integrate
from .qobj import Qobj
from .qobjevo import as_evo
from .result import SolveResult, check_number
from .solver import SESolver, Solver

__all__ = ["FloquetBasis", "floquet_basis", "fsesolve"]


class FloquetBasis:
    """Quasienergies and Floquet modes tabulated on one period.

    Attributes
    ----------
    T : float
        Driving period.
    n_steps : int
        Number of time steps the period is discretized into (the mode table
        holds ``n_steps + 1`` points including both endpoints).
    quasienergies : ndarray
        Ascending, folded into ``(-pi/T, pi/T]``.
    modes : ndarray, shape (n_steps + 1, dim, dim)
        ``modes[j][:, k]`` is the k-th Floquet mode at grid time ``j T / n_steps``.
    propagator : ndarray
        ``U(T, 0)``.
    """

    def __init__(self, T, grid, quasienergies, modes, propagator, dims):
        self.T = float(T)
        self.grid = grid
        self.n_steps = len(grid) - 1
        self.quasienergies = quasienergies
        self.modes = modes
        self.propagator = propagator
        self.dims = dims

    def mode_at(self, t: float) -> np.ndarray:
        """Mode matrix at time ``t`` (reduced mod T, linear between grid points)."""
        tau = t - self.T * np.floor(t / self.T)
        # Guard the wrap: a stroboscopic time can land a rounding error below T.
        if tau >= self.T:
            tau -= self.T
        x = tau / (self.T / self.n_steps)
        j0 = min(int(np.floor(x)), self.n_steps - 1)
        frac = x - j0
        return (1.0 - frac) * self.modes[j0] + frac * self.modes[j0 + 1]

    def state_at(self, t: float, coeffs: np.ndarray) -> np.ndarray:
        phases = np.exp(-1j * self.quasienergies * t)
        return self.mode_at(t) @ (coeffs * phases)


def floquet_basis(H, T: float, n_t: int = 64,
                  options: IntegratorOptions | dict | None = None) -> FloquetBasis:
    """Compute the Floquet basis of a T-periodic Hamiltonian.

    The propagator is integrated over one period (the caller is responsible
    for ``H(t + T) = H(t)``); its eigenphases give the quasienergies and its
    eigenvectors the modes at t = 0, which are then propagated across an
    ``n_t``-step grid covering the period.  ``T`` is a positive finite number
    and ``n_t`` an integer of at least 2.  ``options`` takes the
    :class:`~oqsim.integrator.IntegratorOptions` keys, as an instance or a
    flat dict; the keys a dict leaves out, and None, give
    ``atol = rtol = 1e-12``.
    """
    check_number(T, "floquet_basis's T")
    check_number(n_t, "floquet_basis's n_t", integer=True)
    if not 0 < T < np.inf:
        raise RangeError(f"floquet_basis's T must be positive and finite; got {T!r}")
    if n_t < 2:
        raise RangeError("need at least two grid steps per period")
    if options is None or isinstance(options, dict):
        options = {"atol": 1e-12, "rtol": 1e-12, **(options or {})}
    opts = IntegratorOptions.coerce(options)
    H_evo = as_evo(H)
    if H_evo.shape[0] != H_evo.shape[1]:
        raise DimensionMismatchError("Hamiltonian must be square")
    dim = H_evo.shape[0]

    grid = np.linspace(0.0, T, n_t + 1)
    eye = np.eye(dim, dtype=np.complex128)

    def rhs(t, u):
        return H_evo.matvec(t, u.reshape(dim, dim)).reshape(-1) * (-1j)

    us, _ = integrate(rhs, eye.reshape(-1), 0.0, grid, opts)
    props = [u.reshape(dim, dim) for u in us]
    U_T = props[-1]

    eta, phi0 = np.linalg.eig(U_T)
    eps = -np.angle(eta) / T  # in [-pi/T, pi/T)
    two_pi_over_T = 2 * np.pi / T
    eps = np.where(eps <= -np.pi / T + 1e-15, eps + two_pi_over_T, eps)
    order = np.argsort(eps)
    eps = eps[order]
    phi0 = phi0[:, order]
    phi0 = phi0 / np.linalg.norm(phi0, axis=0, keepdims=True)

    modes = np.empty((n_t + 1, dim, dim), dtype=np.complex128)
    for j, (tj, Uj) in enumerate(zip(grid, props)):
        modes[j] = (Uj @ phi0) * np.exp(1j * eps * tj)[None, :]

    return FloquetBasis(T, grid, eps, modes, U_T, H_evo.dims)


class _FloquetSolver(SESolver):
    """An SESolver whose states come from a Floquet basis, not from stepping."""

    name = "fsesolve"

    def __init__(self, fb: FloquetBasis):
        if not isinstance(fb, FloquetBasis):
            raise ArgumentError(f"fsesolve's fb must be a FloquetBasis; got {type(fb).__name__}")
        Solver.__init__(self, None)  # no generator: the states are read off the basis
        self.fb = fb
        self._op_dims = fb.dims
        self._dims = Dimensions(fb.dims.ket, [1] * len(fb.dims.ket), enr=fb.dims.enr)

    def _propagate(self, y0, tlist, args):
        coeffs = np.linalg.solve(self.fb.modes[0], y0)  # y0 in the t=0 Floquet modes
        return (self.fb.state_at(t, coeffs) for t in tlist), None


def fsesolve(fb: FloquetBasis, psi0: Qobj, tlist, e_ops=None) -> SolveResult:
    """Closed-system evolution reconstructed from a Floquet basis.

    ``psi(t) = sum_a c_a exp(-i eps_a t) Phi_a(t mod T)`` with coefficients
    fixed by the initial state.  Times must be non-negative.  The result is
    :meth:`~oqsim.solver.Solver.run`'s, with zero steps and RHS evaluations.
    """
    tlist = check_tlist(tlist)
    if np.any(tlist < 0):
        raise RangeError("fsesolve times must be non-negative")
    return _FloquetSolver(fb).run(psi0, tlist, e_ops=e_ops)
