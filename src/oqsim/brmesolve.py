"""Bloch-Redfield master equation for time-independent Hamiltonians.

The generator is assembled in the eigenbasis of the system Hamiltonian from
one or more Hermitian coupling operators and their environment power spectra.
Its action on the matrix element rho_ab combines the unitary phase
``-i w_ab rho_ab`` with relaxation terms ``(1/2) R_abcd rho_cd``; a secular
filter optionally drops terms whose frequency mismatch ``|w_ab - w_cd|``
exceeds a cutoff (measured in the same absolute frequency units as H).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import data as _d
from .dimensions import Dimensions
from .exceptions import ArgumentError, RangeError
from .qobj import Qobj
from .result import SolveResult, check_list, check_number, check_operators, constant_operator
from .solver import MESolver

__all__ = ["BRCoupling", "br_tensor", "brmesolve"]


@dataclass
class BRCoupling:
    """A Hermitian system operator coupled to a bath with power spectrum S(w)."""

    op: Qobj
    spectrum: Callable[[float], float]


def _as_couplings(couplings):
    entries = [(c.op, c.spectrum) if isinstance(c, BRCoupling) else c
               for c in check_list(couplings, "couplings")]
    out = []
    for op, spectrum in check_list(entries, "couplings", pairs=True):
        if not callable(spectrum):
            raise ArgumentError(f"each spectrum in couplings must be callable; "
                                f"got {type(spectrum).__name__}")
        out.append(BRCoupling(op, spectrum))
    if not out:
        raise RangeError("need at least one (operator, spectrum) coupling")
    return out


def br_tensor(H: Qobj, couplings, sec_cutoff: float = 0.1):
    """Bloch-Redfield generator in the eigenbasis of ``H``.

    Returns ``(R, ekets)`` where ``R`` is the superoperator implementing the
    full equation of motion (unitary ``-i w_ab`` diagonal plus one half of the
    relaxation tensor, secular-filtered) over column-stacked density matrices
    in the eigenbasis, and ``ekets`` are the eigenvectors as kets in the lab
    basis.  ``sec_cutoff = -1`` keeps every term (no secular approximation).
    ``H`` and the Hermitian coupling operators may be constant QobjEvos or list specs.
    """
    H = constant_operator(H, "br_tensor's H")
    couplings = _as_couplings(couplings)
    check_number(sec_cutoff, "sec_cutoff")
    w, V = _d.eig_herm(H.data)  # ascending eigenvalues; raises if not Hermitian
    Varr = V.to_array()
    n = len(w)
    Wab = w[:, None] - w[None, :]

    R = np.zeros((n, n, n, n), dtype=np.complex128)
    eye = np.eye(n)
    for coup in couplings:
        op = constant_operator(coup.op, "a Bloch-Redfield coupling operator")
        check_operators([op], H.dims, "Bloch-Redfield coupling operator", hermitian=True)
        A = Varr.conj().T @ op.full() @ Varr
        S = np.empty((n, n))
        for i in range(n):
            for j in range(n):
                value = coup.spectrum(Wab[i, j])
                check_number(value, "the value of each spectrum in couplings")
                S[i, j] = value
        # term1[a,b,c,d] = delta_bd sum_n A_an A_nc S(w_cn)
        M1 = A @ (A * S.T)
        # term3[a,b,c,d] = delta_ac sum_n A_dn A_nb S(w_dn)
        M3 = (A * S) @ A
        X2 = A * S.T  # X2[a,c] = A_ac S(w_ca)
        X4 = A * S  # X4[d,b] = A_db S(w_db)
        R -= np.einsum("ac,bd->abcd", M1, eye)
        R += np.einsum("ac,db->abcd", X2, A)
        R -= np.einsum("db,ac->abcd", M3, eye)
        R += np.einsum("ac,db->abcd", A, X4)

    if sec_cutoff >= 0:
        mask = (
            np.abs(Wab[:, :, None, None] - Wab[None, None, :, :]) <= sec_cutoff
        ).astype(float)
        R = R * mask

    gen = 0.5 * R.transpose(1, 0, 3, 2).reshape(n * n, n * n)
    gen[np.diag_indices(n * n)] += -1j * Wab.flatten(order="F")

    pair = [[n], [n]]
    R_super = Qobj(_d.from_array(gen, "dense"), dims=Dimensions(pair, pair))
    ket_dims = Dimensions(H.dims.ket, [1] * len(H.dims.ket), enr=H.dims.enr)
    ekets = [Qobj(Varr[:, k].reshape(-1, 1), dims=ket_dims) for k in range(n)]
    return R_super, ekets


class _BRSolver(MESolver):
    """An MESolver that steps in the eigenbasis of H: states and e_ops are taken
    to it on the way in, and states back to the lab basis on the way out."""

    name = "brmesolve"

    def __init__(self, R_super: Qobj, ekets, dims: Dimensions, options):
        super().__init__(R_super, (), options)
        self._V = np.column_stack([k.full().ravel() for k in ekets])
        self._eig_dims, self._op_dims = self._op_dims, dims

    def _to_eig(self, op: Qobj) -> Qobj:
        return Qobj(self._V.conj().T @ op.full() @ self._V, dims=self._eig_dims)

    def _pack(self, state):
        return super()._pack(self._to_eig(state))

    def _unpack(self, y):
        rho = super()._unpack(y)
        return Qobj(self._V @ rho.full() @ self._V.conj().T, dims=self._op_dims)

    def _expect_row(self, e_op: Qobj):
        return super()._expect_row(self._to_eig(e_op))


def brmesolve(
    H,
    couplings,
    rho0: Qobj,
    tlist,
    e_ops=None,
    sec_cutoff: float = 0.1,
    options=None,
) -> SolveResult:
    """Evolve a state under the Bloch-Redfield equation.

    The density matrix is propagated in the Hamiltonian eigenbasis; the
    result is assembled by :meth:`~oqsim.solver.Solver.run`, with expectation
    values and stored states in the lab basis.  ``H`` and the coupling
    operators are taken as in :func:`br_tensor`; a time-dependent one raises
    :class:`~oqsim.exceptions.MethodError`.
    """
    H = constant_operator(H, "brmesolve's H")
    R_super, ekets = br_tensor(H, couplings, sec_cutoff=sec_cutoff)
    return _BRSolver(R_super, ekets, H.dims, options).run(rho0, tlist, e_ops=e_ops)
