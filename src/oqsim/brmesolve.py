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
from .exceptions import RangeError
from .qobj import Qobj
from .result import SolveResult, check_operators, check_state, constant_operator, normalize_e_ops
from .solver import MESolver

__all__ = ["BRCoupling", "br_tensor", "brmesolve"]


@dataclass
class BRCoupling:
    """A Hermitian system operator coupled to a bath with power spectrum S(w)."""

    op: Qobj
    spectrum: Callable[[float], float]


def _as_couplings(couplings):
    out = []
    for entry in couplings:
        if isinstance(entry, BRCoupling):
            out.append(entry)
        else:
            op, spec = entry
            out.append(BRCoupling(op, spec))
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
                S[i, j] = float(coup.spectrum(Wab[i, j]))
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
    ket_dims = Dimensions(H.dims.ket, [1] * len(H.dims.ket))
    ekets = [Qobj(Varr[:, k].reshape(-1, 1), dims=ket_dims) for k in range(n)]
    return R_super, ekets


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

    The density matrix is propagated in the Hamiltonian eigenbasis and
    expectation values (and stored states) are transformed back to the lab
    basis.  ``H`` and the coupling operators are taken as in :func:`br_tensor`; a
    time-dependent one raises :class:`~oqsim.exceptions.MethodError`.
    """
    H = constant_operator(H, "brmesolve's H")

    R_super, ekets = br_tensor(H, couplings, sec_cutoff=sec_cutoff)
    n = H.shape[0]
    Varr = np.column_stack([k.full().ravel() for k in ekets])

    rho0 = check_state(rho0, H.dims, "oper")
    labels, ops = normalize_e_ops(e_ops, H.dims)

    def to_eig(op):
        return Qobj(Varr.conj().T @ op.full() @ Varr, dims=Dimensions([n], [n]))

    def to_lab(rho):
        return Qobj(Varr @ rho.full() @ Varr.conj().T, dims=rho0.dims)

    ops_eig = {lbl: to_eig(op) for lbl, op in zip(labels, ops)}

    solver = MESolver(R_super, (), options)
    solver.name = "brmesolve"
    res = solver.run(to_eig(rho0), tlist, e_ops=ops_eig or None)

    if res.states is not None:
        res.states = [to_lab(s) for s in res.states]
        res.final_state = res.states[-1]
    elif res.final_state is not None:
        res.final_state = to_lab(res.final_state)
    return res
