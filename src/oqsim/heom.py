"""Hierarchical equations of motion over auxiliary density operators.

For each bath exponent the hierarchy carries one non-negative integer index;
the stack of all multi-indices ``n`` with ``sum n_jk <= N_c`` evolves under

    d rho^n/dt = -i[H, rho^n] - (sum_jk n_jk v_jk) rho^n
                 - i sum_jk [Q_j, rho^(n_jk +)]
                 - i sum_(real k) n_jk cR_jk [Q_j, rho^(n_jk -)]
                 + sum_(imag k) n_jk cI_jk {Q_j, rho^(n_jk -)}
                 + sum_(RI k) n_jk (-i cR_jk [Q_j, .] + cI_jk {Q_j, .}) rho^(n_jk -)

in column-stacked form.  The bracket structure of the down-coupling terms
(commutator for the real-part exponents, anticommutator for the
imaginary-part ones) is the one validated by the exact pure-dephasing
solution; see the package README for a note on the convention.

A real-part and an imaginary-part exponent of one bath that share a decay
rate share one index, an "RI" exponent whose down-coupling is the sum of
both.  Its ADO ``sigma^m`` stands for ``sum_(a+b=m) binom(m, a) rho^(a, b)``
of the hierarchy that indexes them apart, which obeys the same equations
under the same truncation: merging changes the cost, not the answer.

The adaptive method steps the hierarchy in the integrator's decay form: the
real part of the generator's diagonal, ``D = -Re(n . v)`` (the ADO decay
rates), is integrated exactly, and the right-hand side applies the rest ``N
= L - diag(D)``.  The fastest rate, ``n_c max Re v``, then bounds neither
the step size nor the stability, and the step error is measured in the max
norm, so the few level-0 components are held to the tolerances as tightly
as the many auxiliary ones.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np
import scipy.sparse as sp

from . import data as _d
from .dimensions import Dimensions
from .enr import EnrSpace
from .environment import BosonicEnvironment, ExponentSet, _same_rate, matsubara_decompose
from .exceptions import ArgumentError, RangeError
from .integrator import DP54Stepper
from .qobj import Qobj
from .qobjevo import QobjEvo
from .result import SolveResult, check_list, check_number, check_operators, constant_operator
from .solver import MESolver, Solver, SolverOptions
from .superop import spost, spre

__all__ = ["AdoIndexSet", "HEOMResult", "hierarchy_build", "heomsolve", "heom_cutoff_hint"]


class AdoIndexSet(EnrSpace):
    """The hierarchy multi-indices with ``sum(n) <= cutoff``: the ENR space
    ``EnrSpace([cutoff + 1] * n_exponents, cutoff)``, whose ``labels`` are its
    states.  Index 0 is the zero multi-index -- the system density matrix --
    and each truncation level is a contiguous prefix.
    """

    def __init__(self, n_exponents: int, cutoff: int):
        if cutoff < 0:
            raise RangeError("hierarchy cutoff must be non-negative")
        if n_exponents < 0:
            raise RangeError("exponent count must be non-negative")
        super().__init__([cutoff + 1] * n_exponents, cutoff)
        self.n_exponents = n_exponents
        self.cutoff = cutoff
        self.labels = self.states

    def up(self, label, k: int):
        """Multi-index with entry k raised, or None when it leaves the cutoff."""
        if sum(label) + 1 > self.cutoff:
            return None
        out = list(label)
        out[k] += 1
        return tuple(out)

    def down(self, label, k: int):
        """Multi-index with entry k lowered, or None when already zero."""
        if label[k] == 0:
            return None
        out = list(label)
        out[k] -= 1
        return tuple(out)


class HEOMResult(SolveResult):
    """SolveResult plus access to the final auxiliary-density-operator stack."""

    def __init__(self, *args, final_ados=None, ado_index=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.final_ados = final_ados
        self.ado_index = ado_index


def _exponent_records(exps: ExponentSet):
    """One ``(kind, cR, cI, v)`` record per hierarchy index of one bath.

    An imaginary-part exponent takes the index of the first real-part one
    of equal rate (to :class:`ExponentSet`'s merge tolerance) that has no
    partner yet, as one ``"RI"`` record with both coefficients; the others
    stay ``"R"`` (``cI = 0``) and ``"I"`` (``cR = 0``) records.
    """
    recs = [["R", c, 0, v] for c, v in zip(exps.ck_real, exps.vk_real)]
    for c, v in zip(exps.ck_imag, exps.vk_imag):
        for rec in recs:
            if rec[0] == "R" and _same_rate(v, rec[3]):
                rec[0], rec[2] = "RI", c
                break
        else:
            recs.append(["I", 0, c, v])
    return [tuple(rec) for rec in recs]


def _build_generator(H: Qobj, couplings, n_c: int):
    """Assemble the sparse hierarchy generator for [(Q, exponent records)...].

    With ``a`` running over the ADOs and ``k`` over the exponents of all baths,
    the generator is a sum of Kronecker products over the ADO index:

        I_ado (x) L_sys - diag(damp) (x) I_d2
        + sum_k U_k (x) (-i comm_k)
        + sum_k D_k (x) n_k (-i cR_k comm_k + cI_k anti_k)

    ``U_k`` links each ADO to its neighbour with entry k raised, ``D_k`` to
    the one with entry k lowered, and ``damp_a = n_a . v``.  The up pairs of
    exponent k are :meth:`~oqsim.enr.EnrSpace.ladder`'s, and the same pairs
    reversed are the down pairs.

    The lowering block of an "R" record is its commutator part alone, of an
    "I" record its anticommutator part, and of an "RI" record both, as two
    COO blocks that the conversion to CSR adds entry by entry.

    Each product is written straight into COO form: block positions offset by
    ``d^2`` times the ADO indices, block values gathered, not multiplied.
    Every value is made by the same floating-point operation as in a per-ADO
    sum of blocks, so the CSR is bit-identical to that build.  That is why
    ``damp`` is taken row by row with ``np.dot``: one matrix product sums in
    another order and differs in the last bits.
    """
    check_number(n_c, "n_c", integer=True)
    d = H.shape[0]
    d2 = d * d
    records = []
    per_bath_ops = []
    for Q, recs in couplings:
        Q = constant_operator(Q, "a HEOM coupling operator")
        check_operators([Q], H.dims, "HEOM coupling operator", hermitian=True)
        comm = sp.csr_matrix((spre(Q) - spost(Q)).data.scipy_matrix()).tocoo()
        anti = sp.csr_matrix((spre(Q) + spost(Q)).data.scipy_matrix()).tocoo()
        records += recs
        per_bath_ops += [(comm, anti)] * len(recs)

    ados = AdoIndexSet(len(records), n_c)
    n_ado = len(ados)
    labels = ados.array

    from .superop import liouvillian

    L_sys = sp.csr_matrix(liouvillian(H, ()).data.scipy_matrix()).tocoo()
    rows, cols, vals = [], [], []

    def add_blocks(src, dst, block_row, block_col, values):
        """COO entries of the blocks at (src_i, dst_i); values per pair or shared."""
        rows.append((src[:, None] * d2 + block_row).ravel())
        cols.append((dst[:, None] * d2 + block_col).ravel())
        vals.append(np.broadcast_to(values, (src.size, block_row.size)).ravel())

    # Diagonal blocks L_sys - damp * I, entry by entry as a sparse difference
    # makes them: off-diagonal entries are those of L_sys, a diagonal entry is
    # L_ii - (1 * damp), and an entry that comes out 0 is dropped.
    every = np.arange(n_ado)
    off = (L_sys.row != L_sys.col) & (L_sys.data != 0)
    add_blocks(every, every, L_sys.row[off], L_sys.col[off], L_sys.data[off])
    l_diag = np.zeros(d2, dtype=np.complex128)
    on = L_sys.row == L_sys.col
    l_diag[L_sys.row[on]] = L_sys.data[on]
    rates = np.array([rec[3] for rec in records])
    damp = np.array([complex(np.dot(row, rates)) for row in labels.astype(float)])
    diag = l_diag - np.ones(1, dtype=np.complex128) * damp[:, None]
    a, i = np.nonzero(diag != 0)
    rows.append(a * d2 + i)
    cols.append(a * d2 + i)
    vals.append(diag[a, i])

    for k, (kind, cR, cI, _) in enumerate(records):
        comm, anti = per_bath_ops[k]
        lower, upper = ados.ladder(k)
        add_blocks(lower, upper, comm.row, comm.col, comm.data * -1j)
        # Lowering entry k of ``upper`` reaches ``lower``; the entry's value
        # n = 1..n_c picks the block.
        parts = []
        if kind != "I":
            parts.append((comm, [-1j * n * cR for n in range(n_c + 1)]))
        if kind != "R":
            parts.append((anti, [n * cI for n in range(n_c + 1)]))
        for block, coefs in parts:
            table = np.array([block.data * coef for coef in coefs])
            add_blocks(upper, lower, block.row, block.col, table[labels[upper, k]])

    size = n_ado * d2
    gen = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    ).tocsr()
    return _d.DataMatrix(gen, "csr"), ados


def hierarchy_build(H: Qobj, Q: Qobj, exps: ExponentSet, n_c: int):
    """Hierarchy generator for a single bath: ``(generator, AdoIndexSet)``.

    The generator is a CSR DataMatrix over the stacked vec-space of all ADOs;
    its stack dimension is ``d^2 * binomial(n_c + N, n_c)`` with ``N`` the
    number of hierarchy indices: ``n_real + n_imag`` less one for each
    imaginary-part exponent that shares its rate with a real-part one.
    """
    H = constant_operator(H, "hierarchy_build's H")
    return _build_generator(H, [(Q, _exponent_records(exps))], n_c)


def heom_cutoff_hint(exps: ExponentSet, w_s: float) -> int:
    """Heuristic lower bound for the hierarchy cutoff: ceil(w_s / min Re v)."""
    if w_s <= 0:
        raise RangeError("the system frequency must be positive")
    rates = np.concatenate([exps.vk_real, exps.vk_imag])
    if rates.size == 0:
        raise RangeError("exponent set is empty")
    return int(math.ceil(w_s / float(np.min(rates.real))))


def _split_decay(gen) -> np.ndarray:
    """``D``, the real part of the CSR generator's diagonal, which is moved out of
    ``gen`` in place: ``gen`` then holds ``N = L - diag(D)``.

    The diagonal is ``L_sys``'s, which is imaginary for a Hermitian ``H``,
    minus the ADO decay rates ``n . v``, so ``D <= 0`` (``Re v > 0``).
    """
    mat = gen.scipy_matrix()
    rows = np.repeat(np.arange(mat.shape[0]), np.diff(mat.indptr))
    on = np.flatnonzero(mat.indices == rows)
    decay = np.zeros(mat.shape[0])
    decay[rows[on]] = mat.data.real[on]
    mat.data.real[on] = 0.0
    return decay


class _HEOMSolver(MESolver):
    """An MESolver whose packed state is the whole ADO stack.

    The initial stack is the system density matrix padded with zero auxiliary
    ADOs; stored states and expectation values read the level-0 slice.

    The solver owns ``gen``.  For the adaptive method it moves the real part
    of the diagonal out of it in place (:func:`_split_decay`), so only one
    hierarchy matrix is held, and steps in the integrator's decay form.
    """

    name = "heomsolve"

    def __init__(self, gen, ados: AdoIndexSet, H: Qobj, options):
        options = SolverOptions.coerce(options)
        self._decay = _split_decay(gen) if options.integrator.method == "rk45_adaptive" else None
        # The generator is the given hierarchy, not a Liouvillian built from H.
        Solver.__init__(self, QobjEvo(Qobj(gen)), options)
        self.ados = ados
        self._op_dims = Dimensions(H.dims.ket, H.dims.bra, enr=H.dims.enr)
        self._n = H.shape[0]

    def _pack(self, state):
        y0 = np.zeros(self.rhs_evo.shape[0], dtype=np.complex128)
        y0[: self._n**2] = super()._pack(state)
        return y0

    def _unpack(self, y):
        return super()._unpack(y[: self._n**2])

    def _expect_row(self, e_op: Qobj):
        row = super()._expect_row(e_op)
        return lambda y: row(y[: self._n**2])

    def _stepper(self, rhs, t0, y0, t_end):
        return DP54Stepper(rhs, t0, y0, self.options.integrator, t_end, decay=self._decay)

    def _result(self, y_final, *args, **kwargs):
        final_ados = y_final.reshape(len(self.ados), -1)
        return HEOMResult(*args, final_ados=final_ados, ado_index=self.ados, **kwargs)


def heomsolve(
    H: Qobj,
    baths,
    rho0: Qobj,
    tlist,
    n_c: int,
    e_ops=None,
    n_k: int = 5,
    options=None,
) -> HEOMResult:
    """Integrate the HEOM for one or more bosonic baths.

    ``baths`` is a ``(bath, Q)`` pair or a list of them, where each bath is an
    :class:`ExponentSet` or a :class:`BosonicEnvironment` (decomposed with
    ``n_k`` Matsubara terms).  ``H`` and each Hermitian ``Q`` may be constant
    QobjEvos or list specs; a time-dependent one raises
    :class:`~oqsim.exceptions.MethodError`.  Expectation values are taken on
    the level-0 slice of the stack.
    """
    t_start = time.perf_counter()
    # Like the ADO stack, the final state is always returned.
    opts = replace(SolverOptions.coerce(options), store_final_state=True)
    H = constant_operator(H, "heomsolve's H")
    check_number(n_k, "n_k", integer=True)
    if isinstance(baths, tuple) and len(baths) == 2 and not isinstance(baths[0], (list, tuple)):
        baths = [baths]
    couplings = []
    for bath, Q in check_list(baths, "baths", pairs=True):
        if isinstance(bath, BosonicEnvironment):
            bath = matsubara_decompose(bath, n_k)
        if not isinstance(bath, ExponentSet):
            raise ArgumentError("each bath must be an ExponentSet or BosonicEnvironment")
        couplings.append((Q, _exponent_records(bath)))

    t_build = time.perf_counter()
    gen, ados = _build_generator(H, couplings, n_c)
    build_time = time.perf_counter() - t_build
    res = _HEOMSolver(gen, ados, H, opts).run(rho0, tlist, e_ops=e_ops)
    res.stats.update(
        n_ados=len(ados), build_time=build_time, run_time=time.perf_counter() - t_start
    )
    return res
