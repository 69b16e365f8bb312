"""Hierarchical equations of motion over auxiliary density operators.

For each bath exponent the hierarchy carries one non-negative integer index;
the stack of all multi-indices ``n`` with ``sum n_jk <= N_c`` evolves under

    d rho^n/dt = -i[H, rho^n] - (sum_jk n_jk v_jk) rho^n
                 - i sum_jk [Q_j, rho^(n_jk +)]
                 - i sum_(real k) n_jk cR_jk [Q_j, rho^(n_jk -)]
                 + sum_(imag k) n_jk cI_jk {Q_j, rho^(n_jk -)}

in column-stacked form.  The bracket structure of the down-coupling terms
(commutator for the real-part exponents, anticommutator for the
imaginary-part ones) is the one validated by the exact pure-dephasing
solution; see the package README for a note on the convention.
"""

from __future__ import annotations

import math
import time
from itertools import combinations_with_replacement

import numpy as np
import scipy.sparse as sp

from . import data as _d
from .dimensions import Dimensions
from .environment import BosonicEnvironment, ExponentSet, matsubara_decompose
from .exceptions import DimensionMismatchError, NotHermitianError, RangeError
from .qobj import Qobj
from .qobjevo import QobjEvo
from .result import SolveResult, normalize_e_ops
from .solver import SolverOptions
from .integrator import DP54Stepper
from .superop import spost, spre

__all__ = ["AdoIndexSet", "HEOMResult", "hierarchy_build", "heomsolve", "heom_cutoff_hint"]


class AdoIndexSet:
    """Enumeration of hierarchy multi-indices with ``sum(n) <= cutoff``.

    Ordering is graded lexicographic (total excitation first, then
    lexicographic), so index 0 is the zero multi-index -- the system density
    matrix -- and each truncation level is a contiguous prefix.
    """

    def __init__(self, n_exponents: int, cutoff: int):
        if cutoff < 0:
            raise RangeError("hierarchy cutoff must be non-negative")
        if n_exponents < 0:
            raise RangeError("exponent count must be non-negative")
        self.n_exponents = n_exponents
        self.cutoff = cutoff
        labels = []
        for total in range(cutoff + 1):
            labels.extend(sorted(_compositions(total, n_exponents)))
        self.labels = labels
        self._index = {lab: i for i, lab in enumerate(labels)}

    def __len__(self):
        return len(self.labels)

    def index(self, label) -> int:
        return self._index[tuple(label)]

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


def _compositions(total: int, parts: int):
    """All tuples of ``parts`` non-negative ints summing to ``total``."""
    if parts == 0:
        return [()] if total == 0 else []
    out = []
    for slots in combinations_with_replacement(range(parts), total):
        lab = [0] * parts
        for s in slots:
            lab[s] += 1
        out.append(tuple(lab))
    return out


class HEOMResult(SolveResult):
    """SolveResult plus access to the final auxiliary-density-operator stack."""

    def __init__(self, *args, final_ados=None, ado_index=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.final_ados = final_ados
        self.ado_index = ado_index


def _exponent_records(exps: ExponentSet):
    recs = [("R", c, v) for c, v in zip(exps.ck_real, exps.vk_real)]
    recs += [("I", c, v) for c, v in zip(exps.ck_imag, exps.vk_imag)]
    return recs


def _label_keys(labels: np.ndarray, n_c: int):
    """Mixed-radix key of each label (one base ``n_c + 1`` digit per exponent)
    and the weight of each digit; Python ints once the keys outgrow int64."""
    base = n_c + 1
    dtype = np.int64 if base ** labels.shape[1] <= 2**63 else object
    weights = np.array([base**k for k in range(labels.shape[1])], dtype=dtype)
    return labels.astype(dtype) @ weights, weights


def _build_generator(H: Qobj, couplings, n_c: int):
    """Assemble the sparse hierarchy generator for [(Q, exponent records)...].

    With ``a`` running over the ADOs and ``k`` over the exponents of all baths,
    the generator is a sum of Kronecker products over the ADO index:

        I_ado (x) L_sys - diag(damp) (x) I_d2
        + sum_k U_k (x) (-i comm_k)
        + sum_k D_k (x) n_k c_k (-i comm_k | anti_k)

    ``U_k`` links each ADO to its neighbour with entry k raised, ``D_k`` to
    the one with entry k lowered, and ``damp_a = n_a . v``.  Neighbours come
    from mixed-radix label keys: raising entry k adds ``(n_c + 1)**k`` to the
    key, so one ``searchsorted`` into the sorted keys per exponent yields
    every up pair, and the same pairs reversed are the down pairs.

    Each product is written straight into COO form: block positions offset by
    ``d^2`` times the ADO indices, block values gathered, not multiplied.
    Every value is made by the same floating-point operation as in a per-ADO
    sum of blocks, so the CSR is bit-identical to that build.  That is why
    ``damp`` is taken row by row with ``np.dot``: one matrix product sums in
    another order and differs in the last bits.
    """
    d = H.shape[0]
    d2 = d * d
    records = []
    per_bath_ops = []
    for Q, recs in couplings:
        if Q.dims != H.dims:
            raise DimensionMismatchError("coupling operator dims do not match H")
        if not Q.isherm:
            raise NotHermitianError("HEOM coupling operators must be Hermitian")
        comm = sp.csr_matrix((spre(Q) - spost(Q)).data.scipy_matrix()).tocoo()
        anti = sp.csr_matrix((spre(Q) + spost(Q)).data.scipy_matrix()).tocoo()
        for kind, c, v in recs:
            records.append((kind, c, v))
            per_bath_ops.append((comm, anti))

    ados = AdoIndexSet(len(records), n_c)
    n_ado = len(ados)
    labels = np.array(ados.labels, dtype=np.int64).reshape(n_ado, len(records))

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
    rates = np.array([v for _, _, v in records])
    damp = np.array([complex(np.dot(row, rates)) for row in labels.astype(float)])
    diag = l_diag - np.ones(1, dtype=np.complex128) * damp[:, None]
    a, i = np.nonzero(diag != 0)
    rows.append(a * d2 + i)
    cols.append(a * d2 + i)
    vals.append(diag[a, i])

    keys, weights = _label_keys(labels, n_c)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    lower = np.flatnonzero(labels.sum(axis=1) < n_c)
    for k, (kind, c, _) in enumerate(records):
        comm, anti = per_bath_ops[k]
        upper = order[np.searchsorted(sorted_keys, keys[lower] + weights[k])]
        add_blocks(lower, upper, comm.row, comm.col, comm.data * -1j)
        # Lowering entry k of ``upper`` reaches ``lower``; the entry's value
        # n = 1..n_c picks the block.
        if kind == "R":
            block, coefs = comm, [-1j * n * c for n in range(n_c + 1)]
        else:
            block, coefs = anti, [n * c for n in range(n_c + 1)]
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
    its stack dimension is ``d^2 * binomial(n_c + N, n_c)`` with
    ``N = n_real + n_imag``.
    """
    return _build_generator(H, [(Q, _exponent_records(exps))], n_c)


def heom_cutoff_hint(exps: ExponentSet, w_s: float) -> int:
    """Heuristic lower bound for the hierarchy cutoff: ceil(w_s / min Re v)."""
    if w_s <= 0:
        raise RangeError("the system frequency must be positive")
    rates = np.concatenate([exps.vk_real, exps.vk_imag])
    if rates.size == 0:
        raise RangeError("exponent set is empty")
    return int(math.ceil(w_s / float(np.min(rates.real))))


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
    ``n_k`` Matsubara terms).  Expectation values are taken on the level-0
    slice of the stack.
    """
    t_start = time.perf_counter()
    if isinstance(H, QobjEvo):
        if not H.isconstant:
            raise DimensionMismatchError("heomsolve supports time-independent H only")
        H = H(0.0)
    if isinstance(baths, tuple) and len(baths) == 2 and not isinstance(baths[0], (list, tuple)):
        baths = [baths]
    couplings = []
    for bath, Q in baths:
        if isinstance(bath, BosonicEnvironment):
            bath = matsubara_decompose(bath, n_k)
        if not isinstance(bath, ExponentSet):
            raise TypeError("each bath must be an ExponentSet or BosonicEnvironment")
        couplings.append((Q, _exponent_records(bath)))

    t_build = time.perf_counter()
    gen, ados = _build_generator(H, couplings, n_c)
    build_time = time.perf_counter() - t_build
    mat = gen.scipy_matrix()
    d = H.shape[0]
    d2 = d * d

    if rho0.isket:
        rho0 = rho0.proj()
    if rho0.dims.ket != H.dims.ket:
        raise DimensionMismatchError("initial state dims do not match H")

    opts = SolverOptions.coerce(options)
    tlist = np.asarray(tlist, dtype=float)
    labels, ops = normalize_e_ops(e_ops)
    e_rows = [op.full().flatten(order="C") for op in ops]
    real_flags = [op.isherm for op in ops]
    store_states = opts.store_states if opts.store_states is not None else not ops

    y0 = np.zeros(len(ados) * d2, dtype=np.complex128)
    y0[:d2] = rho0.full().flatten(order="F")

    def rhs(t, y):
        return mat @ y

    stepper = DP54Stepper(rhs, float(tlist[0]), y0, opts.integrator, float(tlist[-1]))
    expect_out = [np.empty(tlist.size, dtype=complex) for _ in e_rows]
    states = [] if store_states else None
    dm_dims = Dimensions(rho0.dims.ket, rho0.dims.bra)

    from .exceptions import StepLimitError

    y = y0
    for j, target in enumerate(tlist):
        count = 0
        eps_t = 4 * np.finfo(float).eps * max(1.0, abs(target))
        while stepper.t < target - eps_t:
            if count >= opts.integrator.nsteps:
                raise StepLimitError(f"exceeded {opts.integrator.nsteps} steps before t={target:.6g}")
            stepper.step()
            count += 1
        y = stepper.y if stepper.segment is None else stepper.interpolate(
            min(target, stepper.segment.t_new)
        )
        level0 = y[:d2]
        for series, row in zip(expect_out, e_rows):
            series[j] = complex(row @ level0)
        if store_states:
            states.append(Qobj(level0.reshape((d, d), order="F"), dims=dm_dims))

    expect_final = [s.real if flag else s for s, flag in zip(expect_out, real_flags)]
    final_state = states[-1] if states else Qobj(
        np.asarray(y)[:d2].reshape((d, d), order="F"), dims=dm_dims
    )
    return HEOMResult(
        tlist,
        labels,
        expect_final,
        states=states,
        final_state=final_state,
        stats={
            "solver": "heomsolve",
            "n_ados": len(ados),
            "rhs_evaluations": stepper.nfev,
            "build_time": build_time,
            "run_time": time.perf_counter() - t_start,
        },
        final_ados=np.asarray(y).reshape(len(ados), d2),
        ado_index=ados,
    )
