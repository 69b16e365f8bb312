"""Homodyne stochastic master equation solver.

Euler-Maruyama integration of

    d rho = -i[H, rho] dt + sum_c D[c] rho dt + sum_s D[s] rho dt
            + sum_s H[s] rho dW_s

with one Wiener increment per monitored channel ``s`` and
``H[s] rho = s rho + rho s^dag - tr[s rho + rho s^dag] rho``.  The state is
renormalized to unit trace after every substep (the measurement nonlinearity
preserves the trace only on average).  Each trajectory also records the
homodyne current ``J_x = tr[(s + s^dag) rho] + dW/dt`` on the output grid.

Block layout.  Trajectories advance together in blocks of ``BLOCK``.  Each
density matrix is held as its d^2 real coordinates (:class:`HermitianCoords`:
the diagonal, then sqrt(2) Re and sqrt(2) Im of the strict upper triangle), so
a block is one ``(d^2, B)`` float64 array and every superoperator that maps
Hermitian matrices to Hermitian matrices is one real ``(d^2, d^2)`` matrix.
One substep of a block is:

* the deterministic part: the exact propagator ``expm(L dt)`` (the
  exponential of the real form of L) applied as one real matrix product when
  H is constant, else the Euler step
  ``R + dt L(t) R`` with ``L(t)`` summed from the real forms of the constant
  part and of each coefficient term of H;
* per monitored channel, in order: one real product for ``s rho + rho s^dag``,
  its trace as a row sum, and the elementwise Euler-Maruyama update;
* renormalization of every column to unit trace.

Determinism.  Trajectory ``i`` draws its Wiener increments from
``Philox((seed, i))`` alone, and blocks are cut from the trajectory indices in
order at a fixed width, so a rerun with the same ``(seed, ntraj)`` is
bit-identical.  Runs that cut blocks differently agree to rounding only: BLAS
may round the columns of a narrower block differently (of order 1e-14).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse

from .exceptions import RangeError
from .integrator import check_tlist
from .qobj import Qobj
from .qobjevo import as_evo, liouvillian_evo
from .result import MultiTrajResult, check_list, check_operators, check_state, constant_operator
from .superop import spost, spre
from .trajectory import Ensemble, TrajectoryOptions, run_map, trajectory_rng

__all__ = ["SmeOptions", "HermitianCoords", "WienerPath", "smesolve"]

# Trajectories per block, the same as run_map's default check_every.
BLOCK = 50

_SQRT2 = np.sqrt(2.0)


@dataclass
class SmeOptions(TrajectoryOptions):
    """Options of :func:`smesolve`: the :class:`~oqsim.trajectory.TrajectoryOptions`
    keys plus ``dt_sub``, the Euler-Maruyama substep (default: the ``tlist``
    spacing / 100).  No integrator key applies to its fixed-step loop, and
    ``target_tol`` is checked every ``BLOCK`` trajectories."""

    dt_sub: float | None = None


class WienerPath:
    """Seeded Wiener increments on a substep grid, one row per channel."""

    def __init__(self, rng, n_channels: int, n_steps: int, dt: float):
        self.dt = dt
        self.increments = rng.standard_normal((n_channels, n_steps)) * np.sqrt(dt)


class HermitianCoords:
    """Real coordinates of d x d Hermitian matrices.

    Coordinates are the diagonal, then ``sqrt(2) Re`` and ``sqrt(2) Im`` of
    the strict upper triangle in ``np.triu_indices`` order.  The map is an
    isometry of the Hilbert-Schmidt inner product, so ``tr(A B)`` of two
    Hermitian matrices is the dot product of their coordinates.
    Superoperators act on column-stacked (Fortran-order) vectors.
    """

    def __init__(self, d: int):
        self.d = d
        self._iu, self._ju = np.triu_indices(d, 1)
        # The unitary E with vec(rho) = E @ coords(rho), column-stacked vec;
        # two nonzeros per column at most.
        n = self._iu.size
        diag = np.arange(d) * (d + 1)
        up = self._iu + self._ju * d
        lo = self._ju + self._iu * d
        pair = np.arange(n)
        rows = np.concatenate([diag, up, lo, up, lo])
        cols = np.concatenate([np.arange(d), d + pair, d + pair, d + n + pair, d + n + pair])
        vals = np.concatenate([np.ones(d), np.full(2 * n, 1 / _SQRT2),
                               np.full(n, 1j / _SQRT2), np.full(n, -1j / _SQRT2)])
        self._E = scipy.sparse.csr_array((vals, (rows, cols)), shape=(d * d, d * d))
        self._E_dag = self._E.conj().T.tocsr()

    def from_matrix(self, rho: np.ndarray) -> np.ndarray:
        """Coordinates of the Hermitian part of ``rho``."""
        up = 0.5 * (rho[self._iu, self._ju] + rho[self._ju, self._iu].conj())
        return np.concatenate([rho.diagonal().real, _SQRT2 * up.real, _SQRT2 * up.imag])

    def to_matrices(self, R: np.ndarray) -> np.ndarray:
        """The ``(B, d, d)`` stack of matrices of the columns of ``R``."""
        d, n = self.d, self._iu.size
        out = np.zeros((R.shape[1], d, d), dtype=complex)
        k = np.arange(d)
        out[:, k, k] = R[:d].T
        up = (R[d : d + n] + 1j * R[d + n :]).T / _SQRT2
        out[:, self._iu, self._ju] = up
        out[:, self._ju, self._iu] = up.conj()
        return out

    def functional(self, op: np.ndarray) -> np.ndarray:
        """Complex row ``w`` with ``tr(op rho) = w @ coords(rho)``; real for Hermitian ``op``."""
        a, b = op[self._iu, self._ju], op[self._ju, self._iu]
        return np.concatenate([op.diagonal(), (a + b) / _SQRT2, 1j * (b - a) / _SQRT2])

    def superop(self, S) -> scipy.sparse.csr_array:
        """Real sparse matrix of ``rho -> Hermitian part of S(rho)`` on coordinates.

        ``S`` (dense or sparse) acts on column-stacked vectors; the result is
        ``Re(E^dag S E)``, exact for a Hermiticity-preserving ``S``.  E has at
        most two nonzeros per row and column, so this is O(nnz(S)) work.
        """
        out = (self._E_dag @ scipy.sparse.csr_array(S) @ self._E).real
        out.eliminate_zeros()
        return out


def _as_constant_operators(ops, dims, name):
    ops = [constant_operator(op, f"each of smesolve's {name}") for op in check_list(ops, name)]
    check_operators(ops, dims, name)
    return ops


def smesolve(H, rho0: Qobj, tlist, c_ops=(), sc_ops=(), e_ops=None, options=None) -> MultiTrajResult:
    """Trajectories of a homodyne-monitored system.

    ``sc_ops`` are the monitored channels (one Wiener process each);
    ``c_ops`` add unmonitored deterministic dissipation.  ``tlist`` must be
    uniform (see :func:`~oqsim.integrator.check_tlist`) and the substep
    ``dt_sub`` must divide its spacing; the default substep is spacing/100.
    ``c_ops`` and ``sc_ops`` may be constant QobjEvos or list specs; a
    time-dependent one raises :class:`~oqsim.exceptions.MethodError`.
    ``rho0`` is a ket or a Hermitian operator of nonzero trace; it and every
    operator in ``c_ops``, ``sc_ops`` and ``e_ops`` have H's dims and ENR
    marker.  ``options`` takes the :class:`SmeOptions` keys.  With
    ``target_tol`` set, the run stops after the first block of ``BLOCK``
    trajectories at which the standard error of every expectation value is
    within it; the result then holds those blocks only.

    ``stats`` holds the keys every trajectory solver reports (see
    :mod:`oqsim.trajectory`), plus ``dt_sub``, ``build_time`` (everything
    before the first block) and ``substeps`` (substeps summed over the
    trajectories run).
    """
    opts = SmeOptions.coerce(options)
    tlist = check_tlist(tlist, uniform=True)
    H_evo = as_evo(H)
    ens = Ensemble("smesolve", opts, tlist, e_ops, H_evo.dims)
    dt_out = tlist[1] - tlist[0]
    dt_sub = opts.dt_sub if opts.dt_sub is not None else dt_out / 100.0
    n_sub = dt_out / dt_sub
    if abs(n_sub - round(n_sub)) > 1e-8:
        raise RangeError(
            f"dt_sub={dt_sub} does not divide the tlist spacing {dt_out}"
        )
    n_sub = int(round(n_sub))
    dt = dt_out / n_sub

    if not sc_ops and not c_ops:
        raise RangeError("smesolve needs at least one collapse or monitored operator")

    rho0 = check_state(rho0, H_evo.dims, "oper", nonzero=True, hermitian=True)

    cs = _as_constant_operators(c_ops, H_evo.dims, "c_ops")
    ss = _as_constant_operators(sc_ops, H_evo.dims, "sc_ops")
    d = rho0.shape[0]
    coords = HermitianCoords(d)
    # s rho + rho s^dag, and the row of tr[(s + s^dag) rho].
    meas = [coords.superop((spre(s) + spost(s.dag())).data.scipy_matrix()) for s in ss]
    x_rows = np.array([coords.functional((s + s.dag()).full()).real
                       for s in ss]).reshape(-1, d * d)

    # For constant generators the deterministic part of the substep is applied
    # exactly through a precomputed propagator exp(L dt); only the measurement
    # term is then left to the Euler-Maruyama increment.  This keeps the
    # deterministic truncation error out of the trajectory average.  L maps
    # Hermitian matrices to Hermitian matrices, so its real form is exact and
    # the exponential is taken of that real matrix.  Products with the
    # propagator and the measurement terms are sparse: for a cavity most of
    # their entries are exact zeros.  L is built from the caller's operators in
    # their own storage, so a sparse system gives a sparse generator.
    L = liouvillian_evo(H_evo, cs + ss)
    L0 = coords.superop(L.terms[0][0].data.scipy_matrix()).toarray()
    if L.isconstant:
        prop = scipy.sparse.csr_array(scipy.linalg.expm(L0 * dt))

        def deterministic(R, t):
            return prop @ R

    else:
        # -i[H_k, .] and its product with i, for the real and imaginary
        # parts of the coefficient.
        td_terms = [
            (coords.superop(q.data.scipy_matrix()).toarray(),
             coords.superop((1j * q).data.scipy_matrix()).toarray(), c)
            for q, c in L.terms[1:]
        ]

        def deterministic(R, t):
            L = L0.copy()
            for re_part, im_part, c in td_terms:
                val = complex(c(t))
                L += val.real * re_part
                if val.imag:
                    L += val.imag * im_part
            return R + dt * (L @ R)

    e_rows = np.array([coords.functional(op.full()) for op in ens.ops]).reshape(-1, d * d)

    rho_init = rho0.full()
    r_init = coords.from_matrix(rho_init / np.trace(rho_init).real)
    n_channels = len(ss)
    n_times = tlist.size
    n_total_sub = n_sub * (n_times - 1)

    def run_block(start):
        indices = range(start, min(start + BLOCK, opts.ntraj))
        # (channel, substep, trajectory)
        dW_all = np.stack(
            [
                WienerPath(trajectory_rng(opts.seed, i), n_channels, n_total_sub, dt).increments
                for i in indices
            ],
            axis=-1,
        )
        B = len(indices)
        R = np.repeat(r_init[:, None], B, axis=1)
        expect = np.empty((B, len(e_rows), n_times), dtype=complex)
        record = np.empty((B, n_channels, n_times - 1))
        states = np.empty((B, n_times, d, d), dtype=complex) if opts.store_states else None

        def collect(j):
            expect[:, :, j] = (e_rows @ R).T
            if states is not None:
                states[:, j] = coords.to_matrices(R)

        collect(0)
        ptr = 0
        for j in range(n_times - 1):
            t = tlist[j]
            x_start = x_rows @ R
            for _ in range(n_sub):
                dW = dW_all[:, ptr]
                ptr += 1
                R = deterministic(R, t)
                for k in range(n_channels):
                    # R + (hR - tr(hR) R) dW, with two passes over R.
                    hR = meas[k] @ R
                    R *= 1.0 - hR[:d].sum(axis=0) * dW[k]
                    hR *= dW[k]
                    R += hR
                R /= R[:d].sum(axis=0)
                t += dt
            record[:, :, j] = (x_start + dW_all[:, ptr - n_sub : ptr].sum(axis=1) / dt_out).T
            collect(j + 1)
        return [
            (list(expect[b]), record[b], None if states is None else list(states[b]))
            for b in range(B)
        ]

    def weigh(blocks):
        return [(1.0, expect, None, states) for block in blocks for expect, _, states in block]

    build_time = time.perf_counter() - ens.t_start
    jobs = range(0, opts.ntraj, BLOCK)
    blocks = run_map(run_block, jobs, timeout=opts.timeout, check_every=1,
                     stop_check=lambda blocks: ens.stop_check(blocks, weigh))
    records = weigh(blocks)
    return ens.result(records, len(blocks) == len(jobs),
                      measurements=[rec for block in blocks for _, rec, _ in block],
                      stats={"dt_sub": dt, "build_time": build_time,
                             "substeps": n_total_sub * len(records)})
