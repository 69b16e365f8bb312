"""Shared machinery for the trajectory solvers.

Each trajectory is a pure function of its seed and the immutable problem
data, and results are merged in seed order, so the output does not depend on
how the map layer schedules them.  The map runs serially: a thread pool was
slower than serial under the GIL, so ``map: parallel`` is kept only as an
accepted alias of ``serial``.

Every trajectory solver hands its ensemble to one :class:`Ensemble`, which
owns the reduction, the ``target_tol`` stop check and the result.  The solver
turns what :func:`run_map` returned into records ``(weight, expect, mu,
states)``: the ensemble weight, the raw expectation series (one per e_op),
the martingale factor on the output grid or ``None``, and the kets or density
matrices on the output grid or ``None``.  Records are summed in the order the
solver lists them, so that order is part of the output bits.  A record enters
the means as ``expect[k] * mu``, the martingale trace (``trace``,
``trace_std``) as ``Re mu`` and the states as ``(weight * mu[j]) * rho``,
a ket ``psi`` as ``rho = outer(psi, psi*)``; without ``mu`` the factor is
left out, and since a weight of ``1.0`` is exact, an unweighted ensemble keeps
the bits of a plain sum.  ``stats["stop"]`` says why the run ended:
``"target_tol"`` when the stop check ended it, ``"timeout"`` when
:func:`run_map` returned before its last job for another reason, and
``"ntraj"`` when every job ran.
"""

from __future__ import annotations

import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .exceptions import MethodError, OptionError, RangeError
from .integrator import FlatOptions, IntegratorOptions
from .qobj import Qobj
from .result import MultiTrajResult, normalize_e_ops

__all__ = ["TrajectoryOptions", "McOptions", "target_reached", "trajectory_rng", "run_map",
           "WeightedStats", "Ensemble"]


@dataclass
class TrajectoryOptions(FlatOptions):
    """Options shared by the trajectory solvers.

    ``seed`` is the master seed; trajectory ``i`` draws from an independent
    stream derived from ``(seed, i)`` with a counter-based generator, so runs
    are reproducible.  ``map`` is ``"serial"``; ``"parallel"`` is accepted as
    an alias that also runs serially.  ``target_tol`` is a number ``>= 0`` or
    an ``(atol, rtol)`` pair of them; the run stops early once the standard
    error of every expectation value is within ``atol + rtol * |mean|``,
    checked every 50 trajectories.  ``timeout`` (seconds) stops it at the
    next such check.
    """

    ntraj: int = 500
    target_tol: object = None
    timeout: float | None = None
    seed: int = 0
    map: str = "serial"
    keep_runs_results: bool = False
    store_states: bool = False

    def validated(self):
        super().validated()
        if self.ntraj < 1:
            raise RangeError("ntraj must be at least 1")
        if self.map not in ("serial", "parallel"):
            raise RangeError(f"unknown map mode {self.map!r}")
        if self.target_tol is not None:
            _target_tols(self.target_tol)
        return self


@dataclass
class McOptions(TrajectoryOptions):
    """Options of :func:`~oqsim.mcsolve.mcsolve` and :func:`~oqsim.nm_mcsolve.nm_mcsolve`.

    The :class:`TrajectoryOptions` keys, plus ``improved_sampling`` (run the
    no-jump trajectory once and sample only jumping ones), ``norm_tol`` (the
    relative precision of a located jump time) and the integrator keys
    (``atol``, ``rtol``, ``nsteps``, ``max_step``, ``first_step``,
    ``method``).  Only ``method: rk45_adaptive`` applies: a trajectory with
    jumps has no constant generator to diagonalize, so ``diag_expm`` raises
    :class:`MethodError`.
    """

    improved_sampling: bool = False
    norm_tol: float = 1e-8
    integrator: IntegratorOptions = field(default_factory=IntegratorOptions)

    def validated(self):
        super().validated()
        if self.integrator.method != "rk45_adaptive":
            raise MethodError(f"trajectory solvers integrate with rk45_adaptive, "
                              f"not {self.integrator.method!r}")
        return self


def _target_tols(target_tol) -> tuple[float, float]:
    """The ``(atol, rtol)`` of a ``target_tol`` option: a number or a pair, none negative."""
    pair = target_tol if isinstance(target_tol, (tuple, list)) else (target_tol, 0.0)
    if len(pair) != 2 or not all(
        isinstance(v, numbers.Real) and not isinstance(v, (bool, np.bool_)) for v in pair
    ):
        raise OptionError(f"target_tol must be a number or an (atol, rtol) pair; "
                          f"got {target_tol!r}")
    atol, rtol = float(pair[0]), float(pair[1])
    if not (atol >= 0 and rtol >= 0):
        raise RangeError(f"target_tol must be >= 0; got {target_tol!r}")
    return atol, rtol


def target_reached(stats: "WeightedStats", target_tol) -> bool:
    """Whether the standard error of every ensemble mean in ``stats`` is within
    ``target_tol``: ``std / sqrt(n) <= atol + rtol * |mean|`` at every time."""
    atol, rtol = _target_tols(target_tol)
    avg, std = stats.finalize()
    n = stats.n
    for a, s in zip(avg, std):
        err = s / np.sqrt(max(n, 1))
        bound = atol + rtol * np.abs(a)
        if np.any(err > bound):
            return False
    return True


def trajectory_rng(master_seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible stream for one trajectory."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((master_seed, index))))


def run_map(fn, indices, timeout: float | None = None, check_every: int = 50, stop_check=None):
    """Run ``fn(i)`` for each index, in order.

    Results are returned as a list aligned with ``indices``.  ``stop_check``
    (if given) is called with the list of completed results every
    ``check_every`` finished trajectories and may return True to stop early.
    ``timeout`` (seconds) also stops the run between chunks.  Completed
    results are always a prefix of ``indices``.
    """
    results = []
    t0 = time.monotonic()
    indices = list(indices)
    chunk = max(1, check_every)
    pos = 0
    while pos < len(indices):
        batch = indices[pos : pos + chunk]
        results.extend(fn(i) for i in batch)
        pos += len(batch)
        if timeout is not None and time.monotonic() - t0 > timeout:
            break
        if stop_check is not None and pos < len(indices) and stop_check(results):
            break
    return results


class WeightedStats:
    """Weighted ensemble mean / population standard deviation per e_op.

    ``dtype`` is the dtype of the means: ``float`` for a real series.
    The error convention used by the acceptance checks is
    ``sigma_err = std / sqrt(ntraj)``.
    """

    def __init__(self, n_eops: int, n_times: int, dtype=complex):
        self.w_sum = 0.0
        self.mean = [np.zeros(n_times, dtype=dtype) for _ in range(n_eops)]
        self.sq = [np.zeros(n_times) for _ in range(n_eops)]
        self.n = 0

    def add(self, weight: float, series_list):
        self.w_sum += weight
        self.n += 1
        for k, series in enumerate(series_list):
            self.mean[k] += weight * series
            self.sq[k] += weight * np.abs(series) ** 2

    def finalize(self):
        avg = [m / self.w_sum for m in self.mean]
        std = [
            np.sqrt(np.maximum(sq / self.w_sum - np.abs(m) ** 2, 0.0))
            for sq, m in zip(self.sq, avg)
        ]
        return avg, std


class Ensemble:
    """The reduction, the stop check and the result of one trajectory solve.

    Built when the solve starts: it splits ``e_ops`` into ``labels`` and
    ``ops``, checked against the system's operator dims ``dims``, and
    ``run_time`` is measured from then.
    """

    def __init__(self, solver: str, opts: TrajectoryOptions, tlist: np.ndarray, e_ops, dims):
        self.t_start = time.perf_counter()
        self.solver, self.opts, self.tlist, self.dims = solver, opts, tlist, dims
        self.labels, self.ops = normalize_e_ops(e_ops, dims)
        self.stopped = False

    def reduce(self, records) -> WeightedStats:
        """The weighted mean and spread of ``expect * mu`` over ``records``."""
        stats = WeightedStats(len(self.ops), self.tlist.size)
        for w, expect, mu, _ in records:
            stats.add(w, expect if mu is None else [series * mu for series in expect])
        return stats

    def stop_check(self, done, weigh) -> bool:
        """Whether ``target_tol`` is reached on the records ``weigh(done)``.

        False, before anything is weighed, without ``target_tol`` or e_ops.
        """
        if self.opts.target_tol is None or not self.ops:
            return False
        self.stopped = target_reached(self.reduce(weigh(done)), self.opts.target_tol)
        return self.stopped

    def result(self, records, finished: bool, stats=None, **fields) -> MultiTrajResult:
        """The :class:`MultiTrajResult` of ``records``.

        ``finished`` says whether :func:`run_map` ran every job.  The averaged
        states are density operators on the system's space.  ``stats`` holds the solver's own
        stats keys and ``fields`` its own result fields.
        """
        opts, real_flags = self.opts, [op.isherm for op in self.ops]
        avg, std = self.reduce(records).finalize()
        if records and records[0][2] is not None:
            # The martingale trace: the weighted mean and spread of Re mu itself, kept
            # real, since a complex mean is divided in complex arithmetic (other bits).
            traces = WeightedStats(1, self.tlist.size, dtype=float)
            for w, _, mu, _ in records:
                traces.add(w, [mu.real])
            (fields["trace"],), (fields["trace_std"],) = traces.finalize()
        runs_expect = average_states = None
        if opts.keep_runs_results:
            runs_expect = [np.array([(e[k].real if flag else e[k]) for _, e, _, _ in records])
                           for k, flag in enumerate(real_flags)]
        if opts.store_states:
            n = self.dims.shape[0]
            acc = [np.zeros((n, n), dtype=complex) for _ in self.tlist]
            for w, _, mu, states in records:
                for j, s in enumerate(states):
                    rho = np.outer(s, s.conj()) if s.ndim == 1 else s
                    acc[j] += (w if mu is None else w * mu[j]) * rho
            w_total = sum(w for w, _, _, _ in records)
            average_states = [Qobj(a / w_total, dims=self.dims) for a in acc]
        n_used = len(records)
        stop = "target_tol" if self.stopped else "ntraj" if finished else "timeout"
        return MultiTrajResult(
            self.tlist, self.labels, [a.real if flag else a for a, flag in zip(avg, real_flags)],
            std,
            runs_expect=runs_expect,
            average_states=average_states,
            final_state=average_states[-1] if average_states else None,
            ntraj_used=n_used,
            seeds=[(opts.seed, k) for k in range(n_used)],
            weights=[w for w, _, _, _ in records],
            stats={"solver": self.solver, "ntraj_requested": opts.ntraj, "ntraj_used": n_used,
                   "stop": stop, "map": opts.map, **(stats or {}),
                   "run_time": time.perf_counter() - self.t_start},
            **fields,
        )
