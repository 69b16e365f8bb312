"""Shared machinery for the trajectory solvers.

Each trajectory is a pure function of its seed and the immutable problem
data, and results are merged in seed order, so the output does not depend on
how the map layer schedules them.  The map runs serially: a thread pool was
slower than serial under the GIL, so ``map: parallel`` is kept only as an
accepted alias of ``serial``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .exceptions import RangeError
from .integrator import FlatOptions, IntegratorOptions

__all__ = ["McOptions", "trajectory_rng", "run_map", "WeightedStats"]


@dataclass
class McOptions(FlatOptions):
    """Options for the Monte Carlo family of solvers.

    ``seed`` is the master seed; trajectory ``i`` draws from an independent
    stream derived from ``(seed, i)`` with a counter-based generator, so runs
    are reproducible.  ``map`` is ``"serial"``; ``"parallel"`` is accepted as
    an alias that also runs serially.  ``target_tol`` (scalar or
    ``(atol, rtol)``) stops the run early once the statistical error of every
    expectation value is below target, checked every 50 trajectories.
    """

    ntraj: int = 500
    improved_sampling: bool = False
    target_tol: object = None
    timeout: float | None = None
    seed: int = 0
    map: str = "serial"
    keep_runs_results: bool = False
    store_states: bool = False
    norm_tol: float = 1e-8
    dt_sub: float | None = None
    integrator: IntegratorOptions = field(default_factory=IntegratorOptions)

    def validated(self) -> "McOptions":
        if self.ntraj < 1:
            raise RangeError("ntraj must be at least 1")
        if self.map not in ("serial", "parallel"):
            raise RangeError(f"unknown map mode {self.map!r}")
        return self


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

    The error convention used by the acceptance checks is
    ``sigma_err = std / sqrt(ntraj)``.
    """

    def __init__(self, n_eops: int, n_times: int):
        self.w_sum = 0.0
        self.mean = [np.zeros(n_times, dtype=complex) for _ in range(n_eops)]
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
