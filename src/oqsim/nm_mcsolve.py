"""Non-Markovian Monte Carlo: quantum jumps for master equations whose rates
may turn negative.

The time-local master equation ``d rho/dt = -i[H, rho] + sum_n gamma_n(t) D_n``
is mapped onto a completely positive unraveling by (i) padding the jump
operators so that ``sum_n A_n^dag A_n = alpha 1``, (ii) shifting all rates by
``s(t) = 2 |min(0, gamma_1(t), ...)|`` so they are non-negative, and (iii)
weighting each trajectory with the influence martingale

    mu(t) = exp(alpha * int_0^t s) * prod_k gamma_{n_k}(t_k) / Gamma_{n_k}(t_k)

over its jumps.  Martingale-weighted averages reconstruct the original state;
the ensemble average of mu itself (the ``trace`` field) estimates tr(rho) = 1
and is a convergence diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from . import data as _d
from .coefficient import Coefficient, ConstantCoefficient, coefficient
from .dimensions import Dimensions
from .exceptions import RangeError
from .integrator import check_tlist
from .mcsolve import _Channel, _drift, _run_trajectories
from .qobj import Qobj
from .qobjevo import as_evo
from .result import MultiTrajResult, check_list, check_operators, constant_operator
from .trajectory import McOptions

__all__ = ["NmPrepared", "nm_prepare", "nm_mcsolve"]

_RATE_GUARD = 1e-14


@dataclass
class NmPrepared:
    """Padded jump operators, rate functions, shift and shifted rates."""

    ops: list
    rates: list
    alpha: float
    shift: object  # callable t -> s(t) >= 0
    shifted_rates: list


class _RateSet:
    """The real rates ``gamma_n(t)`` and the shift ``s(t)`` at the last time seen."""

    def __init__(self, rates):
        self.rates = rates
        self.t, self.vals, self.shift = None, [], 0.0

    def at(self, t: float) -> "_RateSet":
        if t != self.t:
            vals = [float(c(t).real) for c in self.rates]
            self.vals, self.shift = vals, 2.0 * abs(min(0.0, min(vals)))
            self.t = t
        return self

    def shift_at(self, t: float) -> float:
        return self.at(t).shift


class _ShiftedRate(Coefficient):
    """``Gamma_k(t) = gamma_k(t) + s(t)``, which is never negative."""

    def __init__(self, rate_set: _RateSet, k: int):
        self.rate_set, self.k = rate_set, k

    def __call__(self, t, args=None):
        rs = self.rate_set.at(t)
        return complex(rs.vals[self.k] + rs.shift)

    def ratio(self, t: float) -> float:
        """The martingale factor ``gamma_k / Gamma_k`` at a jump time."""
        rs = self.rate_set.at(t)
        G = rs.vals[self.k] + rs.shift
        if G < _RATE_GUARD:
            return 0.0
        return rs.vals[self.k] / G


def nm_prepare(ops_and_rates) -> NmPrepared:
    """Complete the jump-operator set and build the rate shift.

    ``alpha`` is the largest eigenvalue of ``sum A_n^dag A_n``; when the sum
    is not already proportional to the identity, the deficit operator
    ``sqrt(alpha 1 - sum A_n^dag A_n)`` is appended with zero rate.

    The shift and the shifted rates share one evaluation of the rates per
    distinct time: a right-hand side asks for every shifted rate at one
    ``t``, and each rate is evaluated there once, not once per use.
    """
    pairs = check_list(ops_and_rates, "ops_and_rates", pairs=True)
    if not pairs:
        raise RangeError("need at least one (operator, rate) pair")
    ops = [constant_operator(op, "each nm_mcsolve jump operator") for op, _ in pairs]
    rates = [coefficient(rate) for _, rate in pairs]
    d = ops[0].dims  # every operator is a square one on the space of the first
    check_operators(ops, Dimensions(d.ket, d.ket, enr=d.enr), "jump operator")

    total = None
    for op in ops:
        term = op.dag() @ op
        total = term if total is None else total + term
    w, _ = _d.eig_herm(total.data)
    alpha = float(w[-1])
    if alpha <= 0:
        raise RangeError("sum of A^dag A is zero; no jump dynamics to unravel")

    deficit = alpha * _qeye_like(ops[0]) - total
    if _d.max_abs(deficit.data) > 1e-10:
        wd, _ = _d.eig_herm(deficit.data)
        if wd.min() < -1e-10:
            raise RangeError(
                f"alpha*1 - sum A^dag A has negative eigenvalue {wd.min():.3e};"
                " cannot build the padding operator"
            )
        ops = ops + [deficit.sqrtm()]
        rates = rates + [ConstantCoefficient(0.0)]

    rate_set = _RateSet(rates)
    shifted = [_ShiftedRate(rate_set, k) for k in range(len(rates))]
    return NmPrepared(ops=ops, rates=rates, alpha=alpha, shift=rate_set.shift_at,
                      shifted_rates=shifted)


def _qeye_like(op: Qobj) -> Qobj:
    from .operators import qeye_like

    return qeye_like(op)


def nm_mcsolve(H, psi0, tlist, ops_and_rates, e_ops=None, options=None) -> MultiTrajResult:
    """Monte Carlo solution of a time-local master equation with possibly
    negative rates.

    Returns martingale-weighted ensemble statistics; the ``trace`` field of
    the result holds the average influence martingale.  The inputs are
    checked as in :func:`~oqsim.mcsolve.mcsolve`.
    """
    opts = McOptions.coerce(options)
    tlist = check_tlist(tlist)
    prep = nm_prepare(ops_and_rates)

    H_evo = as_evo(H)
    check_operators(prep.ops, H_evo.dims, "jump operator")
    channels = [_Channel(op, rate=Gamma, ratio_fn=Gamma.ratio)
                for op, Gamma in zip(prep.ops, prep.shifted_rates)]

    # The exponential martingale factor exp(alpha * int_0^t s) is trajectory
    # independent; accumulate it once on the output grid.
    cont = np.ones(tlist.size)
    acc = 0.0
    for j in range(1, tlist.size):
        seg, _ = quad(prep.shift, tlist[j - 1], tlist[j], limit=200)
        acc += seg
        cont[j] = np.exp(prep.alpha * acc)

    return _run_trajectories(
        _drift(H_evo, channels),
        channels,
        psi0,
        tlist,
        e_ops,
        opts,
        H_evo.dims,
        solver_name="nm_mcsolve",
        martingale_cont=cont,
    )
