"""Result containers for the dynamics solvers, and the input gate they share:
every solver checks its initial state, e_ops and jump operators against the
system's operator dims (ENR marker included) with the functions below, takes
an operator it needs constant through :func:`constant_operator`, and a list,
pair or number argument through :func:`check_list` and :func:`check_number`."""

from __future__ import annotations

import numbers

import numpy as np

from .exceptions import (ArgumentError, DimensionMismatchError, MethodError, NotHermitianError,
                         RangeError)
from .qobj import Qobj
from .qobjevo import as_evo

__all__ = ["SolveResult", "MultiTrajResult", "normalize_e_ops", "check_state",
           "check_operators", "constant_operator", "check_list", "check_number"]


def check_state(state, dims, kind: str, nonzero=False, hermitian=False) -> Qobj:
    """``state`` as the initial ``kind`` (``"ket"``, or ``"oper"`` where a ket becomes its
    projector) of a system on ``dims``.  A non-Qobj raises :class:`ArgumentError`, another
    kind or dims :class:`DimensionMismatchError`; ``hermitian`` refuses a non-Hermitian
    operator (:class:`NotHermitianError`), ``nonzero`` a zero norm or trace (:class:`RangeError`).
    """
    if not isinstance(state, Qobj):
        raise ArgumentError(f"the initial state must be a Qobj; got {type(state).__name__}")
    if kind == "oper" and state.isket:
        state = state.proj()
    if state.kind != kind or state.dims.ket != dims.ket or state.dims.enr != dims.enr or (
            kind == "oper" and state.dims.bra != dims.bra):
        noun = "ket" if kind == "ket" else "ket or density operator"
        raise DimensionMismatchError(f"the initial state must be a {noun} on {dims!r}; "
                                     f"got a {state.kind} with dims {state.dims!r}")
    if hermitian and not state.isherm:
        raise NotHermitianError("the initial state must be a Hermitian operator")
    if nonzero and (state.norm() if kind == "ket" else state.tr()) == 0:
        raise RangeError(f"the initial state has zero {'norm' if kind == 'ket' else 'trace'}")
    return state


def check_operators(ops, dims, what: str, hermitian=False) -> None:
    """Raise :class:`DimensionMismatchError` unless each Qobj or QobjEvo in ``ops`` has ``dims``;
    ``hermitian`` also refuses a non-Hermitian Qobj (:class:`NotHermitianError`)."""
    for op in ops:
        if op.dims != dims:
            raise DimensionMismatchError(f"{what} dims {op.dims!r} do not match {dims!r}")
        if hermitian and not op.isherm:
            raise NotHermitianError(f"{what} must be Hermitian")


def constant_operator(op, what: str) -> Qobj:
    """``op`` where a solver needs it constant: a Qobj itself, a constant QobjEvo or list
    spec its value.  A time-dependent one raises :class:`MethodError`, a non-operator
    :class:`ArgumentError`."""
    if isinstance(op, Qobj):
        return op
    evo = as_evo(op)
    if not evo.isconstant:
        raise MethodError(f"{what} must be time-independent")
    return evo(0.0)


def check_list(value, what: str, pairs=False) -> list:
    """The entries of ``value``, a list, tuple or other iterable, as a list; with ``pairs``
    each entry, unpacked into two, as a tuple.  A single operator or another non-iterable,
    or with ``pairs`` an entry that is not a pair, raises :class:`ArgumentError` naming
    ``what``."""
    try:
        entries = list(value)
    except TypeError:
        raise ArgumentError(f"{what} must be a list; got {type(value).__name__}") from None
    try:
        return [(a, b) for a, b in entries] if pairs else entries
    except (TypeError, ValueError):
        raise ArgumentError(f"each entry of {what} must be a pair") from None


def check_number(value, what: str, integer=False) -> None:
    """Raise :class:`ArgumentError` naming ``what`` unless ``value`` is a real number, or
    with ``integer`` an integer."""
    if not isinstance(value, numbers.Integral if integer else numbers.Real):
        raise ArgumentError(f"{what} must be {'an integer' if integer else 'a real number'}; "
                            f"got {value!r}")


def normalize_e_ops(e_ops, dims):
    """Coerce e_ops into parallel (labels, operators) lists.

    Accepts None, a single Qobj, a list of Qobjs, or a dict label -> Qobj.
    Anything else, or an entry that is not a Qobj, raises
    :class:`ArgumentError`; an entry whose dims are not ``dims``,
    :class:`DimensionMismatchError`.
    """
    if e_ops is None:
        return [], []
    if isinstance(e_ops, Qobj):
        labels, ops = ["e0"], [e_ops]
    elif isinstance(e_ops, dict):
        labels, ops = list(e_ops.keys()), list(e_ops.values())
    else:
        try:
            ops = list(e_ops)
        except TypeError:
            raise ArgumentError(f"e_ops must be a Qobj, a list or a dict; "
                                f"got {type(e_ops).__name__}") from None
        labels = [f"e{k}" for k in range(len(ops))]
    for label, op in zip(labels, ops):
        if not isinstance(op, Qobj):
            raise ArgumentError(f"e_ops entry {label!r} must be a Qobj; got {type(op).__name__}")
        check_operators([op], dims, f"e_ops entry {label!r}")
    return labels, ops


class SolveResult:
    """Time series produced by a deterministic solver.

    Attributes
    ----------
    times : ndarray
        Output times.
    expect : list of ndarray
        One series per expectation operator, aligned with ``times``.
    e_op_labels : list of str
    states : list of Qobj or None
        Stored states (always present when no e_ops were requested).
    final_state : Qobj or None
    stats : dict
        Bookkeeping: rhs evaluations, wall time, solver name.
    """

    def __init__(self, times, e_op_labels, expect, states=None, final_state=None, stats=None):
        self.times = np.asarray(times, dtype=float)
        self.e_op_labels = list(e_op_labels)
        self.expect = [np.asarray(series) for series in expect]
        self.states = states
        self.final_state = final_state
        self.stats = dict(stats or {})

    @property
    def expect_dict(self) -> dict:
        return dict(zip(self.e_op_labels, self.expect))

    def __repr__(self):
        parts = [f"times={len(self.times)}", f"e_ops={self.e_op_labels}"]
        if self.states is not None:
            parts.append(f"states={len(self.states)}")
        return f"{type(self).__name__}({', '.join(parts)})"


class MultiTrajResult(SolveResult):
    """Ensemble statistics from a trajectory solver.

    ``expect`` holds the (weighted) ensemble averages; ``std_expect`` the
    ensemble standard deviations.  ``runs_expect`` is only populated when
    per-trajectory series were kept.  ``photocurrent`` holds one jump-rate
    series per collapse channel, binned per output interval.  ``trace`` is the
    martingale-average series of the non-Markovian solver.
    """

    def __init__(
        self,
        times,
        e_op_labels,
        average_expect,
        std_expect,
        *,
        runs_expect=None,
        average_states=None,
        final_state=None,
        photocurrent=None,
        measurements=None,
        ntraj_used=0,
        seeds=None,
        weights=None,
        trace=None,
        trace_std=None,
        stats=None,
    ):
        super().__init__(
            times,
            e_op_labels,
            average_expect,
            states=average_states,
            final_state=final_state,
            stats=stats,
        )
        self.std_expect = [np.asarray(s) for s in std_expect]
        self.runs_expect = runs_expect
        self.photocurrent = photocurrent
        self.measurements = measurements
        self.ntraj_used = int(ntraj_used)
        self.seeds = seeds
        self.weights = None if weights is None else np.asarray(weights, dtype=float)
        self.trace = None if trace is None else np.asarray(trace)
        self.trace_std = None if trace_std is None else np.asarray(trace_std)

    @property
    def average_expect(self):
        return self.expect

    @property
    def average_states(self):
        return self.states
