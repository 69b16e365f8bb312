"""Deterministic evolution with a unified solver-class pattern.

A solver is built once from the generator (Hamiltonian and collapse
operators); evolutions are then launched with :meth:`Solver.run`, or stepped
manually through :meth:`Solver.start` / :meth:`Solver.step`.  Both run on
:func:`~oqsim.integrator.advance`, the package's single stepping loop, so
``nsteps`` bounds the accepted steps per output interval in either.  The
functions :func:`sesolve` and :func:`mesolve` are one-shot wrappers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .dimensions import Dimensions
from .exceptions import DimensionMismatchError, RangeError, SolverError
from .integrator import (DP54Stepper, FlatOptions, IntegratorOptions, advance, check_tlist,
                         propagate_diag)
from .qobj import Qobj
from .qobjevo import QobjEvo, as_evo, liouvillian_evo
from .result import SolveResult, check_list, check_state, constant_operator, normalize_e_ops

__all__ = ["SolverOptions", "Solver", "SESolver", "MESolver", "sesolve", "mesolve"]


@dataclass
class SolverOptions(FlatOptions):
    """Output and integrator options shared by the deterministic solvers.

    ``store_states=None`` resolves to True exactly when no expectation
    operators are requested (so the run always returns something useful).
    """

    store_states: bool | None = None
    store_final_state: bool = False
    integrator: IntegratorOptions = field(default_factory=IntegratorOptions)


class Solver:
    """Base class: owns the packed right-hand side and result assembly.  A subclass
    sets ``_op_dims``, the system's operator dims, and the ``state_kind`` it integrates."""

    name = "solver"
    state_kind = "oper"

    def __init__(self, rhs_evo: QobjEvo, options=None):
        self.rhs_evo = rhs_evo
        self.options = SolverOptions.coerce(options)
        self._session = None  # (stepper, args holder) of a start()/step() evolution

    # Subclasses define how Qobj states map to flat vectors.
    def _pack(self, state: Qobj) -> np.ndarray:
        raise NotImplementedError

    def _unpack(self, y: np.ndarray) -> Qobj:
        raise NotImplementedError

    def _expect_row(self, e_op: Qobj):
        """Return a closure evaluating <e_op> on a packed state vector."""
        raise NotImplementedError

    def _rhs(self, args_holder):
        def rhs(t, y):
            return self.rhs_evo.matvec(t, y, args_holder.get("args"))

        return rhs

    def run(self, state0: Qobj, tlist, e_ops=None, args=None) -> SolveResult:
        """Propagate ``state0`` over ``tlist`` and collect the requested output.

        Every deterministic solver returns through here: a subclass changes how
        states are packed and propagated (:meth:`_propagate`), not the output,
        the e_ops or the ``stats`` keys.
        """
        t_start = time.perf_counter()
        state0 = check_state(state0, self._op_dims, self.state_kind)
        tlist = check_tlist(tlist)

        labels, ops = normalize_e_ops(e_ops, self._op_dims)
        opts = self.options
        store_states = opts.store_states if opts.store_states is not None else not ops
        evaluators = [self._expect_row(op) for op in ops]
        expect_out = [np.empty(tlist.size, dtype=complex) for _ in ops]
        real_flags = [op.isherm for op in ops]
        states_out = [] if store_states else None

        ys, stepper = self._propagate(self._pack(state0), tlist, args)
        for j, y in enumerate(ys):
            for series, ev in zip(expect_out, evaluators):
                series[j] = ev(y)
            if states_out is not None:
                states_out.append(self._unpack(np.asarray(y)))

        expect_final = [
            series.real if flag else series for series, flag in zip(expect_out, real_flags)
        ]
        final_state = None
        if opts.store_final_state or store_states:
            final_state = states_out[-1] if store_states else self._unpack(np.asarray(y))
        stats = {
            "solver": self.name,
            "rhs_evaluations": 0 if stepper is None else stepper.nfev,
            "accepted_steps": 0 if stepper is None else stepper.accepted,
            "rejected_steps": 0 if stepper is None else stepper.rejected,
            "run_time": time.perf_counter() - t_start,
        }
        return self._result(
            np.asarray(y),
            tlist,
            labels,
            expect_final,
            states=states_out,
            final_state=final_state,
            stats=stats,
        )

    def _propagate(self, y0: np.ndarray, tlist: np.ndarray, args):
        """``(ys, stepper)``: the packed states at ``tlist``, as an iterable, and the
        stepper that made them, or None where no stepper ran."""
        integ = self.options.integrator
        if integ.method == "diag_expm":
            L = constant_operator(self.rhs_evo, "the generator of method diag_expm")
            return propagate_diag(L.full(), y0, tlist, t0=float(tlist[0])), None
        stepper = self._stepper(self._rhs({"args": args}), float(tlist[0]), y0, float(tlist[-1]))
        return (y for _, _, y in advance(stepper, tlist, integ.nsteps)), stepper

    def _stepper(self, rhs, t0: float, y0: np.ndarray, t_end: float) -> DP54Stepper:
        """The stepper of a run or a step() session; a constant generator steps in power form."""
        return DP54Stepper(rhs, t0, y0, self.options.integrator, t_end,
                           linear=self.rhs_evo.isconstant)

    def _result(self, y_final: np.ndarray, *args, **kwargs) -> SolveResult:
        """Assemble the result; ``y_final`` is the packed state at the last time."""
        return SolveResult(*args, **kwargs)

    # -- manual stepping ------------------------------------------------------

    def start(self, state0: Qobj, t0: float, args=None) -> None:
        """Initialize a manual step() session at time ``t0``."""
        state0 = check_state(state0, self._op_dims, self.state_kind)
        holder = {"args": args}
        # The session integrates on demand; the domain end is unknown, so use
        # a far horizon and clamp steps per step() target instead.
        stepper = self._stepper(self._rhs(holder), float(t0), self._pack(state0), np.inf)
        self._session = (stepper, holder)

    def step(self, t: float, args=None) -> Qobj:
        """Advance the session to time ``t`` and return the state there.

        A ``t`` that is not finite, or before the session's current time,
        raises :class:`RangeError`.
        """
        if self._session is None:
            raise SolverError("call start() before step()")
        check_tlist([t])
        stepper, holder = self._session
        if args is not None:
            holder["args"] = args
            # Changed parameters invalidate the cached FSAL derivative.
            stepper._f0 = stepper._eval(stepper.t, stepper.y)
        if t < stepper.t - 1e-12:
            raise RangeError(f"cannot step backwards from t={stepper.t} to t={t}")
        stepper.t_end = max(float(t), stepper.t)
        [(_, _, y)] = advance(stepper, [t], self.options.integrator.nsteps)
        return self._unpack(np.asarray(y))


class SESolver(Solver):
    """Schrodinger equation solver: ``d psi/dt = -i H(t) psi`` (hbar = 1)."""

    name = "sesolve"
    state_kind = "ket"

    def __init__(self, H, options=None):
        H_evo = as_evo(H)
        if H_evo.shape[0] != H_evo.shape[1]:
            raise DimensionMismatchError("Hamiltonian must be square")
        super().__init__(-1j * H_evo, options)
        self._op_dims = H_evo.dims
        self._dims = Dimensions(
            H_evo.dims.ket, [1] * len(H_evo.dims.ket), enr=H_evo.dims.enr
        )

    def _pack(self, state):
        return state.full().ravel()

    def _unpack(self, y):
        return Qobj(y.reshape(-1, 1), dims=self._dims)

    def _expect_row(self, e_op: Qobj):
        mat = e_op.data.scipy_matrix()
        return lambda y: complex(np.vdot(y, mat @ y))


class MESolver(Solver):
    """Master equation solver over the vectorized density operator."""

    name = "mesolve"

    def __init__(self, H, c_ops=(), options=None):
        L = liouvillian_evo(H, check_list(c_ops or (), "c_ops"))
        super().__init__(L, options)
        op_dims = L.dims.ket  # nested [ket_dims, bra_dims] of the operator space
        self._op_dims = Dimensions(op_dims[0], op_dims[1], enr=L.dims.enr)
        self._n = self._op_dims.shape[0]

    def _pack(self, state):
        return state.full().flatten(order="F")

    def _unpack(self, y):
        return Qobj(y.reshape((self._n, self._n), order="F"), dims=self._op_dims)

    def _expect_row(self, e_op: Qobj):
        row = e_op.full().flatten(order="C")  # vec of E^T, so tr(E rho) = row . vec(rho)
        return lambda y: complex(row @ y)


def sesolve(H, psi0: Qobj, tlist, e_ops=None, options=None, args=None) -> SolveResult:
    """Integrate the Schrodinger equation for a (possibly driven) system."""
    return SESolver(H, options).run(psi0, tlist, e_ops=e_ops, args=args)


def mesolve(H, rho0: Qobj, tlist, c_ops=(), e_ops=None, options=None, args=None) -> SolveResult:
    """Integrate a Lindblad (or custom superoperator) master equation.

    ``H`` takes the same forms as in :func:`sesolve` (a Qobj, a QobjEvo or
    a QobjEvo list spec), or a superoperator.  With no collapse operators, a
    ket initial state and an operator-valued ``H``, the problem is pure
    Schrodinger evolution and is delegated to :func:`sesolve`.  ``H=None``
    solves pure dissipation, as ``MESolver(None, c_ops)`` does.
    """
    if H is not None:
        H = as_evo(H)
    if (H is not None and not c_ops and isinstance(rho0, Qobj) and rho0.isket
            and not H.terms[0][0].issuper):
        return sesolve(H, rho0, tlist, e_ops=e_ops, options=options, args=args)
    return MESolver(H, c_ops, options).run(rho0, tlist, e_ops=e_ops, args=args)
