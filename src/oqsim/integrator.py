"""Adaptive ODE integration of complex state vectors with dense output.

The default method is an explicit Dormand-Prince 5(4) embedded pair with the
standard quartic dense-output interpolant and a PI step-size controller
(safety 0.9, growth clamped to [0.2, 5]).  The integrator is agnostic to
quantum structure: right-hand sides are plain callables ``(t, y) -> dy`` on
flat complex arrays.  For constant generators, :func:`propagate_diag` offers a
one-shot diagonalization route.

:func:`advance` is the single loop that steps a :class:`DP54Stepper` to a list
of output times; :func:`integrate`, the deterministic solvers (including
``Solver.step`` and ``heomsolve``) and the quantum-jump trajectories all run
on it, so ``nsteps`` and the dense read-out rule are the same everywhere.

A step has one of two forms.  In the stage form, each stage input is one
tableau-row product with the ``(7, n)`` stage matrix, ``y + h * (A[i, :i] @
K[:i])``, and likewise ``y + h * (B @ K)`` for the new state and ``h * (E @
K)`` for the error estimate.  These products sum in a different order than a
term-by-term loop, so outputs differ from such a loop in the last bits (the
number of steps and right-hand-side calls does not).

The power form serves ``y' = L y`` with a constant ``L``, where every stage
is a polynomial in ``hL`` applied to ``y`` (the stability function ``R(z)``
of Hairer, Norsett & Wanner, *Solving ODEs I*).  The step forms the powers
``U[m] = L^(m+1) y``, ``m = 0..6``: ``U[0]`` is the FSAL derivative and the
six others are the step's six right-hand-side calls.  One real product
``(Coef(h) @ U)`` then gives the increment, the error vector and the next
FSAL derivative, with ``Coef(h)`` the tableau's power coefficients times
``h^k`` (exact rationals, so the error row is exactly 0 below ``h^5``).  No
stage input is formed, and a rejected attempt only recomputes ``Coef(h)``:
it makes no right-hand-side call.  The dense output is built from ``U`` at
its first read, so ``U`` takes the place of ``K`` in memory; the error
norm is taken in real arithmetic, from ``|y|`` kept from the step before.
The solvers choose the power form when their generator
``QobjEvo.isconstant`` (``sesolve``, ``mesolve``, ``brmesolve``,
``heomsolve``, ``mcsolve`` with constant collapse operators); a bare
callable given to :func:`integrate`, or a time-dependent generator, is
stepped in stage form.  Both forms take the same steps up to the last bits of
the error estimate.

A power-form step reads no ``t``: with its first attempt unclamped by
``t_end``, it is a function of the stepper's state alone.  So steppers that
start in one state, at different times, take the same steps, and one can
replay what another recorded (:meth:`DP54Stepper.follow`; ``mcsolve`` does
this after its jumps).  A record keeps each step's interpolant coefficients,
built once from ``U`` and ``h`` when the step is recorded, in place of ``U``;
a replayed step builds its dense segment at the stepper's own times on that
one array, makes no right-hand-side call, and counts in ``replayed``, not in
``accepted``.

The decay form serves ``y' = D y + N(t, y)`` with a constant real diagonal
``D <= 0`` (``heomsolve``'s ADO decay rates): it is Lawson's
integrating-factor Runge-Kutta method (Lawson, SIAM J. Numer. Anal. 4, 372,
1967; Hochbruck & Ostermann, Acta Numerica 19, 209, 2010), the tableau
applied to ``u(s) = e^(-Ds) y(t + s)``, which follows ``u' = e^(-Ds) N(e^(Ds)
u)``.  ``D`` is integrated exactly, so the step is bound by accuracy and
not by the stability limit ``h max|D| <= 3.3`` of the explicit pair.  Stage
``i`` makes one right-hand-side call, ``K_i = e^(-c_i h D) N(e^(c_i h D) (y
+ h A_i K))``, and the new state ``e^(hD) (y + h B K)`` is the last stage's
input, so the last call gives the next FSAL derivative ``N y_new`` (which is
``e^(hD) K_6``).  The error estimate is ``e^(hD) h E K``, measured in the
max norm over components: in the RMS norm a few slowly decaying components
count for little among many fast ones.  A dense read is ``e^(D (t -
t_old))`` times the quartic interpolant of ``u``.  ``h`` is capped so that
``h max|D| <= 700``, where ``e^(+-hD)`` are finite.  The form calls the
right-hand side like the stage form: six times per attempt, twice at start,
where the first-step estimate reads ``L y = N y + D y``.

Integration is deterministic: identical inputs produce bit-identical outputs.
"""

from __future__ import annotations

import functools
import math
import numbers
import types
import typing
from dataclasses import dataclass, fields
from fractions import Fraction

import numpy as np

from .exceptions import (DimensionMismatchError, MethodError, OptionError, RangeError, SolverError,
                         StepLimitError, StiffnessError)

__all__ = ["IntegratorOptions", "FlatOptions", "DenseSegment", "DP54Stepper", "advance",
           "check_tlist", "integrate", "propagate_diag"]


@functools.cache
def _field_types(cls) -> dict:
    """``{field: type}`` of an options dataclass, resolved once per class."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _type_ok(value, tp) -> bool:
    """Whether an option value fits its annotated type.

    ``int`` takes integers but not ``bool``; ``float`` takes any real number
    but not ``bool``; ``X | None`` also takes ``None``; ``object`` takes
    anything.
    """
    if isinstance(tp, types.UnionType):
        return any(_type_ok(value, arg) for arg in tp.__args__)
    if tp is type(None):
        return value is None
    if tp is object:
        return True
    if isinstance(value, (bool, np.bool_)):
        return tp is bool
    if tp is int:
        return isinstance(value, numbers.Integral)
    if tp is float:
        return isinstance(value, numbers.Real)
    return isinstance(value, tp)


def _check_types(opts) -> None:
    for key, tp in _field_types(type(opts)).items():
        value = getattr(opts, key)
        if not _type_ok(value, tp):
            name = getattr(tp, "__name__", None) or str(tp)
            raise OptionError(f"option {key!r} must be {name}; got {value!r}")


class FlatOptions:
    """Mixin for option dataclasses built from one flat dict.

    :meth:`coerce` is the one place where a solver's options are checked: an
    unknown key raises :class:`OptionError`, and the options it returns have
    passed :meth:`validated`, which checks every value's type
    (:class:`OptionError`) and range.  A class with an ``integrator`` field
    also takes the :class:`IntegratorOptions` keys, which go to the
    integrator.
    """

    @classmethod
    def option_keys(cls) -> tuple:
        own = tuple(f.name for f in fields(cls) if f.name != "integrator")
        return own + _INTEGRATOR_KEYS if cls._has_integrator() else own

    @classmethod
    def _has_integrator(cls) -> bool:
        return "integrator" in _field_types(cls)

    @classmethod
    def coerce(cls, options):
        """Build and validate the options from None, an instance, or a flat dict."""
        if options is None:
            options = cls()
        elif isinstance(options, dict):
            keys = cls.option_keys()
            unknown = [k for k in options if k not in keys]
            if unknown:
                raise OptionError(f"unknown {cls.__name__} key {unknown[0]!r}; "
                                  f"accepted keys: {', '.join(keys)}")
            if cls._has_integrator():
                integ = {k: v for k, v in options.items() if k in _INTEGRATOR_KEYS}
                own = {k: v for k, v in options.items() if k not in integ}
                options = cls(**own, integrator=IntegratorOptions(**integ))
            else:
                options = cls(**options)
        elif not isinstance(options, cls):
            raise OptionError(f"cannot interpret {type(options).__name__} as {cls.__name__}")
        return options.validated()

    def validated(self):
        """Check every field's type, then the integrator's fields; subclasses add
        their range checks."""
        _check_types(self)
        if self._has_integrator():
            self.integrator.validated()
        return self


@dataclass
class IntegratorOptions(FlatOptions):
    """Tolerances and limits for the adaptive integrator.

    ``nsteps`` bounds the number of accepted steps between two requested
    output times; ``max_step`` guards against stepping over short features
    such as narrow pulses.  :meth:`~FlatOptions.coerce` builds them from a flat dict.
    """

    atol: float = 1e-8
    rtol: float = 1e-6
    nsteps: int = 2048
    max_step: float | None = None
    first_step: float | None = None
    method: str = "rk45_adaptive"

    def validated(self) -> "IntegratorOptions":
        _check_types(self)  # not FlatOptions.validated: every DP54Stepper calls this
        if self.atol <= 0 or self.rtol <= 0:
            raise RangeError("atol and rtol must be positive")
        if self.nsteps < 1:
            raise RangeError("nsteps must be at least 1")
        if self.max_step is not None and self.max_step <= 0:
            raise RangeError("max_step must be positive when set")
        if self.method not in ("rk45_adaptive", "diag_expm"):
            raise RangeError(f"unknown integrator method {self.method!r}")
        return self


_INTEGRATOR_KEYS = tuple(f.name for f in fields(IntegratorOptions))


# Dormand-Prince 5(4) tableau as exact rationals: stage ``i`` reads row ``i``
# of ``A`` (the last row holds the 5th-order weights, FSAL), and ``E`` is the
# difference between the 5th- and embedded 4th-order weights.
_A_EXACT = [[Fraction(a) for a in row.split()] for row in (
    "",
    "1/5",
    "3/40 9/40",
    "44/45 -56/15 32/9",
    "19372/6561 -25360/2187 64448/6561 -212/729",
    "9017/3168 -355/33 46732/5247 49/176 -5103/18656",
    "35/384 0 500/1113 125/192 -2187/6784 11/84",
)]
_E_EXACT = [Fraction(e) for e in "71/57600 0 -71/16695 71/1920 -17253/339200 22/525 -1/40".split()]

# The stage form stores the tableau once as complex128: stage ``i`` takes the
# row product ``_A[i, :i] @ K[:i]`` with the (7, n) stage matrix ``K``, and
# the solution and error weights are ``_B @ K`` and ``_E @ K``.  The nodes
# are Python floats.
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = np.array([[float(a) for a in row] + [0.0] * (7 - len(row)) for row in _A_EXACT],
              dtype=np.complex128)
_B = _A[6].copy()  # FSAL: the last stage row holds the 5th-order weights
_E = np.array([float(e) for e in _E_EXACT], dtype=np.complex128)
_A_ROWS = [_A[i, :i] for i in range(7)]  # sliced once


def _stage_powers() -> list[list[Fraction]]:
    """``alpha[i][m]``: for ``y' = L y`` stage ``i`` reads ``sum_m alpha[i][m] (hL)^m y``.

    Stage 0 reads ``y``; stage ``i`` reads ``y + h sum_j A[i][j] L y_j``, so
    ``alpha[i][m + 1] = sum_j A[i][j] alpha[j][m]``.
    """
    alpha = [[Fraction(1)] + [Fraction(0)] * 6]
    for row in _A_EXACT[1:]:
        alpha.append([Fraction(1)] + [sum(a * prev[m] for a, prev in zip(row, alpha))
                                      for m in range(6)])
    return alpha


_ALPHA_EXACT = _stage_powers()
_ALPHA = np.array(_ALPHA_EXACT, dtype=float)
# Power form: with ``U[m] = L^(m+1) y``, the increment ``h B @ K``, the error
# ``h E @ K`` and the next FSAL derivative ``K[6]`` are the rows of
# ``(_POWER * h ** _POWER_EXP) @ U``.  The increment row holds the
# coefficients of ``(R(z) - 1) / z`` for DOPRI5's stability polynomial ``R``,
# and the error row is exactly 0 below ``h^5``.
_POWER = np.array(
    [[float(sum(w * a[m] for w, a in zip(weights, _ALPHA_EXACT))) for m in range(7)]
     for weights in (_A_EXACT[6], _E_EXACT)] + [_ALPHA[6]]
)
_POWER_EXP = np.array([range(1, 8), range(1, 8), range(7)], dtype=float)
_ALPHA_EXP = np.arange(7.0)  # column m of _ALPHA multiplies h^m
_C128 = np.dtype(np.complex128)
# Smallest step, relative to max(|t|, 1), before the step size counts as underflowed.
_H_MIN = 16 * np.finfo(float).eps
# How close to an output time, relative to max(|t|, 1), counts as reaching it.
_T_REACHED = 4 * np.finfo(float).eps
# Largest ``h max|D|`` of a decay-form step: e^700 is finite in float64.
_EXP_LIMIT = 700.0
# Decay form: stage i scales by e^(c_i h D), computed once per distinct node.
_C_DISTINCT = _C[1:6]
_C_ROW = (None, 0, 1, 2, 3, 4, 4)
# Quartic dense-output coefficients (Shampine's interpolant for this pair).
_P = np.array(
    [
        [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
        [0, 0, 0, 0],
        [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
        [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
        [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
        [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
        [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
    ]
)


class DenseSegment:
    """Polynomial interpolant of the solution over one accepted step.

    ``K`` is the step's stage matrix or, with the step size ``h`` given, its
    power matrix ``U`` (``K = (_ALPHA * h ** m) @ U``).  Most steps are never
    evaluated, so the ``(n, 4)`` interpolant coefficients are built at the
    first call, or by :meth:`coefficients`, and ``K`` is then dropped.  They
    depend on ``K`` and ``h`` only, not on the times, so a segment can be
    built from them directly (``coef``), as a replayed step is.  ``y_old`` is
    the stepper's own state vector, which it never writes in place.  With
    ``decay`` given, ``K`` holds the stages of the decay form and a read is
    ``e^(decay (t - t_old))`` times the interpolant.
    """

    __slots__ = ("t_old", "t_new", "y_old", "_K", "_h", "_q", "_decay")

    def __init__(self, t_old, t_new, y_old, K, h=None, decay=None, coef=None):
        self.t_old = t_old
        self.t_new = t_new
        self.y_old = y_old
        self._K = K
        self._h = h
        self._q = coef
        self._decay = decay

    def coefficients(self) -> np.ndarray:
        """The ``(n, 4)`` interpolant coefficients, built once."""
        if self._q is None:
            if self._h is None:
                self._q = self._K.T @ _P  # shape (n, 4)
            else:
                W = (_ALPHA * self._h ** _ALPHA_EXP).T @ _P  # K.T @ _P == U.T @ W
                self._q = W.T.dot(self._K.view(np.float64)).view(_C128).T
            self._K = None
        return self._q

    def __call__(self, t: float) -> np.ndarray:
        q = self._q if self._q is not None else self.coefficients()
        h = self.t_new - self.t_old
        x = (t - self.t_old) / h
        p = np.array([x, x**2, x**3, x**4])
        u = self.y_old + h * (q @ p)
        return u if self._decay is None else np.exp((t - self.t_old) * self._decay) * u


class DP54Stepper:
    """Stateful stepper: one accepted Dormand-Prince step per :meth:`step`.

    ``t_end`` clamps steps so the right-hand side is never evaluated beyond
    the integration domain (important for spline-backed coefficients).
    ``linear=True`` declares ``rhs(t, y) = L y`` for a constant ``L`` and
    steps in power form (see the module docstring).  ``decay=D``, a real
    array ``D <= 0`` of the state's size, declares the generator ``diag(D) +
    rhs`` and steps in decay form: ``rhs`` applies only the rest ``N``, and
    ``D`` is integrated exactly, with the error in the max norm and ``h``
    capped at ``700 / max|D|``.  ``accepted`` and ``rejected`` count the
    step attempts, next to the RHS calls ``nfev``.
    """

    def __init__(self, rhs, t0: float, y0: np.ndarray, opts: IntegratorOptions, t_end: float,
                 linear: bool = False, decay: np.ndarray | None = None):
        self.rhs = rhs
        self.opts = opts.validated()
        self.linear = linear
        self.t = float(t0)
        self.y = np.asarray(y0, dtype=np.complex128).copy()
        if self.y.ndim != 1:
            raise DimensionMismatchError(
                f"DP54Stepper needs a 1-D state; got shape {self.y.shape} (integrate() flattens)"
            )
        self.decay = decay
        self._max_step = self.opts.max_step
        if decay is not None:
            if linear or decay.shape != self.y.shape:
                raise MethodError("the decay form needs linear=False and one rate per component")
            fastest = float(np.max(-decay, initial=0.0))
            if fastest > 0.0:
                self._max_step = min(_EXP_LIMIT / fastest, self._max_step or np.inf)
        self.t_end = float(t_end)
        self.nfev = 0
        self.accepted = 0
        self.rejected = 0
        self.segment: DenseSegment | None = None
        self.replayed = 0
        self.record: list | None = None  # the recorded steps this stepper follows
        self._pos = 0  # the next of them
        self._abs_y = None  # |y| of the power and decay forms, kept from the step that made y
        self._f0 = self._eval(self.t, self.y)
        self._err_prev = 1e-4
        self._h = self._initial_step() if opts.first_step is None else float(opts.first_step)
        self._clamp_h()

    def _eval(self, t, y):
        self.nfev += 1
        return np.asarray(self.rhs(t, y), dtype=np.complex128)

    def _scale(self, y0, y1):
        return self.opts.atol + self.opts.rtol * np.maximum(np.abs(y0), np.abs(y1))

    def _initial_step(self) -> float:
        # Hairer-style heuristic from the magnitudes of y and f.
        span = self.t_end - self.t
        if span <= 0:
            return 0.0
        # The decay form's FSAL derivative leaves out D y; the estimate reads all of y'.
        f0 = self._f0 if self.decay is None else self._f0 + self.decay * self.y
        scale = self.opts.atol + self.opts.rtol * np.abs(self.y)
        d0 = _rms(self.y / scale)
        d1 = _rms(f0 / scale)
        h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
        h0 = min(h0, span)
        y1 = self.y + h0 * f0
        f1 = self._eval(self.t + h0, y1)
        if self.decay is not None:
            f1 = f1 + self.decay * y1
        d2 = _rms((f1 - f0) / scale) / h0
        if max(d1, d2) <= 1e-15:
            h1 = max(1e-6, h0 * 1e-3)
        else:
            h1 = (0.01 / max(d1, d2)) ** 0.2
        return min(100 * h0, h1, span)

    def _clamp_h(self):
        if self._max_step is not None:
            self._h = min(self._h, self._max_step)
        self._h = min(self._h, self.t_end - self.t) if self.t_end > self.t else self._h

    def step(self) -> DenseSegment:
        """Advance by one accepted step; returns the dense segment covering it."""
        if self.t >= self.t_end:
            raise SolverError(f"stepper already reached the end of its domain t={self.t_end:.6g}")
        y = self.y
        if self.linear:
            # U[m] = L^(m+1) y: the FSAL derivative and six products, shared by every attempt.
            U = np.empty((7, y.size), dtype=np.complex128)
            U[0] = self._f0
            for m in range(1, 7):
                U[m] = self._eval(self.t, U[m - 1])
            U_re = U.view(np.float64)
            if self._abs_y is None:
                self._abs_y = np.abs(y)
        elif self.decay is not None and self._abs_y is None:
            self._abs_y = np.abs(y)
        while True:
            self._clamp_h()
            h = self._h
            if h <= _H_MIN * max(abs(self.t), 1.0):
                raise StiffnessError(
                    f"step size underflow at t={self.t:.6g}; the problem is likely stiff"
                )
            if self.linear:
                R = (_POWER * h ** _POWER_EXP).dot(U_re).view(_C128)
                y_new = y + R[0]
                abs_new = np.abs(y_new)
                ratio = np.abs(R[1]) / (self.opts.atol
                                        + self.opts.rtol * np.maximum(self._abs_y, abs_new))
                err = math.sqrt(ratio.dot(ratio) / ratio.size) if ratio.size else 0.0
            elif self.decay is not None:
                # G[j] is e^(c h D) at the j-th distinct node: stage i's input in y
                # is G[j] * (y + h A_i K), and K_i is its N, scaled back by 1 / G[j].
                G = [np.exp((c * h) * self.decay) for c in _C_DISTINCT]
                G_inv = [1.0 / g for g in G]
                K = np.empty((7, y.size), dtype=np.complex128)
                K[0] = self._f0
                for i in range(1, 7):
                    g = G[_C_ROW[i]]
                    y_i = (h * _A_ROWS[i]) @ K[:i]
                    y_i += y
                    y_i *= g
                    f_i = self._eval(self.t + _C[i] * h, y_i)
                    np.multiply(f_i, G_inv[_C_ROW[i]], out=K[i])
                y_new = y_i  # the last stage reads the new state, and f_i is N y_new
                abs_new = np.abs(y_new)
                ratio = np.abs((h * _E) @ K)
                ratio *= G[-1]  # e^(hD) > 0 scales the error's modulus
                ratio /= self.opts.atol + self.opts.rtol * np.maximum(self._abs_y, abs_new)
                err = float(ratio.max(initial=0.0))
            else:
                K = np.empty((7, y.size), dtype=np.complex128)
                K[0] = self._f0
                for i in range(1, 7):
                    K[i] = self._eval(self.t + _C[i] * h, y + h * (_A_ROWS[i] @ K[:i]))
                y_new = y + h * (_B @ K)
                err = _rms(h * (_E @ K) / self._scale(y, y_new))
            if err <= 1.0:
                # PI controller (accepted): grow within [0.2, 5].
                if err == 0.0:
                    factor = 5.0
                else:
                    factor = min(
                        5.0, max(0.2, 0.9 * err ** (-0.17) * self._err_prev**0.04)
                    )
                if self.linear:
                    seg = DenseSegment(self.t, self.t + h, y, U, h)
                    self._f0 = R[2].copy()  # a view would keep all of R alive
                    self._abs_y = abs_new
                elif self.decay is not None:
                    seg = DenseSegment(self.t, self.t + h, y, K, decay=self.decay)
                    self._f0 = f_i
                    self._abs_y = abs_new
                else:
                    seg = DenseSegment(self.t, self.t + h, y, K)
                    self._f0 = K[6]  # FSAL
                self.t = self.t + h
                self.y = y_new
                self._err_prev = max(err, 1e-4)
                self._h = h * factor
                self.segment = seg
                self.accepted += 1
                return seg
            self.rejected += 1
            self._h = h * max(0.2, 0.9 * err ** (-0.2))

    def follow(self, record: list) -> None:
        """Replay ``record``, the power-form steps of a stepper that started in
        this one's :meth:`state` but for ``t`` (bit for bit), and extend it at its end.

        ``record`` is a list owned by the caller; :meth:`extend` appends to it.
        """
        self.record, self._pos = record, 0

    def replay(self) -> DenseSegment | None:
        """Take the next recorded step at this stepper's own time, as :meth:`step` would.

        Returns ``None`` where this stepper must step itself: at the end of the
        record (the step is then recorded by :meth:`extend`), or when its first
        attempt would be clamped by ``t_end`` or a recorded ``h`` fails the
        underflow check at this ``t``, which leaves the record for good.  A
        replay makes no RHS call and counts in ``replayed`` only.
        """
        h_first = self._h if self._max_step is None else min(self._h, self._max_step)
        if h_first > self.t_end - self.t:
            self.record = None
            return None
        if self._pos == len(self.record):
            return None
        y, f0, abs_y, err_prev, h_next, coef, h = self.record[self._pos]
        if h <= _H_MIN * max(abs(self.t), 1.0):
            self.record = None
            return None
        seg = DenseSegment(self.t, self.t + h, self.y, None, coef=coef)
        self.t = self.t + h
        self.y, self._f0, self._abs_y, self._err_prev, self._h = y, f0, abs_y, err_prev, h_next
        self.segment = seg
        self._pos += 1
        self.replayed += 1
        return seg

    def extend(self, seg: DenseSegment) -> DenseSegment:
        """Record ``seg``, the step just taken at the end of the followed record; returns it.

        An entry holds the step's interpolant coefficients, not its power
        matrix: every replay of the step reads the one array.
        """
        if self.record is not None:
            self.record.append((self.y, self._f0, self._abs_y, self._err_prev, self._h,
                                seg.coefficients(), seg._h))
            self._pos += 1
        return seg

    def state(self) -> tuple:
        """What the next :meth:`step` reads: ``(t, y, f0, h, err_prev)``.

        :meth:`step` rebinds ``y`` and the FSAL derivative ``f0`` and never
        writes either in place, so the tuple holds ``y`` itself.  In the stage
        form ``f0`` is a row of the last step's stage matrix; it is copied, so
        a held state keeps two vectors alive and not that matrix.
        """
        return self.t, self.y, self._f0.copy(), self._h, self._err_prev

    def resume(self, state: tuple) -> None:
        """Continue from a :meth:`state` of a stepper with the same ``rhs``,
        options, ``t_end`` and form; the next :meth:`step` then has that stepper's bits."""
        self.t, self.y, self._f0, self._h, self._err_prev = state
        self.segment = None
        self.record = None
        self._abs_y = None

    def interpolate(self, t: float) -> np.ndarray:
        """Evaluate the solution inside the most recent step."""
        if self.segment is None:
            if t == self.t:
                return self.y.copy()
            raise SolverError(f"no dense segment available yet to read t={t}")
        slack = 1e-9 * max(1.0, abs(self.segment.t_new))
        if not (self.segment.t_old - slack <= t <= self.segment.t_new + slack):
            raise SolverError(
                f"t={t} outside the last step [{self.segment.t_old}, {self.segment.t_new}]"
            )
        return self.segment(t)


def _rms(v: np.ndarray) -> float:
    if v.size == 0:
        return 0.0
    return float(np.sqrt(np.vdot(v, v).real / v.size))


def advance(stepper: DP54Stepper, tlist, nsteps: int, on_step=None, done: int = 0):
    """Step ``stepper`` to each time of ``tlist`` and yield ``(j, t, y)`` there.

    This is the only loop over :meth:`DP54Stepper.step` and
    :meth:`DP54Stepper.replay` in the package.
    ``tlist`` is ascending from ``stepper.t``; ``y`` comes from the dense
    output of the step holding ``t`` (a copy of ``stepper.y`` before any
    step).  More than ``nsteps`` accepted steps between two output times
    raise :class:`StepLimitError`; ``done`` steps, taken before the stepper
    was resumed, already count towards the first of them.  A stepper that
    follows a record replays its steps where :meth:`DP54Stepper.replay`
    can, and steps (and extends the record) where it cannot; a replayed step
    counts towards ``nsteps``, is passed to ``on_step`` and is read from like
    any other.

    ``on_step(stepper, seg)`` is called after every accepted step and may
    return a newly constructed stepper, or ``stepper`` itself after
    :meth:`DP54Stepper.resume`, which carries the integration on from its own
    start (a quantum jump restarts a trajectory this way).  Output times
    before that start are read from ``seg``, the step it cut short.
    """
    cut_seg, t_cut = None, -np.inf
    for j, target in enumerate(tlist):
        count, done = done, 0
        eps_t = _T_REACHED * max(1.0, abs(target))
        while stepper.t < target - eps_t:
            if count >= nsteps:
                raise StepLimitError(f"exceeded {nsteps} steps before t={target:.6g}")
            if stepper.record is None:
                seg = stepper.step()
            else:
                seg = stepper.replay() or stepper.extend(stepper.step())
            count += 1
            if on_step is not None:
                restarted = on_step(stepper, seg)
                if restarted is not None:
                    cut_seg, t_cut, stepper = seg, restarted.t, restarted
        if target < t_cut:
            y = cut_seg(target)
        elif stepper.segment is None:
            y = stepper.y.copy()
        else:
            y = stepper.interpolate(min(target, stepper.segment.t_new))
        yield j, target, y


def check_tlist(tlist, uniform: bool = False) -> np.ndarray:
    """The output times as a float array, once they pass the grid check.

    Every solver calls this before it integrates.  The grid must be 1-D,
    finite and non-decreasing, with at least one point; otherwise
    :class:`RangeError` is raised.  With ``uniform=True`` it also needs two
    points or more, a positive spacing, and spacings equal to within
    ``1e-10 * max(dt, 1)``.
    """
    try:
        t = np.asarray(tlist, dtype=float)
    except (TypeError, ValueError):
        raise RangeError(f"tlist must be an array of real times; got {tlist!r}") from None
    if t.ndim != 1 or t.size < 1:
        raise RangeError(f"tlist must be a non-empty 1-D array; got shape {t.shape}")
    if not np.all(np.isfinite(t)):
        raise RangeError("tlist must be finite")
    dt = np.diff(t)
    if np.any(dt < 0):
        raise RangeError("tlist must be ascending (non-decreasing)")
    if uniform:
        if t.size < 2 or dt[0] <= 0:
            raise RangeError("a uniform tlist needs two or more points and a positive spacing")
        if np.any(np.abs(dt - dt[0]) > 1e-10 * max(dt[0], 1.0)):
            raise RangeError("tlist must be uniform")
    return t


def integrate(rhs, y0, t0: float, t_targets, opts: IntegratorOptions | dict | None = None):
    """Integrate ``y' = rhs(t, y)`` and report ``y`` at each target time.

    Targets pass :func:`check_tlist`, with ``t_targets[0] >= t0``; ``opts`` is
    an :class:`IntegratorOptions`, a flat dict of its keys or None.  Dense output is
    used to hit the targets without restarting steps.  Returns
    ``(states, final_segment)`` where ``states`` is a list of ndarrays.

    Raises
    ------
    RangeError
        The targets fail :func:`check_tlist`, or the first one precedes ``t0``.
    StepLimitError
        More than ``opts.nsteps`` accepted steps were needed between two
        consecutive targets.
    StiffnessError
        The adaptive step size underflowed.
    """
    opts = IntegratorOptions.coerce(opts)
    t_targets = check_tlist(t_targets)
    if t_targets[0] < t0:
        raise RangeError(f"first target {t_targets[0]} precedes t0={t0}")

    y0 = np.asarray(y0, dtype=np.complex128)
    flat = y0.ndim == 1
    stepper = DP54Stepper(
        rhs if flat else _wrap_matrix_rhs(rhs, y0.shape),
        t0,
        y0.reshape(-1) if not flat else y0,
        opts,
        t_end=float(t_targets[-1]),
    )
    out = [
        y if flat else y.reshape(y0.shape)
        for _, _, y in advance(stepper, t_targets, opts.nsteps)
    ]
    return out, stepper.segment


def _wrap_matrix_rhs(rhs, shape):
    def wrapped(t, yflat):
        return np.asarray(rhs(t, yflat.reshape(shape)), dtype=np.complex128).reshape(-1)

    return wrapped


def propagate_diag(L, y0, t_targets, t0: float = 0.0):
    """Propagate ``y' = L y`` for constant L by one-time eigendecomposition.

    Returns the states at ``t_targets`` as a list of ndarrays.  Raises
    :class:`MethodError` when L is defective within tolerance (ill-conditioned
    eigenvector matrix); use the adaptive rk45 method in that case.
    """
    mat = L.full() if hasattr(L, "full") else np.asarray(L, dtype=np.complex128)
    if mat.shape[0] != mat.shape[1]:
        raise DimensionMismatchError("propagate_diag requires a square generator")
    w, v = np.linalg.eig(mat)
    cond = np.linalg.cond(v)
    if not np.isfinite(cond) or cond > 1e12:
        raise MethodError(
            f"generator is defective within tolerance (eigenvector condition {cond:.2e});"
            " use the rk45_adaptive integrator instead"
        )
    y0 = np.asarray(y0, dtype=np.complex128).reshape(-1)
    c = np.linalg.solve(v, y0)
    out = []
    for t in np.asarray(t_targets, dtype=float):
        out.append(v @ (np.exp(w * (t - t0)) * c))
    return out
