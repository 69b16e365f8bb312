"""Scalar coefficients for time-dependent operators.

Three base variants: a constant, a Python callable of time (and optional
``args`` mapping), and a natural cubic spline through sampled data.  Algebraic
combinators (sum, product, conjugate, squared modulus, scale) keep coefficient
arithmetic closed, which is what lets :class:`~oqsim.qobjevo.QobjEvo` compose
pointwise in time.

A spline is solved once, by SciPy's ``CubicSpline``, and evaluated from its
stored polynomial pieces in SciPy's summation order: the values are
bit-identical to ``CubicSpline.__call__``.  NaN and times outside the knot
range raise :class:`~oqsim.exceptions.RangeError`.
"""

from __future__ import annotations

import inspect
import numbers
from bisect import bisect_right

import numpy as np
from scipy.interpolate import CubicSpline

from .exceptions import CoefficientError, DimensionMismatchError, RangeError

__all__ = [
    "Coefficient",
    "ConstantCoefficient",
    "FunctionCoefficient",
    "SplineCoefficient",
    "coefficient",
    "coeff_eval",
]


class Coefficient:
    """Base class: a complex-valued function of time."""

    def __call__(self, t: float, args: dict | None = None) -> complex:
        raise NotImplementedError

    @property
    def is_constant(self) -> bool:
        return False

    def conj(self) -> "Coefficient":
        return _Conj(self)

    def abs2(self) -> "Coefficient":
        """The squared modulus |c(t)|^2 (real-valued)."""
        return _Abs2(self)

    def __mul__(self, other):
        if isinstance(other, numbers.Number):
            return _Scaled(self, complex(other))
        if isinstance(other, Coefficient):
            return _Product(self, other)
        return NotImplemented

    __rmul__ = __mul__

    def __add__(self, other):
        if isinstance(other, numbers.Number):
            other = ConstantCoefficient(other)
        if isinstance(other, Coefficient):
            return _Sum(self, other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self):
        return _Scaled(self, -1.0)


class ConstantCoefficient(Coefficient):
    def __init__(self, value: complex):
        self.value = complex(value)

    def __call__(self, t, args=None):
        return self.value

    @property
    def is_constant(self):
        return True

    def conj(self):
        return ConstantCoefficient(self.value.conjugate())

    def abs2(self):
        return ConstantCoefficient(abs(self.value) ** 2)


class FunctionCoefficient(Coefficient):
    """Wraps ``f(t)`` or ``f(t, args)``; the call form is fixed once, here.

    * A NumPy ufunc is called as ``f(t)`` when it takes one input and gives one
      output (``np.cos``, ``np.exp``); any other ufunc (``np.arctan2``,
      ``np.modf``) is refused with :class:`CoefficientError`.
    * Any other callable is called as ``f(t, args)`` when its second
      positional parameter has no default, or is named ``args`` (so
      ``lambda t, args=None: ...`` receives the mapping).  A defaulted second
      parameter under another name, as in ``lambda t, w=1.0: w * t``, is
      never handed the mapping: the callable is called as ``f(t)``.
    * A callable whose signature cannot be read is called as ``f(t)``.

    ``args`` is the mapping given at evaluation time (``{}`` when none is).
    """

    def __init__(self, fn):
        if not callable(fn):
            raise CoefficientError(f"expected a callable, got {type(fn)}")
        self.fn = fn
        self._wants_args = _wants_args(fn)

    def __call__(self, t, args=None):
        if self._wants_args:
            return complex(self.fn(t, args or {}))
        return complex(self.fn(t))


_POSITIONAL = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)


def _wants_args(fn) -> bool:
    """Whether ``fn`` is to be called as ``fn(t, args)`` rather than ``fn(t)``.

    Signature inspection alone cannot decide ufuncs: NumPy 2 reports
    ``np.cos`` as ``(x, /, out=None, *, ...)``, so they go by ``nin``.
    """
    if isinstance(fn, np.ufunc):
        if fn.nin != 1 or fn.nout != 1:
            raise CoefficientError(
                f"ufunc {fn.__name__} takes {fn.nin} inputs and gives {fn.nout}"
                " outputs; a coefficient ufunc must map one input to one output"
            )
        return False
    try:
        params = inspect.signature(fn).parameters.values()
    except (TypeError, ValueError):
        return False
    positional = [p for p in params if p.kind in _POSITIONAL]
    if len(positional) < 2:
        return False
    second = positional[1]
    return second.default is inspect.Parameter.empty or second.name == "args"


class SplineCoefficient(Coefficient):
    """Natural cubic spline through ``(times, values)`` samples.

    SciPy's ``CubicSpline`` solves for the spline once, here; a call then
    evaluates the stored cubic piece of its interval in SciPy's own summation
    order, so every value has the bits of ``complex(CubicSpline(t))`` at a
    tenth of its cost.  Evaluation at a knot reproduces the stored value; a
    time outside the knot range, or NaN, raises :class:`RangeError` instead of
    extrapolating.  Fewer than two knots or knots that do not increase raise
    :class:`RangeError`, a values array of another length
    :class:`DimensionMismatchError`.
    """

    def __init__(self, times, values):
        times = np.asarray(times, dtype=float)
        values = np.asarray(values, dtype=np.complex128)
        if times.ndim != 1 or times.size < 2:
            raise RangeError("spline needs at least two knot times")
        if values.shape != times.shape:
            raise DimensionMismatchError("times and values must have equal length")
        if not np.all(np.diff(times) > 0):
            raise RangeError("knot times must be strictly increasing")
        c = CubicSpline(times, values, bc_type="natural").c
        self._knots = times.tolist()
        # SciPy's c[k, i] multiplies (t - knot_i)**(3 - k); one tuple per interval.
        self._pieces = [tuple(col) for col in c.T.tolist()]

    def __call__(self, t, args=None):
        knots = self._knots
        if not (knots[0] <= t <= knots[-1]):
            raise RangeError(f"spline evaluated at t={t}, outside [{knots[0]}, {knots[-1]}]")
        # The interval with knots[i] <= t; t == knots[-1] falls in the last one, as in SciPy.
        i = min(bisect_right(knots, t), len(self._pieces)) - 1
        c0, c1, c2, c3 = self._pieces[i]
        # Power sums in the order of SciPy's evaluate_poly1, not Horner's rule.
        s = t - knots[i]
        s2 = s * s
        return 0.0 + c3 + c2 * s + c1 * s2 + c0 * (s2 * s)


class _Sum(Coefficient):
    def __init__(self, a, b):
        self.a, self.b = a, b

    def __call__(self, t, args=None):
        return self.a(t, args) + self.b(t, args)


class _Product(Coefficient):
    def __init__(self, a, b):
        self.a, self.b = a, b

    def __call__(self, t, args=None):
        return self.a(t, args) * self.b(t, args)


class _Scaled(Coefficient):
    def __init__(self, base, scale):
        self.base, self.scale = base, scale

    def __call__(self, t, args=None):
        return self.scale * self.base(t, args)


class _Conj(Coefficient):
    def __init__(self, base):
        self.base = base

    def __call__(self, t, args=None):
        return self.base(t, args).conjugate()


class _Abs2(Coefficient):
    def __init__(self, base):
        self.base = base

    def __call__(self, t, args=None):
        return abs(self.base(t, args)) ** 2


def coefficient(spec) -> Coefficient:
    """Coerce a number, callable, (times, values) pair or Coefficient."""
    if isinstance(spec, Coefficient):
        return spec
    if isinstance(spec, numbers.Number):
        return ConstantCoefficient(spec)
    if callable(spec):
        return FunctionCoefficient(spec)
    if isinstance(spec, tuple) and len(spec) == 2:
        return SplineCoefficient(*spec)
    raise CoefficientError(f"cannot interpret {type(spec)} as a coefficient")


def coeff_eval(c: Coefficient, t: float, args: dict | None = None) -> complex:
    """Functional evaluation entry point."""
    return coefficient(c)(t, args)
