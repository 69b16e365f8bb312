"""Exception types shared across the toolbox."""

__all__ = [
    "OqsimError",
    "DimensionMismatchError",
    "SingularMatrixError",
    "ConvergenceError",
    "NotHermitianError",
    "RangeError",
    "StepLimitError",
    "StiffnessError",
    "MethodError",
    "UnsupportedError",
    "ModelError",
    "SolverError",
    "CoefficientError",
    "OptionError",
    "ArgumentError",
]


class OqsimError(Exception):
    """Base class for all toolbox errors."""


class DimensionMismatchError(OqsimError, ValueError):
    """Operands have incompatible shapes or subsystem dimensions."""


class SingularMatrixError(OqsimError):
    """A linear solve hit a numerically singular matrix."""


class ConvergenceError(OqsimError):
    """An iterative method failed to reach its tolerance."""


class NotHermitianError(OqsimError, ValueError):
    """An operation requiring a Hermitian input received a non-Hermitian one."""


class RangeError(OqsimError, ValueError):
    """A value lies outside its permitted domain (spline knot range, occupation tuple,
    time grid, unknown method name, empty operator list, ...)."""


class StepLimitError(OqsimError):
    """The ODE integrator exhausted its step budget between two output times."""


class StiffnessError(OqsimError):
    """The ODE integrator's step size underflowed; the problem is likely stiff."""


class MethodError(OqsimError):
    """The requested numerical method cannot be applied to this problem, such as a
    time-dependent operator where a constant one is needed (``result.constant_operator``)."""


class UnsupportedError(OqsimError):
    """The operation is not defined for this kind of object (e.g. ENR dims); a
    time-dependent operator where a constant one is needed is a :class:`MethodError`."""


class ModelError(OqsimError, ValueError):
    """A batch model file failed validation; the message names the offending path."""


class SolverError(OqsimError):
    """A solver failed at run time (as opposed to model validation time)."""


class CoefficientError(OqsimError, TypeError):
    """An object cannot serve as a coefficient (not callable, or a ufunc of the wrong arity)."""


class OptionError(OqsimError, TypeError):
    """An options mapping names an unknown key or holds a value of the wrong type, or the
    options are not a mapping."""


class ArgumentError(OqsimError, TypeError):
    """An argument is of the wrong kind (an ``e_ops`` entry that is not a Qobj, ...)."""
