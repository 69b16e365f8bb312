"""Declarative batch models: parse, validate, run, and emit CSV tables.

A model file is a YAML document describing subsystem dims, operator
expressions (over the state/operator factories, tensor products and scalar
arithmetic), optional time-dependent coefficients, an initial state, a time
grid, expectation operators, and a solver with its options.  Operator
expressions are evaluated through a whitelisted expression grammar; arbitrary
code is rejected.

Every numeric field (``tlist``, coefficient, environment and flat-spectrum
fields, and the ``solver_options`` a runner reads itself) follows one rule,
:func:`_number`: a number, or an expression over ``parameters``.  One table,
``_SOLVERS``, holds each solver's ``solver_options`` keys, the fields it
requires and its runner: every solver but ``steadystate`` requires
``initial_state``, ``tlist`` and ``hamiltonian``; ``brmesolve`` also
``couplings``, ``nm_mcsolve`` ``ops_and_rates``, ``smesolve`` ``sc_ops``,
``heomsolve`` ``environment`` and ``fsesolve`` ``solver_options.period``.
:func:`check_model` checks a model's ``solver_options`` keys and required
fields against one solver: :func:`run_model` against the solver that
actually runs, so a solver named by an override must find its own, and
``oqsim validate`` against the model's own.  A ``tlist`` must be finite and
ascending.  A malformed field raises :class:`ModelError`, whose message
names the offending path.

Documents are read by PyYAML's libyaml parser when PyYAML was built with
it, and by its pure-Python parser otherwise; both give the same documents.
Either way, numbers in exponent form (``1e-10``, ``1.0e10``) read as floats.
"""

from __future__ import annotations

import ast
import cmath
import math
import numbers
import re
from dataclasses import dataclass, field

import numpy as np
import yaml

from .brmesolve import brmesolve
from .coefficient import Coefficient, ConstantCoefficient, FunctionCoefficient, SplineCoefficient
from .environment import (
    DrudeLorentzEnvironment,
    ExponentSet,
    OhmicEnvironment,
    UnderdampedEnvironment,
)
from .exceptions import ModelError, OptionError, OqsimError, RangeError, SolverError
from .floquet import floquet_basis, fsesolve
from .heom import heomsolve
from .integrator import check_tlist
from .mcsolve import mcsolve
from .nm_mcsolve import nm_mcsolve
from .operators import _OPERATOR_KINDS
from .qobj import Qobj, expect, tensor
from .qobjevo import QobjEvo
from .result import MultiTrajResult, SolveResult
from .smesolve import SmeOptions, smesolve
from .solver import SolverOptions, mesolve, sesolve
from .states import _STATE_KINDS
from .steadystate import steadystate
from .trajectory import McOptions

__all__ = ["ModelSpec", "ResultTable", "check_model", "parse_model", "run_model", "write_csv"]

_SCALAR_FUNCS = {
    "sqrt": cmath.sqrt,
    "exp": cmath.exp,
    "sin": cmath.sin,
    "cos": cmath.cos,
    "abs": abs,
    "conj": lambda z: complex(z).conjugate(),
}

_QOBJ_FUNCS = dict(_STATE_KINDS)
_QOBJ_FUNCS.update(_OPERATOR_KINDS)
_QOBJ_FUNCS["tensor"] = tensor

_PI_NAMES = {"pi": math.pi, "tau": 2 * math.pi, "e": math.e}


class _ExprEvaluator(ast.NodeVisitor):
    """Safe evaluator for operator/scalar expressions in model files."""

    def __init__(self, params: dict, path: str):
        self.params = params
        self.path = path

    def error(self, msg):
        raise ModelError(f"{self.path}: {msg}")

    def eval(self, text: str):
        try:
            tree = ast.parse(str(text), mode="eval")
        except SyntaxError as exc:
            self.error(f"syntax error in expression {text!r}: {exc.msg}")
        try:
            return self.visit(tree.body)
        except ModelError:
            raise
        except (OqsimError, ArithmeticError, TypeError, ValueError) as exc:
            self.error(str(exc))

    def generic_visit(self, node):
        self.error(f"unsupported expression element {type(node).__name__}")

    def visit_Constant(self, node):
        if isinstance(node.value, (int, float, complex)):
            return node.value
        if isinstance(node.value, str):
            return node.value
        self.error(f"unsupported literal {node.value!r}")

    def visit_Name(self, node):
        name = node.id
        if name in self.params:
            return self.params[name]
        if name in _PI_NAMES:
            return _PI_NAMES[name]
        if name in _QOBJ_FUNCS:
            try:
                return _QOBJ_FUNCS[name]()
            except TypeError:
                self.error(f"factory {name!r} needs arguments, e.g. {name}(...)")
        self.error(f"unknown name {name!r}")

    def visit_Call(self, node):
        if not isinstance(node.func, ast.Name):
            self.error("only direct factory calls are allowed")
        name = node.func.id
        args = [self.visit(a) for a in node.args]
        kwargs = {kw.arg: self.visit(kw.value) for kw in node.keywords}
        if name in _QOBJ_FUNCS:
            fn = _QOBJ_FUNCS[name]
        elif name in _SCALAR_FUNCS:
            fn = _SCALAR_FUNCS[name]
        else:
            self.error(f"unknown factory or function {name!r}")
        try:
            out = fn(*args, **kwargs)
        except TypeError as exc:
            self.error(f"bad arguments to {name}: {exc}")
        if name in _SCALAR_FUNCS and isinstance(out, complex) and out.imag == 0:
            return out.real
        return out

    def visit_BinOp(self, node):
        left = self.visit(node.left)
        right = self.visit(node.right)
        if isinstance(node.op, ast.Add):
            return left + right
        if isinstance(node.op, ast.Sub):
            return left - right
        if isinstance(node.op, ast.Mult):
            return left * right
        if isinstance(node.op, ast.Div):
            return left / right
        if isinstance(node.op, ast.MatMult):
            return left @ right
        if isinstance(node.op, ast.Pow):
            if isinstance(left, Qobj) or isinstance(right, Qobj):
                self.error("operator powers are not supported")
            return left**right
        if isinstance(node.op, ast.BitAnd):
            if not (isinstance(left, Qobj) and isinstance(right, Qobj)):
                self.error("'&' (tensor product) needs two operators/states")
            return tensor(left, right)
        self.error(f"unsupported operator {type(node.op).__name__}")

    def visit_UnaryOp(self, node):
        val = self.visit(node.operand)
        if isinstance(node.op, ast.USub):
            return -val
        if isinstance(node.op, ast.UAdd):
            return val
        self.error(f"unsupported unary operator {type(node.op).__name__}")


def _number(value, params, path, kind=float):
    """The one rule for a numeric field: a number, or an expression over ``parameters``.

    ``kind`` is ``float``, ``int`` (integral values only), ``complex`` (a
    float when the imaginary part is zero) or ``None`` (the number as given).
    """
    if isinstance(value, str):
        value = _ExprEvaluator(params, path).eval(value)
    if isinstance(value, bool) or not isinstance(value, numbers.Number):
        raise ModelError(f"{path}: expected a number or an expression over parameters")
    if kind is None:
        return value
    z = complex(value)
    if kind is complex:
        return z.real if z.imag == 0 else z
    if z.imag != 0 or (kind is int and not z.real.is_integer()):
        raise ModelError(f"{path}: expected a real {'integer' if kind is int else 'number'}")
    return int(z.real) if kind is int else z.real


def _qobj(expr, params, path, what="an operator") -> Qobj:
    """Evaluate an operator or state expression; anything else is a ModelError."""
    value = _ExprEvaluator(params, path).eval(expr)
    if not isinstance(value, Qobj):
        raise ModelError(f"{path}: expression does not produce {what}")
    return value


def _coeff_from_spec(spec, params, path) -> Coefficient:
    if spec is None:
        return ConstantCoefficient(1.0)
    if not isinstance(spec, dict):
        return ConstantCoefficient(_number(spec, params, path, complex))
    if "type" not in spec:
        raise ModelError(f"{path}: coefficient must be a number or a mapping with 'type'")
    kind = spec["type"]

    def num(key, default=None, as_type=float):
        if key not in spec and default is None:
            raise ModelError(f"{path}: coefficient {kind!r} needs field {key!r}")
        return _number(spec.get(key, default), params, f"{path}.{key}", as_type)

    if kind == "constant":
        return ConstantCoefficient(num("value", as_type=complex))
    if kind in ("sin", "cos"):
        a, w, p = num("amplitude", 1.0, complex), num("frequency"), num("phase", 0.0)
        fn = math.sin if kind == "sin" else math.cos
        return FunctionCoefficient(lambda t, args=None: a * fn(w * t + p))
    if kind == "exp":
        a, r = num("amplitude", 1.0, complex), num("rate")
        return FunctionCoefficient(lambda t, args=None: a * math.exp(r * t))
    if kind == "gauss":
        a, t0, sigma = num("amplitude", 1.0, complex), num("center"), num("width")
        if sigma == 0:
            raise ModelError(f"{path}.width: must be nonzero")
        return FunctionCoefficient(
            lambda t, args=None: a * math.exp(-((t - t0) ** 2) / (2 * sigma**2))
        )
    if kind == "array":
        times, values = spec.get("times"), spec.get("values")
        if times is None or values is None:
            raise ModelError(f"{path}: array coefficient needs 'times' and 'values'")
        try:
            vals = [
                complex(v[0], v[1]) if isinstance(v, (list, tuple)) else complex(v)
                for v in values
            ]
        except (TypeError, ValueError) as exc:
            raise ModelError(f"{path}.values: not numeric: {exc}") from exc
        try:
            return SplineCoefficient(np.asarray(times, dtype=float), np.asarray(vals))
        except (ValueError, OqsimError) as exc:
            raise ModelError(f"{path}: {exc}") from exc
    raise ModelError(f"{path}: unknown coefficient type {kind!r}")


@dataclass
class ModelSpec:
    """A fully validated batch model, ready to run."""

    solver: str
    initial_state: Qobj | None  # None only where the solver needs none (steadystate)
    tlist: np.ndarray | None  # likewise
    hamiltonian: list = field(default_factory=list)
    c_ops: list = field(default_factory=list)
    sc_ops: list = field(default_factory=list)
    ops_and_rates: list = field(default_factory=list)
    e_ops: list = field(default_factory=list)  # (label, Qobj)
    couplings: list = field(default_factory=list)  # brmesolve: (op, spectrum fn)
    environment: object = None  # heom: (ExponentSet | BosonicEnvironment, Q)
    solver_options: dict = field(default_factory=dict)
    parameters: dict = field(default_factory=dict)


@dataclass
class ResultTable:
    """Rectangular numeric table with labeled columns."""

    labels: list
    rows: np.ndarray


def _term_list(entries, params, path, key="coeff", parse=_coeff_from_spec, required=False):
    """``(op, parse(entry[key]))`` per entry; a bare string is an op without ``key``."""
    if entries is None:
        return []
    if not isinstance(entries, list):
        raise ModelError(f"{path}: expected a list of terms")
    out = []
    for i, entry in enumerate(entries):
        tpath = f"{path}[{i}]"
        if isinstance(entry, str) and not required:
            entry = {"op": entry}
        if not isinstance(entry, dict) or "op" not in entry or (required and key not in entry):
            raise ModelError(
                f"{tpath}: expected a mapping with 'op' and '{key}'" if required
                else f"{tpath}: expected an expression or a mapping with 'op'"
            )
        op = _qobj(entry["op"], params, f"{tpath}.op")
        out.append((op, parse(entry.get(key), params, f"{tpath}.{key}")))
    return out


def _spectrum_from_spec(spec, params, path):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ModelError(f"{path}: spectrum must be a mapping with 'type'")
    kind = spec["type"]
    if kind == "flat":
        gamma = _number(spec.get("gamma", 1.0), params, f"{path}.gamma")
        T = _number(spec.get("T", 0.0), params, f"{path}.T")

        def S(w, gamma=gamma, T=T):
            # Flat J = gamma/2; theta(0) = 1/2 at zero temperature.
            if T == 0.0:
                if w > 0:
                    return gamma
                if w == 0:
                    return gamma / 2
                return 0.0
            if w == 0.0:
                return gamma * T  # smooth limit of the occupation factor
            n = 1.0 / math.expm1(abs(w) / T)
            return gamma * (n + 1.0) if w > 0 else gamma * n

        return S
    if kind == "environment":
        env = _environment_from_spec(spec, params, path)
        return env.power_spectrum
    raise ModelError(f"{path}: unknown spectrum type {kind!r}")


# Each environment kind: its class and its fields, with the default of an
# optional one (None marks a required field).
_ENVIRONMENTS = {
    "drude_lorentz": (DrudeLorentzEnvironment, {"T": None, "lam": None, "gamma": None}),
    "underdamped": (UnderdampedEnvironment, {"T": None, "lam": None, "Gamma": None, "w0": None}),
    "ohmic": (OhmicEnvironment, {"T": None, "alpha": None, "wc": None, "s": 1.0}),
}


def _environment_from_spec(spec, params, path):
    kind = spec.get("kind")
    kwargs = {}
    if kind == "exponents":
        make = ExponentSet
        for key in ("ck_real", "vk_real", "ck_imag", "vk_imag"):
            values = spec.get(key, [])
            if not isinstance(values, list):
                raise ModelError(f"{path}.{key}: expected a list of numbers")
            kwargs[key] = [_number(v, params, f"{path}.{key}[{i}]", complex)
                           for i, v in enumerate(values)]
    elif kind in _ENVIRONMENTS:
        make, fields = _ENVIRONMENTS[kind]
        for key, default in fields.items():
            if key not in spec and default is None:
                raise ModelError(f"{path}: environment {kind!r} is missing field {key!r}")
            kwargs[key] = _number(spec.get(key, default), params, f"{path}.{key}")
    else:
        raise ModelError(f"{path}: unknown environment kind {kind!r}")
    try:
        return make(**kwargs)
    except OqsimError as exc:
        raise ModelError(f"{path}: {exc}") from exc


def _model_loader(base):
    """A subclass of ``base`` that also reads ``1e-10``, ``1e10`` and ``1.0e10`` as floats.

    YAML 1.1 leaves an exponent without a dot or without a sign a string.
    The int resolver is tried first, so ``10`` stays an int.
    """
    loader = type("_ModelLoader", (base,), {})
    loader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"),
    )
    return loader


# libyaml scans and parses when PyYAML was built with it; tags are resolved
# and objects built by the same Python resolver and constructor either way.
_ModelLoader = _model_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))


# The operator lists of a model, in the order their dims are checked, with
# how each parses the field next to its 'op' (see _term_list).
_TERM_FIELDS = {
    "hamiltonian": (),
    "c_ops": (),
    "sc_ops": (),
    "ops_and_rates": ("rate", _coeff_from_spec, True),
    "e_ops": ("label", lambda label, params, path: label),
    "couplings": ("spectrum", _spectrum_from_spec, True),
}


def parse_model(text: str) -> ModelSpec:
    """Parse and validate a YAML model document.

    Every error names the offending path within the document.
    """
    try:
        doc = yaml.load(text, Loader=_ModelLoader)
    except yaml.YAMLError as exc:
        raise ModelError(f"model file is not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ModelError("model file must be a mapping at the top level")

    params = {}
    raw_params = doc.get("parameters", {}) or {}
    if not isinstance(raw_params, dict):
        raise ModelError("parameters: expected a mapping")
    for key, val in raw_params.items():
        params[key] = _number(val, params, f"parameters.{key}", None)

    solver = doc.get("solver")
    if solver not in _SOLVERS:
        raise ModelError(
            f"solver: unknown solver {solver!r}; expected one of {', '.join(_SOLVERS)}"
        )

    tspec = doc.get("tlist")
    tlist = None
    if tspec is not None:
        if not isinstance(tspec, dict) or not {"start", "stop", "num"} <= set(tspec):
            raise ModelError("tlist: expected a mapping with start, stop, num")
        num = _number(tspec["num"], params, "tlist.num", int)
        if num < 2:
            raise ModelError("tlist.num: need at least two time points")
        with np.errstate(invalid="ignore"):  # an infinite end gives NaN times
            tlist = np.linspace(_number(tspec["start"], params, "tlist.start"),
                                _number(tspec["stop"], params, "tlist.stop"), num)
        try:
            check_tlist(tlist)
        except RangeError as exc:
            raise ModelError(f"tlist: {exc}") from exc

    state = doc.get("initial_state")
    initial_state = None if state is None else _qobj(state, params, "initial_state", "a state")

    terms = {name: _term_list(doc.get(name), params, name, *how)
             for name, how in _TERM_FIELDS.items()}
    ops = [(f"{name}[{i}].op", op)
           for name, pairs in terms.items() for i, (op, _) in enumerate(pairs)]
    terms["e_ops"] = [(f"e{i}" if label is None else str(label), op)
                      for i, (op, label) in enumerate(terms["e_ops"])]

    environment = None
    env_spec = doc.get("environment")
    if env_spec is not None:
        if not isinstance(env_spec, dict) or "coupling" not in env_spec:
            raise ModelError("environment: expected a mapping with 'coupling' and bath fields")
        Q = _qobj(env_spec["coupling"], params, "environment.coupling")
        environment = (_environment_from_spec(env_spec, params, "environment"), Q)
        ops.append(("environment.coupling", Q))

    solver_options = doc.get("solver_options") or {}
    if not isinstance(solver_options, dict):
        raise ModelError("solver_options: expected a mapping")

    spec = ModelSpec(solver, initial_state, tlist, environment=environment,
                     solver_options=dict(solver_options), parameters=params, **terms)
    _validate_dims(ops, initial_state, doc.get("dims"))
    _require_fields(spec, solver)
    return spec


def _validate_dims(ops, initial_state, dims_field) -> None:
    """Cross-check the dims of every ``(path, op)`` pair and of the state before any computation."""
    ref = ref_path = None
    for path, op in ops:
        if op.dims.ket != op.dims.bra:
            raise ModelError(f"{path}: operator is not square")
        if ref is None:
            ref, ref_path = op.dims.ket, path
        elif op.dims.ket != ref:
            raise ModelError(f"{path}: dims {op.dims.ket} do not match {ref} from {ref_path}")
    if initial_state is not None and ref is not None and initial_state.dims.ket != ref:
        raise ModelError(f"initial_state: dims {initial_state.dims.ket} do not match {ref}")
    if dims_field is not None and not isinstance(dims_field, list):
        raise ModelError("dims: expected a list of subsystem sizes")
    if dims_field is not None and ref is not None and dims_field != ref:
        raise ModelError(f"dims: declared {dims_field} but operators have {ref}")


def _require_fields(spec: ModelSpec, name: str) -> None:
    """Raise a ModelError for the first field that solver ``name`` needs and ``spec`` lacks."""
    for path, message in _SOLVERS[name][1].items():
        head, _, key = path.partition(".")
        value = getattr(spec, head)
        if key:
            value = value.get(key)
        if value is None or (isinstance(value, list) and not value):
            raise ModelError(f"{path}: {message}")


def check_model(spec: ModelSpec, name: str) -> None:
    """Check ``spec`` against solver ``name`` as a run of it would.

    A ``solver_options`` key the solver does not take, or a field it
    requires and the model lacks, raises :class:`ModelError`.
    """
    if name not in _SOLVERS:
        raise ModelError(f"solver: unknown solver {name!r}")
    accepted = _SOLVERS[name][0]
    for key in spec.solver_options:
        if key not in accepted:
            raise ModelError(
                f"solver_options.{key}: not an option of {name}; accepted: {', '.join(accepted)}"
            )
    _require_fields(spec, name)


def _ops(terms):
    """Each term's operator, bare when its coefficient is the constant 1."""
    return [op if coeff.is_constant and coeff(0.0) == 1.0 else QobjEvo([(op, coeff)])
            for op, coeff in terms]


def _option(spec, opts, key, default=None, kind=float):
    """Pop a numeric solver option the runner itself reads."""
    return _number(opts.pop(key, default), spec.parameters, f"solver_options.{key}", kind)


# Runners: (spec, H as a QobjEvo or None, e_ops as {label: op} or None,
# solver options) -> the solver's result.

def _run_sesolve(spec, H, e_ops, opts):
    return sesolve(H, spec.initial_state, spec.tlist, e_ops=e_ops, options=opts)


def _run_mesolve(spec, H, e_ops, opts):
    return mesolve(H, spec.initial_state, spec.tlist, c_ops=_ops(spec.c_ops), e_ops=e_ops,
                   options=opts)


def _run_brmesolve(spec, H, e_ops, opts):
    sec_cutoff = _option(spec, opts, "sec_cutoff", 0.1)
    return brmesolve(H, spec.couplings, spec.initial_state,
                     spec.tlist, e_ops=e_ops, sec_cutoff=sec_cutoff, options=opts)


def _run_steadystate(spec, H, e_ops, opts):
    rho = steadystate(H, _ops(spec.c_ops), method=opts.pop("method", "direct"),
                      solver=opts.pop("solver", "direct_lu"))
    e_ops = e_ops or {}
    return SolveResult([0.0], list(e_ops), [[expect(op, rho)] for op in e_ops.values()])


def _run_mcsolve(spec, H, e_ops, opts):
    return mcsolve(H, spec.initial_state, spec.tlist, c_ops=_ops(spec.c_ops), e_ops=e_ops,
                   options=opts)


def _run_nm_mcsolve(spec, H, e_ops, opts):
    return nm_mcsolve(H, spec.initial_state, spec.tlist, spec.ops_and_rates, e_ops=e_ops,
                      options=opts)


def _run_smesolve(spec, H, e_ops, opts):
    return smesolve(H, spec.initial_state, spec.tlist, c_ops=_ops(spec.c_ops),
                    sc_ops=_ops(spec.sc_ops), e_ops=e_ops, options=opts)


def _run_heomsolve(spec, H, e_ops, opts):
    n_c, n_k = _option(spec, opts, "n_c", 4, int), _option(spec, opts, "n_k", 3, int)
    return heomsolve(H, spec.environment, spec.initial_state, spec.tlist,
                     n_c=n_c, e_ops=e_ops, n_k=n_k, options=opts)


def _run_fsesolve(spec, H, e_ops, opts):
    period, n_t = _option(spec, opts, "period"), _option(spec, opts, "n_t", 64, int)
    return fsesolve(floquet_basis(H, period, n_t=n_t), spec.initial_state, spec.tlist,
                    e_ops=e_ops)


_DET, _MC = SolverOptions.option_keys(), McOptions.option_keys()
_EVOLVE = {
    "initial_state": "required field is missing",
    "tlist": "required: a mapping with start, stop, num",
    "hamiltonian": "required for this solver",
}
# Every solver: its solver_options keys (its options class, plus the keys
# its runner reads), the fields it requires with the message for a missing
# one, and its runner.
_SOLVERS = {
    "sesolve": (_DET, _EVOLVE, _run_sesolve),
    "mesolve": (_DET, _EVOLVE, _run_mesolve),
    "brmesolve": (_DET + ("sec_cutoff",),
                  {**_EVOLVE, "couplings": "brmesolve needs at least one coupling"},
                  _run_brmesolve),
    "steadystate": (("method", "solver"), {}, _run_steadystate),
    "mcsolve": (_MC, _EVOLVE, _run_mcsolve),
    "nm_mcsolve": (_MC, {**_EVOLVE, "ops_and_rates": "nm_mcsolve needs at least one pair"},
                   _run_nm_mcsolve),
    "smesolve": (SmeOptions.option_keys(),
                 {**_EVOLVE, "sc_ops": "smesolve needs at least one monitored operator"},
                 _run_smesolve),
    "heomsolve": (_DET + ("n_c", "n_k"),
                  {**_EVOLVE, "environment": "heomsolve needs an environment block"},
                  _run_heomsolve),
    "fsesolve": (("period", "n_t"), {**_EVOLVE, "solver_options.period": "required for fsesolve"},
                 _run_fsesolve),
}


def run_model(spec: ModelSpec, *, seed=None, ntraj=None, solver=None) -> ResultTable:
    """Run a validated model and return its result table.

    ``seed``, ``ntraj`` and ``solver`` override the corresponding model
    fields (the CLI flags map here); ``seed`` and ``ntraj`` apply to the
    trajectory solvers only.  The model is checked against the solver that
    runs: a ``solver_options`` key it does not take, a field it requires
    and the model lacks, or an option value it refuses raises
    :class:`ModelError`.
    """
    name = solver or spec.solver
    check_model(spec, name)
    accepted, _, runner = _SOLVERS[name]
    opts = dict(spec.solver_options)
    if seed is not None and "seed" in accepted:
        opts["seed"] = int(seed)
    if ntraj is not None and "ntraj" in accepted:
        opts["ntraj"] = int(ntraj)

    H = QobjEvo(spec.hamiltonian) if spec.hamiltonian else None
    try:
        res = runner(spec, H, dict(spec.e_ops) or None, opts)
    except OptionError as exc:
        raise ModelError(f"solver_options: {exc}") from exc
    except ModelError:
        raise
    except OqsimError as exc:
        raise SolverError(f"solver {name} failed: {exc}") from exc
    return _table_from_result(res)


def _table_from_result(res) -> ResultTable:
    """Columns ``time``, one per expectation (``_re``/``_im`` when complex), then a
    trajectory result's ``_std`` columns and its martingale trace, if any."""
    labels = ["time"]
    cols = [np.asarray(res.times, dtype=float)]
    for lbl, series in zip(res.e_op_labels, res.expect):
        series = np.asarray(series)
        if np.iscomplexobj(series):
            labels += [f"{lbl}_re", f"{lbl}_im"]
            cols += [series.real, series.imag]
        else:
            labels.append(lbl)
            cols.append(series.astype(float))
    if isinstance(res, MultiTrajResult):
        for lbl, series in zip(res.e_op_labels, res.std_expect):
            labels.append(f"{lbl}_std")
            cols.append(np.asarray(series, dtype=float))
        if res.trace is not None:
            labels.append("martingale")
            cols.append(np.asarray(res.trace, dtype=float))
    return ResultTable(labels, np.column_stack(cols))


def csv_lines(table: ResultTable):
    """The lines of a table's CSV text, values at full round-trip precision."""
    yield ",".join(table.labels) + "\n"
    for row in np.atleast_2d(table.rows):
        yield ",".join(format(float(v), ".17g") for v in row) + "\n"


def write_csv(table: ResultTable, path) -> None:
    """Write a result table as CSV with full round-trip precision."""
    with open(path, "w", newline="") as fh:
        fh.writelines(csv_lines(table))
