"""Declarative batch models: parse, validate, run, and emit CSV tables.

A model file is a YAML document describing subsystem dims, operator
expressions (over the state/operator factories, tensor products and scalar
arithmetic), optional time-dependent coefficients, an initial state, a time
grid, expectation operators, and a solver with its options.  Operator
expressions are evaluated through a whitelisted expression grammar; arbitrary
code is rejected.
"""

from __future__ import annotations

import ast
import cmath
import math
import re
from dataclasses import dataclass, field

import numpy as np
import yaml

from .coefficient import Coefficient, ConstantCoefficient, FunctionCoefficient, SplineCoefficient
from .exceptions import ModelError, OqsimError, SolverError
from .qobj import Qobj, tensor
from .smesolve import SmeOptions
from .solver import SolverOptions
from .states import _STATE_KINDS
from .operators import _OPERATOR_KINDS
from .trajectory import McOptions

__all__ = ["ModelSpec", "ResultTable", "parse_model", "run_model", "write_csv"]

_DET, _MC = SolverOptions.option_keys(), McOptions.option_keys()
# The solver_options keys of each solver: its options class, plus the keys
# run_model pops for it.  Any other key is a ModelError.
_OPTION_KEYS = {
    "sesolve": _DET, "mesolve": _DET, "brmesolve": _DET + ("sec_cutoff",),
    "steadystate": ("method", "solver"), "mcsolve": _MC, "nm_mcsolve": _MC,
    "smesolve": SmeOptions.option_keys(), "heomsolve": _DET + ("n_c", "n_k"),
    "fsesolve": ("period", "n_t"),
}
SOLVERS = tuple(_OPTION_KEYS)

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
        return self.visit(tree.body)

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
        except OqsimError as exc:
            self.error(str(exc))
        except TypeError as exc:
            self.error(f"bad arguments to {name}: {exc}")
        if name in _SCALAR_FUNCS and isinstance(out, complex) and out.imag == 0:
            return out.real
        return out

    def visit_BinOp(self, node):
        left = self.visit(node.left)
        right = self.visit(node.right)
        try:
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
        except OqsimError as exc:
            self.error(str(exc))
        self.error(f"unsupported operator {type(node.op).__name__}")

    def visit_UnaryOp(self, node):
        val = self.visit(node.operand)
        if isinstance(node.op, ast.USub):
            return -val
        if isinstance(node.op, ast.UAdd):
            return val
        self.error(f"unsupported unary operator {type(node.op).__name__}")


def _coeff_from_spec(spec, params, path) -> Coefficient:
    if spec is None:
        return ConstantCoefficient(1.0)
    if isinstance(spec, (int, float, complex)):
        return ConstantCoefficient(spec)
    if not isinstance(spec, dict) or "type" not in spec:
        raise ModelError(f"{path}: coefficient must be a number or a mapping with 'type'")
    kind = spec["type"]

    def num(key, default=None):
        if key not in spec:
            if default is None:
                raise ModelError(f"{path}: coefficient {kind!r} needs field {key!r}")
            return default
        val = spec[key]
        if isinstance(val, str):
            val = _ExprEvaluator(params, f"{path}.{key}").eval(val)
        if isinstance(val, Qobj):
            raise ModelError(f"{path}.{key}: expected a number")
        return complex(val).real if complex(val).imag == 0 else complex(val)

    if kind == "constant":
        return ConstantCoefficient(num("value"))
    if kind in ("sin", "cos"):
        a, w, p = num("amplitude", 1.0), num("frequency"), num("phase", 0.0)
        fn = math.sin if kind == "sin" else math.cos
        return FunctionCoefficient(lambda t, args=None: a * fn(w * t + p))
    if kind == "exp":
        a, r = num("amplitude", 1.0), num("rate")
        return FunctionCoefficient(lambda t, args=None: a * math.exp(r * t))
    if kind == "gauss":
        a, t0, sigma = num("amplitude", 1.0), num("center"), num("width")
        return FunctionCoefficient(
            lambda t, args=None: a * math.exp(-((t - t0) ** 2) / (2 * sigma**2))
        )
    if kind == "array":
        times = spec.get("times")
        values = spec.get("values")
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
    initial_state: Qobj
    tlist: np.ndarray
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


def _term_list(entries, params, path, allow_coeff=True):
    if entries is None:
        return []
    if not isinstance(entries, list):
        raise ModelError(f"{path}: expected a list of terms")
    out = []
    for i, entry in enumerate(entries):
        tpath = f"{path}[{i}]"
        if isinstance(entry, str):
            op_expr, coeff = entry, None
        elif isinstance(entry, dict):
            if "op" not in entry:
                raise ModelError(f"{tpath}: term needs an 'op' expression")
            op_expr = entry["op"]
            coeff = entry.get("coeff")
            if coeff is not None and not allow_coeff:
                raise ModelError(f"{tpath}: coefficients are not allowed here")
        else:
            raise ModelError(f"{tpath}: term must be a string or a mapping")
        op = _ExprEvaluator(params, f"{tpath}.op").eval(op_expr)
        if not isinstance(op, Qobj):
            raise ModelError(f"{tpath}.op: expression does not produce an operator")
        out.append((op, _coeff_from_spec(coeff, params, f"{tpath}.coeff")))
    return out


def _spectrum_from_spec(spec, params, path):
    if not isinstance(spec, dict) or "type" not in spec:
        raise ModelError(f"{path}: spectrum must be a mapping with 'type'")
    kind = spec["type"]
    if kind == "flat":
        gamma = float(spec.get("gamma", 1.0))
        T = float(spec.get("T", 0.0))

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


def _environment_from_spec(spec, params, path):
    from .environment import (
        DrudeLorentzEnvironment,
        ExponentSet,
        OhmicEnvironment,
        UnderdampedEnvironment,
    )

    kind = spec.get("kind")
    try:
        if kind == "drude_lorentz":
            return DrudeLorentzEnvironment(
                T=float(spec["T"]), lam=float(spec["lam"]), gamma=float(spec["gamma"])
            )
        if kind == "underdamped":
            return UnderdampedEnvironment(
                T=float(spec["T"]),
                lam=float(spec["lam"]),
                Gamma=float(spec["Gamma"]),
                w0=float(spec["w0"]),
            )
        if kind == "ohmic":
            return OhmicEnvironment(
                T=float(spec["T"]),
                alpha=float(spec["alpha"]),
                wc=float(spec["wc"]),
                s=float(spec.get("s", 1.0)),
            )
        if kind == "exponents":
            return ExponentSet(
                spec.get("ck_real", []),
                spec.get("vk_real", []),
                spec.get("ck_imag", []),
                spec.get("vk_imag", []),
            )
    except KeyError as exc:
        raise ModelError(f"{path}: environment {kind!r} is missing field {exc}") from exc
    except OqsimError as exc:
        raise ModelError(f"{path}: {exc}") from exc
    raise ModelError(f"{path}: unknown environment kind {kind!r}")


class _ModelLoader(yaml.SafeLoader):
    """``yaml.SafeLoader`` that also reads ``1e-10``, ``1e10`` and ``1.0e10`` as floats.

    YAML 1.1 leaves an exponent without a dot or without a sign a string.
    The int resolver is tried first, so ``10`` stays an int.
    """


_ModelLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9_]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


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
        if isinstance(val, str):
            val = _ExprEvaluator(params, f"parameters.{key}").eval(val)
        if isinstance(val, Qobj):
            raise ModelError(f"parameters.{key}: parameters must be numbers")
        params[key] = val

    solver = doc.get("solver")
    if solver not in SOLVERS:
        raise ModelError(
            f"solver: unknown solver {solver!r}; expected one of {', '.join(SOLVERS)}"
        )

    tspec = doc.get("tlist")
    if solver == "steadystate":
        tlist = np.zeros(1)
    else:
        if not isinstance(tspec, dict) or not {"start", "stop", "num"} <= set(tspec):
            raise ModelError("tlist: expected a mapping with start, stop, num")
        num = int(tspec["num"])
        if num < 2:
            raise ModelError("tlist.num: need at least two time points")
        tlist = np.linspace(float(tspec["start"]), float(tspec["stop"]), num)

    state_expr = doc.get("initial_state")
    if state_expr is None and solver != "steadystate":
        raise ModelError("initial_state: required field is missing")
    initial_state = None
    if state_expr is not None:
        initial_state = _ExprEvaluator(params, "initial_state").eval(state_expr)
        if not isinstance(initial_state, Qobj):
            raise ModelError("initial_state: expression does not produce a state")

    hamiltonian = _term_list(doc.get("hamiltonian"), params, "hamiltonian")
    c_ops = _term_list(doc.get("c_ops"), params, "c_ops")
    sc_ops = _term_list(doc.get("sc_ops"), params, "sc_ops")

    ops_and_rates = []
    for i, entry in enumerate(doc.get("ops_and_rates") or []):
        path = f"ops_and_rates[{i}]"
        if not isinstance(entry, dict) or "op" not in entry or "rate" not in entry:
            raise ModelError(f"{path}: expected a mapping with 'op' and 'rate'")
        op = _ExprEvaluator(params, f"{path}.op").eval(entry["op"])
        if not isinstance(op, Qobj):
            raise ModelError(f"{path}.op: expression does not produce an operator")
        ops_and_rates.append((op, _coeff_from_spec(entry["rate"], params, f"{path}.rate")))

    e_ops = []
    for i, entry in enumerate(doc.get("e_ops") or []):
        path = f"e_ops[{i}]"
        if isinstance(entry, str):
            label, expr = f"e{i}", entry
        elif isinstance(entry, dict) and "op" in entry:
            label, expr = str(entry.get("label", f"e{i}")), entry["op"]
        else:
            raise ModelError(f"{path}: expected an expression or mapping with 'op'")
        op = _ExprEvaluator(params, f"{path}.op").eval(expr)
        if not isinstance(op, Qobj):
            raise ModelError(f"{path}.op: expression does not produce an operator")
        e_ops.append((label, op))

    couplings = []
    for i, entry in enumerate(doc.get("couplings") or []):
        path = f"couplings[{i}]"
        if not isinstance(entry, dict) or "op" not in entry or "spectrum" not in entry:
            raise ModelError(f"{path}: expected a mapping with 'op' and 'spectrum'")
        op = _ExprEvaluator(params, f"{path}.op").eval(entry["op"])
        if not isinstance(op, Qobj):
            raise ModelError(f"{path}.op: expression does not produce an operator")
        couplings.append((op, _spectrum_from_spec(entry["spectrum"], params, f"{path}.spectrum")))

    environment = None
    if doc.get("environment") is not None:
        env_spec = doc["environment"]
        if not isinstance(env_spec, dict) or "coupling" not in env_spec:
            raise ModelError("environment: expected a mapping with 'coupling' and bath fields")
        Q = _ExprEvaluator(params, "environment.coupling").eval(env_spec["coupling"])
        if not isinstance(Q, Qobj):
            raise ModelError("environment.coupling: expression does not produce an operator")
        bath = _environment_from_spec(env_spec, params, "environment")
        environment = (bath, Q)

    solver_options = doc.get("solver_options") or {}
    if not isinstance(solver_options, dict):
        raise ModelError("solver_options: expected a mapping")

    spec = ModelSpec(
        solver=solver,
        initial_state=initial_state,
        tlist=tlist,
        hamiltonian=hamiltonian,
        c_ops=c_ops,
        sc_ops=sc_ops,
        ops_and_rates=ops_and_rates,
        e_ops=e_ops,
        couplings=couplings,
        environment=environment,
        solver_options=dict(solver_options),
        parameters=params,
    )
    _validate_dims(spec, doc)
    return spec


def _validate_dims(spec: ModelSpec, doc) -> None:
    """Cross-check all operator and state dims before any computation."""
    dims_field = doc.get("dims")
    ref = None
    ref_path = None

    def check(op: Qobj, path, square=True):
        nonlocal ref, ref_path
        if square and op.dims.ket != op.dims.bra:
            raise ModelError(f"{path}: operator is not square")
        if ref is None:
            ref = op.dims.ket
            ref_path = path
        elif op.dims.ket != ref:
            raise ModelError(
                f"{path}: dims {op.dims.ket} do not match {ref} from {ref_path}"
            )

    for i, (op, _) in enumerate(spec.hamiltonian):
        check(op, f"hamiltonian[{i}].op")
    for name in ("c_ops", "sc_ops"):
        for i, (op, _) in enumerate(getattr(spec, name)):
            check(op, f"{name}[{i}].op")
    for i, (op, _) in enumerate(spec.ops_and_rates):
        check(op, f"ops_and_rates[{i}].op")
    for i, (label, op) in enumerate(spec.e_ops):
        check(op, f"e_ops[{i}].op")
    for i, (op, _) in enumerate(spec.couplings):
        check(op, f"couplings[{i}].op")
    if spec.environment is not None:
        check(spec.environment[1], "environment.coupling")
    if spec.initial_state is not None and ref is not None:
        if spec.initial_state.dims.ket != ref:
            raise ModelError(
                f"initial_state: dims {spec.initial_state.dims.ket} do not match {ref}"
            )
    if dims_field is not None and ref is not None and list(dims_field) != ref:
        raise ModelError(f"dims: declared {dims_field} but operators have {ref}")
    if spec.solver in ("sesolve", "mesolve", "fsesolve", "smesolve") and not spec.hamiltonian:
        raise ModelError("hamiltonian: required for this solver")
    if spec.solver == "mcsolve" and not spec.hamiltonian:
        raise ModelError("hamiltonian: required for this solver")
    if spec.solver == "brmesolve" and not spec.couplings:
        raise ModelError("couplings: brmesolve needs at least one coupling")
    if spec.solver == "nm_mcsolve" and not spec.ops_and_rates:
        raise ModelError("ops_and_rates: nm_mcsolve needs at least one pair")
    if spec.solver == "heomsolve" and spec.environment is None:
        raise ModelError("environment: heomsolve needs an environment block")
    if spec.solver == "smesolve" and not spec.sc_ops:
        raise ModelError("sc_ops: smesolve needs at least one monitored operator")


def _evo_from_terms(terms):
    from .qobjevo import QobjEvo

    return QobjEvo([(op, coeff) for op, coeff in terms])


def run_model(spec: ModelSpec, *, seed=None, ntraj=None, solver=None) -> ResultTable:
    """Run a validated model and return its result table.

    ``seed``, ``ntraj`` and ``solver`` override the corresponding model
    fields (the CLI flags map here); ``seed`` and ``ntraj`` apply to the
    trajectory solvers only.  A ``solver_options`` key the solver does not
    take raises :class:`ModelError`.
    """
    from . import (
        brmesolve,
        fsesolve,
        floquet_basis,
        heomsolve,
        mcsolve,
        mesolve,
        nm_mcsolve,
        sesolve,
        smesolve,
        steadystate,
    )
    from .qobj import expect

    name = solver or spec.solver
    if name not in SOLVERS:
        raise ModelError(f"solver: unknown solver {name!r}")
    accepted = _OPTION_KEYS[name]
    for key in spec.solver_options:
        if key not in accepted:
            raise ModelError(
                f"solver_options.{key}: not an option of {name}; accepted: {', '.join(accepted)}"
            )
    opts = dict(spec.solver_options)
    if seed is not None and "seed" in accepted:
        opts["seed"] = int(seed)
    if ntraj is not None and "ntraj" in accepted:
        opts["ntraj"] = int(ntraj)

    labels = [lbl for lbl, _ in spec.e_ops]
    ops = [op for _, op in spec.e_ops]
    e_ops = dict(zip(labels, ops)) if ops else None
    H = _evo_from_terms(spec.hamiltonian) if spec.hamiltonian else None
    tlist = spec.tlist

    def pairs(terms):
        return [op if coeff.is_constant and coeff(0.0) == 1.0 else _evo_from_terms([(op, coeff)])
                for op, coeff in terms]

    try:
        if name == "sesolve":
            res = sesolve(H, spec.initial_state, tlist, e_ops=e_ops, options=opts)
            return _table_from_result(res, stochastic=False)
        if name == "mesolve":
            res = mesolve(
                H, spec.initial_state, tlist, c_ops=pairs(spec.c_ops), e_ops=e_ops,
                options=opts,
            )
            return _table_from_result(res, stochastic=False)
        if name == "brmesolve":
            res = brmesolve(
                H(0.0) if H is not None and H.isconstant else H,
                spec.couplings,
                spec.initial_state,
                tlist,
                e_ops=e_ops,
                sec_cutoff=float(opts.pop("sec_cutoff", 0.1)),
                options=opts,
            )
            return _table_from_result(res, stochastic=False)
        if name == "steadystate":
            rho = steadystate(
                _sum_constant(H), pairs(spec.c_ops),
                method=opts.pop("method", "direct"),
                solver=opts.pop("solver", "direct_lu"),
            )
            row = [0.0]
            out_labels = ["time"]
            for lbl, op in zip(labels, ops):
                val = expect(op, rho)
                if isinstance(val, complex):
                    out_labels += [f"{lbl}_re", f"{lbl}_im"]
                    row += [val.real, val.imag]
                else:
                    out_labels.append(lbl)
                    row.append(float(val))
            return ResultTable(out_labels, np.array([row]))
        if name == "mcsolve":
            res = mcsolve(
                H, spec.initial_state, tlist, c_ops=pairs(spec.c_ops), e_ops=e_ops,
                options=opts,
            )
            return _table_from_result(res, stochastic=True)
        if name == "nm_mcsolve":
            res = nm_mcsolve(
                H, spec.initial_state, tlist, spec.ops_and_rates, e_ops=e_ops,
                options=opts,
            )
            return _table_from_result(res, stochastic=True, trace=True)
        if name == "smesolve":
            res = smesolve(
                H, spec.initial_state, tlist, c_ops=pairs(spec.c_ops),
                sc_ops=pairs(spec.sc_ops), e_ops=e_ops, options=opts,
            )
            return _table_from_result(res, stochastic=True)
        if name == "heomsolve":
            res = heomsolve(
                _sum_constant(H), spec.environment, spec.initial_state, tlist,
                n_c=int(opts.pop("n_c", 4)), e_ops=e_ops, n_k=int(opts.pop("n_k", 3)),
                options=opts,
            )
            return _table_from_result(res, stochastic=False)
        if name == "fsesolve":
            period = opts.pop("period", None)
            if period is None:
                raise ModelError("solver_options.period: required for fsesolve")
            fb = floquet_basis(H, float(period), n_t=int(opts.pop("n_t", 64)))
            res = fsesolve(fb, spec.initial_state, tlist, e_ops=e_ops)
            return _table_from_result(res, stochastic=False)
    except ModelError:
        raise
    except OqsimError as exc:
        raise SolverError(f"solver {name} failed: {exc}") from exc
    raise ModelError(f"solver: unknown solver {name!r}")


def _sum_constant(H):
    if H is None:
        return None
    if not H.isconstant:
        raise SolverError("this solver requires a time-independent Hamiltonian")
    return H(0.0)


def _table_from_result(res, stochastic: bool, trace: bool = False) -> ResultTable:
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
    if stochastic:
        for lbl, series in zip(res.e_op_labels, res.std_expect):
            labels.append(f"{lbl}_std")
            cols.append(np.asarray(series, dtype=float))
    if trace and getattr(res, "trace", None) is not None:
        labels.append("martingale")
        cols.append(np.asarray(res.trace, dtype=float))
    return ResultTable(labels, np.column_stack(cols))


def write_csv(table: ResultTable, path) -> None:
    """Write a result table as CSV with full round-trip precision."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(table.labels) + "\n")
        for row in np.atleast_2d(table.rows):
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fmt(v: float) -> str:
    return format(float(v), ".17g")
