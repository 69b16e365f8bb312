"""Batch front end: model parsing, running, CSV output, CLI determinism."""

import ast
import csv
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from oqsim import model
from oqsim.cli import main
from oqsim.exceptions import ModelError
from oqsim.model import (
    _SOLVERS,
    _ModelLoader,
    _model_loader,
    check_model,
    parse_model,
    run_model,
    write_csv,
)

MINIMAL_DECAY = """
parameters: {eps: 1.0, gamma: 0.25}
hamiltonian:
  - op: "0.5*eps*sigmaz"
c_ops:
  - op: "sqrt(gamma)*sigmam"
initial_state: "basis(2,0)"
tlist: {start: 0.0, stop: 10.0, num: 41}
e_ops:
  - {label: sz, op: "sigmaz"}
solver: mesolve
"""


class TestParseModel:
    def test_minimal_decay_model(self):
        spec = parse_model(MINIMAL_DECAY)
        assert spec.solver == "mesolve"
        assert len(spec.c_ops) == 1
        assert spec.tlist.size == 41

    def test_unknown_solver_names_field(self):
        with pytest.raises(ModelError, match="solver"):
            parse_model(MINIMAL_DECAY.replace("solver: mesolve", "solver: floquetx"))

    def test_unknown_factory_names_path(self):
        bad = MINIMAL_DECAY.replace("sigmaz", "sigmaq")
        with pytest.raises(ModelError, match="hamiltonian"):
            parse_model(bad)

    def test_dims_mismatch_names_path(self):
        bad = MINIMAL_DECAY.replace('op: "sqrt(gamma)*sigmam"', 'op: "destroy(3)"')
        with pytest.raises(ModelError, match=r"c_ops\[0\]"):
            parse_model(bad)

    def test_tensor_expression_dims(self):
        spec = parse_model(
            """
parameters: {}
hamiltonian:
  - op: "sigmaz & identity(2)"
initial_state: "basis(2,0) & basis(2,0)"
tlist: {start: 0, stop: 1, num: 3}
solver: sesolve
"""
        )
        assert spec.hamiltonian[0][0].dims.as_list() == [[2, 2], [2, 2]]

    def test_arbitrary_code_rejected(self):
        bad = MINIMAL_DECAY.replace("0.5*eps*sigmaz", "__import__('os').getcwd()")
        with pytest.raises(ModelError):
            parse_model(bad)

    def test_syntax_error_reported(self):
        bad = MINIMAL_DECAY.replace("0.5*eps*sigmaz", "0.5*")
        with pytest.raises(ModelError, match="syntax"):
            parse_model(bad)


class TestRunModel:
    def test_decay_matches_analytic(self):
        spec = parse_model(MINIMAL_DECAY)
        table = run_model(spec)
        assert table.labels == ["time", "sz"]
        ts = table.rows[:, 0]
        gamma = 0.25
        assert np.max(np.abs(table.rows[:, 1] - (2 * np.exp(-gamma * ts) - 1))) < 1e-6

    def test_steadystate_single_row(self):
        text = """
parameters: {gamma: 0.3}
hamiltonian:
  - op: "0.5*sigmaz"
c_ops:
  - op: "sqrt(gamma)*sigmam"
e_ops:
  - {label: sz, op: "sigmaz"}
solver: steadystate
"""
        table = run_model(parse_model(text))
        assert table.rows.shape == (1, 2)
        assert table.rows[0, 1] == pytest.approx(-1.0, abs=1e-10)

    def test_complex_e_op_emits_re_im(self):
        text = """
parameters: {}
hamiltonian:
  - op: "0.5*sigmaz"
initial_state: "basis(2,0)"
tlist: {start: 0, stop: 1, num: 3}
e_ops:
  - {label: sm, op: "sigmam"}
solver: sesolve
"""
        table = run_model(parse_model(text))
        assert table.labels == ["time", "sm_re", "sm_im"]

    def test_trajectory_solver_emits_std(self):
        text = MINIMAL_DECAY.replace("solver: mesolve", "solver: mcsolve") + (
            "solver_options: {ntraj: 10, seed: 4}\n"
        )
        table = run_model(parse_model(text))
        assert table.labels == ["time", "sz", "sz_std"]

    def test_unknown_solver_option_is_model_error(self):
        with pytest.raises(ModelError, match=r"solver_options\.rtoll"):
            run_model(parse_model(MINIMAL_DECAY + "solver_options: {rtoll: 1.0e-3}\n"))
        # A key another solver takes is still foreign to this one.
        with pytest.raises(ModelError, match=r"solver_options\.ntraj"):
            run_model(parse_model(MINIMAL_DECAY + "solver_options: {ntraj: 10}\n"))
        text = MINIMAL_DECAY.replace("solver: mesolve", "solver: brmesolve")
        text += "couplings:\n  - {op: sigmax, spectrum: {type: flat, gamma: 0.1}}\n"
        text += "solver_options: {sec_cutoff: 0.2, atol: 1.0e-9}\n"
        run_model(parse_model(text))

    def test_exponent_without_a_dot_is_a_float(self):
        def rows(options):
            return run_model(parse_model(MINIMAL_DECAY + f"solver_options: {options}\n")).rows

        dotted, bare = rows("{atol: 1.0e-10, rtol: 1.0e-5}"), rows("{atol: 1e-10, rtol: 1e-5}")
        assert bare.tobytes() == dotted.tobytes()
        spec = parse_model(MINIMAL_DECAY + "solver_options: {nsteps: 10, atol: 2E8, rtol: .5e-3}\n")
        assert spec.solver_options == {"nsteps": 10, "atol": 2e8, "rtol": 5e-4}
        assert type(spec.solver_options["nsteps"]) is int

    def test_seed_determinism(self):
        text = MINIMAL_DECAY.replace("solver: mesolve", "solver: mcsolve") + (
            "solver_options: {ntraj: 25, seed: 4}\n"
        )
        spec = parse_model(text)
        t1 = run_model(spec)
        t2 = run_model(parse_model(text))
        assert np.array_equal(t1.rows, t2.rows)

    def test_named_coefficient(self):
        text = """
parameters: {A: 0.2, w: 1.0}
hamiltonian:
  - op: "0.5*sigmaz"
  - op: "0.5*A*sigmax"
    coeff: {type: sin, frequency: w}
initial_state: "basis(2,0)"
tlist: {start: 0, stop: 5, num: 11}
e_ops:
  - {label: sz, op: "sigmaz"}
solver: sesolve
"""
        table = run_model(parse_model(text))
        assert table.rows.shape == (11, 2)

    def test_array_coefficient(self):
        ts = np.linspace(0, 5, 51)
        times = ", ".join(f"{t}" for t in ts)
        values = ", ".join(f"{v}" for v in np.sin(ts))
        text = f"""
parameters: {{}}
hamiltonian:
  - op: "0.5*sigmaz"
  - op: "0.1*sigmax"
    coeff: {{type: array, times: [{times}], values: [{values}]}}
initial_state: "basis(2,0)"
tlist: {{start: 0, stop: 5, num: 11}}
e_ops:
  - {{label: sz, op: "sigmaz"}}
solver: sesolve
"""
        table = run_model(parse_model(text))
        assert table.rows.shape == (11, 2)


class TestWriteCsv:
    def test_round_trip_exact(self, tmp_path):
        spec = parse_model(MINIMAL_DECAY)
        table = run_model(spec)
        path = tmp_path / "out.csv"
        write_csv(table, path)
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = np.array([[float(v) for v in row] for row in reader])
        assert header == table.labels
        assert np.array_equal(rows, table.rows)

    def test_newline_terminated(self, tmp_path):
        spec = parse_model(MINIMAL_DECAY)
        path = tmp_path / "out.csv"
        write_csv(run_model(spec), path)
        assert Path(path).read_bytes().endswith(b"\n")

    def test_empty_e_ops_header(self, tmp_path):
        text = MINIMAL_DECAY.replace(
            "e_ops:\n  - {label: sz, op: \"sigmaz\"}\n", "e_ops: []\n"
        )
        table = run_model(parse_model(text))
        assert table.labels == ["time"]


class TestCliEntryPoint:
    def _write(self, tmp_path, text, name="model.yaml"):
        p = tmp_path / name
        p.write_text(text)
        return str(p)

    def test_run_and_validate_exit_codes(self, tmp_path, capsys):
        model = self._write(tmp_path, MINIMAL_DECAY)
        out = str(tmp_path / "r.csv")
        assert main(["validate", model]) == 0
        assert main(["run", model, "--output", out]) == 0
        assert (tmp_path / "r.csv").exists()

    def test_validation_error_exit_code(self, tmp_path):
        model = self._write(tmp_path, MINIMAL_DECAY.replace("mesolve", "warp"))
        assert main(["validate", model]) == 1
        assert main(["run", model]) == 1

    def test_solver_error_exit_code(self, tmp_path):
        # Valid model whose run fails: steadystate of a dissipation-free system.
        text = """
parameters: {}
hamiltonian:
  - op: "0.5*sigmaz"
e_ops:
  - {label: sz, op: "sigmaz"}
solver: steadystate
"""
        model = self._write(tmp_path, text)
        assert main(["run", model]) == 2

    @pytest.mark.parametrize("solver", ["steadystate", "heomsolve", "brmesolve"])
    def test_a_driven_hamiltonian_for_a_constant_solver_exits_2(self, solver, tmp_path,
                                                                capsys):
        plain = _FIELDS["hamiltonian"]
        driven = plain + "\n  - {op: sigmax, coeff: {type: sin, frequency: 1.0}}"
        model = self._write(tmp_path, _model_without(None, solver).replace(plain, driven))
        assert main(["validate", model]) == 0
        assert main(["run", model]) == 2
        assert "time-independent" in capsys.readouterr().err

    def test_cli_overrides_and_determinism(self, tmp_path):
        text = MINIMAL_DECAY.replace("solver: mesolve", "solver: mcsolve") + (
            "solver_options: {ntraj: 20, seed: 1}\n"
        )
        model = self._write(tmp_path, text)
        o1, o2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["run", model, "-o", o1, "--seed", "55", "--ntraj", "30"]) == 0
        assert main(["run", model, "-o", o2, "--seed", "55", "--ntraj", "30"]) == 0
        assert Path(o1).read_bytes() == Path(o2).read_bytes()

    def test_seed_and_ntraj_flags_on_mesolve_model(self, tmp_path):
        # A deterministic model takes the trajectory flags and ignores them.
        model = self._write(tmp_path, MINIMAL_DECAY)
        o1, o2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert main(["run", model, "-o", o1, "--seed", "7", "--ntraj", "30"]) == 0
        assert main(["run", model, "-o", o2]) == 0
        assert Path(o1).read_bytes() == Path(o2).read_bytes()

    def test_stdout_output(self, tmp_path, capsys):
        model = self._write(tmp_path, MINIMAL_DECAY)
        assert main(["run", model]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("time,sz")

    def test_stdout_bytes_equal_csv_file(self, tmp_path, capsys):
        model = self._write(tmp_path, MINIMAL_DECAY)
        out = tmp_path / "r.csv"
        assert main(["run", model, "--output", str(out)]) == 0
        capsys.readouterr()
        assert main(["run", model]) == 0
        assert capsys.readouterr().out.encode() == out.read_bytes()

    def test_bad_option_value_exits_1(self, tmp_path, capsys):
        text = MINIMAL_DECAY + "solver_options: {atol: abc}\n"
        with pytest.raises(ModelError, match=r"solver_options.*atol"):
            run_model(parse_model(text))
        assert main(["run", self._write(tmp_path, text)]) == 1
        assert capsys.readouterr().err.startswith("validation error: solver_options")


class TestLibraryEquality:
    def test_cli_matches_direct_library_call_bitwise(self):
        text = MINIMAL_DECAY.replace("solver: mesolve", "solver: mcsolve") + (
            "solver_options: {ntraj: 30, seed: 11}\n"
        )
        table = run_model(parse_model(text))

        import oqsim as q

        H = 0.5 * 1.0 * q.sigmaz()
        res = q.mcsolve(
            H, q.basis(2, 0), np.linspace(0.0, 10.0, 41),
            c_ops=[np.sqrt(0.25) * q.sigmam()],
            e_ops={"sz": q.sigmaz()},
            options={"ntraj": 30, "seed": 11},
        )
        assert np.array_equal(table.rows[:, 1], np.asarray(res.expect[0]))
        assert np.array_equal(table.rows[:, 2], np.asarray(res.std_expect[0]))


# One snippet per model field; a solver's model is every snippet but the
# solver_options one, which only fsesolve takes.
_FIELDS = {
    "parameters": "parameters: {gamma: 0.25}",
    "hamiltonian": 'hamiltonian:\n  - op: "0.5*sigmaz"',
    "c_ops": 'c_ops:\n  - op: "sqrt(gamma)*sigmam"',
    "sc_ops": 'sc_ops:\n  - op: "0.3*sigmax"',
    "ops_and_rates": "ops_and_rates:\n  - {op: sigmam, rate: 0.25}",
    "couplings": "couplings:\n  - {op: sigmax, spectrum: {type: flat, gamma: 0.1}}",
    "environment": "environment: {coupling: sigmax, kind: drude_lorentz, T: 1.0, lam: 0.1, gamma: 1.0}",
    "initial_state": 'initial_state: "basis(2,0)"',
    "tlist": "tlist: {start: 0.0, stop: 1.0, num: 3}",
    "e_ops": 'e_ops:\n  - {label: sz, op: "sigmaz"}',
    "solver_options.period": "solver_options: {period: 6.283185307179586}",
}


def _model_without(field, solver):
    kept = [text for name, text in _FIELDS.items() if name != field
            and (name != "solver_options.period" or solver == "fsesolve")]
    return "\n".join(kept + [f"solver: {solver}"]) + "\n"


_REQUIRED = [(name, field) for name, (_, required, _) in _SOLVERS.items() for field in required]


class TestRequiredFields:
    def test_every_solver_runs_in_the_table(self):
        assert set(_SOLVERS) == {"sesolve", "mesolve", "brmesolve", "steadystate", "mcsolve",
                                 "nm_mcsolve", "smesolve", "heomsolve", "fsesolve"}
        for name in _SOLVERS:
            parse_model(_model_without(None, name))

    def test_readme_lists_the_required_fields(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = dict(re.findall(r"^\| `(\w+)` \| ([^|]*) \|", readme, re.M))
        for name, (_, required, _) in _SOLVERS.items():
            listed = re.findall(r"`([\w.]+)`", rows[name])
            assert listed == list(required), name

    @pytest.mark.parametrize("name,field", _REQUIRED, ids=[f"{n}-{f}" for n, f in _REQUIRED])
    def test_missing_field_is_model_error(self, name, field, tmp_path, capsys):
        with pytest.raises(ModelError, match=rf"^{re.escape(field)}:"):
            parse_model(_model_without(field, name))
        # steadystate requires no field, so the model parses; the solver that
        # runs is the one checked.
        text = _model_without(field, "steadystate")
        if field == "solver_options.period":
            text += "solver_options: {}\n"
        with pytest.raises(ModelError, match=rf"^{re.escape(field)}:"):
            run_model(parse_model(text), solver=name)
        path = tmp_path / "m.yaml"
        path.write_text(text)
        assert main(["run", str(path), "--solver", name]) == 1
        assert capsys.readouterr().err.startswith(f"validation error: {field}:")


_HEOM = _model_without("c_ops", "heomsolve")
_BAD_FIELDS = {
    "tlist.num": MINIMAL_DECAY.replace("num: 41", "num: abc"),
    "tlist.start": MINIMAL_DECAY.replace("start: 0.0", "start: abc"),
    "tlist.stop": MINIMAL_DECAY.replace("stop: 10.0", "stop: abc"),
    "dims": MINIMAL_DECAY + "dims: 3\n",
    "environment.T": _HEOM.replace("T: 1.0", "T: abc"),
    "couplings[0].spectrum.gamma": _model_without(None, "brmesolve").replace(
        "gamma: 0.1", "gamma: abc"),
    "solver_options.n_c": _HEOM + "solver_options: {n_c: abc}\n",
    "solver_options.period": _model_without(None, "fsesolve").replace(
        "period: 6.283185307179586", "period: abc"),
    "parameters.gamma": MINIMAL_DECAY.replace("gamma: 0.25", "gamma: '1/0'"),
    "hamiltonian[0].op": MINIMAL_DECAY.replace("0.5*eps*sigmaz", "sigmaz + 'a'"),
    "hamiltonian[1].coeff.frequency": MINIMAL_DECAY.replace(
        "c_ops:", "  - {op: sigmax, coeff: {type: sin, frequency: 1j}}\nc_ops:"),
    "hamiltonian[1].coeff.width": MINIMAL_DECAY.replace(
        "c_ops:", "  - {op: sigmax, coeff: {type: gauss, center: 1, width: 0}}\nc_ops:"),
}


class TestMalformedFields:
    @pytest.mark.parametrize("field", list(_BAD_FIELDS))
    def test_bad_value_is_model_error(self, field, tmp_path, capsys):
        text = _BAD_FIELDS[field]
        with pytest.raises(ModelError, match=rf"^{re.escape(field)}:"):
            run_model(parse_model(text))
        path = tmp_path / "m.yaml"
        path.write_text(text)
        assert main(["run", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {field}:") and "Traceback" not in err

    def test_smesolve_override_needs_sc_ops(self, tmp_path):
        path = tmp_path / "m.yaml"
        path.write_text(MINIMAL_DECAY)
        assert main(["run", str(path), "--solver", "smesolve"]) == 1

    def test_numeric_fields_take_parameter_expressions(self):
        text = MINIMAL_DECAY.replace("parameters: {eps: 1.0, gamma: 0.25}",
                                     "parameters: {eps: 1.0, gamma: 0.25, T: 5.0, n: 21}")
        spec = parse_model(text.replace("stop: 10.0, num: 41", 'stop: "2*T", num: "2*n - 1"'))
        assert np.array_equal(spec.tlist, parse_model(MINIMAL_DECAY).tlist)
        with pytest.raises(ModelError, match=r"^tlist\.num: expected a real integer"):
            parse_model(MINIMAL_DECAY.replace("num: 41", "num: 40.5"))
        with pytest.raises(ModelError, match=r"^tlist\.stop: expected a number"):
            parse_model(MINIMAL_DECAY.replace("stop: 10.0", "stop: [1, 2]"))


class TestValidateMatchesRun:
    """``validate`` refuses what ``run`` would refuse for the model's own solver."""

    @pytest.mark.parametrize("field,text", [
        ("solver_options.rtoll", MINIMAL_DECAY + "solver_options: {rtoll: 1.0e-3}\n"),
        ("tlist", MINIMAL_DECAY.replace("start: 0.0", "start: 20.0")),
        ("tlist", MINIMAL_DECAY.replace("stop: 10.0", "stop: .inf")),
    ], ids=["foreign-option", "descending-tlist", "infinite-tlist"])
    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_exits_1_with_a_validation_error(self, command, field, text, tmp_path, capsys):
        path = tmp_path / "m.yaml"
        path.write_text(text)
        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"validation error: {field}:") and "Traceback" not in err

    def test_parse_model_keeps_keys_for_an_override(self):
        # A key meant for a --solver override parses; the solver run checks it.
        spec = parse_model(MINIMAL_DECAY + "solver_options: {ntraj: 10, seed: 3}\n")
        assert run_model(spec, solver="mcsolve").labels == ["time", "sz", "sz_std"]
        with pytest.raises(ModelError, match=r"^solver_options\.ntraj:"):
            check_model(spec, spec.solver)


def _nm_shaped_model(ntraj):
    """An nm_mcsolve model with four 301-knot ``array`` lists, shaped like the batch benchmark's."""
    ts = np.linspace(0.0, 3.0, 301)
    times = ", ".join(repr(float(t)) for t in ts)
    rates = ", ".join(repr(float(v)) for v in 0.3 * np.exp(-ts) * np.cos(4 * ts))
    # Exponents without a dot ("3e-06") read as floats only through the model loader.
    shifts = ", ".join(f"{v:.0e}" for v in 1e-5 * np.sin(3 * ts))
    return f"""
parameters: {{}}
hamiltonian:
  - op: "sigmap()*sigmam()"
    coeff: {{type: array, times: [{times}], values: [{shifts}]}}
ops_and_rates:
  - op: "sigmam"
    rate: {{type: array, times: [{times}], values: [{rates}]}}
initial_state: "(basis(2,0) + basis(2,1))/sqrt(2)"
tlist: {{start: 0.0, stop: 3.0, num: 31}}
e_ops:
  - {{label: pop, op: "sigmap()*sigmam()"}}
solver: nm_mcsolve
solver_options: {{ntraj: {ntraj}, seed: 0, map: serial}}
"""


def _model_texts():
    """Every model text of this file, malformed ones included: its string literals with a
    ``solver:`` line, and the generated ones."""
    tree = ast.parse(Path(__file__).read_text())
    parts = {id(v) for node in ast.walk(tree) if isinstance(node, ast.JoinedStr)
             for v in node.values}
    texts = [node.value for node in ast.walk(tree)
             if isinstance(node, ast.Constant) and id(node) not in parts
             and isinstance(node.value, str) and re.search(r"^solver: ", node.value, re.M)]
    texts += [_model_without(None, name) for name in _SOLVERS]
    texts += [_model_without(f, name) for name, f in _REQUIRED]
    texts += list(_BAD_FIELDS.values()) + _MALFORMED + [_nm_shaped_model(200)]
    return texts


_PURE_LOADER = _model_loader(yaml.SafeLoader)


def _load(text, loader):
    """The repr of the document, or the name of the YAML error class."""
    try:
        return repr(yaml.load(text, Loader=loader))
    except yaml.YAMLError as exc:
        return type(exc).__name__
_MALFORMED = [
    MINIMAL_DECAY.replace("num: 41}", "num: 41"),
    MINIMAL_DECAY + "  - bad: [indent\n",
    "solver: mesolve\n\ttlist: {}\n",
]
_needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__,
                                    reason="PyYAML was built without libyaml")
_LOADERS = [pytest.param(_PURE_LOADER, id="pure"),
            pytest.param(_ModelLoader, id="libyaml", marks=_needs_libyaml)]


class TestLoaderEquivalence:
    """libyaml and the pure-Python parser read every model file alike."""

    @_needs_libyaml
    def test_model_loader_uses_libyaml(self):
        assert issubclass(_ModelLoader, yaml.CSafeLoader)

    @_needs_libyaml
    def test_documents_are_equal(self):
        texts = _model_texts()
        assert len(texts) > 40
        for text in texts:
            # repr tells 1 from 1.0 and True, and keeps the key order.
            assert _load(text, _ModelLoader) == _load(text, _PURE_LOADER), text

    @_needs_libyaml
    @pytest.mark.parametrize("text", [MINIMAL_DECAY, _nm_shaped_model(20)],
                             ids=["minimal-decay", "array-model"])
    def test_csv_bytes_are_equal(self, text, tmp_path, monkeypatch):
        def csv_bytes(loader, name):
            monkeypatch.setattr(model, "_ModelLoader", loader)
            path = tmp_path / name
            write_csv(run_model(parse_model(text)), path)
            return path.read_bytes()

        assert csv_bytes(_ModelLoader, "c.csv") == csv_bytes(_PURE_LOADER, "py.csv")

    @pytest.mark.parametrize("loader", _LOADERS)
    @pytest.mark.parametrize("text", _MALFORMED, ids=["unclosed-flow", "unclosed-bracket", "tab"])
    def test_malformed_yaml_is_model_error(self, loader, text, monkeypatch):
        monkeypatch.setattr(model, "_ModelLoader", loader)
        with pytest.raises(ModelError, match="not valid YAML"):
            parse_model(text)
