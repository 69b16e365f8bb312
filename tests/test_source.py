"""Source checks: every failure the package raises is a typed ``OqsimError``, the
trajectory solvers share one ensemble reduction and one stop check,
``integrator.advance`` is the only loop that steps a ``DP54Stepper`` or
replays its recorded steps, no class derives from ``DP54Stepper``, and results
are built in one place per kind of solver."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "oqsim"
BARE = {"ValueError", "TypeError", "RuntimeError", "KeyError", "ZeroDivisionError",
        "AttributeError", "IndexError"}
# Owned by trajectory.Ensemble; no other module may reduce or stop an ensemble.
ENSEMBLE_ONLY = {"WeightedStats", "target_reached"}
# The stepper calls that advance a DP54Stepper by one step: only integrator.advance makes them.
STEP_CALLS = {"step", "replay"}
RESULT_CLASSES = {"SolveResult", "MultiTrajResult", "HEOMResult"}
# Where a result may be built: the deterministic solvers' ``Solver._result`` and HEOM's
# override of it, the trajectory solvers' ``Ensemble.result``, and the steadystate table.
RESULT_BUILDERS = {"solver.py": "_result", "heom.py": "_result", "trajectory.py": "result",
                   "model.py": "_run_steadystate"}


def bare_raises(path: pathlib.Path) -> list[str]:
    """``file:line name`` of every ``raise`` of a builtin in ``BARE``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        if isinstance(exc, ast.Name) and exc.id in BARE:
            found.append((node.lineno, exc.id))
    return [f"{path.name}:{line} {name}" for line, name in sorted(found)]


def test_sources_are_found():
    assert len(list(SRC.glob("*.py"))) > 20


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_bare_builtin_raise(path):
    assert bare_raises(path) == []


def test_the_gate_sees_a_bare_raise(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("def f(x):\n    if x:\n        raise ValueError('x')\n    raise KeyError\n")
    assert bare_raises(module) == ["m.py:3 ValueError", "m.py:4 KeyError"]


def names_used(path: pathlib.Path) -> set[str]:
    """Every name, attribute, imported name and definition in a module's code."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "trajectory.py"),
                         ids=lambda p: p.name)
def test_one_ensemble_reduction(path):
    assert names_used(path) & ENSEMBLE_ONLY == set()


def test_the_gate_sees_a_reduction(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from .trajectory import target_reached\n\n"
                      "def f(trajectory):\n    return trajectory.WeightedStats(1, 2)\n")
    assert names_used(module) & ENSEMBLE_ONLY == ENSEMBLE_ONLY


def stray_steps(path: pathlib.Path) -> list[str]:
    """``file:line`` of every ``.step()`` or ``.replay()`` call that is not inside
    ``integrator.advance``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = set()
    if path.name == "integrator.py":
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name == "advance":
                allowed = {id(n) for n in ast.walk(node)}
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in STEP_CALLS and not node.args and not node.keywords
             and id(node) not in allowed]
    return [f"{path.name}:{line}" for line in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_stepping_loop(path):
    assert stray_steps(path) == []


def test_the_gate_sees_a_stray_step(tmp_path):
    module = tmp_path / "integrator.py"
    module.write_text("def advance(stepper):\n    return stepper.replay() or stepper.step()\n\n"
                      "def resume(stepper):\n    stepper.step()\n    stepper.replay()\n"
                      "    return stepper.step(1.0)\n")
    assert stray_steps(module) == ["integrator.py:5", "integrator.py:6"]
    other = tmp_path / "mcsolve.py"
    other.write_text(module.read_text())
    assert stray_steps(other) == ["mcsolve.py:2", "mcsolve.py:2", "mcsolve.py:5", "mcsolve.py:6"]


def stepper_subclasses(path: pathlib.Path) -> list[str]:
    """``file:line name`` of every class with ``DP54Stepper`` among its bases.

    The stepper takes its form from a constructor argument.  A subclass with a
    ``step`` of its own would bypass the hooks that time and count
    ``DP54Stepper.step`` (the benchmark's tracer patches the class attribute).
    """
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ClassDef):
            names = {b.attr if isinstance(b, ast.Attribute) else getattr(b, "id", None)
                     for b in node.bases}
            if "DP54Stepper" in names:
                found.append(f"{path.name}:{node.lineno} {node.name}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")), ids=lambda p: p.name)
def test_no_stepper_subclass(path):
    assert stepper_subclasses(path) == []


def test_the_gate_sees_a_stepper_subclass(tmp_path):
    module = tmp_path / "m.py"
    module.write_text("from . import integrator\nfrom .integrator import DP54Stepper\n\n"
                      "class Power(DP54Stepper):\n    def step(self):\n        pass\n\n"
                      "class Other(integrator.DP54Stepper):\n    pass\n\n"
                      "class Plain(object):\n    pass\n")
    assert stepper_subclasses(module) == ["m.py:4 Power", "m.py:8 Other"]


def hand_built_results(path: pathlib.Path) -> list[str]:
    """``file:line name`` of every call of a result class outside the function that
    ``RESULT_BUILDERS`` names for the module."""
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == RESULT_BUILDERS.get(path.name):
            allowed |= {id(n) for n in ast.walk(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and id(node) not in allowed:
            name = node.func.attr if isinstance(node.func, ast.Attribute) else getattr(
                node.func, "id", None)
            if name in RESULT_CLASSES:
                found.append((node.lineno, name))
    return [f"{path.name}:{line} {name}" for line, name in sorted(found)]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_one_result_path(path):
    assert hand_built_results(path) == []


def test_the_gate_sees_a_hand_built_result(tmp_path):
    module = tmp_path / "heom.py"
    module.write_text("class HEOMResult(SolveResult):\n    pass\n\n"
                      "def _result(*args):\n    return HEOMResult(*args)\n\n"
                      "def heomsolve(result):\n    return SolveResult(1) or result.MultiTrajResult(2)\n")
    assert hand_built_results(module) == ["heom.py:8 MultiTrajResult", "heom.py:8 SolveResult"]
    other = tmp_path / "floquet.py"
    other.write_text(module.read_text())
    assert hand_built_results(other) == ["floquet.py:5 HEOMResult", "floquet.py:8 MultiTrajResult",
                                         "floquet.py:8 SolveResult"]
