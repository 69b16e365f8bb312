"""Self-tests of the benchmark: hooks fire where they should, counts add up.

    PYTHONPATH=src python -m pytest bench/tests -q

Each workload runs in its small ``smoke`` form.  A hook that silently failed
to install would read as "this layer costs nothing", so every hook is checked
to fire on its home workload and to stay at zero where the layer is bypassed.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from tracer import HandOff, Tracer, module

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One traced smoke solve per workload: name -> (workload, solved, layer metrics)."""
    out = {}
    for name in run.WORKLOADS:
        w = workloads.make(name, seed=3, workdir=str(tmp_path_factory.mktemp(name)), smoke=True)
        tracer = Tracer().install()
        try:
            with tracer.solve(0):
                solved = w.call()
        finally:
            tracer.uninstall()
        out[name] = (w, solved, tracer.layer_metrics())
    return out


def test_benchmark_json_names_what_run_reports():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert set(run.EXACT_COUNTS) <= set(run.PER_LAYER)


# layer metric -> workloads where it must be positive; zero on every other one.
HOME = {
    "integrator.starts": {"mc_qubits", "heom_ud", "cli_batch"},
    "integrator.steps": {"mc_qubits", "heom_ud", "cli_batch"},
    "integrator.step_self_s": {"mc_qubits", "heom_ud", "cli_batch"},
    "integrator.dense_calls": {"mc_qubits", "heom_ud", "cli_batch"},
    "rhs.calls": {"mc_qubits", "heom_ud", "cli_batch"},
    "coefficient.calls": {"cli_batch"},
    "coefficient.s": {"cli_batch"},
    "mcsolve.jump_locate_s": {"mc_qubits", "cli_batch"},
    "trajectory.ntraj": {"mc_qubits", "sme_homodyne", "cli_batch"},
    "trajectory.traj_ms.p50": {"mc_qubits", "sme_homodyne", "cli_batch"},
    "trajectory.map_self_s": {"mc_qubits", "sme_homodyne", "cli_batch"},
    "trajectory.reduce_s": {"mc_qubits", "sme_homodyne", "cli_batch"},
    "heom.build_s": {"heom_ud"},
    "heom.n_ados": {"heom_ud"},
    "heom.gen_nnz": {"heom_ud"},
    "heom.rhs_mb": {"heom_ud"},
    "smesolve.substeps": {"sme_homodyne"},
    "smesolve.substep_us": {"sme_homodyne"},
    "model.parse_s": {"cli_batch"},
    "model.run_s": {"cli_batch"},
    "model.write_s": {"cli_batch"},
    "model.csv_bytes": {"cli_batch"},
}


@pytest.mark.parametrize("metric", sorted(HOME))
def test_hook_fires_on_home_and_stays_zero_on_bypass(traced, metric):
    for name, (_, _, layers) in traced.items():
        if name in HOME[metric]:
            assert layers[metric] > 0, f"{metric} did not fire on {name}"
        else:
            assert layers[metric] == 0, f"{metric} fired on {name}"


def test_mc_jumps_fire(traced):
    _, solved, layers = traced["mc_qubits"]
    assert layers["mcsolve.jumps"] > 0
    assert layers["trajectory.ntraj"] == solved.result.ntraj_used


def test_nm_jumps_leave_out_the_cavity_stepper(traced):
    _, solved, layers = traced["cli_batch"]
    # One stepper start for the cavity mesolve, one per nm trajectory, one per jump.
    assert layers["mcsolve.jumps"] == layers["integrator.starts"] - 1 - solved.ntraj


def test_rhs_calls_match_solver_stats_on_heom(traced):
    _, solved, layers = traced["heom_ud"]
    assert layers["rhs.calls"] == solved.result.stats["rhs_evaluations"]


def test_rhs_calls_match_solver_stats_on_cavity_mesolve(tmp_path):
    w = workloads.CliBatch(seed=3, workdir=str(tmp_path), smoke=True)
    tracer = Tracer().install()
    try:
        with tracer.solve(0):
            _, res = w.run_model("cavity")
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics()
    assert res.stats["solver"] == "mesolve"
    assert layers["rhs.calls"] == res.stats["rhs_evaluations"]
    assert layers["coefficient.calls"] > 0


@pytest.mark.parametrize("name", ["mc_qubits", "heom_ud", "cli_batch"])
def test_attempts_are_whole_and_match_the_start_formula(traced, name):
    # attempts counts the six stage evaluations made inside step(); the
    # formula (rhs.calls - 2 starts) / 6 agrees only while first_step is
    # unset, because the initial-step heuristic then evaluates the RHS twice.
    _, _, layers = traced[name]
    attempts = layers["integrator.attempts"]
    assert attempts == int(attempts)
    assert attempts == (layers["rhs.calls"] - 2 * layers["integrator.starts"]) / 6
    assert attempts >= layers["integrator.steps"]


def test_jumps_count_the_no_jump_run_outside_run_map():
    w = workloads.McQubits(seed=5, smoke=True)
    assert w.options["improved_sampling"]
    mcsolve = module("mcsolve")
    finished = []
    tracer = Tracer().install()
    traced_mcwf = mcsolve._mcwf_trajectory

    def collect(*args, **kwargs):
        traj = traced_mcwf(*args, **kwargs)
        finished.append(traj)
        return traj

    mcsolve._mcwf_trajectory = collect
    try:
        with tracer.solve(0):
            res = w.solve()
    finally:
        mcsolve._mcwf_trajectory = traced_mcwf
        tracer.uninstall()
    layers = tracer.layer_metrics()
    assert len(finished) == res.ntraj_used == w.ntraj
    assert layers["trajectory.ntraj"] == w.ntraj  # run_map ran ntraj - 1 of them
    assert layers["mcsolve.jumps"] == sum(len(t.jumps) for t in finished)
    assert len(finished[0].jumps) == 0  # the no-jump run


def test_tracing_changes_no_result(traced):
    for name, (w, solved, _) in traced.items():
        assert w.call().fingerprint == solved.fingerprint, name


def test_uninstall_restores_every_callable():
    integrator, cli, mcsolve = module("integrator"), module("cli"), module("mcsolve")
    before = (integrator.DP54Stepper.__init__, integrator.DP54Stepper.step,
              cli.parse_model, mcsolve.run_map, mcsolve._mcwf_trajectory)
    Tracer().install().uninstall()
    after = (integrator.DP54Stepper.__init__, integrator.DP54Stepper.step,
             cli.parse_model, mcsolve.run_map, mcsolve._mcwf_trajectory)
    assert before == after


def test_setup_probe_stops_at_integration_and_restores():
    integrator = module("integrator")
    init = integrator.DP54Stepper.__init__
    w = workloads.McQubits(seed=1, smoke=True)
    assert 0 < w.probe() < 1.0
    assert integrator.DP54Stepper.__init__ is init
    with HandOff() as mark:
        pass
    assert mark.time is None and integrator.DP54Stepper.__init__ is init


def test_workload_seed_drives_the_inputs():
    a = workloads.McQubits(seed=1, smoke=True).call()
    b = workloads.McQubits(seed=1, smoke=True).call()
    c = workloads.McQubits(seed=2, smoke=True).call()
    assert a.fingerprint == b.fingerprint != c.fingerprint


def test_cavity_amplitude_solves_its_equation():
    c = workloads.CAVITY
    t = np.linspace(0, 30, 3001)
    alpha = workloads.cavity_amplitude(t)
    lhs = np.gradient(alpha, t)
    rhs = -(1j * c["delta"] + c["kappa"] / 2) * alpha - 1j * c["F"] * np.sin(c["w"] * t)
    assert alpha[0] == 0
    assert np.max(np.abs(lhs - rhs)[1:-1]) < 1e-4


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc_qubits", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
