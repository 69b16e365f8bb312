"""oqsim benchmark: run one workload as a closed loop and print its metrics.

    python3 bench/run.py --workload mc_qubits --seed 1 --seconds 20 --trace 0

Run from the repository root; ``oqsim`` is imported from ``src`` (the package
need not be installed).  One process, one thread: BLAS is pinned to a single
thread before NumPy is imported and every trajectory solver runs with
``map: serial``.

``--trace 0`` repeats solve calls on the same seeded inputs until
``--seconds`` have passed and reports the end-to-end metrics.  ``--trace 1``
alternates an untraced and a traced solve for the same time and reports the
per-layer metrics, with traced minus untraced wall time as the tracing
overhead.  Every solve is gated for correctness; the last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Environment, per-solve records and trace spans go to ``.bench_out/``.
"""

import os

# Before NumPy loads: the bundled OpenBLAS would otherwise start a thread per core.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("mc_qubits", "heom_ud", "sme_homodyne", "cli_batch")

# name -> unit; BENCHMARK.json lists the same names.
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "traj_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "integrator.starts": "count",
    "integrator.steps": "count",
    "integrator.attempts": "count",
    "integrator.accept_ratio": "ratio",
    "integrator.step_self_s": "s",
    "integrator.step_overhead_us": "us",
    "integrator.dense_calls": "count",
    "integrator.dense_s": "s",
    "rhs.calls": "count",
    "rhs.s": "s",
    "rhs.us_per_call": "us",
    "coefficient.calls": "count",
    "coefficient.s": "s",
    "mcsolve.jumps": "count",
    "mcsolve.jumps_per_traj": "1/traj",
    "mcsolve.jump_locate_s": "s",
    "trajectory.ntraj": "count",
    "trajectory.traj_ms.p50": "ms",
    "trajectory.traj_ms.p99": "ms",
    "trajectory.traj_ms.samples": "count",
    "trajectory.map_self_s": "s",
    "trajectory.reduce_s": "s",
    "trajectory.t_to_err_s": "s",
    "heom.build_s": "s",
    "heom.n_ados": "count",
    "heom.gen_nnz": "count",
    "heom.rhs_mb": "MB_computed",
    "smesolve.substeps": "count",
    "smesolve.substep_us": "us",
    "model.parse_s": "s",
    "model.run_s": "s",
    "model.write_s": "s",
    "model.csv_bytes": "bytes",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}
# Counts that repeat exactly for a fixed seed; a traced run checks that they do.
EXACT_COUNTS = (
    "integrator.starts", "integrator.steps", "integrator.attempts", "integrator.dense_calls",
    "rhs.calls", "coefficient.calls", "mcsolve.jumps", "trajectory.ntraj", "heom.n_ados",
    "heom.gen_nnz", "smesolve.substeps", "model.csv_bytes",
)
ERR_TARGET = 0.01  # standard error that t_to_err_s extrapolates to


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def git_commit(root):
    """HEAD's commit id read from ``.git`` without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    """sha256 over the package sources, which names the code even without git."""
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "oqsim")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def environment(seed):
    import numpy
    import scipy

    def blas(mod):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return {k: dep.get(k) for k in ("name", "version", "openblas configuration")}
        except (KeyError, TypeError, AttributeError):
            return None

    return {
        "commit": git_commit(ROOT),
        "src_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_numpy": blas(numpy),
        "blas_scipy": blas(scipy),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "seed": seed,
    }


class Gate:
    """Counts solve calls and the ones that raised or failed a check."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.fingerprint = None

    def call(self, solve):
        """Run ``solve()`` (one solve call) and gate it; returns the Solved or None."""
        self.attempted += 1
        try:
            s = solve()
            found = self.workload.check(s)
        except Exception as exc:  # a solve that raises is a failed operation, not a crash
            self.failed += 1
            self.problems.append(f"{type(exc).__name__}: {exc}")
            return None
        if self.fingerprint is None:
            self.fingerprint = s.fingerprint
        elif s.fingerprint != self.fingerprint:
            found.append("result differs from the run's first solve on the same inputs")
        if found:
            self.failed += 1
            self.problems.extend(found)
        return s


def traj_run_s(s):
    """Seconds of the trajectory phase (for cli_batch, of its nm model)."""
    return s.extra.get("traj_run_s", s.run_s)


def time_to_err(s):
    """(run_s / ntraj) * mean_t(std^2) / 0.01^2: run time to a 0.01 standard error."""
    if s.var is None:  # a deterministic propagation has no sampling error
        return traj_run_s(s)
    return traj_run_s(s) / s.ntraj * s.var / ERR_TARGET**2


def until(seconds, step):
    """Call ``step()`` at least once and until ``seconds`` have passed."""
    deadline = time.perf_counter() + seconds
    while True:
        step()
        if time.perf_counter() >= deadline:
            return


def end_to_end(workload, seconds):
    gate = Gate(workload)
    probes = [workload.probe() for _ in range(workload.setup_probes)]
    solves = []
    peak_rss = []

    def step():
        solves.append(gate.call(workload.call))
        if not peak_rss:
            # Through the first solve only: later solves would grow the peak with
            # heap fragmentation by however many of them fit in the run.
            peak_rss.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)

    until(seconds, step)
    solves = [s for s in solves if s is not None]
    if not solves:
        return gate, {}, {}
    metrics = {
        "wall_s": statistics.median(s.wall for s in solves),
        "setup_s": statistics.median(probes + [s.setup for s in solves]),
        "traj_per_s": statistics.median(s.ntraj / traj_run_s(s) for s in solves),
        "peak_rss_mb": peak_rss[0],
    }
    records = [{"wall_s": s.wall, "setup_s": s.setup, "run_s": s.run_s, "ntraj": s.ntraj,
                "var": s.var, "t_to_err_s": time_to_err(s)} for s in solves]
    return gate, metrics, {"setup_probes_s": probes, "solves": records}


def per_layer(workload, seconds):
    from tracer import Tracer

    gate = Gate(workload)
    plain, traced, layers, spans = [], [], [], []

    def untraced():
        s = gate.call(workload.call)
        if s is not None:
            plain.append(s)

    def traced_solve():
        tracer = Tracer().install()
        try:
            with tracer.solve(len(spans)):
                s = gate.call(workload.call)
        finally:
            tracer.uninstall()
        spans.append(tracer.span_records())
        if s is not None:
            traced.append(s.wall)
            layers.append(tracer.layer_metrics())

    def pair():
        # Alternate which side runs first, so warm-up is not charged to one side.
        if len(spans) % 2 == 0:
            untraced()
            traced_solve()
        else:
            traced_solve()
            untraced()

    until(seconds, pair)
    if not (plain and traced):
        return gate, {}, {}
    for later in layers[1:]:
        moved = [k for k in EXACT_COUNTS if later[k] != layers[0][k]]
        if moved:
            gate.failed += 1
            gate.problems.append(f"exact counts changed between traced solves: {moved}")
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    # Reported here, unbounded, because its spread across seeds is too wide for
    # an end-to-end bound; taken from the untraced solves.
    metrics["trajectory.t_to_err_s"] = statistics.median(time_to_err(s) for s in plain)
    base = statistics.median(s.wall for s in plain)
    metrics["trace.overhead_s"] = statistics.median(traced) - base
    metrics["trace.overhead_pct"] = 100 * metrics["trace.overhead_s"] / base
    return gate, metrics, {"untraced_wall_s": [s.wall for s in plain], "traced_wall_s": traced,
                           "layers": layers, "spans": spans}


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "oqsim", "__init__.py")):
        print(f"error: no oqsim sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    env = environment(args.seed)
    print("env: " + json.dumps(env), flush=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"{tag}-pid{os.getpid()}")
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        measure = per_layer if args.trace else end_to_end
        gate, metrics, detail = measure(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    if set(metrics) != set(units):
        print("error: no solve completed, so no metrics: " + "; ".join(gate.problems[:5]),
              file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{tag}.json"), "w") as fh:
        json.dump({"env": env, "workload": args.workload, "seconds": args.seconds,
                   "attempted": gate.attempted, "failed": gate.failed,
                   "problems": gate.problems, "metrics": metrics, **detail}, fh)

    for name, unit in units.items():
        print(f"{args.workload} {name} = {metrics[name]:.6g} {unit}")
    print(f"{args.workload} fail_frac = {gate.failed / gate.attempted:.6g} "
          f"({gate.failed} of {gate.attempted} solve calls)")
    for problem in gate.problems:
        print(f"{args.workload} FAILED: {problem}")
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
