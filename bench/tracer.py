"""Layer hooks installed from outside the package.

Nothing here edits ``oqsim``: the tracer swaps a wrapper in for each callable
where a solver enters a layer, and puts the originals back on exit.  Every
wrapper records a frame on one stack, so a layer's self time is its duration
minus the time of the traced frames nested inside it.

Two kinds of frame exist:

* span layers (solve, build, parse/run/write, run_map, trajectory,
  stop_check) keep one record each -- name, start, end, parent span and
  request id -- held in memory and written out when the run ends;
* hot layers (stepper init, step, RHS, dense output, coefficient, jump
  location, reduction) are called up to a million times per solve, so they
  are only aggregated: count, total time and self time per layer.

The solvers run on one thread (``map: serial``), which the single stack
assumes.

``oqsim.mcsolve``, ``oqsim.smesolve``, ``oqsim.nm_mcsolve`` and
``oqsim.brmesolve`` are re-exported *functions* on the package, so the
modules are reached through :func:`importlib.import_module` (the
``sys.modules`` entry); ``import oqsim.mcsolve as m`` would bind the function.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import os
import time

_now = time.perf_counter

SPAN_LAYERS = frozenset(
    {"solve", "heom.build", "model.parse", "model.run", "model.write", "run_map",
     "trajectory", "stop_check"}
)


def module(name: str):
    """The module object ``oqsim.<name>``, never a re-exported function."""
    return importlib.import_module(f"oqsim.{name}")


class Tracer:
    """Stack of open frames plus per-layer aggregates and span records."""

    def __init__(self):
        self.counts: dict[str, int] = {}
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.traj_durations: list[float] = []
        self.values: dict[str, float] = {}
        self._stack: list[list] = []  # [name, start, child_time, span_id, request]
        self._patches: list[tuple] = []
        self._request = "-"
        self._traj_index = 0
        self._in_mcwf = 0  # open mcsolve trajectories; their stepper starts count jumps

    # -- frames ----------------------------------------------------------------

    def enter(self, name: str, request: str | None = None):
        span_id = None
        if name in SPAN_LAYERS:
            span_id = len(self.spans)
            self.spans.append(None)  # reserved; filled on exit
        req = request if request is not None else (self._stack[-1][4] if self._stack else "-")
        self._stack.append([name, _now(), 0.0, span_id, req])

    def exit(self):
        end = _now()
        name, start, child, span_id, req = self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        self.counts[name] = self.counts.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + dur
        self.self_time[name] = self.self_time.get(name, 0.0) + dur - child
        if name == "trajectory":
            self.traj_durations.append(dur)
        if span_id is not None:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            self.spans[span_id] = (span_id, name, start, end, parent, req)

    def inside(self, name: str) -> bool:
        return any(f[0] == name for f in self._stack)

    def bump(self, key: str, amount=1):
        self.values[key] = self.values.get(key, 0) + amount

    def timed(self, name: str, fn, request_fn=None):
        """Wrap ``fn`` so each call is one frame of layer ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.enter(name, request_fn() if request_fn else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit()

        return wrapper

    def next_trajectory(self) -> str:
        req = f"{self._request}.t{self._traj_index}"
        self._traj_index += 1
        return req

    # -- installation ------------------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        integrator = module("integrator")
        trajectory = module("trajectory")
        mcsolve = module("mcsolve")
        smesolve = module("smesolve")
        heom = module("heom")
        cli = module("cli")
        qobjevo = module("qobjevo")
        tr = self

        stepper_cls = integrator.DP54Stepper
        init = stepper_cls.__init__

        def stepper_init(stepper, rhs, *args, **kwargs):
            if tr._in_mcwf:
                tr.bump("mcsolve.starts")
            traced_rhs = tr.traced_rhs(rhs)
            tr.enter("stepper.init")
            try:
                init(stepper, traced_rhs, *args, **kwargs)
            finally:
                tr.exit()

        self._patch(stepper_cls, "__init__", stepper_init)
        self._patch(stepper_cls, "step", self.timed("step", stepper_cls.step))
        dense_cls = integrator.DenseSegment
        self._patch(dense_cls, "__call__", self.timed("dense", dense_cls.__call__))

        # The map layer: every module that imported run_map by name.
        run_map = trajectory.run_map

        def traced_run_map(fn, *args, stop_check=None, **kwargs):
            if stop_check is not None:
                kwargs["stop_check"] = tr.timed("stop_check", stop_check)
            tr.enter("run_map")
            try:
                return run_map(tr.timed("trajectory", fn, tr.next_trajectory), *args, **kwargs)
            finally:
                tr.exit()

        for mod in (trajectory, mcsolve, smesolve):
            self._patch(mod, "run_map", traced_run_map)

        # mcsolve's improved-sampling no-jump run starts outside run_map; it
        # is a trajectory of its own.
        mcwf = mcsolve._mcwf_trajectory

        def traced_mcwf(*args, **kwargs):
            tr.bump("mcsolve.trajectories")
            own_span = not tr.inside("trajectory")
            if own_span:
                tr.enter("trajectory", tr.next_trajectory())
            tr._in_mcwf += 1
            try:
                return mcwf(*args, **kwargs)
            finally:
                tr._in_mcwf -= 1
                if own_span:
                    tr.exit()

        self._patch(mcsolve, "_mcwf_trajectory", traced_mcwf)
        bisect = self.timed("jump.locate", mcsolve._bisect_jump_time)
        self._patch(mcsolve, "_bisect_jump_time", bisect)

        stats_cls = trajectory.WeightedStats
        for meth in ("__init__", "add", "finalize"):
            self._patch(stats_cls, meth, self.timed("reduce", getattr(stats_cls, meth)))

        wiener_cls = smesolve.WienerPath
        wiener_init = wiener_cls.__init__

        def traced_wiener(path, rng, n_channels, n_steps, dt):
            tr.bump("smesolve.substeps", int(n_steps))
            wiener_init(path, rng, n_channels, n_steps, dt)

        self._patch(wiener_cls, "__init__", traced_wiener)

        build = heom._build_generator

        def traced_build(*args, **kwargs):
            tr.enter("heom.build")
            try:
                gen, ados = build(*args, **kwargs)
            finally:
                tr.exit()
            mat = gen.scipy_matrix()
            tr.values["heom.n_ados"] = len(ados)
            tr.values["heom.gen_nnz"] = int(mat.nnz)
            idx = mat.indices.dtype.itemsize
            # CSR matvec: values + column indices + row pointers, read x, write y.
            tr.values["heom.rhs_bytes"] = (
                mat.nnz * (mat.data.dtype.itemsize + idx)
                + (mat.shape[0] + 1) * mat.indptr.dtype.itemsize
                + 2 * 16 * mat.shape[0]
            )
            return gen, ados

        self._patch(heom, "_build_generator", traced_build)

        self._patch(cli, "parse_model", self.timed("model.parse", cli.parse_model))
        self._patch(cli, "run_model", self.timed("model.run", cli.run_model))
        write_csv = cli.write_csv

        def traced_write(table, path):
            tr.enter("model.write")
            try:
                write_csv(table, path)
            finally:
                tr.exit()
            tr.bump("model.csv_bytes", os.path.getsize(path))

        self._patch(cli, "write_csv", traced_write)

        evo_cls = qobjevo.QobjEvo
        compiled = evo_cls._compiled

        def traced_compiled(evo):
            const, td = compiled(evo)
            if td and not isinstance(td[0][1], _TracedCoefficient):
                td = [(m, _TracedCoefficient(c, tr)) for m, c in td]
                evo._td_mats = td
            return const, td

        self._patch(evo_cls, "_compiled", traced_compiled)
        return self

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def traced_rhs(self, rhs):
        tr = self

        def wrapped(t, y):
            tr.enter("rhs")
            try:
                return rhs(t, y)
            finally:
                if len(tr._stack) > 1 and tr._stack[-2][0] == "step":
                    tr.bump("rhs.in_step")
                tr.exit()

        return wrapped

    @contextlib.contextmanager
    def solve(self, index: int):
        """One traced solve call: the root span, request id ``s<index>``."""
        self._request = f"s{index}"
        self._traj_index = 0
        self.enter("solve", self._request)
        try:
            yield self
        finally:
            self.exit()

    # -- read-out ----------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer numbers for everything recorded so far."""
        c, tot, own, val = self.counts, self.total, self.self_time, self.values
        starts = c.get("stepper.init", 0)
        steps = c.get("step", 0)
        attempts = val.get("rhs.in_step", 0) / 6  # six stage evaluations per attempt
        rhs_calls = c.get("rhs", 0)
        ntraj = c.get("trajectory", 0)
        mc_trajs = val.get("mcsolve.trajectories", 0)
        # Each trajectory starts one stepper, and one more after every jump.
        jumps = val.get("mcsolve.starts", 0) - mc_trajs
        substeps = val.get("smesolve.substeps", 0)
        durs = sorted(self.traj_durations)
        return {
            "integrator.starts": starts,
            "integrator.steps": steps,
            "integrator.attempts": attempts,
            "integrator.accept_ratio": steps / attempts if attempts else 0.0,
            "integrator.step_self_s": own.get("step", 0.0),
            "integrator.step_overhead_us": 1e6 * own.get("step", 0.0) / steps if steps else 0.0,
            "integrator.dense_calls": c.get("dense", 0),
            "integrator.dense_s": tot.get("dense", 0.0),
            "rhs.calls": rhs_calls,
            "rhs.s": tot.get("rhs", 0.0),
            "rhs.us_per_call": 1e6 * tot.get("rhs", 0.0) / rhs_calls if rhs_calls else 0.0,
            "coefficient.calls": c.get("coefficient", 0),
            "coefficient.s": tot.get("coefficient", 0.0),
            "mcsolve.jumps": jumps,
            "mcsolve.jumps_per_traj": jumps / mc_trajs if mc_trajs else 0.0,
            "mcsolve.jump_locate_s": tot.get("jump.locate", 0.0),
            "trajectory.ntraj": ntraj,
            "trajectory.traj_ms.p50": 1e3 * _quantile(durs, 0.50),
            "trajectory.traj_ms.p99": 1e3 * _quantile(durs, 0.99),
            "trajectory.traj_ms.samples": len(durs),
            "trajectory.map_self_s": own.get("run_map", 0.0),
            "trajectory.reduce_s": tot.get("reduce", 0.0),
            "heom.build_s": tot.get("heom.build", 0.0),
            "heom.n_ados": val.get("heom.n_ados", 0),
            "heom.gen_nnz": val.get("heom.gen_nnz", 0),
            "heom.rhs_mb": val.get("heom.rhs_bytes", 0) / 1e6,
            "smesolve.substeps": substeps,
            "smesolve.substep_us": 1e6 * tot.get("trajectory", 0.0) / substeps if substeps else 0.0,
            "model.parse_s": tot.get("model.parse", 0.0),
            "model.run_s": tot.get("model.run", 0.0),
            "model.write_s": tot.get("model.write", 0.0),
            "model.csv_bytes": val.get("model.csv_bytes", 0),
        }

    def span_records(self):
        """Spans as dicts, in start order, ready to be written out."""
        return [
            {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "request": s[5]}
            for s in self.spans
            if s is not None
        ]


class _TracedCoefficient:
    """Times one coefficient as ``QobjEvo.matvec`` calls it."""

    __slots__ = ("base", "tracer")

    def __init__(self, base, tracer: Tracer):
        self.base = base
        self.tracer = tracer

    def __call__(self, t, args=None):
        tr = self.tracer
        tr.enter("coefficient")
        try:
            return self.base(t, args)
        finally:
            tr.exit()


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile; 0 for no samples."""
    if not sorted_values:
        return 0.0
    k = max(0, math.ceil(q * len(sorted_values)) - 1)
    return sorted_values[k]


class HandOff:
    """One-shot mark of the moment a solve call starts integrating.

    That moment is the first ``DP54Stepper`` construction, or for
    ``smesolve`` (which has its own Euler-Maruyama loop) the hand-off of its
    trajectories to ``run_map``.  Everything before it is set-up.  The
    patches are removed at the first hit, so the rest of the solve runs on
    the original callables.  With ``abort=True`` the hit raises
    :class:`SetupDone`, which turns a solve call into a set-up probe.
    """

    def __init__(self, abort: bool = False):
        self.abort = abort
        self.time: float | None = None
        self._patches: list[tuple] = []

    def __enter__(self):
        integrator = module("integrator")
        smesolve = module("smesolve")
        stepper_cls = integrator.DP54Stepper
        init = stepper_cls.__init__
        run_map = smesolve.run_map
        mark = self

        def hit():
            mark.time = _now()
            mark._restore()
            if mark.abort:
                raise SetupDone

        def first_init(stepper, *args, **kwargs):
            hit()
            init(stepper, *args, **kwargs)

        def first_map(*args, **kwargs):
            hit()
            return run_map(*args, **kwargs)

        self._patches = [(stepper_cls, "__init__", init), (smesolve, "run_map", run_map)]
        stepper_cls.__init__ = first_init
        smesolve.run_map = first_map
        return self

    def _restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        self._restore()
        return False


class SetupDone(Exception):
    """Raised by an aborting :class:`HandOff` once set-up has finished."""
