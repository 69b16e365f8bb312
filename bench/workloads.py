"""The four benchmark workloads and their correctness gates.

Each workload builds its inputs from the workload seed once, then answers
``call()`` -- one solve call, the unit the closed loop repeats -- and
``check(result)`` -- the gate that feeds ``failed``.  Every solve of a run
uses the same inputs, so repeated solves must also agree bit for bit.

``smoke=True`` shrinks every workload to a few seconds for the self-tests;
statistical gates are not meaningful at that size and the tests do not
apply them.
"""

from __future__ import annotations

import io
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np

import oqsim as q
from oqsim.cli import main as cli_main

from tracer import HandOff, SetupDone, module

HERE = os.path.dirname(os.path.abspath(__file__))
HEOM_REF = os.path.join(HERE, "heom_ud_ref.json")
HEOM_REF_TOL = 1e-5  # ten times the integrator's default rtol, on <sigma_z>
CAVITY_TOL = 1e-6  # on <a>; the default-tolerance solve is off by about 3e-8


@dataclass
class Solved:
    """One solve call: what ``check`` gates and what the metrics are made of."""

    result: object
    ntraj: int  # trajectories finished; 1 for a deterministic propagation
    var: float | None  # time-averaged per-trajectory variance of the observable
    fingerprint: object  # must repeat across the solves of a run
    setup: float = 0.0  # seconds from the call to the start of integration
    run_s: float = 0.0  # seconds from the start of integration to the return
    extra: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return self.setup + self.run_s


def timed(fn):
    """``(fn(), setup seconds, run seconds)``, split where integration starts."""
    t0 = time.perf_counter()
    with HandOff() as mark:
        value = fn()
    t1 = time.perf_counter()
    start = mark.time if mark.time is not None else t1
    return value, start - t0, t1 - start


class Workload:
    """One solve function, summarised and timed the same way for every workload."""

    setup_probes = 0

    def solve(self):
        raise NotImplementedError

    def summarize(self, res) -> Solved:
        raise NotImplementedError

    def call(self) -> Solved:
        res, setup, run_s = timed(self.solve)
        s = self.summarize(res)
        s.setup, s.run_s = setup, run_s
        return s

    def probe(self) -> float:
        """Set-up time of one solve call, stopped where integration would start."""
        t0 = time.perf_counter()
        with HandOff(abort=True) as mark:
            try:
                self.solve()
            except SetupDone:
                pass
        if mark.time is None:
            raise RuntimeError(f"{self.name}: the set-up probe never reached integration")
        return mark.time - t0


# Two-sided tail of a normal distribution beyond 5 sigma.
P_5SIGMA = 5.733e-7


def band_problems(label, value, std, ntraj, ref, span, skip_first=False):
    """The acceptance band: |value - ref| <= 5 std/sqrt(ntraj) + 1e-12 at every point.

    Where every trajectory still carries the same value (no trajectory has
    jumped yet, so std is zero up to the rounding of ``sqrt(E[x^2] - E[x]^2)``,
    taken as below ``1e-6 * span``) the band has zero width and says nothing
    about the sampling error.  There the test asks the same 5-sigma question
    of the zero-event sample instead: seeing no event among ``ntraj`` rules
    out an event probability above ``ln(1/P_5SIGMA)/ntraj`` at that level,
    and each event moves the observable by at most ``span``.
    """
    value, std, ref = (np.asarray(a, dtype=float) for a in (value, std, ref))
    dev = np.abs(value - ref)
    bound = np.where(std > 1e-6 * span, 5 * std / np.sqrt(ntraj) + 1e-12,
                     span * np.log(1 / P_5SIGMA) / ntraj)
    sl = slice(1, None) if skip_first else slice(None)
    if np.all(dev[sl] <= bound[sl]):
        return []
    worst = np.max(dev[sl] / bound[sl])
    return [f"{label}: outside the 5 sigma band (max deviation/bound {worst:.2f})"]


# -- mc_qubits ---------------------------------------------------------------


class McQubits(Workload):
    """Criterion 4: two decaying coupled qubits, improved sampling."""

    name = "mc_qubits"
    setup_probes = 15

    def __init__(self, seed: int, smoke: bool = False):
        eps, g, gamma = 1.0, 0.1, 0.1
        I2 = q.qeye(2)
        self.sz1 = q.sigmaz() & I2
        self.H = 0.5 * eps * (q.sigmaz() & I2) + 0.5 * eps * (I2 & q.sigmaz()) + g * (
            q.sigmax() & q.sigmax()
        )
        self.c_ops = [np.sqrt(gamma) * (q.sigmam() & I2), np.sqrt(gamma) * (I2 & q.sigmam())]
        self.psi0 = q.basis(2, 0) & q.basis(2, 0)
        self.ts = np.linspace(0, 40, 81)
        self.ntraj = 20 if smoke else 1000
        self.options = {"ntraj": self.ntraj, "seed": seed, "improved_sampling": True,
                        "map": "serial"}
        self.ref = q.mesolve(self.H, self.psi0, self.ts, c_ops=self.c_ops, e_ops=[self.sz1])

    def solve(self):
        return q.mcsolve(self.H, self.psi0, self.ts, c_ops=self.c_ops, e_ops=[self.sz1],
                         options=dict(self.options))

    def summarize(self, res) -> Solved:
        return Solved(res, res.ntraj_used, float(np.mean(res.std_expect[0] ** 2)),
                      fingerprint=res.expect[0].tobytes())

    def check(self, s: Solved) -> list[str]:
        res = s.result
        out = band_problems("sz1", res.expect[0], res.std_expect[0], res.ntraj_used,
                            self.ref.expect[0], span=2.0)
        if res.ntraj_used != self.ntraj:
            out.append(f"ran {res.ntraj_used} of {self.ntraj} trajectories")
        return out


# -- heom_ud -----------------------------------------------------------------


class HeomUd(Workload):
    """Criterion 8(ii): qubit in an underdamped bath, hierarchy depth 6."""

    name = "heom_ud"

    def __init__(self, seed: int, smoke: bool = False):
        # The solve is deterministic: the seed is recorded but changes nothing.
        Delta = 1.0
        lam, Gam, T, w0 = 0.5 * Delta, 0.1 * Delta, 0.5 * Delta, 1.5 * Delta
        env = q.UnderdampedEnvironment(T=T, lam=lam, Gamma=Gam, w0=w0)
        self.H = 0.5 * w0 * q.sigmaz() + 0.5 * Delta * q.sigmax()
        self.exps = q.matsubara_decompose(env, 5)
        self.ts = np.linspace(0, 20 / Delta, 81)
        self.n_c = 2 if smoke else 6

    def solve(self):
        return q.heomsolve(self.H, (self.exps, q.sigmaz()), q.basis(2, 0), self.ts,
                           n_c=self.n_c, e_ops=[q.sigmaz()], options={"store_states": True})

    def summarize(self, res) -> Solved:
        return Solved(res, 1, None, fingerprint=res.expect[0].tobytes())

    def check(self, s: Solved) -> list[str]:
        res = s.result
        out = []
        trace_err = max(abs(st.tr() - 1) for st in res.states)
        if not trace_err <= 1e-6:
            out.append(f"level-0 trace error {trace_err:.2e} > 1e-6")
        dev = float(np.max(np.abs(res.expect[0] - _read_heom_ref())))
        if not dev <= HEOM_REF_TOL:
            out.append(f"<sigma_z> differs from the stored reference by {dev:.2e}")
        return out


def _read_heom_ref():
    with open(HEOM_REF) as fh:
        return np.array(json.load(fh)["sigmaz"])


# -- sme_homodyne ------------------------------------------------------------


class SmeHomodyne(Workload):
    """Criterion 9: homodyne-monitored cavity, N=16, coherent alpha=2."""

    name = "sme_homodyne"
    setup_probes = 5

    def __init__(self, seed: int, smoke: bool = False):
        kappa = 1.0
        N = 16
        a = q.destroy(N)
        self.H = 10 * np.pi * kappa * (a.dag() @ a)
        self.x = a + a.dag()
        self.sc_ops = [np.sqrt(kappa) * a]
        self.psi0 = q.coherent(N, 2.0)
        self.ts = np.linspace(0, 0.1 if smoke else 1.0, 11 if smoke else 101)
        self.ntraj = 2 if smoke else 50
        self.options = {"ntraj": self.ntraj, "seed": seed, "map": "serial"}
        self.ref = q.mesolve(self.H, self.psi0, self.ts, c_ops=self.sc_ops, e_ops=[self.x],
                             options={"atol": 1e-10, "rtol": 1e-9})

    def solve(self):
        return q.smesolve(self.H, self.psi0, self.ts, sc_ops=self.sc_ops, e_ops=[self.x],
                          options=dict(self.options))

    def summarize(self, res) -> Solved:
        # The observable for t_to_err_s is the homodyne current: <x> itself has
        # almost no spread, because a coherent state stays coherent under
        # homodyne detection of a damped cavity.
        current = np.array([rec[0] for rec in res.measurements])
        return Solved(res, res.ntraj_used, float(np.mean(np.var(current, axis=0))),
                      fingerprint=res.expect[0].tobytes())

    def check(self, s: Solved) -> list[str]:
        res = s.result
        # Criterion 9 leaves out t=0, where every trajectory starts from one state.
        out = band_problems("x", res.expect[0], res.std_expect[0], res.ntraj_used,
                            self.ref.expect[0], span=0.0, skip_first=True)
        if res.ntraj_used != self.ntraj:
            out.append(f"ran {res.ntraj_used} of {self.ntraj} trajectories")
        return out


# -- cli_batch ---------------------------------------------------------------


def jc_rates(lam=1.0):
    """Damped Jaynes-Cummings rates: ``t -> (gamma(t), 2 * energy shift(t))``."""
    Gam = 0.3 * lam
    Delta = 8 * Gam
    delta = np.sqrt(complex(Gam - 1j * Delta) ** 2 - 2 * lam * Gam)

    def gamma_A(t):
        num = 2 * lam * Gam * np.sinh(delta * t / 2)
        den = delta * np.cosh(delta * t / 2) + (Gam - 1j * Delta) * np.sinh(delta * t / 2)
        val = num / den
        return val.real, val.imag

    return gamma_A


def nm_model_text(ntraj: int) -> str:
    """Criterion 11's nm_mcsolve model: 301-knot spline rates on [0, 3]."""
    gamma_A = jc_rates()
    ts = np.linspace(0, 3, 301)
    gvals = ", ".join(repr(float(gamma_A(t)[0])) for t in ts)
    avals = ", ".join(repr(float(0.5 * gamma_A(t)[1])) for t in ts)
    times = ", ".join(repr(float(t)) for t in ts)
    return f"""
parameters: {{}}
hamiltonian:
  - op: "sigmap()*sigmam()"
    coeff: {{type: array, times: [{times}], values: [{avals}]}}
ops_and_rates:
  - op: "sigmam"
    rate: {{type: array, times: [{times}], values: [{gvals}]}}
initial_state: "(basis(2,0) + basis(2,1))/sqrt(2)"
tlist: {{start: 0.0, stop: 3.0, num: 31}}
e_ops:
  - {{label: pop, op: "sigmap()*sigmam()"}}
solver: nm_mcsolve
solver_options: {{ntraj: {ntraj}, seed: 0, map: serial}}
"""


CAVITY = {"N": 30, "delta": 1.0, "kappa": 0.2, "F": 0.3, "w": 1.0}


def cavity_model_text(stop: float, num: int) -> str:
    """Resonantly driven damped cavity: H = delta a^dag a + F sin(w t) (a + a^dag)."""
    c = CAVITY
    return f"""
parameters: {{N: {c["N"]}, delta: {c["delta"]}, kappa: {c["kappa"]}, F: {c["F"]}}}
hamiltonian:
  - op: "delta*(create(N)*destroy(N))"
  - op: "F*(destroy(N) + create(N))"
    coeff: {{type: sin, frequency: {c["w"]}}}
c_ops:
  - op: "sqrt(kappa)*destroy(N)"
initial_state: "basis(N, 0)"
tlist: {{start: 0.0, stop: {stop}, num: {num}}}
e_ops:
  - {{label: a, op: "destroy(N)"}}
solver: mesolve
"""


def cavity_amplitude(t):
    """Exact <a>(t): a linearly driven damped cavity keeps a coherent state.

    alpha' = -(i delta + kappa/2) alpha - i F sin(w t), alpha(0) = 0.
    """
    c = CAVITY
    z = 1j * c["delta"] + c["kappa"] / 2
    w = c["w"]
    t = np.asarray(t, dtype=float)
    decay = np.exp(-z * t)
    integral = ((np.exp(1j * w * t) - decay) / (z + 1j * w)
                - (np.exp(-1j * w * t) - decay) / (z - 1j * w)) / 2j
    return -1j * c["F"] * integral


class CliBatch(Workload):
    """Two YAML models through ``oqsim run`` in one process: nm_mcsolve, then mesolve."""

    name = "cli_batch"

    def __init__(self, seed: int, workdir: str, smoke: bool = False):
        self.seed = seed
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.nm_ntraj = 40 if smoke else 200
        self.cav_stop, self.cav_num = (6.0, 121) if smoke else (60.0, 1201)
        models = {
            "nm": nm_model_text(self.nm_ntraj),
            "cavity": cavity_model_text(self.cav_stop, self.cav_num),
        }
        self.paths = {}
        for key, text in models.items():
            path = os.path.join(workdir, f"{key}.yaml")
            with open(path, "w") as fh:
                fh.write(text)
            self.paths[key] = path
        self._nm_reference()

    def _nm_reference(self):
        """mesolve with the exact rates (criterion 5's construction) on the nm grid."""
        gamma_A = jc_rates()
        n_op = q.sigmap() @ q.sigmam()
        L = q.QobjEvo([
            (q.spre(n_op) - q.spost(n_op), lambda t: -0.5j * gamma_A(t)[1]),
            (q.lindblad_dissipator(q.sigmam()), lambda t: gamma_A(t)[0]),
        ])
        psi0 = (q.basis(2, 0) + q.basis(2, 1)).unit()
        self.nm_ts = np.linspace(0, 3, 31)
        self.nm_ref = q.mesolve(L, psi0.proj(), self.nm_ts, e_ops=[n_op]).expect[0]
        self.nm_rates = np.array([gamma_A(t)[0] for t in self.nm_ts])

    def call(self) -> Solved:
        """One batch: the nm model, then the cavity model."""
        (nm_csv, nm_res), nm_setup, nm_run = timed(lambda: self.run_model("nm"))
        (cav_csv, _), cav_setup, cav_run = timed(lambda: self.run_model("cavity"))
        pop_std = _csv_columns(nm_csv)["pop_std"]
        # Trajectory figures come from the nm model, the batch's only ensemble.
        s = Solved(nm_res, self.nm_ntraj, float(np.mean(pop_std**2)), (nm_csv, cav_csv),
                   setup=nm_setup + cav_setup, run_s=nm_run + cav_run,
                   extra={"nm_csv": nm_csv, "cavity_csv": cav_csv, "traj_run_s": nm_run})
        return s

    def run_model(self, key: str):
        """``oqsim run <model> --output <csv> --seed <seed>``; returns (csv bytes, result)."""
        out = os.path.join(self.workdir, f"{key}.csv")
        captured = []
        model_mod = module("model")
        table_from_result = model_mod._table_from_result

        def capture(res, *args, **kwargs):
            captured.append(res)
            return table_from_result(res, *args, **kwargs)

        model_mod._table_from_result = capture
        try:
            code = cli_main(["run", self.paths[key], "--output", out, "--seed", str(self.seed)])
        finally:
            model_mod._table_from_result = table_from_result
        if code != 0:
            raise RuntimeError(f"oqsim run {key} exited with code {code}")
        with open(out, "rb") as fh:
            return fh.read(), captured[0]

    def check(self, s: Solved) -> list[str]:
        out = []
        nm_cols = _csv_columns(s.extra["nm_csv"])
        res = s.result
        # Before any rate turns negative the martingale weight is exactly 1, so
        # one jump (to the ground state) moves the population by at most 1.
        out += band_problems("pop", nm_cols["pop"], nm_cols["pop_std"], self.nm_ntraj,
                             self.nm_ref, span=1.0)
        mu_band = 5 * res.trace_std / np.sqrt(res.ntraj_used) + 1e-12
        bad = [j for j in range(self.nm_ts.size)
               if self.nm_rates[j] >= 0 and abs(nm_cols["martingale"][j] - 1) > mu_band[j]]
        if bad:
            out.append(f"martingale trace off 1 by more than 5 sigma at {len(bad)} times")
        cav = _csv_columns(s.extra["cavity_csv"])
        alpha = cavity_amplitude(cav["time"])
        err = float(np.max(np.abs(cav["a_re"] + 1j * cav["a_im"] - alpha)))
        if not err <= CAVITY_TOL:
            out.append(f"cavity <a> differs from the coherent-state amplitude by {err:.2e}")
        if len(cav["time"]) != self.cav_num:
            out.append(f"cavity CSV has {len(cav['time'])} rows, expected {self.cav_num}")
        return out


def _csv_columns(raw: bytes) -> dict[str, np.ndarray]:
    text = raw.decode()
    header = text.split("\n", 1)[0].split(",")
    data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    return {name: data[:, i] for i, name in enumerate(header)}


def make(name: str, seed: int, workdir: str, smoke: bool = False):
    if name == "cli_batch":
        return CliBatch(seed, workdir, smoke=smoke)
    cls = {"mc_qubits": McQubits, "heom_ud": HeomUd, "sme_homodyne": SmeHomodyne}[name]
    return cls(seed, smoke=smoke)

