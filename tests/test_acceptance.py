"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Statistical criteria use the error convention sigma_err = std / sqrt(n_traj).
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.
"""

import itertools
import time

import numpy as np
import pytest

import oqsim as q
from oqsim.cli import main as cli_main

RNG = np.random.default_rng(987654321)


def _report(idx, desc, elapsed, bound, ok=True):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {idx:2d}: {desc} ({elapsed:.1f} s < {bound:.0f} s)")
    assert ok, f"criterion {idx} failed: {desc}"
    assert elapsed < bound, f"criterion {idx} exceeded its {bound:.0f} s budget"


def flat_spectrum(gamma):
    return lambda w: gamma if w > 0 else (gamma / 2 if w == 0 else 0.0)


def two_qubit_model(eps=1.0, g=0.1, gamma=0.1):
    I2 = q.qeye(2)
    sz1 = q.sigmaz() & I2
    sx1, sx2 = q.sigmax() & I2, I2 & q.sigmax()
    sm1, sm2 = q.sigmam() & I2, I2 & q.sigmam()
    H = 0.5 * eps * (q.sigmaz() & I2) + 0.5 * eps * (I2 & q.sigmaz()) + g * (
        q.sigmax() & q.sigmax()
    )
    local = [np.sqrt(gamma) * sm1, np.sqrt(gamma) * sm2]
    return H, sz1, (sx1, sx2), local


def global_collapse_ops(H, coupling_ops, spectrum):
    w, kets = H.eigenstates()
    out = []
    for A in coupling_ops:
        for i in range(len(w)):
            for j in range(len(w)):
                el = (kets[i].dag() @ A @ kets[j]).full()[0, 0]
                rate = abs(el) ** 2 * spectrum(w[j] - w[i])
                if rate > 1e-14:
                    out.append(np.sqrt(rate) * (kets[i] @ kets[j].dag()))
    return out


def test_criterion_01_datalayer_oracle_equivalence():
    t0 = time.perf_counter()
    formats = ("dense", "csr", "dia")
    ops = ("add", "matmul", "kron")
    worst = 0.0
    for trial in range(200):
        op = ops[trial % 3]
        fa, fb = RNG.choice(formats), RNG.choice(formats)
        n, m = int(RNG.integers(1, 17)), int(RNG.integers(1, 17))
        if op == "add":
            k, l = n, m
        elif op == "matmul":
            k, l = m, int(RNG.integers(1, 17))
        else:
            k, l = int(RNG.integers(1, 17)), int(RNG.integers(1, 17))
        A = RNG.normal(size=(n, m)) + 1j * RNG.normal(size=(n, m))
        B = RNG.normal(size=(k, l)) + 1j * RNG.normal(size=(k, l))
        A[RNG.uniform(size=A.shape) > 0.7] = 0
        B[RNG.uniform(size=B.shape) > 0.7] = 0
        da, db = q.data.from_array(A, fa), q.data.from_array(B, fb)
        if op == "add":
            got, want = q.data.add(da, db, 0.3 - 0.7j).to_array(), A + (0.3 - 0.7j) * B
        elif op == "matmul":
            got, want = q.data.matmul(da, db).to_array(), A @ B
        else:
            got, want = q.data.kron(da, db).to_array(), np.kron(A, B)
        worst = max(worst, float(np.max(np.abs(got - want))) if got.size else 0.0)
    elapsed = time.perf_counter() - t0
    _report(1, f"data-layer dense-oracle equivalence (max err {worst:.1e})",
            elapsed, 5.0, ok=worst < 1e-13)


def test_criterion_02_fig1_two_qubit_regimes():
    t0 = time.perf_counter()
    eps, gamma = 1.0, 0.1
    psi0 = q.basis(2, 0) & q.basis(2, 0)
    ts = np.linspace(0, 40 / eps, 161)

    # (a) weak coupling: all three descriptions agree within 0.05
    H, sz1, (sx1, sx2), local = two_qubit_model(eps, 0.1 * eps, gamma)
    coup = [(sx1, flat_spectrum(gamma)), (sx2, flat_spectrum(gamma))]
    glob = global_collapse_ops(H, (sx1, sx2), flat_spectrum(gamma))
    r_loc = q.mesolve(H, psi0, ts, c_ops=local, e_ops=[sz1])
    r_glo = q.mesolve(H, psi0, ts, c_ops=glob, e_ops=[sz1])
    r_br = q.brmesolve(H, coup, psi0, ts, e_ops=[sz1], sec_cutoff=0.1)
    pair_devs = [
        np.max(np.abs(r_loc.expect[0] - r_glo.expect[0])),
        np.max(np.abs(r_loc.expect[0] - r_br.expect[0])),
        np.max(np.abs(r_glo.expect[0] - r_br.expect[0])),
    ]
    ok_a = max(pair_devs) < 0.05

    # (b) strong coupling: br == global, steady state = coupled ground state,
    # local Lindblad disagrees
    H, sz1, (sx1, sx2), local = two_qubit_model(eps, 2.0 * eps, gamma)
    coup = [(sx1, flat_spectrum(gamma)), (sx2, flat_spectrum(gamma))]
    glob = global_collapse_ops(H, (sx1, sx2), flat_spectrum(gamma))
    opts = {"atol": 1e-10, "rtol": 1e-9}
    r_glo = q.mesolve(H, psi0, ts, c_ops=glob, e_ops=[sz1], options=opts)
    r_br = q.brmesolve(H, coup, psi0, ts, e_ops=[sz1], sec_cutoff=0.1, options=opts)
    dev_bg = np.max(np.abs(r_glo.expect[0] - r_br.expect[0]))

    _, ground = H.groundstate()
    rho_glo = q.steadystate(H, glob)
    R_super, ekets = q.br_tensor(H, coup, sec_cutoff=0.1)
    rho_br_eig = q.steadystate(R_super)
    # in the eigenbasis the ground state is the first basis vector
    br_overlap = rho_br_eig.full()[0, 0].real
    glo_overlap = q.expect(ground.proj(), rho_glo)
    rho_loc = q.steadystate(H, local)
    loc_overlap = q.expect(ground.proj(), rho_loc)

    ok_b = (
        dev_bg < 1e-3
        and glo_overlap >= 0.999
        and br_overlap >= 0.999
        and abs(loc_overlap - glo_overlap) > 0.05
    )
    elapsed = time.perf_counter() - t0
    _report(
        2,
        f"Fig.1 regimes (weak max pair dev {max(pair_devs):.3f}; strong br-global "
        f"{dev_bg:.1e}; overlaps gl {glo_overlap:.4f}/br {br_overlap:.4f}/loc {loc_overlap:.3f})",
        elapsed,
        30.0,
        ok=ok_a and ok_b,
    )


def test_criterion_03_driven_qubit_rwa():
    t0 = time.perf_counter()
    Delta = 2 * np.pi
    A, wd = 0.01 * Delta, Delta
    gamma = 0.005 * Delta / (2 * np.pi)
    n_op = q.sigmap() @ q.sigmam()
    H = q.QobjEvo([0.5 * Delta * q.sigmaz(), (0.5 * A * q.sigmax(), lambda t: np.sin(wd * t))])
    H_rwa = 0.5 * (Delta - wd) * q.sigmaz() + 0.25 * A * q.sigmax()
    c_ops = [np.sqrt(gamma) * q.sigmam()]
    psi0 = q.basis(2, 1)
    ts = np.linspace(0, 400, 401)
    r_full = q.mesolve(H, psi0, ts, c_ops=c_ops, e_ops=[n_op])
    r_rwa = q.mesolve(H_rwa, psi0, ts, c_ops=c_ops, e_ops=[n_op])
    dev = np.max(np.abs(r_full.expect[0] - r_rwa.expect[0]))
    elapsed = time.perf_counter() - t0
    _report(3, f"driven qubit matches static RWA (max dev {dev:.1e})", elapsed, 30.0,
            ok=dev < 0.02)


def test_criterion_04_mcsolve_convergence():
    t0 = time.perf_counter()
    eps, g, gamma = 1.0, 0.1, 0.1
    H, sz1, _, local = two_qubit_model(eps, g, gamma)
    psi0 = q.basis(2, 0) & q.basis(2, 0)
    ts = np.linspace(0, 40, 81)
    res = q.mcsolve(H, psi0, ts, c_ops=local, e_ops=[sz1],
                    options={"ntraj": 1000, "seed": 2024, "improved_sampling": True})
    ref = q.mesolve(H, psi0, ts, c_ops=local, e_ops=[sz1])
    sig_err = res.std_expect[0] / np.sqrt(res.ntraj_used)
    dev = np.abs(res.expect[0] - ref.expect[0])
    ok_band = bool(np.all(dev <= 5 * sig_err + 1e-12))

    # single decaying qubit: no-jump survival norm^2 = exp(-gamma t)
    g1 = 0.35
    ok_surv = True
    worst_surv = 0.0
    for t_end in (2.0, 5.0, 10.0):
        r1 = q.mcsolve(0.5 * q.sigmaz(), q.basis(2, 0), [0.0, t_end],
                       c_ops=[np.sqrt(g1) * q.sigmam()], e_ops=[q.sigmaz()],
                       options={"ntraj": 2, "seed": 0, "improved_sampling": True,
                                "atol": 1e-13, "rtol": 1e-12})
        err = abs(r1.weights[0] - np.exp(-g1 * t_end))
        worst_surv = max(worst_surv, err)
        ok_surv = ok_surv and err < 1e-8
    elapsed = time.perf_counter() - t0
    _report(
        4,
        f"mcsolve 1000-traj improved sampling within 5 sigma (max dev/5sig "
        f"{np.max(dev[1:] / (5 * sig_err[1:] + 1e-15)):.2f}); survival err {worst_surv:.1e}",
        elapsed,
        60.0,
        ok=ok_band and ok_surv,
    )


def _jc_rates(lam=1.0):
    Gam = 0.3 * lam
    Delta = 8 * Gam
    delta = np.sqrt(complex(Gam - 1j * Delta) ** 2 - 2 * lam * Gam)

    def gamma_A(t):
        num = 2 * lam * Gam * np.sinh(delta * t / 2)
        den = delta * np.cosh(delta * t / 2) + (Gam - 1j * Delta) * np.sinh(delta * t / 2)
        val = num / den
        return val.real, val.imag

    return gamma_A


def test_criterion_05_nm_mcsolve_damped_jc():
    t0 = time.perf_counter()
    gamma_A = _jc_rates()
    n_op = q.sigmap() @ q.sigmam()
    H = q.QobjEvo([(n_op, lambda t: 0.5 * gamma_A(t)[1])])
    L = q.QobjEvo([
        (q.spre(n_op) - q.spost(n_op), lambda t: -0.5j * gamma_A(t)[1]),
        (q.lindblad_dissipator(q.sigmam()), lambda t: gamma_A(t)[0]),
    ])
    psi0 = (q.basis(2, 0) + q.basis(2, 1)).unit()
    ts = np.linspace(0, 5, 51)
    gams = np.array([gamma_A(t)[0] for t in ts])
    assert gams.min() < 0  # non-Markovian regime reached

    ref = q.mesolve(L, psi0.proj(), ts, e_ops=[n_op])
    res = q.nm_mcsolve(H, psi0, ts, [(q.sigmam(), lambda t: gamma_A(t)[0])],
                       e_ops=[n_op], options={"ntraj": 1000, "seed": 31})
    sig_err = res.std_expect[0] / np.sqrt(res.ntraj_used)
    dev = np.abs(res.expect[0] - ref.expect[0])
    # Where no trajectory has jumped yet the sample std is zero and the 5 sigma
    # band has no width.  There, seeing no event among ntraj bounds the event
    # probability by ln(1/P(>5 sigma))/ntraj, and an event moves the
    # population by at most 1.
    band = np.where(res.std_expect[0] < 1e-6, np.log(1 / 5.733e-7) / res.ntraj_used,
                    5 * sig_err + 1e-12)
    ok_pop = bool(np.all(dev <= band))

    mu_err = 5 * res.trace_std / np.sqrt(res.ntraj_used)
    ok_mu = all(
        abs(res.trace[j] - 1) <= mu_err[j] + 1e-12
        for j in range(len(ts))
        if gams[j] >= 0
    )
    elapsed = time.perf_counter() - t0
    _report(
        5,
        f"nm_mcsolve damped JC (max dev/band "
        f"{np.max(dev[1:] / band[1:]):.2f}; martingale ok {ok_mu})",
        elapsed,
        120.0,
        ok=ok_pop and ok_mu,
    )


def test_criterion_06_steadystate_cross_method():
    t0 = time.perf_counter()
    N, nbar, kappa = 15, 2.0, 1.0
    a = q.destroy(N)
    H = a.dag() @ a
    c_ops = [np.sqrt(kappa * (nbar + 1)) * a, np.sqrt(kappa * nbar) * a.dag()]
    rhos = {m: q.steadystate(H, c_ops, method=m) for m in ("direct", "power", "svd")}
    cross = max(
        np.max(np.abs(rhos[m].full() - rhos["direct"].full())) for m in ("power", "svd")
    )
    # analytic steady state of the truncated birth-death chain:
    # p_{n+1}/p_n = nbar/(nbar+1), renormalized over the N retained levels
    r = nbar / (nbar + 1)
    p = r ** np.arange(N)
    p /= p.sum()
    n_oracle = float(np.arange(N) @ p)
    n_err = abs(q.expect(a.dag() @ a, rhos["direct"]) - n_oracle)

    res = q.mesolve(H, q.basis(N, 0), [0.0, 50.0 / kappa], c_ops=c_ops,
                    options={"atol": 1e-10, "rtol": 1e-9})
    me_err = np.max(np.abs(res.states[-1].full() - rhos["direct"].full()))
    elapsed = time.perf_counter() - t0
    _report(
        6,
        f"steadystate cross-method (pairwise {cross:.1e}; <n> vs oracle {n_err:.1e}; "
        f"mesolve@50/g {me_err:.1e})",
        elapsed,
        10.0,
        ok=cross < 1e-8 and n_err < 1e-8 and me_err < 1e-4,
    )


def test_criterion_07_floquet_stroboscopic():
    t0 = time.perf_counter()
    two_pi = 2 * np.pi
    eps, Delta, A, wd = two_pi, 0.2 * two_pi, 2.5 * two_pi, two_pi
    T = two_pi / wd
    H = q.QobjEvo([
        -0.5 * eps * q.sigmaz() - 0.5 * Delta * q.sigmax(),
        (0.5 * A * q.sigmax(), lambda t: np.sin(wd * t)),
    ])
    fb = q.floquet_basis(H, T, n_t=128)
    fb2 = q.floquet_basis(H, T, n_t=256)
    qe_drift = np.max(np.abs(fb.quasienergies - fb2.quasienergies))

    psi0 = q.basis(2, 0)
    ts = np.arange(51) * T
    r_f = q.fsesolve(fb, psi0, ts, e_ops=[q.sigmaz()])
    r_s = q.sesolve(H, psi0, ts, e_ops=[q.sigmaz()], options={"atol": 1e-12, "rtol": 1e-11})
    dev = np.max(np.abs(r_f.expect[0] - r_s.expect[0]))
    elapsed = time.perf_counter() - t0
    _report(
        7,
        f"Floquet stroboscopic equality (max dev {dev:.1e}; quasienergy drift {qe_drift:.1e})",
        elapsed,
        20.0,
        ok=dev < 1e-5 and qe_drift < 1e-8,
    )


def _dephasing_exponent(exps, t):
    tot = 0.0 + 0j
    for c, v in zip(exps.ck_real, exps.vk_real):
        tot += c * (v * t - 1 + np.exp(-v * t)) / v**2
    for c, v in zip(exps.ck_imag, exps.vk_imag):
        tot += 1j * c * (v * t - 1 + np.exp(-v * t)) / v**2
    return 4 * tot.real


def test_criterion_08_heom_oracle_and_benchmark():
    t0 = time.perf_counter()
    # (i) pure-dephasing convention oracle with a two-real-exponent set
    w0 = 1.0
    env = q.DrudeLorentzEnvironment(T=1.0, lam=0.05, gamma=0.5)
    ex = q.matsubara_decompose(env, 1)
    assert ex.n_real == 2
    psi0 = (q.basis(2, 0) + q.basis(2, 1)).unit()
    ts = np.linspace(0, 10, 41)
    res = q.heomsolve(0.5 * w0 * q.sigmaz(), (ex, q.sigmaz()), psi0, ts, n_c=8,
                      options={"atol": 1e-10, "rtol": 1e-8, "store_states": True})
    coh = np.array([s.full()[0, 1] for s in res.states])
    exact = 0.5 * np.exp(-1j * w0 * ts) * np.exp(
        -np.array([_dephasing_exponent(ex, t) for t in ts])
    )
    deph_err = np.max(np.abs(coh - exact))

    # (ii) underdamped benchmark at the paper's parameters
    Delta = 1.0
    lam, Gam, T, w0u = 0.5 * Delta, 0.1 * Delta, 0.5 * Delta, 1.5 * Delta
    envu = q.UnderdampedEnvironment(T=T, lam=lam, Gamma=Gam, w0=w0u)
    Hs = 0.5 * w0u * q.sigmaz() + 0.5 * Delta * q.sigmax()
    exu = q.matsubara_decompose(envu, 5)
    tsu = np.linspace(0, 20 / Delta, 81)
    resu = q.heomsolve(Hs, (exu, q.sigmaz()), q.basis(2, 0), tsu, n_c=6,
                       e_ops=[q.sigmaz()], options={"store_states": True})
    trace_err = max(abs(s.tr() - 1) for s in resu.states)

    w, kets = Hs.eigenstates()
    c_ops = []
    for i in range(2):
        for j in range(2):
            rate = abs((kets[i].dag() @ q.sigmaz() @ kets[j]).full()[0, 0]) ** 2 \
                * envu.power_spectrum(w[j] - w[i])
            if rate > 1e-14:
                c_ops.append(np.sqrt(rate) * (kets[i] @ kets[j].dag()))
    refu = q.mesolve(Hs, q.basis(2, 0), tsu, c_ops=c_ops, e_ops=[q.sigmaz()])
    markov_gap = np.max(np.abs(resu.expect[0] - refu.expect[0]))
    elapsed = time.perf_counter() - t0
    _report(
        8,
        f"HEOM dephasing oracle (err {deph_err:.1e}); underdamped trace {trace_err:.1e}, "
        f"non-Markovian gap {markov_gap:.2f}",
        elapsed,
        120.0,
        ok=deph_err < 1e-4 and trace_err < 1e-6 and markov_gap > 0.05,
    )


def test_criterion_09_smesolve_statistics():
    t0 = time.perf_counter()
    kappa = 1.0
    Delta = 10 * np.pi * kappa
    N = 16
    a = q.destroy(N)
    H = Delta * (a.dag() @ a)
    x = a + a.dag()
    psi0 = q.coherent(N, 2.0)
    ts = np.linspace(0, 1.0, 101)
    res = q.smesolve(H, psi0, ts, sc_ops=[np.sqrt(kappa) * a], e_ops=[x],
                     options={"ntraj": 50, "seed": 404})
    ref = q.mesolve(H, psi0, ts, c_ops=[np.sqrt(kappa) * a], e_ops=[x],
                    options={"atol": 1e-10, "rtol": 1e-9})
    sig_err = res.std_expect[0] / np.sqrt(res.ntraj_used)
    dev = np.abs(res.expect[0] - ref.expect[0])
    ok_band = bool(np.all(dev[1:] <= 5 * sig_err[1:] + 1e-12))

    # renormalization keeps every stored state at unit trace exactly
    short = q.smesolve(H, psi0, np.linspace(0, 0.1, 6), sc_ops=[np.sqrt(kappa) * a],
                       options={"ntraj": 2, "seed": 1, "store_states": True})
    trace_err = max(abs(s.tr() - 1) for s in short.average_states)
    elapsed = time.perf_counter() - t0
    _report(
        9,
        f"smesolve 50-traj homodyne stats (max dev/5sig "
        f"{np.max(dev[1:] / (5 * sig_err[1:] + 1e-15)):.2f}; trace err {trace_err:.1e})",
        elapsed,
        60.0,
        ok=ok_band and trace_err < 1e-12,
    )


def test_criterion_10_enr_equivalence():
    t0 = time.perf_counter()
    C = 8
    wc, wa, g = 1.0, 1.0, 0.1
    a_f = q.destroy(C)
    H_full = (
        wa * (q.sigmap() @ q.sigmam() & q.qeye(C))
        + wc * (q.qeye(2) & a_f.dag() @ a_f)
        + g * ((q.sigmap() & a_f) + (q.sigmam() & a_f.dag()))
    )
    a1, a2 = q.enr_destroy([2, C], 1)
    H_enr = wa * (a1.dag() @ a1) + wc * (a2.dag() @ a2) + g * (
        (a1.dag() @ a2) + (a2.dag() @ a1)
    )
    ts = np.linspace(0, 25, 51)
    opts = {"atol": 1e-13, "rtol": 1e-12}
    r_full = q.sesolve(H_full, q.basis(2, 0) & q.basis(C, 0), ts,
                       e_ops=[q.sigmap() @ q.sigmam() & q.qeye(C)], options=opts)
    r_enr = q.sesolve(H_enr, q.enr_fock([2, C], 1, (1, 0)), ts,
                      e_ops=[a1.dag() @ a1], options=opts)
    jc_dev = np.max(np.abs(r_full.expect[0] - r_enr.expect[0]))

    ok_sizes = True
    for _ in range(5):
        m = int(RNG.integers(1, 4))
        dims = [int(RNG.integers(2, 5)) for _ in range(m)]
        n_exc = int(RNG.integers(0, 4))
        brute = [
            occ for occ in itertools.product(*(range(d) for d in dims))
            if sum(occ) <= n_exc
        ]
        ok_sizes = ok_sizes and q.enr_space(dims, n_exc).size == len(brute)
    elapsed = time.perf_counter() - t0
    _report(10, f"ENR Jaynes-Cummings equivalence (dev {jc_dev:.1e}); sizes ok {ok_sizes}",
            elapsed, 10.0, ok=jc_dev < 1e-10 and ok_sizes)


MC_MODEL = """
parameters: {eps: 1.0, g: 0.1, gamma: 0.1}
hamiltonian:
  - op: "0.5*eps*(sigmaz & identity(2)) + 0.5*eps*(identity(2) & sigmaz) + g*(sigmax & sigmax)"
c_ops:
  - op: "sqrt(gamma)*(sigmam & identity(2))"
  - op: "sqrt(gamma)*(identity(2) & sigmam)"
initial_state: "basis(2,0) & basis(2,0)"
tlist: {start: 0.0, stop: 20.0, num: 41}
e_ops:
  - {label: sz1, op: "sigmaz & identity(2)"}
solver: mcsolve
solver_options: {ntraj: 100, seed: 7, improved_sampling: true, map: MAPMODE}
"""

SME_MODEL = """
parameters: {kappa: 1.0}
hamiltonian:
  - op: "31.4159265358979312*(create(12)*destroy(12))"
sc_ops:
  - op: "sqrt(kappa)*destroy(12)"
initial_state: "coherent(12, 2.0)"
tlist: {start: 0.0, stop: 0.5, num: 26}
e_ops:
  - {label: x, op: "destroy(12) + create(12)"}
solver: smesolve
solver_options: {ntraj: 10, seed: 7, map: MAPMODE}
"""


def _nm_model(map_mode):
    gamma_A = _jc_rates()
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
solver_options: {{ntraj: 60, seed: 7, map: {map_mode}}}
"""


def test_criterion_11_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    ok = True
    for name, template in (
        ("mc", MC_MODEL),
        ("sme", SME_MODEL),
        ("nm", None),
    ):
        outs = []
        for run_idx, map_mode in enumerate(("serial", "serial", "parallel")):
            text = _nm_model(map_mode) if template is None else template.replace(
                "MAPMODE", map_mode
            )
            model = tmp_path / f"{name}_{run_idx}.yaml"
            model.write_text(text)
            out = tmp_path / f"{name}_{run_idx}.csv"
            code = cli_main(["run", str(model), "--output", str(out), "--seed", "123"])
            assert code == 0
            outs.append(out.read_bytes())
        ok = ok and outs[0] == outs[1] == outs[2]
    elapsed = time.perf_counter() - t0
    _report(11, "CLI byte-identical reruns, serial and parallel maps", elapsed, 120.0, ok=ok)
