"""Deterministic solvers: sesolve, mesolve, Bloch-Redfield, steadystate, Floquet."""

import importlib

import numpy as np
import pytest
import scipy.sparse.linalg

import oqsim as q
from oqsim.exceptions import (ConvergenceError, MethodError, NotHermitianError, RangeError,
                              StepLimitError)

RNG = np.random.default_rng(42)
TIGHT = {"atol": 1e-12, "rtol": 1e-11}


def two_qubit_parts():
    I2 = q.qeye(2)
    return (
        q.sigmaz() & I2,
        I2 & q.sigmaz(),
        q.sigmax() & I2,
        I2 & q.sigmax(),
        q.sigmam() & I2,
        I2 & q.sigmam(),
    )


def fig1_hamiltonian(eps=1.0, g=0.1):
    sz1, sz2, _, _, _, _ = two_qubit_parts()
    return 0.5 * eps * sz1 + 0.5 * eps * sz2 + g * (q.sigmax() & q.sigmax())


def flat_spectrum(gamma):
    return lambda w: gamma if w > 0 else (gamma / 2 if w == 0 else 0.0)


def global_collapse_ops(H, coupling_ops, spectrum):
    """Dressed collapse operators |i><j| with golden-rule rates."""
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


class TestSesolve:
    def test_larmor_precession(self):
        eps = 1.0
        plus = (q.basis(2, 0) + q.basis(2, 1)).unit()
        ts = np.linspace(0, 30, 121)
        res = q.sesolve(0.5 * eps * q.sigmaz(), plus, ts, e_ops=[q.sigmax()],
                        options={"atol": 1e-10, "rtol": 1e-8})
        assert np.max(np.abs(res.expect[0] - np.cos(eps * ts))) < 1e-6

    def test_zero_hamiltonian(self):
        psi0 = (q.basis(2, 0) + 1j * q.basis(2, 1)).unit()
        res = q.sesolve(q.qzero(2), psi0, np.linspace(0, 5, 11))
        for s in res.states:
            assert np.max(np.abs(s.full() - psi0.full())) < 1e-12

    def test_two_qubit_matches_expm_oracle(self):
        H = fig1_hamiltonian()
        psi0 = q.basis(2, 0) & q.basis(2, 1)
        t = 3.7
        res = q.sesolve(H, psi0, [0.0, t], options=TIGHT)
        oracle = (-1j * t * H).expm() @ psi0
        fid = abs(oracle.overlap(res.states[-1]))
        assert abs(fid - 1) < 1e-6
        assert np.max(np.abs(res.states[-1].full() - oracle.full())) < 1e-6

    def test_norm_preservation_long_run(self):
        H = fig1_hamiltonian()
        psi0 = (q.basis(2, 0) & q.basis(2, 0)).unit()
        ts = np.linspace(0, 100 * 2 * np.pi, 41)
        res = q.sesolve(H, psi0, ts, options={"atol": 1e-10, "rtol": 1e-9})
        norms = [s.norm() for s in res.states]
        assert max(abs(n - 1) for n in norms) < 1e-6

    def test_solver_args_reach_coefficient(self):
        psi0 = q.basis(2, 0)
        ts = np.linspace(0, 5, 21)

        def drive(t, args):
            return np.cos(args["w"] * t)

        def run(H, args=None):
            return q.sesolve(H, psi0, ts, e_ops=[q.sigmaz(), q.sigmay()],
                             options=TIGHT, args=args).expect

        H0, H1 = 0.5 * q.sigmaz(), 0.3 * q.sigmax()
        via_args = run(q.QobjEvo([H0, (H1, drive)]), args={"w": 2.0})
        via_closure = run(q.QobjEvo([H0, (H1, lambda t: np.cos(2.0 * t))]))
        other_w = run(q.QobjEvo([H0, (H1, drive)]), args={"w": 3.0})
        for a, b, c in zip(via_args, via_closure, other_w):
            assert np.max(np.abs(a - b)) < 1e-12
            assert np.max(np.abs(a - c)) > 1e-3

    def test_store_states_flag(self):
        res = q.sesolve(q.sigmaz(), q.basis(2, 0), [0, 1], e_ops=[q.sigmaz()])
        assert res.states is None
        res = q.sesolve(
            q.sigmaz(), q.basis(2, 0), [0, 1], e_ops=[q.sigmaz()],
            options={"store_states": True},
        )
        assert len(res.states) == 2


class TestMesolve:
    def test_amplitude_damping_analytic(self):
        g = 0.3
        ts = np.linspace(0, 12, 61)
        res = q.mesolve(
            0.5 * q.sigmaz(), q.basis(2, 0), ts,
            c_ops=[np.sqrt(g) * q.sigmam()], e_ops=[q.sigmaz()],
        )
        assert np.max(np.abs(res.expect[0] - (2 * np.exp(-g * ts) - 1))) < 1e-6

    def test_manual_liouvillian_equivalent(self):
        g = 0.3
        H = 0.5 * q.sigmaz()
        L = q.liouvillian(H, [np.sqrt(g) * q.sigmam()])
        ts = np.linspace(0, 5, 21)
        r1 = q.mesolve(H, q.basis(2, 0), ts, c_ops=[np.sqrt(g) * q.sigmam()], e_ops=[q.sigmaz()])
        r2 = q.mesolve(L, q.basis(2, 0).proj(), ts, e_ops=[q.sigmaz()])
        assert np.max(np.abs(r1.expect[0] - r2.expect[0])) < 1e-12

    def test_global_me_relaxes_to_coupled_ground_state(self):
        H = fig1_hamiltonian(eps=1.0, g=0.1)
        _, _, sx1, sx2, _, _ = two_qubit_parts()
        c_ops = global_collapse_ops(H, [sx1, sx2], flat_spectrum(0.2))
        psi0 = q.basis(2, 0) & q.basis(2, 0)
        res = q.mesolve(H, psi0, np.linspace(0, 80, 41), c_ops=c_ops,
                        options={"store_final_state": True})
        _, ground = H.groundstate()
        overlap = q.expect(ground.proj(), res.final_state)
        assert overlap >= 0.999

    def test_trace_and_hermiticity_invariants(self):
        H = fig1_hamiltonian()
        _, _, _, _, sm1, sm2 = two_qubit_parts()
        res = q.mesolve(
            H, q.basis(2, 0) & q.basis(2, 0), np.linspace(0, 20, 21),
            c_ops=[0.3 * sm1, 0.2 * sm2],
        )
        for s in res.states:
            assert abs(s.tr() - 1) < 1e-6
            assert np.max(np.abs(s.full() - s.full().conj().T)) < 1e-8

    def test_unitary_density_path_matches_sesolve_projector(self):
        H = fig1_hamiltonian()
        psi0 = (q.basis(2, 0) & q.basis(2, 1)).unit()
        ts = np.linspace(0, 5, 11)
        r_rho = q.mesolve(H, psi0.proj(), ts, options={"atol": 1e-10, "rtol": 1e-9})
        r_psi = q.sesolve(H, psi0, ts, options={"atol": 1e-10, "rtol": 1e-9})
        for a, b in zip(r_rho.states, r_psi.states):
            assert np.max(np.abs(a.full() - b.proj().full())) < 1e-8

    def test_list_form_h_matches_qobjevo(self):
        spec = [q.sigmaz(), [q.sigmax(), np.cos]]
        for rho0, c_ops in ((q.basis(2, 0), []), (q.basis(2, 0), [0.3 * q.sigmam()]),
                            (q.basis(2, 1).proj(), [])):
            r_list = q.mesolve(spec, rho0, [0, 1], c_ops=c_ops, options={"store_states": True})
            r_evo = q.mesolve(q.QobjEvo(spec), rho0, [0, 1], c_ops=c_ops,
                              options={"store_states": True})
            assert [s.full().tobytes() for s in r_list.states] == [
                s.full().tobytes() for s in r_evo.states
            ]

    def test_none_hamiltonian_is_pure_dissipation(self):
        a = q.destroy(3)
        rho0 = q.basis(3, 2).proj()
        ts = np.linspace(0, 2, 5)
        opts = {"store_states": True}
        res = q.mesolve(None, rho0, ts, c_ops=[a], e_ops=[a.dag() @ a], options=opts)
        ref = q.MESolver(None, [a], options=opts).run(rho0, ts, e_ops=[a.dag() @ a])
        assert res.expect[0].tobytes() == ref.expect[0].tobytes()
        assert [s.full().tobytes() for s in res.states] == [s.full().tobytes() for s in ref.states]

    def test_ket_no_cops_delegates_to_sesolve(self):
        res = q.mesolve(q.sigmaz(), q.basis(2, 0), [0, 1], e_ops=[q.sigmaz()])
        assert res.stats["solver"] == "sesolve"

    def test_diag_expm_rejects_time_dependence(self):
        from oqsim.exceptions import MethodError

        H = q.QobjEvo([(q.sigmax(), np.sin)])
        with pytest.raises(MethodError):
            q.sesolve(H, q.basis(2, 0), [0, 1], options={"method": "diag_expm"})

    def test_diag_expm_method(self):
        g = 0.4
        H = 0.5 * q.sigmaz()
        ts = np.linspace(0, 8, 17)
        r1 = q.mesolve(H, q.basis(2, 0), ts, c_ops=[np.sqrt(g) * q.sigmam()],
                       e_ops=[q.sigmaz()], options={"method": "diag_expm"})
        assert np.max(np.abs(r1.expect[0] - (2 * np.exp(-g * ts) - 1))) < 1e-10


class TestSolverClass:
    def test_run_vs_start_step(self):
        H = fig1_hamiltonian()
        _, _, _, _, sm1, sm2 = two_qubit_parts()
        solver = q.MESolver(H, [0.3 * sm1, 0.25 * sm2],
                    options={"store_states": True, "atol": 1e-10, "rtol": 1e-9})
        psi0 = q.basis(2, 0) & q.basis(2, 0)
        ts = np.linspace(0, 6, 13)
        run_states = solver.run(psi0, ts).states
        solver.start(psi0, ts[0])
        for t, ref in zip(ts, run_states):
            stepped = solver.step(t)
            assert np.max(np.abs(stepped.full() - ref.full())) < 1e-8

    def test_step_at_t0_returns_initial(self):
        solver = q.SESolver(q.sigmaz())
        psi0 = q.basis(2, 0)
        solver.start(psi0, 0.0)
        out = solver.step(0.0)
        assert np.max(np.abs(out.full() - psi0.full())) < 1e-14

    def test_step_backwards_rejected(self):
        solver = q.SESolver(q.sigmaz())
        solver.start(q.basis(2, 0), 0.0)
        solver.step(1.0)
        with pytest.raises(ValueError):
            solver.step(0.5)

    def test_step_enforces_nsteps(self):
        solver = q.SESolver(q.sigmaz(), options={"nsteps": 1, "max_step": 0.1})
        solver.start(q.basis(2, 0), 0.0)
        with pytest.raises(StepLimitError):
            solver.step(50.0)

    def test_rerun_is_bit_identical(self):
        H = fig1_hamiltonian()
        psi0 = q.basis(2, 0) & q.basis(2, 1)
        ts = np.linspace(0, 4, 9)
        r1 = q.SESolver(H).run(psi0, ts, e_ops=[q.sigmaz() & q.qeye(2)])
        r2 = q.SESolver(H).run(psi0, ts, e_ops=[q.sigmaz() & q.qeye(2)])
        assert np.array_equal(r1.expect[0], r2.expect[0])


class TestBlochRedfield:
    def test_flat_spectrum_equals_lindblad(self):
        eps, g = 1.0, 0.2
        H = 0.5 * eps * q.sigmaz()
        R, ekets = q.br_tensor(H, [(q.sigmax(), flat_spectrum(g))], sec_cutoff=0.1)
        # eigenbasis is ascending: C = sqrt(g)|0><1| lowers e->g there
        C = np.sqrt(g) * q.projection(2, 0, 1)
        Hd = q.Qobj(np.diag([-0.5 * eps, 0.5 * eps]))
        L = q.liouvillian(Hd, [C])
        assert np.max(np.abs(R.full() - L.full())) < 1e-12

    def test_zero_spectrum_gives_unitary_part(self):
        H = 0.5 * q.sigmaz() + 0.2 * q.sigmax()
        R, _ = q.br_tensor(H, [(q.sigmax(), lambda w: 0.0)], sec_cutoff=-1)
        w = np.linalg.eigvalsh(H.full())
        Wab = w[:, None] - w[None, :]
        expected = np.diag(-1j * Wab.flatten(order="F"))
        assert np.max(np.abs(R.full() - expected)) < 1e-14

    def test_detailed_balance_populations(self):
        # Thermal spectrum: steady populations follow the Boltzmann ratio.
        T = 0.75
        eps = 1.0
        gamma = 0.3

        def S(w):
            if abs(w) < 1e-12:
                return gamma * T
            n = 1.0 / np.expm1(abs(w) / T)
            return gamma * (n + 1) if w > 0 else gamma * n

        H = 0.5 * eps * q.sigmaz()
        R, _ = q.br_tensor(H, [(q.sigmax(), S)], sec_cutoff=0.1)
        rho = q.steadystate(R)
        pops = np.diag(rho.full()).real  # ascending eigenbasis: [ground, excited]
        assert abs(pops[1] / pops[0] - np.exp(-eps / T)) < 1e-6

    def test_secular_cutoff_all_terms(self):
        H = fig1_hamiltonian(g=0.3)
        _, _, sx1, sx2, _, _ = two_qubit_parts()
        coups = [(sx1, flat_spectrum(0.1)), (sx2, flat_spectrum(0.1))]
        R1, _ = q.br_tensor(H, coups, sec_cutoff=-1)
        R2, _ = q.br_tensor(H, coups, sec_cutoff=1e9)
        assert np.max(np.abs(R1.full() - R2.full())) == 0.0

    def test_eigenkets_keep_the_enr_marker(self):
        a1, a2 = q.enr_destroy([2, 3], 2)
        n1 = a1.dag() @ a1
        H = n1 + 0.5 * a2.dag() @ a2 + 0.1 * (a1.dag() @ a2 + a2.dag() @ a1)
        _, kets = q.br_tensor(H, [(a1 + a1.dag(), flat_spectrum(0.1))])
        assert all(k.dims.enr == H.dims.enr for k in kets)
        v = kets[-1].full().ravel()
        assert q.expect(n1, kets[-1]) == pytest.approx(np.vdot(v, n1.full() @ v).real, abs=1e-14)

    def test_non_hermitian_coupling_rejected(self):
        with pytest.raises(NotHermitianError):
            q.br_tensor(q.sigmaz(), [(q.sigmam(), flat_spectrum(1.0))])

    def test_brmesolve_zero_coupling_is_unitary(self):
        H = fig1_hamiltonian()
        psi0 = (q.basis(2, 0) & q.basis(2, 1)).unit()
        ts = np.linspace(0, 10, 21)
        sz1 = q.sigmaz() & q.qeye(2)
        r_br = q.brmesolve(H, [(q.sigmax() & q.qeye(2), lambda w: 0.0)], psi0, ts,
                           e_ops=[sz1], options={"atol": 1e-12, "rtol": 1e-10})
        r_se = q.sesolve(H, psi0, ts, e_ops=[sz1], options=TIGHT)
        assert np.max(np.abs(r_br.expect[0] - r_se.expect[0])) < 1e-8

    def test_brmesolve_weak_coupling_matches_local_lindblad(self):
        eps, g, gamma = 1.0, 0.1, 0.05
        H = fig1_hamiltonian(eps, g)
        sz1, _, sx1, sx2, sm1, sm2 = two_qubit_parts()
        psi0 = q.basis(2, 0) & q.basis(2, 0)
        ts = np.linspace(0, 40, 81)
        r_loc = q.mesolve(H, psi0, ts, c_ops=[np.sqrt(gamma) * sm1, np.sqrt(gamma) * sm2],
                          e_ops=[sz1])
        r_br = q.brmesolve(H, [(sx1, flat_spectrum(gamma)), (sx2, flat_spectrum(gamma))],
                           psi0, ts, e_ops=[sz1])
        assert np.max(np.abs(r_loc.expect[0] - r_br.expect[0])) < 0.05

    def test_brmesolve_strong_coupling_matches_global(self):
        eps, g, gamma = 1.0, 2.0, 0.1
        H = fig1_hamiltonian(eps, g)
        sz1, _, sx1, sx2, _, _ = two_qubit_parts()
        psi0 = q.basis(2, 0) & q.basis(2, 0)
        ts = np.linspace(0, 40, 81)
        glob = global_collapse_ops(H, [sx1, sx2], flat_spectrum(gamma))
        r_glo = q.mesolve(H, psi0, ts, c_ops=glob, e_ops=[sz1],
                          options={"atol": 1e-10, "rtol": 1e-9})
        r_br = q.brmesolve(H, [(sx1, flat_spectrum(gamma)), (sx2, flat_spectrum(gamma))],
                           psi0, ts, e_ops=[sz1], options={"atol": 1e-10, "rtol": 1e-9})
        assert np.max(np.abs(r_glo.expect[0] - r_br.expect[0])) < 1e-6

    def test_time_dependent_rejected(self):
        H = q.QobjEvo([(q.sigmax(), np.sin)])
        with pytest.raises(MethodError, match="time-independent"):
            q.brmesolve(H, [(q.sigmax(), flat_spectrum(1.0))], q.basis(2, 0), [0, 1])


class TestSteadystate:
    def test_qubit_decay_ground_state(self):
        rho = q.steadystate(0.5 * q.sigmaz(), [np.sqrt(0.3) * q.sigmam()])
        assert np.max(np.abs(rho.full() - q.basis(2, 1).proj().full())) < 1e-12

    def test_thermal_cavity_truncated_oracle(self):
        N, nbar, kappa = 15, 2.0, 1.0
        a = q.destroy(N)
        H = a.dag() @ a
        c_ops = [np.sqrt(kappa * (nbar + 1)) * a, np.sqrt(kappa * nbar) * a.dag()]
        rho = q.steadystate(H, c_ops)
        # detailed-balance chain: p_{n+1}/p_n = nbar/(nbar+1), truncated at N
        r = nbar / (nbar + 1)
        p = r ** np.arange(N)
        p /= p.sum()
        oracle = float(np.arange(N) @ p)
        assert abs(q.expect(a.dag() @ a, rho) - oracle) < 1e-8

    def test_methods_agree(self):
        N, nbar = 8, 1.0
        a = q.destroy(N)
        H = 0.5 * (a.dag() @ a)
        c_ops = [np.sqrt(nbar + 1) * a, np.sqrt(nbar) * a.dag()]
        rhos = {m: q.steadystate(H, c_ops, method=m) for m in ("direct", "power", "svd")}
        for m in ("power", "svd"):
            assert np.max(np.abs(rhos[m].full() - rhos["direct"].full())) < 1e-8

    def test_gmres_solver(self):
        rho = q.steadystate(
            0.5 * q.sigmaz(), [np.sqrt(0.3) * q.sigmam()], solver="iterative_gmres"
        )
        assert abs(q.expect(q.sigmaz(), rho) + 1) < 1e-8

    def test_power_with_gmres_is_a_method_error_before_any_factorization(self, monkeypatch):
        """Inverse power iteration needs the one sparse LU that it reuses across sweeps."""
        def refuse(*args, **kwargs):
            raise AssertionError("a factorization started before the pair was refused")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
        monkeypatch.setattr(scipy.sparse.linalg, "spilu", refuse)
        with pytest.raises(MethodError, match="direct_lu"):
            q.steadystate(0.5 * q.sigmaz(), [np.sqrt(0.3) * q.sigmam()], method="power",
                          solver="iterative_gmres")

    @pytest.mark.parametrize("method, solver", [("svd", "bogus"), ("direct", "bogus"),
                                                ("power", "bogus"), ("bogus", "direct_lu")])
    def test_an_unknown_method_or_solver_is_a_range_error_before_the_build(
            self, monkeypatch, method, solver):
        def refuse(*args, **kwargs):
            raise AssertionError("the generator was built before the names were checked")

        monkeypatch.setattr(importlib.import_module("oqsim.steadystate"), "liouvillian", refuse)
        with pytest.raises(RangeError, match="unknown"):
            q.steadystate(0.5 * q.sigmaz(), [np.sqrt(0.3) * q.sigmam()], method=method,
                          solver=solver)

    def test_matches_long_time_mesolve(self):
        g = 1.0
        N = 6
        a = q.destroy(N)
        H = a.dag() @ a
        c_ops = [np.sqrt(g * 1.5) * a, np.sqrt(g * 0.5) * a.dag()]
        rho_ss = q.steadystate(H, c_ops)
        res = q.mesolve(H, q.basis(N, 0), [0.0, 50.0 / g], c_ops=c_ops,
                        options={"atol": 1e-10, "rtol": 1e-9})
        assert np.max(np.abs(res.states[-1].full() - rho_ss.full())) < 1e-4

    def test_positivity_floor(self):
        rho = q.steadystate(fig1_hamiltonian(), [0.4 * (q.sigmam() & q.qeye(2)),
                                                 0.3 * (q.qeye(2) & q.sigmam())])
        evals = np.linalg.eigvalsh(rho.full())
        assert evals.min() >= -1e-10

    def test_degenerate_warning(self):
        # Two decoupled dark states: the null space is two dimensional.
        H = q.qzero(2)
        with pytest.warns(RuntimeWarning):
            q.steadystate(H, [q.projection(2, 0, 0)], method="svd")

    def test_no_steady_state_errors(self):
        # Pure unitary generator: L has many zero modes but the direct method
        # still returns a valid null element; a nonzero drive with no
        # dissipation toward it fails the residual check instead.
        with pytest.raises((ConvergenceError, q.SingularMatrixError)):
            q.steadystate(q.qzero(2), [])


class TestFloquet:
    def test_static_hamiltonian_reduces_to_eigenbasis(self):
        H0 = 0.4 * q.sigmaz() + 0.3 * q.sigmax()
        fb = q.floquet_basis(q.QobjEvo(H0), T=1.0, n_t=16)
        evals = np.linalg.eigvalsh(H0.full())
        assert np.max(np.abs(np.sort(fb.quasienergies) - np.sort(evals))) < 1e-8
        # modes are t-independent eigenvectors
        assert np.max(np.abs(fb.modes[3] - fb.modes[0])) < 1e-8

    def test_quasienergy_zone_and_unitarity(self):
        fb = _driven_tls_basis()
        T = fb.T
        assert np.all(fb.quasienergies > -np.pi / T)
        assert np.all(fb.quasienergies <= np.pi / T)
        eta = np.linalg.eigvals(fb.propagator)
        assert np.max(np.abs(np.abs(eta) - 1)) < 1e-10

    def test_mode_periodicity(self):
        fb = _driven_tls_basis()
        assert np.max(np.abs(fb.modes[0] - fb.modes[-1])) < 1e-8

    def test_quasienergies_stable_under_grid_doubling(self):
        fb1 = _driven_tls_basis(n_t=64)
        fb2 = _driven_tls_basis(n_t=128)
        assert np.max(np.abs(fb1.quasienergies - fb2.quasienergies)) < 1e-8

    def test_fsesolve_initial_state(self):
        fb = _driven_tls_basis()
        psi0 = (q.basis(2, 0) + 0.5 * q.basis(2, 1)).unit()
        res = q.fsesolve(fb, psi0, [0.0])
        fid = abs(psi0.overlap(res.states[0]))
        assert abs(fid - 1) < 1e-10

    def test_fsesolve_stroboscopic_matches_sesolve(self):
        fb, H = _driven_tls_basis(return_H=True)
        psi0 = q.basis(2, 0)
        ts = np.arange(21) * fb.T
        r_f = q.fsesolve(fb, psi0, ts, e_ops=[q.sigmaz()])
        r_s = q.sesolve(H, psi0, ts, e_ops=[q.sigmaz()], options=TIGHT)
        assert np.max(np.abs(r_f.expect[0] - r_s.expect[0])) < 1e-5

    def test_fsesolve_linearity(self):
        fb = _driven_tls_basis()
        a, b = 0.6, 0.8j
        psi1, psi2 = q.basis(2, 0), q.basis(2, 1)
        combo = (a * psi1 + b * psi2).unit()
        ts = [0.0, 0.4, 1.7]
        r_c = q.fsesolve(fb, combo, ts)
        r_1 = q.fsesolve(fb, psi1, ts)
        r_2 = q.fsesolve(fb, psi2, ts)
        norm = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
        for s_c, s_1, s_2 in zip(r_c.states, r_1.states, r_2.states):
            combo_state = (a * s_1.full() + b * s_2.full()) / norm
            assert np.max(np.abs(s_c.full() - combo_state)) < 1e-10


def _driven_tls_basis(n_t=64, return_H=False):
    two_pi = 2 * np.pi
    eps, Delta, A, wd = two_pi, 0.2 * two_pi, 2.5 * two_pi, two_pi
    H = q.QobjEvo(
        [
            -0.5 * eps * q.sigmaz() - 0.5 * Delta * q.sigmax(),
            (0.5 * A * q.sigmax(), lambda t: np.sin(wd * t)),
        ]
    )
    fb = q.floquet_basis(H, two_pi / wd, n_t=n_t)
    return (fb, H) if return_H else fb
