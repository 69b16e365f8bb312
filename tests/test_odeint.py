"""Adaptive integrator: accuracy, dense output, limits, diagonalization path."""

import hashlib

import numpy as np
import pytest

import oqsim as q
from oqsim.exceptions import MethodError, OptionError, OqsimError, RangeError, StepLimitError
from oqsim.integrator import DP54Stepper, IntegratorOptions, integrate, propagate_diag
from oqsim.solver import SolverOptions
from oqsim.trajectory import McOptions

RNG = np.random.default_rng(3)


class TestIntegrate:
    def test_exponential_decay(self):
        ys, _ = integrate(lambda t, y: -y, np.array([1.0 + 0j]), 0.0, [1.0])
        assert abs(ys[0][0] - np.exp(-1)) < 1e-7

    def test_modulus_conservation(self):
        w = 1.0
        targets = np.linspace(0, 100 * 2 * np.pi, 11)
        opts = IntegratorOptions(atol=1e-12, rtol=1e-10)
        ys, _ = integrate(lambda t, y: 1j * w * y, np.array([1.0 + 0j]), 0.0, targets, opts)
        assert max(abs(abs(v[0]) - 1) for v in ys) < 1e-7

    def test_max_step_catches_short_pulse(self):
        # A 1e-3-wide pulse centered between outputs spaced 1.0 apart: the
        # unconstrained integrator steps over it, a max_step resolves it.
        sigma = 2.5e-4
        area_scale = 10.0

        def rhs(t, y):
            return np.array([area_scale * np.exp(-((t - 0.5) ** 2) / (2 * sigma**2))])

        y0 = np.array([0.0 + 0j])
        free, _ = integrate(rhs, y0, 0.0, [1.0], IntegratorOptions())
        capped, _ = integrate(rhs, y0, 0.0, [1.0], IntegratorOptions(max_step=1e-4, nsteps=20000))
        exact = area_scale * sigma * np.sqrt(2 * np.pi)
        assert abs(capped[0][0] - exact) < 1e-6
        assert abs(free[0][0] - capped[0][0]) > 1e-3

    def test_tolerance_halving_reduces_error(self):
        def run(atol, rtol):
            ys, _ = integrate(
                lambda t, y: -y, np.array([1.0 + 0j]), 0.0, [5.0],
                IntegratorOptions(atol=atol, rtol=rtol),
            )
            return abs(ys[0][0] - np.exp(-5.0))

        coarse = run(1e-6, 1e-4)
        fine = run(5e-7, 5e-5)
        assert fine <= coarse / 2

    def test_deterministic(self):
        A = RNG.normal(size=(6, 6)) + 1j * RNG.normal(size=(6, 6))
        y0 = RNG.normal(size=6) + 1j * RNG.normal(size=6)
        targets = np.linspace(0, 3, 7)
        y1, _ = integrate(lambda t, y: A @ y, y0, 0.0, targets)
        y2, _ = integrate(lambda t, y: A @ y, y0, 0.0, targets)
        for a, b in zip(y1, y2):
            assert np.array_equal(a, b)

    def test_step_limit_error(self):
        opts = IntegratorOptions(nsteps=4, max_step=1e-3)
        with pytest.raises(StepLimitError):
            integrate(lambda t, y: -y, np.array([1.0 + 0j]), 0.0, [1.0], opts)

    def test_dense_segment_endpoints(self):
        stepper = DP54Stepper(
            lambda t, y: 1j * y, 0.0, np.array([1.0 + 0j]), IntegratorOptions(), 10.0
        )
        seg = stepper.step()
        assert abs(seg(seg.t_old)[0] - seg.y_old[0]) < 1e-12
        assert abs(seg(seg.t_new)[0] - stepper.y[0]) < 1e-12 * max(1, abs(stepper.y[0]))

    def test_targets_validation(self):
        with pytest.raises(ValueError):
            integrate(lambda t, y: -y, np.array([1.0 + 0j]), 0.0, [2.0, 1.0])
        with pytest.raises(ValueError):
            integrate(lambda t, y: -y, np.array([1.0 + 0j]), 1.0, [0.5])


class TestPropagateDiag:
    def test_diagonal_decay(self):
        L = np.diag([-1.0, -2.0]).astype(complex)
        ts = np.linspace(0, 3, 7)
        ys = propagate_diag(L, np.array([1.0, 1.0]), ts)
        for t, y in zip(ts, ys):
            assert abs(y[0] - np.exp(-t)) < 1e-10
            assert abs(y[1] - np.exp(-2 * t)) < 1e-10

    def test_initial_target_returns_y0(self):
        L = RNG.normal(size=(3, 3)).astype(complex)
        y0 = np.array([1.0, 2.0, 3.0], dtype=complex)
        ys = propagate_diag(L, y0, [0.0])
        assert np.max(np.abs(ys[0] - y0)) < 1e-12

    def test_matches_rk45_on_random_liouvillian(self):
        import oqsim as q

        H = q.Qobj(np.diag([0.3, -0.2, 0.5, 0.1]))
        c = q.Qobj(RNG.normal(size=(4, 4)) * 0.3)
        L = q.liouvillian(H, [c])
        rho0 = np.eye(4, dtype=complex)[:, 0]
        y0 = np.outer(rho0, rho0).flatten(order="F")
        ts = [0.5, 1.5]
        ys_diag = propagate_diag(L.full(), y0, ts)
        mat = L.full()
        ys_rk, _ = integrate(
            lambda t, y: mat @ y, y0, 0.0, ts, IntegratorOptions(atol=1e-10, rtol=1e-9)
        )
        for a, b in zip(ys_diag, ys_rk):
            assert np.max(np.abs(a - b)) < 1e-6

    def test_defective_generator_rejected(self):
        L = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # Jordan block
        with pytest.raises(MethodError):
            propagate_diag(L, np.array([1.0, 0.0]), [1.0])


class TestOptionsValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            IntegratorOptions(atol=-1).validated()
        with pytest.raises(ValueError):
            IntegratorOptions(nsteps=0).validated()
        with pytest.raises(ValueError):
            IntegratorOptions(max_step=0.0).validated()
        with pytest.raises(ValueError):
            IntegratorOptions(method="leapfrog").validated()

    def test_integrator_range_error(self):
        for bad in ({"atol": -1}, {"rtol": 0.0}, {"nsteps": 0}, {"max_step": 0.0},
                    {"method": "leapfrog"}):
            with pytest.raises(RangeError) as info:
                IntegratorOptions(**bad).validated()
            assert isinstance(info.value, OqsimError) and isinstance(info.value, ValueError)

    def test_mc_range_error(self):
        for bad in ({"ntraj": 0}, {"map": "pool"}):
            with pytest.raises(RangeError) as info:
                McOptions.coerce(bad).validated()
            assert isinstance(info.value, ValueError)

    def test_unknown_key_is_option_error(self):
        for cls in (SolverOptions, McOptions):
            with pytest.raises(OptionError, match="rtoll") as info:
                cls.coerce({"rtoll": 1e-3})
            assert isinstance(info.value, OqsimError) and isinstance(info.value, TypeError)
        # The removed progress knob is an unknown key like any other.
        with pytest.raises(OptionError, match="progress"):
            q.mesolve(q.sigmaz(), q.basis(2, 0), [0.0, 1.0], options={"progress": True})

    def test_option_keys_are_pinned(self):
        # A new knob needs a deliberate edit here: 8 + 16 = 24 keys.
        assert SolverOptions.option_keys() == (
            "store_states", "store_final_state", "atol", "rtol", "nsteps", "max_step",
            "first_step", "method",
        )
        assert McOptions.option_keys() == (
            "ntraj", "improved_sampling", "target_tol", "timeout", "seed", "map",
            "keep_runs_results", "store_states", "norm_tol", "dt_sub", "atol", "rtol",
            "nsteps", "max_step", "first_step", "method",
        )

    def test_non_dict_is_option_error(self):
        with pytest.raises(OptionError, match="list"):
            SolverOptions.coerce([("atol", 1e-9)])
        with pytest.raises(OptionError, match="SolverOptions"):
            McOptions.coerce(SolverOptions())


class TestDenseOutputBytes:
    """Solver outputs, byte for byte, against fixed-seed digests.

    The digests were taken with the interpolant coefficients built at every
    accepted step, and with a separate stepping loop in each solver; building
    the coefficients only for the steps that are evaluated, and running every
    solver on the one ``advance`` loop, must not change a single bit.
    """

    @staticmethod
    def digest(res):
        return hashlib.sha256(
            b"".join(np.ascontiguousarray(e).tobytes() for e in res.expect)
        ).hexdigest()

    @staticmethod
    def digest_arrays(arrays):
        return hashlib.sha256(
            b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
        ).hexdigest()

    def test_mcsolve(self):
        I2 = q.qeye(2)
        H = 0.5 * (q.sigmaz() & I2) + 0.5 * (I2 & q.sigmaz()) + 0.1 * (q.sigmax() & q.sigmax())
        c_ops = [np.sqrt(0.1) * (q.sigmam() & I2), np.sqrt(0.1) * (I2 & q.sigmam())]
        res = q.mcsolve(H, q.basis(2, 0) & q.basis(2, 0), np.linspace(0, 20, 21), c_ops=c_ops,
                        e_ops=[q.sigmaz() & I2],
                        options={"ntraj": 40, "seed": 5, "improved_sampling": True})
        assert self.digest(res) == (
            "a3b6c4b74a909cdf6fd214f4bcc5d9fc3af7b70327594bd1acae19aede76b7c4"
        )

    def test_heomsolve(self):
        env = q.DrudeLorentzEnvironment(T=1.0, lam=0.1, gamma=0.5)
        ex = q.matsubara_decompose(env, 2)
        res = q.heomsolve(0.5 * q.sigmaz() + 0.3 * q.sigmax(), (ex, q.sigmaz()), q.basis(2, 0),
                          np.linspace(0, 5, 11), n_c=4, e_ops=[q.sigmaz(), q.sigmax()])
        assert self.digest(res) == (
            "42073663a2ceddd2c9e6c800c2e53c12b5e5f580f32687d110a6ff4eb49883f1"
        )

    def test_mesolve_time_dependent(self):
        a = q.destroy(4)
        H = q.QobjEvo([a.dag() @ a, [a + a.dag(), lambda t: 0.3 * np.cos(2.0 * t)]])
        res = q.mesolve(H, q.basis(4, 0), np.linspace(0, 3, 7), c_ops=[np.sqrt(0.2) * a],
                        e_ops=[a.dag() @ a, a], options={"store_states": True})
        assert self.digest_arrays(list(res.expect) + [s.full() for s in res.states]) == (
            "ebd952a68a607b465753ae0be665bb44427858cca70d0b1afcabae1bb14b7f68"
        )

    def test_sesolve(self):
        H = q.QobjEvo([0.5 * q.sigmaz() + 0.4 * q.sigmax(), [q.sigmay(), lambda t: np.sin(t)]])
        res = q.sesolve(H, q.basis(2, 0), np.linspace(0, 4, 9),
                        e_ops=[q.sigmaz(), q.sigmap()], options={"store_states": True})
        assert self.digest_arrays(list(res.expect) + [s.full() for s in res.states]) == (
            "5ef267d9d2bd37bd8b2f00996c161022dd690a8c1b25a7305c8660ba80b57bd2"
        )

    def test_sesolver_step(self):
        H = q.QobjEvo([0.5 * q.sigmaz() + 0.4 * q.sigmax(), [q.sigmay(), lambda t: np.sin(t)]])
        solver = q.SESolver(H)
        solver.start(q.basis(2, 0), 0.0)
        states = [solver.step(t).full() for t in (0.3, 0.3, 1.0, 2.5, 4.0)]
        assert self.digest_arrays(states) == (
            "29db4cc7e1c8930bc0ac64d484f3782ee9adebbe7ba6f573a3c33b0ebe474e7e"
        )

    def test_integrate(self):
        M = np.array([[0.0, 1.0, 0.2], [-1.0, -0.1, 0.0], [0.0, 0.3, -0.5]], dtype=complex)
        ys, seg = integrate(lambda t, y: (M + 0.2j * np.sin(t) * np.eye(3)) @ y,
                            np.array([1.0, 0.5j, -0.25]), 0.0, np.linspace(0, 6, 13),
                            IntegratorOptions(atol=1e-9, rtol=1e-7))
        assert self.digest_arrays(ys + [seg(seg.t_new)]) == (
            "8bf3c07d82fffc837966a5c5c3542c545918abe50c43b353c0291d81a6cb1507"
        )

    def test_heomsolve_states_and_ados(self):
        env = q.DrudeLorentzEnvironment(T=1.0, lam=0.1, gamma=0.5)
        ex = q.matsubara_decompose(env, 2)
        res = q.heomsolve(0.5 * q.sigmaz() + 0.3 * q.sigmax(), (ex, q.sigmaz()), q.basis(2, 0),
                          np.linspace(0, 5, 11), n_c=3, options={"store_states": True})
        assert res.stats["rhs_evaluations"] == 350
        assert self.digest_arrays([s.full() for s in res.states] + [res.final_ados]) == (
            "aad79f59a956d1b0d208f0dda2b1700e428023923670b2b49d76a9a9b4a46c4c"
        )

    def test_mcsolve_runs_photocurrent_states(self):
        I2 = q.qeye(2)
        H = 0.5 * (q.sigmaz() & I2) + 0.5 * (I2 & q.sigmaz()) + 0.1 * (q.sigmax() & q.sigmax())
        c_ops = [np.sqrt(0.1) * (q.sigmam() & I2), np.sqrt(0.1) * (I2 & q.sigmam())]
        res = q.mcsolve(H, q.basis(2, 0) & q.basis(2, 0), np.linspace(0, 20, 21), c_ops=c_ops,
                        e_ops=[q.sigmaz() & I2],
                        options={"ntraj": 40, "seed": 5, "improved_sampling": True,
                                 "keep_runs_results": True, "store_states": True})
        arrays = list(res.runs_expect) + list(res.photocurrent)
        arrays += [s.full() for s in res.states] + [np.array(res.weights)]
        assert self.digest_arrays(arrays) == (
            "cc7a513f40eedf6da34fe496bbcbdaa00b9d8de6957b3dd8c8acb150a01b3ac4"
        )

    def test_mesolve_constant(self):
        a = q.destroy(4)
        H = a.dag() @ a + 0.2 * (a + a.dag())
        res = q.mesolve(H, q.basis(4, 0), np.linspace(0, 3, 7),
                        c_ops=[np.sqrt(0.2) * a, np.sqrt(0.05) * a.dag()],
                        e_ops=[a.dag() @ a, a], options={"store_states": True})
        assert self.digest_arrays(list(res.expect) + [s.full() for s in res.states]) == (
            "5657f64904b2f20bbdc5908512530d28cc0921e0236a92fd8f98a6cca83c0066"
        )

    @staticmethod
    def smesolve_arrays(res):
        return (list(res.expect) + [m for rec in res.measurements for m in rec]
                + [s.full() for s in res.average_states])

    def test_smesolve_constant(self):
        a = q.destroy(5)
        res = q.smesolve(a.dag() @ a, q.coherent(5, 1.0), np.linspace(0, 0.5, 6),
                         c_ops=[np.sqrt(0.1) * a.dag()], sc_ops=[a], e_ops=[a + a.dag()],
                         options={"ntraj": 4, "seed": 3, "store_states": True})
        assert self.digest_arrays(self.smesolve_arrays(res)) == (
            "d06e4a3b21c69f18f959bffac697594bbd77b47e7c936b67a481ad74a382c314"
        )

    def test_smesolve_time_dependent(self):
        a = q.destroy(5)
        H = q.QobjEvo([a.dag() @ a, [a + a.dag(), lambda t: 0.3 * np.cos(2.0 * t)],
                       [a, lambda t: 0.2 * np.exp(1j * t)], [a.dag(), lambda t: 0.2 * np.exp(-1j * t)]])
        res = q.smesolve(H, q.coherent(5, 1.0), np.linspace(0, 0.5, 6),
                         c_ops=[np.sqrt(0.1) * a.dag()], sc_ops=[a], e_ops=[a + a.dag(), a],
                         options={"ntraj": 4, "seed": 3, "store_states": True})
        assert self.digest_arrays(self.smesolve_arrays(res)) == (
            "6860c951e0024c7bc6831f5d30c7872813898fd5fa3e73f8fc24064b3f78ea7e"
        )

    def test_nm_mcsolve(self):
        res = q.nm_mcsolve(0.5 * q.sigmaz(), (q.basis(2, 0) + q.basis(2, 1)).unit(),
                           np.linspace(0, 6, 13), [(q.sigmam(), lambda t: 0.5 * np.cos(t) + 0.2)],
                           e_ops=[q.sigmaz(), q.sigmap()], options={"ntraj": 20, "seed": 4})
        assert self.digest_arrays(list(res.expect) + [res.trace]) == (
            "3401b5276b1c8d4c8924e4d775157bdc101f8a9b758eaf6f85e1cd5c1bc38076"
        )

    def test_steadystate(self):
        a = q.destroy(4)
        H = a.dag() @ a + 0.3 * (a + a.dag())
        c_ops = [np.sqrt(0.5) * a, np.sqrt(0.1) * a.dag()]
        rhos = [q.steadystate(H, c_ops), q.steadystate(q.liouvillian(H, c_ops)),
                q.steadystate(q.liouvillian(H), c_ops)]
        assert self.digest_arrays([rho.full() for rho in rhos]) == (
            "4357152b8007a5ab7b492c484f4f2d6625cb0d29b0abfc822ef4748e9df99b4f"
        )

    def test_liouvillian(self):
        a = q.destroy(4)
        H = a.dag() @ a + 0.3 * (a + a.dag())
        c_ops = [np.sqrt(0.5) * a, np.sqrt(0.1) * a.dag(), q.lindblad_dissipator(a @ a)]
        mats = [q.liouvillian(H, c_ops).full(), q.liouvillian(None, c_ops).full(),
                q.liouvillian(q.liouvillian(H), c_ops[:1]).full()]
        assert self.digest_arrays(mats) == (
            "9f59664c42f1f4cdfb2d59fbe152190fa544fd3097d73f17d8e3e46deacb848e"
        )

    def test_heom_generator_is_not_copied(self):
        from oqsim.heom import _build_generator, _exponent_records, _HEOMSolver

        ex = q.matsubara_decompose(q.DrudeLorentzEnvironment(T=1.0, lam=0.1, gamma=0.5), 2)
        H = 0.5 * q.sigmaz()
        gen, ados = _build_generator(H, [(q.sigmaz(), _exponent_records(ex))], 2)
        solver = _HEOMSolver(gen, ados, H, None)
        assert solver.rhs_evo._compiled()[0] is gen.scipy_matrix()
