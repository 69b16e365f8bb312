"""Adaptive integrator: accuracy, dense output, limits, diagonalization path."""

import contextlib
import functools
import hashlib
import importlib
import re
import typing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oqsim as q
from oqsim.exceptions import (ArgumentError, DimensionMismatchError, MethodError, OptionError,
                              OqsimError, RangeError, SolverError, StepLimitError, StiffnessError)
from oqsim.integrator import (DenseSegment, DP54Stepper, IntegratorOptions, check_tlist, integrate,
                              propagate_diag)
from oqsim.solver import SolverOptions
from oqsim.smesolve import SmeOptions
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

    def test_targets_validation_is_range_error(self):
        with pytest.raises(RangeError, match="ascending"):
            integrate(lambda t, y: -y, np.array([1.0 + 0j]), 0.0, [2.0, 1.0])
        with pytest.raises(RangeError, match="precedes"):
            integrate(lambda t, y: -y, np.array([1.0 + 0j]), 1.0, [0.5])


class TestStepperContract:
    def test_rejects_a_non_flat_state(self):
        with pytest.raises(DimensionMismatchError, match="1-D"):
            DP54Stepper(lambda t, y: -y, 0.0, np.ones((2, 2)), IntegratorOptions(), 1.0)

    def test_step_past_the_end_is_solver_error(self):
        stepper = DP54Stepper(lambda t, y: -y, 0.0, np.ones(2), IntegratorOptions(), 0.1)
        while stepper.t < stepper.t_end:
            stepper.step()
        with pytest.raises(SolverError, match="end of its domain"):
            stepper.step()

    def test_interpolate_outside_is_solver_error(self):
        stepper = DP54Stepper(lambda t, y: -y, 0.0, np.ones(2), IntegratorOptions(), 1.0)
        assert np.array_equal(stepper.interpolate(0.0), np.ones(2))
        with pytest.raises(SolverError, match="no dense segment"):
            stepper.interpolate(0.5)
        seg = stepper.step()
        with pytest.raises(SolverError, match="outside the last step"):
            stepper.interpolate(seg.t_new + 1.0)

    def test_solver_step_before_start_is_solver_error(self):
        with pytest.raises(SolverError, match="start"):
            q.SESolver(q.sigmaz()).step(1.0)

    def test_solver_step_backwards_is_range_error(self):
        solver = q.SESolver(q.sigmaz())
        solver.start(q.basis(2, 0), 0.0)
        solver.step(1.0)
        with pytest.raises(RangeError, match="backwards"):
            solver.step(0.5)


class TestStepCounters:
    """``accepted_steps`` and ``rejected_steps`` in ``Solver.run``'s stats, and
    the RHS calls they account for once the first step is estimated (two calls)."""

    @staticmethod
    def cavity(g, driven):
        a = q.destroy(5)
        H = (q.QobjEvo([a.dag() @ a, [a + a.dag(), lambda t: np.cos(3 * t)]]) if driven
             else a.dag() @ a + 0.5 * (a + a.dag()))
        return q.mesolve(H, q.basis(5, 0), np.linspace(0, 3, 7), c_ops=[np.sqrt(g) * a],
                         e_ops=[a.dag() @ a])

    def test_stage_form_calls_the_rhs_on_every_attempt(self):
        stats = self.cavity(50.0, driven=True).stats
        assert stats["rejected_steps"] >= 1
        assert stats["rhs_evaluations"] == 2 + 6 * (stats["accepted_steps"]
                                                    + stats["rejected_steps"])

    def test_power_form_calls_the_rhs_on_accepted_steps_only(self):
        stats = self.cavity(10.0, driven=False).stats
        assert stats["rejected_steps"] >= 1
        assert stats["rhs_evaluations"] == 2 + 6 * stats["accepted_steps"]

    @pytest.mark.parametrize("solve", [
        lambda o: q.sesolve(q.sigmax(), q.basis(2, 0), [0, 1], options=o),
        lambda o: q.mesolve(q.sigmax(), q.basis(2, 0), [0, 1], [q.sigmam()], options=o),
        lambda o: q.brmesolve(q.sigmax(), [(q.sigmax(), lambda w: 0.1)], q.basis(2, 0), [0, 1],
                              options=o),
        lambda o: q.heomsolve(q.sigmax(), _HEOM_BATH, q.basis(2, 0), [0, 1], n_c=1, options=o),
    ], ids=["sesolve", "mesolve", "brmesolve", "heomsolve"])
    def test_every_deterministic_solver_reports_them(self, solve):
        stats = solve({}).stats
        assert stats["accepted_steps"] > 0 and stats["rejected_steps"] >= 0
        # heomsolve's decay form calls the RHS on every attempt, like the stage form.
        attempts = stats["accepted_steps"] + (stats["rejected_steps"]
                                              if stats["solver"] == "heomsolve" else 0)
        assert stats["rhs_evaluations"] == 2 + 6 * attempts
        diag = solve({"method": "diag_expm"}).stats
        assert (diag["accepted_steps"], diag["rejected_steps"], diag["rhs_evaluations"]) == (0, 0, 0)

    @pytest.mark.parametrize("name, options", [
        ("sesolve", None), ("mesolve", None), ("mesolve", {"method": "diag_expm"}),
        ("brmesolve", None), ("heomsolve", None), ("fsesolve", None),
    ], ids=["sesolve", "mesolve", "mesolve_diag_expm", "brmesolve", "heomsolve", "fsesolve"])
    def test_every_deterministic_result_holds_the_shared_keys(self, name, options):
        stats = _solve(name, options=options).stats
        shared = {"solver", "rhs_evaluations", "accepted_steps", "rejected_steps", "run_time"}
        assert shared <= set(stats)
        assert stats["solver"] == name and stats["run_time"] >= 0
        if name == "fsesolve" or options:
            assert (stats["accepted_steps"], stats["rejected_steps"],
                    stats["rhs_evaluations"]) == (0, 0, 0)


def test_power_coefficients_are_the_stability_polynomial():
    # DOPRI5: R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24 + z^5/120 + z^6/600; the
    # FSAL derivative is R(z) applied to L y, and the error terms start at h^5.
    from oqsim.integrator import _POWER

    R = [1, 1, 1 / 2, 1 / 6, 1 / 24, 1 / 120, 1 / 600]
    assert _POWER.tolist() == [R[1:] + [0.0], [0, 0, 0, 0, -97 / 120000, 13 / 40000, -1 / 24000],
                               R]


def _random_generator(rng, n, stiff):
    """A random constant generator; ``stiff`` adds a decaying diagonal whose
    fastest rate is 94, about the largest ``|Re λ|`` of the HEOM test hierarchies."""
    L = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    if stiff:
        rates = np.concatenate([[94.0], rng.uniform(0.0, 94.0, n - 1)])
        L = 0.3 * L - np.diag(rates - 1j * rng.normal(size=n))
    return L


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), stiff=st.booleans())
def test_power_form_matches_the_stage_form_oracle(seed, n, stiff):
    """The power-form step against ``loop_step`` on one constant ``L``, each step
    taken by both from the power form's state: the same accepted and rejected
    attempts, the new state and the dense output within 1e-13 of the largest
    state seen, and a ``state()``/``resume()`` round trip bit for bit.

    The stage form's error estimate cancels to about 1e-10 relative, so after
    a rejection the two retried step sizes differ in their last bits; the
    states are compared at the oracle's time.  The power form carries the
    FSAL derivative and not ``L y``, so its rounding does not decay with a
    decaying state: hence the largest state seen as the scale."""
    rng = np.random.default_rng(seed)
    L = _random_generator(rng, n, stiff)
    y0 = rng.normal(size=n) + 1j * rng.normal(size=n)
    opts = IntegratorOptions(atol=1e-8, rtol=1e-6)

    def rhs(t, y):
        return L @ y

    power = DP54Stepper(rhs, 0.0, y0, opts, 2.0, linear=True)
    stage = DP54Stepper(rhs, 0.0, y0, opts, 2.0)
    assert power.nfev == stage.nfev
    size = np.max(np.abs(y0))
    while power.t < power.t_end and power.accepted < 25:
        stage.resume(power.state())
        seg = power.step()
        oracle = loop_step(stage)
        assert (power.accepted, power.rejected) == (stage.accepted, stage.rejected)
        size = max(size, np.max(np.abs(stage.y)))
        h = oracle.t_new - oracle.t_old
        assert abs(power.t - stage.t) <= 1e-9 * h
        assert np.max(np.abs(seg(stage.t) - stage.y)) <= 1e-13 * size
        for x in (0.25, 0.5, 0.75):
            t = oracle.t_old + x * h
            assert np.max(np.abs(seg(t) - oracle(t))) <= 1e-13 * size
    assert power.nfev == stage.nfev - 6 * stage.rejected

    if power.t < power.t_end:
        twin = DP54Stepper(rhs, 0.0, y0, opts, 2.0, linear=True)
        twin.resume(power.state())
        for _ in range(3):
            if power.t >= power.t_end:
                break
            a, b = power.step(), twin.step()
            assert (a.t_old, a.t_new) == (b.t_old, b.t_new)
            assert power.y.tobytes() == twin.y.tobytes()
            mid = 0.5 * (a.t_old + a.t_new)
            assert a(mid).tobytes() == b(mid).tobytes()


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
        # A new knob needs a deliberate edit here: 8 + 15 + 8 = 31 keys; the 6
        # IntegratorOptions keys are among them.
        assert SolverOptions.option_keys() == (
            "store_states", "store_final_state", "atol", "rtol", "nsteps", "max_step",
            "first_step", "method",
        )
        assert McOptions.option_keys() == (
            "ntraj", "target_tol", "timeout", "seed", "map", "keep_runs_results",
            "store_states", "improved_sampling", "norm_tol", "atol", "rtol", "nsteps",
            "max_step", "first_step", "method",
        )
        assert SmeOptions.option_keys() == (
            "ntraj", "target_tol", "timeout", "seed", "map", "keep_runs_results",
            "store_states", "dt_sub",
        )
        assert IntegratorOptions.option_keys() == (
            "atol", "rtol", "nsteps", "max_step", "first_step", "method",
        )

    def test_floquet_basis_and_integrate_take_a_dict(self):
        """A dict is read like an IntegratorOptions; floquet_basis reads one over its own
        defaults, atol = rtol = 1e-12."""
        def decay(opts):
            ys, _ = integrate(lambda t, y: -y, np.array([1.0 + 0j]), 0.0, [1.0, 2.0], opts)
            return [y.tobytes() for y in ys]

        assert decay({"rtol": 1e-8}) == decay(IntegratorOptions(rtol=1e-8))
        assert decay({}) == decay(None) == decay(IntegratorOptions())

        def basis(options):
            fb = q.floquet_basis([q.sigmaz(), [q.sigmax(), np.cos]], 2 * np.pi, n_t=8,
                                 options=options)
            return fb.quasienergies.tobytes(), fb.modes.tobytes()

        assert basis({"atol": 1e-9}) == basis(IntegratorOptions(atol=1e-9, rtol=1e-12))
        assert basis({}) == basis(None) == basis(IntegratorOptions(atol=1e-12, rtol=1e-12))
        for call in (lambda: decay({"rtoll": 1e-8}), lambda: basis({"rtoll": 1e-8})):
            with pytest.raises(OptionError, match="rtoll"):
                call()

    def test_non_dict_is_option_error(self):
        with pytest.raises(OptionError, match="list"):
            SolverOptions.coerce([("atol", 1e-9)])
        with pytest.raises(OptionError, match="SolverOptions"):
            McOptions.coerce(SolverOptions())


# -- the input gate: check_tlist and the options types ----------------------------

_H, _PSI = q.sigmax(), q.basis(2, 0)
_C = [np.sqrt(0.5) * q.sigmam()]
_E = [q.sigmaz()]
_MC = {"ntraj": 2, "seed": 1}


@contextlib.contextmanager
def no_integration():
    """Fail if a solver evaluates a right-hand side or hands trajectories to ``run_map``."""
    sme = importlib.import_module("oqsim.smesolve")
    evaluate, run_map = DP54Stepper._eval, sme.run_map

    def refuse(*args, **kwargs):
        raise AssertionError("integration started before the input was checked")

    DP54Stepper._eval, sme.run_map = refuse, refuse
    try:
        yield
    finally:
        DP54Stepper._eval, sme.run_map = evaluate, run_map


class TestCheckTlist:
    def test_returns_the_float_grid(self):
        t = check_tlist([0, 1, 1, 2])
        assert t.dtype == float and t.tolist() == [0.0, 1.0, 1.0, 2.0]
        assert check_tlist([3]).tolist() == [3.0]

    @pytest.mark.parametrize("bad", [[], 0.5, [[0.0, 1.0]], [0.0, np.nan], [0.0, np.inf],
                                     [-np.inf, 0.0], [1.0, 0.5, 0.0], ["a"], [1j]])
    def test_malformed_grid_is_range_error(self, bad):
        with pytest.raises(RangeError):
            check_tlist(bad)

    def test_uniform(self):
        assert check_tlist([0.0, 0.1, 0.2 + 1e-12], uniform=True).size == 3
        for bad in ([0.0], [0.0, 0.0], [0.0, 1.0, 3.0], [0.0, 0.1, 0.2 + 1e-9]):
            with pytest.raises(RangeError):
                check_tlist(bad, uniform=True)


class TestInputGate:
    """Each case raises a typed error before any integration starts."""

    @pytest.mark.parametrize("call", [
        lambda t: q.mcsolve(_H, _PSI, t, _C, _E, options=_MC),
        lambda t: q.nm_mcsolve(_H, _PSI, t, [(q.sigmam(), 0.5)], _E, options=_MC),
        lambda t: q.mesolve(_H, _PSI, t, _C, _E),
        lambda t: q.smesolve(_H, _PSI, t, sc_ops=_C, e_ops=_E, options=_MC),
    ], ids=["mcsolve", "nm_mcsolve", "mesolve", "smesolve"])
    @pytest.mark.parametrize("tlist", [[1.0, 0.5, 0.0], [0.0, np.nan, 1.0], [0.0, np.inf]],
                             ids=["descending", "nan", "inf"])
    def test_grid(self, call, tlist):
        with no_integration(), pytest.raises(RangeError):
            call(tlist)

    def test_smesolve_needs_a_uniform_grid(self):
        with no_integration(), pytest.raises(RangeError, match="uniform"):
            q.smesolve(_H, _PSI, [0.0, 0.1, 0.3], sc_ops=_C, e_ops=_E, options=_MC)

    @pytest.mark.parametrize("T", [0.0, -1.0, np.inf, np.nan])
    def test_floquet_basis_needs_a_positive_finite_period(self, T):
        with no_integration(), pytest.raises(RangeError, match="positive and finite"):
            q.floquet_basis(_H, T)

    def test_fsesolve_keeps_its_non_negative_rule(self):
        fb = q.floquet_basis(_H, 1.0, n_t=8)
        with pytest.raises(RangeError, match="non-negative"):
            q.fsesolve(fb, _PSI, [-1.0, 0.0])
        with pytest.raises(RangeError, match="finite"):
            q.fsesolve(fb, _PSI, [0.0, np.nan])

    @pytest.mark.parametrize("t", [np.nan, np.inf])
    def test_step_to_a_non_finite_time(self, t):
        solver = q.SESolver(_H)
        solver.start(_PSI, 0.0)
        with pytest.raises(RangeError, match="finite"):
            solver.step(t)

    @pytest.mark.parametrize("key", ["nsteps", "atol", "improved_sampling", "norm_tol"])
    def test_smesolve_refuses_keys_it_does_not_read(self, key):
        with no_integration(), pytest.raises(OptionError, match=key):
            q.smesolve(_H, _PSI, [0.0, 1.0], sc_ops=_C, options={**_MC, key: 1})

    def test_mcsolve_refuses_dt_sub_and_diag_expm(self):
        with no_integration():
            with pytest.raises(OptionError, match="dt_sub"):
                q.mcsolve(_H, _PSI, [0.0, 1.0], _C, options={**_MC, "dt_sub": 0.01})
            with pytest.raises(MethodError, match="diag_expm"):
                q.mcsolve(_H, _PSI, [0.0, 1.0], _C, options={**_MC, "method": "diag_expm"})
            with pytest.raises(MethodError):
                q.mcsolve(_H, _PSI, [0.0, 1.0], (), options={"method": "diag_expm"})

    @pytest.mark.parametrize("ntraj", [2.5, True, "3", None])
    def test_ntraj_must_be_an_int(self, ntraj):
        with pytest.raises(OptionError, match="'ntraj' must be int"):
            McOptions.coerce({"ntraj": ntraj})
        with pytest.raises(OptionError, match="ntraj"):
            McOptions.coerce(McOptions(ntraj=ntraj))

    @pytest.mark.parametrize("tol, error", [("x", OptionError), ((0.1, 0.2, 0.3), OptionError),
                                            ((0.1, "x"), OptionError), (True, OptionError),
                                            (-0.1, RangeError), ((0.1, -1.0), RangeError),
                                            (np.nan, RangeError)])
    def test_target_tol_is_parsed_at_entry(self, tol, error):
        with no_integration(), pytest.raises(error, match="target_tol"):
            q.mcsolve(_H, _PSI, [0.0, 1.0], _C, _E, options={"ntraj": 60, "target_tol": tol})

    def test_target_tol_forms(self):
        for tol in (0, 0.1, np.float32(0.1), (0.1, 0.0), [0, 1]):
            assert McOptions.coerce({"target_tol": tol}).target_tol is tol

    def test_types(self):
        # int takes numpy integers; float takes any real; X | None takes None.
        opts = McOptions.coerce({"ntraj": np.int64(3), "timeout": 2, "norm_tol": np.float32(1e-6),
                                 "max_step": None, "first_step": 0.1, "map": "parallel"})
        assert opts.ntraj == 3 and opts.integrator.first_step == 0.1
        for key, bad, name in [("atol", True, "float"), ("atol", "1e-8", "float"),
                               ("nsteps", 10.0, "int"), ("max_step", 1j, "float | None"),
                               ("store_states", 1, "bool | None"), ("method", None, "str"),
                               ("store_final_state", "yes", "bool")]:
            with pytest.raises(OptionError, match=rf"'{key}' must be {re.escape(name)}"):
                SolverOptions.coerce({key: bad})

    def test_the_integrator_options_check_their_types(self):
        with pytest.raises(OptionError, match="rtol"):
            DP54Stepper(lambda t, y: -y, 0.0, np.ones(2), IntegratorOptions(rtol="x"), 1.0)

    @pytest.mark.parametrize("e_ops", [["x"], [q.sigmaz(), None], {"a": np.eye(2)}, 5, "x"])
    def test_e_ops_entries_must_be_qobj(self, e_ops):
        with no_integration(), pytest.raises(ArgumentError) as info:
            q.mesolve(_H, _PSI, [0.0, 1.0], _C, e_ops=e_ops)
        assert isinstance(info.value, TypeError)


def malformed_tlists(uniform: bool):
    """Grids that ``check_tlist`` refuses: empty, 2-D, not finite, descending
    and, for ``uniform``, unevenly spaced."""
    finite = st.floats(-10, 10, allow_nan=False)
    grid = st.lists(finite, min_size=1, max_size=4).map(sorted)
    cases = [
        st.just([]),
        grid.map(lambda v: [v, v]),
        st.tuples(grid, st.sampled_from([np.nan, np.inf, -np.inf]), st.integers(0, 4)).map(
            lambda a: a[0][:a[2]] + [a[1]] + a[0][a[2]:]),
        st.lists(finite, min_size=2, max_size=5, unique=True).map(lambda v: sorted(v)[::-1]),
    ]
    if uniform:
        cases.append(st.lists(st.floats(0.01, 1.0), min_size=2, max_size=4)
                     .filter(lambda dt: max(dt) - min(dt) > 1e-6)
                     .map(lambda dt: np.concatenate([[0.0], np.cumsum(dt)]).tolist()))
    return st.one_of(cases)


# Values of the wrong type for each option annotation.  ``target_tol`` is an
# ``object`` whose form ``validated()`` parses.
_WRONG = {
    int: ["x", 2.5, True, None, 1j],
    float: ["x", True, None, 1j, [1.0]],
    float | None: ["x", True, 1j, [1.0]],
    str: [3, None, True, 2.5],
    bool: [1, "yes", None, 0.0],
    bool | None: [1, "yes", 0.0],
    object: ["x", (1.0, 2.0, 3.0), ("x", 0.1), -1.0],
}


_HEOM_BATH = (q.ExponentSet([0.1], [1.0], [], []), q.sigmaz())
_OPTION_CLASSES = {"mcsolve": McOptions, "nm_mcsolve": McOptions, "smesolve": SmeOptions}


def _solve(name, tlist=(0.0, 0.5, 1.0), options=None, e_ops=None, state=_PSI, H=_H):
    """Call solver ``name`` on a qubit with the given inputs."""
    opts = dict(options or {})
    if name in ("mcsolve", "nm_mcsolve", "smesolve"):
        opts = {**_MC, **opts}
    if name == "sesolve":
        return q.sesolve(H, state, tlist, e_ops=e_ops, options=opts)
    if name == "mesolve":
        return q.mesolve(H, state, tlist, _C, e_ops=e_ops, options=opts)
    if name == "mcsolve":
        return q.mcsolve(H, state, tlist, _C, e_ops=e_ops, options=opts)
    if name == "nm_mcsolve":
        return q.nm_mcsolve(H, state, tlist, [(q.sigmam(), 0.5)], e_ops=e_ops, options=opts)
    if name == "smesolve":
        return q.smesolve(H, state, tlist, sc_ops=_C, e_ops=e_ops, options=opts)
    if name == "brmesolve":
        return q.brmesolve(H, [(q.sigmax(), lambda w: 0.1)], state, tlist, e_ops=e_ops,
                           options=opts)
    if name == "heomsolve":
        return q.heomsolve(H, _HEOM_BATH, state, tlist, n_c=1, e_ops=e_ops, options=opts)
    if name == "fsesolve":
        return q.fsesolve(_floquet_basis(), state, tlist, e_ops=e_ops)
    if name == "integrate":
        return integrate(lambda t, y: -1j * y, np.array([1.0 + 0j]), 0.0, tlist, opts)
    raise AssertionError(name)


@functools.cache
def _floquet_basis():
    return q.floquet_basis(_H, 1.0, n_t=8)


def _option_types(name):
    """``{key: annotation}`` of the options ``name`` takes."""
    if name == "fsesolve":
        return {}
    if name == "integrate":
        return typing.get_type_hints(IntegratorOptions)
    cls = _OPTION_CLASSES.get(name, SolverOptions)
    hints = {k: v for k, v in typing.get_type_hints(cls).items() if k != "integrator"}
    if "integrator" in typing.get_type_hints(cls):
        hints.update(typing.get_type_hints(IntegratorOptions))
    return hints


_SOLVERS = ["sesolve", "mesolve", "mcsolve", "nm_mcsolve", "smesolve", "brmesolve", "heomsolve",
            "fsesolve", "integrate"]
# The solvers that take a Hamiltonian, and those of them that need it constant.
_H_SOLVERS = [s for s in _SOLVERS if s not in ("fsesolve", "integrate")]
_CONSTANT_H_SOLVERS = ("brmesolve", "heomsolve")
# The solvers that integrate a ket; the others take a ket or a density operator.
_KET_SOLVERS = ("sesolve", "mcsolve", "nm_mcsolve", "fsesolve", "SESolver.start")


def _malformed_collections(name):
    """``(argument, call)`` pairs that call solver ``name`` with a list, pair or number
    argument of the wrong kind: a single operator for a list, an entry that is not a
    pair, a spectrum that is not callable or returns no number, or a number that is not
    one."""
    T, sx, rate = (0.0, 0.5, 1.0), q.sigmax(), lambda w: 0.1
    return {
        "mesolve": [("c_ops", lambda: q.mesolve(_H, _PSI, T, _C[0]))],
        "mcsolve": [("c_ops", lambda: q.mcsolve(_H, _PSI, T, _C[0], options=_MC)),
                    ("psi0", lambda: q.mcsolve(_H, [_PSI], T, _C, options=_MC)),
                    ("psi0", lambda: q.mcsolve(_H, [(_PSI, "a")], T, _C, options=_MC))],
        "smesolve": [("c_ops", lambda: q.smesolve(_H, _PSI, T, c_ops=_C[0], sc_ops=_C,
                                                  options=_MC)),
                     ("sc_ops", lambda: q.smesolve(_H, _PSI, T, sc_ops=_C[0], options=_MC))],
        "nm_mcsolve": [("ops_and_rates", lambda: q.nm_mcsolve(_H, _PSI, T, [q.sigmam()],
                                                               options=_MC)),
                       ("ops_and_rates", lambda: q.nm_mcsolve(_H, _PSI, T, q.sigmam(),
                                                               options=_MC)),
                       ("operator", lambda: q.nm_mcsolve(_H, _PSI, T, [("x", 0.5)],
                                                         options=_MC))],
        "brmesolve": [("couplings", lambda: q.brmesolve(_H, [sx], _PSI, T)),
                      ("couplings", lambda: q.brmesolve(_H, sx, _PSI, T)),
                      ("couplings", lambda: q.brmesolve(_H, [(sx, 0.1)], _PSI, T)),
                      ("sec_cutoff", lambda: q.brmesolve(_H, [(sx, rate)], _PSI, T,
                                                         sec_cutoff="a")),
                      ("spectrum", lambda: q.brmesolve(_H, [(sx, lambda w: "a")], _PSI, T)),
                      ("spectrum", lambda: q.brmesolve(_H, [(sx, lambda w: 1j)], _PSI, T))],
        "heomsolve": [("baths", lambda: q.heomsolve(_H, [q.sigmaz()], _PSI, T, n_c=1)),
                      ("n_c", lambda: q.heomsolve(_H, _HEOM_BATH, _PSI, T, n_c="x")),
                      ("n_c", lambda: q.heomsolve(_H, _HEOM_BATH, _PSI, T, n_c=1.5)),
                      ("n_k", lambda: q.heomsolve(_H, _HEOM_BATH, _PSI, T, n_c=1, n_k="a"))],
        "fsesolve": [("fb", lambda: q.fsesolve(None, _PSI, T)),
                     ("floquet_basis's T", lambda: q.floquet_basis(_H, "x")),
                     ("floquet_basis's n_t", lambda: q.floquet_basis(_H, 1.0, n_t="x")),
                     ("floquet_basis's n_t", lambda: q.floquet_basis(_H, 1.0, n_t=8.0))],
    }.get(name, [])


def _foreign_states(name):
    """Initial states that are not on the qubit's space, or not of the kind ``name`` takes:
    another size, the same size with other dims or an ENR marker, a bra, and for a ket
    solver a density operator."""
    states = [q.basis(4, 0), q.Qobj(_PSI.full(), dims=[[1, 2], [1, 1]]),
              q.enr_fock([2], 1, [0]), _PSI.dag(), q.basis(4, 0).proj()]
    if name in _KET_SOLVERS:
        states.append(_PSI.proj())
    return states


# Entries that are not operators on the qubit's space: kets, bras, other sizes,
# other dims of the same size, an ENR marker and a non-square operator.
_FOREIGN_E_OPS = [q.basis(2, 0), q.basis(2, 0).dag(), q.qeye(4),
                  q.Qobj(q.sigmaz().full(), dims=[[1, 2], [1, 2]]),
                  q.sigmaz() & q.sigmaz(), q.enr_identity([2], 1),
                  q.Qobj(np.ones((2, 3)))]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_malformed_input_is_a_typed_error(data):
    _floquet_basis()  # built, by integration, before the checks are watched
    name = data.draw(st.sampled_from(_SOLVERS + ["SESolver.step", "SESolver.start"]),
                     label="solver")
    if name == "SESolver.start":
        state = data.draw(st.sampled_from(_foreign_states(name)), label="state")
        with no_integration(), pytest.raises(DimensionMismatchError):
            q.SESolver(_H).start(state, 0.0)
        return
    if name == "SESolver.step":
        solver = q.SESolver(_H)
        solver.start(_PSI, 0.0)
        t = data.draw(st.sampled_from([np.nan, np.inf, -np.inf, -1.0, "x"]), label="t")
        with no_integration(), pytest.raises(OqsimError):
            solver.step(t)
        return
    types_ = _option_types(name)
    kinds = ["tlist"]
    if types_:
        kinds += ["option", "unknown_key"]
    if name != "integrate":
        kinds += ["e_ops", "state", "e_op_dims"]
    if name in _H_SOLVERS:
        kinds += ["hamiltonian"]
    if _malformed_collections(name):
        kinds += ["collections"]
    kind = data.draw(st.sampled_from(kinds), label="kind")
    kwargs = {}
    if kind == "collections":
        argument, call = data.draw(st.sampled_from(_malformed_collections(name)), label="call")
        with no_integration(), pytest.raises(ArgumentError, match=argument):
            call()
        return
    if kind == "hamiltonian":
        # Not an operator: a str, an ndarray, or a list spec with a non-Qobj entry.
        cases = [("x", ArgumentError), (np.eye(2), ArgumentError),
                 ([_H, np.eye(2)], ArgumentError), (["x"], ArgumentError),
                 ([1.0, _H], ArgumentError)]
        if name in _CONSTANT_H_SOLVERS:
            cases.append((q.QobjEvo([_H, [q.sigmaz(), np.cos]]), MethodError))
        H, error = data.draw(st.sampled_from(cases), label="H")
        with no_integration(), pytest.raises(error):
            _solve(name, H=H)
        return
    if kind in ("state", "e_op_dims"):
        if kind == "state":
            kwargs["state"] = data.draw(st.sampled_from(_foreign_states(name)), label="state")
        else:
            entries = [q.sigmaz()]
            entries.insert(data.draw(st.integers(0, 1), label="position"),
                           data.draw(st.sampled_from(_FOREIGN_E_OPS), label="entry"))
            kwargs["e_ops"] = data.draw(st.sampled_from([entries, dict(zip("ab", entries))]),
                                        label="e_ops")
        with no_integration(), pytest.raises(DimensionMismatchError):
            _solve(name, **kwargs)
        return
    if kind == "tlist":
        kwargs["tlist"] = data.draw(malformed_tlists(name == "smesolve"), label="tlist")
    elif kind == "option":
        key = data.draw(st.sampled_from(sorted(types_)), label="key")
        kwargs["options"] = {key: data.draw(st.sampled_from(_WRONG[types_[key]]), label="value")}
    elif kind == "unknown_key":
        key = data.draw(st.text(min_size=1, max_size=8).filter(lambda k: k not in types_),
                        label="key")
        kwargs["options"] = {key: 1}
    else:
        bad = data.draw(st.sampled_from(["x", 1.0, None, np.eye(2), q.sigmaz().full()]),
                        label="entry")
        at = data.draw(st.integers(0, 1), label="position")
        entries = [q.sigmaz()]
        entries.insert(at, bad)
        kwargs["e_ops"] = data.draw(st.sampled_from([entries, dict(zip("ab", entries))]),
                                    label="e_ops")
    with no_integration(), pytest.raises(OqsimError):
        _solve(name, **kwargs)


class TestOneInputGate:
    """Each solver that took a state, an e_op or a jump operator off the system's
    space without a typed error, on two qubits: every such input is now a
    :class:`DimensionMismatchError` before integration, and a zero initial state
    of a trajectory solver a :class:`RangeError`.  Every entry point that needs a
    constant operator takes it through ``result.constant_operator``: a
    time-dependent one is a :class:`MethodError`, a non-operator an
    :class:`ArgumentError`, and a constant QobjEvo or list spec runs as its value."""

    H = q.sigmaz() & q.qeye(2)
    C = [q.sigmam() & q.qeye(2)]
    PSI = q.basis(2, 0) & q.basis(2, 0)
    E = [q.sigmaz() & q.qeye(2)]
    T = [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("case", [
        "mcsolve_qubit_ket", "nm_mcsolve_qubit_ket", "mcsolve_qubit_mixture",
        "mcsolve_flat_ket", "nm_mcsolve_flat_ket", "mcsolve_qubit_e_op", "mcsolve_ket_e_op",
        "fsesolve_qubit_pair_e_op", "fsesolve_ket_e_op", "smesolve_qubit_e_op",
        "smesolve_ket_e_op", "smesolve_qubit_sc_op", "smesolve_qubit_c_op",
        "nm_mcsolve_qubit_jump_op"])
    def test_foreign_input_is_a_dimension_error(self, case):
        H, C, psi, E, T = self.H, self.C, self.PSI, self.E, self.T
        qubit, flat = q.basis(2, 0), q.basis(4, 0)
        calls = {
            "mcsolve_qubit_ket": lambda: q.mcsolve(H, qubit, T, C, options=_MC),
            "nm_mcsolve_qubit_ket": lambda: q.nm_mcsolve(H, qubit, T, [(C[0], 0.5)],
                                                         options=_MC),
            "mcsolve_qubit_mixture": lambda: q.mcsolve(H, [(psi, 0.5), (qubit, 0.5)], T, C,
                                                       options=_MC),
            "mcsolve_flat_ket": lambda: q.mcsolve(H, flat, T, C, options=_MC),
            "nm_mcsolve_flat_ket": lambda: q.nm_mcsolve(H, flat, T, [(C[0], 0.5)], options=_MC),
            "mcsolve_qubit_e_op": lambda: q.mcsolve(H, psi, T, C, e_ops=[q.sigmaz()],
                                                    options=_MC),
            "mcsolve_ket_e_op": lambda: q.mcsolve(H, psi, T, C, e_ops=[psi], options=_MC),
            "fsesolve_qubit_pair_e_op": lambda: q.fsesolve(_floquet_basis(), _PSI, T,
                                                           e_ops=[E[0]]),
            "fsesolve_ket_e_op": lambda: q.fsesolve(_floquet_basis(), _PSI, T, e_ops=[_PSI]),
            "smesolve_qubit_e_op": lambda: q.smesolve(H, psi, T, sc_ops=C, e_ops=[q.sigmaz()],
                                                      options=_MC),
            "smesolve_ket_e_op": lambda: q.smesolve(H, psi, T, sc_ops=C, e_ops=[psi],
                                                    options=_MC),
            "smesolve_qubit_sc_op": lambda: q.smesolve(H, psi, T, sc_ops=[q.sigmam()],
                                                       options=_MC),
            "smesolve_qubit_c_op": lambda: q.smesolve(H, psi, T, c_ops=[q.sigmam()], sc_ops=C,
                                                      options=_MC),
            "nm_mcsolve_qubit_jump_op": lambda: q.nm_mcsolve(H, psi, T, [(q.sigmam(), 0.5)],
                                                             options=_MC),
        }
        _floquet_basis()
        gate = "the initial state must be a ket on|dims .* do not match"
        with no_integration(), pytest.raises(DimensionMismatchError, match=gate):
            calls[case]()

    @pytest.mark.parametrize("name", [s for s in _SOLVERS if s != "integrate"])
    def test_a_state_that_is_not_a_qobj_is_an_argument_error(self, name):
        _floquet_basis()
        with no_integration(), pytest.raises(ArgumentError, match="must be a Qobj"):
            _solve(name, state=_PSI.full())

    @pytest.mark.parametrize("solve", [q.sesolve, q.mesolve, q.mcsolve])
    def test_without_c_ops_a_state_that_is_not_a_qobj_is_an_argument_error(self, solve):
        with no_integration(), pytest.raises(ArgumentError, match="must be a Qobj"):
            solve(_H, _PSI.full(), self.T)

    def test_mcsolve_refuses_a_zero_state(self):
        with no_integration(), pytest.raises(RangeError, match="zero norm"):
            q.mcsolve(self.H, 0 * self.PSI, self.T, self.C, options=_MC)

    def test_nm_mcsolve_refuses_a_zero_state(self):
        with no_integration(), pytest.raises(RangeError, match="zero norm"):
            q.nm_mcsolve(self.H, 0 * self.PSI, self.T, [(self.C[0], 0.5)], options=_MC)

    def test_smesolve_refuses_a_zero_state(self):
        for rho0 in (0 * self.PSI, 0 * self.PSI.proj(), self.E[0]):  # E[0] has zero trace
            with no_integration(), pytest.raises(RangeError, match="zero trace"):
                q.smesolve(self.H, rho0, self.T, sc_ops=self.C, e_ops=self.E, options=_MC)

    def test_the_enr_marker_is_compared(self):
        a = q.enr_destroy([2, 2], 1)
        n = a[0].dag() @ a[0]
        psi = q.enr_fock([2, 2], 1, [1, 0])
        res = q.mcsolve(n, psi, self.T, [a[0]], e_ops=[n], options=_MC)
        assert res.expect[0].shape == (3,)
        flat = q.basis(3, 1)  # the same size, without the marker
        with no_integration(), pytest.raises(DimensionMismatchError):
            q.mcsolve(n, flat, self.T, [a[0]], options=_MC)
        with no_integration(), pytest.raises(DimensionMismatchError):
            q.mcsolve(n, psi, self.T, [a[0]], e_ops=[q.qeye(3)], options=_MC)

    @staticmethod
    def _constant_entry(case, op):
        """Call the entry point of ``case`` with ``op`` where it needs a constant operator."""
        ex, rate, T = _HEOM_BATH[0], lambda w: 0.1, TestOneInputGate.T
        calls = {
            "steadystate_H": lambda: q.steadystate(op, [q.sigmam()]),
            "steadystate_c_op": lambda: q.steadystate(_H, [q.sigmam(), op]),
            "smesolve_c_op": lambda: q.smesolve(_H, _PSI, [0.0, 0.1], c_ops=[op], sc_ops=_C,
                                                options=_MC),
            "smesolve_sc_op": lambda: q.smesolve(_H, _PSI, [0.0, 0.1], sc_ops=[op],
                                                 options=_MC),
            "hierarchy_build_H": lambda: q.hierarchy_build(op, q.sigmaz(), ex, 1),
            "hierarchy_build_Q": lambda: q.hierarchy_build(_H, op, ex, 1),
            "heomsolve_H": lambda: _solve("heomsolve", H=op),
            "heomsolve_Q": lambda: q.heomsolve(_H, (ex, op), _PSI, T, n_c=1),
            "br_tensor_H": lambda: q.br_tensor(op, [(q.sigmax(), rate)]),
            "br_tensor_coupling": lambda: q.br_tensor(_H, [(op, rate)]),
            "brmesolve_H": lambda: _solve("brmesolve", H=op),
            "brmesolve_coupling": lambda: q.brmesolve(_H, [(op, rate)], _PSI, T),
            "nm_mcsolve_jump_op": lambda: q.nm_mcsolve(_H, _PSI, T, [(op, 0.5)], options=_MC),
        }
        with no_integration():
            return calls[case]()

    _CONSTANT_ENTRIES = ["steadystate_H", "steadystate_c_op", "smesolve_c_op", "smesolve_sc_op",
                         "hierarchy_build_H", "hierarchy_build_Q", "heomsolve_H", "heomsolve_Q",
                         "br_tensor_H", "br_tensor_coupling", "brmesolve_H",
                         "brmesolve_coupling", "nm_mcsolve_jump_op"]

    @pytest.mark.parametrize("c_ops", [q.sigmam(), q.QobjEvo(q.sigmam()), None],
                             ids=["Qobj", "QobjEvo", "None"])
    def test_steadystate_c_ops_that_are_not_a_list_are_an_argument_error(self, c_ops):
        with pytest.raises(ArgumentError, match="c_ops must be a list"):
            q.steadystate(_H, c_ops)

    @pytest.mark.parametrize("case", _CONSTANT_ENTRIES)
    def test_a_time_dependent_operator_is_a_method_error(self, case):
        op = q.QobjEvo([q.sigmaz(), [q.sigmax(), np.cos]])
        with pytest.raises(MethodError, match="must be time-independent"):
            self._constant_entry(case, op)

    @pytest.mark.parametrize("op", ["x", np.eye(2), [q.sigmaz(), np.eye(2)]],
                             ids=["str", "ndarray", "list_with_ndarray"])
    @pytest.mark.parametrize("case", _CONSTANT_ENTRIES)
    def test_a_non_operator_is_an_argument_error(self, case, op):
        with pytest.raises(ArgumentError):
            self._constant_entry(case, op)

    @pytest.mark.parametrize("form", ["list_spec", "QobjEvo"])
    @pytest.mark.parametrize("solver", ["heomsolve", "brmesolve", "steadystate"])
    def test_a_constant_spec_gives_the_bytes_of_its_value(self, solver, form):
        """``[A, B]`` and ``QobjEvo(A + B)`` run as the Qobj ``A + B``; so does a coupling
        or collapse operator given as ``[Q]`` or ``QobjEvo(Q)``."""
        A, B = 0.5 * q.sigmaz(), 0.3 * q.sigmax()
        Q, c = q.sigmaz(), np.sqrt(0.2) * q.sigmam()
        T, e_ops = [0.0, 0.5, 1.0], [q.sigmaz(), q.sigmax()]

        def run(H, wrap):
            if solver == "heomsolve":
                res = q.heomsolve(H, (_HEOM_BATH[0], wrap(Q)), _PSI, T, n_c=2, e_ops=e_ops)
                return [*res.expect, res.final_ados]
            if solver == "brmesolve":
                res = q.brmesolve(H, [(wrap(Q), lambda w: 0.1 * (w > 0)),
                                      (c + c.dag(), lambda w: 0.05)], _PSI, T, e_ops=e_ops)
                return res.expect
            return [q.steadystate(H, [wrap(c), 0.1 * Q]).full()]

        expected = run(A + B, lambda op: op)
        if form == "list_spec":
            got = run([A, B], lambda op: [op])
        else:
            got = run(q.QobjEvo(A + B), q.QobjEvo)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    @pytest.mark.parametrize("wrap", [lambda op: [op], q.QobjEvo], ids=["list_spec", "QobjEvo"])
    def test_nm_mcsolve_runs_a_constant_jump_operator_spec_as_its_value(self, wrap):
        c, rate = np.sqrt(0.2) * q.sigmam(), lambda t: 0.5 * np.cos(t)

        def run(op):
            res = q.nm_mcsolve(_H, _PSI, self.T, [(op, rate), (q.sigmaz(), 0.1)],
                               e_ops=[q.sigmaz()], options=_MC)
            return [*res.expect, res.trace]

        got, expected = run(wrap(c)), run(c)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


def loop_step(self):
    """``DP54Stepper.step`` as it was before the stages became one tableau-row
    product each: a Python loop over the nonzero tableau entries, and the
    ``mean(abs(v)**2)`` RMS norm, in stage form whatever the stepper's form.
    It is the oracle the tableau-product and power-form steps are compared
    with; stage ``K`` is 2-D for the 1-D states the stepper takes, so it
    needs no flattening."""
    if self.t >= self.t_end:
        raise RuntimeError("stepper already reached the end of its domain")
    while True:
        self._clamp_h()
        h = self._h
        if h <= 16 * np.finfo(float).eps * max(abs(self.t), 1.0):
            raise StiffnessError(
                f"step size underflow at t={self.t:.6g}; the problem is likely stiff"
            )
        K = np.empty((7,) + self.y.shape, dtype=np.complex128)
        K[0] = self._f0
        for i in range(1, 7):
            a = _LOOP_A[i]
            yi = self.y + (h * a[0]) * K[0]
            for j in range(1, i):
                if a[j] != 0.0:
                    yi += (h * a[j]) * K[j]
            K[i] = self._eval(self.t + _LOOP_C[i] * h, yi)
        y_new = self.y + (h * _LOOP_B[0]) * K[0]
        for j in range(2, 6):
            y_new += (h * _LOOP_B[j]) * K[j]
        err_vec = (h * _LOOP_E[0]) * K[0]
        for j in range(2, 7):
            err_vec += (h * _LOOP_E[j]) * K[j]
        scale = self.opts.atol + self.opts.rtol * np.maximum(np.abs(self.y), np.abs(y_new))
        err = _loop_rms(err_vec / scale)
        if err <= 1.0:
            # PI controller (accepted): grow within [0.2, 5].
            if err == 0.0:
                factor = 5.0
            else:
                factor = min(
                    5.0, max(0.2, 0.9 * err ** (-0.17) * self._err_prev**0.04)
                )
            seg = DenseSegment(self.t, self.t + h, self.y.copy(), K)
            self.t = self.t + h
            self.y = y_new
            self._f0 = K[6]  # FSAL
            self._err_prev = max(err, 1e-4)
            self._h = h * factor
            self.segment = seg
            self.accepted += 1
            return seg
        self.rejected += 1
        self._h = h * max(0.2, 0.9 * err ** (-0.2))


def lawson_loop_step(self):
    """The decay-form step as a term-by-term loop, the oracle of ``DP54Stepper.step``
    on a stepper with ``decay=D``: Lawson's method on ``u = e^(-Ds) y``, each
    stage scaled by ``e^(+-c h D)`` from ``np.exp``, the new state ``e^(hD)``
    times the weighted sum, the FSAL derivative ``e^(hD) K_6`` and the error
    ``e^(hD) h E K`` in the max norm."""
    if self.t >= self.t_end:
        raise RuntimeError("stepper already reached the end of its domain")
    D = self.decay
    while True:
        self._clamp_h()
        h = self._h
        if h <= 16 * np.finfo(float).eps * max(abs(self.t), 1.0):
            raise StiffnessError(
                f"step size underflow at t={self.t:.6g}; the problem is likely stiff"
            )
        K = np.empty((7,) + self.y.shape, dtype=np.complex128)
        K[0] = self._f0
        for i in range(1, 7):
            a = _LOOP_A[i]
            ui = self.y + (h * a[0]) * K[0]
            for j in range(1, i):
                if a[j] != 0.0:
                    ui += (h * a[j]) * K[j]
            fi = self._eval(self.t + _LOOP_C[i] * h, np.exp(_LOOP_C[i] * h * D) * ui)
            K[i] = np.exp(-_LOOP_C[i] * h * D) * fi
        u_new = self.y + (h * _LOOP_B[0]) * K[0]
        for j in range(2, 6):
            u_new += (h * _LOOP_B[j]) * K[j]
        err_vec = (h * _LOOP_E[0]) * K[0]
        for j in range(2, 7):
            err_vec += (h * _LOOP_E[j]) * K[j]
        y_new = np.exp(h * D) * u_new
        err_vec = np.exp(h * D) * err_vec
        scale = self.opts.atol + self.opts.rtol * np.maximum(np.abs(self.y), np.abs(y_new))
        err = float(np.max(np.abs(err_vec) / scale, initial=0.0))
        if err <= 1.0:
            if err == 0.0:
                factor = 5.0
            else:
                factor = min(
                    5.0, max(0.2, 0.9 * err ** (-0.17) * self._err_prev**0.04)
                )
            seg = DenseSegment(self.t, self.t + h, self.y.copy(), K, decay=D)
            self.t = self.t + h
            self.y = y_new
            self._f0 = np.exp(h * D) * K[6]  # FSAL, back in y
            self._err_prev = max(err, 1e-4)
            self._h = h * factor
            self.segment = seg
            self.accepted += 1
            return seg
        self.rejected += 1
        self._h = h * max(0.2, 0.9 * err ** (-0.2))


def oracle_step(self):
    """``lawson_loop_step`` for a decay-form stepper, ``loop_step`` for any other."""
    return loop_step(self) if self.decay is None else lawson_loop_step(self)


def _loop_rms(v) -> float:
    v = np.asarray(v)
    if v.size == 0:
        return 0.0
    return float(np.sqrt(np.mean(np.abs(v) ** 2)))


_LOOP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_LOOP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_LOOP_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_LOOP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


# The ten digest cases that step DP54.  Each returns its outputs as named
# groups of arrays, in digest order, and the result object (or None).
def _mc_qubits(**extra):
    I2 = q.qeye(2)
    H = 0.5 * (q.sigmaz() & I2) + 0.5 * (I2 & q.sigmaz()) + 0.1 * (q.sigmax() & q.sigmax())
    c_ops = [np.sqrt(0.1) * (q.sigmam() & I2), np.sqrt(0.1) * (I2 & q.sigmam())]
    return q.mcsolve(H, q.basis(2, 0) & q.basis(2, 0), np.linspace(0, 20, 21), c_ops=c_ops,
                     e_ops=[q.sigmaz() & I2],
                     options={"ntraj": 40, "seed": 5, "improved_sampling": True, **extra})


def _heom(n_c, **kwargs):
    env = q.DrudeLorentzEnvironment(T=1.0, lam=0.1, gamma=0.5)
    ex = q.matsubara_decompose(env, 2)
    return q.heomsolve(0.5 * q.sigmaz() + 0.3 * q.sigmax(), (ex, q.sigmaz()), q.basis(2, 0),
                       np.linspace(0, 5, 11), n_c=n_c, **kwargs)


def _td_qubit():
    return q.QobjEvo([0.5 * q.sigmaz() + 0.4 * q.sigmax(), [q.sigmay(), lambda t: np.sin(t)]])


def case_mcsolve():
    res = _mc_qubits()
    return {"expect": list(res.expect)}, res


def case_heomsolve():
    res = _heom(4, e_ops=[q.sigmaz(), q.sigmax()])
    return {"expect": list(res.expect)}, res


def case_mesolve_time_dependent():
    a = q.destroy(4)
    H = q.QobjEvo([a.dag() @ a, [a + a.dag(), lambda t: 0.3 * np.cos(2.0 * t)]])
    res = q.mesolve(H, q.basis(4, 0), np.linspace(0, 3, 7), c_ops=[np.sqrt(0.2) * a],
                    e_ops=[a.dag() @ a, a], options={"store_states": True})
    return {"expect": list(res.expect), "states": [s.full() for s in res.states]}, res


def case_sesolve():
    res = q.sesolve(_td_qubit(), q.basis(2, 0), np.linspace(0, 4, 9),
                    e_ops=[q.sigmaz(), q.sigmap()], options={"store_states": True})
    return {"expect": list(res.expect), "states": [s.full() for s in res.states]}, res


def case_sesolver_step():
    solver = q.SESolver(_td_qubit())
    solver.start(q.basis(2, 0), 0.0)
    return {"states": [solver.step(t).full() for t in (0.3, 0.3, 1.0, 2.5, 4.0)]}, None


def case_integrate():
    M = np.array([[0.0, 1.0, 0.2], [-1.0, -0.1, 0.0], [0.0, 0.3, -0.5]], dtype=complex)
    ys, seg = integrate(lambda t, y: (M + 0.2j * np.sin(t) * np.eye(3)) @ y,
                        np.array([1.0, 0.5j, -0.25]), 0.0, np.linspace(0, 6, 13),
                        IntegratorOptions(atol=1e-9, rtol=1e-7))
    return {"states": ys + [seg(seg.t_new)]}, None


def case_heomsolve_states_and_ados():
    res = _heom(3, options={"store_states": True})
    return {"states": [s.full() for s in res.states] + [res.final_ados]}, res


def case_mcsolve_runs_photocurrent_states():
    res = _mc_qubits(keep_runs_results=True, store_states=True)
    return {"runs_expect": list(res.runs_expect), "photocurrent": list(res.photocurrent),
            "states": [s.full() for s in res.states], "weights": [np.array(res.weights)]}, res


def case_mesolve_constant():
    a = q.destroy(4)
    H = a.dag() @ a + 0.2 * (a + a.dag())
    res = q.mesolve(H, q.basis(4, 0), np.linspace(0, 3, 7),
                    c_ops=[np.sqrt(0.2) * a, np.sqrt(0.05) * a.dag()],
                    e_ops=[a.dag() @ a, a], options={"store_states": True})
    return {"expect": list(res.expect), "states": [s.full() for s in res.states]}, res


def case_nm_mcsolve():
    res = q.nm_mcsolve(0.5 * q.sigmaz(), (q.basis(2, 0) + q.basis(2, 1)).unit(),
                       np.linspace(0, 6, 13), [(q.sigmam(), lambda t: 0.5 * np.cos(t) + 0.2)],
                       e_ops=[q.sigmaz(), q.sigmap()], options={"ntraj": 20, "seed": 4})
    return {"expect": list(res.expect), "trace": [res.trace]}, res


def _nm_spline_jc(ntraj, seed):
    """Criterion 11's damped Jaynes-Cummings unraveling with spline rate and
    spline energy shift, on 301 knots over [0, 3]."""
    lam, Gam = 1.0, 0.3
    Delta = 8 * Gam
    delta = np.sqrt(complex(Gam - 1j * Delta) ** 2 - 2 * lam * Gam)
    ts = np.linspace(0, 3, 301)
    val = 2 * lam * Gam * np.sinh(delta * ts / 2) / (
        delta * np.cosh(delta * ts / 2) + (Gam - 1j * Delta) * np.sinh(delta * ts / 2))
    H = q.QobjEvo([[q.sigmap() @ q.sigmam(), (ts, 0.5 * val.imag)]])
    return q.nm_mcsolve(H, (q.basis(2, 0) + q.basis(2, 1)).unit(), np.linspace(0, 3, 31),
                        [(q.sigmam(), (ts, val.real))], e_ops=[q.sigmap() @ q.sigmam()],
                        options={"ntraj": ntraj, "seed": seed})


def _mc_decay(psi0, **options):
    """A driven, decaying qubit unraveled by mcsolve, keeping runs and states."""
    return q.mcsolve(0.5 * q.sigmax(), psi0, np.linspace(0, 2, 5), [np.sqrt(0.5) * q.sigmam()],
                     e_ops=[q.sigmaz(), q.sigmap()],
                     options={"keep_runs_results": True, "store_states": True, **options})


def _nm_cosine(**options):
    return q.nm_mcsolve(0.5 * q.sigmaz(), (q.basis(2, 0) + q.basis(2, 1)).unit(),
                        np.linspace(0, 6, 13), [(q.sigmam(), lambda t: 0.5 * np.cos(t) + 0.2)],
                        e_ops=[q.sigmaz(), q.sigmap()],
                        options={"ntraj": 20, "seed": 4, "keep_runs_results": True,
                                 "store_states": True, **options})


def _sme_cavity(**options):
    a = q.destroy(4)
    return q.smesolve(a.dag() @ a, q.coherent(4, 0.5), np.linspace(0, 0.5, 6),
                      c_ops=[np.sqrt(0.1) * a.dag()], sc_ops=[a], e_ops=[a + a.dag(), a],
                      options={"keep_runs_results": True, "store_states": True, **options})


_MIXTURE = [(q.basis(2, 0), 0.7), (q.basis(2, 1), 0.3)]

# Ensemble outputs that the digests above do not pin: mixtures, early stops,
# state-only runs, time-dependent collapse rates, the martingale-weighted
# runs and states of nm_mcsolve, and smesolve's runs and early stop.
ENSEMBLE_CASES = {
    "mcsolve_mixture": lambda: _mc_decay(_MIXTURE, ntraj=30, seed=2),
    "mcsolve_mixture_improved": lambda: _mc_decay(_MIXTURE, ntraj=30, seed=2,
                                                  improved_sampling=True),
    "mcsolve_target_tol": lambda: _mc_decay(q.basis(2, 0), ntraj=400, seed=2,
                                            target_tol=0.045),
    "mcsolve_states_only": lambda: q.mcsolve(
        0.5 * q.sigmax(), q.basis(2, 0), np.linspace(0, 2, 5), [np.sqrt(0.5) * q.sigmam()],
        options={"ntraj": 20, "seed": 3, "store_states": True}),
    "mcsolve_time_dependent_rate": lambda: q.mcsolve(
        0.5 * q.sigmax(), q.basis(2, 0), np.linspace(0, 2, 5),
        [q.QobjEvo([[q.sigmam(), lambda t: np.sqrt(0.5) * np.exp(-0.3 * t)]])],
        e_ops=[q.sigmaz()], options={"ntraj": 20, "seed": 3, "keep_runs_results": True}),
    "nm_mcsolve_runs_states": lambda: _nm_cosine(),
    "nm_mcsolve_runs_states_improved": lambda: _nm_cosine(improved_sampling=True),
    "smesolve_runs_states": lambda: _sme_cavity(ntraj=7, seed=3),
    "smesolve_target_tol": lambda: _sme_cavity(ntraj=200, seed=4, target_tol=0.0025),
}


ENSEMBLE_DIGESTS = {
    "mcsolve_mixture":
        "bdf591e6a3d4c8156b8f5d0aeca69ff2de4f965b393d19fa2ad8176d4c0ef622",
    "mcsolve_mixture_improved":
        "dfd556bdeb71c0dfb412073bff84ebd27dac2dda3b35ad0fbd0cc62c73b1e82d",
    "mcsolve_target_tol":
        "6f6277c623e4d8426d192d3a12631388d9f3494a08033b35ae9529f384efa4fd",
    "mcsolve_states_only":
        "a31acf0b0005e97722b390a4e7ca28bb22b6bc8a0c9f20fe5de3bb3a73528df8",
    "mcsolve_time_dependent_rate":
        "0b2259aa2193354eb7e605a1209bf1290508c69a77a6357c14dc414e89b20de9",
    "nm_mcsolve_runs_states":
        "4e1caa2e93d8370ae427197bca1e25f3638e4fe92a89e3d25d27cf6549c24e95",
    "nm_mcsolve_runs_states_improved":
        "9cc88ae4af534e214a149dc4b48c1ae83247425d97ce2233bc78fedd646bc7de",
    "smesolve_runs_states":
        "44a9d74f5a826e8b4a7c094bc059e17703101a18f1e2411c4c24d329991ff546",
    "smesolve_target_tol":
        "bffee8b5af0fa17fdfab175d30d05f8e18aedf9a768d7e52a1306a121f55f0c4",
}


def ensemble_arrays(res):
    """Every ensemble output of a trajectory result, as arrays in a fixed order."""
    arrays = list(res.expect) + list(res.std_expect) + list(res.runs_expect or [])
    arrays += [s.full() for s in res.states or []]
    arrays += [res.weights, np.array(res.seeds), np.array([res.ntraj_used])]
    arrays += [a for a in (res.trace, res.trace_std) if a is not None]
    arrays += list(res.photocurrent or []) + list(res.measurements or [])
    return arrays


DP54_CASES = {
    "mcsolve": case_mcsolve,
    "heomsolve": case_heomsolve,
    "mesolve_time_dependent": case_mesolve_time_dependent,
    "sesolve": case_sesolve,
    "sesolver_step": case_sesolver_step,
    "integrate": case_integrate,
    "heomsolve_states_and_ados": case_heomsolve_states_and_ados,
    "mcsolve_runs_photocurrent_states": case_mcsolve_runs_photocurrent_states,
    "mesolve_constant": case_mesolve_constant,
    "nm_mcsolve": case_nm_mcsolve,
}
# Trajectory outputs move with the jump times, which bisection locates to
# norm_tol = 1e-8; the ensemble weights and the martingale trace do not.
MC_CASES = {"mcsolve", "mcsolve_runs_photocurrent_states", "nm_mcsolve"}
MC_TOL = {"expect": 1e-7, "runs_expect": 1e-7, "states": 1e-7, "weights": 1e-13,
          "trace": 1e-13, "photocurrent": 0.0}
DET_TOL = 1e-13


def _flat(groups):
    return [a for arrays in groups.values() for a in arrays]


class TestDenseOutputBytes:
    """Solver outputs, byte for byte, against fixed-seed digests.

    The ten digests of solves that step DP54 were re-recorded when each
    stage became one tableau-row product (``test_tableau_step_matches_loop_step``
    bounds the change against the loop it replaced).  Building the
    interpolant coefficients only for the steps that are evaluated, and
    running every solver on the one ``advance`` loop, did not change a bit.
    The digests of solves with a constant generator (mcsolve with constant
    collapse operators, heomsolve, constant mesolve) were re-recorded again
    when those solves moved to the power-form step, behind the same oracle.
    The six mcsolve digests were re-recorded once more when a restart in a
    single basis state began exactly in it, without the global phase of the
    collapsed ket (outputs moved by at most 1.8e-15).  The loop-step
    comparison runs with restart sharing off, so every step of both sides
    runs ``step``.  The two heomsolve digests were re-recorded when the
    hierarchy moved to the decay form (outputs moved by at most 3.9e-8,
    within the tolerances); its oracle is ``lawson_loop_step``.  They were
    re-recorded again when the Drude-Lorentz bath's imaginary-part exponent
    came to share its real-part twin's hierarchy index (70 -> 35 and 35 -> 20
    ADOs; outputs moved by at most 1.4e-9).  ``TestMergedExponents`` in
    ``test_heom.py`` shows the two hierarchies equivalent.
    """

    @staticmethod
    def digest_arrays(arrays):
        return hashlib.sha256(
            b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)
        ).hexdigest()

    def dp54_digest(self, name):
        groups, _ = DP54_CASES[name]()
        return self.digest_arrays(_flat(groups))

    @staticmethod
    def run_recorded(name, step, monkeypatch):
        """Run one case with ``step`` as ``DP54Stepper.step``; return its
        outputs, total RHS calls, accepted steps, per-trajectory jump channels
        and rejected attempts (of all steppers, and of power-form ones)."""
        steppers, steps, channels = [], [0], []
        init = DP54Stepper.__init__

        def recording_init(stepper, *args, **kwargs):
            init(stepper, *args, **kwargs)
            steppers.append(stepper)

        def counting_step(stepper):
            steps[0] += 1
            return step(stepper)

        mc = importlib.import_module("oqsim.mcsolve")
        mcwf = mc._mcwf_trajectory

        def recording_mcwf(*args, **kwargs):
            kwargs["restarts"] = None  # no replayed steps: every step runs ``step``
            traj = mcwf(*args, **kwargs)
            channels.append([k for _, k in traj.jumps])
            return traj

        monkeypatch.setattr(DP54Stepper, "__init__", recording_init)
        monkeypatch.setattr(DP54Stepper, "step", counting_step)
        monkeypatch.setattr(mc, "_mcwf_trajectory", recording_mcwf)
        try:
            groups, res = DP54_CASES[name]()
        finally:
            monkeypatch.undo()
        rejected = (sum(s.rejected for s in steppers),
                    sum(s.rejected for s in steppers if s.linear))
        return groups, res, sum(s.nfev for s in steppers), steps[0], channels, rejected

    @pytest.mark.parametrize("name", list(DP54_CASES))
    def test_tableau_step_matches_loop_step(self, name, monkeypatch):
        old, old_res, old_nfev, old_steps, old_jumps, old_rejected = self.run_recorded(
            name, oracle_step, monkeypatch)
        new, new_res, new_nfev, new_steps, new_jumps, new_rejected = self.run_recorded(
            name, DP54Stepper.step, monkeypatch)
        # A power-form step forms its six products once, so its rejected
        # attempts make no RHS call; the stage form spends six on each.
        saved = 6 * old_rejected[1]
        assert new_steps == old_steps
        assert new_rejected == old_rejected
        assert new_nfev == old_nfev - saved
        if old_res is not None and "rhs_evaluations" in old_res.stats:
            assert new_res.stats["rhs_evaluations"] == old_res.stats["rhs_evaluations"] - saved
        assert new_jumps == old_jumps
        for group in old:
            tol = MC_TOL[group] if name in MC_CASES else DET_TOL
            for a, b in zip(old[group], new[group], strict=True):
                assert np.asarray(a).shape == np.asarray(b).shape
                assert np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) <= tol, group

    def test_mcsolve(self):
        assert self.dp54_digest("mcsolve") == (
            "768bf4b2101676b1d15a055224bb93f3f8ace4c2274d0e43427f9ca2db4dd857"
        )

    @pytest.mark.parametrize("name", list(ENSEMBLE_CASES))
    def test_ensemble_outputs(self, name):
        arrays = ensemble_arrays(ENSEMBLE_CASES[name]())
        assert self.digest_arrays(arrays) == ENSEMBLE_DIGESTS[name]

    def test_heomsolve(self):
        assert self.dp54_digest("heomsolve") == (
            "78a2b64130f4ce8e47ab5472ae5a9820d74fcdb91c4762da18463f605f6c7929"
        )

    def test_mesolve_time_dependent(self):
        assert self.dp54_digest("mesolve_time_dependent") == (
            "a76193d9d40c018d0a985f440f45895a6f4135afedbda9aac8c2bd5bef27bbf1"
        )

    def test_sesolve(self):
        assert self.dp54_digest("sesolve") == (
            "dc0521d22c9b27274208e9127f301ce5e8fef011c84021b8c4861c7ac35b3e04"
        )

    def test_sesolver_step(self):
        assert self.dp54_digest("sesolver_step") == (
            "39c6cb9d531d933e5b13f7b3306c77555b6efa4c2c85ef805744680bf3c894cb"
        )

    def test_integrate(self):
        assert self.dp54_digest("integrate") == (
            "fe2ed336a0f74b2df3113123d7b74c3129c65a9022a88e14bf0addbf77c7f448"
        )

    def test_heomsolve_states_and_ados(self):
        groups, res = case_heomsolve_states_and_ados()
        assert res.stats["rhs_evaluations"] == 404
        assert self.digest_arrays(_flat(groups)) == (
            "ad687fabbb56d1878106349cf52f1380db51ee839aab498040af847f1725408c"
        )

    def test_mcsolve_runs_photocurrent_states(self):
        assert self.dp54_digest("mcsolve_runs_photocurrent_states") == (
            "4b41f23e83edf27874a89ad18ea3eb3f38b323a3addcdb3bd67347ed90b31878"
        )

    def test_mesolve_constant(self):
        assert self.dp54_digest("mesolve_constant") == (
            "e2e40a2c5cb7387e5b9a08cf1ac2508242754739334df78d7a939604867b1c79"
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
        assert self.dp54_digest("nm_mcsolve") == (
            "3deb49ccd1b7ee2b0a27d94b94807270b9c75371c84e1daa818fe0341901dd12"
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

    def test_nm_mcsolve_spline(self, monkeypatch):
        mc = importlib.import_module("oqsim.mcsolve")
        mcwf, jumps = mc._mcwf_trajectory, []

        def recording_mcwf(*args, **kwargs):
            kwargs["restarts"] = None  # no replayed steps: every step runs ``step``
            traj = mcwf(*args, **kwargs)
            jumps.extend(traj.jumps)
            return traj

        monkeypatch.setattr(mc, "_mcwf_trajectory", recording_mcwf)
        res = _nm_spline_jc(ntraj=40, seed=11)
        monkeypatch.undo()
        assert len(jumps) > 0
        jump_arrays = [np.array([t for t, _ in jumps]), np.array([k for _, k in jumps])]
        assert self.digest_arrays(list(res.expect) + [res.trace] + jump_arrays) == (
            "fce6d8fd6077d2bc41ba445df3fc823610d5e0205154ae4a49e4f13d30b50331"
        )

    def test_mesolve_spline(self):
        a = q.destroy(4)
        ts = np.linspace(0, 3, 41)
        drive = 0.3 * np.exp(1j * 1.3 * ts) * (1 + 0.2 * ts)
        H = q.QobjEvo([a.dag() @ a, [a, (ts, drive)], [a.dag(), (ts, drive.conj())]])
        res = q.mesolve(H, q.basis(4, 0), np.linspace(0, 3, 7), c_ops=[np.sqrt(0.2) * a],
                        e_ops=[a.dag() @ a, a], options={"store_states": True})
        assert self.digest_arrays(list(res.expect) + [s.full() for s in res.states]) == (
            "8be4c7924f6a8de770c2b0502e4c165b662e0e56b799b3e607a834711a73fc3f"
        )

    def test_heom_generator_is_not_copied(self):
        from oqsim.heom import _build_generator, _exponent_records, _HEOMSolver

        ex = q.matsubara_decompose(q.DrudeLorentzEnvironment(T=1.0, lam=0.1, gamma=0.5), 2)
        H = 0.5 * q.sigmaz()
        gen, ados = _build_generator(H, [(q.sigmaz(), _exponent_records(ex))], 2)
        solver = _HEOMSolver(gen, ados, H, None)
        assert solver.rhs_evo._compiled()[0] is gen.scipy_matrix()
