"""Trajectory solvers: mcsolve, nm_mcsolve, smesolve."""

import contextlib
import functools
import importlib
import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oqsim as q
from oqsim.exceptions import (DimensionMismatchError, NotHermitianError, OptionError, RangeError,
                              StepLimitError)
from oqsim.coefficient import SplineCoefficient
from oqsim.integrator import DenseSegment, DP54Stepper
from oqsim.mcsolve import (MCSolver, _Channel, _drift, _mcwf_trajectory, _NoJumpPath, _norm,
                           _outputs, _Restarts)
from oqsim.qobjevo import apply_matrix
from oqsim.smesolve import HermitianCoords, WienerPath
from oqsim.trajectory import McOptions, trajectory_rng

sme_module = importlib.import_module("oqsim.smesolve")

TIGHT = {"atol": 1e-12, "rtol": 1e-10}


def sigma_err(res, k=0):
    return res.std_expect[k] / np.sqrt(res.ntraj_used)


class TestMcsolve:
    def test_vanishing_rates_match_sesolve(self):
        g = 1e-12
        H = 0.5 * q.sigmaz()
        psi0 = (q.basis(2, 0) + q.basis(2, 1)).unit()
        ts = np.linspace(0, 5, 11)
        res = q.mcsolve(H, psi0, ts, c_ops=[np.sqrt(g) * q.sigmam()],
                        e_ops=[q.sigmax()], options={"ntraj": 5, "seed": 1, **TIGHT})
        ref = q.sesolve(H, psi0, ts, e_ops=[q.sigmax()], options=TIGHT)
        assert np.max(np.abs(res.expect[0] - ref.expect[0])) < 1e-6

    def test_mixture_probabilities_range_error(self):
        mixture = [(q.basis(2, 0), 0.5), (q.basis(2, 1), 0.4)]
        with pytest.raises(RangeError):
            q.mcsolve(q.sigmaz(), mixture, [0.0, 1.0], c_ops=[q.sigmam()],
                      options={"ntraj": 4, "seed": 1})

    @settings(max_examples=200, deadline=None)
    @given(hnp.arrays(np.complex128, st.integers(1, 100), elements=st.complex_numbers(
        max_magnitude=1e100, allow_nan=False, allow_infinity=False)))
    def test_norm_has_the_bits_of_linalg_norm(self, y):
        got, want = _norm(y), np.linalg.norm(y)
        assert got.hex() == float(want).hex()
        assert (got ** 2).hex() == float(want ** 2).hex()

    def test_nsteps_bounds_trajectories(self):
        # 500 steps of max_step 0.1 are needed in the one output interval.
        with pytest.raises(StepLimitError):
            q.mcsolve(0.5 * q.sigmaz(), q.basis(2, 0), [0.0, 50.0],
                      c_ops=[np.sqrt(0.1) * q.sigmam()],
                      options={"ntraj": 3, "seed": 1, "nsteps": 1, "max_step": 0.1})

    def test_improved_sampling_on_a_state_no_channel_leaves(self):
        # p0 is 1 up to rounding; a threshold in [p0, 1] must not read that as a jump.
        args = (q.sigmaz(), q.basis(2, 1), np.linspace(0, 5, 11), [q.sigmam()], [q.sigmaz()])
        plain = q.mcsolve(*args, options={"ntraj": 20, "seed": 1})
        improved = q.mcsolve(*args, options={"ntraj": 20, "seed": 1, "improved_sampling": True})
        assert np.max(np.abs(improved.expect[0] - plain.expect[0])) <= 1e-12
        assert improved.ntraj_used == 20

    def test_no_cops_delegates(self):
        res = q.mcsolve(q.sigmaz(), q.basis(2, 0), [0.0, 1.0], e_ops=[q.sigmaz()])
        assert res.stats.get("delegated") == "sesolve"
        assert res.ntraj_used == 1

    def test_no_cops_honours_store_states(self):
        ts, psi = [0.0, 0.5, 1.0], q.basis(2, 0)
        res = q.mcsolve(q.sigmax(), psi, ts, e_ops=[q.sigmaz()],
                        options={"store_states": True, "seed": 4})
        ref = q.sesolve(q.sigmax(), psi, ts, options={"store_states": True})
        assert len(res.average_states) == len(ts)
        for rho, ket in zip(res.average_states, ref.states):
            assert np.max(np.abs(rho.full() - ket.proj().full())) <= 1e-15
        assert res.final_state is res.average_states[-1]
        assert res.seeds == [(4, 0)]

    def test_no_cops_refuses_a_zero_ket(self):
        # As a trajectory run does: sesolve alone would return all-zero expectations.
        for c_ops in ([q.sigmam()], []):
            with pytest.raises(RangeError, match="zero norm"):
                q.mcsolve(q.sigmax(), 0 * q.basis(2, 0), [0.0, 1.0], c_ops=c_ops,
                          e_ops=[q.sigmaz()])
        with pytest.raises(DimensionMismatchError):
            q.mcsolve(q.sigmax(), q.basis(3, 0), [0.0, 1.0], e_ops=[q.sigmaz()])

    def test_no_cops_keeps_integrator_options(self):
        with pytest.raises(StepLimitError):
            q.mcsolve(q.sigmaz(), q.basis(2, 0), [0, 50], options={"nsteps": 1, "max_step": 0.1})
        with pytest.raises(OptionError, match="rtoll"):
            q.mcsolve(q.sigmaz(), q.basis(2, 0), [0, 50], options={"rtoll": 1e-3})

    def test_nojump_survival_probability(self):
        # For a single decaying qubit the no-jump norm^2 is exactly exp(-g t).
        g = 0.35
        H = 0.5 * q.sigmaz()
        ts = np.linspace(0, 8, 17)
        res = q.mcsolve(H, q.basis(2, 0), ts, c_ops=[np.sqrt(g) * q.sigmam()],
                        e_ops=[q.sigmaz()],
                        options={"ntraj": 2, "seed": 0, "improved_sampling": True,
                                 "atol": 1e-13, "rtol": 1e-12})
        # weight of the no-jump trajectory is its final squared norm
        p0 = res.weights[0]
        assert abs(p0 - np.exp(-g * ts[-1])) < 1e-8

    def test_statistical_agreement_with_mesolve(self):
        g = 0.2
        H = 0.5 * q.sigmaz()
        c = [np.sqrt(g) * q.sigmam()]
        ts = np.linspace(0, 10, 21)
        res = q.mcsolve(H, q.basis(2, 0), ts, c_ops=c, e_ops=[q.sigmaz()],
                        options={"ntraj": 300, "seed": 42})
        ref = q.mesolve(H, q.basis(2, 0), ts, c_ops=c, e_ops=[q.sigmaz()])
        dev = np.abs(res.expect[0] - ref.expect[0])[1:]
        assert np.all(dev <= 5 * sigma_err(res)[1:] + 1e-12)

    def test_improved_sampling_agrees_with_default(self):
        g = 0.15
        H = 0.5 * q.sigmaz()
        c = [np.sqrt(g) * q.sigmam()]
        ts = np.linspace(0, 8, 9)
        r1 = q.mcsolve(H, q.basis(2, 0), ts, c_ops=c, e_ops=[q.sigmaz()],
                       options={"ntraj": 250, "seed": 3})
        r2 = q.mcsolve(H, q.basis(2, 0), ts, c_ops=c, e_ops=[q.sigmaz()],
                       options={"ntraj": 250, "seed": 4, "improved_sampling": True})
        band = 5 * np.sqrt(sigma_err(r1) ** 2 + sigma_err(r2) ** 2)[1:]
        assert np.all(np.abs(r1.expect[0] - r2.expect[0])[1:] <= band + 1e-12)

    def test_seed_reproducibility_and_map_independence(self):
        g = 0.3
        H = 0.5 * q.sigmaz()
        c = [np.sqrt(g) * q.sigmam()]
        ts = np.linspace(0, 5, 11)
        runs = [
            q.mcsolve(H, q.basis(2, 0), ts, c_ops=c, e_ops=[q.sigmaz()],
                      options={"ntraj": 40, "seed": 77, "map": mode})
            for mode in ("serial", "parallel", "serial")
        ]
        assert np.array_equal(runs[0].expect[0], runs[1].expect[0])
        assert np.array_equal(runs[0].expect[0], runs[2].expect[0])
        assert np.array_equal(runs[0].std_expect[0], runs[1].std_expect[0])

    def test_different_seeds_differ(self):
        g = 0.3
        H = 0.5 * q.sigmaz()
        ts = np.linspace(0, 5, 6)
        r1 = q.mcsolve(H, q.basis(2, 0), ts, c_ops=[np.sqrt(g) * q.sigmam()],
                       e_ops=[q.sigmaz()], options={"ntraj": 20, "seed": 1})
        r2 = q.mcsolve(H, q.basis(2, 0), ts, c_ops=[np.sqrt(g) * q.sigmam()],
                       e_ops=[q.sigmaz()], options={"ntraj": 20, "seed": 2})
        assert not np.array_equal(r1.expect[0], r2.expect[0])

    def test_photocurrent_matches_rate(self):
        g = 0.4
        H = 0.5 * q.sigmaz()
        c = [np.sqrt(g) * q.sigmam()]
        ts = np.linspace(0, 6, 13)
        res = q.mcsolve(H, q.basis(2, 0), ts, c_ops=c, e_ops=[q.sigmap() @ q.sigmam()],
                        options={"ntraj": 400, "seed": 10})
        ref = q.mesolve(H, q.basis(2, 0), ts, c_ops=c, e_ops=[q.sigmap() @ q.sigmam()])
        rate = g * 0.5 * (np.asarray(ref.expect[0][:-1]) + np.asarray(ref.expect[0][1:]))
        # total jump count fluctuates ~ sqrt(N); compare the time-integrated rate
        got = res.photocurrent[0] @ np.diff(ts)
        want = rate @ np.diff(ts)
        assert abs(got - want) < 5 * np.sqrt(want / res.ntraj_used)

    def test_mixed_initial_state(self):
        g = 0.3
        H = 0.5 * q.sigmaz()
        c = [np.sqrt(g) * q.sigmam()]
        ts = np.linspace(0, 6, 7)
        mixture = [(q.basis(2, 0), 0.75), (q.basis(2, 1), 0.25)]
        res = q.mcsolve(H, mixture, ts, c_ops=c, e_ops=[q.sigmaz()],
                        options={"ntraj": 300, "seed": 8})
        rho0 = 0.75 * q.basis(2, 0).proj() + 0.25 * q.basis(2, 1).proj()
        ref = q.mesolve(H, rho0, ts, c_ops=c, e_ops=[q.sigmaz()])
        dev = np.abs(res.expect[0] - ref.expect[0])[1:]
        assert np.all(dev <= 5 * sigma_err(res)[1:] + 1e-12)

    def test_target_tol_stops_early(self):
        g = 0.3
        H = 0.5 * q.sigmaz()
        res = q.mcsolve(H, q.basis(2, 0), np.linspace(0, 4, 5),
                        c_ops=[np.sqrt(g) * q.sigmam()], e_ops=[q.sigmaz()],
                        options={"ntraj": 5000, "seed": 5, "target_tol": (0.2, 0.0)})
        assert res.ntraj_used < 5000

    def test_repeated_output_time_is_an_empty_photocurrent_bin(self):
        args = (q.sigmax(), q.basis(2, 0))
        kwargs = {"c_ops": [np.sqrt(0.5) * q.sigmam()], "e_ops": [q.sigmaz()],
                  "options": {"ntraj": 30, "seed": 1}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            current = q.mcsolve(*args, [0, 0.5, 0.5, 1], **kwargs).photocurrent[0]
        plain = q.mcsolve(*args, [0, 0.5, 1], **kwargs).photocurrent[0]
        assert current[1] == 0.0
        assert current[[0, 2]].tobytes() == plain.tobytes()

    def test_average_states(self):
        g = 0.5
        H = 0.5 * q.sigmaz()
        ts = np.linspace(0, 4, 5)
        res = q.mcsolve(H, q.basis(2, 0), ts, c_ops=[np.sqrt(g) * q.sigmam()],
                        options={"ntraj": 200, "seed": 21, "store_states": True})
        ref = q.mesolve(H, q.basis(2, 0), ts, c_ops=[np.sqrt(g) * q.sigmam()])
        for got, want in zip(res.average_states, ref.states):
            assert abs(got.tr() - 1) < 1e-10
            assert np.max(np.abs(got.full() - want.full())) < 0.15

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("rtol, atol", [(1e-3, 1e-5), (1e-4, 1e-6)])
    def test_a_state_no_channel_can_leave_never_jumps(self, seed, rtol, atol):
        # The integrated no-jump norm drifts below 1, so a threshold above the
        # drift is crossed where every channel weight is 0.  Such a trajectory
        # renormalises and draws a new threshold; it does not jump or raise.
        ts = np.linspace(0, 5, 11)
        res = q.mcsolve(q.sigmaz(), q.basis(2, 1), ts, [q.sigmam()], [q.sigmaz()],
                        {"ntraj": 3000, "seed": seed, "rtol": rtol, "atol": atol,
                         "store_states": True})
        assert np.array_equal(res.expect[0], -np.ones(ts.size))
        assert not np.any(res.photocurrent[0])
        dark = q.basis(2, 1).proj().full()
        for rho in res.average_states:
            assert np.max(np.abs(rho.full() - dark)) < 1e-12


class TestJumpOutputOrder:
    def test_outputs_before_a_jump_read_the_pre_jump_state(self):
        # A decaying qubit is excited (<sz> = 1) until its only jump and in the
        # ground state (<sz> = -1) after it.  An output time that falls in the
        # accepted step of a jump but before the jump time must still read 1.
        solver = MCSolver(0.5 * q.sigmaz(), [np.sqrt(0.35) * q.sigmam()])
        ts = np.linspace(0, 8, 17)
        opts = McOptions()
        sz = q.sigmaz().data.scipy_matrix()
        psi0 = q.basis(2, 0).full().ravel()
        misplaced = jumped = 0
        for i in range(300):
            traj = _mcwf_trajectory(solver.drift_evo, solver.channels, psi0, ts, [sz],
                                    opts.integrator, opts.norm_tol, trajectory_rng(0, i),
                                    None, False)
            t_jump = traj.jumps[0][0] if traj.jumps else np.inf
            jumped += bool(traj.jumps)
            expected = np.where(ts < t_jump, 1.0, -1.0)
            misplaced += int(np.sum(np.abs(traj.expect[0].real - expected) > 1e-6))
        assert jumped > 250
        assert misplaced == 0


def _decay_problem():
    """A driven, decaying qubit: the no-jump norm falls over the whole grid."""
    solver = MCSolver(0.5 * q.sigmax(), [np.sqrt(0.5) * q.sigmam()])
    e_mats = [q.sigmaz().data.scipy_matrix(), q.sigmap().data.scipy_matrix()]
    return solver.drift_evo, solver.channels, [q.basis(2, 0).full().ravel()], \
        np.linspace(0, 3, 13), e_mats


def _nm_spline_problem():
    """nm_mcsolve's channels for a spline rate that turns negative, with the padding channel."""
    ts = np.linspace(0, 3, 301)
    prep = q.nm_prepare([(q.sigmam(), SplineCoefficient(ts, np.cos(2 * ts) + 0.3))])
    channels = [_Channel(op, rate=rate, ratio_fn=rate.ratio)
                for op, rate in zip(prep.ops, prep.shifted_rates)]
    e_mats = [q.sigmaz().data.scipy_matrix()]
    psi0 = (q.basis(2, 0) + q.basis(2, 1)).unit().full().ravel()
    return _drift(q.QobjEvo(0.5 * q.sigmaz()), channels), channels, [psi0], \
        np.linspace(0, 3, 16), e_mats


def _mixture_problem():
    """A driven, damped 3-level oscillator with two mixture components."""
    a = q.destroy(3)
    solver = MCSolver(a.dag() @ a + 0.3 * (a + a.dag()), [np.sqrt(0.4) * a])
    kets = [q.basis(3, 2).full().ravel(), (q.basis(3, 1) + q.basis(3, 2)).unit().full().ravel()]
    e_mats = [(a.dag() @ a).data.scipy_matrix(), a.data.scipy_matrix()]
    return solver.drift_evo, solver.channels, kets, np.linspace(0, 3, 13), e_mats


PATH_PROBLEMS = {"decay": _decay_problem, "nm_spline": _nm_spline_problem,
                 "mixture": _mixture_problem}


@functools.cache
def _path_problem(name):
    return PATH_PROBLEMS[name]()


def _bits(traj):
    """Everything a trajectory returns, as bytes and float hex strings."""
    return ([e.tobytes() for e in traj.expect], [(t.hex(), k) for t, k in traj.jumps],
            [x.hex() for x in traj.ratios], traj.final_norm2.hex(),
            None if traj.states is None else [s.tobytes() for s in traj.states])


class _Calls:
    """Trajectories of one problem, each run with the shared records and as the oracle."""

    def __init__(self, name, store_states=False, **options):
        self.drift, self.channels, self.kets, self.ts, self.e_mats = _path_problem(name)
        self.opts = McOptions.coerce(options)
        self.store_states = store_states
        self.paths = [_NoJumpPath(self.ts.size, len(self.e_mats)) for _ in self.kets]
        self.i = 0

    def call(self, comp, r_first, path):
        return _mcwf_trajectory(self.drift, self.channels, self.kets[comp], self.ts, self.e_mats,
                                self.opts.integrator, self.opts.norm_tol,
                                trajectory_rng(5, self.i), r_first, self.store_states, path=path)

    def both(self, comp, r_first):
        """``(record, oracle)`` outcomes of trajectory ``i``: its bits, or the raised message."""
        comp %= len(self.kets)
        out = []
        for path in (self.paths[comp], None):
            try:
                out.append(_bits(self.call(comp, r_first, path)))
            except StepLimitError as exc:
                out.append(str(exc))
        self.i += 1
        return out


# A threshold: a number in [0, 1], a recorded norm² (an index into the record),
# None (drawn from the trajectory's rng) or -1 (never jumps).
_THRESHOLDS = st.one_of(st.floats(0.0, 1.0), st.integers(0, 10**6).map(lambda k: ("tie", k)),
                        st.none(), st.just(-1.0))


class TestNoJumpPath:
    """A trajectory that reads the shared no-jump record returns the bits of the
    same call without one (the oracle)."""

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(PATH_PROBLEMS)), store_states=st.booleans(),
           specs=st.lists(st.tuples(st.integers(0, 1), _THRESHOLDS), min_size=1, max_size=8))
    def test_record_matches_the_oracle(self, name, store_states, specs):
        calls = _Calls(name, store_states)
        for comp, r in specs:
            if isinstance(r, tuple):
                norm2 = calls.paths[comp % len(calls.kets)].norm2
                r = norm2[r[1] % len(norm2)] if norm2 else 1.0
            got, want = calls.both(comp, r)
            assert got == want

    @pytest.mark.parametrize("name", sorted(PATH_PROBLEMS))
    def test_each_way_onto_the_record(self, name, monkeypatch):
        calls = _Calls(name, store_states=True)
        path = calls.paths[0]
        steps = []
        step = DP54Stepper.step

        def counting(stepper):
            steps[-1] += 1
            return step(stepper)

        monkeypatch.setattr(DP54Stepper, "step", counting)

        def check(r_first, comp=0):
            steps.append(0)
            got = _bits(calls.call(comp, r_first, calls.paths[comp]))
            steps.append(0)
            assert got == _bits(calls.call(comp, r_first, None))
            calls.i += 1
            return got

        assert check(1.0)[1]  # a jump at the very first step ...
        assert (len(path.states), path.norm2) == (1, [])  # ... leaves the step out of the record
        check(0.7)  # extends the frontier
        frontier = len(path.norm2)
        assert frontier > 0
        check(path.norm2[frontier // 2])  # a tie on a recorded norm²
        assert not check(-1.0)[1]  # never jumps, and extends the record to the end
        assert len(path.reads) == calls.ts.size
        assert not check(-1.0)[1]  # reads the whole record
        assert steps[-2:] == [0, len(path.norm2)]
        check(None)
        if len(calls.kets) > 1:  # the other component has a record of its own
            states = list(path.states)
            check(0.5, comp=1)
            assert calls.paths[1].states[0][1].tobytes() == calls.kets[1].tobytes()
            assert path.states == states

    def test_a_path_of_another_start_is_not_read(self):
        calls = _Calls("mixture")
        calls.both(0, -1.0)
        assert not calls.paths[0].joins(DP54Stepper(calls.drift.matvec, 0.0, calls.kets[1],
                                                    calls.opts.integrator, 3.0))
        got, want = calls.both(0, 0.5)  # still the bits of the oracle
        assert got == want


def _outputs_per_output(Y, e_mats):
    """The oracle of ``_outputs``: the normalised ket and expectation values of
    each output, one output at a time."""
    kets, expect = [], [np.empty(len(Y), dtype=complex) for _ in e_mats]
    for j, y in enumerate(Y):
        nrm = _norm(y)
        ket = y / nrm if nrm > 0 else y
        kets.append(ket.copy())
        for series, m in zip(expect, e_mats):
            series[j] = complex(np.vdot(ket, apply_matrix(m, ket)))
    return kets, expect


def _e_ops_in_each_format(d):
    """A Hermitian e_op of dimension ``d`` in each data format: dense, CSR and DIA."""
    a = q.destroy(d)
    x = a + a.dag()
    return [x.to("dense"), (a.dag() @ a + 0.5 * x).to("csr"),
            (x @ x + 0.25j * (a - a.dag())).to("dia")]


class TestBatchedOutputs:
    """A trajectory reduces its outputs in one pass, with the bits of the
    formula applied to one output at a time."""

    @pytest.mark.parametrize("d", [2, 16, 64])
    def test_one_pass_has_the_bits_of_each_output(self, d):
        e_ops = _e_ops_in_each_format(d)
        e_mats = [op.data.scipy_matrix() for op in e_ops]
        assert [op.dtype for op in e_ops] == ["dense", "csr", "dia"]
        rng = np.random.default_rng(d)
        Y = rng.normal(size=(41, d)) + 1j * rng.normal(size=(41, d))
        Y[3] = 0.0  # a zero norm: the ket is the output itself
        Y[7] *= 1e-170  # the norm underflows to 0 as well
        Y[9] *= 1e150
        kets, expect = _outputs(Y, e_mats)
        want_kets, want_expect = _outputs_per_output(Y, e_mats)
        assert kets.tobytes() == np.array(want_kets).tobytes()
        assert [e.tobytes() for e in expect] == [e.tobytes() for e in want_expect]
        assert kets[3].tobytes() == Y[3].tobytes() and kets[7].tobytes() == Y[7].tobytes()
        # A trajectory that raises before its first output reduces no rows.
        kets, expect = _outputs(Y[:0], e_mats)
        assert kets.shape == (0, d) and [e.shape for e in expect] == [(0,)] * 3

    @pytest.mark.parametrize("d", [2, 16])
    def test_solves_have_the_bits_of_the_formula_per_output(self, d, monkeypatch):
        # Restarts in basis states, a mixture and stored states: every output
        # goes through the no-jump record, the restart records or the pass.
        # A diagonal H keeps a collapsed basis state a basis state.
        a = q.destroy(d)
        n = a.dag() @ a
        psi0 = [(q.basis(d, d - 1), 0.5), ((q.basis(d, 0) + q.basis(d, d - 1)).unit(), 0.5)]
        args = (n + 0.1 * n @ n, psi0, np.linspace(0, 2, 11),
                [np.sqrt(0.5) * a], _e_ops_in_each_format(d))
        options = {"ntraj": 24, "seed": 11, "improved_sampling": True, "store_states": True,
                   "keep_runs_results": True}
        batched = q.mcsolve(*args, options=dict(options))
        monkeypatch.setattr(mc_module, "_outputs", _outputs_per_output)
        oracle = q.mcsolve(*args, options=dict(options))
        assert batched.stats["jumps"] > 0 and batched.stats["replayed_steps"] > 0
        assert _result_bits(batched) == _result_bits(oracle)


class TestStepLimitParity:
    """A resumed trajectory counts the steps the record took in its output
    interval, so ``StepLimitError`` fires where the oracle's does and nowhere else."""

    TS = np.array([0.0, 0.5, 1.75, 2.0])  # with max_step 0.05 the long interval needs the most

    def calls(self, nsteps):
        calls = _Calls("decay", nsteps=nsteps, max_step=0.05)
        calls.ts = self.TS
        calls.paths = [_NoJumpPath(self.TS.size, len(calls.e_mats))]
        return calls

    def thresholds(self):
        """The no-jump run's most steps in one interval, and thresholds that
        resume a trajectory inside that interval, early, at the frontier and at random."""
        full = self.calls(10_000)
        full.both(0, -1.0)
        path = full.paths[0]
        most = int(np.max(np.diff(path.reads)))
        inside = path.reads[1] + 5
        return most, [-1.0, path.norm2[inside], 0.9, -1.0, None, 0.4]

    def test_resumed_trajectories_raise_where_the_oracle_does(self):
        most, rs = self.thresholds()
        calls = self.calls(most - 1)
        outcomes = [calls.both(0, r) for r in rs]
        for got, want in outcomes:
            assert got == want
        # The no-jump run raises, and so does the later one resumed at its frontier.
        assert isinstance(outcomes[0][1], str) and isinstance(outcomes[3][1], str)

    def test_the_fewest_steps_that_pass_still_pass(self):
        most, rs = self.thresholds()
        limit = next(n for n in range(most, 10 * most) if not any(
            isinstance(want, str) for _, want in (self.calls(n).both(0, r) for r in rs)))
        calls = self.calls(limit)
        for r in rs:
            got, want = calls.both(0, r)
            assert got == want and not isinstance(got, str)


mc_module = importlib.import_module("oqsim.mcsolve")


@contextlib.contextmanager
def _restarts_off():
    """Run ``mcsolve``/``nm_mcsolve`` with no restart records: every post-jump step is taken."""
    mcwf = mc_module._mcwf_trajectory
    mc_module._mcwf_trajectory = lambda *args, **kwargs: mcwf(*args, **{**kwargs, "restarts": None})
    try:
        yield
    finally:
        mc_module._mcwf_trajectory = mcwf


def _result_bits(res):
    """The outputs of a trajectory solve, as bytes, with its jump count."""
    arrays = list(res.expect) + list(res.std_expect) + list(res.runs_expect or [])
    arrays += list(res.photocurrent) + [s.full() for s in res.average_states or []]
    arrays.append(np.asarray(res.weights))
    return [a.tobytes() for a in arrays] + [res.stats["jumps"]]


def _steps(res):
    """The accepted steps of a solve, replayed or taken: the same with records and without.

    A replayed step counts none of the rejected attempts that the recorded one made.
    """
    return res.stats["accepted_steps"] + res.stats["replayed_steps"]


def _rank_one(d, m, v, rate):
    """``sqrt(rate) |m><v|``: every ket it collapses lands on ``e_m``."""
    op = np.zeros((d, d), dtype=complex)
    op[m] = np.sqrt(rate) * v.conj() / np.linalg.norm(v)
    return q.Qobj(op)


@st.composite
def _restart_problems(draw):
    """A random constant model whose collapse operators are rank 1, its start and options."""
    d = draw(st.integers(2, 3))
    parts = draw(hnp.arrays(np.float64, (2, d, d), elements=st.floats(-1, 1)))
    h = parts[0] + 1j * parts[1]
    H = q.Qobj(0.5 * (h + h.conj().T))
    vecs = st.tuples(st.integers(0, d - 1),
                     hnp.arrays(np.float64, 2 * d, elements=st.floats(-1, 1)),
                     st.floats(0.1, 1.0))
    c_ops = []
    for m, v, rate in draw(st.lists(vecs, min_size=1, max_size=2)):
        v = v[:d] + 1j * v[d:]
        if np.linalg.norm(v) < 0.1:
            v = np.eye(d)[m]
        c_ops.append(_rank_one(d, m, v, rate))
    kets = [q.basis(d, draw(st.integers(0, d - 1))),
            q.Qobj(np.arange(1.0, d + 1).reshape(d, 1) + 0.5j).unit()]
    psi0 = draw(st.sampled_from([kets[0], kets[1], [(kets[0], 0.4), (kets[1], 0.6)]]))
    options = {"ntraj": 12, "seed": draw(st.integers(0, 2**16)), "keep_runs_results": True,
               "improved_sampling": draw(st.booleans()), "store_states": draw(st.booleans())}
    options.update(draw(st.sampled_from([{}, {"max_step": 0.3}, {"rtol": 1e-4}])))
    return H, psi0, c_ops, [q.Qobj(np.diag(np.arange(d, dtype=complex)))], options


class _ScriptedRng:
    """Draws ``uniform()`` from a fixed list, to place a trajectory's thresholds."""

    def __init__(self, draws):
        self.draws = list(draws)

    def uniform(self):
        return self.draws.pop(0)


class TestRestartRecords:
    """With a constant drift, restarts in one basis state replay one record of
    post-jump steps and return the bits of taking every step."""

    TS = np.linspace(0, 4, 9)

    @settings(max_examples=30, deadline=None)
    @given(_restart_problems())
    def test_shared_solves_match_unshared_ones(self, problem):
        H, psi0, c_ops, e_ops, options = problem
        shared = q.mcsolve(H, psi0, self.TS, c_ops, e_ops, dict(options))
        with _restarts_off():
            unshared = q.mcsolve(H, psi0, self.TS, c_ops, e_ops, dict(options))
        assert _result_bits(shared) == _result_bits(unshared)
        assert _steps(shared) == _steps(unshared)
        assert unshared.stats["replayed_steps"] == 0

    def test_step_counts_split_into_accepted_and_replayed(self):
        args = _mc_qubits_args(ntraj=100, seed=3)
        shared = q.mcsolve(*args)
        with _restarts_off():
            unshared = q.mcsolve(*args)
        assert shared.stats["jumps"] == unshared.stats["jumps"] > 100
        assert shared.stats["replayed_steps"] > 10 * shared.stats["accepted_steps"]
        assert _steps(shared) == _steps(unshared)
        assert _result_bits(shared) == _result_bits(unshared)

    def test_a_collapse_to_one_basis_state_restarts_exactly_in_it(self, monkeypatch):
        starts = []
        init = DP54Stepper.__init__

        def recording(stepper, rhs, t0, y0, *args, **kwargs):
            init(stepper, rhs, t0, y0, *args, **kwargs)
            starts.append(stepper.y.copy())

        monkeypatch.setattr(DP54Stepper, "__init__", recording)
        ts, e_ops, opts = np.linspace(0, 6, 7), [q.sigmaz()], {"ntraj": 5, "seed": 2}
        res = q.mcsolve(0.5 * q.sigmax(), q.basis(2, 0), ts, [np.sqrt(0.5) * q.sigmam()],
                        e_ops, opts)
        assert res.stats["jumps"] > 0 and len(starts) == 5 + res.stats["jumps"]
        restarts = [y for y in starts if y[0] == 0]
        assert restarts and all(y.tobytes() == np.array([0, 1], dtype=complex).tobytes()
                                for y in restarts)
        # A time-dependent drift keeps the collapsed ket's phase: no record can be shared.
        starts.clear()
        res = q.mcsolve(0.5 * q.sigmax(), q.basis(2, 0), ts,
                        [q.QobjEvo([[q.sigmam(), lambda t: np.sqrt(0.5) + 0 * t]])], e_ops, opts)
        restarts = [y for y in starts if y[0] == 0]
        assert restarts and all(abs(abs(y[1]) - 1) < 1e-15 for y in restarts)
        assert any(y[1] != 1 for y in restarts)
        assert res.stats["replayed_steps"] == 0

    @staticmethod
    def _driven_decay():
        solver = MCSolver(0.5 * q.sigmax(), [np.sqrt(0.5) * q.sigmam()])
        return solver.drift_evo, solver.channels, q.basis(2, 0).full().ravel()

    def _pair(self, problem, rng_draws, r_first, restarts, ts=None, **options):
        """A trajectory with ``restarts`` and without, each making every draw of
        ``rng_draws``; returns both."""
        drift, channels, psi0 = problem
        opts = McOptions.coerce(options)
        ts = self.TS if ts is None else ts
        out = []
        for rec in (restarts, None):
            rng = _ScriptedRng(rng_draws)
            out.append(_mcwf_trajectory(drift, channels, psi0, ts,
                                        [q.sigmaz().data.scipy_matrix()], opts.integrator,
                                        opts.norm_tol, rng, r_first, True, restarts=rec))
            assert rng.draws == []
        return out

    def test_a_restart_clamped_by_t_end_does_not_join(self, monkeypatch):
        problem = self._driven_decay()
        restarts = _Restarts()
        early, oracle = self._pair(problem, [0.5, 0.01], 0.9, restarts)
        assert _bits(early) == _bits(oracle) and early.steps[2] == 0
        record = restarts.steps[1]
        assert len(record) > 3 and early.jumps[0][0] < 2
        # A threshold just above the no-jump norm² at t_end puts the jump
        # within the first step of t_end.
        p_end = self._pair(problem, [], -1.0, None)[0].final_norm2
        followed = []
        follow = DP54Stepper.follow
        monkeypatch.setattr(DP54Stepper, "follow",
                            lambda stepper, rec: followed.append(rec) or follow(stepper, rec))
        late, oracle = self._pair(problem, [0.5, 0.01], p_end * (1 + 1e-6), restarts)
        assert _bits(late) == _bits(oracle)
        assert self.TS[-1] - late.jumps[0][0] < 0.01
        assert followed == [] and late.steps[2] == 0 and restarts.steps[1] is record
        # An early restart still follows the record.
        again, oracle = self._pair(problem, [0.5, 0.01], 0.8, restarts)
        assert _bits(again) == _bits(oracle)
        assert len(followed) == 1 and again.steps[2] > 0

    def test_a_record_stops_at_the_t_end_clamp(self):
        problem = self._driven_decay()
        restarts = _Restarts()
        late, oracle = self._pair(problem, [0.5, 0.01], 0.7, restarts)
        assert _bits(late) == _bits(oracle)
        record = restarts.steps[1]
        t = late.jumps[0][0]
        for entry in record:
            t = t + entry[6]  # the accepted h of each recorded step
        # The next step would have been clamped by t_end, so it is not recorded.
        assert t < self.TS[-1] < t + min(record[-1][4], self.TS[-1])
        n_late = len(record)
        early, oracle = self._pair(problem, [0.5, 0.01], 0.9, restarts)
        assert _bits(early) == _bits(oracle)
        assert early.jumps[0][0] < late.jumps[0][0]
        assert early.steps[2] == n_late and len(record) > n_late

    def test_restarts_read_one_coefficient_array_per_recorded_step(self, monkeypatch):
        built, reads = [], []  # reads: the coefficient arrays each trajectory read
        coefficients, call = DenseSegment.coefficients, DenseSegment.__call__

        def building(seg):
            if seg._q is None:
                built.append(seg)
            return coefficients(seg)

        def reading(seg, t):
            out = call(seg, t)
            reads[-1].append(seg._q)
            return out

        monkeypatch.setattr(DenseSegment, "coefficients", building)
        monkeypatch.setattr(DenseSegment, "__call__", reading)
        drift, channels, psi0 = self._driven_decay()
        opts = McOptions.coerce({})
        restarts = _Restarts()
        trajs, n_built = [], []
        # The first restart records its steps, the second and third replay them.
        for r_first in (0.9, 0.8, 0.8):
            reads.append([])
            trajs.append(_mcwf_trajectory(drift, channels, psi0, self.TS,
                                          [q.sigmaz().data.scipy_matrix()], opts.integrator,
                                          opts.norm_tol, _ScriptedRng([0.5, 0.01]), r_first,
                                          False, restarts=restarts))
            n_built.append(len(built) - sum(n_built))
        record = [entry[5] for entry in restarts.steps[1]]
        assert len(record) > 3 and trajs[1].steps[2] > 0
        # Each recorded step's coefficients were built once, by the first restart ...
        assert [sum(seg._q is coef for seg in built) for coef in record] == [1] * len(record)
        # ... and a replayed step builds none: only the steps a trajectory takes do.
        assert all(n <= traj.steps[0] for n, traj in zip(n_built, trajs))
        # Two restarts that read a recorded step read its one array.
        replayed = [[r for r in rs if any(r is coef for coef in record)] for rs in reads[1:]]
        assert replayed[0] and all(a is b for a, b in zip(*replayed, strict=True))

    def test_a_solve_builds_no_coefficients_for_replayed_steps(self, monkeypatch):
        built = [0]
        coefficients = DenseSegment.coefficients

        def building(seg):
            built[0] += seg._q is None
            return coefficients(seg)

        monkeypatch.setattr(DenseSegment, "coefficients", building)
        res = q.mcsolve(*_mc_qubits_args(ntraj=100, seed=3))
        assert res.stats["replayed_steps"] > 10 * res.stats["accepted_steps"]
        assert 0 < built[0] <= res.stats["accepted_steps"]

    def test_the_dark_state_renormalisation_leaves_the_record(self):
        # A qubit that only decays: after the jump it sits in the dark ground
        # state, whose norm falls by integration error alone.
        solver = MCSolver(q.sigmaz(), [np.sqrt(0.5) * q.sigmam()])
        problem = (solver.drift_evo, solver.channels,
                   (q.basis(2, 0) + q.basis(2, 1)).unit().full().ravel())
        ts, loose = np.linspace(0, 10, 11), {"rtol": 1e-3, "atol": 1e-5}
        restarts = _Restarts()
        first, oracle = self._pair(problem, [0.5, 0.01], 0.9, restarts, ts, **loose)
        assert _bits(first) == _bits(oracle)
        record = list(restarts.steps[1])
        # A threshold just below 1: the first replayed step crosses it where no
        # channel can act, so the state is renormalised and leaves the record.
        dark, oracle = self._pair(problem, [0.5, 1 - 1e-15, 0.01], 0.8, restarts, ts, **loose)
        assert _bits(dark) == _bits(oracle)
        assert len(dark.jumps) == 1
        assert 1 <= dark.steps[2] < len(record) and dark.steps[0] > 0
        assert restarts.steps[1] == record

    def test_nm_mcsolve_with_time_dependent_rates_shares_nothing(self):
        args = (0.5 * q.sigmaz(), (q.basis(2, 0) + q.basis(2, 1)).unit(), np.linspace(0, 6, 13),
                [(q.sigmam(), lambda t: 0.5 * np.cos(t) + 0.2)], [q.sigmaz()])
        res = q.nm_mcsolve(*args, options={"ntraj": 40, "seed": 4})
        with _restarts_off():
            unshared = q.nm_mcsolve(*args, options={"ntraj": 40, "seed": 4})
        assert res.stats["jumps"] > 0 and res.stats["replayed_steps"] == 0
        assert _result_bits(res) == _result_bits(unshared)
        assert res.trace.tobytes() == unshared.trace.tobytes()


def _mc_qubits_args(ntraj, seed):
    """Criterion 4's two decaying coupled qubits, as ``mcsolve`` arguments."""
    I2 = q.qeye(2)
    H = 0.5 * (q.sigmaz() & I2) + 0.5 * (I2 & q.sigmaz()) + 0.1 * (q.sigmax() & q.sigmax())
    c_ops = [np.sqrt(0.1) * (q.sigmam() & I2), np.sqrt(0.1) * (I2 & q.sigmam())]
    return (H, q.basis(2, 0) & q.basis(2, 0), np.linspace(0, 40, 81), c_ops, [q.sigmaz() & I2],
            {"ntraj": ntraj, "seed": seed, "improved_sampling": True})


class TestNmMcsolve:
    def test_prepare_no_padding_when_complete(self):
        prep = q.nm_prepare([(q.sigmax(), 1.0)])  # sx^dag sx = identity
        assert len(prep.ops) == 1
        assert prep.alpha == pytest.approx(1.0)
        assert prep.shift(0.3) == pytest.approx(0.0)

    def test_prepare_pads_sigmam(self):
        prep = q.nm_prepare([(q.sigmam(), 1.0)])
        assert len(prep.ops) == 2
        assert np.max(np.abs(prep.ops[1].full() - np.diag([0.0, 1.0]))) < 1e-12
        total = sum((op.dag() @ op).full() for op in prep.ops)
        assert np.max(np.abs(total - prep.alpha * np.eye(2))) < 1e-10

    def test_shift_function(self):
        prep = q.nm_prepare([(q.sigmax(), np.cos)])
        for t in (0.0, 2.0, np.pi):
            expected = 2 * abs(min(0.0, np.cos(t)))
            assert prep.shift(t) == pytest.approx(expected)
            assert prep.shifted_rates[0](t).real == pytest.approx(np.cos(t) + expected)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_shifted_rates_keep_the_lambda_bits(self, data):
        ts = np.linspace(0, 3, 31)
        rates = [(q.sigmam(), SplineCoefficient(ts, np.cos(3 * ts) + 0.2)),
                 (0.5 * q.sigmaz(), lambda t: 0.5 * np.sin(2 * t))]
        prep = q.nm_prepare(rates)
        assert len(prep.rates) == 3  # the padding channel's zero rate
        # The formula the shifted rates were built from, evaluated afresh.
        real = [lambda t, c=c: float(c(t).real) for c in prep.rates]

        def shift(t):
            return 2.0 * abs(min(0.0, min(fn(t) for fn in real)))

        def shifted(k, t):
            return complex(real[k](t) + shift(t))

        def ratio(k, t):
            G = float(shifted(k, t).real)
            return 0.0 if G < 1e-14 else real[k](t) / G

        pool = [0.0, 3.0, float(ts[7]), 0.123, 1.5]
        times = st.one_of(st.sampled_from(pool), st.floats(0.0, 3.0))
        calls = data.draw(st.lists(st.tuples(st.integers(0, 6), times), min_size=1, max_size=60))
        for which, t in calls:
            if which == 0:
                got, want = prep.shift(t), shift(t)
            elif which <= 3:
                got, want = prep.shifted_rates[which - 1](t), shifted(which - 1, t)
                assert type(got) is complex
            else:
                got, want = prep.shifted_rates[which - 4].ratio(t), ratio(which - 4, t)
            assert np.array_equal(np.array([got]).view(np.uint8), np.array([want]).view(np.uint8))

    def test_constant_positive_rates_reduce_to_mcsolve(self):
        g = 0.3
        H = 0.5 * q.sigmaz()
        ts = np.linspace(0, 6, 13)
        res = q.nm_mcsolve(H, q.basis(2, 0), ts, [(q.sigmam(), g)],
                           e_ops=[q.sigmaz()], options={"ntraj": 250, "seed": 12})
        ref = q.mesolve(H, q.basis(2, 0), ts, c_ops=[np.sqrt(g) * q.sigmam()],
                        e_ops=[q.sigmaz()])
        assert np.max(np.abs(res.trace - 1)) == 0.0
        dev = np.abs(res.expect[0] - ref.expect[0])[1:]
        assert np.all(dev <= 5 * sigma_err(res)[1:] + 1e-12)

    def test_damped_jaynes_cummings(self):
        gamma_A = _jc_rate_functions(lam=1.0)
        n_op = q.sigmap() @ q.sigmam()
        H = q.QobjEvo([(n_op, lambda t: 0.5 * gamma_A(t)[1])])
        L = q.QobjEvo([
            (q.spre(n_op) - q.spost(n_op), lambda t: -0.5j * gamma_A(t)[1]),
            (q.lindblad_dissipator(q.sigmam()), lambda t: gamma_A(t)[0]),
        ])
        psi0 = (q.basis(2, 0) + q.basis(2, 1)).unit()
        ts = np.linspace(0, 5, 26)
        gams = np.array([gamma_A(t)[0] for t in ts])
        assert gams.min() < 0  # the regime really is non-Markovian

        ref = q.mesolve(L, psi0.proj(), ts, e_ops=[n_op])
        res = q.nm_mcsolve(H, psi0, ts, [(q.sigmam(), lambda t: gamma_A(t)[0])],
                           e_ops=[n_op], options={"ntraj": 400, "seed": 6})
        dev = np.abs(res.expect[0] - ref.expect[0])[1:]
        # Zero-event bound where no trajectory has jumped yet (zero sample
        # std): ln(1/P(>5 sigma))/ntraj, times the population span of 1.
        band = np.where(res.std_expect[0][1:] < 1e-6, np.log(1 / 5.733e-7) / res.ntraj_used,
                        5 * sigma_err(res)[1:] + 1e-12)
        assert np.all(dev <= band)

        # E[mu] = 1 wherever gamma(t) >= 0 (exactly 1 before the first
        # negative-rate episode, statistically 1 afterwards)
        mu_err = 5 * res.trace_std / np.sqrt(res.ntraj_used)
        for j in range(len(ts)):
            if gams[j] >= 0:
                assert abs(res.trace[j] - 1) <= mu_err[j] + 1e-12

    def test_nsteps_bounds_trajectories(self):
        with pytest.raises(StepLimitError):
            q.nm_mcsolve(0.5 * q.sigmaz(), q.basis(2, 0), [0.0, 50.0], [(q.sigmam(), 0.1)],
                         options={"ntraj": 3, "seed": 1, "nsteps": 1, "max_step": 0.1})

    def test_zero_jump_dynamics_rejected(self):
        with pytest.raises(RangeError):
            q.nm_prepare([(q.qzero(2), 1.0)])


def _jc_rate_functions(lam=1.0):
    Gam = 0.3 * lam
    Delta = 8 * Gam
    delta = np.sqrt(complex(Gam - 1j * Delta) ** 2 - 2 * lam * Gam)

    def gamma_A(t):
        num = 2 * lam * Gam * np.sinh(delta * t / 2)
        den = delta * np.cosh(delta * t / 2) + (Gam - 1j * Delta) * np.sinh(delta * t / 2)
        val = num / den
        return val.real, val.imag

    return gamma_A


class TestSmesolve:
    def test_the_generator_keeps_the_operators_storage(self, monkeypatch):
        """CSR operators give a CSR Liouvillian: no operator is copied to a dense matrix."""
        built = []

        def spy(*args, **kwargs):
            built.append(liouvillian_evo(*args, **kwargs))
            return built[-1]

        liouvillian_evo = sme_module.liouvillian_evo
        monkeypatch.setattr(sme_module, "liouvillian_evo", spy)
        a = q.destroy(6)
        H = [a.dag() @ a, [a + a.dag(), lambda t: np.cos(t)]]
        q.smesolve(H, q.basis(6, 1), [0.0, 0.1], c_ops=[0.2 * a.dag() @ a], sc_ops=[a],
                   options={"ntraj": 2, "seed": 1})
        assert [op.data.fmt for op, _ in built[0].terms] == ["csr", "csr"]

    def test_no_monitoring_matches_mesolve(self):
        kappa = 1.0
        N = 8
        a = q.destroy(N)
        H = a.dag() @ a
        psi0 = q.coherent(N, 1.0)
        ts = np.linspace(0, 1, 51)
        res = q.smesolve(H, psi0, ts, c_ops=[np.sqrt(kappa) * a], sc_ops=[],
                         e_ops=[a + a.dag()], options={"ntraj": 1, "seed": 9})
        ref = q.mesolve(H, psi0, ts, c_ops=[np.sqrt(kappa) * a], e_ops=[a + a.dag()],
                        options={"atol": 1e-10, "rtol": 1e-9})
        assert np.max(np.abs(res.expect[0] - ref.expect[0])) < 1e-8

    def test_monitored_cavity_statistics(self):
        kappa = 1.0
        N = 10
        a = q.destroy(N)
        H = 2.0 * (a.dag() @ a)
        x = a + a.dag()
        psi0 = q.coherent(N, 1.0)
        ts = np.linspace(0, 1, 41)
        res = q.smesolve(H, psi0, ts, sc_ops=[np.sqrt(kappa) * a], e_ops=[x],
                         options={"ntraj": 30, "seed": 14})
        ref = q.mesolve(H, psi0, ts, c_ops=[np.sqrt(kappa) * a], e_ops=[x])
        dev = np.abs(res.expect[0] - ref.expect[0])[1:]
        assert np.all(dev <= 5 * sigma_err(res)[1:] + 1e-3)

    def test_measurement_record_mean(self):
        kappa = 1.0
        N = 8
        a = q.destroy(N)
        H = q.qzero(N)
        x = a + a.dag()
        psi0 = q.coherent(N, 1.5)
        ts = np.linspace(0, 1, 21)
        res = q.smesolve(H, psi0, ts, sc_ops=[np.sqrt(kappa) * a], e_ops=[x],
                         options={"ntraj": 60, "seed": 2})
        ref = q.mesolve(H, psi0, ts, c_ops=[np.sqrt(kappa) * a], e_ops=[x])
        J = np.mean([rec[0] for rec in res.measurements], axis=0)
        J_std = np.std([rec[0] for rec in res.measurements], axis=0)
        band = 5 * J_std / np.sqrt(res.ntraj_used) + 1e-6
        assert np.all(np.abs(J - ref.expect[0][:-1]) <= band)

    def test_states_stay_unit_trace_and_hermitian(self):
        kappa = 1.0
        N = 6
        a = q.destroy(N)
        res = q.smesolve(q.qzero(N), q.coherent(N, 1.0), np.linspace(0, 0.5, 6),
                         sc_ops=[np.sqrt(kappa) * a],
                         options={"ntraj": 3, "seed": 1, "store_states": True})
        for s in res.average_states:
            assert abs(s.tr() - 1) < 1e-12
            assert np.max(np.abs(s.full() - s.full().conj().T)) < 1e-10

    def test_wiener_path_statistics(self):
        from oqsim.smesolve import WienerPath
        from oqsim.trajectory import trajectory_rng

        dt = 1e-3
        path = WienerPath(trajectory_rng(0, 0), 1, 20000, dt)
        inc = path.increments[0]
        assert abs(inc.mean()) < 5 * np.sqrt(dt / inc.size)
        assert abs(inc.var() - dt) < 5 * dt * np.sqrt(2.0 / inc.size)

    def test_nonuniform_tlist_rejected(self):
        a = q.destroy(4)
        with pytest.raises(ValueError):
            q.smesolve(q.qzero(4), q.basis(4, 0), [0.0, 0.1, 0.3], sc_ops=[a])

    def test_bad_substep_rejected(self):
        a = q.destroy(4)
        with pytest.raises(ValueError):
            q.smesolve(q.qzero(4), q.basis(4, 0), np.linspace(0, 1, 11), sc_ops=[a],
                       options={"dt_sub": 0.03})

    def test_seed_reproducibility(self):
        kappa = 0.5
        N = 6
        a = q.destroy(N)
        ts = np.linspace(0, 0.5, 11)
        r1 = q.smesolve(q.qzero(N), q.coherent(N, 1.0), ts, sc_ops=[np.sqrt(kappa) * a],
                        e_ops=[a + a.dag()], options={"ntraj": 10, "seed": 33})
        r2 = q.smesolve(q.qzero(N), q.coherent(N, 1.0), ts, sc_ops=[np.sqrt(kappa) * a],
                        e_ops=[a + a.dag()], options={"ntraj": 10, "seed": 33, "map": "parallel"})
        assert np.array_equal(r1.expect[0], r2.expect[0])


def loop_smesolve(H, rho0, tlist, c_ops, sc_ops, e_ops, ntraj, seed):
    """The per-trajectory Euler-Maruyama loop that the block engine replaced.

    Kept as the oracle for the block engine.  Returns one
    ``(expect, record, states)`` tuple per trajectory, with the default
    substep (spacing/100).
    """
    tlist = np.asarray(tlist, dtype=float)
    dt_out = tlist[1] - tlist[0]
    n_sub = 100
    dt = dt_out / n_sub
    H_evo = H if isinstance(H, q.QobjEvo) else q.QobjEvo(H)
    if rho0.isket:
        rho0 = rho0.proj()
    Hmat = H_evo(0.0).full() if H_evo.isconstant else None
    cs = [c.full() for c in c_ops]
    ss = [s.full() for s in sc_ops]
    cs_dag = [m.conj().T for m in cs]
    ss_dag = [m.conj().T for m in ss]
    cdc = [md @ m for m, md in zip(cs, cs_dag)]
    sds = [md @ m for m, md in zip(ss, ss_dag)]
    det_prop = None
    if Hmat is not None:
        L = q.liouvillian(q.Qobj(Hmat), [q.Qobj(m) for m in cs] + [q.Qobj(m) for m in ss])
        det_prop = scipy.linalg.expm(L.full() * dt)
    e_rows = [op.full().flatten(order="C") for op in e_ops]
    rho_init = rho0.full()
    rho_init = rho_init / np.trace(rho_init).real
    n_channels = len(ss)
    n_total_sub = n_sub * (tlist.size - 1)

    def lindblad_part(t, rho):
        h = Hmat if Hmat is not None else H_evo(t).full()
        out = -1j * (h @ rho - rho @ h)
        for m, md, mdm in zip(cs + ss, cs_dag + ss_dag, cdc + sds):
            out += m @ rho @ md - 0.5 * (mdm @ rho + rho @ mdm)
        return out

    def run_one(i):
        path = WienerPath(trajectory_rng(seed, i), n_channels, n_total_sub, dt)
        rho = rho_init.copy()
        expect = [np.empty(tlist.size, dtype=complex) for _ in e_rows]
        record = np.zeros((n_channels, tlist.size - 1))
        states = []

        def collect(j):
            flat = rho.flatten(order="F")
            for series, row in zip(expect, e_rows):
                series[j] = complex(row @ flat)
            states.append(rho.copy())

        collect(0)
        ptr = 0
        for j in range(tlist.size - 1):
            t = tlist[j]
            x_start = [float(np.trace((m + md) @ rho).real) for m, md in zip(ss, ss_dag)]
            dW_sum = np.zeros(n_channels)
            for _ in range(n_sub):
                dW = path.increments[:, ptr]
                ptr += 1
                if det_prop is not None:
                    rho = (det_prop @ rho.flatten(order="F")).reshape(rho.shape, order="F")
                else:
                    rho = rho + lindblad_part(t, rho) * dt
                for k, (m, md) in enumerate(zip(ss, ss_dag)):
                    hrho = m @ rho + rho @ md
                    hrho = hrho - np.trace(hrho) * rho
                    rho = rho + hrho * dW[k]
                rho = rho / np.trace(rho).real
                t += dt
                dW_sum += dW
            for k in range(n_channels):
                record[k, j] = x_start[k] + dW_sum[k] / dt_out
            collect(j + 1)
        return expect, record, states

    return [run_one(i) for i in range(ntraj)]


def block_smesolve(monkeypatch, H, rho0, tlist, c_ops, sc_ops, e_ops, ntraj, seed):
    """smesolve's result and its per-trajectory ``(expect, record, states)``."""
    blocks = []
    run_map = sme_module.run_map

    def capture(fn, *args, **kwargs):
        def kept(start):
            out = fn(start)
            blocks.append(out)
            return out

        return run_map(kept, *args, **kwargs)

    monkeypatch.setattr(sme_module, "run_map", capture)
    res = q.smesolve(H, rho0, tlist, c_ops=c_ops, sc_ops=sc_ops, e_ops=e_ops,
                     options={"ntraj": ntraj, "seed": seed, "store_states": True,
                              "keep_runs_results": True})
    return res, [traj for block in blocks for traj in block]


def assert_close(new, old):
    new, old = np.asarray(new), np.asarray(old)
    assert new.shape == old.shape
    assert np.max(np.abs(new - old)) <= 1e-12 * max(np.max(np.abs(old)), 1e-300)


def _sme_cases():
    N = 5
    a = q.destroy(N)
    n = a.dag() @ a
    x = a + a.dag()
    psi0 = q.coherent(N, 0.8)
    drive = q.QobjEvo([n, [x, lambda t: np.cos(3 * t)]])
    # A Hermitian H(t) built from non-Hermitian terms with complex coefficients.
    rotating = q.QobjEvo([n, [a, lambda t: 0.4 * np.exp(1j * t)],
                          [a.dag(), lambda t: 0.4 * np.exp(-1j * t)]])
    return {
        "two_sc_ops": (n, psi0, [], [np.sqrt(0.6) * a, np.sqrt(0.3) * n], [x]),
        "c_ops_and_sc_ops": (n, psi0, [np.sqrt(0.4) * a], [np.sqrt(0.5) * a], [x, n]),
        "time_dependent_h": (drive, psi0, [np.sqrt(0.2) * a], [np.sqrt(0.5) * a], [x]),
        "complex_coefficients": (rotating, psi0, [], [np.sqrt(0.5) * a], [x]),
        "non_hermitian_e_op": (n, psi0, [], [np.sqrt(0.5) * a], [a, x]),
    }


class TestSmeBlockEngine:
    @pytest.mark.parametrize("case", sorted(_sme_cases()))
    @pytest.mark.parametrize("ntraj", [1, 7, 53])
    def test_matches_the_per_trajectory_loop(self, monkeypatch, case, ntraj):
        H, psi0, c_ops, sc_ops, e_ops = _sme_cases()[case]
        ts = np.linspace(0, 0.2, 5)
        res, trajs = block_smesolve(monkeypatch, H, psi0, ts, c_ops, sc_ops, e_ops, ntraj, 8)
        oracle = loop_smesolve(H, psi0, ts, c_ops, sc_ops, e_ops, ntraj, 8)
        assert len(trajs) == res.ntraj_used == ntraj
        for (expect, record, states), (o_expect, o_record, o_states) in zip(trajs, oracle):
            for series, o_series in zip(expect, o_expect):
                assert_close(series, o_series)
            assert_close(record, o_record)
            assert_close(states, o_states)
        for k, op in enumerate(e_ops):
            runs = np.array([o_expect[k] for o_expect, _, _ in oracle])
            assert_close(res.runs_expect[k], runs.real if op.isherm else runs)
        assert_close(np.array(res.measurements), np.array([rec for _, rec, _ in oracle]))

    def test_reruns_are_byte_identical(self):
        a = q.destroy(6)
        ts = np.linspace(0, 0.3, 4)
        runs = [
            q.smesolve(a.dag() @ a, q.coherent(6, 1.0), ts, sc_ops=[a], e_ops=[a + a.dag()],
                       options={"ntraj": 53, "seed": 2, "keep_runs_results": True})
            for _ in range(2)
        ]
        assert runs[0].runs_expect[0].tobytes() == runs[1].runs_expect[0].tobytes()
        assert np.array(runs[0].measurements).tobytes() == np.array(runs[1].measurements).tobytes()

    def test_timeout_returns_a_prefix_of_trajectories(self):
        a = q.destroy(4)
        ts = np.linspace(0, 0.2, 3)
        args = (a.dag() @ a, q.coherent(4, 0.5), ts)
        kwargs = {"sc_ops": [a], "e_ops": [a + a.dag()]}
        full = q.smesolve(*args, **kwargs,
                          options={"ntraj": 120, "seed": 4, "keep_runs_results": True})
        cut = q.smesolve(*args, **kwargs,
                         options={"ntraj": 120, "seed": 4, "keep_runs_results": True,
                                  "timeout": 0.0})
        assert cut.ntraj_used == sme_module.BLOCK
        assert cut.seeds == full.seeds[: cut.ntraj_used]
        assert np.array_equal(cut.runs_expect[0], full.runs_expect[0][: cut.ntraj_used])
        assert all(np.array_equal(m, f) for m, f in zip(cut.measurements, full.measurements))

    def test_target_tol_stops_at_a_block_boundary(self):
        a = q.destroy(4)
        args = (a.dag() @ a, q.coherent(4, 0.5), np.linspace(0, 0.2, 3))
        kwargs = {"sc_ops": [a], "e_ops": [a + a.dag()]}
        loose = q.smesolve(*args, **kwargs, options={"ntraj": 200, "seed": 4, "target_tol": 1.0})
        first = q.smesolve(*args, **kwargs, options={"ntraj": 50, "seed": 4})
        assert loose.ntraj_used == sme_module.BLOCK == 50
        assert loose.expect[0].tobytes() == first.expect[0].tobytes()
        tight = q.smesolve(*args, **kwargs,
                           options={"ntraj": 200, "seed": 4, "target_tol": (0.0, 1e-9)})
        assert tight.ntraj_used == 200

    def test_stats_report_build_time_and_substeps(self):
        a = q.destroy(4)
        ts = np.linspace(0, 0.2, 5)
        res = q.smesolve(a.dag() @ a, q.basis(4, 1), ts, sc_ops=[a],
                         options={"ntraj": 3, "seed": 0})
        assert 0 < res.stats["build_time"] <= res.stats["run_time"]
        assert res.stats["substeps"] == 3 * 4 * 100

    def test_non_hermitian_initial_state_rejected(self):
        a = q.destroy(4)
        with pytest.raises(NotHermitianError):
            q.smesolve(a.dag() @ a, q.basis(4, 0) @ q.basis(4, 1).dag(), [0.0, 0.1],
                       sc_ops=[a])


def _stop_case(solver, **options):
    """A small mcsolve or smesolve run of 120 trajectories."""
    options = {"ntraj": 120, "seed": 4, **options}
    if solver == "mcsolve":
        return q.mcsolve(0.5 * q.sigmax(), q.basis(2, 0), np.linspace(0, 1, 3),
                         c_ops=[np.sqrt(0.5) * q.sigmam()], e_ops=[q.sigmaz()], options=options)
    a = q.destroy(4)
    return q.smesolve(a.dag() @ a, q.coherent(4, 0.5), np.linspace(0, 0.2, 3), sc_ops=[a],
                      e_ops=[a + a.dag()], options=options)


class TestStopReason:
    @pytest.mark.parametrize("solver", ["mcsolve", "smesolve"])
    @pytest.mark.parametrize("options, stop, ntraj_used", [
        ({}, "ntraj", 120),
        ({"target_tol": (0.0, 1e-9)}, "ntraj", 120),
        ({"target_tol": 1.0}, "target_tol", 50),
        ({"timeout": 0.0}, "timeout", 50),
        ({"timeout": 0.0, "ntraj": 50}, "ntraj", 50),
    ])
    def test_stats_name_why_the_run_ended(self, solver, options, stop, ntraj_used):
        res = _stop_case(solver, **options)
        assert (res.stats["stop"], res.ntraj_used) == (stop, ntraj_used)
        assert res.stats["ntraj_used"] == res.ntraj_used
        assert res.stats["ntraj_requested"] == options.get("ntraj", 120)

    def test_nm_mcsolve_reports_the_same_keys(self):
        res = q.nm_mcsolve(0.5 * q.sigmaz(), q.basis(2, 0), np.linspace(0, 1, 3),
                           [(q.sigmam(), 0.3)], e_ops=[q.sigmaz()],
                           options={"ntraj": 60, "seed": 1, "timeout": 0.0})
        assert res.stats["solver"] == "nm_mcsolve"
        assert (res.stats["stop"], res.stats["ntraj_used"], res.ntraj_used) == ("timeout", 50, 50)

    @pytest.mark.parametrize("solve", [
        lambda: _stop_case("mcsolve"),
        lambda: _stop_case("smesolve"),
        lambda: q.nm_mcsolve(0.5 * q.sigmaz(), q.basis(2, 0), [0.0, 1.0], [(q.sigmam(), 0.3)],
                             e_ops=[q.sigmaz()], options={"ntraj": 5, "seed": 1}),
        lambda: q.mcsolve(q.sigmaz(), q.basis(2, 0), [0.0, 1.0], e_ops=[q.sigmaz()],
                          options={"ntraj": 7, "seed": 1}),
    ], ids=["mcsolve", "smesolve", "nm_mcsolve", "mcsolve_delegated"])
    def test_every_trajectory_result_holds_the_shared_keys(self, solve):
        res = solve()
        shared = {"solver", "ntraj_requested", "ntraj_used", "stop", "map", "run_time"}
        assert shared <= set(res.stats)
        assert res.stats["ntraj_used"] == res.ntraj_used
        assert res.stats["run_time"] >= 0
        if "delegated" in res.stats:
            assert (res.stats["ntraj_requested"], res.stats["ntraj_used"]) == (7, 1)
            assert (res.stats["stop"], res.stats["delegated"]) == ("ntraj", "sesolve")


@st.composite
def _hermitian_and_operator(draw):
    d = draw(st.integers(1, 6))
    parts = draw(hnp.arrays(np.float64, (4, d, d), elements=st.floats(-10, 10)))
    m = parts[0] + 1j * parts[1]
    return 0.5 * (m + m.conj().T), parts[2] + 1j * parts[3]


@settings(max_examples=60, deadline=None)
@given(_hermitian_and_operator())
def test_hermitian_coordinates_round_trip(pair):
    rho, op = pair
    d = rho.shape[0]
    coords = HermitianCoords(d)
    r = coords.from_matrix(rho)
    assert r.shape == (d * d,) and r.dtype == np.float64
    scale = 1e-13 * (1 + np.max(np.abs(rho))) * (1 + np.max(np.abs(op))) * d
    assert np.max(np.abs(coords.to_matrices(r[:, None])[0] - rho)) <= scale
    assert abs(coords.functional(np.eye(d)) @ r - np.trace(rho)) <= scale
    assert abs(coords.functional(op) @ r - np.trace(op @ rho)) <= scale
    # rho -> op rho op^dag preserves Hermiticity, so its real form is exact.
    S = np.kron(op.conj(), op)
    image = coords.superop(S) @ r
    assert np.max(np.abs(image - coords.from_matrix(op @ rho @ op.conj().T))) <= scale * (
        1 + np.max(np.abs(op)))


class TestEnsembleProperties:
    def test_deviation_shrinks_with_ntraj(self):
        # Two-qubit model with local decay: the 4000-trajectory estimate is
        # closer to mesolve than the 250-trajectory one.
        eps, g, gamma = 1.0, 0.1, 0.1
        I2 = q.qeye(2)
        H = 0.5 * eps * (q.sigmaz() & I2) + 0.5 * eps * (I2 & q.sigmaz()) + g * (
            q.sigmax() & q.sigmax()
        )
        c = [np.sqrt(gamma) * (q.sigmam() & I2), np.sqrt(gamma) * (I2 & q.sigmam())]
        sz1 = q.sigmaz() & I2
        psi0 = q.basis(2, 0) & q.basis(2, 0)
        ts = np.linspace(0, 20, 11)
        ref = q.mesolve(H, psi0, ts, c_ops=c, e_ops=[sz1])

        devs = {}
        for ntraj in (250, 4000):
            res = q.mcsolve(H, psi0, ts, c_ops=c, e_ops=[sz1],
                            options={"ntraj": ntraj, "seed": 100,
                                     "improved_sampling": True})
            devs[ntraj] = np.max(np.abs(res.expect[0] - ref.expect[0]))
        assert devs[4000] <= devs[250]

    def test_nm_equals_mc_for_positive_constant_rates(self):
        # With constant positive rates the padding channel has zero rate and
        # the same seed reproduces the same trajectories (up to roundoff in
        # the drift assembly).
        g = 0.4
        H = 0.5 * q.sigmaz()
        ts = np.linspace(0, 6, 13)
        opts = {"ntraj": 50, "seed": 19}
        r_mc = q.mcsolve(H, q.basis(2, 0), ts, c_ops=[np.sqrt(g) * q.sigmam()],
                         e_ops=[q.sigmaz()], options=dict(opts))
        r_nm = q.nm_mcsolve(H, q.basis(2, 0), ts, [(q.sigmam(), g)],
                            e_ops=[q.sigmaz()], options=dict(opts))
        assert np.max(np.abs(r_mc.expect[0] - r_nm.expect[0])) < 1e-6
