"""Time-dependent objects: coefficients, splines, QobjEvo algebra."""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.interpolate import CubicSpline

import oqsim as q
from oqsim.coefficient import SplineCoefficient, coefficient
from oqsim.exceptions import CoefficientError, DimensionMismatchError, RangeError
from oqsim.qobjevo import apply_matrix, liouvillian_evo

RNG = np.random.default_rng(11)


def rand_herm(n):
    a = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    return q.Qobj((a + a.conj().T) / 2)


class TestCoefficients:
    def test_function_cos(self):
        c = coefficient(np.cos)
        assert q.coeff_eval(c, 0.0) == pytest.approx(1.0)

    def test_function_with_args(self):
        c = coefficient(lambda t, args: args["w"] * t)
        assert c(2.0, {"w": 3.0}) == pytest.approx(6.0)

    @pytest.mark.parametrize("fn", [np.sin, math.cos])
    def test_one_input_callables_called_with_t_only(self, fn):
        c = coefficient(fn)
        assert c(0.7, {"w": 3.0}) == pytest.approx(fn(0.7))

    def test_defaulted_second_parameter_not_handed_args(self):
        c = coefficient(lambda t, w=2.0: w * t)
        assert c(1.5) == pytest.approx(3.0)
        assert c(1.5, {"w": 5.0}) == pytest.approx(3.0)

    def test_args_parameter_receives_mapping(self):
        seen = []

        def required(t, args):
            seen.append(args)
            return args["w"] * t

        def defaulted(t, args=None):
            seen.append(args)
            return args["w"] * t

        mapping = {"w": 3.0}
        for fn in (required, defaulted):
            assert coefficient(fn)(2.0, mapping) == pytest.approx(6.0)
        assert seen == [mapping, mapping]

    @pytest.mark.parametrize("fn", [np.arctan2, np.modf])
    def test_ufunc_of_wrong_arity_refused(self, fn):
        with pytest.raises(CoefficientError):
            coefficient(fn)
        with pytest.raises(CoefficientError):
            q.QobjEvo([q.sigmaz(), (q.sigmax(), fn)])

    def test_constant(self):
        c = coefficient(2.5 - 1j)
        assert c(123.0) == 2.5 - 1j
        assert c.conj()(0.0) == 2.5 + 1j
        assert c.abs2()(0.0) == pytest.approx(abs(2.5 - 1j) ** 2)

    def test_spline_reproduces_knots(self):
        ts = np.linspace(0, 2 * np.pi, 101)
        vals = np.sin(ts)
        c = SplineCoefficient(ts, vals)
        for t, v in zip(ts[::10], vals[::10]):
            assert c(t) == pytest.approx(v, abs=1e-14)

    def test_spline_midpoint_error(self):
        ts = np.linspace(0, 2 * np.pi, 101)
        c = SplineCoefficient(ts, np.sin(ts))
        mids = 0.5 * (ts[:-1] + ts[1:])
        err = max(abs(c(t) - np.sin(t)) for t in mids)
        assert err <= 1e-6

    def test_spline_rejects_extrapolation(self):
        c = SplineCoefficient([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        with pytest.raises(RangeError):
            c(2.5)
        with pytest.raises(RangeError):
            c(-0.1)

    def test_spline_c2_continuity(self):
        # One-sided 4-point stencils are exact for cubics, so they read off the
        # one-sided second derivatives without cancellation noise.
        ts = np.linspace(0, 3, 31)
        c = SplineCoefficient(ts, np.exp(ts) * np.cos(3 * ts))
        d = (ts[1] - ts[0]) / 8

        def dd(knot, sign):
            f = [c(knot + sign * k * d) for k in range(4)]
            return (2 * f[0] - 5 * f[1] + 4 * f[2] - f[3]) / d**2

        for knot in ts[1:-1]:
            left, right = dd(knot, -1), dd(knot, +1)
            scale = max(abs(left), abs(right), 1.0)
            assert abs(left - right) / scale < 1e-8

    def test_spline_validation(self):
        with pytest.raises(ValueError):
            SplineCoefficient([0.0], [1.0])
        with pytest.raises(ValueError):
            SplineCoefficient([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])

    def test_spline_validation_errors_are_typed(self):
        for times in ([0.0], [0.0, 0.0, 1.0], [0.0, 2.0, 1.0], [0.0, float("nan"), 1.0]):
            with pytest.raises(RangeError):
                SplineCoefficient(times, np.ones(len(times)))
        with pytest.raises(DimensionMismatchError):
            SplineCoefficient([0.0, 1.0, 2.0], [1.0, 2.0])

    def test_spline_nan_time_is_range_error(self):
        c = SplineCoefficient([0.0, 1.0, 2.0], [0.0, 1.0, 0.0])
        with pytest.raises(RangeError):
            c(float("nan"))

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_spline_bits_match_cubic_spline(self, data):
        n = data.draw(st.integers(2, 400))
        t0 = data.draw(st.floats(-100.0, 100.0))
        gaps = data.draw(hnp.arrays(np.float64, n - 1, elements=st.floats(1e-3, 10.0)))
        times = t0 + np.concatenate([[0.0], np.cumsum(gaps)])
        assert np.all(np.diff(times) > 0)
        values = data.draw(hnp.arrays(np.complex128, n, elements=st.complex_numbers(
            max_magnitude=1e6, allow_nan=False, allow_infinity=False)))
        inside = data.draw(st.lists(st.floats(times[0], times[-1]), max_size=50))
        ref = CubicSpline(times, values, bc_type="natural")
        c = SplineCoefficient(times, values)
        for t in [float(x) for x in times] + inside:
            want, got = complex(ref(t)), c(t)
            assert type(got) is complex
            assert (got.real.hex(), got.imag.hex()) == (want.real.hex(), want.imag.hex()), t


class TestQobjEvo:
    def test_constant_list(self):
        H0 = rand_herm(3)
        evo = q.QobjEvo([H0])
        assert evo.isconstant
        for t in (0.0, 1.3, -2.0):
            assert np.array_equal(evo(t).full(), H0.full())

    def test_two_term_pattern(self):
        H0, H1 = rand_herm(2), rand_herm(2)
        evo = q.QobjEvo([H0, (H1, np.cos)])
        expected = H0.full() + np.cos(np.pi) * H1.full()
        assert np.max(np.abs(evo(np.pi).full() - expected)) < 1e-14

    def test_spline_term(self):
        H1 = rand_herm(2)
        ts = np.linspace(0, 5, 64)
        evo = q.QobjEvo([(H1, (ts, np.sin(ts)))])
        assert np.max(np.abs(evo(ts[7]).full() - np.sin(ts[7]) * H1.full())) < 1e-12

    def test_three_term_eval_matches_oracle(self):
        ops = [rand_herm(3) for _ in range(3)]
        fns = [np.cos, np.sin, lambda t: np.exp(-t)]
        evo = q.QobjEvo(list(zip(ops, fns)))
        t = 0.73
        oracle = sum(f(t) * op.full() for op, f in zip(ops, fns))
        assert np.max(np.abs(evo(t).full() - oracle)) < 1e-13

    def test_dims_mismatch_rejected(self):
        with pytest.raises(DimensionMismatchError):
            q.QobjEvo([q.sigmaz(), rand_herm(3)])

    def test_add_pointwise(self):
        a = q.QobjEvo([(q.sigmax(), np.cos)])
        b = q.QobjEvo([q.sigmaz(), (q.sigmay(), np.sin)])
        t = 1.1
        expected = a(t).full() + b(t).full()
        assert np.max(np.abs((a + b)(t).full() - expected)) < 1e-13

    def test_matmul_pointwise(self):
        a = q.QobjEvo([(q.sigmax(), np.cos)])
        b = q.QobjEvo([(q.sigmay(), np.sin)])
        t = 0.61
        expected = a(t).full() @ b(t).full()
        assert np.max(np.abs((a @ b)(t).full() - expected)) < 1e-13

    def test_scalar_multiple(self):
        a = q.QobjEvo([(q.sigmax(), np.cos)])
        t = 0.3
        assert np.max(np.abs((2 * a)(t).full() - 2 * a(t).full())) < 1e-14

    def test_dag_involution(self):
        a = q.QobjEvo([(q.destroy(3), lambda t: np.exp(1j * t))])
        t = 0.9
        assert np.max(np.abs(a.dag().dag()(t).full() - a(t).full())) < 1e-14
        assert np.max(np.abs(a.dag()(t).full() - a(t).dag().full())) < 1e-14

    def test_matvec_matches_call(self):
        evo = q.QobjEvo([rand_herm(4), (rand_herm(4), np.sin)])
        y = RNG.normal(size=4) + 1j * RNG.normal(size=4)
        t = 2.2
        assert np.max(np.abs(evo.matvec(t, y) - evo(t).full() @ y)) < 1e-13

    def test_call_shares_a_constant_generator(self):
        L = q.liouvillian(q.sigmaz(), [q.sigmam()])
        assert q.QobjEvo(L)(0.0).data.scipy_matrix() is L.data.scipy_matrix()
        evo = q.QobjEvo([L, (L, np.cos)])
        assert np.array_equal(evo(0.4).full(), L.full() + np.cos(0.4) * L.full())


class TestApplyMatrix:
    """``apply_matrix`` calls a private SciPy kernel; its bytes must stay ``m @ y``."""

    @staticmethod
    def random_csr(n, k, density, index_dtype=np.int32):
        m = sp.random(n, k, density=density, format="csr", random_state=RNG, dtype=float)
        m = sp.csr_matrix(m + 1j * m.multiply(RNG.normal(size=(n, k))), dtype=np.complex128)
        m.sort_indices()
        m.indptr = m.indptr.astype(index_dtype)
        m.indices = m.indices.astype(index_dtype)
        return m

    @staticmethod
    def assert_same_bytes(m, y):
        ref = m @ y
        out = apply_matrix(m, y)
        assert out.dtype == ref.dtype and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()

    def test_csr_matches_matmul_bytes(self, monkeypatch):
        cases = [(8, 8, 0.3, np.int32), (7, 5, 0.2, np.int32), (40, 40, 0.05, np.int64),
                 (6, 6, 0.0, np.int32)]
        mats = [self.random_csr(*case) for case in cases]
        mats.append(sp.csr_matrix(np.array([[0.3 - 1.7j]])))
        assert any(np.any(np.diff(m.indptr) == 0) for m in mats[:3])  # empty rows
        for m in mats:
            for _ in range(3):
                self.assert_same_bytes(m, RNG.normal(size=m.shape[1]) + 1j * RNG.normal(size=m.shape[1]))
            strided = RNG.normal(size=2 * m.shape[1]) + 1j * RNG.normal(size=2 * m.shape[1])
            self.assert_same_bytes(m, strided[::2])

        def no_dispatch(*args):
            raise AssertionError("apply_matrix went through SciPy's sparse dispatch")

        monkeypatch.setattr(sp.csr_matrix, "_matmul_dispatch", no_dispatch)
        y = np.ones(8, dtype=np.complex128)
        assert apply_matrix(mats[0], y).shape == (8,)

    def test_other_terms_are_matmul(self):
        dense = np.asfortranarray(RNG.normal(size=(5, 5)) + 1j * RNG.normal(size=(5, 5)))
        y = RNG.normal(size=5) + 1j * RNG.normal(size=5)
        self.assert_same_bytes(dense, y)
        self.assert_same_bytes(sp.dia_matrix(dense), y)
        csr = self.random_csr(5, 5, 0.4)
        self.assert_same_bytes(csr, RNG.normal(size=(5, 3)) + 0j)  # a stack of vectors
        self.assert_same_bytes(csr, RNG.normal(size=5))  # a real vector


class TestLiouvillianEvo:
    def test_constant_reduces_to_plain(self):
        H = rand_herm(2)
        c = 0.4 * q.sigmam()
        evo = liouvillian_evo(H, [c])
        plain = q.liouvillian(H, [c])
        assert np.max(np.abs(evo(0.7).full() - plain.full())) < 1e-14

    def test_time_dependent_h_matches_oracle(self):
        H0, H1 = rand_herm(2), rand_herm(2)
        c = 0.3 * q.sigmam()
        evo = liouvillian_evo(q.QobjEvo([H0, (H1, np.cos)]), [c])
        for t in (0.0, 0.8, 2.0):
            oracle = q.liouvillian(q.Qobj(H0.full() + np.cos(t) * H1.full()), [c])
            assert np.max(np.abs(evo(t).full() - oracle.full())) < 1e-14

    def test_td_collapse_rate_is_abs2(self):
        # D[f(t) a] carries |f(t)|^2 on both sandwich and anticommutator terms.
        a = q.sigmam()
        f = lambda t: np.cos(t) * np.exp(1j * t)
        evo = liouvillian_evo(None, [q.QobjEvo([(a, f)])])
        for t in (0.2, 1.5):
            oracle = abs(f(t)) ** 2 * q.lindblad_dissipator(a).full()
            assert np.max(np.abs(evo(t).full() - oracle)) < 1e-14

    def test_pointwise_property_composite(self):
        H = q.QobjEvo([rand_herm(2), (rand_herm(2), np.sin)])
        cs = [q.QobjEvo([(q.sigmam(), np.cos)])]
        evo = liouvillian_evo(H, cs)
        t = 1.37
        oracle = q.liouvillian(H(t), [np.cos(t) * q.sigmam()])
        assert np.max(np.abs(evo(t).full() - oracle.full())) < 1e-13
