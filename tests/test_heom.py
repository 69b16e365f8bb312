"""Environments, Matsubara decompositions, and the HEOM solver."""

import math

import numpy as np
import pytest
import scipy.sparse as sp

import oqsim as q
from oqsim.exceptions import (
    DimensionMismatchError,
    NotHermitianError,
    RangeError,
    UnsupportedError,
)
from oqsim.heom import AdoIndexSet, _build_generator, _exponent_records
from oqsim.superop import spost, spre


class TestEnvironments:
    def test_underdamped_peak_value(self):
        lam, Gam, w0 = 0.5, 0.1, 1.5
        env = q.UnderdampedEnvironment(T=0.5, lam=lam, Gamma=Gam, w0=w0)
        assert env.spectral_density(w0) == pytest.approx(lam**2 / (Gam * w0))

    def test_spectral_density_positive_and_zero_at_origin(self):
        envs = [
            q.DrudeLorentzEnvironment(1.0, 0.4, 0.7),
            q.UnderdampedEnvironment(0.5, 0.5, 0.1, 1.5),
            q.OhmicEnvironment(1.0, 0.3, 2.0),
        ]
        for env in envs:
            w = np.linspace(0, 20, 101)
            J = np.asarray(env.spectral_density(w))
            assert np.all(J >= 0)
            assert env.spectral_density(0.0) == pytest.approx(0.0)

    def test_flat_bath_zero_temperature_limit(self):
        # J = gamma/2 at T=0 gives S(w) = gamma for w > 0, 0 for w < 0.
        gamma = 0.8
        env = q.CustomEnvironment(lambda w: gamma / 2 * np.ones_like(np.asarray(w, dtype=float)), T=0.0)
        assert env.power_spectrum(1.3) == pytest.approx(gamma)
        assert env.power_spectrum(-1.3) == pytest.approx(0.0)

    def test_kms_relation(self):
        for env in (
            q.DrudeLorentzEnvironment(1.3, 0.4, 0.7),
            q.UnderdampedEnvironment(0.5, 0.5, 0.1, 1.5),
            q.OhmicEnvironment(0.8, 0.3, 2.0),
        ):
            for w in (0.3, 1.1, 2.7):
                ratio = env.power_spectrum(w) / env.power_spectrum(-w)
                assert ratio == pytest.approx(np.exp(w / env.T), rel=1e-10)

    def test_correlation_t0_finite_kinds(self):
        env = q.UnderdampedEnvironment(0.5, 0.5, 0.1, 1.5)
        c0 = env.correlation(0.0)
        assert c0.imag == pytest.approx(0.0, abs=1e-10)
        assert c0.real > 0

    def test_correlation_conjugate_symmetry(self):
        env = q.DrudeLorentzEnvironment(1.0, 0.4, 0.7)
        c = env.correlation(0.8)
        cm = env.correlation(-0.8)
        assert cm == pytest.approx(np.conj(c), rel=1e-8)


class TestMatsubara:
    def test_drude_lorentz_structure(self):
        env = q.DrudeLorentzEnvironment(T=1.0, lam=0.4, gamma=0.7)
        for nk in (0, 2, 5):
            ex = q.matsubara_decompose(env, nk)
            assert ex.n_real == nk + 1
            assert ex.n_imag == 1
            assert np.all(np.concatenate([ex.vk_real, ex.vk_imag]).real > 0)

    def test_underdamped_structure(self):
        env = q.UnderdampedEnvironment(T=0.5, lam=0.5, Gamma=0.1, w0=1.5)
        for nk in (0, 3):
            ex = q.matsubara_decompose(env, nk)
            assert ex.n_real == nk + 2
            assert ex.n_imag == 2
            assert np.all(np.concatenate([ex.vk_real, ex.vk_imag]).real > 0)

    def test_reconstruction_converges_monotonically(self):
        env = q.DrudeLorentzEnvironment(T=1.0, lam=0.4, gamma=0.7)
        ts = np.linspace(0.1 / 0.7, 5 / 0.7, 9)
        oracle = env.correlation(ts)
        errs = []
        for nk in (0, 1, 2, 3, 5):
            rec = q.matsubara_decompose(env, nk).correlation(ts)
            errs.append(np.max(np.abs(rec - oracle)))
        assert all(b < a for a, b in zip(errs, errs[1:]))

    def test_underdamped_reconstruction(self):
        env = q.UnderdampedEnvironment(T=0.5, lam=0.5, Gamma=0.1, w0=1.5)
        ts = np.linspace(0.05, 8.0, 9)
        oracle = env.correlation(ts)
        rec = q.matsubara_decompose(env, 5).correlation(ts)
        assert np.max(np.abs(rec - oracle)) < 1e-5

    def test_zero_temperature_rejected(self):
        env = q.DrudeLorentzEnvironment(T=0.0, lam=0.4, gamma=0.7)
        with pytest.raises(UnsupportedError):
            q.matsubara_decompose(env, 2)

    def test_ohmic_rejected(self):
        env = q.OhmicEnvironment(1.0, 0.3, 2.0)
        with pytest.raises(UnsupportedError):
            q.matsubara_decompose(env, 2)

    def test_combine_merges_equal_rates(self):
        ex = q.ExponentSet([1.0, 2.0], [0.5, 0.5], [], [], combine=True)
        assert ex.n_real == 1
        assert ex.ck_real[0] == pytest.approx(3.0)


class TestCutoffHint:
    def test_single_exponent(self):
        ex = q.ExponentSet([1.0], [1.0], [], [])
        assert q.heom_cutoff_hint(ex, 3.2) == 4

    def test_min_over_all_exponents(self):
        ex = q.ExponentSet([1.0], [2.0], [0.5], [0.25])
        assert q.heom_cutoff_hint(ex, 1.0) == math.ceil(1.0 / 0.25)

    def test_monotone_in_slowest_rate(self):
        fast = q.ExponentSet([1.0], [2.0], [], [])
        slow = q.ExponentSet([1.0], [0.2], [], [])
        assert q.heom_cutoff_hint(slow, 1.0) > q.heom_cutoff_hint(fast, 1.0)


class TestAdoIndexSet:
    def test_count_is_binomial(self):
        for n, nc in ((3, 2), (5, 4), (9, 3)):
            ados = AdoIndexSet(n, nc)
            assert len(ados) == math.comb(nc + n, nc)

    def test_zero_index_first_and_graded(self):
        ados = AdoIndexSet(3, 2)
        assert ados.labels[0] == (0, 0, 0)
        totals = [sum(lab) for lab in ados.labels]
        assert totals == sorted(totals)

    def test_neighbor_maps_inverse(self):
        ados = AdoIndexSet(4, 3)
        for lab in ados.labels:
            for k in range(4):
                up = ados.up(lab, k)
                if up is not None:
                    assert ados.down(up, k) == lab
                down = ados.down(lab, k)
                if down is not None:
                    assert ados.up(down, k) == lab


class TestHierarchy:
    def test_cutoff_zero_reduces_to_unitary(self):
        H = 0.5 * q.sigmaz()
        ex = q.ExponentSet([0.5], [1.0], [], [])
        gen, ados = q.hierarchy_build(H, q.sigmaz(), ex, 0)
        assert len(ados) == 1
        L = q.liouvillian(H, ())
        assert np.max(np.abs(gen.to_array() - L.full())) < 1e-14

    def test_stack_dimension(self):
        H = 0.5 * q.sigmaz()
        ex = q.ExponentSet([0.5, 0.1], [1.0, 2.0], [0.2], [1.0])
        gen, ados = q.hierarchy_build(H, q.sigmaz(), ex, 3)
        expected = 4 * math.comb(3 + 3, 3)
        assert gen.shape == (expected, expected)

    def test_initial_dissipative_flux_vanishes(self):
        # With all ADOs zero, the level-0 derivative is purely unitary.
        H = 0.5 * q.sigmaz() + 0.2 * q.sigmax()
        ex = q.ExponentSet([0.5], [1.0], [-0.1], [1.0])
        gen, ados = q.hierarchy_build(H, q.sigmaz(), ex, 2)
        rho0 = q.basis(2, 0).proj().full().flatten(order="F")
        y0 = np.zeros(gen.shape[0], dtype=complex)
        y0[:4] = rho0
        deriv = gen.scipy_matrix() @ y0
        L = q.liouvillian(H, ()).full()
        assert np.max(np.abs(deriv[:4] - L @ rho0)) < 1e-14

    def test_non_hermitian_coupling_rejected(self):
        ex = q.ExponentSet([0.5], [1.0], [], [])
        with pytest.raises(NotHermitianError):
            q.hierarchy_build(0.5 * q.sigmaz(), q.sigmam(), ex, 2)

    def test_negative_cutoff_rejected(self):
        ex = q.ExponentSet([0.5], [1.0], [], [])
        with pytest.raises(RangeError):
            q.hierarchy_build(0.5 * q.sigmaz(), q.sigmaz(), ex, -1)


def loop_build(H, couplings, n_c):
    """Reference generator: one block sum per (ADO, exponent) pair."""
    d2 = H.shape[0] ** 2
    records, per_bath_ops = [], []
    for Q, recs in couplings:
        if Q.dims != H.dims:
            raise DimensionMismatchError("coupling operator dims do not match H")
        if not Q.isherm:
            raise NotHermitianError("HEOM coupling operators must be Hermitian")
        comm = sp.csr_matrix((spre(Q) - spost(Q)).data.scipy_matrix())
        anti = sp.csr_matrix((spre(Q) + spost(Q)).data.scipy_matrix())
        for kind, c, v in recs:
            records.append((kind, c, v))
            per_bath_ops.append((comm, anti))
    ados = AdoIndexSet(len(records), n_c)
    L_sys = sp.csr_matrix(q.liouvillian(H, ()).data.scipy_matrix())
    eye = sp.identity(d2, dtype=np.complex128, format="csr")
    rows, cols, vals = [], [], []

    def put(a, b, block):
        block = block.tocoo()
        rows.append(block.row + a * d2)
        cols.append(block.col + b * d2)
        vals.append(block.data)

    rates = np.array([v for _, _, v in records])
    for a, label in enumerate(ados.labels):
        damp = complex(np.dot(np.asarray(label, dtype=float), rates)) if records else 0.0
        put(a, a, L_sys - damp * eye)
        for k, (kind, c, v) in enumerate(records):
            comm, anti = per_bath_ops[k]
            up = ados.up(label, k)
            if up is not None:
                put(a, ados.index(up), -1j * comm)
            down = ados.down(label, k)
            if down is not None:
                n_k = label[k]
                if kind == "R":
                    put(a, ados.index(down), (-1j * n_k * c) * comm)
                else:
                    put(a, ados.index(down), (n_k * c) * anti)
    size = len(ados) * d2
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    ).tocsr()


def _underdamped_case():
    env = q.UnderdampedEnvironment(T=0.5, lam=0.5, Gamma=0.1, w0=1.5)
    return 0.75 * q.sigmaz() + 0.5 * q.sigmax(), [(q.sigmaz(), q.matsubara_decompose(env, 5))]


def _two_bath_case():
    ex = q.matsubara_decompose(q.DrudeLorentzEnvironment(T=1.0, lam=0.05, gamma=0.5), 1)
    return 0.5 * q.sigmaz(), [(q.sigmaz(), ex), (q.sigmax(), ex)]


def _real_only_case():
    ex = q.matsubara_decompose(q.DrudeLorentzEnvironment(T=1.0, lam=0.4, gamma=0.7), 2)
    real = q.ExponentSet(ex.ck_real, ex.vk_real, [], [])
    return 0.5 * q.sigmaz() + 0.3 * q.sigmax(), [(q.sigmax(), real)]


def _wide_case():
    # 2**64 label keys: more than int64 holds.
    ex = q.ExponentSet([0.1] * 64, [1.0 + 0.01 * j for j in range(64)], [], [])
    return 0.5 * q.sigmaz(), [(q.sigmaz(), ex)]


class TestKroneckerBuild:
    @pytest.mark.parametrize(
        "case, n_c",
        [
            (_underdamped_case, 0),
            (_underdamped_case, 1),
            (_underdamped_case, 3),
            # From n_c=4 on a one-shot ``labels @ rates`` rounds some damping
            # rates differently from the per-row dot products.
            (_underdamped_case, 4),
            (_two_bath_case, 3),
            (_real_only_case, 4),
            (_wide_case, 1),
        ],
    )
    def test_bit_identical_to_loop_build(self, case, n_c):
        H, baths = case()
        couplings = [(Q, _exponent_records(ex)) for Q, ex in baths]
        ref = loop_build(H, couplings, n_c)
        gen, ados = _build_generator(H, couplings, n_c)
        mat = gen.scipy_matrix()
        assert len(ados) * H.shape[0] ** 2 == mat.shape[0]
        assert mat.indptr.dtype == ref.indptr.dtype
        assert mat.indices.dtype == ref.indices.dtype
        assert np.array_equal(mat.indptr, ref.indptr)
        assert np.array_equal(mat.indices, ref.indices)
        assert mat.data.tobytes() == ref.data.tobytes()

    @pytest.mark.parametrize(
        "Q, n_c, error",
        [
            (q.qeye(3), 2, DimensionMismatchError),
            (q.sigmam(), 2, NotHermitianError),
            (q.sigmaz(), -1, RangeError),
        ],
    )
    def test_typed_errors_unchanged(self, Q, n_c, error):
        H = 0.5 * q.sigmaz()
        couplings = [(Q, _exponent_records(q.ExponentSet([0.5], [1.0], [0.2], [1.0])))]
        with pytest.raises(error):
            loop_build(H, couplings, n_c)
        with pytest.raises(error):
            _build_generator(H, couplings, n_c)


def dephasing_oracle(exponents, t):
    """Exact decoherence exponent 4*Re sum_k c_k (v t - 1 + e^{-v t})/v^2."""
    tot = 0.0 + 0j
    for c, v in zip(exponents.ck_real, exponents.vk_real):
        tot += c * (v * t - 1 + np.exp(-v * t)) / v**2
    for c, v in zip(exponents.ck_imag, exponents.vk_imag):
        tot += 1j * c * (v * t - 1 + np.exp(-v * t)) / v**2
    return 4 * tot.real


class TestHeomsolve:
    def test_pure_dephasing_oracle(self):
        w0 = 1.0
        env = q.DrudeLorentzEnvironment(T=1.0, lam=0.05, gamma=0.5)
        ex = q.matsubara_decompose(env, 1)
        psi0 = (q.basis(2, 0) + q.basis(2, 1)).unit()
        ts = np.linspace(0, 10, 21)
        res = q.heomsolve(0.5 * w0 * q.sigmaz(), (ex, q.sigmaz()), psi0, ts, n_c=8,
                          e_ops=None, options={"atol": 1e-10, "rtol": 1e-8,
                                               "store_states": True})
        coh = np.array([s.full()[0, 1] for s in res.states])
        exact = 0.5 * np.exp(-1j * w0 * ts) * np.exp(
            -np.array([dephasing_oracle(ex, t) for t in ts])
        )
        assert np.max(np.abs(coh - exact)) < 1e-4

    def test_weak_coupling_matches_born_markov(self):
        # Weak coupling and a broad bath (flat-ish spectrum near the system
        # frequency); compare eigenbasis populations, which are insensitive to
        # the bath-induced frequency shift.
        Delta = 1.0
        env = q.DrudeLorentzEnvironment(T=10 * Delta, lam=0.005 * Delta, gamma=5.0 * Delta)
        H = 0.5 * Delta * q.sigmax()
        ex = q.matsubara_decompose(env, 3)
        psi0 = (q.basis(2, 0) + q.basis(2, 1)).unit()
        ts = np.linspace(0, 30, 31)
        res = q.heomsolve(H, (ex, q.sigmaz()), psi0, ts, n_c=4, e_ops=[q.sigmax()])

        w, kets = H.eigenstates()
        c_ops = []
        for i in range(2):
            for j in range(2):
                rate = abs((kets[i].dag() @ q.sigmaz() @ kets[j]).full()[0, 0]) ** 2 \
                    * env.power_spectrum(w[j] - w[i])
                if rate > 1e-14:
                    c_ops.append(np.sqrt(rate) * (kets[i] @ kets[j].dag()))
        ref = q.mesolve(H, psi0, ts, c_ops=c_ops, e_ops=[q.sigmax()])
        assert np.max(np.abs(res.expect[0] - ref.expect[0])) < 0.02

    def test_trace_conservation_and_result_fields(self):
        env = q.DrudeLorentzEnvironment(T=1.0, lam=0.1, gamma=0.5)
        ex = q.matsubara_decompose(env, 2)
        ts = np.linspace(0, 5, 11)
        res = q.heomsolve(0.5 * q.sigmaz() + 0.3 * q.sigmax(), (ex, q.sigmaz()),
                          q.basis(2, 0), ts, n_c=4, e_ops=[q.sigmaz()])
        assert abs(res.final_state.tr() - 1) < 1e-6
        assert np.max(np.abs(res.final_state.full() - res.final_state.full().conj().T)) < 1e-8
        assert res.final_ados.shape == (res.stats["n_ados"], 4)
        assert res.ado_index.labels[0] == (0,) * res.ado_index.n_exponents

    def test_build_time_reported_within_run_time(self):
        H, [(Q, ex)] = _underdamped_case()
        res = q.heomsolve(H, (ex, Q), q.basis(2, 0), np.linspace(0, 1, 3), n_c=2,
                          e_ops=[q.sigmaz()])
        assert 0 < res.stats["build_time"] <= res.stats["run_time"]

    def test_multiple_baths(self):
        env = q.DrudeLorentzEnvironment(T=1.0, lam=0.05, gamma=0.5)
        ex = q.matsubara_decompose(env, 1)
        ts = np.linspace(0, 3, 7)
        res = q.heomsolve(
            0.5 * q.sigmaz(), [(ex, q.sigmaz()), (ex, q.sigmax())],
            q.basis(2, 0), ts, n_c=3, e_ops=[q.sigmaz()],
        )
        assert abs(res.final_state.tr() - 1) < 1e-6


class TestCutoffConvergence:
    def test_doubling_cutoff_is_cauchy(self):
        # Successive cutoff doublings change the answer less and less.
        Delta = 1.0
        env = q.UnderdampedEnvironment(T=0.5, lam=0.4 * Delta, Gamma=0.2 * Delta,
                                       w0=1.5 * Delta)
        ex = q.matsubara_decompose(env, 2)
        H = 0.75 * q.sigmaz() + 0.5 * Delta * q.sigmax()
        ts = np.linspace(0, 8, 17)
        series = {}
        for n_c in (2, 4, 8):
            res = q.heomsolve(H, (ex, q.sigmaz()), q.basis(2, 0), ts, n_c=n_c,
                              e_ops=[q.sigmaz()])
            series[n_c] = np.asarray(res.expect[0])
        first = np.max(np.abs(series[4] - series[2]))
        second = np.max(np.abs(series[8] - series[4]))
        assert second < first
