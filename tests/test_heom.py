"""Environments, Matsubara decompositions, and the HEOM solver."""

import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import oqsim as q
from oqsim.exceptions import (
    DimensionMismatchError,
    MethodError,
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

    def test_labels_are_the_enr_states(self):
        for n, nc in ((7, 6), (7, 8), (9, 6), (1, 0)):
            assert AdoIndexSet(n, nc).labels == q.enr_space([nc + 1] * n, nc).states
        assert AdoIndexSet(0, 3).labels == [()]

    def test_outside_label_is_a_range_error(self):
        ados = AdoIndexSet(3, 2)
        assert ados.index((0, 2, 0)) == ados.labels.index((0, 2, 0))
        with pytest.raises(RangeError):
            ados.index((1, 1, 1))

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
        # The imaginary-part rate 1.0 shares the real-part index of rate 1.0:
        # two hierarchy indices, not three.
        H = 0.5 * q.sigmaz()
        ex = q.ExponentSet([0.5, 0.1], [1.0, 2.0], [0.2], [1.0])
        gen, ados = q.hierarchy_build(H, q.sigmaz(), ex, 3)
        expected = 4 * math.comb(3 + 2, 3)
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
        records += recs
        per_bath_ops += [(comm, anti)] * len(recs)
    ados = AdoIndexSet(len(records), n_c)
    L_sys = sp.csr_matrix(q.liouvillian(H, ()).data.scipy_matrix())
    eye = sp.identity(d2, dtype=np.complex128, format="csr")
    rows, cols, vals = [], [], []

    def put(a, b, block):
        block = block.tocoo()
        rows.append(block.row + a * d2)
        cols.append(block.col + b * d2)
        vals.append(block.data)

    rates = np.array([v for _, _, _, v in records])
    for a, label in enumerate(ados.labels):
        damp = complex(np.dot(np.asarray(label, dtype=float), rates)) if records else 0.0
        put(a, a, L_sys - damp * eye)
        for k, (kind, cR, cI, v) in enumerate(records):
            comm, anti = per_bath_ops[k]
            up = ados.up(label, k)
            if up is not None:
                put(a, ados.index(up), -1j * comm)
            down = ados.down(label, k)
            if down is not None:
                # An RI record puts both parts; the conversion to CSR adds them.
                n_k = label[k]
                if kind != "I":
                    put(a, ados.index(down), (-1j * n_k * cR) * comm)
                if kind != "R":
                    put(a, ados.index(down), (n_k * cI) * anti)
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


def _drude_lorentz_case():
    ex = q.matsubara_decompose(q.DrudeLorentzEnvironment(T=1.0, lam=0.1, gamma=0.5), 2)
    return 0.5 * q.sigmaz() + 0.3 * q.sigmax(), [(q.sigmaz(), ex)]


def _wide_case():
    # 2**64 label keys: more than int64 holds.
    ex = q.ExponentSet([0.1] * 64, [1.0 + 0.01 * j for j in range(64)], [], [])
    return 0.5 * q.sigmaz(), [(q.sigmaz(), ex)]


def _unmerged_records(exps):
    """One record per exponent, an imaginary-part one apart from a real-part one of equal rate."""
    return ([("R", c, 0, v) for c, v in zip(exps.ck_real, exps.vk_real)]
            + [("I", 0, c, v) for c, v in zip(exps.ck_imag, exps.vk_imag)])


class TestKroneckerBuild:
    @staticmethod
    def assert_bit_identical(case, n_c, records):
        H, baths = case()
        couplings = [(Q, records(ex)) for Q, ex in baths]
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
        "case, n_c",
        [
            (_underdamped_case, 0),
            (_underdamped_case, 1),
            (_underdamped_case, 3),
            # From n_c=4 on a one-shot ``labels @ rates`` rounds some damping
            # rates differently from the per-row dot products.
            (_underdamped_case, 4),
            (_two_bath_case, 3),
            (_drude_lorentz_case, 4),
            (_real_only_case, 4),
            (_wide_case, 1),
        ],
    )
    def test_bit_identical_to_loop_build(self, case, n_c):
        self.assert_bit_identical(case, n_c, _exponent_records)

    @pytest.mark.parametrize(
        "case, n_c", [(_underdamped_case, 3), (_two_bath_case, 3), (_drude_lorentz_case, 4)]
    )
    def test_unmerged_records_bit_identical_to_loop_build(self, case, n_c):
        # "R" and "I" records of equal rate, as the equivalence tests build them.
        self.assert_bit_identical(case, n_c, _unmerged_records)

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


def _merge_map(baths, ados_u, ados_m):
    """The stack map ``P`` from the unmerged hierarchy to the merged one.

    Merged ADO ``sigma^m`` is ``sum_(a+b=m) binom(m, a) rho^(a, b)`` over each
    RI index, where ``a`` counts its real-part and ``b`` its imaginary-part
    exponent in the unmerged labels (the imaginary-part rates here are distinct).
    """
    groups, offset = [], 0  # the unmerged positions of each merged index
    for _, ex in baths:
        for j, (kind, _, _, v) in enumerate(_exponent_records(ex)):
            imag = offset + ex.n_real + int(np.flatnonzero(np.isclose(ex.vk_imag, v))[0]) \
                if kind != "R" else None
            groups.append({"R": [offset + j], "RI": [offset + j, imag], "I": [imag]}[kind])
        offset += ex.n_real + ex.n_imag
    rows, cols, vals = [], [], []
    for col, label in enumerate(ados_u.labels):
        parts = [[label[u] for u in g] for g in groups]
        rows.append(ados_m.index(tuple(sum(p) for p in parts)))
        cols.append(col)
        vals.append(math.prod(math.comb(sum(p), p[0]) for p in parts))
    return sp.csr_matrix((vals, (rows, cols)), shape=(len(ados_m), len(ados_u)))


class TestMergedExponents:
    """An imaginary-part exponent that shares a real-part one's rate shares its index."""

    @pytest.mark.parametrize(
        "case, n_c", [(_underdamped_case, 2), (_underdamped_case, 3), (_two_bath_case, 3)]
    )
    def test_level_0_matches_the_unmerged_hierarchy(self, case, n_c):
        H, baths = case()
        d2 = H.shape[0] ** 2
        rho0 = ((q.basis(2, 0) + 0.5j * q.basis(2, 1)).unit().proj()).full().ravel(order="F")
        out = {}
        for records in (_exponent_records, _unmerged_records):
            gen, ados = _build_generator(H, [(Q, records(ex)) for Q, ex in baths], n_c)
            y0 = np.zeros(gen.shape[0], dtype=complex)
            y0[:d2] = rho0
            ys = spla.expm_multiply(gen.scipy_matrix().tocsc(), y0, start=0.0, stop=5.0,
                                    num=11, endpoint=True)
            out[records] = (len(ados), ys[:, :d2])
        (n_merged, merged), (n_unmerged, unmerged) = out.values()
        assert n_merged < n_unmerged
        assert np.ptp(np.abs(merged[:, 1])) > 1e-3  # the coherence moves
        assert np.max(np.abs(merged - unmerged)) <= 1e-10

    @pytest.mark.parametrize(
        "case, n_c", [(_underdamped_case, 3), (_two_bath_case, 3), (_drude_lorentz_case, 4)]
    )
    def test_merged_ados_are_binomial_sums_of_unmerged_ones(self, case, n_c):
        # P G_unmerged = G_merged P: the truncated hierarchies are one and the
        # same, so merging changes the cost, not the answer.
        H, baths = case()
        gen_m, ados_m = _build_generator(H, [(Q, _exponent_records(ex)) for Q, ex in baths], n_c)
        gen_u, ados_u = _build_generator(H, [(Q, _unmerged_records(ex)) for Q, ex in baths], n_c)
        P = sp.kron(_merge_map(baths, ados_u, ados_m),
                    sp.identity(H.shape[0] ** 2, dtype=complex), format="csr")
        lhs = (P @ gen_u.scipy_matrix()).toarray()
        rhs = (gen_m.scipy_matrix() @ P).toarray()
        assert np.max(np.abs(lhs - rhs)) <= 1e-13 * np.max(np.abs(rhs))

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), d=st.integers(2, 3), n_c=st.integers(0, 3),
           n_rates=st.integers(1, 4))
    def test_level_0_trace_and_ado_count(self, seed, d, n_c, n_rates):
        rng = np.random.default_rng(seed)

        def hermitian():
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            return q.Qobj(a + a.conj().T)

        rates = rng.uniform(0.1, 3.0, n_rates) + 1j * rng.uniform(-2.0, 2.0, n_rates)
        real = rng.random(n_rates) < 0.7
        imag = ~real | (rng.random(n_rates) < 0.5)  # every rate is in one part or both
        ex = q.ExponentSet(rng.normal(size=real.sum()) + 0j, rates[real],
                           rng.normal(size=imag.sum()) + 0j, rates[imag])
        gen, ados = q.hierarchy_build(hermitian(), hermitian(), ex, n_c)
        assert len(ados) == math.comb(n_c + n_rates, n_c)
        assert gen.shape[0] == len(ados) * d * d
        vec_eye = np.eye(d).ravel(order="F")
        flux = vec_eye @ gen.scipy_matrix()[: d * d, :]
        assert np.max(np.abs(flux)) <= 1e-12 * max(1.0, abs(gen.scipy_matrix()).max())


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

    def test_diag_expm_matches_rk45(self):
        env = q.DrudeLorentzEnvironment(T=1.0, lam=0.1, gamma=0.5)
        ex = q.matsubara_decompose(env, 1)
        H = 0.5 * q.sigmaz() + 0.4 * q.sigmax()
        ts = np.linspace(0, 4, 9)
        e_ops = [q.sigmaz(), q.sigmax()]
        ref = q.heomsolve(H, (ex, q.sigmaz()), q.basis(2, 0), ts, n_c=2, e_ops=e_ops,
                          options={"atol": 1e-13, "rtol": 1e-12})
        res = q.heomsolve(H, (ex, q.sigmaz()), q.basis(2, 0), ts, n_c=2, e_ops=e_ops,
                          options={"method": "diag_expm"})
        assert res.stats["rhs_evaluations"] == 0
        assert np.ptp(ref.expect[1]) > 0.1  # the sigma_x part drives real dynamics
        for a, b in zip(res.expect, ref.expect):
            assert np.max(np.abs(a - b)) < 1e-8
        assert np.max(np.abs(res.final_ados - ref.final_ados)) < 1e-8

    def test_time_dependent_h_is_a_method_error(self):
        ex = q.matsubara_decompose(q.DrudeLorentzEnvironment(T=1.0, lam=0.1, gamma=0.5), 1)
        H = q.QobjEvo([0.5 * q.sigmaz(), [q.sigmax(), lambda t: np.cos(t)]])
        with pytest.raises(MethodError, match="time-independent"):
            q.heomsolve(H, (ex, q.sigmaz()), q.basis(2, 0), [0.0, 1.0], n_c=1)


class TestDecayForm:
    """The adaptive method steps the ADO decay rates exactly (the integrator's decay form)."""

    def test_the_step_cap_keeps_the_exponentials_finite(self):
        # The bath couples only to level 2, which the state never occupies, so
        # every ADO stays exactly 0 and accuracy alone would let h grow far past
        # 700 / max|D| (max|D| = n_c * gamma = 4000), where e^(-hD) overflows
        # and the scaled zero stages turn to NaN.
        env = q.DrudeLorentzEnvironment(T=1.0, lam=0.1, gamma=2000.0)
        ex = q.matsubara_decompose(env, 2)
        b0, b1 = q.basis(3, 0), q.basis(3, 1)
        H = 0.2 * (b0 @ b1.dag() + b1 @ b0.dag()) + 0.1 * b1.proj()
        ts = np.linspace(0, 50, 26)
        e_ops = [b0.proj(), b0 @ b1.dag()]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow in the scalings would warn
            res = q.heomsolve(H, (ex, q.basis(3, 2).proj()), b0, ts, n_c=2, e_ops=e_ops)
        ref = q.heomsolve(H, (ex, q.basis(3, 2).proj()), b0, ts, n_c=2, e_ops=e_ops,
                          options={"method": "diag_expm"})
        assert all(np.all(np.isfinite(e)) for e in res.expect)
        assert res.stats["rejected_steps"] == 0
        assert res.stats["accepted_steps"] >= 50 * 4000 / 700  # the cap bound every step
        assert np.ptp(ref.expect[0]) > 0.1
        for a, b in zip(res.expect, ref.expect):
            assert np.max(np.abs(a - b)) <= 1e-6

    @pytest.mark.parametrize("n_c", [2, 3])
    def test_default_options_hold_the_level_0_slice_to_the_tolerance(self, n_c):
        # The underdamped bath of criterion 8 at a depth diag_expm can check.
        # The error is measured in the max norm: in the RMS norm over all
        # components the few level-0 entries count for little, and the states
        # here would miss diag_expm by 2.8e-6 (n_c=2) and 4.2e-6 (n_c=3),
        # against under 5e-7 in the max norm.
        H, [(Q, ex)] = _underdamped_case()
        ts = np.linspace(0, 20, 81)
        opts = {"store_states": True}
        res = q.heomsolve(H, (ex, Q), q.basis(2, 0), ts, n_c=n_c, options=opts)
        ref = q.heomsolve(H, (ex, Q), q.basis(2, 0), ts, n_c=n_c,
                          options={**opts, "method": "diag_expm"})
        rtol = q.IntegratorOptions().rtol
        dev = max(np.max(np.abs(a.full() - b.full())) for a, b in zip(res.states, ref.states))
        assert dev <= 2 * rtol  # well inside the 10 rtol of the benchmark's gate
        assert max(abs(s.tr() - 1) for s in res.states) <= 1e-12

    def test_demo_runs(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
               "PYTHONPATH": os.pathsep.join([os.path.join(root, "src"),
                                              os.environ.get("PYTHONPATH", "")])}
        demo = os.path.join(root, "demos", "06_heom_environments.py")
        run = subprocess.run([sys.executable, demo], capture_output=True, text=True, env=env,
                             timeout=300)
        assert run.returncode == 0, run.stderr
        drift = float(re.search(r"trace drift: (\S+)", run.stdout).group(1))
        assert drift <= 1e-6


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
