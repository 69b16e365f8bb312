"""Quantum objects: kind inference, factories, superoperators, metrics."""

import numpy as np
import pytest

import oqsim as q
from oqsim.exceptions import DimensionMismatchError, RangeError, UnsupportedError

RNG = np.random.default_rng(7)


def rand_herm(n):
    a = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    return q.Qobj((a + a.conj().T) / 2)


def rand_dm(n):
    a = RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n))
    rho = a @ a.conj().T
    return q.Qobj(rho / np.trace(rho))


def rand_oper(n):
    return q.Qobj(RNG.normal(size=(n, n)) + 1j * RNG.normal(size=(n, n)))


class TestKindInference:
    def test_oper_from_matrix(self):
        op = q.Qobj(np.array([[1, 0], [0, -1]]))
        assert op.kind == "oper"
        assert op.dims.as_list() == [[2], [2]]

    def test_ket_and_bra(self):
        assert q.Qobj(np.array([[1], [0]])).kind == "ket"
        assert q.Qobj(np.array([[1, 0]])).kind == "bra"

    def test_composite_oper(self):
        op = q.Qobj(np.eye(4), dims=[[2, 2], [2, 2]])
        assert op.kind == "oper"

    def test_super_kinds(self):
        s = q.spre(q.sigmaz())
        assert s.kind == "super"
        v = q.operator_to_vector(q.sigmaz())
        assert v.kind == "operator_ket"
        assert v.dag().kind == "operator_bra"

    def test_inconsistent_dims_rejected(self):
        with pytest.raises(DimensionMismatchError):
            q.Qobj(np.eye(4), dims=[[2, 3], [2, 2]])

    def test_unit_ket_norm(self):
        psi = q.Qobj(RNG.normal(size=(5, 1)) + 1j * RNG.normal(size=(5, 1))).unit()
        assert abs(psi.norm() - 1) < 1e-12

    @pytest.mark.parametrize("zero, noun", [
        (0 * q.basis(2, 0), "norm"), (0 * q.basis(2, 0).dag(), "norm"),
        (q.qzero(2), "trace"), (q.sigmaz(), "trace")])
    def test_unit_of_a_zero_object_is_a_range_error(self, zero, noun):
        with pytest.raises(RangeError, match=f"zero {noun}"):
            zero.unit()


class TestTensorPtrace:
    def test_tensor_dims(self):
        op = q.tensor(q.sigmaz(), q.sigmaz())
        assert op.dims.as_list() == [[2, 2], [2, 2]]
        assert np.array_equal(op.full(), np.diag([1.0, -1, -1, 1]).astype(complex))

    def test_tensor_of_kets(self):
        v = q.tensor(q.basis(2, 0), q.basis(2, 0))
        assert v.dims.as_list() == [[2, 2], [1, 1]]
        assert np.array_equal(v.full().ravel(), [1, 0, 0, 0])

    def test_tensor_spectrum_with_identity(self):
        A = rand_herm(2)
        evals = np.linalg.eigvalsh(A.full())
        big = q.tensor(A, q.qeye(2))
        got = np.linalg.eigvalsh(big.full())
        assert np.allclose(np.sort(got), np.sort(np.repeat(evals, 2)), atol=1e-12)

    def test_tensor_associativity(self):
        a, b, c = rand_oper(2), rand_oper(3), rand_oper(2)
        left = q.tensor(q.tensor(a, b), c)
        flat = q.tensor(a, b, c)
        assert np.array_equal(left.full(), flat.full())

    def test_tensor_mixed_kinds_rejected(self):
        with pytest.raises(DimensionMismatchError):
            q.tensor(q.basis(2, 0), q.sigmaz())

    def test_ptrace_bell(self):
        rho = q.bell_state("00").proj()
        red = q.ptrace(rho, [0])
        assert np.max(np.abs(red.full() - np.eye(2) / 2)) < 1e-12

    def test_ptrace_product_state(self):
        rho, sigma = rand_dm(2), rand_dm(3)
        joint = q.tensor(rho, sigma)
        red = q.ptrace(joint, [0])
        assert np.max(np.abs(red.full() - rho.full())) < 1e-12

    def test_ptrace_preserves_trace(self):
        rho = rand_dm(8)
        rho = q.Qobj(rho.full(), dims=[[2, 2, 2], [2, 2, 2]])
        for keep in ([0], [1], [0, 2]):
            assert abs(q.ptrace(rho, keep).tr() - rho.tr()) < 1e-12

    def test_ptrace_index_error(self):
        rho = q.tensor(rand_dm(2), rand_dm(2))
        with pytest.raises(RangeError):
            q.ptrace(rho, [2])


class TestExpect:
    def test_sigmaz_on_excited(self):
        assert q.expect(q.sigmaz(), q.basis(2, 0)) == pytest.approx(1.0)

    def test_identity_on_dm(self):
        rho = rand_dm(4)
        assert q.expect(q.qeye(4), rho) == pytest.approx(1.0, abs=1e-12)

    def test_sigmax_on_plus(self):
        plus = (q.basis(2, 0) + q.basis(2, 1)).unit()
        assert q.expect(q.sigmax(), plus) == pytest.approx(1.0)

    def test_real_for_hermitian(self):
        val = q.expect(rand_herm(3), rand_dm(3))
        assert isinstance(val, float)

    def test_dims_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            q.expect(q.sigmaz(), q.basis(3, 0))


class TestStates:
    def test_basis(self):
        assert np.array_equal(q.basis(3, 1).full().ravel(), [0, 1, 0])
        with pytest.raises(RangeError):
            q.basis(3, 3)

    def test_bell_states(self):
        b00 = q.bell_state("00").full().ravel()
        assert np.allclose(b00, np.array([1, 0, 0, 1]) / np.sqrt(2))
        b11 = q.bell_state("11").full().ravel()
        assert np.allclose(b11, np.array([0, 1, -1, 0]) / np.sqrt(2))

    def test_w_state(self):
        w = q.w_state(3).full().ravel()
        expected = np.zeros(8)
        expected[[4, 2, 1]] = 1 / np.sqrt(3)
        assert np.allclose(w, expected)

    def test_ghz_state(self):
        g = q.ghz_state(3).full().ravel()
        assert g[0] == pytest.approx(1 / np.sqrt(2))
        assert g[-1] == pytest.approx(1 / np.sqrt(2))

    def test_coherent_poisson_weights(self):
        alpha = 1.0
        psi = q.coherent(20, alpha).full().ravel()
        n = np.arange(11)
        import math

        poisson = np.exp(-abs(alpha) ** 2) * abs(alpha) ** (2 * n) / np.array(
            [math.factorial(k) for k in n], dtype=float
        )
        assert np.max(np.abs(np.abs(psi[:11]) ** 2 - poisson)) < 1e-8

    def test_thermal_dm(self):
        rho = q.thermal_dm(30, 2.0)
        assert abs(rho.tr() - 1) < 1e-12
        n = q.expect(q.num(30), rho)
        assert abs(n - 2.0) < 1e-3  # truncation-limited

    def test_singlet_triplet(self):
        s = q.singlet_state().full().ravel()
        assert np.allclose(s, np.array([0, 1, -1, 0]) / np.sqrt(2))
        trips = q.triplet_states()
        assert len(trips) == 3
        assert np.allclose(trips[0].full().ravel(), [0, 0, 0, 1])

    def test_maximally_mixed(self):
        rho = q.maximally_mixed_dm(5)
        assert np.allclose(rho.full(), np.eye(5) / 5)

    def test_spin_states(self):
        assert np.array_equal(q.spin_state(1, 0).full().ravel(), [0, 1, 0])
        sc = q.spin_coherent(0.5, np.pi / 2, 0.0)
        # theta=pi/2, phi=0 rotates |up> into (|up> + |down|)/sqrt(2) up to phase
        probs = np.abs(sc.full().ravel()) ** 2
        assert np.allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_make_state_dispatch(self):
        psi = q.make_state("basis", 2, 1)
        assert psi.kind == "ket"
        with pytest.raises(RangeError):
            q.make_state("nonsense")


class TestOperators:
    def test_sigmaz_matrix(self):
        assert np.array_equal(q.sigmaz().full(), np.diag([1.0, -1.0]).astype(complex))

    def test_destroy_superdiagonal(self):
        a = q.destroy(3).full()
        assert a[0, 1] == pytest.approx(1.0)
        assert a[1, 2] == pytest.approx(np.sqrt(2))
        assert np.count_nonzero(a) == 2

    def test_create_is_adjoint(self):
        assert np.array_equal(q.create(4).full(), q.destroy(4).full().conj().T)

    def test_sigmam_lowers_excited(self):
        out = q.sigmam() @ q.basis(2, 0)
        assert np.array_equal(out.full().ravel(), q.basis(2, 1).full().ravel())

    def test_position_momentum(self):
        # With p = i(a - a^dag)/sqrt(2), the commutator [x, p] is -i away from
        # the truncation edge.
        x, p = q.position(12), q.momentum(12)
        comm = (x @ p - p @ x).full()
        assert np.allclose(np.diag(comm)[:-1], -1j, atol=1e-12)
        assert np.allclose((p @ p).full(), (q.momentum(12) @ q.momentum(12)).full())

    def test_displace_matches_coherent(self):
        alpha = 0.7 - 0.3j
        psi1 = (q.displace(30, alpha) @ q.basis(30, 0)).full().ravel()
        psi2 = q.coherent(30, alpha).full().ravel()
        assert np.max(np.abs(psi1 - psi2)) < 1e-8

    def test_squeeze_is_unitary(self):
        s = q.squeeze(16, 0.3 + 0.1j).full()
        assert np.max(np.abs(s @ s.conj().T - np.eye(16))) < 1e-10

    def test_num(self):
        assert np.array_equal(np.diag(q.num(4).full()).real, [0, 1, 2, 3])

    def test_jmat_spin_half_matches_paulis(self):
        assert np.allclose(q.jmat(0.5, "x").full(), q.sigmax().full() / 2)
        assert np.allclose(q.jmat(0.5, "y").full(), q.sigmay().full() / 2)
        assert np.allclose(q.jmat(0.5, "z").full(), q.sigmaz().full() / 2)

    def test_jmat_commutator(self):
        jx, jy, jz = (q.jmat(1, w) for w in "xyz")
        assert np.max(np.abs((jx @ jy - jy @ jx - 1j * jz).full())) < 1e-12

    def test_commutator_anti(self):
        out = q.commutator(q.sigmax(), q.sigmax(), kind="anti")
        assert np.allclose(out.full(), 2 * np.eye(2))

    def test_make_operator_dispatch(self):
        assert q.make_operator("sigmax").kind == "oper"
        with pytest.raises(RangeError):
            q.make_operator("warp_drive")

    def test_default_dtype(self):
        assert q.sigmaz().dtype == "csr"
        assert q.basis(2, 0).dtype == "dense"
        q.set_default_dtype(oper="dense")
        try:
            assert q.sigmaz().dtype == "dense"
        finally:
            q.set_default_dtype(oper="csr")
        assert q.sigmaz(dtype="dia").dtype == "dia"


class TestSuperoperators:
    def test_super_identity(self):
        s = q.super_lr(q.qeye(2), q.qeye(2))
        assert np.array_equal(s.full(), np.eye(4))

    def test_sandwich_identity_random(self):
        A, B, rho = rand_oper(3), rand_oper(3), rand_oper(3)
        lhs = (q.super_lr(A, B) @ q.operator_to_vector(rho)).full().ravel()
        rhs = (A @ rho @ B).full().flatten(order="F")
        assert np.max(np.abs(lhs - rhs)) < 1e-13

    def test_spre_on_vec_identity(self):
        A = rand_oper(3)
        out = q.spre(A) @ q.operator_to_vector(q.qeye(3))
        assert np.max(np.abs(out.full().ravel() - A.full().flatten(order="F"))) < 1e-14

    def test_vectorization_round_trip(self):
        rho = rand_oper(4)
        back = q.vector_to_operator(q.operator_to_vector(rho))
        assert np.array_equal(back.full(), rho.full())
        vec_eye = q.operator_to_vector(q.qeye(2)).full().ravel()
        assert np.array_equal(vec_eye, [1, 0, 0, 1])

    def test_dissipator_identity_is_zero(self):
        out = q.lindblad_dissipator(q.qeye(3))
        assert np.max(np.abs(out.full())) < 1e-14

    def test_dissipator_decay_action(self):
        out = q.lindblad_dissipator(q.sigmam()) @ q.operator_to_vector(
            q.basis(2, 0).proj()
        )
        expected = (q.basis(2, 1).proj() - q.basis(2, 0).proj()).full().flatten(order="F")
        assert np.max(np.abs(out.full().ravel() - expected)) < 1e-14

    def test_dissipator_trace_preserving(self):
        a = rand_oper(3)
        D = q.lindblad_dissipator(a)
        vec_id = q.operator_to_vector(q.qeye(3)).full().ravel()
        assert np.max(np.abs(vec_id @ D.full())) < 1e-12

    def test_liouvillian_definitions(self):
        H = rand_herm(3)
        L0 = q.liouvillian(H, [])
        expected = -1j * (q.spre(H) - q.spost(H))
        assert np.max(np.abs(L0.full() - expected.full())) < 1e-14

        g = 0.4
        L1 = q.liouvillian(None, [np.sqrt(g) * q.sigmam()])
        assert np.max(np.abs(L1.full() - g * q.lindblad_dissipator(q.sigmam()).full())) < 1e-14

    def test_liouvillian_manual_composition(self):
        H = rand_herm(2)
        c = 0.3 * q.sigmam()
        manual = (
            -1j * (q.spre(H) - q.spost(H))
            + q.sprepost(c, c.dag())
            - 0.5 * q.spre(c.dag() @ c)
            - 0.5 * q.spost(c.dag() @ c)
        )
        auto = q.liouvillian(H, [c])
        assert np.max(np.abs(manual.full() - auto.full())) < 1e-14

    def test_liouvillian_traceless_derivative(self):
        H = rand_herm(3)
        L = q.liouvillian(H, [rand_oper(3)])
        rho = rand_dm(3)
        deriv = L.full() @ rho.full().flatten(order="F")
        vec_id = q.operator_to_vector(q.qeye(3)).full().ravel()
        assert abs(vec_id @ deriv) < 1e-12

    def test_liouvillian_super_passthrough(self):
        H = rand_herm(2)
        L = q.liouvillian(H, [])
        L2 = q.liouvillian(L, [q.sigmam()])
        expected = L + q.lindblad_dissipator(q.sigmam())
        assert np.max(np.abs(L2.full() - expected.full())) < 1e-14


class TestMetrics:
    def test_fidelity_self(self):
        rho = rand_dm(4)
        assert q.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_fidelity_symmetric(self):
        rho, sigma = rand_dm(4), rand_dm(4)
        assert q.fidelity(rho, sigma) == pytest.approx(q.fidelity(sigma, rho), abs=1e-10)

    def test_tracedist_orthogonal_pure(self):
        assert q.tracedist(q.basis(2, 0), q.basis(2, 1)) == pytest.approx(1.0)

    def test_entropy_vn_mixed(self):
        assert q.entropy_vn(q.maximally_mixed_dm(2)) == pytest.approx(np.log(2))
        assert q.entropy_vn(q.maximally_mixed_dm(2), base=2) == pytest.approx(1.0)

    def test_entropy_vn_pure_is_zero(self):
        psi = q.Qobj(RNG.normal(size=(4, 1)) + 1j * RNG.normal(size=(4, 1))).unit()
        assert abs(q.entropy_vn(psi.proj())) < 1e-10

    def test_entropy_linear(self):
        assert q.entropy_linear(q.maximally_mixed_dm(2)) == pytest.approx(0.5)
        assert abs(q.entropy_linear(q.basis(2, 0).proj())) < 1e-12

    def test_concurrence_bell(self):
        assert q.concurrence(q.bell_state("00").proj()) == pytest.approx(1.0, abs=1e-10)
        sep = q.tensor(q.basis(2, 0), q.basis(2, 1)).proj()
        assert q.concurrence(sep) == pytest.approx(0.0, abs=1e-10)

    def test_negativity_bell(self):
        assert q.negativity(q.bell_state("00").proj()) == pytest.approx(0.5, abs=1e-10)

    def test_negativity_subsystem_out_of_range(self):
        with pytest.raises(RangeError):
            q.negativity(q.bell_state("00").proj(), 2)

    def test_metric_dispatch(self):
        rho = rand_dm(2)
        assert q.metric("fidelity", rho, rho) == pytest.approx(1.0, abs=1e-10)
        with pytest.raises(RangeError):
            q.metric("warp", rho)


class TestEnrRejection:
    def test_tensor_and_ptrace_reject_enr(self):
        ops = q.enr_destroy([2, 2], 1)
        with pytest.raises(UnsupportedError):
            q.tensor(ops[0], ops[1])
        with pytest.raises(UnsupportedError):
            q.ptrace(ops[0], [0])
