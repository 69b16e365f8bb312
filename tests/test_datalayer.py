"""Data layer: formats, conversion, dispatched arithmetic, dense kernels."""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

import oqsim as q
from oqsim import data as d
from oqsim.exceptions import (
    ConvergenceError,
    DimensionMismatchError,
    NotHermitianError,
    RangeError,
    SingularMatrixError,
)
from oqsim.qobj import Qobj

RNG = np.random.default_rng(20240811)
FORMATS = ("dense", "csr", "dia")


def rand_matrix(n, m, density=1.0):
    arr = RNG.normal(size=(n, m)) + 1j * RNG.normal(size=(n, m))
    if density < 1.0:
        arr[RNG.uniform(size=(n, m)) > density] = 0.0
    return arr


SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)


class TestConvert:
    def test_sigmaz_to_csr_has_two_stored_values(self):
        m = d.convert(d.from_array(SZ, "dense"), "csr")
        assert m.fmt == "csr"
        assert m.nnz == 2
        indptr, indices, values = m.csr_parts()
        assert values[0] == 1 and values[1] == -1
        assert list(indices) == [0, 1]

    def test_round_trip_is_exact(self):
        arr = rand_matrix(5, 5)
        for fmt in ("csr", "dia"):
            back = d.convert(d.convert(d.from_array(arr), fmt), "dense")
            assert np.array_equal(back.to_array(), arr)

    def test_tridiagonal_to_dia(self):
        arr = np.diag(np.ones(4)) + np.diag(2 * np.ones(3), 1) + np.diag(3 * np.ones(3), -1)
        m = d.convert(d.from_array(arr), "dia")
        offsets, rows = m.dia_parts()
        assert list(offsets) == [-1, 0, 1]
        assert rows.shape == (3, 4)

    def test_all_pairs_round_through_dense(self):
        arr = rand_matrix(6, 4, density=0.4)
        for src in FORMATS:
            for dst in FORMATS:
                m = d.convert(d.from_array(arr, src), dst)
                assert m.fmt == dst
                assert np.max(np.abs(m.to_array() - arr)) == 0.0


class TestArithmetic:
    @pytest.mark.parametrize("fa", FORMATS)
    @pytest.mark.parametrize("fb", FORMATS)
    def test_add_matches_dense_oracle(self, fa, fb):
        a, b = rand_matrix(5, 5, 0.6), rand_matrix(5, 5, 0.6)
        out = d.add(d.from_array(a, fa), d.from_array(b, fb), scale=0.5 - 2j)
        assert np.max(np.abs(out.to_array() - (a + (0.5 - 2j) * b))) < 1e-13

    def test_add_zero_scale_is_identity(self):
        a, b = rand_matrix(4, 4), rand_matrix(4, 4)
        out = d.add(d.from_array(a, "csr"), d.from_array(b, "csr"), scale=0.0)
        assert np.allclose(out.to_array(), a, atol=1e-15)

    def test_mixed_format_pauli_sum(self):
        out = d.add(d.from_array(SZ, "csr"), d.from_array(SZ, "dense"))
        assert np.array_equal(out.to_array(), 2 * SZ)
        assert out.fmt == "dense"

    def test_promotion_rule(self):
        dense = d.from_array(SX, "dense")
        csr = d.from_array(SX, "csr")
        dia = d.from_array(SX, "dia")
        assert d.add(dense, csr).fmt == "dense"
        assert d.add(csr, dia).fmt == "csr"
        assert d.matmul(dia, dia).fmt == "dia"
        assert d.kron(csr, dense).fmt == "dense"

    def test_dia_product_with_an_empty_factor_is_zero(self):
        # SciPy's dia x dia kernel raises on a factor with no stored diagonal.
        x = q.destroy(3, dtype="dia")
        for prod in (q.qzero(3, dtype="dia") @ x, (x - x) @ x, x @ (x - x)):
            assert prod.data.fmt == "dia"
            assert not np.any(prod.full())

    def test_add_shape_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            d.add(d.from_array(rand_matrix(2, 2)), d.from_array(rand_matrix(3, 3)))

    @pytest.mark.parametrize("fa", FORMATS)
    @pytest.mark.parametrize("fb", FORMATS)
    def test_matmul_matches_dense_oracle(self, fa, fb):
        a, b = rand_matrix(5, 3, 0.7), rand_matrix(3, 4, 0.7)
        out = d.matmul(d.from_array(a, fa), d.from_array(b, fb))
        assert np.max(np.abs(out.to_array() - a @ b)) < 1e-13

    def test_pauli_products(self):
        sx = d.from_array(SX, "csr")
        assert np.allclose(d.matmul(sx, sx).to_array(), np.eye(2))
        sy = d.from_array(SY, "dense")
        assert np.allclose(d.matmul(sx, sy).to_array(), 1j * SZ)

    def test_csr_times_dense_column(self):
        a = rand_matrix(8, 8, 0.3)
        v = rand_matrix(8, 1)
        out = d.matmul(d.from_array(a, "csr"), d.from_array(v, "dense"))
        assert np.max(np.abs(out.to_array() - a @ v)) < 1e-14

    def test_matmul_inner_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            d.matmul(d.from_array(rand_matrix(2, 3)), d.from_array(rand_matrix(2, 3)))

    @pytest.mark.parametrize("fa", FORMATS)
    @pytest.mark.parametrize("fb", FORMATS)
    def test_kron_matches_dense_oracle(self, fa, fb):
        a, b = rand_matrix(3, 2, 0.8), rand_matrix(2, 4, 0.8)
        out = d.kron(d.from_array(a, fa), d.from_array(b, fb))
        assert out.shape == (6, 8)
        assert np.max(np.abs(out.to_array() - np.kron(a, b))) < 1e-13

    def test_kron_identities(self):
        eye2 = d.identity_data(2, "csr")
        assert np.array_equal(d.kron(eye2, eye2).to_array(), np.eye(4))
        zz = d.kron(d.from_array(SZ), d.from_array(SZ))
        assert np.array_equal(zz.to_array(), np.diag([1.0, -1, -1, 1]).astype(complex))


class TestUnaryTrace:
    def test_involutions(self):
        arr = rand_matrix(4, 4)
        m = d.from_array(arr, "csr")
        assert np.array_equal(d.unary(d.unary(m, "adjoint"), "adjoint").to_array(), arr)
        t = d.unary(m, "transpose").to_array()
        ca = d.unary(d.unary(m, "conjugate"), "adjoint").to_array()
        assert np.array_equal(t, ca)

    def test_adjoint_of_lowering(self):
        low = np.diag(np.sqrt([1.0, 2.0]), k=1)
        up = d.unary(d.from_array(low, "dia"), "adjoint")
        assert np.array_equal(up.to_array(), low.conj().T)

    def test_trace(self):
        assert d.trace(d.from_array(SZ, "csr")) == 0
        assert d.trace(d.identity_data(7, "dia")) == 7
        a, b = rand_matrix(4, 4), rand_matrix(4, 4)
        t1 = d.trace(d.matmul(d.from_array(a), d.from_array(b)))
        t2 = d.trace(d.matmul(d.from_array(b), d.from_array(a)))
        assert abs(t1 - t2) < 1e-12

    def test_trace_requires_square(self):
        with pytest.raises(DimensionMismatchError):
            d.trace(d.from_array(rand_matrix(2, 3)))

    def test_tidyup_removes_small_entries(self):
        arr = np.array([[1.0, 1e-16], [1e-15, 2.0]], dtype=complex)
        m = d.tidyup(d.from_array(arr, "csr"))
        assert m.nnz == 2


class TestExpm:
    def test_expm_zero_is_identity(self):
        out = d.expm(d.zeros_data(3, 3, "dense"))
        assert np.allclose(out.to_array(), np.eye(3), atol=1e-15)

    def test_expm_pauli_rotation(self):
        # exp(-i pi/2 sx) = cos(pi/2) I - i sin(pi/2) sx = -i sx
        out = d.expm(d.from_array(-1j * np.pi / 2 * SX, "dense"))
        assert np.max(np.abs(out.to_array() - (-1j * SX))) < 1e-13

    def test_expm_diagonal(self):
        out = d.expm(d.from_array(np.diag([0.3, -1.2 + 0.5j]), "dia"))
        assert out.fmt == "dia"
        assert np.allclose(np.diag(out.to_array()), np.exp([0.3, -1.2 + 0.5j]))

    def test_expm_inverse_identity(self):
        a = rand_matrix(5, 5)
        a *= 5.0 / np.linalg.norm(a, 2)
        ea = d.expm(d.from_array(a)).to_array()
        eminus = d.expm(d.from_array(-a)).to_array()
        assert np.max(np.abs(ea @ eminus - np.eye(5))) < 1e-10

    def test_expm_accuracy_vs_scipy(self):
        a = rand_matrix(6, 6)
        a *= 10.0 / np.linalg.norm(a, 2)
        ref = scipy.linalg.expm(a)
        out = d.expm(d.from_array(a)).to_array()
        assert np.max(np.abs(out - ref)) / np.max(np.abs(ref)) < 1e-12


class TestEigHerm:
    def test_pauli_spectra(self):
        w, _ = d.eig_herm(d.from_array(SZ))
        assert np.allclose(w, [-1, 1])
        w, v = d.eig_herm(d.from_array(SX))
        assert np.allclose(w, [-1, 1])
        vm = v.to_array()
        expected = np.array([1, -1]) / np.sqrt(2)
        overlap = abs(np.vdot(vm[:, 0], expected))
        assert abs(overlap - 1) < 1e-12

    def test_reconstruction_and_unitarity(self):
        a = rand_matrix(6, 6)
        h = (a + a.conj().T) / 2
        w, v = d.eig_herm(d.from_array(h, "csr"))
        vm = v.to_array()
        assert np.max(np.abs((vm * w) @ vm.conj().T - h)) < 1e-10
        assert np.max(np.abs(vm.conj().T @ vm - np.eye(6))) < 1e-10
        assert np.all(np.diff(w) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitianError):
            d.eig_herm(d.from_array(rand_matrix(4, 4)))


class TestSolveLinear:
    def test_identity(self):
        b = rand_matrix(5, 2)
        x = d.solve_linear(d.identity_data(5, "csr"), d.from_array(b))
        assert np.max(np.abs(x.to_array() - b)) < 1e-14

    @pytest.mark.parametrize("method", ["direct_lu", "iterative_gmres"])
    def test_residual(self, method):
        a = rand_matrix(8, 8) + 8 * np.eye(8)
        b = rand_matrix(8, 1)
        x = d.solve_linear(d.from_array(a), d.from_array(b), method=method)
        res = np.linalg.norm(a @ x.to_array() - b) / np.linalg.norm(b)
        assert res < 1e-10

    def test_zero_matrix_is_singular(self):
        with pytest.raises(SingularMatrixError):
            d.solve_linear(d.zeros_data(3, 3, "dense"), d.from_array(rand_matrix(3, 1)))

    def test_singular_matrix_detected(self):
        a = np.outer(rand_matrix(4, 1).ravel(), rand_matrix(4, 1).ravel())
        with pytest.raises(SingularMatrixError):
            d.solve_linear(d.from_array(a), d.from_array(rand_matrix(4, 1)))

    def test_gmres_nonconvergence(self):
        # A full random matrix is far from any small Krylov space; one outer
        # iteration cannot reach the tolerance.
        a = rand_matrix(64, 64) + 2 * np.eye(64)
        with pytest.raises(ConvergenceError):
            d.solve_linear(
                d.from_array(a), d.from_array(rand_matrix(64, 1)),
                method="iterative_gmres", maxiter=1, rtol=1e-12,
            )


def nonzero_offsets(arr):
    rows, cols = np.nonzero(arr)
    return sorted(set((cols - rows).tolist()))


@st.composite
def sparse_matrices(draw):
    """A complex CSR matrix of shape up to 8x8 with empty rows and stored zeros."""
    n, m = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    value = st.one_of(st.just(0j), st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                                      allow_infinity=False))
    entries = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1), value),
                            max_size=2 * n * m))
    rows, cols, vals = zip(*entries) if entries else ((), (), ())
    # Duplicates are summed; a zero value stays a stored entry.
    return sp.csr_matrix((np.array(vals, dtype=complex), (rows, cols)), shape=(n, m))


class TestOneConversionPath:
    """Every format pair converts directly; sparse <-> sparse allocates no dense matrix."""

    N = 2000
    PEAK_BOUND = 8 * 2**20  # bytes; a dense N x N complex matrix is 61 MiB

    @pytest.fixture(scope="class")
    def banded(self):
        rng = np.random.default_rng(18)
        offsets = (-2, 0, 1, 3)
        diags = [rng.normal(size=self.N - abs(k)) + 1j * rng.normal(size=self.N - abs(k))
                 for k in offsets]
        csr = d.DataMatrix(sp.diags(diags, offsets, format="csr", dtype=complex), "csr")
        return csr, d.convert(csr, "dia")

    @pytest.mark.parametrize("case", ["csr->dia", "dia->csr", "diag", "norm_max", "dia_parts"])
    def test_sparse_work_allocates_no_dense_matrix(self, banded, case):
        csr, dia = banded
        work = {
            "csr->dia": lambda: Qobj(csr).to("dia"),
            "dia->csr": lambda: Qobj(dia).to("csr"),
            "diag": lambda: Qobj(csr).diag(),
            "norm_max": lambda: Qobj(dia).norm("max"),
            "dia_parts": dia.dia_parts,
        }[case]
        tracemalloc.start()
        try:
            work()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.PEAK_BOUND, f"{case} peaked at {peak / 2**20:.1f} MiB"

    def test_sparse_helpers_read_the_payload(self, banded):
        csr, dia = banded
        arr = csr.to_array()
        for m in (csr, dia):
            assert np.array_equal(Qobj(m).diag(), np.diagonal(arr))
            assert Qobj(m).norm("max") == float(np.max(np.abs(arr)))
        offsets, rows = dia.dia_parts()
        assert list(offsets) == [-2, 0, 1, 3]
        for off, row in zip(offsets, rows):
            diag = np.diagonal(arr, offset=off)
            assert np.array_equal(row[: len(diag)], diag)
            assert not row[len(diag):].any()

    def test_stored_zeros_leave_no_dia_offset(self):
        csr = sp.csr_matrix((np.array([1.0, 0.0], dtype=complex), ([0, 0], [0, 2])), shape=(3, 3))
        assert csr.nnz == 2
        dia = d.convert(d.DataMatrix(csr, "csr"), "dia")
        dense_route = d.from_array(csr.toarray(), "dia")
        assert list(dia.dia_parts()[0]) == list(dense_route.dia_parts()[0]) == [0]

    def test_unknown_format_raises(self):
        m = d.from_array(SX)
        for call in (lambda: d.from_array(SX, "coo"), lambda: d.convert(m, "coo"),
                     lambda: d.zeros_data(2, 2, "coo")):
            with pytest.raises(RangeError):
                call()

    @settings(max_examples=150, deadline=None)
    @given(raw=sparse_matrices())
    def test_every_format_pair_is_exact(self, raw):
        ref = raw.toarray()
        sources = {
            "dense": d.from_array(ref, "dense"),
            "csr": d.DataMatrix(raw, "csr"),
            "dia": d.DataMatrix(raw.todia(), "dia"),  # keeps the stored zeros' diagonals
        }
        for src, m in sources.items():
            assert np.array_equal(m.to_array(), ref)
            for dst in FORMATS:
                out = d.convert(m, dst)
                assert out.fmt == dst
                assert np.array_equal(out.to_array(), ref), (src, dst)
                if dst == "dia" and src != "dia":  # dia -> dia returns the input as it is
                    assert list(out.dia_parts()[0]) == nonzero_offsets(ref), src
            assert np.array_equal(d.adjoint(m).to_array(), ref.conj().T)
            assert np.array_equal(d.transpose(m).to_array(), ref.T)
            assert np.array_equal(d.conjugate(m).to_array(), ref.conj())
            if ref.shape[0] == ref.shape[1]:
                assert d.trace(m) == np.trace(ref)
