"""Excitation-number-restricted spaces."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oqsim as q
from oqsim import data as _d
from oqsim.enr import EnrSpace
from oqsim.exceptions import RangeError

RNG = np.random.default_rng(5)


def brute_force_states(dims, n_exc):
    out = [
        occ
        for occ in itertools.product(*(range(d) for d in dims))
        if sum(occ) <= n_exc
    ]
    return sorted(out, key=lambda occ: (sum(occ), occ))


class TestEnrSpace:
    def test_paper_example(self):
        space = q.enr_space([2, 2], 1)
        assert space.states == [(0, 0), (0, 1), (1, 0)]

    def test_single_subsystem(self):
        assert q.enr_space([4], 3).size == 4

    def test_matches_brute_force_enumeration(self):
        for dims, n_exc in (([3, 3, 3], 2), ([2, 4], 3), ([2, 2, 2, 2], 1), ([5], 2)):
            space = q.enr_space(dims, n_exc)
            assert space.states == brute_force_states(dims, n_exc)

    def test_random_sizes_against_oracle(self):
        for _ in range(5):
            m = int(RNG.integers(1, 4))
            dims = [int(RNG.integers(2, 5)) for _ in range(m)]
            n_exc = int(RNG.integers(0, 4))
            assert q.enr_space(dims, n_exc).size == len(brute_force_states(dims, n_exc))

    def test_index_zero_is_vacuum(self):
        space = q.enr_space([3, 2], 2)
        assert space.states[0] == (0, 0)
        assert space.index((0, 0)) == 0

    def test_needs_a_subsystem(self):
        with pytest.raises(RangeError):
            q.enr_space([], 2)
        assert EnrSpace([], 2).states == [()]

    @settings(max_examples=60, deadline=None)
    @given(dims=st.lists(st.integers(1, 5), min_size=1, max_size=4), n_exc=st.integers(0, 5))
    def test_states_and_ladder_match_brute_force(self, dims, n_exc):
        space = EnrSpace(dims, n_exc)
        states = brute_force_states(dims, n_exc)
        assert space.states == states
        for k in range(len(dims)):
            pairs = [(i, states.index(s[:k] + (s[k] + 1,) + s[k + 1:]))
                     for i, s in enumerate(states)
                     if s[k] + 1 < dims[k] and sum(s) < n_exc]
            lower, upper = space.ladder(k)
            assert list(zip(lower.tolist(), upper.tolist())) == pairs


def dense_destroy(dims, n_exc):
    """Reference annihilation operators: one dense array each, filled by a double loop."""
    space = q.enr_space(dims, n_exc)
    ops = []
    for i in range(len(space.dims)):
        arr = np.zeros((space.size, space.size), dtype=np.complex128)
        for src, occ in enumerate(space.states):
            if occ[i] > 0:
                target = list(occ)
                target[i] -= 1
                arr[space.index(target), src] = np.sqrt(occ[i])
        ops.append(arr)
    return ops


def payload(m):
    """The arrays a DataMatrix stores, dtypes and layout included."""
    raw = m.scipy_matrix()
    if m.fmt == "csr":
        return [raw.indptr, raw.indices, raw.data]
    if m.fmt == "dia":
        return [raw.offsets, raw.data]
    return [raw, np.array(raw.flags.f_contiguous)]


class TestEnrOperators:
    @pytest.mark.parametrize("fmt", ["csr", "dense", "dia"])
    @pytest.mark.parametrize("dims,n_exc", [([2, 2], 1), ([3, 3, 3], 2), ([2, 5], 3),
                                            ([1, 3, 2], 2), ([4], 0), ([3, 4, 2, 3], 4)])
    def test_destroy_equals_the_dense_reference(self, dims, n_exc, fmt):
        ops = q.enr_destroy(dims, n_exc, dtype=fmt)
        for op, ref in zip(ops, dense_destroy(dims, n_exc), strict=True):
            assert op.dtype == fmt
            got, want = payload(op.data), payload(_d.from_array(ref, fmt))
            assert [a.dtype for a in got] == [a.dtype for a in want]
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True))

    def test_destroy_allocates_no_dense_square(self):
        # 3003 states: one dense complex square is 144 MB.
        tracemalloc.start()
        try:
            ops = q.enr_destroy([7] * 8, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [op.data.nnz for op in ops] == [1287] * 8
        assert peak < 20e6

    def test_first_destroy_is_paper_projector(self):
        a1, _ = q.enr_destroy([2, 2], 1)
        expected = np.zeros((3, 3), dtype=complex)
        expected[0, 2] = 1.0  # |(0,0)><(1,0)|
        assert np.array_equal(a1.full(), expected)

    def test_number_operators_are_occupations(self):
        dims, n_exc = [3, 3], 2
        space = q.enr_space(dims, n_exc)
        ops = q.enr_destroy(dims, n_exc)
        for i, op in enumerate(ops):
            n_diag = np.diag((op.dag() @ op).full()).real
            assert np.allclose(n_diag, [occ[i] for occ in space.states])

    def test_cross_subsystem_noncommutation(self):
        a1, a2 = q.enr_destroy([2, 2], 1)
        comm = a1 @ a2.dag() - a2.dag() @ a1
        assert np.max(np.abs(comm.full())) > 0.5

    def test_destroy_annihilates_vacuum(self):
        for op in q.enr_destroy([3, 2, 2], 2):
            out = op @ q.enr_fock([3, 2, 2], 2, (0, 0, 0))
            assert np.max(np.abs(out.full())) == 0.0

    def test_fock_and_identity(self):
        f = q.enr_fock([2, 2], 1, (0, 1))
        assert f.full().ravel()[q.enr_space([2, 2], 1).index((0, 1))] == 1.0
        with pytest.raises(RangeError):
            q.enr_fock([2, 2], 1, (1, 1))
        ident = q.enr_identity([2, 2], 1)
        assert ident.tr() == pytest.approx(3.0)


class TestJaynesCummingsEquivalence:
    def test_single_excitation_dynamics(self):
        C = 6
        wc, wa, g = 1.0, 1.0, 0.1
        a_f = q.destroy(C)
        H_full = (
            wa * (q.sigmap() @ q.sigmam() & q.qeye(C))
            + wc * (q.qeye(2) & a_f.dag() @ a_f)
            + g * ((q.sigmap() & a_f) + (q.sigmam() & a_f.dag()))
        )
        psi_full = q.basis(2, 0) & q.basis(C, 0)

        a1, a2 = q.enr_destroy([2, C], 1)
        H_enr = wa * (a1.dag() @ a1) + wc * (a2.dag() @ a2) + g * (
            (a1.dag() @ a2) + (a2.dag() @ a1)
        )
        psi_enr = q.enr_fock([2, C], 1, (1, 0))

        ts = np.linspace(0, 20, 41)
        opts = {"atol": 1e-13, "rtol": 1e-12}
        r_full = q.sesolve(H_full, psi_full, ts,
                           e_ops=[q.sigmap() @ q.sigmam() & q.qeye(C)], options=opts)
        r_enr = q.sesolve(H_enr, psi_enr, ts, e_ops=[a1.dag() @ a1], options=opts)
        assert np.max(np.abs(r_full.expect[0] - r_enr.expect[0])) < 1e-10

    def test_enr_works_with_mesolve(self):
        C = 4
        a1, a2 = q.enr_destroy([2, C], 1)
        H = a1.dag() @ a1 + a2.dag() @ a2 + 0.2 * ((a1.dag() @ a2) + (a2.dag() @ a1))
        res = q.mesolve(H, q.enr_fock([2, C], 1, (1, 0)).proj(), np.linspace(0, 5, 11),
                        c_ops=[0.3 * a2], e_ops=[a1.dag() @ a1])
        assert res.expect[0][0] == pytest.approx(1.0, abs=1e-8)
        assert np.all(np.asarray(res.expect[0]) <= 1 + 1e-8)
