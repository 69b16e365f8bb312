"""Distance measures, entropies and entanglement measures for quantum states."""

from __future__ import annotations

import math

import numpy as np

from .exceptions import DimensionMismatchError, RangeError
from .qobj import Qobj

__all__ = [
    "fidelity",
    "tracedist",
    "entropy_vn",
    "entropy_linear",
    "concurrence",
    "negativity",
    "metric",
]

_EIG_FLOOR = -1e-10


def _to_dm(state: Qobj) -> Qobj:
    if state.isket or state.isbra:
        return state.proj()
    if not state.isoper:
        raise DimensionMismatchError(f"expected a state, got kind={state.kind}")
    return state


def _checked_probs(rho: Qobj) -> np.ndarray:
    """Eigenvalues of a density matrix, validated and clipped at zero."""
    w = np.linalg.eigvalsh(rho.full())
    if w.min() < _EIG_FLOOR:
        raise RangeError(
            f"density matrix has negative eigenvalue {w.min():.3e} beyond tolerance"
        )
    return np.clip(w, 0.0, None)


def fidelity(a: Qobj, b: Qobj) -> float:
    """Uhlmann fidelity ``tr sqrt(sqrt(rho) sigma sqrt(rho))``, in [0, 1].

    Pure states take a fast path through overlaps.  Eigenvalues of the inner
    product operator are clipped at zero before the square root so that
    roundoff-level negatives cannot poison the result.
    """
    if a.isket and b.isket:
        return min(1.0, abs(a.overlap(b)))
    if a.isket or b.isket:
        psi, rho = (a, _to_dm(b)) if a.isket else (b, _to_dm(a))
        if psi.dims.ket != rho.dims.ket:
            raise DimensionMismatchError("fidelity operands have mismatched dims")
        val = np.vdot(psi.full().ravel(), rho.full() @ psi.full().ravel()).real
        return min(1.0, math.sqrt(max(val, 0.0)))
    rho, sigma = _to_dm(a), _to_dm(b)
    if rho.dims.ket != sigma.dims.ket:
        raise DimensionMismatchError("fidelity operands have mismatched dims")
    sq = rho.sqrtm().full()
    inner = sq @ sigma.full() @ sq
    w = np.linalg.eigvalsh((inner + inner.conj().T) / 2)
    return min(1.0, float(np.sum(np.sqrt(np.clip(w, 0.0, None)))))


def tracedist(a: Qobj, b: Qobj) -> float:
    """Trace distance ``|| rho - sigma ||_1 / 2``, in [0, 1]."""
    rho, sigma = _to_dm(a), _to_dm(b)
    if rho.dims.ket != sigma.dims.ket:
        raise DimensionMismatchError("tracedist operands have mismatched dims")
    diff = rho.full() - sigma.full()
    sv = np.linalg.svd(diff, compute_uv=False)
    return float(np.sum(sv) / 2)


def entropy_vn(rho: Qobj, base: float = math.e) -> float:
    """Von Neumann entropy ``-tr(rho log_b rho)``."""
    p = _checked_probs(_to_dm(rho))
    p = p[p > 1e-15]
    return float(-np.sum(p * np.log(p)) / math.log(base))


def entropy_linear(rho: Qobj) -> float:
    """Linear entropy ``1 - tr(rho^2)``."""
    rho = _to_dm(rho)
    return float(1.0 - (rho @ rho).tr().real)


def concurrence(rho: Qobj) -> float:
    """Concurrence of a two-qubit density matrix.

    ``max(0, sqrt(l1) - sqrt(l2) - sqrt(l3) - sqrt(l4))`` with ``l_i`` the
    decreasing eigenvalues of ``rho (sy(x)sy) rho* (sy(x)sy)``.
    """
    rho = _to_dm(rho)
    if rho.dims.ket != [2, 2]:
        raise DimensionMismatchError("concurrence requires two-qubit dims [[2,2],[2,2]]")
    _checked_probs(rho)
    syy = np.kron(
        np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]])
    ).astype(np.complex128)
    r = rho.full() @ syy @ rho.full().conj() @ syy
    lam = np.sort(np.clip(np.linalg.eigvals(r).real, 0.0, None))[::-1]
    lam = np.sqrt(lam)
    return float(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]))


def _partial_transpose(rho: Qobj, subsys: int) -> np.ndarray:
    dims = rho.dims.ket
    nd = len(dims)
    arr = rho.full().reshape(dims + dims)
    perm = list(range(2 * nd))
    perm[subsys], perm[nd + subsys] = perm[nd + subsys], perm[subsys]
    n = rho.shape[0]
    return arr.transpose(perm).reshape(n, n)


def negativity(rho: Qobj, subsys: int = 0) -> float:
    """Negativity ``(||rho^{T_B}||_1 - 1)/2`` for the chosen subsystem."""
    rho = _to_dm(rho)
    if len(rho.dims.ket) < 2:
        raise DimensionMismatchError("negativity requires a composite state")
    if not 0 <= subsys < len(rho.dims.ket):
        raise RangeError(f"subsystem {subsys} out of range")
    pt = _partial_transpose(rho, subsys)
    sv = np.linalg.svd(pt, compute_uv=False)
    return float((np.sum(sv) - 1.0) / 2)


_METRICS = {
    "fidelity": fidelity,
    "tracedist": tracedist,
    "entropy_vn": entropy_vn,
    "entropy_linear": entropy_linear,
    "concurrence": concurrence,
    "negativity": negativity,
}


def metric(kind: str, *args, **kwargs) -> float:
    """Dispatch to a metric by name."""
    try:
        fn = _METRICS[kind]
    except KeyError:
        raise RangeError(f"unknown metric kind {kind!r}") from None
    return fn(*args, **kwargs)
