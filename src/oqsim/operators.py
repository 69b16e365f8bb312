"""Factory functions for commonly used operators.

Sign convention for qubits: ``basis(2, 0)`` is the sigma-z = +1 excited state
and ``sigmam()`` = |1><0| lowers it to the ground state ``basis(2, 1)``.  Note
that ``destroy(2)`` lowers the *index* instead, so it equals ``sigmap()``.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from . import data as _d
from .dimensions import Dimensions
from .exceptions import RangeError
from .qobj import Qobj
from .settings import default_dtype

__all__ = [
    "identity",
    "qeye",
    "qeye_like",
    "qzero",
    "create",
    "destroy",
    "num",
    "position",
    "momentum",
    "displace",
    "squeeze",
    "sigmax",
    "sigmay",
    "sigmaz",
    "sigmap",
    "sigmam",
    "jmat",
    "spin_Jx",
    "spin_Jy",
    "spin_Jz",
    "spin_Jp",
    "spin_Jm",
    "commutator",
    "make_operator",
]


def _oper_fmt(dtype):
    return dtype or default_dtype("oper")


def _oper(arr, dims=None, dtype=None) -> Qobj:
    data = _d.from_array(arr, _oper_fmt(dtype))
    if dims is None:
        dims = Dimensions([arr.shape[0]], [arr.shape[1]])
    return Qobj(data, dims=dims)


def identity(dimensions, dtype: str | None = None) -> Qobj:
    """Identity on a single space (int) or a composite one (list of ints)."""
    if isinstance(dimensions, numbers.Integral):
        dims = [int(dimensions)]
    else:
        dims = [int(d) for d in dimensions]
    n = math.prod(dims)
    return Qobj(_d.identity_data(n, _oper_fmt(dtype)), dims=Dimensions(dims, dims))


qeye = identity


def qeye_like(q: Qobj) -> Qobj:
    return Qobj(_d.identity_data(q.shape[0], q.dtype), dims=q.dims)


def qzero(dimensions, dtype: str | None = None) -> Qobj:
    if isinstance(dimensions, numbers.Integral):
        dims = [int(dimensions)]
    else:
        dims = [int(d) for d in dimensions]
    n = math.prod(dims)
    return Qobj(_d.zeros_data(n, n, _oper_fmt(dtype)), dims=Dimensions(dims, dims))


def destroy(N: int, dtype: str | None = None) -> Qobj:
    """Annihilation operator: superdiagonal sqrt(1..N-1)."""
    if N < 1:
        raise RangeError(f"space dimension must be positive, got {N}")
    arr = np.diag(np.sqrt(np.arange(1, N, dtype=float)), k=1).astype(np.complex128)
    return _oper(arr, dtype=dtype)


def create(N: int, dtype: str | None = None) -> Qobj:
    return destroy(N, dtype=dtype).dag()


def num(N: int, dtype: str | None = None) -> Qobj:
    arr = np.diag(np.arange(N, dtype=float)).astype(np.complex128)
    return _oper(arr, dtype=dtype)


def position(N: int, dtype: str | None = None) -> Qobj:
    a = destroy(N, dtype=dtype)
    return (a + a.dag()) / math.sqrt(2)


def momentum(N: int, dtype: str | None = None) -> Qobj:
    a = destroy(N, dtype=dtype)
    return 1j * (a - a.dag()) / math.sqrt(2)


def displace(N: int, alpha: complex, dtype: str | None = None) -> Qobj:
    """Displacement operator exp(alpha a^dag - alpha* a)."""
    a = destroy(N, dtype="dense")
    op = (alpha * a.dag() - np.conj(alpha) * a).expm()
    return Qobj(op.to(_oper_fmt(dtype)))


def squeeze(N: int, z: complex, dtype: str | None = None) -> Qobj:
    """Single-mode squeezing operator exp((z* a^2 - z a^dag^2)/2)."""
    a = destroy(N, dtype="dense")
    op = (0.5 * (np.conj(z) * (a @ a) - z * (a.dag() @ a.dag()))).expm()
    return Qobj(op.to(_oper_fmt(dtype)))


def sigmax(dtype: str | None = None) -> Qobj:
    return _oper(np.array([[0, 1], [1, 0]], dtype=np.complex128), dtype=dtype)


def sigmay(dtype: str | None = None) -> Qobj:
    return _oper(np.array([[0, -1j], [1j, 0]], dtype=np.complex128), dtype=dtype)


def sigmaz(dtype: str | None = None) -> Qobj:
    return _oper(np.array([[1, 0], [0, -1]], dtype=np.complex128), dtype=dtype)


def sigmap(dtype: str | None = None) -> Qobj:
    """Raising operator |0><1| (ground -> excited)."""
    return _oper(np.array([[0, 1], [0, 0]], dtype=np.complex128), dtype=dtype)


def sigmam(dtype: str | None = None) -> Qobj:
    """Lowering operator |1><0| (excited -> ground)."""
    return _oper(np.array([[0, 0], [1, 0]], dtype=np.complex128), dtype=dtype)


def jmat(j: float, which: str = "z", dtype: str | None = None) -> Qobj:
    """Spin-j operator: ``which`` in {"x", "y", "z", "+", "-"}.

    Basis ordering is m = j, j-1, ..., -j (highest weight first), matching
    :func:`~oqsim.states.spin_state`.
    """
    twoj = int(round(2 * j))
    if twoj < 0 or abs(2 * j - twoj) > 1e-12:
        raise RangeError(f"j must be a non-negative half-integer, got {j}")
    dim = twoj + 1
    m = j - np.arange(dim)
    # <j, m+1| J+ |j, m> = sqrt(j(j+1) - m(m+1))
    raise_elems = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jp = np.zeros((dim, dim), dtype=np.complex128)
    jp[np.arange(dim - 1), np.arange(1, dim)] = raise_elems
    if which == "+":
        return _oper(jp, dtype=dtype)
    if which == "-":
        return _oper(jp.conj().T, dtype=dtype)
    if which == "x":
        return _oper((jp + jp.conj().T) / 2, dtype=dtype)
    if which == "y":
        return _oper((jp - jp.conj().T) / 2j, dtype=dtype)
    if which == "z":
        return _oper(np.diag(m).astype(np.complex128), dtype=dtype)
    raise RangeError(f"unknown jmat component {which!r}")


def spin_Jx(j, dtype=None):
    return jmat(j, "x", dtype=dtype)


def spin_Jy(j, dtype=None):
    return jmat(j, "y", dtype=dtype)


def spin_Jz(j, dtype=None):
    return jmat(j, "z", dtype=dtype)


def spin_Jp(j, dtype=None):
    return jmat(j, "+", dtype=dtype)


def spin_Jm(j, dtype=None):
    return jmat(j, "-", dtype=dtype)


def commutator(A: Qobj, B: Qobj, kind: str = "normal") -> Qobj:
    """Commutator [A, B] or, with ``kind="anti"``, the anticommutator {A, B}."""
    if kind == "normal":
        return A @ B - B @ A
    if kind == "anti":
        return A @ B + B @ A
    raise RangeError(f"unknown commutator kind {kind!r}")


_OPERATOR_KINDS = {
    "identity": identity,
    "qeye": qeye,
    "qzero": qzero,
    "create": create,
    "destroy": destroy,
    "num": num,
    "position": position,
    "momentum": momentum,
    "displace": displace,
    "squeeze": squeeze,
    "sigmax": sigmax,
    "sigmay": sigmay,
    "sigmaz": sigmaz,
    "sigmap": sigmap,
    "sigmam": sigmam,
    "jmat": jmat,
    "spin_Jx": spin_Jx,
    "spin_Jy": spin_Jy,
    "spin_Jz": spin_Jz,
    "spin_Jp": spin_Jp,
    "spin_Jm": spin_Jm,
    "commutator": commutator,
}


def make_operator(kind: str, *args, **kwargs) -> Qobj:
    """Dispatch to an operator factory by name."""
    try:
        fn = _OPERATOR_KINDS[kind]
    except KeyError:
        raise RangeError(f"unknown operator kind {kind!r}") from None
    return fn(*args, **kwargs)
