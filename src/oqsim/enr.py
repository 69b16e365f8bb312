"""Excitation-number-restricted composite spaces.

A composite space with subsystem dimensions ``dims`` is restricted to the
occupation tuples ``(n_1, ..., n_m)`` with ``sum n_i <= n_exc`` and
``n_i < dims[i]``, enumerated in graded lexicographic order.  Operators built
here carry an ENR marker in their dimensions; ``tensor`` and ``ptrace`` reject
such objects (the compressed enumeration does not factor), and annihilation
operators of different subsystems in general no longer commute on the
restricted space.
"""

from __future__ import annotations

import math
from functools import cache, cached_property

import numpy as np
import scipy.sparse as sp

from . import data as _d
from .dimensions import Dimensions
from .exceptions import RangeError
from .qobj import Qobj
from .settings import default_dtype

__all__ = ["EnrSpace", "enr_space", "enr_destroy", "enr_fock", "enr_identity"]


class EnrSpace:
    """``states``: the tuples with ``n_i < dims[i]`` and ``sum n_i <= n_exc``,
    in graded lexicographic order; empty ``dims`` give the one empty tuple.

    The package's one enumeration of bounded multi-indices, and :meth:`ladder`
    its one search for raising neighbours; the HEOM hierarchy
    (:class:`~oqsim.heom.AdoIndexSet`) is such a space too.
    """

    def __init__(self, dims, n_exc: int):
        dims = [int(d) for d in dims]
        if any(d < 1 for d in dims):
            raise RangeError("subsystem dimensions must be positive")
        if n_exc < 0:
            raise RangeError("n_exc must be non-negative")
        self.dims = dims
        self.n_exc = int(n_exc)

        @cache
        def level(total, i):
            """Tuples over ``dims[i:]`` that sum to ``total``, in lexicographic order."""
            if i == len(dims):
                return ((),) if total == 0 else ()
            return tuple((first,) + rest for first in range(min(total, dims[i] - 1) + 1)
                         for rest in level(total - first, i + 1))

        self.states = [s for total in range(self.n_exc + 1) for s in level(total, 0)]
        self._index = {s: i for i, s in enumerate(self.states)}

    def __len__(self):
        return len(self.states)

    size = property(__len__)

    @cached_property
    def array(self) -> np.ndarray:
        """``states`` as an int64 array of shape ``(size, len(dims))``."""
        return np.array(self.states, dtype=np.int64).reshape(self.size, len(self.dims))

    @cached_property
    def _keys(self):
        """Mixed-radix keys of the states (Python ints past int64), digit weights,
        the sorting order, sorted keys, and which totals are below ``n_exc``."""
        dtype = np.int64 if math.prod(self.dims) <= 2**63 else object
        weights = np.array([math.prod(self.dims[:k]) for k in range(len(self.dims))], dtype=dtype)
        keys = self.array.astype(dtype) @ weights
        order = np.argsort(keys, kind="stable")
        return keys, weights, order, keys[order], self.array.sum(axis=1) < self.n_exc

    def ladder(self, k: int):
        """``(lower, upper)``: raising entry k of state ``lower[i]`` gives state
        ``upper[i]``, for every state that stays in the space, ``lower`` ascending.
        Raising adds the weight of digit k to the key; one ``searchsorted`` finds all.
        """
        keys, weights, order, sorted_keys, below = self._keys
        lower = np.flatnonzero(below & (self.array[:, k] < self.dims[k] - 1))
        return lower, order[np.searchsorted(sorted_keys, keys[lower] + weights[k])]

    def __eq__(self, other):
        if not isinstance(other, EnrSpace):
            return NotImplemented
        return self.dims == other.dims and self.n_exc == other.n_exc

    def __hash__(self):
        return hash((tuple(self.dims), self.n_exc))

    def index(self, occupations) -> int:
        key = tuple(int(n) for n in occupations)
        if key not in self._index:
            raise RangeError(
                f"occupation tuple {key} is outside the restricted space"
                f" (dims={self.dims}, n_exc={self.n_exc})"
            )
        return self._index[key]

    def __contains__(self, occupations) -> bool:
        return tuple(int(n) for n in occupations) in self._index

    def __repr__(self):
        return f"EnrSpace(dims={self.dims}, n_exc={self.n_exc}, size={self.size})"


def enr_space(dims, n_exc: int) -> EnrSpace:
    """Enumerate the restricted space in graded lexicographic order."""
    dims = list(dims)
    if not dims:
        raise RangeError("an ENR space needs at least one subsystem")
    return EnrSpace(dims, n_exc)


def _enr_dims(space: EnrSpace, kind: str) -> Dimensions:
    n = space.size
    if kind == "oper":
        return Dimensions([n], [n], enr=space)
    return Dimensions([n], [1], enr=space)


def enr_destroy(dims, n_exc: int, dtype: str | None = None):
    """Annihilation operators of each subsystem on the restricted space.

    Operator ``i`` maps ``|..., n_i, ...> -> sqrt(n_i) |..., n_i - 1, ...>``:
    its entries sit at the pairs of :meth:`EnrSpace.ladder`, built sparse.
    """
    space = enr_space(dims, n_exc)
    fmt = dtype or default_dtype("oper")
    ops = []
    for i in range(len(space.dims)):
        lower, upper = space.ladder(i)
        values = np.sqrt(space.array[upper, i]).astype(np.complex128)
        mat = sp.csr_matrix((values, (lower, upper)), shape=(space.size, space.size))
        ops.append(Qobj(_d.DataMatrix(mat, "csr"), dims=_enr_dims(space, "oper"), fmt=fmt))
    return ops


def enr_fock(dims, n_exc: int, occupations, dtype: str | None = None) -> Qobj:
    """Unit ket at the given occupation tuple of the restricted space."""
    space = enr_space(dims, n_exc)
    idx = space.index(occupations)
    vec = np.zeros((space.size, 1), dtype=np.complex128)
    vec[idx, 0] = 1.0
    return Qobj(_d.from_array(vec, dtype or default_dtype("state")), dims=_enr_dims(space, "ket"))


def enr_identity(dims, n_exc: int, dtype: str | None = None) -> Qobj:
    """Identity operator on the restricted space."""
    space = enr_space(dims, n_exc)
    fmt = dtype or default_dtype("oper")
    return Qobj(_d.identity_data(space.size, fmt), dims=_enr_dims(space, "oper"))
