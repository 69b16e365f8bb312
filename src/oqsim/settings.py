"""Global defaults for newly created quantum objects."""

from .exceptions import RangeError

__all__ = ["default_dtype", "set_default_dtype"]

# Factory functions create operators in csr and states in dense unless told
# otherwise, either per call (dtype=...) or globally through this table.
_defaults = {"oper": "csr", "state": "dense"}


def default_dtype(role: str) -> str:
    """Current default data format for ``role`` in {"oper", "state"}."""
    return _defaults[role]


def set_default_dtype(oper: str | None = None, state: str | None = None) -> None:
    """Override the global default data formats used by factory functions."""
    from .data import FORMATS

    if oper is not None:
        if oper not in FORMATS:
            raise RangeError(f"unknown format {oper!r}")
        _defaults["oper"] = oper
    if state is not None:
        if state not in FORMATS:
            raise RangeError(f"unknown format {state!r}")
        _defaults["state"] = state
