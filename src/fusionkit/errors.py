"""Exception taxonomy shared across the package, and the one check of integer input."""

import numpy as np


class FusionkitError(Exception):
    pass


class DomainError(FusionkitError, ValueError):
    """An argument lies outside the operation's domain."""


class ValidationError(FusionkitError, ValueError):
    """Structured input (table, JSON, contract) failed validation."""


class ResourceError(FusionkitError, RuntimeError):
    """A configured resource budget was exceeded."""


class UnsupportedFieldError(DomainError):
    """The ground field lacks a root required by the operation."""


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
_INTEGER_TYPES = frozenset({int, *(np.dtype(c).type for c in np.typecodes["AllInteger"])})  # bool is not one
_INT64_HOLDS = frozenset(np.dtype(c) for c in np.typecodes["AllInteger"] if np.can_cast(c, np.int64))


def integers(x, what: str, error=ValidationError, modulus=None) -> np.ndarray:
    """x as a new int64 array of its shape, every entry an integer.

    A float, bool, str, None or other object entry, and a ragged or nested
    one, raises error naming what and the first bad entry in the caller's
    order: a cast would truncate 1.5 to 1 and read True as 1 and "3" as 3.
    With a modulus the entries are reduced mod it, exactly for ints past
    int64; without one an entry past int64 raises.  An integer ndarray that
    int64 holds is checked by its dtype alone; any other input entry by
    entry, since np.array([True, 2]) is int64 and np.array([2**63]) uint64.
    """
    if type(x) is int and _INT64_MIN <= x <= _INT64_MAX:
        return np.array(x if modulus is None else x % modulus, dtype=np.int64)
    if isinstance(x, np.ndarray) and x.dtype in _INT64_HOLDS:
        x = x.astype(np.int64)
        return x if modulus is None else np.remainder(x, modulus, out=x)
    try:
        entries = np.array(x, dtype=object)
    except ValueError:  # arrays of clashing shapes, nested in a sequence
        raise error(f"{what} is ragged") from None
    flat = entries.ravel().tolist()
    if not _INTEGER_TYPES.issuperset(map(type, flat)):
        bad = next(v for v in flat if type(v) not in _INTEGER_TYPES)
        nested = " (ragged or nested)" if isinstance(bad, (list, tuple, np.ndarray)) else ""
        raise error(f"{what}: {' '.join(repr(bad).split())} is not an integer{nested}")
    try:
        out = entries.astype(np.int64)
    except OverflowError:  # an int past int64: reduced exactly, or refused
        if modulus is None:
            bad = next(int(v) for v in flat if not _INT64_MIN <= v <= _INT64_MAX)
            raise error(f"{what}: {bad} is past int64") from None
        out = np.array([int(v) % modulus for v in flat], dtype=np.int64).reshape(entries.shape)
    return out if modulus is None else np.remainder(out, modulus, out=out)
