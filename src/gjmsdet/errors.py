"""Error types, and the argument checks: each names the argument and its value."""

import numbers
import sys
from functools import lru_cache, wraps


class InvalidDimensionError(ValueError):
    """The sphere dimension is invalid (not an int, even, or too small)."""


class DivergentDeterminantError(ValueError):
    """The requested determinant diverges (operator order exceeds the dimension)."""


class Float64RangeError(ValueError):
    """The input is valid, but its quadrature value is out of float64 range."""


def _is_int(value) -> bool:  # a bool is not an int here
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(name: str, n, least=None, error=ValueError) -> None:
    """Reject n unless it is an int and, when least is given, n >= least."""
    if not _is_int(n):
        raise error(f"{name} must be an integer, got {n!r}")
    if least is not None and n < least:
        raise error(f"{name} must be >= {least}, got {n}")


def _require_real(name: str, x, least) -> None:
    """Reject x unless it is a real number (a bool is not), finite and >= least."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        raise ValueError(f"{name} must be a number, got {x!r}")
    if not least <= x <= sys.float_info.max:  # also rejects nan
        raise ValueError(f"{name} must be finite and >= {least}, got {x}")


def _require_type(name: str, value, cls: type) -> None:
    """Reject value unless it is a cls."""
    if not isinstance(value, cls):
        raise ValueError(f"{name} must be a {cls.__name__}, got {value!r}")


def _cached_after(check, maxsize=None):
    """Decorate a function with an lru_cache that only sees arguments check
    has passed, so a bad argument is rejected by name, never hashed.  The
    result keeps the function's name, module and docstring (``__wrapped__``
    is the uncached function), the cache's cache_info and cache_clear, and
    the cache as ``_lru``, for arguments valid by construction."""
    def decorate(fn):
        cached = lru_cache(maxsize=maxsize)(fn)

        @wraps(fn)
        def checked(*args, **kwargs):
            check(*args, **kwargs)
            return cached(*args, **kwargs)

        checked.cache_info, checked.cache_clear = cached.cache_info, cached.cache_clear
        checked._lru = cached
        return checked

    return decorate


def validate_d(d: int, name: str = "d") -> None:
    """Reject d unless it is an odd int and d >= 3; the message calls it name."""
    _require_int(name, d, error=InvalidDimensionError)
    if d < 3 or d % 2 == 0:
        raise InvalidDimensionError(f"{name} must be an odd integer >= 3, got {d}")


def validate_d_k(d: int, k: int) -> None:
    """Reject (d, k) unless they are ints, d is odd, d >= 3 and 1 <= k <= d/2."""
    validate_d(d)
    _require_int("k", k, 1)
    if 2 * k > d:
        raise DivergentDeterminantError(
            f"determinant diverges for 2k > d (d={d}, k={k})"
        )
