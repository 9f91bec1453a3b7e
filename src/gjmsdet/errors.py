"""Error types shared across the library, and the d and (d, k) checks."""


class InvalidDimensionError(ValueError):
    """The sphere dimension is invalid (not an int, even, or too small)."""


class DivergentDeterminantError(ValueError):
    """The requested determinant diverges (operator order exceeds the dimension)."""


class Float64RangeError(ValueError):
    """The input is valid, but its quadrature value is out of float64 range."""


def _require_int(name: str, n, error: type[ValueError] = ValueError) -> None:
    """Reject n unless it is an int; a bool is not one."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise error(f"{name} must be an integer, got {n!r}")


def validate_d(d: int) -> None:
    """Reject d unless it is an odd int and d >= 3."""
    _require_int("d", d, InvalidDimensionError)
    if d < 3 or d % 2 == 0:
        raise InvalidDimensionError(f"d must be an odd integer >= 3, got {d}")


def validate_d_k(d: int, k: int) -> None:
    """Reject (d, k) unless they are ints, d is odd, d >= 3 and 1 <= k <= d/2."""
    validate_d(d)
    _require_int("k", k)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if 2 * k > d:
        raise DivergentDeterminantError(
            f"determinant diverges for 2k > d (d={d}, k={k})"
        )
