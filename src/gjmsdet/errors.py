"""Error types shared across the library, and the one (d, k) check."""


class InvalidDimensionError(ValueError):
    """The sphere dimension is invalid (even, or too small)."""


class DivergentDeterminantError(ValueError):
    """The requested determinant diverges (operator order exceeds the dimension)."""


class Float64RangeError(ValueError):
    """The input is valid, but its quadrature value is out of float64 range."""


def validate_d_k(d: int, k: int) -> None:
    """Reject (d, k) unless d is odd, d >= 3 and 1 <= k <= d/2."""
    if d < 3 or d % 2 == 0:
        raise InvalidDimensionError(f"d must be an odd integer >= 3, got {d}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if 2 * k > d:
        raise DivergentDeterminantError(
            f"determinant diverges for 2k > d (d={d}, k={k})"
        )
