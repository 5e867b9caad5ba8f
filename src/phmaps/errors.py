"""Exception types shared across the package, and the size budget they enforce."""

from numbers import Integral

MAX_GRID_POINTS = 2 ** 15


class PhmapsError(Exception):
    """Base class for all package errors."""


class InvalidMapError(PhmapsError):
    """Coefficient table violates the basic normalization (a_{1,1}=1, |b_{1,1}|<1)."""


class MapSyntaxError(PhmapsError):
    """Malformed .phm input. Carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


class WeightError(PhmapsError):
    """Convex-combination weights are invalid (negative, or do not sum to 1)."""


class NotMemberError(PhmapsError):
    """Operation requires class membership that the map does not have."""


class ParamError(PhmapsError):
    """Parameter outside the documented domain."""


class GridTooLargeError(PhmapsError):
    """A size knob exceeds MAX_GRID_POINTS: verify grid points, render vertices,
    distortion samples, or the half-plane truncation degree. Each is checked
    before anything is allocated."""


class NonFiniteError(PhmapsError):
    """A coefficient, grid value or image extent does not fit float64 (NaN or infinite),
    or a monomial degree does not fit int64."""


def as_integers(owner, *names: str) -> None:
    """Store each named size, degree or layer field of the record ``owner`` as a Python int, so
    that products of sizes cannot wrap; ParamError unless it is a Python or numpy integer."""
    for name in names:
        value = getattr(owner, name)
        if not isinstance(value, Integral):
            raise ParamError(f"{name} must be an integer, got {value!r}")
        object.__setattr__(owner, name, int(value))
