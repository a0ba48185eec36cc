"""Exception hierarchy for the rational Dyck path toolkit.

Every domain-level failure raises a subclass of :class:`DyckError`, so callers
can distinguish bad input from genuine bugs (``InternalInvariantError``) and
from conjecture-level surprises (``NoPreimage``, ``RoundTripFailure``).
"""

from __future__ import annotations


class DyckError(Exception):
    """Base class for all domain errors raised by this package."""


class NotCoprime(DyckError):
    """The grid dimensions a and b are not relatively prime."""


class PathParseError(DyckError):
    """A step string contains a character other than N or E."""

    def __init__(self, text: str, offset: int):
        self.text = text
        self.offset = offset
        super().__init__(f"invalid step {text[offset]!r} at offset {offset}")


class WrongStepCounts(DyckError):
    """A step string does not contain exactly a norths and b easts."""


class BelowDiagonal(DyckError):
    """A lattice path dips strictly below the main diagonal."""

    def __init__(self, point: tuple[int, int]):
        self.point = point
        super().__init__(f"path goes below the diagonal at {point}")


class NotSquareCase(DyckError):
    """An operation defined only for b = a + 1 was called on other dims."""


class AreaZero(DyckError):
    """The path has no box to remove."""


class NotACore(DyckError):
    """A partition has a box of forbidden hook length a or b."""


class MethodDisagreement(DyckError):
    """Two constructions of the same map returned different paths."""

    def __init__(self, name: str, results: dict):
        self.name = name
        self.results = results
        lines = ", ".join(f"{k}={v}" for k, v in sorted(results.items()))
        super().__init__(f"{name} cross-check disagreement: {lines}")


class NotACycle(DyckError):
    """The pairing permutation of (Q, R) has more than one cycle."""


class NotADyckPath(DyckError):
    """A decoded descent pattern does not describe a Dyck path."""


class InconsistentPair(DyckError):
    """iota produced a path whose images do not reproduce (Q, R)."""


class NoPreimage(DyckError):
    """zeta_inverse proved that Q has no preimage under zeta: value
    iteration climbed to a level above a*b, which no path reaches."""


class DimensionTooSmall(DyckError):
    """The operation needs both grid dimensions to be at least 2."""


class Level1NotVisited(DyckError):
    """The path does not pass through the lattice point of level 1."""


class NoBoxToAdd(DyckError):
    """The predecessor chain already reached its bottom element."""


class NoEastInPrefix(DyckError):
    """The first delta steps contain no east step."""


class NoNorthInPrefix(DyckError):
    """The first delta steps contain no north step."""


class NotFussCase(DyckError):
    """The width is not congruent to 1 modulo the height."""


class RoundTripFailure(DyckError):
    """A decoded preimage failed its mandatory zeta round-trip check."""

    def __init__(self, message: str, deltas: tuple[int, ...] = ()):
        self.deltas = deltas
        super().__init__(message)


class InexactDivision(DyckError):
    """Polynomial division left a remainder that should have been zero."""


class TooManyBoxes(DyckError):
    """Requested more boxes than fit above the diagonal."""


class InvalidValleyIndex(DyckError):
    """The valley index k must satisfy 0 <= k < min(a, b)."""


class UnsupportedOverlay(DyckError):
    """A render overlay is unknown or invalid for the requested object."""


class InternalInvariantError(DyckError):
    """An internal consistency assertion failed; this is a bug, not input."""
