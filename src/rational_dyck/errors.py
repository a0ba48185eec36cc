"""Exception hierarchy for the rational Dyck path toolkit.

Every domain-level failure raises a subclass of :class:`DyckError`, so callers
can distinguish bad input from genuine bugs (``InternalInvariantError``).
Zeta is a bijection, so an inverse that finds no preimage is a bug too.
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


class DimensionTooSmall(DyckError):
    """The operation needs both grid dimensions to be at least 2."""


class Level1NotVisited(DyckError):
    """The path does not pass through the lattice point of level 1."""


class NoEastInPrefix(DyckError):
    """The first delta steps contain no east step."""


class NotFussCase(DyckError):
    """The width is not congruent to 1 modulo the height."""


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
