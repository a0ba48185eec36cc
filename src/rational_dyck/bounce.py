"""Delta-driven predecessor chains, bounce paths, and chain-based inverses.

Walking the image path down its predecessor chain only needs the delta
statistic of each preimage.  An initial bounce path inside the image pins
delta exactly when b = a*k + 1 and brackets it in a window of width r
otherwise, which yields a direct inverse in the first case and a bounded
backtracking search in the second.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import (
    BelowDiagonal,
    DimensionTooSmall,
    InternalInvariantError,
    MalformedPath,
    NoBoxToAdd,
    NoEastInPrefix,
    NoNorthInPrefix,
    NoPreimage,
    NotADyckPath,
    NotFussCase,
    RoundTripFailure,
    WrongDescentCount,
)
from .paths import (
    DyckPath,
    EAST,
    NORTH,
    Permutation,
    conjugate,
    gamma,
    lowest_path,
    path_from_permutation,
    predecessor,
    rotation_cycle,
)
from .stats import area, delta
from .zeta import zeta

__all__ = [
    "BouncePath",
    "conj_predecessor",
    "zeta_predecessor",
    "initial_bounce",
    "zeta_inverse_fuss",
    "zeta_inverse_search",
    "fuss_delta_trace",
    "search_delta_traces",
]


def conj_predecessor(path: DyckPath) -> DyckPath:
    """Conjugate of the predecessor of the conjugate.

    Computed geometrically and, independently, by conjugating the path's
    cycle permutation with the rotation (1 .. delta); the two must agree.
    The chain bottoms out at the area-0 path, whose conjugate has no box
    left to remove.
    """
    if area(path) == 0:
        raise NoBoxToAdd(f"{path} is the bottom of the predecessor chain")
    geometric = conjugate(predecessor(conjugate(path)))

    rho = rotation_cycle(path.length, 1, delta(path))
    twisted = gamma(path).conjugated_by(rho.inverse())
    algebraic = path_from_permutation(
        Permutation(twisted.cycle_from(1)), path.a, path.b
    )
    if algebraic != geometric:
        raise InternalInvariantError(
            f"conj_predecessor mismatch for {path}: {geometric} vs {algebraic}"
        )
    return geometric


@lru_cache(maxsize=None)
def zeta_predecessor(path: DyckPath, delta_value: int) -> DyckPath:
    """Image-side predecessor step, driven entirely by delta.

    Steps beyond position delta are untouched; inside the prefix the first
    east step turns north, the first north step turns east, and the prefix
    is rotated left once.
    """
    n = path.length
    if not 1 <= delta_value <= n:
        raise ValueError(f"delta must be in 1..{n}, got {delta_value}")
    prefix = list(path.steps[:delta_value])
    try:
        first_east = prefix.index(EAST)
    except ValueError:
        raise NoEastInPrefix(f"no east step in the first {delta_value} of {path}")
    try:
        first_north = prefix.index(NORTH)
    except ValueError:
        raise NoNorthInPrefix(f"no north step in the first {delta_value} of {path}")
    prefix[first_east] = NORTH
    prefix[first_north] = EAST
    rotated = prefix[1:] + prefix[:1]
    return DyckPath(path.a, path.b, "".join(rotated) + path.steps[delta_value:])


@dataclass(frozen=True)
class BouncePath:
    """Staircase of k+1 vertical and k horizontal moves inside a path."""

    v: tuple[int, ...]
    h: tuple[int, ...]

    @property
    def v_total(self) -> int:
        return sum(self.v)

    @property
    def h_total(self) -> int:
        return sum(self.h)

    def vertices(self) -> tuple[tuple[int, int], ...]:
        """Turning points of the staircase, starting at the origin."""
        pts = [(0, 0)]
        x = y = 0
        for i, vi in enumerate(self.v):
            y += vi
            pts.append((x, y))
            if i < len(self.h):
                x += self.h[i]
                pts.append((x, y))
        return tuple(pts)


@lru_cache(maxsize=None)
def initial_bounce(path: DyckPath) -> BouncePath:
    """Bounce inside `path`: climb to an east step, run east, repeat.

    Writing b = a*k + r with 0 < r < a, the walk makes k+1 climbs; the
    i-th horizontal run has length v_1 + ... + v_i.
    """
    a, b = path.a, path.b
    if a < 2:
        raise DimensionTooSmall("bounce needs a >= 2 so that 0 < b mod a < a")
    k, r = divmod(b, a)
    if not 0 < r < a:
        raise InternalInvariantError(f"({a}, {b}) is not coprime")
    east_rows = path.east_rows()
    v: list[int] = []
    h: list[int] = []
    x = y = 0
    for i in range(k + 1):
        if not (0 <= x < b):
            raise MalformedPath(f"bounce left the grid at x={x} in {path}")
        climb = east_rows[x] - y
        if climb < 0 or y + climb > a:
            raise MalformedPath(f"bounce climb {climb} at ({x}, {y}) in {path}")
        v.append(climb)
        y += climb
        if i < k:
            run = sum(v)
            h.append(run)
            x += run
    return BouncePath(tuple(v), tuple(h))


@lru_cache(maxsize=None)
def _gamma_zero(a: int, b: int) -> Permutation:
    return gamma(lowest_path(a, b))


@lru_cache(maxsize=None)
def _head_rotation(n: int, d: int) -> tuple[int, ...]:
    return rotation_cycle(n, 1, d).one_line


def _decode_word(a: int, b: int, rho: tuple[int, ...]) -> str | None:
    """Step word of the path whose cycle is rho * gamma_0 * rho^{-1}.

    Works on raw one-line tuples; returns None when the decoded descent
    pattern is not a Dyck path.  Semantically identical to conjugating the
    bottom cycle and reading east steps off the cyclic descents.
    """
    n = a + b
    g0 = _gamma_zero(a, b).one_line
    inv = [0] * n
    for i, v in enumerate(rho):
        inv[v - 1] = i + 1
    g = [rho[g0[inv[x] - 1] - 1] for x in range(n)]
    cycle = [1]
    j = g[0]
    while j != 1 and len(cycle) < n:
        cycle.append(j)
        j = g[j - 1]
    if j != 1 or len(cycle) != n:
        return None
    word = []
    x = y = 0
    for i in range(n):
        if cycle[i] > cycle[(i + 1) % n]:
            x += 1
            if a * x > b * y:
                return None
            word.append(EAST)
        else:
            y += 1
            word.append(NORTH)
    if x != b:
        return None
    return "".join(word)


def _decode_from_deltas(a: int, b: int, deltas) -> DyckPath:
    """Rebuild the preimage from the delta trace of its predecessor chain."""
    rho = Permutation.identity(a + b)
    for d in deltas:
        rho = rho.compose(Permutation(_head_rotation(a + b, d)))
    g = _gamma_zero(a, b).conjugated_by(rho)
    try:
        return path_from_permutation(Permutation(g.cycle_from(1)), a, b)
    except (WrongDescentCount, BelowDiagonal) as exc:
        raise NotADyckPath(str(exc)) from exc


def fuss_delta_trace(path: DyckPath) -> tuple[int, ...]:
    """Delta trace of the predecessor chain when b = a*k + 1."""
    a, b = path.a, path.b
    if a > 1 and b % a != 1:
        raise NotFussCase(f"{b} is not 1 mod {a}")
    max_area = (a - 1) * (b - 1) // 2
    deltas: list[int] = []
    current = path
    while area(current) < max_area:
        if len(deltas) > max_area:
            raise RoundTripFailure(
                f"chain from {path} did not terminate", tuple(deltas)
            )
        bounce = initial_bounce(current)
        d = bounce.v_total + bounce.h_total + 1
        current = zeta_predecessor(current, d)
        deltas.append(d)
    return tuple(deltas)


def zeta_inverse_fuss(path: DyckPath) -> DyckPath:
    """Exact inverse of zeta when b = a*k + 1, via the bounce-pinned chain."""
    a, b = path.a, path.b
    if a == 1 or b == 1:
        return path  # single-path family, fixed by zeta
    deltas = fuss_delta_trace(path)
    try:
        preimage = _decode_from_deltas(a, b, deltas)
    except NotADyckPath as exc:
        raise RoundTripFailure(f"decode failed for {path}: {exc}", deltas) from exc
    if zeta(preimage) != path:
        raise RoundTripFailure(
            f"round trip failed for {path} via deltas {deltas}", deltas
        )
    return preimage


def search_delta_traces(path: DyckPath, *, find_all: bool = False):
    """Backtracking over the delta window; yields verified (preimage, trace).

    Each chain step tries every delta in the bounce window, descending
    depth-first; a completed trace is kept only if the decoded path maps
    back to `path` under zeta.  True chains strictly increase the area of
    the image, so non-increasing candidates are pruned.
    """
    a, b = path.a, path.b
    n = a + b
    max_area = (a - 1) * (b - 1) // 2
    r = b % a
    found: list[tuple[DyckPath, tuple[int, ...]]] = []
    attempts = 0

    def descend(current: DyckPath, deltas: list[int], rho: tuple[int, ...]) -> bool:
        nonlocal attempts
        if area(current) == max_area:
            attempts += 1
            word = _decode_word(a, b, rho)
            if word is None:
                return False
            candidate = DyckPath(a, b, word)
            if zeta(candidate) == path:
                found.append((candidate, tuple(deltas)))
                return not find_all
            return False
        try:
            bounce = initial_bounce(current)
        except MalformedPath:
            return False
        low = bounce.v_total + bounce.h_total + 1
        high = min(low + r - 1, n)
        for d in range(low, high + 1):
            try:
                nxt = zeta_predecessor(current, d)
            except (NoEastInPrefix, NoNorthInPrefix, BelowDiagonal):
                continue
            if area(nxt) <= area(current):
                continue
            rot = _head_rotation(n, d)
            deltas.append(d)
            if descend(nxt, deltas, tuple(rho[v - 1] for v in rot)):
                return True
            deltas.pop()
        return False

    descend(path, [], tuple(range(1, n + 1)))
    return found, attempts


def zeta_inverse_search(path: DyckPath) -> DyckPath:
    """Inverse of zeta by bounded delta search with a zeta round-trip check."""
    a, b = path.a, path.b
    if a == 1 or b == 1:
        return path
    found, attempts = search_delta_traces(path)
    if not found:
        raise NoPreimage(
            f"delta search exhausted for {path} after {attempts} complete traces"
        )
    return found[0][0]
