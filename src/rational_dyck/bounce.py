"""Delta-driven predecessor chains, bounce paths, and chain-based inverses.

Walking the image path down its predecessor chain only needs the delta
statistic of each preimage: a path starts with a north step, so the
chain step moves the first east step of the first delta steps to the end
of that prefix.  An initial bounce path inside the image pins delta
exactly when b = a*k + 1 and brackets it in a window of width r
otherwise.  The first case yields a direct inverse.  In the second, the
image of each predecessor is itself an image to invert, so the inverse is
a recursion over the images of the chain, verified at every step; zeta is
a bijection, so the first d of a window that verifies is the answer.  Its
only memo, of the images solved, lasts one call; no chain step is cached.
Both inverses end by decoding a one-line tuple with the cycle decoder of
iota, whose DyckPath check rejects a candidate that is not a path.  A
chain inverse that finds no preimage is therefore a bug:
InternalInvariantError, exit 3 at the command line.
Neither is a hot path: ``zeta_inverse`` runs the value iteration of
``inverse``, which ends by proof and calls nothing here.
``search_delta_traces``, which also reports the delta trace it decoded,
and ``zeta_inverse_fuss`` are cross-checks that the tests call directly.
"""

from __future__ import annotations

from .errors import (
    BelowDiagonal,
    DimensionTooSmall,
    InternalInvariantError,
    NoEastInPrefix,
    NotFussCase,
    WrongStepCounts,
)
from .maps import _sends
from .paths import (
    DyckPath,
    EAST,
    _Value,
    _check_int,
    _gamma_one_line,
    _path_from_cycle,
    conjugate,
    lowest_path,
    predecessor,
)
from .stats import area, delta

__all__ = [
    "BouncePath",
    "conj_predecessor",
    "zeta_predecessor",
    "initial_bounce",
    "zeta_inverse_fuss",
    "fuss_delta_trace",
    "search_delta_traces",
]


def conj_predecessor(path: DyckPath) -> DyckPath:
    """Conjugate of the predecessor of the conjugate.

    Computed geometrically and, independently, by conjugating the path's
    cycle permutation with the rotation (1 .. delta); the two must agree.
    The chain bottoms out at the area-0 path, its own conjugate, which has
    no box left to remove: AreaZero, from ``predecessor``.
    """
    geometric = conjugate(predecessor(conjugate(path)))

    twisted = _conjugate_by_head_inverse(_gamma_one_line(path), delta(path))
    try:
        algebraic = _path_from_cycle(path.a, path.b, twisted)
    except (WrongStepCounts, BelowDiagonal) as exc:  # the decode is internal: a bug
        raise InternalInvariantError(f"conj_predecessor of {path} decodes no path") from exc
    if algebraic != geometric:
        raise InternalInvariantError(
            f"conj_predecessor mismatch for {path}: {geometric} vs {algebraic}"
        )
    return geometric


def zeta_predecessor(path: DyckPath, delta_value: int) -> DyckPath:
    """Image-side predecessor step, driven entirely by delta.

    Steps beyond position delta are untouched.  The paper turns the first
    east step of the prefix north, its first north step east, and rotates
    the prefix left once; a path starts with a north step, so this moves
    the first east step of the prefix to the end of the prefix.
    """
    _check_int("delta_value", delta_value, 1, path.length)
    prefix = path.steps[:delta_value]
    first_east = prefix.find(EAST)
    if first_east < 0:
        raise NoEastInPrefix(f"no east step in the first {delta_value} of {path}")
    moved = prefix[:first_east] + prefix[first_east + 1 :] + EAST
    return DyckPath(path.a, path.b, moved + path.steps[delta_value:])


class BouncePath(_Value):
    """Staircase of k+1 vertical and k horizontal moves inside a path."""

    __match_args__ = ("v", "h")

    def __init__(self, v: tuple[int, ...], h: tuple[int, ...]):
        self.__dict__.update(v=v, h=h)

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


def initial_bounce(path: DyckPath) -> BouncePath:
    """Bounce inside `path`: climb to an east step, run east, repeat.

    Writing b = a*k + r with 0 < r < a, the walk makes k+1 climbs; the
    i-th horizontal run has length v_1 + ... + v_i.  On a valid path x
    stays at most k*a < b, each climb is non-negative and the height at
    most a, so a walk that leaves the grid is a bug.
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
            raise InternalInvariantError(f"bounce left the grid at x={x} in {path}")
        climb = east_rows[x] - y
        if climb < 0 or y + climb > a:
            raise InternalInvariantError(f"bounce climb {climb} at ({x}, {y}) in {path}")
        v.append(climb)
        y += climb
        if i < k:
            run = sum(v)
            h.append(run)
            x += run
    return BouncePath(tuple(v), tuple(h))


def _conjugate_by_head(g: tuple[int, ...], d: int) -> tuple[int, ...]:
    """r_d * g * r_d^{-1} on one-line tuples, for the rotation r_d = (1 .. d)."""
    return tuple(v % d + 1 if v <= d else v for v in (g[d - 1],) + g[: d - 1] + g[d:])


def _conjugate_by_head_inverse(g: tuple[int, ...], d: int) -> tuple[int, ...]:
    """r_d^{-1} * g * r_d on one-line tuples, undoing _conjugate_by_head."""
    return tuple((v - 2) % d + 1 if v <= d else v for v in g[1:d] + g[:1] + g[d:])


def fuss_delta_trace(path: DyckPath) -> tuple[int, ...]:
    """Delta trace of the predecessor chain when b = a*k + 1.  Each step
    raises the area, so a chain longer than the maximal area is a bug."""
    a, b = path.a, path.b
    if a > 1 and b % a != 1:
        raise NotFussCase(f"{b} is not 1 mod {a}")
    max_area = (a - 1) * (b - 1) // 2
    deltas: list[int] = []
    current = path
    while area(current) < max_area:
        if len(deltas) > max_area:
            raise InternalInvariantError(f"chain from {path} did not end: deltas {deltas}")
        bounce = initial_bounce(current)
        d = bounce.v_total + bounce.h_total + 1
        current = zeta_predecessor(current, d)
        deltas.append(d)
    return tuple(deltas)


def zeta_inverse_fuss(path: DyckPath) -> DyckPath:
    """Exact inverse of zeta when b = a*k + 1, via the bounce-pinned chain.
    The bounce pins every delta, so a decode that fails or a preimage that
    zeta does not send to the image is a bug: InternalInvariantError."""
    a, b = path.a, path.b
    deltas = fuss_delta_trace(path)
    g = _gamma_one_line(lowest_path(a, b))
    for d in reversed(deltas):
        g = _conjugate_by_head(g, d)
    try:
        preimage = _path_from_cycle(a, b, g)
    except (WrongStepCounts, BelowDiagonal) as exc:
        raise InternalInvariantError(f"deltas {deltas} of {path} decode no path") from exc
    if preimage is None or not _sends(preimage, path):
        raise InternalInvariantError(f"round trip failed for {path} via deltas {deltas}")
    return preimage


def search_delta_traces(path: DyckPath):
    """Invert zeta by a memoized recursion over the predecessor images.

    Returns ``(found, attempts)``: ``found`` lists the verified
    ``(preimage, delta trace)`` pair, and ``attempts`` counts the
    candidate decodes done.  The preimage of an image Q is the lowest
    path when Q has the maximal area.  Otherwise, for each d in the bounce
    window, Q' = zeta_predecessor(Q, d) must have a larger area; its
    preimage P' is found the same way, and the candidate P decoded from
    r_d * gamma(P') * r_d^{-1} is kept only if delta(P) = d and
    zeta(P) = Q.  Zeta is a bijection, so the first d so verified is the
    answer and the scan of the window stops there; a maximal-area image
    the lowest path does not reach, or a window in which no d verifies,
    is a bug: InternalInvariantError.  Every image is inverted once per
    call, through a memo keyed by image, and the chain is walked with an
    explicit stack, so depth is bounded by the area and not by the
    interpreter.
    """
    a, b = path.a, path.b
    n = a + b
    max_area = (a - 1) * (b - 1) // 2
    r = b % a
    # image -> (gamma of its preimage, preimage, d, predecessor image);
    # d is None at the lowest path
    memo: dict[DyckPath, tuple] = {}
    attempts = 0

    def invert(q: DyckPath, q_area: int):
        """Entry of q; yields each predecessor image not yet in the memo
        and is sent that image's entry."""
        nonlocal attempts
        if q_area == max_area:
            bottom = lowest_path(a, b)
            if not _sends(bottom, q):
                raise InternalInvariantError(f"the lowest path does not reach {q}")
            return _gamma_one_line(bottom), bottom, None, None
        bounce = initial_bounce(q)
        low = bounce.v_total + bounce.h_total + 1
        for d in range(low, min(low + r - 1, n) + 1):
            # d > v_1, so the prefix holds a north and an east; the step
            # moves the first east later, which only raises levels
            nxt = zeta_predecessor(q, d)
            nxt_area = area(nxt)
            if nxt_area <= q_area:
                continue
            below = memo[nxt] if nxt in memo else (yield nxt, nxt_area)
            attempts += 1
            g = _conjugate_by_head(below[0], d)
            try:
                candidate = _path_from_cycle(a, b, g)
            except (WrongStepCounts, BelowDiagonal):
                continue
            # a candidate must round-trip to Q and carry the delta d
            if candidate is not None and _sends(candidate, q) and delta(candidate) == d:
                return g, candidate, d, nxt
        raise InternalInvariantError(f"no d in the bounce window from {low} inverts {q}")

    stack = [(path, invert(path, area(path)))]
    sent = None
    while stack:
        q, node = stack[-1]
        try:
            nxt, nxt_area = node.send(sent)
        except StopIteration as done:
            memo[q] = sent = done.value
            stack.pop()
            continue
        stack.append((nxt, invert(nxt, nxt_area)))
        sent = None

    entry = memo[path]
    preimage, deltas = entry[1], []
    while entry[2] is not None:
        deltas.append(entry[2])
        entry = memo[entry[3]]
    return [(preimage, tuple(deltas))], attempts
