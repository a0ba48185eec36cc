"""Inverting zeta: the pair map iota, the conjugate-area involution chi,
and closed-form inverses for special path families.

Knowing both images (Q, R) = (zeta(P), eta(P)) recovers P: pair the steps
of Q with the steps of R rotated half a turn, read the resulting cycle as
one-line notation, and place east steps at its cyclic descents.  The
pairing is a raw tuple, and the decode is the one the delta recursion and
the Fuss inverse end with, and DyckPath's own check rejects a descent
word that is not a path.  iota always round-trips its result through
zeta and eta, and zeta_inverse its answer through zeta; each round trip
compares the swept word with the known image's steps and builds the
image only when they differ.

Knowing Q alone, zeta_inverse finds P by value iteration on P's sorted
levels and labels the answer ``levels``; Q is its own preimage when a = 1
or b = 1 (``table``).  Settled levels spell P by residue: each step adds
b mod a+b to its level, so the step l above the lowest level is
l * b^-1 mod a+b steps into P, and no walk along the cycle is needed; a
wrong spelling still fails DyckPath's check or the round trip.  Plain
rounds that have not settled within (a+b)^2 give way to a monotone climb
on the same levels, which is proven to end at the preimage; zeta is a
bijection, so a climb that passes a*b instead is a bug.
The iteration works on levels as the Thomas-Williams inverse of sweep
maps does; whether it is that inverse is not worked out.  The paper's
closed forms and its delta recursion stay callable as cross-checks that
the tests hold against zeta_inverse: the square case is iota(Q,
reverse(Q)), the level-1 star recursion is zeta_inverse_level1, and the
delta recursion and the Fuss chain are search_delta_traces and
zeta_inverse_fuss in ``bounce``.  The justified and valley families close
the module.  Each closed form builds its shape as one count per row or
column, read off a path's north columns or the level points, and never a
set of boxes.
"""

from __future__ import annotations

from itertools import accumulate, count
from operator import add

from .errors import (
    BelowDiagonal,
    DimensionTooSmall,
    InconsistentPair,
    InternalInvariantError,
    InvalidValleyIndex,
    Level1NotVisited,
    NotACycle,
    NotADyckPath,
    NotSquareCase,
    TooManyBoxes,
    WrongStepCounts,
)
from .maps import _sends, eta
from .paths import (
    DyckPath,
    EAST,
    NORTH,
    Partition,
    Permutation,
    _Value,
    _check_coprime,
    _check_int,
    _path_from_cycle,
    full_path,
    path_from_bounded_partition,
    path_from_hooks,
    star_product,
)

__all__ = [
    "InversionResult",
    "pair_gamma",
    "iota",
    "exceedances_check",
    "zeta_inverse",
    "zeta_inverse_detailed",
    "chi",
    "square_gamma_shaded",
    "split_dims",
    "zeta_inverse_level1",
    "chi_level1",
    "level_point",
    "kth_valley_path",
    "chi_kth_valley",
    "justified",
]

# ---------------------------------------------------------------------------
# The pair inverse


def _step_positions(word: str) -> tuple[list[int], list[int]]:
    """Labels (1-based step numbers) of the east steps, column by column,
    and of the north steps, row by row."""
    east = [label for label, s in enumerate(word, start=1) if s == EAST]
    north = [label for label, s in enumerate(word, start=1) if s == NORTH]
    return east, north


def _pairing(q: DyckPath, r: DyckPath) -> list[int]:
    """One-line images of the pairing of Q with rotated R (see pair_gamma)."""
    if (q.a, q.b) != (r.a, r.b):
        raise ValueError(f"dimension mismatch: ({q.a},{q.b}) vs ({r.a},{r.b})")
    q_east, q_north = _step_positions(q.steps)
    r_east, r_north = _step_positions(r.steps[::-1])
    images = [0] * q.length
    for label, image in zip(q_east + q_north, r_east + r_north):
        images[label - 1] = image
    return images


def pair_gamma(q: DyckPath, r: DyckPath) -> Permutation:
    """Pair each step of Q with the step of rotated R in its row or column.

    R is rotated half a turn to sit below the diagonal; both paths are then
    labelled 1..a+b from the bottom-left corner.  A horizontal label of Q
    maps to the horizontal label of rotated R in the same column, a
    vertical label to the vertical label in the same row.
    """
    return Permutation(tuple(_pairing(q, r)))


def iota(q: DyckPath, r: DyckPath) -> DyckPath:
    """Recover P from the pair (zeta(P), eta(P)).

    A pairing of more than one cycle raises NotACycle, and a descent word
    that is not a Dyck path raises NotADyckPath.  The result is
    round-tripped through both maps; a pair that decodes cleanly but fails
    the round trip raises InconsistentPair.
    """
    try:
        path = _path_from_cycle(q.a, q.b, _pairing(q, r))
    except (WrongStepCounts, BelowDiagonal) as exc:
        raise NotADyckPath(str(exc)) from exc
    if path is None:
        raise NotACycle(f"the pairing of {q} and {r} has more than one cycle")
    if not (_sends(path, q) and _sends(path, r, eta=True)):
        raise InconsistentPair(f"iota({q}, {r}) decoded {path} but images differ")
    return path


def exceedances_check(q: DyckPath, r: DyckPath) -> bool:
    """Exceedance positions of the pairing give the north steps of Q and its
    exceedance values the north steps of rotated R."""
    g = pair_gamma(q, r)
    q_norths = {i + 1 for i, s in enumerate(q.steps) if s == NORTH}
    rot_norths = {i + 1 for i, s in enumerate(r.steps[::-1]) if s == NORTH}
    return (
        set(g.exceedance_positions()) == q_norths
        and set(g.exceedance_values()) == rot_norths
    )


# ---------------------------------------------------------------------------
# The zeta inverse


class InversionResult(_Value):
    __match_args__ = ("path", "strategy")

    def __init__(self, path: DyckPath, strategy: str):
        self.__dict__.update(path=path, strategy=strategy)


def _plain_rounds(n: int) -> int:
    """Rounds of plain iteration before the climb starts."""
    return n * n


def _preimage_by_iteration(q: DyckPath) -> DyckPath:
    """The zeta preimage of Q by value iteration.

    Position i of Q is the step of P with the i-th lowest start level, and
    the end levels of P's steps are its start levels again.  So P's sorted
    levels are a fixed point of the update T that moves each level up b
    where Q has a north step and down a where it has an east step, then
    sorts.  The update starts from 0..a+b-1.  Both moves add b mod a+b, and
    they sum to a*b - b*a = 0, so the levels stay a complete residue system
    with a fixed sum and never need a shift back to 0.  A fixed point is
    carried onto itself, and its cycles are closed walks of k norths and m
    easts with k*b = m*a, so by coprimality there is one (a+b)-cycle, whose
    levels are then a complete residue system too.  Read from its lowest
    level it spells a path whose steps sorted by start level are Q's, and
    as every step adds b mod a+b, the step whose level is l above the
    lowest is l * b^-1 mod a+b steps into that path: Q's letters go
    straight to their places, with no walk along the cycle.  A wrong
    spelling is still caught, by DyckPath as a non-path or by
    zeta_inverse_detailed's round trip as a non-preimage.

    The plain rounds x <- T(x) are not known to settle, so after (a+b)^2 of
    them the loop climbs instead, x <- max(x, T(x)) entry by entry, and it
    ends by this argument:
    1. T is monotone entry by entry, because order statistics are monotone,
       and it keeps the sum, because the moves sum to 0.
    2. If P is a preimage, its sorted start levels L* are a fixed point,
       and as distinct non-negative integers L* >= (0, ..., a+b-1).  So
       every plain iterate is <= T^k(L*) = L*.
    3. The climb never decreases, and x <= L* gives max(x, T(x)) <=
       max(L*, T(L*)) = L*.  If it stops moving, T(x) <= x with equal
       sums, so T(x) = x: a fixed point, which spells a preimage as above.
       Otherwise each round raises the sum by at least 1.
    4. Every start level of an (a,b)-path is at most a*b, and zeta is a
       bijection (Thomas and Williams invert every sweep map), so Q has a
       preimage and by 3 the climb's top level stays at most a*b.  The sum
       then rises at most (a+b)*a*b times: the loop ends within
       (a+b)^2 + (a+b)*a*b rounds.  A top level above a*b breaks this
       bound, which only a bug can do: InternalInvariantError.
    """
    a, b = q.a, q.b
    n = a + b
    rise = list(map({NORTH: b, EAST: -a}.__getitem__, q.steps))
    levels = list(range(n))
    plain, top = _plain_rounds(n), a * b
    for done in count():
        moved = sorted(map(add, levels, rise))
        if moved == levels:
            lowest, inverse_b, spelled = levels[0], pow(b, -1, n), [""] * n
            for level, letter in zip(levels, q.steps):
                spelled[(level - lowest) * inverse_b % n] = letter
            return DyckPath(a, b, "".join(spelled))
        if done >= plain:
            moved = list(map(max, levels, moved))
            if moved[-1] > top:
                raise InternalInvariantError(f"the climb for {q} passed a*b = {top}")
        levels = moved


def zeta_inverse_detailed(q: DyckPath) -> InversionResult:
    """Find P with zeta(P) = Q, and the label of the route taken.

    When a = 1 or b = 1, Q is its own preimage and the label is ``table``.
    Otherwise value iteration runs, its answer is round-tripped through
    zeta, and the label is ``levels``.  A settled iteration fixes P's
    levels in Q's order, so an answer that is not a path, or not a
    preimage, is its own fault: InternalInvariantError, as is a climb
    that passes a*b.
    """
    if q.a == 1 or q.b == 1:
        return InversionResult(q, "table")
    try:
        path = _preimage_by_iteration(q)
    except (BelowDiagonal, WrongStepCounts) as exc:
        raise InternalInvariantError(f"value iteration spelled a non-path for {q}: {exc}") from exc
    if not _sends(path, q):
        raise InternalInvariantError(f"value iteration produced a non-preimage for {q}")
    return InversionResult(path, "levels")


def zeta_inverse(q: DyckPath) -> DyckPath:
    return zeta_inverse_detailed(q).path


def chi(q: DyckPath) -> DyckPath:
    """Conjugate-area involution: eta of the zeta preimage."""
    return eta(zeta_inverse(q))


# ---------------------------------------------------------------------------
# Square case


def square_gamma_shaded(q: DyckPath) -> Permutation:
    """Pairing cycle of (Q, reverse(Q)) read off the diagonal-shaded boxes.

    Vertical step: run east to the first shaded box in its row, then up to
    the path's horizontal step in that column; the image is that label
    plus one.  Horizontal step: run down to the lowest shaded box in its
    column, then left to the path's vertical step in that row; the image
    is that label plus one.  The first horizontal step maps to 1.

    The shaded boxes are those the diagonal crosses: row r's first is in
    column r(n+1)//n, which the path never passes, and column c's lowest
    is in row nc//(n+1).
    """
    n, width = q.a, q.b
    if width != n + 1:
        raise NotSquareCase(f"({n}, {width}) is not (n, n+1)")
    east_label, north_label = _step_positions(q.steps)
    images = [0] * q.length
    for row, label in enumerate(north_label):
        images[label - 1] = east_label[row * width // n] + 1
    for col, label in enumerate(east_label):
        images[label - 1] = north_label[n * col // width] + 1 if col else 1
    return Permutation(tuple(images))


# ---------------------------------------------------------------------------
# Level-1 decomposition


def split_dims(a: int, b: int) -> tuple[int, int, int, int]:
    """The unique (a', b', a'', b'') with a'b - b'a = 1 and b''a - a''b = 1,
    splitting (a, b) as (a'+a'', b'+b'')."""
    _check_coprime(a, b)
    if a < 2 or b < 2:
        raise DimensionTooSmall(f"({a}, {b}) does not split")
    a1 = pow(b, -1, a)
    b1 = (a1 * b - 1) // a
    a2, b2 = a - a1, b - b1
    ok = a1 * b - b1 * a == 1 and b2 * a - a2 * b == 1 and 0 < a1 < a and 0 < b1 < b
    if not ok:
        raise InternalInvariantError(f"bad split ({a1}, {b1}, {a2}, {b2}) of ({a}, {b})")
    return a1, b1, a2, b2


def level_point(a: int, b: int, level: int) -> tuple[int, int]:
    """The unique grid lattice point with y*b - x*a equal to the level."""
    _check_coprime(a, b)
    _check_int("level", level)
    for y in range(a + 1):
        num = y * b - level
        if num >= 0 and num % a == 0 and num // a <= b:
            return (num // a, y)
    raise ValueError(f"no lattice point of level {level} in the {a}x{b} grid")


def _split_at_level1(q: DyckPath) -> tuple[DyckPath, DyckPath]:
    a1, b1, a2, b2 = split_dims(q.a, q.b)
    if not q.visits(b1, a1):
        raise Level1NotVisited(f"{q} misses the level-1 point ({b1}, {a1})")
    cut = a1 + b1
    return DyckPath(a1, b1, q.steps[:cut]), DyckPath(a2, b2, q.steps[cut:])


def zeta_inverse_level1(q: DyckPath) -> DyckPath:
    """Star-product recursion for paths through the level-1 point."""
    if q.a == 1 or q.b == 1:
        return q
    left, right = _split_at_level1(q)
    return star_product(zeta_inverse(left), zeta_inverse(right))


def _chi_parts(q: DyckPath) -> list[int]:
    """The bounded partition of chi(q), top row first, length a.

    Turned half a turn, the boxes above chi(q) form a region below q, flush
    right, and part i is the width of its row i from the bottom.  For a
    path through its level-1 point (b', a'), the region holds the two
    sub-paths' regions in the bottom-left and top-right rectangles, and the
    southeast block of the bottom a' rows less its crossed corner box
    (b', a' - 1), which would split row a' - 1 unless the left region
    leaves that row empty.  Raises Level1NotVisited if q misses its
    level-1 point.
    """
    if q.a == 1 or q.b == 1:
        return [0] * q.a
    left, right = _split_at_level1(q)
    parts = _sub_chi_parts(left)
    if parts[-1]:
        raise InternalInvariantError(f"the corner box splits row {left.a - 1} of chi({q})")
    parts = [p + q.b - left.b for p in parts]
    parts[-1] -= 1
    return parts + _sub_chi_parts(right)


def _sub_chi_parts(q: DyckPath) -> list[int]:
    """_chi_parts of a sub-path, which falls back to the general
    conjugate-area map when it misses its own level-1 point."""
    try:
        return _chi_parts(q)
    except Level1NotVisited:
        return list(chi(q).north_columns()[::-1])


def chi_level1(q: DyckPath) -> DyckPath:
    """Conjugate-area image of a level-1 path, without inverting zeta,
    built row by row from the star-product split."""
    return path_from_bounded_partition(q.a, q.b, _chi_parts(q))


# ---------------------------------------------------------------------------
# kth-valley paths


def _valley_points(a: int, b: int, k: int) -> list[tuple[int, int]]:
    _check_coprime(a, b)
    _check_int("k", k, 0, min(a, b) - 1, InvalidValleyIndex)
    return [level_point(a, b, level) for level in range(1, k + 1)]


def kth_valley_path(a: int, b: int, k: int) -> DyckPath:
    """The path whose cyclic valleys sit at levels 0, 1, ..., k, for
    k < min(a, b).

    It bounds the union of the northwest rectangles of the level points
    (x, y) of levels 1..k, so row r takes the largest x with y <= r.
    """
    points = _valley_points(a, b, k)
    rows = [max((x for x, y in points if y <= r), default=0) for r in range(a)]
    return path_from_bounded_partition(a, b, rows[::-1])


def chi_kth_valley(a: int, b: int, k: int) -> DyckPath:
    """Conjugate-area image of the kth-valley path, for k < min(a, b).

    The southeast hat of the level point (x, y) is the block right of x
    and below y less its corner box (x, y - 1); turned half a turn, it
    fills rows r >= a - y to width b - x, but row a - y to b - x - 1.
    Each row takes the widest of the hats of levels 1..k.
    """
    points = _valley_points(a, b, k)
    rows = [
        max((b - x - (r == a - y) for x, y in points if a - y <= r), default=0)
        for r in range(a)
    ]
    return path_from_bounded_partition(a, b, rows[::-1])


# ---------------------------------------------------------------------------
# Justified partitions


def _fill(caps: list[int], n: int) -> Partition:
    """n boxes taken greedily in order from parts of the given caps."""
    used = accumulate(caps, initial=0)
    return Partition(tuple(max(0, min(cap, n - u)) for cap, u in zip(caps, used)))


def justified(a: int, b: int, n: int) -> tuple[Partition, Partition, DyckPath]:
    """Left-justified and up-justified n-box partitions, and the path P^n
    carrying the n smallest positive hooks; chi maps the first path family
    to the second, and zeta sends P^n to the left-justified path."""
    _check_coprime(a, b)
    limit = (a - 1) * (b - 1) // 2
    _check_int("n", n, 0, limit, TooManyBoxes)

    # column c holds a - ceil((c+1)a/b) boxes above the diagonal, at its
    # top, and row y holds (yb - 1)//a, at its left
    cols = [a + (-(c + 1) * a // b) for c in range(b)]
    lam = _fill(cols, n).conjugate()
    nu = _fill([(y * b - 1) // a for y in range(a - 1, 0, -1)], n).trimmed()
    p_n = path_from_hooks(a, b, full_path(a, b).positive_hooks()[limit - n :])
    return lam, nu, p_n
