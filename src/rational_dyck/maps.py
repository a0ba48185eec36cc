"""The zeta and eta maps, by four independent constructions.

zeta sweeps a line of slope a/b across the path from the diagonal towards
the northwest; eta sweeps from the far corner back southeast.  The sweep,
which sorts the steps by level, is the canonical construction: it is
`zeta` and `eta` themselves, in O((a+b) log(a+b)).  Both read one sort,
the sweep (the path's points in rising order of level): zeta takes the
step that starts at each point, eta the step that ends there, reversed.
The module keeps the last sweep with its word, one entry replaced on a
miss, so `zeta(P)` then `eta(P)`, `iota`'s two round trips, and `chi`'s
round trip then eta each sort a word once, and no path holds a sweep.
Each call reads its letters through one `itemgetter` over the sweep,
built for that call, so no Python call runs per letter; the memo keeps
the sweep as a plain tuple and not the itemgetter.  The paper proves the
sweep equal to three others, computed from the core (boundary-box
counts), from a laser filling and from an interval-intersection grid.
Those are kept as genuinely separate code paths: `cross_check` builds
each once, reads it by rows for zeta and by columns for eta, and requires
all four to agree.  The core route visits no box: a core row with
first-column hook h has one hook below m per non-first-column-hook g in
[0, h) above h - m.  The laser and interval routes count on the sorted
north and east levels: a laser's crossings, and a row's or a column's
disjoint intervals, are bisections, so neither scans every level per box
nor builds the grid (`interval_grid` builds it for pictures only).  The
module is `rational_dyck.maps`, so that `rational_dyck.zeta` names the
function.  Each image is built by the validating DyckPath constructor,
from a swept word or a bounded partition; an image it rejects is a bug,
raised as InternalInvariantError.  A round trip compares the swept word
with the known image's steps, and builds the image only when they differ.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

from .cores import CorePartition, _filled, _hooks_below, a_rows, anderson
from .errors import DyckError, InternalInvariantError, MethodDisagreement
from .paths import DyckPath, Partition, _Value, box_value, path_from_bounded_partition

__all__ = [
    "LaserFilling",
    "IntervalGrid",
    "lambda_partition",
    "mu_partition",
    "zeta_via_cores",
    "eta_via_cores",
    "zeta_via_sweep",
    "eta_via_sweep",
    "laser_filling",
    "zeta_via_lasers",
    "eta_via_lasers",
    "interval_grid",
    "zeta_via_intervals",
    "eta_via_intervals",
    "zeta",
    "eta",
    "cross_check",
]


def _image(a: int, b: int, shape) -> DyckPath:
    """The (a,b)-path with the given step word or bounded partition."""
    try:
        if isinstance(shape, str):
            return DyckPath(a, b, shape)
        return path_from_bounded_partition(a, b, shape)
    except (DyckError, ValueError) as exc:  # a failure here is a bug, never bad input
        raise InternalInvariantError(f"image {shape} is not an ({a},{b})-Dyck path") from exc


# ---------------------------------------------------------------------------
# Via cores


def _boundary_partition(kappa: CorePartition, m: int, bound: int) -> Partition:
    """Per-row counts of hooks below `bound` in the core's m-rows, length m."""
    counts = _hooks_below(kappa, a_rows(kappa, m), bound)
    return Partition(sorted(counts, reverse=True)).padded(m)


def lambda_partition(path: DyckPath) -> Partition:
    """Per-row counts of b-boundary boxes in the a-rows of the core, length a."""
    return _boundary_partition(anderson(path), path.a, path.b)


def mu_partition(path: DyckPath) -> Partition:
    """Per-row counts of a-boundary boxes in the b-rows of the core, length b."""
    return _boundary_partition(anderson(path), path.b, path.a)


def _cores(path: DyckPath) -> tuple[DyckPath, DyckPath]:
    """zeta and eta from one core: lambda (a-rows, bound b) and mu (b-rows, bound a)."""
    kappa = anderson(path)
    lam = _boundary_partition(kappa, path.a, path.b)
    mu = _boundary_partition(kappa, path.b, path.a)
    return _image(path.a, path.b, lam), _image(path.a, path.b, mu.conjugate())


def zeta_via_cores(path: DyckPath) -> DyckPath:
    return _cores(path)[0]


def eta_via_cores(path: DyckPath) -> DyckPath:
    return _cores(path)[1]


# ---------------------------------------------------------------------------
# Via sweep, the canonical construction


def _sweep(path: DyckPath) -> tuple[int, ...]:
    """The points 0..a+b-1 in rising order of level, the order both sweep
    maps read the steps in."""
    return tuple(sorted(range(path.a + path.b), key=path._levels.__getitem__))


# The last word swept and its sweep.  A validated word fixes a and b, so
# the word alone is the key.  One tuple, replaced whole on a miss, so a
# thread reads a word with its own sweep.
_last_sweep: tuple[str, tuple[int, ...]] = ("", ())


def _swept_word(path: DyckPath, eta: bool = False) -> str:
    """zeta's word: the steps sorted by the level of their start point,
    rising.  eta's: sorted by the level of their end point, falling, which
    sorts the reverse reading word into a southwest path from (b, a), read
    back northeast.  Both read the sweep: step p starts at point p, and
    step p-1 ends there.  The sweep of the last word swept is kept, so
    the next map on the same word does not sort it again.

    One itemgetter over the sweep picks every letter in C.  It is built on
    each call and not kept: the sweep stays a plain tuple of ints, which
    the garbage collector stops tracking."""
    global _last_sweep
    steps = path.steps
    word, sweep = _last_sweep
    if word != steps:
        sweep = _sweep(path)
        _last_sweep = steps, sweep
    pick = itemgetter(*sweep)  # a+b >= 2 indices, so pick returns a tuple
    if not eta:
        return "".join(pick(steps))
    return "".join(pick(steps[-1] + steps[:-1]))[::-1]


def _sends(path: DyckPath, q: DyckPath, eta: bool = False) -> bool:
    """Whether zeta (eta when asked) sends the path to Q, by its swept word
    against Q's steps and dimensions.  A word that differs is still built,
    so one that is not a Dyck path raises InternalInvariantError."""
    word = _swept_word(path, eta)
    if word == q.steps and (path.a, path.b) == (q.a, q.b):
        return True
    _image(path.a, path.b, word)
    return False


def zeta_via_sweep(path: DyckPath) -> DyckPath:
    """The steps sorted by the level of their start point, rising."""
    return _image(path.a, path.b, _swept_word(path))


def eta_via_sweep(path: DyckPath) -> DyckPath:
    """The steps sorted by the level of their end point, falling."""
    return _image(path.a, path.b, _swept_word(path, eta=True))


zeta, eta = zeta_via_sweep, eta_via_sweep


# ---------------------------------------------------------------------------
# Via lasers


class LaserFilling:
    """Wall-crossing counts of slope-a/b lasers through box corners.

    Each box below the path and above the diagonal fires a bi-directional
    laser of slope a/b from its southeast corner; its value is the number
    of vertical walls of the path the laser crosses.  The total equals the
    skew length.

    A box's corner has level v, and the laser crosses the north step from
    level n when n < v < n + b, the east step from level e when
    v < e < v + a; both counts are bisections of the sorted levels, and
    they must agree.  Box values fall by a per column, so a row ends at
    its first non-positive box; the row and column sums fill in the same
    pass.
    """

    def __init__(self, path: DyckPath):
        self.path = path
        a, b = path.a, path.b
        norths = path.north_levels()[::-1]
        easts = path.east_levels()[::-1]
        values: dict[tuple[int, int], int] = {}
        row_sums = [0] * a
        column_sums = [0] * b
        for row, col0 in enumerate(path.north_columns()):
            for col, v in enumerate(range(box_value(a, b, col0, row), 0, -a), col0):
                vertical = bisect_left(norths, v) - bisect_right(norths, v - b)
                horizontal = bisect_left(easts, v + a) - bisect_right(easts, v)
                if vertical != horizontal:
                    raise InternalInvariantError(
                        f"laser at box ({col}, {row}) crosses {vertical} vertical "
                        f"but {horizontal} horizontal walls"
                    )
                values[(col, row)] = vertical
                row_sums[row] += vertical
                column_sums[col] += vertical
        self._values = values
        self._row_sums = tuple(row_sums)
        self._column_sums = tuple(column_sums)

    def value(self, col: int, row: int) -> int:
        return _filled(self._values, col, row)

    def boxes(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._values))

    def total(self) -> int:
        return sum(self._row_sums)

    def row_sums(self) -> tuple[int, ...]:
        return self._row_sums

    def column_sums(self) -> tuple[int, ...]:
        return self._column_sums


def laser_filling(path: DyckPath) -> LaserFilling:
    return LaserFilling(path)


def _lasers(path: DyckPath) -> tuple[DyckPath, DyckPath]:
    """zeta and eta from one filling: its row sums and its column sums."""
    filling = laser_filling(path)
    rows = sorted(filling.row_sums(), reverse=True)
    cols = sorted(filling.column_sums(), reverse=True)
    return _image(path.a, path.b, rows), _image(path.a, path.b, Partition(cols).conjugate())


def zeta_via_lasers(path: DyckPath) -> DyckPath:
    return _lasers(path)[0]


def eta_via_lasers(path: DyckPath) -> DyckPath:
    return _lasers(path)[1]


# ---------------------------------------------------------------------------
# Via interval intersections


class IntervalGrid(_Value):
    """Disjointness grid of the north intervals against the east intervals,
    for pictures; the interval routes count without it.

    Row r (bottom to top) carries the r-th smallest north interval
    [n, n+b]; column c carries the c-th smallest east interval [e-a, e].
    A cell is shaded when the two intervals do not intersect, which happens
    northwest of the diagonal when e < n and southeast when n + b < e - a.
    """

    __match_args__ = ("north_intervals", "east_intervals", "shaded")

    def __init__(
        self,
        north_intervals: tuple[tuple[int, int], ...],
        east_intervals: tuple[tuple[int, int], ...],
        shaded: tuple[tuple[bool, ...], ...],  # [row][col], row 0 at the bottom
    ):
        self.__dict__.update(
            north_intervals=north_intervals, east_intervals=east_intervals, shaded=shaded
        )

    @property
    def a(self) -> int:
        return len(self.north_intervals)

    @property
    def b(self) -> int:
        return len(self.east_intervals)

    def northwest_shaded(self) -> tuple[tuple[bool, ...], ...]:
        """Cells shaded because the east interval sits below the north one."""
        return tuple(
            tuple(e_hi < n_lo for (e_lo, e_hi) in self.east_intervals)
            for (n_lo, n_hi) in self.north_intervals
        )

    def southeast_shaded(self) -> tuple[tuple[bool, ...], ...]:
        """Cells shaded because the east interval sits above the north one."""
        return tuple(
            tuple(n_hi < e_lo for (e_lo, e_hi) in self.east_intervals)
            for (n_lo, n_hi) in self.north_intervals
        )


def interval_grid(path: DyckPath) -> IntervalGrid:
    norths = path.north_levels()[::-1]
    easts = path.east_levels()[::-1]
    n_ints = tuple((n, n + path.b) for n in norths)
    e_ints = tuple((e - path.a, e) for e in easts)
    shaded = tuple(
        tuple(max(nl, el) > min(nh, eh) for (el, eh) in e_ints) for (nl, nh) in n_ints
    )
    return IntervalGrid(n_ints, e_ints, shaded)


def zeta_via_intervals(path: DyckPath) -> DyckPath:
    """Row r counts the east intervals wholly below its north interval."""
    easts = path.east_levels()[::-1]
    counts = tuple(bisect_left(easts, n) for n in path.north_levels())
    return _image(path.a, path.b, counts)


def eta_via_intervals(path: DyckPath) -> DyckPath:
    """Column c counts the north intervals wholly below its east interval."""
    norths = path.north_levels()[::-1]
    top = path.a + path.b
    counts = tuple(bisect_left(norths, e - top) for e in path.east_levels())
    return _image(path.a, path.b, Partition(counts).conjugate())


# ---------------------------------------------------------------------------
# The cross-check

_CONSTRUCTIONS = {  # method -> (zeta image, eta image), from one build
    "cores": _cores,
    "sweep": lambda path: (zeta_via_sweep(path), eta_via_sweep(path)),
    "laser": _lasers,
    "intervals": lambda path: (zeta_via_intervals(path), eta_via_intervals(path)),
}


def cross_check(path: DyckPath) -> tuple[DyckPath, DyckPath]:
    """(zeta(P), eta(P)) by the sweep, once the four constructions, each built
    once, agree on both; the first map they disagree on raises MethodDisagreement."""
    pairs = {method: build(path) for method, build in _CONSTRUCTIONS.items()}
    for i, name in enumerate(("zeta", "eta")):
        images = {method: pair[i] for method, pair in pairs.items()}
        if len(set(images.values())) != 1:
            raise MethodDisagreement(f"{name}({path})", {m: str(q) for m, q in images.items()})
    return pairs["sweep"]
