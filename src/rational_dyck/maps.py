"""The zeta and eta maps, by four independent constructions.

zeta sweeps a line of slope a/b across the path from the diagonal towards
the northwest; eta sweeps from the far corner back southeast.  The sweep,
which sorts the steps by level, is the canonical construction: `zeta` and
`eta` call it alone, in O((a+b) log(a+b)).  The paper proves it equal to
three others, computed from the core (boundary-box counts), from a laser
filling and from an interval-intersection grid.  Those are kept as
genuinely separate code paths, so that `check=True` can cross-check all
four.  The core route visits no box: a core row with first-column hook h
has one hook below m per non-first-column-hook g in [0, h) above h - m.
The module is `rational_dyck.maps`, so that `rational_dyck.zeta` names the
function.  Each image is built by the validating DyckPath constructor; an
image it rejects is a bug, raised as InternalInvariantError.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cores import _hooks_below, a_rows, anderson
from .errors import DyckError, InternalInvariantError, MethodDisagreement
from .paths import (
    DyckPath,
    EAST,
    NORTH,
    Partition,
    box_value,
    path_from_bounded_partition,
)

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
]


def _bound(a: int, b: int, parts) -> DyckPath:
    try:
        return path_from_bounded_partition(a, b, parts)
    except Exception as exc:  # a failure here is a bug, never bad input
        raise InternalInvariantError(f"image partition {parts} is not bounded") from exc


def _swept(a: int, b: int, steps: str) -> DyckPath:
    try:
        return DyckPath(a, b, steps)
    except DyckError as exc:  # a failure here is a bug, never bad input
        raise InternalInvariantError(f"swept word {steps} is not a Dyck path") from exc


# ---------------------------------------------------------------------------
# Via cores


def _boundary_partition(path: DyckPath, m: int, bound: int) -> Partition:
    """Per-row counts of hooks below `bound` in the core's m-rows, length m."""
    kappa = anderson(path)
    counts = _hooks_below(kappa, a_rows(kappa, m), bound)
    return Partition(tuple(sorted(counts, reverse=True))).padded(m)


def lambda_partition(path: DyckPath) -> Partition:
    """Per-row counts of b-boundary boxes in the a-rows of the core, length a."""
    return _boundary_partition(path, path.a, path.b)


def mu_partition(path: DyckPath) -> Partition:
    """Per-row counts of a-boundary boxes in the b-rows of the core, length b."""
    return _boundary_partition(path, path.b, path.a)


def zeta_via_cores(path: DyckPath) -> DyckPath:
    return _bound(path.a, path.b, lambda_partition(path))


def eta_via_cores(path: DyckPath) -> DyckPath:
    return _bound(path.a, path.b, mu_partition(path).conjugate().padded(path.a))


# ---------------------------------------------------------------------------
# Via sweep


def zeta_via_sweep(path: DyckPath) -> DyckPath:
    """The steps sorted by the level of their start point, rising."""
    levels = path.levels()
    if len(set(levels)) != path.length:  # only the final 0 repeats
        raise InternalInvariantError("repeated level in reading word")
    return _swept(path.a, path.b, "".join(s for _, s in sorted(zip(levels, path.steps))))


def eta_via_sweep(path: DyckPath) -> DyckPath:
    """The steps sorted by the level of their end point, falling.

    This sorts the reverse reading word into a southwest path from (b, a),
    read back northeast.
    """
    levels = path.levels()[1:]
    if len(set(levels)) != path.length:
        raise InternalInvariantError("repeated level in reverse reading word")
    word = "".join(s for _, s in sorted(zip(levels, path.steps), reverse=True))
    return _swept(path.a, path.b, word)


# ---------------------------------------------------------------------------
# Via lasers


class LaserFilling:
    """Wall-crossing counts of slope-a/b lasers through box corners.

    Each box below the path and above the diagonal fires a bi-directional
    laser of slope a/b from its southeast corner; its value is the number
    of vertical walls of the path the laser crosses.  The total equals the
    skew length.
    """

    def __init__(self, path: DyckPath):
        self.path = path
        norths = path.north_levels()
        easts = path.east_levels()
        values: dict[tuple[int, int], int] = {}
        for row, col0 in enumerate(path.north_columns()):
            for col in range(col0, path.b):
                v = box_value(path.a, path.b, col, row)
                if v <= 0:
                    continue
                vertical = sum(1 for n in norths if n < v < n + path.b)
                horizontal = sum(1 for e in easts if v < e < v + path.a)
                if vertical != horizontal:
                    raise InternalInvariantError(
                        f"laser at box ({col}, {row}) crosses {vertical} vertical "
                        f"but {horizontal} horizontal walls"
                    )
                values[(col, row)] = vertical
        self._values = values

    def value(self, col: int, row: int) -> int:
        return self._values[(col, row)]

    def boxes(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._values))

    def total(self) -> int:
        return sum(self._values.values())

    def row_sums(self) -> tuple[int, ...]:
        return tuple(
            sum(v for (c, r), v in self._values.items() if r == row)
            for row in range(self.path.a)
        )

    def column_sums(self) -> tuple[int, ...]:
        return tuple(
            sum(v for (c, r), v in self._values.items() if c == col)
            for col in range(self.path.b)
        )


def laser_filling(path: DyckPath) -> LaserFilling:
    return LaserFilling(path)


def zeta_via_lasers(path: DyckPath) -> DyckPath:
    rows = sorted(laser_filling(path).row_sums(), reverse=True)
    return _bound(path.a, path.b, Partition(tuple(rows)))


def eta_via_lasers(path: DyckPath) -> DyckPath:
    cols = sorted(laser_filling(path).column_sums(), reverse=True)
    mu = Partition(tuple(cols))
    return _bound(path.a, path.b, mu.conjugate().padded(path.a))


# ---------------------------------------------------------------------------
# Via interval intersections


@dataclass(frozen=True)
class IntervalGrid:
    """Disjointness grid of the north intervals against the east intervals.

    Row r (bottom to top) carries the r-th smallest north interval
    [n, n+b]; column c carries the c-th smallest east interval [e-a, e].
    A cell is shaded when the two intervals do not intersect, which happens
    northwest of the diagonal when e < n and southeast when n + b < e - a.
    """

    north_intervals: tuple[tuple[int, int], ...]
    east_intervals: tuple[tuple[int, int], ...]
    shaded: tuple[tuple[bool, ...], ...]  # [row][col], row 0 at the bottom

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
    norths = sorted(path.north_levels())
    easts = sorted(path.east_levels())
    n_ints = tuple((n, n + path.b) for n in norths)
    e_ints = tuple((e - path.a, e) for e in easts)
    shaded = tuple(
        tuple(max(nl, el) > min(nh, eh) for (el, eh) in e_ints) for (nl, nh) in n_ints
    )
    return IntervalGrid(n_ints, e_ints, shaded)


def zeta_via_intervals(path: DyckPath) -> DyckPath:
    grid = interval_grid(path)
    counts = tuple(sum(row) for row in reversed(grid.northwest_shaded()))
    return _bound(path.a, path.b, Partition(counts))


def eta_via_intervals(path: DyckPath) -> DyckPath:
    grid = interval_grid(path)
    se = grid.southeast_shaded()
    counts = tuple(
        sum(se[r][c] for r in range(grid.a)) for c in reversed(range(grid.b))
    )
    mu = Partition(counts)
    return _bound(path.a, path.b, mu.conjugate().padded(path.a))


# ---------------------------------------------------------------------------
# Canonical entry points

CANONICAL = "sweep"

_ZETA_METHODS = {
    "cores": zeta_via_cores,
    "sweep": zeta_via_sweep,
    "laser": zeta_via_lasers,
    "intervals": zeta_via_intervals,
}

_ETA_METHODS = {
    "cores": eta_via_cores,
    "sweep": eta_via_sweep,
    "laser": eta_via_lasers,
    "intervals": eta_via_intervals,
}


def _dispatch(name: str, methods, path: DyckPath, check: bool) -> DyckPath:
    if not check:
        return methods[CANONICAL](path)
    results = {m: fn(path) for m, fn in methods.items()}
    if len(set(results.values())) != 1:
        raise MethodDisagreement(
            f"{name}({path})", {m: str(p) for m, p in results.items()}
        )
    return results[CANONICAL]


def zeta(path: DyckPath, *, check: bool = False) -> DyckPath:
    """The zeta map, by the sweep; with check=True all four constructions
    must agree."""
    return _dispatch("zeta", _ZETA_METHODS, path, check)


def eta(path: DyckPath, *, check: bool = False) -> DyckPath:
    """The eta map, by the sweep; with check=True all four constructions
    must agree."""
    return _dispatch("eta", _ETA_METHODS, path, check)
