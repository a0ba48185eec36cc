"""Scalar statistics of rational Dyck paths.

Skew length is exposed through all of its equivalent computations (core
side, peak/valley row lengths, skew inversions, flip skew inversions); the
laser route lives with the laser filling.  All arithmetic is exact.

The statistics of `statistics_summary` are read off the path's word and
levels, with no box loop and no Partition.  Let c_y be the column of the
north step in row y.

- area = (a-1)(b-1)/2 - coarea, where coarea is the sum of the c_y.  Box
  (x, y) lies above the diagonal when its southeast corner does,
  y*b > (x+1)*a; a*x never equals y*b inside the grid, so row y >= 1
  holds floor(y*b/a) such boxes, row 0 none, and rows y and a - y hold
  b - 1 together: (a-1)(b-1)/2 in all.  The path passes (c_y, y), so
  c_y <= floor(y*b/a), and its c_y boxes left of the north step are
  the ones of row y above the path.
- coarea is read off the north levels: row y's north step starts at level
  y*b - c_y*a, so they sum to b*a(a-1)/2 - a*coarea.  A sum needs no
  order, so coarea sums the north levels as they are picked out of the
  word, and sorts nothing.
- rank = a less the number of c_y equal to 0, the nonzero rows of the
  bounded partition; those rows are the word's leading run of N, so rank
  is a less its length.  The core rank equals the area.
- skew inversions bisect each north level, in any order, into the east
  levels sorted rising: one sort.  Both are picked out of the levels
  through a byte mask of the word, so no Python call runs per step.
- delta counts the reading-word levels below a + b, one comparison per
  level and no sort.
- dinv is defined on the boxes above the path, but each such box pairs an
  east step e with a later north step n, its arm and leg being the E and N
  steps strictly between them.  Then L(n) - L(e) = leg*b - arm*a - a on
  start levels, so the box counts exactly when L(e) - (a+b) < L(n) < L(e):
  a window on levels, counted in one left-to-right pass.  dinv = slp is a
  theorem (zeta sends dinv to area and sl to coarea), and reading dinv off
  slp would save this pass, about two thirds of the summary's time at
  a+b near 300; but then `dyck stats` would print one number derived from
  another, and `verify`'s dinv transport would restate its sl transport.
  So dinv keeps its own count.  Its pass keeps the east levels sorted
  anyway: the summary bisects into that list for sl, so it sorts only
  inside the pass, and it picks the north levels out once for sl and
  coarea.  The path keeps none of these lists, so no statistic depends on
  which ran before it.  The pass and the pick are one private helper
  that returns sl, coarea and dinv as plain values; `dyck verify`'s
  battery shares it, calling it once per path for the pair's table of
  statistics in `verification`, with no dict to build.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from itertools import repeat

from .cores import row_length_filling
from .errors import InternalInvariantError
from .paths import DyckPath, EAST, NORTH, _start_levels

__all__ = [
    "area",
    "coarea",
    "rank",
    "path_rank",
    "core_rank",
    "skew_length",
    "skew_length_peaks_valleys",
    "skew_inversions",
    "flip_skew_inversions",
    "co_skew_length",
    "dinv",
    "delta",
    "statistics_summary",
]


def area(path: DyckPath) -> int:
    """Boxes below the path and above the diagonal: (a-1)(b-1)/2 less the coarea."""
    return (path.a - 1) * (path.b - 1) // 2 - coarea(path)


def coarea(path: DyckPath) -> int:
    """Number of boxes above the path: the sum of its north columns c_y.

    Row y's north step starts at level y*b - c_y*a, so the sum of the north
    levels is b*a(a-1)/2 - a*coarea.  The sum needs no order, so the levels
    are summed as they are picked out of the word.
    """
    return _coarea(path, _start_levels(path, NORTH))


def _coarea(path: DyckPath, norths) -> int:
    """coarea off the path's north levels, in any order."""
    a = path.a
    boxes, rest = divmod(path.b * (a * (a - 1) // 2) - sum(norths), a)
    if rest:
        raise InternalInvariantError(f"north levels of {path.steps} sum to b*a(a-1)/2 less no multiple of {a}")
    return boxes


def path_rank(path: DyckPath) -> int:
    """Number of nonzero rows of the bounded partition: the rows whose north
    step comes after an east step, all but the word's leading run of N."""
    steps = path.steps
    return path.a - (len(steps) - len(steps.lstrip(NORTH)))


rank = path_rank


def core_rank(path: DyckPath) -> int:
    """Number of rows of the corresponding core; equals the area."""
    return area(path)


def skew_inversions(path: DyckPath) -> int:
    """Pairs (i, j) of north and east levels with n_i > e_j."""
    return _skew_inversions(_start_levels(path, NORTH), sorted(_start_levels(path, EAST)))


def _skew_inversions(norths, easts: list[int]) -> int:
    """Each north level, in any order, bisected into the east levels, sorted
    rising."""
    return sum(map(bisect_left, repeat(easts), norths))


def flip_skew_inversions(path: DyckPath) -> int:
    """Pairs (i, j) with n_i + b < e_j - a.

    Each east level less a+b is bisected into the north levels, sorted
    rising.
    """
    norths = sorted(_start_levels(path, NORTH))
    top = path.a + path.b
    return sum(bisect_left(norths, e - top) for e in _start_levels(path, EAST))


def skew_length_peaks_valleys(path: DyckPath) -> int:
    """Sum of row lengths at peaks minus row lengths at valleys."""
    filling = row_length_filling(path)
    points = path.points()
    total = 0
    for i in range(path.length - 1):
        pair = path.steps[i : i + 2]
        x, y = points[i + 1]
        if pair == NORTH + EAST:
            total += filling.value(x, y - 1)
        elif pair == EAST + NORTH:
            total -= filling.value(x, y - 1)
    return total


def skew_length(path: DyckPath) -> int:
    """The skew length statistic (computed via skew inversions)."""
    return skew_inversions(path)


def co_skew_length(path: DyckPath) -> int:
    """(a-1)(b-1)/2 minus the skew length."""
    return (path.a - 1) * (path.b - 1) // 2 - skew_length(path)


def dinv(path: DyckPath) -> int:
    """Boxes B above the path with arm/(leg+1) <= b/a < (arm+1)/leg.

    B pairs an east step e with a later north step n; its arm and leg are
    the E and N steps strictly between them, so on start levels
    L(n) - L(e) = leg*b - arm*a - a.  The two inequalities become
    L(e) - (a+b) <= L(n) < L(e), and the left end never holds with
    equality, since start levels are distinct mod a+b.  One pass keeps
    the levels of the east steps seen so far sorted, and counts, at each
    north step, those in the window (L(n), L(n) + a+b].
    """
    return _dinv_pass(path)[0]


def _dinv_pass(path: DyckPath) -> tuple[int, list[int]]:
    """dinv, and the east levels sorted rising, which its pass sorts anyway."""
    window = path.a + path.b
    seen: list[int] = []
    count = 0
    for level, step in zip(path.levels(), path.steps):
        if step == EAST:
            insort(seen, level)
        else:
            count += bisect_right(seen, level + window) - bisect_right(seen, level)
    return count, seen


def delta(path: DyckPath) -> int:
    """Number of reading-word levels strictly below a + b."""
    top = path.a + path.b
    return sum(1 for level in path.reading_word() if level < top)


def _sl_coarea_dinv(path: DyckPath) -> tuple[int, int, int]:
    """sl, coarea and dinv off one dinv pass and one pick of the north
    levels: sl and coarea share the pick, and sl bisects it into the pass's
    sorted east levels.  Plain values, no dict, for the verify battery."""
    dv, easts = _dinv_pass(path)
    # a list: a short tuple built from an iterator ends on a per-size free
    # list that such builds never reuse, which cost `verify --max-sum 18`
    # 1.2 MB of peak RSS
    norths = list(_start_levels(path, NORTH))
    return _skew_inversions(norths, easts), _coarea(path, norths), dv


def statistics_summary(path: DyckPath) -> dict[str, int]:
    """All statistics in the documented JSON key order; sl, coarea and dinv
    come from one shared pass."""
    half = (path.a - 1) * (path.b - 1) // 2
    sl, co, dv = _sl_coarea_dinv(path)
    return {
        "area": half - co,
        "coarea": co,
        "rank": rank(path),
        "sl": sl,
        "slp": half - sl,
        "dinv": dv,
        "delta": delta(path),
    }
