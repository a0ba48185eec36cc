"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library's own algorithms: enumeration
is brute force over all step words, the conjugate oracle is the geometric
cyclic-shift-and-rotate procedure checked against the complement rule on
positive hooks, laser crossings are re-derived with
exact rational intersection tests and, box by box, by scanning every
level, the interval routes' counts come from the whole a x b grid, the
closed forms of the inverse module are rebuilt as sets of boxes, dinv
walks the boxes with their arms and legs, the area counts boxes one at a
time, a partition's hooks and the positive entries of the hook filling
are found box by box, skew inversions
compare every pair of levels, the partners of each zeta image are
sought by calling iota on every pair (Q, R), Gaussian binomials come
from the Pascal recurrence on QPolynomial values, and the q- and
q,t-generating functions take each path's statistics one path at a time.
A few definitions of the paper that the library does not need (the
rotation cycle, conjugation of permutations, the path of a permutation's
descents, the boundary values of the row-length filling) and the delta
search's answer as one pair are stated here for the tests that check them.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import strategies as st

from rational_dyck import DyckPath, Permutation, enumerate_paths, hook_filling, make_path, maps
from rational_dyck.bounce import search_delta_traces
from rational_dyck.errors import InconsistentPair, NoPreimage, NotACycle, NotADyckPath
from rational_dyck.inverse import chi, iota, level_point, split_dims
from rational_dyck.paths import (
    EAST,
    NORTH,
    Partition,
    _descent_word,
    path_from_bounded_partition,
    path_from_hooks,
)
from rational_dyck.stats import co_skew_length, core_rank, path_rank, skew_length
from rational_dyck.verification import QPolynomial, QTPolynomial


@pytest.fixture
def running() -> DyckPath:
    """The worked (5,8) example used throughout the documentation."""
    return make_path(5, 8, "NNNENEEENEEEE")


@pytest.fixture
def sweep_builds(monkeypatch) -> list[DyckPath]:
    """The paths the maps sort, in order, while the test runs: each miss of
    the memo of the last sweep, which the fixture empties first."""
    builds, build = [], maps._sweep
    monkeypatch.setattr(maps, "_sweep", lambda path: builds.append(path) or build(path))
    monkeypatch.setattr(maps, "_last_sweep", ("", ()))
    return builds


def coprime_pairs(max_sum: int, min_dim: int = 1):
    """All (a, b) with gcd 1, a + b <= max_sum and both dims >= min_dim."""
    out = []
    for total in range(2 * min_dim, max_sum + 1):
        for a in range(min_dim, total - min_dim + 1):
            b = total - a
            if b >= min_dim and math.gcd(a, b) == 1:
                out.append((a, b))
    return out


def first_point_below(a: int, b: int, word) -> tuple[int, int] | None:
    """The first lattice point of the walk strictly below the diagonal."""
    x = y = 0
    for s in word:
        x, y = (x, y + 1) if s == NORTH else (x + 1, y)
        if a * x > b * y:
            return x, y
    return None


def brute_force_paths(a: int, b: int) -> set[str]:
    """Every valid step word, by filtering all C(a+b, a) candidates."""
    words = set()
    for north_positions in combinations(range(a + b), a):
        word = [EAST] * (a + b)
        for i in north_positions:
            word[i] = NORTH
        if first_point_below(a, b, word) is None:
            words.add("".join(word))
    return words


def cycle_lemma_path(rng, a: int, b: int) -> DyckPath:
    """A uniformly random (a,b)-Dyck path, at sizes enumeration cannot reach.

    Of the a+b rotations of a random word with a norths and b easts, exactly
    one stays weakly above the diagonal: the one starting at the lowest point.
    """
    word = [NORTH] * a + [EAST] * b
    rng.shuffle(word)
    level, lowest, start = 0, 0, 0
    for i, s in enumerate(word):
        level += b if s == NORTH else -a
        if level < lowest:
            lowest, start = level, i + 1
    return make_path(a, b, "".join(word[start:] + word[:start]))


@st.composite
def cycle_lemma_paths(draw, max_sum: int = 300) -> DyckPath:
    """Hypothesis strategy: a coprime (a, b) with a + b <= max_sum, then a
    uniform (a,b)-path from cycle_lemma_path on a drawn seed."""
    total = draw(st.integers(2, max_sum))
    a = draw(st.integers(1, total - 1).filter(lambda a: math.gcd(a, total) == 1))
    seed = draw(st.integers(0, 2**32 - 1))
    return cycle_lemma_path(random.Random(seed), a, total - a)


def geometric_conjugate(path: DyckPath) -> DyckPath:
    """Cyclic-shift below the diagonal, then rotate half a turn.

    Shifting the word to start at its maximal-level point puts every other
    point strictly below the diagonal; reversing the shifted word is the
    half-turn rotation.
    """
    levels = path.levels()[:-1]
    cut = levels.index(max(levels))
    shifted = path.steps[cut:] + path.steps[:cut]
    # check the shifted path is strictly below the diagonal in the interior
    x = y = 0
    for s in shifted[:-1]:
        x, y = (x, y + 1) if s == NORTH else (x + 1, y)
        assert y * path.b - x * path.a < 0
    return DyckPath(path.a, path.b, shifted[::-1])


def conjugate_by_hooks(path: DyckPath) -> DyckPath:
    """The path whose positive hooks are {m - n : n in {0..m} \\ H}, for the
    path's positive hooks H with maximum m (the area-0 path is fixed)."""
    hooks = path.positive_hooks()
    if not hooks:
        return path
    m = hooks[0]
    present = frozenset(hooks)
    return path_from_hooks(path.a, path.b, [m - n for n in range(m + 1) if n not in present])


def area_by_boxes(path: DyckPath) -> int:
    """Boxes (x, y) right of row y's north step, x >= c_y, with their
    southeast corner weakly above the diagonal, (x+1)*a <= y*b; the
    columns c_y come from walking the word."""
    a, b = path.a, path.b
    columns, x = [], 0
    for s in path.steps:
        if s == NORTH:
            columns.append(x)
        else:
            x += 1
    return sum(
        1 for y, c in enumerate(columns) for x in range(c, b) if (x + 1) * a <= y * b
    )


def dinv_by_boxes(path: DyckPath) -> int:
    """Boxes above the path with arm/(leg+1) <= b/a < (arm+1)/leg.

    Walks every box of the bounded partition; arms and legs are counted
    from the parts, and ratios compared by integer cross-multiplication
    (when leg = 0 the right inequality holds for any arm).
    """
    a, b = path.a, path.b
    parts = tuple(sorted(path.north_columns(), reverse=True))
    heights = [sum(1 for p in parts if p > j) for j in range(parts[0] if parts else 0)]
    count = 0
    for i, p in enumerate(parts):
        for j in range(p):
            arm, leg = p - j - 1, heights[j] - i - 1
            if arm * a <= b * (leg + 1) and b * leg < a * (arm + 1):
                count += 1
    return count


def hooks_by_boxes(parts) -> list[int]:
    """Every hook length of the partition, one box at a time."""
    p = Partition(tuple(parts))
    return [p.hook(i, j) for i, j in p.boxes()]


def positive_values(a: int, b: int) -> list[int]:
    """Every positive entry of the (a,b) hook filling, largest first, read
    box by box."""
    filling = hook_filling(a, b)
    values = (filling.value(col, row) for col in range(b) for row in range(a))
    return sorted((v for v in values if v > 0), reverse=True)


def westmost_values(filling) -> tuple[int, ...]:
    """Row-length filling value of the leftmost box under the path, by row."""
    return tuple(filling.value(c, r) for r, c in enumerate(filling.path.north_columns()))


def northmost_values(filling) -> tuple[int, ...]:
    """Row-length filling value of the topmost box under the path in each
    column: the one just below the column's east step."""
    return tuple(filling.value(c, r - 1) for c, r in enumerate(filling.path.east_rows()))


def rotation_cycle(n: int, i: int, j: int) -> Permutation:
    """The cycle (i, i+1, ..., j) inside the symmetric group on 1..n."""
    return Permutation.from_cycle(tuple(range(i, j + 1)), n)


def conjugated_by(g: Permutation, rho: Permutation) -> Permutation:
    """rho * g * rho^{-1}."""
    return rho.compose(g).compose(rho.inverse())


def path_from_permutation(perm: Permutation, a: int, b: int) -> DyckPath:
    """The path with east steps at perm's right cyclic descents, through the
    library's descent decode; DyckPath rejects a word that is no path."""
    return DyckPath(a, b, _descent_word(perm.one_line))


def search_preimage(q: DyckPath) -> tuple[DyckPath, tuple[int, ...]]:
    """The delta search's preimage of Q and its delta trace, or NoPreimage."""
    found, attempts = search_delta_traces(q)
    if not found:
        raise NoPreimage(f"search found no preimage of {q} ({attempts} decodes)")
    [(path, deltas)] = found
    return path, deltas


def skew_inversion_pairs(path: DyckPath) -> int:
    """#{(n, e): n > e} over north and east start levels, pair by pair."""
    levels = path.levels()
    norths = [v for v, s in zip(levels, path.steps) if s == NORTH]
    easts = [v for v, s in zip(levels, path.steps) if s == EAST]
    return sum(1 for n in norths for e in easts if n > e)


def laser_value_by_intersection(path: DyckPath, col: int, row: int) -> int:
    """Crossing count of the slope-a/b line through the box's SE corner,
    via exact rational intersections with each north step of the path."""
    a, b = path.a, path.b
    cx, cy = col + 1, row
    slope = Fraction(a, b)
    count = 0
    points = path.points()
    for i, s in enumerate(path.steps):
        if s != NORTH:
            continue
        x, y = points[i]
        line_y = cy + slope * (x - cx)
        if y < line_y < y + 1:
            count += 1
    return count


def laser_filling_by_boxes(path: DyckPath):
    """Each positive box's laser value, scanning every north and east level
    for it, with the row and column sums re-added from the boxes.

    A laser from level v crosses the north step from n when n < v < n + b
    and the east step from e when v < e < v + a; the two counts must agree.
    Returns (values by (col, row), row sums, column sums).
    """
    a, b = path.a, path.b
    values = {}
    for row, col0 in enumerate(path.north_columns()):
        for col in range(col0, b):
            v = row * b - (col + 1) * a
            if v <= 0:
                continue
            vertical = sum(1 for n in path.north_levels() if n < v < n + b)
            horizontal = sum(1 for e in path.east_levels() if v < e < v + a)
            assert vertical == horizontal, (path, col, row)
            values[(col, row)] = vertical
    rows = tuple(sum(v for (c, r), v in values.items() if r == row) for row in range(a))
    cols = tuple(sum(v for (c, r), v in values.items() if c == col) for col in range(b))
    return values, rows, cols


def interval_grid_sums(path: DyckPath):
    """Row sums of the northwest cells and column sums of the southeast
    cells of the a x b interval grid, built cell by cell.

    Row r carries the r-th smallest north interval [n, n+b], column c the
    c-th smallest east interval [e-a, e]; a cell is northwest when the east
    interval ends before the north one starts, southeast when it starts
    after the north one ends.
    """
    a, b = path.a, path.b
    rows = [(n, n + b) for n in sorted(path.north_levels())]
    cols = [(e - a, e) for e in sorted(path.east_levels())]
    northwest = [[e_hi < n_lo for e_lo, e_hi in cols] for n_lo, n_hi in rows]
    southeast = [[n_hi < e_lo for e_lo, e_hi in cols] for n_lo, n_hi in rows]
    return (
        tuple(sum(cells) for cells in northwest),
        tuple(sum(southeast[r][c] for r in range(a)) for c in range(b)),
    )


def partition_from_boxes(a: int, boxes) -> Partition:
    """The partition whose rows, top first, count the boxes (col, row) of a
    left-justified box set in an a-row grid."""
    counts = [0] * a
    for c, r in boxes:
        counts[r] += 1
    for c, r in boxes:
        assert all((cc, r) in boxes for cc in range(c)), "not left-justified"
    return Partition(tuple(reversed(counts)))


def _rotated(a: int, b: int, boxes) -> set[tuple[int, int]]:
    return {(b - 1 - c, a - 1 - r) for c, r in boxes}


def northwest_rect(a: int, b: int, level: int) -> set[tuple[int, int]]:
    """The boxes left of and above the level point."""
    x, y = level_point(a, b, level)
    return {(c, r) for c in range(x) for r in range(y, a)}


def southeast_hat(a: int, b: int, level: int) -> set[tuple[int, int]]:
    """The boxes right of and below the level point, less the corner box
    just southeast of it."""
    x, y = level_point(a, b, level)
    boxes = {(c, r) for c in range(x, b) for r in range(y)}
    boxes.discard((x, y - 1))
    return boxes


def kth_valley_by_boxes(a: int, b: int, k: int) -> DyckPath:
    """The path bounding the union of the northwest rectangles of levels 1..k."""
    boxes = set().union(*(northwest_rect(a, b, lv) for lv in range(1, k + 1)))
    return path_from_bounded_partition(a, b, partition_from_boxes(a, boxes))


def chi_kth_valley_by_boxes(a: int, b: int, k: int) -> DyckPath:
    """The path bounding the half-turned union of the hats of levels 1..k."""
    boxes = set().union(*(southeast_hat(a, b, lv) for lv in range(1, k + 1)))
    return path_from_bounded_partition(
        a, b, partition_from_boxes(a, _rotated(a, b, boxes))
    )


def chi_shape_by_boxes(q: DyckPath) -> frozenset[tuple[int, int]]:
    """Box set whose half-turn rotation bounds chi(q), for a path through
    its level-1 point: the sub-paths' sets in the bottom-left and top-right
    rectangles, and the southeast block less its crossed corner box.
    Sub-paths missing their own level-1 point fall back to chi itself."""
    a, b = q.a, q.b
    if a == 1 or b == 1:
        return frozenset()
    a1, b1, a2, b2 = split_dims(a, b)
    if not q.visits(b1, a1):
        above = {(c, r) for r, w in enumerate(chi(q).north_columns()) for c in range(w)}
        return frozenset(_rotated(a, b, above))
    left = DyckPath(a1, b1, q.steps[: a1 + b1])
    right = DyckPath(a2, b2, q.steps[a1 + b1 :])
    boxes = set(chi_shape_by_boxes(left))
    boxes |= {(c + b1, r + a1) for c, r in chi_shape_by_boxes(right)}
    boxes |= {(c, r) for c in range(b1, b) for r in range(a1) if (c, r) != (b1, a1 - 1)}
    return frozenset(boxes)


def chi_level1_by_boxes(q: DyckPath) -> DyckPath:
    rotated = _rotated(q.a, q.b, chi_shape_by_boxes(q))
    return path_from_bounded_partition(q.a, q.b, partition_from_boxes(q.a, rotated))


def justified_by_boxes(a: int, b: int, n: int):
    """(lambda, nu, P^n) of `justified`, box by box: lambda fills the
    columns above the diagonal from the left, each from its top; nu fills
    the rows from the top, each from its left; P^n carries the n smallest
    positive grid values."""
    def value(c, r):
        return r * b - (c + 1) * a

    left = set()
    for col in range(b):
        rows = sorted((r for r in range(a) if value(col, r) > 0), reverse=True)
        left |= {(col, r) for r in rows[: n - len(left)]}
    up = set()
    for row in reversed(range(a)):
        cols = [c for c in range(b) if value(c, row) > 0]
        up |= {(c, row) for c in cols[: n - len(up)]}
    positives = sorted(value(c, r) for r in range(a) for c in range(b) if value(c, r) > 0)
    return (
        partition_from_boxes(a, left).trimmed(),
        partition_from_boxes(a, up).trimmed(),
        path_from_hooks(a, b, positives[:n]),
    )


def pair_uniqueness_by_scan(images, paths) -> dict[str, int]:
    """For each image Q in order, the number of paths R that iota(Q, R)
    accepts, trying every R of the enumeration."""
    out = {}
    for q in images:
        count = 0
        for r in paths:
            try:
                iota(q, r)
            except (NotACycle, NotADyckPath, InconsistentPair):
                continue  # r is not a partner of q
            count += 1
        out[str(q)] = count
    return out


def gaussian_binomial_by_polynomials(n: int, k: int) -> QPolynomial:
    """qbinom(n, k) by the Pascal recurrence, one QPolynomial per cell."""
    if not 0 <= k <= n:
        return QPolynomial.zero()
    row = [QPolynomial.one()] + [QPolynomial.zero()] * k
    for _ in range(n):
        for j in range(min(k, n), 0, -1):
            row[j] = row[j - 1] + QPolynomial.monomial(j) * row[j]
    return row[k]


RANK_BY_VARIANT = {"core": core_rank, "path": path_rank}


def sl_rank_generating_by_paths(a: int, b: int, rank_variant: str) -> QPolynomial:
    """Sum of q^(sl + rank), taking the statistics path by path."""
    rank_fn = RANK_BY_VARIANT[rank_variant]
    counts = Counter(skew_length(p) + rank_fn(p) for p in enumerate_paths(a, b))
    return QPolynomial(tuple(counts[e] for e in range(max(counts) + 1)))


def qt_catalan_by_paths(a: int, b: int, rank_variant: str) -> QTPolynomial:
    """Sum of q^rank t^(co-skew-length), taking the statistics path by path."""
    rank_fn = RANK_BY_VARIANT[rank_variant]
    counts = Counter((rank_fn(p), co_skew_length(p)) for p in enumerate_paths(a, b))
    return QTPolynomial(tuple(counts.items()))
