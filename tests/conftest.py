"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library's own algorithms: enumeration
is brute force over all step words, the conjugate oracle is the geometric
cyclic-shift-and-rotate procedure checked against the complement rule on
positive hooks, laser crossings are re-derived with
exact rational intersection tests, dinv walks the boxes with their arms
and legs, a partition's hooks are found box by box, skew inversions
compare every pair of levels, the partners of each zeta image are
sought by calling iota on every pair (Q, R), and Gaussian binomials come
from the Pascal recurrence on QPolynomial values.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import strategies as st

from rational_dyck import DyckPath, make_path
from rational_dyck.errors import InconsistentPair, NotACycle, NotADyckPath
from rational_dyck.inverse import iota
from rational_dyck.paths import EAST, NORTH, Partition, path_from_hooks
from rational_dyck.verification import QPolynomial


@pytest.fixture
def running() -> DyckPath:
    """The worked (5,8) example used throughout the documentation."""
    return make_path(5, 8, "NNNENEEENEEEE")


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
