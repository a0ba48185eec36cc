"""Rational Dyck paths, partitions and permutations.

An (a,b)-Dyck path is a word of a north and b east steps from (0,0) to
(b,a) whose lattice points (x,y) all satisfy a*x <= b*y, for coprime a, b.
This module owns the path type, its level data, enumeration, and the
structural operations (conjugate, flip, reverse, star product, predecessor)
that everything else builds on.

`DyckPath(a, b, steps)` is the one constructor, and it checks every path,
whether a caller or the library built it: dimensions, alphabet,
coprimality, step counts, then the diagonal, each by builtins over the
whole word.  A rejected word raises the error that names its fault;
PathParseError carries the offset of the first bad character and
BelowDiagonal the first lattice point below the diagonal.  The builders
here (from a bounded partition, north columns, a permutation or a hook
set) and the inverses rely on this to reject their words: they build a
word and check nothing that DyckPath or Partition checks.

A path holds exactly its dimensions, its word and the levels y*b - x*a
that the diagonal check walks, and every value type holds only what its
constructor computes: nothing is built lazily on an instance, so a held
path costs the same before and after any call.  Equality and hashing stay
on the word.  The north columns, east rows, bounded partition and
positive hooks are computed on each call.  The north and east levels are
picked out of the levels by `_start_levels`, through a 0/1 byte mask of
the word made by `bytes.translate`, so no Python call runs per step, and
`north_levels()` and `east_levels()` sort them on each call, like
`points()`.  The statistics read them unsorted or sort them in their own
pass (see `stats`).  zeta and eta sort the steps by level; that sort
lives in `maps`, which keeps the last one.

The package's value types are plain immutable classes on `_Value`, which
gives the equality, hash and repr of a frozen dataclass without importing
`dataclasses` (and with it `inspect`, `ast`, `dis` and `tokenize`) or
`typing`.  With bytecode cached, `import rational_dyck` took a median
21-26 ms this way, on a 2-vCPU host under Python 3.11.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from functools import lru_cache
from itertools import accumulate, chain, compress
from operator import attrgetter

from .errors import (
    AreaZero,
    BelowDiagonal,
    InternalInvariantError,
    NotACycle,
    NotCoprime,
    NotSquareCase,
    PathParseError,
    WrongStepCounts,
)

__all__ = [
    "DyckPath",
    "Partition",
    "Permutation",
    "make_path",
    "lowest_path",
    "full_path",
    "path_from_bounded_partition",
    "path_from_hooks",
    "enumerate_paths",
    "rational_catalan_number",
    "standardize",
    "sigma",
    "tau",
    "gamma",
    "conjugate",
    "flip",
    "reverse",
    "star_product",
    "predecessor",
]

NORTH = "N"
EAST = "E"

# 0/1 byte tables for bytes.translate: an ASCII-encoded word becomes the
# mask of its north (or east) steps, which compress reads in C
_MASKS = {NORTH: bytes.maketrans(b"NE", b"\1\0"), EAST: bytes.maketrans(b"NE", b"\0\1")}

# Bound of every module cache.  Each is keyed by an (a, b) pair and holds a
# table of paths.  A sweep finishes one pair before it starts the next, so
# one table serves it, and it holds no pair it has left.  None is keyed by
# a path.
_TABLE_CACHE_SIZE = 1


# Stores an attribute past a value type's frozen __setattr__.  Unlike a write
# to the instance's __dict__, it keeps the attributes in the compact layout
# that CPython reads fastest.
_setattr = object.__setattr__


class _Value:
    """Base of the value types, in place of a frozen dataclass.

    A subclass names its fields, in order, in __match_args__, and its own
    __init__ stores them past the frozen __setattr__: through the
    instance's __dict__, or by _setattr where the layout matters.
    Equality, hash and a dataclass-style repr are taken on the fields, and
    equality with another class is NotImplemented.  Assigning or deleting
    any attribute raises AttributeError.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._key = attrgetter(*cls.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            key = self._key
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


def _check_dimensions(a, b) -> None:
    """The rule on grid dimensions shared by paths, fillings and cores:
    ValueError unless a and b are positive ints (a bool is not one)."""
    if type(a) is not int or type(b) is not int:
        raise ValueError("dimensions must be integers")
    if a < 1 or b < 1:
        raise ValueError("dimensions must be positive")


def _check_coprime(a, b) -> None:
    """_check_dimensions, then NotCoprime unless gcd(a, b) = 1: the rule of
    every entry point that takes a grid but no path."""
    _check_dimensions(a, b)
    if math.gcd(a, b) != 1:
        raise NotCoprime(f"gcd({a}, {b}) != 1")


def box_value(a: int, b: int, col: int, row: int) -> int:
    """Grid filling of the box with lower-left corner (col, row).

    Equals the level of the box's southeast corner, so the box lies above
    the main diagonal exactly when the value is positive.
    """
    return row * b - (col + 1) * a


# ---------------------------------------------------------------------------
# Partitions


class Partition(_Value):
    """Weakly decreasing tuple of non-negative integers.

    Trailing zeros are kept and significant: fixed-length contexts (such as
    the length-a partition bounded by a path) rely on them.
    """

    __match_args__ = ("parts",)

    def __init__(self, parts: tuple[int, ...]):
        parts = tuple(parts)
        if not set(map(type, parts)) <= {int}:
            raise ValueError(f"parts must be integers: {parts}")
        if min(parts, default=0) < 0 or list(parts) != sorted(parts, reverse=True):
            raise ValueError(f"parts not non-negative and weakly decreasing: {parts}")
        # the number of parts exceeding j, for each column j of the diagram:
        # bottom row first, each row extends the columns it adds with its
        # own height
        heights: list[int] = []
        for i in range(len(parts) - 1, -1, -1):
            heights.extend([i + 1] * (parts[i] - len(heights)))
        # _column_heights is not a field: no eq or hash
        self.__dict__.update(parts=parts, _column_heights=tuple(heights))

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def trimmed(self) -> "Partition":
        """Drop trailing zero parts."""
        return Partition(tuple(p for p in self.parts if p > 0))

    def padded(self, length: int) -> "Partition":
        """Append zero parts up to the requested length; ValueError for a
        length that is not an int or is shorter than the parts."""
        if type(length) is not int:
            raise ValueError(f"length must be an int, got {length!r}")
        if len(self.parts) > length:
            raise ValueError(f"{self.parts} longer than {length}")
        return Partition(self.parts + (0,) * (length - len(self.parts)))

    def conjugate(self) -> "Partition":
        """Transpose of the Young diagram (no trailing zeros)."""
        return Partition(self._column_heights)

    def boxes(self) -> Iterator[tuple[int, int]]:
        """(row, col) pairs of the Young diagram, English notation."""
        for i, p in enumerate(self.parts):
            for j in range(p):
                yield i, j

    def _check_box(self, i, j) -> None:
        """ValueError unless i and j are ints naming a box of the diagram."""
        parts = self.parts
        if not (type(i) is int and type(j) is int and 0 <= i < len(parts) and 0 <= j < parts[i]):
            raise ValueError(f"({i!r}, {j!r}) is not a box of {parts}")

    def arm(self, i: int, j: int) -> int:
        """Boxes right of box (row i, col j) in its row."""
        self._check_box(i, j)
        return self.parts[i] - j - 1

    def leg(self, i: int, j: int) -> int:
        """Boxes below box (row i, col j) in its column; O(1) per call, off
        the column heights the constructor counts."""
        self._check_box(i, j)
        return self._column_heights[j] - i - 1

    def hook(self, i: int, j: int) -> int:
        """Hook length of box (row i, col j), both 0-indexed."""
        return self.arm(i, j) + self.leg(i, j) + 1


# ---------------------------------------------------------------------------
# Permutations


class Permutation(_Value):
    """Permutation of {1..n} stored in one-line notation."""

    __match_args__ = ("one_line",)

    def __init__(self, one_line: tuple[int, ...]):
        one_line = tuple(one_line)
        n = len(one_line)
        if set(map(type, one_line)) != {int} or sorted(one_line) != list(range(1, n + 1)):
            raise ValueError(f"not a permutation of 1..{n}: {one_line}")
        self.__dict__.update(one_line=one_line)

    @property
    def n(self) -> int:
        return len(self.one_line)

    def __call__(self, i: int) -> int:
        """The image of i; ValueError unless i is an int in 1..n, as in from_cycle."""
        if type(i) is int and 0 < i <= len(self.one_line):
            return self.one_line[i - 1]
        raise ValueError(f"{i} is not in 1..{len(self.one_line)}")

    @classmethod
    def from_cycle(cls, cycle, n: int | None = None) -> "Permutation":
        """Permutation acting as the given cycle, fixing everything else.

        ValueError if an entry is not an int in 1..n, or repeats."""
        cycle = tuple(cycle)
        size = max(cycle) if n is None else n
        in_range = all(type(v) is int and 0 < v <= size for v in cycle)
        if not in_range or len(set(cycle)) < len(cycle):
            raise ValueError(f"cycle {cycle} is not of distinct ints in 1..{size}")
        images = list(range(1, size + 1))
        for pos, v in enumerate(cycle):
            images[v - 1] = cycle[(pos + 1) % len(cycle)]
        return cls(tuple(images))

    def inverse(self) -> "Permutation":
        images = [0] * self.n
        for i, v in enumerate(self.one_line, start=1):
            images[v - 1] = i
        return Permutation(tuple(images))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(x) = self(other(x))."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return Permutation(tuple(self(other(i)) for i in range(1, self.n + 1)))

    def cycle_from(self, start: int = 1) -> tuple[int, ...]:
        """Cycle notation of a full-cycle permutation, starting at `start`."""
        out = [start]
        j = self(start)
        while j != start:
            out.append(j)
            j = self(j)
        if len(out) != self.n:
            raise NotACycle(f"{self.one_line} has more than one cycle")
        return tuple(out)

    def right_cyclic_descents(self) -> tuple[int, ...]:
        """Positions i with sigma_i > sigma_{i+1}, index a+b wrapping to 1."""
        n = self.n
        return tuple(
            i for i in range(1, n + 1) if self.one_line[i - 1] > self.one_line[i % n]
        )

    def exceedance_positions(self) -> tuple[int, ...]:
        return tuple(i for i in range(1, self.n + 1) if self(i) > i)

    def exceedance_values(self) -> tuple[int, ...]:
        return tuple(self(i) for i in self.exceedance_positions())


def standardize(values) -> Permutation:
    """Relative-order permutation of a sequence of distinct integers."""
    values = tuple(values)
    if len(set(values)) != len(values):
        raise ValueError(f"values not distinct: {values}")
    rank = {v: i for i, v in enumerate(sorted(values), start=1)}
    return Permutation(tuple(rank[v] for v in values))


# ---------------------------------------------------------------------------
# Dyck paths


class DyckPath(_Value):
    """Lattice path of a norths and b easts staying weakly above y = (a/b)x."""

    __match_args__ = ("a", "b", "steps")

    def __init__(self, a: int, b: int, steps: str):
        _check_dimensions(a, b)
        if not isinstance(steps, str):
            raise ValueError("steps must be a string")
        if steps.strip(NORTH + EAST):
            raise PathParseError(steps, len(steps) - len(steps.lstrip(NORTH + EAST)))
        if math.gcd(a, b) != 1:
            raise NotCoprime(f"gcd({a}, {b}) != 1")
        if len(steps) != a + b or steps.count(NORTH) != a:
            raise WrongStepCounts(f"need {a} N and {b} E steps, got {steps!r}")
        # the level y*b - x*a of every point must stay non-negative
        rise = {NORTH: b, EAST: -a}.__getitem__
        levels = tuple(accumulate(map(rise, steps), initial=0))
        if min(levels) < 0:
            walked = steps[: next(i for i, v in enumerate(levels) if v < 0)]
            raise BelowDiagonal((walked.count(EAST), walked.count(NORTH)))
        _setattr(self, "a", a)  # not __dict__.update: see _setattr
        _setattr(self, "b", b)
        _setattr(self, "steps", steps)
        _setattr(self, "_levels", levels)

    # the base's equality and hash, spelled out: paths are the hot dict
    # keys, and the base's attrgetter calls make == up to twice as slow
    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.a, self.b, self.steps) == (other.a, other.b, other.steps)
        return NotImplemented

    def __hash__(self):
        return hash((self.a, self.b, self.steps))

    def __str__(self) -> str:
        return self.steps

    @property
    def length(self) -> int:
        return self.a + self.b

    def points(self) -> tuple[tuple[int, int], ...]:
        """The a+b+1 lattice points visited, in path order."""
        heights = accumulate((s == NORTH for s in self.steps), initial=0)
        return tuple((i - y, y) for i, y in enumerate(heights))

    def visits(self, x: int, y: int) -> bool:
        """Whether (x, y) is the path's (x+y)-th point, told by its level;
        ValueError unless both coordinates are ints, as in level_point."""
        if type(x) is not int or type(y) is not int:
            raise ValueError(f"coordinates must be ints, got ({x!r}, {y!r})")
        a, b = self.a, self.b
        return 0 <= x <= b and 0 <= y <= a and self._levels[x + y] == y * b - x * a

    def levels(self) -> tuple[int, ...]:
        """Level y*b - x*a of every lattice point, in path order."""
        return self._levels

    def reading_word(self) -> tuple[int, ...]:
        """Levels read southwest to northeast, final 0 excluded."""
        return self._levels[:-1]

    def reverse_reading_word(self) -> tuple[int, ...]:
        """Levels read northeast to southwest, final 0 excluded."""
        return self._levels[:0:-1]

    def north_levels(self) -> tuple[int, ...]:
        """Levels of points starting north steps, in decreasing order."""
        return tuple(sorted(_start_levels(self, NORTH), reverse=True))

    def east_levels(self) -> tuple[int, ...]:
        """Levels of points starting east steps, in decreasing order."""
        return tuple(sorted(_start_levels(self, EAST), reverse=True))

    def north_columns(self) -> tuple[int, ...]:
        """Column of the north step in each row, bottom row first."""
        return tuple(accumulate(map(len, self.steps.split(NORTH)[:-1])))

    def east_rows(self) -> tuple[int, ...]:
        """Height of the east step in each column, leftmost column first."""
        return tuple(accumulate(map(len, self.steps.split(EAST)[:-1])))

    def bounded_partition(self) -> Partition:
        """Partition formed by the boxes above the path (trailing zeros dropped)."""
        return Partition(self.north_columns()[::-1]).trimmed()

    def positive_hooks(self) -> tuple[int, ...]:
        """Positive grid values of boxes below the path, largest first.

        These are the first-column hook lengths of the corresponding core.
        """
        # in row y, the boxes right of the north step in column c have
        # values y*b - (c+1)*a, falling by a per column while positive
        a, b = self.a, self.b
        cols = enumerate(self.north_columns())
        rows = (range(y * b - (c + 1) * a, 0, -a) for y, c in cols)
        return tuple(sorted(chain.from_iterable(rows), reverse=True))

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "steps": self.steps}

    @classmethod
    def from_json(cls, data: dict) -> "DyckPath":
        return cls(data["a"], data["b"], data["steps"])


def _start_levels(path: DyckPath, step: str) -> Iterator[int]:
    """Levels of the points that start `step` steps, in path order."""
    return compress(path._levels, path.steps.encode().translate(_MASKS[step]))


def make_path(a: int, b: int, steps: str) -> DyckPath:
    """Validated constructor for :class:`DyckPath`."""
    return DyckPath(a, b, steps)


def lowest_path(a: int, b: int) -> DyckPath:
    """The area-0 path hugging the diagonal."""
    _check_dimensions(a, b)
    return _path_from_north_columns(a, b, (j * b // a for j in range(a)))


def full_path(a: int, b: int) -> DyckPath:
    """N^a E^b, the path containing every box above the diagonal."""
    _check_dimensions(a, b)
    return DyckPath(a, b, NORTH * a + EAST * b)


def _path_from_north_columns(a: int, b: int, cols) -> DyckPath:
    """The path whose north step in row y sits at column cols[y]; columns not
    rising weakly from 0 to b give too many easts, so WrongStepCounts."""
    cols = (0, *cols, b)
    return DyckPath(a, b, NORTH.join(EAST * (c - x) for x, c in zip(cols, cols[1:])))


def path_from_bounded_partition(a: int, b: int, parts) -> DyckPath:
    """The path whose bounded partition is the given one.  Partition.padded
    rejects more than a rows, and DyckPath a row that crosses the diagonal
    (BelowDiagonal) or is longer than b (WrongStepCounts)."""
    _check_dimensions(a, b)
    if not isinstance(parts, Partition):
        parts = Partition(parts)
    return _path_from_north_columns(a, b, parts.padded(a).parts[::-1])


def path_from_hooks(a: int, b: int, hooks) -> DyckPath:
    """The path whose set of positive hooks is exactly `hooks`; ValueError
    for any other set of integers."""
    _check_dimensions(a, b)
    wanted = frozenset(hooks)
    if not set(map(type, wanted)) <= {int} or min(wanted, default=1) < 1:
        raise ValueError("hooks must be positive integers")
    cols = []
    for row in range(a):
        col = 0
        while True:
            v = box_value(a, b, col, row)
            if v <= 0 or v in wanted:
                break
            col += 1
        cols.append(col)
    try:
        path = _path_from_north_columns(a, b, cols)
        if frozenset(path.positive_hooks()) == wanted:
            return path
    except WrongStepCounts:  # the scan's columns fell back: no path has these hooks
        pass
    raise ValueError(f"{sorted(wanted)} is not a valid hook set for ({a},{b})")


def sigma(path: DyckPath) -> Permutation:
    """Reading permutation: standardization of the reading word."""
    return standardize(path.reading_word())


def tau(path: DyckPath) -> Permutation:
    """Reverse reading permutation: standardization of the reverse word."""
    return standardize(path.reverse_reading_word())


def gamma(path: DyckPath) -> Permutation:
    """The cycle whose cycle notation, started at 1, lists sigma's one-line."""
    return Permutation(_gamma_one_line(path))


def _gamma_one_line(path: DyckPath) -> tuple[int, ...]:
    """gamma's one-line as a raw tuple: the rank of each reading-word entry
    sent to the rank of the entry after it, cyclically."""
    word = path.reading_word()
    rank = {v: r for r, v in enumerate(sorted(word), start=1)}
    return tuple(rank[v] for _, v in sorted(zip(word, word[1:] + word[:1])))


def _descent_word(values) -> str:
    """E at each right cyclic descent of the sequence, N elsewhere."""
    return "".join(
        EAST if u > v else NORTH for u, v in zip(values, values[1:] + values[:1])
    )


def _path_from_cycle(a: int, b: int, g) -> DyckPath | None:
    """The path whose cycle, in one-line notation, is the raw tuple g.

    Reads the cycle of g from 1 and puts east steps at its cyclic descents.
    Returns None when g has more than one cycle; a word that is not an
    (a,b)-Dyck path raises WrongStepCounts or BelowDiagonal.
    """
    n = a + b
    cycle = [1] * n
    j = g[0]
    for i in range(1, n):
        if j == 1:
            return None
        cycle[i] = j
        j = g[j - 1]
    return DyckPath(a, b, _descent_word(cycle))


@lru_cache(maxsize=_TABLE_CACHE_SIZE, typed=True)  # a cached (1, b) never answers (True, b)
def enumerate_paths(a: int, b: int) -> tuple[DyckPath, ...]:
    """All (a,b)-Dyck paths in lexicographic step order with N < E.

    A path is its north columns c_0 <= ... <= c_(a-1) with c_y <= yb/a,
    and N < E orders the words as it orders these columns.  So they are
    counted like an odometer: the last column below its bound goes up by
    one, and every later column drops to it.  No recursion, so no depth
    limit.  prefixes[y] is the word up to row y's north step, and a turn
    rebuilds only the rows that moved.
    """
    _check_coprime(a, b)
    bounds = [y * b // a for y in range(a)]
    cols = [0] * a
    prefixes = [NORTH * (y + 1) for y in range(a)]
    out = []
    while True:
        out.append(DyckPath(a, b, prefixes[-1] + EAST * (b - cols[-1])))
        y = a - 1
        while y and cols[y] == bounds[y]:
            y -= 1
        if not y:  # column 0 is bounded by 0
            return tuple(out)
        col = cols[y] + 1
        prefix = prefixes[y - 1] + EAST * (col - cols[y - 1])
        for row in range(y, a):
            cols[row] = col
            prefix += NORTH
            prefixes[row] = prefix


def rational_catalan_number(a: int, b: int) -> int:
    """(1/(a+b)) * C(a+b, a), exact."""
    _check_coprime(a, b)
    binom = math.comb(a + b, a)
    if binom % (a + b) != 0:
        raise InternalInvariantError(f"C({a + b}, {a}) is not divisible by {a + b}")
    return binom // (a + b)


def conjugate(path: DyckPath) -> DyckPath:
    """Conjugate path: the word cut at its highest point, turned half a turn.

    Read from the point of maximal level, which is unique, the word stays
    strictly below the diagonal inside; reversing it turns it half a turn
    back above.  The result's positive hooks are {m - n : n in {0..m} \\ H}
    for the path's hooks H with maximum m, the complement rule the tests
    check it against.  The area-0 path is its own conjugate.
    """
    word = path.reading_word()
    cut = word.index(max(word))
    return DyckPath(path.a, path.b, (path.steps[cut:] + path.steps[:cut])[::-1])


def flip(path: DyckPath) -> DyckPath:
    """Reflect an (a,b)-path across the diagonal into a (b,a)-path."""
    swapped = path.steps.translate(str.maketrans({NORTH: EAST, EAST: NORTH}))
    return DyckPath(path.b, path.a, swapped[::-1])


def reverse(path: DyckPath) -> DyckPath:
    """Square-case reversal: bounds the conjugate of the bounded partition."""
    if path.b != path.a + 1:
        raise NotSquareCase(f"({path.a}, {path.b}) is not (n, n+1)")
    return path_from_bounded_partition(path.a, path.b, path.bounded_partition().conjugate())


def star_product(first: DyckPath, second: DyckPath) -> DyckPath:
    """Cut `first` at its unique highest level and infix `second` there."""
    lv = first.levels()
    top = max(lv)
    if lv.count(top) != 1:  # coprime levels repeat only at the two ends
        raise InternalInvariantError(f"maximal level {top} repeats in {first}")
    cut = lv.index(top)
    word = first.steps[:cut] + second.steps + first.steps[cut:]
    return DyckPath(first.a + second.a, first.b + second.b, word)


def predecessor(path: DyckPath) -> DyckPath:
    """Remove the box under the unique peak farthest from the diagonal.

    Swaps that peak's NE corner to EN, replacing the maximal level m by
    m - a - b in the reading word and dropping the area by exactly 1.
    """
    word = path.reading_word()
    m = max(word)
    if m <= path.a + path.b:
        raise AreaZero(f"{path} has no box to remove")
    i = word.index(m)
    steps = path.steps
    if steps[i - 1] != NORTH or steps[i] != EAST:
        raise InternalInvariantError(f"maximal level of {path} is not at a peak")
    new = steps[: i - 1] + EAST + NORTH + steps[i + 1 :]
    return DyckPath(path.a, path.b, new)
