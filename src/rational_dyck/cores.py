"""Simultaneous core partitions and the hook machinery on the grid.

A simultaneous (a,b)-core is a partition none of whose boxes has hook
length a or b.  For coprime a, b these are in bijection with (a,b)-Dyck
paths: the first-column hooks of the core are exactly the positive hook
values under the path.  The row with first-column hook h has the hooks h - g
for the g in [0, h) that are not first-column hooks (James-Kerber 2.7), so
no function here walks the boxes.
"""

from __future__ import annotations

from bisect import bisect_left

from .errors import NotACore
from .paths import DyckPath, Partition, _Value, _check_coprime, _check_int, box_value, path_from_hooks

__all__ = [
    "HookFilling",
    "CorePartition",
    "RowLengthFilling",
    "hook_filling",
    "anderson",
    "anderson_inverse",
    "a_rows",
    "a_columns",
    "boundary_boxes",
    "skew_length_core",
    "core_conjugate",
    "row_length_filling",
    "a_columns_skew",
]


class HookFilling(_Value):
    """The integer filling of the a x b grid of boxes.

    The box whose lower-right lattice point is p carries level(p); values
    grow by a per box west and b per box north, and the box is above the
    main diagonal exactly when its value is positive.
    """

    __match_args__ = ("a", "b")

    def __init__(self, a: int, b: int):
        _check_coprime(a, b)
        self.__dict__.update(a=a, b=b)

    def value(self, col: int, row: int) -> int:
        """ValueError unless col and row are ints naming a box of the grid."""
        _check_int("col", col, 0, self.b - 1)
        _check_int("row", row, 0, self.a - 1)
        return box_value(self.a, self.b, col, row)


def hook_filling(a: int, b: int) -> HookFilling:
    return HookFilling(a, b)


class CorePartition(_Value):
    """A partition with no hook of length a or b, for coprime a and b."""

    __match_args__ = ("parts", "a", "b")

    def __init__(self, parts: tuple[int, ...], a: int, b: int):
        _check_coprime(a, b)
        parts = Partition(parts).parts  # validated, so zeros trail
        parts = parts[: len(parts) - parts.count(0)]
        last = len(parts) - 1
        hooks = tuple(p + last - i for i, p in enumerate(parts))
        # _leading_hooks is not a field: no eq or hash
        self.__dict__.update(parts=parts, a=a, b=b, _leading_hooks=hooks)
        _require_no_hook(self, a)
        _require_no_hook(self, b)

    @property
    def partition(self) -> Partition:
        return Partition(self.parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    @property
    def rows(self) -> int:
        return len(self.parts)

    def leading_hooks(self) -> tuple[int, ...]:
        """First-column hook lengths, largest first."""
        return self._leading_hooks

    def to_json(self) -> dict:
        return {"a": self.a, "b": self.b, "parts": list(self.parts)}

    @classmethod
    def from_json(cls, data: dict) -> "CorePartition":
        return cls(data["parts"], data["a"], data["b"])


def _require_no_hook(kappa: CorePartition, m: int) -> None:
    """Raise NotACore if some box of the core has hook length m: that is,
    if some leading hook h >= m has h - m outside the leading hooks."""
    hooks = kappa.leading_hooks()
    members = set(hooks)
    for row, h in enumerate(hooks):
        if h >= m and h - m not in members:
            raise NotACore(f"row {row} of {kappa.parts} has a hook of length {m}")


def _hooks_below(kappa: CorePartition, rows, m: int) -> list[int]:
    """The number of hooks less than m in each of the given rows: row i
    has parts[i] hooks h - g, one per g in [0, h) outside the leading hooks,
    and loses those with g < h - m + 1."""
    hooks = kappa.leading_hooks()
    rising = hooks[::-1]
    out = []
    for i in rows:
        lo = max(hooks[i] - m + 1, 0)
        out.append(kappa.parts[i] - lo + bisect_left(rising, lo))
    return out


def anderson(path: DyckPath) -> CorePartition:
    """The (a,b)-core whose leading hooks are the path's positive hooks.

    The row with the i-th smallest leading hook h has length h - (i - 1).
    """
    hooks = path.positive_hooks()  # largest first
    last = len(hooks) - 1
    return CorePartition(tuple(h - last + i for i, h in enumerate(hooks)), path.a, path.b)


def anderson_inverse(kappa: CorePartition) -> DyckPath:
    """The path whose positive hooks are the core's leading hooks."""
    try:
        return path_from_hooks(kappa.a, kappa.b, kappa.leading_hooks())
    except ValueError as exc:
        raise NotACore(str(exc)) from exc


def a_rows(kappa: CorePartition, m: int) -> tuple[int, ...]:
    """Rows carrying the largest leading hook in each residue class mod m;
    ValueError unless m is a positive int."""
    _check_int("m", m, 1)
    if m not in (kappa.a, kappa.b):  # construction checked a and b
        _require_no_hook(kappa, m)
    best: dict[int, int] = {}
    for row, h in enumerate(kappa.leading_hooks()):
        best.setdefault(h % m, row)  # hooks are listed largest first
    return tuple(sorted(best.values()))


def a_columns(kappa: CorePartition, m: int) -> tuple[int, ...]:
    """Columns carrying the largest first-row hook per residue class mod m:
    column j of the core is row j of its conjugate, with the same hooks."""
    return a_rows(core_conjugate(kappa), m)


def boundary_boxes(kappa: CorePartition, m: int) -> int:
    """Number of boxes with hook length less than m; ValueError unless m
    is a positive int."""
    _check_int("m", m, 1)
    if m not in (kappa.a, kappa.b):  # construction checked a and b
        _require_no_hook(kappa, m)
    return sum(_hooks_below(kappa, range(kappa.rows), m))


def skew_length_core(kappa: CorePartition) -> int:
    """Boxes lying in the a-rows and the b-boundary of the core."""
    return sum(_hooks_below(kappa, a_rows(kappa, kappa.a), kappa.b))


def a_columns_skew(kappa: CorePartition) -> int:
    """Boxes lying in the a-columns and the b-boundary of the core."""
    return skew_length_core(core_conjugate(kappa))


def core_conjugate(kappa: CorePartition) -> CorePartition:
    """Transpose of the core; hook lengths are preserved, so still a core."""
    return CorePartition(kappa.partition.conjugate().parts, kappa.a, kappa.b)


def _filled(values: dict[tuple[int, int], int], col, row) -> int:
    """The value of box (col, row) in a filling's values; ValueError
    unless col and row are ints naming a box it fills (a bool is not one,
    though True == 1 as a key)."""
    _check_int("col", col)
    _check_int("row", row)
    if (col, row) not in values:
        raise ValueError(f"box ({col}, {row}) is not filled")
    return values[col, row]


class RowLengthFilling:
    """Row lengths of the core, written into the boxes under the path.

    A box with positive value h gets h - p_h, where p_h counts the
    positive hooks of the path smaller than h; this equals the length of
    the core row with leading hook h.  Boxes on or below the diagonal get 0.
    """

    def __init__(self, path: DyckPath):
        self.path = path
        hooks = path.positive_hooks()
        rank = {h: i for i, h in enumerate(sorted(hooks))}
        values: dict[tuple[int, int], int] = {}
        for row, col0 in enumerate(path.north_columns()):
            for col in range(col0, path.b):
                v = box_value(path.a, path.b, col, row)
                values[(col, row)] = v - rank[v] if v > 0 else 0
        self._values = values

    def value(self, col: int, row: int) -> int:
        return _filled(self._values, col, row)

    def boxes(self) -> tuple[tuple[int, int], ...]:
        return tuple(sorted(self._values))

    def total(self) -> int:
        """Sum of all entries; equals the size of the core."""
        return sum(self._values.values())


def row_length_filling(path: DyckPath) -> RowLengthFilling:
    return RowLengthFilling(path)
