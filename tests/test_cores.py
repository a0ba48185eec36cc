"""Hook fillings, the path/core correspondence, and core-side skew length."""

from __future__ import annotations

import random
import re
from itertools import combinations_with_replacement

import pytest

import rational_dyck as rd
from rational_dyck.cores import CorePartition, a_columns, a_rows
from rational_dyck.errors import NotACore, NotCoprime
from rational_dyck.paths import Partition

from conftest import (
    coprime_pairs,
    cycle_lemma_path,
    hooks_by_boxes,
    northmost_values,
    positive_values,
    westmost_values,
)


@pytest.fixture
def core58(running):
    return rd.anderson(running)


class TestHookFilling:
    def test_corner_values(self):
        filling = rd.hook_filling(5, 8)
        assert filling.value(0, 4) == 27  # top-left box: ab - a - b
        assert filling.value(0, 1) == 3  # box northwest of the point (1, 1)
        assert filling.value(7, 0) == -40  # box with lower-right corner (8, 0)

    def test_box_value_equals_point_level(self):
        for a, b in coprime_pairs(9):
            filling = rd.hook_filling(a, b)
            for p in rd.enumerate_paths(a, b):
                for (x, y), lvl in zip(p.points(), p.levels()):
                    if 1 <= x <= b and 0 <= y <= a - 1:
                        assert filling.value(x - 1, y) == lvl

    def test_positive_values_distinct_and_counted(self):
        for a, b in coprime_pairs(12):
            vals = positive_values(a, b)
            assert len(vals) == len(set(vals)) == (a - 1) * (b - 1) // 2

    def test_requires_coprime(self):
        with pytest.raises(NotCoprime):
            rd.hook_filling(2, 4)

    @pytest.mark.parametrize(
        "a, b, message",
        [
            pytest.param(True, 3, "a must be an int >= 1, got True", id="True-3-integers"),
            pytest.param(2, False, "b must be an int >= 1, got False", id="2-False-integers"),
            pytest.param(2.0, 3, "a must be an int >= 1, got 2.0", id="2.0-3-integers"),
            pytest.param(0, 1, "a must be an int >= 1, got 0", id="0-1-positive"),
            pytest.param(-1, 2, "a must be an int >= 1, got -1", id="-1-2-positive"),
            pytest.param(3, -2, "b must be an int >= 1, got -2", id="3--2-positive"),
        ],
    )
    def test_dimensions_checked_like_a_path(self, a, b, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            rd.hook_filling(a, b)
        with pytest.raises(ValueError, match=re.escape(message)):
            rd.DyckPath(a, b, "")


class TestFillingBoxes:
    """Each filling's value takes an int pair naming a box it fills, and
    raises ValueError for anything else, as DyckPath.visits does."""

    @pytest.mark.parametrize(
        "col, row", [(1.5, 0), (True, 0), (0, 2.0), (0, False), (-1, 0), (5, 0), (0, 3), (0, -1)]
    )
    def test_hook_filling_needs_a_box_of_the_grid(self, col, row):
        # (1.5, 0) gave -7.5, (True, 0) was read as column 1, (0, 2.0) gave 7.0
        outside = r"^(col must be an int in 0\.\.4|row must be an int in 0\.\.2), got "
        with pytest.raises(ValueError, match=outside):
            rd.hook_filling(3, 5).value(col, row)

    @pytest.mark.parametrize("build", [rd.laser_filling, rd.row_length_filling])
    def test_path_fillings_need_a_box_they_fill(self, running, build):
        # a box they do not fill raised a bare KeyError, and (True, 0) read
        # the value of box (1, 0)
        filling = build(running)
        filled = filling.boxes()
        col, row = next(box for box in filled if box[0] == 1)
        unfilled = [(c, r) for c in range(-1, 9) for r in range(-1, 6) if (c, r) not in filled]
        bad = [(True, row), (1.0, row), (col, float(row)), (str(col), row), *unfilled]
        if row in (0, 1):
            bad.append((col, bool(row)))
        filling.value(col, row)  # the int pair is filled
        refused = r"^((col|row) must be an int|box .* is not filled)"
        for box in bad:
            with pytest.raises(ValueError, match=refused):
                filling.value(*box)


class TestPositiveHooks:
    def test_running(self, running):
        assert set(running.positive_hooks()) == {1, 2, 3, 4, 6, 7, 9, 11, 14}

    def test_lowest_empty(self):
        assert rd.lowest_path(5, 8).positive_hooks() == ()

    def test_full_path_all(self):
        full = rd.full_path(5, 8)
        assert list(full.positive_hooks()) == positive_values(5, 8)


class TestAnderson:
    def test_running_core(self, running, core58):
        assert core58.parts == (6, 4, 3, 2, 2, 1, 1, 1, 1)
        assert core58.leading_hooks() == running.positive_hooks()

    def test_lowest_empty_core(self):
        assert rd.anderson(rd.lowest_path(3, 7)).parts == ()

    def test_round_trip_exhaustive(self):
        for a, b in coprime_pairs(10):
            for p in rd.enumerate_paths(a, b):
                kappa = rd.anderson(p)
                assert kappa.leading_hooks() == p.positive_hooks()
                assert rd.anderson_inverse(kappa) == p

    def test_core_validation_rejects_forbidden_hooks(self):
        # (3,) considered as a (3,4)-core has a hook of length 3
        with pytest.raises(NotACore):
            CorePartition((3,), 3, 4)

    def test_core_json(self, core58):
        assert core58.to_json() == {"a": 5, "b": 8, "parts": [6, 4, 3, 2, 2, 1, 1, 1, 1]}
        assert CorePartition.from_json(core58.to_json()) == core58

    def test_only_trailing_zeros_are_dropped(self):
        assert CorePartition((1, 1, 0, 0), 3, 5).parts == (1, 1)
        with pytest.raises(ValueError):
            CorePartition((1, 0, 1), 3, 5)
        with pytest.raises(ValueError):
            CorePartition.from_json({"a": 3, "b": 5, "parts": [1, 0, 1]})

    def test_non_integer_parts_rejected(self):
        with pytest.raises(ValueError):
            CorePartition((1.5,), 2, 3)
        with pytest.raises(ValueError):
            CorePartition.from_json({"a": 2, "b": 3, "parts": [1.5]})
        with pytest.raises(ValueError):
            CorePartition.from_json({"a": 2.0, "b": 3, "parts": [1]})
        with pytest.raises(ValueError, match=re.escape("a must be an int >= 1, got True")):
            CorePartition.from_json({"a": True, "b": 3, "parts": []})

    @pytest.mark.parametrize("a, b", [(0, 1), (-3, 1), (1, 0), (2, -3)])
    def test_dimensions_must_be_positive(self, a, b):
        message = f"a must be an int >= 1, got {a}" if a < 1 else f"b must be an int >= 1, got {b}"
        with pytest.raises(ValueError, match=re.escape(message)):
            CorePartition((), a, b)


class TestHooksFromLeadingHooks:
    def test_against_the_box_scan(self):
        # every partition inside a 7x7 box: its hooks are at most 13, so it
        # is a (97,101)-core whatever m is asked about
        for parts in combinations_with_replacement(range(7, -1, -1), 7):
            hooks = hooks_by_boxes(parts)
            kappa = CorePartition(parts, 97, 101)
            for m in range(2, 10):
                if m in hooks:
                    with pytest.raises(NotACore):
                        CorePartition(parts, m, 97)
                    with pytest.raises(NotACore):
                        rd.boundary_boxes(kappa, m)
                else:
                    assert CorePartition(parts, m, 97).parts == kappa.parts
                    assert rd.boundary_boxes(kappa, m) == sum(h < m for h in hooks)

    @pytest.mark.parametrize("draw", ("running", "29,41"))
    def test_core_route_walks_no_box(self, draw, running, monkeypatch):
        def walk(*args):
            raise RuntimeError("a core's hooks were found box by box")

        p = running if draw == "running" else cycle_lemma_path(random.Random(draw), 29, 41)
        monkeypatch.setattr(Partition, "hook", walk)
        monkeypatch.setattr(Partition, "boxes", walk)
        rd.cross_check(p)
        kappa = rd.anderson(p)
        for m in (p.a, p.b):
            a_rows(kappa, m)
            a_columns(kappa, m)
            rd.boundary_boxes(kappa, m)
        rd.skew_length_core(kappa)
        rd.a_columns_skew(kappa)


class TestRowsAndBoundaries:
    def test_running_a_rows(self, core58):
        hooks = core58.leading_hooks()
        assert {hooks[r] for r in rd.a_rows(core58, 5)} == {14, 11, 7, 3}
        assert {hooks[r] for r in rd.a_rows(core58, 8)} == {14, 11, 9, 7, 4, 2}

    def test_running_boundaries(self, core58):
        assert rd.boundary_boxes(core58, 5) == 13
        assert rd.boundary_boxes(core58, 8) == 17

    def test_rows_boxes_equal_boundary(self):
        # boxes in the m-rows == boxes in the m-boundary
        for a, b in coprime_pairs(11):
            for p in rd.enumerate_paths(a, b):
                kappa = rd.anderson(p)
                for m in (a, b):
                    in_rows = sum(kappa.parts[r] for r in rd.a_rows(kappa, m))
                    assert in_rows == rd.boundary_boxes(kappa, m)

    def test_modulus_must_avoid_hooks(self, core58):
        with pytest.raises(NotACore):
            rd.a_rows(core58, 3)


class TestSkewLengthCore:
    def test_running_both_orders(self, core58):
        assert rd.skew_length_core(core58) == 10
        swapped = CorePartition(core58.parts, 8, 5)
        assert rd.skew_length_core(swapped) == 10

    def test_empty(self):
        assert rd.skew_length_core(CorePartition((), 3, 4)) == 0

    def test_order_independent_exhaustive(self):
        for a, b in coprime_pairs(10):
            for p in rd.enumerate_paths(a, b):
                kappa = rd.anderson(p)
                assert rd.skew_length_core(kappa) == rd.skew_length_core(
                    CorePartition(kappa.parts, b, a)
                )


class TestCoreConjugate:
    def test_complement_rule(self, core58):
        assert rd.core_conjugate(core58).leading_hooks() == (14, 9, 6, 4, 2, 1)

    def test_self_conjugate_staircase(self):
        # (2,1) is a self-conjugate (2,5)-core
        kappa = CorePartition((2, 1), 2, 5)
        assert rd.core_conjugate(kappa) == kappa

    def test_commutes_with_path_conjugation(self):
        for a, b in coprime_pairs(10):
            for p in rd.enumerate_paths(a, b):
                assert rd.anderson(rd.conjugate(p)) == rd.core_conjugate(rd.anderson(p))


class TestRowLengthFilling:
    def test_running_values(self, running):
        filling = rd.row_length_filling(running)
        assert filling.total() == 21
        assert sorted(westmost_values(filling)) == sorted((2, 6, 4, 1, 0))
        assert northmost_values(filling) == (4, 6, 3, 1, 2, 1, 0, 0)
        assert sum(westmost_values(filling)) == 13
        assert sum(northmost_values(filling)) == 17

    def test_lowest_all_zero(self):
        filling = rd.row_length_filling(rd.lowest_path(4, 5))
        assert filling.total() == 0

    def test_total_is_core_size(self):
        for a, b in coprime_pairs(10):
            for p in rd.enumerate_paths(a, b):
                assert rd.row_length_filling(p).total() == rd.anderson(p).size

    def test_values_match_core_row_lengths(self):
        for p in rd.enumerate_paths(3, 5):
            kappa = rd.anderson(p)
            filling = rd.row_length_filling(p)
            by_hook = dict(zip(kappa.leading_hooks(), kappa.parts))
            for col, row in filling.boxes():
                value = rd.hook_filling(3, 5).value(col, row)
                expected = by_hook[value] if value > 0 else 0
                assert filling.value(col, row) == expected

    def test_boundary_sums_match(self):
        for a, b in coprime_pairs(10):
            for p in rd.enumerate_paths(a, b):
                kappa = rd.anderson(p)
                filling = rd.row_length_filling(p)
                assert sum(westmost_values(filling)) == rd.boundary_boxes(kappa, a)
                assert sum(northmost_values(filling)) == rd.boundary_boxes(kappa, b)


class TestAColumns:
    def test_running(self, core58):
        assert rd.a_columns_skew(core58) == 10

    def test_empty(self):
        assert rd.a_columns_skew(CorePartition((), 3, 4)) == 0

    def test_equals_skew_length(self):
        for a, b in coprime_pairs(9):
            for p in rd.enumerate_paths(a, b):
                kappa = rd.anderson(p)
                assert rd.a_columns_skew(kappa) == rd.skew_length_core(kappa)
