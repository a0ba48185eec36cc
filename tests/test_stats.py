"""Scalar statistics: area family, the five skew-length routes, dinv, delta."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

import rational_dyck as rd
from rational_dyck import stats
from rational_dyck.errors import InternalInvariantError
from rational_dyck.paths import NORTH

from conftest import (
    area_by_boxes,
    coprime_pairs,
    cycle_lemma_path,
    cycle_lemma_paths,
    dinv_by_boxes,
    skew_inversion_pairs,
)


# the attributes a path holds before any view is built
FIELDS = {"a", "b", "steps", "_levels"}


def all_paths(max_sum):
    for a, b in coprime_pairs(max_sum):
        yield from rd.enumerate_paths(a, b)


class TestAreaFamily:
    def test_running(self, running):
        assert rd.area(running) == 9
        assert rd.coarea(running) == 5
        assert rd.rank(running) == 2
        assert rd.core_rank(running) == 9

    def test_extremes(self):
        low, full = rd.lowest_path(5, 8), rd.full_path(5, 8)
        assert (rd.area(low), rd.coarea(low)) == (0, 14)
        assert (rd.area(full), rd.coarea(full), rd.rank(full)) == (14, 0, 0)

    def test_area_plus_coarea(self):
        for p in all_paths(11):
            assert rd.area(p) + rd.coarea(p) == (p.a - 1) * (p.b - 1) // 2

    def test_core_rank_is_core_row_count(self):
        for p in all_paths(9):
            assert rd.core_rank(p) == rd.anderson(p).rows

    def test_coarea_and_rank_against_the_bounded_partition(self):
        # coarea comes from the north levels and rank from the leading run
        # of N; the bounded partition is built from the north columns
        assert {(1, 13), (13, 1)} <= set(coprime_pairs(14))  # a = 1 and b = 1 families
        for p in all_paths(14):
            bounded = p.bounded_partition()
            assert rd.coarea(p) == bounded.size
            assert rd.rank(p) == len(bounded.trimmed())

    def test_coarea_builds_no_north_view(self):
        # a sum needs no order: coarea sums the north levels unsorted, and
        # neither it nor a read of the sorted north levels keeps anything
        for p in all_paths(14):
            fresh = rd.DyckPath(p.a, p.b, p.steps)
            size = p.bounded_partition().size
            assert rd.coarea(fresh) == size
            assert vars(fresh).keys() == FIELDS
            fresh.north_levels()
            assert rd.coarea(fresh) == size
            assert vars(fresh).keys() == FIELDS

    def test_a_north_view_off_the_lattice_is_a_bug(self):
        # the north levels sum to b*a(a-1)/2 less a multiple of a: corrupt
        # the level that starts the first north step
        p = rd.make_path(5, 8, "NNNENEEENEEEE")
        object.__setattr__(p, "_levels", (1, *p.levels()[1:]))  # 0 moved to 1
        with pytest.raises(InternalInvariantError, match="multiple of 5"):
            rd.coarea(p)


def rank_and_delta_by_walk(p):
    """Rows whose north step leaves column x > 0, and points before the
    last whose level y*b - x*a is below a + b, counted on a walk."""
    x = y = rank = delta = 0
    for s in p.steps:
        delta += y * p.b - x * p.a < p.a + p.b
        if s == NORTH:
            rank += x > 0
            y += 1
        else:
            x += 1
    return rank, delta


class TestAgainstDirectCounts:
    """area, core_rank, rank and delta, which visit no box, against counts
    that visit every box and point."""

    @staticmethod
    def check(p):
        area = area_by_boxes(p)
        assert (rd.area(p), rd.core_rank(p)) == (area, area)
        assert (rd.rank(p), rd.delta(p)) == rank_and_delta_by_walk(p)

    def test_exhaustive(self):
        for p in all_paths(14):
            self.check(p)

    @settings(deadline=None)
    @given(cycle_lemma_paths(max_sum=120))
    def test_large(self, p):
        self.check(p)


class TestSkewLength:
    def test_running_five_ways(self, running):
        assert rd.skew_length_peaks_valleys(running) == 10
        assert rd.skew_inversions(running) == 10
        assert rd.flip_skew_inversions(running) == 10
        assert rd.skew_length_core(rd.anderson(running)) == 10
        assert rd.laser_filling(running).total() == 10

    def test_running_peak_valley_breakdown(self, running):
        filling = rd.row_length_filling(running)
        points = running.points()
        peaks, valleys = [], []
        for i in range(running.length - 1):
            pair = running.steps[i : i + 2]
            x, y = points[i + 1]
            if pair == "NE":
                peaks.append(filling.value(x, y - 1))
            elif pair == "EN":
                valleys.append(filling.value(x, y - 1))
        assert sorted(peaks) == [2, 4, 6]
        assert sorted(valleys) == [0, 2]

    def test_lowest_zero(self):
        p = rd.lowest_path(4, 7)
        assert rd.skew_inversions(p) == rd.flip_skew_inversions(p) == 0
        assert rd.skew_length_peaks_valleys(p) == 0

    def test_all_methods_agree_exhaustive(self):
        for p in all_paths(12):
            sl = rd.skew_length(p)
            assert rd.skew_length_peaks_valleys(p) == sl
            assert rd.flip_skew_inversions(p) == sl
            assert rd.skew_length_core(rd.anderson(p)) == sl
            assert rd.laser_filling(p).total() == sl

    def test_invariance_under_conjugate_and_flip(self):
        for p in all_paths(12):
            sl = rd.skew_length(p)
            assert rd.skew_length(rd.conjugate(p)) == sl
            assert rd.skew_length(rd.flip(p)) == sl


class TestCoSkewAndDinv:
    def test_running(self, running):
        assert rd.co_skew_length(running) == 4
        assert rd.dinv(running) == 4

    def test_dinv_equals_co_skew(self):
        for p in all_paths(11):
            assert rd.dinv(p) == rd.co_skew_length(p)

    def test_dinv_equals_area_of_zeta(self):
        for p in all_paths(11):
            assert rd.dinv(p) == rd.area(rd.zeta(p))

    def test_full_path_cross_check(self):
        full = rd.full_path(5, 8)
        assert rd.dinv(full) == rd.area(rd.zeta(full))

    def test_dinv_matches_boxes_exhaustive(self):
        for p in all_paths(16):
            assert rd.dinv(p) == dinv_by_boxes(p)


class TestLevelFormsAtScale:
    """The level counts against the box and pair oracles, at sizes in the
    hundreds, and against the zeta transport of the paper."""

    @settings(deadline=None)
    @given(cycle_lemma_paths(max_sum=120))
    def test_against_oracles(self, p):
        assert rd.dinv(p) == dinv_by_boxes(p)
        assert rd.skew_inversions(p) == skew_inversion_pairs(p)

    @settings(deadline=None)
    @given(cycle_lemma_paths())
    def test_zeta_transport(self, p):
        q = rd.zeta(p)
        assert rd.dinv(p) == rd.area(q)
        assert rd.skew_length(p) == rd.coarea(q)


class TestDelta:
    def test_running(self, running):
        assert rd.delta(running) == 5

    def test_lowest(self):
        for a, b in [(2, 3), (5, 8), (1, 6), (4, 1)]:
            assert rd.delta(rd.lowest_path(a, b)) == a + b

    def test_full_58(self):
        assert rd.delta(rd.full_path(5, 8)) == 4  # levels {0, 8, 10, 5}

    def test_bounds(self):
        for p in all_paths(11):
            assert 1 <= rd.delta(p) <= p.a + p.b


class TestSummary:
    def test_running_schema(self, running):
        assert rd.statistics_summary(running) == {
            "area": 9,
            "coarea": 5,
            "rank": 2,
            "sl": 10,
            "slp": 4,
            "dinv": 4,
            "delta": 5,
        }

    def test_dinv_is_not_read_off_the_skew_length(self, monkeypatch):
        # dinv = slp holds, but the summary counts dinv on its own: a fault
        # in the skew inversions moves sl and slp and leaves dinv
        p = cycle_lemma_path(random.Random(7), 121, 173)
        expected = rd.statistics_summary(p)
        skew_inversions = stats._skew_inversions
        monkeypatch.setattr(stats, "_skew_inversions", lambda *levels: skew_inversions(*levels) + 1)
        summary = rd.statistics_summary(p)
        assert summary["sl"] == expected["sl"] + 1 and summary["slp"] == expected["slp"] - 1
        assert {k: v for k, v in summary.items() if k not in ("sl", "slp")} == {
            k: v for k, v in expected.items() if k not in ("sl", "slp")
        }

    def test_large_path_matches_oracles(self):
        p = cycle_lemma_path(random.Random(7), 121, 173)
        bounded = p.bounded_partition()
        sl = skew_inversion_pairs(p)
        expected = {
            "area": (p.a - 1) * (p.b - 1) // 2 - bounded.size,
            "coarea": bounded.size,
            "rank": len(bounded.trimmed()),
            "sl": sl,
            "slp": (p.a - 1) * (p.b - 1) // 2 - sl,
            "dinv": dinv_by_boxes(p),
            "delta": sum(1 for v in p.reading_word() if v < p.a + p.b),
        }
        summary = rd.statistics_summary(p)
        assert summary == expected
        assert list(summary) == list(expected)


    def test_summary_keeps_nothing_on_the_path(self):
        # the summary shares dinv's sort of the east levels and one pick of
        # the north levels, but no list outlives the call: the path holds
        # its fields and levels only, and each statistic equals the one
        # computed alone
        seeded = (
            cycle_lemma_path(random.Random(f"summary/{a}/{b}/{i}"), a, b)
            for a, b in ((121, 173), (173, 121))
            for i in range(4)
        )
        for p in (*all_paths(14), *seeded):
            fresh = rd.DyckPath(p.a, p.b, p.steps)
            summary = rd.statistics_summary(fresh)
            assert vars(fresh).keys() == FIELDS
            alone = {
                "area": rd.area(p),
                "coarea": rd.coarea(p),
                "rank": rd.rank(p),
                "sl": rd.skew_length(p),
                "slp": rd.co_skew_length(p),
                "dinv": rd.dinv(p),
                "delta": rd.delta(p),
            }
            assert list(summary.items()) == list(alone.items())
