"""The zeta and eta maps: four constructions, fillings, and relations."""

from __future__ import annotations

import importlib
import random
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest
from hypothesis import given, settings

import rational_dyck as rd
from rational_dyck import maps
from rational_dyck.cli import main
from rational_dyck.errors import BelowDiagonal, InternalInvariantError, MethodDisagreement
from rational_dyck.maps import (
    eta_via_cores,
    eta_via_intervals,
    eta_via_lasers,
    eta_via_sweep,
    zeta_via_cores,
    zeta_via_intervals,
    zeta_via_lasers,
    zeta_via_sweep,
)

from conftest import (
    coprime_pairs,
    cycle_lemma_path,
    cycle_lemma_paths,
    geometric_conjugate,
    interval_grid_sums,
    laser_filling_by_boxes,
    laser_value_by_intersection,
)

ZETA_METHODS = (zeta_via_cores, zeta_via_sweep, zeta_via_lasers, zeta_via_intervals)
ETA_METHODS = (eta_via_cores, eta_via_sweep, eta_via_lasers, eta_via_intervals)


class TestRunningExample:
    def test_lambda_mu(self, running):
        assert rd.lambda_partition(running).parts == (4, 3, 2, 1, 0)
        assert rd.mu_partition(running).parts == (3, 2, 2, 1, 1, 1, 0, 0)
        assert rd.mu_partition(running).conjugate().parts == (6, 3, 1)

    @pytest.mark.parametrize("method", ZETA_METHODS)
    def test_zeta_all_methods(self, running, method):
        assert method(running).steps == "NENENENENEEEE"

    @pytest.mark.parametrize("method", ETA_METHODS)
    def test_eta_all_methods(self, running, method):
        assert method(running).steps == "NNENEENEEENEE"

    def test_sweep_sorted_word(self, running):
        # sorted barred word: bars exactly on the east entries
        levels = running.levels()
        entries = sorted(
            (levels[i], running.steps[i]) for i in range(running.length)
        )
        assert [v for v, _ in entries] == [0, 5, 8, 10, 12, 15, 16, 17, 19, 20, 22, 24, 27]
        assert "".join(s for _, s in entries) == "NENENENENEEEE"

    def test_bar_positions_match_the_permutations(self):
        # forward bars sit at the cyclic descents of sigma, reverse bars at
        # the cyclic ascents of tau
        for a, b in coprime_pairs(9):
            for p in rd.enumerate_paths(a, b):
                n = p.length
                forward = {i + 1 for i in range(n) if p.steps[i] == "E"}
                assert forward == set(rd.sigma(p).right_cyclic_descents())
                backward = {i + 1 for i in range(n) if p.steps[n - 1 - i] == "E"}
                ascents = set(range(1, n + 1)) - set(rd.tau(p).right_cyclic_descents())
                assert backward == ascents


class TestLowestAndFull:
    def test_zeta_of_lowest_is_full(self):
        for a, b in coprime_pairs(10):
            low = rd.lowest_path(a, b)
            assert rd.cross_check(low) == (rd.full_path(a, b),) * 2

    def test_zeta_of_full_is_lowest(self):
        for a, b in coprime_pairs(10):
            assert rd.zeta(rd.full_path(a, b)) == rd.lowest_path(a, b)

    def test_four_constructions_agree_on_the_largest_core(self):
        # the full path's (61,89)-core has 1,227,600 boxes
        full = rd.full_path(61, 89)
        assert rd.cross_check(full) == (rd.lowest_path(61, 89),) * 2


class TestFourWayAgreement:
    def test_exhaustive(self):
        for a, b in coprime_pairs(11):
            for p in rd.enumerate_paths(a, b):
                rd.cross_check(p)

    @pytest.mark.parametrize("draw", ("running", "29,41"))
    def test_one_core_and_one_filling_per_path(self, draw, running, monkeypatch):
        maps_module = importlib.import_module("rational_dyck.maps")
        cores, fillings = [], []

        def counted_anderson(path):
            cores.append(path)
            return rd.anderson(path)

        class CountedFilling(rd.LaserFilling):
            def __init__(self, path):
                fillings.append(path)
                super().__init__(path)

        p = running if draw == "running" else cycle_lemma_path(random.Random(draw), 29, 41)
        monkeypatch.setattr(maps_module, "anderson", counted_anderson)
        monkeypatch.setattr(maps_module, "LaserFilling", CountedFilling)
        assert rd.cross_check(p) == (rd.zeta(p), rd.eta(p))
        assert cores == [p] and fillings == [p]

    def test_check_keyword_is_gone(self, running):
        for canonical in (rd.zeta, rd.eta):
            with pytest.raises(TypeError):
                canonical(running, check=True)


class TestCanonicalSweep:
    def test_lambda_mu_read_off_the_images(self):
        for a, b in coprime_pairs(11):
            for p in rd.enumerate_paths(a, b):
                lam = rd.zeta(p).bounded_partition().padded(a)
                mu = rd.eta(p).bounded_partition().conjugate().padded(b)
                assert lam == rd.lambda_partition(p)
                assert mu == rd.mu_partition(p)

    @pytest.mark.parametrize("method", (zeta_via_sweep, eta_via_sweep))
    def test_malformed_sweep_image_is_a_bug(self, running, method, monkeypatch):
        maps_module = importlib.import_module("rational_dyck.maps")

        def below(a, b, steps):
            raise BelowDiagonal((1, 0))

        monkeypatch.setattr(maps_module, "DyckPath", below)
        with pytest.raises(InternalInvariantError):
            method(running)

    @pytest.mark.parametrize("method", (zeta_via_cores, eta_via_lasers, zeta_via_intervals))
    def test_image_wrapper_catches_domain_errors_only(self, running, method, monkeypatch):
        maps_module = importlib.import_module("rational_dyck.maps")

        def raising(error):
            def build(a, b, parts):
                raise error

            return build

        monkeypatch.setattr(maps_module, "path_from_bounded_partition", raising(ValueError()))
        with pytest.raises(InternalInvariantError):
            method(running)
        monkeypatch.setattr(maps_module, "path_from_bounded_partition", raising(KeyError()))
        with pytest.raises(KeyError):
            method(running)

    def test_sweep_is_the_points_sorted_by_level(self):
        # the two sweeps by their definitions: zeta sorts the steps by start
        # level, rising, and eta by end level, falling
        seeded = [
            cycle_lemma_path(random.Random(f"sweep/{a}/{b}/{i}"), a, b)
            for a, b in ((121, 173), (173, 121))
            for i in range(3)
        ]
        every = [p for a, b in coprime_pairs(14) for p in rd.enumerate_paths(a, b)]
        for p in every + seeded:
            levels = p.levels()
            assert maps._sweep(p) == tuple(sorted(range(p.length), key=lambda i: levels[i]))
            assert rd.zeta(p).steps == by_start_level(p)
            assert rd.eta(p).steps == by_end_level(p)

    def test_maps_keep_no_attribute_on_a_path(self):
        # the sweep lives in the maps' one-entry memo, as a plain tuple: an
        # itemgetter kept there would be one more object for the garbage
        # collector to track
        kept = {"a", "b", "steps", "_levels"}
        seeded = cycle_lemma_path(random.Random("kept/121/173"), 121, 173)
        every = [p for a, b in coprime_pairs(10) for p in rd.enumerate_paths(a, b)]
        assert {(1, 1), (1, 2)} <= {(p.a, p.b) for p in every}
        for p in every + [seeded]:
            p = rd.make_path(p.a, p.b, p.steps)  # fresh
            rd.zeta(p), rd.eta(p)
            assert vars(p).keys() == kept, p
            word, sweep = maps._last_sweep
            assert word == p.steps and type(sweep) is tuple, p

    def test_zeta_and_eta_sort_a_path_once(self, sweep_builds):
        p = cycle_lemma_path(random.Random(7), 121, 173)
        rd.zeta(p), rd.eta(p)
        assert sweep_builds == [p]

    def test_the_memo_keeps_one_word(self, sweep_builds):
        # a second word replaces the first, which is sorted again
        p1, p2 = (cycle_lemma_path(random.Random(f"memo/{i}"), 29, 41) for i in range(2))
        assert p1 != p2
        assert rd.zeta(p1).steps == by_start_level(p1)
        assert rd.zeta(p2).steps == by_start_level(p2)
        assert rd.eta(p1).steps == by_end_level(p1)
        assert sweep_builds == [p1, p2, p1]

    def test_threads_sharing_the_memo_agree_with_the_definitions(self):
        # four threads map the same paths in interleaved orders, so each
        # call may find another thread's word in the memo
        paths = [cycle_lemma_path(random.Random(f"threads/{i}"), 29, 41) for i in range(24)]
        expected = [(by_start_level(p), by_end_level(p)) for p in paths]

        def mapped(shift):
            order = [(i * 5 + shift) % len(paths) for i in range(len(paths))]
            return [
                (i, rd.zeta(paths[i]).steps, rd.eta(paths[i]).steps)
                for _ in range(20)
                for i in order
            ]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(mapped, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for result in results:
            assert len(result) == 20 * len(paths)
            for i, zeta_word, eta_word in result:
                assert (zeta_word, eta_word) == expected[i], paths[i]


def by_start_level(p) -> str:
    """zeta's word by its definition: the steps sorted by start level, rising."""
    return "".join(step for _, step in sorted(zip(p.levels()[:-1], p.steps)))


def by_end_level(p) -> str:
    """eta's word by its definition: the steps sorted by end level, falling."""
    return "".join(step for _, step in sorted(zip(p.levels()[1:], p.steps), reverse=True))


# Seeded uniform paths far beyond exhaustive enumeration: only the sweep, at
# O((a+b) log(a+b)), makes the canonical maps cheap at these sizes.
LARGE_PATHS = [
    cycle_lemma_path(random.Random(f"{a},{b}/{i}"), a, b)
    for a, b in ((61, 89), (121, 173))
    for i in range(3)
]


class TestLargePaths:
    def test_sweep_matches_intervals(self):
        for p in LARGE_PATHS:
            assert rd.zeta(p) == zeta_via_intervals(p)
            assert rd.eta(p) == eta_via_intervals(p)

    def test_pair_inverse_round_trip(self):
        for p in LARGE_PATHS:
            assert rd.iota(rd.zeta(p), rd.eta(p)) == p

    def test_statistics_transport(self):
        for p in LARGE_PATHS:
            q = rd.zeta(p)
            assert rd.skew_length(p) == rd.coarea(q)
            assert rd.dinv(p) == rd.area(q)


class TestPropertiesAtScale:
    @settings(deadline=None)
    @given(cycle_lemma_paths())
    def test_pair_inverse_round_trip(self, p):
        assert rd.iota(rd.zeta(p), rd.eta(p)) == p

    @settings(deadline=None)
    @given(cycle_lemma_paths())
    def test_conjugate_is_the_geometric_involution(self, p):
        assert rd.conjugate(p) == geometric_conjugate(p)
        assert rd.conjugate(rd.conjugate(p)) == p

    @settings(deadline=None)
    @given(cycle_lemma_paths(max_sum=300))
    def test_sweep_matches_lasers(self, p):
        assert rd.zeta(p) == zeta_via_lasers(p)
        assert rd.eta(p) == eta_via_lasers(p)

    @settings(deadline=None, max_examples=50)
    @given(cycle_lemma_paths(max_sum=300))
    def test_check_runs_all_four_constructions(self, p):
        assert rd.cross_check(p) == (zeta_via_sweep(p), eta_via_sweep(p))

    @settings(deadline=None)
    @given(cycle_lemma_paths(max_sum=120))
    def test_sweep_matches_cores(self, p):
        assert zeta_via_cores(p) == zeta_via_sweep(p)
        assert eta_via_cores(p) == eta_via_sweep(p)
        kappa = rd.anderson(p)
        assert rd.skew_length_core(kappa) == rd.a_columns_skew(kappa) == rd.skew_length(p)


class TestLaserFilling:
    def test_running_values(self, running):
        filling = rd.laser_filling(running)
        assert filling.total() == 10
        values = [filling.value(*box) for box in filling.boxes()]
        assert sorted(values, reverse=True) == [2, 1, 1, 1, 1, 1, 1, 1, 1]
        assert sorted(filling.row_sums(), reverse=True) == [4, 3, 2, 1, 0]
        assert sorted(filling.column_sums(), reverse=True) == [3, 2, 2, 1, 1, 1, 0, 0]

    def test_lowest_all_zero(self):
        filling = rd.laser_filling(rd.lowest_path(3, 5))
        assert filling.total() == 0

    def test_against_rational_intersection_oracle(self):
        for a, b in coprime_pairs(10):
            for p in rd.enumerate_paths(a, b):
                filling = rd.laser_filling(p)
                for box in filling.boxes():
                    assert filling.value(*box) == laser_value_by_intersection(p, *box)

    def test_against_the_box_wise_scan(self):
        for a, b in coprime_pairs(14):
            for p in rd.enumerate_paths(a, b):
                values, rows, cols = laser_filling_by_boxes(p)
                filling = rd.laser_filling(p)
                assert filling.boxes() == tuple(sorted(values))
                assert {box: filling.value(*box) for box in values} == values
                assert filling.total() == sum(values.values())
                assert filling.row_sums() == rows
                assert filling.column_sums() == cols

    def test_total_is_skew_length(self):
        for a, b in coprime_pairs(10):
            for p in rd.enumerate_paths(a, b):
                assert rd.laser_filling(p).total() == rd.skew_length(p)


class TestIntervalGrid:
    def test_running_intervals(self, running):
        grid = rd.interval_grid(running)
        assert grid.north_intervals == ((0, 8), (8, 16), (12, 20), (16, 24), (19, 27))
        assert grid.east_intervals == (
            (0, 5), (5, 10), (10, 15), (12, 17), (15, 20), (17, 22), (19, 24), (22, 27),
        )

    def test_shading_types_are_disjoint_and_cover(self, running):
        grid = rd.interval_grid(running)
        nw, se = grid.northwest_shaded(), grid.southeast_shaded()
        for r in range(grid.a):
            for c in range(grid.b):
                assert not (nw[r][c] and se[r][c])
                assert grid.shaded[r][c] == (nw[r][c] or se[r][c])

    def test_shading_sits_on_the_right_side_of_the_diagonal(self):
        # northwest cells lie above the diagonal, southeast cells below
        for a, b in coprime_pairs(9):
            for p in rd.enumerate_paths(a, b):
                grid = rd.interval_grid(p)
                nw, se = grid.northwest_shaded(), grid.southeast_shaded()
                for r in range(a):
                    for c in range(b):
                        value = r * b - (c + 1) * a
                        if nw[r][c]:
                            assert value > 0
                        if se[r][c]:
                            assert value < 0

    def test_routes_match_the_grid_sums(self):
        for a, b in coprime_pairs(14):
            for p in rd.enumerate_paths(a, b):
                rows, cols = interval_grid_sums(p)
                # zeta's rows are the row sums; eta's columns, above the
                # path, are the column sums
                assert zeta_via_intervals(p).north_columns() == tuple(sorted(rows))
                heights = tuple(a - y for y in eta_via_intervals(p).east_rows())
                assert heights == tuple(sorted(cols, reverse=True))

    def test_lowest_path_grid(self):
        p = rd.lowest_path(2, 3)
        assert rd.zeta_via_intervals(p) == rd.full_path(2, 3)


class TestRelations:
    def test_eta_is_zeta_of_conjugate(self):
        for a, b in coprime_pairs(11):
            for p in rd.enumerate_paths(a, b):
                assert rd.eta(p) == rd.zeta(rd.conjugate(p))

    def test_flip_relations(self):
        for a, b in coprime_pairs(11):
            for p in rd.enumerate_paths(a, b):
                flipped = rd.flip(p)
                assert rd.zeta(flipped) == rd.flip(rd.eta(p))
                assert rd.eta(flipped) == rd.flip(rd.zeta(p))

    def test_skew_length_to_coarea(self):
        for a, b in coprime_pairs(11):
            for p in rd.enumerate_paths(a, b):
                q = rd.zeta(p)
                assert rd.skew_length(p) == rd.coarea(q)
                assert rd.dinv(p) == rd.area(q)


class TestCrossCheckDisagreement:
    """One construction that returns a different valid path for one map must
    trip cross_check, and through it ``dyck map --method all`` for either map."""

    @pytest.mark.parametrize("name", ("zeta", "eta"))
    @pytest.mark.parametrize("method", ("cores", "laser", "intervals"))
    def test_a_wrong_construction_is_reported(self, running, name, method, monkeypatch, capsys):
        constructions = importlib.import_module("rational_dyck.maps")._CONSTRUCTIONS
        images = rd.cross_check(running)
        which = ("zeta", "eta").index(name)
        wrong = rd.lowest_path(running.a, running.b)
        assert wrong != images[which]
        broken = tuple(wrong if i == which else q for i, q in enumerate(images))
        monkeypatch.setitem(constructions, method, lambda path: broken)

        with pytest.raises(MethodDisagreement) as info:
            rd.cross_check(running)
        assert info.value.name == f"{name}({running})"
        assert sorted(info.value.results) == ["cores", "intervals", "laser", "sweep"]
        assert info.value.results[method] == str(wrong)
        assert (rd.zeta(running), rd.eta(running)) == images

        for shown in ("zeta", "eta"):
            code = main([
                "map", "--a", "5", "--b", "8", "--path", running.steps,
                "--map", shown, "--method", "all",
            ])
            err = capsys.readouterr().err
            assert code == 3
            assert all(f"{m}=" in err for m in ("cores", "intervals", "laser", "sweep"))

    def test_the_first_map_that_disagrees_is_named(self, running, monkeypatch):
        constructions = importlib.import_module("rational_dyck.maps")._CONSTRUCTIONS
        wrong = rd.lowest_path(running.a, running.b)
        monkeypatch.setitem(constructions, "laser", lambda path: (wrong, wrong))
        with pytest.raises(MethodDisagreement) as info:
            rd.cross_check(running)
        assert info.value.name == f"zeta({running})"
