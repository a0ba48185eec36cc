"""The pair inverse iota, zeta_inverse and the closed forms it is checked
against, chi, and the special families."""

from __future__ import annotations

import math
import random
import re
from itertools import chain, combinations
from operator import add
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings

import rational_dyck as rd
from rational_dyck import bounce, cli, inverse, maps
from rational_dyck.bounce import search_delta_traces
from rational_dyck.errors import (
    BelowDiagonal,
    DimensionTooSmall,
    InconsistentPair,
    InternalInvariantError,
    InvalidValleyIndex,
    Level1NotVisited,
    MethodDisagreement,
    NotACycle,
    NotADyckPath,
    NotCoprime,
    NotFussCase,
    NotSquareCase,
    TooManyBoxes,
    WrongStepCounts,
)
from rational_dyck.inverse import level_point
from rational_dyck.paths import EAST, NORTH, _path_from_cycle

from conftest import (
    chi_kth_valley_by_boxes,
    chi_level1_by_boxes,
    coprime_pairs,
    cycle_lemma_path,
    cycle_lemma_paths,
    justified_by_boxes,
    kth_valley_by_boxes,
    northwest_rect,
    search_preimage,
    southeast_hat,
)


class TestPairGamma:
    def test_running_example(self, running):
        q, r = rd.zeta(running), rd.eta(running)
        g = rd.pair_gamma(q, r)
        assert g.cycle_from(1) == (1, 3, 7, 12, 9, 13, 11, 8, 5, 10, 6, 4, 2)
        assert g == rd.gamma(running)

    def test_matches_gamma_exhaustive(self):
        for a, b in coprime_pairs(10):
            for p in rd.enumerate_paths(a, b):
                assert rd.pair_gamma(rd.zeta(p), rd.eta(p)) == rd.gamma(p)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            rd.pair_gamma(rd.lowest_path(2, 3), rd.lowest_path(3, 4))

    def test_trivial_pair_is_cyclic(self):
        q = rd.full_path(2, 3)
        g = rd.pair_gamma(q, q)
        assert len(g.cycle_from(1)) == g.n
        assert rd.iota(q, q) == rd.lowest_path(2, 3)


class TestIota:
    def test_running_example(self, running):
        assert rd.iota(rd.zeta(running), rd.eta(running)) == running

    def test_exhaustive_round_trip(self):
        for a, b in coprime_pairs(11):
            for p in rd.enumerate_paths(a, b):
                assert rd.iota(rd.zeta(p), rd.eta(p)) == p

    def test_mismatched_pairs_classified(self):
        paths = rd.enumerate_paths(3, 5)
        successes = 0
        for q in paths:
            for r in paths:
                try:
                    rd.iota(q, r)
                    successes += 1
                except (NotACycle, NotADyckPath, InconsistentPair):
                    pass
        assert successes == len(paths)  # exactly the admissible pairs

    def test_error_classes_on_every_4_7_pair(self):
        paths = rd.enumerate_paths(4, 7)
        counts = {"ok": 0, NotACycle: 0, InconsistentPair: 0, NotADyckPath: 0}
        for q in paths:
            for r in paths:
                try:
                    rd.iota(q, r)
                    counts["ok"] += 1
                except (NotACycle, NotADyckPath, InconsistentPair) as exc:
                    counts[type(exc)] += 1
        assert counts == {
            "ok": 30, NotACycle: 697, InconsistentPair: 167, NotADyckPath: 6
        }

    def test_round_trips_sort_the_decoded_path_once(self, sweep_builds, monkeypatch):
        # the zeta and the eta round trip read one sweep of the decoded path
        p = cycle_lemma_path(random.Random(7), 121, 173)
        q, r = rd.zeta(p), rd.eta(p)
        sweep_builds.clear()
        monkeypatch.setattr(maps, "_last_sweep", ("", ()))  # forget p's sweep
        decoded = rd.iota(q, r)
        assert sweep_builds == [decoded] and decoded == p

    def test_admissible_pair_area_matches(self):
        for a, b in coprime_pairs(9):
            for p in rd.enumerate_paths(a, b):
                assert rd.area(rd.zeta(p)) == rd.area(rd.eta(p))


class TestRoundTripsKeepBugs:
    """A swept word that is not a Dyck path is a bug wherever a round trip
    reads it, never a mismatch reported as InconsistentPair or NoPreimage."""

    @pytest.fixture
    def images(self, monkeypatch, running):
        q, r = rd.zeta(running), rd.eta(running)
        fuss = rd.zeta(rd.enumerate_paths(3, 7)[4])

        def below(path, eta=False):
            return EAST * path.b + NORTH * path.a

        monkeypatch.setattr(maps, "_swept_word", below)
        return q, r, fuss

    def test_iota(self, images):
        with pytest.raises(InternalInvariantError):
            rd.iota(images[0], images[1])

    # auto is zeta_inverse, value iteration; search and fuss are the chain
    # inverses, called directly
    @pytest.mark.parametrize("strategy", ("auto", "search", "fuss"))
    def test_zeta_inverse(self, images, strategy):
        invert = {
            "auto": rd.zeta_inverse,
            "search": search_delta_traces,
            "fuss": rd.zeta_inverse_fuss,
        }[strategy]
        q = images[2] if strategy == "fuss" else images[0]
        with pytest.raises(InternalInvariantError):
            invert(q)

    def test_dyck_invert_exits_3(self, images, capsys):
        q = images[0]
        argv = ["invert", "--a", "5", "--b", "8", "--path", q.steps, "--trace"]
        assert cli.main(argv) == 3
        assert "is not an (5,8)-Dyck path" in capsys.readouterr().err


class TestExceedances:
    def test_running(self, running):
        assert rd.exceedances_check(rd.zeta(running), rd.eta(running))

    def test_trivial(self):
        q = rd.full_path(2, 3)
        assert rd.exceedances_check(q, q)

    def test_exhaustive(self):
        for a, b in coprime_pairs(9):
            for p in rd.enumerate_paths(a, b):
                assert rd.exceedances_check(rd.zeta(p), rd.eta(p))


class TestZetaInverseDispatcher:
    def test_running_example(self, running):
        assert rd.zeta_inverse(rd.zeta(running)) == running

    def test_full_to_lowest(self):
        assert rd.zeta_inverse(rd.full_path(5, 8)) == rd.lowest_path(5, 8)

    def test_every_strategy_on_covered_inputs(self):
        # (4,5) is both a square and a Fuss case: every closed form applies
        p = rd.make_path(4, 5, "NNENEENEE")
        q = rd.zeta(p)
        table = {rd.zeta(x): x for x in rd.enumerate_paths(4, 5)}
        assert rd.zeta_inverse(q) == p
        assert rd.iota(q, rd.reverse(q)) == p
        assert rd.zeta_inverse_fuss(q) == p
        assert search_preimage(q)[0] == p
        assert table[q] == p

    def test_strategies_agree(self):
        for a, b in [(4, 7), (3, 8), (5, 6)]:
            for p in rd.enumerate_paths(a, b):
                q = rd.zeta(p)
                assert search_preimage(q)[0] == p

    def test_exhaustive_round_trip(self):
        for a, b in coprime_pairs(11):
            for p in rd.enumerate_paths(a, b):
                assert rd.zeta_inverse(rd.zeta(p)) == p

    def test_detailed_reports_strategy(self):
        result = rd.zeta_inverse_detailed(rd.zeta(rd.lowest_path(4, 5)))
        assert result.strategy == "levels"

    def test_forced_strategy_failure(self, running):
        # a (5,8) image missing the level-1 point: the level-1 closed form
        # refuses it, and value iteration still inverts it
        q = rd.zeta(running)
        assert not q.visits(*level_point(5, 8, 1))
        with pytest.raises(Level1NotVisited):
            rd.zeta_inverse_level1(q)
        assert rd.zeta_inverse(q) == running

    @pytest.mark.parametrize(
        "error",
        (
            InternalInvariantError("demo"),
            MethodDisagreement("zeta(demo)", {"cores": "x", "sweep": "y"}),
        ),
    )
    def test_auto_propagates_a_strategy_bug(self, monkeypatch, error):
        def broken(q):
            raise error

        monkeypatch.setattr(inverse, "_preimage_by_iteration", broken)
        with pytest.raises(type(error)):
            rd.zeta_inverse_detailed(rd.full_path(4, 5))

    def test_a_climb_past_ab_is_a_bug(self):
        # zeta is a bijection, so every Dyck path has a preimage whose levels
        # bound the climb; only a word that is no path, which DyckPath never
        # holds, lets the climb pass a*b
        below = SimpleNamespace(a=5, b=8, steps=EAST * 8 + NORTH * 5)
        with pytest.raises(InternalInvariantError, match=re.escape("passed a*b = 40")):
            rd.zeta_inverse_detailed(below)

    def test_a_scan_answer_that_fails_the_round_trip_is_refused(self, monkeypatch, running):
        # settled levels fix P's levels in Q's order, so a wrong answer is a bug
        monkeypatch.setattr(inverse, "_preimage_by_iteration", lambda q: running)
        with pytest.raises(InternalInvariantError, match="non-preimage"):
            rd.zeta_inverse_detailed(rd.full_path(5, 8))

    def test_a_scan_walk_that_spells_no_path_is_a_bug(self, monkeypatch):
        def misspelled(q):  # the walk reads Q's letters in the wrong order
            return rd.DyckPath(q.a, q.b, q.steps[::-1])

        monkeypatch.setattr(inverse, "_preimage_by_iteration", misspelled)
        with pytest.raises(InternalInvariantError, match="non-path") as caught:
            rd.zeta_inverse_detailed(rd.full_path(5, 8))
        assert isinstance(caught.value.__cause__, BelowDiagonal)

    def test_a_misspelled_settlement_is_refused_by_the_round_trip(self, monkeypatch):
        # the settled levels spell the lowest path; a speller that builds a
        # valid path, but the wrong one, is caught as a bug
        def misspelled(a, b, word):
            return rd.full_path(a, b)

        monkeypatch.setattr(inverse, "DyckPath", misspelled)
        with pytest.raises(InternalInvariantError, match="non-preimage"):
            rd.zeta_inverse_detailed(rd.full_path(5, 8))

    def test_colliding_spelled_positions_are_a_non_path(self, monkeypatch, capsys):
        # settled levels that are not a complete residue system (only a bug
        # makes them) leave a slot empty, so the short word fails DyckPath
        monkeypatch.setattr(inverse, "pow", lambda *args: 0, raising=False)
        with pytest.raises(InternalInvariantError, match="non-path") as caught:
            rd.zeta_inverse_detailed(rd.full_path(5, 8))
        assert isinstance(caught.value.__cause__, WrongStepCounts)
        argv = ["invert", "--a", "5", "--b", "8", "--path", rd.full_path(5, 8).steps]
        assert cli.main(argv) == 3
        assert "non-path" in capsys.readouterr().err

    def test_single_path_families_keep_the_table_label(self):
        for q in (rd.lowest_path(1, 4), rd.lowest_path(5, 1)):
            assert rd.zeta_inverse_detailed(q) == inverse.InversionResult(q, "table")

    def test_auto_moves_on_after_a_failed_precondition(self, monkeypatch):
        # zeta_inverse consults no closed form, so a failing one cannot stop it
        def failing(error):
            def closed_form(*args):
                raise error("demo")

            return closed_form

        for module, name, error in (
            (inverse, "square_gamma_shaded", NotSquareCase),
            (inverse, "zeta_inverse_level1", Level1NotVisited),
            (bounce, "zeta_inverse_fuss", NotFussCase),
            (bounce, "search_delta_traces", DimensionTooSmall),
        ):
            monkeypatch.setattr(module, name, failing(error))
        result = rd.zeta_inverse_detailed(rd.full_path(4, 5))
        assert result == inverse.InversionResult(rd.lowest_path(4, 5), "levels")


class TestValueIteration:
    def test_equals_the_table(self):
        # the label pins the route: the iteration, or Q itself when a or b is 1
        for a, b in coprime_pairs(13):
            label = "table" if 1 in (a, b) else "levels"
            for p in rd.enumerate_paths(a, b):
                q = rd.zeta(p)
                assert rd.zeta_inverse_detailed(q) == inverse.InversionResult(p, label)

    def test_residue_spelling_equals_the_cycle_decode(self):
        # the oracle settles the plain rounds itself, then walks the
        # successor cycle from the lowest level and reads its descents; every
        # path with a+b <= 14, then the probe images and the seeded chi paths
        small = (p for a, b in coprime_pairs(14, min_dim=2) for p in rd.enumerate_paths(a, b))
        seeded = (
            cycle_lemma_path(random.Random(f"chi/{a}/{b}"), a, b)
            for a, b in ((121, 173), (173, 121))
        )
        for p in chain(small, probe_images(), seeded):
            a, b = p.a, p.b
            q = rd.zeta(p)
            steps = [{NORTH: b, EAST: -a}[s] for s in q.steps]
            levels = list(range(a + b))
            while (moved := sorted(map(add, levels, steps))) != levels:
                levels = moved
            position = {v: i for i, v in enumerate(levels)}
            successors = [position[v + r] + 1 for v, r in zip(levels, steps)]
            decoded = _path_from_cycle(a, b, successors)
            assert inverse._preimage_by_iteration(q) == decoded == p

    @settings(deadline=None)
    @given(cycle_lemma_paths(max_sum=120))
    @example(cycle_lemma_path(random.Random("chi/121/173"), 121, 173))
    @example(cycle_lemma_path(random.Random("chi/173/121"), 173, 121))
    def test_round_trip_and_chi_at_random(self, p):
        q = rd.zeta(p)
        assert rd.zeta_inverse(q) == p
        image = rd.chi(q)
        assert rd.area(image) == rd.area(q)
        assert rd.chi(image) == q

    @pytest.mark.parametrize("a, b", ((120, 241), (60, 61)))
    def test_auto_inverts_fuss_and_square_images_at_scale(self, a, b):
        p = cycle_lemma_path(random.Random(f"levels/{a}/{b}"), a, b)
        q = rd.zeta(p)
        assert rd.zeta_inverse_detailed(q) == inverse.InversionResult(p, "levels")


def probe_images():
    """The twelve seeded probe images at a+b = 59 or 61 with 1/2 <= b/a <= 2,
    of which the delta recursion inverts only four within 30 s."""
    rng, images = random.Random(5), []
    while len(images) < 12:
        n = rng.choice((59, 61))
        a = rng.randrange(2, n - 1)
        b = n - a
        if math.gcd(a, b) == 1 and a <= 2 * b and b <= 2 * a:
            images.append(cycle_lemma_path(random.Random(rng.randrange(10**6)), a, b))
    return images


class TestTheClimb:
    """Both halves of the proof that the iteration ends, with the climb
    forced from round 0: every image comes back as its own preimage, and
    every word that is not a Dyck path, so has no preimage, climbs past
    a*b into the bug check that no Dyck path reaches.  Each round sorts
    once, so a patched sorted counts the rounds, and a call that runs past
    the proven bound (a+b)^2 + (a+b)*a*b fails instead of hanging."""

    @pytest.fixture
    def climb(self, monkeypatch):
        monkeypatch.setattr(inverse, "_plain_rounds", lambda n: 0)

    @pytest.fixture
    def iterate(self, monkeypatch):
        rounds = {}

        def counted(iterable):
            rounds["done"] += 1
            if rounds["done"] > rounds["bound"]:
                pytest.fail(f"the iteration ran past its {rounds['bound']} rounds")
            return sorted(iterable)

        def iterate(q):
            n = q.a + q.b
            rounds.update(done=0, bound=n * n + n * q.a * q.b)
            return inverse._preimage_by_iteration(q)

        monkeypatch.setattr(inverse, "sorted", counted, raising=False)
        return iterate

    def test_inverts_every_small_image(self, climb, iterate):
        for a, b in coprime_pairs(12):
            for p in rd.enumerate_paths(a, b):
                assert iterate(rd.zeta(p)) == p

    @pytest.mark.parametrize("p", probe_images(), ids=str)
    def test_inverts_the_probe_images(self, climb, iterate, p):
        assert iterate(rd.zeta(p)) == p

    @pytest.mark.parametrize("forced", (True, False), ids=("climb", "plain-first"))
    def test_refuses_every_word_that_is_not_a_path(self, monkeypatch, iterate, forced):
        if forced:
            monkeypatch.setattr(inverse, "_plain_rounds", lambda n: 0)
        refused = 0
        for a, b in coprime_pairs(10):
            paths = {p.steps for p in rd.enumerate_paths(a, b)}
            for norths in combinations(range(a + b), a):
                word = "".join(NORTH if i in norths else EAST for i in range(a + b))
                if word not in paths:
                    word_only = SimpleNamespace(a=a, b=b, steps=word)
                    with pytest.raises(InternalInvariantError, match=re.escape("passed a*b")):
                        iterate(word_only)
                    refused += 1
        assert refused == 803


# Seeded uniform paths beyond exhaustive enumeration; (17,13) has b < a and
# a bounce window of width 13.
SEARCH_PATHS = [
    cycle_lemma_path(random.Random(f"search/{a}/{b}/{i}"), a, b)
    for (a, b), draws in (((11, 13), 4), ((8, 19), 4), ((17, 13), 1))
    for i in range(draws)
]


class TestSearchAtScale:
    @pytest.mark.parametrize("p", SEARCH_PATHS, ids=str)
    def test_round_trip(self, p):
        assert search_preimage(rd.zeta(p))[0] == p


class TestChi:
    def test_chi_is_eta_of_preimage(self, running):
        q = rd.zeta(running)
        assert rd.chi(q) == rd.eta(running)
        assert rd.chi(q) == rd.zeta(rd.conjugate(running))

    def test_chi_sorts_the_preimage_once(self, sweep_builds, monkeypatch):
        # eta reads the sweep that zeta_inverse's round trip built
        p = cycle_lemma_path(random.Random(7), 121, 173)
        q = rd.zeta(p)
        sweep_builds.clear()
        monkeypatch.setattr(maps, "_last_sweep", ("", ()))  # forget p's sweep
        assert rd.chi(q) == rd.eta(p)
        assert len(sweep_builds) == 1 and sweep_builds[0] == p

    def test_involution_and_area_preserving(self):
        for a, b in coprime_pairs(9):
            for p in rd.enumerate_paths(a, b):
                q = rd.zeta(p)
                image = rd.chi(q)
                assert rd.area(image) == rd.area(q)
                assert rd.chi(image) == q


class TestSquareCase:
    def test_chi_is_reverse(self):
        for n in range(1, 6):
            for q in rd.enumerate_paths(n, n + 1):
                assert rd.chi(q) == rd.reverse(q)

    def test_inverse_via_reverse(self):
        for n in range(1, 6):
            for q in rd.enumerate_paths(n, n + 1):
                assert rd.zeta_inverse(q) == rd.iota(q, rd.reverse(q))

    def test_shaded_gamma_agrees_with_pair_gamma(self):
        for n in range(2, 7):
            for q in rd.enumerate_paths(n, n + 1):
                assert rd.square_gamma_shaded(q) == rd.pair_gamma(q, rd.reverse(q))

    def test_requires_square(self, running):
        with pytest.raises(NotSquareCase):
            rd.square_gamma_shaded(running)


class TestSplitDims:
    def test_values(self):
        assert rd.split_dims(5, 8) == (2, 3, 3, 5)
        assert rd.split_dims(2, 3) == (1, 1, 1, 2)
        for n in range(2, 9):
            assert rd.split_dims(n, n + 1) == (1, 1, n - 1, n)

    def test_defining_equations(self):
        for a, b in coprime_pairs(16, min_dim=2):
            a1, b1, a2, b2 = rd.split_dims(a, b)
            assert a1 * b - b1 * a == 1
            assert b2 * a - a2 * b == 1
            assert a1 + a2 == a and b1 + b2 == b
            assert 0 < a1 < a and 0 < b1 < b

    def test_too_small(self):
        with pytest.raises(DimensionTooSmall):
            rd.split_dims(1, 5)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            rd.split_dims(4, 6)


CLOSED_FORMS = {  # each entry point that takes a grid but no path
    "split_dims": rd.split_dims,
    "level_point": lambda a, b: level_point(a, b, 1),
    "kth_valley_path": lambda a, b: rd.kth_valley_path(a, b, 1),
    "chi_kth_valley": lambda a, b: rd.chi_kth_valley(a, b, 1),
    "justified": lambda a, b: rd.justified(a, b, 0),
}


class TestClosedFormDimensions:
    @pytest.mark.parametrize("name", CLOSED_FORMS)
    @pytest.mark.parametrize(
        "a, b, message",
        [
            pytest.param(0, 5, "a must be an int >= 1, got 0", id="0-5-positive"),
            pytest.param(-3, 2, "a must be an int >= 1, got -3", id="-3-2-positive"),
            pytest.param(2, -1, "b must be an int >= 1, got -1", id="2--1-positive"),
            pytest.param(2.0, 3, "a must be an int >= 1, got 2.0", id="2.0-3-integers"),
            pytest.param(True, 3, "a must be an int >= 1, got True", id="True-3-integers"),
        ],
    )
    def test_dimensions_checked_like_a_path(self, name, a, b, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            CLOSED_FORMS[name](a, b)

    @pytest.mark.parametrize("name", CLOSED_FORMS)
    def test_not_coprime(self, name):
        with pytest.raises(NotCoprime):
            CLOSED_FORMS[name](4, 6)

    @pytest.mark.parametrize("a, b", [(1, 2), (2, 1), (1, 1)])
    def test_a_coprime_pair_below_2_does_not_split(self, a, b):
        with pytest.raises(DimensionTooSmall):
            rd.split_dims(a, b)


class TestLevel1:
    def test_level_point(self):
        assert level_point(5, 8, 1) == (3, 2)
        assert level_point(5, 8, 27) == (1, 4)

    @pytest.mark.parametrize("level", [5.0, True])
    def test_level_that_is_not_an_int(self, level):
        # 5.0 gave (0.0, 1), and True the point of level 1
        with pytest.raises(ValueError, match="level must be an int"):
            level_point(3, 5, level)

    def test_lowest_visits_level1(self):
        for a, b in coprime_pairs(12, min_dim=2):
            x, y = level_point(a, b, 1)
            assert rd.lowest_path(a, b).visits(x, y)

    def test_gamma_splice(self):
        left = rd.make_path(2, 3, "NNEEE")
        right = rd.make_path(3, 5, "NNENEEEE")
        assert rd.gamma(left).cycle_from(1) == (1, 3, 5, 4, 2)
        assert rd.gamma(right).cycle_from(1) == (1, 3, 7, 5, 8, 6, 4, 2)
        star = rd.star_product(left, right)
        assert rd.gamma(star).cycle_from(1) == (1, 3, 6, 8, 12, 10, 13, 11, 9, 7, 5, 4, 2)

    def test_recursion_inverts_lowest(self):
        for a, b in coprime_pairs(10, min_dim=2):
            q = rd.zeta(rd.lowest_path(a, b))  # the full path, visits level 1?
            x, y = level_point(a, b, 1)
            if q.visits(x, y):
                assert rd.zeta_inverse_level1(q) == rd.lowest_path(a, b)

    def test_agreement_with_table(self):
        for a, b in coprime_pairs(11, min_dim=2):
            x, y = level_point(a, b, 1)
            for p in rd.enumerate_paths(a, b):
                q = rd.zeta(p)
                if q.visits(x, y):
                    assert rd.zeta_inverse_level1(q) == p

    def test_not_visiting_raises(self):
        q = rd.zeta(rd.make_path(5, 8, "NNNENEEENEEEE"))
        assert not q.visits(*level_point(5, 8, 1))
        with pytest.raises(Level1NotVisited):
            rd.zeta_inverse_level1(q)

    def test_recursion_keys_on_the_image_not_the_preimage(self):
        # visiting the level-1 point is not preserved by zeta: the (2,3)
        # full path misses (1,1) while its image visits it, and vice versa
        full, low = rd.full_path(2, 3), rd.lowest_path(2, 3)
        assert not full.visits(1, 1) and rd.zeta(full).visits(1, 1)
        assert low.visits(1, 1) and not rd.zeta(low).visits(1, 1)
        assert rd.zeta_inverse_level1(rd.zeta(full)) == full

    def test_chi_level1_agrees(self):
        for a, b in coprime_pairs(11, min_dim=2):
            x, y = level_point(a, b, 1)
            for q in rd.enumerate_paths(a, b):
                if q.visits(x, y):
                    assert rd.chi_level1(q) == rd.chi(q)

    def test_chi_level1_matches_the_box_sets(self):
        for a, b in coprime_pairs(16):
            for q in rd.enumerate_paths(a, b):
                if min(a, b) == 1 or q.visits(*level_point(a, b, 1)):
                    assert rd.chi_level1(q) == chi_level1_by_boxes(q)

    def test_chi_level1_splits_each_path_once(self, monkeypatch):
        splits, dims = [], []
        split, split_dims = inverse._split_at_level1, inverse.split_dims

        def counted_split(q):
            splits.append(q)
            return split(q)

        def counted_dims(a, b):
            dims.append((a, b))
            return split_dims(a, b)

        monkeypatch.setattr(inverse, "_split_at_level1", counted_split)
        monkeypatch.setattr(inverse, "split_dims", counted_dims)
        off_level1 = 0
        for q in rd.enumerate_paths(5, 8):
            try:
                rd.chi_level1(q)
            except Level1NotVisited:
                off_level1 += 1
        assert off_level1 and len(set(map(id, splits))) == len(splits)  # no path split twice
        assert len(dims) == len(splits)

    def test_rectangle_area_difference_is_level(self):
        # southeast minus northwest rectangle areas at any grid point
        for a, b in [(5, 8), (5, 13), (3, 4)]:
            for x in range(b + 1):
                for y in range(a + 1):
                    level = y * b - x * a
                    assert (b - x) * y - x * (a - y) == level


class TestKthValley:
    def test_q0_is_full_path(self):
        assert rd.kth_valley_path(5, 8, 0) == rd.full_path(5, 8)
        assert rd.chi_kth_valley(5, 8, 0) == rd.full_path(5, 8)

    def test_valley_levels_are_exactly_0_to_k(self):
        for a, b in coprime_pairs(20):
            for k in range(min(a, b)):
                qk = rd.kth_valley_path(a, b, k)
                levels = qk.levels()
                valley_levels = {
                    levels[i + 1]
                    for i in range(qk.length - 1)
                    if qk.steps[i : i + 2] == "EN"
                }
                valley_levels.add(0)  # the cyclic corner at the origin
                assert valley_levels == set(range(k + 1))

    def test_chi_matches_general_machinery(self):
        for a, b in coprime_pairs(20):
            for k in range(min(a, b)):
                qk = rd.kth_valley_path(a, b, k)
                assert rd.chi_kth_valley(a, b, k) == rd.chi(qk)

    def test_rows_match_the_box_sets(self):
        for a, b in coprime_pairs(16):
            for k in range(min(a, b)):
                assert rd.kth_valley_path(a, b, k) == kth_valley_by_boxes(a, b, k)
                assert rd.chi_kth_valley(a, b, k) == chi_kth_valley_by_boxes(a, b, k)

    def test_hat_region_areas_match(self):
        # the k-th valley image has the same area, level by level
        for a, b in [(5, 8), (5, 13)]:
            seen_v = set()
            seen_hat = set()
            for level in range(1, a):
                v = northwest_rect(a, b, level) - seen_v
                hat = southeast_hat(a, b, level) - seen_hat
                assert len(v) == len(hat)
                seen_v |= northwest_rect(a, b, level)
                seen_hat |= southeast_hat(a, b, level)

    def test_bad_k(self):
        # k runs below min(a, b): when a > b, the levels b..a-1 cannot all
        # be valleys
        for a, b in coprime_pairs(20):
            for k in (-1, *range(min(a, b), a + 1)):
                with pytest.raises(InvalidValleyIndex):
                    rd.kth_valley_path(a, b, k)
                with pytest.raises(InvalidValleyIndex):
                    rd.chi_kth_valley(a, b, k)

    @pytest.mark.parametrize("k", [1.0, True])
    def test_k_that_is_not_an_int(self, k):
        # 1.0 failed inside range and True passed as 1
        for fn in (rd.kth_valley_path, rd.chi_kth_valley):
            with pytest.raises(InvalidValleyIndex, match=re.escape(f"got {k!r}")):
                fn(3, 5, k)


class TestJustified:
    def test_running_example(self):
        lam, nu, p8 = rd.justified(5, 8, 8)
        assert lam.parts == (3, 2, 2, 1)
        assert nu.parts == (6, 2)
        assert rd.area(p8) == 8
        assert set(p8.positive_hooks()) == {1, 2, 3, 4, 6, 7, 9, 11}

    def test_zeta_and_chi_of_justified(self):
        for a, b in [(5, 8), (4, 7), (3, 5)]:
            for n in range((a - 1) * (b - 1) // 2 + 1):
                lam, nu, pn = rd.justified(a, b, n)
                q_lam = rd.path_from_bounded_partition(a, b, lam)
                q_nu = rd.path_from_bounded_partition(a, b, nu)
                assert rd.zeta(pn) == q_lam
                assert rd.eta(pn) == q_nu
                assert rd.chi(q_lam) == q_nu
                assert rd.zeta_inverse(q_lam) == pn

    def test_matches_the_box_sets(self):
        for a, b in coprime_pairs(16):
            for n in range((a - 1) * (b - 1) // 2 + 1):
                assert rd.justified(a, b, n) == justified_by_boxes(a, b, n)

    def test_too_many(self):
        with pytest.raises(TooManyBoxes):
            rd.justified(5, 8, 15)

    @pytest.mark.parametrize("n", [1.0, True])
    def test_n_that_is_not_an_int(self, n):
        # 1.0 failed as a partition part and True passed as 1
        with pytest.raises(TooManyBoxes, match=re.escape(f"got {n!r}")):
            rd.justified(3, 5, n)
