"""Path construction, level data, permutations, and structural operations."""

from __future__ import annotations

import copy
import functools
import gc
import importlib
import pickle
import pkgutil
import random
import re
import weakref
from itertools import combinations, combinations_with_replacement, permutations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rational_dyck as rd
from rational_dyck.errors import (
    AreaZero,
    BelowDiagonal,
    InternalInvariantError,
    NotCoprime,
    NotSquareCase,
    PathParseError,
    WrongStepCounts,
)
from rational_dyck.paths import (
    Partition,
    Permutation,
    _path_from_cycle,
    box_value,
    standardize,
)

from conftest import (
    brute_force_paths,
    conjugate_by_hooks,
    coprime_pairs,
    cycle_lemma_paths,
    first_point_below,
    geometric_conjugate,
    path_from_permutation,
    rotation_cycle,
)


class TestConstruction:
    def test_running_example_is_valid(self, running):
        assert (running.a, running.b) == (5, 8)

    def test_full_path_valid(self):
        rd.make_path(5, 8, "NNNNNEEEEEEEE")

    def test_first_step_east_rejected(self):
        with pytest.raises(BelowDiagonal) as err:
            rd.make_path(5, 8, "ENNNNNEEEEEEE")
        assert err.value.point == (1, 0)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            rd.make_path(2, 4, "NNEEEE")

    def test_wrong_counts(self):
        with pytest.raises(WrongStepCounts):
            rd.make_path(2, 3, "NNEE")
        with pytest.raises(WrongStepCounts):
            rd.make_path(2, 3, "NNNEE")

    def test_parse_error_offset(self):
        with pytest.raises(PathParseError) as err:
            rd.make_path(2, 3, "NNXEE")
        assert err.value.offset == 2

    def test_nonpositive_dims(self):
        with pytest.raises(ValueError):
            rd.DyckPath(0, 1, "E")

    def test_json_round_trip(self, running):
        assert rd.DyckPath.from_json(running.to_json()) == running
        assert running.to_json() == {"a": 5, "b": 8, "steps": "NNNENEEENEEEE"}

    def test_non_string_steps(self):
        with pytest.raises(ValueError):
            rd.DyckPath(2, 3, ["N", "E", "N", "E", "E"])

    def test_json_non_integer_dims_rejected(self):
        with pytest.raises(ValueError):
            rd.DyckPath.from_json({"a": 2.5, "b": 3, "steps": "NENEE"})
        # bool is a subclass of int, but True is no dimension
        with pytest.raises(ValueError, match=re.escape("a must be an int >= 1, got True")):
            rd.DyckPath.from_json({"a": True, "b": 2, "steps": "NEE"})


class TestValidation:
    def test_every_word_up_to_12(self):
        # accepts exactly the brute-force paths, and names every rejection
        for a, b in coprime_pairs(12):
            valid = brute_force_paths(a, b)
            accepted = set()
            for letters in product("NE", repeat=a + b):
                word = "".join(letters)
                try:
                    accepted.add(rd.DyckPath(a, b, word).steps)
                except WrongStepCounts:
                    assert word.count("N") != a, word
                except BelowDiagonal as err:
                    assert word.count("N") == a, word
                    assert err.point == first_point_below(a, b, word), word
            assert accepted == valid, (a, b)

    def test_first_bad_character_is_reported(self):
        rng = random.Random(6)
        for a, b in coprime_pairs(12):
            for _ in range(20):
                word = [rng.choice("NE") for _ in range(a + b)]
                spots = rng.sample(range(a + b), rng.randint(2, min(4, a + b)))
                for i in spots:
                    word[i] = rng.choice("Xn e\n.?")
                with pytest.raises(PathParseError) as err:
                    rd.DyckPath(a, b, "".join(word))
                assert err.value.offset == min(spots)
        with pytest.raises(PathParseError) as err:
            rd.DyckPath(2, 3, "XNEEY")
        assert err.value.offset == 0
        with pytest.raises(PathParseError) as err:
            rd.DyckPath(2, 3, "NENE?")
        assert err.value.offset == 4


class TestLevels:
    def test_running_levels(self, running):
        assert running.levels() == (0, 8, 16, 24, 19, 27, 22, 17, 12, 20, 15, 10, 5, 0)

    def test_lowest_23_levels(self):
        assert rd.make_path(2, 3, "NENEE").levels() == (0, 3, 1, 4, 2, 0)

    def test_full_58_levels(self):
        full = rd.full_path(5, 8)
        assert full.levels() == (0, 8, 16, 24, 32, 40, 35, 30, 25, 20, 15, 10, 5, 0)

    def test_reading_words(self, running):
        assert running.reading_word() == (0, 8, 16, 24, 19, 27, 22, 17, 12, 20, 15, 10, 5)
        assert running.reverse_reading_word() == (0, 5, 10, 15, 20, 12, 17, 22, 27, 19, 24, 16, 8)

    def test_words_same_multiset(self):
        for a, b in coprime_pairs(9):
            for p in rd.enumerate_paths(a, b):
                assert sorted(p.reading_word()) == sorted(p.reverse_reading_word())

    def test_interior_levels_distinct(self):
        for a, b in coprime_pairs(9):
            for p in rd.enumerate_paths(a, b):
                inner = p.levels()[1:-1]
                assert len(set(inner)) == len(inner)
                assert p.levels()[0] == p.levels()[-1] == 0

    def test_north_east_levels_running(self, running):
        assert running.north_levels() == (19, 16, 12, 8, 0)
        assert running.east_levels() == (27, 24, 22, 20, 17, 15, 10, 5)

    def test_north_east_levels_full(self):
        full = rd.full_path(5, 8)
        assert set(full.north_levels()) == {0, 8, 16, 24, 32}
        assert set(full.east_levels()) == {40 - 5 * k for k in range(8)}

    def test_north_east_levels_lowest_23(self):
        p = rd.lowest_path(2, 3)
        assert p.steps == "NENEE"
        assert set(p.north_levels()) == {0, 1}
        assert set(p.east_levels()) == {2, 3, 4}

    def test_partition_sizes(self):
        for a, b in coprime_pairs(10):
            for p in rd.enumerate_paths(a, b):
                assert len(p.north_levels()) == a
                assert len(p.east_levels()) == b


VIEWS = (
    "points",
    "levels",
    "reading_word",
    "reverse_reading_word",
    "north_levels",
    "east_levels",
    "north_columns",
    "east_rows",
    "bounded_partition",
    "positive_hooks",
)


def walked_points(p):
    """The lattice points of p, walked step by step."""
    x = y = 0
    points = [(0, 0)]
    for s in p.steps:
        x, y = (x, y + 1) if s == "N" else (x + 1, y)
        points.append((x, y))
    return tuple(points)


def views_by_definition(p):
    """Every view of p, read off its walked points and its steps."""
    a, b = p.a, p.b
    points = walked_points(p)
    levels = tuple(y * b - x * a for x, y in points)
    starts = tuple(zip(points, p.steps))
    columns = tuple(x for (x, _), s in starts if s == "N")
    hooks = (
        box_value(a, b, col, row)
        for row in range(a)
        for col in range(columns[row], b)
    )
    return {
        "points": points,
        "levels": levels,
        "reading_word": levels[:-1],
        "reverse_reading_word": tuple(reversed(levels))[:-1],
        "north_levels": tuple(
            sorted((y * b - x * a for (x, y), s in starts if s == "N"), reverse=True)
        ),
        "east_levels": tuple(
            sorted((y * b - x * a for (x, y), s in starts if s == "E"), reverse=True)
        ),
        "north_columns": columns,
        "east_rows": tuple(y for (_, y), s in starts if s == "E"),
        "bounded_partition": Partition(tuple(reversed(columns))).trimmed(),
        "positive_hooks": tuple(sorted((h for h in hooks if h > 0), reverse=True)),
    }


def read_views(p):
    return {name: getattr(p, name)() for name in VIEWS}


class TestViews:
    def test_every_path_up_to_12(self):
        for a, b in coprime_pairs(12):
            for p in rd.enumerate_paths(a, b):
                assert read_views(p) == views_by_definition(p), p

    @settings(deadline=None)
    @given(cycle_lemma_paths(max_sum=300))
    def test_at_scale(self, p):
        assert read_views(p) == views_by_definition(p)

    def test_visits(self):
        for a, b in coprime_pairs(10):
            for p in rd.enumerate_paths(a, b):
                points = set(p.points())
                for x in range(-2, b + 3):
                    for y in range(-2, a + 3):
                        assert p.visits(x, y) == ((x, y) in points), (p, x, y)

    @pytest.mark.parametrize("x,y", [(True, 1), (1, True), (1.0, 1), (1, 1.0)])
    def test_visits_needs_int_coordinates(self, x, y):
        # a bool read as 0 or 1, and a float failed to index the levels
        with pytest.raises(ValueError, match=r"^[xy] must be an int, got (True|1\.0)$"):
            rd.DyckPath(2, 3, "NENEE").visits(x, y)

    @given(cycle_lemma_paths(max_sum=60))
    def test_read_views_keep_equality_hash_copy_and_pickle(self, p):
        views = read_views(p)
        fresh = rd.DyckPath(p.a, p.b, p.steps)
        assert p == fresh and hash(p) == hash(fresh)
        for twin in (copy.copy(p), pickle.loads(pickle.dumps(p))):
            assert twin == p and hash(twin) == hash(p)
            assert read_views(twin) == views


class TestViewSemantics:
    """Nothing is cached on a path or a partition: every view is computed on
    each call, a path holds exactly its dimensions, word and levels after
    any call, and equality, hash and repr stay on the fields."""

    def test_no_call_leaves_an_attribute_on_a_path(self):
        kept = {"a", "b", "steps", "_levels"}

        def iota_round_trip(p):
            q, r = rd.zeta(p), rd.eta(p)
            return q, r, rd.iota(q, r)

        def chi_of_the_image(p):
            q = rd.zeta(p)
            return q, rd.chi(q)

        calls = {
            "zeta": rd.zeta,
            "eta": rd.eta,
            "cross_check": rd.cross_check,
            "iota": iota_round_trip,
            "chi": chi_of_the_image,
            "anderson": rd.anderson,
            "positive_hooks": lambda p: p.positive_hooks(),
            "north_columns": lambda p: p.north_columns(),
            "east_rows": lambda p: p.east_rows(),
            "bounded_partition": lambda p: p.bounded_partition(),
            "statistics_summary": rd.statistics_summary,
        }
        for a, b in coprime_pairs(10):
            for p in rd.enumerate_paths(a, b):
                for name, call in calls.items():
                    fresh = rd.DyckPath(p.a, p.b, p.steps)
                    out = call(fresh)
                    outs = out if isinstance(out, tuple) else (out,)
                    for path in (fresh, *(v for v in outs if isinstance(v, rd.DyckPath))):
                        assert vars(path).keys() == kept, (name, path)
            rd.bijectivity_report(a, b, unique_pair_scan=True)
            for p in rd.enumerate_paths(a, b):
                assert vars(p).keys() == kept, ("bijectivity_report", p)

    def test_a_read_path_equals_a_fresh_one(self):
        for p in rd.enumerate_paths(5, 8):
            fresh = rd.DyckPath(p.a, p.b, p.steps)
            read_views(p)
            assert p == fresh and hash(p) == hash(fresh) and repr(p) == repr(fresh)
        shape, fresh = Partition((4, 2, 1)), Partition((4, 2, 1))
        shape.conjugate()
        assert shape == fresh and hash(shape) == hash(fresh) and repr(shape) == repr(fresh)

    def test_fields_are_unchanged(self):
        assert list(rd.DyckPath.__match_args__) == ["a", "b", "steps"]
        assert list(Partition.__match_args__) == ["parts"]

    def test_no_module_uses_cached_property(self):
        for info in pkgutil.iter_modules(rd.__path__):
            module = importlib.import_module(f"rational_dyck.{info.name}")
            values = list(vars(module).values())
            assert not any(v is functools.cached_property for v in values), info.name
            for cls in (v for v in values if isinstance(v, type)):
                members = vars(cls).values()
                assert not any(isinstance(v, functools.cached_property) for v in members)


class TestPermutations:
    def test_sigma_tau_gamma_running(self, running):
        assert rd.sigma(running).one_line == (1, 3, 7, 12, 9, 13, 11, 8, 5, 10, 6, 4, 2)
        assert rd.tau(running).one_line == (1, 2, 4, 6, 10, 5, 8, 11, 13, 9, 12, 7, 3)
        assert rd.gamma(running).one_line == (3, 1, 7, 2, 10, 4, 12, 5, 13, 6, 8, 9, 11)
        assert rd.gamma(running).cycle_from(1) == (1, 3, 7, 12, 9, 13, 11, 8, 5, 10, 6, 4, 2)

    @pytest.mark.parametrize("cycle", [(1, 5), (0, 2), (2, 3, 2), (1.0, 2), (True, 2)])
    def test_from_cycle_rejects_entries_outside_or_repeated(self, cycle):
        with pytest.raises(ValueError, match=re.escape(f"cycle {cycle} ")):
            Permutation.from_cycle(cycle, n=3)

    def test_entries_outside_1_to_n_are_refused(self, running):
        # like from_cycle: 0 read the last entry, and a cycle from 0 never
        # closed; both calls are tried in that order so neither can hang
        g = rd.gamma(running)
        for i in (0, -1, g.n + 1):
            with pytest.raises(ValueError, match=re.escape(f"i must be an int in 1..13, got {i}")):
                g(i)
            message = f"start must be an int in 1..13, got {i}"
            with pytest.raises(ValueError, match=re.escape(message)):
                g.cycle_from(i)
        assert (g(1), g(g.n)) == (3, 11)

    @pytest.mark.parametrize("i", [True, 1.0])
    def test_entries_that_are_not_ints_are_refused(self, running, i):
        # True == 1 would start a cycle that from_cycle refuses
        g = rd.gamma(running)
        for name, call in (("i", g), ("start", g.cycle_from)):
            message = f"{name} must be an int in 1..13, got {i}"
            with pytest.raises(ValueError, match=re.escape(message)):
                call(i)

    def test_an_empty_cycle_needs_n(self):
        # with no n the size would be the largest entry, and there is none
        with pytest.raises(ValueError, match="the cycle is empty"):
            Permutation.from_cycle(())
        assert Permutation.from_cycle((), 3).one_line == (1, 2, 3)

    def test_descents_match_east_steps(self, running):
        assert rd.sigma(running).right_cyclic_descents() == (4, 6, 7, 8, 10, 11, 12, 13)

    def test_lowest_path_descents_at_east_positions(self):
        for a, b in coprime_pairs(9):
            p = rd.lowest_path(a, b)
            east = tuple(i + 1 for i, s in enumerate(p.steps) if s == "E")
            assert rd.sigma(p).right_cyclic_descents() == east

    def test_path_from_permutation_round_trip(self, running):
        assert path_from_permutation(rd.sigma(running), 5, 8) == running

    def test_path_from_permutation_exhaustive(self):
        for a, b in coprime_pairs(12):
            for p in rd.enumerate_paths(a, b):
                assert path_from_permutation(rd.sigma(p), a, b) == p

    def test_identity_wrong_descent_count(self):
        ident = Permutation((1, 2, 3, 4, 5))
        with pytest.raises(WrongStepCounts):
            path_from_permutation(ident, 2, 3)
        # identity has a single cyclic descent, so b = 1 works
        assert path_from_permutation(Permutation((1, 2, 3, 4)), 3, 1).steps == "NNNE"

    def test_cycle_decoder_inverts_gamma(self):
        for a, b in coprime_pairs(12):
            for p in rd.enumerate_paths(a, b):
                assert _path_from_cycle(a, b, rd.gamma(p).one_line) == p

    def test_cycle_decoder_rejects_two_cycles(self):
        # (1 2)(3 4 5)
        assert _path_from_cycle(2, 3, (2, 1, 4, 5, 3)) is None

    def test_compose_and_inverse(self):
        p = Permutation((2, 3, 1))
        q = Permutation((1, 3, 2))
        assert p.compose(q).one_line == (2, 1, 3)
        assert p.compose(p.inverse()) == Permutation((1, 2, 3))

    def test_rotation_cycle(self):
        rho = rotation_cycle(5, 1, 3)
        assert rho.one_line == (2, 3, 1, 4, 5)

    def test_empty_permutation_rejected(self):
        # no path has a + b = 0, and an empty one-line has no cycle from 1
        with pytest.raises(ValueError):
            Permutation(())
        with pytest.raises(ValueError):
            standardize(())

    @given(st.permutations(list(range(1, 8))))
    def test_standardize_of_permutation_is_itself(self, values):
        assert standardize(values).one_line == tuple(values)

    @given(st.lists(st.integers(-50, 50), min_size=1, max_size=9, unique=True))
    def test_standardize_preserves_relative_order(self, values):
        perm = standardize(values)
        for i in range(len(values)):
            for j in range(len(values)):
                assert (values[i] < values[j]) == (perm(i + 1) < perm(j + 1))


class TestBoundedPartition:
    def test_running(self, running):
        assert running.bounded_partition().parts == (4, 1)

    def test_full_path_empty(self):
        assert rd.full_path(5, 8).bounded_partition().parts == ()

    def test_zeta_image_example(self):
        p = rd.path_from_bounded_partition(5, 8, (4, 3, 2, 1, 0))
        assert p.steps == "NENENENENEEEE"

    def test_round_trip(self):
        for a, b in coprime_pairs(10):
            for p in rd.enumerate_paths(a, b):
                back = rd.path_from_bounded_partition(a, b, p.bounded_partition())
                assert back == p

    def test_does_not_fit(self):
        with pytest.raises(rd.DyckError):
            rd.path_from_bounded_partition(2, 3, (3, 1))

    def test_non_integer_part_rejected(self):
        with pytest.raises(ValueError):
            rd.path_from_bounded_partition(2, 3, (1.9,))


# The builders check nothing themselves: DyckPath and Partition reject what
# does not fit.  These tests write the builders' former checks out as
# oracles and require the same accept set.

FIT_PAIRS = [(2, 3), (3, 4), (3, 5), (4, 5), (2, 7), (4, 7)]
HOOK_PAIRS = [(3, 4), (3, 5), (4, 5), (2, 7), (5, 6)]


def fits_above_diagonal(a, b, parts):
    """At most a rows, and the row of length col at height row (counted
    from the bottom, zeros padded) has a*col <= b*row and col <= b."""
    if len(parts) > a:
        return False
    cols = (tuple(parts) + (0,) * (a - len(parts)))[::-1]
    return all(a * col <= b * row and col <= b for row, col in enumerate(cols))


class TestBuildersAgainstTheOldRules:
    def test_bounded_partition_fit_rule(self):
        for a, b in FIT_PAIRS:
            accepted = set()
            for rows in range(a + 2):
                for parts in combinations_with_replacement(range(b + 1, -1, -1), rows):
                    if fits_above_diagonal(a, b, parts):
                        path = rd.path_from_bounded_partition(a, b, parts)
                        assert path.bounded_partition() == Partition(parts).trimmed()
                        accepted.add(path)
                    else:
                        with pytest.raises((ValueError, BelowDiagonal, WrongStepCounts)):
                            rd.path_from_bounded_partition(a, b, parts)
            assert accepted == set(rd.enumerate_paths(a, b))

    def test_permutation_descent_count(self):
        pairs = {(a, b): brute_force_paths(a, b) for a, b in coprime_pairs(8)}
        for n in range(2, 8):
            for one_line in permutations(range(1, n + 1)):
                perm = Permutation(one_line)
                descents = perm.right_cyclic_descents()
                word = "".join("E" if i in descents else "N" for i in range(1, n + 1))
                for (a, b), valid in pairs.items():
                    if abs(a + b - n) > 1:
                        continue
                    if n != a + b or len(descents) != b:
                        expected = WrongStepCounts
                    else:
                        expected = word if word in valid else BelowDiagonal
                    try:
                        got = path_from_permutation(perm, a, b).steps
                    except rd.DyckError as err:
                        got = type(err)
                    assert got == expected, (one_line, a, b)

    def test_invalid_hook_sets_raise_value_error(self):
        invalid = 0
        for a, b in HOOK_PAIRS:
            valid = {frozenset(p.positive_hooks()) for p in rd.enumerate_paths(a, b)}
            values = rd.full_path(a, b).positive_hooks()
            for k in range(len(values) + 1):
                for hooks in combinations(values, k):
                    if frozenset(hooks) in valid:
                        assert set(rd.path_from_hooks(a, b, hooks).positive_hooks()) == set(hooks)
                        continue
                    invalid += 1
                    with pytest.raises(ValueError):  # a DyckError would escape it
                        rd.path_from_hooks(a, b, hooks)
        assert invalid == 1048

    def test_non_integer_hook_rejected(self):
        with pytest.raises(ValueError):
            rd.path_from_hooks(2, 3, [1.5])


class TestEnumeration:
    def test_small_counts(self):
        assert len(rd.enumerate_paths(2, 3)) == 2
        assert {p.steps for p in rd.enumerate_paths(2, 3)} == {"NNEEE", "NENEE"}
        assert len(rd.enumerate_paths(5, 8)) == 99
        assert len(rd.enumerate_paths(1, 7)) == 1

    def test_against_brute_force(self):
        for a, b in coprime_pairs(9):
            assert {p.steps for p in rd.enumerate_paths(a, b)} == brute_force_paths(a, b)

    def test_lexicographic_order(self):
        def key(word):
            return [0 if s == "N" else 1 for s in word]

        for a, b in [(3, 4), (2, 5), (4, 5)]:
            words = [p.steps for p in rd.enumerate_paths(a, b)]
            assert words == sorted(words, key=key)

    def test_count_formula(self):
        for a, b in coprime_pairs(13):
            assert len(rd.enumerate_paths(a, b)) == rd.rational_catalan_number(a, b)

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            rd.enumerate_paths(2, 4)

    @pytest.mark.parametrize(
        "a, b, message",
        [
            pytest.param(0, 1, "a must be an int >= 1, got 0", id="0-1-positive"),
            pytest.param(-3, 1, "a must be an int >= 1, got -3", id="-3-1-positive"),
            pytest.param(2, -1, "b must be an int >= 1, got -1", id="2--1-positive"),
            pytest.param(2.0, 3, "a must be an int >= 1, got 2.0", id="2.0-3-integers"),
            pytest.param(True, 2, "a must be an int >= 1, got True", id="True-2-integers"),
        ],
    )
    def test_dimensions_checked_like_a_path(self, a, b, message):
        rd.enumerate_paths(1, 2)  # a cached (1, 2) must not answer for (True, 2)
        with pytest.raises(ValueError, match=re.escape(message)):
            rd.enumerate_paths(a, b)
        with pytest.raises(ValueError, match=re.escape(message)):
            rd.rational_catalan_number(a, b)

    @pytest.mark.parametrize("a, b", [(2.0, 3), (3, 2.0)], ids=["float-a", "float-b"])
    @pytest.mark.parametrize(
        "build, rest",
        [
            pytest.param(name, rest, id=name)
            for name, rest in [
                ("full_path", ()),
                ("lowest_path", ()),
                ("path_from_bounded_partition", ((),)),
                ("path_from_hooks", ((),)),
            ]
        ],
    )
    def test_builders_check_dimensions_like_a_path(self, build, rest, a, b):
        with pytest.raises(ValueError, match=r"^[ab] must be an int >= 1, got 2\.0$"):
            getattr(rd, build)(a, b, *rest)

    def test_thin_pairs_deeper_than_the_recursion_limit(self):
        # a + b well past the interpreter's default limit of 1,000 frames
        (only,) = rd.enumerate_paths(1, 1200)
        assert only == rd.full_path(1, 1200)
        paths = rd.enumerate_paths(2, 1999)
        assert len(paths) == rd.rational_catalan_number(2, 1999) == 1000
        # the north step of row 1 moves one column east per path
        assert [p.north_columns() for p in paths] == [(0, c) for c in range(1000)]

    def test_an_evicted_pair_is_freed_without_the_collector(self):
        rd.enumerate_paths.cache_clear()
        enabled = gc.isenabled()
        gc.disable()
        try:
            path = weakref.ref(rd.enumerate_paths(5, 8)[0])
            assert path() is not None
            rd.enumerate_paths(4, 7)
            assert path() is None
        finally:
            if enabled:
                gc.enable()


class TestConjugate:
    def test_running_hooks(self, running):
        assert rd.conjugate(running).positive_hooks() == (14, 9, 6, 4, 2, 1)

    def test_lowest_fixed(self):
        p = rd.lowest_path(3, 4)
        assert rd.conjugate(p) == p

    def test_involution_exhaustive(self):
        for a, b in [(3, 4), (3, 5), (4, 5), (2, 7)]:
            for p in rd.enumerate_paths(a, b):
                assert rd.conjugate(rd.conjugate(p)) == p

    def test_against_geometric_oracle(self):
        for a, b in coprime_pairs(10):
            for p in rd.enumerate_paths(a, b):
                assert rd.conjugate(p) == geometric_conjugate(p)

    def test_against_the_hook_complement_rule(self):
        for a, b in coprime_pairs(12):
            for p in rd.enumerate_paths(a, b):
                assert rd.conjugate(p) == conjugate_by_hooks(p)

    @settings(deadline=None)
    @given(cycle_lemma_paths(max_sum=120))
    def test_hook_complement_rule_at_scale(self, p):
        assert rd.conjugate(p) == conjugate_by_hooks(p)


class TestFlipReverse:
    def test_flip_running_round_trip(self, running):
        flipped = rd.flip(running)
        assert (flipped.a, flipped.b) == (8, 5)
        assert rd.flip(flipped) == running

    def test_flip_full(self):
        assert rd.flip(rd.full_path(5, 8)) == rd.full_path(8, 5)

    def test_flip_skew_length_invariance(self):
        for p in rd.enumerate_paths(3, 5):
            assert rd.skew_length(rd.flip(p)) == rd.skew_length(p)

    def test_reverse_requires_square(self, running):
        with pytest.raises(NotSquareCase):
            rd.reverse(running)

    def test_reverse_staircase_fixed(self):
        q = rd.path_from_bounded_partition(4, 5, (3, 2, 1, 0))
        assert rd.reverse(q) == q

    def test_reverse_conjugates_partition(self):
        q = rd.path_from_bounded_partition(3, 4, (2, 0, 0))
        assert rd.reverse(q).bounded_partition().parts == (1, 1)

    def test_reverse_involution(self):
        for q in rd.enumerate_paths(4, 5):
            assert rd.reverse(rd.reverse(q)) == q


class TestStarProduct:
    def test_hand_spliced_example(self):
        left = rd.make_path(1, 2, "NEE")
        right = rd.make_path(1, 1, "NE")
        assert rd.star_product(left, right).steps == "NNEEE"

    def test_repeated_maximal_level_is_a_bug(self, monkeypatch):
        # the levels of a coprime path repeat only at its two ends, so a
        # second maximum means the level data is wrong
        left = rd.make_path(2, 3, "NNEEE")
        right = rd.make_path(1, 1, "NE")
        monkeypatch.setattr(rd.DyckPath, "levels", lambda self: (0, 3, 6, 6, 0))
        with pytest.raises(InternalInvariantError, match="repeats"):
            rd.star_product(left, right)

    def test_degenerate_dims_rejected_by_type(self):
        with pytest.raises(ValueError):
            rd.DyckPath(0, 2, "EE")

    def test_zeta_concatenation_over_splits(self):
        for a, b in coprime_pairs(12, min_dim=2):
            a1, b1, a2, b2 = rd.split_dims(a, b)
            for left in rd.enumerate_paths(a1, b1):
                for right in rd.enumerate_paths(a2, b2):
                    star = rd.star_product(left, right)
                    assert rd.zeta(star).steps == rd.zeta(left).steps + rd.zeta(right).steps


class TestPredecessor:
    def test_running_maximal_level(self, running):
        assert max(running.reading_word()) == 27
        pred = rd.predecessor(running)
        word = pred.reading_word()
        assert 27 not in word and 14 in word
        assert sorted(word) == sorted(
            v if v != 27 else 14 for v in running.reading_word()
        )

    def test_area_one_reaches_lowest(self):
        for a, b in [(2, 3), (3, 4)]:
            for p in rd.enumerate_paths(a, b):
                if rd.area(p) == 1:
                    assert rd.predecessor(p) == rd.lowest_path(a, b)

    def test_area_zero_raises(self):
        with pytest.raises(AreaZero):
            rd.predecessor(rd.lowest_path(3, 4))

    def test_step_invariants_exhaustive(self):
        for a, b in coprime_pairs(12):
            for p in rd.enumerate_paths(a, b):
                if rd.area(p) == 0:
                    continue
                pred = rd.predecessor(p)
                assert rd.area(pred) == rd.area(p) - 1
                assert rd.skew_length(pred) < rd.skew_length(p)

    def test_chain_length(self):
        for a, b in [(3, 5), (4, 5), (5, 8)]:
            current = rd.full_path(a, b)
            steps = 0
            while rd.area(current) > 0:
                nxt = rd.predecessor(current)
                assert rd.area(nxt) == rd.area(current) - 1
                assert rd.skew_length(nxt) < rd.skew_length(current)
                current = nxt
                steps += 1
            assert steps == (a - 1) * (b - 1) // 2
            assert current == rd.lowest_path(a, b)


SMALL_DIMS = [(2, 3), (3, 4), (3, 5), (4, 5), (2, 7), (5, 3), (4, 7)]


@st.composite
def random_paths(draw):
    a, b = draw(st.sampled_from(SMALL_DIMS))
    paths = rd.enumerate_paths(a, b)
    return draw(st.sampled_from(paths))


class TestRandomPathProperties:
    @given(random_paths())
    def test_involutions(self, p):
        assert rd.conjugate(rd.conjugate(p)) == p
        assert rd.flip(rd.flip(p)) == p

    @given(random_paths())
    def test_json_round_trip(self, p):
        assert rd.DyckPath.from_json(p.to_json()) == p

    @settings(deadline=None)
    @given(st.one_of(random_paths(), cycle_lemma_paths()))
    @example(rd.make_path(1, 7, "NEEEEEEE"))
    @example(rd.make_path(7, 1, "NNNNNNNE"))
    def test_level_bookkeeping(self, p):
        levels = p.levels()
        assert levels[0] == levels[-1] == 0
        assert set(p.north_levels()) | set(p.east_levels()) == set(levels[:-1])
        # the column of each north step and the row of each east step,
        # walked step by step
        x = y = 0
        columns, rows = [], []
        for s in p.steps:
            if s == "N":
                columns.append(x)
                y += 1
            else:
                rows.append(y)
                x += 1
        assert p.north_columns() == tuple(columns)
        assert p.east_rows() == tuple(rows)

    @given(random_paths())
    def test_zeta_round_trip(self, p):
        assert rd.zeta_inverse(rd.zeta(p)) == p


class TestPartitionType:
    def test_conjugate(self):
        assert Partition((4, 3, 2, 1, 0)).conjugate().parts == (4, 3, 2, 1)
        assert Partition(()).conjugate().parts == ()

    def test_invalid(self):
        with pytest.raises(ValueError):
            Partition((1, 2))
        with pytest.raises(ValueError):
            Partition((2, -1))

    def test_non_integer_parts_rejected(self):
        with pytest.raises(ValueError):
            Partition((3.7, 1))
        with pytest.raises(ValueError):
            Permutation((1.2, 2.9))

    def test_hooks(self):
        p = Partition((6, 4, 3, 2, 2, 1, 1, 1, 1))
        assert tuple(p.hook(i, 0) for i in range(9)) == (14, 11, 9, 7, 6, 4, 3, 2, 1)
        assert tuple(p.hook(0, j) for j in range(6)) == (14, 9, 6, 4, 2, 1)

    def test_legs_and_hooks_count_the_rows(self):
        for a, b in coprime_pairs(12):
            for path in rd.enumerate_paths(a, b):
                p = path.bounded_partition()
                for i, j in p.boxes():
                    leg = sum(1 for q in p.parts if q > j) - i - 1
                    assert p.leg(i, j) == leg
                    assert p.hook(i, j) == p.parts[i] - j + leg

    @given(st.lists(st.integers(0, 9), min_size=0, max_size=8))
    def test_conjugate_involution(self, parts):
        p = Partition(tuple(sorted(parts, reverse=True)))
        assert p.conjugate().conjugate() == p.trimmed()

    def test_pad_trim(self):
        p = Partition((3, 1))
        assert p.padded(4).parts == (3, 1, 0, 0)
        assert p.padded(4).trimmed() == p

    @pytest.mark.parametrize(
        "i, j",
        [(1, 2), (0, -1), (0, 5), (-1, 0), (2, 0), (0, 3), (True, 0), (0, True), (0.0, 1), (0, 1.0)],
    )
    def test_arm_leg_and_hook_need_a_box(self, i, j):
        # (1, 2) gave a hook of -2, (0, -1) a hook of 4 and (0, 5) an arm of
        # -3, while leg(0, 5) raised IndexError
        p = Partition((3, 1))
        for stat in (p.arm, p.leg, p.hook):
            with pytest.raises(ValueError, match=r"^[ij] must be an int in 0\.\.[0-2], got "):
                stat(i, j)

    def test_arm_leg_and_hook_of_every_box(self):
        p = Partition((3, 1))
        assert [(p.arm(i, j), p.leg(i, j), p.hook(i, j)) for i, j in p.boxes()] == [
            (2, 1, 4), (1, 0, 2), (0, 0, 1), (0, 0, 1)
        ]

    @pytest.mark.parametrize("length", [2.5, True, 4.0, "4", None])
    def test_padded_needs_an_int_length(self, length):
        # 2.5 raised TypeError, and True acted as 1
        with pytest.raises(ValueError, match="length must be an int"):
            Partition((3, 1)).padded(length)

    def test_column_heights_are_computed_by_the_constructor(self):
        p = Partition((4, 2, 1, 0))
        assert vars(p) == {"parts": (4, 2, 1, 0), "_column_heights": (3, 2, 1, 1)}
        p.conjugate(), p.leg(0, 1), p.hook(1, 1)
        assert vars(p).keys() == {"parts", "_column_heights"}
