"""Exact polynomial arithmetic and the conjecture checkers."""

from __future__ import annotations

import math
import re
import sys
import weakref
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

import rational_dyck as rd
from rational_dyck import maps, stats, verification
from rational_dyck.errors import InexactDivision, InternalInvariantError, NotCoprime
from rational_dyck.verification import QPolynomial, QTPolynomial

from conftest import (
    coprime_pairs,
    gaussian_binomial_by_polynomials,
    pair_uniqueness_by_scan,
    qt_catalan_by_paths,
    sl_rank_generating_by_paths,
)


def qbinom_by_box_partitions(n: int, k: int) -> tuple[int, ...]:
    """Oracle: coefficient of q^m counts partitions of m inside a k x (n-k) box."""
    coeffs = [0] * (k * (n - k) + 1)

    def count(parts_left, max_part, total):
        coeffs[total] += 1
        if parts_left == 0:
            return
        for part in range(1, max_part + 1):
            count(parts_left - 1, part, total + part)

    count(k, n - k, 0)
    return tuple(coeffs)


class TestQPolynomial:
    def test_normalization(self):
        assert QPolynomial((1, 0, 2, 0, 0)).coeffs == (1, 0, 2)
        assert QPolynomial((0, 0)).coeffs == ()
        assert not QPolynomial.zero()

    def test_non_integer_coefficient_rejected(self):
        with pytest.raises(ValueError):
            QPolynomial((1.5, 2))

    def test_arithmetic(self):
        p = QPolynomial((1, 1))
        assert (p * p).coeffs == (1, 2, 1)
        assert (p + QPolynomial((0, 0, 3))).coeffs == (1, 1, 3)
        assert p.evaluate(5) == 6

    def test_bracket(self):
        assert rd.q_bracket(5).coeffs == (1, 1, 1, 1, 1)
        assert rd.q_bracket(1).coeffs == (1,)

    def test_negative_bracket_rejected(self):
        assert rd.q_bracket(0) == QPolynomial.zero()
        with pytest.raises(ValueError):
            rd.q_bracket(-2)

    def test_negative_monomial_rejected(self):
        assert QPolynomial.monomial(0, 5) == QPolynomial((5,))
        with pytest.raises(ValueError):
            QPolynomial.monomial(-1, 5)

    @pytest.mark.parametrize("n", [True, 2.0])
    def test_bracket_and_monomial_need_an_int(self, n):
        # a bool is not one: True passed as 1 before
        with pytest.raises(ValueError, match=re.escape(f"n must be an int >= 0, got {n!r}")):
            rd.q_bracket(n)
        with pytest.raises(ValueError, match=re.escape(f"power must be an int >= 0, got {n!r}")):
            QPolynomial.monomial(n)

    def test_exact_division(self):
        p = QPolynomial((1, 0, 1))  # 1 + q^2
        product = p * rd.q_bracket(5)
        assert product.divide_exact(rd.q_bracket(5)) == p

    def test_inexact_division_raises(self):
        with pytest.raises(InexactDivision):
            QPolynomial((1, 1, 1)).divide_exact(QPolynomial((1, 1)))

    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
        st.lists(st.integers(-9, 9), min_size=1, max_size=6),
    )
    def test_division_inverts_multiplication(self, xs, ys):
        p, d = QPolynomial(tuple(xs)), QPolynomial(tuple(ys))
        if not d:
            return
        assert (p * d).divide_exact(d) == p

    def test_str(self):
        assert str(QPolynomial((1, 0, 1))) == "1 + q^2"
        assert str(QPolynomial.zero()) == "0"


class TestGaussianBinomial:
    def test_small_values(self):
        assert rd.gaussian_binomial(5, 2).coeffs == (1, 1, 2, 2, 2, 1, 1)
        assert rd.gaussian_binomial(4, 2).coeffs == (1, 1, 2, 1, 1)
        assert rd.gaussian_binomial(3, 0).coeffs == (1,)

    def test_against_box_partition_oracle(self):
        # the top coefficient (the full box) is 1, so lengths match exactly
        for n in range(1, 9):
            for k in range(n + 1):
                assert rd.gaussian_binomial(n, k).coeffs == qbinom_by_box_partitions(n, k)

    def test_against_the_polynomial_recurrence(self):
        for n in range(21):
            for k in range(-1, n + 2):
                assert rd.gaussian_binomial(n, k) == gaussian_binomial_by_polynomials(n, k)

    @pytest.mark.parametrize("n, k", [(True, 1), (3, True), (3.0, 1), (3, 1.0)])
    def test_n_and_k_must_be_ints(self, n, k):
        not_int = r"^(n must be an int >= 0|k must be an int), got (True|3\.0|1\.0)$"
        with pytest.raises(ValueError, match=not_int):
            rd.gaussian_binomial(n, k)

    def test_specializes_to_binomial(self):
        for n in range(1, 10):
            for k in range(n + 1):
                assert rd.gaussian_binomial(n, k).evaluate(1) == math.comb(n, k)


class TestRationalQCatalan:
    def test_f_23(self):
        assert rd.rational_q_catalan(2, 3).coeffs == (1, 0, 1)

    def test_specialization_at_one(self):
        for a, b in coprime_pairs(12):
            assert rd.rational_q_catalan(a, b).evaluate(1) == rd.rational_catalan_number(a, b)

    def test_degree(self):
        # deg qbinom(a+b, a) - deg [a+b]_q = ab - (a + b - 1)
        for a, b in coprime_pairs(12):
            assert len(rd.rational_q_catalan(a, b).coeffs) - 1 == (a - 1) * (b - 1)

    def test_non_negative_coefficients(self):
        for a, b in coprime_pairs(12):
            assert all(c >= 0 for c in rd.rational_q_catalan(a, b).coeffs)

    def test_not_coprime_rejected_before_division(self):
        with pytest.raises(NotCoprime):
            rd.rational_q_catalan(2, 4)

    @pytest.mark.parametrize(
        "a, b, message",
        [
            pytest.param(0, 1, "a must be an int >= 1, got 0", id="0-1-positive"),
            pytest.param(2, -1, "b must be an int >= 1, got -1", id="2--1-positive"),
            pytest.param(2.0, 3, "a must be an int >= 1, got 2.0", id="2.0-3-integers"),
            pytest.param(True, 2, "a must be an int >= 1, got True", id="True-2-integers"),
        ],
    )
    def test_dimensions_checked_like_a_path(self, a, b, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            rd.rational_q_catalan(a, b)

    def test_inexact_division_guard_fires_for_non_coprime(self):
        # bypass the coprimality gate: qbinom(6,2)/[6]_q has a remainder
        with pytest.raises(InexactDivision):
            rd.gaussian_binomial(6, 2).divide_exact(rd.q_bracket(6))

    def test_product_formula_equals_the_pascal_route(self):
        for a, b in coprime_pairs(24):
            pascal = rd.gaussian_binomial(a + b, a).divide_exact(rd.q_bracket(a + b))
            assert rd.rational_q_catalan(a, b) == pascal
            assert rd.rational_q_catalan(b, a) == pascal

    def test_product_formula_checks_each_division(self):
        # 1 + q^2 over 1 - q^2 leaves the remainder 2q^2, in the top entries
        assert verification._over_one_minus([1, 0, -1], 2) == [1]
        with pytest.raises(InexactDivision, match="1 - q\\^2"):
            verification._over_one_minus([1, 0, 1], 2)


class TestSkewRankConjecture:
    def test_g_23(self):
        assert rd.sl_rank_generating(2, 3) == rd.rational_q_catalan(2, 3)

    def test_specialization_counts_paths(self):
        for a, b in coprime_pairs(10):
            assert rd.sl_rank_generating(a, b).evaluate(1) == rd.rational_catalan_number(a, b)

    def test_conjecture_exhaustive(self):
        for a, b in coprime_pairs(12):
            assert rd.sl_rank_generating(a, b) == rd.rational_q_catalan(a, b)


class TestQTSymmetry:
    def test_swap(self):
        poly = QTPolynomial.from_exponent_pairs([(0, 2), (1, 1), (2, 0)])
        assert poly.swapped() == poly
        lopsided = QTPolynomial.from_exponent_pairs([(0, 1)])
        assert lopsided.swapped() != lopsided

    def test_repeated_keys_are_summed(self):
        assert QTPolynomial((((0, 0), 1), ((0, 0), 2))) == QTPolynomial((((0, 0), 3),))
        assert QTPolynomial((((0, 1), 1), ((0, 1), -1))) == QTPolynomial(())
        assert QTPolynomial((((1, 0), 2), ((0, 1), 1), ((1, 0), 1))).terms == (
            ((0, 1), 1),
            ((1, 0), 3),
        )

    def test_non_integer_term_rejected(self):
        with pytest.raises(ValueError):
            QTPolynomial((((0, 0), 1.5),))
        with pytest.raises(ValueError):
            QTPolynomial((((0.5, 0), 1),))

    @pytest.mark.parametrize(
        "terms",
        [
            (((0, 0), "x"),),  # would raise TypeError from the sum
            (((0, 0), True),),  # would sum to the int 1
            (((0, 0), True), ((0, 0), -1)),  # would cancel and vanish
            (((True, 0), 1),),
            (((0, False), 1),),
        ],
    )
    def test_entries_checked_before_they_are_summed(self, terms):
        with pytest.raises(ValueError, match="must be integers"):
            QTPolynomial(terms)

    @pytest.mark.parametrize("key", [(-1, 0), (0, -2)])
    def test_negative_power_rejected(self, key):
        # q^-1 at q = 2 would evaluate to 0.5, which is no integer polynomial
        with pytest.raises(ValueError, match="powers must be non-negative"):
            QTPolynomial(((key, 1),))

    def test_specialization(self):
        for a, b in [(3, 4), (5, 2)]:
            poly = rd.qt_catalan(a, b)
            assert poly.evaluate(1, 1) == rd.rational_catalan_number(a, b)

    def test_symmetry_exhaustive(self):
        for a, b in coprime_pairs(12):
            assert rd.qt_symmetry_check(a, b)

    @pytest.mark.parametrize("variant", ("core", "path"))
    def test_check_agrees_with_the_swapped_polynomial(self, variant):
        verdicts = set()
        for a, b in coprime_pairs(14):
            poly = rd.qt_catalan(a, b, rank_variant=variant)
            verdict = rd.qt_symmetry_check(a, b, rank_variant=variant)
            assert verdict == (poly == poly.swapped())
            verdicts.add(verdict)
        # the path rank breaks the symmetry on some pairs, so both verdicts are tried
        assert verdicts == ({True} if variant == "core" else {True, False})

    def test_exponent_multiset_swap(self):
        for a, b in [(3, 5), (4, 5)]:
            poly = rd.qt_catalan(a, b)
            pairs = {(i, j): c for (i, j), c in poly.terms}
            assert all(pairs.get((j, i), 0) == c for (i, j), c in pairs.items())


class TestRankVariant:
    @pytest.mark.parametrize("fn", (rd.sl_rank_generating, rd.qt_catalan, rd.qt_symmetry_check))
    def test_unknown_variant_is_rejected(self, fn):
        verification._path_statistics.cache_clear()
        with pytest.raises(ValueError, match="'core', 'path'"):
            fn(3, 5, rank_variant="Core")
        assert verification._path_statistics.cache_info().misses == 0  # no table built

    @pytest.mark.parametrize("rank_variant", ("core", "path"))
    def test_against_the_per_path_oracles(self, rank_variant):
        for a, b in coprime_pairs(16):
            assert rd.sl_rank_generating(
                a, b, rank_variant=rank_variant
            ) == sl_rank_generating_by_paths(a, b, rank_variant)
            assert rd.qt_catalan(a, b, rank_variant=rank_variant) == qt_catalan_by_paths(
                a, b, rank_variant
            )


class TestStatisticsOncePerPair:
    def test_battery_takes_one_dinv_pass_per_path(self, monkeypatch):
        # the checks of `dyck verify` on one pair share one pass of
        # statistics, and bijectivity_report reads dinv off it
        calls = Counter()

        def counted(name):
            original = getattr(stats, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            return wrapper

        # skew_length and dinv reach these through the module, so a call of
        # either, under any name, shows as a second sort or a second pass
        for name in ("_dinv_pass", "skew_inversions", "_skew_inversions"):
            monkeypatch.setattr(stats, name, counted(name))
        verification._path_statistics.cache_clear()
        assert rd.bijectivity_report(9, 7).ok
        assert rd.sl_rank_generating(9, 7) == rd.rational_q_catalan(9, 7)
        assert rd.qt_symmetry_check(9, 7)
        assert len(rd.enumerate_paths(9, 7)) == 715
        assert calls == {"_dinv_pass": 715, "_skew_inversions": 715}

    def test_table_equals_the_summary(self):
        for a, b in coprime_pairs(14):
            sls, ranks, dinvs = verification._path_statistics(a, b)
            summaries = list(map(rd.statistics_summary, rd.enumerate_paths(a, b)))
            assert sls == [s["sl"] for s in summaries]
            assert ranks["core"] == [s["area"] for s in summaries]
            assert ranks["path"] == [s["rank"] for s in summaries]
            assert dinvs == [s["dinv"] for s in summaries]


class TestBijectivityReport:
    def test_58(self):
        report = rd.bijectivity_report(5, 8)
        assert report.path_count == 99
        assert report.injective and report.ok
        assert report.sl_transport_ok and report.dinv_transport_ok

    @pytest.mark.parametrize("broken", ("skew_length", "dinv"))
    def test_transports_fail_independently(self, monkeypatch, broken):
        # sl is compared with the image's coarea and dinv with its area:
        # one statistic off by one breaks its own transport alone
        original = verification._sl_coarea_dinv

        def off_by_one(path):
            sl, co, dv = original(path)
            return (sl + 1, co, dv) if broken == "skew_length" else (sl, co, dv + 1)

        monkeypatch.setattr(verification, "_sl_coarea_dinv", off_by_one)
        verification._path_statistics.cache_clear()
        try:
            report = rd.bijectivity_report(5, 8)
        finally:
            verification._path_statistics.cache_clear()  # drop the broken table
        assert report.injective and not report.ok
        assert report.sl_transport_ok is (broken != "skew_length")
        assert report.dinv_transport_ok is (broken != "dinv")

    def test_trivial_family(self):
        report = rd.bijectivity_report(1, 6)
        assert report.path_count == 1 and report.ok

    def test_unique_pair_scan(self):
        report = rd.bijectivity_report(3, 5, unique_pair_scan=True)
        assert report.pair_uniqueness is not None
        assert all(v == 1 for v in report.pair_uniqueness.values())
        assert report.ok

    def test_unique_pair_scan_matches_all_pairs(self):
        for a, b in coprime_pairs(12):
            paths = rd.enumerate_paths(a, b)
            report = rd.bijectivity_report(a, b, unique_pair_scan=True)
            oracle = pair_uniqueness_by_scan(dict.fromkeys(map(rd.zeta, paths)), paths)
            assert list(report.pair_uniqueness.items()) == list(oracle.items())

    def test_unique_pair_scan_leaves_no_view_on_the_paths(self):
        # the statistics sort into lists that each call drops, and the scan
        # drops each path's sweep once zeta, eta and iota are done with it:
        # a path of the pair's cached table keeps no view
        kept = {"a", "b", "steps", "_levels"}
        for a, b in coprime_pairs(13):
            paths = rd.enumerate_paths(a, b)
            rd.bijectivity_report(a, b, unique_pair_scan=True)
            assert rd.enumerate_paths(a, b) is paths
            for p in paths:
                assert vars(p).keys() == kept, p

    @pytest.mark.parametrize("a,b", [(3, 4), (4, 5), (3, 8), (4, 7), (5, 7)])
    def test_unique_pair_scan_matches_all_pairs_when_zeta_collides(self, monkeypatch, a, b):
        # conjugating the odd-area paths first merges fibres and can
        # leave an image without its true preimage; zeta and iota's round
        # trip both read the patched word
        swept_word = maps._swept_word

        def colliding_word(p, eta=False):
            return swept_word(rd.conjugate(p) if rd.area(p) % 2 and not eta else p, eta)

        monkeypatch.setattr(maps, "_swept_word", colliding_word)
        colliding = rd.zeta
        paths = rd.enumerate_paths(a, b)
        report = rd.bijectivity_report(a, b, unique_pair_scan=True)
        oracle = pair_uniqueness_by_scan(dict.fromkeys(map(colliding, paths)), paths)
        first, collisions = {}, []
        for p in paths:
            earlier = first.setdefault(colliding(p), p)
            if earlier is not p:
                collisions.append((str(earlier), str(p)))
        assert collisions and not report.ok
        assert report.collisions == tuple(collisions)
        assert list(report.pair_uniqueness.items()) == list(oracle.items())

    @pytest.mark.parametrize("unique_pair_scan", (False, True))
    def test_scan_keeps_no_image_path_alive(self, monkeypatch, unique_pair_scan):
        # each image is found in the enumeration, so no image path is
        # built: with the caches cleared, a report without the scan builds
        # the n enumerated paths alone, and with it iota's decodes too,
        # none of which outlives the report
        built = weakref.WeakSet()
        builds = 0
        init = rd.DyckPath.__init__

        def watched(self, *args):
            nonlocal builds
            init(self, *args)
            builds += 1
            built.add(self)

        monkeypatch.setattr(rd.DyckPath, "__init__", watched)
        rd.enumerate_paths.cache_clear()
        verification._path_statistics.cache_clear()
        report = rd.bijectivity_report(9, 7, unique_pair_scan=unique_pair_scan)
        assert report.ok
        n = report.path_count
        assert builds == (2 * n if unique_pair_scan else n)
        assert set(map(id, built)) == set(map(id, rd.enumerate_paths(9, 7)))

    def test_unique_pair_scan_builds_two_paths_per_path(self, monkeypatch):
        # the enumeration and iota's decode: each image is found in the
        # enumeration, and iota's round trip compares swept words
        counts = Counter()

        def counting(name, fn):
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted

        init = rd.DyckPath.__init__
        monkeypatch.setattr(rd.DyckPath, "__init__", counting("builds", init))
        monkeypatch.setattr(verification, "iota", counting("iota", verification.iota))
        modules = [m for n, m in sys.modules.items() if n.partition(".")[0] == "rational_dyck"]
        for fn in (maps.zeta_via_sweep, maps.eta_via_sweep):
            wrapper = counting(fn.__name__, fn)
            for module in modules:
                for name in [n for n, v in vars(module).items() if v is fn]:
                    monkeypatch.setattr(module, name, wrapper)
        for a, b in coprime_pairs(12):
            counts.clear()
            rd.enumerate_paths.cache_clear()
            report = rd.bijectivity_report(a, b, unique_pair_scan=True)
            n = report.path_count
            assert counts == {"builds": 2 * n, "iota": report.image_count}, (a, b)

    def test_unique_pair_scan_propagates_a_bug_in_iota(self, monkeypatch):
        def broken(q, r):
            raise InternalInvariantError("demo")

        monkeypatch.setattr(verification, "iota", broken)
        with pytest.raises(InternalInvariantError):
            rd.bijectivity_report(3, 5, unique_pair_scan=True)

    def test_short_enumeration_is_a_bug(self, monkeypatch):
        monkeypatch.setattr(
            verification, "enumerate_paths", lambda a, b: rd.enumerate_paths(a, b)[1:]
        )
        with pytest.raises(InternalInvariantError):
            rd.bijectivity_report(3, 5)

    def test_an_image_word_that_is_not_a_path_is_a_bug(self, monkeypatch):
        monkeypatch.setattr(maps, "_swept_word", lambda p, eta=False: p.steps[::-1])
        with pytest.raises(InternalInvariantError, match="is not an"):
            rd.bijectivity_report(3, 5)

    def test_an_enumeration_that_repeats_a_path_is_a_bug(self, monkeypatch):
        # the Catalan count still holds, but the path left out is the image
        # of another path, which the enumeration then lacks
        paths = rd.enumerate_paths(3, 5)
        assert rd.zeta(paths[1]) != paths[1]
        repeated = paths[:1] + paths[:1] + paths[2:]
        monkeypatch.setattr(verification, "enumerate_paths", lambda a, b: repeated)
        verification._path_statistics.cache_clear()
        try:
            with pytest.raises(InternalInvariantError, match="lacks"):
                rd.bijectivity_report(3, 5)
        finally:
            verification._path_statistics.cache_clear()  # drop the table of the repeats

    def test_json_round_trip(self):
        report = rd.bijectivity_report(2, 5)
        data = report.to_json()
        assert data["paths"] == 3 and data["injective"] is True
