"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every comparison is exact integer equality.  Criteria with a stated wall
clock budget assert it; the suite is expected to run green standalone:

    pytest tests/test_acceptance.py -v -s
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager

import pytest

import rational_dyck as rd
from rational_dyck.errors import InexactDivision
from rational_dyck.inverse import level_point
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

RUNNING = rd.make_path(5, 8, "NNNENEEENEEEE")


def coprime_pairs(max_sum, min_dim=1):
    for total in range(2 * min_dim, max_sum + 1):
        for a in range(min_dim, total - min_dim + 1):
            b = total - a
            if b >= min_dim and math.gcd(a, b) == 1:
                yield a, b


@contextmanager
def criterion(number: int, title: str, limit: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} {title}: FAIL")
        raise
    elapsed = time.perf_counter() - start
    assert limit is None or elapsed < limit, (
        f"criterion {number} exceeded its {limit}s budget ({elapsed:.2f}s)"
    )
    print(f"ACCEPTANCE {number:02d} {title}: PASS ({elapsed:.2f}s)")


def test_criterion_01_running_example_goldens():
    with criterion(1, "running-example goldens", limit=1.0):
        p = RUNNING
        assert p.reading_word() == (0, 8, 16, 24, 19, 27, 22, 17, 12, 20, 15, 10, 5)
        assert p.reverse_reading_word() == (0, 5, 10, 15, 20, 12, 17, 22, 27, 19, 24, 16, 8)
        assert rd.sigma(p).one_line == (1, 3, 7, 12, 9, 13, 11, 8, 5, 10, 6, 4, 2)
        assert rd.tau(p).one_line == (1, 2, 4, 6, 10, 5, 8, 11, 13, 9, 12, 7, 3)
        assert rd.gamma(p).one_line == (3, 1, 7, 2, 10, 4, 12, 5, 13, 6, 8, 9, 11)

        core = rd.anderson(p)
        assert core.parts == (6, 4, 3, 2, 2, 1, 1, 1, 1)

        assert rd.skew_length_core(core) == 10
        assert rd.skew_length_peaks_valleys(p) == 10
        assert rd.skew_inversions(p) == 10
        assert rd.flip_skew_inversions(p) == 10
        assert rd.laser_filling(p).total() == 10

        filling = rd.row_length_filling(p)
        assert filling.total() == 21
        assert rd.boundary_boxes(core, 5) == 13
        assert rd.boundary_boxes(core, 8) == 17

        assert rd.lambda_partition(p).parts == (4, 3, 2, 1, 0)
        assert rd.mu_partition(p).parts == (3, 2, 2, 1, 1, 1, 0, 0)
        assert rd.zeta(p).steps == "NENENENENEEEE"
        assert rd.eta(p).steps == "NNENEENEEENEE"

        assert rd.conjugate(p).positive_hooks() == (14, 9, 6, 4, 2, 1)
        assert rd.iota(rd.zeta(p), rd.eta(p)) == p
        assert rd.delta(p) == 5


def test_criterion_02_enumeration_counts():
    with criterion(2, "enumeration counts, a+b <= 16", limit=30.0):
        for a, b in coprime_pairs(16):
            binom = math.comb(a + b, a)
            assert binom % (a + b) == 0
            assert len(rd.enumerate_paths(a, b)) == binom // (a + b)


def test_criterion_03_four_way_agreement():
    with criterion(3, "four-way zeta/eta agreement, a+b <= 12", limit=60.0):
        for a, b in coprime_pairs(12):
            for p in rd.enumerate_paths(a, b):
                q = zeta_via_cores(p)
                assert zeta_via_sweep(p) == q
                assert zeta_via_lasers(p) == q
                assert zeta_via_intervals(p) == q
                r = eta_via_cores(p)
                assert eta_via_sweep(p) == r
                assert eta_via_lasers(p) == r
                assert eta_via_intervals(p) == r
                assert r == rd.zeta(rd.conjugate(p))
                assert rd.zeta(rd.flip(p)) == rd.flip(r)
                assert rd.eta(rd.flip(p)) == rd.flip(q)


def test_criterion_04_iota_inverts_the_pair():
    with criterion(4, "iota inverts (zeta, eta), a+b <= 12"):
        for a, b in coprime_pairs(12):
            for p in rd.enumerate_paths(a, b):
                q, r = rd.zeta(p), rd.eta(p)
                assert rd.iota(q, r) == p
                assert rd.exceedances_check(q, r)


def test_criterion_05_injectivity_and_unique_partner():
    with criterion(5, "zeta injective <= 14; unique partner <= 11"):
        for a, b in coprime_pairs(14):
            report = rd.bijectivity_report(a, b)
            assert report.injective, report.to_json()
        for a, b in coprime_pairs(11):
            report = rd.bijectivity_report(a, b, unique_pair_scan=True)
            bad = {q: n for q, n in report.pair_uniqueness.items() if n != 1}
            assert not bad, f"unique-partner violation witness: {bad}"


def test_criterion_06_q_and_qt_conjectures():
    with criterion(6, "q-Catalan and q,t-symmetry, a+b <= 12", limit=120.0):
        for a, b in coprime_pairs(12):
            f = rd.rational_q_catalan(a, b)  # raises InexactDivision on remainder
            assert f == rd.sl_rank_generating(a, b)
            assert rd.qt_symmetry_check(a, b)
        with pytest.raises(InexactDivision):
            rd.gaussian_binomial(6, 2).divide_exact(rd.q_bracket(6))


def test_criterion_07_square_case():
    with criterion(7, "square case closed forms, n <= 7"):
        assert len(rd.enumerate_paths(7, 8)) == 429
        for n in range(1, 8):
            for q in rd.enumerate_paths(n, n + 1):
                rev = rd.reverse(q)
                assert rd.chi(q) == rev
                assert rd.iota(q, rev) == rd.zeta_inverse(q)
                if n >= 2:
                    assert rd.square_gamma_shaded(q) == rd.pair_gamma(q, rev)


def test_criterion_08_level1_recursion_and_area_identity():
    with criterion(8, "level-1 star recursion <= 13; area identity"):
        for a, b in coprime_pairs(13):
            x, y = level_point(a, b, 1)
            for p in rd.enumerate_paths(a, b):
                q = rd.zeta(p)
                if q.visits(x, y):
                    assert rd.zeta_inverse_level1(q) == p
        for a, b in [(5, 8), (5, 13)]:
            for x in range(b + 1):
                for y in range(a + 1):
                    assert (b - x) * y - x * (a - y) == y * b - x * a


def test_criterion_09_fuss_inverse_and_bounce_bounds():
    with criterion(9, "Fuss inverse <= 16; bounce window <= 13"):
        fuss_dims = [
            (a, b)
            for a in range(2, 6)
            for b in range(a + 1, 17 - a, a)
            if b % a == 1 and a + b <= 16
        ]
        assert (5, 11) in fuss_dims and (2, 13) in fuss_dims
        for a, b in fuss_dims:
            for p in rd.enumerate_paths(a, b):
                q = rd.zeta(p)
                assert rd.zeta_inverse_fuss(q) == p
                bounce = rd.initial_bounce(q)
                assert rd.delta(p) == bounce.v_total + bounce.h_total + 1
        for a, b in coprime_pairs(13, min_dim=2):
            r = b % a
            for p in rd.enumerate_paths(a, b):
                bounce = rd.initial_bounce(rd.zeta(p))
                low = bounce.v_total + bounce.h_total + 1
                assert low <= rd.delta(p) <= low + r - 1


def test_criterion_10_statistic_transport():
    with criterion(10, "statistic transport, a+b <= 12"):
        for a, b in coprime_pairs(12):
            for p in rd.enumerate_paths(a, b):
                q = rd.zeta(p)
                sl = rd.skew_length(p)
                assert sl == rd.coarea(q)
                assert rd.dinv(p) == rd.area(q)
                assert rd.skew_length(rd.conjugate(p)) == sl
                assert rd.skew_length(rd.flip(p)) == sl
