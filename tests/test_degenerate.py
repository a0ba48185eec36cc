"""Height-1 and width-1 families: one path each, everything still works."""

from __future__ import annotations

import pytest

import rational_dyck as rd
from rational_dyck.render import RenderSpec, render_ascii


@pytest.mark.parametrize("a,b", [(1, 5), (4, 1), (1, 1), (1, 2)])
class TestSinglePathFamilies:
    def test_enumeration(self, a, b):
        paths = rd.enumerate_paths(a, b)
        assert len(paths) == 1
        assert paths[0] == rd.lowest_path(a, b) == rd.full_path(a, b)

    def test_statistics(self, a, b):
        p = rd.lowest_path(a, b)
        assert rd.statistics_summary(p) == {
            "area": 0,
            "coarea": 0,
            "rank": 0,
            "sl": 0,
            "slp": 0,
            "dinv": 0,
            "delta": a + b,
        }

    def test_maps_fix_the_path(self, a, b):
        p = rd.lowest_path(a, b)
        assert rd.cross_check(p) == (p, p)
        assert rd.conjugate(p) == p
        assert rd.zeta_inverse(p) == p

    def test_core_is_empty(self, a, b):
        p = rd.lowest_path(a, b)
        assert rd.anderson(p).parts == ()
        assert rd.anderson_inverse(rd.anderson(p)) == p

    def test_flip(self, a, b):
        p = rd.lowest_path(a, b)
        assert rd.flip(p) == rd.lowest_path(b, a)

    def test_render(self, a, b):
        out = render_ascii(rd.lowest_path(a, b), RenderSpec(overlays=("hooks",)))
        assert f"({a},{b})-Dyck path" in out


class TestDeterminism:
    def test_bijectivity_report_reproducible(self):
        first = rd.bijectivity_report(4, 5, unique_pair_scan=True)
        second = rd.bijectivity_report(4, 5, unique_pair_scan=True)
        assert first.to_json() == second.to_json()

    def test_polynomials_reproducible(self):
        assert rd.sl_rank_generating(4, 5) == rd.sl_rank_generating(4, 5)
        assert rd.qt_catalan(4, 5) == rd.qt_catalan(4, 5)
