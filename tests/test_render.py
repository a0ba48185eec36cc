"""Deterministic rendering of grids, fillings, and overlays."""

from __future__ import annotations

import re

import pytest

import rational_dyck as rd
from rational_dyck.errors import UnsupportedOverlay
from rational_dyck.render import RenderSpec, render, render_ascii, render_svg


class TestSpec:
    def test_unknown_overlay(self):
        with pytest.raises(UnsupportedOverlay):
            RenderSpec(overlays=("sparkles",))

    def test_unknown_format(self):
        with pytest.raises(UnsupportedOverlay):
            RenderSpec(format="png")

    def test_bounce_needs_height(self):
        spec = RenderSpec(overlays=("bounce",))
        with pytest.raises(UnsupportedOverlay):
            render(rd.lowest_path(1, 5), spec)


class TestAscii:
    def test_deterministic(self, running):
        spec = RenderSpec(overlays=("hooks", "row-lengths", "lasers", "levels"))
        assert render_ascii(running, spec) == render_ascii(running, spec)

    def test_hook_grid_rows(self, running):
        out = render_ascii(running, RenderSpec(overlays=("hooks",)))
        lines = out.splitlines()
        start = lines.index("hooks:") + 1
        rows = [tuple(int(v) for v in line.split()) for line in lines[start : start + 5]]
        assert rows[0] == (27, 22, 17, 12, 7, 2, -3, -8)
        assert rows[4] == (-5, -10, -15, -20, -25, -30, -35, -40)

    def test_laser_total_line(self, running):
        out = render_ascii(running, RenderSpec(overlays=("lasers",)))
        assert "laser total: 10" in out

    def test_bare_grid(self):
        out = render_ascii(rd.lowest_path(2, 3), RenderSpec())
        assert out.splitlines()[0] == "(2,3)-Dyck path NENEE"
        assert "#" in out and "." in out

    def test_levels_grid(self, running):
        out = render_ascii(running, RenderSpec(overlays=("levels",)))
        assert " 27" in out and " 0" in out

    def test_intervals_section(self, running):
        out = render_ascii(running, RenderSpec(overlays=("intervals",)))
        assert "[0,8]" in out and "[22,27]" in out

    def test_bounce_section(self):
        q = rd.zeta(rd.make_path(2, 3, "NNEEE"))
        out = render_ascii(q, RenderSpec(overlays=("bounce",)))
        assert "v=" in out and "h=" in out


class TestSvg:
    def test_viewbox_scale(self, running):
        out = render_svg(running, RenderSpec(format="svg"))
        assert 'viewBox="0 0 320 200"' in out  # 8*40 x 5*40
        assert out.startswith("<svg") and out.rstrip().endswith("</svg>")

    def test_hook_texts_present(self, running):
        out = render_svg(running, RenderSpec(format="svg", overlays=("hooks",)))
        assert ">27<" in out and ">-40<" in out

    def test_deterministic(self, running):
        spec = RenderSpec(format="svg", overlays=("lasers", "bounce", "intervals"))
        assert render_svg(running, spec) == render_svg(running, spec)

    def test_row_length_texts_sit_at_box_centres(self, running):
        out = render_svg(running, RenderSpec(format="svg", overlays=("row-lengths",)))
        filling = rd.row_length_filling(running)
        expected = sorted(
            (40 * c + 20, 40 * (running.a - 1 - r) + 20, filling.value(c, r))
            for c, r in filling.boxes()
        )
        assert filling.boxes() and sorted(svg_texts(out, 14)) == expected

    def test_one_level_label_per_lattice_point(self, running):
        out = render_svg(running, RenderSpec(format="svg", overlays=("levels",)))
        a, b = running.a, running.b
        x = y = 0
        expected = [(0, 40 * a - 8, 0)]
        for step in running.steps:
            x, y = (x, y + 1) if step == "N" else (x + 1, y)
            expected.append((40 * x, 40 * (a - y) - 8, y * b - x * a))
        assert sorted(svg_texts(out, 11)) == sorted(expected)


def svg_texts(svg: str, size: int) -> list[tuple[float, float, int]]:
    """(x, y, value) of each <text> of the given font size."""
    pattern = rf'<text x="([^"]+)" y="([^"]+)" font-size="{size}" [^>]*>(-?\d+)</text>'
    return [(float(x), float(y), int(v)) for x, y, v in re.findall(pattern, svg)]
