"""Deterministic ASCII and SVG pictures of paths and their fillings."""

from __future__ import annotations

from .bounce import initial_bounce
from .cores import hook_filling, row_length_filling
from .errors import UnsupportedOverlay
from .maps import interval_grid, laser_filling
from .paths import DyckPath, _Value

__all__ = ["RenderSpec", "render", "render_ascii", "render_svg"]

_FILLINGS = ("hooks", "row-lengths", "lasers")  # overlays that write a value per box
OVERLAYS = (*_FILLINGS, "levels", "bounce", "intervals")

_CELL_SCALE = 40  # svg pixels per box


class RenderSpec(_Value):
    __match_args__ = ("format", "overlays")

    def __init__(self, format: str = "ascii", overlays: tuple[str, ...] = ()):
        if format not in ("ascii", "svg"):
            raise UnsupportedOverlay(f"unknown format {format!r}")
        overlays = tuple(overlays)
        for name in overlays:
            if name not in OVERLAYS:
                raise UnsupportedOverlay(f"unknown overlay {name!r}")
        self.__dict__.update(format=format, overlays=overlays)


def _validate(path: DyckPath, spec: RenderSpec) -> None:
    if "bounce" in spec.overlays and path.a < 2:
        raise UnsupportedOverlay("bounce overlay needs a >= 2")


def _box_grid(path: DyckPath, values: dict[tuple[int, int], int]) -> list[str]:
    """Rows of fixed-width cells, top row first; boxes without a value get a dot."""
    width = max([1] + [len(str(v)) for v in values.values()])
    lines = []
    for row in reversed(range(path.a)):
        cells = []
        for col in range(path.b):
            text = str(values[(col, row)]) if (col, row) in values else "."
            cells.append(text.rjust(width))
        lines.append(" ".join(cells))
    return lines


def _filling_values(path: DyckPath, name: str) -> dict[tuple[int, int], int]:
    """{box: value} of a box-filling overlay, in drawing order: the hooks
    row by row, the row lengths and lasers in their fillings' box order."""
    if name == "hooks":
        hooks = hook_filling(path.a, path.b)
        return {(c, r): hooks.value(c, r) for r in range(path.a) for c in range(path.b)}
    filling = row_length_filling(path) if name == "row-lengths" else laser_filling(path)
    return {box: filling.value(*box) for box in filling.boxes()}


def _mask_lines(path: DyckPath) -> list[str]:
    cols = path.north_columns()
    lines = []
    for row in reversed(range(path.a)):
        lines.append(" ".join("#" if col >= cols[row] else "." for col in range(path.b)))
    return lines


def render_ascii(path: DyckPath, spec: RenderSpec) -> str:
    _validate(path, spec)
    out = [f"({path.a},{path.b})-Dyck path {path.steps}"]
    out.append("boxes below the path are #:")
    out.extend(_mask_lines(path))
    for name in spec.overlays:
        out.append(f"{name}:")
        if name in _FILLINGS:
            values = _filling_values(path, name)
            out.extend(_box_grid(path, values))
            if name == "lasers":
                out.append(f"laser total: {sum(values.values())}")
        elif name == "levels":
            levels = {pt: lvl for pt, lvl in zip(path.points(), path.levels())}
            width = max(len(str(v)) for v in levels.values())
            for y in reversed(range(path.a + 1)):
                row = [
                    str(levels[(x, y)]).rjust(width) if (x, y) in levels else "." * width
                    for x in range(path.b + 1)
                ]
                out.append(" ".join(row))
        elif name == "bounce":
            bp = initial_bounce(path)
            out.append(f"v={list(bp.v)} h={list(bp.h)}")
            out.append("vertices: " + " ".join(f"({x},{y})" for x, y in bp.vertices()))
        elif name == "intervals":
            grid = interval_grid(path)
            nw, se = grid.northwest_shaded(), grid.southeast_shaded()
            for r in reversed(range(grid.a)):
                cells = []
                for c in range(grid.b):
                    cells.append("#" if nw[r][c] else "*" if se[r][c] else ".")
                lo, hi = grid.north_intervals[r]
                out.append(" ".join(cells) + f"   [{lo},{hi}]")
            out.append(
                "columns: " + " ".join(f"[{lo},{hi}]" for lo, hi in grid.east_intervals)
            )
    return "\n".join(out) + "\n"


def _svg_text(x: float, y: float, text: str, size: int = 14) -> str:
    return (
        f'<text x="{x:g}" y="{y:g}" font-size="{size}" '
        f'text-anchor="middle" dominant-baseline="middle">{text}</text>'
    )


def render_svg(path: DyckPath, spec: RenderSpec) -> str:
    _validate(path, spec)
    a, b, s = path.a, path.b, _CELL_SCALE
    w, h = b * s, a * s

    def pt(x: int, y: int) -> tuple[int, int]:
        return x * s, (a - y) * s

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
    ]
    for x in range(b + 1):
        parts.append(
            f'<line x1="{x * s}" y1="0" x2="{x * s}" y2="{h}" stroke="#ccc"/>'
        )
    for y in range(a + 1):
        parts.append(
            f'<line x1="0" y1="{y * s}" x2="{w}" y2="{y * s}" stroke="#ccc"/>'
        )
    x0, y0 = pt(0, 0)
    x1, y1 = pt(b, a)
    parts.append(
        f'<line x1="{x0}" y1="{y0}" x2="{x1}" y2="{y1}" stroke="#888" stroke-dasharray="4"/>'
    )
    coords = " ".join(f"{px},{py}" for px, py in (pt(x, y) for x, y in path.points()))
    parts.append(
        f'<polyline points="{coords}" fill="none" stroke="red" stroke-width="3"/>'
    )

    for name in spec.overlays:
        if name in _FILLINGS:
            for (col, row), value in _filling_values(path, name).items():
                px, py = pt(col, row + 1)  # the box's top-left corner
                parts.append(_svg_text(px + s / 2, py + s / 2, str(value)))
        elif name == "levels":
            for (x, y), lvl in zip(path.points(), path.levels()):
                px, py = pt(x, y)
                parts.append(_svg_text(px, py - 8, str(lvl), size=11))
        elif name == "bounce":
            bp = initial_bounce(path)
            coords = " ".join(
                f"{px},{py}" for px, py in (pt(x, y) for x, y in bp.vertices())
            )
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="blue" '
                f'stroke-width="2" stroke-dasharray="6"/>'
            )
        elif name == "intervals":
            grid = interval_grid(path)
            nw, se = grid.northwest_shaded(), grid.southeast_shaded()
            for r in range(a):
                for c in range(b):
                    if nw[r][c] or se[r][c]:
                        px, py = pt(c, r + 1)
                        fill = "#9bd" if nw[r][c] else "#db9"
                        parts.append(
                            f'<rect x="{px}" y="{py}" width="{s}" height="{s}" '
                            f'fill="{fill}" fill-opacity="0.5"/>'
                        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def render(path: DyckPath, spec: RenderSpec) -> str:
    if spec.format == "svg":
        return render_svg(path, spec)
    return render_ascii(path, spec)
