"""Minimal static SVG emission: canvas primitives, data-space axes,
masked heatmaps with a diverging palette, and the three figure layouts
the command-line reports emit.  Every element is a rect, path/polyline,
circle, or text node; no plotting dependency."""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # annotations alone need no import of geometry
    from .geometry import GridField

PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
FONT = "Helvetica, Arial, sans-serif"


def _fmt(v: float) -> str:
    s = f"{float(v):.2f}"
    if "." in s:
        s = s.rstrip("0").rstrip(".")
    return "0" if s == "-0" else s


def _tick_label(v: float) -> str:
    return f"{v:.3g}"


def _escape(s: str) -> str:
    """Text content with &, < and > as character references, as
    html.escape(s, quote=False) gives it (the html package's entity
    tables cost every process that draws a figure about 0.5 MB)."""
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class SvgCanvas:
    def __init__(self, width: int, height: int):
        self.width = int(width)
        self.height = int(height)
        self.parts: List[str] = []
        self.rect(0, 0, self.width, self.height, fill="#ffffff")

    def raw(self, fragment: str) -> None:
        self.parts.append(fragment)

    def rect(self, x, y, w, h, fill: str = "none", stroke: Optional[str] = None,
             opacity: Optional[float] = None) -> None:
        attrs = [f'x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" height="{_fmt(h)}"',
                 f'fill="{fill}"']
        if stroke:
            attrs.append(f'stroke="{stroke}" stroke-width="1"')
        if opacity is not None:
            attrs.append(f'fill-opacity="{_fmt(opacity)}"')
        self.parts.append(f"<rect {' '.join(attrs)}/>")

    def line(self, x1, y1, x2, y2, stroke: str = "#444444", width: float = 1.0,
             dash: Optional[str] = None) -> None:
        attrs = [f'x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}"',
                 f'stroke="{stroke}" stroke-width="{_fmt(width)}"']
        if dash:
            attrs.append(f'stroke-dasharray="{dash}"')
        self.parts.append(f"<line {' '.join(attrs)}/>")

    def polyline(self, points: Sequence[Tuple[float, float]], stroke: str,
                 width: float = 1.5, dash: Optional[str] = None) -> None:
        if len(points) < 2:
            return
        coords = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        attrs = [f'points="{coords}"', 'fill="none"',
                 f'stroke="{stroke}" stroke-width="{_fmt(width)}"',
                 'stroke-linejoin="round"']
        if dash:
            attrs.append(f'stroke-dasharray="{dash}"')
        self.parts.append(f"<polyline {' '.join(attrs)}/>")

    def circle(self, cx, cy, r, fill: str) -> None:
        self.parts.append(f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" '
                          f'r="{_fmt(r)}" fill="{fill}"/>')

    def text(self, x, y, s: str, size: float = 12, anchor: str = "start",
             fill: str = "#222222", bold: bool = False,
             rotate: Optional[float] = None) -> None:
        attrs = [f'x="{_fmt(x)}" y="{_fmt(y)}"',
                 f'font-family="{FONT}" font-size="{_fmt(size)}"',
                 f'text-anchor="{anchor}" fill="{fill}"']
        if bold:
            attrs.append('font-weight="bold"')
        if rotate is not None:
            attrs.append(f'transform="rotate({_fmt(rotate)} {_fmt(x)} {_fmt(y)})"')
        self.parts.append(f"<text {' '.join(attrs)}>{_escape(str(s))}</text>")

    def save(self, path) -> None:
        """Writes the document to `path` one part at a time: the parts
        joined by newlines inside the svg element, with no whole-document
        string built."""
        with open(path, "w") as fh:
            fh.write(f'<svg xmlns="http://www.w3.org/2000/svg" '
                     f'width="{self.width}" height="{self.height}" '
                     f'viewBox="0 0 {self.width} {self.height}">\n')
            for part in self.parts:
                fh.write(part)
                fh.write("\n")
            fh.write("</svg>\n")


# margin added on each side of a data range, as a fraction of its width
_RANGE_PAD = 0.05


def nice_range(values) -> Tuple[float, float]:
    values = np.asarray(values, dtype=np.float64)
    finite = values[np.isfinite(values)]
    if finite.size == 0:
        return (-1.0, 1.0)
    lo, hi = float(finite.min()), float(finite.max())
    if lo == hi:
        return (lo - 1.0, hi + 1.0)
    margin = _RANGE_PAD * (hi - lo)
    return (lo - margin, hi + margin)


class Axes:
    """Maps data coordinates onto a pixel viewport (y grows upward)."""

    def __init__(self, x_range: Tuple[float, float], y_range: Tuple[float, float],
                 box: Tuple[float, float, float, float]):
        if x_range[1] <= x_range[0] or y_range[1] <= y_range[0]:
            raise ValueError("axis ranges must be increasing")
        self.x_range = (float(x_range[0]), float(x_range[1]))
        self.y_range = (float(y_range[0]), float(y_range[1]))
        self.box = tuple(float(v) for v in box)

    def px(self, x: float) -> float:
        left, _, w, _ = self.box
        lo, hi = self.x_range
        return left + w * (x - lo) / (hi - lo)

    def py(self, y: float) -> float:
        _, top, _, h = self.box
        lo, hi = self.y_range
        return top + h * (hi - y) / (hi - lo)

    def points(self, xs, ys) -> List[Tuple[float, float]]:
        xs, ys = np.asarray(xs, dtype=np.float64), np.asarray(ys, dtype=np.float64)
        return list(zip(self.px(xs).tolist(), self.py(ys).tolist()))

    def draw_frame(self, canvas: SvgCanvas, title: str = "", xlabel: str = "",
                   ylabel: str = "") -> None:
        left, top, w, h = self.box
        canvas.rect(left, top, w, h, fill="none", stroke="#444444")
        for x in np.linspace(*self.x_range, 5):
            px = self.px(x)
            canvas.line(px, top + h, px, top + h + 4)
            canvas.text(px, top + h + 16, _tick_label(x), size=10, anchor="middle")
        for y in np.linspace(*self.y_range, 5):
            py = self.py(y)
            canvas.line(left - 4, py, left, py)
            canvas.text(left - 7, py + 3.5, _tick_label(y), size=10, anchor="end")
        if title:
            canvas.text(left + w / 2, top - 10, title, size=13, anchor="middle",
                        bold=True)
        if xlabel:
            canvas.text(left + w / 2, top + h + 32, xlabel, size=11, anchor="middle")
        if ylabel:
            canvas.text(left - 44, top + h / 2, ylabel, size=11, anchor="middle",
                        rotate=-90)


def _diverging_rgb(values, vmax: float) -> np.ndarray:
    """Blue-white-red map, one 0xRRGGBB integer per value: negative values
    blue, positive red, zero white."""
    if vmax <= 0:
        raise ValueError("vmax must be > 0")
    t = np.clip(np.asarray(values, dtype=np.float64) / vmax, -1.0, 1.0)
    up = t >= 0
    rgb = np.zeros(t.shape, dtype=int)
    # per channel, the slope of the red half and of the blue half
    for red, blue in ((-0.30, 0.87), (-0.90, 0.60), (-0.83, 0.33)):
        # np.rint rounds half to even, as round does
        channel = np.rint(255 * np.clip(1.0 + np.where(up, red, blue) * t, 0.0, 1.0))
        rgb = (rgb << 8) | channel.astype(int)
    return rgb


def diverging_colors(values, vmax: float) -> List[str]:
    """`_diverging_rgb` as "#rrggbb" strings."""
    return ["#%06x" % c for c in _diverging_rgb(values, vmax).tolist()]


# grid points per chunk of block rows that _block_fills reduces at a time
_CHUNK_POINTS = 4096


def _block_fills(grid: GridField, fx: int, fy: int,
                 vmax: float) -> Tuple[List[int], np.ndarray, np.ndarray]:
    """The fy x fx blocks of grid points that hold masked points, in
    row-major order: the number of them up to the end of each row of
    blocks, their block columns, and their colors as 0xRRGGBB integers,
    each from the mean of the block's masked values.  The blocks are
    summed a chunk of block rows at a time, each chunk by the reshaped sum
    over its zero-filled, padded points that the whole grid would get, so
    the sums are the same bits with no grid-sized copy made."""
    vals, mask = grid.values, grid.mask
    ny, nx = vals.shape
    nby, nbx = -(-ny // fy), -(-nx // fx)
    counts = np.empty((nby, nbx), dtype=int)
    sums = np.empty((nby, nbx))
    step = max(1, _CHUNK_POINTS // (fy * nx))
    for b0 in range(0, nby, step):
        rows = slice(b0 * fy, (b0 + step) * fy)
        m = mask[rows]
        pad = ((0, -len(m) % fy), (0, nbx * fx - nx))
        counts[b0:b0 + step] = np.pad(m, pad).reshape(-1, fy, nbx, fx).sum(axis=(1, 3))
        sums[b0:b0 + step] = np.pad(np.where(m, vals[rows], 0.0),
                                    pad).reshape(-1, fy, nbx, fx).sum(axis=(1, 3))
    filled = counts > 0
    rgb = _diverging_rgb(sums[filled] / counts[filled], vmax)
    return np.cumsum(filled.sum(axis=1)).tolist(), np.nonzero(filled)[1], rgb


def heatmap(canvas: SvgCanvas, axes: Axes, grid: GridField, max_cells: int = 120) -> float:
    """Filled cells for the masked grid points; blocks of cells are merged
    for display when the grid is finer than max_cells per side.  Returns
    the color scale limit used: the largest masked |value|, or 1 when
    that is 0 or the mask is empty.  The cells go to the canvas one
    fragment per row of blocks."""
    vals, mask = grid.values, grid.mask
    ny, nx = vals.shape
    # max |value| over the mask, from its max and min: no |values| copy
    vmax = max(float(np.max(vals, where=mask, initial=0.0)),
               -float(np.min(vals, where=mask, initial=0.0))) or 1.0
    fx = max(1, math.ceil(nx / max_cells))
    fy = max(1, math.ceil(ny / max_cells))
    sx = float(grid.x_axis[1] - grid.x_axis[0]) if nx > 1 else 1.0
    sy = float(grid.y_axis[1] - grid.y_axis[0]) if ny > 1 else 1.0
    row_ends, cols, rgb = _block_fills(grid, fx, fy, vmax)
    # pixel edges per block column and per block row, each formatted once
    x0 = axes.px(grid.x_axis[::fx] - sx / 2)
    x1 = axes.px(grid.x_axis[np.minimum(np.arange(fx, nx + fx, fx), nx) - 1] + sx / 2)
    y0 = axes.py(grid.y_axis[np.minimum(np.arange(fy, ny + fy, fy), ny) - 1] + sy / 2)
    y1 = axes.py(grid.y_axis[::fy] - sy / 2)
    xs, widths = [_fmt(v) for v in x0], [_fmt(v) for v in x1 - x0]
    ys, heights = [_fmt(v) for v in y0], [_fmt(v) for v in y1 - y0]
    canvas.raw('<g shape-rendering="crispEdges">')
    start = 0
    for i, end in enumerate(row_ends):
        if end > start:
            y, h = ys[i], heights[i]
            canvas.raw("\n".join(
                f'<rect x="{xs[j]}" y="{y}" width="{widths[j]}" height="{h}" '
                f'fill="#{c:06x}"/>'
                for j, c in zip(cols[start:end].tolist(), rgb[start:end].tolist())))
        start = end
    canvas.raw("</g>")
    return vmax


def colorbar(canvas: SvgCanvas, x: float, y: float, w: float, h: float,
             vmax: float) -> None:
    n = 40
    step = h / n
    fills = diverging_colors(vmax * (1.0 - 2.0 * (np.arange(n) + 0.5) / n), vmax)
    for i, fill in enumerate(fills):
        canvas.rect(x, y + i * step, w, step + 0.5, fill=fill)
    canvas.rect(x, y, w, h, fill="none", stroke="#444444")
    for frac, v in ((0.0, vmax), (0.5, 0.0), (1.0, -vmax)):
        canvas.text(x + w + 5, y + frac * h + 3.5, _tick_label(v), size=10)


def legend(canvas: SvgCanvas, x: float, y: float,
           entries: Sequence[Tuple[str, str, str]]) -> None:
    """Rows of (label, color, kind) with kind in {'line', 'dot'}."""
    for i, (label, color, kind) in enumerate(entries):
        row = y + 16 * i
        if kind == "dot":
            canvas.circle(x + 9, row - 3.5, 3.0, fill=color)
        else:
            canvas.line(x, row - 3.5, x + 18, row - 3.5, stroke=color, width=2.5)
        canvas.text(x + 24, row, label, size=11)


def regression_panel(path, x, y_data, y_true, y_cdnn, y_qdnn, title: str,
                     note: str = "") -> None:
    """Two panels: predicted curves over the data, and the deviation of
    each family's curve from the truth."""
    x = np.asarray(x, dtype=np.float64)
    series = {name: np.asarray(v, dtype=np.float64) for name, v in
              (("data", y_data), ("true", y_true),
               ("cdnn", y_cdnn), ("qdnn", y_qdnn))}
    canvas = SvgCanvas(900, 430)
    x_range = nice_range(x)
    left = Axes(x_range, nice_range(np.concatenate(list(series.values()))),
                (60, 50, 360, 300))
    res_c = series["cdnn"] - series["true"]
    res_q = series["qdnn"] - series["true"]
    right = Axes(x_range, nice_range(np.concatenate([res_c, res_q, [0.0]])),
                 (540, 50, 300, 300))
    for px_, py_ in left.points(x, series["data"]):
        canvas.circle(px_, py_, 2.3, fill="#aaaaaa")
    canvas.polyline(left.points(x, series["true"]), stroke="#222222", width=2.0)
    canvas.polyline(left.points(x, series["cdnn"]), stroke=PALETTE[0], width=2.0)
    canvas.polyline(left.points(x, series["qdnn"]), stroke=PALETTE[1], width=2.0)
    left.draw_frame(canvas, title=title, xlabel="x", ylabel="y")
    legend(canvas, 70, 66, [("data", "#aaaaaa", "dot"), ("true", "#222222", "line"),
                            ("cdnn", PALETTE[0], "line"), ("qdnn", PALETTE[1], "line")])
    zero = right.py(0.0)
    canvas.line(right.px(x_range[0]), zero, right.px(x_range[1]), zero,
                stroke="#888888", dash="4,3")
    canvas.polyline(right.points(x, res_c), stroke=PALETTE[0], width=2.0)
    canvas.polyline(right.points(x, res_q), stroke=PALETTE[1], width=2.0)
    right.draw_frame(canvas, title="deviation from true curve", xlabel="x",
                     ylabel="prediction - true")
    if note:
        canvas.text(60, 415, note, size=11, fill="#555555")
    canvas.save(path)


def regime_map(path, grid: GridField, primary_contours, secondary_contours,
               title: str, stats_lines: Sequence[str], xlabel: str, ylabel: str) -> None:
    """Masked heatmap with two families of zero-level contours (black for
    the observed field, red for the predicted one) and a statistics inset."""
    canvas = SvgCanvas(660, 540)
    axes = Axes((float(grid.x_axis[0]), float(grid.x_axis[-1])),
                (float(grid.y_axis[0]), float(grid.y_axis[-1])),
                (70, 60, 430, 390))
    vmax = heatmap(canvas, axes, grid)
    for poly in primary_contours:
        canvas.polyline(axes.points(poly[:, 0], poly[:, 1]),
                        stroke="#000000", width=2.2)
    for poly in secondary_contours:
        canvas.polyline(axes.points(poly[:, 0], poly[:, 1]),
                        stroke="#d62728", width=2.2, dash="6,3")
    axes.draw_frame(canvas, title=title, xlabel=xlabel, ylabel=ylabel)
    colorbar(canvas, 525, 60, 16, 390, vmax)
    if stats_lines:
        box_h = 14 * len(stats_lines) + 12
        canvas.rect(76, 66, 215, box_h, fill="#ffffff", stroke="#777777",
                    opacity=0.88)
        for i, line in enumerate(stats_lines):
            canvas.text(84, 84 + 14 * i, line, size=10.5)
    legend(canvas, 70, 492, [("observed boundary", "#000000", "line"),
                             ("predicted boundary", "#d62728", "line")])
    canvas.save(path)


def trend_panel(path, groups, title: str, xlabel: str, ylabel: str,
                note: str = "") -> None:
    """Scatter plus smoothed trend per group: entries are
    (label, ts, xis, grid_or_None, trend_or_None)."""
    canvas = SvgCanvas(660, 470)
    all_t = np.concatenate([np.asarray(g[1], dtype=np.float64) for g in groups])
    all_y = [np.asarray(g[2], dtype=np.float64) for g in groups]
    all_y += [np.asarray(g[4], dtype=np.float64) for g in groups if g[4] is not None]
    axes = Axes(nice_range(all_t), nice_range(np.concatenate(all_y + [[0.0]])),
                (70, 50, 520, 330))
    zero = axes.py(0.0)
    canvas.line(axes.px(axes.x_range[0]), zero, axes.px(axes.x_range[1]), zero,
                stroke="#888888", dash="4,3")
    entries = []
    for i, (label, ts, xis, grid, trend) in enumerate(groups):
        color = PALETTE[i % len(PALETTE)]
        for px_, py_ in axes.points(ts, xis):
            canvas.circle(px_, py_, 3.0, fill=color)
        if grid is not None and trend is not None:
            canvas.polyline(axes.points(grid, trend), stroke=color, width=2.2)
        entries.append((label, color, "dot"))
    axes.draw_frame(canvas, title=title, xlabel=xlabel, ylabel=ylabel)
    legend(canvas, 78, 66, entries)
    if note:
        canvas.text(70, 440, note, size=11, fill="#555555")
    canvas.save(path)
