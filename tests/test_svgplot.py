import tracemalloc
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from qqual import geometry, svgplot

NS = "{http://www.w3.org/2000/svg}"


def parse(path):
    return ET.parse(path).getroot()


def saved(canvas, path):
    canvas.save(path)
    return path.read_text()


def heatmap_rects(canvas, path):
    """The cell rects of the saved figure's heatmap group, one per line."""
    lines = saved(canvas, path).split("\n")
    start = lines.index('<g shape-rendering="crispEdges">')
    return lines[start + 1:lines.index("</g>", start)]


def make_grid(seed=0, resolution=60):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 4.0, size=(80, 2))
    vals = pts[:, 0] - 2.0
    fld = geometry.ScatterField(pts[:, 0], pts[:, 1], vals)
    return geometry.build_surface(fld, resolution=resolution, smoothing=1.5)


class TestCanvas:
    def test_renders_valid_svg(self, tmp_path):
        canvas = svgplot.SvgCanvas(200, 100)
        canvas.rect(10, 10, 50, 30, fill="#ff0000")
        canvas.line(0, 0, 200, 100)
        canvas.polyline([(0, 0), (10, 5), (20, 0)], stroke="#00ff00")
        canvas.circle(50, 50, 4, fill="#0000ff")
        canvas.text(5, 95, "label")
        root = ET.fromstring(saved(canvas, tmp_path / "c.svg"))
        assert root.tag == f"{NS}svg"
        assert root.get("width") == "200" and root.get("height") == "100"
        # every canvas starts with a white background rect
        assert root[0].tag == f"{NS}rect" and root[0].get("fill") == "#ffffff"
        assert root[0].get("width") == "200" and root[0].get("height") == "100"

    def test_text_is_escaped(self, tmp_path):
        canvas = svgplot.SvgCanvas(50, 50)
        canvas.text(0, 10, "a < b & c")
        rendered = saved(canvas, tmp_path / "a.svg")
        assert "a &lt; b &amp; c" in rendered
        assert ET.fromstring(rendered).find(f"{NS}text").text == "a < b & c"
        # text nodes escape only &, < and >: quotes keep their bytes, as
        # xml.sax.saxutils.escape wrote them
        label = """x "y" 'z' > 0"""
        canvas = svgplot.SvgCanvas(50, 50)
        canvas.text(0, 10, label)
        rendered = saved(canvas, tmp_path / "b.svg")
        assert """>x "y" 'z' &gt; 0</text>""" in rendered
        assert ET.fromstring(rendered).find(f"{NS}text").text == label

    def test_short_polyline_dropped(self, tmp_path):
        canvas = svgplot.SvgCanvas(50, 50)
        canvas.polyline([(1, 1)], stroke="#000000")
        assert "polyline" not in saved(canvas, tmp_path / "c.svg")

    def test_save_is_deterministic(self, tmp_path):
        paths = []
        for name in ("a.svg", "b.svg"):
            canvas = svgplot.SvgCanvas(80, 80)
            canvas.circle(40, 40, 10, fill="#123456")
            canvas.save(tmp_path / name)
            paths.append((tmp_path / name).read_bytes())
        assert paths[0] == paths[1]


class TestAxes:
    def test_linear_mapping(self):
        axes = svgplot.Axes((0.0, 10.0), (-1.0, 1.0), (100, 50, 200, 100))
        assert axes.px(0.0) == 100 and axes.px(10.0) == 300
        assert axes.px(5.0) == 200
        # y axis is inverted: larger data values sit higher on the canvas
        assert axes.py(1.0) == 50 and axes.py(-1.0) == 150
        assert axes.py(0.0) == 100

    def test_points_match_scalar_mapping(self):
        axes = svgplot.Axes((0.1, 7.3), (-0.37, 1.9), (70, 60, 430, 390))
        xs, ys = np.random.default_rng(2).uniform(-1.0, 8.0, (2, 50))
        assert axes.points(xs, ys) == [(axes.px(x), axes.py(y))
                                       for x, y in zip(xs.tolist(), ys.tolist())]

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            svgplot.Axes((1.0, 1.0), (0.0, 1.0), (0, 0, 10, 10))

    def test_nice_range_pads_and_handles_constants(self):
        lo, hi = svgplot.nice_range([0.0, 10.0])
        assert lo == pytest.approx(-0.5) and hi == pytest.approx(10.5)
        lo, hi = svgplot.nice_range([3.0, 3.0])
        assert lo < 3.0 < hi


def reference_color(v, vmax):
    # the palette one value at a time, in Python floats
    t = max(-1.0, min(1.0, float(v) / vmax))
    if t >= 0:
        r, g, b = 1.0 - 0.30 * t, 1.0 - 0.90 * t, 1.0 - 0.83 * t
    else:
        r, g, b = 1.0 + 0.87 * t, 1.0 + 0.60 * t, 1.0 + 0.33 * t
    channels = (min(1.0, max(0.0, c)) for c in (r, g, b))
    return "#%02x%02x%02x" % tuple(int(round(255 * c)) for c in channels)


class TestDivergingColor:
    def test_anchor_points(self):
        assert svgplot.diverging_colors([0.0], 1.0) == ["#ffffff"]
        for v, color in zip((-1.0, -0.3, 0.3, 1.0),
                            svgplot.diverging_colors([-1.0, -0.3, 0.3, 1.0], 1.0)):
            assert len(color) == 7
            r, b = int(color[1:3], 16), int(color[5:7], 16)
            if v > 0:
                assert r > b
            else:
                assert b > r

    def test_clips_beyond_scale(self):
        assert svgplot.diverging_colors([9.0, -9.0], 1.0) == \
            svgplot.diverging_colors([1.0, -1.0], 1.0)

    def test_pinned_strings(self):
        # green at -vmax/2 and red at vmax are 255 * 0.7 = 178.5, which
        # rounds half to even: 178 = 0xb2
        assert svgplot.diverging_colors([-3.0, -2.0, -1.0, 0.0, 1.0, 2.0, 3.0], 2.0) == \
            ["#2166ab", "#2166ab", "#90b2d5", "#ffffff", "#d98c95", "#b2192b", "#b2192b"]

    def test_requires_positive_scale(self):
        with pytest.raises(ValueError):
            svgplot.diverging_colors([0.5], 0.0)

    def test_matches_reference_at_half_steps(self):
        # channels that land exactly on k + 0.5 round to even in both
        values, half_steps = [-1.5, -0.0, 0.0, 1.5], 0
        for sign, slopes in ((1.0, (0.30, 0.90, 0.83)), (-1.0, (0.87, 0.60, 0.33))):
            for a in slopes:
                for k in range(255):
                    t = sign * (1.0 - (k + 0.5) / 255) / a
                    for u in (t, *np.nextafter(t, [-2.0, 2.0]).tolist()):
                        values.append(u)
                        half_steps += 255 * (1.0 - a * abs(u)) == k + 0.5
        assert half_steps > 500
        values = np.array(values)
        for vmax in (1.0, 0.37):
            assert svgplot.diverging_colors(values * vmax, vmax) == \
                [reference_color(v, vmax) for v in values * vmax]


class TestHeatmap:
    def test_cells_cover_mask(self, tmp_path):
        grid = make_grid(resolution=40)
        canvas = svgplot.SvgCanvas(300, 300)
        axes = svgplot.Axes((0.0, 4.0), (0.0, 4.0), (20, 20, 260, 260))
        vmax = svgplot.heatmap(canvas, axes, grid, max_cells=200)
        assert vmax == pytest.approx(np.abs(grid.values[grid.mask]).max())
        root = ET.fromstring(saved(canvas, tmp_path / "c.svg"))
        cells = root.findall(f"{NS}g/{NS}rect")
        assert len(cells) == int(grid.mask.sum())

    def test_display_downsampling(self, tmp_path):
        grid = make_grid(resolution=60)
        canvas = svgplot.SvgCanvas(300, 300)
        axes = svgplot.Axes((0.0, 4.0), (0.0, 4.0), (20, 20, 260, 260))
        svgplot.heatmap(canvas, axes, grid, max_cells=20)
        cells = ET.fromstring(saved(canvas, tmp_path / "c.svg")).findall(f"{NS}g/{NS}rect")
        assert 0 < len(cells) <= 20 * 20

    @staticmethod
    def per_block_rects(axes, grid, max_cells):
        # each block formatted and colored on its own, as a plain scan
        ny, nx = grid.values.shape
        fx, fy = max(1, -(-nx // max_cells)), max(1, -(-ny // max_cells))
        sx = grid.x_axis[1] - grid.x_axis[0] if nx > 1 else 1.0
        sy = grid.y_axis[1] - grid.y_axis[0] if ny > 1 else 1.0
        masked = np.abs(grid.values[grid.mask])
        vmax = float(masked.max()) if masked.size and masked.max() > 0 else 1.0
        rects = []
        for by in range(0, ny, fy):
            for bx in range(0, nx, fx):
                m = grid.mask[by:by + fy, bx:bx + fx]
                if not m.any():
                    continue
                v = grid.values[by:by + fy, bx:bx + fx][m].sum() / m.sum()
                x0 = axes.px(grid.x_axis[bx] - sx / 2)
                x1 = axes.px(grid.x_axis[min(bx + fx, nx) - 1] + sx / 2)
                y0 = axes.py(grid.y_axis[min(by + fy, ny) - 1] + sy / 2)
                y1 = axes.py(grid.y_axis[by] - sy / 2)
                rects.append(f'<rect x="{svgplot._fmt(x0)}" y="{svgplot._fmt(y0)}" '
                             f'width="{svgplot._fmt(x1 - x0)}" '
                             f'height="{svgplot._fmt(y1 - y0)}" '
                             f'fill="{reference_color(v, vmax)}"/>')
        return rects

    @pytest.mark.parametrize("resolution,max_cells", [(61, 20), (60, 7), (45, 200)])
    def test_blocks_match_per_block_scan(self, resolution, max_cells, tmp_path):
        # ragged edge blocks included: 61 and 60 do not divide into the blocks
        grid = make_grid(seed=3, resolution=resolution)
        axes = svgplot.Axes((0.0, 4.0), (0.0, 4.0), (20, 20, 260, 260))
        canvas = svgplot.SvgCanvas(300, 300)
        svgplot.heatmap(canvas, axes, grid, max_cells=max_cells)
        rects = heatmap_rects(canvas, tmp_path / "c.svg")
        assert rects == self.per_block_rects(axes, grid, max_cells)

    def test_random_grids_match_per_block_scan(self, tmp_path):
        rng = np.random.default_rng(17)
        for _ in range(40):
            ny, nx = (int(v) for v in rng.integers(2, 90, size=2))
            x_axis = rng.uniform(-5.0, 5.0) + np.arange(nx) * rng.uniform(0.01, 2.0)
            y_axis = rng.uniform(-5.0, 5.0) + np.arange(ny) * rng.uniform(0.01, 2.0)
            mask = rng.uniform(size=(ny, nx)) < rng.uniform(0.2, 1.0)
            values = rng.standard_normal((ny, nx)) * rng.uniform(1e-3, 1e3)
            values[rng.uniform(size=(ny, nx)) < 0.1] = 0.0  # exact zeros
            if rng.uniform() < 0.2:
                values[:] = 0.0  # the vmax = 1 fallback
            grid = geometry.GridField(x_axis, y_axis, np.where(mask, values, np.nan))
            axes = svgplot.Axes((x_axis[0], x_axis[-1]), (y_axis[0], y_axis[-1]),
                                tuple(rng.uniform(5.0, 400.0, size=4)))
            max_cells = int(rng.integers(3, 130))
            canvas = svgplot.SvgCanvas(300, 300)
            svgplot.heatmap(canvas, axes, grid, max_cells=max_cells)
            rects = heatmap_rects(canvas, tmp_path / "c.svg")
            assert rects == self.per_block_rects(axes, grid, max_cells)


class TestBlockReduction:
    @staticmethod
    def padded_reshape_fills(grid, fx, fy, vmax):
        # the whole grid zero-filled outside its mask, padded to whole
        # blocks and summed in one reshape
        ny, nx = grid.values.shape
        nby, nbx = -(-ny // fy), -(-nx // fx)
        pad = ((0, nby * fy - ny), (0, nbx * fx - nx))
        counts = np.pad(grid.mask, pad).reshape(nby, fy, nbx, fx).sum(axis=(1, 3))
        sums = np.pad(np.where(grid.mask, grid.values, 0.0),
                      pad).reshape(nby, fy, nbx, fx).sum(axis=(1, 3))
        filled = counts > 0
        rgb = svgplot._diverging_rgb(sums[filled] / counts[filled], vmax)
        return np.cumsum(filled.sum(axis=1)).tolist(), np.nonzero(filled)[1], rgb

    @pytest.mark.parametrize("means", [False, True])
    @pytest.mark.parametrize("chunk_points", [1, 50, svgplot._CHUNK_POINTS])
    def test_matches_a_padded_reshape_bit_for_bit(self, monkeypatch, chunk_points, means):
        # small chunks make several chunks per grid, the last one ragged;
        # with means=True the "colors" are the block means themselves, which
        # a color's 8-bit channels would otherwise round away
        monkeypatch.setattr(svgplot, "_CHUNK_POINTS", chunk_points)
        if means:
            monkeypatch.setattr(svgplot, "_diverging_rgb", lambda v, vmax: np.asarray(v))
        rng = np.random.default_rng(29)
        for fy in range(1, 5):
            for fx in range(1, 5):
                for _ in range(6):
                    # sides that are, and mostly are not, multiples of the block
                    ny, nx = (int(v) for v in rng.integers(1, 40, size=2))
                    values = rng.standard_normal((ny, nx)) * 10.0 ** rng.uniform(-3, 3, (ny, nx))
                    values[rng.uniform(size=(ny, nx)) < 0.1] = 0.0
                    values[rng.uniform(size=(ny, nx)) < 0.1] = -0.0
                    values[rng.uniform(size=(ny, nx)) < rng.uniform(0.0, 0.6)] = np.nan
                    grid = geometry.GridField(np.arange(nx), np.arange(ny), values)
                    got = svgplot._block_fills(grid, fx, fy, 0.8)
                    want = self.padded_reshape_fills(grid, fx, fy, 0.8)
                    assert got[0] == want[0], (ny, nx, fy, fx)
                    assert np.array_equal(got[1], want[1]), (ny, nx, fy, fx)
                    assert np.array_equal(got[2], want[2]), (ny, nx, fy, fx)

    def test_vmax_of_an_all_negative_field_and_an_empty_mask(self):
        canvas = svgplot.SvgCanvas(300, 300)
        axes = svgplot.Axes((0.0, 4.0), (0.0, 4.0), (20, 20, 260, 260))
        values = -np.linspace(0.5, 3.0, 20).reshape(4, 5)
        values[0, 0] = np.nan
        grid = geometry.GridField(np.arange(5), np.arange(4), values)
        assert svgplot.heatmap(canvas, axes, grid) == np.abs(values[grid.mask]).max() == 3.0
        empty = geometry.GridField(np.arange(5), np.arange(4), np.full((4, 5), np.nan))
        assert svgplot.heatmap(canvas, axes, empty) == 1.0


class TestFigures:
    def test_regime_map(self, tmp_path):
        grid = make_grid()
        primary = geometry.zero_contour(grid)
        secondary = [poly + 0.15 for poly in primary]
        path = tmp_path / "map.svg"
        svgplot.regime_map(path, grid, primary, secondary, "surface",
                           ["frac(+) = 0.5", "agree = 0.9"], "Q2", "xB")
        root = parse(path)
        polys = root.findall(f".//{NS}polyline")
        assert sum(1 for p in polys if p.get("stroke") == "#000000") == len(primary)
        assert sum(1 for p in polys if p.get("stroke") == "#d62728") == len(secondary)
        texts = [t.text for t in root.findall(f".//{NS}text")]
        assert "frac(+) = 0.5" in texts and "agree = 0.9" in texts

    def test_regime_map_peak_memory_is_bounded(self, tmp_path):
        # the figure text is held once, in parts of at most one row of
        # cells: measured 1.4 times the file (5.1 times when the cells were
        # one fragment and the document one string)
        grid = make_grid(resolution=200)
        contours = geometry.zero_contour(grid)
        path = tmp_path / "map.svg"

        def draw():
            svgplot.regime_map(path, grid, contours, [], "probe map", ["probe"],
                               "Q^2 (GeV^2)", "x_B")

        draw()
        tracemalloc.start()
        try:
            draw()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path.stat().st_size > 400_000
        assert peak <= 2 * path.stat().st_size

    def test_regression_panel(self, tmp_path):
        x = np.linspace(-2.0, 4.0, 50)
        truth = np.cos(4.0 * x)
        path = tmp_path / "cell.svg"
        svgplot.regression_panel(path, x, truth + 0.05, truth, truth + 0.02,
                                 truth - 0.01, "fit", note="flagged")
        root = parse(path)
        # data markers plus the four legend/series elements
        assert len(root.findall(f".//{NS}circle")) == 51
        assert len(root.findall(f".//{NS}polyline")) == 5
        assert "flagged" in [t.text for t in root.findall(f".//{NS}text")]

    def test_trend_panel_handles_raw_only_group(self, tmp_path):
        ts = np.linspace(-1.4, -0.2, 10)
        path = tmp_path / "trend.svg"
        svgplot.trend_panel(path, [("smoothed", ts, ts + 0.8, ts, ts + 0.8),
                                   ("raw", ts, ts - 0.1, None, None)],
                            "trend", "t", "value")
        root = parse(path)
        assert len(root.findall(f".//{NS}circle")) == 22
        assert len(root.findall(f".//{NS}polyline")) == 1
