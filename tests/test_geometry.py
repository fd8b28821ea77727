import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy.interpolate import LinearNDInterpolator
from scipy.ndimage import binary_erosion, gaussian_filter
from scipy.spatial import ConvexHull, Delaunay

import geometry_oracles as oracles
from qqual import geometry as g


def lattice(nx, ny, dx=1.0, dy=1.0):
    gx, gy = np.meshgrid(np.arange(nx) * dx, np.arange(ny) * dy)
    return np.column_stack([gx.ravel(), gy.ravel()])


def diagonal_edge_set(rng):
    """Points on or above the diagonal of their bounding box, with both of
    its ends: a hull edge along the diagonal of build_surface's grid."""
    u = rng.uniform(0.0, 1.0, size=(int(rng.integers(4, 40)), 2))
    u[:, 1] = u[:, 0] + (1.0 - u[:, 0]) * u[:, 1]
    u[0], u[1] = (0.0, 0.0), (1.0, 1.0)
    return rng.uniform(-5.0, 5.0, 2) + rng.uniform(0.01, 100.0, 2) * u


class TestConvexHull:
    """A point set whose convex hull has no area has no triangulation."""

    def test_collinear_rejected(self):
        with pytest.raises(ValueError):
            g.delaunay([[0, 0], [1, 1], [2, 2], [3, 3]])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            g.delaunay([[0, 0], [1, 1]])
        with pytest.raises(ValueError):
            g.delaunay([[0, 0]] * 3)  # one distinct point


def sorted_triangles(tri):
    return sorted(tuple(sorted(t)) for t in np.asarray(tri).tolist())


def doubled_areas(p):
    # signed, of each (3, 2) vertex block of p
    return ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
            - (p[:, 1, 1] - p[:, 0, 1]) * (p[:, 2, 0] - p[:, 0, 0]))


def strictly_in_circumcircle(a, b, c, p):
    # exact, for a counter-clockwise triangle abc
    rows = [[Fraction(v[0]) - Fraction(p[0]), Fraction(v[1]) - Fraction(p[1])] for v in (a, b, c)]
    (ax, ay), (bx, by), (cx, cy) = rows
    det = ((ax * ax + ay * ay) * (bx * cy - cx * by) + (bx * bx + by * by) * (cx * ay - ax * cy)
           + (cx * cx + cy * cy) * (ax * by - bx * ay))
    return det > 0


class TestDelaunay:
    def general_position_sets(self):
        rng = np.random.default_rng(77)
        for trial in range(200):
            n = int(rng.integers(3, 201))
            pts = rng.uniform(-1.0, 3.0, size=(n, 2)) * rng.uniform(0.01, 100.0, size=2)
            if trial % 3 == 0 and n >= 6:
                # a third of the points are hull vertices on a flat arc below
                # the rest: sagitta 1e-3 to 1e-7 of the width (below ~1e-9
                # Qhull's merging of nearly coplanar facets gives other triangles)
                m = n // 3
                u = rng.uniform(0.0, 1.0, m)
                lo, span = pts.min(axis=0), np.ptp(pts, axis=0)
                sagitta = 10.0 ** -(3 + 2 * (trial % 9 // 3))
                pts[:m, 0] = lo[0] + span[0] * u
                pts[:m, 1] = lo[1] - 4 * sagitta * span[0] * u * (1 - u)
            yield trial, pts, rng.standard_normal(n) * rng.uniform(0.1, 10.0)

    def test_matches_qhull_and_linear_interpolator(self):
        checked = 0
        for trial, pts, vals in self.general_position_sets():
            assert sorted_triangles(g.delaunay(pts)) == sorted_triangles(Delaunay(pts).simplices), trial
            x_axis = np.linspace(pts[:, 0].min(), pts[:, 0].max(), 41)
            y_axis = np.linspace(pts[:, 1].min(), pts[:, 1].max(), 37)
            gx, gy = np.meshgrid(x_axis, y_axis)
            want = LinearNDInterpolator(pts, vals)(gx, gy)
            got = g._interpolate(g.ScatterField(pts[:, 0], pts[:, 1], vals), g.delaunay(pts),
                                 x_axis, y_axis)
            finite = np.isfinite(want)
            assert np.array_equal(np.isfinite(got), finite), trial
            scale = np.abs(vals).max()
            assert np.abs(got[finite] - want[finite]).max() <= 1e-12 * scale, trial
            checked += 1
        assert checked == 200

    def test_counter_clockwise_and_every_point_used(self):
        for _, pts, _ in self.general_position_sets():
            tri = g.delaunay(pts)
            assert (doubled_areas(pts[tri]) > 0).all()
            assert set(tri.ravel().tolist()) == set(range(len(pts)))

    def test_duplicates_keep_first_occurrence(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            n = int(rng.integers(4, 40))
            base = rng.uniform(0.0, 1.0, size=(n, 2))
            base_vals = rng.standard_normal(n)
            copies = rng.integers(0, n, size=int(rng.integers(1, 6)))
            pts = np.concatenate([base, base[copies]])
            vals = np.concatenate([base_vals, rng.standard_normal(len(copies))])
            tri = g.delaunay(pts)
            assert tri.max() < n  # only the first occurrence is a vertex
            assert sorted_triangles(tri) == sorted_triangles(g.delaunay(base))
            axis = np.linspace(0.0, 1.0, 30)
            with_copies = g._interpolate(g.ScatterField(pts[:, 0], pts[:, 1], vals), tri,
                                         axis, axis)
            without = g._interpolate(g.ScatterField(base[:, 0], base[:, 1], base_vals),
                                     g.delaunay(base), axis, axis)
            assert np.array_equal(with_copies, without, equal_nan=True)

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 7), (6, 5), (9, 9)])
    def test_cocircular_grid_tiles_hull(self, shape):
        # every square of a regular grid is a tie between its two diagonals
        rng = np.random.default_rng(sum(shape))
        for extra in (0, 3):
            gx, gy = np.meshgrid(np.arange(shape[1]) * 0.25 + 1.0,
                                 np.arange(shape[0]) * 0.05 + 0.1)
            pts = np.column_stack([gx.ravel(), gy.ravel()])
            pts = np.concatenate([pts, rng.uniform(pts.min(0), pts.max(0), size=(extra, 2))])
            pts = pts[rng.permutation(len(pts))]
            tri = g.delaunay(pts)
            assert set(tri.ravel().tolist()) == set(range(len(pts)))
            p = pts[tri]
            areas = doubled_areas(p)
            assert (areas > 0).all()
            hull_area = 2.0 * ConvexHull(pts).volume
            assert abs(areas.sum() - hull_area) <= 1e-12 * hull_area
            for a, b, c in p.tolist():
                assert not any(strictly_in_circumcircle(a, b, c, q) for q in pts.tolist())
            # the same point set in another order gives the same triangles
            again = pts[rng.permutation(len(pts))]
            assert sorted(map(sorted, again[g.delaunay(again)].tolist())) == \
                sorted(map(sorted, p.tolist()))

    def test_grid_values_match_per_point_search(self):
        # every grid point against every triangle; the grid rows and columns
        # run along the horizontal and vertical edges of a lattice of samples,
        # or the grid's diagonal runs along a hull edge, where the two
        # computations' roundoff decides and only the values are compared
        rng = np.random.default_rng(8)
        eps = 100 * np.finfo(np.float64).eps
        cases = []
        for trial in range(30):
            if trial % 2:
                pts = rng.uniform(0.0, 6.0, size=(int(rng.integers(3, 40)), 2))
            else:
                ny, nx = (int(v) for v in rng.integers(2, 7, size=2))
                pts = lattice(nx, ny)
            cases.append((pts, 4 * int(np.ptp(pts[:, 0])) + 1, 4 * int(np.ptp(pts[:, 1])) + 1,
                          False))
        diagonal_rng = np.random.default_rng(4)
        cases += [(diagonal_edge_set(diagonal_rng), 120, 120, True) for _ in range(20)]
        for trial, (pts, nx, ny, on_edge) in enumerate(cases):
            vals = np.sin(3.0 * pts[:, 0]) + pts[:, 1] ** 2
            x_axis = np.linspace(pts[:, 0].min(), pts[:, 0].max(), nx)
            y_axis = np.linspace(pts[:, 1].min(), pts[:, 1].max(), ny)
            tri = g.delaunay(pts)
            got = g._interpolate(g.ScatterField(pts[:, 0], pts[:, 1], vals), tri, x_axis, y_axis)
            p = pts[tri]
            gx, gy = (a.ravel()[:, None] for a in np.meshgrid(x_axis, y_axis))
            ax, ay = p[:, :2, 0] - p[:, 2:, 0], p[:, :2, 1] - p[:, 2:, 1]
            det = ax[:, 0] * ay[:, 1] - ax[:, 1] * ay[:, 0]
            b0 = (ay[:, 1] * (gx - p[:, 2, 0]) - ax[:, 1] * (gy - p[:, 2, 1])) / det
            b1 = (-ay[:, 0] * (gx - p[:, 2, 0]) + ax[:, 0] * (gy - p[:, 2, 1])) / det
            b2 = 1.0 - b0 - b1
            inside = (b0 >= -eps) & (b1 >= -eps) & (b2 >= -eps)
            found = inside.any(axis=1)
            finite = np.isfinite(got).ravel()
            decided = ~np.eye(ny, nx, dtype=bool).ravel() if on_edge else True
            assert np.array_equal(finite & decided, found & decided), trial
            rows = np.flatnonzero(found & finite)
            k = inside.argmax(axis=1)[rows]
            v = vals[tri]
            want = (b0[rows, k] * v[k, 0] + b1[rows, k] * v[k, 1] + b2[rows, k] * v[k, 2])
            assert np.abs(got.ravel()[rows] - want).max() <= 1e-12 * np.abs(vals).max(), trial

    def test_tie_keeps_first_diagonal(self):
        # the unit square's four corners are cocircular; in (x, y) order the
        # triangle (0,0) (0,1) (1,0) comes first, and (1,1) does not break it
        square = np.array([[1.0, 1.0], [0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        assert sorted_triangles(g.delaunay(square)) == [(0, 2, 3), (1, 2, 3)]

    def test_collinear_rejected(self):
        with pytest.raises(ValueError):
            g.delaunay([[0, 0], [1, 1], [2, 2], [0, 0]])


class TestGaussianSmoothing:
    def test_bitwise_equal_to_gaussian_filter(self):
        rng = np.random.default_rng(31)
        for trial in range(240):
            shape = tuple(int(v) for v in rng.integers(1, 60, size=2))
            grid = rng.standard_normal(shape) * (rng.uniform(size=shape) < 0.7)
            if trial % 4 == 0:
                grid = (grid != 0).astype(np.float64)  # a mask, as build_surface smooths
            sigma = [float(rng.uniform(0.05, 6.0)), float(rng.integers(1, 5)),
                     float(rng.uniform(0.3, 1.0) * max(shape))][trial % 3]
            want = gaussian_filter(grid, sigma, mode="constant", cval=0.0)
            assert g._gaussian_smooth(grid, sigma).tobytes() == want.tobytes(), (trial, sigma)


class TestBuildSurface:
    def make_plane_field(self, seed=0, n=60):
        pts = np.random.default_rng(seed).uniform(-1, 3, size=(n, 2))
        vals = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 1.0
        return g.ScatterField(pts[:, 0], pts[:, 1], vals), pts

    def test_affine_reproduction_unsmoothed(self):
        fld, _ = self.make_plane_field()
        grid = g.build_surface(fld, resolution=120, smoothing=0.0)
        gx, gy = np.meshgrid(grid.x_axis, grid.y_axis)
        exact = 2.0 * gx - 3.0 * gy + 1.0
        err = np.abs(grid.values[grid.mask] - exact[grid.mask]).max()
        assert err < 1e-10

    def test_affine_reproduction_smoothed_interior(self):
        fld, _ = self.make_plane_field()
        grid = g.build_surface(fld, resolution=120, smoothing=3.0)
        gx, gy = np.meshgrid(grid.x_axis, grid.y_axis)
        exact = 2.0 * gx - 3.0 * gy + 1.0
        # the truncated kernel spans 4 * 3 = 12 cells in each direction
        interior = binary_erosion(grid.mask, structure=np.ones((3, 3), bool),
                                  iterations=13)
        assert interior.sum() > 100
        err = np.abs(grid.values[interior] - exact[interior]).max()
        assert err < 1e-6

    def test_masked_values_finite(self):
        fld, _ = self.make_plane_field(seed=3)
        for s in (0.0, 1.0, 3.0):
            grid = g.build_surface(fld, resolution=90, smoothing=s)
            assert np.isfinite(grid.values[grid.mask]).all()
            assert np.all(np.isnan(grid.values[~grid.mask]))

    def test_smoothing_reduces_total_variation(self):
        def tv(grid):
            V, m = grid.values, grid.mask
            dx = np.abs(np.diff(V, axis=1))
            mx = m[:, 1:] & m[:, :-1]
            dy = np.abs(np.diff(V, axis=0))
            my = m[1:, :] & m[:-1, :]
            return np.nansum(dx[mx]) + np.nansum(dy[my])

        wins = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            p = rng.uniform(0, 1, size=(50, 2))
            fld = g.ScatterField(p[:, 0], p[:, 1], rng.normal(size=50))
            g0 = g.build_surface(fld, resolution=80, smoothing=0.0)
            g1 = g.build_surface(fld, resolution=80, smoothing=3.0)
            if tv(g1) < tv(g0):
                wins += 1
        assert wins >= 18

    def test_holes_on_a_diagonal_hull_edge(self):
        # grid points on a hull edge along the grid's diagonal can fall
        # outside every triangle by roundoff; the mask leaves them out, as
        # the interpolation does
        rng = np.random.default_rng(4)
        n_holes = 0
        for _ in range(20):
            pts = diagonal_edge_set(rng)
            fld = g.ScatterField(pts[:, 0], pts[:, 1], rng.standard_normal(len(pts)))
            grid = g.build_surface(fld, resolution=120, smoothing=0.0)
            raw = g._interpolate(fld, g.delaunay(pts), grid.x_axis, grid.y_axis)
            assert np.array_equal(grid.mask, np.isfinite(raw))
            assert np.array_equal(grid.values, raw, equal_nan=True)
            n_holes += int(np.sum(~grid.mask.diagonal()))
        assert n_holes > 0

    def test_nonfinite_values_rejected(self):
        # a NaN sample would otherwise leave a hole in the mask, which is
        # where the grid's values are finite
        fld, _ = self.make_plane_field()
        values = fld.values.copy()
        values[4] = np.nan
        with pytest.raises(ValueError, match="finite"):
            g.build_surface(g.ScatterField(fld.xs, fld.ys, values), 200, 3.0)

    def test_resolution_validated(self):
        fld, _ = self.make_plane_field()
        with pytest.raises(ValueError):
            g.build_surface(fld, resolution=1, smoothing=3.0)


def scanned_lines(grid):
    """The per-cell scan's polylines without the point-sized ones, which
    zero_contour drops."""
    return [p for p in oracles.scan(grid) if np.any(p != p[0])]


def map_field(seed, n=60):
    """A scattered plane with a ripple, as the benchmark's regime maps use."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(0.0, 1.0, size=(n, 2)) * [9.0, 0.5] + [1.0, 0.1]
    vals = pts[:, 0] - 5.0 + np.sin(12.0 * pts[:, 1]) + 0.03 * rng.standard_normal(n)
    return g.ScatterField(pts[:, 0], pts[:, 1], vals)


class TestBlockInterpolation:
    """`_interpolate` fills its grid in blocks of triangles; the blocks
    change no bit of the result."""

    def cases(self):
        rng = np.random.default_rng(12)
        for trial in range(12):
            pts = rng.uniform(0.0, 6.0, size=(int(rng.integers(3, 80)), 2))
            yield pts, 4 * trial + 30, 3 * trial + 25
        diagonal_rng = np.random.default_rng(4)
        for _ in range(8):
            yield diagonal_edge_set(diagonal_rng), 120, 120
        fld = map_field(7)
        yield np.column_stack([fld.xs, fld.ys]), 200, 200

    @pytest.mark.parametrize("block", [1, 7, 1000, 10 ** 18])
    def test_bitwise_equal_across_block_sizes(self, monkeypatch, block):
        checked = 0
        for pts, nx, ny in self.cases():
            fld = g.ScatterField(pts[:, 0], pts[:, 1], np.sin(3.0 * pts[:, 0]) + pts[:, 1] ** 2)
            tri = g.delaunay(pts)
            x_axis = np.linspace(pts[:, 0].min(), pts[:, 0].max(), nx)
            y_axis = np.linspace(pts[:, 1].min(), pts[:, 1].max(), ny)
            want = g._interpolate(fld, tri, x_axis, y_axis)
            with monkeypatch.context() as m:
                m.setattr(g, "_BLOCK_POINTS", block)
                got = g._interpolate(fld, tri, x_axis, y_axis)
            assert got.tobytes() == want.tobytes()
            checked += 1
        assert checked == 21

    def test_surface_peak_memory_is_bounded(self):
        # measured on this field: 4.7 grids of float64 (the 200x200 grid
        # interpolated in one pass, then smoothed out of place, peaks at 8.0)
        fld = map_field(5)
        g.build_surface(fld, 200, 3.0)
        tracemalloc.start()
        try:
            g.build_surface(fld, 200, 3.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 6 * 200 * 200 * 8


class TestZeroContour:
    def test_linear_field_within_one_cell(self):
        pts = np.array([[-1, -1], [3, -1], [3, 3], [-1, 3],
                        [1, 0], [0, 1], [2, 1], [1, 2]], float)
        fld = g.ScatterField(pts[:, 0], pts[:, 1], pts[:, 1] - pts[:, 0])
        grid = g.build_surface(fld, resolution=101, smoothing=0.0)
        polys = g.zero_contour(grid)
        assert polys
        cell = grid.x_axis[1] - grid.x_axis[0]
        for p in polys:
            dist = np.abs(p[:, 1] - p[:, 0]) / np.sqrt(2.0)
            assert dist.max() <= cell + 1e-9

    def test_saddle_exact_grid(self):
        ax = np.linspace(-1, 1, 41)
        gx, gy = np.meshgrid(ax, ax)
        grid = g.GridField(ax, ax, gx * gy)
        polys = g.zero_contour(grid)
        cell = ax[1] - ax[0]
        assert polys
        for p in polys:
            d = np.minimum(np.abs(p[:, 0]), np.abs(p[:, 1]))
            assert d.max() <= cell + 1e-12

    def test_no_zero_crossing_no_contour(self):
        ax = np.linspace(0, 1, 20)
        grid = g.GridField(ax, ax, np.ones((20, 20)))
        assert g.zero_contour(grid) == []

    def test_endpoints_on_cell_edges(self):
        rng = np.random.default_rng(7)
        ax = np.arange(30.0)
        grid = g.GridField(ax, ax, rng.normal(size=(30, 30)))
        for p in g.zero_contour(grid):
            for x, y in p:
                assert abs(x - round(x)) < 1e-9 or abs(y - round(y)) < 1e-9

    def test_masked_cells_skipped(self):
        ax = np.linspace(-1, 1, 21)
        gx, _ = np.meshgrid(ax, ax)
        mask = np.zeros_like(gx, bool)
        mask[:, :8] = True  # only the strictly negative side
        vals = np.where(mask, gx, np.nan)
        grid = g.GridField(ax, ax, vals)
        assert g.zero_contour(grid) == []

    def test_matches_per_cell_scan(self):
        # the reference visits every fully masked cell in row-major order
        rng = np.random.default_rng(11)
        for trial in range(12):
            pts = rng.uniform(0.0, 1.0, size=(int(rng.integers(6, 40)), 2))
            fld = g.ScatterField(pts[:, 0], pts[:, 1], rng.normal(size=len(pts)))
            grid = g.build_surface(fld, resolution=int(rng.integers(5, 60)),
                                   smoothing=float(rng.choice([0.0, 1.5])))
            if trial % 3 == 0:  # exact zeros on cell corners
                grid.values[grid.mask] = np.round(grid.values[grid.mask], 1)
            got, want = g.zero_contour(grid), scanned_lines(grid)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))
        # regime-map sized: a tilted plane plus a ripple, smoothed on 200 x 200
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            u, v = rng.uniform(0.0, 1.0, (2, 400))
            theta, phase = rng.uniform(0.0, 2.0 * np.pi, 2)
            vals = (np.cos(theta) * (u - 0.5) + np.sin(theta) * (v - 0.5)
                    + 0.12 * np.sin(2.0 * np.pi * (2.0 * u + 1.5 * v) + phase))
            grid = g.build_surface(g.ScatterField(1.0 + 9.0 * u, 0.1 + 0.5 * v, vals),
                                   resolution=200, smoothing=3.0)
            got, want = g.zero_contour(grid), scanned_lines(grid)
            assert len(got) == len(want) > 0
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("values", [np.ones((1, 5)), np.ones((5, 1)),
                                        np.full((4, 4), np.nan)])
    def test_no_cells_no_contour(self, values):
        values[0, 0] = -1.0
        ny, nx = values.shape
        grid = g.GridField(np.arange(nx, dtype=float), np.arange(ny, dtype=float), values)
        assert g.zero_contour(grid) == []

    @pytest.mark.parametrize("corners, want", [
        # code 5 (a and c positive), centre > 0: a and c join through it
        ((3, -1, 3, -1), [[[0, 0.75], [0.25, 1]], [[0.75, 0], [1, 0.25]]]),
        # code 5, centre < 0, and a zero centre counts as negative
        ((1, -3, 1, -3), [[[0.25, 0], [0, 0.25]], [[1, 0.75], [0.75, 1]]]),
        ((1, -1, 1, -1), [[[0.5, 0], [0, 0.5]], [[1, 0.5], [0.5, 1]]]),
        # code 10 (b and d positive), centre > 0, then centre < 0
        ((-1, 3, -1, 3), [[[0.25, 0], [0, 0.25]], [[1, 0.75], [0.75, 1]]]),
        ((-3, 1, -3, 1), [[[0, 0.75], [0.25, 1]], [[0.75, 0], [1, 0.25]]]),
    ])
    def test_lone_saddle_pairing(self, corners, want):
        a, b, c, d = corners
        grid = g.GridField([0.0, 1.0], [0.0, 1.0], [[a, b], [d, c]])
        assert [p.tolist() for p in g.zero_contour(grid)] == want

    def test_exact_zero_node_joins_four_cells(self):
        # the only zero is the node (1, 1): the line through it joins
        # there, and the point-sized piece that the all-positive cell beyond
        # it crosses at (the per-cell scan keeps it) is dropped
        ax = np.array([0.0, 1.0, 2.0])
        gx, gy = np.meshgrid(ax, ax)
        grid = g.GridField(ax, ax, (gx - 1.0) + 0.5 * (gy - 1.0))
        polys = [p.tolist() for p in g.zero_contour(grid)]
        assert polys == [[[1.5, 0.0], [1.0, 1.0], [0.5, 2.0]]]
        assert polys == [p.tolist() for p in scanned_lines(grid)]
        assert len(oracles.scan(grid)) == 2

    def test_close_but_unequal_crossings_not_joined(self):
        # the node (1, 0) is just below zero, so the two cells beside it
        # cross their bottom edges 2e-12 apart, on two separate branches
        # (keys rounded to 9 decimals joined them into one polyline)
        grid = g.GridField([0.0, 1.0, 2.0], [0.0, 1.0],
                           [[1.0, -1e-12, 1.0], [1.0, -1.0, 1.0]])
        polys = g.zero_contour(grid)
        assert len(polys) == 2 and len(oracles.scan(grid)) == 1
        (b0, t0), (b1, t1) = (p.tolist() for p in polys)
        assert (t0, t1) == ([0.5, 1.0], [1.5, 1.0])
        assert b0[1] == b1[1] == 0.0 and 0.0 < b1[0] - b0[0] < 1e-9

    def test_polylines_are_float64_k_by_2(self):
        rng = np.random.default_rng(3)
        ax = np.arange(25.0)
        polys = g.zero_contour(g.GridField(ax, ax, rng.normal(size=(25, 25))))
        assert polys
        for p in polys:
            assert p.dtype == np.float64 and p.ndim == 2 and p.shape[1] == 2
            assert len(p) >= 2


class TestAreaFractionsAndAgreement:
    def make_linear_grid(self):
        ax = np.linspace(-1, 1, 51)
        gx, gy = np.meshgrid(ax, ax)
        vals = gy - gx
        return g.GridField(ax, ax, vals)

    def test_fractions_sum_and_balance(self):
        grid = self.make_linear_grid()
        fp, fn = g.area_fractions(grid)
        assert fp + fn <= 1.0
        assert fp == fn  # symmetric field
        assert abs(fp - 0.5) < 0.02  # diagonal zeros excluded

    def test_zeros_count_neither(self):
        ax = np.linspace(0, 1, 11)
        vals = np.zeros((11, 11))
        grid = g.GridField(ax, ax, vals)
        assert g.area_fractions(grid) == (0.0, 0.0)

    def test_empty_mask_error(self):
        ax = np.linspace(0, 1, 5)
        grid = g.GridField(ax, ax, np.full((5, 5), np.nan))
        with pytest.raises(ValueError):
            g.area_fractions(grid)

    def test_agreement_self_one(self):
        grid = self.make_linear_grid()
        assert g.sign_agreement(grid, grid) == 1.0

    def test_agreement_negated_only_zeros(self):
        grid = self.make_linear_grid()
        neg = g.GridField(grid.x_axis, grid.y_axis, -grid.values)
        frac_zero = np.mean(grid.values[grid.mask] == 0.0)
        assert g.sign_agreement(grid, neg) == pytest.approx(frac_zero)

    def test_agreement_requires_same_grid(self):
        grid = self.make_linear_grid()
        other_ax = np.linspace(-1, 1, 50)
        other = g.GridField(other_ax, other_ax, np.ones((50, 50)))
        with pytest.raises(ValueError):
            g.sign_agreement(grid, other)
