import numpy as np
import pytest
from scipy.ndimage import binary_erosion

from qqual import geometry as g


def signed_area2(hull):
    x, y = hull[:, 0], hull[:, 1]
    return float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


class TestConvexHull:
    def test_brute_force_membership(self):
        for seed in range(10):
            pts = np.random.default_rng(seed).normal(size=(100, 2))
            hull = g.convex_hull(pts)
            assert signed_area2(hull) > 0  # counter-clockwise
            assert g.points_in_hull(hull, pts[:, 0], pts[:, 1]).all()
            in_set = {tuple(p) for p in pts.tolist()}
            assert all(tuple(v) in in_set for v in hull.tolist())

    def test_square_with_collinear_point(self):
        hull = g.convex_hull([[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0], [0.4, 0.6]])
        assert len(hull) == 4
        assert {tuple(v) for v in hull.tolist()} == {(0, 0), (1, 0), (1, 1), (0, 1)}

    def test_collinear_rejected(self):
        with pytest.raises(ValueError):
            g.convex_hull([[0, 0], [1, 1], [2, 2], [3, 3]])

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            g.convex_hull([[0, 0], [1, 1]])


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

    def test_default_parameters(self):
        fld, _ = self.make_plane_field(seed=5, n=30)
        grid = g.build_surface(fld)
        assert len(grid.x_axis) == 200 and len(grid.y_axis) == 200
        explicit = g.build_surface(fld, resolution=200, smoothing=3.0)
        assert np.array_equal(grid.values, explicit.values, equal_nan=True)

    def test_resolution_validated(self):
        fld, _ = self.make_plane_field()
        with pytest.raises(ValueError):
            g.build_surface(fld, resolution=1)


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
        grid = g.GridField(ax, ax, gx * gy, np.ones_like(gx, bool))
        polys = g.zero_contour(grid)
        cell = ax[1] - ax[0]
        assert polys
        for p in polys:
            d = np.minimum(np.abs(p[:, 0]), np.abs(p[:, 1]))
            assert d.max() <= cell + 1e-12

    def test_no_zero_crossing_no_contour(self):
        ax = np.linspace(0, 1, 20)
        grid = g.GridField(ax, ax, np.ones((20, 20)), np.ones((20, 20), bool))
        assert g.zero_contour(grid) == []

    def test_endpoints_on_cell_edges(self):
        rng = np.random.default_rng(7)
        ax = np.arange(30.0)
        grid = g.GridField(ax, ax, rng.normal(size=(30, 30)), np.ones((30, 30), bool))
        for p in g.zero_contour(grid):
            for x, y in p:
                assert abs(x - round(x)) < 1e-9 or abs(y - round(y)) < 1e-9

    def test_masked_cells_skipped(self):
        ax = np.linspace(-1, 1, 21)
        gx, _ = np.meshgrid(ax, ax)
        mask = np.zeros_like(gx, bool)
        mask[:, :8] = True  # only the strictly negative side
        vals = np.where(mask, gx, np.nan)
        grid = g.GridField(ax, ax, vals, mask)
        assert g.zero_contour(grid) == []

    def test_matches_per_cell_scan(self):
        # the reference visits every fully masked cell in row-major order
        def scan(grid):
            V, m, xs, ys = grid.values, grid.mask, grid.x_axis, grid.y_axis
            segments = []
            for i in range(len(ys) - 1):
                for j in range(len(xs) - 1):
                    if m[i, j] and m[i, j + 1] and m[i + 1, j + 1] and m[i + 1, j]:
                        segments += g._cell_segments(V[i, j], V[i, j + 1], V[i + 1, j + 1],
                                                     V[i + 1, j], xs[j], xs[j + 1],
                                                     ys[i], ys[i + 1])
            return g._stitch(segments)

        rng = np.random.default_rng(11)
        for trial in range(12):
            pts = rng.uniform(0.0, 1.0, size=(int(rng.integers(6, 40)), 2))
            fld = g.ScatterField(pts[:, 0], pts[:, 1], rng.normal(size=len(pts)))
            grid = g.build_surface(fld, resolution=int(rng.integers(5, 60)),
                                   smoothing=float(rng.choice([0.0, 1.5])))
            if trial % 3 == 0:  # exact zeros on cell corners
                grid.values[grid.mask] = np.round(grid.values[grid.mask], 1)
            got, want = g.zero_contour(grid), scan(grid)
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestAreaFractionsAndAgreement:
    def make_linear_grid(self):
        ax = np.linspace(-1, 1, 51)
        gx, gy = np.meshgrid(ax, ax)
        vals = gy - gx
        return g.GridField(ax, ax, vals, np.ones_like(vals, bool))

    def test_fractions_sum_and_balance(self):
        grid = self.make_linear_grid()
        fp, fn = g.area_fractions(grid)
        assert fp + fn <= 1.0
        assert fp == fn  # symmetric field
        assert abs(fp - 0.5) < 0.02  # diagonal zeros excluded

    def test_zeros_count_neither(self):
        ax = np.linspace(0, 1, 11)
        vals = np.zeros((11, 11))
        grid = g.GridField(ax, ax, vals, np.ones((11, 11), bool))
        assert g.area_fractions(grid) == (0.0, 0.0)

    def test_empty_mask_error(self):
        ax = np.linspace(0, 1, 5)
        grid = g.GridField(ax, ax, np.full((5, 5), np.nan), np.zeros((5, 5), bool))
        with pytest.raises(ValueError):
            g.area_fractions(grid)

    def test_agreement_self_one(self):
        grid = self.make_linear_grid()
        assert g.sign_agreement(grid, grid) == 1.0

    def test_agreement_negated_only_zeros(self):
        grid = self.make_linear_grid()
        neg = g.GridField(grid.x_axis, grid.y_axis, -grid.values, grid.mask)
        frac_zero = np.mean(grid.values[grid.mask] == 0.0)
        assert g.sign_agreement(grid, neg) == pytest.approx(frac_zero)

    def test_agreement_requires_same_grid(self):
        grid = self.make_linear_grid()
        other_ax = np.linspace(-1, 1, 50)
        other = g.GridField(other_ax, other_ax, np.ones((50, 50)),
                            np.ones((50, 50), bool))
        with pytest.raises(ValueError):
            g.sign_agreement(grid, other)
