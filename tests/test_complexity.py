import math

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.special import digamma

from qqual import complexity as cx
from qqual import datagen


def default_grid(n=100):
    return np.linspace(-2.0, 4.0, n)


class TestNonlinearity:
    def test_line_zero(self):
        xs = default_grid()
        assert cx.nonlinearity(xs, 3.0 * xs - 1.0) == 0.0

    def test_constant_zero(self):
        xs = default_grid()
        assert cx.nonlinearity(xs, np.full_like(xs, 2.5)) == 0.0

    def test_cos4x_high(self):
        xs = default_grid()
        assert cx.nonlinearity(xs, np.cos(4 * xs)) > 0.9

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            xs = default_grid()
            ys = rng.normal(size=xs.size) * 10
            v = cx.nonlinearity(xs, ys)
            assert 0.0 <= v <= 1.0

    def test_affine_in_y_invariant(self):
        xs = default_grid()
        ys = np.sin(2 * xs) + 0.3 * xs ** 2
        base = cx.nonlinearity(xs, ys)
        assert cx.nonlinearity(xs, -4.0 * ys + 7.0) == pytest.approx(base, abs=1e-12)

    def test_degenerate_xs_error(self):
        with pytest.raises(ValueError):
            cx.nonlinearity(np.ones(50), np.arange(50.0))


class TestLineFit:
    def test_constant_has_no_r2(self):
        xs = default_grid()
        slope, r2 = cx.line_fit(xs, np.full_like(xs, 2.5))
        assert r2 is None
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_nonlinearity_of_a_constant_is_exactly_zero(self):
        xs = default_grid(64)
        for level in (0.0, -3.0, 7.25, 1e-300):
            v = cx.nonlinearity(xs, np.full_like(xs, level))
            assert type(v) is float and v == 0.0 and math.copysign(1.0, v) == 1.0

    def test_exact_line(self):
        xs = default_grid()
        slope, r2 = cx.line_fit(xs, 3.0 * xs - 1.0)
        assert slope == pytest.approx(3.0, rel=1e-12)
        assert r2 == 1.0

    def test_r2_is_one_minus_nonlinearity(self):
        # the same fit serves the metric and the qualifier refit
        rng = np.random.default_rng(4)
        xs = default_grid()
        for scale in (0.0, 0.1, 1.0, 100.0):
            ys = 0.5 * xs + scale * rng.normal(size=xs.size)
            _, r2 = cx.line_fit(xs, ys)
            assert 0.0 <= r2 <= 1.0
            assert cx.nonlinearity(xs, ys) == 1.0 - r2


class TestFrequencyComplexity:
    def test_pure_sinusoid_one(self):
        # commensurate frequency: exactly one populated bin
        n = 128
        t = np.arange(n)
        ys = np.sin(2 * np.pi * 5 * t / n)
        assert cx.frequency_complexity(ys) == 1.0

    def test_cos4x_default_grid(self):
        xs = default_grid()
        assert cx.frequency_complexity(np.cos(4 * xs)) <= 3.0

    def test_white_noise_near_all_bins(self):
        hits = 0
        for seed in range(10):
            ys = np.random.default_rng(seed).standard_normal(100)
            if cx.frequency_complexity(ys) >= 40:
                hits += 1
        assert hits >= 9

    def test_scale_invariant(self):
        ys = np.random.default_rng(3).standard_normal(200)
        assert cx.frequency_complexity(7.0 * ys) == cx.frequency_complexity(ys)

    def test_constant_zero(self):
        assert cx.frequency_complexity(np.full(64, 3.2)) == 0.0


class TestFractalDimension:
    def test_straight_line_near_one(self):
        xs = np.linspace(0, 1, 1000)
        d = cx.fractal_dimension(xs, 2.0 * xs)
        assert abs(d - 1.0) <= 0.05

    def test_smooth_curve_band(self):
        # finite-resolution box counts run slightly high on curved graphs
        xs = np.linspace(-2, 4, 1000)
        d = cx.fractal_dimension(xs, np.sin(xs))
        assert 0.9 <= d <= 1.2

    def test_degenerate_y_range(self):
        # flat curve: y-range is zero, still line-like
        xs = np.linspace(0, 1, 500)
        d = cx.fractal_dimension(xs, np.zeros_like(xs))
        assert abs(d - 1.0) <= 0.05

    def test_noise_increases_dimension(self):
        xs = np.linspace(-2, 4, 100)
        clean = np.cos(4 * xs)
        wins = 0
        for seed in range(10):
            noisy = clean + np.random.default_rng(seed).standard_normal(100)
            if cx.fractal_dimension(xs, noisy) > cx.fractal_dimension(xs, clean):
                wins += 1
        assert wins >= 9

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            cx.fractal_dimension(np.arange(10.0), np.arange(10.0))


class TestMutualInformation:
    def test_independent_near_zero(self):
        hits = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            xs, ys = rng.standard_normal((2, 500))
            if abs(cx.mutual_information(xs, ys)) < 0.15:
                hits += 1
        assert hits >= 9

    def test_affine_rescaling_invariant(self):
        rng = np.random.default_rng(1)
        xs = rng.standard_normal(300)
        ys = xs + 0.5 * rng.standard_normal(300)
        base = cx.mutual_information(xs, ys)
        shifted = cx.mutual_information(3.0 * xs - 1.0, 0.2 * ys + 5.0)
        assert abs(shifted - base) < 0.02

    def test_identical_arrays_high(self):
        xs = np.random.default_rng(2).standard_normal(400)
        assert cx.mutual_information(xs, xs.copy()) > 2.0

    def test_deterministic(self):
        xs = np.random.default_rng(4).standard_normal(200)
        ys = np.random.default_rng(5).standard_normal(200)
        assert cx.mutual_information(xs, ys) == cx.mutual_information(xs, ys)

    def test_strong_dependence_beats_independence(self):
        rng = np.random.default_rng(6)
        xs = rng.standard_normal(400)
        dep = cx.mutual_information(xs, np.sin(3 * xs))
        ind = cx.mutual_information(xs, rng.standard_normal(400))
        assert dep > ind + 0.5


class TestKsgOracle:
    """The KSG pass reproduces the k-d tree estimator bit for bit."""

    @staticmethod
    def kdtree_mi(xs, ys):
        # the estimator as computed with scipy's cKDTree and digamma
        n = len(xs)
        x = (xs - xs.mean()) / xs.std() if xs.std() > 0 else np.zeros(n)
        y = (ys - ys.mean()) / ys.std() if ys.std() > 0 else np.zeros(n)
        rng = np.random.default_rng(12345)
        x = x + rng.standard_normal(n) * (1e-10 * max(np.ptp(x), 1.0))
        y = y + rng.standard_normal(n) * (1e-10 * max(np.ptp(y), 1.0))
        joint = np.column_stack([x, y])
        eps = cKDTree(joint).query(joint, k=4, p=np.inf)[0][:, 3]
        radius = np.nextafter(eps, 0.0)
        nx = cKDTree(x[:, None]).query_ball_point(x[:, None], radius, p=np.inf,
                                                  return_length=True) - 1
        ny = cKDTree(y[:, None]).query_ball_point(y[:, None], radius, p=np.inf,
                                                  return_length=True) - 1
        return float(digamma(3) + digamma(n) - np.mean(digamma(nx + 1) + digamma(ny + 1)))

    def test_digamma_matches_scipy(self):
        ns = np.arange(1, 20002)
        ours = np.array([cx._digamma(int(n)) for n in ns])
        assert ours.tobytes() == digamma(ns.astype(np.float64)).tobytes()

    def test_matches_kdtree_estimator(self):
        rng = np.random.default_rng(2024)
        kinds = ("noise", "ties", "constant_y", "linspace_x", "integer_grid", "dependent")
        for trial in range(300):
            n = int(np.exp(rng.uniform(np.log(20), np.log(1000))))
            if trial < len(kinds):
                n = (20, 1000, 20, 1000, 57, 400)[trial]
            kind = kinds[trial % len(kinds)]
            xs = rng.standard_normal(n)
            ys = rng.standard_normal(n)
            if kind == "ties":
                xs, ys = np.round(xs, 1), np.round(xs + ys, 1)
            elif kind == "constant_y":
                ys = np.full(n, 1.5)
            elif kind == "linspace_x":
                xs = np.linspace(-2.0, 4.0, n)
                ys = np.cos(4 * xs) + 0.1 * ys
            elif kind == "integer_grid":
                xs, ys = np.floor(3 * xs), np.floor(2 * ys)
            elif kind == "dependent":
                ys = xs ** 2 + 0.05 * ys
            assert cx.mutual_information(xs, ys) == self.kdtree_mi(xs, ys), (trial, kind, n)


class TestFourierComplexity:
    def test_zero_signal(self):
        assert cx.fourier_complexity(np.zeros(100)) == 0.0

    def test_slow_signal_low_centroid(self):
        xs = default_grid()
        assert cx.fourier_complexity(xs ** 2) < 1000.0

    def test_white_noise_centroid_band(self):
        hits = 0
        for seed in range(10):
            ys = np.random.default_rng(seed).standard_normal(1000)
            if abs(cx.fourier_complexity(ys) - 4999.5) <= 300.0:
                hits += 1
        assert hits >= 9

    def test_length_guard(self):
        with pytest.raises(ValueError):
            cx.fourier_complexity(np.zeros(20001))

    def test_mean_invariant(self):
        ys = np.random.default_rng(7).standard_normal(256)
        assert cx.fourier_complexity(ys + 100.0) == pytest.approx(
            cx.fourier_complexity(ys), rel=1e-9)


FRACTAL = cx.METRIC_NAMES.index("fractal_dimension")
FOURIER = cx.METRIC_NAMES.index("fourier_complexity")


class TestCharacterize:
    def test_vector_order_matches_names(self):
        xs = default_grid()
        ys = np.cos(4 * xs)
        arr = cx.characterize(xs, ys)
        assert arr.shape == (5,)
        assert cx.METRIC_NAMES == ("nonlinearity", "frequency_complexity",
                                   "fractal_dimension", "mutual_information",
                                   "fourier_complexity")
        assert arr[0] == cx.nonlinearity(xs, ys)
        assert arr[1] == cx.frequency_complexity(ys)
        assert arr[2] == cx.fractal_dimension(xs, ys)
        assert arr[3] == cx.mutual_information(xs, ys)
        assert arr[4] == cx.fourier_complexity(ys)

    def test_reorder_invariant(self):
        rng = np.random.default_rng(8)
        xs = default_grid()
        ys = np.sin(2 * xs) + 0.1 * rng.standard_normal(100)
        perm = rng.permutation(100)
        a = cx.characterize(xs, ys)
        b = cx.characterize(xs[perm], ys[perm])
        assert np.array_equal(a, b)

    def test_noise_monotone_medians(self):
        xs = default_grid()
        clean = np.cos(4 * xs)
        d0, f0, d1, f1 = [], [], [], []
        for seed in range(20):
            noise = np.random.default_rng(seed).standard_normal(100)
            lo = cx.characterize(xs, clean)
            hi = cx.characterize(xs, clean + noise)
            d0.append(lo[FRACTAL])
            f0.append(lo[FOURIER])
            d1.append(hi[FRACTAL])
            f1.append(hi[FOURIER])
        assert np.median(d1) >= np.median(d0)
        assert np.median(f1) >= np.median(f0)

    def test_works_on_generated_curve(self):
        c = datagen.gen_regression_curve("two_tone", sigma=0.1, seed=0)
        assert np.isfinite(cx.characterize(c.xs, c.ys_noisy)).all()
