import numpy as np
import pytest

from qqual import datagen


class TestRegressionCurve:
    def test_grid_uniform_endpoints(self):
        c = datagen.gen_regression_curve("quad", n_points=100, x_range=(-2.0, 4.0))
        assert len(c.xs) == 100
        assert c.xs[0] == -2.0 and c.xs[-1] == 4.0
        steps = np.diff(c.xs)
        assert np.allclose(steps, 6.0 / 99.0, atol=1e-12)

    def test_function_values(self):
        c = datagen.gen_regression_curve("quad", sigma=0.0)
        assert np.allclose(c.ys_true, c.xs ** 2 / 4.0 - 1.0)
        c = datagen.gen_regression_curve("cos4x", sigma=0.0)
        assert np.allclose(c.ys_true, np.cos(4.0 * c.xs))
        c = datagen.gen_regression_curve("tanh3x", sigma=0.0)
        assert np.allclose(c.ys_true, np.tanh(3.0 * c.xs))
        c = datagen.gen_regression_curve("two_tone", sigma=0.0)
        assert np.allclose(c.ys_true, np.sin(5.0 * c.xs) + np.cos(2.0 * c.xs))

    def test_sigma_zero_noiseless(self):
        c = datagen.gen_regression_curve("sin2x_quad", sigma=0.0)
        assert np.array_equal(c.ys_true, c.ys_noisy)

    def test_noise_scale(self):
        cs = [datagen.gen_regression_curve("quad", n_points=4000, sigma=0.5, seed=s)
              for s in range(3)]
        sds = [np.std(c.ys_noisy - c.ys_true) for c in cs]
        assert all(abs(sd - 0.5) < 0.05 for sd in sds)

    def test_seeded_reproducibility(self):
        a = datagen.gen_regression_curve("damped_cos4x", sigma=0.3, seed=42)
        b = datagen.gen_regression_curve("damped_cos4x", sigma=0.3, seed=42)
        assert np.array_equal(a.ys_noisy, b.ys_noisy)
        c = datagen.gen_regression_curve("damped_cos4x", sigma=0.3, seed=43)
        assert not np.array_equal(a.ys_noisy, c.ys_noisy)

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            datagen.gen_regression_curve("septic")

    def test_six_functions_available(self):
        assert len(datagen.REGRESSION_FUNCTIONS) == 6

    def test_curve_validates_grid(self):
        with pytest.raises(ValueError):
            datagen.Curve([0.0, 1.0, 1.5], [0.0] * 3, [0.0] * 3)
        with pytest.raises(ValueError):
            datagen.Curve([0.0, 1.0, 0.5], [0.0] * 3, [0.0] * 3)


class TestClassificationSet:
    def test_shapes_and_balance(self):
        ds = datagen.gen_classification_set(n_pairs=250, n_features=8)
        assert ds.X.shape == (250, 8)
        assert ds.y.shape == (250,)
        counts = np.bincount(ds.y, minlength=2)
        assert abs(int(counts[0]) - int(counts[1])) <= 1

    def test_balance_odd(self):
        ds = datagen.gen_classification_set(n_pairs=251)
        counts = np.bincount(ds.y, minlength=2)
        assert abs(int(counts[0]) - int(counts[1])) <= 1

    def test_sixteen_features(self):
        ds = datagen.gen_classification_set(n_features=16)
        assert ds.X.shape[1] == 16

    def test_noiseless_nearest_centroid_perfect(self):
        for kind in ("1func", "3func"):
            for seed in range(3):
                ds = datagen.gen_classification_set(kind=kind, n_pairs=200,
                                                    noise_level=0.0, seed=seed)
                mu0 = ds.X[ds.y == 0].mean(axis=0)
                mu1 = ds.X[ds.y == 1].mean(axis=0)
                d0 = np.linalg.norm(ds.X - mu0, axis=1)
                d1 = np.linalg.norm(ds.X - mu1, axis=1)
                preds = (d1 < d0).astype(int)
                assert np.array_equal(preds, ds.y)

    def test_seeded_reproducibility(self):
        a = datagen.gen_classification_set(seed=5)
        b = datagen.gen_classification_set(seed=5)
        assert np.array_equal(a.X, b.X) and np.array_equal(a.y, b.y)

    def test_kind_rejected(self):
        with pytest.raises(ValueError):
            datagen.gen_classification_set(kind="2func")

    def test_one_func_uses_single_generator(self):
        # with no noise and the class offset taken out, all rows of a 1func
        # set lie on one curve family: rank of centered X is at most 2 (sin
        # and cos terms of two frequencies span a small space)
        ds = datagen.gen_classification_set(kind="1func", n_pairs=100,
                                            noise_level=0.0, seed=1)
        clean = ds.X - ds.y[:, None] * datagen._CLASS_OFFSET
        rank = np.linalg.matrix_rank(clean - clean.mean(axis=0), tol=1e-8)
        assert rank <= 4
