import numpy as np
import pytest

from qqual import cdnn, optim


def hand_forward(model, X):
    h = X
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = h @ w.T + b
        h = np.maximum(z, 0.0) if l < len(model.weights) - 1 else z
    if model.head == "sigmoid":
        h = 1.0 / (1.0 + np.exp(-h))
    return h[:, 0]


class TestForward:
    def test_zero_net_sigmoid_gives_half(self):
        m = cdnn.build_default_cdnn(4, "classification", seed=0)
        m.params = np.zeros_like(m.params)
        assert m.forward(np.array([[3.0, -1.0, 0.0, 9.9]]))[0] == pytest.approx(0.5)

    def test_identity_net_is_relu(self):
        m = cdnn.MlpModel([1, 1, 1], "linear",
                          [np.array([[1.0]]), np.array([[1.0]])],
                          [np.zeros(1), np.zeros(1)])
        for x in (-2.0, -0.1, 0.0, 0.7, 3.0):
            assert m.forward(np.array([[x]]))[0] == pytest.approx(max(x, 0.0))

    def test_matches_hand_rolled_oracle(self):
        rng = np.random.default_rng(12)
        m = cdnn.build_default_cdnn(5, "regression", seed=12)
        X = rng.normal(size=(20, 5))
        assert np.allclose(m.forward(X), hand_forward(m, X), atol=1e-12)

    def test_dimension_mismatch(self):
        m = cdnn.build_default_cdnn(3, "regression")
        with pytest.raises(ValueError):
            m.forward(np.zeros((4, 2)))


class TestBackprop:
    def test_zero_gradient_at_minimum(self):
        # pred = w*x with w at the least-squares optimum
        m = cdnn.MlpModel([1, 1], "linear", [np.array([[2.0]])], [np.zeros(1)])
        X = np.array([[1.0], [2.0], [-1.0]])
        y = 2.0 * X[:, 0]
        g = m.loss_and_grad(X, y, "mse")[1]
        assert np.abs(g).max() < 1e-10

    @pytest.mark.parametrize("task,loss", [("classification", "bce"),
                                           ("regression", "mse")])
    def test_matches_finite_differences(self, task, loss):
        h = 1e-6
        for seed in range(20):
            rng = np.random.default_rng(seed)
            m = cdnn.build_default_cdnn(3, task, seed=seed)
            X = rng.normal(size=(8, 3))
            y = rng.integers(0, 2, 8).astype(float) if loss == "bce" \
                else rng.normal(size=8)
            _, g = m.loss_and_grad(X, y, loss)
            p0 = m.params.copy()
            for i in range(0, p0.size, 7):
                up = p0.copy()
                up[i] += h
                m.params = up
                lp = m.loss_and_grad(X, y, loss)[0]
                dn = p0.copy()
                dn[i] -= h
                m.params = dn
                lm = m.loss_and_grad(X, y, loss)[0]
                m.params = p0
                fd = (lp - lm) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-5, abs=1e-7)

    def test_duplicated_batch_leaves_mean_gradient_unchanged(self):
        rng = np.random.default_rng(1)
        m = cdnn.build_default_cdnn(2, "regression", seed=1)
        X = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        g1 = m.loss_and_grad(X, y, "mse")[1]
        g2 = m.loss_and_grad(np.vstack([X, X]), np.hstack([y, y]), "mse")[1]
        assert np.allclose(g1, g2, atol=1e-14)


class TestBuild:
    def test_classification_param_count(self):
        m = cdnn.build_default_cdnn(8, "classification")
        assert m.params.size == 8 * 8 + 8 + 8 * 1 + 1

    def test_sixteen_feature_variant(self):
        m = cdnn.build_default_cdnn(16, "classification")
        assert m.layer_dims == [16, 8, 1]

    def test_regression_topology(self):
        m = cdnn.build_default_cdnn(1, "regression")
        assert m.layer_dims == [1, 32, 32, 1]
        assert m.head == "linear"

    def test_seeded_init_is_reproducible(self):
        a = cdnn.build_default_cdnn(4, "classification", seed=9)
        b = cdnn.build_default_cdnn(4, "classification", seed=9)
        assert np.array_equal(a.params, b.params)


class TestTrain:
    def test_zero_epochs_unchanged(self):
        m = cdnn.build_default_cdnn(2, "regression", seed=0)
        p0 = m.params.copy()
        losses, _ = optim.fit(m, np.zeros((4, 2)), np.zeros(4), "mse",
                              optim.TrainConfig(epochs=0))
        assert losses == []
        assert np.array_equal(m.params, p0)

    def test_xor_is_learnable(self):
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        y = np.array([0.0, 1.0, 1.0, 0.0])
        wins = 0
        for seed in range(10):
            m = cdnn.build_default_cdnn(2, "classification", seed=seed)
            optim.fit(m, X, y, "bce", optim.TrainConfig(epochs=500))
            acc = np.mean((m.forward(X) > 0.5).astype(float) == y)
            wins += acc == 1.0
        assert wins >= 8
