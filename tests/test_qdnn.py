import tracemalloc

import numpy as np
import pytest

from qqual import optim, qdnn, qsim
from qsim_oracles import expectation, parameter_shift_grad


class TestBuild:
    def test_default_param_count(self):
        m = qdnn.build_default_qdnn(8, 2)
        assert m.circuit.n_params == 8 * 2 * 2
        # trainable affine map adds scale and offset
        assert m.params.size == 32 + 2

    def test_feature_count_cap(self):
        with pytest.raises(ValueError):
            qdnn.build_default_qdnn(13, 1)

    def test_seeded_build_reproducible(self):
        a = qdnn.build_default_qdnn(4, 2, seed=5)
        b = qdnn.build_default_qdnn(4, 2, seed=5)
        assert np.array_equal(a.params, b.params)

    def test_paired_encoding_feature_capacity(self):
        m = qdnn.build_paired_feature_qdnn(16, task="classification")
        assert m.circuit.n_qubits == 8
        assert m.n_features == 16

    def test_classification_map_is_frozen(self):
        m = qdnn.build_default_qdnn(8, 2, task="classification")
        assert not m.trainable_map
        assert m.params.size == m.circuit.n_params


class TestForward:
    def test_zero_layer_identity_map_on_zero_input(self):
        m = qdnn.build_default_qdnn(3, 0)
        m.scale, m.offset = 1.0, 0.0
        assert m.forward(np.array([[0.0, 0.0, 0.0]]))[0] == pytest.approx(1.0)

    def test_single_feature_zero_layers_is_cosine(self):
        m = qdnn.build_default_qdnn(1, 0, seed=2)
        for x in (0.0, 0.4, 1.3):
            expect = m.scale * np.cos(x) + m.offset
            assert m.forward(np.array([[x]]))[0] == pytest.approx(expect, abs=1e-12)

    def test_mean_z_on_product_state(self):
        m = qdnn.build_default_qdnn(4, 0)
        x = np.array([0.2, 0.9, 1.5, -0.4])
        assert m.readout_expectations(x.reshape(1, -1))[0] == pytest.approx(
            np.mean(np.cos(x)), abs=1e-12)

    def test_raw_readout_bounded(self):
        rng = np.random.default_rng(0)
        m = qdnn.build_default_qdnn(5, 2, seed=1)
        X = rng.normal(scale=3.0, size=(16, 5))
        e = m.readout_expectations(X)
        assert np.all(np.abs(e) <= 1.0 + 1e-12)

    def test_classification_output_in_unit_interval(self):
        rng = np.random.default_rng(4)
        m = qdnn.build_default_qdnn(4, 2, task="classification", seed=3)
        X = rng.normal(scale=2.0, size=(32, 4))
        p = m.forward(X)
        assert np.all((p >= 0.0) & (p <= 1.0))


class TestGradient:
    def test_loss_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        m = qdnn.build_default_qdnn(2, 1, seed=7)
        X = rng.normal(size=(6, 2))
        y = rng.normal(size=6)
        _, g = m.loss_and_grad(X, y, "mse")
        p0 = m.params.copy()
        h = 1e-6
        for i in range(p0.size):
            up = p0.copy()
            up[i] += h
            m.params = up
            lp = m.loss_and_grad(X, y, "mse")[0]
            dn = p0.copy()
            dn[i] -= h
            m.params = dn
            lm = m.loss_and_grad(X, y, "mse")[0]
            m.params = p0
            assert g[i] == pytest.approx((lp - lm) / (2 * h), abs=1e-6)

    def test_q12_gradient_peak_stays_under_ten_state_blocks(self):
        # the adjoint sweep keeps block states and carries lam alone; an
        # (n_qubits, B, 2**n) intermediate would be 12 blocks on its own
        rng = np.random.default_rng(12)
        m = qdnn.build_default_qdnn(12, seed=12)
        X = rng.uniform(-2.0, 4.0, size=(24, 12))
        y = rng.normal(size=24)
        tracemalloc.start()
        try:
            m.loss_and_grad(X, y, "mse")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 24 * 2 ** 12 * 16
        assert peak < 10 * block

    def test_classification_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        m = qdnn.build_default_qdnn(2, 1, task="classification", seed=8)
        X = rng.normal(size=(6, 2))
        y = rng.integers(0, 2, 6).astype(float)
        _, g = m.loss_and_grad(X, y, "bce")
        p0 = m.params.copy()
        h = 1e-6
        for i in range(p0.size):
            up = p0.copy()
            up[i] += h
            m.params = up
            lp = m.loss_and_grad(X, y, "bce")[0]
            dn = p0.copy()
            dn[i] -= h
            m.params = dn
            lm = m.loss_and_grad(X, y, "bce")[0]
            m.params = p0
            assert g[i] == pytest.approx((lp - lm) / (2 * h), rel=1e-4, abs=1e-6)


class TestDeadAngles:
    # the last layer's RZ angles (24-31 at 8 qubits) act just before the
    # CNOT ring and the Z readout: a diagonal gate before a basis
    # permutation only moves phases, which Z cannot see.  The ring maps
    # Z_0 to Z_1...Z_{n-1}, so a classifier, which reads qubit 0 alone,
    # cannot see that layer's RY on qubit 0 (angle 16) either.
    DEAD = {"regression": list(range(24, 32)), "classification": [16] + list(range(24, 32))}

    @pytest.mark.parametrize("task", ["regression", "classification"])
    def test_dead_angles_have_no_gradient_and_no_effect(self, task):
        rng = np.random.default_rng(8)
        m = qdnn.build_default_qdnn(8, 2, task=task, seed=1)
        m.theta = rng.uniform(-np.pi, np.pi, size=m.circuit.n_params)
        X = rng.uniform(-2.0, 4.0, size=(20, 8))
        y = (rng.uniform(size=20) > 0.5).astype(float)
        loss = "bce" if task == "classification" else "mse"
        _, grad = m.loss_and_grad(X, y, loss)
        dead = self.DEAD[task]
        live = np.delete(np.arange(m.circuit.n_params), dead)
        assert np.max(np.abs(grad[dead])) < 1e-15
        assert np.min(np.abs(grad[live])) > 1e-6
        before = m.forward(X)
        m.theta[dead] += rng.uniform(-np.pi, np.pi, size=len(dead))
        assert np.max(np.abs(m.forward(X) - before)) < 1e-14


class TestReadoutWeights:
    @pytest.mark.parametrize("build", [
        lambda: qdnn.build_default_qdnn(8, task="regression", seed=2),
        lambda: qdnn.build_paired_feature_qdnn(16, task="classification", seed=2)])
    def test_readout_is_the_mean_expectation(self, build):
        # four varying columns, the rest constant, as in a dvcs set's grid
        m = build()
        rng = np.random.default_rng(3)
        X = np.repeat(rng.normal(size=(1, m.n_features)), 60, axis=0)
        X[:, :4] = rng.normal(size=(60, 4))
        want = qsim.run_circuit(m.circuit, m.theta, X)[1].mean(axis=1)
        assert np.max(np.abs(m.readout_expectations(X) - want)) <= 1e-14


class TestSingleReadout:
    def _model(self):
        layers = [[qsim.rx(q, feature=q) for q in range(3)],
                  [qsim.ry(q, param=q) for q in range(3)],
                  [qsim.cnot(0, 1), qsim.cnot(1, 2), qsim.rz(2, param=3)]]
        circuit = qsim.CircuitSpec(3, layers, [2])
        theta = np.array([0.3, -0.7, 1.1, 0.4])
        return qdnn.QdnnModel(circuit, theta, scale=-0.5, offset=0.5, trainable_map=False)

    def test_forward_reads_the_readout_qubit(self):
        m = self._model()
        X = np.random.default_rng(3).normal(size=(5, 3))
        run, _ = qsim.run_circuit(m.circuit, m.theta, X)
        z2 = [expectation(s, 2) for s in run.states]
        assert np.allclose(m.forward(X), 0.5 - 0.5 * np.array(z2), atol=1e-14)

    def test_mean_of_one_expectation_is_that_expectation(self):
        # the classifier's readout is bit for bit its one observable's <Z>
        m = self._model()
        X = np.random.default_rng(5).normal(size=(6, 3))
        _, vals = qsim.run_circuit(m.circuit, m.theta, X)
        assert vals.shape == (6, 1)
        assert np.array_equal(m.readout_expectations(X), vals[:, 0])

    def test_gradient_matches_parameter_shift(self):
        m = self._model()
        rng = np.random.default_rng(4)
        X = rng.normal(size=(7, 3))
        y = rng.integers(0, 2, 7).astype(float)
        _, g = m.loss_and_grad(X, y, "bce")
        _, dpred = optim.loss_and_output_grad("bce", m.forward(X), y)
        oracle = m.scale * dpred @ parameter_shift_grad(m.circuit, m.theta, X)
        assert np.max(np.abs(g - oracle)) <= 1e-12


class TestTrain:
    def test_zero_epochs_unchanged(self):
        m = qdnn.build_default_qdnn(2, 1, seed=0)
        p0 = m.params.copy()
        losses, _ = optim.fit(m, np.zeros((4, 2)), np.zeros(4), "mse",
                              optim.TrainConfig(epochs=0))
        assert losses == []
        assert np.array_equal(m.params, p0)

    def test_exactly_representable_target_is_learned(self):
        # model class {scale*cos(x + theta) + offset}: embed RX(x) then RX(theta)
        circuit = qsim.CircuitSpec(
            1, [[qsim.rx(0, feature=0)], [qsim.rx(0, param=0)]], [0])
        m = qdnn.QdnnModel(circuit, [0.05], scale=1.0, offset=0.0)
        X = np.array([[-1.0], [0.0], [1.0], [2.0]])
        y = 0.8 * np.cos(X[:, 0] + 0.4) - 0.1
        losses, _ = optim.fit(m, X, y, "mse", optim.TrainConfig(epochs=500))
        assert losses[-1] < 1e-3

    def test_bitwise_deterministic_history(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 3))
        y = rng.normal(size=12)
        runs = []
        for _ in range(2):
            m = qdnn.build_default_qdnn(3, 1, seed=4)
            losses, _ = optim.fit(m, X, y, "mse", optim.TrainConfig(epochs=6))
            runs.append((losses, m.params.copy()))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])

    def test_divergence_reports_epoch(self):
        # the first Adam step moves every parameter by about lr, so at epoch 1
        # the output map's gradient is of order lr and its square overflows
        # Adam's second moment
        m = qdnn.build_default_qdnn(1, 1, seed=0)
        X = np.array([[0.3]])
        y = np.array([1.0])
        with pytest.raises(optim.TrainingDivergence, match="non-finite parameters") as err:
            optim.fit(m, X, y, "mse", optim.TrainConfig(epochs=2000, learning_rate=1e150))
        assert err.value.epoch == 1


@pytest.mark.slow
class TestLossImprovement:
    def test_benchmark_task_improves_for_most_seeds(self):
        xs = np.linspace(-2.0, 4.0, 100)
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            ys = np.cos(4.0 * xs) + 0.1 * rng.normal(size=xs.size)
            X = np.repeat(xs.reshape(-1, 1), 8, axis=1)
            m = qdnn.build_default_qdnn(8, 2, seed=seed)
            losses, _ = optim.fit(m, X, ys, "mse", optim.TrainConfig(epochs=20))
            if np.mean(losses[-10:]) < np.mean(losses[:10]):
                wins += 1
        assert wins >= 8
