import math
import os
import pickle
import signal
import time
from dataclasses import fields

import numpy as np
import pytest

from qqual import cdnn, optim, qdnn


class _Quadratic:
    """1-D model: pred = w * x; exposes the trainer protocol."""

    def __init__(self, w0=0.0):
        self._p = np.array([w0], dtype=float)

    @property
    def params(self):
        return self._p

    @params.setter
    def params(self, v):
        self._p = np.asarray(v, dtype=float)

    def loss_and_grad(self, X, y, loss):
        pred = self._p[0] * X[:, 0]
        value, dpred = optim.loss_and_output_grad(loss, pred, y)
        return value, np.array([dpred @ X[:, 0]])


class TestTrainConfig:
    def test_defaults(self):
        cfg = optim.TrainConfig()
        assert [f.name for f in fields(cfg)] == ["epochs", "learning_rate"]
        assert cfg.learning_rate == 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            optim.TrainConfig(epochs=-1)
        with pytest.raises(ValueError):
            optim.TrainConfig(learning_rate=0.0)


class TestLosses:
    def test_mse_value_and_grad(self):
        pred = np.array([1.0, 2.0])
        target = np.array([0.0, 2.0])
        value, grad = optim.loss_and_output_grad("mse", pred, target)
        assert value == pytest.approx(0.5)
        assert np.allclose(grad, [1.0, 0.0])

    def test_bce_matches_finite_difference(self):
        rng = np.random.default_rng(0)
        pred = rng.uniform(0.05, 0.95, size=16)
        target = rng.integers(0, 2, size=16).astype(float)
        _, grad = optim.loss_and_output_grad("bce", pred, target)
        h = 1e-7
        for i in range(16):
            up = pred.copy()
            up[i] += h
            dn = pred.copy()
            dn[i] -= h
            fd = (optim.loss_and_output_grad("bce", up, target)[0]
                  - optim.loss_and_output_grad("bce", dn, target)[0]) / (2 * h)
            assert grad[i] == pytest.approx(fd, rel=1e-5)

    def test_unknown_loss(self):
        with pytest.raises(ValueError):
            optim.loss_and_output_grad("hinge", np.zeros(1), np.zeros(1))


class TestAdam:
    def test_first_steps_match_hand_computation(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8  # eps and betas: the module constants
        opt = optim._Adam(lr, 1)
        p = np.array([1.0])
        g1 = np.array([2.0])
        p = opt.step(p, g1)
        # bias-corrected first step: m_hat = g, v_hat = g^2
        assert p[0] == pytest.approx(1.0 - lr * 2.0 / (2.0 + eps))
        g2 = np.array([-1.0])
        m = b1 * (1 - b1) * 2.0 + (1 - b1) * (-1.0)
        v = b2 * (1 - b2) * 4.0 + (1 - b2) * 1.0
        m_hat = m / (1 - b1 ** 2)
        v_hat = v / (1 - b2 ** 2)
        expect = p[0] - lr * m_hat / (np.sqrt(v_hat) + eps)
        p = opt.step(p, g2)
        assert p[0] == pytest.approx(expect)


class TestFit:
    def _data(self, n=64, seed=0):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 1))
        y = 3.0 * X[:, 0] + 0.01 * rng.normal(size=n)
        return X, y

    def test_zero_epochs(self):
        X, y = self._data()
        model = _Quadratic(0.5)
        losses, _ = optim.fit(model, X, y, "mse", optim.TrainConfig(epochs=0))
        assert losses == []
        assert model.params[0] == 0.5

    def test_history_is_pre_update_loss(self):
        X, y = self._data()
        model = _Quadratic(0.0)
        v0 = model.loss_and_grad(X, y, "mse")[0]
        losses, _ = optim.fit(model, X, y, "mse", optim.TrainConfig(epochs=3))
        assert losses[0] == pytest.approx(v0)
        assert len(losses) == 3

    def test_tiny_learning_rate_barely_moves_params(self):
        # Kingma & Ba 2015, sec. 2.1: an Adam step lr * m_hat / (sqrt(v_hat) + eps)
        # stays within lr * (1 - beta1) / sqrt(1 - beta2) when 1 - beta1 > sqrt(1 - beta2),
        # whatever the gradient's size
        X, y = self._data()
        model = _Quadratic(0.5)
        epochs, lr = 5, 1e-9
        optim.fit(model, X, y, "mse", optim.TrainConfig(epochs=epochs, learning_rate=lr))
        step_bound = lr * (1 - optim._ADAM_BETA1) / np.sqrt(1 - optim._ADAM_BETA2)
        assert 0 < abs(model.params[0] - 0.5) <= epochs * step_bound

    def test_divergence_reports_epoch_and_norm(self):
        # Adam's first step moves w by about lr whatever the gradient, so at
        # lr 1e300 the loss at epoch 1 overflows
        X, y = self._data()
        model = _Quadratic(0.0)
        with pytest.raises(optim.TrainingDivergence, match="non-finite loss") as err:
            optim.fit(model, X, y, "mse",
                      optim.TrainConfig(epochs=200, learning_rate=1e300))
        assert err.value.epoch == 1
        # the parameter is about 1e300, whose 2-norm would overflow to inf
        assert err.value.param_norm == pytest.approx(1e300, rel=1e-6)

    @pytest.mark.parametrize("detail", [None, "non-finite parameters"])
    def test_divergence_survives_a_pickle_round_trip(self, detail):
        args = (3, 2.5) if detail is None else (3, 2.5, detail)
        err = optim.TrainingDivergence(*args)
        back = pickle.loads(pickle.dumps(err))
        assert type(back) is optim.TrainingDivergence
        assert (back.epoch, back.param_norm, str(back)) == (3, 2.5, str(err))

    def test_a_mark_at_every_epoch_sees_each_epoch(self):
        # the loss read at mark k is the pre-update loss of epoch k + 1
        X, y = self._data()
        losses, probes = optim.fit(_Quadratic(0.0), X, y, "mse", optim.TrainConfig(epochs=4),
                                   [0, 1, 2, 3, 4], lambda m: m.loss_and_grad(X, y, "mse")[0])
        assert len(probes) == 5
        assert probes[:4] == losses

    @pytest.mark.parametrize("epochs, checkpoints, marks", [
        (50, [10, 25, 50], [10, 25, 50]),
        (3, [2], [2, 3]),             # the final epoch is always read
        (5, [0, 7, 3.0, 3], [3, 5]),  # outside 1..epochs dropped, repeats merged
        (0, [2], [0]),                # an untrained run is read once, at 0
    ])
    def test_checkpoint_marks(self, epochs, checkpoints, marks):
        assert optim.checkpoint_marks(epochs, checkpoints) == marks

    def test_fit_reads_each_mark_once(self):
        # each probe equals the parameters of a run stopped at that mark;
        # mark 0 is read before the first step
        X, y = self._data()
        for epochs, marks in ((4, [1, 3, 4]), (0, [0])):
            _, probes = optim.fit(_Quadratic(0.5), X, y, "mse",
                                  optim.TrainConfig(epochs=epochs), marks,
                                  lambda model: model.params[0])
            stopped = []
            for mark in marks:
                model = _Quadratic(0.5)
                optim.fit(model, X, y, "mse", optim.TrainConfig(epochs=mark))
                stopped.append(model.params[0])
            assert probes == stopped

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            optim.fit(_Quadratic(), np.zeros((0, 1)), np.zeros(0), "mse",
                      optim.TrainConfig(epochs=1))


class TestSharedLoopWithCdnn:
    def test_determinism_bitwise(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(40, 2))
        y = (X[:, 0] > 0).astype(float)
        runs = []
        for _ in range(2):
            net = cdnn.build_default_cdnn(2, "classification", seed=3)
            losses, _ = optim.fit(net, X, y, "bce", optim.TrainConfig(epochs=10))
            runs.append((losses, net.params.copy()))
        assert runs[0][0] == runs[1][0]
        assert np.array_equal(runs[0][1], runs[1][1])


def _pair_data(n_features, task):
    rng = np.random.default_rng(4)
    X = rng.uniform(-1.0, 1.0, size=(12, n_features))
    if task == "classification":
        return X, (X[:, 0] > 0).astype(float)
    return X, X.sum(axis=1)


class TestFitPair:
    @pytest.mark.parametrize("task", ["classification", "regression"])
    @pytest.mark.parametrize("n_features, n_qubits, build_qdnn", [
        (8, 8, qdnn.build_default_qdnn),          # one qubit per feature
        (16, 8, qdnn.build_paired_feature_qdnn),  # past the cap: two features per qubit
    ])
    def test_builds_both_nets_from_one_seed(self, task, n_features, n_qubits, build_qdnn):
        X, y = _pair_data(n_features, task)
        # an untrained run read at mark 0 returns the nets as built
        (c_net,), (q_net,) = optim.fit_pair(task, 5, X, y, optim.TrainConfig(epochs=0), [0],
                                            lambda net: net)
        assert q_net.circuit.n_qubits == n_qubits
        assert np.array_equal(q_net.params, build_qdnn(n_features, task=task, seed=5).params)
        assert np.array_equal(c_net.params,
                              cdnn.build_default_cdnn(n_features, task, seed=5).params)

    @pytest.mark.parametrize("diverging", [cdnn.MlpModel, qdnn.QdnnModel])
    def test_a_diverged_family_reads_none(self, monkeypatch, diverging):
        X, y = _pair_data(4, "regression")
        cfg, marks = optim.TrainConfig(epochs=3), [1, 3]

        def probe(net):
            return net.forward(X)

        solo = [optim.fit(net, X, y, "mse", cfg, marks, probe)[1]
                for net in (cdnn.build_default_cdnn(4, "regression", seed=2),
                            qdnn.build_default_qdnn(4, task="regression", seed=2))]
        # the second step's loss is NaN: mark 1 was read, yet the family reads None
        steps = []
        loss_and_grad = diverging.loss_and_grad

        def failing(self, X, y, loss):
            steps.append(1)
            value, grad = loss_and_grad(self, X, y, loss)
            return (math.nan if len(steps) == 2 else value), grad

        monkeypatch.setattr(diverging, "loss_and_grad", failing)
        pair = optim.fit_pair("regression", 2, X, y, cfg, marks, probe)
        for net_probes, solo_probes, family in zip(pair, solo, (cdnn.MlpModel, qdnn.QdnnModel)):
            if family is diverging:
                assert net_probes is None
            else:
                assert len(net_probes) == 2
                assert all(np.array_equal(a, b) for a, b in zip(net_probes, solo_probes))


class _JobFailed(ValueError):
    pass


class _Interrupted(Exception):
    pass


class _TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from its one pickled argument."""

    def __init__(self, a, b):
        super().__init__(f"{a}/{b}")


def _job_and_pid(job):
    return job, os.getpid()


def _fail_on_4(job):
    if job == 4:
        raise _JobFailed(f"job {job} failed")
    return job


def _diverge_on_3(job):
    if job == 3:
        raise optim.TrainingDivergence(job, 2.5)
    return job


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestPoolMap:
    @pytest.fixture(autouse=True)
    def deadline(self):
        """A pool that hangs fails its test instead of the suite; forked
        workers inherit the handler but not the alarm."""
        def expire(signum, frame):
            raise _Interrupted("deadline")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("n_jobs", [2, 3, 7])  # fewer jobs than workers, as many, more
    def test_results_keep_job_order(self, n_jobs):
        jobs = list(range(10, 10 + n_jobs))
        out = optim.pool_map(_job_and_pid, jobs, 3)
        assert [job for job, _ in out] == jobs
        pids = [pid for _, pid in out]
        n = min(3, n_jobs)
        assert os.getpid() not in pids and len(set(pids)) == n
        # job k ran on worker k mod n
        assert all(pids[k] == pids[k % n] for k in range(n_jobs))
        _assert_no_child_left()

    def test_one_worker_or_one_job_runs_in_the_caller(self):
        assert optim.pool_map(_job_and_pid, [1, 2], 1) == [(1, os.getpid()), (2, os.getpid())]
        assert optim.pool_map(_job_and_pid, [1], 4) == [(1, os.getpid())]
        assert optim.pool_map(_job_and_pid, [], 4) == []

    def test_worker_exception_is_reraised(self):
        with pytest.raises(_JobFailed, match="^job 4 failed$"):
            optim.pool_map(_fail_on_4, list(range(7)), 2)
        _assert_no_child_left()

    def test_a_training_divergence_is_reraised_with_its_epoch_and_norm(self):
        with pytest.raises(optim.TrainingDivergence) as err:
            optim.pool_map(_diverge_on_3, list(range(6)), 2)
        assert type(err.value) is optim.TrainingDivergence
        assert (err.value.epoch, err.value.param_norm) == (3, 2.5)
        _assert_no_child_left()

    @pytest.mark.parametrize("how", ["exit", "sigkill"])
    def test_a_worker_that_dies_raises(self, how):
        def die_on_3(job):
            if job == 3:
                if how == "exit":
                    os._exit(1)
                os.kill(os.getpid(), signal.SIGKILL)
            return job

        code = 1 if how == "exit" else -signal.SIGKILL
        with pytest.raises(RuntimeError,
                           match=rf"pool worker 1 ended without a result \(exit code {code}\)"):
            optim.pool_map(die_on_3, list(range(6)), 2)
        _assert_no_child_left()

    @pytest.mark.parametrize("exc, text", [
        (_JobFailed(lambda: None), "_JobFailed: <function"),  # cannot be pickled
        (_TwoArgError(1, 2), "_TwoArgError: 1/2"),             # cannot be unpickled
    ])
    def test_an_exception_that_cannot_travel_still_raises(self, exc, text):
        def fail(job):
            raise exc

        with pytest.raises(RuntimeError, match=f"pool worker 0: {text}"):
            optim.pool_map(fail, [1, 2], 2)
        _assert_no_child_left()

    def test_a_result_that_cannot_be_pickled_raises(self):
        with pytest.raises(Exception, match="pickle"):
            optim.pool_map(lambda job: (lambda: job), [1, 2], 2)
        _assert_no_child_left()

    def test_an_interrupted_caller_kills_its_workers(self):
        signal.setitimer(signal.ITIMER_REAL, 0.3)
        start = time.monotonic()
        with pytest.raises(_Interrupted):
            optim.pool_map(time.sleep, [30, 30], 2)
        assert time.monotonic() - start < 10
        _assert_no_child_left()
