"""Shared training loop: config, full-batch Adam updates, loss
primitives, checkpointed training, the paired run, and the process pool
that parallel commands train through.

Both model families train through the same loop so that paired benchmark
runs differ only in the model, never in the optimizer.  ``fit`` reads a
run at its ``checkpoint_marks``; every command builds, trains and reads
its CDNN/QDNN pair through ``fit_pair``.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

LOSS_KINDS = ("mse", "bce")
# the paired model families, in the order fit_pair returns them
FAMILIES = ("cdnn", "qdnn")
_BCE_EPS = 1e-7
# Adam moment decay rates and denominator guard
_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8


class TrainingDivergence(RuntimeError):
    """Raised when training hits a non-finite loss or parameter vector;
    ``param_norm`` is the largest |parameter| before the failing step
    (the max-norm, which stays finite wherever the parameters are)."""

    def __init__(self, epoch: int, param_norm: float, detail: str = "non-finite loss"):
        self.epoch = epoch
        self.param_norm = param_norm
        self.detail = detail
        super().__init__(f"{detail} at epoch {epoch} (parameter max-norm {param_norm:.6g})")

    def __reduce__(self):
        # rebuilt from the constructor's arguments, so that it crosses the pool
        return type(self), (self.epoch, self.param_norm, self.detail)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 50
    learning_rate: float = 0.05

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")


def loss_and_output_grad(kind: str, pred: np.ndarray, target: np.ndarray):
    """Mean loss over the batch and its gradient w.r.t. the predictions."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    n = pred.shape[0]
    if kind == "mse":
        diff = pred - target
        with np.errstate(over="ignore"):  # divergence surfaces as inf, caught by fit()
            return float(np.mean(diff ** 2)), 2.0 * diff / n
    if kind == "bce":
        p = np.clip(pred, _BCE_EPS, 1.0 - _BCE_EPS)
        loss = -np.mean(target * np.log(p) + (1.0 - target) * np.log1p(-p))
        return float(loss), (p - target) / (p * (1.0 - p)) / n
    raise ValueError(f"unknown loss kind {kind!r}")


class _Adam:
    def __init__(self, lr: float, n_params: int):
        self.lr = lr
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0

    def step(self, params: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = _ADAM_BETA1 * self.m + (1.0 - _ADAM_BETA1) * grad
        self.v = _ADAM_BETA2 * self.v + (1.0 - _ADAM_BETA2) * grad ** 2
        m_hat = self.m / (1.0 - _ADAM_BETA1 ** self.t)
        v_hat = self.v / (1.0 - _ADAM_BETA2 ** self.t)
        return params - self.lr * m_hat / (np.sqrt(v_hat) + _ADAM_EPS)


def fit(model, X: np.ndarray, y: np.ndarray, loss: str, cfg: TrainConfig,
        marks: Sequence[int] = (), probe: Optional[Callable[[object], object]] = None
        ) -> Tuple[List[float], list]:
    """Train a model in place, one full-batch Adam step per epoch; returns
    each epoch's pre-update loss and ``probe(model)`` read at each of the
    sorted ``marks``: mark 0 before the first step, mark k after the k-th
    update.  The model exposes ``params`` (flat float vector, settable)
    and ``loss_and_grad(X, y, loss)`` evaluated at its current params.
    """
    if loss not in LOSS_KINDS:
        raise ValueError(f"unknown loss kind {loss!r}")
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if len(X) == 0:
        raise ValueError("empty dataset")
    if len(X) != len(y):
        raise ValueError("feature/label length mismatch")
    opt = _Adam(cfg.learning_rate, model.params.size)
    history: List[float] = []
    probes = [probe(model)] if 0 in marks else []
    for epoch in range(cfg.epochs):
        value, grad = model.loss_and_grad(X, y, loss)
        if not np.isfinite(value):
            raise TrainingDivergence(epoch, float(np.linalg.norm(model.params, np.inf)))
        new_params = opt.step(model.params, grad)
        if not np.all(np.isfinite(new_params)):
            raise TrainingDivergence(
                epoch, float(np.linalg.norm(model.params, np.inf)), "non-finite parameters"
            )
        model.params = new_params
        history.append(float(value))
        if epoch + 1 in marks:
            probes.append(probe(model))
    return history, probes


def checkpoint_marks(epochs: int, checkpoints: Sequence[int]) -> List[int]:
    """Sorted epochs at which a run is read: the checkpoints in 1..epochs
    plus the final epoch, which is 0 for an untrained run."""
    return sorted({int(c) for c in checkpoints if 0 < int(c) <= epochs} | {epochs})


def fit_pair(task: str, seed: int, X: np.ndarray, y: np.ndarray, cfg: TrainConfig,
             marks: Sequence[int], probe: Callable[[object], object]
             ) -> List[Optional[list]]:
    """Build the CDNN and the QDNN for ``task`` from one seed, train each
    through ``fit`` on the task's loss (bce for classification, mse
    for regression) and return, in FAMILIES order, each family's probes,
    or None where its training diverged.  The QDNN takes one qubit per
    feature of X up to qsim.MAX_QUBITS, two features per qubit past it."""
    # imported here: cdnn and qdnn import this module
    from . import cdnn, qdnn, qsim

    loss = "bce" if task == "classification" else "mse"
    n_features = X.shape[1]
    build_qdnn = (qdnn.build_default_qdnn if n_features <= qsim.MAX_QUBITS
                  else qdnn.build_paired_feature_qdnn)
    probes: List[Optional[list]] = []
    for net in (cdnn.build_default_cdnn(n_features, task, seed=seed),
                build_qdnn(n_features, task=task, seed=seed)):
        try:
            probes.append(fit(net, X, y, loss, cfg, marks, probe)[1])
        except TrainingDivergence:
            probes.append(None)
    return probes


def pool_map(fn, jobs: list, workers: int) -> list:
    """[fn(job) for job in jobs], spread over n = min(workers, len(jobs))
    forked processes when n > 1; results keep job order.  Worker k runs
    jobs k, k + n, ... and sends back its results, or the exception that
    stopped it, pickled through a pipe.  The caller re-raises the first
    worker's exception, raises RuntimeError for a worker that sent no
    result, and reaps every worker before it returns or raises, killing
    them first if it is interrupted.  Workers compute and return values;
    only the caller touches files."""
    n = min(workers, len(jobs))
    if n < 2:
        return [fn(job) for job in jobs]
    # a forked worker inherits unflushed output and would write it again
    sys.stdout.flush()
    sys.stderr.flush()
    pids: List[int] = []
    reads: List[int] = []
    sent: list = []  # per worker: (ok, results or exception), None if unreadable
    try:
        for k in range(n):
            read, write = os.pipe()
            reads.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _pool_worker(fn, jobs[k::n], k, reads, write)
            finally:
                os.close(write)  # the worker never gets here
            pids.append(pid)
        for read in reads:
            with open(read, "rb", closefd=False) as fh:
                try:
                    sent.append(pickle.load(fh))
                except (EOFError, pickle.UnpicklingError):  # the worker died
                    sent.append(None)
    finally:
        for read in reads:
            os.close(read)
        if len(sent) < len(pids):  # interrupted: stop the workers still running
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
        codes = [os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) for pid in pids]
    results: list = [None] * len(jobs)
    for k, (got, code) in enumerate(zip(sent, codes)):
        if got is None:
            raise RuntimeError(f"pool worker {k} ended without a result (exit code {code})")
        ok, value = got
        if not ok:
            raise value
        results[k::n] = value
    return results


def _pool_worker(fn, jobs: list, k: int, inherited: List[int], write: int) -> None:
    """The body of forked pool worker k: pickle [fn(job) for job in jobs],
    or the exception that stopped it, to the pipe ``write``, then leave
    without returning into the caller's frames."""
    try:
        for fd in inherited:
            os.close(fd)
        try:
            blob = pickle.dumps((True, [fn(job) for job in jobs]), pickle.HIGHEST_PROTOCOL)
        except BaseException as exc:
            try:
                blob = pickle.dumps((False, exc), pickle.HIGHEST_PROTOCOL)
                pickle.loads(blob)  # an exception that pickles may still not load
            except Exception:
                blob = pickle.dumps((False, RuntimeError(
                    f"pool worker {k}: {type(exc).__name__}: {exc}")))
        with open(write, "wb") as fh:
            fh.write(blob)
        sys.stdout.flush()
        sys.stderr.flush()
    finally:
        os._exit(0)
