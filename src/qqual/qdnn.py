"""Quantum network model: angle-encoded inputs, stacked trainable
rotation layers with CNOT-ring entanglers, a readout that averages the
circuit's Pauli-Z expectations, and an affine output map.  Gradients of
circuit angles come from one forward run and one adjoint sweep
(``qsim.vjp``); the output map trains by the chain rule.  Predictions
read the weighted expectations alone (``qsim.readout``).  Both simulate
the span of the batch's embedded rows when it is small enough (see
``qsim``): bench-reg's one x on every qubit gives 9 states for 100 rows."""

from __future__ import annotations

import functools
from typing import List, Tuple

import numpy as np

from . import optim, qsim

# trainable [RY, RZ, CNOT ring] layers after the embedding
N_LAYERS = 2


class QdnnModel:
    """Circuit plus readout and affine output map.

    The readout is the mean of the circuit's Pauli-Z expectations: the
    one observed qubit's <Z> for a classifier, the average over every
    qubit for a regressor.  ``trainable_map=True`` appends (scale, offset) to the trainable
    vector; a frozen map keeps them fixed, as in the classification
    squash p = (1 - <Z_0>)/2.
    """

    def __init__(self, circuit: qsim.CircuitSpec, theta: np.ndarray,
                 scale: float = 1.0, offset: float = 0.0, trainable_map: bool = True):
        theta = np.asarray(theta, dtype=np.float64)
        if theta.shape != (circuit.n_params,):
            raise ValueError(f"expected {circuit.n_params} circuit params, got {theta.shape}")
        self.circuit = circuit
        self.theta = theta.copy()
        self.scale = float(scale)
        self.offset = float(offset)
        self.trainable_map = trainable_map

    @property
    def n_features(self) -> int:
        return self.circuit.n_features

    @property
    def params(self) -> np.ndarray:
        if self.trainable_map:
            return np.concatenate([self.theta, [self.scale, self.offset]])
        return self.theta.copy()

    @params.setter
    def params(self, flat: np.ndarray):
        flat = np.asarray(flat, dtype=np.float64)
        p = self.circuit.n_params
        expected = p + 2 if self.trainable_map else p
        if flat.shape != (expected,):
            raise ValueError(f"expected {expected} params, got {flat.shape}")
        self.theta = flat[:p].copy()
        if self.trainable_map:
            self.scale = float(flat[p])
            self.offset = float(flat[p + 1])

    def readout_expectations(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        n_obs = len(self.circuit.observables)
        return qsim.readout(self.circuit, self.theta, X, np.full(n_obs, 1.0 / n_obs))

    def forward(self, X: np.ndarray) -> np.ndarray:
        return self.scale * self.readout_expectations(X) + self.offset

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray, loss: str) -> Tuple[float, np.ndarray]:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        run, vals = qsim.run_circuit(self.circuit, self.theta, X)
        e = vals.mean(axis=1)
        value, dpred = optim.loss_and_output_grad(loss, self.scale * e + self.offset, y)
        # cotangent of vals: the transpose of the mean applied to scale * dpred
        n_obs = vals.shape[1]
        cot = np.repeat((self.scale * dpred)[:, None] / n_obs, n_obs, axis=1)
        grad_theta = qsim.vjp(run, cot)
        if not self.trainable_map:
            return value, grad_theta
        d_scale = float(dpred @ e)
        d_offset = float(dpred.sum())
        return value, np.concatenate([grad_theta, [d_scale, d_offset]])


def _ring_layers(n_qubits: int, n_layers: int) -> List[List[qsim.Gate]]:
    layers: List[List[qsim.Gate]] = []
    p = 0
    for _ in range(n_layers):
        block: List[qsim.Gate] = []
        for q in range(n_qubits):
            block.append(qsim.ry(q, param=p))
            p += 1
        for q in range(n_qubits):
            block.append(qsim.rz(q, param=p))
            p += 1
        if n_qubits > 1:
            for q in range(n_qubits):
                block.append(qsim.cnot(q, (q + 1) % n_qubits))
        layers.append(block)
    return layers


@functools.lru_cache(maxsize=None)
def _circuit(n_qubits: int, embed: Tuple[qsim.Gate, ...], n_layers: int,
             observables: Tuple[int, ...]) -> qsim.CircuitSpec:
    """The compiled circuit of one network shape, built once per process:
    every paired run builds its QDNN anew, and a CircuitSpec is frozen."""
    return qsim.CircuitSpec(n_qubits, [embed] + _ring_layers(n_qubits, n_layers), observables)


def _finish_build(n_qubits, embed, n_layers, task, seed) -> QdnnModel:
    # a classifier reads qubit 0 alone, a regressor the mean over every qubit
    if task == "classification":
        observables, scale, offset, trainable = (0,), -0.5, 0.5, False
    elif task == "regression":
        observables, scale, offset, trainable = tuple(range(n_qubits)), 1.0, 0.0, True
    else:
        raise ValueError(f"unknown task {task!r}")
    circuit = _circuit(n_qubits, tuple(embed), n_layers, observables)
    rng = np.random.default_rng(seed)
    theta = rng.uniform(-np.pi / 10, np.pi / 10, size=circuit.n_params)
    return QdnnModel(circuit, theta, scale, offset, trainable)


def build_default_qdnn(n_features: int, n_layers: int = N_LAYERS, task: str = "regression",
                       seed: int = 0) -> QdnnModel:
    """One qubit per feature: RX(x_i) embedding on qubit i, then n_layers
    of [RY, RZ on every qubit, CNOT ring]."""
    if not 1 <= n_features <= qsim.MAX_QUBITS:
        raise ValueError(f"n_features must be in 1..{qsim.MAX_QUBITS}")
    embed = [qsim.rx(q, feature=q) for q in range(n_features)]
    return _finish_build(n_features, embed, n_layers, task, seed)


def build_paired_feature_qdnn(n_features: int, task: str = "regression",
                              seed: int = 0) -> QdnnModel:
    """Two features per qubit (RX then RZ), for feature counts past the
    qubit cap; qubit i encodes features i and q+i.  N_LAYERS trainable
    layers follow, as in ``build_default_qdnn``."""
    n_qubits = (n_features + 1) // 2
    if not 1 <= n_qubits <= qsim.MAX_QUBITS:
        raise ValueError(f"{n_features} features need {n_qubits} qubits, cap is {qsim.MAX_QUBITS}")
    embed = [qsim.rx(q, feature=q) for q in range(n_qubits)]
    embed += [qsim.rz(i - n_qubits, feature=i) for i in range(n_qubits, n_features)]
    return _finish_build(n_qubits, embed, N_LAYERS, task, seed)
