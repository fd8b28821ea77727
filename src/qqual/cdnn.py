"""Small dense network baseline: ReLU hidden layers, sigmoid or linear
head, manual backpropagation.  Kept deliberately minimal so the paired
benchmarks vary only the model family, not the training machinery."""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from . import optim

HEADS = ("sigmoid", "linear")


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class MlpModel:
    """Fully connected net; W_l maps dims[l] -> dims[l+1]."""

    def __init__(self, layer_dims: Sequence[int], head: str,
                 weights: List[np.ndarray], biases: List[np.ndarray]):
        if head not in HEADS:
            raise ValueError(f"unknown head {head!r}")
        dims = list(layer_dims)
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ValueError("layer_dims must list at least input and output sizes")
        for l, (w, b) in enumerate(zip(weights, biases)):
            if w.shape != (dims[l + 1], dims[l]) or b.shape != (dims[l + 1],):
                raise ValueError(f"layer {l} shape mismatch")
        self.layer_dims = dims
        self.head = head
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]

    @property
    def n_features(self) -> int:
        return self.layer_dims[0]

    @property
    def params(self) -> np.ndarray:
        return np.concatenate([a.ravel() for pair in zip(self.weights, self.biases) for a in pair])

    @params.setter
    def params(self, flat: np.ndarray):
        flat = np.asarray(flat, dtype=np.float64)
        pos = 0
        for l in range(len(self.weights)):
            w, b = self.weights[l], self.biases[l]
            self.weights[l] = flat[pos:pos + w.size].reshape(w.shape)
            pos += w.size
            self.biases[l] = flat[pos:pos + b.size]
            pos += b.size
        if pos != flat.size:
            raise ValueError(f"expected {pos} params, got {flat.size}")

    def _forward_cached(self, X: np.ndarray):
        """(output, input of each layer): ReLU hidden layers, then the head."""
        acts = [X]
        for w, b in zip(self.weights[:-1], self.biases[:-1]):
            acts.append(np.maximum(acts[-1] @ w.T + b, 0.0))
        z = acts[-1] @ self.weights[-1].T + self.biases[-1]
        out = _sigmoid(z) if self.head == "sigmoid" else z
        return out[:, 0], acts

    def forward(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_features:
            raise ValueError(f"expected {self.n_features} features, got {X.shape[1]}")
        return self._forward_cached(X)[0]

    def loss_and_grad(self, X: np.ndarray, y: np.ndarray, loss: str) -> Tuple[float, np.ndarray]:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        pred, acts = self._forward_cached(X)
        value, dpred = optim.loss_and_output_grad(loss, pred, y)
        if self.head == "sigmoid":
            # chain through the sigmoid; for bce this collapses to (p - y)/n
            dz = dpred * pred * (1.0 - pred)
        else:
            dz = dpred
        delta = dz[:, None]
        grads_w = [None] * len(self.weights)
        grads_b = [None] * len(self.weights)
        for l in range(len(self.weights) - 1, -1, -1):
            grads_w[l] = delta.T @ acts[l]
            grads_b[l] = delta.sum(axis=0)
            if l > 0:
                delta = (delta @ self.weights[l]) * (acts[l] > 0.0)
        flat = np.concatenate([a.ravel() for pair in zip(grads_w, grads_b) for a in pair])
        return value, flat


def build_default_cdnn(n_features: int, task: str, seed: int = 0) -> MlpModel:
    """Classification: [n_features, 8, 1] with sigmoid head.
    Regression: [n_features, 32, 32, 1] with linear head."""
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    if task == "classification":
        dims = [n_features, 8, 1]
        head = "sigmoid"
    elif task == "regression":
        dims = [n_features, 32, 32, 1]
        head = "linear"
    else:
        raise ValueError(f"unknown task {task!r}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = np.sqrt(6.0 / fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(dims, head, weights, biases)
