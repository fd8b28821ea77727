"""Deterministic synthetic dataset factories for the classification and
regression benchmarks.

Regression curves sample a named target function on a uniform grid with
additive Gaussian noise.  Classification sets place two classes on a
shared smooth generator, separated by a constant per-feature offset, so
that the noiseless problem stays provably nearest-centroid separable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

# Named in rough order of increasing wiggliness/spectral content.
REGRESSION_FUNCTIONS: Dict[str, callable] = {
    "quad": lambda x: x ** 2 / 4.0 - 1.0,
    "tanh3x": lambda x: np.tanh(3.0 * x),
    "sin2x_quad": lambda x: np.sin(2.0 * x) + 0.3 * x ** 2,
    "cos4x": lambda x: np.cos(4.0 * x),
    "damped_cos4x": lambda x: np.cos(4.0 * x) * np.exp(-x ** 2 / 4.0),
    "two_tone": lambda x: np.sin(5.0 * x) + np.cos(2.0 * x),
}
# the x interval every regression curve is sampled on
X_RANGE = (-2.0, 4.0)

# Classification generator: three base frequencies, none of whose first or
# second harmonics is a multiple of 8 or 16, so the per-sample feature sum
# vanishes identically for equally spaced phases (keeps the noiseless
# nearest-centroid margin exact).
_CLASS_FREQS = (1, 3, 5)
_CLASS_OFFSET = 1.0


def _class_generator(k: int, t: np.ndarray) -> np.ndarray:
    w = _CLASS_FREQS[k]
    return np.sin(w * t) + 0.2 * np.cos(2 * w * t)


@dataclass
class Curve:
    xs: np.ndarray
    ys_true: np.ndarray
    ys_noisy: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=np.float64)
        self.ys_true = np.asarray(self.ys_true, dtype=np.float64)
        self.ys_noisy = np.asarray(self.ys_noisy, dtype=np.float64)
        if not (len(self.xs) == len(self.ys_true) == len(self.ys_noisy)):
            raise ValueError("curve arrays must share one length")
        if len(self.xs) >= 2:
            steps = np.diff(self.xs)
            if np.any(steps <= 0):
                raise ValueError("xs must be strictly increasing")
            if np.max(np.abs(steps - steps[0])) > 1e-12:
                raise ValueError("xs must be uniformly spaced")


@dataclass
class LabeledDataset:
    X: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=np.float64)
        self.y = np.asarray(self.y)
        if self.X.ndim != 2 or len(self.X) == 0:
            raise ValueError("X must be a nonempty (n, F) matrix")
        if len(self.X) != len(self.y):
            raise ValueError("feature/label count mismatch")
        if not np.all(np.isin(self.y, (0, 1))):
            raise ValueError("labels must be 0/1")


def gen_regression_curve(function_id: str, n_points: int = 100,
                         x_range: Tuple[float, float] = X_RANGE,
                         sigma: float = 0.1, seed: int = 0) -> Curve:
    """Sample a target function on a uniform grid, endpoints included."""
    if function_id not in REGRESSION_FUNCTIONS:
        raise ValueError(f"unknown function_id {function_id!r}; "
                         f"known: {sorted(REGRESSION_FUNCTIONS)}")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    if sigma < 0:
        raise ValueError("sigma must be >= 0")
    xs = np.linspace(x_range[0], x_range[1], n_points)
    ys_true = REGRESSION_FUNCTIONS[function_id](xs)
    rng = np.random.default_rng(seed)
    noise = sigma * rng.standard_normal(n_points) if sigma > 0 else np.zeros(n_points)
    return Curve(xs, ys_true, ys_true + noise)


def gen_classification_set(kind: str = "3func", n_pairs: int = 250, n_features: int = 8,
                           noise_level: float = 0.05, seed: int = 0) -> LabeledDataset:
    """Two-class set: X_j = g_k(t + phi_j) + class * _CLASS_OFFSET + noise.

    Latent t is uniform per sample; phases phi_j are equally spaced with a
    seeded global shift; ``1func`` uses one generator, ``3func`` draws k
    per sample from three.  Noise is Gaussian with per-feature standard
    deviation noise_level * std(noiseless feature).  Classes balanced
    within one sample.
    """
    if kind not in ("1func", "3func"):
        raise ValueError(f"kind must be '1func' or '3func', got {kind!r}")
    if n_pairs < 2:
        raise ValueError("n_pairs must be >= 2")
    if n_features < 1:
        raise ValueError("n_features must be >= 1")
    if noise_level < 0:
        raise ValueError("noise_level must be >= 0")
    rng = np.random.default_rng(seed)
    n = n_pairs
    phases = 2.0 * np.pi * np.arange(n_features) / n_features + rng.uniform(0, 2 * np.pi)
    t = rng.uniform(0, 2 * np.pi, size=n)
    ks = np.zeros(n, dtype=int) if kind == "1func" else rng.integers(0, 3, size=n)
    labels = np.zeros(n, dtype=int)
    labels[: n // 2] = 1
    labels = labels[rng.permutation(n)]
    clean = np.empty((n, n_features))
    for k in range(3):
        sel = ks == k
        if np.any(sel):
            clean[sel] = _class_generator(k, t[sel, None] + phases[None, :])
    clean = clean + labels[:, None] * _CLASS_OFFSET
    if noise_level > 0:
        sd = clean.std(axis=0)
        X = clean + rng.standard_normal(clean.shape) * (noise_level * sd)
    else:
        X = clean
    return LabeledDataset(X, labels)
