"""Fixed-shape layer probes: one call of one layer at a stated size, timed
untraced, repeated; each reports its median, minimum and repeat count.

Shapes follow the layer list of the roadmap: gate applications at 8 qubits
and batch 100, QDNN forwards and gradients from 4 to 12 qubits and 24 to
181 samples (``q8b100`` = 8 qubits, batch 100), one CDNN gradient, one
dataset characterization and one regime map's surface, contour and SVG.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from qqual import cdnn, qdnn, qsim, svgplot
from qqual.complexity import characterize
from qqual.datagen import gen_regression_curve
from qqual.geometry import ScatterField, build_surface, zero_contour

import workloads

# a cheap call's first run is a warm-up; stop once the repeats fill the
# budget, or after two repeats of a call that alone overruns it
BUDGET_S = 0.5
MIN_REPEATS = 3
MAX_REPEATS = 200
GATES_PER_PROBE = 64


def _time(fn) -> list:
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    times = [] if first < 0.25 * BUDGET_S else [first]
    while len(times) < MAX_REPEATS:
        spent = sum(times)
        if (len(times) >= MIN_REPEATS and spent >= BUDGET_S) or \
                (len(times) >= 2 and spent >= 4 * BUDGET_S):
            break
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return times


def _gate_circuit(kind: str) -> qsim.CircuitSpec:
    n = 8
    if kind == "rx_feature":
        gates = [qsim.rx(k % n, feature=k % n) for k in range(GATES_PER_PROBE)]
    elif kind == "ry_param":
        gates = [qsim.ry(k % n, param=k) for k in range(GATES_PER_PROBE)]
    else:
        gates = [qsim.cnot(k % n, (k + 1) % n) for k in range(GATES_PER_PROBE)]
    return qsim.CircuitSpec(n, [gates])


def _grad_call(model, rng, batch: int, loss: str):
    X = rng.uniform(-2.0, 4.0, (batch, model.n_features))
    if loss == "bce":
        y = (rng.uniform(size=batch) > 0.5).astype(float)
    else:
        y = rng.normal(size=batch)
    return lambda: model.loss_and_grad(X, y, loss)


def probe_calls(seed: int, out_dir: str) -> dict:
    """name -> (unit, scale from seconds, call)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 104729]))
    calls = {}
    for kind in ("rx_feature", "ry_param", "cnot"):
        spec = _gate_circuit(kind)
        params = rng.uniform(-np.pi, np.pi, spec.n_params)
        X = rng.uniform(-2.0, 4.0, (100, 8))
        calls[f"qsim.gate_us.{kind}_q8b100"] = (
            "us", 1e6 / GATES_PER_PROBE,
            lambda spec=spec, params=params, X=X: qsim.run_circuit(spec, params, X))
    for n_qubits, batch in ((4, 24), (8, 24), (8, 100), (8, 181), (12, 24)):
        model = qdnn.build_default_qdnn(n_qubits, task="regression", seed=seed)
        calls[f"qdnn.grad_ms.q{n_qubits}b{batch}"] = ("ms", 1e3,
                                                      _grad_call(model, rng, batch, "mse"))
    model = qdnn.build_default_qdnn(8, task="regression", seed=seed)
    X181 = rng.uniform(-2.0, 4.0, (181, 8))
    calls["qdnn.fwd_ms.q8b181"] = ("ms", 1e3, lambda: model.forward(X181))
    paired = qdnn.build_paired_feature_qdnn(16, task="classification", seed=seed)
    calls["qdnn.grad_ms.paired16b100"] = ("ms", 1e3, _grad_call(paired, rng, 100, "bce"))
    mlp = cdnn.build_default_cdnn(8, "regression", seed=seed)
    calls["cdnn.grad_ms.reg8b100"] = ("ms", 1e3, _grad_call(mlp, rng, 100, "mse"))
    curve = gen_regression_curve("cos4x", 100, (-2.0, 4.0), 0.25, seed=seed)
    calls["complexity.characterize_ms.n100"] = (
        "ms", 1e3, lambda: characterize(curve.xs, curve.ys_noisy))
    xs, ys, measured, _ = workloads.map_fields(seed, 1)[0]
    fld = ScatterField(xs, ys, measured)
    grid = build_surface(fld, workloads.MAP_RESOLUTION, workloads.MAP_SMOOTHING)
    contours = zero_contour(grid)
    svg_path = os.path.join(out_dir, "map.svg")
    calls["geometry.build_surface_ms.r200"] = (
        "ms", 1e3,
        lambda: build_surface(fld, workloads.MAP_RESOLUTION, workloads.MAP_SMOOTHING))
    calls["geometry.zero_contour_ms.r200"] = ("ms", 1e3, lambda: zero_contour(grid))
    calls["svgplot.regime_map_ms.r200"] = (
        "ms", 1e3, lambda: svgplot.regime_map(svg_path, grid, contours, [], "probe map",
                                              ["probe"], "Q^2 (GeV^2)", "x_B"))
    return calls


def run_all(seed: int, out_dir: str) -> dict:
    os.makedirs(out_dir, exist_ok=True)
    results = {}
    for name, (unit, scale, call) in probe_calls(seed, out_dir).items():
        times = [t * scale for t in _time(call)]
        results[name] = {"median": statistics.median(times), "min": min(times),
                         "repeats": len(times), "unit": unit}
    return results


def runs_per_grad(tracer) -> float:
    """Circuit runs per QDNN gradient at 8 qubits, 2 layers, batch 100,
    counted with the tracer: 2P+1 = 65 for the parameter-shift rule."""
    model = qdnn.build_default_qdnn(8, n_layers=2, task="regression", seed=0)
    rng = np.random.default_rng(0)
    grad = _grad_call(model, rng, 100, "mse")
    with tracer.installed():
        grad()
    s = tracer.summary()
    return s["qsim.run_circuit"]["calls"] / s["qdnn.loss_and_grad"]["calls"]
