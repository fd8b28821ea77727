"""Acceptance gate: one test per shipped guarantee.

Each test prints one PASS/FAIL line with the measured values (visible
with `pytest tests/test_acceptance.py -s`) and asserts the stated
tolerance.  Reference anchors quoted in the printed lines are context,
not gates, unless the assert says otherwise.
"""

import csv
import math
import time

import numpy as np
import pytest

from qqual import cli
from qqual import complexity as cx
from qqual import dvcs as dv
from qqual import geometry as g
from qqual import perfmetrics as pm
from qqual import qsim
from qqual import qualifier as qf
from qsim_oracles import parameter_shift_grad


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}", flush=True)
    assert ok, f"{name}: {detail}"


def random_circuit(rng, n_qubits, n_layers):
    layers = []
    p = 0
    for _ in range(n_layers):
        layer = []
        for q in range(n_qubits):
            kind = rng.choice(["rx", "ry", "rz"])
            layer.append(qsim.Gate(kind, q, param=p))
            p += 1
        if n_qubits > 1:
            a, b = rng.choice(n_qubits, size=2, replace=False)
            layer.append(qsim.cnot(int(a), int(b)))
        layers.append(layer)
    return qsim.CircuitSpec(n_qubits, layers, [0]), p


class TestExactValues:
    def test_qualifier_table_fidelity(self):
        t = qf.reference_table()
        spot_ok = (t.alpha == 0.0101 and t.coefficients[0][0] == -1.17
                   and t.coefficients[3][0] == 0.548
                   and t.coefficients[4][4] == 2.03e-17)
        m = np.array(t.centerings)
        v0 = qf.eval_qualifier(t, m, 7)
        m1 = m.copy()
        m1[0] += 1.0
        v1 = qf.eval_qualifier(t, m1, 0)
        v2 = qf.eval_qualifier(t, m1, 100)
        evals_ok = (abs(v0) <= 1e-12 and abs(v1 - (-1.17)) <= 1e-12
                    and abs(v2 - 0.0710) <= 1e-4)
        report("qualifier table fidelity", spot_ok and evals_ok,
               f"spot coefficients exact={spot_ok}; centered -> {v0:.1e} "
               f"(tol 1e-12), unit offset at budget 0 -> {v1:.6f} "
               f"(target -1.17, tol 1e-12), at budget 100 -> {v2:.6f} "
               f"(target 0.0710, tol 1e-4)")

    def test_efficiency_reference_values(self):
        e1 = pm.classification_efficiency([[65, 6], [9, 70]])
        e2 = pm.classification_efficiency([[70, 24], [4, 52]])
        documented = "0.8144" in cli._EFFICIENCY_NOTE
        ok = abs(e1 - 0.8998) <= 1e-4 and abs(e2 - 0.8151) <= 1e-4 and documented
        report("macro-precision reference values", ok,
               f"{e1:.4f} (target 0.8998 +/- 1e-4), {e2:.4f} (target 0.8151 "
               f"+/- 1e-4); 0.8144 rounding discrepancy documented in "
               f"bench-class reports={documented}")

    def test_regression_deviation_exactness(self):
        xs = np.linspace(-2.0, 4.0, 100)
        gap = pm.m_reg(xs, np.cos(xs) + 0.5, np.cos(xs))
        xs2 = np.linspace(-2.0, 4.0, 1000)
        coarse = pm.m_reg(xs2, np.abs(xs2), np.zeros_like(xs2))
        fine = np.linspace(-2.0, 4.0, 100000)
        oracle = float(np.trapezoid(np.abs(fine), fine))
        ok = abs(gap - 3.0) <= 1e-12 and abs(coarse - oracle) <= 1e-4
        report("regression deviation metric", ok,
               f"constant gap -> {gap!r} (target 3.0, tol 1e-12); |x| case "
               f"{coarse:.6f} vs refined-grid oracle {oracle:.6f} (tol 1e-4)")

    def test_simulator_gradients_and_norms(self):
        t0 = time.time()
        h = 1e-5
        worst_grad = 0.0
        for i in range(20):
            rng = np.random.default_rng(1000 + i)
            n = int(rng.integers(1, 5))
            spec, p = random_circuit(rng, n, int(rng.integers(1, 4)))
            params = rng.uniform(-np.pi, np.pi, size=p)
            no_features = np.zeros((1, 0))
            grad = parameter_shift_grad(spec, params, no_features)[0]
            for k in range(p):
                up, dn = params.copy(), params.copy()
                up[k] += h
                dn[k] -= h
                fd = (qsim.run_circuit(spec, up, no_features)[1][0, 0]
                      - qsim.run_circuit(spec, dn, no_features)[1][0, 0]) / (2 * h)
                worst_grad = max(worst_grad, abs(grad[k] - fd))
        worst_norm = 0.0
        for i in range(1000):
            rng = np.random.default_rng(5000 + i)
            n = int(rng.integers(1, 5))
            spec, p = random_circuit(rng, n, int(rng.integers(1, 5)))
            params = rng.uniform(-2 * np.pi, 2 * np.pi, size=p)
            state = qsim.run_circuit(spec, params, np.zeros((1, 0)))[0].states[0]
            worst_norm = max(worst_norm, abs(np.vdot(state, state).real - 1.0))
        dt = time.time() - t0
        ok = worst_grad <= 1e-6 and worst_norm <= 1e-10 and dt < 10.0
        report("simulator correctness", ok,
               f"parameter-shift vs finite differences worst {worst_grad:.2e} "
               f"(tol 1e-6, 20 circuits); norm drift worst {worst_norm:.2e} "
               f"(tol 1e-10, 1000 sequences); {dt:.1f}s (< 10 s)")

    def test_bundled_corpus_counts(self):
        sets = dv.synthetic_corpus(seed=0)
        counts = {}
        for s in sets:
            counts[s.experiment] = counts.get(s.experiment, 0) + s.n_points
        expected = {"Hall_A_E12-06-114": 1080, "Hall_A_E07-007": 404,
                    "Hall_A_E00-110": 468, "Hall_B_e1-DVCS1": 1933}
        issues = [msg for s in sets for msg in dv.envelope_issues(s)]
        total = sum(counts.values())
        ok = counts == expected and total == 3885 and not issues
        report("bundled corpus schema", ok,
               f"per-experiment points {counts} (target {expected}), total "
               f"{total} (target 3885), envelope issues {len(issues)}")


class TestDirectionalShapes:
    @pytest.mark.slow
    def test_classification_direction(self):
        t0 = time.time()
        block = cli.DEFAULTS["bench-class"]
        n_seeds = max(10, block["ensemble"])
        c_effs, q_effs = [], []
        for rep in range(n_seeds):
            _, _, c_eff, q_eff, _ = cli._class_replica(
                (dict(cli._CLASS_DEFAULT), rep, block["seed"], block["epochs"],
                 block["learning_rate"], block["n_eval"]))
            assert not (math.isnan(c_eff) or math.isnan(q_eff))
            c_effs.append(c_eff)
            q_effs.append(q_eff)
        c_mean, q_mean = float(np.mean(c_effs)), float(np.mean(q_effs))
        dt = time.time() - t0
        ok = q_mean > c_mean and dt < 1800
        report("classification direction", ok,
               f"ensemble-mean QDNN efficiency {q_mean:.4f} > CDNN "
               f"{c_mean:.4f} over {n_seeds} seeds at {block['epochs']} "
               f"epochs; {dt:.0f}s (< 30 min)")

    def test_qualifier_round_trip(self):
        res = cli._round_trip_check(qf.reference_table(), seed=0)
        ok = res["rms"] <= 1e-2
        report("qualifier round-trip", ok,
               f"refit rms {res['rms']:.2e} over {res['n_entries']} corpus "
               f"entries (tol 1e-2 RMS)")

    @pytest.mark.slow
    def test_regime_map_shape(self, tmp_path):
        out = tmp_path / "dvcs"
        code = cli.main(["dvcs", "--out", str(out)])
        assert code == cli.EXIT_OK
        stats = {}
        with open(out / "stats.csv", newline="") as fh:
            for row in csv.DictReader(fh):
                stats[(float(row["lam"]), row["statistic"])] = float(row["value"])
        lams = cli.DEFAULTS["dvcs"]["lams"]
        areas = [stats[(lam, "area_xi_positive")] for lam in lams]
        agrees = [stats[(lam, "sign_agreement_xi_vs_xi_hat")] for lam in lams]
        selfs = [stats[(lam, "sign_agreement_xi_vs_xi_self_check")] for lam in lams]
        mono = all(b >= a - 1e-12 for a, b in zip(areas, areas[1:]))
        agree_ok = all(a > 0.5 for a in agrees)
        ok = mono and agree_ok and all(s == 1.0 for s in selfs)
        area_txt = ", ".join(f"{a:.3f}" for a in areas)
        agree_txt = ", ".join(f"{a:.3f}" for a in agrees)
        report("regime-map shape", ok,
               f"Area(xi>0) over lam {list(lams)} = [{area_txt}] "
               f"non-decreasing={mono} (reference anchors 0.24 -> 0.83); "
               f"sign agreement [{agree_txt}] all > 0.5 (reference anchor "
               f"0.84-0.90); self-check rows all 1.0")


class TestGeometrySuite:
    def brute_hull_edges(self, pts):
        n = len(pts)
        edges = set()
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                d = pts[j] - pts[i]
                cr = (d[0] * (pts[:, 1] - pts[i, 1])
                      - d[1] * (pts[:, 0] - pts[i, 0]))
                others = np.delete(cr, [i, j])
                if np.all(others > 0):
                    edges.add((i, j))
        return edges

    def test_geometry_suite(self):
        # the mask against a brute-force hull: a grid point inside every
        # hull edge by more than tol is masked, one outside an edge is not
        tol = 1e-9
        mask_ok, compared = True, 0
        for seed in range(3):
            pts = np.random.default_rng(seed).uniform(-5, 5, size=(100, 2))
            grid = g.build_surface(g.ScatterField(pts[:, 0], pts[:, 1], pts[:, 0]), 120, 0.0)
            gx, gy = np.meshgrid(grid.x_axis, grid.y_axis)
            depth = np.full(gx.shape, np.inf)  # least distance inside an edge
            for i, j in self.brute_hull_edges(pts):
                d = pts[j] - pts[i]
                depth = np.minimum(depth, (d[0] * (gy - pts[i, 1]) - d[1] * (gx - pts[i, 0]))
                                   / np.hypot(d[0], d[1]))
            inside, outside = depth > tol, depth < -tol
            mask_ok = mask_ok and grid.mask[inside].all() and not grid.mask[outside].any()
            compared += int(inside.sum() + outside.sum())
        # affine-field interpolation exactness
        pts = np.random.default_rng(0).uniform(-1, 3, size=(60, 2))
        fld = g.ScatterField(pts[:, 0], pts[:, 1],
                             2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 1.0)
        grid = g.build_surface(fld, resolution=120, smoothing=0.0)
        gx, gy = np.meshgrid(grid.x_axis, grid.y_axis)
        exact = 2.0 * gx - 3.0 * gy + 1.0
        affine_err = float(np.abs(grid.values[grid.mask] - exact[grid.mask]).max())
        # zero contour of a linear field stays within one grid cell
        pts = np.array([[-1, -1], [3, -1], [3, 3], [-1, 3],
                        [1, 0], [0, 1], [2, 1], [1, 2]], float)
        fld = g.ScatterField(pts[:, 0], pts[:, 1], pts[:, 1] - pts[:, 0])
        lin = g.build_surface(fld, resolution=101, smoothing=0.0)
        polys = g.zero_contour(lin)
        cell = lin.x_axis[1] - lin.x_axis[0]
        contour_err = max(float(np.abs(p[:, 1] - p[:, 0]).max()) / np.sqrt(2.0)
                          for p in polys) if polys else math.inf
        ok = mask_ok and affine_err <= 1e-10 and contour_err <= cell + 1e-9
        report("geometry suite", ok,
               f"mask matches a brute-force hull beyond {tol:g} of its edges on "
               f"3x100-point clouds at 120x120 ({compared} grid points compared)="
               f"{mask_ok}; affine interpolation error {affine_err:.1e} "
               f"(tol 1e-10); linear zero-contour offset {contour_err:.4f} "
               f"<= one cell ({cell:.4f})")


class TestComplexityInvariants:
    def test_complexity_invariants(self):
        xs = np.linspace(-2.0, 4.0, 1000)
        lines_ok = (cx.nonlinearity(xs, 3.0 * xs - 1.0) == 0.0
                    and cx.nonlinearity(xs, np.full_like(xs, 2.5)) == 0.0)
        t = np.arange(128)
        sin_ok = cx.frequency_complexity(np.sin(2 * np.pi * 5 * t / 128)) == 1.0
        smooth = {"line": 2 * xs - 1, "flat": np.zeros_like(xs),
                  "quad": xs ** 2, "sin": np.sin(xs), "tanh3": np.tanh(3 * xs)}
        dims = {k: cx.fractal_dimension(xs, v) for k, v in smooth.items()}
        dims_ok = all(abs(d - 1.0) <= 0.05 for d in dims.values())
        mi_hits = 0
        for seed in range(10):
            a, b = np.random.default_rng(seed).standard_normal((2, 500))
            if abs(cx.mutual_information(a, b)) < 0.15:
                mi_hits += 1
        fc_hits = 0
        for seed in range(10):
            ys = np.random.default_rng(seed).standard_normal(1000)
            if abs(cx.fourier_complexity(ys) - 4999.5) <= 300.0:
                fc_hits += 1
        ok = lines_ok and sin_ok and dims_ok and mi_hits >= 9 and fc_hits >= 9
        dim_txt = ", ".join(f"{k}={v:.3f}" for k, v in dims.items())
        report("complexity invariants", ok,
               f"nonlinearity of lines = 0 exactly={lines_ok}; frequency "
               f"complexity of a pure sinusoid = 1 exactly={sin_ok}; box "
               f"dimension of smooth curves within 1 +/- 0.05 [{dim_txt}]; "
               f"mutual information |value| < 0.15 under independence on "
               f"{mi_hits}/10 seeds (need >= 9); spectral centroid within "
               f"4999.5 +/- 300 on white noise on {fc_hits}/10 seeds "
               f"(need >= 9)")
