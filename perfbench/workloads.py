"""The three benchmark workloads: fixed configs, seeded inputs, one timed
operation each, and the checks on what an operation wrote.

Run as a script, this file is the body of one benchmark subprocess, so a
timed operation pays what a user of the ``qqual`` command pays (a fresh
interpreter, the imports and the run itself):

    python3 perfbench/workloads.py setup WORKLOAD SEED INPUT_DIR
    python3 perfbench/workloads.py op WORKLOAD INPUT_DIR OUT_DIR PART
    python3 perfbench/workloads.py traced-op WORKLOAD INPUT_DIR OUT_DIR PART SPANS_JSON

``traced-op`` runs the same operation with the tracer installed in that
process.  ``run.py`` imports this file for the checks, which only read
files; qqual is imported by the set-up and the operations alone.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import sys
import xml.etree.ElementTree as ET

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
REFERENCE_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "reference", "reg_train.json")

WORKLOADS = ("reg-train", "dvcs-campaign", "regime-analysis")

# reg-train: the bench-reg grid below, run one cell per operation so that a
# run holds several timed operations; four operations make the 12-row ledger
REG_FUNCTIONS = ("quad", "cos4x")
REG_SIGMAS = (0.1, 1.0)
REG_CELLS = tuple((f, s) for f in REG_FUNCTIONS for s in REG_SIGMAS)
REG_CONFIG = {"functions": list(REG_FUNCTIONS), "sigmas": list(REG_SIGMAS),
              "n_points": 100, "n_features": 8, "epochs": 6,
              "checkpoints": [2, 4, 6], "workers": 1}
REG_EPOCHS = (2, 4, 6)
# ledgers recorded at the seed commit exist for CLI seeds 0..7; training
# cost does not depend on the data values, so the timed path is the same
REFERENCE_SEEDS = 8
# rounding-level agreement with the recorded ledger: an exact rewrite of the
# gradient (another summation order) moves ledger values by ~1e-13
REFERENCE_RTOL = 1e-8

DVCS_CONFIG = {"max_sets": 8, "lams": [0.5, 1.0, 2.0], "ensemble": 1,
               "epochs": 4, "workers": 2}

QUALIFY_CONFIG = {"sigmas": [0.05, 0.1, 0.25, 0.5, 1.0, 2.0], "round_trip": True}
MAPS_PER_OP = 4
MAP_POINTS = 60
MAP_RESOLUTION = 200
MAP_SMOOTHING = 3.0

# operations an untraced run makes at least (reg-train: every cell, then the
# first cell again for the rerun check); the part a traced run runs
MIN_OPS = {"reg-train": len(REG_CELLS) + 1, "dvcs-campaign": 2, "regime-analysis": 2}
TRACED_PART = {"reg-train": "full", "dvcs-campaign": "1w", "regime-analysis": "maps"}


def op_parts(workload: str) -> list:
    if workload == "reg-train":
        return [str(k) for k in range(len(REG_CELLS))]
    if workload == "dvcs-campaign":
        return ["2w"]
    return ["maps"]


def items_per_op(workload: str, part: str) -> int:
    """Work items one operation completes: cells for the training
    workloads, regime maps for regime-analysis."""
    if workload == "reg-train":
        return len(REG_CELLS) if part == "full" else 1
    if workload == "dvcs-campaign":
        return DVCS_CONFIG["max_sets"] * len(DVCS_CONFIG["lams"])
    return MAPS_PER_OP


def reg_cli_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


# ---------------------------------------------------------------------------
# inputs


def map_fields(seed: int, count: int):
    """Seeded scattered fields with a real sign change: a tilted plane
    through an interior point plus a ripple and noise.  The second field
    of each pair is a perturbed copy that plays the predicted field."""
    import numpy as np

    fields = []
    for i in range(count):
        rng = np.random.default_rng(np.random.SeedSequence([seed, 7919, i]))
        u = rng.uniform(0.0, 1.0, MAP_POINTS)
        v = rng.uniform(0.0, 1.0, MAP_POINTS)
        u0, v0 = rng.uniform(0.35, 0.65, 2)
        theta = rng.uniform(0.0, 2.0 * np.pi)
        k1, k2 = rng.uniform(1.0, 3.0, 2)
        phase = rng.uniform(0.0, 2.0 * np.pi)

        def field(th, ph):
            return (np.cos(th) * (u - u0) + np.sin(th) * (v - v0)
                    + 0.12 * np.sin(2.0 * np.pi * (k1 * u + k2 * v) + ph))

        measured = field(theta, phase) + 0.03 * rng.standard_normal(MAP_POINTS)
        predicted = field(theta + rng.uniform(-0.6, 0.6), phase + 1.0)
        fields.append((1.0 + 9.0 * u, 0.1 + 0.5 * v, measured, predicted))
    return fields


def make_inputs(workload: str, seed: int, input_dir: str) -> dict:
    """Write the workload's inputs; returns the manifest."""
    import numpy as np
    import scipy

    from qqual import cli  # noqa: F401  (the import is part of set-up time)

    os.makedirs(input_dir, exist_ok=True)
    manifest = {"workload": workload, "seed": seed,
                "versions": {"python": sys.version.split()[0],
                             "numpy": np.__version__, "scipy": scipy.__version__}}
    if workload == "reg-train":
        manifest["cli_seed"] = reg_cli_seed(seed)
        _write_json(os.path.join(input_dir, "full.json"), {"bench-reg": REG_CONFIG})
        for k, (fid, sigma) in enumerate(REG_CELLS):
            block = dict(REG_CONFIG, functions=[fid], sigmas=[sigma])
            _write_json(os.path.join(input_dir, f"cell{k}.json"), {"bench-reg": block})
    elif workload == "dvcs-campaign":
        manifest["cli_seed"] = seed
        _write_json(os.path.join(input_dir, "2w.json"), {"dvcs": DVCS_CONFIG})
        _write_json(os.path.join(input_dir, "1w.json"),
                    {"dvcs": dict(DVCS_CONFIG, workers=1)})
    elif workload == "regime-analysis":
        manifest["cli_seed"] = seed
        _write_json(os.path.join(input_dir, "qualify.json"), {"qualify": QUALIFY_CONFIG})
        arrays = {}
        for i, (xs, ys, meas, pred) in enumerate(map_fields(seed, MAPS_PER_OP)):
            arrays.update({f"xs{i}": xs, f"ys{i}": ys, f"meas{i}": meas, f"pred{i}": pred})
        np.savez(os.path.join(input_dir, "fields.npz"), **arrays)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    _write_json(os.path.join(input_dir, "manifest.json"), manifest)
    return manifest


def _write_json(path: str, doc) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def read_manifest(input_dir: str) -> dict:
    with open(os.path.join(input_dir, "manifest.json")) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# one operation


def run_op(workload: str, input_dir: str, out_dir: str, part: str) -> int:
    """One operation; returns its exit code.  The CLI's console output
    goes to out_dir/console.log."""
    from qqual import cli

    seed = str(read_manifest(input_dir)["cli_seed"])
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "console.log"), "w") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        if workload == "reg-train":
            name = "full.json" if part == "full" else f"cell{part}.json"
            return cli.main(["bench-reg", "--config", os.path.join(input_dir, name),
                             "--seed", seed, "--out", out_dir])
        if workload == "dvcs-campaign":
            return cli.main(["dvcs", "--config", os.path.join(input_dir, f"{part}.json"),
                             "--seed", seed, "--out", out_dir])
        code = cli.main(["qualify", "--config", os.path.join(input_dir, "qualify.json"),
                         "--seed", seed, "--out", os.path.join(out_dir, "qualify")])
        if code != 0:
            return code
    _regime_maps(input_dir, out_dir)
    return 0


def _regime_maps(input_dir: str, out_dir: str) -> None:
    """Each map does what one noise scale of `qqual dvcs` does: two
    surfaces, their zero contours, area fractions, sign agreement and the
    SVG.  The figures go to a JSON file for the checks."""
    import numpy as np

    from qqual import svgplot
    from qqual.geometry import (ScatterField, area_fractions, build_surface,
                                sign_agreement, zero_contour)

    data = np.load(os.path.join(input_dir, "fields.npz"))
    stats = []
    for i in range(MAPS_PER_OP):
        xs, ys = data[f"xs{i}"], data[f"ys{i}"]
        xi_grid = build_surface(ScatterField(xs, ys, data[f"meas{i}"]),
                                MAP_RESOLUTION, MAP_SMOOTHING)
        hat_grid = build_surface(ScatterField(xs, ys, data[f"pred{i}"]),
                                 MAP_RESOLUTION, MAP_SMOOTHING)
        xi_contours = zero_contour(xi_grid)
        hat_contours = zero_contour(hat_grid)
        pos, neg = area_fractions(xi_grid)
        hat_pos, hat_neg = area_fractions(hat_grid)
        agree = sign_agreement(xi_grid, hat_grid)
        self_agree = sign_agreement(xi_grid, xi_grid)
        svgplot.regime_map(os.path.join(out_dir, f"map{i}.svg"), xi_grid, xi_contours,
                           hat_contours, f"regime map {i}",
                           [f"area(xi>0) = {pos:.2f}", f"area(xi_hat>0) = {hat_pos:.2f}",
                            f"agreement = {agree:.2f}"], "Q^2 (GeV^2)", "x_B")
        stats.append({"area_pos": pos, "area_neg": neg, "hat_area_pos": hat_pos,
                      "hat_area_neg": hat_neg, "agreement": agree,
                      "self_agreement": self_agree,
                      "contours": len(xi_contours), "hat_contours": len(hat_contours),
                      "contour_points": sum(len(c) for c in xi_contours + hat_contours)})
    _write_json(os.path.join(out_dir, "maps.json"), stats)


# ---------------------------------------------------------------------------
# checks


def read_csv(path: str):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))


def _check_reg_ledger(out_dir: str, cells, cli_seed: int, reference: dict) -> list:
    problems = []
    header, rows = read_csv(os.path.join(out_dir, "ledger.csv"))
    if header != ["dataset", "epoch", "m_cdnn", "m_qdnn", "xi"]:
        return [f"ledger header {header}"]
    expected = len(cells) * len(REG_EPOCHS)
    if len(rows) != expected:
        return [f"ledger has {len(rows)} rows, expected {expected}"]
    ref_rows = {(r[0], r[1]): r for r in reference["ledgers"][str(cli_seed)]}
    for row, ((fid, sigma), epoch) in zip(rows, [(c, e) for c in cells for e in REG_EPOCHS]):
        label, ep = row[0], row[1]
        if f"function_id={fid};" not in label or f"sigma={sigma};" not in label \
                or ep != str(epoch):
            problems.append(f"unexpected row order: {label} epoch {ep}")
            continue
        m_c, m_q, xi = (float(v) for v in row[2:])
        if not (math.isfinite(m_c) and math.isfinite(m_q) and m_c >= 0 and m_q > 0):
            problems.append(f"{label} epoch {ep}: bad m values {m_c}, {m_q}")
            continue
        if xi != m_c / m_q - 1.0:
            problems.append(f"{label} epoch {ep}: xi {xi} != m_cdnn/m_qdnn - 1")
        ref = ref_rows.get((label, ep))
        if ref is None:
            problems.append(f"{label} epoch {ep}: no reference row")
        elif not all(_close(float(a), float(b)) for a, b in zip(row[2:], ref[2:])):
            problems.append(f"{label} epoch {ep}: {row[2:]} differs from reference {ref[2:]}"
                            f" beyond rtol {REFERENCE_RTOL:g}")
    return problems


def _check_dvcs(out_dir: str) -> list:
    problems = []
    header, rows = read_csv(os.path.join(out_dir, "ledger.csv"))
    lams = [float(v) for v in DVCS_CONFIG["lams"]]
    expected = DVCS_CONFIG["max_sets"] * len(lams)
    if len(rows) != expected:
        problems.append(f"ledger has {len(rows)} outcomes, expected sets x lams = {expected}")
    col = {name: i for i, name in enumerate(header)}
    pairs = {(r[col["set_id"]], float(r[col["lam"]])) for r in rows}
    if len(pairs) != len(rows):
        problems.append("duplicate (set, lam) outcomes")
    for r in rows:
        if not all(math.isfinite(float(r[col[k]])) for k in ("m_cdnn", "m_qdnn", "xi_dvcs")):
            problems.append(f"{r[col['set_id']]}: non-finite outcome")
    _, stats = read_csv(os.path.join(out_dir, "stats.csv"))
    self_rows = {float(lam): float(v) for lam, name, v in stats
                 if name == "sign_agreement_xi_vs_xi_self_check"}
    for lam in lams:
        if self_rows.get(lam) != 1.0:
            problems.append(f"lam={lam:g}: self-check row is {self_rows.get(lam)}, expected 1")
    return problems


def _check_svg(path: str) -> list:
    try:
        root = ET.parse(path).getroot()
    except ET.ParseError as exc:
        return [f"{os.path.basename(path)} is not XML: {exc}"]
    if not root.tag.endswith("svg"):
        return [f"{os.path.basename(path)}: root element is {root.tag}"]
    return []


def _check_regime(out_dir: str) -> list:
    problems = []
    q_dir = os.path.join(out_dir, "qualify")
    with open(os.path.join(q_dir, "report.md")) as fh:
        if "-> PASS." not in fh.read():
            problems.append("qualify round trip did not PASS")
    header, rows = read_csv(os.path.join(q_dir, "ledger.csv"))
    xi_col = header.index("xi_hat")
    centered = [r for r in rows if r[0] == "centered_reference"]
    if not centered:
        problems.append("no centered_reference rows")
    problems += [f"centered_reference epoch {r[1]}: xi_hat {r[xi_col]} is not exactly 0"
                 for r in centered if float(r[xi_col]) != 0.0]
    problems += _check_svg(os.path.join(q_dir, "predictions.svg"))
    with open(os.path.join(out_dir, "maps.json")) as fh:
        stats = json.load(fh)
    if len(stats) != MAPS_PER_OP:
        problems.append(f"{len(stats)} maps, expected {MAPS_PER_OP}")
    for i, s in enumerate(stats):
        for pos, neg in ((s["area_pos"], s["area_neg"]), (s["hat_area_pos"], s["hat_area_neg"])):
            if abs(pos + neg - 1.0) > 1e-12:
                problems.append(f"map {i}: area fractions {pos} + {neg} != 1")
        if s["self_agreement"] != 1.0:
            problems.append(f"map {i}: self sign agreement {s['self_agreement']}")
        if s["contours"] < 1 or s["hat_contours"] < 1:
            problems.append(f"map {i}: empty zero contour")
        problems += _check_svg(os.path.join(out_dir, f"map{i}.svg"))
    return problems


def check_op(workload: str, input_dir: str, out_dir: str, part: str) -> list:
    """Problems found in one operation's outputs; empty when it is correct."""
    try:
        if workload == "reg-train":
            cells = REG_CELLS if part == "full" else [REG_CELLS[int(part)]]
            return _check_reg_ledger(out_dir, cells, read_manifest(input_dir)["cli_seed"],
                                     load_reference())
        if workload == "dvcs-campaign":
            return _check_dvcs(out_dir)
        return _check_regime(out_dir)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"output unreadable: {type(exc).__name__}: {exc}"]


def compared_files(workload: str) -> list:
    """Outputs that must be byte-identical between two runs of one part."""
    if workload == "reg-train":
        return ["ledger.csv"]
    if workload == "dvcs-campaign":
        return ["ledger.csv", "stats.csv"]
    return [os.path.join("qualify", "ledger.csv"), "maps.json"]


def same_outputs(workload: str, dir_a: str, dir_b: str) -> list:
    problems = []
    for name in compared_files(workload):
        try:
            with open(os.path.join(dir_a, name), "rb") as fa, \
                    open(os.path.join(dir_b, name), "rb") as fb:
                if fa.read() != fb.read():
                    problems.append(f"{name} differs between {os.path.basename(dir_a)} "
                                    f"and {os.path.basename(dir_b)}")
        except OSError as exc:
            problems.append(f"cannot compare {name}: {exc}")
    return problems


def main(argv) -> int:
    sys.path.insert(0, SRC)
    if len(argv) == 4 and argv[0] == "setup":
        manifest = make_inputs(argv[1], int(argv[2]), argv[3])
        print(json.dumps(manifest["versions"]))
        return 0
    if len(argv) == 5 and argv[0] == "op":
        return run_op(*argv[1:])
    if len(argv) == 6 and argv[0] == "traced-op":
        import tracing

        tracer = tracing.Tracer()
        with tracer.installed():
            code = run_op(*argv[1:5])
        tracer.dump(argv[5])
        return code
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
