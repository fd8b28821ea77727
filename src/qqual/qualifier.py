"""The composite quantum qualifier: a data-characteristics-only predictor
of the outperformance Xi.

xi_hat(n, X) = exp(-alpha*n) * sum_{i=0..2} b_1i n^i X_1
             + sum_{j=2..5} sum_{i=0..4} b_ji n^i X_j

with X_j the j-th complexity metric minus its centering offset and n the
training epoch count.  A fixed reference coefficient table ships as a
versioned data file; refits on measured (metrics, Xi, epoch) corpora use
per-epoch 1-D regressions whose R^2-normalized weights are folded into
the polynomial coefficients, so one evaluation path serves both tables.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .complexity import METRIC_NAMES, line_fit

QDNN_FAVORED = "QDNN_favored"
CDNN_FAVORED = "CDNN_favored"
BOUNDARY = "boundary"

SIGN_DEAD_BAND = 1e-9

# per-epoch R^2 below this is treated as no usable signal for weighting
MIN_R2 = 0.05

_ROW_DEGREES = (2, 4, 4, 4, 4)
_REFERENCE_FILE = "qualifier_reference_v1.json"


@dataclass(frozen=True)
class QualifierTable:
    """alpha plus five coefficient rows; row j pairs a centering offset
    with polynomial-in-epoch coefficients (degree 2 for row 1, 4 for
    rows 2..5)."""

    alpha: float
    centerings: Tuple[float, ...]
    coefficients: Tuple[Tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.centerings) != 5 or len(self.coefficients) != 5:
            raise ValueError("table needs exactly 5 metric rows")
        object.__setattr__(self, "centerings", tuple(float(c) for c in self.centerings))
        rows = tuple(tuple(float(b) for b in row) for row in self.coefficients)
        for j, row in enumerate(rows):
            if len(row) != _ROW_DEGREES[j] + 1:
                raise ValueError(
                    f"row {j + 1} needs {_ROW_DEGREES[j] + 1} coefficients, got {len(row)}")
        object.__setattr__(self, "coefficients", rows)
        values = [self.alpha, *self.centerings, *(b for row in rows for b in row)]
        if not np.all(np.isfinite(values)):
            raise ValueError("table values must be finite")


@dataclass(frozen=True)
class QualifierCorpusEntry:
    metrics: Tuple[float, ...]  # in METRIC_NAMES order
    xi: float
    epoch: int

    def __post_init__(self):
        if self.epoch < 1:
            raise ValueError("epoch must be >= 1")
        _metric_values(self.metrics)
        if not np.isfinite(self.xi):
            raise ValueError("xi must be finite")


def _metric_values(metrics) -> np.ndarray:
    arr = np.asarray(metrics, dtype=np.float64)
    if arr.shape != (5,):
        raise ValueError("metrics must be 5 values in METRIC_NAMES order")
    return arr


def eval_qualifier(table: QualifierTable, metrics, epoch: int) -> float:
    """xi_hat for one dataset at one epoch count."""
    if epoch < 0:
        raise ValueError("epoch must be >= 0")
    x = _metric_values(metrics) - np.asarray(table.centerings)
    n = float(epoch)
    powers = n ** np.arange(5)
    out = np.exp(-table.alpha * n) * float(
        np.asarray(table.coefficients[0]) @ powers[:3]) * x[0]
    for j in range(1, 5):
        out += float(np.asarray(table.coefficients[j]) @ powers) * x[j]
    return float(out)


def sign_of_qualifier(value: float) -> str:
    """Predicted winner of a qualifier value xi_hat, with a dead band
    |xi_hat| < 1e-9 -> boundary."""
    if abs(value) < SIGN_DEAD_BAND:
        return BOUNDARY
    return QDNN_FAVORED if value > 0 else CDNN_FAVORED


def table_to_doc(table: QualifierTable) -> dict:
    return {
        "version": 1,
        "alpha": table.alpha,
        "rows": [
            {"metric": METRIC_NAMES[j], "centering": table.centerings[j],
             "coefficients": list(table.coefficients[j])}
            for j in range(5)
        ],
    }


def table_from_doc(doc: dict) -> QualifierTable:
    rows = doc["rows"]
    by_name = {r["metric"]: r for r in rows}
    if sorted(by_name) != sorted(METRIC_NAMES):
        raise ValueError(f"table rows must name the five metrics {METRIC_NAMES}")
    ordered = [by_name[name] for name in METRIC_NAMES]
    return QualifierTable(
        alpha=float(doc["alpha"]),
        centerings=tuple(r["centering"] for r in ordered),
        coefficients=tuple(tuple(r["coefficients"]) for r in ordered),
    )


def save_table(table: QualifierTable, path) -> None:
    with open(path, "w") as fh:
        json.dump(table_to_doc(table), fh, indent=2)


def reference_table() -> QualifierTable:
    """The fixed reference coefficient table bundled with the package."""
    doc = json.loads(resources.files("qqual.data").joinpath(_REFERENCE_FILE).read_text())
    return table_from_doc(doc)


def _fit_poly(ns: np.ndarray, ys: np.ndarray, degree: int) -> np.ndarray:
    """Least-squares polynomial, low-order-first, zero-padded to degree."""
    out = np.zeros(degree + 1)
    if np.all(ys == 0.0):
        return out
    eff = min(degree, len(ns) - 1)
    coeffs = np.polyfit(ns, ys, eff)[::-1]
    out[: eff + 1] = coeffs
    return out


def _fit_exp_poly(ns: np.ndarray, ys: np.ndarray, degree: int) -> Tuple[float, np.ndarray]:
    """Fit y(n) ~ exp(-alpha n) * poly(n): alpha from the log-magnitude
    envelope, then a polynomial on the exponential-corrected residual."""
    nz = np.abs(ys) > 0.0
    if np.sum(nz) < 2:
        return 0.0, _fit_poly(ns, ys, degree)
    log_slope = np.polyfit(ns[nz], np.log(np.abs(ys[nz])), 1)[0]
    alpha = float(-log_slope)
    # keep the evaluation numerically sane over the fitted epoch range
    if not np.isfinite(alpha) or abs(alpha) * ns.max() > 50:
        alpha = 0.0
    resid = ys * np.exp(alpha * ns)
    return alpha, _fit_poly(ns, resid, degree)


def fit_qualifier(corpus: Sequence[QualifierCorpusEntry]) -> Tuple[QualifierTable, Dict]:
    """Refit a coefficient table from a measured corpus.

    The epoch grid is the corpus's distinct epochs, and X_j is centred on
    the reference table's offsets.  Per epoch n and metric j: slope
    s_j(n) and R^2_j(n) of the 1-D regression of Xi on X_j; the weighted
    series s_j(n) * w_j(n) with w_j = R^2_j / sum_k R^2_k (rows under
    MIN_R2 dropped from the sum) is then fit across epochs:
    exp(-alpha n) * degree-2 polynomial for the nonlinearity row, plain
    degree-4 polynomials for the rest.  Metrics constant across the
    corpus are excluded with a warning and their rows zeroed.
    """
    centerings = reference_table().centerings
    corpus = list(corpus)
    epoch_grid = sorted({int(e.epoch) for e in corpus})
    if len(epoch_grid) < 3:
        raise ValueError("need >= 3 distinct epochs in the grid")
    by_epoch: Dict[int, List[QualifierCorpusEntry]] = {n: [] for n in epoch_grid}
    for entry in corpus:
        by_epoch[entry.epoch].append(entry)
    for n in epoch_grid:
        if len(by_epoch[n]) < 6:
            raise ValueError(f"epoch {n}: need >= 6 corpus entries, got {len(by_epoch[n])}")

    ns = np.asarray(epoch_grid, dtype=np.float64)
    slopes = np.zeros((5, len(epoch_grid)))
    r2s = np.zeros((5, len(epoch_grid)))
    warnings: List[str] = []
    excluded = set()
    all_x = np.stack([_metric_values(e.metrics) - np.asarray(centerings) for e in corpus])
    for j in range(5):
        if np.ptp(all_x[:, j]) == 0.0:
            excluded.add(METRIC_NAMES[j])
            warnings.append(f"metric {METRIC_NAMES[j]} is constant across the corpus; "
                            "row zeroed")
    for col, n in enumerate(epoch_grid):
        entries = by_epoch[n]
        x = np.stack([_metric_values(e.metrics) for e in entries]) - np.asarray(centerings)
        y = np.asarray([e.xi for e in entries])
        for j in range(5):
            if METRIC_NAMES[j] in excluded or np.ptp(x[:, j]) == 0.0:
                continue
            slopes[j, col], r2 = line_fit(x[:, j], y)
            r2s[j, col] = r2 or 0.0  # a constant xi carries no signal

    usable = np.where(r2s >= MIN_R2, r2s, 0.0)
    totals = usable.sum(axis=0)
    weights = np.divide(usable, totals, out=np.zeros_like(usable), where=totals > 0)
    weighted = slopes * weights

    alpha, row1 = _fit_exp_poly(ns, weighted[0], 2)
    coefficients = [tuple(row1)]
    for j in range(1, 5):
        coefficients.append(tuple(_fit_poly(ns, weighted[j], 4)))
    table = QualifierTable(alpha=alpha, centerings=centerings,
                           coefficients=tuple(coefficients))
    diagnostics = {
        "epochs": epoch_grid,
        "slopes": slopes,
        "r2": r2s,
        "weights": weights,
        "excluded": sorted(excluded),
        "warnings": warnings,
    }
    return table, diagnostics
