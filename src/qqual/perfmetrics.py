"""Performance quantification for the paired benchmarks: confusion
matrices, macro-precision classification efficiency, the integrated
absolute-deviation regression metric, the outperformance ratio, the
``k=v;...`` dataset-label format the ledgers key their rows by, and the
bench-reg ledger row that forms xi from one checkpoint's two m values."""

from __future__ import annotations

from typing import Sequence

import numpy as np


def confusion(preds: Sequence[int], truth: Sequence[int]) -> np.ndarray:
    """2x2 counts; rows index the true class, columns the predicted."""
    preds = np.asarray(preds)
    truth = np.asarray(truth)
    if preds.shape != truth.shape:
        raise ValueError("prediction/truth length mismatch")
    if not (np.all(np.isin(preds, (0, 1))) and np.all(np.isin(truth, (0, 1)))):
        raise ValueError("labels must be 0/1")
    cm = np.zeros((2, 2), dtype=int)
    for i in (0, 1):
        for j in (0, 1):
            cm[i, j] = int(np.sum((truth == i) & (preds == j)))
    return cm


def classification_efficiency(cm: np.ndarray) -> float:
    """Macro-averaged precision: mean over classes of cm[j,j]/column_sum[j].

    This is the one common confusion-matrix statistic consistent with the
    commonly quoted reference value 0.8998 for [[65,6],[9,70]]; the same
    source's companion value 0.8144 for [[70,24],[4,52]] is not exactly
    reproducible by any standard statistic (macro precision gives 0.8151)
    and is reported as-is in the docs.
    """
    cm = np.asarray(cm, dtype=float)
    if cm.shape != (2, 2) or np.any(cm < 0):
        raise ValueError("expected a non-negative 2x2 count matrix")
    cols = cm.sum(axis=0)
    for j in (0, 1):
        if cols[j] == 0:
            raise ValueError(f"no predictions for class {j}; precision undefined")
    return float(np.mean([cm[j, j] / cols[j] for j in (0, 1)]))


def m_reg(xs: np.ndarray, ys_dnn: np.ndarray, ys_true: np.ndarray) -> float:
    """Trapezoidal integral of |y_dnn - y_true| over the shared grid."""
    xs = np.asarray(xs, dtype=np.float64)
    ys_dnn = np.asarray(ys_dnn, dtype=np.float64)
    ys_true = np.asarray(ys_true, dtype=np.float64)
    if not (xs.shape == ys_dnn.shape == ys_true.shape) or xs.ndim != 1 or len(xs) < 2:
        raise ValueError("curves must share one 1-D grid of >= 2 points")
    if np.any(np.diff(xs) <= 0):
        raise ValueError("grid must be strictly increasing")
    return float(np.trapezoid(np.abs(ys_dnn - ys_true), xs))


def xi(m_cdnn: float, m_qdnn: float) -> float:
    """Outperformance m_cdnn/m_qdnn - 1; positive favors the quantum model."""
    if m_qdnn <= 0:
        raise ValueError("m_qdnn must be > 0")
    if m_cdnn < 0:
        raise ValueError("m_cdnn must be >= 0")
    return m_cdnn / m_qdnn - 1.0


def dataset_label(meta: dict) -> str:
    """The dict packed as ``k=v`` pairs joined by ';', in sorted key order."""
    return ";".join(f"{k}={meta[k]}" for k in sorted(meta))


def parse_dataset_label(label: str) -> dict:
    """A label's ``k=v`` parts as a dict of strings; other parts are skipped."""
    return dict(part.split("=", 1) for part in label.split(";") if "=" in part)


LEDGER_COLUMNS = ["dataset", "epoch", "m_cdnn", "m_qdnn", "xi"]


def ledger_row(meta: dict, epoch: int, m_cdnn: float, m_qdnn: float) -> list:
    """One experiment-ledger CSV row in LEDGER_COLUMNS order: 'dataset'
    packs the meta dict, and xi is formed from the two m values."""
    return [dataset_label(meta), epoch, repr(float(m_cdnn)), repr(float(m_qdnn)),
            repr(float(xi(m_cdnn, m_qdnn)))]
