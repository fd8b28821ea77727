"""Five data-complexity characteristics of a sampled (x, y) relation:
nonlinearity, frequency complexity, fractal dimension, mutual
information, and spectral-centroid Fourier complexity.

Calibration notes (these anchor the centering constants used by the
qualifier): nonlinearity = 1 - R^2 lives in [0, 1] with midrange 0.25
typical of mixed corpora; frequency complexity counts active positive
bins, midpoint 24.5 of 0..49 for 100-sample grids; fractal dimension of
a smooth curve is ~0.95-1; the KSG estimator's null bias sits near
-0.05 at k=3; and the 10,000-bin one-sided spectral centroid of white
noise is 4999.5.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

_FOURIER_BINS = 10_000
# the most samples fourier_complexity's zero-padded transform window holds
MAX_POINTS = 2 * _FOURIER_BINS
_KSG_K = 3
_JITTER_SCALE = 1e-10
_KSG_BLOCK = 1 << 18  # pairwise distances held at once by the KSG pass
_EULER = 0.577215664901532860606512090082402431
# cephes' asymptotic-series coefficients of psi, highest power first
_PSI_A = (8.33333333333333333333e-2, -2.10927960927960927961e-2, 7.57575757575757575758e-3,
          -4.16666666666666666667e-3, 3.96825396825396825397e-3, -8.33333333333333333333e-3,
          8.33333333333333333333e-2)


# the order of the metric vector that ``characterize`` returns
METRIC_NAMES = ("nonlinearity", "frequency_complexity", "fractal_dimension",
                "mutual_information", "fourier_complexity")


def line_fit(xs, ys) -> Tuple[float, Optional[float]]:
    """Slope and R^2, clamped to [0, 1], of the least-squares line of ys
    on xs; R^2 is None when ys is constant."""
    slope, intercept = np.polyfit(xs, ys, 1)
    ss_tot = float(np.sum((ys - ys.mean()) ** 2))
    if ss_tot == 0.0:
        return float(slope), None
    resid = ys - (slope * xs + intercept)
    return float(slope), float(np.clip(1.0 - float(np.sum(resid ** 2)) / ss_tot, 0.0, 1.0))


def nonlinearity(xs, ys) -> float:
    """1 - R^2 of the least-squares line of ys on xs, in [0, 1]."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) < 3:
        raise ValueError("need >= 3 points")
    if np.ptp(xs) == 0:
        raise ValueError("xs must not be all equal")
    _, r2 = line_fit(xs, ys)
    return 0.0 if r2 is None else 1.0 - r2  # a constant is perfectly linear


def frequency_complexity(ys) -> float:
    """Count of positive-frequency DFT bins whose power exceeds 1% of the
    peak bin's power, after mean subtraction.

    Peak-relative thresholding keeps a commensurate sinusoid at exactly 1
    while letting a white-noise sequence activate nearly all of its
    positive bins (about 49 of 50 at 100 samples); a total-power
    threshold would cap noise near 30 of 50.
    """
    ys = np.asarray(ys, dtype=np.float64)
    if len(ys) < 8:
        raise ValueError("need >= 8 points")
    power = np.abs(np.fft.rfft(ys - ys.mean())) ** 2
    pos = power[1:]  # bin 0 is DC; Nyquist (even n) counts as positive
    if pos.sum() == 0.0:
        return 0.0
    return float(np.sum(pos > 0.01 * pos.max()))


def fractal_dimension(xs, ys) -> float:
    """Box-counting dimension on the unit-square-normalized point set,
    eps = 2^-k for k = 2..6.  The 2x2 grid is excluded: its occupancy is
    3-4 for any nondegenerate curve, so it anchors the least-squares
    slope instead of measuring scaling."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if len(xs) < 32:
        raise ValueError("need >= 32 points")
    u = np.zeros_like(xs) if np.ptp(xs) == 0 else (xs - xs.min()) / np.ptp(xs)
    v = np.zeros_like(ys) if np.ptp(ys) == 0 else (ys - ys.min()) / np.ptp(ys)
    if np.ptp(xs) == 0 and np.ptp(ys) == 0:
        raise ValueError("degenerate point set: all points identical")
    log_n, log_inv_eps = [], []
    for k in range(2, 7):
        boxes = 2 ** k
        ix = np.minimum((u * boxes).astype(int), boxes - 1)
        iy = np.minimum((v * boxes).astype(int), boxes - 1)
        occupied = len(set(zip(ix.tolist(), iy.tolist())))
        log_n.append(np.log(occupied))
        log_inv_eps.append(k * np.log(2.0))
    slope, _ = np.polyfit(log_inv_eps, log_n, 1)
    return float(slope)


def mutual_information(xs, ys) -> float:
    """Kraskov k-nearest-neighbor estimate (variant 1), k=3, max-norm,
    in nats.

    Marginals are standardized to unit variance first, so the estimate is
    invariant under affine rescaling of either coordinate (raw max-norm
    KSG shifts by ~0.1 when one marginal is rescaled at n=100).  A
    deterministic 1e-10 * range jitter breaks ties, so the estimate is
    bitwise repeatable on fixed input."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    n = len(xs)
    if n < 20:
        raise ValueError("need >= 20 points")
    x = (xs - xs.mean()) / xs.std() if xs.std() > 0 else np.zeros(n)
    y = (ys - ys.mean()) / ys.std() if ys.std() > 0 else np.zeros(n)
    rng = np.random.default_rng(12345)
    x = x + rng.standard_normal(n) * (_JITTER_SCALE * max(np.ptp(x), 1.0))
    y = y + rng.standard_normal(n) * (_JITTER_SCALE * max(np.ptp(y), 1.0))
    nx = np.empty(n, dtype=np.intp)
    ny = np.empty(n, dtype=np.intp)
    rows = max(1, _KSG_BLOCK // n)
    for start in range(0, n, rows):
        block = slice(start, start + rows)
        dx = np.abs(x[block, None] - x)
        dy = np.abs(y[block, None] - y)
        # max-norm distance to the k-th neighbor; column 0 of the order is the point itself
        eps = np.partition(np.maximum(dx, dy), _KSG_K, axis=1)[:, _KSG_K]
        # strict inequality: count marginal neighbors at distance < eps_i
        radius = np.nextafter(eps, 0.0)[:, None]
        nx[block] = np.count_nonzero(dx <= radius, axis=1) - 1
        ny[block] = np.count_nonzero(dy <= radius, axis=1) - 1
    counts, index = np.unique(np.concatenate([nx, ny]) + 1, return_inverse=True)
    psi = np.array([_digamma(int(c)) for c in counts])[index]
    return float(_digamma(_KSG_K) + _digamma(n) - np.mean(psi[:n] + psi[n:]))


def _digamma(n: int) -> float:
    """psi(n) for an integer n >= 1 by cephes' steps, so it equals
    scipy.special.digamma bit for bit: the harmonic sum up to 10, the
    asymptotic series above.  math.log, not np.log, which can differ by
    an ulp."""
    if n <= 10:
        y = 0.0
        for i in range(1, n):
            y += 1.0 / i
        return y - _EULER
    x = float(n)
    z = 1.0 / (x * x)
    poly = _PSI_A[0]
    for a in _PSI_A[1:]:
        poly = poly * z + a
    return math.log(x) - 0.5 / x - z * poly


def fourier_complexity(ys) -> float:
    """Power-weighted mean bin index over a 10,000-bin one-sided spectrum
    of the mean-subtracted, zero-padded sequence.  Bin 10,000 would be
    the Nyquist bin; the centroid runs over bins 0..9999, so a flat
    spectrum centers at 4999.5."""
    ys = np.asarray(ys, dtype=np.float64)
    if len(ys) < 8:
        raise ValueError("need >= 8 points")
    if len(ys) > MAX_POINTS:
        raise ValueError(f"sequence exceeds the {MAX_POINTS}-sample transform window")
    centered = ys - ys.mean()
    if np.all(centered == 0.0):
        return 0.0
    padded = np.zeros(2 * _FOURIER_BINS)
    padded[: len(centered)] = centered
    power = np.abs(np.fft.rfft(padded)[:_FOURIER_BINS]) ** 2
    total = power.sum()
    if total == 0.0:
        return 0.0
    return float(np.arange(_FOURIER_BINS) @ power / total)


def characterize(xs, ys) -> np.ndarray:
    """All five metrics of one dataset as a (5,) array in METRIC_NAMES
    order.  Pairs are sorted by x first, so the result is invariant under
    reordering of the input points."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    order = np.argsort(xs, kind="stable")
    xs = xs[order]
    ys = ys[order]
    return np.array([nonlinearity(xs, ys), frequency_complexity(ys),
                     fractal_dimension(xs, ys), mutual_information(xs, ys),
                     fourier_complexity(ys)])
