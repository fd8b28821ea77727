"""Regime-map construction over a scattered 2-D field: convex hull,
hull-masked linear interpolation with edge-renormalized Gaussian
smoothing, zero-level-set extraction, area fractions, and the
sign-agreement score between two fields on one grid."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np
from scipy.interpolate import LinearNDInterpolator
from scipy.ndimage import gaussian_filter
from scipy.spatial import cKDTree

DEFAULT_RESOLUTION = 200
DEFAULT_SMOOTHING = 3.0


@dataclass
class ScatterField:
    xs: np.ndarray
    ys: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        self.xs = np.asarray(self.xs, dtype=np.float64)
        self.ys = np.asarray(self.ys, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if not (self.xs.shape == self.ys.shape == self.values.shape) or self.xs.ndim != 1:
            raise ValueError("xs, ys, values must be equal-length 1-D arrays")
        if len(self.xs) < 3:
            raise ValueError("need >= 3 points")


@dataclass
class GridField:
    x_axis: np.ndarray
    y_axis: np.ndarray
    values: np.ndarray  # shape (len(y_axis), len(x_axis)); NaN outside mask
    mask: np.ndarray

    def __post_init__(self):
        self.x_axis = np.asarray(self.x_axis, dtype=np.float64)
        self.y_axis = np.asarray(self.y_axis, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        self.mask = np.asarray(self.mask, dtype=bool)
        shape = (len(self.y_axis), len(self.x_axis))
        if self.values.shape != shape or self.mask.shape != shape:
            raise ValueError("values and mask must be shaped (len(y_axis), len(x_axis))")
        if not np.all(np.isfinite(self.values[self.mask])):
            raise ValueError("masked values must be finite")


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> np.ndarray:
    """Counter-clockwise hull vertices by monotone chain; collinear
    boundary points are dropped.  Raises if all points are collinear."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) < 3:
        raise ValueError("need >= 3 points of shape (n, 2)")
    uniq = sorted(set(map(tuple, pts.tolist())))
    if len(uniq) < 3:
        raise ValueError("degenerate point set")
    lower: List[Tuple[float, float]] = []
    for p in uniq:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Tuple[float, float]] = []
    for p in reversed(uniq):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 3:
        raise ValueError("all points are collinear")
    return np.asarray(hull)


def points_in_hull(hull: np.ndarray, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Boolean inside-or-on test against a CCW hull, vectorized."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    scale = max(np.ptp(hull[:, 0]), np.ptp(hull[:, 1]), 1e-300)
    inside = np.ones(xs.shape, dtype=bool)
    n = len(hull)
    for k in range(n):
        x0, y0 = hull[k]
        x1, y1 = hull[(k + 1) % n]
        cross = (x1 - x0) * (ys - y0) - (y1 - y0) * (xs - x0)
        inside &= cross >= -1e-12 * scale * scale
    return inside


def build_surface(fld: ScatterField, resolution: int = DEFAULT_RESOLUTION,
                  smoothing: float = DEFAULT_SMOOTHING) -> GridField:
    """Barycentric-linear interpolation onto a uniform grid masked to the
    hull, then Gaussian smoothing (width in grid cells) renormalized at
    the mask edge so boundary cells average only masked neighbors."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    hull = convex_hull(np.column_stack([fld.xs, fld.ys]))
    x_axis = np.linspace(fld.xs.min(), fld.xs.max(), resolution)
    y_axis = np.linspace(fld.ys.min(), fld.ys.max(), resolution)
    gx, gy = np.meshgrid(x_axis, y_axis)
    mask = points_in_hull(hull, gx, gy)
    interp = LinearNDInterpolator(np.column_stack([fld.xs, fld.ys]), fld.values)
    values = interp(gx, gy)
    # FP wobble at the hull edge can leave masked points just outside the
    # triangulation; fill those few from the nearest sample
    holes = mask & ~np.isfinite(values)
    if np.any(holes):
        tree = cKDTree(np.column_stack([fld.xs, fld.ys]))
        _, idx = tree.query(np.column_stack([gx[holes], gy[holes]]))
        values[holes] = fld.values[idx]
    if smoothing > 0:
        m = mask.astype(np.float64)
        filled = np.where(mask, values, 0.0)
        num = gaussian_filter(filled, smoothing, mode="constant", cval=0.0)
        den = gaussian_filter(m, smoothing, mode="constant", cval=0.0)
        sm = np.divide(num, den, out=np.zeros_like(num), where=den > 0)
        values = np.where(mask, sm, np.nan)
    else:
        values = np.where(mask, values, np.nan)
    return GridField(x_axis, y_axis, values, mask)


def _interp_zero(p: float, q: float) -> float:
    return p / (p - q)


def _cell_segments(a, b, c, d, x0, x1, y0, y1):
    """Zero-level segments in one cell; corners a=(x0,y0) b=(x1,y0)
    c=(x1,y1) d=(x0,y1), sign convention: > 0 is positive."""
    sa, sb, sc, sd = a > 0, b > 0, c > 0, d > 0
    code = sa * 1 + sb * 2 + sc * 4 + sd * 8
    if code in (0, 15):
        return []
    # edge midpoint crossings by linear interpolation
    bottom = (x0 + _interp_zero(a, b) * (x1 - x0), y0) if sa != sb else None
    right = (x1, y0 + _interp_zero(b, c) * (y1 - y0)) if sb != sc else None
    top = (x0 + _interp_zero(d, c) * (x1 - x0), y1) if sd != sc else None
    left = (x0, y0 + _interp_zero(a, d) * (y1 - y0)) if sa != sd else None
    if code in (1, 14):
        return [(bottom, left)]
    if code in (2, 13):
        return [(bottom, right)]
    if code in (4, 11):
        return [(right, top)]
    if code in (8, 7):
        return [(top, left)]
    if code in (3, 12):
        return [(left, right)]
    if code in (6, 9):
        return [(bottom, top)]
    # saddles: the cell-center average decides which corners connect
    center_positive = (a + b + c + d) / 4.0 > 0
    if code == 5:  # a and c positive
        if center_positive:
            return [(left, top), (bottom, right)]
        return [(bottom, left), (right, top)]
    # code == 10: b and d positive
    if center_positive:
        return [(bottom, left), (right, top)]
    return [(left, top), (bottom, right)]


def zero_contour(grid: GridField) -> List[np.ndarray]:
    """Marching-squares zero level set over fully masked cells; returns
    stitched polylines as (k, 2) arrays of (x, y) vertices."""
    V = grid.values
    mask = grid.mask
    xs, ys = grid.x_axis, grid.y_axis
    # only fully masked cells whose corners do not all share a sign can
    # hold a segment; visit those in row-major order
    full = mask[:-1, :-1] & mask[:-1, 1:] & mask[1:, 1:] & mask[1:, :-1]
    pos = V > 0
    n_pos = (pos[:-1, :-1].astype(np.int8) + pos[:-1, 1:] + pos[1:, 1:] + pos[1:, :-1])
    segments = []
    for i, j in np.argwhere(full & (n_pos > 0) & (n_pos < 4)):
        segments.extend(_cell_segments(V[i, j], V[i, j + 1], V[i + 1, j + 1], V[i + 1, j],
                                       xs[j], xs[j + 1], ys[i], ys[i + 1]))
    return _stitch(segments)


def _stitch(segments) -> List[np.ndarray]:
    if not segments:
        return []
    def key(p):
        return (round(p[0], 9), round(p[1], 9))

    adjacency = {}
    for s, (p, q) in enumerate(segments):
        adjacency.setdefault(key(p), []).append(s)
        adjacency.setdefault(key(q), []).append(s)
    used = [False] * len(segments)
    polylines = []
    for start in range(len(segments)):
        if used[start]:
            continue
        used[start] = True
        chain = list(segments[start])
        for head in (1, 0):
            while True:
                k = key(chain[-1 if head else 0])
                nxt = [s for s in adjacency.get(k, []) if not used[s]]
                if not nxt:
                    break
                s = nxt[0]
                used[s] = True
                p, q = segments[s]
                new = q if key(p) == k else p
                if head:
                    chain.append(new)
                else:
                    chain.insert(0, new)
        polylines.append(np.asarray(chain))
    return polylines


def area_fractions(grid: GridField) -> Tuple[float, float]:
    """Fractions of masked grid points with positive / negative value;
    exact zeros count toward neither."""
    if not np.any(grid.mask):
        raise ValueError("empty mask")
    vals = grid.values[grid.mask]
    n = vals.size
    return float(np.sum(vals > 0) / n), float(np.sum(vals < 0) / n)


def sign_agreement(grid_a: GridField, grid_b: GridField) -> float:
    """Fraction of masked points where the two fields share a sign
    (zeros agree only with zeros)."""
    if (not np.array_equal(grid_a.x_axis, grid_b.x_axis)
            or not np.array_equal(grid_a.y_axis, grid_b.y_axis)
            or not np.array_equal(grid_a.mask, grid_b.mask)):
        raise ValueError("grids must share axes and mask")
    if not np.any(grid_a.mask):
        raise ValueError("empty mask")
    a = np.sign(grid_a.values[grid_a.mask])
    b = np.sign(grid_b.values[grid_b.mask])
    return float(np.mean(a == b))
