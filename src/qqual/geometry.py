"""Regime-map construction over a scattered 2-D field: Delaunay
triangulation, linear interpolation masked to the grid points that the
triangulation covers, edge-renormalized Gaussian smoothing, zero-level-set
extraction (marching-squares segments joined where their endpoints
coincide exactly), area fractions, and the sign-agreement score between
two fields on one grid."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

_INF = -1  # the vertex at infinity of the ghost triangles
_BARY_EPS = 100 * np.finfo(np.float64).eps  # in-triangle slack on barycentric coordinates


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
        if not np.all(np.isfinite([self.xs, self.ys, self.values])):
            raise ValueError("xs, ys, values must be finite")


@dataclass
class GridField:
    x_axis: np.ndarray
    y_axis: np.ndarray
    values: np.ndarray  # shape (len(y_axis), len(x_axis)); NaN outside mask
    mask: np.ndarray = field(init=False)  # where values are finite

    def __post_init__(self):
        self.x_axis = np.asarray(self.x_axis, dtype=np.float64)
        self.y_axis = np.asarray(self.y_axis, dtype=np.float64)
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != (len(self.y_axis), len(self.x_axis)):
            raise ValueError("values must be shaped (len(y_axis), len(x_axis))")
        self.mask = np.isfinite(self.values)


def _exact_coords(pts: np.ndarray) -> Tuple[List[int], List[int]]:
    """The x and y coordinates of (n, 2) points as integers, exactly: all
    scaled by one power of two."""
    ratios = [v.as_integer_ratio() for v in pts.ravel().tolist()]
    scale = max(d for _, d in ratios)
    ints = [n * (scale // d) for n, d in ratios]
    return ints[0::2], ints[1::2]


def delaunay(points) -> np.ndarray:
    """Delaunay triangles of a 2-D point set, as (m, 3) indices into
    `points` in counter-clockwise order.

    Bowyer-Watson insertion in (x, y) order, with exact predicates on the
    coordinates scaled to integers.  The hull is exact: each hull edge
    bounds a ghost triangle whose third vertex is at infinity, and whose
    circumcircle is the open outer half-plane.  A repeated point is
    skipped, so triangles use its first occurrence.  A new point's cavity
    holds the triangles whose circumcircle contains it strictly, so on
    cocircular points (a regular grid, say) the diagonal that was there
    first stays: the triangles depend on the point set, not its order."""
    pts = np.asarray(points, dtype=np.float64)
    X, Y = _exact_coords(pts)

    def orient(a, b, p):
        return (X[b] - X[a]) * (Y[p] - Y[a]) - (Y[b] - Y[a]) * (X[p] - X[a])

    def conflicts(t, p):
        if _INF in V[t]:
            # points go in (x, y) order, so p never lies inside a hull edge
            # (it would come between the edge's ends); p on the edge's line
            # outside the edge is not in conflict
            k = V[t].index(_INF)
            return orient(V[t][k - 2], V[t][k - 1], p) > 0
        a, b, c = V[t]
        adx, ady = X[a] - X[p], Y[a] - Y[p]
        bdx, bdy = X[b] - X[p], Y[b] - Y[p]
        cdx, cdy = X[c] - X[p], Y[c] - Y[p]
        return ((adx * adx + ady * ady) * (bdx * cdy - cdx * bdy)
                + (bdx * bdx + bdy * bdy) * (cdx * ady - adx * cdy)
                + (cdx * cdx + cdy * cdy) * (adx * bdy - bdx * ady)) > 0

    first = {}
    for i, p in enumerate(map(tuple, pts.tolist())):
        first.setdefault(p, i)
    order = [first[p] for p in sorted(first)]
    if len(order) < 3:
        raise ValueError("degenerate point set")
    a, b = order[0], order[1]
    c = next((c for c in order[2:] if orient(a, b, c)), None)
    if c is None:
        raise ValueError("all points are collinear")
    if orient(a, b, c) < 0:
        a, b = b, a
    # one triangle and the three ghosts on its edges; neighbor k of a
    # triangle lies across the edge opposite its vertex k
    V = [[a, b, c], [b, a, _INF], [c, b, _INF], [a, c, _INF]]
    N = [[2, 3, 1], [3, 2, 0], [1, 3, 0], [2, 1, 0]]
    alive = [True] * 4
    start = 0
    for p in order[2:]:
        if p == c:
            continue
        # visibility walk to a triangle holding p, or to a ghost that sees it
        t = start
        while _INF not in V[t]:
            for k in range(3):
                if orient(V[t][k - 2], V[t][k - 1], p) < 0:
                    t = N[t][k]
                    break
            else:
                break
        cavity, seen, stack = [t], {t}, [t]
        while stack:
            for u in N[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    if conflicts(u, p):
                        cavity.append(u)
                        stack.append(u)
        # join p to each edge of the cavity's boundary, a closed fan around p
        inside = set(cavity)
        new, starts, ends = [], {}, {}
        for t in cavity:
            alive[t] = False
            for k in range(3):
                u = N[t][k]
                if u in inside:
                    continue
                e0, e1 = V[t][k - 2], V[t][k - 1]
                s = len(V)
                V.append([e0, e1, p])
                N.append([e1, e0, u])  # fan ends for now, triangle ids below
                alive.append(True)
                N[u][N[u].index(t)] = s
                starts[e0], ends[e1] = s, s
                new.append(s)
        for s in new:
            N[s][0], N[s][1] = starts[N[s][0]], ends[N[s][1]]
        start = next(t for t in new if _INF not in V[t])
    return np.array([v for v, ok in zip(V, alive) if ok and _INF not in v],
                    dtype=np.intp).reshape(-1, 3)


# bounding-box grid points per block of `_interpolate`'s triangles: a
# 200x200 grid over 60 points takes 3 or 4 blocks, whose temporaries peak
# below the smoothing's; 16384 and 65536 ran slower
_BLOCK_POINTS = 32768


def _interpolate(fld: ScatterField, tri: np.ndarray, x_axis: np.ndarray,
                 y_axis: np.ndarray) -> np.ndarray:
    """Barycentric-linear values of the field on a uniform grid, NaN
    outside the triangulation `tri` of its points.  A grid point is in a
    triangle when none of its barycentric coordinates is below
    -100 DBL_EPSILON, the slack of scipy's LinearNDInterpolator.  Each triangle visits only the rows of
    its bounding box; in each row its three coordinates are linear in x,
    so the grid points it holds there are one run of columns.  The
    triangles go in consecutive blocks of about _BLOCK_POINTS grid points
    of bounding box, each block written after the one before, so where
    triangles overlap, the value that stands is the one a single pass
    over all of them leaves."""
    px, py, pv = fld.xs[tri], fld.ys[tri], fld.values[tri]
    # coordinate j of (x, y) is s_j (x - x_2) + t_j (y - y_2), plus 1 for j = 2
    ax, ay = px[:, :2] - px[:, 2:], py[:, :2] - py[:, 2:]
    det = ax[:, 0] * ay[:, 1] - ax[:, 1] * ay[:, 0]
    keep = det != 0  # an area below float resolution holds no grid point
    px, py, pv, ax, ay, det = (v[keep] for v in (px, py, pv, ax, ay, det))
    s = np.stack([ay[:, 1], -ay[:, 0]]) / det
    t = np.stack([-ax[:, 1], ax[:, 0]]) / det
    s = np.vstack([s, -(s[0] + s[1])])
    # the value along a row is c + g (x - x_2): g per triangle, c per row
    dv = pv[:, :2] - pv[:, 2:]
    g = s[0] * dv[:, 0] + s[1] * dv[:, 1]
    # each bounding box's rows, one row wider each side, and its columns
    ny, nx = len(y_axis), len(x_axis)
    r0 = np.maximum(np.searchsorted(y_axis, py.min(axis=1)) - 1, 0)
    r1 = np.minimum(np.searchsorted(y_axis, py.max(axis=1), side="right") + 1, ny)
    width = (np.searchsorted(x_axis, px.max(axis=1), side="right")
             - np.searchsorted(x_axis, px.min(axis=1)))
    box = (r1 - r0) * width
    block = (np.cumsum(box) - box) // _BLOCK_POINTS
    cuts = (np.flatnonzero(np.diff(block)) + 1).tolist()
    out = np.full(ny * nx, np.nan)
    for first, end in zip([0] + cuts, cuts + [len(det)]):
        # (triangle, row) pairs over the block's bounding boxes
        span = r1[first:end] - r0[first:end]
        k = np.repeat(np.arange(first, end), span)
        rows = np.arange(len(k)) + np.repeat(r0[first:end] - np.cumsum(span) + span, span)
        # along the pair's row, coordinate j is s_j (x - x_2) + b_j, and it
        # is >= -eps on one side of x_2 + (-eps - b_j) / s_j
        dy = y_axis[rows] - py[k, 2]
        b = np.stack([t[0, k] * dy, t[1, k] * dy])
        b = np.vstack([b, 1.0 - b[0] - b[1]])
        sk = s[:, k]
        with np.errstate(divide="ignore", invalid="ignore"):
            edge = px[k, 2] + (-_BARY_EPS - b) / sk
        lo = np.max(np.where(sk > 0, edge, -np.inf), axis=0)
        hi = np.min(np.where(sk < 0, edge, np.inf), axis=0)
        # a coordinate constant along the row admits all of it or none
        lo[np.any((sk == 0) & (b < -_BARY_EPS), axis=0)] = np.inf
        c0 = np.searchsorted(x_axis, lo)
        c1 = np.maximum(np.searchsorted(x_axis, hi, side="right"), c0)
        n = c1 - c0
        c = pv[k, 2] + b[0] * dv[k, 0] + b[1] * dv[k, 1]
        cols = np.arange(n.sum()) + np.repeat(c0 - np.cumsum(n) + n, n)
        vals = np.repeat(c, n) + np.repeat(g[k], n) * (x_axis[cols] - np.repeat(px[k, 2], n))
        out[cols + np.repeat(rows * nx, n)] = vals
    return out.reshape(ny, nx)


def _gaussian_smooth(a: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian smoothing of a 2-D float64 array with zeros beyond the
    edge, in place (and `a` returned), bit for bit as
    scipy.ndimage.gaussian_filter(mode="constant"): the same truncated
    kernel, axis 0 then axis 1, and per output point the centre tap first,
    then each symmetric pair of taps from the outermost inward."""
    radius = int(4.0 * sigma + 0.5)
    weights = np.exp(-0.5 / (sigma * sigma) * np.arange(-radius, radius + 1) ** 2)
    weights = weights / weights.sum()
    pair = np.empty_like(a)
    for axis in (0, 1):
        n = a.shape[axis]
        padded = np.pad(a, [(radius, radius) if d == axis else (0, 0) for d in (0, 1)])
        taps = [padded[(slice(None),) * axis + (slice(j, j + n),)]
                for j in range(2 * radius + 1)]
        np.multiply(taps[radius], weights[radius], out=a)
        for k in range(radius, 0, -1):
            np.add(taps[radius - k], taps[radius + k], out=pair)
            pair *= weights[radius - k]
            a += pair
        del padded, taps  # before the next axis pads its own copy
    return a


def build_surface(fld: ScatterField, resolution: int, smoothing: float) -> GridField:
    """Barycentric-linear interpolation onto a uniform grid over the
    points' bounding box, masked to the grid points that lie in some
    triangle of their triangulation (as `_interpolate` decides), then
    Gaussian smoothing (width in grid cells) renormalized at the mask edge
    so boundary cells average only masked neighbors."""
    if resolution < 2:
        raise ValueError("resolution must be >= 2")
    x_axis = np.linspace(fld.xs.min(), fld.xs.max(), resolution)
    y_axis = np.linspace(fld.ys.min(), fld.ys.max(), resolution)
    values = _interpolate(fld, delaunay(np.column_stack([fld.xs, fld.ys])), x_axis, y_axis)
    if smoothing > 0:
        # the smoothed masked values over the smoothed mask, in place
        mask = np.isfinite(values)
        values[~mask] = 0.0
        den = _gaussian_smooth(mask.astype(np.float64), smoothing)
        _gaussian_smooth(values, smoothing)
        # den > 0 wherever the mask is set, from its centre tap
        np.divide(values, den, out=values, where=mask)
        values[~mask] = np.nan
    return GridField(x_axis, y_axis, values)


# a cell's edges are 0 bottom, 1 right, 2 top, 3 left; per sign code (bit
# k set when corner k of a, b, c, d is positive) the cell's segments as
# (from, to) edges, -1 for none.  The saddles 5 and 10 hold the pairing for
# a cell centre <= 0; a positive centre takes the other saddle's.
_CELL_SEGMENTS = np.array([
    [[-1, -1], [-1, -1]], [[0, 3], [-1, -1]], [[0, 1], [-1, -1]], [[3, 1], [-1, -1]],
    [[1, 2], [-1, -1]], [[0, 3], [1, 2]], [[0, 2], [-1, -1]], [[2, 3], [-1, -1]],
    [[2, 3], [-1, -1]], [[0, 2], [-1, -1]], [[3, 2], [0, 1]], [[1, 2], [-1, -1]],
    [[3, 1], [-1, -1]], [[0, 1], [-1, -1]], [[0, 3], [-1, -1]], [[-1, -1], [-1, -1]]])


def zero_contour(grid: GridField) -> List[np.ndarray]:
    """Marching-squares zero level set over fully masked cells, as
    polylines of (k, 2) float64 (x, y) vertices.  Cells are taken in
    row-major order, each edge crossing is linear in the corner values,
    and a saddle's pairing follows the sign of its corners' mean.
    Segments join where their endpoints coincide exactly; the two cells on
    an edge compute its crossing from the same operands.  From the first
    unused segment a polyline grows at its tail, then at its head.  A
    polyline whose vertices are all one point is dropped: a cell whose only
    non-positive corner is an exact zero crosses zero at that node alone."""
    V, m, xs, ys = grid.values, grid.mask, grid.x_axis, grid.y_axis
    pos = V > 0
    pa, pb, pc, pd = pos[:-1, :-1], pos[:-1, 1:], pos[1:, 1:], pos[1:, :-1]
    i, j = np.nonzero(m[:-1, :-1] & m[:-1, 1:] & m[1:, 1:] & m[1:, :-1]
                      & (pa | pb | pc | pd) & ~(pa & pb & pc & pd))
    if not len(i):  # a map of one sign, as the default dvcs maps are
        return []
    a, b, c, d = V[i, j], V[i, j + 1], V[i + 1, j + 1], V[i + 1, j]
    code = (a > 0) * 1 + (b > 0) * 2 + (c > 0) * 4 + (d > 0) * 8
    x0, x1, y0, y1 = xs[j], xs[j + 1], ys[i], ys[i + 1]
    code[((code == 5) | (code == 10)) & ((a + b + c + d) / 4.0 > 0)] ^= 15
    with np.errstate(divide="ignore", invalid="ignore"):
        # (x, y) of the crossing on each edge, (cells, 4, 2); only the
        # edges whose ends differ in sign are read
        ends = np.stack([np.stack([x0 + a / (a - b) * (x1 - x0), y0], axis=1),
                         np.stack([x1, y0 + b / (b - c) * (y1 - y0)], axis=1),
                         np.stack([x0 + d / (d - c) * (x1 - x0), y1], axis=1),
                         np.stack([x0, y0 + a / (a - d) * (y1 - y0)], axis=1)], axis=1)
    cell, slot = np.nonzero(_CELL_SEGMENTS[code, :, 0] >= 0)
    segments = [(tuple(p), tuple(q)) for p, q in
                ends[cell[:, None], _CELL_SEGMENTS[code[cell], slot]].tolist()]
    at = {}
    for s, (p, q) in enumerate(segments):
        at.setdefault(p, []).append(s)
        at.setdefault(q, []).append(s)
    used = [False] * len(segments)
    polylines = []
    for start, (p, q) in enumerate(segments):
        if used[start]:
            continue
        used[start] = True
        tail, head = [p, q], [p]
        for chain in (tail, head):
            while True:
                k = chain[-1]
                s = next((s for s in at[k] if not used[s]), None)
                if s is None:
                    break
                used[s] = True
                p, q = segments[s]
                chain.append(q if p == k else p)
        line = head[:0:-1] + tail
        if any(v != line[0] for v in line):
            polylines.append(np.array(line))
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
