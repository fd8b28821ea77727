"""Reference implementation that the zero-contour tests compare against.

``scan`` is marching squares one cell at a time: it visits every fully
masked cell in row-major order, emits that cell's segments with
``cell_segments`` and joins them with ``stitch``, which keys each
endpoint on its coordinates rounded to 9 decimals.
"""

import numpy as np


def _interp_zero(p: float, q: float) -> float:
    return p / (p - q)


def cell_segments(a, b, c, d, x0, x1, y0, y1):
    """Zero-level segments in one cell; corners a=(x0,y0) b=(x1,y0)
    c=(x1,y1) d=(x0,y1), sign convention: > 0 is positive."""
    sa, sb, sc, sd = a > 0, b > 0, c > 0, d > 0
    code = sa * 1 + sb * 2 + sc * 4 + sd * 8
    if code in (0, 15):
        return []
    # edge crossings by linear interpolation
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


def stitch(segments):
    """Join segments into polylines at endpoints that agree to 9 decimals:
    from the first unused segment, extend the tail, then the head."""
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


def scan(grid):
    """Polylines of a grid's zero level set, one cell at a time."""
    V, m, xs, ys = grid.values, grid.mask, grid.x_axis, grid.y_axis
    segments = []
    for i in range(len(ys) - 1):
        for j in range(len(xs) - 1):
            if m[i, j] and m[i, j + 1] and m[i + 1, j + 1] and m[i + 1, j]:
                segments += cell_segments(V[i, j], V[i, j + 1], V[i + 1, j + 1],
                                          V[i + 1, j], xs[j], xs[j + 1], ys[i], ys[i + 1])
    return stitch(segments)
