"""Height normalization and pit-free canopy height model rasterization.

The pit-free CHM triangulates the normalized cloud at several height
thresholds, rasterizes each TIN at the cell centers after discarding
long-edged triangles, and keeps the cell-wise maximum across layers.
There is one point set, deduplicated and sorted by (x, y); a layer is a
threshold over it, and its triangles are indices into it.

A large layer is triangulated in tiles with a halo of max_edge. Every
kept triangle of a tile is certified to be a triangle of the whole
layer's Delaunay triangulation, or dropped, or the layer falls back to
one triangulation of all its points; so the raster equals the untiled
one bit for bit. A tile's job is Qhull and then the certificate; with
several threads, worker threads run most jobs while the calling thread
runs its share and rasterizes every tile in order.

Qhull and the certificate see the points moved next to the origin
whenever that move is exact, since their rounding grows with the
distance from the origin; the rasterizer keeps the map coordinates.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .errors import ConfigError, DataError
from .geodata import DEFAULT_NODATA, Grid, PointCloud, bilinear_sample

_TRI_CHUNK = 32768
# The rasterizer tests the cells whose centers lie in a triangle's
# bounding box widened by this many cells: far more than the rounding
# of a cell center at projected coordinates, and than the barycentric
# tolerance, so no cell outside it can pass the test.
_CELL_MARGIN = 1e-6
# cells per block of the convex-hull test
_HULL_BLOCK = 4096
# points per tile; a layer with fewer than twice this many is one tile.
# Each thread has one tile's Qhull working set in flight, so smaller
# tiles lower the CHM's peak memory (ROADMAP "Closed areas" has the sweep)
_TILE_POINTS = 5_000
# A point counts as off a triangle's circumcircle only if its power
# (squared distance from the center minus squared radius) clears both
# this fraction of the circle's scale and Qhull's rounding, which grows
# with the squared distance of the points from the origin.
_CIRCLE_TOL = 1e-9
_QHULL_ROUNDOFF = 100 * 2.0 ** -52   # 100 double-precision epsilons

_INF = math.inf
_WHOLE = (-_INF, _INF, -_INF, _INF)   # the core of a one-tile layer
_FAILED = "qhull failed"


@dataclass(frozen=True)
class PitfreeParams:
    """Knobs of the pit-free CHM construction.

    Thresholds are heights (m) at which partial TINs are built; the
    first must be 0. Triangles with any edge longer than max_edge are
    discarded before rasterization. subcircle_radius > 0 splats every
    return into 8 extra points on a circle of that radius.
    """

    resolution: float = 0.5
    height_thresholds: tuple[float, ...] = (0.0, 2.0, 5.0, 10.0, 15.0)
    max_edge: float = 1.5
    subcircle_radius: float = 0.0
    first_returns_only: bool = True

    def __post_init__(self):
        if not self.resolution > 0:
            raise ValueError("resolution must be > 0")
        if not self.max_edge > 0:
            raise ValueError("max_edge must be > 0")
        th = tuple(float(t) for t in self.height_thresholds)
        if not th or th[0] != 0.0:
            raise ValueError("first height threshold must be 0")
        if any(b <= a for a, b in zip(th, th[1:])):
            raise ValueError("height thresholds must be strictly ascending")
        if self.subcircle_radius < 0:
            raise ValueError("subcircle_radius must be >= 0")
        object.__setattr__(self, "height_thresholds", th)


@dataclass(frozen=True)
class ChmGrid(Grid):
    """A pit-free CHM and the work counts of its triangulation.

    Per layer i: `layer<i>.points`, `.triangles` (kept), `.tiles` and
    `.dropped` (tile triangles that are not in the layer's Delaunay
    triangulation); then `fallback_layers`. They do not depend on the
    number of threads.
    """

    counts: dict = field(default_factory=dict, compare=False)


def normalize_heights(cloud: PointCloud, dtm: Grid) -> PointCloud:
    """Height above ground = z - bilinear DTM elevation, clamped at 0.

    Every point must lie inside the DTM interpolation hull and over
    valid terrain; violations raise DataError naming the first
    offending point index (bilinear_sample checks the hull).
    """
    ground = bilinear_sample(dtm, cloud.x, cloud.y)
    over_nodata = ground == dtm.nodata
    if np.any(over_nodata):
        idx = int(np.argmax(over_nodata))
        raise DataError(f"point {idx} at ({cloud.x[idx]}, {cloud.y[idx]}) lies "
                        f"over nodata terrain")

    height = np.maximum(cloud.z - ground, 0.0)
    return PointCloud(cloud.x, cloud.y, cloud.z, cloud.return_number,
                      cloud.is_ground, height)


def pitfree_chm(cloud: PointCloud, params: PitfreeParams,
                xll: float | None = None, yll: float | None = None,
                ncols: int | None = None, nrows: int | None = None,
                threads: int = 1) -> ChmGrid:
    """Rasterize a pit-free CHM from a height-normalized cloud.

    The raster extent defaults to the cloud's bounding box snapped to
    the resolution. Cells covered by no surviving triangle are 0 inside
    the convex hull of the threshold-0 points and nodata outside it.
    A layer of at least 2 * _TILE_POINTS (10,000) points is cut into
    tiles of about _TILE_POINTS points; a smaller one is one tile.
    Each tile is one job: Qhull, then the certificate. With threads > 1,
    this thread runs every threads-th job and threads - 1 worker threads
    run the others; this thread rasterizes the results in tile order, so
    the result does not depend on `threads`. A layer is a threshold over
    the one point set: a tile keeps the points of its window at or above
    it. Once a layer's last tile is rasterized, nothing holds its index
    array or its k-d tree any more.
    """
    # scipy.spatial costs half a second to import, so only a CHM loads
    # it; it is imported here, before any worker thread starts
    from scipy.spatial import QhullError

    if len(cloud) == 0:
        raise DataError("empty point cloud")
    if not cloud.has_heights():
        raise DataError("point cloud has no height_above_ground; run "
                        "normalize_heights first")

    x, y, h = cloud.x, cloud.y, cloud.height
    if params.first_returns_only:
        keep = cloud.return_number == 1
        x, y, h = x[keep], y[keep], h[keep]
    if x.size == 0:
        raise DataError("no points left after first-return filtering")

    if params.subcircle_radius > 0:
        x, y, h = _subcircle(x, y, h, params.subcircle_radius)

    x, y, h = _dedup_lexicographic(x, y, h)
    sx, sy = _exact_shift(x), _exact_shift(y)
    qx = x - sx if sx else x
    qy = y - sy if sy else y

    res = params.resolution
    if xll is None:
        xll = math.floor(x.min() / res) * res
    if yll is None:
        yll = math.floor(y.min() / res) * res
    if ncols is None:
        ncols = max(1, math.ceil((x.max() - xll) / res))
    if nrows is None:
        nrows = max(1, math.ceil((y.max() - yll) / res))
    try:
        # the first raster: a grid numpy cannot allocate goes no further
        acc = np.empty((nrows, ncols))
    except (MemoryError, ValueError):
        raise ConfigError(f"[chm] resolution {res} gives a {nrows:.4g} x "
                          f"{ncols:.4g} grid, too large to allocate") from None
    acc.fill(-np.inf)

    cols = np.arange(ncols)
    rows = np.arange(nrows)
    cx = xll + (cols + 0.5) * res
    cy = yll + (nrows - rows - 0.5) * res

    layers = [_Layer(t, h, qx, qy) for t in params.height_thresholds]
    hull_mask = np.zeros((nrows, ncols), dtype=bool)
    if layers[0].n >= 3:
        try:
            hull_mask = _inside_hull(x[layers[0].index], y[layers[0].index],
                                     cx, cy)
        except QhullError:
            raise DataError("degenerate (collinear) point set at "
                            "threshold 0") from None

    # a halo of max_edge holds every vertex of a kept triangle whose
    # centroid lies in the tile's core
    halo = max_edge = params.max_edge
    # subcircle splats ring each return with 8 points on one circle:
    # their tiles tie and fall back, or gain nothing, so they run whole
    tiled = params.subcircle_radius == 0
    cores = [[] if layer.n < 3
             else _tile_cores(qx[layer.index], qy[layer.index]) if tiled
             else [_WHOLE]
             for layer in layers]

    def tile(i, core):
        """The kept triangles of one tile and its dropped count, or None
        if the layer falls back. The tiles of a layer that fell back are
        not needed any more; a job that reads the flag before another
        sets it wastes one tile."""
        layer = layers[i]
        if layer.fallback:
            return None
        idx, tin = _triangulate(qx, qy, h, layer, core, halo)
        if core == _WHOLE:
            return _whole(x, y, layer, idx, tin, max_edge), 0
        kept = _certify(qx, qy, layer, idx, tin, core, halo, max_edge)
        if kept is None:
            layer.fallback = True
        return kept

    # a job names its layer by index, so that once the layer's last tile
    # is rasterized and its entry cleared, its index array and k-d tree go
    jobs = [(i, core) for i, layer_cores in enumerate(cores)
            for core in layer_cores]
    results = _lookahead(tile, jobs, threads)
    part = np.empty_like(acc)   # the TIN of the current layer
    counts, fallbacks = {}, 0
    with closing(results):
        for i, layer_cores in enumerate(cores):
            layer = layers[i]
            part.fill(-np.inf)
            layer.tiles = len(layer_cores)
            whole = False
            for result in islice(results, len(layer_cores)):
                if whole:
                    continue
                if result is None:
                    # start the layer again from one triangulation of
                    # all its points
                    part.fill(-np.inf)
                    whole, layer.tiles = True, 1
                    layer.triangles = layer.dropped = 0
                    result = _whole(x, y, layer, *_triangulate(
                        qx, qy, h, layer, _WHOLE, 0.0), max_edge), 0
                kept, dropped = result
                layer.triangles += len(kept)
                layer.dropped += dropped
                if len(kept):
                    _rasterize_tin(x, y, h, kept, xll, yll, res, nrows, part)
            np.maximum(acc, part, out=acc)
            counts.update({f"layer{i}.points": layer.n,
                           f"layer{i}.triangles": layer.triangles,
                           f"layer{i}.tiles": layer.tiles,
                           f"layer{i}.dropped": layer.dropped})
            fallbacks += layer.fallback
            layers[i] = layer = None

    covered = acc > -np.inf
    out = np.where(covered, acc, np.where(hull_mask, 0.0, DEFAULT_NODATA))
    out[covered] = np.maximum(out[covered], 0.0)
    counts["fallback_layers"] = fallbacks
    return ChmGrid(out, xll, yll, res, DEFAULT_NODATA, counts)


class _Layer:
    """One height layer: the shared points at or above its threshold,
    named by their ascending indices, and its work counts.

    The layer holds no coordinates: qx, qy are the shared points less
    the exact shift that Qhull and the certificate work in. Tile jobs
    on several threads read a layer at once; only the calling thread
    writes its counts.
    """

    def __init__(self, threshold, h, qx, qy):
        self.threshold = threshold
        self.index = np.flatnonzero(h >= threshold)
        self.n = len(self.index)
        # Qhull's rounding of a power, in squared map units
        self.roundoff = _QHULL_ROUNDOFF * float(np.max(
            qx[self.index] ** 2 + qy[self.index] ** 2, initial=0.0))
        self.tiles = self.triangles = self.dropped = 0
        self.fallback = False
        self._tree = None
        self._tree_lock = threading.Lock()

    def tree(self, qx, qy):
        """A k-d tree of the layer's points, built once by the first job
        that asks for it; its point i is the shared point index[i]."""
        with self._tree_lock:
            if self._tree is None:
                from scipy.spatial import cKDTree

                self._tree = cKDTree(np.column_stack(
                    [qx[self.index], qy[self.index]]))
        return self._tree


def _exact_shift(v):
    """The midpoint of v's range if subtracting it from every value of v
    is exact (Sterbenz: each value lies within a factor of 2 of it, on
    its side of 0), else 0. Projected coordinates, far from the origin
    against their extent, move to around 0; coordinates that start near
    0 stay as they are."""
    lo, hi = float(v.min()), float(v.max())
    mid = lo + (hi - lo) / 2
    if min(mid / 2, mid * 2) <= lo and hi <= max(mid / 2, mid * 2):
        return mid
    return 0.0


def _tile_cores(px, py):
    """Half-open core boxes (x0, x1, y0, y1) of a layer's tiles, about
    n / _TILE_POINTS of them over the bounding box, or one box for
    fewer than 2 * _TILE_POINTS points; the outer sides are infinite.
    px is sorted."""
    want = len(px) / _TILE_POINTS
    w = px[-1] - px[0]
    d = py.max() - py.min()
    if want < 2 or not w * d > 0:
        return [_WHOLE]
    side = math.sqrt(w * d / want)
    nx = min(max(1, round(w / side)), math.ceil(want))
    ny = math.ceil(want / nx)
    xc = [-_INF] + [px[0] + w * k / nx for k in range(1, nx)] + [_INF]
    yc = [-_INF] + [py.min() + d * k / ny for k in range(1, ny)] + [_INF]
    return [(xc[i], xc[i + 1], yc[j], yc[j + 1])
            for i in range(nx) for j in range(ny)]


def _triangulate(px, py, h, layer, core, halo):
    """Indices, ascending, of the layer's points in the core box widened
    by the halo, and their Delaunay triangulation as (simplices,
    neighbors, number of coplanar points); None for fewer than 3 points,
    _FAILED if Qhull fails. px is sorted. Runs on worker threads: it
    touches no shared state."""
    from scipy.spatial import Delaunay, QhullError

    x0, x1, y0, y1 = core
    lo = np.searchsorted(px, x0 - halo, "left")
    hi = np.searchsorted(px, x1 + halo, "right")
    ys = py[lo:hi]
    idx = lo + np.flatnonzero((ys >= y0 - halo) & (ys <= y1 + halo)
                              & (h[lo:hi] >= layer.threshold))
    if len(idx) < 3:
        return idx, None
    try:
        tri = Delaunay(np.column_stack([px[idx], py[idx]]))
    except QhullError:
        return idx, _FAILED
    return idx, (tri.simplices, tri.neighbors, len(tri.coplanar))


def _lookahead(fn, jobs, threads):
    """Yield fn(*job) for each job, in order. With threads > 1, the
    calling thread runs every threads-th job when its turn comes, and
    threads - 1 worker threads run the others, queued two rounds of
    `threads` jobs ahead of the result being taken: so the workers' jobs
    of a round are queued before the calling thread starts its own, and
    few finished results wait. With 1, every job runs inline. A job's
    exception is raised when its result is taken; the workers' jobs that
    have not started are then cancelled, and no worker outlives the
    generator."""
    if threads <= 1 or len(jobs) < 2:
        for job in jobs:
            yield fn(*job)
        return
    pool = ThreadPoolExecutor(min(threads - 1, len(jobs)))
    todo = enumerate(jobs)

    def queue(n):
        return [None if j % threads == 0 else pool.submit(fn, *job)
                for j, job in islice(todo, n)]

    try:
        ahead = deque(queue(2 * threads))
        for job in jobs:
            ahead.extend(queue(1))
            future = ahead.popleft()
            yield fn(*job) if future is None else future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def _whole(x, y, layer, idx, tin, max_edge):
    """Kept triangles of one triangulation of all the layer's points, in
    canonical order."""
    if tin is _FAILED:
        if layer.threshold == 0:
            raise DataError("degenerate (collinear) point set at "
                            "threshold 0")
        return np.empty((0, 3), dtype=np.intp)
    return _canonical(_prune_long_edges(idx[tin[0]], x, y, max_edge))


def _canonical(simplices):
    """Rotate each triangle so that its smallest point index comes
    first. Rotation keeps the orientation, and it makes the barycentric
    arithmetic of a triangle the same whichever tile found it."""
    first = simplices.argmin(axis=1)
    return np.take_along_axis(
        simplices, (first[:, None] + np.arange(3)) % 3, axis=1)


def _certify(px, py, layer, idx, tin, core, halo, max_edge):
    """The kept triangles a tile owns that are triangles of the whole
    layer's Delaunay triangulation and the number of owned triangles
    dropped, or None if that cannot be proven.

    A tile owns the kept triangles whose centroid lies in its core. A
    kept triangle's vertices lie within 2/3 max_edge of its centroid,
    so every owned Delaunay triangle of the layer has its vertices among
    the tile's points; its empty circumcircle makes it a Delaunay
    triangle of the tile too. The tile's other owned triangles have a
    layer point outside the tile inside their circle and are dropped.
    Near-cocircular points make the triangulation not unique: None.
    """
    if tin is None:
        return np.empty((0, 3), dtype=np.intp), 0
    if tin is _FAILED:
        return None
    simplices, neighbors, n_coplanar = tin
    if n_coplanar:
        return None
    x0, x1, y0, y1 = core
    s = idx[simplices]

    # every neighbour of a triangle near the core has its opposite
    # vertex clearly outside that triangle's circle; an edge between two
    # such triangles is tested once, from its lower-numbered side
    corners = s.T.copy()   # C order: fast reductions over axis 0
    tx, ty = px[corners], py[corners]
    near = ((tx.max(axis=0) >= x0) & (tx.min(axis=0) <= x1)
            & (ty.max(axis=0) >= y0) & (ty.min(axis=0) <= y1))
    lower = neighbors > np.arange(len(s))[:, None]
    t, k = np.nonzero(near[:, None] & (neighbors >= 0)
                      & (lower | ~near[neighbors]))
    nb = neighbors[t, k]
    across = s[nb, np.argmax(neighbors[nb] == t[:, None], axis=1)]
    det, perm, area2 = _incircle(px, py, s[t], across)
    roundoff = layer.roundoff
    if np.any(det >= -np.maximum(_CIRCLE_TOL * perm, roundoff * area2)):
        return None

    kept = _canonical(_prune_long_edges(s, px, py, max_edge))
    a, b, c = kept.T
    gx = (px[a] + px[b] + px[c]) / 3
    gy = (py[a] + py[b] + py[c]) / 3
    kept = kept[(gx >= x0) & (gx < x1) & (gy >= y0) & (gy < y1)]
    if not len(kept):
        return kept, 0

    # circumcircles that stay inside the tile's box hold no layer point;
    # the others are checked against their nearest layer points
    a, b, c = kept.T
    bx, by = px[b] - px[a], py[b] - py[a]
    qx, qy = px[c] - px[a], py[c] - py[a]
    with np.errstate(divide="ignore", invalid="ignore"):
        den = 2.0 * (bx * qy - by * qx)
        b2, q2 = bx * bx + by * by, qx * qx + qy * qy
        ux = (qy * b2 - by * q2) / den   # circumcenter - vertex a
        uy = (bx * q2 - qx * b2) / den
    r2 = ux * ux + uy * uy
    if not np.all(np.isfinite(r2)):
        return None
    ox, oy, r = px[a] + ux, py[a] + uy, np.sqrt(r2)
    reach = r + _CIRCLE_TOL * (r + np.abs(ox) + np.abs(oy))
    inside = ((ox - reach > x0 - halo) & (ox + reach < x1 + halo)
              & (oy - reach > y0 - halo) & (oy + reach < y1 + halo))
    check = np.flatnonzero(~inside)
    if not len(check):
        return kept, 0
    tri = kept[check]
    _, near4 = layer.tree(px, py).query(
        np.column_stack([ox[check], oy[check]]), k=4)
    found = near4 < layer.n
    near4 = layer.index[np.where(found, near4, 0)]
    other = (found & (near4 != tri[:, :1]) & (near4 != tri[:, 1:2])
             & (near4 != tri[:, 2:]))
    rows, cols = np.nonzero(other)
    d, va, j = near4[rows, cols], tri[rows, 0], check[rows]
    # squared distance from the circumcenter, taken relative to vertex a
    d2 = (px[d] - px[va] - ux[j]) ** 2 + (py[d] - py[va] - uy[j]) ** 2
    tol = np.maximum(_CIRCLE_TOL * r2[j], roundoff)
    inner = np.zeros(len(check), dtype=bool)
    inner[rows[d2 < r2[j] - tol]] = True
    tied = np.zeros(len(check), dtype=bool)
    tied[rows[np.abs(d2 - r2[j]) <= tol]] = True
    if np.any(tied & ~inner):
        return None
    keep = np.ones(len(kept), dtype=bool)
    keep[check[inner]] = False
    return kept[keep], int(inner.sum())


def _incircle(px, py, tri, d):
    """In-circle determinant of point d against each triangle, positive
    when d lies inside its circumcircle; the determinant's permanent,
    which bounds its rounding error; and twice the triangle's area. The
    determinant is minus the power of d times twice the area."""
    ax, ay = px[tri[:, 0]] - px[d], py[tri[:, 0]] - py[d]
    bx, by = px[tri[:, 1]] - px[d], py[tri[:, 1]] - py[d]
    cx, cy = px[tri[:, 2]] - px[d], py[tri[:, 2]] - py[d]
    al, bl, cl = ax * ax + ay * ay, bx * bx + by * by, cx * cx + cy * cy
    bc, cb, ca = bx * cy, cx * by, cx * ay
    ac, ab, ba = ax * cy, ax * by, bx * ay
    det = al * (bc - cb) + bl * (ca - ac) + cl * (ab - ba)
    perm = (al * (np.abs(bc) + np.abs(cb)) + bl * (np.abs(ca) + np.abs(ac))
            + cl * (np.abs(ab) + np.abs(ba)))
    orient = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return det * np.sign(orient), perm, np.abs(orient)


def _subcircle(x, y, h, radius):
    ang = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    ox = np.concatenate([x] + [x + radius * math.cos(a) for a in ang])
    oy = np.concatenate([y] + [y + radius * math.sin(a) for a in ang])
    oh = np.tile(h, 9)
    return ox, oy, oh


def _dedup_lexicographic(x, y, h):
    """Sort points by (x, y) and keep the highest point per location.

    The fixed ordering makes Delaunay tie-breaking reproducible.
    """
    order = np.lexsort((h, y, x))
    x, y, h = x[order], y[order], h[order]
    same = np.zeros(len(x), dtype=bool)
    same[1:] = (x[1:] == x[:-1]) & (y[1:] == y[:-1])
    # within a run of duplicates the last one has the max height
    last = np.ones(len(x), dtype=bool)
    last[:-1] = ~same[1:]
    return x[last], y[last], h[last]


def _prune_long_edges(simplices, px, py, max_edge):
    t = simplices
    lengths = np.stack([
        np.hypot(px[t[:, 0]] - px[t[:, 1]], py[t[:, 0]] - py[t[:, 1]]),
        np.hypot(px[t[:, 1]] - px[t[:, 2]], py[t[:, 1]] - py[t[:, 2]]),
        np.hypot(px[t[:, 2]] - px[t[:, 0]], py[t[:, 2]] - py[t[:, 0]]),
    ])
    return t[lengths.max(axis=0) <= max_edge]


def _inside_hull(px, py, cx, cy):
    """Cells whose centers are inside the convex hull of the points.

    The cells are tested in near-equal blocks of at most _HULL_BLOCK, so
    the (cells x hull facets) matrix never holds more than one block.
    No block has a single cell unless the grid does: numpy takes a
    one-row product down its matrix-vector path, whose rounding differs
    from the matrix product's.
    """
    from scipy.spatial import ConvexHull

    hull = ConvexHull(np.column_stack([px, py]))
    gx, gy = np.meshgrid(cx, cy)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    a = hull.equations[:, :2]
    b = hull.equations[:, 2]
    blocks = np.array_split(pts, -(-len(pts) // _HULL_BLOCK))
    inside = np.concatenate([np.all(block @ a.T + b <= 1e-9, axis=1)
                             for block in blocks])
    return inside.reshape(len(cy), len(cx))


def _rasterize_tin(px, py, ph, simplices, xll, yll, res, nrows, acc):
    """Scatter barycentric interpolation of each triangle into acc (max).

    The candidate cells of a triangle are the cells of acc whose centers
    lie in its bounding box, widened by _CELL_MARGIN. Every triangle has
    edges <= max_edge, so that box spans a small, bounded number of
    cells. Triangles are grouped by the shape of their box and processed
    in chunks of one shape with fully vectorized barycentric tests; a
    triangle whose box holds no cell center is skipped. Overlapping
    coverage (only possible on shared edges) resolves by maximum, which
    is order-independent.
    """
    ncols = acc.shape[1]
    corners = simplices.T.copy()   # C order: fast reductions over axis 0
    xs, ys = px[corners], py[corners]
    c_lo, c_hi = _cell_range(xs.min(axis=0), xs.max(axis=0), xll, res, ncols)
    s_lo, s_hi = _cell_range(ys.min(axis=0), ys.max(axis=0), yll, res, nrows)
    span_c, span_s = c_hi - c_lo + 1, s_hi - s_lo + 1
    live = np.flatnonzero((span_c > 0) & (span_s > 0))
    shape = span_s[live] * (int(span_c.max()) + 1) + span_c[live]
    by_shape = np.argsort(shape, kind="stable")
    order = live[by_shape]
    cuts = np.flatnonzero(np.diff(shape[by_shape])) + 1
    for group in np.split(order, cuts):
        for start in range(0, len(group), _TRI_CHUNK):
            g = group[start:start + _TRI_CHUNK]
            _rasterize_group(px, py, ph, simplices[g], c_lo[g], s_lo[g],
                             int(span_c[g[0]]), int(span_s[g[0]]),
                             xll, yll, res, nrows, ncols, acc)


def _cell_range(lo, hi, origin, res, n):
    """First and last index, within 0 to n - 1, of the cells whose
    centers lie in [lo, hi] widened by _CELL_MARGIN cells; last < first
    for none."""
    first = np.ceil((lo - origin) / res - 0.5 - _CELL_MARGIN)
    last = np.floor((hi - origin) / res - 0.5 + _CELL_MARGIN)
    return (np.clip(first, 0, n).astype(np.int64),
            np.clip(last, -1, n - 1).astype(np.int64))


def _rasterize_group(px, py, ph, t, c_lo, s_lo, span_c, span_s,
                     xll, yll, res, nrows, ncols, acc):
    x0, y0, z0 = px[t[:, 0]], py[t[:, 0]], ph[t[:, 0]]
    x1, y1, z1 = px[t[:, 1]], py[t[:, 1]], ph[t[:, 1]]
    x2, y2, z2 = px[t[:, 2]], py[t[:, 2]], ph[t[:, 2]]

    cc = c_lo[:, None, None] + np.arange(span_c)[None, None, :]
    ss = s_lo[:, None, None] + np.arange(span_s)[None, :, None]
    qx = xll + (cc + 0.5) * res
    qy = yll + (ss + 0.5) * res

    det = ((y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2))
    ok_tri = np.abs(det) > 1e-300
    det = np.where(ok_tri, det, 1.0)
    w0 = (((y1 - y2)[:, None, None] * (qx - x2[:, None, None])
           + (x2 - x1)[:, None, None] * (qy - y2[:, None, None]))
          / det[:, None, None])
    w1 = (((y2 - y0)[:, None, None] * (qx - x2[:, None, None])
           + (x0 - x2)[:, None, None] * (qy - y2[:, None, None]))
          / det[:, None, None])
    w2 = 1.0 - w0 - w1

    eps = -1e-12
    inside = (w0 >= eps) & (w1 >= eps) & (w2 >= eps) & ok_tri[:, None, None]

    vals = (w0 * z0[:, None, None] + w1 * z1[:, None, None]
            + w2 * z2[:, None, None])
    rr = nrows - 1 - ss
    flat = (rr * ncols + cc)[inside]
    np.maximum.at(acc.reshape(-1), flat, vals[inside])
