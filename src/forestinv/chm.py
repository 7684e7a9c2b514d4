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
one bit for bit. A tile's job is Qhull and then the certificate. Every
Qhull call, the convex hull of the threshold-0 points included, runs in
worker processes forked from the calling one, which queues the jobs and
rasterizes every tile, in order, into the one maximum raster; so the
calling process never loads scipy.

Qhull and the certificate see the points moved next to the origin
whenever that move is exact, since their rounding grows with the
distance from the origin; the rasterizer keeps the map coordinates.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DataError, WorkerError
from .geodata import DEFAULT_NODATA, Grid, PointCloud, bilinear_sample

_TRI_CHUNK = 32768
# The rasterizer tests the cells whose centers lie in a triangle's
# bounding box widened by this many cells: far more than the rounding
# of a cell center at projected coordinates, and than the barycentric
# tolerance, so no cell outside it can pass the test.
_CELL_MARGIN = 1e-6
# cells per block of the convex-hull test
_HULL_BLOCK = 4096
# float64 rasters pitfree_chm holds at once at most, summed over its
# processes: the calling one holds the maximum, then the maximum and
# the output, and two bool masks (the hull, the covered cells); the
# hull's worker holds its bool mask and the pickle that carries it
# back. That rounds up from 2.5. The other workers' memory (scipy, one
# tile each) does not grow with the grid, and is not counted.
_RASTERS_AT_ONCE = 3
# points per tile; a layer with fewer than twice this many is one tile.
# Each worker has one tile's Qhull working set in flight, so smaller
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
    number of worker processes.
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
    Each tile is one job: Qhull, then the certificate. The convex hull
    is the first job. n worker processes, forked from this one once the
    shared points exist, run the jobs, n being `threads` capped at the
    CPUs this process may run on and at the number of jobs; this process
    queues them in tile order, two rounds of n ahead of the result it
    takes, and rasterizes the results in that order into the one
    maximum raster, so the result does not depend on n and this process
    never loads scipy. A layer is a threshold over the one point set,
    which is sorted by x: a tile keeps the points of its window at or
    above it, and the certificate tests a circle that leaves its tile
    against those of the circle's x-strip.
    """
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
    try:
        with np.errstate(over="raise"):   # the extent in cells may overflow
            if xll is None:
                xll = math.floor(x.min() / res) * res
            if yll is None:
                yll = math.floor(y.min() / res) * res
            if ncols is None:
                ncols = max(1, math.ceil((x.max() - xll) / res))
            if nrows is None:
                nrows = max(1, math.ceil((y.max() - yll) / res))
    except (FloatingPointError, OverflowError):
        raise ConfigError(f"[chm] resolution {res} gives a grid of more "
                          f"cells than a float can count") from None
    memory = _physical_memory()
    if memory is not None and _RASTERS_AT_ONCE * 8 * nrows * ncols > memory:
        # numpy would allocate such a grid lazily, and filling it would
        # get the process killed
        raise ConfigError(f"[chm] resolution {res} gives a {nrows:.4g} x "
                          f"{ncols:.4g} grid, too large for physical "
                          f"memory")
    try:
        # a grid numpy cannot allocate goes no further; the maximum is
        # filled after the fork, so that no worker holds its pages
        acc = np.empty((nrows, ncols))
    except (MemoryError, ValueError):
        raise ConfigError(f"[chm] resolution {res} gives a {nrows:.4g} x "
                          f"{ncols:.4g} grid, too large to allocate") from None

    cols = np.arange(ncols)
    rows = np.arange(nrows)
    cx = xll + (cols + 0.5) * res
    cy = yll + (nrows - rows - 0.5) * res

    layers = [_Layer.over(t, h, qx, qy) for t in params.height_thresholds]
    # subcircle splats ring each return with 8 points on one circle:
    # their tiles tie and fall back, or gain nothing, so they run whole
    tiled = params.subcircle_radius == 0
    cores = [[] if layer.n < 3
             else _tile_cores(*layer.points(h, qx, qy)) if tiled
             else [_WHOLE]
             for layer in layers]
    todo = deque((i, core) for i, layer_cores in enumerate(cores)
                 for core in layer_cores)
    shared = _Shared(x, y, h, qx, qy, layers, cx, cy, params.max_edge)
    counts, fallbacks = {}, 0
    # no more workers than jobs, the hull's included, or than CPUs this
    # process may run on: each worker imports scipy, and more workers
    # than CPUs only contend for them
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    n = min(threads, cpus, 1 + len(todo))
    with _workers(n, shared) as submit:
        # first, so that its worker loads scipy while the maximum fills
        hull = submit(None, None) if layers[0].n >= 3 else None
        acc.fill(-np.inf)
        ahead = deque()   # (layer, future) in tile order
        for i, layer_cores in enumerate(cores):
            tiles, triangles, dropped = len(layer_cores), 0, 0
            while True:
                while todo and len(ahead) < 2 * n:
                    j, core = todo.popleft()
                    ahead.append((j, submit(j, core)))
                if not ahead or ahead[0][0] != i:
                    break
                result = ahead.popleft()[1].result()
                if result is None:
                    # start the layer again from one triangulation of all
                    # its points, its own job; its other tiles are not
                    # queued any more, and those queued are cancelled or
                    # their results dropped. The tiles already in the
                    # maximum are triangles of that triangulation, and a
                    # maximum is exact and order-free: no cell changes.
                    fallbacks += 1
                    while todo and todo[0][0] == i:
                        todo.popleft()
                    for j, future in ahead:
                        if j == i:
                            future.cancel()   # unless a worker has it
                    ahead = deque(job for job in ahead if job[0] != i)
                    ahead.appendleft((i, submit(i, _WHOLE)))
                    tiles, triangles, dropped = 1, 0, 0
                    continue
                kept, tile_dropped = result
                triangles += len(kept)
                dropped += tile_dropped
                if len(kept):
                    _rasterize_tin(x, y, h, kept, xll, yll, res, nrows, acc)
            counts.update({f"layer{i}.points": layers[i].n,
                           f"layer{i}.triangles": triangles,
                           f"layer{i}.tiles": tiles,
                           f"layer{i}.dropped": dropped})
        hull_mask = (hull.result() if hull is not None
                     else np.zeros((nrows, ncols), dtype=bool))

    covered = acc > -np.inf
    out = np.where(hull_mask, 0.0, DEFAULT_NODATA)
    np.copyto(out, np.maximum(acc, 0.0, out=acc), where=covered)
    counts["fallback_layers"] = fallbacks
    return ChmGrid(out, xll, yll, res, DEFAULT_NODATA, counts)


class _Shared(NamedTuple):
    """What every job of one pitfree_chm call reads: the shared points,
    moved (qx, qy) and not, their heights, the layers, the cell centers
    and max_edge. Worker processes inherit it when they are forked."""

    x: np.ndarray
    y: np.ndarray
    h: np.ndarray
    qx: np.ndarray
    qy: np.ndarray
    layers: list
    cx: np.ndarray
    cy: np.ndarray
    max_edge: float


@contextmanager
def _workers(n, shared):
    """Yields submit(i, core), which queues the job _tile(shared, i,
    core) and returns its future. The jobs run in n worker processes,
    forked from this one at the first submit, so that they inherit
    `shared` without a copy or a fresh import; the pool forks them all
    before it starts its own thread (Python 3.11 and later). Jobs are
    taken in the order queued. A job's exception is raised when its
    result is taken, with its type; a worker that dies raises
    WorkerError. On leaving, the jobs not started are cancelled and
    every worker has exited."""
    if "fork" not in multiprocessing.get_all_start_methods():
        raise WorkerError("the CHM runs Qhull in worker processes started "
                          "by fork, which this system does not offer")
    pool = ProcessPoolExecutor(n, multiprocessing.get_context("fork"),
                               initializer=_inherit, initargs=(shared,))
    try:
        yield partial(pool.submit, _job)
    except BrokenProcessPool:
        raise WorkerError("a worker process died before its job finished; "
                          "the system may have killed it for lack of "
                          "memory (fewer --threads use less)") from None
    finally:
        pool.shutdown(cancel_futures=True)


# in a worker process only: the _Shared of the pitfree_chm call that
# forked it
_inherited = None


def _inherit(shared):
    global _inherited
    _inherited = shared


def _job(i, core):
    """A worker's job: _tile over the points the worker inherited."""
    return _tile(_inherited, i, core)


def _tile(shared, i, core):
    """For i None, the cells inside the convex hull of the threshold-0
    points. Else the kept triangles of layer i's tile `core` and the
    number dropped, or None if the layer falls back; the core _WHOLE
    triangulates all the layer's points and does not fall back."""
    x, y, h, qx, qy, layers, cx, cy, max_edge = shared
    if i is None:
        from scipy.spatial import QhullError

        try:
            return _inside_hull(*layers[0].points(h, x, y), cx, cy)
        except QhullError:
            raise DataError("degenerate (collinear) point set at "
                            "threshold 0") from None
    # a halo of max_edge holds every vertex of a kept triangle whose
    # centroid lies in the tile's core
    layer, halo = layers[i], max_edge
    idx, tin = _triangulate(qx, qy, h, layer, core, halo)
    if core == _WHOLE:
        return _whole(x, y, layer, idx, tin, max_edge), 0
    return _certify(qx, qy, h, layer, idx, tin, core, halo, max_edge)


def _physical_memory():
    """Bytes of physical memory, or None where the system does not say."""
    try:
        pages = os.sysconf("SC_PHYS_PAGES")
        size = os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, OSError, ValueError):
        return None
    return pages * size if pages > 0 and size > 0 else None


class _Layer(NamedTuple):
    """One height layer: a threshold over the shared points, their
    number, and Qhull's rounding of a power on its points.

    The layer holds no array: `points` picks its points out of the
    shared ones when they are needed.
    """

    threshold: float
    n: int
    # in squared map units: the shared points less the exact shift that
    # Qhull and the certificate work in
    roundoff: float

    @classmethod
    def over(cls, threshold, h, qx, qy):
        """The layer of the points qx, qy of heights h at `threshold`."""
        on = h >= threshold
        lx, ly = qx[on], qy[on]
        return cls(threshold, len(lx), _QHULL_ROUNDOFF
                   * float(np.max(lx ** 2 + ly ** 2, initial=0.0)))

    def points(self, h, px, py):
        """The layer's points among the shared points px, py of heights
        h, in their order."""
        on = h >= self.threshold
        return px[on], py[on]


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
    _FAILED if Qhull fails. px is sorted."""
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


def _certify(px, py, h, layer, idx, tin, core, halo, max_edge):
    """The kept triangles a tile owns that are triangles of the whole
    layer's Delaunay triangulation and the number of owned triangles
    dropped, or None if that cannot be proven.

    A tile owns the kept triangles whose centroid lies in its core. A
    kept triangle's vertices lie within 2/3 max_edge of its centroid,
    so every owned Delaunay triangle of the layer has its vertices among
    the tile's points; its empty circumcircle makes it a Delaunay
    triangle of the tile too. The tile's other owned triangles have a
    layer point outside the tile inside their circle and are dropped.
    Near-cocircular points make the triangulation not unique: None. A
    circle that leaves the tile's box is tested against the layer points
    in its box, found in one slice of the shared points, sorted by x.
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
    # a point inside one of the others drops its triangle, and a point
    # on it with none inside is a tie
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
    inner = np.zeros(len(kept), dtype=bool)
    for j in np.flatnonzero(~inside):
        # a point the test below calls inside or tied lies within
        # sqrt(r2 + tol) of the center; the strip's margin dwarfs the
        # rounding of the test's coordinates
        tol = max(_CIRCLE_TOL * r2[j], roundoff)
        side = math.sqrt(r2[j] + tol)
        side += _CIRCLE_TOL * (side + abs(ox[j]) + abs(oy[j]))
        lo = np.searchsorted(px, ox[j] - side, "left")
        hi = np.searchsorted(px, ox[j] + side, "right")
        d = lo + np.flatnonzero((np.abs(py[lo:hi] - oy[j]) <= side)
                                & (h[lo:hi] >= layer.threshold))
        va = a[j]
        d = d[(d != va) & (d != b[j]) & (d != c[j])]
        # squared distance from the circumcenter, taken relative to vertex a
        d2 = (px[d] - px[va] - ux[j]) ** 2 + (py[d] - py[va] - uy[j]) ** 2
        if np.any(d2 < r2[j] - tol):
            inner[j] = True
        elif np.any(np.abs(d2 - r2[j]) <= tol):
            return None
    return kept[~inner], int(inner.sum())


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

    The cells are tested in near-equal blocks of at most _HULL_BLOCK,
    and a block's centers are built when it is tested, so neither they
    nor the (cells x hull facets) matrix ever hold more than one block.
    No block has a single cell unless the grid does: numpy takes a
    one-row product down its matrix-vector path, whose rounding differs
    from the matrix product's.
    """
    from scipy.spatial import ConvexHull

    hull = ConvexHull(np.column_stack([px, py]))
    a = hull.equations[:, :2]
    b = hull.equations[:, 2]
    ncols = len(cx)
    n = ncols * len(cy)
    inside = np.empty(n, dtype=bool)
    # the blocks of np.array_split: the first n % k one cell larger
    k = -(-n // _HULL_BLOCK)
    size, larger = divmod(n, k)
    lo = 0
    for j in range(k):
        hi = lo + size + (j < larger)
        cell = np.arange(lo, hi)
        block = np.column_stack([cx[cell % ncols], cy[cell // ncols]])
        inside[lo:hi] = np.all(block @ a.T + b <= 1e-9, axis=1)
        lo = hi
    return inside.reshape(len(cy), ncols)


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
