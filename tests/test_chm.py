import contextlib
import multiprocessing
import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import ConvexHull

from forestinv import chm as chm_mod
from forestinv.chm import PitfreeParams, normalize_heights, pitfree_chm
from forestinv.errors import DataError, WorkerError
from forestinv.geodata import DEFAULT_NODATA, Grid, PointCloud


def flat_dtm(value=100.0, n=30, cellsize=1.0):
    return Grid(np.full((n, n), value), 0.0, 0.0, cellsize)


class TestNormalizeHeights:
    def test_height_above_flat_terrain(self):
        cloud = PointCloud.from_xyz([5.0], [5.0], [105.0])
        out = normalize_heights(cloud, flat_dtm())
        assert out.height[0] == pytest.approx(5.0, abs=1e-12)
        assert out.z[0] == 105.0

    def test_negative_height_clamped(self):
        cloud = PointCloud.from_xyz([5.0], [5.0], [99.5])
        out = normalize_heights(cloud, flat_dtm())
        assert out.height[0] == 0.0

    def test_sloped_plane(self):
        # dtm z = x (value at cell centers), point at x=10 with z=12
        n = 30
        cols = (np.arange(n) + 0.5)
        vals = np.tile(cols, (n, 1))
        dtm = Grid(vals, 0.0, 0.0, 1.0)
        cloud = PointCloud.from_xyz([10.0], [15.0], [12.0])
        out = normalize_heights(cloud, dtm)
        assert out.height[0] == pytest.approx(2.0, abs=1e-9)

    def test_point_outside_hull_reports_index(self):
        cloud = PointCloud.from_xyz([5.0, 500.0], [5.0, 5.0], [105.0, 105.0])
        with pytest.raises(DataError, match="point 1"):
            normalize_heights(cloud, flat_dtm())


def uniform_cloud(height, spacing=0.3, extent=12.0, jitter=0.0, seed=0):
    xs = np.arange(0.0, extent + spacing / 2, spacing)
    gx, gy = np.meshgrid(xs, xs)
    x = gx.ravel()
    y = gy.ravel()
    if jitter:
        rng = np.random.default_rng(seed)
        x = x + rng.uniform(-jitter, jitter, x.size)
        y = y + rng.uniform(-jitter, jitter, y.size)
    h = np.full(x.size, float(height))
    return PointCloud.from_xyz(x, y, np.zeros_like(x), height=h)


class TestPitfree:
    def test_flat_canopy(self):
        cloud = uniform_cloud(10.0)
        chm = pitfree_chm(cloud, PitfreeParams(resolution=0.5))
        inner = chm.values[4:-4, 4:-4]
        np.testing.assert_allclose(inner, 10.0, atol=1e-6)

    def test_cone_apex_recovered(self):
        # cone apex 20 m at the center of a 0.5 m cell
        rng = np.random.default_rng(2)
        n = 4000
        x = rng.uniform(0, 20, n)
        y = rng.uniform(0, 20, n)
        apex_x, apex_y, apex_h, radius = 10.25, 10.25, 20.0, 8.0
        r = np.hypot(x - apex_x, y - apex_y)
        h = np.maximum(0.0, apex_h * (1 - r / radius))
        x = np.append(x, apex_x)
        y = np.append(y, apex_y)
        h = np.append(h, apex_h)
        cloud = PointCloud.from_xyz(x, y, np.zeros_like(x), height=h)
        chm = pitfree_chm(cloud, PitfreeParams(resolution=0.5),
                          xll=0.0, yll=0.0, ncols=40, nrows=40)
        peak = np.unravel_index(np.argmax(chm.values), chm.values.shape)
        apex_cell = chm.cell_of(apex_x, apex_y)
        assert abs(peak[0] - apex_cell[0]) <= 1
        assert abs(peak[1] - apex_cell[1]) <= 1
        assert chm.values.max() == pytest.approx(20.0, abs=1e-9)

    def test_two_far_points_give_nodata(self):
        cloud = PointCloud.from_xyz([0.0, 10.0], [0.0, 0.0], [0.0, 0.0],
                                    height=np.array([5.0, 5.0]))
        chm = pitfree_chm(cloud, PitfreeParams(resolution=0.5, max_edge=1.5),
                          xll=0.0, yll=-1.0, ncols=20, nrows=4)
        assert (chm.values == chm.nodata).all()

    def test_empty_cloud_raises(self):
        cloud = PointCloud.from_xyz([], [], [])
        with pytest.raises(DataError, match="empty"):
            pitfree_chm(cloud, PitfreeParams())

    def test_collinear_threshold0_raises(self):
        cloud = PointCloud.from_xyz([0.0, 1.0, 2.0], [0.0, 0.0, 0.0],
                                    [0.0, 0.0, 0.0],
                                    height=np.array([1.0, 1.0, 1.0]))
        with pytest.raises(DataError, match="collinear|degenerate"):
            pitfree_chm(cloud, PitfreeParams())
        assert multiprocessing.active_children() == []

    def test_missing_heights_rejected(self):
        cloud = PointCloud.from_xyz([0.0, 1.0, 0.5], [0.0, 0.0, 1.0],
                                    [1.0, 1.0, 1.0])
        with pytest.raises(DataError, match="height"):
            pitfree_chm(cloud, PitfreeParams())

    def test_cells_never_exceed_max_height_and_nonnegative(self):
        cloud = uniform_cloud(7.0, jitter=0.1, seed=3)
        chm = pitfree_chm(cloud, PitfreeParams(resolution=0.5))
        valid = chm.valid_mask()
        assert chm.values[valid].max() <= 7.0 + 1e-9
        assert chm.values[valid].min() >= 0.0

    def test_layer_max_dominates_single_tin(self):
        rng = np.random.default_rng(5)
        n = 3000
        x = rng.uniform(0, 15, n)
        y = rng.uniform(0, 15, n)
        # canopy with pits: 20% of returns punch to near ground
        h = np.full(n, 12.0)
        pits = rng.random(n) < 0.2
        h[pits] = rng.uniform(0, 1, pits.sum())
        cloud = PointCloud.from_xyz(x, y, np.zeros_like(x), height=h)
        params = PitfreeParams(resolution=0.5)
        full = pitfree_chm(cloud, params, xll=0.0, yll=0.0, ncols=30, nrows=30)
        single = pitfree_chm(cloud, PitfreeParams(
            resolution=0.5, height_thresholds=(0.0,)),
            xll=0.0, yll=0.0, ncols=30, nrows=30)
        both = full.valid_mask() & single.valid_mask()
        assert np.all(full.values[both] >= single.values[both] - 1e-9)

    def test_adding_point_never_decreases_cells(self):
        cloud = uniform_cloud(9.0, spacing=0.4)
        params = PitfreeParams(resolution=0.5)
        base = pitfree_chm(cloud, params, xll=0.0, yll=0.0, ncols=24, nrows=24)
        x = np.append(cloud.x, 6.17)
        y = np.append(cloud.y, 6.31)
        h = np.append(cloud.height, 11.0)
        bigger = pitfree_chm(PointCloud.from_xyz(x, y, np.zeros_like(x), height=h),
                             params, xll=0.0, yll=0.0, ncols=24, nrows=24)
        both = base.valid_mask() & bigger.valid_mask()
        assert np.all(bigger.values[both] >= base.values[both] - 1e-9)

    def test_deterministic(self):
        cloud = uniform_cloud(8.0, jitter=0.12, seed=11)
        params = PitfreeParams(resolution=0.5)
        a = pitfree_chm(cloud, params)
        b = pitfree_chm(cloud, params)
        np.testing.assert_array_equal(a.values, b.values)

    def test_subcircle_extends_coverage(self):
        # returns 1.2 m apart can't form short-edged triangles alone;
        # splatting each into a small disc of points can
        x = np.array([5.0, 6.2, 5.6])
        y = np.array([5.0, 5.0, 6.0])
        cloud = PointCloud.from_xyz(x, y, np.zeros(3),
                                    height=np.full(3, 8.0))
        base = pitfree_chm(cloud, PitfreeParams(resolution=0.5, max_edge=1.0),
                           xll=0.0, yll=0.0, ncols=24, nrows=24)
        splat = pitfree_chm(cloud, PitfreeParams(resolution=0.5, max_edge=1.0,
                                                 subcircle_radius=0.3),
                            xll=0.0, yll=0.0, ncols=24, nrows=24)
        assert splat.valid_mask().sum() > base.valid_mask().sum()

    def test_first_return_filter(self):
        cloud = uniform_cloud(10.0)
        rn = np.ones(len(cloud), dtype=np.int32)
        rn[::2] = 2
        mixed = PointCloud.from_xyz(cloud.x, cloud.y, cloud.z,
                                    return_number=rn, height=cloud.height)
        keep_all = pitfree_chm(mixed, PitfreeParams(first_returns_only=False))
        first_only = pitfree_chm(mixed, PitfreeParams(first_returns_only=True))
        assert first_only.valid_mask().sum() <= keep_all.valid_mask().sum()


def test_params_validation():
    with pytest.raises(ValueError):
        PitfreeParams(resolution=0.0)
    with pytest.raises(ValueError):
        PitfreeParams(height_thresholds=(1.0, 2.0))
    with pytest.raises(ValueError):
        PitfreeParams(height_thresholds=(0.0, 2.0, 2.0))
    with pytest.raises(ValueError):
        PitfreeParams(max_edge=-1.0)


# ---------------------------------------------------------------------------
# Tiled triangulation: equal to one tile per layer, bit for bit
# ---------------------------------------------------------------------------

ONE_TILE = 10**9


def chm_with_tiles(monkeypatch, cloud, params, tile_points, threads=1):
    monkeypatch.setattr(chm_mod, "_TILE_POINTS", tile_points)
    return pitfree_chm(cloud, params, threads=threads)


def append_line(path, *fields):
    """Append one line to `path`; from any process, since the CHM's jobs
    run in worker processes. One short write in append mode per line, so
    lines from several workers do not interleave."""
    with open(path, "a") as f:
        f.write(" ".join(map(str, fields)) + "\n")


def read_lines(path):
    return ([line.split() for line in path.read_text().splitlines()]
            if path.exists() else [])


def tile_cuts(x, y, tile_points, monkeypatch):
    """The finite x and y cuts of the threshold-0 layer's tiles, in map
    coordinates (within an ulp of them if the layer is recentred)."""
    monkeypatch.setattr(chm_mod, "_TILE_POINTS", tile_points)
    order = np.lexsort((y, x))
    sx, sy = chm_mod._exact_shift(x), chm_mod._exact_shift(y)
    cores = chm_mod._tile_cores(x[order] - sx, y[order] - sy)
    xs = {v + sx for c in cores for v in c[:2] if np.isfinite(v)}
    ys = {v + sy for c in cores for v in c[2:] if np.isfinite(v)}
    return sorted(xs), sorted(ys)


def make_cloud(kind, seed, tile_points, monkeypatch, offset=0.0):
    """(cloud, params) of one family of test clouds, moved by (offset,
    10 offset): 5e5 puts them at UTM-like coordinates."""
    rng = np.random.default_rng(seed)
    params = PitfreeParams(resolution=0.5)
    if kind == "clusters":
        # dense clumps with wide gaps: sparse, patchy upper layers
        k = rng.integers(2, 7)
        centers = rng.uniform(0, 30, (k, 2))
        sizes = rng.integers(20, 100, k)
        pts = np.vstack([c + rng.normal(0, rng.uniform(0.5, 3), (s, 2))
                         for c, s in zip(centers, sizes)])
        x, y = pts[:, 0], pts[:, 1]
        h = rng.uniform(0, 20, len(x))
    elif kind in ("jittered", "grid", "on_cuts"):
        spacing = rng.uniform(0.25, 0.8)
        gx, gy = np.meshgrid(np.arange(rng.integers(6, 22)) * spacing,
                             np.arange(rng.integers(6, 22)) * spacing)
        x, y = gx.ravel(), gy.ravel()
        if kind != "grid":
            # slivers: some triangles' circles reach past the halo
            jitter = spacing * rng.uniform(0.05, 0.45)
            x = x + rng.uniform(-jitter, jitter, x.size)
            y = y + rng.uniform(-jitter, jitter, y.size)
        # clear a band so that an upper layer's triangles span the gap
        band = rng.uniform(x.min(), x.max())
        keep = np.abs(x - band) > rng.uniform(0, 0.2) * (x.max() - x.min())
        x, y = x[keep], y[keep]
        h = rng.choice([0.5, 3.0, 7.0, 12.0, 18.0], x.size)
    elif kind == "subcircle":
        # octagons around the returns of a grid: the facing points of
        # four neighbouring octagons are cocircular
        spacing = rng.uniform(0.9, 1.4)
        gx, gy = np.meshgrid(np.arange(rng.integers(4, 12)) * spacing,
                             np.arange(rng.integers(4, 12)) * spacing)
        x, y = gx.ravel(), gy.ravel()
        h = rng.choice([0.5, 6.0, 12.0], x.size)
        params = PitfreeParams(resolution=0.5,
                               subcircle_radius=rng.uniform(0.2, 0.4))
    else:  # sparse: most tiles hold fewer than 3 points
        x = rng.uniform(0, 40, rng.integers(10, 80))
        y = rng.uniform(0, 40, x.size)
        h = rng.uniform(0, 20, x.size)
        params = PitfreeParams(resolution=0.5,
                               max_edge=rng.uniform(1.5, 6.0))
    x, y = x + offset, y + 10 * offset
    if kind == "on_cuts":
        # interior points moved onto the threshold-0 tile cuts
        xs, ys = tile_cuts(x, y, tile_points, monkeypatch)
        inner = np.flatnonzero((x > x.min()) & (x < x.max())
                               & (y > y.min()) & (y < y.max()))
        pick = rng.choice(inner, min(len(inner), 40), replace=False)
        if xs:
            x[pick[::2]] = rng.choice(xs, len(pick[::2]))
        if ys:
            y[pick[1::2]] = rng.choice(ys, len(pick[1::2]))
    cloud = PointCloud.from_xyz(x, y, np.zeros_like(x), height=h)
    return cloud, params


KINDS = ("clusters", "jittered", "grid", "on_cuts", "subcircle", "sparse")


def test_tiled_chm_equals_one_tile(monkeypatch):
    branches = set()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from(KINDS), st.integers(0, 2**32 - 1),
           st.integers(4, 40), st.sampled_from([0.0, 5e5]))
    def check(kind, seed, tile_points, offset):
        cloud, params = make_cloud(kind, seed, tile_points, monkeypatch,
                                   offset)
        try:
            whole = chm_with_tiles(monkeypatch, cloud, params, ONE_TILE)
        except DataError:
            with pytest.raises(DataError):
                chm_with_tiles(monkeypatch, cloud, params, tile_points)
            return
        tiled = chm_with_tiles(monkeypatch, cloud, params, tile_points)
        assert np.array_equal(tiled.values, whole.values)
        n_layers = len(params.height_thresholds)
        for i in range(n_layers):
            assert (tiled.counts[f"layer{i}.triangles"]
                    == whole.counts[f"layer{i}.triangles"])
            assert whole.counts[f"layer{i}.tiles"] <= 1
        tiles = [tiled.counts[f"layer{i}.tiles"] for i in range(n_layers)]
        if tiled.counts["fallback_layers"]:
            branches.add("fall back")
        if any(tiled.counts[f"layer{i}.dropped"] for i in range(n_layers)):
            branches.add("drop")
        if max(tiles) > 1:
            branches.add("certify")
            if offset:
                branches.add("certify far from the origin")

    check()
    assert branches >= {"certify", "drop", "fall back",
                        "certify far from the origin"}


@pytest.mark.parametrize("kind, seed, tile_points, late", [
    pytest.param("grid", 7, 10, False, id="early"),
    pytest.param("grid", 8, 5, True, id="late")])
def test_cocircular_clouds_fall_back(monkeypatch, kind, seed, tile_points,
                                     late):
    """A layer that falls back is rasterized whole into the maximum. A
    late fallback comes after some of the layer's tiles are already in
    it: those are triangles of the whole layer, so no cell changes."""
    cloud, params = make_cloud(kind, seed, tile_points, monkeypatch)
    whole = chm_with_tiles(monkeypatch, cloud, params, ONE_TILE)
    events = []   # ("taken", layer, is None) and ("rasterized",), in order
    workers, rasterize = chm_mod._workers, chm_mod._rasterize_tin

    class Taken:
        def __init__(self, i, future):
            self.i, self.future = i, future

        def result(self):
            result = self.future.result()
            events.append(("taken", self.i, result is None))
            return result

        def cancel(self):
            return self.future.cancel()

    @contextlib.contextmanager
    def recording(n, shared):
        with workers(n, shared) as submit:
            yield lambda i, core: Taken(i, submit(i, core))

    def rasterizing(*args):
        events.append(("rasterized",))
        return rasterize(*args)

    monkeypatch.setattr(chm_mod, "_workers", recording)
    monkeypatch.setattr(chm_mod, "_rasterize_tin", rasterizing)
    tiled = chm_with_tiles(monkeypatch, cloud, params, tile_points)
    fell_back = {e[1]: k for k, e in enumerate(events) if e[0] == "taken"
                 and e[2]}
    # the fallen-back layers with a tile rasterized before their None
    fell_late = {events[k - 1][1] for k, e in enumerate(events)
                 if e[0] == "rasterized" and events[k - 1][1] in fell_back
                 and k < fell_back[events[k - 1][1]]}
    assert len(fell_back) == tiled.counts["fallback_layers"] >= 1
    assert bool(fell_late) == late
    assert whole.counts["fallback_layers"] == 0
    assert np.array_equal(tiled.values, whole.values)


def test_subcircle_layers_run_whole(monkeypatch):
    cloud, params = make_cloud("subcircle", 7, 10, monkeypatch)
    grid = chm_with_tiles(monkeypatch, cloud, params, 10)
    assert grid.counts["fallback_layers"] == 0
    tiles = [grid.counts[f"layer{i}.tiles"]
             for i in range(len(params.height_thresholds))]
    assert max(tiles) == 1   # 0 for a layer of fewer than 3 points


@pytest.mark.parametrize("kind, seed, tile_points", [
    ("jittered", 4, 3), ("jittered", 18, 8), ("clusters", 37, 3)])
def test_far_from_origin_is_certified(monkeypatch, kind, seed, tile_points):
    # at UTM-like coordinates Qhull's rounding of a power is ~0.5 m^2,
    # which would tie every tile; recentred, the tiles are certified
    cloud, params = make_cloud(kind, seed, tile_points, monkeypatch, 5e5)
    whole = chm_with_tiles(monkeypatch, cloud, params, ONE_TILE)
    tiled = chm_with_tiles(monkeypatch, cloud, params, tile_points)
    assert tiled.counts["fallback_layers"] == 0
    assert tiled.counts["layer0.tiles"] > 1
    assert np.array_equal(tiled.values, whole.values)


def test_far_from_origin_equals_the_chm_at_the_origin():
    # given UTM-like map coordinates, Qhull drops most points of a layer
    # as coplanar, and the CHM was off by up to 11.6 m here
    rng = np.random.default_rng(5)
    gx, gy = np.meshgrid(np.arange(40) * 0.5, np.arange(40) * 0.5)
    x = gx.ravel() + rng.uniform(-0.2, 0.2, gx.size)
    y = gy.ravel() + rng.uniform(-0.2, 0.2, gx.size)
    h = rng.uniform(0, 20, x.size)
    near, far = (pitfree_chm(PointCloud.from_xyz(x + dx, y + dy,
                                                 np.zeros_like(x), height=h),
                             PitfreeParams())
                 for dx, dy in ((0.0, 0.0), (5e5, 5e6)))
    assert far.values.shape == near.values.shape
    # the moved coordinates round by up to ~5e-10 m
    np.testing.assert_allclose(far.values, near.values, rtol=0, atol=1e-6)


def test_exact_shift():
    rng = np.random.default_rng(1)
    for lo in (5e5, 5e6, -3e5, 1234.5):
        v = lo + rng.uniform(0, 300, 500)
        shift = chm_mod._exact_shift(v)
        assert shift != 0.0
        # the subtraction is exact: no rounding between the two
        assert all(Fraction(a) - Fraction(shift) == Fraction(a - shift)
                   for a in v)
    for v in ([0.0, 300.0], [-1.0, 5.0], [10.0, 40.0], [0.0, 0.0]):
        assert chm_mod._exact_shift(np.array(v)) == 0.0


@pytest.mark.parametrize("kind, seed, tile_points",
                         [("jittered", 3, 25), ("grid", 7, 10)])
def test_threads_do_not_change_the_chm(monkeypatch, kind, seed, tile_points):
    # the grid falls back while workers still triangulate its tiles
    cloud, params = make_cloud(kind, seed, tile_points, monkeypatch)
    grids = [chm_with_tiles(monkeypatch, cloud, params, tile_points,
                            threads=t) for t in (1, 2, 3, 5)]
    if kind == "grid":
        assert grids[0].counts["fallback_layers"] >= 1
    else:
        assert max(grids[0].counts[k] for k in grids[0].counts
                   if k.endswith(".tiles")) > 1
    for g in grids[1:]:
        assert np.array_equal(g.values, grids[0].values)
        assert g.counts == grids[0].counts
    assert multiprocessing.active_children() == []


def test_workers_are_capped_at_the_cpus_available(monkeypatch, tmp_path):
    cloud, params = make_cloud("jittered", 3, 25, monkeypatch)
    two = chm_with_tiles(monkeypatch, cloud, params, 25, threads=2)
    # the pid of the worker that certified each tile
    pids = tmp_path / "pids"
    certify = chm_mod._certify

    def recording(*args):
        append_line(pids, os.getpid())
        return certify(*args)

    monkeypatch.setattr(chm_mod, "_certify", recording)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    one = chm_with_tiles(monkeypatch, cloud, params, 25, threads=2)
    workers = {pid for pid, in read_lines(pids)}
    assert len(read_lines(pids)) >= one.counts["layer0.tiles"] > 1
    assert len(workers) == 1 and workers != {str(os.getpid())}
    assert np.array_equal(one.values, two.values)
    assert one.counts == two.counts


def test_a_fallen_back_layer_triangulates_no_more_tiles(monkeypatch):
    """Once the calling process takes a tile's None, it queues no other
    tile of that layer, only the layer's whole triangulation, and it
    cancels the layer's tiles already queued."""
    cloud, params = make_cloud("grid", 7, 10, monkeypatch)
    events = []   # ("queued", layer, is whole) and ("fell back", layer)
    tiles = []    # the number of tiles of each layer
    seen = []     # every job queued
    workers = chm_mod._workers

    class Seen:
        def __init__(self, i, whole, future):
            self.i, self.whole, self.future = i, whole, future
            self.taken = self.cancelled = False

        def result(self):
            self.taken = True
            result = self.future.result()
            if result is None:
                events.append(("fell back", self.i))
            return result

        def cancel(self):
            self.cancelled = True
            return self.future.cancel()

    @contextlib.contextmanager
    def recording(n, shared):
        x, y, h, qx, qy, layers, *_ = shared
        tiles.extend(len(chm_mod._tile_cores(*layer.points(h, qx, qy)))
                     if layer.n >= 3 else 0 for layer in layers)
        with workers(n, shared) as submit:
            def queue(i, core):
                whole = core == chm_mod._WHOLE
                if i is not None:
                    events.append(("queued", i, whole))
                seen.append(Seen(i, whole, submit(i, core)))
                return seen[-1]
            yield queue

    monkeypatch.setattr(chm_mod, "_workers", recording)
    grid = chm_with_tiles(monkeypatch, cloud, params, 10)
    fell_back = {e[1]: k for k, e in enumerate(events) if e[0] == "fell back"}
    assert len(fell_back) == grid.counts["fallback_layers"] >= 1
    for layer, k in fell_back.items():
        queued = [e[2] for e in events if e[:2] == ("queued", layer)]
        after = [e[2] for e in events[k:] if e[:2] == ("queued", layer)]
        # the tiles queued before the fallback, then the whole layer
        assert after == [True]
        assert not any(queued[:-1]) and len(queued) - 1 < tiles[layer]
        assert grid.counts[f"layer{layer}.tiles"] == 1
    # a tile is cancelled when, and only when, its layer fell back
    # before its result was taken
    assert any(job.cancelled for job in seen)
    for job in seen:
        if job.i is not None and not job.whole:
            assert job.cancelled == (job.i in fell_back and not job.taken)


def reference_certify(px, py, h, layer, idx, tin, core, halo, max_edge,
                      escaping):
    """_certify as it was with a k-d tree per layer: a circle that
    leaves the tile's box is tested against its four nearest layer
    points. Appends the number of such circles to `escaping`."""
    from scipy.spatial import cKDTree

    if tin is None:
        return np.empty((0, 3), dtype=np.intp), 0
    if tin is chm_mod._FAILED:
        return None
    simplices, neighbors, n_coplanar = tin
    if n_coplanar:
        return None
    x0, x1, y0, y1 = core
    s = idx[simplices]
    corners = s.T.copy()
    tx, ty = px[corners], py[corners]
    near = ((tx.max(axis=0) >= x0) & (tx.min(axis=0) <= x1)
            & (ty.max(axis=0) >= y0) & (ty.min(axis=0) <= y1))
    lower = neighbors > np.arange(len(s))[:, None]
    t, k = np.nonzero(near[:, None] & (neighbors >= 0)
                      & (lower | ~near[neighbors]))
    nb = neighbors[t, k]
    across = s[nb, np.argmax(neighbors[nb] == t[:, None], axis=1)]
    det, perm, area2 = chm_mod._incircle(px, py, s[t], across)
    roundoff = layer.roundoff
    circle_tol = chm_mod._CIRCLE_TOL
    if np.any(det >= -np.maximum(circle_tol * perm, roundoff * area2)):
        return None

    kept = chm_mod._canonical(chm_mod._prune_long_edges(s, px, py, max_edge))
    a, b, c = kept.T
    gx = (px[a] + px[b] + px[c]) / 3
    gy = (py[a] + py[b] + py[c]) / 3
    kept = kept[(gx >= x0) & (gx < x1) & (gy >= y0) & (gy < y1)]
    if not len(kept):
        return kept, 0
    a, b, c = kept.T
    bx, by = px[b] - px[a], py[b] - py[a]
    qx, qy = px[c] - px[a], py[c] - py[a]
    with np.errstate(divide="ignore", invalid="ignore"):
        den = 2.0 * (bx * qy - by * qx)
        b2, q2 = bx * bx + by * by, qx * qx + qy * qy
        ux = (qy * b2 - by * q2) / den
        uy = (bx * q2 - qx * b2) / den
    r2 = ux * ux + uy * uy
    if not np.all(np.isfinite(r2)):
        return None
    ox, oy, r = px[a] + ux, py[a] + uy, np.sqrt(r2)
    reach = r + circle_tol * (r + np.abs(ox) + np.abs(oy))
    inside = ((ox - reach > x0 - halo) & (ox + reach < x1 + halo)
              & (oy - reach > y0 - halo) & (oy + reach < y1 + halo))
    check = np.flatnonzero(~inside)
    escaping.append(len(check))
    if not len(check):
        return kept, 0
    tri = kept[check]
    index = np.flatnonzero(h >= layer.threshold)
    tree = cKDTree(np.column_stack([px[index], py[index]]))
    _, near4 = tree.query(np.column_stack([ox[check], oy[check]]), k=4)
    found = near4 < len(index)
    near4 = index[np.where(found, near4, 0)]
    other = (found & (near4 != tri[:, :1]) & (near4 != tri[:, 1:2])
             & (near4 != tri[:, 2:]))
    rows, cols = np.nonzero(other)
    d, va, j = near4[rows, cols], tri[rows, 0], check[rows]
    d2 = (px[d] - px[va] - ux[j]) ** 2 + (py[d] - py[va] - uy[j]) ** 2
    tol = np.maximum(circle_tol * r2[j], roundoff)
    inner = np.zeros(len(check), dtype=bool)
    inner[rows[d2 < r2[j] - tol]] = True
    tied = np.zeros(len(check), dtype=bool)
    tied[rows[np.abs(d2 - r2[j]) <= tol]] = True
    if np.any(tied & ~inner):
        return None
    keep = np.ones(len(kept), dtype=bool)
    keep[check[inner]] = False
    return kept[keep], int(inner.sum())


def test_certify_equals_the_nearest_four_reference(monkeypatch, tmp_path):
    certify = chm_mod._certify
    # one line per certificate, written by the workers: its outcome and
    # the number of its circles that leave the tile's box
    seen = tmp_path / "seen"

    def both(*args):
        got = certify(*args)
        escaping = []
        want = reference_certify(*args, escaping)
        assert (got is None) == (want is None)
        if got is not None:
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]
        append_line(seen, "tie" if got is None else "drop" if got[1]
                    else "keep", sum(escaping))
        return got

    monkeypatch.setattr(chm_mod, "_certify", both)
    rng = np.random.default_rng(29)
    for kind in KINDS:
        for offset in (0.0, 5e5):
            for seed in rng.integers(0, 2**32, 6):
                tile_points = int(rng.integers(4, 41))
                cloud, params = make_cloud(kind, seed, tile_points,
                                           monkeypatch, offset)
                try:
                    chm_with_tiles(monkeypatch, cloud, params, tile_points)
                except DataError:
                    pass
    lines = read_lines(seen)
    assert {outcome for outcome, _ in lines} == {"tie", "drop", "keep"}
    assert sum(int(n) for _, n in lines) > 100


@pytest.mark.parametrize("others, expect", [
    ([(-5.0, 0.0, 5.0)], None),                    # on the circle: a tie
    ([(-5.0, 0.0, 5.0), (0.0, 0.0, 5.0)], 1),      # and one inside: dropped
    ([(-5.5, 0.0, 5.0)], 0),                       # outside it: kept
    ([(-5.0, 0.0, 0.5), (0.0, 0.0, 0.5)], 0)])     # below the layer: kept
def test_an_escaping_circle_is_tested_against_the_points_off_the_tile(
        others, expect):
    # the tile holds the triangle (3, 4), (4, 3), (5, 0) alone; its
    # circle, of radius 5 about the origin, leaves the tile's box
    pts = sorted([(3.0, 4.0, 5.0), (4.0, 3.0, 5.0), (5.0, 0.0, 5.0)]
                 + others)
    px, py, h = (np.array(v) for v in zip(*pts))
    layer = chm_mod._Layer.over(2.0, h, px, py)
    core, halo = (2.0, np.inf, -np.inf, np.inf), 0.5
    idx, tin = chm_mod._triangulate(px, py, h, layer, core, halo)
    assert len(idx) == 3
    got = chm_mod._certify(px, py, h, layer, idx, tin, core, halo, 5.0)
    escaping = []
    want = reference_certify(px, py, h, layer, idx, tin, core, halo, 5.0,
                             escaping)
    assert escaping == [1]
    if expect is None:
        assert got is None and want is None
    else:
        assert got[1] == want[1] == expect
        assert len(got[0]) == 1 - expect
        assert np.array_equal(got[0], want[0])


class JobFailed(Exception):
    pass


@pytest.mark.parametrize("fail_on", [None, "worker", "no fork"])
def test_tiles_run_in_worker_processes(monkeypatch, tmp_path, fail_on):
    """The jobs run in worker processes, never in this one; a job's
    exception reaches the caller with its type; a system that cannot
    fork gets WorkerError before any job runs; and no worker outlives
    the CHM."""
    cloud, params = make_cloud("jittered", 3, 25, monkeypatch)
    pids = tmp_path / "pids"
    triangulate = chm_mod._triangulate

    def record(*args):
        append_line(pids, os.getpid())
        if fail_on:
            raise JobFailed(fail_on)
        return triangulate(*args)

    monkeypatch.setattr(chm_mod, "_triangulate", record)
    if fail_on == "no fork":
        monkeypatch.setattr(chm_mod.multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        with pytest.raises(WorkerError, match="fork"):
            chm_with_tiles(monkeypatch, cloud, params, 25, threads=2)
        assert read_lines(pids) == []
    elif fail_on:
        with pytest.raises(JobFailed, match=fail_on):
            chm_with_tiles(monkeypatch, cloud, params, 25, threads=2)
        ran = {int(pid) for pid, in read_lines(pids)}
        assert ran and os.getpid() not in ran
    else:
        grid = chm_with_tiles(monkeypatch, cloud, params, 25, threads=2)
        assert grid.counts["layer0.tiles"] > 1
        ran = {int(pid) for pid, in read_lines(pids)}
        assert os.getpid() not in ran and len(ran) == 2
    assert multiprocessing.active_children() == []


def reference_rasterize_tin(px, py, ph, simplices, xll, yll, res, nrows,
                            acc):
    """The rasterizer as it was before its boxes were tightened: every
    triangle tests its bounding box widened by one cell on each side."""
    ncols = acc.shape[1]
    xs, ys = px[simplices.T], py[simplices.T]
    c_lo = np.floor((xs.min(axis=0) - xll) / res - 0.5).astype(np.int64)
    c_hi = np.floor((xs.max(axis=0) - xll) / res - 0.5).astype(np.int64) + 1
    s_lo = np.floor((ys.min(axis=0) - yll) / res - 0.5).astype(np.int64)
    s_hi = np.floor((ys.max(axis=0) - yll) / res - 0.5).astype(np.int64) + 1
    for k, t in enumerate(simplices):
        (x0, x1, x2), (y0, y1, y2), (z0, z1, z2) = px[t], py[t], ph[t]
        cc = np.arange(c_lo[k], c_hi[k] + 1)[None, :]
        ss = np.arange(s_lo[k], s_hi[k] + 1)[:, None]
        qx = xll + (cc + 0.5) * res
        qy = yll + (ss + 0.5) * res
        det = ((y1 - y2) * (x0 - x2) + (x2 - x1) * (y0 - y2))
        if not abs(det) > 1e-300:
            continue
        w0 = ((y1 - y2) * (qx - x2) + (x2 - x1) * (qy - y2)) / det
        w1 = ((y2 - y0) * (qx - x2) + (x0 - x2) * (qy - y2)) / det
        w2 = 1.0 - w0 - w1
        inside = ((w0 >= -1e-12) & (w1 >= -1e-12) & (w2 >= -1e-12)
                  & (cc >= 0) & (cc < ncols) & (ss >= 0) & (ss < nrows))
        vals = w0 * z0 + w1 * z1 + w2 * z2
        flat = ((nrows - 1 - ss) * ncols + cc)[inside]
        np.maximum.at(acc.reshape(-1), flat, vals[inside])


@pytest.mark.parametrize("offset", [(0.0, 0.0), (5e5, 5e6)])
@pytest.mark.parametrize("seed", range(4))
def test_tight_rasterizer_boxes_equal_the_widened_ones(seed, offset):
    rng = np.random.default_rng(seed)
    res, ncols, nrows = 0.5, 40, 30
    xll, yll = offset[0] + 3.5, offset[1] - 1.0
    n = 3000
    # anchors reach two cells past every side of the grid
    ax = xll + rng.uniform(-1.0, ncols * res + 1.0, n)
    ay = yll + rng.uniform(-1.0, nrows * res + 1.0, n)
    tx = ax[:, None] + rng.uniform(-1.0, 1.0, (n, 3))
    ty = ay[:, None] + rng.uniform(-1.0, 1.0, (n, 3))
    kind = np.arange(n) % 5
    # 1: every vertex on a cell center
    on = kind == 1
    tx[on] = xll + (np.floor((tx[on] - xll) / res) + 0.5) * res
    ty[on] = yll + (np.floor((ty[on] - yll) / res) + 0.5) * res
    # 2: a vertical and a horizontal edge through cell centers
    on = kind == 2
    tx[on, 1] = tx[on, 0] = xll + (np.floor((tx[on, 0] - xll) / res)
                                   + 0.5) * res
    ty[on, 2] = ty[on, 1] = yll + (np.floor((ty[on, 1] - yll) / res)
                                   + 0.5) * res
    # 3: slivers, the third vertex off the middle of the first edge by
    # 1e-12 to 1e-3 of that edge
    on = kind == 3
    mx, my = (tx[on, 0] + tx[on, 1]) / 2, (ty[on, 0] + ty[on, 1]) / 2
    lift = 10.0 ** rng.uniform(-12, -3, on.sum())
    tx[on, 2] = mx - (ty[on, 1] - ty[on, 0]) * lift
    ty[on, 2] = my + (tx[on, 1] - tx[on, 0]) * lift
    # 4: exactly collinear, on a cell-center row
    on = kind == 4
    ty[on] = yll + (np.floor((ty[on, :1] - yll) / res) + 0.5) * res
    px, py = tx.ravel(), ty.ravel()
    ph = rng.uniform(0.0, 30.0, px.size)
    simplices = np.arange(px.size).reshape(n, 3)
    tight = np.full((nrows, ncols), -np.inf)
    widened = np.full((nrows, ncols), -np.inf)
    chm_mod._rasterize_tin(px, py, ph, simplices, xll, yll, res, nrows, tight)
    reference_rasterize_tin(px, py, ph, simplices, xll, yll, res, nrows,
                            widened)
    assert np.isfinite(tight).mean() > 0.9
    assert tight.tobytes() == widened.tobytes()


def test_canonical_rotation_keeps_orientation():
    s = np.array([[5, 2, 9], [1, 7, 3], [8, 6, 4]])
    out = chm_mod._canonical(s)
    assert out.tolist() == [[2, 9, 5], [1, 7, 3], [4, 8, 6]]


@pytest.mark.parametrize("seed", range(12))
def test_blocked_hull_mask_equals_one_product(seed):
    """_inside_hull tests the cells block by block; the mask equals the
    one-shot product over all cells bit for bit."""
    rng = np.random.default_rng(seed)
    ncols, nrows = (int(n) for n in rng.integers(60, 150, 2))
    if seed < 2:
        # one cell more than a block, and more than two blocks
        ncols, nrows = (241, 17) if seed == 0 else (241, 35)
    assert ncols * nrows > chm_mod._HULL_BLOCK
    res = 0.5
    cx = 100.0 + (np.arange(ncols) + 0.5) * res
    cy = 200.0 + (nrows - np.arange(nrows) - 0.5) * res
    px = rng.uniform(cx[0], cx[-1], 300)
    py = rng.uniform(cy[-1], cy[0], 300)
    if seed % 2:
        # hull vertices on cell centers put cells on the hull's edges
        px = 100.0 + (np.floor((px - 100.0) / res) + 0.5) * res
        py = 200.0 + (np.floor((py - 200.0) / res) + 0.5) * res
    hull = ConvexHull(np.column_stack([px, py]))
    gx, gy = np.meshgrid(cx, cy)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    one_shot = np.all(pts @ hull.equations[:, :2].T + hull.equations[:, 2]
                      <= 1e-9, axis=1).reshape(nrows, ncols)
    mask = chm_mod._inside_hull(px, py, cx, cy)
    assert 0 < one_shot.sum() < one_shot.size
    assert np.array_equal(mask, one_shot)


def meshgrid_inside_hull(px, py, cx, cy):
    """_inside_hull as it was, with the centers of every cell built at
    once by meshgrid and tested in np.array_split's blocks."""
    hull = ConvexHull(np.column_stack([px, py]))
    gx, gy = np.meshgrid(cx, cy)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    a = hull.equations[:, :2]
    b = hull.equations[:, 2]
    blocks = np.array_split(pts, -(-len(pts) // chm_mod._HULL_BLOCK))
    inside = np.concatenate([np.all(block @ a.T + b <= 1e-9, axis=1)
                             for block in blocks])
    return inside.reshape(len(cy), len(cx))


@pytest.mark.parametrize("ncols, nrows, block", [
    (241, 60, None),    # 3 blocks of _HULL_BLOCK and a remainder
    (97, 53, 500),      # 10 blocks and a remainder
    (13, 11, 7),        # blocks of 7 and 8 cells
    (1, 1, None)])      # a single cell
def test_hull_centers_built_per_block_equal_the_meshgrid_ones(
        monkeypatch, ncols, nrows, block):
    if block:
        monkeypatch.setattr(chm_mod, "_HULL_BLOCK", block)
    assert ncols * nrows == 1 or ncols * nrows % chm_mod._HULL_BLOCK
    rng = np.random.default_rng(ncols)
    res = 0.5
    cx = 3.0e5 + (np.arange(ncols) + 0.5) * res
    cy = 5.1e6 + (nrows - np.arange(nrows) - 0.5) * res
    px = rng.uniform(cx[0] - res, cx[-1] + res, 20)
    py = rng.uniform(cy[-1] - res, cy[0] + res, 20)
    # hull vertices on cell centers put cells on the hull's edges
    px[::2] = 3.0e5 + (np.floor((px[::2] - 3.0e5) / res) + 0.5) * res
    py[::2] = 5.1e6 + (np.floor((py[::2] - 5.1e6) / res) + 0.5) * res
    want = meshgrid_inside_hull(px, py, cx, cy)
    got = chm_mod._inside_hull(px, py, cx, cy)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    if ncols * nrows > 1:
        assert 0 < want.sum() < want.size


# ---------------------------------------------------------------------------
# Layer edge cases: the raster bytes and every count, against a scene
# that reaches the same layers another way
# ---------------------------------------------------------------------------

def jittered_cloud(seed, n=24, offset=(0.0, 0.0), heights=(0.5, 3.0, 7.0,
                                                               12.0, 18.0)):
    rng = np.random.default_rng(seed)
    gx, gy = np.meshgrid(np.arange(n) * 0.5, np.arange(n) * 0.5)
    x = gx.ravel() + rng.uniform(-0.2, 0.2, gx.size) + offset[0]
    y = gy.ravel() + rng.uniform(-0.2, 0.2, gx.size) + offset[1]
    return x, y, rng.choice(heights, x.size)


def layer_counts(i, points, triangles=0, tiles=0, dropped=0):
    return {f"layer{i}.points": points, f"layer{i}.triangles": triangles,
            f"layer{i}.tiles": tiles, f"layer{i}.dropped": dropped}


def assert_same_chm(a, b):
    assert a.values.tobytes() == b.values.tobytes()
    assert (a.xll, a.yll, a.values.shape) == (b.xll, b.yll, b.values.shape)


@pytest.mark.parametrize("tile_points", [ONE_TILE, 60])
def test_a_threshold_above_every_point_is_an_empty_layer(monkeypatch,
                                                         tile_points):
    x, y, h = jittered_cloud(1)
    cloud = PointCloud.from_xyz(x, y, np.zeros_like(x), height=h)
    base = chm_with_tiles(monkeypatch, cloud, PitfreeParams(), tile_points)
    empty = chm_with_tiles(monkeypatch, cloud, PitfreeParams(
        height_thresholds=(0.0, 2.0, 5.0, 10.0, 15.0, 100.0)), tile_points)
    assert_same_chm(empty, base)
    assert empty.counts == {**base.counts, **layer_counts(5, 0)}
    assert (base.counts["layer0.tiles"] > 1) == (tile_points != ONE_TILE)


@pytest.mark.parametrize("tile_points", [ONE_TILE, 60])
def test_an_upper_layer_of_three_collinear_points_adds_nothing(
        monkeypatch, tile_points):
    x, y, h = jittered_cloud(2, heights=(0.5, 3.0))
    # Qhull fails on the three points at or above 5 m, and on the two
    # at or above 10 m the layer has no tile at all
    tall = np.array([1.5, 3.0, 4.5])
    x, y = np.append(x, tall), np.append(y, tall + 1.0)
    h = np.append(h, [6.0, 12.0, 16.0])
    cloud = PointCloud.from_xyz(x, y, np.zeros_like(x), height=h)
    params = PitfreeParams(height_thresholds=(0.0, 2.0, 5.0, 10.0))
    grid = chm_with_tiles(monkeypatch, cloud, params, tile_points)
    lower = chm_with_tiles(monkeypatch, cloud, PitfreeParams(
        height_thresholds=(0.0, 2.0)), tile_points)
    assert_same_chm(grid, lower)
    assert grid.counts == {**lower.counts, **layer_counts(2, 3, tiles=1),
                           **layer_counts(3, 2)}
    assert grid.counts["fallback_layers"] == 0


@pytest.mark.parametrize("tile_points", [ONE_TILE, 60])
def test_heights_below_zero_stay_out_of_layer_0_and_the_hull(monkeypatch,
                                                             tile_points):
    x, y, h = jittered_cloud(3)
    # below-ground points inside the cloud and a ring of them around it,
    # which would widen the hull mask if layer 0 took them
    rng = np.random.default_rng(3)
    ring = np.linspace(0, 2 * np.pi, 16, endpoint=False)
    bx = np.concatenate([rng.uniform(1, 10, 30), 5.75 + 9 * np.cos(ring)])
    by = np.concatenate([rng.uniform(1, 10, 30), 5.75 + 9 * np.sin(ring)])
    bh = -rng.uniform(0.1, 1.0, bx.size)
    monkeypatch.setattr(chm_mod, "_TILE_POINTS", tile_points)
    with_below, without = (
        pitfree_chm(PointCloud.from_xyz(px, py, np.zeros_like(px),
                                        height=ph), PitfreeParams(),
                    xll=-4.0, yll=-4.0, ncols=40, nrows=40)
        for px, py, ph in ((np.append(x, bx), np.append(y, by),
                            np.append(h, bh)), (x, y, h)))
    assert_same_chm(with_below, without)
    assert with_below.counts == without.counts
    assert with_below.counts["layer0.points"] == x.size
    assert np.any(with_below.values == DEFAULT_NODATA)


def test_a_tiled_scene_far_from_the_origin_with_every_return(monkeypatch):
    x, y, h = jittered_cloud(4, n=40, offset=(5e5, 5e6))
    returns = np.random.default_rng(4).integers(1, 3, x.size)
    params = PitfreeParams(first_returns_only=False)
    every = PointCloud.from_xyz(x, y, np.zeros_like(x),
                                return_number=returns, height=h)
    firsts = PointCloud.from_xyz(x, y, np.zeros_like(x), height=h)
    tiled = chm_with_tiles(monkeypatch, every, params, 150)
    first = chm_with_tiles(monkeypatch, firsts, PitfreeParams(), 150)
    assert_same_chm(tiled, first)
    assert tiled.counts == first.counts
    # certified tiles, one of them with a dropped triangle, and no
    # fallback: the same raster and triangles as one tile per layer
    whole = chm_with_tiles(monkeypatch, every, params, ONE_TILE)
    assert_same_chm(tiled, whole)
    expected = {**whole.counts, "layer3.dropped": 1}
    for i, tiles in enumerate((12, 9, 9, 6, 3)):
        expected[f"layer{i}.tiles"] = tiles
    assert tiled.counts == expected
    assert whole.counts["fallback_layers"] == 0
