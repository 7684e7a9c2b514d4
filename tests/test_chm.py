import sys
import threading
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forestinv import chm as chm_mod
from forestinv.chm import PitfreeParams, normalize_heights, pitfree_chm
from forestinv.errors import DataError
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


def test_cocircular_clouds_fall_back(monkeypatch):
    cloud, params = make_cloud("grid", 7, 10, monkeypatch)
    whole = chm_with_tiles(monkeypatch, cloud, params, ONE_TILE)
    tiled = chm_with_tiles(monkeypatch, cloud, params, 10)
    assert tiled.counts["fallback_layers"] >= 1
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
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)   # interleave the threads finely
    try:
        grids = [chm_with_tiles(monkeypatch, cloud, params, tile_points,
                                threads=t) for t in (1, 2, 3, 5)]
    finally:
        sys.setswitchinterval(interval)
    if kind == "grid":
        assert grids[0].counts["fallback_layers"] >= 1
    else:
        assert max(grids[0].counts[k] for k in grids[0].counts
                   if k.endswith(".tiles")) > 1
    for g in grids[1:]:
        assert np.array_equal(g.values, grids[0].values)
        assert g.counts == grids[0].counts


def test_a_fallen_back_layer_triangulates_no_more_tiles(monkeypatch):
    cloud, params = make_cloud("grid", 7, 10, monkeypatch)
    calls = []   # (layer, is the fallback's whole triangulation)
    triangulate = chm_mod._triangulate

    def record(px, py, h, layer, core, halo):
        calls.append((layer, core == chm_mod._WHOLE and halo == 0))
        return triangulate(px, py, h, layer, core, halo)

    monkeypatch.setattr(chm_mod, "_triangulate", record)
    grid = chm_with_tiles(monkeypatch, cloud, params, 10)
    assert grid.counts["fallback_layers"] >= 1
    fell_back = {layer: i for i, (layer, whole) in enumerate(calls) if whole}
    assert len(fell_back) == grid.counts["fallback_layers"]
    assert all(i <= fell_back.get(layer, i)
               for i, (layer, _) in enumerate(calls))


@pytest.mark.parametrize("threads", [1, 2])
def test_a_finished_layer_is_freed_before_the_next_is_rasterized(
        monkeypatch, threads):
    cloud, params = make_cloud("jittered", 3, 25, monkeypatch)
    # the points are shared by every layer; per layer: weak references
    # to the layer and its index array, then to its k-d tree's data
    refs = []

    class Layer(chm_mod._Layer):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append([weakref.ref(self), weakref.ref(self.index)])

        def tree(self, *args):
            tree = super().tree(*args)
            mine = next(r for r in refs if r[0]() is self)
            mine.append(weakref.ref(tree.data))
            return tree

    # the kept triangles of each tile, and the number of their layer
    owners = []

    def owned(fn):
        def run(*args):
            kept = fn(*args)
            if kept is not None:
                layer = args[2]
                owners.append((kept[0] if isinstance(kept, tuple) else kept,
                               next(i for i, r in enumerate(refs)
                                    if r[0]() is layer)))
            return kept
        return run

    rasterized = []
    rasterize = chm_mod._rasterize_tin

    def check(px, py, ph, simplices, *args):
        layer = next(i for kept, i in owners if kept is simplices)
        rasterized.append(layer)
        assert all(ref() is None for r in refs[:layer] for ref in r)
        return rasterize(px, py, ph, simplices, *args)

    monkeypatch.setattr(chm_mod, "_Layer", Layer)
    monkeypatch.setattr(chm_mod, "_whole", owned(chm_mod._whole))
    monkeypatch.setattr(chm_mod, "_certify", owned(chm_mod._certify))
    monkeypatch.setattr(chm_mod, "_rasterize_tin", check)
    grid = chm_with_tiles(monkeypatch, cloud, params, 25, threads=threads)
    assert grid.counts["layer0.tiles"] > 1
    assert len(set(rasterized)) == len(params.height_thresholds)
    assert any(len(r) > 2 for r in refs)   # some layer built its tree


class JobFailed(Exception):
    pass


@pytest.mark.parametrize("fail_on", [None, "calling thread", "worker"])
def test_tiles_run_on_the_calling_thread_and_a_worker(monkeypatch, fail_on):
    cloud, params = make_cloud("jittered", 3, 25, monkeypatch)
    main = threading.get_ident()
    idents = []
    triangulate = chm_mod._triangulate

    def record(*args):
        me = threading.get_ident()
        idents.append(me)
        if fail_on and (me == main) == (fail_on == "calling thread"):
            raise JobFailed(fail_on)
        return triangulate(*args)

    monkeypatch.setattr(chm_mod, "_triangulate", record)
    before = set(threading.enumerate())
    if fail_on:
        with pytest.raises(JobFailed, match=fail_on):
            chm_with_tiles(monkeypatch, cloud, params, 25, threads=2)
    else:
        grid = chm_with_tiles(monkeypatch, cloud, params, 25, threads=2)
        assert grid.counts["layer0.tiles"] > 1
        assert main in idents and len(set(idents)) == 2
    assert set(threading.enumerate()) == before


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
    from scipy.spatial import ConvexHull

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
