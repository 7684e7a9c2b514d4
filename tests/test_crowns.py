import dataclasses
import heapq
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forestinv.crowns import (
    Apex,
    CrownRecord,
    ItcParams,
    _prepared_heights,
    crown_label_grid,
    detect_treetops,
    grow_crowns,
    spatial_join,
    split_train_test,
    write_crown_table,
)
from forestinv.geodata import Grid, GroundTruthPoint

CS = 0.5


def grid_from(values):
    return Grid(np.asarray(values, dtype=float), 0.0, 0.0, CS)


def cone_chm(shape, apexes, cellsize=CS):
    """Analytic CHM: max over cones (apex_row, apex_col, height, radius_m)."""
    nrows, ncols = shape
    rr, cc = np.mgrid[0:nrows, 0:ncols]
    out = np.zeros(shape)
    for ar, ac, h, radius in apexes:
        d = np.hypot((rr - ar) * cellsize, (cc - ac) * cellsize)
        out = np.maximum(out, h * np.clip(1.0 - d / radius, 0.0, None))
    return Grid(out, 0.0, 0.0, cellsize)


def brute_force_candidates(v, params):
    """(height, row, col) of every strict variable-window maximum of the
    prepared heights `v`, by an exhaustive window scan."""
    nrows, ncols = v.shape
    cand = []
    for r in range(nrows):
        for c in range(ncols):
            h = v[r, c]
            if h < params.height_threshold:
                continue
            frac = (h - params.win_low_height) / (
                params.win_high_height - params.win_low_height)
            frac = min(1.0, max(0.0, frac))
            side = params.min_search_win + frac * (
                params.max_search_win - params.min_search_win)
            side = int(round(side))
            if side % 2 == 0:
                side += 1
            half = side // 2
            window = v[max(0, r - half):r + half + 1,
                       max(0, c - half):c + half + 1]
            if (window > h).any() or (window == h).sum() > 1:
                continue
            cand.append((h, r, c))
    return cand


def brute_force_treetops(chm, params):
    """Independent re-derivation: exhaustive window scan + greedy thinning."""
    v = np.where(chm.valid_mask(), chm.values, -np.inf)
    nrows = v.shape[0]
    cand = brute_force_candidates(v, params)
    cand.sort(key=lambda t: (-t[0], t[1], t[2]))
    kept = []
    for h, r, c in cand:
        x = (c + 0.5) * chm.cellsize
        y = (nrows - r - 0.5) * chm.cellsize
        if all((x - kx) ** 2 + (y - ky) ** 2 >= params.min_dist ** 2
               for kx, ky in kept):
            kept.append((x, y))
    return kept


def quadratic_treetops(chm, params):
    """Reference for detect_treetops: the brute-force candidates, tallest
    first and then by (row, col), each tested against every accepted
    apex."""
    cand = brute_force_candidates(_prepared_heights(chm, params), params)
    heights = np.array([h for h, _, _ in cand], dtype=float)
    rows = np.array([r for _, r, _ in cand], dtype=np.int64)
    cols = np.array([c for _, _, c in cand], dtype=np.int64)

    order = np.lexsort((cols, rows, -heights))
    accepted_x: list[float] = []
    accepted_y: list[float] = []
    apexes: list[Apex] = []
    min_d2 = params.min_dist ** 2
    for i in order:
        x, y = chm.cell_center(int(rows[i]), int(cols[i]))
        x, y = float(x), float(y)
        if accepted_x:
            ax = np.array(accepted_x)
            ay = np.array(accepted_y)
            if np.any((ax - x) ** 2 + (ay - y) ** 2 < min_d2):
                continue
        accepted_x.append(x)
        accepted_y.append(y)
        apexes.append(Apex(int(rows[i]), int(cols[i]), x, y, float(heights[i])))
    return apexes


def reference_grow_crowns(chm, apexes, params):
    """Reference for grow_crowns on (row, col) cells: bounds, finite and
    unclaimed tests at each push."""
    values = _prepared_heights(chm, params)
    nrows, ncols = values.shape
    owner = np.zeros((nrows, ncols), dtype=np.int32)  # 0 = unclaimed

    sum_h = [0.0]
    count = [0]
    apex_h = [0.0]
    for k, apex in enumerate(apexes, start=1):
        owner[apex.row, apex.col] = k
        sum_h.append(apex.height)
        count.append(1)
        apex_h.append(apex.height)

    max_r2 = (params.max_dist / 2.0) ** 2
    cs = chm.cellsize

    # heap entries: (-cell height, -apex height, crown id, row, col)
    heap: list[tuple] = []
    for k, apex in enumerate(apexes, start=1):
        _push_neighbors(heap, values, owner, apex.row, apex.col, k, apex_h[k])

    while heap:
        neg_h, neg_apex_h, k, r, c = heapq.heappop(heap)
        if owner[r, c] != 0:
            continue
        h = -neg_h
        if h < params.thresh_seed * apex_h[k]:
            continue
        if h < params.thresh_crown * (sum_h[k] / count[k]):
            continue
        apex = apexes[k - 1]
        dr = (r - apex.row) * cs
        dc = (c - apex.col) * cs
        if dr * dr + dc * dc > max_r2:
            continue
        owner[r, c] = k
        sum_h[k] += h
        count[k] += 1
        _push_neighbors(heap, values, owner, r, c, k, apex_h[k])

    crowns = []
    cell_area = cs * cs
    n_cells = np.bincount(owner.ravel(), minlength=len(apexes) + 1)
    for k, apex in enumerate(apexes, start=1):
        area = int(n_cells[k]) * cell_area
        crowns.append(CrownRecord(
            crown_id=k,
            apex_x=apex.x, apex_y=apex.y,
            tree_height=apex.height,
            crown_area=area,
            crown_diameter=2.0 * math.sqrt(area / math.pi),
        ))
    return crowns, owner


def _push_neighbors(heap, values, owner, r, c, k, apex_height):
    nrows, ncols = values.shape
    for rr, cc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
        if 0 <= rr < nrows and 0 <= cc < ncols and owner[rr, cc] == 0:
            h = values[rr, cc]
            if np.isfinite(h):
                heapq.heappush(heap, (-h, -apex_height, k, rr, cc))


def strict_maxima(v, side, threshold):
    """Cells at or above threshold taller than every other cell of their
    side x side window, by scipy's maximum filter."""
    from scipy import ndimage

    values = np.where(np.isnan(v), -np.inf, v)
    footprint = np.ones((side, side), dtype=bool)
    footprint[side // 2, side // 2] = False
    neighborhood_max = ndimage.maximum_filter(
        values, footprint=footprint, mode="constant", cval=-np.inf)
    return sorted(zip(*np.nonzero((values >= threshold)
                                  & (values > neighborhood_max))))


class TestStrictMaxima:
    @pytest.mark.parametrize("side", [3, 5, 7, 9])
    def test_equal_the_maximum_filter(self, side):
        rng = np.random.default_rng(side)
        # min_dist below the cell size: thinning keeps every maximum
        params = ItcParams(min_search_win=side, max_search_win=side,
                           min_dist=0.1, max_dist=40.0, height_threshold=1.0)
        for shape in ((1, 1), (2, 9), (23, 31), (40, 17)):
            v = rng.integers(0, 6, shape).astype(float)   # many ties
            v[rng.random(shape) < 0.15] = np.nan          # -inf cells
            got = sorted((a.row, a.col)
                         for a in detect_treetops(grid_from(v), params))
            assert got == strict_maxima(v, side, 1.0)

    @pytest.mark.parametrize("wins", [(3, 9), (5, 9), (3, 5), (7, 9)])
    def test_mixed_window_sides_vs_brute_force(self, wins):
        rng = np.random.default_rng(wins[0] * 10 + wins[1])
        params = ItcParams(min_search_win=wins[0], max_search_win=wins[1],
                           min_dist=0.1, max_dist=40.0, height_threshold=1.0,
                           win_low_height=1.0, win_high_height=20.0)
        v = rng.integers(0, 22, (90, 90)).astype(float)
        v[rng.random(v.shape) < 0.1] = np.nan
        chm = grid_from(v)
        got = [(a.x, a.y) for a in detect_treetops(chm, params)]
        assert sorted(got) == sorted(brute_force_treetops(chm, params))
        assert len(got) > 5

    def test_importing_the_cli_leaves_out_scipy_ndimage(self):
        root = Path(__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, forestinv.cli; "
             "print('scipy.ndimage' in sys.modules)"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestDetectTreetops:
    def test_all_zero_chm(self):
        chm = grid_from(np.zeros((20, 20)))
        assert detect_treetops(chm, ItcParams()) == []

    def test_single_spike(self):
        v = np.zeros((20, 20))
        v[10, 11] = 20.0
        apexes = detect_treetops(grid_from(v), ItcParams())
        assert len(apexes) == 1
        assert (apexes[0].row, apexes[0].col) == (10, 11)
        assert apexes[0].height == 20.0

    def test_two_gaussian_blobs_vs_brute_force(self):
        nrows = ncols = 120
        rr, cc = np.mgrid[0:nrows, 0:ncols]
        v = np.zeros((nrows, ncols))
        truth = [(40, 40), (40, 80)]  # 20 m apart at 0.5 m cells
        for ar, ac in truth:
            d2 = ((rr - ar) * CS) ** 2 + ((cc - ac) * CS) ** 2
            v = np.maximum(v, 15.0 * np.exp(-d2 / (2 * 2.5 ** 2)))
        chm = grid_from(v)
        params = ItcParams()
        apexes = detect_treetops(chm, params)
        assert len(apexes) == 2
        for apex, (ar, ac) in zip(sorted(apexes, key=lambda a: a.col), truth):
            assert abs(apex.row - ar) <= 1 and abs(apex.col - ac) <= 1
        oracle = brute_force_treetops(chm, params)
        assert len(oracle) == 2
        got = sorted((a.x, a.y) for a in apexes)
        assert got == sorted(oracle)

    def test_min_dist_thinning(self):
        v = np.zeros((40, 40))
        v[20, 20] = 20.0
        v[20, 24] = 18.0  # 2 m away: within min_dist 5, must be thinned
        apexes = detect_treetops(grid_from(v), ItcParams())
        assert len(apexes) == 1
        assert apexes[0].height == 20.0

    def test_apex_set_invariant_below_threshold(self):
        rng = np.random.default_rng(4)
        v = np.zeros((40, 40))
        v[15, 15] = 12.0
        base = detect_treetops(grid_from(v), ItcParams())
        noise = v + rng.uniform(0.0, 1.9, v.shape) * (v == 0)
        noisy = detect_treetops(grid_from(noise), ItcParams())
        assert [(a.row, a.col) for a in base] == [(a.row, a.col) for a in noisy]


class TestGrowCrowns:
    def test_single_cone_area_matches_analytic_contour(self):
        # apex 20 m, cone radius 8 m: the 0.55 contour disc has r = 3.6 m
        chm = cone_chm((60, 60), [(30, 30, 20.0, 8.0)])
        params = ItcParams()
        apexes = detect_treetops(chm, params)
        assert len(apexes) == 1
        crowns, _ = grow_crowns(chm, apexes, params)
        analytic = math.pi * (0.45 * 8.0) ** 2
        assert crowns[0].crown_area == pytest.approx(analytic, rel=0.10)
        assert crowns[0].tree_height == pytest.approx(20.0, abs=1e-12)

    def test_isolated_apex_keeps_only_its_cell(self):
        v = np.full((20, 20), 1.0)
        v[10, 10] = 20.0
        chm = grid_from(v)
        apexes = detect_treetops(chm, ItcParams())
        crowns, owner = grow_crowns(chm, apexes, ItcParams())
        assert len(crowns) == 1
        expected = np.zeros((20, 20), dtype=np.int32)
        expected[10, 10] = crowns[0].crown_id
        np.testing.assert_array_equal(owner, expected)
        assert crowns[0].crown_area == pytest.approx(CS * CS)

    def test_mirrored_scene_symmetric_union(self):
        nrows, ncols = 80, 120
        a = (40, 39, 20.0, 25.0)
        b = (40, 80, 20.0, 25.0)  # mirror col: 119 - 39 = 80
        chm = cone_chm((nrows, ncols), [a, b])
        params = ItcParams()
        apexes = detect_treetops(chm, params)
        assert len(apexes) == 2
        crowns, owner = grow_crowns(chm, apexes, params)
        assert owner.dtype == np.int32 and owner.shape == (nrows, ncols)
        assert set(np.unique(owner)) == {0, 1, 2}
        union = owner > 0
        np.testing.assert_array_equal(union, union[:, ::-1])

    def test_no_cell_below_seed_threshold(self):
        chm = cone_chm((60, 60), [(30, 30, 18.0, 9.0)])
        params = ItcParams()
        crowns, owner = grow_crowns(chm, detect_treetops(chm, params), params)
        for crown in crowns:
            inside = chm.values[owner == crown.crown_id]
            assert inside.size > 0
            assert (inside >= params.thresh_seed * crown.tree_height).all()

    def test_scale_invariance_of_memberships(self):
        # heights kept above win_high_height so the search window size is
        # constant; both growth thresholds are relative
        chm = cone_chm((60, 60), [(30, 30, 40.0, 9.0), (30, 52, 35.0, 6.0)])
        params = ItcParams()
        base, base_owner = grow_crowns(chm, detect_treetops(chm, params),
                                       params)
        for factor in (1.5, 3.0):
            scaled_grid = chm.with_values(chm.values * factor)
            scaled, scaled_owner = grow_crowns(
                scaled_grid, detect_treetops(scaled_grid, params), params)
            assert len(scaled) == len(base)
            np.testing.assert_array_equal(scaled_owner, base_owner)
            for s, b in zip(scaled, base):
                assert s.tree_height == pytest.approx(b.tree_height * factor,
                                                      rel=1e-12)

    def test_crown_record_invariants(self):
        chm = cone_chm((60, 60), [(30, 30, 20.0, 8.0)])
        params = ItcParams()
        crowns, owner = grow_crowns(chm, detect_treetops(chm, params), params)
        crown = crowns[0]
        n_cells = int((owner == crown.crown_id).sum())
        assert crown.crown_area == pytest.approx(n_cells * CS * CS)
        assert crown.crown_diameter == pytest.approx(
            2 * math.sqrt(crown.crown_area / math.pi))
        assert owner[chm.cell_of(crown.apex_x, crown.apex_y)] == crown.crown_id


@st.composite
def crown_scenes(draw):
    """A small CHM of cones rounded to a height quantum (tied heights),
    some centered on the raster edge, with nodata and NaN holes, at the
    origin or at projected offsets; and ITC parameters for it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    nrows, ncols = (int(n) for n in rng.integers(1, 41, 2))
    cellsize, min_dist = draw(st.sampled_from(
        [(0.5, 5.0), (0.5, 1.25), (0.5, 0.3), (1.0, 4.5), (0.3, 0.9),
         (2.0, 7.0)]))
    rr, cc = np.mgrid[0:nrows, 0:ncols]
    v = np.zeros((nrows, ncols))
    for _ in range(int(rng.integers(1, 16))):
        ar = int(rng.choice([0, nrows - 1, rng.integers(nrows)]))
        ac = int(rng.choice([0, ncols - 1, rng.integers(ncols)]))
        d = np.hypot((rr - ar) * cellsize, (cc - ac) * cellsize)
        v = np.maximum(v, rng.uniform(3.0, 35.0)
                       * np.clip(1.0 - d / rng.uniform(0.5, 8.0), 0.0, None))
    v += rng.uniform(0.0, draw(st.sampled_from([0.0, 1.0, 3.0])), v.shape)
    quantum = draw(st.sampled_from([0.25, 1.0, 4.0]))
    v = np.round(v / quantum) * quantum
    v[rng.random(v.shape) < draw(st.sampled_from([0.0, 0.05, 0.2]))] = -9999.0
    v[rng.random(v.shape) < draw(st.sampled_from([0.0, 0.05, 0.2]))] = np.nan
    xll, yll = draw(st.sampled_from(
        [(0.0, 0.0), (5e5, 5e6), (512345.25, 5187654.75)]))
    wins = draw(st.sampled_from([(3, 7), (3, 3), (5, 9)]))
    thresholds = draw(st.sampled_from([(0.55, 0.6), (0.3, 0.9), (0.8, 0.2)]))
    params = ItcParams(
        min_search_win=wins[0], max_search_win=wins[1],
        thresh_seed=thresholds[0], thresh_crown=thresholds[1],
        min_dist=min_dist,
        max_dist=max(min_dist, draw(st.sampled_from([1.0, 4.0, 40.0]))),
        smooth_chm=draw(st.booleans()))
    return Grid(v, xll, yll, cellsize, -9999.0), params


class TestAgainstReferences:
    @given(scene=crown_scenes())
    @settings(max_examples=300, deadline=None)
    def test_equal_the_reference_loops(self, scene):
        chm, params = scene
        apexes = detect_treetops(chm, params)
        assert apexes == quadratic_treetops(chm, params)
        # every strict maximum as a seed: nearby crowns contest cells
        every_max = detect_treetops(
            chm, dataclasses.replace(params, min_dist=1e-9))
        for seeds in (apexes, every_max):
            crowns, owner = grow_crowns(chm, seeds, params)
            ref_crowns, ref_owner = reference_grow_crowns(chm, seeds, params)
            assert owner.dtype == np.int32
            np.testing.assert_array_equal(owner, ref_owner)
            assert crowns == ref_crowns


class TestSmoothing:
    @pytest.mark.parametrize("shape", [(17, 23), (1, 9), (2, 2)])
    def test_mean_of_the_finite_neighbors(self, shape):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        v = rng.uniform(0.0, 30.0, shape)
        v[rng.random(shape) < 0.15] = np.nan
        v[rng.random(shape) < 0.15] = -9999.0
        chm = Grid(v, 0.0, 0.0, CS, -9999.0)
        finite = chm.valid_mask()
        expected = np.full(shape, -np.inf)
        for r, c in zip(*np.nonzero(finite)):
            near = (slice(max(0, r - 1), r + 2), slice(max(0, c - 1), c + 2))
            expected[r, c] = v[near][finite[near]].mean()
        got = _prepared_heights(chm, ItcParams(smooth_chm=True))
        np.testing.assert_array_equal(np.isneginf(got), ~finite)
        np.testing.assert_allclose(got[finite], expected[finite], rtol=1e-12)


class TestSpatialJoin:
    def _one_crown_setup(self):
        chm = cone_chm((60, 60), [(30, 30, 20.0, 8.0)])
        params = ItcParams()
        crowns, owner = grow_crowns(chm, detect_treetops(chm, params), params)
        return chm, crowns, owner

    def test_point_at_apex(self):
        chm, crowns, owner = self._one_crown_setup()
        p = GroundTruthPoint(crowns[0].apex_x, crowns[0].apex_y, "PIAB")
        species, unmatched = spatial_join([p], crowns, owner, chm)
        assert species == {crowns[0].crown_id: "PIAB"}
        assert unmatched == []

    def test_point_on_background_unmatched(self):
        chm, crowns, owner = self._one_crown_setup()
        p = GroundTruthPoint(1.0, 1.0, "PIAB")
        species, unmatched = spatial_join([p], crowns, owner, chm)
        assert species == {}
        assert unmatched == [p]

    def test_conflict_nearest_to_apex_wins(self):
        chm, crowns, owner = self._one_crown_setup()
        apex_x, apex_y = crowns[0].apex_x, crowns[0].apex_y
        near = GroundTruthPoint(apex_x + 1.0, apex_y, "AAAA")
        far = GroundTruthPoint(apex_x + 3.0, apex_y, "BBBB")
        species, _ = spatial_join([far, near], crowns, owner, chm)
        assert species[crowns[0].crown_id] == "AAAA"

    def test_point_outside_the_grid_unmatched(self):
        # a crown covering every cell: an index wrapping around the
        # raster edge would wrongly find it
        chm = grid_from(np.full((6, 8), 10.0))
        owner = np.ones((6, 8), dtype=np.int32)
        x, y = chm.cell_center(2, 3)
        crown = CrownRecord(crown_id=1, apex_x=float(x), apex_y=float(y),
                            tree_height=10.0, crown_area=48 * CS * CS,
                            crown_diameter=1.0)
        width, height = 8 * CS, 6 * CS
        outside = [GroundTruthPoint(-0.1, 1.0, "WEST"),
                   GroundTruthPoint(width + 0.1, 1.0, "EAST"),
                   GroundTruthPoint(1.0, height + 0.1, "NORTH"),
                   GroundTruthPoint(1.0, -0.1, "SOUTH")]
        inside = GroundTruthPoint(1.0, 1.0, "IN")
        species, unmatched = spatial_join(outside + [inside], [crown], owner,
                                          chm)
        assert unmatched == outside
        assert species == {1: "IN"}


class TestSplit:
    def test_floor_arithmetic(self):
        labels = {i: "PIAB" for i in range(20)}
        res = split_train_test(labels, 0.65, seed=1)
        assert len(res.train_ids) == 13
        assert len(res.test_ids) == 7

    def test_deterministic(self):
        labels = {i: ("A" if i % 3 else "B") for i in range(30)}
        a = split_train_test(labels, 0.65, seed=42)
        b = split_train_test(labels, 0.65, seed=42)
        assert a == b

    def test_singleton_flagged_to_train(self):
        labels = {1: "A", 2: "B", 3: "B"}
        res = split_train_test(labels, 0.65, seed=0)
        assert 1 in res.train_ids

    def test_spruce_counts_near_field_campaign_split(self):
        # 176 Norway spruce individuals at a 65% split: 114 vs the
        # campaign's reported 115 (within one tree)
        labels = {i: "PIAB" for i in range(176)}
        res = split_train_test(labels, 0.65, seed=9)
        assert abs(len(res.train_ids) - 115) <= 1
        assert len(res.train_ids) + len(res.test_ids) == 176

    def test_disjoint_and_complete(self):
        rng = np.random.default_rng(8)
        labels = {i: f"S{rng.integers(0, 5)}" for i in range(100)}
        res = split_train_test(labels, 0.65, seed=5)
        train, test = set(res.train_ids), set(res.test_ids)
        assert not (train & test)
        assert train | test == set(labels)


def test_crown_label_grid_and_table(tmp_path):
    chm = cone_chm((40, 40), [(20, 20, 20.0, 6.0)])
    params = ItcParams()
    crowns, owner = grow_crowns(chm, detect_treetops(chm, params), params)
    labels = crown_label_grid(chm, owner)
    assert labels.values[20, 20] == crowns[0].crown_id
    assert labels.values[0, 0] == labels.nodata
    np.testing.assert_array_equal(labels.values != labels.nodata, owner > 0)
    path = tmp_path / "crowns.csv"
    write_crown_table(crowns, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("crown_id,apex_x")
    assert len(lines) == 1 + len(crowns)
