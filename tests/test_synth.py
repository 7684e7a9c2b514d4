import math
import tracemalloc

import numpy as np
import pytest

from forestinv.errors import DataError
from forestinv.evaluate import PlotDefinition
from forestinv.geodata import read_ascii_grid, read_envi_cube, read_point_cloud
from forestinv.synth import (
    DTM_RESOLUTION,
    SKIRT_WIDTH,
    SceneConfig,
    SceneSpec,
    TreeSpec,
    _canopy_surface,
    contour_radius,
    generate_scene,
    profile_height,
    random_scene,
    reach,
    render_canopy_grid,
    write_scene,
)


def tiny_spec(shape="tapered_cone", **overrides):
    base = dict(
        scene=SceneConfig(junk_head=0, junk_tail=0, noise_sigma=0.0,
                          shape=shape),
        seed=1, xll=0.0, yll=0.0, width=30.0, height=30.0,
        trees=(TreeSpec(15.25, 15.25, 18.0, 3.5, "PIAB"),),
        signatures={"PIAB": np.array([1.0, 0.2, 0.2])},
        background=np.array([0.2, 0.2, 1.0]),
        plots=(), chm_resolution=0.5,
    )
    base.update(overrides)
    return SceneSpec(**base)


def painted_bands(data):
    """The float64 bands the scene's cube paints, stacked in file order."""
    bands = dict(data.cube.bands())
    return np.stack([bands[i] for i in range(len(bands))])


class TestProfiles:
    def test_cone_contour(self):
        spec = tiny_spec(shape="cone")
        tree = spec.trees[0]
        r = contour_radius(spec, tree, 0.55)
        assert r == pytest.approx(0.45 * tree.crown_radius)
        assert profile_height(spec, tree, r) == pytest.approx(
            0.55 * tree.height)

    def test_tapered_cone_contour_at_nominal_radius(self):
        spec = tiny_spec(shape="tapered_cone")
        tree = spec.trees[0]
        assert contour_radius(spec, tree, 0.55) == pytest.approx(
            tree.crown_radius)
        assert profile_height(spec, tree, tree.crown_radius) == pytest.approx(
            0.55 * tree.height)
        beyond = tree.crown_radius + SKIRT_WIDTH
        assert profile_height(spec, tree, beyond) == 0.0

    def test_paraboloid_contour(self):
        spec = tiny_spec(shape="paraboloid")
        tree = spec.trees[0]
        r = contour_radius(spec, tree, 0.55)
        assert profile_height(spec, tree, r) == pytest.approx(
            0.55 * tree.height)

    def test_apex_height_exact(self):
        for shape in ("cone", "tapered_cone", "paraboloid"):
            spec = tiny_spec(shape=shape)
            assert profile_height(spec, spec.trees[0], 0.0) == pytest.approx(
                spec.trees[0].height)


class TestGenerate:
    def test_noiseless_pixels_equal_signature(self):
        spec = tiny_spec()
        data = generate_scene(spec)
        tree = spec.trees[0]
        cell = (int((spec.height - tree.y) / 0.5), int(tree.x / 0.5))
        cube = painted_bands(data)
        np.testing.assert_allclose(cube[:, cell[0], cell[1]],
                                   spec.signatures["PIAB"], atol=1e-12)
        corner = cube[:, 0, 0]
        np.testing.assert_allclose(corner, spec.background, atol=1e-12)

    def test_realized_density_within_five_percent(self):
        spec = tiny_spec()
        data = generate_scene(spec)
        area = spec.width * spec.height
        realized = (len(data.cloud) - len(spec.trees)) / area
        density = spec.scene.point_density
        assert abs(realized - density) / density < 0.05

    def test_same_seed_identical_files(self, tmp_path):
        # noise and junk bands, so that the cube draws from the generator
        spec = tiny_spec(scene=SceneConfig(junk_head=2, junk_tail=1))
        a, b, again = tmp_path / "a", tmp_path / "b", tmp_path / "again"
        data = generate_scene(spec)
        write_scene(data, a)
        write_scene(generate_scene(spec), b)
        # a scene written twice paints the same cube both times
        write_scene(data, again)
        for name in ("dtm.asc", "points.csv", "cube.dat", "ground_truth.csv",
                     "plots.csv", "truth_trees.csv", "truth_plots.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
            assert (a / name).read_bytes() == (again / name).read_bytes(), name

    def test_tree_outside_bounds_rejected(self):
        spec = tiny_spec(trees=(TreeSpec(100.0, 5.0, 18.0, 3.0, "PIAB"),))
        with pytest.raises(DataError, match="outside"):
            generate_scene(spec)

    def test_apex_return_present(self):
        spec = tiny_spec()
        data = generate_scene(spec)
        tree = spec.trees[0]
        at_apex = (data.cloud.x == tree.x) & (data.cloud.y == tree.y)
        assert at_apex.sum() >= 1
        top = data.cloud.z[at_apex].max()
        assert top == pytest.approx(500.0 + tree.height)

    def test_ground_flag(self):
        spec = tiny_spec()
        data = generate_scene(spec)
        assert data.cloud.is_ground.any()
        assert (~data.cloud.is_ground).any()

    def test_truth_tables_use_inventory_formulas(self):
        from forestinv.allometry import (DbhModel, SpeciesRegistry, agb_jucker,
                                         estimate_dbh, volume_double_entry)

        spec = tiny_spec()
        data = generate_scene(spec)
        t = data.truth_trees[0]
        cd = 2.0 * contour_radius(spec, spec.trees[0])
        assert t.crown_diameter == pytest.approx(cd)
        assert t.dbh == pytest.approx(estimate_dbh(18.0, cd, DbhModel()))
        assert t.agb == pytest.approx(agb_jucker(18.0, cd, "gymnosperm"))
        params, _ = SpeciesRegistry().volume_params("PIAB")
        assert t.volume == pytest.approx(
            volume_double_entry(t.dbh, 18.0, params)[0])

    @pytest.mark.parametrize("species", ["PIAB", "QUPU"])
    def test_inventory_and_truth_tables_agree_on_one_tree(self, species):
        # a crown that measures as the tree does gets the tree's truth
        # values bit for bit, also through a volume fallback
        from forestinv.allometry import DbhModel, SpeciesRegistry, enrich_crowns
        from forestinv.crowns import CrownRecord

        tree = TreeSpec(15.25, 15.25, 18.0, 3.5, species)
        spec = tiny_spec(trees=(tree,), signatures={species: np.ones(3)})
        registry, dbh_model = SpeciesRegistry(), DbhModel(0.6, 0.8, 0.05)
        data = generate_scene(spec, registry, dbh_model)
        t = data.truth_trees[0]
        crown = CrownRecord(1, t.apex_x, t.apex_y, t.tree_height, 1.0,
                            t.crown_diameter, species_code=species)
        report = enrich_crowns([crown], registry, dbh_model)
        assert (crown.dbh, crown.agb, crown.volume) == (t.dbh, t.agb,
                                                        t.volume)
        assert crown.volume > 0
        assert crown.fallback_used == (None if species == "PIAB" else "FASY")
        assert len(report) == (species != "PIAB")

    def test_truth_trees_are_crowns_at_the_truth_contour(self):
        from forestinv.crowns import CrownRecord

        tree = TreeSpec(15.25, 15.25, 18.0, 3.5, "QUPU")
        spec = tiny_spec(trees=(tree,), signatures={"QUPU": np.ones(3)})
        (t,) = generate_scene(spec).truth_trees
        r = contour_radius(spec, tree)
        assert isinstance(t, CrownRecord)
        assert (t.crown_id, t.apex_x, t.apex_y, t.tree_height,
                t.species_code) == (1, 15.25, 15.25, 18.0, "QUPU")
        assert (t.crown_area, t.crown_diameter) == (math.pi * r * r, 2 * r)
        assert t.fallback_used == "FASY"

    def test_a_species_not_in_the_registry_is_a_data_error(self):
        # enrich_crowns would skip the tree and leave its truth empty
        tree = TreeSpec(15.25, 15.25, 18.0, 3.5, "ZZZZ")
        spec = tiny_spec(trees=(tree,), signatures={"ZZZZ": np.ones(3)})
        with pytest.raises(DataError, match="unknown species code 'ZZZZ'"):
            generate_scene(spec)

    def test_plot_truth_radius_and_dbh_filter(self):
        spec = tiny_spec(plots=(PlotDefinition(1, 15.25, 15.25, radius=15.0),
                                PlotDefinition(2, 2.0, 2.0, radius=5.0)))
        data = generate_scene(spec)
        by_id = {p.plot_id: p for p in data.truth_plots}
        assert by_id[1].n_trees == 1
        assert by_id[2].n_trees == 0
        assert by_id[1].agb_mg == pytest.approx(data.truth_trees[0].agb / 1000)


class TestRandomScene:
    def test_tree_spacing_and_count(self):
        spec = random_scene(SceneConfig(n_trees=40, species=("PIAB", "FASY")),
                            seed=3)
        assert len(spec.trees) == 40
        xs = np.array([t.x for t in spec.trees])
        ys = np.array([t.y for t in spec.trees])
        d2 = (xs[:, None] - xs) ** 2 + (ys[:, None] - ys) ** 2
        np.fill_diagonal(d2, np.inf)
        assert math.sqrt(d2.min()) > 10.0

    def test_balanced_species(self):
        spec = random_scene(SceneConfig(n_trees=30, species=("A", "B", "C")),
                            seed=4)
        counts = {}
        for t in spec.trees:
            counts[t.species] = counts.get(t.species, 0) + 1
        assert set(counts.values()) == {10}

    def test_apexes_on_cell_centers(self):
        spec = random_scene(SceneConfig(n_trees=10, species=("A",)), seed=5)
        for t in spec.trees:
            fx = (t.x - spec.xll) / spec.chm_resolution - 0.5
            assert fx == pytest.approx(round(fx), abs=1e-9)

    def test_scene_files_round_trip(self, tmp_path):
        spec = random_scene(SceneConfig(n_trees=12, species=("PIAB", "FASY"),
                                        nbands=8), seed=6)
        data = generate_scene(spec)
        paths = write_scene(data, tmp_path)
        dtm = read_ascii_grid(paths["dtm"])
        cloud = read_point_cloud(paths["point_cloud"])
        cube = read_envi_cube(paths["cube_header"], paths["cube_data"])
        assert dtm.cellsize == DTM_RESOLUTION
        assert len(cloud) == len(data.cloud)
        painted = painted_bands(data)
        assert cube.nbands == len(painted)
        assert cube.xll == pytest.approx(spec.xll)
        np.testing.assert_allclose(
            np.stack([cube.band(i) for i in range(cube.nbands)]),
            painted, rtol=1e-5, atol=1e-5)

    def test_no_whole_cube_in_memory(self, tmp_path):
        spec = random_scene(SceneConfig(n_trees=4, nbands=300,
                                        point_density=1.0), seed=8)
        res = spec.chm_resolution
        cells = round(spec.width / res) * round(spec.height / res)
        tracemalloc.start()
        try:
            write_scene(generate_scene(spec), tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 300 * cells * np.dtype(np.float64).itemsize


def cell_centers(spec):
    """x and y of every CHM cell center of the scene, row 0 north."""
    res = spec.chm_resolution
    ncols = int(round(spec.width / res))
    nrows = int(round(spec.height / res))
    cx = spec.xll + (np.arange(ncols) + 0.5) * res
    cy = spec.yll + (nrows - np.arange(nrows) - 0.5) * res
    return np.meshgrid(cx, cy)


def one_shot_cube(spec):
    """Reference cube, painted whole: each cell's spectrum from the full
    scan's owner, one 3-D noise draw over the useful bands, then the
    head and the tail bands, all after the point cloud's two draws."""
    scene = spec.scene
    rng = np.random.default_rng(spec.seed)
    n_points = int(round(scene.point_density * spec.width * spec.height))
    rng.uniform(spec.xll, spec.xll + spec.width, n_points)
    rng.uniform(spec.yll, spec.yll + spec.height, n_points)
    _, owner = full_scan_canopy(spec, *cell_centers(spec))
    table = np.column_stack([spec.background] + [spec.signatures[t.species]
                                                 for t in spec.trees])
    spectra = table[:, owner + 1]
    if scene.noise_sigma > 0:
        spectra = spectra + rng.normal(0.0, scene.noise_sigma, spectra.shape)
    head = rng.normal(0.5, 0.3, (scene.junk_head, *owner.shape))
    tail = rng.normal(0.5, 0.3, (scene.junk_tail, *owner.shape))
    return np.concatenate([head, spectra, tail])


def full_scan_canopy(spec, x, y):
    """Reference canopy: every tree tests every point against its box."""
    surface = np.zeros(x.shape)
    owner = np.full(x.shape, -1, dtype=np.int32)
    for idx, tree in enumerate(spec.trees):
        rad = reach(spec, tree)
        box = ((x >= tree.x - rad) & (x <= tree.x + rad)
               & (y >= tree.y - rad) & (y <= tree.y + rad))
        if not box.any():
            continue
        h = profile_height(spec, tree, np.hypot(x[box] - tree.x,
                                                y[box] - tree.y))
        cur = surface[box]
        better = h > cur
        surface[box] = np.where(better, h, cur)
        sub = owner[box]
        sub[better] = idx
        owner[box] = sub
    return surface, owner


def assert_canopy_matches_full_scan(spec, x, y):
    surface, owner = _canopy_surface(spec, x, y, want_owner=True)
    ref_surface, ref_owner = full_scan_canopy(spec, x, y)
    assert surface.shape == owner.shape == x.shape
    assert np.array_equal(surface, ref_surface)
    assert np.array_equal(owner, ref_owner)
    assert np.array_equal(_canopy_surface(spec, x, y), ref_surface)


class TestCanopySurface:
    @pytest.mark.parametrize("shape", ["cone", "tapered_cone", "paraboloid"])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_scene_points_match_full_scan(self, shape, seed):
        spec = random_scene(SceneConfig(
            n_trees=9, species=("PIAB", "FASY"), nbands=3, pitch=7.0,
            margin=5.0, n_plots=0, shape=shape), seed)
        rng = np.random.default_rng(seed)
        x = rng.uniform(spec.xll, spec.xll + spec.width, 3000)
        y = rng.uniform(spec.yll, spec.yll + spec.height, 3000)
        # many points share one x, as on a raster
        x[::3] = np.round(x[::3], 1)
        assert_canopy_matches_full_scan(spec, x, y)

    @pytest.mark.parametrize("shape", ["cone", "tapered_cone", "paraboloid"])
    def test_equal_heights_keep_the_earlier_tree(self, shape):
        trees = (TreeSpec(10.0, 10.0, 18.0, 3.0, "PIAB"),
                 TreeSpec(12.0, 10.0, 18.0, 3.0, "FASY"),
                 TreeSpec(10.0, 10.0, 18.0, 3.0, "PIAB"))
        spec = tiny_spec(trees=trees, shape=shape,
                         signatures={"PIAB": np.ones(3), "FASY": np.ones(3)})
        x = np.array([11.0, 11.0, 10.5, 11.5, 9.0, 13.0])
        y = np.array([10.0, 11.0, 10.0, 10.0, 10.0, 10.0])
        surface, owner = _canopy_surface(spec, x, y, want_owner=True)
        # (11, 10) and (11, 11) are as far from trees 0 and 1, and tree 2
        # stands where tree 0 does
        assert list(owner) == [0, 0, 0, 1, 0, 1]
        assert_canopy_matches_full_scan(spec, x, y)

    @pytest.mark.parametrize("shape", ["cone", "tapered_cone", "paraboloid"])
    def test_points_on_the_box_edges(self, shape):
        # at this apex, (x +- reach) - x rounds to just under the reach,
        # so the tree covers the middle of every side of its box
        spec = tiny_spec(shape=shape,
                         trees=(TreeSpec(7.0, 7.0, 18.0, 2.6, "PIAB"),))
        tree = spec.trees[0]
        rad = reach(spec, tree)
        lo_x, hi_x = tree.x - rad, tree.x + rad
        lo_y, hi_y = tree.y - rad, tree.y + rad
        x = np.array([lo_x, hi_x, tree.x, tree.x, lo_x, hi_x,
                      np.nextafter(lo_x, -np.inf), np.nextafter(hi_x, np.inf)])
        y = np.array([tree.y, tree.y, lo_y, hi_y, lo_y, hi_y, tree.y, tree.y])
        assert np.all(_canopy_surface(spec, x, y)[:4] > 0)
        assert_canopy_matches_full_scan(spec, x, y)

    def test_empty_point_array(self):
        spec = tiny_spec()
        empty = np.empty(0)
        surface, owner = _canopy_surface(spec, empty, empty, want_owner=True)
        assert surface.shape == owner.shape == (0,)
        assert_canopy_matches_full_scan(spec, empty, empty)

    @pytest.mark.parametrize("shape", ["cone", "tapered_cone", "paraboloid"])
    def test_raster_grid_matches_full_scan(self, shape):
        spec = random_scene(SceneConfig(
            n_trees=7, species=("PIAB", "FASY"), nbands=3, pitch=6.0,
            margin=4.0, n_plots=0, shape=shape), 3)
        gx, gy = cell_centers(spec)
        assert_canopy_matches_full_scan(spec, gx, gy)
        grid = render_canopy_grid(spec)
        assert np.array_equal(grid.values, full_scan_canopy(spec, gx, gy)[0])

    def test_cube_equals_per_tree_painting(self):
        spec = random_scene(SceneConfig(
            n_trees=12, species=("PIAB", "FASY", "LADE"), nbands=6,
            n_plots=0, noise_sigma=0.0, junk_head=2, junk_tail=1), 5)
        cube = painted_bands(generate_scene(spec))
        _, owner = full_scan_canopy(spec, *cell_centers(spec))
        painted = np.tile(spec.background[:, None, None], (1, *owner.shape))
        for idx, tree in enumerate(spec.trees):
            painted[:, owner == idx] = spec.signatures[tree.species][:, None]
        assert len(np.unique(owner)) == len(spec.trees) + 1
        assert np.array_equal(cube[2:-1], painted)

    @pytest.mark.parametrize("noise_sigma, junk_head, junk_tail", [
        (0.05, 3, 2), (0.0, 3, 2), (0.05, 0, 0)])
    def test_written_cube_equals_one_shot_painting(
            self, tmp_path, noise_sigma, junk_head, junk_tail):
        spec = random_scene(SceneConfig(
            n_trees=6, species=("PIAB", "FASY"), nbands=5, n_plots=0,
            point_density=2.0, noise_sigma=noise_sigma, junk_head=junk_head,
            junk_tail=junk_tail), 9)
        write_scene(generate_scene(spec), tmp_path)
        assert ((tmp_path / "cube.dat").read_bytes()
                == one_shot_cube(spec).astype("<f4").tobytes())
