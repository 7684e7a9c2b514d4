"""Synthetic scene generation for desk-scale pipeline verification.

`SceneConfig`, the [scene] section, is a scene's whole recipe, with
every default and check. `random_scene` draws trees, plots and species
signatures from it; `generate_scene` renders the trees onto a terrain
as radial canopy profiles, samples that surface into a LiDAR point
cloud, and emits ground-truth points, plots and truth tables; the
hyperspectral cube, the signatures plus Gaussian noise, is painted one
band at a time as `write_scene` writes it. The truth tables use the
run's allometric formulas, [registry] and [allometry], so end-to-end
comparisons isolate the geometric and classification machinery.

The default "tapered_cone" profile keeps the canopy surface at
EDGE_FRACTION of the apex height at the nominal crown radius (real
crown edges drop to understory level, not to bare ground), which makes
the nominal footprint recoverable by seed-threshold region growing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .allometry import DbhModel, SpeciesRegistry, allometry
from .errors import DataError
from .evaluate import PlotDefinition, PlotTotals, aggregate_plot, \
    write_plot_definitions, write_plot_totals
from .geodata import Grid, GroundTruthPoint, PointCloud, \
    write_ascii_grid, write_envi_cube, write_ground_truth, \
    write_point_cloud, write_table

_SHAPES = ("cone", "tapered_cone", "paraboloid")
_TERRAINS = ("flat", "slope", "hills")
_BASE_ELEVATION = 500.0
EDGE_FRACTION = 0.55           # tapered_cone height at the crown radius
SKIRT_WIDTH = 3.0              # m, tapered_cone fall-off beyond the radius
TRUTH_CONTOUR_FRACTION = 0.55  # truth crown edge, a fraction of the apex
DTM_RESOLUTION = 1.0           # m
JITTER = 0.9                   # m, apex offset from its grid slot


@dataclass(frozen=True)
class SceneConfig:
    """The [scene] section: what `forestinv synth` generates."""

    n_trees: int = 200
    species: tuple[str, ...] = ("PIAB", "ABAL", "LADE", "FASY", "QUPU")
    nbands: int = 16
    pitch: float = 13.0
    margin: float = 9.0
    height_min: float = 14.0
    height_max: float = 24.0
    radius_min: float = 2.5
    radius_max: float = 4.5
    n_plots: int = 10
    plot_radius: float = 15.0
    noise_sigma: float = 0.02
    signature_amplitude: float = 0.6
    junk_head: int = 7
    junk_tail: int = 8
    shape: str = "tapered_cone"
    terrain: str = "flat"
    point_density: float = 10.0

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite")
        for name, least in (("n_trees", 1), ("nbands", 1), ("n_plots", 0),
                            ("junk_head", 0), ("junk_tail", 0),
                            ("margin", 0), ("noise_sigma", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        for name in ("pitch", "point_density"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0")
        if not self.species:
            raise ValueError("species list is empty")
        if not 0 < self.height_min <= self.height_max:
            raise ValueError("need 0 < height_min <= height_max")
        if not 0 < self.radius_min <= self.radius_max:
            raise ValueError("need 0 < radius_min <= radius_max")
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.terrain not in _TERRAINS:
            raise ValueError(f"unknown terrain {self.terrain!r}")


@dataclass(frozen=True)
class TreeSpec:
    x: float
    y: float
    height: float
    crown_radius: float
    species: str


@dataclass(frozen=True)
class SceneSpec:
    """One drawn scene: the config it was drawn from and what was drawn."""

    scene: SceneConfig
    seed: int
    xll: float
    yll: float
    width: float
    height: float
    trees: tuple[TreeSpec, ...]
    signatures: dict[str, np.ndarray]       # per-species, useful bands only
    background: np.ndarray
    plots: tuple[PlotDefinition, ...]
    chm_resolution: float


@dataclass(frozen=True)
class TreeTruth:
    tree_id: int
    apex_x: float   # named as on a CrownRecord, for aggregate_plot
    apex_y: float
    species: str
    height: float
    crown_diameter: float
    dbh: float
    volume: float
    agb: float


# truth_trees.csv names the TreeTruth fields in order, the apex as x, y
_TRUTH_TREE_COLUMNS = ("tree_id", "x", "y", "species", "height",
                       "crown_diameter", "dbh", "volume", "agb")


@dataclass(frozen=True)
class SceneCube:
    """The scene's hyperspectral cube on the CHM grid, painted by `bands`.

    `owner` holds the index of the tree covering each cell, -1 where
    none does. `rng_state` is the scene generator's state after the
    point cloud, so every call of `bands` paints the same cube.
    """

    spec: SceneSpec
    owner: np.ndarray
    xll: float
    yll: float
    cellsize: float
    wavelengths: np.ndarray
    rng_state: dict

    def bands(self):
        """Yield (index, float64 band) in draw order: the useful bands,
        each cell's tree signature or the background plus noise, then
        the head bands and the tail bands, noise alone."""
        spec, scene = self.spec, self.spec.scene
        rng = np.random.default_rng()
        rng.bit_generator.state = self.rng_state
        # column 0 is the background, column i + 1 the signature of tree i
        table = np.column_stack([spec.background] + [
            spec.signatures[t.species] for t in spec.trees])
        cells = self.owner + 1
        for b, spectrum in enumerate(table, start=scene.junk_head):
            band = spectrum[cells]
            if scene.noise_sigma > 0:
                band = band + rng.normal(0.0, scene.noise_sigma, cells.shape)
            yield b, band
        nbands = len(self.wavelengths)
        for b in (*range(scene.junk_head),
                  *range(nbands - scene.junk_tail, nbands)):
            yield b, rng.normal(0.5, 0.3, cells.shape)


@dataclass
class SceneData:
    spec: SceneSpec
    dtm: Grid
    cloud: PointCloud
    cube: SceneCube
    ground_truth: list[GroundTruthPoint]
    plots: tuple[PlotDefinition, ...]
    truth_trees: list[TreeTruth]
    truth_plots: list[PlotTotals]


# ---------------------------------------------------------------------------
# Canopy profile
# ---------------------------------------------------------------------------


def profile_height(spec: SceneSpec, tree: TreeSpec, r):
    """Canopy height of one tree at radial distance r from its apex."""
    r = np.asarray(r, dtype=np.float64)
    h, radius = tree.height, tree.crown_radius
    if spec.scene.shape == "cone":
        return h * np.clip(1.0 - r / radius, 0.0, None)
    if spec.scene.shape == "paraboloid":
        return h * np.clip(1.0 - (r / radius) ** 2, 0.0, None)
    e = EDGE_FRACTION
    inner = h * (1.0 - (1.0 - e) * np.minimum(r, radius) / radius)
    skirt = h * e * np.clip(1.0 - (r - radius) / SKIRT_WIDTH, 0.0, 1.0)
    return np.where(r <= radius, inner, skirt)


def reach(spec: SceneSpec, tree: TreeSpec) -> float:
    """Radius beyond which the tree's profile is zero."""
    if spec.scene.shape == "tapered_cone":
        return tree.crown_radius + SKIRT_WIDTH
    return tree.crown_radius


def contour_radius(spec: SceneSpec, tree: TreeSpec,
                   f: float = TRUTH_CONTOUR_FRACTION) -> float:
    """Radius where the profile crosses f * apex height."""
    radius = tree.crown_radius
    if spec.scene.shape == "cone":
        return radius * (1.0 - f)
    if spec.scene.shape == "paraboloid":
        return radius * math.sqrt(1.0 - f)
    e = EDGE_FRACTION
    if f >= e:
        return radius * (1.0 - f) / (1.0 - e)
    return radius + SKIRT_WIDTH * (1.0 - f / e)


def render_canopy_grid(spec: SceneSpec) -> Grid:
    """Analytic canopy height raster of the scene (no LiDAR sampling).

    Useful as a noise-free CHM for exercising crown delineation against
    closed-form oracles.
    """
    chm = _chm_grid(spec)
    return chm.with_values(_canopy_surface(spec, *_cell_centers(chm)))


def _chm_grid(spec: SceneSpec) -> Grid:
    """The scene's CHM grid, all zeros: the cube's georeference."""
    res = spec.chm_resolution
    shape = (int(round(spec.height / res)), int(round(spec.width / res)))
    return Grid(np.zeros(shape), spec.xll, spec.yll, res)


def _cell_centers(grid: Grid):
    """x and y of every cell center of `grid`, each a (rows, cols) array."""
    return grid.cell_center(*np.indices(grid.values.shape))


def _terrain_z(terrain: str, x, y):
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if terrain == "flat":
        return np.full(np.broadcast(x, y).shape, _BASE_ELEVATION)
    if terrain == "slope":
        return _BASE_ELEVATION + 0.05 * x
    return (_BASE_ELEVATION + 8.0 * np.sin(x / 37.0) * np.cos(y / 41.0))


def _canopy_surface(spec: SceneSpec, x, y, want_owner=False):
    """Max canopy height over all trees at the given coordinates.

    With want_owner, also returns the 0-based index of the covering
    (tallest) tree, -1 where no tree covers the point; of equally tall
    trees the earlier one keeps the point. The points are sorted by x
    once, so each tree reads only the window of its box's x range.
    """
    x = np.asarray(x, dtype=np.float64)
    order = np.argsort(x, axis=None)
    xs = x.ravel()[order]
    ys = np.asarray(y, dtype=np.float64).ravel()[order]
    surface = np.zeros(xs.shape)
    owner = np.full(xs.shape, -1, dtype=np.int32)
    for idx, tree in enumerate(spec.trees):
        rad = reach(spec, tree)
        lo = np.searchsorted(xs, tree.x - rad, "left")
        hi = np.searchsorted(xs, tree.x + rad, "right")
        yw = ys[lo:hi]
        box = lo + np.flatnonzero((yw >= tree.y - rad) & (yw <= tree.y + rad))
        r = np.hypot(xs[box] - tree.x, ys[box] - tree.y)
        h = profile_height(spec, tree, r)
        better = h > surface[box]
        surface[box[better]] = h[better]
        owner[box[better]] = idx

    def unsorted(v):
        out = np.empty_like(v)
        out[order] = v
        return out.reshape(x.shape)

    if want_owner:
        return unsorted(surface), unsorted(owner)
    return unsorted(surface)


# ---------------------------------------------------------------------------
# Scene construction
# ---------------------------------------------------------------------------


def random_scene(scene: SceneConfig, seed: int,
                 chm_resolution: float = 0.5) -> SceneSpec:
    """Jittered-grid scene: pairwise apex spacing stays above
    pitch - 2*JITTER - cell diagonal, and apexes snap to CHM cell
    centers so detection oracles are exact."""
    rng = np.random.default_rng(seed)
    res = chm_resolution
    n_trees, species, margin, pitch, n_plots, plot_radius = (
        scene.n_trees, scene.species, scene.margin, scene.pitch,
        scene.n_plots, scene.plot_radius)

    nx = math.ceil(math.sqrt(n_trees))
    ny = math.ceil(n_trees / nx)
    width = 2 * margin + (nx - 1) * pitch
    height = 2 * margin + (ny - 1) * pitch
    width = math.ceil(width / res) * res
    height = math.ceil(height / res) * res
    if n_plots > 0 and not 0 < 2 * plot_radius <= min(width, height):
        raise ValueError(f"plot_radius {plot_radius:g} does not fit in the "
                         f"{width:g} x {height:g} m scene")
    n_points = scene.point_density * width * height
    if not n_points <= np.iinfo(np.intp).max:
        raise ValueError(f"point_density {scene.point_density:g} asks for "
                         f"{n_points:.3g} points on the {width:g} x "
                         f"{height:g} m scene, more than an array can hold")
    xll, yll = 0.0, 0.0

    slots = [(xll + margin + i * pitch, yll + margin + j * pitch)
             for j in range(ny) for i in range(nx)]
    order = rng.permutation(len(slots))[:n_trees]

    h_lo, h_hi = scene.height_min, scene.height_max
    r_lo, r_hi = scene.radius_min, scene.radius_max
    trees = []
    for k, slot in enumerate(order):
        sx, sy = slots[slot]
        x = sx + rng.uniform(-JITTER, JITTER)
        y = sy + rng.uniform(-JITTER, JITTER)
        # snap apex onto a CHM cell center
        x = xll + (math.floor((x - xll) / res) + 0.5) * res
        y = yll + (math.floor((y - yll) / res) + 0.5) * res
        h = rng.uniform(h_lo, h_hi)
        frac = (h - h_lo) / max(h_hi - h_lo, 1e-9)
        radius = np.clip(r_lo + frac * (r_hi - r_lo) + rng.uniform(-0.2, 0.2),
                         r_lo, r_hi)
        trees.append(TreeSpec(x, y, h, float(radius),
                              species[k % len(species)]))

    plots = []
    for pid in range(1, n_plots + 1):
        px = rng.uniform(xll + plot_radius, xll + width - plot_radius)
        py = rng.uniform(yll + plot_radius, yll + height - plot_radius)
        plots.append(PlotDefinition(pid, px, py, plot_radius))

    nbands, amplitude = scene.nbands, scene.signature_amplitude
    bands = np.arange(nbands, dtype=np.float64)
    sig_width = max(1.5, nbands / 12.0)
    signatures = {}
    for i, sp in enumerate(sorted(set(species))):
        center = (i + 1) * nbands / (len(set(species)) + 2)
        signatures[sp] = 1.0 + amplitude * np.exp(
            -((bands - center) ** 2) / (2 * sig_width ** 2))
    bg_center = nbands * (len(set(species)) + 1) / (len(set(species)) + 2)
    background = 1.0 + amplitude * np.exp(
        -((bands - bg_center) ** 2) / (2 * sig_width ** 2))

    return SceneSpec(scene=scene, seed=seed, xll=xll, yll=yll, width=width,
                     height=height, trees=tuple(trees), signatures=signatures,
                     background=background, plots=tuple(plots),
                     chm_resolution=res)


def generate_scene(spec: SceneSpec, registry=SpeciesRegistry(),
                   dbh_model=DbhModel()) -> SceneData:
    """Render the scene: DTM, LiDAR cloud, the cube's painter,
    ground-truth points, plots and truth tables. The truth tables use
    `registry` and `dbh_model`, as the inventory does."""
    for i, tree in enumerate(spec.trees):
        if not (spec.xll <= tree.x <= spec.xll + spec.width
                and spec.yll <= tree.y <= spec.yll + spec.height):
            raise DataError(f"tree {i} at ({tree.x}, {tree.y}) is outside "
                            f"the scene bounds")

    rng = np.random.default_rng(spec.seed)
    scene = spec.scene

    # DTM one cell wider than the scene so every point is inside the
    # bilinear interpolation hull
    dres = DTM_RESOLUTION
    dtm = Grid(np.zeros((math.ceil(spec.height / dres) + 2,
                         math.ceil(spec.width / dres) + 2)),
               spec.xll - dres, spec.yll - dres, dres)
    dtm = dtm.with_values(_terrain_z(scene.terrain, *_cell_centers(dtm)))

    # LiDAR returns: uniform sampling of the canopy surface plus one
    # exact return at every apex
    n_points = int(round(scene.point_density * spec.width * spec.height))
    px = rng.uniform(spec.xll, spec.xll + spec.width, n_points)
    py = rng.uniform(spec.yll, spec.yll + spec.height, n_points)
    canopy = _canopy_surface(spec, px, py)
    px = np.append(px, [t.x for t in spec.trees])
    py = np.append(py, [t.y for t in spec.trees])
    canopy = np.append(canopy, [t.height for t in spec.trees])
    pz = _terrain_z(scene.terrain, px, py) + canopy
    cloud = PointCloud.from_xyz(px, py, pz, is_ground=canopy == 0.0)

    # hyperspectral cube on the CHM grid
    chm = _chm_grid(spec)
    _, owner = _canopy_surface(spec, *_cell_centers(chm), want_owner=True)
    nbands = scene.junk_head + spec.background.size + scene.junk_tail
    cube = SceneCube(spec, owner, chm.xll, chm.yll, chm.cellsize,
                     np.linspace(0.38, 1.05, nbands), rng.bit_generator.state)

    ground_truth = [GroundTruthPoint(t.x, t.y, t.species) for t in spec.trees]

    truth_trees = _truth_trees(spec, registry, dbh_model)
    truth_plots = [aggregate_plot(truth_trees, p) for p in spec.plots]

    return SceneData(spec, dtm, cloud, cube, ground_truth, spec.plots,
                     truth_trees, truth_plots)


def _truth_trees(spec: SceneSpec, registry: SpeciesRegistry,
                 dbh_model: DbhModel) -> list[TreeTruth]:
    out = []
    for i, tree in enumerate(spec.trees, start=1):
        cd = 2.0 * contour_radius(spec, tree)
        dbh, agb, volume, _, _ = allometry(tree.height, cd, tree.species,
                                           registry, dbh_model)
        out.append(TreeTruth(i, tree.x, tree.y, tree.species, tree.height,
                             cd, dbh, volume, agb))
    return out


# ---------------------------------------------------------------------------
# File emission
# ---------------------------------------------------------------------------


def write_scene(data: SceneData, outdir) -> dict[str, str]:
    """Write every scene artifact; returns name -> path."""
    from pathlib import Path

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    paths = {
        "dtm": outdir / "dtm.asc",
        "point_cloud": outdir / "points.csv",
        "cube_header": outdir / "cube.hdr",
        "cube_data": outdir / "cube.dat",
        "ground_truth": outdir / "ground_truth.csv",
        "plots": outdir / "plots.csv",
        "truth_trees": outdir / "truth_trees.csv",
        "truth_plots": outdir / "truth_plots.csv",
    }
    write_ascii_grid(data.dtm, paths["dtm"])
    write_point_cloud(data.cloud, paths["point_cloud"])
    cube = data.cube
    write_envi_cube(cube.bands(), cube.owner.shape, cube.xll, cube.yll,
                    cube.cellsize, cube.wavelengths, paths["cube_header"],
                    paths["cube_data"])
    write_ground_truth(data.ground_truth, paths["ground_truth"])
    write_plot_definitions(data.plots, paths["plots"])
    write_table(paths["truth_trees"], {
        column: [getattr(t, field.name) for t in data.truth_trees]
        for column, field in zip(_TRUTH_TREE_COLUMNS, fields(TreeTruth))})
    write_plot_totals(data.truth_plots, paths["truth_plots"])
    return {k: str(v) for k, v in paths.items()}
