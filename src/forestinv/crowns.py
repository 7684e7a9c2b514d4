"""Treetop detection and individual tree crown delineation on a CHM.

Treetops are strict local maxima inside a square search window whose
side grows linearly with tree height, thinned so that no two accepted
tops lie within min_dist of each other. Crowns then grow outward from
each top over 4-connected cells, gated by two relative height
thresholds and a maximum growth radius.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .geodata import Grid, GroundTruthPoint, write_table


@dataclass(frozen=True)
class ItcParams:
    min_search_win: int = 3
    max_search_win: int = 7
    thresh_seed: float = 0.55
    thresh_crown: float = 0.6
    min_dist: float = 5.0
    max_dist: float = 40.0
    height_threshold: float = 2.0
    win_low_height: float = 2.0
    win_high_height: float = 30.0
    smooth_chm: bool = False

    def __post_init__(self):
        if not (0 < self.thresh_seed < 1 and 0 < self.thresh_crown < 1):
            raise ValueError("thresholds must lie strictly between 0 and 1")
        for name in ("min_search_win", "max_search_win"):
            w = getattr(self, name)
            if w < 3 or w % 2 == 0:
                raise ValueError(f"{name} must be an odd integer >= 3")
        if self.min_search_win > self.max_search_win:
            raise ValueError("min_search_win must be <= max_search_win")
        if not (0 < self.min_dist <= self.max_dist):
            raise ValueError("need 0 < min_dist <= max_dist")
        if self.height_threshold < 0:
            raise ValueError("height_threshold must be >= 0")
        if not self.win_low_height < self.win_high_height:
            raise ValueError("win_low_height must be < win_high_height")


@dataclass
class CrownRecord:
    """One delineated tree crown."""

    crown_id: int
    apex_x: float
    apex_y: float
    tree_height: float
    crown_area: float
    crown_diameter: float
    species_code: str | None = None
    dbh: float | None = None
    volume: float | None = None
    agb: float | None = None
    fallback_used: str | None = None


@dataclass(frozen=True)
class Apex:
    row: int
    col: int
    x: float
    y: float
    height: float


def detect_treetops(chm: Grid, params: ItcParams) -> list[Apex]:
    """Strict variable-window local maxima, thinned by min_dist.

    Candidates are processed tallest first; a candidate within min_dist
    (map meters) of an already accepted apex is dropped. Ties in height
    break on (row, col) so the result is deterministic.
    """
    values = _prepared_heights(chm, params)

    rows, cols = np.nonzero(values >= params.height_threshold)
    heights = values[rows, cols]

    # window side grows linearly with height, rounded half-to-even to
    # an odd integer inside [min_search_win, max_search_win]
    lo, hi = params.win_low_height, params.win_high_height
    frac = np.clip((heights - lo) / (hi - lo), 0.0, 1.0)
    sides = np.rint(params.min_search_win + frac * (
        params.max_search_win - params.min_search_win)).astype(np.int64)
    sides += sides % 2 == 0
    sides = np.clip(sides, params.min_search_win, params.max_search_win)

    # strict local max: taller than every other cell in its window. The
    # window maximum without the center is the running maximum of shifted
    # views of the grid padded with -inf; each side adds the ring of
    # offsets outside the previous side's window, up to the largest side
    # a candidate uses.
    is_strict = np.zeros(len(rows), dtype=bool)
    nrows, ncols = values.shape
    half = params.max_search_win // 2
    padded = np.pad(values, half, constant_values=-np.inf)
    neighborhood_max = np.full(values.shape, -np.inf)
    for side in range(3, int(sides.max(initial=1)) + 1, 2):
        r = side // 2
        for dr in range(-r, r + 1):
            step = 1 if abs(dr) == r else 2 * r
            for dc in range(-r, r + 1, step):
                np.maximum(neighborhood_max,
                           padded[half + dr:half + dr + nrows,
                                  half + dc:half + dc + ncols],
                           out=neighborhood_max)
        sel = sides == side
        if sel.any():
            is_strict[sel] = (heights[sel]
                              > neighborhood_max[rows[sel], cols[sel]])
    rows, cols, heights = rows[is_strict], cols[is_strict], heights[is_strict]

    # tallest first, ties by (row, col). Accepted apexes are hashed into
    # buckets of size x size cells; cells two buckets apart are at least
    # size + 1 cells, more than min_dist, apart, so an apex too near a
    # candidate lies in the 3 x 3 buckets around the candidate's
    order = np.lexsort((cols, rows, -heights))
    rows, cols, heights = rows[order], cols[order], heights[order]
    xs, ys = chm.cell_center(rows, cols)
    size = int(params.min_dist // chm.cellsize) + 1
    min_d2 = params.min_dist * params.min_dist
    buckets: dict[tuple[int, int], list[tuple[float, float]]] = {}
    apexes: list[Apex] = []
    for r, c, x, y, h in zip(rows.tolist(), cols.tolist(), xs.tolist(),
                             ys.tolist(), heights.tolist()):
        br, bc = r // size, c // size
        if any((ax - x) * (ax - x) + (ay - y) * (ay - y) < min_d2
               for i in (-1, 0, 1) for j in (-1, 0, 1)
               for ax, ay in buckets.get((br + i, bc + j), ())):
            continue
        buckets.setdefault((br, bc), []).append((x, y))
        apexes.append(Apex(r, c, x, y, h))
    return apexes


def _prepared_heights(chm: Grid, params: ItcParams) -> np.ndarray:
    values = np.where(chm.valid_mask(), chm.values, -np.inf)
    if params.smooth_chm:
        from scipy import ndimage

        finite = np.isfinite(values)
        padded = np.where(finite, values, 0.0)
        counts = ndimage.uniform_filter(finite.astype(float), size=3,
                                        mode="constant", cval=0.0)
        sums = ndimage.uniform_filter(padded, size=3, mode="constant", cval=0.0)
        smoothed = np.where(counts > 0, sums / np.maximum(counts, 1e-30), -np.inf)
        values = np.where(finite, smoothed, -np.inf)
    return values


def grow_crowns(chm: Grid, apexes: list[Apex],
                params: ItcParams) -> tuple[list[CrownRecord], np.ndarray]:
    """Region growing from each apex over 4-connected neighbors.

    A cell joins crown k when its height is >= thresh_seed * apex
    height, >= thresh_crown * the crown's running mean height, its
    center lies within max_dist/2 of the apex, and no other crown has
    claimed it. The frontier is processed in descending cell height;
    equal-height contests go to the crown with the taller apex, then
    the lower crown id, then the smaller (row, col).

    Returns (crowns, owner). `owner` is an int32 raster on the CHM grid
    holding each cell's crown_id (k for the k-th apex, 0 = no crown);
    it is the only record of crown membership.
    """
    values = _prepared_heights(chm, params)
    nrows, ncols = values.shape
    # cells of the raster padded with a one-cell -inf border, by flat
    # index; owner is -1 on the border and on non-finite cells, so a
    # neighbor can join the frontier exactly when its owner is 0
    padded = np.pad(values, 1, constant_values=-np.inf)
    width = ncols + 2
    heights = padded.ravel().tolist()
    owner = np.where(np.isfinite(padded), 0, -1).ravel().tolist()
    seeds = [(apex.row + 1) * width + apex.col + 1 for apex in apexes]
    for k, i in enumerate(seeds, start=1):
        owner[i] = k

    sum_h = [0.0] + [apex.height for apex in apexes]
    count = [0] + [1] * len(apexes)
    max_r = params.max_dist / 2.0
    max_r2 = max_r * max_r
    cs = chm.cellsize

    # heap entries: (-cell height, -apex height, crown id, flat index);
    # the flat index increases with (row, col)
    heap = [(-heights[n], -apex.height, k, n)
            for k, (apex, i) in enumerate(zip(apexes, seeds), start=1)
            for n in (i - width, i + width, i - 1, i + 1) if owner[n] == 0]
    heapq.heapify(heap)
    while heap:
        neg_h, neg_apex_h, k, i = heapq.heappop(heap)
        if owner[i] != 0:
            continue
        h = -neg_h
        apex = apexes[k - 1]
        if h < params.thresh_seed * apex.height:
            continue
        if h < params.thresh_crown * (sum_h[k] / count[k]):
            continue
        r, c = divmod(i, width)
        dr = (r - 1 - apex.row) * cs
        dc = (c - 1 - apex.col) * cs
        if dr * dr + dc * dc > max_r2:
            continue
        owner[i] = k
        sum_h[k] += h
        count[k] += 1
        for n in (i - width, i + width, i - 1, i + 1):
            if owner[n] == 0:
                heapq.heappush(heap, (-heights[n], neg_apex_h, k, n))

    owner = np.maximum(np.array(owner, dtype=np.int32).reshape(
        nrows + 2, width)[1:-1, 1:-1], 0)
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


def crown_label_grid(chm: Grid, owner: np.ndarray) -> Grid:
    """Grid of crown ids; background is nodata."""
    return chm.with_values(np.where(owner > 0, owner, chm.nodata))


def spatial_join(points: list[GroundTruthPoint], crowns: list[CrownRecord],
                 owner: np.ndarray, grid: Grid):
    """Assign ground-truth species to the crowns containing the points.

    `owner` is the crown id raster from grow_crowns on `grid`. When a
    crown contains points of more than one species, the point nearest
    the apex wins, then the lowest point index. Returns
    (species_by_crown_id, unmatched points).

    Crown k is crowns[k - 1], as grow_crowns numbers them.
    """
    hits: dict[int, list[tuple[float, int, str]]] = {}
    unmatched = []
    for i, p in enumerate(points):
        inside = grid.contains(p.x, p.y)
        cid = int(owner[grid.cell_of(p.x, p.y)]) if inside else 0
        if cid == 0:
            unmatched.append(p)
            continue
        crown = crowns[cid - 1]
        d = math.hypot(p.x - crown.apex_x, p.y - crown.apex_y)
        hits.setdefault(cid, []).append((d, i, p.species_code))

    species = {}
    for cid, lst in hits.items():
        lst.sort()
        species[cid] = lst[0][2]
    return species, unmatched


@dataclass(frozen=True)
class SplitResult:
    train_ids: tuple[int, ...]
    test_ids: tuple[int, ...]


def split_train_test(labels: dict[int, str], train_fraction: float,
                     seed: int) -> SplitResult:
    """Stratified split of labeled crowns into train and test sets.

    Per species, floor(n * fraction) crowns go to train (at least one
    when n >= 2); a species' single crown goes to train. Deterministic
    for a given seed.
    """
    if not (0 < train_fraction < 1):
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    by_species: dict[str, list[int]] = {}
    for cid in sorted(labels):
        by_species.setdefault(labels[cid], []).append(cid)

    train, test = [], []
    for sp in sorted(by_species):
        ids = by_species[sp]
        if len(ids) == 1:
            train.append(ids[0])
            continue
        n_train = max(1, math.floor(len(ids) * train_fraction))
        perm = rng.permutation(len(ids))
        chosen = [ids[i] for i in perm[:n_train]]
        train.extend(chosen)
        test.extend(ids[i] for i in perm[n_train:])
    return SplitResult(tuple(sorted(train)), tuple(sorted(test)))


# ---------------------------------------------------------------------------
# Crown table export
# ---------------------------------------------------------------------------

_TABLE_COLUMNS = ("crown_id", "apex_x", "apex_y", "tree_height", "crown_area",
                  "crown_diameter", "species_code", "dbh", "volume", "agb")


def write_crown_table(crowns: list[CrownRecord], path) -> None:
    write_table(path, {col: [getattr(crown, col) for crown in crowns]
                       for col in _TABLE_COLUMNS})
