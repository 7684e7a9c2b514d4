"""Hyperspectral preparation and band selection.

Pixels are normalized by their own spectral mean, per-species Gaussian
statistics are estimated over training-crown pixels, and a suboptimal
band subset is searched with sequential floating forward selection
driven by the Jeffries-Matusita separability between species pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .errors import DataError, NumericalError
from .geodata import FLOAT_FORMAT, CubeFile

RIDGE_SCALE = 1e-6
RIDGE_FLOOR = 1e-9
MIN_CLASS_PIXELS = 2        # a covariance needs two samples
MAX_SFFS_ROUNDS = 10000     # inclusion rounds before SFFS gives up
_JM_SUBSETS = 16            # band subsets per batched JM evaluation


@dataclass(frozen=True)
class GaussianClassStats:
    """Per-species sample mean and ridge-regularized covariance."""

    species_code: str
    n_samples: int
    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = np.ascontiguousarray(np.asarray(self.mean, dtype=np.float64))
        cov = np.ascontiguousarray(np.asarray(self.covariance, dtype=np.float64))
        if mean.ndim != 1 or cov.shape != (mean.size, mean.size):
            raise ValueError("mean must be a vector and covariance a matching "
                             "square matrix")
        if self.n_samples < 2:
            raise ValueError("need n_samples >= 2")
        if not np.allclose(cov, cov.T, atol=1e-10):
            raise ValueError("covariance must be symmetric")
        mean.flags.writeable = False
        cov.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dim(self) -> int:
        return self.mean.size


@dataclass(frozen=True)
class BandSelection:
    indices: tuple[int, ...]
    criterion_value: float
    # distinct band subsets the search had scored when it found this one
    evaluations: int = field(default=0, compare=False)

    def __post_init__(self):
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("band indices must be unique")


def trim_bands(cube: CubeFile, drop_head: int, drop_tail: int) -> CubeFile:
    """Drop noisy leading and trailing bands; reads no sample."""
    if drop_head < 0 or drop_tail < 0:
        raise ValueError("drops must be >= 0")
    if drop_head + drop_tail >= cube.nbands:
        raise DataError(f"cannot drop {drop_head}+{drop_tail} bands from a "
                        f"{cube.nbands}-band cube")
    return cube.bands(drop_head, cube.nbands - drop_tail)


def normalize_spectrum(cube: CubeFile) -> tuple[CubeFile, int]:
    """Divide every pixel by its own spectral mean.

    Normalized pixels have spectral mean 1, so the operation is
    idempotent and insensitive to per-pixel illumination scaling.
    Pixels whose mean is 0 (or not finite) become NaN; their count is
    returned alongside the normalized view, which is `cube` with the
    grid of means added to its divisors, NaN at those pixels.

    The bands are read once and added in band order into one grid, so
    the means are bit for bit those of `samples.mean(axis=0)` while no
    more than one band is held beside the sum.
    """
    means = np.zeros((cube.nrows, cube.ncols))
    for i in range(cube.nbands):
        means += cube.band(i)
    means /= cube.nbands
    bad = ~np.isfinite(means) | (means == 0.0)
    means[bad] = np.nan
    means.flags.writeable = False
    return replace(cube, divisors=(*cube.divisors, means)), int(bad.sum())


def class_statistics(spectra_by_species: dict[str, np.ndarray]):
    """Mean and unbiased covariance per species over its spectra.

    `spectra_by_species` maps species code to an (n, bands) array of
    that species' valid training spectra. Covariances get a ridge of
    RIDGE_SCALE * trace/dim (floored at RIDGE_FLOOR) so later
    inversions stay well-posed even for tiny classes. Species with
    fewer than MIN_CLASS_PIXELS spectra are skipped and reported.

    Returns (list of GaussianClassStats sorted by species code,
    skipped species codes).
    """
    stats = []
    skipped = []
    for species in sorted(spectra_by_species):
        pix = np.asarray(spectra_by_species[species], dtype=np.float64)
        if len(pix) < MIN_CLASS_PIXELS:
            skipped.append(species)
            continue
        mean = pix.mean(axis=0)
        centered = pix - mean
        cov = centered.T @ centered / (len(pix) - 1)
        cov = 0.5 * (cov + cov.T)
        stats.append(GaussianClassStats(species, len(pix), mean,
                                        ridge_regularize(cov)))
    return stats, skipped


def ridge_regularize(cov: np.ndarray) -> np.ndarray:
    dim = cov.shape[0]
    eps = max(RIDGE_FLOOR, RIDGE_SCALE * float(np.trace(cov)) / dim)
    return cov + eps * np.eye(dim)


def _pairwise_jm(means: np.ndarray, covs: np.ndarray) -> list[list[float]]:
    """Jeffries-Matusita distance 2 * (1 - exp(-B)) of every class pair
    i < j of each of n band subsets, from stacked (n, S, k) means and
    (n, S, k, k) covariances; one list of pair values per subset. B, the
    Bhattacharyya distance, is one eighth of the Mahalanobis term under
    the averaged covariance plus half the log-ratio of the averaged
    determinant to the geometric mean of the two determinants. The
    LAPACK calls and the Mahalanobis dot products are batched; numpy's
    batched `solve` and `slogdet` call LAPACK once per matrix, and a
    stacked (1, k) @ (k, 1) matmul rounds as the per-pair `diff @ sol`
    does, so each value is bit-identical per pair. `math.exp` stays per
    value: `np.exp` rounds differently.
    """
    first, second = map(list, zip(*combinations(range(means.shape[1]), 2)))
    diffs = means[:, first] - means[:, second]
    mids = 0.5 * (covs[:, first] + covs[:, second])
    try:
        solved = np.linalg.solve(mids, diffs[..., None])
    except np.linalg.LinAlgError:
        raise NumericalError("singular mid-covariance in JM distance") from None
    sign_mid, logdet_mid = np.linalg.slogdet(mids)
    sign_cov, logdet_cov = np.linalg.slogdet(covs)
    if (sign_mid <= 0).any() or (sign_cov <= 0).any():
        raise NumericalError("non-positive-definite covariance in JM distance")
    pairs = list(zip(first, second))
    out = []
    quads = (diffs[..., None, :] @ solved)[..., 0, 0]
    for row, lmid, lcov in zip(quads.tolist(), logdet_mid.tolist(),
                               logdet_cov.tolist()):
        values = []
        for quad, logmid, (i, j) in zip(row, lmid, pairs):
            logterm = 0.5 * (logmid - 0.5 * (lcov[i] + lcov[j]))
            bhatt = max(0.0, 0.125 * quad + logterm)
            values.append(min(2.0, 2.0 * (1.0 - math.exp(-bhatt))))
        out.append(values)
    return out


def jm_distance(a: GaussianClassStats, b: GaussianClassStats) -> float:
    """Jeffries-Matusita distance between two classes on all their bands."""
    return jm_criterion([a, b], range(a.dim))


def jm_criterion(stats, indices, aggregate: str = "mean") -> float:
    """Aggregate pairwise JM over all species pairs on a band subset."""
    return _Criterion(stats, aggregate).scores([tuple(sorted(indices))])[0]


class _Criterion:
    """The JM criterion of one set of class statistics: every subset is
    scored once, and the unscored subsets of one call are scored in
    batches of _JM_SUBSETS."""

    def __init__(self, stats, aggregate: str):
        if len(stats) < 2:
            raise DataError("need at least two species")
        if len({s.dim for s in stats}) != 1:
            raise ValueError("class statistics have mismatched dimensions")
        if aggregate not in ("mean", "min"):
            raise ValueError(f"unknown aggregate {aggregate!r}")
        self.reduce = np.mean if aggregate == "mean" else np.min
        self.means = np.stack([s.mean for s in stats])         # (S, dim)
        self.covs = np.stack([s.covariance for s in stats])    # (S, dim, dim)
        self.memo: dict[tuple[int, ...], float] = {}

    def scores(self, subsets) -> list[float]:
        """The score of each subset, a sorted band-index tuple; all
        subsets have one size. The unscored ones are scored in chunks
        of _JM_SUBSETS, so the stacked matrices stay a fixed size."""
        new = [s for s in subsets if s not in self.memo]
        for start in range(0, len(new), _JM_SUBSETS):
            chunk = new[start:start + _JM_SUBSETS]
            idx = np.array(chunk, dtype=np.intp)
            values = _pairwise_jm(
                self.means[:, idx].transpose(1, 0, 2),
                self.covs[:, idx[:, :, None], idx[:, None, :]]
                .transpose(1, 0, 2, 3))
            for subset, pair_values in zip(chunk, values):
                self.memo[subset] = float(self.reduce(pair_values))
        return [self.memo[s] for s in subsets]

    def best(self, bands, subsets):
        """(band, score) of the best-scoring subset, where subsets[i]
        goes with bands[i]; ties keep the first band."""
        best_band, best_score = None, -np.inf
        for band, score in zip(bands, self.scores(subsets)):
            if score > best_score:
                best_band, best_score = band, score
        return best_band, best_score

    def include(self, current, pool):
        """Best band of `pool` to add to `current`."""
        bands = [b for b in pool if b not in current]
        return self.best(bands, [tuple(sorted(current + [b])) for b in bands])

    def exclude(self, current):
        """Best band of `current` to drop."""
        bands = sorted(current)
        return self.best(bands, [tuple(b for b in bands if b != band)
                                 for band in bands])


def _forward(criterion: _Criterion, pool, k: int) -> list[BandSelection]:
    chosen: list[int] = []
    out = []
    for _ in range(k):
        best_band, best_score = criterion.include(chosen, pool)
        chosen.append(best_band)
        out.append(BandSelection(tuple(sorted(chosen)), best_score,
                                 len(criterion.memo)))
    return out


def forward_select(stats, k: int, candidates=None,
                   aggregate: str = "mean") -> list[BandSelection]:
    """Plain sequential forward selection; returns the best subset found
    at every size 1..k (used to seed the floating search)."""
    pool = list(range(stats[0].dim)) if candidates is None else sorted(candidates)
    return _forward(_Criterion(stats, aggregate), pool, k)


def sffs_select(stats, k: int, candidates=None,
                aggregate: str = "mean") -> BandSelection:
    """Sequential floating forward selection of k bands.

    A plain forward pass seeds the best-known subset per size, then the
    floating phase alternates greedy inclusion with conditional
    exclusions that are accepted only when they strictly improve the
    best-known score at the smaller size. Deterministic: criterion ties
    always resolve to the lowest band index. Returns the best subset of
    size k encountered, which by construction scores at least as high
    as plain forward selection. Subsets are scored by the scorer behind
    `jm_criterion`, each step's candidates in batches of _JM_SUBSETS
    and no subset twice, so every score equals the `jm_criterion` value
    of its subset.
    """
    if k <= 0:
        raise ValueError("k must be >= 1")
    criterion = _Criterion(stats, aggregate)
    pool = list(range(stats[0].dim)) if candidates is None else sorted(candidates)
    if k > len(pool):
        raise ValueError(f"k={k} exceeds the {len(pool)} candidate bands")

    best: dict[int, tuple[float, tuple[int, ...]]] = {}
    for sel in _forward(criterion, pool, k):
        best[len(sel.indices)] = (sel.criterion_value, sel.indices)

    current = list(best[min(2, k)][1])
    for _ in range(MAX_SFFS_ROUNDS):
        if len(current) >= k:
            score, subset = best[k]
            return BandSelection(subset, score, len(criterion.memo))

        # inclusion
        best_band, best_score = criterion.include(current, pool)
        current.append(best_band)
        size = len(current)
        if size not in best or best_score > best[size][0]:
            best[size] = (best_score, tuple(sorted(current)))

        # conditional exclusion
        while len(current) > 2:
            best_drop, best_drop_score = criterion.exclude(current)
            smaller = len(current) - 1
            if best_drop_score > best[smaller][0]:
                current.remove(best_drop)
                best[smaller] = (best_drop_score, tuple(sorted(current)))
            else:
                break

    raise NumericalError("floating selection did not settle")


def write_band_selection(selection: BandSelection, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("indices," + ",".join(str(i) for i in selection.indices) + "\n")
        f.write(f"criterion,{FLOAT_FORMAT % selection.criterion_value}\n")
