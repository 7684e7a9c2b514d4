"""Supervised pixel classifiers and crown labeling.

Two classifiers are provided: a nearest-centroid minimum-distance
classifier and a soft-margin RBF-kernel SVM trained from scratch with
sequential minimal optimization, combined one-vs-one for multiclass.
A model's `index(pixels)` is each row's index in its sorted `species`.
Crowns receive the majority label of their classified pixels.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

import numpy as np

from .errors import DataError, NumericalError
from .geodata import DEFAULT_NODATA, Grid

_KERNEL_BLOCK = 65536   # kernel entries per in-place block, ~512 KiB
_PREDICT_ROWS = 512   # pixels per prediction block


# ---------------------------------------------------------------------------
# Nearest-centroid classifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CentroidModel:
    species: tuple[str, ...]          # sorted
    centroids: np.ndarray             # (n_species, n_features)
    bands: tuple[int, ...]

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.centroids, dtype=np.float64))
        if arr.shape[0] != len(self.species) or len(self.species) < 2:
            raise ValueError("one centroid per species, at least two species")
        arr.flags.writeable = False
        object.__setattr__(self, "centroids", arr)

    def index(self, pixels: np.ndarray) -> np.ndarray:
        """Index of the nearest centroid per row; ties go to the first,
        which is the lexicographically smallest species code."""
        if pixels.shape[1] != self.centroids.shape[1]:
            raise ValueError("pixel dimension does not match the model")
        # one species at a time: no (rows x species x features) temporary
        d2 = np.empty((len(pixels), len(self.centroids)))
        for j, c in enumerate(self.centroids):
            d2[:, j] = ((pixels - c) ** 2).sum(axis=1)
        return np.argmin(d2, axis=1)


def _species_index(labels):
    """(sorted species, index of each label's species in them)."""
    species, index = np.unique(np.asarray(labels), return_inverse=True)
    if len(species) < 2:
        raise DataError("need at least two species to train a classifier")
    return tuple(species.tolist()), index


def train_centroid(pixels: np.ndarray, labels, bands=()) -> CentroidModel:
    """Centroid = arithmetic mean of each species' training pixels."""
    pixels = np.asarray(pixels, dtype=np.float64)
    species, index = _species_index(labels)
    cents = np.stack([pixels[index == i].mean(axis=0)
                      for i in range(len(species))])
    return CentroidModel(species, cents, tuple(bands))


# ---------------------------------------------------------------------------
# SVM with SMO
# ---------------------------------------------------------------------------


@dataclass
class BinarySvm:
    """One one-vs-one problem; decision > 0 votes for `pos`."""

    pos: str
    neg: str
    support_vectors: np.ndarray   # standardized feature rows
    coefficients: np.ndarray      # alpha_i * y_i, |.| <= C
    bias: float
    iterations: int = 0           # SMO pair steps that trained it


@dataclass
class SvmModel:
    species: tuple[str, ...]
    bands: tuple[int, ...]
    scale_mean: np.ndarray
    scale_std: np.ndarray
    gamma: float
    C: float
    pairs: list[BinarySvm]

    @cached_property
    def union(self):
        """(distinct support-vector rows of all pairs, (rows x pairs)
        coefficient matrix, pair biases), derived on first use from the
        trained pairs; it is neither a field nor serialized.

        A training row that several pairs keep is one kernel column,
        so prediction builds one kernel over the union, not one per pair.
        """
        svs = np.concatenate([p.support_vectors for p in self.pairs])
        vectors, inverse = np.unique(svs, axis=0, return_inverse=True)
        column = np.repeat(np.arange(len(self.pairs)),
                           [len(p.coefficients) for p in self.pairs])
        coef = np.zeros((len(vectors), len(self.pairs)))
        np.add.at(coef, (inverse.ravel(), column),
                  np.concatenate([p.coefficients for p in self.pairs]))
        return vectors, coef, np.array([p.bias for p in self.pairs])

    def index(self, pixels: np.ndarray) -> np.ndarray:
        """Species index per row by one-vs-one voting; vote ties break on
        the summed decision margin, residual ties lexicographically."""
        if pixels.shape[1] != self.scale_mean.size:
            raise ValueError("pixel dimension does not match the model")
        scaled = (pixels - self.scale_mean) / self.scale_std
        decisions = _svm_decisions(self, scaled)

        n = len(scaled)
        index = {sp: i for i, sp in enumerate(self.species)}
        votes = np.zeros((n, len(self.species)), dtype=np.int64)
        margin = np.zeros((n, len(self.species)))
        for pair, f in zip(self.pairs, decisions.T):
            ia, ib = index[pair.pos], index[pair.neg]
            pos_wins = f > 0
            votes[pos_wins, ia] += 1
            votes[~pos_wins, ib] += 1
            margin[:, ia] += f
            margin[:, ib] -= f
        return _vote_winner(votes, margin)


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||u - v||^2) for all row pairs.

    One gemm gives a @ b.T; the rest of the formula then runs in place
    on row blocks of about _KERNEL_BLOCK entries, so no temporary of the
    full size is made, in the order and with the values of
    exp(-gamma * max(aa + bb - 2 a.b, 0)) on whole arrays.

    `rbf_kernel(x, x, gamma)` is exactly symmetric: numpy computes
    x @ x.T with one triangle mirrored, and the other terms commute.
    """
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    k = a @ b.T
    rows = max(1, _KERNEL_BLOCK // max(1, len(b)))
    for start in range(0, len(a), rows):
        block = k[start:start + rows]
        block *= 2.0
        np.subtract(aa[start:start + rows] + bb, block, out=block)
        np.maximum(block, 0.0, out=block)
        block *= -gamma
        np.exp(block, out=block)
    return k


def smo_solve(K: np.ndarray, y: np.ndarray, C: float, tol: float = 1e-3,
              max_iter: int = 200_000, raise_on_limit: bool = True,
              counts: dict | None = None):
    """Solve the soft-margin SVM dual by SMO on the maximal
    KKT-violating pair, maintaining the dual gradient.

    K must be exactly symmetric, as `rbf_kernel(x, x, gamma)` is: the
    gradient update reads kernel rows, which are contiguous, in place of
    the columns the formula names. The loop keeps yg = -y * grad, not
    the gradient itself; since every y is +1 or -1, its update
    yg -= step * (K[i] - K[j]) rounds exactly as the gradient's would.

    Returns (alpha, bias). Stops when the violation gap drops to tol; a
    gap still above tol after max_iter pair steps raises unless
    raise_on_limit is off, in which case the current iterate is returned
    (each pair step takes the analytic subproblem optimum, so the dual
    objective never decreases). A dict passed as `counts` gets the
    number of pair steps as "iterations".
    """
    n = len(y)
    alpha = np.zeros(n)
    yg = np.array(y, dtype=np.float64)  # -y * grad at a = 0, where grad = -1
    pos = y > 0
    # up (low): alpha may grow (shrink) along its label; the scores are
    # yg there and -inf (+inf) elsewhere
    up = (pos & (alpha < C)) | (~pos & (alpha > 0))
    low = (pos & (alpha > 0)) | (~pos & (alpha < C))
    up_scores = np.where(up, yg, -np.inf)
    low_scores = np.where(low, yg, np.inf)
    diff = np.empty(n)
    # the step loop reads its scalars from lists: indexing a list is
    # cheaper than making a numpy scalar, and the arithmetic is the same
    alpha = alpha.tolist()
    y_of = yg.tolist()
    pos_of = pos.tolist()
    k_diag = K.diagonal().tolist()

    iterations = 0
    while True:
        i = int(up_scores.argmax())
        j = int(low_scores.argmin())
        m_up = float(up_scores[i])
        m_low = float(low_scores[j])
        if m_up - m_low <= tol:
            break
        if iterations == max_iter:
            if raise_on_limit:
                raise NumericalError("SMO did not converge; raise max_iter "
                                     "or tol")
            break
        iterations += 1

        eta = max(k_diag[i] + k_diag[j] - 2.0 * float(K[i, j]), 1e-12)
        step = (m_up - m_low) / eta
        a_i, a_j = alpha[i], alpha[j]
        step = min(step,
                   (C - a_i) if pos_of[i] else a_i,
                   a_j if pos_of[j] else (C - a_j))
        a_i = min(max(a_i + y_of[i] * step, 0.0), C)   # guard drift at the
        a_j = min(max(a_j - y_of[j] * step, 0.0), C)   # box boundary
        alpha[i], alpha[j] = a_i, a_j
        np.subtract(K[i], K[j], out=diff)
        diff *= step
        yg -= diff
        up_scores -= diff      # the infinities stay as they are
        low_scores -= diff
        for t, a in ((i, a_i), (j, a_j)):
            p = pos_of[t]
            up_scores[t] = yg[t] if (a < C if p else a > 0) else -np.inf
            low_scores[t] = yg[t] if (a > 0 if p else a < C) else np.inf

    alpha = np.array(alpha)
    if counts is not None:
        counts["iterations"] = iterations
    free = (alpha > 1e-10 * C) & (alpha < C * (1.0 - 1e-10))
    if free.any():
        bias = float(yg[free].mean())
    else:
        bias = float((m_up + m_low) / 2.0) if np.isfinite(m_up + m_low) else 0.0
    return alpha, bias


def train_svm(pixels: np.ndarray, labels, C: float = 10.0,
              gamma: float | None = None, bands=(), tol: float = 1e-3):
    """One-vs-one RBF SVMs over all species pairs; returns the SvmModel.

    Features are standardized per band with the training mean/std
    (stored in the model). gamma defaults to 1 / n_features.
    """
    pixels = np.asarray(pixels, dtype=np.float64)
    species, index = _species_index(labels)
    if not 0 < C < np.inf:
        raise ValueError("C must be finite and > 0")
    if gamma is None:
        gamma = 1.0 / pixels.shape[1]
    if not 0 < gamma < np.inf:
        raise ValueError("gamma must be finite and > 0")

    mean = pixels.mean(axis=0)
    std = pixels.std(axis=0)
    std = np.where(std > 0, std, 1.0)
    scaled = (pixels - mean) / std

    pairs = []
    for a, b in combinations(range(len(species)), 2):
        sel = (index == a) | (index == b)
        x = scaled[sel]
        y = np.where(index[sel] == a, 1.0, -1.0)
        counts = {}
        alpha, bias = smo_solve(rbf_kernel(x, x, gamma), y, C, tol=tol,
                                counts=counts)
        keep = alpha > 1e-10 * C
        pairs.append(BinarySvm(species[a], species[b], x[keep],
                               alpha[keep] * y[keep], bias,
                               counts["iterations"]))
    return SvmModel(species, tuple(bands), mean, std, gamma, C, pairs)


def _svm_decisions(model: SvmModel, scaled_pixels: np.ndarray) -> np.ndarray:
    """(rows x pairs) decision values: one kernel over the support-vector
    union and one gemm, in place of one kernel per pair."""
    vectors, coef, bias = model.union
    decisions = rbf_kernel(scaled_pixels, vectors, model.gamma) @ coef
    decisions += bias
    return decisions


def _vote_winner(votes: np.ndarray, margin: np.ndarray) -> np.ndarray:
    """Per row: most votes, then largest margin, then first sorted species."""
    top = votes == votes.max(axis=1, keepdims=True)
    top_margin = np.where(top, margin, -np.inf).max(axis=1, keepdims=True)
    return np.argmax(top & (margin == top_margin), axis=1)


# ---------------------------------------------------------------------------
# Image classification and crown labeling
# ---------------------------------------------------------------------------


def classify_image(cube, model, mask: np.ndarray | None = None):
    """Per-pixel prediction over masked pixels.

    `cube` is a `CubeFile` view, normalized or not; only the model's
    bands are read from it, once each, in the model's order, and only
    the masked pixels are kept. `mask`, a boolean (rows, cols) array,
    marks the active pixels; inactive or NaN pixels become nodata.
    Returns (label Grid, the model's sorted species): a classified pixel
    holds the code index + 1 of its species, so code c is species[c - 1].
    Pixels are predicted in blocks of _PREDICT_ROWS rows.
    """
    shape = (cube.nrows, cube.ncols)
    if mask is None:
        mask = np.ones(shape, dtype=bool)
    elif mask.shape != shape:
        raise DataError("mask is not aligned with the cube")
    flat, pixels = cube.gather(np.flatnonzero(mask), model.bands)
    out = np.full(mask.size, DEFAULT_NODATA)
    for start in range(0, len(flat), _PREDICT_ROWS):
        block = slice(start, start + _PREDICT_ROWS)
        out[flat[block]] = model.index(pixels[block]) + 1
    return (Grid(out.reshape(shape), cube.xll, cube.yll, cube.cellsize),
            model.species)


def label_crowns_majority(label_grid: Grid, species, crowns,
                          owner: np.ndarray):
    """Most frequent classified species inside each crown.

    `label_grid` and `species` are as `classify_image` returns them:
    code c is species[c - 1], and every valid cell holds a code in
    1..len(species). Ties go to the first, lexicographically smallest
    species; crowns of the `owner` raster (from grow_crowns) with no
    classified pixel stay unset and are reported. Mutates species_code
    in place; returns unlabeled ids.
    """
    sel = (owner > 0) & label_grid.valid_mask()
    n_ids, n = int(owner.max()) + 1, len(species)
    index = label_grid.values[sel].astype(np.intp) - 1
    counts = np.bincount(owner[sel].astype(np.intp) * n + index,
                         minlength=n_ids * n).reshape(n_ids, n)
    for crown in crowns:
        row = counts[crown.crown_id]
        crown.species_code = species[int(np.argmax(row))] if row.any() else None
    return [crown.crown_id for crown in crowns if crown.species_code is None]


# ---------------------------------------------------------------------------
# Model serialization (versioned text format)
# ---------------------------------------------------------------------------

_MODEL_MAGIC = "forestinv-model 1"


def save_model(model, path) -> None:
    if isinstance(model, CentroidModel):
        kind, width = "centroid", model.centroids.shape[1]
    elif isinstance(model, SvmModel):
        kind, width = "svm", model.scale_mean.size
    else:
        raise ValueError(f"cannot serialize {type(model).__name__}")
    # "%.17g" % v is byte-identical to format(float(v), ".17g")
    row = " ".join(["%.17g"] * width)
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"{_MODEL_MAGIC}\ntype {kind}\n")
        f.write("bands " + ",".join(str(b) for b in model.bands) + "\n")
        f.write("species " + ",".join(model.species) + "\n")
        if kind == "centroid":
            for sp, cent in zip(model.species, model.centroids.tolist()):
                f.write(f"centroid {sp} " + row % tuple(cent) + "\n")
            return
        f.write(f"gamma {model.gamma:.17g}\n")
        f.write(f"cost {model.C:.17g}\n")
        f.write("scale_mean " + row % tuple(model.scale_mean.tolist()) + "\n")
        f.write("scale_std " + row % tuple(model.scale_std.tolist()) + "\n")
        sv_line = "sv %.17g " + row + "\n"
        for pair in model.pairs:
            f.write(f"pair {pair.pos} {pair.neg} {pair.bias:.17g} "
                    f"{len(pair.coefficients)}\n")
            for coef, sv in zip(pair.coefficients.tolist(),
                                pair.support_vectors.tolist()):
                f.write(sv_line % (coef, *sv))
