import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import forestinv.classify as classify_mod
from forestinv.classify import (
    _KERNEL_BLOCK,
    BinarySvm,
    CentroidModel,
    SvmModel,
    _vote_winner,
    classify_image,
    label_crowns_majority,
    rbf_kernel,
    save_model,
    smo_solve,
    train_centroid,
    train_svm,
)
from forestinv.crowns import CrownRecord
from forestinv.errors import DataError, NumericalError
from forestinv.geodata import CubeFile, Grid
from forestinv.spectral import normalize_spectrum


def blobs(seed=0, centers=((0.0, 0.0), (5.0, 5.0)), n=20, radius=0.5):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for label, center in enumerate(centers):
        pts = rng.normal(0, radius / 2, (n, 2)) + np.asarray(center)
        xs.append(pts)
        ys.extend([f"S{label}"] * n)
    return np.vstack(xs), np.array(ys)


def kkt_violations(K, y, alpha, bias, C):
    """Independent audit of the soft-margin optimality conditions."""
    f = K @ (alpha * y) + bias
    yf = y * f
    v = np.zeros(len(y))
    at_zero = alpha <= 1e-9 * C
    at_c = alpha >= C * (1 - 1e-9)
    free = ~at_zero & ~at_c
    v[at_zero] = np.maximum(0.0, 1.0 - yf[at_zero])
    v[free] = np.abs(1.0 - yf[free])
    v[at_c] = np.maximum(0.0, yf[at_c] - 1.0)
    return v


def duality_gap(K, y, alpha, C):
    w2 = alpha * y @ K @ (alpha * y)
    # primal bias that matches the dual solution
    grad_based_f = K @ (alpha * y)
    free = (alpha > 1e-9 * C) & (alpha < C * (1 - 1e-9))
    bias = float(np.mean(y[free] - grad_based_f[free])) if free.any() else 0.0
    hinge = np.maximum(0.0, 1.0 - y * (grad_based_f + bias)).sum()
    primal = 0.5 * w2 + C * hinge
    dual = alpha.sum() - 0.5 * w2
    return primal - dual, primal


def reference_decision(model, pair, scaled_pixels):
    """One pair's decision values from its own support vectors."""
    k = rbf_kernel(scaled_pixels, pair.support_vectors, model.gamma)
    return k @ pair.coefficients + pair.bias


def reference_rbf_kernel(a, b, gamma):
    """The kernel formula on whole arrays."""
    aa = (a * a).sum(axis=1)[:, None]
    bb = (b * b).sum(axis=1)[None, :]
    return np.exp(-gamma * np.maximum(aa + bb - 2.0 * (a @ b.T), 0.0))


def reference_smo_solve(K, y, C, tol=1e-3, max_iter=200_000):
    """SMO as first written: the gradient update reads kernel columns,
    and the state after max_iter steps is returned."""
    n = len(y)
    alpha = np.zeros(n)
    grad = -np.ones(n)
    pos = y > 0
    for _ in range(max_iter):
        yg = -y * grad
        up = (pos & (alpha < C)) | (~pos & (alpha > 0))
        low = (pos & (alpha > 0)) | (~pos & (alpha < C))
        up_scores = np.where(up, yg, -np.inf)
        low_scores = np.where(low, yg, np.inf)
        i = int(np.argmax(up_scores))
        j = int(np.argmin(low_scores))
        m_up = up_scores[i]
        m_low = low_scores[j]
        if m_up - m_low <= tol:
            break
        eta = max(K[i, i] + K[j, j] - 2.0 * K[i, j], 1e-12)
        step = (m_up - m_low) / eta
        step = min(step,
                   (C - alpha[i]) if y[i] > 0 else alpha[i],
                   alpha[j] if y[j] > 0 else (C - alpha[j]))
        alpha[i] += y[i] * step
        alpha[j] -= y[j] * step
        alpha[i] = min(max(alpha[i], 0.0), C)
        alpha[j] = min(max(alpha[j], 0.0), C)
        grad += step * y * (K[:, i] - K[:, j])
    else:
        yg = -y * grad
        m_up = np.where((pos & (alpha < C)) | (~pos & (alpha > 0)),
                        yg, -np.inf).max()
        m_low = np.where((pos & (alpha > 0)) | (~pos & (alpha < C)),
                         yg, np.inf).min()
    free = (alpha > 1e-10 * C) & (alpha < C * (1.0 - 1e-10))
    yg = -y * grad
    if free.any():
        bias = float(yg[free].mean())
    else:
        bias = float((m_up + m_low) / 2.0) if np.isfinite(m_up + m_low) else 0.0
    return alpha, bias


def overlapping_pair(seed):
    """Two labelled Gaussian clouds whose overlap varies with the seed."""
    rng = np.random.default_rng(seed)
    n, d = int(rng.integers(2, 120)), int(rng.integers(1, 9))
    x = rng.normal(0, 1, (n, d))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    y[0], y[-1] = 1.0, -1.0
    x += y[:, None] * rng.uniform(0, 2)
    return x, y, rng


class TestSmoRowAccess:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_kernel_of_a_set_with_itself_is_symmetric(self, seed):
        x, _, rng = overlapping_pair(seed)
        K = rbf_kernel(x, x, gamma=float(rng.uniform(0.01, 5.0)))
        assert np.array_equal(K, K.T)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_matches_column_access_reference(self, seed):
        x, y, rng = overlapping_pair(seed)
        K = rbf_kernel(x, x, gamma=float(rng.uniform(0.01, 5.0)))
        C = float(10.0 ** rng.uniform(-1, 2))
        counts = {}
        alpha, bias = smo_solve(K, y, C, tol=1e-3, counts=counts)
        ref_alpha, ref_bias = reference_smo_solve(K, y, C, tol=1e-3)
        assert np.array_equal(alpha, ref_alpha)
        assert bias == ref_bias
        # capped before convergence, the iterate so far is returned
        cap = int(rng.integers(0, counts["iterations"] + 1))
        alpha, bias = smo_solve(K, y, C, tol=1e-3, max_iter=cap,
                                raise_on_limit=False)
        ref_alpha, ref_bias = reference_smo_solve(K, y, C, tol=1e-3,
                                                  max_iter=cap)
        assert np.array_equal(alpha, ref_alpha)
        assert bias == ref_bias

    def test_iteration_count(self):
        x, y, _ = overlapping_pair(3)
        K = rbf_kernel(x, x, gamma=0.5)
        counts = {}
        smo_solve(K, y, 10.0, counts=counts)
        steps = counts["iterations"]
        assert steps > 0
        smo_solve(K, y, 10.0, max_iter=steps)
        with pytest.raises(NumericalError, match="did not converge"):
            smo_solve(K, y, 10.0, max_iter=steps - 1)


class TestBlockedKernel:
    @pytest.mark.parametrize("n_a, n_b", [
        (1, 1), (5, 1), (_KERNEL_BLOCK + 1, 1),
        (_KERNEL_BLOCK // 7 - 1, 7), (_KERNEL_BLOCK // 7, 7),
        (_KERNEL_BLOCK // 7 + 1, 7), (2 * (_KERNEL_BLOCK // 7) + 3, 7),
        (3, _KERNEL_BLOCK + 5), (300, 300),
    ])
    def test_equals_whole_array_formula(self, n_a, n_b):
        rng = np.random.default_rng(n_a * 31 + n_b)
        a = rng.normal(0, 1, (n_a, 4))
        b = rng.normal(0, 1, (n_b, 4))
        b[0] = a[0]  # a zero distance
        gamma = float(rng.uniform(0.05, 2.0))
        assert np.array_equal(rbf_kernel(a, b, gamma),
                              reference_rbf_kernel(a, b, gamma))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_a_set_with_itself(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(0, 1, (int(rng.integers(1, 700)),
                              int(rng.integers(1, 20))))
        gamma = float(rng.uniform(0.01, 5.0))
        assert np.array_equal(rbf_kernel(x, x, gamma),
                              reference_rbf_kernel(x, x, gamma))


class TestSmo:
    def test_separable_blobs_kkt_and_gap(self):
        x, labels = blobs()
        y = np.where(labels == "S0", 1.0, -1.0)
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        K = rbf_kernel(x, x, gamma=0.5)
        alpha, bias = smo_solve(K, y, C=10.0, tol=1e-3)
        pred = np.sign(K @ (alpha * y) + bias)
        assert (pred == y).all()
        assert kkt_violations(K, y, alpha, bias, 10.0).max() <= 1e-3
        gap, primal = duality_gap(K, y, alpha, 10.0)
        assert gap <= 1e-2 * abs(primal)

    def test_xor_layout(self):
        rng = np.random.default_rng(1)
        centers = [(0, 0, 1.0), (5, 5, 1.0), (0, 5, -1.0), (5, 0, -1.0)]
        pts, ys = [], []
        for cx, cy, label in centers:
            p = rng.normal(0, 0.25, (15, 2)) + [cx, cy]
            pts.append(p)
            ys.extend([label] * 15)
        x = np.vstack(pts)
        y = np.array(ys)
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        K = rbf_kernel(x, x, gamma=1.0)
        alpha, bias = smo_solve(K, y, C=10.0, tol=1e-3)
        pred = np.sign(K @ (alpha * y) + bias)
        assert (pred == y).all()
        assert kkt_violations(K, y, alpha, bias, 10.0).max() <= 1e-3

    def test_dual_objective_never_decreases(self):
        # the solver is deterministic, so capping the iteration count
        # replays the same trajectory prefix; sweep the cap and check
        # the dual objective after each step
        x, labels = blobs(seed=21, n=12)
        y = np.where(labels == "S0", 1.0, -1.0)
        x = (x - x.mean(axis=0)) / x.std(axis=0)
        K = rbf_kernel(x, x, gamma=0.5)

        def dual(alpha):
            ay = alpha * y
            return alpha.sum() - 0.5 * float(ay @ K @ ay)

        prev = -np.inf
        for cap in range(1, 60):
            alpha, _ = smo_solve(K, y, C=10.0, tol=1e-12, max_iter=cap,
                                 raise_on_limit=False)
            cur = dual(alpha)
            assert cur >= prev - 1e-12
            prev = cur


class TestCentroid:
    def test_mean_centroid(self):
        model = train_centroid(np.array([[0.0, 0.0], [2.0, 0.0],
                                         [10.0, 10.0]]),
                               ["A", "A", "B"])
        np.testing.assert_allclose(model.centroids[0], [1.0, 0.0])

    def test_single_pixel_class(self):
        model = train_centroid(np.array([[1.0, 2.0], [5.0, 5.0]]), ["A", "B"])
        np.testing.assert_allclose(model.centroids[0], [1.0, 2.0])

    def test_translation_equivariance(self):
        x, labels = blobs(seed=2)
        v = np.array([3.3, -1.7])
        m1 = train_centroid(x, labels)
        m2 = train_centroid(x + v, labels)
        np.testing.assert_allclose(m2.centroids, m1.centroids + v, atol=1e-12)

    def test_predict_nearest(self):
        model = CentroidModel(("A", "B"),
                              np.array([[0.0, 0.0], [10.0, 10.0]]), ())
        assert model.index(np.array([1.0, 1.0])[None])[0] == 0

    def test_tie_lexicographic(self):
        model = CentroidModel(("A", "B"),
                              np.array([[0.0, 0.0], [2.0, 0.0]]), ())
        assert model.index(np.array([1.0, 0.0])[None])[0] == 0

    def test_pixel_equal_to_centroid(self):
        model = CentroidModel(("A", "B"),
                              np.array([[0.0, 1.0], [5.0, 5.0]]), ())
        assert model.index(np.array([5.0, 5.0])[None])[0] == 1

    @pytest.mark.parametrize("features", [1, 3, 8, 35])
    def test_index_equals_the_broadcast_formula(self, features):
        """Distances taken one species at a time pick, bit for bit, the
        centroid the (rows x species x features) broadcast picked, ties
        included: integer-valued pixels tie exactly. Both C- and
        Fortran-ordered blocks are checked."""
        rng = np.random.default_rng(features)
        centroids = rng.integers(-2, 3, (5, features)).astype(float)
        centroids[4] = centroids[2]
        pixels = np.vstack([rng.integers(-3, 4, (500, features)),
                            rng.normal(0.0, 2.0, (500, features))])
        model = CentroidModel(tuple("ABCDE"), centroids, ())
        for block in (pixels, np.asfortranarray(pixels)):
            d2 = ((block[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
            assert ((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1).any()
            np.testing.assert_array_equal(
                model.index(block),
                np.argmin(d2, axis=1))

    def test_rescaling_invariance(self):
        x, labels = blobs(seed=3)
        model = train_centroid(x, labels)
        probe = np.array([[1.0, 2.0], [4.0, 4.5]])
        base = model.index(probe)
        scaled = CentroidModel(model.species, model.centroids * 2.5, ())
        again = scaled.index(probe * 2.5)
        assert (base == again).all()


class TestSvmMulticlass:
    def test_training_accuracy_three_classes(self):
        x, labels = blobs(seed=4, centers=((0, 0), (5, 5), (0, 6)))
        model = train_svm(x, labels, C=10.0)
        assert (np.asarray(model.species)[model.index(x)] == labels).all()

    def test_two_class_reduces_to_binary_sign(self):
        x, labels = blobs(seed=5)
        model = train_svm(x, labels, C=10.0)
        assert len(model.pairs) == 1
        pair = model.pairs[0]
        scaled = (x - model.scale_mean) / model.scale_std
        f = reference_decision(model, pair, scaled)
        by_sign = np.where(f > 0, pair.pos, pair.neg)
        assert (np.asarray(model.species)[model.index(x)] == by_sign).all()

    def test_support_sample_deep_in_cluster(self):
        x, labels = blobs(seed=6)
        model = train_svm(x, labels, C=10.0)
        inside = x[labels == "S0"][0]
        assert model.species[model.index(inside[None])[0]] == "S0"

    def test_duplicating_samples_leaves_decision_unchanged(self):
        x, labels = blobs(seed=7)
        m1 = train_svm(x, labels, C=10.0, tol=1e-8)
        m2 = train_svm(np.vstack([x, x]), np.concatenate([labels, labels]),
                       C=10.0, tol=1e-8)
        rng = np.random.default_rng(8)
        probe = rng.uniform(-1, 6, (40, 2))
        f1 = reference_decision(m1, m1.pairs[0],
                                (probe - m1.scale_mean) / m1.scale_std)
        f2 = reference_decision(m2, m2.pairs[0],
                                (probe - m2.scale_mean) / m2.scale_std)
        np.testing.assert_allclose(f1, f2, atol=1e-6)

    def test_deterministic_predictions(self):
        x, labels = blobs(seed=9, centers=((0, 0), (4, 4), (0, 4)))
        model = train_svm(x, labels, C=10.0)
        rng = np.random.default_rng(10)
        probe = rng.uniform(-1, 5, (25, 2))
        a = model.index(probe)
        b = model.index(probe)
        assert (a == b).all()

    def test_needs_two_species(self):
        with pytest.raises(DataError):
            train_svm(np.zeros((3, 2)), ["A", "A", "A"])


class TestClassifyImage:
    def _scene(self, cube_from, seed=11, noise=0.02):
        rng = np.random.default_rng(seed)
        signatures = {"A": [1.0, 0.2, 0.2], "B": [0.2, 1.0, 0.2],
                      "C": [0.2, 0.2, 1.0]}
        truth = rng.choice(list("ABC"), size=(20, 20))
        arr = np.zeros((3, 20, 20))
        for sp, sig in signatures.items():
            sel = truth == sp
            arr[:, sel] = np.asarray(sig)[:, None]
        arr += rng.normal(0, noise, arr.shape)
        return cube_from(arr), truth, signatures

    def test_accuracy_against_generator_truth(self, cube_from):
        cube, truth, signatures = self._scene(cube_from)
        rng = np.random.default_rng(12)
        train_px, train_labels = [], []
        for sp, sig in signatures.items():
            train_px.append(np.asarray(sig) + rng.normal(0, 0.02, (30, 3)))
            train_labels.extend([sp] * 30)
        model = train_svm(np.vstack(train_px), train_labels, C=10.0,
                          bands=(0, 1, 2))
        labels, species = classify_image(cube, model)
        assert species == model.species
        assert set(np.unique(labels.values)) <= {1, 2, 3}
        pred = np.asarray(species)[labels.values.astype(int) - 1]
        accuracy = (pred == truth).mean()
        assert accuracy >= 0.99

    def test_all_nodata_mask(self, cube_from):
        cube, _, _ = self._scene(cube_from)
        mask = np.zeros((20, 20), dtype=bool)
        model = CentroidModel(("A", "B"),
                              np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]),
                              (0, 1, 2))
        labels, _ = classify_image(cube, model, mask=mask)
        assert (labels.values == labels.nodata).all()

    def test_pixelwise_purity(self, cube_from, monkeypatch):
        cube, _, _ = self._scene(cube_from)
        model = CentroidModel(("A", "B"),
                              np.array([[1.0, 0.2, 0.2], [0.2, 1.0, 0.2]]),
                              (0, 1, 2))
        full, _ = classify_image(cube, model)
        monkeypatch.setattr(classify_mod, "_PREDICT_ROWS", 7)
        small_chunks, _ = classify_image(cube, model)
        np.testing.assert_array_equal(full.values, small_chunks.values)

    def test_reads_each_model_band_once_in_model_order(self, cube_from,
                                                       monkeypatch):
        rng = np.random.default_rng(13)
        samples = rng.uniform(0.1, 2.0, (6, 9, 7))
        samples[:, 4, 2] = 0.0   # a zero-mean pixel reads as NaN
        cube, _ = normalize_spectrum(cube_from(samples))
        model = CentroidModel(("A", "B"), rng.uniform(0.5, 1.5, (2, 3)),
                              (4, 1, 3))
        selected = np.stack([cube.band(b) for b in model.bands])
        read = []
        band = CubeFile.band

        def recording_band(self, i):
            read.append(i)
            return band(self, i)

        monkeypatch.setattr(CubeFile, "band", recording_band)
        grid, _ = classify_image(cube, model)
        assert read == [4, 1, 3]
        pixels = selected.reshape(3, -1).T
        valid = ~np.isnan(pixels).any(axis=1)
        assert not valid.all()
        expected = np.full(len(pixels), grid.nodata)
        expected[valid] = model.index(pixels[valid]) + 1
        np.testing.assert_array_equal(grid.values.ravel(), expected)


def five_species(seed=21, n=40, dims=4):
    """Five overlapping species: many support vectors, shared by pairs."""
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 1.2, (5, dims))
    x = np.vstack([c + rng.normal(0, 1.0, (n, dims)) for c in centers])
    labels = np.repeat([f"S{i}" for i in range(5)], n)
    return x, labels, centers


class TestUnionKernel:
    def test_decisions_equal_the_per_pair_formula(self):
        x, labels, _ = five_species()
        model = train_svm(x, labels, C=10.0)
        vectors, coef, bias = model.union
        svs = sum(len(p.support_vectors) for p in model.pairs)
        assert len(np.unique(vectors, axis=0)) == len(vectors) < svs
        rng = np.random.default_rng(22)
        probe = np.vstack([x, rng.normal(0, 2.5, (300, x.shape[1]))])
        scaled = (probe - model.scale_mean) / model.scale_std
        decisions = classify_mod._svm_decisions(model, scaled)
        index = {sp: i for i, sp in enumerate(model.species)}
        votes = np.zeros((len(probe), 5), dtype=np.int64)
        margin = np.zeros((len(probe), 5))
        for k, pair in enumerate(model.pairs):
            f = reference_decision(model, pair, scaled)
            np.testing.assert_allclose(decisions[:, k], f, rtol=0,
                                       atol=1e-12)
            ia, ib = index[pair.pos], index[pair.neg]
            votes[f > 0, ia] += 1
            votes[f <= 0, ib] += 1
            margin[:, ia] += f
            margin[:, ib] -= f
        np.testing.assert_array_equal(model.index(probe),
                                      _vote_winner(votes, margin))

    def test_a_row_twice_in_one_pair_adds_its_coefficients(self):
        sv = np.array([[0.5, -1.0], [0.5, -1.0], [-0.3, 0.8]])
        pairs = [BinarySvm("A", "B", sv, np.array([0.3, 0.4, -0.7]), 0.1),
                 BinarySvm("A", "C", sv[1:], np.array([1.2, -1.2]), -0.2),
                 BinarySvm("B", "C", sv[2:], np.array([-0.5]), 0.05)]
        model = SvmModel(("A", "B", "C"), (), np.zeros(2), np.ones(2), 0.7,
                         10.0, pairs)
        vectors, coef, bias = model.union
        np.testing.assert_array_equal(vectors, [[-0.3, 0.8], [0.5, -1.0]])
        np.testing.assert_allclose(coef, [[-0.7, -1.2, -0.5],
                                          [0.7, 1.2, 0.0]], rtol=0,
                                   atol=1e-15)
        np.testing.assert_array_equal(bias, [0.1, -0.2, 0.05])
        probe = np.random.default_rng(8).normal(0, 1, (40, 2))
        decisions = classify_mod._svm_decisions(model, probe)
        for k, pair in enumerate(pairs):
            np.testing.assert_allclose(decisions[:, k],
                                       reference_decision(model, pair, probe),
                                       rtol=0, atol=1e-12)


class TestPredictionBlocks:
    def _cube(self, cube_from, centers, seed=23, shape=(30, 40)):
        rng = np.random.default_rng(seed)
        species = rng.integers(0, len(centers), shape)
        arr = centers[species].transpose(2, 0, 1) + rng.normal(
            0, 1.0, (centers.shape[1],) + shape)
        arr[:, 3, 5] = np.nan
        return cube_from(arr)

    def _models(self, cube_from):
        x, labels, centers = five_species()
        bands = tuple(range(x.shape[1]))
        return (self._cube(cube_from, centers),
                [train_svm(x, labels, C=10.0, bands=bands),
                 train_centroid(x, labels, bands=bands)])

    def test_holds_the_masked_pixels_not_the_cube(self, cube_from):
        k, nrows, ncols = 8, 300, 300
        rng = np.random.default_rng(31)
        cube = cube_from(rng.normal(0, 1, (k, nrows, ncols)))
        mask = rng.random((nrows, ncols)) < 0.01
        model = train_svm(rng.normal(0, 1, (60, k)),
                          np.repeat(["A", "B", "C"], 20),
                          bands=tuple(range(k)))
        model.union   # derived on first use; not part of the prediction
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            grid, _ = classify_image(cube, model, mask=mask)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert grid.valid_mask().sum() == mask.sum()
        # the output grid and one band read, not a (k, rows, cols) slab
        assert peak < k * nrows * ncols * 8

    def test_labels_do_not_depend_on_the_block_size(self, cube_from,
                                                    monkeypatch):
        cube, models = self._models(cube_from)
        for model in models:
            full, species = classify_image(cube, model)
            n = int(full.valid_mask().sum())
            assert n == 30 * 40 - 1
            for rows in (1, 7, n - 1, n, n + 1):
                monkeypatch.setattr(classify_mod, "_PREDICT_ROWS", rows)
                blocked, again = classify_image(cube, model)
                assert again == species
                np.testing.assert_array_equal(blocked.values, full.values)

    def test_no_block_exceeds_the_budget(self, cube_from, monkeypatch):
        cube, (svm, centroid) = self._models(cube_from)
        kernel_rows = []

        def recording_kernel(a, b, gamma):
            kernel_rows.append((len(a), len(b)))
            return rbf_kernel(a, b, gamma)

        monkeypatch.setattr(classify_mod, "rbf_kernel", recording_kernel)
        rows = 37
        monkeypatch.setattr(classify_mod, "_PREDICT_ROWS", rows)
        grid, _ = classify_image(cube, svm)
        assert len(kernel_rows) > 1
        width = len(svm.union[0])
        assert all(a <= rows and b == width for a, b in kernel_rows)
        assert sum(a for a, _ in kernel_rows) == grid.valid_mask().sum()

        centroid_rows = []
        index_of = CentroidModel.index

        def recording_index(model, pixels):
            centroid_rows.append(len(pixels))
            return index_of(model, pixels)

        monkeypatch.setattr(CentroidModel, "index", recording_index)
        grid, _ = classify_image(cube, centroid)
        assert len(centroid_rows) > 1
        assert max(centroid_rows) <= rows
        assert sum(centroid_rows) == grid.valid_mask().sum()


def make_crown(cid):
    return CrownRecord(crown_id=cid, apex_x=0.0, apex_y=0.0,
                       tree_height=10.0, crown_area=1.0, crown_diameter=1.0)


def reference_majority(label_grid, species, crowns, owner):
    """The per-cell loop the bincount replaced: species by crown id, or
    None when the crown has no classified pixel. Code c is species[c - 1]."""
    out = {}
    for crown in crowns:
        counts = {}
        for r, c in zip(*np.nonzero(owner == crown.crown_id)):
            v = label_grid.values[r, c]
            if v == label_grid.nodata or np.isnan(v):
                continue
            sp = species[int(v) - 1]
            counts[sp] = counts.get(sp, 0) + 1
        out[crown.crown_id] = (min(counts, key=lambda sp: (-counts[sp], sp))
                               if counts else None)
    return out


class TestMajorityLabel:
    def _label_grid(self, values):
        return Grid(np.asarray(values, dtype=float), 0.0, 0.0, 1.0,
                    nodata=-9999.0)

    def test_majority(self):
        vals = -9999.0 * np.ones((2, 8))
        vals[0, :5] = 1  # A x5
        vals[1, :3] = 2  # B x3
        grid = self._label_grid(vals)
        crown = make_crown(1)
        unlabeled = label_crowns_majority(grid, ("A", "B"), [crown],
                                          np.ones((2, 8), dtype=np.int32))
        assert crown.species_code == "A"
        assert unlabeled == []

    def test_tie_lexicographic(self):
        vals = -9999.0 * np.ones((1, 8))
        vals[0, :4] = 2
        vals[0, 4:] = 1
        grid = self._label_grid(vals)
        crown = make_crown(1)
        label_crowns_majority(grid, ("A", "B"), [crown],
                              np.ones((1, 8), dtype=np.int32))
        assert crown.species_code == "A"

    def test_all_nodata_reported(self):
        grid = self._label_grid(-9999.0 * np.ones((1, 4)))
        crown = make_crown(7)
        unlabeled = label_crowns_majority(grid, ("A", "B"), [crown],
                                          np.full((1, 4), 7, dtype=np.int32))
        assert crown.species_code is None
        assert unlabeled == [7]

    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.integers(1, 9),
           st.integers(1, 6))
    def test_matches_per_cell_reference(self, seed, nrows, ncols, n_crowns):
        rng = np.random.default_rng(seed)
        # non-contiguous crown ids, each owning at least one cell (as its
        # apex does); the codes classify_image writes, 1..S for S sorted
        # species, and nodata elsewhere
        n_crowns = min(n_crowns, nrows * ncols)
        ids = np.sort(rng.choice(np.arange(1, 40), n_crowns, replace=False))
        cells = rng.choice(np.concatenate(([0], ids)), nrows * ncols)
        cells[:n_crowns] = ids
        owner = rng.permutation(cells).reshape(nrows, ncols).astype(np.int32)
        species = tuple(sorted(rng.choice(
            ["ABAL", "FASY", "LADE", "PIAB", "QUPU"], rng.integers(1, 6),
            replace=False).tolist()))
        values = rng.choice([-9999.0, *range(1, len(species) + 1)],
                            (nrows, ncols))
        grid = self._label_grid(values)
        crowns = [make_crown(int(cid)) for cid in ids]
        expected = reference_majority(grid, species, crowns, owner)
        unlabeled = label_crowns_majority(grid, species, crowns, owner)
        assert {c.crown_id: c.species_code for c in crowns} == expected
        assert unlabeled == [cid for cid in expected if expected[cid] is None]


def reference_vote_winner(votes, margin):
    """The per-pixel loop the vectorized tie-break replaced."""
    n, n_species = votes.shape
    return np.array([max(range(n_species),
                         key=lambda s: (votes[i, s], margin[i, s], -s))
                     for i in range(n)], dtype=np.int64)


class TestVoteWinner:
    def test_ties_break_on_margin_then_index(self):
        votes = np.array([[2, 2, 1], [1, 2, 2], [1, 1, 1]])
        margin = np.array([[0.5, 0.9, 3.0], [0.0, 1.0, 1.0], [0.0, 0.0, 0.0]])
        np.testing.assert_array_equal(_vote_winner(votes, margin), [1, 1, 0])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(2, 6))
    def test_matches_per_pixel_reference(self, seed, n, n_species):
        rng = np.random.default_rng(seed)
        # few distinct values force vote ties and margin ties
        votes = rng.integers(0, 3, (n, n_species))
        margin = rng.integers(-2, 3, (n, n_species)).astype(float)
        np.testing.assert_array_equal(_vote_winner(votes, margin),
                                      reference_vote_winner(votes, margin))




def per_value(values):
    return " ".join(format(float(v), ".17g") for v in values)


def test_save_model_matches_per_value_format(tmp_path):
    rng = np.random.default_rng(13)
    noise = rng.standard_normal(52) * 10.0 ** rng.integers(-12, 13, 52)
    values = np.concatenate([[-0.0, 0.0, math.inf, -math.inf, math.nan,
                              5e-324, 1 / 3, -2.5e-7], noise]).reshape(-1, 4)
    species = tuple(f"S{i:02d}" for i in range(len(values)))
    header = ["forestinv-model 1", None, "bands 3,5,8,13",
              "species " + ",".join(species)]

    save_model(CentroidModel(species, values, (3, 5, 8, 13)),
               tmp_path / "centroid.txt")
    header[1] = "type centroid"
    assert (tmp_path / "centroid.txt").read_text().splitlines() == header + [
        f"centroid {sp} {per_value(row)}" for sp, row in zip(species, values)]

    pair = BinarySvm(species[0], species[1], values[2:], values[2:, 1],
                     -0.0, 7)
    save_model(SvmModel(species, (3, 5, 8, 13), values[0], values[1], 0.25,
                        10.0, [pair]), tmp_path / "svm.txt")
    header[1] = "type svm"
    assert (tmp_path / "svm.txt").read_text().splitlines() == header + [
        "gamma 0.25", "cost 10",
        f"scale_mean {per_value(values[0])}",
        f"scale_std {per_value(values[1])}",
        f"pair S00 S01 -0 {len(values) - 2}"] + [
        f"sv {per_value([coef])} {per_value(row)}"
        for coef, row in zip(values[2:, 1], values[2:])]
