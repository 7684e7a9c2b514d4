import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import all_bands
from forestinv import spectral
from forestinv.errors import DataError, NumericalError
from forestinv.spectral import (
    BandSelection,
    GaussianClassStats,
    class_statistics,
    forward_select,
    jm_criterion,
    jm_distance,
    normalize_spectrum,
    ridge_regularize,
    sffs_select,
    trim_bands,
)


def stats_of(species, samples):
    samples = np.asarray(samples, dtype=float)
    mean = samples.mean(axis=0)
    centered = samples - mean
    cov = centered.T @ centered / (len(samples) - 1)
    return GaussianClassStats(species, len(samples), mean, ridge_regularize(cov))


class TestTrimBands:
    def test_paper_band_count(self, cube_from):
        cube = cube_from(np.zeros((137, 2, 2)))
        out = trim_bands(cube, 7, 8)
        assert out.nbands == 122

    def test_identity(self, cube_from):
        cube = cube_from(np.random.default_rng(0).uniform(0, 1, (10, 2, 2)))
        out = trim_bands(cube, 0, 0)
        np.testing.assert_array_equal(all_bands(out), all_bands(cube))

    def test_window_reads_the_kept_bands(self, cube_from):
        arr = np.random.default_rng(4).uniform(0, 1, (10, 2, 3))
        out = trim_bands(cube_from(arr), 2, 3)
        np.testing.assert_array_equal(all_bands(out), arr[2:7])

    def test_excessive_drop(self, cube_from):
        cube = cube_from(np.zeros((10, 2, 2)))
        with pytest.raises(DataError):
            trim_bands(cube, 6, 5)

    def test_wavelengths_sliced(self, cube_from):
        wl = np.linspace(0.4, 1.0, 10)
        cube = cube_from(np.zeros((10, 2, 2)), wavelengths=wl)
        out = trim_bands(cube, 2, 3)
        np.testing.assert_allclose(out.wavelengths, wl[2:7])


class TestNormalize:
    def test_hand_example(self, cube_from):
        cube = cube_from(np.array([2.0, 4.0, 6.0]).reshape(3, 1, 1))
        out, bad = normalize_spectrum(cube)
        np.testing.assert_allclose(all_bands(out).ravel(), [0.5, 1.0, 1.5])
        assert bad == 0

    def test_constant_pixel(self, cube_from):
        cube = cube_from(np.full((4, 1, 1), 3.7))
        out, _ = normalize_spectrum(cube)
        np.testing.assert_allclose(all_bands(out).ravel(), 1.0)

    def test_scale_invariance(self, cube_from):
        rng = np.random.default_rng(1)
        base = rng.uniform(0.1, 2.0, (6, 3, 3))
        a, _ = normalize_spectrum(cube_from(base))
        b, _ = normalize_spectrum(cube_from(base * 17.3))
        np.testing.assert_allclose(all_bands(a), all_bands(b), atol=1e-12)

    def test_zero_mean_pixel_reported(self, cube_from):
        arr = np.ones((3, 2, 2))
        arr[:, 0, 1] = 0.0
        out, bad = normalize_spectrum(cube_from(arr))
        assert bad == 1
        assert np.isnan(all_bands(out)[:, 0, 1]).all()
        assert np.isfinite(all_bands(out)[:, 1, 1]).all()

    def test_every_pixel_all_nan_or_none(self, cube_from):
        # the statistics stage drops a training pixel on any NaN band,
        # which keeps the same pixels as a filter on the selected bands
        rng = np.random.default_rng(5)
        arr = rng.uniform(-1.0, 2.0, (6, 4, 4))
        arr[2, 0, 0] = np.nan
        arr[4, 0, 1] = np.inf
        arr[:, 0, 2] = [1.0, -1.0, 2.0, -2.0, 0.5, -0.5]
        arr[:, 0, 3] = 0.0
        arr[1, 1, 0] = -np.inf
        out, bad = normalize_spectrum(cube_from(arr))
        nan = np.isnan(all_bands(out))
        assert (nan.all(axis=0) | ~nan.any(axis=0)).all()
        assert bad == nan.all(axis=0).sum() >= 5

    def test_idempotent(self, cube_from):
        rng = np.random.default_rng(2)
        cube = cube_from(rng.uniform(0.1, 3.0, (8, 4, 4)))
        once, _ = normalize_spectrum(cube)
        twice, _ = normalize_spectrum(once)
        np.testing.assert_allclose(all_bands(twice), all_bands(once),
                                   atol=1e-12)

    def test_normalized_mean_is_one(self, cube_from):
        rng = np.random.default_rng(3)
        cube = cube_from(rng.uniform(0.5, 2.0, (12, 5, 5)))
        out, _ = normalize_spectrum(cube)
        np.testing.assert_allclose(all_bands(out).mean(axis=0), 1.0,
                                   atol=1e-12)

    @pytest.mark.parametrize("shape, dtype", [
        ((137, 5, 7), "<f4"), ((16, 302, 302), "<f4"), ((137, 5, 7), ">u2"),
    ])
    def test_streamed_bands_equal_the_whole_array_formula(
            self, cube_from, shape, dtype):
        rng = np.random.default_rng(6)
        arr = rng.uniform(0.0, 5000.0, shape).astype(dtype)
        arr[:, 0, 0] = 0    # zero mean
        arr[:, 1, 2] = 0
        arr[3, 1, 2] = 7    # a nonzero mean from one band
        if arr.dtype.kind == "f":
            arr[5, 2, 3] = np.nan
        out, bad = normalize_spectrum(cube_from(arr, dtype))
        samples = arr.astype(np.float64)
        means = samples.mean(axis=0)
        whole_bad = ~np.isfinite(means) | (means == 0.0)
        expected = samples / np.where(whole_bad, 1.0, means)
        expected[:, whole_bad] = np.nan
        assert bad == whole_bad.sum() == 1 + (arr.dtype.kind == "f")
        for i in range(shape[0]):
            assert np.array_equal(out.band(i), expected[i], equal_nan=True)

    def test_band_of_a_normalized_view(self, cube_from):
        # a view of a view reads through both divisions bit for bit, and
        # a pixel bad in the first pass stays NaN in the second
        rng = np.random.default_rng(8)
        arr = rng.uniform(0.0, 5000.0, (9, 6, 7)).astype("<f4")
        arr[:, 0, 0] = 0    # zero mean
        arr[2, 3, 4] = np.nan
        once, bad = normalize_spectrum(cube_from(arr, "<f4"))
        twice, bad_again = normalize_spectrum(once)
        assert bad == bad_again == 2
        first = all_bands(once)
        means = first.mean(axis=0)
        whole_bad = ~np.isfinite(means) | (means == 0.0)
        expected = first / np.where(whole_bad, 1.0, means)
        expected[:, whole_bad] = np.nan
        assert np.isnan(expected[:, 0, 0]).all()
        assert np.isnan(expected[:, 3, 4]).all()
        for i in range(twice.nbands):
            assert np.array_equal(twice.band(i), expected[i], equal_nan=True)

    def test_holds_no_more_than_a_few_bands(self, cube_from):
        nbands, nrows, ncols = 60, 120, 90
        cube = cube_from(np.random.default_rng(7).uniform(
            0.1, 2.0, (nbands, nrows, ncols)), "<f4")
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            out, _ = normalize_spectrum(cube)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 4 * nrows * ncols * 8
        assert out.nbands == nbands


class TestClassStatistics:
    def test_hand_covariance(self):
        stats, skipped = class_statistics({"A": np.array([[0.0, 0.0],
                                                          [2.0, 2.0]])})
        assert skipped == []
        s = stats[0]
        np.testing.assert_allclose(s.mean, [1.0, 1.0])
        eps = 1e-6 * 4.0 / 2
        np.testing.assert_allclose(s.covariance,
                                   [[2.0 + eps, 2.0], [2.0, 2.0 + eps]],
                                   atol=1e-15)

    def test_repeated_sample_gives_ridge_only(self):
        stats, _ = class_statistics({"A": np.array([[1.0, 2.0], [1.0, 2.0]])})
        np.testing.assert_allclose(stats[0].covariance, 1e-9 * np.eye(2),
                                   atol=1e-18)

    def test_single_band_subset_is_marginal(self):
        rng = np.random.default_rng(4)
        spectra = rng.uniform(0, 1, (16, 5))
        band2, _ = class_statistics({"A": spectra[:, [2]]})
        vals = spectra[:, 2]
        assert band2[0].mean[0] == pytest.approx(vals.mean())
        raw_var = vals.var(ddof=1)
        assert band2[0].covariance[0, 0] == pytest.approx(
            raw_var + max(1e-9, 1e-6 * raw_var), rel=1e-12)

    def test_small_class_skipped(self):
        stats, skipped = class_statistics({"A": np.zeros((1, 2)),
                                           "B": np.zeros((0, 2))})
        assert stats == [] and skipped == ["A", "B"]


class TestJmDistance:
    def test_identical_distributions(self):
        s = stats_of("A", [[0.0, 0.0], [1.0, 1.0], [2.0, 0.5]])
        assert jm_distance(s, s) == 0.0

    def test_closed_form_unit_covariance(self):
        a = GaussianClassStats("A", 10, np.zeros(2), np.eye(2))
        b = GaussianClassStats("B", 10, np.array([2.0, 0.0]), np.eye(2))
        expected = 2.0 * (1.0 - math.exp(-0.5))
        assert jm_distance(a, b) == pytest.approx(expected, abs=1e-9)

    def test_monotone_saturation(self):
        prev = -1.0
        for shift in [0.5, 1.0, 2.0, 4.0, 8.0, 32.0]:
            a = GaussianClassStats("A", 5, np.zeros(2), np.eye(2))
            b = GaussianClassStats("B", 5, np.array([shift, 0.0]), np.eye(2))
            jm = jm_distance(a, b)
            assert jm > prev
            prev = jm
        assert prev <= 2.0
        assert prev == pytest.approx(2.0, abs=1e-6)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=80, deadline=None)
    def test_bounds_and_symmetry(self, seed):
        rng = np.random.default_rng(seed)
        d = rng.integers(1, 5)
        a = stats_of("A", rng.normal(0, 1, (d + 2, d)))
        b = stats_of("B", rng.normal(rng.uniform(-3, 3), 1, (d + 2, d)))
        ab = jm_distance(a, b)
        ba = jm_distance(b, a)
        assert 0.0 <= ab <= 2.0
        assert ab == pytest.approx(ba, abs=1e-12)

    def test_invariant_under_common_linear_transform(self):
        rng = np.random.default_rng(7)
        xa = rng.normal(0, 1, (60, 3))
        xb = rng.normal(1.5, 1.2, (60, 3))
        m = rng.normal(0, 1, (3, 3)) + 3 * np.eye(3)

        def raw_stats(code, x):
            mean = x.mean(axis=0)
            c = x - mean
            return GaussianClassStats(code, len(x), mean,
                                      c.T @ c / (len(x) - 1) + 1e-12 * np.eye(3))

        before = jm_distance(raw_stats("A", xa), raw_stats("B", xb))
        after = jm_distance(raw_stats("A", xa @ m), raw_stats("B", xb @ m))
        assert after == pytest.approx(before, abs=1e-8)


def planted_problem(seed, nbands=10, n_informative=3, n_classes=3):
    """Gaussian classes separated only on the informative bands."""
    rng = np.random.default_rng(seed)
    informative = sorted(rng.choice(nbands, size=n_informative, replace=False)
                         .tolist())
    stats = []
    for ci in range(n_classes):
        mean = np.zeros(nbands)
        for b in informative:
            mean[b] = ci * rng.uniform(1.5, 2.5)
        cov = np.eye(nbands)
        stats.append(GaussianClassStats(f"C{ci}", 50, mean, cov))
    return stats, informative


class TestSffs:
    def test_k_equals_nbands(self):
        stats, _ = planted_problem(0, nbands=5)
        sel = sffs_select(stats, 5)
        assert sel.indices == tuple(range(5))
        assert sel.criterion_value == pytest.approx(
            jm_criterion(stats, range(5)))

    def test_recovers_planted_bands_vs_exhaustive(self):
        stats, informative = planted_problem(1)
        sel = sffs_select(stats, 3)
        assert sorted(sel.indices) == informative
        best = max(itertools.combinations(range(10), 3),
                   key=lambda c: jm_criterion(stats, c))
        assert jm_criterion(stats, sel.indices) == pytest.approx(
            jm_criterion(stats, best), abs=1e-12)

    def test_dominates_plain_forward_selection(self):
        for seed in range(8):
            stats, _ = planted_problem(seed, nbands=8, n_informative=4)
            k = 3
            sfs = forward_select(stats, k)[-1]
            sffs = sffs_select(stats, k)
            assert sffs.criterion_value >= sfs.criterion_value - 1e-12

    def test_deterministic(self):
        stats, _ = planted_problem(5)
        a = sffs_select(stats, 4)
        b = sffs_select(stats, 4)
        assert a == b

    def test_errors(self):
        stats, _ = planted_problem(2)
        with pytest.raises(ValueError):
            sffs_select(stats, 0)
        with pytest.raises(DataError):
            sffs_select(stats[:1], 2)
        with pytest.raises(ValueError):
            sffs_select(stats, 11)

    def test_candidate_restriction(self):
        stats, informative = planted_problem(3)
        pool = [b for b in range(10) if b != informative[0]]
        sel = sffs_select(stats, 3, candidates=pool)
        assert informative[0] not in sel.indices


def reference_jm_distance(a, b):
    """The per-pair JM definition the batched criterion must match."""
    diff = a.mean - b.mean
    mid = 0.5 * (a.covariance + b.covariance)
    solved = np.linalg.solve(mid, diff)
    quad = 0.125 * float(diff @ solved)
    _, logdet_mid = np.linalg.slogdet(mid)
    _, logdet_a = np.linalg.slogdet(a.covariance)
    _, logdet_b = np.linalg.slogdet(b.covariance)
    logterm = 0.5 * (logdet_mid - 0.5 * (logdet_a + logdet_b))
    bhatt = max(0.0, quad + logterm)
    return min(2.0, 2.0 * (1.0 - math.exp(-bhatt)))


def reference_jm_criterion(stats, indices, aggregate):
    """Marginalize every class, then loop over the pairs one by one."""
    idx = np.asarray(sorted(indices), dtype=np.intp)
    marginals = [GaussianClassStats(s.species_code, s.n_samples, s.mean[idx],
                                    s.covariance[np.ix_(idx, idx)])
                 for s in stats]
    values = [reference_jm_distance(marginals[i], marginals[j])
              for i in range(len(marginals))
              for j in range(i + 1, len(marginals))]
    return float(np.mean(values) if aggregate == "mean" else np.min(values))


def random_spd_stats(rng, n_classes, dim):
    """Classes with random SPD covariances; now and then a class repeats
    an earlier one, so the zero clamp of the Bhattacharyya term is hit."""
    stats = []
    for c in range(n_classes):
        if c and rng.random() < 0.2:
            prev = stats[rng.integers(c)]
            stats.append(GaussianClassStats(f"C{c}", prev.n_samples,
                                            prev.mean, prev.covariance))
            continue
        scale = 10.0 ** rng.uniform(-3, 1)
        factor = rng.normal(0, 1, (dim, dim + int(rng.integers(0, 5))))
        cov = ridge_regularize(factor @ factor.T / factor.shape[1] * scale)
        cov = 0.5 * (cov + cov.T)
        mean = rng.normal(0, 10.0 ** rng.uniform(-2, 1), dim)
        stats.append(GaussianClassStats(f"C{c}", 50, mean, cov))
    return stats


class TestBatchedCriterion:
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["mean", "min"]))
    @settings(max_examples=300, deadline=None)
    def test_equals_per_pair_reference(self, seed, aggregate):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 41))
        stats = random_spd_stats(rng, int(rng.integers(2, 7)), dim)
        size = int(rng.integers(1, min(dim, 35) + 1))
        subset = rng.choice(dim, size=size, replace=False).tolist()
        assert (jm_criterion(stats, subset, aggregate)
                == reference_jm_criterion(stats, subset, aggregate))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=100, deadline=None)
    def test_distance_is_the_two_class_criterion(self, seed):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 41))
        a, b = random_spd_stats(rng, 2, dim)
        assert jm_distance(a, b) == reference_jm_distance(a, b)
        assert jm_distance(a, b) == jm_criterion([a, b], range(dim))

    def test_singular_mid_covariance(self):
        a = GaussianClassStats("A", 5, np.zeros(2), np.diag([1.0, -1.0]))
        b = GaussianClassStats("B", 5, np.ones(2), np.eye(2))
        c = GaussianClassStats("C", 5, np.ones(2), 2.0 * np.eye(2))
        with pytest.raises(NumericalError, match="singular mid-covariance"):
            jm_distance(a, b)
        with pytest.raises(NumericalError, match="singular mid-covariance"):
            jm_criterion([a, b, c], [0, 1])

    def test_non_positive_definite_covariance(self):
        a = GaussianClassStats("A", 5, np.zeros(2), np.diag([1.0, -1.0]))
        b = GaussianClassStats("B", 5, np.ones(2), np.diag([1.0, 3.0]))
        c = GaussianClassStats("C", 5, np.ones(2), 2.0 * np.eye(2))
        with pytest.raises(NumericalError, match="non-positive-definite"):
            jm_distance(a, b)
        with pytest.raises(NumericalError, match="non-positive-definite"):
            jm_criterion([c, b, a], [0, 1])

    def test_mismatched_dimensions(self):
        a = GaussianClassStats("A", 5, np.zeros(2), np.eye(2))
        b = GaussianClassStats("B", 5, np.zeros(3), np.eye(3))
        with pytest.raises(ValueError, match="mismatched dimensions"):
            jm_distance(a, b)


def reference_forward_select(stats, k, pool, aggregate, criterion):
    """Forward selection that scores one candidate per criterion call."""
    chosen, out = [], []
    for _ in range(k):
        best_band, best_score = None, -np.inf
        for band in pool:
            if band in chosen:
                continue
            score = criterion(stats, chosen + [band], aggregate)
            if score > best_score:
                best_band, best_score = band, score
        chosen.append(best_band)
        out.append((best_score, tuple(sorted(chosen))))
    return out


def reference_sffs_select(stats, k, candidates=None, aggregate="mean",
                          criterion=jm_criterion):
    """SFFS that scores one candidate per criterion call and scores a
    subset again each time it comes up."""
    pool = list(range(stats[0].dim)) if candidates is None else sorted(candidates)
    best = {len(subset): (score, subset) for score, subset
            in reference_forward_select(stats, k, pool, aggregate, criterion)}
    current = list(best[min(2, k)][1])
    while len(current) < k:
        best_band, best_score = None, -np.inf
        for band in pool:
            if band in current:
                continue
            score = criterion(stats, current + [band], aggregate)
            if score > best_score:
                best_band, best_score = band, score
        current.append(best_band)
        size = len(current)
        if size not in best or best_score > best[size][0]:
            best[size] = (best_score, tuple(sorted(current)))
        while len(current) > 2:
            best_drop, best_drop_score = None, -np.inf
            for band in sorted(current):
                trial = [b for b in current if b != band]
                score = criterion(stats, trial, aggregate)
                if score > best_drop_score:
                    best_drop, best_drop_score = band, score
            smaller = len(current) - 1
            if best_drop_score > best[smaller][0]:
                current.remove(best_drop)
                best[smaller] = (best_drop_score, tuple(sorted(current)))
            else:
                break
    score, subset = best[k]
    return BandSelection(subset, score)


def with_duplicate_bands(rng, stats):
    """The classes seen through a band list in which some bands repeat
    others, so that candidate subsets tie exactly."""
    dim = stats[0].dim
    bands = np.concatenate([np.arange(dim),
                            rng.integers(0, dim, int(rng.integers(1, 6)))])
    bands = rng.permutation(bands)
    out = []
    for s in stats:
        cov = ridge_regularize(s.covariance[np.ix_(bands, bands)])
        out.append(GaussianClassStats(s.species_code, s.n_samples,
                                      s.mean[bands], 0.5 * (cov + cov.T)))
    return out


class TestBatchedSffs:
    @given(st.integers(0, 2 ** 31 - 1), st.sampled_from(["mean", "min"]),
           st.booleans(), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_equals_per_candidate_reference(self, seed, aggregate, use_pool,
                                            duplicate):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(1, 41))
        stats = random_spd_stats(rng, int(rng.integers(2, 7)), dim)
        if duplicate:
            stats = with_duplicate_bands(rng, stats)
        dim = stats[0].dim
        pool = None
        if use_pool:
            pool = rng.choice(dim, size=int(rng.integers(1, dim + 1)),
                              replace=False).tolist()
        k = int(rng.integers(1, min(len(pool or range(dim)), 35) + 1))
        got = sffs_select(stats, k, candidates=pool, aggregate=aggregate)
        expected = reference_sffs_select(stats, k, pool, aggregate)
        assert got.indices == expected.indices
        assert got.criterion_value == expected.criterion_value

    def test_identical_classes_tie_to_the_lowest_bands(self):
        stats, _ = planted_problem(0, nbands=6, n_classes=1)
        stats = [stats[0], GaussianClassStats("C1", 50, stats[0].mean,
                                              stats[0].covariance)]
        sel = sffs_select(stats, 3)
        assert sel.indices == (0, 1, 2) and sel.criterion_value == 0.0
        assert sel == reference_sffs_select(stats, 3)

    def test_each_subset_is_scored_once(self, monkeypatch):
        stats, _ = planted_problem(4, nbands=12, n_informative=5)
        scored = []
        real = spectral._pairwise_jm

        def counting(means, covs):
            scored.append(len(means))
            return real(means, covs)

        monkeypatch.setattr(spectral, "_pairwise_jm", counting)
        sel = sffs_select(stats, 6)
        assert sum(scored) == sel.evaluations
        subsets = []

        def recording(stats, indices, aggregate):
            subsets.append(tuple(sorted(indices)))
            return jm_criterion(stats, indices, aggregate)

        assert reference_sffs_select(stats, 6, criterion=recording) == sel
        assert len(set(subsets)) == sel.evaluations < len(subsets)
