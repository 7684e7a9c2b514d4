"""Acceptance suite: one test per criterion, each printing a PASS line
with the measured quantities when it succeeds.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
"""

import dataclasses
import itertools
import math
import time

import numpy as np
import pytest

from conftest import all_bands
from forestinv.classify import rbf_kernel, smo_solve
from forestinv.config import load_config
from forestinv.evaluate import ConfusionMatrix, pearson_r, per_class_metrics, \
    format_metrics_table
from forestinv.pipeline import run_pipeline
from forestinv.spectral import (
    GaussianClassStats,
    forward_select,
    jm_criterion,
    jm_distance,
    normalize_spectrum,
    sffs_select,
    trim_bands,
)

from test_classify import duality_gap, kkt_violations
from test_evaluate import (
    REF_AGB_OB,
    REF_AGB_PR,
    REF_VOLUME_OB,
    REF_VOLUME_PR,
)


def report(criterion, message):
    print(f"ACCEPTANCE criterion {criterion}: PASS ({message})")


# ---------------------------------------------------------------------------
# 1. spectral normalization
# ---------------------------------------------------------------------------


def test_criterion_01_normalization(cube_from):
    rng = np.random.default_rng(101)
    cube = cube_from(rng.uniform(0.1, 2.0, (50, 25, 40)))

    t0 = time.perf_counter()
    once, bad = normalize_spectrum(cube)
    twice, _ = normalize_spectrum(once)
    elapsed = time.perf_counter() - t0

    assert bad == 0
    means = all_bands(once).mean(axis=0)
    worst_mean = float(np.abs(means - 1.0).max())
    assert worst_mean <= 1e-9
    worst_idem = float(np.abs(all_bands(twice) - all_bands(once)).max())
    assert worst_idem <= 1e-12
    assert elapsed < 1.0
    report(1, f"1000 pixels, |mean-1| <= {worst_mean:.2e}, "
              f"idempotence <= {worst_idem:.2e}, {elapsed * 1000:.0f} ms")


# ---------------------------------------------------------------------------
# 2. band bookkeeping
# ---------------------------------------------------------------------------


def test_criterion_02_band_trim(cube_from):
    cube = cube_from(np.zeros((137, 2, 2)))
    out = trim_bands(cube, 7, 8)
    assert out.nbands == 122
    report(2, "137 bands - 7 head - 8 tail = 122 bands exactly")


# ---------------------------------------------------------------------------
# 3. Jeffries-Matusita distance
# ---------------------------------------------------------------------------


def test_criterion_03_jm_distance():
    a = GaussianClassStats("A", 10, np.zeros(2), np.eye(2))
    b = GaussianClassStats("B", 10, np.array([2.0, 0.0]), np.eye(2))
    closed_form = 2.0 * (1.0 - math.exp(-0.5))
    got = jm_distance(a, b)
    assert abs(got - closed_form) <= 1e-9

    rng = np.random.default_rng(301)
    for _ in range(10_000):
        d = int(rng.integers(1, 4))
        ca = rng.normal(0, 1, (d, d))
        cb = rng.normal(0, 1, (d, d))
        sa = GaussianClassStats("A", 5, rng.normal(0, 2, d),
                                ca @ ca.T + 1e-3 * np.eye(d))
        sb = GaussianClassStats("B", 5, rng.normal(0, 2, d),
                                cb @ cb.T + 1e-3 * np.eye(d))
        jm = jm_distance(sa, sb)
        assert 0.0 <= jm <= 2.0
    report(3, f"closed form |err| = {abs(got - closed_form):.2e}, bounds "
              f"held on 10000 random positive-definite pairs")


# ---------------------------------------------------------------------------
# 4. SFFS against brute force
# ---------------------------------------------------------------------------


def _random_selection_problem(seed):
    rng = np.random.default_rng(seed)
    nbands = int(rng.integers(6, 11))
    n_informative = int(rng.integers(2, min(6, nbands)))
    k = int(rng.integers(2, 5))
    informative = sorted(rng.choice(nbands, size=n_informative,
                                    replace=False).tolist())
    stats = []
    for ci in range(3):
        mean = np.zeros(nbands)
        for band in informative:
            mean[band] = ci * rng.uniform(0.8, 2.5)
        stats.append(GaussianClassStats(f"C{ci}", 50, mean,
                                        np.diag(rng.uniform(0.5, 2.0, nbands))))
    return stats, k


def test_criterion_04_sffs_vs_brute_force():
    n_dominates = 0
    n_optimal = 0
    slowest = 0.0
    for seed in range(50):
        stats, k = _random_selection_problem(seed)
        t0 = time.perf_counter()
        sffs = sffs_select(stats, k)
        sfs = forward_select(stats, k)[-1]
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        assert elapsed < 1.0

        if sffs.criterion_value >= sfs.criterion_value - 1e-12:
            n_dominates += 1
        optimum = max(
            (jm_criterion(stats, c)
             for c in itertools.combinations(range(stats[0].dim), k)))
        if abs(sffs.criterion_value - optimum) <= 1e-9:
            n_optimal += 1
    assert n_dominates == 50
    assert n_optimal >= 45
    report(4, f"SFFS >= SFS on 50/50, optimal on {n_optimal}/50, "
              f"slowest instance {slowest * 1000:.0f} ms")


# ---------------------------------------------------------------------------
# 5. SVM fixtures
# ---------------------------------------------------------------------------


def _svm_fixture_case(x, y, gamma):
    x = (x - x.mean(axis=0)) / x.std(axis=0)
    K = rbf_kernel(x, x, gamma)
    t0 = time.perf_counter()
    alpha, bias = smo_solve(K, y, C=10.0, tol=1e-3)
    elapsed = time.perf_counter() - t0
    pred = np.sign(K @ (alpha * y) + bias)
    accuracy = (pred == y).mean()
    kkt = kkt_violations(K, y, alpha, bias, 10.0).max()
    gap, primal = duality_gap(K, y, alpha, 10.0)
    return accuracy, kkt, gap, primal, elapsed


def test_criterion_05_svm_fixtures():
    rng = np.random.default_rng(501)
    blob_x = np.vstack([rng.normal(0, 0.25, (20, 2)),
                        rng.normal(0, 0.25, (20, 2)) + 5.0])
    blob_y = np.concatenate([np.ones(20), -np.ones(20)])

    xor_parts, xor_labels = [], []
    for cx, cy, label in ((0, 0, 1), (5, 5, 1), (0, 5, -1), (5, 0, -1)):
        xor_parts.append(rng.normal(0, 0.25, (15, 2)) + [cx, cy])
        xor_labels.extend([label] * 15)
    xor_x = np.vstack(xor_parts)
    xor_y = np.asarray(xor_labels, dtype=float)

    for name, x, y, gamma in (("blobs", blob_x, blob_y, 0.5),
                              ("xor", xor_x, xor_y, 1.0)):
        accuracy, kkt, gap, primal, elapsed = _svm_fixture_case(x, y, gamma)
        assert accuracy == 1.0, name
        assert kkt <= 1e-3, name
        assert gap <= 1e-2 * abs(primal), name
        assert elapsed < 5.0, name
    report(5, "blobs and xor: 100% training accuracy, KKT <= 1e-3, "
              "duality gap <= 1% of objective, each well under 5 s")


# ---------------------------------------------------------------------------
# 6. allometry golden values
# ---------------------------------------------------------------------------


def test_criterion_06_allometry_goldens():
    from forestinv.allometry import (GYMNOSPERM, ANGIOSPERM, VolumeParams,
                                     agb_jucker, volume_double_entry)

    def independent_agb(h, cd, ag, bg):
        return (0.016 + ag) * (h * cd) ** (2.013 + bg) * math.exp(
            0.204 ** 2 / 2.0)

    gym = agb_jucker(20.0, 5.0, GYMNOSPERM)
    ang = agb_jucker(20.0, 5.0, ANGIOSPERM)
    assert abs(gym - independent_agb(20, 5, 0.093, -0.223)) <= 1e-6 * gym
    assert abs(ang - independent_agb(20, 5, 0.0, 0.0)) <= 1e-6 * ang
    assert gym == pytest.approx(423.1, abs=0.1)
    assert ang == pytest.approx(173.4, abs=0.1)

    piab = VolumeParams(0.000177, 1.564254, 1.051565, 3.694650)
    v, _ = volume_double_entry(30.0, 25.0, piab)
    independent_v = 0.000177 * (30.0 - 3.694650) ** 1.564254 * 25.0 ** 1.051565
    assert abs(v - independent_v) <= 1e-6 * v
    assert v == pytest.approx(0.8696, abs=5e-5)

    v0, flagged = volume_double_entry(piab.d0, 25.0, piab)
    assert v0 == 0.0 and flagged
    report(6, f"biomass {gym:.1f}/{ang:.1f} kg and volume {v:.4f} m^3 match "
              f"the independent evaluator to 1e-6 relative; V(d0) = 0")


# ---------------------------------------------------------------------------
# 7. reference plot-table correlations
# ---------------------------------------------------------------------------


def test_criterion_07a_reference_volume_correlation():
    r = pearson_r(REF_VOLUME_OB, REF_VOLUME_PR)
    assert abs(r - 0.94) <= 0.01
    report("7a", f"volume R = {r:.4f} within 0.94 +/- 0.01")


def test_criterion_07b_reference_agb_correlation():
    # The bundled AGB rows correlate at 0.9137 under any correct sample
    # Pearson implementation (cross-checked against numpy here), but the
    # stated target for them is 0.90 +/- 0.01. The target is asserted
    # as stated, so this check fails and documents the discrepancy.
    r = pearson_r(REF_AGB_OB, REF_AGB_PR)
    assert r == pytest.approx(float(np.corrcoef(REF_AGB_OB,
                                                REF_AGB_PR)[0, 1]), abs=1e-12)
    assert abs(r - 0.90) <= 0.01, (
        f"computed R = {r:.4f}; the reference rows' own data yield 0.9137, "
        f"outside the stated 0.90 +/- 0.01")
    report("7b", f"AGB R = {r:.4f} within 0.90 +/- 0.01")


# ---------------------------------------------------------------------------
# 8. metric definitions
# ---------------------------------------------------------------------------


def test_criterion_08_metric_definitions():
    cm = ConfusionMatrix(("A", "B"), np.array([[8, 2], [3, 87]]))
    m = per_class_metrics(cm)["A"]
    assert abs(m.accuracy - 0.95) <= 1e-4
    assert abs(m.precision - 0.7273) <= 1e-4
    assert abs(m.recall - 0.8) <= 1e-4
    assert abs(m.f_score - 0.7619) <= 1e-4

    never_predicted = ConfusionMatrix(("A", "B"), np.array([[0, 5], [0, 95]]))
    row = next(line for line in
               format_metrics_table(never_predicted, "x").splitlines()
               if line.startswith("A"))
    assert row.split()[-1] == "-" and row.split()[-2] == "-"
    report(8, "TP=8/FN=2/FP=3/TN=87 gives 0.95/0.7273/0.8/0.7619; "
              "undefined cells render as '-'")


# ---------------------------------------------------------------------------
# 9. crown delineation on analytic cone scenes
# ---------------------------------------------------------------------------


def test_criterion_09_itc_on_cone_scenes():
    from forestinv.crowns import ItcParams, detect_treetops, grow_crowns
    from forestinv.synth import SceneConfig, random_scene, render_canopy_grid

    params = ItcParams()  # published parameter set
    total_trees = 0
    total_detected = 0
    worst_area_err = 0.0
    slowest = 0.0
    rng = np.random.default_rng(901)

    for scene_idx in range(30):
        n_trees = int(rng.integers(20, 51))
        spec = random_scene(SceneConfig(
            n_trees=n_trees, species=("PIAB",), shape="cone", pitch=14.0,
            margin=8.0, height_min=8.0, height_max=28.0, radius_min=4.0,
            radius_max=5.5, n_plots=0, noise_sigma=0.0, junk_head=0,
            junk_tail=0), seed=9000 + scene_idx)
        chm = render_canopy_grid(spec)

        t0 = time.perf_counter()
        apexes = detect_treetops(chm, params)
        crowns, _ = grow_crowns(chm, apexes, params)
        elapsed = time.perf_counter() - t0
        slowest = max(slowest, elapsed)
        assert elapsed < 10.0

        # no two apexes within min_dist
        for i in range(len(apexes)):
            for j in range(i + 1, len(apexes)):
                d = math.hypot(apexes[i].x - apexes[j].x,
                               apexes[i].y - apexes[j].y)
                assert d >= params.min_dist

        crown_by_apex = {(c.apex_x, c.apex_y): c for c in crowns}
        matched = 0
        for tree in spec.trees:
            cell = chm.cell_of(tree.x, tree.y)
            near = [a for a in apexes
                    if abs(a.row - cell[0]) <= 1 and abs(a.col - cell[1]) <= 1]
            if len(near) != 1:
                continue
            matched += 1
            crown = crown_by_apex[(near[0].x, near[0].y)]
            analytic = math.pi * ((1.0 - params.thresh_seed)
                                  * tree.crown_radius) ** 2
            err = abs(crown.crown_area - analytic) / analytic
            worst_area_err = max(worst_area_err, err)
            assert err <= 0.15
        total_trees += n_trees
        total_detected += matched
        assert len(apexes) == matched  # no spurious extra apexes

    assert total_detected >= 0.95 * total_trees
    report(9, f"{total_detected}/{total_trees} trees with exactly one apex "
              f"within 1 cell, worst crown area error "
              f"{100 * worst_area_err:.1f}%, slowest scene {slowest:.2f} s")


# ---------------------------------------------------------------------------
# 10 & 11. end-to-end synthetic inventory and determinism
# ---------------------------------------------------------------------------

E2E_INI = """\
[scene]
n_trees = 200
species = PIAB, ABAL, LADE, FASY, QUPU
nbands = 16
n_plots = 10
noise_sigma = 0.02
signature_amplitude = 0.6

[spectral]
drop_head = 7
drop_tail = 8
k = 8
max_training_pixels_per_species = 600

[classify]
classifier = svm
c = 10

[run]
seed = 2024
output_dir = scene
"""


@pytest.fixture(scope="module")
def e2e_run(tmp_path_factory):
    from forestinv.cli import main
    from forestinv.evaluate import read_truth_plots

    root = tmp_path_factory.mktemp("e2e")
    cfg = root / "scene.ini"
    cfg.write_text(E2E_INI)
    assert main(["synth", "--config", str(cfg)]) == 0
    scene_dir = root / "scene"
    pipeline_ini = scene_dir / "pipeline.ini"

    t0 = time.perf_counter()
    config = load_config(pipeline_ini, out_override=str(root / "run1"))
    result = run_pipeline(config)
    elapsed = time.perf_counter() - t0

    truth = read_truth_plots(scene_dir / "truth_plots.csv")
    return {"root": root, "pipeline_ini": pipeline_ini, "result": result,
            "elapsed": elapsed, "truth_plots": truth,
            "scene_dir": scene_dir}


def test_criterion_10_end_to_end_inventory(e2e_run):
    result = e2e_run["result"]
    ctx = result.context

    # generator signatures are separated far beyond 5 sigma of the noise
    from forestinv.synth import random_scene

    scene_cfg = ctx["config"].scene
    sig_spec = random_scene(dataclasses.replace(scene_cfg, n_trees=4),
                            seed=2024)
    sigs = list(sig_spec.signatures.values())
    min_sep = min(float(np.linalg.norm(sigs[i] - sigs[j]))
                  for i in range(len(sigs)) for j in range(i + 1, len(sigs)))
    assert min_sep >= 5 * scene_cfg.noise_sigma

    accuracy = ctx["confusion"].micro_accuracy()
    assert accuracy >= 0.90

    truth = {p.plot_id: p for p in e2e_run["truth_plots"]}
    predicted = {t.plot_id: t for t in ctx["plot_totals"]}
    ids = sorted(truth)

    tot_v_truth = sum(truth[i].volume_m3 for i in ids)
    tot_v_pred = sum(predicted[i].volume_m3 for i in ids)
    tot_a_truth = sum(truth[i].agb_mg for i in ids)
    tot_a_pred = sum(predicted[i].agb_mg for i in ids)
    v_err = abs(tot_v_pred - tot_v_truth) / tot_v_truth
    a_err = abs(tot_a_pred - tot_a_truth) / tot_a_truth
    assert v_err <= 0.10
    assert a_err <= 0.10

    r_volume = pearson_r([truth[i].volume_m3 for i in ids],
                         [predicted[i].volume_m3 for i in ids])
    r_agb = pearson_r([truth[i].agb_mg for i in ids],
                      [predicted[i].agb_mg for i in ids])
    assert r_volume >= 0.9
    assert r_agb >= 0.9

    assert e2e_run["elapsed"] < 60.0
    report(10, f"accuracy {100 * accuracy:.1f}%, plot volume error "
               f"{100 * v_err:.1f}%, AGB error {100 * a_err:.1f}%, "
               f"R = {r_volume:.3f}/{r_agb:.3f}, "
               f"run {e2e_run['elapsed']:.1f} s")


def test_criterion_11_determinism(e2e_run):
    root = e2e_run["root"]
    config = load_config(e2e_run["pipeline_ini"],
                         out_override=str(root / "run2"))
    run_pipeline(config)

    out_a = root / "run1"
    out_b = root / "run2"
    names_a = sorted(p.name for p in out_a.iterdir())
    names_b = sorted(p.name for p in out_b.iterdir())
    assert names_a == names_b
    compared = 0
    for name in names_a:
        if name == "timings.txt":  # wall clock by design
            continue
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        compared += 1
    report(11, f"{compared} artifacts byte-identical across two runs")
