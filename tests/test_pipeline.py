import csv
import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from configparser import ConfigParser
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forestinv.allometry import DbhModel, volume_double_entry
from forestinv import chm as chm_mod
from forestinv.chm import PitfreeParams
from forestinv.cli import main
from forestinv.config import (
    ClassifyConfig,
    RunConfig,
    SpectralConfig,
    load_config,
)
from forestinv.crowns import ItcParams
from forestinv.errors import ConfigError
from forestinv.geodata import CubeFile, PointCloud, read_ascii_grid, \
    read_envi_cube
from forestinv import pipeline as pipeline_mod
from forestinv.pipeline import _training_pixels, run_pipeline
from forestinv.synth import SceneConfig, generate_scene, random_scene, \
    write_scene

SCENE_INI = """\
[scene]
n_trees = 25
species = PIAB, FASY
nbands = 10
n_plots = 4
junk_head = 2
junk_tail = 3

[spectral]
drop_head = 2
drop_tail = 3
k = 4
max_training_pixels_per_species = 400

[classify]
classifier = {classifier}

[run]
seed = {seed}
output_dir = {outdir}
"""


def make_scene(tmp_path, classifier="centroid", seed=11):
    cfg = tmp_path / "scene.ini"
    cfg.write_text(SCENE_INI.format(classifier=classifier, seed=seed,
                                    outdir="scene"))
    assert main(["synth", "--config", str(cfg)]) == 0
    return tmp_path / "scene" / "pipeline.ini"


# each scene input and the stage that reads it first
FIRST_STAGE = {
    "dtm.asc": "terrain",
    "points.csv": "normalize",
    "cube.hdr": "chm",
    "cube.dat": "chm",
    "ground_truth.csv": "join",
    "plots.csv": "plots",
    "truth_plots.csv": "report",
}

ROOT = Path(__file__).resolve().parents[1]

# (INI section, PipelineConfig attribute, dataclass, key prefix)
SECTIONS = [
    ("chm", "pitfree", PitfreeParams, ""),
    ("crowns", "itc", ItcParams, ""),
    ("spectral", "spectral", SpectralConfig, ""),
    ("classify", "classify", ClassifyConfig, ""),
    ("allometry", "dbh_model", DbhModel, "dbh_"),
    ("run", "run", RunConfig, ""),
    ("scene", "scene", SceneConfig, ""),
]


def ini_value(value):
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return str(value)


def readme_config():
    """The INI block of README's Configuration section."""
    text = (ROOT / "README.md").read_text()
    return re.search(r"## Configuration.*?```ini\n(.*?)```", text,
                     re.S).group(1)


class TestConfig:
    def test_defaults(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[run]\nseed = 5\n")
        config = load_config(cfg)
        assert config.run.seed == 5
        assert config.pitfree.resolution == 0.5
        assert config.itc.thresh_seed == 0.55
        assert config.itc.min_dist == 5.0
        assert config.spectral.drop_head == 7
        assert config.spectral.drop_tail == 8
        assert config.spectral.k == 35
        assert config.classify.c == 10.0
        assert config.run.train_fraction == 0.65

    def test_overrides(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[run]\nseed = 5\noutput_dir = x\n")
        config = load_config(cfg, seed_override=9, out_override="/tmp/y")
        assert config.run.seed == 9
        assert config.run.output_dir == "/tmp/y"

    def test_bad_value(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[classify]\nc = banana\n")
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_bad_classifier(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[classify]\nclassifier = forest\n")
        with pytest.raises(ConfigError):
            load_config(cfg)

    def test_registry_override(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[registry]\nzzzz = gymnosperm,fallback=PIAB\n")
        config = load_config(cfg)
        assert "ZZZZ" in config.registry
        params, fallback = config.registry.volume_params("ZZZZ")
        assert fallback == "PIAB"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(tmp_path / "nope.ini")

    @pytest.mark.parametrize("section, attr, cls, prefix", SECTIONS)
    def test_defaults_written_out_load_back(self, tmp_path, section, attr,
                                            cls, prefix):
        lines = [f"[{section}]"]
        for f in dataclasses.fields(cls):
            lines.append(f"{prefix}{f.name} = {ini_value(f.default)}")
        cfg = tmp_path / "c.ini"
        cfg.write_text("\n".join(lines) + "\n")
        expected = cls()
        if cls is RunConfig:  # output_dir resolves against the file
            expected.output_dir = str(tmp_path / expected.output_dir)
        assert getattr(load_config(cfg), attr) == expected

    def test_default_section_keys_apply_where_they_are_fields(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[DEFAULT]\nk = 5\n[spectral]\n[chm]\n")
        config = load_config(cfg)
        assert config.spectral.k == 5
        assert config.pitfree == PitfreeParams()

    def test_benchmark_and_readme_configs_load(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import workloads

        for w in workloads.WORKLOADS.values():
            cfg = tmp_path / f"{w.name}.ini"
            cfg.write_text(workloads.scene_ini(w, seed=2024))
            load_config(cfg)
        cfg = tmp_path / "readme.ini"
        cfg.write_text(readme_config())
        load_config(cfg)

    def test_readme_lists_every_key(self):
        cp = ConfigParser(inline_comment_prefixes=(";",))
        cp.read_string(readme_config())
        for section, _, cls, prefix in SECTIONS:
            assert set(cp[section]) == {prefix + f.name
                                        for f in dataclasses.fields(cls)}


class TestPipeline:
    def test_missing_cube_fails_before_any_computation(self, tmp_path):
        pipeline_ini = make_scene(tmp_path)
        text = pipeline_ini.read_text()
        text = text.replace("cube_header = cube.hdr\n", "")
        broken = pipeline_ini.parent / "broken.ini"
        broken.write_text(text)
        config = load_config(broken, out_override=str(tmp_path / "broken_out"))
        with pytest.raises(ConfigError, match="cube_header"):
            run_pipeline(config)
        assert not (tmp_path / "broken_out").exists()

    def test_full_run_artifacts(self, tmp_path):
        pipeline_ini = make_scene(tmp_path)
        out = tmp_path / "out1"
        config = load_config(pipeline_ini, out_override=str(out))
        result = run_pipeline(config)
        assert result.completed[-1] == "report"
        for name in ("chm.asc", "crown_labels.asc", "crowns.csv",
                     "bands.txt", "model.txt", "species_labels.asc",
                     "species_legend.csv", "inventory.csv", "metrics.csv",
                     "metrics.txt", "plot_totals.csv", "report.txt",
                     "manifest.txt", "timings.txt", "split.csv"):
            assert (out / name).exists(), name
        manifest = (out / "manifest.txt").read_text()
        assert "status ok" in manifest
        assert "stage report complete" in manifest

    def test_manifest_counts_match_the_tables(self, tmp_path):
        pipeline_ini = make_scene(tmp_path)
        out = tmp_path / "out"
        run_pipeline(load_config(pipeline_ini, out_override=str(out)))
        lines = (out / "manifest.txt").read_text().splitlines()
        counts = {}
        stage = None
        for line in lines:
            words = line.split()
            if words[0] == "stage":
                stage = words[1]
            elif words[0] == "count":
                assert words[1] == stage, line  # right after its stage
                counts[words[1], words[2]] = int(words[3])
        joined = (out / "joined_species.csv").read_text().splitlines()
        assert counts["join", "matched_crowns"] == len(joined) - 1
        pixels = [v for (st_, name), v in counts.items()
                  if st_ == "statistics" and name.startswith("valid_pixels.")]
        assert len(pixels) == 2
        assert sum(pixels) == counts["train", "training_pixels"]
        with open(out / "inventory.csv", newline="") as f:
            inventory = list(csv.DictReader(f))
        unlabeled = sum(row["species_code"] == "" for row in inventory)
        assert counts["enrich", "skipped_unlabeled"] == unlabeled
        assert counts["label", "unlabeled_crowns"] == unlabeled
        assert counts["enrich", "zero_volume_below_d0"] == sum(
            row["volume"] != "" and float(row["volume"]) == 0
            for row in inventory)
        labels = (out / "species_labels.asc").read_text().split("\n", 6)[6]
        assert counts["classify", "pixels_classified"] == sum(
            v != "-9999" for v in labels.split())
        bands = len((out / "bands.txt").read_text().split(",")) - 2
        assert counts["select", "criterion_evaluations"] > bands
        with open(out / "crowns.csv", newline="") as f:
            assert counts["crowns", "crowns"] == len(list(csv.DictReader(f)))
        crown_labels = (out / "crown_labels.asc").read_text().split("\n", 6)[6]
        assert counts["crowns", "crown_cells"] == sum(
            v != "-9999" for v in crown_labels.split())
        assert {st_ for st_, _ in counts} == {
            "chm", "crowns", "spectral", "join", "statistics", "select",
            "train", "classify", "label", "enrich"}
        assert list(out.glob("*_report.txt")) == []
        layers = len(PitfreeParams().height_thresholds)
        assert [name for st_, name in counts if st_ == "chm"] == [
            f"layer{i}.{what}" for i in range(layers)
            for what in ("points", "triangles", "tiles", "dropped")
        ] + ["fallback_layers"]
        points = [counts["chm", f"layer{i}.points"] for i in range(layers)]
        assert points == sorted(points, reverse=True) and points[0] > 0

    def test_threads_change_only_the_manifest_threads_line(self, tmp_path,
                                                           monkeypatch):
        # tiles of ~300 points, so that several tiles are in flight
        monkeypatch.setattr(chm_mod, "_TILE_POINTS", 300)
        pipeline_ini = make_scene(tmp_path)
        outs = []
        for threads in (1, 2, 3):
            out = tmp_path / f"t{threads}"
            assert main(["run", "--config", str(pipeline_ini), "--out",
                         str(out), "--threads", str(threads)]) == 0
            outs.append(out)
        manifests = [(o / "manifest.txt").read_text().splitlines()
                     for o in outs]
        assert "count chm layer0.tiles 1" not in manifests[0]
        for threads, lines in zip((1, 2, 3), manifests):
            assert lines.count(f"threads {threads}") == 1
            assert ([ln for ln in lines if not ln.startswith("threads ")]
                    == [ln for ln in manifests[0]
                        if not ln.startswith("threads ")])
        names = sorted(p.name for p in outs[0].iterdir())
        for out in outs[1:]:
            assert sorted(p.name for p in out.iterdir()) == names
            for name in names:
                if name not in ("timings.txt", "manifest.txt"):
                    assert ((out / name).read_bytes()
                            == (outs[0] / name).read_bytes()), name

    def test_timings_record_peak_rss_per_stage(self, tmp_path):
        pipeline_ini = make_scene(tmp_path)
        out = tmp_path / "out"
        run_pipeline(load_config(pipeline_ini, out_override=str(out)),
                     stop_after="crowns")
        lines = (out / "timings.txt").read_text().splitlines()
        assert [ln.split()[0] for ln in lines] == [
            "terrain", "normalize", "chm", "crowns"]
        rss = [float(re.fullmatch(r"\S+ [0-9.]+s peak_rss ([0-9.]+)MiB",
                                  ln).group(1)) for ln in lines]
        assert rss == sorted(rss) and rss[0] > 0

    def test_stop_after_stage(self, tmp_path):
        pipeline_ini = make_scene(tmp_path)
        out = tmp_path / "out2"
        config = load_config(pipeline_ini, out_override=str(out))
        result = run_pipeline(config, stop_after="crowns")
        assert result.completed == ["terrain", "normalize", "chm", "crowns"]
        assert (out / "crowns.csv").exists()
        assert not (out / "model.txt").exists()
        manifest = (out / "manifest.txt").read_text()
        assert "stage train not-run" in manifest

    def test_chm_takes_the_cube_grid_and_reads_no_sample(self, tmp_path,
                                                         monkeypatch):
        pipeline_ini = make_scene(tmp_path)
        header, data = (pipeline_ini.parent / name
                        for name in ("cube.hdr", "cube.dat"))
        clean = tmp_path / "clean"
        with monkeypatch.context() as m:
            m.setattr(np, "fromfile", None)   # any sample read fails
            run_pipeline(load_config(pipeline_ini, out_override=str(clean)),
                         stop_after="chm")
        cube = read_envi_cube(header, data)
        chm = read_ascii_grid(clean / "chm.asc")
        assert ((chm.ncols, chm.nrows, chm.xll, chm.yll, chm.cellsize)
                == (cube.ncols, cube.nrows, cube.xll, cube.yll,
                    cube.cellsize))
        # NaN samples of the same length give the same CHM
        data.write_bytes(np.full(cube.nbands * cube.nrows * cube.ncols,
                                 np.nan, "<f4").tobytes())
        nan = tmp_path / "nan"
        run_pipeline(load_config(pipeline_ini, out_override=str(nan)),
                     stop_after="chm")
        assert (nan / "chm.asc").read_bytes() == (clean / "chm.asc").read_bytes()
        # a data file one byte short still fails the chm stage
        data.write_bytes(data.read_bytes()[:-1])
        short = tmp_path / "short"
        assert main(["run", "--config", str(pipeline_ini),
                     "--out", str(short)]) == 3
        assert "stage chm failed" in (short / "manifest.txt").read_text()

    def test_smooth_chm_runs_through(self, tmp_path):
        pipeline_ini = make_scene(tmp_path)
        plain = tmp_path / "plain"
        run_pipeline(load_config(pipeline_ini, out_override=str(plain)),
                     stop_after="crowns")
        assert "[crowns]" not in pipeline_ini.read_text()
        with open(pipeline_ini, "a") as f:
            f.write("\n[crowns]\nsmooth_chm = true\n")
        config = load_config(pipeline_ini, out_override=str(tmp_path / "o"))
        assert config.itc.smooth_chm
        result = run_pipeline(config)
        assert result.completed[-1] == "report"
        assert "status ok" in (tmp_path / "o" / "manifest.txt").read_text()
        assert ((tmp_path / "o" / "crown_labels.asc").read_bytes()
                != (plain / "crown_labels.asc").read_bytes())

    def test_each_entry_is_freed_after_its_last_reader(self, tmp_path):
        pipeline_ini = make_scene(tmp_path)
        config = load_config(pipeline_ini, out_override=str(tmp_path / "a"))
        result = run_pipeline(config, stop_after="select")
        # select's parameters and the entry it produced
        assert set(result.context) == {"config", "cube", "class_stats",
                                       "bands"}
        # the normalized cube is a view: one grid of means over the file
        cube = result.context["cube"]
        assert isinstance(cube, CubeFile)
        assert [d.shape for d in cube.divisors] == [(cube.nrows, cube.ncols)]
        config = load_config(pipeline_ini, out_override=str(tmp_path / "b"))
        result = run_pipeline(config)
        # exactly the report stage's parameters
        assert set(result.context) == {"config", "crowns", "truth_species",
                                       "split", "bands", "confusion",
                                       "plot_totals"}

    def test_runs_where_the_c_library_has_no_malloc_trim(self, tmp_path,
                                                         monkeypatch):
        pipeline_ini = make_scene(tmp_path, classifier="svm")
        run_pipeline(load_config(pipeline_ini,
                                 out_override=str(tmp_path / "trim")))
        monkeypatch.setattr(pipeline_mod.ctypes, "CDLL",
                            lambda name: object())
        assert pipeline_mod._libc_malloc_trim() is None
        monkeypatch.setattr(pipeline_mod, "_MALLOC_TRIM", None)
        result = run_pipeline(load_config(pipeline_ini,
                                          out_override=str(tmp_path / "no")))
        assert result.completed[-1] == "report"
        names = sorted(p.name for p in (tmp_path / "trim").iterdir())
        assert sorted(p.name for p in (tmp_path / "no").iterdir()) == names
        for name in names:
            if name != "timings.txt":
                assert ((tmp_path / "no" / name).read_bytes()
                        == (tmp_path / "trim" / name).read_bytes()), name

    def test_failure_leaves_manifest(self, tmp_path):
        pipeline_ini = make_scene(tmp_path)
        # corrupt the ground truth so the join stage fails mid-pipeline
        gt = pipeline_ini.parent / "ground_truth.csv"
        gt.write_text("x,y,species,role\n-500.0,-500.0,PIAB,unassigned\n")
        out = tmp_path / "out3"
        config = load_config(pipeline_ini, out_override=str(out))
        with pytest.raises(Exception, match="stage join"):
            run_pipeline(config)
        manifest = (out / "manifest.txt").read_text()
        assert "stage chm complete" in manifest
        assert "stage join failed" in manifest
        assert "status failed" in manifest
        # counters of the stages that finished, none of the failed one
        assert "count spectral bands_after_trim 10\n" in manifest
        assert "count join " not in manifest
        assert (out / "chm.asc").exists()

    def test_deterministic_reruns(self, tmp_path):
        pipeline_ini = make_scene(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        run_pipeline(load_config(pipeline_ini, out_override=str(out_a)))
        run_pipeline(load_config(pipeline_ini, out_override=str(out_b)))
        names_a = sorted(p.name for p in out_a.iterdir())
        names_b = sorted(p.name for p in out_b.iterdir())
        assert names_a == names_b
        for name in names_a:
            if name == "timings.txt":  # wall clock, intentionally excluded
                continue
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_exclude_band_outside_the_cube(self, tmp_path):
        pipeline_ini = make_scene(tmp_path)
        text = pipeline_ini.read_text().replace(
            "[spectral]\n", "[spectral]\nexclude_bands = 1, 999\n")
        pipeline_ini.write_text(text)
        config = load_config(pipeline_ini, out_override=str(tmp_path / "o"))
        with pytest.raises(ConfigError, match="index 999 .* 10 bands"):
            run_pipeline(config, stop_after="select")

    def test_inputs_never_mutated(self, tmp_path):
        pipeline_ini = make_scene(tmp_path)
        scene_dir = pipeline_ini.parent
        before = {p.name: p.read_bytes() for p in scene_dir.iterdir()
                  if p.is_file()}
        run_pipeline(load_config(pipeline_ini,
                                 out_override=str(tmp_path / "out4")))
        after = {p.name: p.read_bytes() for p in scene_dir.iterdir()
                 if p.is_file()}
        assert before == after


def reference_training_pixels(owner, truth, train_ids, seed, cap):
    """The per-cell loop over crown cell sets that the raster replaced."""
    cells = {}
    for cid in train_ids:
        crown_cells = set(zip(*np.nonzero(owner == cid)))
        cells.setdefault(truth[cid], []).extend(sorted(crown_cells))
    rng = np.random.default_rng(seed + 1)
    out = {}
    for sp in sorted(cells):
        arr = np.array(cells[sp], dtype=np.intp)
        if len(arr) > cap:
            arr = arr[rng.choice(len(arr), size=cap, replace=False)]
            arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
        out[sp] = arr
    return out


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(1, 12),
       st.integers(1, 8), st.integers(1, 30))
def test_training_pixels_match_per_cell_reference(seed, nrows, ncols,
                                                  n_crowns, cap):
    rng = np.random.default_rng(seed)
    # non-contiguous crown ids scattered over the raster, so that global
    # row-major order differs from crown-by-crown order
    n_crowns = min(n_crowns, nrows * ncols)
    ids = np.sort(rng.choice(np.arange(1, 50), n_crowns, replace=False))
    cells = rng.choice(np.concatenate(([0], ids)), nrows * ncols)
    cells[:n_crowns] = ids
    owner = rng.permutation(cells).reshape(nrows, ncols).astype(np.int32)
    truth = {int(cid): str(rng.choice(["ABAL", "FASY", "PIAB"]))
             for cid in ids}
    train_ids = tuple(int(cid) for cid in ids if rng.random() < 0.7)
    flat, labels = _training_pixels(owner, truth, train_ids, seed, cap)
    expected = reference_training_pixels(owner, truth, train_ids, seed, cap)
    assert flat.dtype == np.intp
    np.testing.assert_array_equal(
        flat, [r * ncols + c for cells in expected.values() for r, c in cells])
    assert labels.tolist() == [sp for sp, cells in expected.items()
                               for _ in cells]


def test_zero_mean_training_pixels_are_dropped_and_reported(tmp_path):
    """A species whose every training pixel has spectral mean 0 keeps an
    empty block and is reported as skipped; one zero-mean pixel of
    another species leaves its block and the training matrix."""
    cfg = tmp_path / "scene.ini"
    cfg.write_text(SCENE_INI.format(classifier="centroid", seed=11,
                                    outdir="scene").replace(
        "species = PIAB, FASY", "species = PIAB, FASY, ABAL"))
    assert main(["synth", "--config", str(cfg)]) == 0
    pipeline_ini = tmp_path / "scene" / "pipeline.ini"
    config = load_config(pipeline_ini, out_override=str(tmp_path / "split"))
    context = run_pipeline(config, stop_after="split").context
    crown_labels = read_ascii_grid(tmp_path / "split" / "crown_labels.asc")
    owner = np.where(crown_labels.valid_mask(), crown_labels.values,
                     0).astype(np.int32)
    flat, labels = _training_pixels(
        owner, context["truth_species"], context["split"].train_ids,
        config.run.seed, config.spectral.max_training_pixels_per_species)
    species = np.unique(labels)
    assert len(species) == 3
    skipped, thinned = species[:2]
    cube = read_envi_cube(config.paths["cube_header"],
                          config.paths["cube_data"])
    samples = np.memmap(config.paths["cube_data"], dtype=cube.dtype,
                        mode="r+", shape=(cube.nbands, cube.nrows * cube.ncols))
    samples[:, flat[labels == skipped]] = 0.0
    samples[:, flat[labels == thinned][0]] = 0.0
    samples.flush()
    del samples

    out = tmp_path / "train"
    run_pipeline(load_config(pipeline_ini, out_override=str(out)),
                 stop_after="train")
    manifest = (out / "manifest.txt").read_text()
    assert f"count statistics skipped.{skipped} 1\n" in manifest
    assert f"valid_pixels.{skipped}" not in manifest
    n_thinned = int((labels == thinned).sum()) - 1
    assert f"count statistics valid_pixels.{thinned} {n_thinned}\n" in manifest
    n_kept = len(flat) - int((labels == skipped).sum()) - 1
    assert f"count train training_pixels {n_kept}\n" in manifest


PROJECTED_INI = """\
[spectral]
k = 4

[paths]
dtm = dtm.asc
point_cloud = points.csv
cube_header = cube.hdr
cube_data = cube.dat
ground_truth = ground_truth.csv
plots = plots.csv
observed_plots = truth_plots.csv

[run]
seed = 5
output_dir = run_out
"""


def moved_scene(data, dx, dy):
    """The scene translated by (dx, dy) metres."""
    cloud, cube, dtm = data.cloud, data.cube, data.dtm

    def move(point, x="x", y="y"):
        return dataclasses.replace(point, **{x: getattr(point, x) + dx,
                                             y: getattr(point, y) + dy})

    return dataclasses.replace(
        data,
        dtm=dataclasses.replace(dtm, xll=dtm.xll + dx, yll=dtm.yll + dy),
        cloud=PointCloud.from_xyz(cloud.x + dx, cloud.y + dy, cloud.z,
                                  return_number=cloud.return_number,
                                  is_ground=cloud.is_ground),
        cube=dataclasses.replace(cube, xll=cube.xll + dx, yll=cube.yll + dy),
        ground_truth=[move(p) for p in data.ground_truth],
        plots=tuple(move(p, "center_x", "center_y") for p in data.plots),
        truth_trees=[move(t, "apex_x", "apex_y") for t in data.truth_trees])


def test_pipeline_at_projected_coordinates(tmp_path):
    # 16 trees at 10 points/m2 put about 32,000 points in layer 0, so
    # the CHM is triangulated in tiles. Snapped to 1 mm, every x, y keeps
    # its value through the 10-digit point writer at a 5e6 m northing.
    data = generate_scene(random_scene(
        SceneConfig(n_trees=16, species=("PIAB", "FASY"), nbands=10,
                    n_plots=2), seed=5))
    cloud = data.cloud
    data = dataclasses.replace(data, cloud=PointCloud.from_xyz(
        np.round(cloud.x, 3), np.round(cloud.y, 3), cloud.z,
        return_number=cloud.return_number, is_ground=cloud.is_ground))
    chms = []
    for name, scene in (("local", data),
                        ("utm", moved_scene(data, 5e5, 5e6))):
        write_scene(scene, tmp_path / name)
        (tmp_path / name / "pipeline.ini").write_text(PROJECTED_INI)
        assert main(["run", "--config",
                     str(tmp_path / name / "pipeline.ini")]) == 0
        out = tmp_path / name / "run_out"
        manifest = (out / "manifest.txt").read_text().splitlines()
        tiles = [line for line in manifest
                 if line.startswith("count chm layer0.tiles ")]
        assert len(tiles) == 1 and int(tiles[0].split()[-1]) > 1
        assert "count chm fallback_layers 0" in manifest
        assert "status ok" in manifest
        chms.append(read_ascii_grid(out / "chm.asc"))
    local, utm = chms
    assert (utm.xll, utm.yll) == (local.xll + 5e5, local.yll + 5e6)
    np.testing.assert_array_equal(np.isnan(local.values),
                                  np.isnan(utm.values))
    np.testing.assert_allclose(utm.values, local.values, rtol=0, atol=1e-6)
    # the same crowns get the same species; the headers hold the offset
    for name in ("crown_labels.asc", "species_labels.asc"):
        local_rows, utm_rows = (
            (tmp_path / scene / "run_out" / name).read_text().splitlines()[6:]
            for scene in ("local", "utm"))
        assert local_rows == utm_rows, name


def fresh_python(*args):
    """Run a new interpreter that imports forestinv from ./src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_tracer_spans_every_layer_of_a_run(tmp_path):
    """The benchmark's tracer finds and counts every function it wraps."""
    pipeline_ini = make_scene(tmp_path, classifier="svm")
    spans_path = tmp_path / "spans.json"
    proc = fresh_python(str(ROOT / "perfbench" / "tracer.py"),
                        str(spans_path), "run", "--config", str(pipeline_ini),
                        "--out", str(tmp_path / "traced"))
    assert not [line for line in proc.stderr.splitlines()
                if line.startswith("tracer:")]
    spans = json.loads(spans_path.read_text())
    train = [s for s in spans if s[0] == "classify.train"]
    assert len(train) == 1 and train[0][4]["support_vectors"] > 0


def test_the_cli_and_synth_load_no_scipy(tmp_path):
    cfg = tmp_path / "scene.ini"
    cfg.write_text(SCENE_INI.format(classifier="centroid", seed=3,
                                    outdir="scene"))
    proc = fresh_python("-c", """if True:
        import sys
        from forestinv.cli import main
        loaded = lambda: sorted(m for m in sys.modules
                                if m.split(".")[0] == "scipy")
        print(loaded())
        assert main(["synth", "--config", sys.argv[1]]) == 0
        assert main(["table6-check"]) == 0
        print(loaded())
        """, str(cfg))
    lines = proc.stdout.splitlines()
    assert lines[0] == "[]" and lines[-1] == "[]", proc.stdout
    assert (tmp_path / "scene" / "pipeline.ini").exists()


def test_chm_workers_start_after_scipy_is_imported(tmp_path):
    """A fresh `run --threads 2` on a tiled scene imports scipy.spatial
    on the calling thread before its pool starts."""
    pipeline_ini = make_scene(tmp_path)
    out = tmp_path / "run"
    proc = fresh_python("-c", """if True:
        import sys
        from forestinv import chm
        from forestinv.cli import main

        class Pool(chm.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                print("pool", "scipy.spatial" in sys.modules)
                super().__init__(*args, **kwargs)

        chm.ThreadPoolExecutor = Pool
        chm._TILE_POINTS = 300
        print("start", "scipy" in sys.modules)
        sys.exit(main(["run", "--config", sys.argv[1], "--out", sys.argv[2],
                       "--threads", "2", "--stage", "chm"]))
        """, str(pipeline_ini), str(out))
    assert proc.stdout.splitlines()[:2] == ["start False", "pool True"]
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "status ok" in manifest
    assert "count chm layer0.tiles 1" not in manifest


class TestCli:
    def test_exit_code_config_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.ini"
        assert main(["run", "--config", str(missing)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_exit_code_data_error(self, tmp_path, capsys):
        pipeline_ini = make_scene(tmp_path)
        (pipeline_ini.parent / "points.csv").write_text("x,y,z\n1,2,abc\n")
        code = main(["run", "--config", str(pipeline_ini),
                     "--out", str(tmp_path / "bad_out")])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("name, text, where", [
        ("points.csv", "x,y,z\n1,2,nan\n", "column 'z'"),
        ("points.csv", "x,y,z,return_number,is_ground\n1,2,3,1,0\n"
                       "-inf,2,3,1,0\n", "column 'x' at point 1"),
        ("points.csv", "x,y,z,return_number,is_ground\n1,2,3,1,0\n"
                       "1,2,3,1.9,0\n", "column 'return_number' at point 1"),
        ("points.csv", "x,y,z,return_number,is_ground\n1,2,3,1,0\n"
                       "1,2,3,4294967297,0\n",
         "column 'return_number' at point 1"),
        ("points.csv", "x,y,z,return_number,is_ground\n1,2,3,0,0\n",
         "column 'return_number' at point 0"),
        ("points.csv", "x,y,z,return_number,is_ground\n1,2,3,1,0\n"
                       "2,2,3,1,0\n1,3,3,2,0.5\n",
         "column 'is_ground' at point 2"),
        ("truth_plots.csv", "plot_id,volume_m3,agb_mg,n_trees\n"
                            "1,2.5,abc,3\n", "line 2"),
        ("truth_plots.csv", "plot_id,volume_m3,agb_mg,n_trees\n"
                            "1,2.5,1.0,3\n2,2.5\n", "line 3"),
        ("dtm.asc", "NCOLS 1\nNROWS 1\nXLLCORNER 0\nYLLCORNER 0\n"
                    "CELLSIZE 0\n500\n", "cellsize must be > 0"),
        # the Horn differences of the middle window overflow
        ("dtm.asc", "NCOLS 3\nNROWS 3\nXLLCORNER 0\nYLLCORNER 0\n"
                    "CELLSIZE 1\n500 500 500\n-1e308 500 500\n500 500 500\n",
         "the slope at row 2, column 2 overflows"),
        # headers far larger than their data are refused before allocating
        ("dtm.asc", "NCOLS 1000000\nNROWS 1000000\nXLLCORNER 0\n"
                    "YLLCORNER 0\nCELLSIZE 1\n500\n",
         "found 1 data rows, expected 1000000"),
        ("dtm.asc", "NCOLS 1000000000000\nNROWS 1\nXLLCORNER 0\n"
                    "YLLCORNER 0\nCELLSIZE 1\n500\n",
         "row 1 (line 6) has 1 values, expected 1000000000000"),
        ("plots.csv", "plot_id,center_x,center_y,radius,dbh_min\n"
                      "1,20,20,nan,7.5\n", "line 2"),
        ("ground_truth.csv", "x,y,species,role\nnan,9.75,PIAB,train\n",
         "line 2"),
        ("plots.csv", "plot_id,center_x,center_y,radius,dbh_min\n"
                      "1,20,20,15,7.5\n1,30,30,15,7.5\n",
         "line 3: duplicate plot_id 1"),
        ("truth_plots.csv", "plot_id,volume_m3,agb_mg,n_trees\n"
                            "1,2.5,1.0,3\n1,2.5,1.0,3\n",
         "line 3: duplicate plot_id 1"),
        ("truth_plots.csv", "plot_id,volume_m3,agb_mg,n_trees\n"
                            "1,2.5,1.0,3\n2,-5,-3,-1\n",
         "line 3: volume, agb and n_trees must be >= 0"),
        ("points.csv", "x,y,z\n1,2,3\n# junk\n4,5,6\n", "line 3"),
        ("ground_truth.csv", "x,y,species,role,height\n"
                             "9.75,9.75,PIAB,train,20\n", "line 1"),
    ])
    def test_bad_input_file_exits_3(self, tmp_path, capsys, name, text,
                                    where):
        pipeline_ini = make_scene(tmp_path)
        (pipeline_ini.parent / name).write_text(text)
        out = tmp_path / "bad_out"
        assert main(["run", "--config", str(pipeline_ini),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and name in err and where in err
        manifest = (out / "manifest.txt").read_text()
        assert f"stage {FIRST_STAGE[name]} failed" in manifest
        assert "status failed" in manifest

    def test_header_only_point_cloud_exits_3_without_a_warning(
            self, tmp_path, capsys):
        pipeline_ini = make_scene(tmp_path)
        (pipeline_ini.parent / "points.csv").write_text(
            "x,y,z,return_number,is_ground\n")
        out = tmp_path / "bad_out"
        # record, rather than let pytest collect, what would reach stderr
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", "--config", str(pipeline_ini),
                         "--out", str(out)]) == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"data error: stage normalize: "
            f"{pipeline_ini.parent / 'points.csv'}: no data lines"]
        manifest = (out / "manifest.txt").read_text()
        assert "stage normalize failed" in manifest

    @pytest.mark.parametrize("old, new, where", [
        # one wavelength more than there are bands
        ("wavelength = {", "wavelength = {0.001, ", "one wavelength per band"),
        # map info pixel size 0
        (", 0.5, 0.5}", ", 0, 0}", "cellsize must be > 0"),
        # a reference pixel that puts the grid far north of the points
        ("{projected, 1, 1,", "{projected, 1, 1e308,",
         "does not overlap the point cloud"),
    ])
    def test_bad_cube_header_exits_3(self, tmp_path, capsys, old, new, where):
        pipeline_ini = make_scene(tmp_path)
        path = pipeline_ini.parent / "cube.hdr"
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        out = tmp_path / "bad_out"
        assert main(["run", "--config", str(pipeline_ini),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "cube.hdr" in err and where in err
        assert "stage chm failed" in (out / "manifest.txt").read_text()

    @pytest.mark.parametrize("old, new, data", [
        # no columns, with the 0-byte data file that this implies
        ("samples = 140", "samples = 0", b""),
        # two negative sizes whose product matches the data file
        ("samples = 140\nlines = 140", "samples = -140\nlines = -140", None),
    ])
    def test_cube_size_below_1_exits_3(self, tmp_path, capsys, old, new,
                                       data):
        pipeline_ini = make_scene(tmp_path)
        path = pipeline_ini.parent / "cube.hdr"
        text = path.read_text()
        assert old in text
        path.write_text(text.replace(old, new, 1))
        if data is not None:
            (pipeline_ini.parent / "cube.dat").write_bytes(data)
        out = tmp_path / "bad_out"
        assert main(["run", "--config", str(pipeline_ini),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "cube.hdr: samples must be >= 1" in err
        assert "stage chm failed" in (out / "manifest.txt").read_text()

    def test_unknown_truth_species_exits_3(self, tmp_path, capsys):
        pipeline_ini = make_scene(tmp_path)
        path = pipeline_ini.parent / "ground_truth.csv"
        lines = path.read_text().splitlines()
        for i in range(7, len(lines), 7):  # every 7th data row
            lines[i] = lines[i].replace(",PIAB,", ",ZZZZ,").replace(
                ",FASY,", ",ZZZZ,")
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(pipeline_ini),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert "ground_truth.csv: line 8: unknown species 'ZZZZ'" in err, err
        assert "stage join failed" in (out / "manifest.txt").read_text()
        # the registry is the defaults plus [registry]
        with open(pipeline_ini, "a") as f:
            f.write("\n[registry]\nzzzz = gymnosperm, fallback=PIAB\n")
        assert main(["run", "--config", str(pipeline_ini), "--stage", "join",
                     "--out", str(out)]) == 0
        assert ",ZZZZ" in (out / "joined_species.csv").read_text()

    def test_ground_truth_outside_the_chm_exits_3(self, tmp_path, capsys):
        pipeline_ini = make_scene(tmp_path)
        path = pipeline_ini.parent / "ground_truth.csv"
        lines = path.read_text().splitlines()
        out = tmp_path / "out"
        # inside the extent but in no crown: a counted unmatched point
        path.write_text("\n".join(lines + ["0.1,0.1,PIAB,train"]) + "\n")
        assert main(["run", "--config", str(pipeline_ini), "--stage", "join",
                     "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        assert "count join unmatched_points 1" in manifest
        lines.insert(2, "-5000,9.75,PIAB,train")
        path.write_text("\n".join(lines) + "\n")
        assert main(["run", "--config", str(pipeline_ini),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert ("ground_truth.csv: line 3: point (-5000, 9.75) lies outside "
                "the CHM extent" in err), err
        assert "stage join failed" in (out / "manifest.txt").read_text()

    def test_huge_ground_truth_coordinate_exits_3_without_warning(
            self, tmp_path, capsys):
        pipeline_ini = make_scene(tmp_path)
        (pipeline_ini.parent / "ground_truth.csv").write_text(
            "x,y,species\n1e300,5,PIAB\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["run", "--config", str(pipeline_ini),
                         "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert ("ground_truth.csv: line 2: point (1e300, 5) lies outside "
                "the CHM extent" in err), err

    def test_plot_outside_the_chm_exits_3(self, tmp_path, capsys):
        pipeline_ini = make_scene(tmp_path)
        path = pipeline_ini.parent / "plots.csv"
        lines = path.read_text().splitlines()
        lines.insert(2, "99,900000,20,15,7.5")
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(pipeline_ini),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert ("plots.csv: line 3: plot circle at (900000, 20) does not "
                "meet the CHM extent" in err), err
        assert "stage plots failed" in (out / "manifest.txt").read_text()
        assert not (out / "plot_totals.csv").exists()

    @pytest.mark.parametrize("text, table, code, expect", [
        ("[crowns]\nmax_dist = 1e200\n", None, 0, "R (volume) = "),
        # one crown is left: the message counts the training crowns and
        # each species' valid pixels
        ("[crowns]\nmin_dist = 1e200\nmax_dist = 1e200\n", None, 3,
         "stage statistics: fewer than two species have enough training "
         "pixels (training crowns: 1; valid pixels: FASY 241)"),
        ("", ("plots.csv", "radius", "1e300", [1]), 0, "R (volume) = "),
        ("[allometry]\ndbh_coeff_b = 400\n", None, 4, "overflows"),
        ("[allometry]\ndbh_sigma = 1e200\n", None, 4, "overflows"),
        ("[allometry]\ndbh_coeff_a = 1e308\n", None, 4, "overflows"),
        ("", ("truth_plots.csv", "volume_m3", "1.7e308", [1, 2]), 0,
         "R (volume) undefined: correlation undefined: the sums overflow"),
    ], ids=["max_dist", "min_dist", "radius", "dbh_coeff_b", "dbh_sigma",
            "dbh_coeff_a", "truth_volume"])
    def test_extreme_finite_value_exits_with_a_code(self, tmp_path, capsys,
                                                    text, table, code,
                                                    expect):
        # squares, powers and sums beyond the float range end in an exit
        # code (4 if no result can be had) or a report line, never in a
        # traceback or a NaN
        pipeline_ini = make_scene(tmp_path)
        with open(pipeline_ini, "a") as f:
            f.write("\n" + text)
        if table is not None:
            name, column, value, rows = table
            path = pipeline_ini.parent / name
            lines = [line.split(",") for line in path.read_text().splitlines()]
            for i in rows:
                lines[i][lines[0].index(column)] = value
            path.write_text("".join(",".join(c) + "\n" for c in lines))
        out = tmp_path / "out"
        assert main(["run", "--config", str(pipeline_ini),
                     "--out", str(out)]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if code:
            assert expect in err, err
            assert "status failed" in (out / "manifest.txt").read_text()
        else:
            report = (out / "report.txt").read_text()
            assert expect in report and "nan" not in report, report

    @pytest.mark.parametrize("text", ["dbh_coeff_b = 400",
                                      "dbh_sigma = 1e200",
                                      "dbh_coeff_a = 1e308"])
    def test_synth_with_overflowing_allometry_exits_4(self, tmp_path, capsys,
                                                      text):
        cfg = tmp_path / "scene.ini"
        cfg.write_text("[scene]\nn_trees = 4\nnbands = 4\nn_plots = 1\n"
                       f"[run]\noutput_dir = scene\n[allometry]\n{text}\n")
        assert main(["synth", "--config", str(cfg)]) == 4
        err = capsys.readouterr().err
        assert "numerical failure" in err and "overflows" in err, err
        assert "Traceback" not in err

    def test_relative_out_resolves_against_the_cwd(self, tmp_path,
                                                   monkeypatch):
        pipeline_ini = make_scene(tmp_path)
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        assert main(["chm", "--config", str(pipeline_ini),
                     "--out", "run1"]) == 0
        assert (work / "run1" / "chm.asc").exists()
        assert not (pipeline_ini.parent / "run1").exists()

    @pytest.mark.parametrize("text, flags, names", [
        ("[crowns]\nmin_dsit = 4\n", [], ("[crowns]", "min_dsit")),
        ("[chm]\nfirst_returns_only = ture\n", [],
         ("[chm]", "first_returns_only")),
        ("[run]\noutput_dir = a%b\n", [], ("[run]", "output_dir")),
        ("[spectral]\ndrop_head = -1\n", [], ("[spectral]", "drop_head")),
        ("", ["--threads", "0"], ("[run]", "threads")),
        ("", ["--seed", "-1"], ("[run]", "seed")),
        *[(f"[spectral]\nmax_training_pixels_per_species = {cap}\n", [],
           ("[spectral]", "max_training_pixels_per_species must be >= 2"))
          for cap in (-1, 0, 1)],
        ("[classify]\nc = inf\n", [], ("[classify]", "c must be finite")),
        ("[classify]\ngamma = inf\n", [],
         ("[classify]", "gamma must be finite")),
        *[(f"[{section}]\n{key} = {value}\n", [],
           (f"[{section}] {key} must be finite",))
          for section, key, value in [
              ("allometry", "dbh_coeff_a", "nan"),
              ("allometry", "dbh_sigma", "inf"),
              ("crowns", "height_threshold", "nan"),
              ("crowns", "max_dist", "inf"),
              ("crowns", "win_high_height", "inf"),
              ("chm", "subcircle_radius", "nan"),
              ("chm", "height_thresholds", "0, nan"),
              ("chm", "max_edge", "inf"),
              ("chm", "resolution", "inf")]],
        *[(f"[registry]\nzzzz = gymnosperm, {params}\n", [],
           ("[registry] zzzz: volume parameters must be finite",))
          for params in ("nan, 1, 1, 1", "1, 1, 1, inf")],
    ])
    def test_bad_config_exits_2(self, tmp_path, capsys, text, flags, names):
        cfg = tmp_path / "scene.ini"
        cfg.write_text("[scene]\nn_trees = 1\nnbands = 4\n" + text)
        assert main(["synth", "--config", str(cfg), *flags]) == 2
        err = capsys.readouterr().err
        assert all(n in err for n in names), err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_unknown_section_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "scene.ini"
        cfg.write_text("[DEFAULT]\nseed = 3\n[scene]\nn_trees = 1\n"
                       "nbands = 4\n[crown]\nmin_dist = 4\n")
        assert main(["synth", "--config", str(cfg)]) == 2
        assert "unknown section(s) [crown]" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("key, value", [
        ("shape", "bogus"), ("terrain", "mars"), ("point_density", "0"),
        ("radius_min", "-1"), ("n_trees", "0"), ("species", ""),
        ("nbands", "0"), ("pitch", "0"), ("height_min", "30"),
        ("margin", "-50"), ("plot_radius", "1000"),
        ("point_density", "inf"), ("noise_sigma", "-1"),
        ("noise_sigma", "inf"), ("signature_amplitude", "nan"),
        ("n_plots", "-3"), ("junk_head", "-2"), ("shape", "cube"),
        ("terrain", "moon"), ("point_density", "1e300"),
    ])
    def test_bad_scene_exits_2(self, tmp_path, capsys, key, value):
        scene = {"n_trees": "4", "nbands": "4", key: value}
        cfg = tmp_path / "scene.ini"
        cfg.write_text("[scene]\n"
                       + "".join(f"{k} = {v}\n" for k, v in scene.items())
                       + "[run]\noutput_dir = scene\n")
        # every command checks [scene] when it loads the config; only the
        # plot fit and the point count wait for synth, which draws the
        # extent
        by_synth = (key, value) in {("plot_radius", "1000"),
                                    ("point_density", "1e300")}
        for command in ["synth"] + ["run"] * (not by_synth):
            assert main([command, "--config", str(cfg)]) == 2
            err = capsys.readouterr().err
            assert "[scene]" in err and key in err, (command, err)
            assert list(tmp_path.iterdir()) == [cfg]

    def test_scene_species_must_be_in_the_registry(self, tmp_path, capsys):
        cfg = tmp_path / "scene.ini"
        text = ("[scene]\nn_trees = 4\nnbands = 4\nn_plots = 1\n"
                "species = PIAB, ZZZZ\n[run]\noutput_dir = scene\n")
        cfg.write_text(text)
        assert main(["synth", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "[scene] species" in err and "ZZZZ" in err, err
        assert list(tmp_path.iterdir()) == [cfg]
        # a [registry] species is a scene species, with its fallback's
        # volume parameters in the truth tables
        cfg.write_text(text + "[registry]\nzzzz = gymnosperm, fallback=PIAB\n")
        assert main(["synth", "--config", str(cfg)]) == 0
        with open(tmp_path / "scene" / "truth_trees.csv") as f:
            rows = list(csv.DictReader(f))
        by_species = {r["species"]: r for r in rows}
        assert sorted(by_species) == ["PIAB", "ZZZZ"]
        registry = load_config(cfg).registry
        zzzz = by_species["ZZZZ"]
        params, fallback = registry.volume_params("ZZZZ")
        assert fallback == "PIAB"
        assert float(zzzz["volume"]) == pytest.approx(volume_double_entry(
            float(zzzz["dbh"]), float(zzzz["height"]), params)[0], rel=1e-8)

    def test_scene_truth_uses_the_allometry_section(self, tmp_path):
        def truth_dbh(extra, name):
            cfg = tmp_path / f"{name}.ini"
            cfg.write_text("[scene]\nn_trees = 4\nnbands = 4\nn_plots = 1\n"
                           f"[run]\noutput_dir = {name}\n" + extra)
            assert main(["synth", "--config", str(cfg)]) == 0
            with open(tmp_path / name / "truth_trees.csv") as f:
                return np.array([float(r["dbh"]) for r in csv.DictReader(f)])

        default = truth_dbh("", "default")
        scaled = truth_dbh("[allometry]\ndbh_coeff_a = 0.9\n", "scaled")
        np.testing.assert_allclose(scaled, default * 0.9 / DbhModel().coeff_a,
                                   rtol=1e-8)

    @pytest.mark.parametrize("via_flag", [False, True])
    def test_synth_into_a_file_exits_2_before_generating(
            self, tmp_path, capsys, monkeypatch, via_flag):
        def generate_scene(spec):
            raise AssertionError("the scene was generated")

        monkeypatch.setattr("forestinv.synth.generate_scene", generate_scene)
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        cfg = tmp_path / "scene.ini"
        cfg.write_text(SCENE_INI.format(classifier="centroid", seed=1,
                                        outdir="scene"
                                        if via_flag else "taken"))
        flags = ["--out", str(taken)] if via_flag else []
        assert main(["synth", "--config", str(cfg), *flags]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(taken) in err, err
        assert sorted(tmp_path.iterdir()) == [cfg, taken]
        assert taken.read_text() == "a file\n"

    @pytest.mark.parametrize("via_flag, below", [
        (False, False), (True, False), (True, True)])
    def test_run_into_a_file_exits_2(self, tmp_path, capsys, via_flag,
                                     below):
        pipeline_ini = make_scene(tmp_path)
        # the generated pipeline.ini writes to run_out beside itself
        taken = tmp_path / "taken" if via_flag else (pipeline_ini.parent
                                                     / "run_out")
        taken.write_text("a file\n")
        out = taken / "sub" / "dir" if below else taken
        flags = ["--out", str(out)] if via_flag else []
        assert main(["run", "--config", str(pipeline_ini), *flags]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and str(taken) in err, err
        assert taken.read_text() == "a file\n"

    def test_stage_subcommand(self, tmp_path):
        pipeline_ini = make_scene(tmp_path)
        out = tmp_path / "cli_out"
        assert main(["crowns", "--config", str(pipeline_ini),
                     "--out", str(out)]) == 0
        assert (out / "crowns.csv").exists()
        assert not (out / "model.txt").exists()

    def test_table6_check(self, capsys):
        assert main(["table6-check"]) == 0
        output = capsys.readouterr().out
        assert "R (volume) = 0.93" in output
        assert "R (AGB) = 0.91" in output

    def test_svm_variant_runs(self, tmp_path):
        pipeline_ini = make_scene(tmp_path, classifier="svm", seed=13)
        out = tmp_path / "svm_out"
        assert main(["evaluate", "--config", str(pipeline_ini),
                     "--out", str(out)]) == 0
        metrics = (out / "metrics.txt").read_text()
        assert "Classifier: svm" in metrics
        model = (out / "model.txt").read_text().splitlines()
        manifest = (out / "manifest.txt").read_text()
        svs = sum(line.startswith("sv ") for line in model)
        assert f"count train support_vectors {svs}\n" in manifest
        iterations = re.search(r"count train smo_iterations (\d+)\n",
                               manifest)
        assert int(iterations.group(1)) >= svs > 0
        # a row several pairs keep is one column of the prediction kernel
        union = {tuple(map(float, line.split()[2:])) for line in model
                 if line.startswith("sv ")}
        assert f"count classify support_vector_union {len(union)}\n" in manifest

    def test_plot_id_in_one_table_only_exits_3(self, tmp_path, capsys):
        pipeline_ini = make_scene(tmp_path)
        path = pipeline_ini.parent / "truth_plots.csv"
        lines = path.read_text().splitlines()
        assert lines[1].startswith("1,")
        lines[1] = "99," + lines[1][2:]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(pipeline_ini),
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert ("plot_id 1 of plots.csv is missing from truth_plots.csv"
                in err), err
        assert "stage report failed" in (out / "manifest.txt").read_text()
        lines[1] = "1," + lines[1][3:]
        path.write_text("\n".join(lines + ["99,1,1,1"]) + "\n")
        assert main(["run", "--config", str(pipeline_ini),
                     "--out", str(out)]) == 3
        assert ("plot_id 99 of truth_plots.csv is missing from plots.csv"
                in capsys.readouterr().err)

    def test_missing_observed_plots_exits_2(self, tmp_path, capsys):
        pipeline_ini = make_scene(tmp_path)
        (pipeline_ini.parent / "truth_plots.csv").unlink()
        out = tmp_path / "out"
        assert main(["run", "--config", str(pipeline_ini),
                     "--out", str(out)]) == 2
        assert "truth_plots.csv" in capsys.readouterr().err
        manifest = (out / "manifest.txt").read_text()
        assert "stage report failed: input file(s) not found" in manifest

    def test_seed_override_changes_split(self, tmp_path):
        pipeline_ini = make_scene(tmp_path)
        out_a = tmp_path / "s1"
        out_b = tmp_path / "s2"
        assert main(["run", "--config", str(pipeline_ini), "--out",
                     str(out_a), "--seed", "100"]) == 0
        assert main(["run", "--config", str(pipeline_ini), "--out",
                     str(out_b), "--seed", "101"]) == 0
        assert ((out_a / "split.csv").read_text()
                != (out_b / "split.csv").read_text())


FUZZ_INI = """\
[scene]
n_trees = 9
species = PIAB, FASY
nbands = 8
n_plots = 2
plot_radius = 8
point_density = 4
junk_head = 1
junk_tail = 1

[spectral]
drop_head = 1
drop_tail = 1
k = 3
max_training_pixels_per_species = 100

[classify]
classifier = centroid

[run]
seed = 11
output_dir = scene
"""


@pytest.fixture(scope="module")
def fuzz_scene(tmp_path_factory):
    """A small valid scene that runs to the end."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "scene.ini").write_text(FUZZ_INI)
    assert main(["synth", "--config", str(root / "scene.ini")]) == 0
    scene = root / "scene"
    assert main(["run", "--config", str(scene / "pipeline.ini"),
                 "--out", str(root / "clean")]) == 0
    return scene


def mutate(draw, name, raw):
    """`raw` with one change that no reader may accept: the file cut
    inside the first field of a line, a data row one field short or
    long, one value replaced by nan/inf/text, or a broken header."""
    if name == "cube.dat":
        return raw[:draw(st.integers(0, len(raw) - 1))]
    lines = raw.decode().splitlines(keepends=True)
    if name == "cube.hdr":
        rows = [i for i, ln in enumerate(lines) if "=" in ln]
        ops = ("truncate", "inject", "header")
    else:
        rows = [i for i, ln in enumerate(lines)
                if not ln[0].isalpha()]  # not a header line
        ops = ("truncate", "drop", "add", "inject", "header")
    op = draw(st.sampled_from(ops))
    if op == "header":
        return b"?" + raw[1:]
    if op == "truncate":
        i = draw(st.integers(0, len(lines) - 1))
        first = re.match(r"[^,\s=]+", lines[i]).group()
        return ("".join(lines[:i])
                + lines[i][:draw(st.integers(1, len(first)))]).encode()
    token = draw(st.sampled_from(["nan", "inf", "-inf", "abc"]))
    if op == "inject" and name == "cube.hdr":
        i = draw(st.sampled_from(rows))
        lines[i] = lines[i].split("=")[0] + f"= {token}\n"
        return "".join(lines).encode()
    i = draw(st.sampled_from(rows))
    sep = "," if name.endswith(".csv") else " "
    fields = lines[i].rstrip("\n").split(sep)
    if op == "drop":
        fields.pop()
    elif op == "add":
        fields.append("0")
    else:
        fields[draw(st.integers(0, len(fields) - 1))] = token
    lines[i] = sep.join(fields) + "\n"
    return "".join(lines).encode()


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_mutated_scene_file_fails_in_its_stage(fuzz_scene, data):
    name = data.draw(st.sampled_from(sorted(FIRST_STAGE)))
    with tempfile.TemporaryDirectory(dir=fuzz_scene.parent) as tmp:
        scene = Path(tmp) / "scene"
        shutil.copytree(fuzz_scene, scene)
        path = scene / name
        path.write_bytes(mutate(data.draw, name, path.read_bytes()))
        out = Path(tmp) / "out"
        code = main(["run", "--config", str(scene / "pipeline.ini"),
                     "--out", str(out)])
        assert code in (2, 3, 4)
        manifest = (out / "manifest.txt").read_text().splitlines()
    assert manifest[-1] == "status failed"
    failed = [ln.split()[1] for ln in manifest
              if ln.startswith("stage ") and ln.split()[2] == "failed:"]
    assert failed == [FIRST_STAGE[name]]


def copy_fuzz_scene(fuzz_scene, tmp_path):
    """A copy of the fuzz scene's inputs; returns its pipeline.ini."""
    scene = tmp_path / "scene"
    shutil.copytree(fuzz_scene, scene)
    return scene / "pipeline.ini"


def set_path(pipeline_ini, key, value):
    text = pipeline_ini.read_text()
    pipeline_ini.write_text(re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}",
                                   text))


@pytest.mark.parametrize("key", ["dtm", "point_cloud", "cube_header",
                                 "cube_data", "ground_truth", "plots",
                                 "observed_plots"])
def test_an_input_path_that_is_a_directory_exits_2(fuzz_scene, tmp_path,
                                                   capsys, key):
    pipeline_ini = copy_fuzz_scene(fuzz_scene, tmp_path)
    folder = pipeline_ini.parent / "folder"
    folder.mkdir()
    set_path(pipeline_ini, key, "folder")
    out = tmp_path / "out"
    assert main(["run", "--config", str(pipeline_ini),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"input path(s) not a regular file: {folder}" in err, err
    # the optional tables are checked by the stage that reads them
    if key in ("plots", "observed_plots"):
        manifest = (out / "manifest.txt").read_text()
        assert f"input {key} folder missing" in manifest
        assert "status failed" in manifest
    else:
        assert not out.exists()


def test_a_directory_that_no_planned_stage_reads_is_missing(
        fuzz_scene, tmp_path):
    pipeline_ini = copy_fuzz_scene(fuzz_scene, tmp_path)
    (pipeline_ini.parent / "folder").mkdir()
    set_path(pipeline_ini, "plots", "folder")
    out = tmp_path / "out"
    assert main(["run", "--config", str(pipeline_ini), "--out", str(out),
                 "--stage", "chm"]) == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert "input plots folder missing" in manifest
    assert manifest[-1] == "status ok"


@pytest.mark.parametrize("name", [*sorted(set(FIRST_STAGE) - {"cube.dat"}),
                                  "pipeline.ini"])
@pytest.mark.parametrize("where", ["head", "middle"])
def test_a_byte_that_is_not_utf8_exits_naming_the_file(
        fuzz_scene, tmp_path, capsys, name, where):
    pipeline_ini = copy_fuzz_scene(fuzz_scene, tmp_path)
    path = pipeline_ini.parent / name
    raw = path.read_bytes()
    at = 0 if where == "head" else len(raw) // 2
    path.write_bytes(raw[:at] + b"\xff\xfe" + raw[at:])
    out = tmp_path / "out"
    code = main(["run", "--config", str(pipeline_ini), "--out", str(out)])
    err = capsys.readouterr().err
    assert f"{name}: not UTF-8 text" in err, err
    if name == "pipeline.ini":
        assert code == 2 and "configuration error" in err
        assert not out.exists()
    else:
        assert code == 3 and "data error" in err
        manifest = (out / "manifest.txt").read_text()
        assert f"stage {FIRST_STAGE[name]} failed: {path}" in manifest
        assert "status failed" in manifest


@pytest.mark.parametrize("entries, names", [
    ("zzzz = gymnosperm, fallback=NOPE", ("'ZZZZ'", "'NOPE'")),
    ("aaaa = gymnosperm, fallback=BBBB\nbbbb = gymnosperm, fallback=AAAA",
     ("'AAAA'", "returns to")),
    ("piab = angiosperm, fallback=PIAB", ("'PIAB'", "returns to")),
    ("zzzz = gymnosperm, -1, 1, 1, 1", ("zzzz", "need a, b, c > 0")),
])
def test_a_broken_registry_entry_exits_2_when_the_config_loads(
        fuzz_scene, tmp_path, capsys, entries, names):
    pipeline_ini = copy_fuzz_scene(fuzz_scene, tmp_path)
    with open(pipeline_ini, "a") as f:
        f.write(f"\n[registry]\n{entries}\n")
    out = tmp_path / "out"
    assert main(["run", "--config", str(pipeline_ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "configuration error: [registry]" in err, err
    assert all(n in err for n in names), err
    assert not out.exists()


@pytest.mark.parametrize("resolution, shape", [
    ("1e-300", "4.399e+301 x 4.399e+301"),
    ("1e-6", "4.399e+07 x 4.399e+07")])
def test_a_chm_grid_too_large_to_allocate_exits_2(fuzz_scene, tmp_path,
                                                  capsys, resolution, shape):
    """With no cube to fix the grid, the CHM grid is the cloud's extent
    at [chm] resolution; one numpy cannot allocate ends the run in exit
    2 at chm, before any raster is written."""
    pipeline_ini = copy_fuzz_scene(fuzz_scene, tmp_path)
    text = re.sub(r"(?m)^cube_.*\n", "", pipeline_ini.read_text())
    pipeline_ini.write_text(text + f"\n[chm]\nresolution = {resolution}\n")
    out = tmp_path / "out"
    assert main(["chm", "--config", str(pipeline_ini), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"[chm] resolution {float(resolution)} gives a {shape} grid" in err
    assert "Traceback" not in err
    manifest = (out / "manifest.txt").read_text()
    assert "stage chm failed: [chm] resolution" in manifest
    assert not (out / "chm.asc").exists()


# the values of the mutation sweep: non-finite, overflowing, subnormal,
# signed zero, empty, text, beyond int32 and ordinary
SWEEP_VALUES = ("nan", "inf", "-inf", "1e308", "-1e308", "0", "-0", "-1",
                "1e-320", "", "x", "1e30", "2147483648", "9" * 20, "0.5",
                "-5e5", "3")
SWEEP_FILES = ("dtm.asc", "points.csv", "cube.hdr", "ground_truth.csv",
               "plots.csv", "truth_plots.csv", "pipeline.ini")
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"(?![\w.])")
# the structural mutations of the sweep: of each text file, and of the
# binary cube; "header only" applies to the tables and the grid
TEXT_MUTATIONS = ("delete line", "duplicate line", "swap header",
                  "header only", "empty", "whitespace only", "crlf", "bom",
                  "not utf-8", "directory")
CUBE_MUTATIONS = ("truncate", "one byte long", "empty", "directory")


def restructure(op, name, raw, rng):
    """`raw`, the bytes of scene file `name`, changed by the structural
    mutation `op`, any line or offset drawn from `rng`; None stands for a
    directory in the file's place."""
    if op == "directory":
        return None
    if op == "empty":
        return b""
    if op == "truncate":
        return raw[:rng.integers(len(raw))]
    if op == "one byte long":
        return raw + b"\0"
    if op == "whitespace only":
        return b" \n\t\n\n"
    if op == "crlf":
        return raw.replace(b"\n", b"\r\n")
    if op == "bom":
        return b"\xef\xbb\xbf" + raw
    if op == "not utf-8":
        at = rng.integers(len(raw) + 1)
        return raw[:at] + b"\xff\xfe" + raw[at:]
    lines = raw.decode().splitlines(keepends=True)
    if op == "delete line":
        del lines[rng.integers(len(lines))]
    elif op == "duplicate line":
        i = rng.integers(len(lines))
        lines.insert(i, lines[i])
    elif op == "swap header" and name.endswith(".csv"):
        fields = lines[0].rstrip("\n").split(",")
        fields[:2] = fields[1::-1]
        lines[0] = ",".join(fields) + "\n"
    elif op == "swap header":   # two neighbouring lines
        i = rng.integers(len(lines) - 1)
        lines[i:i + 2] = lines[i + 1], lines[i]
    else:   # header only: the lines that start with a letter
        lines = [ln for ln in lines if ln[0].isalpha()]
    return "".join(lines).encode()


def test_mutation_sweep_ends_in_a_documented_exit(fuzz_scene, capsys):
    """Every input file with one numeric token replaced by each sweep
    value, then every input file changed by each structural mutation,
    the token, line or offset drawn by a fixed seed: the run ends in exit
    0, 2, 3 or 4 without a traceback or a warning, and a run that fails
    on its data or its numbers names the failed stage in its manifest."""
    rng = np.random.default_rng(8)
    trials = []
    for name in SWEEP_FILES:
        raw = (fuzz_scene / name).read_text()
        tokens = list(NUMBER.finditer(raw))
        for value in SWEEP_VALUES:
            token = tokens[rng.integers(len(tokens))]
            trials.append((f"{name}: {token.group()!r} at offset "
                           f"{token.start()} -> {value!r}", name,
                           (raw[:token.start()] + value
                            + raw[token.end():]).encode()))
    for name in (*SWEEP_FILES, "cube.dat"):
        raw = (fuzz_scene / name).read_bytes()
        ops = CUBE_MUTATIONS if name == "cube.dat" else [
            op for op in TEXT_MUTATIONS if op != "header only"
            or name.endswith((".csv", ".asc"))]
        trials += [(f"{name}: {op}", name, restructure(op, name, raw, rng))
                   for op in ops]
    problems = []
    for trial, name, content in trials:
        with tempfile.TemporaryDirectory(dir=fuzz_scene.parent) as tmp:
            scene = Path(tmp) / "scene"
            shutil.copytree(fuzz_scene, scene)
            if content is None:
                (scene / name).unlink()
                (scene / name).mkdir()
            else:
                (scene / name).write_bytes(content)
            out = Path(tmp) / "out"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    code = main(["run", "--config",
                                 str(scene / "pipeline.ini"),
                                 "--out", str(out)])
                except Exception as exc:   # a traceback on the command line
                    code = f"{type(exc).__name__}: {exc}"
            err = capsys.readouterr().err
            manifest = ((out / "manifest.txt").read_text().splitlines()
                        if code in (0, 3, 4) else [])
        failed = [ln for ln in manifest if ln.startswith("stage ")
                  and ln.split()[2] == "failed:"]
        if code not in (0, 2, 3, 4):
            problems.append(f"{trial}: exit {code}")
        if caught or "Traceback" in err or "Warning" in err:
            problems.append(f"{trial}: {[str(w.message) for w in caught]}"
                            f" {err!r}")
        if code == 0 and manifest[-1:] != ["status ok"]:
            problems.append(f"{trial}: exit 0 without status ok")
        if code in (3, 4) and (manifest[-1:] != ["status failed"]
                               or len(failed) != 1):
            problems.append(f"{trial}: exit {code}, manifest {failed}")
    assert not problems, "\n".join(problems)
