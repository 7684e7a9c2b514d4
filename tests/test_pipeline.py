from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forestinv.cli import main
from forestinv.config import load_config
from forestinv.errors import ConfigError
from forestinv.pipeline import _training_pixels, run_pipeline

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


class TestConfig:
    def test_defaults(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[run]\nseed = 5\n")
        config = load_config(cfg)
        assert config.seed == 5
        assert config.pitfree.resolution == 0.5
        assert config.itc.thresh_seed == 0.55
        assert config.itc.min_dist == 5.0
        assert config.spectral.drop_head == 7
        assert config.spectral.drop_tail == 8
        assert config.spectral.k == 35
        assert config.classify.c == 10.0
        assert config.train_fraction == 0.65

    def test_overrides(self, tmp_path):
        cfg = tmp_path / "c.ini"
        cfg.write_text("[run]\nseed = 5\noutput_dir = x\n")
        config = load_config(cfg, seed_override=9, out_override="/tmp/y")
        assert config.seed == 9
        assert config.output_dir == "/tmp/y"

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
    ctx = {"config": SimpleNamespace(
               seed=seed,
               spectral=SimpleNamespace(max_training_pixels_per_species=cap)),
           "owner": owner, "truth_species": truth,
           "split": SimpleNamespace(train_ids=train_ids)}
    got = _training_pixels(ctx)
    expected = reference_training_pixels(owner, truth, train_ids, seed, cap)
    assert list(got) == list(expected)
    for sp in expected:
        assert got[sp].dtype == expected[sp].dtype
        np.testing.assert_array_equal(got[sp], expected[sp])


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
