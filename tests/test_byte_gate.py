"""tools/byte_gate.py: the scene configs it runs, and that it tells equal
run directories from unequal ones."""

import configparser
import importlib.util
from pathlib import Path

from test_pipeline import FUZZ_INI

ROOT = Path(__file__).resolve().parents[1]


def load_gate():
    spec = importlib.util.spec_from_file_location(
        "byte_gate", ROOT / "tools" / "byte_gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def test_the_paper_scale_case_is_paper_spectral_at_paper_scale():
    gate = load_gate()
    cp = configparser.ConfigParser()
    cp.read_string(gate.case_ini("paper-scale", 7))
    base = configparser.ConfigParser()
    base.read_string(gate.case_ini("paper-spectral", 7))
    assert (cp["scene"]["n_trees"], cp["spectral"]["k"],
            cp["spectral"]["max_training_pixels_per_species"]) == (
        "150", "35", "2000")
    assert cp["scene"]["nbands"] == base["scene"]["nbands"] == "122"
    assert cp["run"]["seed"] == "7"


def test_the_sparse_case_is_dense_stand_at_1_5_points_per_m2():
    gate = load_gate()
    cp = configparser.ConfigParser()
    cp.read_string(gate.case_ini("sparse", 7))
    base = configparser.ConfigParser()
    base.read_string(gate.case_ini("dense-stand", 7))
    assert cp["scene"]["point_density"] == "1.5"
    assert base["scene"]["point_density"] == "4"
    del cp["scene"]["point_density"], base["scene"]["point_density"]
    assert {s: dict(cp[s]) for s in cp} == {s: dict(base[s]) for s in base}
    assert cp["run"]["seed"] == "7"


def test_the_smooth_case_is_acceptance_with_a_smoothed_chm():
    gate = load_gate()
    cp = configparser.ConfigParser()
    cp.read_string(gate.case_ini("smooth", 7))
    base = configparser.ConfigParser()
    base.read_string(gate.case_ini("acceptance", 7))
    assert cp["crowns"]["smooth_chm"] == "true"
    assert "crowns" not in base
    del cp["crowns"]
    assert {s: dict(cp[s]) for s in cp} == {s: dict(base[s]) for s in base}
    assert cp["run"]["seed"] == "7"


def test_the_large_area_case_is_dense_stand_at_3600_trees():
    gate = load_gate()
    cp = configparser.ConfigParser()
    cp.read_string(gate.case_ini("large-area", 7))
    base = configparser.ConfigParser()
    base.read_string(gate.case_ini("dense-stand", 7))
    assert cp["scene"]["n_trees"] == "3600"
    assert base["scene"]["n_trees"] == "400"
    del cp["scene"]["n_trees"], base["scene"]["n_trees"]
    assert {s: dict(cp[s]) for s in cp} == {s: dict(base[s]) for s in base}
    assert cp["run"]["seed"] == "7"


def test_the_odd_pairs_case_is_paper_spectral_at_499_pixels_per_species():
    gate = load_gate()
    cp = configparser.ConfigParser()
    cp.read_string(gate.case_ini("odd-pairs", 7))
    base = configparser.ConfigParser()
    base.read_string(gate.case_ini("paper-spectral", 7))
    key = "max_training_pixels_per_species"
    assert (cp["spectral"][key], base["spectral"][key]) == ("499", "500")
    del cp["spectral"][key], base["spectral"][key]
    assert {s: dict(cp[s]) for s in cp} == {s: dict(base[s]) for s in base}


def test_two_runs_of_one_tree_are_identical_and_a_change_shows(tmp_path):
    gate = load_gate()
    sides = [tmp_path / "a", tmp_path / "b"]
    status = [gate.run_side(ROOT, side, FUZZ_INI, [1]) for side in sides]
    assert status[0] == status[1] == ["synth exit 0", "run exit 0"]
    n, bad = gate.differences(*sides)
    assert bad == [] and n > 20
    # timings.txt is the one file allowed to differ
    assert (sides[0] / "run_t1" / "timings.txt").exists()
    (sides[1] / "run_t1" / "timings.txt").write_text("other\n")
    (sides[1] / "run_t1" / "manifest.txt").write_text("other\n")
    (sides[1] / "scene" / "extra.txt").write_text("extra\n")
    assert gate.differences(*sides) == (
        n + 1, ["scene/extra.txt (one side only)", "run_t1/manifest.txt"])
