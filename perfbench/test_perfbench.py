"""Tests of the benchmark's own helpers: span arithmetic, the tracer,
percentiles and the artifact checks. Run with `python -m pytest perfbench`."""

import sys
import time
import types

import pytest

import outputs
import spans
import tracer


def span(name, start, end, parent=None, counts=None):
    return [name, start, end, parent, counts]


def test_self_time_subtracts_nested_children():
    # pipeline ⊃ sffs_select ⊃ 3 x jm_criterion, pipeline ⊃ classify_image
    # ⊃ 2 x rbf_kernel, and a leaf stage with no children
    recorded = [
        span("pipeline", 0.0, 10.0),
        span("spectral.select", 1.0, 5.0, 0),
        span("spectral.criterion", 1.5, 2.0, 1),
        span("spectral.criterion", 2.0, 3.0, 1),
        span("spectral.criterion", 4.0, 4.25, 1),
        span("classify.predict", 6.0, 9.0, 0),
        span("classify.kernel", 6.5, 7.5, 5),
        span("classify.kernel", 8.0, 8.5, 5),
        span("chm.pitfree", 9.0, 9.5, 0),
    ]
    own = spans.self_times(recorded)
    assert own == pytest.approx([2.5, 2.25, 0.5, 1.0, 0.25, 1.5, 1.0, 0.5,
                                 0.5])
    assert sum(own) == pytest.approx(10.0)

    layers = spans.Layers(recorded)
    assert layers.self_time("spectral.select") == pytest.approx(2.25)
    assert layers.self_time("spectral.criterion") == pytest.approx(1.75)
    assert layers.inclusive("classify.predict") == pytest.approx(3.0)
    assert layers.self_time("classify.predict") == pytest.approx(1.5)
    assert layers.calls("classify.kernel") == 2
    assert layers.total_self_s == pytest.approx(10.0)
    assert layers.self_time("absent") == 0.0


def test_layers_sum_counts():
    recorded = [span("pipeline", 0.0, 3.0),
                span("classify.train", 0.0, 1.0, 0, {"pixels": 30}),
                span("classify.train", 1.0, 2.0, 0, {"pixels": 12}),
                span("classify.train", 2.0, 3.0, 0)]
    layers = spans.Layers(recorded)
    assert layers.count("classify.train", "pixels") == 42
    assert layers.count("classify.train", "support_vectors") == 0


@pytest.fixture
def fake_module(monkeypatch):
    """A module whose outer function calls an inner one through the
    module namespace, as sffs_select calls jm_criterion."""
    mod = types.ModuleType("perfbench_fake")

    def inner(x):
        time.sleep(0.002)
        return x + 1

    def outer(n):
        return [mod.inner(i) for i in range(n)]

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    return mod


def test_tracer_records_nesting_by_module_attribute(fake_module):
    t = tracer.Tracer()
    root = t.open("pipeline", time.perf_counter())
    tracer.install(t, [
        ("perfbench_fake", "outer", "fake.outer",
         lambda a, k, r: {"items": len(r)}),
        ("perfbench_fake", "inner", "fake.inner", None),
        ("perfbench_fake", "missing", "fake.missing", None),
    ])
    assert fake_module.outer(3) == [1, 2, 3]
    t.close(root, time.perf_counter())

    names = [s[0] for s in t.spans]
    assert names == ["pipeline", "fake.outer"] + ["fake.inner"] * 3
    assert [s[3] for s in t.spans] == [None, 0, 1, 1, 1]
    assert t.spans[1][4] == {"items": 3}
    layers = spans.Layers(t.spans)
    assert layers.total_self_s == pytest.approx(t.spans[0][2] - t.spans[0][1])
    assert layers.self_time("fake.outer") < layers.self_time("fake.inner")


def test_tracer_survives_a_failing_counter(fake_module):
    t = tracer.Tracer()
    tracer.install(t, [("perfbench_fake", "inner", "fake.inner",
                        lambda a, k, r: {"n": len(r)})])
    assert fake_module.inner(1) == 2          # len(int) raises TypeError
    assert t.spans[0][4] is None and t.spans[0][2] is not None


def test_tracer_closes_span_when_the_call_raises(fake_module):
    t = tracer.Tracer()
    tracer.install(t, [("perfbench_fake", "inner", "fake.inner", None)])
    with pytest.raises(TypeError):
        fake_module.inner("x")
    assert t.spans[0][2] is not None
    assert t._stack() == []


@pytest.mark.parametrize("n, expected", [
    (9, None), (99, None), (100, 90.0), (999, 90.0), (1000, 99.0),
    (9999, 99.0), (10000, 99.9)])
def test_percentile_needs_ten_samples_beyond_it(n, expected):
    tail = spans.tail_percentile(range(n))
    if expected is None:
        assert tail is None
        return
    level, value, beyond = tail
    assert level == expected
    assert beyond >= 10
    assert sum(1 for v in range(n) if v > value) == beyond


def test_describe_states_missing_percentile():
    assert "no percentile" in spans.describe([1.0, 2.0, 3.0], "s")
    assert "p90" in spans.describe([float(v) for v in range(100)], "s")


def test_digests_skip_timings_and_report_differences(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "chm.asc").write_text("1 2\n")
        (d / "inventory.csv").write_text("crown_id\n1\n")
    (a / "timings.txt").write_text("chm 1.0s\n")
    (b / "timings.txt").write_text("chm 2.0s\n")
    da, db = outputs.digests(a), outputs.digests(b)
    assert "timings.txt" not in da
    assert outputs.differing(da, db) == []
    assert outputs.set_digest(da) == outputs.set_digest(db)
    (b / "chm.asc").write_text("1 3\n")
    (b / "extra.txt").write_text("")
    assert outputs.differing(da, outputs.digests(b)) == ["chm.asc",
                                                         "extra.txt"]


def test_labeled_cells_counts_data_cells(tmp_path):
    grid = tmp_path / "labels.asc"
    grid.write_text("NCOLS 3\nNROWS 2\nXLLCORNER 0\nYLLCORNER 0\n"
                    "CELLSIZE 0.5\nNODATA_VALUE -9999\n"
                    "-9999 1 1\n2 -9999 2\n")
    assert outputs.labeled_cells(grid) == 4


def _write(path, header, rows):
    path.write_text(header + "\n" + "".join(r + "\n" for r in rows))


def test_quality_recomputes_accuracy_and_plot_agreement(tmp_path):
    run, scene = tmp_path / "run", tmp_path / "scene"
    run.mkdir()
    scene.mkdir()
    _write(run / "inventory.csv", "crown_id,species_code",
           ["1,PIAB", "2,ABAL", "3,PIAB", "4,"])
    _write(run / "joined_species.csv", "crown_id,species",
           ["1,PIAB", "2,PIAB", "3,PIAB", "4,ABAL"])
    _write(run / "split.csv", "crown_id,role",
           ["1,train", "2,test", "3,test", "4,test"])
    _write(run / "plot_totals.csv", "plot_id,volume_m3,agb_mg,n_trees",
           ["1,1.0,2.0,1", "2,2.0,4.0,2", "3,3.0,6.1,3"])
    _write(scene / "truth_plots.csv", "plot_id,volume_m3,agb_mg,n_trees",
           ["1,1.0,2.0,1", "2,2.0,4.0,2", "3,3.0,6.0,3"])
    q = outputs.Quality(run, scene)
    assert q.crowns == 4
    assert q.scored == 2            # crown 4 has no predicted label
    assert q.accuracy == 0.5
    assert q.r["volume"] == pytest.approx(1.0)
    assert 0.99 < q.r["agb"] < 1.0
    assert q.total_error["agb"] == pytest.approx(0.1 / 12.0)
    assert q.floor_misses() == ["accuracy 0.500 < 0.9"]


def test_benchmark_refuses_a_directory_without_the_program(tmp_path,
                                                           monkeypatch,
                                                           capsys):
    import run

    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "acceptance", "--seed", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_manifest_status(tmp_path):
    assert not outputs.manifest_ok(tmp_path)
    (tmp_path / "manifest.txt").write_text("stage chm complete\nstatus ok\n")
    assert outputs.manifest_ok(tmp_path)
    (tmp_path / "manifest.txt").write_text("status failed\n")
    assert not outputs.manifest_ok(tmp_path)


def test_metric_names_match_benchmark_json():
    import json
    import os

    import run

    root = os.path.dirname(os.path.dirname(os.path.abspath(run.__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)

    class FakeQuality:
        crowns, accuracy = 10, 0.9
        r = {"volume": 0.95, "agb": 0.9}

    child = run.Child("run0", 2.0, 100.0, 0)
    e2e = run.end_to_end([1.0, 1.2, 1.1], [child], FakeQuality())
    assert sorted(e2e) == sorted(m["name"] for m in spec["end_to_end"])
    layer = run.per_layer([span("pipeline", 0.0, 1.0)], [], 1.5, 1.4,
                          FakeQuality(), 100)
    assert sorted(layer) == sorted(m["name"] for m in spec["per_layer"])
