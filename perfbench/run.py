"""forestinv benchmark: synthetic scenes through `forestinv run`.

    python3 perfbench/run.py --workload acceptance --seed 2024 --seconds 25 --trace 0

Run from the repository root; the program is imported from ./src. The
benchmark writes the workload's scene config, runs `forestinv synth`
on it, then runs `forestinv run --threads 2` as a child process, again
and again while another run fits in --seconds (at least twice). Every run's
artifacts must be byte-identical to the first run's, except
timings.txt. With --trace 1 one more run executes under `tracer.py`,
whose artifacts must match too, and the per-layer metrics come from
its spans. The last line of standard output is one JSON object:
correct, attempted, failed and metrics (the end-to-end metrics of
BENCHMARK.json with --trace 0, the per-layer ones with --trace 1).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from outputs import (Quality, differing, digests, labeled_cells,  # noqa: E402
                     manifest_ok, set_digest)
from spans import Layers, describe, ratio  # noqa: E402
from workloads import WORKLOADS, scene_ini  # noqa: E402

BUDGET_S = 170.0        # the whole invocation
SETUPS = 3              # scene syntheses per untraced invocation
MIN_RUNS = 2            # pipeline runs per invocation
THREADS = "2"


class BenchError(Exception):
    """The benchmark cannot produce a result."""


@dataclass
class Child:
    label: str
    wall_s: float
    peak_rss_mib: float
    code: int


class Bench:
    """Spawns forestinv children in one work directory and records
    their times, peak memory and failures."""

    def __init__(self, root, work, deadline):
        self.work = work
        self.deadline = deadline
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.children: list[Child] = []
        self.failures: list[tuple[str, str]] = []   # (child label, why)

    def spawn(self, label, args, spans=None) -> Child:
        """Run one forestinv command; wall time is spawn to exit, peak
        RSS is this child's own, from wait4."""
        if spans is None:
            cmd = [sys.executable, "-m", "forestinv.cli", *args]
        else:
            cmd = [sys.executable, os.path.join(HERE, "tracer.py"), spans,
                   *args]
        log = os.path.join(self.work, f"{label}.log")
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"time budget spent before {label}")
        with open(log, "wb") as out:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=self.work, env=self.env,
                                    stdout=out, stderr=subprocess.STDOUT)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        child = Child(label, wall, usage.ru_maxrss / 1024.0, code)
        self.children.append(child)
        if code != 0:
            with open(log, errors="replace") as f:
                tail = f.read()[-400:].strip()
            self.fail(child, f"exit code {code} [{tail}]")
        return child

    def fail(self, child, why):
        self.failures.append((child.label, why))

    def check_same(self, child, files, reference):
        diff = differing(files, reference)
        if diff:
            self.fail(child, "artifacts differ from the first run: "
                      + ", ".join(diff))

    def failed(self) -> int:
        return len({label for label, _ in self.failures})


def setup(bench, workload, seed, times, traced):
    """Synthesize the scene `times` times into the same directory; each
    synthesis must write the same bytes."""
    config = os.path.join(bench.work, "scene.ini")
    with open(config, "w") as f:
        f.write(scene_ini(workload, seed))
    scene_dir = os.path.join(bench.work, "scene")
    spans = os.path.join(bench.work, "synth_spans.json") if traced else None
    walls, reference = [], None
    for i in range(times):
        child = bench.spawn(f"synth{i}", ["synth", "--config", config], spans)
        if child.code != 0:
            raise BenchError(f"scene synthesis failed: {bench.failures[-1][1]}")
        files = digests(scene_dir)
        if reference is None:
            reference = files
        else:
            bench.check_same(child, files, reference)
        walls.append(child.wall_s)
    return scene_dir, walls, spans


def pipeline_run(bench, scene_dir, label, spans=None):
    out = os.path.join(bench.work, label)
    child = bench.spawn(label, ["run", "--config",
                                os.path.join(scene_dir, "pipeline.ini"),
                                "--threads", THREADS, "--out", out], spans)
    if child.code == 0 and not manifest_ok(out):
        bench.fail(child, "manifest status is not ok")
    return child, out


def measure(bench, scene_dir, seconds):
    """Untraced runs that fit in a window of `seconds`, at least MIN_RUNS.
    Returns (successful children, reference child, its run directory,
    its artifact digests); the reference is the first successful run."""
    runs, ref = [], None
    end = time.monotonic() + seconds
    while True:
        # a run starts only if a run as long as the longest so far still
        # ends inside the window (and inside the budget, at any count)
        longest = max((c.wall_s for c in runs), default=0.0)
        limit = end if len(runs) >= MIN_RUNS else bench.deadline
        if runs and time.monotonic() + longest > limit:
            break
        child, out = pipeline_run(bench, scene_dir, f"run{len(runs)}")
        runs.append(child)
        if child.code != 0:
            continue
        files = digests(out)
        if ref is None:
            ref = (child, out, files)
            continue
        bench.check_same(child, files, ref[2])
        shutil.rmtree(out)
    if ref is None:
        raise BenchError("no pipeline run succeeded: "
                         + "; ".join(why for _, why in bench.failures))
    return [c for c in runs if c.code == 0], *ref


def read_quality(run_dir, scene_dir):
    try:
        return Quality(run_dir, scene_dir)
    except (OSError, KeyError, ValueError, ZeroDivisionError) as exc:
        raise BenchError(f"cannot read the run's tables: {exc!r}") from exc


def end_to_end(walls, runs, quality):
    wall = statistics.median(c.wall_s for c in runs)
    return {
        "wall_s": wall,
        "trees_per_s": quality.crowns / wall,
        "peak_rss_mib": statistics.median(c.peak_rss_mib for c in runs),
        "setup_s": statistics.median(walls),
        "crown_accuracy": quality.accuracy,
    }


def per_layer(run_spans, synth_spans, traced_wall, untraced_wall, quality,
              crown_cells):
    L = Layers(run_spans)
    S = Layers(synth_spans)
    points = L.count("chm.pitfree", "points")
    pixels = L.count("classify.train", "pixels")
    svs = L.count("classify.train", "support_vectors")
    classified = L.count("classify.predict", "pixels")
    criterion = [d * 1e6 for d in L.durations.get("spectral.criterion", ())]
    return {
        "geodata.read_s": L.self_time("geodata.read"),
        "geodata.bytes_read": L.count("geodata.read", "bytes"),
        "geodata.write_s": L.self_time("geodata.write"),
        "geodata.terrain_s": L.self_time("geodata.terrain"),
        "chm.normalize_s": L.self_time("chm.normalize"),
        "chm.pitfree_s": L.self_time("chm.pitfree"),
        "chm.points": points,
        "chm.cells": L.count("chm.pitfree", "cells"),
        "chm.points_per_s": ratio(points, L.inclusive("chm.pitfree")),
        "crowns.detect_s": L.self_time("crowns.detect"),
        "crowns.grow_s": L.self_time("crowns.grow"),
        "crowns.label_grid_s": L.self_time("crowns.label_grid"),
        "crowns.join_s": L.self_time("crowns.join"),
        "crowns.apexes": L.count("crowns.detect", "apexes"),
        "crowns.crown_cells": crown_cells,
        "crowns.cells_per_s": ratio(crown_cells, L.inclusive("crowns.grow")),
        "spectral.prepare_s": L.self_time("spectral.prepare"),
        "spectral.stats_s": L.self_time("spectral.stats"),
        "spectral.select_s": L.self_time("spectral.select"),
        "spectral.criterion_s": L.self_time("spectral.criterion"),
        "spectral.criterion_evals": L.calls("spectral.criterion"),
        "spectral.criterion_eval_us":
            statistics.median(criterion) if criterion else 0.0,
        "classify.train_s": L.self_time("classify.train"),
        "classify.smo_s": L.self_time("classify.smo"),
        "classify.smo_calls": L.calls("classify.smo"),
        "classify.kernel_s": L.self_time("classify.kernel"),
        "classify.kernel_calls": L.calls("classify.kernel"),
        "classify.training_pixels": pixels,
        "classify.support_vectors": svs,
        "classify.sv_ratio":
            ratio(svs, L.count("classify.train", "pair_rows")),
        "classify.predict_s": L.self_time("classify.predict"),
        "classify.pixels_classified": classified,
        "classify.pixels_per_s":
            ratio(classified, L.inclusive("classify.predict")),
        "classify.label_s": L.self_time("classify.label"),
        "classify.unlabeled_crowns": L.count("classify.label", "unlabeled"),
        "allometry.enrich_s": L.self_time("allometry.enrich"),
        "allometry.fallbacks": L.count("allometry.enrich", "fallbacks"),
        "evaluate.score_s": L.self_time("evaluate.score"),
        "evaluate.plots_s": L.self_time("evaluate.plots"),
        "evaluate.plot_volume_r": quality.r["volume"],
        "evaluate.plot_agb_r": quality.r["agb"],
        "pipeline.self_s": L.self_time("pipeline"),
        "synth.generate_s": S.self_time("synth.generate"),
        "synth.write_s": S.self_time("synth.write"),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.unattributed_s": traced_wall - L.total_self_s,
    }


def benchmark(bench, workload, seed, seconds, trace):
    """Returns (values, lines of the human-readable summary)."""
    lines = []
    scene_dir, setup_walls, synth_spans = setup(
        bench, workload, seed, 1 if trace else SETUPS, traced=trace)
    runs, ref, ref_dir, reference = measure(bench, scene_dir, seconds)
    quality = read_quality(ref_dir, scene_dir)
    if quality.crowns == 0:
        bench.fail(ref, "empty inventory")
    if workload.floors:
        for miss in quality.floor_misses():
            bench.fail(ref, "criterion-10 floor missed: " + miss)
    values = end_to_end(setup_walls, runs, quality)
    lines.append("wall_s " + describe([c.wall_s for c in runs], "s"))
    lines.append("setup_s " + describe(setup_walls, "s"))
    lines.append(f"quality: {quality.crowns} crowns, accuracy "
                 f"{quality.accuracy:.4f} on {quality.scored} test crowns, "
                 f"plot R {quality.r['volume']:.4f}/{quality.r['agb']:.4f} "
                 f"and total error {quality.total_error['volume']:.4f}/"
                 f"{quality.total_error['agb']:.4f} (volume/AGB) over "
                 f"{quality.plots} plots")
    lines.append(f"artifact set sha256 {set_digest(reference)} "
                 f"({len(reference)} files, timings.txt excluded)")

    if trace:
        spans = os.path.join(bench.work, "run_spans.json")
        child, out = pipeline_run(bench, scene_dir, "traced", spans)
        if child.code != 0:
            raise BenchError("traced run failed: " + bench.failures[-1][1])
        bench.check_same(child, digests(out), reference)
        with open(spans) as f:
            run_spans = json.load(f)
        with open(synth_spans) as f:
            setup_spans = json.load(f)
        values = per_layer(run_spans, setup_spans, child.wall_s,
                           values["wall_s"], quality,
                           labeled_cells(os.path.join(ref_dir,
                                                      "crown_labels.asc")))
        layers = Layers(run_spans)
        lines.append(f"traced run {child.wall_s:.4f} s: self times sum to "
                     f"{layers.total_self_s:.4f} s, unattributed "
                     f"{values['trace.unattributed_s']:.4f} s, tracing "
                     f"overhead {values['trace.overhead_s']:.4f} s")
        for name in ("spectral.criterion", "classify.kernel"):
            if layers.calls(name):
                lines.append(f"{name} per call "
                             + describe(layers.durations[name], "us", 1e6))
    return values, lines


def _terminate(signum, frame):
    sys.exit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + BUDGET_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "forestinv", "cli.py")):
        print("perfbench: src/forestinv not found; run from the root of a "
              "forestinv checkout", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)   # so children get killed
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    workload = WORKLOADS[args.workload]

    scratch = os.path.join(root, ".bench_work")
    os.makedirs(scratch, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=scratch)
    bench = Bench(root, work, deadline)
    try:
        values, lines = benchmark(bench, workload, args.seed, args.seconds,
                                  bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(bench.children)
    failed = bench.failed()
    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    for line in lines:
        print("  " + line)
    print(f"  fail_ratio {failed}/{attempted} = {failed / attempted:g}")
    for label, why in bench.failures:
        print(f"  FAILED {label}: {why}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']} = {values[m['name']]:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
