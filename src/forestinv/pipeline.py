"""Stage-sequential pipeline orchestration.

Every stage writes its artifacts as it completes; a deterministic
manifest records input hashes, the effective configuration, stage
completion and each completed stage's counters, so interrupted runs
leave a readable trail. Wall-clock timings and the peak resident set
size after each stage go to a separate file to keep the manifest
byte-stable across reruns.
"""

from __future__ import annotations

import ctypes
import hashlib
import inspect
import os
import resource
import time
from dataclasses import dataclass, field

import numpy as np

from . import chm as chm_mod
from . import classify as classify_mod
from . import crowns as crowns_mod
from . import evaluate as evaluate_mod
from . import spectral as spectral_mod
from .config import PipelineConfig
from .errors import ConfigError, DataError, ForestInvError
from .geodata import (
    read_ascii_grid,
    read_envi_cube,
    read_ground_truth,
    read_point_cloud,
    write_ascii_grid,
    write_table,
)


@dataclass
class PipelineResult:
    """The run directory, the stages that completed and the live entries.

    `context` holds what was live when the last planned stage returned:
    that stage's parameters and the entries it produced. An entry is
    freed before the first stage after its last reader, so after a full
    run `context` holds exactly the `report` stage's parameters.
    """
    out_dir: str
    completed: list[str] = field(default_factory=list)
    context: dict = field(default_factory=dict)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _libc_malloc_trim():
    """glibc's malloc_trim, or None where the C library has none (musl,
    macOS, Windows)."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


# hands the heap that dropped entries freed back to the system; without
# it glibc keeps the CHM's Qhull worker arena and fragmented tile
# temporaries mapped for the rest of the run
_MALLOC_TRIM = _libc_malloc_trim()


# first stage that needs each input; later stages inherit it
_REQUIRED_FROM = {
    "dtm": "terrain",
    "point_cloud": "normalize",
    "cube_header": "spectral",
    "cube_data": "spectral",
    "ground_truth": "join",
}


def run_pipeline(config: PipelineConfig, stop_after: str | None = None) -> PipelineResult:
    """Run the stages in order, stopping after `stop_after` if given.

    The required inputs of the requested stages are validated up front,
    before any computation or output; the optional `plots` and
    `observed_plots` tables are checked by the stage that reads them.

    Each stage gets the context entries its parameters after `out` name
    and returns (entries it produced, counters). Before each stage,
    every entry that no remaining planned stage names is dropped and the
    freed heap is returned to the system.
    """
    if stop_after is not None and stop_after not in STAGES:
        raise ConfigError(f"unknown stage {stop_after!r}; expected one of "
                          + ", ".join(STAGES))
    planned = STAGES[:STAGES.index(stop_after) + 1] if stop_after else STAGES
    needed = [name for name, first in _REQUIRED_FROM.items()
              if first in planned]
    config.require_paths(*needed)

    out = config.run.output_dir
    os.makedirs(out, exist_ok=True)

    result = PipelineResult(out_dir=out)
    ctx = result.context
    ctx["config"] = config
    timings = []
    counts = {}
    failure = None

    try:
        for i, stage in enumerate(planned):
            live = {name for later in planned[i:] for name in _INPUTS[later]}
            for name in set(ctx) - live:
                del ctx[name]
            if _MALLOC_TRIM is not None:
                _MALLOC_TRIM(0)
            t0 = time.perf_counter()
            try:
                produced, counts[stage] = _STAGE_FUNCS[stage](
                    out, **{name: ctx[name] for name in _INPUTS[stage]})
                ctx.update(produced)
            except ForestInvError as exc:
                failure = (stage, str(exc))
                raise type(exc)(f"stage {stage}: {exc}") from exc
            except Exception as exc:
                failure = (stage, f"{type(exc).__name__}: {exc}")
                raise
            # peak RSS of the process so far; ru_maxrss is in KiB on Linux
            timings.append((stage, time.perf_counter() - t0,
                            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0))
            result.completed.append(stage)
    finally:
        _write_manifest(config, result.completed, counts, failure, out)
        with open(os.path.join(out, "timings.txt"), "w",
                  encoding="utf-8") as f:
            for name, dt, rss in timings:
                f.write(f"{name} {dt:.3f}s peak_rss {rss:.1f}MiB\n")
    return result


def _write_manifest(config, completed, counts, failure, out):
    lines = ["forestinv run manifest"]
    lines.append("config sha256 "
                 + hashlib.sha256(config.raw_text.encode()).hexdigest())
    for name in sorted(config.paths):
        path = config.paths[name]
        if os.path.isfile(path):
            lines.append(f"input {name} {os.path.basename(path)} "
                         f"sha256 {_sha256(path)}")
        else:
            lines.append(f"input {name} {os.path.basename(path)} missing")
    lines.append(f"seed {config.run.seed}")
    lines.append(f"threads {config.run.threads}")
    for stage in STAGES:
        if failure is not None and stage == failure[0]:
            lines.append(f"stage {stage} failed: {failure[1]}")
        elif stage in completed:
            lines.append(f"stage {stage} complete")
            lines.extend(f"count {stage} {name} {value}"
                         for name, value in counts[stage].items())
        else:
            lines.append(f"stage {stage} not-run")
    lines.append("status " + ("failed" if failure else "ok"))
    with open(os.path.join(out, "manifest.txt"), "w",
              encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def _stage_terrain(out, config):
    dtm = read_ascii_grid(config.paths["dtm"])
    if dtm.nrows >= 3 and dtm.ncols >= 3:
        from .geodata import terrain_derivatives

        try:
            derivatives = terrain_derivatives(dtm)
        except DataError as exc:
            raise DataError(f"{config.paths['dtm']}: {exc}") from None
        write_ascii_grid(derivatives["slope"], os.path.join(out, "slope.asc"))
        write_ascii_grid(derivatives["aspect"], os.path.join(out, "aspect.asc"))
        write_ascii_grid(derivatives["elevation_class"],
                         os.path.join(out, "elevation_class.asc"))
    return {"dtm": dtm}, {}


def _stage_normalize(out, config, dtm):
    cloud = read_point_cloud(config.paths["point_cloud"])
    return {"cloud": chm_mod.normalize_heights(cloud, dtm)}, {}


def _stage_chm(out, config, cloud):
    # the cube header, when configured, fixes the CHM grid; no sample is
    # read before spectral
    cube, kwargs = None, {}
    if config.paths.get("cube_header"):
        config.require_paths("cube_header", "cube_data")
        cube = read_envi_cube(config.paths["cube_header"],
                              config.paths["cube_data"])
        if abs(cube.cellsize - config.pitfree.resolution) > 1e-9:
            raise ConfigError(
                f"[chm] resolution {config.pitfree.resolution} does not match "
                f"the cube cell size {cube.cellsize}; crowns and pixels must "
                f"share one grid")
        kwargs = dict(xll=cube.xll, yll=cube.yll, ncols=cube.ncols,
                      nrows=cube.nrows)
        if not (cube.xll <= cloud.x.max()
                and cloud.x.min() <= cube.xll + cube.ncols * cube.cellsize
                and cube.yll <= cloud.y.max()
                and cloud.y.min() <= cube.yll + cube.nrows * cube.cellsize):
            raise DataError(f"{config.paths['cube_header']}: the cube's grid "
                            f"does not overlap the point cloud")
    grid = chm_mod.pitfree_chm(cloud, config.pitfree,
                               threads=config.run.threads, **kwargs)
    write_ascii_grid(grid, os.path.join(out, "chm.asc"))
    return {"chm": grid, "raw_cube": cube}, grid.counts


def _stage_crowns(out, config, chm):
    apexes = crowns_mod.detect_treetops(chm, config.itc)
    crowns, owner = crowns_mod.grow_crowns(chm, apexes, config.itc)
    if not crowns:
        raise DataError("no treetops detected; nothing to inventory")
    label_grid = crowns_mod.crown_label_grid(chm, owner)
    write_ascii_grid(label_grid, os.path.join(out, "crown_labels.asc"))
    crowns_mod.write_crown_table(crowns, os.path.join(out, "crowns.csv"))
    return {"crowns": crowns, "owner": owner}, {
        "crowns": len(crowns), "crown_cells": int((owner > 0).sum())}


def _stage_spectral(out, config, raw_cube):
    trimmed = spectral_mod.trim_bands(raw_cube, config.spectral.drop_head,
                                      config.spectral.drop_tail)
    prepared, n_bad = spectral_mod.normalize_spectrum(trimmed)
    return {"cube": prepared}, {"bands_in": raw_cube.nbands,
                                "bands_after_trim": prepared.nbands,
                                "zero_mean_pixels": n_bad}


def _stage_join(out, config, crowns, owner, chm):
    points = read_ground_truth(config.paths["ground_truth"], config.registry,
                               chm)
    species, unmatched = crowns_mod.spatial_join(points, crowns, owner, chm)
    if not species:
        raise DataError("no ground-truth point fell inside any crown")
    ids = sorted(species)
    write_table(os.path.join(out, "joined_species.csv"),
                {"crown_id": ids, "species": [species[cid] for cid in ids]})
    return {"truth_species": species}, {"matched_crowns": len(species),
                                        "unmatched_points": len(unmatched)}


def _stage_split(out, config, truth_species):
    split = crowns_mod.split_train_test(truth_species,
                                        config.run.train_fraction,
                                        config.run.seed)
    write_table(os.path.join(out, "split.csv"), {
        "crown_id": [*split.train_ids, *split.test_ids],
        "role": (["train"] * len(split.train_ids)
                 + ["test"] * len(split.test_ids))})
    return {"split": split}, {}


def _training_pixels(owner, truth, train_ids, seed, cap):
    """Flat cell indices over the training crowns and each cell's species
    code, ordered by species, then crown_id, then row-major within a
    crown, capped per species with a seed-derived subsample (kept in
    row-major order) for tractability."""
    rng = np.random.default_rng(seed + 1)
    species = sorted({truth[cid] for cid in train_ids})
    flat = []
    for sp in species:
        ids = [cid for cid in train_ids if truth[cid] == sp]
        cells = np.flatnonzero(np.isin(owner, ids))
        cells = cells[np.argsort(owner.ravel()[cells], kind="stable")]
        if len(cells) > cap:
            cells = np.sort(cells[rng.choice(len(cells), size=cap,
                                             replace=False)])
        flat.append(cells)
    labels = np.repeat(species, [len(cells) for cells in flat])
    return np.concatenate([np.empty(0, dtype=np.intp), *flat]), labels


def _stage_statistics(out, config, cube, owner, truth_species, split):
    flat, labels = _training_pixels(
        owner, truth_species, split.train_ids, config.run.seed,
        config.spectral.max_training_pixels_per_species)
    species = np.unique(labels)
    # one read of each band serves every species. C order: the species
    # means and covariances sum rows in order. normalize_spectrum leaves
    # every pixel all-NaN or all-finite, so dropping the rows with a NaN
    # keeps the valid pixels on any bands
    kept, x = cube.gather(flat, range(cube.nbands))
    # no cell is twice in `flat`, so each kept cell keeps its one label
    labels = labels[np.isin(flat, kept, assume_unique=True)]
    # labels are grouped by species, so each species' rows are one block;
    # a species with no valid row keeps an empty one
    blocks = np.split(x, np.searchsorted(labels, species[1:]))
    stats, skipped = spectral_mod.class_statistics(
        dict(zip(species.tolist(), blocks)))
    if len(stats) < 2:
        found = ", ".join(f"{sp} {len(b)}" for sp, b in zip(species, blocks))
        raise DataError("fewer than two species have enough training pixels "
                        f"(training crowns: {len(split.train_ids)}; valid "
                        f"pixels: {found or 'none'})")
    counts = {f"valid_pixels.{s.species_code}": s.n_samples for s in stats}
    counts.update((f"skipped.{sp}", 1) for sp in skipped)
    return {"training": (x, labels), "class_stats": stats}, counts


def _stage_select(out, config, cube, class_stats):
    nbands = cube.nbands
    excluded = set(config.spectral.exclude_bands)
    outside = sorted(b for b in excluded if not 0 <= b < nbands)
    if outside:
        raise ConfigError(f"[spectral] exclude_bands index {outside[0]} is "
                          f"outside the {nbands} bands of the trimmed cube")
    candidates = [b for b in range(nbands) if b not in excluded]
    if not candidates:
        raise ConfigError("[spectral] exclude_bands removed every band")
    k = min(config.spectral.k, len(candidates))
    selection = spectral_mod.sffs_select(
        class_stats, k, candidates=candidates,
        aggregate=config.spectral.criterion_aggregate)
    spectral_mod.write_band_selection(selection, os.path.join(out, "bands.txt"))
    return ({"bands": selection.indices},
            {"criterion_evaluations": selection.evaluations})


def _stage_train(out, config, training, bands):
    x, labels = training
    # take() keeps the rows C-contiguous, which the scaling sums rely on
    x = x.take(bands, axis=1)
    counts = {"training_pixels": len(x)}
    if config.classify.classifier == "svm":
        model = classify_mod.train_svm(
            x, labels, C=config.classify.c, gamma=config.classify.gamma,
            bands=bands)
        counts["support_vectors"] = sum(len(p.coefficients)
                                        for p in model.pairs)
        counts["smo_iterations"] = sum(p.iterations for p in model.pairs)
    else:
        model = classify_mod.train_centroid(x, labels, bands=bands)
    classify_mod.save_model(model, os.path.join(out, "model.txt"))
    return {"model": model}, counts


def _stage_classify(out, config, chm, cube, model):
    mask = chm.valid_mask() & (chm.values >= config.itc.height_threshold)
    label_grid, species = classify_mod.classify_image(cube, model, mask=mask)
    write_ascii_grid(label_grid, os.path.join(out, "species_labels.asc"))
    write_table(os.path.join(out, "species_legend.csv"),
                {"code": range(1, len(species) + 1), "species": species})
    counts = {"pixels_classified": int(label_grid.valid_mask().sum())}
    if isinstance(model, classify_mod.SvmModel):
        counts["support_vector_union"] = len(model.union[0])
    return {"label_grid": label_grid, "species": species}, counts


def _stage_label(out, label_grid, species, crowns, owner):
    unlabeled = classify_mod.label_crowns_majority(label_grid, species,
                                                   crowns, owner)
    return {"crowns": crowns}, {"unlabeled_crowns": len(unlabeled)}


def _stage_enrich(out, config, crowns):
    from .allometry import enrich_crowns

    enrich_crowns(crowns, config.registry, config.dbh_model)
    crowns_mod.write_crown_table(crowns, os.path.join(out, "inventory.csv"))
    return {"crowns": crowns}, {
        "skipped_unlabeled": sum(c.species_code is None for c in crowns),
        "borrowed_volume_params": sum(c.fallback_used is not None
                                      for c in crowns),
        "zero_volume_below_d0": sum(c.volume == 0.0 for c in crowns),
    }


def _stage_score(out, config, crowns, split, truth_species):
    test_ids = set(split.test_ids)
    test_crowns = [c for c in crowns if c.crown_id in test_ids]
    cm, excluded = evaluate_mod.score(test_crowns, truth_species)
    if cm.total == 0:
        raise DataError("no test crown carries both a true and a predicted "
                        "species label")
    evaluate_mod.write_metrics_csv(cm, os.path.join(out, "metrics.csv"))
    with open(os.path.join(out, "metrics.txt"), "w",
              encoding="utf-8") as f:
        f.write(evaluate_mod.format_metrics_table(
            cm, config.classify.classifier))
        f.write(f"excluded crowns {excluded}\n")
    return {"confusion": cm}, {}


def _stage_plots(out, config, crowns, chm):
    plots = []
    if config.paths.get("plots"):
        config.require_paths("plots")
        plots = evaluate_mod.read_plot_definitions(config.paths["plots"], chm)
    totals = [evaluate_mod.aggregate_plot(crowns, p) for p in plots]
    evaluate_mod.write_plot_totals(totals,
                                   os.path.join(out, "plot_totals.csv"))
    return {"plot_totals": totals}, {}


def _stage_report(out, config, crowns, truth_species, split, bands,
                  confusion, plot_totals):
    lines = ["forestinv inventory report", ""]
    lines.append(f"crowns delineated: {len(crowns)}")
    lines.append(f"ground-truth crowns: {len(truth_species)} "
                 f"(train {len(split.train_ids)}, "
                 f"test {len(split.test_ids)})")
    lines.append(f"selected bands: "
                 + ",".join(str(b) for b in bands))
    lines.append("")
    lines.append(evaluate_mod.format_metrics_table(
        confusion, config.classify.classifier))

    observed_path = config.paths.get("observed_plots")
    if observed_path:
        config.require_paths("observed_plots")
    if plot_totals and observed_path:
        observed = {p.plot_id: p
                    for p in evaluate_mod.read_truth_plots(observed_path)}
        ids = [t.plot_id for t in plot_totals]
        _require_same_ids(ids, config.paths["plots"], observed, observed_path)
        ob_v = [observed[i].volume_m3 for i in ids]
        ob_a = [observed[i].agb_mg for i in ids]
        pr_v = [t.volume_m3 for t in plot_totals]
        pr_a = [t.agb_mg for t in plot_totals]
        lines.append(evaluate_mod.format_plot_table(ids, ob_v, pr_v,
                                                    ob_a, pr_a))
    elif plot_totals:
        lines.append("plot totals written to plot_totals.csv "
                     "(no observed values supplied)")

    with open(os.path.join(out, "report.txt"), "w",
              encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return {}, {}


def _require_same_ids(first, first_path, second, second_path):
    """DataError naming the first plot_id that only one of two plot
    tables holds, and the table that lacks it."""
    for have, have_path, lack, lack_path in (
            (first, first_path, second, second_path),
            (second, second_path, first, first_path)):
        for plot_id in have:
            if plot_id not in lack:
                raise DataError(f"plot_id {plot_id} of "
                                f"{os.path.basename(have_path)} is missing "
                                f"from {os.path.basename(lack_path)}")


_STAGE_FUNCS = {
    "terrain": _stage_terrain,
    "normalize": _stage_normalize,
    "chm": _stage_chm,
    "crowns": _stage_crowns,
    "spectral": _stage_spectral,
    "join": _stage_join,
    "split": _stage_split,
    "statistics": _stage_statistics,
    "select": _stage_select,
    "train": _stage_train,
    "classify": _stage_classify,
    "label": _stage_label,
    "enrich": _stage_enrich,
    "score": _stage_score,
    "plots": _stage_plots,
    "report": _stage_report,
}
STAGES = tuple(_STAGE_FUNCS)
# the context entries each stage reads: its parameters after `out`
_INPUTS = {stage: tuple(inspect.signature(fn).parameters)[1:]
           for stage, fn in _STAGE_FUNCS.items()}
