"""Stage-sequential pipeline orchestration.

Every stage writes its artifacts as it completes; a deterministic
manifest records input hashes, the effective configuration, stage
completion and each completed stage's counters, so interrupted runs
leave a readable trail. Wall-clock timings and the peak resident set
size after each stage go to a separate file to keep the manifest
byte-stable across reruns.
"""

from __future__ import annotations

import hashlib
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
)

STAGES = ("terrain", "normalize", "chm", "crowns", "spectral", "join",
          "split", "statistics", "select", "train", "classify", "label",
          "enrich", "score", "plots", "report")


@dataclass
class PipelineResult:
    out_dir: str
    completed: list[str] = field(default_factory=list)
    context: dict = field(default_factory=dict)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


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
        for stage in planned:
            t0 = time.perf_counter()
            try:
                counts[stage] = _STAGE_FUNCS[stage](ctx, out) or {}
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
        with open(os.path.join(out, "timings.txt"), "w") as f:
            for name, dt, rss in timings:
                f.write(f"{name} {dt:.3f}s peak_rss {rss:.1f}MiB\n")
    return result


def _write_manifest(config, completed, counts, failure, out):
    lines = ["forestinv run manifest"]
    lines.append("config sha256 "
                 + hashlib.sha256(config.raw_text.encode()).hexdigest())
    for name in sorted(config.paths):
        path = config.paths[name]
        if os.path.exists(path):
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
    with open(os.path.join(out, "manifest.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------


def _stage_terrain(ctx, out):
    config = ctx["config"]
    dtm = read_ascii_grid(config.paths["dtm"])
    ctx["dtm"] = dtm
    derivatives = None
    if dtm.nrows >= 3 and dtm.ncols >= 3:
        from .geodata import terrain_derivatives

        derivatives = terrain_derivatives(dtm)
        write_ascii_grid(derivatives["slope"], os.path.join(out, "slope.asc"))
        write_ascii_grid(derivatives["aspect"], os.path.join(out, "aspect.asc"))
        write_ascii_grid(derivatives["elevation_class"],
                         os.path.join(out, "elevation_class.asc"))


def _stage_normalize(ctx, out):
    config = ctx["config"]
    cloud = read_point_cloud(config.paths["point_cloud"])
    ctx["cloud"] = chm_mod.normalize_heights(cloud, ctx["dtm"])


def _load_cube(ctx):
    config = ctx["config"]
    if "raw_cube" not in ctx:
        config.require_paths("cube_header", "cube_data")
        ctx["raw_cube"] = read_envi_cube(config.paths["cube_header"],
                                         config.paths["cube_data"])
    return ctx["raw_cube"]


def _stage_chm(ctx, out):
    config = ctx["config"]
    kwargs = {}
    if config.paths.get("cube_header"):
        cube = _load_cube(ctx)
        if abs(cube.cellsize - config.pitfree.resolution) > 1e-9:
            raise ConfigError(
                f"[chm] resolution {config.pitfree.resolution} does not match "
                f"the cube cell size {cube.cellsize}; crowns and pixels must "
                f"share one grid")
        kwargs = dict(xll=cube.xll, yll=cube.yll, ncols=cube.ncols,
                      nrows=cube.nrows)
    grid = chm_mod.pitfree_chm(ctx["cloud"], config.pitfree,
                               threads=config.run.threads, **kwargs)
    write_ascii_grid(grid, os.path.join(out, "chm.asc"))
    ctx["chm"] = grid
    return grid.counts


def _stage_crowns(ctx, out):
    config = ctx["config"]
    apexes = crowns_mod.detect_treetops(ctx["chm"], config.itc)
    crowns, owner = crowns_mod.grow_crowns(ctx["chm"], apexes, config.itc)
    if not crowns:
        raise DataError("no treetops detected; nothing to inventory")
    label_grid = crowns_mod.crown_label_grid(ctx["chm"], owner)
    write_ascii_grid(label_grid, os.path.join(out, "crown_labels.asc"))
    crowns_mod.write_crown_table(crowns, os.path.join(out, "crowns.csv"))
    ctx["crowns"], ctx["owner"] = crowns, owner


def _stage_spectral(ctx, out):
    config = ctx["config"]
    cube = _load_cube(ctx)
    trimmed = spectral_mod.trim_bands(cube, config.spectral.drop_head,
                                      config.spectral.drop_tail)
    prepared, n_bad = spectral_mod.normalize_spectrum(trimmed)
    if (prepared.nrows, prepared.ncols) != (ctx["chm"].nrows, ctx["chm"].ncols):
        raise DataError("cube and CHM grids are not aligned")
    ctx["cube"] = prepared
    return {"bands_in": cube.nbands, "bands_after_trim": prepared.nbands,
            "zero_mean_pixels": n_bad}


def _stage_join(ctx, out):
    config = ctx["config"]
    points = read_ground_truth(config.paths["ground_truth"], config.registry)
    species, unmatched = crowns_mod.spatial_join(points, ctx["crowns"],
                                                 ctx["owner"], ctx["chm"])
    if not species:
        raise DataError("no ground-truth point fell inside any crown")
    ctx["truth_species"] = species
    with open(os.path.join(out, "joined_species.csv"), "w") as f:
        f.write("crown_id,species\n")
        for cid in sorted(species):
            f.write(f"{cid},{species[cid]}\n")
    return {"matched_crowns": len(species),
            "unmatched_points": len(unmatched)}


def _stage_split(ctx, out):
    config = ctx["config"]
    split = crowns_mod.split_train_test(ctx["truth_species"],
                                        config.run.train_fraction,
                                        config.run.seed)
    ctx["split"] = split
    with open(os.path.join(out, "split.csv"), "w") as f:
        f.write("crown_id,role\n")
        for cid in split.train_ids:
            f.write(f"{cid},train\n")
        for cid in split.test_ids:
            f.write(f"{cid},test\n")


def _training_pixels(ctx):
    """(row, col) arrays per species over the training crowns, ordered by
    crown_id and row-major within a crown, capped per species with a
    seed-derived subsample for tractability."""
    config = ctx["config"]
    owner = ctx["owner"]
    truth = ctx["truth_species"]
    train_ids = ctx["split"].train_ids
    rng = np.random.default_rng(config.run.seed + 1)
    cap = config.spectral.max_training_pixels_per_species
    out = {}
    for sp in sorted({truth[cid] for cid in train_ids}):
        ids = [cid for cid in train_ids if truth[cid] == sp]
        arr = np.argwhere(np.isin(owner, ids))
        arr = arr[np.argsort(owner[arr[:, 0], arr[:, 1]], kind="stable")]
        if len(arr) > cap:
            arr = arr[rng.choice(len(arr), size=cap, replace=False)]
            arr = arr[np.lexsort((arr[:, 1], arr[:, 0]))]
        out[sp] = arr
    return out


def _stage_statistics(ctx, out):
    # normalize_spectrum leaves every pixel all-NaN or all-finite, so
    # dropping the rows with a NaN keeps the valid pixels on any bands
    samples = ctx["cube"].samples
    spectra = {}
    for sp, cells in _training_pixels(ctx).items():
        px = samples[:, cells[:, 0], cells[:, 1]].T
        spectra[sp] = px[~np.isnan(px).any(axis=1)]
    stats, skipped = spectral_mod.class_statistics(spectra)
    if len(stats) < 2:
        raise DataError("fewer than two species have enough training pixels")
    ctx["training_spectra"] = spectra
    ctx["class_stats"] = stats
    counts = {f"valid_pixels.{s.species_code}": s.n_samples for s in stats}
    counts.update((f"skipped.{sp}", 1) for sp in skipped)
    return counts


def _stage_select(ctx, out):
    config = ctx["config"]
    nbands = ctx["cube"].nbands
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
        ctx["class_stats"], k, candidates=candidates,
        aggregate=config.spectral.criterion_aggregate)
    ctx["bands"] = selection.indices
    spectral_mod.write_band_selection(selection, os.path.join(out, "bands.txt"))
    return {"criterion_evaluations": selection.evaluations}


def _stage_train(ctx, out):
    config = ctx["config"]
    spectra = ctx["training_spectra"]
    bands = np.asarray(ctx["bands"], dtype=np.intp)
    species = sorted(spectra)
    # take() keeps the rows C-contiguous, which the scaling sums rely on
    x = np.vstack([spectra[sp].take(bands, axis=1) for sp in species])
    labels = np.repeat(species, [len(spectra[sp]) for sp in species])
    if config.classify.classifier == "svm":
        model = classify_mod.train_svm(
            x, labels, C=config.classify.c, gamma=config.classify.gamma,
            bands=ctx["bands"])
    else:
        model = classify_mod.train_centroid(x, labels, bands=ctx["bands"])
    classify_mod.save_model(model, os.path.join(out, "model.txt"))
    ctx["model"] = model
    counts = {"training_pixels": len(x)}
    if config.classify.classifier == "svm":
        counts["support_vectors"] = sum(len(p.coefficients)
                                        for p in model.pairs)
        counts["smo_iterations"] = sum(p.iterations for p in model.pairs)
    return counts


def _stage_classify(ctx, out):
    config = ctx["config"]
    chm_grid = ctx["chm"]
    mask = (chm_grid.valid_mask()
            & (chm_grid.values >= config.itc.height_threshold))
    label_grid, legend = classify_mod.classify_image(
        ctx["cube"], ctx["bands"], ctx["model"], mask=mask)
    write_ascii_grid(label_grid, os.path.join(out, "species_labels.asc"))
    classify_mod.write_legend(legend, os.path.join(out, "species_legend.csv"))
    ctx["label_grid"] = label_grid
    ctx["legend"] = legend
    return {"pixels_classified": int(label_grid.valid_mask().sum())}


def _stage_label(ctx, out):
    unlabeled = classify_mod.label_crowns_majority(
        ctx["label_grid"], ctx["legend"], ctx["crowns"], ctx["owner"])
    return {"unlabeled_crowns": len(unlabeled)}


def _stage_enrich(ctx, out):
    from .allometry import enrich_crowns

    config = ctx["config"]
    crowns = ctx["crowns"]
    enrich_crowns(crowns, config.registry, config.dbh_model)
    crowns_mod.write_crown_table(crowns, os.path.join(out, "inventory.csv"))
    return {
        "skipped_unlabeled": sum(c.species_code is None for c in crowns),
        "borrowed_volume_params": sum(c.fallback_used is not None
                                      for c in crowns),
        "zero_volume_below_d0": sum(c.volume == 0.0 for c in crowns),
    }


def _stage_score(ctx, out):
    test_ids = set(ctx["split"].test_ids)
    test_crowns = [c for c in ctx["crowns"] if c.crown_id in test_ids]
    cm, excluded = evaluate_mod.score(test_crowns, ctx["truth_species"])
    if cm.total == 0:
        raise DataError("no test crown carries both a true and a predicted "
                        "species label")
    ctx["confusion"] = cm
    evaluate_mod.write_metrics_csv(cm, os.path.join(out, "metrics.csv"))
    with open(os.path.join(out, "metrics.txt"), "w") as f:
        f.write(evaluate_mod.format_metrics_table(
            cm, ctx["config"].classify.classifier))
        f.write(f"excluded crowns {excluded}\n")


def _stage_plots(ctx, out):
    config = ctx["config"]
    plots = []
    if config.paths.get("plots"):
        config.require_paths("plots")
        plots = evaluate_mod.read_plot_definitions(config.paths["plots"])
    totals = [evaluate_mod.aggregate_plot(ctx["crowns"], p) for p in plots]
    ctx["plot_defs"] = plots
    ctx["plot_totals"] = totals
    with open(os.path.join(out, "plot_totals.csv"), "w") as f:
        f.write("plot_id,volume_m3,agb_mg,n_trees\n")
        for p, t in zip(plots, totals):
            f.write(f"{p.plot_id},{t.volume_m3:.10g},{t.agb_mg:.10g},"
                    f"{t.n_trees}\n")


def _stage_report(ctx, out):
    config = ctx["config"]
    lines = ["forestinv inventory report", ""]
    lines.append(f"crowns delineated: {len(ctx['crowns'])}")
    lines.append(f"ground-truth crowns: {len(ctx['truth_species'])} "
                 f"(train {len(ctx['split'].train_ids)}, "
                 f"test {len(ctx['split'].test_ids)})")
    lines.append(f"selected bands: "
                 + ",".join(str(b) for b in ctx["bands"]))
    lines.append("")
    lines.append(evaluate_mod.format_metrics_table(
        ctx["confusion"], config.classify.classifier))

    observed_path = config.paths.get("observed_plots")
    if observed_path:
        config.require_paths("observed_plots")
    if ctx["plot_defs"] and observed_path:
        observed = {p.plot_id: p
                    for p in evaluate_mod.read_truth_plots(observed_path)}
        ids = [p.plot_id for p in ctx["plot_defs"]]
        _require_same_ids(ids, config.paths["plots"], observed, observed_path)
        ob_v = [observed[i].volume_m3 for i in ids]
        ob_a = [observed[i].agb_mg for i in ids]
        pr = {p.plot_id: t for p, t in zip(ctx["plot_defs"],
                                           ctx["plot_totals"])}
        pr_v = [pr[i].volume_m3 for i in ids]
        pr_a = [pr[i].agb_mg for i in ids]
        lines.append(evaluate_mod.format_plot_table(ids, ob_v, pr_v,
                                                    ob_a, pr_a))
    elif ctx["plot_defs"]:
        lines.append("plot totals written to plot_totals.csv "
                     "(no observed values supplied)")

    with open(os.path.join(out, "report.txt"), "w") as f:
        f.write("\n".join(lines) + "\n")


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
