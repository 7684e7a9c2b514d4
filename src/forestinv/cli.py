"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys

from .config import load_config
from .errors import ConfigError, DataError, NumericalError
from .evaluate import format_plot_table
from .pipeline import STAGES, run_pipeline

# Bundled 11-plot reference comparison (observed vs predicted stem volume
# in m^3 and above-ground biomass in Mg) used to validate the correlation
# implementation from the command line.
_REF_PLOT_IDS = list(range(1, 12))
_REF_VOLUME_OB = [3.00, 3.33, 57.87, 21.32, 15.41, 12.22, 14.53, 25.09,
                  18.42, 6.74, 20.51]
_REF_VOLUME_PR = [1.02, 1.32, 63.92, 13.14, 12.22, 3.19, 5.67, 12.40,
                  11.57, 0.34, 0.23]
_REF_AGB_OB = [1.84, 1.99, 26.95, 11.82, 7.49, 6.10, 7.24, 12.76, 9.21,
               4.04, 12.25]
_REF_AGB_PR = [1.07, 1.45, 37.01, 8.99, 9.19, 2.68, 5.39, 9.53, 7.43,
               5.48, 3.68]

# subcommand -> last pipeline stage it runs
_STAGE_COMMANDS = {
    "chm": "chm",
    "crowns": "crowns",
    "select-bands": "select",
    "train": "train",
    "classify": "label",
    "inventory": "enrich",
    "evaluate": "report",
}


def _add_common(parser, config_required=True):
    parser.add_argument("--config", required=config_required,
                        help="path to the INI configuration file")
    parser.add_argument("--out", help="output directory (overrides [run])")
    parser.add_argument("--seed", type=int,
                        help="random seed (overrides [run])")
    parser.add_argument("--threads", type=int,
                        help="threads for the CHM stage: this thread and "
                             "N - 1 workers triangulate and certify tiles, "
                             "this thread rasterizes them; outputs do not "
                             "depend on N")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="forestinv",
        description="Individual-tree forest inventory from LiDAR and "
                    "hyperspectral data")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic scene")
    _add_common(p)

    for name, stage in _STAGE_COMMANDS.items():
        p = sub.add_parser(name, help=f"run the pipeline through its "
                                      f"'{stage}' stage")
        _add_common(p)

    p = sub.add_parser("run", help="run the full pipeline")
    _add_common(p)
    p.add_argument("--stage", choices=STAGES,
                   help="stop after this stage")

    sub.add_parser("table6-check",
                   help="feed the bundled 11-plot reference comparison "
                        "through the correlation operation")
    return parser


def _cmd_synth(args) -> int:
    from .synth import generate_scene, random_scene, write_scene

    config = load_config(args.config, seed_override=args.seed,
                         out_override=args.out,
                         threads_override=args.threads)
    try:
        spec = random_scene(config.scene, seed=config.run.seed,
                            chm_resolution=config.pitfree.resolution)
        data = generate_scene(spec, config.registry, config.dbh_model)
    except ValueError as exc:
        raise ConfigError(f"[scene]: {exc}") from None
    paths = write_scene(data, config.run.output_dir)
    _write_pipeline_config(config, paths,
                           os.path.join(config.run.output_dir, "pipeline.ini"))
    print(f"scene with {len(spec.trees)} trees written to "
          f"{config.run.output_dir}")
    return 0


def _write_pipeline_config(config, paths, out_path) -> None:
    """Ready-to-run pipeline config pointing at the generated scene."""
    import configparser

    cp = configparser.ConfigParser()
    cp.read_string(config.raw_text)
    if not cp.has_section("paths"):
        cp.add_section("paths")
    mapping = {
        "dtm": "dtm", "point_cloud": "point_cloud",
        "cube_header": "cube_header", "cube_data": "cube_data",
        "ground_truth": "ground_truth", "plots": "plots",
        "observed_plots": "truth_plots",
    }
    for key, name in mapping.items():
        cp["paths"][key] = os.path.basename(paths[name])
    if not cp.has_section("run"):
        cp.add_section("run")
    cp["run"]["seed"] = str(config.run.seed)
    cp["run"]["output_dir"] = "run_out"
    with open(out_path, "w") as f:
        cp.write(f)


def _cmd_stage(args, stop_after: str | None) -> int:
    config = load_config(args.config, seed_override=args.seed,
                         out_override=args.out,
                         threads_override=args.threads)
    result = run_pipeline(config, stop_after=stop_after)
    print(f"completed stages: {', '.join(result.completed)}")
    print(f"artifacts in {result.out_dir}")
    return 0


def _cmd_table6_check() -> int:
    print(format_plot_table(_REF_PLOT_IDS, _REF_VOLUME_OB, _REF_VOLUME_PR,
                            _REF_AGB_OB, _REF_AGB_PR), end="")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        if args.command == "table6-check":
            return _cmd_table6_check()
        if args.command == "run":
            return _cmd_stage(args, args.stage)
        return _cmd_stage(args, _STAGE_COMMANDS[args.command])
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 4
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
