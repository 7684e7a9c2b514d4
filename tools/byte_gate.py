"""Byte gate: two source trees must write the same files.

    python tools/byte_gate.py PARENT_SRC CHANGE_SRC [--case NAME ...]
        [--seeds 2024,7,11] [--threads 2,1]

PARENT_SRC and CHANGE_SRC are checkouts of this repository; each side
runs `python -m forestinv.cli` as a child process with that checkout's
`src` on PYTHONPATH. A case is one of the benchmark's workload scene
configs (taken from perfbench/workloads.py) or a variant of one:
`paper-scale`, the `paper-spectral` scene with 150 trees, k = 35 and
2,000 training pixels per species, `sparse`, the `dense-stand` scene
at 1.5 points/m2, which no workload covers, `odd-pairs`, the
`paper-spectral` scene at 499 training pixels per species, whose SVM
pairs have 998 rows, not a multiple of 8, `large-area`, the
`dense-stand` scene at 3,600 trees, nine times its area, or `smooth`,
the `acceptance` scene with `[crowns] smooth_chm = true`. For each case
and seed, each side runs `forestinv synth`, then `forestinv run
--threads N` for each N. Every file the two sides wrote is compared
byte for byte, except `timings.txt`. One line per case and seed is
printed; the exit status is 1 if any file differs, is missing on one
side, or if a command's exit status differs.

Uses the standard library only.
"""

from __future__ import annotations

import argparse
import configparser
import filecmp
import io
import os
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# run from source, so nothing is written under perfbench/
_WORKLOADS = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))
WORKLOADS, scene_ini = _WORKLOADS["WORKLOADS"], _WORKLOADS["scene_ini"]
SKIPPED = {"timings.txt"}
# variant: (the workload it changes, the settings it overrides)
VARIANTS = {
    "paper-scale": ("paper-spectral", {
        "scene": {"n_trees": "150"},
        "spectral": {"k": "35", "max_training_pixels_per_species": "2000"}}),
    "sparse": ("dense-stand", {"scene": {"point_density": "1.5"}}),
    "odd-pairs": ("paper-spectral", {
        "spectral": {"max_training_pixels_per_species": "499"}}),
    "large-area": ("dense-stand", {"scene": {"n_trees": "3600"}}),
    "smooth": ("acceptance", {"crowns": {"smooth_chm": "true"}}),
}


def case_ini(case: str, seed: int) -> str:
    """The scene config of `case` at `seed`."""
    if case not in VARIANTS:
        return scene_ini(WORKLOADS[case], seed)
    workload, settings = VARIANTS[case]
    cp = configparser.ConfigParser()
    cp.read_string(scene_ini(WORKLOADS[workload], seed))
    cp.read_dict(settings)
    text = io.StringIO()
    cp.write(text)
    return text.getvalue()


def run_side(tree: Path, work: Path, ini: str, threads) -> list[str]:
    """Synthesize the scene in `work` and run it at each thread count
    with `tree`'s source; returns each command's exit status line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(tree / "src"), os.environ.get("PYTHONPATH")) if p)
    work.mkdir(parents=True)
    (work / "scene.ini").write_text(ini, encoding="utf-8")
    commands = [["synth", "--config", "scene.ini"]] + [
        ["run", "--config", "scene/pipeline.ini", "--threads", str(n),
         "--out", f"run_t{n}"] for n in threads]
    status = []
    for args in commands:
        proc = subprocess.run([sys.executable, "-m", "forestinv.cli", *args],
                              cwd=work, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        status.append(f"{args[0]} exit {proc.returncode}")
        if proc.returncode != 0:
            print(f"  {tree}: {' '.join(args)}: exit {proc.returncode}\n"
                  f"{proc.stderr}", end="", file=sys.stderr)
    return status


def differences(a: Path, b: Path) -> tuple[int, list[str]]:
    """(files compared, relative paths that differ or exist on one side)."""
    def files(root):
        return {p.relative_to(root) for p in root.rglob("*")
                if p.is_file() and p.name not in SKIPPED}

    left, right = files(a), files(b)
    bad = [f"{p} (one side only)" for p in sorted(left ^ right)]
    bad += [str(p) for p in sorted(left & right)
            if not filecmp.cmp(a / p, b / p, shallow=False)]
    return len(left | right), bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare every file that two source trees write.")
    parser.add_argument("parent", type=Path, help="the parent checkout")
    parser.add_argument("change", type=Path, help="the changed checkout")
    parser.add_argument("--case", action="append",
                        choices=[*WORKLOADS, *VARIANTS],
                        help="a workload or a variant (repeatable; "
                             "default: every workload)")
    parser.add_argument("--seeds", default="2024",
                        help="comma-separated scene seeds (default 2024)")
    parser.add_argument("--threads", default="2",
                        help="comma-separated --threads values (default 2)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    threads = [int(n) for n in args.threads.split(",")]
    failed = False
    with tempfile.TemporaryDirectory(prefix="byte_gate_") as tmp:
        for case in args.case or list(WORKLOADS):
            for seed in seeds:
                ini = case_ini(case, seed)
                sides = [Path(tmp, side, case, str(seed))
                         for side in ("parent", "change")]
                status = [run_side(tree.resolve(), work, ini, threads)
                          for tree, work in zip((args.parent, args.change),
                                                sides)]
                n, bad = differences(*sides)
                if status[0] != status[1]:
                    bad.insert(0, f"exit status {status[0]} vs {status[1]}")
                failed = failed or bool(bad)
                print(f"{case} seed {seed} threads "
                      f"{','.join(map(str, threads))}: "
                      + (f"DIFFERS: {'; '.join(bad)}" if bad
                         else f"identical ({n} files)"), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
