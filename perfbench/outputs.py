"""Reading and checking the artifacts of one pipeline run.

Quality figures are recomputed here from the run's tables and the
scene's truth tables, not read from the program's own reports.
"""

from __future__ import annotations

import csv
import hashlib
import os
import statistics

# the only artifact that differs between reruns by design
VOLATILE = {"timings.txt"}

# criterion-10 floors
MIN_ACCURACY = 0.90
MIN_PLOT_R = 0.9
MAX_TOTAL_ERROR = 0.10


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def digests(directory) -> dict[str, str]:
    """SHA-256 of every file in a directory except the volatile ones."""
    return {name: _sha256(os.path.join(directory, name))
            for name in sorted(os.listdir(directory))
            if name not in VOLATILE
            and os.path.isfile(os.path.join(directory, name))}


def set_digest(files: dict[str, str]) -> str:
    """One SHA-256 over a name -> digest map."""
    text = "".join(f"{name} {files[name]}\n" for name in sorted(files))
    return hashlib.sha256(text.encode()).hexdigest()


def differing(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(n for n in set(a) | set(b) if a.get(n) != b.get(n))


def manifest_ok(run_dir) -> bool:
    path = os.path.join(run_dir, "manifest.txt")
    if not os.path.isfile(path):
        return False
    with open(path) as f:
        return "status ok" in f.read().splitlines()


def _rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class Quality:
    """Inventory size, held-out accuracy and plot agreement of a run."""

    def __init__(self, run_dir, scene_dir):
        inventory = _rows(os.path.join(run_dir, "inventory.csv"))
        truth = {r["crown_id"]: r["species"] for r in
                 _rows(os.path.join(run_dir, "joined_species.csv"))}
        predicted = {r["crown_id"]: r["species_code"] for r in inventory}
        test = [r["crown_id"] for r in _rows(os.path.join(run_dir, "split.csv"))
                if r["role"] == "test"]
        scored = [c for c in test if predicted.get(c)]
        self.crowns = len(inventory)
        self.scored = len(scored)
        self.accuracy = (sum(predicted[c] == truth[c] for c in scored)
                         / len(scored)) if scored else 0.0

        pred = {r["plot_id"]: r for r in
                _rows(os.path.join(run_dir, "plot_totals.csv"))}
        obs = {r["plot_id"]: r for r in
               _rows(os.path.join(scene_dir, "truth_plots.csv"))}
        ids = sorted(set(pred) & set(obs), key=int)
        self.plots = len(ids)
        self.r = {}
        self.total_error = {}
        for key, col in (("volume", "volume_m3"), ("agb", "agb_mg")):
            o = [float(obs[i][col]) for i in ids]
            p = [float(pred[i][col]) for i in ids]
            self.r[key] = statistics.correlation(o, p)
            self.total_error[key] = abs(sum(p) - sum(o)) / sum(o)

    def floor_misses(self) -> list[str]:
        """The criterion-10 floors this run misses."""
        misses = []
        if self.accuracy < MIN_ACCURACY:
            misses.append(f"accuracy {self.accuracy:.3f} < {MIN_ACCURACY}")
        for key in ("volume", "agb"):
            if not self.r[key] >= MIN_PLOT_R:
                misses.append(f"plot {key} R {self.r[key]:.3f} < {MIN_PLOT_R}")
            if self.total_error[key] > MAX_TOTAL_ERROR:
                misses.append(f"plot {key} total error "
                              f"{self.total_error[key]:.3f} > "
                              f"{MAX_TOTAL_ERROR}")
        return misses


def labeled_cells(asc_path) -> int:
    """Cells of an ESRI ASCII grid that hold data."""
    nodata = None
    count = 0
    with open(asc_path) as f:
        for line in f:
            tokens = line.split()
            if not tokens:
                continue
            if tokens[0][0].isalpha():
                if tokens[0].lower() == "nodata_value":
                    nodata = float(tokens[1])
                continue
            count += sum(float(t) != nodata for t in tokens)
    return count
