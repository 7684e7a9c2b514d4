"""Accuracy metrics, fixed-radius plot aggregation and correlation."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .geodata import Grid, read_table, write_table


@dataclass(frozen=True)
class ConfusionMatrix:
    """Counts[true][predicted] over an ordered species list."""

    species: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(np.asarray(self.counts, dtype=np.int64))
        n = len(self.species)
        if arr.shape != (n, n) or (arr < 0).any():
            raise ValueError("counts must be a square non-negative matrix")
        arr.flags.writeable = False
        object.__setattr__(self, "counts", arr)

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @property
    def trace(self) -> int:
        return int(np.trace(self.counts))

    def micro_accuracy(self) -> float:
        return self.trace / self.total

    def index(self, species: str) -> int:
        return self.species.index(species)


def score(crowns, truth_by_id: dict[int, str]):
    """Confusion matrix of predicted vs true crown species.

    Crowns missing either label are excluded; returns
    (ConfusionMatrix, number excluded).
    """
    pairs = []
    excluded = 0
    for crown in crowns:
        true = truth_by_id.get(crown.crown_id)
        pred = crown.species_code
        if true is None or pred is None:
            excluded += 1
            continue
        pairs.append((true, pred))
    species = tuple(sorted({s for pair in pairs for s in pair}))
    idx = {s: i for i, s in enumerate(species)}
    counts = np.zeros((len(species), len(species)), dtype=np.int64)
    for true, pred in pairs:
        counts[idx[true], idx[pred]] += 1
    return ConfusionMatrix(species, counts), excluded


@dataclass(frozen=True)
class ClassMetrics:
    """One-vs-rest metrics; a None field means the ratio was undefined."""

    accuracy: float | None
    precision: float | None
    recall: float | None
    f_score: float | None


def per_class_metrics(cm: ConfusionMatrix) -> dict[str, ClassMetrics]:
    """Accuracy (TP+TN)/total, precision TP/(TP+FP), recall TP/(TP+FN)
    and F = 2PR/(P+R) per species, one-vs-rest. Ratios with a zero
    denominator are reported as None (rendered "-")."""
    total = cm.total
    if total == 0:
        raise ValueError("empty confusion matrix")
    out = {}
    for i, sp in enumerate(cm.species):
        tp = int(cm.counts[i, i])
        fn = int(cm.counts[i].sum()) - tp
        fp = int(cm.counts[:, i].sum()) - tp
        tn = total - tp - fn - fp
        accuracy = (tp + tn) / total
        precision = tp / (tp + fp) if tp + fp > 0 else None
        recall = tp / (tp + fn) if tp + fn > 0 else None
        if precision is not None and recall is not None and precision + recall > 0:
            f_score = 2 * precision * recall / (precision + recall)
        else:
            f_score = None
        out[sp] = ClassMetrics(accuracy, precision, recall, f_score)
    return out


@dataclass(frozen=True)
class PlotDefinition:
    """Fixed-radius field plot tallying stems above a DBH threshold."""

    plot_id: int
    center_x: float
    center_y: float
    radius: float = 15.0
    dbh_min: float = 7.5

    def __post_init__(self):
        if not all(map(math.isfinite, (self.center_x, self.center_y,
                                       self.radius, self.dbh_min))):
            raise ValueError("center, radius and dbh_min must be finite")
        if self.radius <= 0:
            raise ValueError("radius must be > 0")
        if self.dbh_min < 0:
            raise ValueError("dbh_min must be >= 0")


@dataclass(frozen=True)
class PlotTotals:
    """Observed or predicted totals of one field plot."""

    plot_id: int
    volume_m3: float
    agb_mg: float
    n_trees: int


def aggregate_plot(crowns, plot: PlotDefinition) -> PlotTotals:
    """Sum volume and AGB over enriched crowns whose apex falls within
    the plot radius and whose dbh strictly exceeds the threshold.
    AGB converts from kg to Mg."""
    volume = 0.0
    agb_kg = 0.0
    n = 0
    r2 = plot.radius * plot.radius
    for crown in crowns:
        if crown.dbh is None or crown.volume is None or crown.agb is None:
            continue
        dx = crown.apex_x - plot.center_x
        dy = crown.apex_y - plot.center_y
        if dx * dx + dy * dy > r2:
            continue
        if not crown.dbh > plot.dbh_min:
            continue
        volume += crown.volume
        agb_kg += crown.agb
        n += 1
    return PlotTotals(plot.plot_id, volume, agb_kg / 1000.0, n)


def pearson_r(observed, predicted) -> float:
    """Sample Pearson correlation coefficient; a series with zero
    variance, or sums beyond the float range, raise NumericalError."""
    x = np.asarray(observed, dtype=np.float64)
    y = np.asarray(predicted, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1 or x.size < 2:
        raise ValueError("need two equal-length series of >= 2 values")
    with np.errstate(over="ignore", invalid="ignore"):
        xc = x - x.mean()
        yc = y - y.mean()
        sxx, syy, sxy = float(xc @ xc), float(yc @ yc), float(xc @ yc)
    if sxx == 0.0 or syy == 0.0:
        raise NumericalError("correlation undefined: a series has zero variance")
    r = sxy / (math.sqrt(sxx) * math.sqrt(syy))
    if not math.isfinite(r):
        raise NumericalError("correlation undefined: the sums overflow")
    return r


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------


def _pct(v) -> str:
    return "-" if v is None else f"{100.0 * v:.0f}%"


def format_metrics_table(cm: ConfusionMatrix, classifier_name: str) -> str:
    """Fixed-width per-species accuracy table (Acc. / Prec. / F columns)."""
    metrics = per_class_metrics(cm)
    width = max([len("Species")] + [len(sp) for sp in cm.species]) + 2
    lines = [f"Classifier: {classifier_name}",
             f"{'Species':<{width}}{'Acc.':>8}{'Prec.':>8}{'F':>8}"]
    for sp in cm.species:
        m = metrics[sp]
        lines.append(f"{sp:<{width}}{_pct(m.accuracy):>8}"
                     f"{_pct(m.precision):>8}{_pct(m.f_score):>8}")
    lines.append(f"overall accuracy {100.0 * cm.micro_accuracy():.1f}% "
                 f"({cm.trace}/{cm.total})")
    return "\n".join(lines) + "\n"


def format_plot_table(plot_ids, observed_volume, predicted_volume,
                      observed_agb, predicted_agb) -> str:
    """Observed/predicted per-plot comparison in the two-row-per-quantity
    layout, with correlation coefficients when they are defined."""
    head = "Area      " + "".join(f"{pid:>9}" for pid in plot_ids)

    def row(tag, sub, values):
        return f"{tag:<6}{sub:<4}" + "".join(f"{v:>9.2f}" for v in values)

    lines = [head,
             row("V", "Ob", observed_volume),
             row("", "Pr", predicted_volume),
             row("AGB", "Ob", observed_agb),
             row("", "Pr", predicted_agb)]
    for tag, ob, pr in (("volume", observed_volume, predicted_volume),
                        ("AGB", observed_agb, predicted_agb)):
        try:
            lines.append(f"R ({tag}) = {pearson_r(ob, pr):.4f}")
        except (NumericalError, ValueError) as exc:
            lines.append(f"R ({tag}) undefined: {exc}")
    return "\n".join(lines) + "\n"


def write_metrics_csv(cm: ConfusionMatrix, path) -> None:
    metrics = per_class_metrics(cm)
    columns = {"species": list(cm.species)}
    for name in ("accuracy", "precision", "recall", "f_score"):
        values = [getattr(metrics[sp], name) for sp in cm.species]
        columns[name] = ["" if v is None else format(v, ".6g") for v in values]
    write_table(path, columns)


_PLOT_COLUMNS = ("plot_id", "center_x", "center_y", "radius", "dbh_min")
# observed (truth_plots.csv) and predicted (plot_totals.csv) plot totals
_PLOT_TOTAL_COLUMNS = ("plot_id", "volume_m3", "agb_mg", "n_trees")


def read_plot_definitions(path, chm: Grid) -> list[PlotDefinition]:
    """Plot table: header ``plot_id,center_x,center_y[,radius][,dbh_min]``.

    Every plot's circle meets the extent of `chm`.
    """
    x1 = chm.xll + chm.ncols * chm.cellsize
    y1 = chm.yll + chm.nrows * chm.cellsize

    def make(plot_id, center_x, center_y, *rest):
        plot = PlotDefinition(int(plot_id), float(center_x), float(center_y),
                              *map(float, rest))
        # distance from the center to the nearest point of the extent
        dx = max(chm.xll - plot.center_x, 0.0, plot.center_x - x1)
        dy = max(chm.yll - plot.center_y, 0.0, plot.center_y - y1)
        if dx * dx + dy * dy > plot.radius * plot.radius:
            raise ValueError(f"plot circle at ({center_x}, {center_y}) does "
                             f"not meet the CHM extent")
        return plot

    return read_table(path, _PLOT_COLUMNS, 3, _unique_plot_ids(make))


def read_truth_plots(path) -> list[PlotTotals]:
    """Observed plot totals: header ``plot_id,volume_m3,agb_mg,n_trees``."""

    def make(plot_id, volume_m3, agb_mg, n_trees):
        totals = PlotTotals(int(plot_id), float(volume_m3), float(agb_mg),
                            int(n_trees))
        if not (math.isfinite(totals.volume_m3)
                and math.isfinite(totals.agb_mg)):
            raise ValueError("volume and agb must be finite")
        if min(totals.volume_m3, totals.agb_mg, totals.n_trees) < 0:
            raise ValueError("volume, agb and n_trees must be >= 0")
        return totals

    return read_table(path, _PLOT_TOTAL_COLUMNS, 4, _unique_plot_ids(make))


def _unique_plot_ids(make):
    """`make`, refusing a plot id that an earlier row already used."""
    seen = set()

    def checked(*fields):
        record = make(*fields)
        if record.plot_id in seen:
            raise ValueError(f"duplicate plot_id {record.plot_id}")
        seen.add(record.plot_id)
        return record

    return checked


def write_plot_definitions(plots, path) -> None:
    write_table(path, {name: [getattr(p, name) for p in plots]
                       for name in _PLOT_COLUMNS})


def write_plot_totals(totals, path) -> None:
    write_table(path, {name: [getattr(t, name) for t in totals]
                       for name in _PLOT_TOTAL_COLUMNS})
