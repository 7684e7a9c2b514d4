import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from forestinv.crowns import CrownRecord
from forestinv.errors import DataError, NumericalError
from forestinv.evaluate import (
    ConfusionMatrix,
    PlotDefinition,
    PlotTotals,
    aggregate_plot,
    format_metrics_table,
    format_plot_table,
    pearson_r,
    per_class_metrics,
    read_plot_definitions,
    score,
    write_plot_definitions,
)
from forestinv.geodata import Grid

# 11-plot reference comparison bundled for validating the correlation
# implementation (observed vs predicted stem volume and biomass)
REF_VOLUME_OB = [3.00, 3.33, 57.87, 21.32, 15.41, 12.22, 14.53, 25.09,
                 18.42, 6.74, 20.51]
REF_VOLUME_PR = [1.02, 1.32, 63.92, 13.14, 12.22, 3.19, 5.67, 12.40,
                 11.57, 0.34, 0.23]
REF_AGB_OB = [1.84, 1.99, 26.95, 11.82, 7.49, 6.10, 7.24, 12.76, 9.21,
              4.04, 12.25]
REF_AGB_PR = [1.07, 1.45, 37.01, 8.99, 9.19, 2.68, 5.39, 9.53, 7.43,
              5.48, 3.68]


def crown_at(cid, x, y, species=None, dbh=None, volume=None, agb=None):
    return CrownRecord(crown_id=cid, apex_x=x, apex_y=y,
                       tree_height=20.0, crown_area=10.0,
                       crown_diameter=3.0, species_code=species, dbh=dbh,
                       volume=volume, agb=agb)


class TestScore:
    def test_all_correct_diagonal(self):
        crowns = [crown_at(i, 0, 0, species="A") for i in range(10)]
        cm, excluded = score(crowns, {i: "A" for i in range(10)})
        assert cm.trace == 10 and cm.total == 10 and excluded == 0

    def test_single_confusion_cell(self):
        crowns = [crown_at(1, 0, 0, species="B")]
        cm, _ = score(crowns, {1: "A"})
        assert cm.counts[cm.index("A"), cm.index("B")] == 1

    def test_order_independence(self):
        crowns = [crown_at(i, 0, 0, species="AB"[i % 2]) for i in range(8)]
        truth = {i: "AB"[(i + 1) % 2] for i in range(8)}
        cm1, _ = score(crowns, truth)
        cm2, _ = score(list(reversed(crowns)), truth)
        np.testing.assert_array_equal(cm1.counts, cm2.counts)

    def test_missing_label_excluded_and_counted(self):
        crowns = [crown_at(1, 0, 0, species="A"), crown_at(2, 0, 0)]
        cm, excluded = score(crowns, {1: "A"})
        assert excluded == 1 and cm.total == 1


class TestPerClassMetrics:
    def _fixture(self):
        # one-vs-rest for A: TP=8, FN=2, FP=3, TN=87 (total 100)
        counts = np.array([[8, 2], [3, 87]])
        return ConfusionMatrix(("A", "B"), counts)

    def test_hand_fixture(self):
        m = per_class_metrics(self._fixture())["A"]
        assert m.accuracy == pytest.approx(0.95, abs=1e-4)
        assert m.precision == pytest.approx(8 / 11, abs=1e-4)
        assert m.recall == pytest.approx(0.8, abs=1e-4)
        assert m.f_score == pytest.approx(0.7619, abs=1e-4)

    def test_never_predicted_class_absent_metrics(self):
        counts = np.array([[0, 5], [0, 95]])
        cm = ConfusionMatrix(("A", "B"), counts)
        m = per_class_metrics(cm)["A"]
        assert m.precision is None and m.f_score is None
        assert m.accuracy == pytest.approx(0.95)

    def test_perfect_classifier(self):
        cm = ConfusionMatrix(("A", "B"), np.diag([6, 4]))
        for m in per_class_metrics(cm).values():
            assert m.accuracy == 1.0 and m.precision == 1.0
            assert m.recall == 1.0 and m.f_score == 1.0

    def test_tp_tn_fp_fn_partition(self):
        rng = np.random.default_rng(0)
        counts = rng.integers(0, 20, (4, 4))
        cm = ConfusionMatrix(tuple("ABCD"), counts)
        total = cm.total
        for i, sp in enumerate(cm.species):
            tp = counts[i, i]
            fn = counts[i].sum() - tp
            fp = counts[:, i].sum() - tp
            tn = total - tp - fn - fp
            assert tp + tn + fp + fn == total

    def test_micro_accuracy_is_trace_over_total(self):
        cm = ConfusionMatrix(("A", "B"), np.array([[3, 1], [2, 4]]))
        assert cm.micro_accuracy() == pytest.approx(7 / 10)

    def test_dash_rendering(self):
        counts = np.array([[0, 5], [0, 95]])
        table = format_metrics_table(ConfusionMatrix(("A", "B"), counts), "svm")
        row = next(ln for ln in table.splitlines() if ln.startswith("A"))
        assert "-" in row


class TestAggregatePlot:
    def test_radius_filter(self):
        plot = PlotDefinition(1, 0.0, 0.0, radius=15.0)
        near = crown_at(1, 10.0, 0.0, "A", dbh=20.0, volume=0.5, agb=300.0)
        far = crown_at(2, 20.0, 0.0, "A", dbh=20.0, volume=0.5, agb=300.0)
        totals = aggregate_plot([near, far], plot)
        assert totals.n_trees == 1
        assert totals.volume_m3 == pytest.approx(0.5)

    def test_dbh_threshold_strict(self):
        plot = PlotDefinition(1, 0.0, 0.0)
        at = crown_at(1, 1.0, 0.0, "A", dbh=7.5, volume=0.5, agb=300.0)
        under = crown_at(2, 2.0, 0.0, "A", dbh=7.0, volume=0.5, agb=300.0)
        over = crown_at(3, 3.0, 0.0, "A", dbh=7.6, volume=0.5, agb=300.0)
        totals = aggregate_plot([at, under, over], plot)
        assert totals.n_trees == 1

    def test_additivity_and_unit_conversion(self):
        plot = PlotDefinition(1, 0.0, 0.0)
        crowns = [crown_at(i, float(i), 0.0, "A", dbh=20.0, volume=0.5,
                           agb=600.0) for i in range(2)]
        totals = aggregate_plot(crowns, plot)
        assert totals.volume_m3 == pytest.approx(1.0)
        assert totals.agb_mg == pytest.approx(1.2)

    def test_zero_tree_plot(self):
        totals = aggregate_plot([], PlotDefinition(1, 0.0, 0.0))
        assert totals == PlotTotals(1, 0.0, 0.0, 0)

    def test_additive_over_disjoint_sets(self):
        plot = PlotDefinition(1, 0.0, 0.0)
        a = [crown_at(1, 1.0, 0.0, "A", dbh=20.0, volume=0.3, agb=100.0)]
        b = [crown_at(2, 2.0, 0.0, "A", dbh=20.0, volume=0.4, agb=200.0)]
        ta, tb, tab = (aggregate_plot(s, plot) for s in (a, b, a + b))
        assert tab.volume_m3 == pytest.approx(ta.volume_m3 + tb.volume_m3)
        assert tab.agb_mg == pytest.approx(ta.agb_mg + tb.agb_mg)


class TestPearson:
    def test_identity_series(self):
        assert pearson_r([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0)

    def test_reference_volume_rows(self):
        r = pearson_r(REF_VOLUME_OB, REF_VOLUME_PR)
        assert r == pytest.approx(0.94, abs=0.01)

    def test_reference_agb_rows_against_numpy(self):
        # independent oracle: numpy's corrcoef on the same series
        r = pearson_r(REF_AGB_OB, REF_AGB_PR)
        assert r == pytest.approx(float(np.corrcoef(REF_AGB_OB,
                                                    REF_AGB_PR)[0, 1]),
                                  abs=1e-12)
        assert r == pytest.approx(0.9137, abs=5e-4)

    def test_zero_variance(self):
        with pytest.raises(NumericalError):
            pearson_r([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    def test_sums_beyond_the_float_range(self):
        with pytest.raises(NumericalError, match="overflow"):
            pearson_r([1.7e308, 1.7e308, 1.0], [1.0, 2.0, 3.0])

    @given(a=st.floats(0.1, 50), b=st.floats(-100, 100),
           c=st.floats(0.1, 50), d=st.floats(-100, 100))
    @settings(max_examples=60, deadline=None)
    def test_affine_invariance(self, a, b, c, d):
        rng = np.random.default_rng(17)
        x = rng.uniform(0, 10, 12)
        y = rng.uniform(0, 10, 12)
        base = pearson_r(x, y)
        assert pearson_r(a * x + b, c * y + d) == pytest.approx(base,
                                                                abs=1e-12)


def test_plot_table_rendering():
    table = format_plot_table(list(range(1, 12)), REF_VOLUME_OB,
                              REF_VOLUME_PR, REF_AGB_OB, REF_AGB_PR)
    assert "R (volume) = 0.93" in table
    assert "R (AGB) = 0.91" in table


def test_plot_definition_round_trip(tmp_path):
    plots = [PlotDefinition(1, 10.0, 20.0), PlotDefinition(2, 30.0, 40.0,
                                                           radius=12.5,
                                                           dbh_min=5.0)]
    path = tmp_path / "plots.csv"
    write_plot_definitions(plots, path)
    back = read_plot_definitions(path, Grid(np.zeros((50, 50)), 0.0, 0.0, 1.0))
    assert back == plots


@pytest.mark.parametrize("x, y, radius, meets", [
    (-3.0, -4.0, 5.0, True),     # 5 m from the corner: the circle touches it
    (-3.0, -4.01, 5.0, False),
    (25.0, 59.9, 10.0, True),    # 9.9 m north of the north edge
    (25.0, 60.1, 10.0, False),
    (25.0, 25.0, 1.0, True),
])
def test_plot_circle_must_meet_the_chm_extent(tmp_path, x, y, radius, meets):
    chm = Grid(np.zeros((25, 25)), 0.0, 0.0, 2.0)   # covers [0, 50] m
    path = tmp_path / "plots.csv"
    path.write_text(f"plot_id,center_x,center_y,radius\n1,{x},{y},{radius}\n")
    if meets:
        assert len(read_plot_definitions(path, chm)) == 1
    else:
        with pytest.raises(DataError, match="line 2: plot circle at .* does "
                                            "not meet the CHM extent"):
            read_plot_definitions(path, chm)
