import math

import numpy as np
import pytest

from forestinv.allometry import (
    ANGIOSPERM,
    GYMNOSPERM,
    DbhModel,
    SpeciesEntry,
    SpeciesRegistry,
    VolumeParams,
    agb_jucker,
    enrich_crowns,
    estimate_dbh,
    volume_double_entry,
)
from forestinv.crowns import CrownRecord
from forestinv.errors import DataError, NumericalError


def reference_agb(h, cd, alpha_g, beta_g):
    """Straight-line independent evaluation of the biomass power law."""
    return (0.016 + alpha_g) * (h * cd) ** (2.013 + beta_g) * math.exp(
        0.204 ** 2 / 2.0)


def reference_volume(d, h, a, b, c, d0):
    return a * (d - d0) ** b * h ** c


def reference_dbh(h, cd, a, b, sigma):
    return a * (h * cd) ** b * math.exp(sigma ** 2 / 2.0)


class TestDbh:
    def test_identity_coefficients(self):
        model = DbhModel(coeff_a=1.0, coeff_b=1.0, sigma=0.0)
        assert estimate_dbh(20.0, 5.0, model) == pytest.approx(100.0)

    def test_homogeneity(self):
        model = DbhModel(coeff_a=0.7, coeff_b=1.0, sigma=0.0)
        assert estimate_dbh(20.0, 10.0, model) == pytest.approx(
            2.0 * estimate_dbh(20.0, 5.0, model))

    def test_default_coefficients_match_reference(self):
        expected = reference_dbh(20.0, 5.0, 0.557, 0.809, 0.056)
        assert estimate_dbh(20.0, 5.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(23.153, abs=0.01)

    def test_non_positive_inputs(self):
        with pytest.raises(ValueError):
            estimate_dbh(0.0, 5.0)
        with pytest.raises(ValueError):
            estimate_dbh(20.0, -1.0)


class TestAgb:
    def test_gymnosperm_golden_value(self):
        value = agb_jucker(20.0, 5.0, GYMNOSPERM)
        assert value == pytest.approx(reference_agb(20.0, 5.0, 0.093, -0.223),
                                      rel=1e-9)
        assert value == pytest.approx(423.1, abs=0.1)

    def test_angiosperm_golden_value(self):
        value = agb_jucker(20.0, 5.0, ANGIOSPERM)
        assert value == pytest.approx(reference_agb(20.0, 5.0, 0.0, 0.0),
                                      rel=1e-9)
        assert value == pytest.approx(173.4, abs=0.1)

    def test_vanishes_as_size_shrinks(self):
        prev = agb_jucker(1.0, 1.0, GYMNOSPERM)
        for scale in (0.1, 0.01, 0.001):
            cur = agb_jucker(scale, scale, GYMNOSPERM)
            assert cur < prev
            prev = cur
        assert prev < 1e-4

    def test_strictly_increasing_in_h_and_cd(self):
        for group in (GYMNOSPERM, ANGIOSPERM):
            assert agb_jucker(21.0, 5.0, group) > agb_jucker(20.0, 5.0, group)
            assert agb_jucker(20.0, 5.5, group) > agb_jucker(20.0, 5.0, group)

    def test_group_crossover(self):
        # groups swap order at H*CD = (0.109/0.016)^(1/0.223)
        crossover = (0.109 / 0.016) ** (1.0 / 0.223)
        lo = math.sqrt(crossover * 0.5)
        hi = math.sqrt(crossover * 2.0)
        assert agb_jucker(lo, lo, GYMNOSPERM) > agb_jucker(lo, lo, ANGIOSPERM)
        assert agb_jucker(hi, hi, GYMNOSPERM) < agb_jucker(hi, hi, ANGIOSPERM)

    def test_random_grid_matches_reference(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            h = rng.uniform(2, 40)
            cd = rng.uniform(0.5, 15)
            for group, (ag, bg) in (("gymnosperm", (0.093, -0.223)),
                                    ("angiosperm", (0.0, 0.0))):
                assert agb_jucker(h, cd, group) == pytest.approx(
                    reference_agb(h, cd, ag, bg), rel=1e-9)


class TestVolume:
    PIAB = VolumeParams(0.000177, 1.564254, 1.051565, 3.694650)

    def test_spruce_golden_value(self):
        v, below = volume_double_entry(30.0, 25.0, self.PIAB)
        assert not below
        assert v == pytest.approx(0.8696, abs=5e-5)
        assert v == pytest.approx(
            reference_volume(30.0, 25.0, 0.000177, 1.564254, 1.051565,
                             3.694650), rel=1e-9)

    def test_zero_at_threshold(self):
        v, below = volume_double_entry(self.PIAB.d0, 25.0, self.PIAB)
        assert v == 0.0 and below

    def test_beech_threshold_differs_from_conifers(self):
        reg = SpeciesRegistry()
        fasy, _ = reg.volume_params("FASY")
        piab, _ = reg.volume_params("PIAB")
        assert fasy.d0 == pytest.approx(4.0091)
        assert piab.d0 == pytest.approx(3.69465)

    def test_strictly_increasing(self):
        v1, _ = volume_double_entry(20.0, 25.0, self.PIAB)
        v2, _ = volume_double_entry(21.0, 25.0, self.PIAB)
        v3, _ = volume_double_entry(20.0, 26.0, self.PIAB)
        assert v2 > v1 and v3 > v1

    def test_random_grid_matches_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            d = rng.uniform(5, 80)
            h = rng.uniform(2, 45)
            v, _ = volume_double_entry(d, h, self.PIAB)
            assert v == pytest.approx(
                reference_volume(d, h, self.PIAB.a, self.PIAB.b, self.PIAB.c,
                                 self.PIAB.d0), rel=1e-9)


def make_crown(cid, species, height=25.0, diameter=5.0):
    return CrownRecord(crown_id=cid, apex_x=0.0, apex_y=0.0,
                       tree_height=height, crown_area=1.0,
                       crown_diameter=diameter, species_code=species)


class TestEnrichment:
    def test_labeled_crown_populated(self):
        crown = make_crown(1, "PIAB")
        report = enrich_crowns([crown], SpeciesRegistry())
        assert crown.dbh is not None and crown.agb is not None
        assert crown.volume is not None
        assert crown.fallback_used is None
        # cross-check with the golden volume example at its exact inputs
        v, _ = volume_double_entry(30.0, 25.0, TestVolume.PIAB)
        assert v == pytest.approx(0.8696, abs=5e-5)
        assert report == []

    def test_unlabeled_crown_skipped(self):
        crown = make_crown(2, None)
        report = enrich_crowns([crown], SpeciesRegistry())
        assert crown.dbh is None and crown.volume is None
        assert len(report) == 1 and "no species" in report[0]

    def test_broadleaf_uses_angiosperm_branch(self):
        crown = make_crown(3, "QUPU")
        enrich_crowns([crown], SpeciesRegistry())
        assert crown.agb == pytest.approx(
            reference_agb(25.0, 5.0, 0.0, 0.0), rel=1e-9)
        assert crown.fallback_used == "FASY"

    def test_unknown_species_reported(self):
        crown = make_crown(4, "ZZZZ")
        report = enrich_crowns([crown], SpeciesRegistry())
        assert crown.dbh is None
        assert "unknown species" in report[0]

    def test_registry_override(self):
        reg = SpeciesRegistry().with_overrides([
            SpeciesEntry("ZZZZ", "test species", GYMNOSPERM,
                         VolumeParams(0.0002, 1.5, 1.0, 3.0))])
        crown = make_crown(5, "ZZZZ")
        report = enrich_crowns([crown], reg)
        assert crown.volume is not None and report == []

    @pytest.mark.parametrize("model", [DbhModel(coeff_b=400.0),
                                       DbhModel(sigma=1e200),
                                       DbhModel(coeff_a=1e308)])
    def test_overflow_is_a_numerical_error(self, model):
        crown = make_crown(6, "PIAB")
        with pytest.raises(NumericalError, match="overflows"):
            enrich_crowns([crown], SpeciesRegistry(), model)


def test_registry_unknown_code():
    with pytest.raises(DataError):
        SpeciesRegistry().entry("NOPE")
