"""Crown geometry to stem diameter, biomass and volume.

Units are fixed throughout: tree height H and crown diameter CD in m,
DBH in cm, above-ground biomass in kg, stem volume in m^3.

The double-entry volume parameters for the seven main Alpine taxa are
embedded below; every other species borrows parameters through a
registry fallback (broadleaves from beech, conifers from spruce). The
DBH power-law coefficients are not part of the embedded parameter set's
source tables; the shipped defaults come from the external global
height-crown allometry literature and are plain configuration,
overridable per run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DataError, NumericalError

GYMNOSPERM = "gymnosperm"
ANGIOSPERM = "angiosperm"

# AGB power law: (0.016 + a_g) * (H*CD)^(2.013 + b_g) * exp(0.204^2 / 2)
_AGB_BASE_COEFF = 0.016
_AGB_BASE_EXP = 2.013
_AGB_SIGMA = 0.204
_AGB_GROUP = {
    GYMNOSPERM: (0.093, -0.223),
    ANGIOSPERM: (0.0, 0.0),
}


@dataclass(frozen=True)
class DbhModel:
    """DBH (cm) = coeff_a * (H * CD)^coeff_b * exp(sigma^2 / 2)."""

    coeff_a: float = 0.557
    coeff_b: float = 0.809
    sigma: float = 0.056

    def __post_init__(self):
        if self.coeff_a <= 0 or self.coeff_b <= 0 or self.sigma < 0:
            raise ValueError("need coeff_a > 0, coeff_b > 0, sigma >= 0")


@dataclass(frozen=True)
class VolumeParams:
    """Double-entry stem volume: V = a * (d - d0)^b * h^c."""

    a: float
    b: float
    c: float
    d0: float

    def __post_init__(self):
        if self.a <= 0 or self.b <= 0 or self.c <= 0 or self.d0 < 0:
            raise ValueError("need a, b, c > 0 and d0 >= 0")


@dataclass(frozen=True)
class SpeciesEntry:
    code: str
    name: str
    group: str
    volume_params: VolumeParams | None = None
    fallback: str | None = None

    def __post_init__(self):
        if self.group not in (GYMNOSPERM, ANGIOSPERM):
            raise ValueError(f"unknown functional group {self.group!r}")
        if self.volume_params is None and self.fallback is None:
            raise ValueError(f"species {self.code}: need volume parameters or "
                             f"a fallback")


_DEFAULT_ENTRIES = [
    SpeciesEntry("PIAB", "Picea abies", GYMNOSPERM,
                 VolumeParams(0.000177, 1.564254, 1.051565, 3.694650)),
    SpeciesEntry("ABAL", "Abies alba", GYMNOSPERM,
                 VolumeParams(0.000163, 1.706560, 0.941905, 3.694650)),
    SpeciesEntry("LADE", "Larix decidua", GYMNOSPERM,
                 VolumeParams(0.000108, 1.407756, 1.341377, 3.694650)),
    SpeciesEntry("PISY", "Pinus sylvestris", GYMNOSPERM,
                 VolumeParams(0.000102, 1.918184, 0.830164, 3.694650)),
    SpeciesEntry("PINI", "Pinus nigra", GYMNOSPERM,
                 VolumeParams(0.000129, 1.763086, 0.938445, 3.694650)),
    SpeciesEntry("PICE", "Pinus cembra", GYMNOSPERM,
                 VolumeParams(0.000188, 1.613713, 0.985266, 3.694650)),
    SpeciesEntry("FASY", "Fagus sylvatica", ANGIOSPERM,
                 VolumeParams(0.000055, 1.942089, 1.006420, 4.009100)),
    SpeciesEntry("QUPU", "Quercus pubescens", ANGIOSPERM, fallback="FASY"),
    SpeciesEntry("QUCE", "Quercus cerris", ANGIOSPERM, fallback="FASY"),
    SpeciesEntry("OSCA", "Ostrya carpinifolia", ANGIOSPERM, fallback="FASY"),
    SpeciesEntry("FROR", "Fraxinus ornus", ANGIOSPERM, fallback="FASY"),
    SpeciesEntry("FREX", "Fraxinus excelsior", ANGIOSPERM, fallback="FASY"),
    SpeciesEntry("ACPS", "Acer pseudoplatanus", ANGIOSPERM, fallback="FASY"),
    SpeciesEntry("BEPE", "Betula pendula", ANGIOSPERM, fallback="FASY"),
    SpeciesEntry("OTHC", "other conifers", GYMNOSPERM, fallback="PIAB"),
    SpeciesEntry("OTHB", "other broadleaves", ANGIOSPERM, fallback="FASY"),
]


class SpeciesRegistry:
    """Species codes with functional groups and volume parameters.

    Every fallback chain is followed once, here: a chain that names a
    code not in the registry, or comes back to a code it passed, raises
    ValueError naming the species.
    """

    def __init__(self, entries=None):
        entries = _DEFAULT_ENTRIES if entries is None else entries
        self._entries = {e.code: e for e in entries}
        self._volume = {}
        for code, entry in self._entries.items():
            seen, fallback = {code}, None
            while entry.volume_params is None:
                fallback = entry.fallback
                if fallback not in self._entries:
                    raise ValueError(f"species {code!r}: fallback "
                                     f"{fallback!r} is not in the registry")
                if fallback in seen:
                    raise ValueError(f"species {code!r}: fallback chain "
                                     f"returns to {fallback!r}")
                seen.add(fallback)
                entry = self._entries[fallback]
            self._volume[code] = entry.volume_params, fallback

    def __contains__(self, code: str) -> bool:
        return code in self._entries

    def entry(self, code: str) -> SpeciesEntry:
        try:
            return self._entries[code]
        except KeyError:
            raise DataError(f"unknown species code {code!r}") from None

    def group(self, code: str) -> str:
        return self.entry(code).group

    def volume_params(self, code: str) -> tuple[VolumeParams, str | None]:
        """(params, the fallback code whose parameters they are, or
        None); an unknown code raises DataError, as in `entry`."""
        return self._volume[self.entry(code).code]

    def with_overrides(self, extra_entries) -> "SpeciesRegistry":
        merged = dict(self._entries)
        for e in extra_entries:
            merged[e.code] = e
        return SpeciesRegistry(list(merged.values()))


def estimate_dbh(height: float, crown_diameter: float,
                 model: DbhModel | None = None) -> float:
    """Stem diameter at breast height (cm) from H and CD (m)."""
    if height <= 0 or crown_diameter <= 0:
        raise ValueError("height and crown diameter must be > 0")
    model = model or DbhModel()
    return (model.coeff_a * (height * crown_diameter) ** model.coeff_b
            * math.exp(model.sigma ** 2 / 2.0))


def agb_jucker(height: float, crown_diameter: float, group: str) -> float:
    """Above-ground biomass (kg) from H and CD (m) by functional group."""
    if height <= 0 or crown_diameter <= 0:
        raise ValueError("height and crown diameter must be > 0")
    try:
        alpha_g, beta_g = _AGB_GROUP[group]
    except KeyError:
        raise ValueError(f"unknown functional group {group!r}") from None
    return ((_AGB_BASE_COEFF + alpha_g)
            * (height * crown_diameter) ** (_AGB_BASE_EXP + beta_g)
            * math.exp(_AGB_SIGMA ** 2 / 2.0))


def volume_double_entry(dbh: float, height: float,
                        params: VolumeParams) -> tuple[float, bool]:
    """Stem volume (m^3); returns (volume, below_threshold_flag).

    Trees at or below the parameter d0 get volume 0 with the flag set.
    """
    if height <= 0:
        raise ValueError("height must be > 0")
    if dbh <= params.d0:
        return 0.0, True
    return params.a * (dbh - params.d0) ** params.b * height ** params.c, False


def enrich_crowns(crowns, registry: SpeciesRegistry,
                  dbh_model: DbhModel | None = None) -> list[str]:
    """Fill dbh, agb and volume on labeled crowns in place; a dbh, agb
    or volume beyond the float range raises NumericalError.

    Unlabeled crowns and unknown species are skipped; one report line
    per skipped crown, per fallback used and per zero volume is returned.
    """
    report = []
    for crown in crowns:
        species, h, cd = (crown.species_code, crown.tree_height,
                          crown.crown_diameter)
        if species is None:
            report.append(f"crown {crown.crown_id}: no species label, skipped")
            continue
        if species not in registry:
            report.append(f"crown {crown.crown_id}: unknown species "
                          f"{species!r}, skipped")
            continue
        params, fallback = registry.volume_params(species)
        try:
            dbh = estimate_dbh(h, cd, dbh_model)
            agb = agb_jucker(h, cd, registry.group(species))
            volume, below = volume_double_entry(dbh, h, params)
            finite = all(map(math.isfinite, (dbh, agb, volume)))
        except OverflowError:
            finite = False
        if not finite:
            raise NumericalError(f"{species} tree of height {h:g} m and "
                                 f"crown diameter {cd:g} m: dbh, agb or "
                                 f"volume overflows")
        crown.dbh, crown.agb, crown.volume, crown.fallback_used = (
            dbh, agb, volume, fallback)
        if fallback is not None:
            report.append(f"crown {crown.crown_id}: volume parameters "
                          f"borrowed from {fallback}")
        if below:
            report.append(f"crown {crown.crown_id}: dbh {dbh:.2f} cm at "
                          f"or below d0, volume 0")
    return report
