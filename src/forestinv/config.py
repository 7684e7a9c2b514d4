"""Plain-text configuration (INI sections, one per pipeline module).

Each section is read into one dataclass: a field's name is its key, its
annotation the cast and its value the default; `__post_init__` checks
the values.
"""

from __future__ import annotations

import configparser
import math
import os
import typing
from dataclasses import dataclass, fields

from .allometry import (
    ANGIOSPERM,
    GYMNOSPERM,
    DbhModel,
    SpeciesEntry,
    SpeciesRegistry,
    VolumeParams,
)
from .chm import PitfreeParams
from .crowns import ItcParams
from .errors import ConfigError
from .geodata import open_text
from .spectral import MIN_CLASS_PIXELS
from .synth import SceneConfig


@dataclass
class SpectralConfig:
    drop_head: int = 7
    drop_tail: int = 8
    exclude_bands: tuple[int, ...] = ()
    k: int = 35
    criterion_aggregate: str = "mean"
    max_training_pixels_per_species: int = 2000

    def __post_init__(self):
        if self.drop_head < 0 or self.drop_tail < 0:
            raise ValueError("drop_head and drop_tail must be >= 0")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.criterion_aggregate not in ("mean", "min"):
            raise ValueError("criterion_aggregate must be mean or min")
        if self.max_training_pixels_per_species < MIN_CLASS_PIXELS:
            raise ValueError(f"max_training_pixels_per_species must be >= "
                             f"{MIN_CLASS_PIXELS}")


@dataclass
class ClassifyConfig:
    classifier: str = "svm"          # svm | centroid
    c: float = 10.0
    gamma: float | None = None       # None -> 1 / n_bands

    def __post_init__(self):
        if self.classifier not in ("svm", "centroid"):
            raise ValueError("classifier must be svm or centroid")
        if not 0 < self.c < math.inf:
            raise ValueError("c must be finite and > 0")
        if self.gamma is not None and not 0 < self.gamma < math.inf:
            raise ValueError("gamma must be finite and > 0")


@dataclass
class RunConfig:
    seed: int = 42
    train_fraction: float = 0.65
    output_dir: str = "out"
    threads: int = 1

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not 0 < self.train_fraction < 1:
            raise ValueError("train_fraction must lie in (0, 1)")
        if self.threads < 1:
            raise ValueError("threads must be >= 1")


@dataclass
class PipelineConfig:
    paths: dict[str, str]
    pitfree: PitfreeParams
    itc: ItcParams
    spectral: SpectralConfig
    classify: ClassifyConfig
    dbh_model: DbhModel
    registry: SpeciesRegistry
    run: RunConfig
    scene: SceneConfig
    raw_text: str = ""

    def require_paths(self, *names):
        missing = [n for n in names if not self.paths.get(n)]
        if missing:
            raise ConfigError("missing input path(s) in [paths]: "
                              + ", ".join(missing))
        absent = [self.paths[n] for n in names
                  if not os.path.exists(self.paths[n])]
        if absent:
            raise ConfigError("input file(s) not found: " + ", ".join(absent))
        other = [self.paths[n] for n in names
                 if not os.path.isfile(self.paths[n])]
        if other:
            raise ConfigError("input path(s) not a regular file: "
                              + ", ".join(other))


def _items(cp, section) -> dict[str, str]:
    """The section's key -> value pairs, [DEFAULT] keys included; {} when
    the section is absent."""
    if not cp.has_section(section):
        return {}
    try:
        return dict(cp[section].items())
    except configparser.InterpolationError as exc:
        raise ConfigError(f"[{section}] {exc.option}: {exc}") from None


def _parse(tp, raw: str):
    """`raw` cast to the field type `tp`: int, float, str, bool,
    `X | None` or a comma list `tuple[X, ...]`."""
    if typing.get_origin(tp) is tuple:
        item = typing.get_args(tp)[0]
        return tuple(item(t.strip()) for t in raw.split(",") if t.strip())
    args = [t for t in typing.get_args(tp) if t is not type(None)]
    if args:  # X | None
        tp = args[0]
    if tp is bool:
        states = configparser.ConfigParser.BOOLEAN_STATES
        if raw.lower() not in states:
            raise ValueError(raw)
        return states[raw.lower()]
    return tp(raw)


def _finite(value) -> bool:
    """False for a float, or a tuple holding one, that is inf or nan."""
    values = value if isinstance(value, tuple) else (value,)
    return all(math.isfinite(v) for v in values if isinstance(v, float))


def _read(cp, section, cls, prefix="", **overrides):
    """Build `cls` from one INI section.

    Each dataclass field is the key `prefix + name`, cast by the field's
    annotation. An absent or empty key keeps the field's default (an
    empty list is `()`); a key that is no field is an error unless it
    comes from [DEFAULT], and so is a float key that is not finite.
    `overrides` that are not None replace file values, and every value
    passes the constructor's checks.
    """
    hints = typing.get_type_hints(cls)
    names = {prefix + f.name: f.name for f in fields(cls)}
    kwargs = {}
    for key, raw in _items(cp, section).items():
        if key not in names:
            if key in cp.defaults():
                continue
            raise ConfigError(f"[{section}] unknown key {key!r}")
        tp = hints[names[key]]
        if not raw and typing.get_origin(tp) is not tuple:
            continue
        try:
            value = kwargs[names[key]] = _parse(tp, raw)
        except ValueError:
            raise ConfigError(f"[{section}] bad value for {key!r}: "
                              f"{raw!r}") from None
        if not _finite(value):
            raise ConfigError(f"[{section}] {key} must be finite")
    kwargs.update((k, v) for k, v in overrides.items() if v is not None)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"[{section}]: {exc}") from None


_SECTIONS = {"paths", "registry", "run", "chm", "crowns", "spectral",
             "classify", "allometry", "scene"}


def load_config(path, seed_override=None, out_override=None,
                threads_override=None) -> PipelineConfig:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    if not os.path.isfile(path):
        raise ConfigError(f"config path not a regular file: {path}")
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        with open_text(path, ConfigError) as f:
            text = f.read()
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from None

    unknown = sorted(set(cp.sections()) - _SECTIONS)
    if unknown:
        raise ConfigError(f"{path}: unknown section(s) "
                          + ", ".join(f"[{name}]" for name in unknown))

    base_dir = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base_dir, p)

    try:
        registry = SpeciesRegistry().with_overrides(
            [_parse_registry_entry(code, value)
             for code, value in _items(cp, "registry").items()])
    except ValueError as exc:
        raise ConfigError(f"[registry] {exc}") from None
    scene = _read(cp, "scene", SceneConfig)
    unknown = [code for code in scene.species if code not in registry]
    if unknown:
        raise ConfigError(f"[scene] species: unknown species code(s) "
                          f"{', '.join(unknown)}; add them to [registry]")
    run = _read(cp, "run", RunConfig, seed=seed_override,
                output_dir=out_override, threads=threads_override)
    if out_override is None:  # an --out path is relative to the cwd
        run.output_dir = resolve(run.output_dir)
    # the output directory, or the first of its parents that exists,
    # must be a directory
    existing = os.path.abspath(run.output_dir)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"[run] output_dir: {existing} is a file, "
                          f"not a directory")

    return PipelineConfig(
        paths={key: resolve(value)
               for key, value in _items(cp, "paths").items() if value},
        pitfree=_read(cp, "chm", PitfreeParams),
        itc=_read(cp, "crowns", ItcParams),
        spectral=_read(cp, "spectral", SpectralConfig),
        classify=_read(cp, "classify", ClassifyConfig),
        dbh_model=_read(cp, "allometry", DbhModel, prefix="dbh_"),
        registry=registry, run=run, scene=scene, raw_text=text)


def _parse_registry_entry(code: str, value: str) -> SpeciesEntry:
    """``CODE = group[,a,b,c,d0][,fallback=CODE]``"""
    tokens = [t.strip() for t in value.split(",")]
    group = tokens[0].lower()
    if group not in (GYMNOSPERM, ANGIOSPERM):
        raise ConfigError(f"[registry] {code}: group must be gymnosperm or "
                          f"angiosperm, got {tokens[0]!r}")
    params = None
    fallback = None
    numeric = []
    for tok in tokens[1:]:
        if tok.startswith("fallback="):
            fallback = tok.split("=", 1)[1].strip().upper()
        else:
            try:
                numeric.append(float(tok))
            except ValueError:
                raise ConfigError(f"[registry] {code}: bad token {tok!r}") \
                    from None
    if numeric and len(numeric) != 4:
        raise ConfigError(f"[registry] {code}: need 4 volume parameters "
                          f"(a, b, c, d0)")
    if not _finite(tuple(numeric)):
        raise ConfigError(f"[registry] {code}: volume parameters must be "
                          f"finite")
    try:
        if numeric:
            params = VolumeParams(*numeric)
        return SpeciesEntry(code.upper(), code.upper(), group, params, fallback)
    except ValueError as exc:
        raise ConfigError(f"[registry] {code}: {exc}") from None
