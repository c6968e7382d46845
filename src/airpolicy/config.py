"""Pipeline configuration: one JSON document, fully validated up front.

The document's shape is written once, in ``_DEFAULTS``. One pass rejects
unknown keys anywhere in it and values of the wrong JSON type (nothing is
coerced) and fills in the absent keys; the rules no type states (choices,
ranges, city names, hyperparameter domains) then run on the filled document,
which ``report.json`` echoes. So bad input fails before any output exists.
Dotted --set overrides are applied to the raw document, then validated.

The specs the document describes, ``ModelSpec`` (the learner kinds and their
hyperparameter rules) and ``SplitSpec``, are defined here too, so checking a
config imports no learner and no evaluation code.
"""

from __future__ import annotations

import copy
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field

from .dataset import DEFAULT_COLUMN_MAP, DEFAULT_MAX_LEVEL, MeasureKind, PollutantKind
from .errors import ConfigError, DomainError

KINDS = ("knn", "dtr", "rfr", "linreg", "ridge", "lasso", "mgbr", "madab", "dnn")

# Per-kind defaults; depths, estimator counts, layer sizes, and the
# forest's seed are fixed values, the rest are documented choices.
HYPER_DEFAULTS: dict[str, dict] = {
    "knn": {"k": 5},
    "dtr": {"max_depth": 5},
    "rfr": {"n_trees": 100, "max_depth": 5},
    "linreg": {},
    "ridge": {"lam": 1.0},
    "lasso": {"lam": 0.001, "tol": 1e-6, "max_sweeps": 10000},
    "mgbr": {"epochs": 5, "eta0": 0.01, "l2": 1e-4},
    "madab": {"estimators": 5, "base_depth": 3},
    "dnn": {"epochs": 500, "batch_size": 16, "learning_rate": 0.01},
}

# Alternate names accepted in configs; stored under the canonical key.
HYPER_ALIASES: dict[str, dict[str, str]] = {
    "mgbr": {"estimators": "epochs"},
}

DEFAULT_SEEDS: dict[str, int] = {"rfr": 2}


@dataclass(frozen=True)
class ModelSpec:
    """A learner kind plus resolved hyperparameters and a seed.

    Hyperparameter names and domains are checked at construction, so a typo
    or a zero count fails before any training run.
    """

    kind: str
    hyperparameters: dict = field(default_factory=dict)
    seed: int | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown model kind {self.kind!r}; expected one of {KINDS}")
        defaults = HYPER_DEFAULTS[self.kind]
        aliases = HYPER_ALIASES.get(self.kind, {})
        resolved = dict(defaults)
        for key, value in self.hyperparameters.items():
            canonical = aliases.get(key, key)
            if canonical != key and canonical in self.hyperparameters:
                raise ConfigError(
                    f"{self.kind}: both {key!r} and its canonical form {canonical!r} given"
                )
            if canonical not in defaults:
                raise ConfigError(
                    f"{self.kind}: unknown hyperparameter {key!r}; known: {sorted(defaults)}"
                )
            # Counts are at least 1; depths and float hyperparameters at least 0.
            low = 0 if canonical.endswith("depth") or isinstance(defaults[canonical], float) else 1
            if isinstance(value, bool) or not (isinstance(value, numbers.Real) and value >= low):
                raise ConfigError(
                    f"{self.kind}: hyperparameter {key!r} must be a number >= {low}, "
                    f"got {value!r}"
                )
            if isinstance(defaults[canonical], int) and not isinstance(value, numbers.Integral):
                raise ConfigError(
                    f"{self.kind}: hyperparameter {key!r} must be an integer, got {value!r}")
            resolved[canonical] = value
        object.__setattr__(self, "hyperparameters", resolved)
        if self.seed is None:
            object.__setattr__(self, "seed", DEFAULT_SEEDS.get(self.kind, 0))

    @property
    def params(self) -> dict:
        return self.hyperparameters

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return cls(kind=d["kind"], hyperparameters=dict(d["hyperparameters"]),
                   seed=d["seed"])


@dataclass(frozen=True)
class SplitSpec:
    mode: str = "chronological"
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self):
        if self.mode not in ("chronological", "random"):
            raise DomainError(f"unknown split mode {self.mode!r}")
        if not (0.0 < self.test_fraction < 1.0):
            raise DomainError(
                f"test_fraction must lie in (0, 1), got {self.test_fraction}"
            )

    def to_dict(self) -> dict:
        return asdict(self)


# Each key's default; a required key's value only gives its type. A
# non-empty object is a section, an empty one a free-form map, and a None
# default leaves the value to its own rule in config_from_dict or _city.
_CITY_DEFAULTS = {
    "name": "", "policy_csv": "", "density_csv": None, "grids_dir": None,
    "column_map": {}, "date_column": "date",
}
_DEFAULTS = {
    "year": 0, "cities": None, "pollutants": [p.value for p in PollutantKind],
    "models": {"kinds": list(KINDS), "overrides": {}},
    "split": SplitSpec().to_dict(),
    "scaling_mode": "none", "measure_max_levels": {},
    "dtw": {"cost": "absolute", "normalize": True, "window": None},
    "aggregation_mode": "per_grid", "predict": {"kind": "rfr"}, "out_dir": "out", "seed": 0,
}
_MEASURES = {m.value for m in MeasureKind}


def _is_int(value) -> bool:
    """A JSON integer: bool is an int subclass in Python but not in JSON."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


_JSON_TYPES = {dict: "an object", list: "a list", str: "a string", bool: "true or false",
               int: "an integer", float: "a number"}


def _check_type(value, kind: type, name: str):
    """``value`` if it has the JSON type ``kind``, else a ConfigError naming ``name``.

    ``int`` takes only a JSON integer and ``float`` any JSON number.
    """
    if kind is int:
        ok = _is_int(value)
    elif kind is float:
        ok = _is_number(value)
    else:
        ok = isinstance(value, kind)
    if not ok:
        raise ConfigError(f"{name} must be {_JSON_TYPES[kind]}, got {value!r}")
    return value


def _filled(d, defaults: dict, where: str, required=()) -> dict:
    """Object ``d`` checked key by key against ``defaults``, absent keys filled in.

    A float default takes any number and stores a float; a non-empty object
    default is a section, checked the same way.
    """
    _check_type(d, dict, where)
    unknown = sorted(set(d) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")
    out = {}
    for key, default in defaults.items():
        name = key if where == "config" else f"{where}.{key}"
        if key not in d:
            if key in required:
                raise ConfigError(f"missing required key {key!r} in {where}")
            out[key] = default
        elif isinstance(default, dict) and default:
            out[key] = _filled(d[key], default, name)
        elif default is None:
            out[key] = d[key]
        else:
            value = _check_type(d[key], type(default), name)
            out[key] = float(value) if isinstance(default, float) else value
    return out


@dataclass(frozen=True)
class CityConfig:
    name: str
    policy_csv: str
    density_csv: str | None
    grids_dir: str | None
    column_map: dict[MeasureKind, str]
    date_column: str


@dataclass(frozen=True)
class PipelineConfig:
    year: int
    cities: tuple[CityConfig, ...]
    pollutants: tuple[PollutantKind, ...]
    model_kinds: tuple[str, ...]
    model_overrides: dict[str, dict]
    split: SplitSpec
    scaling_mode: str
    measure_max_levels: dict[MeasureKind, int]
    dtw_cost: str
    dtw_normalize: bool
    dtw_window: int | None
    aggregation_mode: str
    predict_kind: str
    out_dir: str
    document: dict

    def model_specs(self) -> list[ModelSpec]:
        return [_spec(kind, self.model_overrides.get(kind, {})) for kind in self.model_kinds]

    def echo(self) -> dict:
        """The validated document with its defaults filled in, for report embedding."""
        return copy.deepcopy(self.document)


def _spec(kind: str, over: dict) -> ModelSpec:
    over = dict(over)
    seed = over.pop("seed", None)
    return ModelSpec(kind=kind, hyperparameters=over, seed=seed)


def _city(c, where: str) -> dict:
    """City object ``c`` filled in and checked; its column_map merged over the defaults."""
    city = _filled(c, _CITY_DEFAULTS, where, required=("name", "policy_csv"))
    name = city["name"]
    # The name becomes the file <out>/cities/<name>.csv.
    if name in ("", ".", "..") or any(s and s in name for s in ("/", os.sep, os.altsep, "\0")):
        raise ConfigError(f"{where}.name must be a plain file name, got {name!r}")
    if (city["density_csv"] is None) == (city["grids_dir"] is None):
        raise ConfigError(f"{where}: exactly one of density_csv or grids_dir is required")
    source = "grids_dir" if city["density_csv"] is None else "density_csv"
    _check_type(city[source], str, f"{where}.{source}")
    column_map = {m.value: col for m, col in DEFAULT_COLUMN_MAP.items()}
    for key, col in city["column_map"].items():
        if key not in _MEASURES:
            raise ConfigError(f"{where}: unknown measure {key!r} in column_map")
        column_map[key] = _check_type(col, str, f"{where}.column_map.{key}")
    city["column_map"] = column_map
    return city


def _reject_duplicates(values: list[str], what: str) -> None:
    """A ConfigError naming the first value that repeats: each name is one
    output file or one screened or benchmarked cell."""
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigError(f"duplicate {what} {value!r}")
        seen.add(value)


def config_from_dict(d: dict) -> PipelineConfig:
    _check_type(d, dict, "config root")
    doc = _filled(d, _DEFAULTS, "config", required=("year", "cities"))
    if not 1 <= doc["year"] <= 9999:
        raise ConfigError(f"year must lie in 1..9999, got {doc['year']}")
    if not isinstance(doc["cities"], list) or not doc["cities"]:
        raise ConfigError("cities must be a non-empty list")
    doc["cities"] = [_city(c, f"cities[{i}]") for i, c in enumerate(doc["cities"])]
    _reject_duplicates([c["name"] for c in doc["cities"]], "city name")

    try:
        pollutants = tuple(PollutantKind(p) for p in doc["pollutants"])
    except ValueError as exc:
        raise ConfigError(f"unknown pollutant in config: {exc}")
    if not pollutants:
        raise ConfigError("pollutants must be non-empty")
    _reject_duplicates([p.value for p in pollutants], "pollutant")

    models = doc["models"]
    for k in models["kinds"]:
        if k not in KINDS:
            raise ConfigError(f"unknown model kind {k!r}; expected one of {KINDS}")
    _reject_duplicates(models["kinds"], "model kind")
    for k, over in models["overrides"].items():
        if k not in KINDS:
            raise ConfigError(f"override for unknown model kind {k!r}")
        # Each value takes the JSON type of its default; a seed is an integer.
        # The check's filled copy is dropped: the echo keeps the overrides as given.
        hyper = {**HYPER_DEFAULTS[k], "seed": 0}
        hyper.update({alias: hyper[key] for alias, key in HYPER_ALIASES.get(k, {}).items()})
        _filled(over, hyper, f"models.overrides.{k}")
        _spec(k, over)  # the hyperparameter domains

    try:
        split = SplitSpec(**doc["split"])
    except DomainError as exc:
        raise ConfigError(f"split: {exc}")

    for value, choices, what in (
        (doc["scaling_mode"], ("none", "min_max", "z_score"), "scaling_mode"),
        (doc["dtw"]["cost"], ("absolute", "squared"), "dtw cost"),
        (doc["aggregation_mode"], ("per_grid", "pooled_pixels"), "aggregation_mode"),
        (doc["predict"]["kind"], KINDS, "predict kind"),
    ):
        if value not in choices:
            raise ConfigError(f"unknown {what} {value!r}")

    for key, v in doc["measure_max_levels"].items():
        if key not in _MEASURES:
            raise ConfigError(f"unknown measure {key!r} in measure_max_levels")
        if not _is_int(v) or v < 1:
            raise ConfigError(f"measure_max_levels.{key} must be a positive integer")
    window = doc["dtw"]["window"]
    if window is not None and (not _is_int(window) or window < 0):
        raise ConfigError("dtw.window must be a non-negative integer or null")

    # Until here the rules only replace keys; the copy detaches the now valid,
    # shallow document from the defaults and from the caller's objects.
    doc = copy.deepcopy(doc)
    return PipelineConfig(
        year=doc["year"],
        cities=tuple(
            CityConfig(**{**c, "column_map": {
                MeasureKind(k): col for k, col in c["column_map"].items()}})
            for c in doc["cities"]
        ),
        pollutants=pollutants,
        model_kinds=tuple(doc["models"]["kinds"]),
        model_overrides=doc["models"]["overrides"],
        split=split,
        scaling_mode=doc["scaling_mode"],
        measure_max_levels={MeasureKind(k): v for k, v in doc["measure_max_levels"].items()},
        dtw_cost=doc["dtw"]["cost"],
        dtw_normalize=doc["dtw"]["normalize"],
        dtw_window=window,
        aggregation_mode=doc["aggregation_mode"],
        predict_kind=doc["predict"]["kind"],
        out_dir=doc["out_dir"],
        document=doc,
    )


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ConfigError(f"number {text} is out of range")
    return value


def _reject_constant(name: str):
    raise ConfigError(f"{name} is not a number the config accepts")


# Reports echo the config as strict JSON, which has no NaN or Infinity.
_FINITE_JSON = {"parse_float": _finite_float, "parse_constant": _reject_constant}


def parse_set_override(text: str) -> tuple[list[str], object]:
    """Parse one K=V override; the key is a dotted path, V parses as JSON or stays a string."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, _, raw = text.partition("=")
    key = key.strip()
    if not key:
        raise ConfigError(f"override {text!r} has an empty key")
    try:
        value = json.loads(raw, **_FINITE_JSON)
    except json.JSONDecodeError:
        value = raw
    return key.split("."), value


def apply_overrides(doc: dict, overrides: list[str]) -> dict:
    """Apply dotted --set overrides to a raw config document."""
    for text in overrides:
        path, value = parse_set_override(text)
        node = doc
        for part in path[:-1]:
            nxt = node.get(part)
            if nxt is None:
                nxt = {}
                node[part] = nxt
            if not isinstance(nxt, dict):
                raise ConfigError(
                    f"override path {'.'.join(path)} crosses a non-object value"
                )
            node = nxt
        node[path[-1]] = value
    return doc


def load_config(path: str, overrides: list[str] | None = None,
                out_dir: str | None = None) -> PipelineConfig:
    """Read, override, and validate a config file."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh, **_FINITE_JSON)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    _check_type(doc, dict, "config root")
    doc = apply_overrides(doc, overrides or [])
    if out_dir is not None:
        doc["out_dir"] = out_dir
    return config_from_dict(doc)


def default_max_levels(config: PipelineConfig) -> dict[MeasureKind, int]:
    levels = {m: DEFAULT_MAX_LEVEL for m in MeasureKind}
    levels.update(config.measure_max_levels)
    return levels
