"""Pipeline configuration: one JSON document, fully validated up front.

Unknown keys anywhere in the document are rejected so typos fail before any
work starts or any output is created, and so is a value of the wrong JSON
type: nothing is coerced. Dotted --set overrides are applied to the raw
document and the result is re-validated as a whole.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .dataset import MeasureKind, PollutantKind, DEFAULT_MAX_LEVEL
from .errors import ConfigError, DomainError
from .evaluation import SplitSpec
from .ingest import DEFAULT_COLUMN_MAP
from .models import HYPER_DEFAULTS, KINDS, ModelSpec
from .models.base import HYPER_ALIASES


def _check_keys(d: dict, allowed: set[str], where: str) -> None:
    unknown = sorted(set(d) - allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {', '.join(unknown)}")


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


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ConfigError(f"missing required key {key!r} in {where}")
    return d[key]


@dataclass(frozen=True)
class CityConfig:
    name: str
    policy_csv: str
    density_csv: str | None = None
    grids_dir: str | None = None
    center: tuple[float, float] = (0.0, 0.0)
    box_half_width: float = 0.25
    column_map: dict[MeasureKind, str] = field(default_factory=lambda: dict(DEFAULT_COLUMN_MAP))
    date_column: str = "date"

    @classmethod
    def from_dict(cls, d: dict, where: str) -> "CityConfig":
        _check_type(d, dict, where)
        _check_keys(d, {"name", "policy_csv", "density_csv", "grids_dir",
                        "center", "box_half_width", "column_map", "date_column"}, where)
        name = _check_type(_require(d, "name", where), str, f"{where}.name")
        policy_csv = _check_type(_require(d, "policy_csv", where), str, f"{where}.policy_csv")
        density_csv = d.get("density_csv")
        grids_dir = d.get("grids_dir")
        if (density_csv is None) == (grids_dir is None):
            raise ConfigError(
                f"{where}: exactly one of density_csv or grids_dir is required"
            )
        source = "grids_dir" if density_csv is None else "density_csv"
        _check_type(d[source], str, f"{where}.{source}")
        center = d.get("center", [0.0, 0.0])
        if not (isinstance(center, list) and len(center) == 2
                and all(_is_number(v) for v in center)):
            raise ConfigError(f"{where}: center must be [lon, lat], got {center!r}")
        column_map = dict(DEFAULT_COLUMN_MAP)
        for key, col in _check_type(d.get("column_map", {}), dict,
                                    f"{where}.column_map").items():
            try:
                measure = MeasureKind(key)
            except ValueError:
                raise ConfigError(f"{where}: unknown measure {key!r} in column_map")
            column_map[measure] = _check_type(col, str, f"{where}.column_map.{key}")
        return cls(
            name=name,
            policy_csv=policy_csv,
            density_csv=density_csv,
            grids_dir=grids_dir,
            center=(float(center[0]), float(center[1])),
            box_half_width=float(_check_type(d.get("box_half_width", 0.25), float,
                                             f"{where}.box_half_width")),
            column_map=column_map,
            date_column=_check_type(d.get("date_column", "date"), str, f"{where}.date_column"),
        )


@dataclass(frozen=True)
class PipelineConfig:
    year: int
    cities: tuple[CityConfig, ...]
    pollutants: tuple[PollutantKind, ...]
    model_kinds: tuple[str, ...]
    model_overrides: dict[str, dict]
    split: SplitSpec
    scaling_mode: str = "none"
    measure_max_levels: dict[MeasureKind, int] = field(default_factory=dict)
    dtw_cost: str = "absolute"
    dtw_normalize: bool = True
    dtw_window: int | None = None
    aggregation_mode: str = "per_grid"
    predict_kind: str = "rfr"
    out_dir: str = "out"
    seed: int = 0

    def model_specs(self) -> list[ModelSpec]:
        specs = []
        for kind in self.model_kinds:
            over = dict(self.model_overrides.get(kind, {}))
            seed = over.pop("seed", None)
            specs.append(ModelSpec(kind=kind, hyperparameters=over, seed=seed))
        return specs

    def echo(self) -> dict:
        """Plain-dict form of the validated config, for report embedding."""
        return {
            "year": self.year,
            "cities": [
                {
                    "name": c.name,
                    "policy_csv": c.policy_csv,
                    "density_csv": c.density_csv,
                    "grids_dir": c.grids_dir,
                    "center": list(c.center),
                    "box_half_width": c.box_half_width,
                    "date_column": c.date_column,
                    "column_map": {m.value: col for m, col in sorted(
                        c.column_map.items(), key=lambda kv: kv[0].value)},
                }
                for c in self.cities
            ],
            "pollutants": [p.value for p in self.pollutants],
            "models": {
                "kinds": list(self.model_kinds),
                "overrides": {k: dict(v) for k, v in sorted(self.model_overrides.items())},
            },
            "split": self.split.to_dict(),
            "scaling_mode": self.scaling_mode,
            "measure_max_levels": {m.value: v for m, v in sorted(
                self.measure_max_levels.items(), key=lambda kv: kv[0].value)},
            "dtw": {"cost": self.dtw_cost, "normalize": self.dtw_normalize,
                    "window": self.dtw_window},
            "aggregation_mode": self.aggregation_mode,
            "predict": {"kind": self.predict_kind},
            "out_dir": self.out_dir,
            "seed": self.seed,
        }


_TOP_KEYS = {
    "year", "cities", "pollutants", "models", "split", "scaling_mode",
    "measure_max_levels", "dtw", "aggregation_mode", "predict", "out_dir", "seed",
}


def config_from_dict(d: dict) -> PipelineConfig:
    _check_type(d, dict, "config root")
    _check_keys(d, _TOP_KEYS, "config")
    year = _check_type(_require(d, "year", "config"), int, "year")
    cities_raw = _require(d, "cities", "config")
    if not isinstance(cities_raw, list) or not cities_raw:
        raise ConfigError("cities must be a non-empty list")
    cities = tuple(
        CityConfig.from_dict(c, f"cities[{i}]") for i, c in enumerate(cities_raw)
    )
    names = [c.name for c in cities]
    if len(set(names)) != len(names):
        raise ConfigError("duplicate city names")

    pollutants_raw = _check_type(d.get("pollutants", [p.value for p in PollutantKind]),
                                 list, "pollutants")
    try:
        pollutants = tuple(PollutantKind(p) for p in pollutants_raw)
    except ValueError as exc:
        raise ConfigError(f"unknown pollutant in config: {exc}")
    if not pollutants:
        raise ConfigError("pollutants must be non-empty")

    models_raw = _check_type(d.get("models", {}), dict, "models")
    _check_keys(models_raw, {"kinds", "overrides"}, "models")
    kinds_raw = _check_type(models_raw.get("kinds", list(KINDS)), list, "models.kinds")
    for k in kinds_raw:
        if k not in KINDS:
            raise ConfigError(f"unknown model kind {k!r}; expected one of {KINDS}")
    overrides_raw = _check_type(models_raw.get("overrides", {}), dict, "models.overrides")
    overrides: dict[str, dict] = {}
    for k, over in overrides_raw.items():
        if k not in KINDS:
            raise ConfigError(f"override for unknown model kind {k!r}")
        _check_type(over, dict, f"models.overrides.{k}")
        defaults = HYPER_DEFAULTS[k]
        aliases = HYPER_ALIASES.get(k, {})
        _check_keys(over, set(defaults) | set(aliases) | {"seed"}, f"models.overrides.{k}")
        for key, value in over.items():
            # Each value takes the JSON type of its default; a seed is an integer.
            default = 0 if key == "seed" else defaults[aliases.get(key, key)]
            _check_type(value, type(default), f"models.overrides.{k}.{key}")
        overrides[k] = dict(over)

    split_raw = _check_type(d.get("split", {}), dict, "split")
    _check_keys(split_raw, {"mode", "test_fraction", "seed"}, "split")
    try:
        split = SplitSpec(
            mode=split_raw.get("mode", "chronological"),
            test_fraction=_check_type(split_raw.get("test_fraction", 0.2), float,
                                      "split.test_fraction"),
            seed=_check_type(split_raw.get("seed", 0), int, "split.seed"),
        )
    except DomainError as exc:
        raise ConfigError(f"split: {exc}")

    scaling_mode = d.get("scaling_mode", "none")
    if scaling_mode not in ("none", "min_max", "z_score"):
        raise ConfigError(f"unknown scaling_mode {scaling_mode!r}")

    max_levels: dict[MeasureKind, int] = {}
    for key, v in _check_type(d.get("measure_max_levels", {}), dict,
                              "measure_max_levels").items():
        try:
            measure = MeasureKind(key)
        except ValueError:
            raise ConfigError(f"unknown measure {key!r} in measure_max_levels")
        if not _is_int(v) or v < 1:
            raise ConfigError(f"measure_max_levels.{key} must be a positive integer")
        max_levels[measure] = v

    dtw_raw = _check_type(d.get("dtw", {}), dict, "dtw")
    _check_keys(dtw_raw, {"cost", "normalize", "window"}, "dtw")
    dtw_cost = dtw_raw.get("cost", "absolute")
    if dtw_cost not in ("absolute", "squared"):
        raise ConfigError(f"unknown dtw cost {dtw_cost!r}")
    dtw_window = dtw_raw.get("window")
    if dtw_window is not None and (not _is_int(dtw_window) or dtw_window < 0):
        raise ConfigError("dtw.window must be a non-negative integer or null")
    dtw_normalize = _check_type(dtw_raw.get("normalize", True), bool, "dtw.normalize")

    aggregation_mode = d.get("aggregation_mode", "per_grid")
    if aggregation_mode not in ("per_grid", "pooled_pixels"):
        raise ConfigError(f"unknown aggregation_mode {aggregation_mode!r}")

    predict_raw = _check_type(d.get("predict", {}), dict, "predict")
    _check_keys(predict_raw, {"kind"}, "predict")
    predict_kind = predict_raw.get("kind", "rfr")
    if predict_kind not in KINDS:
        raise ConfigError(f"unknown predict kind {predict_kind!r}")

    return PipelineConfig(
        year=year,
        cities=cities,
        pollutants=pollutants,
        model_kinds=tuple(kinds_raw),
        model_overrides=overrides,
        split=split,
        scaling_mode=scaling_mode,
        measure_max_levels=max_levels,
        dtw_cost=dtw_cost,
        dtw_normalize=dtw_normalize,
        dtw_window=dtw_window,
        aggregation_mode=aggregation_mode,
        predict_kind=predict_kind,
        out_dir=_check_type(d.get("out_dir", "out"), str, "out_dir"),
        seed=_check_type(d.get("seed", 0), int, "seed"),
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
        with open(path) as fh:
            doc = json.load(fh, **_FINITE_JSON)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}")
    doc = apply_overrides(doc, overrides or [])
    if out_dir is not None:
        doc["out_dir"] = out_dir
    return config_from_dict(doc)


def default_max_levels(config: PipelineConfig) -> dict[MeasureKind, int]:
    levels = {m: DEFAULT_MAX_LEVEL for m in MeasureKind}
    levels.update(config.measure_max_levels)
    return levels
