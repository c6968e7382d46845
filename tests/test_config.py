"""Config document validation, overrides, and echo stability."""

import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from airpolicy import synth
from airpolicy.config import (
    apply_overrides,
    config_from_dict,
    default_max_levels,
    load_config,
    parse_set_override,
)
from airpolicy.dataset import DEFAULT_COLUMN_MAP, DEFAULT_MAX_LEVEL, MeasureKind, PollutantKind
from airpolicy.errors import ConfigError
from airpolicy.models import KINDS


def base_doc():
    return {
        "year": 2020,
        "cities": [
            {"name": "a", "policy_csv": "a_policy.csv", "density_csv": "a_no2.csv"},
        ],
    }


def test_minimal_document_fills_defaults():
    cfg = config_from_dict(base_doc())
    assert cfg.year == 2020
    assert [c.name for c in cfg.cities] == ["a"]
    assert cfg.pollutants == (PollutantKind.CO, PollutantKind.O3,
                              PollutantKind.NO2, PollutantKind.SO2)
    assert cfg.model_kinds == KINDS
    assert cfg.split.mode == "chronological"
    assert cfg.scaling_mode == "none"
    assert cfg.dtw_cost == "absolute" and cfg.dtw_normalize and cfg.dtw_window is None
    assert cfg.aggregation_mode == "per_grid"
    assert cfg.predict_kind == "rfr"
    assert cfg.out_dir == "out" and cfg.echo()["seed"] == 0
    assert cfg.cities[0].column_map == DEFAULT_COLUMN_MAP
    assert cfg.cities[0].date_column == "date"


@pytest.mark.parametrize("mutate, fragment", [
    (lambda d: d.update(extra=1), "unknown keys in config"),
    (lambda d: d.pop("year"), "year"),
    (lambda d: d.update(year="2020"), "year must be an integer"),
    (lambda d: d.update(cities=[]), "non-empty"),
    (lambda d: d["cities"][0].update(typo=1), "cities[0]"),
    (lambda d: d["cities"][0].pop("policy_csv"), "policy_csv"),
    (lambda d: d.update(pollutants=["CO", "XX"]), "pollutant"),
    (lambda d: d.update(pollutants=[]), "non-empty"),
    (lambda d: d.update(models={"kinds": ["svm"]}), "unknown model kind"),
    (lambda d: d.update(models={"overrides": {"svm": {}}}), "unknown model kind"),
    (lambda d: d.update(models={"overrides": {"knn": {"gamma": 2}}}),
     "models.overrides.knn"),
    (lambda d: d.update(models={"overrides": {"knn": 5}}), "must be an object"),
    (lambda d: d.update(split={"mode": "bogus"}), "split mode"),
    (lambda d: d.update(split={"folds": 5}), "unknown keys in split"),
    (lambda d: d.update(scaling_mode="robust"), "scaling_mode"),
    (lambda d: d.update(measure_max_levels={"XX": 4}), "unknown measure"),
    (lambda d: d.update(measure_max_levels={"RE_GAT": 0}), "positive integer"),
    (lambda d: d.update(dtw={"cost": "cosine"}), "dtw cost"),
    (lambda d: d.update(dtw={"window": -1}), "dtw.window"),
    (lambda d: d.update(dtw={"band": 3}), "unknown keys in dtw"),
    (lambda d: d.update(aggregation_mode="median"), "aggregation_mode"),
    (lambda d: d.update(predict={"kind": "svm"}), "predict kind"),
    (lambda d: d.update(predict={"model": "rfr"}), "unknown keys in predict"),
    (lambda d: d.update(dtw=3), "dtw must be an object"),
    (lambda d: d.update(pollutants=5), "pollutants must be a list"),
    (lambda d: d.update(models=[]), "models must be an object"),
    (lambda d: d.update(predict=[]), "predict must be an object"),
    (lambda d: d.update(measure_max_levels=[]), "measure_max_levels must be an object"),
    (lambda d: d.update(cities=[5]), "cities[0] must be an object"),
    (lambda d: d["cities"][0].update(center=[10.0, 45.0]), "unknown keys in cities[0]: center"),
    (lambda d: d["cities"][0].update(box_half_width=0.25), "in cities[0]: box_half_width"),
    (lambda d: d["cities"][0].update(column_map=[]), "cities[0].column_map must be an object"),
    (lambda d: d.update(split={"test_fraction": "abc"}), "split.test_fraction must be a number"),
    (lambda d: d.update(split={"test_fraction": "0.3"}), "split.test_fraction must be a number"),
    (lambda d: d.update(split={"seed": 2.9}), "split.seed must be an integer"),
    (lambda d: d.update(seed="7"), "seed must be an integer"),
    (lambda d: d.update(models={"overrides": {"dnn": {"epochs": 2.5}}}),
     "models.overrides.dnn.epochs must be an integer"),
    (lambda d: d.update(models={"overrides": {"knn": {"k": "3"}}}),
     "models.overrides.knn.k must be an integer"),
    (lambda d: d.update(year=10000), "year must lie in 1..9999"),
    (lambda d: d.update(year=0), "year must lie in 1..9999"),
    (lambda d: d.update(models={"overrides": {"knn": {"k": -1}}}), "'k' must be a number >= 1"),
    (lambda d: d.update(models={"overrides": {"knn": {"k": 0}}}), "'k' must be a number >= 1"),
    (lambda d: d.update(models={"overrides": {"dnn": {"batch_size": 0}}}),
     "'batch_size' must be a number >= 1"),
    (lambda d: d.update(models={"overrides": {"madab": {"estimators": 0}}}),
     "'estimators' must be a number >= 1"),
    (lambda d: d.update(models={"overrides": {"dtr": {"max_depth": -1}}}),
     "'max_depth' must be a number >= 0"),
    (lambda d: d.update(models={"overrides": {"ridge": {"lam": -0.5}}}),
     "'lam' must be a number >= 0"),
    # An override of a kind that is not benchmarked is checked all the same.
    (lambda d: d.update(models={"kinds": ["knn"], "overrides": {"mgbr": {"estimators": 0}}}),
     "'estimators' must be a number >= 1"),
    (lambda d: d["cities"][0].update(name="a/b"), "cities[0].name must be a plain file name"),
    (lambda d: d["cities"][0].update(name="../../escape"), "must be a plain file name"),
    (lambda d: d["cities"][0].update(name="x\0y"), "must be a plain file name"),
    (lambda d: d["cities"][0].update(name=""), "must be a plain file name"),
    (lambda d: d["cities"][0].update(name="."), "must be a plain file name"),
    (lambda d: d["cities"][0].update(name=".."), "must be a plain file name"),
    (lambda d: d.update(pollutants=["CO", "NO2", "CO"]), "duplicate pollutant 'CO'"),
    (lambda d: d.update(models={"kinds": ["knn", "rfr", "knn"]}),
     "duplicate model kind 'knn'"),
])
def test_invalid_documents_are_rejected(mutate, fragment):
    doc = base_doc()
    mutate(doc)
    with pytest.raises(ConfigError, match=None) as exc:
        config_from_dict(doc)
    assert fragment in str(exc.value)


def test_city_requires_exactly_one_density_source():
    doc = base_doc()
    city = doc["cities"][0]
    city["grids_dir"] = "grids"              # both given
    with pytest.raises(ConfigError, match="exactly one"):
        config_from_dict(doc)
    del city["density_csv"]
    cfg = config_from_dict(doc)              # grids only: fine
    assert cfg.cities[0].grids_dir == "grids"
    del city["grids_dir"]                    # neither
    with pytest.raises(ConfigError, match="exactly one"):
        config_from_dict(doc)


def test_duplicate_city_names_rejected():
    doc = base_doc()
    doc["cities"].append(dict(doc["cities"][0]))
    with pytest.raises(ConfigError, match="duplicate"):
        config_from_dict(doc)


def test_city_column_map_merges_over_defaults():
    doc = base_doc()
    doc["cities"][0]["column_map"] = {"RE_GAT": "gatherings"}
    cfg = config_from_dict(doc)
    cmap = cfg.cities[0].column_map
    assert cmap[MeasureKind.RE_GAT] == "gatherings"
    assert cmap[MeasureKind.C_SCHOOL] == DEFAULT_COLUMN_MAP[MeasureKind.C_SCHOOL]
    doc["cities"][0]["column_map"] = {"NOT_A_MEASURE": "x"}
    with pytest.raises(ConfigError, match="unknown measure"):
        config_from_dict(doc)


def test_model_overrides_flow_into_specs():
    doc = base_doc()
    doc["models"] = {
        "kinds": ["knn", "mgbr"],
        "overrides": {"knn": {"k": 3, "seed": 9},
                      "mgbr": {"estimators": 7, "eta0": 1}},
    }
    cfg = config_from_dict(doc)
    specs = {s.kind: s for s in cfg.model_specs()}
    assert specs["knn"].hyperparameters["k"] == 3
    assert specs["knn"].seed == 9
    # The alias lands on the canonical hyperparameter name.
    assert specs["mgbr"].hyperparameters["epochs"] == 7
    assert "estimators" not in specs["mgbr"].hyperparameters
    # A float hyperparameter takes any JSON number.
    assert specs["mgbr"].hyperparameters["eta0"] == 1
    # The alias belongs to mgbr alone.
    doc["models"] = {"kinds": ["rfr"], "overrides": {"rfr": {"estimators": 3}}}
    with pytest.raises(ConfigError, match="estimators"):
        config_from_dict(doc)


def test_parse_set_override_values():
    assert parse_set_override("seed=5") == (["seed"], 5)
    assert parse_set_override("split.test_fraction=0.3") == (
        ["split", "test_fraction"], 0.3)
    assert parse_set_override("predict.kind=knn") == (["predict", "kind"], "knn")
    assert parse_set_override('models.kinds=["knn","linreg"]') == (
        ["models", "kinds"], ["knn", "linreg"])
    assert parse_set_override("dtw.normalize=false") == (["dtw", "normalize"], False)
    with pytest.raises(ConfigError):
        parse_set_override("no_equals_sign")
    with pytest.raises(ConfigError):
        parse_set_override("=5")


def test_apply_overrides_nested_creation():
    doc = {"split": {"mode": "chronological"}}
    apply_overrides(doc, ["split.seed=3", "predict.kind=knn", "seed=1"])
    assert doc == {"split": {"mode": "chronological", "seed": 3},
                   "predict": {"kind": "knn"}, "seed": 1}
    with pytest.raises(ConfigError, match="crosses a non-object"):
        apply_overrides({"year": 2020}, ["year.month=5"])


def test_non_finite_numbers_are_rejected(tmp_path):
    for raw in ("Infinity", "-Infinity", "NaN", "1e999"):
        with pytest.raises(ConfigError):
            parse_set_override(f'models.overrides={{"ridge": {{"lam": {raw}}}}}')
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(base_doc())[:-1] + f', "seed": {raw}}}')
        with pytest.raises(ConfigError):
            load_config(str(path))


def test_load_config_precedence(tmp_path):
    path = tmp_path / "cfg.json"
    doc = base_doc()
    doc["out_dir"] = "from_file"
    doc["seed"] = 11
    path.write_text(json.dumps(doc))
    cfg = load_config(str(path))
    assert cfg.out_dir == "from_file" and cfg.echo()["seed"] == 11
    # The explicit out_dir beats both the file and --set overrides.
    cfg = load_config(str(path), overrides=["seed=22", "out_dir=from_set"],
                      out_dir="from_arg")
    assert cfg.out_dir == "from_arg" and cfg.echo()["seed"] == 22
    cfg = load_config(str(path), overrides=["seed=22"])
    assert cfg.echo()["seed"] == 22


@pytest.mark.parametrize("override, fragment", [
    ("dtw.normalize=False", "dtw.normalize"),  # not JSON: stays the string "False"
    ("dtw.normalize=1", "dtw.normalize"),
    ("dtw.window=true", "dtw.window"),
    ("year=true", "year must be an integer"),
    ("measure_max_levels.RE_GAT=true", "measure_max_levels.RE_GAT"),
    ("seed=true", "seed must be an integer"),
    ("split.seed=2.9", "split.seed must be an integer"),
    ("models.overrides.knn.k=true", "models.overrides.knn.k must be an integer"),
    ("models.overrides.knn.seed=true", "models.overrides.knn.seed must be an integer"),
    ("models.overrides.ridge.lam=true", "models.overrides.ridge.lam must be a number"),
    ("year=10000", "year must lie in 1..9999"),
    ("year=0", "year must lie in 1..9999"),
    ("models.overrides.knn.k=-1", "'k' must be a number >= 1"),
    ("models.overrides.dnn.batch_size=0", "'batch_size' must be a number >= 1"),
])
def test_booleans_and_integers_are_not_interchangeable(tmp_path, override, fragment):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(base_doc()))
    assert load_config(str(path), overrides=["dtw.normalize=false"]).dtw_normalize is False
    with pytest.raises(ConfigError) as exc:
        load_config(str(path), overrides=[override])
    assert fragment in str(exc.value)


def test_load_config_bad_files(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(str(bad))
    # An override that breaks validation is caught at load time too.
    ok = tmp_path / "ok.json"
    ok.write_text(json.dumps(base_doc()))
    with pytest.raises(ConfigError, match="unknown keys"):
        load_config(str(ok), overrides=["bogus_key=1"])


def test_echo_is_json_stable():
    doc = base_doc()
    doc["models"] = {"kinds": ["linreg"], "overrides": {"ridge": {"lam": 0.5}}}
    doc["measure_max_levels"] = {"C_SCHOOL": 3, "RE_GAT": 2}
    cfg = config_from_dict(doc)
    echo1 = json.dumps(cfg.echo(), sort_keys=True)
    echo2 = json.dumps(config_from_dict(doc).echo(), sort_keys=True)
    assert echo1 == echo2
    back = json.loads(echo1)
    assert back["year"] == 2020
    assert back["models"]["overrides"] == {"ridge": {"lam": 0.5}}
    assert back["measure_max_levels"] == {"C_SCHOOL": 3, "RE_GAT": 2}
    assert back["cities"][0]["name"] == "a"


def _synth_doc(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths keep the echo independent of tmp_path
    with open(synth.generate("synth", seed=0).config_path) as fh:
        return json.load(fh)


def _column_map_doc(tmp_path, monkeypatch):
    doc = base_doc()
    doc["cities"][0].update(column_map={"RE_GAT": "gatherings"})
    return doc


def _overrides_doc(tmp_path, monkeypatch):
    doc = base_doc()
    doc.update(models={"kinds": ["knn", "mgbr"],
                       "overrides": {"mgbr": {"estimators": 7, "eta0": 1},
                                     "knn": {"k": 3, "seed": 9}}},
               measure_max_levels={"RE_GAT": 2, "C_SCHOOL": 3}, dtw={"window": 3},
               split={"mode": "random", "test_fraction": 0.3, "seed": 4},
               pollutants=["NO2"], seed=5)
    return doc


def _grids_doc(tmp_path, monkeypatch):
    return {"year": 2020, "cities": [{"name": "g", "policy_csv": "g_policy.csv",
                                      "grids_dir": "g_grids", "date_column": "day"}]}


# sha256 of json.dumps(echo(), sort_keys=True, indent=2): report.json embeds
# the echo, so these pin its bytes across rewrites of the config parser.
@pytest.mark.parametrize("make, digest", [
    (_synth_doc, "e52d4c1eb3662f26c7dea13967bf8d6d60a37d51bed2a2f593d74b4a28763817"),
    (lambda *_: base_doc(), "75a641c95a28e11dceebe0afeaa4ce9b572bce874d4b13a5e25f8014ef8a8827"),
    (_column_map_doc, "9c17f7e7de3d5cf663f2a1ca0ed5c56c26f6722b28ac6d5716826fe78d2b07e8"),
    (_overrides_doc, "792a318997d076cf8d6f6bdcff635319806abec3fd2a210f32b227ae6a049399"),
    (_grids_doc, "e423751a9ae26087fd356c80b30bd13682dc54249d28102ee1da26da8c3d2373"),
], ids=["synth-seed0", "minimal", "column-map", "overrides", "grids-dir"])
def test_echo_matches_golden_digest(tmp_path, monkeypatch, make, digest):
    text = json.dumps(config_from_dict(make(tmp_path, monkeypatch)).echo(),
                      sort_keys=True, indent=2)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(), inner, max_size=4),
    max_leaves=12,
)
CITY_KEYS = ["name", "policy_csv", "density_csv", "grids_dir", "column_map", "date_column"]


def _doc_with_city(changes):
    doc = base_doc()
    doc["cities"][0].update(changes)
    return doc


# Whole documents, and the valid one with arbitrary values under real city keys.
DOCS = JSON | st.dictionaries(st.sampled_from(CITY_KEYS), JSON, max_size=3).map(_doc_with_city)
# Dotted paths through real keys reach the checks behind the unknown-key check.
PATHS = st.lists(st.sampled_from(["year", "cities", "pollutants", "models", "kinds", "overrides",
                                  "knn", "k", "mgbr", "estimators", "split", "mode", "seed",
                                  "dtw", "window", "measure_max_levels", "RE_GAT", "predict"]),
                 min_size=1, max_size=3).map(".".join)
SETS = st.lists(st.tuples(PATHS, JSON).map(lambda kv: f"{kv[0]}={json.dumps(kv[1])}")
                | st.text(max_size=30), max_size=3)


@given(DOCS, SETS)
def test_config_from_dict_raises_only_config_errors(doc, sets):
    try:
        config_from_dict(apply_overrides(doc, sets) if isinstance(doc, dict) else doc)
    except ConfigError:
        pass


@given(st.binary(max_size=200) | DOCS.map(lambda doc: json.dumps(doc).encode()), SETS)
def test_load_config_raises_only_config_errors(tmp_path_factory, data, sets):
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_bytes(data)
    try:
        load_config(str(path), overrides=sets)
    except ConfigError:
        pass


def test_default_max_levels_merges_config():
    doc = base_doc()
    doc["measure_max_levels"] = {"RE_GAT": 2}
    levels = default_max_levels(config_from_dict(doc))
    assert levels[MeasureKind.RE_GAT] == 2
    assert levels[MeasureKind.C_WORKPLACE] == DEFAULT_MAX_LEVEL
    assert set(levels) == set(MeasureKind)
