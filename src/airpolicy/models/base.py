"""Model specs, the fit/predict contract, and versioned JSON persistence.

Every learner kind registers a trainer and a deserializer here. Specs
validate hyperparameter names eagerly so a typo fails at construction, not
after a training run. Model files are plain JSON with parameter arrays;
floats survive the round trip bit for bit, so a reloaded model predicts
identically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from ..dataset import IDENTITY_SCALING, ScalingSpec, SupervisedSet
from ..errors import AirPolicyError, ConfigError, ShapeError

MODEL_FORMAT = "airpolicy-model"
MODEL_VERSION = 1

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
    """A learner kind plus resolved hyperparameters and a seed."""

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
            resolved[canonical] = value
        object.__setattr__(self, "hyperparameters", resolved)
        if self.seed is None:
            object.__setattr__(self, "seed", DEFAULT_SEEDS.get(self.kind, 0))

    @property
    def params(self) -> dict:
        return self.hyperparameters

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "hyperparameters": dict(self.hyperparameters),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ModelSpec":
        return cls(kind=d["kind"], hyperparameters=dict(d["hyperparameters"]),
                   seed=d["seed"])


class TrainedModel:
    """Common behavior of fitted learners: shape checks, persistence hooks."""

    def __init__(self, spec: ModelSpec, input_dim: int, output_dim: int,
                 scaling: ScalingSpec = IDENTITY_SCALING,
                 metadata: dict | None = None):
        self.spec = spec
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.scaling = scaling
        self.metadata = dict(metadata or {})

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        X = np.asarray(inputs, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2 or X.shape[1] != self.input_dim:
            raise ShapeError(
                f"inputs must be M x {self.input_dim}, got {X.shape}"
            )
        if X.size and not np.isfinite(X).all():
            raise ShapeError("inputs contain non-finite values")
        return self._predict(X)

    def _predict(self, X: np.ndarray) -> np.ndarray:  # pragma: no cover
        raise NotImplementedError

    def _params(self) -> dict:  # pragma: no cover
        raise NotImplementedError

    def to_dict(self) -> dict:
        return {
            "format": MODEL_FORMAT,
            "version": MODEL_VERSION,
            "spec": self.spec.to_dict(),
            "input_dim": self.input_dim,
            "output_dim": self.output_dim,
            "scaling": self.scaling.to_dict(),
            "metadata": self.metadata,
            "params": self._params(),
        }


_FITTERS: dict[str, object] = {}
_LOADERS: dict[str, object] = {}


def register_kind(kind: str, fitter, loader) -> None:
    _FITTERS[kind] = fitter
    _LOADERS[kind] = loader


def fit_arrays(spec: ModelSpec, X: np.ndarray, Y: np.ndarray,
               scaling: ScalingSpec = IDENTITY_SCALING) -> TrainedModel:
    """Train on raw matrices; Y may be any column count the kind supports."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    Y = np.ascontiguousarray(Y, dtype=np.float64)
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ShapeError(f"incompatible training shapes {X.shape} and {Y.shape}")
    fitter = _FITTERS.get(spec.kind)
    if fitter is None:  # pragma: no cover
        raise ConfigError(f"kind {spec.kind!r} has no registered trainer")
    model = fitter(spec, X, Y)
    model.scaling = scaling
    return model


def fit(spec: ModelSpec, train: SupervisedSet) -> TrainedModel:
    """Train a learner on a supervised set, remembering its scaling."""
    return fit_arrays(spec, train.inputs, train.targets, scaling=train.scaling)


def predict(model: TrainedModel, inputs: np.ndarray) -> np.ndarray:
    """Predict in original units.

    A model fitted under a scaling mode expects transformed inputs and emits
    transformed targets; its fitted spec travels with it and its file.
    """
    scaling = model.scaling
    if not scaling.fitted:
        return model.predict(inputs)
    return scaling.invert_targets(model.predict(scaling.transform_inputs(inputs)))


def model_to_json(model: TrainedModel) -> str:
    return json.dumps(model.to_dict(), sort_keys=True)


def model_from_json(text: str) -> TrainedModel:
    """Rebuild a saved model; a malformed document raises ConfigError."""
    try:
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ConfigError("not a model file (not a JSON object)")
        if d.get("format") != MODEL_FORMAT:
            raise ConfigError(f"not a model file (format {d.get('format')!r})")
        if d.get("version") != MODEL_VERSION:
            raise ConfigError(f"unsupported model version {d.get('version')!r}")
        spec = ModelSpec.from_dict(d["spec"])
        loader = _LOADERS.get(spec.kind)
        if loader is None:  # pragma: no cover
            raise ConfigError(f"kind {spec.kind!r} has no registered loader")
        model = loader(spec, d["input_dim"], d["output_dim"], d["params"])
        model.scaling = ScalingSpec.from_dict(d["scaling"])
        model.metadata = dict(d["metadata"])
        return model
    except AirPolicyError:
        raise
    except (ValueError, KeyError, TypeError) as exc:  # ValueError covers JSONDecodeError
        raise ConfigError(f"malformed model file ({type(exc).__name__}: {exc})") from exc


def save_model(model: TrainedModel, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(model_to_json(model))
        fh.write("\n")


def load_model(path: str) -> TrainedModel:
    """Read a model file; a malformed one raises ConfigError naming the path."""
    try:
        with open(path) as fh:
            return model_from_json(fh.read())
    except (AirPolicyError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
