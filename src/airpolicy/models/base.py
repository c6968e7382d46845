"""The fit/predict contract and versioned JSON persistence.

Every learner kind registers a trainer and a deserializer here; the specs
they train from (``ModelSpec``, the kinds and their hyperparameter rules)
live in ``config``, so validating a config loads no learner code. Model
files are plain JSON with parameter arrays;
floats survive the round trip bit for bit, so a reloaded model predicts
identically. A kind whose parameters are arrays declares each array's name
and shape once, in ``shapes``; this module writes them and checks them on
load, and the kind keeps only the rules a shape cannot state.
"""

from __future__ import annotations

import json
from collections.abc import Iterator

import numpy as np

from ..config import ModelSpec
from ..dataset import IDENTITY_SCALING, ScalingSpec, SupervisedSet
from ..errors import AirPolicyError, ConfigError, ShapeError

MODEL_FORMAT = "airpolicy-model"
MODEL_VERSION = 2


class TrainedModel:
    """Common behavior of fitted learners: shape checks, persistence hooks."""

    def __init__(self, spec: ModelSpec, input_dim: int, output_dim: int,
                 metadata: dict | None = None):
        self.spec = spec
        self.input_dim = input_dim
        self.output_dim = output_dim
        self.scaling = IDENTITY_SCALING
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

    @classmethod
    def shapes(cls, input_dim: int, output_dim: int) -> dict[str, tuple]:
        """Each saved array's name and shape, ``None`` meaning any length; the
        array is the attribute and the constructor argument of that name."""
        raise NotImplementedError  # pragma: no cover

    def _params(self) -> dict:
        """The arrays of ``shapes`` by name; a matrix goes out as an iterator of
        rows, which ``_json_pieces`` writes one row at a time."""
        out = {}
        for name in self.shapes(self.input_dim, self.output_dim):
            a = getattr(self, name)
            out[name] = (row.tolist() for row in a) if a.ndim == 2 else a.tolist()
        return out

    @classmethod
    def load(cls, spec: ModelSpec, input_dim: int, output_dim: int, saved: dict,
             **extra) -> "TrainedModel":
        """The model of a saved ``params``: each array of ``shapes`` read with
        ``float_array``, passed to the constructor with ``extra``."""
        arrays = {name: float_array(saved[name], shape, f"{spec.kind} {name}")
                  for name, shape in cls.shapes(input_dim, output_dim).items()}
        return cls(spec, input_dim, output_dim, **arrays, **extra)

    def document(self) -> dict:
        """The model file's content. ``params`` may hold an iterator, which
        ``_json_pieces`` writes item by item without a list of them."""
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
_LOCKSTEP: set[str] = set()

# The errors that fail one set's fit in ``fit`` and leave the other sets' fits standing.
_FIT_ERRORS = (AirPolicyError, np.linalg.LinAlgError, FloatingPointError)


def register_kind(kind: str, fitter, loader, lockstep: bool = False) -> None:
    """``fitter(spec, X, Y)`` trains one model. A lockstep fitter instead takes
    ``(spec, [(X, Y), ...])`` and returns, per pair, a model or the error
    that stopped its fit."""
    _FITTERS[kind] = fitter
    _LOADERS[kind] = loader
    if lockstep:
        _LOCKSTEP.add(kind)


def _fit_each(spec: ModelSpec, pairs) -> list:
    """Per (X, Y) pair, the model ``spec`` trains on it or the error that stopped it."""
    checked = []
    for X, Y in pairs:
        X = np.ascontiguousarray(X, dtype=np.float64)
        Y = np.ascontiguousarray(Y, dtype=np.float64)
        if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
            raise ShapeError(f"incompatible training shapes {X.shape} and {Y.shape}")
        checked.append((X, Y))
    fitter = _FITTERS.get(spec.kind)
    if fitter is None:  # pragma: no cover
        raise ConfigError(f"kind {spec.kind!r} has no registered trainer")
    if spec.kind in _LOCKSTEP:
        return fitter(spec, checked)
    results = []
    for X, Y in checked:
        try:
            results.append(fitter(spec, X, Y))
        except _FIT_ERRORS as exc:
            results.append(exc)
    return results


def fit_arrays(spec: ModelSpec, X: np.ndarray, Y: np.ndarray,
               scaling: ScalingSpec = IDENTITY_SCALING) -> TrainedModel:
    """Train on raw matrices; Y may be any column count the kind supports."""
    (model,) = _fit_each(spec, [(X, Y)])
    if isinstance(model, Exception):
        raise model
    model.scaling = scaling
    return model


def fit(spec: ModelSpec, trains: list[SupervisedSet]) -> list[TrainedModel | Exception]:
    """Train one learner on each supervised set; each model remembers its set's scaling.

    Returns one entry per set, in order: its model, or the package, linear
    algebra or floating-point error that stopped its fit. A failed set
    leaves the others as they would be alone. dnn trains the sets in
    lockstep; the other kinds fit one set at a time. Either way each
    model has the bytes of a fit on its set alone.
    """
    results = _fit_each(spec, [(train.inputs, train.targets) for train in trains])
    for train, model in zip(trains, results):
        if not isinstance(model, Exception):
            model.scaling = train.scaling
    return results


def _json_numbers(value, shape: tuple) -> bool:
    """Whether ``value`` is nested lists of JSON numbers that fit ``shape``
    exactly, where ``None`` is any length. bool subclasses int but is no
    JSON number, and a string is none either."""
    if not (isinstance(value, list) and shape[0] in (None, len(value))):
        return False
    if len(shape) > 1:
        return all(_json_numbers(e, shape[1:]) for e in value)
    return all(type(e) is float or type(e) is int for e in value)


def float_array(value, shape: tuple, name: str) -> np.ndarray:
    """``value`` as a float64 array of ``shape``, where ``None`` is any length.

    ``value`` must be nested lists of finite JSON numbers that fit ``shape``
    exactly; anything else raises ConfigError naming ``name``.
    """
    if _json_numbers(value, shape):
        a = np.array(value, dtype=np.float64)
        if a.ndim == len(shape) and np.isfinite(a).all():
            return a
    dims = " x ".join("n" if d is None else str(d) for d in shape)
    raise ConfigError(f"{name} must be {dims} finite numbers")


def int_array(value, n: int | None, lo: int, hi: int, name: str) -> np.ndarray:
    """``value`` as an intp array of ``n`` entries, where ``None`` is any number.

    ``value`` must be a list of JSON integers in [lo, hi), checked before any
    conversion, so no bool, float or out-of-range integer reaches numpy;
    anything else raises ConfigError naming ``name``.
    """
    if (isinstance(value, list) and n in (None, len(value))
            and all(type(e) is int and lo <= e < hi for e in value)):
        return np.array(value, dtype=np.intp)
    raise ConfigError(f"{name} must be {'n' if n is None else n} integers in [{lo}, {hi})")


def _load_scaling(d: dict, input_dim: int, output_dim: int) -> ScalingSpec:
    """A saved scaling; a fitted one has finite offsets and scales per input and target."""
    if not isinstance(d["fitted"], bool):
        raise ConfigError("scaling fitted must be true or false")
    if d["fitted"]:
        for key, dim in (("input_offset", input_dim), ("input_scale", input_dim),
                         ("target_offset", output_dim), ("target_scale", output_dim)):
            float_array(d[key], (dim,), f"scaling {key}")
    return ScalingSpec.from_dict(d)


def predict(model: TrainedModel, inputs: np.ndarray) -> np.ndarray:
    """Predict in original units.

    A model fitted under a scaling mode expects transformed inputs and emits
    transformed targets; its fitted spec travels with it and its file.
    """
    scaling = model.scaling
    if not scaling.fitted:
        return model.predict(inputs)
    return scaling.invert_targets(model.predict(scaling.transform_inputs(inputs)))


def _json_pieces(value) -> Iterator[str]:
    """The text of ``json.dumps(value, sort_keys=True)``, in pieces.

    A non-empty dict is written key by key and an iterator item by item, so
    the largest piece is one item's JSON and the items are never held
    together; any other value is one ``json.dumps`` piece.
    """
    if isinstance(value, dict) and value:
        sep = "{"
        for key in sorted(value):
            yield f"{sep}{json.dumps(key)}: "
            yield from _json_pieces(value[key])
            sep = ", "
        yield "}"
    elif isinstance(value, Iterator):
        sep = "["
        for item in value:
            yield sep
            yield json.dumps(item, sort_keys=True)
            sep = ", "
        yield "]" if sep == ", " else "[]"
    else:
        yield json.dumps(value, sort_keys=True)


def model_to_json(model: TrainedModel) -> str:
    return "".join(_json_pieces(model.document()))


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
        input_dim, output_dim = d["input_dim"], d["output_dim"]
        if not (type(input_dim) is int and type(output_dim) is int
                and input_dim > 0 and output_dim > 0):
            raise ConfigError("input_dim and output_dim must be positive integers")
        model = loader(spec, input_dim, output_dim, d["params"])
        model.scaling = _load_scaling(d["scaling"], input_dim, output_dim)
        model.metadata = dict(d["metadata"])
        return model
    except AirPolicyError:
        raise
    # ValueError covers JSONDecodeError; OverflowError is an integer past the float range.
    except (ValueError, KeyError, TypeError, RecursionError, OverflowError) as exc:
        raise ConfigError(f"malformed model file ({type(exc).__name__}: {exc})") from exc


def save_model(model: TrainedModel, path: str) -> None:
    """Write ``model_to_json(model)`` and a newline, piece by piece: a forest's
    largest transient is one tree's JSON."""
    with open(path, "w") as fh:
        fh.writelines(_json_pieces(model.document()))
        fh.write("\n")


def load_model(path: str) -> TrainedModel:
    """Read a model file; a malformed one raises ConfigError naming the path."""
    try:
        with open(path) as fh:
            return model_from_json(fh.read())
    except (AirPolicyError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
