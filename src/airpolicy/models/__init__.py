"""Nine regression learners behind one fit/predict contract.

Importing this package registers every kind: knn, dtr, rfr, linreg, ridge,
lasso, mgbr, madab, dnn.
"""

from ..config import HYPER_DEFAULTS, KINDS, ModelSpec
from .base import (
    TrainedModel,
    fit,
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)
from . import boost, forest, knn, linear, nnet, tree  # noqa: F401  (registration)

__all__ = [
    "HYPER_DEFAULTS",
    "KINDS",
    "ModelSpec",
    "TrainedModel",
    "fit",
    "load_model",
    "model_from_json",
    "model_to_json",
    "save_model",
]
