"""Equalized-odds auditing, correction, training, and relaxation toolkit."""

from .core import (
    AttributeRule,
    BinaryPredictor,
    CellProbabilities,
    ConstantRule,
    Dataset,
    EmptyCellError,
    EqoddsError,
    FeatureThresholdRule,
    FiniteHypothesisClass,
    GroupRates,
    InvalidParameterError,
    TooFewSamplesError,
    empirical_loss,
    empirical_rates,
    split_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeRule",
    "BinaryPredictor",
    "CellProbabilities",
    "ConstantRule",
    "Dataset",
    "EmptyCellError",
    "EqoddsError",
    "FeatureThresholdRule",
    "FiniteHypothesisClass",
    "GroupRates",
    "InvalidParameterError",
    "TooFewSamplesError",
    "empirical_loss",
    "empirical_rates",
    "split_dataset",
]
