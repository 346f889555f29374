"""Quantum-inspired classifier for categorical data on sparse count tensors.

Training accumulates co-occurrence counts of target and feature
multi-indices; prediction superposes the observed features with
entropy-based noise weights and a tunable probability amplitude,
generalizing both the Bayesian rule and the Born rule.  Degenerate
predictions fall back along a contraction policy, down to the raw target
marginal.
"""
from ._kernels import BACKEND as KERNEL_BACKEND
from .counts import SparseCounts
from .data import (
    EncodedObservation,
    RawRecord,
    Vocabulary,
    encode,
    load_tabular,
    load_text_tree,
    load_token_records,
    tokenize,
)
from .errors import (
    ArchiveError,
    InvalidRecordError,
    ParseError,
    SchemaError,
    ShapeError,
    SparsebornError,
    UnknownTargetError,
)
from .evaluate import (
    MetricReport,
    PairwiseTable,
    holdout_experiment,
    repeated_split_experiment,
    score,
)
from .explain import (
    FeatureAttribution,
    aggregate_local,
    discriminative_features,
    explain_global,
    explain_local,
)
from .model import (
    Hyperparams,
    Model,
    PhaseTable,
    Prediction,
    entropy_weights,
    fit,
    load,
    weight_tensor,
)
from .policy import Policy, PolicySearchReport, learn_policy, p_norm_loss

__version__ = "0.1.0"

__all__ = [
    "KERNEL_BACKEND",
    "SparseCounts",
    "EncodedObservation",
    "RawRecord",
    "Vocabulary",
    "encode",
    "load_tabular",
    "load_text_tree",
    "load_token_records",
    "tokenize",
    "ArchiveError",
    "InvalidRecordError",
    "ParseError",
    "SchemaError",
    "ShapeError",
    "SparsebornError",
    "UnknownTargetError",
    "MetricReport",
    "PairwiseTable",
    "holdout_experiment",
    "repeated_split_experiment",
    "score",
    "FeatureAttribution",
    "aggregate_local",
    "discriminative_features",
    "explain_global",
    "explain_local",
    "Hyperparams",
    "Model",
    "PhaseTable",
    "Prediction",
    "entropy_weights",
    "fit",
    "load",
    "weight_tensor",
    "Policy",
    "PolicySearchReport",
    "learn_policy",
    "p_norm_loss",
    "__version__",
]
