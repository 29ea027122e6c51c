"""Generalized Forster transforms, Forster decompositions, and halfspace
learning under Massart noise with bit-complexity-independent sample budgets.
"""

from .dataset import (
    EtaSpec,
    LabeledDataset,
    MassartModel,
    PointSet,
    gen_hard_instance,
    load_labeled,
    load_points,
    massart_draw,
)
from .errors import FdcError
from .harness import ModelOracle
from .heavy import HeavySubspaceResult, find_heavy_subspace
from .learner import (
    LearnerConfig,
    PartialClassifier,
    evaluate_classifier,
    learn_halfspace,
)
from .linalg import Subspace, span_of
from .scaling import (
    ScalingWeights,
    ViolatedConstraint,
    recheck_certificate,
    separation_oracle,
    solve_scaling_sdp,
)
from .transform import (
    ForsterDecomposition,
    ForsterPiece,
    forster_decompose,
    forster_transform,
    verify_piece,
)

__version__ = "0.1.0"

__all__ = [
    "EtaSpec", "LabeledDataset", "MassartModel", "PointSet",
    "gen_hard_instance", "load_labeled", "load_points", "massart_draw",
    "FdcError",
    "HeavySubspaceResult", "find_heavy_subspace",
    "LearnerConfig", "ModelOracle", "PartialClassifier", "evaluate_classifier",
    "learn_halfspace",
    "Subspace", "span_of",
    "ScalingWeights", "ViolatedConstraint",
    "recheck_certificate", "separation_oracle", "solve_scaling_sdp",
    "ForsterDecomposition", "ForsterPiece", "forster_decompose",
    "forster_transform", "verify_piece",
]
