"""Neural network abstraction by activation clustering.

Merges neurons whose activation vectors over a reference input set are
close, tracks the induced approximation error per layer, verifies
robustness of the reduced network with interval bound propagation, and
lifts certificates back to the original network with error margins.
"""

from .errors import AbstractnetError, FormatError, TrainingError, ValidationError
from .network import Network, RobustnessQuery
from .data import (
    ActivationMatrix,
    LabeledDataset,
    accuracy,
    collect_activations,
    load_csv,
    load_idx,
    split_dataset,
)
from .synthetic import make_synthetic_digits
from .clustering import (
    LayerClustering,
    cluster_layer,
    epsilon_vector,
    kmeans,
)
from .abstraction import (
    AbstractionRecord,
    abstract,
    identify_clusters,
    reduction_rate,
    search_abstraction,
)
from .verifier import (
    LayerBounds,
    Verdict,
    check_robust,
    falsify,
    ibp_bounds,
    robust_mask,
)
from .bounds import ErrorBounds, clustering_error, total_error
from .lifting import (
    EPSILON_SCOPE_NOTE,
    VerifyLiftResult,
    lift_proof,
    lifted_bounds,
    pipeline,
    verify_and_lift,
)
from .trainer import TrainConfig, init_network, loss_and_grads, train

__version__ = "0.1.0"

__all__ = [
    "AbstractnetError",
    "FormatError",
    "TrainingError",
    "ValidationError",
    "Network",
    "RobustnessQuery",
    "LabeledDataset",
    "ActivationMatrix",
    "load_idx",
    "load_csv",
    "split_dataset",
    "accuracy",
    "collect_activations",
    "make_synthetic_digits",
    "kmeans",
    "LayerClustering",
    "cluster_layer",
    "epsilon_vector",
    "abstract",
    "identify_clusters",
    "reduction_rate",
    "search_abstraction",
    "AbstractionRecord",
    "Verdict",
    "LayerBounds",
    "ibp_bounds",
    "check_robust",
    "robust_mask",
    "falsify",
    "ErrorBounds",
    "clustering_error",
    "total_error",
    "lifted_bounds",
    "lift_proof",
    "verify_and_lift",
    "VerifyLiftResult",
    "pipeline",
    "EPSILON_SCOPE_NOTE",
    "TrainConfig",
    "init_network",
    "train",
    "loss_and_grads",
    "__version__",
]
