"""Injective flow networks: bijective flow blocks composed with injective
expansive layers, exact layer-wise range projection, embedding-gap and
Wasserstein-2 diagnostics, and a layerwise training harness."""

from .errors import (
    BudgetExceededError,
    InjectiveFlowError,
    InvalidArgumentError,
    InvalidCandidateError,
    InvalidConfigError,
    InvalidLayerError,
    NumericError,
    UnsupportedLayerError,
)
from .expansive import (
    InjectiveRelu,
    LinearExpansive,
    ZeroPad,
)
from .flows import (
    AutoregressiveLayer,
    CouplingLayer,
    FlowBlock,
    Mlp,
    identity_block,
    make_autoregressive_block,
    make_coupling_block,
)
from .geometry import (
    ManifoldTarget,
    sample_circle,
    trefoil,
)
from .metrics import (
    EmbeddingGapEstimate,
    directed_supinf,
    embedding_gap_upper,
    estimate_embedding_gap,
    fit_candidate_alignment,
    wasserstein2_exact,
    wasserstein2_sliced,
    wasserstein_bound_check,
)
from .network import InjectiveNetwork, lipschitz_estimate
from .projection import (
    ProjectionResult,
    linear_pseudo_inverse,
    project_to_range,
    relu_pseudo_inverse,
)
from .training import (
    PhaseConfig,
    TrainingConfig,
    TrainingTrace,
    compute_gradients,
    run_layerwise,
    run_obstruction_experiment,
)

__version__ = "0.1.0"
