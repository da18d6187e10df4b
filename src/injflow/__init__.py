"""Injective flow networks: bijective flow blocks composed with injective
expansive layers, exact layer-wise range projection, embedding-gap and
Wasserstein-2 diagnostics, and a layerwise training harness.

Only `errors` is imported with the package.  Every other exported name, and
every submodule, is imported on first access (PEP 562), so a command loads
only the modules it runs.
"""

from importlib import import_module as _import_module

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

__version__ = "0.1.0"

_EXPORTS = {
    "expansive": ("InjectiveRelu", "LinearExpansive", "ZeroPad"),
    "flows": ("AutoregressiveLayer", "CouplingLayer", "FlowBlock", "Mlp",
              "identity_block", "make_autoregressive_block", "make_coupling_block"),
    "geometry": ("ManifoldTarget", "sample_circle", "trefoil"),
    "metrics": ("EmbeddingGapEstimate", "directed_supinf", "embedding_gap_upper",
                "estimate_embedding_gap", "fit_candidate_alignment",
                "wasserstein2_exact", "wasserstein2_sliced", "wasserstein_bound_check"),
    "network": ("InjectiveNetwork", "lipschitz_estimate"),
    "projection": ("ProjectionResult", "linear_pseudo_inverse", "project_to_range",
                   "relu_pseudo_inverse"),
    "training": ("PhaseConfig", "TrainingConfig", "TrainingTrace", "compute_gradients",
                 "run_layerwise", "run_obstruction_experiment"),
}
_SUBMODULES = ("_util", "cli", *_EXPORTS)

# Name -> the submodule that defines it; a submodule maps to itself.
_LAZY = {name: module for module, names in _EXPORTS.items() for name in names}
_LAZY.update((module, module) for module in _SUBMODULES)
__all__ = sorted(name for name in {*globals(), *_LAZY} if not name.startswith("_"))


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
        globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *_LAZY})
