"""The composed injective network: flow blocks alternating with expansive layers.

Stage order is T0, R1, T1, ..., RL, TL with non-decreasing dimensions; every
stage must pass its validate(), so the composition is injective from the
latent space into the ambient space.
"""

from __future__ import annotations

import json

import numpy as np

from ._util import (as_batch, flat_store, flat_views, flatten, pairwise_sq_dists,
                    write_json)
from .errors import InvalidArgumentError, InvalidLayerError, NumericError
from .expansive import ExpansiveLayer, InjectiveRelu, LinearExpansive, ZeroPad
from .flows import AutoregressiveLayer, CouplingLayer, FlowBlock, compose_ball_bounds

DEFAULT_DOMAIN_RADIUS = 10.0
CHECKPOINT_FORMAT = "injflow-checkpoint-v1"
_KINDS = {cls.kind: cls for cls in (FlowBlock, CouplingLayer, AutoregressiveLayer,
                                    ZeroPad, LinearExpansive, InjectiveRelu)}


def build_from_config(cfg: dict):
    """The stage or flow layer cfg describes, built by the class its "kind" names."""
    cls = _KINDS.get(cfg["kind"])
    if cls is None:
        raise InvalidArgumentError(f"unknown kind {cfg['kind']!r}")
    if cls is FlowBlock:
        return FlowBlock(cfg["dim"], [build_from_config(lc) for lc in cfg["layers"]])
    return cls.from_config(cfg)


def _same(want, got) -> bool:
    """want == got with equal JSON types at every level (true is not 1)."""
    if type(want) is not type(got):
        return False
    if type(got) is dict:
        return want.keys() == got.keys() and all(_same(want[k], got[k]) for k in got)
    if type(got) is list:
        if got and type(got[0]) is float:  # a tolist() row of floats, compared in C
            return want == got and set(map(type, want)) == {float}
        return len(want) == len(got) and all(map(_same, want, got))
    return want == got


class InjectiveNetwork:
    """Alternating composition [T0, R1, T1, ..., RL, TL], applied in order."""

    def __init__(self, stages):
        self.stages = list(stages)
        self._validate()

    def _validate(self) -> None:
        """Flow blocks at even indices, expansive layers at odd ones, an odd
        stage count, each stage's input the previous stage's output, and
        every stage's validate() run once."""
        if len(self.stages) % 2 == 0:
            raise InvalidLayerError(
                f"network needs an odd number of stages, got {len(self.stages)}")
        for idx, stage in enumerate(self.stages):
            if idx % 2 == 0:
                if not isinstance(stage, FlowBlock):
                    raise InvalidLayerError(f"stage {idx}: expected a flow block")
                dims = stage.dim, stage.dim
            else:
                if not isinstance(stage, ExpansiveLayer):
                    raise InvalidLayerError(f"stage {idx}: expected an expansive layer")
                dims = stage.in_dim, stage.out_dim
            if idx and dims[0] != dim:
                raise InvalidLayerError(
                    f"stage {idx}: input dim {dims[0]} does not match {dim}")
            dim = dims[1]
            try:
                stage.validate()
            except InvalidLayerError as err:
                raise InvalidLayerError(f"stage {idx}: {err}") from err

    @property
    def latent_dim(self) -> int:
        return self.stages[0].dim

    @property
    def ambient_dim(self) -> int:
        return self.stages[-1].dim

    def forward(self, x):
        """The image of x, one latent vector or an (N, n) stack."""
        X, single = as_batch(x, self.latent_dim, "latent input")
        for idx, stage in enumerate(self.stages):
            try:
                X = stage(X)
            except (NumericError, FloatingPointError) as err:
                raise NumericError(str(err), stage_index=idx) from err
            if not np.all(np.isfinite(X)):
                raise NumericError("non-finite stage output", stage_index=idx)
        return X[0] if single else X

    def forward_with_cache(self, X: np.ndarray):
        caches = []
        for idx, stage in enumerate(self.stages):
            try:
                X, c = stage.forward_with_cache(X)
            except (NumericError, FloatingPointError) as err:
                raise NumericError(str(err), stage_index=idx) from err
            caches.append(c)
        return X, caches

    def vjp(self, caches, grad_out, trainable=None):
        """Backpropagate grad_out through all stages: (grad wrt latent batch,
        parameter gradient laid out like parameter_store(trainable)), where
        trainable=None takes every stage; frozen stages compute no parameter
        gradients."""
        grads = []
        g = grad_out
        for idx in range(len(self.stages) - 1, -1, -1):
            g, sgrads = self.stages[idx].vjp(caches[idx], g,
                                             trainable is None or idx in trainable)
            grads = sgrads + grads
        return g, flatten(grads)

    def parameters(self, stage_indices=None):
        """[(stage_idx, name, array)], the layout of every flat vector."""
        return [(idx, name, arr) for idx, stage in enumerate(self.stages)
                if stage_indices is None or idx in stage_indices
                for name, arr in stage.parameters()]

    def parameter_views(self, vector, stage_indices=None):
        """[(stage_idx, name, view)]: vector cut into views shaped like the
        arrays of parameters(stage_indices), in that order."""
        params = self.parameters(stage_indices)
        return [(idx, name, view) for (idx, name, _), view
                in zip(params, flat_views(vector, [arr for _, _, arr in params]))]

    def parameter_store(self, stage_indices=None):
        """Copy the parameters of the given stages into one contiguous vector,
        rebind every parameter array to its view into it and return it."""
        params = self.parameters(stage_indices)
        vector, take = flat_store(arr for _, _, arr in params)
        for idx in {sidx for sidx, _, _ in params}:
            self.stages[idx].bind_parameters(take)
        return vector

    def lipschitz_bound(self, radius: float = DEFAULT_DOMAIN_RADIUS) -> float:
        """Product of per-stage bounds, certified on ||x||_2 <= radius.

        Latent-dependent coupling scales make a global constant unattainable;
        the per-stage input radii are propagated through the composition.
        """
        return compose_ball_bounds(self.stages, radius)[0]

    def to_config(self) -> dict:
        return {"format": CHECKPOINT_FORMAT,
                "stages": [s.to_config() for s in self.stages]}

    def save_checkpoint(self, path) -> None:
        write_json(path, self.to_config())

    @classmethod
    def from_config(cls, cfg: dict) -> "InjectiveNetwork":
        """The network cfg describes, if its to_config() is cfg, JSON types too."""
        if cfg.get("format") != CHECKPOINT_FORMAT:
            raise InvalidArgumentError(f"unknown checkpoint format {cfg.get('format')!r}")
        if cfg.keys() != {"format", "stages"}:
            raise InvalidArgumentError("a checkpoint holds only format and stages")
        net = cls([build_from_config(sc) for sc in cfg["stages"]])
        for idx, (want, stage) in enumerate(zip(cfg["stages"], net.stages)):
            if not _same(want, stage.to_config()):
                raise InvalidArgumentError(f"stage {idx} does not load as written")
        return net

    @classmethod
    def load_checkpoint(cls, path) -> "InjectiveNetwork":
        """Load a saved network; an unreadable, malformed, too deeply nested,
        incomplete or invalid checkpoint (see from_config; a non-finite
        parameter fails its stage's validate()) raises InvalidArgumentError
        naming the path."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.from_config(json.load(fh))
        except (OSError, ValueError, KeyError, TypeError, AttributeError,
                OverflowError, RecursionError) as err:
            raise InvalidArgumentError(
                f"cannot load checkpoint {path}: {type(err).__name__}: {err}") from err


def lipschitz_estimate(forward, samples, chunk: int = 64) -> float:
    """Max difference quotient ||f(x) - f(x')|| / ||x - x'|| of the callable
    `forward` over pairs of sample rows.

    Pairs closer than 1e-9 are skipped; raises when fewer than two
    usable pairs remain.  Always bounded by lipschitz_bound at a radius
    covering the samples.
    """
    pts = np.atleast_2d(np.asarray(samples, float))
    if pts.shape[0] < 2:
        raise InvalidArgumentError("need at least 2 samples")
    Y = np.atleast_2d(np.asarray(forward(pts), dtype=float))
    best = 0.0
    usable = False
    n = pts.shape[0]
    # pairwise_sq_dists is bitwise symmetric, since (x - y)^2 == (y - x)^2,
    # so a row block meets only the columns from its own start on; that
    # still covers every unordered pair.
    for start in range(0, n, chunk):
        dx = np.sqrt(pairwise_sq_dists(pts[start:start + chunk], pts[start:]))
        dy = np.sqrt(pairwise_sq_dists(Y[start:start + chunk], Y[start:]))
        mask = dx > 1e-9
        if mask.any():
            usable = True
            # Quotients in place, only on usable pairs; the rest read 0,
            # which no quotient is below.
            np.divide(dy, dx, out=dy, where=mask)
            dy[~mask] = 0.0
            best = max(best, float(dy.max()))
    if not usable:
        raise InvalidArgumentError("fewer than 2 usable sample pairs")
    return best
