"""Bijective flow layers: affine coupling and affine autoregressive maps.

Both kinds are exactly invertible in closed form.  Conditioner subnets are
small tanh MLPs; log-scales are hard-clamped to [-SCALE_CLAMP, SCALE_CLAMP]
before exponentiation so every layer stays invertible and admits a finite
Lipschitz bound on norm balls.  Layers and blocks take (N, d) float arrays,
one point per row.
"""

from __future__ import annotations

import numpy as np

from ._util import as_rng, check_finite, spectral_norm
from .errors import InvalidLayerError, NumericError

SCALE_CLAMP = 5.0
DEFAULT_SUBNET_WIDTH = 32


class Mlp:
    """Fully-connected subnet: tanh hidden layers, linear output.

    final_scale multiplies the output layer's init; zero makes the subnet
    start as the constant-zero map so the surrounding flow starts at the
    identity.
    """

    def __init__(self, sizes, rng=None, final_scale: float = 0.0,
                 weights=None, biases=None):
        self.sizes = [int(s) for s in sizes]
        if len(self.sizes) < 2:
            raise InvalidLayerError("Mlp needs at least input and output sizes")
        if weights is not None:
            self.weights = [np.asarray(w, dtype=float).copy() for w in weights]
            self.biases = [np.asarray(b, dtype=float).copy() for b in biases]
            shapes = list(zip(self.sizes[1:], self.sizes[:-1]))
            if ([w.shape for w in self.weights] != shapes
                    or [b.shape for b in self.biases] != [(o,) for o, _ in shapes]):
                raise InvalidLayerError(
                    f"Mlp parameters do not match sizes {self.sizes}")
        else:
            rng = as_rng(rng)
            self.weights, self.biases = [], []
            for k in range(len(self.sizes) - 1):
                fan_in = self.sizes[k]
                scale = 1.0 / np.sqrt(fan_in)
                if k == len(self.sizes) - 2:
                    scale *= final_scale
                self.weights.append(rng.normal(0.0, 1.0, size=(self.sizes[k + 1], fan_in)) * scale)
                self.biases.append(np.zeros(self.sizes[k + 1]))

    @property
    def in_dim(self) -> int:
        return self.sizes[0]

    @property
    def out_dim(self) -> int:
        return self.sizes[-1]

    def __call__(self, X):
        return self.forward_with_cache(X)[0]

    def forward_with_cache(self, X):
        acts = [X]
        h = X
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            # np.dot, not @: numpy's matmul is ~3x slower on a 1-wide inner
            # dimension (1-wide subnet inputs and outputs), with the same bits.
            # In place on the fresh product only: X is the caller's array.
            h = np.dot(h, w.T)
            h += b
            if k != last:
                np.tanh(h, out=h)
            acts.append(h)
        return h, acts

    def vjp(self, cache, grad_out, params=True):
        """(grad wrt input, parameter gradients in parameters() order, or []
        when params is false)."""
        acts = cache
        grads = []
        g = grad_out
        last = len(self.weights) - 1
        for k in range(last, -1, -1):
            if k != last:
                # tanh' times g in one fresh array, bitwise g * (1 - a**2).
                a = acts[k + 1]
                d = a * a
                np.subtract(1.0, d, out=d)
                d *= g
                g = d
            if params:
                grads = [np.dot(g.T, acts[k]), g.sum(axis=0)] + grads
            g = np.dot(g, self.weights[k])
        return g, grads

    def parameters(self):
        out = []
        for k in range(len(self.weights)):
            out.append((f"w{k}", self.weights[k]))
            out.append((f"b{k}", self.biases[k]))
        return out

    def bind_parameters(self, take):
        """Rebind every parameter array to take(array), a view of its values."""
        self.weights = [take(w) for w in self.weights]
        self.biases = [take(b) for b in self.biases]

    def lipschitz_bound(self) -> float:
        prod = 1.0
        for w in self.weights:
            prod *= spectral_norm(w)
        return prod

    def output_bound(self, radius: float) -> float:
        """Bound on ||output||_2 over inputs with norm <= radius."""
        r = radius
        last = len(self.weights) - 1
        for k, (w, b) in enumerate(zip(self.weights, self.biases)):
            r = spectral_norm(w) * r + float(np.linalg.norm(b))
            if k != last:
                r = min(r, np.sqrt(w.shape[0]))  # |tanh| <= 1 per coordinate
        return r

    def to_config(self) -> dict:
        return {"sizes": self.sizes,
                "weights": [w.tolist() for w in self.weights],
                "biases": [b.tolist() for b in self.biases]}

    @classmethod
    def from_config(cls, cfg: dict) -> "Mlp":
        return cls(cfg["sizes"], weights=cfg["weights"], biases=cfg["biases"])


def _clamped_log_scale(s_raw):
    """Clamp raw log-scales to [-SCALE_CLAMP, SCALE_CLAMP]; a non-finite
    one, which the clamp would hide, raises NumericError."""
    if not np.isfinite(s_raw).all():
        raise NumericError("non-finite log-scale")
    return np.clip(s_raw, -SCALE_CLAMP, SCALE_CLAMP)


def compose_ball_bounds(parts, radius: float):
    """(Lipschitz bound, output radius) of the parts applied in order,
    certified on ||x||_2 <= radius: each part's ball_bound is taken at the
    radius the parts before it carry the ball to."""
    bound = 1.0
    r = radius
    for part in parts:
        lip, r = part.ball_bound(r)
        bound *= lip
    return bound, r


class _AffineFlowLayer:
    """forward_with_cache is the one forward of a flow layer; its cache
    carries the clamped log-scales under "log_scale", which vjp reads."""

    def forward(self, X):
        return self.forward_with_cache(X)[0]


class CouplingLayer(_AffineFlowLayer):
    """Affine coupling: permute, split at d, rescale-and-shift the head.

    y = [a * exp(s(b)) + t(b), b] with (a, b) the split of the permuted
    input; exactly invertible for any subnets since exp(s) > 0.  Both
    subnets are Mlps mapping dim - split coordinates to split.
    """

    kind = "coupling"

    def __init__(self, dim: int, split: int, s_net, t_net, perm=None):
        if not (1 <= split < dim):
            raise InvalidLayerError(f"split must satisfy 1 <= d < n, got {split}/{dim}")
        for net in (s_net, t_net):
            if (net.in_dim, net.out_dim) != (dim - split, split):
                raise InvalidLayerError(
                    f"coupling subnet maps {net.in_dim} -> {net.out_dim}, "
                    f"expected {dim - split} -> {split}")
        self.dim = int(dim)
        self.split = int(split)
        self.s_net = s_net
        self.t_net = t_net
        if perm is None:
            perm = np.arange(dim)
        self.perm = np.asarray(perm, dtype=int)
        if sorted(self.perm.tolist()) != list(range(dim)):
            raise InvalidLayerError("perm must be a permutation of 0..n-1")

    def inverse(self, Y):
        ya, b = Y[:, :self.split], Y[:, self.split:]
        s = _clamped_log_scale(self.s_net(b))
        a = (ya - self.t_net(b)) * np.exp(-s)
        out = np.empty_like(Y)
        out[:, self.perm] = np.concatenate([a, b], axis=1)
        return out

    def forward_with_cache(self, X):
        xp = X[:, self.perm]
        a, b = xp[:, :self.split], xp[:, self.split:]
        s_raw, s_cache = self.s_net.forward_with_cache(b)
        t, t_cache = self.t_net.forward_with_cache(b)
        s = _clamped_log_scale(s_raw)
        es = np.exp(s)
        out = np.concatenate([a * es + t, b], axis=1)
        return out, {"a": a, "log_scale": s, "es": es,
                     "s_cache": s_cache, "t_cache": t_cache}

    def vjp(self, cache, grad_out, params=True):
        d = self.split
        gya, gb = grad_out[:, :d], grad_out[:, d:].copy()
        es, a = cache["es"], cache["a"]
        ga = gya * es
        gs = gya * a * es
        gs = gs * (np.abs(cache["log_scale"]) < SCALE_CLAMP)
        gb_s, s_grads = self.s_net.vjp(cache["s_cache"], gs, params)
        gb_t, t_grads = self.t_net.vjp(cache["t_cache"], gya, params)
        gb += gb_s + gb_t
        gx = np.empty_like(grad_out)
        gx[:, self.perm] = np.concatenate([ga, gb], axis=1)
        return gx, s_grads + t_grads

    def parameters(self):
        out = [(f"s_net.{k}", v) for k, v in self.s_net.parameters()]
        out += [(f"t_net.{k}", v) for k, v in self.t_net.parameters()]
        return out

    def bind_parameters(self, take):
        self.s_net.bind_parameters(take)
        self.t_net.bind_parameters(take)

    def ball_bound(self, radius: float):
        """(Lipschitz bound, output radius) on the ball ||x||_2 <= radius.

        The head a enters the cross-derivative scaled by its magnitude, so no
        global bound exists.  The Lipschitz bound is sigma_max of [[e^s,
        cross], [0, 1]], which dominates the operator norm of the 2x2
        block-triangular Jacobian with those block norms."""
        s_lip = self.s_net.lipschitz_bound()
        s0 = float(np.abs(self.s_net(np.zeros((1, self.dim - self.split)))).max())
        es = float(np.exp(min(SCALE_CLAMP, s0 + s_lip * radius)))
        cross = radius * es * s_lip + self.t_net.lipschitz_bound()
        head = radius * es + self.t_net.output_bound(radius)
        return (spectral_norm(np.array([[es, cross], [0.0, 1.0]])),
                float(np.sqrt(head ** 2 + radius ** 2)))

    def to_config(self) -> dict:
        return {"kind": self.kind, "dim": self.dim, "split": self.split,
                "perm": self.perm.tolist(), "scale_clamp": SCALE_CLAMP,
                "s_net": self.s_net.to_config(), "t_net": self.t_net.to_config()}

    @classmethod
    def from_config(cls, cfg: dict) -> "CouplingLayer":
        return cls(cfg["dim"], cfg["split"], Mlp.from_config(cfg["s_net"]),
                   Mlp.from_config(cfg["t_net"]), perm=cfg["perm"])


class AutoregressiveLayer(_AffineFlowLayer):
    """Affine autoregressive map: y_i = x_i exp(ls_i) + sh_i where the
    conditioner of coordinate i sees only x_{1..i-1}, an Mlp mapping those
    i - 1 inputs to (ls_i, sh_i); the first coordinate's conditioner is a
    learnable constant pair."""

    kind = "autoregressive"

    def __init__(self, dim: int, conditioners=None, first_params=None,
                 rng=None, hidden=(DEFAULT_SUBNET_WIDTH,), final_scale: float = 0.0):
        if dim < 1:
            raise InvalidLayerError("dim must be >= 1")
        self.dim = int(dim)
        self.first_params = (np.zeros(2) if first_params is None
                             else np.asarray(first_params, dtype=float).copy())
        if self.first_params.shape != (2,):
            raise InvalidLayerError("first_params must be (log_scale, shift)")
        if conditioners is None:
            rng = as_rng(rng)
            conditioners = [Mlp([i, *hidden, 2], rng=rng, final_scale=final_scale)
                            for i in range(1, dim)]
        if len(conditioners) != dim - 1:
            raise InvalidLayerError("need one conditioner per coordinate past the first")
        for i, cond in enumerate(conditioners, start=1):
            if (cond.in_dim, cond.out_dim) != (i, 2):
                raise InvalidLayerError(
                    f"conditioner {i} maps {cond.in_dim} -> {cond.out_dim}, "
                    f"expected {i} -> 2")
        self.conditioners = list(conditioners)

    def inverse(self, Y):
        X = np.empty_like(Y)
        ls0 = _clamped_log_scale(self.first_params[0])
        X[:, 0] = (Y[:, 0] - self.first_params[1]) * np.exp(-ls0)
        for i in range(1, self.dim):
            out = self.conditioners[i - 1](X[:, :i])
            ls = _clamped_log_scale(out[:, 0])
            X[:, i] = (Y[:, i] - out[:, 1]) * np.exp(-ls)
        return X

    def forward_with_cache(self, X):
        n_pts = X.shape[0]
        ls_raw = np.empty((n_pts, self.dim))
        sh = np.empty((n_pts, self.dim))
        caches = [None]
        ls_raw[:, 0] = self.first_params[0]
        sh[:, 0] = self.first_params[1]
        for i in range(1, self.dim):
            out, c = self.conditioners[i - 1].forward_with_cache(X[:, :i])
            caches.append(c)
            ls_raw[:, i] = out[:, 0]
            sh[:, i] = out[:, 1]
        ls = _clamped_log_scale(ls_raw)
        els = np.exp(ls)
        return X * els + sh, {"x": X, "log_scale": ls, "els": els, "caches": caches}

    def vjp(self, cache, grad_out, params=True):
        X, els = cache["x"], cache["els"]
        mask = np.abs(cache["log_scale"]) < SCALE_CLAMP
        gx = grad_out * els
        grads = []
        g_ls = grad_out * X * els * mask
        for i in range(self.dim - 1, 0, -1):
            gcond = np.stack([g_ls[:, i], grad_out[:, i]], axis=1)
            gprefix, cgrads = self.conditioners[i - 1].vjp(cache["caches"][i], gcond,
                                                           params)
            gx[:, :i] += gprefix
            grads = cgrads + grads
        if params:
            grads = [np.array([g_ls[:, 0].sum(), grad_out[:, 0].sum()])] + grads
        return gx, grads

    def parameters(self):
        return [("first", self.first_params)] + [
            (f"cond{i}.{k}", v) for i, cond in enumerate(self.conditioners, start=1)
            for k, v in cond.parameters()]

    def bind_parameters(self, take):
        self.first_params = take(self.first_params)
        for cond in self.conditioners:
            cond.bind_parameters(take)

    def ball_bound(self, radius: float):
        """(Lipschitz bound, output radius) on the ball ||x||_2 <= radius,
        from per-coordinate bounds: the scale factor exp(ls_i), |sh_i| and
        the Lipschitz constant of coordinate i's conditioner (0 for the
        constant first pair).  The Lipschitz bound is the operator norm of
        the entrywise coefficient-bound matrix of the (lower-triangular)
        Jacobian."""
        es = np.empty(self.dim)
        sh = np.empty(self.dim)
        lip = np.zeros(self.dim)
        es[0] = np.exp(min(abs(float(self.first_params[0])), SCALE_CLAMP))
        sh[0] = abs(float(self.first_params[1]))
        for i in range(1, self.dim):
            cond = self.conditioners[i - 1]
            out0 = cond(np.zeros((1, i)))
            lip[i] = cond.lipschitz_bound()
            es[i] = np.exp(min(SCALE_CLAMP, abs(float(out0[0, 0])) + lip[i] * radius))
            sh[i] = abs(float(out0[0, 1])) + lip[i] * radius
        cross = radius * es * lip + lip
        g = np.tril(np.broadcast_to(cross[:, None], (self.dim, self.dim)), -1)
        np.fill_diagonal(g, es)
        return spectral_norm(g), float(np.linalg.norm(radius * es + sh))

    def to_config(self) -> dict:
        return {"kind": self.kind, "dim": self.dim,
                "scale_clamp": SCALE_CLAMP,
                "first": self.first_params.tolist(),
                "conditioners": [c.to_config() for c in self.conditioners]}

    @classmethod
    def from_config(cls, cfg: dict) -> "AutoregressiveLayer":
        conds = [Mlp.from_config(c) for c in cfg["conditioners"]]
        return cls(cfg["dim"], conditioners=conds, first_params=cfg["first"])


class FlowBlock:
    """Ordered stack of flow layers of a common dimension; empty = identity."""

    kind = "flow_block"

    def __init__(self, dim: int, layers=None):
        self.dim = int(dim)
        self.layers = list(layers or [])
        for layer in self.layers:
            if not isinstance(layer, _AffineFlowLayer):
                raise InvalidLayerError(f"flow block cannot hold {type(layer).__name__}")
            if layer.dim != self.dim:
                raise InvalidLayerError(
                    f"layer dim {layer.dim} does not match block dim {self.dim}")

    def __call__(self, X):
        return self.forward(X)

    def forward(self, X):
        for layer in self.layers:
            X = layer.forward(X)
        return X

    def inverse(self, Y):
        for layer in reversed(self.layers):
            Y = layer.inverse(Y)
        return Y

    def pseudo_inverse(self, Z):
        """Exact inverse of the rows of Z; a bijection has no ties."""
        return self.inverse(Z), np.zeros(Z.shape[0], dtype=bool)

    def forward_with_cache(self, X):
        caches = []
        for layer in self.layers:
            X, c = layer.forward_with_cache(X)
            caches.append(c)
        return X, caches

    def vjp(self, caches, grad_out, params=True):
        grads = []
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            grad_out, lgrads = layer.vjp(cache, grad_out, params)
            grads = lgrads + grads
        return grad_out, grads

    def parameters(self):
        return [(f"layer{idx}.{k}", v) for idx, layer in enumerate(self.layers)
                for k, v in layer.parameters()]

    def bind_parameters(self, take):
        for layer in self.layers:
            layer.bind_parameters(take)

    def ball_bound(self, radius: float):
        return compose_ball_bounds(self.layers, radius)

    def validate(self) -> None:
        """Raise InvalidLayerError on a non-finite parameter entry; flow
        layers are invertible for any finite parameters."""
        check_finite(*(arr for _, arr in self.parameters()))

    def to_config(self) -> dict:
        return {"kind": self.kind, "dim": self.dim,
                "layers": [layer.to_config() for layer in self.layers]}


def identity_block(dim: int) -> FlowBlock:
    return FlowBlock(dim, [])


def make_coupling_block(dim: int, n_layers: int, rng=None,
                        hidden: int = DEFAULT_SUBNET_WIDTH,
                        final_scale: float = 0.0) -> FlowBlock:
    """Stack of affine couplings with alternating reversal permutations."""
    if dim < 2:
        raise InvalidLayerError("coupling layers need dim >= 2")
    rng = as_rng(rng)
    layers = []
    split = dim // 2
    for k in range(n_layers):
        perm = np.arange(dim) if k % 2 == 0 else np.arange(dim)[::-1]
        cond_in = dim - split
        s_net = Mlp([cond_in, hidden, hidden, split], rng=rng, final_scale=final_scale)
        t_net = Mlp([cond_in, hidden, hidden, split], rng=rng, final_scale=final_scale)
        layers.append(CouplingLayer(dim, split, s_net, t_net, perm=perm))
    return FlowBlock(dim, layers)


def make_autoregressive_block(dim: int, n_layers: int, rng=None,
                              hidden: int = DEFAULT_SUBNET_WIDTH,
                              final_scale: float = 0.0) -> FlowBlock:
    rng = as_rng(rng)
    layers = [AutoregressiveLayer(dim, rng=rng, hidden=(hidden,),
                                  final_scale=final_scale)
              for _ in range(n_layers)]
    return FlowBlock(dim, layers)
