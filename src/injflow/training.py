"""Gradient-based fitting of injective networks to manifold-supported targets.

Two losses drive the two-phase layerwise schedule: a symmetric mean-squared
Chamfer surrogate for the manifold phase (the trace reports the true
directed sup-inf alongside), and a sliced squared-W2 surrogate for the
density phase.  Gradients are analytic reverse-mode passes through the
stage VJPs; the Lipschitz estimate of the network is tracked during the
knotted-target experiment.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from . import metrics
from ._util import as_rng, flatten, pairwise_sq_dists, write_csv
from .errors import (
    InjectiveFlowError,
    InvalidArgumentError,
    InvalidConfigError,
    NumericError,
)
from .expansive import LinearExpansive, random_orthonormal_columns
from .flows import (
    AutoregressiveLayer,
    FlowBlock,
    make_coupling_block,
)
from .geometry import (
    ManifoldTarget,
    arc_target,
    planar_circle_target,
    sample_circle,
    trefoil_target,
)
from .metrics import draw_directions, sliced_w2sq, sliced_w2sq_loss_and_grad
from .network import InjectiveNetwork, lipschitz_estimate

LOSSES = ("manifold", "density")
TRACE_COLUMNS = ("step", "loss", "directed_supinf", "sliced_w2",
                 "lipschitz_estimate")


# --- point-set losses (value and gradient wrt the generated set) -----------


def chamfer_loss_and_grad(generated: np.ndarray, target: np.ndarray):
    """Symmetric mean-squared Chamfer distance and its gradient in the
    generated points (argmin selections treated as locally constant)."""
    if generated.size == 0 or target.size == 0:
        raise InvalidArgumentError("batches must be non-empty")
    d2 = pairwise_sq_dists(generated, target)
    jmin = np.argmin(d2, axis=1)          # generated -> target
    imin = np.argmin(d2, axis=0)          # target -> generated
    n_g, n_t = generated.shape[0], target.shape[0]
    value = float(d2[np.arange(n_g), jmin].mean() + d2[imin, np.arange(n_t)].mean())
    grad = 2.0 * (generated - target[jmin]) / n_g
    np.add.at(grad, imin, 2.0 * (generated[imin] - target) / n_t)
    return value, grad


def _chamfer_and_supinf(generated: np.ndarray, target: np.ndarray):
    """(chamfer_loss_and_grad(generated, target)[0],
    metrics.directed_supinf(target, generated)), bitwise, from the row and
    column minima of one distance matrix, which is freed on return: a
    minimum is the entry its argmin picks."""
    d2 = pairwise_sq_dists(generated, target)
    to_target, to_generated = d2.min(axis=1), d2.min(axis=0)
    return (float(to_target.mean() + to_generated.mean()),
            float(np.sqrt(to_generated.max())))


def _effective_weights(loss: str, loss_weights) -> dict:
    """The given loss mix, with the named loss at weight 1.0 unless it is set."""
    weights = dict(loss_weights) if loss_weights else {}
    weights.setdefault(loss, 1.0)
    return weights


def _active_terms(weights: dict, directions):
    """(name, weight) of each loss with a non-zero weight, in order; such
    a loss with an unknown name, or the density loss without `directions`,
    raises."""
    for name, w in weights.items():
        if w == 0.0:
            continue
        if name not in LOSSES:
            raise InvalidArgumentError(f"unknown loss {name!r}")
        if name == "density" and directions is None:
            raise InvalidArgumentError("density loss needs projection directions")
        yield name, w


def _weighted_loss(gen, target, weights: dict, directions):
    """(value, gradient wrt gen) of the weighted sum of the named losses;
    zero weights are skipped, and the density loss needs `directions`."""
    total = 0.0
    grad = np.zeros_like(gen)
    for name, w in _active_terms(weights, directions):
        v, g = (chamfer_loss_and_grad(gen, target) if name == "manifold"
                else sliced_w2sq_loss_and_grad(gen, target, directions))
        total += w * v
        grad += w * g
    return total, grad


def compute_gradients(net: InjectiveNetwork, loss: str, latent_batch,
                      target_batch, trainable=None, directions=None,
                      loss_weights=None):
    """Loss value and analytic parameter gradients for the named loss.

    loss is 'manifold' or 'density'; loss_weights optionally mixes both
    ({'manifold': w_m, 'density': w_d}), in which case `directions` must be
    given for the density part.  Returns (value, flat gradient of net.vjp).
    """
    X = np.atleast_2d(np.asarray(latent_batch, dtype=float))
    T = np.atleast_2d(np.asarray(target_batch, dtype=float))
    if X.shape[0] == 0 or T.shape[0] == 0:
        raise InvalidArgumentError("batches must be non-empty")
    gen, caches = net.forward_with_cache(X)
    total, grad_gen = _weighted_loss(gen, T, _effective_weights(loss, loss_weights),
                                     directions)
    _, grads = net.vjp(caches, grad_gen, trainable=trainable)
    if not np.isfinite(grads).all():
        sidx, pname = next((s, n) for s, n, g in net.parameter_views(grads, trainable)
                           if not np.isfinite(g).all())
        raise NumericError(f"non-finite gradient at stage {sidx} "
                           f"parameter {pname}", stage_index=sidx)
    return float(total), grads


class Adam:
    """Adaptive moment estimation on one flat parameter vector, updated in
    place: the vector of InjectiveNetwork.parameter_store, whose layout
    every gradient given to step shares."""

    def __init__(self, params, lr: float = 1e-3):
        self.params = params
        self.lr = lr
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        self.t = 0

    def step(self, g: np.ndarray) -> None:
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        b1c = 1.0 - beta1 ** self.t
        b2c = 1.0 - beta2 ** self.t
        self.m *= beta1
        self.m += (1.0 - beta1) * g
        self.v *= beta2
        self.v += (1.0 - beta2) * g * g
        self.params -= (self.lr / b1c) * self.m / (np.sqrt(self.v / b2c) + eps)


# --- configuration and traces ----------------------------------------------


@dataclass(frozen=True)
class PhaseConfig:
    trainable_stages: tuple
    loss: str
    steps: int
    learning_rate: float
    loss_weights: dict | None = None

    def __post_init__(self):
        if self.steps <= 0:
            raise InvalidConfigError("steps must be > 0")
        if self.learning_rate <= 0:
            raise InvalidConfigError("learning_rate must be > 0")
        if self.loss not in LOSSES:
            raise InvalidConfigError(f"unknown loss {self.loss!r}")
        unknown = sorted(set(self.loss_weights or ()) - set(LOSSES))
        if unknown:
            raise InvalidConfigError(f"unknown loss weights {unknown}")
        for key, weight in (self.loss_weights or {}).items():
            if not (isinstance(weight, numbers.Real) and np.isfinite(weight)
                    and weight >= 0):
                raise InvalidConfigError(
                    f"loss weight {key!r} must be a finite number >= 0, "
                    f"got {weight!r}")


@dataclass(frozen=True)
class TrainingConfig:
    phases: tuple
    batch_size: int = 256
    seed: int = 0
    lipschitz_log_interval: int = 50
    n_projections: int = 64

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvalidConfigError("batch_size must be >= 1")
        if self.n_projections < 1:
            raise InvalidConfigError("n_projections must be >= 1")
        if self.lipschitz_log_interval < 1:
            raise InvalidConfigError("lipschitz_log_interval must be >= 1")
        object.__setattr__(self, "phases", tuple(self.phases))

    def validate_for(self, net: InjectiveNetwork) -> None:
        n_stages = len(net.stages)
        for pidx, phase in enumerate(self.phases):
            trainable = set(phase.trainable_stages)
            if not trainable:
                raise InvalidConfigError(f"phase {pidx}: no trainable stages")
            if any(s < 0 or s >= n_stages for s in trainable):
                raise InvalidConfigError(
                    f"phase {pidx}: stage index out of range 0..{n_stages - 1}")


@dataclass(frozen=True)
class TraceRecord:
    step: int
    loss: float
    directed_supinf: float
    sliced_w2: float
    lipschitz_estimate: float


class TrainingTrace:
    """Append-only diagnostic log with strictly increasing step indices."""

    def __init__(self):
        self.records: list[TraceRecord] = []

    def append(self, record: TraceRecord) -> None:
        if self.records and record.step <= self.records[-1].step:
            raise InvalidArgumentError("trace steps must increase")
        values = (record.loss, record.directed_supinf, record.sliced_w2,
                  record.lipschitz_estimate)
        if not all(np.isfinite(v) for v in values):
            raise NumericError(f"non-finite trace values at step {record.step}")
        self.records.append(record)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]

    def column(self, name: str) -> np.ndarray:
        return np.array([getattr(r, name) for r in self.records])

    def to_csv(self, path) -> None:
        write_csv(path, TRACE_COLUMNS,
                  [[getattr(r, c) for c in TRACE_COLUMNS] for r in self.records])


def _digest(net: InjectiveNetwork, stage_indices) -> str:
    import hashlib  # only phases with frozen stages compute a digest
    params = flatten(arr for _, _, arr in net.parameters(stage_indices))
    return hashlib.sha256(params.tobytes()).hexdigest()


@dataclass
class LayerwiseResult:
    trace: TrainingTrace
    phase_end_steps: list
    phase_losses: list
    frozen_digests: list
    frozen_intact: bool

    def record_at_phase_end(self, loss_name: str) -> TraceRecord:
        """Trace record at the end of the last phase using the named loss."""
        ends = [s for s, l in zip(self.phase_end_steps, self.phase_losses)
                if l == loss_name]
        if not ends:
            raise InvalidArgumentError(f"no phase with loss {loss_name!r}")
        step = ends[-1]
        return next(r for r in reversed(self.trace.records) if r.step <= step)


def _record(net, step, weights, eval_latent, eval_target, diag_dirs,
            diag_seed) -> TraceRecord:
    """Diagnostics on the fixed eval sets, free of batch sampling noise.

    Only values are computed, no loss gradient, and at most one eval-set
    distance matrix is alive at a time: the one behind the Chamfer term
    and the sup-inf is freed before the sliced W2 and the Lipschitz
    estimate run."""
    gen = net.forward(eval_latent)
    chamfer, supinf = _chamfer_and_supinf(gen, eval_target)
    loss = 0.0
    for name, w in _active_terms(weights, diag_dirs):
        loss += w * (chamfer if name == "manifold"
                     else sliced_w2sq(gen, eval_target, diag_dirs))
    w2 = metrics.wasserstein2_sliced(gen, eval_target, n_projections=128,
                                     seed=diag_seed)
    lip = lipschitz_estimate(lambda _: gen, eval_latent)  # reuses the images
    return TraceRecord(step=step, loss=loss, directed_supinf=supinf,
                       sliced_w2=w2, lipschitz_estimate=lip)


def _run_phases(net, config, latent_sampler, target_sampler, eval_latent,
                eval_target):
    """Shared schedule runner; diagnostics are evaluated on the fixed
    eval sets at every lipschitz_log_interval steps."""

    config.validate_for(net)
    rng = as_rng(config.seed)
    trace = TrainingTrace()
    interval = config.lipschitz_log_interval
    diag_seed = int(as_rng(config.seed + 1).integers(0, 2 ** 31))
    global_step = 0
    phase_end_steps = []
    phase_losses = []
    frozen_digests = []
    frozen_intact = True

    diag_dirs = draw_directions(eval_target.shape[1], config.n_projections,
                                diag_seed)

    for phase in config.phases:
        trainable = sorted(set(phase.trainable_stages))
        frozen = sorted(set(range(len(net.stages))) - set(trainable))
        before = _digest(net, frozen) if frozen else ""
        weights = _effective_weights(phase.loss, phase.loss_weights)
        optimizer = Adam(net.parameter_store(trainable), lr=phase.learning_rate)
        for local_step in range(phase.steps):
            latent = latent_sampler(config.batch_size, rng)
            target = target_sampler(config.batch_size, rng)
            needs_dirs = weights.get("density", 0.0) > 0.0
            dirs = (draw_directions(target.shape[1], config.n_projections, rng)
                    if needs_dirs else None)
            if global_step % interval == 0:
                trace.append(_record(net, global_step, weights, eval_latent,
                                     eval_target, diag_dirs, diag_seed))
            _, grads = compute_gradients(
                net, phase.loss, latent, target, trainable=set(trainable),
                directions=dirs, loss_weights=weights)
            optimizer.step(grads)
            global_step += 1
        # Final state of the phase.
        trace.append(_record(net, global_step, weights, eval_latent,
                             eval_target, diag_dirs, diag_seed))
        global_step += 1
        after = _digest(net, frozen) if frozen else ""
        frozen_digests.append((before, after))
        frozen_intact = frozen_intact and (before == after)
        phase_end_steps.append(global_step - 1)
        phase_losses.append(phase.loss)

    return LayerwiseResult(trace=trace, phase_end_steps=phase_end_steps,
                           phase_losses=phase_losses,
                           frozen_digests=frozen_digests,
                           frozen_intact=frozen_intact)


def run_layerwise(net: InjectiveNetwork, target: ManifoldTarget,
                  config: TrainingConfig, eval_count: int = 512) -> LayerwiseResult:
    """Two-phase layerwise schedule against a parametrized target.

    Latent batches and target parameter batches are drawn from the same base
    distribution on the target's parameter domain, so the density phase
    compares E#mu against f#mu directly.  Diagnostics use deterministic
    parameter grids so coverage gaps reflect the fit, not sampling noise.
    """
    if target.intrinsic_dim != net.latent_dim:
        raise InvalidConfigError(
            f"target intrinsic dim {target.intrinsic_dim} must equal the "
            f"network latent dim {net.latent_dim}")
    lo, hi = target.domain

    def sampler(count, rng):
        return as_rng(rng).uniform(lo, hi, size=(count, target.intrinsic_dim))

    def target_sampler(count, rng):
        return target.map_points(sampler(count, rng))

    grid = np.linspace(lo, hi, eval_count)[:, None]
    eval_latent = grid
    eval_target = target.map_points(grid)
    return _run_phases(net, config, sampler, target_sampler,
                       eval_latent, eval_target)


# --- experiment builders -----------------------------------------------------


def build_layerwise_toy_network(seed: int = 0) -> InjectiveNetwork:
    """n=1 -> o=2 -> m=3 network for the layerwise toy experiment: coupling
    blocks of depth 3 with hidden width 24."""
    rng = as_rng(seed)
    t0 = FlowBlock(1, [AutoregressiveLayer(1, rng=rng)])
    r1 = LinearExpansive(random_orthonormal_columns(1, 2, rng))
    t1 = make_coupling_block(2, 3, rng=rng, hidden=24)
    r2 = LinearExpansive(random_orthonormal_columns(2, 3, rng))
    t2 = make_coupling_block(3, 3, rng=rng, hidden=24)
    return InjectiveNetwork([t0, r1, t1, r2, t2])


def default_layerwise_config(seed: int = 0, phase1_steps: int = 2400,
                             phase2_steps: int = 600) -> TrainingConfig:
    """Manifold phase on the outer stages (with a density component, since
    the dim-1 inner flow is affine and cannot reshape the latent measure
    beyond an affine map), then the frozen-outer density phase on T0.
    Both phases anneal their learning rates over successive legs."""
    leg1 = max(1, phase1_steps // 2)
    leg2 = max(1, phase1_steps // 3)
    leg3 = max(1, phase1_steps - leg1 - leg2)
    leg4 = max(1, (2 * phase2_steps) // 3)
    leg5 = max(1, phase2_steps - leg4)
    mix = {"manifold": 1.0, "density": 0.5}
    return TrainingConfig(
        phases=(
            PhaseConfig(trainable_stages=(1, 2, 3, 4), loss="manifold",
                        steps=leg1, learning_rate=5e-3, loss_weights=mix),
            PhaseConfig(trainable_stages=(1, 2, 3, 4), loss="manifold",
                        steps=leg2, learning_rate=1.2e-3, loss_weights=mix),
            PhaseConfig(trainable_stages=(1, 2, 3, 4), loss="manifold",
                        steps=leg3, learning_rate=3e-4, loss_weights=mix),
            PhaseConfig(trainable_stages=(0,), loss="density",
                        steps=leg4, learning_rate=1e-2),
            PhaseConfig(trainable_stages=(0,), loss="density",
                        steps=leg5, learning_rate=3e-3),
        ),
        batch_size=320, seed=seed, lipschitz_log_interval=50,
        n_projections=64)


def run_layerwise_toy(seed: int = 0, phase1_steps: int = 2400,
                      phase2_steps: int = 600):
    net = build_layerwise_toy_network(seed=seed)
    config = default_layerwise_config(seed=seed, phase1_steps=phase1_steps,
                                      phase2_steps=phase2_steps)
    target = arc_target()
    result = run_layerwise(net, target, config)
    return net, result


def build_obstruction_network(seed: int = 0) -> InjectiveNetwork:
    """Extendable-by-construction family: planar flow (2 couplings),
    full-rank linear R^2 -> R^3, then an ambient flow block (10 couplings);
    hidden width 40."""
    rng = as_rng(seed)
    t0 = make_coupling_block(2, 2, rng=rng, hidden=40)
    r1 = LinearExpansive(random_orthonormal_columns(2, 3, rng))
    t1 = make_coupling_block(3, 10, rng=rng, hidden=40)
    return InjectiveNetwork([t0, r1, t1])


class _ArclengthSampler:
    """Inverse-CDF sampler making a closed curve target, one period over its
    domain, uniform in arclength."""

    def __init__(self, target: ManifoldTarget):
        grid_size = 4096
        lo, hi = target.domain
        theta = np.linspace(lo, hi, grid_size, endpoint=False)[:, None]
        pts = target.map_points(theta)
        seg = np.linalg.norm(np.diff(np.vstack([pts, pts[:1]]), axis=0), axis=1)
        cdf = np.concatenate([[0.0], np.cumsum(seg)])
        self._cdf = cdf / cdf[-1]
        self._theta = np.linspace(lo, hi, grid_size + 1)

    def theta(self, u) -> np.ndarray:
        return np.interp(np.asarray(u, dtype=float), self._cdf, self._theta)

    def sample(self, count, rng) -> np.ndarray:
        return self.theta(as_rng(rng).uniform(size=count))[:, None]

    def grid(self, count) -> np.ndarray:
        return self.theta((np.arange(count) + 0.5) / count)[:, None]


@dataclass
class ObstructionResult:
    treatment: TrainingTrace
    control: TrainingTrace
    summary: dict


def _obstruction_arm(arm: str, seed: int, steps_manifold: int, steps_density: int,
                     batch_size: int, lipschitz_log_interval: int,
                     eval_count: int) -> TrainingTrace:
    """Train one arm ("treatment" or "control") of the obstruction run.

    Module-level and built from plain arguments, so a worker process can run
    it: the targets hold closures that do not pickle.
    """
    if arm == "treatment":
        target = trefoil_target(scale=1.0)
    else:
        target = planar_circle_target(radius=2.0, tilt=0.35,
                                      center=(0.1, 0.0, 0.1))
    leg1 = max(1, steps_density // 2)
    leg2 = max(1, (3 * steps_density) // 10)
    leg3 = max(1, steps_density - leg1 - leg2)
    density_mix = {"density": 1.0, "manifold": 0.1}
    net = build_obstruction_network(seed=seed)
    config = TrainingConfig(
        phases=(
            PhaseConfig(trainable_stages=(0, 1, 2), loss="manifold",
                        steps=steps_manifold, learning_rate=5e-3,
                        loss_weights={"manifold": 1.0, "density": 0.5}),
            PhaseConfig(trainable_stages=(0, 1, 2), loss="density",
                        steps=leg1, learning_rate=2e-3,
                        loss_weights=density_mix),
            PhaseConfig(trainable_stages=(0, 1, 2), loss="density",
                        steps=leg2, learning_rate=7e-4,
                        loss_weights=density_mix),
            PhaseConfig(trainable_stages=(0, 1, 2), loss="density",
                        steps=leg3, learning_rate=2.5e-4,
                        loss_weights=density_mix),
        ),
        batch_size=batch_size, seed=seed,
        lipschitz_log_interval=lipschitz_log_interval,
        n_projections=64)
    arclen = _ArclengthSampler(target)

    def latent_sampler(count, rng):
        theta = as_rng(rng).uniform(0.0, 2.0 * np.pi, size=count)
        return np.column_stack([np.cos(theta), np.sin(theta)])

    def target_sampler(count, rng):
        return target.map_points(arclen.sample(count, rng))

    eval_latent = sample_circle(eval_count)
    eval_target = target.map_points(arclen.grid(eval_count))
    return _run_phases(net, config, latent_sampler, target_sampler,
                       eval_latent, eval_target).trace


def _control_arm_into(conn, *args) -> None:
    """Worker-process body: send the control arm's trace, or the error it
    raised, through conn to the calling process."""
    try:
        result = _obstruction_arm("control", *args)
    except Exception as err:  # re-raised in the calling process
        result = err
    conn.send(result)


def run_obstruction_experiment(seed: int = 0, steps_manifold: int = 2500,
                               steps_density: int = 3500,
                               batch_size: int = 256,
                               lipschitz_log_interval: int = 50,
                               eval_count: int = 512) -> ObstructionResult:
    """Identical-budget paired runs: trefoil treatment vs planar-circle control.

    Both arms share the architecture, initialization seed, schedule, and
    latent base measure (uniform on the unit circle in R^2); only the target
    differs.  Target batches are uniform in arclength on the curve.  Traces
    record the Lipschitz estimate over a fixed fine latent grid so
    squeeze-induced stretching is visible.

    The arms share no state, so they run at the same time: the control arm
    in one forked worker process, the treatment arm in this one.  Each arm
    computes exactly what it would alone, so the traces are bit-for-bit
    those of running them one after the other.
    """
    # Imported here so that `import injflow` stays as light as it was.
    import multiprocessing

    args = (seed, steps_manifold, steps_density, batch_size, lipschitz_log_interval,
            eval_count)
    # fork, not spawn: a spawned worker would import numpy and scipy again
    # (about 0.5 s).  The package starts no threads, so the fork is safe.
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=_control_arm_into, args=(send, *args))
    worker.start()
    send.close()  # the worker holds the only write end: its death is EOF
    try:
        treatment = _obstruction_arm("treatment", *args)
        control = receive.recv()
    except EOFError:
        raise InjectiveFlowError(
            "the control arm's worker process died before sending its trace") from None
    finally:
        # Stops a worker still training when the treatment arm has raised.
        worker.kill()
        worker.join()
        receive.close()
    if isinstance(control, Exception):
        raise control

    control_final_lip = control.final.lipschitz_estimate
    control_final_w2 = control.final.sliced_w2
    tight = [r for r in treatment.records if r.sliced_w2 < 0.1]
    summary = {
        "control_final_sliced_w2": control_final_w2,
        "control_final_lipschitz": control_final_lip,
        "control_max_lipschitz": float(control.column("lipschitz_estimate").max()),
        "treatment_min_sliced_w2": float(treatment.column("sliced_w2").min()),
        "treatment_steps_below_0.1": len(tight),
        "treatment_min_lipschitz_when_tight":
            min((r.lipschitz_estimate for r in tight), default=float("nan")),
        "lipschitz_ratio":
            (min((r.lipschitz_estimate for r in tight), default=float("nan"))
             / control_final_lip) if control_final_lip > 0 else float("nan"),
        # Experiment-design constants, not values from the source material.
        "control_lipschitz_ceiling": 20.0,
        "ratio_threshold": 10.0,
    }
    return ObstructionResult(treatment=treatment, control=control,
                             summary=summary)
