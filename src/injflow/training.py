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
from dataclasses import dataclass, fields

import numpy as np

from . import metrics
# benchmark/tracer.py times the distance kernel under this module's name too.
from ._util import as_rng, flatten, nearest_rows, pairwise_sq_dists, write_csv  # noqa: F401
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
# Directions of the sliced-W2 density loss and of its diagnostics value.
N_PROJECTIONS = 64
# Points of the fixed eval sets behind every diagnostics record.
EVAL_COUNT = 512


# --- point-set losses (value and gradient wrt the generated set) -----------


def chamfer_loss_and_grad(generated: np.ndarray, target: np.ndarray):
    """Symmetric mean-squared Chamfer distance and its gradient in the
    generated points (argmin selections treated as locally constant).  The
    nearest rows in both directions are those of the full distance matrix,
    first occurrence on ties (_util.nearest_rows)."""
    if generated.size == 0 or target.size == 0:
        raise InvalidArgumentError("batches must be non-empty")
    n_g, n_t = generated.shape[0], target.shape[0]
    jmin, to_target = nearest_rows(generated, target)
    imin, to_generated = nearest_rows(target, generated)
    value = float(to_target.mean() + to_generated.mean())
    grad = 2.0 * (generated - target[jmin]) / n_g
    np.add.at(grad, imin, 2.0 * (generated[imin] - target) / n_t)
    return value, grad


def _chamfer_and_supinf(generated: np.ndarray, target: np.ndarray):
    """(chamfer_loss_and_grad(generated, target)[0],
    metrics.directed_supinf(target, generated)), bitwise, from the nearest
    rows in both directions, each taken in metrics._nearest_rows' row
    blocks, so the distance matrix is never built."""
    to_target = metrics._nearest_rows(generated, target)[1]
    to_generated = metrics._nearest_rows(target, generated)[1]
    return (float(to_target.mean() + to_generated.mean()),
            float(np.sqrt(to_generated.max())))


def loss_mix(loss: str, loss_weights=None) -> dict:
    """{name: weight} of the losses summed, in summation order: the given
    weights in their order, then `loss` at 1.0 unless given, with zero
    weights dropped.  An unknown name, or a weight that is not a finite
    real number >= 0, raises InvalidConfigError naming it."""
    weights = dict(loss_weights or {})
    weights.setdefault(loss, 1.0)
    for key, weight in weights.items():
        if key not in LOSSES:
            raise InvalidConfigError(f"unknown loss {key!r}")
        if not (isinstance(weight, numbers.Real) and np.isfinite(weight)
                and weight >= 0):
            raise InvalidConfigError(
                f"loss weight {key!r} must be a finite number >= 0, got {weight!r}")
    return {key: weight for key, weight in weights.items() if weight != 0.0}


def _weighted_loss(gen, target, mix: dict, directions):
    """(value, gradient wrt gen) of the weighted sum of the losses of a
    loss_mix; the density loss needs `directions`."""
    if "density" in mix and directions is None:
        raise InvalidArgumentError("density loss needs projection directions")
    total = 0.0
    grad = np.zeros_like(gen)
    for name, w in mix.items():
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
    ({'manifold': w_m, 'density': w_d}) by the rule of loss_mix, and a
    density part with a non-zero weight needs `directions`.  Returns
    (value, flat gradient of net.vjp).
    """
    X = np.atleast_2d(np.asarray(latent_batch, dtype=float))
    T = np.atleast_2d(np.asarray(target_batch, dtype=float))
    if X.shape[0] == 0 or T.shape[0] == 0:
        raise InvalidArgumentError("batches must be non-empty")
    gen, caches = net.forward_with_cache(X)
    total, grad_gen = _weighted_loss(gen, T, loss_mix(loss, loss_weights), directions)
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
        """params -= (lr / b1c) * m / (sqrt(v / b2c) + eps), each operation
        in that order, through one scratch vector: the two moment terms,
        then the denominator, which the quotient overwrites (its numerator
        is the one other store-sized temporary)."""
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        b1c = 1.0 - beta1 ** self.t
        b2c = 1.0 - beta2 ** self.t
        scratch = np.multiply(g, 1.0 - beta1)
        self.m *= beta1
        self.m += scratch
        np.multiply(g, 1.0 - beta2, out=scratch)
        scratch *= g
        self.v *= beta2
        self.v += scratch
        np.divide(self.v, b2c, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += eps
        np.divide((self.lr / b1c) * self.m, scratch, out=scratch)
        self.params -= scratch


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
        loss_mix(self.loss, self.loss_weights)


@dataclass(frozen=True)
class TrainingConfig:
    phases: tuple
    batch_size: int = 256
    seed: int = 0
    lipschitz_log_interval: int = 50

    def __post_init__(self):
        if self.batch_size < 1:
            raise InvalidConfigError("batch_size must be >= 1")
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


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))


class TrainingTrace:
    """Append-only diagnostic log with strictly increasing step indices."""

    def __init__(self):
        self.records: list[TraceRecord] = []

    def append(self, record: TraceRecord) -> None:
        if self.records and record.step <= self.records[-1].step:
            raise InvalidArgumentError("trace steps must increase")
        bad = [c for c in TRACE_COLUMNS[1:] if not np.isfinite(getattr(record, c))]
        if bad:
            raise NumericError(f"non-finite trace values at step {record.step}: {', '.join(bad)}")
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

    @property
    def frozen_intact(self) -> bool:
        """Whether every phase left its frozen stages bit-identical."""
        return all(before == after for before, after in self.frozen_digests)

    def record_at_phase_end(self, loss_name: str) -> TraceRecord:
        """Trace record at the end of the last phase using the named loss."""
        ends = [s for s, l in zip(self.phase_end_steps, self.phase_losses)
                if l == loss_name]
        if not ends:
            raise InvalidArgumentError(f"no phase with loss {loss_name!r}")
        step = ends[-1]
        return next(r for r in reversed(self.trace.records) if r.step <= step)


def _record(net, step, mix, eval_latent, eval_target, diag_dirs,
            diag_seed) -> TraceRecord:
    """Diagnostics on the fixed eval sets, free of batch sampling noise.

    Only values are computed, no loss gradient, and no whole eval-set
    distance matrix is built: the Chamfer term and the sup-inf come from
    row blocks of one, and the Lipschitz estimate works in row blocks."""
    gen = net.forward(eval_latent)
    chamfer, supinf = _chamfer_and_supinf(gen, eval_target)
    loss = 0.0
    for name, w in mix.items():
        loss += w * (chamfer if name == "manifold"
                     else sliced_w2sq(gen, eval_target, diag_dirs))
    w2 = metrics.wasserstein2_sliced(gen, eval_target, n_projections=128,
                                     seed=diag_seed)
    lip = lipschitz_estimate(lambda _: gen, eval_latent)  # reuses the images
    return TraceRecord(step=step, loss=loss, directed_supinf=supinf,
                       sliced_w2=w2, lipschitz_estimate=lip)


def _run_phases(net, config, latent_sampler, target_sampler, eval_latent,
                eval_target, poll=None):
    """Shared schedule runner; diagnostics are evaluated on the fixed
    eval sets at every lipschitz_log_interval steps.  `poll`, if given, is
    called after every optimizer step, and whatever it raises stops the
    run."""

    config.validate_for(net)
    rng = as_rng(config.seed)
    trace = TrainingTrace()
    interval = config.lipschitz_log_interval
    diag_seed = int(as_rng(config.seed + 1).integers(0, 2 ** 31))
    global_step = 0
    phase_end_steps = []
    phase_losses = []
    frozen_digests = []

    diag_dirs = draw_directions(eval_target.shape[1], N_PROJECTIONS, diag_seed)

    for phase in config.phases:
        trainable = sorted(set(phase.trainable_stages))
        frozen = sorted(set(range(len(net.stages))) - set(trainable))
        before = _digest(net, frozen) if frozen else ""
        mix = loss_mix(phase.loss, phase.loss_weights)
        optimizer = Adam(net.parameter_store(trainable), lr=phase.learning_rate)
        for local_step in range(phase.steps):
            latent = latent_sampler(config.batch_size, rng)
            target = target_sampler(config.batch_size, rng)
            dirs = (draw_directions(target.shape[1], N_PROJECTIONS, rng)
                    if "density" in mix else None)
            if global_step % interval == 0:
                trace.append(_record(net, global_step, mix, eval_latent,
                                     eval_target, diag_dirs, diag_seed))
            _, grads = compute_gradients(
                net, phase.loss, latent, target, trainable=set(trainable),
                directions=dirs, loss_weights=phase.loss_weights)
            optimizer.step(grads)
            if poll is not None:
                poll()
            global_step += 1
        # Final state of the phase.
        trace.append(_record(net, global_step, mix, eval_latent,
                             eval_target, diag_dirs, diag_seed))
        global_step += 1
        frozen_digests.append((before, _digest(net, frozen) if frozen else ""))
        phase_end_steps.append(global_step - 1)
        phase_losses.append(phase.loss)

    return LayerwiseResult(trace=trace, phase_end_steps=phase_end_steps,
                           phase_losses=phase_losses,
                           frozen_digests=frozen_digests)


def run_layerwise(net: InjectiveNetwork, target: ManifoldTarget,
                  config: TrainingConfig) -> LayerwiseResult:
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

    grid = np.linspace(lo, hi, EVAL_COUNT)[:, None]
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


def _annealed(steps: int, shares, rates, **phase) -> tuple:
    """One PhaseConfig per leg of a `steps`-step schedule annealed over
    `rates`: leg k takes max(1, steps * num // den) steps for the k-th
    (num, den) of `shares`, and the last leg takes the rest, at least 1."""
    legs = [max(1, steps * num // den) for num, den in shares]
    legs.append(max(1, steps - sum(legs)))
    return tuple(PhaseConfig(steps=leg, learning_rate=rate, **phase)
                 for leg, rate in zip(legs, rates, strict=True))


def default_layerwise_config(seed: int = 0, phase1_steps: int = 2400,
                             phase2_steps: int = 600) -> TrainingConfig:
    """Manifold phase on the outer stages (with a density component, since
    the dim-1 inner flow is affine and cannot reshape the latent measure
    beyond an affine map), then the frozen-outer density phase on T0.
    Both phases anneal their learning rates over successive legs."""
    return TrainingConfig(
        phases=(_annealed(phase1_steps, ((1, 2), (1, 3)), (5e-3, 1.2e-3, 3e-4),
                          trainable_stages=(1, 2, 3, 4), loss="manifold",
                          loss_weights={"manifold": 1.0, "density": 0.5})
                + _annealed(phase2_steps, ((2, 3),), (1e-2, 3e-3),
                            trainable_stages=(0,), loss="density")),
        batch_size=320, seed=seed, lipschitz_log_interval=50)


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
                     poll=None) -> TrainingTrace:
    """Train one arm ("treatment" or "control") of the obstruction run;
    `poll` goes to _run_phases.

    The control arm runs it in a forked worker process, which starts as a
    copy of the calling one, so nothing is pickled on the way in; only the
    returned trace, or the error raised, is pickled on the way back.
    """
    target = trefoil_target() if arm == "treatment" else planar_circle_target()
    net = build_obstruction_network(seed=seed)
    # The manifold phase is one plain leg: a one-leg _annealed would floor
    # steps_manifold = 0 up to 1 step instead of refusing it.
    config = TrainingConfig(
        phases=(PhaseConfig(trainable_stages=(0, 1, 2), loss="manifold",
                            steps=steps_manifold, learning_rate=5e-3,
                            loss_weights={"manifold": 1.0, "density": 0.5}),
                *_annealed(steps_density, ((1, 2), (3, 10)), (2e-3, 7e-4, 2.5e-4),
                           trainable_stages=(0, 1, 2), loss="density",
                           loss_weights={"density": 1.0, "manifold": 0.1})),
        batch_size=batch_size, seed=seed,
        lipschitz_log_interval=lipschitz_log_interval)
    arclen = _ArclengthSampler(target)

    def latent_sampler(count, rng):
        theta = as_rng(rng).uniform(0.0, 2.0 * np.pi, size=count)
        return np.column_stack([np.cos(theta), np.sin(theta)])

    def target_sampler(count, rng):
        return target.map_points(arclen.sample(count, rng))

    eval_latent = sample_circle(EVAL_COUNT)
    eval_target = target.map_points(arclen.grid(EVAL_COUNT))
    return _run_phases(net, config, latent_sampler, target_sampler,
                       eval_latent, eval_target, poll).trace


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
                               lipschitz_log_interval: int = 50) -> ObstructionResult:
    """Identical-budget paired runs: trefoil treatment vs planar-circle control.

    Both arms share the architecture, initialization seed, schedule, and
    latent base measure (uniform on the unit circle in R^2); only the target
    differs.  Target batches are uniform in arclength on the curve.  Traces
    record the Lipschitz estimate over a fixed fine latent grid so
    squeeze-induced stretching is visible.

    The arms share no state, so they run at the same time: the control arm
    in one forked worker process, the treatment arm in this one.  Each arm
    computes exactly what it would alone, so the traces are bit-for-bit
    those of running them one after the other.  An error in either arm
    stops the run within one treatment step.
    """
    # Imported here so that `import injflow` stays as light as it was.
    import multiprocessing

    args = (seed, steps_manifold, steps_density, batch_size, lipschitz_log_interval)
    # fork, not spawn: a spawned worker would import numpy and the package
    # again.  The package starts no threads, so the fork is safe.
    ctx = multiprocessing.get_context("fork")
    receive, send = ctx.Pipe(duplex=False)
    worker = ctx.Process(target=_control_arm_into, args=(send, *args))
    worker.start()
    send.close()  # the worker holds the only write end: its death is EOF
    received = []

    def poll():
        # After each treatment step, without waiting: an error the control
        # arm sent, or its worker's death (EOF), stops the treatment arm at
        # once; a trace is kept, and the pipe is not read again.
        if not received and receive.poll():
            received.append(receive.recv())
            if isinstance(received[0], Exception):
                raise received[0]

    try:
        treatment = _obstruction_arm("treatment", *args, poll)
        control = received[0] if received else receive.recv()
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
    tight_lip = min((r.lipschitz_estimate for r in tight), default=float("nan"))
    summary = {
        "control_final_sliced_w2": control_final_w2,
        "control_final_lipschitz": control_final_lip,
        "control_max_lipschitz": float(control.column("lipschitz_estimate").max()),
        "treatment_min_sliced_w2": float(treatment.column("sliced_w2").min()),
        "treatment_steps_below_0.1": len(tight),
        "treatment_min_lipschitz_when_tight": tight_lip,
        "lipschitz_ratio":
            tight_lip / control_final_lip if control_final_lip > 0 else float("nan"),
        # Experiment-design constants, not values from the source material.
        "control_lipschitz_ceiling": 20.0,
        "ratio_threshold": 10.0,
    }
    return ObstructionResult(treatment=treatment, control=control,
                             summary=summary)
