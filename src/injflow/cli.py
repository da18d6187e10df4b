"""Experiment runner: reproducible presets plus projection and gap tools.

Exit codes: 0 success, 1 numeric failure, 2 usage error.  Every preset
emits plot-ready CSV (or JSON with --format json) plus a summary.json; all
outputs are byte-identical for a fixed seed, except the summary's wall_time
field.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from pathlib import Path

import numpy as np

# Only what every command needs: each command imports the other modules it
# runs when it runs, so a process that only projects never loads training
# or metrics.
from ._util import as_rng, write_csv, write_json
from .errors import (
    InjectiveFlowError,
    InvalidArgumentError,
    InvalidConfigError,
    NumericError,
    UnsupportedLayerError,
)
from .expansive import random_well_conditioned
from .network import InjectiveNetwork

# The parameters each preset accepts, from a flag or the config: the least
# value of each integer, or `str` for a path.  Any other key is a usage
# error.  A parameter left out takes its default from the preset below or,
# for the two training presets, from the `training` function it calls.
PRESET_PARAMS = {
    "gap-visualization": {"seed": 0, "count": 1},
    "layerwise-toy": {"seed": 0, "phase1_steps": 1, "phase2_steps": 1,
                      "checkpoint": str},
    "trefoil-obstruction": {"seed": 0, "steps_manifold": 1, "steps_density": 1,
                            "batch_size": 1, "lipschitz_log_interval": 1},
    "projection-bench": {"seed": 0, "trials": 1, "n": 1},
}


def _write_table(out_dir: Path, name: str, columns, rows, fmt: str) -> Path:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    if fmt == "csv":
        path = out_dir / f"{name}.csv"
        write_csv(path, columns, rows)
    elif fmt == "json":
        path = out_dir / f"{name}.json"
        write_json(path, {"columns": list(columns), "rows": rows.tolist()})
    else:
        raise InvalidArgumentError(f"unknown format {fmt!r}")
    return path


def _write_points(out_dir: Path, name: str, points, fmt: str) -> Path:
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    columns = [f"x{i}" for i in range(pts.shape[1])]
    return _write_table(out_dir, name, columns, pts, fmt)


def _write_summary(out_dir: Path, preset: str, seed: int, wall_time: float,
                   metrics_dict: dict) -> Path:
    path = out_dir / "summary.json"
    write_json(path, {"preset": preset, "seed": seed, "wall_time": wall_time,
                      "metrics": metrics_dict})
    return path


# --- presets -----------------------------------------------------------------


def _preset_gap_visualization(params: dict, out_dir: Path, fmt: str, seed: int) -> dict:
    from . import metrics
    count = params.get("count", 201)
    kx = np.linspace(-1.0, 1.0, count)[:, None]
    amp = 0.8

    def f_map(x):
        return np.column_stack([x[:, 0], amp * np.sin(np.pi * x[:, 0])])

    fx = f_map(kx)
    _write_points(out_dir, "f_samples", fx, fmt)
    w = np.linspace(-1.0, 1.0, count)[:, None]
    alphas = (0.0, 0.5, 1.0)
    rows = []
    lowers, uppers = [], []
    for i, alpha in enumerate(alphas, start=1):
        def g_map(ws, _a=alpha):
            return np.column_stack([ws[:, 0], _a * amp * np.sin(np.pi * ws[:, 0])])

        _write_points(out_dir, f"g{i}_samples", g_map(w), fmt)
        gap = metrics.estimate_embedding_gap(kx, fx, g_map, w, family="affine")
        check = metrics.wasserstein_bound_check(kx, fx, g_map, w, gap,
                                                tolerance=0.01)
        rows.append([i, gap.lower, gap.upper, check.w2, float(check.passed)])
        lowers.append(gap.lower)
        uppers.append(gap.upper)
    _write_table(out_dir, "gap_intervals",
                 ["step", "lower", "upper", "w2", "bound_ok"], rows, fmt)
    return {
        "lowers": lowers,
        "uppers": uppers,
        "monotone_decreasing": bool(
            all(lowers[i] >= lowers[i + 1] - 1e-12 for i in range(2))
            and all(uppers[i] >= uppers[i + 1] - 1e-12 for i in range(2))),
        "final_lower": lowers[-1],
        "final_upper": uppers[-1],
        "bound_checks_passed": bool(all(r[4] == 1.0 for r in rows)),
    }


def _preset_layerwise_toy(params: dict, out_dir: Path, fmt: str, seed: int) -> dict:
    from . import training
    steps = {k: v for k, v in params.items() if k.endswith("_steps")}
    net, result = training.run_layerwise_toy(seed=seed, **steps)
    result.trace.to_csv(out_dir / "trace.csv")
    target = training.arc_target()
    t_grid = np.linspace(-1.0, 1.0, 512)[:, None]
    _write_points(out_dir, "target_samples", target.map_points(t_grid), fmt)
    _write_points(out_dir, "generated_samples", net.forward(t_grid), fmt)
    if "checkpoint" in params:
        net.save_checkpoint(Path(params["checkpoint"]))
    final = result.trace.final
    return {
        "phase1_directed_supinf": result.record_at_phase_end("manifold").directed_supinf,
        "final_directed_supinf": final.directed_supinf,
        "final_sliced_w2": final.sliced_w2,
        "frozen_intact": bool(result.frozen_intact),
    }


def _preset_trefoil_obstruction(params: dict, out_dir: Path, fmt: str,
                                seed: int) -> dict:
    from . import training
    result = training.run_obstruction_experiment(**{**params, "seed": seed})
    result.treatment.to_csv(out_dir / "treatment_trace.csv")
    result.control.to_csv(out_dir / "control_trace.csv")
    return result.summary


def _preset_projection_bench(params: dict, out_dir: Path, fmt: str,
                             seed: int) -> dict:
    from . import projection
    trials = params.get("trials", 500)
    dims = [params["n"]] * 4 if "n" in params else [1, 2, 3, 5]
    rng = as_rng(seed)
    rows = []
    oracle_gap_max = -np.inf
    preimage_gap_max = 0.0
    for k in range(trials):
        n = dims[k % len(dims)]
        b = random_well_conditioned(n, rng)
        d = rng.uniform(0.5, 2.0, size=n)
        y = rng.normal(0.0, 1.5, size=2 * n)
        # Enforce a no-tie margin so instances are unambiguous.
        for i in range(n):
            while abs(y[i] - y[i + n]) < 1e-3:
                y[i + n] = rng.normal(0.0, 1.5)
        res = projection.relu_pseudo_inverse(b, d, y)
        oracle_min, minimizers = projection.brute_force_relu_projection(b, d, y)
        gap = res.residual - oracle_min
        pre_gap = min(np.linalg.norm(res.x - m) for m in minimizers)
        oracle_gap_max = max(oracle_gap_max, gap)
        preimage_gap_max = max(preimage_gap_max, pre_gap)
        rows.append([n, res.residual, oracle_min, gap, pre_gap,
                     float(len(minimizers))])
    _write_table(out_dir, "bench",
                 ["n", "residual", "oracle_min", "gap", "preimage_gap",
                  "n_minimizers"], rows, fmt)
    return {
        "trials": trials,
        "oracle_gap_max": float(oracle_gap_max),
        "preimage_gap_max": float(preimage_gap_max),
    }


_PRESET_RUNNERS = {
    "gap-visualization": _preset_gap_visualization,
    "layerwise-toy": _preset_layerwise_toy,
    "trefoil-obstruction": _preset_trefoil_obstruction,
    "projection-bench": _preset_projection_bench,
}


# --- subcommands ---------------------------------------------------------------


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except json.JSONDecodeError as err:
        raise _UsageError(f"malformed config: {err.msg}",
                          extra={"line": err.lineno, "column": err.colno}) from err
    except OSError as err:
        raise _UsageError(f"cannot read config: {err}") from err
    except RecursionError as err:
        raise _UsageError(f"config {path} is nested too deeply") from err
    if not isinstance(cfg, dict):
        raise _UsageError("config must be a JSON object")
    return cfg


class _UsageError(Exception):
    def __init__(self, message: str, extra: dict | None = None):
        super().__init__(message)
        self.extra = extra or {}


def _bad_parameter(key: str, rule: str, value) -> _UsageError:
    return _UsageError(f"{key} must be {rule}, got {value!r}",
                       extra={"parameter": key})


def _make_dirs(*dirs: Path) -> None:
    """Create the output directories; called before any work is done."""
    for path in dirs:
        path.mkdir(parents=True, exist_ok=True)


def _cmd_run(args) -> int:
    table = PRESET_PARAMS[args.preset]
    params = _load_config(args.config) if args.config else {}
    # Explicit flags override config-file values.
    for key in sorted(set().union(*PRESET_PARAMS.values())):
        if getattr(args, key, None) is not None:
            params[key] = getattr(args, key)
    for key, value in params.items():
        least = table.get(key)
        if least is None:
            raise _UsageError(f"preset {args.preset!r} takes no parameter {key!r}",
                              extra={"parameter": key})
        if least is str:
            if not (isinstance(value, str) and value) or Path(value).is_dir():
                raise _bad_parameter(key, "a file path", value)
        elif type(value) is not int or value < least:  # not bools, not 2.0
            raise _bad_parameter(key, f"an integer >= {least}", value)
    seed = params.pop("seed", 0)
    out_dir = Path(args.out)
    _make_dirs(out_dir, *([Path(params["checkpoint"]).parent]
                          if "checkpoint" in params else []))
    start = time.perf_counter()
    summary = _PRESET_RUNNERS[args.preset](params, out_dir, args.format, seed)
    wall = time.perf_counter() - start
    # JSON has no NaN or inf: such a metric is written as null, and flagged.
    non_finite = [k for k, v in summary.items()
                  if isinstance(v, float) and not np.isfinite(v)]
    if non_finite:
        summary = {**summary, **dict.fromkeys(non_finite),
                   "warning": "non-finite metric present"}
    _write_summary(out_dir, args.preset, seed, wall, summary)
    return 0


def _read_points(path, columns: int, what: str) -> np.ndarray:
    """The rows of a points CSV whose width the checkpoint fixes; a file of
    another width is a usage error naming it."""
    from .geometry import load_points_csv
    points = load_points_csv(path)
    if points.shape[1] != columns:
        raise InvalidArgumentError(
            f"{what} CSV {path} has {points.shape[1]} columns, expected {columns}")
    return points


def _cmd_project(args) -> int:
    from . import projection
    out_dir = Path(args.out)
    _make_dirs(out_dir)
    net = InjectiveNetwork.load_checkpoint(args.checkpoint)
    queries = _read_points(args.queries, net.ambient_dim, "queries")
    res = projection.project_to_range(net, queries)
    m, n = net.ambient_dim, net.latent_dim
    columns = ([f"query{i}" for i in range(m)]
               + [f"preimage{i}" for i in range(n)]
               + [f"rangepoint{i}" for i in range(m)]
               + ["residual", "tie_flag"])
    rows = np.column_stack([queries, res.x, res.y_hat, res.residual, res.tie_flag])
    _write_table(out_dir, "projections", columns, rows, args.format)
    return 0


def _cmd_gap(args) -> int:
    from . import metrics
    from .geometry import load_points_csv
    if not (np.isfinite(args.tolerance) and args.tolerance >= 0):
        raise _bad_parameter("tolerance", "a finite number >= 0", args.tolerance)
    if args.seed < 0:
        raise _bad_parameter("seed", "an integer >= 0", args.seed)
    out_dir = Path(args.out)
    _make_dirs(out_dir)
    pairs = load_points_csv(args.pairs)
    net = InjectiveNetwork.load_checkpoint(args.checkpoint)
    latent = _read_points(args.latent, net.latent_dim, "latent")
    m = net.ambient_dim
    if pairs.shape[1] <= m:
        raise InvalidArgumentError(
            f"pairs CSV {args.pairs} must hold parameter columns followed by "
            f"{m} target coordinates, got {pairs.shape[1]} columns")
    n = pairs.shape[1] - m
    x, fx = pairs[:, :n], pairs[:, n:]
    gap = metrics.estimate_embedding_gap(x, fx, net.forward, latent, family=args.family,
                                         seed=args.seed)
    check = metrics.wasserstein_bound_check(x, fx, net.forward, latent, gap,
                                            tolerance=args.tolerance, seed=args.seed)
    w2, method = metrics.wasserstein2(fx, net.forward(latent), seed=args.seed)
    payload = {
        "lower": gap.lower,
        "upper": gap.upper,
        f"w2_{method}": w2,
        "bound_check": {"w2": check.w2, "upper": check.upper,
                        "tolerance": check.tolerance,
                        "passed": check.passed, "method": check.method},
    }
    write_json(out_dir / "gap.json", payload)
    return 0


class _Parser(argparse.ArgumentParser):
    """Turns argparse's usage failures into a `_UsageError`, so they print
    the same JSON record as every other usage error; subparsers inherit it."""

    def error(self, message):
        raise _UsageError(message)


# Built once per process: a caller running many commands in one process
# would otherwise pay the parser's construction on each.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="injflow",
        description="Injective flow experiments: presets, range projection, "
                    "embedding-gap diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment preset")
    run.add_argument("preset", choices=PRESET_PARAMS,
                     help="accepted parameters: " + "; ".join(
                         f"{p}: {', '.join(t)}" for p, t in PRESET_PARAMS.items()))
    run.add_argument("--seed", type=int, default=None)
    run.add_argument("--out", default="./out")
    run.add_argument("--config", default=None, help="JSON config file")
    run.add_argument("--checkpoint", default=None,
                     help="write the trained network checkpoint here")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--trials", type=int, default=None)
    run.add_argument("--n", type=int, default=None)
    run.add_argument("--phase1-steps", dest="phase1_steps", type=int, default=None)
    run.add_argument("--phase2-steps", dest="phase2_steps", type=int, default=None)
    run.add_argument("--steps-manifold", dest="steps_manifold", type=int, default=None)
    run.add_argument("--steps-density", dest="steps_density", type=int, default=None)

    proj = sub.add_parser("project", help="project query points onto a "
                                          "checkpointed network's range")
    proj.add_argument("--checkpoint", required=True)
    proj.add_argument("--queries", required=True, help="CSV of query points")
    proj.add_argument("--out", default="./out")
    proj.add_argument("--format", choices=("csv", "json"), default="csv")

    gap = sub.add_parser("gap", help="embedding-gap interval between target "
                                     "pairs and a checkpointed network")
    gap.add_argument("--pairs", required=True,
                     help="CSV: parameter columns then target coordinates")
    gap.add_argument("--latent", required=True, help="CSV of latent samples")
    gap.add_argument("--checkpoint", required=True)
    gap.add_argument("--out", default="./out")
    gap.add_argument("--family", choices=("affine", "small-flow"), default="affine")
    gap.add_argument("--tolerance", type=float, default=0.01)
    gap.add_argument("--seed", type=int, default=0)
    return parser


def _error_record(kind: str, message: str, extra: dict | None = None) -> None:
    record = {"error": {"type": kind, "message": message}}
    if extra:
        record["error"].update(extra)
    print(json.dumps(record), file=sys.stderr)


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        commands = {"run": _cmd_run, "project": _cmd_project, "gap": _cmd_gap}
        return commands[args.command](args)
    except _UsageError as err:
        _error_record("usage", str(err), err.extra)
        return 2
    except (InvalidArgumentError, InvalidConfigError, UnsupportedLayerError) as err:
        _error_record("usage", str(err))
        return 2
    except OSError as err:  # reading inputs is an InvalidArgumentError
        _error_record("usage", f"cannot write output: {err}")
        return 2
    except NumericError as err:
        _error_record("numeric", str(err),
                      {k: v for k, v in (("stage", err.stage_index), ("row", err.row))
                       if v is not None})
        return 1
    except InjectiveFlowError as err:
        _error_record("numeric", str(err))
        return 1


if __name__ == "__main__":
    sys.exit(main())
