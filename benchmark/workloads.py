"""The three benchmark workloads: their seeded inputs, their CLI jobs and the
checks on every output.

Every input comes from the benchmark seed; the program only sees CLI flags
and the files written here.  A job is a short sequence of `injflow` CLI
calls made in-process through `injflow.cli.main`; each call is one
operation for the failure count.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# Reduced budgets: small enough that a run holds many jobs, large enough
# that every phase of the schedule and several diagnostics records run.
OBSTRUCTION_STEPS = (50, 50)     # --steps-manifold, --steps-density
TOY_STEPS = (300, 100)           # --phase1-steps, --phase2-steps
# Distinct program seeds per run: the fit metric summarises all of them, so a
# run's fit reading does not hinge on one seed.
TRAIN_SEEDS = {"obstruction-train": 8, "toy-train": 8}
# Queries per job, split over calls placed before and after the gap calls.
QUERY_PARTS = 8
PART_QUERIES = 500
QUERY_MIX = (("off_range", 0.5), ("on_range", 0.3), ("relu_tie", 0.2))
GAP_PAIRS = 201
GAP_LATENT = 201
IDEMPOTENCE_TOL = 1e-8

# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = ("obstruction-train", "toy-train", "checkpoint-tools")


# --- inputs ------------------------------------------------------------------


def program_seeds(seed: int, count: int) -> list[int]:
    import numpy as np
    rng = np.random.default_rng([seed, 7411])
    return [int(s) for s in rng.integers(0, 2 ** 31 - 1, size=count)]


def make_inputs(workload: str, seed: int, out_dir: Path) -> dict:
    """Write the workload's input files into out_dir; return their manifest."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload in ("obstruction-train", "toy-train"):
        manifest = {"program_seeds": program_seeds(seed, TRAIN_SEEDS[workload])}
    else:
        manifest = _make_checkpoint_inputs(seed, out_dir)
    manifest["workload"] = workload
    manifest["seed"] = seed
    (out_dir / "inputs.json").write_text(json.dumps(manifest, indent=1) + "\n")
    return manifest


def _projection_network(rng):
    """coupling(2) -> InjectiveRelu(2->4, m = 2n) -> autoregressive(4)
    -> linear(4->5) -> coupling(5), with non-trivial flows."""
    from injflow import InjectiveNetwork
    from injflow.expansive import random_injective_relu, random_linear_expansive
    from injflow.flows import make_autoregressive_block, make_coupling_block
    return InjectiveNetwork([
        make_coupling_block(2, 2, rng=rng, hidden=8, final_scale=0.4),
        random_injective_relu(2, 4, rng),
        make_autoregressive_block(4, 1, rng=rng, hidden=8, final_scale=0.4),
        random_linear_expansive(4, 5, rng),
        make_coupling_block(5, 2, rng=rng, hidden=8, final_scale=0.4),
    ])


def _queries(net, rng, count: int):
    """Query mix: off-range Gaussians, on-range forward images of latent
    samples, and forward images of ReLU-tied intermediate points
    (z_i = z_{i+n} after stage R1), which take the tie path on the way back."""
    import numpy as np
    counts = [int(round(share * count)) for _, share in QUERY_MIX]
    counts[0] = count - sum(counts[1:])
    off = rng.normal(0.0, 2.0, size=(counts[0], net.ambient_dim))
    on = net.forward(rng.normal(0.0, 1.0, size=(counts[1], net.latent_dim)))
    t0, r1, t1, r2, t2 = net.stages
    z = r1(t0.forward(rng.normal(0.0, 1.0, size=(counts[2], net.latent_dim))))
    n = r1.in_dim
    rows = np.arange(counts[2])
    col = rng.integers(0, n, size=counts[2])
    z[rows, col] = z[rows, col + n] = np.abs(rng.normal(size=counts[2])) + 0.1
    tied = t2.forward(r2(t1.forward(z)))
    queries = np.vstack([off, on, tied])
    return queries[rng.permutation(count)], dict(zip((k for k, _ in QUERY_MIX), counts))


def _gap_inputs(net, rng):
    """Arc-target pairs and latent samples for a layerwise-toy checkpoint.

    The untrained toy network embeds its 1-D latent as a line; the arc is
    centred and rotated so its chord lies along that line, with a seeded
    roll about it, so every seed poses the same geometric problem at
    different sample positions.
    """
    import numpy as np
    from injflow.geometry import arc_target
    grid = np.linspace(-1.0, 1.0, GAP_PAIRS)
    jitter = rng.uniform(-0.25, 0.25, size=GAP_PAIRS) * (grid[1] - grid[0])
    jitter[[0, -1]] = 0.0
    t = np.sort(grid + jitter)[:, None]
    arc = arc_target().map_points(t)
    arc -= arc.mean(axis=0)
    chord = arc[-1] - arc[0]
    chord /= np.linalg.norm(chord)
    line = net.forward(np.array([[1.0]]))[0] - net.forward(np.array([[0.0]]))[0]
    line /= np.linalg.norm(line)
    rot = _rotation_onto(chord, line)
    roll = _axis_rotation(line, rng.uniform(0.0, 2.0 * np.pi))
    pairs = np.hstack([t, arc @ (roll @ rot).T])
    latent = np.sort(rng.uniform(-0.55, 0.55, size=GAP_LATENT))[:, None]
    return pairs, latent


def _rotation_onto(a, b):
    import numpy as np
    v = np.cross(a, b)
    c = float(a @ b)
    vx = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
    return np.eye(3) + vx + vx @ vx / (1.0 + c)


def _axis_rotation(axis, angle):
    import numpy as np
    k = np.array([[0.0, -axis[2], axis[1]], [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    return np.eye(3) + math.sin(angle) * k + (1.0 - math.cos(angle)) * k @ k


def _make_checkpoint_inputs(seed: int, out_dir: Path) -> dict:
    import numpy as np
    from injflow.geometry import save_points_csv
    from injflow.training import build_layerwise_toy_network
    rng = np.random.default_rng([seed, 9133])
    proj_net = _projection_network(rng)
    proj_net.save_checkpoint(out_dir / "proj_net.json")
    queries, mix = _queries(proj_net, rng, QUERY_PARTS * PART_QUERIES)
    for part in range(QUERY_PARTS):
        save_points_csv(out_dir / f"queries-{part}.csv",
                        queries[part * PART_QUERIES:(part + 1) * PART_QUERIES])
    gap_net = build_layerwise_toy_network(seed=int(rng.integers(0, 2 ** 31 - 1)))
    gap_net.save_checkpoint(out_dir / "gap_net.json")
    pairs, latent = _gap_inputs(gap_net, rng)
    with open(out_dir / "pairs.csv", "w", encoding="utf-8") as fh:
        fh.write("t,y0,y1,y2\n")
        for row in pairs:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
    save_points_csv(out_dir / "latent.csv", latent)
    return {"queries": QUERY_PARTS * PART_QUERIES, "query_mix": mix,
            "gap_pairs": GAP_PAIRS, "gap_latent": GAP_LATENT}


# --- output parsing and checks ------------------------------------------------


def read_csv(path: Path):
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[float(v) for v in row] for row in rows[1:]]


def _all_finite(rows) -> bool:
    return all(math.isfinite(v) for row in rows for v in row)


def artefact_digest(out_dir: Path) -> str:
    """Hash of every file under out_dir; summary.json without wall_time."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.name == "summary.json":
            doc = json.loads(data)
            doc.pop("wall_time", None)
            data = json.dumps(doc, sort_keys=True).encode()
        h.update(str(path.relative_to(out_dir)).encode() + b"\0" + data)
    return h.hexdigest()


def check_training(out_dir: Path, trace_files, preset: str, seed: int) -> dict:
    """Checks and values for one training run; never raises on bad output."""
    checks, values = {}, {}
    try:
        finals = []
        records = 0
        finite = True
        for name in trace_files:
            header, rows = read_csv(out_dir / name)
            finite &= _all_finite(rows) and len(rows) > 0
            records += len(rows)
            finals.append(rows[-1][header.index("sliced_w2")])
        checks["trace_finite"] = finite
        values["fit_sliced_w2"] = max(finals)
        values["records"] = records
        summary = json.loads((out_dir / "summary.json").read_text())
        checks["summary_matches"] = (summary.get("preset") == preset
                                     and summary.get("seed") == seed)
        metrics = summary.get("metrics", {})
        if "warning" in metrics:
            values["warning"] = metrics["warning"]
        if "frozen_intact" in metrics:
            checks["frozen_intact"] = metrics["frozen_intact"] is True
    except (OSError, ValueError, KeyError, IndexError) as err:
        checks["outputs_readable"] = False
        values["error"] = repr(err)
    return {"checks": checks, "values": values}


def check_projection(out_dir: Path, queries) -> dict:
    checks, values = {}, {}
    try:
        header, rows = read_csv(out_dir / "projections.csv")
        m = len(queries[0])
        checks["rows"] = len(rows) == len(queries)
        checks["finite"] = _all_finite(rows)
        checks["queries_echoed"] = all(row[:m] == q for row, q in zip(rows, queries))
        res = header.index("residual")
        checks["residual_nonnegative"] = all(row[res] >= 0.0 for row in rows)
        tie = header.index("tie_flag")
        values["tie_fraction"] = sum(row[tie] for row in rows) / max(1, len(rows))
        first = header.index("rangepoint0")
        values["rangepoints"] = [row[first:first + m] for row in rows]
    except (OSError, ValueError, IndexError) as err:
        checks["outputs_readable"] = False
        values["error"] = repr(err)
    return {"checks": checks, "values": values}


def check_idempotence(out_dir: Path, rangepoints) -> dict:
    checks, values = {}, {}
    try:
        header, rows = read_csv(out_dir / "projections.csv")
        m = len(rangepoints[0])
        first = header.index("rangepoint0")
        drift = max(math.dist(row[first:first + m], y)
                    for row, y in zip(rows, rangepoints))
        values["idempotence_drift"] = drift
        checks["rows"] = len(rows) == len(rangepoints)
        checks["idempotent"] = drift <= IDEMPOTENCE_TOL
    except (OSError, ValueError, IndexError) as err:
        checks["outputs_readable"] = False
        values["error"] = repr(err)
    return {"checks": checks, "values": values}


def check_gap(out_dir: Path) -> dict:
    checks, values = {}, {}
    try:
        doc = json.loads((out_dir / "gap.json").read_text())
        lower, upper = doc["lower"], doc["upper"]
        bound = doc["bound_check"]
        numbers = [lower, upper, bound["w2"], bound["upper"]]
        numbers += [v for k, v in doc.items() if k.startswith("w2_")]
        checks["finite"] = all(math.isfinite(v) for v in numbers)
        checks["lower_le_upper"] = lower <= upper
        checks["bound_check_passed"] = bound["passed"] is True
        values["lower"], values["upper"] = lower, upper
    except (OSError, ValueError, KeyError, TypeError) as err:
        checks["outputs_readable"] = False
        values["error"] = repr(err)
    return {"checks": checks, "values": values}
