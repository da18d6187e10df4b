"""Print one sha256 per output of a fixed set of seeded `injflow` calls,
so two versions of the package can be checked for byte-identical outputs:

    diff <(PYTHONPATH=<other checkout>/src python tools/output_digest.py) \
         <(PYTHONPATH=src python tools/output_digest.py)

The calls go through the CLI only and write into a temporary directory:
`injflow run` on every digested preset (one `trefoil-obstruction` run takes
all its parameters, the config-only `batch_size` and
`lipschitz_log_interval` too, from a `--config` file, one run of each
training preset sits at `FLOOR_BUDGETS`, and `gap-visualization` runs once
more with `--format json`), then `injflow
project` on a seeded query stack, `injflow gap --family affine` at each of
`GAP_SIZES`, `injflow gap --family small-flow` at `SMALL_FLOW_SIZE`, and
both families once more on latents spread over `COVER_SPAN`, against each
layerwise-toy checkpoint, and `injflow project` against one
seeded network with a dimension-4 autoregressive block (no preset builds
one), so the flow inverses are covered too.  Every `injflow project` call
runs twice, with `--format csv` and `--format json`, so the JSON table
writer is covered as well.  A CSV table gets one digest per column,
labelled `label/file:column`, so the `diff` names exactly the columns a
change touched; any other file gets one digest, and `summary.json` is
hashed without its `wall_time` field, the one output that depends on the
clock.  A call that exits non-zero or writes anything to stderr (a numpy
warning, say, from this process or a forked worker) stops the tool with a
non-zero exit that names its label.

Then come the refused calls of `_refusals`: `injflow project` on
checkpoints that break one rule each, and on a ReLU stage with M rows,
which has no pseudo-inverse.  Each must exit 1 or 2 with one JSON line on
stderr; the tool prints one digest per call, `refusals/<label>`, over the
exit code and that record with the temporary directory's path replaced,
so the `diff` shows a change in how bad inputs are refused too.  Takes
about half a minute.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from injflow.cli import main
from injflow.expansive import (InjectiveRelu, LinearExpansive, ZeroPad,
                               random_injective_relu, random_linear_expansive)
from injflow.flows import identity_block, make_autoregressive_block, make_coupling_block
from injflow.geometry import arc_target, save_points_csv
from injflow.network import CHECKPOINT_FORMAT, InjectiveNetwork

SEEDS = (1, 2, 3)
QUERIES = 200
# (pairs, latents) per `injflow gap` call.  101 + 101 points keep W2 on the
# exact solver's assignment case; 300 + 300 take sliced W2's sort kernel, and
# 300 + 250 its per-direction `w2_1d_squared` loop (the bound check's
# pushforwards stay 300 + 300).  101 + 80 and 256 + 255 take the exact
# solver on unequal counts, the latter its slowest near-square shape within
# the exact budget, and 1 + 101 the single-pair constant candidate.
GAP_SIZES = ((101, 101), (300, 300), (300, 250), (101, 80), (256, 255), (1, 101))
# A config-driven obstruction run: the config-only keys set away from their
# defaults.
OBSTRUCTION_CONFIG = {"steps_manifold": 20, "steps_density": 20, "batch_size": 64,
                      "lipschitz_log_interval": 10}
# Step budgets at which the `max(1, ...)` floors of the annealed learning-rate
# legs fire: every leg of both training schedules takes one step.
FLOOR_BUDGETS = (
    ("layerwise-toy-floor", ["layerwise-toy", "--phase1-steps", "1", "--phase2-steps", "1"]),
    ("trefoil-obstruction-floor",
     ["trefoil-obstruction", "--steps-manifold", "1", "--steps-density", "3"]),
)
# (pairs, latents) of the small-flow candidate fit, which is trained, so
# one exact-W2 size covers it.
SMALL_FLOW_SIZE = (101, 101)
# Half-width of the latent samples.  The pair parameters span [-1, 1], so
# only latents over COVER_SPAN put the identity-pad candidate inside the
# fit's domain box; LATENT_SPAN keeps it out.
LATENT_SPAN = 0.55
COVER_SPAN = 1.05


def _runs(tmp: Path):
    """(label, argv after `run`, writes a checkpoint) for every digested run."""
    for seed in SEEDS:
        yield (f"trefoil-obstruction-seed{seed}",
               ["trefoil-obstruction", "--seed", str(seed),
                "--steps-manifold", "50", "--steps-density", "50"], False)
        yield (f"layerwise-toy-seed{seed}",
               ["layerwise-toy", "--seed", str(seed),
                "--phase1-steps", "300", "--phase2-steps", "100"], True)
    for label, argv in FLOOR_BUDGETS:
        yield label, argv, False
    yield "gap-visualization", ["gap-visualization"], False
    yield "gap-visualization-json", ["gap-visualization", "--format", "json"], False
    yield ("projection-bench-n2",
           ["projection-bench", "--n", "2", "--trials", "40"], False)
    config = tmp / "obstruction-config.json"
    config.write_text(json.dumps(OBSTRUCTION_CONFIG))
    yield ("trefoil-obstruction-config",
           ["trefoil-obstruction", "--config", str(config)], False)


def _project_argv(checkpoint: Path, inputs: Path, ambient_dim: int, seed: int):
    queries = inputs / "queries.csv"
    save_points_csv(queries, np.random.default_rng(seed).normal(size=(QUERIES, ambient_dim)))
    return ["project", "--checkpoint", str(checkpoint), "--queries", str(queries)]


def _gap_argv(checkpoint: Path, inputs: Path, seed: int, n_pairs: int, n_latent: int,
              family: str = "affine", span: float = LATENT_SPAN):
    """Helical-arc pairs and 1-D latent samples on [-span, span] for a
    layerwise-toy checkpoint."""
    t = np.linspace(-1.0, 1.0, n_pairs)[:, None]
    pairs = inputs / f"pairs-{n_pairs}.csv"
    latent = inputs / f"latent-{n_pairs}-{n_latent}-{span}.csv"
    save_points_csv(pairs, np.hstack([t, arc_target().map_points(t)]))
    save_points_csv(latent, np.sort(np.random.default_rng(seed).uniform(
        -span, span, size=(n_latent, 1)), axis=0))
    return ["gap", "--family", family, "--checkpoint", str(checkpoint),
            "--pairs", str(pairs), "--latent", str(latent), "--seed", str(seed)]


def _mixed_checkpoint(path: Path, seed: int) -> None:
    rng = np.random.default_rng(seed)
    InjectiveNetwork([
        make_coupling_block(2, 2, rng=rng, hidden=8, final_scale=0.4),
        random_injective_relu(2, 4, rng),
        make_autoregressive_block(4, 2, rng=rng, hidden=8, final_scale=0.4),
        random_linear_expansive(4, 5, rng),
        make_coupling_block(5, 2, rng=rng, hidden=8, final_scale=0.4),
    ]).save_checkpoint(path)


def _calls(tmp: Path):
    """(label, full argv) for every digested CLI call, in order; the inputs
    of each call exist by the time the generator yields it."""
    for label, argv, checkpoint in _runs(tmp):
        ckpt = tmp / label / "checkpoint.json"
        yield label, ["run", *argv, *(["--checkpoint", str(ckpt)] if checkpoint else [])]
        if checkpoint:
            seed = int(argv[argv.index("--seed") + 1])
            inputs = tmp / f"{label}-inputs"
            inputs.mkdir()
            project = _project_argv(ckpt, inputs, 3, seed)
            yield f"{label}-project", project
            yield f"{label}-project-json", [*project, "--format", "json"]
            for n_pairs, n_latent in GAP_SIZES:
                yield (f"{label}-gap{n_pairs}x{n_latent}",
                       _gap_argv(ckpt, inputs, seed, n_pairs, n_latent))
            n_pairs, n_latent = SMALL_FLOW_SIZE
            yield (f"{label}-gap-small-flow{n_pairs}x{n_latent}",
                   _gap_argv(ckpt, inputs, seed, n_pairs, n_latent, "small-flow"))
            for family in ("affine", "small-flow"):
                yield (f"{label}-gap-{family}-cover{n_pairs}x{n_latent}",
                       _gap_argv(ckpt, inputs, seed, n_pairs, n_latent, family,
                                 COVER_SPAN))
    inputs = tmp / "mixed-inputs"
    inputs.mkdir()
    _mixed_checkpoint(inputs / "net.json", SEEDS[0])
    project = _project_argv(inputs / "net.json", inputs, 5, SEEDS[0])
    yield "mixed-project", project
    yield "mixed-project-json", [*project, "--format", "json"]


def _refusals(tmp: Path):
    """(label, full argv) for every refused call: `injflow project`, with
    3-D queries, on checkpoints that break one rule each and on a ReLU stage
    with M rows, which has no pseudo-inverse.  The checkpoints are edited
    from valid stages' configs, so that every version of the package
    writes them."""
    one, two, three = (identity_block(dim).to_config() for dim in (1, 2, 3))
    linear = LinearExpansive([[1.0], [0.0]]).to_config()
    relu = InjectiveRelu([[1.0]], [1.0]).to_config()
    coupling = make_coupling_block(2, 1, rng=SEEDS[0], hidden=4).to_config()
    coupling["layers"][0]["s_net"]["weights"][0][0][0] = float("nan")
    refused = {
        "linear-first": [linear, two, ZeroPad(2, 3).to_config()],
        "flow-then-linear": [one, linear],
        "zero-linear-weight": [one, {**linear, "weight": [[0.0], [0.0]]}, two],
        "relu-zero-d": [one, {**relu, "d": [0.0]}, two],
        "nan-coupling-weight": [coupling, ZeroPad(2, 3).to_config(), three],
        "project-relu-m-rows": [one, InjectiveRelu([[1.0]], [1.0], [[0.5]]).to_config(),
                                three],
    }
    inputs = tmp / "refusals"
    inputs.mkdir()
    queries = inputs / "queries.csv"
    save_points_csv(queries, np.zeros((2, 3)))
    for label, stages in refused.items():
        ckpt = inputs / f"{label}.json"
        ckpt.write_text(json.dumps({"format": CHECKPOINT_FORMAT, "stages": stages}))
        yield label, ["project", "--checkpoint", str(ckpt), "--queries", str(queries)]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digests(path: Path):
    """(name, sha256) per column of a CSV table, else one for the file."""
    if path.suffix == ".csv":
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        cells = [row.split(",") for row in rows]
        for j, column in enumerate(header.split(",")):
            yield f"{path.name}:{column}", _sha256("\n".join(r[j] for r in cells).encode())
        return
    data = path.read_bytes()
    if path.name == "summary.json":
        payload = json.loads(data)
        payload.pop("wall_time", None)
        data = json.dumps(payload, sort_keys=True).encode()
    yield path.name, _sha256(data)


def _call(argv) -> tuple[int, str]:
    """main(argv)'s exit code and all it wrote to stderr, read at the file
    descriptor, so that a forked worker's writes count too."""
    sys.stderr.flush()
    saved = os.dup(2)
    with tempfile.TemporaryFile() as sink:
        os.dup2(sink.fileno(), 2)
        try:
            code = main(argv)
        finally:
            sys.stderr.flush()
            os.dup2(saved, 2)
            os.close(saved)
        sink.seek(0)
        return code, sink.read().decode(errors="replace")


def main_digest() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for label, argv in _calls(Path(tmp)):
            out = Path(tmp) / label
            code, err = _call([*argv, "--out", str(out)])
            if code != 0 or err:
                print(f"{label}: injflow exited {code}, stderr: {err!r}", file=sys.stderr)
                return code or 1
            for path in sorted(out.iterdir()):
                for name, digest in _digests(path):
                    print(f"{digest}  {label}/{name}")
        for label, argv in _refusals(Path(tmp)):
            code, err = _call([*argv, "--out", str(Path(tmp) / "refusals" / label)])
            try:
                one_record = err.count("\n") == 1 and json.loads(err)
            except ValueError:
                one_record = False
            if code not in (1, 2) or not one_record:
                print(f"refusals/{label}: injflow exited {code}, stderr: {err!r}",
                      file=sys.stderr)
                return 1
            record = f"{code} {err.replace(tmp, '<tmp>')}"
            print(f"{_sha256(record.encode())}  refusals/{label}")
    return 0


if __name__ == "__main__":
    sys.exit(main_digest())
