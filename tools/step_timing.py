"""Time training-step pieces of two versions of the package in process,
alternating between them:

    OPENBLAS_NUM_THREADS=1 python tools/step_timing.py \\
        --parent <other checkout>/src --change src

Each `src/` tree runs in its own worker process, started with PYTHONPATH
set to that tree, which imports the package once and stays warm.  Each
round sends one case to both workers, one after the other, the parent
first in odd rounds, and each worker times the case inside its own process
(`time.perf_counter`), so only one tree computes at a time.  The cases:

    chamfer-320, chamfer-256   `chamfer_loss_and_grad` on seeded normal
                               (N, 3) clouds; a sample is the median of
                               CALLS calls
    gradients-toy              `compute_gradients` at the layerwise-toy
                               phase-1 sizes (batch 320, latent 1-D, arc
                               target, manifold + 0.5 density, stages 1-4);
                               the median of CALLS calls
    gradients-obstruction      the same at the obstruction manifold-phase
                               sizes (batch 256, circle latents, trefoil
                               target, every stage)
    toy-run                    one `run_layerwise_toy(seed, 300, 100)`,
                               after one untimed warm-up run in that
                               worker, with its minor page faults
                               (`ru_minflt`)

`--rounds` rounds of the first four cases run, then `--run-rounds` rounds
of `toy-run`.  The tool prints, per case, each tree's median in
microseconds (seconds for toy-run), the change/parent ratio of the medians,
the rounds the change won and the rounds it was at least 20 % faster; for
toy-run also each tree's median minor faults.  It writes no file: the toy
runs return their traces in memory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

CALLS = 25
KERNEL_CASES = ("chamfer-320", "chamfer-256", "gradients-toy", "gradients-obstruction")
SEED = 7


def _median_call_s(fn, calls: int = CALLS) -> float:
    times = []
    for _ in range(calls):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return float(np.median(times))


def _cases():
    """{case: callable returning (seconds, minor faults)}, built once in a
    worker from the package on its path."""
    from injflow import training
    from injflow.geometry import arc_target, trefoil_target
    from injflow.metrics import draw_directions

    rng = np.random.default_rng(SEED)
    clouds = {n: (rng.normal(size=(n, 3)), rng.normal(size=(n, 3))) for n in (320, 256)}
    mix = {"manifold": 1.0, "density": 0.5}
    toy = (training.build_layerwise_toy_network(SEED), rng.uniform(-1.0, 1.0, size=(320, 1)),
           arc_target().map_points(rng.uniform(-1.0, 1.0, size=(320, 1))), (1, 2, 3, 4))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=256)
    obstruction = (training.build_obstruction_network(SEED),
                   np.column_stack([np.cos(theta), np.sin(theta)]),
                   trefoil_target().map_points(rng.uniform(0.0, 2.0 * np.pi, size=(256, 1))),
                   (0, 1, 2))
    directions = draw_directions(3, training.N_PROJECTIONS, SEED)

    def chamfer(n):
        gen, tgt = clouds[n]
        return lambda: (_median_call_s(lambda: training.chamfer_loss_and_grad(gen, tgt)), 0)

    def gradients(net, latents, targets, stages):
        return lambda: (_median_call_s(lambda: training.compute_gradients(
            net, "manifold", latents, targets, trainable=stages, directions=directions,
            loss_weights=mix)), 0)

    warm = []

    def toy_run():
        if not warm:
            training.run_layerwise_toy(SEED, phase1_steps=300, phase2_steps=100)
            warm.append(True)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        start = time.perf_counter()
        training.run_layerwise_toy(SEED, phase1_steps=300, phase2_steps=100)
        seconds = time.perf_counter() - start
        return seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults

    return {"chamfer-320": chamfer(320), "chamfer-256": chamfer(256),
            "gradients-toy": gradients(*toy),
            "gradients-obstruction": gradients(*obstruction), "toy-run": toy_run}


def _worker() -> int:
    """Answer one JSON line [seconds, minor faults] per case name read."""
    cases = _cases()
    for line in sys.stdin:
        print(json.dumps(cases[line.strip()]()), flush=True)
    return 0


class _Tree:
    def __init__(self, src: Path):
        env = {**os.environ, "PYTHONPATH": str(src.resolve())}
        self.proc = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve()), "--worker"], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def time(self, case: str):
        self.proc.stdin.write(case + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with {self.proc.wait()}")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def _report(case: str, samples: dict) -> None:
    parent = np.array([s for s, _ in samples["parent"]])
    change = np.array([s for s, _ in samples["change"]])
    unit, scale, digits = ("s", 1.0, 3) if case == "toy-run" else ("us", 1e6, 1)
    line = (f"{case}: parent {np.median(parent) * scale:.{digits}f} {unit}, change "
            f"{np.median(change) * scale:.{digits}f} {unit}, ratio "
            f"{np.median(change) / np.median(parent):.3f}, change faster in "
            f"{int((change < parent).sum())}/{len(parent)} rounds, at least 20 % "
            f"faster in {int((change <= 0.8 * parent).sum())}")
    if case == "toy-run":
        faults = {side: np.median([f for _, f in samples[side]]) for side in samples}
        line += f"; minor faults parent {faults['parent']:.0f}, change {faults['change']:.0f}"
    print(line, flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--change", type=Path)
    parser.add_argument("--rounds", type=int, default=40)
    parser.add_argument("--run-rounds", type=int, default=10)
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        return _worker()
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    trees = {"parent": _Tree(args.parent), "change": _Tree(args.change)}
    try:
        plan = [(case, args.rounds) for case in KERNEL_CASES] + [("toy-run", args.run_rounds)]
        for case, rounds in plan:
            samples = {"parent": [], "change": []}
            for r in range(rounds):
                for side in (("parent", "change") if r % 2 == 0 else ("change", "parent")):
                    samples[side].append(trees[side].time(case))
            if rounds:
                _report(case, samples)
    finally:
        for tree in trees.values():
            tree.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
