"""Criterion 7 across seeds: run the trefoil-vs-circle obstruction experiment
on each seed and print one JSON line per seed with the verdict and its
margins:

    PYTHONPATH=src python tools/obstruction_seeds.py
    PYTHONPATH=src python tools/obstruction_seeds.py --seeds 0 3 \\
        --steps-manifold 20 --steps-density 20

The default is seeds 0-7 at the full budget of `run_obstruction_experiment`
(2,500 + 3,500 steps), about a minute of wall time per seed on 2 cores.
The verdict applies the conditions of `tests/test_acceptance.py`'s
criterion 7, which runs seed 0 only: the control arm ends with sliced W2
<= 0.05 and a Lipschitz estimate <= 20; the treatment has at least one
tight record (sliced W2 < 0.1), and each tight record's Lipschitz estimate
is at least 10 times the control's final one; every record's loss, sliced
W2 and Lipschitz estimate is finite.  The line's fields:

    seed, passed
    control_final_sliced_w2, control_final_lipschitz
    treatment_min_sliced_w2, treatment_tight_records
    lipschitz_ratio      least tight Lipschitz estimate over the control's
                         final one (null without a tight record)
    wall_s               wall seconds of the seed's run
"""

from __future__ import annotations

import argparse
import json
import math
import time

import numpy as np

from injflow.training import run_obstruction_experiment

CONTROL_MAX_W2 = 0.05
CONTROL_MAX_LIPSCHITZ = 20.0
TIGHT_W2 = 0.1
RATIO_THRESHOLD = 10.0


def seed_line(seed: int, **budget) -> dict:
    """The criterion-7 verdict and its margins for one seed; `budget` holds
    the step counts that differ from the experiment's defaults."""
    start = time.perf_counter()
    result = run_obstruction_experiment(seed=seed, **budget)
    wall = time.perf_counter() - start
    control = result.control.final
    tight = [r for r in result.treatment.records if r.sliced_w2 < TIGHT_W2]
    threshold = RATIO_THRESHOLD * control.lipschitz_estimate
    passed = (control.sliced_w2 <= CONTROL_MAX_W2
              and control.lipschitz_estimate <= CONTROL_MAX_LIPSCHITZ
              and len(tight) > 0
              and all(r.lipschitz_estimate >= threshold for r in tight)
              and all(np.isfinite([r.loss, r.sliced_w2, r.lipschitz_estimate]).all()
                      for r in result.treatment.records + result.control.records))
    ratio = result.summary["lipschitz_ratio"]
    return {
        "seed": seed,
        "passed": bool(passed),
        "control_final_sliced_w2": control.sliced_w2,
        "control_final_lipschitz": control.lipschitz_estimate,
        "treatment_min_sliced_w2": result.summary["treatment_min_sliced_w2"],
        "treatment_tight_records": len(tight),
        "lipschitz_ratio": ratio if math.isfinite(ratio) else None,
        "wall_s": round(wall, 2),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(8)))
    parser.add_argument("--steps-manifold", type=int)
    parser.add_argument("--steps-density", type=int)
    args = parser.parse_args(argv)
    budget = {key: value for key, value in (("steps_manifold", args.steps_manifold),
                                            ("steps_density", args.steps_density))
              if value is not None}
    for seed in args.seeds:
        print(json.dumps(seed_line(seed, **budget)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
