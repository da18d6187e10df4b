"""Host-speed reference: a fixed workload timed next to every program call.

This host's CPU speed drifts by itself, by 20-80% over seconds to minutes
(README, Noise), and a run's raw times move with it.  The benchmark
therefore times this reference, which never calls injflow, right after
every CLI call and every set-up probe, and scales each wall time to a
nominal host on which the reference takes NOMINAL_S:

    scaled_s = wall_s * (NOMINAL_S / reference_s) ** elasticity

where reference_s is the mean of the samples taken just before and just
after the timed interval.  A change to the program moves wall_s and leaves
reference_s alone, so scaled times move with the program exactly as wall
times do, while a slow phase of the host moves the program and the
reference together and mostly cancels.

The elasticity is how much a kind of work slows down, on a log scale, when
the reference slows down; it is a property of the work, not of the program
version.  The interpreter-bound project calls slow down as much as the
reference (1.0), the numpy-bound training loops less (0.6 and 0.8), and
set-up, mostly module imports, in between.  The README (End-to-end
metrics) gives the runs they were read from.

The reference mixes the three kinds of work the program does: interpreter
loops, chains of numpy calls on small arrays, and mid-size matrix products.
"""

from __future__ import annotations

import time

import numpy as np

# Reference time of the nominal host.
NOMINAL_S = 0.06
# Elasticity of each timed kind of work (module docstring).
ELASTICITY = {"obstruction-train": 0.8, "toy-train": 0.6, "checkpoint-tools": 1.0}
SETUP_ELASTICITY = 0.7

_rng = np.random.default_rng(20211008)
_W1 = _rng.normal(size=(4, 16)) * 0.5
_W2 = _rng.normal(size=(16, 4)) * 0.5
_X = _rng.normal(size=(32, 4))
_A = _rng.normal(size=(256, 40)) / 8.0
_B = _rng.normal(size=(40, 40)) / 8.0


def _interpreter(n: int = 60000) -> float:
    acc, table = 0.0, {}
    for i in range(n):
        k = i % 97
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += table[k] / (1 + i % 7)
    return acc


def _small_arrays(n: int = 1200) -> float:
    h = _X
    for _ in range(n):
        a = np.tanh(h @ _W1)
        h = (a @ _W2) * 0.5 + _X
        h = h + 1e-3 * ((1.0 - a * a) @ _W2)
    return float(h.sum())


def _matmul(n: int = 330) -> float:
    h = _A
    for _ in range(n):
        h = np.tanh(h @ _B) + _A
    return float(h.sum())


def sample() -> float:
    """Seconds one pass of the reference takes now."""
    start = time.perf_counter()
    _interpreter()
    _small_arrays()
    _matmul()
    return time.perf_counter() - start


class HostSpeed:
    """Reference samples between consecutive calls of one process."""

    def __init__(self, elasticity: float):
        self.elasticity = elasticity
        sample()  # warm-up
        self.last = sample()

    def after_call(self) -> float:
        """Sample now; return the reference time around the call just made."""
        now = sample()
        around = 0.5 * (self.last + now)
        self.last = now
        return around

    def scaled(self, wall_s: float, reference_s: float) -> float:
        return scaled(wall_s, reference_s, self.elasticity)


def scaled(wall_s: float, reference_s: float, elasticity: float) -> float:
    return wall_s * (NOMINAL_S / reference_s) ** elasticity
