"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The two training experiments (criteria 6 and 7) run their full
desk-scale budgets, so this module takes a few minutes.
"""

import itertools
import json
import time

import numpy as np

from injflow.cli import main as cli_main
from injflow.expansive import (
    ZeroPad,
    random_injective_relu,
    random_linear_expansive,
    random_well_conditioned,
)
from injflow.flows import identity_block, make_autoregressive_block, make_coupling_block
from injflow.metrics import (
    w2_enumeration_uniform,
    wasserstein2_exact,
)
from injflow.network import InjectiveNetwork
from injflow.projection import (
    brute_force_relu_projection,
    project_to_range,
    relu_pseudo_inverse,
)
from injflow.training import (
    chamfer_loss_and_grad,
    compute_gradients,
    draw_directions,
    run_layerwise_toy,
    run_obstruction_experiment,
    sliced_w2sq_loss_and_grad,
)


def _report(index: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {index} {name}: {status}{suffix}")


def _no_tie_instance(rng, n, margin=1e-3):
    b = random_well_conditioned(n, rng)
    d = rng.uniform(0.5, 2.0, size=n)
    y = rng.normal(0.0, 1.5, size=2 * n)
    for i in range(n):
        while abs(y[i] - y[i + n]) < margin:
            y[i + n] = rng.normal(0.0, 1.5)
    return b, d, y


def test_criterion_1_projection_optimality():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_gap = -np.inf
    worst_pre = 0.0
    for k in range(500):
        n = (1, 2, 3, 5)[k % 4]
        b, d, y = _no_tie_instance(rng, n)
        res = relu_pseudo_inverse(b, d, y)
        oracle_min, minimizers = brute_force_relu_projection(b, d, y)
        worst_gap = max(worst_gap, res.residual - oracle_min)
        worst_pre = max(worst_pre,
                        min(np.linalg.norm(res.x - m) for m in minimizers))
    tie_ok = True
    for k in range(40):
        n = int(rng.integers(1, 4))
        b, d, y = _no_tie_instance(rng, n)
        n_ties = 1 if n == 1 else int(rng.integers(1, n + 1))
        for i in rng.choice(n, size=n_ties, replace=False):
            v = float(rng.uniform(0.5, 2.0))
            y[i] = v
            y[i + n] = v
        res = relu_pseudo_inverse(b, d, y)
        _, minimizers = brute_force_relu_projection(b, d, y)
        tie_ok &= (len(minimizers) == 2 ** n_ties)
        tie_ok &= (min(np.linalg.norm(res.x - m) for m in minimizers) <= 1e-6)
        tie_ok &= res.tie_flag
    elapsed = time.perf_counter() - start
    ok = worst_gap <= 1e-6 and worst_pre <= 1e-6 and tie_ok and elapsed <= 60
    _report(1, "projection optimality vs brute-force oracle", ok,
            f"max residual gap {worst_gap:.2e}, max preimage gap "
            f"{worst_pre:.2e}, ties ok {tie_ok}, {elapsed:.1f}s")
    assert ok


def test_criterion_2_flow_bijectivity():
    start = time.perf_counter()
    worst = 0.0
    for k in range(50):
        rng = np.random.default_rng(3000 + k)
        dim = int(rng.integers(2, 6))
        if k % 2 == 0:
            block = make_coupling_block(dim, int(rng.integers(1, 4)), rng=rng,
                                        final_scale=0.6, hidden=8)
        else:
            block = make_autoregressive_block(dim, int(rng.integers(1, 3)),
                                              rng=rng, final_scale=0.6, hidden=8)
        x = rng.normal(size=(1000, dim))
        worst = max(worst,
                    float(np.abs(block.inverse(block.forward(x)) - x).max()),
                    float(np.abs(block.forward(block.inverse(x)) - x).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed <= 30
    _report(2, "flow bijectivity round trips", ok,
            f"max round-trip error {worst:.2e}, {elapsed:.1f}s")
    assert ok


def _acceptance_network(seed):
    rng = np.random.default_rng(seed)
    t0 = make_coupling_block(2, 2, rng=rng, final_scale=0.4, hidden=8)
    r1 = random_injective_relu(2, 4, rng)
    t1 = make_autoregressive_block(4, 1, rng=rng, final_scale=0.4, hidden=8)
    r2 = random_linear_expansive(4, 5, rng)
    t2 = make_coupling_block(5, 1, rng=rng, final_scale=0.4, hidden=8)
    return InjectiveNetwork([t0, r1, t1, r2, t2])


def test_criterion_3_gradient_fidelity():
    start = time.perf_counter()
    h = 1e-5
    worst = 0.0
    for setting in range(10):
        rng = np.random.default_rng(4000 + setting)
        net = _acceptance_network(4000 + setting)
        latent = rng.normal(size=(8, 2))
        target = rng.normal(size=(8, 5))
        dirs = draw_directions(5, 8, rng)
        params = {(s, n): a for s, n, a in net.parameters()}

        def loss_value(loss):
            gen = np.atleast_2d(net.forward(latent))
            if loss == "manifold":
                return chamfer_loss_and_grad(gen, target)[0]
            return sliced_w2sq_loss_and_grad(gen, target, dirs)[0]

        for loss in ("manifold", "density"):
            _, grads = compute_gradients(net, loss, latent, target,
                                         directions=dirs)
            # Check every fourth coordinate of every parameter tensor.
            for s, n, g in net.parameter_views(grads):
                arr = params[(s, n)]
                flat = arr.reshape(-1)
                gflat = g.reshape(-1)
                for idx in range(0, flat.size, 4):
                    old = flat[idx]
                    flat[idx] = old + h
                    up = loss_value(loss)
                    flat[idx] = old - h
                    dn = loss_value(loss)
                    flat[idx] = old
                    fd = (up - dn) / (2 * h)
                    rel = abs(fd - gflat[idx]) / max(1e-6, abs(fd), abs(gflat[idx]))
                    worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-4 and elapsed <= 120
    _report(3, "gradient fidelity vs central differences", ok,
            f"max relative error {worst:.2e}, {elapsed:.1f}s")
    assert ok


def test_criterion_4_exact_ot_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(5000)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 8))
        d = int(rng.integers(1, 4))
        a = rng.normal(size=(n, d))
        b = rng.normal(size=(n, d))
        got = wasserstein2_exact(a, b)
        worst = max(worst, abs(got - w2_enumeration_uniform(a, b)))
    axioms_ok = True
    measures = [rng.normal(size=(6, 2)) for _ in range(5)]
    for m in measures:
        axioms_ok &= wasserstein2_exact(m, m) <= 1e-9
    for a, b in itertools.combinations(measures, 2):
        axioms_ok &= abs(wasserstein2_exact(a, b)
                         - wasserstein2_exact(b, a)) <= 1e-9
    for a, b, c in itertools.combinations(measures, 3):
        axioms_ok &= (wasserstein2_exact(a, c)
                      <= wasserstein2_exact(a, b)
                      + wasserstein2_exact(b, c) + 1e-8)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and axioms_ok and elapsed <= 60
    _report(4, "exact OT vs permutation enumeration", ok,
            f"max deviation {worst:.2e}, axioms ok {axioms_ok}, {elapsed:.1f}s")
    assert ok


def test_criterion_5_gap_sandwich_and_w2_bound(tmp_path):
    from injflow.cli import _preset_gap_visualization
    out = tmp_path / "gapviz"
    out.mkdir()
    metrics = _preset_gap_visualization({}, out, "csv", 0)
    lowers, uppers = metrics["lowers"], metrics["uppers"]
    sandwich_ok = all(l <= u + 1e-12 for l, u in zip(lowers, uppers))
    rows = np.loadtxt(out / "gap_intervals.csv", delimiter=",", skiprows=1)
    bound_ok = bool((rows[:, 3] <= rows[:, 2] + 0.01).all())
    final_ok = metrics["final_lower"] <= 0.02
    mono_ok = metrics["monotone_decreasing"]
    ok = sandwich_ok and bound_ok and final_ok and mono_ok
    _report(5, "embedding-gap sandwich and W2 bound", ok,
            f"lowers {np.round(lowers, 4).tolist()}, "
            f"uppers {np.round(uppers, 4).tolist()}, final lower "
            f"{metrics['final_lower']:.4f}")
    assert ok


def test_criterion_6_layerwise_toy():
    start = time.perf_counter()
    net, result = run_layerwise_toy(seed=0)
    p1 = result.record_at_phase_end("manifold")
    final = result.trace.final
    elapsed = time.perf_counter() - start
    ok = (p1.directed_supinf <= 0.05 and final.sliced_w2 <= 0.05
          and result.frozen_intact and elapsed <= 300)
    _report(6, "layerwise toy (manifold then density phase)", ok,
            f"phase-1 supinf {p1.directed_supinf:.4f}, final sliced W2 "
            f"{final.sliced_w2:.4f}, frozen intact {result.frozen_intact}, "
            f"{elapsed:.0f}s")
    assert ok


def test_criterion_7_obstruction_experiment():
    start = time.perf_counter()
    result = run_obstruction_experiment(seed=0)
    summary = result.summary
    control_ok = (summary["control_final_sliced_w2"] <= 0.05
                  and summary["control_final_lipschitz"] <= 20.0)
    tight = [r for r in result.treatment.records if r.sliced_w2 < 0.1]
    threshold = 10.0 * summary["control_final_lipschitz"]
    treatment_ok = (len(tight) > 0
                    and all(r.lipschitz_estimate >= threshold for r in tight))
    finite_ok = all(np.isfinite([r.loss, r.sliced_w2, r.lipschitz_estimate]).all()
                    for r in result.treatment.records + result.control.records)
    elapsed = time.perf_counter() - start
    ok = control_ok and treatment_ok and finite_ok and elapsed <= 900
    _report(7, "trefoil obstruction vs planar-circle control", ok,
            f"control w2 {summary['control_final_sliced_w2']:.4f} "
            f"lip {summary['control_final_lipschitz']:.2f}; treatment tight "
            f"steps {len(tight)}, min tight lip "
            f"{summary['treatment_min_lipschitz_when_tight']:.1f} "
            f"(threshold {threshold:.1f}), {elapsed:.0f}s")
    assert ok


def test_criterion_8_projection_idempotence():
    start = time.perf_counter()
    worst = 0.0
    for k in range(20):
        rng = np.random.default_rng(6000 + k)
        n = int(rng.integers(1, 3))
        kind = int(rng.integers(0, 3))
        mid = 2 * n if kind == 2 else n + int(rng.integers(1, 3))
        m = mid + int(rng.integers(1, 3))
        t0 = (make_coupling_block(n, 2, rng=rng, final_scale=0.4, hidden=8)
              if n >= 2 else identity_block(n))
        if kind == 0:
            r1 = ZeroPad(n, mid)
        elif kind == 1:
            r1 = random_linear_expansive(n, mid, rng)
        else:
            r1 = random_injective_relu(n, mid, rng)
        t1 = make_coupling_block(mid, 2, rng=rng, final_scale=0.4, hidden=8)
        r2 = random_linear_expansive(mid, m, rng)
        t2 = make_coupling_block(m, 2, rng=rng, final_scale=0.4, hidden=8)
        net = InjectiveNetwork([t0, r1, t1, r2, t2])
        queries = rng.normal(0.0, 2.0, size=(100, m))
        for y in queries:
            first = project_to_range(net, y)
            second = project_to_range(net, first.y_hat)
            worst = max(worst, float(np.linalg.norm(second.y_hat - first.y_hat)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed <= 60
    _report(8, "end-to-end projection idempotence", ok,
            f"max drift {worst:.2e}, {elapsed:.1f}s")
    assert ok


def _run_preset_twice(tmp_path, preset, seed, extra=(), config=None):
    outs = []
    for name in ("first", "second"):
        out = tmp_path / preset / name
        argv = ["run", preset, "--seed", str(seed), "--out", str(out)]
        if config is not None:
            cfg_path = tmp_path / f"{preset}-config.json"
            cfg_path.write_text(json.dumps(config))
            argv += ["--config", str(cfg_path)]
        argv += list(extra)
        assert cli_main(argv) == 0
        outs.append(out)
    return outs


def _outputs_identical(a, b):
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return False, f"file lists differ: {names_a} vs {names_b}"
    for name in names_a:
        if name == "summary.json":
            sa = json.loads((a / name).read_text())
            sb = json.loads((b / name).read_text())
            sa.pop("wall_time")
            sb.pop("wall_time")
            if sa != sb:
                return False, "summaries differ beyond wall_time"
        elif (a / name).read_bytes() != (b / name).read_bytes():
            return False, f"{name} differs"
    return True, ""


def test_criterion_9_cli_determinism(tmp_path):
    cases = [
        ("gap-visualization", 1, None),
        ("projection-bench", 1, {"trials": 40}),
        ("layerwise-toy", 1, {"phase1_steps": 30, "phase2_steps": 20}),
        ("trefoil-obstruction", 1,
         {"steps_manifold": 12, "steps_density": 12,
          "lipschitz_log_interval": 5}),
    ]
    all_ok = True
    details = []
    for preset, seed, config in cases:
        a, b = _run_preset_twice(tmp_path, preset, seed, config=config)
        same, why = _outputs_identical(a, b)
        all_ok &= same
        details.append(f"{preset}: {'ok' if same else why}")
    _report(9, "CLI preset determinism under fixed seed", all_ok,
            "; ".join(details))
    assert all_ok
