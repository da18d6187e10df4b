"""Per-layer metrics from the traced jobs of one run.

Every value is per traced job (median over the run's traced jobs) unless
its name says "per_query" or "per_call".  Times are milliseconds of self
time unless the name ends in "_total_ms".  `COMMON` lists the metrics
that exist on every workload; those are the ones `BENCHMARK.json` names.
The rest apply to one or two workloads and are reported alongside.

Time spent waiting is absent: the program is single-threaded with no
queues, so there is nothing to wait on and no such metric is reported.
"""

from __future__ import annotations

import statistics

from tracer import root_names, summarise

# name -> unit, for the metrics that every workload produces.
COMMON = {
    "flows.forward_ms": "ms",
    "flows.self_ms": "ms",
    "flows.calls": "count",
    "expansive.self_ms": "ms",
    "network.forward_ms": "ms",
    "network.forward_calls": "count",
    "network.self_ms": "ms",
    "metrics.directed_supinf_ms": "ms",
    "metrics.self_ms": "ms",
    "util.pairwise_sq_dists_ms": "ms",
    "geometry.self_ms": "ms",
    "cli.write_ms": "ms",
    "cli.job_ms": "ms",
    "trace.coverage_pct": "%",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


def _sum(table, pred, col):
    return sum(v[col] for k, v in table.items() if pred(k))


def _job_metrics(table, job, spans, root_of) -> dict:
    """Per-layer values of one traced job from its {name: [calls, total, self]}."""
    self_ms = lambda pred: 1e3 * _sum(table, pred, 2)  # noqa: E731
    total_ms = lambda pred: 1e3 * _sum(table, pred, 1)  # noqa: E731
    calls = lambda pred: _sum(table, pred, 0)  # noqa: E731
    is_ = lambda name: (lambda k: k == name)  # noqa: E731
    pre = lambda p: (lambda k: k.startswith(p))  # noqa: E731
    flow_op = lambda op: (lambda k: k.startswith("flows.") and k.endswith("." + op))  # noqa: E731

    roots = [k for k in table if k.startswith("bench.")]
    wall_ms = total_ms(lambda k: k in roots)
    covered_ms = self_ms(lambda k: k not in roots)
    m = {
        "flows.forward_ms": self_ms(flow_op("forward")),
        "flows.self_ms": self_ms(pre("flows.")),
        "flows.calls": calls(pre("flows.")),
        "expansive.self_ms": self_ms(pre("expansive.")),
        "network.forward_ms": self_ms(is_("network.forward")),
        "network.forward_calls": calls(is_("network.forward")),
        "network.self_ms": self_ms(pre("network.")),
        "metrics.directed_supinf_ms": self_ms(is_("metrics.directed_supinf")),
        "metrics.self_ms": self_ms(pre("metrics.")),
        "util.pairwise_sq_dists_ms": self_ms(is_("util.pairwise_sq_dists")),
        "geometry.self_ms": self_ms(pre("geometry.")),
        "cli.write_ms": self_ms(is_("cli.write")),
        "cli.job_ms": wall_ms,
        "trace.coverage_pct": 100.0 * covered_ms / wall_ms if wall_ms else 0.0,
        "trace.spans": calls(lambda k: True),
    }
    detail = {
        "geometry.map_points_ms": self_ms(is_("geometry.map_points")),
        "geometry.csv_read_ms": self_ms(is_("geometry.csv_read")),
        "expansive.fwd_ms": self_ms(is_("expansive.fwd")),
        "expansive.vjp_ms": self_ms(is_("expansive.vjp")),
        "expansive.forward_ms": self_ms(is_("expansive.forward")),
        "flows.fwd_ms": self_ms(flow_op("fwd")),
        "flows.vjp_ms": self_ms(flow_op("vjp")),
        "flows.inverse_ms": self_ms(flow_op("inverse")),
        "network.fwd_ms": self_ms(is_("network.fwd")),
        "network.vjp_ms": self_ms(is_("network.vjp")),
        "network.lipschitz_estimate_ms": self_ms(is_("network.lipschitz_estimate")),
        "network.lipschitz_estimate_total_ms": total_ms(is_("network.lipschitz_estimate")),
        "network.load_checkpoint_ms": total_ms(is_("network.load_checkpoint")),
        "network.build_ms": total_ms(is_("network.build")),
        "training.compute_gradients_total_ms": total_ms(is_("training.compute_gradients")),
        "training.compute_gradients_ms": self_ms(is_("training.compute_gradients")),
        "training.chamfer_total_ms": total_ms(is_("training.chamfer")),
        "training.chamfer_ms": self_ms(is_("training.chamfer")),
        "training.sliced_loss_ms": self_ms(is_("training.sliced_loss")),
        "training.adam_ms": self_ms(is_("training.adam")),
        "training.schedule_ms": self_ms(is_("training.schedule")),
        "training.experiment_ms": self_ms(is_("training.experiment")),
        "training.steps": calls(is_("training.adam")),
        "metrics.sliced_w2_ms": self_ms(is_("metrics.sliced_w2")),
        "metrics.fit_alignment_ms": self_ms(is_("metrics.fit_alignment")),
        "metrics.fit_alignment_total_ms": total_ms(is_("metrics.fit_alignment")),
        "metrics.w2_exact_ms": self_ms(is_("metrics.w2_exact")),
        "metrics.gap_upper_ms": self_ms(is_("metrics.gap_upper")),
        "metrics.estimate_gap_ms": self_ms(is_("metrics.estimate_gap")),
        "metrics.bound_check_ms": self_ms(is_("metrics.bound_check")),
        "cli.main_ms": self_ms(is_("cli.main")),
        "projection.project_ms": self_ms(is_("projection.project")),
        "projection.project_total_ms": total_ms(is_("projection.project")),
        "projection.relu_pinv_ms": self_ms(is_("projection.relu_pinv")),
        "projection.linear_pinv_ms": self_ms(is_("projection.linear_pinv")),
    }
    for k in table:
        if k.startswith("flows.T"):
            detail[k + "_ms"] = 1e3 * table[k][2]
    queries = calls(is_("projection.project"))
    if queries:
        for name in ("project_ms", "project_total_ms", "relu_pinv_ms",
                     "linear_pinv_ms"):
            detail[f"projection.{name}_per_query"] = detail[f"projection.{name}"] / queries
        detail["projection.relu_pinv_calls_per_query"] = calls(is_("projection.relu_pinv")) / queries
        detail["projection.linear_pinv_calls_per_query"] = calls(is_("projection.linear_pinv")) / queries
    # Candidate-map evaluations per small-flow gap call: g is net.forward.
    gap_calls = calls(is_("bench.gap-small-flow"))
    if gap_calls:
        g_evals = sum(1 for i, s in enumerate(spans)
                      if s[4] == job and s[0] == "network.forward"
                      and root_of[i] == "bench.gap-small-flow")
        detail["metrics.g_evals"] = g_evals / gap_calls
    for name, (n, tot, _self) in table.items():
        detail[f"per_call_ms.{name}"] = 1e3 * tot / n
        detail[f"calls.{name}"] = n
    return m, detail


def _parent_means(spans, jobs, child: str, parent: str) -> float | None:
    """Mean inclusive ms of `child` spans called directly from `parent`."""
    durations = [s[2] - s[1] for s in spans
                 if s[4] in jobs and s[0] == child and s[3] >= 0
                 and spans[s[3]][0] == parent]
    return 1e3 * statistics.fmean(durations) if durations else None


def layer_report(tracer, jobs) -> dict:
    traced = [j for j, job in enumerate(jobs) if job["traced"]]
    plain = [job["job_s"] for job in jobs if not job["traced"]]
    spans = tracer.spans
    tables = summarise(spans, traced)
    root_of = root_names(spans)
    per_job = [_job_metrics(tables[j], j, spans, root_of) for j in traced]
    common = {k: statistics.median(m[k] for m, _ in per_job)
              for k in per_job[0][0]}
    traced_s = statistics.median(jobs[j]["job_s"] for j in traced)
    common["trace.overhead_pct"] = 100.0 * (traced_s / statistics.median(plain) - 1.0)
    keys = set().union(*(d.keys() for _, d in per_job))
    detail = {k: statistics.median(d.get(k, 0.0) for _, d in per_job) for k in sorted(keys)}
    steps = detail.get("training.steps")
    if steps:
        detail["training.records"] = statistics.median(
            jobs[j]["ops"][0]["values"].get("records", 0) for j in traced)
        tj = set(traced)
        detail["per_step_ms.compute_gradients"] = detail["training.compute_gradients_total_ms"] / steps
        detail["per_step_ms.adam"] = detail["per_call_ms.training.adam"]
        for child, parent in (("training.chamfer", "training.compute_gradients"),
                              ("training.sliced_loss", "training.compute_gradients"),
                              ("util.pairwise_sq_dists", "training.chamfer"),
                              ("network.fwd", "training.compute_gradients"),
                              ("network.vjp", "training.compute_gradients")):
            value = _parent_means(spans, tj, child, parent)
            if value is not None:
                detail[f"per_step_ms.{child}"] = value
        for k in list(detail):
            if k.startswith("flows.T") and (k.endswith(".fwd_ms") or k.endswith(".vjp_ms")):
                detail[f"per_step_ms.{k[:-3]}"] = detail[k] / steps
    return {"common": common, "detail": detail, "traced_jobs": len(traced),
            "untraced_jobs": len(plain)}
