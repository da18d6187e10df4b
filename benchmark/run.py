"""injflow benchmark: one command, three workloads, every output checked.

    python3 benchmark/run.py --workload obstruction-train --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 30 --trace 1

Run it from the root of a checkout; it imports injflow from `src/` there.
For each workload it starts fresh processes: one writes the seeded inputs,
several only set up (import injflow, build or load the network) so that
`setup_s` is a median, and one runs jobs in a closed loop, one at a time,
for `--seconds`.  With `--trace 1` every other job runs with the layer
spans installed, and the per-layer metrics are printed instead of the
end-to-end ones.  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

End-to-end metrics:
  setup_s      fresh interpreter to ready for the first job, median of six
               processes, each scaled to the nominal host of hostspeed.py
  ops_per_s    optimizer steps per second (training workloads) or queries
               per second of `injflow project` (checkpoint-tools): total
               work over total time, each call's time scaled to the
               nominal host of hostspeed.py
  peak_rss_mb  peak resident memory of the job process

Printed as lines, not listed in BENCHMARK.json: the per-workload figures
(train_steps_per_s, project_queries_per_s, gap_affine_s, gap_small_flow_s,
fit_sliced_w2, gap_upper, error_rate), job times, and the raw unscaled
set-up times and throughput with the host reference times.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from hostspeed import SETUP_ELASTICITY, scaled  # noqa: E402
from layers import COMMON  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Units of the other printed statistics; the rest are seconds.
STAT_UNITS = {**END_TO_END, "ops_per_s_raw": "1/s", "fit_sliced_w2": "1", "gap_upper": "1"}
# Units of the per-workload figures printed after the statistics.
DETAIL_UNITS = {"train_steps_per_s": "1/s", "project_queries_per_s": "1/s",
                "gap_affine_s": "s", "gap_small_flow_s": "s", "fit_sliced_w2": "1",
                "gap_upper": "1", "gap_affine_upper": "1", "error_rate": "1",
                "peak_rss_mb": "MB", "setup_s": "s"}
SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150
# One BLAS thread: the program is single-threaded and its matrices are
# small, and a fixed count keeps runs comparable across hosts.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


class ChildFailed(RuntimeError):
    pass


def _child(args, env, timeout):
    """Run a worker process to completion; kill it on timeout."""
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), *args]
    with subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True) as proc:
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise ChildFailed(f"{args[0]} worker timed out after {timeout}s")
    if proc.returncode != 0:
        raise ChildFailed(f"{args[0]} worker exited {proc.returncode}: {err[-3000:]}")
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _describe(values):
    values = [v for v in values if v is not None]
    if not values:
        return None
    q1, q3 = _quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values), "n": len(values)}


def _value(stat):
    """The reported value of a statistic: its median unless it says otherwise."""
    return stat.get("value", stat["median"]) if stat else None


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 results_dir: Path) -> dict:
    tag = f"{workload}-seed{seed}-trace{trace}"
    work = ROOT / ".bench_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = {**os.environ, **THREAD_ENV}
    env.pop("PYTHONPATH", None)
    result_file = results_dir / f"{tag}.json"
    try:
        _child(["inputs", "--workload", workload, "--seed", str(seed),
                "--dir", str(work)], env, CHILD_TIMEOUT_S)
        setup = []
        for _ in range(SETUP_PROBES):
            out = _child(["setup", "--workload", workload, "--dir", str(work),
                          "--spawned-at", repr(time.monotonic())], env, CHILD_TIMEOUT_S)
            probe = json.loads(out.strip().splitlines()[-1])
            setup.append((probe["setup_s"], probe["reference_s"]))
        _child(["jobs", "--workload", workload, "--dir", str(work),
                "--spawned-at", repr(time.monotonic()), "--seconds", str(seconds),
                "--trace", str(trace), "--result", str(result_file)],
               env, seconds + CHILD_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    raw = json.loads(result_file.read_text())
    setup.append((raw["setup_s"], raw["setup_reference_s"]))
    raw["setup_samples_s"] = [s for s, _ in setup]
    # Each set-up probe is followed by a reference sample in its own process;
    # the one before it is the previous probe's.
    refs = [r for _, r in setup]
    raw["setup_scaled_s"] = [scaled(s, 0.5 * (refs[max(0, k - 1)] + refs[k]), SETUP_ELASTICITY)
                             for k, (s, _) in enumerate(setup)]
    return summarise(raw, seed, trace, result_file)


def summarise(raw: dict, seed: int, trace: int, result_file: Path) -> dict:
    jobs = raw["jobs"]
    ops = [op for job in jobs for op in job["ops"]]
    failed = sum(1 for op in ops if op["failed"])
    # Timings come from untraced jobs whose every operation succeeded.
    untraced = [job for job in jobs if not job["traced"]
                and not any(op["failed"] for op in job["ops"])]
    # ops_per_s is total work over total scaled time (hostspeed.py) of the
    # run's untraced calls.
    stats = {
        "setup_s": _describe(raw["setup_scaled_s"]),
        "setup_s_raw": _describe(raw["setup_samples_s"]),
        "ops_per_s": _describe([units / secs for j in untraced for units, secs in j["work"]]),
        "peak_rss_mb": _describe([raw["peak_rss_mb"]]),
        "job_s": _describe([j["job_s"] for j in untraced]),
        "ops_per_s_raw": _describe([u / t for j in untraced for u, t in j["raw_work"]]),
        "job_s_raw": _describe([j["raw_job_s"] for j in untraced]),
        "reference_s": _describe([op["reference_s"] for op in ops]),
    }
    if untraced:
        for key, work in (("ops_per_s", "work"), ("ops_per_s_raw", "raw_work")):
            stats[key]["value"] = (sum(u for j in untraced for u, _ in j[work])
                                   / sum(t for j in untraced for _, t in j[work]))
    details = {"error_rate": failed / len(ops)}
    if raw["workload"] == "checkpoint-tools":
        stats["gap_upper"] = _describe([j["fit"] for j in jobs])
        for key in ("gap_affine_s", "gap_small_flow_s", "project_s"):
            stats[key] = _describe([j[key] for j in untraced])
        first = jobs[0]
        details.update({
            "project_queries_per_s": _value(stats["ops_per_s"]),
            "gap_affine_s": _value(stats["gap_affine_s"]),
            "gap_small_flow_s": _value(stats["gap_small_flow_s"]),
            "gap_upper": first["fit"],
            "gap_affine_upper": first["gap_affine_upper"],
            "metrics.small_flow_gain": ((first["gap_affine_upper"] - first["fit"])
                                        / first["gap_affine_upper"]
                                        if first["fit"] is not None
                                        and first["gap_affine_upper"] else None),
            "projection.tie_fraction": first["tie_fraction"],
            "idempotence_drift": first["idempotence_drift"],
            "query_mix": raw["inputs"]["query_mix"],
        })
    else:
        per_seed = {}
        for j in jobs:
            if j["fit"] is not None:
                per_seed.setdefault(j["program_seed"], j["fit"])
        fits = list(per_seed.values())
        stats["fit_sliced_w2"] = _describe(fits)
        if fits:
            # Fit errors spread multiplicatively over seeds; their geometric
            # mean summarises the run's seeds.
            stats["fit_sliced_w2"]["value"] = statistics.geometric_mean(fits)
        warnings = sorted({op["values"]["warning"] for op in ops
                           if "warning" in op["values"]})
        details.update({
            "train_steps_per_s": _value(stats["ops_per_s"]),
            "fit_sliced_w2": _value(stats["fit_sliced_w2"]),
            "program_seeds": len(fits),
            "summary_warnings": warnings,
        })
    # A metric without a single good sample is left out; `correct` is then
    # false, since only a failed operation removes samples.
    metrics = {name: {"value": _value(stats[name]), "unit": unit}
               for name, unit in END_TO_END.items() if stats[name]}
    details["peak_rss_mb"] = _value(stats["peak_rss_mb"])
    details["setup_s"] = _value(stats["setup_s"])
    report = {"workload": raw["workload"], "seed": seed, "trace": trace,
              "correct": failed == 0, "attempted": len(ops), "failed": failed,
              "jobs": len(jobs), "stats": stats, "details": details,
              "env": raw["env"], "result_file": str(result_file.relative_to(ROOT))}
    if trace:
        layers = raw["layers"]
        report["layers"] = layers
        metrics = {name: {"value": layers["common"][name], "unit": unit}
                   for name, unit in COMMON.items()}
    report["metrics"] = metrics
    report["failures"] = [{k: op.get(k) for k in ("op", "exit", "checks", "stderr")}
                          for op in ops if op["failed"]][:5]
    raw["report"] = report
    result_file.write_text(json.dumps(raw, indent=1) + "\n")
    return report


def print_report(report: dict) -> None:
    w = report["workload"]
    print(f"# {w}: seed {report['seed']}, trace {report['trace']}, "
          f"{report['jobs']} jobs, {report['attempted']} operations, "
          f"{report['failed']} failed")
    env = report["env"]
    print(f"# env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"blas {env['blas'].get('name')} {env['blas'].get('version')}, "
          f"blas threads {env['blas_threads'].get('OPENBLAS_NUM_THREADS')}, "
          f"nproc {env['nproc']}, cpu {env['cpu_model']}")
    for name, s in report["stats"].items():
        if s is None:
            print(f"{w} {name} no successful samples")
            continue
        unit = STAT_UNITS.get(name, "s")
        value = f" value={s['value']:.6g}" if "value" in s else ""
        print(f"{w} {name}{value} median={s['median']:.6g} {unit} q1={s['q1']:.6g} "
              f"q3={s['q3']:.6g} min={s['min']:.6g} max={s['max']:.6g} n={s['n']}")
    for name, value in report["details"].items():
        unit = f" {DETAIL_UNITS[name]}" if name in DETAIL_UNITS and value is not None else ""
        print(f"{w} {name} {value}{unit}")
    for failure in report["failures"]:
        print(f"{w} FAILED {json.dumps(failure)}")
    if report["trace"]:
        layers = report["layers"]
        print(f"# {w}: {layers['traced_jobs']} traced and "
              f"{layers['untraced_jobs']} untraced jobs; waiting time is absent "
              f"(single-threaded, no queues)")
        for name, value in layers["common"].items():
            print(f"{w} layer {name} {value:.6g} {COMMON[name]}")
        for name, value in layers["detail"].items():
            if value:
                print(f"{w} layer-detail {name} {value:.6g}")
    print(f"# full record: {report['result_file']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "injflow" / "__init__.py").is_file():
        print(f"error: no src/injflow under {ROOT}; run from an injflow checkout",
              file=sys.stderr)
        return 2
    results_dir = ROOT / ".bench_results"
    results_dir.mkdir(exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    reports = []
    for name in names:
        try:
            report = run_workload(name, args.seed, args.seconds, args.trace, results_dir)
        except ChildFailed as err:
            print(f"error: {name}: {err}", file=sys.stderr)
            return 1
        print_report(report)
        reports.append(report)
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in reports for k, v in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in reports),
                      "attempted": sum(r["attempted"] for r in reports),
                      "failed": sum(r["failed"] for r in reports),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
