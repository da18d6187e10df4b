"""One fresh benchmark process: writes inputs, probes set-up, or runs jobs.

    python3 benchmark/worker.py inputs --workload W --seed N --dir D
    python3 benchmark/worker.py setup  --workload W --dir D --spawned-at T
    python3 benchmark/worker.py jobs   --workload W --dir D --spawned-at T
                                       --seconds S --trace 0|1 --result F

`run.py` starts these; each prints nothing on success except the `setup`
probe, which prints its ready time.  injflow is imported from the
checkout's `src/` and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import workloads as wl  # noqa: E402
from hostspeed import ELASTICITY, HostSpeed  # noqa: E402


def import_injflow():
    """Import injflow from the checkout's src/ only."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import injflow
    import injflow.cli  # noqa: F401  (pulls in every module)
    origin = Path(injflow.__file__).resolve()
    if src.resolve() not in origin.parents:
        raise SystemExit(f"injflow imported from {origin}, not from {src}")
    return injflow


def setup(workload: str, work: Path):
    """Import injflow and build or load what the first job needs."""
    injflow = import_injflow()
    manifest = json.loads((work / "inputs.json").read_text())
    if workload == "obstruction-train":
        injflow.training.build_obstruction_network(seed=manifest["program_seeds"][0])
    elif workload == "toy-train":
        injflow.training.build_layerwise_toy_network(seed=manifest["program_seeds"][0])
    else:
        for name in ("proj_net.json", "gap_net.json"):
            injflow.network.InjectiveNetwork.load_checkpoint(work / name)
    return injflow, manifest


# --- one CLI call --------------------------------------------------------------


def call(injflow, host, tracer, name: str, argv) -> dict:
    """Run injflow.cli.main(argv) in-process; an exception or non-zero exit
    is recorded, never raised."""
    err = io.StringIO()
    code, error = None, None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
            if tracer is not None:
                code = tracer.root(f"bench.{name}", injflow.cli.main, argv)
            else:
                code = injflow.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    except Exception:  # the benchmark must keep running after a crash
        error = traceback.format_exc(limit=4)
    wall = time.perf_counter() - start
    reference = host.after_call()
    op = {"op": name, "wall_s": wall, "reference_s": reference,
          "scaled_s": host.scaled(wall, reference), "exit": code, "checks": {}, "values": {}}
    if error or err.getvalue():
        op["stderr"] = (error or "") + err.getvalue()[-2000:]
    return op


def finish(op: dict, out: Path, result: dict | None = None) -> dict:
    """Fold the output checks into op and hash its --out directory."""
    if result is not None:
        op["checks"].update(result["checks"])
        op["values"].update(result["values"])
    op["checks"]["exit_0"] = op["exit"] == 0
    op["failed"] = not all(op["checks"].values())
    op["digest"] = wl.artefact_digest(out) if out.exists() else None
    return op


# --- jobs ------------------------------------------------------------------------


def training_job(injflow, host, tracer, workload, work, job_idx, manifest):
    seeds = manifest["program_seeds"]
    # Job 1 repeats job 0's seed (determinism); later jobs walk the seeds.
    k = 0 if job_idx < 2 else (job_idx - 1) % len(seeds)
    seed = seeds[k]
    out = work / f"job{job_idx}"
    if workload == "obstruction-train":
        m, d = wl.OBSTRUCTION_STEPS
        argv = ["run", "trefoil-obstruction", "--seed", str(seed), "--out", str(out),
                "--steps-manifold", str(m), "--steps-density", str(d)]
        legs = (max(1, d // 2), max(1, (3 * d) // 10))
        steps = 2 * (m + legs[0] + legs[1] + max(1, d - legs[0] - legs[1]))
        files, preset = ("treatment_trace.csv", "control_trace.csv"), "trefoil-obstruction"
    else:
        p1, p2 = wl.TOY_STEPS
        argv = ["run", "layerwise-toy", "--seed", str(seed), "--out", str(out),
                "--phase1-steps", str(p1), "--phase2-steps", str(p2)]
        legs1 = (max(1, p1 // 2), max(1, p1 // 3))
        legs1 += (max(1, p1 - legs1[0] - legs1[1]),)
        leg4 = max(1, (2 * p2) // 3)
        steps = sum(legs1) + leg4 + max(1, p2 - leg4)
        files, preset = ("trace.csv",), "layerwise-toy"
    op = call(injflow, host, tracer, "train", argv)
    result = wl.check_training(out, files, preset, seed) if op["exit"] == 0 else None
    op = finish(op, out, result)
    shutil.rmtree(out, ignore_errors=True)
    return {"ops": [op], "program_seed": seed, "inputs_key": seed,
            "steps": steps, "job_s": op["scaled_s"], "raw_job_s": op["wall_s"],
            "work": [(steps, op["scaled_s"])], "raw_work": [(steps, op["wall_s"])],
            "fit": op["values"].get("fit_sliced_w2")}


def _project(injflow, host, tracer, work, out, part, queries):
    name = f"project-{part}"
    op = call(injflow, host, tracer, name,
              ["project", "--checkpoint", str(work / "proj_net.json"),
               "--queries", str(work / f"queries-{part}.csv"), "--out", str(out / name)])
    result = wl.check_projection(out / name, queries) if op["exit"] == 0 else None
    rangepoints = result["values"].pop("rangepoints", None) if result else None
    return finish(op, out / name, result), rangepoints


def _reproject(injflow, host, work, rangepoints):
    """Idempotence: project the range points of one part again."""
    path = work / "rangepoints.csv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(f"x{i}" for i in range(len(rangepoints[0]))) + "\n")
        for row in rangepoints:
            fh.write(",".join("%.17g" % v for v in row) + "\n")
    op = call(injflow, host, None, "reproject",
              ["project", "--checkpoint", str(work / "proj_net.json"),
               "--queries", str(path), "--out", str(work / "reproj")])
    res = wl.check_idempotence(work / "reproj", rangepoints) if op["exit"] == 0 else None
    return finish(op, work / "reproj", res)


def checkpoint_job(injflow, host, tracer, work, job_idx, query_parts):
    """Project the query parts around the two gap calls, so the project
    throughput is sampled at several points of the run."""
    out = work / f"job{job_idx}"
    half = len(query_parts) // 2
    ops, projects = [], []
    for part in range(half):
        op, rangepoints = _project(injflow, host, tracer, work, out, part,
                                   query_parts[part])
        projects.append(op)
        if job_idx == 0 and part == 0 and rangepoints:
            # First job only: the drift is a deterministic function of the inputs.
            ops.append(_reproject(injflow, host, work, rangepoints))
    gaps = {}
    for family in ("affine", "small-flow"):
        op = call(injflow, host, tracer, f"gap-{family}",
                  ["gap", "--pairs", str(work / "pairs.csv"),
                   "--latent", str(work / "latent.csv"),
                   "--checkpoint", str(work / "gap_net.json"),
                   "--out", str(out / f"gap-{family}"), "--family", family])
        res = wl.check_gap(out / f"gap-{family}") if op["exit"] == 0 else None
        gaps[family] = finish(op, out / f"gap-{family}", res)
    aff, sf = (gaps[f]["values"].get("upper") for f in ("affine", "small-flow"))
    if aff is not None and sf is not None:
        gaps["small-flow"]["checks"]["small_flow_le_affine"] = sf <= aff
        gaps["small-flow"]["failed"] = not all(gaps["small-flow"]["checks"].values())
    for part in range(half, len(query_parts)):
        projects.append(_project(injflow, host, tracer, work, out, part,
                                 query_parts[part])[0])
    shutil.rmtree(out, ignore_errors=True)
    ops += projects + list(gaps.values())
    ties = [op["values"].get("tie_fraction") for op in projects]
    timed = projects + list(gaps.values())
    return {"ops": ops, "inputs_key": "inputs",
            "job_s": sum(o["scaled_s"] for o in timed),
            "raw_job_s": sum(o["wall_s"] for o in timed),
            "work": [(wl.PART_QUERIES, op["scaled_s"]) for op in projects],
            "raw_work": [(wl.PART_QUERIES, op["wall_s"]) for op in projects],
            "project_s": sum(op["scaled_s"] for op in projects),
            "gap_affine_s": gaps["affine"]["scaled_s"],
            "gap_small_flow_s": gaps["small-flow"]["scaled_s"],
            "fit": sf,
            "gap_affine_upper": aff,
            "tie_fraction": (statistics.fmean(ties) if None not in ties else None),
            "idempotence_drift": next((o["values"].get("idempotence_drift")
                                       for o in ops if o["op"] == "reproject"), None)}


def run_jobs(injflow, host, manifest, workload, work, seconds, trace):
    from tracer import Tracer
    tracer = Tracer(injflow) if trace else None
    query_parts = None
    if workload == "checkpoint-tools":
        query_parts = [wl.read_csv(work / f"queries-{k}.csv")[1]
                       for k in range(wl.QUERY_PARTS)]
    # Training runs visit every program seed once, plus one repeat for the
    # determinism check, before the clock may end the run.
    min_jobs = len(manifest.get("program_seeds", ())) + 1
    deadline = time.perf_counter() + seconds
    jobs, first_digest = [], {}
    while True:
        if len(jobs) >= max(2, min_jobs):
            recent = statistics.median(j["wall_s"] for j in jobs[-3:])
            if time.perf_counter() + recent > deadline:
                break
        idx = len(jobs)
        traced = tracer is not None and idx % 2 == 1
        if traced:
            tracer.job = idx
            tracer.install()
        start = time.perf_counter()
        try:
            if workload == "checkpoint-tools":
                job = checkpoint_job(injflow, host, tracer if traced else None,
                                     work, idx, query_parts)
            else:
                job = training_job(injflow, host, tracer if traced else None, workload,
                                   work, idx, manifest)
        finally:
            if traced:
                tracer.uninstall()
        job["wall_s"] = time.perf_counter() - start
        job["traced"] = traced
        # Same inputs must give byte-identical artefacts, op by op.
        for op in job["ops"]:
            if op["digest"] is not None:
                first = first_digest.setdefault((job["inputs_key"], op["op"]), op["digest"])
                if op["digest"] != first:
                    op["checks"]["byte_identical"] = False
                    op["failed"] = True
        jobs.append(job)
    return jobs, tracer


# --- environment -------------------------------------------------------------------


def environment() -> dict:
    import numpy
    import scipy
    try:
        deps = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy without show_config(mode="dicts")
        blas = {"name": "unknown"}
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    threads = {k: os.environ.get(k) for k in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas, "blas_threads": threads,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "platform": platform.platform()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("inputs", "setup", "jobs"))
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spawned-at", type=float, default=None)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result", default=None)
    args = parser.parse_args(argv)
    work = Path(args.dir)

    if args.mode == "inputs":
        import_injflow()
        wl.make_inputs(args.workload, args.seed, work)
        return 0

    injflow, manifest = setup(args.workload, work)
    ready = time.monotonic()
    setup_s = ready - args.spawned_at
    # Reference samples from here on, after set-up and between CLI calls;
    # run.py scales set-up time with the first one.
    host = HostSpeed(ELASTICITY[args.workload])
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s, "reference_s": host.last}))
        return 0

    setup_reference_s = host.last
    jobs, tracer = run_jobs(injflow, host, manifest, args.workload, work,
                            args.seconds, args.trace)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"workload": args.workload, "setup_s": setup_s,
              "setup_reference_s": setup_reference_s,
              "peak_rss_mb": peak_kb / 1024.0, "jobs": jobs,
              "inputs": manifest, "env": environment()}
    if tracer is not None:
        from layers import layer_report
        result["layers"] = layer_report(tracer, jobs)
        tracer.write_csv_gz(Path(args.result).with_suffix(".spans.csv.gz"))
    Path(args.result).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
