"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload decide --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from ``--seed``, runs the job list in a
single pinned worker process, which also times cold CLI starts on a fixed,
seed-free input spread over the run (``setup_s``), checks every report
against its construction and prints, as the last line of
standard output, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` the worker wraps the program's layers
and the metrics are the per-layer ones, from a single pass.

A run is bounded by work, not by the clock: ``--seconds`` only sets how
many whole passes over the fixed job list the run makes (an odd number, at
least three), through the pass time the workloads are sized for.  Each
job's time is its median over the passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import workloads  # noqa: E402

#: seconds one pass over a job list takes on the machine the workloads were sized on
PASS_SECONDS = 10.0
SETUP_RUNS = 7
WORKER_TIMEOUT_S = 170
CLI_OPTIONS = ("imax", "radius", "budget", "p", "t", "blocks")


def passes_for(seconds: int) -> int:
    """Largest odd number of whole passes that fits in ``seconds``, at least 3."""
    fit = int(seconds / PASS_SECONDS)
    return max(3, fit if fit % 2 else fit - 1)


def worker_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(BENCH)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def write_inputs(job, work: Path) -> dict:
    """Write the job's input files; returns its JobSpec fields."""
    spec = dict(job.options)
    for key, obj in job.inputs.items():
        path = work / f"{job.id.replace('/', '-')}-{key}.json"
        path.write_text(json.dumps(obj), encoding="utf-8")
        spec[key] = str(path)
    return spec


def write_run(jobs, setup, setup_runs, work: Path) -> Path:
    """Write every input file, the job list and the set-up CLI start the worker reads."""
    listed = [{"id": job.id, "command": job.command, "spec": write_inputs(job, work)}
              for job in jobs]
    cold = {"argv": cli_argv(setup, write_inputs(setup, work)), "runs": setup_runs}
    path = work / "run.json"
    path.write_text(json.dumps({"jobs": listed, "setup": cold}), encoding="utf-8")
    return path


def cli_argv(job, spec) -> list:
    argv = [sys.executable, "-m", "localrep.cli", job.command]
    for key in ("input", "input2") + CLI_OPTIONS:
        if key in spec:
            argv += [f"--{key}", str(spec[key])]
    return argv


def run_worker(run_path: Path, work: Path, passes: int, trace: bool, env) -> dict:
    out = work / "result.json"
    argv = [sys.executable, str(BENCH / "worker.py"), str(run_path), str(out),
            str(passes), "1" if trace else "0"]
    proc = subprocess.run(argv, cwd=ROOT, env=env, timeout=WORKER_TIMEOUT_S, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def verify(jobs, result):
    """Check every report; returns (failed jobs, unexpected problems).

    A known-fault job may fail only with exactly its ``fails_with`` problems;
    any other failure of it is unexpected.  Passing its checks is correct.
    """
    failed, problems = [], []
    for idx, job in enumerate(jobs):
        report = result["reports"][idx]
        if isinstance(report, dict):
            found = [report["error"]]
        else:
            found = checks.check(job, json.loads(report))
        if idx in result["unsteady"]:
            found.append("report differs between passes")
        if found:
            failed.append(job)
            if tuple(found) != job.fails_with:
                problems.append((job, found))
    return failed, problems


def quantile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(jobs, result) -> dict:
    medians = [statistics.median(t) for t in result["times"]]
    total = sum(medians)
    return {
        "jobs_per_s": (len(jobs) / total, "1/s"),
        "job_ms_p50": (statistics.median(medians) * 1000.0, "ms"),
        "ref_cost": (total / statistics.fmean(result["ref_times"]), "ref"),
        "setup_s": (statistics.median(result["setup_times"]), "s"),
        "peak_rss_mb": (result["peak_rss_kb"] / 1024.0, "MB"),
    }


def describe(jobs, result, passes):
    """Context lines: per-job distribution and the median and share per job kind."""
    medians = [statistics.median(t) * 1000.0 for t in result["times"]]
    total = sum(medians)
    print(f"jobs={len(jobs)} passes={passes} per-job median ms: "
          f"p50={statistics.median(medians):.1f} p90={quantile(medians, 0.9):.1f} "
          f"max={max(medians):.1f} (n={len(medians)})")
    by_command = {}
    for job, ms in zip(jobs, medians):
        by_command.setdefault(job.command, []).append(ms)
    for command, values in sorted(by_command.items()):
        print(f"  {command:15s} jobs={len(values):3d} median_ms={statistics.median(values):9.1f} "
              f"share={sum(values) / total:6.1%}")
    print(f"reference mean ms={statistics.fmean(result['ref_times']) * 1000.0:.3f} "
          f"(n={len(result['ref_times'])})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="two jobs plus the known-fault job, one pass, one set-up run")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "localrep" / "cli.py").is_file():
        print(f"error: no localrep sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    jobs = workloads.WORKLOADS[args.workload](args.seed)
    passes = passes_for(args.seconds)
    setup_runs = SETUP_RUNS
    if args.smoke:
        jobs = jobs[:2] + [j for j in jobs if j.fault]
        passes, setup_runs = 1, 1
    if args.trace:
        passes, setup_runs = 1, 0

    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = worker_env()
    try:
        setup = workloads.setup_job(args.workload)
        run_path = write_run(jobs, setup, setup_runs, work)
        result = run_worker(run_path, work, passes, bool(args.trace), env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed, problems = verify(jobs, result)
    if result["setup_report"] is not None:
        found = checks.check(setup, json.loads(result["setup_report"]))
        problems += [(setup, found)] if found else []
    for job, found in problems:
        print(f"INCORRECT {job.id} ({job.kind}): {'; '.join(found)}", file=sys.stderr)
    for job in failed:
        if job.fault:
            print(f"known fault {job.id} ({job.kind}): {job.fault}")
    describe(jobs, result, passes)

    if args.trace:
        metrics = {name: (result["layers"][name], unit) for name, unit in _layer_units().items()}
        traced = len(jobs) / sum(t[0] for t in result["times"])
        print(f"traced jobs_per_s={traced:.4f} (one pass, for the tracing overhead)")
        trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({"spans": result["spans"]}), encoding="utf-8")
    else:
        metrics = end_to_end(jobs, result)
    summary = {
        "correct": not problems,
        "attempted": len(jobs) * passes,
        "failed": len(failed) * passes,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary))
    return 0


def _layer_units() -> dict:
    """Per-layer metric name -> unit, as declared in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
