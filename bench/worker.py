"""Worker process: runs a job list in-process, one job at a time, and times it.

Started by ``run.py`` with BLAS/OpenMP threads pinned to one and a fixed
``PYTHONHASHSEED``.  Each job is ``localrep.cli.run(JobSpec)`` followed by
``jsonio.dumps`` of its payload: the CLI's own path apart from process
start.  Garbage is collected before each job, outside the timed span, and
a fixed reference computation is timed beside the jobs throughout the run.
The cold CLI starts behind ``setup_s``, when asked for, are spread evenly
over the run in the same way, between jobs.

Usage: python3 worker.py RUN.json RESULT.json PASSES TRACE(0|1)

RUN.json holds ``jobs`` (id, command and JobSpec fields of each) and
``setup`` (the argv of one cold CLI start and how many to make).
"""

from __future__ import annotations

import gc
import json
import resource
import subprocess
import sys
import time
from fractions import Fraction

clock = time.perf_counter

#: reference timings per pass, spread evenly over the jobs.  The machine's
#: speed flips between two levels every few tens of milliseconds, so the
#: reference needs many samples for its mean to follow the jobs' average.
REF_SAMPLES_PER_PASS = 80


def reference() -> int:
    """A fixed stdlib-only computation that calls no localrep code.

    Exact elimination over Q and polynomial remainders over F_3 on plain
    tuples: the kinds of interpreter work the jobs do.
    """
    n = 9
    rows = [[Fraction((3 * i + 5 * j) % 11 - 5, 1 + (i * j) % 4) for j in range(n)]
            for i in range(n)]
    for c in range(n):
        piv = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        for r in range(c + 1, n):
            factor = rows[r][c] * inv
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[c])]
    acc = sum(rows[i][i].numerator % 97 for i in range(n))
    a = tuple((7 * k + 3) % 3 for k in range(40)) + (1,)
    b = tuple((5 * k + 1) % 3 for k in range(23)) + (1,)
    for _ in range(48):
        rem = list(a)
        for k in range(len(rem) - len(b), -1, -1):
            q = rem[k + len(b) - 1] % 3
            if q:
                for j, y in enumerate(b):
                    rem[k + j] = (rem[k + j] - q * y) % 3
        acc += sum(rem)
    return acc


def cold_start(argv):
    """Wall time and standard output of one CLI run in a fresh interpreter."""
    t0 = clock()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=60, check=False)
    elapsed = clock() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"CLI set-up run failed: {proc.stderr[-400:]}")
    return elapsed, proc.stdout


def run_jobs(jobs, passes, setup, tracer=None):
    from localrep import cli, jsonio

    times = [[] for _ in jobs]
    reports = [None] * len(jobs)
    unsteady = set()
    ref_times = []
    ref_repeats = -(-REF_SAMPLES_PER_PASS // len(jobs))
    steps = passes * len(jobs)
    starts_due = [int((k + 0.5) * steps / setup["runs"]) for k in range(setup["runs"])]
    setup_times, setup_out = [], None
    step = 0
    for p in range(passes):
        order = range(len(jobs)) if p % 2 == 0 else reversed(range(len(jobs)))
        for idx in order:
            job = jobs[idx]
            for _ in range(starts_due.count(step)):
                elapsed, setup_out = cold_start(setup["argv"])
                setup_times.append(elapsed)
            step += 1
            gc.collect()
            for _ in range(ref_repeats):
                t0 = clock()
                reference()
                ref_times.append(clock() - t0)
            gc.collect()
            if tracer is not None:
                tracer.job = job["id"]
            t0 = clock()
            try:
                _, payload = cli.run(cli.JobSpec(command=job["command"], **job["spec"]))
                text = jsonio.dumps(payload)
            except Exception as exc:  # a failed job is recorded and counted, not fatal
                text = {"error": f"{type(exc).__name__}: {exc}"}
            times[idx].append(clock() - t0)
            if reports[idx] is None:
                reports[idx] = text
            elif reports[idx] != text:
                unsteady.add(idx)
    return {"times": times, "reports": reports, "unsteady": sorted(unsteady),
            "ref_times": ref_times, "setup_times": setup_times, "setup_report": setup_out}


def main(argv):
    run_path, out_path, passes, trace = argv[1], argv[2], int(argv[3]), argv[4] == "1"
    with open(run_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    t0 = clock()
    import localrep.cli  # noqa: F401  (timed: the CLI's import cost)
    import_ms = (clock() - t0) * 1000.0
    tracer = None
    if trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    gc.collect()
    gc.freeze()
    result = run_jobs(spec["jobs"], passes, spec["setup"], tracer)
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["import_ms"] = import_ms
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, len(spec["jobs"]), import_ms)
        result["spans"] = tracer.spans
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
