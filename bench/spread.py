"""Run two sets of ten benchmark runs and print each metric's spread against its bound.

    python3 bench/spread.py

Set 1 uses seeds 1-10 and set 2 seeds 11-20, one run per seed and
workload of ``BENCHMARK.json``, workloads interleaved.  For every workload
and end-to-end metric it prints each set's median and its spread, the
distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, and how
far the second set's median moved from the first's in the metric's worse
direction.  A spread or a move above the metric's bound is flagged, as is
an incorrect run or a share of failed operations that differs between
runs; the exit code is then 1.  Raw results go to ``bench/out/``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = 10
SETS = 2
FIRST_SEED = 1


def one_run(spec, workload, seed, trace):
    argv = [sys.executable if part == "python3" else part for part in spec["command"]]
    argv += ["--workload", workload, "--seed", str(seed),
             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def report(spec, results, workloads):
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload in workloads:
        sets = [results[workload][k] for k in sorted(results[workload])]
        shares = {(r["failed"], r["attempted"]) for runs in sets for r in runs}
        ratios = {f / a for f, a in shares}
        walls = [r["wall_s"] for runs in sets for r in runs]
        print(f"\n{workload}: failed/attempted {sorted(shares)}  "
              f"wall per run {min(walls):.1f}..{max(walls):.1f} s")
        if len(ratios) != 1 or not all(r["correct"] for runs in sets for r in runs):
            print("  FLAG: incorrect run or unequal failed share")
            ok = False
        for name, meta in bounds.items():
            per_set = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            sign = 1.0 if meta["better"] == "lower" else -1.0
            move = sign * (medians[-1] - medians[0]) / medians[0]
            flags = []
            if max(spreads) > meta["bound"]:
                flags.append("SPREAD>BOUND")
            elif max(spreads) > meta["bound"] / 3:
                flags.append("spread>bound/3")
            if move > meta["bound"]:
                flags.append("MOVE>BOUND")
            ok = ok and not any(f.isupper() for f in flags)
            print(f"  {name:12s} medians {' '.join(f'{m:11.4f}' for m in medians)}  "
                  f"spreads {' '.join(f'{s:6.3f}' for s in spreads)}  "
                  f"worse-move {move:+.3f}  bound {meta['bound']:.3f}  {' '.join(flags)}")
    return ok


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    results = {w: {} for w in workloads}
    for k in range(SETS):
        for i in range(RUNS):
            seed = FIRST_SEED + k * RUNS + i
            for workload in workloads:
                res = one_run(spec, workload, seed, 0)
                results[workload].setdefault(k, []).append(res)
                values = " ".join(f"{n}={m['value']:.4g}" for n, m in res["metrics"].items())
                print(f"set {k} seed {seed} {workload}: {values} "
                      f"failed={res['failed']}/{res['attempted']} wall={res['wall_s']:.1f}s",
                      flush=True)
    out = BENCH / "out" / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    ok = report(spec, results, workloads)
    print(f"\nraw results: {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
