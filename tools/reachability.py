"""List the functions of ``src/localrep`` that no benchmark job enters.

    python3 tools/reachability.py

Runs every job of the decide, classify and geometry workloads for seeds
1-3, plus each workload's set-up job, through ``localrep.cli.run`` (the
path the benchmark worker takes) under a ``sys.setprofile`` hook, and
prints each function of ``src/localrep`` whose code was never entered,
with its line count, then a summary line.  Last come one sha256 per
workload over the ``jsonio.dumps`` reports of its jobs in order (the error
text stands in for the report of a job that raises), then one per
(workload, command) over the same reports, so two checkouts print the same
digests exactly when every report is byte-identical, and a changed digest
names the commands whose reports changed.  The
inputs come from ``bench/workloads.py`` and are written by ``bench/run.py``'s
``write_inputs`` into a temporary directory; nothing under ``bench/`` is
changed.  Print-only: the exit status is 0 whatever the list holds.

A function counts as entered when the profiler sees a call event for its
code object.  Lambdas and comprehensions are not listed.  ``cli.main`` and
its parser stay unreached here, since the benchmark calls ``cli.run``
directly and reaches them only in cold starts.
"""

from __future__ import annotations

import ast
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "localrep"
SEEDS = (1, 2, 3)

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from localrep import cli, jsonio  # noqa: E402


def source_functions() -> dict:
    """``(file, first line) -> (qualified name, lines)`` of every def in ``src/localrep``.

    The first line is the code object's ``co_firstlineno``: that of the
    first decorator when there is one.
    """
    out = {}

    def visit(path, node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                name = prefix + child.name
                out[(str(path), first)] = (name, child.end_lineno - first + 1)
                visit(path, child, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(path, child, prefix + child.name + ".")
            else:
                visit(path, child, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(path, ast.parse(path.read_text(encoding="utf-8")), "")
    return out


def jobs():
    """``(workload name, job)`` for every job of every workload."""
    for name, build in workloads.WORKLOADS.items():
        for seed in SEEDS:
            for job in build(seed):
                yield name, job
        yield name, workloads.setup_job(name)


def entered_code() -> tuple:
    """Run every job under the profile hook.

    Returns (code objects entered, jobs run, sha256 of the reports keyed by
    (workload name,) and by (workload name, command)).
    """
    seen = set()
    digests = {}

    def hook(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    count = 0
    with tempfile.TemporaryDirectory() as tmp:
        for name, job in jobs():
            spec = bench_run.write_inputs(job, Path(tmp))
            sys.setprofile(hook)
            try:
                _, payload = cli.run(cli.JobSpec(command=job.command, **spec))
                report = jsonio.dumps(payload)
            except Exception as exc:  # a known-fault job fails; its calls still count
                report = f"{type(exc).__name__}: {exc}"
            finally:
                sys.setprofile(None)
            for key in ((name,), (name, job.command)):
                digests.setdefault(key, hashlib.sha256()).update(report.encode("utf-8") + b"\n")
            count += 1
    return seen, count, {key: d.hexdigest() for key, d in digests.items()}


def main() -> int:
    functions = source_functions()
    seen, count, digests = entered_code()
    entered = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in seen}
    missed = [(key, functions[key]) for key in sorted(functions) if key not in entered]
    for (path, line), (name, lines) in missed:
        print(f"{Path(path).name}:{line} {name} ({lines} lines)")
    print(f"{len(missed)} of {len(functions)} functions in src/localrep never entered "
          f"({sum(lines for _, (_, lines) in missed)} lines), over {count} jobs")
    for key, digest in digests.items():
        print(f"reports {' '.join(key)} sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
