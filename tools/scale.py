"""Time the structural decisions on larger Q5 and F3(T) tuples.

    python3 tools/scale.py

Builds ``block_tuple`` (``tests/conftest.py``) over each field of
``FIELDS`` for each shape of ``SHAPES``, split and non-split, on ``SEEDS``
seeds each (seed strings ``scale:<sizes>:<split>:<seed>``, the same for
both fields), and on each tuple calls, in this order,
``is_nonparabolic``, ``is_cr``, ``composition_series`` and
``semisimplify``.  Only those four calls are timed.  They share one fresh
tuple per seed, so what one of them caches on the tuple serves the later
ones, as in one CLI job.

Prints the seconds each cell took over its seeds, then per field one
sha256 over every answer in order: the verdicts, the composition series'
block sizes and basis change, and the semisimplified generators.  Two
checkouts print the same digest exactly when every answer over that field
is the same.  A build or
decision that raises answers with its error text.  Print-only: the exit
status is 0 whatever the answers are.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import block_tuple  # noqa: E402
from localrep import (  # noqa: E402
    Field, composition_series, is_cr, is_nonparabolic, semisimplify)

FIELDS = (("Q5", Field.padic(5)), ("F3T", Field.funcfield(3)))
SHAPES = ((2, 2), (3, 3), (4, 4))
SEEDS = 3


def answer(rho):
    """The four decisions on ``rho``, as one string."""
    try:
        nonparabolic, cr = is_nonparabolic(rho)[0], is_cr(rho)
        flag = composition_series(rho)
        ss = semisimplify(rho).rho_ss
        return (f"{nonparabolic} {cr} {flag.block_sizes} {flag.basis_change} "
                + " ".join(str(g) for g in ss.gens.values()))
    except Exception as exc:  # a wrong answer too; the text stands in for it
        return f"{type(exc).__name__}: {exc}"


def main() -> int:
    for name, field in FIELDS:
        digest = hashlib.sha256()
        for sizes in SHAPES:
            for split in (True, False):
                seconds = 0.0
                for seed in range(SEEDS):
                    try:
                        rho = block_tuple(field, random.Random(f"scale:{sizes}:{split}:{seed}"),
                                          sizes, split)
                    except Exception as exc:
                        got = f"{type(exc).__name__}: {exc}"
                    else:
                        start = time.perf_counter()
                        got = answer(rho)
                        seconds += time.perf_counter() - start
                    digest.update(f"{sizes} {split} {seed} {got}\n".encode("utf-8"))
                print(f"{name} {sizes} {'split' if split else 'nonsplit'}: "
                      f"{seconds:.2f} s over {SEEDS} tuples", flush=True)
        print(f"answers {name} sha256 {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
