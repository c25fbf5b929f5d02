"""Count the wrong structural answers on a labelled, seeded corpus.

    python3 tools/stress.py

Builds every tuple of a fixed corpus with the generators of
``tests/conftest.py``: ``block_tuple`` for each shape of ``SHAPES``, split
and non-split, and ``conjugated_diagonal`` for n = 2, 3 and 4, over Q5,
F3(T) and R.  Each tuple is labelled by its construction: (nonparabolic,
cr, sorted block sizes) is (False, split, sorted sizes) for a block tuple
and (False, True, [1] * n) for a conjugated diagonal one.  The answer read
is ``(is_nonparabolic, is_cr, sorted composition_series block sizes)``; a
build or decision that raises answers with its error text.

Prints, for each field, shape and split, the count of wrong answers and
each wrong one with its seed, then the wrong total per field and the
seconds its decisions took (the three calls above, not the tuple builds),
then one sha256 per field over all its answers in order, so two checkouts
print the same digest exactly when every answer over that field is the
same.  The seeds are fixed here: ``SEEDS`` per cell, ``SEEDS_LARGE`` when
n >= 4.  Print-only: the exit status is 0 whatever the counts are.
"""

from __future__ import annotations

import hashlib
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conftest import block_tuple, conjugated_diagonal  # noqa: E402
from localrep import Field, composition_series, is_cr, is_nonparabolic  # noqa: E402

FIELDS = (("Q5", Field.padic(5)), ("F3T", Field.funcfield(3)), ("R", Field.real()))
SHAPES = ((1, 1), (2, 1), (1, 2), (1, 1, 1), (2, 2), (3, 1), (1, 2, 1), (1, 1, 2))
DIAGONAL_SIZES = (2, 3, 4)
SEEDS = 60
SEEDS_LARGE = 30


def cells(tag, field):
    """``(cell name, label, [(seed, tuple builder)])`` for one field, in print order."""
    for sizes in SHAPES:
        for split in (True, False):
            count = SEEDS if sum(sizes) < 4 else SEEDS_LARGE
            builds = [(seed, lambda seed=seed: block_tuple(
                field, random.Random(f"stress:{tag}:{sizes}:{split}:{seed}"), sizes, split))
                for seed in range(count)]
            yield (f"{sizes} {'split' if split else 'nonsplit'}",
                   (False, split, sorted(sizes)), builds)
    for n in DIAGONAL_SIZES:
        count = SEEDS if n < 4 else SEEDS_LARGE
        builds = [(seed, lambda seed=seed: conjugated_diagonal(
            field, random.Random(f"stress-diagonal:{tag}:{n}:{seed}"), n)[0])
            for seed in range(count)]
        yield f"diagonal {n}", (False, True, [1] * n), builds


def answer(build):
    """``(answer, seconds the decisions took)`` for the tuple ``build`` makes."""
    try:
        rho = build()
    except Exception as exc:  # a wrong answer too; the text stands in for it
        return f"{type(exc).__name__}: {exc}", 0.0
    start = time.perf_counter()
    try:
        got = (is_nonparabolic(rho)[0], is_cr(rho), sorted(composition_series(rho).block_sizes))
    except Exception as exc:
        got = f"{type(exc).__name__}: {exc}"
    return got, time.perf_counter() - start


def main() -> int:
    digests = {}
    for tag, field in FIELDS:
        digest, wrong_total, total, seconds = hashlib.sha256(), 0, 0, 0.0
        for name, label, builds in cells(tag, field):
            wrong = []
            for seed, build in builds:
                got, took = answer(build)
                seconds += took
                digest.update(f"{name} {seed} {got}\n".encode("utf-8"))
                if got != label:
                    wrong.append(f"seed {seed} {got}")
            wrong_total += len(wrong)
            total += len(builds)
            print(f"{tag} {name}: {len(wrong)} wrong of {len(builds)}"
                  + "".join(f"\n    {w}" for w in wrong))
        print(f"{tag}: {wrong_total} wrong of {total}")
        print(f"{tag}: {seconds:.2f} s deciding {total} tuples", flush=True)
        digests[tag] = digest.hexdigest()
    for tag, digest in digests.items():
        print(f"answers {tag} sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
