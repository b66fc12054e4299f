"""Tower-depth scale family: ``ladder_check`` time and the size of its
flavor slices per tower depth.

Usage, from the root of the repository:

    python3 tools/scale_ladder.py [N ...]       (default: 3 6 12 24 48)

For each depth N it builds the tower of depth N over one fixed base,
``random_complex(Random(0), 2, p=2)`` from ``perfbench/gen.py`` (two
generators over F_2), assembles it, and times one ``ladder_check`` call on
the bundle.  It then prints the generators of each flavor slice the
ladder's fundamental sequences read (minus, infinity and plus of the
doubled hat, bar and check complexes), before and after the slice's
reduction.  The slices are caught by a wrapper bound over
``_fundamental`` (``bench_counts.wrapped``) for the duration of the call
and removed after.
perfbench's ``ladder_fp`` stops at depth 5; this family shows how the
slice pipeline grows past it.  One line per depth:

    n=3 ladder_s=0.01 ok=True slice_gens=1176->112 (hat minus 39->9, ...)
"""

import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "perfbench", "tools")]

from artifact import flavors  # noqa: E402
from artifact.chain import reduction  # noqa: E402
from bench_counts import wrapped  # noqa: E402
from gen import random_complex  # noqa: E402

KEYS = ("hat", "bar", "check")


def measure(n: int) -> str:
    base, _ = random_complex(random.Random(0), 2, p=2)
    bundle = flavors.assemble(flavors.tower_model(
        flavors.TowerParams(base=base, n=n)))
    caught = []

    def catching(original):
        def fundamental(complexes, *args):
            caught.append(complexes)
            return original(complexes, *args)
        return fundamental

    with wrapped(flavors, "_fundamental", catching):
        t0 = time.perf_counter()
        report = flavors.ladder_check(bundle)
        seconds = time.perf_counter() - t0
    before = after = 0
    slices = []
    # ladder_check expands the doubled hat, bar and check in that order
    for key, complexes in zip(KEYS, caught, strict=True):
        for tag, cx in complexes.items():
            b, a = len(cx.module), len(reduction(cx).complex.module)
            before += b
            after += a
            slices.append(f"{key} {tag} {b}->{a}")
    return (f"n={n} ladder_s={seconds:.2f} ok={report.ok} "
            f"slice_gens={before}->{after} ({', '.join(slices)})")


def main(argv) -> int:
    depths = [int(a) for a in argv] or [3, 6, 12, 24, 48]
    for n in depths:
        print(measure(n), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
