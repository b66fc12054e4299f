"""Z scale family: ``four_flavors`` time and presented generators per size.

Usage, from the root of the repository:

    python3 tools/scale_z.py [N ...]        (default: 100 200 400)

For each size N it builds ``random_complex(Random(N), N, (-3, 3),
with_u=True)`` from ``perfbench/gen.py``, times one ``four_flavors`` call
on it, and prints the generators of each flavor slice whose homology is
presented, before and after the slice's reduction (the complex C' that the
presentations are actually of).  One line per size.
"""

import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

from artifact.chain import reduction  # noqa: E402
from artifact.flavors import four_flavors  # noqa: E402
from gen import random_complex  # noqa: E402


def measure(n: int) -> str:
    C, _ = random_complex(random.Random(n), n, (-3, 3), with_u=True)
    t0 = time.perf_counter()
    ff = four_flavors(C)
    seconds = time.perf_counter() - t0
    before = after = 0
    slices = []
    for tag, cx in ff.sequences.complexes.items():
        b, a = len(cx.module), len(reduction(cx).complex.module)
        before += b
        after += a
        slices.append(f"{tag} {b}->{a}")
    return (f"n={n} four_flavors_s={seconds:.2f} presented_gens={before}->"
            f"{after} ({', '.join(slices)})")


def main(argv) -> int:
    sizes = [int(a) for a in argv] or [100, 200, 400]
    for n in sizes:
        print(measure(n), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
