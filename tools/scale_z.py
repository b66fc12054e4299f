"""Z scale family: ``four_flavors`` time, presented generators, LES nodes
and coefficient growth per size.

Usage, from the root of the repository:

    python3 tools/scale_z.py [N ...]        (default: 100 200 400)

For each size N it builds ``random_complex(Random(N), N, (-3, 3),
with_u=True)`` from ``perfbench/gen.py``, times one ``four_flavors`` call
on it, and prints the generators of each flavor slice whose homology is
presented, before and after the slice's reduction (the complex C' that the
presentations are actually of).  A second, untimed call on a fresh copy
counts the Z LES nodes with a nonzero middle group (``z_les_nodes``) and
the largest entry bit length over the input, both transforms and the kept
inverse of the left transform of every Smith form (``snf_max_bits``; every
``snf`` call and the factorization of each presentation's relations, which
keeps that inverse, go through ``exactlin._factor``), through wrappers
bound in every ``artifact`` module that holds the wrapped function and
removed after (``bench_counts.wrapped``).
One line per size.
"""

import os
import random
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, d) for d in ("src", "perfbench", "tools")]

from artifact import chain, exactlin  # noqa: E402
from artifact.chain import reduction  # noqa: E402
from artifact.flavors import four_flavors  # noqa: E402
from bench_counts import wrapped  # noqa: E402
from gen import random_complex  # noqa: E402


def _counts(run):
    """(Z LES nodes with a nonzero middle group, largest entry bit length
    over every Smith form's input, transforms and kept inverse) of one call
    of ``run``."""
    nodes, bits = [0], [0]

    def counting(original):
        def node(*args):
            nodes[0] += 1
            return original(*args)
        return node

    def measuring(original):
        def factor(M, inverse=False):
            res, inv = original(M, inverse)
            bits[0] = max([bits[0]] + [abs(v).bit_length()
                                       for m in (M, res.left, res.right, inv)
                                       if m is not None
                                       for v in m.entries.values()])
            return res, inv
        return factor

    with wrapped(chain, "_lattice_exactness", counting), \
            wrapped(exactlin, "_factor", measuring):
        run()
    return nodes[0], bits[0]


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
    fresh, _ = random_complex(random.Random(n), n, (-3, 3), with_u=True)
    nodes, bits = _counts(lambda: four_flavors(fresh))
    return (f"n={n} four_flavors_s={seconds:.2f} presented_gens={before}->"
            f"{after} ({', '.join(slices)}) z_les_nodes={nodes} "
            f"snf_max_bits={bits}")


def main(argv) -> int:
    sizes = [int(a) for a in argv] or [100, 200, 400]
    for n in sizes:
        print(measure(n), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
