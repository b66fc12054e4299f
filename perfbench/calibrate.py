"""Machine-speed calibration for the benchmark's timings.

On a shared machine the same work can take 30% longer for minutes at a
time, which would swamp the differences the benchmark exists to show.  So
every timed interval (one case, one set-up) is bracketed by probes, a fixed
piece of work of the same kind, and reported in reference seconds:

    reference seconds = wall seconds * probe.reference_s / probe time

that is, seconds on a machine that runs the probe in ``reference_s``.
Two probes, because no single one tracks both kinds of work:

* ``LOOP`` — a pure-Python loop of integer arithmetic and dict stores, the
  operations the program's exact arithmetic is made of.  Over a repeated
  in-process case, calibrating by it cut the spread of 10 % blocks of runs
  from a 10 % to a 2.3 % coefficient of variation.  Its 6 ms runs catch
  short stalls the case around them does not feel, so a case uses the
  median of three probes either side.
* ``SPAWN`` — starting a bare interpreter (``python -c pass``).  A CLI job
  is mostly process start-up and imports, which the loop does not track
  (10 % before and after); calibrating by a bare start cut it to 2 %.  On
  the 2-vCPU machine of the baseline a start takes either about 64 or about
  115 ms and a job follows its neighbours, so a case uses the two probes
  next to it.

Both probes are the benchmark's own code or the interpreter itself, so a
change to the program cannot move them.  Raw wall-clock values are
reported beside the calibrated ones.
"""

import statistics
import subprocess
import sys
import time
from typing import Callable, List, NamedTuple


class Probe(NamedTuple):
    time: Callable[[], float]   # wall seconds for one run of the probe
    reference_s: float
    # a case is rescaled by the median of the ``window`` probes before it
    # and the ``window`` after it
    window: int

    def speed(self, probe_s: List[float], i: int) -> float:
        """Probe time around the i-th case, probe_s[i] being the probe just
        before it."""
        return statistics.median(
            probe_s[max(0, i + 1 - self.window):i + 1 + self.window])


def _loop_time() -> float:
    t = time.perf_counter()
    s = 0
    d = {}
    for i in range(40000):
        s += (i * 7919) % 104729
        d[i & 1023] = s
    return time.perf_counter() - t


def _spawn_time() -> float:
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - t


LOOP = Probe(_loop_time, 0.007, window=3)
SPAWN = Probe(_spawn_time, 0.08, window=1)
