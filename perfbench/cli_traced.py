"""Run one CLI job like ``python -m artifact.cli``, traced.

    python3 perfbench/cli_traced.py OUT.json ARGS...

Writes the job's spans and counts to OUT.json, with ``in_process_s`` (time
from this script's first line to the end of the job) and ``import_s`` (time
to import ``artifact.cli``).  The parent takes start-up time as its own wall
time for the job minus ``in_process_s``.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    out, argv = sys.argv[1], sys.argv[2:]
    t = time.perf_counter()
    from artifact import cli
    import_s = time.perf_counter() - t
    tracer = Tracer()
    tracer.install()
    code = tracer.run_case(0, lambda: cli.main(argv))
    sys.stdout.flush()
    tracer.dump(out, {"in_process_s": time.perf_counter() - T0,
                      "import_s": import_s})
    return code


if __name__ == "__main__":
    sys.exit(main())
