"""Benchmark entry point.  Run from the root of a repository checkout:

    python3 perfbench/run.py --workload flavors_z --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py for why each exists): ``corpus_cli``,
``flavors_z`` and ``ladder_fp``.  Each run is a closed loop with one client
that runs one case at a time, in a fresh worker interpreter.

With ``--trace 0`` the metrics are the end-to-end ones named in
BENCHMARK.json; with ``--trace 1`` they are the per-layer ones, from one
untraced and one traced pass over the same cases.  Self times of layers
that do not run on every workload (so would read a constant 0 on some) are
not in BENCHMARK.json; they go to the details line as
``other_layer_metrics``.  The second-to-last line
of output holds the details (provenance, ``error_rate``, the tail
percentile and its sample count); the last line is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Times are in reference seconds (see calibrate.py): each case and each
set-up is rescaled by a calibration probe timed just before and after it,
so that the figures track the program rather than the load on a shared
machine.  Set-ups are calibrated by a bare interpreter start.  The run is
pinned to one CPU, so that each probe runs where the work it calibrates runs.  The
details line also gives the wall-clock figures.  Set-up time is measured in
seven fresh interpreters (six that only set up, then the measuring one) and
reported as their median.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_SAMPLES = 7
DEADLINE_S = 170.0
END_TO_END = ("cases_per_s", "case_s_p50", "case_s_tail", "peak_rss_mb")


def git_revision() -> str:
    """The checkout's commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(".git", *ref.split("/"))
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance() -> Dict[str, object]:
    return {"git_revision": git_revision(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "loadavg_at_start": list(os.getloadavg()),
            "platform": platform.platform()}


def worker(args: argparse.Namespace, deadline: float, setup_only: bool
           ) -> dict:
    """Run one fresh worker; return the JSON object it prints, with its
    set-up time also in reference seconds (``setup_ref_s``)."""
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--cases", str(args.cases)]
    if setup_only:
        cmd.append("--setup-only")
    if args.corrupt:
        cmd.append("--corrupt")
    probe_s = calibrate.SPAWN.time()
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit(f"perfbench: {args.workload} worker passed the "
                         f"{DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {args.workload} worker exited with "
                         f"{proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    probe_s = (probe_s + calibrate.SPAWN.time()) / 2
    res["setup_ref_s"] = res["setup_s"] * calibrate.SPAWN.reference_s / probe_s
    return res


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("corpus_cli", "flavors_z", "ladder_fp"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--cases", type=int, default=0,
                    help="keep only the first N cases (self-test)")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt one expected value (self-test)")
    args = ap.parse_args(argv)

    if not (os.path.isfile(os.path.join("src", "artifact", "__init__.py"))
            and os.path.isdir(os.path.join("corpus", "v1"))
            and os.path.isfile("BENCHMARK.json")):
        print("perfbench: run from the root of a repository checkout; "
              "src/artifact, corpus/v1 or BENCHMARK.json is missing",
              file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    deadline = time.monotonic() + DEADLINE_S
    prov = provenance()
    # one CPU for the probes and the work they calibrate; workers inherit it
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    setups = [worker(args, deadline, True) for _ in range(SETUP_SAMPLES - 1)]
    res = worker(args, deadline, False)
    setups.append(res)
    setup_ref = [s["setup_ref_s"] for s in setups]

    other = {}
    if args.trace:
        wanted = spec["per_layer"]
        values = res["metrics"]
        names = {m["name"] for m in wanted}
        other = {k: v for k, v in values.items() if k not in names}
    else:
        wanted = spec["end_to_end"]
        values = {k: res[k] for k in END_TO_END}
        values["setup_s"] = statistics.median(setup_ref)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}

    detail = {"workload": args.workload, "seed": args.seed,
              "trace": args.trace, "provenance": prov,
              "error_rate": {"value": res["failed"] / res["attempted"],
                             "unit": "ratio"},
              "setup_samples_ref_s": setup_ref,
              "setup_samples_wall_s": [s["setup_s"] for s in setups],
              "first_problem": res["first_problem"]}
    for key in ("tail_percentile", "cases", "samples", "wall", "probe_s",
                "spans_file"):
        if key in res:
            detail[key] = res[key]
    if other:
        detail["other_layer_metrics"] = other
    print(json.dumps(detail))
    print(json.dumps({"correct": res["failed"] == 0,
                      "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
