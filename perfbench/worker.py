"""Run one workload in this interpreter and print its raw results as one
JSON line.  ``run.py`` starts a fresh worker for every run, from the
repository root with ``src`` on ``PYTHONPATH``, so that peak memory and any
cache inside the program cannot leak from one workload into another.

    python3 perfbench/worker.py WORKLOAD --seed N --seconds S --trace 0|1
        --spawned-at T [--setup-only] [--cases K] [--corrupt]

``--spawned-at`` is the parent's ``time.monotonic()`` just before it
started this process (a system-wide clock), so set-up time includes the
interpreter's own start-up.  ``--cases`` keeps the first K cases and
``--corrupt`` corrupts one expected value; both serve the self-test.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Callable, Dict, List, NamedTuple, Optional, Set, Tuple

import calibrate
from tracing import COUNTS, DISTINCT, TARGETS, Tracer
from workloads import WORKLOADS, run_corpus_cli

OUT_DIR = ".perfbench_out"


class Pass(NamedTuple):
    samples: List[List[float]]   # per case, in reference seconds
    wall: List[List[float]]      # per case, in wall seconds
    probe_s: List[float]         # calibration probe times between cases
    attempted: int
    failed: int                  # attempts with a wrong answer
    wrong_cases: Set[int]
    first_problem: Optional[str]

    def cases_per_s(self, samples: List[List[float]]) -> float:
        """Correct cases per second of one pass over the list, the pass
        timed as the sum of each case's median time.  A partial last pass
        would weigh some cases twice."""
        pass_s = sum(statistics.median(s) for s in samples)
        return (len(samples) - len(self.wrong_cases)) / pass_s


def measure(cases: list, run_one: Callable[[int, object], List[str]],
            seconds: float, probe: calibrate.Probe) -> Pass:
    """Closed loop, one case at a time: cycle through the cases until at
    least one full pass is done and ``seconds`` have elapsed.  Each case is
    timed in wall seconds and, through the probes run between cases, in
    reference seconds."""
    order: List[Tuple[int, float]] = []   # (case, wall seconds) per attempt
    probe_s: List[float] = []
    failed = 0
    wrong_cases: Set[int] = set()
    first_problem = None
    t0 = time.perf_counter()
    while len(order) < len(cases) or time.perf_counter() - t0 < seconds:
        k = len(order) % len(cases)
        probe_s.append(probe.time())
        ts = time.perf_counter()
        try:
            problems = run_one(k, cases[k])
        except Exception:  # a case that raises is a wrong answer
            problems = [traceback.format_exc(limit=4)]
        order.append((k, time.perf_counter() - ts))
        if problems:
            failed += 1
            wrong_cases.add(k)
            first_problem = first_problem or f"case {k}: {problems[0]}"
    probe_s.append(probe.time())
    samples: List[List[float]] = [[] for _ in cases]
    wall: List[List[float]] = [[] for _ in cases]
    for i, (k, dt) in enumerate(order):
        wall[k].append(dt)
        samples[k].append(dt * probe.reference_s / probe.speed(probe_s, i))
    return Pass(samples, wall, probe_s, len(order), failed, wrong_cases,
                first_problem)


def tail(values: List[float]) -> Tuple[int, float]:
    """(q, value) for the highest whole percentile q that has at least ten
    values beyond it, by nearest rank; (100, max) when there are too few."""
    ordered = sorted(values)
    m = len(ordered)
    for q in range(99, 0, -1):
        rank = -(-q * m // 100)
        if m - rank >= 10:
            return q, ordered[rank - 1]
    return 100, ordered[-1]


def peak_rss_mb(in_process: bool) -> float:
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def case_stats(p: Pass, samples: List[List[float]]) -> Dict[str, float]:
    per_case = [statistics.median(s) for s in samples]
    q, tail_s = tail(per_case)
    return {"cases_per_s": p.cases_per_s(samples),
            "case_s_p50": statistics.median(per_case),
            "case_s_tail": tail_s, "tail_percentile": q}


def timed_result(p: Pass, in_process: bool) -> Dict[str, object]:
    out: Dict[str, object] = case_stats(p, p.samples)
    out.update({"wall": case_stats(p, p.wall),
                "probe_s": {"median": statistics.median(p.probe_s),
                            "min": min(p.probe_s), "max": max(p.probe_s)},
                "cases": len(p.samples),
                "samples": p.attempted,
                "peak_rss_mb": peak_rss_mb(in_process),
                "attempted": p.attempted, "failed": p.failed,
                "first_problem": p.first_problem})
    return out


def layer_metrics(tracer: Tracer, extra: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer number the trace gives, by metric name; a layer that
    did not run reads 0."""
    out: Dict[str, float] = {"cli.startup_s": 0.0, "cli.import_s": 0.0}
    out.update(extra)
    self_s = tracer.self_times()
    for span, *_ in TARGETS:
        out[f"{span}.calls"] = tracer.counts[span]
        out[f"{span}.self_s"] = self_s.get(span, 0.0)
    for span in DISTINCT:
        out[f"{span}.distinct_frac"] = tracer.distinct_frac(span)
    for key in COUNTS:
        out[key] = tracer.counts[key]
    return out


def traced_result(wl, cases: list, seed: int, workload: str
                  ) -> Dict[str, object]:
    """One untraced pass, then one traced pass over the same cases."""
    untraced = measure(cases, lambda k, c: wl.run(c), 0, wl.probe)
    tracer = Tracer()
    if wl.in_process:
        tracer.install()
        try:
            traced = measure(
                cases, lambda k, c: tracer.run_case(k, lambda: wl.run(c)), 0,
                wl.probe)
        finally:
            tracer.uninstall()
        extra = {}
    else:
        startup: List[float] = []
        imports: List[float] = []

        def run_traced_job(k: int, job) -> List[str]:
            path = os.path.join(OUT_DIR, f"{workload}-job{k}.json")
            t = time.perf_counter()
            problems = run_corpus_cli(job, traced_to=path)
            wall = time.perf_counter() - t
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
            os.remove(path)
            job_extra = data.pop("extra")
            startup.append(wall - job_extra["in_process_s"])
            imports.append(job_extra["import_s"])
            tracer.absorb(data, k)
            return problems

        traced = measure(cases, run_traced_job, 0, wl.probe)
        extra = {"cli.startup_s": statistics.median(startup),
                 "cli.import_s": statistics.median(imports)}
    extra["tracing.cases_per_s_ratio"] = (traced.cases_per_s(traced.samples)
                                          / untraced.cases_per_s(untraced.samples))
    spans = os.path.join(OUT_DIR, f"{workload}-seed{seed}.spans.tsv")
    tracer.write(spans)
    return {"metrics": layer_metrics(tracer, extra),
            "spans_file": spans,
            "attempted": untraced.attempted + traced.attempted,
            "failed": untraced.failed + traced.failed,
            "first_problem": untraced.first_problem or traced.first_problem}


def main(argv: Optional[List[str]] = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--cases", type=int, default=0)
    ap.add_argument("--corrupt", action="store_true")
    args = ap.parse_args(argv)

    wl = WORKLOADS[args.workload]
    if wl.in_process:
        import artifact  # noqa: F401  (import time belongs to set-up)
    cases = wl.build(args.seed, args.corrupt)[:args.cases or None]
    wl.warm_up()
    setup_s = time.monotonic() - args.spawned_at
    if args.setup_only:
        result: Dict[str, object] = {}
    elif args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        result = traced_result(wl, cases, args.seed, args.workload)
    else:
        p = measure(cases, lambda k, c: wl.run(c), args.seconds, wl.probe)
        result = timed_result(p, wl.in_process)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
