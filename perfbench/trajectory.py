"""Measure one commit and write a trajectory point: for every workload, the
median and quartiles of each end-to-end metric over several seeds, the
spread (interquartile range over median), the same for the raw wall-clock
figures, and one traced run's per-layer metrics.  Run from the repository root:

    python3 perfbench/trajectory.py perfbench/trajectory/<name>.json \
        --seeds 1-10 --seconds 25

Takes about (seeds + 2) x 30 s per workload.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))


def run(workload: str, seed: int, seconds: float, trace: int) -> List[dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace",
         str(trace)], capture_output=True, text=True, check=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    return [json.loads(lines[-2]), json.loads(lines[-1])]


def summary(values: List[float]) -> Dict[str, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("out")
    ap.add_argument("--seeds", default="1-10", help="first-last")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--workloads", default="corpus_cli,flavors_z,ladder_fp")
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(first, last + 1))

    point: Dict[str, object] = {"seeds": seeds, "seconds": args.seconds,
                                "workloads": {}}
    for w in args.workloads.split(","):
        runs = [run(w, s, args.seconds, 0) for s in seeds]
        point["provenance"] = runs[0][0]["provenance"]
        metrics = {}
        for name, m in runs[0][1]["metrics"].items():
            values = [r[1]["metrics"][name]["value"] for r in runs]
            metrics[name] = dict(summary(values), unit=m["unit"],
                                 values=values)
        wall = {name: summary([r[0]["wall"][name] for r in runs])
                for name in ("cases_per_s", "case_s_p50", "case_s_tail")}
        traced = run(w, seeds[0], args.seconds, 1)
        point["workloads"][w] = {
            "attempted": sum(r[1]["attempted"] for r in runs),
            "failed": sum(r[1]["failed"] for r in runs),
            "tail_percentile": runs[0][0]["tail_percentile"],
            "cases": runs[0][0]["cases"],
            "end_to_end": metrics,
            "wall_clock": wall,
            "per_layer": {k: v["value"]
                          for k, v in traced[1]["metrics"].items()},
            "other_layer_metrics": traced[0].get("other_layer_metrics", {}),
        }
        print(w, {k: round(v["spread"], 4) for k, v in metrics.items()},
              flush=True)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(point, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
