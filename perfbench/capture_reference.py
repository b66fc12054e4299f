"""Write corpus_reference.json: the exit code and the parsed
``kind=homology|check|result|pair`` records of every ``corpus_cli`` job.

The committed file was captured at the seed commit; it is the oracle that
``corpus_cli`` compares each job against.  Run from the repository root:

    python3 perfbench/capture_reference.py
"""

import json
import os
import sys

from workloads import REFERENCE, corpus_jobs, parse_records, run_cli


def main() -> int:
    if not os.path.isfile(os.path.join("src", "artifact", "cli.py")):
        print("run from the repository root", file=sys.stderr)
        return 2
    refs = {}
    for argv in corpus_jobs():
        proc = run_cli(argv)
        refs[" ".join(argv)] = {"exit": proc.returncode,
                                "records": parse_records(proc.stdout)}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
