"""Record the golden answers: per-op answer digests for the default seed.

    python3 perfbench/record_golden.py [workload ...]

Runs each workload's first cycles untimed and writes perfbench/golden/<name>.json.
A run on the default seed compares every op it shares with that file.  Only
re-record when an answer is meant to change; the file is the reference that
keeps orders, generators and reports byte-identical across changes.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, Runner
from workloads import DEFAULT_SEED, WORKLOAD_NAMES

# Cycles recorded per workload: more than a 55 s run reaches today.
CYCLES = {"analyze-compose": 8, "transitive": 8, "small-arity": 1152, "trees": 40}


def main(names: list[str]) -> int:
    for name in names or WORKLOAD_NAMES:
        runner = Runner(name, DEFAULT_SEED)
        run = runner.run_ops(None, CYCLES[name], [])
        bad = [o for o in run["ops"] if o["failures"]]
        bad_runs = [f for p in run["parts"] for f in p["run_failures"]]
        if bad or bad_runs:
            print(f"{name}: not recorded, checks failed: {bad[:3]} {bad_runs}", file=sys.stderr)
            return 1
        path = os.path.join(HERE, "golden", f"{name}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({"workload": name, "seed": DEFAULT_SEED, "cycles": run["cycles"],
                       "kinds": sorted({o["kind"] for o in run["ops"]}),
                       "digests": [o["digest"] for o in run["ops"]]}, fh, indent=0)
            fh.write("\n")
        print(f"{name}: {len(run['ops'])} ops recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
