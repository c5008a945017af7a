"""Regenerate the reference digests that runs on the default seed compare with.

    python3 perfbench/record.py

Runs every workload on DEFAULT_SEED for more cycles than a timed run
completes, refuses to write anything if an independent check fails, and
writes ``perfbench/reference/<workload>.json``.  Re-record only when a change
is meant to alter results, and say so in the change.
"""
from __future__ import annotations

import json
import os
import sys

from run import HERE, OUT, WORKLOADS, failures, run_worker

DEFAULT_SEED = 1
# Three times the cycles a 35 s run does.
CYCLES_TO_RECORD = {"exact-dp": 15, "interval-scan": 3, "small-mixed": 105}


def main() -> int:
    os.makedirs(OUT, exist_ok=True)
    os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
    for workload in WORKLOADS:
        record = run_worker(workload, DEFAULT_SEED, "full", 0, None,
                            CYCLES_TO_RECORD[workload])
        bad = failures(record)
        if bad:
            print(f"{workload}: {len(bad)} requests fail their checks; nothing written",
                  file=sys.stderr)
            return 1
        digests = {r["id"]: r["digest"] for r in record["requests"]}
        path = os.path.join(HERE, "reference", f"{workload}.json")
        with open(path, "w") as fh:
            json.dump({"workload": workload, "seed": DEFAULT_SEED, "scale": "full",
                       "source_digest": record["meta"]["source_digest"],
                       "digests": digests}, fh, indent=0, sort_keys=True)
            fh.write("\n")
        print(f"{workload}: {len(digests)} digests -> {os.path.relpath(path)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
