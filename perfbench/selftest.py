"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks, for every workload, that
  * every metric named in BENCHMARK.json prints with its unit, on the JSON
    line and on the human-readable lines (fail_ratio too);
  * a clean run against freshly recorded digests has no failures;
  * a deliberately corrupted reference digest raises fail_ratio;
  * traced and untraced runs give identical result digests;
and that the benchmark refuses to run, without printing a result, in a
directory that holds only BENCHMARK.json and the benchmark's own files.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

from run import HERE, OUT, ROOT, WORKLOADS, run_worker

SEED = 5


def bench(*args):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args],
                          capture_output=True, text=True, timeout=170, cwd=ROOT)
    if proc.returncode != 0:
        raise AssertionError(f"run.py {' '.join(args)} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def check_metrics(result, lines, declared):
    names = [m["name"] for m in declared]
    if list(result["metrics"]) != names:
        raise AssertionError(f"metrics {list(result['metrics'])} != declared {names}")
    for m in declared:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
            raise AssertionError(f"{m['name']}: {got}")
        if not any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                   for line in lines):
            raise AssertionError(f"{m['name']} has no human-readable line with its unit")
    if not any(line.startswith("fail_ratio = ") and " ratio" in line for line in lines):
        raise AssertionError("fail_ratio is not printed")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    os.makedirs(OUT, exist_ok=True)
    common = ["--seed", str(SEED), "--seconds", "1", "--scale", "tiny"]
    for workload in WORKLOADS:
        record = run_worker(workload, SEED, "tiny", 0, None, 2)
        digests = {r["id"]: r["digest"] for r in record["requests"]}
        ref = {"workload": workload, "seed": SEED, "scale": "tiny", "digests": digests}
        ref_path = os.path.join(OUT, f"selftest-ref-{workload}.json")
        with open(ref_path, "w") as fh:
            json.dump(ref, fh)

        result, lines = bench("--workload", workload, "--trace", "0", "--reference", ref_path, *common)
        check_metrics(result, lines, spec["end_to_end"])
        if not result["correct"] or result["failed"]:
            raise AssertionError(f"{workload}: clean run failed: {lines[-5:]}")

        result, lines = bench("--workload", workload, "--trace", "1", "--reference", ref_path, *common)
        check_metrics(result, lines, spec["per_layer"])
        if not result["correct"] or result["failed"]:
            raise AssertionError(f"{workload}: traced digests differ from untraced: {lines[-5:]}")

        first = next(iter(digests))
        ref["digests"][first] = "0" * 16
        with open(ref_path, "w") as fh:
            json.dump(ref, fh)
        result, lines = bench("--workload", workload, "--trace", "0", "--reference", ref_path, *common)
        if result["correct"] or result["failed"] < 1:
            raise AssertionError(f"{workload}: a corrupted digest did not count as a failure")
        print(f"ok  {workload}")

    bare = tempfile.mkdtemp(prefix="bare-", dir=OUT)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              capture_output=True, text=True, timeout=170, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            raise AssertionError("the benchmark ran without the program's sources")
    finally:
        shutil.rmtree(bare)
    print("ok  refuses to run without the sources")
    return 0


if __name__ == "__main__":
    sys.exit(main())
