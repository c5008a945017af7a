"""One workload run in a fresh interpreter: a single closed-loop client.

Runs the workload's warm-up requests untimed, then ``--cycles`` whole
cycles of its request list, one request at a time (fewer if
``--cap-seconds`` passes first; at least one), checks every result, and
writes a JSON record to ``--out``.  Between requests it samples the drift
probe, so every cycle's times can be scaled to the reference speed.  With
``--trace 1`` the seqnorms layers are wrapped first and the spans go to
``--spans``.

Run by ``run.py``; not meant to be started by hand.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

PROBE_POINTS = 12  # the drift probe's interval DP: 2-4 ms on a 2-vCPU machine
PROBE_EVERY_S = 0.25


def probe_s() -> float:
    """Time a fixed exact interval DP over Fractions, written here and not
    in seqnorms, so no change to the program moves it: the speed of the
    machine at this moment, for the kind of work the workloads do.  The
    cyclic GC is off while it runs, so a large heap left by the program
    does not slow the probe and flatter the program's scaled times."""
    was_enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    s = PROBE_POINTS
    xs = [Fraction((k * 7) % 11 - 5, 1 + k % 6) for k in range(s)]
    half = Fraction(1, 2)
    memo = {}
    for length in range(1, s + 1):
        for i in range(s - length + 1):
            j = i + length
            best = sum(abs(x) for x in xs[i:j]) / (length + 1)
            for k in range(i + 1, j):
                cand = (memo[i, k] + memo[k, j]) * half
                if cand > best:
                    best = cand
            memo[i, j] = best
    elapsed = time.perf_counter() - start
    if was_enabled:
        gc.enable()
    return elapsed


class DriftProbe:
    """Runs ``probe_s`` between requests, about every PROBE_EVERY_S seconds,
    at the start of the run and at the end of every cycle, and keeps
    [cycle, seconds] samples."""

    def __init__(self):
        self.samples = []
        self.last = time.perf_counter()

    def between(self, cycle, force=False):
        if force or time.perf_counter() - self.last >= PROBE_EVERY_S:
            self.samples.append([cycle, probe_s()])
            self.last = time.perf_counter()


def source_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "seqnorms")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_round(requests, tracer, reference, records, cycle, drift) -> float:
    """Run one round as a closed loop; append a record per request and
    return the time spent inside requests."""
    busy = 0.0
    for req in requests:
        rec = {"id": req.id, "kind": req.kind, "size": req.size, "cycle": cycle}
        if tracer is not None:
            tracer.request = req.id
            root = tracer.begin("request")
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = req.call()
        except Exception as exc:  # a failed request is counted, not fatal
            result = None
            rec["problems"] = [f"raised {type(exc).__name__}: {exc}",
                               traceback.format_exc(limit=3)]
        t1, c1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.end(root)
        rec["latency_s"] = t1 - t0
        rec["cpu_s"] = c1 - c0
        busy += t1 - t0
        if result is not None:
            rec["digest"] = digest(req.digest(result))
            try:
                problems = req.check(result)
            except Exception as exc:  # output the checks cannot read is a wrong result
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            expected = reference.get(req.id) if reference else None
            if expected is not None and expected != rec["digest"]:
                problems.append(f"digest {rec['digest']} != reference {expected}")
            rec["problems"] = problems
        records.append(rec)
        drift.between(cycle)
    return busy


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cycles", type=int, required=True, help="timed cycles to run")
    ap.add_argument("--cap-seconds", type=float, default=0.0,
                    help="start no further cycle after this many seconds (0: no cap)")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--scale", default="full")
    ap.add_argument("--reference", default=None, help="digest file to compare results with")
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args()

    drift = DriftProbe()
    drift.between(-1, force=True)
    from workloads import CYCLES, make_round, tail_fills_expected, warmup  # imports seqnorms

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    reference = None
    if args.reference:
        with open(args.reference) as fh:
            ref = json.load(fh)
        if ref["workload"] == args.workload and ref["seed"] == args.seed and ref["scale"] == args.scale:
            reference = ref["digests"]

    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.dirname(args.out))
    records = []
    busy_by_cycle = []
    started = time.perf_counter()
    cycles = 0
    try:
        # Warm-up, untimed: cycle -1 in the records.
        run_round(warmup(args.workload, args.seed, workdir), tracer, reference, records, -1,
                  drift)
        length = CYCLES[args.workload]
        while cycles < args.cycles:
            busy_by_cycle.append(sum(
                run_round(make_round(args.workload, args.seed, cycles * length + k,
                                     args.scale, workdir),
                          tracer, reference, records, cycles, drift)
                for k in range(length)))
            drift.between(cycles, force=True)
            cycles += 1
            if args.cap_seconds and time.perf_counter() - started > args.cap_seconds:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    wall = time.perf_counter() - started

    out = {
        "meta": {
            "workload": args.workload,
            "seed": args.seed,
            "scale": args.scale,
            "trace": args.trace,
            "commit": commit(),
            "source_digest": source_digest(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "reference_checked": reference is not None,
        },
        "cycles": cycles,
        "wall_s": wall,
        "busy_by_cycle_s": busy_by_cycle,
        "drift_probe_s": drift.samples,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "requests": records,
    }
    if tracer is not None:
        out["layers"] = tracer.layer_metrics()
        out["scan_fills"] = [
            {"id": r["id"], "N": r["size"], "fills": tracer.fills[r["id"]],
             "expected_today": tail_fills_expected(r["size"])}
            for r in records if r["kind"] == "scan-tsirelson"
        ]
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "request"],
                       "spans": tracer.spans}, fh)
    with open(args.out, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
