"""seqnorms benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload exact-dp --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; seqnorms is imported from ``src``.
A run does a fixed number of whole cycles of the workload's requests, about
``--seconds`` long at the reference speed (see NOMINAL_CYCLE_S below).
``--trace 0`` reports the end-to-end metrics of an untraced run.  ``--trace
1`` reports the per-layer metrics: an untraced run of half the cycles, then a
traced run of exactly the same requests, whose digests must match.  The
last line of stdout is one JSON object; the lines before it repeat every
metric with its unit for people.  A full record (metadata, per-request
sizes and latencies, drift probe samples) goes to ``perfbench/out/``.
See ``perfbench/README.md`` for the workloads and what each metric predicts.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("exact-dp", "interval-scan", "small-mixed")
SETUP_PROBES = 11
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it
DEADLINE_S = 170  # the whole run, set-up probes and workers included, ends by then

# The shared host this benchmark was written on (2 vCPUs) changes speed by up
# to 2x, for seconds or minutes at a time: identical requests, CPU time
# tracking wall time.  So every timing the end-to-end metrics report is
# scaled to a reference speed: multiplied by PROBE_REF_S / the mean time of
# the drift probe (worker.probe_s, a fixed Fraction DP that is not seqnorms
# code) measured between the requests of the same cycle, or in the same
# set-up interpreter.  The unscaled values are printed next to them.
PROBE_REF_S = 0.003  # the probe's median time on that host
# Seconds one cycle takes at the reference speed.  A run of --seconds S does
# round(S / NOMINAL_CYCLE_S) cycles, so every run does the same work and
# the tail percentile stays put; it starts no cycle after CAP_FACTOR * S.
NOMINAL_CYCLE_S = {"exact-dp": 7.0, "interval-scan": 25.0, "small-mixed": 1.0}
CAP_FACTOR = 2

E2E_UNITS = {
    "throughput_rps": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, {src!r})
import seqnorms
from seqnorms import cli
cli.build_parser()
t1 = time.perf_counter() - t0
sys.path.insert(0, {here!r})
from statistics import median
from worker import probe_s
print(t1, median(probe_s() for _ in range(5)))
"""


class BenchError(RuntimeError):
    pass


_deadline = None  # set by main(); record.py and selftest.py run workers without one


def remaining() -> float:
    if _deadline is None:
        return 600.0
    left = _deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"the run did not finish within {DEADLINE_S} s")
    return left


def setup_seconds():
    """(scaled, unscaled): medians over fresh interpreters of the time to
    import seqnorms and build the CLI parser."""
    code = SETUP_CODE.format(src=os.path.join(ROOT, "src"), here=HERE)
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=remaining(), cwd=ROOT)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        seconds, probe = map(float, proc.stdout.split())
        scaled.append(seconds * PROBE_REF_S / probe)
        raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def cycles_for(workload, seconds) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


def run_worker(workload, seed, scale, trace, reference, cycles, cap_seconds=0.0):
    tag = f"{workload}-seed{seed}-{scale}-trace{trace}"
    out = os.path.join(OUT, f"worker-{tag}.json")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--scale", scale, "--trace", str(trace), "--out", out,
           "--cycles", str(cycles), "--cap-seconds", str(cap_seconds)]
    if reference:
        cmd += ["--reference", reference]
    if trace:
        cmd += ["--spans", os.path.join(OUT, f"spans-{tag}.json")]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=remaining(), cwd=ROOT)
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    with open(out) as fh:
        return json.load(fh)


def failures(record):
    return [r for r in record["requests"] if r.get("problems")]


def tail(latencies):
    """(value, percentile, samples beyond): the highest nearest-rank
    percentile with at least TAIL_BEYOND samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def slowdown(record):
    """{cycle: mean drift probe time in that cycle / PROBE_REF_S}."""
    samples = {}
    for cycle, seconds in record["drift_probe_s"]:
        samples.setdefault(cycle, []).append(seconds)
    return {c: statistics.mean(v) / PROBE_REF_S for c, v in samples.items()}


def timings(record, scale):
    """Throughput, median and tail latency over the timed cycles, each
    time divided by ``scale[cycle]``.  The warm-up requests (cycle -1)
    only count as attempted."""
    timed = [r for r in record["requests"] if r["cycle"] >= 0]
    latencies = [r["latency_s"] / scale[r["cycle"]] for r in timed]
    per_cycle = [sum(1 for r in timed if r["cycle"] == c) / (busy / scale[c])
                 for c, busy in enumerate(record["busy_by_cycle_s"])]
    tail_value, percentile, beyond = tail(latencies)
    return ({"throughput_rps": statistics.median(per_cycle),
             "latency_p50_s": statistics.median(latencies),
             "latency_tail_s": tail_value},
            f"p{percentile:.1f} of {len(latencies)} requests, {beyond} beyond")


def end_to_end(record, setup):
    metrics, tail_note = timings(record, slowdown(record))
    raw, _ = timings(record, {c: 1.0 for c in range(record["cycles"])})
    metrics.update(peak_rss_mb=record["peak_rss_kb"] / 1024, setup_s=setup[0])
    raw["setup_s"] = setup[1]
    notes = {name: f"unscaled {raw[name]:.6g}" for name in raw}
    notes["latency_tail_s"] += f"; {tail_note}"
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="seqnorms benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny: same request shapes at millisecond sizes (self-test)")
    ap.add_argument("--reference", default=None,
                    help="digest file (default: perfbench/reference/<workload>.json)")
    args = ap.parse_args(argv)
    global _deadline
    _deadline = time.monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(ROOT, "src", "seqnorms", "__init__.py")):
        print(f"error: no seqnorms sources under {os.path.join(ROOT, 'src')}; "
              "run from the root of a seqnorms checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    reference = args.reference or os.path.join(HERE, "reference", f"{args.workload}.json")
    if not os.path.isfile(reference):
        reference = None

    try:
        if args.trace:
            plain = run_worker(args.workload, args.seed, args.scale, 0, reference,
                               cycles_for(args.workload, args.seconds / 2),
                               CAP_FACTOR * args.seconds / 2)
            traced = run_worker(args.workload, args.seed, args.scale, 1, reference,
                                plain["cycles"])
        else:
            setup = setup_seconds()
            plain = run_worker(args.workload, args.seed, args.scale, 0, reference,
                               cycles_for(args.workload, args.seconds),
                               CAP_FACTOR * args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    failed = failures(plain)
    attempted = len(plain["requests"])
    if args.trace:
        from tracer import LAYER_METRICS

        plain_digests = {r["id"]: r.get("digest") for r in plain["requests"]}
        mismatched = [r for r in traced["requests"]
                      if r.get("problems") or r.get("digest") != plain_digests.get(r["id"])]
        failed += mismatched
        attempted += len(traced["requests"])
        # Scaled time per request, traced over untraced.
        overhead = (timings(plain, slowdown(plain))[0]["throughput_rps"]
                    / timings(traced, slowdown(traced))[0]["throughput_rps"])
        values = dict(traced["layers"], **{"trace.overhead_ratio": overhead})
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
        notes = {}
        if traced["scan_fills"]:
            notes["table fills per scan (observed/1+tail grid)"] = ", ".join(
                f"N={s['N']}:{s['fills']}/{s['expected_today']}" for s in traced["scan_fills"])
    else:
        values, notes = end_to_end(plain, setup)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E_UNITS.items()}

    record = {"metrics": metrics, "notes": notes, "failed": failed, "untraced": plain}
    if args.trace:
        record["traced"] = traced
    with open(os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-{args.scale}"
                                f"-trace{args.trace}.json"), "w") as fh:
        json.dump(record, fh, indent=1)

    meta = plain["meta"]
    print(f"# {args.workload} seed={args.seed} commit={meta['commit']} "
          f"source={meta['source_digest']} python={meta['python']} nproc={meta['nproc']} "
          f"cycles={plain['cycles']} reference_checked={meta['reference_checked']}")
    probes = [seconds for _, seconds in plain["drift_probe_s"]]
    print(f"# drift probe ms: start={1e3 * probes[0]:.3f} end={1e3 * probes[-1]:.3f} "
          f"median={1e3 * statistics.median(probes):.3f} over {len(probes)} samples, "
          f"reference {1e3 * PROBE_REF_S:.3f}")
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    print(f"fail_ratio = {len(failed) / attempted:.6g} ratio  ({len(failed)} of {attempted})")
    for name in notes:
        if name not in metrics:
            print(f"# {name}: {notes[name]}")
    for rec in failed[:5]:
        print(f"# FAILED {rec['id']} {rec['kind']} size={rec['size']}: "
              f"{'; '.join(rec.get('problems') or ['digest differs from the untraced run'])[:500]}")
    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": len(failed),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
