"""Request generators and result checks for the three benchmark workloads.

A workload is a fixed list of request *shapes* (one "round"), repeated in
cycles of a few rounds (CYCLES).  The seed only draws the inputs that fill
each shape: vector positions and values, and the order in which a slot
takes its sizes within a cycle (see ``_level``).  Every request draws its
inputs from its own ``Random`` keyed by (workload, seed, round, slot), so a
request's inputs do not depend on timing, on how many requests ran before
it, or on whether the run is traced.  Positions are drawn fresh for every
request and every round, so the oracle's module-level family cache never
serves a repeat that a one-shot CLI user would not get.

Each request is a zero-argument ``call`` (the timed part), a ``digest``
that turns its result into a stable string, and a ``check`` that returns
a list of problems found by checks independent of the digest.
"""
from __future__ import annotations

import contextlib
import io
import os
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Callable, List, Tuple

from seqnorms import FiniteVector, classical, cli, core, tsirelson
from seqnorms.core import HFunction, WeightSpec
from seqnorms.series import CoefficientGenerator

WORKLOADS = ("exact-dp", "interval-scan", "small-mixed")

IDEAL = "tsirelson-ideal:alpha=1/2,f=harmonic"
ALPHAS = ((1, 2), (1, 3), (2, 3))
DENOMINATORS = (1, 2, 3, 4, 5, 6, 8, 9, 10, 12)
REL_TOL = 1e-9
# Rounds per cycle.  Runs measure whole cycles, at least one.  At full scale
# on a 2-vCPU machine (Python 3.11) one cycle of exact-dp takes 4-8 s, one of
# small-mixed about 1.5 s, so a 45 s run holds several of them and reports
# medians over them; one cycle of interval-scan takes 18-35 s.
CYCLES = {"exact-dp": 2, "interval-scan": 7, "small-mixed": 3}

# Sizes per scale.  "full" is what the benchmark measures; "tiny" keeps the
# same request shapes at sizes that run in milliseconds, for the self-test.
SIZES = {
    "full": {
        # slots per group; full-range sizes lo..hi, library band lib_lo..lib_hi
        "dp_sizes": (6, 16, 48, 24, 32),
        "dp_cli_hi": 34,  # the level route's largest support
        "dp_top": (2, 48),  # slots of the top block, and their support
        "scan_n": (32, 48),
        "membership_n": (64, 96),
        "orlicz_n": (64, 80),
        "lorentz_n": (100, 140),
        "float_strata": ((16, 30), (32, 48)),
        "oracle_strata": ((3, 5), (6, 7)),
        "cjt_samples": 20,
        "certify_k": 3,
        "classical_entries": (900, 1100),
        "parse_tokens": 10_000,
    },
    "tiny": {
        "dp_sizes": (3, 4, 8, 5, 6),
        "dp_cli_hi": 7,
        "dp_top": (1, 8),
        "scan_n": (6, 10),
        "membership_n": (12, 20),
        "orlicz_n": (12, 16),
        "lorentz_n": (12, 16),
        "float_strata": ((4, 6), (6, 8)),
        "oracle_strata": ((3, 5), (4, 6)),
        "cjt_samples": 3,
        "certify_k": 1,
        "classical_entries": (40, 60),
        "parse_tokens": 200,
    },
}


@dataclass
class Request:
    id: str
    kind: str
    size: int
    call: Callable[[], object]
    digest: Callable[[object], str]
    check: Callable[[object], List[str]]


# ---------------------------------------------------------------------------
# Shared helpers


def _level(workload: str, seed: int, slot: int, round_index: int, lo: int, hi: int):
    """(level, size): which of the cycle's evenly spaced sizes in [lo, hi]
    a slot gets in this round.

    Within each cycle a slot takes every level once, in an order drawn from
    the seed.  So the seed changes which request gets which size, but every
    whole cycle holds the same mix of small and large requests, and a run
    of whole cycles does the same amount of work on every seed.
    """
    length = CYCLES[workload]
    cycle, k = divmod(round_index, length)
    order = list(range(length))
    Random(f"{workload}/{seed}/{slot}/{cycle}/order").shuffle(order)
    i = order[k]
    return i, lo + round(i * (hi - lo) / (length - 1))


def _alpha(slot: int, round_index: int) -> Fraction:
    return Fraction(*ALPHAS[(slot + round_index) % len(ALPHAS)])


def _random_vector(rng: Random, s: int, max_start: int = 4) -> List[Tuple[int, Fraction]]:
    """s nonzero rationals with mixed denominators on gapped positions."""
    pos = rng.randint(1, max_start) - 1
    pairs = []
    for _ in range(s):
        pos += rng.randint(1, 3)
        value = Fraction(rng.choice((-1, 1)) * rng.randint(1, 20), rng.choice(DENOMINATORS))
        pairs.append((pos, value))
    return pairs


def _write_vector(workdir: str, name: str, pairs) -> str:
    path = os.path.join(workdir, name + ".txt")
    with open(path, "w") as fh:
        fh.write(" ".join(f"{n}:{v}" for n, v in pairs) + "\n")
    return path


def run_cli(argv: List[str]) -> Tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue()


def _cli_digest(result) -> str:
    code, stdout = result
    return f"exit={code}\n{stdout}"


def _value_digest(value) -> str:
    return f"{type(value).__name__}:{value!r}"


def _rows(stdout: str) -> List[List[str]]:
    return [line.split(",") for line in stdout.splitlines() if line and not line.startswith("#")]


def _row_value(rows, key: str):
    for row in rows:
        if row[0] == key:
            return row[1:]
    return None


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _sandwich(value, coeffs, exact: bool) -> List[str]:
    """sup |a| <= ||x|| <= sum |a| holds for every Tsirelson-type norm."""
    sup = max(abs(a) for a in coeffs)
    l1 = sum(abs(a) for a in coeffs)
    if exact:
        ok = sup <= value <= l1
    else:
        ok = float(sup) * (1 - REL_TOL) <= float(value) <= float(l1) * (1 + REL_TOL)
    return [] if ok else [f"value {value} outside [sup, l1] = [{sup}, {l1}]"]


def _expect_exit(result, expected: int = 0) -> List[str]:
    code = result[0]
    return [] if code == expected else [f"exit code {code}, expected {expected}"]


# ---------------------------------------------------------------------------
# exact-dp: one fresh exact DP per request


def _dp_size(lo: int, hi: int, q: float) -> int:
    """The q-quantile of the density proportional to s**-2 on [lo, hi]:
    small supports are common, and each size band up to 48 takes a
    comparable share of the DP time, which grows about as s**3.7."""
    a, b = 1 / lo, 1 / hi
    return min(hi, int(1 / (a - q * (a - b))))


def exact_dp_round(seed: int, round_index: int, scale: str, workdir: str) -> List[Request]:
    # Three groups of `count` slots and a top block:
    #   0. the CLI level route (`seqnorms norm`) on sizes lo..dp_cli_hi;
    #   1. the library fixed-point route on sizes lo..hi;
    #   2. the library route on the narrow band lib_lo..lib_hi, whose costs
    #      overlap the middle of the others: a dense group of similar
    #      requests around the median latency;
    #   3. the library route at the top support, alpha 1/2 and no h: a dense
    #      block of the dearest requests, which a run holds about twice as
    #      many of as the tail percentile leaves beyond it, so the tail
    #      latency falls inside the block.  The level route costs 2-3 times
    #      a single DP and varies with the vector, so it stops at
    #      dp_cli_hi, where it stays below the block.
    # Over a cycle the slots of groups 0-2 take evenly spaced quantiles of
    # their size density.  Alpha and h follow the quantile, not the slot, so
    # every cycle holds the same (size, alpha, h) mix on every seed: some of
    # them cost several times more than others.
    count, lo, hi, lib_lo, lib_hi = SIZES[scale]["dp_sizes"]
    top_count, top_s = SIZES[scale]["dp_top"]
    length = CYCLES["exact-dp"]
    out = []
    for slot in range(3 * count + top_count):
        group, j = divmod(slot, count)
        rng = Random(f"exact-dp/{seed}/{round_index}/{slot}")
        i, _ = _level("exact-dp", seed, slot, round_index, lo, hi)
        quantile = j * length + i
        q = (quantile + 0.5) / (count * length)
        if group == 0:
            s = _dp_size(lo, SIZES[scale]["dp_cli_hi"], q)
        elif group == 1:
            s = _dp_size(lo, hi, q)
        elif group == 2:
            s = lib_lo + int(q * (lib_hi - lib_lo + 1))
        else:
            s = top_s
        pairs = _random_vector(rng, s)
        coeffs = [v for _, v in pairs]
        alpha = _alpha(group, quantile) if group < 3 else Fraction(1, 2)
        use_h = group < 3 and (group + quantile) % 4 == 3
        rid = f"r{round_index}s{slot}"
        if group == 0:
            path = _write_vector(workdir, rid, pairs)
            space = f"tsirelson:alpha={alpha}" + (",h=affine:2:0" if use_h else "")
            out.append(Request(
                rid, "norm-level-cli", s,
                call=lambda argv=["norm", space, path]: run_cli(argv),
                digest=_cli_digest,
                check=lambda r, c=coeffs: _check_level_output(r, c),
            ))
        else:
            v = FiniteVector.from_pairs(pairs)
            h = HFunction.affine(2, 0) if use_h else None
            out.append(Request(
                rid, "fixed-point-lib", s,
                call=lambda a=alpha, v=v, h=h: tsirelson.fixed_point_norm(a, v, h=h),
                digest=_value_digest,
                check=lambda r, c=coeffs: _sandwich(r, c, exact=True),
            ))
    return out


def _check_level_output(result, coeffs) -> List[str]:
    problems = _expect_exit(result)
    if problems:
        return problems
    rows = _rows(result[1])
    cell = _row_value(rows, "norm")
    if cell is None:
        return ["no norm row"]
    value = Fraction(cell[0])
    problems += _sandwich(value, coeffs, exact=True)
    levels = [Fraction(row[1]) for row in rows if row[0].startswith("level_")]
    if not levels or levels[-1] != value:
        problems.append("last level differs from the norm")
    if any(b < a for a, b in zip(levels, levels[1:])):
        problems.append("level norms decrease")
    return problems


# ---------------------------------------------------------------------------
# interval-scan: many interval queries on one generated vector


def _generator_values(name: str, n: int) -> List[Fraction]:
    gen = CoefficientGenerator.harmonic() if name == "harmonic" else CoefficientGenerator.power(2)
    return [gen.value(k) for k in range(1, n + 1)]


def interval_scan_round(seed: int, round_index: int, scale: str, workdir: str) -> List[Request]:
    # Four slots.  The Tsirelson scan and the evens membership are the heavy
    # interval-query requests; the Orlicz scan sits between them and the
    # cheap Lorentz scan, so the median latency lands inside one group of
    # requests.  Variants follow the size level, so a cycle's mix is the same
    # on every seed.
    sizes = SIZES[scale]
    cycle = round_index // CYCLES["interval-scan"]
    out = []

    def level(slot, bounds):
        return _level("interval-scan", seed, slot, round_index, *bounds)

    i, N = level(0, sizes["scan_n"])
    variant = (i + cycle) % 4
    space = ("tsirelson:alpha=1/2", "tsirelson:alpha=1/2,h=affine:2:0")[variant % 2]
    gen = ("harmonic", "power:s=2")[variant // 2]
    out.append(Request(
        f"r{round_index}s0", "scan-tsirelson", N,
        call=lambda argv=["scan", space, gen, str(N)]: run_cli(argv),
        digest=_cli_digest,
        check=lambda r, N=N: _check_scan(r, _generator_values(gen, N), tsirelson_space=True),
    ))

    _, H = level(1, sizes["membership_n"])
    out.append(Request(
        f"r{round_index}s1", "membership", H,
        call=lambda argv=["ideal", "membership", IDEAL, "evens", "--N", str(H)]: run_cli(argv),
        digest=_cli_digest,
        check=_check_membership,
    ))

    _, N = level(2, sizes["orlicz_n"])
    out.append(Request(
        f"r{round_index}s2", "scan-orlicz", N,
        call=lambda argv=["scan", "orlicz:power=3", "harmonic", str(N)]: run_cli(argv),
        digest=_cli_digest,
        check=lambda r, N=N: _check_scan(r, _generator_values("harmonic", N), power=3),
    ))

    i, N = level(3, sizes["lorentz_n"])
    p = 1 + (i + cycle) % 2
    lorentz_gen = ("harmonic", "power:s=2")[(i + cycle) // 2 % 2]
    out.append(Request(
        f"r{round_index}s3", "scan-lorentz", N,
        call=lambda argv=["scan", f"lorentz:w=harmonic,p={p}", lorentz_gen, str(N)]: run_cli(argv),
        digest=_cli_digest,
        check=lambda r, N=N: _check_scan(r, _generator_values(lorentz_gen, N), lorentz=p),
    ))
    return out


def _check_scan(result, coeffs, tsirelson_space=False, power=None, lorentz=None) -> List[str]:
    problems = _expect_exit(result)
    if problems:
        return problems
    rows = [r for r in _rows(result[1]) if r[0] != "K"]
    if [int(r[0]) for r in rows] != list(range(1, len(coeffs) + 1)):
        return ["prefix rows are not K = 1..N"]
    values = [Fraction(r[1]) if "/" in r[1] or r[1].lstrip("-").isdigit() else float(r[1]) for r in rows]
    if any(b < a for a, b in zip(values, values[1:])):
        problems.append("prefix norms decrease")
    for K, value in enumerate(values, start=1):
        prefix = coeffs[:K]
        if tsirelson_space:
            problems += _sandwich(value, prefix, exact=True)
        elif power is not None:
            # Luxemburg norm of M(t) = t^p is the l_p norm.
            expected = sum(float(a) ** power for a in prefix) ** (1 / power)
            if not _close(float(value), expected, 1e-8):
                problems.append(f"orlicz prefix {K}: {value} != lp {expected}")
        elif lorentz:
            problems += _check_lorentz(value, prefix, lorentz)
        if len(problems) > 3:
            break
    return problems


def _check_membership(result) -> List[str]:
    problems = _expect_exit(result)
    verdict = _row_value(_rows(result[1]), "verdict")
    if verdict is None or verdict[0] not in ("member-trend", "non-member-trend", "inconclusive"):
        problems.append(f"bad verdict row {verdict}")
    return problems


# ---------------------------------------------------------------------------
# small-mixed: cheap requests where per-call cost and non-DP layers dominate


def small_mixed_round(seed: int, round_index: int, scale: str, workdir: str) -> List[Request]:
    sizes = SIZES[scale]
    out = []

    def rng_for(slot):
        return Random(f"small-mixed/{seed}/{round_index}/{slot}")

    def rid(slot):
        return f"r{round_index}s{slot}"

    slot = 0
    for lo, hi in sizes["float_strata"]:
        rng = rng_for(slot)
        # Alpha follows the size level, so every cycle holds the same
        # (size, alpha) mix on every seed.
        i, s = _level("small-mixed", seed, slot, round_index, lo, hi)
        pairs = _random_vector(rng, s)
        path = _write_vector(workdir, rid(slot), pairs)
        alpha = _alpha(slot, i)
        out.append(Request(
            rid(slot), "norm-float-cli", s,
            call=lambda argv=["norm", f"tsirelson:alpha={alpha}", path, "--float"]: run_cli(argv),
            digest=_cli_digest,
            check=lambda r, c=[v for _, v in pairs]: _check_float_norm(r, c),
        ))
        slot += 1

    rng = rng_for(slot)
    samples = sizes["cjt_samples"]
    argv = ["blocks", "cjt", "--samples", str(samples), "--seed", str(rng.randint(0, 10**6)),
            "--alpha", str(_alpha(slot, round_index))]
    out.append(Request(rid(slot), "blocks-cjt", samples,
                       call=lambda argv=argv: run_cli(argv), digest=_cli_digest, check=_check_cjt))
    slot += 1

    for lo, hi in sizes["oracle_strata"]:
        rng = rng_for(slot)
        i, s = _level("small-mixed", seed, slot, round_index, lo, hi)
        pairs = _random_vector(rng, s, max_start=12)
        path = _write_vector(workdir, rid(slot), pairs)
        alpha = _alpha(slot, i)
        out.append(Request(
            rid(slot), "oracle-cli", s,
            call=lambda argv=["oracle", str(alpha), path]: run_cli(argv),
            digest=_cli_digest,
            check=lambda r, c=[v for _, v in pairs]: _check_oracle(r, c),
        ))
        slot += 1

    k = sizes["certify_k"]
    out.append(Request(
        rid(slot), "certify", k,
        call=lambda argv=["certify", "harmonic-tsirelson", "--k", str(k)]: run_cli(argv),
        digest=_cli_digest, check=_check_certify,
    ))
    slot += 1

    def classical_vector(rng, slot):
        _, n = _level("small-mixed", seed, slot, round_index, *sizes["classical_entries"])
        return [Fraction(rng.choice((-1, 1)) * rng.randint(1, 50), rng.choice(DENOMINATORS))
                for _ in range(n)]

    rng = rng_for(slot)
    coeffs = classical_vector(rng, slot)
    p = 2 + round_index % 2
    v = FiniteVector.from_dense(coeffs)
    out.append(Request(
        rid(slot), "luxemburg-lib", len(coeffs),
        call=lambda M=classical.OrliczFunction.power(p), v=v: classical.luxemburg_norm(M, v),
        digest=_value_digest,
        check=lambda r, c=coeffs, p=p: [] if _close(float(r), _lp_float(c, p), 1e-8)
        else [f"luxemburg {r} != lp {_lp_float(c, p)}"],
    ))
    slot += 1

    # Two Lorentz requests (p = 1 only, one cost level) sit in the middle of
    # the round's latencies: five requests are cheaper (certify, two oracle
    # checks, two lp norms) and five dearer (parse, cjt, two float norms,
    # Luxemburg).  So the workload's median latency falls inside this group
    # rather than on the gap between two kinds of request.
    for _ in range(2):
        rng = rng_for(slot)
        coeffs = classical_vector(rng, slot)
        v = FiniteVector.from_dense(coeffs)
        out.append(Request(
            rid(slot), "lorentz-lib", len(coeffs),
            call=lambda v=v: classical.lorentz_norm(WeightSpec.harmonic(), 1, v),
            digest=_value_digest,
            check=lambda r, c=coeffs: _check_lorentz(r, c, 1),
        ))
        slot += 1

    for k in range(2):
        rng = rng_for(slot)
        coeffs = classical_vector(rng, slot)
        p = 1 + (round_index + k) % 3
        v = FiniteVector.from_dense(coeffs)
        out.append(Request(
            rid(slot), "lp-lib", len(coeffs),
            call=lambda p=p, v=v: classical.lp_norm(p, v),
            digest=_value_digest,
            check=lambda r, c=coeffs, p=p: _check_lp(r, c, p),
        ))
        slot += 1

    rng = rng_for(slot)
    tokens = sizes["parse_tokens"]
    values = [Fraction(rng.randint(-99, 99), rng.choice(DENOMINATORS)) for _ in range(tokens)]
    text = " ".join(str(x) for x in values)
    out.append(Request(
        rid(slot), "parse-lib", tokens,
        call=lambda text=text: core.parse_vector(text),
        digest=lambda r: _value_digest(r.coeffs),
        check=lambda r, values=values: [] if list(r.coeffs) == _trimmed(values)
        else ["parsed coefficients differ from the written ones"],
    ))
    return out


def _trimmed(values: List[Fraction]) -> List[Fraction]:
    # FiniteVector drops trailing zeros.
    out = list(values)
    while out and out[-1] == 0:
        out.pop()
    return out


def _lp_float(coeffs, p) -> float:
    return sum(abs(float(a)) ** p for a in coeffs) ** (1 / p)


def _check_float_norm(result, coeffs) -> List[str]:
    problems = _expect_exit(result)
    if problems:
        return problems
    cell = _row_value(_rows(result[1]), "norm")
    if cell is None:
        return ["no norm row"]
    return _sandwich(float(cell[1]), coeffs, exact=False)


def _check_cjt(result) -> List[str]:
    problems = _expect_exit(result)
    rows = [r for r in _rows(result[1]) if r[0] != "sample"]
    for row in rows:
        ratio = Fraction(row[1])
        if row[3] != "PASS" or not Fraction(1, 3) <= ratio <= 18:
            problems.append(f"cjt sample {row[0]} outside [1/3, 18]: {row[1]}")
    return problems


def _check_oracle(result, coeffs) -> List[str]:
    problems = _expect_exit(result)
    rows = _rows(result[1])
    dp, oracle, flag = (_row_value(rows, k) for k in ("dp", "oracle", "flag"))
    if dp is None or oracle is None or flag is None:
        return problems + ["missing dp/oracle/flag rows"]
    if Fraction(dp[0]) != Fraction(oracle[0]) or flag[0] != "AGREE":
        problems.append(f"DP {dp[0]} != oracle {oracle[0]}")
    return problems + _sandwich(Fraction(dp[0]), coeffs, exact=True)


def _check_certify(result) -> List[str]:
    problems = _expect_exit(result)
    rows = _rows(result[1])
    bound, value = _row_value(rows, "lower_bound"), _row_value(rows, "certificate_value")
    if bound is None or value is None or bound[0] != value[0]:
        problems.append(f"certificate value {value} != bound {bound}")
    return problems


def _check_lorentz(result, coeffs, p) -> List[str]:
    ordered = sorted((abs(a) for a in coeffs), reverse=True)
    total = sum(a ** p * Fraction(1, i + 1) for i, a in enumerate(ordered))
    if p == 1:
        return [] if result == total else [f"lorentz {result} != {total}"]
    expected = float(total) ** (1 / p)
    return [] if _close(float(result), expected) else [f"lorentz {result} != {expected}"]


def _check_lp(result, coeffs, p) -> List[str]:
    if p == 1:
        expected = sum(abs(a) for a in coeffs)
        return [] if result == expected else [f"l1 {result} != {expected}"]
    expected = _lp_float(coeffs, p)
    return [] if _close(float(result), expected) else [f"lp {result} != {expected}"]


# ---------------------------------------------------------------------------
# Coverage requests: one cheap request for each layer a workload's own
# requests never reach.  They run once, as the warm-up before the timed
# cycles: they are checked (and traced in a traced run), so every per-layer
# metric is a measured, nonzero number on every workload, but they are not
# part of the timed mix.


def _coverage(name: str, seed: int, workdir: str) -> Request:
    rid = f"w-{name}"
    rng = Random(f"coverage/{seed}/{name}")
    if name in ("oracle", "norm"):
        pairs = _random_vector(rng, 5 if name == "oracle" else 6, max_start=12)
        path = _write_vector(workdir, rid, pairs)
        coeffs = [v for _, v in pairs]
        if name == "oracle":
            argv, check = ["oracle", "1/2", path], lambda r: _check_oracle(r, coeffs)
        else:
            argv = ["norm", "tsirelson:alpha=1/2", path]
            check = lambda r: _check_level_output(r, coeffs)
        return Request(rid, f"cover-{name}", len(pairs), call=lambda: run_cli(argv),
                       digest=_cli_digest, check=check)
    if name == "certify":
        size, check = 1, _check_certify
        argv = ["certify", "harmonic-tsirelson", "--k", "1"]
    elif name == "cjt":
        size, check = 2, _check_cjt
        argv = ["blocks", "cjt", "--samples", "2", "--seed", str(rng.randint(0, 10**6))]
    elif name == "membership":
        size, check = 64, _check_membership
        argv = ["ideal", "membership", IDEAL, "squares", "--N", "64"]
    else:
        space, kw = {"orlicz": ("orlicz:power=3", {"power": 3}), "lp": ("lp:p=2", {"power": 2}),
                     "lorentz": ("lorentz:w=harmonic,p=1", {"lorentz": 1})}[name]
        size = 12
        argv = ["scan", space, "harmonic", "12"]
        check = lambda r: _check_scan(r, _generator_values("harmonic", 12), **kw)
    return Request(rid, f"cover-{name}", size, call=lambda: run_cli(argv),
                   digest=_cli_digest, check=check)


COVERAGE = {
    "exact-dp": ("oracle", "certify", "cjt", "membership", "orlicz", "lp", "lorentz"),
    "interval-scan": ("oracle", "certify", "cjt", "membership", "lp", "norm"),
    "small-mixed": ("membership", "orlicz"),
}

ROUNDS = {
    "exact-dp": exact_dp_round,
    "interval-scan": interval_scan_round,
    "small-mixed": small_mixed_round,
}


def make_round(workload: str, seed: int, round_index: int, scale: str, workdir: str) -> List[Request]:
    return ROUNDS[workload](seed, round_index, scale, workdir)


def warmup(workload: str, seed: int, workdir: str) -> List[Request]:
    """The untimed requests a run starts with: the workload's coverage requests."""
    return [_coverage(name, seed, workdir) for name in COVERAGE[workload]]


def tail_fills_expected(N: int) -> int:
    """Table fills a ``scan`` of horizon N makes today: one for the prefix
    norms and one per tail-grid point."""
    from seqnorms import series

    return 1 + len(series.default_tail_grid(N))

