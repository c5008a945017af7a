"""Command-line workbench.

Output is assembled in memory and flushed once at the end, so error paths
never leave partial tables behind.  Every randomized run records its seed in
the output header; identical flags and seed give byte-identical output.

Exit codes: 0 ok, 2 parse/configuration failure, 3 budget exceeded,
4 engine disagreement, 5 property violation.

Building the parser needs only ``core``; each subcommand imports the
modules it runs when it runs, so start-up does not compile the engines
a command never reaches.
"""
from __future__ import annotations

import argparse
import functools
import sys
from contextlib import suppress
from fractions import Fraction
from random import Random
from typing import List, Optional

from .core import (
    DEFAULT_SUPPORT_BUDGET,
    INF,
    BudgetError,
    ConfigurationError,
    FiniteVector,
    OrliczSpace,
    ParseError,
    TsirelsonSpace,
    close,
    eval_norm,
    format_scalar,
    parse_scalar,
    parse_space,
    parse_vector,
    to_float,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_BUDGET = 3
EXIT_DISAGREE = 4
EXIT_VIOLATION = 5


def _decimal(x) -> str:
    return repr(to_float(x))


def _value_cell(x) -> str:
    return f"{format_scalar(x)},{_decimal(x)}"


class _Report:
    """Buffered output with a CSV comment header."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.lines: List[str] = []

    def header(self, **meta):
        if self.fmt == "csv":
            for key, val in meta.items():
                self.lines.append(f"# {key}={val}")
        else:
            for key, val in meta.items():
                self.lines.append(f"{key}: {val}")

    def row(self, *cells):
        sep = "," if self.fmt == "csv" else "  "
        self.lines.append(sep.join(str(c) for c in cells))

    def note(self, text: str):
        self.lines.append(f"# {text}" if self.fmt == "csv" else text)

    def emit(self):
        for line in self.lines:
            print(line)


def _read_vector(path: str, exact: bool) -> FiniteVector:
    try:
        with open(path) as fh:
            return parse_vector(fh.read(), exact=exact)
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read vector file {path!r}: {exc}") from None


# ---------------------------------------------------------------------------
# Subcommands


def cmd_norm(args, report: _Report) -> int:
    space = parse_space(args.space, exact=args.exact, tol=args.tol, budget=args.budget_support)
    v = _read_vector(args.vector, args.exact)
    report.header(space=space.describe(), mode="exact" if args.exact else "float")
    space.check_budget(len(v.support))
    if isinstance(space, TsirelsonSpace):
        from . import tsirelson

        # the level route, so the output can show how the value was reached
        value, trace = tsirelson.norm(space.alpha, space.h, v)
        report.row("norm", _value_cell(value))
        report.row("stabilization_level", trace.stabilization_level)
        for m, val in trace.levels:
            report.row(f"level_{m}", _value_cell(val))
    else:
        report.row("norm", _value_cell(eval_norm(space, v)))
    return EXIT_OK


def cmd_oracle(args, report: _Report) -> int:
    from . import tsirelson

    alpha = parse_scalar(args.alpha, exact=args.exact)
    v = _read_vector(args.vector, args.exact)
    # the oracle first: it refuses a support above its limit before any work
    oracle = tsirelson.oracle_norm(alpha, v)
    dp = tsirelson.fixed_point_norm(alpha, v)
    # exact values must be equal; floats summed in a different order may
    # differ in the last bits, so they need only agree within --tol
    agree = close(dp, oracle, rel_tol=args.tol)
    report.header(alpha=format_scalar(alpha), mode="exact" if args.exact else "float")
    report.row("dp", _value_cell(dp))
    report.row("oracle", _value_cell(oracle))
    report.row("flag", "AGREE" if agree else "DISAGREE")
    return EXIT_OK if agree else EXIT_DISAGREE


def cmd_scan(args, report: _Report) -> int:
    from . import series

    space = parse_space(args.space, exact=args.exact, tol=args.tol, budget=args.budget_support)
    gen = series.parse_generator(args.generator, exact=args.exact)
    if args.N < 1:
        raise ConfigurationError("N must be >= 1")
    space.check_budget(args.N)  # before the N windows are built
    prefixes = [(1, K + 1) for K in range(1, args.N + 1)]
    answer = series.tail_profile(space, gen, prefixes + series.default_tail_grid(args.N))
    report.header(
        space=space.describe(),
        generator=gen.describe(),
        seed=args.seed,
        mode="exact" if args.exact else "float",
    )
    report.row("K", "value", "decimal")
    for K, (_, _, value) in enumerate(answer[:args.N], start=1):
        report.row(K, format_scalar(value), _decimal(value))
    verdict = series.convergence_verdict(answer[args.N:])
    report.note(f"verdict={verdict} (heuristic)")
    return EXIT_OK


def cmd_blocks(args, report: _Report) -> int:
    from . import blocks

    rng = Random(args.seed)
    report.header(seed=args.seed, mode="exact" if args.exact else "float")
    violations = 0
    if args.blocks_cmd == "cjt":
        alpha = parse_scalar(args.alpha, exact=args.exact)
        report.row("sample", "ratio", "decimal", "flag")
        for i in range(args.samples):
            spec = blocks.random_block_spec(rng)
            picks = blocks.random_picks(rng, spec)
            b = FiniteVector.from_pairs(
                (j, rng.choice((Fraction(-2), Fraction(-1), Fraction(1), Fraction(2))))
                for j in range(1, spec.block_count + 1)
            )
            check = blocks.cjt_ratio_check(spec, b, picks, alpha=alpha)
            if not check.passed:
                violations += 1
            report.row(
                i, format_scalar(check.ratio), _decimal(check.ratio),
                "PASS" if check.passed else "FAIL",
            )
    else:
        space = parse_space(args.space, exact=args.exact, tol=args.tol, budget=args.budget_support)
        spec = blocks.random_block_spec(rng)
        samples = []
        for _ in range(args.samples):
            samples.append(
                FiniteVector.from_pairs(
                    (j, Fraction(rng.randint(-2, 2)))
                    for j in range(1, spec.block_count + 1)
                )
            )
        bound = None
        if args.bound is not None:
            bound = parse_scalar(args.bound, exact=args.exact)
        probe = blocks.lsh_probe(space, spec, samples, bound=bound)
        report.row("worst", _value_cell(probe.worst) if probe.worst is not None else "n/a")
        report.row("skipped", probe.skipped)
        if probe.passed is not None:
            report.row("flag", "PASS" if probe.passed else "FAIL")
            if not probe.passed:
                violations += 1
    report.note(f"violations={violations}")
    return EXIT_OK if violations == 0 else EXIT_VIOLATION


def cmd_ideal(args, report: _Report) -> int:
    from . import ideals

    ideal = ideals.parse_ideal(args.ideal, budget=args.budget_support)
    report.header(ideal=ideal.describe(), seed=args.seed, mode="exact" if args.exact else "float")
    if args.ideal_cmd == "turbulence":
        verdict = ideals.turbulence_criterion(ideal.submeasure, args.N)
        report.row("verdict", verdict)
        report.note("verdicts are heuristic finite-scale trends")
        return EXIT_OK
    if args.ideal_cmd == "membership":
        A = ideals.parse_set(args.set)
        verdict = ideals.membership_verdict(ideal, A, args.N)
        report.header(set=A.describe())
        report.row("verdict", verdict)
        report.note("verdicts are heuristic finite-scale trends")
        return EXIT_OK
    # axioms
    rng = Random(args.seed)
    pairs = []
    for _ in range(args.samples):
        x = sorted(rng.sample(range(1, 41), rng.randint(0, 6)))
        y = sorted(rng.sample(range(1, 41), rng.randint(0, 6)))
        pairs.append((x, y))
    result = ideals.submeasure_axiom_check(ideal.submeasure, pairs)
    report.row("checked", result.checked)
    report.row("flag", "PASS" if result.passed else "FAIL")
    for violation in result.violations:
        report.note(violation)
    return EXIT_OK if result.passed else EXIT_VIOLATION


def cmd_certify(args, report: _Report) -> int:
    from . import series, tsirelson

    if args.k < 1:
        raise ConfigurationError("k must be >= 1")
    # the certificate covers 4^k positions; past the budget's bit length that
    # count is surely over, so a larger k is refused without forming it
    TsirelsonSpace(Fraction(1, 2), budget=args.budget_support).check_budget(
        4 ** min(args.k, args.budget_support.bit_length())
    )
    bound, root = series.harmonic_tsirelson_witness(args.k)
    check = tsirelson.certificate_lower_bound(
        Fraction(1, 2), None, series.harmonic_witness_prefix(args.k), root
    )
    report.header(k=args.k)
    report.row("lower_bound", _value_cell(bound))
    report.row("certificate_value", _value_cell(check))

    def _walk(node, depth: int):
        span = f"[{node.restriction[0]}..{node.restriction[-1]}]"
        kind = "leaf" if not node.children else f"family({len(node.children)} sets)"
        report.note("  " * depth + f"{kind} {span}")
        if len(node.children) <= 8:
            for child in node.children:
                _walk(child, depth + 1)
        elif node.children:
            report.note("  " * (depth + 1) + f"{len(node.children)} singleton leaves")

    _walk(root, 0)
    return EXIT_OK if check == bound else EXIT_DISAGREE


# ---------------------------------------------------------------------------
# Parser and entry point


def _tolerance(text: str) -> float:
    """A --tol value: a finite positive float, whichever command reads it."""
    with suppress(ValueError):
        if 0 < float(text) < INF:
            return float(text)
    raise argparse.ArgumentTypeError(f"expected a finite positive number, got {text!r}")


def _count(text: str) -> int:
    """A --budget-support or --samples value: a count, so an int >= 0."""
    with suppress(ValueError):
        if int(text) >= 0:
            return int(text)
    raise argparse.ArgumentTypeError(f"expected a nonnegative integer, got {text!r}")


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    # Built once per process: parse_args returns a fresh namespace and keeps
    # no state between calls.  Global flags live in a parent parser attached
    # to every subcommand, so they are accepted both before and after the
    # subcommand name.  The parent uses SUPPRESS defaults (real defaults are
    # filled in by main after parsing); a subparser must never see a concrete
    # default here, or its fresh namespace would clobber a flag given before
    # the subcommand.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--exact", dest="exact", action="store_true",
                        default=argparse.SUPPRESS, help="exact rational arithmetic (default)")
    common.add_argument("--float", dest="exact", action="store_false",
                        default=argparse.SUPPRESS, help="64-bit floating arithmetic")
    common.add_argument("--tol", type=_tolerance, default=argparse.SUPPRESS,
                        help="iteration tolerance, finite and positive")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="random seed for sampled runs")
    common.add_argument("--budget-support", type=_count, default=argparse.SUPPRESS,
                        help="max positions for Tsirelson evaluations")
    common.add_argument("--format", choices=("csv", "text"), default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="seqnorms",
        parents=[common],
        description="Sequence-space norm workbench: Tsirelson-type and classical norms, "
        "block-basis checks, series diagnostics, submeasure ideals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("norm", help="norm of a vector in a space", parents=[common])
    p.add_argument("space")
    p.add_argument("vector")
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("oracle", help="compare DP norm against the brute-force oracle", parents=[common])
    p.add_argument("alpha")
    p.add_argument("vector")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("scan", help="prefix-norm profile of sum a_n x_n", parents=[common])
    p.add_argument("space")
    p.add_argument("generator")
    p.add_argument("N", type=int)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("blocks", help="block-basis checks", parents=[common])
    bsub = p.add_subparsers(dest="blocks_cmd", required=True)
    cjt = bsub.add_parser("cjt", help="equivalence-constant envelope check", parents=[common])
    cjt.add_argument("--samples", type=_count, default=100)
    cjt.add_argument("--alpha", default="1/2")
    cjt.set_defaults(func=cmd_blocks)
    lsh = bsub.add_parser("lsh", help="lower semi-homogeneity probe", parents=[common])
    lsh.add_argument("space")
    lsh.add_argument("--samples", type=_count, default=100)
    lsh.add_argument("--bound", default=None)
    lsh.set_defaults(func=cmd_blocks)

    p = sub.add_parser("ideal", help="submeasure/ideal diagnostics", parents=[common])
    isub = p.add_subparsers(dest="ideal_cmd", required=True)
    turb = isub.add_parser("turbulence", parents=[common])
    turb.add_argument("ideal")
    turb.add_argument("--N", type=int, default=200)
    turb.set_defaults(func=cmd_ideal)
    memb = isub.add_parser("membership", parents=[common])
    memb.add_argument("ideal")
    memb.add_argument("set")
    memb.add_argument("--N", type=int, default=1000)
    memb.set_defaults(func=cmd_ideal)
    axioms = isub.add_parser("axioms", parents=[common])
    axioms.add_argument("ideal")
    axioms.add_argument("--samples", type=_count, default=200)
    axioms.set_defaults(func=cmd_ideal)

    p = sub.add_parser("certify", help="exact certificates", parents=[common])
    csub = p.add_subparsers(dest="certify_cmd", required=True)
    hw = csub.add_parser("harmonic-tsirelson", parents=[common])
    hw.add_argument("--k", type=int, default=1)
    hw.set_defaults(func=cmd_certify)

    return parser


_GLOBAL_DEFAULTS = {
    "exact": True,
    "tol": OrliczSpace.tol,
    "seed": 0,
    "budget_support": DEFAULT_SUPPORT_BUDGET,
    "format": "csv",
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    report = _Report(args.format)
    try:
        code = args.func(args, report)
    except (ParseError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetError as exc:
        print(f"budget: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    report.emit()
    return code


if __name__ == "__main__":
    sys.exit(main())
