"""Span tracing of the seqnorms layers, installed in the traced process only.

Public entry points are wrapped by module attribute; a name that another
seqnorms module bound with ``from .x import name`` is replaced there too, so
``cli``'s ``parse_vector`` and ``series``/``ideals``/``blocks``' ``eval_norm``
are traced like the originals.  Spans live in memory as
[name, start, end, parent index, request id] and are written out once at
the end.  A span's self time is its duration minus the durations of its
child spans (one thread, so children never overlap).  Counts are recorded
by the same wrappers, at the same boundaries.
"""
from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

# (metric name, unit) for every per-layer metric the traced run reports.
LAYER_METRICS = (
    ("tsirelson.fixed_point.self_s", "s"),
    ("tsirelson.fixed_point.calls", "count"),
    ("tsirelson.fixed_point.intervals", "count"),
    ("tsirelson.fixed_point.us_per_interval", "us"),
    ("tsirelson.level_route.self_s", "s"),
    ("tsirelson.level_route.levels", "count"),
    ("tsirelson.oracle.self_s", "s"),
    ("tsirelson.oracle.calls", "count"),
    ("tsirelson.certificate.self_s", "s"),
    ("tsirelson.result_bits_max", "bits"),
    ("classical.luxemburg.self_s", "s"),
    ("classical.luxemburg.calls", "count"),
    ("classical.lorentz.self_s", "s"),
    ("classical.lp.self_s", "s"),
    ("core.parse.self_s", "s"),
    ("core.parse.tokens", "count"),
    ("core.eval_norm.calls", "count"),
    ("series.prefix.self_s", "s"),
    ("series.tail.self_s", "s"),
    ("series.tail.queries", "count"),
    ("ideals.phi.self_s", "s"),
    ("ideals.phi.calls", "count"),
    ("ideals.membership.self_s", "s"),
    ("blocks.cjt.self_s", "s"),
    ("blocks.cjt.calls", "count"),
    ("cli.build_parser.self_s", "s"),
    ("cli.command.self_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.fills = Counter()  # table fills per request id
        self.request = None

    def begin(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), None, parent, self.request])
        self.stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = perf_counter()
        self.stack.pop()

    def wrap(self, owner, attr, span, before=None, after=None):
        """Replace ``owner.attr`` (and every seqnorms alias of it) by a traced
        wrapper.  ``before(args, kwargs)`` and ``after(result)`` record counts."""
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            index = tracer.begin(span)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if after is not None:
                after(result)
            return result

        setattr(owner, attr, traced)
        for name, module in list(sys.modules.items()):
            if name.startswith("seqnorms") and module is not None:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def note_bits(self, value):
        if isinstance(value, (Fraction, int)):
            value = Fraction(value)
            bits = max(value.numerator.bit_length(), value.denominator.bit_length())
            if bits > self.counts["result_bits_max"]:
                self.counts["result_bits_max"] = bits

    def install(self):
        from seqnorms import blocks, classical, cli, core, ideals, series, tsirelson

        counts = self.counts

        def count(key, amount=1):
            def hook(*_):
                counts[key] += amount
            return hook

        def fill(args, kwargs):
            engine = args[0]
            if engine._fixed is None:  # the table is memoized per engine
                s = len(engine.pos)
                counts["fixed_point.calls"] += 1
                self.fills[self.request] += 1
                counts["fixed_point.intervals"] += s * (s + 1) // 2

        def level_result(result):
            value, trace = result
            counts["level_route.levels"] += len(trace.levels)
            self.note_bits(value)

        def many_bits(values):
            for value in values:
                self.note_bits(value)

        def tokens(args, kwargs):
            text = args[0] if args else kwargs["text"]
            counts["parse.tokens"] += len(text.replace(",", " ").split())

        def tail_queries(args, kwargs):
            grid = args[2] if len(args) > 2 else kwargs["grid"]
            counts["tail.queries"] += len(grid)

        self.wrap(tsirelson.TsirelsonEngine, "fixed_point_table", "tsirelson.fixed_point", before=fill)
        self.wrap(tsirelson, "fixed_point_norm", "tsirelson.fixed_point_norm", after=self.note_bits)
        self.wrap(tsirelson, "prefix_norms", "tsirelson.prefix_norms", after=many_bits)
        self.wrap(tsirelson, "norm", "tsirelson.level_route", after=level_result)
        self.wrap(tsirelson, "oracle_norm", "tsirelson.oracle",
                  before=count("oracle.calls"), after=self.note_bits)
        self.wrap(tsirelson, "certificate_lower_bound", "tsirelson.certificate")
        self.wrap(classical, "luxemburg_norm", "classical.luxemburg", before=count("luxemburg.calls"))
        self.wrap(classical, "lorentz_norm", "classical.lorentz")
        self.wrap(classical, "lp_norm", "classical.lp")
        self.wrap(core, "parse_vector", "core.parse", before=tokens)
        self.wrap(core, "eval_norm", "core.eval_norm", before=count("eval_norm.calls"))
        self.wrap(series, "partial_sum_norms", "series.prefix")
        self.wrap(series, "tail_profile", "series.tail", before=tail_queries)
        self.wrap(ideals, "phi", "ideals.phi", before=count("phi.calls"))
        self.wrap(ideals, "membership_verdict", "ideals.membership")
        self.wrap(blocks, "cjt_ratio_check", "blocks.cjt", before=count("cjt.calls"))
        self.wrap(cli, "build_parser", "cli.build_parser")
        for attr in ("cmd_norm", "cmd_oracle", "cmd_scan", "cmd_blocks", "cmd_ideal", "cmd_certify"):
            self.wrap(cli, attr, "cli.command")

    def self_times(self):
        child_time = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = defaultdict(float)
        for index, (name, start, end, _, _) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[index]
        return totals

    def layer_metrics(self):
        """Per-layer metric values, keyed like LAYER_METRICS; the caller adds
        trace.overhead_ratio, which needs the untraced run."""
        selfs = self.self_times()
        c = self.counts
        intervals = c["fixed_point.intervals"]
        return {
            "tsirelson.fixed_point.self_s": selfs["tsirelson.fixed_point"],
            "tsirelson.fixed_point.calls": c["fixed_point.calls"],
            "tsirelson.fixed_point.intervals": intervals,
            "tsirelson.fixed_point.us_per_interval":
                selfs["tsirelson.fixed_point"] * 1e6 / intervals if intervals else 0.0,
            "tsirelson.level_route.self_s": selfs["tsirelson.level_route"],
            "tsirelson.level_route.levels": c["level_route.levels"],
            "tsirelson.oracle.self_s": selfs["tsirelson.oracle"],
            "tsirelson.oracle.calls": c["oracle.calls"],
            "tsirelson.certificate.self_s": selfs["tsirelson.certificate"],
            "tsirelson.result_bits_max": c["result_bits_max"],
            "classical.luxemburg.self_s": selfs["classical.luxemburg"],
            "classical.luxemburg.calls": c["luxemburg.calls"],
            "classical.lorentz.self_s": selfs["classical.lorentz"],
            "classical.lp.self_s": selfs["classical.lp"],
            "core.parse.self_s": selfs["core.parse"],
            "core.parse.tokens": c["parse.tokens"],
            "core.eval_norm.calls": c["eval_norm.calls"],
            "series.prefix.self_s": selfs["series.prefix"],
            "series.tail.self_s": selfs["series.tail"],
            "series.tail.queries": c["tail.queries"],
            "ideals.phi.self_s": selfs["ideals.phi"],
            "ideals.phi.calls": c["phi.calls"],
            "ideals.membership.self_s": selfs["ideals.membership"],
            "blocks.cjt.self_s": selfs["blocks.cjt"],
            "blocks.cjt.calls": c["cjt.calls"],
            "cli.build_parser.self_s": selfs["cli.build_parser"],
            "cli.command.self_s": selfs["cli.command"],
        }
