"""Fuzz the CLI with descriptors built from valid and broken fragments.

Every run must end in a documented exit code (0, 2, 3, 4 or 5); an
exception escaping ``cli.main`` is a traceback for the user.
"""
import contextlib
import io
import os
import tempfile

from hypothesis import given, settings, strategies as st

from seqnorms import cli

SCALARS = ["2", "1", "3/2", "1/2", "1/3", "0.3", "0", "-1", "-1/2", "0/3", "inf",
           "-inf", "nan", "1/0", "x", "", "2/x"]
INTS = ["0", "1", "2", "3", "-1", "x"]

scalar = st.sampled_from(SCALARS)
small_int = st.sampled_from(INTS)
# exponents whose exact powers are refused (1e400, 100000) or just admitted
# by lp and lorentz; orlicz admits every one of them
big_exponent = st.sampled_from(["1e400", "100000", "3000", "65"])


def fmt(template, *parts):
    return st.tuples(*parts).map(lambda xs: template.format(*xs))


h_form = st.one_of(
    st.sampled_from(["identity", "affine:x", "table:", "table:1", "square", ""]),
    fmt("affine:{}:{}", small_int, small_int),
    fmt("table:{}:{}", small_int, small_int),
    fmt("table:{}:{};{}:{}", small_int, small_int, small_int, small_int),
)
space = st.one_of(
    st.sampled_from(["c0", "c0:p=2", "lp", "lp:q=2", "tsirelson", "orlicz", "orlicz:table=/nonexistent",
                     "lorentz:w=geometric,p=1", "banach:p=2", "", ":", "lp:p"]),
    fmt("lp:p={}", scalar),
    fmt("lp:p={}", big_exponent),
    fmt("lorentz:p={}", big_exponent),
    fmt("tsirelson:alpha={}", scalar),
    fmt("tsirelson:alpha={},h={}", scalar, h_form),
    fmt("orlicz:power={}", scalar),
    fmt("orlicz:power={}", big_exponent),
    fmt("lorentz:p={}", scalar),
    fmt("lorentz:w=harmonic,p={}", scalar),
)
generator = st.one_of(
    st.sampled_from(["harmonic", "one", "power:s", "table:", "geometric"]),
    fmt("power:s={}", scalar),
    fmt("constant:c={}", scalar),
    fmt("table:{};{}", scalar, scalar),
)
ideal = st.one_of(
    st.sampled_from(["summable", "tsirelson-ideal", "basis-weight", "fin", ""]),
    fmt("summable:w={}", generator),
    fmt("tsirelson-ideal:alpha={},f={}", scalar, generator),
    fmt("tsirelson-ideal:alpha={},h={},f={}", scalar, h_form, generator),
    fmt("basis-weight:space={},f={},kind={}", space.filter(lambda s: "," not in s), generator,
        st.sampled_from(["Fin", "Null", "Exh", "Bad"])),
)
position_set = st.one_of(
    st.sampled_from(["naturals", "evens", "squares", "primes", "odds", "explicit:", "dyadic:"]),
    fmt("dyadic:{}", small_int),
    fmt("explicit:{};{}", small_int, small_int),
)
# 1e400 is exact in exact mode and beyond the float range; exact mode refuses
# 1e99999999, whose power of ten would take seconds to build.  The long
# fractions are admitted, and a sum of the pair has a 4,794-digit
# denominator, past CPython's limit on int to text.
LONG = [f"1/{2 ** 8000}", f"-1/{3 ** 5000}"]
token = st.one_of(
    scalar,
    st.just("1e400"),
    st.just("1e99999999"),
    st.sampled_from(LONG + [" ".join(LONG)]),
    fmt("{}:{}", st.sampled_from(["0", "1", "2", "7", "40", "-3", "x"]), scalar),
)
vector_text = st.lists(token, max_size=6).map(" ".join)
N = st.integers(min_value=-1, max_value=12).map(str)
flags = st.lists(
    st.one_of(
        st.just(["--float"]),
        st.just(["--exact"]),
        st.just(["--format", "text"]),
        st.tuples(st.just("--tol"), st.sampled_from(["1e-10", "0", "-1", "nan", "inf", "x"])).map(list),
        st.tuples(st.just("--budget-support"), small_int).map(list),
        st.tuples(st.just("--seed"), small_int).map(list),
    ),
    max_size=2,
).map(lambda groups: [a for g in groups for a in g])


def command(vec):
    return st.one_of(
        st.tuples(space).map(lambda t: ["norm", t[0], vec]),
        st.tuples(scalar).map(lambda t: ["oracle", t[0], vec]),
        st.tuples(space, generator, N).map(lambda t: ["scan", *t]),
        st.tuples(space, small_int).map(lambda t: ["blocks", "lsh", t[0], "--samples", "2", "--bound", t[1]]),
        st.tuples(scalar).map(lambda t: ["blocks", "cjt", "--samples", "2", "--alpha", t[0]]),
        st.tuples(ideal, N).map(lambda t: ["ideal", "turbulence", t[0], "--N", t[1]]),
        st.tuples(ideal, position_set, N).map(lambda t: ["ideal", "membership", t[0], t[1], "--N", t[2]]),
        st.tuples(ideal).map(lambda t: ["ideal", "axioms", t[0], "--samples", "2"]),
        st.tuples(small_int).map(lambda t: ["certify", "harmonic-tsirelson", "--k", t[0]]),
    )


WORKDIR = tempfile.mkdtemp(prefix="seqnorms-fuzz-")
VECTOR = os.path.join(WORKDIR, "v.txt")


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.data(), vector_text, flags)
def test_cli_never_raises(data, text, extra):
    with open(VECTOR, "w") as fh:
        fh.write(text)
    argv = data.draw(command(VECTOR)) + extra
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    assert code in (0, 2, 3, 4, 5), argv
