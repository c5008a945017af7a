import sys
import time
from fractions import Fraction

import pytest

from conftest import fresh_python
from seqnorms import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def int_from_digits(text):
    """int(text) in pieces of 1,000 digits, below CPython's digit limit."""
    value = 0
    for start in range(0, len(text), 1000):
        piece = text[start : start + 1000]
        value = value * 10 ** len(piece) + int(piece)
    return value


def write_vector(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestNormCommand:
    def test_euclidean(self, capsys, tmp_path):
        vec = write_vector(tmp_path, "v.txt", "3 4")
        code, out, _ = run(capsys, "norm", "lp:p=2", vec)
        assert code == 0
        assert "norm,5,5.0" in out

    def test_tsirelson_prints_trace(self, capsys, tmp_path):
        vec = write_vector(tmp_path, "v.txt", "0 0 0 1 1 1")
        code, out, _ = run(capsys, "norm", "tsirelson:alpha=1/2", vec)
        assert code == 0
        assert "norm,3/2,1.5" in out
        assert "stabilization_level,1" in out

    def test_malformed_descriptor(self, capsys, tmp_path):
        vec = write_vector(tmp_path, "v.txt", "1")
        code, out, err = run(capsys, "norm", "banach:p=2", vec)
        assert code == 2
        assert out == ""  # no partial table on the error path

    def test_missing_file(self, capsys):
        code, out, _ = run(capsys, "norm", "lp:p=2", "/nonexistent/v.txt")
        assert code == 2

    def test_table_h_outside_domain_admits_no_family(self, capsys, tmp_path):
        vec = write_vector(tmp_path, "v.txt", " ".join(["1"] * 8))
        code, out, _ = run(capsys, "norm", "tsirelson:alpha=1/2,h=table:1:1;2:3", vec)
        assert code == 0
        assert "norm,2,2.0" in out

    def test_table_h_key_above_support_size(self, capsys, tmp_path):
        vec = write_vector(tmp_path, "v.txt", "10:1 11:1 12:1 13:1")
        code, out, _ = run(capsys, "norm", "tsirelson:alpha=2/3,h=table:10:2", vec)
        assert code == 0
        assert "norm,16/9," in out

    def test_missing_orlicz_table(self, capsys, tmp_path):
        vec = write_vector(tmp_path, "v.txt", "1 2")
        code, out, err = run(capsys, "norm", "orlicz:table=/nonexistent", vec)
        assert code == 2 and out == ""
        assert "Traceback" not in err and "cannot read Orlicz table" in err

    def test_non_utf8_vector_file(self, capsys, tmp_path):
        path = tmp_path / "v.txt"
        path.write_bytes(b"\xff\xfe1 2")
        code, out, err = run(capsys, "norm", "lp:p=2", str(path))
        assert code == 2 and out == ""
        assert "Traceback" not in err

    def test_non_utf8_orlicz_table(self, capsys, tmp_path):
        table = tmp_path / "m.txt"
        table.write_bytes(b"\xff\xfe0 0\n1 1\n")
        vec = write_vector(tmp_path, "v.txt", "1 2")
        code, out, err = run(capsys, "norm", f"orlicz:table={table}", vec)
        assert code == 2 and out == ""
        assert "Traceback" not in err

    def test_h_table_key_below_one(self, capsys, tmp_path):
        vec = write_vector(tmp_path, "v.txt", "1 1 1")
        code, out, err = run(capsys, "norm", "tsirelson:alpha=1/2,h=table:0:3", vec)
        assert code == 2 and out == ""
        assert "Traceback" not in err

    def test_infinite_coefficient_orlicz(self, capsys, tmp_path):
        vec = write_vector(tmp_path, "v.txt", "1 inf")
        code, out, _ = run(capsys, "norm", "orlicz:power=2", vec, "--float")
        assert code == 0 and "norm,inf,inf" in out

    @pytest.mark.parametrize("space, text", [
        ("lp:p=1e400", "1/3 2/7"),
        ("lp:p=100000", "1/3 2/7"),
        ("lorentz:p=1e400", "1 2"),
    ])
    def test_huge_exact_exponent_refused(self, capsys, tmp_path, space, text):
        vec = write_vector(tmp_path, "v.txt", text)
        code, out, err = run(capsys, "norm", space, vec)
        assert code == 3 and out == "" and "--float" in err

    def test_huge_decimal_exponent_in_vector_refused(self, capsys, tmp_path):
        # a 10-byte token used to build a 33-Mbit integer for about ten seconds
        vec = write_vector(tmp_path, "v.txt", "1e10000000")
        started = time.perf_counter()
        code, out, err = run(capsys, "norm", "lp:p=2", vec)
        assert time.perf_counter() - started < 1.0
        assert code == 3 and out == "" and "--float" in err

    def test_huge_exponent_scan_refused(self, capsys):
        code, out, _ = run(capsys, "scan", "lp:p=1e400", "harmonic", "4")
        assert code == 3 and out == ""

    def test_power_sum_beyond_float_range(self, capsys, tmp_path):
        vec = write_vector(tmp_path, "v.txt", "2 2")
        code, out, _ = run(capsys, "norm", "lp:p=3000", vec)
        assert code == 0 and "norm,2.000462" in out

    @pytest.mark.parametrize("space, row", [
        ("lp:p=1", "norm,1" + "0" * 399 + "1,inf"),
        ("lp:p=2", "norm,inf,inf"),
        ("orlicz:power=2", "norm,inf,inf"),
        ("lorentz:w=harmonic,p=2", "norm,inf,inf"),
    ], ids=["lp:p=1", "lp:p=2", "orlicz:power=2", "lorentz:w=harmonic,p=2"])
    def test_exact_value_beyond_float_range(self, capsys, tmp_path, space, row):
        # the decimal column, the root of the power sum and the Luxemburg
        # bisection each raised OverflowError on 10^400
        vec = write_vector(tmp_path, "v.txt", "1e400 1")
        code, out, err = run(capsys, "norm", space, vec)
        assert code == 0 and row in out.splitlines() and "Traceback" not in err

    def test_exact_value_past_the_digit_limit(self, capsys, tmp_path):
        # Both tokens are admitted, and the sum's denominator 2^8000 * 3^5000
        # has 4,794 digits: past CPython's 4,300-digit limit on int to text,
        # where the output once ended in a ValueError traceback.  The limit
        # itself is left as it was.
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
        vec = write_vector(tmp_path, "v.txt", f"1/{2 ** 8000} 1/{3 ** 5000}")
        code, out, err = run(capsys, "norm", "lp:p=1", vec)
        assert code == 0 and "Traceback" not in err
        value = Fraction(1, 2 ** 8000) + Fraction(1, 3 ** 5000)
        exact, decimal = out.splitlines()[-1].removeprefix("norm,").split(",")
        num, den = exact.split("/")
        assert (int_from_digits(num), int_from_digits(den), decimal) == (
            value.numerator, value.denominator, "0.0")
        assert len(den) == 4794 and getattr(sys, "get_int_max_str_digits", lambda: None)() == limit

    def test_scan_value_past_the_digit_limit(self, capsys):
        generator = f"table:1/{2 ** 8000};1/{3 ** 5000}"
        code, out, _ = run(capsys, "scan", "lp:p=1", generator, "2")
        rows = [row.split(",") for row in out.splitlines() if row[:1].isdigit()]
        assert code == 0 and [row[0] for row in rows] == ["1", "2"]
        assert int_from_digits(rows[1][1].split("/")[1]) == 2 ** 8000 * 3 ** 5000

    @pytest.mark.parametrize("space", ["lp:p=3000", "lorentz:w=harmonic,p=3000"])
    def test_large_float_exponent(self, capsys, tmp_path, space):
        # 3.0 ** 3000.0 overflows a float; the norm itself is 3.0
        vec = write_vector(tmp_path, "v.txt", "2 3")
        code, out, _ = run(capsys, "norm", space, vec, "--float")
        assert code == 0 and "norm,3.0,3.0" in out.splitlines()

    @pytest.mark.parametrize("space", [
        "lp:p=2", "tsirelson:alpha=1/2", "lorentz:w=harmonic,p=1", "orlicz:power=2",
    ])
    def test_float_nan_coefficient_refused(self, capsys, tmp_path, space):
        # float mode read nan as a coefficient: norm,nan,nan and exit 0
        vec = write_vector(tmp_path, "v.txt", "nan 1 2")
        code, out, err = run(capsys, "norm", space, vec, "--float")
        assert (code, out) == (2, "") and "bad scalar 'nan'" in err

    def test_float_values_adding_to_nan_refused(self, capsys, tmp_path):
        # inf and -inf at one sparse position added to a nan coefficient
        vec = write_vector(tmp_path, "v.txt", "1:inf 1:-inf 2:1")
        code, out, err = run(capsys, "oracle", "1/2", vec, "--float")
        assert (code, out) == (2, "") and "values at position 1 add to nan" in err

    @pytest.mark.parametrize("space", ["lp:p=3", "lorentz:w=harmonic,p=3"])
    def test_infinite_entry_with_overflowing_power(self, capsys, tmp_path, space):
        # 1e200 ** 3.0 overflows next to an infinite entry: sup / sup was nan
        vec = write_vector(tmp_path, "v.txt", "1e400 1e200")
        code, out, err = run(capsys, "norm", space, vec, "--float")
        assert code == 0 and "norm,inf,inf" in out.splitlines() and "Traceback" not in err

    def test_budget_exceeded(self, capsys, tmp_path):
        vec = write_vector(tmp_path, "v.txt", " ".join(["1"] * 10))
        code, out, _ = run(
            capsys, "norm", "tsirelson:alpha=1/2", vec, "--budget-support", "5"
        )
        assert code == 3 and out == ""


@pytest.mark.parametrize("argv, positions, budget", [
    (["norm", "tsirelson:alpha=1/2", "{vec}", "--budget-support", "5"], 10, 5),
    (["scan", "tsirelson:alpha=1/2", "harmonic", "8", "--budget-support", "4"], 8, 4),
    (["ideal", "membership", "tsirelson-ideal:alpha=1/2,f=harmonic", "evens", "--N", "16",
      "--budget-support", "4"], 7, 4),
    (["ideal", "membership", "basis-weight:space=tsirelson:alpha=1/2,f=harmonic", "naturals",
      "--N", "16", "--budget-support", "4"], 8, 4),
    (["ideal", "axioms", "tsirelson-ideal:alpha=1/2,f=harmonic", "--samples", "3", "--seed", "1",
      "--budget-support", "2"], 6, 2),
    (["ideal", "turbulence", "tsirelson-ideal:alpha=1/2", "--N", "3", "--budget-support", "0"], 3, 0),
    # seed 0's block basis spans positions 2..6
    (["blocks", "lsh", "tsirelson:alpha=1/2", "--budget-support", "1", "--samples", "2"], 5, 1),
    # the level-6 certificate covers positions 1..4^6
    (["--budget-support", "1024", "certify", "harmonic-tsirelson", "--k", "6"], 4096, 1024),
], ids=["norm", "scan", "tsirelson-ideal", "basis-weight-ideal", "axioms", "turbulence", "lsh",
        "certify"])
def test_budget_refusal_message(capsys, tmp_path, argv, positions, budget):
    vec = write_vector(tmp_path, "v.txt", " ".join(["1"] * 10))
    code, out, err = run(capsys, *(vec if a == "{vec}" else a for a in argv))
    assert (code, out) == (3, "")
    assert err == (
        f"budget: Tsirelson evaluation over {positions} positions exceeds the budget {budget}; "
        "evaluate fewer positions or raise --budget-support\n"
    )


# Runs the CLI under a 512 MB address-space limit and reports its own peak
# RSS.  The high-water mark in /proc/self/status starts afresh at exec;
# getrusage does not: RUSAGE_CHILDREN keeps the maximum over every earlier
# child, and a vforked child's RUSAGE_SELF starts at the launcher's peak.
_LIMITED_CLI = """
import resource, sys
limit = 512 << 20
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
from seqnorms import cli
code = cli.main(sys.argv[1:])
sys.stdout.flush()
with open("/proc/self/status") as status:
    peak = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
print(f"peak_rss_kb={peak}", file=sys.stderr)
sys.exit(code)
"""


def run_limited(*argv):
    return fresh_python(_LIMITED_CLI, *argv)


class TestLargePositions:
    """A vector costs its support, not its largest position."""

    @pytest.mark.parametrize("space, row", [
        ("tsirelson:alpha=1/2", "norm,1,1.0"),
        ("lp:p=2", "norm,1.4142135623730951,1.4142135623730951"),
    ])
    def test_far_position_runs_in_small_memory(self, tmp_path, space, row):
        # the dense vector held 10^8 slots and raised MemoryError under the limit
        vec = write_vector(tmp_path, "far.txt", "100000000:1 3:1")
        proc = run_limited("norm", space, vec)
        assert proc.returncode == 0, proc.stderr
        assert row in proc.stdout.splitlines()
        peak_kb = int(proc.stderr.rsplit("peak_rss_kb=", 1)[1])
        assert peak_kb < 40 * 1024


class TestLargeHorizons:
    """An ideal diagnostic costs the members it reads, not its horizon."""

    @pytest.mark.parametrize("ideal", [
        "tsirelson-ideal:alpha=1/2,f=harmonic",
        "basis-weight:space=tsirelson:alpha=1/2,f=harmonic,kind=Fin",
        "basis-weight:space=tsirelson:alpha=1/2,f=harmonic,kind=Null",
    ], ids=["Exh", "Fin", "Null"])
    @pytest.mark.parametrize("members", ["naturals", "evens"])
    def test_refused_before_members_are_listed(self, ideal, members):
        # listing 25-50 million members raised MemoryError under the limit
        proc = run_limited("ideal", "membership", ideal, members, "--N", "50000000")
        assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
        assert proc.stderr.startswith("budget: ")

    def test_far_dyadic_block_is_empty(self, capsys):
        # 2 ** (10^10) raised MemoryError under the limit
        ideal = "tsirelson-ideal:alpha=1/2,f=harmonic"
        proc = run_limited("ideal", "membership", ideal, "dyadic:10000000000", "--N", "64")
        code, out, _ = run(capsys, "ideal", "membership", ideal, "dyadic:20", "--N", "64")
        assert (proc.returncode, code) == (0, 0), proc.stderr
        assert proc.stdout == out.replace("# set=dyadic:20\n", "# set=dyadic:10000000000\n")
        assert "verdict,member-trend" in out.splitlines()

    def test_turbulence_refused_before_its_first_norm(self):
        # one singleton norm per position was still running after 60 s
        proc = run_limited(
            "ideal", "turbulence", "tsirelson-ideal:alpha=1/2,f=harmonic", "--N", "50000000"
        )
        assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
        assert proc.stderr.startswith("budget: ")


class TestOracleCommand:
    def test_agreement(self, capsys, tmp_path):
        vec = write_vector(tmp_path, "v.txt", "0 1 1")
        code, out, _ = run(capsys, "oracle", "1/2", vec)
        assert code == 0
        assert "flag,AGREE" in out

    def test_zero_vector(self, capsys, tmp_path):
        vec = write_vector(tmp_path, "v.txt", "0")
        code, out, _ = run(capsys, "oracle", "1/2", vec)
        assert code == 0 and "flag,AGREE" in out

    def test_float_agreement_within_tolerance(self, capsys, tmp_path):
        # the two engines sum in different orders: 1.0518 vs 1.0517999999999998
        vec = write_vector(
            tmp_path, "fv.txt", "1:-0.919 2:0.362 3:0.117 5:0.893 6:0.877 7:0.82 11:-0.916"
        )
        code, out, _ = run(capsys, "oracle", "0.3", vec, "--float")
        assert code == 0
        assert "flag,AGREE" in out

    def test_every_support_up_to_the_limit_runs(self, capsys, tmp_path):
        # 12 points at positions 12..23, so every family size is admissible
        vec = write_vector(tmp_path, "v.txt", "12:1/2 13:2/3 14:3/4 15:4/2 16:5/3 17:1/4 "
                           "18:2/2 19:3/3 20:4/4 21:5/2 22:1/3 23:2/4")
        code, out, _ = run(capsys, "oracle", "2/3", vec)
        assert code == 0
        assert out.splitlines()[-3:] == [
            "dp,73/9,8.11111111111111", "oracle,73/9,8.11111111111111", "flag,AGREE"]

    def test_oracle_cap_is_no_flag(self, capsys, tmp_path):
        vec = write_vector(tmp_path, "v.txt", "0 1 1")
        for argv in (["oracle", "1/2", vec, "--oracle-cap", "8"],
                     ["--oracle-cap", "8", "norm", "lp:p=2", vec]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (2, "") and "Traceback" not in err

    def test_support_limit_holds_whatever_the_cap(self, capsys, tmp_path, monkeypatch):
        # the family table of 14 points would hold (3^14 - 1)/2 families:
        # the refusal comes before the DP or any table is reached
        from seqnorms import tsirelson

        def reached(*args, **kwargs):
            raise AssertionError("the oracle went past its support limit")

        monkeypatch.setattr(tsirelson, "_families", reached)
        monkeypatch.setattr(tsirelson, "fixed_point_norm", reached)
        vec = write_vector(tmp_path, "v.txt", " ".join(["1"] * 14))
        code, out, err = run(capsys, "oracle", "1/2", vec)
        assert code == 3 and out == ""
        assert err.startswith("budget: ")


class TestScanCommand:
    def test_over_budget_scan_is_refused_before_its_windows(self):
        # the 5,000,000 prefix windows were built before the budget check:
        # a MemoryError traceback and exit 1 under the limit
        proc = run_limited("scan", "tsirelson:alpha=1/2", "harmonic", "5000000")
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr.startswith(
            "budget: Tsirelson evaluation over 5000000 positions exceeds the budget 4096; "
            "evaluate fewer positions or raise --budget-support\n"
        )

    def test_power_negative_exponent(self, capsys):
        code, out, err = run(capsys, "scan", "lp:p=1", "power:s=-1", "4")
        assert code == 0 and "4,10,10.0" in out
        assert "Traceback" not in err

    @pytest.mark.parametrize("space", ["lp:p=1", "lp:p=2"])
    def test_prefix_norms_beyond_float_range(self, capsys, space):
        # 6^400 > 1.8e308: the decimal column and the root raised OverflowError
        code, out, err = run(capsys, "scan", space, "power:s=-400", "8")
        assert code == 0 and "Traceback" not in err
        rows = [l.split(",") for l in out.splitlines() if l and l[0].isdigit()]
        assert [r[2] for r in rows[5:]] == ["inf"] * 3

    def test_large_float_exponent(self, capsys):
        # 2.0 ** 3000.0 overflows a float; the prefix norms are about K
        code, out, _ = run(capsys, "scan", "lp:p=3000", "power:s=-1", "5", "--float")
        assert code == 0
        rows = [l.split(",") for l in out.splitlines() if l and l[0].isdigit()]
        assert [r[2] for r in rows] == ["1.0", "2.0", "3.0", "4.0", "5.0"]

    def test_c0_harmonic_constant(self, capsys):
        code, out, _ = run(capsys, "scan", "c0", "harmonic", "8")
        assert code == 0
        lines = [l for l in out.splitlines() if not l.startswith("#")]
        assert lines[0] == "K,value,decimal"
        assert all(l.split(",")[1] == "1/2" for l in lines[1:])

    def test_l1_harmonic_exact_column(self, capsys):
        code, out, _ = run(capsys, "scan", "lp:p=1", "harmonic", "4")
        assert code == 0
        assert "4,77/60," in out

    def test_float_l1_scan_reads_float_sums(self, capsys):
        # --float reads p = 1 as 1.0, which sums in floats like any other
        # float exponent; the value column read 1/2, 5/6, 13/12 and 77/60
        code, out, _ = run(capsys, "--float", "scan", "lp:p=1", "harmonic", "4")
        assert code == 0 and "# mode=float\n" in out
        values = [l.split(",")[1] for l in out.splitlines() if l[:1].isdigit()]
        assert not any("/" in value for value in values)
        assert values == ["0.5", "0.8333333333333333", "1.0833333333333333", "1.2833333333333332"]

    def test_tsirelson_exceeds_witness_bound(self, capsys):
        from fractions import Fraction
        from seqnorms.series import harmonic_tsirelson_witness

        code, out, _ = run(capsys, "scan", "tsirelson:alpha=1/2", "harmonic", "64")
        assert code == 0
        rows = [l.split(",") for l in out.splitlines() if l and l[0].isdigit()]
        final = Fraction(rows[-1][1])
        bound, _ = harmonic_tsirelson_witness(2)
        assert final >= bound

    def test_float_tsirelson_scan_rows_are_the_float_norms(self, capsys, tmp_path):
        # Row K of a float scan is what norm --float prints for the first K
        # entries.  The scan read the generated Fractions raw: its value
        # column read 1/2, and at K = 23 and 80 a last bit off the norm.
        code, out, _ = run(capsys, "--float", "scan", "tsirelson:alpha=1/2", "harmonic", "80")
        assert code == 0
        rows = [l.split(",", 1) for l in out.splitlines() if l[:1].isdigit()]
        assert [int(K) for K, _ in rows] == list(range(1, 81))
        vec = tmp_path / "v.txt"
        for K, value in rows:
            vec.write_text(" ".join(f"1/{n + 1}" for n in range(1, int(K) + 1)))
            code, out, _ = run(capsys, "--float", "norm", "tsirelson:alpha=1/2", str(vec))
            assert code == 0 and f"\nnorm,{value}\n" in out, K

    def test_seed_recorded_in_header(self, capsys):
        code, out, _ = run(capsys, "scan", "c0", "harmonic", "3", "--seed", "9")
        assert "# seed=9" in out


class TestBlocksCommand:
    def test_cjt_passes(self, capsys):
        code, out, _ = run(capsys, "blocks", "cjt", "--seed", "7", "--samples", "25")
        assert code == 0
        assert out.count("PASS") == 25
        assert "FAIL" not in out

    def test_cjt_violation_exit_code(self, capsys, monkeypatch):
        # the stub's ratio for the second of three samples is below 1/3
        from seqnorms import blocks

        ratios = iter([Fraction(1), Fraction(1, 4), Fraction(18)])
        monkeypatch.setattr(blocks, "cjt_ratio_check", lambda *a, **k: blocks.CjtCheck(next(ratios)))
        code, out, _ = run(capsys, "blocks", "cjt", "--samples", "3")
        assert code == cli.EXIT_VIOLATION == 5
        assert out.splitlines()[-4:] == [
            "0,1,1.0,PASS", "1,1/4,0.25,FAIL", "2,18,18.0,PASS", "# violations=1",
        ]

    def test_lsh_l1(self, capsys):
        code, out, _ = run(
            capsys, "blocks", "lsh", "lp:p=1", "--samples", "10", "--bound", "1"
        )
        assert code == 0 and "flag,PASS" in out

    def test_lsh_large_float_exponent(self, capsys):
        # 0.5 ** 100000.0 underflowed, a block's norm read 0.0 and the
        # normalization divided by it
        code, out, err = run(capsys, "blocks", "lsh", "lp:p=100000", "--samples", "2", "--float")
        assert code == 0 and "worst,1.0,1.0" in out and "Traceback" not in err

    def test_lsh_violation_exit_code(self, capsys):
        code, out, _ = run(
            capsys, "blocks", "lsh", "lp:p=1", "--samples", "10", "--bound", "1/100"
        )
        assert code == 5
        assert "flag,FAIL" in out


class TestIdealCommand:
    def test_turbulence(self, capsys):
        code, out, _ = run(
            capsys, "ideal", "turbulence", "summable:w=harmonic", "--N", "200"
        )
        assert code == 0 and "turbulent-trend" in out

    def test_membership(self, capsys):
        code, out, _ = run(
            capsys, "ideal", "membership", "summable:w=harmonic", "evens", "--N", "1000"
        )
        assert code == 0 and "non-member-trend" in out

    @pytest.mark.parametrize("descriptor", ["explicit:1;a", "dyadic:x"])
    def test_malformed_set(self, capsys, descriptor):
        code, out, err = run(
            capsys, "ideal", "membership", "summable:w=harmonic", descriptor, "--N", "10"
        )
        assert code == 2 and out == ""
        assert "Traceback" not in err and "bad integer" in err

    def test_turbulence_power_negative_exponent(self, capsys):
        code, out, err = run(
            capsys, "ideal", "turbulence", "summable:w=power:s=-1", "--N", "4"
        )
        assert code == 0 and "verdict,not-turbulent" in out
        assert "Traceback" not in err

    def test_membership_far_dyadic_block(self, capsys):
        code, out, _ = run(
            capsys, "ideal", "membership", "summable:w=harmonic", "dyadic:60", "--N", "16"
        )
        assert code == 0 and "verdict,member-trend" in out

    def test_axioms(self, capsys):
        code, out, _ = run(
            capsys, "ideal", "axioms", "summable:w=harmonic", "--samples", "20"
        )
        assert code == 0 and "flag,PASS" in out

    def test_axioms_large_lp_exponent(self, capsys):
        # The exact 3000th roots of the weights' power sums (about 34,000
        # bits each) took about 20 s when Newton's iteration started at a
        # power of two above the root and converged linearly.  Those roots
        # come back a few ulps off; the check compares float sides within
        # tolerance, so this genuine submeasure passes.
        started = time.perf_counter()
        code, out, _ = run(
            capsys, "ideal", "axioms", "basis-weight:space=lp:p=3000,f=power:s=1,kind=Fin",
            "--samples", "2",
        )
        assert time.perf_counter() - started < 1.0
        assert code == 0
        assert out == (
            "# ideal=Fin(basis-weight:space=lp:p=3000,f=power:s=1)\n"
            "# seed=0\n"
            "# mode=exact\n"
            "checked,2\n"
            "flag,PASS\n"
        )


class TestCertifyCommand:
    def test_harmonic_witness(self, capsys):
        code, out, _ = run(capsys, "certify", "harmonic-tsirelson", "--k", "1")
        assert code == 0
        assert "lower_bound,9/80,0.1125" in out

    def test_budget(self, capsys):
        code, out, _ = run(capsys, "certify", "harmonic-tsirelson", "--k", "9")
        assert code == 3

    def test_default_budget_admits_k6(self, capsys):
        # 4^6 = 4096 positions, the default --budget-support
        code, out, _ = run(capsys, "certify", "harmonic-tsirelson", "--k", "6")
        rows = dict(line.split(",", 1) for line in out.splitlines() if not line.startswith("#"))
        assert code == 0
        assert rows["certificate_value"] == rows["lower_bound"]

    def test_huge_k_refused_before_its_count_is_formed(self):
        # 4^k alone would hold 2 * 10^9 bits
        started = time.perf_counter()
        proc = run_limited("certify", "harmonic-tsirelson", "--k", "1000000000")
        assert time.perf_counter() - started < 10
        assert (proc.returncode, proc.stdout) == (3, ""), proc.stderr
        assert proc.stderr.startswith("budget: ")

    def test_k_below_one_is_a_configuration_error(self, capsys):
        # even where the budget admits no position
        code, out, err = run(
            capsys, "certify", "harmonic-tsirelson", "--k", "0", "--budget-support", "0"
        )
        assert (code, out, err) == (2, "", "error: k must be >= 1\n")

    def test_witness_budget_is_not_a_flag(self, capsys):
        code, out, _ = run(capsys, "certify", "harmonic-tsirelson", "--witness-budget", "5")
        assert (code, out) == (2, "")


class TestDeterminism:
    def test_identical_seeds_identical_bytes(self, capsys):
        a = run(capsys, "blocks", "cjt", "--seed", "11", "--samples", "20")
        b = run(capsys, "blocks", "cjt", "--seed", "11", "--samples", "20")
        assert a == b

    def test_different_seed_changes_output(self, capsys):
        a = run(capsys, "blocks", "cjt", "--seed", "11", "--samples", "20")
        b = run(capsys, "blocks", "cjt", "--seed", "12", "--samples", "20")
        assert a[1] != b[1]

    def test_global_flag_position_irrelevant(self, capsys):
        a = run(capsys, "--seed", "4", "blocks", "cjt", "--samples", "5")
        b = run(capsys, "blocks", "cjt", "--seed", "4", "--samples", "5")
        assert a == b


class TestParserReuse:
    """One parser serves every ``main`` call in a process."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_flags_do_not_leak_between_calls(self, capsys, tmp_path, monkeypatch):
        # The global flags use SUPPRESS defaults and main fills them in; a
        # reused parser must not carry --float or --format from one call
        # into the next.
        vec = write_vector(tmp_path, "v.txt", "1/3 1 2")
        runs = [
            ("norm", "tsirelson:alpha=1/2", vec, "--float", "--format", "text"),
            ("norm", "tsirelson:alpha=1/2", vec),
            ("--float", "--format", "text", "norm", "lp:p=2", vec),
            ("norm", "lp:p=2", vec),
            ("--float", "blocks", "cjt", "--samples", "3", "--seed", "5"),
            ("blocks", "cjt", "--samples", "3", "--seed", "5"),
        ]
        shared = [run(capsys, *argv) for argv in runs]
        monkeypatch.setattr(
            cli, "build_parser", getattr(cli.build_parser, "__wrapped__", cli.build_parser)
        )
        fresh = [run(capsys, *argv) for argv in runs]
        assert shared == fresh
        assert all(code == 0 for code, _, _ in shared)
        assert shared[0][1] != shared[1][1] and shared[2][1] != shared[3][1]
        assert shared[4][1] != shared[5][1]


# The parsed namespace of every subcommand, global defaults filled in as main
# fills them; func is left out.
_COMMON = {"budget_support": 4096, "exact": True, "format": "csv", "seed": 0, "tol": 1e-10}
PARSED = [
    (["norm", "lp:p=2", "v.txt"],
     dict(_COMMON, command="norm", space="lp:p=2", vector="v.txt")),
    (["oracle", "1/2", "v.txt"],
     dict(_COMMON, command="oracle", alpha="1/2", vector="v.txt")),
    (["scan", "lp:p=2", "harmonic", "8"],
     dict(_COMMON, command="scan", space="lp:p=2", generator="harmonic", N=8)),
    (["blocks", "cjt"],
     dict(_COMMON, command="blocks", blocks_cmd="cjt", alpha="1/2", samples=100)),
    (["blocks", "lsh", "c0"],
     dict(_COMMON, command="blocks", blocks_cmd="lsh", space="c0", bound=None, samples=100)),
    (["ideal", "turbulence", "summable"],
     dict(_COMMON, command="ideal", ideal_cmd="turbulence", ideal="summable", N=200)),
    (["ideal", "membership", "summable", "evens"],
     dict(_COMMON, command="ideal", ideal_cmd="membership", ideal="summable", set="evens",
          N=1000)),
    (["ideal", "axioms", "summable"],
     dict(_COMMON, command="ideal", ideal_cmd="axioms", ideal="summable", samples=200)),
    (["certify", "harmonic-tsirelson"],
     dict(_COMMON, command="certify", certify_cmd="harmonic-tsirelson", k=1)),
    (["--float", "--tol", "1e-3", "--seed", "7", "--budget-support", "9",
      "--format", "text", "oracle", "1/2", "v.txt"],
     {"alpha": "1/2", "budget_support": 9, "command": "oracle", "exact": False,
      "format": "text", "seed": 7, "tol": 0.001, "vector": "v.txt"}),
    (["certify", "harmonic-tsirelson", "--k", "2", "--exact"],
     dict(_COMMON, command="certify", certify_cmd="harmonic-tsirelson", k=2)),
]


@pytest.mark.parametrize("argv, expected", PARSED, ids=[" ".join(a) for a, _ in PARSED])
def test_parsed_arguments_and_defaults(argv, expected):
    args = cli.build_parser().parse_args(argv)
    for key, value in cli._GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    parsed = vars(args)
    assert parsed.pop("func") is getattr(cli, f"cmd_{expected['command']}")
    assert parsed == expected


# Each command with a tolerance flag that is not a finite positive number.
# inf stopped the Luxemburg bisection at once (norm orlicz:power=2 on 1/2 1/3
# printed 0.666...) and made oracle --float agree on any two values; nan ran
# on; -1 made oracle --float end in a ValueError traceback.
TOL_COMMANDS = {
    "norm": ["norm", "orlicz:power=2", "{vec}"],
    "oracle": ["oracle", "1/2", "{vec}", "--float"],
    "scan": ["scan", "orlicz:power=2", "harmonic", "3"],
    "blocks-cjt": ["blocks", "cjt", "--samples", "2"],
    "blocks-lsh": ["blocks", "lsh", "orlicz:power=2", "--samples", "2"],
    "ideal-turbulence": ["ideal", "turbulence", "summable:w=harmonic", "--N", "8"],
    "ideal-membership": ["ideal", "membership", "summable:w=harmonic", "evens", "--N", "8"],
    "ideal-axioms": ["ideal", "axioms", "summable:w=harmonic", "--samples", "2"],
    "certify": ["certify", "harmonic-tsirelson"],
}


@pytest.mark.parametrize("tol", ["inf", "nan", "0", "-1", "1e-400"])
@pytest.mark.parametrize("before", [False, True], ids=["after", "before"])
@pytest.mark.parametrize("command", TOL_COMMANDS)
def test_tol_must_be_finite_and_positive(capsys, tmp_path, command, before, tol):
    vec = write_vector(tmp_path, "v.txt", "1/2 1/3")
    argv = [vec if a == "{vec}" else a for a in TOL_COMMANDS[command]]
    code, out, err = run(capsys, *(["--tol", tol] + argv if before else argv + ["--tol", tol]))
    assert (code, out) == (2, "") and "Traceback" not in err
    assert "--tol" in err


# A negative --budget-support is a usage error, like --tol -1, not a refusal
# of the work: certify --k 1 with -5 exited 3.  A budget of 0 stays legal.
BUDGET_COMMANDS = {
    "certify": ["certify", "harmonic-tsirelson", "--k", "1"],
    "norm": ["norm", "tsirelson:alpha=1/2", "{vec}"],
    "ideal-turbulence": ["ideal", "turbulence", "tsirelson-ideal:alpha=1/2", "--N", "3"],
}


@pytest.mark.parametrize("budget", ["-5", "-1", "x"])
@pytest.mark.parametrize("before", [False, True], ids=["after", "before"])
@pytest.mark.parametrize("command", BUDGET_COMMANDS)
def test_budget_support_must_be_a_nonnegative_integer(capsys, tmp_path, command, before, budget):
    vec = write_vector(tmp_path, "v.txt", "1/2 1/3")
    argv = [vec if a == "{vec}" else a for a in BUDGET_COMMANDS[command]]
    flag = ["--budget-support", budget]
    code, out, err = run(capsys, *(flag + argv if before else argv + flag))
    assert (code, out) == (2, "") and "Traceback" not in err
    assert "--budget-support" in err


# A negative --samples is a usage error too: blocks cjt printed an empty
# table, blocks lsh `worst,n/a` and ideal axioms `flag,PASS`, each with exit 0.
SAMPLES_COMMANDS = {
    "blocks-cjt": ["blocks", "cjt"],
    "blocks-lsh": ["blocks", "lsh", "lp:p=2"],
    "ideal-axioms": ["ideal", "axioms", "summable:w=harmonic"],
}


@pytest.mark.parametrize("samples", ["-3", "-1", "x"])
@pytest.mark.parametrize("command", SAMPLES_COMMANDS)
def test_samples_must_be_a_nonnegative_integer(capsys, command, samples):
    code, out, err = run(capsys, *SAMPLES_COMMANDS[command], "--samples", samples)
    assert (code, out) == (2, "") and "Traceback" not in err
    assert "--samples" in err


@pytest.mark.parametrize("command", SAMPLES_COMMANDS)
def test_zero_samples_stay_legal(capsys, command):
    code, _, err = run(capsys, *SAMPLES_COMMANDS[command], "--samples", "0")
    assert code == 0, err


@pytest.mark.parametrize("command", TOL_COMMANDS)
def test_commands_run_with_a_finite_positive_tol(capsys, tmp_path, command):
    vec = write_vector(tmp_path, "v.txt", "1/2 1/3")
    argv = [vec if a == "{vec}" else a for a in TOL_COMMANDS[command]]
    code, _, err = run(capsys, *argv, "--tol", "1e-3")
    assert code == 0, err
