import math
import time
from fractions import Fraction
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from seqnorms.core import (
    BudgetError,
    ConfigurationError,
    FiniteVector,
    INF,
    LorentzSpace,
    LpSpace,
    ParseError,
    WeightSpec,
    is_exact,
    parse_scalar,
    to_float,
)
from seqnorms import classical, ideals
from seqnorms.series import CoefficientGenerator
from seqnorms.classical import (
    OrliczFunction,
    _integer_root,
    _root,
    load_orlicz_table,
    lorentz_norm,
    lp_norm,
    luxemburg_norm,
)


def prefix_norms(space, v):
    """The norms of v restricted to 1..K for K = 1..v's last position."""
    return space.interval_norms(v, [(1, K) for K in range(1, v.support[-1] + 1)])


def random_vector(rng, max_pos=12, max_len=6):
    return FiniteVector.from_pairs(
        (rng.randint(1, max_pos), Fraction(rng.randint(-8, 8), rng.randint(1, 4)))
        for _ in range(rng.randint(0, max_len))
    )


class TestLp:
    def test_examples(self):
        v = FiniteVector.from_dense([3, 4])
        assert lp_norm(2, v) == 5
        assert lp_norm(1, v) == 7
        assert lp_norm(INF, v) == 4

    def test_p_below_one_rejected(self):
        with pytest.raises(ConfigurationError):
            lp_norm(Fraction(1, 2), FiniteVector.from_dense([1]))

    def test_non_increasing_in_p(self):
        rng = Random(3)
        for _ in range(50):
            v = random_vector(rng)
            values = [lp_norm(p, v) for p in (1, 2, 3, INF)]
            for a, b in zip(values, values[1:]):
                assert float(b) <= float(a) + 1e-12

    @pytest.mark.parametrize("p", [10**400, 100000], ids=["1e400", "1e5"])
    def test_huge_exact_exponent_refused(self, p):
        # t ** p holds about p times t's bit-length; these would not finish
        v = FiniteVector.from_dense([Fraction(1, 3), Fraction(2, 7)])
        with pytest.raises(BudgetError):
            lp_norm(p, v)
        with pytest.raises(BudgetError):
            prefix_norms(LpSpace(p), v)
        with pytest.raises(BudgetError):
            lorentz_norm(WeightSpec.harmonic(), p, v)

    def test_many_coefficients_over_a_large_common_scale_refused(self):
        # Each 1/prime is at most 13 bits, so p * bits stayed far below the
        # limit, but the exact sum scales all 800 of them to the lcm of the
        # primes (about 8,700 bits): the sum took 36-43 s.
        primes = [n for n in range(2, 6200) if all(n % d for d in range(2, math.isqrt(n) + 1))]
        v = FiniteVector.from_dense([Fraction(1, q) for q in primes[:800]])
        started = time.perf_counter()
        with pytest.raises(BudgetError, match="--float"):
            lp_norm(100, v)
        with pytest.raises(BudgetError):
            prefix_norms(LpSpace(100), v)
        with pytest.raises(BudgetError):
            lorentz_norm(WeightSpec.harmonic(), 100, v)
        assert time.perf_counter() - started < 1.0

    def test_large_exponent_within_the_limit(self):
        assert lp_norm(1000, FiniteVector.from_dense([1, 1, 0, 1])) == 3.0 ** (1 / 1000)
        value = lp_norm(4096, FiniteVector.from_dense([Fraction(5, 2)] * 4))
        assert math.isclose(value, 2.5 * 4 ** (1 / 4096), rel_tol=1e-12)

    @pytest.mark.parametrize("t", [Fraction(3, 2), Fraction(2, 3)])
    def test_power_sum_outside_the_float_range(self, t):
        # sum = 3 * t**2000 over- or underflows a float; its root does not
        value = lp_norm(2000, FiniteVector.from_dense([t] * 3))
        assert math.isclose(value, float(t) * 3 ** (1 / 2000), rel_tol=1e-12)


    def test_exact_power_sum_beyond_the_float_range(self):
        v = FiniteVector.from_dense([10 ** 400, 1])
        assert lp_norm(1, v) == 10 ** 400 + 1
        assert lp_norm(2, v) == INF  # the float the root rounds to

    @pytest.mark.parametrize("p, coeffs", [
        (3000, [2.0, 3.0]),
        (3000.0, [2.0, 3.0]),
        (3000.0, [2, 3]),
        (Fraction(6001, 2), [2, 3]),
    ])
    def test_float_power_beyond_the_float_range(self, p, coeffs):
        # 3.0 ** 3000.0 overflows; the sup is factored out on that path only
        v = FiniteVector.from_dense(coeffs)
        assert lp_norm(p, v) == 3.0
        assert lorentz_norm(WeightSpec.harmonic(), p, v) == 3.0
        assert prefix_norms(LpSpace(p), v) == [2.0, 3.0]

    @pytest.mark.parametrize("coeffs, first", [([INF, 1e200], INF), ([10 ** 400, 1e200], 10 ** 400)],
                             ids=["inf", "10^400"])
    def test_sup_beyond_the_float_range_with_overflowing_power(self, coeffs, first):
        # factoring out an infinite sup gave nan (inf / inf), and a float
        # over an int beyond the float range raised OverflowError
        v = FiniteVector.from_dense(coeffs)
        assert lp_norm(3, v) == INF
        assert lorentz_norm(WeightSpec.harmonic(), 3, v) == INF
        assert prefix_norms(LpSpace(3), v) == [first, INF]

    def test_float_l1_is_a_plain_left_to_right_sum(self):
        # sum() is compensated on Python >= 3.12 and gave 1.0 there, unlike
        # 3.11 and the running sum of `scan lp:p=1 --float`
        coeffs = [0.1] * 10
        assert lp_norm(1, FiniteVector.from_dense(coeffs)) == 0.9999999999999999
        assert prefix_norms(LpSpace(1), FiniteVector.from_dense(coeffs))[-1] == 0.9999999999999999

    def test_l1_of_floats_and_an_exact_term_beyond_the_float_range(self):
        # adding 1.5 to 10 ** 400 raised OverflowError, in the norm and in
        # the running sum of `scan`
        for coeffs in ([1.5, 10 ** 400], [10 ** 400, 1.5], [Fraction(10 ** 400, 3), 1.5]):
            assert lp_norm(1, FiniteVector.from_dense(coeffs)) == INF
            assert prefix_norms(LpSpace(1), FiniteVector.from_dense(coeffs))[-1] == INF

    def test_float_exponent_one_sums_in_floats(self):
        # exact arithmetic needs exact values and an exact integer exponent,
        # as for every classical norm: lp at p = 1.0 returned Fraction(5, 6)
        v = FiniteVector.from_dense([Fraction(1, 2), Fraction(1, 3)])
        assert typed(lp_norm(1, v)) == typed(Fraction(5, 6))
        assert typed(lp_norm(1.0, v)) == "float:0.8333333333333333"
        assert type(luxemburg_norm(OrliczFunction.power(1.0), v)) is float
        assert list(map(typed, prefix_norms(LpSpace(1.0), v))) == ["float:0.5", "float:0.8333333333333333"]

    def test_float_power_sum_below_the_float_range(self):
        # 0.5 ** 100000.0 underflows: the sum of a nonzero vector read 0.0
        v = FiniteVector.from_dense([Fraction(1, 2), Fraction(1, 2)])
        expected = 0.5 * 2.0 ** (1 / 100000.0)
        assert lp_norm(100000.0, v) == expected
        assert prefix_norms(LpSpace(100000.0), v) == [0.5, expected]
        value = lorentz_norm(WeightSpec.harmonic(), 100000.0, v)
        assert value == 0.5 * 1.5 ** (1 / 100000.0)

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(1, 12), st.integers(-9, 9), st.sampled_from((1, 2, 3, 7)))),
        st.sampled_from((1, 2, 3, Fraction(5, 2), 1.0, 2.0, 2.5, INF)),
        st.booleans(),
    )
    def test_interval_norms_equal_fresh_norms(self, terms, p, exact):
        # the running sum from v's first position gives each fresh lp_norm's
        # value and type; the other intervals take a fresh lp_norm
        v = FiniteVector.from_pairs((n, Fraction(a, d) if exact else a / d) for n, a, d in terms)
        intervals = [(lo, hi) for lo in range(1, 14) for hi in range(lo, 14)]
        got = LpSpace(p).interval_norms(v, intervals)
        assert [repr(x) for x in got] == [
            repr(lp_norm(p, v.restrict(range(lo, hi + 1)))) for lo, hi in intervals
        ]

    def test_interval_norms_on_mixed_vectors_equal_fresh_norms(self):
        # one vector mixes ints, Fractions, floats, True and terms past the
        # float range; every window, empty and reversed ones too, keeps a
        # fresh lp_norm's type and repr
        rng, windows = Random(31), 0
        entries = (
            lambda: rng.randint(-9, 9),
            lambda: Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
            lambda: rng.uniform(-5, 5),
            lambda: rng.choice((10 ** 400, Fraction(10 ** 400, 3), 1e300, True)),
        )
        for _ in range(480):
            values = [rng.choice(entries)() for _ in range(rng.randint(0, 8))]
            v = FiniteVector.from_pairs(zip(sorted(rng.sample(range(1, 12), len(values))), values))
            p = rng.choice((1, 2, 3, Fraction(3, 2), 1.0, 2.0, 2.5, INF))
            intervals = [(rng.randint(0, 13), rng.randint(0, 13)) for _ in range(13)]
            intervals += [(1, K) for K in range(12)]
            got = LpSpace(p).interval_norms(v, intervals)
            assert list(map(typed, got)) == [
                typed(lp_norm(p, v.restrict(range(lo, hi + 1)))) for lo, hi in intervals
            ], (v, p)
            windows += len(intervals)
        assert windows == 12_000


@st.composite
def root_cases(draw):
    """(n, p): a perfect p-th power of up to about 40,000 bits, one of its
    neighbours, or any integer between two consecutive p-th powers."""
    p = draw(st.integers(1, 5000))
    root = draw(st.integers(1, 2 ** max(1, 40_000 // p) - 1))
    n = root ** p
    shift = draw(st.sampled_from(("-1", "0", "+1", "between")))
    if shift == "between":
        return draw(st.integers(n, (root + 1) ** p - 1)), p
    return max(n + int(shift), 0), p


class TestIntegerRoot:
    @settings(max_examples=300, deadline=None)
    @given(root_cases())
    def test_floor_of_the_root(self, case):
        n, p = case
        r = _integer_root(n, p)
        assert r ** p <= n < (r + 1) ** p

    @pytest.mark.parametrize("n, p, expected", [
        (0, 7, 0), (1, 5000, 1), (2, 5000, 1), (2 ** 5000 - 1, 5000, 1), (2 ** 5000, 5000, 2),
        (10 ** 40, 2, 10 ** 20), (10 ** 40 - 1, 2, 10 ** 20 - 1), (12345, 1, 12345),
        (3 ** 3000 * 7, 3000, 3),
    ])
    def test_examples(self, n, p, expected):
        assert _integer_root(n, p) == expected


class TestExactRoot:
    def test_inexact_numerator_skips_the_denominator(self, monkeypatch):
        calls = []

        def counted(n, p):
            calls.append(n)
            return _integer_root(n, p)

        monkeypatch.setattr(classical, "_integer_root", counted)
        assert classical._exact_root(Fraction(2, 9), 2) is None
        assert calls == [2]
        assert classical._exact_root(Fraction(4, 9), 2) == Fraction(2, 3)
        assert classical._exact_root(Fraction(4, 7), 2) is None
        assert calls == [2, 4, 9, 4, 7]


class TestOrliczFunction:
    def test_power_needs_p_at_least_one(self):
        with pytest.raises(ConfigurationError):
            OrliczFunction.power(Fraction(1, 2))

    def test_table_interpolates(self):
        M = OrliczFunction.from_knots([(1, 1), (2, 4)])
        assert M(0) == 0
        assert M(Fraction(1, 2)) == Fraction(1, 2)
        assert M(Fraction(3, 2)) == Fraction(5, 2)
        assert M(3) == 7  # linear extension with the last slope

    def test_table_convexity_enforced(self):
        with pytest.raises(ConfigurationError):
            OrliczFunction.from_knots([(1, 2), (2, 3)])  # slope drops 2 -> 1

    def test_table_must_grow(self):
        with pytest.raises(ConfigurationError):
            OrliczFunction.from_knots([(1, 0), (2, 0)])


class TestLuxemburg:
    def test_square_is_euclidean(self):
        v = FiniteVector.from_dense([3, 4])
        value = luxemburg_norm(OrliczFunction.power(2), v)
        assert math.isclose(float(value), 5, rel_tol=1e-10)

    def test_identity_is_l1(self):
        v = FiniteVector.from_dense([3, 4])
        assert luxemburg_norm(OrliczFunction.power(1), v) == 7

    def test_two_ones(self):
        value = luxemburg_norm(OrliczFunction.power(2), FiniteVector.from_dense([1, 1]))
        assert math.isclose(float(value), math.sqrt(2), rel_tol=1e-10)

    def test_zero_vector(self):
        assert luxemburg_norm(OrliczFunction.power(2), FiniteVector.zero()) == 0

    def test_infinite_coefficient(self):
        # the bracket started at u = 1/inf = 0 and ended in a ZeroDivisionError
        for M in (OrliczFunction.power(2), OrliczFunction.from_knots([(1, 1), (2, 3)])):
            assert luxemburg_norm(M, FiniteVector.from_dense([1.0, INF])) == INF

    def test_large_integer_exponent_finishes(self):
        # the exact secant step raised points of unknown bit-length to the
        # power 100000 and never finished
        v = FiniteVector.from_dense([Fraction(1, 3), Fraction(2, 7)])
        rho = luxemburg_norm(OrliczFunction.power(100000), v)
        assert isinstance(rho, float) and 1 / 3 <= rho <= 1 / 3 * (1 + 1e-4)
        # terms past the float range, and an exponent past it, still bisect
        for p in (100000, 10 ** 400):
            rho = luxemburg_norm(OrliczFunction.power(p), FiniteVector.from_dense([49, 1]))
            assert isinstance(rho, float) and 49 * (1 - 1e-4) <= rho <= 49 * (1 + 1e-4)

    def test_entries_beyond_the_float_range(self):
        # float(10 ** 400) raised OverflowError; rho >= sup rounds to inf
        for M in (OrliczFunction.power(2), OrliczFunction.power(Fraction(3, 2))):
            assert luxemburg_norm(M, FiniteVector.from_dense([10 ** 400, 1])) == INF

    def test_subnormal_sup(self):
        # 1 / sup overflowed to inf, so the bracket never formed and the
        # vector was refused as not normed
        tiny = 2.225073858507e-311
        for p, expected in ((1, 2 * tiny), (2, math.sqrt(2) * tiny)):
            rho = luxemburg_norm(OrliczFunction.power(p), FiniteVector.from_dense([tiny, tiny]))
            assert math.isclose(rho, expected, rel_tol=1e-9)
        rho = luxemburg_norm(OrliczFunction.power(1), FiniteVector.from_dense([tiny]))
        assert math.isclose(rho, tiny, rel_tol=1e-9)

    def test_exact_entries_below_the_float_range(self):
        # every entry read 0.0 in floats, and 1 / 0.0 raised ZeroDivisionError
        v = FiniteVector.from_dense([Fraction(1, 10 ** 400)] * 2)
        assert luxemburg_norm(OrliczFunction.power(2), v) == 0.0

    def test_single_entry_is_exact_for_every_integer_exponent(self):
        for p in (2, 100000, 10 ** 400):
            M = OrliczFunction.power(p)
            value = luxemburg_norm(M, FiniteVector.from_pairs([(3, Fraction(-1, 3))]))
            assert type(value) is Fraction and value == Fraction(1, 3)
            value = luxemburg_norm(M, FiniteVector.from_pairs([(5, 2)]))
            assert type(value) is int and value == 2

    def test_residual_within_tolerance(self):
        rng = Random(7)
        M = OrliczFunction.power(3)
        for _ in range(30):
            v = random_vector(rng)
            if v.is_zero:
                continue
            rho = float(luxemburg_norm(M, v, tol=1e-10))
            residual = sum(float(M(abs(a) / rho)) for a in v.coeffs if a != 0)
            assert abs(residual - 1) <= 1e-9


class TestLorentz:
    def test_sorted_weighting(self):
        w = WeightSpec.harmonic()
        assert lorentz_norm(w, 1, FiniteVector.from_dense([2, 1])) == Fraction(5, 2)

    def test_unit_vector(self):
        w = WeightSpec.harmonic()
        assert lorentz_norm(w, 1, FiniteVector.unit(7)) == 1
        assert lorentz_norm(w, 2, FiniteVector.unit(3)) == 1

    def test_permutation_invariance(self):
        w = WeightSpec.harmonic()
        assert lorentz_norm(w, 1, FiniteVector.from_dense([1, 2])) == lorentz_norm(
            w, 1, FiniteVector.from_dense([2, 1])
        )

    def test_dominated_by_lp(self):
        w = WeightSpec.harmonic()
        rng = Random(9)
        for _ in range(50):
            v = random_vector(rng)
            assert lorentz_norm(w, 1, v) <= lp_norm(1, v)
            # p = 2 compared on the exact squared sums
            squared_lorentz = sum(
                a * a * w.weight(i)
                for i, a in enumerate(
                    sorted((abs(c) for c in v.coeffs if c != 0), reverse=True)
                )
            )
            squared_l2 = sum(a * a for a in v.coeffs)
            assert squared_lorentz <= squared_l2

    def test_interval_norms_equal_fresh_norms(self):
        # one scaling per window set: every window keeps a fresh lorentz_norm's
        # type and repr, for int, Fraction, mixed and float values, monotone
        # |values| or not, and empty and reversed windows
        rng, windows, w = Random(29), 0, WeightSpec.harmonic()
        entries = {
            "int": lambda: rng.randint(-9, 9),
            "fraction": lambda: Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
            "mixed": lambda: rng.choice((rng.randint(-9, 9), Fraction(3), Fraction(rng.randint(-30, 30), 7))),
            "float": lambda: rng.choice((rng.uniform(-5, 5), Fraction(rng.randint(-30, 30), 7))),
        }
        for case in range(210):
            make = entries[("int", "fraction", "mixed", "float")[case % 4]]
            values = [make() for _ in range(rng.randint(0, 14))]
            if case % 3 == 0:
                values.sort(key=abs, reverse=True)
            v = FiniteVector.from_pairs(zip(sorted(rng.sample(range(1, 30), len(values))), values))
            p = rng.choice((1, 2, 3, Fraction(3, 2), 1.0))
            intervals = [(rng.randint(0, 31), rng.randint(0, 31)) for _ in range(8)]
            intervals += [(1, K) for K in range(1, 31, 3)]
            got = LorentzSpace(w, p).interval_norms(v, intervals)
            assert list(map(typed, got)) == [
                typed(lorentz_norm(w, p, v.restrict(range(lo, hi + 1)))) for lo, hi in intervals
            ], (v, p)
            windows += len(intervals)
        assert windows >= 2000

    def test_basis_weight_windows_equal_fresh_norms(self):
        # the ideal diagnostics ask the same windows through _phi_windows
        rng = Random(30)
        table = CoefficientGenerator.from_table(
            [rng.choice((1, 2, Fraction(rng.randint(1, 9), rng.randint(1, 9)))) for _ in range(40)])
        w = WeightSpec.harmonic()
        for p in (1, 2, 3):
            for f in (CoefficientGenerator.harmonic(), CoefficientGenerator.power(2), table):
                spec = ideals.SubmeasureSpec.basis_weight(LorentzSpace(w, p), f)
                members = sorted(rng.sample(range(1, 40), 12))
                windows = [tuple(sorted(rng.sample(range(0, 42), 2))) for _ in range(10)]
                got = ideals._phi_windows(spec, members, windows)
                assert list(map(typed, got)) == [
                    typed(lorentz_norm(w, p, FiniteVector.from_pairs(
                        (n, f.value(n)) for n in members if lo <= n <= hi)))
                    for lo, hi in windows
                ]


# ---------------------------------------------------------------------------
# The kernels against slow references: the Fraction/float loops they replace


def typed(x):
    return f"{type(x).__name__}:{x!r}"


def outcome(f, *args):
    try:
        return typed(f(*args))
    except ConfigurationError:
        return "ConfigurationError"


def reference_power(t, p):
    if is_exact(t) and is_exact(p) and Fraction(p).denominator == 1:
        return t ** int(p)
    return float(t) ** float(p)


# The power-sum references return None where today's float sum leaves the
# float range (a power overflows, or the sum of nonzero terms underflows to
# 0): there the sup is factored out, and the regression tests above pin it.


def reference_lp(p, v):
    total = 0  # left to right, as on Python < 3.12
    try:
        for a in v.coeffs:
            total = total + reference_power(abs(a), p)
    except OverflowError:
        return None
    if total == 0 and not v.is_zero:
        return None
    return total if p == 1 else _root(total, p)


def reference_lorentz(w, p, v):
    total = 0
    rearranged = sorted((abs(a) for a in v.coeffs if a != 0), reverse=True)
    try:
        for i, a in enumerate(rearranged):
            total = total + reference_power(a, p) * w.weight(i)
    except OverflowError:
        return None
    if p == 1:
        return total
    if total == 0 and rearranged:
        return None
    return _root(total, p)


def reference_luxemburg(M, v, tol=1e-10):
    # the power case only: the float bisection evaluates M entry by entry
    entries = [abs(a) for a in v.coeffs if a != 0]
    if not entries:
        return 0
    sup = max(entries)
    if sup == INF:
        return sup
    exact = all(is_exact(a) for a in entries)
    if exact and M.p > 1:
        if len(entries) == 1 and is_exact(M.p) and Fraction(M.p).denominator == 1:
            rho = Fraction(sup)
            return int(rho) if rho.denominator == 1 else rho
    elif exact:
        # M(t) = t: the exact secant step lands on 1 / l1
        u = Fraction(1) / sum(entries)
        rho = 1 / u
        return int(rho) if rho.denominator == 1 else rho
    entries_f = [to_float(a) for a in entries]
    if INF in entries_f:
        return INF  # an exact entry past the float range
    scale = 1.0
    if max(entries_f) == 0.0 or 1.0 / max(entries_f) == INF:
        # no bracket from 1/sup: work on the entries over the sup
        entries_f, scale = [float(a / sup) for a in entries], float(sup)

    def g(u):
        total = 0
        try:
            for a in entries_f:
                total = total + M(a * u)
        except OverflowError:
            return INF
        return float(total)

    u_hi, steps = 1.0 / max(entries_f), 0
    while g(u_hi) < 1.0:
        u_hi, steps = u_hi * 2.0, steps + 1
        if steps > 200:
            raise ConfigurationError("no bracket")
    u_lo = u_hi / 2.0
    while g(u_lo) > 1.0:
        u_hi, u_lo, steps = u_lo, u_lo / 2.0, steps + 1
        if steps > 400:
            raise ConfigurationError("no bracket")
    for _ in range(200):
        u_mid = 0.5 * (u_lo + u_hi)
        val = g(u_mid)
        if abs(val - 1.0) <= tol:
            return scale / u_mid
        if val < 1.0:
            u_lo = u_mid
        else:
            u_hi = u_mid
        if u_hi - u_lo <= tol * u_lo:
            break
    return 2.0 * scale / (u_lo + u_hi)


EXACT_ENTRY = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20), st.integers(1, 10 ** 20)),
    # coprime 1000-bit denominators: the common denominator runs to many kbits
    st.builds(lambda k, d: Fraction(k * d // 1000, d), st.integers(-50000, 50000),
              st.integers(10 ** 299, 10 ** 300)),
)
FLOAT_ENTRY = st.floats(-50, 50)
VECTORS = st.one_of(
    st.lists(EXACT_ENTRY, max_size=12),
    st.lists(st.sampled_from((0, Fraction(0))), max_size=4),
    st.lists(FLOAT_ENTRY, max_size=12),
    st.lists(st.one_of(EXACT_ENTRY, FLOAT_ENTRY), max_size=12),
).map(FiniteVector.from_dense)
EXPONENTS = st.sampled_from((1, 2, 3, Fraction(3, 2), 2.0))
WEIGHTS = st.just(WeightSpec.harmonic())


# The Luxemburg sweep: sizes up to 3,000, exponents from 1 to 1e9, and five
# entry kinds by the case number: floats from 1e-320 to 1.7e308 whose
# exponents spread from one to all binades, ints and Fractions (some below
# the float range), the two mixed, 400-digit Fractions (with now and then a
# 400-digit int, past the float range), and subnormal floats only.
LUXEMBURG_SIZES = (1, 2, 3, 5, 8, 13, 40, 200)
LUXEMBURG_EXPONENTS = (1, 2, 3, 10, Fraction(3, 2), 1.0000001, 1.5, 2.5, 7.0, 100.0, 1e4, 1e6, 1e8, 1e9)


def luxemburg_case(case):
    """(M, v, tol) of case ``case`` of the Luxemburg sweep."""
    rng = Random(f"luxemburg-sweep/{case}")
    n = 3000 if case % 50 == 13 else 1000 if case % 25 == 7 else rng.choice(LUXEMBURG_SIZES)
    kind, p = case % 5, rng.choice(LUXEMBURG_EXPONENTS)
    if p == 1 and kind in (1, 3):
        n = min(n, 8)  # the exact l1 norm: its denominator grows with n
    top = rng.randint(-1074, -1022) if kind == 4 else rng.randint(-1062, 1024)
    spread = rng.choice((0, 2, 10, 60, 1100))

    def float_entry():
        return math.ldexp(rng.uniform(0.5, 1.0), max(top - rng.randint(0, spread), -1074))

    def exact_entry():
        b = top - rng.randint(0, min(spread, 60))
        if rng.random() < 0.3:
            return rng.randint(1, 10 ** 6) << max(b, 0)
        return Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6)) * Fraction(2) ** b

    def long_entry():
        if rng.random() < 0.002:
            return rng.randint(10 ** 399, 10 ** 400)
        return Fraction(rng.randint(10 ** 399, 10 ** 400), rng.randint(10 ** 399, 10 ** 400))

    draw = (float_entry, exact_entry, lambda: rng.choice((float_entry, exact_entry))(),
            long_entry, float_entry)[kind]
    values = [rng.choice((-1, 1)) * draw() for _ in range(n)]
    # half the tolerances near the rounding error, where a loose margin shows
    tol = 10 ** rng.uniform(-16, -14 if case % 2 else math.log10(0.5))
    return OrliczFunction.power(p), FiniteVector.from_dense(values), tol


class TestReferenceKernels:
    """Scaled-int sums and the direct float functional give today's values."""

    @settings(max_examples=300, deadline=None)
    @given(VECTORS, EXPONENTS)
    def test_lp(self, v, p):
        expected = reference_lp(p, v)
        assume(expected is not None)
        assert typed(lp_norm(p, v)) == typed(expected)

    @settings(max_examples=300, deadline=None)
    @given(VECTORS, EXPONENTS, WEIGHTS)
    def test_lorentz(self, v, p, w):
        expected = reference_lorentz(w, p, v)
        assume(expected is not None)
        assert typed(lorentz_norm(w, p, v)) == typed(expected)

    @settings(max_examples=200, deadline=None)
    @given(VECTORS, EXPONENTS)
    def test_luxemburg(self, v, p):
        M = OrliczFunction.power(p)
        assert outcome(luxemburg_norm, M, v) == outcome(reference_luxemburg, M, v)

    @pytest.mark.sweep(300, 4000)
    def test_luxemburg_sweep(self, sweep_cases):
        # The steered bisection against the plain loop, by type and repr: the
        # closed form answers only comparisons its error margin settles.
        # Tier-1's 300 cases take about 2 s.
        differ = []
        for case in range(sweep_cases):
            M, v, tol = luxemburg_case(case)
            got, expected = outcome(luxemburg_norm, M, v, tol), outcome(reference_luxemburg, M, v, tol)
            if got != expected:
                differ.append((case, got, expected))
        assert not differ, f"{len(differ)} of {sweep_cases} cases differ, the first: {differ[:3]}"

    @pytest.mark.parametrize("text, expected", [
        ("7", "int:7"),
        ("-7", "int:-7"),
        ("-0", "int:0"),
        ("007", "int:7"),
        (" 12 ", "int:12"),
        ("+7", "int:7"),
        ("1_0", "int:10"),
        ("1_0.5", "Fraction:Fraction(21, 2)"),
        ("1e1_0", "int:" + repr(10 ** 10)),
        ("1__0", None),
        ("_1", None),
        ("1_", None),
        ("1_e5", None),
        ("1._5", None),
        ("in_f", None),
        ("٣", "int:3"),
        ("1e3", "int:1000"),
        ("1e400", "int:" + repr(10 ** 400)),
        ("4/2", "int:2"),
        ("1.5", "Fraction:Fraction(3, 2)"),
        ("--5", None),
        ("-", None),
        ("", None),
        ("²", None),
        ("0x10", None),
        ("1 2", None),
        ("1" * 5000, None),
        ("-" + "1" * 5000, None),
    ])
    def test_parse_scalar_edge_tokens(self, text, expected):
        # plain ASCII -?digits take the int fast path; everything else keeps
        # the Fraction parse, its value and its ParseError
        if expected is None:
            with pytest.raises(ParseError) as info:
                parse_scalar(text)
            try:
                Fraction(text.strip())
            except ValueError as exc:
                assert str(info.value) == f"bad scalar {text.strip()!r}: {exc}"
        else:
            assert typed(parse_scalar(text)) == expected


ONE_TWO = FiniteVector.from_dense([1, 2])
HALF_THIRD = FiniteVector.from_dense([Fraction(1, 2), Fraction(1, 3)])


def table_norm(text):
    """The library call and the CLI command that read an Orlicz table."""
    call = lambda tmp: load_orlicz_table(f"{tmp}/m.txt")
    argv = ["norm", "orlicz:table={tmp}/m.txt", "{tmp}/v.txt"]
    return call, argv, {"m.txt": text, "v.txt": "1 2"}


@pytest.mark.parametrize("call, argv, files", [
    pytest.param(*table_norm("# no knots\n"), id="orlicz-table-without-knots"),
    pytest.param(*table_norm("1 1\n1 2\n"), id="orlicz-t-not-increasing"),
    pytest.param(*table_norm("1 2\n2 1\n"), id="orlicz-M-decreasing"),
    pytest.param(*table_norm("1 2 3\n"), id="orlicz-line-without-two-columns"),
    pytest.param(lambda tmp: lorentz_norm(WeightSpec.harmonic(), Fraction(1, 2), ONE_TWO), None, None,
                 id="lorentz-p-below-1"),
    pytest.param(lambda tmp: luxemburg_norm(OrliczFunction.power(2), ONE_TWO, tol=0),
                 ["norm", "orlicz:power=2", "{tmp}/v.txt", "--tol", "0"], {"v.txt": "1 2"},
                 id="luxemburg-tol-not-positive"),
    # inf stopped the bisection at once: 0.666... on 1/2 1/3, whose norm is 0.6009...
    pytest.param(lambda tmp: luxemburg_norm(OrliczFunction.power(2), HALF_THIRD, tol=math.inf),
                 ["norm", "orlicz:power=2", "{tmp}/v.txt", "--tol", "inf"], {"v.txt": "1/2 1/3"},
                 id="luxemburg-tol-infinite"),
    pytest.param(lambda tmp: luxemburg_norm(OrliczFunction.power(2), HALF_THIRD, tol=math.nan),
                 ["norm", "orlicz:power=2", "{tmp}/v.txt", "--tol", "nan"], {"v.txt": "1/2 1/3"},
                 id="luxemburg-tol-nan"),
])
def test_validation_branches(refused, call, argv, files):
    refused(call, ConfigurationError, argv, files)
