import math
from fractions import Fraction
from random import Random

import pytest

from seqnorms.core import BudgetError, ConfigurationError, FiniteVector, INF, LpSpace, WeightSpec
from seqnorms.classical import (
    OrliczFunction,
    delta_prime_probe,
    lorentz_norm,
    lp_norm,
    luxemburg_norm,
)


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
            LpSpace(p).prefix_norms(list(v.coeffs))
        with pytest.raises(BudgetError):
            lorentz_norm(WeightSpec.harmonic(), p, v)

    def test_large_exponent_within_the_limit(self):
        assert lp_norm(1000, FiniteVector.from_dense([1, 1, 0, 1])) == 3.0 ** (1 / 1000)
        value = lp_norm(4096, FiniteVector.from_dense([Fraction(5, 2)] * 4))
        assert math.isclose(value, 2.5 * 4 ** (1 / 4096), rel_tol=1e-12)

    @pytest.mark.parametrize("t", [Fraction(3, 2), Fraction(2, 3)])
    def test_power_sum_outside_the_float_range(self, t):
        # sum = 3 * t**2000 over- or underflows a float; its root does not
        value = lp_norm(2000, FiniteVector.from_dense([t] * 3))
        assert math.isclose(value, float(t) * 3 ** (1 / 2000), rel_tol=1e-12)


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


class TestDeltaPrime:
    def test_power_is_symbolic(self):
        report = delta_prime_probe(OrliczFunction.power(3), 1, 8)
        assert report.symbolic and report.empirical_c == 1
        assert report.verdict == "plausible"

    def test_table_quadratic_on_unit_interval(self):
        # knots tracing t^2 on (0,1]; the piecewise-linear interpolant
        # between them stays multiplicatively bounded on the grid
        knots = [(Fraction(1, 2 ** i), Fraction(1, 4 ** i)) for i in range(8, -1, -1)]
        report = delta_prime_probe(OrliczFunction.from_knots(knots), 1, 6)
        assert report.verdict == "plausible"
        assert report.empirical_c is not None and report.empirical_c > 0.1

    def test_resolution_validated(self):
        with pytest.raises(ConfigurationError):
            delta_prime_probe(OrliczFunction.power(2), 1, 1)
        with pytest.raises(ConfigurationError):
            delta_prime_probe(OrliczFunction.power(2), 0, 4)
