import math
from fractions import Fraction

import pytest

from seqnorms.core import BudgetError, ConfigurationError, FiniteVector, SpaceSpec, TsirelsonSpace
from seqnorms import cli, tsirelson
from seqnorms.series import (
    CONVERGING,
    DIVERGING,
    INCONCLUSIVE,
    CoefficientGenerator,
    convergence_verdict,
    default_tail_grid,
    domination_probe,
    harmonic_tsirelson_witness,
    harmonic_witness_prefix,
    parse_generator,
    partial_sum_norms,
    tail_profile,
)

HALF = Fraction(1, 2)


class TestGenerators:
    def test_harmonic(self):
        g = CoefficientGenerator.harmonic()
        assert g.value(1) == HALF and g.value(3) == Fraction(1, 4)

    def test_power(self):
        g = CoefficientGenerator.power(2)
        assert g.value(3) == Fraction(1, 9)
        assert type(g.value(1)) is Fraction

    def test_power_negative_integer_exponent(self):
        # n ** -1 is a float, which Fraction(1, .) rejected with a TypeError
        g = CoefficientGenerator.power(-1)
        assert g.value(3) == 3 and type(g.value(3)) is Fraction
        assert CoefficientGenerator.power(0).value(5) == 1

    def test_table_pads_with_zero(self):
        g = CoefficientGenerator.from_table([1, 2])
        assert g.value(2) == 2 and g.value(5) == 0

    def test_parse(self):
        assert parse_generator("harmonic") == CoefficientGenerator.harmonic()
        assert parse_generator("power:s=2").value(2) == Fraction(1, 4)
        assert parse_generator("constant:c=1/3").value(9) == Fraction(1, 3)
        assert parse_generator("table:1;1/2").value(2) == HALF


class TestPartialSums:
    def test_l2_harmonic_prefixes(self):
        values = partial_sum_norms(SpaceSpec.lp(2), CoefficientGenerator.harmonic(), 3)
        assert values[0] == HALF
        assert math.isclose(float(values[1]), math.sqrt(Fraction(1, 4) + Fraction(1, 9)))
        assert math.isclose(
            float(values[2]),
            math.sqrt(Fraction(1, 4) + Fraction(1, 9) + Fraction(1, 16)),
        )

    def test_constant_zero(self):
        values = partial_sum_norms(SpaceSpec.lp(1), CoefficientGenerator.constant(0), 5)
        assert values == [0] * 5

    def test_c0_harmonic_constant_half(self):
        values = partial_sum_norms(SpaceSpec.c0(), CoefficientGenerator.harmonic(), 10)
        assert all(v == HALF for v in values)

    def test_l1_exact_partial_sums(self):
        values = partial_sum_norms(SpaceSpec.lp(1), CoefficientGenerator.harmonic(), 4)
        assert values[3] == HALF + Fraction(1, 3) + Fraction(1, 4) + Fraction(1, 5)

    def test_tsirelson_prefixes_monotone(self):
        values = partial_sum_norms(
            SpaceSpec.tsirelson(HALF), CoefficientGenerator.harmonic(), 16
        )
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_budget_refusal(self):
        with pytest.raises(BudgetError):
            partial_sum_norms(
                TsirelsonSpace(HALF, budget=64), CoefficientGenerator.harmonic(), 100
            )


class TestTailProfile:
    def test_finite_support_tail_vanishes(self):
        gen = CoefficientGenerator.from_table([1, 1])
        profile = tail_profile(SpaceSpec.lp(1), gen, [(3, 10)])
        assert profile == ((3, 10, 0),)

    def test_power_two_l2_tails_shrink(self):
        gen = CoefficientGenerator.power(2)
        profile = tail_profile(SpaceSpec.lp(2), gen, [(100, 2000)])
        [(_, _, value)] = profile
        assert float(value) < 0.01

    def test_tsirelson_harmonic_dyadic_block(self):
        # the tail over (2^4, 2^5] keeps at least half its l1 mass
        gen = CoefficientGenerator.harmonic()
        profile = tail_profile(SpaceSpec.tsirelson(HALF), gen, [(17, 33)])
        bound = HALF * sum(Fraction(1, n + 1) for n in range(17, 33))
        [(_, _, value)] = profile
        assert value >= bound
        assert float(bound) > 0.32


class TestVerdicts:
    def test_l2_harmonic_converging(self):
        profile = tail_profile(
            SpaceSpec.lp(2), CoefficientGenerator.harmonic(), default_tail_grid(4096)
        )
        assert convergence_verdict(profile, shrink_threshold=0.05) == CONVERGING

    def test_l1_harmonic_diverging(self):
        profile = tail_profile(
            SpaceSpec.lp(1), CoefficientGenerator.harmonic(), default_tail_grid(4096)
        )
        assert convergence_verdict(profile, growth_threshold=3) == DIVERGING

    def test_single_entry_inconclusive(self):
        profile = tail_profile(
            SpaceSpec.lp(2), CoefficientGenerator.harmonic(), [(1, 10)]
        )
        assert convergence_verdict(profile) == INCONCLUSIVE

    def test_certified_bound_triggers_divergence(self):
        profile = tail_profile(
            SpaceSpec.lp(2), CoefficientGenerator.harmonic(), [(1, 4), (2, 4)]
        )
        assert (
            convergence_verdict(profile, certified_lower_bound=10, growth_threshold=5)
            == DIVERGING
        )

    def test_no_divergence_without_growth_or_certificate(self):
        profile = tail_profile(
            SpaceSpec.lp(2), CoefficientGenerator.harmonic(), default_tail_grid(64)
        )
        assert convergence_verdict(profile, growth_threshold=1000) != DIVERGING


class TestScanFills:
    """One Tsirelson table per vector: ``partial_sum_norms`` (positions 1..N)
    and ``tail_profile`` on the default grid (1..N - 1) fill one each, and
    the ``scan`` command, which asks once for both, fills one, in exact and
    in float mode alike: the tails from later starts read the same table."""

    @pytest.mark.parametrize("alpha", [HALF, 0.5], ids=["exact", "float"])
    def test_fill_count(self, fills, alpha):
        N, space, gen = 32, SpaceSpec.tsirelson(alpha), CoefficientGenerator.harmonic()
        grid = default_tail_grid(N)
        assert sum(m > 1 for m, _ in grid) == 4
        partial_sum_norms(space, gen, N)
        tail_profile(space, gen, grid)
        assert fills[0] == 2

    @pytest.mark.parametrize("flags", [[], ["--float"]], ids=["exact", "float"])
    def test_cli_scan_fills_one_table(self, fills, capsys, flags):
        assert cli.main([*flags, "scan", "tsirelson:alpha=1/2", "harmonic", "32"]) == 0
        assert capsys.readouterr().out.endswith("# verdict=inconclusive (heuristic)\n")
        assert fills[0] == 1


class TestBudgetRule:
    """A query counts the positions of the one vector it builds: lo = min m
    to hi = max N - 1, so hi - lo + 1 positions."""

    def test_tail_profile_counts_its_vector(self):
        space, gen = TsirelsonSpace(HALF, budget=8), CoefficientGenerator.harmonic()
        assert len(tail_profile(space, gen, [(1, 9)])) == 1
        for grid, positions in (([(1, 10)], 9), ([(5, 14)], 9)):
            with pytest.raises(BudgetError, match=f"over {positions} positions exceeds the budget 8;"):
                tail_profile(space, gen, grid)

    def test_scan_admits_n_at_budget_n(self, capsys):
        argv = ["scan", "tsirelson:alpha=1/2", "harmonic"]
        assert cli.main([*argv, "8", "--budget-support", "8"]) == 0
        assert capsys.readouterr().out.startswith("# space=tsirelson:alpha=1/2\n")
        assert cli.main([*argv, "9", "--budget-support", "8"]) == cli.EXIT_BUDGET
        assert capsys.readouterr() == ("", (
            "budget: Tsirelson evaluation over 9 positions exceeds the budget 8; "
            "evaluate fewer positions or raise --budget-support\n"
        ))


class TestDomination:
    def test_l2_does_not_dominate_l1(self):
        report = domination_probe(
            SpaceSpec.lp(2), SpaceSpec.lp(1), CoefficientGenerator.harmonic(), 4096,
            shrink_threshold=0.05, growth_threshold=3,
        )
        assert report.dom_verdict == CONVERGING
        assert report.sub_verdict == DIVERGING
        assert report.witnesses_non_domination

    def test_space_against_itself(self):
        report = domination_probe(
            SpaceSpec.lp(2), SpaceSpec.lp(2), CoefficientGenerator.harmonic(), 1024
        )
        assert report.dom_verdict == report.sub_verdict
        assert not report.witnesses_non_domination

    def test_l2_does_not_dominate_tsirelson(self):
        bound, _ = harmonic_tsirelson_witness(3)
        report = domination_probe(
            SpaceSpec.lp(2),
            SpaceSpec.tsirelson(HALF),
            CoefficientGenerator.harmonic(),
            4096,
            shrink_threshold=0.05,
            growth_threshold=float(bound) / 2,
            sub_certified_bound=bound,
        )
        assert report.witnesses_non_domination

    def test_classical_power_split(self):
        # s = 1: 1*s <= 1 < 2*s, so l1 partial sums diverge while l2 converge
        report = domination_probe(
            SpaceSpec.lp(2), SpaceSpec.lp(1), CoefficientGenerator.power(1),
            4096, shrink_threshold=0.05, growth_threshold=3,
        )
        assert report.dom_verdict == CONVERGING
        assert report.sub_verdict == DIVERGING


class TestHarmonicWitness:
    def test_k1_exact_value(self):
        bound, cert = harmonic_tsirelson_witness(1)
        assert bound == Fraction(9, 80)
        assert bound == Fraction(1, 4) * (Fraction(1, 4) + Fraction(1, 5))

    def test_bounds_strictly_increase(self):
        bounds = [harmonic_tsirelson_witness(k)[0] for k in range(1, 6)]
        assert all(a < b for a, b in zip(bounds, bounds[1:]))

    def test_certificate_reproduces_bound(self):
        for k in (1, 2, 3):
            bound, cert = harmonic_tsirelson_witness(k)
            v = harmonic_witness_prefix(k)
            assert tsirelson.certificate_lower_bound(HALF, None, v, cert) == bound

    def test_bound_below_dp_norm(self):
        for k in (1, 2):
            bound, _ = harmonic_tsirelson_witness(k)
            v = harmonic_witness_prefix(k)
            assert bound <= tsirelson.fixed_point_norm(HALF, v)


LP2 = SpaceSpec.lp(2)
HARMONIC = CoefficientGenerator.harmonic()


@pytest.mark.parametrize("call, argv", [
    pytest.param(lambda tmp: CoefficientGenerator("geometric"), None, id="unknown-generator-kind"),
    pytest.param(lambda tmp: CoefficientGenerator("power"), None, id="power-without-exponent"),
    pytest.param(lambda tmp: CoefficientGenerator("constant"), None, id="constant-without-value"),
    pytest.param(lambda tmp: HARMONIC.value(0), None, id="position-below-1"),
    pytest.param(lambda tmp: partial_sum_norms(LP2, HARMONIC, 0), ["scan", "lp:p=2", "harmonic", "0"],
                 id="N-below-1"),
    pytest.param(lambda tmp: tail_profile(LP2, HARMONIC, [(4, 4)]), None, id="grid-m-not-below-N"),
    pytest.param(lambda tmp: tail_profile(LP2, HARMONIC, [(0, 4)]), None, id="grid-m-below-1"),
])
def test_validation_branches(refused, call, argv):
    refused(call, ConfigurationError, argv)
