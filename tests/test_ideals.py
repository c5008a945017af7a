import math
from bisect import bisect_left, bisect_right
from fractions import Fraction
from random import Random

import pytest

from seqnorms import cli, ideals
from seqnorms.core import (
    INF, BudgetError, ConfigurationError, HFunction, ParseError, SpaceSpec, TsirelsonSpace,
)
from seqnorms.series import CoefficientGenerator
from seqnorms.ideals import (
    FLAT_RATIO,
    INCONCLUSIVE,
    IdealSpec,
    MEMBER,
    NON_MEMBER,
    NOT_TURBULENT,
    SHRINK_RATIO,
    TURBULENT,
    SetGenerator,
    SubmeasureSpec,
    membership_verdict,
    parse_ideal,
    parse_set,
    phi,
    phi_tail_profile,
    submeasure_axiom_check,
    turbulence_criterion,
)

HALF = Fraction(1, 2)
RECIPROCAL = CoefficientGenerator.power(1)  # weights 1/n


class TestSetGenerators:
    def test_evens(self):
        assert SetGenerator.evens().members(1, 9) == [2, 4, 6, 8]
        assert SetGenerator.evens().members(9, 8) == []

    def test_squares(self):
        assert SetGenerator.squares().members(2, 20) == [4, 9, 16]

    def test_primes(self):
        assert SetGenerator.primes().members(1, 12) == [2, 3, 5, 7, 11]
        # against trial division: every window [1, hi] and every [lo, 2000]
        N, gen = 2000, SetGenerator.primes()
        primes = [n for n in range(2, N + 1) if all(n % d for d in range(2, math.isqrt(n) + 1))]
        for hi in range(-1, N + 1):
            assert gen.members(1, hi) == primes[:bisect_right(primes, hi)], hi
        for lo in range(-1, N + 2):
            assert gen.members(lo, N) == primes[bisect_left(primes, lo):], lo

    def test_dyadic_block(self):
        assert SetGenerator.dyadic_block(2).members(1, 100) == [5, 6, 7, 8]
        assert SetGenerator.dyadic_block(2).members(6, 7) == [6, 7]
        assert SetGenerator.dyadic_block(0).members(3, 9) == []

    def test_far_dyadic_block_costs_only_the_window(self):
        # the block (2^60, 2^61] used to be scanned in full for every window
        assert SetGenerator.dyadic_block(60).members(1, 100) == []
        assert SetGenerator.dyadic_block(60).members(2 ** 61 - 1, 2 ** 62) == [2 ** 61 - 1, 2 ** 61]

    def test_block_past_the_window_forms_no_power(self):
        # 2 ** (10^10) raised MemoryError; a block past hi is empty at once
        assert SetGenerator.dyadic_block(10 ** 10).members(1, 64) == []
        # the block (2^j, 2^(j+1)] against hi = 2^j - 1, 2^j and 2^j + 1
        for j in range(6):
            for hi in (2 ** j - 1, 2 ** j, 2 ** j + 1):
                expected = list(range(2 ** j + 1, min(hi, 2 ** (j + 1)) + 1))
                assert SetGenerator.dyadic_block(j).members(1, hi) == expected, (j, hi)

    def test_parse(self):
        assert parse_set("evens").kind == "evens"
        assert parse_set("explicit:3;1;3").members(1, 10) == [1, 3]
        with pytest.raises(ParseError):
            parse_set("odds")


class TestPhi:
    def test_summable_direct_sum(self):
        spec = SubmeasureSpec.summable(RECIPROCAL)
        assert phi(spec, [1, 2, 4]) == Fraction(7, 4)

    @pytest.mark.parametrize("weights", [
        CoefficientGenerator.power(Fraction(3, 2)), RECIPROCAL, CoefficientGenerator.constant(1),
    ], ids=["float", "fraction", "int"])
    def test_summable_adds_left_to_right_from_int_zero(self, weights):
        # sum() compensates float sums on Python >= 3.12; phi gives every
        # Python the bits of the plain loop, and exact weights keep their type
        spec = SubmeasureSpec.summable(weights)
        for N in range(2, 400, 7):
            total = 0
            for n in range(1, N):
                total = total + weights.value(n)
            value = phi(spec, range(1, N))
            assert (type(value), repr(value)) == (type(total), repr(total))

    def test_empty_set(self):
        for spec in (
            SubmeasureSpec.summable(RECIPROCAL),
            SubmeasureSpec.basis_weight(SpaceSpec.lp(1), CoefficientGenerator.constant(1)),
        ):
            assert phi(spec, []) == 0

    def test_tsirelson_unit_weight(self):
        spec = SubmeasureSpec.basis_weight(
            SpaceSpec.tsirelson(HALF), CoefficientGenerator.constant(1)
        )
        assert phi(spec, [4, 5, 6]) == Fraction(3, 2)

    def test_position_map_reindexes(self):
        # with positions doubled, {1, 2} lands on basis vectors 2 and 4
        spec = SubmeasureSpec.basis_weight(
            SpaceSpec.tsirelson(HALF),
            CoefficientGenerator.constant(1),
            position_map=HFunction.affine(2, 0),
        )
        assert phi(spec, [1, 2]) == 1  # ||t_2 + t_4|| = 1

    def test_budget(self):
        spec = SubmeasureSpec.basis_weight(
            TsirelsonSpace(HALF, budget=10), CoefficientGenerator.constant(1)
        )
        with pytest.raises(BudgetError):
            phi(spec, list(range(1, 20)))

    def test_negative_weight_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            SubmeasureSpec.summable(CoefficientGenerator.constant(-1))
        with pytest.raises(ConfigurationError):
            SubmeasureSpec.basis_weight(SpaceSpec.lp(1), CoefficientGenerator.constant(0))

    def test_zero_summable_weights_admitted(self):
        # a set whose weights are all zero reads 0, the l1 norm of the zero vector
        spec = SubmeasureSpec.summable(CoefficientGenerator.from_table([1.5, 0.0, 2.0]))
        assert phi(spec, [1, 2, 3]) == 3.5
        assert (type(phi(spec, [2])), phi(spec, [2])) == (int, 0)

    def test_summable_is_the_l1_case(self):
        weights = CoefficientGenerator.power(Fraction(3, 2))
        spec = SubmeasureSpec.summable(weights)
        assert spec.space == SpaceSpec.lp(1) and spec.f == weights
        assert spec.describe() == "summable:w=power:s=3/2"


class TestWindows:
    """Every windowed value is phi of that window's members, bit for bit."""

    SPECS = [
        SubmeasureSpec.basis_weight(SpaceSpec.tsirelson(0.5), RECIPROCAL, HFunction.affine(2, 0)),
        SubmeasureSpec.basis_weight(SpaceSpec.tsirelson(HALF), CoefficientGenerator.harmonic()),
        SubmeasureSpec.basis_weight(SpaceSpec.lp(Fraction(5, 2)), RECIPROCAL, HFunction.affine(1, 3)),
        SubmeasureSpec.basis_weight(SpaceSpec.lp(2.0), CoefficientGenerator.power(Fraction(3, 2))),
        SubmeasureSpec.summable(CoefficientGenerator.power(Fraction(3, 2))),
        SubmeasureSpec.summable(RECIPROCAL),
    ]
    SETS = [SetGenerator.naturals(), SetGenerator.evens(), SetGenerator.primes(),
            SetGenerator.explicit([3, 4, 9, 17, 18])]

    @staticmethod
    def same(a, b):
        return (type(a), repr(a)) == (type(b), repr(b))

    @pytest.mark.parametrize("spec", SPECS, ids=lambda spec: spec.describe())
    def test_windows_match_phi(self, spec):
        rng = Random(spec.describe())
        for _ in range(12):
            A, horizon = rng.choice(self.SETS), rng.randint(2, 24)
            members = A.members(1, horizon)
            # some windows fall between members or past them, and read 0
            windows = [tuple(sorted(rng.sample(range(0, horizon + 3), 2))) for _ in range(5)]
            windows.append((horizon + 1, horizon + 2))
            got = ideals._phi_windows(spec, members, windows)
            for (lo, hi), value in zip(windows, got):
                assert self.same(value, phi(spec, [n for n in members if lo <= n <= hi]))
            cuts = sorted(rng.sample(range(1, horizon), min(4, horizon - 1)))
            tails = phi_tail_profile(spec, A, cuts, horizon)
            for cut, value in zip(cuts, tails):
                assert self.same(value, phi(spec, A.members(cut, horizon - 1)))


class TestTailProfile:
    def test_square_summable_tails_shrink(self):
        spec = SubmeasureSpec.summable(CoefficientGenerator.power(2))
        values = phi_tail_profile(spec, SetGenerator.naturals(), [101], 3000)
        assert float(values[0]) < 0.01

    def test_finite_set_tail_zero(self):
        spec = SubmeasureSpec.summable(RECIPROCAL)
        values = phi_tail_profile(spec, SetGenerator.explicit([2, 5]), [6], 100)
        assert values == [0]

    def test_evens_tail_large(self):
        spec = SubmeasureSpec.summable(RECIPROCAL)
        values = phi_tail_profile(spec, SetGenerator.evens(), [2], 2000)
        assert float(values[0]) >= 3.4

    def test_tails_non_increasing_in_cut(self):
        spec = SubmeasureSpec.basis_weight(SpaceSpec.lp(2), RECIPROCAL)
        values = phi_tail_profile(spec, SetGenerator.naturals(), [1, 4, 16], 64)
        assert values[0] >= values[1] >= values[2]


class TestAxioms:
    def _pairs(self, seed, count):
        rng = Random(seed)
        return [
            (
                sorted(rng.sample(range(1, 41), rng.randint(0, 6))),
                sorted(rng.sample(range(1, 41), rng.randint(0, 6))),
            )
            for _ in range(count)
        ]

    def test_summable_passes(self):
        spec = SubmeasureSpec.summable(RECIPROCAL)
        report = submeasure_axiom_check(spec, self._pairs(1, 50))
        assert report.passed and report.checked == 50

    def test_l1_weighted_passes_and_is_additive(self):
        spec = SubmeasureSpec.basis_weight(SpaceSpec.lp(1), CoefficientGenerator.power(2))
        report = submeasure_axiom_check(spec, self._pairs(2, 50))
        assert report.passed
        # disjoint union attains subadditivity with equality
        assert phi(spec, [1, 3]) + phi(spec, [2, 4]) == phi(spec, [1, 2, 3, 4])

    def test_tsirelson_weighted_passes(self):
        spec = SubmeasureSpec.basis_weight(SpaceSpec.tsirelson(HALF), RECIPROCAL)
        report = submeasure_axiom_check(spec, self._pairs(3, 30))
        assert report.passed

    def test_rounded_roots_are_not_violations(self):
        # phi({7}) is exactly 1/7, but the 3000th root of the union's power
        # sum comes back through logarithms an ulp below it; the prefix
        # values of [3, 17, ...] wobble the same way.  Neither is a failure
        # of a genuine submeasure.
        spec = SubmeasureSpec.basis_weight(SpaceSpec.lp(3000), RECIPROCAL)
        assert phi(spec, [7]) == Fraction(1, 7)
        assert phi(spec, [7, 9, 14, 19, 33]) < Fraction(1, 7)
        pairs = [([9, 14, 19, 33], [7]), ([3, 17, 25, 27, 32, 33], [])]
        report = submeasure_axiom_check(spec, pairs)
        assert report.passed, report.violations

    def test_a_real_violation_is_still_reported(self):
        # With h(k) = 2k exactly h(k) sets are admitted, so the value is not
        # subadditive: 8/3 on {3, 4, 5, 6} against 1 + 14/9 for its parts.
        space = SpaceSpec.tsirelson(Fraction(2, 3), HFunction.affine(2, 0))
        spec = SubmeasureSpec.basis_weight(space, CoefficientGenerator.constant(1))
        report = submeasure_axiom_check(spec, [([3], [4, 5, 6])])
        assert report.violations == ("subadditivity fails at ([3], [4, 5, 6])",)


class SizeSpace(SpaceSpec):
    """A fake "norm" that reads only the support size, to break the axioms."""

    def __init__(self, of_size):
        self.of_size = of_size

    def norm(self, v):
        return self.of_size(len(v.support))

    def describe(self):
        return "size"


def reciprocal_size(k):
    return Fraction(1, k)


def infinite_singletons(k):
    return INF if k == 1 else 1


# phi(empty) != 0 is not reachable: phi returns 0 before it calls the space.
@pytest.mark.parametrize("of_size, pairs, violations", [
    pytest.param(reciprocal_size, [([1], [2])], ("monotonicity fails at ([1], [2])",),
                 id="monotonicity"),
    pytest.param(infinite_singletons, [([3], [])], ("phi({3}) not finite",),
                 id="infinite-singleton"),
    pytest.param(reciprocal_size, [([1, 2], [])], (
        "prefix values not non-decreasing at [1, 2]", "prefix sup differs from phi at [1, 2]",
    ), id="falling-prefixes"),
])
def test_violation_branches(of_size, pairs, violations):
    spec = SubmeasureSpec.basis_weight(SizeSpace(of_size), CoefficientGenerator.constant(1))
    report = submeasure_axiom_check(spec, pairs)
    assert report.passed is False
    assert report.violations == violations


def test_cli_notes_each_violation(capsys, monkeypatch):
    # the one pair seed 0 draws is ([3, 17, 25, 27, 32, 33], [20, 23, 31])
    spec = SubmeasureSpec.basis_weight(
        SizeSpace(infinite_singletons), CoefficientGenerator.constant(1)
    )
    monkeypatch.setattr(ideals, "parse_ideal", lambda text, budget: IdealSpec(spec, "Fin"))
    assert cli.main(["ideal", "axioms", "size", "--samples", "1"]) == cli.EXIT_VIOLATION
    assert capsys.readouterr().out == (
        "# ideal=Fin(basis-weight:space=size,f=constant:c=1)\n"
        "# seed=0\n"
        "# mode=exact\n"
        "checked,1\n"
        "flag,FAIL\n"
        "# phi({3}) not finite\n"
        "# phi({20}) not finite\n"
        "# prefix values not non-decreasing at [3, 17, 25, 27, 32, 33]\n"
        "# prefix sup differs from phi at [3, 17, 25, 27, 32, 33]\n"
    )


def test_cli_reports_a_broken_phi(capsys, monkeypatch):
    # phi itself never breaks the first three axioms, so a stub does: 1 on
    # the empty set, |A| up to 6 points (the most a sample set holds, so the
    # prefix checks agree), 0 on 7-8 points and 100 from 9 on.
    real = ideals.phi

    def broken(spec, A):
        k = len(set(A))
        if 1 <= k <= 6:
            return real(spec, A)
        return 1 if k == 0 else 0 if k <= 8 else 100

    monkeypatch.setattr(ideals, "phi", broken)
    argv = ["ideal", "axioms", "basis-weight:space=lp:p=1,f=constant:c=1,kind=Fin", "--samples", "6"]
    assert cli.main(argv) == cli.EXIT_VIOLATION == 5
    out = capsys.readouterr().out.splitlines()
    assert out[3:5] == ["checked,6", "flag,FAIL"]
    assert out[5:] == [
        "# phi(empty) != 0",
        "# subadditivity fails at ([3, 17, 25, 27, 32, 33], [20, 23, 31])",
        "# monotonicity fails at ([7, 22, 23, 28, 31, 36], [14, 40])",
        "# subadditivity fails at ([1, 6, 26, 32, 36, 39], [5, 13, 15, 16, 21, 22])",
    ]


class TestTurbulence:
    def test_reciprocal_weights_turbulent(self):
        spec = SubmeasureSpec.summable(RECIPROCAL)
        assert turbulence_criterion(spec, 200) == TURBULENT
        assert all(phi(spec, [n]) <= Fraction(1, 100) for n in range(100, 201))

    def test_tsirelson_unit_weight_not_turbulent(self):
        spec = SubmeasureSpec.basis_weight(
            SpaceSpec.tsirelson(HALF), CoefficientGenerator.constant(1)
        )
        assert turbulence_criterion(spec, 64) == NOT_TURBULENT
        assert phi(spec, [17]) == 1

    def test_tsirelson_reciprocal_weight_turbulent(self):
        spec = SubmeasureSpec.basis_weight(SpaceSpec.tsirelson(HALF), RECIPROCAL)
        assert turbulence_criterion(spec, 128) == TURBULENT


class TestMiddleVerdicts:
    """Summable weight tables whose readings fall between the two trends."""

    def test_turbulence_with_small_singletons_that_do_not_decrease(self):
        # phi({n}) = w(n): the last half dips below the floor, but the values
        # go back up on the way
        weights = CoefficientGenerator.from_table([1, Fraction(1, 1000)] * 2)
        assert turbulence_criterion(SubmeasureSpec.summable(weights), 4) == INCONCLUSIVE

    def test_exh_with_late_tails_on_both_sides_of_the_threshold(self):
        # weight 1 on 1..7, then 0: the late tails, from the cuts 4 and 8, are 4 and 0
        spec = SubmeasureSpec.summable(CoefficientGenerator.from_table([1] * 7 + [0] * 9))
        assert phi_tail_profile(spec, SetGenerator.naturals(), [1, 2, 4, 8], 16) == [7, 6, 4, 0]
        assert membership_verdict(IdealSpec(spec, "Exh"), SetGenerator.naturals(), 16) == INCONCLUSIVE

    def test_fin_with_increments_neither_shrinking_nor_flat(self):
        # the prefixes to the cuts 1, 2, 4 grow by w(2) = 1, then w(3) + w(4) = 23/25
        weights = CoefficientGenerator.from_table([1, 1, Fraction(1, 2), Fraction(21, 50)])
        assert SHRINK_RATIO < Fraction(23, 25) < FLAT_RATIO
        ideal = IdealSpec(SubmeasureSpec.summable(weights), "Fin")
        assert membership_verdict(ideal, SetGenerator.naturals(), 4) == INCONCLUSIVE


class TestMembershipFills:
    """One vector, and so one Tsirelson engine, per set: every window, exact
    or float, reads its table."""

    @pytest.mark.parametrize("alpha", [HALF, 0.5], ids=["exact", "float"])
    def test_exh_tails(self, fills, alpha):
        # cuts 1, 2, 4, 8 and 16 below the horizon 32, all on one table
        ideal = IdealSpec.tsirelson_ideal(alpha, HFunction.identity(), RECIPROCAL)
        assert membership_verdict(ideal, SetGenerator.evens(), 32) == NON_MEMBER
        assert fills[0] == 1

    def test_fin_prefixes(self, fills):
        spec = SubmeasureSpec.basis_weight(SpaceSpec.tsirelson(HALF), RECIPROCAL)
        membership_verdict(IdealSpec(spec, "Fin"), SetGenerator.naturals(), 32)
        assert fills[0] == 1

    def test_axiom_pair_reads_x_once(self, fills):
        # one table each for x with its prefixes, y, the union, {2} and {5}
        ideal = IdealSpec.tsirelson_ideal(HALF, HFunction.identity(), RECIPROCAL)
        assert submeasure_axiom_check(ideal.submeasure, [([2, 3], [5])]).passed
        assert fills[0] == 5


class TestMembership:
    def test_squares_in_reciprocal_ideal(self):
        ideal = IdealSpec.summable_ideal(RECIPROCAL)
        assert membership_verdict(ideal, SetGenerator.squares(), 1000) == MEMBER

    def test_evens_not_in_reciprocal_ideal(self):
        ideal = IdealSpec.summable_ideal(RECIPROCAL)
        assert membership_verdict(ideal, SetGenerator.evens(), 1000) == NON_MEMBER

    def test_finite_set_always_member(self):
        for ideal in (
            IdealSpec.summable_ideal(RECIPROCAL),
            IdealSpec.tsirelson_ideal(HALF, HFunction.identity(), RECIPROCAL),
        ):
            assert membership_verdict(ideal, SetGenerator.explicit([3, 7]), 64) == MEMBER

    def test_null_kind_thresholds_whole_window(self):
        ideal = IdealSpec(SubmeasureSpec.summable(CoefficientGenerator.power(3)), "Null")
        assert membership_verdict(ideal, SetGenerator.explicit([10]), 100) == MEMBER
        assert membership_verdict(ideal, SetGenerator.naturals(), 100) == NON_MEMBER

    @pytest.mark.parametrize("kind", ["Fin", "Exh", "Null"])
    def test_infinite_phi_is_non_member(self, kind):
        # The weights n^400.5 pass the double range from n = 6 on, so phi of
        # the evens up to 8 and up to 16 is inf, and phi(A) = inf puts A in
        # no Fin, Exh or Null ideal.  Two infinite Fin prefixes differ by
        # inf - inf = nan, which no ratio test reads.
        ideal = parse_ideal(f"basis-weight:space=lp:p=1,f=power:s=-400.5,kind={kind}")
        evens = SetGenerator.evens()
        assert phi(ideal.submeasure, evens.members(1, 8)) == INF
        assert membership_verdict(ideal, evens, 16) == NON_MEMBER


class TestDescriptors:
    def test_summable(self):
        ideal = parse_ideal("summable:w=harmonic")
        assert ideal.name == "I_{1/n}" and ideal.kind == "Fin"
        assert phi(ideal.submeasure, [1, 2, 4]) == Fraction(7, 4)

    def test_tsirelson_ideal(self):
        ideal = parse_ideal("tsirelson-ideal:alpha=1/2,h=identity,f=harmonic")
        assert ideal.kind == "Exh"
        assert ideal.submeasure.space.alpha == HALF
        assert phi(ideal.submeasure, [5]) == Fraction(1, 5)

    def test_bad_descriptor(self):
        with pytest.raises(ParseError):
            parse_ideal("density:w=harmonic")
        with pytest.raises(ParseError):
            parse_ideal("tsirelson-ideal:h=identity")


SUMMABLE = SubmeasureSpec.summable(RECIPROCAL)
EIGHT_WITH_NEGATIVE = CoefficientGenerator.from_table([1, 2, -3, 4, 5, 6, 7, 8])
SEVEN_WITH_ZERO = CoefficientGenerator.from_table([1, 2, 3, 0, 5, 6, 7])


@pytest.mark.parametrize("call, argv", [
    pytest.param(lambda tmp: SubmeasureSpec("basis-weight", f=RECIPROCAL), None,
                 id="basis-weight-without-space"),
    pytest.param(lambda tmp: SubmeasureSpec("basis-weight", space=SpaceSpec.lp(2)), None,
                 id="basis-weight-without-f"),
    pytest.param(lambda tmp: SubmeasureSpec("summable"), None, id="summable-without-weights"),
    pytest.param(lambda tmp: SubmeasureSpec("counting"), None, id="unknown-source"),
    # weights are probed at every table entry, not only at 1, 2 and 7
    pytest.param(lambda tmp: SubmeasureSpec.summable(CoefficientGenerator.from_table([1, 1, -1])),
                 ["ideal", "axioms", "summable:w=table:1;1;-1", "--samples", "30", "--seed", "1"],
                 id="summable-negative-table-entry"),
    pytest.param(lambda tmp: SubmeasureSpec.basis_weight(SpaceSpec.lp(2), EIGHT_WITH_NEGATIVE),
                 ["ideal", "axioms", "basis-weight:space=lp:p=2,f=table:1;2;-3;4;5;6;7;8"],
                 id="basis-weight-negative-table-entry"),
    pytest.param(lambda tmp: SubmeasureSpec.basis_weight(SpaceSpec.lp(2), SEVEN_WITH_ZERO), None,
                 id="basis-weight-zero-table-entry"),
    pytest.param(lambda tmp: phi(SUMMABLE, [0, 1]), None, id="phi-position-below-1"),
    pytest.param(lambda tmp: phi_tail_profile(SUMMABLE, SetGenerator.evens(), [8], 8), None,
                 id="cut-point-at-horizon"),
    pytest.param(lambda tmp: membership_verdict(IdealSpec.summable_ideal(RECIPROCAL), SetGenerator.evens(), 1),
                 ["ideal", "membership", "summable:w=harmonic", "evens", "--N", "1"], id="horizon-below-2"),
])
def test_validation_branches(refused, call, argv):
    refused(call, ConfigurationError, argv)
