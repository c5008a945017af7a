import hashlib
import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, combinations_with_replacement
from operator import add
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import fresh_python
from seqnorms.core import (
    BudgetError,
    CertificateError,
    ConfigurationError,
    FiniteVector,
    HFunction,
    ORACLE_SUPPORT_LIMIT,
    TsirelsonSpace,
    close,
)
from seqnorms.tsirelson import (
    CertificateNode,
    LevelTrace,
    TsirelsonEngine,
    _families,
    certificate_lower_bound,
    fixed_point_norm,
    is_admissible,
    norm,
    oracle_norm,
    prefix_norms,
)

HALF = Fraction(1, 2)


def units(*positions):
    return FiniteVector.from_pairs((n, 1) for n in positions)


def level(alpha, h, v, m):
    """The level-m value ||v||_m from norm()'s trace, which ends where the
    levels settle; every later level repeats the last."""
    levels = norm(alpha, h, v)[1].levels
    return levels[min(m, len(levels) - 1)][1]


class TestAdmissibility:
    def test_two_singletons_from_two(self):
        assert is_admissible([{2}, {3}])

    def test_starting_too_early(self):
        result = is_admissible([{1}, {2}])
        assert not result and result.reason == "min-violation"

    def test_doubling_size_function(self):
        assert is_admissible([{1}, {2}], h=HFunction.affine(2, 0))

    def test_ordering_required(self):
        assert is_admissible([{2, 5}, {4}]).reason == "not-increasing"

    def test_empty_family(self):
        assert is_admissible([]).reason == "empty-family"


class TestLevels:
    def test_level_zero_is_sup(self):
        v = FiniteVector.from_dense([Fraction(1, 3), -2, 1])
        assert level(HALF, None, v, 0) == 2

    def test_adjacent_pair(self):
        assert level(HALF, None, units(2, 3), 1) == 1

    def test_three_singletons(self):
        assert level(HALF, None, units(4, 5, 6), 1) == Fraction(3, 2)

    def test_levels_monotone(self):
        rng = Random(5)
        for _ in range(20):
            v = FiniteVector.from_pairs(
                (rng.randint(1, 9), Fraction(rng.randint(1, 4), rng.randint(1, 3)))
                for _ in range(4)
            )
            values = [level(HALF, None, v, m) for m in range(5)]
            assert all(b >= a for a, b in zip(values, values[1:]))


class TestNorm:
    def test_unit_vectors(self):
        for n in (1, 2, 17):
            value, _ = norm(HALF, None, FiniteVector.unit(n))
            assert value == 1

    def test_first_two(self):
        value, _ = norm(HALF, None, units(1, 2))
        assert value == 1

    def test_zero_vector(self):
        value, trace = norm(HALF, None, FiniteVector.zero())
        assert value == 0 and trace.stabilization_level == 0

    def test_trace_stabilizes_within_support(self):
        v = units(4, 5, 6, 7, 8)
        value, trace = norm(HALF, None, v)
        assert trace.stabilization_level <= len(v.support)
        assert trace.levels[trace.stabilization_level][1] == value

    def test_h_variant_differs(self):
        # with h(k)=2k a family of two singletons is available from position 1
        v = units(1, 2)
        plain = fixed_point_norm(HALF, v)
        doubled = fixed_point_norm(HALF, v, h=HFunction.affine(2, 0))
        assert plain == 1 and doubled == 1  # still dominated by sup here
        v = FiniteVector.from_dense([2, 2])
        assert fixed_point_norm(HALF, v, h=HFunction.affine(2, 0)) == 2


CLOSED_FORM_ALPHAS = (Fraction(1, 10), Fraction(1, 3), HALF, Fraction(2, 3), Fraction(9, 10))
# ints, Fractions, tie-prone small values (2 beside Fraction(2)) and zeros,
# which the vector drops.
CLOSED_FORM_DRAWS = (
    lambda rng: rng.choice((-1, 1)) * rng.randint(1, 30),
    lambda rng: Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 7, 12))),
    lambda rng: rng.choice((2, Fraction(2), -2, Fraction(-2), 1, Fraction(1, 2), 0)),
    lambda rng: rng.choice((0, 0, 3, Fraction(-3), Fraction(5, 3), 1)),
)


def closed_form_case(case):
    """(alpha, v) of case ``case``: up to 12 draws on positions from a first
    position at least the number of nonzero draws, so pos[0] >= s."""
    rng = Random(f"closed-form/{case}")
    draw = CLOSED_FORM_DRAWS[case % len(CLOSED_FORM_DRAWS)]
    values = [draw(rng) for _ in range(1 + case % 12)]
    pos = max(sum(map(bool, values)), 1) + rng.choice((0, 0, 1, 3, 10))
    pairs = []
    for a in values:
        pairs.append((pos, a))
        pos += rng.randint(1, 3)
    return CLOSED_FORM_ALPHAS[case % 5], FiniteVector.from_pairs(pairs)


class TestClosedFormBeforeTheEngine:
    """fixed_point_norm answers plain h in exact mode with pos[0] >= s by
    max(sup, alpha * l1) and builds no engine; every other call reaches it."""

    def test_matches_the_engine(self, fills):
        # 4,200 seeded vectors: s = 0-12 with zeros dropped, ties of 2 and
        # Fraction(2), ints and Fractions, five alphas.  Only the engine
        # built here for the expected value fills a table.
        sizes, first_is_s = set(), 0
        for case in range(4200):
            alpha, v = closed_form_case(case)
            s = len(v.support)
            assert not s or v.support[0] >= s
            got, filled = fixed_point_norm(alpha, v), fills[0]
            expected = TsirelsonEngine(alpha, v).fixed_point_norm()
            assert fills[0] == filled + bool(s), case
            assert f"{type(got).__name__}:{got!r}" == f"{type(expected).__name__}:{expected!r}", case
            sizes.add(s)
            first_is_s += bool(s) and v.support[0] == s
        assert sizes == set(range(13)) and first_is_s > 500

    @pytest.mark.parametrize("alpha", [0, 1, Fraction(3, 2), Fraction(-1, 2), 1.0],
                             ids=["zero", "one", "three-halves", "minus-half", "float-one"])
    def test_alpha_outside_the_unit_interval_is_refused(self, alpha, fills):
        with pytest.raises(ConfigurationError):
            fixed_point_norm(alpha, units(5, 6))
        assert fills[0] == 0

    @pytest.mark.parametrize("alpha, v, h", [
        (0.5, units(5, 6), None),
        (HALF, FiniteVector((5, 6), (1.0, 2)), None),
        (HALF, FiniteVector((5, 6), (True, 2)), None),
        (HALF, units(5, 6), HFunction.identity()),
        (HALF, units(5, 6), HFunction.affine(2, 0)),
        (HALF, units(2, 3, 4), None),
        (HALF, units(1), None),
    ], ids=["float-alpha", "float-value", "bool-value", "identity-h", "affine-h", "pos0-below-s", "pos0-one"])
    def test_other_calls_reach_the_engine(self, alpha, v, h, fills):
        # units(1) has pos[0] = s = 1 and takes the closed form: the control.
        expected = TsirelsonEngine(alpha, v, h).fixed_point_norm()
        filled = fills[0]
        got = fixed_point_norm(alpha, v, h)
        assert (type(got), got) == (type(expected), expected)
        assert fills[0] == filled + (v != units(1))


class TestOracle:
    def test_adjacent_pair(self):
        assert oracle_norm(HALF, units(2, 3)) == 1

    def test_three_singletons(self):
        assert oracle_norm(HALF, units(4, 5, 6)) == Fraction(3, 2)

    def test_zero(self):
        assert oracle_norm(HALF, FiniteVector.zero()) == 0

    def test_support_limit_refuses_above_any_cap(self):
        with pytest.raises(BudgetError, match="exceeds the oracle limit"):
            oracle_norm(HALF, units(*range(1, ORACLE_SUPPORT_LIMIT + 2)))

    def test_agrees_with_dp_on_random_vectors(self):
        rng = Random(11)
        for _ in range(60):
            v = FiniteVector.from_pairs(
                (rng.randint(1, 8), Fraction(rng.randint(-3, 3)))
                for _ in range(rng.randint(1, 5))
            )
            for alpha in (Fraction(1, 3), HALF):
                assert fixed_point_norm(alpha, v) == oracle_norm(alpha, v)

    def test_interval_families_suffice(self):
        rng = Random(12)
        for _ in range(40):
            v = FiniteVector.from_pairs(
                (rng.randint(1, 7), Fraction(rng.randint(1, 3), 2))
                for _ in range(rng.randint(1, 5))
            )
            full = oracle_norm(HALF, v, family_shape="subsets")
            intervals = oracle_norm(HALF, v, family_shape="intervals")
            assert full == intervals

    def test_alpha_outside_the_unit_interval_is_refused(self):
        # returned 3 at alpha = 1 and 1 at alpha = 0, and failed to
        # stabilize at alpha > 1, where the DP refuses
        for alpha in (1, 0, 2, Fraction(3, 2), Fraction(-1, 2)):
            with pytest.raises(ConfigurationError):
                oracle_norm(alpha, units(2, 3, 4))

    def test_unknown_family_shape_is_refused(self):
        with pytest.raises(ConfigurationError):
            oracle_norm(HALF, units(2, 3), family_shape="runs")

    def test_family_counts_with_every_size_admissible(self):
        # Positions >= s admit every family size.  Each family is listed once,
        # under its union, and a union of w points splits into consecutive
        # blocks in 2^(w - 1) ways.  Summed over the submasks of a mask of w
        # points, that gives the (3^w - 1)/2 families of subsets of it; summed
        # over the submasks of a run of width w, the interval shape gives the
        # F(2w + 1) - 1 sequences of disjoint runs inside it.
        fib = [0, 1]
        while len(fib) < 17:
            fib.append(fib[-1] + fib[-2])
        for s in range(1, 8):
            positions = tuple(range(s, 2 * s))
            subsets = _families(positions, None, "subsets")
            intervals = _families(positions, None, "intervals")
            assert sorted(subsets) == list(range(1, 1 << s))
            for union, fams in subsets.items():
                assert len(fams) == 2 ** (bin(union).count("1") - 1)
            for table in (subsets, intervals):
                listed = [fam for fams in table.values() for fam in fams]
                assert len(set(listed)) == len(listed)
                for union, fams in table.items():
                    for fam in fams:
                        assert all(block & ~union == 0 for block in fam)
                        assert sum(fam) == union and all(a < b & -b for a, b in zip(fam, fam[1:]))
            for union, fams in intervals.items():
                assert set(fams) <= set(subsets[union])
                for fam in fams:
                    for block in fam:
                        low = block & -block
                        assert block == low * ((1 << bin(block).count("1")) - 1)
            for mask in range(1, 1 << s):
                w = bin(mask).count("1")
                inside = sum(len(fams) for union, fams in subsets.items() if union & ~mask == 0)
                assert inside == (3 ** w - 1) // 2
            runs = [((1 << w) - 1) << lo for w in range(1, s + 1) for lo in range(s - w + 1)]
            for run in runs:
                w = bin(run).count("1")
                inside = sum(len(fams) for union, fams in intervals.items() if union & ~run == 0)
                assert inside == fib[2 * w + 1] - 1

    def test_values_match_recorded_digest(self):
        assert oracle_digest() == ORACLE_DIGEST

    def test_one_shot_memory_stays_small(self):
        # A one-shot oracle at s = 8, every family size admissible, in a fresh
        # interpreter as the CLI runs it: the table holds its 3,280 families
        # once each.  Listing every family again under each supermask of its
        # union (32,640 references) peaked at 544 KB; the table by union peaks
        # at about 251 KB.  In this process the tuple free lists that earlier
        # tests leave would hide part of either figure.
        code = (
            "import tracemalloc\n"
            "from fractions import Fraction\n"
            "from seqnorms.core import FiniteVector\n"
            "from seqnorms.tsirelson import oracle_norm\n"
            "values = map(Fraction, ('11/7', '-2/7', '2', '17/12', '6', '6/7', '-2', '-18/7'))\n"
            "v = FiniteVector.from_pairs(zip((8, 9, 12, 13, 16, 17, 19, 20), values))\n"
            "tracemalloc.start()\n"
            "value = oracle_norm(Fraction(1, 2), v)\n"
            "print(value, tracemalloc.get_traced_memory()[1])\n"
        )
        proc = fresh_python(code)
        assert proc.returncode == 0, proc.stderr
        value, peak = proc.stdout.split()
        assert value == "1403/168"
        assert int(peak) < 350_000

    def test_no_family_table_outlives_a_call(self):
        # One-shot oracles on 24 distinct 7-point supports, every family size
        # admissible, in a fresh interpreter: here a bounded cache that earlier
        # tests had filled would evict rather than grow.  A kept table is about
        # 87 KB at s = 7, so keeping the last twelve would add about 1 MB.
        code = (
            "import gc, tracemalloc\n"
            "from seqnorms.core import FiniteVector\n"
            "from seqnorms.tsirelson import oracle_norm\n"
            "tracemalloc.start()\n"
            "readings = []\n"
            "for first in range(7, 31):\n"
            "    v = FiniteVector.from_pairs((first + 2 * k, 1 + k % 3) for k in range(7))\n"
            "    oracle_norm(0.5, v)\n"
            "    gc.collect()\n"
            "    readings.append(tracemalloc.get_traced_memory()[0])\n"
            "print(readings[23] - readings[11])\n"
        )
        proc = fresh_python(code)
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) < 64_000

    def test_h_variant_agrees_with_dp(self):
        h = HFunction.affine(2, 0)
        rng = Random(13)
        for _ in range(30):
            v = FiniteVector.from_pairs(
                (rng.randint(1, 7), Fraction(rng.randint(1, 4)))
                for _ in range(rng.randint(1, 4))
            )
            assert fixed_point_norm(HALF, v, h=h) == oracle_norm(HALF, v, h=h)


class TestProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.fractions(min_value=-3, max_value=3, max_denominator=4),
            min_size=0,
            max_size=6,
        )
    )
    def test_sandwich_and_unconditionality(self, coeffs):
        v = FiniteVector.from_dense(coeffs)
        value = fixed_point_norm(HALF, v)
        assert v.sup() <= value <= v.abs_sum()
        flipped = FiniteVector.from_dense([abs(a) for a in coeffs])
        assert fixed_point_norm(HALF, flipped) == value
        if v.support:
            zeroed = v.restrict(v.support[1:])
            assert fixed_point_norm(HALF, zeroed) <= value

    def test_norm_zero_iff_zero(self):
        assert fixed_point_norm(HALF, FiniteVector.zero()) == 0
        assert fixed_point_norm(HALF, units(3)) > 0


class TestCertificates:
    def test_singleton_family(self):
        cert = CertificateNode.internal(
            (4, 5, 6),
            [CertificateNode.leaf((n,)) for n in (4, 5, 6)],
        )
        assert certificate_lower_bound(HALF, None, units(4, 5, 6), cert) == Fraction(3, 2)

    def test_leaf_only(self):
        cert = CertificateNode.leaf((1, 2, 3))
        v = FiniteVector.from_dense([1, -3, 2])
        assert certificate_lower_bound(HALF, None, v, cert) == 3

    def test_nested_dyadic_blocks(self):
        harmonic = FiniteVector.from_pairs(
            (n, Fraction(1, n + 1)) for n in range(1, 17)
        )
        blocks = [tuple(range(5, 9)), tuple(range(9, 17))]
        children = [
            CertificateNode.internal(b, [CertificateNode.leaf((n,)) for n in b])
            for b in blocks
        ]
        cert = CertificateNode.internal(tuple(range(1, 17)), children)
        expected = HALF * (
            HALF * sum(Fraction(1, n + 1) for n in range(5, 9))
            + HALF * sum(Fraction(1, n + 1) for n in range(9, 17))
        )
        assert certificate_lower_bound(HALF, None, harmonic, cert) == expected

    def test_inadmissible_family_names_node(self):
        cert = CertificateNode.internal(
            (1, 2),
            [CertificateNode.leaf((1,)), CertificateNode.leaf((2,))],
        )
        with pytest.raises(CertificateError, match="root"):
            certificate_lower_bound(HALF, None, units(1, 2), cert)

    def test_child_escaping_parent(self):
        cert = CertificateNode.internal((2, 3), [CertificateNode.leaf((4,))])
        with pytest.raises(CertificateError, match="escapes"):
            certificate_lower_bound(HALF, None, units(2, 3, 4), cert)

    def test_random_certificates_are_lower_bounds(self):
        rng = Random(21)
        for _ in range(40):
            v = FiniteVector.from_pairs(
                (rng.randint(1, 10), Fraction(rng.randint(1, 5), 2))
                for _ in range(rng.randint(1, 6))
            )
            supp = list(v.support)
            start = rng.randint(0, len(supp) - 1)
            first = supp[start]
            k = min(first, rng.randint(1, 3), len(supp) - start)
            if k < 1:
                continue
            cuts = sorted(rng.sample(range(start + 1, len(supp) + 1), k - 1)) if k > 1 else []
            pieces, prev = [], start
            for cut in cuts + [len(supp)]:
                if prev < cut:
                    pieces.append(tuple(supp[prev:cut]))
                prev = cut
            if len(pieces) != k:
                continue
            cert = CertificateNode.internal(
                tuple(supp), [CertificateNode.leaf(p) for p in pieces]
            )
            assert certificate_lower_bound(HALF, None, v, cert) <= fixed_point_norm(HALF, v)


def harmonic(N):
    return FiniteVector.from_pairs((n, Fraction(1, n + 1)) for n in range(1, N + 1))


class TestIntegerKernel:
    """The exact DP runs on scaled integers; these pin its values and types."""

    ALPHAS = (HALF, Fraction(1, 3), Fraction(2, 3), Fraction(3, 10), Fraction(5, 7))
    HS = (
        None,
        HFunction.affine(2, 0),
        HFunction.from_table([(1, 1), (2, 3)]),
        HFunction.from_table([(2, 2), (3, 4)]),  # no entry for k = 1
        HFunction.from_table([(4, 2), (9, 3)]),  # keys above the support size
    )

    def test_exact_dp_equals_oracle_on_both_routes(self):
        rng = Random(31)
        for alpha in self.ALPHAS:
            for h in self.HS:
                for _ in range(8):
                    positions = rng.sample(range(1, 11), rng.randint(1, 7))
                    v = FiniteVector.from_pairs(
                        (n, Fraction(rng.choice((-5, -2, 1, 3, 4)), rng.choice((1, 2, 3, 7, 12))))
                        for n in positions
                    )
                    expected = oracle_norm(alpha, v, h=h)
                    assert fixed_point_norm(alpha, v, h=h) == expected
                    value, trace = norm(alpha, h, v)
                    assert value == expected
                    tables = TsirelsonEngine(alpha, v, h).level_tables(len(v.support))
                    assert tables[-1][0][-1] == expected

    def test_table_h_k_outside_the_table_admits_no_family(self):
        h = HFunction.from_table([(1, 1), (2, 3)])
        v = FiniteVector.from_dense([1] * 8)
        assert oracle_norm(HALF, v, h=h) == 2
        assert fixed_point_norm(HALF, v, h=h) == 2
        assert norm(HALF, h, v)[0] == 2

    def test_table_h_keys_above_the_support_size(self):
        # h(10) = 2 < 10: the k = 10, r = 2 families fit on positions 10..13
        h = HFunction.from_table([(10, 2)])
        v = units(10, 11, 12, 13)
        alpha = Fraction(2, 3)
        assert oracle_norm(alpha, v, h=h) == Fraction(16, 9)
        assert fixed_point_norm(alpha, v, h=h) == Fraction(16, 9)
        assert norm(alpha, h, v)[0] == Fraction(16, 9)
        assert level(alpha, h, v, 4) == Fraction(16, 9)

    def test_sup_coefficient_keeps_its_type(self):
        v = FiniteVector.from_dense([5, 1, 1])
        value, trace = norm(HALF, None, v)
        assert fixed_point_norm(HALF, v) == 5
        assert type(fixed_point_norm(HALF, v)) is int and type(value) is int
        assert all(type(level) is int for _, level in trace.levels)
        # ties keep the first largest coefficient, as comparison would
        tie = FiniteVector.from_dense([Fraction(2), 2])
        assert type(fixed_point_norm(HALF, tie)) is Fraction
        assert type(TsirelsonEngine(HALF, tie).interval_norm(2, 2)) is int

    def test_value_above_the_sup_is_a_fraction(self):
        # four singletons from position 4: 1/2 * 4 = 2, reached by alpha
        value, trace = norm(HALF, None, units(4, 5, 6, 7))
        assert value == 2 and type(value) is Fraction
        assert type(fixed_point_norm(HALF, units(4, 5, 6, 7))) is Fraction
        assert [type(level) for _, level in trace.levels] == [int, Fraction, Fraction]

    def test_float_mode_matches_recorded_values(self):
        rng = Random(2024)
        got = []
        for case in range(12):
            s = rng.randint(3, 14)
            pos = sorted(rng.sample(range(1, 24), s))
            v = FiniteVector.from_pairs((p, round(rng.uniform(-1, 1), 3)) for p in pos)
            alpha = (0.5, 0.3, 2 / 3)[case % 3]
            h = (None, HFunction.affine(2, 0))[case % 2]
            value, trace = norm(alpha, h, v)
            got.append((fixed_point_norm(alpha, v, h=h), value, tuple(x for _, x in trace.levels)))
        assert got == FLOAT_CORPUS

    def test_large_float_supports_match_recorded_values(self):
        # FLOAT_CORPUS reaches s = 14; these reach the s = 32-48 of the
        # benchmark's float requests, where most partition states of a
        # right end are computed one at a time.
        got = []
        for seed, (s, alpha, h) in enumerate(LARGE_FLOAT_CASES):
            rng = Random(f"float-corpus/{seed}")
            pos, pairs = 0, []
            for _ in range(s):
                pos += rng.randint(1, 3)
                a = rng.choice((-1, 1)) * rng.randint(1, 20) / rng.choice((1, 2, 3, 5, 7, 12))
                pairs.append((pos, a))
            v = FiniteVector.from_pairs(pairs)
            value, trace = norm(alpha, h, v)
            prefixes = [pos // 4, pos // 2, 3 * pos // 4, pos]
            got.append((
                repr(fixed_point_norm(alpha, v, h=h)),
                repr(value),
                tuple(repr(x) for _, x in trace.levels),
                trace.stabilization_level,
                tuple(repr(x) for x in prefix_norms(alpha, v, prefixes, h=h)),
            ))
        assert got == LARGE_FLOAT_CORPUS

    def test_large_float_tables_match_recorded_digest(self):
        # Every entry of every level, the fixed-point table and the trace, by
        # type and repr, at the s = 32-48 of the benchmark's float requests:
        # the level and fixed-point fills must keep every bit there too.
        # The digest was recorded before the float fill read its first
        # groups from per-start row suffixes.
        digest = hashlib.sha256()
        for case, (s, alpha) in enumerate((s, a) for s in (32, 40, 48) for a in (1 / 3, 0.5, 2 / 3)):
            h = (None, HFunction.affine(2, 0))[case % 2]
            rng = Random(f"float-bits/{case}")
            pos, pairs = 0, []
            for _ in range(s):
                pos += rng.randint(1, 3)
                a = rng.choice((-1, 1)) * rng.randint(1, 20) / rng.choice((1, 2, 3, 5, 7, 12))
                pairs.append((pos, a))
            engine = TsirelsonEngine(alpha, FiniteVector.from_pairs(pairs), h)
            value, trace = engine.norm_with_trace()
            for table in engine.level_tables(s + 1):
                digest.update(repr(typed(table)).encode())
            digest.update(repr(typed([[value] + [x for _, x in trace.levels]])).encode())
            digest.update(repr(trace.stabilization_level).encode())
            digest.update(repr(typed(engine.fixed_point_table())).encode())
        assert digest.hexdigest() == LARGE_FLOAT_DIGEST

    @pytest.mark.parametrize("N, expected", [
        (48, Fraction(7764333129948822479951, 12396178016983986825600)),
        (64, Fraction(2130156721352945887114604639, 3152711690940859380030297600)),
    ])
    def test_harmonic_values_recorded(self, N, expected):
        value = fixed_point_norm(HALF, harmonic(N))
        assert value == expected and type(value) is Fraction


def level_fill_states(engine, v, h, table, carried=None):
    """Fill the level after ``table`` with the float fill, passing it
    ``carried`` (what the fill of the level before returned), and return the
    new table, what the fill returned, and its states {j: (rows, lo)}:
    rows[1] is column j of ``table`` and rows[2:] the rows the fill returned
    for j.  Every right end returns exactly the rows 2..depth, depth the
    largest q <= j + 1 whose start j - q + 1 admits q sets; rows[q] holds a
    state from lo[q] on, the first start that admits q sets, or j - q + 2
    if none.  The next fill reuses the returned rows in place."""
    pos, _, sizes = reference_sizes(v, h)
    s = len(pos)
    reach = [max((r for k, r in sizes if k <= n), default=0) for n in pos]
    first = [next((x for x in range(s) if reach[x] >= q), s) for q in range(s + 2)]
    out = [[0] * s for _ in range(s)]
    result = engine._fill_float(table, out, carried)
    states = {}
    for j, rows in enumerate(result[1]):
        depth = max((q for q in range(2, j + 2) if reach[j - q + 1] >= q), default=1)
        assert len(rows) == depth - 1, (j, depth)
        lo = [None, 0] + [min(first[q], j - q + 2) for q in range(2, depth + 1)]
        states[j] = ([None, [table[x][j] for x in range(j + 1)]] + rows, lo)
    return out, result, states


def changed_threshold(table, before, j):
    """The largest start x such that a strict subinterval of [x..j] has an
    entry that differs between ``table`` and ``before``; -1 if none."""
    thresh = -1
    for a in range(j + 1):
        for b in range(a, j + 1):
            if table[a][b] != before[a][b]:
                thresh = max(thresh, a if b < j else a - 1)
    return thresh


class TestPartitionKernel:
    """The per-right-end partition arrays, on both routes."""

    HS = (None, HFunction.affine(2, 0), HFunction.from_table([(1, 1), (2, 3), (4, 5)]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 30), st.integers(-9, 9), st.integers(1, 7)),
            min_size=1,
            max_size=20,
        ),
        st.sampled_from((HALF, Fraction(1, 3), Fraction(2, 3))),
        st.sampled_from(HS),
        st.booleans(),
    )
    def test_fixed_point_table_equals_last_level_table(self, terms, alpha, h, exact):
        # The fixed-point route reads column j while it is still being
        # filled; a stale copy of it shows up as a difference here.
        if exact:
            v = FiniteVector.from_pairs((n, Fraction(a, d)) for n, a, d in terms)
        else:
            v = FiniteVector.from_pairs((n, a / d) for n, a, d in terms)
            alpha = float(alpha)
        engine = TsirelsonEngine(alpha, v, h)
        fixed = engine.fixed_point_table()
        level = engine.level_tables(len(v.support) + 1)[-1]
        assert [[(type(x), x) for x in row] for row in fixed] == [
            [(type(x), x) for x in row] for row in level
        ]

    @pytest.mark.parametrize(
        "h", [None, HFunction.affine(2, 0), HFunction.from_table([(1, 3), (2, 4)])],
        ids=["plain", "affine:2:0", "table"],
    )
    def test_every_float_state_is_the_best_split(self, h):
        # Every state rows[q][x] that a float level fill returns, whether one
        # step or a multi-row extension computed it, is the best right-nested
        # split of [x..j] into q groups over the table read: the sup table
        # (level 1, one step from the next larger entry), the fixed point
        # and level 2.
        rng = Random(29)
        for _ in range(10):
            v = FiniteVector.from_pairs(
                (rng.randint(1, 16), rng.randint(-6, 6) / rng.randint(1, 4))
                for _ in range(rng.randint(2, 13))
            )
            engine = TsirelsonEngine(rng.choice((0.5, 2 / 3)), v, h)
            for table in public_tables(engine):
                check_float_states(level_fill_states(engine, v, h, table)[2], table)

    @pytest.mark.parametrize(
        "h", [None, HFunction.affine(2, 0), HFunction.from_table([(1, 3), (2, 4)])],
        ids=["plain", "affine:2:0", "table"],
    )
    def test_carried_float_states_are_the_best_split(self, h):
        # The level route from level 2 on: every level is the slow float
        # search's, every state is still the best split over the table read,
        # the states above the threshold are the previous level's own floats
        # (carried, not recomputed), and the queries above it keep their
        # floor.  The carried rows are reused in place, so they are copied
        # before each fill.
        rng = Random(31)
        carried_states = 0
        for _ in range(12):
            v = FiniteVector.from_pairs(
                (rng.randint(1, 16), rng.randint(1, 6) / rng.randint(1, 4))
                for _ in range(rng.randint(2, 13))
            )
            alpha = rng.choice((0.5, 2 / 3))
            engine = TsirelsonEngine(alpha, v, h)
            expected = float_reference_tables(alpha, v, h)
            tables, carried = [engine.level_tables(0)[0]], None
            while True:
                table = tables[-1]
                kept = None if carried is None else [[row[:] for row in rows] for rows in carried[1]]
                out, carried_next, states = level_fill_states(engine, v, h, table, carried)
                assert typed(out) == typed(expected[len(tables)])
                check_float_states(states, table)
                if carried is not None:
                    for j, (rows, lo) in states.items():
                        thresh = changed_threshold(table, before, j)
                        assert all(out[i][j] is table[i][j] for i in range(thresh + 1, j + 1))
                        for q in range(2, min(len(rows), len(kept[j]) + 2)):
                            keep = max(previous[j][q], thresh + 1)
                            assert lo[q] <= min(keep, j - q + 2)
                            for x in range(keep, j - q + 2):
                                assert rows[q][x] is kept[j][q - 2][x]
                                carried_states += 1
                tables.append(out)
                if out == table:
                    break
                before, carried = table, carried_next
                previous = {j: lo for j, (_, lo) in states.items()}
        assert carried_states > 0

    @pytest.mark.parametrize("h", [None, HFunction.affine(2, 0)], ids=["plain", "affine:2:0"])
    def test_level_one_float_states_at_benchmark_sizes(self, h):
        # Level 1 takes each state in one step from the next larger entry.
        # At the s = 32-48 of the benchmark's float requests every state it
        # leaves is still the best split.  The vectors repeat values (ties
        # the step must keep), fall (no later entry is larger) and rise (the
        # next entry always is).  Each right end returns exactly its rows
        # that hold a state (level_fill_states).
        rng = Random(47)
        vectors = []
        for s in (32, 40, 48):
            vectors.append([(n + n // 2 + 1, (-1) ** n * (n % 7 + 1) / (n % 5 + 2)) for n in range(s)])
            vectors.append([(n, rng.choice((1, 2, 3)) / rng.choice((1, 2))) for n in range(1, s + 1)])
        vectors.append([(n, 1.0 / (n + 1)) for n in range(1, 33)])
        vectors.append([(n, n / (n + 1)) for n in range(1, 33)])
        checked = 0
        for pairs in vectors:
            v = FiniteVector.from_pairs(pairs)
            engine = TsirelsonEngine(2 / 3, v, h)
            table = engine.level_tables(0)[0]
            states = level_fill_states(engine, v, h, table)[2]
            check_float_states(states, table, scanned_split(table))
            checked += sum(len(rows[q]) - lo[q] for rows, lo in states.values() for q in range(2, len(rows)))
        assert checked > 10_000

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 16), st.integers(-3, 3), st.sampled_from(("int", "fraction", "half"))),
            min_size=1,
            max_size=10,
        ),
        st.booleans(),
        st.sampled_from((0.5, 2 / 3, 0.1)),
        st.sampled_from(HS),
    )
    def test_float_level_one_matches_the_reference(self, terms, exact, alpha, h):
        # Small values tie often.  Exact coefficients under a float alpha
        # run in float mode too, as ints, Fractions or both.
        if exact:
            forms = {"int": int, "fraction": Fraction, "half": lambda a: Fraction(a, 2)}
        else:
            forms = {"int": float, "fraction": float, "half": lambda a: a / 2}
        v = FiniteVector.from_pairs((n, forms[form](a)) for n, a, form in terms)
        if v.is_zero:
            return
        level = TsirelsonEngine(alpha, v, h).level_tables(1)[1]
        assert typed(level) == typed(float_reference_tables(alpha, v, h)[1])

    def test_mixed_float_and_exact_values_scan_at_level_one(self):
        # Float mode reads a vector that mixes floats with exact values as
        # its doubles, so its rows are monotone and level 1 takes the
        # one-step rule.  The scan gave [0..3] the Fraction 37/9; it now
        # holds the double nearest 37/9.
        engine = TsirelsonEngine(Fraction(2, 3), MIXED_VECTOR, MIXED_H)
        doubles = [abs(float(a)) for a in MIXED_VECTOR.values]
        assert engine._nge == [
            next((g for g in range(x + 1, len(doubles)) if doubles[g] > a), len(doubles))
            for x, a in enumerate(doubles)
        ]
        level = engine.level_tables(1)[1]
        assert typed([[level[0][3]]]) == typed([[37 / 9]])
        assert typed(level) == typed(float_reference_tables(Fraction(2, 3), MIXED_VECTOR, MIXED_H)[1])

    def test_affine_h_values_recorded(self):
        # recorded from the recursive-memo engine
        v = harmonic(48)
        h = HFunction.affine(2, 0)
        assert fixed_point_norm(HALF, v, h=h) == Fraction(
            10553473183770219515711, 12396178016983986825600
        )
        engine = TsirelsonEngine(Fraction(1, 3), v, h)
        assert engine.fixed_point_norm() == HALF
        assert engine.interval_norm(10, 40) == Fraction(251140540724294693, 657180569218773600)

    def test_float_values_recorded(self):
        v = FiniteVector.from_pairs((n, 1.0 / (n + 1)) for n in range(1, 49))
        assert fixed_point_norm(0.5, v) == 0.6263489536299753
        assert fixed_point_norm(0.5, v, h=HFunction.affine(2, 0)) == 0.8513489536299753


def check_float_states(states, table, split=None):
    """Every state rows[q][x] a float fill leaves, whether one step or a
    multi-row extension computed it, is the best right-nested split of
    [x..j] into q groups over the table read (``split(x, j, q)``, by
    default over every cut set)."""
    s = len(table)
    assert sorted(states) == list(range(s))
    for j, (rows, lo) in states.items():
        assert rows[1] == [table[x][j] for x in range(j + 1)]
        for q in range(2, len(rows)):
            assert all(lo[p] <= lo[q] + q - p for p in range(2, q))
            for x in range(lo[q], j - q + 2):
                expected = right_nested_split(table, x, j, q) if split is None else split(x, j, q)
                assert rows[q][x] == expected


def scanned_split(table):
    """right_nested_split for supports too large to enumerate the cut sets:
    the first maximum over the first group's end t of table[a][t] plus the
    best split of the rest, each (a, j, r) computed once.  Float addition is
    monotone, so on float tables this is the same float."""
    @lru_cache(maxsize=None)
    def split(a, j, r):
        if r == 1:
            return table[a][j]
        return max(table[a][t] + split(t + 1, j, r - 1) for t in range(a, j - r + 2))

    return split


class TestCarriedLevels:
    """The float level route, which carries states and skips queries from
    one level to the next, against the slow float search of every level
    from scratch."""

    @settings(max_examples=80, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 40), st.integers(-9, 9), st.sampled_from((1, 2, 3, 7))),
            min_size=1,
            max_size=24,
        ),
        st.sampled_from((0.5, 1 / 3, 2 / 3, 0.9, 0.1)),
        st.sampled_from((None, HFunction.affine(2, 0), HFunction.from_table([(1, 3), (2, 4)]))),
    )
    def test_level_tables_match_fills_from_scratch(self, terms, alpha, h):
        v = FiniteVector.from_pairs((n, a / d) for n, a, d in terms)
        s = len(v.support)
        if s == 0:
            return
        engine = TsirelsonEngine(alpha, v, h)
        expected = float_reference_tables(alpha, v, h, scan=True)
        assert [typed(t) for t in engine.level_tables(s + 1)] == [typed(t) for t in expected]
        value, trace = engine.norm_with_trace()
        values = [t[0][s - 1] for t in expected]
        assert typed([[value] + [x for _, x in trace.levels]]) == typed([[values[-1]] + values])

    def test_float_level_route_memory_stays_small(self):
        # Only the previous level's arrays are kept, and their rows are
        # reused by the next level.  At s = 48 the peak reads about 0.54 MB
        # (the fill alone, without carried arrays, 0.19 MB); a route that
        # kept a copy of every level's arrays read 1.3 MB.
        v = FiniteVector.from_pairs((n, 1.0 / (n + 1)) for n in range(1, 49))
        (value, trace), peak = traced_peak(lambda: norm(0.5, None, v))
        assert value == 0.6263489536299753 and len(trace.levels) == 5
        assert peak < 850_000


PARITY_ALPHAS = (0.1, 1 / 3, 0.5, 2 / 3, 0.9)
# Value draws of the float parity sweep by the position n: spread values,
# tie-heavy ones (0.1 + 0.2 != 0.3 in floats), the harmonic 1/(n + 1),
# powers of two (exact sums, so many ties), magnitudes from 1e-8 to 1e16,
# and floats mixed with ints and Fractions, which float mode reads as doubles.
PARITY_VALUES = (
    lambda rng, n: rng.choice((-1, 1)) * rng.uniform(0.5, 4.0),
    lambda rng, n: rng.choice((0.1, 0.2, 0.3, -0.1, 0.5, 1.0, -1.0)),
    lambda rng, n: 1.0 / (n + 1),
    lambda rng, n: rng.choice((0.25, 0.5, 1.0, -2.0)),
    lambda rng, n: rng.choice((-1, 1)) * 10 ** rng.uniform(-8, 16),
    lambda rng, n: rng.choice((1.0, 0.5, 1 / 3, -0.1, Fraction(1, 3), 1, Fraction(-2, 3))),
)
MIXED_DRAW = len(PARITY_VALUES) - 1
# A vector that mixes floats with ints and Fractions, and an h with gaps.
MIXED_VECTOR = FiniteVector((20, 21, 22, 25), (Fraction(8, 3), -1.0, Fraction(-1), Fraction(5, 2)))
MIXED_H = HFunction.from_table([(1, 1), (2, 3), (4, 5)])


def parity_case(case):
    """(alpha, v, h) of case ``case`` of the float parity sweep.  h, alpha
    and the value draw cycle with the case number; one block of draws in
    eight takes s = 32-48, the others s = 1-9.  The size and the positions,
    starting at 1-5 with gaps of 1-3, are seeded."""
    rng = Random(f"float-parity/{case}")
    draw = case % len(PARITY_VALUES)
    large = case // len(PARITY_VALUES) % 8 == 7
    s = rng.choice((32, 40, 48)) if large else rng.randint(1, 9)
    pos, pairs = rng.randint(1, 5), []
    for _ in range(s):
        pairs.append((pos, PARITY_VALUES[draw](rng, pos)))
        pos += rng.randint(1, 3)
    h = CEILING_HS[case % len(CEILING_HS)][1]
    return PARITY_ALPHAS[case % len(PARITY_ALPHAS)], FiniteVector.from_pairs(pairs), h


def float_tables(engine, s):
    """Every level table, the fixed-point table and the trace values of a
    float engine, by type and repr."""
    value, trace = engine.norm_with_trace()
    return (
        [typed(t) for t in engine.level_tables(s + 1)],
        typed(engine.fixed_point_table()),
        typed([[value] + [x for _, x in trace.levels]]),
        trace.stabilization_level,
    )


class TestFloatRunningMax:
    """Float mode reads every value as a double, so every float fill carries
    the value of [i+1..j] into [i..j] and tries only the sizes that start at
    i."""

    def test_float_tables_are_monotone(self):
        # Rounding is monotone, so every float table is nonincreasing in its
        # start and nondecreasing in its end, bit for bit: the fact the
        # carry rests on.
        checked = 0
        for case, s in enumerate((8, 16, 24, 32, 40, 48) * 4):
            rng = Random(f"float-monotone/{case}")
            h = CEILING_HS[case % len(CEILING_HS)][1]
            draw = PARITY_VALUES[case % MIXED_DRAW]
            pos, pairs = rng.randint(1, 5), []
            for _ in range(s):
                pairs.append((pos, draw(rng, pos)))
                pos += rng.randint(1, 3)
            v = FiniteVector.from_pairs(pairs)
            engine = TsirelsonEngine(PARITY_ALPHAS[case % len(PARITY_ALPHAS)], v, h)
            for table in engine.level_tables(s + 1) + [engine.fixed_point_table()]:
                for i in range(s):
                    for j in range(i, s):
                        assert i == 0 or table[i - 1][j] >= table[i][j], (case, i, j)
                        assert j == i or table[i][j - 1] <= table[i][j], (case, i, j)
                        checked += 1
        assert checked > 50_000

    @pytest.mark.sweep(96, 4000)
    def test_fill_matches_every_size_at_its_own_start(self, sweep_cases):
        # The level tables, the fixed-point table and the trace against the
        # reference that tries every size at its own start: over every cut
        # set up to s = 9, and by scanned_split at s = 32-48.
        large = 0
        for case in range(sweep_cases):
            alpha, v, h = parity_case(case)
            s = len(v.support)
            if s == 0:
                continue
            expected = float_reference_tables(alpha, v, h, scan=s > 9)
            values = [t[0][s - 1] for t in expected]
            stab = next((m for m in range(len(values) - 1) if values[m + 1] == values[m]),
                        len(values) - 1)
            assert float_tables(TsirelsonEngine(alpha, v, h), s) == (
                [typed(t) for t in expected],
                typed(expected[-1]),
                typed([[values[-1]] + values]),
                stab,
            ), case
            large += s > 9
        assert large > 0 or sweep_cases < 48

    def test_mixed_vector_tables_hold_only_floats(self):
        # Float mode read the exact values raw, so level 1 of this vector
        # held the Fraction 37/9 at [0..3] next to floats.
        engine = TsirelsonEngine(Fraction(2, 3), MIXED_VECTOR, MIXED_H)
        for table in engine.level_tables(5) + [engine.fixed_point_table()]:
            assert all(type(table[i][j]) is float for i in range(4) for j in range(i, 4))

    def test_mixed_vector_scans_at_every_level(self):
        # The vector of test_mixed_float_and_exact_values_scan_at_level_one
        # on the level route past level 1 and on the fixed-point route:
        # every level table, the fixed-point table and the trace are those
        # of its float conversion under float(alpha), bit for bit, and the
        # slow search's.
        doubles = FiniteVector(MIXED_VECTOR.support, tuple(map(float, MIXED_VECTOR.values)))
        engine = TsirelsonEngine(Fraction(2, 3), MIXED_VECTOR, MIXED_H)
        converted = TsirelsonEngine(2 / 3, doubles, MIXED_H)
        expected = float_reference_tables(Fraction(2, 3), MIXED_VECTOR, MIXED_H)
        assert len(expected) >= 3
        assert float_tables(engine, 4) == float_tables(converted, 4)
        assert [typed(t) for t in engine.level_tables(5)] == [typed(t) for t in expected]
        assert typed(engine.fixed_point_table()) == typed(expected[-1])

    @pytest.mark.parametrize("big", [10 ** 400, Fraction(-(10 ** 400), 3)], ids=["int", "fraction"])
    @pytest.mark.parametrize("s", [1, 2, 3])
    def test_exact_value_past_the_double_range_overflows_at_construction(self, s, big):
        # Under a float alpha every value is read as a double, as oracle_norm
        # reads it.  The engine returned the exact value itself at s <= 2 and
        # raised in the fill at s = 3.
        v = FiniteVector(tuple(range(1, s + 1)), (big,) + (1.0,) * (s - 1))
        with pytest.raises(OverflowError):
            TsirelsonEngine(0.5, v)
        with pytest.raises(OverflowError):
            oracle_norm(0.5, v)


class TestIntervalQueries:
    """One table answers a scan's interval queries: every exact interval,
    and every float interval from the vector's first position, whose entry
    reads only prefix sums and entries inside it."""

    HS = (None, HFunction.identity(), HFunction.affine(2, 0),
          HFunction.from_table([(1, 1), (2, 3), (4, 5)]))
    TERMS = st.lists(
        st.tuples(st.integers(1, 30), st.integers(-9, 9), st.sampled_from((1, 2, 3, 7))),
        min_size=1,
        max_size=14,
    )

    @settings(max_examples=80, deadline=None)
    @given(TERMS, st.sampled_from((0.5, 1 / 3, 2 / 3, 0.9, 0.1)), st.sampled_from(HS))
    def test_float_prefixes_read_one_table_bit_for_bit(self, terms, alpha, h):
        v = FiniteVector.from_pairs((n, a / d) for n, a, d in terms)
        if v.is_zero:
            return
        engine = TsirelsonEngine(alpha, v, h)
        first = v.support[0]
        for K in range(first, v.support[-1] + 1):
            fresh = fixed_point_norm(alpha, v.restrict(range(first, K + 1)), h=h)
            assert repr(engine.interval_norm(first, K)) == repr(fresh)

    @settings(max_examples=40, deadline=None)
    @given(TERMS, st.sampled_from((HALF, Fraction(1, 3), Fraction(2, 3))), st.sampled_from(HS))
    @example([(2, 1, 1), (5, -3, 2)], HALF, None)
    def test_exact_intervals_read_one_table(self, terms, alpha, h):
        v = FiniteVector.from_pairs((n, Fraction(a, d)) for n, a, d in terms)
        engine = TsirelsonEngine(alpha, v, h)
        for lo, hi in combinations_with_replacement(v.support, 2):
            fresh = fixed_point_norm(alpha, v.restrict(range(lo, hi + 1)), h=h)
            assert repr(engine.interval_norm(lo, hi)) == repr(fresh)
        # a window in a gap between positions, or past the last, reads int 0
        last = v.support[-1] if v.support else 0
        gaps = [(a + 1, b - 1) for a, b in zip(v.support, v.support[1:]) if b > a + 1]
        for lo, hi in gaps + [(last + 1, last + 3)]:
            assert repr(engine.interval_norm(lo, hi)) == "0"


GAPPED_H = HFunction.from_table([(2, 2), (3, 4), (9, 10)])  # table:2:2;3:4;9:10


class TestFamilySizeSearch:
    """The running max over starts, one family size per start (plain sizes
    only) and the singleton closed form of the exact k-loop, on both routes."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 30), st.integers(-9, 9), st.integers(1, 7)),
            min_size=1,
            max_size=20,
        ),
        st.sampled_from((HALF, Fraction(1, 3), Fraction(2, 3))),
        st.sampled_from(
            (None, HFunction.identity(), HFunction.from_table([(1, 1), (2, 2), (3, 3)]))
        ),
    )
    def test_plain_tables_are_subadditive(self, terms, alpha, h):
        # T[x][y] <= T[x][t] + T[t+1][y]: a finer split never loses, which
        # is why the exact loop tries only the largest size at each start
        # when the sizes are (1, 1), ..., (n, n).
        v = FiniteVector.from_pairs((n, Fraction(a, d)) for n, a, d in terms)
        engine = TsirelsonEngine(alpha, v, h)
        s = len(v.support)
        for table in [engine.fixed_point_table()] + engine.level_tables(s + 1):
            for x in range(s):
                for y in range(x + 1, s):
                    for t in range(x, y):
                        assert table[x][y] <= table[x][t] + table[t + 1][y]

    @pytest.mark.parametrize("h", [HFunction.affine(2, 0), GAPPED_H])
    def test_h_with_gaps_in_its_range_is_not_subadditive(self, h):
        # Exactly h(k) sets: four singletons from position 3 are admissible,
        # but neither three sets nor a split of e_3 off the rest.
        alpha = Fraction(2, 3)
        engine = TsirelsonEngine(alpha, units(3, 4, 5, 6), h)
        for table in (engine.fixed_point_table(), engine.level_tables(5)[-1]):
            assert table[0][3] == Fraction(8, 3)
            assert table[0][0] + table[1][3] == Fraction(23, 9)

    def test_smaller_family_size_can_win_for_table_h(self):
        # three sets {2}, {4}, {6, 8, 11} beat every split into four
        h = HFunction.from_table([(1, 3), (2, 4)])
        v = FiniteVector.from_pairs(zip([2, 4, 6, 8, 11], [1, 4, 2, 2, 1]))
        alpha = Fraction(9, 10)
        assert oracle_norm(alpha, v, h=h) == Fraction(171, 20)
        assert fixed_point_norm(alpha, v, h=h) == Fraction(171, 20)
        assert norm(alpha, h, v)[0] == Fraction(171, 20)

    @staticmethod
    def far_vector(exact):
        # positions 100..130: every k <= 31 is admissible from the first
        # start, so every interval takes the singleton closed form
        def c(n):
            return Fraction(7 * n % 11 + 1, n % 5 + 2)

        return FiniteVector.from_pairs(
            (n, c(n) if exact else float(c(n))) for n in range(100, 131)
        )

    @staticmethod
    def gapped_vector(exact):
        positions = [n for n in range(1, 44) if n % 3 or n < 4]

        def c(n):
            return Fraction(n % 7 + 1, n + 1)

        return FiniteVector.from_pairs(
            (n, c(n) if exact else float(c(n))) for n in positions
        )

    @pytest.mark.parametrize("exact", [True, False])
    def test_far_support_values_recorded(self, exact):
        # recorded from the engine with a per-interval loop over every size
        v = self.far_vector(exact)
        alpha = Fraction(2, 3) if exact else 2 / 3
        engine = TsirelsonEngine(alpha, v)
        got = (
            engine.fixed_point_norm(),
            engine.interval_norm(103, 126),
            engine.interval_norm(110, 130),
        )
        value, trace = norm(alpha, None, v)
        levels = tuple(x for _, x in trace.levels)
        if exact:
            expected = (Fraction(3383, 90), Fraction(1193, 45), Fraction(1088, 45))
            assert got == expected and value == expected[0]
            assert levels == (5, expected[0], expected[0])
            assert all(type(x) is Fraction for x in got + levels)
        else:
            expected = (37.58888888888889, 26.51111111111111, 24.177777777777777)
            assert got == expected and value == expected[0]
            assert levels == (5.0, expected[0], expected[0])
        assert value == alpha * v.abs_sum()
        assert trace.stabilization_level == 1

    @pytest.mark.parametrize("exact", [True, False])
    def test_gapped_table_h_values_recorded(self, exact):
        # recorded from the engine with a per-interval loop over every size
        v = self.gapped_vector(exact)
        assert len(v.support) == 30
        alpha = Fraction(2, 3) if exact else 2 / 3
        engine = TsirelsonEngine(alpha, v, GAPPED_H)
        got = (
            engine.fixed_point_norm(),
            engine.interval_norm(4, 37),
            engine.interval_norm(14, 43),
        )
        value, trace = norm(alpha, GAPPED_H, v)
        levels = tuple(x for _, x in trace.levels)
        if exact:
            top = Fraction(5485198633147, 1534703658345)
            expected = (
                top,
                Fraction(44416399691, 14972718618),
                Fraction(1123299276893, 682090514820),
            )
            recorded = (1, Fraction(7, 3), Fraction(41241157357, 11760181290), top, top, top)
            assert all(type(x) is Fraction for x in got + levels)
        else:
            top = 3.5741093098469254
            expected = (top, 2.9664886400525288, 1.6468478192948226)
            recorded = (1.0, 2.333333333333333, 3.506847074888928, top, top, top)
        assert got == expected and value == top
        assert levels == recorded and trace.stabilization_level == 3


def reference_sizes(v, h):
    """The support positions, the |coefficients| and the sizes (k, r)."""
    pos = v.support
    s = len(pos)
    sizes = [(k, k) for k in range(1, s + 1)] if h is None else h.sizes(s)
    return pos, [abs(v.coefficient(n)) for n in pos], sizes


def reference_tables(alpha, v, h):
    """Level tables of the interval recursion, computed the slow way.

    Fraction arithmetic, every admissible r at every start a >= i with
    pos[a] >= k, and the best split into exactly r groups by plain
    recursion: no prune, no carried value, no closed form.  Levels run
    until the whole table repeats, or s + 1 steps.
    """
    pos, val, sizes = reference_sizes(v, h)
    s = len(pos)
    table = [[max(val[i : j + 1]) if j >= i else 0 for j in range(s)] for i in range(s)]
    tables = [table]
    for _ in range(s + 1):
        memo = {}

        def split(a, j, r, table=table, memo=memo):
            if r == 1:
                return table[a][j]
            key = (a, j, r)
            if key not in memo:
                memo[key] = max(
                    table[a][t] + split(t + 1, j, r - 1) for t in range(a, j - r + 2)
                )
            return memo[key]

        nxt = [row[:] for row in table]
        for i in range(s):
            for j in range(i, s):
                for k, r in sizes:
                    for a in range(i, j + 1):
                        if pos[a] >= k and r <= j - a + 1:
                            cand = alpha * split(a, j, r)
                            if cand > nxt[i][j]:
                                nxt[i][j] = cand
        tables.append(nxt)
        if nxt == table:
            break
        table = nxt
    return tables


def right_nested_split(table, a, j, r):
    """Best split of [a..j] into r consecutive groups, over every cut set,
    each sum added right-nested: first group + (second + (... + last))."""
    best = None
    for cuts in combinations(range(a + 1, j + 1), r - 1):
        bounds = (a,) + cuts + (j + 1,)
        groups = [table[x][y - 1] for x, y in zip(bounds, bounds[1:])]
        total = groups.pop()
        for value in reversed(groups):
            total = value + total
        if best is None or total > best:
            best = total
    return best


def float_reference_tables(alpha, v, h, scan=False):
    """Level tables of the float search, computed the slow way.

    Every split is enumerated, with right-nested group sums; the sizes are
    tried in increasing k, each at its own start a = max(i, first support
    index with position >= k).  No bound, no partition arrays, no memo.
    With ``scan`` the best splits come from scanned_split instead, for
    all-float supports too large to enumerate the cut sets.  Every value and
    alpha are read as doubles, as float mode reads them.
    """
    pos, val, sizes = reference_sizes(v, h)
    alpha, val = float(alpha), list(map(float, val))
    s = len(pos)
    table = [[max(val[i : j + 1]) if j >= i else 0 for j in range(s)] for i in range(s)]
    tables = [table]
    for _ in range(s + 1):
        nxt = [row[:] for row in table]
        split = scanned_split(table) if scan else lambda a, j, r: right_nested_split(table, a, j, r)
        for i in range(s):
            for j in range(i, s):
                best = table[i][j]
                for k, r in sizes:
                    a = next((x for x in range(i, s) if pos[x] >= k), s)
                    if 2 <= r <= j - a + 1:
                        best = max(best, alpha * split(a, j, r))
                nxt[i][j] = best
        tables.append(nxt)
        if nxt == table:
            break
        table = nxt
    return tables


def typed(table):
    return [[f"{type(x).__name__}:{x!r}" for x in row] for row in table]


def public_tables(engine):
    """The sup, level-2 and fixed-point tables of an engine, as its public
    API returns them; level 2 is the last level if the levels settle
    before it."""
    levels = engine.level_tables(2)
    return levels[0], levels[-1], engine.fixed_point_table()


def sup_table(v):
    """The sup of every interval [i..j] of the support: its first largest
    |coefficient|."""
    val = [abs(x) for x in v.values]
    return [[0] * i + list(accumulate(val[i:], max)) for i in range(len(val))]


def check_table(alpha, v, h, table, floor=None):
    """One prune-free step of the interval recursion over an exact table.

    Entry [i..j] is the max of ``floor`` (the sup table if None) and alpha
    times the best split of [a..j] into exactly r consecutive groups of
    ``table``, over every start a >= i and every r that a family may use
    from a: h(k) = r for some k <= pos[a], or r = k without h.  Every split
    is searched, over one common denominator, by the best split into one
    group fewer: no bound, no closed form, no one-size rule and no ceiling.
    So the fixed-point table F is the one with check_table(F) == F, and
    level m + 1 is check_table(L_m, L_m).  A floor entry that wins is
    returned itself, so a sup keeps its type; any other entry is a
    Fraction.  Reads only the support, the |coefficients|, alpha and
    h.sizes.
    """
    pos, s = v.support, len(v.support)
    if floor is None:
        floor = sup_table(v)
    sizes = [(k, k) for k in range(1, s + 1)] if h is None else h.sizes(s)
    p, q = alpha.numerator, alpha.denominator
    unit = math.lcm(*{x.denominator for t in (table, floor) for row in t for x in row})

    def scaled(x):
        return x.numerator * (unit // x.denominator)

    cols = [[scaled(row[y]) for row in table[: y + 1]] for y in range(s)]
    best = [0] * s  # best[j]: the best split of [a..j] over the starts a so far
    out = [[0] * s for _ in range(s)]
    for a in range(s - 1, -1, -1):
        rs = {r for k, r in sizes if k <= pos[a]}
        split = [cols[y][a] for y in range(a, s)]  # split[t]: [a..a + r - 1 + t] in r groups
        for r in range(1, min(max(rs, default=0), s - a) + 1):
            if r > 1:  # the last group [x..y], after [a..x - 1] in r - 1 groups
                split = [max(map(add, split, cols[y][a + r - 1 : y + 1])) for y in range(a + r - 1, s)]
            if r in rs:
                best[a + r - 1 :] = map(max, best[a + r - 1 :], split)
        for j in range(a, s):
            f = floor[a][j]
            out[a][j] = f if q * scaled(f) >= p * best[j] else Fraction(p * best[j], q * unit)
    return out


def assert_prune_free(engine, v, h, levels=True):
    """The engine's fixed-point table, or with ``levels`` every level table
    and the trace, against one prune-free step (check_table), by type and
    repr; returns the level tables.  The level route ends with the first
    level equal to the fixed point, repeated, and a repeated level is the
    fixed point: one step over it gives the sup and the splits the step
    over the sup floor gives, since levels rise with m."""
    alpha, fixed = engine.alpha, engine.fixed_point_table()
    if not levels:
        assert typed(fixed) == typed(check_table(alpha, v, h, fixed))
        return None
    tables = engine.level_tables(len(v.support) + 1)
    assert typed(tables[0]) == typed(sup_table(v))
    for m, (before, after) in enumerate(zip(tables, tables[1:])):
        assert typed(after) == typed(check_table(alpha, v, h, before, before)), m
    assert [t == fixed for t in tables] == [False] * (len(tables) - 2) + [True, True]
    value, trace = engine.norm_with_trace()
    values = [t[0][-1] for t in tables]
    assert typed([[value] + [x for _, x in trace.levels]]) == typed([values[-1:] + values])
    assert trace.stabilization_level == LevelTrace(levels=tuple(enumerate(values))).stabilization_level
    return tables


REFERENCE_HS = (
    None,
    HFunction.identity(),
    HFunction.affine(2, 0),
    HFunction.affine(3, 1),
    HFunction.from_table([(1, 3), (2, 4)]),
    HFunction.from_table([(4, 2), (9, 3)]),
)


class TestReferenceDP:
    """The exact engine against a slow reference DP, on every h kind."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 16), st.integers(-9, 9), st.sampled_from((1, 1, 2, 3, 5, 7))),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from((HALF, Fraction(1, 3), Fraction(2, 3), Fraction(9, 10))),
        st.sampled_from(REFERENCE_HS),
    )
    def test_tables_and_trace_match_the_reference(self, terms, alpha, h):
        v = FiniteVector.from_pairs(
            (n, a if d == 1 else Fraction(a, d)) for n, a, d in terms
        )
        s = len(v.support)
        if s == 0:
            return
        expected = reference_tables(alpha, v, h)
        engine = TsirelsonEngine(alpha, v, h)
        assert [typed(t) for t in engine.level_tables(s + 1)] == [typed(t) for t in expected]
        assert typed(engine.fixed_point_table()) == typed(expected[-1])
        values = [t[0][s - 1] for t in expected]
        stab = next((m for m in range(len(values) - 1) if values[m + 1] == values[m]),
                    len(values) - 1)
        value, trace = norm(alpha, h, v)
        assert typed([[value]]) == typed([[values[-1]]])
        assert typed([[x for _, x in trace.levels]]) == typed([values])
        assert [m for m, _ in trace.levels] == list(range(len(values)))
        assert trace.stabilization_level == stab


class TestFloatReferenceDP:
    """The float engine against a slow float reference, on every h kind."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 16), st.integers(-9, 9), st.sampled_from((1, 1, 2, 3, 5, 7))),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from((0.5, 1 / 3, 2 / 3, 0.9, 0.1)),
        st.sampled_from(REFERENCE_HS),
    )
    # Two vectors on which a search that stops on the l1 mass skips the winner.
    @example(terms=[(3, 4, 3), (4, 1, 1), (5, 2, 1), (5, -7, 3)], alpha=0.5, h=None)
    @example(terms=[(6, 3, 10), (7, 2, 10), (9, 3, 10), (11, 1, 10)], alpha=1 / 3, h=None)
    def test_tables_and_trace_match_the_reference(self, terms, alpha, h):
        v = FiniteVector.from_pairs((n, a / d) for n, a, d in terms)
        s = len(v.support)
        if s == 0:
            return
        expected = float_reference_tables(alpha, v, h)
        engine = TsirelsonEngine(alpha, v, h)
        assert [typed(t) for t in engine.level_tables(s + 1)] == [typed(t) for t in expected]
        assert typed(engine.fixed_point_table()) == typed(expected[-1])
        values = [t[0][s - 1] for t in expected]
        stab = next((m for m in range(len(values) - 1) if values[m + 1] == values[m]),
                    len(values) - 1)
        value, trace = norm(alpha, h, v)
        assert typed([[value] + [x for _, x in trace.levels]]) == typed([[values[-1]] + values])
        assert trace.stabilization_level == stab


class TestFloatWindows:
    """Every float table entry is the fresh norm of its window, by type and
    repr: the float search has no bound, so an entry does not depend on the
    rest of the engine's vector."""

    def test_a_huge_first_entry(self):
        # (1e16 + 1 + 1) - 1e16 rounds to 0: an l1 mass taken from the
        # engine's first entry would close the search for [6..8] at once.
        v = FiniteVector.from_pairs([(4, 1e16), (6, 1.0), (8, 1.0)])
        fresh = fixed_point_norm(2 / 3, v.restrict(range(6, 9)))
        assert repr(fresh) == "1.3333333333333333"
        engine = TsirelsonEngine(2 / 3, v)
        assert typed([[engine.interval_norm(6, 8), engine.fixed_point_table()[1][2]]]) == typed([[fresh] * 2])
        assert typed([engine.level_tables(4)[-1][1]]) == typed([[0, 1.0, fresh]])

    def test_every_entry_is_its_window_norm(self):
        # 400 seeded vectors, each h kind, magnitudes within a factor of 10
        # or spread over 1e-8 to 1e16: every table entry, and every window
        # of TsirelsonSpace.interval_norms, against a fresh engine.
        windows = 0
        for case in range(400):
            rng = Random(f"float-windows/{case}")
            h = REFERENCE_HS[case % len(REFERENCE_HS)]
            alpha = (0.5, 1 / 3, 2 / 3, 0.9, 0.1)[case % 5]
            pos, pairs = rng.randint(1, 5), []
            for _ in range(rng.randint(1, 12)):
                size = rng.uniform(1, 10) if case % 2 else 10 ** rng.uniform(-8, 16)
                pairs.append((pos, rng.choice((1, -1)) * size))
                pos += rng.randint(1, 3)
            v = FiniteVector.from_pairs(pairs)
            table, support = TsirelsonEngine(alpha, v, h).fixed_point_table(), v.support
            spans = [(i, j) for j in range(len(support)) for i in range(j + 1)]
            fresh = [fixed_point_norm(alpha, v.restrict(range(support[i], support[j] + 1)), h) for i, j in spans]
            assert typed([[table[i][j] for i, j in spans]]) == typed([fresh]), case
            intervals = [(support[i], support[j]) for i, j in spans]
            assert typed([TsirelsonSpace(alpha, h).interval_norms(v, intervals)]) == typed([fresh]), case
            windows += len(spans)
        assert windows > 10000


class TestTopSums:
    """On the sup table the best split into r groups is the top-r sum."""

    @pytest.mark.parametrize("alpha", [HALF, Fraction(2, 3)])
    def test_best_partition_on_the_sup_table(self, alpha):
        rng = Random(17)
        for _ in range(30):
            v = FiniteVector.from_pairs(
                (rng.randint(1, 20), Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                for _ in range(rng.randint(1, 12))
            )
            sup, s = TsirelsonEngine(alpha, v).level_tables(0)[0], len(v.support)
            val = [abs(x) for x in v.values]
            for j in range(s):
                for a in range(j, -1, -1):
                    ranked = sorted(val[a : j + 1], reverse=True)
                    for r in range(1, j - a + 2):
                        assert right_nested_split(sup, a, j, r) == sum(ranked[:r])

    def test_level_one_attains_the_top_sum(self):
        # [4, 1, 3, 1] from position 3: three sets may be used, and the best
        # three-group split keeps 4 and 3 apart, worth 4 + 3 + 1 = 8.  At
        # alpha 1/2 that ties the sup, which keeps its type.
        v = FiniteVector.from_pairs(zip([3, 4, 5, 6], [4, 1, 3, 1]))
        assert level(HALF, None, v, 1) == 4
        assert type(level(HALF, None, v, 1)) is int
        assert level(Fraction(2, 3), None, v, 1) == Fraction(16, 3)


def brute_split(table, i, y, q):
    """Best split of [i..y] into q consecutive groups, over every cut set."""
    best = None
    for cuts in combinations(range(i + 1, y + 1), q - 1):
        bounds = (i,) + cuts + (y + 1,)
        total = sum(table[a][b - 1] for a, b in zip(bounds, bounds[1:]))
        if best is None or total > best:
            best = total
    return best


class TestStartSplits:
    """The per-start partition arrays of the exact fill, state by state."""

    # Two fixed orders of queries (j - i, r) on one vector: queries with
    # r = width (n = 1) come before and between queries that create wider
    # arrays over them, where a new F[q] starts with closed states.
    EDGE_VECTOR = FiniteVector.from_pairs(
        zip([2, 3, 5, 6, 7, 9, 10, 11, 13, 14, 15],
            [3, Fraction(-5, 2), 1, 4, Fraction(7, 3), -2, 5, Fraction(1, 4), 3, -6, 2])
    )
    EDGE_QUERIES = (
        [(2, 3), (6, 5), (7, 7), (8, 9), (8, 4)],
        [(2, 2), (3, 4), (5, 3), (9, 6), (10, 11)],
    )

    @pytest.mark.parametrize(
        "h", [None, HFunction.affine(2, 0), HFunction.from_table([(1, 3), (2, 4)])],
        ids=["plain", "affine:2:0", "table"],
    )
    def test_every_state_is_the_best_split(self, h):
        rng = Random(23)

        def random_queries(i, s):
            # j rises, columns are skipped (the next query catches up), and
            # the sizes asked come in any order
            for j in range(i + 1, s):
                if rng.random() < 0.4:
                    continue
                sizes = list(range(2, j - i + 2))
                for r in rng.sample(sizes, rng.randint(1, len(sizes))):
                    yield j, r

        def cases():
            for _ in range(10):
                v = FiniteVector.from_pairs(
                    (rng.randint(1, 14), Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
                    for _ in range(rng.randint(2, 11))
                )
                yield v, rng.choice((HALF, Fraction(2, 3))), random_queries
            for fixed in self.EDGE_QUERIES:
                yield self.EDGE_VECTOR, Fraction(2, 3), (
                    lambda i, s, fixed=fixed: [(i + d, r) for d, r in fixed if i + d < s]
                )

        for v, alpha, queries in cases():
            s = len(v.support)
            for table in public_tables(TsirelsonEngine(alpha, v, h)):
                cols = [[row[y] for row in table[: y + 1]] for y in range(s)]
                for i in range(s):
                    F = [None, []]
                    for j, r in queries(i, s):
                        got = TsirelsonEngine._split(F, cols, table, i, j, r)
                        assert got == brute_split(table, i, j, r)
                        assert len(F[r]) == j - i - r + 2
                    # F[q][k] is the state (q, i + q - 1 + k)
                    for q in range(2, len(F)):
                        for k, state in enumerate(F[q]):
                            assert state == brute_split(table, i, i + q - 1 + k, q)

    MEMORY_HS = pytest.mark.parametrize(
        "h",
        [None, HFunction.affine(2, 0), HFunction.from_table([(1, 1), (2, 3), (4, 5)])],
        ids=["plain", "affine:2:0", "table"],
    )

    @MEMORY_HS
    def test_exact_fill_memory_stays_small(self, h):
        # The per-start arrays are dropped when their start is done.  The
        # peaks read about 0.48, 0.53 and 0.49 MB; keeping every start's
        # arrays alive for the whole plain fill read 3.7 MB.
        _, peak = traced_peak(lambda: fixed_point_norm(HALF, harmonic(96), h))
        assert peak < 1_000_000

    @MEMORY_HS
    def test_exact_level_route_memory_stays_small(self, h):
        # The level route keeps every level's table.  On 96 harmonic entries
        # (5 levels for plain h) the plain peak read 1.52 MB before the plain
        # fill shared the entries it leaves unchanged with the table below;
        # the three peaks now read about 1.14, 1.14 and 1.67 MB.
        (value, trace), peak = traced_peak(lambda: norm(HALF, h, harmonic(96)))
        assert value == trace.levels[-1][1]
        if h is None:
            assert len(trace.levels) == 5
        assert peak < 2_000_000


def traced_peak(call):
    """call() and the peak of traced memory above where it started."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, peak


class TestPlainSweep:
    """The exact fill for plain h: the triangle bound that skips queries,
    and the fill against the search of every size and recorded digests."""

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(st.integers(1, 12), st.integers(-9, 9), st.integers(1, 7)),
            min_size=1,
            max_size=10,
        ),
        st.sampled_from((HALF, Fraction(1, 3), Fraction(2, 3))),
    )
    def test_triangle_bound(self, terms, alpha):
        # F[q][j] <= F[q][j'] + l1(j'+1..j) whenever [i..j'] has q entries:
        # the bound that lets the plain fill skip the query j after j'.
        v = FiniteVector.from_pairs((n, Fraction(a, d)) for n, a, d in terms)
        s, prefix = len(v.support), list(accumulate((abs(x) for x in v.values), initial=0))
        for table in public_tables(TsirelsonEngine(alpha, v)):
            for i in range(s):
                for q in range(2, s - i + 1):
                    split = {y: brute_split(table, i, y, q) for y in range(i + q - 1, s)}
                    for j in split:
                        for earlier in range(i + q - 1, j):
                            l1 = prefix[j + 1] - prefix[earlier + 1]
                            assert split[j] <= split[earlier] + l1

    def test_triangle_bound_needs_plain_h(self):
        # With exactly h(k) sets the bound fails.  Under affine:2:0 at alpha
        # 2/3, 2e_1 + e_2 + ... + e_5 splits as {1}, {2..5} into 2 + 8/3 (four
        # singletons from position 2), but {2..4} takes two sets, and the
        # best split of its first four entries is worth 32/9 < 14/3 - 1.
        v = FiniteVector.from_pairs(zip(range(1, 6), (2, 1, 1, 1, 1)))
        table = TsirelsonEngine(Fraction(2, 3), v, HFunction.affine(2, 0)).fixed_point_table()
        assert brute_split(table, 0, 4, 2) == Fraction(14, 3)
        assert brute_split(table, 0, 3, 2) == Fraction(32, 9)

    @pytest.mark.parametrize("s", [32, 48, 64])
    def test_plain_fill_matches_every_size_search(self, s):
        # The one-size fill, the singleton widths and the triangle bound
        # against the search of every size at every start (check_table), on
        # the level route and the fixed point, at the supports of the
        # benchmark's requests and beyond.
        for alpha in (HALF, Fraction(1, 3), Fraction(2, 3)):
            rng = Random(f"every-size/{s}/{alpha}")
            pos, pairs = rng.randint(0, 3), []
            for _ in range(s):
                pos += rng.randint(1, 3)
                pairs.append((pos, Fraction(rng.choice((-1, 1)) * rng.randint(1, 20), rng.randint(1, 12))))
            v = FiniteVector.from_pairs(pairs)
            assert_prune_free(TsirelsonEngine(alpha, v), v, None)

    def test_exact_tables_match_recorded_digest(self):
        # At s = 32/48/64 for plain h and affine:2:0.  The digest was recorded
        # before the plain fill swept diagonals.
        sizes = [(s, alpha) for s in (32, 48, 64) for alpha in (Fraction(1, 3), HALF, Fraction(2, 3))]
        hs = (None, HFunction.affine(2, 0))
        cases = [(s, alpha, hs[case % 2]) for case, (s, alpha) in enumerate(sizes)]
        assert tables_digest("exact-bits", cases) == EXACT_DIGEST

    def test_gap_tables_match_recorded_digest(self):
        # At s = 32/48 for affine:3:1 and table:2:2;3:4;9:10.  The digest was
        # recorded before the fill for h with gaps searched r widest first.
        sizes = [(s, alpha) for s in (32, 48) for alpha in (Fraction(1, 3), HALF, Fraction(2, 3))]
        hs = (HFunction.affine(3, 1), GAPPED_H)
        cases = [(s, alpha, hs[case % 2]) for case, (s, alpha) in enumerate(sizes)]
        assert tables_digest("gap-bits", cases) == GAP_DIGEST


# Every h kind: plain, the identity, affine with and without gaps, and
# tables with gaps, with h(k) > k and with h(k) < k.
CEILING_HS = (
    ("", None),
    (",h=identity", HFunction.identity()),
    (",h=affine:2:0", HFunction.affine(2, 0)),
    (",h=affine:3:1", HFunction.affine(3, 1)),
    (",h=table:2:2;3:4;9:10", GAPPED_H),
    (",h=table:1:3;2:4", HFunction.from_table([(1, 3), (2, 4)])),
    (",h=table:4:2;9:3", HFunction.from_table([(4, 2), (9, 3)])),
)
CEILING_ALPHAS = (Fraction(1, 3), HALF, Fraction(2, 3))
# Value draws by the position n: seeded rationals, tie-heavy values, the
# harmonic 1/(n + 1), and ints mixed with Fractions.
CEILING_VALUES = (
    lambda rng, n: Fraction(rng.choice((-1, 1)) * rng.randint(1, 20), rng.choice((1, 2, 3, 5, 7, 12))),
    lambda rng, n: rng.choice((1, -1, 2, Fraction(1, 2), Fraction(-1, 2))),
    lambda rng, n: Fraction(1, n + 1),
    lambda rng, n: rng.choice((rng.randint(1, 5), -rng.randint(1, 5), Fraction(rng.randint(1, 9), 4))),
)


# The prune-free sweep: (s, index into CEILING_HS).  Every h at s = 48-64,
# where each level is checked too; fixed points alone at s = 96-128.
PRUNE_FREE_CASES = (
    (48, 0), (56, 1), (64, 2), (48, 3), (56, 4), (64, 5), (48, 6), (96, 0), (112, 4), (128, 5),
)
# The CI's larger fixed points, cases 10-23: every h at s = 160 and 192.
LARGE_PRUNE_FREE_CASES = tuple((s, h) for s in (160, 192) for h in range(len(CEILING_HS)))
# Harmonic, tie-heavy and seeded rational values, by the position n.
PRUNE_FREE_DRAWS = (CEILING_VALUES[2], CEILING_VALUES[1], CEILING_VALUES[0])


def prune_free_case(case):
    """(alpha, v, h, levels) of case ``case`` of the prune-free sweep: alpha,
    the value draw and the first position, 1-5, cycle with the case number;
    the positions run on from the first, and the values are seeded."""
    s, h_index = (PRUNE_FREE_CASES + LARGE_PRUNE_FREE_CASES)[case]
    draw = PRUNE_FREE_DRAWS[(case + case // 3) % 3]
    first, rng = 1 + case % 5, Random(f"prune-free/{case}")
    v = FiniteVector.from_pairs((n, draw(rng, n)) for n in range(first, first + s))
    return CEILING_ALPHAS[case % 3], v, CEILING_HS[h_index][1], s <= 64


class TestPruneFreeStep:
    """Every exact table against one prune-free step of the recursion
    (check_table), at supports past the oracle's and the slow references'."""

    @pytest.mark.parametrize("case", range(len(PRUNE_FREE_CASES)), ids=[
        f"{s}{CEILING_HS[h][0].replace(',h=', '-') or '-plain'}" for s, h in PRUNE_FREE_CASES
    ])
    def test_tables_are_one_prune_free_step(self, case):
        alpha, v, h, levels = prune_free_case(case)
        assert_prune_free(TsirelsonEngine(alpha, v, h), v, h, levels)

    @pytest.mark.sweep(0, 14)
    def test_large_fixed_points_are_one_prune_free_step(self, sweep_cases):
        # All 14 take about 25 s, so tier-1 checks none of them.
        for case in range(len(PRUNE_FREE_CASES), len(PRUNE_FREE_CASES) + sweep_cases):
            alpha, v, h, levels = prune_free_case(case)
            assert_prune_free(TsirelsonEngine(alpha, v, h), v, h, levels)

    @pytest.mark.parametrize("route", ["fixed-point", "level"])
    def test_an_entry_moved_by_one_unit_fails(self, route):
        # One entry of a correct table moved up or down by one unit of the
        # table's common denominator: the check flags that entry.
        v = harmonic(20)
        engine = TsirelsonEngine(HALF, v)
        if route == "fixed-point":
            table = engine.fixed_point_table()
        else:
            before, table = engine.level_tables(2)[1:]
        unit = Fraction(1, math.lcm(*{x.denominator for row in table for x in row}))
        for i, j in ((0, 19), (3, 11), (7, 7)):
            for step in (unit, -unit):
                moved = [row[:] for row in table]
                moved[i][j] += step
                if route == "fixed-point":
                    got = check_table(HALF, v, None, moved)
                else:
                    got = check_table(HALF, v, None, before, before)
                assert got[i][j] != moved[i][j] and got[i][j] == table[i][j]

    def test_iterated_step_reaches_the_oracle(self):
        # From the sup table, the step iterated reaches its fixed point, whose
        # entry for the whole support is the oracle's norm over families of
        # arbitrary subsets: the interval reading that check_table shares
        # with the engine, checked without the engine.
        for case in range(21):
            rng = Random(f"prune-free-oracle/{case}")
            alpha, h = CEILING_ALPHAS[case % 3], CEILING_HS[case % 7][1]
            draw = CEILING_VALUES[case % 4]
            pos, pairs = rng.randint(1, 5), []
            for _ in range(3 + case % 5):
                pairs.append((pos, draw(rng, pos)))
                pos += rng.randint(1, 3)
            v = FiniteVector.from_pairs(pairs)
            table, nxt = None, sup_table(v)
            while nxt != table:
                table, nxt = nxt, check_table(alpha, v, h, nxt)
            assert table[0][-1] == oracle_norm(alpha, v, h=h), case


class TestFixedPointCeiling:
    """The exact level route reads the fixed-point table from level 2 on:
    an entry whose floor or carry reaches it is written without a search,
    and a level equal to it repeats unfilled.  Every level lies below the
    fixed point, so the route gives what the full fills give."""

    def test_capped_route_matches_the_full_fills(self, fills):
        # 4,200 seeded cases: each h kind at alpha 1/3, 1/2 and 2/3, the
        # first position 1-5, and the four value draws.  Every level and the
        # fixed point against one prune-free step (assert_prune_free), and
        # level_tables(m) for a smaller m a prefix of the levels.
        cases = 0
        for seed in range(50):
            for kind, draw in enumerate(CEILING_VALUES):
                for alpha in CEILING_ALPHAS:
                    for text, h in CEILING_HS:
                        rng = Random(f"ceiling/{seed}/{kind}/{alpha}/{text}")
                        pos, pairs = rng.randint(1, 5), []
                        for _ in range(rng.randint(1, 8)):
                            pairs.append((pos, draw(rng, pos)))
                            pos += rng.randint(1, 3)
                        v = FiniteVector.from_pairs(pairs)
                        engine = TsirelsonEngine(alpha, v, h)
                        filled = fills[0]
                        low = [engine.level_tables(m) for m in (0, 1)]
                        assert fills[0] == filled  # no fixed-point fill below level 2
                        tables = assert_prune_free(engine, v, h)
                        for m in range(len(tables)):
                            assert (low[m] if m < 2 else engine.level_tables(m)) == tables[: m + 1]
                        cases += 1
        assert cases == 4200

    @pytest.mark.parametrize("values", [
        (True, Fraction(1, 2), 3),
        (Fraction(1, 3), 0.25, 2),
        (1, 2.0, Fraction(-3, 4), 1),
    ], ids=["bool", "float", "int-float"])
    def test_values_that_are_not_int_or_fraction_take_the_float_route(self, values, fills):
        # scaled_ints refuses a bool or a float, so the engine fills by the
        # float route, which reads no ceiling; its tables are the slow
        # float search's, entry by entry.
        v = FiniteVector(tuple(range(2, 2 + len(values))), values)
        s = len(values)
        expected = float_reference_tables(HALF, v, None)
        assert [typed(t) for t in TsirelsonEngine(HALF, v).level_tables(s + 1)] == [typed(t) for t in expected]
        assert fills[0] == 0

    def test_a_level_equal_to_the_fixed_point_repeats_unfilled(self, monkeypatch):
        # 96 harmonic entries: level 1 differs from the fixed point, and the
        # capped route fills levels 1 and 2 and the fixed point, where the
        # full route fills levels 1-4.
        engine = TsirelsonEngine(HALF, harmonic(96))
        fills = []
        fill = TsirelsonEngine._fill_exact

        def counted(self, table, out, ceiling=None):
            fills.append("fixed" if table is out else "capped" if ceiling is not None else "level")
            return fill(self, table, out, ceiling)

        monkeypatch.setattr(TsirelsonEngine, "_fill_exact", counted)
        tables = engine.level_tables(97)
        assert len(tables) == 5 and tables[4] is tables[3] and tables[3] == engine.fixed_point_table()
        assert sorted(fills) == ["capped", "capped", "fixed", "level"]

    def test_a_repeated_level_is_converted_once(self, monkeypatch):
        # 8 harmonic entries: levels 0-2 and the repeat of level 2; each of
        # the three distinct tables converts its 36 entries once.
        engine = TsirelsonEngine(HALF, harmonic(8))
        calls = []
        number = TsirelsonEngine._number

        def counted(self, raw, i, j):
            calls.append((i, j))
            return number(self, raw, i, j)

        monkeypatch.setattr(TsirelsonEngine, "_number", counted)
        tables = engine.level_tables(9)
        assert len(tables) == 4 and len(calls) == 3 * 36
        assert tables[3] is tables[2]
        assert typed(tables[3]) == typed(engine.fixed_point_table())


# Supports of the DP = oracle sweep, by case: one exact oracle call took
# about 4, 16, 40, 140 and 350 ms at s = 8-12.
SWEEP_SIZES = (8, 8, 8, 9, 9, 9, 10, 10, 10, 11, 11, 12)


def sweep_case(case):
    """(alpha, v, h, exact) of case ``case`` of the DP = oracle sweep: the
    size, h kind, alpha, value draw and mode cycle with the case number, and
    the positions, starting at 1-5 with gaps of 1-3, are seeded by it."""
    rng = Random(f"oracle-sweep/{case}")
    s = SWEEP_SIZES[case % len(SWEEP_SIZES)]
    h = CEILING_HS[case % len(CEILING_HS)][1]
    alpha = CEILING_ALPHAS[case % len(CEILING_ALPHAS)]
    draw = CEILING_VALUES[case % len(CEILING_VALUES)]
    exact = case % 2 == 0
    pos, pairs = rng.randint(1, 5), []
    for _ in range(s):
        pairs.append((pos, draw(rng, pos) if exact else float(draw(rng, pos))))
        pos += rng.randint(1, 3)
    return (alpha if exact else float(alpha)), FiniteVector.from_pairs(pairs), h, exact


class TestOracleSweep:
    """The DP against the brute-force oracle up to the oracle's limit."""

    @pytest.mark.sweep(36, 2000)
    def test_dp_equals_oracle_up_to_the_support_limit(self, sweep_cases):
        # Exact values are equal, on the fixed-point route and on the level
        # route, which reads the fixed-point table as its ceiling; floats
        # agree within the default --tol.  Tier-1's 36 cases take about 3 s.
        sizes = set()
        for case in range(sweep_cases):
            alpha, v, h, exact = sweep_case(case)
            expected = oracle_norm(alpha, v, h=h)
            got = (fixed_point_norm(alpha, v, h), norm(alpha, h, v)[0])
            if exact:
                assert got == (expected, expected), case
            else:
                assert all(close(value, expected) for value in got), case
            sizes.add(len(v.support))
        assert sizes == set(SWEEP_SIZES) or sweep_cases < len(SWEEP_SIZES)


def tables_digest(label, cases):
    """sha256 of every entry of every level, the fixed-point table and the
    trace, by type and repr, for one seeded vector per (s, alpha, h)."""
    digest = hashlib.sha256()
    for case, (s, alpha, h) in enumerate(cases):
        engine = TsirelsonEngine(alpha, seeded_vector(Random(f"{label}/{case}"), s), h)
        value, trace = engine.norm_with_trace()
        for table in engine.level_tables(s + 1):
            digest.update(repr(typed(table)).encode())
        digest.update(repr(typed([[value] + [x for _, x in trace.levels]])).encode())
        digest.update(repr(trace.stabilization_level).encode())
        digest.update(repr(typed(engine.fixed_point_table())).encode())
    return digest.hexdigest()


ORACLE_HS = (None, HFunction.affine(2, 0), HFunction.affine(3, 1), GAPPED_H,
             HFunction.from_table([(5, 1), (6, 2), (7, 3)]))

# Coefficient draws; the last three are tie-heavy, and 0.1 + 0.2 != 0.3 in
# floats, so a change in the order of a float sum shows.
ORACLE_COEFFICIENTS = (
    lambda rng: Fraction(rng.choice((-1, 1)) * rng.randint(1, 20), rng.choice((1, 2, 3, 5, 7, 12))),
    lambda rng: rng.uniform(-4.0, 4.0),
    lambda rng: rng.choice((-2, -1, 1, 1, 2, 3)),
    lambda rng: rng.choice((0.1, 0.2, 0.3, -0.1, 0.5, 1.0, -1.0)),
    lambda rng: rng.choice((Fraction(1, 3), Fraction(-2, 3), 1, 2, 0.1, 0.2, -0.3)),
)


def oracle_digest():
    """sha256 of the type and repr of oracle_norm over 3,200 seeded cases:
    s = 1-8, five h (the last with h(k) < k), both family shapes, exact and
    float alpha, and the coefficient draws above, four seeds each."""
    digest = hashlib.sha256()
    for s in range(1, 9):
        for h_index, h in enumerate(ORACLE_HS):
            for shape in ("subsets", "intervals"):
                for exact in (True, False):
                    for kind, draw in enumerate(ORACLE_COEFFICIENTS):
                        for seed in range(4):
                            rng = Random(f"oracle/{s}/{h_index}/{shape}/{exact}/{kind}/{seed}")
                            alphas = (HALF, Fraction(1, 3), Fraction(2, 3), Fraction(9, 10))
                            alpha = rng.choice(alphas)
                            if not exact:
                                alpha = float(alpha)
                            pos, pairs = rng.randint(0, 5), []
                            for _ in range(s):
                                pos += rng.randint(1, 3)
                                pairs.append((pos, draw(rng)))
                            value = oracle_norm(alpha, FiniteVector.from_pairs(pairs), h=h, family_shape=shape)
                            digest.update(f"{type(value).__name__}:{value!r};".encode())
    return digest.hexdigest()


# The last h is the one of these whose narrower r can win after the widest
# passes the sup bound (test_smaller_family_size_can_win_for_table_h).
GAP_HS = (
    HFunction.affine(2, 0), HFunction.affine(3, 1), GAPPED_H, HFunction.from_table([(1, 3), (2, 4)])
)
GAP_IDS = ["affine:2:0", "affine:3:1", "table:2:2;3:4;9:10", "table:1:3;2:4"]


def seeded_vector(rng, s, pos=0):
    """s seeded rationals on positions after pos, with gaps of 1-3."""
    pairs = []
    for _ in range(s):
        pos += rng.randint(1, 3)
        a = Fraction(rng.choice((-1, 1)) * rng.randint(1, 20), rng.choice((1, 2, 3, 5, 7, 12)))
        pairs.append((pos, a))
    return FiniteVector.from_pairs(pairs)



def admissible_sizes(pos, sizes, i, j):
    """The r >= 2 a family of exactly r sets may split [i..j] into from i."""
    return [r for k, r in sizes if k <= pos[i] and 2 <= r <= j - i + 1]


def chain_split():
    """brute_split's value by recursion on the last group,
    split(i, y, q) = max over x of split(i, x - 1, q - 1) + table[x][y],
    memoized per table entry read; for supports where the cut sets are too
    many to list.  Every table passed must stay alive, and an entry must be
    final once a split reads it."""
    memo = {}

    def split(table, i, y, q):
        key = (id(table), i, y, q)
        if key not in memo:
            memo[key] = table[i][y] if q == 1 else max(
                split(table, i, x - 1, q - 1) + table[x][y] for x in range(i + q - 1, y + 1)
            )
        return memo[key]

    return split


def every_r_tables(alpha, v, h, split=brute_split):
    """Scaled level tables and fixed-point table of an h with gaps, filled
    by the ascending every-r search.

    Start-major, the value of [i+1..j] carried, and at the start i every
    admissible r tried in increasing order, its best split read from
    ``split``: no bound and no closed form.  Entries are ints X standing for
    X / scale, with scale = L * q^(s - 1) for the lcm L of the denominators,
    and each alpha * X is checked to be an int.  Returns (scale, levels,
    fixed); the levels run until the whole table repeats, or s + 1 steps.
    """
    pos, val, sizes = reference_sizes(v, h)
    s = len(pos)
    p, q = alpha.numerator, alpha.denominator
    scale = math.lcm(*(Fraction(x).denominator for x in val)) * q ** max(s - 1, 0)
    work = [int(x * scale) for x in val]
    sup = [[max(work[i : j + 1]) if j >= i else 0 for j in range(s)] for i in range(s)]

    def fill(table, floors, out):
        for i in range(s - 1, -1, -1):
            out[i][i] = floors[i][i]
            for j in range(i + 1, s):
                best = max(floors[i][j], out[i + 1][j])
                for r in admissible_sizes(pos, sizes, i, j):
                    cand, rest = divmod(p * split(table, i, j, r), q)
                    assert rest == 0
                    best = max(best, cand)
                out[i][j] = best

    levels = [sup]
    for _ in range(s + 1):
        nxt = [[0] * s for _ in range(s)]
        fill(levels[-1], levels[-1], nxt)
        levels.append(nxt)
        if nxt == levels[-2]:
            break
    fixed = [[0] * s for _ in range(s)]
    fill(fixed, sup, fixed)
    return scale, levels, fixed


def assert_matches_every_r(alpha, v, h, split=brute_split):
    """Level tables, fixed-point table, trace and stabilization level of the
    engine against every_r_tables."""
    s = len(v.support)
    scale, levels, fixed = every_r_tables(alpha, v, h, split)

    def values(table):
        return [[Fraction(x, scale) for x in row] for row in table]

    engine = TsirelsonEngine(alpha, v, h)
    assert engine.level_tables(s + 1) == [values(t) for t in levels]
    assert engine.fixed_point_table() == values(fixed)
    expected = [Fraction(t[0][s - 1], scale) for t in levels]
    value, trace = norm(alpha, h, v)
    assert value == expected[-1] and [x for _, x in trace.levels] == expected
    stab = next((m for m in range(len(expected) - 1) if expected[m + 1] == expected[m]),
                len(expected) - 1)
    assert trace.stabilization_level == stab


class TestGapSearch:
    """The exact fill for an h with gaps: no split beats the singletons, the
    sup bound grows with r, and the widest-first search it allows against
    the ascending every-r search."""

    @staticmethod
    def tables(h, label):
        # (alpha, positions, |coefficients|, sizes, table) for the sup,
        # level-2 and fixed-point tables, on seeded vectors small enough to
        # list every cut set; values as ints over one common denominator
        rng = Random(f"{label}/{h!r}")
        for case in range(20):
            alpha = (Fraction(1, 3), HALF, Fraction(2, 3))[case % 3]
            v = seeded_vector(rng, rng.randint(2, 10))
            pos, val, sizes = reference_sizes(v, h)
            for table in public_tables(TsirelsonEngine(alpha, v, h)):
                unit = math.lcm(*{x.denominator for x in val + [x for row in table for x in row]})
                ints = [[x.numerator * (unit // x.denominator) for x in row] for row in table]
                yield alpha, pos, [x.numerator * (unit // x.denominator) for x in val], sizes, ints

    @pytest.mark.parametrize("h", GAP_HS, ids=GAP_IDS)
    def test_no_split_beats_the_singletons(self, h):
        # Every entry is at most the l1 mass of its interval, and so is every
        # split: when the widest admissible r is the width, the singletons
        # close the query.
        checked = 0
        for _, pos, val, sizes, table in self.tables(h, "singletons"):
            for i in range(len(pos)):
                for j in range(i, len(pos)):
                    l1 = sum(val[i : j + 1])
                    assert table[i][j] <= l1
                    for r in admissible_sizes(pos, sizes, i, j):
                        assert brute_split(table, i, j, r) <= l1
                        checked += 1
        assert checked > 100

    @pytest.mark.parametrize("h", GAP_HS, ids=GAP_IDS)
    def test_sup_bound_grows_with_r(self, h):
        # q * split <= p * l1 + (q - p) * top_r for every admissible r, and
        # the bound does not fall as r grows: the first r it rules out,
        # widest first, rules out every narrower one.
        checked = 0
        for alpha, pos, val, sizes, table in self.tables(h, "sup-bound"):
            p, q = alpha.numerator, alpha.denominator
            for i in range(len(pos)):
                for j in range(i + 1, len(pos)):
                    l1 = sum(val[i : j + 1])
                    ranked = sorted(val[i : j + 1], reverse=True)
                    bounds = []
                    for r in admissible_sizes(pos, sizes, i, j):
                        bounds.append(p * l1 + (q - p) * sum(ranked[:r]))
                        assert q * brute_split(table, i, j, r) <= bounds[-1]
                    assert bounds == sorted(bounds)
                    checked += len(bounds) > 1
        assert checked > 20

    @pytest.mark.parametrize("h", GAP_HS, ids=GAP_IDS)
    def test_fill_matches_every_r_search(self, h):
        # At alpha 9/10 a narrower r of table:1:3;2:4 can win.
        rng = Random(f"every-r/{h!r}")
        for case in range(48):
            alpha = (Fraction(1, 3), HALF, Fraction(2, 3), Fraction(9, 10))[case % 4]
            v = seeded_vector(rng, rng.randint(1, 14))
            assert_matches_every_r(alpha, v, h)
            if case % 5 == 0:  # the memoized split the large cases use
                assert every_r_tables(alpha, v, h, chain_split()) == every_r_tables(alpha, v, h)

    @pytest.mark.parametrize("s, alpha, h", [
        pytest.param(32, Fraction(1, 3), GAP_HS[1], id="32-affine:3:1"),
        pytest.param(32, HALF, GAP_HS[2], id="32-table:2:2;3:4;9:10"),
        pytest.param(32, Fraction(2, 3), GAP_HS[0], id="32-affine:2:0"),
        pytest.param(48, Fraction(2, 3), GAP_HS[0], id="48-affine:2:0"),
        pytest.param(48, HALF, GAP_HS[2], id="48-table:2:2;3:4;9:10"),
        pytest.param(48, Fraction(1, 3), GAP_HS[3], id="48-table:1:3;2:4"),
    ])
    def test_large_fill_matches_every_r_search(self, s, alpha, h):
        v = seeded_vector(Random(f"every-r/{s}/{alpha}"), s)
        assert_matches_every_r(alpha, v, h, chain_split())


# Values of the Fraction-based engine on the float corpus above.
FLOAT_CORPUS = [
    (1.9795, 1.9795, (0.851, 1.9795, 1.9795)),
    (1.9991999999999999, 1.9991999999999999, (0.961, 1.9991999999999999, 1.9991999999999999)),
    (3.0826666666666664, 3.0826666666666664,
     (0.998, 3.0246666666666666, 3.0826666666666664, 3.0826666666666664)),
    (1.0565, 1.0565, (0.8, 1.0565, 1.0565)),
    (1.8158999999999998, 1.8158999999999998, (0.909, 1.8158999999999998, 1.8158999999999998)),
    (2.9913333333333334, 2.9913333333333334,
     (0.893, 2.9913333333333334, 2.9913333333333334, 2.9913333333333334)),
    (1.077, 1.077, (0.792, 0.9924999999999999, 1.077, 1.077)),
    (1.5828, 1.5828, (0.979, 1.5828, 1.5828)),
    (2.5826666666666664, 2.5826666666666664,
     (0.949, 2.226, 2.5826666666666664, 2.5826666666666664)),
    (2.7470000000000003, 2.7470000000000003, (0.948, 2.7470000000000003, 2.7470000000000003)),
    (1.0992, 1.0992, (0.879, 1.0992, 1.0992)),
    (3.2640000000000002, 3.2640000000000002,
     (0.847, 3.2020000000000004, 3.2640000000000002, 3.2640000000000002)),
]


# (s, alpha, h) of the large-support float corpus; the vectors are seeded.
LARGE_FLOAT_CASES = [
    (32, 0.5, None), (36, 1 / 3, HFunction.affine(2, 0)), (40, 2 / 3, None),
    (44, 0.5, HFunction.affine(2, 0)), (48, 1 / 3, None), (48, 2 / 3, HFunction.affine(2, 0)),
    (46, 0.5, None), (34, 2 / 3, None),
]

# repr of the fixed-point norm, the norm and levels of the trace, the
# stabilization level and four prefix norms, recorded before the float fill
# computed single partition states in place.
LARGE_FLOAT_CORPUS = [
    ("49.95595238095238", "49.95595238095238",
     ("19.0", "49.50714285714286", "49.95595238095238", "49.95595238095238"), 2,
     ("13.0", "19.40714285714286", "26.33452380952381", "49.95595238095238")),
    ("36.355555555555554", "36.355555555555554",
     ("19.0", "36.355555555555554", "36.355555555555554"), 1,
     ("19.0", "19.0", "26.56984126984127", "36.355555555555554")),
    ("67.17248677248676", "67.17248677248676",
     ("15.0", "63.74285714285714", "67.17248677248676", "67.17248677248676"), 2,
     ("23.85185185185185", "36.85925925925926", "54.283597883597885", "67.17248677248676")),
    ("84.87202380952381", "84.87202380952381",
     ("19.0", "82.2", "84.87202380952381", "84.87202380952381"), 2,
     ("30.930952380952384", "56.58333333333333", "78.29761904761905", "84.87202380952381")),
    ("57.09841269841269", "57.09841269841269",
     ("19.0", "57.09841269841269", "57.09841269841269", "57.09841269841269"), 1,
     ("16.0", "29.69761904761905", "42.39365079365079", "57.09841269841269")),
    ("92.64497354497354", "92.64497354497354",
     ("17.0", "87.7047619047619", "92.64497354497354", "92.64497354497354"), 2,
     ("29.48412698412698", "45.2904761904762", "57.89259259259258", "92.64497354497354")),
    ("66.34166666666667", "66.34166666666667",
     ("17.0", "63.916666666666664", "66.34166666666667", "66.34166666666667"), 2,
     ("17.0", "32.05833333333333", "49.69523809523809", "66.34166666666667")),
    ("51.702645502645495", "51.702645502645495",
     ("9.5", "47.32539682539682", "51.702645502645495", "51.702645502645495"), 2,
     ("14.577777777777778", "35.337566137566135", "44.045502645502644", "51.702645502645495")),
]


# sha256 of the typed tables of test_large_float_tables_match_recorded_digest.
LARGE_FLOAT_DIGEST = "7a3247596a7dce22cf1da0a1af3fe074ff3196c76fe0deca64d4a73a6a392e22"

# sha256 of the typed tables of test_exact_tables_match_recorded_digest.
EXACT_DIGEST = "6e34d63f2f59b06f5a559eb57c421a6484f20a2f7ed66b488d41c19809437ec5"

# sha256 of the typed tables of test_gap_tables_match_recorded_digest.
GAP_DIGEST = "773391821cec0332c7fde72a366ad8ef2e26af33985b3bb26088446281634469"

# sha256 of oracle_digest(), recorded before the family table was stored
# once per union.
ORACLE_DIGEST = "992b62626b8b13e2095931136d20ad2d9227a5ab5d8d4e02a44be540a2771acf"

def inadmissible(*children, h=None):
    """certificate_lower_bound on a root family with the given child sets."""
    root = CertificateNode.internal(range(0, 9), [CertificateNode.leaf(c) for c in children])
    return lambda tmp: certificate_lower_bound(HALF, h, units(1, 2), root)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(inadmissible((), (2,)), CertificateError, "empty-set", id="empty-set"),
    pytest.param(inadmissible((0,), (2,)), CertificateError, "bad-position", id="position-below-1"),
    pytest.param(inadmissible((3,), (4,), h=HFunction.affine(2, 1)), CertificateError, "size-not-in-h-range",
                 id="size-not-in-h-range"),
    pytest.param(lambda tmp: certificate_lower_bound(1, None, units(1), CertificateNode.leaf([1])),
                 ConfigurationError, "alpha", id="certificate-alpha-outside-0-1"),
])
def test_validation_branches(refused, call, error, match):
    refused(call, error, match=match)
