import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Iterable, Sequence, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from seqnorms.core import (
    BudgetError,
    ConfigurationError,
    FiniteVector,
    GridSpec,
    HFunction,
    ParseError,
    QuantizationError,
    SpaceSpec,
    WeightSpec,
    eval_norm,
    format_scalar,
    parse_scalar,
    parse_space,
    parse_vector,
    quantize_to_grid,
)
from seqnorms import core


class TestFiniteVector:
    def test_trailing_zeros_trimmed(self):
        assert FiniteVector.from_dense([1, 0, 0]) == FiniteVector.from_dense([1])
        assert FiniteVector.from_dense([0, 0]).is_zero

    def test_support(self):
        assert FiniteVector.from_dense([0, 3, 0, 1]).support == (2, 4)
        assert FiniteVector.zero().support == ()
        assert FiniteVector.from_dense([1]).support == (1,)

    def test_coefficient_out_of_range_is_zero(self):
        v = FiniteVector.from_dense([5])
        assert v.coefficient(3) == 0

    def test_from_pairs_accumulates(self):
        v = FiniteVector.from_pairs([(2, 1), (2, 2)])
        assert v.coefficient(2) == 3

    def test_arithmetic(self):
        u = FiniteVector.from_dense([1, 2])
        v = FiniteVector.from_dense([0, -2, 3])
        assert (u + v) == FiniteVector.from_dense([1, 0, 3])
        assert (u - u).is_zero
        assert u.scale(Fraction(1, 2)) == FiniteVector.from_dense([Fraction(1, 2), 1])

    def test_restrict(self):
        v = FiniteVector.from_dense([1, 2, 3])
        assert v.restrict([2]) == FiniteVector.from_pairs([(2, 2)])
        # an interval is sliced from the support, with the same result
        assert v.restrict(range(2, 10 ** 5)) == FiniteVector.from_pairs([(2, 2), (3, 3)])
        assert v.restrict(range(3, 1)).is_zero and v.restrict(range(1, 4, 2)) == v.restrict([1, 3])

    def test_stores_only_the_support(self):
        v = FiniteVector.from_dense([0, 3, 0.0, Fraction(0), 1, -0.0])
        assert (v.support, v.values) == ((2, 5), (3, 1))
        assert FiniteVector.from_pairs([(10 ** 12, 1), (3, 2)]).support == (3, 10 ** 12)

    def test_dense_view_has_int_zeros_at_the_gaps(self):
        coeffs = FiniteVector.from_dense([1.0, 0.0, Fraction(0), 2.0]).coeffs
        assert list(map(typed, coeffs)) == ["float:1.0", "int:0", "int:0", "float:2.0"]

    def test_positional_dense_tuple_refused(self):
        with pytest.raises(ConfigurationError):
            FiniteVector((1, 2))


@dataclass(frozen=True)
class DenseVector:
    """The dense vector class FiniteVector replaced, kept as a reference:
    a tuple up to the largest position, trailing zeros trimmed."""

    coeffs: Tuple

    def __post_init__(self):
        trimmed = list(self.coeffs)
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        object.__setattr__(self, "coeffs", tuple(trimmed))

    @staticmethod
    def from_dense(values: Sequence) -> "DenseVector":
        return DenseVector(tuple(values))

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[int, object]]) -> "DenseVector":
        items = dict()
        for pos, val in pairs:
            if pos < 1:
                raise ConfigurationError(f"positions are 1-based, got {pos}")
            items[pos] = items.get(pos, 0) + val
        if not items:
            return DenseVector(())
        top = max(items)
        return DenseVector(tuple(items.get(n, 0) for n in range(1, top + 1)))

    def coefficient(self, n: int):
        if 1 <= n <= len(self.coeffs):
            return self.coeffs[n - 1]
        return 0

    @property
    def support(self) -> Tuple[int, ...]:
        return tuple(n for n, a in enumerate(self.coeffs, start=1) if a != 0)

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def restrict(self, positions: Iterable[int]) -> "DenseVector":
        keep = set(positions)
        return DenseVector.from_pairs(
            (n, a) for n, a in enumerate(self.coeffs, start=1) if n in keep and a != 0
        )

    def __add__(self, other: "DenseVector") -> "DenseVector":
        top = max(len(self.coeffs), len(other.coeffs))
        return DenseVector(
            tuple(self.coefficient(n) + other.coefficient(n) for n in range(1, top + 1))
        )

    def __sub__(self, other: "DenseVector") -> "DenseVector":
        return self + other.scale(-1)

    def scale(self, c) -> "DenseVector":
        return DenseVector(tuple(c * a for a in self.coeffs))

    def flip_signs(self, signs: Sequence[int]) -> "DenseVector":
        return DenseVector(
            tuple(a * signs[n - 1] for n, a in enumerate(self.coeffs, start=1))
        )

    def abs_sum(self):
        # Left to right; an exact term past the float range makes a float sum inf.
        total = 0
        for a in self.coeffs:
            try:
                total += abs(a)
            except OverflowError:
                total = math.inf
        return total

    def sup(self):
        return max((abs(a) for a in self.coeffs), default=0)


def typed(x) -> str:
    return f"{type(x).__name__}:{x!r}"


def typed_values(v) -> list:
    """type:repr of the coefficients on the support, for either class."""
    return [typed(v.coefficient(n)) for n in v.support]


# Exact vectors hold ints and Fractions, float vectors floats.  Interior
# zeros come in every form a vector can hold: 0, Fraction(0), 0.0 and -0.0.
EXACT_NONZERO = st.one_of(
    st.integers(-9, 9).filter(bool),
    st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6)),
)
FLOAT_NONZERO = st.floats(-1e6, 1e6, allow_nan=False).filter(bool)
SCALARS = {
    True: (EXACT_NONZERO, st.sampled_from([0, Fraction(0)])),
    False: (FLOAT_NONZERO, st.sampled_from([0.0, -0.0, 0])),
}


@st.composite
def reference_cases(draw):
    exact = draw(st.booleans())
    nonzero, zero = SCALARS[exact]
    entry = st.one_of(nonzero, zero)
    u, v = draw(st.lists(entry, max_size=10)), draw(st.lists(entry, max_size=10))
    return u, v, draw(nonzero), draw(st.sets(st.integers(1, 11)))


@st.composite
def pair_cases(draw):
    exact = draw(st.booleans())
    nonzero, zero = SCALARS[exact]
    pairs = draw(st.lists(st.tuples(st.integers(1, 8), st.one_of(nonzero, zero)), max_size=12))
    cancelling = [(n, -a) for n, a in draw(st.lists(st.sampled_from(pairs)))] if pairs else []
    return pairs + cancelling


class TestDenseReference:
    """FiniteVector agrees with the dense class it replaced.

    Values agree by ==.  Types agree too, with one exception: the dense
    class kept an interior Fraction(0), whose type leaked into sums, so
    int k + Fraction(0) gave Fraction(k, 1) where the sparse class gives k.
    """

    @settings(max_examples=400, deadline=None)
    @given(reference_cases())
    def test_matches_dense_reference(self, case):
        a, b, c, keep = case
        u, v = FiniteVector.from_dense(a), FiniteVector.from_dense(b)
        ru, rv = DenseVector.from_dense(a), DenseVector.from_dense(b)
        assert (u == v) == (ru == rv)
        assert (u.support, u.is_zero, u.coeffs) == (ru.support, ru.is_zero, ru.coeffs)
        for n in range(len(a) + 2):
            assert u.coefficient(n) == ru.coefficient(n)
        assert typed(u.sup()) == typed(ru.sup())
        signs = [1 if i % 3 else -1 for i in range(len(a))]
        results = [
            (u + v, ru + rv), (u - v, ru - rv), (u.restrict(keep), ru.restrict(keep)),
            (u.restrict(range(2, len(a))), ru.restrict(range(2, len(a)))),
            (u.scale(c), ru.scale(c)), (u.scale(0), ru.scale(0)),
            (u.flip_signs(signs), ru.flip_signs(signs)),
        ]
        for new, ref in results:
            assert new.coeffs == ref.coeffs and new.support == ref.support
        if any(x == 0 and type(x) is Fraction for x in a + b):
            assert u.abs_sum() == ru.abs_sum()
        else:
            assert typed(u.abs_sum()) == typed(ru.abs_sum())
            for new, ref in results:
                assert typed_values(new) == typed_values(ref)

    @settings(max_examples=300, deadline=None)
    @given(pair_cases())
    def test_from_pairs_matches_dense_reference(self, pairs):
        new, ref = FiniteVector.from_pairs(pairs), DenseVector.from_pairs(pairs)
        assert (new.support, new.coeffs) == (ref.support, ref.coeffs)
        assert typed_values(new) == typed_values(ref)
        assert new == FiniteVector.from_dense(ref.coeffs)


class TestScalars:
    def test_parse_fraction(self):
        assert parse_scalar("3/4") == Fraction(3, 4)
        assert parse_scalar("2") == 2
        assert parse_scalar("0.5") == Fraction(1, 2)
        assert parse_scalar("0.5", exact=False) == 0.5

    def test_parse_garbage(self):
        with pytest.raises(ParseError):
            parse_scalar("x/y")

    @pytest.mark.parametrize("text", ["1e100000", "1E-100000", "2.5e19729", "-1e+1_0000000"])
    def test_huge_decimal_exponent_refused(self, text):
        # 10^100000 is a 332,193-bit integer; the parse built it in full
        with pytest.raises(BudgetError, match="--float"):
            parse_scalar(text)

    @pytest.mark.parametrize("text, exponent", [("1e19728", 19728), ("1e-19728", -19728), ("1e400", 400)])
    def test_decimal_exponent_at_the_bound_admitted(self, text, exponent):
        assert parse_scalar(text) == Fraction(10) ** exponent

    @pytest.mark.parametrize("text", ["1e", "1ex", "1e 99999", "xe99999", "1e99999e1", "1.2.3e99999"])
    def test_malformed_exponent_stays_a_parse_error(self, text):
        with pytest.raises(ParseError):
            parse_scalar(text)

    def test_float_mode_reads_huge_exponents(self):
        assert parse_scalar("1e100000", exact=False) == float("inf")
        assert parse_scalar("1e-100000", exact=False) == 0.0

    def test_float_mode_reads_huge_fractions(self):
        # float(Fraction) raised OverflowError, a traceback from the CLI
        big = "1" + "0" * 400
        assert parse_scalar(big + "/3", exact=False) == float("inf")
        assert parse_scalar("-" + big + "/3", exact=False) == float("-inf")
        assert parse_scalar("1/" + big, exact=False) == 0.0

    @pytest.mark.parametrize("text", ["nan", "NaN", "-nan", "+nan"])
    @pytest.mark.parametrize("exact", [True, False])
    def test_nan_refused(self, text, exact):
        # float mode read nan as a coefficient, so norms printed nan
        with pytest.raises(ParseError, match="bad scalar"):
            parse_scalar(text, exact=exact)

    def test_format_round_trip(self):
        assert format_scalar(Fraction(3, 4)) == "3/4"
        assert format_scalar(5) == "5"

    @pytest.mark.parametrize("digits", [1, 4299, 4300, 4301, 9000, 30001])
    def test_format_past_the_digit_limit(self, digits):
        # CPython converts at most 4,300 digits at once by default; longer
        # ints are written in pieces, zeros inside a piece kept.
        rng = Random(digits)
        body = "".join(rng.choice("0123456789") for _ in range(digits - 1))
        if digits > 2000:
            body = body[:1000] + "0" * 900 + body[1900:]
        text = str(rng.randint(1, 9)) + body
        n = 0
        for start in range(0, digits, 1000):
            piece = text[start : start + 1000]
            n = n * 10 ** len(piece) + int(piece)
        assert format_scalar(n) == text and format_scalar(-n) == "-" + text
        assert format_scalar(Fraction(-1, n)) == ("-1/" + text if n > 1 else "-1")
        assert format_scalar(True) == "True"


@pytest.mark.parametrize("values, scaled", [
    ([], ([], 1, False)),
    ([3, -2], ([3, -2], 1, False)),
    ([1, Fraction(-1, 2), Fraction(2, 3)], ([6, -3, 4], 6, True)),
    ([1, Fraction(1, 2), 0.5], None),
])
def test_scaled_ints(values, scaled):
    assert core.scaled_ints(values) == scaled


class TestHFunction:
    def test_identity(self):
        h = HFunction.identity()
        assert h(3) == 3 and h.inverse(3) == 3

    def test_affine(self):
        h = HFunction.affine(2, 0)
        assert h(1) == 2 and h(3) == 6
        assert h.inverse(6) == 3 and h.inverse(5) is None

    def test_table_domain(self):
        h = HFunction.from_table([(1, 2), (2, 5)])
        assert h(2) == 5
        with pytest.raises(ConfigurationError):
            h(3)

    def test_table_must_increase(self):
        with pytest.raises(ConfigurationError):
            HFunction.from_table([(1, 3), (2, 3)])

    @pytest.mark.parametrize("h, sizes", [
        (HFunction.identity(), [(1, 1), (2, 2), (3, 3)]),
        (HFunction.affine(2, 1), [(1, 3), (2, 5), (3, 7)]),
        # every entry, with h(2) < 2 and keys beyond the support size
        (HFunction.from_table([(2, 1), (5, 6), (9, 10)]), [(2, 1), (5, 6), (9, 10)]),
    ], ids=["identity", "affine", "table"])
    def test_sizes_over_three_points(self, h, sizes):
        assert h.sizes(3) == sizes

    def test_table_keys_below_one_rejected(self):
        # a k = 0 entry would let the oracle admit families the DP never sees
        with pytest.raises(ConfigurationError):
            HFunction("table", table=((0, 3),))
        with pytest.raises(ConfigurationError):
            HFunction.from_table([(-1, 1), (2, 3)])


class TestWeightSpec:
    def test_harmonic(self):
        w = WeightSpec.harmonic()
        assert w.weight(0) == 1 and w.weight(1) == Fraction(1, 2)

    @pytest.mark.parametrize("w, m", [
        (WeightSpec.harmonic(), 0), (WeightSpec.harmonic(), 1), (WeightSpec.harmonic(), 12),
    ], ids=["harmonic-0", "harmonic-1", "harmonic-12"])
    def test_scaled_is_scaled_ints_of_the_weights(self, w, m):
        assert w.scaled(m) == core.scaled_ints([w.weight(i) for i in range(m)])

    def test_harmonic_scaled_from_prime_powers(self):
        # lcm(1..m) as a product of prime powers and the weights by halving,
        # against the direct lcm and divisions: m = 0-2, primes and prime
        # powers all fall in this range
        w, L = WeightSpec.harmonic(), 1
        for m in range(1201):
            L = math.lcm(L, m) if m else 1
            assert w.scaled(m) == ([L // k for k in range(1, m + 1)], L, m > 0), m


class TestEvalNorm:
    def test_euclidean(self):
        assert eval_norm(SpaceSpec.lp(2), FiniteVector.from_dense([3, 4])) == 5

    def test_tsirelson_pair(self):
        v = FiniteVector.from_dense([1, 1])
        assert eval_norm(SpaceSpec.tsirelson(Fraction(1, 2)), v) == 1

    def test_sup(self):
        v = FiniteVector.from_dense([1, -2, Fraction(3, 2)])
        assert eval_norm(SpaceSpec.c0(), v) == 2

    def test_bad_parameters(self):
        with pytest.raises(ConfigurationError):
            SpaceSpec.tsirelson(2)
        with pytest.raises(ConfigurationError):
            SpaceSpec.lp(Fraction(1, 2))


class TestQuantize:
    # the dyadic grid: position 1 has mesh 1 and position 2 has mesh 1/2

    def test_snaps_to_largest_magnitude_multiple(self):
        # q=2 is the largest |q| with |3/4 - q/2| < 1/2 at position 2
        v = FiniteVector.from_dense([0, Fraction(3, 4)])
        out = quantize_to_grid(v, GridSpec.dyadic(), [Fraction(1, 2), Fraction(1, 2)])
        assert out.coefficient(2) == 1

    def test_zero_stays_zero(self):
        v = FiniteVector.from_dense([0, 1])
        out = quantize_to_grid(v, GridSpec.dyadic(), [Fraction(1, 2), Fraction(1, 2)])
        assert out.coefficient(1) == 0

    def test_on_grid_input_kept(self):
        v = FiniteVector.from_dense([1, Fraction(1, 2)])
        out = quantize_to_grid(v, GridSpec.dyadic(), [Fraction(1, 2), Fraction(1, 4)])
        assert out == v

    def test_infeasible_names_index(self):
        # at position 2 no multiple of 1/2 lies within 1/4 of 1/4
        v = FiniteVector.from_dense([0, Fraction(1, 4)])
        with pytest.raises(QuantizationError) as err:
            quantize_to_grid(v, GridSpec.dyadic(), [1, Fraction(1, 4)])
        assert err.value.index == 2

    def test_tie_breaks_positive(self):
        # at position 1: |0 - q| < 3/2 admits q in {-1, 0, 1}; the +-1 tie
        # goes to the positive side
        v = FiniteVector.from_dense([0, 1])
        out = quantize_to_grid(v, GridSpec.dyadic(), [Fraction(3, 2), Fraction(1, 2)])
        assert out.coefficient(1) == 1

    def test_float_values_match_the_exact_branch(self):
        # Dyadic values are floats without rounding, so float inputs must
        # pick the same multiples as exact ones, ties and refusals included.
        def quantize(kind, values, bounds):
            try:
                return quantize_to_grid(FiniteVector.from_dense([kind(x) for x in values]),
                                        GridSpec.dyadic(), [kind(b) for b in bounds])
            except QuantizationError as err:
                return err.index

        rng = Random(21)
        refused = 0
        for _ in range(60):
            n = rng.randint(1, 8)
            bounds = [Fraction(rng.randint(1, 8), 8) for _ in range(n)]
            values = [Fraction(rng.randint(-40, 40), 16) for _ in range(n)]
            exact, approx = (quantize(kind, values, bounds) for kind in (Fraction, float))
            if isinstance(exact, int):
                refused += 1
                assert approx == exact
            else:
                assert approx.support == exact.support and approx.values == exact.values
                assert all(type(x) is Fraction for x in approx.values)
        assert 0 < refused < 60

    def test_float_past_the_double_range_of_the_mesh(self):
        # From position 1026 on 1/eps passes the double range: the float
        # branch divided 0.75 - 0.5 by the mesh, got inf and raised
        # OverflowError.  The largest q below 1.25 / eps is 5 * 2^1097 - 1.
        out = quantize_to_grid(FiniteVector.from_pairs([(1100, 0.75)]), GridSpec.dyadic(), [0.5] * 1100)
        assert out.coefficient(1100) == Fraction(5, 4) - Fraction(1, 2 ** 1099)

    @pytest.mark.parametrize("x, error", [(float("inf"), OverflowError), (float("nan"), ValueError)],
                             ids=["inf", "nan"])
    def test_non_finite_float_is_refused(self, x, error):
        with pytest.raises(error):
            quantize_to_grid(FiniteVector.from_dense([x]), GridSpec.dyadic(), [0.5])

class TestTextFormats:
    def test_dense_vector(self):
        assert parse_vector("3 4") == FiniteVector.from_dense([3, 4])
        assert parse_vector("1, 1/2") == FiniteVector.from_dense([1, Fraction(1, 2)])

    def test_sparse_vector(self):
        assert parse_vector("2:1 5:1/3") == FiniteVector.from_pairs(
            [(2, 1), (5, Fraction(1, 3))]
        )

    def test_mixed_tokens_rejected(self):
        with pytest.raises(ParseError):
            parse_vector("2:1 7")

    def test_space_descriptors(self):
        assert parse_space("lp:p=2").p == 2
        assert parse_space("lp:p=inf").p == float("inf")
        assert parse_space("c0") == SpaceSpec.c0() == core.C0Space()
        assert SpaceSpec.c0().describe() == "c0" and SpaceSpec.c0() != SpaceSpec.lp(float("inf"))
        sp = parse_space("tsirelson:alpha=1/2")
        assert sp.alpha == Fraction(1, 2)
        sph = parse_space("tsirelson:alpha=1/3,h=affine:2:0")
        assert sph == SpaceSpec.tsirelson(Fraction(1, 3), HFunction.affine(2, 0)) and sph.h(2) == 4
        assert parse_space("orlicz:power=2").orlicz.p == 2
        lz = parse_space("lorentz:w=harmonic,p=1")
        assert lz.weights == WeightSpec.harmonic() and lz.p == 1

    @pytest.mark.parametrize("text, setting, value", [
        ("tsirelson:alpha=1/2", "budget", 3),
        ("orlicz:power=3/2", "tol", 1e-3),
    ])
    def test_settings_are_not_part_of_the_space(self, text, setting, value):
        default, space = parse_space(text), parse_space(text, **{setting: value})
        assert getattr(space, setting) == value != getattr(default, setting)
        assert space == default and hash(space) == hash(default)
        assert space.describe() == default.describe()
        assert parse_space("lp:p=2", tol=1e-3, budget=3) == SpaceSpec.lp(2)

    def test_bad_descriptor(self):
        with pytest.raises(ParseError):
            parse_space("banach:p=2")
        with pytest.raises(ParseError):
            parse_space("lp:q=2")


def reference_parse_vector(text: str, exact: bool = True) -> FiniteVector:
    """The parse_vector that read every token, kept as a reference."""
    tokens = [t for t in text.replace(",", " ").split() if t]
    if not tokens:
        return FiniteVector.zero()
    if any(":" in t for t in tokens):
        pairs = []
        for t in tokens:
            if ":" not in t:
                raise ParseError(f"mixed sparse/dense vector token {t!r}")
            pos_text, val_text = t.split(":", 1)
            try:
                pos = int(pos_text)
            except ValueError:
                raise ParseError(f"bad position {pos_text!r}") from None
            if pos < 1:
                raise ParseError(f"sparse positions are 1-based, got {pos}")
            pairs.append((pos, parse_scalar(val_text, exact=exact)))
        return FiniteVector.from_pairs(pairs)
    return FiniteVector.from_dense([parse_scalar(t, exact=exact) for t in tokens])


# Zero in every spelling, ints, decimals, exponents and fractions, values
# beyond the float range, and tokens one mode or both refuse.
GOOD_TOKENS = ["0", "-0", "0/3", "0.0", "-0.0", "00", "7", "-12", "007", "1_0", "0.5", "-1.25",
               "1e3", "2.5E-3", "1e400", "1/2", "-3/4", "4/2", "-6/3", "3/6", "inf", "٣"]
BAD_TOKENS = ["x", "nan", "1/0", "--5", "2/x", "1e100000", "-", "1.2.3", "2/3/4", "²"]
SEPARATORS = [" ", ",", ", ", "\n", "\t", " ,"]


@st.composite
def vector_texts(draw):
    """A dense or sparse vector text whose tokens repeat, now and then with
    a bad token, a bad position or a dense token among sparse ones."""
    pool = draw(st.lists(st.sampled_from(GOOD_TOKENS), min_size=1, max_size=6))
    if draw(st.integers(0, 3)) == 0:
        pool.append(draw(st.sampled_from(BAD_TOKENS)))
    tokens = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16))
    if draw(st.booleans()):
        tokens = [f"{draw(st.integers(1, 6))}:{v}" for v in tokens]
        # values that cancel at one position
        for p, _, v in [t.partition(":") for t in tokens[:draw(st.integers(0, 3))]]:
            tokens.append(f"{p}:{v[1:] if v[:1] == '-' else '-' + v}")
        if draw(st.integers(0, 3)) == 0:
            odd = draw(st.sampled_from(["0:1", "-1:1", "x:1", ":1", "+2:1", "3:", "1/2"] + pool))
            tokens.insert(draw(st.integers(0, len(tokens))), odd)
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(tokens), max_size=len(tokens)))
    return "".join(sep + t for sep, t in zip(seps, tokens))


def parse_outcome(parse, text, exact):
    try:
        v = parse(text, exact)
    except (ParseError, BudgetError) as exc:
        return type(exc).__name__, str(exc)
    return list(map(typed, v.support)), list(map(typed, v.values)), list(map(typed, v.coeffs))


def reference_outcome(text, exact):
    """The reference's outcome, except that inf and -inf at one position,
    which it added to a nan coefficient, are now refused."""
    try:
        v = reference_parse_vector(text, exact)
    except (ParseError, BudgetError):
        pass
    else:
        nan_at = [n for n, x in zip(v.support, v.values) if x != x]
        if nan_at:
            return "ParseError", f"values at position {nan_at[0]} add to nan"
    return parse_outcome(reference_parse_vector, text, exact)


class TestParseReference:
    """parse_vector agrees with the reference that read every token."""

    @settings(max_examples=1500, deadline=None)
    @given(vector_texts(), st.booleans())
    def test_matches_reference(self, text, exact):
        assert parse_outcome(parse_vector, text, exact) == reference_outcome(text, exact)

    @pytest.mark.parametrize("text", [
        "1/2 0 1/2 -0.0 3 1/2 7/4 0/3 3 2.5 2.5", "1:1/2 3:0.5 1:1/2 3:-1/2 2:1/2 9:1/3",
    ])
    @pytest.mark.parametrize("exact", [True, False])
    def test_one_parse_scalar_call_per_distinct_token(self, monkeypatch, text, exact):
        calls = []

        def counted(token, exact=True):
            calls.append(token)
            return parse_scalar(token, exact)

        monkeypatch.setattr(core, "parse_scalar", counted)
        assert parse_vector(text, exact) == reference_parse_vector(text, exact)
        values = [t.rpartition(":")[2] for t in text.split()]
        not_plain = [t for t in values if not t.lstrip("-").isdigit()]
        assert calls == list(dict.fromkeys(not_plain))

    def test_plain_integers_skip_parse_scalar(self, monkeypatch):
        monkeypatch.setattr(core, "parse_scalar", None)
        assert parse_vector("3 -4 0 3 -0 007") == FiniteVector.from_pairs([(1, 3), (2, -4), (4, 3), (6, 7)])
        assert parse_vector("2.5 0.0 -1e3", exact=False).values == (2.5, -1000.0)

    @pytest.mark.parametrize("text", ["", " ", " , \n", "0 -0.0 0/3"])
    def test_no_nonzero_token(self, text):
        assert parse_vector(text) == parse_vector(text, exact=False) == FiniteVector.zero()

    @pytest.mark.parametrize("text", ["1:inf 1:-inf 2:1", "2:1 1:1e400 3:1/2 1:-1e999"])
    def test_float_values_adding_to_nan_refused(self, text):
        # each token is a float, but their sum at position 1 was a nan coefficient
        with pytest.raises(ParseError, match="values at position 1 add to nan"):
            parse_vector(text, exact=False)
        assert parse_vector("1:inf 1:inf", exact=False).values == (float("inf"),)

    def test_first_bad_token_in_text_order(self):
        with pytest.raises(ParseError, match="'x'"):
            parse_vector("1/2 x 1/0 1/2 x")
        with pytest.raises(BudgetError):
            parse_vector("1e100000 1/0")
        with pytest.raises(ParseError, match="bad scalar 'y'"):
            parse_vector("1:1/2 2:y 0:1 3:x")
        with pytest.raises(ParseError, match="1-based"):
            parse_vector("1:1/2 0:y 2:x")
        with pytest.raises(ParseError, match="mixed"):
            parse_vector("1:1/2 7 2:x")


V11 = FiniteVector.from_dense([1, 1])


@pytest.mark.parametrize("call, error, argv, files", [
    pytest.param(lambda tmp: FiniteVector.from_pairs([(0, 1)]), ConfigurationError, None, None,
                 id="from-pairs-position-below-1"),
    pytest.param(lambda tmp: HFunction.affine(0, 1), ConfigurationError,
                 ["norm", "tsirelson:alpha=1/2,h=affine:0:1", "{tmp}/v.txt"], {"v.txt": "1"},
                 id="affine-h-not-increasing"),
    pytest.param(lambda tmp: HFunction.identity()(0), ConfigurationError, None, None, id="h-of-k-below-1"),
    pytest.param(lambda tmp: WeightSpec.harmonic().weight(-1), ConfigurationError, None, None,
                 id="weight-index-below-0"),
    pytest.param(lambda tmp: quantize_to_grid(V11, GridSpec.dyadic(), [1]), ConfigurationError, None, None,
                 id="quantization-bound-missing"),
    pytest.param(lambda tmp: quantize_to_grid(V11, GridSpec.dyadic(), [1, 0]), ConfigurationError, None, None,
                 id="quantization-bound-not-positive"),
    pytest.param(lambda tmp: core.C0Space(p=2), TypeError,
                 ["norm", "c0:p=2", "{tmp}/v.txt"], {"v.txt": "1"}, id="c0-takes-no-p"),
    pytest.param(lambda tmp: parse_vector("x:1"), ParseError,
                 ["norm", "lp:p=2", "{tmp}/v.txt"], {"v.txt": "x:1"}, id="sparse-position-not-an-int"),
    pytest.param(lambda tmp: parse_vector("0:1"), ParseError,
                 ["norm", "lp:p=2", "{tmp}/v.txt"], {"v.txt": "0:1"}, id="sparse-position-below-1"),
    # the DP read nan and the oracle skipped it: a false DISAGREE, exit 4
    pytest.param(lambda tmp: parse_vector("1 nan 2", exact=False), ParseError,
                 ["oracle", "1/2", "{tmp}/v.txt", "--float"], {"v.txt": "1 nan 2"},
                 id="float-nan-coefficient"),
    pytest.param(lambda tmp: parse_space("lp:p=nan", exact=False), ParseError,
                 ["norm", "lp:p=nan", "{tmp}/v.txt", "--float"], {"v.txt": "1"}, id="float-nan-exponent"),
    pytest.param(lambda tmp: parse_space("lp:p"), ParseError,
                 ["norm", "lp:p", "{tmp}/v.txt"], {"v.txt": "1"}, id="key-without-value"),
    pytest.param(lambda tmp: parse_space("tsirelson:alpha=1/2,h=affine:x"), ParseError,
                 ["norm", "tsirelson:alpha=1/2,h=affine:x", "{tmp}/v.txt"], {"v.txt": "1"},
                 id="bad-affine-h"),
])
def test_validation_branches(refused, call, error, argv, files):
    refused(call, error, argv, files)
