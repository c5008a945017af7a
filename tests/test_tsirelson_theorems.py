"""Theorem-backed checks of the exact Tsirelson DP beyond the oracle's reach.

The brute-force oracle stops at support 8.  These checks run seeded exact
cases at support 32-48, and the triangle inequality and 1-unconditionality
also at support 64, against inequalities that every correct engine
satisfies at any size (Figiel-Johnson; Casazza-Shura, ch. I):

* restriction: ||P_E x|| <= ||x|| for every subset E of the support;
* spreading: moving the support to larger positions, in order, never lowers
  the norm, since admissibility only gets easier;
* 1-unconditionality: flipping signs keeps the norm, and multipliers of
  modulus at most 1 never raise it;
* the lower l1 estimate: alpha * sum ||x_i|| <= ||sum x_i|| for blocks
  x_1 < ... < x_k with k <= min supp x_1;
* the triangle inequality.

The first three hold for every h: each level is monotone in the moduli of
the coefficients and in the positions, whatever family sizes h admits.  The
lower l1 estimate needs the plain sizes (k sets for k).  The triangle
inequality is checked for plain h only: an h with gaps in its range, such as
``affine:2:0``, demands exactly h(k) sets, and the DP and the oracle then
compute a function that is not a norm (e3 + e4 + e5 + e6 at alpha = 2/3).

Each check also runs in float mode on float copies of other seeded cases.
The float fill rounds its sums, so an inequality there holds within the
default ``--tol``, relative to the larger side; flipping signs changes no
|a_n| the fill reads, so it keeps the value bit for bit.
"""
import math
from fractions import Fraction
from random import Random

import pytest

from seqnorms import FiniteVector, HFunction
from seqnorms.core import OrliczSpace
from seqnorms.tsirelson import fixed_point_norm

ALPHAS = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 4), Fraction(2, 3), Fraction(3, 5))
COEFFS = tuple(Fraction(p, q) for p in (-3, -2, -1, 1, 2, 3) for q in (1, 2, 3, 5))
EVERY_H = {
    "plain": None,
    "affine:2:0": HFunction.affine(2, 0),
    "table:2:2;3:4;9:10": HFunction.from_table([(2, 2), (3, 4), (9, 10)]),
}
CASES = 8
CASES_64 = 4


def random_vector(rng, first=1, sizes=(32, 48)):
    """s in ``sizes`` (by default 32..48) nonzero entries on positions from
    ``first``, dense enough near the start that the admissibility bound
    k <= min E_1 binds."""
    s = rng.randint(*sizes)
    positions = sorted(rng.sample(range(first, first + s + s // 2), s))
    return FiniteVector.from_pairs((n, rng.choice(COEFFS)) for n in positions)


def cases(seed):
    rng = Random(seed)
    return [(rng, rng.choice(ALPHAS), random_vector(rng)) for _ in range(CASES)]


TOL = OrliczSpace.tol  # the default --tol


def floats(v):
    return FiniteVector.from_pairs((n, float(a)) for n, a in zip(v.support, v.values))


def at_most(a, b):
    """a <= b within --tol: float sums may round either way."""
    return a <= b or math.isclose(a, b, rel_tol=TOL)


def float_cases(seed):
    return [(rng, float(alpha), floats(v)) for rng, alpha, v in cases(seed)]


def cases_64(seed, exact):
    """Plain-h cases at support exactly 64, with the comparison for the mode:
    exact values compare as they are, float ones within --tol."""
    rng = Random(seed)
    out = []
    for _ in range(CASES_64):
        alpha, v = rng.choice(ALPHAS), random_vector(rng, sizes=(64, 64))
        out.append((rng, alpha, v) if exact else (rng, float(alpha), floats(v)))
    return out, (lambda a, b: a <= b) if exact else at_most


def scaled_part(rng, v):
    """About 70% of v's entries, each times a random coefficient."""
    return FiniteVector.from_pairs(
        (n, a * rng.choice(COEFFS)) for n, a in zip(v.support, v.values) if rng.random() < 0.7
    )


@pytest.mark.parametrize("h", EVERY_H.values(), ids=EVERY_H)
def test_restriction_never_raises_the_norm(h):
    for rng, alpha, v in cases(1):
        kept = [n for n in v.support if rng.random() < 0.6]
        value = fixed_point_norm(alpha, v, h)
        assert fixed_point_norm(alpha, v.restrict(kept), h) <= value, (alpha, v, kept)


@pytest.mark.parametrize("h", EVERY_H.values(), ids=EVERY_H)
def test_spreading_never_lowers_the_norm(h):
    for rng, alpha, v in cases(2):
        shift, spread = 0, []
        for n, a in zip(v.support, v.values):
            shift += rng.choice((0, 0, 1, 2))
            spread.append((n + shift, a))
        w = FiniteVector.from_pairs(spread)
        assert fixed_point_norm(alpha, w, h) >= fixed_point_norm(alpha, v, h), (alpha, v, w)


@pytest.mark.parametrize("h", EVERY_H.values(), ids=EVERY_H)
def test_one_unconditional(h):
    for rng, alpha, v in cases(3):
        value = fixed_point_norm(alpha, v, h)
        signs = [rng.choice((-1, 1)) for _ in range(v.support[-1])]
        assert fixed_point_norm(alpha, v.flip_signs(signs), h) == value, (alpha, v, signs)
        shrunk = FiniteVector.from_pairs(
            (n, a * rng.choice((-1, Fraction(-1, 2), Fraction(1, 3), 1)))
            for n, a in zip(v.support, v.values)
        )
        assert fixed_point_norm(alpha, shrunk, h) <= value, (alpha, v, shrunk)


def test_lower_l1_estimate_for_admissible_blocks():
    rng = Random(4)
    for _ in range(CASES):
        alpha = rng.choice(ALPHAS)
        first = rng.randint(2, 8)
        v = random_vector(rng, first)
        k = rng.randint(2, first)  # k <= min supp x_1
        cuts = [0] + sorted(rng.sample(range(1, len(v.support)), k - 1)) + [len(v.support)]
        blocks = [v.restrict(v.support[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        total = sum(fixed_point_norm(alpha, x) for x in blocks)
        assert fixed_point_norm(alpha, v) >= alpha * total, (alpha, v, cuts)


def test_triangle_inequality_for_plain_h():
    rng = Random(5)
    for _ in range(CASES):
        alpha = rng.choice(ALPHAS)
        positions = random_vector(rng).support  # x + y lives on 32..48 positions
        x, y = (FiniteVector.from_pairs((n, rng.choice(COEFFS)) for n in positions if rng.random() < 0.7)
                for _ in range(2))
        bound = fixed_point_norm(alpha, x) + fixed_point_norm(alpha, y)
        assert fixed_point_norm(alpha, x + y) <= bound, (alpha, x, y)


@pytest.mark.parametrize("h", EVERY_H.values(), ids=EVERY_H)
def test_float_restriction_never_raises_the_norm(h):
    for rng, alpha, v in float_cases(11):
        kept = [n for n in v.support if rng.random() < 0.6]
        value = fixed_point_norm(alpha, v, h)
        assert at_most(fixed_point_norm(alpha, v.restrict(kept), h), value), (alpha, v, kept)


@pytest.mark.parametrize("h", EVERY_H.values(), ids=EVERY_H)
def test_float_spreading_never_lowers_the_norm(h):
    for rng, alpha, v in float_cases(12):
        shift, spread = 0, []
        for n, a in zip(v.support, v.values):
            shift += rng.choice((0, 0, 1, 2))
            spread.append((n + shift, a))
        w = FiniteVector.from_pairs(spread)
        assert at_most(fixed_point_norm(alpha, v, h), fixed_point_norm(alpha, w, h)), (alpha, v, w)


@pytest.mark.parametrize("h", EVERY_H.values(), ids=EVERY_H)
def test_float_one_unconditional(h):
    for rng, alpha, v in float_cases(13):
        value = fixed_point_norm(alpha, v, h)
        signs = [rng.choice((-1, 1)) for _ in range(v.support[-1])]
        assert fixed_point_norm(alpha, v.flip_signs(signs), h) == value, (alpha, v, signs)
        shrunk = FiniteVector.from_pairs(
            (n, a * rng.choice((-1, -0.5, 1 / 3, 1))) for n, a in zip(v.support, v.values)
        )
        assert at_most(fixed_point_norm(alpha, shrunk, h), value), (alpha, v, shrunk)


def test_float_lower_l1_estimate_for_admissible_blocks():
    rng = Random(14)
    for _ in range(CASES):
        alpha = float(rng.choice(ALPHAS))
        first = rng.randint(2, 8)
        v = floats(random_vector(rng, first))
        k = rng.randint(2, first)  # k <= min supp x_1
        cuts = [0] + sorted(rng.sample(range(1, len(v.support)), k - 1)) + [len(v.support)]
        blocks = [v.restrict(v.support[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]
        total = sum(fixed_point_norm(alpha, x) for x in blocks)
        assert at_most(alpha * total, fixed_point_norm(alpha, v)), (alpha, v, cuts)


def test_float_triangle_inequality_for_plain_h():
    rng = Random(15)
    for _ in range(CASES):
        alpha = float(rng.choice(ALPHAS))
        positions = random_vector(rng).support
        x, y = (FiniteVector.from_pairs((n, float(rng.choice(COEFFS))) for n in positions if rng.random() < 0.7)
                for _ in range(2))
        bound = fixed_point_norm(alpha, x) + fixed_point_norm(alpha, y)
        assert at_most(fixed_point_norm(alpha, x + y), bound), (alpha, x, y)


@pytest.mark.parametrize("exact", (True, False), ids=("exact", "float"))
def test_triangle_inequality_at_support_64(exact):
    cases, leq = cases_64(21 if exact else 22, exact)
    for rng, alpha, v in cases:
        x, y = scaled_part(rng, v), scaled_part(rng, v)
        bound = fixed_point_norm(alpha, x) + fixed_point_norm(alpha, y)
        assert leq(fixed_point_norm(alpha, x + y), bound), (alpha, x, y)


@pytest.mark.parametrize("exact", (True, False), ids=("exact", "float"))
def test_one_unconditional_at_support_64(exact):
    cases, leq = cases_64(23 if exact else 24, exact)
    for rng, alpha, v in cases:
        value = fixed_point_norm(alpha, v)
        signs = [rng.choice((-1, 1)) for _ in range(v.support[-1])]
        assert fixed_point_norm(alpha, v.flip_signs(signs)) == value, (alpha, v, signs)
        shrunk = FiniteVector.from_pairs(
            (n, a * rng.choice((-1, Fraction(-1, 2), Fraction(1, 3), 1)))
            for n, a in zip(v.support, v.values)
        )
        assert leq(fixed_point_norm(alpha, shrunk), value), (alpha, v, shrunk)
