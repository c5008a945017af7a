from fractions import Fraction
from random import Random

import pytest

from seqnorms.core import ConfigurationError, FiniteVector, SpaceSpec, eval_norm
from seqnorms.blocks import (
    BlockBasisSpec,
    _normalized_spec,
    cjt_ratio_check,
    expand_coefficients,
    lsh_probe,
    random_block_spec,
    random_picks,
)

HALF = Fraction(1, 2)


def simple_spec():
    # u1 = x1 + x2, u2 = x3
    return BlockBasisSpec((0, 2, 3), (1, 1, 1))


class TestBlockBasisSpec:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            BlockBasisSpec((2, 1), (1,))
        with pytest.raises(ConfigurationError):
            BlockBasisSpec((0, 2), (1,))  # coefficient count mismatch
        with pytest.raises(ConfigurationError):
            BlockBasisSpec((0, 1, 2), (1, 0))  # zero block

    def test_block_vectors_l1_normalized(self):
        spec = _normalized_spec(simple_spec(), SpaceSpec.lp(1))
        assert spec.block_vector(1) == FiniteVector.from_dense([HALF, HALF])
        assert spec.block_vector(2) == FiniteVector.from_pairs([(3, 1)])

    def test_block_vectors_c0_normalized(self):
        spec = _normalized_spec(simple_spec(), SpaceSpec.c0())
        assert spec.block_vector(1) == FiniteVector.from_dense([1, 1])

    def test_block_vectors_tsirelson_normalized(self):
        # ||x1 + x2|| = 1 so normalization leaves the block unchanged
        spec = _normalized_spec(simple_spec(), SpaceSpec.tsirelson(HALF))
        assert spec.block_vector(1) == FiniteVector.from_dense([1, 1])

    def test_block_whose_float_norm_overflows_is_refused(self):
        # The l1 norm of block 1 reads inf, so it rescales to 0.0, 0.0.
        spec = BlockBasisSpec((0, 2, 3), (1e308, 1e308, 1.0))
        with pytest.raises(ConfigurationError, match="block 1 is zero"):
            _normalized_spec(spec, SpaceSpec.lp(1))
        assert _normalized_spec(spec, SpaceSpec.c0()).coefficients == (1.0, 1.0, 1.0)


class TestExpansion:
    def test_substitution(self):
        c = FiniteVector.from_dense([Fraction(2), Fraction(3)])
        assert expand_coefficients(c, simple_spec()) == FiniteVector.from_dense([2, 2, 3])

    def test_zero(self):
        assert expand_coefficients(FiniteVector.zero(), simple_spec()).is_zero

    def test_signed_coefficients(self):
        spec = BlockBasisSpec((0, 1, 3), (1, -2, 3))
        c = FiniteVector.from_dense([2, 1])
        assert expand_coefficients(c, spec) == FiniteVector.from_dense([2, -2, 3])

    def test_linearity(self):
        spec = BlockBasisSpec((1, 3, 6), (1, -1, 2, 0, 1))
        c1 = FiniteVector.from_dense([1, 2])
        c2 = FiniteVector.from_dense([-3, 1])
        assert expand_coefficients(c1 + c2, spec) == (
            expand_coefficients(c1, spec) + expand_coefficients(c2, spec)
        )
        assert expand_coefficients(c1.scale(5), spec) == expand_coefficients(c1, spec).scale(5)

    def test_support_beyond_blocks_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_coefficients(FiniteVector.from_pairs([(3, 1)]), simple_spec())

    def test_norm_transport(self):
        rng = Random(17)
        space = SpaceSpec.lp(2)
        for _ in range(20):
            spec = random_block_spec(rng)
            c = FiniteVector.from_pairs(
                (j, Fraction(rng.randint(-3, 3)))
                for j in range(1, spec.block_count + 1)
            )
            direct = FiniteVector.zero()
            for j in range(1, spec.block_count + 1):
                direct = direct + spec.block_vector(j).scale(c.coefficient(j))
            assert expand_coefficients(c, spec) == direct


class TestCjtRatio:
    def test_identity_blocks(self):
        # blocks that are unit vectors themselves give ratio 1
        spec = BlockBasisSpec((3, 4, 5), (1, 1))
        b = FiniteVector.from_dense([1, 1])
        check = cjt_ratio_check(spec, b, picks=[4, 5])
        assert check.ratio == 1 and check.passed

    def test_single_block(self):
        spec = BlockBasisSpec((1, 4), (1, 1, 1))
        check = cjt_ratio_check(spec, FiniteVector.unit(1), picks=[3])
        assert check.ratio == 1 and check.passed

    def test_zero_b_rejected(self):
        spec = simple_spec()
        with pytest.raises(ConfigurationError):
            cjt_ratio_check(spec, FiniteVector.zero(), picks=[1, 3])

    def test_picks_outside_block_rejected(self):
        with pytest.raises(ConfigurationError):
            cjt_ratio_check(simple_spec(), FiniteVector.unit(1), picks=[3, 3])

    def test_random_samples_stay_in_envelope(self):
        rng = Random(23)
        for _ in range(60):
            spec = random_block_spec(rng)
            picks = random_picks(rng, spec)
            b = FiniteVector.from_pairs(
                (j, Fraction(rng.randint(1, 4), rng.randint(1, 2)))
                for j in range(1, spec.block_count + 1)
            )
            check = cjt_ratio_check(spec, b, picks)
            assert check.passed, (spec, b, picks, check.ratio)


class TestLshProbe:
    def test_l1_is_homogeneous(self):
        spec = BlockBasisSpec((0, 2, 5), (1, 1, 2, -1, 1))
        samples = [
            FiniteVector.from_dense([1, 1]),
            FiniteVector.from_dense([Fraction(1, 2), -2]),
        ]
        report = lsh_probe(SpaceSpec.lp(1), spec, samples, bound=1)
        assert all(r == 1 for r in report.ratios)
        assert report.passed

    def test_c0_disjoint_blocks(self):
        spec = BlockBasisSpec((0, 1, 2), (1, -1))
        samples = [FiniteVector.from_dense([2, 1])]
        report = lsh_probe(SpaceSpec.c0(), spec, samples)
        assert report.ratios == (1,)

    def test_zero_sample_skipped(self):
        report = lsh_probe(
            SpaceSpec.lp(1), simple_spec(), [FiniteVector.zero()], bound=1
        )
        assert report.skipped == 1 and report.worst is None

    def test_lp_blocks_never_beat_basis_by_much(self):
        rng = Random(29)
        for p in (1, 2, 3):
            space = SpaceSpec.lp(p)
            spec = random_block_spec(rng)
            samples = [
                FiniteVector.from_pairs(
                    (j, Fraction(rng.randint(-2, 2)))
                    for j in range(1, spec.block_count + 1)
                )
                for _ in range(10)
            ]
            report = lsh_probe(space, spec, samples)
            for r in report.ratios:
                assert float(r) <= 1 + 1e-9


@pytest.mark.parametrize("call", [
    pytest.param(lambda tmp: BlockBasisSpec((0,), ()), id="fewer-than-two-breakpoints"),
    pytest.param(lambda tmp: cjt_ratio_check(simple_spec(), FiniteVector.from_dense([1, 1]), [1]),
                 id="wrong-pick-count"),
])
def test_validation_branches(refused, call):
    refused(call, ConfigurationError)
