"""Block bases: expansion maps, the T equivalence-constant envelope, and
lower semi-homogeneity probes."""
from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import List, Optional, Sequence, Tuple

from .core import (
    ConfigurationError,
    FiniteVector,
    Frozen,
    Number,
    SpaceSpec,
    eval_norm,
)

CJT_LOWER = Fraction(1, 3)
CJT_UPPER = 18
# random_block_spec's coefficients: no zero, so no random block is zero
COEFF_GRID = (Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(1, 2), Fraction(1), Fraction(2))


class BlockBasisSpec(Frozen):
    """Breakpoints p_1 < ... < p_{J+1} and coefficients on (p_1, p_last].

    Block j is u_j = sum of a_n x_n over p_j < n <= p_{j+1}; every block
    must be nonzero.  ``coefficients[i]`` is a_n for n = p_1 + 1 + i.
    """

    breakpoints: Tuple[int, ...]
    coefficients: Tuple[Number, ...]

    def __post_init__(self):
        bp = self.breakpoints
        if len(bp) < 2:
            raise ConfigurationError("need at least two breakpoints")
        if any(b < 0 for b in bp) or any(b >= c for b, c in zip(bp, bp[1:])):
            raise ConfigurationError("breakpoints must be strictly increasing naturals")
        expected = bp[-1] - bp[0]
        if len(self.coefficients) != expected:
            raise ConfigurationError(
                f"expected {expected} coefficients on ({bp[0]}, {bp[-1]}], got {len(self.coefficients)}"
            )
        for j in range(1, self.block_count + 1):
            if not any(self._block_slice(j)):
                raise ConfigurationError(f"block {j} is zero")

    @property
    def block_count(self) -> int:
        return len(self.breakpoints) - 1

    def _block_slice(self, j: int) -> Tuple[Number, ...]:
        lo, hi = self.breakpoints[j - 1], self.breakpoints[j]
        base = self.breakpoints[0]
        return self.coefficients[lo - base : hi - base]

    def block_vector(self, j: int) -> FiniteVector:
        lo = self.breakpoints[j - 1]
        return FiniteVector.from_pairs(enumerate(self._block_slice(j), start=lo + 1))


def expand_coefficients(c: FiniteVector, spec: BlockBasisSpec) -> FiniteVector:
    """The expansion map: position n inside block j receives c_j * a_n.

    By construction the expanded vector is sum_j c_j u_j, so its norm in any
    space equals the norm of that block combination.
    """
    J = spec.block_count
    if c.support and c.support[-1] > J:
        raise ConfigurationError(f"coefficients must be supported on 1..{J}")
    pairs = []
    for j, cj in zip(c.support, c.values):
        lo = spec.breakpoints[j - 1]
        pairs.extend((n, cj * a) for n, a in enumerate(spec._block_slice(j), start=lo + 1))
    return FiniteVector.from_pairs(pairs)


def _normalized_spec(spec: BlockBasisSpec, space: SpaceSpec) -> BlockBasisSpec:
    """Rescale each block to norm one."""
    coeffs: List[Number] = []
    for j in range(1, spec.block_count + 1):
        nrm = eval_norm(space, spec.block_vector(j))
        if isinstance(nrm, (Fraction, int)):
            coeffs += [Fraction(a) / nrm for a in spec._block_slice(j)]
        else:
            coeffs += [a / nrm for a in spec._block_slice(j)]
    return BlockBasisSpec(spec.breakpoints, tuple(coeffs))


class CjtCheck(Frozen):
    ratio: Number

    @property
    def passed(self) -> bool:
        return CJT_LOWER <= self.ratio <= CJT_UPPER


def cjt_ratio_check(
    spec: BlockBasisSpec,
    b: FiniteVector,
    picks: Sequence[int],
    alpha: Number = Fraction(1, 2),
) -> CjtCheck:
    """Ratio of ||sum b_j y_j|| to ||sum b_j t_{k_j}|| in Tsirelson(alpha).

    The blocks are normalized here rather than trusted; the picks k_j must
    satisfy p_j < k_j <= p_{j+1}.  Pass iff the ratio lies in [1/3, 18].
    """
    if b.is_zero:
        raise ConfigurationError("undefined ratio: b = 0")
    J = spec.block_count
    if len(picks) != J:
        raise ConfigurationError(f"need one pick per block ({J})")
    for j, k in enumerate(picks, start=1):
        if not (spec.breakpoints[j - 1] < k <= spec.breakpoints[j]):
            raise ConfigurationError(f"pick {k} outside block {j}")
    space = SpaceSpec.tsirelson(alpha)
    normalized = _normalized_spec(spec, space)
    numerator = eval_norm(space, expand_coefficients(b, normalized))
    comparison = FiniteVector.from_pairs((picks[j - 1], a) for j, a in zip(b.support, b.values))
    denominator = eval_norm(space, comparison)
    if denominator == 0:
        raise ConfigurationError("undefined ratio: comparison vector has norm 0")
    ratio = numerator / denominator
    if isinstance(ratio, Fraction) and ratio.denominator == 1:
        ratio = int(ratio)
    return CjtCheck(ratio)


class LshReport(Frozen):
    """Lower semi-homogeneity probe: worst ratio over the samples of
    ||sum b_j x_j|| to ||sum b_j u_j|| for normalized blocks u_j."""

    ratios: Tuple[Number, ...]
    worst: Optional[Number]
    passed: Optional[bool]
    skipped: int = 0


def lsh_probe(
    space: SpaceSpec,
    spec: BlockBasisSpec,
    samples: Sequence[FiniteVector],
    bound: Optional[Number] = None,
) -> LshReport:
    space.check_budget(spec.breakpoints[-1] - spec.breakpoints[0])
    normalized = _normalized_spec(spec, space)
    ratios: List[Number] = []
    skipped = 0
    for b in samples:
        if b.is_zero:
            skipped += 1
            continue
        blocked = eval_norm(space, expand_coefficients(b, normalized))
        ratios.append(eval_norm(space, b) / blocked)
    worst = max(ratios, default=None)
    passed = None if bound is None or worst is None else worst <= bound
    return LshReport(ratios=tuple(ratios), worst=worst, passed=passed, skipped=skipped)


def random_block_spec(rng: Random) -> BlockBasisSpec:
    """Seeded random block basis: 1 to 6 consecutive intervals of 1 to 4
    positions with geometric-ish lengths, starting after 0, 1 or 2, and
    coefficients from COEFF_GRID."""
    blocks = rng.randint(1, 6)
    breakpoints = [rng.randint(0, 2)]
    for _ in range(blocks):
        length = 1
        while length < 4 and rng.random() < 0.4:
            length += 1
        breakpoints.append(breakpoints[-1] + length)
    coeffs = [rng.choice(COEFF_GRID) for _ in range(breakpoints[-1] - breakpoints[0])]
    return BlockBasisSpec(tuple(breakpoints), tuple(coeffs))


def random_picks(rng: Random, spec: BlockBasisSpec) -> List[int]:
    return [
        rng.randint(spec.breakpoints[j - 1] + 1, spec.breakpoints[j])
        for j in range(1, spec.block_count + 1)
    ]
