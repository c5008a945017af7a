"""Partial-sum and tail-norm diagnostics for sum a_n x_n.

Finite truncation cannot decide convergence, so verdicts are three-valued
trends and explicitly heuristic; divergence in Tsirelson space is
additionally backed by exact certificates.  A tail profile is a tuple of
(m, N, value) triples, and the harmonic witness comes with its
certificate's root node.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

from .core import (
    ConfigurationError,
    FiniteVector,
    Frozen,
    Number,
    SpaceSpec,
    is_exact,
    parse_scalar,
)

if TYPE_CHECKING:
    from .tsirelson import CertificateNode

DEFAULT_SHRINK_THRESHOLD = 0.01
LATE_CUTS = 3

CONVERGING = "converging-trend"
DIVERGING = "diverging-trend"
INCONCLUSIVE = "inconclusive"


# ---------------------------------------------------------------------------
# Coefficient generators


class CoefficientGenerator(Frozen):
    """Deterministic coefficient sequences; exact rationals for rational forms.

    harmonic: a_n = 1/(n+1).  power(s): a_n = n^-s.  constant(c).  table.
    """

    kind: str
    s: Optional[Number] = None
    c: Optional[Number] = None
    table: Tuple[Number, ...] = ()

    def __post_init__(self):
        if self.kind not in ("harmonic", "power", "constant", "table"):
            raise ConfigurationError(f"unknown generator {self.kind!r}")
        if self.kind == "power" and self.s is None:
            raise ConfigurationError("power generator needs an exponent")
        if self.kind == "constant" and self.c is None:
            raise ConfigurationError("constant generator needs a value")

    @staticmethod
    def harmonic() -> "CoefficientGenerator":
        return CoefficientGenerator("harmonic")

    @staticmethod
    def power(s: Number) -> "CoefficientGenerator":
        return CoefficientGenerator("power", s=s)

    @staticmethod
    def constant(c: Number) -> "CoefficientGenerator":
        return CoefficientGenerator("constant", c=c)

    @staticmethod
    def from_table(values: Sequence[Number]) -> "CoefficientGenerator":
        return CoefficientGenerator("table", table=tuple(values))

    def value(self, n: int) -> Number:
        if n < 1:
            raise ConfigurationError("positions are 1-based")
        if self.kind == "harmonic":
            return Fraction(1, n + 1)
        if self.kind == "power":
            if is_exact(self.s) and Fraction(self.s).denominator == 1:
                return Fraction(n) ** -int(self.s)
            try:
                return float(n) ** -float(self.s)
            except OverflowError:  # past the float range: inf, as core.to_float reads it
                return math.inf
        if self.kind == "constant":
            return self.c
        return self.table[n - 1] if n <= len(self.table) else 0

    def vector(self, lo: int, hi: int) -> FiniteVector:
        """Coefficients on positions [lo, hi]."""
        return FiniteVector.from_pairs((n, self.value(n)) for n in range(lo, hi + 1))

    def describe(self) -> str:
        if self.kind == "harmonic":
            return "harmonic"
        if self.kind == "power":
            return f"power:s={self.s}"
        if self.kind == "constant":
            return f"constant:c={self.c}"
        return f"table[{len(self.table)}]"


def parse_generator(descriptor: str, exact: bool = True) -> CoefficientGenerator:
    descriptor = descriptor.strip()
    if descriptor == "harmonic":
        return CoefficientGenerator.harmonic()
    if descriptor.startswith("power:s="):
        return CoefficientGenerator.power(parse_scalar(descriptor[len("power:s="):], exact=exact))
    if descriptor.startswith("constant:c="):
        return CoefficientGenerator.constant(parse_scalar(descriptor[len("constant:c="):], exact=exact))
    if descriptor.startswith("table:"):
        values = [parse_scalar(t, exact=exact) for t in descriptor[len("table:"):].split(";")]
        return CoefficientGenerator.from_table(values)
    raise ConfigurationError(f"unknown generator descriptor {descriptor!r}")


# ---------------------------------------------------------------------------
# Partial sums and tail profiles


def partial_sum_norms(
    space: SpaceSpec,
    gen: CoefficientGenerator,
    N: int,
) -> List[Number]:
    """Prefix norms ||sum_{n<=K} a_n x_n|| for K = 1..N: :func:`tail_profile`
    on the windows (1, K + 1), so the budget counts N positions."""
    if N < 1:
        raise ConfigurationError("N must be >= 1")
    return [x for _, _, x in tail_profile(space, gen, [(1, K + 1) for K in range(1, N + 1)])]


def tail_profile(
    space: SpaceSpec,
    gen: CoefficientGenerator,
    grid: Sequence[Tuple[int, int]],
) -> Tuple[Tuple[int, int, Number], ...]:
    """Tail norms ||sum_{m <= n < N} a_n x_n|| as (m, N, value) tuples in grid order, from one
    ``interval_norms`` call on positions min m .. max N - 1, all of which the budget counts."""
    for m, N in grid:
        if not (1 <= m < N):
            raise ConfigurationError(f"need 1 <= m < N, got ({m}, {N})")
    lo, hi = min((m for m, _ in grid), default=1), max((N for _, N in grid), default=1) - 1
    space.check_budget(hi - lo + 1)
    values = space.interval_norms(gen.vector(lo, hi), [(m, N - 1) for m, N in grid])
    return tuple((m, N, x) for (m, N), x in zip(grid, values))


def convergence_verdict(
    profile: Sequence[Tuple[int, int, Number]],
    shrink_threshold: Number = DEFAULT_SHRINK_THRESHOLD,
    certified_lower_bound: Optional[Number] = None,
    growth_threshold: Optional[Number] = None,
) -> str:
    """Heuristic three-valued trend from a tail profile.

    Converging: every tail with m among the last LATE_CUTS grid cut points
    is below ``shrink_threshold``.  Diverging: a certified lower bound, or a
    monotone-growing tail, exceeds ``growth_threshold`` (default
    1/shrink_threshold).  Otherwise inconclusive.
    """
    if growth_threshold is None:
        growth_threshold = 1 / Fraction(shrink_threshold) if is_exact(shrink_threshold) else 1.0 / shrink_threshold
    if certified_lower_bound is not None and certified_lower_bound > growth_threshold:
        return DIVERGING
    if len(profile) < 2:
        return INCONCLUSIVE
    ms = sorted({m for m, _, _ in profile})
    late = set(ms[-LATE_CUTS:])
    if all(val < shrink_threshold for m, _, val in profile if m in late):
        return CONVERGING
    m0 = ms[0]
    growth = sorted(((N, val) for m, N, val in profile if m == m0))
    values = [val for _, val in growth]
    if (
        len(values) >= 2
        and all(b >= a for a, b in zip(values, values[1:]))
        and values[-1] > growth_threshold
    ):
        return DIVERGING
    return INCONCLUSIVE


class DominationReport(Frozen):
    dom_verdict: str
    sub_verdict: str

    @property
    def witnesses_non_domination(self) -> bool:
        return self.dom_verdict == CONVERGING and self.sub_verdict == DIVERGING


def default_tail_grid(N: int) -> List[Tuple[int, int]]:
    """Dyadic cut points against the horizon N, plus a dyadic horizon ladder.

    The (m, N) entries expose shrinking tails; the (1, n) ladder exposes
    prefix growth in the horizon, which the divergence check needs.
    """
    grid = []
    m = 1
    while m < N:
        grid.append((m, N))
        m *= 2
    n = 2
    while n < N:
        grid.append((1, n))
        n *= 2
    return grid


def domination_probe(
    dom_space: SpaceSpec,
    sub_space: SpaceSpec,
    gen: CoefficientGenerator,
    N: int,
    shrink_threshold: Number = DEFAULT_SHRINK_THRESHOLD,
    growth_threshold: Optional[Number] = None,
    sub_certified_bound: Optional[Number] = None,
) -> DominationReport:
    """Evaluate the same coefficients in both spaces and compare trends.

    A (converging, diverging) verdict pair is a finite-scale witness that the
    first space's basis does not dominate the second's.
    """
    grid = default_tail_grid(N)

    def verdict(profile: Sequence[Tuple[int, int, Number]], bound: Optional[Number]) -> str:
        return convergence_verdict(profile, shrink_threshold, bound, growth_threshold)

    dom_verdict = verdict(tail_profile(dom_space, gen, grid), None)
    # a certified lower bound can settle the sub side without profiling it,
    # which matters when that space is expensive to evaluate
    sub_verdict = verdict((), sub_certified_bound)
    if sub_verdict != DIVERGING:
        sub_verdict = verdict(tail_profile(sub_space, gen, grid), sub_certified_bound)
    return DominationReport(dom_verdict, sub_verdict)


# ---------------------------------------------------------------------------
# The certified harmonic divergence witness in T


def harmonic_tsirelson_witness(k: int) -> Tuple[Fraction, CertificateNode]:
    """Certified lower bound for the harmonic series in Tsirelson(1/2), with
    the root node of its certificate.

    Builds the admissible family of dyadic blocks I_j = (2^j, 2^(j+1)] for
    j = k..2k-1 (k sets, min position 2^k + 1 >= k) with singleton families
    nested inside each block, giving the exact bound

        (1/2) * sum_j (1/2) * sum_{n in I_j} 1/(n+1)
            <= || sum_{n <= 2^(2k)} t_n / (n+1) ||.

    The bound is strictly increasing in k and unbounded: each block's inner
    sum exceeds a constant on the order of log 2.
    """
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    from .tsirelson import CertificateNode

    children = []
    bound = Fraction(0)
    for j in range(k, 2 * k):
        block = tuple(range(2 ** j + 1, 2 ** (j + 1) + 1))
        singletons = tuple(CertificateNode.leaf((n,)) for n in block)
        children.append(CertificateNode.internal(block, singletons))
        bound += Fraction(1, 2) * sum(Fraction(1, n + 1) for n in block)
    root = CertificateNode.internal(range(1, 2 ** (2 * k) + 1), children)
    return Fraction(1, 2) * bound, root


def harmonic_witness_prefix(k: int) -> FiniteVector:
    """The harmonic prefix vector the level-k witness bounds from below."""
    return CoefficientGenerator.harmonic().vector(1, 2 ** (2 * k))
