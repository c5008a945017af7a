"""LSC submeasures from a basis and weight, the Fin/Null/Exh ideal triple,
turbulence and membership diagnostics.

Only finite horizons are computable here; every verdict derived from them is
heuristic and labeled as such.  The submeasure axioms themselves are exact
statements about finite sets and are checked exactly.  A diagnostic that reads
phi on several windows of one set (tails, prefixes) builds the set's vector
once and asks the space once for all of them, through ``_phi_windows``.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import isqrt
from typing import List, Optional, Sequence, Tuple

from .core import (
    ConfigurationError,
    FiniteVector,
    Frozen,
    HFunction,
    INF,
    LpSpace,
    Number,
    ParseError,
    SpaceSpec,
    TsirelsonSpace,
    _parse_h,
    _parse_kv,
    _primes_up_to,
    close,
    parse_scalar,
    parse_space,
)
from .series import CoefficientGenerator, parse_generator

TURBULENCE_FLOOR = 0.01
MEMBERSHIP_THRESHOLD = 0.01

TURBULENT = "turbulent-trend"
NOT_TURBULENT = "not-turbulent"
MEMBER = "member-trend"
NON_MEMBER = "non-member-trend"
INCONCLUSIVE = "inconclusive"

# Doubling-increment ratio cutoffs for the Fin membership heuristic.
SHRINK_RATIO = Fraction(9, 10)
FLAT_RATIO = Fraction(95, 100)


# ---------------------------------------------------------------------------
# Position-set generators


class SetGenerator(Frozen):
    """Deterministic subsets of the naturals, enumerable on any finite window."""

    kind: str  # "naturals" | "evens" | "squares" | "primes" | "dyadic" | "explicit"
    j: Optional[int] = None
    elements: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in ("naturals", "evens", "squares", "primes", "dyadic", "explicit"):
            raise ConfigurationError(f"unknown set generator {self.kind!r}")
        if self.kind == "dyadic" and (self.j is None or self.j < 0):
            raise ConfigurationError("dyadic block needs j >= 0")
        if self.kind == "explicit" and any(n < 1 for n in self.elements):
            raise ConfigurationError("positions are 1-based")

    @staticmethod
    def naturals() -> "SetGenerator":
        return SetGenerator("naturals")

    @staticmethod
    def evens() -> "SetGenerator":
        return SetGenerator("evens")

    @staticmethod
    def squares() -> "SetGenerator":
        return SetGenerator("squares")

    @staticmethod
    def primes() -> "SetGenerator":
        return SetGenerator("primes")

    @staticmethod
    def dyadic_block(j: int) -> "SetGenerator":
        """The block (2^j, 2^(j+1)]."""
        return SetGenerator("dyadic", j=j)

    @staticmethod
    def explicit(elements: Sequence[int]) -> "SetGenerator":
        return SetGenerator("explicit", elements=tuple(sorted(set(elements))))

    def members(self, lo: int, hi: int) -> List[int]:
        """Members in [lo, hi], increasing."""
        return list(self._members(lo, hi))

    def _members(self, lo: int, hi: int) -> Sequence[int]:
        # As members, but a range for the arithmetic sets, so that a
        # diagnostic can bisect a wide horizon and refuse it by its budget
        # before any member is listed.
        lo = max(lo, 1)
        if hi < lo:
            return []
        if self.kind == "naturals":
            return range(lo, hi + 1)
        if self.kind == "evens":
            return range(lo + (lo % 2), hi + 1, 2)
        if self.kind == "squares":
            return [m * m for m in range(isqrt(lo - 1) + 1, isqrt(hi) + 1)]
        if self.kind == "primes":
            return [n for n in _primes_up_to(hi) if n >= lo]
        if self.kind == "dyadic":
            if self.j >= hi.bit_length():
                return []  # 2^j > hi: no member, and 2^j is never formed
            return range(max(lo, 2 ** self.j + 1), min(hi, 2 ** (self.j + 1)) + 1)
        return [n for n in self.elements if lo <= n <= hi]

    def describe(self) -> str:
        if self.kind == "dyadic":
            return f"dyadic:{self.j}"
        if self.kind == "explicit":
            return "explicit:" + ";".join(str(n) for n in self.elements)
        return self.kind


def parse_set(descriptor: str) -> SetGenerator:
    descriptor = descriptor.strip()
    if descriptor in ("naturals", "evens", "squares", "primes"):
        return SetGenerator(descriptor)
    if descriptor.startswith("dyadic:"):
        return SetGenerator.dyadic_block(_set_int(descriptor[len("dyadic:"):], descriptor))
    if descriptor.startswith("explicit:"):
        return SetGenerator.explicit(
            [_set_int(t, descriptor) for t in descriptor[len("explicit:"):].split(";")]
        )
    raise ParseError(f"unknown set descriptor {descriptor!r}")


def _set_int(text: str, descriptor: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(f"bad integer {text!r} in set descriptor {descriptor!r}") from None


# ---------------------------------------------------------------------------
# Submeasures


class SubmeasureSpec(Frozen):
    """phi(A) = ||sum_{n in A} f(n) x_{pos(n)}|| in a 1-unconditional space.

    pos is the optional position map (identity when absent).  basis-weight
    takes any space and f(n) > 0; summable is the l_1 case, phi(A) =
    sum_{n in A} w(n) with w = f >= 0.
    """

    source: str  # "basis-weight" | "summable"
    space: Optional[SpaceSpec] = None
    f: Optional[CoefficientGenerator] = None
    position_map: Optional[HFunction] = None

    def __post_init__(self):
        if self.source not in ("basis-weight", "summable"):
            raise ConfigurationError(f"unknown submeasure source {self.source!r}")
        if self.space is None or self.f is None:
            raise ConfigurationError(f"{self.source} needs a space and a weight generator")
        # every implemented space has a 1-unconditional unit-vector basis, so
        # no renorming is needed for monotonicity; a table is probed in full
        probe = [self.f.value(n) for n in {1, 2, 7, *range(1, len(self.f.table) + 1)}]
        if self.source == "basis-weight" and any(a <= 0 for a in probe):
            raise ConfigurationError("basis-weight requires f(n) > 0")
        if self.source == "summable" and any(w < 0 for w in probe):
            raise ConfigurationError("summable weights must be non-negative")

    @staticmethod
    def basis_weight(
        space: SpaceSpec,
        f: CoefficientGenerator,
        position_map: Optional[HFunction] = None,
    ) -> "SubmeasureSpec":
        return SubmeasureSpec("basis-weight", space=space, f=f, position_map=position_map)

    @staticmethod
    def summable(weights: CoefficientGenerator) -> "SubmeasureSpec":
        return SubmeasureSpec("summable", space=LpSpace(1), f=weights)

    def describe(self) -> str:
        if self.source == "summable":
            return f"summable:w={self.f.describe()}"
        tag = f"basis-weight:space={self.space.describe()},f={self.f.describe()}"
        if self.position_map is not None:
            tag += f",h={self.position_map.describe()}"
        return tag


def _phi_windows(
    spec: SubmeasureSpec, members: Sequence[int], windows: Sequence[Tuple[int, int]]
) -> List[Number]:
    """phi(members intersect [lo, hi]) for each window, ``members`` increasing.

    One vector sum f(n) x_pos(n) over the members, one ``interval_norms`` call
    for the non-empty windows, each budget-checked in order; an empty one reads
    0 without reaching the space."""
    if members and members[0] < 1:
        raise ConfigurationError("positions are 1-based")
    spans = [(bisect_left(members, lo), bisect_right(members, hi)) for lo, hi in windows]
    asked = [(i, j) for i, j in spans if i < j]
    for i, j in asked:
        spec.space.check_budget(j - i)
    if not asked:
        return [0] * len(windows)
    pm = spec.position_map
    pos = members if pm is None else list(map(pm, members))
    v = FiniteVector.from_pairs(zip(pos, map(spec.f.value, members)))
    values = iter(spec.space.interval_norms(v, [(pos[i], pos[j - 1]) for i, j in asked]))
    return [next(values) if i < j else 0 for i, j in spans]


def phi(spec: SubmeasureSpec, A: Sequence[int]) -> Number:
    """The submeasure of a finite position set."""
    positions = sorted(set(A))
    return _phi_windows(spec, positions, [(1, max(positions, default=0))])[0]


def phi_tail_profile(
    spec: SubmeasureSpec, A: SetGenerator, cut_points: Sequence[int], horizon: int
) -> List[Number]:
    """phi(A intersect [n, horizon)) for each cut point n.

    Finite-horizon approximants to the tail submeasure; non-increasing in n
    by 1-unconditionality.
    """
    if any(n >= horizon for n in cut_points):
        raise ConfigurationError("cut points must be below the horizon")
    members = A._members(min(cut_points, default=horizon), horizon - 1)
    return _phi_windows(spec, members, [(n, horizon - 1) for n in cut_points])


# ---------------------------------------------------------------------------
# Axiom checks


class AxiomReport(Frozen):
    checked: int
    violations: Tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def submeasure_axiom_check(
    spec: SubmeasureSpec,
    samples: Sequence[Tuple[Sequence[int], Sequence[int]]],
) -> AxiomReport:
    """Check the submeasure axioms on finite set pairs.

    Verifies phi(empty) = 0, monotonicity, subadditivity, finiteness on
    singletons, and prefix-sup consistency for every sample pair.  A float
    value (a root taken through logarithms) can be a few ulps off, so an
    inequality fails only when its sides are not ``close`` (exact if exact).
    """

    def below(a, b):
        return a < b and not close(a, b)

    violations: List[str] = []
    if phi(spec, []) != 0:
        violations.append("phi(empty) != 0")
    for x, y in samples:
        x, y = sorted(set(x)), sorted(set(y))
        union = sorted(set(x) | set(y))
        # x's whole window first, so a budget refusal names all of x, then its prefixes
        windows = [(1, max(x, default=0))] + [(1, cut - 1) for cut in x]
        px, *prefix_values = _phi_windows(spec, x, windows)
        py, pu = phi(spec, y), phi(spec, union)
        if below(pu, px) or below(pu, py):
            violations.append(f"monotonicity fails at ({x}, {y})")
        if below(px + py, pu):
            violations.append(f"subadditivity fails at ({x}, {y})")
        for n in set(x[:1] + y[:1]):
            if not phi(spec, [n]) < float("inf"):
                violations.append(f"phi({{{n}}}) not finite")
        if x:
            # LSC restricted to finite sets: phi(x) is the sup of its prefixes
            prefix_values.append(px)
            if any(below(b, a) for a, b in zip(prefix_values, prefix_values[1:])):
                violations.append(f"prefix values not non-decreasing at {x}")
            if not close(max(prefix_values), px):
                violations.append(f"prefix sup differs from phi at {x}")
    return AxiomReport(len(samples), tuple(violations))


# ---------------------------------------------------------------------------
# Turbulence and membership diagnostics


def turbulence_criterion(spec: SubmeasureSpec, N: int) -> str:
    """Finite-scale reading of the phi({n}) -> 0 criterion.

    not-turbulent when the singleton values stay bounded below by
    TURBULENCE_FLOOR along the last half; turbulent-trend when they decrease
    monotonically to below it; otherwise inconclusive.
    """
    if N < 1:
        raise ConfigurationError("N must be >= 1")
    spec.space.check_budget(N)  # N singleton norms, before the first
    values = [phi(spec, [n]) for n in range(1, N + 1)]
    tail = values[N // 2 :]
    if min(tail) >= TURBULENCE_FLOOR:
        return NOT_TURBULENT
    if all(b <= a for a, b in zip(values, values[1:])) and values[-1] < TURBULENCE_FLOOR:
        return TURBULENT
    return INCONCLUSIVE


class IdealSpec(Frozen):
    """A named ideal derived from a submeasure: Fin, Null, or Exh."""

    submeasure: SubmeasureSpec
    kind: str  # "Fin" | "Null" | "Exh"
    name: Optional[str] = None

    def __post_init__(self):
        if self.kind not in ("Fin", "Null", "Exh"):
            raise ConfigurationError(f"unknown ideal kind {self.kind!r}")

    @staticmethod
    def summable_ideal(weights: CoefficientGenerator) -> "IdealSpec":
        name = "I_{1/n}" if weights == CoefficientGenerator.power(1) else None
        return IdealSpec(SubmeasureSpec.summable(weights), "Fin", name=name)

    @staticmethod
    def tsirelson_ideal(
        alpha: Number, h: HFunction, f: CoefficientGenerator, budget: int = TsirelsonSpace.budget
    ) -> "IdealSpec":
        # sets A with sum f(n) t_{h(n)} convergent; convergence shows up as
        # vanishing tails, so the Exh diagnostics apply
        spec = SubmeasureSpec.basis_weight(
            TsirelsonSpace(alpha, budget=budget), f,
            position_map=None if h.kind == "identity" else h,
        )
        return IdealSpec(spec, "Exh", name="T_{f,h,alpha}")

    def describe(self) -> str:
        base = f"{self.kind}({self.submeasure.describe()})"
        return f"{self.name} = {base}" if self.name else base


def _doubling_cuts(N: int) -> List[int]:
    cuts = [N]
    while cuts[-1] > 1:
        cuts.append(cuts[-1] // 2)
    return list(reversed(cuts))


def membership_verdict(
    ideal: IdealSpec,
    A: SetGenerator,
    horizon: int,
) -> str:
    """Heuristic membership trend of A in the ideal at a finite horizon.

    Fin: looks at phi of the prefixes A intersect [1, n] along doubling cut
    points; when the increments shrink geometrically the total extrapolates
    to a finite bound (member-trend), when they stay flat the sums grow
    without bound (non-member-trend), and an infinite last prefix is
    non-member-trend at once.  Exh: tail values below MEMBERSHIP_THRESHOLD
    mean member-trend, tails bounded away from 0 mean non-member-trend.
    Null: phi of the whole window against it.
    """
    if horizon < 2:
        raise ConfigurationError("horizon must be >= 2")
    spec = ideal.submeasure
    if ideal.kind == "Null":
        total = _phi_windows(spec, A._members(1, horizon), [(1, horizon)])[0]
        return MEMBER if total < MEMBERSHIP_THRESHOLD else NON_MEMBER
    if ideal.kind == "Exh":
        cuts = [c for c in _doubling_cuts(horizon) if c < horizon]
        tails = phi_tail_profile(spec, A, cuts, horizon)
        late = tails[len(tails) // 2 :]
        if all(t < MEMBERSHIP_THRESHOLD for t in late):
            return MEMBER
        if min(late) >= MEMBERSHIP_THRESHOLD and all(b <= a for a, b in zip(tails, tails[1:])):
            return NON_MEMBER
        return INCONCLUSIVE
    cuts = _doubling_cuts(horizon)
    prefixes = _phi_windows(spec, A._members(1, horizon), [(1, c) for c in cuts])
    if prefixes[-1] == INF:
        return NON_MEMBER  # phi(A) = inf; two infinite prefixes differ by nan
    increments = [b - a for a, b in zip(prefixes, prefixes[1:])]
    if not increments or increments[-1] == 0:
        return MEMBER  # the set is exhausted below the horizon
    if len(increments) < 2 or increments[-2] == 0:
        return INCONCLUSIVE
    ratio = increments[-1] / increments[-2]
    if ratio <= SHRINK_RATIO:
        return MEMBER
    if ratio >= FLAT_RATIO and increments[-1] > 0:
        return NON_MEMBER
    return INCONCLUSIVE


# ---------------------------------------------------------------------------
# Descriptor parsing


def _parse_weight_generator(text: str) -> CoefficientGenerator:
    # in ideal descriptors "harmonic" names the 1/n weights of I_{1/n}
    if text == "harmonic":
        return CoefficientGenerator.power(1)
    if text == "one":
        return CoefficientGenerator.constant(1)
    return parse_generator(text)


def parse_ideal(descriptor: str, budget: int = TsirelsonSpace.budget) -> IdealSpec:
    """Parse an ideal descriptor, e.g. "summable:w=harmonic" or
    "tsirelson-ideal:alpha=1/2,h=identity,f=harmonic"; a Tsirelson space in
    it takes ``budget``."""
    descriptor = descriptor.strip()
    name, _, body = descriptor.partition(":")
    try:
        kv = _parse_kv(body)
        if name == "summable":
            return IdealSpec.summable_ideal(_parse_weight_generator(kv.get("w", "harmonic")))
        if name == "tsirelson-ideal":
            alpha = parse_scalar(kv["alpha"])
            h = _parse_h(kv.get("h", "identity"))
            f = _parse_weight_generator(kv.get("f", "one"))
            return IdealSpec.tsirelson_ideal(alpha, h, f, budget)
        if name == "basis-weight":
            space = parse_space(kv["space"], budget=budget)
            f = _parse_weight_generator(kv.get("f", "one"))
            kind = kv.get("kind", "Fin")
            return IdealSpec(SubmeasureSpec.basis_weight(space, f), kind)
    except KeyError as exc:
        raise ParseError(f"missing parameter {exc} in {descriptor!r}") from None
    except ConfigurationError as exc:
        raise ParseError(str(exc)) from None
    raise ParseError(f"unknown ideal descriptor {descriptor!r}")
