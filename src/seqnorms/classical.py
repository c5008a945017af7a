"""Norms for l_p, c_0, Orlicz (Luxemburg functional) and Lorentz d(w,p).

The Luxemburg norm is the unique rho > 0 with sum_n M(|v(n)|/rho) = 1,
found by bracketing and bisection on the monotone map rho -> sum M(|v(n)|/rho).

A power t^p is exact only for an exact t and an exact integer p (``_power``),
so p = 1.0 sums in floats as p = 2.0 does.  ``lp_norm`` and ``lorentz_norm``
run exact sums on scaled ints x_i = n_i * (L // d_i) over L, the lcm of the
denominators (``core.scaled_ints``; the weights too, ``WeightSpec.scaled``).
The l_p sum is then sum |x_i|^p over L^p, and the Lorentz sum sorts the ints
and adds x_i^p * w_i over L^p times the weight denominator, with one Fraction
built at the end.  The lp windows (``LpSpace.interval_norms``) add terms one
at a time (``_power_sums``), as float terms always are.  A sum of rationals
has one value however it is formed, so both give the term-by-term Fraction
sum's value and type: a Fraction if any term is a Fraction, else an int.

The weights are harmonic, w_i = 1/(i+1), and the denominator of the first m is
lcm(1..m), formed as the product of the largest prime power <= m of each
prime <= m; only the k in (m/2, m] take a division L // k, and the others
double: L/k = 2 * L/(2k).  Lorentz norms of many windows of one vector
(``lorentz_interval_norms``, behind ``LorentzSpace.interval_norms``) take
one scaling per window set: the vector's ints and their p-th powers once,
and the weights of the longest window once.  A window from the vector's
first position over which |values| do not rise (every prefix of
``harmonic`` and ``power:s``) reads one running sum; any other window takes
a fresh ``lorentz_norm``.  Each sum is the fresh norm's, so value and type
are the fresh ``lorentz_norm``'s.

The float bisection of the Luxemburg norm for M(t) = t^p adds (a*u)^p entry
by entry in a plain loop, not with sum() (compensated on Python 3.12), so
its floats are those of evaluating M on each entry in turn.  A float power
sum that leaves the float range factors out the sup (see _power_root).

The bisection runs that loop only near the root.  It reads the functional g
only through comparisons with 1 and 1 +- tol, and one closed form settles
most of them.  With n entries, a finite pf and sup_f the largest entry,
S = fsum((a / sup_f) ** pf) is at least 1 (the sup's own term), and
G(u) = S * (u * sup_f) ** pf is within about (2p + 6) units of 2^-53 of the
real sum T(u) = sum (a*u)^p.  The loop is within about (n + p + 3) units of
T(u): recursive summation of positive terms obeys gamma_(n-1) (Higham,
Accuracy and Stability of Numerical Algorithms, 2002, section 4.2).  Both
bounds assume that pow is within a few ulps.  So with the relative margin
c = 8 * (n + 2p + 16) * 2^-53, and 1e-300 absolute for terms that underflow,
G * (1 - c) - 1e-300 - 1 > tol proves the loop's g above 1 + tol, and
1 - (G * (1 + c) + 1e-300) > tol proves it below 1 - tol.  Each form is the
bisection's own float test, monotone in g, so G answers every comparison as
the loop would, and every midpoint and the result keep their bits.  Any
other u, a G or power past the float range, or c >= 1e-6 runs the loop.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_right
from fractions import Fraction
from itertools import accumulate
from operator import mul
from typing import Iterable, List, Optional, Sequence, Tuple

from .core import (
    EXACT_POWER_BITS,
    BudgetError,
    ConfigurationError,
    FiniteVector,
    Frozen,
    INF,
    Number,
    OrliczSpace,
    ParseError,
    WeightSpec,
    is_exact,
    parse_scalar,
    scaled_ints,
    to_float,
)


# ---------------------------------------------------------------------------
# Orlicz functions


class OrliczFunction(Frozen):
    """Convex non-decreasing M with M(0)=0 and M(t) -> infinity.

    Either a power M(t) = t^p with p >= 1, or a table of (t, M(t)) knots
    with linear interpolation (and linear extension past the last knot).
    """

    kind: str  # "power" | "table"
    p: Optional[Number] = None
    knots: Tuple[Tuple[Number, Number], ...] = ()

    def __post_init__(self):
        if self.kind == "power":
            if self.p is None or self.p < 1:
                raise ConfigurationError("power Orlicz function needs p >= 1")
        elif self.kind == "table":
            knots = self.knots
            if len(knots) < 1:
                raise ConfigurationError("Orlicz table needs at least one knot")
            ts = [t for t, _ in knots]
            if any(t <= 0 for t in ts) or ts != sorted(set(ts)):
                raise ConfigurationError("Orlicz knots need strictly increasing t > 0")
            full = ((0, 0),) + knots
            values = [m for _, m in full]
            if any(b < a for a, b in zip(values, values[1:])):
                raise ConfigurationError("Orlicz table must be non-decreasing")
            slopes = []
            for (t0, m0), (t1, m1) in zip(full, full[1:]):
                slopes.append(Fraction(m1 - m0, 1) / (t1 - t0) if is_exact(m1 - m0) and is_exact(t1 - t0) else (m1 - m0) / (t1 - t0))
            if any(b < a for a, b in zip(slopes, slopes[1:])):
                raise ConfigurationError("Orlicz table must be convex")
            if slopes[-1] <= 0:
                raise ConfigurationError("Orlicz table must be unbounded (final slope > 0)")
        else:
            raise ConfigurationError(f"unknown Orlicz kind {self.kind!r}")

    @staticmethod
    def power(p: Number) -> "OrliczFunction":
        return OrliczFunction("power", p=p)

    @staticmethod
    def from_knots(knots: Sequence[Tuple[Number, Number]]) -> "OrliczFunction":
        return OrliczFunction("table", knots=tuple(knots))

    def __call__(self, t: Number) -> Number:
        if t < 0:
            raise ConfigurationError("Orlicz functions are defined for t >= 0")
        if self.kind == "power":
            return _power(t, self.p)
        full = ((0, 0),) + self.knots
        for (t0, m0), (t1, m1) in zip(full, full[1:]):
            if t <= t1:
                return m0 + (m1 - m0) * (t - t0) / (t1 - t0)
        t0, m0 = self.knots[-1]
        tp, mp = full[-2]
        slope = (m0 - mp) / (t0 - tp)
        return m0 + slope * (t - t0)

    def describe(self) -> str:
        if self.kind == "power":
            return f"power={self.p}"
        return f"table[{len(self.knots)} knots]"


def load_orlicz_table(path: str) -> OrliczFunction:
    """Two-column text file of (t, M(t)) knots, strictly increasing t."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read Orlicz table {path!r}: {exc}") from None
    knots = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ConfigurationError(f"Orlicz table line needs two columns: {line!r}")
        knots.append((parse_scalar(parts[0]), parse_scalar(parts[1])))
    return OrliczFunction.from_knots(knots)


# An exact power t ** p holds about p times t's bit-length.  Up to
# SMALL_EXPONENT that is a bounded multiple of the input's own size.  Above
# it, a power of more than EXACT_POWER_BITS bits is refused up front, and so
# is an exact power sum of more than EXACT_POWER_WORK bit-steps: terms * p *
# the bits of the largest int the terms are scaled to (over the lcm of their
# denominators).  On a 2-vCPU machine with Python 3.11, lp_norm at p = 100 on
# the reciprocals of the first 200, 250, 400 and 800 primes took 0.7 s
# (34 M bit-steps), 1.5 s (56 M), 5.5 s (155 M) and 36-43 s (697 M).
SMALL_EXPONENT = 64
EXACT_POWER_WORK = 1 << 25


def _integer_exponent(p: Number) -> Optional[int]:
    """p as an int if it is an exact integer, else None."""
    if is_exact(p) and Fraction(p).denominator == 1:
        return int(p)
    return None


def check_exact_power(p: Number, values: Iterable[Number]) -> None:
    """Refuse exact powers t ** p of ``values`` too large to compute."""
    n = _integer_exponent(p)
    if n is None or n <= SMALL_EXPONENT:
        return
    exact = [abs(Fraction(t)) for t in values if t and is_exact(t)]
    if not exact:
        return
    bits = max(max(f.numerator.bit_length(), f.denominator.bit_length()) for f in exact)
    if p * bits > EXACT_POWER_BITS:
        raise BudgetError(
            f"exact power with exponent above {SMALL_EXPONENT} on {bits}-bit "
            f"coefficients exceeds {EXACT_POWER_BITS} bits; use --float"
        )
    scaled_bits = int(max(exact) * math.lcm(*(f.denominator for f in exact))).bit_length()
    if len(exact) * n * scaled_bits > EXACT_POWER_WORK:
        raise BudgetError(
            f"exact power sum of {len(exact)} terms with exponent {n} on {scaled_bits}-bit "
            f"scaled coefficients exceeds {EXACT_POWER_WORK} bit-steps; use --float"
        )


def _power(t: Number, p: Number) -> Number:
    if is_exact(t) and (n := _integer_exponent(p)) is not None:
        return t ** n
    return float(t) ** float(p)


def _integer_root(n: int, p: int) -> int:
    """floor(n ** (1/p)) for n >= 0, by Newton iteration on integers.

    The start is 2 ** (log2(n) / p), good to about 50 bits.  It is raised
    until its p-th power passes n, by steps that start at about 2^-30 of it
    (one, for a root below 2^30) and double.  From there the iteration
    falls strictly to the floor of the root, quadratically from the first
    step.  A start below the root would not do: one step jumps above it by
    about (1 + d)^p for a shortfall d, and for large p the way back down is
    linear.
    """
    if n < 2:
        return n
    shift = max(n.bit_length() - 64, 0)
    e = (math.log2(n >> shift) + shift) / p
    k = max(int(e) - 52, 0)
    x = int(2 ** (e - k)) << k
    step = (x >> 30) + 1
    while x ** p <= n:
        x += step
        step *= 2
    while True:
        nxt = ((p - 1) * x + n // x ** (p - 1)) // p
        if nxt >= x:
            return x
        x = nxt


def _exact_root(value: Fraction, p: int) -> Optional[Fraction]:
    """value ** (1/p) if it is rational, else None."""
    def iroot(n: int) -> Optional[int]:
        r = _integer_root(n, p)
        return r if r ** p == n else None

    value = Fraction(value)
    num = iroot(value.numerator)
    if num is None:
        return None  # irrational, whatever the denominator
    den = iroot(value.denominator)
    return None if den is None else Fraction(num, den)


def _root(value: Number, p: Number) -> Number:
    """value ** (1/p), exact when the root is rational."""
    if is_exact(value) and (n := _integer_exponent(p)) is not None:
        exact = _exact_root(Fraction(value), n)
        if exact is not None:
            return int(exact) if exact.denominator == 1 else exact
        try:
            approx = float(value)
        except OverflowError:
            approx = 0.0
        if approx == 0.0 and value > 0:
            # beyond the float range: take the root through logarithms
            value = Fraction(value)
            try:
                return math.exp(
                    (math.log(value.numerator) - math.log(value.denominator)) / n
                )
            except OverflowError:
                return INF  # the root is beyond the float range too
        return approx ** (1.0 / float(p))
    return float(value) ** (1.0 / float(p))


def _power_sums(p: Number, terms: Sequence[Tuple[Number, Number]]) -> List[Optional[Number]]:
    """Running sums of a^p * w over the (a, w) terms, all a and w >= 0.

    A sum that left the float range reads None: every sum from a power that
    overflowed on, and a sum of 0 with a nonzero term in it (the terms
    underflowed).
    """
    sums, total, nonzero = [], 0, False
    for a, w in terms:
        if total is not None:
            try:
                total = total + _power(a, p) * w
            except OverflowError:
                total = None
        nonzero = nonzero or a != 0
        sums.append(None if nonzero and total == 0 else total)
    return sums


def _power_root(p: Number, terms: Sequence[Tuple[Number, Number]]) -> Number:
    """(sum a^p * w)^(1/p) over (a, w), term by term; the sum itself for p = 1.

    Where the float sum leaves the float range (see _power_sums), the sup is
    factored out instead: sup * (sum (a/sup)^p * w)^(1/p), in which every
    a/sup is at most 1.  Any other sum, exact or float, is formed as before,
    so its value is unchanged.
    """
    sums = _power_sums(p, terms)
    total = sums[-1] if sums else 0
    if total is None:
        sup = max(a for a, _ in terms)
        if to_float(sup) == INF:
            return INF  # the norm is at least the sup
        pf = float(p)
        total = 0.0
        for a, w in terms:
            total = total + float(a / sup) ** pf * w
        return float(sup) * total ** (1.0 / pf)
    return total if p == 1 else _root(total, p)


# ---------------------------------------------------------------------------
# Norms


def lp_norm(p: Number, v: FiniteVector) -> Number:
    """(sum |v(n)|^p)^(1/p); the sup norm for p = infinity."""
    if p == INF:
        return v.sup()
    if p < 1:
        raise ConfigurationError("lp requires p >= 1")
    check_exact_power(p, v.values)
    n = _integer_exponent(p)
    scaled = scaled_ints(v.values) if n is not None else None
    if scaled is not None:
        ints, L, fraction = scaled
        num = sum(abs(x) ** n for x in ints)
        total = Fraction(num, L ** n) if fraction else num
        return total if n == 1 else _root(total, n)
    return _power_root(p, [(abs(a), 1) for a in v.values])


def lorentz_norm(w: WeightSpec, p: Number, v: FiniteVector) -> Number:
    """(sum (v*_n)^p w_n)^(1/p) with v* the non-increasing rearrangement.

    The sup over permutations is attained at this rearrangement because the
    weights are non-increasing.
    """
    if p < 1:
        raise ConfigurationError("lorentz requires p >= 1")
    check_exact_power(p, v.values)
    n = _integer_exponent(p)
    scaled = scaled_ints(v.values) if n is not None else None
    if scaled is None:
        rearranged = sorted(map(abs, v.values), reverse=True)
        return _power_root(p, [(a, w.weight(i)) for i, a in enumerate(rearranged)])
    ints, L, fraction = scaled
    wints, Lw, wfraction = w.scaled(len(ints))
    rearranged = sorted(map(abs, ints), reverse=True)
    num = sum(x ** n * c for x, c in zip(rearranged, wints))
    total = Fraction(num, L ** n * Lw) if fraction or wfraction else num
    return total if n == 1 else _root(total, n)


def lorentz_interval_norms(
    w: WeightSpec, p: Number, v: FiniteVector, intervals: Sequence[Tuple[int, int]]
) -> List[Number]:
    """lorentz_norm of v restricted to each [lo, hi].

    With exact values and an integer p from 1 to SMALL_EXPONENT, windows from
    v's first position over which |values| do not rise read one running sum on
    one scaling (see the module docstring); every other window takes a fresh
    lorentz_norm.  Such a sum is a Fraction, as the fresh sum is, since the
    weight w_0 = 1 is one."""
    n = _integer_exponent(p)
    scaled = scaled_ints(v.values) if n is not None and 1 <= n <= SMALL_EXPONENT else None
    ends = {}
    if scaled is not None:
        powers = [abs(x) ** n for x in scaled[0]]
        falls = next((i for i in range(1, len(powers)) if powers[i - 1] < powers[i]), len(powers))
        for k, (lo, hi) in enumerate(intervals):
            b = bisect_right(v.support, hi)
            if 0 < b <= falls and lo <= v.support[0]:
                ends[k] = b
    if ends:
        (_, L, _), (wints, Lw, _) = scaled, w.scaled(max(ends.values()))
        sums = [0] + list(accumulate(map(mul, powers, wints)))
        scale = L ** n * Lw
    out = []
    for k, (lo, hi) in enumerate(intervals):
        b = ends.get(k)
        if b is None:
            out.append(lorentz_norm(w, p, v.restrict(range(lo, hi + 1))))
            continue
        total = Fraction(sums[b], scale)
        out.append(total if n == 1 else _root(total, n))
    return out


def _luxemburg_functional(M: OrliczFunction, entries: Sequence[Number], u: Number) -> Number:
    """sum M(|a| * u) over the entries, as a function of u = 1/rho."""
    total = 0
    for a in entries:
        total = total + M(a * u)
    return total


def luxemburg_norm(M: OrliczFunction, v: FiniteVector, tol: float = OrliczSpace.tol) -> Number:
    """The Luxemburg norm: the rho > 0 with sum M(|v(n)|/rho) = 1.

    Works in u = 1/rho, where the functional f is non-decreasing.  For
    rational inputs an exact secant step through u = 1/sup and 2/sup is
    tried first, and kept when f is exactly 1 there: it lands when f is
    linear in u (e.g. M(t) = t on the relevant range).  For M(t) = t^p with
    p > 1, f is strictly convex and f(1/sup) >= 1, so the secant lands only
    for a single entry, at rho = sup; that case (p an integer) is answered
    directly and the others skip the step.  Otherwise the root is bracketed
    by doubling/halving and bisected until the residual is within ``tol``.
    """
    if not 0 < tol < INF:
        raise ConfigurationError("tolerance must be a finite positive number")
    if not v.values:
        return 0

    exact = all(is_exact(a) for a in v.values)
    if exact and M.kind == "power" and M.p > 1:
        if len(v.values) == 1 and _integer_exponent(M.p) is not None:
            rho = Fraction(abs(v.values[0]))
            return int(rho) if rho.denominator == 1 else rho
    elif exact:
        entries = [abs(a) for a in v.values]
        u1 = Fraction(1, 1) / max(entries)
        u2 = 2 * u1
        f1 = _luxemburg_functional(M, entries, u1)
        f2 = _luxemburg_functional(M, entries, u2)
        if is_exact(f1) and is_exact(f2) and f2 != f1:
            u_star = u1 + (1 - f1) * (u2 - u1) / (f2 - f1)
            if u_star > 0 and _luxemburg_functional(M, entries, u_star) == 1:
                rho = 1 / Fraction(u_star)
                return int(rho) if rho.denominator == 1 else rho

    # float rounds symmetrically and monotonically: abs and max commute with it
    entries_f = [abs(to_float(a)) for a in v.values]
    sup_f = max(entries_f)
    if sup_f == INF:
        return INF  # an entry beyond the float range: the bracket would start at u = 0
    scale = 1.0
    if sup_f == 0.0 or 1.0 / sup_f == INF:
        # 1/sup overflows (a subnormal sup) or divides by zero (exact entries
        # below the float range), so no bracket would form.  The norm is
        # homogeneous: bracket on the entries divided by the sup, then
        # multiply back.
        sup = max(abs(a) for a in v.values)
        entries_f = [to_float(abs(a) / sup) for a in v.values]
        scale, sup_f = to_float(sup), 1.0

    S = 0.0  # the steering's S (module docstring); 0 runs the loop at every u
    if M.kind == "power":
        # the exponent as --float reads it
        pf = INF if M.p > sys.float_info.max else float(M.p)

        def functional(u: float) -> float:
            # a plain loop: sum() of floats is compensated on Python >= 3.12
            total = 0.0
            for a in entries_f:
                total = total + (a * u) ** pf
            return total

        c = 8 * (len(entries_f) + 2 * pf + 16) * 2.0 ** -53
        if c < 1e-6:
            S = math.fsum([(a / sup_f) ** pf for a in entries_f])
    else:
        def functional(u: float) -> float:
            return float(_luxemburg_functional(M, entries_f, u))

    def g(u: float) -> float:
        try:
            if S:
                # (u * sup_f) ** pf is the loop's own sup term: an overflow
                # here is the loop's too
                G = S * (u * sup_f) ** pf
                if tol < G * (1.0 - c) - 1e-300 - 1.0 < INF or 1.0 - (G * (1.0 + c) + 1e-300) > tol:
                    return G
            return functional(u)
        except OverflowError:
            return INF  # a term beyond the float range is far above 1

    # Bracket the root in u: g is non-decreasing with g(0) = 0.
    u_hi = 1.0 / sup_f
    steps = 0
    while g(u_hi) < 1.0:
        u_hi *= 2.0
        steps += 1
        if steps > 200:
            raise ConfigurationError("Orlicz function does not norm this vector")
    u_lo = u_hi / 2.0
    while g(u_lo) > 1.0:
        u_hi = u_lo
        u_lo /= 2.0
        steps += 1
        if steps > 400:
            raise ConfigurationError("Orlicz function does not norm this vector")

    for _ in range(200):
        u_mid = 0.5 * (u_lo + u_hi)
        val = g(u_mid)
        if abs(val - 1.0) <= tol:
            return scale / u_mid
        if val < 1.0:
            u_lo = u_mid
        else:
            u_hi = u_mid
        if u_hi - u_lo <= tol * u_lo:
            break
    return 2.0 * scale / (u_lo + u_hi)
