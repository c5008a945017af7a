"""Shared value types, the space objects, grid quantization, and text formats.

Positions are 1-based throughout.  External dense arrays are read as 0-based
and shifted on load (see :func:`parse_vector`).  A :class:`FiniteVector`
stores only its support and the nonzero values there, and the norms read
only those; its ``coeffs`` view is dense, for grid quantization.

Scalars are plain Python numbers: ``int``/``Fraction`` for exact-rational
mode, ``float`` for binary-floating mode.  A computation is exact iff every
input scalar is exact.
"""
from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from contextlib import suppress
from fractions import Fraction
from itertools import accumulate, chain, compress, count, repeat
from operator import attrgetter, mul
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple, Union

Number = Union[int, Fraction, float]

DEFAULT_REL_TOL = 1e-12


class ConfigurationError(ValueError):
    """Invalid or unsupported parameter combination."""


class ParseError(ValueError):
    """Malformed vector file or descriptor string."""


class BudgetError(RuntimeError):
    """An evaluation exceeds the configured search/support budget."""


# The most positions one evaluation may cover (--budget-support).
DEFAULT_SUPPORT_BUDGET = 4096
# The largest support the brute-force oracle takes: s points hold up to
# (3^s - 1)/2 families, and one exact call took 0.08, 0.20 and 0.63 s at
# s = 11, 12 and 13 (peak RSS 23, 39 and 92 MB), about 3x per point.
ORACLE_SUPPORT_LIMIT = 12

# The most bits an exact power may take (classical's t ** p, or the power of
# ten of an exact decimal: 10^19728 at most).
EXACT_POWER_BITS = 1 << 16
MAX_DECIMAL_EXPONENT = int(EXACT_POWER_BITS / math.log2(10))


class QuantizationError(ValueError):
    """No grid multiple satisfies the strict quantization bound."""

    def __init__(self, index: int, message: str):
        super().__init__(message)
        self.index = index


class CertificateError(ValueError):
    """A norm certificate is structurally invalid at some node."""


def is_exact(x: Number) -> bool:
    return isinstance(x, (int, Fraction)) and not isinstance(x, bool)


def close(a: Number, b: Number, rel_tol: float = DEFAULT_REL_TOL) -> bool:
    """Equality up to relative tolerance; exact when both sides are exact."""
    if is_exact(a) and is_exact(b):
        return a == b
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=rel_tol)


def parse_scalar(text: str, exact: bool = True) -> Number:
    """Parse a decimal string or an integer fraction ``p/q``.

    ``nan`` is refused in both modes; ``inf`` and values beyond the float
    range read as infinities in float mode.
    """
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            value = Fraction(int(num), int(den))
        elif exact:
            digits = text[1:] if text[:1] == "-" else text
            if digits.isdigit() and digits.isascii():
                return int(text)  # plain -?digits: the value Fraction would give
            _check_decimal_exponent(text)
            value = _fraction(text)
        else:
            value = float(text)
            if value != value:
                raise ValueError("not a number")
            return value
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad scalar {text!r}: {exc}") from None
    if not exact:
        return to_float(value)
    if value.denominator == 1:
        return int(value)
    return value


def _check_decimal_exponent(text: str) -> None:
    """Refuse an exact decimal whose power of ten passes EXACT_POWER_BITS."""
    mantissa, e, power = text.lower().partition("e")
    try:
        if e and power == power.strip() and abs(int(power)) > MAX_DECIMAL_EXPONENT:
            _fraction(mantissa + "e0")  # the rest of the token is well formed
            raise BudgetError(f"exact decimal exponent {power[:20]} passes "
                              f"{EXACT_POWER_BITS} bits; use --float")
    except ValueError:
        pass  # a malformed token: Fraction(text) reports it as before


def _fraction(text: str) -> Fraction:
    """Fraction(text), reading PEP 515 underscores on every Python: 3.10's
    Fraction refuses them, 3.11's takes them just where float() does."""
    if "_" in text:
        with suppress(ValueError):
            float(text)  # a misplaced underscore is left for Fraction to report
            text = text.replace("_", "")
    return Fraction(text)


def to_float(x: Number) -> float:
    """float(x), or an infinity for an exact value beyond the float range."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


def format_scalar(x: Number) -> str:
    if isinstance(x, Fraction):
        num, den = _int_text(x.numerator), _int_text(x.denominator)
        return f"{num}/{den}" if x.denominator != 1 else num
    if isinstance(x, float):
        return repr(x)
    return _int_text(x) if type(x) is int else str(x)


def _int_text(n: int) -> str:
    """str(n) for an int of any length.

    CPython refuses to convert an int of more digits than
    ``sys.get_int_max_str_digits()`` (4,300 by default) to text.  A longer
    one is split by a power of ten into a high and a low half, each
    converted the same way, the low half padded to its width."""
    # 0 is no limit, as on a Python without the limit
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if not limit or n.bit_length() <= 3 * limit:  # 3 bits make less than one digit
        return str(n)
    if n < 0:
        return "-" + _int_text(-n)
    width = n.bit_length() * 3 // 20  # about half the digits
    high, low = divmod(n, 10 ** width)
    return _int_text(high) + _int_text(low).zfill(width)


def scaled_ints(values: Sequence[Number]) -> Optional[Tuple[List[int], int, bool]]:
    """Exact values as ints over one common denominator.

    Returns (ints, L, fraction): ``ints[i] / L == values[i]`` with L the lcm of
    the denominators, and whether any value is a Fraction (the type that
    Fraction arithmetic on the values would give).  None if a value is not
    an int or a Fraction (a bool, a float or an int subclass included).
    """
    kinds = set(map(type, values))
    if not kinds <= {int, Fraction}:
        return None
    if Fraction not in kinds:
        return list(values), 1, False
    # Two attrgetter passes cost less than one as_integer_ratio pass, whose
    # pairs would have to be built and split again.
    dens = list(map(attrgetter("denominator"), values))
    distinct = set(dens)
    L = math.lcm(*distinct)
    factor = {d: L // d for d in distinct}
    nums = map(attrgetter("numerator"), values)
    return list(map(mul, nums, map(factor.__getitem__, dens))), L, True


def _primes_up_to(n: int) -> Iterable[int]:
    """The primes <= n, increasing, from a sieve of Eratosthenes."""
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, n + 1, q)))
    return compress(range(n + 1), sieve)


# ---------------------------------------------------------------------------
# Value types


class Frozen:
    """Base of the immutable value types.

    The fields are the annotated names of the class and of its ``Frozen``
    bases, in MRO order; a class attribute of the same name is a field's
    default.  Instances are built positionally or by keyword, run
    ``__post_init__`` and refuse assignment.  ``==`` (between instances of
    one class) and ``hash`` read every field except those in ``_settings``,
    knobs such as a budget that are not part of the value; ``repr`` shows
    every field.
    """

    _fields = ()
    _settings = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = {}
        for c in reversed(cls.__mro__):
            if issubclass(c, Frozen):
                fields.update(dict.fromkeys(c.__annotations__))
        cls._fields = cls.__match_args__ = tuple(fields)
        cls._defaults = {n: getattr(cls, n) for n in fields if hasattr(cls, n)}
        compared = [n for n in fields if n not in cls._settings]
        key = attrgetter(*compared) if compared else lambda self: ()
        # always a tuple, so the hash is that of the tuple of compared fields
        cls._key = staticmethod(key if len(compared) != 1 else lambda self: (key(self),))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._arguments(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    def _arguments(self, args, kwargs) -> list:
        """Every field's value, in order, from the arguments and the defaults."""
        fields, name = self._fields, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes at most {len(fields)} arguments")
        values = list(args)
        for field in fields[len(args):]:
            if field in kwargs:
                values.append(kwargs.pop(field))
            elif field in self._defaults:
                values.append(self._defaults[field])
            else:
                raise TypeError(f"{name}() missing the argument {field!r}")
        if kwargs:
            raise TypeError(f"{name}() got an unexpected or repeated argument {next(iter(kwargs))!r}")
        return values

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"


# ---------------------------------------------------------------------------
# Finite vectors


class FiniteVector(Frozen):
    """A finitely supported coefficient sequence, stored by its support.

    ``support`` holds the increasing positions with a nonzero coefficient and
    ``values`` the coefficients there, so a vector costs its support, not its
    largest position.  The static constructors drop zeros, so two vectors are
    equal iff they have equal coefficients at every position.
    """

    support: Tuple[int, ...]
    values: Tuple[Number, ...] = ()  # so a lone dense tuple fails the length check

    def __init__(self, support: Tuple[int, ...], values: Tuple[Number, ...] = ()):
        # Built per block, sample and parse, so it skips the generic path.
        if len(support) != len(values):
            raise ConfigurationError("a vector takes one value per support position")
        self.__dict__.update(support=support, values=values)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.support == other.support and self.values == other.values
        return NotImplemented

    def __hash__(self):
        return hash((self.support, self.values))

    @staticmethod
    def from_dense(values: Sequence[Number]) -> "FiniteVector":
        """values[n-1] is the coefficient at position n."""
        return FiniteVector(tuple(compress(count(1), values)), tuple(filter(None, values)))

    @staticmethod
    def from_pairs(pairs: Iterable[Tuple[int, Number]]) -> "FiniteVector":
        """(position, value) pairs in any order; values at one position add up."""
        items = dict()
        for pos, val in pairs:
            if pos < 1:
                raise ConfigurationError(f"positions are 1-based, got {pos}")
            items[pos] = items[pos] + val if pos in items else val
        support = tuple(sorted(n for n, a in items.items() if a))
        return FiniteVector(support, tuple(map(items.__getitem__, support)))

    @staticmethod
    def unit(n: int) -> "FiniteVector":
        return FiniteVector.from_pairs([(n, 1)])

    @staticmethod
    def zero() -> "FiniteVector":
        return FiniteVector(())

    def coefficient(self, n: int) -> Number:
        i = bisect_left(self.support, n)
        if i < len(self.support) and self.support[i] == n:
            return self.values[i]
        return 0

    @property
    def coeffs(self) -> Tuple[Number, ...]:
        """The dense view: coeffs[n-1] is the coefficient at n, int 0 at the gaps."""
        dense = [0] * (self.support[-1] if self.support else 0)
        for n, a in zip(self.support, self.values):
            dense[n - 1] = a
        return tuple(dense)

    @property
    def is_zero(self) -> bool:
        return not self.support

    def restrict(self, positions: Iterable[int]) -> "FiniteVector":
        if isinstance(positions, range) and positions.step == 1:  # a slice, not a set of the range
            i, j = (bisect_left(self.support, n) for n in (positions.start, positions.stop))
            return FiniteVector(self.support[i:j], self.values[i:j])
        keep = set(positions)
        return FiniteVector.from_pairs(p for p in zip(self.support, self.values) if p[0] in keep)

    def __add__(self, other: "FiniteVector") -> "FiniteVector":
        return FiniteVector.from_pairs(chain(
            zip(self.support, self.values), zip(other.support, other.values)
        ))

    def __sub__(self, other: "FiniteVector") -> "FiniteVector":
        return self + other.scale(-1)

    def scale(self, c: Number) -> "FiniteVector":
        return FiniteVector.from_pairs((n, c * a) for n, a in zip(self.support, self.values))

    def flip_signs(self, signs: Sequence[int]) -> "FiniteVector":
        """Multiply coefficient at position n by signs[n-1] (each +-1)."""
        return FiniteVector.from_pairs(
            (n, a * signs[n - 1]) for n, a in zip(self.support, self.values)
        )

    def abs_sum(self) -> Number:
        # Left to right, not with sum(), which compensates float sums on
        # Python >= 3.12.  An exact term beyond the float range added to a
        # float is read as infinite, as to_float reads it.
        total = 0
        for x in map(abs, self.values):
            try:
                total = total + x
            except OverflowError:
                total = INF
        return total

    def sup(self) -> Number:
        return max(map(abs, self.values), default=0)


# ---------------------------------------------------------------------------
# Parameter types


class HFunction(Frozen):
    """A strictly increasing family-size function k -> h(k), h(k) >= 1."""

    kind: str  # "identity" | "affine" | "table"
    a: int = 1
    b: int = 0
    table: Tuple[Tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.kind == "affine":
            if self.a < 1 or self.a * 1 + self.b < 1:
                raise ConfigurationError("affine h must be strictly increasing with h(1) >= 1")
        elif self.kind == "table":
            ks = [k for k, _ in self.table]
            hs = [h for _, h in self.table]
            if not self.table or ks != sorted(set(ks)):
                raise ConfigurationError("h table needs distinct increasing keys")
            if ks[0] < 1:
                raise ConfigurationError("h table keys must be >= 1")
            if any(h2 <= h1 for h1, h2 in zip(hs, hs[1:])) or hs[0] < 1:
                raise ConfigurationError("h must be strictly increasing with values >= 1")
        elif self.kind != "identity":
            raise ConfigurationError(f"unknown h kind {self.kind!r}")

    @staticmethod
    def identity() -> "HFunction":
        return HFunction("identity")

    @staticmethod
    def affine(a: int, b: int) -> "HFunction":
        return HFunction("affine", a=a, b=b)

    @staticmethod
    def from_table(pairs: Iterable[Tuple[int, int]]) -> "HFunction":
        return HFunction("table", table=tuple(sorted(pairs)))

    def __call__(self, k: int) -> int:
        if k < 1:
            raise ConfigurationError("h is defined for k >= 1")
        if self.kind == "identity":
            return k
        if self.kind == "affine":
            return self.a * k + self.b
        for key, val in self.table:
            if key == k:
                return val
        raise ConfigurationError(f"h table has no entry for k={k} (domain bound {self.table[-1][0]})")

    def inverse(self, m: int) -> Optional[int]:
        """The k with h(k) == m, or None."""
        if self.kind == "identity":
            return m if m >= 1 else None
        if self.kind == "affine":
            k, rem = divmod(m - self.b, self.a)
            return k if rem == 0 and k >= 1 else None
        return next((key for key, val in self.table if val == m), None)

    def describe(self) -> str:
        """How a space or submeasure descriptor names this h."""
        return self.kind

    def sizes(self, s: int) -> List[Tuple[int, int]]:
        """The family sizes (k, h(k)) over a support of s points, by increasing k.

        Identity and affine h have h(k) >= k, and h(k) sets need h(k) support
        points, so k <= s suffices.  A table can have h(k) < k, so every entry
        is kept.
        """
        if self.kind == "table":
            return list(self.table)
        return [(k, self(k)) for k in range(1, s + 1)]


class GridSpec(Frozen):
    """The dyadic grid mesh: position n has mesh 2^-(n-1), so position 1 has
    mesh 1."""

    @staticmethod
    def dyadic() -> "GridSpec":
        return GridSpec()

    def epsilon_at(self, position: int) -> Number:
        if position < 1:
            raise ConfigurationError("positions are 1-based")
        return Fraction(1, 2 ** (position - 1))


class WeightSpec(Frozen):
    """The harmonic Lorentz weights w_n = 1/(n+1): w_0 = 1, positive,
    non-increasing, with a divergent sum."""

    @staticmethod
    def harmonic() -> "WeightSpec":
        return WeightSpec()

    def weight(self, n: int) -> Number:
        """w_n for n >= 0."""
        if n < 0:
            raise ConfigurationError("weight index must be >= 0")
        return Fraction(1, n + 1)

    def scaled(self, m: int) -> Tuple[List[int], int, bool]:
        """The first m weights as ints over one common denominator, as
        :func:`scaled_ints` gives them.

        w_i = 1/(i+1) over L = lcm(1..m), the product of the largest power
        q^e <= m of each prime q <= m; L/k = 2 * L/(2k), so only the k in
        (m/2, m] take a division."""
        L = 1
        for q in _primes_up_to(m):
            power = q
            while power * q <= m:
                power *= q
            L *= power
        w = [0] * (m + 1)
        for k in range(m, 0, -1):
            w[k] = w[2 * k] << 1 if 2 * k <= m else L // k
        return w[1:], L, m > 0


# ---------------------------------------------------------------------------
# Spaces

INF = float("inf")


class SpaceSpec:
    """A sequence space: a norm on finitely supported coefficient vectors.

    Each space is a frozen subclass that validates its own parameters.  The
    norms themselves live in ``classical`` and ``tsirelson``, which import
    this module, so the methods import them at call time.
    """

    @staticmethod
    def lp(p: Number) -> "SpaceSpec":
        return LpSpace(p)

    @staticmethod
    def c0() -> "SpaceSpec":
        return C0Space()

    @staticmethod
    def tsirelson(alpha: Number, h: Optional[HFunction] = None) -> "SpaceSpec":
        return TsirelsonSpace(alpha, h)

    def norm(self, v: FiniteVector) -> Number:
        """Norm of sum(v(n) * x_n)."""
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def interval_norms(self, v: FiniteVector, intervals: Sequence[Tuple[int, int]]) -> List[Number]:
        """The norms of v restricted to each [lo, hi]; one fresh norm each."""
        return [self.norm(v.restrict(range(lo, hi + 1))) for lo, hi in intervals]

    def check_budget(self, positions: int) -> None:
        """Refuse up front an evaluation over more positions than the space
        admits; only the Tsirelson space sets a budget."""


class LpSpace(SpaceSpec, Frozen):
    p: Number

    def __post_init__(self):
        if self.p is None or (self.p != INF and self.p < 1):
            raise ConfigurationError("lp requires p >= 1 or p = inf")

    def norm(self, v: FiniteVector) -> Number:
        from . import classical
        return classical.lp_norm(self.p, v)

    def interval_norms(self, v: FiniteVector, intervals: Sequence[Tuple[int, int]]) -> List[Number]:
        # Intervals from v's first position read one running sum; a later
        # start, or a float power sum beyond the float range, a fresh norm.
        from . import classical
        p, values, out = self.p, list(map(abs, v.values)), []
        if p == INF:
            sums = [None] + list(accumulate(values, max))
        else:
            classical.check_exact_power(p, values)
            sums = [None] + classical._power_sums(p, [(a, 1) for a in values])
        for lo, hi in intervals:
            t = sums[bisect_right(v.support, hi)]  # None: an empty window, or past the float range
            if t is not None and lo <= v.support[0]:
                out.append(t if p in (1, INF) else classical._root(t, p))
            else:
                out.append(self.norm(v.restrict(range(lo, hi + 1))))
        return out

    def describe(self) -> str:
        return f"lp:p={'inf' if self.p == INF else format_scalar(self.p)}"


class C0Space(LpSpace):
    """c_0: on finitely supported vectors its norm is the sup norm of lp:p=inf."""

    def __init__(self):
        super().__init__(INF)

    def describe(self) -> str:
        return "c0"


class TsirelsonSpace(SpaceSpec, Frozen):
    """Tsirelson's space T(alpha), or T(alpha, h) when h is given.

    ``budget`` is the most positions one evaluation may cover
    (--budget-support); it is a setting, not part of the space, so equality
    and ``describe`` ignore it.
    """

    alpha: Number
    h: Optional[HFunction] = None
    budget: int = DEFAULT_SUPPORT_BUDGET

    _settings = ("budget",)

    def __post_init__(self):
        if not (0 < self.alpha < 1):
            raise ConfigurationError("tsirelson requires alpha in (0,1)")

    def norm(self, v: FiniteVector) -> Number:
        from . import tsirelson
        return tsirelson.fixed_point_norm(self.alpha, v, h=self.h)

    def interval_norms(self, v: FiniteVector, intervals: Sequence[Tuple[int, int]]) -> List[Number]:
        # Every table entry, exact or float, is the fresh norm of its window.
        from . import tsirelson
        engine = tsirelson.TsirelsonEngine(self.alpha, v, self.h)
        return [engine.interval_norm(lo, hi) for lo, hi in intervals]

    def describe(self) -> str:
        h = "" if self.h is None else f",h={self.h.describe()}"
        return f"tsirelson:alpha={format_scalar(self.alpha)}{h}"

    def check_budget(self, positions: int) -> None:
        if positions > self.budget:
            raise BudgetError(
                f"Tsirelson evaluation over {positions} positions exceeds the budget "
                f"{self.budget}; evaluate fewer positions or raise --budget-support"
            )


class OrliczSpace(SpaceSpec, Frozen):
    """The Orlicz space of an Orlicz function.

    ``tol`` bounds the Luxemburg bisection (--tol); it is a setting, not part
    of the space, so equality and ``describe`` ignore it.
    """

    orlicz: "object"  # classical.OrliczFunction
    tol: float = 1e-10

    _settings = ("tol",)

    def __post_init__(self):
        if self.orlicz is None:
            raise ConfigurationError("orlicz requires an Orlicz function")

    def norm(self, v: FiniteVector) -> Number:
        from . import classical
        return classical.luxemburg_norm(self.orlicz, v, tol=self.tol)

    def describe(self) -> str:
        return f"orlicz:{self.orlicz.describe()}"


class LorentzSpace(SpaceSpec, Frozen):
    weights: WeightSpec
    p: Number

    def __post_init__(self):
        if self.weights is None or self.p is None or self.p < 1:
            raise ConfigurationError("lorentz requires weights and p >= 1")

    def norm(self, v: FiniteVector) -> Number:
        from . import classical
        return classical.lorentz_norm(self.weights, self.p, v)

    def interval_norms(self, v: FiniteVector, intervals: Sequence[Tuple[int, int]]) -> List[Number]:
        from . import classical
        return classical.lorentz_interval_norms(self.weights, self.p, v, intervals)

    def describe(self) -> str:
        return f"lorentz:w=harmonic,p={format_scalar(self.p)}"


def eval_norm(space: SpaceSpec, v: FiniteVector) -> Number:
    """Norm of sum(v(n) * x_n) in ``space``."""
    return space.norm(v)


# ---------------------------------------------------------------------------
# Grid quantization


def quantize_to_grid(
    v: FiniteVector, target: GridSpec, bounds: Sequence[Number]
) -> FiniteVector:
    """Snap each coordinate to the target grid.

    Output(i) = q_i * eps_i where |q_i| is maximal subject to the strict bound
    |v(i) - q_i eps_i| < bounds(i); a tie between +q and -q is broken toward
    the positive q.
    """
    out = []
    for pos, x in enumerate(v.coeffs, start=1):
        eps = target.epsilon_at(pos)
        if pos > len(bounds):
            raise ConfigurationError(f"no bound supplied for position {pos}")
        bound = bounds[pos - 1]
        if bound <= 0:
            raise ConfigurationError("quantization bounds must be positive")
        # Exact values, also of a float (inf and nan raise here), so 1/eps may
        # pass the double range.
        lo = (Fraction(x) - Fraction(bound)) / eps
        hi = (Fraction(x) + Fraction(bound)) / eps
        qmin, qmax = math.floor(lo) + 1, math.ceil(hi) - 1  # the q with lo < q < hi
        if qmin > qmax:
            raise QuantizationError(
                pos, f"no integer multiple of {format_scalar(eps)} within "
                f"{format_scalar(bound)} of {format_scalar(x)} at position {pos}"
            )
        if abs(qmax) > abs(qmin):
            q = qmax
        elif abs(qmin) > abs(qmax):
            q = qmin
        else:
            q = max(qmin, qmax)  # |qmin| == |qmax|: prefer the positive one
        out.append(q * eps)
    return FiniteVector.from_dense(out)


# ---------------------------------------------------------------------------
# Text formats (vectors and space descriptors)


def parse_vector(text: str, exact: bool = True) -> FiniteVector:
    """Parse a vector record.

    Dense form: whitespace/comma separated values, read as a 0-based array
    and shifted to 1-based positions.  Sparse form: tokens ``pos:value``
    with 1-based positions; values at one position add up.  Values are
    decimal strings or fractions "p/q".  Each distinct token is read once
    (see :func:`_read_nonzero`), and the first bad token in the text raises;
    float text that float() reads whole is read by :func:`_plain_floats`.
    """
    tokens = text.replace(",", " ").split()
    if ":" in text:
        return _parse_sparse(tokens, exact)
    floats = None if exact else _plain_floats(tokens)
    if floats is not None:
        return FiniteVector.from_dense(floats)  # a float's zero test runs in C
    nonzero = _read_nonzero(tokens, exact)
    keep = list(map(nonzero.__contains__, tokens))
    return FiniteVector(
        tuple(compress(count(1), keep)), tuple(map(nonzero.__getitem__, compress(tokens, keep)))
    )


def _parse_sparse(tokens: List[str], exact: bool) -> FiniteVector:
    positions, texts = [], []
    for t in tokens:
        pos_text, colon, val_text = t.partition(":")
        try:
            if not colon:
                raise ParseError(f"mixed sparse/dense vector token {t!r}")
            try:
                pos = int(pos_text)
            except ValueError:
                raise ParseError(f"bad position {pos_text!r}") from None
            if pos < 1:
                raise ParseError(f"sparse positions are 1-based, got {pos}")
        except ParseError:
            _read_nonzero(texts, exact)  # a bad value earlier in the text comes first
            raise
        positions.append(pos)
        texts.append(val_text)
    values = None if exact else _plain_floats(texts)
    if values is None:
        values = map(_read_nonzero(texts, exact).get, texts, repeat(0))
    v = FiniteVector.from_pairs(zip(positions, values))
    if not exact and any(map(math.isnan, v.values)):  # inf and -inf at one position
        n = next(n for n, x in zip(v.support, v.values) if x != x)
        raise ParseError(f"values at position {n} add to nan")
    return v


def _plain_floats(tokens: List[str]) -> Optional[List[float]]:
    """float() of every token, which is parse_scalar's float reading of a
    token with no "/"; None if some token is a fraction, malformed or nan.
    Such text skips the memo of :func:`_read_nonzero`, which costs more
    than reading each token with float()."""
    try:
        values = list(map(float, tokens))
    except ValueError:
        return None
    return None if any(map(math.isnan, values)) else values


def _read_nonzero(tokens: Iterable[str], exact: bool) -> Dict[str, Number]:
    """The nonzero values of the distinct ``tokens``, each read once, in
    order of first appearance.

    A plain -?digits token is read with ``int`` (``float`` in float mode),
    which gives ``parse_scalar``'s value; every other token, and one that
    ``int`` refuses, goes through ``parse_scalar``, so the first bad token
    raises its error.
    """
    number = int if exact else float
    nonzero = {}
    for t in dict.fromkeys(tokens):
        digits = t[1:] if t[:1] == "-" else t
        if digits.isdigit():
            try:
                x = number(t)
            except ValueError:  # a digit int() does not read, or past its digit limit
                x = parse_scalar(t, exact)
        else:
            x = parse_scalar(t, exact)
        if type(x) is Fraction or x:  # parse_scalar reads an exact zero as int 0
            nonzero[t] = x
    return nonzero


def _parse_kv(body: str) -> Mapping[str, str]:
    out = {}
    if not body:
        return out
    for chunk in body.split(","):
        if "=" not in chunk:
            raise ParseError(f"expected key=value, got {chunk!r}")
        key, val = chunk.split("=", 1)
        out[key.strip()] = val.strip()
    return out


def _parse_h(text: str) -> HFunction:
    if text == "identity":
        return HFunction.identity()
    if text.startswith("affine:"):
        try:
            a, b = (int(t) for t in text[len("affine:"):].split(":"))
        except ValueError:
            raise ParseError(f"bad affine h {text!r}") from None
        return HFunction.affine(a, b)
    if text.startswith("table:"):
        pairs = []
        for item in text[len("table:"):].split(";"):
            try:
                k, hk = (int(t) for t in item.split(":"))
            except ValueError:
                raise ParseError(f"bad h table entry {item!r}") from None
            pairs.append((k, hk))
        return HFunction.from_table(pairs)
    raise ParseError(f"unknown h form {text!r}")


def parse_space(
    descriptor: str,
    exact: bool = True,
    tol: float = OrliczSpace.tol,
    budget: int = TsirelsonSpace.budget,
) -> SpaceSpec:
    """Parse a space mini-language string, e.g. "lp:p=2" or "tsirelson:alpha=1/2".

    An Orlicz space takes ``tol`` and a Tsirelson space ``budget``; the other
    spaces read neither.
    """
    descriptor = descriptor.strip()
    name, _, body = descriptor.partition(":")
    try:
        if name == "c0":
            if body:
                raise ParseError("c0 takes no parameters")
            return SpaceSpec.c0()
        kv = _parse_kv(body)
        if name == "lp":
            p_text = kv.get("p")
            if p_text is None:
                raise ParseError("lp needs p=")
            p = INF if p_text in ("inf", "infinity") else parse_scalar(p_text, exact=exact)
            return SpaceSpec.lp(p)
        if name == "tsirelson":
            alpha = parse_scalar(kv["alpha"], exact=exact)
            return TsirelsonSpace(alpha, _parse_h(kv["h"]) if "h" in kv else None, budget)
        if name == "orlicz":
            from . import classical

            if "power" in kv:
                M = classical.OrliczFunction.power(parse_scalar(kv["power"], exact=exact))
            elif "table" in kv:
                M = classical.load_orlicz_table(kv["table"])
            else:
                raise ParseError("orlicz needs power= or table=")
            return OrliczSpace(M, tol)
        if name == "lorentz":
            w_text = kv.get("w", "harmonic")
            if w_text == "harmonic":
                w = WeightSpec.harmonic()
            else:
                raise ParseError(f"unknown lorentz weight {w_text!r}")
            return LorentzSpace(w, parse_scalar(kv["p"], exact=exact))
    except KeyError as exc:
        raise ParseError(f"missing parameter {exc} in {descriptor!r}") from None
    except ConfigurationError as exc:
        raise ParseError(str(exc)) from None
    raise ParseError(f"unknown space {name!r}")
