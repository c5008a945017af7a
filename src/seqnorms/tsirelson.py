"""Tsirelson-type norm engine.

Two independent computation routes live here:

* a production dynamic program over interval-shaped admissible families
  (:func:`norm`, :func:`fixed_point_norm`), and
* a brute-force oracle over families of arbitrary finite subsets
  (:func:`oracle_norm`), exponential by design and capped by support size.

A norm certificate is its root :class:`CertificateNode`, and
:func:`certificate_lower_bound` takes that node.

The recursion being computed, for alpha in (0,1):

    ||x||_0    = max_n |a_n|
    ||x||_m+1  = max(||x||_m, alpha * max_F sum_j ||E_j x||_m)

with the inner max over families E_1 < ... < E_r of finite sets, r = k for
the plain space (r = h(k) for the h-variant) and k <= min E_1.

In exact mode (alpha = p/q and every coefficient an int or Fraction) the DP
runs on plain ints.  With s the support size and L the lcm of the
coefficients' denominators, a value x is held as the integer x * L * q^(s-1),
and alpha is applied as ``p * X // q``.  That division is exact: the value of
an interval of length l is a sum of terms alpha^d * |a_n| with d <= l - 1,
because every family splits an interval into strictly shorter ones.  So
alpha times the value of a strict subinterval of an interval of length
l <= s has d <= s - 1, and its scaled form is an integer.  The l1-bound
prune compares ``p * sum <= q * best`` and divides nothing.  Values leave the
engine as ``Fraction(X, scale)``, except that a value equal to the interval's
sup is returned as that coefficient itself, as Fraction arithmetic would.
Float mode reads every value, and alpha, as a double, as the oracle does,
and keeps the values themselves, with q = 1.

Exact mode fills a table start-major: i from s - 1 down to 0, then j from i
up, so every strict subinterval of [i..j] (a later start, or the same start
and an earlier end) is filled before it.  The best split of [i..j] into r
groups is read from per-start arrays: F[q][y], the best split of [i..y] into
q groups, with F[1] row i of the table and

    F[q][y] = max over x of F[q-1][x-1] + T[x][y],

the last group read from the table kept also as column lists.  The query
(i, j, r) needs F[q] up to y = j - r + q for q = 2..r, so each state is
computed once per fill; the arrays of start i are dropped when i is done,
and they hold O(s * r) values.  One routine, ``_split``, serves every h.
Each F[q] is held from its first state, y = i + q - 1, on and grows by
appending, diagonal by diagonal: the k-th state goes to every F[q] that
lacks it, by increasing q, so a state reads the one below it on its own
diagonal and slices no per-start array; row i, F[1], is sliced once per
query that extends.  For plain h every query of start i asks the same
r = R (below), and query j appends the diagonals since the last query
that searched.  An h with gaps asks several r per query, widest first; a
narrower r extends the arrays q <= r further, from the first q whose array
lags, so array lengths never increase with q.  A new F[q], y = i + q - 1,
starts with two states in closed form, up to the query's own count
n = j - i - r + 2 of states per array.  State 0 is the singletons of
[i..y], F[q-1][0] + T[y][y], worth the l1 mass of [i..y] (the singleton
closed form below).  State 1, written when n >= 2 and F[q-1] holds its
state 1, is the better of the only two q-splits of [i..y+1]:
F[q-1][0] + T[y][y+1] and F[q-1][1] + T[y+1][y+1].  So a plain start's
first search, n = 2, computes no state with the kernel.

For the interval [i..j], a family size k puts its first set at
a = max(i, first support index with position >= k).  The exact search over
sizes rests on six exact facts about the tables (an eighth, below, caps the
level route):

* Running max over starts.  Restriction shrinks every level and the fixed
  point, and a size with a > i gives the same candidate for [i..j] as for
  [a..j].  So the value of [i+1..j] is carried, read from the row below,
  and only the sizes with k <= pos[i] are tried at a = i.
* One family size per start, for the plain sizes (k, k), k = 1..n.  A family
  may then drop sets, so every table is the table of a norm and subadditive,
  T[x][y] <= T[x][t] + T[t+1][y]: a finer split never loses, and only the
  largest admissible r <= j - i + 1 is tried, r = min(R, j - i + 1) with
  R = min(pos[i], s).  An h with gaps in its range (``affine:2:0``, most
  tables) demands exactly h(k) sets; its tables are not subadditive and a
  smaller r can win, so the admissible r are searched widest first, as the
  sup bound below allows.
* Singleton closed form.  A split of [a..j] into j - a + 1 groups is the
  singletons, worth the l1 mass of [a..j]; no partition array is filled.
  No split beats the singletons: every entry of every table read, each
  level and the fixed point, for every h, is at most the l1 mass of its
  interval (the sup is, and a family value alpha * sum T[g_t] is at most
  alpha * sum l1(g_t) <= l1(g), by induction over the fill order), so an
  r-split of [a..j] is worth at most the masses of its groups, l1(a..j).
  So when the widest admissible r of an h with gaps is the width
  j - i + 1, the query's value is max(best, alpha * l1) and no partition
  state is touched.  For plain h the singletons cover the widths 2..R of
  start i, filled in one pass without the carry: [i+1..j] admits its
  singletons too, so its value, max(sup, alpha * l1) of a subinterval,
  never beats the singletons of [i..j] or the floor.

The same fact closes a whole vector before any engine is built.  For plain
h in exact mode with pos[0] >= s, the size k = s admits the s singletons of
the whole support, so its norm is max(sup, alpha * l1).
``fixed_point_norm`` returns the first largest |coefficient| itself when
alpha * l1 <= sup, and alpha * l1 as a Fraction otherwise: the engine's
value and type.

Two more facts rest on the sum top_r of the r largest |a_n| in [a..j].  An
h with gaps reads it from a sorted list of the work values of [i..j], grown
as j rises.  Plain h needs only top_R of [i..j], and keeps it running: a
min-heap holds the R largest values, and a new value w that beats the
smallest of them, the R-th largest, replaces it and adds w minus that value
to the sum; any other w leaves the sum as it is.

* Sup bound (Figiel-Johnson).  Every table, each level and the fixed point,
  for every h, satisfies T[g] <= alpha * l1(g) + (1 - alpha) * sup(g): the
  sup table does since sup <= l1, and a family value alpha * sum T[g_t] is
  at most alpha * sum l1(g_t) <= alpha * l1(g) by induction.  Summed over
  the r groups of a split, whose sups are r distinct entries, the split is
  worth at most alpha * l1 + (1 - alpha) * top_r.  So the query (a, j, r)
  is skipped when p * (p * l1 + (q - p) * top_r) <= q * best, with best the
  running max held times q.  The bound grows with r, since top_r does, and
  best only grows.  So an h with gaps tries its admissible r in decreasing
  order and stops at the first r the bound rules out: it rules out every
  narrower r too.  Since top_r <= l1, the bound rules out every r once
  p * l1 <= best, which ends the search before any r is tried.
* Level 1 in closed form.  On the sup table the best split of [a..j] into
  exactly r groups is top_r: the group maxima are r distinct entries, and
  cutting just before the 2nd, ..., r-th of the positions of the r largest
  entries puts one of them in each group and attains the sum.  So the first
  level step fills no partition array, and since top_r grows with r, an h
  with gaps reads only its widest admissible r.

The sixth reads the last query of the start instead:

* Triangle bound, plain h.  Every table read is then the table of a norm,
  so T[x][y] <= T[x][t] + l1(t+1..y) for x <= t < y.  Let j' < j be the last
  query of start i that computed F[R][j'].  Then
  F[R][j] <= F[R][j'] + l1(j'+1..j).  Take a best R-split of [i..j] and its
  last group [x..j].  If x <= j', cutting that group at j' leaves an R-split
  of [i..j'] and loses at most l1(j'+1..j).  Otherwise dropping (j'..x-1]
  from the first R - 1 groups leaves a split of [i..j'] into at most R - 1
  groups and loses at most l1(j'+1..x-1); a finer split never loses, and
  [i..j'] has more than R entries, so an R-split of [i..j'] is worth as
  much; the last group is worth at most l1(x..j).  So, after the sup bound,
  the query j is skipped when p * (F[R][j'] + l1(j'+1..j)) <= best, with
  best held times q as above.

Float mode uses none of the second to sixth, nor the eighth below, and no
bound at all: rounding can put a sum an ulp above or below one it provably
dominates, so a single size, a bound or a closed form could change the last
bits.  It fills by right end, then by decreasing start, forming each sum as
the full search does, so an entry is the fresh norm of its interval, bit for
bit, however far the engine's vector reaches on either side.  For the same
reason it keeps per-right-end arrays: they add a split's groups
right-nested, first group plus the best split of the rest, and per-start
arrays would add them left-nested, which can round differently.  For the
right end j, rows[q][x] is the best split of [x..j] into q groups, computed
once per right end.  A state reads its first groups from the row suffix
table[x][x:], kept for the whole fill.  A state's value does not depend on
when it is computed, so the sums, and their bits, are those of the full
search.  The first fact holds in float mode too, bit for bit, since every
work value is a float:

* Running max over starts, float.  IEEE 754 round-to-nearest is monotone:
  x <= x' gives fl(x + y) <= fl(x' + y) and fl(p * x) <= fl(p * x').  So
  every float table read is nonincreasing in its start, bit for bit, by
  induction over the fill order and over the levels.  The sup table is.  If
  the entries a fill reads are, then rows[q][x] >= rows[q][x + 1]: each
  term T[x][t] + rows[q - 1][t + 1] of x is at least the term of x + 1 for
  the same t, since T[x][t] >= T[x + 1][t].  A candidate of [i+1..j] with
  a size whose first admitted start is past i is the same candidate in
  [i..j]; one with k <= pos[i] sits at i + 1 and is at most the same
  size's candidate at i; and the floor of [i+1..j] is at most that of
  [i..j].  So the value of [i..j] is the max of its floor, the value of
  [i+1..j] and p * rows[r][i] over the sizes with k <= pos[i] and
  r <= j - i + 1, and it is at least the value of [i+1..j], which carries
  the induction on.  max is exact and ties are equal floats, so the value
  has the bits of the search over every size at its own start.  Each start
  fills its states rows[q][i] for q = 2..min(largest r with k <= pos[i],
  j - i + 1) in one pass over q: each reads rows[q - 1] from i + 1 on,
  which the start i + 1 has filled, and no later start needs more.

A seventh fact needs no exact arithmetic, only an exact max and a sum that
does not decrease when an operand grows, and float mode uses it at level 1:

* Level 1 by the next larger entry.  On the sup table S, with S[x][t] the
  first largest of a_x..a_t, rows[q][x] is the first maximum over t of
  S[x][t] + rows[q-1][t+1].  First, every row is nonincreasing in x, bit
  for bit: rows[1][x] = S[x][j] is, and for each t the term of x is at
  least that of x + 1, since S[x][t] >= S[x+1][t] and the sum is monotone.
  Second, let g be the first index after x with a_g > a_x: the sup table's
  bisection finds it when it builds row x, and keeps it.  The terms t in
  [x, g-1] have S[x][t] = a_x, so by the first step t = x is their best;
  for t >= g, S[x][t] is S[g][t], the same object, so those terms are
  those of rows[q][g].  So rows[q][x] = max(a_x + rows[q-1][x+1],
  rows[q][g]), or the first term alone when g is past the row, and a tie
  keeps the first term, as the scan keeps its first maximum.  Each state
  takes one add and one compare, and no row suffix is sliced.  The float
  sum is monotone, since rounding is.  ("Next larger or equal" would do as
  well: a term of rows[q][g] whose largest entry only ties a_x is then
  no larger than the first term, so it never wins.)

The eighth fact caps the exact level route by the fixed-point table F:

* Fixed-point ceiling.  Every level lies below F entrywise, for every h.
  The sup table L_0 is, since F is at least the sup.  The level step, T to
  max(T, alpha * best admissible split over T), is monotone in T, and F is
  a fixed point of it (F is at least alpha times its own best split), so
  L_m <= F gives L_m+1 <= F.  Levels do not decrease either, so an entry
  with L_m[g] = F[g] keeps that value at every later level, and a table
  equal to F repeats.  So from level 2 on the fill reads F, filled once
  through ``fixed_point_table`` before the first level >= 2, as its
  ceiling: an entry whose floor (the previous level) or carry (the next
  level's [i+1..j], itself at most the entry) already equals F's entry is
  written without a search, which could only return a value between the
  two.  A level that equals F is repeated as the next level without a
  fill.  A level equals the next exactly when it equals F, the unique
  solution of the fixed-point equation, so the route stops where the full
  fills stop.  Level 1 runs no search, so ``level_tables(m)`` with m < 2
  fills no F; the columns of the table read are built only once a fill
  has to search.

On the level route a float fill carries work from one level to the next.  A
state rows[q][x] for the right end j reads only strict subintervals of
[x..j].  Let X_j be the largest start x with a strict subinterval of [x..j]
whose entry differs between the table read and the one the previous level
read: the larger of the largest a over changed entries [a..b] with b < j,
and the largest a with [a..j] changed, minus one.  A state with x > X_j reads
the same floats as at the previous level, so it is taken from the arrays
that level left for the same j; the starts x <= X_j fill their states
again.  A query [i..j] with i > X_j writes its floor
table[i][j] and runs no search, and that is its value bit for bit.  Its
candidates are those it had at the previous level, whose search returned
table[i][j] from a floor no larger, so they are all at most table[i][j] and
the search would keep its floor.  Level 1 and the fixed-point route carry
nothing, and once a level changes no entry the next would repeat it, so the
route stops there.  The arrays carried are the previous level's only, and
only their rows that hold a state; the next level reuses those rows in
place.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from heapq import heapify, heappushpop
from fractions import Fraction
from itertools import accumulate
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .core import (
    ORACLE_SUPPORT_LIMIT,
    BudgetError,
    CertificateError,
    ConfigurationError,
    FiniteVector,
    Frozen,
    HFunction,
    Number,
    is_exact,
    scaled_ints,
)


# ---------------------------------------------------------------------------
# Admissible families


class AdmissibilityResult(Frozen):
    reason: str = "ok"

    def __bool__(self) -> bool:
        return self.reason == "ok"

    ok = property(__bool__)


def _ordering_problem(sets: Sequence[Tuple[int, ...]]) -> Optional[str]:
    if not sets:
        return "empty-family"
    for s in sets:
        if not s:
            return "empty-set"
        if any(n < 1 for n in s):
            return "bad-position"
    for left, right in zip(sets, sets[1:]):
        if max(left) >= min(right):
            return "not-increasing"
    return None


def is_admissible(
    family: Iterable[Iterable[int]], h: Optional[HFunction] = None
) -> AdmissibilityResult:
    """Check the ordering and cardinality/min constraints of a family of
    position sets.  The parameter k is the one with h(k) = len(family)
    (k = len(family) without h)."""
    sets = tuple(tuple(sorted(s)) for s in family)
    problem = _ordering_problem(sets)
    if problem:
        return AdmissibilityResult(problem)
    if h is not None and h.inverse(len(sets)) is None:
        return AdmissibilityResult("size-not-in-h-range")
    if not _admissible(len(sets), min(sets[0]), h):
        return AdmissibilityResult("min-violation")
    return AdmissibilityResult()


def _admissible(r: int, min_pos: int, h: Optional[HFunction]) -> bool:
    """Is a family of r sets whose first set starts at min_pos admissible?"""
    # h is strictly increasing, so the one k with h(k) == r is h.inverse(r);
    # finding it that way never evaluates h outside its domain.
    k = r if h is None else h.inverse(r)
    return k is not None and k <= min_pos


# ---------------------------------------------------------------------------
# Level traces


class LevelTrace(Frozen):
    """Level norms up to stabilization: pairs (m, ||x||_m)."""

    levels: Tuple[Tuple[int, Number], ...]

    @property
    def stabilization_level(self) -> int:
        """The first m with ||x||_m == ||x||_m+1, or the last level if none."""
        pairs = zip(self.levels, self.levels[1:])
        return next((m for (m, a), (_, b) in pairs if a == b), self.levels[-1][0])


# ---------------------------------------------------------------------------
# The interval dynamic program


class TsirelsonEngine:
    """Interval DP state for one coefficient vector.

    Works on the compressed support (zero runs collapse); intervals are
    support-index ranges, while admissibility constraints use the actual
    1-based positions.  The tables hold work units: scaled integers in exact
    mode, the values themselves in float mode (see the module docstring).
    """

    def __init__(self, alpha: Number, v: FiniteVector, h: Optional[HFunction] = None):
        if not (0 < alpha < 1):
            raise ConfigurationError("alpha must lie in (0,1)")
        self.alpha = alpha
        self.pos: Tuple[int, ...] = v.support
        self._values = v.values
        s = len(self.pos)
        scaled = scaled_ints(v.values) if is_exact(alpha) else None
        if scaled is not None:
            self._p, self._q = alpha.numerator, alpha.denominator
            ints, lcm, _ = scaled
            unit = self._q ** max(s - 1, 0)
            self._scale: Optional[int] = lcm * unit
            self._work: List[Number] = list(map(unit.__mul__, map(abs, ints)))
            self._abs_prefix = list(accumulate(self._work, initial=0))
        else:
            # Float mode reads every value, and alpha, as a double, as the
            # oracle does; an exact value past the double range overflows.
            self._p, self._q = float(alpha), 1
            self._scale = None
            self._work = list(map(float, map(abs, v.values)))
        # The family sizes (k, r = h(k)), by increasing k.  Like the oracle,
        # a table h admits no family for a k it has no entry for.
        sizes = [(k, k) for k in range(1, s + 1)] if h is None else h.sizes(s)
        ks = [k for k, _ in sizes]
        self._r = [r for _, r in sizes]
        # How many sizes have k <= pos[i], and how many r <= w (h is strictly
        # increasing, so both are prefixes of the sizes).
        self._cut = [bisect_right(ks, n) for n in self.pos]
        self._fit = [bisect_right(self._r, w) for w in range(s + 1)]
        # Sizes (t, t) for t = 1..n: one family size per start suffices.
        self._plain = all(k == r == t for t, (k, r) in enumerate(sizes, 1))
        self._sup = self._sup_table()
        self._fixed: Optional[List[List[Number]]] = None

    # -- shared pieces

    def _sup_table(self) -> List[List[Number]]:
        """The sup of every interval [i..j]: the first largest work value.

        Row i is a_i up to the first later entry larger than a_i, and row
        i + 1 from there on; that entry is found by bisection, since row
        i + 1 does not decrease, and kept as self._nge[i] (s if none) for
        the float level 1."""
        work = self._work
        s = len(work)
        rows, below, self._nge = [], [0] * s, [0] * s
        for i in range(s - 1, -1, -1):
            a = work[i]
            self._nge[i] = t = bisect_right(below, a, i + 1)
            below = [0] * i + [a] * (t - i) + below[t:]
            rows.append(below)
        rows.reverse()
        return rows

    def _number(self, raw: Number, i: int, j: int) -> Number:
        """The value a work-unit entry of interval [i..j] stands for.

        A value equal to the sup is the first largest |coefficient| object
        itself (an int stays an int); any other exact value is a Fraction.
        """
        if self._scale is None:
            return raw
        if raw == self._sup[i][j]:
            return abs(self._values[self._work.index(raw, i, j + 1)])
        return Fraction(raw, self._scale)

    def _to_numbers(self, table: List[List[Number]]) -> List[List[Number]]:
        # As _number entry by entry; entries below the diagonal stay 0.
        if self._scale is None:
            return table
        return [
            [0] * i + [self._number(row[j], i, j) for j in range(i, len(row))]
            for i, row in enumerate(table)
        ]

    @staticmethod
    def _split(F, cols, table, i: int, j: int, r: int) -> Number:
        # Exact mode.  The best split of [i..j] into r groups, from the
        # per-start arrays of the module docstring: F[q][k] is the state
        # (q, i + q - 1 + k), and F[1] is row i from i up to j - 1.  The query
        # needs the first n = j - i - r + 2 states of each F[q], q = 2..r.
        # State k of F[q] pairs the first k + 1 states of F[q - 1] with its
        # column slice (map stops at the shorter), so it is appended after
        # state k of F[q - 1].  Only row entries y < j and column entries
        # x > i are read: strict subintervals of [i..j].  (Kept short: in a
        # short function tracemalloc, which looks up the line of every
        # allocation, stays cheap.)
        n = j - i - r + 2
        if len(F) <= r or len(F[r]) < n:
            F[1] = table[i][i:j]
            if len(F) <= r:
                TsirelsonEngine._new_arrays(F, table, i, r, n)
            # Lengths never increase with q, so the arrays lacking state k are
            # F[first..r]; all of them lag from the start if F[2] does.
            first = 2 if len(F[2]) == len(F[r]) else r
            for k in range(len(F[r]), n):
                while first > 2 and len(F[first - 1]) <= k:
                    first -= 1
                xs = range(i + first - 1, i + r)  # state (q, x + k) reads cols[x + k][x:]
                for lower, Fq, x in zip(F[first - 1 : r], F[first : r + 1], xs):
                    Fq.append(max(map(add, lower, cols[x + k][x:])))
        return F[r][n - 1]

    @staticmethod
    def _new_arrays(F, table, i: int, r: int, n: int) -> None:
        # Appends F[len(F)..r] with their closed states 0 and 1 (module
        # docstring).  State 1 only when n >= 2, so no closed state reads
        # past column j, and only when F[q - 1] holds its state 1, so
        # lengths never increase with q.
        for y in range(i + len(F) - 1, i + r):  # y = i + q - 1 for the new F[q]
            lower, d = F[-1], table[y]
            Fq = [lower[0] + d[y]]
            if n > 1 and len(lower) > 1:
                Fq.append(max(lower[0] + d[y + 1], lower[1] + table[y + 1][y + 1]))
            F.append(Fq)

    # -- the two fills
    #
    # Each fills ``out`` with the next table: for every interval g,
    # max(floor(g), alpha * best admissible-family sum over ``table``).  On the
    # fixed-point route ``table`` is ``out`` itself, read while it is filled,
    # and the floor is the sup.  On the level route ``table`` is the previous,
    # complete level, which is also the floor.  Families whose sets are
    # consecutive index intervals suffice here (production search); gaps
    # never help because restriction shrinks the norm.  Single-set families
    # are skipped: they contribute at most alpha times the previous value.
    # Both orders fill every strict subinterval of an interval before the
    # interval itself.

    def _fill_exact(self, table, out, ceiling=None) -> None:
        # Start-major, with the per-start arrays of the module docstring; the
        # row of a start past its diagonal is filled by _plain_row or _gap_row.
        # Their running max is kept multiplied by q, so alpha = p/q costs one
        # multiplication by p per candidate and no division until the end.
        # A level fill may pass the fixed-point table as ``ceiling``: an entry
        # whose floor or carry already equals it is written without a search.
        s = len(self.pos)
        live = table is out
        floors = self._sup if live else table
        level_one = table is self._sup
        fill_row = self._plain_row if self._plain else self._gap_row
        # The table as column lists, cols[y][x] = table[x][y], built by
        # _columns at the fill's first search.  _split reads only column
        # entries x > i, whose rows are complete by then; on the fixed-point
        # route each row finished after that is copied in.
        cols = []
        for i in range(s - 1, -1, -1):
            row, floor = out[i], floors[i]
            below = out[i + 1] if i + 1 < s else []
            row[i] = floor[i]
            cap = ceiling[i] if ceiling is not None else None
            fill_row(table, cols, floor, below, row, i, level_one, cap)
            if live and cols:
                for y in range(i, s):
                    cols[y][i] = row[y]

    @staticmethod
    def _columns(table, cols):
        # The table read by a fill as column lists, built in place the first
        # time a query of the fill searches.
        if not cols:
            cols += [[row[y] for row in table[: y + 1]] for y in range(len(table))]
        return cols

    def _plain_row(self, table, cols, floor, below, row, i, level_one, cap) -> None:
        # Exact mode, plain h: row i of the next table past its diagonal.
        # Start i admits the one size R.  Widths 2..R are the singletons (no
        # carry needed, see the module docstring); each wider query j that
        # searches reads the state (R, j), the last of F[R], once _split has
        # appended the diagonals after ``last``, the query that searched
        # before it.  ``top`` is a min-heap of the R largest work values of
        # [i..j] and ``total`` their sum, top_R.
        s = len(row)
        p, q = self._p, self._q
        prefix, work, base = self._abs_prefix, self._work, self._abs_prefix[i]
        R = self._cut[i]
        stop = min(i + R, s)
        if stop > i + 1:  # empty slice work costs a fill at s = 2-3 about 30%
            row[i + 1 : stop] = map(
                max, floor[i + 1 : stop], [p * (x - base) // q for x in prefix[i + 2 : stop + 1]]
            )
        if stop == s:
            return  # no wider query
        if R < 2:  # no family of two or more sets starts at i
            row[stop:] = map(max, floor[stop:], below[stop:])
            return
        top = work[i:stop]
        heapify(top)
        total = sum(top)
        F, last = [None, []], None  # no query has searched yet
        for j in range(stop, s):
            w = work[j]
            total += w - heappushpop(top, w)  # w itself unless it beats the R-th largest
            lower = max(floor[j], below[j])  # or [i+1..j]'s value
            if cap is not None and lower == cap[j]:
                row[j] = lower  # the fixed-point ceiling
                continue
            best = q * lower
            mass = p * (prefix[j + 1] - base)
            if mass > best:
                if level_one:
                    best = max(best, p * total)
                elif p * (mass + (q - p) * total) > q * best and (  # the sup bound
                    last is None or p * (F[R][-1] + prefix[j + 1] - prefix[last + 1]) > best
                ):  # the triangle bound from the last query
                    split = self._split(F, self._columns(table, cols), table, i, j, R)
                    last = j
                    best = max(best, p * split)
            row[j] = best // q

    def _gap_row(self, table, cols, floor, below, row, i, level_one, cap) -> None:
        # Exact mode, an h with gaps: row i of the next table past its
        # diagonal.  A query tries the admissible r widest first: the
        # singletons and level 1 close it at once, and otherwise the first r
        # that the sup bound rules out ends it (module docstring).
        s = len(row)
        p, q = self._p, self._q
        prefix, work, base, fit = self._abs_prefix, self._work, self._abs_prefix[i], self._fit
        cut = self._cut[i]
        rs = self._r[:cut]  # the sizes with k <= pos[i]
        column = [work[i]]  # the work values of [i..j], sorted
        F = [None, []]
        for j in range(i + 1, s):
            insort(column, work[j])
            lower = max(floor[j], below[j])  # or [i+1..j]'s value
            if cap is not None and lower == cap[j]:
                row[j] = lower  # the fixed-point ceiling
                continue
            width = j - i + 1
            best = q * lower
            mass = p * (prefix[j + 1] - base)
            n = min(cut, fit[width])  # the admissible r are rs[:n]
            if n and mass > best:
                if rs[n - 1] == width:
                    best = mass  # no split beats the singletons
                elif level_one:
                    best = max(best, p * sum(column[width - rs[n - 1] :]))
                else:
                    for r in reversed(rs[:n]):
                        top = sum(column[width - r :])
                        if r < 2 or p * (mass + (q - p) * top) <= q * best:
                            break  # the sup bound: no r-split or narrower beats best
                        split = self._split(F, self._columns(table, cols), table, i, j, r)
                        best = max(best, p * split)
            row[j] = best // q

    def _fill_float(self, table, out, carried=None):
        # By right end, then by decreasing start, with no bound: every work
        # value is a float, so a query [i..j] takes the max of its floor, the
        # value of [i+1..j] and p times the states at start i over the sizes
        # with k <= pos[i] (the running max over starts, module docstring).
        # That is the full search, bit for bit, so an entry is the fresh
        # norm of its interval wherever the engine starts.
        #
        # For the fixed j, rows[q][x] is the best split of [x..j] into q
        # groups, and rows[1] is column j of the table; on the fixed-point
        # route that is the live column written here, never a copy.  A state
        # takes its first group [x..t] from shifted[x], the suffix
        # table[x][x:], sliced once per fill (on the fixed-point route grown
        # by each column once it is written):
        #
        #     rows[q][x] = max over t of table[x][t] + rows[q - 1][t + 1].
        #
        # rows[q] holds j - q + 2 entries, so map stops at the end of the
        # lower row, rows[q - 1][x + 1:].  _start_states fills the states of
        # start i for q = 2..min(reach[i], j - i + 1), reach[i] the largest r
        # that start i admits, each from rows[q - 1] at i + 1 on, which start
        # i + 1 has filled.  reach does not decrease along the starts, so
        # rows[q] holds a state at each start x <= j - q + 1 with
        # reach[x] >= q, and holds one at all exactly when
        # reach[j - q + 1] >= q: the rows with a state are rows[2..depth],
        # and no other row is made.  Only table[x][t] with t < j and column
        # entries x > i are read: strict subintervals of [i..j].
        #
        # Level 1 reads the sup table, and there a state takes one step from
        # the first later entry larger than its own, nge[x] (module
        # docstring): rows[q][x] = max(a_x + rows[q - 1][x + 1], rows[q][g])
        # with g = nge[x], the index _sup_table's bisection found, or the
        # first term alone when g is past the row.
        # No suffix is sliced there: shifted holds the work values a_x.
        #
        # On the level route the fill returns, per right end j, the largest
        # start of an entry [a..j] it changed (-1 if none) and the rows that
        # hold a state, rows[2..depth].  The next level passes them back as
        # ``carried``: above thresh, the X_j of the module docstring, its
        # states are kept and its queries return their floor.  Without
        # ``carried`` every query below the diagonal searches and every row
        # starts empty.
        s = len(self.pos)
        p, rs, fit, plain = self._p, self._r, self._fit, self._plain
        live = table is out
        floors = self._sup if live else table
        nge = self._nge if table is self._sup else None
        # The largest r each start admits (h is increasing), and how many r
        # are < 2.
        reach = [rs[c - 1] if c else 0 for c in self._cut]
        one = bisect_left(rs, 2)
        if live:
            shifted = [[] for _ in range(s)]
        elif nge is None:
            shifted = [row[x:] for x, row in enumerate(table)]
        else:
            shifted = self._work
        moved, kept = [], []
        seen = -1  # the largest start of a changed entry [a..b] with b < j
        for j in range(s):
            depth = min(reach[j], j + 1)  # rows[2..depth] hold a state (above)
            while depth >= 2 and reach[j - depth + 1] < depth:
                depth -= 1
            if live:
                col = [0] * (j + 1)  # column j of out
                col[j] = floors[j][j]
                rows = [None, col]
            else:
                rows = [None, [table[x][j] for x in range(j + 1)]]
                col = rows[1][:]  # starts at the floors
            if carried is None:
                thresh = j - 1
            else:
                thresh = max(seen, carried[0][j] - 1)
                seen = max(seen, carried[0][j])
                rows += carried[1][j]
            rows += [[0] * (j - q + 2) for q in range(len(rows), depth + 1)]
            for i in range(thresh, -1, -1):
                best, width = floors[i][j], j - i + 1
                if col[i + 1] > best:
                    best = col[i + 1]  # the value of [i+1..j]
                most = reach[i] if reach[i] < width else width
                if most >= 2:
                    state = self._start_states(rows, shifted, nge, i, most)
                    if not plain:  # the largest state of an admissible r
                        state = max([rows[r][i] for r in rs[one : fit[most]]], default=0.0)
                    cand = p * state
                    if cand > best:
                        best = cand
                col[i] = best
            for x, value in enumerate(col):
                out[x][j] = value
            if live:
                for suffix, value in zip(shifted, col):
                    suffix.append(value)
            else:
                moved.append(next((i for i in range(thresh, -1, -1) if col[i] != rows[1][i]), -1))
                kept.append(rows[2:])
        return moved, kept

    @staticmethod
    def _start_states(rows, shifted, nge, i, depth) -> float:
        # Float mode: the states rows[q][i], q = 2..depth, in one pass over
        # q, and the largest of them.  Each reads rows[q - 1] from i + 1 on,
        # which the start i + 1, or the previous level, has filled.  At
        # level 1 (nge given) each takes the one step of _fill_float;
        # rows[q] reaches g for q <= edge.
        top = 0.0
        if nge is None:
            suffix = shifted[i]
            for lower, row in zip(rows[1:depth], rows[2 : depth + 1]):
                row[i] = state = max(map(add, suffix, lower[i + 1 :]))
                if state > top:
                    top = state
        else:
            a, g = shifted[i], nge[i]
            edge = len(rows[1]) - g
            for q, lower, row in zip(range(2, depth + 1), rows[1:depth], rows[2 : depth + 1]):
                state = a + lower[i + 1]
                if q <= edge and row[g] > state:
                    state = row[g]
                row[i] = state
                if state > top:
                    top = state
        return top

    # -- fixed-point route (no level trace)

    def fixed_point_table(self, *, _work_units: bool = False) -> List[List[Number]]:
        """Final norms of every interval restriction.

        Solves the implicit equation directly: on each interval the norm is
        the max of the sup of coefficients and alpha times the best admissible
        split into strictly shorter intervals, filled in place.  The filled
        table is kept in work units and converted on each call; the engine's
        own readers pass ``_work_units=True`` and convert only the entry they
        read (with ``_number``).
        """
        if self._fixed is None:
            s = len(self.pos)
            table = [[0] * s for _ in range(s)]
            if self._scale is None:
                self._fill_float(table, table)
            else:
                self._fill_exact(table, table)
            self._fixed = table
        return self._fixed if _work_units else self._to_numbers(self._fixed)

    def fixed_point_norm(self) -> Number:
        return self.interval_norm(1, self.pos[-1]) if self.pos else 0

    def interval_norm(self, lo_pos: int, hi_pos: int) -> Number:
        """Norm of the restriction to positions in [lo_pos, hi_pos]."""
        s = len(self.pos)
        i = bisect_left(self.pos, lo_pos)
        j = bisect_left(self.pos, hi_pos + 1) - 1
        if i > j or i >= s:
            return 0
        return self._number(self.fixed_point_table(_work_units=True)[i][j], i, j)

    # -- level route (Def-style recursion with trace)

    def _work_level_tables(self, m: int) -> List[List[List[Number]]]:
        # An exact route reads the fixed-point table from level 2 on: every
        # level lies below it, and a level equal to it is repeated unfilled
        # (the eighth fact of the module docstring).
        s = len(self.pos)
        tables = [self._sup]
        carried = ceiling = None
        for level in range(1, m + 1):
            if self._scale is not None and level == 2:
                ceiling = self.fixed_point_table(_work_units=True)
            if ceiling is not None and tables[-1] == ceiling:
                tables.append(tables[-1])
                break
            # every value read comes from the previous, complete level
            nxt = [[0] * s for _ in range(s)]
            if self._scale is None:
                # the fill reports, per right end, the last start it changed
                carried = self._fill_float(tables[-1], nxt, carried)
                settled = max(carried[0], default=-1) < 0
            else:
                self._fill_exact(tables[-1], nxt, ceiling)
                settled = nxt == tables[-1]
            tables.append(nxt)
            if settled:
                break  # table-wide fixed point; later levels repeat
        return tables

    def level_tables(self, m: int) -> List[List[List[Number]]]:
        # A final level equal to the fixed point is the previous table again:
        # it is converted once, and the list holds the converted table twice.
        numbers, prev = [], None
        for t in self._work_level_tables(m):
            numbers.append(numbers[-1] if t is prev else self._to_numbers(t))
            prev = t
        return numbers

    def norm_with_trace(self) -> Tuple[Number, LevelTrace]:
        s = len(self.pos)
        if s == 0:
            return 0, LevelTrace(levels=((0, 0),))
        tables = self._work_level_tables(s + 1)
        if len(tables) >= 2 and tables[-1] != tables[-2]:
            raise AssertionError("level recursion did not stabilize within |support| levels")
        values = [self._number(t[0][s - 1], 0, s - 1) for t in tables]
        return values[-1], LevelTrace(levels=tuple(enumerate(values)))


def norm(
    alpha: Number, h: Optional[HFunction], v: FiniteVector
) -> Tuple[Number, LevelTrace]:
    """The fixed-point norm ||v|| together with its level trace."""
    return TsirelsonEngine(alpha, v, h).norm_with_trace()


def fixed_point_norm(
    alpha: Number, v: FiniteVector, h: Optional[HFunction] = None
) -> Number:
    """The fixed-point norm without trace bookkeeping (production path).

    Plain h in exact mode with pos[0] >= s takes the closed form of the
    module docstring, max(sup, alpha * l1), with the engine's types."""
    if not 0 < alpha < 1:
        raise ConfigurationError("alpha must lie in (0,1)")
    pos = v.support
    # exact mode is the engine's test: alpha exact, and every value's type
    # int or Fraction (scaled_ints)
    if (h is None and pos and pos[0] >= len(pos) and is_exact(alpha)
            and {int, Fraction}.issuperset(map(type, v.values))):
        values = list(map(abs, v.values))
        sup, mass = max(values), alpha * sum(values)  # max keeps the first largest
        return sup if mass <= sup else mass
    return TsirelsonEngine(alpha, v, h).fixed_point_norm()


def prefix_norms(
    alpha: Number,
    v: FiniteVector,
    prefixes: Sequence[int],
    h: Optional[HFunction] = None,
) -> List[Number]:
    """Norms of the prefix restrictions v|[1..K] for each K, sharing one DP."""
    engine = TsirelsonEngine(alpha, v, h)
    return [engine.interval_norm(1, K) for K in prefixes]


# ---------------------------------------------------------------------------
# Norm certificates


class CertificateNode(Frozen):
    """One node of a norm certificate.

    A leaf (no children) marks level-0 evaluation on its restriction.  An
    internal node carries an admissible family: the children's restrictions
    are the family's sets, and its k is the one with h(k) = len(children).
    """

    restriction: Tuple[int, ...]
    children: Tuple["CertificateNode", ...] = ()

    @staticmethod
    def leaf(positions: Iterable[int]) -> "CertificateNode":
        return CertificateNode(tuple(sorted(positions)))

    @staticmethod
    def internal(
        positions: Iterable[int], children: Iterable["CertificateNode"]
    ) -> "CertificateNode":
        return CertificateNode(tuple(sorted(positions)), tuple(children))


def _evaluate_node(
    node: CertificateNode,
    alpha: Number,
    h: Optional[HFunction],
    v: FiniteVector,
    path: str,
) -> Number:
    if not node.children:
        return max((abs(v.coefficient(n)) for n in node.restriction), default=0)
    sets = tuple(child.restriction for child in node.children)
    for idx, s in enumerate(sets):
        if not set(s) <= set(node.restriction):
            raise CertificateError(
                f"node {path}: child {idx} escapes its parent's restriction"
            )
    result = is_admissible(sets, h)
    if not result:
        raise CertificateError(f"node {path}: inadmissible family ({result.reason})")
    total = 0
    for idx, child in enumerate(node.children):
        total = total + _evaluate_node(child, alpha, h, v, f"{path}.{idx}")
    return alpha * total


def certificate_lower_bound(
    alpha: Number,
    h: Optional[HFunction],
    v: FiniteVector,
    root: CertificateNode,
) -> Number:
    """Evaluate one explicit choice path, given by its root node, through
    the nested maxima.

    The value is a guaranteed lower bound for norm(alpha, h, v).
    """
    if not (0 < alpha < 1):
        raise ConfigurationError("alpha must lie in (0,1)")
    return _evaluate_node(root, alpha, h, v, "root")


# ---------------------------------------------------------------------------
# Brute-force oracle


def _is_run(mask: int) -> bool:
    """Are the bits of a nonzero mask consecutive?"""
    return mask & (mask + (mask & -mask)) == 0


def _families(
    positions: Tuple[int, ...], h: Optional[HFunction], shape: str
) -> Dict[int, Tuple[Tuple[int, ...], ...]]:
    """Admissible families by union, as tuples of block masks.

    Each family is listed once, under the mask of its union; a mask that is
    the union of no admissible family has no key.  Shape "subsets" keeps
    every family of sets; shape "intervals" keeps those whose every set is a
    run: the traces of integer intervals.  With every size admissible, a
    union of w points holds 2^(w-1) families, so s points hold (3^s - 1)/2
    in all.  Nothing is kept: each call builds its table, and the interval
    shape filters a subset table that it builds itself.
    """
    if shape == "intervals":
        traces = {}
        for union_mask, fams in _families(positions, h, "subsets").items():
            kept = tuple(fam for fam in fams if all(map(_is_run, fam)))
            if kept:
                traces[union_mask] = kept
        return traces
    s = len(positions)
    # splits[U]: every split of U's bits, in increasing order, into
    # consecutive nonempty blocks: U itself, or a proper prefix of U's bits
    # followed by a split of the rest, a smaller mask.
    splits: List[List[Tuple[int, ...]]] = [[]]
    per_union: Dict[int, Tuple[Tuple[int, ...], ...]] = {}
    for union_mask in range(1, 1 << s):
        comps = [(union_mask,)]
        prefix, rest = 0, union_mask
        while True:
            low = rest & -rest
            prefix |= low
            rest ^= low
            if not rest:
                break
            comps.extend([(prefix,) + c for c in splits[rest]])
        splits.append(comps)
        min_pos = positions[(union_mask & -union_mask).bit_length() - 1]
        fams = tuple(c for c in comps if _admissible(len(c), min_pos, h))
        if fams:
            per_union[union_mask] = fams
    return per_union


def oracle_norm(
    alpha: Number,
    v: FiniteVector,
    h: Optional[HFunction] = None,
    family_shape: str = "subsets",
) -> Number:
    """Exact norm by exhaustive recursion over admissible families.

    Level tables over restriction subsets are iterated until they reach a
    fixed point.  Exponential in the support size; refuses supports above
    ORACLE_SUPPORT_LIMIT before it builds any table.  A family of r sets is
    admissible when k <= min E_1 for the k with h(k) = r (k = r without h).
    ``family_shape`` selects families of arbitrary subsets (the literal
    definition) or, as a filter of those, of integer-interval traces on run
    restrictions.

    Each level sums every admissible family explicitly, blocks left to
    right, and keeps each union's best sum; a restriction's best is then
    the max over its submasks, one pass over the masks in increasing order.
    No value comes from a split recursion, so the oracle stays independent
    of the DP.  Each call builds its own family table and drops it when it
    returns, so a repeat on the same support pays the build again.
    """
    if not (0 < alpha < 1):
        raise ConfigurationError("alpha must lie in (0,1)")
    if family_shape not in ("subsets", "intervals"):
        raise ConfigurationError(f"unknown family shape {family_shape!r}")
    positions = v.support
    s = len(positions)
    if s == 0:
        return 0
    if s > ORACLE_SUPPORT_LIMIT:
        raise BudgetError(
            f"oracle support {s} exceeds the oracle limit {ORACLE_SUPPORT_LIMIT}; "
            "the search is exponential by design"
        )
    families = _families(positions, h, family_shape)
    coeffs = [abs(a) for a in v.values]

    exact = scaled_ints(coeffs) if is_exact(alpha) else None
    if exact is not None:
        a_num, a_den = alpha.numerator, alpha.denominator
        scaled, lcm, _ = exact
    else:
        a_num, a_den = alpha, 1
        lcm = 1
        scaled = [float(c) for c in coeffs]

    size = 1 << s
    if family_shape == "subsets":
        masks = range(1, size)
    else:
        masks = [mask for mask in range(1, size) if _is_run(mask)]
    level = [0] * size
    for mask in masks:
        best = 0
        for t in range(s):
            if mask & (1 << t) and scaled[t] > best:
                best = scaled[t]
        level[mask] = best

    rounds = 0
    while True:
        # inner[mask]: the best family sum over the families whose union lies
        # in mask.  First each union's own best, then, masks in increasing
        # order, the max over the masks one bit smaller, which already hold
        # theirs.
        inner = [0] * size
        for union_mask, fams in families.items():
            top = 0
            for fam in fams:
                total = 0
                for block in fam:
                    total += level[block]
                if total > top:
                    top = total
            inner[union_mask] = top
        for mask in range(1, size):
            top = inner[mask]
            rest = mask
            while rest:
                low = rest & -rest
                sub = inner[mask ^ low]
                if sub > top:
                    top = sub
                rest ^= low
            inner[mask] = top
        nxt = [0] * size
        changed = False
        for mask in masks:
            base = a_den * level[mask]
            cand = a_num * inner[mask]
            value = base if base >= cand else cand
            nxt[mask] = value
            if value != base:
                changed = True
        level = nxt
        rounds += 1
        if not changed:
            break
        if rounds > s + 1:
            raise AssertionError("oracle level iteration failed to stabilize")
    raw = level[size - 1]
    if exact is not None:
        return Fraction(raw, lcm * a_den ** rounds)
    return raw / (lcm * 1.0 * a_den ** rounds)
