"""Acceptance suite.

Each test checks one contract end to end and prints a single PASS/FAIL
line (repeated in the terminal summary, where it survives pytest's
output capture).  Exact rational equality is used wherever the
arithmetic permits it; float comparisons state their tolerance inline.
"""
import io
import itertools
from contextlib import redirect_stdout
from fractions import Fraction
from random import Random

from conftest import ACCEPTANCE_LINES

from seqnorms import blocks, classical, cli, ideals, series, tsirelson
from seqnorms.core import (
    FiniteVector,
    GridSpec,
    SpaceSpec,
    WeightSpec,
    quantize_to_grid,
)

HALF = Fraction(1, 2)


def verdict(label: str, ok: bool):
    line = f"{'PASS' if ok else 'FAIL'}  {label}"
    ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, label


def small_coeff_vectors():
    """All vectors on positions 1..6 with coefficients in {0, 1/2, 1, 2}."""
    grid = (0, HALF, 1, 2)
    for combo in itertools.product(grid, repeat=6):
        yield FiniteVector.from_dense(combo)


def random_vector(rng: Random, max_pos: int = 12, max_supp: int = 6) -> FiniteVector:
    pos = sorted(rng.sample(range(1, max_pos + 1), rng.randint(1, max_supp)))
    return FiniteVector.from_pairs(
        (p, Fraction(rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]), rng.randint(1, 4)))
        for p in pos
    )


class TestTsirelsonEngine:
    def test_01_dp_matches_exhaustive_oracle(self):
        ok = True
        for alpha in (Fraction(1, 3), HALF):
            for v in small_coeff_vectors():
                dp = tsirelson.fixed_point_norm(alpha, v)
                if dp != tsirelson.oracle_norm(alpha, v):
                    ok = False
                    break
            if not ok:
                break
        verdict("01 dp-norm equals exhaustive oracle on 4^6 grid, alpha in {1/3, 1/2}", ok)

    def test_02_interval_families_suffice(self):
        ok = True
        for alpha in (Fraction(1, 3), HALF):
            for v in small_coeff_vectors():
                full = tsirelson.oracle_norm(alpha, v, family_shape="subsets")
                ivals = tsirelson.oracle_norm(alpha, v, family_shape="intervals")
                if full != ivals:
                    ok = False
                    break
            if not ok:
                break
        verdict("02 subset families attain no more than interval families", ok)

    def test_03_hand_checked_values(self):
        ok = all(
            tsirelson.fixed_point_norm(HALF, FiniteVector.unit(n)) == 1
            for n in range(1, 65)
        )
        ok &= tsirelson.fixed_point_norm(HALF, FiniteVector.from_dense([1, 1])) == 1
        ok &= tsirelson.fixed_point_norm(HALF, FiniteVector.from_dense([0, 1, 1])) == 1
        ok &= tsirelson.fixed_point_norm(
            HALF, FiniteVector.from_dense([0, 0, 0, 1, 1, 1])
        ) == Fraction(3, 2)
        verdict("03 hand-checked norms (units, t1+t2, t2+t3, t4+t5+t6 = 3/2)", ok)

    def test_04_levels_stabilize_at_support_size(self):
        rng = Random(404)
        ok = True
        for _ in range(1000):
            v = random_vector(rng, max_pos=24, max_supp=12)
            s = len(v.support)
            engine = tsirelson.TsirelsonEngine(HALF, v)
            tables = engine.level_tables(s + 3)
            values = [
                tables[min(m, len(tables) - 1)][0][s - 1] for m in range(s + 4)
            ]
            if any(values[m] != values[s] for m in range(s, s + 4)):
                ok = False
                break
            if values[s] != engine.fixed_point_norm():
                ok = False
                break
        verdict("04 level norms stabilize by level |supp| and stay fixed (+3 levels)", ok)

    def test_06_sandwich_between_sup_and_l1(self):
        rng = Random(606)
        ok = True
        for v in small_coeff_vectors():
            n = tsirelson.fixed_point_norm(HALF, v)
            if not (v.sup() <= n <= v.abs_sum()):
                ok = False
                break
        for _ in range(1000):
            v = random_vector(rng, max_pos=24, max_supp=12)
            n = tsirelson.fixed_point_norm(HALF, v)
            if not (v.sup() <= n <= v.abs_sum()):
                ok = False
                break
        verdict("06 sup |a_n| <= ||x||_T <= sum |a_n| on grid and random vectors", ok)


def _sq(v: FiniteVector) -> Fraction:
    return sum((Fraction(a) ** 2 for a in v.coeffs), Fraction(0))


def _l2_triangle(x, y) -> bool:
    # sqrt(S(x+y)) <= sqrt(S(x)) + sqrt(S(y)), squared twice to stay rational
    a, b, c = _sq(x + y), _sq(x), _sq(y)
    d = a - b - c
    return d <= 0 or d * d <= 4 * b * c


class TestNormAxioms:
    def _exact_norms(self):
        return {
            "tsirelson": lambda v: tsirelson.fixed_point_norm(HALF, v),
            "l1": lambda v: v.abs_sum(),
            "c0": lambda v: v.sup(),
            "lorentz": lambda v: classical.lorentz_norm(WeightSpec.harmonic(), 1, v),
        }

    def test_05_axioms_and_unconditionality(self):
        rng = Random(505)
        orlicz2 = classical.OrliczFunction.power(2)
        ok = True
        for _ in range(1000):
            x = random_vector(rng)
            y = random_vector(rng)
            lam = Fraction(rng.choice([-3, -2, -1, 2, 3]), rng.randint(1, 3))
            top = max(len(x.coeffs), 1)
            signs = [rng.choice((-1, 1)) for _ in range(top)]
            keep = [p for p in x.support if rng.random() < 0.6]
            flipped = x.flip_signs(signs)
            zeroed = x.restrict(keep)

            for normf in self._exact_norms().values():
                nx, ny = normf(x), normf(y)
                if normf(x + y) > nx + ny:
                    ok = False
                if normf(x.scale(lam)) != abs(lam) * nx:
                    ok = False
                if normf(flipped) != nx:
                    ok = False
                if normf(zeroed) > nx:
                    ok = False

            # l2 via exact squared sums
            if not _l2_triangle(x, y):
                ok = False
            if _sq(x.scale(lam)) != lam * lam * _sq(x):
                ok = False
            if _sq(flipped) != _sq(x) or _sq(zeroed) > _sq(x):
                ok = False

            # Orlicz t^2 norm is iterative; 1e-9 absolute slack
            nx = classical.luxemburg_norm(orlicz2, x)
            ny = classical.luxemburg_norm(orlicz2, y)
            if classical.luxemburg_norm(orlicz2, x + y) > nx + ny + 1e-9:
                ok = False
            if abs(classical.luxemburg_norm(orlicz2, x.scale(lam)) - abs(lam) * nx) > 1e-9 * (1 + nx):
                ok = False
            if abs(classical.luxemburg_norm(orlicz2, flipped) - nx) > 1e-9 * (1 + nx):
                ok = False
            if classical.luxemburg_norm(orlicz2, zeroed) > nx + 1e-9:
                ok = False

            if not ok:
                break
        verdict(
            "05 triangle/homogeneity/sign-flip/zeroing on 1000 pairs x 6 spaces", ok
        )


class TestBlockBases:
    def test_07_equivalence_ratio_envelope(self):
        rng = Random(707)
        lo, hi = Fraction(1, 3), Fraction(18)
        ok = True
        for _ in range(500):
            spec = blocks.random_block_spec(rng)
            picks = blocks.random_picks(rng, spec)
            b = FiniteVector.from_pairs(
                (j, Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 2)))
                for j in range(1, spec.block_count + 1)
            )
            check = blocks.cjt_ratio_check(spec, b, picks, alpha=HALF)
            if not (check.passed and lo <= check.ratio <= hi):
                ok = False
                break
        verdict("07 block-basis equivalence ratios stay inside [1/3, 18], 500 samples", ok)


class TestHarmonicSeries:
    def test_08_divergence_witness_with_l2_control(self):
        bounds = []
        ok = True
        for k in range(1, 6):
            bound, cert = series.harmonic_tsirelson_witness(k)
            v = series.harmonic_witness_prefix(k)
            if tsirelson.certificate_lower_bound(HALF, None, v, cert) != bound:
                ok = False
            bounds.append(bound)
        ok &= all(a < b for a, b in zip(bounds, bounds[1:]))
        for k in (1, 2):
            v = series.harmonic_witness_prefix(k)
            ok &= bounds[k - 1] <= tsirelson.fixed_point_norm(HALF, v)
        # same coefficients are square-summable: exact partial sums of
        # 1/(n+1)^2 are increasing, so the N = 4096 value bounds them all
        total = sum(Fraction(1, (n + 1) ** 2) for n in range(1, 4097))
        ok &= total < Fraction(129, 100) ** 2
        verdict(
            "08 harmonic witness bounds grow (certified) while l2 prefixes stay < 1.29",
            ok,
        )


class TestClassicalNorms:
    def test_09_power_orlicz_agrees_with_lp(self):
        rng = Random(909)
        ok = True
        for _ in range(200):
            v = random_vector(rng)
            for p in (1, 1.5, 2, 3):
                M = classical.OrliczFunction.power(p)
                lux = float(classical.luxemburg_norm(M, v, tol=1e-12))
                lp = float(classical.lp_norm(p, v))
                if abs(lux - lp) > 1e-10 * max(lp, 1.0):
                    ok = False
                    break
            if not ok:
                break
        verdict("09 Luxemburg norm of t^p matches lp norm to 1e-10 relative", ok)

    def test_10_lorentz_rearrangement_properties(self):
        rng = Random(1010)
        w = WeightSpec.harmonic()
        ok = True
        for _ in range(200):
            v = random_vector(rng)
            perm = list(range(1, 13))
            rng.shuffle(perm)
            shuffled = FiniteVector.from_pairs(
                (perm[p - 1], v.coefficient(p)) for p in v.support
            )
            if classical.lorentz_norm(w, 1, v) != classical.lorentz_norm(w, 1, shuffled):
                ok = False
                break
            if classical.lorentz_norm(w, 1, v) > classical.lp_norm(1, v):
                ok = False
                break
            # p = 2: compare the pre-root weighted sums exactly
            rearranged = sorted((abs(a) for a in v.coeffs if a != 0), reverse=True)
            weighted = sum(
                Fraction(a) ** 2 * w.weight(i) for i, a in enumerate(rearranged)
            )
            if weighted > _sq(v):
                ok = False
                break
        verdict("10 Lorentz norm is permutation invariant and below lp", ok)


class TestSubmeasures:
    def _pairs(self, seed, count):
        rng = Random(seed)
        return [
            (
                sorted(rng.sample(range(1, 41), rng.randint(0, 6))),
                sorted(rng.sample(range(1, 41), rng.randint(0, 6))),
            )
            for _ in range(count)
        ]

    def test_11_axioms_on_weighted_submeasures(self):
        reciprocal = series.CoefficientGenerator.power(1)
        specs = [
            ideals.SubmeasureSpec.basis_weight(SpaceSpec.tsirelson(HALF), reciprocal),
            ideals.SubmeasureSpec.summable(reciprocal),
        ]
        ok = True
        for spec in specs:
            report = ideals.submeasure_axiom_check(spec, self._pairs(1111, 200))
            ok &= report.passed and report.checked == 200
        verdict("11 submeasure axioms hold on 200 random set pairs (both phi)", ok)

    def test_12_turbulence_split(self):
        reciprocal = series.CoefficientGenerator.power(1)
        summable = ideals.SubmeasureSpec.summable(reciprocal)
        ok = ideals.turbulence_criterion(summable, 200) == ideals.TURBULENT
        ok &= all(
            ideals.phi(summable, [n]) <= Fraction(1, 100) for n in range(100, 201)
        )
        unit_t = ideals.SubmeasureSpec.basis_weight(
            SpaceSpec.tsirelson(HALF), series.CoefficientGenerator.constant(1)
        )
        ok &= ideals.turbulence_criterion(unit_t, 64) == ideals.NOT_TURBULENT
        ok &= all(ideals.phi(unit_t, [n]) == 1 for n in (1, 7, 50))
        verdict("12 singleton weights separate turbulent from non-turbulent phi", ok)

    def test_13_reciprocal_ideal_membership(self):
        reciprocal = series.CoefficientGenerator.power(1)
        ideal = ideals.IdealSpec.summable_ideal(reciprocal)
        squares = ideals.SetGenerator.squares()
        evens = ideals.SetGenerator.evens()
        ok = ideals.membership_verdict(ideal, squares, 1000) == ideals.MEMBER
        ok &= ideals.membership_verdict(ideal, evens, 1000) == ideals.NON_MEMBER
        # the sums behind the verdicts, exactly
        ok &= ideals.phi(ideal.submeasure, squares.members(1, 1000)) <= Fraction(1645, 1000)
        ok &= ideals.phi(ideal.submeasure, evens.members(1, 1000)) > 3
        verdict("13 squares trend into the reciprocal-sum ideal, evens trend out", ok)


class TestQuantization:
    def test_14_grid_contract(self):
        rng = Random(1414)
        grid = GridSpec.dyadic()
        ok = True
        for _ in range(1000):
            n = rng.randint(1, 8)
            v = FiniteVector.from_dense(
                [Fraction(rng.randint(-40, 40), rng.randint(1, 16)) for _ in range(n)]
            )
            n = len(v.coeffs)  # trailing zeros are trimmed and never snapped
            if n == 0:
                continue
            eps = [grid.epsilon_at(i) for i in range(1, n + 1)]
            bounds = [e * Fraction(rng.randint(3, 12), 4) for e in eps]
            q = quantize_to_grid(v, grid, bounds)
            for i in range(1, n + 1):
                x, qi, e, b = v.coefficient(i), q.coefficient(i), eps[i - 1], bounds[i - 1]
                if (qi / e).denominator != 1 or abs(x - qi) >= b:
                    ok = False
                # every admissible multiple with larger magnitude is a violation
                candidates = [
                    m * e
                    for m in range(int((x - b) / e) - 1, int((x + b) / e) + 2)
                    if abs(x - m * e) < b
                ]
                if any(abs(c) > abs(qi) for c in candidates):
                    ok = False
                if any(c == -qi for c in candidates) and qi < 0:
                    ok = False  # tie between +-q must resolve positive
            # an on-grid point with bounds at one grid step maps to itself
            if quantize_to_grid(q, grid, eps) != q:
                ok = False
            if not ok:
                break
        verdict("14 quantizer output: on-grid, strictly in bound, max-|q|, idempotent", ok)


class TestCliContract:
    def _run(self, *argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(argv))
        return code, buf.getvalue()

    def test_15_determinism_and_exit_codes(self, tmp_path):
        ok = True
        a = self._run("blocks", "cjt", "--seed", "17", "--samples", "20")
        b = self._run("blocks", "cjt", "--seed", "17", "--samples", "20")
        c = self._run("blocks", "cjt", "--seed", "18", "--samples", "20")
        ok &= a == b and a[1] != c[1] and a[0] == 0

        vec = tmp_path / "v.txt"
        vec.write_text("3 4")
        ok &= self._run("norm", "lp:p=2", str(vec)) == (0, "# space=lp:p=2\n# mode=exact\nnorm,5,5.0\n")
        code, out = self._run("norm", "banach:p=2", str(vec))
        ok &= code == 2 and out == ""
        code, out = self._run("norm", "lp:p=2", str(tmp_path / "missing.txt"))
        ok &= code == 2 and out == ""

        wide = tmp_path / "wide.txt"
        wide.write_text(" ".join(["1"] * 10))
        code, out = self._run("norm", "tsirelson:alpha=1/2", str(wide), "--budget-support", "5")
        ok &= code == 3 and out == ""
        wider = tmp_path / "wider.txt"  # one point past the oracle's support limit
        wider.write_text(" ".join(["1"] * 13))
        code, out = self._run("oracle", "1/2", str(wider))
        ok &= code == 3 and out == ""

        code, out = self._run(
            "blocks", "lsh", "lp:p=1", "--samples", "10", "--bound", "1/100"
        )
        ok &= code == 5 and "FAIL" in out
        verdict("15 CLI runs are byte-deterministic; exit codes 0/2/3/5 as documented", ok)
