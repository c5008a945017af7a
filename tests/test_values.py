"""Value semantics of the 22 frozen value types.

Each case builds one fixed instance and checks it against the ``repr`` that
the same instance had when the types were dataclasses, so construction,
defaults, ``==``, ``hash``, ``repr`` and the refusal of assignment all stay
what they were.
"""
from fractions import Fraction

import pytest

from seqnorms import cli
from seqnorms.blocks import BlockBasisSpec, CjtCheck, LshReport
from seqnorms.classical import OrliczFunction
from seqnorms.core import (
    INF,
    C0Space,
    ConfigurationError,
    FiniteVector,
    GridSpec,
    HFunction,
    LorentzSpace,
    LpSpace,
    OrliczSpace,
    SpaceSpec,
    TsirelsonSpace,
    WeightSpec,
)
from seqnorms.ideals import AxiomReport, IdealSpec, SetGenerator, SubmeasureSpec
from seqnorms.series import CoefficientGenerator, DominationReport
from seqnorms.tsirelson import AdmissibilityResult, CertificateNode, LevelTrace

HALF = Fraction(1, 2)
H = HFunction("affine", a=2, b=1)
POWER2 = CoefficientGenerator("power", s=2)
SUMMABLE = SubmeasureSpec("summable", LpSpace(1), POWER2)
LEAVES = (CertificateNode((1,)), CertificateNode((2,)))

# (type, the arguments the fixed instance is built from, every field it takes
# as an argument, by name and in order, its repr, one compared field changed)
CASES = [
    (FiniteVector, ((1, 3), (HALF, -2.5)), dict(support=(1, 3), values=(HALF, -2.5)),
     "FiniteVector(support=(1, 3), values=(Fraction(1, 2), -2.5))", dict(values=(HALF, 2.5))),
    (HFunction, ("affine", 2, 1), dict(kind="affine", a=2, b=1, table=()),
     "HFunction(kind='affine', a=2, b=1, table=())", dict(b=2)),
    (GridSpec, (), {}, "GridSpec()", None),
    (WeightSpec, (), {}, "WeightSpec()", None),
    (LpSpace, (Fraction(3, 2),), dict(p=Fraction(3, 2)),
     "LpSpace(p=Fraction(3, 2))", dict(p=2)),
    (C0Space, (), {}, "C0Space(p=inf)", None),
    (TsirelsonSpace, (HALF, H, 64), dict(alpha=HALF, h=H, budget=64),
     "TsirelsonSpace(alpha=Fraction(1, 2), h=HFunction(kind='affine', a=2, b=1, table=()), "
     "budget=64)", dict(h=None)),
    (OrliczSpace, (OrliczFunction("power", p=2), 1e-3),
     dict(orlicz=OrliczFunction("power", p=2), tol=1e-3),
     "OrliczSpace(orlicz=OrliczFunction(kind='power', p=2, knots=()), tol=0.001)",
     dict(orlicz=OrliczFunction("power", p=3))),
    (LorentzSpace, (WeightSpec(), 2), dict(weights=WeightSpec(), p=2),
     "LorentzSpace(weights=WeightSpec(), p=2)", dict(p=3)),
    (AdmissibilityResult, ("min-violation",), dict(reason="min-violation"),
     "AdmissibilityResult(reason='min-violation')", dict(reason="ok")),
    (LevelTrace, (((0, 1), (1, Fraction(3, 2))),), dict(levels=((0, 1), (1, Fraction(3, 2)))),
     "LevelTrace(levels=((0, 1), (1, Fraction(3, 2))))", dict(levels=((0, 1),))),
    (CertificateNode, ((1, 2), LEAVES), dict(restriction=(1, 2), children=LEAVES),
     "CertificateNode(restriction=(1, 2), children=(CertificateNode(restriction=(1,), "
     "children=()), CertificateNode(restriction=(2,), children=())))", dict(children=())),
    (OrliczFunction, ("table", None, ((1, 1), (2, 3))),
     dict(kind="table", p=None, knots=((1, 1), (2, 3))),
     "OrliczFunction(kind='table', p=None, knots=((1, 1), (2, 3)))", dict(knots=((1, 1),))),
    (BlockBasisSpec, ((0, 2, 3), (1, -1, HALF)),
     dict(breakpoints=(0, 2, 3), coefficients=(1, -1, HALF)),
     "BlockBasisSpec(breakpoints=(0, 2, 3), coefficients=(1, -1, Fraction(1, 2)))",
     dict(coefficients=(1, 1, HALF))),
    (CjtCheck, (Fraction(10, 7),), dict(ratio=Fraction(10, 7)),
     "CjtCheck(ratio=Fraction(10, 7))", dict(ratio=1)),
    (LshReport, ((HALF, 1), HALF, True), dict(ratios=(HALF, 1), worst=HALF, passed=True, skipped=0),
     "LshReport(ratios=(Fraction(1, 2), 1), worst=Fraction(1, 2), passed=True, skipped=0)",
     dict(skipped=1)),
    (CoefficientGenerator, ("power", 2), dict(kind="power", s=2, c=None, table=()),
     "CoefficientGenerator(kind='power', s=2, c=None, table=())", dict(s=3)),
    (DominationReport, ("converging-trend", "diverging-trend"),
     dict(dom_verdict="converging-trend", sub_verdict="diverging-trend"),
     "DominationReport(dom_verdict='converging-trend', sub_verdict='diverging-trend')",
     dict(sub_verdict="inconclusive")),
    (SetGenerator, ("dyadic", 3), dict(kind="dyadic", j=3, elements=()),
     "SetGenerator(kind='dyadic', j=3, elements=())", dict(j=4)),
    (SubmeasureSpec, ("summable", LpSpace(1), POWER2),
     dict(source="summable", space=LpSpace(1), f=POWER2, position_map=None),
     "SubmeasureSpec(source='summable', space=LpSpace(p=1), "
     "f=CoefficientGenerator(kind='power', s=2, c=None, table=()), position_map=None)",
     dict(position_map=H)),
    (AxiomReport, (3, ("monotonicity fails at ([1], [2])",)),
     dict(checked=3, violations=("monotonicity fails at ([1], [2])",)),
     "AxiomReport(checked=3, violations=('monotonicity fails at ([1], [2])',))",
     dict(violations=())),
    (IdealSpec, (SUMMABLE, "Fin", "I"), dict(submeasure=SUMMABLE, kind="Fin", name="I"),
     "IdealSpec(submeasure=SubmeasureSpec(source='summable', space=LpSpace(p=1), "
     "f=CoefficientGenerator(kind='power', s=2, c=None, table=()), position_map=None), "
     "kind='Fin', name='I')", dict(name=None)),
]
# The settings that == and hash leave out, and the fields set without an argument.
SETTINGS = {TsirelsonSpace: {"budget"}, OrliczSpace: {"tol"}}
NOT_INIT = {C0Space: dict(p=INF)}

# One argument list per __post_init__ refusal.
REFUSED = [
    (FiniteVector, ((1, 2),), {}),
    (HFunction, ("affine",), dict(a=0)),
    (HFunction, ("table",), dict(table=((2, 1), (1, 3)))),
    (LpSpace, (HALF,), {}),
    (TsirelsonSpace, (1,), {}),
    (OrliczSpace, (None,), {}),
    (LorentzSpace, (WeightSpec(), HALF), {}),
    (OrliczFunction, ("power",), dict(p=HALF)),
    (OrliczFunction, ("table",), {}),
    (BlockBasisSpec, ((0, 2), (0, 0)), {}),
    (CoefficientGenerator, ("power",), {}),
    (SetGenerator, ("dyadic",), {}),
    (SubmeasureSpec, ("basis-weight", LpSpace(1), CoefficientGenerator("constant", c=0)), {}),
    (IdealSpec, (SUMMABLE, "Max"), {}),
]

ids = [case[0].__name__ for case in CASES]


def test_every_value_type_has_a_case():
    assert len({case[0] for case in CASES}) == len(CASES) == 22


@pytest.mark.parametrize("cls, args, fields, text, changed", CASES, ids=ids)
class TestValueSemantics:
    def test_repr_and_construction(self, cls, args, fields, text, changed):
        value = cls(*args)
        assert repr(value) == text
        # the defaults fill what args leave out; all fields by position or by name
        assert cls(*fields.values()) == value == cls(**fields)
        assert {name: getattr(value, name) for name in fields} == fields

    def test_eq_and_hash_read_the_compared_fields(self, cls, args, fields, text, changed):
        a, b = cls(*args), cls(*args)
        assert a == b and not a != b and hash(a) == hash(b)
        every = {**NOT_INIT.get(cls, {}), **fields}
        compared = tuple(v for n, v in every.items() if n not in SETTINGS.get(cls, ()))
        assert hash(a) == hash(compared)
        assert a != compared and a != object()
        if changed is not None:
            other = cls(**{**fields, **changed})
            assert other != a and not other == a

    def test_frozen(self, cls, args, fields, text, changed):
        value = cls(*args)
        name = next(iter(fields), "p")
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name, None))
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert repr(value) == text

    def test_bad_signatures(self, cls, args, fields, text, changed):
        with pytest.raises(TypeError):
            cls(*args, nope=1)
        with pytest.raises(TypeError):
            cls(*fields.values(), 0)
        if args:
            with pytest.raises(TypeError):
                cls(*args, **{next(iter(fields)): args[0]})


@pytest.mark.parametrize("cls, args, kwargs", REFUSED, ids=[r[0].__name__ for r in REFUSED])
def test_post_init_refuses(cls, args, kwargs):
    with pytest.raises(ConfigurationError):
        cls(*args, **kwargs)


def test_required_fields():
    with pytest.raises(TypeError):
        LpSpace()
    with pytest.raises(TypeError):
        DominationReport("converging-trend")


class TestSettings:
    def test_budget_is_left_out_of_eq_and_hash(self):
        assert TsirelsonSpace(HALF, budget=1) == TsirelsonSpace(HALF)
        assert hash(TsirelsonSpace(HALF, budget=1)) == hash(TsirelsonSpace(HALF))
        assert TsirelsonSpace(HALF).budget == TsirelsonSpace.budget == 4096

    def test_tol_is_left_out_of_eq_and_hash(self):
        orlicz = OrliczFunction("power", p=2)
        assert OrliczSpace(orlicz, tol=1e-3) == OrliczSpace(orlicz)
        assert hash(OrliczSpace(orlicz, tol=1e-3)) == hash(OrliczSpace(orlicz))

    def test_cli_tol_default_reads_the_class_default(self):
        assert cli._GLOBAL_DEFAULTS["tol"] == OrliczSpace.tol == 1e-10


class TestSubclasses:
    def test_c0_takes_no_argument(self):
        assert C0Space().p == INF
        with pytest.raises(TypeError):
            C0Space(INF)
        with pytest.raises(TypeError):
            C0Space(p=INF)

    def test_c0_is_not_the_equal_lp_space(self):
        assert C0Space() != LpSpace(INF) and LpSpace(INF) != C0Space()
        assert C0Space() == C0Space()

    def test_plain_space_subclass_sets_attributes(self):
        class Scaled(SpaceSpec):
            def __init__(self, factor):
                self.factor = factor

        space = Scaled(3)
        space.factor = 4
        assert space.factor == 4 and space == space and space != Scaled(4)
