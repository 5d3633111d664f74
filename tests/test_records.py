"""Value semantics of the library's immutable value classes.

Each class is given by an example: its fields in constructor order, and for
each field another value it may take.  The tests check construction (by
position, by keyword, with defaults), equality and hashing field by field,
immutability, the repr, copying and pickling, and that every check a
constructor makes still raises its error with its message.
"""

from __future__ import annotations

import copy
import inspect
import pickle
import re
from fractions import Fraction

import pytest

from logsod import Record
from logsod.complexes import (
    BlowupLog,
    BlowupStep,
    Crossing,
    FixedLocusData,
    NcComplex,
    SimplicialChart,
    SncComplex,
)
from logsod.decompose import DecompositionReport, InvariantAssignment, ReportRow
from logsod.errors import TooManyLabels
from logsod.monoids import KummerExtension, ToricMonoid
from logsod.orders import Character
from logsod.psod import FactorLabel, PsodDescriptor
from logsod.selfcheck import CheckResult, SelfcheckReport

X, A = frozenset(), frozenset({"A"})
M1 = ToricMonoid(2, ((1, 0), (0, 1)))
M2 = ToricMonoid(2, ((1, 0), (1, 2)))
F0, F1 = Fraction(0), Fraction(1)
NODE = Crossing("N", (("A", 1), ("A", 2)))
STEP = BlowupStep("N", 2, "E1")
ROW = ReportRow("D_{A}", 1, 2, 2)
CHECK = CheckResult("c", True, "d")

# (class, its fields in constructor order, another value for each field,
#  the defaults of the fields that have one)
EXAMPLES = [
    (Character, {"p": 1, "q": 3}, {"p": 2, "q": 4}, {}),
    (ToricMonoid, {"ambient_rank": 2, "generators": ()},
     {"ambient_rank": 3, "generators": ((1, 0),)}, {}),
    (KummerExtension,
     {"source": M1, "target_basis": ((F1, F0), (F0, F1)), "root_orders": (1, 1),
      "quotient_invariant_factors": ()},
     {"source": M2, "target_basis": ((Fraction(1, 2), F0), (F0, F1)), "root_orders": (2, 1),
      "quotient_invariant_factors": (2,)},
     {}),
    (SncComplex, {"components": ("A",), "nonempty": frozenset({X, A})},
     {"components": ("A", "B"), "nonempty": frozenset({X})}, {}),
    (Crossing, {"name": "N", "branches": (("A", 1), ("A", 2)), "origin": None},
     {"name": "M", "branches": (("A", 1),), "origin": ("S", 1)},
     {"origin": None}),
    (NcComplex, {"components": ("A",), "crossings": (NODE,), "closure_pairs": (), "ambient_dim": None},
     {"components": ("A", "B"), "crossings": (), "closure_pairs": (("N", "N"),), "ambient_dim": 2},
     {"closure_pairs": (), "ambient_dim": None}),
    (BlowupStep, {"stratum": "N", "codim": 2, "exceptional": "E1"},
     {"stratum": "M", "codim": 3, "exceptional": "E2"}, {}),
    (BlowupLog, {"steps": (STEP,)}, {"steps": ()}, {}),
    (FixedLocusData,
     {"components": ("R1", "R2"), "invariant_factors": (2,), "weights": ((1, 1),),
      "fixed_components": (((1,), frozenset({"R1", "R2"})),)},
     {"components": ("S1", "S2"), "invariant_factors": (3,), "weights": ((0, 1),),
      "fixed_components": ()},
     {}),
    (SimplicialChart, {"monoids": (M1,)}, {"monoids": (M2,)}, {}),
    (FactorLabel,
     {"stratum": A, "character": (Character(1, 2),), "provenance": "GerbeCharacter",
      "zero": False, "first_level": None, "normalized": None},
     {"stratum": X, "character": (Character(0, 1),), "provenance": "BaseStack",
      "zero": True, "first_level": 2, "normalized": (("A", 1),)},
     {"zero": False, "first_level": None, "normalized": None}),
    (PsodDescriptor,
     {"components": ("A",), "nonempty": frozenset({X, A}), "order": "factorial", "level": (2,),
      "truncation": None, "base_breakdown": None, "names": None},
     {"components": ("B",), "nonempty": frozenset({X}), "order": "standard", "level": (6,),
      "truncation": 2, "base_breakdown": (("N", 1),), "names": frozenset({(A, (("A", 1),))})},
     {"truncation": None, "base_breakdown": None, "names": None}),
    (InvariantAssignment, {"value_system": "int_vector", "values": {"X": (1,)}, "invariant": "K"},
     {"value_system": "poly", "values": {"X": (2,)}, "invariant": "G"},
     {"invariant": "K"}),
    (ReportRow,
     {"stratum": "D_{A}", "count": 1, "value": 2, "contribution": 2, "counting_function": None},
     {"stratum": "D_{B}", "count": 2, "value": 3, "contribution": 6, "counting_function": "(n!-1)^1"},
     {"counting_function": None}),
    (DecompositionReport,
     {"kind": "finite", "value_system": "int", "invariant": "K", "base_value": 1, "rows": (ROW,),
      "total": 3, "level": (2,), "truncation": None, "notes": ("n",)},
     {"kind": "kfl", "value_system": "int_vector", "invariant": "G", "base_value": 2, "rows": (),
      "total": 4, "level": None, "truncation": 2, "notes": ()},
     {"level": None, "truncation": None, "notes": ()}),
    (CheckResult, {"name": "c", "passed": True, "detail": "d", "counterexamples": ()},
     {"name": "e", "passed": False, "detail": "x", "counterexamples": ((1,),)},
     {"counterexamples": ()}),
    (SelfcheckReport, {"level": 1, "results": (CHECK,)}, {"level": 2, "results": ()}, {}),
]
UNHASHABLE = {InvariantAssignment}  # its values are a dict

CLASSES = [pytest.param(*ex, id=ex[0].__name__) for ex in EXAMPLES]
FIELDS = [
    pytest.param(cls, fields, name, other[name], id=f"{cls.__name__}.{name}")
    for cls, fields, other, _ in EXAMPLES
    for name in fields
]


def test_every_value_class_has_an_example():
    found, todo = set(), [Record]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if sub.__module__.startswith("logsod."):
                found.add(sub)
    assert found == {ex[0] for ex in EXAMPLES}
    assert len(found) == 17


@pytest.mark.parametrize("cls, fields, other, defaults", CLASSES)
class TestConstruction:
    def test_fields_are_the_constructor_parameters(self, cls, fields, other, defaults):
        params = inspect.signature(cls).parameters
        assert list(params) == list(fields)
        assert {n for n, p in params.items() if p.default is not p.empty} == set(defaults)

    def test_positional_and_keyword(self, cls, fields, other, defaults):
        a, b = cls(*fields.values()), cls(**fields)
        assert a == b
        for name, value in fields.items():
            assert getattr(a, name) == value
            assert getattr(b, name) == value

    def test_defaults(self, cls, fields, other, defaults):
        required = {k: v for k, v in fields.items() if k not in defaults}
        for obj in (cls(**required), cls(*required.values())):
            for name, value in defaults.items():
                assert getattr(obj, name) == value


@pytest.mark.parametrize("cls, fields, other, defaults", CLASSES)
class TestValue:
    def test_equal_fields_are_equal_with_one_hash(self, cls, fields, other, defaults):
        a, b = cls(**fields), cls(**copy.deepcopy(fields))
        assert a == b and not a != b
        if cls in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(b)

    def test_equality_is_type_strict(self, cls, fields, other, defaults):
        class Sub(cls):
            pass

        a = cls(**fields)
        assert a != Sub(**fields)
        assert a != tuple(fields.values())
        assert a.__eq__(tuple(fields.values())) is NotImplemented

    def test_frozen(self, cls, fields, other, defaults):
        a = cls(**fields)
        for name in fields:
            before = getattr(a, name)
            with pytest.raises(AttributeError):
                setattr(a, name, other[name])
            with pytest.raises(AttributeError):
                delattr(a, name)
            assert getattr(a, name) is before
        with pytest.raises(AttributeError):
            a.extra = 1

    def test_repr(self, cls, fields, other, defaults):
        a = cls(**fields)
        shown = ", ".join(f"{name}={getattr(a, name)!r}" for name in fields)
        assert repr(a) == f"{cls.__name__}({shown})"

    def test_copy_and_pickle(self, cls, fields, other, defaults):
        a = cls(**fields)
        for b in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert type(b) is cls and b == a
            assert all(getattr(b, name) == getattr(a, name) for name in fields)


@pytest.mark.parametrize("cls, fields, name, value", FIELDS)
def test_each_field_takes_part_in_equality(cls, fields, name, value):
    a, b = cls(**fields), cls(**{**fields, name: value})
    assert a != b and not a == b
    if cls not in UNHASHABLE:
        assert hash(a) != hash(b)


def test_repr_literals():
    assert repr(Character(1, 3)) == "Character(p=1, q=3)"
    assert repr(FactorLabel(A, (Character(0, 1),), "BaseStack")) == (
        "FactorLabel(stratum=frozenset({'A'}), character=(Character(p=0, q=1),), "
        "provenance='BaseStack', zero=False, first_level=None, normalized=None)"
    )
    assert repr(BlowupLog(())) == "BlowupLog(steps=())"


@pytest.mark.parametrize("build, error, message", [
    (lambda: Character(2, 2), ValueError, "character pair out of range: (2, 2)"),
    (lambda: Character(0, 0), ValueError, "character pair out of range: (0, 0)"),
    (lambda: Character(2, 4), ValueError, "character pair not reduced: (2, 4)"),
    (lambda: ToricMonoid(0, ()), ValueError, "ambient rank must be positive"),
    (lambda: ToricMonoid(2, ((1,),)), ValueError, "generator (1,) has wrong length"),
    (lambda: ToricMonoid(1, ((0,),)), ValueError, "zero generator not allowed"),
    (lambda: KummerExtension(M1, ((F1,),), (1, 1), ()), ValueError,
     "one root order per basis vector required"),
    (lambda: KummerExtension(M1, ((F1, F0), (F1, F0)), (1, 1), ()), ValueError,
     "target basis must be linearly independent"),
    (lambda: KummerExtension(M1, ((F1, F0),), (0,), ()), ValueError, "root orders must be positive"),
    (lambda: KummerExtension(M1, ((F1, F0),), (1,), (1,)), ValueError,
     "trivial invariant factors must be omitted"),
    (lambda: SncComplex(("A", "A"), frozenset({X})), ValueError, "component labels must be distinct"),
    (lambda: SncComplex(("A",), frozenset({A})), ValueError,
     "the empty intersection (the total space) is nonempty"),
    (lambda: SncComplex(("A",), frozenset({X, frozenset({"Z"})})), ValueError,
     "stratum ['Z'] uses unknown components"),
    (lambda: SncComplex(("A", "B"), frozenset({X, frozenset({"A", "B"})})), ValueError,
     "nonempty strata must be downward closed"),
    (lambda: Crossing("N", (("A", 1), ("A", 1))), ValueError, "crossing N: duplicate branch records"),
    (lambda: Crossing("N", ()), ValueError, "crossing N: needs at least one branch"),
    (lambda: NcComplex(("A", "A"), ()), ValueError, "component labels must be distinct"),
    (lambda: NcComplex(("A",), (NODE, NODE)), ValueError, "crossing names must be distinct"),
    (lambda: NcComplex(("B",), (NODE,)), ValueError, "crossing N uses unknown component 'A'"),
    (lambda: NcComplex(("A",), (NODE,), (), 1), ValueError,
     "crossing N has codimension 2 above the ambient dimension"),
    (lambda: NcComplex(("A",), (NODE,), (("N", "M"),)), ValueError,
     "closure pair (N, M) names unknown crossings"),
    (lambda: FixedLocusData(("R1",), (2,), (), ()), ValueError,
     "one weight row per invariant factor required"),
    (lambda: FixedLocusData(("R1",), (2,), ((1, 1),), ()), ValueError,
     "one weight per component required"),
    (lambda: SimplicialChart(()), ValueError, "chart list must be nonempty"),
    (lambda: PsodDescriptor(("A",), frozenset({X, A}), "lex", (2,)), ValueError,
     "unknown order tag 'lex'"),
    (lambda: PsodDescriptor(("A",), frozenset({X, A}), "factorial", (2, 2)), ValueError,
     "one cyclic order per component required"),
    (lambda: PsodDescriptor(("A",), frozenset({X, A}), "factorial", (0,)), ValueError,
     "cyclic orders must be positive"),
    (lambda: PsodDescriptor(("A", "A"), frozenset({X, A}), "factorial", (2, 2)), ValueError,
     "component labels must be distinct"),
    (lambda: PsodDescriptor(("A",), frozenset({X, A}), "factorial", (3,), 2), ValueError,
     "truncation descriptors live at diagonal n! level"),
    (lambda: PsodDescriptor(("A",), frozenset({X, A}), "standard", (700_000,)), TooManyLabels,
     "level [700000] has 700000 labels, more than the 600000 a descriptor may build; "
     "'logsod decompose' counts them without building them"),
    (lambda: InvariantAssignment("real", {}), ValueError, "unknown value system 'real'"),
    (lambda: InvariantAssignment("int", {"X": "1"}), ValueError, "int value expected, got '1'"),
    (lambda: InvariantAssignment("int_vector", {"X": (1,), "Y": (1, 2)}), ValueError,
     "vector values must share one length"),
])
def test_checks_keep_their_messages(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
