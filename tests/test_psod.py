"""Descriptor builders for the root-stack tower.

The single-divisor factorial sequences are checked against the independent
interleaving construction in oracles.py; multi-component label sets against
cartesian-product enumeration; counting identities against closed forms.
"""

from __future__ import annotations

import inspect
import math
import sys
import time
import warnings
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from logsod.complexes import (
    Crossing,
    NcComplex,
    SimplicialChart,
    snc_from_divisors,
    snc_of_simple,
    strictify_nc,
)
from logsod.errors import LogsodError, NonDiagonalLevel, TooManyLabels, UnsupportedConfiguration
from logsod.monoids import ToricMonoid
from logsod.orders import Character, support_partition, vector_first_level
from logsod.psod import (
    LABEL_CAP,
    SUBLEVEL_CHECK_CAP,
    PsodDescriptor,
    bls_divergence,
    embedding_check,
    psod_bls,
    psod_infinite,
    psod_nc,
    psod_simplicial,
    psod_single,
    psod_snc,
)

from oracles import enumerate_characters_by_key, interleaving_chain

A1 = ToricMonoid(2, ((2, 0), (1, 1), (0, 2)))
FREE2 = ToricMonoid(2, ((1, 0), (0, 1)))
FREE1 = ToricMonoid(1, ((1,),))

NODAL = NcComplex(("C",), (Crossing("N", (("C", 1), ("C", 2))),), ambient_dim=2)
SIMPLE_X = NcComplex(("A", "B"), (Crossing("S", (("A", 1), ("B", 1))),))


def three_lines():
    with pytest.warns(UserWarning):
        return snc_from_divisors([1, 2, 3], [[1, 2], [1, 3], [2, 3]])


def single_divisor():
    return snc_from_divisors(("D",), [[], ["D"]])


def two_divisors():
    with pytest.warns(UserWarning):
        return snc_from_divisors(("A", "B"), [["A", "B"]])


def with_characters(desc: PsodDescriptor, chars: list) -> PsodDescriptor:
    """desc with its (character, first level) pairs replaced by chars: a
    descriptor that no builder makes, for feeding checks and writers."""

    class Given(PsodDescriptor):
        def characters(self):
            return list(chars)

    params = inspect.signature(PsodDescriptor).parameters
    return Given(**{name: getattr(desc, name) for name in params})


@st.composite
def descriptors(draw):
    """A descriptor of an snc scene (a tower stage, or per-component orders
    in the standard order) or of an nc scene, each with 1-3 components,
    and the nonempty strata of the complex its labels live on."""
    components = draw(st.lists(st.sampled_from(["A", "B", "C", 7, 8]), min_size=1, max_size=3, unique=True))
    if draw(st.booleans()):
        crossings = []
        for i in range(draw(st.integers(0, 2))):
            a, b = draw(st.sampled_from(components)), draw(st.sampled_from(components))
            branches = ((a, 2 * i + 1), (b, 2 * i + 2)) if a == b else ((a, 1), (b, 1))
            crossings.append(Crossing(f"N{i}", branches))
        nc = NcComplex(tuple(components), tuple(crossings), ambient_dim=2)
        try:
            simple, _ = strictify_nc(nc)
        except LogsodError:
            assume(False)
        snc = snc_of_simple(simple)
        stage = draw(st.integers(1, 3 if len(snc.components) <= 3 else 2))
        return psod_nc(nc, stage), snc.nonempty
    strata = [[c for c in components if draw(st.booleans())] for _ in range(3)]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cx = snc_from_divisors(components, strata)
    if draw(st.booleans()):
        return psod_infinite(cx, draw(st.integers(1, 3))), cx.nonempty
    level = [draw(st.integers(1, 4)) for _ in components]
    return psod_snc(cx, level, order="standard"), cx.nonempty


def values(desc: PsodDescriptor) -> list:
    return [tuple(c.value for c in lab.character) for lab in desc.labels]


def scalar_values(desc: PsodDescriptor) -> list[Fraction]:
    return [v[0] for v in values(desc)]


class TestPsodSingle:
    def test_degree_six_sequence(self):
        desc = psod_single(3)
        assert scalar_values(desc) == [
            Fraction(-5, 6),
            Fraction(-2, 6),
            Fraction(-4, 6),
            Fraction(-1, 6),
            Fraction(-3, 6),
            Fraction(0),
        ]
        assert desc.order == "factorial" and desc.level == (6,)

    def test_trivial_level(self):
        desc = psod_single(1)
        assert len(desc.labels) == 1
        assert desc.labels[0].provenance == "BaseStack"
        assert desc.labels[0].stratum == frozenset()

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_label_count(self, n):
        assert len(psod_single(n).labels) == math.factorial(n)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_matches_interleaving_oracle(self, n):
        assert scalar_values(psod_single(n)) == interleaving_chain(n)

    def test_base_is_last_and_unique(self):
        desc = psod_single(4)
        assert desc.labels[-1].provenance == "BaseStack"
        assert all(l.provenance == "GerbeCharacter" for l in desc.labels[:-1])
        assert all(l.stratum == frozenset({"D"}) for l in desc.labels[:-1])

    def test_bad_level(self):
        with pytest.raises(ValueError):
            psod_single(0)


class TestPsodBls:
    def test_degree_six_chain(self):
        assert scalar_values(psod_bls(6)) == [Fraction(-k, 6) for k in range(5, -1, -1)]

    def test_trivial(self):
        assert len(psod_bls(1).labels) == 1

    def test_monotone_standard(self):
        vals = scalar_values(psod_bls(9))
        assert vals == sorted(vals)
        assert psod_bls(9).order == "standard"

    @pytest.mark.parametrize("n", [1, 2])
    def test_agrees_with_factorial_at_small_levels(self, n):
        report = bls_divergence(n)
        assert report["labels_match"] and report["order_matches"]
        assert report["non_identical"] == ()

    def test_first_divergence_at_three(self):
        report = bls_divergence(3)
        assert report["labels_match"]
        assert not report["order_matches"]
        assert [c.value for c in report["non_identical"]] == [Fraction(-1, 2)]

    def test_divergence_grows(self):
        report = bls_divergence(4)
        assert len(report["non_identical"]) == math.factorial(3) - 1


class TestPsodSnc:
    def test_three_lines_at_two(self):
        desc = psod_snc(three_lines(), (2, 2, 2))
        assert len(desc.labels) == 8
        by_size = {}
        for lab in desc.labels:
            by_size[len(lab.stratum)] = by_size.get(len(lab.stratum), 0) + 1
        assert by_size == {0: 1, 1: 3, 2: 3, 3: 1}
        flagged = desc.zero_factors
        assert len(flagged) == 1
        assert flagged[0].stratum == frozenset({1, 2, 3})

    def test_all_ones_level(self):
        desc = psod_snc(three_lines(), (1, 1, 1))
        assert len(desc.labels) == 1
        assert desc.labels[0].provenance == "BaseStack"

    def test_tensor_cross_check(self):
        desc = psod_snc(two_divisors(), (3, 4), order="standard")
        got = set(values(desc))
        axis_a = set(scalar_values(psod_bls(3)))
        axis_b = set(scalar_values(psod_bls(4)))
        assert got == {(a, b) for a, b in product(axis_a, axis_b)}

    def test_standard_order_is_linear_extension(self):
        desc = psod_snc(two_divisors(), (3, 4), order="standard")
        vals = values(desc)
        index = {v: i for i, v in enumerate(vals)}
        for a in vals:
            for b in vals:
                if a != b and all(x <= y for x, y in zip(a, b)):
                    assert index[a] < index[b]

    @pytest.mark.parametrize("level", [(1,), (13,), (1009,), (2, 1), (3, 4), (6, 5), (2, 3, 2)])
    def test_standard_order_is_built_without_the_factorial_axis(self, monkeypatch, level):
        # The standard order is the product of the axes -(r-1)/r, ..., 0,
        # so it never works modulo r!, which for a prime r is the whole of r!.
        def refuse(r):
            raise AssertionError(f"factorial axis built for {r}")

        monkeypatch.setattr("logsod.orders._factorial_axis", refuse)
        cx = snc_from_divisors(tuple(range(len(level))), [[]])
        chars = PsodDescriptor(cx.components, cx.nonempty, "standard", level).characters()
        assert {first for _, first in chars} == {None}
        by_value = sorted(
            product(*[[Character.of(Fraction(-p, r)) for p in range(r)] for r in level]),
            key=lambda chi: [c.value for c in chi],
        )
        assert [chi for chi, _ in chars] == by_value

    def test_standard_first_levels_come_with_a_truncation(self):
        cx = two_divisors()
        desc = PsodDescriptor(cx.components, cx.nonempty, "standard", (6, 6), truncation=3)
        chars = desc.characters()
        assert [chi for chi, _ in chars] == [chi for chi, _ in psod_snc(cx, (6, 6), "standard").characters()]
        assert all(first == vector_first_level(chi) for chi, first in chars)

    def test_factorial_needs_diagonal_factorial_level(self):
        cx = two_divisors()
        with pytest.raises(NonDiagonalLevel):
            psod_snc(cx, (2, 6), order="factorial")
        with pytest.raises(NonDiagonalLevel):
            psod_snc(cx, (5, 5), order="factorial")
        psod_snc(cx, (2, 6), order="standard")
        psod_snc(cx, (2, 2), order="factorial")
        with pytest.raises(NonDiagonalLevel):
            psod_snc(three_lines(), (2, 6, 6), order="factorial")

    def test_validation_order(self):
        # The length is checked before the level and before the order tag.
        cx = two_divisors()
        with pytest.raises(ValueError, match="one cyclic order per component"):
            psod_snc(cx, (2, 6, 6), order="factorial")
        with pytest.raises(ValueError, match="one cyclic order per component"):
            psod_snc(cx, (2,), order="weird")
        with pytest.raises(ValueError, match="order tag"):
            psod_snc(cx, (2, 6), order="weird")

    def test_orders_checked_before_the_diagonal(self):
        with pytest.raises(ValueError, match="^cyclic orders must be positive$"):
            psod_snc(two_divisors(), (0, 0), order="factorial")

    def test_matches_single_on_one_component(self):
        a = psod_snc(single_divisor(), (6,), order="factorial")
        b = psod_single(3)
        assert [l.character for l in a.labels] == [l.character for l in b.labels]

    def test_support_partition_completeness(self):
        desc = psod_snc(three_lines(), (2, 3, 2), order="standard")
        seen = {}
        for lab in desc.labels:
            sup = support_partition(lab.character)
            seen[sup] = seen.get(sup, 0) + 1
            assert frozenset(desc.components[i - 1] for i in sup) == lab.stratum
        for sup, count in seen.items():
            expected = 1
            for i in sup:
                expected *= (2, 3, 2)[i - 1] - 1
            assert count == expected
        assert sum(seen.values()) == 2 * 3 * 2

    def test_determinism(self):
        a = psod_snc(three_lines(), (2, 2, 2)).to_json()
        b = psod_snc(three_lines(), (2, 2, 2)).to_json()
        assert a == b

    def test_level_length_mismatch(self):
        with pytest.raises(ValueError):
            psod_snc(three_lines(), (2, 2))


class TestDescriptorValidation:
    def test_provenance_rules(self):
        # The base stack is the label on the empty stratum, and only it.
        desc = psod_single(2)
        assert [(l.stratum, l.provenance) for l in desc.iter_labels()] == [
            (frozenset({"D"}), "GerbeCharacter"),
            (frozenset(), "BaseStack"),
        ]
        with pytest.raises(ValueError, match="order tag"):
            PsodDescriptor(desc.components, desc.nonempty, "weird", (2,))

    def test_level_checks(self):
        cx = single_divisor()
        with pytest.raises(ValueError, match="one cyclic order per component"):
            PsodDescriptor(cx.components, cx.nonempty, "standard", (2, 2))
        with pytest.raises(ValueError, match="positive"):
            PsodDescriptor(cx.components, cx.nonempty, "standard", (0,))
        with pytest.raises(ValueError, match="diagonal n! level"):
            PsodDescriptor(cx.components, cx.nonempty, "factorial", (4,), truncation=2)
        # 0! = 1! = 1: stage 0 and stage 1 both live at level 1.
        for stage in (0, 1):
            desc = PsodDescriptor(cx.components, cx.nonempty, "factorial", (1,), truncation=stage)
            assert desc.truncation == stage
        for stage, level in ((0, 2), (-1, 1)):
            with pytest.raises(ValueError, match="diagonal n! level"):
                PsodDescriptor(cx.components, cx.nonempty, "factorial", (level,), truncation=stage)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_generated_labels_keep_the_descriptor_invariants(self, data):
        desc, nonempty = data.draw(descriptors())
        chars = enumerate_characters_by_key(desc.level, range(1, len(desc.level) + 1))
        if desc.order == "standard":
            chars.sort(key=lambda chi: tuple(c.value for c in chi))
        labels = list(desc.iter_labels())
        assert [lab.character for lab in labels] == chars
        for lab in labels:
            support = frozenset(c for c, x in zip(desc.components, lab.character) if x.p)
            assert lab.stratum == support
            assert (lab.provenance == "BaseStack") == (not support)
            assert lab.zero == (support not in nonempty)
            if desc.truncation is not None:
                assert lab.first_level == vector_first_level(lab.character)


class TestLabelCap:
    def test_cap_admits_sublevel_checks_and_one_divisor_stage_nine(self):
        assert SUBLEVEL_CHECK_CAP <= LABEL_CAP
        assert math.factorial(9) <= LABEL_CAP < math.factorial(10)

    @pytest.mark.parametrize("build, count", [
        (lambda: psod_infinite(single_divisor(), 10), 3628800),
        (lambda: psod_single(10), 3628800),
        (lambda: psod_bls(600_001), 600001),
        (lambda: psod_snc(two_divisors(), (1000, 601), order="standard"), 601000),
        (lambda: psod_nc(NODAL, 7), 5040 ** 2),
        (lambda: psod_simplicial(SimplicialChart((FREE2,)), 7), 5040 ** 2),
    ])
    def test_refused_before_building(self, build, count):
        with pytest.raises(TooManyLabels, match=f"has {count} labels") as info:
            build()
        assert "logsod decompose" in str(info.value)

    @pytest.mark.parametrize("build, stage", [
        (lambda: psod_infinite(single_divisor(), 20_000), 20_000),
        (lambda: psod_single(10**7), 10**7),
        (lambda: psod_infinite(single_divisor(), 10**8), 10**8),
        (lambda: psod_infinite(three_lines(), 10**9), 10**9),
        (lambda: psod_nc(NODAL, 10**8), 10**8),
    ])
    def test_huge_stages_refused_before_their_factorial(self, build, stage):
        # A count too long to write as text is bounded by a power of ten, and
        # n! is computed only as far as that bound, so each refusal is
        # immediate.
        start = time.perf_counter()
        with pytest.raises(TooManyLabels, match=(
                f"^stage {stage} has over 10\\^4300 labels, more than the 600000 a descriptor "
                "may build; 'logsod decompose' counts them without building them$")):
            build()
        assert time.perf_counter() - start < 0.5

    def test_counts_are_written_up_to_the_int_text_limit(self, monkeypatch):
        # 200! has 375 digits, and 200!**2 750.
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 700)
        with pytest.raises(TooManyLabels, match=f"^stage 200 has {math.factorial(200)} labels"):
            psod_infinite(single_divisor(), 200)
        with pytest.raises(TooManyLabels, match="^stage 200 has over 10\\^700 labels"):
            psod_infinite(two_divisors(), 200)
        # Without a limit, counts are bounded where Python's default limit is.
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        with pytest.raises(TooManyLabels, match="^stage 2000 has over 10\\^4300 labels"):
            psod_infinite(single_divisor(), 2000)

    def test_zero_components_take_any_stage(self):
        empty = snc_from_divisors((), [[]])
        desc = psod_infinite(empty, 10**7)
        assert desc.level == () and desc.truncation == 10**7
        assert [lab.character for lab in desc.labels] == [()]


class TestPsodInfinite:
    def test_truncation_must_be_positive(self):
        with pytest.raises(ValueError, match="truncation"):
            psod_infinite(single_divisor(), 0)

    def test_single_divisor_stage_two(self):
        desc = psod_infinite(single_divisor(), 2)
        assert scalar_values(desc) == [Fraction(-1, 2), Fraction(0)]
        assert [l.first_level for l in desc.labels] == [2, 1]
        assert desc.truncation == 2

    def test_first_level_of_one_third(self):
        desc = psod_infinite(single_divisor(), 3)
        lab = next(l for l in desc.labels if l.character[0].value == Fraction(-1, 3))
        assert lab.first_level == 3

    def test_first_level_histogram(self):
        desc = psod_infinite(single_divisor(), 3)
        hist = {}
        for lab in desc.labels:
            hist[lab.first_level] = hist.get(lab.first_level, 0) + 1
        assert hist == {1: 1, 2: 1, 3: 4}

    def test_first_levels_cover_sublevels(self):
        desc = psod_infinite(single_divisor(), 4)
        for m in (1, 2, 3, 4):
            count = sum(1 for l in desc.labels if l.first_level <= m)
            assert count == math.factorial(m)

    def test_truncation_counts(self):
        cx = three_lines()
        for n in (2, 3):
            desc = psod_infinite(cx, n)
            fact = math.factorial(n)
            unflagged = [l for l in desc.labels if not l.zero]
            expected = 1 + sum(
                (fact - 1) ** len(j) for j in cx.strata(proper=True)
            )
            assert len(unflagged) == expected
            assert len(desc.labels) == fact ** 3

    def test_json_shape(self):
        data = psod_infinite(single_divisor(), 2).to_json()
        assert data["truncation"] == 2
        assert data["level"] == [2]
        assert data["labels"][0] == {
            "stratum": ["D"],
            "char": [[1, 2]],
            "provenance": "GerbeCharacter",
            "zero": False,
            "first_level": 2,
        }


class TestEmbeddingCheck:
    def test_single_divisor_small(self):
        report = embedding_check(single_divisor(), 3)
        assert report["passed"] and report["mode"] == "full"

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_single_divisor_tower(self, n):
        assert embedding_check(single_divisor(), n)["passed"]

    def test_two_components_modes(self):
        cx = two_divisors()
        assert embedding_check(cx, 4)["mode"] == "full"
        report = embedding_check(cx, 6)
        assert report["mode"] == "sublevel" and report["passed"]

    def test_three_components_sampled(self):
        report = embedding_check(three_lines(), 6)
        assert report["mode"] == "sampled" and report["passed"]

    @pytest.mark.parametrize("cx", [single_divisor, three_lines])
    def test_stage_eleven_refused_with_count(self, cx):
        # Stage 11 needs the 10! = 3628800 scalar labels of stage 10.
        with pytest.raises(TooManyLabels, match="3628800"):
            embedding_check(cx(), 11)

    @pytest.mark.parametrize("cx", [single_divisor, three_lines])
    def test_huge_stage_refused_before_factorial(self, cx):
        # 19999! has about 77,000 digits: counting stops at the cap, and the
        # message bounds the count instead of writing it.
        with pytest.raises(TooManyLabels, match=r"stage 19999: over 10\^\d+, more than"):
            embedding_check(cx(), 20000)

    def test_corrupted_order_fails(self):
        cx = single_divisor()
        good = psod_infinite(cx, 3)
        chars = good.characters()
        chars[4], chars[5] = chars[5], chars[4]
        report = embedding_check(cx, 3, level_descriptor=with_characters(good, chars))
        assert not report["passed"]
        kind, first, second = report["counterexamples"][0]
        assert kind == "order-mismatch"
        assert first[0].value == Fraction(0) and second[0].value == Fraction(-1, 2)

    def test_wrong_sublevel_reports_missing(self):
        cx = single_divisor()
        report = embedding_check(
            cx, 3, sublevel_descriptor=psod_infinite(cx, 4)
        )
        assert not report["passed"]
        assert report["counterexamples"][0][0] == "missing-label"

    def test_corrupted_sublevel_mode(self):
        cx = two_divisors()
        small = psod_infinite(cx, 5)
        chars = small.characters()
        chars[0], chars[1] = chars[1], chars[0]
        report = embedding_check(cx, 6, sublevel_descriptor=with_characters(small, chars))
        assert not report["passed"]
        assert report["mode"] == "sublevel"

    def test_bad_level(self):
        with pytest.raises(ValueError):
            embedding_check(single_divisor(), 1)


class TestPsodNc:
    def test_nodal_stage_two(self):
        desc = psod_nc(NODAL, 2)
        assert desc.components == ("C", "E1")
        assert len(desc.labels) == 4
        assert desc.base_breakdown == (("N", 1),)
        by_stratum = {tuple(sorted(l.stratum)): l.normalized for l in desc.labels}
        assert by_stratum[()] == (("X", 1),)
        assert by_stratum[("C",)] == (("C", 1),)
        assert by_stratum[("E1",)] == (("E1", 1),)
        assert by_stratum[("C", "E1")] == (("N@1", 1), ("N@2", 1))

    def test_nodal_deeper_stage(self):
        desc = psod_nc(NODAL, 3)
        assert len(desc.labels) == 36
        point_labels = [l for l in desc.labels if len(l.stratum) == 2]
        assert len(point_labels) == 25
        assert all(l.normalized == (("N@1", 1), ("N@2", 1)) for l in point_labels)

    def test_simple_input_matches_snc(self):
        desc = psod_nc(SIMPLE_X, 2)
        plain = psod_infinite(snc_of_simple(SIMPLE_X), 2)
        assert [(l.stratum, l.character) for l in desc.labels] == [
            (l.stratum, l.character) for l in plain.labels
        ]
        assert desc.base_breakdown == ()

    def test_blowup_order_independence(self):
        a = NcComplex(
            ("C",),
            (
                Crossing("N1", (("C", 1), ("C", 2))),
                Crossing("N2", (("C", 3), ("C", 4))),
            ),
            ambient_dim=2,
        )
        b = NcComplex(("C",), tuple(reversed(a.crossings)), ambient_dim=2)
        assert psod_nc(a, 2) == psod_nc(b, 2)

    def test_propagates_strictify_errors(self):
        deep = NcComplex(("C",), (Crossing("N", (("C", 1), ("C", 2))),), ambient_dim=3)
        with pytest.raises(UnsupportedConfiguration):
            psod_nc(deep, 2)
        # Strictification runs before the truncation is checked.
        with pytest.raises(UnsupportedConfiguration):
            psod_nc(deep, 0)
        with pytest.raises(UnsupportedConfiguration):
            psod_nc(deep, 10**7)


class TestPsodSimplicial:
    def test_half_diagonal_stage_two(self):
        desc = psod_simplicial(SimplicialChart((A1,)), 2)
        assert len(desc.labels) == 4
        sizes = sorted(len(l.stratum) for l in desc.labels)
        assert sizes == [0, 1, 1, 2]
        assert not desc.zero_factors
        assert set(desc.components) == {"R1", "R2"}

    def test_free_chart_count_identity(self):
        desc = psod_simplicial(SimplicialChart((FREE2,)), 3)
        assert len(desc.labels) == 36
        assert not desc.zero_factors

    def test_disjoint_union_flags_cross_strata(self):
        desc = psod_simplicial(SimplicialChart((FREE2, FREE1)), 2)
        assert len(desc.labels) == 8
        assert len(desc.zero_factors) == 3
        for lab in desc.zero_factors:
            assert any(c.startswith("C1.") for c in lab.stratum)
            assert any(c.startswith("C2.") for c in lab.stratum)


class TestOrderSanity:
    def test_gerbe_labels_precede_base(self):
        descriptors = [
            psod_single(4),
            psod_infinite(three_lines(), 2),
            psod_nc(NODAL, 2),
            psod_simplicial(SimplicialChart((A1,)), 2),
        ]
        for desc in descriptors:
            assert desc.labels[-1].provenance == "BaseStack"
            assert all(l.provenance == "GerbeCharacter" for l in desc.labels[:-1])
