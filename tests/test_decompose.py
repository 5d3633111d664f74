"""Splitting formulas for additive invariants.

The projective-line family is checked against an independent enumeration of
the line-bundle twists on the root stack; counting identities against closed
forms; the truncated-tower operation against the finite-level one on the
diagonal factorial levels.
"""

from __future__ import annotations

import math
import sys
import time
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from logsod.complexes import (
    Crossing,
    FixedLocusData,
    NcComplex,
    SimplicialChart,
    SncComplex,
    canonical_root_pair,
    fixed_locus_index,
    snc_from_divisors,
    snc_of_simple,
)
from logsod.decompose import (
    DecompositionReport,
    InvariantAssignment,
    decompose_finite,
    decompose_kfl,
    decompose_nc,
    decompose_simplicial_complexified,
    etale_filter,
    prime_to_part,
    value_add,
    value_scale,
)
from logsod.errors import (
    MissingValue,
    ParseError,
    UnsupportedAction,
    UnsupportedConfiguration,
)
from logsod.monoids import ToricMonoid
from logsod.orders import enumerate_characters
from logsod.psod import psod_nc, psod_snc

from oracles import nc_rows_from_labels, root_stack_line_twists

A1 = ToricMonoid(2, ((2, 0), (1, 1), (0, 2)))
FREE2 = ToricMonoid(2, ((1, 0), (0, 1)))
FREE1 = ToricMonoid(1, ((1,),))

NODAL = NcComplex(("C",), (Crossing("N", (("C", 1), ("C", 2))),), ambient_dim=2)
TWO_NODE = NcComplex(
    ("C",),
    (Crossing("N1", (("C", 1), ("C", 2))), Crossing("N2", (("C", 3), ("C", 4)))),
    ambient_dim=2,
)
TRIPLE = NcComplex(
    ("C",), (Crossing("T", (("C", 1), ("C", 2), ("C", 3))),), ambient_dim=3
)
SIMPLE_X = NcComplex(("A", "B"), (Crossing("S", (("A", 1), ("B", 1))),))


def three_lines():
    with pytest.warns(UserWarning):
        return snc_from_divisors([1, 2, 3], [[1, 2], [1, 3], [2, 3]])


def single_divisor():
    return snc_from_divisors(("D",), [[], ["D"]])


def two_divisors():
    with pytest.warns(UserWarning):
        return snc_from_divisors(("A", "B"), [["A", "B"]])


def iv(values, system="int", invariant="K"):
    return InvariantAssignment(value_system=system, values=values, invariant=invariant)


THREE_LINES_V = {
    "X": 3,
    "D_{1}": 2, "D_{2}": 2, "D_{3}": 2,
    "D_{1,2}": 1, "D_{1,3}": 1, "D_{2,3}": 1,
}

NODAL_V = {"X": 10, "N": 1, "C": 3, "E1": 2, "N@1": 5, "N@2": 7}

TWO = snc_from_divisors(("A", "B"), [[], ["A"], ["B"], ["A", "B"]])
TWO_V = {"X": 5, "D_{A}": 3, "D_{B}": 2, "D_{A,B}": 1}

# The decompositions that take a tower stage, each over two components.
STAGE_CALLS = {
    "decompose_nc": lambda n: decompose_nc(NODAL, iv(NODAL_V), n),
    "decompose_kfl": lambda n: decompose_kfl(TWO, iv(TWO_V), n),
    "etale_filter": lambda n: etale_filter(TWO, iv(TWO_V), 2, truncation=n),
}


def combine(v: InvariantAssignment, w: InvariantAssignment) -> InvariantAssignment:
    assert set(v.values) == set(w.values)
    return InvariantAssignment(
        v.value_system,
        {k: value_add(v.value_system, v.values[k], w.values[k]) for k in v.values},
        invariant=v.invariant,
    )


def rescale(k: int, v: InvariantAssignment) -> InvariantAssignment:
    return InvariantAssignment(
        v.value_system,
        {key: value_scale(v.value_system, k, val) for key, val in v.values.items()},
        invariant=v.invariant,
    )


def count_of(report: DecompositionReport, stratum: str) -> int:
    for row in report.rows:
        if row.stratum == stratum:
            return row.count
    return 0


class TestValueSystems:
    def test_int_ops(self):
        assert value_add("int", 2, 3) == 5
        assert value_scale("int", 4, -2) == -8

    def test_vector_ops(self):
        assert value_add("int_vector", (1, 2), (3, 4)) == (4, 6)
        assert value_scale("int_vector", 3, (1, -1)) == (3, -3)
        with pytest.raises(ValueError):
            value_add("int_vector", (1,), (1, 2))

    def test_poly_ops(self):
        assert value_add("poly", (1, 2), (0, 0, 3)) == (1, 2, 3)
        assert value_add("poly", (1, 2), (0, -2)) == (1,)
        assert value_scale("poly", 0, (5, 7)) == ()
        assert value_scale("poly", 2, (1, 0, 4)) == (2, 0, 8)

    def test_negative_scaling_rejected(self):
        with pytest.raises(ValueError):
            value_scale("int", -1, 3)


class TestInvariantAssignment:
    def test_lookup_and_missing(self):
        v = iv({"X": 2, "D_{D}": 1})
        assert v.value_of("X") == 2
        with pytest.raises(MissingValue):
            v.value_of("D_{E}")

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            iv({"X": 1}, system="rational")

    def test_vector_width_must_agree(self):
        with pytest.raises(ValueError):
            iv({"X": (1, 2), "D_{D}": (1,)}, system="int_vector")

    def test_poly_values_normalized(self):
        v = iv({"X": [1, 0, 2, 0]}, system="poly")
        assert v.value_of("X") == (1, 0, 2)

    def test_json_roundtrip(self):
        v = iv({"X": (2, 0), "D_{D}": (1, 1)}, system="int_vector", invariant="G")
        data = v.to_json()
        assert data == {
            "value_system": "int_vector",
            "values": {"D_{D}": [1, 1], "X": [2, 0]},
            "invariant": "G",
        }
        assert InvariantAssignment.from_json(data) == v

    def test_from_json_rejects_garbage(self):
        with pytest.raises(ParseError):
            InvariantAssignment.from_json({"values": {"X": 1}})
        with pytest.raises(ParseError):
            InvariantAssignment.from_json({"value_system": "int", "values": {"X": "a"}})

    def test_default_invariant_tag(self):
        assert iv({"X": 1}).invariant == "K"


class TestDecomposeFinite:
    def test_line_with_point_matches_twist_count(self):
        cx = single_divisor()
        v = iv({"X": 2, "D_{D}": 1})
        for r in range(1, 13):
            report = decompose_finite(cx, (r,), v)
            assert report.total == len(root_stack_line_twists(r)) == r + 1

    def test_trivial_level_returns_base(self):
        report = decompose_finite(three_lines(), (1, 1, 1), iv(THREE_LINES_V))
        assert report.total == 3
        assert all(row.count == 0 for row in report.rows)

    def test_plane_with_three_lines(self):
        report = decompose_finite(three_lines(), (2, 2, 2), iv(THREE_LINES_V))
        assert report.total == 12
        # six real strata; the empty triple intersection never shows up
        assert len(report.rows) == 6
        assert [row.stratum for row in report.rows] == [
            "D_{1}", "D_{2}", "D_{3}", "D_{1,2}", "D_{1,3}", "D_{2,3}",
        ]

    def test_mixed_level_counts(self):
        v = iv({"X": 5, "D_{A}": 3, "D_{B}": 2, "D_{A,B}": 1})
        report = decompose_finite(two_divisors(), (2, 3), v)
        assert [(r.stratum, r.count) for r in report.rows] == [
            ("D_{A}", 1), ("D_{B}", 2), ("D_{A,B}", 2),
        ]
        assert report.total == 5 + 3 + 4 + 2

    def test_vector_values(self):
        v = iv({"X": (2, 0), "D_{D}": (1, 1)}, system="int_vector")
        report = decompose_finite(single_divisor(), (4,), v)
        assert report.total == (5, 3)

    def test_poly_values(self):
        v = iv({"X": (1, 0, 1), "D_{D}": (1,)}, system="poly")
        report = decompose_finite(single_divisor(), (3,), v)
        assert report.total == (3, 0, 1)

    def test_missing_value(self):
        with pytest.raises(MissingValue):
            decompose_finite(single_divisor(), (2,), iv({"X": 2}))

    def test_level_validation(self):
        v = iv({"X": 2, "D_{D}": 1})
        with pytest.raises(ValueError):
            decompose_finite(single_divisor(), (2, 2), v)
        with pytest.raises(ValueError):
            decompose_finite(single_divisor(), (0,), v)

    def test_report_json_shape(self):
        report = decompose_finite(single_divisor(), (3,), iv({"X": 2, "D_{D}": 1}))
        data = report.to_json()
        assert data["kind"] == "finite"
        assert data["level"] == [3]
        assert data["base"] == 2 and data["total"] == 4
        assert data["rows"] == [
            {"stratum": "D_{D}", "count": 2, "value": 1, "contribution": 2}
        ]
        assert data["notes"]

    def test_report_text_table(self):
        report = decompose_finite(single_divisor(), (3,), iv({"X": 2, "D_{D}": 1}))
        text = report.to_text()
        lines = text.splitlines()
        assert "finite decomposition" in lines[0]
        assert any(line.startswith("total: 4") for line in lines)
        assert any("D_{D}" in line and "2" in line for line in lines)


class TestDecomposeKfl:
    def test_matches_finite_on_diagonal_factorial_levels(self):
        cases = [
            (single_divisor(), {"X": 2, "D_{D}": 1}),
            (two_divisors(), {"X": 5, "D_{A}": 3, "D_{B}": 2, "D_{A,B}": 1}),
            (three_lines(), THREE_LINES_V),
        ]
        for cx, vals in cases:
            v = iv(vals)
            for n in range(1, 6):
                level = (math.factorial(n),) * len(cx.components)
                truncated = decompose_kfl(cx, v, n)
                finite = decompose_finite(cx, level, v)
                assert truncated.total == finite.total
                assert [(r.stratum, r.count) for r in truncated.rows] == [
                    (r.stratum, r.count) for r in finite.rows
                ]

    def test_counting_functions_recorded(self):
        report = decompose_kfl(three_lines(), iv(THREE_LINES_V), 3)
        funcs = {r.stratum: r.counting_function for r in report.rows}
        assert funcs["D_{1}"] == "(n!-1)^1"
        assert funcs["D_{2,3}"] == "(n!-1)^2"
        assert count_of(report, "D_{1,2}") == 25

    def test_untruncated_statement_in_notes(self):
        report = decompose_kfl(single_divisor(), iv({"X": 2, "D_{D}": 1}), 2)
        assert any("untruncated" in note for note in report.notes)

    def test_truncation_validation(self):
        with pytest.raises(ValueError):
            decompose_kfl(single_divisor(), iv({"X": 2, "D_{D}": 1}), 0)

    def test_deep_stages_are_counted_exactly(self):
        # Counts with more digits than Python writes as text are computed all
        # the same; only the command line refuses to write them.
        m = math.factorial(1000) - 1
        report = decompose_kfl(three_lines(), iv(THREE_LINES_V), 1000)
        assert report.level == (m + 1,) * 3
        assert count_of(report, "D_{1,2}") == m**2
        assert report.total == 3 + 3 * 2 * m + 3 * m**2
        report = decompose_nc(NODAL, iv(NODAL_V), 1000)
        assert count_of(report, "N@1") == m**2

    def test_zero_components_take_any_stage(self):
        report = decompose_kfl(snc_from_divisors((), [[]]), iv({"X": 4}), 10**7)
        assert report.level == () and report.rows == () and report.total == 4


class TestDecomposeNc:
    def test_nodal_closed_form(self):
        v = iv(NODAL_V)
        for n in range(1, 4):
            m = math.factorial(n) - 1
            expected = (
                NODAL_V["X"]
                + NODAL_V["N"]
                + m * (NODAL_V["C"] + NODAL_V["E1"])
                + m * m * (NODAL_V["N@1"] + NODAL_V["N@2"])
            )
            assert decompose_nc(NODAL, v, n).total == expected

    def test_nodal_stage_two_frozen(self):
        report = decompose_nc(NODAL, iv(NODAL_V), 2)
        assert report.total == 28
        assert report.base_value == 10
        assert [(r.stratum, r.count, r.counting_function) for r in report.rows] == [
            ("N", 1, "blow-up"),
            ("C", 1, None),
            ("E1", 1, None),
            ("N@1", 1, None),
            ("N@2", 1, None),
        ]

    def test_strictify_errors_come_before_the_stage_check(self):
        deep = NcComplex(("C",), (Crossing("N", (("C", 1), ("C", 2))),), ambient_dim=3)
        for stage in (0, 10**7):
            with pytest.raises(UnsupportedConfiguration):
                decompose_nc(deep, iv(NODAL_V), stage)

    @pytest.mark.parametrize("decompose", STAGE_CALLS.values(), ids=STAGE_CALLS)
    def test_stage_too_long_to_report_refused_before_its_factorial(self, monkeypatch, decompose):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 4300)  # Python's default
        start = time.perf_counter()
        with pytest.raises(ValueError, match=(
                "^stage 100000000 is too large to report: its numbers have more than the "
                "4300 digits an integer may have in the output$")):
            decompose(10**8)
        assert time.perf_counter() - start < 0.5

    def test_strictify_refusal_comes_first_at_a_stage_too_long_to_report(self):
        deep = NcComplex(("C",), (Crossing("N", (("C", 1), ("C", 2))),), ambient_dim=3)
        with pytest.raises(UnsupportedConfiguration):
            decompose_nc(deep, iv(NODAL_V), 10**8)

    @pytest.mark.parametrize("decompose", STAGE_CALLS.values(), ids=STAGE_CALLS)
    def test_stage_refused_where_its_factorial_passes_the_limit(self, monkeypatch, decompose):
        # 200! has 375 digits and 201! has 378.
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 375)
        assert decompose(200).level == (math.factorial(200),) * 2
        with pytest.raises(ValueError, match="^stage 201 is too large to report: .* 375 digits"):
            decompose(201)

    @pytest.mark.parametrize("decompose", STAGE_CALLS.values(), ids=STAGE_CALLS)
    def test_no_stage_refused_without_a_limit(self, monkeypatch, decompose):
        monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 0)
        assert decompose(2000).level == (math.factorial(2000),) * 2

    def test_blowup_row_counts_codim_minus_one(self):
        v = iv({"X": 1, "T": 1, "C": 0, "E1": 0, "T@1": 0, "T@2": 0, "T@3": 0})
        report = decompose_nc(TRIPLE, v, 2)
        assert count_of(report, "T") == 2
        assert report.rows[0].counting_function == "blow-up"

    def test_simple_input_matches_truncated_tower(self):
        v_nc = iv({"X": 7, "A": 3, "B": 4, "S": 2})
        v_kfl = iv({"X": 7, "D_{A}": 3, "D_{B}": 4, "D_{A,B}": 2})
        rename = {"A": "D_{A}", "B": "D_{B}", "S": "D_{A,B}"}
        snc = snc_of_simple(SIMPLE_X)
        for n in range(1, 5):
            via_nc = decompose_nc(SIMPLE_X, v_nc, n)
            via_kfl = decompose_kfl(snc, v_kfl, n)
            assert via_nc.total == via_kfl.total
            for short, long in rename.items():
                assert count_of(via_nc, short) == count_of(via_kfl, long)

    def test_multiplicities_strictly_increase(self):
        v = iv(NODAL_V)
        for name in ("C", "E1", "N@1", "N@2"):
            counts = [
                count_of(decompose_nc(NODAL, v, n), name) for n in range(1, 5)
            ]
            assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_missing_value(self):
        incomplete = dict(NODAL_V)
        del incomplete["N@2"]
        with pytest.raises(MissingValue):
            decompose_nc(NODAL, iv(incomplete), 2)

    def test_strictification_errors_propagate(self):
        bad = NcComplex(
            ("C", "D"),
            (
                Crossing("M", (("C", 1), ("C", 2))),
                Crossing("P", (("C", 1), ("D", 1))),
            ),
            closure_pairs=(("P", "M"),),
        )
        with pytest.raises(UnsupportedConfiguration):
            decompose_nc(bad, iv(NODAL_V), 2)

    def test_construction_dependence_noted(self):
        report = decompose_nc(NODAL, iv(NODAL_V), 2)
        assert any("construction-dependent" in note for note in report.notes)


class TestDecomposeSimplicial:
    def test_a1_stage_two_frozen(self):
        chart = SimplicialChart((A1,))
        snc, data = canonical_root_pair(chart)
        g = iv({"X": 4, "D_{R1}": 2, "D_{R2}": 3, "D_{R1,R2}": 1}, invariant="G")
        report = decompose_simplicial_complexified(chart, data, g, 2)
        assert count_of(report, "D_{R1,R2}") == 2
        assert count_of(report, "D_{R1}") == 1
        assert report.total == 4 + 2 + 3 + 2 * 1
        assert report.invariant == "G"

    def test_free_chart_matches_finite_counts(self):
        chart = SimplicialChart((FREE2,))
        snc, data = canonical_root_pair(chart)
        g = iv({"X": 1, "D_{R1}": 1, "D_{R2}": 1, "D_{R1,R2}": 1})
        for r in range(1, 6):
            via_fixed = decompose_simplicial_complexified(chart, data, g, r)
            via_finite = decompose_finite(snc, (r, r), g)
            assert via_fixed.total == via_finite.total
            assert [(row.stratum, row.count) for row in via_fixed.rows] == [
                (row.stratum, row.count) for row in via_finite.rows
            ]

    def test_free_chart_matches_truncated_tower(self):
        chart = SimplicialChart((FREE2,))
        snc, data = canonical_root_pair(chart)
        g = iv({"X": 2, "D_{R1}": 3, "D_{R2}": 5, "D_{R1,R2}": 7})
        for n in range(1, 4):
            via_fixed = decompose_simplicial_complexified(
                chart, data, g, math.factorial(n)
            )
            assert via_fixed.total == decompose_kfl(snc, g, n).total

    def test_totals_monotone_in_truncation(self):
        chart = SimplicialChart((A1,))
        _, data = canonical_root_pair(chart)
        g = iv({"X": 1, "D_{R1}": 1, "D_{R2}": 1, "D_{R1,R2}": 1})
        totals = [
            decompose_simplicial_complexified(chart, data, g, r).total
            for r in range(1, 7)
        ]
        assert totals == sorted(totals)
        assert totals[0] == 1

    def test_counts_agree_with_fixed_locus_index(self):
        chart = SimplicialChart((A1,))
        snc, data = canonical_root_pair(chart)
        g = iv({"X": 0, "D_{R1}": 1, "D_{R2}": 1, "D_{R1,R2}": 1})
        report = decompose_simplicial_complexified(chart, data, g, 3)
        for row in report.rows:
            inner = row.stratum[len("D_{"):-1].split(",")
            assert row.count == fixed_locus_index(data, frozenset(inner), 3)

    def test_mismatched_action_data(self):
        chart = SimplicialChart((A1,))
        _, wrong = canonical_root_pair(SimplicialChart((FREE1,)))
        g = iv({"X": 1, "D_{R1}": 1, "D_{R2}": 1, "D_{R1,R2}": 1})
        with pytest.raises(UnsupportedAction):
            decompose_simplicial_complexified(chart, wrong, g, 2)

    def test_truncation_validation(self):
        chart = SimplicialChart((A1,))
        _, data = canonical_root_pair(chart)
        g = iv({"X": 1, "D_{R1}": 1, "D_{R2}": 1, "D_{R1,R2}": 1})
        with pytest.raises(ValueError):
            decompose_simplicial_complexified(chart, data, g, 0)


class TestEtaleFilter:
    def test_prime_to_part(self):
        assert prime_to_part(12, 2) == 3
        assert prime_to_part(12, 3) == 4
        assert prime_to_part(7, 2) == 7
        assert prime_to_part(1, 5) == 1
        with pytest.raises(ValueError):
            prime_to_part(0, 2)

    def test_power_of_p_level_filters_everything(self):
        v = iv({"X": 2, "D_{D}": 1})
        report = etale_filter(single_divisor(), v, 2, level=(4,))
        assert count_of(report, "D_{D}") == 0
        assert report.total == 2

    def test_coprime_prime_changes_nothing(self):
        v = iv(THREE_LINES_V)
        cx = three_lines()
        filtered = etale_filter(cx, v, 5, level=(2, 3, 4))
        plain = decompose_finite(cx, (2, 3, 4), v)
        assert filtered.total == plain.total
        assert [(r.stratum, r.count) for r in filtered.rows] == [
            (r.stratum, r.count) for r in plain.rows
        ]

    def test_counts_match_coprime_part_closed_form(self):
        cx = three_lines()
        v = iv(THREE_LINES_V)
        level = (4, 6, 5)
        report = etale_filter(cx, v, 2, level=level)
        parts = {c: prime_to_part(r, 2) for c, r in zip(cx.components, level)}
        for row in report.rows:
            inner = row.stratum[len("D_{"):-1].split(",")
            expected = 1
            for c in inner:
                expected *= parts[int(c)] - 1
            assert row.count == expected

    def test_filtered_counts_never_exceed_unfiltered(self):
        cx = three_lines()
        v = iv(THREE_LINES_V)
        for level in [(4, 6, 5), (2, 2, 2), (8, 3, 9)]:
            for p in (2, 3, 5):
                filtered = etale_filter(cx, v, p, level=level)
                plain = decompose_finite(cx, level, v)
                for frow, prow in zip(filtered.rows, plain.rows):
                    assert frow.stratum == prow.stratum
                    assert frow.count <= prow.count
                assert filtered.total <= plain.total

    def test_idempotent_under_coprime_reduction(self):
        cx = three_lines()
        v = iv(THREE_LINES_V)
        level = (4, 6, 12)
        reduced = tuple(prime_to_part(r, 2) for r in level)
        once = etale_filter(cx, v, 2, level=level)
        twice = etale_filter(cx, v, 2, level=reduced)
        assert once.total == twice.total
        assert [(r.stratum, r.count) for r in once.rows] == [
            (r.stratum, r.count) for r in twice.rows
        ]

    def test_truncation_mode(self):
        cx = single_divisor()
        v = iv({"X": 2, "D_{D}": 1})
        report = etale_filter(cx, v, 2, truncation=3)
        # 3! has coprime part 3, leaving the two odd-denominator characters
        assert count_of(report, "D_{D}") == 2
        assert report.total == 4
        same = etale_filter(cx, v, 2, level=(6,))
        assert report.total == same.total
        with pytest.raises(ValueError, match="^truncation must be a positive integer$"):
            etale_filter(cx, v, 2, truncation=0)

    def test_prime_tested_once_after_the_first_orders(self, monkeypatch):
        cx, v = three_lines(), iv(THREE_LINES_V)
        with pytest.raises(ValueError, match="^cyclic orders must be positive$"):
            etale_filter(cx, v, 4, level=(0, 6, 5))
        with pytest.raises(ValueError, match="^prime_to must be prime, got 4$"):
            etale_filter(cx, v, 4, level=(4, 6, 5))
        calls = []
        monkeypatch.setattr("logsod.decompose._is_prime", lambda p: not calls.append(p))
        etale_filter(cx, v, 2, level=(4, 6, 5))
        assert calls == [2]

    def test_orders_checked_before_the_prime_and_the_values(self):
        cx, no_base = three_lines(), iv({"D_{1}": 1})
        with pytest.raises(ValueError, match="^cyclic orders must be positive$"):
            etale_filter(cx, no_base, 4, level=(4, 6, 0))
        with pytest.raises(ValueError, match="^prime_to must be prime, got 4$"):
            etale_filter(cx, no_base, 4, level=(4, 6, 5))
        with pytest.raises(MissingValue):
            etale_filter(cx, no_base, 2, level=(4, 6, 5))

    def test_exactly_one_selector(self):
        v = iv({"X": 2, "D_{D}": 1})
        with pytest.raises(ValueError):
            etale_filter(single_divisor(), v, 2)
        with pytest.raises(ValueError):
            etale_filter(single_divisor(), v, 2, level=(2,), truncation=2)


class TestAdditivity:
    V = iv(THREE_LINES_V)
    W = iv({k: 3 * v + 1 for k, v in THREE_LINES_V.items()})

    def runs(self, v):
        cx = three_lines()
        return [
            decompose_finite(cx, (2, 3, 4), v),
            decompose_kfl(cx, v, 3),
            etale_filter(cx, v, 2, level=(4, 6, 5)),
        ]

    def test_totals_additive(self):
        for rv, rw, rs in zip(
            self.runs(self.V), self.runs(self.W), self.runs(combine(self.V, self.W))
        ):
            assert rs.total == value_add("int", rv.total, rw.total)

    def test_totals_scale(self):
        for rv, rs in zip(self.runs(self.V), self.runs(rescale(5, self.V))):
            assert rs.total == 5 * rv.total

    def test_nc_and_simplicial_additive(self):
        v = iv(NODAL_V)
        w = rescale(2, v)
        assert (
            decompose_nc(NODAL, combine(v, w), 3).total
            == decompose_nc(NODAL, v, 3).total + decompose_nc(NODAL, w, 3).total
        )
        chart = SimplicialChart((A1,))
        _, data = canonical_root_pair(chart)
        g = iv({"X": 4, "D_{R1}": 2, "D_{R2}": 3, "D_{R1,R2}": 1})
        doubled = decompose_simplicial_complexified(chart, data, combine(g, g), 4)
        single = decompose_simplicial_complexified(chart, data, g, 4)
        assert doubled.total == 2 * single.total


class TestLabelAggregation:
    def sum_over_labels(self, cx, level, v):
        desc = psod_snc(cx, level, order="standard")
        total = 0
        for lab in desc.labels:
            if lab.zero:
                continue
            name = cx.stratum_name(lab.stratum)
            total += v.value_of(name)
        return total

    def test_finite_total_equals_label_sum(self):
        cx = three_lines()
        v = iv(THREE_LINES_V)
        for level in [(2, 2, 2), (2, 3, 4), (1, 2, 3)]:
            assert decompose_finite(cx, level, v).total == self.sum_over_labels(
                cx, level, v
            )

    def test_kfl_total_equals_label_sum(self):
        cx = two_divisors()
        v = iv({"X": 5, "D_{A}": 3, "D_{B}": 2, "D_{A,B}": 1})
        for n in (1, 2, 3):
            level = (math.factorial(n),) * 2
            assert decompose_kfl(cx, v, n).total == self.sum_over_labels(cx, level, v)

    def test_nc_total_equals_label_piece_sum(self):
        v = iv(NODAL_V)
        desc = psod_nc(NODAL, 2)
        total = v.value_of("X")
        for center, copies in desc.base_breakdown:
            total += copies * v.value_of(center)
        for lab in desc.labels:
            if lab.provenance == "BaseStack" or lab.zero:
                continue
            for name, k in lab.normalized:
                total += k * v.value_of(name)
        assert decompose_nc(NODAL, v, 2).total == total


class TestClosedFormsAgainstEnumeration:
    """The closed-form counts against the enumeration they replace."""

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_etale_counts_match_enumeration(self, data):
        k = data.draw(st.integers(1, 3))
        level = tuple(data.draw(st.lists(st.integers(1, 40), min_size=k, max_size=k)))
        p = data.draw(st.sampled_from((2, 3, 5, 7)))
        comps = tuple(range(1, k + 1))
        strata = [frozenset(j) for size in range(k + 1) for j in combinations(comps, size)]
        cx = SncComplex(comps, frozenset(strata))
        by_name = {cx.stratum_name(j): j for j in strata if j}
        v = iv({"X": 0, **{name: 1 for name in by_name}})
        report = etale_filter(cx, v, p, level=level)
        assert {row.stratum for row in report.rows} == set(by_name)
        for row in report.rows:
            orders = [level[c - 1] for c in sorted(by_name[row.stratum])]
            chars = enumerate_characters(
                orders, range(1, len(orders) + 1), star=True, prime_to=p
            )
            assert row.count == len(chars), (level, p, row.stratum)

    @pytest.mark.parametrize(
        "nc", [NODAL, TWO_NODE, TRIPLE], ids=["nodal", "two-node", "triple"]
    )
    def test_nc_rows_match_label_aggregation(self, nc):
        for n in range(1, 5):
            desc = psod_nc(nc, n)
            expect = nc_rows_from_labels(desc)
            v = iv({"X": 1, **{name: 1 for name, _, _ in expect}})
            report = decompose_nc(nc, v, n)
            rows = [(r.stratum, r.count, r.counting_function) for r in report.rows]
            assert rows == expect, n
            assert report.level == desc.level
            assert report.total == 1 + sum(count for _, count, _ in expect)

    @pytest.mark.parametrize(
        "components",
        [("A", "B", "C", "D"), ("D", "C", "B", "A"), ("B", "D", "A", "C")],
    )
    def test_unrecorded_stratum_named_as_by_label_walk(self, components):
        # {B,C}, {B,D} and {C,D} lie on the triple crossing T but carry no
        # crossing record of their own; the first one the label order meets
        # depends on the component order.
        nc = NcComplex(
            components,
            (
                Crossing("T", (("B", 1), ("C", 1), ("D", 1))),
                Crossing("U", (("A", 1), ("D", 1))),
            ),
        )
        for n in (2, 3):
            with pytest.raises(ValueError) as want:
                nc_rows_from_labels(psod_nc(nc, n))
            with pytest.raises(UnsupportedConfiguration) as got:
                decompose_nc(nc, iv({"X": 1}), n)
            assert str(got.value) == (
                f"{want.value} has no crossing records to aggregate by"
            )
        # stage 1 has no gerbe characters, so nothing needs aggregating
        assert decompose_nc(nc, iv({"X": 1}), 1).rows == ()
