"""Crossings complexes, strictification, and fixed-locus data.

Group actions computed through the Smith transform are checked against an
independent character enumeration (oracles.dual_deck_action), and the
truncated index counts against the closed-form recount built on it.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from logsod.complexes import (
    STRATA_CAP,
    BlowupStep,
    Crossing,
    FixedLocusData,
    NcComplex,
    SimplicialChart,
    SncComplex,
    canonical_root_pair,
    fixed_locus_index,
    is_simple,
    nc_from_json,
    normalized_names,
    snc_from_divisors,
    snc_of_simple,
    strictify,
    strictify_nc,
)
from logsod.errors import (
    InconsistentIncidence,
    ParseError,
    TooManyStrata,
    UnknownStratum,
    UnsupportedConfiguration,
)
from logsod.monoids import ToricMonoid, canonical_kummer_extension
from logsod.orders import enumerate_characters

from conftest import MONOID_LIBRARY
from oracles import dual_deck_action

A1 = ToricMonoid(2, ((2, 0), (1, 1), (0, 2)))
THIRD = ToricMonoid(2, ((1, 0), (1, 1), (1, 2), (1, 3)))
FREE2 = ToricMonoid(2, ((1, 0), (0, 1)))
FREE1 = ToricMonoid(1, ((1,),))

NODAL = NcComplex(("C",), (Crossing("N", (("C", 1), ("C", 2))),), ambient_dim=2)
TWO_NODE = NcComplex(
    ("C",),
    (
        Crossing("N1", (("C", 1), ("C", 2))),
        Crossing("N2", (("C", 3), ("C", 4))),
    ),
    ambient_dim=2,
)
SIMPLE_X = NcComplex(("A", "B"), (Crossing("S", (("A", 1), ("B", 1))),))


class TestSncComplex:
    def test_three_lines(self):
        with pytest.warns(UserWarning):
            cx = snc_from_divisors([1, 2, 3], [[1, 2], [1, 3], [2, 3]])
        assert cx.is_nonempty([1, 2]) and cx.is_nonempty([3])
        assert not cx.is_nonempty([1, 2, 3])
        assert len(cx.nonempty) == 7
        assert cx.strata()[0] in {frozenset({1, 2}), frozenset({1, 3}), frozenset({2, 3})}
        assert cx.strata()[-1] == frozenset()
        assert cx.strata(proper=True)[-1] != frozenset()

    def test_closure_is_automatic(self):
        with pytest.warns(UserWarning, match="implied"):
            cx = snc_from_divisors(["A", "B"], [["A", "B"]])
        assert cx.is_nonempty(["A"]) and cx.is_nonempty([])

    def test_no_warning_when_closed(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            snc_from_divisors(["A"], [[], ["A"]])

    def test_explicit_empty_contradiction(self):
        with pytest.raises(InconsistentIncidence):
            snc_from_divisors([1, 2], [[1, 2]], empty=[[1]])
        with pytest.raises(InconsistentIncidence):
            snc_from_divisors([1, 2], [[1], [2]], empty=[[2]])

    def test_empty_list_is_fine(self):
        cx = snc_from_divisors([1, 2], [[1], [2]], empty=[[1, 2]])
        assert not cx.is_nonempty([1, 2])

    def test_validation(self):
        with pytest.raises(ValueError):
            SncComplex(("A", "A"), frozenset({frozenset()}))
        with pytest.raises(ValueError):
            SncComplex(("A",), frozenset({frozenset({"A"})}))
        with pytest.raises(ValueError):
            SncComplex(("A", "B"), frozenset({frozenset(), frozenset({"A", "B"})}))
        with pytest.raises(ValueError):
            SncComplex(("A",), frozenset({frozenset(), frozenset({"Z"})}))

    def test_stratum_names(self):
        with pytest.warns(UserWarning):
            cx = snc_from_divisors([1, 2], [[1, 2]])
        assert cx.stratum_name([]) == "X"
        assert cx.stratum_name([2, 1]) == "D_{1,2}"
        with pytest.raises(UnknownStratum):
            snc_from_divisors([1], [[1]]).stratum_name([1, 1, 2])

    def test_stratum_names_follow_component_order(self):
        def pair(a, b):
            return snc_from_divisors([a, b], [[a], [b], [a, b]])

        # int labels once sorted as strings, giving D_{10,9}
        assert pair(9, 10).stratum_name([10, 9]) == "D_{9,10}"
        assert pair("b", "a").stratum_name(["a", "b"]) == "D_{b,a}"
        assert pair(2, "b").stratum_name(["b", 2]) == "D_{2,b}"

    def test_json_shape(self):
        cx = snc_from_divisors(["A"], [[], ["A"]])
        assert cx.to_json() == {"components": ["A"], "nonempty": [["A"], []]}

    def test_json_lists_strata_in_component_order(self):
        # as stratum_name does; sorting by str gave [10, 9]
        for comps in ([9, 10], ["b", "a"], [2, "b"], ["b", 2]):
            strata = snc_from_divisors(comps, [comps[:1], comps[1:], comps]).to_json()["nonempty"]
            assert strata[0] == comps

    def test_unknown_component_message_with_mixed_labels(self):
        with pytest.raises(ValueError, match=r"stratum \[1, ''\] uses unknown components"):
            SncComplex(("",), frozenset({frozenset(), frozenset({""}), frozenset({"", 1})}))


# Every subset of one stratum of five components, listed by size.  A case id
# names the missing subset in the fixed order e, a, d, b, c (the names the
# cases have always had); a frozenset's own iteration order changes with the
# hash seed, and with it the ids.
LISTED = [c for k in range(6) for c in combinations("eadbc", k)]
FIVE = [frozenset(c) for c in LISTED]


class TestDownwardClosure:
    @pytest.mark.parametrize("missing", LISTED[1:-1], ids="".join)
    def test_one_missing_subset_of_a_five_component_stratum(self, missing):
        # The stratum and each of its other subsets stay, so exactly the
        # strata one component above the missing subset find it gone.
        with pytest.raises(ValueError, match="^nonempty strata must be downward closed$"):
            SncComplex(tuple("abcde"), frozenset(FIVE) - {frozenset(missing)})

    def test_the_whole_closure_is_closed(self):
        assert SncComplex(tuple("abcde"), frozenset(FIVE)).nonempty == frozenset(FIVE)


class TestStrataCap:
    def test_one_stratum_with_too_many_subsets(self):
        labels = list(range(17))
        message = (f"^a stratum of 17 components has 2\\^17 subsets, more than the "
                   f"{STRATA_CAP} nonempty strata a complex may have$")
        with pytest.raises(TooManyStrata, match=message):
            snc_from_divisors(labels, [labels])
        crossing = Crossing("S", tuple((c, 1) for c in labels))
        with pytest.raises(TooManyStrata, match=message):
            snc_of_simple(NcComplex(tuple(labels), (crossing,)))

    def test_closure_past_the_cap(self, monkeypatch):
        monkeypatch.setattr("logsod.complexes.STRATA_CAP", 8)
        with pytest.warns(UserWarning):
            assert len(snc_from_divisors("abc", ["abc"]).nonempty) == 8
        with pytest.raises(TooManyStrata, match="^the complex has at least 9 nonempty "
                                                "strata, more than the 8 it may have$"):
            snc_from_divisors("abcd", ["abc", "d"])


class TestCrossings:
    def test_codim_is_branch_count(self):
        s = Crossing("N", (("C", 1), ("C", 2)))
        assert s.codim == 2 and not s.is_simple()
        assert Crossing("S", (("A", 1), ("B", 1))).is_simple()

    def test_duplicate_branches_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            Crossing("N", (("C", 1), ("C", 1)))
        with pytest.raises(ValueError):
            Crossing("N", ())

    def test_complex_validation(self):
        with pytest.raises(ValueError, match="unknown component"):
            NcComplex(("C",), (Crossing("N", (("D", 1),)),))
        with pytest.raises(ValueError, match="distinct"):
            NcComplex(("C",), (Crossing("N", (("C", 1),)), Crossing("N", (("C", 2),))))
        with pytest.raises(ValueError, match="ambient"):
            NcComplex(("C",), (Crossing("N", (("C", 1), ("C", 2))),), ambient_dim=1)
        with pytest.raises(ValueError, match="closure"):
            NcComplex(("C",), (Crossing("N", (("C", 1),)),), (("N", "M"),))

    def test_is_simple(self):
        assert is_simple(SIMPLE_X)
        assert not is_simple(NODAL)
        triple = NcComplex(
            ("C",), (Crossing("T", (("C", 1), ("C", 2), ("C", 3))),), ambient_dim=3
        )
        assert not is_simple(triple)

    def test_json_roundtrip(self):
        data = NODAL.to_json()
        assert data["crossings"][0] == {
            "name": "N",
            "branches": [["C", 1], ["C", 2]],
            "codim": 2,
        }
        back = nc_from_json(data)
        assert back == NODAL

    def test_json_defaults_and_errors(self):
        cx = nc_from_json(
            {"components": ["C"], "crossings": [{"branches": [["C", 1], ["C", 2]]}]}
        )
        assert cx.crossings[0].name == "S1"
        with pytest.raises(ParseError, match="codim"):
            nc_from_json(
                {
                    "components": ["C"],
                    "crossings": [{"branches": [["C", 1], ["C", 2]], "codim": 3}],
                }
            )
        with pytest.raises(ParseError):
            nc_from_json({"components": ["C"]})


class TestStrictify:
    def test_nodal_curve(self):
        snc, log = strictify(NODAL)
        assert [s.exceptional for s in log.steps] == ["E1"]
        assert log.steps[0] == BlowupStep("N", 2, "E1")
        assert set(snc.components) == {"C", "E1"}
        assert snc.is_nonempty({"C", "E1"})
        simple, _ = strictify_nc(NODAL)
        assert normalized_names(simple, {"C", "E1"}) == (("N@1", 1), ("N@2", 1))

    def test_nodal_rewritten_complex(self):
        simple, log = strictify_nc(NODAL)
        assert is_simple(simple)
        assert len(log.steps) == 1
        assert sorted((s.name, s.origin) for s in simple.crossings) == [
            ("N.1", ("N", 1)), ("N.2", ("N", 2))]
        for s in simple.crossings:
            assert s.codim == 2

    def test_two_nodes(self):
        simple, log = strictify_nc(TWO_NODE)
        assert [(s.stratum, s.exceptional) for s in log.steps] == [
            ("N1", "E1"),
            ("N2", "E2"),
        ]
        assert len(simple.crossings) == 4
        snc, _ = strictify(TWO_NODE)
        assert snc.is_nonempty({"C", "E1"}) and snc.is_nonempty({"C", "E2"})
        assert not snc.is_nonempty({"E1", "E2"})

    def test_triple_point(self):
        triple = NcComplex(
            ("C",), (Crossing("T", (("C", 1), ("C", 2), ("C", 3))),), ambient_dim=3
        )
        simple, log = strictify_nc(triple)
        assert [s.codim for s in log.steps] == [3]
        assert normalized_names(simple, {"C", "E1"}) == (
            ("T@1", 1), ("T@2", 1), ("T@3", 1))

    def test_deepest_first(self):
        cx = NcComplex(
            ("C", "D"),
            (
                Crossing("M", (("D", 1), ("D", 2))),
                Crossing("T", (("C", 1), ("C", 2), ("C", 3))),
            ),
        )
        _, log = strictify_nc(cx)
        assert [(s.stratum, s.codim, s.exceptional) for s in log.steps] == [
            ("T", 3, "E1"),
            ("M", 2, "E2"),
        ]

    def test_already_simple(self):
        snc, log = strictify(SIMPLE_X)
        assert log.steps == ()
        assert set(snc.components) == {"A", "B"}
        assert normalized_names(SIMPLE_X, {"A", "B"}) == (("S", 1),)

    def test_exceptional_names_avoid_collisions(self):
        cx = NcComplex(
            ("C", "E1"),
            (Crossing("N", (("C", 1), ("C", 2))),),
            ambient_dim=2,
        )
        _, log = strictify_nc(cx)
        assert log.steps[0].exceptional == "E2"

    def test_not_point_like_by_dimension(self):
        deep = NcComplex(("C",), (Crossing("N", (("C", 1), ("C", 2))),), ambient_dim=3)
        with pytest.raises(UnsupportedConfiguration, match="point-like"):
            strictify_nc(deep)

    def test_not_point_like_by_closure(self):
        cx = NcComplex(
            ("C", "D"),
            (
                Crossing("M", (("C", 1), ("C", 2))),
                Crossing("P", (("C", 1), ("D", 1))),
            ),
            closure_pairs=(("P", "M"),),
        )
        with pytest.raises(UnsupportedConfiguration):
            strictify_nc(cx)

    def test_snc_of_simple_rejects_non_simple(self):
        with pytest.raises(UnsupportedConfiguration):
            snc_of_simple(NODAL)


class TestCanonicalRootPair:
    def test_half_diagonal_surface(self):
        snc, data = canonical_root_pair(SimplicialChart((A1,)))
        assert snc.components == ("R1", "R2")
        assert len(snc.nonempty) == 4
        assert data.invariant_factors == (2,)
        assert data.weights == ((1, 1),)
        assert data.fixed_components == (((1,), frozenset({"R1", "R2"})),)
        # R1, R2 name the extremal rays in lexicographic order.
        assert canonical_kummer_extension(A1).rays == ((0, 2), (2, 0))

    def test_free_chart_is_trivial(self):
        snc, data = canonical_root_pair(SimplicialChart((FREE2,)))
        assert data.invariant_factors == ()
        assert data.fixed_components == ()
        assert len(snc.nonempty) == 4

    def test_third_chart(self):
        _, data = canonical_root_pair(SimplicialChart((THIRD,)))
        assert data.invariant_factors == (3,)
        (w,) = data.weights
        assert w[0] == w[1] != 0
        assert len(data.fixed_components) == 2
        for _, moved in data.fixed_components:
            assert moved == frozenset({"R1", "R2"})

    def test_group_order(self):
        _, data = canonical_root_pair(SimplicialChart((A1,)))
        assert data.group_order() == 2
        assert len(data.fixed_components) == data.group_order() - 1

    def test_matches_dual_character_oracle(self, monoid_library):
        for case in monoid_library:
            ext = canonical_kummer_extension(case.monoid)
            _, data = canonical_root_pair(SimplicialChart((case.monoid,)))
            order, oracle_moved = dual_deck_action(
                ext.target_basis, case.monoid.generators
            )
            assert data.group_order() == order, case.name
            produced = sorted(
                tuple(sorted(int(lab[1:]) for lab in moved))
                for _, moved in data.fixed_components
            )
            assert produced == oracle_moved, case.name

    def test_action_is_faithful(self, monoid_library):
        for case in monoid_library:
            _, data = canonical_root_pair(SimplicialChart((case.monoid,)))
            for g, moved in data.fixed_components:
                assert moved, f"{case.name}: {g} acts trivially"

    def test_factors_match_kummer_data(self, monoid_library):
        for case in monoid_library:
            ext = canonical_kummer_extension(case.monoid)
            _, data = canonical_root_pair(SimplicialChart((case.monoid,)))
            assert data.invariant_factors == ext.quotient_invariant_factors, case.name

    def test_weight_rows_annihilated_by_lattice(self, monoid_library):
        # Every lattice vector must act trivially: its basis coordinates
        # paired with each weight row land in the factor's modulus.
        from logsod.intlinalg import solve_linear
        from logsod.monoids import group_lattice

        for case in monoid_library:
            m = case.monoid
            ext = canonical_kummer_extension(m)
            _, data = canonical_root_pair(SimplicialChart((m,)))
            cols = [[v[d] for v in ext.target_basis] for d in range(m.ambient_rank)]
            for row in group_lattice(m):
                sol = solve_linear(cols, row)
                coords = [int(s) for s in sol]
                for dk, wrow in zip(data.invariant_factors, data.weights):
                    assert sum(c * w for c, w in zip(coords, wrow)) % dk == 0

    def test_disjoint_union_of_free_charts(self):
        snc, data = canonical_root_pair(SimplicialChart((FREE2, FREE1)))
        assert snc.components == ("C1.R1", "C1.R2", "C2.R1")
        assert snc.is_nonempty({"C1.R1", "C1.R2"})
        assert snc.is_nonempty({"C2.R1"})
        assert not snc.is_nonempty({"C1.R1", "C2.R1"})
        assert data.invariant_factors == ()

    def test_multi_chart_extends_each_chart_once(self, monkeypatch):
        # The chart functions import canonical_kummer_extension when they
        # run, so it is counted where they find it.
        import logsod.monoids as monoids

        calls = []

        def counted(m):
            calls.append(m)
            return canonical_kummer_extension(m)

        monkeypatch.setattr(monoids, "canonical_kummer_extension", counted)
        canonical_root_pair(SimplicialChart((FREE2, FREE1)))
        assert calls == [FREE2, FREE1]

    def test_multi_chart_must_be_free(self):
        with pytest.raises(UnsupportedConfiguration, match="free"):
            canonical_root_pair(SimplicialChart((FREE2, A1)))
        with pytest.raises(ValueError):
            SimplicialChart(())

    def test_fixed_locus_json(self):
        _, data = canonical_root_pair(SimplicialChart((A1,)))
        assert data.to_json() == {
            "components": ["R1", "R2"],
            "invariant_factors": [2],
            "weights": [[1, 1]],
            "fixed_components": [{"element": [1], "stratum": ["R1", "R2"]}],
        }

    def test_json_lists_strata_in_component_order(self):
        data = FixedLocusData((9, 10), (2,), ((1, 1),), (((1,), frozenset({9, 10})),))
        assert data.to_json()["fixed_components"] == [{"element": [1], "stratum": [9, 10]}]

    def test_weight_shape_validation(self):
        with pytest.raises(ValueError):
            FixedLocusData(("R1",), (2,), (), ())
        with pytest.raises(ValueError):
            FixedLocusData(("R1",), (2,), ((1, 1),), ())


@cache
def _root_pair_data(monoid: ToricMonoid) -> FixedLocusData:
    return canonical_root_pair(SimplicialChart((monoid,)))[1]


class TestFixedLocusIndex:
    def test_half_diagonal_at_two(self):
        _, data = canonical_root_pair(SimplicialChart((A1,)))
        assert fixed_locus_index(data, {"R1", "R2"}, 2) == 2
        assert fixed_locus_index(data, {"R1"}, 2) == 1
        assert fixed_locus_index(data, set(), 2) == 1

    def test_half_diagonal_other_truncations(self):
        _, data = canonical_root_pair(SimplicialChart((A1,)))
        assert fixed_locus_index(data, {"R1", "R2"}, 3) == 8
        assert [fixed_locus_index(data, {"R1", "R2"}, r) for r in range(1, 7)] == [
            0, 2, 8, 18, 32, 50,
        ]

    def test_truncation_one_kills_positive_codim(self):
        _, data = canonical_root_pair(SimplicialChart((A1,)))
        assert fixed_locus_index(data, {"R1"}, 1) == 0
        assert fixed_locus_index(data, {"R1", "R2"}, 1) == 0

    def test_third_chart_values(self):
        _, data = canonical_root_pair(SimplicialChart((THIRD,)))
        assert fixed_locus_index(data, {"R1", "R2"}, 3) == 12
        assert fixed_locus_index(data, {"R1"}, 3) == 2

    def test_trivial_group_reduction(self):
        _, data = canonical_root_pair(SimplicialChart((FREE2,)))
        for r in (1, 2, 3, 5):
            assert fixed_locus_index(data, {"R1", "R2"}, r) == (r - 1) ** 2
            assert fixed_locus_index(data, {"R1"}, r) == r - 1

    def test_monotone_in_truncation(self, monoid_library):
        for case in monoid_library:
            snc, data = canonical_root_pair(SimplicialChart((case.monoid,)))
            for stratum in snc.strata():
                values = [fixed_locus_index(data, stratum, r) for r in range(1, 5)]
                assert values == sorted(values), case.name

    def test_matches_closed_form_recount(self, monoid_library):
        for case in monoid_library:
            snc, data = canonical_root_pair(SimplicialChart((case.monoid,)))
            moved_sets = [moved for _, moved in data.fixed_components]
            for stratum in snc.strata():
                for r in (1, 2, 3, 4):
                    expect = (r - 1) ** len(stratum) + sum(
                        (r - 1) ** len(mv) for mv in moved_sets if mv <= stratum
                    )
                    got = fixed_locus_index(data, stratum, r)
                    assert got == expect, (case.name, sorted(stratum), r)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_matches_enumerated_star_counts(self, data):
        case = data.draw(st.sampled_from(MONOID_LIBRARY))
        fixed = _root_pair_data(case.monoid)
        stratum = frozenset(data.draw(st.sets(st.sampled_from(fixed.components))))
        t = data.draw(st.integers(1, 12))

        def star_count(codim):
            orders = [t] * max(codim, 1)
            return len(enumerate_characters(orders, range(1, codim + 1), star=True))

        expect = star_count(len(stratum)) + sum(
            star_count(len(moved))
            for _, moved in fixed.fixed_components
            if moved <= stratum
        )
        assert fixed_locus_index(fixed, stratum, t) == expect

    def test_bad_inputs(self):
        _, data = canonical_root_pair(SimplicialChart((A1,)))
        with pytest.raises(UnknownStratum):
            fixed_locus_index(data, {"R9"}, 2)
        with pytest.raises(ValueError):
            fixed_locus_index(data, {"R1"}, 0)
