"""Toric monoid kernel tests: rays, indecomposables, Kummer extensions."""

import math
import random
from fractions import Fraction
from itertools import product

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from conftest import MONOID_LIBRARY, SQUARE_CONE, UNSATURATED
from logsod import monoids
from logsod.errors import (
    BoxTooLarge,
    LogsodError,
    NotSharp,
    NotSimplicial,
    ParseError,
    TooManyFaces,
    ZeroMonoid,
)
from logsod.intlinalg import in_row_span, nonneg_combination
from logsod.monoids import (
    KummerExtension,
    ToricMonoid,
    canonical_kummer_extension,
    contains,
    extremal_rays,
    face_strata,
    group_lattice,
    indecomposables,
    is_saturated,
    is_sharp,
    is_simplicial,
    saturate,
)
from oracles import (
    contains_by_enumeration,
    extremal_dirs_by_facets,
    extremal_rays_by_lp,
    face_strata_by_lp,
    is_saturated_by_lp,
    kummer_is_minimal,
    primitive,
    rank,
    saturate_by_lp,
    solve_exact,
)

A1 = ToricMonoid(2, ((2, 0), (1, 1), (0, 2)))


def bounded_combinations(gens, bound, rank=None):
    """All integer combinations with coefficients in [-bound, bound]; rank
    gives the length of the zero vector when gens is empty."""
    rank = len(gens[0]) if rank is None else rank
    out = set()
    for coeffs in product(range(-bound, bound + 1), repeat=len(gens)):
        v = tuple(sum(c * g[k] for c, g in zip(coeffs, gens)) for k in range(rank))
        out.add(v)
    return out


class TestToricMonoid:
    def test_validation(self):
        with pytest.raises(ValueError):
            ToricMonoid(2, ((0, 0),))
        with pytest.raises(ValueError):
            ToricMonoid(2, ((1, 2, 3),))
        with pytest.raises(ValueError):
            ToricMonoid(0, ())

    def test_json_roundtrip(self):
        m = ToricMonoid.from_json(A1.to_json())
        assert m == A1

    def test_bad_payload(self):
        with pytest.raises(ParseError):
            ToricMonoid.from_json({"rank": 2})
        with pytest.raises(ParseError):
            ToricMonoid.from_json({"rank": 2, "generators": [[0, 0]]})
        with pytest.raises(ParseError):
            ToricMonoid.from_json({"rank": "x", "generators": []})


class TestGroupLattice:
    def test_even_sum_lattice(self):
        assert group_lattice(A1) == [(1, 1), (0, 2)]

    def test_standard_lattice(self):
        assert group_lattice(ToricMonoid(2, ((1, 0), (0, 1)))) == [(1, 0), (0, 1)]

    def test_scaled_line(self):
        assert group_lattice(ToricMonoid(1, ((3,),))) == [(3,)]

    def test_box_oracle(self):
        for case in MONOID_LIBRARY[:8]:
            gens = case.monoid.generators
            basis = group_lattice(case.monoid)
            combos = bounded_combinations(gens, 2)
            for v in combos:
                assert in_row_span(basis, list(v))
            # row is a [-4, 4] combination of all generators exactly when
            # some such sum a over the first half leaves row - a a sum over
            # the second half (meet in the middle).
            half = len(gens) // 2
            first = bounded_combinations(gens[:half], 4, case.monoid.ambient_rank)
            second = bounded_combinations(gens[half:], 4, case.monoid.ambient_rank)
            for row in basis:
                assert any(tuple(r - x for r, x in zip(row, a)) in second for a in first)

    def test_empty_rejected(self):
        with pytest.raises(ZeroMonoid):
            group_lattice(ToricMonoid(2, ()))


class TestExtremalRays:
    def test_library_frozen(self, monoid_library):
        for case in monoid_library:
            assert extremal_rays(case.monoid) == list(case.rays), case.name

    def test_facet_oracle_agreement(self, monoid_library):
        for case in monoid_library:
            got_dirs = sorted(primitive(r) for r in extremal_rays(case.monoid))
            want = extremal_dirs_by_facets(list(case.monoid.generators))
            assert got_dirs == want, case.name

    def test_square_cone_all_extremal(self):
        assert extremal_rays(SQUARE_CONE) == [
            (0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1),
        ]

    def test_primitive_in_group_lattice(self):
        # (1, 0) is the ambient-primitive direction but (2, 0) generates the
        # ray inside the monoid's own lattice.
        assert (2, 0) in extremal_rays(A1)

    def test_invariance_under_presentation(self):
        base = extremal_rays(A1)
        shuffled = ToricMonoid(2, ((0, 2), (2, 0), (1, 1)))
        assert extremal_rays(shuffled) == base
        fattened = ToricMonoid(2, A1.generators + ((4, 0), (2, 2), (1, 3)))
        assert extremal_rays(fattened) == base

    def test_zero_monoid(self):
        with pytest.raises(ZeroMonoid):
            extremal_rays(ToricMonoid(2, ()))


class TestSimplicial:
    def test_library_all_simplicial(self, monoid_library):
        for case in monoid_library:
            assert is_simplicial(case.monoid), case.name

    def test_square_cone_not_simplicial(self):
        assert not is_simplicial(SQUARE_CONE)


class TestSharpness:
    def test_sharp_cases(self):
        assert is_sharp(A1)
        assert is_sharp(ToricMonoid(2, ()))

    def test_non_sharp(self):
        assert not is_sharp(ToricMonoid(1, ((1,), (-1,))))
        with pytest.raises(NotSharp):
            indecomposables(ToricMonoid(1, ((1,), (-1,))))


class TestContains:
    def test_frozen_memberships(self):
        assert contains(A1, (1, 1))
        assert contains(A1, (3, 1))
        assert contains(A1, (0, 0))
        assert not contains(A1, (1, 0))
        assert not contains(A1, (-1, 1))

    def test_unsaturated_gap(self):
        assert not contains(UNSATURATED, (1, 2))
        assert contains(UNSATURATED, (2, 4))


class TestIndecomposables:
    def test_library_frozen(self, monoid_library):
        for case in monoid_library:
            if case.indecomposables:
                assert indecomposables(case.monoid) == list(case.indecomposables), case.name

    def test_box_oracle(self, monoid_library):
        # Element is indecomposable iff it is not a sum of two nonzero monoid
        # elements; brute force over the saturated membership test.
        for case in monoid_library[:10]:
            m = case.monoid
            rays = extremal_rays(m)
            lattice_box = bounded_combinations(m.generators, 2)

            def member(v):
                if v not in lattice_box:
                    return False
                sol = solve_exact(
                    [[Fraction(r[d]) for r in rays] for d in range(m.ambient_rank)],
                    [Fraction(x) for x in v],
                )
                return sol is not None and all(s >= 0 for s in sol)

            got = set(indecomposables(m))
            for g in set(m.generators):
                decom = False
                for h in set(m.generators):
                    rest = tuple(a - b for a, b in zip(g, h))
                    if any(rest) and member(rest) and contains(m, rest):
                        decom = True
                        break
                assert (g not in got) == decom, (case.name, g)

    def test_redundant_generators_removed(self):
        m = ToricMonoid(2, ((1, 0), (0, 1), (1, 1), (2, 3)))
        assert indecomposables(m) == [(0, 1), (1, 0)]


class TestSaturate:
    def test_third_chart_from_cone(self):
        m = ToricMonoid(2, ((1, 0), (1, 3)))
        assert saturate(m).generators == ((1, 0), (1, 1), (1, 2), (1, 3))

    def test_ambient_saturation_of_sublattice_monoid(self):
        assert saturate(A1).generators == ((0, 1), (1, 0))

    def test_library_is_saturated(self, monoid_library):
        for case in monoid_library:
            assert is_saturated(case.monoid), case.name

    def test_detects_unsaturated(self):
        assert not is_saturated(UNSATURATED)

    def test_saturation_idempotent(self):
        m = saturate(UNSATURATED)
        assert is_saturated(m)
        assert saturate(m) == m

    @pytest.mark.parametrize("check", [saturate, is_saturated])
    def test_box_guard_is_documented_error(self, check):
        # 3,000,002 box points, over the 2,000,000 cap: refused before any LP.
        with pytest.raises(BoxTooLarge, match="generator box too large") as info:
            check(ToricMonoid(1, ((1,), (3_000_000,))))
        assert isinstance(info.value, LogsodError)
        assert isinstance(info.value, ValueError)


@st.composite
def small_monoids(draw):
    """Ambient rank 1-3, 1-4 nonzero generators with entries in [-2, 3];
    a flat draw copies the first coordinate into the last, so the cone
    spans a proper subspace that no coordinate plane contains."""
    rank = draw(st.integers(1, 3))
    flat = rank > 1 and draw(st.integers(0, 3)) == 0
    vec = st.lists(st.integers(-2, 3), min_size=rank, max_size=rank)
    if flat:
        vec = vec.map(lambda v: v[:-1] + v[:1])
    count = draw(st.integers(1, 4))
    gens = draw(st.lists(vec.filter(any), min_size=count, max_size=count))
    return ToricMonoid(rank, tuple(tuple(g) for g in gens))


def _outcome(f, m):
    try:
        return f(m)
    except LogsodError as exc:
        return type(exc), str(exc)


class TestSaturationAgainstLp:
    """The facet-normal route against one exact LP per box point."""

    @settings(max_examples=60, deadline=None)
    @given(small_monoids())
    def test_verdicts_match(self, m):
        assert _outcome(is_saturated, m) == _outcome(is_saturated_by_lp, m)
        assert _outcome(lambda x: saturate(x).generators, m) == _outcome(saturate_by_lp, m)

    @settings(max_examples=60, deadline=None)
    @given(small_monoids())
    def test_membership_matches_lp_on_every_tested_point(self, m):
        lattice = group_lattice(m)
        gens = sorted(set(m.generators))
        in_cone: dict[tuple, bool] = {}
        tested = []
        real = monoids._cone_membership

        def checking(m, own_lattice):
            member = real(m, own_lattice)

            def check(v):
                v = tuple(v)
                if v not in in_cone:
                    in_cone[v] = nonneg_combination(gens, v) is not None
                want = in_cone[v] and (not own_lattice or in_row_span(lattice, v))
                assert member(v) == want, (v, own_lattice)
                tested.append(v)
                return want

            return check

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(monoids, "_cone_membership", checking)
            _outcome(is_saturated, m)
            saturate(m)
        assert tested


class TestThinConesAgainstLp:
    """The cone over (1, 0) and (1, k) holds k + 1 minimal points, found by
    the reduction in degree order; the LP route compares every pair."""

    @pytest.mark.parametrize("k", range(1, 41))
    def test_saturation_matches_lp(self, k):
        m = ToricMonoid(2, ((1, 0), (1, k)))
        assert saturate(m).generators == saturate_by_lp(m) == tuple((1, j) for j in range(k + 1))
        assert is_saturated(m) is is_saturated_by_lp(m) is True


class TestContainsAgainstEnumeration:
    """The membership search against sums of at most w.v generators, w a
    grading, on every point of the generator box."""

    @settings(max_examples=60, deadline=None)
    @given(small_monoids().filter(is_sharp))
    def test_box_points(self, m):
        lo = [sum(min(0, g[k]) for g in m.generators) for k in range(m.ambient_rank)]
        hi = [sum(max(0, g[k]) for g in m.generators) for k in range(m.ambient_rank)]
        for p in product(*(range(a, b + 1) for a, b in zip(lo, hi))):
            assert contains(m, p) == contains_by_enumeration(m, p), p


# The cone is the plane and has no facet normals; no generator is a
# combination of the other two, so all three are extremal by the definition.
WHOLE_PLANE = ToricMonoid(2, ((1, 0), (0, 1), (-1, -1)))
# The plane again, where every generator is a combination of the others.
NO_RAYS = ToricMonoid(2, ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)))
# A cone with a line, where (0, 1) is extremal by the definition.
HALF_PLANE = ToricMonoid(2, ((1, 0), (-1, 0), (0, 1)))
# The square cone with 21 more directions inside: C(25, 2) = 300 subsets.
PAST_FACET_CAP = ToricMonoid(3, tuple((i, j, 4) for i in range(5) for j in range(5)))


def _faces(m):
    p = face_strata(m)
    return p.elements, p.rows()


def _simplicial_by_lp(m):
    rays = extremal_rays_by_lp(m)
    return rank([list(map(Fraction, r)) for r in rays]) == len(rays)


class TestFacesAgainstLp:
    """Rays and faces from integer facet normals against one exact LP per
    direction and per ray subset."""

    @staticmethod
    def check(m):
        assert _outcome(extremal_rays, m) == _outcome(extremal_rays_by_lp, m)
        assert _outcome(is_simplicial, m) == _outcome(_simplicial_by_lp, m)
        assert _outcome(_faces, m) == _outcome(face_strata_by_lp, m)

    @settings(max_examples=150, deadline=None)
    @given(small_monoids())
    def test_random_monoids(self, m):
        self.check(m)

    @pytest.mark.parametrize("seed", range(4))
    def test_library_in_shuffled_orders(self, monoid_library, seed):
        rng = random.Random(seed)
        for case in monoid_library:
            gens = list(case.monoid.generators)
            rng.shuffle(gens)
            self.check(ToricMonoid(case.monoid.ambient_rank, tuple(gens)))

    @pytest.mark.parametrize(
        "m", [WHOLE_PLANE, NO_RAYS, HALF_PLANE, PAST_FACET_CAP, SQUARE_CONE, UNSATURATED]
    )
    def test_fixed_cones(self, m):
        self.check(m)

    def test_whole_plane(self):
        assert extremal_rays(WHOLE_PLANE) == [(-1, -1), (0, 1), (1, 0)]
        assert face_strata(WHOLE_PLANE).elements == (((-1, -1), (0, 1), (1, 0)),)

    def test_no_rays(self):
        assert extremal_rays(NO_RAYS) == []
        assert face_strata(NO_RAYS).elements == ((),)

    def test_half_plane_keeps_the_definition(self):
        assert extremal_rays(HALF_PLANE) == [(-1, 0), (0, 1), (1, 0)]
        # The line is the smallest face: no functional is positive on it.
        assert face_strata(HALF_PLANE).elements == (((-1, 0), (1, 0)), ((-1, 0), (0, 1), (1, 0)))

    def test_past_the_cap_takes_one_lp_per_direction(self, monkeypatch):
        assert math.comb(25, 2) > monoids.FACET_PASS_CAP
        calls = []

        def counting(columns, target):
            calls.append(target)
            return nonneg_combination(columns, target)

        monkeypatch.setattr(monoids, "nonneg_combination", counting)
        assert extremal_rays(PAST_FACET_CAP) == [(0, 0, 4), (0, 4, 4), (4, 0, 4), (4, 4, 4)]
        assert len(calls) == 25

    def test_pointed_cones_under_the_cap_take_no_lp(self, monoid_library, monkeypatch):
        def refuse(*args):
            raise AssertionError("LP called")

        monkeypatch.setattr(monoids, "nonneg_combination", refuse)
        monkeypatch.setattr(monoids, "separating_functional", refuse)
        for m in [*(case.monoid for case in monoid_library), SQUARE_CONE, UNSATURATED]:
            assert extremal_rays(m)
            face_strata(m)
            is_saturated(m)


class TestBareissDeterminant:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 6).flatmap(
        lambda n: st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n), min_size=n, max_size=n)
    ))
    def test_matches_sympy(self, rows):
        assert monoids._bareiss_det(rows) == (sympy.Matrix(rows).det() if rows else 1)


class TestKummerExtension:
    def test_library_frozen(self, monoid_library):
        for case in monoid_library:
            ext = canonical_kummer_extension(case.monoid)
            assert ext.root_orders == case.root_orders, case.name
            assert ext.quotient_invariant_factors == case.quotient, case.name

    def test_minimality_oracle(self, monoid_library):
        for case in monoid_library:
            ext = canonical_kummer_extension(case.monoid)
            non_ray = [
                q for q in indecomposables(case.monoid)
                if q not in set(ext.rays)
            ]
            assert kummer_is_minimal(
                list(ext.rays), non_ray + list(ext.rays), list(ext.root_orders)
            ), case.name

    def test_kummer_property(self, monoid_library):
        for case in monoid_library:
            ext = canonical_kummer_extension(case.monoid)
            for c, v, ray in zip(ext.root_orders, ext.target_basis, ext.rays):
                assert tuple(c * x for x in v) == ray
                assert contains(case.monoid, ray), case.name

    def test_generators_integral_in_extension(self, monoid_library):
        for case in monoid_library:
            ext = canonical_kummer_extension(case.monoid)
            cols = [
                [v[d] for v in ext.target_basis]
                for d in range(case.monoid.ambient_rank)
            ]
            for g in case.monoid.generators:
                sol = solve_exact(cols, [Fraction(x) for x in g])
                assert sol is not None
                assert all(s.denominator == 1 and s >= 0 for s in sol), case.name

    def test_quotient_order_is_lattice_index(self, monoid_library):
        for case in monoid_library:
            ext = canonical_kummer_extension(case.monoid)
            cols = [
                [v[d] for v in ext.target_basis]
                for d in range(case.monoid.ambient_rank)
            ]
            rows = []
            for row in group_lattice(case.monoid):
                sol = solve_exact(cols, [Fraction(x) for x in row])
                rows.append([int(s) for s in sol])
            index = abs(sympy.Matrix(rows).det())
            assert ext.group_order() == index, case.name

    def test_free_identity(self):
        ext = canonical_kummer_extension(ToricMonoid(2, ((1, 0), (0, 1))))
        assert ext.root_orders == (1, 1)
        assert ext.quotient_invariant_factors == ()
        assert ext.group_order() == 1

    def test_not_simplicial_rejected(self):
        with pytest.raises(NotSimplicial):
            canonical_kummer_extension(SQUARE_CONE)

    def test_validation(self):
        with pytest.raises(ValueError):
            KummerExtension(A1, ((Fraction(1), Fraction(0)),), (1, 1), ())
        with pytest.raises(ValueError):
            KummerExtension(
                A1,
                ((Fraction(1), Fraction(0)), (Fraction(2), Fraction(0))),
                (1, 1),
                (),
            )
        with pytest.raises(ValueError):
            KummerExtension(
                A1,
                ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))),
                (1, 1),
                (1,),
            )

    def test_json_shape(self):
        js = canonical_kummer_extension(A1).to_json()
        assert js["root_orders"] == [2, 2]
        assert js["quotient_invariant_factors"] == [2]
        assert js["target_basis"] == [[[0, 1], [1, 1]], [[1, 1], [0, 1]]]


class TestFaceStrata:
    def test_many_rays_refused_with_count(self):
        # The cone over (i, i^2, 1) has a ray for each i: 11 rays have 2048
        # subsets, over the cap.
        m = ToricMonoid(3, tuple((i, i * i, 1) for i in range(11)))
        assert 2 ** 10 <= monoids.FACE_SUBSET_CAP < 2 ** 11
        with pytest.raises(TooManyFaces, match="11 extremal rays has 2048 ray subsets") as info:
            face_strata(m)
        assert isinstance(info.value, LogsodError)

    def test_free_square_lattice(self):
        fl = face_strata(ToricMonoid(2, ((1, 0), (0, 1))))
        assert len(fl) == 4
        assert [len(f) for f in fl.elements] == [0, 1, 1, 2]

    def test_a1_face_lattice(self):
        fl = face_strata(A1)
        assert len(fl) == 4
        rays = extremal_rays(A1)
        empty, full = (), tuple(rays)
        assert fl.leq(empty, (rays[0],))
        assert fl.leq((rays[0],), full)
        assert not fl.leq(full, empty)
        assert not fl.leq((rays[0],), (rays[1],))

    def test_square_cone_count(self):
        fl = face_strata(SQUARE_CONE)
        assert len(fl) == 10
        from logsod.intlinalg import rational_rank

        dims = [rational_rank(f) for f in fl.elements]
        assert dims == sorted(dims)
        assert dims.count(0) == 1 and dims.count(1) == 4
        assert dims.count(2) == 4 and dims.count(3) == 1

    def test_inclusion_is_subset(self):
        fl = face_strata(A1)
        for a in fl.elements:
            for b in fl.elements:
                assert fl.leq(a, b) == (set(a) <= set(b))
