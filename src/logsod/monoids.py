"""Exact algorithms on toric monoids and their rational cones.

A toric monoid is a finitely generated, sharp, integral, saturated submonoid
of a lattice.  This module computes its group lattice, the extremal rays of
its cone (primitive inside the group lattice, not the ambient one), minimal
generating sets, the face lattice, and the minimal free Kummer extension with
root orders and the finite quotient group in invariant-factor form.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product
from typing import Callable, Optional, Sequence

from logsod import Record
from logsod.errors import BoxTooLarge, NotSharp, NotSimplicial, ParseError, TooManyFaces, ZeroMonoid
from logsod.intlinalg import (
    hermite_row_basis,
    in_row_span,
    invariant_factors,
    nonneg_combination,
    rational_rank,
    separating_functional,
    solve_linear,
)
from logsod.orders import Preorder

__all__ = [
    "KummerExtension",
    "ToricMonoid",
    "canonical_kummer_extension",
    "contains",
    "extremal_rays",
    "face_strata",
    "group_lattice",
    "indecomposables",
    "is_saturated",
    "is_sharp",
    "is_simplicial",
    "saturate",
]

LatticeVector = tuple[int, ...]
RationalVector = tuple[Fraction, ...]

_set = object.__setattr__


class ToricMonoid(Record):
    """Submonoid of Z^ambient_rank given by a finite generator list.

    Generators must be nonzero; sharpness and saturation are properties of
    the supplied generator list and are checked on demand, not at
    construction.
    """

    __slots__ = ("ambient_rank", "generators")

    def __init__(self, ambient_rank: int, generators: Sequence[Sequence[int]]) -> None:
        if ambient_rank < 1:
            raise ValueError("ambient rank must be positive")
        gens = tuple(tuple(int(x) for x in g) for g in generators)
        for g in gens:
            if len(g) != ambient_rank:
                raise ValueError(f"generator {g} has wrong length")
            if not any(g):
                raise ValueError("zero generator not allowed")
        _set(self, "ambient_rank", ambient_rank)
        _set(self, "generators", gens)

    @classmethod
    def from_json(cls, data: dict) -> "ToricMonoid":
        try:
            rank = int(data["rank"])
            gens = tuple(tuple(int(x) for x in g) for g in data["generators"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad monoid payload: {exc}") from exc
        try:
            return cls(rank, gens)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    def to_json(self) -> dict:
        return {"rank": self.ambient_rank, "generators": [list(g) for g in self.generators]}


def _primitive(v: LatticeVector) -> LatticeVector:
    g = math.gcd(*(abs(x) for x in v))
    return tuple(x // g for x in v)


def group_lattice(m: ToricMonoid) -> list[LatticeVector]:
    """Basis of the subgroup of the ambient lattice generated by the monoid,
    in canonical integer echelon form."""
    if not m.generators:
        raise ZeroMonoid("monoid has no generators")
    return [tuple(r) for r in hermite_row_basis(m.generators, m.ambient_rank)]


def extremal_rays(m: ToricMonoid) -> list[LatticeVector]:
    """Primitive generator, inside the group lattice, of each extremal ray
    of the cone spanned by the generators; sorted lexicographically.

    A direction is extremal when it is not a nonnegative rational combination
    of the generators off its ray.  In a pointed cone that is read off the
    facets: a direction is extremal when no other direction vanishes on
    every facet normal that vanishes on it.  A cone with a line, or with
    more than FACET_PASS_CAP subsets to take facets from, is answered with
    one LP per direction.
    """
    return _Cone(m, FACET_PASS_CAP).rays()


def _lattice_primitive(
    direction: LatticeVector, witness: LatticeVector, lattice: Sequence[Sequence[int]]
) -> LatticeVector:
    # The witness generator is scale * direction; the primitive multiple of
    # the direction inside the lattice has scale dividing that.
    scale = math.gcd(*(abs(x) for x in witness))
    for t in range(1, scale + 1):
        if scale % t == 0 and in_row_span(lattice, [t * x for x in direction]):
            return tuple(t * x for x in direction)
    raise AssertionError("witness generator must lie in its own lattice")


def is_simplicial(m: ToricMonoid) -> bool:
    """True when the extremal ray directions are linearly independent."""
    rays = extremal_rays(m)
    return rational_rank(rays) == len(rays)


def is_sharp(m: ToricMonoid) -> bool:
    """True when the cone contains no line, i.e. some functional is strictly
    positive on every generator."""
    if not m.generators:
        return True
    return separating_functional([], list(m.generators), m.ambient_rank) is not None


def contains(m: ToricMonoid, vec: Sequence[int]) -> bool:
    """Exact membership of an integer vector in the monoid.

    Searches sums of generators; sharpness guarantees termination because a
    strictly positive functional decreases along every subtraction.
    """
    target = tuple(int(x) for x in vec)
    if not any(target):
        return True
    if not m.generators:
        return False
    if not is_sharp(m):
        raise NotSharp("membership search requires a sharp monoid")
    lattice = group_lattice(m)
    if not in_row_span(lattice, list(target)):
        return False
    gens = sorted(set(m.generators))
    seen: set[LatticeVector] = set()

    def walk(v: LatticeVector) -> bool:
        if not any(v):
            return True
        if v in seen:
            return False
        seen.add(v)
        if nonneg_combination(gens, v) is None:
            return False
        return any(walk(tuple(a - b for a, b in zip(v, g))) for g in gens)

    return walk(target)


def indecomposables(m: ToricMonoid) -> list[LatticeVector]:
    """The unique minimal generating set: generators that are not a sum of
    two nonzero monoid elements; sorted lexicographically."""
    if not is_sharp(m):
        raise NotSharp("indecomposables exist only in sharp monoids")
    uniq = sorted(set(m.generators))
    out = []
    for g in uniq:
        decomposable = False
        for h in uniq:
            rest = tuple(a - b for a, b in zip(g, h))
            if not any(rest):
                continue
            if contains(m, rest):
                decomposable = True
                break
        if not decomposable:
            out.append(g)
    return out


def _bareiss_det(rows: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination
    (Bareiss 1968): every division is exact, so entries stay minors."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[-1][-1] if n else 1


def _facets(
    gens: Sequence[LatticeVector], basis: Sequence[Sequence[int]]
) -> tuple[list[int], list[LatticeVector]]:
    """Pivot columns of `basis`, a Hermite basis of a lattice spanning the
    same space as `gens`, and the primitive inner facet normals of the cone
    over `gens` in those columns.

    Points of the span are compared in the pivot columns, a projection that
    is injective on the span and makes the cone full-dimensional.  Each
    facet there is spanned by r - 1 generator directions (r the rank), so
    the integer normals of those subsets that leave every generator on one
    side cut out the cone (Ziegler, Lectures on Polytopes, ch. 2).  A cone
    that is the whole span has none.
    """
    pivots = [next(j for j, x in enumerate(row) if x) for row in basis]
    r = len(pivots)
    dirs = sorted({tuple(g[p] for p in pivots) for g in map(_primitive, gens)})
    normals = set()
    for sub in combinations(dirs, r - 1):
        normal = [
            (-1) ** k * _bareiss_det([[v[j] for j in range(r) if j != k] for v in sub])
            for k in range(r)
        ]
        if not any(normal):
            continue
        sides = [sum(a * b for a, b in zip(normal, d)) for d in dirs]
        if all(s >= 0 for s in sides):
            normals.add(_primitive(normal))
        elif all(s <= 0 for s in sides):
            normals.add(tuple(-x for x in _primitive(normal)))
    return pivots, list(normals)


def _facet_values(
    v: Sequence[int], pivots: Sequence[int], normals: Sequence[LatticeVector]
) -> list[int]:
    """The values of the facet normals on `v`, read in the pivot columns."""
    x = [v[p] for p in pivots]
    return [sum(a * b for a, b in zip(n, x)) for n in normals]


def _sign_masks(
    vecs: Sequence[LatticeVector], pivots: Sequence[int], normals: Sequence[LatticeVector]
) -> tuple[dict[LatticeVector, int], dict[LatticeVector, int]]:
    """Per vector, the bitmask of the normals that vanish on it and of those
    strictly positive on it."""
    zero, pos = {}, {}
    for v in vecs:
        vanish = positive = 0
        for i, s in enumerate(_facet_values(v, pivots, normals)):
            if s == 0:
                vanish |= 1 << i
            elif s > 0:
                positive |= 1 << i
        zero[v], pos[v] = vanish, positive
    return zero, pos


class _Cone:
    """One pass over the cone of a monoid's generators, which the rays, the
    faces and the saturation read: the group lattice's Hermite basis, the
    generators by primitive direction and, when there are at most `cap`
    (r - 1)-subsets of directions to take facets from (cap None: any
    number), the pivot columns, the facet normals, each direction's sign
    masks and whether the cone is pointed: every direction strictly
    positive on some normal.  Without the normals, all of these are None.
    """

    __slots__ = ("monoid", "basis", "by_dir", "pivots", "normals", "zero", "pos", "pointed")

    def __init__(self, m: ToricMonoid, cap: Optional[int]) -> None:
        self.monoid = m
        self.basis = group_lattice(m)
        self.by_dir: dict[LatticeVector, list[LatticeVector]] = {}
        for g in m.generators:
            self.by_dir.setdefault(_primitive(g), []).append(g)
        self.pivots = self.normals = self.zero = self.pos = self.pointed = None
        if cap is None or math.comb(len(self.by_dir), len(self.basis) - 1) <= cap:
            self.pivots, self.normals = _facets(m.generators, self.basis)
            self.zero, self.pos = _sign_masks(self.by_dir, self.pivots, self.normals)
            self.pointed = all(self.pos.values())

    def rays(self) -> list[LatticeVector]:
        """extremal_rays: from the sign masks of a pointed cone, else by one
        LP per direction."""
        by_dir, zero = self.by_dir, self.zero
        if self.pointed:
            extremal = [d for d in by_dir if not any(
                e != d and not zero[d] & ~zero[e] for e in by_dir
            )]
        else:
            gens = self.monoid.generators
            extremal = []
            for d in by_dir:
                others = [g for g in gens if _primitive(g) != d]
                if not others or nonneg_combination(others, d) is None:
                    extremal.append(d)
        return sorted(_lattice_primitive(d, by_dir[d][0], self.basis) for d in extremal)


def _cone_membership(cone: _Cone, own_lattice: bool) -> Callable[[Sequence[int]], bool]:
    """Predicate for the lattice points of a cone with facet normals: the
    monoid's group lattice when own_lattice, else the ambient lattice.

    A point is in the cone when no facet normal is negative on it, and in
    the span when D times it is in the group lattice, D the product of the
    Hermite pivots.
    """
    basis, pivots, normals = cone.basis, cone.pivots, cone.normals
    scale = 1 if own_lattice else math.prod(row[p] for row, p in zip(basis, pivots))

    def member(v: Sequence[int]) -> bool:
        if any(s < 0 for s in _facet_values(v, pivots, normals)):
            return False
        return in_row_span(basis, [scale * c for c in v])

    return member


def _cone_points_minimal(m: ToricMonoid, own_lattice: bool) -> list[LatticeVector]:
    """Minimal generators of the cone's lattice points within the generator
    box (the group lattice when own_lattice, else the ambient lattice).
    Raises NotSharp when the cone has a line.

    These are the box points that are not another box point plus a nonzero
    cone point: the Hilbert basis of the saturated monoid (Bruns and
    Gubeladze, Polytopes, Rings, and K-Theory, 2009).  Every Hilbert basis
    element lies in the zonotope of the generators, which sits inside the
    box, and every reducible point is reduced by one of them.

    Of two such points, the first less the second is a cone point of the
    lattice exactly when the first is at least the second on every facet
    normal, so the points are compared by their vectors of facet values.
    The sum of the values is a grading, and the points are reduced in its
    order against the minimal points found so far (Bruns and Ichim,
    Normaliz, J. Algebra 324, 2010).
    """
    lo = [sum(min(0, g[k]) for g in m.generators) for k in range(m.ambient_rank)]
    hi = [sum(max(0, g[k]) for g in m.generators) for k in range(m.ambient_rank)]
    if math.prod(h - l + 1 for l, h in zip(lo, hi)) > 2_000_000:
        raise BoxTooLarge("generator box too large for desk-scale saturation")
    cone = _Cone(m, None)
    if not cone.pointed:
        raise NotSharp("membership search requires a sharp monoid")
    member = _cone_membership(cone, own_lattice)
    pivots, normals = cone.pivots, cone.normals
    points = []
    for p in product(*(range(l, h + 1) for l, h in zip(lo, hi))):
        if any(p) and member(p):
            points.append((p, _facet_values(p, pivots, normals)))
    points.sort(key=lambda point: sum(point[1]))
    minimal = []
    for g, gv in points:
        if not any(all(a >= b for a, b in zip(gv, hv)) for _, hv in minimal):
            minimal.append((g, gv))
    return sorted(g for g, _ in minimal)


def saturate(m: ToricMonoid) -> ToricMonoid:
    """Monoid of all ambient lattice points of the cone over the generators;
    raises NotSharp when the cone has a line.

    Desk-scale only: the search box grows with rank and coordinate size.
    """
    if not m.generators:
        raise ZeroMonoid("monoid has no generators")
    return ToricMonoid(m.ambient_rank, tuple(_cone_points_minimal(m, False)))


def is_saturated(m: ToricMonoid) -> bool:
    """True when the monoid contains every point of its cone that lies in
    its own group lattice (saturation is intrinsic, not ambient); raises
    NotSharp when the cone has a line.

    The saturation is generated by the box-minimal cone points, so the
    monoid is saturated exactly when each of them is in it, that is, when
    each is a generator: a box-minimal point that is a sum of two or more
    generators would be reduced by one of them, and the generators are box
    points.
    """
    if not m.generators:
        raise ZeroMonoid("monoid has no generators")
    return set(_cone_points_minimal(m, True)) <= set(m.generators)


class KummerExtension(Record):
    """Minimal free monoid containing the source with finite root orders.

    target_basis lists the rescaled primitive ray generators; root_orders the
    rescaling c_j per ray; quotient_invariant_factors presents the finite
    quotient of the two group lattices (factors >= 2 only).
    """

    __slots__ = ("source", "target_basis", "root_orders", "quotient_invariant_factors")

    def __init__(
        self,
        source: ToricMonoid,
        target_basis: tuple[RationalVector, ...],
        root_orders: tuple[int, ...],
        quotient_invariant_factors: tuple[int, ...],
    ) -> None:
        if len(target_basis) != len(root_orders):
            raise ValueError("one root order per basis vector required")
        if rational_rank(target_basis) != len(target_basis):
            raise ValueError("target basis must be linearly independent")
        if any(c < 1 for c in root_orders):
            raise ValueError("root orders must be positive")
        if any(f < 2 for f in quotient_invariant_factors):
            raise ValueError("trivial invariant factors must be omitted")
        _set(self, "source", source)
        _set(self, "target_basis", target_basis)
        _set(self, "root_orders", root_orders)
        _set(self, "quotient_invariant_factors", quotient_invariant_factors)

    @property
    def rays(self) -> tuple[LatticeVector, ...]:
        """Primitive ray generators of the source, recovered as c_j * basis."""
        out = []
        for c, v in zip(self.root_orders, self.target_basis):
            scaled = [c * x for x in v]
            assert all(x.denominator == 1 for x in scaled)
            out.append(tuple(int(x) for x in scaled))
        return tuple(out)

    def group_order(self) -> int:
        return math.prod(self.quotient_invariant_factors)

    def to_json(self) -> dict:
        return {
            "source": self.source.to_json(),
            "target_basis": [
                [[x.numerator, x.denominator] for x in v] for v in self.target_basis
            ],
            "root_orders": list(self.root_orders),
            "quotient_invariant_factors": list(self.quotient_invariant_factors),
        }


def canonical_kummer_extension(m: ToricMonoid) -> KummerExtension:
    """Minimal Kummer extension of a simplicial toric monoid.

    Writes every non-ray indecomposable over the primitive ray generators,
    takes per-ray lcms of the coefficient denominators as root orders, and
    presents the group-lattice quotient in invariant factors.
    """
    rays = extremal_rays(m)
    if rational_rank(rays) != len(rays):
        raise NotSimplicial("extremal rays are linearly dependent")
    ray_set = set(rays)
    others = [q for q in indecomposables(m) if q not in ray_set]
    coeff_cols = [[r[d] for r in rays] for d in range(m.ambient_rank)]
    root_orders = [1] * len(rays)
    for q in others:
        sol = solve_linear(coeff_cols, q)
        assert sol is not None, "indecomposable must lie in the ray span"
        for j, coeff in enumerate(sol):
            root_orders[j] = math.lcm(root_orders[j], coeff.denominator)
    basis = tuple(
        tuple(Fraction(x, c) for x in ray) for ray, c in zip(rays, root_orders)
    )
    factors = tuple(invariant_factors(_lattice_in_basis(m, basis)))
    return KummerExtension(m, basis, tuple(root_orders), factors)


def _lattice_in_basis(
    m: ToricMonoid, basis: Sequence[RationalVector]
) -> list[list[int]]:
    """The group lattice's Hermite basis rows in the coordinates of `basis`,
    a basis of its span over which the lattice is integral, such as the
    root basis of a Kummer extension."""
    cols = [[v[d] for v in basis] for d in range(m.ambient_rank)]
    rows = []
    for lattice_row in group_lattice(m):
        sol = solve_linear(cols, lattice_row)
        assert sol is not None and all(s.denominator == 1 for s in sol)
        rows.append([int(s) for s in sol])
    return rows


# Most subsets of extremal rays face_strata tests: 2^10, the subsets of 10
# rays.  Over 10 points of the moment curve, (t, t^2, ..., 1), the faces take
# 5 ms at rank 3 and 0.17 s at rank 6 on a 2-vCPU machine, against 5.9 s and
# 31 s with one LP per subset.
FACE_SUBSET_CAP = 1 << 10

# Most (r - 1)-subsets of generator directions, r the rank of their span,
# that extremal_rays takes facet normals from; past it, one LP per direction
# is faster.  On random pointed cones (2-vCPU machine) the facet pass broke
# even with the LPs near 1500 subsets at rank 4, 480 at rank 5, 270 at rank 6
# and 180 at rank 8, and it was 5x faster at 190 subsets at rank 3 and 2.3x
# at 220 at rank 4.  Rank 4 with 40 generators, 9880 subsets, took 724 ms by
# facets against 233 ms by LP.
FACET_PASS_CAP = 200


def face_strata(m: ToricMonoid) -> Preorder:
    """Face lattice of the cone: every subset of extremal rays cut out by a
    supporting hyperplane, as a preorder under inclusion.

    Elements are faces given as lex-sorted tuples of primitive ray
    generators, listed by increasing dimension; the zero face is the empty
    tuple and the full cone is the tuple of all rays.  A ray subset is a
    face when every other ray is strictly positive on some facet normal of
    the rays' cone that vanishes on the whole subset.  A pointed cone is
    the cone over its rays, so its facet pass serves; otherwise the rays'
    own cone is taken.  Raises TooManyFaces when the rays have more than
    FACE_SUBSET_CAP subsets.
    """
    cone = _Cone(m, FACET_PASS_CAP)
    rays = cone.rays()
    if 2 ** len(rays) > FACE_SUBSET_CAP:
        raise TooManyFaces(
            f"a cone with {len(rays)} extremal rays has {2 ** len(rays)} ray "
            f"subsets to test for faces, more than the {FACE_SUBSET_CAP} allowed"
        )
    faces = [tuple(rays)]
    if rays:
        if cone.pointed:
            normals = cone.normals
            zero = {r: cone.zero[_primitive(r)] for r in rays}
            pos = {r: cone.pos[_primitive(r)] for r in rays}
        else:
            pivots, normals = _facets(rays, hermite_row_basis(rays, m.ambient_rank))
            zero, pos = _sign_masks(rays, pivots, normals)
        everywhere = (1 << len(normals)) - 1
        for k in range(len(rays)):
            for sub in combinations(rays, k):
                through = everywhere
                for r in sub:
                    through &= zero[r]
                if all(pos[r] & through for r in rays if r not in sub):
                    faces.append(sub)
    faces.sort(key=lambda f: (rational_rank(f), f))
    # Face i lies in face j when i's rays, as a bitmask, are among j's.
    bit = {r: 1 << i for i, r in enumerate(rays)}
    masks = [sum(bit[r] for r in f) for f in faces]
    rows = [sum(1 << j for j, b in enumerate(masks) if not a & ~b) for a in masks]
    return Preorder(faces, rows)
