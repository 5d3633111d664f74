"""Independent oracle constructions used to freeze expected test values.

Everything here is deliberately written from first principles, without
importing the production kernel, so that each check compares two unrelated
routes to the same answer.  There are three exceptions.  The saturation oracle
decides cone membership with one exact LP per box point, through the
production `nonneg_combination`, which the facet-normal route under test does
not use, and lattice membership through the production `group_lattice` and
`in_row_span`; membership in the monoid itself is listed by
`contains_by_enumeration`.  The ray and face oracles answer each direction and
each ray subset with one exact LP, through `nonneg_combination` and
`separating_functional`, where the production kernel reads integer facet
normals.  The enumeration oracle sorts by the production
`factorial_vector_key`, which `enumerate_characters` does not use.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product


def mod1(f: Fraction) -> Fraction:
    return f - math.ceil(f)


def interleaving_chain(n: int) -> list[Fraction]:
    """Z_{n!} sorted ascending in the factorial order, built by recursively
    interleaving the fibers over Z_n (section -k/n -> -k/n!)."""
    if n == 1:
        return [Fraction(0)]
    prev = interleaving_chain(n - 1)
    out = []
    for k in range(n - 1, -1, -1):
        lift = Fraction(-k, math.factorial(n))
        out.extend(mod1(lift + x) for x in prev)
    return out


def _first_level(x: Fraction) -> int:
    """Minimal n >= 1 with the denominator of x dividing n!."""
    n, f = 1, 1
    while f % x.denominator:
        n += 1
        f *= n
    return n


def _fiber(x: Fraction, n: int) -> Fraction:
    """Image of x under the collapse Z_{n!} -> Z_n, as a value in (-1, 0]."""
    return mod1(x * math.factorial(n - 1))


def _strip_fiber(x: Fraction, n: int) -> Fraction:
    """Remainder of x in Z_{(n-1)!} after removing the section -k/n -> -k/n!
    of its fiber value -k/n."""
    return mod1(x - _fiber(x, n) / math.factorial(n - 1))


def cmp_factorial_recursive(x: Fraction, y: Fraction) -> int:
    """Factorial order on values in (-1, 0] as -1, 0 or 1: deeper first
    appearance sorts earlier, then fiber position, then recursively the
    remainder one level down."""
    if x == y:
        return 0
    nx, ny = _first_level(x), _first_level(y)
    if nx != ny:
        return -1 if nx > ny else 1
    fx, fy = _fiber(x, nx), _fiber(y, nx)
    if fx != fy:
        return -1 if fx < fy else 1
    return cmp_factorial_recursive(_strip_fiber(x, nx), _strip_fiber(y, nx))


def rref(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Reduced row echelon form over Q (fresh elimination, test-local)."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return m
    ncols = len(m[0])
    lead = 0
    for col in range(ncols):
        piv = next((i for i in range(lead, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[lead], m[piv] = m[piv], m[lead]
        m[lead] = [x / m[lead][col] for x in m[lead]]
        for i in range(len(m)):
            if i != lead and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[lead])]
        lead += 1
        if lead == len(m):
            break
    return m


def rank(rows: list[list[Fraction]]) -> int:
    return sum(1 for r in rref(rows) if any(x != 0 for x in r))


def solve_exact(a_rows: list[list[Fraction]], b: list[Fraction]):
    """Unique-solution solve of A x = b (columns independent); None if
    inconsistent."""
    ncols = len(a_rows[0])
    aug = [list(r) + [bb] for r, bb in zip(a_rows, b)]
    red = rref(aug)
    sol = [Fraction(0)] * ncols
    for r in red:
        nz = next((j for j, x in enumerate(r) if x != 0), None)
        if nz is None:
            continue
        if nz == ncols:
            return None
        sol[nz] = r[ncols]
    return sol


def primitive(v) -> tuple[int, ...]:
    g = math.gcd(*[abs(x) for x in v])
    return tuple(x // g for x in v)


def extremal_dirs_by_facets(gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Primitive ambient directions of the cone's extremal rays, found by
    enumerating supporting hyperplanes from generator subsets: a direction is
    extremal when the facets through it span a hyperplane's worth of normals.

    Works inside the span of the generators, so lower-dimensional cones are
    projected to full-dimensional ones first.
    """
    dirs = sorted({primitive(g) for g in gens})
    r = rank([list(map(Fraction, g)) for g in gens])
    if r == 1:
        return dirs
    basis = [row for row in rref([list(map(Fraction, g)) for g in gens]) if any(row)]
    coords = {}
    for d in dirs:
        sol = solve_exact([[basis[i][k] for i in range(r)] for k in range(len(d))],
                          [Fraction(x) for x in d])
        coords[d] = sol
    facets: list[list[Fraction]] = []
    for sub in combinations(dirs, r - 1):
        m = [coords[v] for v in sub]
        if rank(m) != r - 1:
            continue
        normal = _null_direction(m, r)
        vals = {d: sum(n * c for n, c in zip(normal, coords[d])) for d in dirs}
        if all(v >= 0 for v in vals.values()):
            facets.append(normal)
        elif all(v <= 0 for v in vals.values()):
            facets.append([-x for x in normal])
    out = []
    for d in dirs:
        through = [
            f for f in facets if sum(a * b for a, b in zip(f, coords[d])) == 0
        ]
        if rank(through) == r - 1:
            out.append(d)
    return out


def _null_direction(rows: list[list[Fraction]], dim: int):
    """A nonzero vector orthogonal to all rows, when the nullspace within the
    span of the generators' space is 1-dimensional enough to orient; picks
    the free coordinate deterministically."""
    red = [r for r in rref(rows) if any(x != 0 for x in r)]
    pivots = []
    for r in red:
        pivots.append(next(j for j, x in enumerate(r) if x != 0))
    free = [j for j in range(dim) if j not in pivots]
    if not free:
        return None
    j0 = free[0]
    vec = [Fraction(0)] * dim
    vec[j0] = Fraction(1)
    for r, p in zip(red, pivots):
        vec[p] = -r[j0]
    return vec


def kummer_is_minimal(
    rays: list[tuple[int, ...]],
    generators: list[tuple[int, ...]],
    roots: list[int],
) -> bool:
    """Brute-force minimality: every divisor-wise smaller root order fails to
    contain some generator integrally in the rescaled free monoid."""
    for j, c in enumerate(roots):
        for smaller in range(1, c):
            if c % smaller:
                continue
            trial = list(roots)
            trial[j] = smaller
            if _contains_all(rays, generators, trial):
                return False
    return True


def _contains_all(rays, generators, roots) -> bool:
    a_rows = [
        [Fraction(rays[j][d], roots[j]) for j in range(len(rays))]
        for d in range(len(rays[0]))
    ]
    for g in generators:
        sol = solve_exact(a_rows, [Fraction(x) for x in g])
        if sol is None or any(s.denominator != 1 or s < 0 for s in sol):
            return False
    return True


def dual_deck_action(basis, generators):
    """Deck transformations of the free cover, enumerated as characters.

    basis: the free monoid's basis vectors (Fraction tuples, ambient coords);
    generators: the source monoid's generators.  A character is a rational
    vector t in [0,1)^n taking integer values on every generator written in
    basis coordinates; coordinate j moves under t exactly when t_j != 0.

    Returns (group order, sorted list of moved 1-based index tuples over the
    nontrivial characters).  Built on top of the test-local solver only.
    """
    n = len(basis)
    a_rows = [[basis[j][d] for j in range(n)] for d in range(len(basis[0]))]
    coords = []
    for g in generators:
        sol = solve_exact(a_rows, [Fraction(x) for x in g])
        assert sol is not None and all(s.denominator == 1 for s in sol)
        coords.append([int(s) for s in sol])
    # Any n independent coordinate rows give a sublattice whose determinant
    # is a multiple of the group order, so character denominators divide it.
    square = []
    for row in coords:
        if rank([list(map(Fraction, r)) for r in square + [row]]) > len(square):
            square.append(row)
    assert len(square) == n, "generators must span the basis rationally"
    m = int(abs(_det(square)))
    found = []
    for combo in _tuples(n, m):
        if all(sum(a * l for a, l in zip(combo, row)) % m == 0 for row in coords):
            found.append(combo)
    moved = sorted(
        tuple(j + 1 for j, a in enumerate(t) if a) for t in found if any(t)
    )
    assert len(moved) + 1 == len(found)
    return len(found), moved


def _det(rows: list[list[int]]) -> Fraction:
    m = [list(map(Fraction, r)) for r in rows]
    det = Fraction(1)
    for col in range(len(m)):
        piv = next((i for i in range(col, len(m)) if m[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det *= m[col][col]
        for i in range(col + 1, len(m)):
            f = m[i][col] / m[col][col]
            m[i] = [a - f * b for a, b in zip(m[i], m[col])]
    return det


def _tuples(n: int, m: int):
    if n == 0:
        yield ()
        return
    for rest in _tuples(n - 1, m):
        for a in range(m):
            yield (a,) + rest

def enumerate_characters_by_key(orders, support, star=False, prime_to=None) -> list[tuple]:
    """The character vectors of enumerate_characters, built coordinate by
    coordinate and sorted by factorial_vector_key: one key per vector and a
    sort over all of them."""
    from logsod.orders import Character, factorial_vector_key

    zero = Character.zero()
    chosen = sorted(set(support))
    axes = []
    for j in chosen:
        r = orders[j - 1]
        col = []
        for k in range(r - 1, 0 if star else -1, -1):
            g = math.gcd(k, r)
            if prime_to is None or r // g % prime_to:
                col.append(Character(k // g, r // g))
        axes.append(col)
    out = []
    for combo in product(*axes):
        vec = [zero] * len(orders)
        for j, c in zip(chosen, combo):
            vec[j - 1] = c
        out.append(tuple(vec))
    out.sort(key=factorial_vector_key)
    return out


def root_stack_line_twists(r: int) -> list[str]:
    """Exceptional collection of line-bundle twists on the r-th root stack
    of the projective line along one point: O(k D/r) for k = 0..r."""
    assert r >= 1
    return [f"O({k}/{r})" for k in range(r + 1)]


def nc_rows_from_labels(desc) -> list[tuple]:
    """Decomposition rows of an nc descriptor, read off its labels.

    desc is a psod_nc descriptor, read only through its attributes.  The
    base breakdown gives one "blow-up" row per center; then, in name order,
    each normalized name counts its multiplicity once per nonzero gerbe
    label on it.  A gerbe label without normalized names raises ValueError
    naming its stratum, the first such label in descriptor order.
    """
    rows = [(center, copies, "blow-up") for center, copies in desc.base_breakdown]
    counts: dict[str, int] = {}
    for lab in desc.labels:
        if lab.provenance == "BaseStack" or lab.zero:
            continue
        if lab.normalized is None:
            raise ValueError(f"stratum {sorted(lab.stratum, key=str)}")
        for name, k in lab.normalized:
            counts[name] = counts.get(name, 0) + k
    return rows + [(name, counts[name], None) for name in sorted(counts)]


def cone_points_minimal_by_lp(m, lattice) -> list[tuple[int, ...]]:
    """Minimal generators of the cone's lattice points within the generator
    box, with one exact LP per point tested; lattice=None means the ambient
    lattice, else a Hermite basis of the lattice."""
    from logsod.errors import BoxTooLarge
    from logsod.intlinalg import in_row_span, nonneg_combination

    lo = [sum(min(0, g[k]) for g in m.generators) for k in range(m.ambient_rank)]
    hi = [sum(max(0, g[k]) for g in m.generators) for k in range(m.ambient_rank)]
    if math.prod(h - l + 1 for l, h in zip(lo, hi)) > 2_000_000:
        raise BoxTooLarge("generator box too large for desk-scale saturation")
    gens = sorted(set(m.generators))
    seen: dict[tuple[int, ...], bool] = {}

    def member(v: tuple[int, ...]) -> bool:
        if v not in seen:
            seen[v] = (lattice is None or in_row_span(lattice, list(v))) and (
                nonneg_combination(gens, v) is not None
            )
        return seen[v]

    points = [
        p
        for p in product(*(range(l, h + 1) for l, h in zip(lo, hi)))
        if any(p) and member(p)
    ]
    minimal = []
    for g in points:
        decomposable = False
        for h in points:
            rest = tuple(a - b for a, b in zip(g, h))
            if any(rest) and member(rest):
                decomposable = True
                break
        if not decomposable:
            minimal.append(g)
    return sorted(minimal)


def saturate_by_lp(m) -> tuple[tuple[int, ...], ...]:
    """Generators of the ambient saturation, by the LP route."""
    from logsod.errors import ZeroMonoid

    if not m.generators:
        raise ZeroMonoid("monoid has no generators")
    return tuple(cone_points_minimal_by_lp(m, None))


def is_saturated_by_lp(m) -> bool:
    """Saturation in the monoid's own group lattice: every box-minimal cone
    point is a sum of generators (contains_by_enumeration)."""
    from logsod.errors import ZeroMonoid
    from logsod.monoids import group_lattice

    if not m.generators:
        raise ZeroMonoid("monoid has no generators")
    lattice = group_lattice(m)
    return all(contains_by_enumeration(m, g) for g in cone_points_minimal_by_lp(m, lattice))


def contains_by_enumeration(m, vec) -> bool:
    """Membership of an integer vector in the monoid, by listing sums of
    generators.

    A grading w is an integer functional with w.g >= 1 on every generator g,
    so v is in the monoid exactly when it is a sum of at most w.v
    generators.  A cone with a line has no grading; the search then finds
    a nonzero nonnegative integer combination of the generators that sums
    to zero instead (Gordan's alternative), and raises NotSharp as the
    production `contains` does.
    """
    from logsod.errors import NotSharp

    target = tuple(vec)
    if not any(target):
        return True
    gens = sorted(set(m.generators))
    if not gens:
        return False
    w = _grading(gens, target)
    if w is None:
        raise NotSharp("membership search requires a sharp monoid")

    def degree(v) -> int:
        return sum(a * b for a, b in zip(w, v))

    budget = degree(target)
    frontier = seen = {(0,) * len(target)}
    for _ in range(budget):
        frontier = {
            s for s in (tuple(a + b for a, b in zip(f, g)) for f in frontier for g in gens)
            if degree(s) <= budget
        } - seen
        if target in frontier:
            return True
        seen = seen | frontier
    return False


def _grading(gens, target):
    """The grading with entries in [-b, b] that is least on target, for the
    least b that has one; None when the generators have a nonzero
    nonnegative integer combination summing to zero, with coefficients in
    [0, b], first."""
    dim = len(gens[0])
    b = 1
    while True:
        graded = [w for w in product(range(-b, b + 1), repeat=dim)
                  if all(sum(x * y for x, y in zip(w, g)) >= 1 for g in gens)]
        if graded:
            return min(graded, key=lambda w: sum(x * y for x, y in zip(w, target)))
        for coeffs in product(range(b + 1), repeat=len(gens)):
            if any(coeffs) and not any(
                    sum(c * g[k] for c, g in zip(coeffs, gens)) for k in range(dim)):
                return None
        b += 1


def extremal_rays_by_lp(m) -> list[tuple[int, ...]]:
    """Extremal rays with one exact LP per generator direction: a direction
    is extremal when it is not a nonnegative combination of the generators
    off its ray.  Each is scaled to its primitive multiple in the group
    lattice."""
    from logsod.errors import ZeroMonoid
    from logsod.intlinalg import hermite_row_basis, in_row_span, nonneg_combination

    if not m.generators:
        raise ZeroMonoid("monoid has no generators")
    lattice = hermite_row_basis(m.generators, m.ambient_rank)
    rays = []
    for d in sorted({primitive(g) for g in m.generators}):
        others = [g for g in m.generators if primitive(g) != d]
        if others and nonneg_combination(others, d) is not None:
            continue
        t = 1
        while not in_row_span(lattice, [t * x for x in d]):
            t += 1
        rays.append(tuple(t * x for x in d))
    return sorted(rays)


def face_strata_by_lp(m) -> tuple[tuple, tuple[int, ...]]:
    """Faces of the cone as (elements, rows) of the inclusion preorder, with
    one exact LP per ray subset: a subset is a face when some functional
    vanishes on it and is positive on every other ray.  Faces are sorted by
    dimension, then lexicographically; bit j of row i says face i lies in
    face j."""
    from logsod.errors import TooManyFaces
    from logsod.intlinalg import separating_functional
    from logsod.monoids import FACE_SUBSET_CAP

    rays = extremal_rays_by_lp(m)
    if 2 ** len(rays) > FACE_SUBSET_CAP:
        raise TooManyFaces(
            f"a cone with {len(rays)} extremal rays has {2 ** len(rays)} ray "
            f"subsets to test for faces, more than the {FACE_SUBSET_CAP} allowed"
        )
    faces = [tuple(rays)]
    for k in range(len(rays)):
        for sub in combinations(rays, k):
            rest = [r for r in rays if r not in sub]
            if separating_functional(list(sub), rest, m.ambient_rank) is not None:
                faces.append(sub)
    faces.sort(key=lambda f: (rank([list(map(Fraction, v)) for v in f]), f))
    rows = tuple(
        sum(1 << j for j, b in enumerate(faces) if set(a) <= set(b)) for a in faces
    )
    return tuple(faces), rows
