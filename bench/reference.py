"""Reference computations and output checks for the benchmark.

Nothing here imports logsod.  Each expected value is computed by a route of
its own: the factorial chain by the interleaving construction, counts by
closed forms, Kummer data by exact Fraction linear algebra over the
documented rays.  Every check returns a list of problems; an empty list
means the output is correct.

Characters are handled as pairs (p, q) meaning the class of -p/q, as the
program prints them; label rows are tuples
(chars, stratum, first_level, zero, normalized) with chars a tuple of pairs,
stratum a frozenset of component labels, and None for an absent annotation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product


# --- the factorial chain ----------------------------------------------------


def mod1(x: Fraction) -> Fraction:
    return x - math.ceil(x)


@lru_cache(maxsize=None)
def interleaving_chain(n: int) -> tuple[tuple[Fraction, int], ...]:
    """Z_{n!} ascending in the factorial order, each value with its first
    level.  The fibers over Z_n, lifted by -k/n -> -k/n!, are listed for
    k = n-1 down to 1, each ordered like the chain of Z_{(n-1)!}; their
    elements first appear at level n.  The chain of Z_{(n-1)!} itself (the
    fiber k = 0) comes last."""
    if n == 1:
        return ((Fraction(0), 1),)
    prev = interleaving_chain(n - 1)
    fact = math.factorial(n)
    out = []
    for k in range(n - 1, 0, -1):
        lift = Fraction(-k, fact)
        out.extend((mod1(lift + x), n) for x, _ in prev)
    out.extend(prev)
    return tuple(out)


def pair(x: Fraction) -> tuple[int, int]:
    return (-x.numerator, x.denominator) if x else (0, 1)


def value(p: int, q: int) -> Fraction:
    return Fraction(-p, q)


def tower_order(k: int, n: int) -> list[tuple[tuple[int, int], ...]]:
    """All vectors of (Z_{n!})^k in the factorial order: deeper first level
    first, then coordinatewise chain rank."""
    chain = interleaving_chain(n)
    levels = [lvl for _, lvl in chain]
    idx = sorted(product(range(len(chain)), repeat=k),
                 key=lambda t: (-max(levels[i] for i in t), t))
    pairs = [pair(x) for x, _ in chain]
    return [tuple(pairs[i] for i in t) for t in idx]


def first_level(p: int, q: int) -> int:
    n, f = 1, 1
    while f % q:
        n += 1
        f *= n
    return n


def check_tower(rows, components, n, nonempty, normalized=None) -> list[str]:
    """Stage n of the infinite tower over a divisor complex.

    nonempty lists the nonempty strata as component lists; normalized, when
    given, maps each sorted support tuple to its expected annotation.
    """
    bad = []
    k = len(components)
    fact = math.factorial(n)
    if len(rows) != fact ** k:
        bad.append(f"{len(rows)} labels, expected {fact}^{k}")
    chars = [r[0] for r in rows]
    if len(set(chars)) != len(chars):
        bad.append("labels are not distinct")
    counts: dict[frozenset, int] = {}
    live = {frozenset(s) for s in nonempty}
    order = {c: i for i, c in enumerate(components)}
    for chi, stratum, level, zero, norm in rows:
        support = frozenset(c for c, (p, _) in zip(components, chi) if p)
        counts[support] = counts.get(support, 0) + 1
        if stratum != support:
            bad.append(f"stratum {sorted(stratum, key=str)} off the support of {chi}")
        if level is not None and level != max(first_level(p, q) for p, q in chi):
            bad.append(f"first level {level} wrong for {chi}")
        if zero != (support not in live):
            bad.append(f"zero flag {zero} wrong for {chi}")
        if normalized is not None:
            key = tuple(sorted(support, key=order.__getitem__))
            if norm != normalized.get(key):
                bad.append(f"normalized {norm} wrong for {chi}")
    for support, count in counts.items():
        if count != (fact - 1) ** len(support):
            bad.append(f"{count} labels on {sorted(support, key=str)}, "
                       f"expected ({fact}-1)^{len(support)}")
    if not bad and chars != tower_order(k, n):
        i = next(i for i, (a, b) in enumerate(zip(chars, tower_order(k, n))) if a != b)
        bad.append(f"order differs from the interleaving construction at {i}")
    return bad[:10]


def check_standard(chars, level) -> list[str]:
    """Finite level in the standard order: lexicographic numeric order."""
    expected = sorted(
        product(*(sorted({pair(mod1(Fraction(-j, r))) for j in range(r)},
                         key=lambda c: value(*c)) for r in level)),
        key=lambda chi: tuple(value(*c) for c in chi),
    )
    return [] if list(chars) == expected else ["standard order differs from the numeric order"]


# --- counts and values -------------------------------------------------------


def prime_to_part(r: int, p: int) -> int:
    while r % p == 0:
        r //= p
    return r


def etale_counts(components, nonempty, level, p) -> dict:
    """Prime-to-p counts: prod_j (prime-to-p part of r_j - 1)."""
    index = {c: i for i, c in enumerate(components)}
    return {_name(components, s): math.prod(prime_to_part(level[index[c]], p) - 1 for c in s)
            for s in nonempty if s}


def finite_counts(components, nonempty, level) -> dict:
    index = {c: i for i, c in enumerate(components)}
    return {_name(components, s): math.prod(level[index[c]] - 1 for c in s)
            for s in nonempty if s}


def kfl_counts(components, nonempty, n) -> dict:
    fact = math.factorial(n)
    return {_name(components, s): (fact - 1) ** len(s) for s in nonempty if s}


def nodal_counts(n) -> dict:
    """The nodal curve: v(X) + v(N) + (n!-1)(v(C)+v(E1)) + (n!-1)^2(v(N@1)+v(N@2))."""
    f = math.factorial(n) - 1
    return {"N": 1, "C": f, "E1": f, "N@1": f * f, "N@2": f * f}


def fixed_locus_counts(components, moved, t) -> dict:
    """(t-1)^|J| plus (t-1)^|moved| per nontrivial group element whose
    moved coordinates lie in J, for every nonempty J."""
    out = {}
    for size in range(1, len(components) + 1):
        for s in combinations(components, size):
            js = frozenset(s)
            out[_name(components, s)] = (t - 1) ** size + sum(
                (t - 1) ** len(m) for m in moved if m <= js)
    return out


def _name(components, s) -> str:
    order = {c: k for k, c in enumerate(components)}
    return "D_{" + ",".join(str(c) for c in sorted(s, key=order.__getitem__)) + "}"


def v_add(system, a, b):
    if system == "int":
        return a + b
    width = max(len(a), len(b))
    out = tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(width))
    return _trim(out) if system == "poly" else out


def v_scale(system, k, a):
    if system == "int":
        return k * a
    out = tuple(k * x for x in a)
    return _trim(out) if system == "poly" else out


def _trim(v):
    v = list(v)
    while v and v[-1] == 0:
        v.pop()
    return tuple(v)


def check_report(rows, base, total, counts, values, system) -> list[str]:
    """A decomposition report: rows are (stratum, count, value,
    contribution); counts maps each expected row name to its count."""
    bad = []
    names = [r[0] for r in rows]
    if sorted(names) != sorted(counts):
        bad.append(f"rows {names} differ from {sorted(counts)}")
    if base != values["X"]:
        bad.append(f"base {base} is not v(X)")
    expected_total = values["X"]
    for name, count, val, contrib in rows:
        if counts.get(name) != count:
            bad.append(f"row {name}: count {count}, expected {counts.get(name)}")
        if val != values.get(name):
            bad.append(f"row {name}: value {val} is not the assigned one")
        if contrib != v_scale(system, count, val):
            bad.append(f"row {name}: contribution is not count times value")
        if name in counts:
            expected_total = v_add(system, expected_total, v_scale(system, counts[name], values[name]))
    if total != expected_total:
        bad.append(f"total {total}, expected {expected_total}")
    return bad


# --- toric monoids and Kummer data ------------------------------------------


def rank(rows) -> int:
    m = [[Fraction(x) for x in r] for r in rows]
    r = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c] / m[r][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
    return r


def det(rows) -> Fraction:
    m = [[Fraction(x) for x in r] for r in rows]
    d = Fraction(1)
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            d = -d
        d *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return d


def ray_coords(rays, g) -> tuple[Fraction, ...]:
    """Coefficients a with sum_j a_j ray_j = g; the rays are independent."""
    d = len(rays)
    # normal equations (R R^T) a = R g have a unique solution
    gram = [[sum(x * y for x, y in zip(r, s)) for s in rays] for r in rays]
    rhs = [sum(x * y for x, y in zip(r, g)) for r in rays]
    m = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(gram, rhs)]
    for c in range(d):
        piv = next(i for i in range(c, d) if m[i][c])
        m[c], m[piv] = m[piv], m[c]
        m[c] = [x / m[c][c] for x in m[c]]
        for i in range(d):
            if i != c and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    a = tuple(m[i][d] for i in range(d))
    if any(sum(a[j] * rays[j][i] for j in range(d)) != g[i] for i in range(len(g))):
        raise ValueError(f"{g} is not in the span of the rays")
    return a


def contains_all(rays, gens, orders) -> bool:
    """The free monoid on ray_j / c_j contains every generator."""
    for g in gens:
        for a, c in zip(ray_coords(rays, g), orders):
            x = a * c
            if x < 0 or x.denominator != 1:
                return False
    return True


def root_orders(rays, gens) -> tuple[int, ...]:
    out = [1] * len(rays)
    for g in gens:
        for j, a in enumerate(ray_coords(rays, g)):
            out[j] = math.lcm(out[j], a.denominator)
    return tuple(out)


def target_coords(rays, orders, gens) -> list[tuple[int, ...]]:
    out = []
    for g in gens:
        xs = [a * c for a, c in zip(ray_coords(rays, g), orders)]
        out.append(tuple(int(x) for x in xs))
    return out


def lattice_index(rays, orders, gens) -> int:
    """|det| of the group lattice in target coordinates: the gcd of the
    maximal minors of the generators written in the basis ray_j / c_j."""
    coords = target_coords(rays, orders, gens)
    d = len(rays)
    return math.gcd(*(abs(int(det(sub))) for sub in combinations(coords, d)))


def moved_sets(rays, orders, gens) -> list[frozenset]:
    """Coordinates moved by each nontrivial element of the dual group
    Hom(Z^d / L, Q/Z): vectors phi in (1/N Z / Z)^d with phi . l in Z for
    every generator l in target coordinates; phi moves j when phi_j != 0."""
    coords = target_coords(rays, orders, gens)
    n = lattice_index(rays, orders, gens)
    out = []
    for phi in product(range(n), repeat=len(rays)):
        if any(phi) and all(sum(a * b for a, b in zip(phi, l)) % n == 0 for l in coords):
            out.append(frozenset(j for j, x in enumerate(phi) if x))
    return out


def check_rays(case, rays) -> list[str]:
    return [] if tuple(map(tuple, rays)) == case.rays else [f"rays {rays} != {case.rays}"]


def check_indecomposables(case, indec) -> list[str]:
    got = tuple(map(tuple, indec))
    return [] if got == case.indecomposables else [f"indecomposables {got} != {case.indecomposables}"]


def check_faces(case, faces) -> list[str]:
    """Faces as tuples of rays: every one a set of documented rays, the
    Euler relation sum (-1)^dim f = 0, and 2^d faces when simplicial."""
    bad = []
    rays = set(case.rays)
    dims = []
    for f in faces:
        if not set(map(tuple, f)) <= rays:
            bad.append(f"face {f} uses unknown rays")
        dims.append(rank(f) if f else 0)
    if sum((-1) ** d for d in dims) != 0:
        bad.append(f"Euler sum of {len(faces)} faces is not 0")
    if rank(case.rays) == len(case.rays) and len(faces) != 2 ** len(case.rays):
        bad.append(f"{len(faces)} faces, a simplicial cone has {2 ** len(case.rays)}")
    if len(set(map(tuple, faces))) != len(faces):
        bad.append("faces repeat")
    return bad


def check_kummer(case, basis, orders, factors) -> list[str]:
    """basis: rows of Fractions; orders, factors: ints."""
    bad = []
    orders = tuple(orders)
    if orders != case.root_orders:
        bad.append(f"root orders {orders} != {case.root_orders}")
    if tuple(factors) != case.quotient:
        bad.append(f"quotient {tuple(factors)} != {case.quotient}")
    scaled = tuple(tuple(c * x for x in v) for c, v in zip(orders, basis))
    if scaled != case.rays:
        bad.append("root orders times the target basis do not give the rays")
    if not contains_all(case.rays, case.generators, orders):
        bad.append("the extension does not contain the monoid")
    for j, c in enumerate(orders):
        for smaller in range(1, c):
            trial = orders[:j] + (smaller,) + orders[j + 1:]
            if contains_all(case.rays, case.generators, trial):
                bad.append(f"root order {smaller} < {c} at ray {j} still contains the monoid")
    index = lattice_index(case.rays, case.root_orders, case.generators)
    if math.prod(factors) != index:
        bad.append(f"quotient order {math.prod(factors)} != |det| {index}")
    if root_orders(case.rays, case.generators) != case.root_orders:
        bad.append("documented root orders disagree with the coefficient denominators")
    return bad


def check_root_pair(case, components, nonempty, group_order, moved) -> list[str]:
    """moved: the moved component sets, one per nontrivial group element."""
    bad = []
    d = len(case.rays)
    if len(components) != d:
        bad.append(f"{len(components)} boundary components for {d} rays")
    if len(nonempty) != 2 ** d:
        bad.append(f"{len(nonempty)} strata, expected all {2 ** d} faces")
    index = lattice_index(case.rays, case.root_orders, case.generators)
    if group_order != index:
        bad.append(f"group order {group_order} != |det| {index}")
    expected = sorted(sorted(components[j] for j in s)
                      for s in moved_sets(case.rays, case.root_orders, case.generators))
    if sorted(sorted(m) for m in moved) != expected:
        bad.append(f"moved sets {sorted(sorted(m) for m in moved)} != {expected}")
    return bad
