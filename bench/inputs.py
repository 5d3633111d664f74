"""Fixed inputs of the benchmark: scenes, complexes and the monoid library.

The monoid entries are the fourteen MONOID_LIBRARY fixtures of the test
suite, with the first-principles values documented there (extremal rays by
facet enumeration, root orders by coefficient denominators, quotients by
elementary divisors, minimal generators by brute force), plus the README
monoid.  The suite leaves the minimal generators of sixth-chart unstated;
every generator (1, k) has first coordinate 1, which is additive and
positive on the monoid, so none is a sum of two nonzero elements and all
seven are indecomposable.

Only plain data lives here, so the reference checks never import logsod.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MonoidCase:
    name: str
    generators: tuple[tuple[int, ...], ...]
    rays: tuple[tuple[int, ...], ...]
    root_orders: tuple[int, ...]
    quotient: tuple[int, ...]
    indecomposables: tuple[tuple[int, ...], ...]


def _case(name, gens, rays, c, quot, indec):
    return MonoidCase(name, tuple(map(tuple, gens)), tuple(map(tuple, rays)),
                      tuple(c), tuple(quot), tuple(map(tuple, indec)))


MONOID_LIBRARY = (
    _case("free-rank1", [(1,)], [(1,)], [1], [], [(1,)]),
    _case("scaled-rank1", [(3,)], [(3,)], [1], [], [(3,)]),
    _case("free-rank2", [(1, 0), (0, 1)], [(0, 1), (1, 0)], [1, 1], [],
          [(0, 1), (1, 0)]),
    _case("half-diagonal-surface", [(2, 0), (1, 1), (0, 2)],
          [(0, 2), (2, 0)], [2, 2], [2], [(0, 2), (1, 1), (2, 0)]),
    _case("third-chart", [(1, 0), (1, 1), (1, 2), (1, 3)],
          [(1, 0), (1, 3)], [3, 3], [3], [(1, 0), (1, 1), (1, 2), (1, 3)]),
    _case("quarter-chart", [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)],
          [(1, 0), (1, 4)], [4, 4], [4],
          [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4)]),
    _case("sixth-chart",
          [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6)],
          [(1, 0), (1, 6)], [6, 6], [6],
          [(1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6)]),
    _case("steep-interior", [(1, 0), (1, 1), (2, 3)],
          [(1, 0), (2, 3)], [3, 3], [3], [(1, 0), (1, 1), (2, 3)]),
    _case("symmetric-thirds", [(2, 1), (1, 1), (1, 2)],
          [(1, 2), (2, 1)], [3, 3], [3], [(1, 1), (1, 2), (2, 1)]),
    _case("half-quarter", [(4, 0), (2, 1), (0, 2)],
          [(0, 2), (4, 0)], [2, 2], [2], [(0, 2), (2, 1), (4, 0)]),
    _case("surface-times-line", [(2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)],
          [(0, 0, 1), (0, 2, 0), (2, 0, 0)], [1, 2, 2], [2],
          [(0, 0, 1), (0, 2, 0), (1, 1, 0), (2, 0, 0)]),
    _case("doubled-simplex", [(1, 1, 0), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
          [(0, 1, 1), (1, 0, 1), (1, 1, 0)], [2, 2, 2], [2, 2],
          [(0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)]),
    _case("half-diagonal-space", [(2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 1)],
          [(0, 0, 2), (0, 2, 0), (2, 0, 0)], [2, 2, 2], [2, 2],
          [(0, 0, 2), (0, 2, 0), (1, 1, 1), (2, 0, 0)]),
    _case("mixed-orders",
          [(0, 0, 3), (0, 2, 0), (1, 1, 1), (2, 0, 2), (3, 1, 0), (4, 0, 1),
           (6, 0, 0)],
          [(0, 0, 3), (0, 2, 0), (6, 0, 0)], [3, 2, 6], [6],
          [(0, 0, 3), (0, 2, 0), (1, 1, 1), (2, 0, 2), (3, 1, 0), (4, 0, 1),
           (6, 0, 0)]),
    # The README's monoid scene: the A1 surface singularity.
    _case("readme", [(2, 0), (1, 1), (0, 2)],
          [(0, 2), (2, 0)], [2, 2], [2], [(0, 2), (1, 1), (2, 0)]),
)

CASES = {c.name: c for c in MONOID_LIBRARY}

# The cone over a square: four extremal rays in rank 3, so not simplicial.
SQUARE_CONE = _case("square-cone", [(1, 0, 0), (0, 1, 0), (1, 0, 1), (0, 1, 1)],
                    [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)], [], [],
                    [(0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 0, 1)])

# A sharp, saturated rank-1 monoid whose analysis today ends in a
# RecursionError inside monoids.contains (3000 nested calls).
DEEP_LINE = _case("deep-line", [(1,), (3000,)], [(1,)], [1], [], [(1,)])


# --- divisor complexes: components and nonempty strata --------------------

# The README's snc scene: three lines in the plane, no triple point.
THREE_DIVISORS = ((1, 2, 3), [[], [1], [2], [3], [1, 2], [1, 3], [2, 3]])

NODAL = {
    "kind": "nc",
    "components": ["C"],
    "crossings": [{"name": "N", "branches": [["C", 1], ["C", 2]]}],
    "ambient_dim": 2,
}
TWO_NODE = {
    "kind": "nc",
    "components": ["C"],
    "crossings": [
        {"name": "N1", "branches": [["C", 1], ["C", 2]]},
        {"name": "N2", "branches": [["C", 3], ["C", 4]]},
    ],
    "ambient_dim": 2,
}

# Strictification of each nc scene, worked by hand: one exceptional
# component per node, the node's two branches becoming two simple crossings
# with it.  Each support maps to the normalized strata its labels carry;
# supports absent here are empty strata.
NC_STRICT = {
    "nodal": {
        "components": ("C", "E1"),
        "nonempty": [[], ["C"], ["E1"], ["C", "E1"]],
        "normalized": {
            (): (("X", 1),),
            ("C",): (("C", 1),),
            ("E1",): (("E1", 1),),
            ("C", "E1"): (("N@1", 1), ("N@2", 1)),
        },
        "base_breakdown": (("N", 1),),
    },
    "two-node": {
        "components": ("C", "E1", "E2"),
        "nonempty": [[], ["C"], ["E1"], ["E2"], ["C", "E1"], ["C", "E2"]],
        "normalized": {
            (): (("X", 1),),
            ("C",): (("C", 1),),
            ("E1",): (("E1", 1),),
            ("E2",): (("E2", 1),),
            ("C", "E1"): (("N1@1", 1), ("N1@2", 1)),
            ("C", "E2"): (("N2@1", 1), ("N2@2", 1)),
        },
        "base_breakdown": (("N1", 1), ("N2", 1)),
    },
}

# The A1 chart: one simplicial chart, the README monoid.
A1_CHART = {"kind": "chart", "charts": [{"rank": 2, "generators": [[2, 0], [1, 1], [0, 2]]}]}
