"""Combinatorial models of crossings divisors and simplicial log charts.

Two divisor models live here: SncComplex records which intersections of
globally labeled components are nonempty (the simple normal crossings case),
and NcComplex records crossings branch by branch so one component may pass
through a stratum several times.  Strictification rewrites the second model
into the first by logged point blow-ups.  Simplicial charts are reduced to
their canonical root pair: a free boundary complex plus the finite diagonal
group action whose fixed loci feed the truncated index counts.
"""

from __future__ import annotations

import math
import warnings
from itertools import product
from typing import TYPE_CHECKING, Collection, Iterable, Optional, Sequence

from logsod import Record
from logsod.errors import (
    InconsistentIncidence,
    ParseError,
    TooManyStrata,
    UnknownStratum,
    UnsupportedConfiguration,
)
from logsod.orders import _sort_token, _subsets

# The monoid and lattice layers serve the chart functions only, which import
# them when they run, so snc and nc work loads neither.
if TYPE_CHECKING:
    from logsod.monoids import ToricMonoid

__all__ = [
    "BlowupLog",
    "BlowupStep",
    "Crossing",
    "FixedLocusData",
    "NcComplex",
    "SimplicialChart",
    "SncComplex",
    "canonical_root_pair",
    "fixed_locus_index",
    "in_component_order",
    "is_simple",
    "nc_from_json",
    "normalized_names",
    "snc_from_divisors",
    "snc_of_simple",
    "strictify",
    "strictify_nc",
]

Stratum = frozenset

_set = object.__setattr__


class SncComplex(Record):
    """Simple normal crossings combinatorics: components and the set of
    index subsets whose intersection stratum is nonempty.  Both take part
    in equality and the hash; which crossings of an nc complex witness a
    stratum is read off that complex (normalized_names).
    """

    __slots__ = ("components", "nonempty")

    def __init__(self, components: tuple, nonempty: frozenset[Stratum]) -> None:
        bit = {c: 1 << k for k, c in enumerate(components)}
        if len(bit) != len(components):
            raise ValueError("component labels must be distinct")
        if frozenset() not in nonempty:
            raise ValueError("the empty intersection (the total space) is nonempty")
        masks = set()
        for j in nonempty:
            if not j <= bit.keys():
                raise ValueError(f"stratum {sorted(j, key=_sort_token)} uses unknown components")
            masks.add(sum(map(bit.__getitem__, j)))
        # Closed when each stratum less any one of its components is a stratum.
        if any(m ^ b not in masks for m in masks for b in bit.values() if m & b):
            raise ValueError("nonempty strata must be downward closed")
        _set(self, "components", components)
        _set(self, "nonempty", nonempty)

    def is_nonempty(self, subset: Iterable) -> bool:
        return frozenset(subset) in self.nonempty

    def strata(self, *, proper: bool = False) -> list[Stratum]:
        """Nonempty strata, deepest first then lexicographic; proper=True
        drops the empty index set (the total space)."""
        out = sorted(self.nonempty, key=lambda j: (-len(j), _label_key(j)))
        if proper:
            out = [j for j in out if j]
        return out

    def stratum_name(self, subset: Iterable) -> str:
        j = frozenset(subset)
        if j not in self.nonempty:
            raise UnknownStratum(f"no stratum {sorted(j, key=_sort_token)}")
        if not j:
            return "X"
        return "D_{" + ",".join(str(c) for c in in_component_order(self.components, j)) + "}"

    def to_json(self) -> dict:
        return {
            "components": list(self.components),
            "nonempty": [in_component_order(self.components, j) for j in self.strata()],
        }


def in_component_order(components: Sequence, labels: Iterable) -> list:
    """The labels, each one of the components, in the components' order."""
    position = {c: k for k, c in enumerate(components)}
    return sorted(labels, key=position.__getitem__)


def _label_key(j: Stratum):
    return tuple(sorted(map(_sort_token, j)))


# Most nonempty strata a complex may have: 2^16, the subsets of one stratum
# of 16 components.  On a 2-vCPU machine, that one-stratum scene with a value
# for every stratum took 5.4 s and 159 MB in `logsod decompose --level 2`,
# and 5.2 s and 172 MB in `logsod psod --order standard --level 2`, about
# the memory of a descriptor of psod.LABEL_CAP labels.  Time and memory grow
# fourfold per two components: 14 took 1.2 s and 50 MB, and 1.7 s and 53 MB.
STRATA_CAP = 1 << 16


def _downward_closure(strata: Collection[Stratum]) -> frozenset[Stratum]:
    """The empty stratum and every subset of the given strata: the strata
    that are nonempty when the given ones are.

    Raises TooManyStrata, before building any subset, when one stratum alone
    has more than STRATA_CAP subsets, and as soon as the closure grows past
    STRATA_CAP.
    """
    for j in strata:
        if 2 ** len(j) > STRATA_CAP:
            raise TooManyStrata(
                f"a stratum of {len(j)} components has 2^{len(j)} subsets, "
                f"more than the {STRATA_CAP} nonempty strata a complex may have"
            )
    closure = {frozenset()}
    for j in strata:
        closure.update(_subsets(j))
        if len(closure) > STRATA_CAP:
            raise TooManyStrata(
                f"the complex has at least {len(closure)} nonempty strata, "
                f"more than the {STRATA_CAP} it may have"
            )
    return frozenset(closure)


def snc_from_divisors(
    components: Sequence,
    nonempty: Iterable[Iterable],
    empty: Iterable[Iterable] = (),
) -> SncComplex:
    """Build a validated complex from explicit nonempty intersections.

    Subsets of declared-nonempty strata are added automatically (with a
    warning) since an intersection can only be nonempty if every smaller one
    is.  Explicitly declared empty strata that contradict this raise
    InconsistentIncidence, and more than STRATA_CAP strata TooManyStrata.
    """
    comps = tuple(components)
    declared = {frozenset(j) for j in nonempty}
    declared.add(frozenset())
    declared_empty = {frozenset(j) for j in empty}
    closure = _downward_closure(declared)
    missing = closure - declared
    if missing:
        hit = missing & declared_empty
        if hit:
            bad = sorted(hit, key=_label_key)[0]
            raise InconsistentIncidence(
                f"stratum {sorted(bad, key=_sort_token)} declared empty but a "
                "larger intersection is declared nonempty"
            )
        warnings.warn(
            f"added {len(missing)} implied nonempty strata", stacklevel=2
        )
    overlap = closure & declared_empty
    if overlap:
        bad = sorted(overlap, key=_label_key)[0]
        raise InconsistentIncidence(
            f"stratum {sorted(bad, key=_sort_token)} declared both empty and nonempty"
        )
    return SncComplex(comps, closure)


class Crossing(Record):
    """One stratum of a crossings divisor, listed branch by branch.

    A branch is a (component label, branch id) pair; ids tell apart the
    sheets of one component passing through the same stratum.  The stratum's
    codimension always equals the number of branches.  origin, on a crossing
    made by a blow-up, is (center, i): the name of the crossing blown up and
    the 1-based index of the branch this crossing separates.
    """

    __slots__ = ("name", "branches", "origin")

    def __init__(self, name: str, branches: tuple[tuple, ...], origin: Optional[tuple] = None) -> None:
        pairs = [(c, b) for c, b in branches]
        if len(set(pairs)) != len(pairs):
            raise ValueError(f"crossing {name}: duplicate branch records")
        if not pairs:
            raise ValueError(f"crossing {name}: needs at least one branch")
        _set(self, "name", name)
        _set(self, "branches", branches)
        _set(self, "origin", origin)

    @property
    def codim(self) -> int:
        return len(self.branches)

    @property
    def component_labels(self) -> tuple:
        return tuple(c for c, _ in self.branches)

    def is_simple(self) -> bool:
        labels = self.component_labels
        return len(set(labels)) == len(labels)


class NcComplex(Record):
    """Crossings divisor: components plus explicitly listed crossings.

    closure_pairs lists (inner, outer) crossing names where the inner
    stratum lies in the closure of the outer one; ambient_dim, when known,
    lets point-likeness be decided by codimension alone.
    """

    __slots__ = ("components", "crossings", "closure_pairs", "ambient_dim")

    def __init__(
        self,
        components: tuple,
        crossings: tuple[Crossing, ...],
        closure_pairs: tuple[tuple[str, str], ...] = (),
        ambient_dim: Optional[int] = None,
    ) -> None:
        comp = set(components)
        if len(comp) != len(components):
            raise ValueError("component labels must be distinct")
        names = {s.name for s in crossings}
        if len(names) != len(crossings):
            raise ValueError("crossing names must be distinct")
        for s in crossings:
            for c, _ in s.branches:
                if c not in comp:
                    raise ValueError(f"crossing {s.name} uses unknown component {c!r}")
            if ambient_dim is not None and s.codim > ambient_dim:
                raise ValueError(
                    f"crossing {s.name} has codimension {s.codim} above the ambient dimension"
                )
        for inner, outer in closure_pairs:
            if inner not in names or outer not in names:
                raise ValueError(f"closure pair ({inner}, {outer}) names unknown crossings")
        _set(self, "components", components)
        _set(self, "crossings", crossings)
        _set(self, "closure_pairs", closure_pairs)
        _set(self, "ambient_dim", ambient_dim)

    def to_json(self) -> dict:
        return {
            "components": list(self.components),
            "crossings": [
                {
                    "name": s.name,
                    "branches": [[c, b] for c, b in s.branches],
                    "codim": s.codim,
                }
                for s in self.crossings
            ],
            "closure_pairs": [list(p) for p in self.closure_pairs],
            "ambient_dim": self.ambient_dim,
        }


def nc_from_json(data: dict) -> NcComplex:
    try:
        comps = tuple(data["components"])
        crossings = []
        for k, rec in enumerate(data["crossings"]):
            name = rec.get("name", f"S{k + 1}")
            branches = tuple((c, int(b)) for c, b in rec["branches"])
            if "codim" in rec and int(rec["codim"]) != len(branches):
                raise ParseError(
                    f"crossing {name}: codim {rec['codim']} does not match "
                    f"{len(branches)} branches"
                )
            crossings.append(Crossing(name, branches))
        closure = tuple((a, b) for a, b in data.get("closure_pairs", ()))
        dim = data.get("ambient_dim")
        return NcComplex(comps, tuple(crossings), closure,
                         None if dim is None else int(dim))
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad crossings payload: {exc}") from exc


def is_simple(nc: NcComplex) -> bool:
    """True when no crossing carries the same component on two branches."""
    return all(s.is_simple() for s in nc.crossings)


class BlowupStep(Record):
    __slots__ = ("stratum", "codim", "exceptional")

    def __init__(self, stratum: str, codim: int, exceptional: str) -> None:
        _set(self, "stratum", stratum)
        _set(self, "codim", codim)
        _set(self, "exceptional", exceptional)


class BlowupLog(Record):
    __slots__ = ("steps",)

    def __init__(self, steps: tuple[BlowupStep, ...]) -> None:
        _set(self, "steps", steps)

    def to_json(self) -> list:
        return [
            {"stratum": s.stratum, "codim": s.codim, "exceptional": s.exceptional}
            for s in self.steps
        ]


def _point_like(nc: NcComplex, s: Crossing) -> bool:
    if nc.ambient_dim is not None:
        return s.codim == nc.ambient_dim
    return all(outer != s.name for _, outer in nc.closure_pairs)


def strictify_nc(nc: NcComplex) -> tuple[NcComplex, BlowupLog]:
    """Blow up point-like non-simple crossings, deepest first, until every
    crossing is simple; returns the rewritten complex and the step log.

    Each blow-up removes one crossing of codimension d, adds one fresh
    exceptional component, and records d simple codimension-2 crossings
    where the branches now meet the exceptional divisor separately.
    """
    current = nc
    steps: list[BlowupStep] = []
    counter = 1
    while not is_simple(current):
        worst = max(s.codim for s in current.crossings if not s.is_simple())
        batch = sorted(
            (s for s in current.crossings if not s.is_simple() and s.codim == worst),
            key=lambda s: s.name,
        )
        crossings = list(current.crossings)
        components = list(current.components)
        closure = list(current.closure_pairs)
        for s in batch:
            if not _point_like(current, s):
                raise UnsupportedConfiguration(
                    f"crossing {s.name} is non-simple but not point-like; "
                    "only point blow-ups are supported"
                )
            label = f"E{counter}"
            while label in components:
                counter += 1
                label = f"E{counter}"
            counter += 1
            components.append(label)
            crossings.remove(s)
            for i, (c, b) in enumerate(s.branches, start=1):
                crossings.append(
                    Crossing(
                        f"{s.name}.{i}",
                        ((label, 1), (c, b)),
                        origin=(s.name, i),
                    )
                )
            closure = [p for p in closure if s.name not in p]
            steps.append(BlowupStep(s.name, s.codim, label))
        dim = current.ambient_dim
        current = NcComplex(tuple(components), tuple(crossings), tuple(closure), dim)
    return current, BlowupLog(tuple(steps))


def snc_of_simple(nc: NcComplex) -> SncComplex:
    """View a simple crossings complex through its nonempty strata: each
    component, and each crossing's set of components with its subsets."""
    if not is_simple(nc):
        raise UnsupportedConfiguration("complex still has non-simple crossings")
    supports = [frozenset({c}) for c in nc.components]
    supports += [frozenset(s.component_labels) for s in nc.crossings]
    return SncComplex(tuple(nc.components), _downward_closure(supports))


def strictify(nc: NcComplex) -> tuple[SncComplex, BlowupLog]:
    """Strictification endpoint: simple-complex view plus the blow-up log."""
    simple, log = strictify_nc(nc)
    return snc_of_simple(simple), log


def normalized_names(
    simple: NcComplex, stratum
) -> Optional[tuple[tuple[str, int], ...]]:
    """Normalized strata of the original pair, with multiplicities, that a
    stratum of its strictification lies on.

    simple is strictify_nc's complex of the original pair.  The empty
    stratum is the total space X; a component, original or exceptional,
    normalizes to itself; a deeper stratum lists the crossings of simple
    whose components are exactly the stratum, sorted by name, a blow-up
    crossing written S@i for the branch i of the crossing S it separated.
    None when no crossing of simple has those components.
    """
    s = frozenset(stratum)
    if not s:
        return (("X", 1),)
    if len(s) == 1:
        (c,) = s
        return ((str(c), 1),)
    on = sorted((x.name, x.origin) for x in simple.crossings if {c for c, _ in x.branches} == s)
    if not on:
        return None
    return tuple((f"{origin[0]}@{origin[1]}" if origin else name, 1) for name, origin in on)


class FixedLocusData(Record):
    """Finite diagonal group action data on the canonical root pair.

    invariant_factors define the group as a product of cyclic factors (each
    >= 2); weights[k][j] is the k-th factor's weight on the j-th boundary
    component's coordinate; fixed_components lists, per nontrivial group
    element, the stratum of coordinates it does not fix.
    """

    __slots__ = ("components", "invariant_factors", "weights", "fixed_components")

    def __init__(
        self,
        components: tuple,
        invariant_factors: tuple[int, ...],
        weights: tuple[tuple[int, ...], ...],
        fixed_components: tuple[tuple[tuple[int, ...], Stratum], ...],
    ) -> None:
        if len(weights) != len(invariant_factors):
            raise ValueError("one weight row per invariant factor required")
        for row in weights:
            if len(row) != len(components):
                raise ValueError("one weight per component required")
        _set(self, "components", components)
        _set(self, "invariant_factors", invariant_factors)
        _set(self, "weights", weights)
        _set(self, "fixed_components", fixed_components)

    def group_order(self) -> int:
        return math.prod(self.invariant_factors)

    def to_json(self) -> dict:
        return {
            "components": list(self.components),
            "invariant_factors": list(self.invariant_factors),
            "weights": [list(r) for r in self.weights],
            "fixed_components": [
                {"element": list(g), "stratum": in_component_order(self.components, t)}
                for g, t in self.fixed_components
            ],
        }


class SimplicialChart(Record):
    """Chart list for a simplicial log pair; desk scale supports one global
    chart with arbitrary finite diagonal quotient, or several charts that
    are all free (no quotient), treated as a disjoint union."""

    __slots__ = ("monoids",)

    def __init__(self, monoids: tuple[ToricMonoid, ...]) -> None:
        if not monoids:
            raise ValueError("chart list must be nonempty")
        _set(self, "monoids", monoids)


def canonical_root_pair(chart: SimplicialChart) -> tuple[SncComplex, FixedLocusData]:
    """Free boundary complex and group data of the canonical root pair.

    Single chart: components are the extremal rays (labeled R1, R2, ... in
    lexicographic ray order), every subset of rays is a face of a simplicial
    cone hence a nonempty stratum, and the quotient group acts diagonally
    with weights computed from the lattice quotient.  Several charts are
    supported only when all are free; the result is their disjoint union
    with trivial group.
    """
    if len(chart.monoids) == 1:
        return _single_chart_pair(chart.monoids[0], prefix="R")
    components: list = []
    charts = []
    for k, m in enumerate(chart.monoids, start=1):
        cx, piece = _single_chart_pair(m, prefix=f"C{k}.R")
        if piece.invariant_factors:
            raise UnsupportedConfiguration(
                "multiple charts are supported only when every chart is free"
            )
        components.extend(cx.components)
        charts.append(frozenset(cx.components))
    snc = SncComplex(tuple(components), _downward_closure(charts))
    return snc, FixedLocusData(tuple(components), (), (), ())


def _single_chart_pair(m: ToricMonoid, prefix: str) -> tuple[SncComplex, FixedLocusData]:
    from logsod.monoids import canonical_kummer_extension

    ext = canonical_kummer_extension(m)
    labels = tuple(f"{prefix}{j}" for j in range(1, len(ext.rays) + 1))
    nonempty = _downward_closure([frozenset(labels)])
    factors, weights = _quotient_weights(m, ext)
    # g moves coordinate j when sum_k g_k w_kj / d_k is not an integer,
    # tested over the common denominator lcm(d_k)
    lcm = math.lcm(*factors)
    fixed = []
    for g in product(*(range(d) for d in factors)):
        if not any(g):
            continue
        moved = frozenset(
            lab
            for j, lab in enumerate(labels)
            if sum(gk * wrow[j] * (lcm // dk) for gk, wrow, dk in zip(g, weights, factors)) % lcm
        )
        fixed.append((g, moved))
    data = FixedLocusData(labels, factors, weights, tuple(fixed))
    return SncComplex(labels, nonempty), data


def _quotient_weights(m: ToricMonoid, ext) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    # Lattice basis vectors in root-basis coordinates form the columns; the
    # left Smith transform then carries each coordinate direction to its
    # class in the diagonalized quotient.
    from logsod.intlinalg import smith_normal_form
    from logsod.monoids import _lattice_in_basis

    n = len(ext.target_basis)
    mat = [list(col) for col in zip(*_lattice_in_basis(m, ext.target_basis))]
    u, d, _ = smith_normal_form(mat)
    diag = [d[i][i] for i in range(n)]
    keep = [k for k, dk in enumerate(diag) if abs(dk) >= 2]
    factors = tuple(abs(diag[k]) for k in keep)
    weights = tuple(
        tuple(u[k][j] % abs(diag[k]) for j in range(n)) for k in keep
    )
    return factors, weights


def fixed_locus_index(data: FixedLocusData, stratum: Iterable, truncation: int) -> int:
    """Size of the truncated character index over a stratum: nonzero
    characters on the stratum itself plus, per group element whose moved
    coordinates sit inside the stratum, those on the fixed component.

    Counts are taken at cyclic order `truncation` in every coordinate, where
    a stratum of codimension c carries (truncation - 1)^c nonzero characters.
    """
    s = frozenset(stratum)
    comp = set(data.components)
    if not s <= comp:
        raise UnknownStratum(f"stratum {sorted(s, key=str)} uses unknown components")
    if truncation < 1:
        raise ValueError("truncation must be a positive integer")

    total = (truncation - 1) ** len(s)
    for _, moved in data.fixed_components:
        if moved <= s:
            total += (truncation - 1) ** len(moved)
    return total
