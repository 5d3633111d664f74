"""Ordered factor-label descriptors for root stacks of crossings pairs.

A descriptor is pure bookkeeping: the parameters of an ordered list of
(stratum, character) labels with provenance, one per character of the
level's cyclic product group, and the labels generated from them on demand.
Admissibility of the underlying subcategories is not re-proved here; the
descriptors exist to make label sets, orders, and counting identities
checkable.
"""

from __future__ import annotations

import math
import sys
from itertools import product
from typing import Iterable, Iterator, Optional, Sequence

from logsod import Record
from logsod.complexes import (
    NcComplex,
    SimplicialChart,
    SncComplex,
    canonical_root_pair,
    in_component_order,
    normalized_names,
    snc_from_divisors,
    strictify_nc,
    snc_of_simple,
)
from logsod.errors import NonDiagonalLevel, TooManyLabels
from logsod.orders import (
    CharVector,
    _checked_level,
    _standard_axis,
    cmp_factorial_vector,
    enumerate_characters,
    factorial_vector_key,
    Rel,
    stage_level,
    stage_size,
    vector_first_level,
)

__all__ = [
    "FactorLabel",
    "PsodDescriptor",
    "bls_divergence",
    "embedding_check",
    "psod_bls",
    "psod_infinite",
    "psod_nc",
    "psod_simplicial",
    "psod_single",
    "psod_snc",
]

BASE = "BaseStack"
GERBE = "GerbeCharacter"

_set = object.__setattr__


class FactorLabel(Record):
    """One factor: a character with its exact support and provenance.

    The base factor is the zero character on the empty stratum; every other
    label is a gerbe character.  zero marks labels whose stratum is empty in
    the incidence data (kept so counting identities stay exact); first_level
    and normalized are annotations added by the infinite and nc builders.
    """

    __slots__ = ("stratum", "character", "provenance", "zero", "first_level", "normalized")

    def __init__(
        self,
        stratum: frozenset,
        character: CharVector,
        provenance: str,
        zero: bool = False,
        first_level: Optional[int] = None,
        normalized: Optional[tuple[tuple[str, int], ...]] = None,
    ) -> None:
        _set(self, "stratum", stratum)
        _set(self, "character", character)
        _set(self, "provenance", provenance)
        _set(self, "zero", zero)
        _set(self, "first_level", first_level)
        _set(self, "normalized", normalized)

    def to_json(self, components: Sequence) -> dict:
        """The label's JSON, its stratum listed in the components' order."""
        out = {
            "stratum": in_component_order(components, self.stratum),
            "char": [c.to_pair() for c in self.character],
            "provenance": self.provenance,
            "zero": self.zero,
        }
        if self.first_level is not None:
            out["first_level"] = self.first_level
        if self.normalized is not None:
            out["normalized"] = [[lab, mult] for lab, mult in self.normalized]
        return out


class PsodDescriptor(Record):
    """Ordered label family for one level of the root-stack tower, held as
    the parameters that determine it.

    There is one label per character of the level's cyclic product, on the
    stratum of the character's support, listed ascending in the declared
    order, so the base factor comes last in factorial descriptors.  level
    gives the per-component cyclic order; nonempty is the complex's nonempty
    strata, and a label on any other stratum is flagged zero.  truncation is
    set when the descriptor presents a stage of the infinite tower, whose
    labels carry their first level.  names, for an nc pair, is a frozenset
    of (stratum, normalized strata) pairs, one for each nonempty stratum,
    naming the normalized strata of the original pair it lies on.
    base_breakdown records blow-up factor counts for the base, metadata
    only.
    """

    __slots__ = (
        "components", "nonempty", "order", "level", "truncation", "base_breakdown", "names",
    )

    def __init__(
        self,
        components: tuple,
        nonempty: frozenset,
        order: str,
        level: tuple[int, ...],
        truncation: Optional[int] = None,
        base_breakdown: Optional[tuple[tuple[str, int], ...]] = None,
        names: Optional[frozenset] = None,
    ) -> None:
        if order not in ("standard", "factorial"):
            raise ValueError(f"unknown order tag {order!r}")
        level = _checked_level(level, len(components))
        if len(set(components)) != len(components):
            raise ValueError("component labels must be distinct")
        if truncation is not None and (truncation < 0 or any(
                _is_factorial(r) != max(truncation, 1) for r in level)):
            # 0! = 1! = 1, which _is_factorial reads as 1!.
            raise ValueError("truncation descriptors live at diagonal n! level")
        count = math.prod(level)
        if count > LABEL_CAP:
            raise _too_many(f"level {list(level)}", count)
        _set(self, "components", components)
        _set(self, "nonempty", nonempty)
        _set(self, "order", order)
        _set(self, "level", level)
        _set(self, "truncation", truncation)
        _set(self, "base_breakdown", base_breakdown)
        _set(self, "names", names)

    def characters(self) -> list[tuple[CharVector, Optional[int]]]:
        """The labels' characters in order, each with its first level; in a
        standard descriptor without a truncation, with None."""
        if self.order == "factorial":
            return enumerate_characters(self.level, range(1, len(self.level) + 1))
        # Lexicographic by coordinate value, a deterministic linear extension
        # of the componentwise standard order: the product of the axes.
        chars = product(*map(_standard_axis, self.level))
        if self.truncation is None:
            return [(chi, None) for chi in chars]
        return [(chi, vector_first_level(chi)) for chi in chars]

    def iter_labels(self) -> Iterator[FactorLabel]:
        """The labels in order, each built when it is asked for.  The labels
        on one stratum share its frozenset and annotations, computed once."""
        strata: dict[tuple[bool, ...], tuple] = {}  # by nonzero pattern
        names = dict(self.names or ())
        for chi, first in self.characters():
            on = tuple([x.p != 0 for x in chi])
            stratum = strata.get(on)
            if stratum is None:
                support = frozenset(c for c, x in zip(self.components, on) if x)
                stratum = strata[on] = (
                    support,
                    BASE if not support else GERBE,
                    support not in self.nonempty,
                    names.get(support),
                )
            support, provenance, zero, normalized = stratum
            yield FactorLabel(
                support, chi, provenance, zero,
                None if self.truncation is None else first, normalized,
            )

    @property
    def labels(self) -> tuple[FactorLabel, ...]:
        return tuple(self.iter_labels())

    @property
    def zero_factors(self) -> tuple[FactorLabel, ...]:
        return tuple(lab for lab in self.iter_labels() if lab.zero)

    def to_json(self) -> dict:
        out = self.json_outline()
        out["labels"] = list(out["labels"])
        return out

    def json_outline(self) -> dict:
        """to_json() with "labels" as an iterator over the labels' JSON
        objects, so that a writer can encode them one at a time."""
        out = {
            "components": list(self.components),
            "level": list(self.level),
            "order": self.order,
            "labels": (lab.to_json(self.components) for lab in self.iter_labels()),
        }
        if self.truncation is not None:
            out["truncation"] = self.truncation
        if self.base_breakdown is not None:
            out["base_breakdown"] = [[s, k] for s, k in self.base_breakdown]
        return out


def _single_divisor_complex() -> SncComplex:
    return snc_from_divisors(("D",), [[], ["D"]])


def psod_single(n: int) -> PsodDescriptor:
    """Single-divisor descriptor at level n! in the factorial order.

    The n=3 sequence is the degree-6 chain -5/6, -2/6, -4/6, -1/6, -3/6, 0;
    the zero character is the base factor and comes last.
    """
    cx = _single_divisor_complex()
    return PsodDescriptor(cx.components, cx.nonempty, "factorial", _stage_level(n, 1))


def psod_bls(r: int) -> PsodDescriptor:
    """Single-divisor descriptor at level r in the standard order: the
    one-step chain -(r-1)/r, ..., -1/r, 0."""
    if r < 1:
        raise ValueError("level must be a positive integer")
    cx = _single_divisor_complex()
    return PsodDescriptor(cx.components, cx.nonempty, "standard", (r,))


def bls_divergence(n: int) -> dict:
    """Compare psod_bls(n!) against psod_single(n).

    The label sets always agree; the sequences agree up to n=2 and first
    diverge at n=3.  Labels already present at the previous stage (the
    nonzero characters of order dividing (n-1)!) are flagged: at those the
    two constructions name genuinely different subcategories.
    """
    single = [chi for chi, _ in psod_single(n).characters()]
    one_step = [chi for chi, _ in psod_bls(math.factorial(n)).characters()]
    flagged = tuple(
        chi[0]
        for chi, _ in enumerate_characters([math.factorial(n - 1)], {1}, star=True)
    ) if n >= 2 else ()
    return {
        "level": n,
        "labels_match": set(single) == set(one_step),
        "order_matches": single == one_step,
        "non_identical": flagged,
    }


def _is_factorial(r: int) -> Optional[int]:
    n, fact = 1, 1
    while fact < r:
        n += 1
        fact *= n
    return n if fact == r else None


def psod_snc(cx: SncComplex, level: Iterable[int], order: str = "factorial") -> PsodDescriptor:
    """Descriptor for a simple normal crossings complex at a finite level.

    Labels run over all characters of the level's cyclic product, bucketed
    by exact support; supports that are empty in the incidence data are kept
    but flagged.  The factorial order requires a diagonal factorial level.
    """
    level = _checked_level(level, len(cx.components))
    if order == "factorial":
        if len(set(level)) > 1 or (level and _is_factorial(level[0]) is None):
            raise NonDiagonalLevel(
                f"factorial order needs a diagonal n! level, got {list(level)}"
            )
    elif order != "standard":
        raise ValueError(f"unknown order tag {order!r}")
    return PsodDescriptor(cx.components, cx.nonempty, order, level)


def psod_infinite(cx: SncComplex, truncation: int) -> PsodDescriptor:
    """Stage n of the infinite tower: the level-n! factorial descriptor with
    each label annotated by the first stage where it appears."""
    level = _stage_level(truncation, len(cx.components))
    return PsodDescriptor(cx.components, cx.nonempty, "factorial", level, truncation)


# Most labels a descriptor generates.  A `logsod psod` process peaks at about
# 0.30 KB a label (one divisor at level 9: 362,880 labels, 109 MB), set by
# characters(): its list of (character, first level) pairs, about 220 B a
# label, and about 30 B more that enumerate_characters holds while building
# it.  The labels are written one at a time and never held.
# embedding_check's sublevel mode builds up to SUBLEVEL_CHECK_CAP.
LABEL_CAP = 600_000
FULL_CHECK_CAP = 40_000
SUBLEVEL_CHECK_CAP = 600_000
SAMPLE_STRIDE = 7919


def _too_many(what: str, count) -> TooManyLabels:
    return TooManyLabels(
        f"{what} has {count} labels, more than the {LABEL_CAP} a descriptor may "
        "build; 'logsod decompose' counts them without building them"
    )


def _stage_count(stage: int, k: int) -> int | str:
    """The n!**k labels of stage n, or the bound "over 10^d" when the count
    has more digits than Python writes as text (sys.get_int_max_str_digits());
    n! is computed only as far as that bound."""
    digits = getattr(sys, "get_int_max_str_digits", int)() or 4300
    return stage_size(stage, k, 10 ** digits) or f"over 10^{digits}"


def _stage_level(stage: int, k: int) -> tuple[int, ...]:
    """stage_level(stage, k), refused when its n!**k labels are more than
    LABEL_CAP, before n! is computed in full."""
    if stage_size(stage, k, LABEL_CAP + 1):
        return stage_level(stage, k)
    raise _too_many(f"stage {stage}", _stage_count(stage, k))


def embedding_check(
    cx: SncComplex,
    n: int,
    level_descriptor: Optional[PsodDescriptor] = None,
    sublevel_descriptor: Optional[PsodDescriptor] = None,
) -> dict:
    """Verify stage n-1 of the tower embeds in stage n compatibly.

    Checks that the (n-1)! labels are a subset of the n! labels and that the
    factorial order restricts correctly.  Small levels are checked in full;
    middling ones materialize only the sublevel; beyond that the scalar
    chains are still checked exhaustively and vector pairs are sampled with
    a fixed stride.  The report names its mode and any counterexamples.
    Raises TooManyLabels when the scalar sublevel chain alone exceeds
    SUBLEVEL_CHECK_CAP (n >= 11).
    """
    if n < 2:
        raise ValueError("embedding needs n >= 2")
    k = len(cx.components)
    report: dict = {"passed": True, "level": n, "counterexamples": []}

    def fail(kind, *items):
        report["passed"] = False
        report["counterexamples"].append((kind, *items))

    if stage_size(n, k, FULL_CHECK_CAP + 1):
        report["mode"] = "full"
        big = level_descriptor or psod_infinite(cx, n)
        small = sublevel_descriptor or psod_infinite(cx, n - 1)
        big_seq = [chi for chi, _ in big.characters()]
        small_seq = [chi for chi, _ in small.characters()]
        big_chars, small_set = set(big_seq), set(small_seq)
        for chi in small_seq:
            if chi not in big_chars:
                fail("missing-label", chi)
        restricted = [chi for chi in big_seq if chi in small_set]
        if restricted != small_seq and report["passed"]:
            for a, b in zip(restricted, small_seq):
                if a != b:
                    fail("order-mismatch", a, b)
                    break
        return report

    if stage_size(n - 1, k, SUBLEVEL_CHECK_CAP + 1):
        report["mode"] = "sublevel"
        small = sublevel_descriptor or psod_infinite(cx, n - 1)
        fact = math.factorial(n)
        seq = [chi for chi, _ in small.characters()]
        for chi in seq:
            if any(fact % c.q for c in chi):
                fail("missing-label", chi)
        # The descriptor's order comes from enumerate_characters, which
        # computes no keys, so this is an independent check of it.
        keys = [factorial_vector_key(chi) for chi in seq]
        if keys != sorted(keys):
            bad = next(i for i in range(len(keys) - 1) if keys[i] > keys[i + 1])
            fail("order-mismatch", seq[bad], seq[bad + 1])
        for i in range(0, len(seq) - 1, max(1, len(seq) // 997)):
            if cmp_factorial_vector(seq[i], seq[i + 1]) is Rel.GT:
                fail("comparator-mismatch", seq[i], seq[i + 1])
        return report

    if k == 1:
        # The sampled mode rests on the scalar check, which is this call.
        raise TooManyLabels(
            f"embedding check at stage {n} needs the labels of stage {n - 1}: "
            f"{_stage_count(n - 1, 1)}, more than {SUBLEVEL_CHECK_CAP}"
        )
    report["mode"] = "sampled"
    scalar = embedding_check(_single_divisor_complex(), n)
    if not scalar["passed"]:
        report["passed"] = False
        report["counterexamples"] = scalar["counterexamples"]
        return report
    # Componentwise the sublevel chain is contained in the level chain, so
    # label inclusion holds; sample vector pairs for order consistency.
    fact_small = math.factorial(n - 1)
    axis = [chi[0] for chi, _ in enumerate_characters([fact_small], {1})]
    picks = []
    idx = 0
    while len(picks) < 400:
        combo = []
        key = idx
        for _ in range(k):
            combo.append(axis[key % len(axis)])
            key //= len(axis)
        picks.append(tuple(combo))
        idx += SAMPLE_STRIDE
    keyed = sorted(picks, key=factorial_vector_key)
    for a, b in zip(keyed, keyed[1:]):
        if cmp_factorial_vector(a, b) is Rel.GT:
            fail("comparator-mismatch", a, b)
    return report


def psod_nc(nc: NcComplex, truncation: int) -> PsodDescriptor:
    """Descriptor of an nc pair via its strictification.

    Builds the infinite-tower stage on the strictified complex, then
    annotates every label with the normalized strata of the original pair
    it lives on: original components normalize once, blow-up crossings point
    back to the branch they separated, exceptional components stay
    themselves.  The annotations are the descriptor's names, one pair of a
    nonempty stratum and its normalized_names, put on the labels as they
    are generated.  The base label records the blow-up factor counts (one
    copy of the center per codimension step) as descriptor metadata.
    """
    simple, log = strictify_nc(nc)
    snc = snc_of_simple(simple)
    level = _stage_level(truncation, len(snc.components))
    names = frozenset((s, normalized_names(simple, s)) for s in snc.nonempty)
    breakdown = tuple((step.stratum, step.codim - 1) for step in log.steps)
    return PsodDescriptor(
        snc.components, snc.nonempty, "factorial", level, truncation, breakdown, names
    )


def psod_simplicial(chart: SimplicialChart, truncation: int) -> PsodDescriptor:
    """Infinite-tower stage over the canonical root pair of a chart list;
    labels reference the root pair's boundary components."""
    snc, _ = canonical_root_pair(chart)
    return psod_infinite(snc, truncation)
