"""Character alphabets and the orders that sequence decomposition factors.

Characters are rationals in (-1, 0] representing classes in Q/Z.  The module
provides the standard numeric order, the factorial order used to sequence
root-of-unity twists across the factorial tower Z_{n!}, normal factorial
forms, finite preorders with joins, and enumeration of character vectors
grouped by support.
"""

from __future__ import annotations

import enum
import math
import warnings
from bisect import bisect_left, bisect_right
from itertools import product, repeat
from operator import neg
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from logsod import Record
from logsod.errors import LengthMismatch

# Fractions are built only where a rational is asked for, so that the
# character orders and enumeration load no fractions module.
if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "Character",
    "CharVector",
    "FactorialForm",
    "Preorder",
    "Rel",
    "as_vector",
    "cmp_factorial_scalar",
    "cmp_factorial_vector",
    "cmp_product",
    "cmp_standard",
    "enumerate_characters",
    "factorial_scalar_key",
    "factorial_vector_key",
    "first_level",
    "join",
    "mod_one",
    "normal_factorial_form",
    "stage_level",
    "stage_size",
    "strata_preorder",
    "support_partition",
    "vector_first_level",
]


_set = object.__setattr__


def mod_one(x: Fraction | int) -> Fraction:
    """Representative of x mod Z in the window (-1, 0]."""
    from fractions import Fraction

    f = Fraction(x)
    return f - math.ceil(f)


class Rel(enum.Enum):
    """Outcome of a comparison; INCOMPARABLE only occurs for vector orders."""

    LT = "LT"
    EQ = "EQ"
    GT = "GT"
    INCOMPARABLE = "INCOMPARABLE"


class Character(Record):
    """A class in Q/Z stored as the reduced pair (p, q) meaning -p/q.

    The numeric value lies in (-1, 0]; zero is (0, 1).
    """

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int) -> None:
        if q < 1 or not 0 <= p < q:
            raise ValueError(f"character pair out of range: ({p}, {q})")
        if math.gcd(p, q) != 1:
            raise ValueError(f"character pair not reduced: ({p}, {q})")
        _set(self, "p", p)
        _set(self, "q", q)

    @classmethod
    def of(cls, x: Fraction | int) -> "Character":
        """Canonical representative of x mod Z."""
        v = mod_one(x)
        return cls(-v.numerator, v.denominator) if v else cls(0, 1)

    @classmethod
    def zero(cls) -> "Character":
        return cls(0, 1)

    @classmethod
    def from_pair(cls, pair: Sequence[int]) -> "Character":
        p, q = pair
        return cls(int(p), int(q))

    @property
    def value(self) -> Fraction:
        from fractions import Fraction

        return Fraction(-self.p, self.q)

    def is_zero(self) -> bool:
        return self.p == 0

    def to_pair(self) -> list[int]:
        return [self.p, self.q]

    def __str__(self) -> str:
        return "0" if self.p == 0 else f"-{self.p}/{self.q}"


CharVector = tuple[Character, ...]


def as_vector(entries: Iterable[Character | Fraction | int]) -> CharVector:
    """Coerce a sequence of characters or rationals to a character vector."""
    return tuple(e if isinstance(e, Character) else Character.of(e) for e in entries)


class FactorialForm(Record):
    """Expression of a character as -p/n! with n minimal; zero is (0, 1)."""

    __slots__ = ("p", "n")

    def __init__(self, p: int, n: int) -> None:
        if n < 1 or p < 0:
            raise ValueError(f"invalid factorial form ({p}, {n})")
        # -p/n! already lives at level n-1 exactly when n divides p.
        if p == 0:
            if n != 1:
                raise ValueError("zero must be written at level 1")
        elif p >= math.factorial(n) or (n > 1 and p % n == 0):
            raise ValueError(f"({p}, {n}) is not a minimal-level form")
        _set(self, "p", p)
        _set(self, "n", n)

    @property
    def value(self) -> Fraction:
        from fractions import Fraction

        return Fraction(-self.p, math.factorial(self.n))


def first_level(x: Character) -> int:
    """Minimal n >= 1 with x expressible over denominator n!."""
    return _tower_level(x.q)[0]


def _tower_level(q: int) -> tuple[int, int]:
    # Minimal n >= 1 with q dividing n!, together with n!.
    n, f = 1, 1
    while f % q:
        n += 1
        f *= n
    return n, f


def _checked_level(level: Iterable[int], k: int) -> tuple[int, ...]:
    """level as a tuple of ints, one positive cyclic order per component."""
    level = tuple(int(r) for r in level)
    if len(level) != k:
        raise ValueError("one cyclic order per component required")
    if any(r < 1 for r in level):
        raise ValueError("cyclic orders must be positive")
    return level


def stage_level(stage: int, k: int) -> tuple[int, ...]:
    """(n!,) * k, the level of stage n of the factorial tower over k
    components.  Zero components take any positive stage, and n! is not
    computed for them."""
    if stage < 1:
        raise ValueError("truncation must be a positive integer")
    return (math.factorial(stage),) * k if k else ()


def stage_size(stage: int, k: int, bound: int) -> Optional[int]:
    """n!**k, the characters of stage n of the factorial tower over k
    components, or None when that is at least bound; n! is computed only
    until its k-th power reaches the bound.  Zero components have one
    character at every stage."""
    n = fact = size = 1
    while k and n < stage and size < bound:
        n += 1
        fact *= n
        size = fact ** k
    return size if size < bound else None


def normal_factorial_form(x: Character) -> FactorialForm:
    """Write x as -p/n! with n minimal (the character's first tower level)."""
    n = first_level(x)
    return FactorialForm(x.p * (math.factorial(n) // x.q), n)


def vector_first_level(chi: Sequence[Character]) -> int:
    """Minimal n with every coordinate expressible over denominator n!."""
    return max((first_level(c) for c in chi), default=1)


def cmp_standard(x: Character, y: Character) -> Rel:
    """Numeric order on (-1, 0]: -(r-1)/r < ... < -1/r < 0."""
    a, b = x.p * y.q, y.p * x.q
    if a == b:
        return Rel.EQ
    return Rel.LT if a > b else Rel.GT


def cmp_factorial_scalar(x: Character, y: Character) -> Rel:
    """Total order on each Z_{n!}: deeper first appearance sorts earlier,
    then fiber position, then the remainder one level down.  It is the
    order of factorial_scalar_key."""
    a, b = factorial_scalar_key(x), factorial_scalar_key(y)
    if a == b:
        return Rel.EQ
    return Rel.LT if a < b else Rel.GT


def factorial_scalar_key(x: Character) -> tuple:
    """Injective sort key of the factorial order (cmp_factorial_scalar).

    Writes x = -N/n! at its first level n and reads N in the factorial
    number system (Knuth, TAOCP Vol. 2, 4.1), taking digits d_m at radix
    m = n, n-1, ..., 2.  The key lists (-m, -d_m) for the nonzero digits
    from the top down, so a deeper first appearance sorts earlier, then the
    fiber position, then the remainder one level down.  It ends with 1,
    which exceeds every real entry, so that an element whose chain ends
    early sorts after one that continues.  All entries are ints.
    """
    n, f = _tower_level(x.q)
    rest = x.p * (f // x.q)
    out: list[int] = []
    for m in range(n, 1, -1):
        rest, d = divmod(rest, m)
        if d:
            out += (-m, -d)
    out.append(1)
    return tuple(out)


def cmp_factorial_vector(chi: Sequence[Character], psi: Sequence[Character]) -> Rel:
    """Partial order on character vectors: compare first appearance levels,
    then componentwise scalar order when the levels agree."""
    if len(chi) != len(psi):
        raise LengthMismatch(f"vector lengths differ: {len(chi)} vs {len(psi)}")
    n, m = vector_first_level(chi), vector_first_level(psi)
    if n != m:
        return Rel.LT if n > m else Rel.GT
    return _componentwise(tuple(cmp_factorial_scalar(a, b) for a, b in zip(chi, psi)))


def cmp_product(chi: Sequence[Character], psi: Sequence[Character]) -> Rel:
    """Componentwise numeric order on character vectors."""
    if len(chi) != len(psi):
        raise LengthMismatch(f"vector lengths differ: {len(chi)} vs {len(psi)}")
    return _componentwise(tuple(cmp_standard(a, b) for a, b in zip(chi, psi)))


def _componentwise(rels: tuple[Rel, ...]) -> Rel:
    if all(r is Rel.EQ for r in rels):
        return Rel.EQ
    if all(r in (Rel.LT, Rel.EQ) for r in rels):
        return Rel.LT
    if all(r in (Rel.GT, Rel.EQ) for r in rels):
        return Rel.GT
    return Rel.INCOMPARABLE


def factorial_vector_key(chi: Sequence[Character]) -> tuple:
    """Deterministic total key refining cmp_factorial_vector.

    Level first (deeper earlier), then coordinate keys lexicographically; the
    lexicographic step also fixes an output order for incomparable vectors.
    """
    return (-vector_first_level(chi), tuple(factorial_scalar_key(c) for c in chi))


class Preorder:
    """Finite preorder: opaque labels plus a reflexive transitive relation.

    The relation is stored as one bitmask per element; bit j of row i records
    elements[i] <= elements[j].
    """

    def __init__(self, elements: Sequence, rows: Sequence[int]):
        self.elements = tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate labels in preorder")
        if len(rows) != len(self.elements):
            raise ValueError("relation size does not match element count")
        self._rows = tuple(int(r) for r in rows)
        n = len(self.elements)
        for i, row in enumerate(self._rows):
            if row >> n:
                raise ValueError("relation row addresses unknown elements")
            if not row & (1 << i):
                raise ValueError(f"relation not reflexive at {self.elements[i]!r}")
        for i, row in enumerate(self._rows):
            r = row
            while r:
                j = (r & -r).bit_length() - 1
                r &= r - 1
                if self._rows[j] & ~row:
                    raise ValueError(
                        f"relation not transitive through {self.elements[j]!r}"
                    )

    @classmethod
    def from_pairs(cls, elements: Sequence, pairs: Iterable[tuple], *, close: bool = False) -> "Preorder":
        """Build from (below, above) label pairs.  With close=True the
        reflexive transitive closure is taken; otherwise the pairs must
        already form a preorder."""
        index = {e: i for i, e in enumerate(elements)}
        rows = [1 << i for i in range(len(elements))]
        for a, b in pairs:
            rows[index[a]] |= 1 << index[b]
        if close:
            changed = True
            while changed:
                changed = False
                for i in range(len(rows)):
                    r, acc = rows[i], rows[i]
                    while r:
                        j = (r & -r).bit_length() - 1
                        r &= r - 1
                        acc |= rows[j]
                    if acc != rows[i]:
                        rows[i] = acc
                        changed = True
        return cls(elements, rows)

    @classmethod
    def antichain(cls, elements: Sequence) -> "Preorder":
        return cls(elements, [1 << i for i in range(len(elements))])

    @classmethod
    def chain(cls, elements: Sequence) -> "Preorder":
        n = len(elements)
        full = (1 << n) - 1
        return cls(elements, [full ^ ((1 << i) - 1) for i in range(n)])

    def __len__(self) -> int:
        return len(self.elements)

    def leq(self, a, b) -> bool:
        return bool(self._rows[self._index[a]] & (1 << self._index[b]))

    def pairs(self) -> list[tuple[int, int]]:
        """All related index pairs (i, j) with elements[i] <= elements[j]."""
        out = []
        for i, row in enumerate(self._rows):
            r = row
            while r:
                j = (r & -r).bit_length() - 1
                r &= r - 1
                out.append((i, j))
        return out

    def rows(self) -> tuple[int, ...]:
        return self._rows

    def to_json(self) -> dict:
        return {
            "elements": [_encode_label(e) for e in self.elements],
            "pairs": [list(p) for p in self.pairs()],
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Preorder)
            and self.elements == other.elements
            and self._rows == other._rows
        )

    def __repr__(self) -> str:
        return f"Preorder({len(self.elements)} elements, {len(self.pairs())} pairs)"


def _encode_label(label):
    if isinstance(label, frozenset):
        return sorted(label)
    if isinstance(label, tuple):
        return [_encode_label(x) for x in label]
    return label


def join(first: Preorder, second: Preorder) -> Preorder:
    """Disjoint union keeping internal relations, with every element of the
    first preorder below every element of the second.

    Colliding labels are disambiguated by wrapping as (1, label) on the first
    side and (2, label) on the second.
    """
    left, right = first.elements, second.elements
    if set(left) & set(right):
        left = tuple((1, e) for e in left)
        right = tuple((2, e) for e in right)
    n, m = len(left), len(right)
    above = ((1 << m) - 1) << n
    rows = [row | above for row in first.rows()]
    rows += [row << n for row in second.rows()]
    return Preorder(left + right, rows)


def strata_preorder(components: Iterable, ambient_dim: int) -> Preorder:
    """Preorder on subsets of the component set: larger subsets (deeper
    strata) come first, subsets of equal size are mutually related.

    Warns when ambient_dim is less than the component count, where distinct
    strata of a crossings divisor could not all be nonempty.
    """
    labels = tuple(components)
    if len(set(labels)) != len(labels):
        raise ValueError("component labels must be distinct")
    if ambient_dim < len(labels):
        warnings.warn(
            f"ambient dimension {ambient_dim} below component count {len(labels)}",
            stacklevel=2,
        )
    subsets = _subsets(labels)
    subsets.sort(key=lambda s: (-len(s), sorted(map(_sort_token, s))))
    rows = []
    for s in subsets:
        row = 0
        for j, t in enumerate(subsets):
            if len(s) >= len(t):
                row |= 1 << j
        rows.append(row)
    return Preorder(subsets, rows)


def _subsets(labels: Iterable) -> list[frozenset]:
    """Every subset of the labels, in no particular order."""
    out = [frozenset()]
    for label in labels:
        out += [s | {label} for s in out]
    return out


def _sort_token(label):
    # Stable sort token for mixed label types; ints sort numerically.
    if isinstance(label, int) and not isinstance(label, bool):
        return (0, label)
    return (1, str(label))


def enumerate_characters(
    orders: Sequence[int],
    support: Iterable[int],
    star: bool = False,
    prime_to: Optional[int] = None,
) -> list[tuple[CharVector, int]]:
    """Character vectors over Z_{r_1} x ... x Z_{r_k} supported in a subset,
    each with its first level.

    Components are numbered 1..k.  Coordinates inside `support` range over
    Z_{r_j} (or Z_{r_j} minus zero when star=True); the rest are zero.  With
    prime_to=p only vectors whose reduced denominators are all coprime to p
    are kept.  Returns (vector, vector_first_level(vector)) pairs in the
    order of factorial_vector_key, so deeper characters come first,
    compatibly with the factorial order.

    Each axis is put in factorial order once (_factorial_axis), and the
    vectors of each first level L, deepest first, are the product of the
    axes cut to first level <= L, less those with no coordinate at level L.
    An axis lists its characters by descending first level, so the cut is
    a suffix of the axis and its level-L characters a prefix of the cut;
    both are sliced at bounds found by bisection.
    """
    orders = _checked_level(orders, len(orders))
    chosen = sorted(set(int(j) for j in support))
    if chosen and not (1 <= chosen[0] and chosen[-1] <= len(orders)):
        raise ValueError(f"support indices out of range 1..{len(orders)}: {chosen}")
    if prime_to is not None and not _is_prime(prime_to):
        raise ValueError(f"prime_to must be prime, got {prime_to}")

    zero = Character.zero()
    if not chosen:
        return [((zero,) * len(orders), 1)]
    axes = []  # per axis, its characters and their first levels
    for j in chosen:
        chars, levels = [], []
        for c, n in zip(*_factorial_axis(orders[j - 1])):
            if not (star and c.p == 0) and (prime_to is None or c.q % prime_to):
                chars.append(c)
                levels.append(n)
        axes.append((chars, levels))
    out: list[tuple[CharVector, int]] = []
    for level in sorted({n for _, levels in axes for n in levels}, reverse=True):
        cut, tops = [], []
        for chars, levels in axes:
            # The levels descend, so they ascend under neg.
            start = bisect_left(levels, -level, key=neg)
            cut.append(chars[start:])
            tops.append(chars[start:bisect_right(levels, -level, key=neg)])
        # Built from the last axis back: a vector has a level-L coordinate
        # in the first axis (then any rest) or after it.
        exact = [(c,) for c in tops[-1]]
        for j in range(len(axes) - 2, -1, -1):
            exact = [
                *product(tops[j], *cut[j + 1:]),
                *((c, *rest) for c in cut[j][len(tops[j]):] for rest in exact),
            ]
        out += zip(exact, repeat(level))
    if len(chosen) < len(orders):
        out = [(_place(chi, chosen, len(orders), zero), n) for chi, n in out]
    return out


def _place(coords: CharVector, chosen: list[int], k: int, zero: Character) -> CharVector:
    vec = [zero] * k
    for j, c in zip(chosen, coords):
        vec[j - 1] = c
    return tuple(vec)


def _factorial_axis(r: int) -> tuple[list[Character], list[int]]:
    """Z_r in the factorial order, and the first level of each character.

    Z_r is the multiples of s = n!/r in Z_{n!}, n the first level of 1/r.
    factorial_scalar_key reads a character -M/n! by the digits d_m of M in
    the factorial number system, taken by divmod from radix m = n down to
    2, and sorts them lexicographically, each digit ranked
    m-1 < ... < 1 < 0.  So the axis is built one radix at a time, splitting
    every run of characters that share the digits above m by d_m, in that
    rank order.  What such a run leaves of M once those digits are removed
    is an arithmetic progression A + S*t modulo m!, with one step S for all
    runs at radix m; the split keeps the residues d = A + S*t mod m.  A run
    with S = m! is a single character.
    """
    n, f = _tower_level(r)
    runs = [(0, 0, 0)]  # (A, the digits taken as an integer, first level or 0)
    step, place, fact_m = f // r, 1, f
    for m in range(n, 0, -1):
        if step == fact_m:
            break
        g = math.gcd(step, m)
        period = m // g
        inv = pow(step // g, -1, period)
        split = []
        for a, taken, level in runs:
            for d in range(m - 1 - (m - 1 - a) % g, -1, -g):
                rest = (a + step * ((d - a) // g * inv % period)) % fact_m
                split.append(((rest - d) // m, taken + place * d, level or (m if d else 0)))
        runs = split
        step //= g
        place *= m
        fact_m //= m
    chars, levels = [], []
    for a, taken, level in runs:
        big = taken + place * a
        g = math.gcd(big, f)
        c = Character(big // g, f // g)
        chars.append(c)
        levels.append(level or _tower_level(c.q)[0])
    return chars, levels


def _standard_axis(r: int) -> list[Character]:
    """Z_r in the standard order: -(r-1)/r, ..., -1/r, 0."""
    axis = []
    for p in range(r - 1, -1, -1):
        g = math.gcd(p, r)
        axis.append(Character(p // g, r // g))
    return axis


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below PRIME_TEST_BOUND (Sorenson and Webster 2015: the least strong
# pseudoprime to all 13 bases).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_TEST_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Whether n is prime; ValueError for an n of PRIME_TEST_BOUND or more."""
    if n >= PRIME_TEST_BOUND:
        raise ValueError(
            f"prime_to must be below {PRIME_TEST_BOUND}, past which primality "
            f"is not decided exactly, got {n}"
        )
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def support_partition(chi: Sequence[Character]) -> frozenset[int]:
    """Indices (1-based) of the nonzero coordinates: the unique support set
    placing the vector in the disjoint decomposition by supports."""
    return frozenset(i + 1 for i, c in enumerate(chi) if not c.is_zero())
