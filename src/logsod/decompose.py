"""Additive-invariant decompositions over crossings complexes.

Values are opaque additive data keyed by stratum name: plain integers,
fixed-length integer vectors, or integer polynomials.  Every operation here
reduces to the same shape — a base value plus counted copies of stratum
values — with each count a closed form in the cyclic orders: the number of
nonzero characters on the stratum at the level or truncation, kept prime
to p, or corrected by fixed-locus copies.  Enumerating those characters
gives the same counts; the tests and selfcheck do so as an oracle.
"""

from __future__ import annotations

import math
import sys
from typing import Iterable, Iterator, Mapping, Optional, Union

from logsod import Record
from logsod.complexes import (
    FixedLocusData,
    NcComplex,
    SimplicialChart,
    SncComplex,
    _label_key,
    canonical_root_pair,
    fixed_locus_index,
    normalized_names,
    snc_of_simple,
    strictify_nc,
)
from logsod.errors import (
    MissingValue,
    ParseError,
    UnsupportedAction,
    UnsupportedConfiguration,
)
from logsod.orders import _checked_level, _is_prime, stage_level

__all__ = [
    "DecompositionReport",
    "InvariantAssignment",
    "ReportRow",
    "decompose_finite",
    "decompose_kfl",
    "decompose_nc",
    "decompose_simplicial_complexified",
    "etale_filter",
    "prime_to_part",
    "value_add",
    "value_scale",
]

Value = Union[int, tuple]

VALUE_SYSTEMS = ("int", "int_vector", "poly")

_set = object.__setattr__


def _normalize_value(system: str, v) -> Value:
    if system == "int":
        if isinstance(v, bool) or not isinstance(v, int):
            raise ValueError(f"int value expected, got {v!r}")
        return v
    entries = tuple(int(x) for x in v)
    if system == "int_vector":
        return entries
    while entries and entries[-1] == 0:
        entries = entries[:-1]
    return entries


def value_add(system: str, a: Value, b: Value) -> Value:
    if system == "int":
        return a + b
    if system == "int_vector":
        if len(a) != len(b):
            raise ValueError("vector values must share one length")
        return tuple(x + y for x, y in zip(a, b))
    width = max(len(a), len(b))
    padded = tuple(
        (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
        for i in range(width)
    )
    return _normalize_value("poly", padded)


def value_scale(system: str, k: int, a: Value) -> Value:
    if k < 0:
        raise ValueError("scaling must be by a non-negative integer")
    if system == "int":
        return k * a
    return _normalize_value(system, tuple(k * x for x in a))


def render_value(system: str, v: Value) -> str:
    if system == "int":
        return str(v)
    if system == "int_vector":
        return "(" + ",".join(str(x) for x in v) + ")"
    if not v:
        return "0"
    terms = []
    for i, c in enumerate(v):
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        elif i == 1:
            terms.append(f"{c}t" if c != 1 else "t")
        else:
            terms.append(f"{c}t^{i}" if c != 1 else f"t^{i}")
    return " + ".join(terms) if terms else "0"


class InvariantAssignment(Record):
    """Stratum-name-keyed values in one additive value system.

    The invariant tag ("K", "G", ...) only documents what the numbers mean;
    it is carried through to reports unchanged.
    """

    __slots__ = ("value_system", "values", "invariant")

    def __init__(self, value_system: str, values: Mapping[str, Value], invariant: str = "K") -> None:
        if value_system not in VALUE_SYSTEMS:
            raise ValueError(f"unknown value system {value_system!r}")
        normalized = {
            str(k): _normalize_value(value_system, v)
            for k, v in values.items()
        }
        if value_system == "int_vector" and normalized:
            widths = {len(v) for v in normalized.values()}
            if len(widths) > 1:
                raise ValueError("vector values must share one length")
        _set(self, "value_system", value_system)
        _set(self, "values", normalized)
        _set(self, "invariant", invariant)

    def value_of(self, key: str) -> Value:
        if key not in self.values:
            raise MissingValue(f"no value assigned to stratum {key!r}")
        return self.values[key]

    @classmethod
    def from_json(cls, data: dict) -> "InvariantAssignment":
        try:
            return cls(
                value_system=data["value_system"],
                values=dict(data["values"]),
                invariant=data.get("invariant", "K"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad assignment payload: {exc}") from exc

    def to_json(self) -> dict:
        out_values = {
            k: (v if self.value_system == "int" else list(v))
            for k, v in sorted(self.values.items())
        }
        return {
            "value_system": self.value_system,
            "values": out_values,
            "invariant": self.invariant,
        }


class ReportRow(Record):
    __slots__ = ("stratum", "count", "value", "contribution", "counting_function")

    def __init__(
        self,
        stratum: str,
        count: int,
        value: Value,
        contribution: Value,
        counting_function: Optional[str] = None,
    ) -> None:
        _set(self, "stratum", stratum)
        _set(self, "count", count)
        _set(self, "value", value)
        _set(self, "contribution", contribution)
        _set(self, "counting_function", counting_function)


class DecompositionReport(Record):
    __slots__ = (
        "kind", "value_system", "invariant", "base_value", "rows", "total",
        "level", "truncation", "notes",
    )

    def __init__(
        self,
        kind: str,
        value_system: str,
        invariant: str,
        base_value: Value,
        rows: tuple[ReportRow, ...],
        total: Value,
        level: Optional[tuple[int, ...]] = None,
        truncation: Optional[int] = None,
        notes: tuple[str, ...] = (),
    ) -> None:
        _set(self, "kind", kind)
        _set(self, "value_system", value_system)
        _set(self, "invariant", invariant)
        _set(self, "base_value", base_value)
        _set(self, "rows", rows)
        _set(self, "total", total)
        _set(self, "level", level)
        _set(self, "truncation", truncation)
        _set(self, "notes", notes)

    def _value_json(self, v: Value):
        return v if self.value_system == "int" else list(v)

    def to_json(self) -> dict:
        rows = []
        for r in self.rows:
            row = {
                "stratum": r.stratum,
                "count": r.count,
                "value": self._value_json(r.value),
                "contribution": self._value_json(r.contribution),
            }
            if r.counting_function is not None:
                row["counting_function"] = r.counting_function
            rows.append(row)
        out = {
            "kind": self.kind,
            "value_system": self.value_system,
            "invariant": self.invariant,
            "base": self._value_json(self.base_value),
            "rows": rows,
            "total": self._value_json(self.total),
            "notes": list(self.notes),
        }
        if self.level is not None:
            out["level"] = list(self.level)
        if self.truncation is not None:
            out["truncation"] = self.truncation
        return out

    def to_text(self) -> str:
        header = f"{self.kind} decomposition of {self.invariant} ({self.value_system})"
        if self.level is not None:
            header += f" at level {list(self.level)}"
        if self.truncation is not None:
            header += f", truncation {self.truncation}"
        cells = [("stratum", "count", "value", "contribution")]
        cells.append(("X", "1", render_value(self.value_system, self.base_value),
                      render_value(self.value_system, self.base_value)))
        for r in self.rows:
            count = str(r.count)
            if r.counting_function:
                count = f"{r.count} [{r.counting_function}]"
            cells.append((
                r.stratum,
                count,
                render_value(self.value_system, r.value),
                render_value(self.value_system, r.contribution),
            ))
        widths = [max(len(row[i]) for row in cells) for i in range(4)]
        lines = [header]
        for row in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        lines.append(f"total: {render_value(self.value_system, self.total)}")
        lines.extend(self.notes)
        return "\n".join(lines)


def _proper_strata(cx: SncComplex) -> list[frozenset]:
    return sorted((j for j in cx.nonempty if j), key=lambda j: (len(j), _label_key(j)))


def _assemble(
    kind: str, v: InvariantAssignment, rows: Iterable[tuple], **fields
) -> DecompositionReport:
    """Report of v(X) plus count * v(name) per (name, count, counting
    function) row.

    rows is consumed after v(X) is looked up and each count before its
    value, so a lazy iterable raises its errors in that order.
    """
    system = v.value_system
    base = v.value_of("X")
    total = base
    out = []
    for name, count, counting_function in rows:
        val = v.value_of(name)
        contrib = value_scale(system, count, val)
        total = value_add(system, total, contrib)
        out.append(ReportRow(name, count, val, contrib, counting_function))
    return DecompositionReport(kind, system, v.invariant, base, tuple(out), total, **fields)


def _check_digits(what: str, values: Iterable) -> None:
    """Refuse a report with an integer, alone or in a tuple, of more digits
    than Python writes (sys.get_int_max_str_digits()), before any of it is
    written."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    ints = (x for v in values for x in (v if isinstance(v, tuple) else (v,)))
    if limit and any(_over_digits(x, limit) for x in ints):
        raise _too_long(what, limit)


def _over_digits(x: int, limit: int) -> bool:
    """Whether x has more than limit > 0 digits: told by its bit length, as
    2**(3.32 * limit) < 10**limit < 2**(3.33 * limit), and by 10**limit only
    in between."""
    bits = x.bit_length()
    return bits > 3.32 * limit and (bits > 3.33 * limit + 1 or abs(x) >= 10 ** limit)


def _too_long(what: str, limit: int) -> ValueError:
    return ValueError(f"{what} is too large to report: its numbers have more than "
                      f"the {limit} digits an integer may have in the output")


def _stage_level(stage: int, k: int) -> tuple[int, ...]:
    """stage_level(stage, k), refused when n! has more digits than Python
    writes (sys.get_int_max_str_digits()), with n! computed only that far."""
    limit = getattr(sys, "get_int_max_str_digits", int)()
    if stage < 1 or not (limit and k):
        return stage_level(stage, k)
    fact = 1
    for n in range(2, stage + 1):
        fact *= n
        if _over_digits(fact, limit):
            raise _too_long(f"stage {stage}", limit)
    return (fact,) * k


def _stratum_products(
    cx: SncComplex, orders: tuple[int, ...], strata: Iterable[frozenset]
) -> Iterator[tuple[frozenset, int]]:
    """(J, prod_{j in J} (r_j - 1)) per stratum J, r_j the order of
    component j: the nonzero characters on J."""
    less_one = {c: r - 1 for c, r in zip(cx.components, orders)}
    for j in strata:
        yield j, math.prod(map(less_one.__getitem__, j))


def _product_report(
    kind: str, cx: SncComplex, v: InvariantAssignment, orders: tuple[int, ...],
    counting_function: Optional[str], **fields,
) -> DecompositionReport:
    """v(X) plus, per nonempty proper stratum J, prod_{j in J} (r_j - 1)
    copies of v(D_J).  "{size}" in counting_function stands for |J|."""
    return _assemble(kind, v, (
        (cx.stratum_name(j), count,
         counting_function and counting_function.format(size=len(j)))
        for j, count in _stratum_products(cx, orders, _proper_strata(cx))
    ), **fields)


def decompose_finite(
    cx: SncComplex, level: Iterable[int], v: InvariantAssignment
) -> DecompositionReport:
    """Finite-level splitting: v(X) plus, per nonempty stratum, the product
    of (r_j - 1) over its components, many copies of the stratum value."""
    level = _checked_level(level, len(cx.components))
    return _product_report(
        "finite", cx, v, level, None,
        level=level,
        notes=("total = v(X) + sum over nonempty strata of prod_j (r_j - 1) * v(D_J)",),
    )


def decompose_kfl(cx: SncComplex, v: InvariantAssignment, truncation: int) -> DecompositionReport:
    """Kummer-flat truncation: counting functions (n!-1)^|J| per stratum,
    evaluated at the given stage of the tower.  A stage whose n! has more
    digits than Python writes (sys.get_int_max_str_digits()) is refused."""
    level = _stage_level(truncation, len(cx.components))
    return _product_report(
        "kfl", cx, v, level, "(n!-1)^{size}",
        level=level,
        truncation=truncation,
        notes=(
            "untruncated: one copy of v(D_J) per nonzero character vector "
            "supported on J over Q/Z",
        ),
    )


def decompose_nc(
    nc: NcComplex, v: InvariantAssignment, truncation: int
) -> DecompositionReport:
    """Splitting of an nc pair through its strictification.

    Each nonempty stratum S of the strictified complex carries (n!-1)^|S|
    gerbe characters at stage n, and each counts once toward every
    normalized stratum of the original pair that S lies on
    (normalized_names).  The base contributes v(X) plus the blow-up copies
    of each center (codim - 1 per step).  The per-stratum multiplicities
    depend on the strictification order, which this package fixes, so they
    are reproducible here but not canonical.  A stage whose level n! has
    more digits than Python writes (sys.get_int_max_str_digits()) is
    refused after the strictification, before n! is computed in full.
    """
    simple, log = strictify_nc(nc)
    level = _stage_level(truncation, len(simple.components))
    snc = snc_of_simple(simple)
    mults: dict[str, int] = {}
    # In the factorial label order, of two strata the first labels of the
    # one holding the first component where they differ come first.  Walk
    # in that order so that an error names the stratum the labels reach
    # first.
    walk = sorted(
        (s for s in snc.nonempty if s),
        key=lambda s: tuple(c not in s for c in snc.components),
    )
    for s, count in _stratum_products(snc, level, walk):
        if not count:
            continue
        names = normalized_names(simple, s)
        if names is None:
            raise UnsupportedConfiguration(
                f"stratum {sorted(s, key=str)} has no crossing records "
                "to aggregate by"
            )
        for name, k in names:
            mults[name] = mults.get(name, 0) + k * count
    rows = [(step.stratum, step.codim - 1, "blow-up") for step in log.steps]
    rows += [(name, mults[name], None) for name in sorted(mults)]
    return _assemble(
        "nc",
        v,
        rows,
        level=level,
        truncation=truncation,
        notes=(
            "multiplicities are truncations induced by the fixed "
            "strictification and are construction-dependent",
        ),
    )


def decompose_simplicial_complexified(
    chart: SimplicialChart,
    fixed: FixedLocusData,
    g: InvariantAssignment,
    truncation: int,
) -> DecompositionReport:
    """Complexified splitting over a simplicial chart: each stratum of the
    canonical root pair is counted with its fixed-locus-corrected index."""
    snc, data = canonical_root_pair(chart)
    if fixed.components != data.components:
        raise UnsupportedAction(
            "fixed-locus data does not match the chart's canonical root pair"
        )
    return _assemble(
        "simplicial-complexified",
        g,
        (
            (
                snc.stratum_name(j),
                fixed_locus_index(fixed, j, truncation),
                "|Z*_S| + fixed-locus copies",
            )
            for j in _proper_strata(snc)
        ),
        truncation=truncation,
        notes=(
            "coefficient of S counts truncated characters on S plus one set "
            "per group element fixing S",
        ),
    )


def prime_to_part(r: int, p: int) -> int:
    """Largest divisor of r coprime to p."""
    if r < 1:
        raise ValueError("order must be positive")
    while r % p == 0:
        r //= p
    return r


def etale_filter(
    cx: SncComplex,
    v: InvariantAssignment,
    p: int,
    level: Optional[Iterable[int]] = None,
    truncation: Optional[int] = None,
) -> DecompositionReport:
    """Prime-to-p variant: counts keep only characters whose reduced
    denominators are coprime to p.  Those of Z_r are the r' characters of
    Z_{r'}, r' the prime-to-p part of r, so a stratum J counts
    prod_j (r_j' - 1).

    Exactly one of level and truncation must be given; a truncation n means
    the diagonal n! level with the same filter applied, refused as in
    decompose_kfl.  The orders are checked first, then the prime, then the
    values.
    """
    if (level is None) == (truncation is None):
        raise ValueError("give exactly one of level and truncation")
    k = len(cx.components)
    level = _checked_level(level, k) if truncation is None else _stage_level(truncation, k)
    if not _is_prime(p):
        raise ValueError(f"prime_to must be prime, got {p}")
    return _product_report(
        "etale", cx, v, tuple(prime_to_part(r, p) for r in level), f"prime-to-{p}",
        level=level,
        truncation=truncation,
        notes=(f"characters with denominator divisible by {p} are dropped",),
    )
