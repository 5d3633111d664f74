"""Built-in verification suite.

Each check re-derives a library answer through a deliberately separate
brute-force route (fresh rational elimination, explicit interleaving,
closed-form counting) and compares.  Failures are report content, not
exceptions, so the suite can run as a single CI gate.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, product

from logsod import Record
from logsod.complexes import snc_from_divisors
from logsod.decompose import InvariantAssignment, decompose_finite
from logsod.monoids import ToricMonoid, canonical_kummer_extension, extremal_rays
from logsod.orders import Character, enumerate_characters, factorial_scalar_key
from logsod.psod import embedding_check

__all__ = ["CheckResult", "SelfcheckReport", "DEFAULT_CHECKS", "run_selfcheck"]

_set = object.__setattr__


class CheckResult(Record):
    __slots__ = ("name", "passed", "detail", "counterexamples")

    def __init__(self, name: str, passed: bool, detail: str, counterexamples: tuple = ()) -> None:
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "detail", detail)
        _set(self, "counterexamples", counterexamples)

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
            "counterexamples": [repr(c) for c in self.counterexamples],
        }


class SelfcheckReport(Record):
    __slots__ = ("level", "results")

    def __init__(self, level: int, results: tuple[CheckResult, ...]) -> None:
        _set(self, "level", level)
        _set(self, "results", results)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "passed": self.passed,
            "results": [r.to_json() for r in self.results],
        }

    def to_text(self) -> str:
        width = max(len(r.name) for r in self.results)
        lines = [f"selfcheck at exhaustive level {self.level}"]
        for r in self.results:
            status = "ok  " if r.passed else "FAIL"
            lines.append(f"{status} {r.name.ljust(width)}  {r.detail}")
            for c in r.counterexamples[:5]:
                lines.append(f"       counterexample: {c!r}")
        lines.append("all checks passed" if self.passed else "SELFCHECK FAILED")
        return "\n".join(lines)


# --- local exact linear algebra, kept separate from the production kernel ---


def _rref(rows):
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return m
    lead = 0
    for col in range(len(m[0])):
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


def _rank(rows) -> int:
    return sum(1 for r in _rref(rows) if any(x != 0 for x in r))


def _solve(a_rows, b):
    ncols = len(a_rows[0])
    red = _rref([list(r) + [bb] for r, bb in zip(a_rows, b)])
    sol = [Fraction(0)] * ncols
    for r in red:
        nz = next((j for j, x in enumerate(r) if x != 0), None)
        if nz is None:
            continue
        if nz == ncols:
            return None
        sol[nz] = r[ncols]
    return sol


def _null_direction(rows, dim):
    red = [r for r in _rref(rows) if any(x != 0 for x in r)]
    pivots = [next(j for j, x in enumerate(r) if x != 0) for r in red]
    free = [j for j in range(dim) if j not in pivots]
    if not free:
        return None
    vec = [Fraction(0)] * dim
    vec[free[0]] = Fraction(1)
    for r, p in zip(red, pivots):
        vec[p] = -r[free[0]]
    return vec


def _primitive(v) -> tuple[int, ...]:
    g = math.gcd(*[abs(x) for x in v])
    return tuple(x // g for x in v)


def _extremal_dirs_by_facets(gens):
    """Extremal directions found by enumerating supporting hyperplanes from
    generator subsets, working inside the span of the generators."""
    dirs = sorted({_primitive(g) for g in gens})
    r = _rank(gens)
    if r == 1:
        return dirs
    basis = [row for row in _rref(gens) if any(row)]
    coords = {
        d: _solve(
            [[basis[i][k] for i in range(r)] for k in range(len(d))],
            [Fraction(x) for x in d],
        )
        for d in dirs
    }
    facets = []
    for sub in combinations(dirs, r - 1):
        m = [coords[v] for v in sub]
        if _rank(m) != r - 1:
            continue
        normal = _null_direction(m, r)
        vals = [sum(n * c for n, c in zip(normal, coords[d])) for d in dirs]
        if all(v >= 0 for v in vals):
            facets.append(normal)
        elif all(v <= 0 for v in vals):
            facets.append([-x for x in normal])
    out = []
    for d in dirs:
        through = [
            f for f in facets if sum(a * b for a, b in zip(f, coords[d])) == 0
        ]
        if _rank(through) == r - 1:
            out.append(d)
    return out


def _contains_all(rays, generators, roots) -> bool:
    a_rows = [
        [Fraction(rays[j][d], roots[j]) for j in range(len(rays))]
        for d in range(len(rays[0]))
    ]
    for g in generators:
        sol = _solve(a_rows, [Fraction(x) for x in g])
        if sol is None or any(s.denominator != 1 or s < 0 for s in sol):
            return False
    return True


# --- fixtures -------------------------------------------------------------

MONOID_FIXTURES: tuple[tuple[str, ToricMonoid], ...] = (
    ("free-line", ToricMonoid(1, ((1,),))),
    ("doubled-line", ToricMonoid(1, ((2,),))),
    ("free-plane", ToricMonoid(2, ((1, 0), (0, 1)))),
    ("a1-surface", ToricMonoid(2, ((2, 0), (1, 1), (0, 2)))),
    ("third-chart", ToricMonoid(2, ((1, 0), (1, 1), (1, 2), (1, 3)))),
    ("quarter-chart", ToricMonoid(2, ((1, 0), (1, 1), (1, 2), (1, 3), (1, 4)))),
    ("fifth-chart", ToricMonoid(2, ((1, 0), (1, 1), (1, 2), (1, 3), (1, 4), (1, 5)))),
    ("skew-plane", ToricMonoid(2, ((3, 1), (1, 2)))),
    ("dented-quadrant", ToricMonoid(2, ((3, 0), (1, 1), (0, 3)))),
    ("free-space", ToricMonoid(3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)))),
    ("embedded-a1", ToricMonoid(3, ((2, 0, 0), (1, 1, 0), (0, 2, 0)))),
    ("a1-cylinder", ToricMonoid(3, ((2, 0, 0), (1, 1, 0), (0, 2, 0), (0, 0, 1)))),
)


def _single_divisor():
    return snc_from_divisors(("D",), [[], ["D"]])


def _two_divisors():
    return snc_from_divisors(("A", "B"), [[], ["A"], ["B"], ["A", "B"]])


def _three_divisors():
    return snc_from_divisors(
        (1, 2, 3), [[], [1], [2], [3], [1, 2], [1, 3], [2, 3], [1, 2, 3]]
    )


# --- the checks -----------------------------------------------------------


def _mod1(f: Fraction) -> Fraction:
    return f - math.ceil(f)


def _interleaving_chain(n: int) -> list[Fraction]:
    # fibers over the order-n quotient, lifted through -k/n -> -k/n! and
    # concatenated deepest first
    if n == 1:
        return [Fraction(0)]
    prev = _interleaving_chain(n - 1)
    out = []
    for k in range(n - 1, -1, -1):
        lift = Fraction(-k, math.factorial(n))
        out.extend(_mod1(lift + x) for x in prev)
    return out


def check_factorial_chain(level: int) -> CheckResult:
    bad = []
    top = min(max(level, 1), 6)
    for n in range(1, top + 1):
        fact = math.factorial(n)
        chars = [Character.of(Fraction(-k, fact)) for k in range(fact)]
        produced = [c.value for c in sorted(chars, key=factorial_scalar_key)]
        expected = _interleaving_chain(n)
        if produced != expected:
            idx = next(i for i, (a, b) in enumerate(zip(produced, expected)) if a != b)
            bad.append((n, idx, str(produced[idx]), str(expected[idx])))
    return CheckResult(
        "factorial-chain",
        not bad,
        f"interleaving construction matches sort up to stage {top}",
        tuple(bad),
    )


def check_extremal_rays(level: int) -> CheckResult:
    bad = []
    for name, m in MONOID_FIXTURES:
        produced = sorted({_primitive(r) for r in extremal_rays(m)})
        expected = sorted(_extremal_dirs_by_facets([list(g) for g in m.generators]))
        if produced != expected:
            bad.append((name, produced, expected))
    return CheckResult(
        "extremal-rays",
        not bad,
        f"facet enumeration agrees on {len(MONOID_FIXTURES)} fixtures",
        tuple(bad),
    )


def check_kummer_minimality(level: int) -> CheckResult:
    bad = []
    trials = 0
    for name, m in MONOID_FIXTURES:
        ext = canonical_kummer_extension(m)
        rays = [list(r) for r in ext.rays]
        gens = [list(g) for g in m.generators]
        if not _contains_all(rays, gens, list(ext.root_orders)):
            bad.append((name, "declared roots do not contain the monoid"))
            continue
        for j, c in enumerate(ext.root_orders):
            for smaller in range(1, c):
                if c % smaller:
                    continue
                trials += 1
                trial = list(ext.root_orders)
                trial[j] = smaller
                if _contains_all(rays, gens, trial):
                    bad.append((name, j, smaller))
    return CheckResult(
        "kummer-minimality",
        not bad,
        f"{trials} smaller root orders all fail containment",
        tuple(bad),
    )


def check_partition_identity(level: int) -> CheckResult:
    bad = []
    closed = 0
    top_size = min(max(level, 1) + 1, 5)
    for size in range(1, top_size + 1):
        for r in product(range(1, 7), repeat=size):
            total = 0
            for mask in range(1 << size):
                term = 1
                for j in range(size):
                    if mask >> j & 1:
                        term *= r[j] - 1
                total += term
            closed += 1
            if total != math.prod(r):
                bad.append(("closed", r, total, math.prod(r)))
    counted = 0
    for size in range(1, min(top_size, 3) + 1):
        for r in product(range(1, 7), repeat=size):
            total = 0
            for mask in range(1 << size):
                support = {j + 1 for j in range(size) if mask >> j & 1}
                total += len(enumerate_characters(r, support, star=True))
            counted += 1
            if total != math.prod(r):
                bad.append(("counted", r, total, math.prod(r)))
    return CheckResult(
        "partition-identity",
        not bad,
        f"{closed} closed-form and {counted} enumerated partitions balance",
        tuple(bad),
    )


def check_tower_embedding(level: int) -> CheckResult:
    bad = []
    runs = 0
    top = min(max(level, 2), 6)
    for cx in (_single_divisor(), _two_divisors(), _three_divisors()):
        for n in range(2, top + 1):
            report = embedding_check(cx, n)
            runs += 1
            if not report["passed"]:
                bad.append((len(cx.components), n, report["counterexamples"][:3]))
    return CheckResult(
        "tower-embedding",
        not bad,
        f"{runs} stage embeddings verified",
        tuple(bad),
    )


def check_twist_counts(level: int) -> CheckResult:
    bad = []
    cx = _single_divisor()
    v = InvariantAssignment("int", {"X": 2, "D_{D}": 1})
    top = max(12, level)
    for r in range(1, top + 1):
        twists = [f"O({k}/{r})" for k in range(r + 1)]
        total = decompose_finite(cx, (r,), v).total
        if total != len(twists):
            bad.append((r, total, len(twists)))
    return CheckResult(
        "twist-count",
        not bad,
        f"line-with-point ranks match twist lists for r <= {top}",
        tuple(bad),
    )


DEFAULT_CHECKS: tuple = (
    ("factorial-chain", check_factorial_chain),
    ("extremal-rays", check_extremal_rays),
    ("kummer-minimality", check_kummer_minimality),
    ("partition-identity", check_partition_identity),
    ("tower-embedding", check_tower_embedding),
    ("twist-count", check_twist_counts),
)


def run_selfcheck(level: int = 4, checks=None) -> SelfcheckReport:
    """Run the oracle suite at the given exhaustive level.

    `checks` may replace the default (name, callable) list; each callable
    receives the level and returns a CheckResult.  Results keep the listed
    order, so output is deterministic.
    """
    if level < 1:
        raise ValueError("exhaustive level must be a positive integer")
    chosen = DEFAULT_CHECKS if checks is None else tuple(checks)
    results = []
    for name, fn in chosen:
        result = fn(level)
        if result.name != name:
            result = CheckResult(name, result.passed, result.detail,
                                 result.counterexamples)
        results.append(result)
    return SelfcheckReport(level, tuple(results))
