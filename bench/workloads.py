"""The benchmark's three workloads.

A workload is a list of steps, each step one timed operation.  The seed
draws the order of the steps in every round, the invariant values of the
assignments and the order of monoid generators; the make-up of the inputs
is fixed, so every round does the same work.

Every step has a fingerprint, a small summary of its output that must be
the same each time the step runs, and a check against the reference
computations, run once per step after the timed loop.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle, product
from typing import Any, Callable, Optional

import inputs
import reference as ref
import tracing


@dataclass
class Step:
    name: str
    run: Callable[[], Any]
    fingerprint: Callable[[Any], Any]
    check: Callable[[Any], list]


def _label_row(lab) -> tuple:
    return (tuple((c.p, c.q) for c in lab.character), lab.stratum,
            lab.first_level, lab.zero, lab.normalized)


def _json_label_row(d: dict) -> tuple:
    norm = d.get("normalized")
    return (tuple(tuple(c) for c in d["char"]), frozenset(d["stratum"]), d.get("first_level"),
            d["zero"], None if norm is None else tuple(tuple(x) for x in norm))


def _draw_value(rng: random.Random, system: str):
    if system == "int":
        return rng.randint(-20, 99)
    if system == "int_vector":
        return tuple(rng.randint(-20, 99) for _ in range(3))
    return (rng.randint(-20, 99), rng.randint(-20, 99), rng.randint(1, 99))


def _assignment_json(system: str, values: dict) -> dict:
    return {"value_system": system,
            "values": {k: v if system == "int" else list(v) for k, v in values.items()}}


THREE_NAMES = ("X", "D_{1}", "D_{2}", "D_{3}", "D_{1,2}", "D_{1,3}", "D_{2,3}")
NODAL_NAMES = ("X", "N", "C", "E1", "N@1", "N@2")
A1_NAMES = ("X", "D_{R1}", "D_{R2}", "D_{R1,R2}")
def _a1_chart():
    from logsod.complexes import SimplicialChart
    from logsod.monoids import ToricMonoid

    return SimplicialChart((ToricMonoid(2, tuple(map(tuple, inputs.A1_CHART["charts"][0]["generators"]))),))


A1_MOVED = [frozenset("R" + str(j + 1) for j in s) for s in ref.moved_sets(
    inputs.CASES["readme"].rays, inputs.CASES["readme"].root_orders,
    inputs.CASES["readme"].generators)]


class Workload:
    """Steps, the fingerprints seen so far and the problems found.

    Steps call the program through its modules' attributes (psod.psod_nc,
    not a name imported from it), so the tracing wrappers reach them.
    """

    min_ops = 100
    in_children = False   # the work runs in child processes

    def __init__(self, seed: int, root: str) -> None:
        self.rng = random.Random(seed)
        self.root = root
        self.steps: list[Step] = []
        self.problems: list[str] = []
        self.tracer: Optional[tracing.Tracer] = None
        self._seen: dict[str, Any] = {}

    def setup(self) -> None:
        """Build the inputs and run one warm-up pass."""
        self.build()
        for step in self.steps:
            try:
                out = step.run()
            except Exception:  # the timed loop counts it as failed
                continue
            self.observe(step, out)

    def build(self) -> None:
        raise NotImplementedError

    def failed(self, step: Step, out) -> bool:
        return False

    def observe(self, step: Step, out) -> None:
        fp = step.fingerprint(out)
        if step.name not in self._seen:
            self._seen[step.name] = fp
        elif self._seen[step.name] != fp:
            self.problems.append(f"{step.name}: output changed between runs")

    def check(self) -> list[str]:
        """Run every step once more, outside the timed loop, and check each
        output against the reference computations."""
        for step in self.steps:
            try:
                out = step.run()
            except Exception as exc:  # reported as a problem, the other steps still run
                self.problems.append(f"{step.name}: raised {exc!r}")
                continue
            self.observe(step, out)
            self.problems += [f"{step.name}: {p}" for p in step.check(out)]
        return self.problems

    def trace(self, tracer: tracing.Tracer) -> None:
        self.tracer = tracer
        tracing.install(tracer)

    def close(self) -> None:
        pass


# --- decompose-counts --------------------------------------------------------------


def _report_parts(report) -> tuple:
    rows = [(r.stratum, r.count, r.value, r.contribution) for r in report.rows]
    return rows, report.base_value, report.total


class DecomposeCounts(Workload):
    """Counts by enumeration (etale_filter, decompose_nc, the fixed-locus
    index) with decompose_finite and decompose_kfl as closed-form controls,
    across the int, int_vector and poly value systems."""

    def build(self) -> None:
        from logsod import decompose as D
        from logsod.complexes import canonical_root_pair, nc_from_json, snc_from_divisors
        from logsod.decompose import InvariantAssignment

        systems = ("int", "int_vector", "poly")
        values = {}
        for scene, names in (("three", THREE_NAMES), ("nodal", NODAL_NAMES), ("a1", A1_NAMES)):
            for system in systems:
                values[scene, system] = {k: _draw_value(self.rng, system) for k in names}

        def assign(scene, system):
            return InvariantAssignment(system, dict(values[scene, system]))

        comps, nonempty = inputs.THREE_DIVISORS
        p2 = snc_from_divisors(comps, nonempty)
        nodal = nc_from_json(inputs.NODAL)
        chart = _a1_chart()
        _, fixed = canonical_root_pair(chart)
        # Per-call times scatter by a fifth or more within a run, so the
        # make-up places each percentile in the middle of a group of calls
        # rather than at the edge between two groups.  A round has 23 calls:
        # nine under 7 ms, four of 10-18 ms around the median (etale_filter
        # at level 120 with p = 2 and 5, decompose_nc at stage 4, the A1
        # chart at t = 24), and the heaviest call, etale_filter at level 720
        # with p = 5, in all three value systems for the 90th percentile.
        etale = [(24, 2, "int_vector"), (24, 3, "poly")] + [
            (level, p, systems[k % 3])
            for k, (level, p) in enumerate([*product((120, 720), (2, 3, 5)), (720, 5), (720, 5)])]
        for level, p, system in etale:
            self._step(f"etale_filter:{level}:p{p}:{system}",
                       lambda v, p=p, level=level: D.etale_filter(p2, v, p, level=(level,) * 3),
                       assign("three", system), values["three", system],
                       ref.etale_counts(comps, nonempty, (level,) * 3, p))
        for n, system in ((4, "poly"), (5, "int"), (5, "int_vector")):
            self._step(f"decompose_nc:nodal:{n}:{system}", lambda v, n=n: D.decompose_nc(nodal, v, n),
                       assign("nodal", system), values["nodal", system], ref.nodal_counts(n))
        for t, system in ((6, "int"), (24, "int_vector"), (60, "poly"), (120, "int")):
            self._step(f"decompose_simplicial_complexified:a1:{t}:{system}",
                       lambda v, t=t: D.decompose_simplicial_complexified(chart, fixed, v, t),
                       assign("a1", system), values["a1", system],
                       ref.fixed_locus_counts(("R1", "R2"), A1_MOVED, t))
        for system in systems:
            self._step(f"decompose_finite:{system}", lambda v: D.decompose_finite(p2, (5, 7, 12), v),
                       assign("three", system), values["three", system],
                       ref.finite_counts(comps, nonempty, (5, 7, 12)))
            self._step(f"decompose_kfl:{system}", lambda v: D.decompose_kfl(p2, v, 5),
                       assign("three", system), values["three", system],
                       ref.kfl_counts(comps, nonempty, 5))

    def _step(self, name, call, assignment, values, counts) -> None:
        system = assignment.value_system

        def check(report):
            rows, base, total = _report_parts(report)
            return ref.check_report(rows, base, total, counts, values, system)

        self.steps.append(Step(name, lambda: call(assignment),
                               lambda r: (r.total, tuple((x.stratum, x.count) for x in r.rows)), check))


# --- monoid-library ------------------------------------------------------------------


def _freeze(x):
    if isinstance(x, (list, tuple)):
        return tuple(_freeze(y) for y in x)
    if isinstance(x, (set, frozenset)):
        return frozenset(_freeze(y) for y in x)
    return x


class MonoidLibrary(Workload):
    """The analysis behind `logsod monoid`, canonical_kummer_extension and
    canonical_root_pair over the monoid library."""

    ORDERS = 8

    def build(self) -> None:
        from logsod import complexes as C, monoids as M

        for case in inputs.MONOID_LIBRARY:
            # The work of the LPs depends on the generator order, so each
            # call takes the next of several seeded orders: a run then
            # averages over orders instead of resting on one.
            pool = []
            for _ in range(self.ORDERS):
                gens = list(case.generators)
                self.rng.shuffle(gens)
                pool.append(M.ToricMonoid(len(gens[0]), tuple(gens)))
            simplicial = ref.rank(case.rays) == len(case.rays)
            ops = (
                ("extremal_rays", lambda m: M.extremal_rays(m), _freeze,
                 lambda out, case=case: ref.check_rays(case, out)),
                ("is_simplicial", lambda m: M.is_simplicial(m), _freeze,
                 lambda out, s=simplicial: [] if out is s else [f"simplicial {out}"]),
                ("face_strata", lambda m: M.face_strata(m), lambda p: _freeze(p.elements),
                 lambda out, case=case: ref.check_faces(case, out.elements)),
                # every library monoid is toric, hence saturated
                ("is_saturated", lambda m: M.is_saturated(m), _freeze,
                 lambda out: [] if out is True else ["reported unsaturated"]),
                ("indecomposables", lambda m: M.indecomposables(m), _freeze,
                 lambda out, case=case: ref.check_indecomposables(case, out)),
                ("canonical_kummer_extension", lambda m: M.canonical_kummer_extension(m),
                 lambda e: (e.target_basis, e.root_orders, e.quotient_invariant_factors),
                 lambda e, case=case: ref.check_kummer(case, e.target_basis, e.root_orders,
                                                       e.quotient_invariant_factors)
                 + ([] if sorted(e.source.generators) == sorted(case.generators) else ["source changed"])),
                ("canonical_root_pair", lambda m: C.canonical_root_pair(C.SimplicialChart((m,))),
                 lambda out: (out[0].components, out[0].nonempty, out[1].fixed_components),
                 lambda out, case=case: ref.check_root_pair(
                     case, out[0].components, out[0].nonempty, out[1].group_order(),
                     [moved for _, moved in out[1].fixed_components])),
            )
            for op, fn, fp, check in ops:
                self.steps.append(Step(f"{op}:{case.name}", lambda fn=fn, orders=cycle(pool): fn(next(orders)),
                                       fp, check))


# --- cli-corpus ----------------------------------------------------------------------


@dataclass
class Call:
    name: str
    argv: list
    expect: tuple           # acceptable exit codes
    check: Callable         # check(result, outputs) -> list[str]


class CliCorpus(Workload):
    """Fresh `python -m logsod.cli` processes, one at a time, over the README
    scenes and small monoid and chart scenes, in json and text formats.

    The first round's outputs are kept and checked after the timed loop;
    later rounds must reproduce them byte for byte.  A call fails when its
    exit code is outside {0, 2, 3} or its stderr shows a traceback.
    """

    in_children = True
    WARM_UP = ("monoid:readme:json", "kummer:readme:json", "psod:line:3:json",
               "decompose:three:5:json", "strictify:nodal:json", "selfcheck:2:json")

    def build(self) -> None:
        self.dir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(self.root, "bench", "results"))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.first: dict[str, tuple] = {}
        self.scenes: dict[str, str] = {}
        self.values: dict[str, dict] = {}
        self.trace_n = 0
        for case in (inputs.CASES["readme"], inputs.CASES["third-chart"], inputs.CASES["doubled-simplex"],
                     inputs.SQUARE_CONE):
            gens = [list(g) for g in case.generators]
            self.rng.shuffle(gens)
            self._scene(case.name, {"kind": "monoid", "rank": len(gens[0]), "generators": gens})
        # fixed, not drawn: this call fails on every seed the same way
        self._scene("deep-line", {"kind": "monoid", "rank": 1, "generators": [[1], [3000]]})
        for key, base, names, system in (
            ("line", {"kind": "snc", "components": ["D"], "nonempty": [[], ["D"]]}, ("X", "D_{D}"), "int"),
            ("three", {"kind": "snc", "components": [1, 2, 3], "nonempty": inputs.THREE_DIVISORS[1]},
             THREE_NAMES, "int"),
            ("nodal", inputs.NODAL, NODAL_NAMES, "int_vector"),
            ("chart", inputs.A1_CHART, A1_NAMES, "poly"),
        ):
            vals = {k: _draw_value(self.rng, system) for k in names}
            self.values[key] = (system, vals)
            self._scene(key, dict(base, assignment=_assignment_json(system, vals)))
        self._scene("two-node", inputs.TWO_NODE)
        self.calls = _corpus(self)
        self.steps = [Step(c.name, lambda c=c: self._run(c), _cli_fingerprint, None) for c in self.calls]
        self.by_name = {c.name: c for c in self.calls}

    def setup(self) -> None:
        self.build()
        for name in self.WARM_UP:
            self._run(self.by_name[name])

    def _scene(self, name: str, scene: dict) -> None:
        path = os.path.join(self.dir, name + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scene, fh)
        self.scenes[name] = path

    def _run(self, call: Call) -> tuple:
        if self.tracer is None:
            cmd = [sys.executable, "-m", "logsod.cli", *call.argv]
            trace_out = None
        else:
            self.trace_n += 1
            trace_out = os.path.join(self.dir, f"trace-{self.trace_n}.json")
            cmd = [sys.executable, os.path.join(self.root, "bench", "cli_shim.py"), trace_out, *call.argv]
        proc = subprocess.run(cmd, capture_output=True, env=self.env, cwd=self.root)
        return proc.returncode, proc.stdout, proc.stderr, trace_out

    def failed(self, step: Step, out) -> bool:
        return out[0] not in (0, 2, 3) or b"Traceback (most recent call last)" in out[2]

    def observe(self, step: Step, out) -> None:
        if out[3] is not None:
            with open(out[3], encoding="utf-8") as fh:
                child = json.load(fh)
            os.remove(out[3])
            self.tracer.add("cli.calls", 1)
            self.tracer.add("cli.emit_bytes", len(out[1]))
            tracing.merge(self.tracer, child, self.tracer.last_op)
        self.first.setdefault(step.name, out[:3])
        super().observe(step, out)

    def check(self) -> list[str]:
        for call in self.calls:
            if call.name not in self.first:
                self.problems.append(f"{call.name}: never ran")
                continue
            code, stdout, stderr = self.first[call.name]
            if self.failed(None, (code, stdout, stderr)):
                continue
            if code not in call.expect:
                self.problems.append(f"{call.name}: exit {code}, expected {call.expect}")
                continue
            try:
                bad = call.check((code, stdout.decode(), stderr.decode()), self)
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                bad = [f"output does not parse: {exc!r}"]
            self.problems += [f"{call.name}: {p}" for p in bad]
        return self.problems

    def trace(self, tracer: tracing.Tracer) -> None:
        self.tracer = tracer

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)

    def text_of(self, name: str) -> str:
        return self.first[name][1].decode()


def _cli_fingerprint(out) -> tuple:
    return out[0], hashlib.blake2b(out[1]).digest(), b"Traceback" in out[2]


def _corpus(wl: CliCorpus) -> list[Call]:
    s = wl.scenes
    calls = []

    def add(name, argv, check, expect=(0,)):
        calls.append(Call(name, argv, expect, check))

    for case, formats in ((inputs.CASES["readme"], ("json", "text")), (inputs.CASES["third-chart"], ("json",)),
                          (inputs.CASES["doubled-simplex"], ("json",)), (inputs.SQUARE_CONE, ("json",))):
        for fmt in formats:
            add(f"monoid:{case.name}:{fmt}", ["monoid", s[case.name], "--format", fmt],
                lambda r, w, case=case, fmt=fmt: _check_monoid(r, w, case, fmt))
    for case, fmt in ((inputs.CASES["readme"], "json"), (inputs.CASES["readme"], "text"),
                      (inputs.CASES["third-chart"], "json"), (inputs.CASES["doubled-simplex"], "text")):
        add(f"kummer:{case.name}:{fmt}", ["kummer", s[case.name], "--format", fmt],
            lambda r, w, case=case, fmt=fmt: _check_kummer(r, case, fmt))
    add("kummer:square-cone:json", ["kummer", s["square-cone"]], _check_error, expect=(3,))
    # Exit 0 with the right answer, or 3 as a stated refusal, is acceptable.
    add("monoid:deep-line:json", ["monoid", s["deep-line"]],
        lambda r, w: _check_monoid(r, w, inputs.DEEP_LINE, "json") if r[0] == 0 else _check_error(r, w),
        expect=(0, 3))
    add("kummer:deep-line:json", ["kummer", s["deep-line"]],
        lambda r, w: _check_kummer(r, inputs.DEEP_LINE, "json") if r[0] == 0 else _check_error(r, w),
        expect=(0, 3))

    towers = {
        "line": (("D",), [[], ["D"]], None),
        "three": ((1, 2, 3), inputs.THREE_DIVISORS[1], None),
        "nodal": (inputs.NC_STRICT["nodal"]["components"], inputs.NC_STRICT["nodal"]["nonempty"],
                  inputs.NC_STRICT["nodal"]["normalized"]),
        "two-node": (inputs.NC_STRICT["two-node"]["components"], inputs.NC_STRICT["two-node"]["nonempty"],
                     inputs.NC_STRICT["two-node"]["normalized"]),
        "chart": (("R1", "R2"), [[], ["R1"], ["R2"], ["R1", "R2"]], None),
    }
    for key, n, fmt in (("line", 3, "json"), ("line", 3, "text"), ("line", 7, "json"), ("line", 7, "text"),
                        ("three", 2, "json"), ("three", 4, "json"), ("nodal", 3, "json"), ("nodal", 3, "text"),
                        ("two-node", 2, "json"), ("chart", 3, "json")):
        add(f"psod:{key}:{n}:{fmt}", ["psod", s[key], "--level", str(n), "--format", fmt],
            lambda r, w, key=key, n=n, fmt=fmt: _check_psod(r, w, key, n, fmt, towers[key]))
    add("psod:three:2,3,2:standard:json", ["psod", s["three"], "--level", "2,3,2", "--order", "standard"],
        lambda r, w: ref.check_standard(
            [tuple(tuple(c) for c in lab["char"]) for lab in json.loads(r[1])["labels"]], (2, 3, 2)))

    comps, nonempty = inputs.THREE_DIVISORS
    reports = {
        ("line", 5): ref.finite_counts(("D",), [[], ["D"]], (5,)),
        ("three", 5): ref.finite_counts(comps, nonempty, (5, 5, 5)),
        ("three", 6, 2): ref.etale_counts(comps, nonempty, (6, 6, 6), 2),
        ("nodal", 3): ref.nodal_counts(3),
        ("chart", 6): ref.fixed_locus_counts(("R1", "R2"), A1_MOVED, 6),
    }
    for key, fmt, extra in ((("line", 5), "text", []), (("three", 5), "json", []), (("three", 5), "text", []),
                            (("three", 6, 2), "json", ["--prime-to", "2"]), (("nodal", 3), "json", []),
                            (("nodal", 3), "text", []), (("chart", 6), "json", [])):
        name = ":".join(map(str, key))
        add(f"decompose:{name}:{fmt}",
            ["decompose", s[key[0]], "--level", str(key[1]), *extra, "--format", fmt],
            lambda r, w, key=key, fmt=fmt: _check_decompose(r, w, key[0], reports[key], fmt))
    add("decompose:two-node:3:json", ["decompose", s["two-node"], "--level", "3"], _check_error, expect=(2,))

    add("strictify:nodal:json", ["strictify", s["nodal"]], lambda r, w: _check_strictify(r, "nodal", "json"))
    add("strictify:two-node:text", ["strictify", s["two-node"], "--format", "text"],
        lambda r, w: _check_strictify(r, "two-node", "text"))
    add("selfcheck:2:json", ["selfcheck", "--exhaustive-level", "2"], _check_selfcheck)
    return calls


def _check_error(r, w) -> list[str]:
    return [] if r[2].startswith("error: ") and not r[1] else [f"unexpected error output {r[2][:80]!r}"]


def _vec(text: str) -> list[tuple]:
    """Parse '(0, 2); (2, 0)' into tuples of Fractions."""
    out = []
    for part in text.split(";"):
        part = part.strip().strip("()")
        if part:
            out.append(tuple(Fraction(x.strip()) for x in part.split(",")))
    return out


def _text_fields(text: str) -> dict:
    return dict(line.split(": ", 1) for line in text.splitlines() if ": " in line)


def _check_monoid(r, w, case, fmt) -> list[str]:
    if fmt == "text":
        f = _text_fields(r[1])
        d = json.loads(w.text_of(f"monoid:{case.name}:json"))
        agree = (_vec(f["rays"]) == [tuple(x) for x in d["rays"]]
                 and _vec(f["indecomposables"]) == [tuple(x) for x in d["indecomposables"]]
                 and _vec(f["generators"]) == [tuple(x) for x in d["generators"]]
                 and f["simplicial"] == str(d["simplicial"]).lower()
                 and f["saturated"] == str(d["saturated"]).lower()
                 and int(f["faces"]) == len(d["faces"]) and int(f["rank"]) == d["rank"])
        return [] if agree else ["text and json renderings disagree"]
    d = json.loads(r[1])
    bad = ref.check_rays(case, d["rays"]) + ref.check_indecomposables(case, d["indecomposables"])
    bad += ref.check_faces(case, [tuple(map(tuple, f)) for f in d["faces"]])
    if d["simplicial"] != (ref.rank(case.rays) == len(case.rays)):
        bad.append(f"simplicial {d['simplicial']}")
    if d["saturated"] is not True:
        bad.append("reported unsaturated")
    if sorted(map(tuple, d["generators"])) != sorted(case.generators):
        bad.append("generators changed")
    return bad


def _check_kummer(r, case, fmt) -> list[str]:
    if fmt == "text":
        f = _text_fields(r[1])
        basis = _vec(f["basis"])
        orders = [int(x) for x in _vec(f["root orders"])[0]]
        factors = [int(x) for x in (_vec(f["quotient invariant factors"]) or [()])[0]]
        bad = [] if int(f["group order"]) == math.prod(factors) else ["group order is not the quotient order"]
        return bad + ref.check_kummer(case, basis, orders, factors)
    d = json.loads(r[1])
    basis = [tuple(Fraction(p, q) for p, q in v) for v in d["target_basis"]]
    return ref.check_kummer(case, basis, d["root_orders"], d["quotient_invariant_factors"])


def _text_label_rows(text: str) -> list[tuple]:
    # "   1. (-5/6, 0)  on {D}  [zero]  [level 3]"
    rows = []
    for line in text.splitlines()[1:]:
        head, rest = line.split(". ", 1)
        chars, rest = rest[1:].split(")  on ", 1)
        where, *flags = rest.split("  ")
        stratum = frozenset() if where == "X" else frozenset(where[1:-1].split(","))
        level = next((int(x[7:-1]) for x in flags if x.startswith("[level ")), None)
        rows.append((tuple(ref.pair(Fraction(x)) for x in chars.split(", ")), stratum, level,
                     "[zero]" in flags, None))
    return rows


def _check_psod(r, w, key, n, fmt, tower) -> list[str]:
    comps, nonempty, normalized = tower
    if fmt == "text":
        rows = _text_label_rows(r[1])
        json_rows = [_json_label_row(x) for x in json.loads(w.text_of(f"psod:{key}:{n}:json"))["labels"]]
        as_text = [(c, frozenset(map(str, s)), lvl, z, None) for c, s, lvl, z, _ in json_rows]
        bad = [] if rows == as_text else ["text and json renderings disagree"]
        str_comps = tuple(map(str, comps))
        return bad + ref.check_tower(rows, str_comps, n, [[str(c) for c in s] for s in nonempty])
    d = json.loads(r[1])
    bad = ref.check_tower([_json_label_row(x) for x in d["labels"]], tuple(comps), n, nonempty, normalized)
    if d["truncation"] != n or d["level"] != [math.factorial(n)] * len(comps):
        bad.append("descriptor header is wrong")
    return bad


def _check_decompose(r, w, scene, counts, fmt) -> list[str]:
    system, values = w.values[scene]
    if fmt == "text":
        lines = r[1].splitlines()
        rows = {}
        for line in lines[3:]:
            if line.startswith("total: "):
                break
            cells = line.split()
            rows[cells[0]] = int(cells[1])
        total = next(line[7:] for line in lines if line.startswith("total: "))
        expected_total = values["X"]
        for k, c in counts.items():
            expected_total = ref.v_add(system, expected_total, ref.v_scale(system, c, values[k]))
        rendered = str(expected_total) if system == "int" else "(" + ",".join(map(str, expected_total)) + ")"
        bad = [] if rows == counts else [f"text counts {rows} != {counts}"]
        return bad + ([] if total == rendered else [f"text total {total} != {rendered}"])
    d = json.loads(r[1])

    def val(v):
        return v if system == "int" else tuple(v)

    rows = [(x["stratum"], x["count"], val(x["value"]), val(x["contribution"])) for x in d["rows"]]
    return ref.check_report(rows, val(d["base"]), val(d["total"]), counts, values, system)


def _check_strictify(r, key, fmt) -> list[str]:
    strict = inputs.NC_STRICT[key]
    steps = len(strict["base_breakdown"])
    if fmt == "text":
        f = _text_fields(r[1])
        ok = (f["components"] == ", ".join(strict["components"])
              and int(f["strata"]) == len(strict["nonempty"]) - 1
              and sum(line.startswith("step ") for line in r[1].splitlines()) == steps)
        return [] if ok else ["strictified complex is wrong"]
    d = json.loads(r[1])
    ok = (tuple(d["complex"]["components"]) == strict["components"]
          and sorted(map(sorted, d["complex"]["nonempty"])) == sorted(map(sorted, strict["nonempty"]))
          and tuple((s["stratum"], s["codim"] - 1) for s in d["log"]) == strict["base_breakdown"])
    return [] if ok else ["strictified complex is wrong"]


def _check_selfcheck(r, w) -> list[str]:
    d = json.loads(r[1])
    ok = d["passed"] is True and d["level"] == 2 and len(d["results"]) == 6 and all(
        x["passed"] for x in d["results"])
    return [] if ok else ["selfcheck did not pass"]


WORKLOADS = {
    "cli-corpus": CliCorpus,
    "decompose-counts": DecomposeCounts,
    "monoid-library": MonoidLibrary,
}
