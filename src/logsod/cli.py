"""Command-line front end.

Scene files are JSON documents validated against the shipped schema; every
subcommand emits either the JSON contract (default) or an aligned text
rendering.  Exit codes: 0 success, 2 unparseable input, 3 domain error,
4 failed self-check.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import warnings
from collections.abc import Callable, Iterable, Iterator
from typing import TYPE_CHECKING

from logsod.errors import LogsodError, ParseError

# Library modules are imported by the commands that use them, and jsonschema
# only to word a rejection, so each process loads only what its command runs.
if TYPE_CHECKING:
    from logsod.complexes import SimplicialChart, SncComplex
    from logsod.decompose import InvariantAssignment
    from logsod.monoids import ToricMonoid
    from logsod.psod import PsodDescriptor

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_DOMAIN = 3
EXIT_SELFCHECK = 4

_EPILOG = (
    "Scene files are validated against the package's schemas/scene.schema.json. "
    "Pass '-' to read the scene from stdin. "
    "LOGSOD_SEEDLESS=1 (the default) forbids nondeterministic iteration order; "
    "this implementation is unconditionally deterministic, so the variable is "
    "accepted and has no further effect."
)


@functools.cache
def _scene_schema() -> dict:
    # pkgutil asks the package's loader, as importlib.resources does, so a
    # zipped install works too, without importing importlib.resources, which
    # costs milliseconds at start-up (and imports inspect on Python 3.12+).
    import pkgutil

    what = "cannot read the scene schema shipped with logsod"
    try:
        data = pkgutil.get_data("logsod", "schemas/scene.schema.json")
    except OSError as exc:
        raise ParseError(f"{what}: {exc}") from exc
    if data is None:
        raise ParseError(f"{what}: its package loader serves no data")
    return json.loads(data)


@functools.cache
def _scene_validator():
    # The shipped schema is package data, checked against its metaschema by
    # the tests rather than on every call as jsonschema.validate does.
    import jsonschema

    schema = _scene_schema()
    return jsonschema.validators.validator_for(schema)(schema)


def load_scene(path: str) -> dict:
    """Read and schema-validate a scene file ('-' reads stdin)."""
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ParseError(f"cannot read scene file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"scene is not valid JSON: {exc}") from exc
    from logsod.schemacheck import conforms

    if conforms(data, _scene_schema()):
        return data
    # conforms may reject what the schema allows (see logsod.schemacheck), so
    # jsonschema has the last word and words the error.
    from jsonschema.exceptions import best_match

    error = best_match(_scene_validator().iter_errors(data))
    if error is not None:
        where = "/".join(str(p) for p in error.absolute_path) or "top level"
        raise ParseError(f"scene fails schema validation at {where}: {error.message}") from error
    return _integral_floats_as_ints(data)


def _integral_floats_as_ints(data):
    """The scene with every float replaced by the int it equals: each number
    in the schema is an integer, which Draft 2020-12 lets 1.0 stand for."""
    if isinstance(data, float):
        return int(data)
    if isinstance(data, list):
        return [_integral_floats_as_ints(x) for x in data]
    if isinstance(data, dict):
        return {k: _integral_floats_as_ints(v) for k, v in data.items()}
    return data


def _build_monoid(data: dict) -> ToricMonoid:
    from logsod.monoids import ToricMonoid

    return ToricMonoid(data["rank"], tuple(tuple(g) for g in data["generators"]))


def _build_snc(data: dict) -> SncComplex:
    from logsod.complexes import snc_from_divisors

    return snc_from_divisors(data["components"], data["nonempty"], data.get("empty", ()))


def _build_chart(data: dict) -> SimplicialChart:
    from logsod.complexes import SimplicialChart

    return SimplicialChart(tuple(_build_monoid(c) for c in data["charts"]))


def _scene_assignment(data: dict) -> InvariantAssignment:
    from logsod.decompose import InvariantAssignment

    if "assignment" not in data:
        raise ParseError("scene carries no invariant assignment")
    return InvariantAssignment.from_json(data["assignment"])


def _check_assignment_keys(v: InvariantAssignment, cx: SncComplex) -> None:
    known = {cx.stratum_name(s) for s in cx.nonempty}
    unknown = sorted(set(v.values) - known)
    if unknown:
        raise ParseError(f"assignment references unknown strata: {', '.join(unknown)}")


def _level(args, data: dict) -> int | tuple[int, ...]:
    raw = _option(args, data, "level")
    if raw is None:
        raise ParseError("a level is required (--level or scene options)")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, (list, tuple)):
        return tuple(int(x) for x in raw)
    try:
        values = [int(p) for p in str(raw).split(",") if p.strip()]
    except ValueError as exc:
        raise ParseError(f"bad level {raw!r}: {exc}") from exc
    if not values:
        raise ParseError(f"bad level {raw!r}")
    return values[0] if len(values) == 1 else tuple(values)


def _option(args, data: dict, name: str):
    flag = getattr(args, name, None)
    if flag is not None:
        return flag
    return data.get("options", {}).get(name)


def _emit(args, json_chunks: Callable[[], Iterable[str]], to_text: Callable[[], str]) -> None:
    """Write the output in the format asked for, rendering only that format,
    to --output or stdout.

    The output file is opened here, once the command's work has succeeded,
    so a failed command leaves none behind.  JSON is written as it is
    encoded, chunk by chunk (see _psod_json).  A write that fails, on the
    file or on stdout (a closed pipe, a full disk), is a ParseError.
    """
    chunks = json_chunks() if args.format == "json" else (to_text(),)
    if not args.output:
        try:
            sys.stdout.writelines(_blocks(chunks))
            sys.stdout.write("\n")
            sys.stdout.flush()
        except OSError as exc:
            _discard_stdout()
            raise ParseError(f"cannot write output: {exc}") from exc
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
            fh.write("\n")
    except OSError as exc:
        raise ParseError(f"cannot write output file: {exc}") from exc


def _blocks(chunks: Iterable[str]) -> Iterator[str]:
    """The chunks joined into blocks of at least 64K characters (but the
    last), so that an unbuffered stdout (PYTHONUNBUFFERED) takes one write
    call per block rather than one per chunk."""
    block: list[str] = []
    length = 0
    for chunk in chunks:
        block.append(chunk)
        length += len(chunk)
        if length >= 1 << 16:
            yield "".join(block)
            block, length = [], 0
    yield "".join(block)


def _discard_stdout() -> None:
    """Point stdout's file descriptor at the null device, so that what is
    still buffered after a failed write does not fail again at exit, with an
    "Exception ignored" report."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _dumps(value, indent: str = "") -> str:
    """json.dumps(value, indent=2, ensure_ascii=False) for a value nested at
    the given indentation."""
    return json.dumps(value, indent=2, ensure_ascii=False).replace("\n", "\n" + indent)


def _vec(v) -> str:
    return "(" + ", ".join(str(x) for x in v) + ")"


def cmd_monoid(args) -> int:
    from logsod.intlinalg import rational_rank
    from logsod.monoids import extremal_rays, face_strata, indecomposables, is_saturated

    data = load_scene(args.scene)
    if data["kind"] != "monoid":
        raise ParseError("monoid command needs a monoid scene")
    m = _build_monoid(data)
    rays = extremal_rays(m)
    simplicial = rational_rank(rays) == len(rays)
    faces = face_strata(m)
    # before the saturation flag, so a cone with a line keeps this refusal
    indecomposable = indecomposables(m)
    payload = {
        "rank": m.ambient_rank,
        "generators": [list(g) for g in m.generators],
        "rays": [list(r) for r in rays],
        "simplicial": simplicial,
        "saturated": is_saturated(m),
        "indecomposables": [list(q) for q in indecomposable],
        "faces": [[list(r) for r in f] for f in faces.elements],
    }

    def text() -> str:
        return "\n".join([
            f"rank: {m.ambient_rank}",
            "generators: " + "; ".join(_vec(g) for g in m.generators),
            "rays: " + "; ".join(_vec(r) for r in rays),
            f"simplicial: {str(simplicial).lower()}",
            f"saturated: {str(payload['saturated']).lower()}",
            "indecomposables: " + "; ".join(_vec(q) for q in payload["indecomposables"]),
            f"faces: {len(faces.elements)}",
        ])

    _emit(args, lambda: (_dumps(payload),), text)
    return EXIT_OK


def cmd_kummer(args) -> int:
    from logsod.monoids import canonical_kummer_extension

    data = load_scene(args.scene)
    if data["kind"] != "monoid":
        raise ParseError("kummer command needs a monoid scene")
    ext = canonical_kummer_extension(_build_monoid(data))

    def text() -> str:
        return "\n".join([
            "basis: " + "; ".join(_vec(v) for v in ext.target_basis),
            "root orders: " + _vec(ext.root_orders),
            "quotient invariant factors: " + _vec(ext.quotient_invariant_factors),
            f"group order: {ext.group_order()}",
        ])

    _emit(args, lambda: (_dumps(ext.to_json()),), text)
    return EXIT_OK


def _psod_descriptor(data: dict, level, order: str):
    from logsod.complexes import nc_from_json
    from logsod.psod import psod_infinite, psod_nc, psod_simplicial, psod_snc

    kind = data["kind"]
    if kind == "snc":
        cx = _build_snc(data)
        if order == "standard":
            if isinstance(level, int):
                level = (level,) * len(cx.components)
            return psod_snc(cx, level, order="standard")
        if isinstance(level, int):
            return psod_infinite(cx, level)
        return psod_snc(cx, level, order="factorial")
    if kind == "nc":
        if not isinstance(level, int):
            raise ParseError("nc scenes take a single truncation stage as level")
        return psod_nc(nc_from_json(data), level)
    if kind == "chart":
        if not isinstance(level, int):
            raise ParseError("chart scenes take a single truncation stage as level")
        return psod_simplicial(_build_chart(data), level)
    raise ParseError("psod command needs an snc, nc, or chart scene")


def cmd_psod(args) -> int:
    data = load_scene(args.scene)
    level = _level(args, data)
    order = _option(args, data, "order") or "factorial"
    desc = _psod_descriptor(data, level, order)
    _emit(args, lambda: _psod_json(desc), lambda: _psod_text(desc))
    return EXIT_OK


def _psod_json(desc: PsodDescriptor) -> Iterator[str]:
    """The JSON of desc.to_json(), its labels written one at a time, each
    from the pieces of its stratum and its characters' integers.  A
    stratum's pieces are rendered once, from the component names rendered
    once: its labels' nonzero coordinates, in component order, name it, and
    its provenance, zero flag and normalized names follow from it."""
    names = [_dumps(c, "        ") for c in desc.components]
    pieces: dict = {}
    sep = "{\n  "
    for key, value in desc.json_outline().items():
        yield sep + _dumps(key) + ": "
        sep = ",\n  "
        if key != "labels":
            yield _dumps(value, "  ")
            continue
        item_sep = "[\n    "
        for lab in desc.iter_labels():
            shared = pieces.get(lab.stratum)
            if shared is None:
                on = ",\n        ".join([n for n, x in zip(names, lab.character) if x.p])
                zero = "true" if lab.zero else "false"
                tail = "\n    }"
                if lab.normalized is not None:
                    normalized = _dumps([[n, k] for n, k in lab.normalized], "      ")
                    tail = f',\n      "normalized": {normalized}{tail}'
                shared = pieces[lab.stratum] = (
                    '{\n      "stratum": '
                    + (f"[\n        {on}\n      ]" if lab.stratum else "[]")
                    + ',\n      "char": ',
                    f',\n      "provenance": "{lab.provenance}",\n      "zero": {zero}',
                    tail,
                )
            head, middle, tail = shared
            chars = ",\n        ".join(
                [f"[\n          {x.p},\n          {x.q}\n        ]" for x in lab.character])
            chars = f"[\n        {chars}\n      ]" if chars else "[]"
            level = "" if lab.first_level is None else f',\n      "first_level": {lab.first_level}'
            yield f"{item_sep}{head}{chars}{middle}{level}{tail}"
            item_sep = ",\n    "
        yield "[]" if item_sep == "[\n    " else "\n  ]"
    yield "\n}"


def _psod_text(desc: PsodDescriptor) -> str:
    names = [str(c) for c in desc.components]
    pieces: dict = {}
    lines = [
        f"order: {desc.order}; level: {_vec(desc.level)}"
        + (f"; truncation: {desc.truncation}" if desc.truncation else "")
    ]
    for i, lab in enumerate(desc.iter_labels(), start=1):
        stratum = pieces.get(lab.stratum)
        if stratum is None:
            on = ",".join([n for n, x in zip(names, lab.character) if x.p])
            stratum = pieces[lab.stratum] = (
                "  on " + ("{" + on + "}" if lab.stratum else "X")
                + ("  [zero]" if lab.zero else ""))
        chars = ", ".join([f"-{x.p}/{x.q}" if x.p else "0" for x in lab.character])
        level = "" if lab.first_level is None else f"  [level {lab.first_level}]"
        lines.append(f"{i:>4}. ({chars}){stratum}{level}")
    return "\n".join(lines)


def cmd_decompose(args) -> int:
    from logsod.complexes import canonical_root_pair, nc_from_json
    from logsod.decompose import (
        _check_digits, decompose_finite, decompose_nc, decompose_simplicial_complexified,
        etale_filter,
    )

    data = load_scene(args.scene)
    v = _scene_assignment(data)
    level = _level(args, data)
    prime = _option(args, data, "prime_to")
    kind = data["kind"]
    if prime is not None and kind in ("nc", "chart"):
        raise ParseError("the prime filter applies only to snc scenes")
    if kind == "snc":
        cx = _build_snc(data)
        _check_assignment_keys(v, cx)
        if isinstance(level, int):
            level = (level,) * len(cx.components)
        if prime is not None:
            report = etale_filter(cx, v, int(prime), level=level)
        else:
            report = decompose_finite(cx, level, v)
    elif kind == "nc":
        if not isinstance(level, int):
            raise ParseError("nc scenes take a single truncation stage as level")
        report = decompose_nc(nc_from_json(data), v, level)
    elif kind == "chart":
        if not isinstance(level, int):
            raise ParseError("chart scenes take a single cyclic order as level")
        chart = _build_chart(data)
        snc, fixed = canonical_root_pair(chart)
        _check_assignment_keys(v, snc)
        report = decompose_simplicial_complexified(chart, fixed, v, level)
    else:
        raise ParseError("decompose command needs an snc, nc, or chart scene")
    _check_digits(f"stage {report.truncation}" if report.truncation else "the level", [
        report.base_value, report.total, *(report.level or ()),
        *(x for r in report.rows for x in (r.count, r.value, r.contribution))])
    _emit(args, lambda: (_dumps(report.to_json()),), report.to_text)
    return EXIT_OK


def cmd_strictify(args) -> int:
    from logsod.complexes import nc_from_json, strictify

    data = load_scene(args.scene)
    if data["kind"] != "nc":
        raise ParseError("strictify command needs an nc scene")
    snc, log = strictify(nc_from_json(data))

    def text() -> str:
        lines = []
        for i, step in enumerate(log.steps, start=1):
            lines.append(
                f"step {i}: blow up {step.stratum} (codim {step.codim}) "
                f"-> {step.exceptional}"
            )
        if not log.steps:
            lines.append("already simple; no blow-ups")
        lines.append("components: " + ", ".join(str(c) for c in snc.components))
        lines.append(f"strata: {len(snc.nonempty) - 1}")
        return "\n".join(lines)

    _emit(args, lambda: (_dumps({"complex": snc.to_json(), "log": log.to_json()}),), text)
    return EXIT_OK


def cmd_selfcheck(args) -> int:
    from logsod.selfcheck import run_selfcheck

    report = run_selfcheck(args.exhaustive_level)
    _emit(args, lambda: (_dumps(report.to_json()),), report.to_text)
    return EXIT_OK if report.passed else EXIT_SELFCHECK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logsod",
        description="Exact index combinatorics of root stacks of log pairs.",
        epilog=_EPILOG,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scene=True):
        if scene:
            p.add_argument("scene", help="scene file path, or - for stdin")
        p.add_argument(
            "--format", choices=("json", "text"), default="json",
            help="output format (json is the contract; text is for reading)",
        )
        p.add_argument("--output", metavar="PATH", help="write output to a file")

    p = sub.add_parser("monoid", help="analyze a toric monoid")
    common(p)
    p.set_defaults(func=cmd_monoid)

    p = sub.add_parser("kummer", help="canonical minimal Kummer extension")
    common(p)
    p.set_defaults(func=cmd_kummer)

    p = sub.add_parser("psod", help="ordered factor listing for a complex")
    common(p)
    p.add_argument("--level", help="truncation stage, or comma-separated orders")
    p.add_argument("--order", choices=("standard", "factorial"))
    p.set_defaults(func=cmd_psod)

    p = sub.add_parser("decompose", help="additive-invariant decomposition")
    common(p)
    p.add_argument("--level", help="cyclic order(s) or truncation stage")
    p.add_argument("--prime-to", dest="prime_to", type=int, metavar="P",
                   help="keep only characters of order prime to P")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("strictify", help="resolve an nc complex to a simple one")
    common(p)
    p.set_defaults(func=cmd_strictify)

    p = sub.add_parser("selfcheck", help="run the built-in oracle suite")
    common(p, scene=False)
    p.add_argument("--exhaustive-level", type=int, default=4, metavar="N",
                   help="depth of the exhaustive searches (default 4)")
    p.set_defaults(func=cmd_selfcheck)

    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (LogsodError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (RecursionError, MemoryError) as exc:
        print(f"error: input exceeds this implementation's limits "
              f"({type(exc).__name__})", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
