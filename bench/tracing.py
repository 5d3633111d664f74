"""In-memory spans and counters around the public functions of logsod.

The benchmark installs these wrappers itself; the program's source is not
touched.  A wrapper replaces every module-level binding of the original
function in the loaded logsod modules, so a function that other modules
import by name (enumerate_characters is imported by psod, decompose and
complexes) is traced wherever it is called from.

Every call adds to its function's call count and self time (its span less
the spans of traced calls beneath it).  Spans (id, parent, name, start,
end) are kept in memory for every call except those of the per-element
order functions (sort keys and comparators, called once per character
vector), which are counted but not stored; MAX_SPANS bounds the rest.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

MAX_SPANS = 200_000
PER_ELEMENT = {"orders.factorial_vector_key", "orders.factorial_scalar_key",
               "orders.cmp_factorial_vector", "orders.vector_first_level"}

# (module, attribute) of every wrapped public function, by layer.
TARGETS = (
    ("orders", "enumerate_characters"),
    ("orders", "factorial_vector_key"),
    ("orders", "factorial_scalar_key"),
    ("orders", "cmp_factorial_vector"),
    ("orders", "vector_first_level"),
    ("psod", "psod_snc"),
    ("psod", "psod_infinite"),
    ("psod", "psod_nc"),
    ("psod", "psod_simplicial"),
    ("psod", "embedding_check"),
    ("psod", "PsodDescriptor.to_json"),
    ("decompose", "etale_filter"),
    ("decompose", "decompose_nc"),
    ("decompose", "decompose_simplicial_complexified"),
    ("decompose", "decompose_finite"),
    ("decompose", "decompose_kfl"),
    ("complexes", "fixed_locus_index"),
    ("complexes", "canonical_root_pair"),
    ("complexes", "strictify_nc"),
    ("complexes", "snc_from_divisors"),
    ("monoids", "contains"),
    ("monoids", "indecomposables"),
    ("monoids", "is_saturated"),
    ("monoids", "extremal_rays"),
    ("monoids", "face_strata"),
    ("monoids", "canonical_kummer_extension"),
    ("monoids", "is_sharp"),
    ("monoids", "group_lattice"),
    ("intlinalg", "feasible_nonneg"),
    ("intlinalg", "hermite_row_basis"),
    ("intlinalg", "in_row_span"),
    ("intlinalg", "smith_normal_form"),
    ("intlinalg", "solve_linear"),
    ("intlinalg", "rational_rank"),
)

# CLI phases, each traced as one span name (self time per CLI call).
CLI_TARGETS = (
    ("cli.load_scene", "logsod.cli", "load_scene"),
    ("cli.emit", "logsod.cli", "_emit"),
    ("cli.validate", "jsonschema", "validate"),
) + tuple(
    ("cli.compute", "logsod.cli", f"cmd_{c}")
    for c in ("monoid", "kummer", "psod", "decompose", "strictify", "selfcheck")
)

_LABEL_BUILDERS = {"psod.psod_snc", "psod.psod_infinite", "psod.psod_nc"}


class Tracer:
    """Spans, per-function call counts and self times, and work counters."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.dropped = 0
        self.stats: dict[str, list] = {}
        self.extras: dict[str, float] = {}
        self._stack: list[list] = []
        self._next = 0
        self._decompose_depth = 0
        self.last_op = None

    def add(self, name: str, k: float) -> None:
        self.extras[name] = self.extras.get(name, 0) + k

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0])
        stack = self._stack
        in_decompose = name.startswith("decompose.")
        store = name not in PER_ELEMENT
        hook = _hook_for(self, name)

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1][0] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            if in_decompose:
                self._decompose_depth += 1
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if in_decompose:
                    self._decompose_depth -= 1
                took = end - start
                stats[0] += 1
                stats[1] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if store and len(self.spans) < MAX_SPANS:
                    self.spans.append((sid, parent, name, start, end))
                else:
                    self.dropped += 1
            if hook is not None:
                hook(out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def op(self, name: str, fn):
        """Run one benchmark operation under a root span of its own."""
        self.last_op = self._next
        return self.wrap(f"op.{name}", fn)()


def _hook_for(tracer: Tracer, name: str):
    if name == "orders.enumerate_characters":
        def hook(out):
            tracer.add("orders.chars_enumerated", len(out))
            if tracer._decompose_depth:
                tracer.add("decompose.materialized", len(out))
        return hook
    if name in _LABEL_BUILDERS:
        def hook(out):
            tracer.add("psod.labels_built", len(out.labels))
            if tracer._decompose_depth:
                tracer.add("decompose.materialized", len(out.labels))
        return hook
    if name.startswith("decompose."):
        def hook(out):
            tracer.add("decompose.rows", len(out.rows))
            tracer.add("decompose.row_count_sum", sum(r.count for r in out.rows))
        return hook
    return None


def _rebind(original, wrapper) -> None:
    # Replace every module-level binding of the original in logsod modules.
    for modname, mod in list(sys.modules.items()):
        if modname == "logsod" or modname.startswith("logsod."):
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapper)


def install(tracer: Tracer, cli: bool = False) -> None:
    """Wrap every function in TARGETS (and CLI_TARGETS when cli is set)."""
    for modname, attr in TARGETS:
        mod = importlib.import_module(f"logsod.{modname}")
        name = f"{modname}.{attr}"
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name)
            setattr(cls, meth, tracer.wrap(name, getattr(cls, meth)))
            continue
        original = getattr(mod, attr)
        _rebind(original, tracer.wrap(name, original))
    if cli:
        for name, modname, attr in CLI_TARGETS:
            mod = importlib.import_module(modname)
            original = getattr(mod, attr)
            wrapper = tracer.wrap(name, original)
            setattr(mod, attr, wrapper)
            _rebind(original, wrapper)


def merge(tracer: Tracer, child: dict, parent_id) -> None:
    """Fold a child process's trace into this one, under span parent_id."""
    for name, (calls, self_s) in child["stats"].items():
        entry = tracer.stats.setdefault(name, [0, 0.0])
        entry[0] += calls
        entry[1] += self_s
    for name, k in child["extras"].items():
        tracer.add(name, k)
    base = tracer._next
    tracer._next += child["next"]
    tracer.dropped += child["dropped"]
    for sid, parent, name, start, end in child["spans"]:
        if len(tracer.spans) >= MAX_SPANS:
            tracer.dropped += 1
            continue
        tracer.spans.append((base + sid, parent_id if parent is None else base + parent,
                             name, start, end))


def dump(tracer: Tracer) -> dict:
    return {
        "stats": tracer.stats,
        "extras": tracer.extras,
        "spans": tracer.spans,
        "dropped": tracer.dropped,
        "next": tracer._next,
    }


def per_layer(tracer: Tracer, rounds: int, overhead_pct: float) -> dict:
    """Per-layer metrics: per-function calls and self milliseconds per round
    of the workload, the work counters per round, and the CLI phases per
    CLI call.  Names absent from this workload read 0."""
    out = {}
    for modname, attr in TARGETS:
        calls, self_s = tracer.stats.get(f"{modname}.{attr}", (0, 0.0))
        out[f"{modname}.{attr}.calls"] = (calls / rounds, "count")
        out[f"{modname}.{attr}.self_ms"] = (self_s * 1000 / rounds, "ms")
    calls = tracer.extras.get("cli.calls", 0)

    def per_call(total):
        return total / calls if calls else 0.0

    out["cli.import_ms"] = (per_call(tracer.extras.get("cli.import_s", 0.0)) * 1000, "ms")
    out["cli.jsonschema_import_ms"] = (
        per_call(tracer.extras.get("cli.jsonschema_import_s", 0.0)) * 1000, "ms")
    for metric, span in (("cli.validate_ms", "cli.validate"), ("cli.load_scene_ms", "cli.load_scene"),
                         ("cli.compute_ms", "cli.compute"), ("cli.emit_ms", "cli.emit")):
        out[metric] = (per_call(tracer.stats.get(span, (0, 0.0))[1]) * 1000, "ms")
    out["cli.emit_bytes"] = (per_call(tracer.extras.get("cli.emit_bytes", 0)), "B")
    for name in ("orders.chars_enumerated", "psod.labels_built", "decompose.rows"):
        out[name] = (tracer.extras.get(name, 0) / rounds, "count")
    counted = tracer.extras.get("decompose.row_count_sum", 0)
    materialized = tracer.extras.get("decompose.materialized", 0)
    out["decompose.materialized_per_count"] = (materialized / counted if counted else 0.0, "ratio")
    out["trace.overhead_pct"] = (overhead_pct, "%")
    return out
