"""A validator for the JSON Schema keywords the scene schema uses.

conforms(instance, schema) returns True only when jsonschema's validator for
the schema (Draft 2020-12) accepts the instance.  It may return False on an
instance that validator accepts: a float such as 1.0 where an integer is
wanted, a keyword, type name or $ref form it does not implement, a const or
enum value that is not a string or integer.  A False therefore means "not
shown valid here"; the caller asks jsonschema, which also words the error.
"""

from __future__ import annotations

# Keywords that carry no constraint.
ANNOTATIONS = frozenset({"$schema", "$id", "$defs", "title", "description"})
KEYWORDS = frozenset({
    "type", "const", "enum", "required", "properties", "additionalProperties",
    "items", "prefixItems", "minItems", "maxItems", "minimum", "oneOf", "$ref",
})
# bool is not an integer, and JSON decodes objects and arrays to exactly
# dict and list.
TYPES = {"object": dict, "array": list, "string": str, "integer": int}


def _same(a, b) -> bool:
    return type(a) is type(b) and isinstance(a, (str, int)) and a == b


def conforms(instance, schema, root=None) -> bool:
    """True only if instance is valid against schema; root holds the $defs
    that local $refs point into (the schema itself by default)."""
    if isinstance(schema, bool):
        return schema
    root = schema if root is None else root
    x, kind = instance, type(instance)

    def ok(sub, value) -> bool:
        return conforms(value, sub, root)

    for key, arg in schema.items():
        if key in ANNOTATIONS:
            continue
        if key == "type":
            good = any(TYPES.get(t) is kind for t in ([arg] if isinstance(arg, str) else arg))
        elif key in ("const", "enum"):
            good = any(_same(x, v) for v in ([arg] if key == "const" else arg))
        elif key == "required":
            good = kind is not dict or all(k in x for k in arg)
        elif key == "properties":
            good = kind is not dict or all(ok(arg[k], x[k]) for k in arg if k in x)
        elif key == "additionalProperties":
            named = schema.get("properties", {})
            good = kind is not dict or all(ok(arg, v) for k, v in x.items() if k not in named)
        elif key == "prefixItems":
            good = kind is not list or all(map(ok, arg, x))
        elif key == "items":
            skip = len(schema.get("prefixItems", ()))
            good = kind is not list or all(ok(arg, v) for v in x[skip:])
        elif key in ("minItems", "maxItems"):
            good = kind is not list or (len(x) >= arg if key == "minItems" else len(x) <= arg)
        elif key == "minimum":
            good = kind not in (int, float) or x >= arg
        elif key == "oneOf":
            good = sum(ok(sub, x) for sub in arg) == 1
        elif key == "$ref" and arg.startswith("#/") and "~" not in arg and "%" not in arg:
            target = root
            for part in arg[2:].split("/"):
                target = target[part]
            good = ok(target, x)
        else:
            good = False
        if not good:
            return False
    return True
