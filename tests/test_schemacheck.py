"""The built-in scene-schema evaluator against jsonschema.

logsod.schemacheck.conforms decides valid scenes without jsonschema; it must
never accept what jsonschema rejects, and load_scene must still word every
rejection exactly as jsonschema's best match.
"""

from __future__ import annotations

import copy
import json
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st
from jsonschema.exceptions import best_match

from logsod.cli import _scene_schema, load_scene
from logsod.errors import ParseError
from logsod.schemacheck import ANNOTATIONS, KEYWORDS, TYPES, conforms
from scenes import scenes

SCHEMA = _scene_schema()
VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)

# Keywords whose value holds subschemas: a map of them, a list, or one.
_MAPS, _LISTS, _ONE = ("properties", "$defs"), ("prefixItems", "oneOf"), ("items", "additionalProperties")


def _subschemas(schema: dict):
    for key in _MAPS:
        yield from schema.get(key, {}).values()
    for key in _LISTS:
        yield from schema.get(key, ())
    for key in _ONE:
        if isinstance(schema.get(key), dict):
            yield schema[key]


def _walk(schema: dict):
    yield schema
    for sub in _subschemas(schema):
        yield from _walk(sub)


class TestCoverage:
    def test_schema_uses_only_implemented_keywords(self):
        for sub in _walk(SCHEMA):
            unknown = set(sub) - KEYWORDS - ANNOTATIONS
            assert not unknown, f"conforms does not implement {sorted(unknown)}"
            types = sub.get("type", [])
            for name in [types] if isinstance(types, str) else types:
                assert name in TYPES, name
            for value in sub.get("enum", []) + ([sub["const"]] if "const" in sub else []):
                assert type(value) in (str, int), value
            if "$ref" in sub:
                ref = sub["$ref"]
                assert ref.startswith("#/$defs/") and ref.count("/") == 2, ref
                assert ref.rsplit("/", 1)[1] in SCHEMA["$defs"], ref

    def test_boolean_is_not_an_integer(self):
        assert not conforms(True, {"type": "integer"})
        assert not conforms({"kind": "monoid", "rank": True, "generators": [[1]]}, SCHEMA)

    def test_one_of_needs_exactly_one_match(self):
        schema = {"oneOf": [{"type": "integer"}, {"minimum": 0}]}
        assert conforms(-1, schema) and not conforms(3, schema)
        assert not type(VALIDATOR)(schema).is_valid(3)

    def test_const_and_enum_compare_types(self):
        assert not conforms(True, {"const": 1}) and not conforms(1, {"enum": [True, "1"]})
        assert conforms(1, {"const": 1}) and conforms("int", {"enum": ["int", "poly"]})
        # jsonschema accepts an equal array; conforms leaves containers to it.
        assert not conforms([1], {"const": [1]})

    def test_unknown_keyword_is_not_accepted(self):
        assert not conforms(1, {"multipleOf": 2})
        assert not conforms(1, {"$ref": "other.json#/x"})

    def test_integral_float_falls_back_to_jsonschema(self, tmp_path):
        # Draft 2020-12 counts 1.0 as an integer; conforms does not decide it.
        scene = {"kind": "monoid", "rank": 1.0, "generators": [[1]]}
        assert not conforms(scene, SCHEMA) and VALIDATOR.is_valid(scene)
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene), encoding="utf-8")
        assert load_scene(str(path)) == scene


SCENES = scenes(st.integers(-4, 4), st.integers(1, 6))


def _places(node, path=()):
    """Every (path, value) below node, node itself included."""
    yield path, node
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield from _places(child, path + (key,))


def _replace(scene, path, value):
    if not path:
        return value
    out = copy.deepcopy(scene)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


# One-edit mutations: each maps the value at a place to its possible
# replacements there (none when it does not apply).
MUTATIONS = {
    "bool-for-int": lambda v: [v > 0] if type(v) is int else [],
    "extra-key": lambda v: [dict(v, extra=1)] if isinstance(v, dict) else [],
    "drop-key": lambda v: [{k: x for k, x in v.items() if k != drop} for drop in v]
    if isinstance(v, dict) else [],
    "empty-array": lambda v: [[]] if isinstance(v, list) else [],
    "zero": lambda v: [0] if type(v) is int else [],
    "wrong-const": lambda v: [v + "x"] if v in ("monoid", "snc", "nc", "chart") else [],
}


@st.composite
def mutated_scenes(draw):
    scene = draw(SCENES)
    name = draw(st.sampled_from(sorted(MUTATIONS)))
    edits = [(path, new) for path, v in _places(scene) for new in MUTATIONS[name](v)]
    if not edits:
        return scene
    path, new = draw(st.sampled_from(edits))
    return _replace(scene, path, new)


def _schema_message(scene):
    error = best_match(VALIDATOR.iter_errors(scene))
    if error is None:
        return None
    where = "/".join(str(p) for p in error.absolute_path) or "top level"
    return f"scene fails schema validation at {where}: {error.message}"


class TestAgainstJsonschema:
    @settings(max_examples=300, deadline=None)
    @given(SCENES)
    def test_valid_scenes_accepted(self, scene):
        assert VALIDATOR.is_valid(scene)
        assert conforms(scene, SCHEMA)

    @settings(max_examples=600, deadline=None)
    @given(mutated_scenes())
    def test_mutations_get_jsonschema_verdict(self, scene):
        # Never a false accept; and as no floats or unimplemented forms are
        # generated, no false reject either.
        assert conforms(scene, SCHEMA) == VALIDATOR.is_valid(scene)

    @settings(max_examples=150, deadline=None)
    @given(mutated_scenes())
    def test_load_scene_words_rejections_as_jsonschema(self, scene):
        want = _schema_message(scene)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scene.json"
            path.write_text(json.dumps(scene), encoding="utf-8")
            if want is None:
                assert load_scene(str(path)) == scene
            else:
                with pytest.raises(ParseError) as got:
                    load_scene(str(path))
                assert str(got.value) == want


class TestShippedSchema:
    @pytest.mark.parametrize("failure", ["missing-file", "no-loader-data"])
    def test_unreadable_schema_exits_2(self, monkeypatch, capsys, tmp_path, failure):
        import pkgutil

        from logsod import cli

        def get_data(package, resource):
            if failure == "missing-file":
                raise FileNotFoundError(2, "No such file or directory", resource)
            return None  # what a loader that serves no data returns

        path = tmp_path / "monoid.json"
        path.write_text('{"kind": "monoid", "rank": 1, "generators": [[1]]}', encoding="utf-8")
        monkeypatch.setattr(pkgutil, "get_data", get_data)
        cli._scene_schema.cache_clear()
        try:
            assert cli.main(["monoid", str(path)]) == cli.EXIT_PARSE
        finally:
            cli._scene_schema.cache_clear()
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read the scene schema shipped with logsod: ")
        assert "Traceback" not in err
