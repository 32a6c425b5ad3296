"""The spec validator: the schema keywords it implements, its agreement
with jsonschema's best_match on random specs, and the imports it spares."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from hmin import schema
from hmin.schema import KEYWORDS, SCHEMA, TYPES, spec_error


def _keywords(node: dict):
    """(keyword, value) at every schema position of ``node``."""
    for key, value in node.items():
        yield key, value
        if key in ("properties", "definitions"):
            for sub in value.values():
                yield from _keywords(sub)
        elif key == "oneOf":
            for sub in value:
                yield from _keywords(sub)
        elif key == "items" and isinstance(value, dict):
            yield from _keywords(value)


def test_schema_uses_only_keywords_the_validator_implements():
    found = list(_keywords(SCHEMA))
    assert {key for key, _ in found} <= KEYWORDS
    # and only the forms of them it implements
    for key, value in found:
        if key == "type":
            assert value in TYPES
        elif key == "additionalProperties":
            assert value is False
        elif key == "items":
            assert isinstance(value, dict)
        elif key == "$ref":
            assert value.startswith("#/")
        elif key == "enum":
            assert not any(isinstance(v, (list, dict)) for v in value)
        elif key == "const":
            assert not isinstance(value, (list, dict))


NAMES = sorted({name for key, value in _keywords(SCHEMA) if key == "properties" for name in value})
KINDS = ["graph", "implicit", "ruled", "gallery", "expression", "samples"]
LEAVES = ["x", 0, 1.0, True, None, [], {}, [0, 1], [0, 1, 2], [1.0], -1, "graph", "samples"]


def _random_value(rng: random.Random, node: dict, depth: int):
    """A value shaped at random after the schema ``node``, nested up to depth 4.

    Below the top, a node is a mixed leaf 80% of the time: the jsonschema
    oracle costs about 0.1 ms a spec, most of it on the valid parts.  An
    object keeps each required property at random, an optional one less
    often, and may gain a stray schema key; a top-level spec names a kind
    and its section.
    """
    while "$ref" in node:
        node = SCHEMA["definitions"][node["$ref"].rpartition("/")[2]]
    if depth >= 4 or (depth and rng.random() < 0.8):
        return rng.choice(LEAVES)
    if "oneOf" in node:
        return _random_value(rng, rng.choice(node["oneOf"]), depth)
    if "items" in node:
        return [_random_value(rng, node["items"], depth + 1) for _ in range(rng.choice([1, 2, 2, 3]))]
    if node.get("type", "object") != "object":
        return rng.choice(node.get("enum") or [node.get("const") or rng.choice(KINDS), *LEAVES[:5]])
    props = node.get("properties", {})
    keys = [k for k in props if rng.random() < (0.6 if k in node.get("required", ()) else 0.1)]
    if not props or rng.random() < 0.1:
        keys.append(rng.choice(NAMES))
    value = {key: _random_value(rng, props.get(key, {}), depth + 1) for key in keys}
    if depth == 0 and rng.random() < 0.8:
        value["kind"] = kind = rng.choice(KINDS[:4])
        value[kind] = _random_value(rng, props[kind], 1)
    return value


def test_validator_agrees_with_jsonschema_best_match_on_random_specs():
    jsonschema = pytest.importorskip("jsonschema")
    validator = jsonschema.Draft7Validator(SCHEMA)
    rng = random.Random(20)
    for _ in range(20_000):
        spec = _random_value(rng, SCHEMA, 0)
        err = jsonschema.exceptions.best_match(validator.iter_errors(spec))
        assert spec_error(spec) == (None if err is None else err.message), spec


def test_no_command_imports_jsonschema(tmp_path):
    spec = tmp_path / "plane.json"
    spec.write_text(json.dumps({"kind": "graph", "graph": {"h": "0"}}))
    code = (
        "import json, sys\n"
        "from hmin.cli import main\n"
        f"gallery = main(['gallery', 'char-plane', '--out', {str(tmp_path / 'g')!r}])\n"
        f"after_gallery = {schema.__name__!r} in sys.modules\n"
        f"classify = main(['classify', '--spec', {str(spec)!r}, '--out', {str(tmp_path / 'c')!r}])\n"
        "print(json.dumps([gallery, after_gallery, classify, 'jsonschema' in sys.modules]))\n")
    src = str(Path(schema.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                         check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == [0, False, 0, False]
