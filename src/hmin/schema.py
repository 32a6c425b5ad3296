"""Spec validation against the shipped schema.

It implements the draft-07 keywords that ``spec.schema.json`` uses:
``type``, ``enum``, ``const``, ``properties``, ``required``,
``additionalProperties: false``, ``items`` (one schema for every item),
``minItems``, ``maxItems``, ``oneOf`` and local ``$ref``.  ``$schema``,
``title`` and ``definitions`` only annotate.  Errors come in the order the
reference Python validator yields them, the schema's key order, and the
message reported is the one its ``best_match`` picks, with its texts
(docs/formats.md, *Spec validation*); tests/test_schema.py checks both.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import NamedTuple, Optional

SCHEMA = json.loads(resources.files("hmin").joinpath("spec.schema.json").read_text())

# draft-07's type checks, of one type name each; a bool is not a number
TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "null": lambda v: v is None,
}
# the keywords implemented; the last three only annotate
KEYWORDS = {"type", "enum", "const", "properties", "required", "additionalProperties",
            "items", "minItems", "maxItems", "oneOf", "$ref", "$schema", "title", "definitions"}


class Error(NamedTuple):
    path: tuple  # keys and indices from the instance validated down to the bad value
    keyword: str
    message: str
    matches_type: bool  # the bad value has the type its schema names
    context: tuple = ()  # a failed oneOf's errors, their paths relative to it


def _equal(a, b) -> bool:
    """Equality of a value and a scalar enum or const entry, a bool equal only to itself."""
    return a is b if isinstance(a, bool) or isinstance(b, bool) else a == b


def _check(schema: dict, value, path: tuple, out: list) -> None:
    """Append the errors of ``value`` against ``schema`` to ``out``, in the reference order."""
    ref = schema.get("$ref")
    if ref is not None:  # draft-07 ignores the siblings of a $ref
        target = SCHEMA
        for key in ref.removeprefix("#").split("/")[1:]:
            target = target[key]
        return _check(target, value, path, out)
    obj, arr = isinstance(value, dict), isinstance(value, list)
    typed = "type" in schema and TYPES[schema["type"]](value)
    for key, arg in schema.items():
        message, context = None, ()
        if key == "type" and not typed:
            message = f"{value!r} is not of type {arg!r}"
        elif key == "enum" and not any(_equal(each, value) for each in arg):
            message = f"{value!r} is not one of {arg!r}"
        elif key == "const" and not _equal(value, arg):
            message = f"{arg!r} was expected"
        elif key == "properties" and obj:
            for name, sub in arg.items():
                if name in value:
                    _check(sub, value[name], path + (name,), out)
        elif key == "required" and obj:
            out += [Error(path, key, f"{name!r} is a required property", typed)
                    for name in arg if name not in value]
        elif key == "additionalProperties" and obj and arg is False:
            extras = sorted(value.keys() - schema.get("properties", {}).keys(), key=str)
            if extras:
                message = (f"Additional properties are not allowed ({', '.join(map(repr, extras))} "
                           f"{'was' if len(extras) == 1 else 'were'} unexpected)")
        elif key == "items" and arr:
            for index, item in enumerate(value):
                _check(arg, item, path + (index,), out)
        elif key == "minItems" and arr and len(value) < arg:
            message = f"{value!r} {'should be non-empty' if arg == 1 else 'is too short'}"
        elif key == "maxItems" and arr and len(value) > arg:
            message = f"{value!r} {'is expected to be empty' if arg == 0 else 'is too long'}"
        elif key == "oneOf":
            failed = [[] for _ in arg]
            for sub, errors in zip(arg, failed):
                _check(sub, value, (), errors)
            valid = [sub for sub, errors in zip(arg, failed) if not errors]
            if not valid:
                message = f"{value!r} is not valid under any of the given schemas"
                context = tuple(e for errors in failed for e in errors)
            elif len(valid) > 1:
                reprs = ", ".join(map(repr, valid[1:] + valid[:1]))
                message = f"{value!r} is valid under each of {reprs}"
        if message is not None:
            out.append(Error(path, key, message, typed, context))


def _relevance(err: Error) -> tuple:
    # best_match's default relevance: shallow paths first, then earlier ones;
    # the weak keywords are anyOf and oneOf, the strong ones none
    return (-len(err.path), err.path, err.keyword not in ("anyOf", "oneOf"), False,
            not err.matches_type)


def spec_error(spec) -> Optional[str]:
    """The message of the error ``best_match`` picks among the spec's errors
    against ``SCHEMA``, or None if it has none."""
    errors = []
    _check(SCHEMA, spec, (), errors)
    best = max(errors, key=_relevance, default=None)
    while best is not None and best.context:
        # the deepest error of a failed oneOf, unless two tie for it
        smallest = sorted(best.context, key=_relevance)[:2]
        if len(smallest) == 2 and _relevance(smallest[0]) == _relevance(smallest[1]):
            break
        best = smallest[0]
    return None if best is None else best.message
