"""A small, dependency-free JSON Schema validator.

The middle layer keeps descriptors as plain JSON documents (the paper's
Listings 2--5).  Each document names its schema via ``$schema`` and is
validated before it is consumed.  The validator implements the subset of
JSON Schema draft-07 that the embedded schemas in :mod:`repro.core.schemas`
use:

``type`` (including union types), ``properties``, ``required``,
``additionalProperties``, ``enum``, ``const``, ``items``,
``minItems``/``maxItems``, ``minimum``/``maximum``,
``exclusiveMinimum``/``exclusiveMaximum``, ``minLength``/``maxLength``,
``pattern``, ``anyOf``, ``oneOf``, ``allOf``, ``not`` and local ``$ref``
references of the form ``#/definitions/<name>``.

It is intentionally small, predictable, and fast enough to validate every
descriptor on every packaging step (the overhead is measured by the
``bench_ablation_overhead`` benchmark).
"""

from __future__ import annotations

import re
from collections.abc import Mapping, Sequence
from typing import Any

from .errors import SchemaValidationError

__all__ = ["validate", "is_valid", "iter_errors", "JSONSchemaValidator"]

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, Mapping),
    "array": lambda v: isinstance(v, (list, tuple)),
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


def _type_matches(value: Any, type_name: str) -> bool:
    check = _TYPE_CHECKS.get(type_name)
    if check is None:
        raise SchemaValidationError(f"unknown schema type {type_name!r}")
    return check(value)


class JSONSchemaValidator:
    """Validate JSON-like Python objects against a JSON Schema document.

    Parameters
    ----------
    schema:
        The schema document.  ``definitions`` at the top level are resolvable
        through ``$ref`` references of the form ``#/definitions/<name>``.
    """

    def __init__(self, schema: Mapping[str, Any]):
        if not isinstance(schema, Mapping):
            raise SchemaValidationError("schema must be a JSON object")
        self.schema = schema
        self._definitions = schema.get("definitions", {})

    # -- public API ---------------------------------------------------------
    def validate(self, instance: Any) -> None:
        """Raise :class:`SchemaValidationError` on the first violation."""
        errors = list(self.iter_errors(instance))
        if errors:
            raise errors[0]

    def is_valid(self, instance: Any) -> bool:
        """Return ``True`` when *instance* satisfies the schema."""
        return not list(self.iter_errors(instance))

    def iter_errors(self, instance: Any):
        """Yield every :class:`SchemaValidationError` found in *instance*."""
        yield from self._validate(instance, self.schema, "$", "#")

    # -- internals ----------------------------------------------------------
    def _resolve_ref(self, ref: str) -> Mapping[str, Any]:
        if not ref.startswith("#/"):
            raise SchemaValidationError(f"only local $ref supported, got {ref!r}")
        node: Any = self.schema
        for part in ref[2:].split("/"):
            if not isinstance(node, Mapping) or part not in node:
                raise SchemaValidationError(f"unresolvable $ref {ref!r}")
            node = node[part]
        return node

    def _validate(self, value: Any, schema: Any, path: str, spath: str):
        if schema is True or schema == {}:
            return
        if schema is False:
            yield SchemaValidationError("schema forbids any value", path, spath)
            return
        if not isinstance(schema, Mapping):
            raise SchemaValidationError(f"invalid schema node at {spath}")

        if "$ref" in schema:
            ref_schema = self._resolve_ref(schema["$ref"])
            yield from self._validate(value, ref_schema, path, schema["$ref"])
            return

        yield from self._check_type(value, schema, path, spath)
        yield from self._check_enum_const(value, schema, path, spath)
        yield from self._check_combinators(value, schema, path, spath)

        if isinstance(value, Mapping):
            yield from self._check_object(value, schema, path, spath)
        if isinstance(value, (list, tuple)):
            yield from self._check_array(value, schema, path, spath)
        if isinstance(value, str):
            yield from self._check_string(value, schema, path, spath)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            yield from self._check_number(value, schema, path, spath)

    def _check_type(self, value, schema, path, spath):
        if "type" not in schema:
            return
        expected = schema["type"]
        names = [expected] if isinstance(expected, str) else list(expected)
        if not any(_type_matches(value, name) for name in names):
            yield SchemaValidationError(
                f"expected type {expected!r}, got {type(value).__name__}",
                path,
                f"{spath}/type",
            )

    def _check_enum_const(self, value, schema, path, spath):
        if "enum" in schema and value not in schema["enum"]:
            yield SchemaValidationError(
                f"value {value!r} not in enum {schema['enum']!r}", path, f"{spath}/enum"
            )
        if "const" in schema and value != schema["const"]:
            yield SchemaValidationError(
                f"value {value!r} != const {schema['const']!r}", path, f"{spath}/const"
            )

    def _check_combinators(self, value, schema, path, spath):
        if "allOf" in schema:
            for i, sub in enumerate(schema["allOf"]):
                yield from self._validate(value, sub, path, f"{spath}/allOf/{i}")
        if "anyOf" in schema:
            subs = schema["anyOf"]
            if all(list(self._validate(value, sub, path, f"{spath}/anyOf/{i}"))
                   for i, sub in enumerate(subs)):
                yield SchemaValidationError(
                    "value does not satisfy any subschema of anyOf", path, f"{spath}/anyOf"
                )
        if "oneOf" in schema:
            subs = schema["oneOf"]
            matches = sum(
                not list(self._validate(value, sub, path, f"{spath}/oneOf/{i}"))
                for i, sub in enumerate(subs)
            )
            if matches != 1:
                yield SchemaValidationError(
                    f"value satisfies {matches} subschemas of oneOf (need exactly 1)",
                    path,
                    f"{spath}/oneOf",
                )
        if "not" in schema:
            if not list(self._validate(value, schema["not"], path, f"{spath}/not")):
                yield SchemaValidationError(
                    "value must not satisfy the 'not' subschema", path, f"{spath}/not"
                )

    def _check_object(self, value: Mapping, schema, path, spath):
        properties = schema.get("properties", {})
        for name in schema.get("required", []):
            if name not in value:
                yield SchemaValidationError(
                    f"missing required property {name!r}", path, f"{spath}/required"
                )
        for name, sub in properties.items():
            if name in value:
                yield from self._validate(
                    value[name], sub, f"{path}.{name}", f"{spath}/properties/{name}"
                )
        additional = schema.get("additionalProperties", True)
        if additional is False:
            extra = [k for k in value if k not in properties]
            if extra:
                yield SchemaValidationError(
                    f"additional properties not allowed: {sorted(extra)!r}",
                    path,
                    f"{spath}/additionalProperties",
                )
        elif isinstance(additional, Mapping):
            for k, v in value.items():
                if k not in properties:
                    yield from self._validate(
                        v, additional, f"{path}.{k}", f"{spath}/additionalProperties"
                    )

    def _check_array(self, value: Sequence, schema, path, spath):
        if "minItems" in schema and len(value) < schema["minItems"]:
            yield SchemaValidationError(
                f"array has {len(value)} items, minimum is {schema['minItems']}",
                path,
                f"{spath}/minItems",
            )
        if "maxItems" in schema and len(value) > schema["maxItems"]:
            yield SchemaValidationError(
                f"array has {len(value)} items, maximum is {schema['maxItems']}",
                path,
                f"{spath}/maxItems",
            )
        items = schema.get("items")
        if items is not None:
            if isinstance(items, Mapping) or items in (True, False):
                for i, element in enumerate(value):
                    yield from self._validate(
                        element, items, f"{path}[{i}]", f"{spath}/items"
                    )
            else:  # positional tuple validation
                for i, (element, sub) in enumerate(zip(value, items)):
                    yield from self._validate(
                        element, sub, f"{path}[{i}]", f"{spath}/items/{i}"
                    )

    def _check_string(self, value: str, schema, path, spath):
        if "minLength" in schema and len(value) < schema["minLength"]:
            yield SchemaValidationError(
                f"string shorter than minLength {schema['minLength']}",
                path,
                f"{spath}/minLength",
            )
        if "maxLength" in schema and len(value) > schema["maxLength"]:
            yield SchemaValidationError(
                f"string longer than maxLength {schema['maxLength']}",
                path,
                f"{spath}/maxLength",
            )
        if "pattern" in schema and not re.search(schema["pattern"], value):
            yield SchemaValidationError(
                f"string does not match pattern {schema['pattern']!r}",
                path,
                f"{spath}/pattern",
            )

    def _check_number(self, value, schema, path, spath):
        if "minimum" in schema and value < schema["minimum"]:
            yield SchemaValidationError(
                f"value {value} below minimum {schema['minimum']}",
                path,
                f"{spath}/minimum",
            )
        if "maximum" in schema and value > schema["maximum"]:
            yield SchemaValidationError(
                f"value {value} above maximum {schema['maximum']}",
                path,
                f"{spath}/maximum",
            )
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            yield SchemaValidationError(
                f"value {value} not above exclusiveMinimum {schema['exclusiveMinimum']}",
                path,
                f"{spath}/exclusiveMinimum",
            )
        if "exclusiveMaximum" in schema and value >= schema["exclusiveMaximum"]:
            yield SchemaValidationError(
                f"value {value} not below exclusiveMaximum {schema['exclusiveMaximum']}",
                path,
                f"{spath}/exclusiveMaximum",
            )


def validate(instance: Any, schema: Mapping[str, Any]) -> None:
    """Validate *instance* against *schema*, raising on the first error."""
    JSONSchemaValidator(schema).validate(instance)


def is_valid(instance: Any, schema: Mapping[str, Any]) -> bool:
    """Return ``True`` when *instance* satisfies *schema*."""
    return JSONSchemaValidator(schema).is_valid(instance)


def iter_errors(instance: Any, schema: Mapping[str, Any]):
    """Yield every validation error of *instance* against *schema*."""
    return JSONSchemaValidator(schema).iter_errors(instance)
