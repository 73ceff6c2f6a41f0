"""Schema-versioned JSON envelopes and the one dataclass codec behind them.

Every result type of the public API serializes to a *JSON envelope*: a
plain dict whose first two keys identify the payload —
``{"schema_version": 1, "kind": "simulate_result", ...payload...}``.
``schema_version`` is the single version of the whole envelope family
(bumped on incompatible changes; :func:`expect_envelope` rejects
mismatches up front) and ``kind`` names the type.

:class:`JsonCodec` derives both directions from a dataclass's field
annotations, compiled once per class: ``int``, ``float``, ``str``,
``bool``, ``X | None``, ``tuple[T, ...]``, ``dict[str, T]``/``Mapping``,
nested codec dataclasses, :data:`Envelope`, ``Path``, and value types
with ``to_json_value()``/``from_json_value()`` (a trace, a sweep spec).
A class with a ``kind`` is wrapped in an envelope; one without is a
flat nested object.  The payload keys are exactly the fields, and those
without a default are required.  Encoding emits every value as it is
(tuples as lists), so the bytes never depend on the codec.  Decoding
checks types: a ``bool`` is never an ``int``, a ``float`` field takes
any finite number, and a mismatch raises the class's ``decode_error``
naming ``kind.field``, the expected JSON type and the one it got.
``python -m repro.api.validate`` reads the same :data:`KINDS` registry.
The input documents (population specs, behavior parameters, scenario
overrides) are codec classes too; :func:`read_json_document` reads
their files.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import types
import typing
from collections.abc import Iterable, Iterator, Mapping
from pathlib import Path
from typing import Any, Callable, ClassVar, NewType

from repro.errors import EnvelopeError, ValidationError

__all__ = [
    "SCHEMA_VERSION",
    "Envelope",
    "IN_PROCESS",
    "INPUT_FILE",
    "JsonCodec",
    "KINDS",
    "OMIT_IF_NONE",
    "envelope",
    "expect_envelope",
    "nested_envelopes",
    "read_json_document",
    "required_keys",
]

#: The current envelope schema version.  Bump on incompatible changes.
SCHEMA_VERSION = 1

#: Field type of a nested envelope of any kind (a job's result).
Envelope = NewType("Envelope", dict)

#: Field metadata: leave the key out of the payload while the value is None.
OMIT_IF_NONE = {"json": "omit_if_none"}
#: Field metadata: an in-process value that is never serialized.
IN_PROCESS = {"json": "skip"}
#: Field metadata: a path whose file content is part of every cache key
#: (:func:`repro.core.store.store_key`).  Combines with the ``json`` ones.
INPUT_FILE = {"input_file": True}

#: Envelope kind → the :class:`JsonCodec` class that declares it.
KINDS: dict[str, type[JsonCodec]] = {}


def envelope(kind: str, payload: Mapping[str, Any]) -> dict[str, Any]:
    """Wrap a payload mapping in a schema-versioned envelope."""
    if not kind:
        raise ValueError("envelope kind must be a non-empty string")
    record: dict[str, Any] = {"schema_version": SCHEMA_VERSION, "kind": kind}
    for key, value in payload.items():
        if key in ("schema_version", "kind"):
            raise ValueError(f"payload must not shadow the envelope key {key!r}")
        record[key] = value
    return record


def expect_envelope(data: Mapping[str, Any], kind: str) -> dict[str, Any]:
    """Check the envelope header and return the payload as a dict.

    Raises :class:`~repro.errors.EnvelopeError` when ``data`` is not a
    mapping, carries the wrong ``kind``, or was produced under a
    different ``schema_version``.
    """
    if not isinstance(data, Mapping):
        raise EnvelopeError(f"envelope must be a mapping, got {type(data).__name__}")
    version = data.get("schema_version")
    if version != SCHEMA_VERSION:
        raise EnvelopeError(
            f"unsupported schema_version {version!r} (expected {SCHEMA_VERSION})"
        )
    actual = data.get("kind")
    if actual != kind:
        raise EnvelopeError(f"expected envelope kind {kind!r}, got {actual!r}")
    return {
        key: value
        for key, value in data.items()
        if key not in ("schema_version", "kind")
    }


def read_json_document(path: str | Path, what: str) -> Any:
    """The parsed content of a JSON input file (``what`` names it in errors).

    An unreadable file or one that is not UTF-8 JSON raises
    :class:`~repro.errors.ValidationError` naming the path.
    """
    try:
        raw = Path(path).read_bytes()
    except OSError as error:
        raise ValidationError(f"cannot read {what} {path}: {error}") from error
    try:
        return json.loads(raw.decode("utf-8"))
    except ValueError as error:  # JSONDecodeError or UnicodeDecodeError
        raise ValidationError(f"{what} {path} is not valid JSON: {error}") from error


class JsonCodec:
    """Shared base: ``to_json_dict``/``from_json_dict`` from the annotations."""

    #: The envelope kind; empty for flat objects nested in another.
    kind: ClassVar[str] = ""
    #: What a malformed payload raises.
    decode_error: ClassVar[type[ValidationError]] = EnvelopeError

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        kind = cls.__dict__.get("kind")
        if kind and KINDS.setdefault(kind, cls) is not cls:
            raise TypeError(f"envelope kind {kind!r} is declared twice")

    def to_json_dict(self) -> dict[str, Any]:
        """The JSON form: an envelope when the class has a kind."""
        return _codec(type(self)).encode(self)

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> Any:
        """Inverse of :meth:`to_json_dict`, type-checking every field."""
        try:
            return _codec(cls).decode(data, cls.kind or cls.__name__)
        except _Mismatch as error:
            raise cls.decode_error(str(error)) from None


def required_keys(cls: type[JsonCodec]) -> tuple[str, ...]:
    """The payload keys every envelope of ``cls`` must carry."""
    return _codec(cls).required


def nested_envelopes(
    cls: type[JsonCodec], payload: Mapping[str, Any]
) -> Iterator[tuple[str, Any]]:
    """``(where, value)`` of each envelope nested in a payload of ``cls``."""
    for name, many in _codec(cls).nested:
        value = payload.get(name)
        if many and isinstance(value, list):
            yield from ((f"{name}[{i}]", item) for i, item in enumerate(value))
        elif not many and value is not None:
            yield name, value


# ----------------------------------------------------------------------
# The per-class codec, compiled once from the field annotations.
# ----------------------------------------------------------------------
class _Mismatch(Exception):
    """A payload that does not fit its annotations (re-raised typed)."""


Encoder = Callable[[Any], Any]
Decoder = Callable[[Any, str], Any]

_JSON_NAMES = {
    bool: "boolean",
    int: "integer",
    float: "number",
    str: "string",
    list: "array",
    dict: "object",
    type(None): "null",
}


def _mismatch(where: str, expected: str, value: Any) -> _Mismatch:
    got = _JSON_NAMES.get(type(value), type(value).__name__)
    return _Mismatch(f"{where} must be {expected}, got {got}")


def _quoted(keys: Iterable[str]) -> str:
    return ", ".join(repr(key) for key in keys)


def _checked(accepts: Callable[[Any], bool], expected: str) -> Decoder:
    def decode(value: Any, where: str) -> Any:
        if accepts(value):
            return value
        raise _mismatch(where, expected, value)

    return decode


def _decode_float(value: Any, where: str) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise _mismatch(where, "a number", value)
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise _Mismatch(f"{where} must be a finite number, got {number}")
    return number


def _decode_object(value: Any, where: str) -> dict[str, Any]:
    if isinstance(value, Mapping):
        return dict(value)
    raise _mismatch(where, "an object", value)


_SCALARS: dict[Any, Decoder] = {
    Any: lambda value, where: value,
    int: _checked(lambda v: isinstance(v, int) and not isinstance(v, bool), "an integer"),
    float: _decode_float,
    str: _checked(lambda v: isinstance(v, str), "a string"),
    bool: _checked(lambda v: isinstance(v, bool), "a boolean"),
    Envelope: _decode_object,
}


def _optional_inner(annotation: Any) -> Any:
    """``X`` for ``X | None`` (either spelling), else None."""
    if typing.get_origin(annotation) in (typing.Union, types.UnionType):
        inner = [arg for arg in typing.get_args(annotation) if arg is not type(None)]
        if len(inner) == 1:
            return inner[0]
    return None


def _converter(annotation: Any) -> tuple[Encoder | None, Decoder]:
    """``(encode, decode)`` of one annotation; ``encode`` None = as is."""
    if annotation in _SCALARS:
        return None, _SCALARS[annotation]
    if isinstance(annotation, type) and issubclass(annotation, JsonCodec):
        return (lambda v: v.to_json_dict()), (
            lambda value, where: _codec(annotation).decode(value, where)
        )
    if hasattr(annotation, "from_json_value"):
        return (lambda v: v.to_json_value()), (
            lambda value, where: annotation.from_json_value(value)
        )
    if annotation is Path:
        return str, lambda value, where: Path(_SCALARS[str](value, where))
    origin, args = typing.get_origin(annotation), typing.get_args(annotation)
    inner = _optional_inner(annotation)
    if inner is not None:
        enc, dec = _converter(inner)
        return (enc and (lambda v: None if v is None else enc(v))), (
            lambda value, where: None if value is None else dec(value, where)
        )
    if origin is tuple and args[1:] == (Ellipsis,):
        enc, dec = _converter(args[0])

        def decode_tuple(value: Any, where: str) -> tuple:
            if not isinstance(value, (list, tuple)):
                raise _mismatch(where, "an array", value)
            where = f"{where}[]"  # one path for every element: no string per item
            return tuple([dec(item, where) for item in value])

        return (lambda v: [enc(x) for x in v]) if enc else list, decode_tuple
    if origin in (dict, Mapping) and args[:1] == (str,):
        enc, dec = _converter(args[1])

        def decode_mapping(value: Any, where: str) -> dict:
            items = _decode_object(value, where).items()
            return {key: dec(item, f"{where}.{key}") for key, item in items}

        return (lambda v: {k: enc(x) for k, x in v.items()}) if enc else dict, decode_mapping
    raise TypeError(f"no JSON codec for annotation {annotation!r}")


def _nesting(annotation: Any) -> bool | None:
    """Whether a field holds many (True) or one (False) nested envelope."""
    annotation = _optional_inner(annotation) or annotation
    if typing.get_origin(annotation) is tuple:
        return True if _nesting(typing.get_args(annotation)[0]) is False else None
    if annotation is Envelope or (
        isinstance(annotation, type) and issubclass(annotation, JsonCodec) and annotation.kind
    ):
        return False
    return None


class _Codec:
    """The compiled field plan of one :class:`JsonCodec` dataclass."""

    def __init__(self, cls: type[JsonCodec]) -> None:
        self.cls, self.kind = cls, cls.kind
        hints = typing.get_type_hints(cls)
        self.fields = [f for f in dataclasses.fields(cls) if f.metadata.get("json") != "skip"]
        self.names = frozenset(f.name for f in self.fields)
        self.required = tuple(
            f.name
            for f in self.fields
            if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
        )
        self.nested = [
            (f.name, many)
            for f in self.fields
            if (many := _nesting(hints[f.name])) is not None
        ]
        self.plan = [
            (f.name, *_converter(hints[f.name]), f.metadata.get("json") == "omit_if_none")
            for f in self.fields
        ]

    def encode(self, value: Any) -> dict[str, Any]:
        payload: dict[str, Any] = (
            {"schema_version": SCHEMA_VERSION, "kind": self.kind} if self.kind else {}
        )
        for name, encode, _, omit_if_none in self.plan:
            item = getattr(value, name)
            if item is None and omit_if_none:
                continue
            payload[name] = item if encode is None else encode(item)
        return payload

    def decode(self, data: Any, where: str) -> Any:
        payload = expect_envelope(data, self.kind) if self.kind else _decode_object(data, where)
        unknown = payload.keys() - self.names
        if unknown:
            raise _Mismatch(
                f"unknown {where} field(s) {_quoted(sorted(unknown))}; "
                f"available: {', '.join(sorted(self.names))}"
            )
        missing = [name for name in self.required if name not in payload]
        if missing:
            raise _Mismatch(f"{where} is missing required key(s): {_quoted(missing)}")
        return self.cls(
            **{
                name: decode(payload[name], f"{where}.{name}")
                for name, _, decode, _ in self.plan
                if name in payload
            }
        )


@functools.cache
def _codec(cls: type[JsonCodec]) -> _Codec:
    return _Codec(cls)
