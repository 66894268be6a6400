"""One codec for every wire payload: the dataclass annotations are the schema.

A wire type is a frozen dataclass subclassing :class:`Payload`.  A field's
annotation says what it holds (``int``, ``float | None``, ``Literal["a", "b"]``,
``tuple[int, ...]``, a nested payload, ``dict[str, float]``, ``Any``); its
``metadata`` says what
an annotation cannot: ``ge`` / ``gt`` / ``lt`` bound every number in the
field (a bounded float is also finite), ``label`` names it in messages,
``omit_none`` drops its key while it is None, and ``encode`` / ``decode``
give it its own wire form (``decode(raw, earlier)`` sees the fields declared
before it; its result is still checked).  :meth:`Payload.validate` holds the
rules that relate fields to each other or to a registry.

One plan per class checks every field at construction and encodes and
decodes the payload; anything malformed is an :class:`~repro.errors.ApiError`.
A ``dict`` field (a response table) is checked entry by entry only when
decoded, where outside bytes enter, so packaging a simulation report does
not re-walk its tables; ``Any`` content passes through by reference.
"""

from __future__ import annotations

import functools
import math
import types
import typing
from dataclasses import MISSING, fields
from typing import Any, ClassVar

from repro.errors import ApiError

#: Version stamped into every top-level payload.
SCHEMA_VERSION = 1

#: Top-level payload classes by their envelope ``kind``.
KINDS: dict[str, type[Payload]] = {}


class _Type:
    """One annotation: ``test`` checks a value, ``read`` decodes a wire value
    (None: one that passes ``test`` is itself), ``write`` gives the JSON form
    (None: the value itself), ``exact`` holds types that always pass
    ``test``, and ``locate`` finds a container's bad entry."""

    def __init__(self, desc, test, read=None, write=None, exact=(), locate=None):
        self.desc, self.test, self.write, self.exact = desc, test, write, frozenset(exact)
        self.read, self.locate = read, locate

    def error(self, value: Any, label: str) -> ApiError:
        located = self.locate and self.locate(value, label)
        return located or ApiError(f"{label} must be {self.desc}, got {value!r}")


_ANY = _Type("anything", lambda v: True)


def _real(v: Any) -> bool:
    return isinstance(v, (int, float)) and type(v) is not bool


def _number(kind: type, ge: Any, gt: Any, lt: Any) -> _Type:
    bounds = " ".join(f"{op} {b}" for op, b in ((">=", ge), (">", gt), ("<", lt)) if b is not None)
    if kind is int:
        typed = lambda v: type(v) is int  # noqa: E731
        names = {"": "an int", ">= 0": "a non-negative int"}
        desc = names.get(bounds, f"an int {bounds}")
    else:
        typed = lambda v: _real(v) and (type(v) is int or math.isfinite(v))  # noqa: E731
        names = {"": "a number", "> 0": "finite and positive"}
        names[f"> {gt} < {lt}"] = f"in ({gt}, {lt})"
        desc = names.get(bounds, f"a finite number {bounds}")
    if not bounds:
        exact = {int} if kind is int else {int, float}
        return _Type(desc, typed if kind is int else _real, exact=exact)
    return _Type(desc, lambda v: (
        typed(v) and (ge is None or v >= ge) and (gt is None or v > gt) and (lt is None or v < lt)
    ))


def _optional(inner: _Type) -> _Type:
    test, read = inner.test, inner.read
    return _Type(
        inner.desc, lambda v: v is None or test(v),
        read=read and (lambda raw, label: None if raw is None else read(raw, label)),
        write=inner.write, exact=inner.exact | {type(None)}, locate=inner.locate,
    )


def _payload(cls: type[Payload]) -> _Type:
    return _Type(
        f"a {cls.__name__}", lambda v: isinstance(v, cls),
        read=lambda raw, label: cls.from_dict(raw), write=lambda v: v.to_dict(), exact={cls},
    )


def _table(value: _Type) -> _Type:
    """``dict[str, V]``: a dict at construction, every entry at decode."""

    def read(raw: Any, label: str) -> dict:
        if not isinstance(raw, dict):
            raise table.error(raw, label)
        if not (set(map(type, raw)) <= {str} and set(map(type, raw.values())) <= value.exact):
            for key, entry in raw.items():
                if type(key) is not str:
                    raise ApiError(f"{label} keys must be strings, got {key!r}")
                if not value.test(entry):
                    raise value.error(entry, f"{label}[{key!r}]")
        return dict(raw)

    table = _Type("a dict", lambda v: isinstance(v, dict), read, dict, {dict})
    return table


def _nested(value: Any, kind: type) -> Any:
    """``value`` with every list or tuple in it, at any depth, made a ``kind``."""
    if type(value) in (list, tuple):
        return kind(_nested(x, kind) for x in value)
    return value


def _tuple(items: list[_Type], variadic: bool) -> _Type:
    """``tuple[T, ...]`` or ``tuple[A, B]`` of numbers or tuples: a list on
    the wire, a tuple once read."""

    def shape(value: Any) -> list[_Type] | None:
        """The type of each entry of ``value``; None when it is not so shaped."""
        if type(value) not in (tuple, list):
            return None
        if variadic:
            return items * len(value)
        return items if len(value) == len(items) else None

    def test(value: Any) -> bool:
        kinds = shape(value)
        return kinds is not None and all(kind.test(x) for kind, x in zip(kinds, value))

    def locate(value: Any, label: str) -> ApiError | None:
        kinds = shape(value)
        bad = [] if kinds is None else [i for i, x in enumerate(value) if not kinds[i].test(x)]
        return kinds[bad[0]].error(value[bad[0]], f"{label}[{bad[0]}]") if bad else None

    def read(raw: Any, label: str) -> tuple:
        if not test(raw):
            raise sequence.error(raw, label)
        return _nested(raw, tuple)

    desc = "a list" if variadic else {2: "a pair", 3: "a triple"}.get(len(items), "a list")
    sequence = _Type(desc, test, read, lambda v: _nested(v, list), locate=locate)
    return sequence


def _union(members: list[_Type]) -> _Type:
    """``A | B``: read by reference; a payload member writes its dict."""
    tests = [member.test for member in members]
    return _Type(
        " or ".join(member.desc for member in members),
        lambda v: any(test(v) for test in tests),
        write=lambda v: v.to_dict() if isinstance(v, Payload) else v,
        exact=frozenset().union(*(member.exact for member in members)),
    )


def _compile(hint: Any, bounds: tuple[Any, Any, Any]) -> _Type:
    """The :class:`_Type` of one resolved annotation."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint is Any:
        return _ANY
    if origin in (types.UnionType, typing.Union):
        members = [_compile(arg, bounds) for arg in args if arg is not type(None)]
        one = members[0] if len(members) == 1 else _union(members)
        return _optional(one) if type(None) in args else one
    if origin is typing.Literal:  # of strings
        return _Type(f"one of {', '.join(args)}", lambda v: isinstance(v, str) and v in args)
    if hint is bool:
        return _Type("a bool", lambda v: type(v) is bool, exact={bool})
    if hint is str:
        return _Type("a str", lambda v: isinstance(v, str), exact={str})
    if hint in (int, float):
        return _number(hint, *bounds)
    if origin is dict:
        return _table(_compile(args[1], bounds))
    if origin is tuple:
        variadic = args[-1] is Ellipsis
        items = args[:-1] if variadic else args
        return _tuple([_compile(arg, bounds) for arg in items], variadic)
    if isinstance(hint, type) and issubclass(hint, Payload):
        return _payload(hint)
    raise TypeError(f"no wire form for annotation {hint!r}")


class _Plan:
    def __init__(self, cls: type[Payload]) -> None:
        hints = typing.get_type_hints(cls)
        self.cls, self.kind = cls, cls.KIND
        self.noun = cls.NOUN or cls.KIND or cls.__name__
        self.names = [spec.name for spec in fields(cls)]
        self.known = set(self.names) | ({"schema", "kind"} if self.kind else set())
        self.checks, self.fields, self.writes = [], [], []
        for spec in fields(cls):
            meta = spec.metadata
            kind = _compile(hints[spec.name], (meta.get("ge"), meta.get("gt"), meta.get("lt")))
            default = None  # required
            if spec.default_factory is not MISSING:
                default = spec.default_factory
            elif spec.default is not MISSING:
                default = lambda value=spec.default: value  # noqa: E731
            label = meta.get("label") or spec.name
            self.checks.append((spec.name, kind.exact, kind.test, kind, label))
            self.fields.append((spec.name, kind.exact, kind.test, kind, label,
                                kind.read, meta.get("decode"), default))
            encode = meta.get("encode") or kind.write
            self.writes.append((spec.name, encode, meta.get("omit_none")))

    def check(self, payload: Payload) -> None:
        values = payload.__dict__
        for name, exact, test, kind, label in self.checks:
            value = values[name]
            if type(value) not in exact and not test(value):
                raise kind.error(value, label)

    def encode(self, payload: Payload) -> dict[str, Any]:
        out: dict[str, Any] = {"schema": SCHEMA_VERSION, "kind": self.kind} if self.kind else {}
        values = payload.__dict__
        for name, write, omit_none in self.writes:
            value = values[name]
            if value is None:
                if omit_none:
                    continue
            elif write is not None:
                value = write(value)
            out[name] = value
        return out

    def decode(self, data: Any) -> Payload:
        noun = self.noun
        if not isinstance(data, dict):
            raise ApiError(f"{noun} payload must be a dict, got {type(data).__name__}")
        if self.kind is not None and data.get("schema") != SCHEMA_VERSION:
            raise ApiError(
                f"unsupported {noun} schema {data.get('schema')!r}; this build "
                f"reads schema {SCHEMA_VERSION}"
            )
        if self.kind is not None and data.get("kind") != self.kind:
            raise ApiError(f"expected kind {self.kind!r}, got {data.get('kind')!r}")
        unknown = data.keys() - self.known
        if unknown:
            raise ApiError(
                f"unknown {noun} field(s): {', '.join(sorted(map(str, unknown)))}; "
                f"known: {', '.join(self.names) or '(none)'}"
            )
        payload = object.__new__(self.cls)
        values = payload.__dict__
        for name, exact, test, kind, label, read, decode, default in self.fields:
            if name not in data:
                if default is None:
                    raise ApiError(f"{noun} payload is missing required field {name!r}")
                values[name] = default()
                continue
            if decode is None and read is not None:
                value = read(data[name], label)
            else:
                value = data[name] if decode is None else decode(data[name], values)
                if type(value) not in exact and not test(value):
                    raise kind.error(value, label)
            values[name] = value
        payload.validate()
        return payload


_plan = functools.cache(_Plan)


class Payload:
    """Base of every wire type (see the module doc).  ``KIND`` is a top-level
    payload's envelope ``kind`` (None: it travels only inside another);
    ``NOUN`` names it in messages (default: ``KIND`` or the class name)."""

    KIND: ClassVar[str | None] = None
    NOUN: ClassVar[str | None] = None

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        if "KIND" in cls.__dict__:
            KINDS[cls.KIND] = cls

    def __post_init__(self) -> None:
        _plan(type(self)).check(self)
        self.validate()

    def validate(self) -> None:
        """Cross-field rules: raise :class:`ApiError` when one is broken."""

    def to_dict(self) -> dict[str, Any]:
        """The JSON-ready payload, keys in field order."""
        return _plan(type(self)).encode(self)

    @classmethod
    def from_dict(cls, payload: Any) -> Any:
        """The checked payload that ``payload`` (a :meth:`to_dict` result,
        or a wire body) describes; :class:`ApiError` if it is malformed."""
        return _plan(cls).decode(payload)


def decode_kind(payload: Any, kinds: tuple[str, ...], what: str) -> Any:
    """The payload of whichever of ``kinds`` ``payload["kind"]`` names."""
    if not isinstance(payload, dict):
        raise ApiError(f"{what} payload must be a dict, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind not in kinds:
        raise ApiError(f"{what} payload kind must be one of {', '.join(kinds)}, got {kind!r}")
    return KINDS[kind].from_dict(payload)
