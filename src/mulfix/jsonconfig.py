"""The JSON form of every config dataclass, read and written by one codec.

A config class inherits :class:`JsonConfig`.  Writing puts each field under
its name, or under ``metadata["json"]`` where the JSON key differs, and
leaves out fields that are ``None``; tuples become lists, and a nested
config or a class with ``to_json`` (such as ``Box``) writes itself.

Reading checks each key against its field's annotated type.  An ``int``
takes a JSON integer, a ``float`` an integer or a real (kept as given, so a
config echoes the bytes it was read from), and neither takes a bool.  An
unknown key, a missing required key or a value of the wrong JSON type
raises :class:`ConfigError` naming the key; the class's own checks raise
their own errors.  A config read as a field of another turns every error
into a ``ConfigError`` whose ``field`` is the key of the outermost config,
with the path below it in the message
(``solver: max_iter: expected int, got 20.5``).
"""

from __future__ import annotations

import dataclasses
import types
import typing

from .errors import ConfigError, MulfixError


def decode(tp, value, key: str | None = None, at: str = ""):
    """``value`` read as type ``tp``; errors name ``key`` and the path ``at`` below it.

    A tuple type also takes a Python tuple, for specs built in code.
    """

    def fail(expected: str):
        where = f" at {at}" if at else ""
        raise ConfigError(f"expected {expected}{where}, got {value!r}", field=key)

    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin in (typing.Union, types.UnionType):  # Optional[X]: null or an X
        if value is None:
            return None
        (tp,) = [a for a in args if a is not type(None)]
        return decode(tp, value, key, at)
    if origin is typing.Literal:
        if not (isinstance(value, str) and value in args):
            fail("one of " + ", ".join(args))
        return value
    if tp is tuple or origin is tuple:
        if not isinstance(value, (list, tuple)):
            fail("a list")
        if not args:
            return tuple(value)
        items = args[:1] * len(value) if args[1:] == (...,) else args
        if len(items) != len(value):
            fail(f"a list of {len(items)}")
        return tuple(decode(t, v, key, f"{at}[{i}]")
                     for i, (t, v) in enumerate(zip(items, value)))
    read = getattr(tp, "from_json_dict", None) or getattr(tp, "from_json", None)
    if read is not None:  # a nested config, or a class such as Box
        try:
            return read(value)
        except MulfixError as exc:
            raise ConfigError(str(exc), field=key) from None
    if (not isinstance(value, (int, float) if tp is float else tp)
            or isinstance(value, bool) and tp is not bool):
        fail(tp.__name__)
    return dict(value) if tp is dict else value


def _encode(value):
    if isinstance(value, JsonConfig):
        return value.to_json_dict()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return dict(value)
    return value.to_json() if hasattr(value, "to_json") else value


def _keys(cls) -> dict:
    return {f.metadata.get("json", f.name): f for f in dataclasses.fields(cls)}


class JsonConfig:
    """Mixin for a config dataclass: its JSON form, as the module describes."""

    def to_json_dict(self) -> dict:
        values = ((key, getattr(self, f.name)) for key, f in _keys(self).items())
        return {key: _encode(v) for key, v in values if v is not None}

    @classmethod
    def from_json_dict(cls, data):
        if not isinstance(data, dict):
            raise ConfigError(f"expected an object, got {data!r}")
        keys, hints = _keys(cls), typing.get_type_hints(cls)
        for key in data:
            if key not in keys:
                raise ConfigError("unknown field", field=key)
        kwargs = {}
        for key, f in keys.items():
            if key in data:
                kwargs[f.name] = decode(hints[f.name], data[key], key)
            elif f.default is dataclasses.MISSING:
                raise ConfigError("missing required field", field=key)
        return cls(**kwargs)
