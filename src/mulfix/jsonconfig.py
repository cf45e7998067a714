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

:func:`dump_json` writes any such tree as strict JSON text, byte for byte
what ``json.dumps(data, indent=2, allow_nan=False)`` writes, except that a
non-finite float becomes ``null`` instead of an error.  :func:`stream_json`
writes the same text to a binary file without holding all of it.  Both
append the text in pieces to one kind of list, a sink, which ``stream_json``
gives its file.  An object with a ``write_json(out, nl)`` method (a column
table of records, one a line) appends its own text to the sink ``out``,
given the newline and indentation of its line, and may call ``out.drain()``
between its pieces: a sink with a file then writes the pieces so far and
forgets them, and a sink without one keeps them.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
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
    if tp is float:
        try:
            float(value)
        except OverflowError:
            fail("a number within float range")
    return dict(value) if tp is dict else value


def is_integer(value) -> bool:
    """Whether ``operator.index`` takes value (an int or numpy integer) and it is no bool."""
    return hasattr(type(value), "__index__") and not isinstance(value, bool)


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


# -- writing JSON text ---------------------------------------------------------

_string = json.encoder.encode_basestring_ascii


def _float(x: float) -> str:
    """A float as ``json.dumps`` writes it, or ``null`` when it is not finite."""
    return repr(x) if math.isfinite(x) else "null"


# Writers of the plain scalar types, by exact type; subclasses take the
# slower isinstance path in _write, as json.dumps reads them.
_SCALARS = {str: _string, int: int.__repr__, float: _float,
            bool: lambda b: "true" if b else "false", type(None): lambda _: "null"}


def _key(k) -> str:
    """A dict key as json.dumps writes it; every tree mulfix writes has str keys."""
    if not isinstance(k, str):
        raise TypeError(f"keys must be str, not {type(k).__name__}")
    return _string(k)


_NUMBERS = {int, float}


def _numbers(value: list | tuple, nl: str) -> str | None:
    """The text ``_write`` gives a non-empty list of exact ints and floats, or
    of equal-width non-empty rows of them, made in one join or one row
    template; None for any other list."""
    inner = nl + "  "
    kinds = set(map(type, value))
    if kinds <= _NUMBERS:
        flat, template = value, None
    elif kinds <= {list, tuple} and len(widths := set(map(len, value))) == 1 \
            and 0 not in widths:
        flat = list(itertools.chain.from_iterable(value))
        if not set(map(type, flat)) <= _NUMBERS:
            return None
        cell = "," + inner + "  "
        row = "[" + inner + "  " + cell.join(["%s"] * widths.pop()) + inner + "]"
        template = "[" + inner + ("," + inner).join([row] * len(value)) + nl + "]"
    else:
        return None

    def lay(texts):
        if template is None:
            return "[" + inner + ("," + inner).join(texts) + nl + "]"
        return template % tuple(texts)

    # repr is int.__repr__ or float.__repr__ on these exact types; only a
    # non-finite float's text ("nan", "inf", "-inf") holds the letter n
    text = lay(map(repr, flat))
    if "n" in text:
        text = lay(_float(v) if type(v) is float else repr(v) for v in flat)
    return text


def _write(value, nl: str, out: list) -> None:
    """Append ``value`` as indented JSON text to ``out``, in pieces; lines
    below its first start with ``nl``."""
    write = _SCALARS.get(type(value))
    if write is not None:
        out.append(write(value))
        return
    inner = nl + "  "
    if isinstance(value, (list, tuple)):
        text = _numbers(value, nl) if value else None
        if text is not None:
            out.append(text)
            return
        sep = "[" + inner
        for v in value:
            out.append(sep)
            _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "]" if value else "[]")
    elif isinstance(value, dict):
        sep = "{" + inner
        for k, v in value.items():
            out.append(sep + _key(k) + ": ")
            _write(v, inner, out)
            sep = "," + inner
        out.append(nl + "}" if value else "{}")
    elif hasattr(value, "write_json"):
        value.write_json(out, nl)
    elif isinstance(value, float):  # a subclass, whose repr json.dumps does not call
        out.append(float.__repr__(value) if math.isfinite(value) else "null")
    else:
        for tp in (str, int):  # subclasses such as an IntEnum
            if isinstance(value, tp):
                out.append(_SCALARS[tp](value))
                return
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


class _Sink(list):
    """Pieces of JSON text; given a binary file, ``drain`` writes them to it,
    UTF-8 encoded, and forgets them, and otherwise keeps them."""

    __slots__ = ("file",)

    def __init__(self, file=None):
        super().__init__()
        self.file = file

    def drain(self) -> None:
        if self.file is not None:
            self.file.write("".join(self).encode())
            self.clear()


def dump_json(data) -> str:
    """Strict JSON text of a tree, ending in a newline.

    The bytes of ``json.dumps(data, indent=2, allow_nan=False) + "\n"``,
    except that a NaN or an infinity is written as null and that pair records
    are written one a line: the same JSON value.
    """
    out = _Sink()
    _write(data, "\n", out)
    out.append("\n")
    return "".join(out)


def stream_json(data, file) -> None:
    """Write ``dump_json(data)``, UTF-8 encoded, to the binary ``file``, a
    block of pieces at a time."""
    out = _Sink(file)
    _write(data, "\n", out)
    out.append("\n")
    out.drain()
