"""The one reader of JSON the program takes in: `read_json` turns the bytes
of the config, `model.json` and an external-solver reply into a document,
and `from_json` reads typed values from it: config sections, the inline
generator spec and `model.json`.

The model and spec dataclass fields are their file format. Writing is
`dataclasses.asdict` dumped with `json.dumps(..., default=np.ndarray.tolist)`;
reading is `from_json`, which rebuilds a value from the type hints of those
fields.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import sys
import types
import typing
from collections.abc import Mapping
from dataclasses import MISSING

import numpy as np

from .errors import ConfigError


def is_number(v) -> bool:
    """A JSON number: int or float, not bool (nor a numeric string)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def is_finite(v) -> bool:
    """A JSON number that is a finite float: JSON admits NaN and Infinity,
    and an integer too large for a float."""
    return is_number(v) and abs(v) <= sys.float_info.max


#: the deepest nesting of arrays and objects a document may have; a valid
#: config, model.json or reply nests fewer than 10 levels. It is checked
#: before parsing: Python's reader refuses a deep document only where it
#: runs out of stack, which depends on the caller's stack and recursion limit.
MAX_DEPTH = 100
_NON_BRACKETS = bytes(sorted(set(range(256)) - set(b"[]{}")))
_STEP = {ord("["): 1, ord("{"): 1, ord("]"): -1, ord("}"): -1}


def _depth(raw: bytes) -> int:
    """The deepest nesting of arrays and objects in the JSON text `raw`,
    counted without recursion: the running sum over the brackets outside
    strings, once escaped backslashes and quotes are dropped. No byte of a
    multi-byte UTF-8 character is a bracket, a quote or a backslash."""
    unescaped = raw.replace(b"\\\\", b"").replace(b'\\"', b"")
    brackets = b"".join(unescaped.split(b'"')[::2]).translate(None, _NON_BRACKETS)
    return max(itertools.accumulate(map(_STEP.__getitem__, brackets)), default=0)


def read_json(raw: bytes, error: type[Exception], what: str):
    """The JSON document in `raw`, which must be UTF-8 text. Bytes that are
    not, text that is not JSON, an integer beyond Python's 4300-digit limit
    and a document nested deeper than `MAX_DEPTH` raise `error` naming
    `what`."""
    try:
        # decoded first: handed bytes, Python's reader would also take UTF-16 and UTF-32
        text = raw.decode("utf-8")
        if _depth(raw) <= MAX_DEPTH:
            return json.loads(text)
    except RecursionError:  # a caller's stack so deep that less nesting overflows it
        pass
    except ValueError as exc:  # ValueError covers both decode errors
        raise error(f"{what} is not valid JSON: {exc}") from exc
    raise error(f"{what} is not valid JSON: nested deeper than {MAX_DEPTH} levels")


def shown(doc) -> str:
    """`doc` as JSON for a message; one nested too deep to encode is named
    by its kind."""
    try:
        return json.dumps(doc)
    except RecursionError:
        return f"a {type(doc).__name__} nested too deep to show"


#: kind -> (what a value must be, the test it must pass)
_KINDS = {
    # an integer may be written as an integral number such as 8.0
    int: ("an integer", lambda v: is_number(v) and (isinstance(v, int) or v.is_integer())),
    float: ("a finite number", is_finite),
    bool: ("true or false", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    list: ("a list", lambda v: isinstance(v, list)),
    Mapping: ("an object", lambda v: isinstance(v, Mapping)),
}


def _check(kind, doc, where: str):
    what, test = _KINDS[kind]
    if not test(doc):
        raise ConfigError(f"{where or 'config'} must be {what}, got {shown(doc)}")
    return doc


def did_you_mean(name: str, known) -> str:
    """A message tail naming the closest of `known` to `name`,
    " (did you mean 'x'?)", or "" when none is close."""
    import difflib  # only a bad document pays for the import

    close = difflib.get_close_matches(name, list(known), n=1)
    return f" (did you mean {close[0]!r}?)" if close else ""


def from_json(kind, doc, where: str, **given):
    """`doc`, a parsed JSON value, read as a value of the type `kind`; any
    error is a `ConfigError` naming the dotted path, `where`, of the bad value.

    A bool, int, float or str must pass its `_KINDS` test and is converted
    to `kind`. `X | None` gives None or an X, `np.ndarray` a float64 array
    from a rectangular list of finite numbers, `tuple[X, ...]` and
    `Mapping[str, X]` read each entry, a fixed `tuple[X, Y]` must have
    exactly that many entries, and `object` passes any value through. A
    table `{key: kind}` gives {key: value} for the keys present. A dataclass
    is read as the table of its fields, keyed by `metadata["key"]` where a
    field has one; an absent key takes the field's default, or is an error
    when the field has none. `given` sets fields of the outermost dataclass,
    which are then not read. A key that is not in the table or dataclass is
    an error.
    """
    at = f"{where}." if where else ""
    if dataclasses.is_dataclass(kind):
        hints = typing.get_type_hints(kind)
        fields = {f.metadata.get("key", f.name): f
                  for f in dataclasses.fields(kind) if f.name not in given}
        values = from_json({k: hints[f.name] for k, f in fields.items()}, doc, where)
        for key, f in fields.items():
            if key not in values and f.default is MISSING and f.default_factory is MISSING:
                raise ConfigError(f"{at}{key} is missing")
        return kind(**given, **{fields[k].name: v for k, v in values.items()})
    if isinstance(kind, Mapping):
        unknown = [k for k in _check(Mapping, doc, where) if k not in kind]
        if unknown:
            raise ConfigError(f"{where or 'config'} has an unknown key "
                              f"{unknown[0]!r}{did_you_mean(unknown[0], kind)}")
        return {k: from_json(kind[k], v, at + k) for k, v in doc.items()}
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):  # X | None
        (inner,) = (a for a in args if a is not type(None))
        return None if doc is None else from_json(inner, doc, where)
    if kind is np.ndarray:
        # a ragged list gives an array of lists, which are not numbers; ravel,
        # as numpy's iterator (`flat`) refuses an array of more than 32 dimensions
        arr = np.array(_check(list, doc, where), dtype=object)
        if not all(map(is_finite, arr.ravel())):
            raise ConfigError(f"{where} must be a rectangular list of finite numbers")
        return arr.astype(np.float64)
    if origin is tuple:
        items = _check(list, doc, where)
        if args[1:] == (...,):
            args = args[:1] * len(items)
        elif len(items) != len(args):
            raise ConfigError(f"{where} must be a list of {len(args)} entries, "
                              f"got {shown(doc)}")
        return tuple(from_json(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, items)))
    if origin is Mapping:
        return {k: from_json(args[1], v, at + k) for k, v in _check(Mapping, doc, where).items()}
    if kind is object:
        return doc
    return kind(_check(kind, doc, where))
