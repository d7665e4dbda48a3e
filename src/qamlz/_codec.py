"""The JSON mirror of the model and generator-spec dataclasses.

The dataclass fields are the file format. Writing is `dataclasses.asdict`
dumped with `json.dumps(..., default=np.ndarray.tolist)`; reading is
`from_json`, which rebuilds a value from the type hints of those fields.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from collections.abc import Mapping
from dataclasses import MISSING

import numpy as np


def _mapping(doc) -> Mapping:
    if not isinstance(doc, Mapping):
        raise TypeError(f"expected a JSON object, got {type(doc).__name__}")
    return doc


def from_json(kind, doc):
    """`doc`, a parsed JSON value, read as a value of the type `kind`.

    A dataclass is rebuilt field by field; an absent key takes the field's
    default, or raises `KeyError` when the field has none. `X | None` gives
    None or an X, `np.ndarray` a float64 array, `tuple[X, ...]` and
    `Mapping[str, X]` convert each entry, and a fixed `tuple[X, Y]` must have
    exactly that many entries. `int` and `float` go through `int()` and
    `float()`; any other kind is passed through unchanged.
    """
    if dataclasses.is_dataclass(kind):
        doc, hints = _mapping(doc), typing.get_type_hints(kind)
        return kind(**{
            f.name: from_json(hints[f.name], doc[f.name])
            for f in dataclasses.fields(kind)
            if f.name in doc or (f.default is MISSING and f.default_factory is MISSING)
        })
    origin, args = typing.get_origin(kind), typing.get_args(kind)
    if origin in (typing.Union, types.UnionType):  # X | None
        (inner,) = (a for a in args if a is not type(None))
        return None if doc is None else from_json(inner, doc)
    if kind is np.ndarray:
        return np.asarray(doc, dtype=np.float64)
    if origin is tuple:
        if args[1:] == (...,):
            return tuple(from_json(args[0], v) for v in doc)
        return tuple(from_json(a, v) for a, v in zip(args, doc, strict=True))
    if origin is Mapping:
        return {k: from_json(args[1], v) for k, v in _mapping(doc).items()}
    return kind(doc) if kind in (int, float) else doc
