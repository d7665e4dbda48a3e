"""One mutation of a JSON document, as the bytes a reader is handed.

A mutation sets one node of the document to an odd value, or gives the
document in one of the byte forms Python's JSON reader refuses. This module
uses the standard library only, so that a stub external solver can import
it to mutate its own reply.
"""

import json

#: values for a single node: signs, counts past every bound, the float
#: extremes, a subnormal, a fraction, and one value of each other JSON kind
ODD_VALUES = (0, -1, 2**31, 2**64, 1e308, -1e308, 1e-320, 0.5, "x", None, True, [], {},
              [1e308], [-1])

#: byte forms no reader may take as a document: "latin-1" writes a string
#: node outside UTF-8, "utf-16" encodes the whole document, "digits" is an
#: integer past Python's 4300-digit limit, and "deep" and "deep-990" nest
#: 200,000 and 990 deep, past the reader's bound of 100 levels
REFUSED = BYTE_FORMS = ("latin-1", "utf-16", "digits", "deep", "deep-990")
_RAW = {"digits": "1" * 5000, "deep": "[" * 200_000 + "]" * 200_000,
        "deep-990": "[" * 990 + "]" * 990}


def paths(doc, path=()):
    """The path of every node of `doc`, the root first; a list is entered at
    its first entry only, so that long arrays do not crowd out the rest."""
    yield path
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from paths(value, (*path, key))
    elif isinstance(doc, list) and doc:
        yield from paths(doc[0], (*path, 0))


def mutated(doc, path, form: str, value=None) -> bytes:
    """`doc` as UTF-8 JSON with the node at `path` set to `value` (form
    "value"), or written in one of `BYTE_FORMS` at that node."""
    doc = json.loads(json.dumps(doc))  # a deep copy
    if form != "utf-16":  # which encodes the document as it is
        node = {"value": value, "latin-1": "é"}.get(form, "\0")  # \0 marks raw text
        if path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]] = node
        else:
            doc = node
    text = json.dumps(doc, ensure_ascii=False).replace('"\\u0000"', _RAW.get(form, ""))
    return text.encode(form if form in ("latin-1", "utf-16") else "utf-8")
