"""The one JSON writer of slopechar's documents.

`dumps(doc)` returns the text of `json.dumps(doc, indent=2, sort_keys=True)`
and `dumps(doc, None)` that of `json.dumps(doc, sort_keys=True)`, for
documents of dicts with str keys, lists, tuples, strs, ints, floats, bools
and None.  `json.dumps` with an indent runs the pure-Python encoder, one
generator per container; here the text is appended to one list of parts, a
key with its str, int or list-of-ints value makes one part, and a list of
ints is joined in one step.  Strings and keys are escaped by
`json.encoder.encode_basestring_ascii`, as `json.dumps` escapes them, and
every other scalar (float, bool, None) is left to `json.dumps` itself, so a
float keeps its repr.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as string

__all__ = ["dumps", "string"]

_int = int.__repr__
_INTS = {int}


def dumps(doc, indent=2) -> str:
    """The text of `json.dumps(doc, indent=indent, sort_keys=True)`."""
    step = "" if indent is None else " " * indent
    parts = []
    put = parts.append

    def write(x, nl):
        # nl: the line break and indent of x's own line, "" on one line;
        # the items of x go one step deeper, separated by `comma`
        inner = nl + step
        comma = "," + (inner or " ")
        t = type(x)
        if t is dict:
            if not x:
                put("{}")
                return
            sep = "{" + inner
            for k, v in sorted(x.items()):
                key = sep + string(k) + ": "
                sep = comma
                tv = type(v)
                if tv is int:
                    put(key + _int(v))
                elif tv is str:
                    put(key + string(v))
                elif (tv is list or tv is tuple) and v and set(map(type, v)) == _INTS:
                    deeper = inner + step
                    put(key + "[" + deeper + ("," + (deeper or " ")).join(map(_int, v))
                        + inner + "]")
                else:
                    put(key)
                    write(v, inner)
            put(nl + "}")
        elif t is list or t is tuple:
            if not x:
                put("[]")
            elif set(map(type, x)) == _INTS:
                put("[" + inner + comma.join(map(_int, x)) + nl + "]")
            else:
                sep = "[" + inner
                for v in x:
                    put(sep)
                    sep = comma
                    write(v, inner)
                put(nl + "]")
        elif t is str:
            put(string(x))
        elif t is int:
            put(_int(x))
        else:
            put(json.dumps(x))

    write(doc, "" if indent is None else "\n")
    return "".join(parts)
