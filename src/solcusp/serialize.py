"""Deterministic report serialization.

JSON output is reproduced byte-for-byte across runs: keys are sorted,
separators fixed, and every float rendered with 17 significant digits
(enough to round-trip a double exactly).  Strings are escaped as
``json.dumps`` escapes them, non-ASCII characters kept, except that a lone
surrogate code point (U+D800 to U+DFFF, which UTF-8 cannot encode) is
written as the ``\\uxxxx`` escape of ``json.dumps(ensure_ascii=True)``, so
every report encodes to UTF-8 and parses.  CSV rows use the same float
rendering.
"""

from __future__ import annotations

import re
from json.encoder import encode_basestring

import numpy as np

__all__ = ["format_float", "to_json_text", "write_csv_text"]

_SURROGATE = re.compile("[\ud800-\udfff]")
# what format(x, ".17g") writes for a NaN (of either sign) and for +-inf
_NON_FINITE = frozenset(("nan", "inf", "-inf"))


def format_float(x: float) -> str:
    text = format(float(x), ".17g")
    return f'"{text}"' if text in _NON_FINITE else text


def _encode(obj, out: list) -> None:
    # floats first, the most common item; bool is an int but never a float
    if isinstance(obj, float):
        out.append(format_float(obj))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(encode_basestring(obj))
    elif isinstance(obj, int):
        out.append(str(int(obj)))
    elif isinstance(obj, dict):
        out.append("{")
        for n, key in enumerate(sorted(obj, key=str)):
            if n:
                out.append(",")
            _encode(str(key), out)
            out.append(":")
            _encode(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for n, item in enumerate(obj):
            if n:
                out.append(",")
            _encode(item, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def to_json_text(obj) -> str:
    out: list[str] = []
    _encode(obj, out)
    return _SURROGATE.sub(lambda m: "\\u%04x" % ord(m.group()), "".join(out)) + "\n"


def write_csv_text(header, rows) -> str:
    """CSV text of a header and a 2-D table of floats, one line per row."""
    table = np.asarray(rows, dtype=float)
    line = ",".join(["%.17g"] * table.shape[-1])  # format(x, ".17g"), nan and inf bare
    return "\n".join([",".join(header), *(line % tuple(row) for row in table.tolist())]) + "\n"
