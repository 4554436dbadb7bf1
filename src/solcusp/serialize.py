"""Deterministic report serialization.

JSON output is reproduced byte-for-byte across runs: keys are sorted,
separators fixed, and every float rendered with 17 significant digits
(enough to round-trip a double exactly).  Strings are escaped as
``json.dumps`` escapes them, non-ASCII characters kept.  CSV rows use the
same float rendering.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["format_float", "to_json_text", "write_csv_text"]


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def _encode(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(format_float(obj))
    elif isinstance(obj, np.ndarray):
        _encode(obj.tolist(), out)
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
    return "".join(out) + "\n"


def write_csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, (float, np.floating)):
                cells.append(format_float(float(cell)).strip('"'))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
