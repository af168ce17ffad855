"""Recursive payload writer: the oracle for carleman.cli's JSON and CSV text.

The toolkit's first writer, kept as plain functions.  It formats a payload
one value at a time, recursing into every dict, list, tuple and ndarray,
with finite floats as "%.17g" and the others as the JSON tokens Infinity,
-Infinity and NaN (CSV cells keep "%.17g" for every float); the jets
payload goes through it as the plain dicts of jet_to_dict.
"""

from __future__ import annotations

import json
import math

from carleman.errors import ConfigError


def _fmt(v: float) -> str:
    return "%.17g" % float(v)


def _json_text(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if hasattr(obj, "item") and not hasattr(obj, "__len__"):
        obj = obj.item()
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [f'{pad}  {json.dumps(str(k))}: {_json_text(v, indent + 1)}'
                for k, v in obj.items()]
        return "{\n" + ",\n".join(rows) + f"\n{pad}}}"
    if isinstance(obj, (list, tuple)) or type(obj).__name__ == "ndarray":
        items = list(obj)
        if not items:
            return "[]"
        rows = [f"{pad}  {_json_text(v, indent + 1)}" for v in items]
        return "[\n" + ",\n".join(rows) + f"\n{pad}]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, complex):
        return _json_text([obj.real, obj.imag], indent)
    if isinstance(obj, float):
        if math.isnan(obj):
            return "NaN"
        return {math.inf: "Infinity", -math.inf: "-Infinity"}.get(obj, _fmt(obj))
    return json.dumps(str(obj))


def _csv_text(header, rows) -> str:
    if not rows:
        raise ConfigError("refusing to write an empty report")
    out = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if hasattr(v, "item"):
                v = v.item()
            if isinstance(v, bool):
                cells.append("true" if v else "false")
            elif isinstance(v, int):
                cells.append(str(v))
            elif isinstance(v, float):
                cells.append(_fmt(v))
            else:
                cells.append(str(v))
        out.append(",".join(cells))
    return "\n".join(out) + "\n"

