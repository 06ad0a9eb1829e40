"""The file formats photonsim writes: floats at 9 significant digits, indent-2
ASCII JSON and LF-ended CSV, each file written atomically. Imports neither
photonsim nor numpy, so the numpy-free cost model writes through it too."""
from __future__ import annotations

import csv
import io
import math
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np


def fmt(x: float) -> str:
    return f"{x:.9g}"


_INDENT = "  "


class _Pieces(list):
    """A JSON text kept as a list of strings that are never joined: the rows
    of arrays, written to the file one at a time. A string added in front
    of it (a dict key) becomes its first piece."""

    def __radd__(self, prefix: str) -> "_Pieces":
        return _Pieces([prefix, *self])


def _block(items: list, depth: int, brackets: str):
    """A JSON array or object at nesting `depth` holding the encoded `items`;
    _Pieces if an item is."""
    pad = "\n" + _INDENT * (depth + 1)
    try:
        return brackets[0] + pad + ("," + pad).join(items) + "\n" + _INDENT * depth + brackets[1]
    except TypeError:  # join takes only strings
        pieces = _Pieces([brackets[0] + pad])
        for i, item in enumerate(items):
            if i:
                pieces.append("," + pad)
            pieces += item if type(item) is _Pieces else [item]
        pieces.append("\n" + _INDENT * depth + brackets[1])
        return pieces


def _row_texts(a: np.ndarray, depth: int) -> list[str]:
    """JSON texts of the rows of 2-D float64 array `a` at nesting `depth`.

    "%.9g" prints what repr(float(fmt(v))) prints, because 9 significant
    digits survive the round trip through a normal double. It prints
    another layout for an integer value (no ".", or "-0") and for exponents
    9 to 15, and fewer digits may survive a subnormal. A row holding a value
    within 1e-8 |v| of an integer (every |v| >= 5e7 is), a subnormal or a
    non-finite value goes float by float through _encode."""
    np = sys.modules["numpy"]  # imported by whoever made `a`
    m = np.abs(a)
    with np.errstate(invalid="ignore"):  # inf - inf; nan and inf fail the test
        plain = ((m >= sys.float_info.min) & (np.abs(m - np.rint(m)) > 1e-8 * m)).all(axis=1)
    template = _block(["%.9g"] * a.shape[1], depth, "[]")  # one % call per row
    return [template % tuple(row) if ok else _encode(row, depth, {})
            for row, ok in zip(map(np.ndarray.tolist, a), plain.tolist())]


def _array_text(a: np.ndarray, depth: int, seen: dict):
    """The text of a.tolist(); for a non-empty 2-D float64 array _Pieces
    holding its rows. Such an array is formatted once per document:
    `seen` maps its id to its row texts, which an occurrence at another
    depth shifts, as a formatted float holds no newline."""
    np = sys.modules["numpy"]
    if type(a) is not np.ndarray or a.dtype != np.float64 or a.ndim != 2 or not a.size:
        return _encode(a.tolist(), depth, seen)
    first, row_depth, rows = seen.get(id(a), (None, 0, None))
    if first is not a:
        row_depth, rows = depth + 1, _row_texts(a, depth + 1)
        seen[id(a)] = (a, row_depth, rows)
    elif row_depth != depth + 1:
        old, new = "\n" + _INDENT * row_depth, "\n" + _INDENT * (depth + 1)
        rows = [text.replace(old, new) for text in rows]
    return _block([_Pieces([row]) for row in rows], depth, "[]")


def _encode(obj, depth: int, seen: dict):
    """json.dumps(obj, indent=2) at nesting `depth`, with floats at 9
    significant digits and non-finite floats as strings; an ndarray is
    written as its tolist(). One string, or _Pieces where `obj` holds an
    array's rows. `seen` records the document's formatted arrays
    (_array_text)."""
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            return encode_basestring_ascii(str(obj))  # JSON has no literal for nan and inf
        return repr(float(fmt(obj)))
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return _block([_encode(v, depth + 1, seen) for v in obj], depth, "[]")
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring_ascii(key) + ": " + _encode(value, depth + 1, seen))
        return _block(items, depth, "{}")
    np = sys.modules.get("numpy")  # no ndarray exists before numpy is imported
    if np is not None and isinstance(obj, np.ndarray):
        return _array_text(obj, depth, seen)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _atomic_write(path: str, pieces: list[str]) -> None:
    """Write the concatenated `pieces` to `path` through a temporary file."""
    # created through the umask like a plain open(); O_EXCL never reuses a stray file
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    text = _encode(obj, 0, {})
    _atomic_write(path, (text if type(text) is _Pieces else [text]) + ["\n"])


def write_csv(path: str, header: list[str], rows) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([fmt(v) if isinstance(v, float) else v for v in row])
    _atomic_write(path, [buf.getvalue()])


def _non_finite(obj) -> bool:
    """Whether a JSON document holds a NaN or an infinity."""
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        return any(map(_non_finite, obj.values()))
    return isinstance(obj, (list, tuple)) and any(map(_non_finite, obj))
