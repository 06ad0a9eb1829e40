"""The file formats photonsim writes: floats at 9 significant digits, indent-2
ASCII JSON and LF-ended CSV, each file written atomically. Imports neither
photonsim nor numpy, so the numpy-free cost model writes through it too."""
from __future__ import annotations

import csv
import functools
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
    """A JSON text kept as a list of pieces that are never joined: strings,
    and iterators that format an array's rows a block at a time as the file
    is written. A string added in front of it (a dict key) becomes its first
    piece."""

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


def _float_text(x: float, text: str | None = None) -> str:
    """x at 9 significant digits as JSON, repr(float(fmt(x))), made from
    `text` where it is fmt(x) already; nan and inf as strings. A 9-digit text
    is the shortest one of a normal float, so where repr and "%.9g" choose
    the same notation the text is already repr's."""
    if text is None:
        text = f"{x:.9g}"  # fmt, inlined
    if "e" in text:  # repr writes e-notation only below 1e-4 and from 1e16
        return text if "e-" in text and abs(x) >= sys.float_info.min else repr(float(text))
    if "." in text:
        return text
    if math.isfinite(x):
        return text + ".0"  # an integer, which repr writes with a point
    return encode_basestring_ascii(text)  # JSON has no literal for nan and inf


# "%.9g" of a normal float64 v is the integer n = rint(|v| * 10^k) in
# [1e8, 1e9), with k = 8 - floor(log10 |v|), written with X = 8 - k:
# fixed ("0.000123", "12.5") for -4 <= X < 9, else "1.25e-05". Every power
# 10^0..10^22 is exact in float64, so |v| * 10^k is off the exact product by
# at most half an ulp, 6e-8 below 1e9: rint gives the correctly rounded n
# unless that product lies within 1e-6 of a half.
_POW10 = [float(10 ** i) for i in range(23)]
# An element's text sits in 27 slots: sign, "0.000", d0 p0 d1 p1 ... p7 d8
# (the digits of n and the slots a point may follow them in), "e-XX".
# Zero bytes are padding, dropped once the block is laid out.
_SLOTS = 27
_BLOCK = 1 << 12  # elements laid out at a time, so that the temporaries stay small


@functools.cache
def _layouts() -> np.ndarray:
    """The slots of "%.9g" for each X in -14..8, count of significant digits
    and sign, at row ((X + 14) * 9 + digits - 1) * 2 + negative; a digit slot
    holds b"0", to which the digit is added. The last row is blank."""
    np = sys.modules["numpy"]
    rows = []
    for x in range(-14, 9):
        for digits in range(1, 10):
            for negative in (0, 1):
                row = bytearray(_SLOTS)
                row[0] = ord("-") * negative
                kept = max(digits, x + 1) if x >= 0 else digits  # an integer part keeps its zeros
                row[6:6 + 2 * kept:2] = b"0" * kept
                if x >= 0:
                    if digits > x + 1:
                        row[7 + 2 * x] = ord(".")
                elif x >= -4:
                    row[1:2 - x] = b"0." + b"0" * (-x - 1)
                else:
                    if digits > 1:
                        row[7] = ord(".")
                    row[23:] = b"e-%02d" % -x
                rows.append(bytes(row))
    rows.append(bytes(_SLOTS))
    return np.frombuffer(b"".join(rows), np.uint8).reshape(len(rows), _SLOTS)


def _rows_text(block: np.ndarray, cells: np.ndarray, head: str, tail: str) -> str:
    """The text of the rows of 2-D float64 array `block`, each between
    `head` and `tail`. `cells` holds each layout's element bytes, separator
    first and comma last.

    An element is written as _float_text writes it. That is its "%.9g" when
    it is plain: normal and not within 1e-8 |v| of an integer, where "%.9g"
    drops the point. Python writes a value that is not plain, or whose
    "%.9g" the arithmetic cannot vouch for."""
    np = sys.modules["numpy"]
    v = block.ravel()
    m = np.abs(v)
    with np.errstate(all="ignore"):  # the fallback's inf, nan and 0 go through too
        plain = m >= sys.float_info.min
        plain &= np.abs(m - np.rint(m)) > 1e-8 * m  # every |v| >= 5e7 fails
        fast = plain.copy()
        k = np.log10(m)
        np.floor(k, out=k)
        np.subtract(8, k, out=k)
        k = np.fmax(np.fmin(k, 22), 0).astype(np.intp)
        s = m * np.array(_POW10)[k]
        n = np.rint(s)
        fast &= np.abs(s - n) < 0.5 - 1e-6
        # out of range where k was cut to 0..22, or where log10 is off by one
        # next to a power of ten
        fast &= (s >= 1e8) & (s < 1e9)
        n = n.astype(np.uint32)
    carry = n == 10 ** 9
    n[carry] = 10 ** 8
    prefixes = n // np.array([10 ** (8 - j) for j in range(9)], np.uint32)[:, None]
    digits = np.empty(prefixes.shape, np.uint8)
    digits[0] = prefixes[0]
    np.subtract(prefixes[1:], 10 * prefixes[:-1], out=digits[1:], casting="unsafe")
    significant = ((digits != 0) * np.arange(1, 10, dtype=np.uint8)[:, None]).max(axis=0)
    # 22 - k + carry is X + 14
    layout = ((22 - k + carry) * 9 + significant - 1) * 2 + np.signbit(v)
    layout[~fast] = len(cells) - 1

    rows, cols = block.shape
    width = cells.shape[1]
    text = np.empty((rows, len(head) + cols * width + len(tail)), np.uint8)
    text[:, :len(head)] = np.frombuffer(head.encode("ascii"), np.uint8)
    text[:, text.shape[1] - len(tail):] = np.frombuffer(tail.encode("ascii"), np.uint8)
    body = text[:, len(head):len(head) + cols * width].reshape(rows, cols, width)
    np.take(cells, layout.reshape(rows, cols), axis=0, out=body)
    first = width - _SLOTS - 1 + 6  # the slot of d0
    for j in range(9):
        body[:, :, first + 2 * j] += digits[j].reshape(rows, cols)
    body[:, -1, -1] = 0  # no comma after a row's last element
    slow = np.flatnonzero(~fast)
    if slow.size:
        # in one % call: "%.9g" of a plain value, _float_text of another, padded
        # to the slots (a float's text has at most 24 characters)
        values, plain = v[slow].tolist(), plain[slow].tolist()
        as_float, as_text = f"%-{_SLOTS}.9g", f"%-{_SLOTS}s"
        template = "".join([as_float if ok else as_text for ok in plain])
        texts = template % tuple([x if ok else _float_text(x) for x, ok in zip(values, plain)])
        body[slow // cols, slow % cols, -1 - _SLOTS:-1] = np.frombuffer(
            texts.encode("ascii").replace(b" ", b"\0"), np.uint8).reshape(-1, _SLOTS)
    return text.tobytes().translate(None, b"\0").decode("ascii")


def _matrix_text(a: np.ndarray, depth: int):
    """The text of a.tolist() at nesting `depth` for a non-empty 2-D float64
    array `a`, laid out by numpy a block of rows at a time: yields one
    string per block, each formatted when it is asked for."""
    np = sys.modules["numpy"]
    layouts = _layouts()
    separator = np.frombuffer(("\n" + _INDENT * (depth + 2)).encode("ascii"), np.uint8)
    cells = np.concatenate([np.broadcast_to(separator, (len(layouts), separator.size)), layouts,
                            np.full((len(layouts), 1), ord(","), np.uint8)], axis=1)
    rows, cols = a.shape
    step = max(1, _BLOCK // cols)
    pad = "\n" + _INDENT * (depth + 1)
    yield "["
    for start in range(0, rows, step):
        text = _rows_text(a[start:start + step], cells, pad + "[", pad + "],")
        yield text if start + step < rows else text[:-1]  # no comma after the last row
    yield "\n" + _INDENT * depth + "]"


_SCALARS = {float: _float_text, str: encode_basestring_ascii, int: int.__repr__}


def _encode(obj, depth: int):
    """json.dumps(obj, indent=2) at nesting `depth`, with floats at 9
    significant digits and non-finite floats as strings; an ndarray is
    written as its tolist(). One string, or _Pieces where `obj` holds an
    array's rows."""
    kind = type(obj)
    scalar = _SCALARS.get(kind)  # an exact built-in type first: nearly every value is one
    if scalar is not None:
        return scalar(obj)
    if kind is not list and kind is not dict:
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        for base, scalar in _SCALARS.items():  # subclasses such as np.float64 and IntEnum
            if isinstance(obj, base):
                return scalar(obj)
        np = sys.modules.get("numpy")  # no ndarray exists before numpy is imported
        if np is not None and isinstance(obj, np.ndarray):
            if type(obj) is np.ndarray and obj.dtype == np.float64 and obj.ndim == 2 and obj.size:
                return _Pieces([_matrix_text(obj, depth)])
            return _encode(obj.tolist(), depth)
        if not isinstance(obj, (list, tuple, dict)):
            raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not isinstance(obj, dict):
        if not obj:
            return "[]"
        return _block([_encode(v, depth + 1) for v in obj], depth, "[]")
    if not obj:
        return "{}"
    items = []
    for key, value in obj.items():
        if not isinstance(key, str):
            raise TypeError(f"keys must be str, not {type(key).__name__}")
        items.append(encode_basestring_ascii(key) + ": " + _encode(value, depth + 1))
    return _block(items, depth, "{}")


def _atomic_write(path: str, pieces: list) -> None:
    """Write the concatenated `pieces`, strings and iterators of strings, to
    `path` through a temporary file, each string as it comes. If making or
    writing one raises, the file at `path` is left as it was."""
    # created through the umask like a plain open(); O_EXCL never reuses a stray file
    tmp = os.path.join(os.path.dirname(path) or ".", f".tmp-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            for piece in pieces:
                fh.writelines([piece] if type(piece) is str else piece)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path: str, obj) -> None:
    """Write `obj`, a JSON document or a Table, as JSON."""
    text = _table_json(obj) if type(obj) is Table else _encode(obj, 0)
    _atomic_write(path, (text if type(text) is _Pieces else [text]) + ["\n"])


class Table:
    """`rows` of one cell per `header` name, written as CSV (`write_csv`) or
    as JSON (`write_json`): a list of objects keyed by the header. A name
    that is a tuple of two or more names is a path through nested objects in
    the JSON, and the paths that share a first name are adjacent. The names
    differ."""

    def __init__(self, header: list, rows: list) -> None:
        self.header, self.rows = header, rows

    @functools.cached_property
    def cells(self) -> list[list] | None:
        """Each row as a list with its floats as their "%.9g" text, which
        every file of the table is made from, so that each float is
        formatted once. None if a float is not finite, found in the same
        pass; such a table cannot be written."""
        cells = []
        for row in self.rows:
            texts = []
            for v in row:
                if isinstance(v, float):
                    v = f"{v:.9g}"  # fmt, inlined
                    if "n" in v:  # nan, inf or -inf: no finite float's text has an n
                        return None
                texts.append(v)
            cells.append(texts)
        return cells


def write_csv(path: str, table: Table) -> None:
    text = _joined_csv(table.header, table.cells)
    if text is None:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([table.header, *table.cells])
        text = buf.getvalue()
    _atomic_write(path, [text])


def _joined_csv(header: list[str], cells: list[list]) -> str | None:
    """The CSV text of `header` and `cells` made by joining them, where that
    is csv.writer's text: every cell a str that needs no quotes (no comma,
    quote or line break) and no NUL (which Python 3.10's csv.writer
    refuses), and every row at least two cells (csv.writer quotes a lone
    empty one). None otherwise."""
    try:
        text = "".join([",".join(row) + "\n" for row in [header, *cells]])
    except TypeError:  # a cell that is not a str
        return None
    # a comma or a line break inside a cell shows as one too many in the text
    if ('"' in text or "\r" in text or "\0" in text or text.count("\n") != len(cells) + 1
            or text.count(",") != sum(map(len, cells)) + len(header) - len(cells) - 1
            or min(map(len, cells), default=2) < 2 or len(header) < 2):
        return None
    return text


def _table_json(table: Table) -> str:
    """The JSON text of `table`: a float's text is the one its CSV cell holds."""
    if not table.rows:
        return "[]"
    template = _object_template(table.header, 1)
    depths = [1 + len(name) if type(name) is tuple else 2 for name in table.header]
    return "[\n  " + ",\n  ".join([
        template % tuple([_float_text(v, text) if isinstance(v, float) else _encode(v, depth)
                          for v, text, depth in zip(row, texts, depths)])
        for row, texts in zip(table.rows, table.cells)]) + "\n]"


def _object_template(header: list, depth: int) -> str:
    """The JSON object at nesting `depth` of `_table_json`'s `header`, with a
    %s in place of each value."""
    pad = "\n" + _INDENT * (depth + 1)
    items, i = [], 0
    while i < len(header):
        name, i = header[i], i + 1
        value = "%s"
        if type(name) is tuple:
            j = i
            while j < len(header) and type(header[j]) is tuple and header[j][0] == name[0]:
                j += 1
            value = _object_template([path[1] if len(path) == 2 else path[1:]
                                      for path in header[i - 1:j]], depth + 1)
            name, i = name[0], j
        items.append(encode_basestring_ascii(name).replace("%", "%%") + ": " + value)
    return "{" + pad + ("," + pad).join(items) + "\n" + _INDENT * depth + "}"


def _non_finite(obj) -> bool:
    """Whether a JSON document holds a NaN or an infinity."""
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return False
    # a float item is tested here, without a call
    return any([not math.isfinite(v) if isinstance(v, float) else _non_finite(v) for v in obj])
