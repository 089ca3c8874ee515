"""Atomic artifact writers: CSV tables and JSON summaries.

Artifacts are written to a temp file in the destination directory and
renamed into place, so a crashed run never leaves a truncated file. Floats
are serialized with repr, which round-trips exactly in both formats; reruns
with the same plan and seed therefore produce byte-identical CSV.

write_csv streams its columns: it converts and writes _CHUNK_ROWS rows at a
time, so beside the caller's columns an export holds at most one chunk of
rows as Python objects and text, whatever the table's length.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import math
import os
import re
import sys
import tempfile
from typing import Dict, Iterable, Iterator, List, Mapping

import numpy as np

from .noise import blocks


def fmt_value(v) -> str:
    """Round-trip text for a cell: repr for floats, plain str otherwise."""
    if isinstance(v, (bool, np.bool_)):
        return "true" if v else "false"
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _atomic_write(path: str, emit) -> None:
    d = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            emit(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def rows_to_columns(rows: Iterable[dict]) -> Dict[str, list]:
    """Columns of a row table, in first-seen order.

    A row that lacks a column gets "" there.
    """
    rows = list(rows)  # rows may be a generator; it is scanned twice
    names: Dict[str, None] = {}
    for r in rows:
        names.update(dict.fromkeys(r))
    return {k: [r.get(k, "") for r in rows] for k in names}


_NEEDS_QUOTES = re.compile('[,"\r\n]')
# rows converted and written at a time: the most rows that exist at once as
# Python objects and as text
_CHUNK_ROWS = 1 << 12


def _quote(text: str) -> str:
    """csv.QUOTE_MINIMAL for the "," delimiter and the "\\r\\n" terminator."""
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _is_column(col) -> bool:
    return isinstance(col, (list, tuple)) or (isinstance(col, np.ndarray)
                                              and col.ndim > 0)


def _rows(col, r0: int, r1: int):
    """Rows [r0, r1) of a column; an array is read in row-major order."""
    return col.flat[r0:r1] if isinstance(col, np.ndarray) else col[r0:r1]


def _cells(col) -> Iterator[str]:
    """A column's cells as CSV text, made as they are read."""
    if isinstance(col, np.ndarray):
        if col.dtype.kind == "f":
            return map(repr, col.tolist())
        if col.dtype.kind in "iu":
            return map(str, col.tolist())
        col = col.tolist()
    return (_quote(fmt_value(v)) for v in col)


def write_csv(path: str, columns: Mapping[str, object]) -> None:
    """RFC-4180-style CSV from columns (name -> array, sequence or scalar).

    Every array or sequence column holds one cell per row, and all have
    the same length; an n-D array holds one cell per element, in row-major
    order, and its length is its size. A scalar column repeats its value on
    every row (a table of scalars only is one row). Floating arrays are
    written with repr and integer arrays with str; any other cell goes
    through fmt_value, and text is quoted as csv.QUOTE_MINIMAL would quote
    it.
    """
    lengths = {c.size if isinstance(c, np.ndarray) else len(c)
               for c in columns.values() if _is_column(c)}
    if len(lengths) > 1:
        raise ValueError(f"CSV columns differ in length: {sorted(lengths)}")
    n = lengths.pop() if lengths else min(len(columns), 1)
    # each column is a sequence to slice or, as a str, its scalar's text
    cols = [c if _is_column(c) else _quote(fmt_value(c))
            for c in columns.values()]

    def lines(r0: int, r1: int) -> Iterator[str]:
        return map(",".join, zip(*(
            _cells(_rows(c, r0, r1)) if not isinstance(c, str)
            else itertools.repeat(c, r1 - r0) for c in cols)))

    def write(fh, text: Iterable[str]) -> None:
        if len(columns) == 1:  # csv quotes a lone empty field: no row is blank
            text = ('""' if line == "" else line for line in text)
        fh.write("\r\n".join(text) + "\r\n")

    def emit(fh):
        write(fh, [",".join(map(_quote, columns))])
        for (rows,) in blocks((n,), _CHUNK_ROWS):
            write(fh, lines(rows.start, rows.stop))

    _atomic_write(path, emit)


def _plain(o, path: str, nonfinite: list):
    """o with numpy values as plain ones, and each non-finite float as
    None, its path appended to nonfinite."""
    if isinstance(o, (np.ndarray, np.generic)):
        o = o.tolist()
    if isinstance(o, dict):
        return {k: _plain(v, f"{path}.{k}" if path else str(k), nonfinite)
                for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_plain(v, f"{path}[{i}]", nonfinite) for i, v in enumerate(o)]
    if isinstance(o, float) and not math.isfinite(o):
        nonfinite.append(path)
        return None
    return o


def nonfinite_paths(doc: dict) -> List[str]:
    """Paths of doc's NaN and infinite floats, as write_json lists them."""
    nonfinite: List[str] = []
    _plain(doc, "", nonfinite)
    return nonfinite


def write_json(path: str, doc: dict) -> None:
    """doc as strict JSON (RFC 8259): each NaN or infinite float is null,
    and its path ("report.height_std") is listed under a top-level
    "nonfinite" key and printed on stderr."""
    nonfinite: list = []
    doc = _plain(doc, "", nonfinite)
    if nonfinite:
        doc["nonfinite"] = nonfinite
        print(f"warning: {path}: non-finite values written as null: "
              f"{', '.join(nonfinite)}", file=sys.stderr)

    def emit(fh):
        json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")

    _atomic_write(path, emit)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
