"""JSON text of the command-line payloads: ``json.dumps(obj, indent=2,
default=np.ndarray.tolist)`` byte for byte, without the pure-Python
indenting encoder of the standard library.

A float array is printed from far fewer ``float.__repr__`` calls than it
has entries: the sign goes into the separator before an entry, and where
|a| is symmetric in the last two axes, as for a bivector matrix, the two
mirror entries share one string.  A table, a list of equal-length rows of
finite floats and ints such as the rows of a grid sweep, is printed column
by column, and the repeated floats of a column share one string.

``cli`` builds the payloads and writes them through ``_json_text`` and
``_dict_chunks``, and the CSV text of a table through ``_table_cells``.
"""

from __future__ import annotations

import json
import math

import numpy as np


def _json_text(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2, default=np.ndarray.tolist)`` byte for byte,
    for obj nested ``indent`` deep, without the pure-Python indenting encoder
    of the standard library.  Dict keys are strings, as in every payload
    here.  A finite float or an int is its repr, an ndarray goes to
    ``_array_text``, a flat list of finite floats and ints (not bools) is one
    join of their reprs, a table of them one join of ``_table_cells``,
    containers recurse, and every other scalar (NaN and the infinities too)
    and every key goes to ``json.dumps``."""
    if type(obj) is float and math.isfinite(obj):
        return float.__repr__(obj)
    if type(obj) is int:
        return int.__repr__(obj)
    if type(obj) is np.ndarray:
        return _array_text(obj, indent)
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return json.dumps(obj)
    if isinstance(obj, dict):
        return "".join(_dict_chunks(obj, indent))
    inner = indent + "  "
    sep = f",\n{inner}"
    # the repr of an int or a finite float has no "n"; those of NaN and the
    # infinities do, and JSON spells them otherwise
    if {*map(type, obj)} <= {float, int}:
        body = sep.join(map(repr, obj))
        if "n" not in body:
            return f"[\n{inner}{body}\n{indent}]"
    cells = _table_cells(obj)
    if cells is not None:
        cell_sep = f"{sep}  "
        body = f"\n{inner}]{sep}[\n{inner}  ".join(map(cell_sep.join, cells))
        if "n" not in body:
            return f"[\n{inner}[\n{inner}  {body}\n{inner}]\n{indent}]"
    body = sep.join(_json_text(v, inner) for v in obj)
    return f"[\n{inner}{body}\n{indent}]"


def _dict_chunks(obj: dict, indent: str):
    """The text of a non-empty dict nested ``indent`` deep, as ``_json_text``
    gives it, in pieces: a key, then its value, and so on."""
    inner = indent + "  "
    sep = f"{{\n{inner}"
    for key, value in obj.items():
        yield f"{sep}{json.dumps(key)}: "
        yield _json_text(value, inner)
        sep = f",\n{inner}"
    yield f"\n{indent}}}"


def _array_text(a: np.ndarray, indent: str) -> str:
    """``_json_text(a.tolist(), indent)``: one join of ``_array_chunks`` for
    a non-empty finite float64 array, ``tolist`` for any other."""
    if a.dtype != np.float64 or not a.ndim or not a.size or not np.isfinite(a).all():
        return _json_text(a.tolist(), indent)
    return "".join(_array_chunks(a, indent))


def _array_chunks(a: np.ndarray, indent: str) -> list[str]:
    """The text of a float array nested ``indent`` deep, as a list of
    separators and entry reprs.

    The text before an entry depends only on how many trailing axes start
    anew there (all of them at the first entry), so the separators come from
    a table of 2 (ndim + 1), with "-" on the separator where the sign bit is
    set; the entries are the reprs of |x| from ``_magnitude_reprs``."""
    n = a.ndim
    # seps[2 r] goes before an entry where r axes start anew: r closing
    # brackets, a comma, r opening brackets
    seps, close, open_ = [], "", ""
    for r in range(n):
        sep = f"{close},\n{indent}{'  ' * (n - r)}{open_}"
        seps += [sep, sep + "-"]
        close += f"\n{indent}{'  ' * (n - r - 1)}]"
        open_ = f"[\n{indent}{'  ' * (n - r)}{open_}"
    seps += [open_, open_ + "-"]
    restarts = np.zeros(a.size, dtype=np.intp)
    stride = 1
    for length in a.shape[:0:-1]:
        stride *= length
        restarts[::stride] += 1
    restarts[0] = n
    chunks = np.empty(2 * a.size + 1, dtype=object)
    chunks[:-1:2] = np.array(seps, dtype=object)[2 * restarts + np.signbit(a).reshape(-1)]
    chunks[1::2] = _magnitude_reprs(a)
    chunks[-1] = close
    return chunks.tolist()


def _magnitude_reprs(a: np.ndarray) -> np.ndarray:
    """``float.__repr__`` of |x| for each entry of a, flat, as an object
    array.  Where |a| is symmetric in the last two axes, as for a bivector
    matrix, an entry below the diagonal shares the string of its mirror
    image, so a k x k matrix takes k (k + 1) / 2 reprs.

    Neither a sort nor a ``tolist`` is used to find the shared strings: the
    sort's code pages and the list of Python floats would both raise the
    process's peak memory above that of printing ``a.tolist()``."""
    mags = np.abs(a)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2] or not np.array_equal(mags, mags.mT):
        return _reprs(mags.reshape(-1))
    upper = np.triu(np.ones(a.shape[-2:], dtype=bool))
    reprs = np.empty(a.shape, dtype=object)
    reprs[..., upper] = _reprs(mags[..., upper]).reshape(*a.shape[:-2], -1)
    reprs.mT[..., upper] = reprs[..., upper]
    return reprs.reshape(-1)


def _reprs(values: np.ndarray) -> np.ndarray:
    """``float.__repr__`` of each value, flat, as an object array."""
    return np.array(list(map(float.__repr__, values.reshape(-1))), dtype=object)


class _ReprMemo(dict):
    """Reprs of floats by value; a value it does not hold, such as 0.0 or
    -0.0, which compare equal and so are never held, gets its own repr."""

    def __missing__(self, value: float) -> str:
        return float.__repr__(value)


def _table_cells(rows):
    """The reprs of a table's entries, an iterator of one tuple of strings
    per row, or None unless ``rows`` holds lists or tuples of one non-zero
    length whose entries are floats and ints (not bools).

    A column of floats whose values repeat, at most half of them distinct,
    as a grid coordinate's do, takes one ``float.__repr__`` per distinct
    nonzero value; its zeros and every other column take one per entry.
    The strings are made a row at a time, so those of a column of distinct
    values are not all held at once, and no sort is used to find the
    distinct values (see ``_magnitude_reprs``)."""
    if not {*map(type, rows)} <= {list, tuple} or len({*map(len, rows)}) != 1 or not rows[0]:
        return None
    columns = []
    for column in zip(*rows):
        types = {*map(type, column)}
        if not types <= {float, int}:
            return None
        if types == {float}:
            distinct = dict.fromkeys(column)
            if 2 * len(distinct) <= len(column):
                memo = _ReprMemo((v, float.__repr__(v)) for v in distinct if v)
                columns.append(map(memo.__getitem__, column))
                continue
        columns.append(map(repr, column))
    return zip(*columns)
