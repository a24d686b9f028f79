"""JSON text of the command-line payloads: ``json.dumps(obj, indent=2,
default=np.ndarray.tolist)`` byte for byte, without the pure-Python
indenting encoder of the standard library.

A float array is printed from far fewer ``float.__repr__`` calls than it
has entries: the sign goes into the separator before an entry, and where
|a| is symmetric in the last two axes, as for a bivector matrix, the two
mirror entries share one string.  A structured array, as the rows of a
grid sweep are, is printed field by field, with one repr per distinct
value where a field's values repeat, as a grid axis's do (``_table_rows``).

``cli`` builds the payloads and writes them through ``_json_text`` and
``_dict_chunks``, and the CSV text of a table through ``_table_rows``.
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
    ``_array_text``, containers recurse, and every other scalar (NaN and
    the infinities too) and every key goes to ``json.dumps``."""
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
    body = f",\n{inner}".join(_json_text(v, inner) for v in obj)
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
    """``_json_text(a.tolist(), indent)``: one join of ``_table_rows`` for a
    non-empty structured array, of ``_array_chunks`` for a non-empty finite
    float64 array, ``tolist`` for any other."""
    if a.dtype.names and a.ndim == 1 and a.size:
        inner, entry = indent + "  ", f"\n{indent}    "
        body = f"\n{inner}],\n{inner}[{entry}".join(map(f",{entry}".join, _table_rows(a)))
        return f"[\n{inner}[{entry}{body}\n{inner}]\n{indent}]"
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


def _table_rows(table: np.ndarray, spell=json.dumps):
    """The entry texts of a 1-d structured array, a tuple a row, made a row at
    a time: the repr of each entry, or ``spell`` (``repr`` for CSV) in a
    field with NaN or an infinity.  A field with at most half its values
    distinct bit for bit, as a grid axis's are, takes one text per value."""
    return zip(*(_field_texts(table[name], spell) for name in table.dtype.names))


def _field_texts(values: np.ndarray, spell):
    text = repr if np.isfinite(values).all() else spell
    bits = values.view(f"u{values.itemsize}")
    _, first, at = np.unique(bits, return_index=True, return_inverse=True)
    if 2 * len(first) > len(values):
        return map(text, values.tolist())
    return np.array([*map(text, values[first].tolist())], dtype=object)[at].tolist()
