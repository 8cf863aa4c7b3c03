"""The output format: every CSV and JSON table the package writes.

A table is a tuple of column names plus rows of plain values; csv_text
writes a header line and one line per row, json_array one object per row
with keys in column order, and json_list one column as a JSON array.  A
cell's text is set by its value's type: float -> f17 (17 significant
digits, which round-trip doubles, so identical inputs give byte-identical
files), in JSON with ".0" appended to an integral value so that it reads
back as a float; int -> decimal; None -> empty in CSV, null in JSON; bool
-> true/false; str -> JSON-quoted, and in CSV quoted only when it holds a
comma, a quote or a line break; a tuple of ints (a multi-index) ->
space-joined, in CSV only.
"""

from __future__ import annotations

import json
import numbers
from typing import Iterable, Iterator, Sequence


def f17(value: float) -> str:
    return format(float(value), ".17g")


def _json_float(value: float) -> str:
    """f17, with ".0" on an integral value (-0.0, 2.0, 1e16), which f17
    writes as a bare integer that a JSON reader takes for an int."""
    return _json_number(f17(value))


def _json_number(text: str) -> str:
    """An f17 text as JSON writes it: ".0" added where it reads as an integer."""
    return text + ".0" if text.lstrip("-").isdigit() else text


def _csv_str(value: str) -> str:
    if any(c in value for c in ',"\r\n'):
        return '"%s"' % value.replace('"', '""')
    return value


_BOOL = {True: "true", False: "false"}.__getitem__

# value type -> (CSV cell, JSON cell), indexed by _CSV and _JSON; the first
# type that matches wins, so a bool is not written as an integer, and None
# marks a type that format does not write
_CSV, _JSON = 0, 1
_CELLS = {
    bool: (_BOOL, _BOOL),
    numbers.Integral: (str, str),
    numbers.Real: (f17, _json_float),
    type(None): (lambda _: "", lambda _: "null"),
    str: (_csv_str, json.dumps),
    tuple: (lambda value: " ".join(map(str, value)), None),
}

# A column of floats alone or ints alone (bool is a type of its own) is
# formatted by the row template itself ("%.17g" % value equals f17(value)),
# without a call per cell; in JSON, only while no float in it is integral.
_INLINE = {float: "%.17g", int: "%d"}


def _column(side: int, column: Sequence) -> tuple[str, Sequence]:
    """The %-spec of a column, and the values that fill it."""
    kinds = set(map(type, column))
    spec = _INLINE.get(next(iter(kinds))) if len(kinds) == 1 else None
    if spec == "%.17g" and side == _JSON and any(map(float.is_integer, column)):
        return "%s", _json_floats(column)
    if spec is None:
        formats = {kind: _cell(kind, side) for kind in kinds}
        return "%s", [formats[type(v)](v) for v in column]
    return spec, column


def _columns(
    side: int, names: Sequence[str], values: Iterable[Sequence]
) -> tuple[list[str], Iterator]:
    """The %-spec of every column, and the rows of values that fill them,
    from the values of each column."""
    pairs = [_column(side, column) for column in values]
    if pairs and len(pairs) != len(names):
        raise ValueError(f"rows of {len(pairs)} values for columns {names}")
    return [spec for spec, _ in pairs], zip(*(column for _, column in pairs), strict=True)


def _json_floats(column: Sequence[float]) -> list[str]:
    """_json_float of every value, with the ".0" test run once per distinct
    text rather than once per cell."""
    texts = list(map("%.17g".__mod__, column))
    cells = {text: _json_number(text) for text in set(texts)}
    return list(map(cells.__getitem__, texts))


def _cell(kind: type, side: int):
    for base, cells in _CELLS.items():
        if issubclass(kind, base) and cells[side] is not None:
            return cells[side]
    raise TypeError(f"no cell format for {kind.__module__}.{kind.__qualname__}")


def json_cell(value) -> str:
    """The JSON text of one value, as json_array writes it in a cell."""
    return _cell(type(value), _JSON)(value)


def csv_text(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Header line plus one line per row, each ending in a newline."""
    specs, values = _columns(_CSV, columns, zip(*rows, strict=True))
    lines = [",".join(map(_csv_str, columns))]
    lines.extend(map(",".join(specs).__mod__, values))
    return "\n".join(lines) + "\n"


def json_array(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """JSON array of one object per row, keys in column order."""
    specs, values = _columns(_JSON, columns, zip(*rows, strict=True))
    keys = (json.dumps(c).replace("%", "%%") for c in columns)
    template = "{%s}" % ",".join(map("%s:%s".__mod__, zip(keys, specs)))
    return "[%s]" % ",".join(map(template.__mod__, values))


def json_list(values: Sequence) -> str:
    """JSON array of one column's values, each written as json_array writes
    its cell."""
    spec, column = _column(_JSON, values)
    return "[%s]" % ",".join(map(spec.__mod__, column))


def table_text(fmt: str, columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A table file in ``fmt`` ("csv" or "json"), ending in a newline."""
    if fmt == "csv":
        return csv_text(columns, rows)
    return json_array(columns, rows) + "\n"
