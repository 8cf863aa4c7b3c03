"""The output format: every CSV and JSON table the package writes.

A table is a tuple of column names plus rows of plain values.  Every
column is written as a list of cell strings, which csv_text joins into a
header line and one line per row, json_array into one object per row with
keys in column order, and json_list, for one column, into a JSON array.  A
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


def _json_number(text: str) -> str:
    """An f17 text as JSON writes it: ".0" added to an integral value (-0.0,
    2.0, 1e16), which f17 writes as a bare integer that a JSON reader takes
    for an int."""
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
    numbers.Real: (f17, lambda value: _json_number(f17(value))),
    type(None): (lambda _: "", lambda _: "null"),
    str: (_csv_str, json.dumps),
    tuple: (lambda value: " ".join(map(str, value)), None),
}


def _column(side: int, column: Sequence) -> list[str]:
    """The cell strings of a column: one cell function mapped over a column
    of one type, else each value's own by its type."""
    kinds = set(map(type, column))
    if kinds == {float} and side == _JSON:
        # "%.17g" % value is f17(value); the ".0" test runs once per distinct text
        texts = list(map("%.17g".__mod__, column))
        cells = {text: _json_number(text) for text in set(texts)}
        return list(map(cells.__getitem__, texts))
    if len(kinds) == 1:
        return list(map(_cell(kinds.pop(), side), column))
    cells = {kind: _cell(kind, side) for kind in kinds}
    return [cells[type(v)](v) for v in column]


def _cells(
    side: int, names: Sequence[str], rows: Iterable[Sequence]
) -> Iterator[tuple[str, ...]]:
    """The rows as cell strings, from the cell strings of each column."""
    columns = [_column(side, column) for column in zip(*rows, strict=True)]
    if columns and len(columns) != len(names):
        raise ValueError(f"rows of {len(columns)} values for columns {names}")
    return zip(*columns)


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
    lines = [",".join(map(_csv_str, columns))]
    lines.extend(map(",".join, _cells(_CSV, columns, rows)))
    return "\n".join(lines) + "\n"


def json_array(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """JSON array of one object per row, keys in column order."""
    keys = (json.dumps(c).replace("%", "%%") for c in columns)
    template = "{%s}" % ",".join(map("%s:%%s".__mod__, keys))
    return "[%s]" % ",".join(map(template.__mod__, _cells(_JSON, columns, rows)))


def json_list(values: Sequence) -> str:
    """JSON array of one column's values, each written as json_array writes
    its cell."""
    return "[%s]" % ",".join(_column(_JSON, values))


def table_text(fmt: str, columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    """A table file in ``fmt`` ("csv" or "json"), ending in a newline."""
    if fmt == "csv":
        return csv_text(columns, rows)
    return json_array(columns, rows) + "\n"
