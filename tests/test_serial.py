"""The table writer in serial.py: exact text for every cell kind, and what
the standard csv and json readers read back from it."""

import csv
import io
import json
import struct

import numpy as np
import pytest

from heatseries.serial import csv_text, f17, json_array, json_cell, json_list, table_text

COLUMNS = ("k", "value", "bound", "ok", "check", "case", "alpha")
ROWS = [
    (0, 0.1, None, True, "l1_bound", "width=0.5,alpha=1", (0, 2, 1)),
    (-3, 1.0 / 3.0, 2.5e-300, False, "residual", 'say "hi"', (10,)),
    (12, 1e16, -7.25, True, "plain", "x", (4, 0)),
]

CSV = (
    "k,value,bound,ok,check,case,alpha\n"
    '0,0.10000000000000001,,true,l1_bound,"width=0.5,alpha=1",0 2 1\n'
    '-3,0.33333333333333331,2.5e-300,false,residual,"say ""hi""",10\n'
    "12,10000000000000000,-7.25,true,plain,x,4 0\n"
)

# a multi-index is a CSV cell only: the JSON table is the same rows
# without the alpha column
JSON_COLUMNS = COLUMNS[:-1]
JSON_ROWS = [row[:-1] for row in ROWS]

JSON = (
    '[{"k":0,"value":0.10000000000000001,"bound":null,"ok":true,'
    '"check":"l1_bound","case":"width=0.5,alpha=1"},'
    '{"k":-3,"value":0.33333333333333331,"bound":2.5e-300,"ok":false,'
    '"check":"residual","case":"say \\"hi\\""},'
    '{"k":12,"value":10000000000000000.0,"bound":-7.25,"ok":true,'
    '"check":"plain","case":"x"}]'
)


def bits(value) -> bytes:
    return struct.pack("<d", float(value))


def test_csv_text_exact():
    assert csv_text(COLUMNS, ROWS) == CSV


def test_json_array_exact():
    assert json_array(JSON_COLUMNS, JSON_ROWS) == JSON


def test_table_text_picks_the_format():
    assert table_text("csv", COLUMNS, ROWS) == CSV
    assert table_text("json", JSON_COLUMNS, JSON_ROWS) == JSON + "\n"


def test_csv_reads_back_with_stdlib_reader():
    header, *lines = list(csv.reader(io.StringIO(csv_text(COLUMNS, ROWS))))
    assert tuple(header) == COLUMNS
    assert len(lines) == len(ROWS)
    for line, row in zip(lines, ROWS):
        k, value, bound, ok, check, case, alpha = line
        assert int(k) == row[0]
        assert bits(value) == bits(row[1])
        if row[2] is None:
            assert bound == ""
        else:
            assert bits(bound) == bits(row[2])
        assert ok == ("true" if row[3] else "false")
        assert (check, case) == row[4:6]
        assert tuple(int(c) for c in alpha.split(" ")) == row[6]


def test_json_reads_back_with_stdlib_loads():
    objects = json.loads(json_array(JSON_COLUMNS, JSON_ROWS))
    assert len(objects) == len(ROWS)
    for obj, row in zip(objects, ROWS):
        assert tuple(obj) == JSON_COLUMNS
        assert obj["k"] == row[0]
        assert bits(obj["value"]) == bits(row[1])
        if row[2] is None:
            assert obj["bound"] is None
        else:
            assert bits(obj["bound"]) == bits(row[2])
        assert obj["ok"] is row[3]
        assert (obj["check"], obj["case"]) == row[4:6]


@pytest.mark.parametrize("mixed", [False, True], ids=["float-column", "mixed-column"])
def test_json_integral_floats_read_back_as_floats(mixed):
    # f17 writes these as bare integers ("-0", "10000000000000000", "2");
    # JSON gives them a float token, CSV keeps f17
    values = [-0.0, 1e16, 2.0]
    rows = [(v,) for v in values] + ([(None,)] if mixed else [])
    objects = json.loads(json_array(("v",), rows))
    for obj, value in zip(objects, values):
        assert type(obj["v"]) is float
        assert bits(obj["v"]) == bits(value)
    assert json_array(("v",), [(v,) for v in values]) == (
        '[{"v":-0.0},{"v":10000000000000000.0},{"v":2.0}]'
    )
    assert csv_text(("v",), [(v,) for v in values]) == "v\n-0\n10000000000000000\n2\n"
    assert json_array(("v",), [(np.float64(2.0),), (None,)]) == '[{"v":2.0},{"v":null}]'


def test_numpy_scalars_format_like_python_numbers():
    rows = [(np.int64(3), np.float64(0.1), 1.0 / 3.0), (4, 2.0, np.float32(-1e-5))]
    assert csv_text(("k", "a", "b"), rows) == "k,a,b\n3,%s,%s\n4,%s,%s\n" % (
        f17(0.1), f17(1.0 / 3.0), f17(2.0), f17(np.float32(-1e-5))
    )
    assert json_array(("k", "a", "b"), rows[:1]) == '[{"k":3,"a":%s,"b":%s}]' % (
        f17(0.1), f17(1.0 / 3.0)
    )


def test_empty_table():
    assert csv_text(("a", "b"), []) == "a,b\n"
    assert json_array(("a", "b"), []) == "[]"


def test_unknown_cell_type_is_rejected():
    with pytest.raises(TypeError):
        csv_text(("a",), [(np.bool_(True),)])
    for write in (lambda rows: json_array(("alpha",), rows), lambda rows: json_list(rows[0])):
        with pytest.raises(TypeError, match="tuple"):
            write([((0, 1),)])


def test_rows_must_match_the_columns():
    with pytest.raises(ValueError):
        json_array(("a", "b"), [(1, 2.0), (3,)])
    with pytest.raises(ValueError):
        csv_text(("a", "b"), [(1, 2.0, None)])


def test_json_list_writes_cells_like_rows():
    # one column as a JSON array holds the cells json_array writes for it:
    # ints, floats, integral floats, mixed cells and no cells
    assert json_list([-2.5, 0.0, 1e16]) == "[-2.5,0.0,10000000000000000.0]"
    for column in ([1, 0, -1], [-2.5, 0.1], [-2.5, 0.0, 1e16], [None, 2.0, True, "x", 3], []):
        text = json_list(column)
        assert text == "[%s]" % ",".join(map(json_cell, column))
        objects = json.loads(json_array(("v",), [(v,) for v in column]))
        assert json.loads(text) == [obj["v"] for obj in objects]
        assert list(map(type, json.loads(text))) == list(map(type, column))
