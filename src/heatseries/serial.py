"""Deterministic number formatting shared by the serializers, and the wire
format of coefficient-table rows.

Every float written to CSV or JSON goes through f17, which prints 17
significant digits; that round-trips doubles exactly, so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .signedlog import ZERO, SignedLog


def f17(value: float) -> str:
    return format(float(value), ".17g")


def opt17(value) -> str:
    """Empty string for None, f17 otherwise (CSV optional cells)."""
    return "" if value is None else f17(value)


def json_opt17(value) -> str:
    """JSON literal: null for None, 17-digit number otherwise."""
    return "null" if value is None else f17(value)


def signedlog_rows_json(rows: Iterable[tuple[tuple[int, ...], SignedLog]]) -> str:
    """Comma-joined ``{"alpha","sign","logmag"}`` objects, one per
    (multi-index components, value) pair; a zero writes logmag 0."""
    return ",".join(
        '{"alpha":[%s],"sign":%d,"logmag":%s}'
        % (
            ",".join(str(c) for c in comps),
            value.sign,
            f17(value.logmag if value.sign != 0 else 0.0),
        )
        for comps, value in rows
    )


def signedlog_rows_from_json(rows) -> Iterator[tuple[tuple[int, ...], SignedLog]]:
    """Inverse of :func:`signedlog_rows_json` on the parsed row objects."""
    for row in rows:
        sign = int(row["sign"])
        value = ZERO if sign == 0 else SignedLog(sign, float(row["logmag"]))
        yield tuple(row["alpha"]), value
