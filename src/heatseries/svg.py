"""Tiny hand-rolled SVG line plots for the CLI's --plot flag.

Deliberately minimal: polylines on a log-scaled y axis with tick labels and
a legend, written as a single deterministic string.
"""

from __future__ import annotations

import math
from typing import Sequence

_WIDTH, _HEIGHT = 720.0, 480.0
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70.0, 20.0, 40.0, 50.0
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")
_TICK = 'text-anchor="%s" font-size="11"'


def _fmt(v: float) -> str:
    return format(v, ".6g")


def line_plot(
    series: Sequence[tuple[str, Sequence[float], Sequence[float]]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> str:
    """Render (label, xs, ys) triples on a log-scaled y axis; nonpositive
    and non-finite ys are dropped."""
    cleaned = [
        (label, pairs)
        for label, xs, ys in series
        if (pairs := [(float(x), float(y)) for x, y in zip(xs, ys) if 0.0 < y < math.inf])
    ]
    if not cleaned:
        return _document([_text(360, 240, "no data", 'text-anchor="middle"')], title)
    xs_all, ys_all = zip(*(point for _, pairs in cleaned for point in pairs))
    x_lo, x_hi = min(xs_all), max(xs_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = math.log10(min(ys_all)), math.log10(max(ys_all))
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B
    bottom = _HEIGHT - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - math.log10(y)) / (y_hi - y_lo) * plot_h

    parts = [
        '<rect x="%s" y="%s" width="%s" height="%s" fill="none" '
        'stroke="#000"/>' % (_fmt(_MARGIN_L), _fmt(_MARGIN_T), _fmt(plot_w), _fmt(plot_h))
    ]
    for x in (x_lo + (x_hi - x_lo) * i / 4.0 for i in range(5)):
        parts += [
            _line(px(x), bottom, px(x), bottom + 5),
            _text(px(x), bottom + 18, _fmt(x), _TICK % "middle"),
        ]
    # a y tick's pixel comes from its log v: py(10**v) takes the log of a
    # rounded power, which can move the pixel's sixth digit
    for v in (y_lo + (y_hi - y_lo) * i / 4.0 for i in range(5)):
        y_pix = _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h
        parts += [
            _line(_MARGIN_L - 5, y_pix, _MARGIN_L, y_pix),
            _text(_MARGIN_L - 8, y_pix + 4, _fmt(10.0**v), _TICK % "end"),
        ]
    legend_x = _WIDTH - _MARGIN_R - 150
    for idx, (label, pairs) in enumerate(cleaned):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join("%s,%s" % (_fmt(px(x)), _fmt(py(y))) for x, y in pairs)
        y_leg = _MARGIN_T + 16 + 16 * idx
        parts += [
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>' % (pts, color),
            _line(legend_x, y_leg, legend_x + 30, y_leg, f'stroke="{color}" stroke-width="1.5"'),
            _text(legend_x + 38, y_leg + 4, label, 'font-size="12"'),
        ]
    middle = _MARGIN_T + plot_h / 2
    rotated = f'font-size="12" transform="rotate(-90 16 {_fmt(middle)})" text-anchor="middle"'
    parts += [
        _text(_MARGIN_L + plot_w / 2, _HEIGHT - 12, xlabel, 'text-anchor="middle" font-size="12"'),
        _text(16, middle, ylabel, rotated),
    ]
    return _document(parts, title)


def _line(x1: float, y1: float, x2: float, y2: float, attrs: str = 'stroke="#000"') -> str:
    return '<line x1="%s" y1="%s" x2="%s" y2="%s" %s/>' % (*map(_fmt, (x1, y1, x2, y2)), attrs)


def _text(x: float, y: float, body: str, attrs: str) -> str:
    return '<text x="%s" y="%s" %s>%s</text>' % (_fmt(x), _fmt(y), attrs, body)


def _document(parts: Sequence[str], title: str) -> str:
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">\n' % (_WIDTH, _HEIGHT, _WIDTH, _HEIGHT)
    )
    caption = _text(_WIDTH / 2, 24, title, 'text-anchor="middle" font-size="14"')
    return head + caption + "\n" + "\n".join(parts) + "\n</svg>\n"
