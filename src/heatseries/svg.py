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
    cleaned = []
    for label, xs, ys in series:
        pairs = [
            (float(x), float(y))
            for x, y in zip(xs, ys)
            if 0.0 < y < math.inf
        ]
        if pairs:
            cleaned.append((label, pairs))
    if not cleaned:
        return _document(
            ['<text x="360" y="240" text-anchor="middle">no data</text>'], title
        )
    xs_all = [x for _, pairs in cleaned for x, _ in pairs]
    ys_all = [y for _, pairs in cleaned for _, y in pairs]
    x_lo, x_hi = min(xs_all), max(xs_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    y_lo, y_hi = math.log10(min(ys_all)), math.log10(max(ys_all))
    if y_hi == y_lo:
        y_hi = y_lo + 1.0

    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (y_hi - math.log10(y)) / (y_hi - y_lo) * plot_h

    parts: list[str] = []
    parts.append(
        '<rect x="%s" y="%s" width="%s" height="%s" fill="none" '
        'stroke="#000"/>' % (_fmt(_MARGIN_L), _fmt(_MARGIN_T), _fmt(plot_w), _fmt(plot_h))
    )
    # x ticks
    for i in range(5):
        x = x_lo + (x_hi - x_lo) * i / 4.0
        parts.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#000"/>'
            % (_fmt(px(x)), _fmt(_HEIGHT - _MARGIN_B), _fmt(px(x)),
               _fmt(_HEIGHT - _MARGIN_B + 5))
        )
        parts.append(
            '<text x="%s" y="%s" text-anchor="middle" font-size="11">%s</text>'
            % (_fmt(px(x)), _fmt(_HEIGHT - _MARGIN_B + 18), _fmt(x))
        )
    # y ticks
    for i in range(5):
        v = y_lo + (y_hi - y_lo) * i / 4.0
        y_pix = _MARGIN_T + (y_hi - v) / (y_hi - y_lo) * plot_h
        parts.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#000"/>'
            % (_fmt(_MARGIN_L - 5), _fmt(y_pix), _fmt(_MARGIN_L), _fmt(y_pix))
        )
        parts.append(
            '<text x="%s" y="%s" text-anchor="end" font-size="11">%s</text>'
            % (_fmt(_MARGIN_L - 8), _fmt(y_pix + 4), _fmt(10.0**v))
        )
    # series
    for idx, (label, pairs) in enumerate(cleaned):
        color = _COLORS[idx % len(_COLORS)]
        pts = " ".join("%s,%s" % (_fmt(px(x)), _fmt(py(y))) for x, y in pairs)
        parts.append(
            '<polyline points="%s" fill="none" stroke="%s" stroke-width="1.5"/>'
            % (pts, color)
        )
        y_leg = _MARGIN_T + 16 + 16 * idx
        parts.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" '
            'stroke-width="1.5"/>'
            % (_fmt(_WIDTH - _MARGIN_R - 150), _fmt(y_leg),
               _fmt(_WIDTH - _MARGIN_R - 120), _fmt(y_leg), color)
        )
        parts.append(
            '<text x="%s" y="%s" font-size="12">%s</text>'
            % (_fmt(_WIDTH - _MARGIN_R - 112), _fmt(y_leg + 4), label)
        )
    parts.append(
        '<text x="%s" y="%s" text-anchor="middle" font-size="12">%s</text>'
        % (_fmt(_MARGIN_L + plot_w / 2), _fmt(_HEIGHT - 12), xlabel)
    )
    parts.append(
        '<text x="16" y="%s" font-size="12" transform="rotate(-90 16 %s)" '
        'text-anchor="middle">%s</text>'
        % (_fmt(_MARGIN_T + plot_h / 2), _fmt(_MARGIN_T + plot_h / 2), ylabel)
    )
    return _document(parts, title)


def _document(parts: Sequence[str], title: str) -> str:
    head = (
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">\n' % (_WIDTH, _HEIGHT, _WIDTH, _HEIGHT)
    )
    caption = (
        '<text x="%s" y="24" text-anchor="middle" font-size="14">%s</text>'
        % (_fmt(_WIDTH / 2), title)
    )
    return head + caption + "\n" + "\n".join(parts) + "\n</svg>\n"
