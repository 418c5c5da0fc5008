"""Minimal SVG chart emission — polylines, bars, and text only.

Keeps the pipeline free of plotting dependencies; output is a valid
standalone SVG document with a white background, axis frame, and legend.
"""

from __future__ import annotations

from html import escape as _escape
from typing import Mapping, Sequence


def escape(text: str) -> str:
    """``text`` with ``&``, ``<`` and ``>`` as entities; quotes stay as they
    are.  (``xml.sax.saxutils.escape`` does the same but imports urllib,
    http and email with it: ~35 ms of every run's start-up.)"""
    return _escape(text, quote=False)


PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
           "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f")

_MARGIN = 56
# every chart's width, and a line chart's height above its legend
_WIDTH, _HEIGHT = 720, 400


def _header(width: int, height: int, title: str) -> list[str]:
    """The opening tag of a ``width`` x ``height`` document, its white
    background, and its title."""
    return [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{escape(title)}</text>',
    ]


def svg_line_chart(
    series: Mapping[str, Sequence[float]],
    path: str,
    title: str = "",
) -> None:
    """One polyline per named series of values in [0, 1], sharing x = point index."""
    if not series:
        raise ValueError("no series to plot")
    names = list(series)
    width, height = _WIDTH, _HEIGHT
    n_max = max(len(vals) for vals in series.values())
    plot_w = width - 2 * _MARGIN
    plot_h = height - 28 - _MARGIN

    def sx(i: int, n: int) -> float:
        return _MARGIN + (plot_w * i / max(n - 1, 1))

    def sy(v: float) -> float:
        return 28 + plot_h * (1.0 - v)

    # the legend sits below the plot, so the document is taller than ``height``
    parts = _header(width, height + 30 + 14 * len(names), title)
    parts.append(f'<rect x="{_MARGIN}" y="28" width="{plot_w}" height="{plot_h}" '
                 f'fill="none" stroke="#333"/>')
    for tick in (0.0, 0.5, 1.0):
        parts.append(f'<text x="{_MARGIN - 6}" y="{sy(tick) + 4:.1f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="10">{tick:.2f}</text>')
    parts.append(f'<text x="{_MARGIN}" y="{height - _MARGIN + 16}" '
                 f'font-family="sans-serif" font-size="10">0</text>')
    parts.append(f'<text x="{width - _MARGIN}" y="{height - _MARGIN + 16}" text-anchor="end" '
                 f'font-family="sans-serif" font-size="10">{n_max - 1}</text>')
    for i, name in enumerate(names):
        vals = series[name]
        color = PALETTE[i % len(PALETTE)]
        points = " ".join(f"{sx(j, len(vals)):.1f},{sy(v):.1f}" for j, v in enumerate(vals))
        parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                     f'points="{points}"/>')
        ly = height - _MARGIN + 30 + 14 * i
        parts.append(f'<line x1="{_MARGIN}" y1="{ly - 4}" x2="{_MARGIN + 18}" y2="{ly - 4}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_MARGIN + 24}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{escape(name)}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def svg_importance_bars(
    ranked: Sequence[tuple[str, float]],
    path: str,
    title: str = "",
) -> None:
    """Horizontal bar chart of (name, value) pairs, drawn top to bottom."""
    if not ranked:
        raise ValueError("no importance values to plot")
    width, row_h = _WIDTH, 22
    height = 40 + row_h * len(ranked) + 20
    top = max(value for _, value in ranked) or 1.0
    label_w = 190
    bar_area = width - label_w - 80
    parts = _header(width, height, title)
    for i, (name, value) in enumerate(ranked):
        y = 40 + row_h * i
        bar = bar_area * (value / top)
        parts.append(f'<text x="{label_w - 8}" y="{y + 14}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{escape(name)}</text>')
        parts.append(f'<rect x="{label_w}" y="{y + 3}" width="{bar:.1f}" height="{row_h - 8}" '
                     f'fill="{PALETTE[0]}"/>')
        parts.append(f'<text x="{label_w + bar + 6:.1f}" y="{y + 14}" '
                     f'font-family="sans-serif" font-size="10">{value:.4f}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
