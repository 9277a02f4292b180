"""Hand-rolled SVG charts: labeled heatmaps and line plots.

SVG keeps the outputs diffable text and avoids any raster dependency. All
user-provided strings are XML-escaped before embedding.
"""
from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ShapeError


def escape(text: str) -> str:
    """`text` with `&`, `<` and `>` written as XML entities, as element text needs."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(x: float) -> str:
    return f"{x:.2f}".rstrip("0").rstrip(".")


def _heat_color(t: float) -> str:
    """0 -> near-white, 1 -> deep blue."""
    t = min(max(t, 0.0), 1.0)
    r = int(247 - t * (247 - 8))
    g = int(251 - t * (251 - 48))
    b = int(255 - t * (255 - 107))
    return f"rgb({r},{g},{b})"


def _svg_head(width: int, height: int, title: str, title_y: int, *backdrop: str) -> list[str]:
    """The opening <svg> tag, a white background, the `backdrop` elements and
    the centered bold title (when one is given), in painting order."""
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        *backdrop,
    ]
    if title:
        parts.append(f'<text x="{width / 2:.0f}" y="{title_y}" text-anchor="middle" '
                     f'font-size="15" font-weight="bold">{escape(title)}</text>')
    return parts


def svg_heatmap(labels: Sequence[str], matrix: np.ndarray, title: str = "") -> str:
    matrix = np.asarray(matrix, dtype=np.float64)
    n = len(labels)
    if matrix.shape != (n, n):
        raise ShapeError(f"matrix shape {matrix.shape} does not match {n} labels")
    cell, margin_left, margin_top = 46, 110, 96
    width = margin_left + n * cell + 20
    height = margin_top + n * cell + 20
    lo, hi = float(matrix.min()), float(matrix.max())
    span = hi - lo if hi > lo else 1.0

    parts = _svg_head(width, height, title, 22)
    for j, label in enumerate(labels):
        x = margin_left + j * cell + cell / 2
        parts.append(f'<text x="{x:.0f}" y="{margin_top - 8}" text-anchor="start" font-size="11" '
                     f'transform="rotate(-45 {x:.0f} {margin_top - 8})">{escape(str(label))}</text>')
    for i, label in enumerate(labels):
        y = margin_top + i * cell + cell / 2 + 4
        parts.append(f'<text x="{margin_left - 6}" y="{y:.0f}" text-anchor="end" '
                     f'font-size="11">{escape(str(label))}</text>')
    for i in range(n):
        for j in range(n):
            v = matrix[i, j]
            x, y = margin_left + j * cell, margin_top + i * cell
            parts.append(f'<rect x="{x}" y="{y}" width="{cell}" height="{cell}" '
                         f'fill="{_heat_color((v - lo) / span)}" stroke="#ccc"/>')
            text_fill = "#fff" if (v - lo) / span > 0.6 else "#222"
            parts.append(f'<text x="{x + cell / 2:.0f}" y="{y + cell / 2 + 4:.0f}" text-anchor="middle" '
                         f'font-size="10" fill="{text_fill}">{escape(_fmt(v))}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def svg_line_chart(x_labels: Sequence[str], series: dict[str, Sequence[float]],
                   title: str = "") -> str:
    """Plot one or more unit-spaced series against shared x labels."""
    if not series:
        raise ShapeError("nothing to plot")
    lengths = {len(v) for v in series.values()}
    if lengths != {len(x_labels)}:
        raise ShapeError(f"series lengths {sorted(lengths)} do not all match {len(x_labels)} labels")
    n = len(x_labels)
    values = np.concatenate([np.asarray(v, dtype=np.float64) for v in series.values()])
    lo, hi = float(values.min()), float(values.max())
    if hi == lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    lo, hi = lo - pad, hi + pad
    width, height, ml, mr, mt, mb = 880, 360, 72, 16, 40, 48
    plot_w, plot_h = width - ml - mr, height - mt - mb
    palette = ("#1f6fb2", "#d1495b", "#3a7d44", "#8661c1", "#c77b2e", "#444444")

    def sx(i: int) -> float:
        return ml + (plot_w * i / (n - 1) if n > 1 else plot_w / 2)

    def sy(v: float) -> float:
        return mt + plot_h * (1.0 - (v - lo) / (hi - lo))

    frame = f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" fill="none" stroke="#888"/>'
    parts = _svg_head(width, height, title, 24, frame)
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        v = lo + frac * (hi - lo)
        y = sy(v)
        parts.append(f'<line x1="{ml}" y1="{y:.1f}" x2="{ml + plot_w}" y2="{y:.1f}" '
                     f'stroke="#ddd" stroke-dasharray="3,3"/>')
        parts.append(f'<text x="{ml - 6}" y="{y + 4:.1f}" text-anchor="end" font-size="10">'
                     f'{escape(_fmt(v))}</text>')
    tick_idx = sorted({0, n // 4, n // 2, 3 * n // 4, n - 1})
    for i in tick_idx:
        parts.append(f'<text x="{sx(i):.1f}" y="{mt + plot_h + 16}" text-anchor="middle" '
                     f'font-size="10">{escape(str(x_labels[i]))}</text>')
    for idx, (name, vals) in enumerate(series.items()):
        color = palette[idx % len(palette)]
        points = " ".join(f"{sx(i):.1f},{sy(float(v)):.1f}" for i, v in enumerate(vals))
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.6"/>')
        lx = ml + 12 + idx * 150
        parts.append(f'<line x1="{lx}" y1="{mt - 10}" x2="{lx + 22}" y2="{mt - 10}" '
                     f'stroke="{color}" stroke-width="3"/>')
        parts.append(f'<text x="{lx + 27}" y="{mt - 6}" font-size="11">{escape(str(name))}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
