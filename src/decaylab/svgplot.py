"""Minimal self-contained SVG line plots.

One fixed canvas, one polyline per series, optional log y scale.  The
output depends only on the input table, so repeated runs produce identical
bytes.
"""
from __future__ import annotations

import math

__all__ = ["line_plot_svg"]

_W, _H = 720, 480
_ML, _MR, _MT, _MB = 70, 24, 40, 56
_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def _escape(text: str) -> str:
    """Escape &, > and < for SVG text, in that order."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _ticks(lo: float, hi: float, count: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def line_plot_svg(series: dict[str, list[tuple[float, float]]], *, title: str, xlabel: str, ylabel: str, logy: bool = False) -> str:
    """Render named point lists to SVG text.

    Every series needs at least two points; with logy all y values must be
    positive."""
    if not series:
        raise ValueError("no series to plot")
    for name, pts in series.items():
        if len(pts) < 2:
            raise ValueError(f"series {name!r} has {len(pts)} points; need at least 2")
        if logy and any(y <= 0 for _, y in pts):
            raise ValueError(f"series {name!r} has non-positive values; log scale impossible")

    def ty(v: float) -> float:
        return math.log10(v) if logy else v

    xs = [x for pts in series.values() for x, _ in pts]
    ys = [ty(y) for pts in series.values() for _, y in pts]
    xlo, xhi = min(xs), max(xs)
    ylo, yhi = min(ys), max(ys)
    if xhi <= xlo:
        xhi = xlo + 1.0
    if yhi <= ylo:
        yhi = ylo + 1.0
    pw = _W - _ML - _MR
    ph = _H - _MT - _MB

    def px(x: float) -> float:
        return _ML + (x - xlo) / (xhi - xlo) * pw

    def py(y: float) -> float:
        return _MT + (yhi - y) / (yhi - ylo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" viewBox="0 0 {_W} {_H}">',
        f'<rect width="{_W}" height="{_H}" fill="#ffffff"/>',
        f'<text x="{_W / 2:.1f}" y="24" text-anchor="middle" font-family="sans-serif" font-size="16">{_escape(title)}</text>',
        f'<rect x="{_ML}" y="{_MT}" width="{pw}" height="{ph}" fill="none" stroke="#444444"/>',
    ]
    for tx in _ticks(xlo, xhi):
        X = px(tx)
        parts.append(f'<line x1="{X:.2f}" y1="{_MT + ph}" x2="{X:.2f}" y2="{_MT + ph + 5}" stroke="#444444"/>')
        parts.append(
            f'<text x="{X:.2f}" y="{_MT + ph + 20}" text-anchor="middle" font-family="sans-serif" font-size="11">{_escape(f"{tx:.4g}")}</text>'
        )
    for tv in _ticks(ylo, yhi):
        Y = py(tv)
        lab = 10.0**tv if logy else tv
        parts.append(f'<line x1="{_ML - 5}" y1="{Y:.2f}" x2="{_ML}" y2="{Y:.2f}" stroke="#444444"/>')
        parts.append(
            f'<text x="{_ML - 8}" y="{Y + 4:.2f}" text-anchor="end" font-family="sans-serif" font-size="11">{_escape(f"{lab:.3g}")}</text>'
        )
    parts.append(
        f'<text x="{_ML + pw / 2:.1f}" y="{_H - 14}" text-anchor="middle" font-family="sans-serif" font-size="13">{_escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="18" y="{_MT + ph / 2:.1f}" text-anchor="middle" font-family="sans-serif" font-size="13" transform="rotate(-90 18 {_MT + ph / 2:.1f})">{_escape(ylabel)}</text>'
    )
    for i, (name, pts) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(ty(y)):.2f}" for x, y in pts)
        parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        ly = _MT + 16 + 16 * i
        parts.append(f'<line x1="{_W - _MR - 130}" y1="{ly - 4}" x2="{_W - _MR - 106}" y2="{ly - 4}" stroke="{color}" stroke-width="1.8"/>')
        parts.append(
            f'<text x="{_W - _MR - 100}" y="{ly}" font-family="sans-serif" font-size="11">{_escape(name)}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts)

