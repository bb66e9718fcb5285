"""Minimal static SVG line plots (no plotting library, fully deterministic)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Series", "render_plot"]

_WIDTH = 720
_HEIGHT = 480
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 40
_MARGIN_B = 50


@dataclass(frozen=True)
class Series:
    label: str
    x: np.ndarray
    y: np.ndarray
    color: str
    dashed: bool = False


def _limits(data_range: tuple[float, float]) -> tuple[float, float]:
    """The axis limits of a data range ``(lo, hi)``: the range padded by 5%
    on each side (by 5% of ``max(|hi|, 1)`` when it is narrower than 1e-12);
    a range with a non-finite end is drawn as ``(0, 1)``.  The padding is
    never 0, so the sign of a zero end cannot reach the plot."""
    lo, hi = data_range
    if not (math.isfinite(lo) and math.isfinite(hi)):
        lo, hi = 0.0, 1.0
    if hi - lo < 1e-12:
        pad = max(abs(hi), 1.0) * 0.05
        return lo - pad, hi + pad
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def render_plot(title: str, xlabel: str, ylabel: str, series: list[Series],
                x_range: tuple[float, float], y_range: tuple[float, float]) -> str:
    """Render labelled polylines into an SVG document string, each through
    every point of its series.

    ``x_range`` and ``y_range`` are the ``(min, max)`` of the series' x and
    y values, which the caller reduces; the axes pad them."""
    xlo, xhi = _limits(x_range)
    ylo, yhi = _limits(y_range)
    iw = _WIDTH - _MARGIN_L - _MARGIN_R
    ih = _HEIGHT - _MARGIN_T - _MARGIN_B

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<text x="{_WIDTH / 2:.0f}" y="24" font-family="sans-serif" '
        f'font-size="15" text-anchor="middle">{title}</text>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{iw}" height="{ih}" '
        f'fill="none" stroke="black" stroke-width="1"/>',
    ]
    for k in range(5):
        frac = k / 4.0
        xv = xlo + frac * (xhi - xlo)
        yv = ylo + frac * (yhi - ylo)
        gx = _MARGIN_L + frac * iw
        gy = _MARGIN_T + ih - frac * ih
        parts.append(
            f'<line x1="{gx:.2f}" y1="{_MARGIN_T + ih}" x2="{gx:.2f}" '
            f'y2="{_MARGIN_T + ih + 5}" stroke="black"/>'
            f'<text x="{gx:.2f}" y="{_MARGIN_T + ih + 18}" font-family="sans-serif" '
            f'font-size="11" text-anchor="middle">{xv:.6g}</text>'
        )
        parts.append(
            f'<line x1="{_MARGIN_L - 5}" y1="{gy:.2f}" x2="{_MARGIN_L}" '
            f'y2="{gy:.2f}" stroke="black"/>'
            f'<text x="{_MARGIN_L - 8}" y="{gy + 4:.2f}" font-family="sans-serif" '
            f'font-size="11" text-anchor="end">{yv:.6g}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_L + iw / 2:.0f}" y="{_HEIGHT - 10}" '
        f'font-family="sans-serif" font-size="13" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="16" y="{_MARGIN_T + ih / 2:.0f}" font-family="sans-serif" '
        f'font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {_MARGIN_T + ih / 2:.0f})">{ylabel}</text>'
    )
    for idx, s in enumerate(series):
        px = _MARGIN_L + (s.x - xlo) / (xhi - xlo) * iw
        py = _MARGIN_T + ih - (s.y - ylo) / (yhi - ylo) * ih
        # One format over the interleaved coordinates x0, y0, x1, y1, ...
        pts = " ".join(["%.2f,%.2f"] * px.size) % tuple(
            np.column_stack((px, py)).ravel().tolist())
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        parts.append(
            f'<polyline fill="none" stroke="{s.color}" stroke-width="1.5"'
            f'{dash} points="{pts}"/>'
        )
        ly = _MARGIN_T + 14 + 16 * idx
        lx = _MARGIN_L + iw - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 24}" y2="{ly - 4}" '
            f'stroke="{s.color}" stroke-width="1.5"{dash}/>'
            f'<text x="{lx + 30}" y="{ly}" font-family="sans-serif" '
            f'font-size="12">{s.label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
