"""Minimal self-contained SVG line plots (log-y), no plotting dependency."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["render_log_plot"]

WIDTH, HEIGHT = 720, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 70, 20, 40, 50
COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd")


def _nice_x_ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        return [lo]
    raw = (hi - lo) / n
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if mag * mult >= raw:
            step = mag * mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + 1e-12 * step:
        ticks.append(v)
        v += step
    return ticks


def render_log_plot(series, title: str, comment: str = "") -> str:
    """Render (x, y, label) series as a log-y SVG document string, the x
    axis labelled "t" and the y axis "energy".

    Nonpositive y-values are dropped (they cannot appear on a log axis).
    """
    cleaned = []
    for x, y, label in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        mask = np.isfinite(x) & np.isfinite(y) & (y > 0.0)
        if mask.any():
            cleaned.append((x[mask], np.log10(y[mask]), label))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">'
    ]
    if comment:
        parts.append(f"<!-- {comment} -->")
    parts.append(f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>')
    px0, px1 = MARGIN_L, WIDTH - MARGIN_R
    py0, py1 = HEIGHT - MARGIN_B, MARGIN_T

    if not cleaned:
        parts.append(
            f'<text x="{WIDTH / 2:.1f}" y="{HEIGHT / 2:.1f}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">no positive samples</text>'
        )
        parts.append("</svg>")
        return "\n".join(parts)

    x_lo = min(float(x.min()) for x, _, _ in cleaned)
    x_hi = max(float(x.max()) for x, _, _ in cleaned)
    y_lo = min(float(ly.min()) for _, ly, _ in cleaned)
    y_hi = max(float(ly.max()) for _, ly, _ in cleaned)
    if x_hi <= x_lo:
        x_hi = x_lo + 1.0
    if y_hi <= y_lo:
        y_hi = y_lo + 1.0
    y_lo = math.floor(y_lo)
    y_hi = math.ceil(y_hi)

    def sx(x: float) -> float:
        return px0 + (x - x_lo) / (x_hi - x_lo) * (px1 - px0)

    def sy(ly: float) -> float:
        return py0 + (ly - y_lo) / (y_hi - y_lo) * (py1 - py0)

    # frame and grid
    parts.append(
        f'<rect x="{px0}" y="{py1}" width="{px1 - px0}" height="{py0 - py1}" '
        f'fill="none" stroke="black" stroke-width="1"/>'
    )
    decade_step = max(1, int(math.ceil((y_hi - y_lo) / 8.0)))
    for dec in range(int(y_lo), int(y_hi) + 1, decade_step):
        yy = sy(dec)
        parts.append(
            f'<line x1="{px0}" y1="{yy:.1f}" x2="{px1}" y2="{yy:.1f}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
        parts.append(
            f'<text x="{px0 - 8}" y="{yy + 4:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="11">1e{dec}</text>'
        )
    for tick in _nice_x_ticks(x_lo, x_hi):
        xx = sx(tick)
        parts.append(
            f'<line x1="{xx:.1f}" y1="{py0}" x2="{xx:.1f}" y2="{py0 + 5}" '
            f'stroke="black" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{xx:.1f}" y="{py0 + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{tick:g}</text>'
        )

    for idx, (x, ly, label) in enumerate(cleaned):
        color = COLORS[idx % len(COLORS)]
        pts = " ".join(f"{sx(xi):.2f},{sy(li):.2f}" for xi, li in zip(x, ly))
        dash = ' stroke-dasharray="6,4"' if idx > 0 else ""
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="1.5"{dash}/>'
        )
        parts.append(
            f'<text x="{px1 - 6}" y="{py1 + 16 + 16 * idx}" text-anchor="end" '
            f'font-family="sans-serif" font-size="12" fill="{color}">{label}</text>'
        )

    parts.append(
        f'<text x="{(px0 + px1) / 2:.1f}" y="{MARGIN_T - 14}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{title}</text>'
    )
    parts.append(
        f'<text x="{(px0 + px1) / 2:.1f}" y="{HEIGHT - 12}" text-anchor="middle" '
        'font-family="sans-serif" font-size="12">t</text>'
    )
    parts.append(
        f'<text x="16" y="{(py0 + py1) / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 16 {(py0 + py1) / 2:.1f})">energy</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts)
