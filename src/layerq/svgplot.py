"""Self-contained SVG line charts, no plotting dependencies.

Output files embed everything (axes, grid, legend) in one <svg> element, so
they render in any browser. Long series are downsampled by striding before
drawing; the numeric artifacts (CSVs) keep full resolution.
"""

from __future__ import annotations

import html
import math

import numpy as np

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)

MAX_POINTS = 2000


def _downsample(x: np.ndarray, y: np.ndarray, max_points: int = MAX_POINTS):
    if x.size <= max_points:
        return x, y
    stride = int(math.ceil(x.size / max_points))
    xs, ys = x[::stride], y[::stride]
    if xs[-1] != x[-1]:  # keep the final point
        xs = np.append(xs, x[-1])
        ys = np.append(ys, y[-1])
    return xs, ys


def _ticks(lo: float, hi: float, target: int = 6) -> np.ndarray:
    """Round tick positions on a 1-2-5 ladder covering [lo, hi]."""
    if not math.isfinite(lo) or not math.isfinite(hi):
        raise ValueError("axis range must be finite")
    if lo == hi:
        pad = abs(lo) * 0.1 or 0.5
        lo, hi = lo - pad, hi + pad
    raw = (hi - lo) / max(target - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 5.0, 10.0):
        step = mult * mag
        if raw <= step:
            break
    first = math.floor(lo / step) * step
    last = math.ceil(hi / step) * step
    n = int(round((last - first) / step)) + 1
    return first + step * np.arange(n)


def _fmt(value: float) -> str:
    if value == 0:
        return "0"
    if abs(value) >= 1e5 or abs(value) < 1e-3:
        return f"{value:.1e}"
    text = f"{value:.6f}".rstrip("0").rstrip(".")
    return text if text else "0"


def line_chart(
    series: list[tuple[str, np.ndarray, np.ndarray]],
    path: str,
    title: str = "",
    x_label: str = "",
    y_label: str = "",
    width: int = 720,
    height: int = 440,
) -> str:
    """Write a line chart for [(label, x, y), ...] to `path`; returns `path`."""
    if not series:
        raise ValueError("need at least one series")
    clean = []
    for label, x, y in series:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape or x.ndim != 1 or x.size == 0:
            raise ValueError(f"series {label!r} needs matching non-empty 1-D x and y")
        clean.append((label, *_downsample(x, y)))

    x_lo = min(float(x.min()) for _, x, _ in clean)
    x_hi = max(float(x.max()) for _, x, _ in clean)
    y_lo = min(float(y.min()) for _, _, y in clean)
    y_hi = max(float(y.max()) for _, _, y in clean)
    xt = _ticks(x_lo, x_hi)
    yt = _ticks(y_lo, y_hi)
    x_lo, x_hi = float(xt[0]), float(xt[-1])
    y_lo, y_hi = float(yt[0]), float(yt[-1])

    left, right, top, bottom = 64, 18, 30 if title else 16, 46
    pw = width - left - right
    ph = height - top - bottom

    def px(v: float) -> float:
        return left + (v - x_lo) / (x_hi - x_lo) * pw

    def py(v: float) -> float:
        return top + ph - (v - y_lo) / (y_hi - y_lo) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    if title:
        parts.append(
            f'<text x="{width / 2:.1f}" y="18" text-anchor="middle" '
            f'font-size="14">{html.escape(title, quote=False)}</text>'
        )
    for v in xt:
        x = px(float(v))
        parts.append(
            f'<line x1="{x:.1f}" y1="{top}" x2="{x:.1f}" y2="{top + ph}" '
            f'stroke="#e0e0e0" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{top + ph + 16}" text-anchor="middle">{_fmt(float(v))}</text>'
        )
    for v in yt:
        y = py(float(v))
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{left + pw}" y2="{y:.1f}" '
            f'stroke="#e0e0e0" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 6}" y="{y + 4:.1f}" text-anchor="end">{_fmt(float(v))}</text>'
        )
    parts.append(
        f'<rect x="{left}" y="{top}" width="{pw}" height="{ph}" fill="none" '
        f'stroke="#404040" stroke-width="1"/>'
    )
    if x_label:
        parts.append(
            f'<text x="{left + pw / 2:.1f}" y="{height - 8}" '
            f'text-anchor="middle">{html.escape(x_label, quote=False)}</text>'
        )
    if y_label:
        cy = top + ph / 2
        parts.append(
            f'<text x="14" y="{cy:.1f}" text-anchor="middle" '
            f'transform="rotate(-90 14 {cy:.1f})">{html.escape(y_label, quote=False)}</text>'
        )
    for i, (label, x, y) in enumerate(clean):
        color = PALETTE[i % len(PALETTE)]
        pts = " ".join(f"{px(float(a)):.1f},{py(float(b)):.1f}" for a, b in zip(x, y))
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
        )
    # legend, top-right corner of the plot area
    ly = top + 14
    for i, (label, _, _) in enumerate(clean):
        color = PALETTE[i % len(PALETTE)]
        lx = left + pw - 150
        parts.append(
            f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" y2="{ly - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(f'<text x="{lx + 28}" y="{ly}">{html.escape(str(label), quote=False)}</text>')
        ly += 16
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
    return path
