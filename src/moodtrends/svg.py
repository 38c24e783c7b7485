"""Self-contained SVG emission for trend charts: z-scored yearly means as
points, the fitted quadratic as a smooth curve, flagged year pairs annotated
with * (marginal) or ** (significant)."""

from __future__ import annotations

from .stats import FLAG_MARGINAL, FLAG_SIGNIFICANT, SignificanceMatrix, TrendSeries

WIDTH = 640
HEIGHT = 400
MARGIN_LEFT = 56
MARGIN_RIGHT = 24
MARGIN_TOP = 40
MARGIN_BOTTOM = 48
CURVE_SAMPLES = 120
_MARKS = {FLAG_SIGNIFICANT: "**", FLAG_MARGINAL: "*"}


def render_trend_svg(trend: TrendSeries, matrix: SignificanceMatrix) -> str:
    """Render one dimension's trend chart as an SVG document string. The
    trend is one build_trend gives: at least three years, and z-scores that
    are all 0 or straddle 0."""
    years = trend.years
    k = len(years)
    center = (k - 1) / 2.0
    c0, c1, c2 = trend.fit_coeffs

    curve = []
    for s in range(CURVE_SAMPLES + 1):
        xi = -center + s * (k - 1) / CURVE_SAMPLES
        curve.append((xi, c0 + c1 * xi + c2 * xi * xi))

    ys = list(trend.z_scores) + [p[1] for p in curve]
    y_lo, y_hi = min(ys), max(ys)
    if y_hi - y_lo < 1e-9:
        y_lo, y_hi = y_lo - 1.0, y_hi + 1.0
    pad = 0.08 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad

    x_left, x_right = MARGIN_LEFT, WIDTH - MARGIN_RIGHT
    y_top, y_bottom = MARGIN_TOP, HEIGHT - MARGIN_BOTTOM

    def px(xi: float) -> float:
        return x_left + (xi + center) * (x_right - x_left) / (center + center)

    def py(z: float) -> float:
        return y_bottom + (z - y_lo) * (y_top - y_bottom) / (y_hi - y_lo)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH // 2}" y="22" text-anchor="middle" font-family="sans-serif" '
        f'font-size="15">{trend.dimension.value} trend (z-scored yearly means)</text>',
    ]

    # axes: x baseline, y axis, zero line
    parts.append(f'<line x1="{x_left}" y1="{y_bottom}" x2="{x_right}" y2="{y_bottom}" '
                 'stroke="#444444" stroke-width="1"/>')
    parts.append(f'<line x1="{x_left}" y1="{y_top}" x2="{x_left}" y2="{y_bottom}" '
                 'stroke="#444444" stroke-width="1"/>')
    zy = py(0.0)
    parts.append(f'<line x1="{x_left}" y1="{zy:.2f}" x2="{x_right}" y2="{zy:.2f}" '
                 'stroke="#bbbbbb" stroke-width="1" stroke-dasharray="4,4"/>')

    tick_step = max(1, k // 8)
    for i, year in enumerate(years):
        if i % tick_step and i != k - 1:
            continue
        x = px(i - center)
        parts.append(f'<line x1="{x:.2f}" y1="{y_bottom}" x2="{x:.2f}" y2="{y_bottom + 5}" '
                     'stroke="#444444" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{y_bottom + 20}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{year}</text>')
    for z in (y_lo + pad, 0.0, y_hi - pad):
        parts.append(f'<text x="{x_left - 8}" y="{py(z):.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{z:.2f}</text>')

    points = " ".join(f"{px(xi):.2f},{py(z):.2f}" for xi, z in curve)
    parts.append(f'<polyline points="{points}" fill="none" stroke="#1f6fb2" '
                 'stroke-width="2"/>')
    for i, z in enumerate(trend.z_scores):
        parts.append(f'<circle cx="{px(i - center):.2f}" cy="{py(z):.2f}" r="3.5" '
                     'fill="#c03a2b"/>')

    labels = [f"{ya}–{yb} {_MARKS[flag]}"
              for (ya, yb), flag in matrix.flags.items() if flag in _MARKS]
    if labels:
        shown = labels[:6]
        if len(labels) > len(shown):
            shown.append(f"(+{len(labels) - len(shown)} more)")
        text = "flagged pairs: " + "  ".join(shown)
    else:
        text = "flagged pairs: none"
    text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")  # & first
    parts.append(f'<text x="{x_left}" y="{HEIGHT - 12}" font-family="sans-serif" '
                 f'font-size="11" fill="#333333">{text}</text>')

    parts.append("</svg>")
    return "\n".join(parts)
