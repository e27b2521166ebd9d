"""Self-contained SVG scatter plots of points and rule boxes.

Points are any sequence of (x, y) pairs: a list of tuples, or the rows of
an (n, 2) array. Output is a plain SVG string built with fixed-precision
coordinates, so the same inputs always produce the same bytes. No numpy
here: the plot command draws without loading it.
"""

from __future__ import annotations

from .errors import ConfigError

POINT_COLOR = "#2b6cb0"      # non-anomalous
ANOMALY_COLOR = "#c53030"
BOX_COLOR = "#2f855a"
AXIS_COLOR = "#4a5568"

MARGIN = 48.0


def _px(v: float) -> str:
    return "%.2f" % v


def _tick(v: float) -> str:
    return "%g" % v


def _ranges(point_sets):
    """Padded (x, y) ranges over every pair of every set; (0, 1) each if none."""
    xs = [x for pts in point_sets for x, _ in pts]
    ys = [y for pts in point_sets for _, y in pts]
    if not xs:
        return (0.0, 1.0), (0.0, 1.0)

    def pad(lo, hi):
        if lo == hi:
            return lo - 1.0, hi + 1.0
        m = 0.05 * (hi - lo)
        return lo - m, hi + m

    return pad(min(xs), max(xs)), pad(min(ys), max(ys))


def scatter_rules_svg(points, anomalies, boxes, labels=("x", "y"),
                      width: int = 640, height: int = 480,
                      title: str | None = None) -> str:
    """Render two point sets and axis-aligned boxes.

    points / anomalies: sequences of (x, y) pairs (either may be empty or None).
    boxes: iterable of ((x_lo, y_lo), (x_hi, y_hi)) pairs.
    """
    if width <= 2 * MARGIN or height <= 2 * MARGIN:
        raise ConfigError("plot area too small: %dx%d" % (width, height))
    points = () if points is None else points
    anomalies = () if anomalies is None else anomalies
    boxes = [(tuple(lo), tuple(hi)) for lo, hi in boxes]
    if any(len(lo) != 2 or len(hi) != 2 for lo, hi in boxes):
        raise ConfigError("plot boxes must be 2-D")
    (xmin, xmax), (ymin, ymax) = _ranges([points, anomalies] + boxes)

    def sx(v):
        return MARGIN + (v - xmin) / (xmax - xmin) * (width - 2 * MARGIN)

    def sy(v):
        return height - MARGIN - (v - ymin) / (ymax - ymin) * (height - 2 * MARGIN)

    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" '
        'viewBox="0 0 %d %d">' % (width, height, width, height),
        '<rect width="%d" height="%d" fill="white"/>' % (width, height),
    ]
    if title:
        parts.append(
            '<text x="%s" y="20" font-family="sans-serif" font-size="14" '
            'text-anchor="middle">%s</text>' % (_px(width / 2), _escape(title)))

    # frame and ticks
    parts.append(
        '<rect x="%s" y="%s" width="%s" height="%s" fill="none" stroke="%s"/>'
        % (_px(MARGIN), _px(MARGIN), _px(width - 2 * MARGIN),
           _px(height - 2 * MARGIN), AXIS_COLOR))
    for k in range(5):
        fx = xmin + (xmax - xmin) * k / 4
        fy = ymin + (ymax - ymin) * k / 4
        parts.append(
            '<text x="%s" y="%s" font-family="sans-serif" font-size="10" '
            'text-anchor="middle" fill="%s">%s</text>'
            % (_px(sx(fx)), _px(height - MARGIN + 16), AXIS_COLOR, _tick(fx)))
        parts.append(
            '<text x="%s" y="%s" font-family="sans-serif" font-size="10" '
            'text-anchor="end" fill="%s">%s</text>'
            % (_px(MARGIN - 6), _px(sy(fy) + 3), AXIS_COLOR, _tick(fy)))
    parts.append(
        '<text x="%s" y="%s" font-family="sans-serif" font-size="12" '
        'text-anchor="middle" fill="%s">%s</text>'
        % (_px(width / 2), _px(height - 8), AXIS_COLOR, _escape(labels[0])))
    parts.append(
        '<text x="14" y="%s" font-family="sans-serif" font-size="12" '
        'text-anchor="middle" fill="%s" transform="rotate(-90 14 %s)">%s</text>'
        % (_px(height / 2), AXIS_COLOR, _px(height / 2), _escape(labels[1])))

    # boxes under the points; degenerate extents still get a visible sliver
    for lo, hi in boxes:
        x0, x1 = sx(lo[0]), sx(hi[0])
        y0, y1 = sy(hi[1]), sy(lo[1])  # y axis flips
        w = max(x1 - x0, 1.0)
        h = max(y1 - y0, 1.0)
        parts.append(
            '<rect x="%s" y="%s" width="%s" height="%s" fill="%s" '
            'fill-opacity="0.08" stroke="%s" stroke-width="1.5"/>'
            % (_px(x0), _px(y0), _px(w), _px(h), BOX_COLOR, BOX_COLOR))

    for x, y in points:
        parts.append('<circle cx="%s" cy="%s" r="2.5" fill="%s" '
                     'fill-opacity="0.7"/>' % (_px(sx(x)), _px(sy(y)), POINT_COLOR))
    for x, y in anomalies:
        cx, cy = sx(x), sy(y)
        parts.append(
            '<path d="M %s %s L %s %s M %s %s L %s %s" stroke="%s" '
            'stroke-width="1.8"/>'
            % (_px(cx - 3), _px(cy - 3), _px(cx + 3), _px(cy + 3),
               _px(cx - 3), _px(cy + 3), _px(cx + 3), _px(cy - 3),
               ANOMALY_COLOR))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _escape(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))
