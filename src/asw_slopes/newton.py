"""Newton polygons over exact rational arithmetic.

Input points carry Valuation objects; only EXACT valuations may anchor hull
vertices.  An ATLEAST floor is accepted when it cannot dip below the hull of
the exact points, otherwise the hull is not certifiable and we refuse rather
than guess (InsufficientPrecision).
"""

from __future__ import annotations

from fractions import Fraction
from collections import Counter

from .errors import ConfigError, InsufficientPrecision
from .padic import Valuation


def _cross(a, b, c) -> Fraction:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


class NewtonPolygon:
    __slots__ = ("vertices", "source")

    def __init__(self, vertices, source: str = ""):
        vs = [(int(x), Fraction(y)) for x, y in vertices]
        if not vs:
            raise ConfigError("polygon needs at least one vertex")
        for (x0, _), (x1, _) in zip(vs, vs[1:]):
            if x1 <= x0:
                raise ConfigError("vertex x-coordinates must increase")
        self.vertices = vs
        self.source = source

    @property
    def width(self) -> int:
        return self.vertices[-1][0] - self.vertices[0][0]

    def y_at(self, x) -> Fraction:
        x = Fraction(x)
        vs = self.vertices
        if x < vs[0][0] or x > vs[-1][0]:
            raise ConfigError(f"x={x} outside polygon domain")
        for (x0, y0), (x1, y1) in zip(vs, vs[1:]):
            if x0 <= x <= x1:
                return y0 + (y1 - y0) * (x - x0) / (x1 - x0)
        return vs[-1][1]

    def slopes(self) -> list:
        """All slopes with multiplicity = horizontal width, ascending."""
        out = []
        for (x0, y0), (x1, y1) in zip(self.vertices, self.vertices[1:]):
            s = Fraction(y1 - y0, x1 - x0)
            out.extend([s] * (x1 - x0))
        return out

    def slope_multiset(self) -> Counter:
        return Counter(self.slopes())

    def rescale(self, factor, source: str = "") -> "NewtonPolygon":
        f = Fraction(factor)
        return NewtonPolygon(
            [(x, y * f) for x, y in self.vertices], source or self.source
        )

    def dominates(self, other: "NewtonPolygon") -> bool:
        """self lies on or above `other` at every shared integer abscissa."""
        lo = max(self.vertices[0][0], other.vertices[0][0])
        hi = min(self.vertices[-1][0], other.vertices[-1][0])
        return all(self.y_at(x) >= other.y_at(x) for x in range(lo, hi + 1))

    def touch_points(self, other: "NewtonPolygon") -> list:
        lo = max(self.vertices[0][0], other.vertices[0][0])
        hi = min(self.vertices[-1][0], other.vertices[-1][0])
        return [x for x in range(lo, hi + 1) if self.y_at(x) == other.y_at(x)]

    def to_json(self) -> dict:
        return {
            "source": self.source,
            "vertices": [
                [x, y.numerator, y.denominator] for x, y in self.vertices
            ],
            "slopes": [[s.numerator, s.denominator] for s in self.slopes()],
        }

    def __eq__(self, other):
        return (
            isinstance(other, NewtonPolygon) and self.vertices == other.vertices
        )

    def __repr__(self):
        return f"NewtonPolygon({self.vertices!r}, source={self.source!r})"


def lower_hull(points, source: str = "") -> NewtonPolygon:
    """Lower convex hull of (x, Valuation) pairs.

    INFINITE points never constrain the hull.  ATLEAST floors are checked
    against the hull of the EXACT points; a floor strictly below it means the
    data cannot certify the polygon.  Floors beyond the last exact x leave
    the hull truncated there (a prefix claim, not a degree claim).
    """
    exact = []
    floors = []
    for x, val in points:
        if not isinstance(val, Valuation):
            raise ConfigError("lower_hull expects Valuation objects")
        if val.kind == Valuation.INFINITE:
            continue
        if val.kind == Valuation.EXACT:
            exact.append((int(x), Fraction(val.value)))
        else:
            floors.append((int(x), Fraction(val.value)))
    if not exact:
        raise InsufficientPrecision("no exact valuations anchor the hull")
    exact.sort()
    hull = []
    for pt in exact:
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], pt) <= 0:
            hull.pop()
        hull.append(pt)
    np = NewtonPolygon(hull, source)
    lo, hi = hull[0][0], hull[-1][0]
    for x, v in floors:
        if lo <= x <= hi and v < np.y_at(x):
            raise InsufficientPrecision(
                f"floor v>={v} at x={x} may undercut hull y={np.y_at(x)}"
            )
    return np


def hodge_polygon(d: int, width: int, source: str = "hodge") -> NewtonPolygon:
    """Vertices (k, k(k-1)/(2d)) for k = 0..width; slope k/d on [k, k+1]."""
    return NewtonPolygon(
        [(k, Fraction(k * (k - 1), 2 * d)) for k in range(width + 1)], source
    )


def turning_points(d: int, width: int) -> list:
    """Forced contact points: x = nd and nd+1, y(nd) = n(nd-1)/2."""
    out = []
    n = 0
    while n * d <= width:
        out.append((n * d, Fraction(n * (n * d - 1), 2)))
        if n * d + 1 <= width:
            out.append((n * d + 1, Fraction(n * (n * d + 1), 2)))
        n += 1
    return out


def render_svg(polygons, title: str = "") -> str:
    """Standalone SVG overlaying (NewtonPolygon, color, label) triples."""
    if not polygons:
        raise ConfigError("nothing to render")
    xs = [x for poly, _, _ in polygons for x, _ in poly.vertices]
    ys = [float(y) for poly, _, _ in polygons for _, y in poly.vertices]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    wpx, hpx, pad = 640.0, 480.0, 48.0
    sx = (wpx - 2 * pad) / max(x1 - x0, 1)
    sy = (hpx - 2 * pad) / max(y1 - y0, 1e-9)

    def px(x, y):
        return pad + (x - x0) * sx, hpx - pad - (y - y0) * sy

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(wpx)}" '
        f'height="{int(hpx)}" viewBox="0 0 {int(wpx)} {int(hpx)}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    ax, ay = px(x0, y0)
    bx, _ = px(x1, y0)
    _, cy = px(x0, y1)
    parts.append(
        f'<line x1="{ax}" y1="{ay}" x2="{bx}" y2="{ay}" stroke="#888"/>'
    )
    parts.append(
        f'<line x1="{ax}" y1="{ay}" x2="{ax}" y2="{cy}" stroke="#888"/>'
    )
    if title:
        parts.append(
            f'<text x="{wpx / 2}" y="24" text-anchor="middle" '
            f'font-family="monospace" font-size="14">{title}</text>'
        )
    for idx, (poly, color, label) in enumerate(polygons):
        pts = " ".join(
            "{:.2f},{:.2f}".format(*px(x, float(y))) for x, y in poly.vertices
        )
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            'stroke-width="1.5"/>'
        )
        for x, y in poly.vertices:
            cx2, cy2 = px(x, float(y))
            parts.append(
                f'<circle cx="{cx2:.2f}" cy="{cy2:.2f}" r="2.5" fill="{color}"/>'
            )
        if label:
            parts.append(
                f'<text x="{wpx - pad}" y="{pad + 16 * idx}" text-anchor="end" '
                f'font-family="monospace" font-size="12" fill="{color}">'
                f"{label}</text>"
            )
    parts.append("</svg>")
    return "\n".join(parts)
