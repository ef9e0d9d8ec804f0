"""Exact rational plane geometry: orientation tests, proper segment
intersection, the segment pairs of polylines whose boxes meet.  No
floating point, no epsilons.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import itemgetter

Point = tuple[Fraction, Fraction]


class GeneralPositionError(ValueError):
    """A configuration outside general position."""


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of (a, b, c)."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """p lies on the closed segment [a, b]: p is collinear with a and b
    (an exact orientation) and inside their closed box."""
    return orient(a, b, p) == 0 and _in_box(p, a, b)


def _in_box(p: Point, a: Point, b: Point) -> bool:
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def strictly_inside_segment(p: Point, a: Point, b: Point) -> bool:
    return on_segment(p, a, b) and p != a and p != b


def classify_segments(p1: Point, p2: Point, q1: Point, q2: Point):
    """Classify the intersection of segments [p1,p2] and [q1,q2].

    Returns one of:
      ("none", None)
      ("proper", point)   -- transversal crossing of both open interiors,
                             the point as intersection_point gives it
      ("touch", point)    -- single common point involving an endpoint
      ("overlap", None)   -- collinear segments sharing more than one point

    A non-degenerate horizontal segment against a non-degenerate vertical
    one, in either order, can meet only at (x of the vertical, y of the
    horizontal), so comparisons alone decide it.  Every other pair has its
    orientations computed inline, and the test returns "none" as soon as
    both ends of one segment lie strictly on one side of the other's line,
    which decides most pairs whose boxes meet.
    """
    (ax, ay), (bx, by) = p1, p2
    (cx, cy), (dx, dy) = q1, q2
    if ay == by and cx == dx and ax != bx and cy != dy:
        return _axis_parallel(p1, p2, q1, q2, cx, ay, ax, bx, cy, dy)
    if ax == bx and cy == dy and ay != by and cx != dx:
        return _axis_parallel(p1, p2, q1, q2, ax, cy, cx, dx, ay, by)
    ux, uy = bx - ax, by - ay
    v1 = ux * (cy - ay) - uy * (cx - ax)
    v2 = ux * (dy - ay) - uy * (dx - ax)
    if (v1 > 0 and v2 > 0) or (v1 < 0 and v2 < 0):
        return ("none", None)
    wx, wy = dx - cx, dy - cy
    v3 = wx * (ay - cy) - wy * (ax - cx)
    v4 = wx * (by - cy) - wy * (bx - cx)
    if (v3 > 0 and v4 > 0) or (v3 < 0 and v4 < 0):
        return ("none", None)
    if v1 and v2 and v3 and v4:
        # No zero and no pair of equal signs left: a proper crossing.
        return ("proper", intersection_point(p1, p2, q1, q2))
    if v1 == v2 == 0:
        # Collinear; count shared points.
        pts = [q for q in (q1, q2) if on_segment(q, p1, p2)]
        pts += [p for p in (p1, p2) if on_segment(p, q1, q2) and p not in pts]
        uniq = []
        for p in pts:
            if p not in uniq:
                uniq.append(p)
        if len(uniq) == 0:
            return ("none", None)
        if len(uniq) == 1:
            return ("touch", uniq[0])
        return ("overlap", None)
    # Non-collinear with some orientation zero: possible endpoint touch.
    # An endpoint lies on the other segment iff its orientation is zero
    # and it is inside that segment's box.
    for v, p, a, b in ((v3, p1, q1, q2), (v4, p2, q1, q2), (v1, q1, p1, p2), (v2, q2, p1, p2)):
        if v == 0 and _in_box(p, a, b):
            return ("touch", p)
    return ("none", None)


def _axis_parallel(p1: Point, p2: Point, q1: Point, q2: Point, x, y, h0, h1, v0, v1):
    """classify_segments for a horizontal and a vertical segment, in either
    order: the horizontal one spans x from h0 to h1 at height y, the
    vertical one spans y from v0 to v1 at abscissa x.  Comparisons only: a
    common point (x, y) is a proper crossing unless it is an end of one of
    them."""
    if not ((h0 <= x <= h1 or h1 <= x <= h0) and (v0 <= y <= v1 or v1 <= y <= v0)):
        return ("none", None)
    m = (x, y)
    for p in (p1, p2, q1, q2):
        if p == m:
            return ("touch", p)
    return ("proper", intersection_point(p1, p2, q1, q2))


def integer_image(point_lists):
    """Scale lists of rational points by the lcm of all their denominators.

    Returns (lcm, the lists with int coordinates).  A positive scaling
    preserves every orientation, so segment classifications, crossing
    signs and general-position verdicts do not change; int arithmetic is
    much cheaper than Fraction arithmetic.  A point p of the image stands
    for p / lcm.
    """
    den = math.lcm(*(c.denominator for pts in point_lists for p in pts for c in p))

    def scale(p):
        return (p[0].numerator * (den // p[0].denominator), p[1].numerator * (den // p[1].denominator))

    return den, [[scale(p) for p in pts] for pts in point_lists]


def box_pairs(polylines, only: int = None) -> list[tuple[int, int, int, int]]:
    """Segment pairs (i, si, j, sj) of the polylines whose closed boxes meet.

    Segment si of polylines[i] runs from point si to point si + 1.  Pairs
    have i < j, or i == j and si < sj, and come in the order of the nested
    loops over i, j >= i, si, sj.  With only given, just the pairs with
    i == only or j == only.  Every pair that classify_segments does not call
    "none" is among them.

    An x-sorted sweep (Shamos-Hoey): segments enter by their left x, an
    active list keeps those whose right x is not yet passed, and the y
    ranges are compared with closed tests, so boxes touching in a single
    coordinate are reported.  Exact for int and Fraction coordinates.
    """
    segs = []
    for i, pl in enumerate(polylines):
        for s in range(len(pl) - 1):
            (ax, ay), (bx, by) = pl[s], pl[s + 1]
            if ax > bx:
                ax, bx = bx, ax
            if ay > by:
                ay, by = by, ay
            segs.append((ax, bx, ay, by, i, s))
    segs.sort(key=itemgetter(0))
    out = []
    # With only given, a segment of another polyline is tested against the
    # active segments of only, and only's segments against both lists.
    mine = []
    rest = []
    for seg in segs:
        x0, _, y0, y1, i, s = seg
        own = only is None or i == only
        for active in (mine, rest) if own else (mine,):
            keep = []
            for a in active:
                if a[1] >= x0:
                    keep.append(a)
                    if a[3] >= y0 and y1 >= a[2]:
                        j, t = a[4], a[5]
                        out.append((i, s, j, t) if (i, s) < (j, t) else (j, t, i, s))
            active[:] = keep
        (mine if own else rest).append(seg)
    out.sort(key=itemgetter(0, 2, 1, 3))
    return out


def intersection_point(p1: Point, p2: Point, q1: Point, q2: Point):
    """The common point of the lines through [p1,p2] and [q1,q2].

    Rational inputs give a Fraction point.  Int inputs (an integer image)
    give the reduced triple (X, Y, D), D > 0, of the point (X/D, Y/D): equal
    points give equal triples, with no Fraction arithmetic.  An int
    horizontal segment against an int vertical one, in either order, gives
    (x of the vertical, y of the horizontal, 1) with no product.
    """
    (ax, ay), (bx, by) = p1, p2
    (cx, cy), (dx, dy) = q1, q2
    ux, uy = bx - ax, by - ay
    wx, wy = dx - cx, dy - cy
    if type(ux) is int and type(wx) is int:
        if not uy and not wx and ux and wy:
            return (cx, ay, 1)
        if not ux and not wy and uy and wx:
            return (ax, cy, 1)
    den = ux * wy - uy * wx
    if den == 0:
        raise GeneralPositionError("parallel segments have no single crossing point")
    num = (cx - ax) * wy - (cy - ay) * wx
    if type(den) is int:
        if den < 0:
            num, den = -num, -den
        x = ax * den + num * ux
        y = ay * den + num * uy
        g = math.gcd(x, y, den)
        return (x // g, y // g, den // g)
    t = Fraction(num) / den
    return (ax + t * ux, ay + t * uy)


def crossing_sign(p1: Point, p2: Point, q1: Point, q2: Point) -> int:
    """Sign of det(p2-p1, q2-q1) at a transversal crossing."""
    v = (p2[0] - p1[0]) * (q2[1] - q1[1]) - (p2[1] - p1[1]) * (q2[0] - q1[0])
    return (v > 0) - (v < 0)
