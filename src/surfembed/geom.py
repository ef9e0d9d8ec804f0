"""Exact rational plane geometry: orientation tests, proper segment
intersection, point-in-polygon winding.  No floating point, no epsilons.
"""

from __future__ import annotations

import math
from fractions import Fraction

Point = tuple[Fraction, Fraction]


class DegeneracyError(ValueError):
    """A configuration outside general position."""


def pt(x, y) -> Point:
    return (Fraction(x), Fraction(y))


def sub(a: Point, b: Point) -> Point:
    return (a[0] - b[0], a[1] - b[1])


def cross(a: Point, b: Point) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


def orient(a: Point, b: Point, c: Point) -> int:
    """Sign of the signed area of (a, b, c)."""
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def on_segment(p: Point, a: Point, b: Point) -> bool:
    """p lies on the closed segment [a, b] (collinearity assumed checked by caller)."""
    if orient(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def strictly_inside_segment(p: Point, a: Point, b: Point) -> bool:
    return on_segment(p, a, b) and p != a and p != b


def bbox_disjoint(a: Point, b: Point, c: Point, d: Point) -> bool:
    return (
        max(a[0], b[0]) < min(c[0], d[0])
        or max(c[0], d[0]) < min(a[0], b[0])
        or max(a[1], b[1]) < min(c[1], d[1])
        or max(c[1], d[1]) < min(a[1], b[1])
    )


def classify_segments(p1: Point, p2: Point, q1: Point, q2: Point):
    """Classify the intersection of segments [p1,p2] and [q1,q2].

    Returns one of:
      ("none", None)
      ("proper", point)   -- transversal crossing of both open interiors
      ("touch", point)    -- single common point involving an endpoint
      ("overlap", None)   -- collinear segments sharing more than one point
    """
    if bbox_disjoint(p1, p2, q1, q2):
        return ("none", None)
    o1 = orient(p1, p2, q1)
    o2 = orient(p1, p2, q2)
    o3 = orient(q1, q2, p1)
    o4 = orient(q1, q2, p2)
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return ("proper", intersection_point(p1, p2, q1, q2))
    if o1 == o2 == 0:
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
    for p in (p1, p2):
        if on_segment(p, q1, q2):
            return ("touch", p)
    for q in (q1, q2):
        if on_segment(q, p1, p2):
            return ("touch", q)
    return ("none", None)


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


def intersection_point(p1: Point, p2: Point, q1: Point, q2: Point) -> Point:
    d1 = sub(p2, p1)
    d2 = sub(q2, q1)
    den = cross(d1, d2)
    if den == 0:
        raise DegeneracyError("parallel segments have no single crossing point")
    t = Fraction(cross(sub(q1, p1), d2)) / den
    return (p1[0] + t * d1[0], p1[1] + t * d1[1])


def crossing_sign(p1: Point, p2: Point, q1: Point, q2: Point) -> int:
    """Sign of det(p2-p1, q2-q1) at a transversal crossing."""
    v = cross(sub(p2, p1), sub(q2, q1))
    return (v > 0) - (v < 0)


def winding_number(poly: list[Point], p: Point) -> int:
    """Winding number of the closed polygon around p.

    Raises DegeneracyError when p lies on the polygon boundary.
    """
    n = len(poly)
    w = 0
    for i in range(n):
        a = poly[i]
        b = poly[(i + 1) % n]
        if a == b:
            continue
        if on_segment(p, a, b):
            raise DegeneracyError("point on polygon boundary")
        if a[1] <= p[1] < b[1] and orient(a, b, p) > 0:
            w += 1
        elif b[1] <= p[1] < a[1] and orient(a, b, p) < 0:
            w -= 1
    return w


def point_in_polygon(poly: list[Point], p: Point) -> bool:
    return winding_number(poly, p) != 0
