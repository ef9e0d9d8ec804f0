import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from surfembed.geom import (
    _in_box,
    box_pairs,
    classify_segments,
    intersection_point,
    on_segment,
    orient,
)

coord = st.integers(-4, 4) | st.fractions(-2, 2, max_denominator=3)
polylines = st.lists(st.lists(st.tuples(coord, coord), min_size=2, max_size=5), min_size=1, max_size=4)


def _all_pairs(pls, only):
    """Every segment pair in nested-loop order: i, j >= i, si, sj."""
    n = len(pls)
    return [
        (i, si, j, sj)
        for i in range(n)
        for j in range(i, n)
        if only is None or only in (i, j)
        for si in range(len(pls[i]) - 1)
        for sj in range(len(pls[j]) - 1)
        if i < j or si < sj
    ]


def bbox_disjoint(a, b, c, d):
    """The closed boxes of segments [a, b] and [c, d] do not meet: the
    oracle of box_pairs, and a "none" for classify_segments."""
    return (
        max(a[0], b[0]) < min(c[0], d[0])
        or max(c[0], d[0]) < min(a[0], b[0])
        or max(a[1], b[1]) < min(c[1], d[1])
        or max(c[1], d[1]) < min(a[1], b[1])
    )


def _segments(pls, pair):
    i, si, j, sj = pair
    return pls[i][si], pls[i][si + 1], pls[j][sj], pls[j][sj + 1]


@settings(max_examples=300, deadline=None)
@given(polylines, st.data())
def test_box_pairs_are_the_meeting_boxes_in_nested_order(pls, data):
    only = data.draw(st.none() | st.integers(0, len(pls) - 1))
    pairs = box_pairs(pls, only)
    everything = _all_pairs(pls, only)
    assert pairs == [p for p in everything if not bbox_disjoint(*_segments(pls, p))]
    # Whatever classify_segments finds is among the reported pairs.
    reported = set(pairs)
    for p in everything:
        if classify_segments(*_segments(pls, p))[0] != "none":
            assert p in reported


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=4, max_size=4))
def test_classify_segments_on_integer_points(pts):
    p1, p2, q1, q2 = pts
    kind, got = classify_segments(p1, p2, q1, q2)
    if bbox_disjoint(p1, p2, q1, q2):
        assert kind == "none"
    on_other = {e for e, a, b in ((p1, q1, q2), (p2, q1, q2), (q1, p1, p2), (q2, p1, p2)) if on_segment(e, a, b)}
    if kind == "none":
        assert not on_other
    elif kind == "touch":
        assert on_other == {got}
    elif kind == "proper":
        assert not on_other
        x, y, d = got
        assert d > 0 and math.gcd(x, y, d) == 1
        assert (Fraction(x, d), Fraction(y, d)) == intersection_point(*[(Fraction(a), Fraction(b)) for a, b in pts])


def _fraction_point(p1, p2, q1, q2):
    """The common point of two lines by the Fraction formula alone:
    p1 + t (p2 - p1), t = cross(q1 - p1, q2 - q1) / cross(p2 - p1, q2 - q1).
    Int inputs give the reduced triple (X, Y, D) of (X/D, Y/D)."""
    (ax, ay), (bx, by), (cx, cy), (dx, dy) = [(Fraction(x), Fraction(y)) for x, y in (p1, p2, q1, q2)]
    ux, uy, wx, wy = bx - ax, by - ay, dx - cx, dy - cy
    t = ((cx - ax) * wy - (cy - ay) * wx) / (ux * wy - uy * wx)
    x, y = ax + t * ux, ay + t * uy
    if all(type(c) is int for p in (p1, p2, q1, q2) for c in p):
        den = math.lcm(x.denominator, y.denominator)
        return (int(x * den), int(y * den), den)
    return (x, y)


def _classify_reference(p1, p2, q1, q2):
    """classify_segments as it stood before its orientations were inlined,
    it could return early and it decided horizontal-vertical pairs by
    comparisons: orientations only, and the proper point from
    _fraction_point."""
    o1 = orient(p1, p2, q1)
    o2 = orient(p1, p2, q2)
    o3 = orient(q1, q2, p1)
    o4 = orient(q1, q2, p2)
    if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
        return ("proper", _fraction_point(p1, p2, q1, q2))
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
    # An endpoint lies on the other segment iff its orientation is zero
    # and it is inside that segment's box.
    for o, p, a, b in ((o3, p1, q1, q2), (o4, p2, q1, q2), (o1, q1, p1, p2), (o2, q2, p1, p2)):
        if o == 0 and _in_box(p, a, b):
            return ("touch", p)
    return ("none", None)


def _axis_parallel_quadruples(rng, coord):
    """Seeded horizontal and vertical segment pairs, in either order.  A
    horizontal against a vertical one has its ends among five points
    around the lines' common point, so that point is before, at an end of,
    inside or after each: crosses, T-junctions at each end, shared corners
    and misses.  Then pairs of horizontal or of vertical segments on one
    line, some of them zero-length, and zero-length segments anywhere
    against an axis-parallel one."""
    for _ in range(1000):
        x, y = coord(), coord()
        h = [(a, y) for a in rng.sample([x - 2, x - 1, x, x + 1, x + 2], 2)]
        v = [(x, b) for b in rng.sample([y - 2, y - 1, y, y + 1, y + 2], 2)]
        yield h + v if rng.random() < 0.5 else v + h
    for _ in range(1000):
        y = coord()
        pts = [(coord(), y) for _ in range(4)]
        if rng.random() < 0.5:
            pts = [(b, a) for a, b in pts]
        k = rng.randrange(6)
        if k < 2:
            pts[2 * k + 1] = pts[2 * k]
        elif k == 2:
            pts[0] = pts[1] = (coord(), coord())
        yield pts


def _quadruples(rng, coord):
    """Seeded segment pairs: free ones on a small grid, which cross, touch
    and miss, plus pairs sharing an endpoint, pairs on a common line and
    the axis-parallel pairs."""
    for _ in range(3000):
        yield [(coord(), coord()) for _ in range(4)]
    for _ in range(1000):
        p1, p2, q2 = [(coord(), coord()) for _ in range(3)]
        yield [p1, p2, rng.choice((p1, p2)), q2]
    for _ in range(1000):
        base, step = (coord(), coord()), (coord(), coord())
        p1, p2, q1, q2 = [(base[0] + k * step[0], base[1] + k * step[1]) for k in rng.sample(range(-3, 4), 4)]
        yield [p1, p2, q1, q2] if rng.random() < 0.5 else [p1, q1, p2, q2]
    yield from _axis_parallel_quadruples(rng, coord)


def test_classify_segments_matches_the_reference_on_seeded_quadruples():
    rng = random.Random(52)
    coords = {
        "int": lambda: rng.randrange(-3, 4),
        "fraction": lambda: Fraction(rng.randrange(-6, 7), rng.randrange(1, 4)),
    }
    for coord in coords.values():
        kinds = set()
        for p1, p2, q1, q2 in _quadruples(rng, coord):
            got = classify_segments(p1, p2, q1, q2)
            assert got == _classify_reference(p1, p2, q1, q2)
            kinds.add(got[0])
        assert kinds == {"none", "proper", "touch", "overlap"}


def _ends_at(point, a, b):
    """Which ends of [a, b] the point is: "", "first", "second" or both."""
    return ("first" if point == a else "") + ("second" if point == b else "")


def test_axis_parallel_quadruples_cover_every_case():
    rng = random.Random(53)
    for coord in (lambda: rng.randrange(-3, 4), lambda: Fraction(rng.randrange(-6, 7), rng.randrange(1, 4))):
        seen = set()
        for p1, p2, q1, q2 in _axis_parallel_quadruples(rng, coord):
            kind, point = classify_segments(p1, p2, q1, q2)
            if p1 == p2 or q1 == q2:
                seen.add(("zero-length", kind))
            elif p1[1] == p2[1] and q1[0] == q2[0] or p1[0] == p2[0] and q1[1] == q2[1]:
                ends = (_ends_at(point, p1, p2), _ends_at(point, q1, q2)) if kind == "touch" else ()
                seen.add(("crossing lines", kind, *ends))
            else:
                seen.add(("one line", kind))
        assert seen >= {
            ("crossing lines", "none"),
            ("crossing lines", "proper"),
            ("crossing lines", "touch", "first", ""),
            ("crossing lines", "touch", "second", ""),
            ("crossing lines", "touch", "", "first"),
            ("crossing lines", "touch", "", "second"),
            ("crossing lines", "touch", "first", "first"),
            ("crossing lines", "touch", "second", "second"),
            ("one line", "none"),
            ("one line", "touch"),
            ("one line", "overlap"),
            ("zero-length", "none"),
            ("zero-length", "touch"),
        }, seen
