import math
import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from surfembed.geom import (
    _in_box,
    bbox_disjoint,
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


def _classify_reference(p1, p2, q1, q2):
    """classify_segments as it stood before its orientations were inlined
    and it could return early."""
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
    # An endpoint lies on the other segment iff its orientation is zero
    # and it is inside that segment's box.
    for o, p, a, b in ((o3, p1, q1, q2), (o4, p2, q1, q2), (o1, q1, p1, p2), (o2, q2, p1, p2)):
        if o == 0 and _in_box(p, a, b):
            return ("touch", p)
    return ("none", None)


def _quadruples(rng, coord):
    """Seeded segment pairs: free ones on a small grid, which cross, touch
    and miss, plus pairs sharing an endpoint and pairs on a common line."""
    for _ in range(3000):
        yield [(coord(), coord()) for _ in range(4)]
    for _ in range(1000):
        p1, p2, q2 = [(coord(), coord()) for _ in range(3)]
        yield [p1, p2, rng.choice((p1, p2)), q2]
    for _ in range(1000):
        base, step = (coord(), coord()), (coord(), coord())
        p1, p2, q1, q2 = [(base[0] + k * step[0], base[1] + k * step[1]) for k in rng.sample(range(-3, 4), 4)]
        yield [p1, p2, q1, q2] if rng.random() < 0.5 else [p1, q1, p2, q2]


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
