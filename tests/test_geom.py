import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from surfembed.geom import bbox_disjoint, box_pairs, classify_segments, intersection_point, on_segment

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
