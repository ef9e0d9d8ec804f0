"""The layout verifier's crossing count against an all-pairs reference."""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from surfembed.drawing import convex_drawing
from surfembed.geom import classify_segments, crossing_sign, integer_image
from surfembed.graph import Graph, complete_bipartite, complete_graph
from surfembed.intmat import IntMatrix, factor_alternating
from surfembed.layout import DISK, LayoutError, _build_curves, _count_crossings
from surfembed.solver import z2_genus
from surfembed.surface import SurfaceDrawing, SurfaceSpec, construct_z_embedding


def _count_crossings_all_pairs(sd, vpts, curves, labels):
    """The crossing count as it was before box pruning: every segment pair
    of every curve pair goes through classify_segments, and crossing
    points are keyed as Fraction pairs."""
    g = sd.core.graph
    _, (vpts, *curves) = integer_image([vpts, *curves])
    m = g.edge_count
    point_log = {}
    table = {}
    for i in range(m):
        for j in range(i + 1, m):
            shared = set(g.edges[i]) & set(g.edges[j])
            shared_pts = {vpts[v] for v in shared}
            hits = []
            pli, plj = curves[i], curves[j]
            for si in range(len(pli) - 1):
                a, b = pli[si], pli[si + 1]
                for sj in range(len(plj) - 1):
                    c, d = plj[sj], plj[sj + 1]
                    kind, p = classify_segments(a, b, c, d)
                    if kind == "none":
                        continue
                    if kind == "overlap":
                        raise LayoutError(f"edges {i},{j}: overlapping segments")
                    if kind == "touch":
                        ok = p in shared_pts and p in (pli[0], pli[-1]) and p in (plj[0], plj[-1])
                        if not ok:
                            raise LayoutError(f"edges {i},{j}: tangency at {p}")
                        continue
                    p = (Fraction(p[0], p[2]), Fraction(p[1], p[2]))
                    point_log[p] = point_log.get(p, 0) + 1
                    same = labels[i][si] == labels[j][sj]
                    hits.append((crossing_sign(a, b, c, d), same))
            table[(i, j)] = hits
    for cnt in point_log.values():
        if cnt > 1:
            raise LayoutError("multiple crossings through one point")
    return table


def _outcome(count, sd, attempt):
    vpts, curves, labels = _build_curves(sd, attempt)
    try:
        return count(sd, vpts, curves, labels)
    except LayoutError as err:
        return str(err)


def _skew_product(b, m):
    """B^T H B for B with m columns, H the block-diagonal [[0, 1], [-1, 0]]."""
    out = [[0] * m for _ in range(m)]
    for h in range(len(b) // 2):
        x, y = b[2 * h], b[2 * h + 1]
        for i in range(m):
            for j in range(m):
                out[i][j] += x[i] * y[j] - y[i] * x[j]
    return out


def _random_surface_drawings(rng, count):
    """Drawings made like the benchmark's verify inputs: convex cores with
    5-7 vertices and 4-8 edges, random Z2 passes on S1, S2, M1, M2 and M3,
    and genus-1 Z factors of B^T H B with entries of B in [-2, 2]."""
    plan = [("z2", m, s) for s in (("S", 1), ("S", 2), ("M", 1), ("M", 2), ("M", 3)) for m in (4, 6, 8)]
    plan += [("z", m, ("S", 1)) for m in range(4, 9)]
    out = []
    for mode, m, (kind, genus) in itertools.islice(itertools.cycle(plan), count):
        n = rng.randrange(5, 8)
        possible = list(itertools.combinations(range(n), 2))
        rng.shuffle(possible)
        g = Graph(n, possible[:m])
        order = list(range(n))
        rng.shuffle(order)
        core = convex_drawing(g, order)
        if mode == "z2":
            spec = SurfaceSpec(kind, genus)
            passes = [[rng.getrandbits(1) for _ in range(spec.ribbon_count)] for _ in range(m)]
            tube = list(range(m))
            rng.shuffle(tube)
            out.append(SurfaceDrawing(spec, core, passes, tube))
        else:
            b = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(2)]
            f = factor_alternating(IntMatrix(m, m, _skew_product(b, m)))
            out.append(construct_z_embedding(g, core, f, SurfaceSpec("S", f.rows // 2)))
    return out


def test_box_pruned_count_matches_all_pairs_on_random_surface_drawings():
    rng = random.Random(2020)
    outcomes = set()
    for k, sd in enumerate(_random_surface_drawings(rng, 200)):
        attempt = k % 3
        got = _outcome(_count_crossings, sd, attempt)
        assert got == _outcome(_count_crossings_all_pairs, sd, attempt)
        outcomes.add(type(got))
    assert outcomes == {dict}


@pytest.mark.parametrize("g", [complete_graph(5), complete_bipartite(3, 3), complete_bipartite(4, 4)])
def test_box_pruned_count_matches_all_pairs_on_witnesses(g):
    sd = z2_genus(g, "orientable").witness.surface_drawing
    for attempt in range(3):
        got = _outcome(_count_crossings, sd, attempt)
        assert isinstance(got, dict)
        assert got == _outcome(_count_crossings_all_pairs, sd, attempt)


def _degenerate(vertex_points, curves):
    """_count_crossings on hand-made curves of independent edges."""
    g = Graph(len(vertex_points), [(pl[0], pl[-1]) for pl in curves])
    polylines = [[vertex_points[pl[0]], *pl[1:-1], vertex_points[pl[-1]]] for pl in curves]
    sd = SimpleNamespace(core=SimpleNamespace(graph=g))
    labels = [[DISK] * (len(pl) - 1) for pl in polylines]
    for count in (_count_crossings, _count_crossings_all_pairs):
        with pytest.raises(LayoutError) as err:
            count(sd, vertex_points, polylines, labels)
        yield str(err.value)


def test_collinear_overlap_with_one_common_x_is_rejected():
    # Two vertical segments on x = 3 share [3,2]-[3,4]; their boxes meet
    # in the single x value 3.
    vpts = [(3, 0), (8, 0), (3, 6), (0, 9)]
    curves = [[0, (3, 4), 1], [2, (3, 2), 3]]
    assert list(_degenerate(vpts, curves)) == ["edges 0,1: overlapping segments"] * 2


def test_tangency_at_a_non_shared_endpoint_is_rejected():
    # Edge 1 bends at (2, 0), inside edge 0; each box pair meets in one
    # coordinate only.
    vpts = [(0, 0), (4, 0), (2, 5), (5, 5)]
    curves = [[0, 1], [2, (2, 0), 3]]
    assert list(_degenerate(vpts, curves)) == ["edges 0,1: tangency at (2, 0)"] * 2


def test_three_crossings_through_one_point_are_rejected():
    # All three pairs cross at (3/2, 1/2), each with another determinant.
    vpts = [(0, 0), (3, 1), (0, 1), (3, 0), (1, 0), (2, 1)]
    curves = [[0, 1], [2, 3], [4, 5]]
    assert list(_degenerate(vpts, curves)) == ["multiple crossings through one point"] * 2
