"""The layout verifier's integer grid against the Fraction layout, and its
crossing count against an all-pairs reference."""

import itertools
import random
from fractions import Fraction
from types import SimpleNamespace

import pytest

from surfembed import layout as layout_module
from surfembed.drawing import convex_drawing
from surfembed.geom import GeneralPositionError, box_pairs, integer_image, orient
from surfembed.graph import Graph, complete_bipartite, complete_graph
from surfembed.intmat import IntMatrix, factor_alternating
from surfembed.layout import DISK, _build_curves, _count_crossings, verify_geometric
from surfembed.solver import z2_genus
from surfembed.surface import SurfaceDrawing, SurfaceSpec, construct_z_embedding, verify_z
from test_geom import _classify_reference


def _count_crossings_all_pairs(sd, vpts, curves, labels):
    """The crossing count as it was before box pruning and the graph-free
    contact rule, on orientations alone: every segment pair of every curve
    pair goes through test_geom._classify_reference, which decides by
    geom.orient and finds a crossing point by the Fraction formula, not
    through classify_segments; two curves may touch only at an end of both
    that is the point of a vertex their edges share, and crossing points
    are keyed as Fraction pairs.  Returns the signs of each
    pair's same-label crossings; at a proper crossing of [a, b] and [c, d]
    that sign, of det(b - a, d - c), is orient(a, b, d)."""
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
                    kind, p = _classify_reference(a, b, c, d)
                    if kind == "none":
                        continue
                    if kind == "overlap":
                        raise GeneralPositionError(f"edges {i},{j}: overlapping segments")
                    if kind == "touch":
                        ok = p in shared_pts and p in (pli[0], pli[-1]) and p in (plj[0], plj[-1])
                        if not ok:
                            raise GeneralPositionError(f"edges {i},{j}: tangency at {p}")
                        continue
                    p = (Fraction(p[0], p[2]), Fraction(p[1], p[2]))
                    point_log[p] = point_log.get(p, 0) + 1
                    if labels[i][si] == labels[j][sj]:
                        hits.append(orient(a, b, d))
            table[(i, j)] = hits
    for cnt in point_log.values():
        if cnt > 1:
            raise GeneralPositionError("multiple crossings through one point")
    return table


def _outcome(sd, attempt):
    """The table or the GeneralPositionError text of _count_crossings and
    of the reference, which must agree."""
    vpts, curves, labels = _build_curves(sd, attempt)
    got = []
    for count, args in ((_count_crossings, ()), (_count_crossings_all_pairs, (sd, vpts))):
        try:
            got.append(count(*args, curves, labels))
        except GeneralPositionError as err:
            got.append(str(err))
    assert got[0] == got[1]
    return got[0]


def _skew_product(b, m):
    """B^T H B for B with m columns, H the block-diagonal [[0, 1], [-1, 0]]."""
    out = [[0] * m for _ in range(m)]
    for h in range(len(b) // 2):
        x, y = b[2 * h], b[2 * h + 1]
        for i in range(m):
            for j in range(m):
                out[i][j] += x[i] * y[j] - y[i] * x[j]
    return out


def _random_surface_drawings(rng, count, z_genera=(1,)):
    """Drawings made like the benchmark's verify inputs: convex cores with
    5-7 vertices and 4-8 edges, random Z2 passes on S1, S2, M1, M2 and M3,
    and Z factors of B^T H B with 2h rows of B, h in z_genera, and entries
    of B in [-2, 2]."""
    plan = [("z2", m, s) for s in (("S", 1), ("S", 2), ("M", 1), ("M", 2), ("M", 3)) for m in (4, 6, 8)]
    plan += [("z", m, ("S", h)) for h in z_genera for m in range(4, 9)]
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
            b = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(2 * genus)]
            f = factor_alternating(IntMatrix(m, m, _skew_product(b, m)))
            out.append(construct_z_embedding(g, core, f, SurfaceSpec("S", f.rows // 2)))
    return out


def test_box_pruned_count_matches_all_pairs_on_random_surface_drawings():
    rng = random.Random(2020)
    outcomes = set()
    for k, sd in enumerate(_random_surface_drawings(rng, 200)):
        outcomes.add(type(_outcome(sd, k % 3)))
    assert outcomes == {dict}


@pytest.mark.parametrize("g", [complete_graph(5), complete_bipartite(3, 3), complete_bipartite(4, 4)])
def test_box_pruned_count_matches_all_pairs_on_witnesses(g):
    sd = z2_genus(g, "orientable").witness.surface_drawing
    for attempt in range(3):
        assert isinstance(_outcome(sd, attempt), dict)


def test_the_k7_witness_layout_has_549_of_754_box_pairs_between_curves():
    sd = z2_genus(complete_graph(7), "orientable").witness.surface_drawing
    _, curves, _ = _build_curves(sd, 0)
    pairs = box_pairs(curves)
    across = box_pairs(curves, across=True)
    assert across == [p for p in pairs if p[0] != p[2]]
    assert (len(across), len(pairs)) == (549, 754)


# The layout as it was in Fraction arithmetic, kept as the reference for
# the integer grid of _build_curves.
def _transform_core_fraction(core, attempt):
    xs = [p[0] for pl in core.edge_polylines for p in pl] or [Fraction(0)]
    ys = [p[1] for pl in core.edge_polylines for p in pl] or [Fraction(0)]
    xs += [p[0] for p in core.vertex_points]
    ys += [p[1] for p in core.vertex_points]
    cx = Fraction(min(xs) + max(xs), 2)
    cy = Fraction(min(ys) + max(ys), 2)
    w = max(max(xs) - min(xs), max(ys) - min(ys), Fraction(1))
    shear = Fraction(1, 3 + attempt)

    def f(p):
        y = (p[1] - cy) * 2 / w
        x = (p[0] - cx) * 2 / w + shear * y
        return (x, y)

    return [f(p) for p in core.vertex_points], [[f(p) for p in pl] for pl in core.edge_polylines]


def _ribbon_frames_fraction(surface):
    frames = []
    for k in range(surface.ribbon_count):
        if surface.orientable:
            h, pos = divmod(k, 2)
            base = Fraction(10 + 6 * h)
            frames.append(("staple", base + Fraction(1, 2) + pos, base + Fraction(5, 2) + pos, Fraction(5 + 2 * pos)))
        else:
            base = Fraction(10 + 6 * k)
            frames.append(("band", base + Fraction(1, 2), base + Fraction(5, 2), None))
    return frames


def _slot_fraction(center, j, total):
    return center - Fraction(1, 2) + Fraction(j + 1, total + 1)


def _lane_path_fraction(frame, j, total, label):
    kind, foot0, foot1, bar_lo = frame
    feet = Fraction(4)
    x_in = _slot_fraction(foot0, j, total)
    if kind == "staple":
        x_out = _slot_fraction(foot1, total - 1 - j, total)
        bar = bar_lo + 1 - Fraction(j + 1, total + 1)
        return [(x_in, feet), (x_in, bar), (x_out, bar), (x_out, feet)], [label] * 3
    x_out = _slot_fraction(foot1, j, total)
    bar = Fraction(8) - 3 * Fraction(j + 1, total + 1)
    return [(x_in, feet), (x_in, bar), (x_out, bar), (x_out, feet)], [(label, j)] * 3


def _pick_attachment_fraction(polyline, attach_hint, vpts, own_ends, used_x, attempt):
    nseg = len(polyline) - 1
    params = [Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(2, 5), Fraction(3, 5)]
    rot = attempt % len(params)
    for ds in range(nseg):
        s = (attach_hint + ds) % nseg
        a, bpt = polyline[s], polyline[s + 1]
        if a[0] == bpt[0]:
            continue
        for t in params[rot:] + params[:rot]:
            for shrink in range(6):
                eps = Fraction(1, 16 << shrink)
                if not (0 < t - eps and t + eps < 1):
                    continue
                p1 = (a[0] + (t - eps) * (bpt[0] - a[0]), a[1] + (t - eps) * (bpt[1] - a[1]))
                p2 = (a[0] + (t + eps) * (bpt[0] - a[0]), a[1] + (t + eps) * (bpt[1] - a[1]))
                if p1[0] == p2[0] or p1[0] in used_x or p2[0] in used_x:
                    continue
                xl, xr = sorted((p1[0], p2[0]))
                ymin = min(p1[1], p2[1])
                if not any(
                    v not in own_ends and xl <= vp[0] <= xr and vp[1] >= ymin for v, vp in enumerate(vpts)
                ):
                    return s, p1, p2
    raise GeneralPositionError("no valid corridor attachment found")


def _build_curves_fraction(sd, attempt, edge_order_levels=False):
    """The Fraction layout.  Bus runs take their levels by rank: runs that
    reach the core lowest, right to left by their core end, then runs
    between lanes, longest lowest; with edge_order_levels, in the order of
    the edges and their passes instead, as the layout stacked them before."""
    g = sd.core.graph
    vpts, polys = _transform_core_fraction(sd.core, attempt)
    frames = _ribbon_frames_fraction(sd.surface)
    r = sd.surface.ribbon_count
    lane_of = {}
    totals = [0] * r
    plans = {}
    for e in sd.tube_order:
        plan = []
        for k in range(r):
            c = sd.passes[e][k]
            direction = 1 if c > 0 else -1
            for _ in range(abs(c)):
                lane_of[(e, len(plan))] = (k, totals[k])
                totals[k] += 1
                plan.append((k, direction))
        plans[e] = plan
    feet = Fraction(4)
    attached = {}
    runs = []
    used_x = set()
    for e in range(g.edge_count):
        if not plans[e]:
            continue
        s, p1, p2 = _pick_attachment_fraction(polys[e], 0, vpts, set(g.edges[e]), used_x, attempt)
        used_x.add(p1[0])
        used_x.add(p2[0])
        lanes = []
        for idx, (k, direction) in enumerate(plans[e]):
            j = lane_of[(e, idx)][1]
            lane_pts, lane_labs = _lane_path_fraction(frames[k], j, totals[k], ("rib", k))
            if direction < 0:
                lane_pts = lane_pts[::-1]
                lane_labs = lane_labs[::-1]
            lanes.append((lane_pts, lane_labs))
        attached[e] = s, p1, p2, lanes
        runs.append((0, -p1[0]))
        for (prev, _), (nxt, _) in zip(lanes, lanes[1:]):
            runs.append((1, -abs(nxt[0][0] - prev[-1][0])))
        runs.append((0, -p2[0]))
    nruns = len(runs)
    ranked = range(nruns) if edge_order_levels else sorted(range(nruns), key=lambda i: runs[i])
    level_of = {run: Fraction(2) + Fraction(3, 2) * Fraction(i + 1, nruns + 1) for i, run in enumerate(ranked)}
    levels = (level_of[i] for i in range(nruns))
    curves = []
    labels = []
    for e in range(g.edge_count):
        pl = polys[e]
        if e not in attached:
            curves.append(list(pl))
            labels.append([DISK] * (len(pl) - 1))
            continue
        s, p1, p2, lanes = attached[e]
        pts = list(pl[: s + 1]) + [p1]
        labs = [DISK] * (s + 1)
        level = next(levels)
        pts.append((p1[0], level))
        labs.append(DISK)
        for lane_pts, lane_labs in lanes:
            x_in = lane_pts[0][0]
            pts += [(x_in, level), (x_in, feet)]
            labs += [DISK, DISK]
            pts.extend(lane_pts[1:])
            labs.extend(lane_labs)
            level = next(levels)
            pts.append((lane_pts[-1][0], level))
            labs.append(DISK)
        pts += [(p2[0], level), p2]
        labs += [DISK, DISK]
        pts.extend(pl[s + 1 :])
        labs.extend([DISK] * (len(pl) - s - 1))
        curves.append(pts)
        labels.append(labs)
    return vpts, curves, labels


def _grid_ratio(sd, attempt, edge_order_levels=False):
    """The integer S with _build_curves = S * _build_curves_fraction, or the
    GeneralPositionError text both raise."""
    try:
        ref = _build_curves_fraction(sd, attempt, edge_order_levels)
    except GeneralPositionError as err:
        with pytest.raises(GeneralPositionError) as got:
            _build_curves(sd, attempt)
        assert str(got.value) == str(err)
        return str(err)
    vpts, curves, labels = _build_curves(sd, attempt)
    assert labels == ref[2]
    assert [len(pl) for pl in curves] == [len(pl) for pl in ref[1]]
    new = [c for pts in (vpts, *curves) for p in pts for c in p]
    old = [c for pts in (ref[0], *ref[1]) for p in pts for c in p]
    assert len(new) == len(old) and all(type(c) is int for c in new)
    scale = next(Fraction(a) / b for a, b in zip(new, old) if b)
    assert scale.denominator == 1 and scale > 0
    assert new == [scale * b for b in old]
    return scale


def test_integer_grid_is_a_multiple_of_the_fraction_layout_on_random_surface_drawings():
    rng = random.Random(2021)
    outcomes = set()
    for sd in _random_surface_drawings(rng, 200):
        for attempt in range(3):
            outcomes.add(type(_grid_ratio(sd, attempt)))
    assert outcomes == {Fraction}


@pytest.mark.parametrize("g", [complete_graph(5), complete_bipartite(3, 3), complete_bipartite(4, 4)])
def test_integer_grid_is_a_multiple_of_the_fraction_layout_on_witnesses(g):
    sd = z2_genus(g, "orientable").witness.surface_drawing
    for attempt in range(3):
        assert isinstance(_grid_ratio(sd, attempt), Fraction)


def _table(sd, attempt):
    """_count_crossings of one layout attempt, or its GeneralPositionError text."""
    try:
        return _count_crossings(*_build_curves(sd, attempt)[1:])
    except GeneralPositionError as err:
        return str(err)


def test_bus_order_keeps_every_pair_and_draws_no_more_crossings(monkeypatch):
    # The reference stacks the bus runs in edge order, as the layout did
    # before; the integer grid under it is the Fraction layout of that
    # order.  Moving a run to another level keeps its corridor's ends, so
    # the verdicts agree, and no pair of edges crosses more often.
    rng = random.Random(2033)
    drawings = _random_surface_drawings(rng, 220, z_genera=(1, 2))
    surfaces = set()
    fewer = 0
    for k, sd in enumerate(drawings):
        surfaces.add((sd.mode, sd.surface))
        attempt = k % 3
        got = verify_geometric(sd)
        ours = _table(sd, attempt)
        with monkeypatch.context() as m:
            m.setattr(layout_module, "_bus_order", lambda keys: range(len(keys)))
            assert verify_geometric(sd).pairs == got.pairs
            assert isinstance(_grid_ratio(sd, attempt, edge_order_levels=True), Fraction)
            theirs = _table(sd, attempt)
        assert type(ours) is type(theirs)
        if isinstance(ours, dict):
            assert all(len(ours[p]) <= len(theirs[p]) for p in ours)
            fewer += sum(map(len, ours.values())) < sum(map(len, theirs.values()))
    assert {("z", SurfaceSpec("S", 2)), ("z2", SurfaceSpec("M", 3))} <= surfaces
    assert fewer >= 150


def test_genus_two_z_embeddings_agree_with_the_combinatorial_verifier():
    # The benchmark's Z half stops at genus 1; here B has four rows.
    rng = random.Random(2022)
    genera = set()
    for _ in range(20):
        m = rng.randrange(4, 9)
        n = rng.randrange(5, 8)
        possible = list(itertools.combinations(range(n), 2))
        rng.shuffle(possible)
        g = Graph(n, possible[:m])
        order = list(range(n))
        rng.shuffle(order)
        b = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(4)]
        f = factor_alternating(IntMatrix(m, m, _skew_product(b, m)))
        sd = construct_z_embedding(g, convex_drawing(g, order), f, SurfaceSpec("S", f.rows // 2))
        combo, geo = verify_z(sd), verify_geometric(sd, "z")
        assert geo.pairs == combo.pairs and geo.is_embedding == combo.is_embedding
        genera.add(f.rows // 2)
    assert 2 in genera


def _degenerate(vertex_points, curves):
    """_count_crossings on hand-made curves of independent edges."""
    g = Graph(len(vertex_points), [(pl[0], pl[-1]) for pl in curves])
    polylines = [[vertex_points[pl[0]], *pl[1:-1], vertex_points[pl[-1]]] for pl in curves]
    sd = SimpleNamespace(core=SimpleNamespace(graph=g))
    labels = [[DISK] * (len(pl) - 1) for pl in polylines]
    for count, args in ((_count_crossings, ()), (_count_crossings_all_pairs, (sd, vertex_points))):
        with pytest.raises(GeneralPositionError) as err:
            count(*args, polylines, labels)
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


def test_a_curve_through_its_own_end_point_is_refused():
    # Curve 1 starts at (4, 0), where curve 0 ends, and its middle segment
    # passes through that point again.  The two edges share the vertex
    # there, so the shared-vertex rule let the touch pass; the point is an
    # end of neither segment of the touch, which the contact rule refuses.
    curves = [[(0, 0), (4, 0)], [(4, 0), (2, 2), (6, -2), (8, 4)]]
    labels = [[DISK] * (len(pl) - 1) for pl in curves]
    with pytest.raises(GeneralPositionError) as err:
        _count_crossings(curves, labels)
    assert str(err.value) == "edges 0,1: tangency at (4, 0)"
    g = Graph(3, [(0, 1), (1, 2)])
    sd = SimpleNamespace(core=SimpleNamespace(graph=g))
    assert _count_crossings_all_pairs(sd, [(0, 0), (4, 0), (8, 4)], curves, labels) == {(0, 1): []}


def test_a_layout_that_runs_out_raises_general_position_error(monkeypatch):
    sd = z2_genus(complete_graph(5), "orientable").witness.surface_drawing
    attempts = []

    def refuse(polyline, vpts, own_ends, used_x, attempt):
        attempts.append(attempt)
        raise GeneralPositionError("no valid corridor attachment found")

    monkeypatch.setattr(layout_module, "_pick_attachment", refuse)
    with pytest.raises(GeneralPositionError) as err:
        verify_geometric(sd)
    assert str(err.value) == "geometric layout failed after retries: no valid corridor attachment found"
    assert attempts == list(range(12))
