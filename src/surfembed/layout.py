"""Independent geometric verifier for surface drawings.

The surface is drawn immersed in the plane: the disk occupies the lower
half of the picture, ribbon images are drawn above a horizontal feet line.
Every edge curve is laid out explicitly with exact integer coordinates:
the core drawing (rescaled into a small box), a corridor rising from an
attachment point on the edge, horizontal bus runs, vertical risers to the
ribbon feet, and lane paths through the ribbon images.  One picture unit
is S grid steps, with S a positive integer per drawing and attempt that
is a multiple of every denominator of the layout, so no point needs
Fraction arithmetic.

The bus runs take their levels after every attachment and lane is
chosen, in the order of _bus_order.  A level moves a corridor within the
disk with its ends fixed, its feet on the feet line and its attachment
below every level, so every pair's signed crossing count is the same in
any order; this one draws the fewest bus-riser crossings.

Crossings are counted by exact segment intersection on that grid.  Each
segment carries the label of the surface piece it lies on ("disk" or a
ribbon index); only same-label crossings are genuine, crossings between the overlapping
images of different ribbons (or different sheets of one twisted ribbon)
are artifacts of the immersion and discarded.  Untwisted ribbon lanes are
nested and never cross; twisted-ribbon lanes keep their slot order across
both feet and are disjoint on the surface, the twist resurfacing as
interleaved chord endpoints in the disk.
"""

from __future__ import annotations

import math

from .geom import GeneralPositionError, box_pairs, classify_segments, crossing_sign
from .surface import SurfaceDrawing, SurfaceError, VerifyReport

DISK = "disk"

# Attachment parameters t = num/den, tried at t -+ 1/e with e = 16 << s,
# s < 6: every den * e divides _T, so the points land on the grid.
_PARAMS = ((1, 2), (1, 3), (2, 3), (2, 5), (3, 5))
_T = 15360


def _transform_core(core, k, unit):
    """The core drawing rescaled into the box [-2,2] x [-1,1], with the
    shear x += y/k so that no attachment segment is vertical.

    Returns (vertex points, polylines, S): the points are S times the
    rescaled ones, S = W*k*unit for W the larger span of the core's
    integer image (core.image(), at least its denominator)."""
    den, vpts, polys = core.image()
    xs = [p[0] for pl in (vpts, *polys) for p in pl] or [0]
    ys = [p[1] for pl in (vpts, *polys) for p in pl] or [0]
    sx, sy = min(xs) + max(xs), min(ys) + max(ys)
    w = max(max(xs) - min(xs), max(ys) - min(ys), den)

    def f(p):
        y = 2 * p[1] - sy
        return (((2 * p[0] - sx) * k + y) * unit, y * k * unit)

    return [f(p) for p in vpts], [[f(p) for p in pl] for pl in polys], w * k * unit


def _ribbon_frames(surface, s):
    """Per ribbon, times s: the left ends of its two unit-wide foot zones,
    and the top and depth of its lane bars."""
    frames = []
    for k in range(surface.ribbon_count):
        if surface.orientable:
            h, pos = divmod(k, 2)
            left = 10 + 6 * h + pos
            frames.append(("staple", left * s, (left + 2) * s, (6 + 2 * pos) * s, s))
        else:
            left = 10 + 6 * k
            frames.append(("band", left * s, (left + 2) * s, 8 * s, 3 * s))
    return frames


def _lane_path(frame, j, total, label, feet, s):
    """Polyline of lane j of total through the ribbon, from foot0 to foot1
    at the feet line, with the per-segment ribbon label."""
    kind, left0, left1, top, depth = frame
    step = s // (total + 1)
    x_in = left0 + (j + 1) * step
    bar = top - (j + 1) * (depth // (total + 1))
    if kind == "staple":
        x_out = left1 + (total - j) * step
        labs = [label] * 3
    else:
        # Twisted ribbon: slot order is preserved across the two feet, so
        # the lane arcs are pairwise disjoint on the surface; their rainbow
        # images cross once per pair in the plane, on different sheets of
        # the immersed band.  Per-lane labels make those crossings artifacts.
        x_out = left1 + (j + 1) * step
        labs = [(label, j)] * 3
    return [(x_in, feet), (x_in, bar), (x_out, bar), (x_out, feet)], labs


def _pick_attachment(polyline, vpts, own_ends, used_x, attempt):
    """A pair of points on the edge whose vertical corridor strip avoids
    every vertex above it (the edge's own endpoints excepted)."""
    nseg = len(polyline) - 1
    rot = attempt % len(_PARAMS)
    for s in range(nseg):
        a, bpt = polyline[s], polyline[s + 1]
        if a[0] == bpt[0]:
            continue
        for num, den in _PARAMS[rot:] + _PARAMS[:rot]:
            for shrink in range(6):
                # t -+ eps = (num*e -+ den) / (den*e); the divisions are exact.
                e = 16 << shrink
                dx, dy = (bpt[0] - a[0]) // (den * e), (bpt[1] - a[1]) // (den * e)
                lo, hi = num * e - den, num * e + den
                p1 = (a[0] + lo * dx, a[1] + lo * dy)
                p2 = (a[0] + hi * dx, a[1] + hi * dy)
                if p1[0] == p2[0] or p1[0] in used_x or p2[0] in used_x:
                    continue
                xl, xr = sorted((p1[0], p2[0]))
                ymin = min(p1[1], p2[1])
                if not any(
                    xl <= vp[0] <= xr and vp[1] >= ymin for v, vp in enumerate(vpts) if v not in own_ends
                ):
                    return s, p1, p2
    raise GeneralPositionError("no valid corridor attachment found")


def _bus_order(keys):
    """The bus runs from the lowest level up, given each run's sort key:
    (0, -x) for a run with its core end at x, (1, -length) for a run
    between two lanes.

    A run at level L crosses the risers that pass L inside its x range: a
    riser at a foot rises from its run's level to the feet line, a riser
    at an attachment from below every level to its run's level.  Runs
    that reach the core, stacked right to left by their core end, meet no
    other's attachment riser, and lie below every riser of a run between
    lanes.  Runs between lanes, longest lowest, cross only where their x
    ranges overlap without nesting.  Each pair of runs then crosses no more
    often than in any other order.  The ties keep the edge order."""
    return sorted(range(len(keys)), key=keys.__getitem__)


def _build_curves(sd: SurfaceDrawing, attempt: int):
    """All edge curves as labeled polylines: (points, per-segment labels)."""
    g = sd.core.graph
    r = sd.surface.ribbon_count

    # Enumerate passes: per edge, (ribbon, lane index, forward) of each.
    totals = [0] * r
    plans = {}
    for e in sd.tube_order:
        plan = []
        for k in range(r):
            c = sd.passes[e][k]
            # Passes count along the polyline, as the curve runs.
            for rep in range(abs(c)):
                plan.append((k, totals[k], c > 0))
                totals[k] += 1
        plans[e] = plan

    nruns = sum(len(p) + 1 for p in plans.values() if p)
    # S is a multiple of the lcm, so every lane slot, bar and bus level is an int.
    unit = _T * math.lcm(2 * (nruns + 1), *(2 * (t + 1) for t in totals))
    vpts, polys, scale = _transform_core(sd.core, 3 + attempt, unit)
    frames = _ribbon_frames(sd.surface, scale)
    feet = 4 * scale

    # Attachments and lane paths first, with each bus run's sort key.
    corridors = {}
    keys = []
    used_x = set()
    for e in range(g.edge_count):
        if not plans[e]:
            continue
        s, p1, p2 = _pick_attachment(polys[e], vpts, set(g.edges[e]), used_x, attempt)
        used_x.add(p1[0])
        used_x.add(p2[0])
        lanes = []
        for k, j, forward in plans[e]:
            lane_pts, lane_labs = _lane_path(frames[k], j, totals[k], ("rib", k), feet, scale)
            if not forward:
                lane_pts = lane_pts[::-1]
                lane_labs = lane_labs[::-1]
            lanes.append((lane_pts, lane_labs))
        # The runs go from p1 to the first lane, from each lane's exit to
        # the next lane's entry, and from the last lane to p2.
        keys.append((0, -p1[0]))
        for (prev, _), (nxt, _) in zip(lanes, lanes[1:]):
            keys.append((1, -abs(nxt[0][0] - prev[-1][0])))
        keys.append((0, -p2[0]))
        corridors[e] = s, p1, p2, lanes
    # Bus runs sit at the levels 2 + (3/2) * i / (nruns + 1), i = 1..nruns,
    # handed out in _bus_order.
    rise = 3 * (scale // (2 * (nruns + 1)))
    levels = [0] * nruns
    for i, run in enumerate(_bus_order(keys)):
        levels[run] = 2 * scale + (i + 1) * rise
    levels = iter(levels)

    curves = []
    labels = []
    for e in range(g.edge_count):
        pl = polys[e]
        if e not in corridors:
            curves.append(list(pl))
            labels.append([DISK] * (len(pl) - 1))
            continue
        s, p1, p2, lanes = corridors[e]
        pts = list(pl[: s + 1]) + [p1]
        labs = [DISK] * (s + 1)
        level = next(levels)
        pts.append((p1[0], level))
        labs.append(DISK)
        for lane_pts, lane_labs in lanes:
            x_in = lane_pts[0][0]
            pts.append((x_in, level))
            labs.append(DISK)
            pts.append((x_in, feet))
            labs.append(DISK)
            pts.extend(lane_pts[1:])
            labs.extend(lane_labs)
            level = next(levels)
            pts.append((lane_pts[-1][0], level))
            labs.append(DISK)
        pts.append((p2[0], level))
        labs.append(DISK)
        pts.append(p2)
        labs.append(DISK)
        pts.extend(pl[s + 1 :])
        labs.extend([DISK] * (len(pl) - s - 1))
        curves.append(pts)
        labels.append(labs)
    return vpts, curves, labels


def _count_crossings(curves, labels):
    """Exact pairwise crossing data with general-position validation.

    Works on the int points of _build_curves, in int arithmetic, and
    classifies only the segment pairs of different curves whose boxes meet
    (geom.box_pairs).  Two curves may touch only at a point that is an end
    of both curves and of both segments, the rule of
    drawing._edge_crossings: each curve joins its edge's vertex points,
    which the core's table has checked distinct, so that point is a vertex
    the two edges share.  No point may be crossed twice.  Only same-label
    crossings are genuine: returns, for each pair (i, j), i < j, the signs
    of its same-label crossings, the shape of PlanarDrawing.crossings().
    """
    m = len(curves)
    # Crossing points are reduced integer triples.
    points = []
    table = {(i, j): [] for i in range(m) for j in range(i + 1, m)}
    for i, si, j, sj in box_pairs(curves):
        if i == j:
            continue
        pli, plj = curves[i], curves[j]
        a, b = pli[si], pli[si + 1]
        c, d = plj[sj], plj[sj + 1]
        kind, p = classify_segments(a, b, c, d)
        if kind == "none":
            continue
        if kind == "overlap":
            raise GeneralPositionError(f"edges {i},{j}: overlapping segments")
        if kind == "touch":
            if not (p in (pli[0], pli[-1]) and p in (plj[0], plj[-1]) and p in (a, b) and p in (c, d)):
                raise GeneralPositionError(f"edges {i},{j}: tangency at {p}")
            continue
        points.append(p)
        if labels[i][si] == labels[j][sj]:
            table[i, j].append(crossing_sign(a, b, c, d))
    if len(set(points)) < len(points):
        raise GeneralPositionError("multiple crossings through one point")
    return table


def verify_geometric(sd: SurfaceDrawing, mode: str = None) -> VerifyReport:
    """Verify a surface drawing by exact geometry of the immersed picture.

    Independent of the combinatorial verifiers: no ribbon form is ever
    evaluated; crossings are counted from coordinates.  Raises
    GeneralPositionError when 12 layout attempts all leave general position.
    """
    if mode is None:
        mode = sd.mode
    if mode not in ("z2", "z"):
        raise SurfaceError("mode must be z2 or z")
    if mode == "z" and not sd.surface.orientable:
        raise SurfaceError("integer verification requires an orientable surface")
    # The layout skips what a core drawing alone can break: an edge against
    # itself and the vertex points.  The core's own table checks those.
    sd.core.crossings()
    last = None
    for attempt in range(12):
        try:
            _, curves, labels = _build_curves(sd, attempt)
            table = _count_crossings(curves, labels)
        except GeneralPositionError as err:
            last = err
            continue
        pairs = {p: len(table[p]) & 1 if mode == "z2" else sum(table[p]) for p in sd.core.graph.pairs}
        return VerifyReport(mode, pairs)
    raise GeneralPositionError(f"geometric layout failed after retries: {last}")
