"""Independent geometric verifier for surface drawings.

The surface is drawn immersed in the plane: the disk occupies the lower
half of the picture, ribbon images are drawn above a horizontal feet line.
Every edge curve is laid out explicitly with exact rational coordinates:
the core drawing (rescaled into a small box), a corridor rising from an
attachment point on the edge, horizontal bus runs, vertical risers to the
ribbon feet, and lane paths through the ribbon images.

Crossings are counted by exact segment intersection on an integer image
of the picture.  Each segment carries
the label of the surface piece it lies on ("disk" or a ribbon index);
only same-label crossings are genuine, crossings between the overlapping
images of different ribbons (or different sheets of one twisted ribbon)
are artifacts of the immersion and discarded.  Untwisted ribbon lanes are
nested and never cross; twisted-ribbon lanes keep their slot order across
both feet and are disjoint on the surface, the twist resurfacing as
interleaved chord endpoints in the disk.
"""

from __future__ import annotations

from fractions import Fraction

from .geom import box_pairs, classify_segments, crossing_sign, integer_image
from .graph import independent_pairs
from .surface import SurfaceDrawing, SurfaceError, VerifyReport

DISK = "disk"

_FEET_Y = Fraction(4)
_RUN_LO = Fraction(2)
_RUN_SPAN = Fraction(3, 2)


class LayoutError(RuntimeError):
    """The layout attempt left general position; callers retry or report."""


def _transform_core(core, attempt):
    """Rescale the core drawing into the box [-2,2] x [-1,1], with a small
    shear so that no attachment segment is vertical."""
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

    vpts = [f(p) for p in core.vertex_points]
    polys = [[f(p) for p in pl] for pl in core.edge_polylines]
    return vpts, polys


def _ribbon_frames(surface):
    """Fixed horizontal positions of feet and ribbon zones, per ribbon."""
    frames = []
    if surface.orientable:
        for k in range(surface.ribbon_count):
            h, pos = divmod(k, 2)
            base = Fraction(10 + 6 * h)
            foot0 = base + Fraction(1, 2) + pos
            foot1 = base + Fraction(5, 2) + pos
            bar_lo = Fraction(5 + 2 * pos)
            frames.append(("staple", foot0, foot1, bar_lo))
    else:
        for k in range(surface.ribbon_count):
            base = Fraction(10 + 6 * k)
            foot0 = base + Fraction(1, 2)
            foot1 = base + Fraction(5, 2)
            frames.append(("band", foot0, foot1, None))
    return frames


def _slot(center, j, total):
    return center - Fraction(1, 2) + Fraction(j + 1, total + 1)


def _lane_path(frame, j, total, label, attempt):
    """Polyline of lane j through the ribbon, from foot0 to foot1 at the
    feet line, with the per-segment ribbon label."""
    kind = frame[0]
    if kind == "staple":
        _, foot0, foot1, bar_lo = frame
        x_in = _slot(foot0, j, total)
        x_out = _slot(foot1, total - 1 - j, total)
        bar = bar_lo + 1 - Fraction(j + 1, total + 1)
        pts = [(x_in, _FEET_Y), (x_in, bar), (x_out, bar), (x_out, _FEET_Y)]
        return pts, [label] * 3
    # Twisted ribbon: slot order is preserved across the two feet, so the
    # lane arcs are pairwise disjoint on the surface; their rainbow images
    # cross once per pair in the plane, on different sheets of the immersed
    # band.  Per-lane labels make those crossings artifacts.
    _, foot0, foot1, _ = frame
    x_in = _slot(foot0, j, total)
    x_out = _slot(foot1, j, total)
    bar = Fraction(8) - 3 * Fraction(j + 1, total + 1)
    pts = [(x_in, _FEET_Y), (x_in, bar), (x_out, bar), (x_out, _FEET_Y)]
    return pts, [(label, j)] * 3


def _pick_attachment(polyline, attach_hint, vpts, own_ends, used_x, attempt):
    """A pair of points on the edge whose vertical corridor strip avoids
    every vertex above it (the edge's own endpoints excepted)."""
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
                bad = False
                for v, vp in enumerate(vpts):
                    if v in own_ends:
                        continue
                    if xl <= vp[0] <= xr and vp[1] >= ymin:
                        bad = True
                        break
                if not bad:
                    return s, p1, p2
    raise LayoutError("no valid corridor attachment found")


def _build_curves(sd: SurfaceDrawing, attempt: int):
    """All edge curves as labeled polylines: (points, per-segment labels)."""
    g = sd.core.graph
    vpts, polys = _transform_core(sd.core, attempt)
    frames = _ribbon_frames(sd.surface)
    r = sd.surface.ribbon_count

    # Enumerate passes: lane indices per ribbon, run counts per edge.
    lane_of = {}
    totals = [0] * r
    plans = {}
    for e in sd.tube_order:
        plan = []
        for k in range(r):
            c = sd.passes[e][k]
            # Passes count along the edge's orientation, the curve runs
            # along its polyline.
            direction = 1 if c * sd.core.edge_orientations[e] > 0 else -1
            for rep in range(abs(c)):
                lane_of[(e, len(plan))] = (k, totals[k])
                totals[k] += 1
                plan.append((k, direction))
        plans[e] = plan

    nruns = sum(len(p) + 1 for p in plans.values() if p)
    run_iter = iter(range(nruns))

    def next_level():
        return _RUN_LO + _RUN_SPAN * Fraction(next(run_iter) + 1, nruns + 1)

    curves = []
    labels = []
    used_x = set()
    for e in range(g.edge_count):
        pl = polys[e]
        plan = plans[e]
        if not plan:
            curves.append(list(pl))
            labels.append([DISK] * (len(pl) - 1))
            continue
        s, p1, p2 = _pick_attachment(
            pl, sd.attach[e], vpts, set(g.edges[e]), used_x, attempt
        )
        used_x.add(p1[0])
        used_x.add(p2[0])
        pts = list(pl[: s + 1]) + [p1]
        labs = [DISK] * (s + 1)
        level = next_level()
        pts.append((p1[0], level))
        labs.append(DISK)
        for idx, (k, direction) in enumerate(plan):
            frame = frames[k]
            j = lane_of[(e, idx)][1]
            lane_pts, lane_labs = _lane_path(frame, j, totals[k], ("rib", k), attempt)
            if direction < 0:
                lane_pts = lane_pts[::-1]
                lane_labs = lane_labs[::-1]
            x_in = lane_pts[0][0]
            pts.append((x_in, level))
            labs.append(DISK)
            pts.append((x_in, _FEET_Y))
            labs.append(DISK)
            pts.extend(lane_pts[1:])
            labs.extend(lane_labs)
            level = next_level()
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


def _count_crossings(sd: SurfaceDrawing, vpts, curves, labels):
    """Exact pairwise crossing data with general-position validation.

    Works on the integer image of the curves and classifies only the
    segment pairs of different curves whose boxes meet (geom.box_pairs).
    Returns {(i, j): list of (sign, same_label)} for i < j.
    """
    g = sd.core.graph
    _, (vpts, *curves) = integer_image([vpts, *curves])
    m = g.edge_count
    # Crossing points are keyed by their reduced integer triples.
    point_log = {}
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
            raise LayoutError(f"edges {i},{j}: overlapping segments")
        if kind == "touch":
            shared_pts = {vpts[v] for v in set(g.edges[i]) & set(g.edges[j])}
            ok = p in shared_pts and p in (pli[0], pli[-1]) and p in (plj[0], plj[-1])
            if not ok:
                raise LayoutError(f"edges {i},{j}: tangency at {p}")
            continue
        point_log[p] = point_log.get(p, 0) + 1
        same = labels[i][si] == labels[j][sj]
        table[(i, j)].append((crossing_sign(a, b, c, d), same))
    for cnt in point_log.values():
        if cnt > 1:
            raise LayoutError("multiple crossings through one point")
    return table


def verify_geometric(sd: SurfaceDrawing, mode: str = None) -> VerifyReport:
    """Verify a surface drawing by exact geometry of the immersed picture.

    Independent of the combinatorial verifiers: no ribbon form is ever
    evaluated; crossings are counted from coordinates.
    """
    if mode is None:
        mode = sd.mode
    if mode not in ("z2", "z"):
        raise SurfaceError("mode must be z2 or z")
    if mode == "z" and not sd.surface.orientable:
        raise SurfaceError("integer verification requires an orientable surface")
    g = sd.core.graph
    last = None
    for attempt in range(12):
        try:
            vpts, curves, labels = _build_curves(sd, attempt)
            table = _count_crossings(sd, vpts, curves, labels)
        except LayoutError as err:
            last = err
            continue
        out = {}
        ok = True
        for pr in independent_pairs(g):
            hits = table[(pr.i, pr.j)]
            if mode == "z2":
                val = sum(1 for _, same in hits if same) & 1
            else:
                o = sd.core.edge_orientations[pr.i] * sd.core.edge_orientations[pr.j]
                val = sum(sgn for sgn, same in hits if same) * o
            out[(pr.i, pr.j)] = val
            ok = ok and val == 0
        return VerifyReport(mode, out, ok)
    raise LayoutError(f"geometric layout failed after retries: {last}")
