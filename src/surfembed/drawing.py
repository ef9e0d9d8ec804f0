"""General-position PL drawings in the plane with exact rational coordinates.

Crossing-parity and signed-crossing matrices, the canonical convex drawing,
finger-move generators, and the decision procedure for compatibility
modulo 2 with witness construction.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

from .geom import (
    Point,
    DegeneracyError,
    box_pairs,
    classify_segments,
    crossing_sign,
    integer_image,
    strictly_inside_segment,
)
from .gf2 import BitMatrix, Gf2Elimination, solve_gf2
from .graph import Graph
from .intmat import IntMatrix


class GeneralPositionError(ValueError):
    pass


class IncompatibleTargetError(ValueError):
    pass


class RealizationError(RuntimeError):
    """Internal bug guard: a constructed drawing failed post-verification."""


class PlanarDrawing:
    """A drawing of a graph: rational vertex points plus per-edge polylines.

    Polylines run from the point of the lower-index endpoint to the
    higher-index one; edge_orientations[i] = +1 keeps that direction for
    signed crossings, -1 reverses it.  Drawings are not mutated: a finger
    move makes a new drawing that shares the untouched point lists.
    """

    __slots__ = (
        "graph",
        "vertex_points",
        "edge_polylines",
        "edge_orientations",
        "_crossings",
        "_points",
        "_self_points",
    )

    def __init__(self, graph: Graph, vertex_points, edge_polylines, edge_orientations=None):
        self.graph = graph
        self.vertex_points = [(Fraction(x), Fraction(y)) for x, y in vertex_points]
        self.edge_polylines = [[(Fraction(x), Fraction(y)) for x, y in pl] for pl in edge_polylines]
        if edge_orientations is None:
            edge_orientations = [1] * graph.edge_count
        self.edge_orientations = list(edge_orientations)
        if len(self.vertex_points) != graph.vertex_count:
            raise GeneralPositionError("vertex point count mismatch")
        if len(self.edge_polylines) != graph.edge_count:
            raise GeneralPositionError("polyline count mismatch")
        if any(o not in (1, -1) for o in self.edge_orientations):
            raise GeneralPositionError("orientations must be +1/-1")
        self._crossings = None
        # Filled with the table: crossing point -> count over all pair and
        # self-crossings, and each edge's self-crossing points.  A crossing
        # point is the reduced triple (X, Y, Q), Q > 0, of (X/Q, Y/Q).
        self._points = None
        self._self_points = None

    def crossings(self):
        """All proper crossings by edge pair; validates general position."""
        if self._crossings is None:
            self._crossings, self._points, self._self_points = _compute_crossings(self)
        return self._crossings

    def with_polyline(self, edge: int, polyline) -> "PlanarDrawing":
        """A copy with one edge rerouted; the other point lists are shared."""
        d = object.__new__(PlanarDrawing)
        d.graph = self.graph
        d.vertex_points = self.vertex_points
        d.edge_polylines = list(self.edge_polylines)
        d.edge_polylines[edge] = [(Fraction(x), Fraction(y)) for x, y in polyline]
        d.edge_orientations = self.edge_orientations
        d._crossings = d._points = d._self_points = None
        return d


def _polyline_segments(pl):
    return [(pl[k], pl[k + 1]) for k in range(len(pl) - 1)]


def _check_polyline_shape(d: PlanarDrawing, i: int):
    u, v = d.graph.edges[i]
    pl = d.edge_polylines[i]
    if len(pl) < 2:
        raise GeneralPositionError(f"edge {i}: polyline too short")
    if pl[0] != d.vertex_points[u] or pl[-1] != d.vertex_points[v]:
        raise GeneralPositionError(f"edge {i}: polyline does not join its endpoints")
    for a, b in _polyline_segments(pl):
        if a == b:
            raise GeneralPositionError(f"edge {i}: zero-length segment")


def _edge_crossings(d: PlanarDrawing, only: int = None) -> dict:
    """Proper crossings of d's edges, enforcing general position locally.

    Classifies the segment pairs whose boxes meet (geom.box_pairs), all of
    them or those of edge only.  Returns a list per key (i, j), i <= j, for
    every key or every key holding edge only: for i < j the crossings
    (point, sign) of edges i and j, with sign relative to stored polyline
    directions; for i == j the self-crossing points of edge i.
    """
    g = d.graph
    pls = d.edge_polylines
    m = g.edge_count
    if only is None:
        out = {(i, j): [] for i in range(m) for j in range(i, m)}
    else:
        out = {(min(only, f), max(only, f)): [] for f in range(m)}
    for i, si, j, sj in box_pairs(pls, only):
        pli, plj = pls[i], pls[j]
        a, b = pli[si], pli[si + 1]
        c, e = plj[sj], plj[sj + 1]
        kind, p = classify_segments(a, b, c, e)
        if kind == "none":
            continue
        if i == j:
            if kind == "overlap":
                raise GeneralPositionError(f"edge {i}: self-overlap")
            if kind == "touch":
                if sj == si + 1 and p == b:
                    continue  # joint of consecutive segments
                raise GeneralPositionError(f"edge {i}: self-tangency")
            out[(i, i)].append(p)
            continue
        if kind == "overlap":
            raise GeneralPositionError(f"edges {i},{j}: overlapping segments {si},{sj}")
        if kind == "touch":
            shared = set(g.edges[i]) & set(g.edges[j])
            ok = (
                shared
                and p == d.vertex_points[next(iter(shared))]
                and p in (pli[0], pli[-1])
                and p in (plj[0], plj[-1])
                and p in (a, b)
                and p in (c, e)
            )
            if not ok:
                raise GeneralPositionError(
                    f"edges {i},{j}: non-transversal contact at segments {si},{sj}"
                )
            continue
        out[(i, j)].append((p, crossing_sign(a, b, c, e)))
    return out


def _check_vertices_on_edge(d: PlanarDrawing, i: int):
    """No vertex point inside, at a bend of, or at a foreign end of edge i."""
    pl = d.edge_polylines[i]
    segs = _polyline_segments(pl)
    interior_pts = pl[1:-1]
    ends = d.graph.edges[i]
    for w, p in enumerate(d.vertex_points):
        for a, b in segs:
            if strictly_inside_segment(p, a, b):
                raise GeneralPositionError(f"vertex {w} inside edge {i}")
        if p in interior_pts:
            raise GeneralPositionError(f"vertex {w} at a bend of edge {i}")
        if w not in ends and p in (pl[0], pl[-1]):
            raise GeneralPositionError(f"vertex {w} at endpoint of non-incident edge {i}")


def _compute_crossings(d: PlanarDrawing):
    """(pair table, crossing point -> count, self-crossing points per edge),
    every point as its reduced triple (see _unscale)."""
    m = d.graph.edge_count
    for i in range(m):
        _check_polyline_shape(d, i)
    pts = d.vertex_points
    if len(set(pts)) != len(pts):
        raise GeneralPositionError("coincident vertex points")
    for i in range(m):
        _check_vertices_on_edge(d, i)
    table = _image_crossings(*_integer_view(d))
    self_points = [table.pop((i, i)) for i in range(m)]
    point_log = Counter(p for pts in self_points for p in pts)
    for hits in table.values():
        point_log.update(p for p, _ in hits)
    for p, cnt in point_log.items():
        if cnt > 1:
            x, y, q = p
            raise GeneralPositionError(
                f"multiple crossings through one point {(Fraction(x, q), Fraction(y, q))}"
            )
    return table, point_log, self_points


@dataclass
class ParityMatrix:
    """Symmetric GF(2) matrix over edges; only independent-pair slots matter."""

    graph: Graph
    values: BitMatrix

    def __post_init__(self):
        m = self.graph.edge_count
        if self.values.rows != m or self.values.cols != m:
            raise ValueError("parity matrix must be |E| x |E|")
        if not self.values.is_symmetric():
            raise ValueError("parity matrix must be symmetric")

    def get(self, i: int, j: int) -> int:
        return self.values.get(i, j)

    def pair_vector(self) -> int:
        """The bits of the independent pairs, packed in the order of
        graph.pairs: bit k is the slot of graph.pairs[k]."""
        acc = 0
        for k, (i, j) in enumerate(self.graph.pairs):
            if self.values.get(i, j):
                acc |= 1 << k
        return acc

    @classmethod
    def from_pair_vector(cls, graph: Graph, vec: int) -> "ParityMatrix":
        m = graph.edge_count
        b = BitMatrix(m, m)
        for k, (i, j) in enumerate(graph.pairs):
            if (vec >> k) & 1:
                b.set(i, j, 1)
                b.set(j, i, 1)
        return cls(graph, b)


def _target_vector(g: Graph, target: ParityMatrix) -> int:
    """The target's bits over g's independent pairs; the target must be
    indexed by g's edge set."""
    if target.graph.edges != g.edges:
        raise ValueError("target indexed by a different edge set")
    return target.pair_vector()


def _parity_vector(d: PlanarDrawing) -> int:
    """d's crossing parities packed in the order of d.graph.pairs."""
    table = d.crossings()
    acc = 0
    for k, p in enumerate(d.graph.pairs):
        if len(table[p]) & 1:
            acc |= 1 << k
    return acc


def crossing_parity_matrix(d: PlanarDrawing) -> ParityMatrix:
    return ParityMatrix.from_pair_vector(d.graph, _parity_vector(d))


def signed_crossing_matrix(d: PlanarDrawing) -> IntMatrix:
    g = d.graph
    m = g.edge_count
    out = IntMatrix(m, m)
    table = d.crossings()
    for i, j in g.pairs:
        total = sum(s for _, s in table[i, j])
        total *= d.edge_orientations[i] * d.edge_orientations[j]
        out.data[i][j] = total
        out.data[j][i] = -total
    return out


def convex_drawing(g: Graph, order=None) -> PlanarDrawing:
    """Straight-chord drawing with vertices in convex position on a parabola.

    order[k] is the vertex placed at position k along the curve; two chords
    cross exactly when their position pairs interleave, as on a circle.
    The points are integers, stored as Fractions like every drawing's.
    Retries with a deterministic perturbation when chords concur.
    """
    n = g.vertex_count
    if order is None:
        order = list(range(n))
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the vertices")
    for k in range(64):
        pts = [None] * n
        for pos, w in enumerate(order):
            x = 101 * pos + (k * (pos * pos + 1)) % 101
            pts[w] = (x, x * x)
        polylines = [[pts[u], pts[v]] for u, v in g.edges]
        d = PlanarDrawing(g, pts, polylines)
        try:
            d.crossings()
            return d
        except GeneralPositionError:
            continue
    raise GeneralPositionError("could not reach general position by perturbation")


def finger_move_labels(g: Graph) -> list[tuple[int, int]]:
    """(edge, vertex) pairs with the vertex not an endpoint of the edge."""
    out = []
    for e in range(g.edge_count):
        ends = set(g.edges[e])
        for v in range(g.vertex_count):
            if v not in ends:
                out.append((e, v))
    return out


def finger_move_generators(g: Graph) -> list[int]:
    """Parity-change vectors packed over g.pairs, one per finger_move_labels
    entry.

    Rerouting edge e around vertex v flips the crossing parity with every
    edge incident to v and independent of e: the generator of (e, v) is
    at_edge[e] & at_vertex[v], the pairs that contain e and the pairs that
    have v as an end.  v is no end of e, so the pair's other edge has it.
    """
    at_edge = [0] * g.edge_count
    at_vertex = [0] * g.vertex_count
    edges = g.edges
    for k, (i, j) in enumerate(g.pairs):
        bit = 1 << k
        at_edge[i] |= bit
        at_edge[j] |= bit
        for v in edges[i] + edges[j]:
            at_vertex[v] |= bit
    return [at_edge[e] & at_vertex[v] for e, v in finger_move_labels(g)]


def finger_move_columns(g: Graph) -> list[int]:
    """For each pair of g.pairs, the finger moves that flip it, packed over
    the indices of finger_move_labels(g): the transpose of
    finger_move_generators(g), built without it.

    Pair (i, j) lies in exactly four generators: (i, each end of j) and
    (j, each end of i).  The labels run over the edges and, for each edge,
    over the n - 2 vertices off it in increasing order, so the label of
    (e, v), e = (a, b) with a < b, is e (n - 2) + v - [v > a] - [v > b].
    """
    n2 = g.vertex_count - 2
    edges = g.edges
    out = []
    for i, j in g.pairs:
        (a, b), (c, d) = edges[i], edges[j]
        i, j = i * n2, j * n2
        out.append(
            1 << (i + c - (c > a) - (c > b))
            | 1 << (i + d - (d > a) - (d > b))
            | 1 << (j + a - (a > c) - (a > d))
            | 1 << (j + b - (b > c) - (b > d))
        )
    return out


def _pair_ends(g: Graph) -> list[tuple[int, int, int, int]]:
    """The four ends of each pair's edges, as _chord_parities reads them."""
    return [(*g.edges[i], *g.edges[j]) for i, j in g.pairs]


@dataclass
class CompatibilityClass:
    """The affine GF(2) class of the crossing parities of a graph's drawings.

    Vectors are ints packed over graph.pairs.  base holds the parities of
    one drawing; every drawing's are base plus a sum of the generators,
    finger_move_generators(graph), which membership builds when called.
    Without a drawing, base is the parity vector of the convex drawing of
    the identity order, read off chord interleaving (_chord_parities) with
    no geometry.
    """

    graph: Graph
    base: int

    @classmethod
    def compute(cls, g: Graph, drawing: PlanarDrawing = None) -> "CompatibilityClass":
        """The class, its base read from the given drawing of g's edge set,
        or from chord interleaving when none is given."""
        if drawing is None:
            base = _chord_parities(_pair_ends(g), range(g.vertex_count))
        elif drawing.graph.edges != g.edges:
            raise ValueError("drawing indexed by a different edge set")
        else:
            base = _parity_vector(drawing)
        return cls(g, base)

    def membership(self, target: ParityMatrix):
        """Finger-move coefficients taking base to the target, or None."""
        tvec = _target_vector(self.graph, target)
        return solve_gf2(finger_move_generators(self.graph), self.base ^ tvec, len(self.graph.pairs))


def is_compatible_mod2(g: Graph, target: ParityMatrix):
    """Coefficient certificate over finger moves, or None when incompatible.

    The class's base is read from the crossing table of the convex drawing,
    built and validated in exact arithmetic, rather than from chord
    interleaving as CompatibilityClass.compute(g) does; both give the same
    base.
    """
    return CompatibilityClass.compute(g, convex_drawing(g)).membership(target)


def _loop_start(u: Point, vecs) -> int:
    """Index of the first corner direction strictly counterclockwise of u.

    vecs are corner offsets in ccw order with angular gaps below pi.
    Raises when u is parallel to a corner direction; callers retry.
    """
    for v in vecs:
        if u[0] * v[1] - u[1] * v[0] == 0:
            raise DegeneracyError("direction aligned with a loop corner")
    n = len(vecs)
    for k in range(n):
        w = vecs[(k - 1) % n]
        v = vecs[k]
        if w[0] * u[1] - w[1] * u[0] > 0 and u[0] * v[1] - u[1] * v[0] > 0:
            return k
    raise DegeneracyError("no corner strictly counterclockwise of direction")


def finger_polyline(polyline, vpt: Point, shrink: int, attempt: int):
    """Reroute a polyline with a finger around the point vpt.

    Splits the first segment at p- / p+ and inserts a detour that walks a
    small rectangular loop around vpt.  Purely geometric; the caller checks
    the parity effect and general position and retries with other
    parameters.

    Every parameter is dyadic and the scale alpha is a power of two, so a
    finger on a drawing with dyadic coordinates (a convex drawing's are
    integers) adds only dyadic points.  The common denominator of a drawing
    then grows by a few bits per nesting level; rational parameters would
    multiply it with every move, and every later segment test pays for its
    size.
    """
    s0, t0 = polyline[0], polyline[1]
    lam = Fraction(2 ** (attempt + 1) - 1, 2 ** (attempt + 2))
    delta = Fraction(1, 64 << attempt // 4)
    pm = (s0[0] + (lam - delta) * (t0[0] - s0[0]), s0[1] + (lam - delta) * (t0[1] - s0[1]))
    pp = (s0[0] + (lam + delta) * (t0[0] - s0[0]), s0[1] + (lam + delta) * (t0[1] - s0[1]))
    pc = (s0[0] + lam * (t0[0] - s0[0]), s0[1] + lam * (t0[1] - s0[1]))
    u = (pc[0] - vpt[0], pc[1] - vpt[1])
    if u == (Fraction(0), Fraction(0)):
        raise DegeneracyError("finger base point at the vertex")
    side = Fraction(1, 8 << shrink)
    # The largest power of two alpha with alpha * max|u| <= side.
    ratio = side / max(abs(u[0]), abs(u[1]))
    alpha = Fraction(2) ** (ratio.numerator.bit_length() - ratio.denominator.bit_length())
    if alpha > ratio:
        alpha /= 2
    mouth = (vpt[0] + alpha * Fraction(17, 16) * u[0], vpt[1] + alpha * Fraction(17, 16) * u[1])
    rho = alpha / 16
    b1 = (mouth[0] - rho * u[1], mouth[1] + rho * u[0])
    b2 = (mouth[0] + rho * u[1], mouth[1] - rho * u[0])
    # Rectangle around vpt; the aspect ratio varies with the attempt so a
    # corner cannot stay aligned with any fixed line through vpt.
    w = side * Fraction(9, 8)
    h = w * Fraction(32 + attempt, 32)
    vecs = [(w, h), (-w, h), (-w, -h), (w, -h)]
    start = _loop_start(u, vecs)
    corners = [
        (vpt[0] + vecs[(start + k) % 4][0], vpt[1] + vecs[(start + k) % 4][1])
        for k in range(4)
    ]
    return [s0, pm, b1, *corners, b2, pp, *polyline[1:]]


def _integer_view(d: PlanarDrawing):
    """(lcm, d's graph and points scaled to ints by the lcm of their denominators).

    The view serves _edge_crossings, for the full table and for a finger
    move's row, and a finger move's local checks; they read only graph,
    vertex_points and edge_polylines.  See geom.integer_image.
    """
    den, (vpts, *polylines) = integer_image([d.vertex_points, *d.edge_polylines])
    return den, SimpleNamespace(graph=d.graph, vertex_points=vpts, edge_polylines=polylines)


def _unscale(p, den: int):
    """The reduced triple (X, Y, Q) of d's point (X/Q, Y/Q) for a crossing
    triple (x, y, q) of its integer view, which stands for x/(q*den),
    y/(q*den)."""
    x, y, q = p
    q *= den
    g = math.gcd(x, y, q)
    return (x // g, y // g, q // g)


def _image_crossings(den: int, image, only: int = None) -> dict:
    """_edge_crossings of a drawing, run on its integer view (den, image),
    with every point mapped back to the drawing's reduced triple."""
    found = _edge_crossings(image, only)
    if den == 1:
        return found  # the image is the drawing
    for (i, j), hits in found.items():
        if i == j:
            found[(i, j)] = [_unscale(p, den) for p in hits]
        else:
            found[(i, j)] = [(_unscale(p, den), sgn) for p, sgn in hits]
    return found


def apply_finger_move(d: PlanarDrawing, e: int, v: int, shrink: int = 0) -> PlanarDrawing:
    """Reroute edge e around vertex v, flipping parities per the move vector.

    The parity effect is re-verified exactly; geometric parameters are
    retried deterministically until the drawing is valid and the effect is
    exactly the finger-move vector.  Only edge e changes, so only its row of
    the crossing table is recomputed: the new drawing receives the old table
    with that row replaced, and the crossing-point map with e's old points
    swapped for its new ones.
    """
    g = d.graph
    if v in g.edges[e]:
        raise ValueError("vertex must not be an endpoint of the edge")
    table = d.crossings()
    keys = [(min(e, f), max(e, f)) for f in range(g.edge_count) if f != e]
    # Every count in a valid drawing's map is 1: the points off edge e.
    others = dict(d._points)
    for key in keys:
        for p, _ in table[key]:
            del others[p]
    for p in d._self_points[e]:
        del others[p]
    flips = {(min(e, f), max(e, f)) for f in g.incident_edges(v)}
    last_err = None
    for attempt in range(24):
        try:
            newpl = finger_polyline(d.edge_polylines[e], d.vertex_points[v], shrink + attempt, attempt)
            cand = d.with_polyline(e, newpl)
            # Nothing but edge e moved: check the new polyline against the
            # rest, on the integer image of the candidate.
            den, image = _integer_view(cand)
            _check_polyline_shape(image, e)
            _check_vertices_on_edge(image, e)
            row = _image_crossings(den, image, only=e)
            self_points = row.pop((e, e))
            point_log = Counter(self_points)
            for key, hits in row.items():
                independent = not g.edges_adjacent(key[0], key[1])
                if independent and (len(hits) ^ len(table[key]) ^ (key in flips)) & 1:
                    raise GeneralPositionError("finger parity effect mismatched")
                point_log.update(p for p, _ in hits)
            if any(c > 1 for c in point_log.values()) or not others.keys().isdisjoint(point_log):
                raise GeneralPositionError("finger created a multiple point")
        except (GeneralPositionError, DegeneracyError) as err:
            last_err = err
            continue
        cand._crossings = {**table, **row}
        cand._points = {**others, **point_log}
        cand._self_points = list(d._self_points)
        cand._self_points[e] = self_points
        return cand
    raise RealizationError(f"finger move failed for edge {e}, vertex {v}: {last_err}")


def _chord_parities(ends, order) -> int:
    """Packed crossing parities of the convex drawing of a vertex order.

    ends[k] holds the four ends of the k-th pair's edges.  Chords on a
    convex curve cross exactly when their end positions interleave, so
    this needs no geometry.
    """
    pos = [0] * len(order)
    for k, w in enumerate(order):
        pos[w] = k
    acc = 0
    for k, (a, b, c, d) in enumerate(ends):
        lo, hi = (pos[a], pos[b]) if pos[a] < pos[b] else (pos[b], pos[a])
        if (lo < pos[c] < hi) != (lo < pos[d] < hi):
            acc |= 1 << k
    return acc


def _lightest_convex_order(g: Graph, ends, elim: Gf2Elimination, target: int):
    """A convex vertex order with a light certificate towards the target.

    First-improvement hill-climbing over transpositions from the identity
    order; an order's score is the weight of its light certificate, the
    popcount of Gf2Elimination.solve_packed off one elimination.  Every
    drawing of g lies in one compatibility class, so every order is
    solvable once the identity is.
    """

    def weight(order):
        return elim.solve_packed(_chord_parities(ends, order) ^ target, light=True).bit_count()

    order = list(range(g.vertex_count))
    best = weight(order)
    improved = True
    while improved and best:
        improved = False
        for a in range(len(order)):
            for b in range(a + 1, len(order)):
                order[a], order[b] = order[b], order[a]
                w = weight(order)
                if w < best:
                    best, improved = w, True
                else:
                    order[a], order[b] = order[b], order[a]
    return order


def realize_parity(g: Graph, target: ParityMatrix) -> PlanarDrawing:
    """A drawing of g whose parities equal the target on independent pairs.

    Every drawing of g lies in one compatibility class, so the chord
    parities of the identity convex order decide compatibility before the
    order search.  The start is the convex drawing of the order found by
    _lightest_convex_order.  The certificate applied to it comes from its
    own crossing table, which stays up to date move by move; the result is
    checked against the target from it.
    """
    tvec = _target_vector(g, target)
    elim = Gf2Elimination(finger_move_generators(g), len(g.pairs))
    ends = _pair_ends(g)
    if elim.solve(_chord_parities(ends, range(g.vertex_count)) ^ tvec) is None:
        raise IncompatibleTargetError("target parity matrix is not compatible")
    d = convex_drawing(g, _lightest_convex_order(g, ends, elim, tvec))
    cert = elim.solve(_parity_vector(d) ^ tvec, light=True)
    if cert is None:
        raise RealizationError("convex drawing outside the compatibility class")
    labels = finger_move_labels(g)
    nesting: dict[int, int] = {}
    for k, c in enumerate(cert):
        if not c:
            continue
        e, v = labels[k]
        d = apply_finger_move(d, e, v, shrink=nesting.get(v, 0))
        nesting[v] = nesting.get(v, 0) + 1
    if _parity_vector(d) != tvec:
        raise RealizationError("post-verification mismatch in realize_parity")
    return d


def parse_drawing(text: str, graph: Graph = None) -> PlanarDrawing:
    """Parse the drawing text format.

    When no graph is given, edges are inferred by matching each polyline's
    first and last points against the vertex points.
    """
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != "drawing":
        raise ValueError("bad drawing header")
    vpts: dict[int, Point] = {}
    polys: dict[int, list[Point]] = {}
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "vertex":
            if len(parts) != 4:
                raise ValueError(f"bad vertex line: {ln!r}")
            vid = int(parts[1])
            if vid in vpts:
                raise ValueError(f"repeated vertex id: {ln!r}")
            vpts[vid] = (_parse_rat(parts[2]), _parse_rat(parts[3]))
        elif parts[0] == "edge":
            if len(parts) < 3 or parts[2] != ":":
                raise ValueError(f"bad edge line: {ln!r}")
            eid = int(parts[1])
            if eid in polys:
                raise ValueError(f"repeated edge id: {ln!r}")
            coords = parts[3:]
            if len(coords) % 2:
                raise ValueError(f"odd coordinate count: {ln!r}")
            polys[eid] = [
                (_parse_rat(coords[k]), _parse_rat(coords[k + 1]))
                for k in range(0, len(coords), 2)
            ]
        else:
            raise ValueError(f"unknown drawing line: {ln!r}")
    if graph is None:
        n = len(vpts)
        if sorted(vpts) != list(range(n)):
            raise ValueError("vertex ids must be 0..n-1")
        locate = {p: i for i, p in vpts.items()}
        if len(locate) != n:
            raise ValueError("coincident vertex points")
        edges = []
        for eid in sorted(polys):
            pl = polys[eid]
            if len(pl) < 2 or pl[0] not in locate or pl[-1] not in locate:
                raise ValueError(f"edge {eid} does not join two vertex points")
            edges.append((locate[pl[0]], locate[pl[-1]]))
        graph = Graph(n, edges)
    if sorted(vpts) != list(range(graph.vertex_count)):
        raise ValueError("vertex lines do not match the graph")
    if sorted(polys) != list(range(graph.edge_count)):
        raise ValueError("edge lines do not match the graph")
    return PlanarDrawing(
        graph,
        [vpts[i] for i in range(graph.vertex_count)],
        [polys[i] for i in range(graph.edge_count)],
    )


def serialize_drawing(d: PlanarDrawing) -> str:
    lines = ["drawing"]
    for i, (x, y) in enumerate(d.vertex_points):
        lines.append(f"vertex {i} {_fmt_rat(x)} {_fmt_rat(y)}")
    for i, pl in enumerate(d.edge_polylines):
        coords = " ".join(f"{_fmt_rat(x)} {_fmt_rat(y)}" for x, y in pl)
        lines.append(f"edge {i} : {coords}")
    return "\n".join(lines) + "\n"


def _parse_rat(s: str) -> Fraction:
    if "/" in s:
        num, den = (int(x) for x in s.split("/"))
        if den == 0:
            raise ValueError(f"zero denominator: {s!r}")
        return Fraction(num, den)
    return Fraction(int(s))


def _fmt_rat(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
