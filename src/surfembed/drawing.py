"""General-position PL drawings in the plane with exact rational coordinates.

Crossing-parity and signed-crossing matrices, the canonical convex drawing,
finger-move generators, and the decision procedure for compatibility
modulo 2 with witness construction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .geom import (
    GeneralPositionError,
    Point,
    box_pairs,
    classify_segments,
    crossing_sign,
    integer_image,
    strictly_inside_segment,
)
from .gf2 import BitMatrix, Gf2Elimination, solve_gf2
from .graph import Graph
from .intmat import IntMatrix


class IncompatibleTargetError(ValueError):
    pass


class RealizationError(RuntimeError):
    """Internal bug guard: a constructed drawing or witness failed post-verification."""


class PlanarDrawing:
    """A drawing of a graph: rational vertex points plus per-edge polylines.

    Polylines run from the point of the lower-index endpoint to the
    higher-index one, and that direction is the edge's orientation for
    signed crossings and integer passes.  Drawings are not mutated: a
    finger move makes a new drawing that shares the untouched point
    lists.  A drawing keeps two caches, each built once and read directly
    by every layer: its crossing table (crossings()) and the integer image
    of its points (image()).
    """

    __slots__ = ("graph", "vertex_points", "edge_polylines", "_crossings", "_image")

    def __init__(self, graph: Graph, vertex_points, edge_polylines):
        self.graph = graph
        self.vertex_points = [_rational(p) for p in vertex_points]
        self.edge_polylines = [[_rational(p) for p in pl] for pl in edge_polylines]
        if len(self.vertex_points) != graph.vertex_count:
            raise GeneralPositionError("vertex point count mismatch")
        if len(self.edge_polylines) != graph.edge_count:
            raise GeneralPositionError("polyline count mismatch")
        self._crossings = None
        self._image = None

    def crossings(self):
        """The signs (+-1) of the proper crossings of each edge pair (i, j),
        i < j, relative to the stored polyline directions: the parity is the
        list's length, the signed sum its sum.  Validates general position."""
        if self._crossings is None:
            self._crossings = _compute_crossings(self)
        return self._crossings

    def image(self):
        """(den, vertex points, polylines): the points scaled to ints by den,
        the lcm of their denominators (geom.integer_image), or by a multiple
        of it after a finger move; an int point p stands for p / den.  The
        crossing table's segment pass, a finger move's checks and the
        geometric layout read it.  The drawing of a finger move carries the
        image that move was checked on."""
        if self._image is None:
            den, (vpts, *polylines) = integer_image([self.vertex_points, *self.edge_polylines])
            self._image = den, vpts, polylines
        return self._image

    def with_polyline(self, edge: int, polyline) -> "PlanarDrawing":
        """A copy with one edge rerouted; the other point lists are shared."""
        d = object.__new__(PlanarDrawing)
        d.graph = self.graph
        d.vertex_points = self.vertex_points
        d.edge_polylines = list(self.edge_polylines)
        d.edge_polylines[edge] = [_rational(p) for p in polyline]
        d._crossings = d._image = None
        return d


def _rational(p) -> Point:
    """p with Fraction coordinates; a Fraction is kept as it is."""
    x, y = p
    return (x if type(x) is Fraction else Fraction(x), y if type(y) is Fraction else Fraction(y))


def _polyline_segments(pl):
    return [(pl[k], pl[k + 1]) for k in range(len(pl) - 1)]


def _check_polyline_shape(vpts, edges, polylines, i: int):
    """Polyline i runs from the point of the lower end of edges[i] to that
    of the higher one, with no zero-length segment."""
    u, v = edges[i]
    pl = polylines[i]
    if len(pl) < 2:
        raise GeneralPositionError(f"edge {i}: polyline too short")
    ends = (pl[0], pl[-1])
    if ends == (vpts[v], vpts[u]):
        raise GeneralPositionError(
            f"edge {i}: polyline runs from vertex {v} to vertex {u}; it must be stored from {u} to {v}"
        )
    if ends != (vpts[u], vpts[v]):
        raise GeneralPositionError(f"edge {i}: polyline does not join its endpoints")
    for a, b in _polyline_segments(pl):
        if a == b:
            raise GeneralPositionError(f"edge {i}: zero-length segment")


def _edge_crossings(pls, only: int = None) -> dict:
    """Proper crossings of a drawing's polylines, enforcing general position
    locally.

    Classifies the segment pairs whose boxes meet (geom.box_pairs), all of
    them or those of polyline only.  Returns a list per key (i, j), i <= j,
    for every key or every key holding only: for i < j the crossings
    (point, sign) of polylines i and j, with sign relative to their
    directions; for i == j the self-crossing points of polyline i.

    Two polylines may touch only at a point that is an end of both of them
    and of both segments.  Every polyline joins its edge's vertex points
    and those points are distinct (the callers check it, or build them so,
    as convex_drawing does), so that point is the point of a vertex the
    two edges share.
    """
    m = len(pls)
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
            if not (p in (pli[0], pli[-1]) and p in (plj[0], plj[-1]) and p in (a, b) and p in (c, e)):
                raise GeneralPositionError(
                    f"edges {i},{j}: non-transversal contact at segments {si},{sj}"
                )
            continue
        out[(i, j)].append((p, crossing_sign(a, b, c, e)))
    return out


def _check_vertices_on_edge(vpts, edges, polylines, i: int):
    """No vertex point inside, at a bend of, or at a foreign end of edge i.

    A point outside a segment's closed box is on no point of it, so the
    exact orientation runs only for a vertex inside that box."""
    pl = polylines[i]
    boxes = [
        (min(a[0], b[0]), max(a[0], b[0]), min(a[1], b[1]), max(a[1], b[1]), a, b)
        for a, b in _polyline_segments(pl)
    ]
    interior_pts = pl[1:-1]
    ends = edges[i]
    for w, p in enumerate(vpts):
        px, py = p
        for x0, x1, y0, y1, a, b in boxes:
            if x0 <= px <= x1 and y0 <= py <= y1 and strictly_inside_segment(p, a, b):
                raise GeneralPositionError(f"vertex {w} inside edge {i}")
        if p in interior_pts:
            raise GeneralPositionError(f"vertex {w} at a bend of edge {i}")
        if w not in ends and p in (pl[0], pl[-1]):
            raise GeneralPositionError(f"vertex {w} at endpoint of non-incident edge {i}")


def _signs(found: dict, scale: int) -> dict:
    """The signs of each pair key of an _edge_crossings result, found on an
    integer image of the given scale; the self-crossing keys are dropped.
    Raises when a point is crossed twice, naming it in the drawing's units."""
    points = [p for (i, j), hits in found.items() if i == j for p in hits]
    signs = {}
    for key, hits in found.items():
        if key[0] != key[1]:
            points += [p for p, _ in hits]
            signs[key] = [s for _, s in hits]
    if len(set(points)) < len(points):
        x, y, q = next(p for p, cnt in Counter(points).items() if cnt > 1)
        q *= scale
        raise GeneralPositionError(f"multiple crossings through one point {(Fraction(x, q), Fraction(y, q))}")
    return signs


def _check_vertex_points(d: PlanarDrawing) -> None:
    """The checks that precede the segment pass, on d's Fraction points:
    every polyline's shape, distinct vertex points, and no vertex point
    inside, at a bend of or at a foreign end of an edge."""
    vpts, edges, pls = d.vertex_points, d.graph.edges, d.edge_polylines
    for i in range(len(edges)):
        _check_polyline_shape(vpts, edges, pls, i)
    if len(set(vpts)) != len(vpts):
        raise GeneralPositionError("coincident vertex points")
    for i in range(len(edges)):
        _check_vertices_on_edge(vpts, edges, pls, i)


def _compute_crossings(d: PlanarDrawing) -> dict:
    """The crossing table of d (see PlanarDrawing.crossings): the vertex
    checks run on the Fraction points, the segment pass on d's integer
    image."""
    _check_vertex_points(d)
    den, _, image = d.image()
    return _signs(_edge_crossings(image), den)


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
        total = sum(table[i, j])
        out.data[i][j] = total
        out.data[j][i] = -total
    return out


def convex_drawing(g: Graph, order=None) -> PlanarDrawing:
    """Straight-chord drawing with vertices in convex position on a parabola.

    order[k] is the vertex placed at position k along the curve; two chords
    cross exactly when their position pairs interleave, as on a circle.
    Position k sits at (s x, (x - c)^2), x = 101 k plus a perturbation
    below 101, c = 101 (n - 1) // 2 the x of the middle position and
    s = max(1, 101 n // 4), so the curve is about as wide as it is tall and
    fewer chord boxes meet than on y = x^2.  That is the image of (x, x^2)
    under the orientation-preserving affine map (x, y) -> (s x, y - 2cx +
    c^2), which keeps every orientation: the same perturbation is accepted
    and the crossing table is the same as on y = x^2.

    The points are integers, stored as Fractions like every drawing's, so
    its integer image (image()) has den 1.  Retries with a deterministic
    perturbation when chords concur; raises GeneralPositionError when no
    retry reaches general position.

    The retry is decided on the int points: each perturbation first runs
    the segment pass of _compute_crossings on them, and only one that
    passes becomes a drawing and gets the vertex checks on its Fraction
    points.  Points in strictly convex position pass those checks, so the
    same perturbation is accepted as when every check runs on every
    perturbation.  The drawing receives that pass's table and the int
    points as its image.
    """
    n = g.vertex_count
    order = list(range(n)) if order is None else list(order)
    # bool is an int, but True is no vertex
    if any(type(w) is not int for w in order) or sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of the vertices")
    c = 101 * (n - 1) // 2
    s = max(1, 101 * n // 4)
    for k in range(64):
        pts = [None] * n
        for pos, w in enumerate(order):
            x = 101 * pos + (k * (pos * pos + 1)) % 101
            pts[w] = (s * x, (x - c) * (x - c))
        polylines = [[pts[u], pts[v]] for u, v in g.edges]
        try:
            table = _signs(_edge_crossings(polylines), 1)
            d = PlanarDrawing(g, pts, polylines)
            _check_vertex_points(d)
        except GeneralPositionError:
            continue
        d._crossings = table
        d._image = 1, pts, polylines
        return d
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
    """For each pair of g.pairs, the finger moves that flip it: the
    transpose of finger_move_generators(g), built without it.  Its rows
    are numbered vertex-major and descending: label (e, v) of
    finger_move_labels(g) is row n m - 1 - (v m + e), for n vertices and m
    edges, so row 0 is the highest vertex with the highest edge.  The rows
    (e, v) with v an end of e are no label and stay zero.

    Pair (i, j) lies in exactly four generators: (i, each end of j) and
    (j, each end of i).  How the rows are numbered changes no kernel of
    these columns, only the work of eliminating them from the highest row
    down (Gf2Elimination): numbered this way they fill in less than in the
    edge-major order of the labels, 726 reduction steps against 2,119 for
    the solver's first elimination on K8 (Markowitz, Management Science 3,
    1957, on fill-reducing orders).
    """
    n, m, edges = g.vertex_count, g.edge_count, g.edges
    top = [(n - v) * m - 1 for v in range(n)]  # label (e, v) is row top[v] - e
    out = []
    for i, j in g.pairs:
        (a, b), (c, d) = edges[i], edges[j]
        out.append(1 << top[c] - i | 1 << top[d] - i | 1 << top[a] - j | 1 << top[b] - j)
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
        """Finger-move coefficients taking base to the target, one per
        finger_move_labels(graph) entry, or None.

        Only the nonzero generators are eliminated, as in realize_parity: a
        zero one never pivots, so its coefficient is 0 either way, and
        eliminated it would leave a kernel vector as wide as its index.
        """
        tvec = _target_vector(self.graph, target)
        gens = finger_move_generators(self.graph)
        moves = [k for k, gen in enumerate(gens) if gen]
        coeffs = solve_gf2([gens[k] for k in moves], self.base ^ tvec)
        if coeffs is None:
            return None
        out = [0] * len(gens)
        for k, c in zip(moves, coeffs):
            out[k] = c
        return out


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
            raise GeneralPositionError("direction aligned with a loop corner")
    n = len(vecs)
    for k in range(n):
        w = vecs[(k - 1) % n]
        v = vecs[k]
        if w[0] * u[1] - w[1] * u[0] > 0 and u[0] * v[1] - u[1] * v[0] > 0:
            return k
    raise GeneralPositionError("no corner strictly counterclockwise of direction")


def finger_polyline(polyline, vpt, den: int, shrink: int, attempt: int):
    """Reroute a polyline of an integer image with a finger around vpt.

    polyline and vpt are int points that stand for p / den.  Splits the
    first segment at p- / p+ and inserts a detour that walks a small
    rectangular loop around vpt.  Purely geometric; the caller checks the
    parity effect and general position and retries with other parameters.
    Returns (k, the new polyline as int points that stand for
    p / (den << k)), with k the least that makes every new point integral.

    Every parameter is dyadic and the scale alpha is a power of two, so the
    new points have dyadic denominators over den: on a drawing with
    dyadic coordinates (a convex drawing's are integers) the common
    denominator grows by a few bits per nesting level.  Rational
    parameters would multiply it with every move, and every later segment
    test pays for its size.  In the drawing's units:
    lam = (2^(attempt+1) - 1) / 2^(attempt+2), delta = 1 / 2^(6 + attempt//4),
    pc = s0 + lam (t0 - s0), p-/p+ = s0 + (lam -/+ delta)(t0 - s0),
    u = pc - vpt, side = 1 / 2^(3 + shrink), alpha the largest power of two
    with alpha max|u| <= side, b1/b2 = vpt + alpha/16 (17 u +/- u turned a
    quarter turn counterclockwise), and the loop's corners are
    vpt + (+-w, +-h) with w = 9 side / 8 and h = w (32 + attempt) / 32.
    """
    (sx, sy), (tx, ty) = polyline[0], polyline[1]
    vx, vy = vpt
    dx, dy = tx - sx, ty - sy
    # lam and delta over 2^t; s0 and u at the scale den << t
    t = max(attempt + 2, 6 + attempt // 4)
    lam = (2 ** (attempt + 1) - 1) << (t - attempt - 2)
    delta = 1 << (t - 6 - attempt // 4)
    ax, ay = sx << t, sy << t
    ux = ax + lam * dx - (vx << t)
    uy = ay + lam * dy - (vy << t)
    if ux == 0 == uy:
        raise GeneralPositionError("finger base point at the vertex")
    # alpha = 2^k, k the floor of log2(side / max|u|) = log2(num / q)
    num, q = den << t, max(abs(ux), abs(uy)) << (3 + shrink)
    k = num.bit_length() - q.bit_length()
    if (q << k > num) if k >= 0 else (q > num << -k):
        k -= 1
    # The loop is a rectangle around vpt; its aspect ratio varies with the
    # attempt so a corner cannot stay aligned with any fixed line through
    # vpt.  Its corners run in the ccw order of (w, h), (-w, h), ...; only
    # the ratio w : h = 32 : 32 + attempt matters to _loop_start.
    signs = [(1, 1), (-1, 1), (-1, -1), (1, -1)]
    start = _loop_start((ux, uy), [(32 * i, (32 + attempt) * j) for i, j in signs])
    # Every new point at the scale den << big: p-, b1, the corners, b2, p+.
    big = max(t, t + 4 - k, 11 + shrink)
    up, rho = big - t, k - 4 + big - t
    vx, vy = vx << big, vy << big
    w = 9 * den << (big - 6 - shrink)
    h = 9 * (32 + attempt) * den << (big - 11 - shrink)
    fx, fy = 17 * ux, 17 * uy
    new = [
        ((ax + (lam - delta) * dx) << up, (ay + (lam - delta) * dy) << up),
        (vx + ((fx - uy) << rho), vy + ((fy + ux) << rho)),
        *((vx + w * signs[(start + i) % 4][0], vy + h * signs[(start + i) % 4][1]) for i in range(4)),
        (vx + ((fx + uy) << rho), vy + ((fy - ux) << rho)),
        ((ax + (lam + delta) * dx) << up, (ay + (lam + delta) * dy) << up),
    ]
    # The least scale: drop the powers of two that every new coordinate has.
    acc = 0
    for x, y in new:
        acc |= x | y
    drop = min(big, (acc & -acc).bit_length() - 1)
    k = big - drop
    return k, [
        (sx << k, sy << k),
        *((x >> drop, y >> drop) for x, y in new),
        *((x << k, y << k) for x, y in polyline[1:]),
    ]


def apply_finger_move(d: PlanarDrawing, e: int, v: int, shrink: int = 0) -> PlanarDrawing:
    """Reroute edge e around vertex v, flipping parities per the move vector.

    The parity effect is re-verified exactly; geometric parameters are
    retried deterministically until the drawing is valid and the effect is
    exactly the finger-move vector, and GeneralPositionError is raised when
    24 attempts fail.  Only edge e changes, so only its row of the crossing
    table is recomputed, and the new drawing receives the old table with
    that row replaced.  The fingers are drawn and checked on d's integer
    image, and the new drawing carries the image of the accepted one; its
    rational polyline is formed only then.

    No point of the row may be crossed twice.  That is enough: a new point
    of e on an old crossing point of other edges meets two strands there,
    and e either crosses both, which puts the point twice in the row, or
    touches or overlaps one, which the row's classification refuses.
    """
    g = d.graph
    for name, x, count in (("edge", e, g.edge_count), ("vertex", v, g.vertex_count)):
        # bool is an int, but True is no index; a negative one would alias
        if not isinstance(x, int) or isinstance(x, bool) or not 0 <= x < count:
            raise ValueError(f"{name} must be an integer in [0, {count}), not {x!r}")
    a, b = g.edges[e]
    if v in (a, b):
        raise ValueError("vertex must not be an endpoint of the edge")
    table = d.crossings()
    den, vpts, pls = d.image()
    last_err = None
    for attempt in range(24):
        try:
            k, newpl = finger_polyline(pls[e], vpts[v], den, shrink + attempt, attempt)
            # Nothing but edge e moved: check the new polyline against the
            # rest, on the integer image of the candidate, d's shifted by k
            # with a polyline list of its own.
            cvpts, *cpls = [[(x << k, y << k) for x, y in pts] for pts in (vpts, *pls)] if k else (vpts, *pls)
            cpls[e] = newpl
            _check_polyline_shape(cvpts, g.edges, cpls, e)
            _check_vertices_on_edge(cvpts, g.edges, cpls, e)
            row = _signs(_edge_crossings(cpls, only=e), den << k)
            # The pair of e and f is independent when they share no end, and
            # the move flips its parity when v is an end of f.
            for (i, j), signs in row.items():
                ends = g.edges[j if i == e else i]
                if a not in ends and b not in ends and (len(signs) ^ len(table[i, j]) ^ (v in ends)) & 1:
                    raise GeneralPositionError("finger parity effect mismatched")
        except GeneralPositionError as err:
            last_err = err
            continue
        # The finger's eight points follow the polyline's first; the rest
        # are the old polyline's.
        old = d.edge_polylines[e]
        q = den << k
        fresh = [(Fraction(x, q), Fraction(y, q)) for x, y in newpl[1:9]]
        cand = d.with_polyline(e, [old[0], *fresh, *old[1:]])
        cand._image = q, cvpts, cpls
        cand._crossings = {**table, **row}
        return cand
    raise GeneralPositionError(f"finger move failed for edge {e}, vertex {v}: {last_err}")


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


def _lightest_convex_order(g: Graph, elim: Gf2Elimination, target: int):
    """A convex vertex order with a light certificate towards the target,
    and that certificate, packed.

    First-improvement hill-climbing over transpositions from the identity
    order; an order's score is the weight of its light certificate,
    Gf2Elimination.lighten of the coefficients of its parities XOR the
    target.  Every drawing of g lies in one compatibility class, so every
    order is solvable once the identity is.

    The coefficients are linear (Gf2Elimination.reduce), and the chords of
    a pair (e, f), e < f, cross when exactly one end of f lies strictly
    inside chord e.  So an order's coefficients are those of the target
    XOR at[e][v] over each vertex v strictly inside each chord e, where
    at[e][v] holds the coefficients of the pairs (e, f), f > e, that have v
    as an end of f.  The ends of f are no ends of e, so the vertices
    strictly outside chord e give the same sum; the shorter side is read.

    The climb stops after one full cycle of swaps that do not improve: the
    round-by-round climb, which repeats whole rounds until one improves
    nothing, accepts the same swaps, since the rest of its last round
    retries swaps already tried on the same order.
    """
    n, edges = g.vertex_count, g.edges
    held = [[0] * n for _ in edges]
    for k, (i, j) in enumerate(g.pairs):
        for v in edges[j]:
            held[i][v] |= 1 << k
    chords = []  # (ends, at[e]) of each chord that holds a pair
    for e, row in enumerate(held):
        if any(row):
            chords.append((edges[e], [elim.reduce(h)[1] if h else 0 for h in row]))
    start = elim.reduce(target)[1]
    order = list(range(n))
    pos = list(range(n))

    def certificate():
        acc = start
        for (a, b), at in chords:
            lo, hi = (pos[a], pos[b]) if pos[a] < pos[b] else (pos[b], pos[a])
            if 2 * (hi - lo) < n:
                for v in order[lo + 1 : hi]:
                    acc ^= at[v]
            else:
                for v in order[:lo]:
                    acc ^= at[v]
                for v in order[hi + 1 :]:
                    acc ^= at[v]
        return elim.lighten(acc)

    cert = certificate()
    best = cert.bit_count()
    # The swaps (a, b), a < b, cycle in lexicographic order, one at a time.
    tried, a, b = 0, 0, 1  # swaps tried since the last improvement; the next
    while best and tried < n * (n - 1) // 2:
        order[a], order[b] = order[b], order[a]
        pos[order[a]], pos[order[b]] = a, b
        c = certificate()
        if c.bit_count() < best:
            cert, best, tried = c, c.bit_count(), 0
        else:
            order[a], order[b] = order[b], order[a]
            pos[order[a]], pos[order[b]] = a, b
            tried += 1
        b += 1
        if b == n:
            a = a + 1 if a + 2 < n else 0
            b = a + 1
    return order, cert


def realize_parity(g: Graph, target: ParityMatrix) -> PlanarDrawing:
    """A drawing of g whose parities equal the target on independent pairs.

    Every drawing of g lies in one compatibility class, so the chord
    parities of the identity convex order decide compatibility before the
    order search.  The start is the convex drawing of the order found by
    _lightest_convex_order, and the certificate applied to it is the light
    one that the search scored that order by.  The crossing table stays up
    to date move by move; the result is checked against the target from
    it.
    """
    tvec = _target_vector(g, target)
    # Only the finger moves that change some parity are eliminated: a zero
    # generator would leave a kernel vector of its own that lightens
    # nothing, as wide as its index.
    moves = [(label, gen) for label, gen in zip(finger_move_labels(g), finger_move_generators(g)) if gen]
    labels = [label for label, _ in moves]
    elim = Gf2Elimination([gen for _, gen in moves])
    if elim.reduce(_chord_parities(_pair_ends(g), range(g.vertex_count)) ^ tvec)[0]:
        raise IncompatibleTargetError("target parity matrix is not compatible")
    order, cert = _lightest_convex_order(g, elim, tvec)
    d = convex_drawing(g, order)
    nesting: dict[int, int] = {}
    while cert:
        low = cert & -cert
        cert ^= low
        e, v = labels[low.bit_length() - 1]
        d = apply_finger_move(d, e, v, shrink=nesting.get(v, 0))
        nesting[v] = nesting.get(v, 0) + 1
    if _parity_vector(d) != tvec:
        raise RealizationError("post-verification mismatch in realize_parity")
    return d


def parse_drawing(text: str) -> PlanarDrawing:
    """Parse the drawing text format.  The drawing names its own graph:
    edge i joins the vertices at the two ends of its polyline."""
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
            try:
                vid, point = int(parts[1]), (_parse_rat(parts[2]), _parse_rat(parts[3]))
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad vertex line: {ln!r}") from None
            if vid in vpts:
                raise ValueError(f"repeated vertex id: {ln!r}")
            vpts[vid] = point
        elif parts[0] == "edge":
            if len(parts) < 3 or parts[2] != ":":
                raise ValueError(f"bad edge line: {ln!r}")
            coords = parts[3:]
            if len(coords) % 2:
                raise ValueError(f"odd coordinate count: {ln!r}")
            try:
                eid = int(parts[1])
                pl = [(_parse_rat(coords[k]), _parse_rat(coords[k + 1])) for k in range(0, len(coords), 2)]
            except (ValueError, ZeroDivisionError):
                raise ValueError(f"bad edge line: {ln!r}") from None
            if eid in polys:
                raise ValueError(f"repeated edge id: {ln!r}")
            polys[eid] = pl
        else:
            raise ValueError(f"unknown drawing line: {ln!r}")
    n, m = len(vpts), len(polys)
    if sorted(vpts) != list(range(n)):
        raise ValueError("vertex ids must be 0..n-1")
    if sorted(polys) != list(range(m)):
        raise ValueError("edge ids must be 0..m-1")
    locate = {p: i for i, p in vpts.items()}
    if len(locate) != n:
        raise ValueError("coincident vertex points")
    edges = []
    for eid in range(m):
        pl = polys[eid]
        if len(pl) < 2 or pl[0] not in locate or pl[-1] not in locate:
            raise ValueError(f"edge {eid} does not join two vertex points")
        edges.append((locate[pl[0]], locate[pl[-1]]))
    return PlanarDrawing(Graph(n, edges), [vpts[i] for i in range(n)], [polys[i] for i in range(m)])


def serialize_drawing(d: PlanarDrawing) -> str:
    lines = ["drawing"]
    for i, (x, y) in enumerate(d.vertex_points):
        lines.append(f"vertex {i} {_fmt_rat(x)} {_fmt_rat(y)}")
    for i, pl in enumerate(d.edge_polylines):
        coords = " ".join(f"{_fmt_rat(x)} {_fmt_rat(y)}" for x, y in pl)
        lines.append(f"edge {i} : {coords}")
    return "\n".join(lines) + "\n"


def _parse_rat(s: str) -> Fraction:
    """The number s, `p` or `p/q`; ZeroDivisionError when q is 0."""
    if "/" in s:
        num, den = (int(x) for x in s.split("/"))
        return Fraction(num, den)
    return Fraction(int(s))


def _fmt_rat(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"
