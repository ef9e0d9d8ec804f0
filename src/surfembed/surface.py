"""Combinatorial model of surfaces built from a disk and ribbons.

An orientable surface S_g is a disk with g interlacing pairs of untwisted
ribbons; a nonorientable surface M_m is a disk with m twisted, pairwise
non-interlacing ribbons.  A drawing on such a surface is stored as a planar
core drawing plus, per edge, the list of net pass counts through each
ribbon, a tube nesting order, and an attachment position.

Verification counts crossings by the combinatorial rule: the exact planar
crossings of the core, plus one crossing for every pass pair through
interlaced ribbons (or through one twisted ribbon).
"""

from __future__ import annotations

from dataclasses import dataclass

from .drawing import (
    PlanarDrawing,
    crossing_parity_matrix,
    finger_move_generators,
    parse_drawing,
    serialize_drawing,
    signed_crossing_matrix,
)
from .gf2 import BitMatrix, in_affine_span
from .graph import independent_pairs
from .intmat import IntMatrix


class SurfaceError(ValueError):
    pass


@dataclass(frozen=True)
class SurfaceSpec:
    """orientable("S") genus-g surface or nonorientable("M") with m crosscaps."""

    kind: str
    genus: int

    def __post_init__(self):
        if self.kind not in ("S", "M"):
            raise SurfaceError("surface kind must be S or M")
        if self.kind == "S" and self.genus < 0:
            raise SurfaceError("genus must be nonnegative")
        if self.kind == "M" and self.genus < 1:
            raise SurfaceError("crosscap number must be positive")

    @property
    def orientable(self) -> bool:
        return self.kind == "S"

    @property
    def ribbon_count(self) -> int:
        return 2 * self.genus if self.kind == "S" else self.genus

    @property
    def euler(self) -> int:
        """Euler characteristic of the surface with one boundary circle."""
        return 1 - self.ribbon_count


@dataclass
class SurfaceDrawing:
    """A drawing of a graph on a surface.

    passes[e][k] is the net number of passes of edge e's tube through
    ribbon k; bits in z2 mode, signed integers in z mode.  Passes are
    counted along the edge's orientation (core.edge_orientations[e]), not
    along the direction in which its polyline is stored.  tube_order
    fixes the radial nesting of the tubes; attach[e] is the index of the
    core polyline segment carrying the connector.
    """

    surface: SurfaceSpec
    core: PlanarDrawing
    passes: list
    tube_order: list
    attach: list = None
    mode: str = "z2"

    def __post_init__(self):
        m = self.core.graph.edge_count
        r = self.surface.ribbon_count
        if len(self.passes) != m:
            raise SurfaceError("one pass vector per edge required")
        for vec in self.passes:
            if len(vec) != r:
                raise SurfaceError("pass vector length must match ribbon count")
        if self.mode not in ("z2", "z"):
            raise SurfaceError("mode must be z2 or z")
        if self.mode == "z2":
            for vec in self.passes:
                if any(b not in (0, 1) for b in vec):
                    raise SurfaceError("z2 pass vectors must be bit vectors")
        if sorted(self.tube_order) != list(range(m)):
            raise SurfaceError("tube_order must be a permutation of the edges")
        if self.attach is None:
            self.attach = [0] * m
        if len(self.attach) != m:
            raise SurfaceError("one attach index per edge required")


@dataclass
class VerifyReport:
    """Per-independent-pair crossing values and the overall verdict."""

    mode: str
    pairs: dict
    is_embedding: bool


def _pass_vector(sd: SurfaceDrawing, e: int) -> list:
    return list(sd.passes[e])


def _form_z2(surface: SurfaceSpec, ya, yb) -> int:
    if surface.orientable:
        acc = 0
        for h in range(surface.genus):
            acc ^= (ya[2 * h] & 1) * (yb[2 * h + 1] & 1)
            acc ^= (ya[2 * h + 1] & 1) * (yb[2 * h] & 1)
        return acc & 1
    return sum((a & 1) * (b & 1) for a, b in zip(ya, yb)) & 1


def _form_z(ya, yb) -> int:
    """y_a^T H_g y_b with H_g the block-diagonal [[0,1],[-1,0]] matrix."""
    acc = 0
    for h in range(len(ya) // 2):
        acc += ya[2 * h] * yb[2 * h + 1] - ya[2 * h + 1] * yb[2 * h]
    return acc


def construct_z2_embedding(g, f: PlanarDrawing, y: BitMatrix, s: SurfaceSpec) -> SurfaceDrawing:
    """Connected-sum construction: attach a tube to every edge whose column
    of y is nonzero, passing once through each ribbon flagged by the column.
    """
    if f.graph.edges != g.edges:
        raise SurfaceError("drawing belongs to a different graph")
    if y.cols != g.edge_count:
        raise SurfaceError("factor must have one column per edge")
    if y.rows != s.ribbon_count:
        raise SurfaceError("factor row count must match the ribbon count")
    f.crossings()
    passes = [[y.get(k, e) for k in range(y.rows)] for e in range(g.edge_count)]
    return SurfaceDrawing(s, f, passes, list(range(g.edge_count)), mode="z2")


def construct_z_embedding(g, f: PlanarDrawing, b: IntMatrix, s: SurfaceSpec) -> SurfaceDrawing:
    if not s.orientable:
        raise SurfaceError("integer embeddings are defined on orientable surfaces only")
    if f.graph.edges != g.edges:
        raise SurfaceError("drawing belongs to a different graph")
    if b.cols != g.edge_count:
        raise SurfaceError("factor must have one column per edge")
    if b.rows != s.ribbon_count:
        raise SurfaceError("factor row count must match the ribbon count")
    f.crossings()
    passes = [[b.data[k][e] for k in range(b.rows)] for e in range(g.edge_count)]
    return SurfaceDrawing(s, f, passes, list(range(g.edge_count)), mode="z")


def verify_z2(sd: SurfaceDrawing) -> VerifyReport:
    """Crossing parity of every independent pair; embedding iff all even.

    Pair parity = core parity xor the ribbon term: interlaced ribbon pairs
    contribute one crossing per pass pair, a twisted ribbon contributes one
    crossing for two passes through it.  Tube nesting contributes nothing.
    """
    g = sd.core.graph
    core = crossing_parity_matrix(sd.core)
    out = {}
    ok = True
    for pr in independent_pairs(g):
        ya = _pass_vector(sd, pr.i)
        yb = _pass_vector(sd, pr.j)
        parity = core.get(pr.i, pr.j) ^ _form_z2(sd.surface, ya, yb)
        out[(pr.i, pr.j)] = parity
        ok = ok and parity == 0
    return VerifyReport("z2", out, ok)


def verify_z(sd: SurfaceDrawing) -> VerifyReport:
    """Signed crossing sum of every independent pair; embedding iff all zero.

    Pair sum = core signed sum plus the tube pairing -y_a^T H_g y_b: a
    positive pass through ribbon 2h crossing a positive pass through ribbon
    2h+1 contributes -1, with the sign flipping under either direction
    reversal and under argument order.
    """
    if not sd.surface.orientable:
        raise SurfaceError("integer verification requires an orientable surface")
    g = sd.core.graph
    core = signed_crossing_matrix(sd.core)
    out = {}
    ok = True
    for pr in independent_pairs(g):
        ya = _pass_vector(sd, pr.i)
        yb = _pass_vector(sd, pr.j)
        total = core.data[pr.i][pr.j] - _form_z(ya, yb)
        out[(pr.i, pr.j)] = total
        ok = ok and total == 0
    return VerifyReport("z", out, ok)


def extract_matrix(sd: SurfaceDrawing, mode: str = None):
    """Close every edge through the disk and return the Gram matrix of the
    resulting cycles, with a certificate that the core drawing is
    compatible (modulo 2) to it, or None when it is not.
    """
    if mode is None:
        mode = sd.mode
    g = sd.core.graph
    m = g.edge_count
    if mode == "z":
        if not sd.surface.orientable:
            raise SurfaceError("integer extraction requires an orientable surface")
        a = IntMatrix(m, m)
        for i in range(m):
            for j in range(m):
                if i != j:
                    # the basis intersection matrix is -H_g, so the entry
                    # -(cycle pairing) comes out as +y_i^T H_g y_j
                    a.data[i][j] = _form_z(_pass_vector(sd, i), _pass_vector(sd, j))
        target_bits = [[abs(x) % 2 for x in row] for row in a.data]
    elif mode == "z2":
        a = BitMatrix(m, m)
        if sd.surface.orientable:
            for i in range(m):
                for j in range(m):
                    if i != j:
                        a.set(i, j, _form_z2(sd.surface, _pass_vector(sd, i), _pass_vector(sd, j)))
        else:
            # Nonorientable rule: the full Gram matrix of the pass vectors,
            # with entry (0,0) flipped to 1 when the Gram matrix is even.
            for i in range(m):
                for j in range(m):
                    a.set(i, j, _form_z2(sd.surface, _pass_vector(sd, i), _pass_vector(sd, j)))
            if a.is_even() and m >= 1:
                a.set(0, 0, 1)
        target_bits = a.to_lists()
    else:
        raise SurfaceError("mode must be z2 or z")
    cert = _compatibility_certificate(sd.core, target_bits)
    return a, cert


def _compatibility_certificate(core: PlanarDrawing, target_bits):
    g = core.graph
    pairs = independent_pairs(g)
    base = crossing_parity_matrix(core).pair_vector(pairs)
    tvec = 0
    for k, pr in enumerate(pairs):
        if target_bits[pr.i][pr.j] & 1:
            tvec |= 1 << k
    return in_affine_span(tvec, base, finger_move_generators(g), len(pairs))


def parse_surface_drawing(text: str, mode: str = "z2") -> SurfaceDrawing:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise SurfaceError("empty surface drawing")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "surface" or head[1] not in ("S", "M"):
        raise SurfaceError(f"bad surface header: {lines[0]!r}")
    spec = SurfaceSpec(head[1], int(head[2]))
    drawing_lines = []
    passes_lines = []
    order = None
    for ln in lines[1:]:
        key = ln.split()[0]
        if key in ("drawing", "vertex", "edge"):
            drawing_lines.append(ln)
        elif key == "passes":
            passes_lines.append(ln)
        elif key == "order":
            parts = ln.split()
            if len(parts) < 2 or parts[1] != ":":
                raise SurfaceError(f"bad order line: {ln!r}")
            order = [int(x) for x in parts[2:]]
        else:
            raise SurfaceError(f"unknown surface drawing line: {ln!r}")
    core = parse_drawing("\n".join(drawing_lines) + "\n")
    m = core.graph.edge_count
    passes = [None] * m
    for ln in passes_lines:
        parts = ln.split()
        if len(parts) < 3 or parts[2] != ":":
            raise SurfaceError(f"bad passes line: {ln!r}")
        e = int(parts[1])
        if not 0 <= e < m or passes[e] is not None:
            raise SurfaceError(f"bad edge id in passes line: {ln!r}")
        passes[e] = [int(x) for x in parts[3:]]
    if any(v is None for v in passes):
        raise SurfaceError("missing passes line for some edge")
    if order is None:
        order = list(range(m))
    return SurfaceDrawing(spec, core, passes, order, mode=mode)


def serialize_surface_drawing(sd: SurfaceDrawing) -> str:
    lines = [f"surface {sd.surface.kind} {sd.surface.genus}"]
    lines.append(serialize_drawing(sd.core).rstrip("\n"))
    for e, vec in enumerate(sd.passes):
        lines.append(f"passes {e} : " + " ".join(str(x) for x in vec))
    lines.append("order : " + " ".join(str(x) for x in sd.tube_order))
    return "\n".join(lines) + "\n"
