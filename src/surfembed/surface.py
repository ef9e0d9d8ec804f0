"""Combinatorial model of surfaces built from a disk and ribbons.

An orientable surface S_g is a disk with g interlacing pairs of untwisted
ribbons; a nonorientable surface M_m is a disk with m twisted, pairwise
non-interlacing ribbons.  A drawing on such a surface is stored as a planar
core drawing plus, per edge, the list of net pass counts through each
ribbon, a tube nesting order, and an attachment position.

Verification counts crossings by the combinatorial rule: the exact planar
crossings of the core, plus one crossing for every pass pair through
interlaced ribbons (or through one twisted ribbon).  That count is the
ribbon form of SurfaceSpec, which every user of the form calls: the
hyperbolic form H_g on S_g, the identity on M_m.
"""

from __future__ import annotations

from dataclasses import dataclass

from .drawing import (
    CompatibilityClass,
    ParityMatrix,
    PlanarDrawing,
    crossing_parity_matrix,
    parse_drawing,
    serialize_drawing,
    signed_crossing_matrix,
)
from .gf2 import BitMatrix
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

    def dual(self, b: int) -> int:
        """J.b for a pass vector packed as an int (bit k = ribbon k).

        J swaps the two ribbons 2h, 2h+1 of every handle on S_g and is the
        identity on M_m.
        """
        if not self.orientable:
            return b
        low = _low_bits(self.genus)
        return ((b & low) << 1) | ((b >> 1) & low)

    def form(self, a: int, b: int) -> int:
        """The ribbon form a^T J b mod 2 of two packed pass vectors: the
        crossing parity their tubes add through interlaced ribbons (or
        through one twisted ribbon)."""
        return (a & self.dual(b)).bit_count() & 1

    def gram(self, ys) -> BitMatrix:
        """The compatibility matrix of the packed vectors ys.

        On S_g the diagonal is y^T H_g y = 0, so only the off-diagonal
        entries can be set.  On M_m it is the full Gram matrix, with entry
        (0,0) set when the Gram matrix is even: the criterion on M_m asks
        for an odd matrix, and a diagonal entry is no independent pair, so
        compatibility does not change.
        """
        duals = [self.dual(y) for y in ys]
        rows = [sum(((y & d).bit_count() & 1) << j for j, d in enumerate(duals)) for y in ys]
        a = BitMatrix(len(ys), len(ys), rows)
        if not self.orientable and ys and a.is_even():
            a.set(0, 0, 1)
        return a

    def form_z(self, ya, yb) -> int:
        """y_a^T H_g y_b for signed pass lists, H_g the block-diagonal
        [[0,1],[-1,0]] matrix; defined on S_g only."""
        acc = 0
        for h in range(self.genus):
            acc += ya[2 * h] * yb[2 * h + 1] - ya[2 * h + 1] * yb[2 * h]
        return acc


def _low_bits(handles: int) -> int:
    """The first coordinate 2h of each handle h < handles: 0b0101...01."""
    return ((1 << (2 * handles)) - 1) // 3


def _packed(passes) -> list[int]:
    """Each edge's passes as a packed GF(2) vector; signed passes reduce
    mod 2."""
    return [sum((x & 1) << k for k, x in enumerate(vec)) for vec in passes]


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
    ys = _packed(sd.passes)
    out = {}
    ok = True
    for pr in independent_pairs(g):
        parity = core.get(pr.i, pr.j) ^ sd.surface.form(ys[pr.i], ys[pr.j])
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
        total = core.data[pr.i][pr.j] - sd.surface.form_z(sd.passes[pr.i], sd.passes[pr.j])
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
    spec = sd.surface
    if mode == "z":
        if not spec.orientable:
            raise SurfaceError("integer extraction requires an orientable surface")
        # The basis intersection matrix is -H_g, so the entry -(cycle
        # pairing) comes out as +y_i^T H_g y_j; the diagonal is 0.
        rows = [[spec.form_z(yi, yj) for yj in sd.passes] for yi in sd.passes]
        a = IntMatrix(g.edge_count, g.edge_count, rows)
        bits = BitMatrix.from_lists(a.data)
    elif mode == "z2":
        a = bits = spec.gram(_packed(sd.passes))
    else:
        raise SurfaceError("mode must be z2 or z")
    cert = CompatibilityClass.compute(g, sd.core).membership(ParityMatrix(g, bits))
    return a, cert


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
