"""Answer checks that do not trust the code under test.

* `WITNESS_CITE` and `SEARCH_CITE` give, for every known answer the
  `witness` and `search` workloads check, the theorem it follows from.
* `convex_base` and `finger_generators` rebuild the affine class of
  realizable parity vectors of a graph from combinatorics alone: two chords
  of a convex drawing cross iff their endpoints interleave, and rerouting
  edge e around vertex v flips the parity of e with every edge at v that is
  independent of e.
* `in_span` is a GF(2) elimination of its own, used to confirm every
  "incompatible" answer of `is_compatible_mod2`.
* `skew_product` computes B^T H B with plain integers.
"""

from __future__ import annotations

# Fulek-Kyncl, "The Z2-genus of Kuratowski minors", arXiv:1803.05085:
#   the Z2-genus of K_{3,t} is ceil((t-2)/4), and the Z2-genus of K_{m,n}
#   is at least ceil((m-2)(n-2)/4 - (m-3)/2).
# Strong Hanani-Tutte on the torus (Fulek-Pelsmajer-Schaefer,
#   arXiv:2009.01683) and on the projective plane (Pelsmajer-Schaefer-Stasi,
#   SIAM J. Discrete Math. 2009): on these two surfaces Z2-embeddable is the
#   same as embeddable, so the classical genera below decide them.
# Hanani-Tutte: a graph is Z2-embeddable in the plane iff it is planar, so
#   every nonplanar graph needs genus or crosscap number at least 1.
# Ringel-Youngs: genus(K_n) = ceil((n-3)(n-4)/12); Ringel: genus(K_{m,n}) =
#   ceil((m-2)(n-2)/4) and nonorientable genus(K_{m,n}) = ceil((m-2)(n-2)/2);
#   Franklin: K_7 does not embed in the projective plane (its nonorientable
#   genus is 3); K_5, K_{3,3} and K_6 embed in the projective plane.
WITNESS_CITE = {
    "K5": "nonplanar (Hanani-Tutte); embeds on torus and projective plane",
    "K3,3": "nonplanar (Hanani-Tutte); embeds on torus and projective plane",
    "K3,4": "Z2-genus of K3,t is ceil((t-2)/4) (Fulek-Kyncl arXiv:1803.05085)",
    "K4,4": "nonplanar; genus ceil(4/4)=1 (Ringel) with strong Hanani-Tutte on the torus",
    "K6": "nonplanar; genus 1 (Ringel-Youngs); embeds in the projective plane",
    "K7": "nonplanar; genus ceil(12/12)=1 (Ringel-Youngs) with strong Hanani-Tutte on the torus",
}
SEARCH_CITE = {
    ("K3,7", "S", 1): "Z2-genus of K3,7 is ceil(5/4)=2 (Fulek-Kyncl arXiv:1803.05085)",
    ("K8", "S", 1): "genus of K8 is 2 (Ringel-Youngs); strong Hanani-Tutte on the torus",
    ("K5,5", "S", 1): "genus of K5,5 is 3 (Ringel); strong Hanani-Tutte on the torus",
    ("K7", "M", 1): "K7 does not embed in the projective plane (Franklin); strong Hanani-Tutte there",
    ("K4,4", "M", 1): "nonorientable genus of K4,4 is 2 (Ringel); strong Hanani-Tutte on the projective plane",
    ("K3,5", "M", 1): "nonorientable genus of K3,5 is 2 (Ringel); strong Hanani-Tutte on the projective plane",
}


def independent_pairs(edges) -> list[tuple[int, int]]:
    """Index pairs (i, j), i < j, of edges sharing no vertex."""
    m = len(edges)
    return [
        (i, j)
        for i in range(m)
        for j in range(i + 1, m)
        if not set(edges[i]) & set(edges[j])
    ]


def convex_base(edges, order) -> int:
    """Parity vector of the convex drawing with vertices placed in `order`."""
    pos = {v: k for k, v in enumerate(order)}
    vec = 0
    for k, (i, j) in enumerate(independent_pairs(edges)):
        a, b = sorted(pos[x] for x in edges[i])
        c, d = sorted(pos[x] for x in edges[j])
        if a < c < b < d or c < a < d < b:
            vec |= 1 << k
    return vec


def finger_generators(n: int, edges) -> list[int]:
    """Parity-change vectors of the finger moves, edge-major then vertex order."""
    index = {p: k for k, p in enumerate(independent_pairs(edges))}
    out = []
    for e, ends in enumerate(edges):
        for v in range(n):
            if v in ends:
                continue
            vec = 0
            for f, other in enumerate(edges):
                if v in other:
                    key = (min(e, f), max(e, f))
                    if key in index:
                        vec |= 1 << index[key]
            out.append(vec)
    return out


def in_span(vectors: list[int], target: int) -> bool:
    """Whether target is a GF(2) combination of vectors (packed ints)."""
    basis: dict[int, int] = {}  # leading bit -> vector
    for v in vectors:
        while v:
            top = v.bit_length() - 1
            if top not in basis:
                basis[top] = v
                break
            v ^= basis[top]
    while target:
        top = target.bit_length() - 1
        if top not in basis:
            return False
        target ^= basis[top]
    return True


def apply_certificate(base: int, generators: list[int], cert) -> int:
    vec = base
    for c, gen in zip(cert, generators):
        if c:
            vec ^= gen
    return vec


def skew_product(b: list[list[int]], m: int) -> list[list[int]]:
    """B^T H B for B with m columns, H the block-diagonal [[0, 1], [-1, 0]]."""
    out = [[0] * m for _ in range(m)]
    for h in range(len(b) // 2):
        x, y = b[2 * h], b[2 * h + 1]
        for i in range(m):
            for j in range(m):
                out[i][j] += x[i] * y[j] - y[i] * x[j]
    return out
