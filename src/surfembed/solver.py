"""Budgeted search for bounded-rank compatible matrices.

Decides whether a graph has a crossing-parity matrix realizable by vectors
y_e in GF(2)^d whose Gram matrix under the ribbon form of the surface
(SurfaceSpec.form: hyperbolic on S_g, the identity on M_m) is compatible
modulo 2 with the graph.  Every affirmative answer carries a fully
verified witness: the matrix, its factor, a concrete planar drawing and a
surface drawing checked by the combinatorial verifier.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from .drawing import (
    CompatibilityClass,
    ParityMatrix,
    crossing_parity_matrix,
    realize_parity,
)
from .gf2 import BitMatrix
from .graph import Graph, independent_pairs
from .surface import SurfaceSpec, _low_bits, construct_z2_embedding, verify_z2


@dataclass
class SolverBudget:
    max_nodes: int = 5_000_000
    time_cap: float = None

    def __post_init__(self):
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.time_cap is not None and not self.time_cap > 0:  # NaN too
            raise ValueError("time_cap must be positive")


@dataclass
class _Started(SolverBudget):
    """A budget whose time cap counts from one fixed instant."""

    deadline: float = None


def _start(budget: SolverBudget = None) -> _Started:
    """The budget with its deadline fixed now.  A started budget passes
    through, so every search under one top-level call shares one deadline."""
    budget = budget or SolverBudget()
    if isinstance(budget, _Started):
        return budget
    deadline = None if budget.time_cap is None else time.monotonic() + budget.time_cap
    return _Started(budget.max_nodes, budget.time_cap, deadline)


@dataclass
class Witness:
    matrix: BitMatrix
    factor: BitMatrix
    drawing: object
    surface_drawing: object
    report: object


@dataclass
class SolveResult:
    status: str  # "yes" | "no" | "unknown"
    witness: Witness = None
    nodes: int = 0


def _nullspace(vectors, nbits):
    """Basis of {z : z . v = 0 for every v}, vectors packed as ints."""
    rows = []  # fully reduced: (pivot bit, vector), no pivot bit shared
    for v in vectors:
        for pb, pv in rows:
            if (v >> pb) & 1:
                v ^= pv
        if v:
            pb = v.bit_length() - 1
            rows = [(qb, qv ^ v if (qv >> pb) & 1 else qv) for qb, qv in rows]
            rows.append((pb, v))
    pivot_bits = {pb for pb, _ in rows}
    basis = []
    for free in range(nbits):
        if free in pivot_bits:
            continue
        z = 1 << free
        for pb, pv in rows:
            if (pv >> free) & 1:
                z |= 1 << pb
        basis.append(z)
    return basis


def _canonical_reps(spec: SurfaceSpec):
    """Lexicographically minimal orbit representatives of the pass vectors
    of the surface under the coordinate symmetries of its form (handle
    permutations and within-handle swaps on S_g, ribbon permutations on M_m).

    An orbit is fixed by the weight on M_m, and on S_g by the numbers c of
    handles 11 and b of handles 01 or 10; its least member has the c handles
    11 at the bottom and the b handles 01 above them.
    """
    if not spec.orientable:
        return [(1 << k) - 1 for k in range(spec.genus + 1)]
    g = spec.genus
    return sorted(
        ((1 << (2 * c)) - 1) | (_low_bits(b + c) ^ _low_bits(c))
        for c in range(g + 1)
        for b in range(g - c + 1)
    )


def _edge_order(g: Graph, checks, pairs):
    """Assignment order that completes the parity checks early."""
    m = g.edge_count
    remaining = list(range(m))
    order = []
    placed = set()
    check_edges = []
    for support, _ in checks:
        edges = set()
        for k in support:
            edges.add(pairs[k].i)
            edges.add(pairs[k].j)
        check_edges.append(edges)
    while remaining:
        best = None
        best_gain = (-1, 0)
        for e in remaining:
            would = placed | {e}
            gain = sum(1 for edges in check_edges if edges <= would and not edges <= placed)
            tie = sum(1 for edges in check_edges if e in edges)
            if (gain, tie) > best_gain:
                best_gain = (gain, tie)
                best = e
        order.append(best)
        placed.add(best)
        remaining.remove(best)
    return order


def _spanning_forest(g: Graph, order) -> set[int]:
    """Kruskal over the order: an edge joins the forest unless earlier
    forest edges already connect its ends."""
    parent = list(range(g.vertex_count))

    def root(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    forest = set()
    for e in order:
        a, b = (root(u) for u in g.edges[e])
        if a != b:
            parent[a] = b
            forest.add(e)
    return forest


def _search(g: Graph, spec: SurfaceSpec, budget: SolverBudget, compat: CompatibilityClass):
    """DFS over per-edge pass vectors of the surface (2g ribbons on S_g, m
    on M_m); returns (status, assignment, nodes).

    A check is a parity condition: the sum of B(y_i, y_j) =
    spec.form(y_i, y_j) over a set of independent pairs equals its
    right-hand side.  Bit c of the int `state` is the running sum of check
    c over the pairs whose edges are both placed.  B is bilinear, so
    placing v on an edge XORs into the state the units U[b] for the bits b
    of v, where U[b] holds the checks that pair the edge with a placed
    edge j whose J.y_j = spec.dual(y_j) has bit b set.  A candidate passes
    when every check firing at its position, i.e. involving no later edge,
    meets its right-hand side.

    Normal form: rerouting a vertex through w adds w to y_e for every edge
    e at it, a sum of finger moves, so the class test does not change and
    y_e = 0 may be fixed on a spanning forest.  The forest is taken by
    Kruskal over the edge order; its pairs drop out of every check
    (B(0, y) = 0), and the DFS runs over the remaining edges in their
    relative order, orbit representatives at the first.  Zeroing forest
    edge f moves every vertex of the component f attaches at its place in
    the order, which changes only f and later edges, so the
    lexicographically first solution over all edges is zero on the forest
    and has a representative at the first free edge.  This DFS therefore
    visits a subset of the nodes of the DFS over all edges, in the same
    order, and returns the same assignment.
    """
    m = g.edge_count
    d = spec.ribbon_count
    pairs = independent_pairs(g)
    base = compat.base.pair_vector(pairs)
    zbasis = _nullspace(compat.generators, len(pairs))
    checks = []
    for z in zbasis:
        support = [k for k in range(len(pairs)) if (z >> k) & 1]
        checks.append((support, (z & base).bit_count() & 1))

    if d == 0:
        if all(rhs == 0 for _, rhs in checks):
            return "yes", [0] * m, 1
        return "no", None, 1

    order = _edge_order(g, checks, pairs)
    forest = _spanning_forest(g, order)
    free = [e for e in order if e not in forest]
    n = len(free)
    pos = {e: t for t, e in enumerate(free)}
    reps = _canonical_reps(spec)

    # A check fires at the deepest position it involves.  A pair enters the
    # state when its later edge is placed: links[t] maps each earlier edge j
    # to the checks holding the pair (free[t], j).
    fire_mask = [0] * n
    rhs_mask = 0
    links = [{} for _ in range(n)]
    for c, (support, rhs) in enumerate(checks):
        depth = -1
        for k in support:
            i, j = pairs[k].i, pairs[k].j
            if i in forest or j in forest:
                continue
            if pos[i] < pos[j]:
                i, j = j, i
            links[pos[i]][j] = links[pos[i]].get(j, 0) ^ (1 << c)
            depth = max(depth, pos[i])
        if depth < 0:  # every pair touches the forest: the sum is 0
            if rhs:
                return "no", None, 0
            continue
        fire_mask[depth] |= 1 << c
        rhs_mask |= rhs << c
    links = [list(row.items()) for row in links]

    assign = [0] * m
    dual_bits = [[]]  # dual_bits[v]: the set bits of J.v
    for b in range(d):
        image = spec.dual(1 << b).bit_length() - 1
        dual_bits += [bits + [image] for bits in dual_bits]
    placed_bits = [None] * m  # dual_bits of each placed edge's vector
    max_nodes = budget.max_nodes
    nodes = 0
    deadline = _start(budget).deadline

    def dfs(t, state):
        nonlocal nodes
        if t == n:
            return True
        units = [0] * d
        for j, held in links[t]:
            for b in placed_bits[j]:
                units[b] ^= held
        deltas = [0]
        for u in units:
            deltas += [x ^ u for x in deltas]
        fires = fire_mask[t]
        want = rhs_mask & fires
        e = free[t]
        for v in reps if t == 0 else range(len(deltas)):
            nodes += 1
            if nodes > max_nodes:
                raise _BudgetExhausted
            if deadline is not None and nodes % 4096 == 0 and time.monotonic() > deadline:
                raise _BudgetExhausted
            after = state ^ deltas[v]
            if after & fires == want:
                assign[e] = v
                placed_bits[e] = dual_bits[v]
                if dfs(t + 1, after):
                    return True
        assign[e] = 0
        return False

    try:
        if dfs(0, 0):
            return "yes", list(assign), nodes
        return "no", None, nodes
    except _BudgetExhausted:
        return "unknown", None, nodes


class _BudgetExhausted(Exception):
    pass


def _build_witness(g: Graph, spec: SurfaceSpec, assign, compat: CompatibilityClass) -> Witness:
    m = g.edge_count
    y = BitMatrix(spec.ribbon_count, m)
    for e in range(m):
        for k in range(spec.ribbon_count):
            y.set(k, e, (assign[e] >> k) & 1)
    a = spec.gram(assign)
    f = realize_parity(g, ParityMatrix(g, a), compat)
    sd = construct_z2_embedding(g, f, y, spec)
    report = verify_z2(sd)
    if not report.is_embedding:
        raise RuntimeError("internal error: witness failed verification")
    return Witness(a, y, f, sd, report)


def _solve(g: Graph, spec: SurfaceSpec, budget, compat) -> SolveResult:
    budget = _start(budget)
    compat = compat or CompatibilityClass.compute(g)
    if compat.graph.edges != g.edges:
        raise ValueError("compatibility class of a different edge set")
    status, assign, nodes = _search(g, spec, budget, compat)
    if status != "yes":
        return SolveResult(status, nodes=nodes)
    return SolveResult("yes", _build_witness(g, spec, assign, compat), nodes)


def z2_embeddable_orientable(
    g: Graph, genus: int, budget: SolverBudget = None, compat: CompatibilityClass = None
) -> SolveResult:
    """compat, when given, is CompatibilityClass.compute(g), shared by calls."""
    return _solve(g, SurfaceSpec("S", genus), budget, compat)


def z2_embeddable_nonorientable(
    g: Graph, m: int, budget: SolverBudget = None, compat: CompatibilityClass = None
) -> SolveResult:
    """compat, when given, is CompatibilityClass.compute(g), shared by calls."""
    return _solve(g, SurfaceSpec("M", m), budget, compat)


def z2_embeddable_euler(g: Graph, e: int, budget: SolverBudget = None) -> SolveResult:
    """Z2-embeddability into some surface of Euler characteristic e, via the
    rank bound 2-e: the union of the even search and the odd search, under
    one deadline."""
    if e > 2:
        raise ValueError("Euler characteristic of such a surface is at most 2")
    budget = _start(budget)
    compat = CompatibilityClass.compute(g)
    rank_cap = 2 - e
    res_o = z2_embeddable_orientable(g, rank_cap // 2, budget, compat)
    if res_o.status == "yes":
        return res_o
    if rank_cap >= 1:
        res_n = z2_embeddable_nonorientable(g, rank_cap, budget, compat)
        if res_n.status == "yes":
            return res_n
        if "unknown" in (res_o.status, res_n.status):
            return SolveResult("unknown", nodes=res_o.nodes + res_n.nodes)
        return SolveResult("no", nodes=res_o.nodes + res_n.nodes)
    return res_o


@dataclass
class GenusResult:
    status: str  # "found" | "none" | "unknown"
    value: int = None
    witness: Witness = None


def z2_genus(g: Graph, kind: str = "orientable", maximum: int = 8, budget: SolverBudget = None) -> GenusResult:
    """Smallest genus (or crosscap number) admitting a Z2-embedding.

    Scanning upward is sound: embeddability into a surface implies
    embeddability into every larger one of the same kind.  The searches of
    the scan share one deadline.
    """
    if kind not in ("orientable", "nonorientable"):
        raise ValueError("kind must be orientable or nonorientable")
    budget = _start(budget)
    start = 0 if kind == "orientable" else 1
    compat = CompatibilityClass.compute(g)
    for p in range(start, maximum + 1):
        if kind == "orientable":
            res = z2_embeddable_orientable(g, p, budget, compat)
        else:
            res = z2_embeddable_nonorientable(g, p, budget, compat)
        if res.status == "yes":
            return GenusResult("found", p, res.witness)
        if res.status == "unknown":
            return GenusResult("unknown")
    return GenusResult("none")


def kmn_lower_bound(m: int, n: int) -> int:
    """Lower bound on the genus of any surface Z2-hosting K_{m,n}."""
    if m < 1 or n < 1:
        raise ValueError("part sizes must be positive")
    value = Fraction((m - 2) * (n - 2), 4) - Fraction(m - 3, 2)
    return max(0, math.ceil(value))


def k2n_lower_bound(n: int) -> int:
    """Lower bound on the genus of any surface Z2-hosting K_{2n}."""
    if n < 1:
        raise ValueError("n must be positive")
    return max(0, math.ceil(Fraction((n - 3) ** 2, 4)))
