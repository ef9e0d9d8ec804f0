"""Budgeted search for bounded-rank compatible matrices.

Decides whether a graph has a crossing-parity matrix realizable by vectors
y_e in GF(2)^d whose Gram matrix under the ribbon form of the surface
(SurfaceSpec.form: hyperbolic on S_g, the identity on M_m) is compatible
modulo 2 with the graph.  Every affirmative answer carries a witness:
the matrix and a surface drawing whose core realizes it and whose passes
factor it, checked by the combinatorial verifier.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from numbers import Real

from .drawing import (
    CompatibilityClass,
    ParityMatrix,
    RealizationError,
    finger_move_columns,
    realize_parity,
)
from .gf2 import BitMatrix, Gf2Elimination, rank_gf2
from .graph import Graph
from .surface import SurfaceDrawing, SurfaceSpec, construct_z2_embedding, verify_z2


@dataclass
class SolverBudget:
    max_nodes: int = 5_000_000
    time_cap: float = None

    def __post_init__(self):
        # bool is an int, but True is no node count and no time cap
        if not isinstance(self.max_nodes, int) or isinstance(self.max_nodes, bool):
            raise ValueError("max_nodes must be an integer")
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        cap = self.time_cap
        if cap is not None and (isinstance(cap, bool) or not isinstance(cap, Real) or not cap > 0):  # NaN too
            raise ValueError("time_cap must be positive")


@dataclass
class Witness:
    matrix: BitMatrix
    surface_drawing: SurfaceDrawing


@dataclass
class SolveResult:
    status: str  # "yes" | "no" | "unknown"
    witness: Witness = None
    nodes: int = 0


def _witt_children(spec: SurfaceSpec, basis: tuple):
    """The hyperbolic parts tried at a position of the search whose earlier
    entries' hyperbolic parts span W = span(basis), each with the basis of
    the span after it; spec is S_g for the g pairs (see _search).

    basis is reduced (no row has the highest bit of another row set) and
    sorted, so it names W.  The candidates are every v in W and, for each
    pattern (B(v, w) for w in basis), the least v outside W with it; once W
    is the whole space, every vector.  B is alternating and nondegenerate,
    so by Witt's theorem these are the least members of the orbits of the
    pointwise stabiliser of W in Sp(2g, 2).
    """
    d, r = spec.ribbon_count, len(basis)
    if r == d:
        return ((v, basis) for v in range(1 << d))
    span = [0]
    for w in basis:
        span += [x ^ w for x in span]
    inside = set(span)
    duals = [spec.dual(w) for w in basis]
    # Every pattern is met outside W, except when W contains its
    # complement W' = {v : B(v, W) = 0}, of dimension d - r; then the
    # patterns met inside W (2^r over |W'|) are met nowhere else.  W' meets
    # W in the radical of B on W, of dimension r - rank of the Gram matrix
    # of the basis, so W' lies in W exactly when that rank is 2r - d.
    outside = 1 << r
    if rank_gf2(spec.gram(basis)) == 2 * r - d:
        outside -= 1 << (2 * r - d)
    top = max(span)
    seen = set()
    out = []
    for v in range(1 << d):
        if v in inside:
            out.append((v, basis))
            continue
        pattern = sum(((v & u).bit_count() & 1) << i for i, u in enumerate(duals))
        if pattern not in seen:
            seen.add(pattern)
            x = v  # v reduced by the basis: the row it adds
            for w in basis:
                x = min(x, x ^ w)
            out.append((v, tuple(sorted([min(w, w ^ x) for w in basis] + [x]))))
        if len(seen) == outside and v >= top:
            break
    return out


def _edge_order(m: int, check_edges):
    """Assignment order of the m edges that completes the parity checks
    early: next the edge that completes the most checks, then the one in
    the most checks, then the lowest.  check_edges[c] holds the edges that
    check c involves.  An edge's score is gain * (checks + 1) + held, gain
    the checks that placing it completes and held the checks involving it,
    at most checks, so scores order as the pairs (gain, held)."""
    holding = [[] for _ in range(m)]  # holding[e]: the checks involving e
    for c, edges in enumerate(check_edges):
        for e in edges:
            holding[e].append(c)
    step = len(check_edges) + 1
    score = [len(held) for held in holding]
    missing = [len(edges) for edges in check_edges]  # edges not yet placed
    placed = [False] * m
    remaining = list(range(m))
    order = []
    while remaining:
        best = max(remaining, key=score.__getitem__)
        order.append(best)
        placed[best] = True
        remaining.remove(best)
        for c in holding[best]:
            missing[c] -= 1
            if missing[c] == 1:  # placing its last edge completes c
                score[next(e for e in check_edges[c] if not placed[e])] += step
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


@dataclass
class _Checks:
    """The parity checks laid out for the DFS over the non-forest edges.

    A check is a parity condition: the sum of B(y_i, y_j) over a set of
    independent pairs equals its right-hand side.  Check c is bit c of
    every mask here, numbered by the position at which it fires, so the
    masks grow with depth.  The layout reads each check's own pairs as a
    packed mask over g.pairs in decreasing order and keeps only the
    per-check bits below.  Nothing here depends on the surface, so one
    layout serves every search of a genus scan.
    """

    forest_fails: bool  # a check on forest pairs only has right-hand side 1
    free: list  # the non-forest edges in their relative order
    fire_mask: list  # fire_mask[t]: the checks whose deepest position is t
    rhs_mask: int
    links: list  # links[t]: (j, checks holding the pair (free[t], j))


def _layout_checks(g: Graph, base: int) -> _Checks:
    """The checks are the kernel of the finger moves' pair columns
    (finger_move_columns), from one elimination fed over the pairs in
    decreasing order, each a packed mask over g.pairs in that order (see
    Gf2Elimination).  That reduced basis gives the edge order and the
    forest.  The DFS prunes with the same kernel in echelon form by depth:
    a pair touching no forest edge sits at the position of its later edge,
    and each vector is reduced by the check holding its lead, the highest
    bit at its deepest position, until that lead is new or only forest
    pairs are left.  The leads are then distinct, so no vector vanishes,
    and a check fires at its lead's position, the deepest it involves.

    So no node count depends on the basis.  Depth is the major key of the
    leads' order, and a sum of vectors with distinct leads leads with the
    greatest of them, so the checks firing by position t span every check
    on the first t + 1 free edges, and the vectors left on forest pairs
    span every check on forest pairs alone.  A candidate passes when the
    partial assignment meets that span, so every position tries and passes
    the same candidates under any such basis.  A right-hand side is the
    check's parity on the class's base, read in the same bit order."""
    pairs, m = g.pairs, g.edge_count

    # at_edge[e]: the pairs holding edge e, in decreasing order.
    at_edge = [0] * m
    for k, (i, j) in enumerate(reversed(pairs)):
        at_edge[i] |= 1 << k
        at_edge[j] |= 1 << k
    kernel = Gf2Elimination(finger_move_columns(g)[::-1]).kernel
    order = _edge_order(m, [[e for e in range(m) if z & at_edge[e]] for z in kernel])
    forest = _spanning_forest(g, order)
    free = [e for e in order if e not in forest]
    pos = {e: t for t, e in enumerate(free)}

    # A pair enters the state when its later edge is placed: links[t] maps
    # each earlier edge j to the checks holding the pair (free[t], j).
    # level[t] holds the bits of the pairs placed at position t, and
    # entry[k] the (links row, earlier edge) of bit k.
    links = [{} for _ in free]
    level = [0] * len(free)
    entry = [None] * len(pairs)
    for k, (i, j) in enumerate(reversed(pairs)):
        if i in pos and j in pos:
            if pos[i] > pos[j]:
                i, j = j, i
            level[pos[j]] |= 1 << k
            entry[k] = (links[pos[j]], i)
    inner = sum(level)  # the pairs touching no forest edge
    base = int(f"{base:0{len(pairs)}b}"[::-1], 2)  # in decreasing order too
    held = {}  # (position, lead bit_length): the check holding that lead
    forest_fails = False
    for z in kernel:
        t = len(free) - 1
        while z & inner:
            while not z & level[t]:
                t -= 1
            lead = t, (z & level[t]).bit_length()
            if lead not in held:
                held[lead] = z
                break
            z ^= held[lead]
        else:  # every pair touches the forest: the sum is 0
            forest_fails |= (z & base).bit_count() % 2 == 1

    fire_mask = [0] * len(free)
    rhs_mask = 0
    for c, ((t, _), z) in enumerate(sorted(held.items())):
        bit = 1 << c
        fire_mask[t] |= bit
        rhs_mask |= ((z & base).bit_count() & 1) << c
        v = z & inner
        while v:
            lowest = v & -v
            row, j = entry[lowest.bit_length() - 1]
            row[j] = row.get(j, 0) ^ bit
            v ^= lowest
    return _Checks(forest_fails, free, fire_mask, rhs_mask, [list(row.items()) for row in links])


class _Call:
    """What every search of one top-level call shares: one deadline, fixed
    first, one node budget, and one layout of the checks of g.  The
    caller's budget is read, never written."""

    def __init__(self, g: Graph, budget: SolverBudget = None):
        budget = budget or SolverBudget()
        self.deadline = None if budget.time_cap is None else time.monotonic() + budget.time_cap
        self.nodes_left = budget.max_nodes  # -1 once a search found them spent
        self.checks = _layout_checks(g, CompatibilityClass.compute(g).base)


def _set_bits(v: int) -> list[int]:
    """The positions of v's set bits, ascending; peels off the lowest set
    bit, so the cost follows the number of set bits, not the length."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


# A row is kept when its set bits, plus one for each candidate, number at
# most this: under 3 MB, and every vector of up to 13 ribbons.  A longer row
# (up to 2^d candidates) is made again, whole, on each pass, so a row's
# memory depends on neither d nor the budget.
_ROW_BITS = 1 << 16


def _search(g: Graph, spec: SurfaceSpec, call: _Call):
    """DFS over per-edge pass vectors of the surface (2g ribbons on S_g, m
    on M_m), in the search basis below, with the checks call laid out for
    g; returns (status, assignment in search coordinates, nodes).  The
    search may visit the call's nodes left, plus the one that finds them
    spent, and stops at the first deadline test past the call's deadline;
    it spends nothing itself (see _solve).

    In the search basis B = spec.form is H^h + I_u, d = 2h + u: u units in
    the low bits, then h hyperbolic pairs, which J swaps.  On S_g it is the
    ribbons' own basis (u = 0); on M_m, u is 1 for odd m and 2 for even m,
    and _ribbon_vector maps back.  Both kinds build the candidates at a
    position, its row, one way: each of _witt_children of S_h with each
    unit value (only 0 on S_g).  A row is kept whole, or, when too long to
    keep (_ROW_BITS), made again, whole, on each pass; either way the
    position tries the same candidates in the same order.

    Bit c of the int `state` is the running sum of check c (see _Checks)
    over the pairs whose edges are both placed.  B is bilinear, so placing
    v on an edge XORs into the state the masks U[b] for the bits b of v,
    where U[b] holds the checks that pair the edge with a placed edge j
    whose J.y_j has bit b set.  A candidate passes when every check firing
    at its position, i.e. involving no later edge, meets its right-hand
    side.

    Normal form: rerouting a vertex through w adds w to y_e for every edge
    e at it, a sum of finger moves, so the class test does not change and
    y_e = 0 may be fixed on a spanning forest.  The forest is taken by
    Kruskal over the edge order; its pairs drop out of every check
    (B(0, y) = 0), and the DFS runs over the remaining edges in their
    relative order.  Zeroing forest edge f moves every vertex of the
    component f attaches at its place in the order, which changes only f
    and later edges, so the lexicographically first solution over all
    edges is zero on the forest.

    Symmetry: every check and the zeros on the forest are kept by every
    isometry of B, which maps solutions to solutions.  Were the entry of
    the lexicographically first solution at position t not the least of
    its orbit under a group of isometries fixing the earlier entries, the
    image of the solution under such an isometry would be a smaller
    solution.  Sp(2h, 2) on the hyperbolic bits, with the swap of the two
    units added at the first free edge, is a group of isometries; those
    fixing the earlier entries include the pointwise stabiliser of the
    span of their hyperbolic parts, whose orbits' least members are
    _witt_children's.  An orbit of a product is a product of orbits, so a
    position tries each of these with every unit value in the low bits,
    but no lone second unit at the first free edge.

    This DFS therefore visits a subset of the nodes of the DFS over all
    edges and all vectors in the search basis, in the same order, and
    returns the same assignment.
    """
    checks = call.checks
    m = g.edge_count
    d = spec.ribbon_count
    if d == 0:  # every vector is 0: yes iff every right-hand side is 0
        return ("no", None, 1) if checks.rhs_mask or checks.forest_fails else ("yes", [0] * m, 1)
    if checks.forest_fails:
        return "no", None, 0
    free, fire_mask, rhs_mask, links = checks.free, checks.fire_mask, checks.rhs_mask, checks.links
    n = len(free)

    # rows[key]: the candidates at a position, each as (v, set bits of v,
    # set bits of J.v, key after it), filled in as the DFS reaches the key:
    # the reduced basis of the span of the earlier entries' hyperbolic
    # parts, or None at the first free edge.  A row too long to keep is
    # False here.
    u = 0 if spec.orientable else 2 - d % 2
    hyp = SurfaceSpec("S", (d - u) // 2)

    def entries(key):
        lows = (0, 1, 3)[: 1 << u] if key is None else range(1 << u)  # the swap takes 2 to 1
        for w, after in _witt_children(hyp, key or ()):
            v, dual = w << u, hyp.dual(w) << u
            for lo in lows:
                yield v | lo, _set_bits(v | lo), _set_bits(dual | lo), after

    def row_at(key):
        """The row at key as a list, or False once its set bits, plus one
        for each candidate, pass _ROW_BITS."""
        row, size = [], 0
        for entry in entries(key):
            size += len(entry[1]) + 1
            if size > _ROW_BITS:
                return False
            row.append(entry)
        return row

    rows = {}
    assign = [0] * m
    placed_bits = [None] * m  # the set bits of J.y_j of each placed edge j
    max_nodes = call.nodes_left
    nodes = 0
    deadline = call.deadline

    def dfs(t, state, key):
        nonlocal nodes
        if t == n:
            return True
        units = [0] * d
        for j, held in links[t]:
            for b in placed_bits[j]:
                units[b] ^= held
        fires = fire_mask[t]
        want = rhs_mask & fires
        e = free[t]
        row = rows.get(key)
        if row is None:
            row = rows[key] = row_at(key)
        for v, bits, dual_bits, after_key in row or entries(key):
            nodes += 1
            if nodes > max_nodes:
                raise _BudgetExhausted
            if deadline is not None and nodes % 4096 == 0 and time.monotonic() > deadline:
                raise _BudgetExhausted
            after = state
            for b in bits:
                after ^= units[b]
            if after & fires == want:
                assign[e] = v
                placed_bits[e] = dual_bits
                if dfs(t + 1, after, after_key):
                    return True
        assign[e] = 0
        return False

    try:
        if dfs(0, 0, None):
            return "yes", list(assign), nodes
        return "no", None, nodes
    except _BudgetExhausted:
        return "unknown", None, nodes


class _BudgetExhausted(Exception):
    pass


def _ribbon_vector(m: int, x: int) -> int:
    """The pass vector over the ribbons of M_m of the search vector x (see
    _search).  With u = 1 for odd m and 2 for even m, and m = 2h + u, bit 0
    is c = e_1 + ... + e_{2h+1}, bit 1 for even m is e_{2h+2}, and bits
    u + 2k, u + 2k + 1 are a = e_1 + ... + e_{2k+2}, b = e_{2k+2} + e_{2k+3}:
    c.c = a.b = e_{2h+2}.e_{2h+2} = 1, and every other pair is orthogonal."""
    u = 2 - m % 2
    v = (1 << (m + 1 - u)) - 1 if x & 1 else 0  # c
    if x & 2 and u == 2:
        v ^= 1 << (m - 1)
    for j in _set_bits(x >> u):  # a pair's b at odd j, its a at even j
        v ^= 3 << j if j & 1 else (4 << j) - 1
    return v


def _build_witness(g: Graph, spec: SurfaceSpec, assign) -> Witness:
    if not spec.orientable:
        assign = [_ribbon_vector(spec.genus, x) for x in assign]
    y = BitMatrix(g.edge_count, spec.ribbon_count, assign).transpose()
    a = spec.gram(assign)
    f = realize_parity(g, ParityMatrix(g, a))
    sd = construct_z2_embedding(g, f, y, spec)
    if not verify_z2(sd).is_embedding:
        raise RealizationError("internal error: witness failed verification")
    return Witness(a, sd)


def _solve(g: Graph, spec: SurfaceSpec, budget) -> SolveResult:
    """One search on spec and its witness.  budget is a SolverBudget, which
    starts a call of its own, or the started call of a scan, whose
    searches then share its deadline, nodes and checks; the search's nodes
    are spent from the call."""
    call = budget if isinstance(budget, _Call) else _Call(g, budget)
    if call.nodes_left < 0:  # an earlier search of the call spent them
        return SolveResult("unknown")
    status, assign, nodes = _search(g, spec, call)
    call.nodes_left -= nodes
    if status != "yes":
        return SolveResult(status, nodes=nodes)
    return SolveResult("yes", _build_witness(g, spec, assign), nodes)


def z2_embeddable_orientable(g: Graph, genus: int, budget: SolverBudget = None) -> SolveResult:
    """Z2-embeddability of g into S_genus."""
    return _solve(g, SurfaceSpec("S", genus), budget)


def z2_embeddable_nonorientable(g: Graph, m: int, budget: SolverBudget = None) -> SolveResult:
    """Z2-embeddability of g into M_m."""
    return _solve(g, SurfaceSpec("M", m), budget)


def z2_embeddable_euler(g: Graph, e: int, budget: SolverBudget = None) -> SolveResult:
    """Z2-embeddability into some surface of Euler characteristic e, via the
    rank bound 2-e: the union of the even search and the odd search, under
    one deadline and one node budget; nodes counts both searches.

    For odd e the even search runs on S_{(1-e)/2}, of Euler characteristic
    e + 1, so a "yes" from it carries its witness there; one crosscap
    turns that surface into M_{2-e}.  Whenever both searches decide, the
    status is that of the M_{2-e} search alone: an even matrix of rank at
    most 1 - e factors through the identity on 2 - e ribbons too."""
    if not isinstance(e, int) or isinstance(e, bool):  # True is no characteristic
        raise ValueError("Euler characteristic must be an integer")
    if e > 2:
        raise ValueError("Euler characteristic of such a surface is at most 2")
    call = _Call(g, budget)
    even = z2_embeddable_orientable(g, (2 - e) // 2, call)
    if even.status == "yes" or e == 2:
        return even
    odd = z2_embeddable_nonorientable(g, 2 - e, call)
    status = even.status if odd.status == "no" else odd.status
    return SolveResult(status, odd.witness, even.nodes + odd.nodes)


@dataclass
class GenusResult:
    status: str  # "found" | "none" | "unknown"
    value: int = None
    witness: Witness = None


def z2_genus(g: Graph, kind: str = "orientable", maximum: int = 8, budget: SolverBudget = None) -> GenusResult:
    """Smallest genus (or crosscap number) admitting a Z2-embedding.

    Scanning upward is sound: embeddability into a surface implies
    embeddability into every larger one of the same kind.  The searches of
    the scan share one deadline and one node budget.
    """
    if kind not in ("orientable", "nonorientable"):
        raise ValueError("kind must be orientable or nonorientable")
    start = 0 if kind == "orientable" else 1
    if not isinstance(maximum, int) or isinstance(maximum, bool):
        raise ValueError("maximum must be an integer")
    if maximum < start:
        raise ValueError(f"maximum must be at least {start} for {kind} surfaces")
    call = _Call(g, budget)
    for p in range(start, maximum + 1):
        if kind == "orientable":
            res = z2_embeddable_orientable(g, p, call)
        else:
            res = z2_embeddable_nonorientable(g, p, call)
        if res.status == "yes":
            return GenusResult("found", p, res.witness)
        if res.status == "unknown":
            return GenusResult("unknown")
    return GenusResult("none")


def kmn_lower_bound(m: int, n: int) -> int:
    """Lower bound on the genus of any surface Z2-hosting K_{m,n}, in
    either order of the parts.  The bound (Fulek and Kyncl) holds for
    3 <= m <= n; K_{1,n} and K_{2,n} are planar."""
    if any(not isinstance(x, int) or isinstance(x, bool) for x in (m, n)):
        raise ValueError("part sizes must be integers")
    if m < 1 or n < 1:
        raise ValueError("part sizes must be positive")
    m, n = sorted((m, n))
    if m <= 2:
        return 0
    # ceil((m - 2)(n - 2) / 4 - (m - 3) / 2), as an integer ceiling; the
    # numerator is at least (m - 3)^2 + 1 > 0.
    return -(-((m - 2) * (n - 2) - 2 * (m - 3)) // 4)


def k2n_lower_bound(n: int) -> int:
    """Lower bound ceil((n - 3)^2 / 4) on the genus of any surface
    Z2-hosting K_{2n}, 0 for n <= 3: K_2 and K_4 are planar."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError("n must be an integer")
    if n < 1:
        raise ValueError("n must be positive")
    return -(-(max(0, n - 3) ** 2) // 4)
