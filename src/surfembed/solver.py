"""Budgeted search for bounded-rank compatible matrices.

Decides whether a graph has a crossing-parity matrix realizable by vectors
y_e in GF(2)^d whose Gram matrix (under the hyperbolic form for orientable
surfaces, the identity form for nonorientable ones) is compatible modulo 2
with the graph.  Every affirmative answer carries a fully verified witness:
the matrix, its factor, a concrete planar drawing and a surface drawing
checked by the combinatorial verifier.
"""

from __future__ import annotations

import itertools
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
from .surface import SurfaceSpec, construct_z2_embedding, verify_z2


@dataclass
class SolverBudget:
    max_nodes: int = 5_000_000
    time_cap: float = None

    def __post_init__(self):
        if self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.time_cap is not None and self.time_cap <= 0:
            raise ValueError("time_cap must be positive")


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


def _form_values(kind: str, d: int):
    """Lookup table of the form value for every pair of GF(2)^d vectors."""

    def val(a, b):
        if kind == "H":
            acc = 0
            for h in range(d // 2):
                acc ^= ((a >> (2 * h)) & 1) & ((b >> (2 * h + 1)) & 1)
                acc ^= ((a >> (2 * h + 1)) & 1) & ((b >> (2 * h)) & 1)
            return acc
        return (a & b).bit_count() & 1

    size = 1 << d
    table = [[val(a, b) for b in range(size)] for a in range(size)]
    return table


def _canonical_reps(kind: str, d: int):
    """Lexicographically minimal orbit representatives of GF(2)^d under the
    coordinate symmetries of the form (handle permutations and within-handle
    swaps for the hyperbolic form, coordinate permutations for the identity).
    """
    if kind == "H":
        g = d // 2
        perms = []
        for handle_perm in itertools.permutations(range(g)):
            for swaps in itertools.product((0, 1), repeat=g):
                mapping = []
                for h in range(g):
                    a, b = 2 * handle_perm[h], 2 * handle_perm[h] + 1
                    mapping.extend((b, a) if swaps[h] else (a, b))
                perms.append(mapping)
    else:
        perms = [list(p) for p in itertools.permutations(range(d))]

    def apply(perm, v):
        out = 0
        for i, j in enumerate(perm):
            if (v >> i) & 1:
                out |= 1 << j
        return out

    reps = []
    for v in range(1 << d):
        if all(apply(p, v) >= v for p in perms):
            reps.append(v)
    return reps


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


def _search(g: Graph, kind: str, d: int, budget: SolverBudget):
    """DFS over per-edge vectors; returns (status, assignment, nodes)."""
    m = g.edge_count
    pairs = independent_pairs(g)
    cls = CompatibilityClass.compute(g)
    base = cls.base.pair_vector(pairs)
    zbasis = _nullspace(cls.generators, len(pairs))
    checks = []
    for z in zbasis:
        support = [k for k in range(len(pairs)) if (z >> k) & 1]
        checks.append((support, (z & base).bit_count() & 1))

    if d == 0:
        if all(rhs == 0 for _, rhs in checks):
            return "yes", [0] * m, 1
        return "no", None, 1

    order = _edge_order(g, checks, pairs)
    pos = {e: t for t, e in enumerate(order)}
    table = _form_values(kind, d)
    reps = _canonical_reps(kind, d)

    # checks fire at the deepest assignment position they involve
    fire = [[] for _ in range(m)]
    for support, rhs in checks:
        terms = [(pairs[k].i, pairs[k].j) for k in support]
        depth = max((max(pos[i], pos[j]) for i, j in terms), default=-1)
        if depth < 0:
            if rhs:
                return "no", None, 1
            continue
        fire[depth].append((terms, rhs))

    assign = [0] * m
    nodes = 0
    deadline = None
    if budget.time_cap is not None:
        deadline = time.monotonic() + budget.time_cap
    size = 1 << d

    def ok_at(t):
        for terms, rhs in fire[t]:
            acc = 0
            for i, j in terms:
                acc ^= table[assign[i]][assign[j]]
            if acc != rhs:
                return False
        return True

    def dfs(t):
        nonlocal nodes
        if t == m:
            return True
        domain = reps if t == 0 else range(size)
        for v in domain:
            nodes += 1
            if nodes > budget.max_nodes:
                raise _BudgetExhausted
            if deadline is not None and nodes % 4096 == 0 and time.monotonic() > deadline:
                raise _BudgetExhausted
            assign[order[t]] = v
            if ok_at(t) and dfs(t + 1):
                return True
        assign[order[t]] = 0
        return False

    try:
        if dfs(0):
            return "yes", list(assign), nodes
        return "no", None, nodes
    except _BudgetExhausted:
        return "unknown", None, nodes


class _BudgetExhausted(Exception):
    pass


def _build_witness(g: Graph, kind: str, d: int, assign, spec: SurfaceSpec) -> Witness:
    m = g.edge_count
    table = _form_values(kind, d)
    y = BitMatrix(d, m)
    for e in range(m):
        for k in range(d):
            y.set(k, e, (assign[e] >> k) & 1)
    a = BitMatrix(m, m)
    for i in range(m):
        for j in range(m):
            if i != j or kind == "I":
                a.set(i, j, table[assign[i]][assign[j]])
    if kind == "I" and a.is_even() and m >= 1:
        a.set(0, 0, 1)
    target = BitMatrix(m, m)
    for pr in independent_pairs(g):
        bit = a.get(pr.i, pr.j)
        target.set(pr.i, pr.j, bit)
        target.set(pr.j, pr.i, bit)
    f = realize_parity(g, ParityMatrix(g, target))
    sd = construct_z2_embedding(g, f, y, spec)
    report = verify_z2(sd)
    if not report.is_embedding:
        raise RuntimeError("internal error: witness failed verification")
    return Witness(a, y, f, sd, report)


def z2_embeddable_orientable(g: Graph, genus: int, budget: SolverBudget = None) -> SolveResult:
    if genus < 0:
        raise ValueError("genus must be nonnegative")
    budget = budget or SolverBudget()
    status, assign, nodes = _search(g, "H", 2 * genus, budget)
    if status != "yes":
        return SolveResult(status, nodes=nodes)
    w = _build_witness(g, "H", 2 * genus, assign, SurfaceSpec("S", genus))
    return SolveResult("yes", w, nodes)


def z2_embeddable_nonorientable(g: Graph, m: int, budget: SolverBudget = None) -> SolveResult:
    if m < 1:
        raise ValueError("crosscap number must be positive")
    budget = budget or SolverBudget()
    status, assign, nodes = _search(g, "I", m, budget)
    if status != "yes":
        return SolveResult(status, nodes=nodes)
    w = _build_witness(g, "I", m, assign, SurfaceSpec("M", m))
    return SolveResult("yes", w, nodes)


def z2_embeddable_euler(g: Graph, e: int, budget: SolverBudget = None) -> SolveResult:
    """Z2-embeddability into some surface of Euler characteristic e, via the
    rank bound 2-e: the union of the even search and the odd search."""
    if e > 2:
        raise ValueError("Euler characteristic of such a surface is at most 2")
    budget = budget or SolverBudget()
    rank_cap = 2 - e
    res_o = z2_embeddable_orientable(g, rank_cap // 2, budget)
    if res_o.status == "yes":
        return res_o
    if rank_cap >= 1:
        res_n = z2_embeddable_nonorientable(g, rank_cap, budget)
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
    embeddability into every larger one of the same kind.
    """
    if kind not in ("orientable", "nonorientable"):
        raise ValueError("kind must be orientable or nonorientable")
    start = 0 if kind == "orientable" else 1
    for p in range(start, maximum + 1):
        if kind == "orientable":
            res = z2_embeddable_orientable(g, p, budget)
        else:
            res = z2_embeddable_nonorientable(g, p, budget)
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
