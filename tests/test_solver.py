import itertools
import random
import sys
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from surfembed import solver
from surfembed.gf2 import BitMatrix, Gf2Elimination, rank_gf2
from surfembed.graph import Graph, complete_bipartite, complete_graph, independent_pairs
from surfembed.layout import verify_geometric
from surfembed.solver import (
    SolverBudget,
    k2n_lower_bound,
    kmn_lower_bound,
    z2_embeddable_euler,
    z2_embeddable_nonorientable,
    z2_embeddable_orientable,
    z2_genus,
)
from surfembed.drawing import (
    CompatibilityClass,
    RealizationError,
    finger_move_columns,
    finger_move_generators,
    finger_move_labels,
)
from surfembed.solver import _Call, _edge_order, _ribbon_vector, _search, _set_bits, _witt_children
from surfembed.surface import SurfaceError, SurfaceSpec, VerifyReport, verify_z2


def _nullspace(vectors, nbits):
    """The reduced basis of {z : z . v = 0 for every v}, vectors packed as
    ints: one vector per free coordinate, in increasing order of it; a
    vector's free coordinate is its lowest bit."""
    columns = BitMatrix(len(vectors), nbits, vectors).transpose().data
    # Fed from the last coordinate down, bit i of a tag is coordinate
    # nbits - 1 - i and each tag owns its highest bit (Gf2Elimination).
    tags = Gf2Elimination(columns[::-1]).kernel
    return [int(f"{z:0{nbits}b}"[::-1], 2) for z in reversed(tags)]


def _brute_form(spec, a, b):
    """The form coordinate by coordinate: handles (2h, 2h+1) on S_g."""
    d = max(a.bit_length(), b.bit_length()) + 1
    if not spec.orientable:
        return sum((a >> k) & (b >> k) & 1 for k in range(d)) & 1
    return sum(
        ((a >> 2 * h) & (b >> (2 * h + 1)) & 1) ^ ((a >> (2 * h + 1)) & (b >> 2 * h) & 1)
        for h in range(d)
    ) & 1


def _brute_reps(spec):
    """Vectors of S_g that no coordinate symmetry of the form makes smaller."""
    d = spec.ribbon_count
    perms = []
    for handles in itertools.permutations(range(d // 2)):
        for swaps in itertools.product((0, 1), repeat=d // 2):
            perm = []
            for h, s in zip(handles, swaps):
                perm += [2 * h + s, 2 * h + 1 - s]
            perms.append(perm)

    def image(perm, v):
        return sum(1 << perm[i] for i in range(d) if (v >> i) & 1)

    return [v for v in range(1 << d) if all(image(p, v) >= v for p in perms)]


def _search_basis(m):
    """The search basis of M_m from its definition, in the ribbons'
    coordinates: the units c = e_1 + ... + e_{2h+1} and, for even m,
    e_{2h+2}, then a_k = e_1 + ... + e_{2k} and b_k = e_{2k} + e_{2k+1}
    for k = 1..h."""
    h = (m - 1) // 2

    def e(*ks):
        return sum(1 << (k - 1) for k in ks)

    units = [e(*range(1, 2 * h + 2))] + ([e(2 * h + 2)] if m % 2 == 0 else [])
    return units + [x for k in range(1, h + 1) for x in (e(*range(1, 2 * k + 1)), e(2 * k, 2 * k + 1))]


def _pass_vector(spec, x):
    """The ribbons' pass vector of the search vector x."""
    if spec.orientable:
        return x
    v = 0
    for i, b in enumerate(_search_basis(spec.genus)):
        v ^= b * ((x >> i) & 1)
    return v


class _Exhausted(Exception):
    pass


def _reference_search(g, spec, max_nodes):
    """The solver's DFS as it was before the bitset checks: each candidate
    re-sums, from a table of form values in the search basis, every check
    firing at its position.  Same checks and order; on S_g the first
    position takes the coordinate symmetries' representatives, and every
    other position, and every position on M_m, every vector."""
    m = g.edge_count
    d = spec.ribbon_count
    pairs = independent_pairs(g)
    base = CompatibilityClass.compute(g).base
    checks = []
    for z in _nullspace(finger_move_generators(g), len(pairs)):
        support = [k for k in range(len(pairs)) if (z >> k) & 1]
        checks.append((support, (z & base).bit_count() & 1))
    if d == 0:
        return ("yes", [0] * m, 1) if all(rhs == 0 for _, rhs in checks) else ("no", None, 1)
    order = _edge_order(m, _check_edges(checks, pairs))
    pos = {e: t for t, e in enumerate(order)}
    passes = [_pass_vector(spec, x) for x in range(1 << d)]
    table = [[_brute_form(spec, a, b) for b in passes] for a in passes]
    reps = _brute_reps(spec) if spec.orientable else range(1 << d)
    fire = [[] for _ in range(m)]
    for support, rhs in checks:
        terms = [pairs[k] for k in support]
        fire[max(max(pos[i], pos[j]) for i, j in terms)].append((terms, rhs))
    assign = [0] * m
    nodes = 0

    def dfs(t):
        nonlocal nodes
        if t == m:
            return True
        for v in reps if t == 0 else range(1 << d):
            nodes += 1
            if nodes > max_nodes:
                raise _Exhausted
            assign[order[t]] = v
            ok = all(
                sum(table[assign[i]][assign[j]] for i, j in terms) % 2 == rhs
                for terms, rhs in fire[t]
            )
            if ok and dfs(t + 1):
                return True
        assign[order[t]] = 0
        return False

    try:
        return ("yes", list(assign), nodes) if dfs(0) else ("no", None, nodes)
    except _Exhausted:
        return "unknown", None, nodes


def test_form_and_orbit_representatives_match_brute_force():
    specs = [SurfaceSpec("M", m) for m in range(1, 7)] + [SurfaceSpec("S", g) for g in range(4)]
    for spec in specs:
        d = spec.ribbon_count
        for a in range(1 << min(d, 4)):
            for b in range(1 << min(d, 4)):
                assert spec.form(a, b) == _brute_form(spec, a, b)


def test_the_search_basis_of_m_m_is_hyperbolic_pairs_and_units():
    """For m = 1..12 the search vectors' unit images span GF(2)^m, follow the
    definition, and have the Gram matrix H^h + I_u under the ribbon form."""
    for m in range(1, 13):
        spec, u = SurfaceSpec("M", m), 2 - m % 2
        basis = [_ribbon_vector(m, 1 << i) for i in range(m)]
        assert basis == _search_basis(m), m
        assert len(_span(basis)) == 1 << m, m
        for i, j in itertools.product(range(m), repeat=2):
            hyperbolic = i >= u and j >= u and (i - u) // 2 == (j - u) // 2 and i != j
            assert spec.form(basis[i], basis[j]) == int(hyperbolic or i == j < u), (m, i, j)
        for x in range(1 << min(m, 8)):
            assert _ribbon_vector(m, x) == _pass_vector(spec, x), (m, x)


def _span(vectors):
    out = {0}
    for v in vectors:
        out |= {x ^ v for x in out}
    return out


def _isometries(spec):
    """Sp(2g, 2) by brute force: every invertible matrix, as the images of
    the unit vectors, that keeps spec.form (bilinear, so on unit vectors)."""
    d = spec.ribbon_count
    units = [1 << k for k in range(d)]
    return [
        images
        for images in itertools.product(range(1 << d), repeat=d)
        if len(_span(images)) == 1 << d
        and all(spec.form(images[i], images[j]) == spec.form(units[i], units[j]) for i in range(d) for j in range(d))
    ]


def _image(images, v):
    x = 0
    for k, col in enumerate(images):
        if (v >> k) & 1:
            x ^= col
    return x


def _reduced_basis(space):
    """For every top bit met in the subspace, its least member with that
    top bit: the reduced basis, found without elimination."""
    tops = {x.bit_length() for x in space if x}
    return tuple(sorted(min(x for x in space if x.bit_length() == k) for k in tops))


def test_witt_candidates_are_the_least_members_of_the_stabiliser_orbits():
    """For every subspace W at g = 1, 2, the candidates are the least members
    of the orbits of the pointwise stabiliser of W in Sp(2g, 2), and each
    comes with the reduced basis of W + <v>."""
    for g, order in ((1, 6), (2, 720)):
        spec = SurfaceSpec("S", g)
        d = spec.ribbon_count
        group = _isometries(spec)
        assert len(group) == order
        subspaces = {frozenset(_span(vs)) for r in range(d + 1) for vs in itertools.combinations(range(1, 1 << d), r)}
        assert len(subspaces) == (5 if g == 1 else 67)
        for space in subspaces:
            basis = _reduced_basis(space)
            stab = [s for s in group if all(_image(s, w) == w for w in basis)]
            least = [v for v in range(1 << d) if all(_image(s, v) >= v for s in stab)]
            children = _witt_children(spec, basis)
            assert [v for v, _ in children] == least, basis
            for v, after in children:
                assert after == _reduced_basis(_span(basis + (v,))), (basis, v)
    assert [v for v, _ in _witt_children(SurfaceSpec("S", 3), ())] == [0, 1]


def test_search_matches_per_candidate_reference():
    """The reference runs over every edge; the search fixes y = 0 on a
    spanning forest and visits a subset of the reference's nodes in the same
    order.  So it never takes more nodes, agrees whenever the reference
    decides, and returns the same assignment on every yes."""
    rng = random.Random(43)
    cases = []
    for trial in range(12):
        n = rng.randrange(4, 9)
        possible = list(itertools.combinations(range(n), 2))
        rng.shuffle(possible)
        g = Graph(n, sorted(possible[: rng.randrange(n, min(len(possible), 2 * n + 2) + 1)]))
        for spec in (("S", 0), ("S", 1), ("S", 2), ("M", 1), ("M", 2), ("M", 3)):
            cases.append((g, SurfaceSpec(*spec), rng.choice((30, 300, 3000))))
        # Two units on M4, one on M5, past a hyperbolic pair.  They draw no
        # budget, so the cases above keep theirs.
        cases += [(g, SurfaceSpec("M", m), 3000) for m in (4, 5)]
    # The reference exhausts 3000 nodes on these; the search decides them.
    n1 = SurfaceSpec("M", 1)
    cases += [(complete_bipartite(3, 5), n1, 3000), (complete_bipartite(4, 4), n1, 3000)]
    seen = set()
    confirmed = 0
    for g, spec, max_nodes in cases:
        status, assign, nodes = _search(g, spec, _Call(g, SolverBudget(max_nodes=max_nodes)))
        ref = _reference_search(g, spec, max_nodes)
        assert nodes <= ref[2], (g.edges, spec)
        if status == "unknown":
            assert nodes == max_nodes + 1 and ref[0] == "unknown"
        else:
            if ref[0] == "unknown":
                ref = _reference_search(g, spec, 100 * max_nodes)
                confirmed += 1
            assert (status, assign) == ref[:2], (g.edges, spec)
        seen.add(status)
    assert seen == {"yes", "no", "unknown"}
    assert confirmed


def _relabelled(g, rng):
    """The same graph with shuffled vertex labels and edge order."""
    p = list(range(g.vertex_count))
    rng.shuffle(p)
    edges = [(p[u], p[v]) for u, v in g.edges]
    rng.shuffle(edges)
    return Graph(g.vertex_count, edges)


def test_search_answers_keep_five_metamorphic_relations():
    """Relations that hold for any exact decider, checked wherever both
    sides are decided: a relabelled copy gets the same answer, and a "yes"
    on S_g is one on S_{g+1} and on M_{2g+1}, one on M_m is one on M_{m+1},
    and one for G is one for G - e.  Each relation meets a "no" on both
    sides and a "yes" on both sides."""
    rng = random.Random(49)
    surfaces = [("S", h) for h in range(4)] + [("M", m) for m in range(1, 7)]
    budget = SolverBudget(max_nodes=60_000)  # K7 is "no" on M2 in 54,911

    def answers(g):
        call = _Call(g, budget)
        return {s: _search(g, SurfaceSpec(*s), call)[0] for s in surfaces}

    checked = set()

    def keeps_yes(relation, a, b):
        if "unknown" not in (a, b):
            assert a == "no" or b == "yes", relation
            checked.add((relation, a, b))

    graphs = [complete_graph(6), complete_graph(7)]
    graphs += [complete_bipartite(3, 4), complete_bipartite(3, 5), complete_bipartite(4, 4)]
    for _ in range(30):
        n = rng.randrange(6, 10)
        possible = list(itertools.combinations(range(n), 2))
        rng.shuffle(possible)
        graphs.append(Graph(n, possible[: rng.randrange(2 * n, min(len(possible), 3 * n) + 1)]))
    for g in graphs:
        ans, relabelled = answers(g), answers(_relabelled(g, rng))
        k = rng.randrange(g.edge_count)
        smaller = answers(Graph(g.vertex_count, g.edges[:k] + g.edges[k + 1 :]))
        for s in surfaces:
            keeps_yes("relabelled", ans[s], relabelled[s])
            keeps_yes("relabelled", relabelled[s], ans[s])
            keeps_yes("G - e", ans[s], smaller[s])
        for h in range(3):
            keeps_yes("S_g+1", ans["S", h], ans["S", h + 1])
            keeps_yes("M_2g+1", ans["S", h], ans["M", 2 * h + 1])
        for m in range(1, 6):
            keeps_yes("M_m+1", ans["M", m], ans["M", m + 1])
    for relation in ("relabelled", "G - e", "S_g+1", "M_2g+1", "M_m+1"):
        assert {(relation, "no", "no"), (relation, "yes", "yes")} <= checked, relation


@pytest.mark.parametrize("m, n", [(3, 7), (5, 5)])
def test_kmn_torus_no_within_300k_nodes(m, n):
    assert kmn_lower_bound(m, n) == 2
    base = complete_bipartite(m, n)
    rng = random.Random(m * 10 + n)
    for g in [base] + [_relabelled(base, rng) for _ in range(3)]:
        res = z2_embeddable_orientable(g, 1, SolverBudget(max_nodes=300_000))
        assert res.status == "no", g.edges


def test_k8_torus_no_within_default_budget():
    # The Z2-genus of K8 is its genus 2 (Fulek-Pelsmajer-Schaefer).  With
    # the checks in echelon form by depth this takes 36,259 nodes (341,999
    # with the reduced basis, 1,492,711 with coordinate symmetries at the
    # first free edge only); relabelled copies took at most 57,698 over the
    # 80 labellings of seeds 1 and 9 of the search benchmark.
    base = complete_graph(8)
    res = z2_embeddable_orientable(base, 1)
    assert res.status == "no"
    assert res.nodes <= 60_000
    rng = random.Random(8)
    for _ in range(10):
        g = _relabelled(base, rng)
        res = z2_embeddable_orientable(g, 1, SolverBudget(max_nodes=300_000))
        assert res.status == "no", g.edges


@pytest.mark.parametrize("m, n", [(5, 6), (6, 6)])
def test_kmn_genus_two_no_within_default_budget(m, n):
    # K5,6 embeds in S3 (Ringel), so this "no" puts its Z2-genus at 3, above
    # kmn_lower_bound(5, 6) = 2.  K6,6 is left at 3 or 4.
    res = z2_embeddable_orientable(complete_bipartite(m, n), 2)
    assert res.status == "no"


@pytest.mark.parametrize(
    "solve",
    [
        lambda g, budget: z2_embeddable_euler(g, 0, budget).status,
        lambda g, budget: z2_genus(g, "orientable", 2, budget).status,
    ],
    ids=["euler", "genus"],
)
def test_one_deadline_for_all_searches_of_a_call(monkeypatch, solve):
    # The clock stands still through the first search and then jumps past
    # the deadline: the next search must stop at its first deadline test.
    clock = [0.0]
    runs = []

    def timed_search(*args):
        runs.append(search(*args))
        clock[0] += 10.0
        return runs[-1]

    search = solver._search
    monkeypatch.setattr(solver, "time", SimpleNamespace(monotonic=lambda: clock[0]))
    monkeypatch.setattr(solver, "_search", timed_search)
    # K3,7: S0 is "no" (1 node), S1 is "no" (65,381 nodes) and N2 is "no"
    # (287,999 nodes), so the second search outlasts a deadline test.
    assert solve(complete_bipartite(3, 7), SolverBudget(time_cap=5.0)) == "unknown"
    assert runs[-1] == ("unknown", None, 4096)
    assert runs[0][0] == "no"


@pytest.mark.parametrize(
    "solve",
    [
        lambda g, budget: z2_embeddable_euler(g, 0, budget).status,
        lambda g, budget: z2_genus(g, "orientable", 2, budget).status,
    ],
    ids=["euler", "genus"],
)
@pytest.mark.parametrize("max_nodes", [1_000, 70_000])
def test_one_node_budget_for_all_searches_of_a_call(monkeypatch, solve, max_nodes):
    # K3,7: S0 is "no" (1 node), S1 is "no" (65,381 nodes), and neither N2
    # nor S2 ends within 70,000 nodes.  The call spends max_nodes + 1 nodes
    # over all its searches, and no search starts once they are spent.
    runs = []
    search = solver._search
    monkeypatch.setattr(solver, "_search", lambda *args: runs.append(search(*args)) or runs[-1])
    assert solve(complete_bipartite(3, 7), SolverBudget(max_nodes=max_nodes)) == "unknown"
    assert runs[-1][0] == "unknown"
    assert all(run[0] == "no" for run in runs[:-1])
    assert sum(run[2] for run in runs) == max_nodes + 1


def test_one_layout_of_the_checks_for_all_searches_of_a_call(monkeypatch):
    layouts = []
    layout = solver._layout_checks
    monkeypatch.setattr(solver, "_layout_checks", lambda *args: layouts.append(args) or layout(*args))
    # K3,3: S0 is "no", S1 is "yes"; K5 at Euler characteristic 1: S0 "no", N1 "yes"
    assert z2_genus(complete_bipartite(3, 3), "orientable").value == 1
    assert z2_embeddable_euler(complete_graph(5), 1).status == "yes"
    assert len(layouts) == 2


def test_one_budget_object_serves_two_calls():
    # The call's state lives on the call, never on the caller's budget.
    budget = SolverBudget(max_nodes=40_000)
    first = z2_embeddable_orientable(complete_graph(8), 1, budget)
    second = z2_embeddable_orientable(complete_graph(8), 1, budget)
    assert (first.status, first.nodes) == (second.status, second.nodes) == ("no", 36_259)
    assert budget == SolverBudget(40_000)


def test_euler_counts_both_searches_on_yes():
    # K5 at Euler characteristic 1: S0 is "no" in 1 node, N1 "yes" in 28.
    g = complete_graph(5)
    even = z2_embeddable_orientable(g, 0)
    odd = z2_embeddable_nonorientable(g, 1)
    assert (even.status, odd.status) == ("no", "yes")
    res = z2_embeddable_euler(g, 1)
    assert res.status == "yes"
    assert res.nodes == even.nodes + odd.nodes == 29
    assert verify_z2(res.witness.surface_drawing).is_embedding


def test_node_budget_must_be_an_int():
    with pytest.raises(ValueError, match="max_nodes must be an integer"):
        SolverBudget(max_nodes=1e6)
    # bool is an int: True would be a one-node budget, a one-second cap
    for flag in (True, False):
        with pytest.raises(ValueError, match="max_nodes must be an integer"):
            SolverBudget(max_nodes=flag)
        with pytest.raises(ValueError, match="time_cap must be positive"):
            SolverBudget(time_cap=flag)


def test_a_time_cap_that_is_no_real_number_is_refused():
    for cap in ("5", [1], 1 + 0j, float("nan"), 0, -1.5):
        with pytest.raises(ValueError, match="^time_cap must be positive$"):
            SolverBudget(time_cap=cap)
    assert SolverBudget(time_cap=Fraction(1, 2)).time_cap == Fraction(1, 2)


def test_any_positive_int_node_budget():
    # The row bound of the search is clamped below islice's limit.
    res = z2_embeddable_orientable(complete_graph(5), 1, SolverBudget(max_nodes=10**20))
    assert res.status == "yes"
    huge = SolverBudget(max_nodes=sys.maxsize + 1)
    assert z2_embeddable_orientable(complete_bipartite(3, 7), 1, huge).status == "no"


def test_high_genus_setup_stays_small():
    # d = 12: neither a 4^d form table nor an orbit scan over 6!*2^6
    # symmetries is built before the first node
    path = Graph(3, [(0, 1), (1, 2)])
    res = z2_embeddable_orientable(path, 6)
    assert res.status == "yes"
    assert verify_z2(res.witness.surface_drawing).is_embedding
    assert verify_geometric(res.witness.surface_drawing, "z2").is_embedding


def _set_edge_order(g, checks, pairs):
    """The edge order as first written, with a set per check recounted for
    every candidate edge at every step."""
    m = g.edge_count
    remaining = list(range(m))
    order = []
    placed = set()
    check_edges = []
    for support, _ in checks:
        edges = set()
        for k in support:
            edges.update(pairs[k])
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


def _check_edges(checks, pairs):
    """The edges each check of (pair indices, right-hand side) involves."""
    return [{e for k in support for e in pairs[k]} for support, _ in checks]


def _random_graphs(rng, count, sizes):
    for _ in range(count):
        n = rng.randrange(*sizes)
        possible = list(itertools.combinations(range(n), 2))
        rng.shuffle(possible)
        yield Graph(n, sorted(possible[: rng.randrange(n, min(len(possible), 3 * n) + 1)]))


def test_edge_order_matches_the_set_based_order():
    rng = random.Random(44)
    for g in [complete_graph(8), complete_bipartite(3, 7)] + list(_random_graphs(rng, 20, (4, 10))):
        pairs = g.pairs
        checks = [([k for k in range(len(pairs)) if (z >> k) & 1], 0) for z in _nullspace(finger_move_generators(g), len(pairs))]
        assert _edge_order(g.edge_count, _check_edges(checks, pairs)) == _set_edge_order(g, checks, pairs), g.edges
        # random supports tie more often than real checks do
        fake = [(rng.sample(range(len(pairs)), rng.randrange(1, 4)), 0) for _ in range(rng.randrange(len(pairs) + 1))]
        assert _edge_order(g.edge_count, _check_edges(fake, pairs)) == _set_edge_order(g, fake, pairs), g.edges


def test_set_bits_matches_the_string_scan():
    rng = random.Random(45)
    values = [0, 1, 2, 1 << 209, (1 << 210) - 1]
    values += [rng.getrandbits(rng.randrange(1, 211)) for _ in range(300)]
    values += [sum(1 << rng.randrange(210) for _ in range(rng.randrange(1, 8))) for _ in range(300)]
    for v in values:
        assert _set_bits(v) == [b for b, c in enumerate(bin(v)[:1:-1]) if c == "1"]


def test_checks_fire_as_early_as_any_check_can():
    """The checks firing at or before position t (t = -1: those on forest
    pairs alone) are as many as the checks on the first t + 1 free edges,
    len(pairs) - rank(generators + the pairs deeper than t); each check
    fires at the deepest position whose links hold it."""
    rng = random.Random(45)
    for g in [complete_graph(8), complete_bipartite(4, 5)] + list(_random_graphs(rng, 20, (4, 10))):
        pairs, gens = g.pairs, finger_move_generators(g)
        checks = solver._layout_checks(g, CompatibilityClass.compute(g).base)
        pos = {e: t for t, e in enumerate(checks.free)}
        depth = [max(pos[i], pos[j]) if i in pos and j in pos else -1 for i, j in pairs]
        total = len(pairs) - rank_gf2(BitMatrix(len(gens), len(pairs), gens))
        later = sum(mask.bit_count() for mask in checks.fire_mask)
        for t in range(-1, len(checks.free)):
            deeper = [1 << k for k in range(len(pairs)) if depth[k] > t]
            span = rank_gf2(BitMatrix(len(gens) + len(deeper), len(pairs), gens + deeper))
            assert total - later == len(pairs) - span, (g.edges, t)
            if t + 1 < len(checks.free):
                later -= checks.fire_mask[t + 1].bit_count()
        held = 0
        for t in reversed(range(len(checks.free))):
            here = 0
            for _, mask in checks.links[t]:
                here |= mask
            assert checks.fire_mask[t] == here & ~held, (g.edges, t)
            held |= here


def _setup_graphs(rng, count):
    """Random graphs of 4-9 vertices, in turn: at least n edges, a forest,
    two parts of two or more vertices with no edge between them, and a
    star or a triangle (no independent pair), each relabelled at random."""
    for r in range(count):
        n = rng.randrange(4, 10)
        possible = list(itertools.combinations(range(n), 2))
        rng.shuffle(possible)
        kind = r % 4
        if kind == 0:
            edges = possible[: rng.randrange(n, min(len(possible), 3 * n) + 1)]
        elif kind == 1:
            edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
        elif kind == 2:
            k = rng.randrange(2, n - 1)
            edges = [(u, v) for u, v in possible if (u < k) == (v < k)]
            edges = edges[: rng.randrange(len(edges) + 1)]
        elif rng.random() < 0.5:
            edges = [(0, v) for v in range(1, n) if rng.random() < 0.7]
        else:
            edges = [(0, 1), (1, 2), (0, 2)][: rng.randrange(4)]
        p = list(range(n))
        rng.shuffle(p)
        yield Graph(n, [(p[u], p[v]) for u, v in edges])


def _echelon_over(basis, coords):
    """The basis of span(basis) in echelon form over the order coords, by
    plain elimination and back-substitution: each vector owns its last
    coordinate in that order and no other vector holds an owned one; the
    vectors in the order of their own coordinates."""
    rank = {k: r for r, k in enumerate(coords)}
    rows = {}  # own position in coords -> row, bit r standing for coords[r]
    for z in basis:
        x = sum(1 << rank[k] for k in range(z.bit_length()) if (z >> k) & 1)
        while x and x.bit_length() - 1 in rows:
            x ^= rows[x.bit_length() - 1]
        if x:
            rows[x.bit_length() - 1] = x
    for top in sorted(rows):
        for other in rows:
            if other != top and (rows[other] >> top) & 1:
                rows[other] ^= rows[top]
    return [sum(1 << coords[r] for r in range(rows[t].bit_length()) if (rows[t] >> r) & 1) for t in sorted(rows)]


def _reference_checks(g):
    """The layout of the checks built from the nullspace of the transposed
    generators, the set-based edge order and pair lists: reduced basis,
    edge order, Kruskal forest by component labels, echelon basis by
    depth, then each check walked over its pairs in that order."""
    cls = CompatibilityClass.compute(g)
    pairs = g.pairs
    reduced = _nullspace(finger_move_generators(g), len(pairs))
    order = _set_edge_order(g, [([k for k in range(len(pairs)) if (z >> k) & 1], 0) for z in reduced], pairs)
    comp = list(range(g.vertex_count))
    forest = set()
    for e in order:
        a, b = (comp[u] for u in g.edges[e])
        if a != b:
            forest.add(e)
            comp = [a if c == b else c for c in comp]
    free = [e for e in order if e not in forest]
    pos = {e: t for t, e in enumerate(free)}
    depth = [-1 if i in forest or j in forest else max(pos[i], pos[j]) for i, j in pairs]
    coords = sorted(range(len(pairs)), key=depth.__getitem__)
    fire_mask = [0] * len(free)
    rhs_mask = 0
    forest_fails = False
    links = [{} for _ in free]
    for c, z in enumerate(_echelon_over(reduced, coords)):
        support = [k for k in coords if (z >> k) & 1]
        rhs = sum((cls.base >> k) & 1 for k in support) % 2
        for k in support:
            if depth[k] >= 0:
                j = min(pairs[k], key=pos.__getitem__)
                links[depth[k]][j] = links[depth[k]].get(j, 0) ^ (1 << c)
        t = max(depth[k] for k in support)
        if t < 0:
            forest_fails |= rhs == 1
        else:
            fire_mask[t] |= 1 << c
            rhs_mask |= rhs << c
    return solver._Checks(forest_fails, free, fire_mask, rhs_mask, [list(row.items()) for row in links])


def _affine_checks(g, checks):
    """For each position t, the checks firing at or before t, each as the
    mask over g.pairs of its non-forest pairs, rebuilt from links, with its
    right-hand side as bit len(g.pairs)."""
    index = {frozenset(pair): k for k, pair in enumerate(g.pairs)}
    support = {}
    for t, row in enumerate(checks.links):
        for j, held in row:
            k = index[frozenset((checks.free[t], j))]
            for c in _set_bits(held):
                support[c] = support.get(c, 0) ^ 1 << k
    firing, out = [], []
    for fires in checks.fire_mask:
        firing += [support[c] | (checks.rhs_mask >> c & 1) << len(g.pairs) for c in _set_bits(fires)]
        out.append(list(firing))
    return out


def _same_span(a, b, width):
    rank = [rank_gf2(BitMatrix(len(rows), width, rows)) for rows in (a, b, a + b)]
    return rank[0] == rank[1] == rank[2]


def test_setup_matches_the_transposed_generators_reference():
    """The packed set-up against per-label, per-pair and per-check
    references: the finger-move generators and their pair columns bit for
    bit, and laid-out checks that prune as the reference's do: the same
    free edges and forest test, and at every position the same affine
    space of checks firing by then."""
    rng = random.Random(46)
    for g in _setup_graphs(rng, 320):
        pairs = g.pairs
        labels = finger_move_labels(g)
        gens = finger_move_generators(g)
        brute = [
            sum(1 << k for k, (i, j) in enumerate(pairs) if e in (i, j) and v in g.edges[i + j - e])
            for e, v in labels
        ]
        assert gens == brute, g.edges
        # the rows are the labels numbered vertex-major and descending
        n, m = g.vertex_count, g.edge_count
        by_row = [0] * (n * m)
        for (e, v), gen in zip(labels, gens):
            by_row[n * m - 1 - (v * m + e)] = gen
        assert finger_move_columns(g) == BitMatrix(n * m, len(pairs), by_row).transpose().data, g.edges
        checks, ref = _Call(g).checks, _reference_checks(g)
        assert (checks.free, checks.forest_fails) == (ref.free, ref.forest_fails), g.edges
        for t, (a, b) in enumerate(zip(_affine_checks(g, checks), _affine_checks(g, ref))):
            assert _same_span(a, b, len(pairs) + 1), (g.edges, t)


def test_a_search_with_the_reference_checks_is_the_same_search():
    # Any layout whose checks span the same affine space at each position
    # passes the same candidates: answers, assignments and nodes agree.
    rng = random.Random(48)
    surfaces = [SurfaceSpec("S", h) for h in range(4)] + [SurfaceSpec("M", m) for m in range(1, 5)]
    seen = set()
    for g in _random_graphs(rng, 60, (5, 10)):
        call, ref = _Call(g, SolverBudget(max_nodes=5_000)), _Call(g, SolverBudget(max_nodes=5_000))
        ref.checks = _reference_checks(g)
        for spec in surfaces:
            result = _search(g, spec, call)
            assert _search(g, spec, ref) == result, (g.edges, spec)
            seen.add(result[0])
    assert seen == {"yes", "no", "unknown"}


def test_the_row_order_of_the_pair_columns_changes_no_layout(monkeypatch):
    # The rows of finger_move_columns are numbered only to eliminate fast:
    # any numbering of them lays out the same checks.
    rng = random.Random(47)
    graphs = list(_setup_graphs(rng, 120)) + [complete_graph(8), complete_bipartite(5, 5)]
    expected = [_Call(g).checks for g in graphs]
    for g, checks in zip(graphs, expected):
        perm = list(range(g.vertex_count * g.edge_count))
        rng.shuffle(perm)
        shuffled = [sum(1 << perm[r] for r in _set_bits(col)) for col in finger_move_columns(g)]
        monkeypatch.setattr(solver, "finger_move_columns", lambda _: shuffled)
        assert _Call(g).checks == checks, g.edges


def test_node_counts_of_the_six_no_cases():
    # Standard labelling, 300,000-node budget: every answer is no, in the
    # nodes the checks in echelon form by depth give.
    cases = [
        (complete_bipartite(3, 7), SurfaceSpec("S", 1), 65_381),
        (complete_graph(8), SurfaceSpec("S", 1), 36_259),
        (complete_bipartite(5, 5), SurfaceSpec("S", 1), 1_897),
        (complete_graph(7), SurfaceSpec("M", 1), 162),
        (complete_bipartite(4, 4), SurfaceSpec("M", 1), 74),
        (complete_bipartite(3, 5), SurfaceSpec("M", 1), 198),
    ]
    for g, spec, nodes in cases:
        assert _search(g, spec, _Call(g, SolverBudget(max_nodes=300_000))) == ("no", None, nodes), spec


def test_a_row_made_again_on_every_pass_searches_as_a_row_kept_whole(monkeypatch):
    # With _ROW_BITS at 5 a row is kept only when its set bits, plus one
    # per candidate, are at most 5; every longer row is made again, whole,
    # on each pass.  Yes, no and unknown answers keep their assignments and
    # node counts.
    cases = [
        (complete_graph(5), SurfaceSpec("S", 1)),
        (complete_bipartite(5, 5), SurfaceSpec("S", 1)),
        (complete_graph(6), SurfaceSpec("M", 1)),
        (complete_graph(7), SurfaceSpec("M", 2)),
        (complete_bipartite(4, 4), SurfaceSpec("M", 3)),
        (complete_graph(7), SurfaceSpec("M", 3)),
        (complete_bipartite(3, 5), SurfaceSpec("M", 4)),
        (complete_graph(7), SurfaceSpec("S", 2)),
        (complete_bipartite(3, 7), SurfaceSpec("S", 2)),
        (complete_graph(8), SurfaceSpec("S", 7)),
        (complete_graph(9), SurfaceSpec("M", 14)),
    ]
    budget = SolverBudget(max_nodes=20_000)
    whole = [_search(g, spec, _Call(g, budget)) for g, spec in cases]
    assert {status for status, _, _ in whole} == {"yes", "no", "unknown"}
    assert [(status, nodes) for status, _, nodes in whole[-2:]] == [("unknown", 20_001)] * 2
    monkeypatch.setattr(solver, "_ROW_BITS", 5)
    assert [_search(g, spec, _Call(g, budget)) for g, spec in cases] == whole


@pytest.mark.parametrize("genus", [10, 20])
def test_embeddings_into_large_orientable_genus_keep_their_nodes(genus):
    # S_g runs through the rows that M_m uses, with no unit bits (d = 2g).
    for g, nodes in [
        (complete_graph(5), 103),
        (complete_graph(6), 147),
        (complete_graph(7), 323),
        (complete_bipartite(4, 4), 45),
    ]:
        res = z2_embeddable_orientable(g, genus)
        assert (res.status, res.nodes) == ("yes", nodes)
        sd = res.witness.surface_drawing
        assert verify_z2(sd).is_embedding
        assert verify_geometric(sd, "z2").is_embedding


def test_a_search_holds_the_same_memory_at_any_node_budget(monkeypatch):
    # K5 on M20, witness included: a row once held all 2^20 vectors here,
    # which kept whole took 18.7 MB under this budget (about 470 B a
    # candidate) and about 2.4 GB under the default budget.  With _ROW_BITS
    # at 5 every longer row is made again on each pass, to the same answer.
    g = complete_graph(5)
    for row_bits in (solver._ROW_BITS, 5):
        monkeypatch.setattr(solver, "_ROW_BITS", row_bits)
        tracemalloc.start()
        try:
            res = z2_embeddable_nonorientable(g, 20, SolverBudget(max_nodes=50_000))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (res.status, res.nodes) == ("yes", 2_136), row_bits
        assert peak < 6 << 20, row_bits


_GATE_GRAPHS = {
    "K5": complete_graph(5),
    "K6": complete_graph(6),
    "K3,3": complete_bipartite(3, 3),
    "K4,4": complete_bipartite(4, 4),
    "K3,5": complete_bipartite(3, 5),
}


@pytest.mark.parametrize(
    "name, crosscaps",
    [("K5", m) for m in range(7, 21)]
    + [("K6", m) for m in range(9, 13)]
    + [(name, m) for name in ("K3,3", "K4,4") for m in range(10, 13)]
    + [("K3,5", m) for m in range(5, 13)],
)
def test_embeddings_into_many_crosscaps_are_found_under_the_default_budget(name, crosscaps):
    # With every vector a candidate past the first free edge, K5 on M7 and
    # K3,5 on M5 ran out of 2,000,000 nodes, and K6 on M9 took 526,351.
    res = z2_embeddable_nonorientable(_GATE_GRAPHS[name], crosscaps)
    assert res.status == "yes"
    sd = res.witness.surface_drawing
    assert verify_z2(sd).is_embedding
    assert verify_geometric(sd, "z2").is_embedding


def test_nonorientable_no_cases_keep_their_answers():
    # On M2 the search basis is the ribbons' own, so K7 keeps its nodes.
    cases = [(complete_graph(7), 2, 54_911), (complete_bipartite(5, 5), 3, 489_404)]
    for g, m, nodes in cases:
        assert _search(g, SurfaceSpec("M", m), _Call(g)) == ("no", None, nodes), m


def test_nullspace_oracle():
    rng = random.Random(40)
    for _ in range(50):
        nbits = rng.randrange(1, 10)
        vecs = [rng.getrandbits(nbits) for _ in range(rng.randrange(0, 6))]
        basis = _nullspace(vecs, nbits)
        # every basis element orthogonal to every input vector
        for z in basis:
            for v in vecs:
                assert bin(z & v).count("1") % 2 == 0
        # dimension check against the rank
        rank = 0
        rows = []
        for v in vecs:
            for r in rows:
                v = min(v, v ^ r)
            if v:
                rows.append(v)
                rank += 1
        assert len(basis) == nbits - rank


def test_planar_graphs_at_genus_zero():
    for g in (complete_graph(4), complete_bipartite(2, 3), Graph(3, [(0, 1), (1, 2)])):
        res = z2_embeddable_orientable(g, 0)
        assert res.status == "yes"
        assert verify_z2(res.witness.surface_drawing).is_embedding


def test_k5_genus_zero_no_genus_one_yes():
    g = complete_graph(5)
    assert z2_embeddable_orientable(g, 0).status == "no"
    res = z2_embeddable_orientable(g, 1)
    assert res.status == "yes"
    w = res.witness
    assert rank_gf2(w.matrix) <= 2
    assert w.matrix.is_even()
    assert verify_z2(w.surface_drawing).is_embedding
    assert verify_geometric(w.surface_drawing, "z2").is_embedding


def test_k33_projective_plane():
    g = complete_bipartite(3, 3)
    assert z2_embeddable_orientable(g, 0).status == "no"
    res = z2_embeddable_nonorientable(g, 1)
    assert res.status == "yes"
    assert not res.witness.matrix.is_even()
    assert rank_gf2(res.witness.matrix) <= 1
    assert verify_geometric(res.witness.surface_drawing, "z2").is_embedding


def test_k5_projective_plane():
    res = z2_embeddable_nonorientable(complete_graph(5), 1)
    assert res.status == "yes"
    assert verify_z2(res.witness.surface_drawing).is_embedding


def test_planar_nonorientable_flip():
    res = z2_embeddable_nonorientable(complete_graph(4), 1)
    assert res.status == "yes"
    assert not res.witness.matrix.is_even()


def test_euler_variants():
    assert z2_embeddable_euler(complete_graph(4), 2).status == "yes"
    assert z2_embeddable_euler(complete_graph(5), 2).status == "no"
    assert z2_embeddable_euler(complete_graph(5), 0).status == "yes"
    assert z2_embeddable_euler(complete_bipartite(3, 3), 1).status == "yes"


@pytest.mark.parametrize(
    "g, e, status",
    [
        (complete_graph(5), -1, "yes"),
        (complete_bipartite(3, 3), -1, "yes"),
        (complete_graph(7), -1, "yes"),
        (complete_graph(7), 1, "no"),
    ],
)
def test_odd_euler_witness_surface_and_status(g, e, status):
    # For odd e the orientable search runs on S_{(1-e)/2}, of Euler
    # characteristic e + 1: a yes from it carries its witness there.  The
    # status is that of the M_{2-e} search alone.
    res = z2_embeddable_euler(g, e)
    assert res.status == status == z2_embeddable_nonorientable(g, 2 - e).status
    if status == "yes":
        assert res.witness.surface_drawing.surface == SurfaceSpec("S", (1 - e) // 2)


def test_z2_genus_refuses_a_maximum_below_the_first_surface():
    # The scan would try no surface and return a "none" that claims nothing.
    with pytest.raises(ValueError, match="maximum must be at least 0 for orientable surfaces"):
        z2_genus(complete_graph(4), "orientable", -1)
    with pytest.raises(ValueError, match="maximum must be at least 1 for nonorientable surfaces"):
        z2_genus(complete_graph(4), "nonorientable", 0)
    assert z2_genus(complete_graph(4), "orientable", 0).value == 0
    assert z2_genus(complete_graph(5), "nonorientable", 1).value == 1


def test_sizes_that_are_no_integers_are_refused():
    # bool is an int, but True is no genus; a float would reach the solver
    k5 = complete_graph(5)
    for genus in (True, 1.0):
        with pytest.raises(SurfaceError, match="^genus must be an integer$"):
            z2_embeddable_orientable(k5, genus)
        with pytest.raises(SurfaceError, match="^genus must be an integer$"):
            z2_embeddable_nonorientable(k5, genus)
    for maximum in (True, 1.5, "2"):
        with pytest.raises(ValueError, match="^maximum must be an integer$"):
            z2_genus(k5, "orientable", maximum)


def test_z2_genus_values():
    assert z2_genus(complete_graph(4), "orientable").value == 0
    assert z2_genus(complete_graph(5), "orientable").value == 1
    assert z2_genus(complete_bipartite(3, 3), "orientable").value == 1
    assert z2_genus(complete_graph(5), "nonorientable").value == 1


def test_budget_exhaustion_is_unknown():
    g = complete_bipartite(3, 4)
    res = z2_embeddable_orientable(g, 1, SolverBudget(max_nodes=3))
    assert res.status == "unknown"
    assert res.witness is None


def test_monotonicity():
    g = complete_graph(5)
    assert z2_embeddable_orientable(g, 2).status == "yes"
    assert z2_embeddable_nonorientable(g, 2).status == "yes"


def test_genus_zero_matches_compatibility_exhaustively():
    # no at genus 0 agrees with the zero-target compatibility test
    from surfembed.drawing import ParityMatrix, is_compatible_mod2
    from surfembed.gf2 import BitMatrix
    import itertools

    rng = random.Random(41)
    for trial in range(30):
        n = rng.randrange(2, 6)
        possible = list(itertools.combinations(range(n), 2))
        rng.shuffle(possible)
        edges = possible[: rng.randrange(1, min(len(possible), 9) + 1)]
        g = Graph(n, sorted(edges))
        res = z2_embeddable_orientable(g, 0)
        m = g.edge_count
        compat = is_compatible_mod2(g, ParityMatrix(g, BitMatrix(m, m)))
        assert (res.status == "yes") == (compat is not None)


def test_kmn_lower_bound_values():
    assert kmn_lower_bound(3, 3) == 1
    assert kmn_lower_bound(3, 4) == 1
    assert kmn_lower_bound(4, 4) == 1
    assert kmn_lower_bound(5, 5) == 2
    assert kmn_lower_bound(6, 6) == 3
    assert kmn_lower_bound(1, 11) == 0  # formula negative, clamped
    with pytest.raises(ValueError):
        kmn_lower_bound(0, 3)


def test_the_euler_characteristic_and_the_bounds_refuse_what_is_no_integer():
    # bool is an int: True would run as e = 1, and kmn_lower_bound(True, 5)
    # gave 0; a float part size gave the float 1.0.
    g = complete_graph(5)
    for bad in (True, 1.0, "1"):
        with pytest.raises(ValueError, match="^Euler characteristic must be an integer$"):
            z2_embeddable_euler(g, bad)
        with pytest.raises(ValueError, match="^n must be an integer$"):
            k2n_lower_bound(bad)
        for parts in ((bad, 5), (5, bad)):
            with pytest.raises(ValueError, match="^part sizes must be integers$"):
                kmn_lower_bound(*parts)
    for m, n in ((3.5, 5), (4.5, 3)):
        with pytest.raises(ValueError, match="^part sizes must be integers$"):
            kmn_lower_bound(m, n)
    with pytest.raises(ValueError, match="^n must be an integer$"):
        k2n_lower_bound(4.5)


def test_k2n_lower_bound_values():
    assert k2n_lower_bound(3) == 0
    assert k2n_lower_bound(4) == 1
    assert k2n_lower_bound(5) == 1
    assert k2n_lower_bound(6) == 3


def test_bounds_take_either_order_and_never_exceed_a_decided_genus():
    # K1,n, K2,n, K2 and K4 are planar: the bounds hold below the range of
    # their formulas too, and K_{m,n} is K_{n,m}.
    for m in range(1, 5):
        for n in range(m, 6):
            bound = kmn_lower_bound(m, n)
            assert kmn_lower_bound(n, m) == bound
            found = z2_genus(complete_bipartite(m, n), "orientable")
            assert found.status == "found" and bound <= found.value
    for n in range(1, 4):
        found = z2_genus(complete_graph(2 * n), "orientable")
        assert found.status == "found" and k2n_lower_bound(n) <= found.value


def test_a_witness_that_fails_verification_raises_realization_error(monkeypatch):
    def crossing(sd):
        return VerifyReport("z2", {(0, 1): 1})

    monkeypatch.setattr(solver, "verify_z2", crossing)
    with pytest.raises(RealizationError, match="witness failed verification"):
        z2_embeddable_orientable(complete_graph(5), 1)


def test_bound_consistency_with_genus():
    for m, n in [(3, 3), (3, 4)]:
        g = complete_bipartite(m, n)
        found = z2_genus(g, "orientable", maximum=3)
        assert found.status == "found"
        assert found.value >= kmn_lower_bound(m, n)


def test_witness_matrix_matches_drawing_parities():
    res = z2_embeddable_orientable(complete_graph(5), 1)
    w = res.witness
    from surfembed.drawing import crossing_parity_matrix

    pm = crossing_parity_matrix(w.surface_drawing.core)
    for i, j in independent_pairs(complete_graph(5)):
        assert pm.get(i, j) == w.matrix.get(i, j)
