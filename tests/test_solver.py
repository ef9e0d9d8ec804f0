import itertools
import random
from types import SimpleNamespace

import pytest

from surfembed import solver
from surfembed.gf2 import rank_gf2
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
from surfembed.drawing import CompatibilityClass
from surfembed.solver import _canonical_reps, _dual, _edge_order, _nullspace, _search
from surfembed.surface import verify_z2


def _brute_form(kind, a, b):
    """The form coordinate by coordinate: handles (2h, 2h+1) for "H"."""
    d = max(a.bit_length(), b.bit_length()) + 1
    if kind == "I":
        return sum((a >> k) & (b >> k) & 1 for k in range(d)) & 1
    return sum(
        ((a >> 2 * h) & (b >> (2 * h + 1)) & 1) ^ ((a >> (2 * h + 1)) & (b >> 2 * h) & 1)
        for h in range(d)
    ) & 1


def _brute_reps(kind, d):
    """Vectors that no coordinate symmetry of the form makes smaller."""
    if kind == "H":
        perms = []
        for handles in itertools.permutations(range(d // 2)):
            for swaps in itertools.product((0, 1), repeat=d // 2):
                perm = []
                for h, s in zip(handles, swaps):
                    perm += [2 * h + s, 2 * h + 1 - s]
                perms.append(perm)
    else:
        perms = list(itertools.permutations(range(d)))

    def image(perm, v):
        return sum(1 << perm[i] for i in range(d) if (v >> i) & 1)

    return [v for v in range(1 << d) if all(image(p, v) >= v for p in perms)]


class _Exhausted(Exception):
    pass


def _reference_search(g, kind, d, max_nodes):
    """The solver's DFS as it was before the bitset checks: each candidate
    re-sums, from a table of form values, every check firing at its
    position.  Same checks, order, domains and node count."""
    m = g.edge_count
    pairs = independent_pairs(g)
    cls = CompatibilityClass.compute(g)
    base = cls.base.pair_vector(pairs)
    checks = []
    for z in _nullspace(cls.generators, len(pairs)):
        support = [k for k in range(len(pairs)) if (z >> k) & 1]
        checks.append((support, (z & base).bit_count() & 1))
    if d == 0:
        return ("yes", [0] * m, 1) if all(rhs == 0 for _, rhs in checks) else ("no", None, 1)
    order = _edge_order(g, checks, pairs)
    pos = {e: t for t, e in enumerate(order)}
    table = [[_brute_form(kind, a, b) for b in range(1 << d)] for a in range(1 << d)]
    reps = _brute_reps(kind, d)
    fire = [[] for _ in range(m)]
    for support, rhs in checks:
        terms = [(pairs[k].i, pairs[k].j) for k in support]
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
    for kind, dims in (("I", range(7)), ("H", range(0, 7, 2))):
        for d in dims:
            assert _canonical_reps(kind, d) == _brute_reps(kind, d), (kind, d)
            for a in range(1 << min(d, 4)):
                for b in range(1 << min(d, 4)):
                    assert (a & _dual(kind, d, b)).bit_count() & 1 == _brute_form(kind, a, b)


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
        for kind, d in (("H", 0), ("H", 2), ("H", 4), ("I", 1), ("I", 2), ("I", 3)):
            cases.append((g, kind, d, rng.choice((30, 300, 3000))))
    # The reference exhausts 3000 nodes on these; the search decides them.
    cases += [(complete_bipartite(3, 5), "I", 1, 3000), (complete_bipartite(4, 4), "I", 1, 3000)]
    seen = set()
    confirmed = 0
    for g, kind, d, max_nodes in cases:
        cls = CompatibilityClass.compute(g)
        status, assign, nodes = _search(g, kind, d, SolverBudget(max_nodes=max_nodes), cls)
        ref = _reference_search(g, kind, d, max_nodes)
        assert nodes <= ref[2], (g.edges, kind, d)
        if status == "unknown":
            assert nodes == max_nodes + 1 and ref[0] == "unknown"
        else:
            if ref[0] == "unknown":
                ref = _reference_search(g, kind, d, 100 * max_nodes)
                confirmed += 1
            assert (status, assign) == ref[:2], (g.edges, kind, d)
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


@pytest.mark.parametrize("m, n", [(3, 7), (5, 5)])
def test_kmn_torus_no_within_300k_nodes(m, n):
    assert kmn_lower_bound(m, n) == 2
    base = complete_bipartite(m, n)
    rng = random.Random(m * 10 + n)
    for g in [base] + [_relabelled(base, rng) for _ in range(3)]:
        res = z2_embeddable_orientable(g, 1, SolverBudget(max_nodes=300_000))
        assert res.status == "no", g.edges


def test_k8_torus_no_within_default_budget():
    # The Z2-genus of K8 is its genus 2 (Fulek-Pelsmajer-Schaefer).
    assert z2_embeddable_orientable(complete_graph(8), 1).status == "no"


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
    # K4,5: S0 and S1 are "no" (9,983 nodes), N2 is "no" (8,191), S2 is "yes".
    assert solve(complete_bipartite(4, 5), SolverBudget(time_cap=5.0)) == "unknown"
    assert runs[-1] == ("unknown", None, 4096)
    assert runs[0][0] == "no"


def test_shared_class_must_match_the_graph():
    with pytest.raises(ValueError):
        z2_embeddable_orientable(complete_graph(4), 1, compat=CompatibilityClass.compute(complete_graph(5)))


def test_high_genus_setup_stays_small():
    # d = 12: neither a 4^d form table nor an orbit scan over 6!*2^6
    # symmetries is built before the first node
    path = Graph(3, [(0, 1), (1, 2)])
    res = z2_embeddable_orientable(path, 6)
    assert res.status == "yes"
    assert verify_z2(res.witness.surface_drawing).is_embedding
    assert verify_geometric(res.witness.surface_drawing, "z2").is_embedding


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
        assert res.witness.report.is_embedding


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


def test_k2n_lower_bound_values():
    assert k2n_lower_bound(3) == 0
    assert k2n_lower_bound(4) == 1
    assert k2n_lower_bound(5) == 1
    assert k2n_lower_bound(6) == 3


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

    pm = crossing_parity_matrix(w.drawing)
    for pr in independent_pairs(complete_graph(5)):
        assert pm.get(pr.i, pr.j) == w.matrix.get(pr.i, pr.j)
