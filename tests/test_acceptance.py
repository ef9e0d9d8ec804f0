"""Acceptance suite: property-based checks and quantitative facts.

Each test states its instance count and time cap inline.  Oracles are
independent of the code under test: factorizations are checked by exact
matrix reconstruction, planarity by brute-force forbidden-minor search,
realizability by recomputing crossing data from coordinates.
"""

import itertools
import random
import time

import pytest

from surfembed.drawing import (
    CompatibilityClass,
    ParityMatrix,
    apply_finger_move,
    convex_drawing,
    crossing_parity_matrix,
    finger_move_labels,
    is_compatible_mod2,
    realize_parity,
    signed_crossing_matrix,
)
from surfembed.gf2 import (
    BitMatrix,
    factor_even,
    factor_odd,
    hyperbolic_matrix_gf2,
    rank_gf2,
)
from surfembed.graph import Graph, complete_bipartite, complete_graph, independent_pairs
from surfembed.intmat import IntMatrix, factor_alternating, rank_q, symplectic_matrix_int
from surfembed.layout import verify_geometric
from surfembed.solver import k2n_lower_bound, kmn_lower_bound, z2_genus
from surfembed.surface import (
    SurfaceDrawing,
    SurfaceSpec,
    construct_z_embedding,
    extract_matrix,
    verify_z,
    verify_z2,
)


def _random_bitmatrix(rng, rows, cols):
    m = BitMatrix(rows, cols)
    for i in range(rows):
        m.data[i] = rng.getrandbits(cols) if cols else 0
    return m


def test_even_factorization_500():
    # 500 even symmetric matrices (n <= 40) built as Y^T H Y; factor_even
    # must return a factor with exactly rank(A) rows (an even number)
    # reconstructing A bit-exactly.  Cap: 10 s.
    rng = random.Random(101)
    t0 = time.monotonic()
    for _ in range(500):
        n = rng.randrange(1, 41)
        g = rng.randrange(1, 7)
        y = _random_bitmatrix(rng, 2 * g, n)
        h = hyperbolic_matrix_gf2(g)
        a = y.transpose() @ (h @ y)
        assert a.is_symmetric() and a.is_even()
        yp = factor_even(a)
        r = yp.rows
        assert r == rank_gf2(a)
        assert r % 2 == 0
        hp = hyperbolic_matrix_gf2(r // 2)
        assert yp.transpose() @ (hp @ yp) == a
    assert time.monotonic() - t0 < 10


def test_odd_factorization_500():
    # 500 odd symmetric matrices (n <= 40) built as Y^T Y; factor_odd must
    # return rank(A) rows reconstructing A bit-exactly.  Cap: 10 s.
    rng = random.Random(102)
    t0 = time.monotonic()
    done = 0
    while done < 500:
        n = rng.randrange(1, 41)
        d = rng.randrange(1, 13)
        y = _random_bitmatrix(rng, d, n)
        a = y.transpose() @ y
        if a.is_even():
            continue
        yp = factor_odd(a)
        assert yp.rows == rank_gf2(a)
        assert yp.transpose() @ yp == a
        done += 1
    assert time.monotonic() - t0 < 10


def test_alternating_factorization_200():
    # 200 integer alternating matrices built as B^T H_g B with entries of B
    # in [-5, 5], n <= 12; exact reconstruction, even rational rank.
    # Cap: 30 s.
    rng = random.Random(103)
    t0 = time.monotonic()
    for _ in range(200):
        n = rng.randrange(1, 13)
        g = rng.randrange(1, 5)
        b = IntMatrix(2 * g, n, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(2 * g)])
        h = symplectic_matrix_int(g)
        a = b.transpose() @ (h @ b)
        assert a.is_skew()
        bp = factor_alternating(a)
        r = rank_q(a)
        assert r % 2 == 0
        assert bp.rows == r
        hp = symplectic_matrix_int(r // 2)
        assert bp.transpose() @ (hp @ bp) == a
    assert time.monotonic() - t0 < 30


def test_gram_rank_bound_1000():
    # rank of a Gramian never exceeds the ambient dimension
    rng = random.Random(104)
    for trial in range(1000):
        n = rng.randrange(1, 25)
        d = rng.randrange(1, 13)
        y = _random_bitmatrix(rng, d, n)
        if trial % 2 == 0:
            d += d % 2
            y = _random_bitmatrix(rng, d, n)
            a = y.transpose() @ (hyperbolic_matrix_gf2(d // 2) @ y)
        else:
            a = y.transpose() @ y
        assert rank_gf2(a) <= d


def test_even_gram_rank_drop_1000():
    # when Y^T Y is even its rank stays below the ambient dimension
    rng = random.Random(105)
    for _ in range(1000):
        n = rng.randrange(1, 25)
        d = rng.randrange(1, 13)
        y = BitMatrix(d, n)
        for j in range(n):
            col = rng.getrandbits(d)
            if bin(col).count("1") % 2:
                col ^= 1 << rng.randrange(d)
            for i in range(d):
                if (col >> i) & 1:
                    y.data[i] |= 1 << j
        a = y.transpose() @ y
        assert a.is_even()
        assert rank_gf2(a) <= d - 1


def _has_k5_minor(n, adj):
    for sub in itertools.combinations(range(n), 5):
        if all(b in adj[a] for a, b in itertools.combinations(sub, 2)):
            return True
    # one contracted edge plus four singleton branch sets
    for u in range(n):
        for v in adj[u]:
            if v <= u:
                continue
            others = [w for w in range(n) if w not in (u, v)]
            for quad in itertools.combinations(others, 4):
                if not all(b in adj[a] for a, b in itertools.combinations(quad, 2)):
                    continue
                if all(w in adj[u] or w in adj[v] for w in quad):
                    return True
    return False


def _has_k33_minor(n, adj):
    if n < 6:
        return False
    for side in itertools.combinations(range(6), 3):
        rest = [w for w in range(6) if w not in side]
        if all(b in adj[a] for a in side for b in rest):
            return True
    return False


def _is_planar(g):
    adj = [set() for _ in range(g.vertex_count)]
    for u, v in g.edges:
        adj[u].add(v)
        adj[v].add(u)
    return not _has_k5_minor(g.vertex_count, adj) and not _has_k33_minor(g.vertex_count, adj)


def test_plane_negatives_and_planar_positives_exhaustive():
    # the zero parity target is rejected for K5 and K3,3 and accepted for
    # every planar graph on <= 6 vertices, exhaustively over all graphs,
    # with planarity decided by brute-force forbidden-minor search
    for g in (complete_graph(5), complete_bipartite(3, 3)):
        m = g.edge_count
        assert is_compatible_mod2(g, ParityMatrix(g, BitMatrix(m, m))) is None
    for n in range(1, 7):
        possible = list(itertools.combinations(range(n), 2))
        for bits in range(1 << len(possible)):
            edges = [possible[k] for k in range(len(possible)) if (bits >> k) & 1]
            g = Graph(n, edges)
            if not _is_planar(g):
                continue
            m = g.edge_count
            assert is_compatible_mod2(g, ParityMatrix(g, BitMatrix(m, m))) is not None


def _random_drawing(g, rng, moves=3):
    order = list(range(g.vertex_count))
    rng.shuffle(order)
    d = convex_drawing(g, order)
    labels = finger_move_labels(g)
    for _ in range(rng.randrange(moves + 1)):
        e, v = labels[rng.randrange(len(labels))]
        d = apply_finger_move(d, e, v)
    return d


def test_realizability_closure_300_drawings():
    # 100 random drawings each of K5, K3,3, K4 stay inside the computed
    # affine class of parity matrices
    rng = random.Random(106)
    for g in (complete_graph(5), complete_bipartite(3, 3), complete_graph(4)):
        cls = CompatibilityClass.compute(g)
        for _ in range(100):
            d = _random_drawing(g, rng)
            assert cls.membership(crossing_parity_matrix(d)) is not None


def test_realize_parity_roundtrip_50():
    # realize_parity reproduces 50 random compatible targets exactly
    rng = random.Random(107)
    graphs = [complete_graph(5), complete_bipartite(3, 3), complete_graph(4)]
    for trial in range(50):
        g = graphs[trial % len(graphs)]
        cls = CompatibilityClass.compute(g)
        pairs = independent_pairs(g)
        vec = cls.base.pair_vector(pairs)
        for gen in cls.generators:
            if rng.getrandbits(1):
                vec ^= gen
        target = ParityMatrix.from_pair_vector(g, pairs, vec)
        d = realize_parity(g, target)
        assert crossing_parity_matrix(d).pair_vector(pairs) == vec


@pytest.fixture(scope="module")
def genus_witnesses():
    cases = [
        (complete_graph(4), "orientable", 0),
        (complete_graph(5), "orientable", 1),
        (complete_bipartite(3, 3), "orientable", 1),
        (complete_bipartite(3, 4), "orientable", 1),
        (complete_bipartite(4, 4), "orientable", 1),
        (complete_graph(5), "nonorientable", 1),
        (complete_bipartite(3, 3), "nonorientable", 1),
    ]
    t0 = time.monotonic()
    results = []
    for g, kind, expected in cases:
        res = z2_genus(g, kind)
        results.append((g, kind, expected, res))
    return results, time.monotonic() - t0


def test_genus_desk_scale(genus_witnesses):
    # known genus values; every witness passes both verifiers; the
    # orientable values respect the bipartite lower bounds.  Cap: 5 min.
    results, elapsed = genus_witnesses
    for g, kind, expected, res in results:
        assert res.status == "found"
        assert res.value == expected
        assert res.witness is not None
        assert verify_z2(res.witness.surface_drawing).is_embedding
        assert verify_geometric(res.witness.surface_drawing, "z2").is_embedding
    bounds = {(3, 3): 1, (3, 4): 1, (4, 4): 1}
    for (m, n), genus in bounds.items():
        assert genus >= kmn_lower_bound(m, n)
    assert elapsed < 300


def test_lower_bound_table():
    assert kmn_lower_bound(3, 3) == 1
    assert kmn_lower_bound(4, 4) == 1
    assert kmn_lower_bound(5, 5) == 2
    assert kmn_lower_bound(6, 6) == 3
    assert k2n_lower_bound(3) == 0
    assert k2n_lower_bound(4) == 1


def test_signed_roundtrip_50():
    # signed crossing matrix -> alternating factor -> surface drawing on
    # S_{rank/2}: all pair sums vanish and the geometric verifier agrees.
    # Cap: 60 s.
    rng = random.Random(108)
    t0 = time.monotonic()
    for trial in range(50):
        g = complete_graph(4) if trial % 2 == 0 else complete_graph(5)
        f = _random_drawing(g, rng, moves=2)
        a = signed_crossing_matrix(f)
        b = factor_alternating(a)
        genus = rank_q(a) // 2
        sd = construct_z_embedding(g, f, b, SurfaceSpec("S", genus))
        rep = verify_z(sd)
        assert rep.is_embedding
        assert all(v == 0 for v in rep.pairs.values())
        geo = verify_geometric(sd, "z")
        assert geo.pairs == rep.pairs
    assert time.monotonic() - t0 < 60


def test_extraction_consistency(genus_witnesses):
    # matrices extracted back from the genus witnesses are the solver's
    # matrices, even (orientable) or odd (nonorientable), satisfy the rank
    # bound, and are compatible with the witness core drawing
    results, _ = genus_witnesses
    for g, kind, expected, res in results:
        sd = res.witness.surface_drawing
        a, cert = extract_matrix(sd, "z2")
        assert a == res.witness.matrix
        if kind == "orientable":
            assert a.is_even()
            assert rank_gf2(a) <= 2 * expected
        else:
            assert not a.is_even()
            assert rank_gf2(a) <= expected
        assert cert is not None
        m = g.edge_count
        sym = BitMatrix(m, m)
        for pr in independent_pairs(g):
            bit = a.get(pr.i, pr.j)
            sym.set(pr.i, pr.j, bit)
            sym.set(pr.j, pr.i, bit)
        assert is_compatible_mod2(g, ParityMatrix(g, sym)) is not None


def test_dual_verifier_agreement_200():
    # combinatorial and geometric verifiers agree pair by pair on 200
    # randomized surface drawings (g <= 2, m <= 3, |E| <= 15)
    rng = random.Random(109)
    done = 0
    while done < 200:
        n = rng.randrange(4, 8)
        possible = list(itertools.combinations(range(n), 2))
        rng.shuffle(possible)
        edges = sorted(possible[: rng.randrange(3, min(len(possible), 15) + 1)])
        g = Graph(n, edges)
        core = _random_drawing(g, rng, moves=2)
        if rng.getrandbits(1):
            spec = SurfaceSpec("S", rng.randrange(1, 3))
        else:
            spec = SurfaceSpec("M", rng.randrange(1, 4))
        r = spec.ribbon_count
        passes = [[rng.getrandbits(1) for _ in range(r)] for _ in g.edges]
        order = list(range(g.edge_count))
        rng.shuffle(order)
        sd = SurfaceDrawing(spec, core, passes, order)
        combo = verify_z2(sd)
        geo = verify_geometric(sd, "z2")
        assert geo.pairs == combo.pairs
        assert geo.is_embedding == combo.is_embedding
        done += 1
