import itertools
import random

import pytest

from surfembed.drawing import (
    CompatibilityClass,
    IncompatibleTargetError,
    ParityMatrix,
    PlanarDrawing,
    apply_finger_move,
    convex_drawing,
    crossing_parity_matrix,
    finger_move_generators,
    finger_move_labels,
    is_compatible_mod2,
    parse_drawing,
    realize_parity,
    serialize_drawing,
    signed_crossing_matrix,
    _compute_crossings,
)
from surfembed.gf2 import BitMatrix
from surfembed.graph import Graph, complete_bipartite, complete_graph, independent_pairs


def zero_target(g):
    m = g.edge_count
    return ParityMatrix(g, BitMatrix(m, m))


def convex_crossing_oracle(g, order):
    """Two chords of a convex polygon cross iff their endpoints interleave."""
    pos = {v: k for k, v in enumerate(order)}
    odd = set()
    for pr in independent_pairs(g):
        a, b = sorted(pos[x] for x in g.edges[pr.i])
        c, d = sorted(pos[x] for x in g.edges[pr.j])
        if a < c < b < d or c < a < d < b:
            odd.add((pr.i, pr.j))
    return odd


@pytest.mark.parametrize("n", range(3, 8))
def test_convex_drawing_matches_interleaving_oracle(n):
    g = complete_graph(n)
    d = convex_drawing(g)
    pm = crossing_parity_matrix(d)
    oracle = convex_crossing_oracle(g, list(range(n)))
    for pr in independent_pairs(g):
        assert pm.get(pr.i, pr.j) == (1 if (pr.i, pr.j) in oracle else 0)
    # every crossing pair crosses exactly once in convex position
    table = d.crossings()
    for pr in independent_pairs(g):
        assert len(table[(pr.i, pr.j)]) == (1 if (pr.i, pr.j) in oracle else 0)


def test_canonical_k4_has_one_odd_pair():
    g = complete_graph(4)
    pm = crossing_parity_matrix(convex_drawing(g))
    odd = [(p.i, p.j) for p in independent_pairs(g) if pm.get(p.i, p.j)]
    assert odd == [(1, 4)]  # chords 02 and 13


def test_canonical_k5_has_five_odd_pairs():
    g = complete_graph(5)
    pm = crossing_parity_matrix(convex_drawing(g))
    odd = sum(pm.get(p.i, p.j) for p in independent_pairs(g))
    assert odd == 5


def test_convex_drawing_with_order():
    g = complete_graph(4)
    order = [0, 2, 1, 3]
    d = convex_drawing(g, order)
    pm = crossing_parity_matrix(d)
    oracle = convex_crossing_oracle(g, order)
    for pr in independent_pairs(g):
        assert pm.get(pr.i, pr.j) == (1 if (pr.i, pr.j) in oracle else 0)


def test_signed_matrix_is_skew_and_mod2_consistent():
    for g in (complete_graph(5), complete_bipartite(3, 3)):
        d = convex_drawing(g)
        s = signed_crossing_matrix(d)
        assert s.is_skew()
        pm = crossing_parity_matrix(d)
        for pr in independent_pairs(g):
            assert abs(s.data[pr.i][pr.j]) % 2 == pm.get(pr.i, pr.j)


def test_signed_matrix_orientation_flip_negates_row_and_column():
    g = complete_graph(5)
    d = convex_drawing(g)
    s = signed_crossing_matrix(d)
    flipped = PlanarDrawing(
        g,
        d.vertex_points,
        d.edge_polylines,
        [-1 if i == 3 else 1 for i in range(g.edge_count)],
    )
    s2 = signed_crossing_matrix(flipped)
    for i in range(g.edge_count):
        for j in range(g.edge_count):
            expect = -s.data[i][j] if (i == 3) != (j == 3) else s.data[i][j]
            assert s2.data[i][j] == expect


def test_finger_move_generator_support():
    g = complete_graph(4)
    pairs = independent_pairs(g)
    labels = finger_move_labels(g)
    gens = finger_move_generators(g)
    assert len(labels) == len(gens)
    for (e, v), vec in zip(labels, gens):
        for k, pr in enumerate(pairs):
            bit = (vec >> k) & 1
            f = pr.j if pr.i == e else (pr.i if pr.j == e else None)
            expect = 1 if f is not None and v in g.edges[f] else 0
            assert bit == expect


def test_apply_finger_move_flips_expected_parities():
    g = complete_graph(5)
    d = convex_drawing(g)
    pm0 = crossing_parity_matrix(d)
    e, v = 0, 4  # edge (0,1), vertex 4
    d2 = apply_finger_move(d, e, v)
    pm2 = crossing_parity_matrix(d2)
    incident = set(g.incident_edges(v))
    for pr in independent_pairs(g):
        f = pr.j if pr.i == e else (pr.i if pr.j == e else None)
        flip = 1 if f is not None and f in incident else 0
        assert pm2.get(pr.i, pr.j) == pm0.get(pr.i, pr.j) ^ flip


def test_zero_target_rejected_for_k5_and_k33():
    for g in (complete_graph(5), complete_bipartite(3, 3)):
        assert is_compatible_mod2(g, zero_target(g)) is None
        with pytest.raises(IncompatibleTargetError):
            realize_parity(g, zero_target(g))


def test_zero_target_realizable_for_k4():
    g = complete_graph(4)
    cert = is_compatible_mod2(g, zero_target(g))
    assert cert is not None
    d = realize_parity(g, zero_target(g))
    pm = crossing_parity_matrix(d)
    for pr in independent_pairs(g):
        assert pm.get(pr.i, pr.j) == 0


def test_small_planar_graphs_accept_zero_target():
    cases = [
        Graph(1, []),
        Graph(2, [(0, 1)]),
        Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        complete_graph(4),
        complete_bipartite(2, 3),
    ]
    for g in cases:
        assert is_compatible_mod2(g, zero_target(g)) is not None


def test_realize_roundtrip_random_targets():
    rng = random.Random(20)
    for g in (complete_graph(5), complete_bipartite(3, 3)):
        pairs = independent_pairs(g)
        cls = CompatibilityClass.compute(g)
        done = 0
        while done < 8:
            vec = rng.getrandbits(len(pairs))
            target = ParityMatrix.from_pair_vector(g, pairs, vec)
            if cls.membership(target) is None:
                continue
            done += 1
            d = realize_parity(g, target)
            got = crossing_parity_matrix(d)
            assert got.equal_on_independent_pairs(target)


def test_realize_from_shared_class_leaves_its_drawing_alone():
    # the solver hands one class, and so one base drawing, to every
    # realize_parity of a genus scan; finger moves must build new drawings
    rng = random.Random(23)
    for g in (complete_graph(5), complete_bipartite(3, 4)):
        pairs = independent_pairs(g)
        cls = CompatibilityClass.compute(g)
        base_text = serialize_drawing(cls.drawing)
        base_table = {k: list(v) for k, v in cls.drawing.crossings().items()}
        done = 0
        while done < 3:
            target = ParityMatrix.from_pair_vector(g, pairs, rng.getrandbits(len(pairs)))
            if cls.membership(target) is None:
                continue
            done += 1
            first = realize_parity(g, target, cls)
            second = realize_parity(g, target, cls)
            assert first is not cls.drawing
            assert serialize_drawing(first) == serialize_drawing(second)
            assert serialize_drawing(first) == serialize_drawing(realize_parity(g, target))
            assert crossing_parity_matrix(first).equal_on_independent_pairs(target)
            assert serialize_drawing(cls.drawing) == base_text
            assert cls.drawing.crossings() == base_table
            assert crossing_parity_matrix(cls.drawing).pair_vector(pairs) == cls.base.pair_vector(pairs)


def test_compatibility_closed_under_finger_moves():
    # every drawing obtained from the canonical one by fingers stays in class
    g = complete_graph(5)
    rng = random.Random(21)
    cls = CompatibilityClass.compute(g)
    labels = finger_move_labels(g)
    d = convex_drawing(g)
    used = {}
    for _ in range(4):
        e, v = labels[rng.randrange(len(labels))]
        d = apply_finger_move(d, e, v, shrink=used.get(v, 0))
        used[v] = used.get(v, 0) + 1
        assert cls.membership(crossing_parity_matrix(d)) is not None


def test_parity_matrix_roundtrip_via_pair_vector():
    g = complete_bipartite(3, 3)
    pairs = independent_pairs(g)
    rng = random.Random(22)
    for _ in range(20):
        vec = rng.getrandbits(len(pairs))
        pm = ParityMatrix.from_pair_vector(g, pairs, vec)
        assert pm.pair_vector(pairs) == vec


def test_drawing_serialize_roundtrip_exact():
    g = complete_graph(5)
    d = realize_parity(
        g,
        crossing_parity_matrix(apply_finger_move(convex_drawing(g), 0, 3)),
    )
    text = serialize_drawing(d)
    d2 = parse_drawing(text, g)
    assert d2.vertex_points == d.vertex_points
    assert d2.edge_polylines == d.edge_polylines
    assert serialize_drawing(d2) == text


def test_parse_drawing_rejects_malformed():
    g = complete_graph(3)
    with pytest.raises(ValueError):
        parse_drawing("nope\n", g)
    with pytest.raises(ValueError):
        parse_drawing("drawing\nvertex 0 0 0\n", g)
    points = "vertex 0 0 0\nvertex 1 1 0\n"
    for text in (
        "vertex\n",
        "vertex 0 1\n",
        "edge\n",
        "edge 0\n",
        "vertex 0 0 0\nvertex 1 1/0 0\n",
        points + "edge 0 : 0 0 1/0 0\n",
        points + "vertex 1 2 0\n",
        points + "edge 0 : 0 0 1 0\nedge 0 : 0 0 1 0\n",
    ):
        with pytest.raises(ValueError):
            parse_drawing("drawing\n" + text)


@pytest.mark.parametrize(
    "g, seed",
    [(complete_graph(5), 40), (complete_bipartite(3, 3), 41), (complete_bipartite(4, 4), 42)],
)
def test_incremental_table_matches_fresh_computation(g, seed):
    # Fingers on two edges only, so the same edge is rerouted again and again.
    rng = random.Random(seed)
    edges = rng.sample(range(g.edge_count), 2)
    d = convex_drawing(g)
    used = {}
    for _ in range(6):
        e = rng.choice(edges)
        v = rng.choice([w for w in range(g.vertex_count) if w not in g.edges[e]])
        d = apply_finger_move(d, e, v, shrink=used.get(v, 0))
        used[v] = used.get(v, 0) + 1
        fresh = PlanarDrawing(g, d.vertex_points, d.edge_polylines, d.edge_orientations)
        table, points, self_points = _compute_crossings(fresh)
        maintained = d.crossings()
        assert maintained.keys() == table.keys()
        for key, hits in table.items():
            got = maintained[key]
            assert sorted(p for p, _ in got) == sorted(p for p, _ in hits)
            assert len(got) == len(hits)
            assert sum(s for _, s in got) == sum(s for _, s in hits)
        assert d._points == points
        assert d._self_points == self_points


def test_light_certificate_reaches_target_with_no_more_moves():
    rng = random.Random(43)
    for g in (complete_graph(5), complete_bipartite(3, 3), complete_bipartite(3, 4), complete_graph(6)):
        pairs = independent_pairs(g)
        cls = CompatibilityClass.compute(g)
        base = cls.base.pair_vector(pairs)
        for _ in range(10):
            vec = base
            for gen in cls.generators:
                if rng.getrandbits(1):
                    vec ^= gen
            target = ParityMatrix.from_pair_vector(g, pairs, vec)
            full = cls.membership(target)
            light = cls.membership(target, light=True)
            got = base
            for c, gen in zip(light, cls.generators):
                if c:
                    got ^= gen
            assert got == vec
            assert sum(light) <= sum(full)
