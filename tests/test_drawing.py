import hashlib
import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from surfembed import drawing as drawing_module
from surfembed.drawing import (
    CompatibilityClass,
    GeneralPositionError,
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
    _chord_parities,
    _check_polyline_shape,
    _check_vertices_on_edge,
    _compute_crossings,
    _edge_crossings,
    _lightest_convex_order,
    _loop_start,
    _pair_ends,
    _signs,
    finger_polyline,
)
from surfembed.geom import box_pairs, classify_segments, crossing_sign, integer_image, on_segment
from surfembed.gf2 import BitMatrix, Gf2Elimination, solve_gf2
from surfembed.graph import Graph, complete_bipartite, complete_graph, independent_pairs
from surfembed.layout import verify_geometric
from surfembed.solver import z2_embeddable_orientable, z2_genus
from surfembed.surface import verify_z2


def zero_target(g):
    m = g.edge_count
    return ParityMatrix(g, BitMatrix(m, m))


def convex_crossing_oracle(g, order):
    """Two chords of a convex polygon cross iff their endpoints interleave."""
    pos = {v: k for k, v in enumerate(order)}
    odd = set()
    for i, j in independent_pairs(g):
        a, b = sorted(pos[x] for x in g.edges[i])
        c, d = sorted(pos[x] for x in g.edges[j])
        if a < c < b < d or c < a < d < b:
            odd.add((i, j))
    return odd


@pytest.mark.parametrize("n", range(3, 8))
def test_convex_drawing_matches_interleaving_oracle(n):
    g = complete_graph(n)
    d = convex_drawing(g)
    pm = crossing_parity_matrix(d)
    oracle = convex_crossing_oracle(g, list(range(n)))
    for i, j in independent_pairs(g):
        assert pm.get(i, j) == (1 if (i, j) in oracle else 0)
    # every crossing pair crosses exactly once in convex position
    table = d.crossings()
    for i, j in independent_pairs(g):
        assert len(table[(i, j)]) == (1 if (i, j) in oracle else 0)


def test_canonical_k4_has_one_odd_pair():
    g = complete_graph(4)
    pm = crossing_parity_matrix(convex_drawing(g))
    odd = [(i, j) for i, j in independent_pairs(g) if pm.get(i, j)]
    assert odd == [(1, 4)]  # chords 02 and 13


def test_canonical_k5_has_five_odd_pairs():
    g = complete_graph(5)
    pm = crossing_parity_matrix(convex_drawing(g))
    odd = sum(pm.get(i, j) for i, j in independent_pairs(g))
    assert odd == 5


def test_convex_drawing_with_order():
    g = complete_graph(4)
    order = [0, 2, 1, 3]
    d = convex_drawing(g, order)
    pm = crossing_parity_matrix(d)
    oracle = convex_crossing_oracle(g, order)
    for i, j in independent_pairs(g):
        assert pm.get(i, j) == (1 if (i, j) in oracle else 0)


def test_signed_matrix_is_skew_and_mod2_consistent():
    for g in (complete_graph(5), complete_bipartite(3, 3)):
        d = convex_drawing(g)
        s = signed_crossing_matrix(d)
        assert s.is_skew()
        pm = crossing_parity_matrix(d)
        for i, j in independent_pairs(g):
            assert abs(s.data[i][j]) % 2 == pm.get(i, j)


def test_finger_move_generator_support():
    g = complete_graph(4)
    pairs = independent_pairs(g)
    labels = finger_move_labels(g)
    gens = finger_move_generators(g)
    assert len(labels) == len(gens)
    for (e, v), vec in zip(labels, gens):
        for k, (i, j) in enumerate(pairs):
            bit = (vec >> k) & 1
            f = j if i == e else (i if j == e else None)
            expect = 1 if f is not None and v in g.edges[f] else 0
            assert bit == expect


def test_apply_finger_move_flips_expected_parities():
    g = complete_graph(5)
    d = convex_drawing(g)
    pm0 = crossing_parity_matrix(d)
    e, v = 0, 4  # edge (0,1), vertex 4
    d2 = apply_finger_move(d, e, v)
    pm2 = crossing_parity_matrix(d2)
    for i, j in independent_pairs(g):
        f = j if i == e else (i if j == e else None)
        flip = 1 if f is not None and v in g.edges[f] else 0
        assert pm2.get(i, j) == pm0.get(i, j) ^ flip


def test_a_finger_move_refuses_an_edge_or_vertex_that_is_no_index():
    # -1 would alias the last vertex or edge, 4.0 and True are no index.
    d = convex_drawing(complete_graph(5))
    for e, v in ((0, -1), (-1, 2), (0, 7), (10, 2), (0, 4.0), (True, 3)):
        with pytest.raises(ValueError, match="must be an integer in"):
            apply_finger_move(d, e, v)


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
    for i, j in independent_pairs(g):
        assert pm.get(i, j) == 0


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
            target = ParityMatrix.from_pair_vector(g, vec)
            if cls.membership(target) is None:
                continue
            done += 1
            d = realize_parity(g, target)
            assert crossing_parity_matrix(d).pair_vector() == vec


def test_realize_is_deterministic():
    # two calls on one target give the same drawing, with the target's parities
    rng = random.Random(23)
    for g in (complete_graph(5), complete_bipartite(3, 4)):
        pairs = independent_pairs(g)
        cls = CompatibilityClass.compute(g)
        done = 0
        while done < 3:
            vec = rng.getrandbits(len(pairs))
            target = ParityMatrix.from_pair_vector(g, vec)
            if cls.membership(target) is None:
                continue
            done += 1
            first = realize_parity(g, target)
            assert serialize_drawing(first) == serialize_drawing(realize_parity(g, target))
            assert crossing_parity_matrix(first).pair_vector() == vec


def test_class_base_is_the_chord_interleaving_of_the_identity_order():
    # the class's base is read off chord interleaving, as realize_parity
    # tests compatibility, without geometry
    rng = random.Random(24)
    for _ in range(300):
        n = rng.randrange(2, 9)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5])
        pairs = independent_pairs(g)
        odd = convex_crossing_oracle(g, list(range(n)))
        expected = sum(1 << k for k, (i, j) in enumerate(pairs) if (i, j) in odd)
        assert CompatibilityClass.compute(g).base == expected


def _unperturbed_point_1(n):
    """Where convex_drawing puts position 1 of the identity order of n
    vertices without a perturbation: x = 101 on the square curve, at
    (s x, (x - c)^2).  Perturbation k puts it at x = 101 + 2k mod 101,
    which moves it for every 0 < k < 64."""
    c, s = 101 * (n - 1) // 2, max(1, 101 * n // 4)
    return (101 * s, (101 - c) ** 2)


def test_chord_base_equals_the_convex_drawing_base():
    # While is_compatible_mod2 reads the base off the convex drawing's exact
    # crossing table, both bases must agree, and so must both answers.  K9
    # and K5,5 need the perturbed retry of convex_drawing (vertex 1 leaves
    # its unperturbed point); K5, the control, does not.
    rng = random.Random(25)
    retried = [complete_graph(9), complete_bipartite(5, 5)]
    assert convex_drawing(complete_graph(5)).vertex_points[1] == _unperturbed_point_1(5)
    graphs = [Graph(0, []), Graph(4, []), Graph(6, [(1, 3), (3, 4)])] + retried
    for _ in range(60):
        n = rng.randrange(1, 9)
        graphs.append(Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]))
    for g in graphs:
        d = convex_drawing(g)
        if g in retried:
            assert d.vertex_points[1] != _unperturbed_point_1(g.vertex_count)
        cls = CompatibilityClass.compute(g)
        assert cls.base == CompatibilityClass.compute(g, d).base
        for t in range(4):
            vec = rng.getrandbits(len(g.pairs))
            if t % 2:  # a compatible target: base plus some generators
                vec = cls.base
                for gen in finger_move_generators(g):
                    vec ^= gen if rng.random() < 0.5 else 0
            target = ParityMatrix.from_pair_vector(g, vec)
            assert is_compatible_mod2(g, target) == cls.membership(target)
            if t % 2:
                assert cls.membership(target) is not None


def test_target_on_another_edge_set_is_refused():
    # K4 and the 6-cycle both have six edges; a target must name g's own
    k4 = complete_graph(4)
    c6 = Graph(6, [(k, (k + 1) % 6) for k in range(6)])
    for g, other in ((k4, c6), (c6, k4)):
        target = zero_target(other)
        with pytest.raises(ValueError, match="different edge set"):
            is_compatible_mod2(g, target)
        with pytest.raises(ValueError, match="different edge set"):
            realize_parity(g, target)


def test_class_of_a_drawing_of_another_edge_set_is_refused():
    # h has K3,3's vertex and edge counts, so its crossing table holds
    # every key of K3,3's pairs; read under them, it would put the zero
    # target in K3,3's class
    g = complete_bipartite(3, 3)
    h = Graph(6, [(0, 3), (2, 3), (3, 4), (0, 2), (0, 5), (2, 5), (1, 4), (1, 5), (0, 4)])
    with pytest.raises(ValueError, match="different edge set"):
        CompatibilityClass.compute(g, convex_drawing(h))
    assert CompatibilityClass.compute(g).membership(zero_target(g)) is None


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
        pm = ParityMatrix.from_pair_vector(g, vec)
        assert pm.pair_vector() == vec


def test_drawing_serialize_roundtrip_exact():
    g = complete_graph(5)
    d = realize_parity(
        g,
        crossing_parity_matrix(apply_finger_move(convex_drawing(g), 0, 3)),
    )
    text = serialize_drawing(d)
    d2 = parse_drawing(text)
    assert d2.graph == g
    assert d2.vertex_points == d.vertex_points
    assert d2.edge_polylines == d.edge_polylines
    assert serialize_drawing(d2) == text


def test_a_drawing_takes_exact_coordinates_only():
    # Fraction() would take 0.1 as its binary value, "1/3" and True as 1/3
    # and 1; a drawing refuses each and names the coordinate.
    g = Graph(2, [(0, 1)])
    d = PlanarDrawing(g, [(0, Fraction(1, 3)), (1, 0)], [[(0, Fraction(1, 3)), (1, 0)]])
    for bad, name in ((0.1, "x coordinate 0.1"), (True, "x coordinate True"), ("1/3", "x coordinate '1/3'")):
        with pytest.raises(ValueError, match=name):
            PlanarDrawing(g, [(bad, 0), (1, 0)], [[(0, 0), (1, 0)]])
        with pytest.raises(ValueError, match=name.replace("x", "y")):
            PlanarDrawing(g, [(0, 0), (1, 0)], [[(0, 0), (Fraction(1, 2), bad), (1, 0)]])
        with pytest.raises(ValueError, match=name):
            d.with_polyline(0, [(0, Fraction(1, 3)), (bad, 1), (1, 0)])
    assert all(type(c) is Fraction for p in d.vertex_points for c in p)
    assert serialize_drawing(d) == "drawing\nvertex 0 0 1/3\nvertex 1 1 0\nedge 0 : 0 1/3 1 0\n"


def test_parse_drawing_rejects_malformed():
    with pytest.raises(ValueError):
        parse_drawing("nope\n")
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
        # the graph read off the drawing: vertex and edge ids, ends, edges
        "vertex 0 0 0\nvertex 2 1 0\n",
        points + "edge 1 : 0 0 1 0\n",
        points + "edge 0 : 0 0 2 0\n",
        points + "edge 0 : 0 0 1 0\nedge 1 : 1 0 2 2 0 0\n",
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
        fresh = PlanarDrawing(g, d.vertex_points, d.edge_polylines)
        table = _compute_crossings(fresh)
        maintained = d.crossings()
        assert maintained.keys() == table.keys()
        for key, signs in table.items():
            assert sorted(maintained[key]) == sorted(signs)


def _light_solution(elim, rhs):
    """elim's packed solution of a solvable rhs, made lighter."""
    residual, coeff = elim.reduce(rhs)
    assert residual == 0
    return elim.lighten(coeff)


def test_light_certificate_reaches_target_with_no_more_moves():
    rng = random.Random(43)
    for g in (complete_graph(5), complete_bipartite(3, 3), complete_bipartite(3, 4), complete_graph(6)):
        cls = CompatibilityClass.compute(g)
        base, gens = cls.base, finger_move_generators(g)
        for _ in range(10):
            vec = base
            for gen in gens:
                if rng.getrandbits(1):
                    vec ^= gen
            target = ParityMatrix.from_pair_vector(g, vec)
            full = cls.membership(target)
            light = _light_solution(Gf2Elimination(gens), base ^ vec)
            got = base
            for k, gen in enumerate(gens):
                if light >> k & 1:
                    got ^= gen
            assert got == vec
            assert light.bit_count() <= sum(full)


def _count_finger_moves(monkeypatch):
    """A one-item list that counts the finger moves made from now on."""
    count = [0]
    apply = drawing_module.apply_finger_move

    def counted(*args, **kwargs):
        count[0] += 1
        return apply(*args, **kwargs)

    monkeypatch.setattr(drawing_module, "apply_finger_move", counted)
    return count


def test_realize_never_uses_more_moves_than_the_identity_order(monkeypatch):
    # the start is the identity convex order or a strictly lighter one
    rng = random.Random(46)
    moves = _count_finger_moves(monkeypatch)
    saved = 0
    for _ in range(50):
        n = rng.randrange(4, 8)
        edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]
        g = Graph(n, edges)
        gens = finger_move_generators(g)
        base = vec = CompatibilityClass.compute(g).base
        for gen in gens:
            if rng.getrandbits(1):
                vec ^= gen
        target = ParityMatrix.from_pair_vector(g, vec)
        identity = _light_solution(Gf2Elimination(gens), base ^ vec).bit_count()
        moves[0] = 0
        d = realize_parity(g, target)
        assert crossing_parity_matrix(d).pair_vector() == vec
        assert moves[0] <= identity
        saved += identity - moves[0]
    assert saved > 0


def test_incompatible_target_raises_before_the_order_search(monkeypatch):
    def no_search(*args):
        raise AssertionError("order search ran for an incompatible target")

    monkeypatch.setattr(drawing_module, "_lightest_convex_order", no_search)
    for g in (complete_graph(5), complete_bipartite(3, 3)):
        with pytest.raises(IncompatibleTargetError):
            realize_parity(g, zero_target(g))


def test_witnesses_of_the_nine_genus_one_graphs_use_few_finger_moves(monkeypatch):
    # 98 moves from the identity order alone; both verifiers still accept
    moves = _count_finger_moves(monkeypatch)
    cases = [
        (complete_graph(5), "orientable"),
        (complete_bipartite(3, 3), "orientable"),
        (complete_bipartite(3, 4), "orientable"),
        (complete_bipartite(4, 4), "orientable"),
        (complete_graph(6), "orientable"),
        (complete_graph(7), "orientable"),
        (complete_graph(5), "nonorientable"),
        (complete_bipartite(3, 3), "nonorientable"),
        (complete_graph(6), "nonorientable"),
    ]
    for g, kind in cases:
        res = z2_genus(g, kind)
        assert (res.status, res.value) == ("found", 1)
        sd = res.witness.surface_drawing
        assert verify_z2(sd).is_embedding
        assert verify_geometric(sd, "z2").is_embedding
    assert moves[0] <= 40


def test_finger_moves_keep_the_common_denominator_small():
    # A random compatible target on 10 vertices and 30 edges takes 56
    # finger moves.  Rational finger parameters gave the drawing a common
    # denominator of 987 bits.
    rng = random.Random(10)
    possible = list(itertools.combinations(range(10), 2))
    rng.shuffle(possible)
    g = Graph(10, possible[:30])
    cls = CompatibilityClass.compute(g)
    vec = cls.base
    for gen in finger_move_generators(g):
        if rng.getrandbits(1):
            vec ^= gen
    d = realize_parity(g, ParityMatrix.from_pair_vector(g, vec))
    assert crossing_parity_matrix(d).pair_vector() == vec
    dens = {c.denominator for pts in [d.vertex_points, *d.edge_polylines] for p in pts for c in p}
    assert all(q & (q - 1) == 0 for q in dens)
    assert math.lcm(*dens).bit_length() <= 64


def _fraction_crossings(d):
    """_compute_crossings as it stood when its segment pass ran on d's
    Fraction points."""
    m = d.graph.edge_count
    pts, edges, pls = d.vertex_points, d.graph.edges, d.edge_polylines
    for i in range(m):
        _check_polyline_shape(pts, edges, pls, i)
    if len(set(pts)) != len(pts):
        raise GeneralPositionError("coincident vertex points")
    for i in range(m):
        _check_vertices_on_edge(pts, edges, pls, i)
    table = _edge_crossings(pls)
    self_points = [table.pop((i, i)) for i in range(m)]
    point_log = Counter(p for pts in self_points for p in pts)
    for hits in table.values():
        point_log.update(p for p, _ in hits)
    for p, cnt in point_log.items():
        if cnt > 1:
            raise GeneralPositionError(f"multiple crossings through one point {p}")
    return table, point_log, self_points


def _as_fractions(p, den):
    """A crossing triple (X, Y, Q) of an integer image at scale den as the
    Fraction pair (X/(Q den), Y/(Q den))."""
    x, y, q = p
    return (Fraction(x, q * den), Fraction(y, q * den))


def _assert_same_table(d):
    fresh = PlanarDrawing(d.graph, d.vertex_points, d.edge_polylines)
    table = _compute_crossings(fresh)
    ref_table, ref_points, ref_self = _fraction_crossings(fresh)
    assert table.keys() == ref_table.keys()
    for key, signs in table.items():
        assert sorted(signs) == sorted(s for _, s in ref_table[key])
    # The int kernel's points, at the image's scale, are the reference's.
    den, _, image = fresh.image()
    found = _edge_crossings(image)
    self_points = [found.pop((i, i)) for i in range(d.graph.edge_count)]
    assert {key: [(_as_fractions(p, den), s) for p, s in hits] for key, hits in found.items()} == ref_table
    assert [[_as_fractions(p, den) for p in pts] for pts in self_points] == ref_self
    points = [p for hits in found.values() for p, _ in hits] + [p for pts in self_points for p in pts]
    assert all(type(c) is int for p in points for c in p)
    assert all(p[2] > 0 and math.gcd(*p) == 1 for p in points)


def _affine(d, rng):
    """d under (x, y) -> (a x + b, c y + e), a and c positive rationals with
    random denominators, so every orientation and incidence is kept."""
    a, c = (Fraction(rng.randrange(1, 40), rng.randrange(1, 40)) for _ in range(2))
    b, e = (Fraction(rng.randrange(-50, 50), rng.randrange(1, 40)) for _ in range(2))

    def f(p):
        return (a * p[0] + b, c * p[1] + e)

    return PlanarDrawing(d.graph, [f(p) for p in d.vertex_points], [[f(p) for p in pl] for pl in d.edge_polylines])


def test_integer_table_equals_fraction_table_on_convex_drawings():
    rng = random.Random(47)
    for g in (complete_graph(6), complete_graph(7), complete_bipartite(4, 4), complete_bipartite(3, 5)):
        for _ in range(4):
            order = list(range(g.vertex_count))
            rng.shuffle(order)
            d = convex_drawing(g, order)
            _assert_same_table(d)
            _assert_same_table(_affine(d, rng))
    # verify-style cores: random graphs on 5-7 vertices in shuffled convex order
    for _ in range(30):
        n = rng.randrange(5, 8)
        possible = list(itertools.combinations(range(n), 2))
        rng.shuffle(possible)
        g = Graph(n, possible[: rng.randrange(4, 9)])
        order = list(range(n))
        rng.shuffle(order)
        _assert_same_table(convex_drawing(g, order))


def test_integer_table_equals_fraction_table_on_finger_moved_drawings():
    rng = random.Random(48)
    for g in (complete_graph(5), complete_bipartite(3, 3), complete_bipartite(3, 4), complete_graph(6)):
        d = convex_drawing(g)
        used = {}
        for _ in range(5):
            e = rng.randrange(g.edge_count)
            v = rng.choice([w for w in range(g.vertex_count) if w not in g.edges[e]])
            d = apply_finger_move(d, e, v, shrink=used.get(v, 0))
            used[v] = used.get(v, 0) + 1
            # re-parsed from text: no table carried over from the moves
            back = parse_drawing(serialize_drawing(d))
            assert back._crossings is None
            _assert_same_table(back)
            _assert_same_table(_affine(back, rng))
    for graph in (complete_graph(5), complete_bipartite(3, 3), complete_bipartite(4, 4)):
        witness = z2_genus(graph).witness.surface_drawing.core
        _assert_same_table(parse_drawing(serialize_drawing(witness)))


def _three_lines_through(p):
    """Three chords through the rational point p."""
    dirs = [(1, 0), (0, 1), (1, 1)]
    pts = []
    for dx, dy in dirs:
        pts += [(p[0] + dx, p[1] + dy), (p[0] - dx, p[1] - dy)]
    g = Graph(6, [(0, 1), (2, 3), (4, 5)])
    return PlanarDrawing(g, pts, [[pts[u], pts[v]] for u, v in g.edges])


def _thirds(vertex_points, edges, polylines):
    """A drawing with every coordinate divided by 3."""
    def f(p):
        return (Fraction(p[0], 3), Fraction(p[1], 3))

    g = Graph(len(vertex_points), edges)
    return PlanarDrawing(g, [f(p) for p in vertex_points], [[f(p) for p in pl] for pl in polylines])


@pytest.mark.parametrize(
    "d",
    [
        # edge 1 leaves their common vertex along edge 0
        _thirds([(0, 0), (4, 0), (2, 1)], [(0, 1), (0, 2)],
                [[(0, 0), (4, 0)], [(0, 0), (1, 0), (2, 1)]]),
        # edge 1 bends on edge 0 and turns back
        _thirds([(0, 0), (4, 0), (1, 1), (3, 1)], [(0, 1), (2, 3)],
                [[(0, 0), (4, 0)], [(1, 1), (2, 0), (3, 1)]]),
        # vertex 2 inside edge 0
        _thirds([(0, 0), (4, 0), (2, 0), (3, 1)], [(0, 1), (2, 3)],
                [[(0, 0), (4, 0)], [(2, 0), (3, 1)]]),
        # edge 0 overlaps itself
        _thirds([(0, 0), (4, 0)], [(0, 1)], [[(0, 0), (3, 0), (1, 0), (4, 0)]]),
        _three_lines_through((Fraction(1, 2), Fraction(1, 3))),
    ],
    ids=["overlap", "bend-tangency", "vertex-inside", "self-overlap", "three-through-a-point"],
)
def test_integer_table_raises_as_the_fraction_table(d):
    with pytest.raises(GeneralPositionError) as ref:
        _fraction_crossings(d)
    with pytest.raises(GeneralPositionError) as got:
        _compute_crossings(d)
    assert str(got.value) == str(ref.value)


def _shared_vertex_crossings(g, vpts, pls, only=None):
    """_edge_crossings with the touch rule read off the graph: two edges may
    touch only at the point of a vertex they share, an end of both polylines
    and of both segments."""
    m = g.edge_count
    if only is None:
        out = {(i, j): [] for i in range(m) for j in range(i, m)}
    else:
        out = {(min(only, f), max(only, f)): [] for f in range(m)}
    for i, si, j, sj in box_pairs(pls, only):
        pli, plj = pls[i], pls[j]
        a, b = pli[si], pli[si + 1]
        c, e = plj[sj], plj[sj + 1]
        kind, p = classify_segments(a, b, c, e)
        if kind == "none":
            continue
        if i == j:
            if kind == "overlap":
                raise GeneralPositionError(f"edge {i}: self-overlap")
            if kind == "touch":
                if sj == si + 1 and p == b:
                    continue
                raise GeneralPositionError(f"edge {i}: self-tangency")
            out[(i, i)].append(p)
            continue
        if kind == "overlap":
            raise GeneralPositionError(f"edges {i},{j}: overlapping segments {si},{sj}")
        if kind == "touch":
            shared = set(g.edges[i]) & set(g.edges[j])
            ok = (
                shared
                and p == vpts[next(iter(shared))]
                and p in (pli[0], pli[-1])
                and p in (plj[0], plj[-1])
                and p in (a, b)
                and p in (c, e)
            )
            if not ok:
                raise GeneralPositionError(f"edges {i},{j}: non-transversal contact at segments {si},{sj}")
            continue
        out[(i, j)].append((p, crossing_sign(a, b, c, e)))
    return out


def _outcome(f, *args):
    try:
        return f(*args)
    except GeneralPositionError as err:
        return str(err)


def test_the_graph_free_touch_rule_is_the_shared_vertex_rule():
    # _edge_crossings allows a touch of two polylines only at an end of
    # both polylines and of both segments.  On drawings whose polylines
    # join their edges' distinct vertex points, as both callers check
    # first, that is a vertex the two edges share: random drawings on a
    # 5 x 5 grid give the same table, or raise the same message, both for
    # the full table and for one edge's row.
    rng = random.Random(53)
    tables = refused = 0
    for _ in range(3000):
        n = rng.randrange(3, 7)
        vpts = rng.sample([(x, y) for x in range(5) for y in range(5)], n)
        possible = list(itertools.combinations(range(n), 2))
        g = Graph(n, rng.sample(possible, rng.randrange(2, min(6, len(possible)) + 1)))
        pls = [[vpts[u], *(tuple(rng.sample(range(5), 2)) for _ in range(rng.randrange(3))), vpts[v]] for u, v in g.edges]
        try:
            for i in range(g.edge_count):
                _check_polyline_shape(vpts, g.edges, pls, i)
        except GeneralPositionError:
            continue
        got = _outcome(_edge_crossings, pls)
        assert got == _outcome(_shared_vertex_crossings, g, vpts, pls)
        if isinstance(got, str):
            refused += 1
        else:
            tables += 1
        e = rng.randrange(g.edge_count)
        assert _outcome(_edge_crossings, pls, e) == _outcome(_shared_vertex_crossings, g, vpts, pls, e)
    assert tables >= 300 and refused >= 300


def test_a_rerouted_row_refuses_every_old_crossing_point_it_meets():
    # apply_finger_move checks only the multiplicity of the rerouted edge's
    # row.  Random drawings on a 6 x 6 grid, one edge rerouted at random or
    # through a crossing point of other edges: whenever the new polyline
    # meets such a point, the row check raises; whenever the row check
    # passes, the fresh table is the old one with that row replaced.
    rng = random.Random(49)

    def grid():
        return (rng.randrange(6), rng.randrange(6))

    hits = passed = 0
    for _ in range(1500):
        n = rng.randrange(4, 7)
        vpts = rng.sample([(x, y) for x in range(6) for y in range(6)], n)
        possible = list(itertools.combinations(range(n), 2))
        g = Graph(n, rng.sample(possible, rng.randrange(3, min(7, len(possible)) + 1)))
        bends = [[grid() for _ in range(rng.randrange(3))] for _ in g.edges]
        d = PlanarDrawing(g, vpts, [[vpts[u], *mid, vpts[v]] for (u, v), mid in zip(g.edges, bends)])
        try:
            d.crossings()
        except GeneralPositionError:
            continue
        e = rng.randrange(g.edge_count)
        base_den, _, base = d.image()
        found = _edge_crossings(base)
        old = [
            (Fraction(x, q * base_den), Fraction(y, q * base_den))
            for (i, j), h in found.items()
            if e not in (i, j)
            for x, y, q in (h if i == j else [p for p, _ in h])
        ]
        if old and rng.random() < 0.5:
            px, py = rng.choice(old)
            cx, cy = grid()
            # straight through the point, or bent at it
            mid = [(cx, cy), (2 * px - cx, 2 * py - cy)] if rng.random() < 0.7 else [(px, py)]
        else:
            mid = [grid() for _ in range(rng.randrange(1, 3))]
        u, v = g.edges[e]
        moved = d.with_polyline(e, [vpts[u], *mid, vpts[v]])
        den, image_vpts, image = moved.image()
        try:
            _check_polyline_shape(image_vpts, g.edges, image, e)
            _check_vertices_on_edge(image_vpts, g.edges, image, e)
        except GeneralPositionError:
            continue
        new = moved.edge_polylines[e]
        meets = any(on_segment(p, a, b) for p in old for a, b in zip(new, new[1:]))
        try:
            row = _signs(_edge_crossings(image, only=e), den)
        except GeneralPositionError:
            row = None
        if meets:
            hits += 1
            assert row is None
        elif row is not None:
            passed += 1
            fresh = PlanarDrawing(g, moved.vertex_points, moved.edge_polylines)
            assert _compute_crossings(fresh) == {**d.crossings(), **row}
    assert hits >= 20 and passed >= 20


def _random_compatible_target(g, rng):
    """The packed parities of a random drawing of g: its class's base plus
    a random sum of finger-move generators."""
    vec = CompatibilityClass.compute(g).base
    for gen in finger_move_generators(g):
        if rng.getrandbits(1):
            vec ^= gen
    return vec


NINE_WITNESS_CASES = [
    (complete_graph(5), "orientable"),
    (complete_bipartite(3, 3), "orientable"),
    (complete_bipartite(3, 4), "orientable"),
    (complete_bipartite(4, 4), "orientable"),
    (complete_graph(6), "orientable"),
    (complete_graph(7), "orientable"),
    (complete_graph(5), "nonorientable"),
    (complete_bipartite(3, 3), "nonorientable"),
    (complete_graph(6), "nonorientable"),
]


def test_realized_drawings_match_the_pinned_hash():
    # The drawings of the nine genus-one witnesses, then those of 120
    # compatible targets on 5-8 vertices, as the Fraction fingers and the
    # round-by-round order search drew them from the square convex curve.
    h = hashlib.sha256()
    for g, kind in NINE_WITNESS_CASES:
        h.update(serialize_drawing(z2_genus(g, kind).witness.surface_drawing.core).encode())
    rng = random.Random(2027)
    for _ in range(120):
        n = rng.randrange(5, 9)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6])
        vec = _random_compatible_target(g, rng)
        h.update(serialize_drawing(realize_parity(g, ParityMatrix.from_pair_vector(g, vec))).encode())
    assert h.hexdigest() == "13242162ab65b1729275706f64ed00ee9cdb5bb0bf48bc7498872e11b0d04559"


def _fraction_finger_polyline(polyline, vpt, shrink, attempt):
    """finger_polyline as it stood when it computed on the drawing's
    Fraction points."""
    s0, t0 = polyline[0], polyline[1]
    lam = Fraction(2 ** (attempt + 1) - 1, 2 ** (attempt + 2))
    delta = Fraction(1, 64 << attempt // 4)
    pm = (s0[0] + (lam - delta) * (t0[0] - s0[0]), s0[1] + (lam - delta) * (t0[1] - s0[1]))
    pp = (s0[0] + (lam + delta) * (t0[0] - s0[0]), s0[1] + (lam + delta) * (t0[1] - s0[1]))
    pc = (s0[0] + lam * (t0[0] - s0[0]), s0[1] + lam * (t0[1] - s0[1]))
    u = (pc[0] - vpt[0], pc[1] - vpt[1])
    if u == (Fraction(0), Fraction(0)):
        raise GeneralPositionError("finger base point at the vertex")
    side = Fraction(1, 8 << shrink)
    ratio = side / max(abs(u[0]), abs(u[1]))
    alpha = Fraction(2) ** (ratio.numerator.bit_length() - ratio.denominator.bit_length())
    if alpha > ratio:
        alpha /= 2
    mouth = (vpt[0] + alpha * Fraction(17, 16) * u[0], vpt[1] + alpha * Fraction(17, 16) * u[1])
    rho = alpha / 16
    b1 = (mouth[0] - rho * u[1], mouth[1] + rho * u[0])
    b2 = (mouth[0] + rho * u[1], mouth[1] - rho * u[0])
    w = side * Fraction(9, 8)
    h = w * Fraction(32 + attempt, 32)
    vecs = [(w, h), (-w, h), (-w, -h), (w, -h)]
    start = _loop_start(u, vecs)
    corners = [
        (vpt[0] + vecs[(start + k) % 4][0], vpt[1] + vecs[(start + k) % 4][1])
        for k in range(4)
    ]
    return [s0, pm, b1, *corners, b2, pp, *polyline[1:]]


def test_integer_finger_equals_the_fraction_finger():
    # The same rational points, on the integer image of convex drawings,
    # of rational affine images of them (whose lcm is no power of two),
    # of finger-moved drawings and of a base point on the vertex; and
    # den << k is the lcm of den and the new points' denominators.
    rng = random.Random(49)
    drawings = []
    for g in (complete_graph(5), complete_bipartite(3, 4), complete_graph(6)):
        order = list(range(g.vertex_count))
        rng.shuffle(order)
        d = convex_drawing(g, order)
        drawings += [d, _affine(d, rng)]
        for _ in range(3):
            e = rng.randrange(g.edge_count)
            d = apply_finger_move(d, e, rng.choice([w for w in range(g.vertex_count) if w not in g.edges[e]]))
        drawings += [d, _affine(d, rng)]
    # the finger's base point of attempt 0 falls on vertex 2
    drawings.append(PlanarDrawing(Graph(3, [(0, 1)]), [(0, 0), (4, 0), (1, 0)], [[(0, 0), (4, 0)]]))
    odd_lcm = degenerate = 0
    for d in drawings:
        den, (vpts, *pls) = integer_image([d.vertex_points, *d.edge_polylines])
        odd_lcm += den & (den - 1) != 0
        g = d.graph
        for _ in range(12):
            e = rng.randrange(g.edge_count)
            v = rng.choice([w for w in range(g.vertex_count) if w not in g.edges[e]])
            shrink, attempt = rng.randrange(6), rng.randrange(24)
            if g.vertex_count == 3:
                shrink = attempt = 0
            try:
                expect = _fraction_finger_polyline(d.edge_polylines[e], d.vertex_points[v], shrink, attempt)
            except GeneralPositionError as err:
                degenerate += 1
                with pytest.raises(GeneralPositionError, match=str(err)):
                    finger_polyline(pls[e], vpts[v], den, shrink, attempt)
                continue
            k, got = finger_polyline(pls[e], vpts[v], den, shrink, attempt)
            assert all(type(c) is int for p in got for c in p)
            assert [(Fraction(x, den << k), Fraction(y, den << k)) for x, y in got] == expect
            assert den << k == math.lcm(den, *(c.denominator for p in expect for c in p))
    assert odd_lcm >= 6 and degenerate > 0


def test_a_moved_drawing_carries_its_integer_image():
    # A finger move's drawing carries the image it was checked on, equal to
    # the image built afresh from its rational points, also where the lcm
    # is no power of two; a plain rerouted copy builds its own.
    rng = random.Random(51)
    for g in (complete_graph(5), complete_bipartite(3, 3)):
        d = _affine(convex_drawing(g), rng)
        d.crossings()
        for _ in range(4):
            e = rng.randrange(g.edge_count)
            d = apply_finger_move(d, e, rng.choice([w for w in range(g.vertex_count) if w not in g.edges[e]]))
            assert d._image is not None
            den, (vpts, *pls) = integer_image([d.vertex_points, *d.edge_polylines])
            assert d.image() == (den, vpts, pls)
            assert den & (den - 1) != 0
        copy = d.with_polyline(0, d.edge_polylines[0])
        assert copy._image is None
        den, (vpts, *pls) = integer_image([copy.vertex_points, *copy.edge_polylines])
        assert copy.image() == (den, vpts, pls)


def _round_by_round_order(g, elim, target):
    """_lightest_convex_order as it stood when each round scored every swap
    by a pivot pass over its chord parities, until a round improved
    nothing."""
    ends = _pair_ends(g)

    def weight(order):
        return _light_solution(elim, _chord_parities(ends, order) ^ target).bit_count()

    order = list(range(g.vertex_count))
    best = weight(order)
    improved = True
    while improved and best:
        improved = False
        for a in range(len(order)):
            for b in range(a + 1, len(order)):
                order[a], order[b] = order[b], order[a]
                w = weight(order)
                if w < best:
                    best, improved = w, True
                else:
                    order[a], order[b] = order[b], order[a]
    return order


def test_order_search_matches_the_round_by_round_reference():
    # The same order, and its certificate is the light solve of its chord
    # parities, for random compatible targets on random and complete graphs.
    rng = random.Random(50)
    graphs = [g for g, _ in NINE_WITNESS_CASES[:6]] + [Graph(1, []), Graph(2, [(0, 1)])]
    for _ in range(80):
        n = rng.randrange(4, 9)
        graphs.append(Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.6]))
    searched = 0
    for g in graphs:
        elim = Gf2Elimination(finger_move_generators(g))
        for _ in range(3):
            vec = _random_compatible_target(g, rng)
            order, cert = _lightest_convex_order(g, elim, vec)
            assert order == _round_by_round_order(g, elim, vec)
            assert cert == _light_solution(elim, _chord_parities(_pair_ends(g), order) ^ vec)
            searched += order != list(range(g.vertex_count))
    assert searched > 50


def test_order_search_keeps_no_list_of_the_swaps():
    # The swaps are walked one by one: a list of all n (n - 1) / 2 of them
    # held about 124 MB at n = 2000, isolated vertices included.
    g = Graph(2000, [(0, 1), (2, 3)])
    tracemalloc.start()
    try:
        res = z2_embeddable_orientable(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "yes"
    assert peak < 16 << 20


def test_finger_moves_that_change_no_parity_are_not_eliminated():
    # On isolated vertices nearly every finger move changes no parity.
    # Eliminated, each would leave a kernel vector as wide as its index,
    # so the elimination would hold memory quadratic in n (31.7 MB here).
    g = Graph(10000, [(0, 1), (2, 3)])
    tracemalloc.start()
    try:
        res = z2_embeddable_orientable(g, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.status == "yes"
    assert peak < 12 << 20


def test_membership_eliminates_only_the_finger_moves_that_change_a_parity():
    # The certificate still has one coefficient per finger move; the moves
    # that change no parity get 0 without being eliminated (26.5 MB here
    # when they were).
    g = Graph(10000, [(0, 1), (2, 3)])
    cls = CompatibilityClass.compute(g)
    tracemalloc.start()
    try:
        cert = cls.membership(zero_target(g))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert == [0] * len(finger_move_labels(g))
    assert peak < 8 << 20


def test_membership_equals_the_solve_over_every_finger_move():
    rng = random.Random(52)
    answers = Counter()
    for _ in range(200):
        n = rng.randrange(2, 10)
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4])
        cls = CompatibilityClass.compute(g)
        gens = finger_move_generators(g)
        for t in range(2):
            vec = cls.base if t else rng.getrandbits(len(g.pairs))
            if t:
                for gen in gens:
                    vec ^= gen if rng.random() < 0.5 else 0
            cert = cls.membership(ParityMatrix.from_pair_vector(g, vec))
            assert cert == solve_gf2(gens, cls.base ^ vec)
            answers[cert is None] += 1
    assert answers[True] > 20 and answers[False] > 20


def _plane_compat_graphs(rng):
    """Random graphs of the sizes the plane_compat benchmark draws: 6-9
    vertices, ten edge counts from n to 3n - 3 for each."""
    for n in range(6, 10):
        for j in range(10):
            possible = list(itertools.combinations(range(n), 2))
            rng.shuffle(possible)
            yield Graph(n, possible[: n + (2 * n - 3) * j // 9])


def test_convex_drawing_hands_over_the_table_and_image_of_a_fresh_drawing():
    # convex_drawing decides its retry on the int points and keeps that
    # segment pass's table and those points as the image; a drawing built
    # afresh from the same points computes both itself.
    # The retried graphs leave the unperturbed point; K5, the control, does not.
    retried = [complete_graph(9), complete_bipartite(3, 7), complete_bipartite(4, 5), complete_bipartite(5, 5)]
    assert convex_drawing(complete_graph(5)).vertex_points[1] == _unperturbed_point_1(5)
    rng = random.Random(53)
    graphs = retried + [g for _ in range(3) for g in _plane_compat_graphs(rng)]
    for g in graphs:
        d = convex_drawing(g)
        if g in retried:
            assert d.vertex_points[1] != _unperturbed_point_1(g.vertex_count)
        fresh = PlanarDrawing(g, d.vertex_points, d.edge_polylines)
        assert d.crossings() == _compute_crossings(fresh)
        assert d.image() == fresh.image()


def test_a_retried_convex_drawing_runs_the_vertex_checks_once(monkeypatch):
    # K9's first perturbation has three concurrent chords; only the
    # accepted one gets the Fraction vertex checks, one per edge.  K5, the
    # control, takes no retry.
    assert convex_drawing(complete_graph(5)).vertex_points[1] == _unperturbed_point_1(5)
    g = complete_graph(9)
    calls = []
    check = drawing_module._check_vertices_on_edge

    def counted(vpts, edges, polylines, i):
        calls.append(i)
        return check(vpts, edges, polylines, i)

    monkeypatch.setattr(drawing_module, "_check_vertices_on_edge", counted)
    d = convex_drawing(g)
    assert d.vertex_points[1] != _unperturbed_point_1(9)
    assert calls == list(range(g.edge_count))


def _parabola_drawing(g, order):
    """convex_drawing as it stood with position k at (x, x^2): the accepted
    perturbation and its drawing, every check of crossings() deciding the
    retry."""
    for k in range(64):
        pts = [None] * g.vertex_count
        for pos, w in enumerate(order):
            x = 101 * pos + (k * (pos * pos + 1)) % 101
            pts[w] = (x, x * x)
        d = PlanarDrawing(g, pts, [[pts[u], pts[v]] for u, v in g.edges])
        try:
            d.crossings()
        except GeneralPositionError:
            continue
        return k, d
    raise GeneralPositionError("could not reach general position by perturbation")


def test_convex_drawing_is_the_affine_image_of_the_parabola_drawing():
    # (x, y) -> (s x, y - 2cx + c^2) has determinant s > 0, so the square
    # curve accepts the perturbation that y = x^2 accepts, at the image
    # points, with the same crossing table.
    rng = random.Random(2032)
    cases = [(complete_graph(9), list(range(9))), (complete_bipartite(5, 5), list(range(10)))]
    for _ in range(240):
        n = rng.randrange(1, 13)
        density = rng.random()
        g = Graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density])
        order = list(range(n))
        rng.shuffle(order)
        cases.append((g, order))
    retried = []
    for g, order in cases:
        n = g.vertex_count
        k, old = _parabola_drawing(g, order)
        c, s = 101 * (n - 1) // 2, max(1, 101 * n // 4)
        image = [(s * x, y - 2 * c * x + c * c) for x, y in old.vertex_points]
        d = convex_drawing(g, order)
        assert d.vertex_points == image
        assert d.edge_polylines == [[image[u], image[v]] for u, v in g.edges]
        assert d.crossings() == old.crossings()
        retried.append(k > 0)
    # K9 and K5,5 have concurrent chords at the first perturbation
    assert retried[:2] == [True, True] and sum(retried) >= 10


def test_k7_convex_chords_have_156_box_pairs():
    # The square curve keeps chord boxes apart: 175 pairs met on y = x^2.
    _, _, polylines = convex_drawing(complete_graph(7)).image()
    assert len(box_pairs(polylines)) == 156


def test_convex_drawing_refuses_orders_that_are_no_permutation():
    g = complete_graph(4)
    for order in ([0.0, 1.0, 2.0, 3.0], [False, True, 2, 3], [0, 1, 2], [0, 1, 2, 2]):
        with pytest.raises(ValueError, match="^order must be a permutation of the vertices$"):
            convex_drawing(g, order)
    # an iterator is read once
    assert convex_drawing(g, iter([0, 2, 1, 3])).vertex_points == convex_drawing(g, [0, 2, 1, 3]).vertex_points


def test_a_finger_move_that_runs_out_raises_general_position_error(monkeypatch):
    # K4 with the parities of one finger move needs that move; when every
    # attempt fails, the error is the general-position one, not a guard.
    g = complete_graph(4)
    target = crossing_parity_matrix(apply_finger_move(convex_drawing(g), 0, 2))
    attempts = []

    def refuse(*args):
        attempts.append(args)
        raise GeneralPositionError("refused")

    monkeypatch.setattr(drawing_module, "finger_polyline", refuse)
    with pytest.raises(GeneralPositionError, match="^finger move failed for edge 0, vertex 2: refused$"):
        realize_parity(g, target)
    assert len(attempts) == 24


def _all_pairs_vertex_check(vpts, edges, polylines, i):
    """_check_vertices_on_edge as it stood with one exact orientation per
    vertex and segment, and no box test in front of it."""
    pl = polylines[i]
    segs = list(zip(pl, pl[1:]))
    interior_pts = pl[1:-1]
    ends = edges[i]
    for w, p in enumerate(vpts):
        for a, b in segs:
            if on_segment(p, a, b) and p != a and p != b:
                raise GeneralPositionError(f"vertex {w} inside edge {i}")
        if p in interior_pts:
            raise GeneralPositionError(f"vertex {w} at a bend of edge {i}")
        if w not in ends and p in (pl[0], pl[-1]):
            raise GeneralPositionError(f"vertex {w} at endpoint of non-incident edge {i}")


def _planted_vertex(rng, pls):
    """A point planted against a random segment of a random polyline:
    inside it, on its box's edge but off it, collinear past one of its
    ends, at a bend, or at an end of the polyline."""
    pl = rng.choice(pls)
    s = rng.randrange(len(pl) - 1)
    (ax, ay), (bx, by) = pl[s], pl[s + 1]
    kind = rng.choice(["inside", "box-edge", "past-end", "bend", "end"])
    if kind == "inside":
        t = Fraction(rng.randrange(1, 4), 4)
        return (ax + t * (bx - ax), ay + t * (by - ay))
    if kind == "box-edge":
        t = Fraction(rng.randrange(0, 5), 4)
        return rng.choice([(ax, ay + t * (by - ay)), (ax + t * (bx - ax), by)])
    if kind == "past-end":
        t = rng.choice([Fraction(-1, 2), Fraction(3, 2), Fraction(2)])
        return (ax + t * (bx - ax), ay + t * (by - ay))
    if kind == "bend" and len(pl) > 2:
        return rng.choice(pl[1:-1])
    return rng.choice([pl[0], pl[-1]])


def test_box_gated_vertex_checks_match_the_all_pairs_reference():
    # Random polylines on a half-integer grid, so that many segments are
    # axis-parallel and their boxes are flat, and planted vertices on and
    # around them.  Every edge's check gives the reference's message, or a
    # pass as the reference does, on the Fraction points and on their
    # integer image.
    rng = random.Random(31)

    def grid():
        return (Fraction(rng.randrange(9), 2), Fraction(rng.randrange(9), 2))

    seen = Counter()
    for _ in range(300):
        n = rng.randrange(2, 5)
        vpts = [grid() for _ in range(n)]
        edges = sorted({tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randrange(1, 4))})
        pls = [[vpts[u], *(grid() for _ in range(rng.randrange(3))), vpts[v]] for u, v in edges]
        vpts += [_planted_vertex(rng, pls) for _ in range(rng.randrange(1, 4))]
        _, (image_vpts, *image) = integer_image([vpts, *pls])
        for i in range(len(edges)):
            want = _outcome(_all_pairs_vertex_check, vpts, edges, pls, i)
            assert _outcome(_all_pairs_vertex_check, image_vpts, edges, image, i) == want
            assert _outcome(_check_vertices_on_edge, vpts, edges, pls, i) == want
            assert _outcome(_check_vertices_on_edge, image_vpts, edges, image, i) == want
            seen[next((k for k in ("inside", "bend", "endpoint") if k in want), None) if want else "pass"] += 1
    assert set(seen) == {"pass", "inside", "bend", "endpoint"}, seen
