import itertools
import random

import pytest

from surfembed.drawing import (
    ParityMatrix,
    PlanarDrawing,
    convex_drawing,
    crossing_parity_matrix,
    realize_parity,
    signed_crossing_matrix,
)
from surfembed.gf2 import BitMatrix, factor_even, factor_odd, hyperbolic_matrix_gf2, rank_gf2
from surfembed.graph import Graph, complete_bipartite, complete_graph, independent_pairs
from surfembed.intmat import IntMatrix, factor_alternating, rank_q, symplectic_matrix_int
from surfembed.layout import verify_geometric
from surfembed.surface import (
    SurfaceDrawing,
    SurfaceError,
    SurfaceSpec,
    construct_z2_embedding,
    construct_z_embedding,
    extract_matrix,
    parse_surface_drawing,
    serialize_surface_drawing,
    verify_z,
    verify_z2,
)


def pad_rows(y, rows):
    out = BitMatrix(rows, y.cols)
    for i in range(y.rows):
        out.data[i] = y.data[i]
    return out


def test_surface_spec_basics():
    s = SurfaceSpec("S", 2)
    assert s.ribbon_count == 4 and s.euler == -3
    m = SurfaceSpec("M", 1)
    assert m.ribbon_count == 1 and m.euler == 0
    with pytest.raises(SurfaceError):
        SurfaceSpec("M", 0)
    with pytest.raises(SurfaceError):
        SurfaceSpec("X", 1)


def test_ribbon_form_and_gram_match_the_matrices():
    # form(a, b) = a^T J b and gram(ys) = Y^T J Y for the matrix Y with
    # columns ys, J = H_g on S_g and J = I on M_m, where entry (0,0) of
    # gram is set when Y^T Y is even.
    rng = random.Random(30)
    for spec in (SurfaceSpec("S", 1), SurfaceSpec("S", 2), SurfaceSpec("M", 1),
                 SurfaceSpec("M", 2), SurfaceSpec("M", 3)):
        d = spec.ribbon_count
        j = hyperbolic_matrix_gf2(spec.genus) if spec.orientable else BitMatrix.identity(d)

        def reference(ys):
            rows = [sum(((v >> k) & 1) << e for e, v in enumerate(ys)) for k in range(d)]
            y = BitMatrix(d, len(ys), rows)
            return y.transpose() @ j @ y

        everything = list(range(1 << d))
        full = reference(everything)
        assert all(spec.form(a, b) == full.get(a, b) for a in everything for b in everything)
        even_weight = [v for v in everything if v.bit_count() % 2 == 0]
        samples = [everything, even_weight, []]
        samples += [rng.sample(everything, rng.randrange(1, 1 << d)) for _ in range(20)]
        for ys in samples:
            want = reference(ys)
            if not spec.orientable and ys and want.is_even():
                want.set(0, 0, 1)
            assert spec.gram(ys) == want, (spec, ys)
        if not spec.orientable:
            assert spec.gram(even_weight).get(0, 0) == 1


def test_integer_form_matches_the_symplectic_matrix():
    for genus in (1, 2):
        spec = SurfaceSpec("S", genus)
        vectors = [list(v) for v in itertools.product((-2, -1, 0, 1), repeat=2 * genus)]
        y = IntMatrix(2 * genus, len(vectors), [list(row) for row in zip(*vectors)])
        want = y.transpose() @ symplectic_matrix_int(genus) @ y
        for i, ya in enumerate(vectors):
            for j, yb in enumerate(vectors):
                assert spec.form_z(ya, yb) == want.data[i][j]


def test_zero_factor_reduces_to_planar():
    g = complete_graph(4)
    f = convex_drawing(g)
    y = BitMatrix(2, g.edge_count)
    sd = construct_z2_embedding(g, f, y, SurfaceSpec("S", 1))
    rep = verify_z2(sd)
    core = crossing_parity_matrix(f)
    for pr in independent_pairs(g):
        assert rep.pairs[(pr.i, pr.j)] == core.get(pr.i, pr.j)
    assert not rep.is_embedding  # convex K4 has one crossing pair


def test_single_interlaced_pass_cancels_core_parity():
    # Two independent edges crossing once; tubes through the two ribbons of
    # one handle cancel the parity.
    g = Graph(4, [(0, 2), (1, 3)])
    f = convex_drawing(g)
    assert crossing_parity_matrix(f).get(0, 1) == 1
    y = BitMatrix.from_lists([[1, 0], [0, 1]])
    sd = construct_z2_embedding(g, f, y, SurfaceSpec("S", 1))
    rep = verify_z2(sd)
    assert rep.pairs[(0, 1)] == 0 and rep.is_embedding


def _compatible_even_target(g, rng, genus):
    """A random even matrix of rank <= 2*genus compatible with g, as a
    (drawing, bitmatrix) pair, or None."""
    from surfembed.drawing import CompatibilityClass

    m = g.edge_count
    pairs = independent_pairs(g)
    cls = CompatibilityClass.compute(g)
    for _ in range(200):
        y0 = BitMatrix(2 * genus, m)
        for i in range(2 * genus):
            y0.data[i] = rng.getrandbits(m)
        a = y0.transpose() @ hyperbolic_matrix_gf2(genus) @ y0
        target = ParityMatrix(g, _sym_from(a, m))
        if cls.membership(target) is not None:
            return a, target
    return None


def _sym_from(a, m):
    b = BitMatrix(m, m)
    for i in range(m):
        for j in range(m):
            if i != j:
                b.set(i, j, a.get(i, j))
    return b


def test_k5_on_torus_z2_pipeline():
    g = complete_graph(5)
    rng = random.Random(30)
    a, target = _compatible_even_target(g, rng, 1)
    f = realize_parity(g, target)
    y = pad_rows(factor_even(a), 2)
    sd = construct_z2_embedding(g, f, y, SurfaceSpec("S", 1))
    rep = verify_z2(sd)
    assert rep.is_embedding


def test_k33_nonorientable_z2_pipeline():
    g = complete_bipartite(3, 3)
    m = g.edge_count
    rng = random.Random(31)
    from surfembed.drawing import CompatibilityClass

    cls = CompatibilityClass.compute(g)
    found = None
    while found is None:
        y0 = BitMatrix(1, m)
        y0.data[0] = rng.getrandbits(m)
        a = y0.transpose() @ y0
        if not a.is_even():
            target = ParityMatrix(g, _sym_from(a, m))
            if cls.membership(target) is not None:
                found = (a, target)
    a, target = found
    f = realize_parity(g, target)
    y = pad_rows(factor_odd(a), 1)
    sd = construct_z2_embedding(g, f, y, SurfaceSpec("M", 1))
    rep = verify_z2(sd)
    assert rep.is_embedding


def test_convex_k4_z_pipeline_on_torus():
    g = complete_graph(4)
    f = convex_drawing(g)
    a = signed_crossing_matrix(f)
    assert rank_q(a) == 2
    b = factor_alternating(a)
    sd = construct_z_embedding(g, f, b, SurfaceSpec("S", 1))
    rep = verify_z(sd)
    assert rep.is_embedding
    # reducing the integer report mod 2 matches the z2 report of the bits
    bits = [[abs(x) % 2 for x in vec] for vec in sd.passes]
    sd2 = SurfaceDrawing(sd.surface, sd.core, bits, sd.tube_order, mode="z2")
    rep2 = verify_z2(sd2)
    for key, total in rep.pairs.items():
        assert abs(total) % 2 == rep2.pairs[key]


def test_verify_z_rejects_nonorientable():
    g = complete_graph(4)
    f = convex_drawing(g)
    sd = construct_z2_embedding(g, f, BitMatrix(1, g.edge_count), SurfaceSpec("M", 1))
    with pytest.raises(SurfaceError):
        verify_z(sd)
    with pytest.raises(SurfaceError):
        construct_z_embedding(g, f, IntMatrix(1, g.edge_count), SurfaceSpec("M", 1))


def test_extract_roundtrip_orientable():
    g = complete_graph(5)
    rng = random.Random(32)
    a, target = _compatible_even_target(g, rng, 1)
    f = realize_parity(g, target)
    y = pad_rows(factor_even(a), 2)
    sd = construct_z2_embedding(g, f, y, SurfaceSpec("S", 1))
    got, cert = extract_matrix(sd)
    assert cert is not None
    assert rank_gf2(got) <= 2
    assert got.is_even()
    for pr in independent_pairs(g):
        assert got.get(pr.i, pr.j) == a.get(pr.i, pr.j)


def test_extract_nonorientable_flip_rule():
    g = complete_graph(4)
    f = realize_parity(g, ParityMatrix(g, BitMatrix(g.edge_count, g.edge_count)))
    sd = construct_z2_embedding(g, f, BitMatrix(2, g.edge_count), SurfaceSpec("M", 2))
    got, cert = extract_matrix(sd)
    # empty passes give the zero Gram matrix; the flip makes it odd
    assert got.get(0, 0) == 1
    assert not got.is_even()
    assert rank_gf2(got) <= 2
    assert cert is not None


def test_extract_z_mode():
    g = complete_graph(4)
    f = convex_drawing(g)
    a = signed_crossing_matrix(f)
    b = factor_alternating(a)
    sd = construct_z_embedding(g, f, b, SurfaceSpec("S", 1))
    got, cert = extract_matrix(sd)
    assert cert is not None
    assert got.is_skew()
    assert rank_q(got) <= 2
    for pr in independent_pairs(g):
        assert got.data[pr.i][pr.j] == a.data[pr.i][pr.j]


def test_serialize_parse_roundtrip():
    g = complete_graph(4)
    f = convex_drawing(g)
    a = signed_crossing_matrix(f)
    b = factor_alternating(a)
    sd = construct_z_embedding(g, f, b, SurfaceSpec("S", 1))
    text = serialize_surface_drawing(sd)
    sd2 = parse_surface_drawing(text, mode="z")
    assert sd2.surface == sd.surface
    assert sd2.passes == sd.passes
    assert sd2.tube_order == sd.tube_order
    assert serialize_surface_drawing(sd2) == text
    rep2 = verify_z(sd2)
    assert rep2.is_embedding


def test_geometric_agrees_on_planar_core():
    g = complete_graph(4)
    f = convex_drawing(g)
    sd = construct_z2_embedding(g, f, BitMatrix(2, g.edge_count), SurfaceSpec("S", 1))
    rep_c = verify_z2(sd)
    rep_g = verify_geometric(sd, "z2")
    assert rep_g.pairs == rep_c.pairs


def test_geometric_single_pass_basis_pairings():
    # one crossing pair, tubes through single ribbons: all basis cases
    g = Graph(4, [(0, 2), (1, 3)])
    f = convex_drawing(g)
    s = SurfaceSpec("S", 1)
    for ya, yb in [((1, 0), (0, 1)), ((0, 1), (1, 0)), ((1, 0), (1, 0)), ((1, 1), (1, 1))]:
        y = BitMatrix.from_lists([[ya[0], yb[0]], [ya[1], yb[1]]])
        sd = construct_z2_embedding(g, f, y, s)
        rep_c = verify_z2(sd)
        rep_g = verify_geometric(sd, "z2")
        assert rep_g.pairs == rep_c.pairs, (ya, yb)


def test_geometric_signed_basis_pairings():
    g = Graph(4, [(0, 2), (1, 3)])
    f = convex_drawing(g)
    s = SurfaceSpec("S", 1)
    cases = [
        ((1, 0), (0, 1)),
        ((0, 1), (1, 0)),
        ((1, 0), (0, -1)),
        ((-1, 0), (0, 1)),
        ((2, 0), (0, 1)),
        ((1, 1), (1, -1)),
        ((0, 0), (1, 1)),
    ]
    for ya, yb in cases:
        b = IntMatrix(2, 2, [[ya[0], yb[0]], [ya[1], yb[1]]])
        sd = construct_z_embedding(g, f, b, s)
        rep_c = verify_z(sd)
        rep_g = verify_geometric(sd, "z")
        assert rep_g.pairs == rep_c.pairs, (ya, yb)


def test_geometric_moebius_pairings():
    g = Graph(4, [(0, 2), (1, 3)])
    f = convex_drawing(g)
    for m, ya, yb in [
        (1, (1,), (1,)),
        (2, (1, 0), (0, 1)),
        (2, (1, 1), (1, 0)),
        (3, (1, 1, 1), (1, 1, 0)),
    ]:
        y = BitMatrix.from_lists([[ya[k], yb[k]] for k in range(m)])
        sd = construct_z2_embedding(g, f, y, SurfaceSpec("M", m))
        rep_c = verify_z2(sd)
        rep_g = verify_geometric(sd, "z2")
        assert rep_g.pairs == rep_c.pairs, (m, ya, yb)


def test_geometric_agrees_random_z2():
    rng = random.Random(33)
    graphs = [complete_graph(4), complete_graph(5), complete_bipartite(3, 3)]
    for trial in range(12):
        g = graphs[trial % len(graphs)]
        m = g.edge_count
        if trial % 2 == 0:
            s = SurfaceSpec("S", rng.randrange(1, 3))
        else:
            s = SurfaceSpec("M", rng.randrange(1, 4))
        y = BitMatrix(s.ribbon_count, m)
        for i in range(s.ribbon_count):
            y.data[i] = rng.getrandbits(m)
        sd = construct_z2_embedding(g, convex_drawing(g), y, s)
        rep_c = verify_z2(sd)
        rep_g = verify_geometric(sd, "z2")
        assert rep_g.pairs == rep_c.pairs


def test_geometric_agrees_random_z():
    rng = random.Random(34)
    graphs = [complete_graph(4), complete_graph(5)]
    for trial in range(8):
        g = graphs[trial % len(graphs)]
        m = g.edge_count
        genus = rng.randrange(1, 3)
        s = SurfaceSpec("S", genus)
        b = IntMatrix(
            2 * genus, m, [[rng.randrange(-2, 3) for _ in range(m)] for _ in range(2 * genus)]
        )
        sd = construct_z_embedding(g, convex_drawing(g), b, s)
        rep_c = verify_z(sd)
        rep_g = verify_geometric(sd, "z")
        assert rep_g.pairs == rep_c.pairs


def test_geometric_agrees_z_with_random_orientations():
    # Passes count along the edge's orientation, which the layout must
    # follow when it lays a lane along the stored polyline direction.
    rng = random.Random(35)
    graphs = [complete_graph(4), complete_graph(5), complete_bipartite(3, 3)]
    for trial in range(12):
        g = graphs[trial % len(graphs)]
        base = convex_drawing(g)
        orientations = [rng.choice((1, -1)) for _ in range(g.edge_count)]
        d = PlanarDrawing(g, base.vertex_points, base.edge_polylines, orientations)
        b = factor_alternating(signed_crossing_matrix(d))
        sd = construct_z_embedding(g, d, b, SurfaceSpec("S", b.rows // 2))
        rep_c = verify_z(sd)
        rep_g = verify_geometric(sd, "z")
        assert rep_c.is_embedding
        assert rep_g.pairs == rep_c.pairs, (trial, orientations)
