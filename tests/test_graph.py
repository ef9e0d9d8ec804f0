import gc
import itertools
import math
import random

import pytest

from surfembed.graph import (
    Graph,
    GraphError,
    complete_bipartite,
    complete_graph,
    independent_pairs,
    parse_graph,
    serialize_graph,
)


def test_a_vertex_count_that_is_no_integer_is_refused():
    for n in (3.0, True, "3"):
        with pytest.raises(GraphError, match="^vertex_count must be an integer$"):
            Graph(n, [(0, 1)])


def test_an_edge_end_that_is_no_integer_is_refused():
    for edges in ([(0.0, 1), (1, 2)], [(0.5, 2), (1, 2)], [(True, 2), (1, 2)], [(0, "1")]):
        with pytest.raises(GraphError, match="has an end that is no integer$"):
            Graph(3, edges)


def test_path_two_edges_has_no_independent_pairs():
    g = Graph(3, [(0, 1), (1, 2)])
    assert independent_pairs(g) == []


def test_pairs_are_the_independent_pairs_listed_once():
    g = complete_bipartite(3, 4)
    before = (repr(g), hash(g))
    assert g.pairs == tuple(independent_pairs(g))
    assert g.pairs is g.pairs
    # plain (i, j) int tuples, which the cyclic GC stops tracking
    assert all(type(p) is tuple and len(p) == 2 and all(type(e) is int for e in p) for p in g.pairs)
    gc.collect()
    assert not gc.is_tracked(g.pairs[0])
    assert (repr(g), hash(g)) == before
    assert g == complete_bipartite(3, 4)
    with pytest.raises(AttributeError):
        g.pairs = ()


def test_k4_independent_pairs_are_the_three_matchings():
    g = complete_graph(4)
    assert len(independent_pairs(g)) == 3
    # Oracle: filter all C(6,2)=15 pairs by disjointness.
    brute = [
        (i, j)
        for i, j in itertools.combinations(range(6), 2)
        if not set(g.edges[i]) & set(g.edges[j])
    ]
    assert independent_pairs(g) == brute


def test_k33_has_18_independent_pairs():
    g = complete_bipartite(3, 3)
    assert len(independent_pairs(g)) == 18


@pytest.mark.parametrize("n", range(4, 9))
def test_kn_independent_pair_count_formula(n):
    g = complete_graph(n)
    assert len(independent_pairs(g)) == 3 * math.comb(n, 4)


def test_independent_pairs_invariant_under_relabeling():
    rng = random.Random(7)
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 3), (1, 4)])
    base = {frozenset((g.edges[i], g.edges[j])) for i, j in independent_pairs(g)}
    for _ in range(20):
        perm = list(range(6))
        rng.shuffle(perm)
        h = Graph(6, [(perm[u], perm[v]) for u, v in g.edges])
        mapped = {
            frozenset(
                (
                    tuple(sorted((perm[a], perm[b]))),
                    tuple(sorted((perm[c], perm[d]))),
                )
            )
            for (a, b), (c, d) in base
        }
        got = {frozenset((h.edges[i], h.edges[j])) for i, j in independent_pairs(h)}
        assert got == mapped


def test_generators():
    assert complete_graph(3).edge_count == 3
    assert complete_graph(5).edge_count == 10
    kb = complete_bipartite(3, 3)
    assert kb.vertex_count == 6
    assert kb.edge_count == 9
    with pytest.raises(GraphError):
        complete_graph(0)
    with pytest.raises(GraphError):
        complete_bipartite(0, 2)


def test_rejects_loops_and_duplicates():
    with pytest.raises(GraphError):
        Graph(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(GraphError):
        Graph(2, [(0, 2)])


def test_parse_serialize_roundtrip():
    g = complete_bipartite(2, 3)
    text = serialize_graph(g)
    h = parse_graph(text)
    assert h.vertex_count == g.vertex_count
    assert h.edges == g.edges
    assert serialize_graph(h) == text


def test_parse_rejects_bad_input():
    with pytest.raises(GraphError):
        parse_graph("graph 2\n0 0\n")
    with pytest.raises(GraphError):
        parse_graph("nope 2\n")
