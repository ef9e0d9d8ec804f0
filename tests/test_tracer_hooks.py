"""The benchmark tracer still finds the hooks it counts through.

surfbench/spans.py wraps package functions from outside, in every module
that binds them.  A refactor that stops calling `classify_segments`,
`intersection_point`, `finger_polyline`, `solve_gf2` or
`independent_pairs` (which `Graph.pairs` calls) through those module
globals, that has `z2_genus` or `z2_embeddable_euler` reach a
search other than through `z2_embeddable_orientable` and
`z2_embeddable_nonorientable` (the `solver.solve` spans, which count
`solver.nodes`) and `_search` (the `solver.search` spans), or that turns
`CompatibilityClass.compute` into something other than a classmethod,
would make its counters read zero; these tests notice without a benchmark
run.
"""

import importlib.util
from pathlib import Path

import pytest

import surfembed
from surfembed.drawing import (
    apply_finger_move,
    convex_drawing,
    crossing_parity_matrix,
    is_compatible_mod2,
)
from surfembed.geom import box_pairs, integer_image
from surfembed.graph import complete_bipartite, complete_graph
from surfembed.solver import z2_embeddable_euler, z2_embeddable_orientable, z2_genus

SPANS = Path(__file__).resolve().parents[1] / "surfbench" / "spans.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("surfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.Tracer()


def test_tracer_counts_finger_attempts_and_drawing_segment_tests():
    g = complete_graph(5)
    target = crossing_parity_matrix(apply_finger_move(convex_drawing(g), 0, 3))
    classify = surfembed.drawing.classify_segments
    tracer = _tracer()
    tracer.install(surfembed)
    try:
        surfembed.drawing.realize_parity(g, target)
    finally:
        tracer.uninstall()
    _, _, counts = tracer.summary()
    assert counts["drawing.realize.calls"] == 1
    assert counts["drawing.finger_attempts"] > 0
    assert counts["geom.segment_tests.drawing"] > 0
    assert surfembed.drawing.classify_segments is classify
    # The row of a finger move that succeeds at its first attempt is
    # classified once, pair by pair, on the candidate's integer image.  The
    # call goes through the module global, whose span holds the counts.
    d = convex_drawing(g)
    e, v = 0, 3
    tracer = _tracer()
    tracer.install(surfembed)
    try:
        moved = surfembed.drawing.apply_finger_move(d, e, v)
    finally:
        tracer.uninstall()
    _, _, counts = tracer.summary()
    assert counts["drawing.finger_move.calls"] == 1
    assert counts["drawing.finger_attempts"] == 1
    _, image = integer_image(moved.edge_polylines)
    assert counts["geom.segment_tests.drawing"] == len(box_pairs(image, only=e))


def test_tracer_counts_the_finger_moves_of_a_k6_witness():
    # realize_parity reaches apply_finger_move and finger_polyline through
    # the drawing module globals.  The integer fingers make the moves,
    # attempts and segment tests that the Fraction fingers made.
    tracer = _tracer()
    tracer.install(surfembed)
    try:
        res = surfembed.solver.z2_genus(complete_graph(6), "orientable")
    finally:
        tracer.uninstall()
    assert (res.status, res.value) == ("found", 1)
    _, _, counts = tracer.summary()
    assert counts["drawing.realize.calls"] == 1
    assert counts["drawing.finger_move.calls"] == 4
    assert counts["drawing.finger_attempts"] == 4
    assert counts["geom.segment_tests.drawing"] == 351


def test_tracer_counts_layout_segment_tests_and_intersection_points():
    sd = z2_embeddable_orientable(complete_graph(5), 1).witness.surface_drawing
    tracer = _tracer()
    tracer.install(surfembed)
    try:
        report = surfembed.layout.verify_geometric(sd)
    finally:
        tracer.uninstall()
    assert report.is_embedding
    _, _, counts = tracer.summary()
    assert counts["layout.verify_geometric.calls"] == 1
    assert counts["geom.segment_tests.layout"] > 0
    assert counts["geom.intersection_points"] > 0


def test_tracer_counts_one_class_and_one_solve_per_compatibility_test():
    g = complete_graph(5)
    target = crossing_parity_matrix(apply_finger_move(convex_drawing(g), 0, 3))
    tracer = _tracer()
    tracer.install(surfembed)
    try:
        cert = surfembed.drawing.is_compatible_mod2(g, target)
    finally:
        tracer.uninstall()
    assert cert is not None
    assert surfembed.drawing.is_compatible_mod2 is is_compatible_mod2
    _, _, counts = tracer.summary()
    assert counts["drawing.is_compatible.calls"] == 1
    assert counts["drawing.class_compute.calls"] == 1
    assert counts["gf2.solve.calls"] == 1


def test_tracer_sees_every_segment_pair_of_the_class_table():
    # is_compatible_mod2 reads its class's base off the convex drawing's
    # crossing table.  The table's segment pass runs on the integer image
    # of the drawing; it still classifies, through the module global,
    # exactly the pairs whose boxes meet among the Fraction polylines.
    g = complete_graph(6)
    d = convex_drawing(g)
    target = crossing_parity_matrix(d)
    tracer = _tracer()
    tracer.install(surfembed)
    try:
        surfembed.drawing.is_compatible_mod2(g, target)
    finally:
        tracer.uninstall()
    _, _, counts = tracer.summary()
    assert counts["drawing.class_compute.calls"] == 1
    assert counts["geom.segment_tests.drawing"] == len(box_pairs(d.edge_polylines))
    assert counts["geom.intersection_points"] == sum(len(hits) for hits in d.crossings().values())


def test_a_search_that_answers_no_uses_no_geometry(monkeypatch):
    # The solver's class takes its base from chord interleaving: a "no"
    # builds no drawing, so it classifies no segment pair, and it lists
    # the independent pairs once, in its one class computation.  The
    # set-up needs only the number of finger moves, so it builds none of
    # their generators.
    built = []
    generators = surfembed.drawing.finger_move_generators
    monkeypatch.setattr(surfembed.drawing, "finger_move_generators", lambda g: built.append(g) or generators(g))
    tracer = _tracer()
    tracer.install(surfembed)
    try:
        res = surfembed.solver.z2_embeddable_orientable(complete_graph(8), 1)
    finally:
        tracer.uninstall()
    assert res.status == "no"
    _, _, counts = tracer.summary()
    assert counts["drawing.class_compute.calls"] == 1
    assert counts["graph.independent_pairs_calls"] == 1
    assert counts["geom.segment_tests.drawing"] == 0
    assert counts["drawing.crossings.calls"] == 0
    assert len(built) == 0


def test_a_witness_and_both_verifiers_list_the_pairs_once():
    # The solver, realize_parity and both verifiers read the pairs off the
    # graph, which lists them on first use through the module global.
    tracer = _tracer()
    tracer.install(surfembed)
    try:
        res = surfembed.solver.z2_genus(complete_graph(6), "orientable")
        sd = res.witness.surface_drawing
        assert surfembed.surface.verify_z2(sd).is_embedding
        assert surfembed.layout.verify_geometric(sd, "z2").is_embedding
    finally:
        tracer.uninstall()
    assert (res.status, res.value) == ("found", 1)
    _, _, counts = tracer.summary()
    assert counts["graph.independent_pairs_calls"] == 1


@pytest.mark.parametrize(
    "call, counts",
    [
        # S0 is "no" in 1 node, S1 "yes" in 20
        (lambda: z2_genus(complete_bipartite(3, 3), "orientable"), (2, 2, 21, 1)),
        # S0 is "no" in 1 node, N1 "yes" in 28
        (lambda: z2_embeddable_euler(complete_graph(5), 1), (2, 2, 29, 1)),
    ],
    ids=["genus", "euler"],
)
def test_tracer_sees_every_search_and_one_class_per_call(call, counts):
    # Every search of the call is a solver.solve span around a
    # solver.search span, and the class of the graph is computed once.
    tracer = _tracer()
    tracer.install(surfembed)
    try:
        call()
    finally:
        tracer.uninstall()
    _, _, seen = tracer.summary()
    names = ("solver.solve.calls", "solver.search.calls", "solver.nodes", "drawing.class_compute.calls")
    assert tuple(seen[name] for name in names) == counts
