import contextlib
import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from surfembed import cli, drawing, layout
from surfembed.cli import main
from surfembed.drawing import (
    apply_finger_move,
    convex_drawing,
    crossing_parity_matrix,
    serialize_drawing,
    signed_crossing_matrix,
)
from surfembed.geom import GeneralPositionError
from surfembed.gf2 import BitMatrix, serialize_bitmatrix
from surfembed.graph import complete_bipartite, complete_graph, serialize_graph
from surfembed.intmat import IntMatrix, factor_alternating, serialize_intmatrix
from surfembed.surface import (
    SurfaceSpec,
    VerifyReport,
    construct_z2_embedding,
    serialize_surface_drawing,
)

ROOT = Path(__file__).resolve().parent.parent
_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


def _k5(tmp_path):
    return _write(tmp_path, "k5.g", serialize_graph(complete_graph(5)))


def test_solve_k5_genus_zero_is_no(tmp_path, capsys):
    rc = main(["solve", "--graph", _k5(tmp_path), "--genus", "0"])
    assert rc == 1
    assert capsys.readouterr().out.strip() == "NO"


def test_solve_k5_genus_one_witness_pipeline(tmp_path, capsys):
    wit = str(tmp_path / "k5.sd")
    rc = main(["solve", "--graph", _k5(tmp_path), "--genus", "1", "--witness-out", wit])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[0] == "YES"
    # the witness file is accepted bit-exactly by both verify commands
    assert main(["verify", "--surface-drawing", wit]) == 0
    out = capsys.readouterr().out
    assert out.strip().endswith("EMBEDDING")
    assert main(["verify", "--surface-drawing", wit, "--geometric"]) == 0
    capsys.readouterr()
    # and by extract, whose matrix is compatible
    assert main(["extract", "--surface-drawing", wit]) == 0
    assert capsys.readouterr().out.strip().endswith("COMPATIBLE")


def test_solve_crosscaps_and_euler(tmp_path, capsys):
    g = _write(tmp_path, "k33.g", serialize_graph(complete_bipartite(3, 3)))
    assert main(["solve", "--graph", g, "--crosscaps", "1"]) == 0
    assert main(["solve", "--graph", g, "--euler", "2"]) == 1
    assert main(["solve", "--graph", g, "--euler", "1"]) == 0
    capsys.readouterr()


def test_solve_budget_exhaustion_exit_two(tmp_path, capsys):
    g = _write(tmp_path, "k33.g", serialize_graph(complete_bipartite(3, 3)))
    rc = main(["solve", "--graph", g, "--genus", "1", "--budget-nodes", "2"])
    assert rc == 2
    assert capsys.readouterr().out.strip() == "UNKNOWN"


def test_bound_values(tmp_path, capsys):
    assert main(["bound", "--kmn", "5", "5"]) == 0
    assert capsys.readouterr().out.strip() == "2"
    assert main(["bound", "--k2n", "4"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_bound_takes_the_parts_in_either_order(capsys):
    for argv, value in ((["--kmn", "1", "1"], "0"), (["--kmn", "7", "3"], "2"), (["--kmn", "3", "7"], "2"),
                        (["--kmn", "2", "9"], "0"), (["--k2n", "1"], "0"), (["--k2n", "2"], "0")):
        assert main(["bound", *argv]) == 0
        assert capsys.readouterr().out == value + "\n"


def test_retries_that_run_out_exit_3_with_one_error_line(tmp_path, capsys, monkeypatch):
    def refuse(*args):
        raise GeneralPositionError("refused")

    # a target that needs the finger move of edge 0 around vertex 2
    g = complete_graph(4)
    target = crossing_parity_matrix(apply_finger_move(convex_drawing(g), 0, 2)).values
    gfile = _write(tmp_path, "k4.g", serialize_graph(g))
    mat = _write(tmp_path, "k4.m", serialize_bitmatrix(target))
    out = tmp_path / "k4.d"
    with monkeypatch.context() as patch:
        patch.setattr(drawing, "finger_polyline", refuse)
        assert main(["realize", "--graph", gfile, "--matrix", mat, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and not out.exists()
    assert captured.err.splitlines() == ["error: finger move failed for edge 0, vertex 2: refused"]

    wit = str(tmp_path / "k5.sd")
    assert main(["solve", "--graph", _k5(tmp_path), "--genus", "1", "--witness-out", wit]) == 0
    capsys.readouterr()
    monkeypatch.setattr(layout, "_pick_attachment", refuse)
    assert main(["verify", "--surface-drawing", wit, "--geometric"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: geometric layout failed after retries: refused"]


def test_crossings_roundtrip(tmp_path, capsys):
    d = convex_drawing(complete_graph(5))
    dfile = _write(tmp_path, "k5.d", serialize_drawing(d))
    expected = serialize_bitmatrix(crossing_parity_matrix(d).values)
    assert main(["crossings", "--drawing", dfile]) == 0
    assert capsys.readouterr().out == expected
    assert main(["crossings", "--drawing", dfile, "--signed"]) == 0
    assert capsys.readouterr().out.startswith("int 10 10")


def test_compat_and_realize(tmp_path, capsys):
    g5 = _k5(tmp_path)
    d = convex_drawing(complete_graph(5))
    mat = _write(tmp_path, "k5.m", serialize_bitmatrix(crossing_parity_matrix(d).values))
    zero = _write(tmp_path, "zero.m", serialize_bitmatrix(BitMatrix(10, 10)))

    assert main(["compat", "--graph", g5, "--matrix", mat]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "COMPATIBLE"
    assert main(["compat", "--graph", g5, "--matrix", zero]) == 1
    assert capsys.readouterr().out.strip() == "INCOMPATIBLE"

    out = str(tmp_path / "real.d")
    assert main(["realize", "--graph", g5, "--matrix", mat, "--out", out]) == 0
    capsys.readouterr()
    # realized drawing reproduces the requested parities bit-exactly
    assert main(["crossings", "--drawing", out]) == 0
    assert capsys.readouterr().out == (tmp_path / "k5.m").read_text()
    assert main(["realize", "--graph", g5, "--matrix", zero, "--out", out]) == 1
    capsys.readouterr()


def test_factor_construct_verify_extract_pipeline(tmp_path, capsys):
    # full chain: matrix -> factor -> realized drawing -> torus embedding
    g4 = _write(tmp_path, "k4.g", serialize_graph(complete_graph(4)))
    a = BitMatrix(6, 6)
    a.set(0, 5, 1)
    a.set(5, 0, 1)
    mat = _write(tmp_path, "a.m", serialize_bitmatrix(a))
    assert main(["factor", "--mode", "even", "--matrix", mat]) == 0
    fac = _write(tmp_path, "a.f", capsys.readouterr().out)
    d4 = str(tmp_path / "k4.d")
    assert main(["realize", "--graph", g4, "--matrix", mat, "--out", d4]) == 0
    capsys.readouterr()
    assert main(["construct", "--graph", g4, "--drawing", d4,
                 "--factor", fac, "--surface", "S:1"]) == 0
    sd = _write(tmp_path, "k4.sd", capsys.readouterr().out)
    assert main(["verify", "--surface-drawing", sd]) == 0
    capsys.readouterr()
    assert main(["verify", "--surface-drawing", sd, "--geometric"]) == 0
    capsys.readouterr()
    assert main(["extract", "--surface-drawing", sd]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "gf2 6 6"


def test_factor_odd_construct_verify_pipeline(tmp_path, capsys):
    # odd matrix -> factor --mode odd -> realized drawing -> embedding on
    # M_3: the unit e_0 and the hyperbolic pair of edges 1 and 4 make three
    # units, so the factor has three rows
    g4 = _write(tmp_path, "k4.g", serialize_graph(complete_graph(4)))
    a = BitMatrix(6, 6)
    a.set(0, 0, 1)
    a.set(1, 4, 1)
    a.set(4, 1, 1)
    mat = _write(tmp_path, "a.m", serialize_bitmatrix(a))
    assert main(["factor", "--mode", "odd", "--matrix", mat]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "gf2 3 6"
    fac = _write(tmp_path, "a.f", out)
    d4 = str(tmp_path / "k4.d")
    assert main(["realize", "--graph", g4, "--matrix", mat, "--out", d4]) == 0
    capsys.readouterr()
    assert main(["construct", "--graph", g4, "--drawing", d4,
                 "--factor", fac, "--surface", "M:3"]) == 0
    sd = _write(tmp_path, "k4.sd", capsys.readouterr().out)
    assert main(["verify", "--surface-drawing", sd]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "EMBEDDING"
    assert main(["verify", "--surface-drawing", sd, "--geometric"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "EMBEDDING"


def test_z_pipeline_extract_roundtrip(tmp_path, capsys):
    g4 = _write(tmp_path, "k4.g", serialize_graph(complete_graph(4)))
    d4 = _write(tmp_path, "k4.d", serialize_drawing(convex_drawing(complete_graph(4))))
    b = IntMatrix(6, 6)
    b.data[0][5] = 2
    b.data[5][0] = -2
    mat = _write(tmp_path, "b.m", serialize_intmatrix(b))
    assert main(["factor", "--mode", "alternating", "--matrix", mat]) == 0
    fac = _write(tmp_path, "b.f", capsys.readouterr().out)
    assert main(["construct", "--graph", g4, "--drawing", d4,
                 "--factor", fac, "--surface", "S:1", "--z"]) == 0
    sd = _write(tmp_path, "k4z.sd", capsys.readouterr().out)
    # extraction recovers the skew matrix from the construction
    main(["extract", "--surface-drawing", sd, "--z"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "int 6 6"
    assert lines[1].split()[5] == "2"
    assert lines[6].split()[0] == "-2"


def _unstructured(lines):
    # the payload of `line k = ...` pairs, in order, as the plain output
    payload = [ln for ln in lines if ln.startswith("line ")]
    assert [ln.split(" = ", 1)[0] for ln in payload] == [f"line {k}" for k in range(len(payload))]
    return "".join(ln.split(" = ", 1)[1] + "\n" for ln in payload)


def _passes(lines):
    (line,) = [ln for ln in lines if ln.startswith("passes = ")]
    return int(line.split(" = ")[1])


def test_factor_and_construct_structured(tmp_path, capsys):
    g4 = _write(tmp_path, "k4.g", serialize_graph(complete_graph(4)))
    d4 = _write(tmp_path, "k4.d", serialize_drawing(convex_drawing(complete_graph(4))))
    b = IntMatrix(6, 6)
    b.data[0][5], b.data[5][0] = 3, -3
    b.data[1][2], b.data[2][1] = -1, 1
    mat = _write(tmp_path, "b.m", serialize_intmatrix(b))
    assert main(["factor", "--mode", "alternating", "--matrix", mat]) == 0
    plain = capsys.readouterr().out
    assert main(["factor", "--mode", "alternating", "--matrix", mat, "--structured"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert _unstructured(lines) == plain
    assert _passes(lines) == sum(abs(int(v)) for ln in plain.splitlines()[1:] for v in ln.split())
    fac = _write(tmp_path, "b.f", plain)
    args = ["construct", "--graph", g4, "--drawing", d4, "--factor", fac, "--surface", "S:2", "--z"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    assert main(args + ["--structured"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert _unstructured(lines) == plain
    passes = [ln.split(" : ")[1].split() for ln in plain.splitlines() if ln.startswith("passes ")]
    assert _passes(lines) == sum(abs(int(x)) for vec in passes for x in vec) == 6
    # the GF(2) factor modes take --structured too, without a pass count
    a = BitMatrix(2, 2)
    a.set(0, 1, 1)
    a.set(1, 0, 1)
    mat = _write(tmp_path, "a.m", serialize_bitmatrix(a))
    assert main(["factor", "--mode", "even", "--matrix", mat]) == 0
    plain = capsys.readouterr().out
    assert main(["factor", "--mode", "even", "--matrix", mat, "--structured"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert _unstructured(lines) == plain and not any(ln.startswith("passes") for ln in lines)


def test_integer_commands_refuse_a_nonorientable_surface(tmp_path, capsys):
    # a Z surface drawing is orientable by construction, so every command
    # that would make or read one on M_m exits 3 with the same message
    g4 = _write(tmp_path, "k4.g", serialize_graph(complete_graph(4)))
    d4 = _write(tmp_path, "k4.d", serialize_drawing(convex_drawing(complete_graph(4))))
    b = _write(tmp_path, "b.f", serialize_intmatrix(IntMatrix(1, 6)))
    y = _write(tmp_path, "y.f", serialize_bitmatrix(BitMatrix(1, 6)))
    assert main(["construct", "--graph", g4, "--drawing", d4, "--factor", y, "--surface", "M:1"]) == 0
    sd = _write(tmp_path, "k4.sd", capsys.readouterr().out)
    assert main(["construct", "--graph", g4, "--drawing", d4, "--factor", b, "--surface", "M:1", "--z"]) == 3
    assert main(["verify", "--surface-drawing", sd, "--z"]) == 3
    assert main(["verify", "--surface-drawing", sd, "--z", "--geometric"]) == 3
    assert main(["extract", "--surface-drawing", sd, "--z"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: integer drawings are defined on orientable surfaces only"] * 4


def test_verify_rejects_nonzero_pairs(tmp_path, capsys):
    # K5 convex drawing on the sphere has crossing pairs left over
    g5 = _k5(tmp_path)
    d5 = _write(tmp_path, "k5.d", serialize_drawing(convex_drawing(complete_graph(5))))
    a = BitMatrix(10, 10)
    mat = _write(tmp_path, "z.m", serialize_bitmatrix(a))
    main(["factor", "--mode", "even", "--matrix", mat])
    fac = _write(tmp_path, "z.f", capsys.readouterr().out)
    main(["construct", "--graph", g5, "--drawing", d5, "--factor", fac, "--surface", "S:0"])
    sd = _write(tmp_path, "k5bad.sd", capsys.readouterr().out)
    assert main(["verify", "--surface-drawing", sd]) == 1
    assert capsys.readouterr().out.strip().endswith("NOT AN EMBEDDING")


def test_structured_output(tmp_path, capsys):
    rc = main(["solve", "--graph", _k5(tmp_path), "--genus", "1", "--structured"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "result = YES"
    assert lines[1].startswith("nodes = ")


def test_solve_nonpositive_budget_exit_three(tmp_path, capsys):
    g = _write(tmp_path, "k33.g", serialize_graph(complete_bipartite(3, 3)))
    for nodes in ("0", "-5"):
        rc = main(["solve", "--graph", g, "--genus", "1", "--budget-nodes", nodes])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max_nodes must be positive" in captured.err


def test_solve_float_budget_exit_three(tmp_path, capsys):
    rc = main(["solve", "--graph", _k5(tmp_path), "--genus", "1", "--budget-nodes", "1e6"])
    assert rc == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid int value: '1e6'" in captured.err


def test_solve_any_positive_int_budget(tmp_path, capsys):
    # Above sys.maxsize - 1, the search's row bound once overflowed islice.
    rc = main(["solve", "--graph", _k5(tmp_path), "--genus", "1", "--budget-nodes", str(10**20)])
    assert rc == 0
    assert capsys.readouterr().out == "YES\n"


def test_solve_yes_needs_the_geometric_verifier_too(tmp_path, capsys, monkeypatch):
    seen = []

    def reject(sd, mode=None):
        seen.append(mode)
        return VerifyReport(mode, {(0, 1): 1})

    monkeypatch.setattr(cli, "verify_geometric", reject)
    wit = tmp_path / "k5.sd"
    rc = main(["solve", "--graph", _k5(tmp_path), "--genus", "1", "--witness-out", str(wit)])
    assert rc == 3
    assert seen == ["z2"]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "witness failed independent verification" in captured.err
    assert not wit.exists()


def test_solve_time_cap(tmp_path, capsys):
    g = _write(tmp_path, "k33.g", serialize_graph(complete_bipartite(3, 3)))
    for cap in ("0", "-1", "nan"):
        rc = main(["solve", "--graph", g, "--genus", "1", "--time-cap", cap])
        assert rc == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "time_cap must be positive" in captured.err
    assert main(["solve", "--graph", g, "--genus", "1", "--time-cap", "60"]) == 0
    assert capsys.readouterr().out.strip() == "YES"
    # K8 on the torus needs 36,259 nodes; the cap stops the search at its
    # first deadline test, after 4096 nodes.
    k8 = _write(tmp_path, "k8.g", serialize_graph(complete_graph(8)))
    rc = main(["solve", "--graph", k8, "--genus", "1", "--time-cap", "1e-9", "--structured"])
    assert rc == 2
    assert capsys.readouterr().out.splitlines() == ["result = UNKNOWN", "nodes = 4096"]


def test_solve_at_huge_genus_builds_nothing_of_size_two_to_the_d(tmp_path):
    # K5 on S_99999: d = 199,998 ribbons, so any table over all pass vectors
    # overflows a 1 GB address space long before the first node.
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "surfembed.cli", "solve", "--graph", _k5(tmp_path), "--genus", "99999"],
        capture_output=True, text=True, preexec_fn=limit, timeout=300,
        env={**_ENV, "PYTHONPATH": str(ROOT / "src")},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "YES\n", "")


@pytest.mark.parametrize(
    "surface, out",
    [(["--crosscaps", "100000", "--budget-nodes", "1000"], "result = UNKNOWN\nnodes = 1001\n"),
     (["--euler", "-100000", "--budget-nodes", "10"], "result = UNKNOWN\nnodes = 11\n")],
    ids=["crosscaps", "euler"],
)
def test_budget_bounds_the_candidates_built_at_huge_crosscap_number(tmp_path, surface, out):
    # K5 on M_100000: the 2^d candidates after the first free edge, or the
    # 100,001 representatives of weight up to d at it, overflow a 1 GB
    # address space, but the search reads no more than its budget of them.
    # With --euler the search on S_50001 spends the budget of the call, so
    # the one on M_100002 visits no node.
    resource = pytest.importorskip("resource")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "surfembed.cli", "solve", "--graph", _k5(tmp_path), *surface, "--structured"],
        capture_output=True, text=True, preexec_fn=limit, timeout=300,
        env={**_ENV, "PYTHONPATH": str(ROOT / "src")},
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, out, "")


def test_input_errors_exit_three(tmp_path, capsys):
    assert main(["solve", "--graph", str(tmp_path / "nope.g"), "--genus", "0"]) == 3
    bad = _write(tmp_path, "bad.g", "not a graph\n")
    assert main(["solve", "--graph", bad, "--genus", "0"]) == 3
    # bad flags must not collide with the unknown exit code
    assert main(["solve", "--graph", bad]) == 3
    assert main(["bound", "--kmn", "5"]) == 3
    assert main(["construct", "--graph", bad, "--drawing", bad,
                 "--factor", bad, "--surface", "Q:1"]) == 3
    # malformed drawings: a short vertex line, a zero denominator, a repeated id
    for name, text in (("short.d", "vertex 0 1\n"), ("den.d", "vertex 0 1/0 0\n"),
                       ("twice.d", "vertex 0 0 0\nvertex 0 1 0\n")):
        assert main(["crossings", "--drawing", _write(tmp_path, name, "drawing\n" + text)]) == 3
    # a surface drawing that is an embedding until its order line is repeated
    g3 = complete_graph(3)
    sd = serialize_surface_drawing(
        construct_z2_embedding(g3, convex_drawing(g3), BitMatrix(0, 3), SurfaceSpec("S", 0))
    )
    assert main(["verify", "--surface-drawing", _write(tmp_path, "once.sd", sd)]) == 0
    twice = _write(tmp_path, "twice.sd", sd + "order : 0 1 2\n")
    assert main(["verify", "--surface-drawing", twice]) == 3
    capsys.readouterr()
    # a polyline stored from the higher-numbered vertex to the lower one:
    # its direction is the edge's orientation, so it is named, not reversed
    back = _write(tmp_path, "back.d", "drawing\nvertex 0 0 0\nvertex 1 1 0\nedge 0 : 1 0 0 0\n")
    k2 = _write(tmp_path, "k2.g", "graph 2\n0 1\n")
    y = _write(tmp_path, "y.m", serialize_bitmatrix(BitMatrix(2, 1)))
    assert main(["crossings", "--drawing", back]) == 3
    assert main(["construct", "--graph", k2, "--drawing", back, "--factor", y, "--surface", "S:1"]) == 3
    rule = "error: edge 0: polyline runs from vertex 1 to vertex 0; it must be stored from 0 to 1"
    assert capsys.readouterr().err.splitlines() == [rule, rule]
    # a drawing names its own graph: one isolated vertex more than the
    # graph file makes it a drawing of another graph
    extra = _write(tmp_path, "extra.d", "drawing\nvertex 0 0 0\nvertex 1 1 0\nvertex 2 0 1\nedge 0 : 0 0 1 0\n")
    assert main(["construct", "--graph", k2, "--drawing", extra, "--factor", y, "--surface", "S:1"]) == 3
    assert capsys.readouterr().err.splitlines() == ["error: drawing belongs to a different graph"]
    # cores out of general position that the layout alone would not see:
    # both verifiers refuse them with the core's own message
    for name, points, polyline, rule in (
        ("overlap.sd", "vertex 1 4 0\n", "0 0 3 0 1 0 4 0", "edge 0: self-overlap"),
        ("inside.sd", "vertex 1 4 0\nvertex 2 2 0\n", "0 0 4 0", "vertex 2 inside edge 0"),
        ("zero.sd", "vertex 1 4 0\n", "0 0 2 0 2 0 4 0", "edge 0: zero-length segment"),
    ):
        text = f"surface S 0\ndrawing\nvertex 0 0 0\n{points}edge 0 : {polyline}\npasses 0 :\n"
        path = _write(tmp_path, name, text)
        assert main(["verify", "--surface-drawing", path]) == 3
        assert main(["verify", "--surface-drawing", path, "--geometric"]) == 3
        assert capsys.readouterr().err.splitlines() == ["error: " + rule] * 2
    # an output file in a missing directory: one error line, nothing else
    k5, missing = _k5(tmp_path), str(tmp_path / "no" / "such" / "out.txt")
    assert main(["solve", "--graph", k5, "--genus", "1", "--witness-out", missing]) == 3
    convex = crossing_parity_matrix(convex_drawing(complete_graph(5))).values
    mat = _write(tmp_path, "k5.m", serialize_bitmatrix(convex))
    assert main(["realize", "--graph", k5, "--matrix", mat, "--out", missing]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line.split(":")[0] for line in captured.err.splitlines()] == ["error", "error"]


def test_a_field_that_is_no_integer_names_its_line(tmp_path, capsys):
    # Each parser names the line of a field that is no integer, and the
    # command exits 3 with that one error line.  An integer is ASCII
    # -?[0-9]+ and a denominator digits only: underscores, a sign "+" and
    # non-ASCII digits, which int() takes, are refused too.
    graph = "graph 3\n0 1\n1 2\n"
    drawing = "drawing\nvertex 0 0 0\nvertex 1 1 0\nedge 0 : 0 0 1 0\n"
    surface = "surface S 0\n" + drawing + "passes 0 :\norder : 0\n"
    bits = "gf2 2 2\n0 1\n1 0\n"
    ints = "int 2 2\n0 1\n-1 0\n"
    cases = [
        (["solve", "--genus", "0", "--graph"], graph, "1 2", "1 x", "bad edge line"),
        (["solve", "--genus", "0", "--graph"], graph, "1 2", "1 +2", "bad edge line"),
        (["solve", "--genus", "0", "--graph"], graph, "1 2", "1 \u0662", "bad edge line"),
        (["solve", "--genus", "0", "--graph"], graph, "0 1", "0_0 1", "bad edge line"),
        (["solve", "--genus", "0", "--graph"], graph, "graph 3", "graph 0_3", "bad graph header"),
        (["crossings", "--drawing"], drawing, "vertex 1 1 0", "vertex v 1 0", "bad vertex line"),
        (["crossings", "--drawing"], drawing, "vertex 1 1 0", "vertex 1 1/0 0", "bad vertex line"),
        (["crossings", "--drawing"], drawing, "vertex 1 1 0", "vertex 1 1 0/-1", "bad vertex line"),
        (["crossings", "--drawing"], drawing, "vertex 1 1 0", "vertex +1 1 0", "bad vertex line"),
        (["crossings", "--drawing"], drawing, "vertex 1 1 0", "vertex 1 \u0661 0", "bad vertex line"),
        (["crossings", "--drawing"], drawing, "edge 0 : 0 0 1 0", "edge e : 0 0 1 0", "bad edge line"),
        (["crossings", "--drawing"], drawing, "edge 0 : 0 0 1 0", "edge 0 : 0 0 y 0", "bad edge line"),
        (["crossings", "--drawing"], drawing, "edge 0 : 0 0 1 0", "edge 0 : 0 0 1 0/-2", "bad edge line"),
        (["crossings", "--drawing"], drawing, "edge 0 : 0 0 1 0", "edge 0 : 0_0 0 1 0", "bad edge line"),
        (["verify", "--surface-drawing"], surface, "surface S 0", "surface S g", "bad surface header"),
        (["verify", "--surface-drawing"], surface, "surface S 0", "surface S +0", "bad surface header"),
        (["verify", "--surface-drawing"], surface, "passes 0 :", "passes p :", "bad passes line"),
        (["verify", "--surface-drawing"], surface, "passes 0 :", "passes 0 : x", "bad passes line"),
        (["verify", "--surface-drawing"], surface, "passes 0 :", "passes \u0660 :", "bad passes line"),
        (["verify", "--surface-drawing"], surface, "order : 0", "order : x", "bad order line"),
        (["verify", "--surface-drawing"], surface, "order : 0", "order : 0_0", "bad order line"),
        (["factor", "--mode", "even", "--matrix"], bits, "gf2 2 2", "gf2 2 x", "bad gf2 header"),
        (["factor", "--mode", "even", "--matrix"], bits, "gf2 2 2", "gf2 +2 2", "bad gf2 header"),
        (["factor", "--mode", "even", "--matrix"], bits, "1 0", "1 \u0660", "bad row line"),
        (["factor", "--mode", "alternating", "--matrix"], ints, "int 2 2", "int 2 y", "bad int header"),
        (["factor", "--mode", "alternating", "--matrix"], ints, "int 2 2", "int 2 2_0", "bad int header"),
        (["factor", "--mode", "alternating", "--matrix"], ints, "0 1", "0 +1", "bad row line"),
        (["factor", "--mode", "alternating", "--matrix"], ints, "-1 0", "-1 \u0660", "bad row line"),
    ]
    for command, text, line, spoiled, head in cases:
        assert main(command + [_write(tmp_path, "good.txt", text)]) == 0, command
        capsys.readouterr()
        assert main(command + [_write(tmp_path, "bad.txt", text.replace(line, spoiled))]) == 3, spoiled
        assert capsys.readouterr().err.splitlines() == [f"error: {head}: {spoiled!r}"]
    # The genus of --surface S:g is read the same way.
    k2 = _write(tmp_path, "k2.g", "graph 2\n0 1\n")
    d = _write(tmp_path, "k2.d", "drawing\nvertex 0 0 0\nvertex 1 1 0\nedge 0 : 0 0 1 0\n")
    y = _write(tmp_path, "y.m", "gf2 2 1\n0\n0\n")
    command = ["construct", "--graph", k2, "--drawing", d, "--factor", y]
    assert main(command + ["--surface", "S:1"]) == 0
    capsys.readouterr()
    for surface in ("S:x", "S:+1", "S:1_0", "S:\u0661"):
        assert main(command + ["--surface", surface]) == 3
        assert capsys.readouterr().err.splitlines() == [f"error: bad surface {surface!r}, expected S:g or M:m"]


def test_an_integer_option_is_read_as_the_text_formats_read_one(tmp_path, capsys):
    # argparse's int() also takes underscores, a sign "+" and non-ASCII
    # digits; every integer option refuses them, as the file parsers do.
    k5 = _k5(tmp_path)
    cases = [(["bound"], "--k2n", "1_0", []), (["bound"], "--kmn", "+7", ["3"]), (["bound"], "--kmn", "\u0663", ["7"])]
    for bad in ("1_0", "+7", "\u0663"):
        cases += [(["solve", "--graph", k5], option, bad, []) for option in ("--genus", "--crosscaps", "--euler")]
        cases.append((["solve", "--graph", k5, "--genus", "1"], "--budget-nodes", bad, []))
    for command, option, bad, rest in cases:
        argv = command + [option, bad] + rest
        assert main(argv) == 3, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [f"error: argument {option}: invalid int value: {bad!r}"], argv
    assert main(["bound", "--kmn", "3", "7"]) == 0
    assert main(["solve", "--graph", k5, "--euler", "-1", "--budget-nodes", "10"]) == 2
    assert capsys.readouterr().out == "2\nUNKNOWN\n"


def _malformable_files():
    """Small valid inputs of every kind: K4, its convex drawing, its parity
    and signed crossing matrices, a two-row factor of each kind and the
    surface drawing that the GF(2) one builds on S1."""
    g = complete_graph(4)
    d = convex_drawing(g)
    y = BitMatrix(2, g.edge_count)
    y.set(0, 1, 1)
    y.set(1, 4, 1)
    y.set(1, 5, 1)
    signed = signed_crossing_matrix(d)
    return {
        "graph": serialize_graph(g),
        "drawing": serialize_drawing(d),
        "matrix": serialize_bitmatrix(crossing_parity_matrix(d).values),
        "intmatrix": serialize_intmatrix(signed),
        "factor": serialize_bitmatrix(y),
        "zfactor": serialize_intmatrix(factor_alternating(signed)),
        "surface": serialize_surface_drawing(construct_z2_embedding(g, d, y, SurfaceSpec("S", 1))),
    }


_FILES = _malformable_files()
# Every subcommand that reads a file, with the files that it reads.
_COMMANDS = [
    ["crossings", "--drawing", "{drawing}"],
    ["crossings", "--drawing", "{drawing}", "--signed"],
    ["compat", "--graph", "{graph}", "--matrix", "{matrix}"],
    ["realize", "--graph", "{graph}", "--matrix", "{matrix}", "--out", "{out}"],
    ["factor", "--mode", "even", "--matrix", "{matrix}"],
    ["factor", "--mode", "odd", "--matrix", "{factor}"],
    ["factor", "--mode", "alternating", "--matrix", "{intmatrix}"],
    ["solve", "--graph", "{graph}", "--genus", "1", "--budget-nodes", "2000"],
    ["construct", "--graph", "{graph}", "--drawing", "{drawing}", "--factor", "{factor}", "--surface", "S:1"],
    ["construct", "--graph", "{graph}", "--drawing", "{drawing}", "--factor", "{zfactor}", "--surface", "S:1", "--z"],
    ["verify", "--surface-drawing", "{surface}"],
    ["verify", "--surface-drawing", "{surface}", "--geometric"],
    ["verify", "--surface-drawing", "{surface}", "--z", "--geometric"],
    ["extract", "--surface-drawing", "{surface}"],
    ["extract", "--surface-drawing", "{surface}", "--z"],
]


@st.composite
def _malformed(draw):
    """One file kind and its text with one token dropped, doubled or
    replaced."""
    kind = draw(st.sampled_from(sorted(_FILES)))
    lines = [ln.split() for ln in _FILES[kind].splitlines()]
    spots = [(r, c) for r, ln in enumerate(lines) for c in range(len(ln))]
    r, c = draw(st.sampled_from(spots))
    op = draw(st.sampled_from(["drop", "double", "-1", "0", "x", "1/0", "99"]))
    token = lines[r][c]
    lines[r][c : c + 1] = [] if op == "drop" else [token, token] if op == "double" else [op]
    return kind, "".join(" ".join(ln) + "\n" for ln in lines)


@seed(2032)
@settings(max_examples=150, deadline=None, database=None)
@given(_malformed())
def test_malformed_files_exit_three_with_one_error_line(tmp_path_factory, case):
    kind, text = case
    base = tmp_path_factory.getbasetemp() / "malformed"
    base.mkdir(exist_ok=True)
    paths = {name: _write(base, name, text if name == kind else body) for name, body in _FILES.items()}
    paths["out"] = str(base / "out.d")
    for command in _COMMANDS:
        if "{" + kind + "}" not in command:
            continue
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = main([arg.format(**paths) for arg in command])
        assert rc in (0, 1, 2, 3), command
        errors = err.getvalue().splitlines()
        if rc == 3:
            assert len(errors) == 1 and errors[0].startswith("error: "), command
        else:
            assert errors == [], command


def _install(tmp_path, *pip_args):
    """Install the checkout into a fresh venv under tmp_path; return its bin dir."""
    venv = tmp_path / "venv"
    subprocess.run([sys.executable, "-m", "venv", "--without-pip", str(venv)], check=True)
    subprocess.run(
        [sys.executable, "-m", "pip", "--python", str(venv / "bin" / "python"), "install",
         "--no-index", "--no-cache-dir", "--disable-pip-version-check", *pip_args, str(ROOT)],
        check=True, capture_output=True, env=_ENV,
    )
    return venv / "bin"


@pytest.mark.skipif(importlib.util.find_spec("pip") is None, reason="pip is not installed")
def test_console_entry_point(tmp_path):
    # the [project.scripts] entry, once installed, runs surfembed.cli:main;
    # PYTHONPATH is dropped so the installed copy answers, not src/
    bindir = _install(tmp_path)
    proc = subprocess.run([str(bindir / "surfembed"), "bound", "--kmn", "3", "3"],
                          capture_output=True, text=True, env=_ENV, cwd=tmp_path)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1"


@pytest.mark.skipif(importlib.util.find_spec("pip") is None, reason="pip is not installed")
def test_editable_install_imports_from_src(tmp_path):
    bindir = _install(tmp_path, "-e")
    proc = subprocess.run(
        [str(bindir / "python"), "-c", "import surfembed; print(surfembed.__file__)"],
        capture_output=True, text=True, env=_ENV, cwd=tmp_path, check=True,
    )
    assert Path(proc.stdout.strip()) == ROOT / "src" / "surfembed" / "__init__.py"
    proc = subprocess.run([str(bindir / "surfembed"), "bound", "--kmn", "5", "5"],
                          capture_output=True, text=True, env=_ENV, cwd=tmp_path)
    assert (proc.returncode, proc.stdout.strip()) == (0, "2")
