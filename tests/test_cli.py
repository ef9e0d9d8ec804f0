import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from surfembed import cli
from surfembed.cli import main
from surfembed.drawing import convex_drawing, crossing_parity_matrix, serialize_drawing
from surfembed.gf2 import BitMatrix, serialize_bitmatrix
from surfembed.graph import complete_bipartite, complete_graph, serialize_graph
from surfembed.intmat import IntMatrix, serialize_intmatrix
from surfembed.surface import VerifyReport

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


def test_solve_yes_needs_the_geometric_verifier_too(tmp_path, capsys, monkeypatch):
    seen = []

    def reject(sd, mode=None):
        seen.append(mode)
        return VerifyReport(mode, {}, False)

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
    # K8 on the torus needs millions of nodes; the cap stops the search at
    # its first deadline test, after 4096 nodes.
    k8 = _write(tmp_path, "k8.g", serialize_graph(complete_graph(8)))
    rc = main(["solve", "--graph", k8, "--genus", "1", "--time-cap", "1e-9", "--structured"])
    assert rc == 2
    assert capsys.readouterr().out.splitlines() == ["result = UNKNOWN", "nodes = 4096"]


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
    capsys.readouterr()


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
