"""Command-line interface.

Exit codes: 0 = affirmative/success, 1 = negative answer, 2 = unknown
(budget exhausted), 3 = input error or GeneralPositionError.  With
--structured, reports are emitted as line-oriented `key = value` pairs
in addition to any file payload printed on standard output.
"""

from __future__ import annotations

import argparse
import sys

from .drawing import (
    IncompatibleTargetError,
    ParityMatrix,
    crossing_parity_matrix,
    finger_move_labels,
    is_compatible_mod2,
    parse_drawing,
    realize_parity,
    serialize_drawing,
    signed_crossing_matrix,
)
from .gf2 import (
    BitMatrix,
    factor_even,
    factor_odd,
    parse_bitmatrix,
    serialize_bitmatrix,
)
from .graph import parse_graph, parse_int
from .intmat import factor_alternating, parse_intmatrix, serialize_intmatrix
from .layout import verify_geometric
from .solver import (
    SolverBudget,
    k2n_lower_bound,
    kmn_lower_bound,
    z2_embeddable_euler,
    z2_embeddable_nonorientable,
    z2_embeddable_orientable,
)
from .surface import (
    SurfaceSpec,
    construct_z2_embedding,
    construct_z_embedding,
    extract_matrix,
    parse_surface_drawing,
    serialize_surface_drawing,
    verify_z,
    verify_z2,
)

EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_INPUT = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ValueError(message)


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise ValueError(f"cannot read {path}: {err}")


def _write(path, text):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise ValueError(f"cannot write {path}: {err}")


def _emit_text(out, structured):
    """Print a file payload as is, or as one `line k = ...` pair per line."""
    if structured:
        for ln_no, ln in enumerate(out.rstrip("\n").split("\n")):
            print(f"line {ln_no} = {ln}")
    else:
        print(out, end="")


def _emit_pairs(report, structured):
    for (i, j), val in sorted(report.pairs.items()):
        if structured:
            print(f"pair {i} {j} = {val}")
        else:
            print(f"pair {i} {j}: {val}")


def _int_arg(s):
    """An integer option, read as the text formats read an integer."""
    try:
        return parse_int(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {s!r}") from None


def _parse_surface_arg(s):
    parts = s.split(":")
    if len(parts) == 2 and parts[0] in ("S", "M"):
        try:
            genus = parse_int(parts[1])
        except ValueError:
            pass
        else:
            return SurfaceSpec(parts[0], genus)
    raise ValueError(f"bad surface {s!r}, expected S:g or M:m")


def _cmd_crossings(args):
    d = parse_drawing(_read(args.drawing))
    if args.signed:
        out = serialize_intmatrix(signed_crossing_matrix(d))
    else:
        out = serialize_bitmatrix(crossing_parity_matrix(d).values)
    _emit_text(out, args.structured)
    return EXIT_YES


def _target_from_file(g, path):
    values = parse_bitmatrix(_read(path))
    m = g.edge_count
    if values.rows != m or values.cols != m:
        raise ValueError("matrix size must be |E| x |E|")
    sym = BitMatrix(m, m)
    for i in range(m):
        for j in range(m):
            if i != j:
                sym.set(i, j, values.get(i, j) | values.get(j, i))
    return ParityMatrix(g, sym)


def _cmd_compat(args):
    g = parse_graph(_read(args.graph))
    target = _target_from_file(g, args.matrix)
    cert = is_compatible_mod2(g, target)
    if cert is None:
        print("result = INCOMPATIBLE" if args.structured else "INCOMPATIBLE")
        return EXIT_NO
    print("result = COMPATIBLE" if args.structured else "COMPATIBLE")
    labels = finger_move_labels(g)
    moves = " ".join(f"{labels[k][0]},{labels[k][1]}" for k, c in enumerate(cert) if c)
    if args.structured:
        print(f"certificate = {moves}")
    else:
        print(f"certificate: {moves}")
    return EXIT_YES


def _cmd_realize(args):
    g = parse_graph(_read(args.graph))
    target = _target_from_file(g, args.matrix)
    try:
        d = realize_parity(g, target)
    except IncompatibleTargetError:
        print("result = INCOMPATIBLE" if args.structured else "INCOMPATIBLE")
        return EXIT_NO
    _write(args.out, serialize_drawing(d))
    print(f"result = WRITTEN {args.out}" if args.structured else f"written {args.out}")
    return EXIT_YES


def _cmd_factor(args):
    text = _read(args.matrix)
    if args.mode == "alternating":
        b = factor_alternating(parse_intmatrix(text))
        _emit_text(serialize_intmatrix(b), args.structured)
        if args.structured:
            print(f"passes = {sum(abs(v) for row in b.data for v in row)}")
        return EXIT_YES
    factor = factor_even if args.mode == "even" else factor_odd
    _emit_text(serialize_bitmatrix(factor(parse_bitmatrix(text))), args.structured)
    return EXIT_YES


def _cmd_solve(args):
    g = parse_graph(_read(args.graph))
    budget = SolverBudget(args.budget_nodes, args.time_cap)
    if args.genus is not None:
        res = z2_embeddable_orientable(g, args.genus, budget)
    elif args.crosscaps is not None:
        res = z2_embeddable_nonorientable(g, args.crosscaps, budget)
    else:
        res = z2_embeddable_euler(g, args.euler, budget)
    if res.status == "yes":
        # never affirm on the solver's word alone: both verifiers must accept
        sd = res.witness.surface_drawing
        if not (verify_z2(sd).is_embedding and verify_geometric(sd, "z2").is_embedding):
            print("error: witness failed independent verification", file=sys.stderr)
            return EXIT_INPUT
        if args.witness_out:
            _write(args.witness_out, serialize_surface_drawing(sd))
    verdict = {"yes": "YES", "no": "NO", "unknown": "UNKNOWN"}[res.status]
    if args.structured:
        print(f"result = {verdict}")
        print(f"nodes = {res.nodes}")
    else:
        print(verdict)
    if res.status == "yes" and args.witness_out:
        if not args.structured:
            print(f"witness {args.witness_out}")
        else:
            print(f"witness = {args.witness_out}")
    return {"yes": EXIT_YES, "no": EXIT_NO, "unknown": EXIT_UNKNOWN}[res.status]


def _cmd_bound(args):
    if args.kmn:
        value = kmn_lower_bound(args.kmn[0], args.kmn[1])
    else:
        value = k2n_lower_bound(args.k2n)
    print(f"bound = {value}" if args.structured else value)
    return EXIT_YES


def _cmd_construct(args):
    g = parse_graph(_read(args.graph))
    d = parse_drawing(_read(args.drawing))
    spec = _parse_surface_arg(args.surface)
    if args.z:
        b = parse_intmatrix(_read(args.factor))
        sd = construct_z_embedding(g, d, b, spec)
    else:
        y = parse_bitmatrix(_read(args.factor))
        sd = construct_z2_embedding(g, d, y, spec)
    _emit_text(serialize_surface_drawing(sd), args.structured)
    if args.structured:
        print(f"passes = {sum(abs(x) for vec in sd.passes for x in vec)}")
    return EXIT_YES


def _cmd_verify(args):
    mode = "z" if args.z else "z2"
    sd = parse_surface_drawing(_read(args.surface_drawing), mode=mode)
    if args.geometric:
        report = verify_geometric(sd, mode)
    elif args.z:
        report = verify_z(sd)
    else:
        report = verify_z2(sd)
    _emit_pairs(report, args.structured)
    verdict = "EMBEDDING" if report.is_embedding else "NOT AN EMBEDDING"
    print(f"result = {verdict}" if args.structured else verdict)
    return EXIT_YES if report.is_embedding else EXIT_NO


def _cmd_extract(args):
    mode = "z" if args.z else "z2"
    sd = parse_surface_drawing(_read(args.surface_drawing), mode=mode)
    a, cert = extract_matrix(sd)
    out = serialize_intmatrix(a) if args.z else serialize_bitmatrix(a)
    _emit_text(out, args.structured)
    if args.structured:
        print(f"compatible = {cert is not None}")
    else:
        print("COMPATIBLE" if cert is not None else "INCOMPATIBLE")
    return EXIT_YES if cert is not None else EXIT_NO


def build_parser():
    p = _Parser(prog="surfembed", description="Z2- and Z-embeddings of graphs into surfaces")
    sub = p.add_subparsers(dest="command", required=True)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--structured", action="store_true")

    c = sub.add_parser("crossings", help="crossing matrix of a drawing", parents=[common])
    c.add_argument("--drawing", required=True)
    c.add_argument("--signed", action="store_true")
    c.set_defaults(func=_cmd_crossings)

    c = sub.add_parser("compat", help="compatibility modulo 2 with a matrix", parents=[common])
    c.add_argument("--graph", required=True)
    c.add_argument("--matrix", required=True)
    c.set_defaults(func=_cmd_compat)

    c = sub.add_parser("realize", help="drawing realizing a parity matrix", parents=[common])
    c.add_argument("--graph", required=True)
    c.add_argument("--matrix", required=True)
    c.add_argument("--out", required=True)
    c.set_defaults(func=_cmd_realize)

    c = sub.add_parser("factor", help="factor a matrix", parents=[common])
    c.add_argument("--mode", required=True, choices=("even", "odd", "alternating"))
    c.add_argument("--matrix", required=True)
    c.set_defaults(func=_cmd_factor)

    c = sub.add_parser("solve", help="decide Z2-embeddability", parents=[common])
    c.add_argument("--graph", required=True)
    grp = c.add_mutually_exclusive_group(required=True)
    grp.add_argument("--genus", type=_int_arg)
    grp.add_argument("--crosscaps", type=_int_arg)
    grp.add_argument("--euler", type=_int_arg)
    c.add_argument("--budget-nodes", type=_int_arg, default=SolverBudget.max_nodes)
    c.add_argument("--time-cap", type=float, metavar="SECONDS")
    c.add_argument("--witness-out")
    c.set_defaults(func=_cmd_solve)

    c = sub.add_parser("bound", help="genus lower bounds", parents=[common])
    grp = c.add_mutually_exclusive_group(required=True)
    grp.add_argument("--kmn", type=_int_arg, nargs=2)
    grp.add_argument("--k2n", type=_int_arg)
    c.set_defaults(func=_cmd_bound)

    c = sub.add_parser("construct", help="build a surface drawing from a factor", parents=[common])
    c.add_argument("--graph", required=True)
    c.add_argument("--drawing", required=True)
    c.add_argument("--factor", required=True)
    c.add_argument("--surface", required=True)
    c.add_argument("--z", action="store_true")
    c.set_defaults(func=_cmd_construct)

    c = sub.add_parser("verify", help="verify a surface drawing", parents=[common])
    c.add_argument("--surface-drawing", required=True)
    c.add_argument("--z", action="store_true")
    c.add_argument("--geometric", action="store_true")
    c.set_defaults(func=_cmd_verify)

    c = sub.add_parser("extract", help="extract the compatibility matrix", parents=[common])
    c.add_argument("--surface-drawing", required=True)
    c.add_argument("--z", action="store_true")
    c.set_defaults(func=_cmd_extract)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
