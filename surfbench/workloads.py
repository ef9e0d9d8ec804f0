"""The four workloads: seeded inputs, the timed program calls, and checks.

Each workload is a stream of rounds.  Round r of seed s is generated from
`random.Random(f"<workload>:<s>:<r>")`, so the same seed always gives the
same inputs.  `run` holds only calls into surfembed and is what the
benchmark times; `check` compares the outcome with answers obtained
without trusting the code under test and runs outside the timing.

Inputs that the program caches on (PlanarDrawing keeps its crossing table)
are stored as raw data and rebuilt inside `run`, so repeating an instance
repeats its work.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import oracle


@dataclass
class Instance:
    """One input.  Executions that share a case form one timing sample:
    witness and search name the graph and surface, every random input of
    plane_compat and verify is its own case."""

    case: str
    label: str
    data: dict
    props: dict = field(default_factory=dict)


@dataclass
class Outcome:
    ok: bool
    decided: bool
    note: str = ""
    props: dict = field(default_factory=dict)


def _rng(workload: str, seed: int, r: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{r}")


def _permuted(se, n: int, edges, rng: random.Random):
    """The same graph with shuffled vertex labels and edge order."""
    p = list(range(n))
    rng.shuffle(p)
    out = [(p[u], p[v]) for u, v in edges]
    rng.shuffle(out)
    return se.Graph(n, out)


def _named_graph(se, name: str):
    if "," in name:
        a, b = name[1:].split(",")
        return se.complete_bipartite(int(a), int(b))
    return se.complete_graph(int(name[1:]))


# -- witness -----------------------------------------------------------------


class Witness:
    """z2_genus with its witness, both verifiers and a text round trip.

    Every round runs the nine (graph, surface) pairs of the known-answer
    table in their standard labelling; the seed only sets their order.  The
    cost of one witness changes 2-5x with the labelling (a K4,4 witness
    takes 1.7-9 s), and a run holds a single pass of the nine, so seeded
    relabelling would make a run's figures a lottery over labellings.
    Repeated rounds re-run the same nine inputs.
    """

    name = "witness"
    CASES = [  # (graph, kind, known Z2-genus)
        ("K5", "orientable", 1),
        ("K3,3", "orientable", 1),
        ("K3,4", "orientable", 1),
        ("K4,4", "orientable", 1),
        ("K6", "orientable", 1),
        ("K7", "orientable", 1),
        ("K5", "nonorientable", 1),
        ("K3,3", "nonorientable", 1),
        ("K6", "nonorientable", 1),
    ]

    def make_round(self, se, seed: int, r: int) -> list[Instance]:
        order = list(range(len(self.CASES)))
        _rng(self.name, seed, r).shuffle(order)
        out = []
        for k in order:
            gname, kind, genus = self.CASES[k]
            g = _named_graph(se, gname)
            out.append(
                Instance(
                    f"{gname}/{kind}",
                    f"{gname}/{kind}",
                    {"graph": g, "kind": kind, "genus": genus, "cite": oracle.WITNESS_CITE[gname]},
                    {"edges": g.edge_count},
                )
            )
        return out

    def run(self, se, inst: Instance):
        res = se.z2_genus(inst.data["graph"], inst.data["kind"])
        if res.status != "found":
            return res, None, None, None, None
        sd = res.witness.surface_drawing
        combo = se.verify_z2(sd)
        geo = se.verify_geometric(sd, "z2")
        text = se.surface.serialize_surface_drawing(sd)
        back = se.surface.parse_surface_drawing(text)
        return res, combo, geo, text, back

    def check(self, se, inst: Instance, result) -> Outcome:
        res, combo, geo, text, back = result
        g = inst.data["graph"]
        if res.status != "found":
            return Outcome(False, False, f"status {res.status}")
        if res.value != inst.data["genus"]:
            return Outcome(False, True, f"genus {res.value}, known {inst.data['genus']}: {inst.data['cite']}")
        sd = res.witness.surface_drawing
        passes = sum(abs(x) for vec in sd.passes for x in vec)
        props = {"total_passes": passes}
        want_kind = "S" if inst.data["kind"] == "orientable" else "M"
        if (sd.surface.kind, sd.surface.genus) != (want_kind, res.value):
            return Outcome(False, True, "witness on the wrong surface", props)
        if sd.core.graph.edges != g.edges:
            return Outcome(False, True, "witness drawn for another graph", props)
        if not (combo.is_embedding and geo.is_embedding and combo.pairs == geo.pairs):
            return Outcome(False, True, "witness failed dual verification", props)
        if back.core.graph.edges != g.edges or se.surface.serialize_surface_drawing(back) != text:
            return Outcome(False, True, "serialize/parse round trip changed the witness", props)
        return Outcome(True, True, props=props)


# -- search ------------------------------------------------------------------


class Search:
    """Budgeted solves whose true answer is no; no witness is ever built."""

    name = "search"
    BUDGET_NODES = 300_000
    CASES = [  # (graph, surface kind, genus); every known answer is "no"
        ("K3,7", "S", 1),
        ("K8", "S", 1),
        ("K5,5", "S", 1),
        ("K7", "M", 1),
        ("K4,4", "M", 1),
        ("K3,5", "M", 1),
    ]

    def make_round(self, se, seed: int, r: int) -> list[Instance]:
        rng = _rng(self.name, seed, r)
        out = []
        for k, (gname, kind, genus) in enumerate(self.CASES):
            base = _named_graph(se, gname)
            g = _permuted(se, base.vertex_count, base.edges, rng)
            label = f"{gname}/{kind}{genus}"
            out.append(
                Instance(
                    label,
                    label,
                    {"graph": g, "kind": kind, "genus": genus, "cite": oracle.SEARCH_CITE[(gname, kind, genus)]},
                    {"edges": g.edge_count},
                )
            )
        return out

    def run(self, se, inst: Instance):
        budget = se.SolverBudget(max_nodes=self.BUDGET_NODES)
        g, genus = inst.data["graph"], inst.data["genus"]
        if inst.data["kind"] == "S":
            return se.z2_embeddable_orientable(g, genus, budget)
        return se.z2_embeddable_nonorientable(g, genus, budget)

    def check(self, se, inst: Instance, res) -> Outcome:
        props = {"nodes": res.nodes, "exhausted": int(res.status == "unknown")}
        if res.status == "yes":
            return Outcome(False, True, f"answered yes; known no: {inst.data['cite']}", props)
        if res.status not in ("no", "unknown"):
            return Outcome(False, False, f"status {res.status}", props)
        if res.nodes > self.BUDGET_NODES + 1:
            return Outcome(False, res.status == "no", "node budget overrun", props)
        return Outcome(True, res.status == "no", props=props)


# -- plane_compat ------------------------------------------------------------


class PlaneCompat:
    """is_compatible_mod2 on random graphs; half the targets compatible."""

    name = "plane_compat"
    # Every round has the same size profile: 6-9 vertices, ten edge counts
    # from n to 3n-3 for each; the edges themselves are random.
    SIZES = [(n, n + (2 * n - 3) * j // 9) for n in range(6, 10) for j in range(10)]

    def make_round(self, se, seed: int, r: int) -> list[Instance]:
        rng = _rng(self.name, seed, r)
        out = []
        for k, (n, m) in enumerate(self.SIZES):
            possible = list(itertools.combinations(range(n), 2))
            rng.shuffle(possible)
            edges = possible[:m]
            g = se.Graph(n, edges)
            pairs = oracle.independent_pairs(g.edges)
            base = oracle.convex_base(g.edges, range(n))
            gens = oracle.finger_generators(n, g.edges)
            built = k % 2 == 0
            if built:
                vec = base
                for gen in gens:
                    if rng.getrandbits(1):
                        vec ^= gen
            else:
                vec = rng.getrandbits(len(pairs)) if pairs else 0
            rows = [0] * m
            for b, (i, j) in enumerate(pairs):
                if (vec >> b) & 1:
                    rows[i] |= 1 << j
                    rows[j] |= 1 << i
            out.append(
                Instance(
                    f"{r}:{k}",
                    "built" if built else "random",
                    {"n": n, "edges": g.edges, "rows": rows, "vec": vec, "base": base, "gens": gens, "built": built},
                    {"vertices": n, "edges": m, "pairs": len(pairs)},
                )
            )
        return out

    def run(self, se, inst: Instance):
        d = inst.data
        g = se.Graph(d["n"], d["edges"])
        m = g.edge_count
        target = se.ParityMatrix(g, se.BitMatrix(m, m, d["rows"]))
        return se.is_compatible_mod2(g, target)

    def check(self, se, inst: Instance, cert) -> Outcome:
        d = inst.data
        if cert is None:
            if d["built"]:
                return Outcome(False, True, "built-compatible target reported incompatible")
            if oracle.in_span(d["gens"], d["vec"] ^ d["base"]):
                return Outcome(False, True, "compatible target reported incompatible")
            return Outcome(True, True, props={"compatible": 0})
        if len(cert) != len(d["gens"]):
            return Outcome(False, True, "certificate has the wrong length")
        if oracle.apply_certificate(d["base"], d["gens"], cert) != d["vec"]:
            return Outcome(False, True, "certificate does not reproduce the target")
        return Outcome(True, True, props={"compatible": 1})


# -- verify ------------------------------------------------------------------


class Verify:
    """Surface drawings through both verifiers; the Z half factors B^T H B.

    The generator bounds only its inputs: 5-7 vertices, 4-8 edges, entries
    of B in [-2, 2] and genus 1 for the Z half (with genus 2, |B| <= 2
    already gives factors of thousands of passes, hours of layout).  The
    factor is never filtered by size.
    """

    name = "verify"
    # Every round has the same profile: each z2 surface with 4, 6 and 8
    # edges, and three Z instances for each edge count from 4 to 8.
    PLAN = [("z2", m, surface) for surface in (("S", 1), ("S", 2), ("M", 1), ("M", 2), ("M", 3)) for m in (4, 6, 8)]
    PLAN += [("z", m, ("S", 1)) for m in range(4, 9) for _ in range(3)]

    def make_round(self, se, seed: int, r: int) -> list[Instance]:
        rng = _rng(self.name, seed, r)
        out = []
        for k, (mode, m, surface) in enumerate(self.PLAN):
            n = rng.randrange(5, 8)
            possible = list(itertools.combinations(range(n), 2))
            rng.shuffle(possible)
            g = se.Graph(n, possible[:m])
            order = list(range(n))
            rng.shuffle(order)
            core = se.convex_drawing(g, order)
            tube = list(range(m))
            rng.shuffle(tube)
            data = {
                "mode": mode,
                "n": n,
                "edges": g.edges,
                "points": core.vertex_points,
                "polylines": core.edge_polylines,
                "tube": tube,
            }
            if mode == "z2":
                kind, genus = surface
                ribbons = 2 * genus if kind == "S" else genus
                data.update(kind=kind, genus=genus)
                data["passes"] = [[rng.getrandbits(1) for _ in range(ribbons)] for _ in range(m)]
            else:
                b = [[rng.randint(-2, 2) for _ in range(m)] for _ in range(2 * surface[1])]
                data["a"] = oracle.skew_product(b, m)
            props = {"edges": m, "surface": "%s:%d" % surface}
            out.append(Instance(f"{r}:{k}", data["mode"], data, props))
        return out

    def run(self, se, inst: Instance):
        d = inst.data
        g = se.Graph(d["n"], d["edges"])
        core = se.PlanarDrawing(g, d["points"], d["polylines"])
        if d["mode"] == "z2":
            sd = se.SurfaceDrawing(se.SurfaceSpec(d["kind"], d["genus"]), core, d["passes"], d["tube"])
            return None, se.verify_z2(sd), se.verify_geometric(sd, "z2")
        m = g.edge_count
        f = se.factor_alternating(se.IntMatrix(m, m, d["a"]))
        sd = se.construct_z_embedding(g, core, f, se.SurfaceSpec("S", f.rows // 2))
        return f, se.verify_z(sd), se.verify_geometric(sd, "z")

    def check(self, se, inst: Instance, result) -> Outcome:
        f, combo, geo = result
        props = {}
        if f is not None:
            props["factor_l1"] = sum(abs(v) for row in f.data for v in row)
            props["total_passes"] = props["factor_l1"]
            if f.rows % 2 or oracle.skew_product(f.data, len(inst.data["a"])) != inst.data["a"]:
                return Outcome(False, True, "F^T H F differs from A", props)
        else:
            props["total_passes"] = sum(map(sum, inst.data["passes"]))
        if combo.pairs != geo.pairs or combo.is_embedding != geo.is_embedding:
            return Outcome(False, True, "verifiers disagree", props)
        return Outcome(True, True, props=props)


WORKLOADS = {w.name: w for w in (Witness(), Search(), PlaneCompat(), Verify())}
