"""In-memory span tracing of calls into surfembed, installed from outside.

Nothing in the program is edited.  `Tracer.install` replaces module
attributes of the imported `surfembed` package with wrappers, and does so
in every `surfembed` module that holds the same function object, so names
re-imported into other modules (for example `realize_parity` inside
`surfembed.solver`, or `classify_segments` inside `surfembed.drawing`) are
covered as well.  `Tracer.uninstall` puts the originals back.

A span records name, start, end, parent span and instance id.  Hot kernels
get counters instead of spans; a counter adds to the innermost open span,
so counts are attributed to the layer that caused them.  Spans stay in
memory until `dump` writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

# Span records are lists for speed: [name, start, end, parent, instance, counts].
NAME, START, END, PARENT, INSTANCE, COUNTS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.instance = None
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def begin(self, name: str) -> list:
        parent = self.stack[-1] if self.stack else None
        rec = [name, time.perf_counter(), None, parent, self.instance, Counter()]
        self.spans.append(rec)
        self.stack.append(rec)
        return rec

    def end(self, rec: list) -> None:
        rec[END] = time.perf_counter()
        popped = self.stack.pop()
        if popped is not rec:
            raise RuntimeError(f"span {rec[NAME]} closed out of order")

    # -- installation ----------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _replace_function(self, original, make_wrapper, only_module: str = None) -> None:
        """Replace `original` wherever a surfembed module binds it."""
        wrapper = make_wrapper(original)
        hits = 0
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "surfembed" or modname.startswith("surfembed.")):
                continue
            if only_module is not None and modname != only_module:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, attr, wrapper)
                    hits += 1
        if hits == 0:
            raise RuntimeError(f"no module binds {original!r}")

    def span_wrapper(self, name: str, on_result=None):
        def make(fn):
            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                rec = self.begin(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self.end(rec)
                if on_result is not None:
                    on_result(rec[COUNTS], result)
                return result

            return wrapped

        return make

    def counter_wrapper(self, name: str):
        def make(fn):
            stack = self.stack

            @functools.wraps(fn)
            def wrapped(*args, **kwargs):
                if stack:
                    stack[-1][COUNTS][name] += 1
                return fn(*args, **kwargs)

            return wrapped

        return make

    def install(self, pkg) -> None:
        """Wrap the layer boundaries of the imported surfembed package."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        drawing, geom, gf2, graph = pkg.drawing, pkg.geom, pkg.gf2, pkg.graph
        intmat, layout, solver, surface = pkg.intmat, pkg.layout, pkg.solver, pkg.surface

        def nodes(counts, result):
            counts["solver.nodes"] += result.nodes

        def factor_l1(counts, result):
            counts["intmat.factor_l1"] += sum(abs(v) for row in result.data for v in row)

        spans = [
            (solver.z2_genus, "solver.genus", None),
            (solver.z2_embeddable_orientable, "solver.solve", nodes),
            (solver.z2_embeddable_nonorientable, "solver.solve", nodes),
            # The DFS has no public entry of its own; its boundary is _search.
            (solver._search, "solver.search", None),
            (drawing.realize_parity, "drawing.realize", None),
            (drawing.apply_finger_move, "drawing.finger_move", None),
            (drawing.is_compatible_mod2, "drawing.is_compatible", None),
            (gf2.solve_gf2, "gf2.solve", None),
            (intmat.factor_alternating, "intmat.factor", factor_l1),
            (surface.construct_z2_embedding, "surface.construct", None),
            (surface.construct_z_embedding, "surface.construct", None),
            (surface.verify_z2, "surface.verify_z2", None),
            (surface.verify_z, "surface.verify_z", None),
            (surface.serialize_surface_drawing, "surface.serialize", None),
            (surface.parse_surface_drawing, "surface.parse", None),
            (layout.verify_geometric, "layout.verify_geometric", None),
        ]
        for fn, name, on_result in spans:
            self._replace_function(fn, self.span_wrapper(name, on_result))

        # Methods: the class-level compute and the crossing table.
        compute = drawing.CompatibilityClass.__dict__["compute"].__func__
        self._replace(
            drawing.CompatibilityClass,
            "compute",
            classmethod(self.span_wrapper("drawing.class_compute")(compute)),
        )
        self._replace(
            drawing.PlanarDrawing,
            "crossings",
            self.span_wrapper("drawing.crossings")(drawing.PlanarDrawing.crossings),
        )

        # Counters on hot kernels, split by the module that calls them.
        self._replace_function(
            geom.classify_segments,
            self.counter_wrapper("geom.segment_tests.drawing"),
            only_module="surfembed.drawing",
        )
        self._replace_function(
            geom.classify_segments,
            self.counter_wrapper("geom.segment_tests.layout"),
            only_module="surfembed.layout",
        )
        self._replace_function(
            geom.intersection_point,
            self.counter_wrapper("geom.intersection_points"),
            only_module="surfembed.geom",
        )
        self._replace_function(drawing.finger_polyline, self.counter_wrapper("drawing.finger_attempts"))
        self._replace_function(graph.independent_pairs, self.counter_wrapper("graph.independent_pairs_calls"))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- analysis --------------------------------------------------------

    def _child_time(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for rec in self.spans:
            if rec[PARENT] is not None:
                key = id(rec[PARENT])
                out[key] = out.get(key, 0.0) + rec[END] - rec[START]
        return out

    def summary(self) -> tuple[dict, dict, Counter]:
        """Total and self time per span name, and counts per counter name.

        Self time is a span's duration minus the durations of its direct
        children.  The number of spans of each name appears in the counts
        as `<name>.calls`.
        """
        child_time = self._child_time()
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        counts: Counter = Counter()
        for rec in self.spans:
            name = rec[NAME]
            dur = rec[END] - rec[START]
            total[name] = total.get(name, 0.0) + dur
            self_time[name] = self_time.get(name, 0.0) + dur - child_time.get(id(rec), 0.0)
            counts[name + ".calls"] += 1
            counts.update(rec[COUNTS])
        return total, self_time, counts

    def counted_self_time(self, counters) -> float:
        """Self time of the spans that any of the counters was attributed to."""
        child_time = self._child_time()
        return sum(
            rec[END] - rec[START] - child_time.get(id(rec), 0.0)
            for rec in self.spans
            if any(rec[COUNTS].get(c) for c in counters)
        )

    def dump(self) -> list[dict]:
        index = {id(rec): k for k, rec in enumerate(self.spans)}
        t0 = self.spans[0][START] if self.spans else 0.0
        return [
            {
                "name": rec[NAME],
                "start": rec[START] - t0,
                "end": rec[END] - t0,
                "parent": index[id(rec[PARENT])] if rec[PARENT] is not None else None,
                "instance": rec[INSTANCE],
                "counts": dict(rec[COUNTS]),
            }
            for rec in self.spans
        ]
