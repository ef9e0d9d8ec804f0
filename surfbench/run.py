#!/usr/bin/env python3
"""Benchmark of the surfembed package, one workload per process.

    python3 surfbench/run.py --workload witness --seed 1 --seconds 25 --trace 0

Runs rounds of seeded instances of one workload (see workloads.py) until
--seconds have passed, checks every answer, and prints one JSON object as
the last line of standard output.  With --trace 0 it reports end-to-end
metrics.  With --trace 1 every instance runs twice, untraced and with spans
installed around the package's layer boundaries (spans.py), in alternating
order; the per-layer metrics of round 0 are reported together with the
tracing overhead.  Lines before the JSON line start with "#" and give the
input properties and details such as the tail percentile and its sample
count.  Per-layer times are unscaled wall seconds of the traced executions.

The package is imported from src/ next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

import spans  # noqa: E402
import workloads  # noqa: E402

SETUP_REPS = 9
HARD_STOP_S = 150.0  # never start an instance after this, whatever --seconds says
TAIL_BEYOND = 10


def fresh_import():
    """Import surfembed from src/ anew, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "surfembed" or n.startswith("surfembed.")]:
        del sys.modules[name]
    se = importlib.import_module("surfembed")
    if Path(se.__file__).resolve().parent != SRC / "surfembed":
        raise ImportError(f"surfembed imported from {se.__file__}, not from {SRC}")
    return se


def tail(values):
    """Highest order statistic with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples, samples above it).  With fewer
    than TAIL_BEYOND + 1 samples no such statistic exists and the maximum is
    returned.
    """
    xs = sorted(values)
    n = len(xs)
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return xs[k], 100.0 * (k + 1) / n, n, n - 1 - k


def summarize_props(rows: list[dict]) -> dict:
    """Min / median / mean / max / total of numeric properties, counts of labels."""
    keys = sorted({k for row in rows for k in row})
    out = {}
    for key in keys:
        vals = [row[key] for row in rows if key in row]
        if all(isinstance(v, (int, float)) for v in vals):
            out[key] = {
                "min": min(vals),
                "median": statistics.median(vals),
                "mean": sum(vals) / len(vals),
                "max": max(vals),
                "total": sum(vals),
                "n": len(vals),
            }
        else:
            out[key] = dict(Counter(vals))
    return out


def layer_metrics(tracer: spans.Tracer) -> dict:
    total, self_time, counts = tracer.summary()
    moves = counts["drawing.finger_move.calls"]
    nodes = counts["solver.nodes"]
    search_self = self_time.get("solver.search", 0.0)
    seg_d = counts["geom.segment_tests.drawing"]
    seg_l = counts["geom.segment_tests.layout"]
    seg_time = tracer.counted_self_time(("geom.segment_tests.drawing", "geom.segment_tests.layout"))
    return {
        "solver.nodes": (nodes, "count"),
        "solver.nodes_per_s": (nodes / search_self if search_self else 0.0, "1/s"),
        "solver.search_self_s": (search_self, "s"),
        "drawing.realize_s": (total.get("drawing.realize", 0.0), "s"),
        "drawing.finger_moves": (moves, "count"),
        "drawing.finger_move_s": (total.get("drawing.finger_move", 0.0), "s"),
        "drawing.finger_attempts_per_move": (
            counts["drawing.finger_attempts"] / moves if moves else 0.0,
            "attempts/move",
        ),
        "drawing.class_compute_calls": (counts["drawing.class_compute.calls"], "count"),
        "drawing.class_compute_s": (total.get("drawing.class_compute", 0.0), "s"),
        "drawing.crossings_s": (total.get("drawing.crossings", 0.0), "s"),
        "geom.segment_tests.drawing": (seg_d, "count"),
        "geom.segment_tests.layout": (seg_l, "count"),
        "geom.segment_tests_per_s": ((seg_d + seg_l) / seg_time if seg_time else 0.0, "1/s"),
        "geom.intersection_points": (counts["geom.intersection_points"], "count"),
        "gf2.solve_calls": (counts["gf2.solve.calls"], "count"),
        "gf2.solve_s": (total.get("gf2.solve", 0.0), "s"),
        "intmat.factor_s": (total.get("intmat.factor", 0.0), "s"),
        "intmat.factor_l1": (counts["intmat.factor_l1"], "count"),
        "surface.construct_s": (total.get("surface.construct", 0.0), "s"),
        "surface.verify_z2_s": (total.get("surface.verify_z2", 0.0), "s"),
        "surface.verify_z_s": (total.get("surface.verify_z", 0.0), "s"),
        "layout.verify_geometric_s": (total.get("layout.verify_geometric", 0.0), "s"),
        "graph.independent_pairs_calls": (counts["graph.independent_pairs_calls"], "count"),
    }


class Calibration:
    """Speed of this machine, sampled by a timer while the instances run.

    On a shared machine the CPU time of the same instance can change by
    40 % within a minute, as neighbours come and go.  Every EVERY_S seconds
    of wall time a SIGALRM handler times a fixed kernel that does exact
    Fraction arithmetic and small-object churn, like the package, with the
    cyclic collector off so the package's heap cannot change its cost.  A
    measured interval is rescaled by REF_S over the mean kernel time during
    it, or over the MIN_NEAR samples nearest to it when it holds fewer, so
    figures read as CPU seconds on a machine on which the kernel takes
    REF_S.  The mean, not the median, because an interval's CPU time is the
    integral of the machine's slowness over it, short stalls included; the
    nearest samples only, because the slowness changes within a second.
    The CPU time the handler itself uses is taken out of every interval.
    """

    REF_S = 0.003
    EVERY_S = 0.05
    MIN_NEAR = 3

    def __init__(self):
        self.positions: list[float] = []  # wall time of each kernel sample
        self.samples: list[float] = []  # its kernel CPU seconds
        self.spent = 0.0  # CPU seconds used by the handler so far
        self._busy = False

    @staticmethod
    def _kernel():
        acc = Fraction(0)
        keep = {}
        for i in range(1, 300):
            f = Fraction(i, i + 7)
            acc += f * f - Fraction(1, i)
            keep[i % 17] = [acc, f]
        return acc

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:
            return
        self._busy = True
        enter = time.process_time()
        collecting = gc.isenabled()
        gc.disable()
        try:
            t0 = time.process_time()
            self._kernel()
            dt = time.process_time() - t0
        finally:
            if collecting:
                gc.enable()
        self.positions.append(time.perf_counter())
        self.samples.append(dt)
        self.spent += time.process_time() - enter
        self._busy = False

    def __enter__(self) -> "Calibration":
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.EVERY_S, self.EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> float:
        """REF_S over the mean kernel time during or nearest the interval."""
        pos = self.positions
        lo, hi = bisect.bisect_left(pos, start), bisect.bisect_right(pos, end)
        while hi - lo < self.MIN_NEAR and (lo > 0 or hi < len(pos)):
            if hi == len(pos) or (lo > 0 and start - pos[lo - 1] <= pos[hi] - end):
                lo -= 1
            else:
                hi += 1
        return self.REF_S / statistics.fmean(self.samples[lo:hi])

    def kernel_median(self) -> float:
        return statistics.median(self.samples)


class Timed:
    """CPU seconds of one call, less the calibration handler's, and where
    the call sat in wall time."""

    __slots__ = ("cal", "cpu", "start", "end", "_cpu0", "_spent0")

    def __init__(self, cal: Calibration):
        self.cal = cal
        self._spent0 = cal.spent
        self.start = time.perf_counter()
        self._cpu0 = time.process_time()

    def stop(self) -> "Timed":
        self.cpu = time.process_time() - self._cpu0 - (self.cal.spent - self._spent0)
        self.end = time.perf_counter()
        return self


def execute(wl, se, inst, cal: Calibration):
    """Run one instance; returns (Timed, result, traceback text or None)."""
    clock = Timed(cal)
    try:
        result = wl.run(se, inst)
    except Exception:  # a crash in the program counts as a failed instance
        return clock.stop(), None, traceback.format_exc()
    return clock.stop(), result, None


def execute_traced(wl, se, inst, cal: Calibration, tracer: spans.Tracer, instance_id: str):
    tracer.install(se)
    tracer.instance = instance_id
    root = tracer.begin("instance")
    try:
        return execute(wl, se, inst, cal)
    finally:
        tracer.end(root)
        tracer.uninstall()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "surfembed" / "__init__.py").is_file():
        print(f"error: no surfembed package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    wl = workloads.WORKLOADS[args.workload]

    with Calibration() as cal:
        # Set-up: a fresh import plus the inputs of round 0, repeated.
        setup_times = []
        for _ in range(SETUP_REPS):
            clock = Timed(cal)
            se = fresh_import()
            round0 = wl.make_round(se, args.seed, 0)
            setup_times.append(clock.stop())

        tracer = spans.Tracer() if args.trace else None
        times, cases, traced_times, rows, failures = [], [], [], [], []
        attempted = failed = decided = 0
        layer = None
        start = time.perf_counter()
        r = 0
        while True:
            batch = round0 if r == 0 else wl.make_round(se, args.seed, r)
            for inst in batch:
                if tracer is None:
                    runs = [execute(wl, se, inst, cal)]
                else:
                    # Alternate which side runs first, so warm-up does not
                    # bias the overhead.
                    runs = [None, None]
                    for side in ((0, 1) if len(times) % 2 == 0 else (1, 0)):
                        if side:
                            runs[1] = execute_traced(wl, se, inst, cal, tracer, f"{r}:{inst.case}")
                        else:
                            runs[0] = execute(wl, se, inst, cal)
                    traced_times.append(runs[1][0])
                times.append(runs[0][0])
                cases.append(inst.case)
                props = dict(inst.props, label=inst.label)
                for _, result, err in runs:
                    attempted += 1
                    outcome = None if err else wl.check(se, inst, result)
                    if outcome is None or not outcome.ok:
                        failed += 1
                        failures.append(f"{inst.case} {inst.label}: {err or outcome.note}")
                    if outcome is not None:
                        decided += outcome.decided
                        props.update(outcome.props)
                rows.append(props)
            if tracer is not None and r == 0:
                layer = layer_metrics(tracer)
            r += 1
            elapsed = time.perf_counter() - start
            if elapsed >= args.seconds or elapsed >= HARD_STOP_S:
                break

    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} rounds={r} "
          f"instances={len(times)} measured_s={elapsed:.3f}")
    print("# properties " + json.dumps(summarize_props(rows), sort_keys=True))
    for line in failures[:20]:
        print("# FAILED " + line.replace("\n", " | "))

    def scaled(c: Timed) -> float:
        return c.cpu * cal.scale(c.start, c.end)

    if tracer is None:
        def figures(seconds):
            """Set-up median, p50, tail and throughput from per-call seconds."""
            setup = statistics.median(seconds(c) for c in setup_times)
            # One sample per case: the mean of the case's executions, which
            # in search are solves of the same graph under other labellings.
            repeats: dict[str, list[float]] = {}
            for case, c in zip(cases, times):
                repeats.setdefault(case, []).append(seconds(c))
            samples = [statistics.fmean(v) for v in repeats.values()]
            total = sum(seconds(c) for c in times)
            return setup, statistics.median(samples), tail(samples), len(times) / total

        setup, p50, (tail_value, tail_pct, n, beyond), rate = figures(scaled)
        raw = figures(lambda c: c.cpu)
        print(f"# instance_s_tail is p{tail_pct:.1f} of {n} cases "
              f"({beyond} beyond it), {len(times)} executions; "
              f"setup_s is the median of {SETUP_REPS} set-ups")
        print(f"# calibration: kernel median {cal.kernel_median() * 1e3:.3f} ms over "
              f"{len(cal.samples)} samples; unscaled CPU figures: setup_s {raw[0]:.6f}, "
              f"instance_s_p50 {raw[1]:.6f}, instance_s_tail {raw[2][0]:.6f}, "
              f"instances_per_s {raw[3]:.6f}")
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": (setup, "s"),
            "instance_s_p50": (p50, "s"),
            "instance_s_tail": (tail_value, "s"),
            "instances_per_s": (rate, "1/s"),
            "decided_frac": (decided / attempted, "fraction"),
            "ok_frac": ((attempted - failed) / attempted, "fraction"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
    else:
        untraced = sum(map(scaled, times))
        traced = sum(map(scaled, traced_times))
        overhead = traced - untraced
        print(f"# tracing overhead: traced {traced:.4f} s - untraced {untraced:.4f} s "
              f"= {overhead:.4f} s over {len(times)} instance pairs; per-layer figures are round 0")
        metrics = dict(layer)
        metrics["trace.overhead_s"] = (overhead / len(times), "s")
        metrics["trace.overhead_frac"] = (overhead / untraced, "fraction")
        OUT.mkdir(exist_ok=True)
        path = OUT / f"{args.workload}-seed{args.seed}.trace.json"
        with open(path, "w") as fh:
            json.dump(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "metrics": {k: v[0] for k, v in metrics.items()},
                    "properties": summarize_props(rows),
                    "spans": tracer.dump(),
                },
                fh,
            )
        print(f"# spans written to {path.relative_to(HERE.parent)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
