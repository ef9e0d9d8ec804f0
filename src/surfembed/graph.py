"""Simple undirected graphs with a stable edge order.

Edges are indexed by position in the edge list; every matrix in this
package is indexed by those edge indices.  Only simple graphs are
accepted: no loops, no parallel edges.
"""

from __future__ import annotations

from dataclasses import dataclass


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class Graph:
    vertex_count: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, vertex_count: int, edges) -> None:
        # bool is an int, but True is no vertex count
        if not isinstance(vertex_count, int) or isinstance(vertex_count, bool):
            raise GraphError("vertex_count must be an integer")
        if vertex_count < 0:
            raise GraphError("vertex_count must be non-negative")
        norm = []
        seen = set()
        for e in edges:
            u, v = e
            if any(not isinstance(x, int) or isinstance(x, bool) for x in (u, v)):
                raise GraphError(f"edge {e} has an end that is no integer")
            if u == v:
                raise GraphError(f"self-loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise GraphError(f"edge {e} out of range for {vertex_count} vertices")
            key = (min(u, v), max(u, v))
            if key in seen:
                raise GraphError(f"duplicate edge {key}")
            seen.add(key)
            norm.append(key)
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edges", tuple(norm))
        # Set in __init__ so the instance dict keeps its compact form: on
        # CPython 3.11 a later first write of a new attribute (as
        # functools.cached_property makes) materialises it, and every
        # attribute load on g gets slower.
        object.__setattr__(self, "_pairs", None)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        """independent_pairs(self), listed on first use and kept: the index
        set of every parity vector, matrix slot and finger move of g."""
        if self._pairs is None:
            object.__setattr__(self, "_pairs", tuple(independent_pairs(self)))
        return self._pairs


def independent_pairs(g: Graph) -> list[tuple[int, int]]:
    """All unordered pairs (i, j), i < j, of edges sharing no vertex, in
    lexicographic order.  Plain int tuples, which the cyclic GC untracks."""
    edges = g.edges
    out = []
    for i, (a, b) in enumerate(edges):
        for j in range(i + 1, len(edges)):
            c, d = edges[j]
            if a != c and a != d and b != c and b != d:
                out.append((i, j))
    return out


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete_graph needs n >= 1")
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return Graph(n, edges)


def complete_bipartite(m: int, n: int) -> Graph:
    if m < 1 or n < 1:
        raise GraphError("complete_bipartite needs m, n >= 1")
    edges = [(u, m + v) for u in range(m) for v in range(n)]
    return Graph(m + n, edges)


def parse_int(s: str) -> int:
    """The integer written s, ASCII -?[0-9]+, the one integer reader of the
    text formats; ValueError on anything else.  Plain int() also takes
    underscores, a sign "+", surrounding spaces and non-ASCII digits."""
    if not (s.isascii() and (s.isdigit() or s[:1] == "-" and s[1:].isdigit())):
        raise ValueError(f"not an integer: {s!r}")
    return int(s)


def parse_graph(text: str) -> Graph:
    """Parse the graph text format: `graph <n>` then one `u v` line per edge."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise GraphError("empty graph file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "graph":
        raise GraphError(f"bad graph header: {lines[0]!r}")
    try:
        n = parse_int(head[1])
    except ValueError:
        raise GraphError(f"bad graph header: {lines[0]!r}") from None
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line: {ln!r}")
        try:
            edges.append((parse_int(parts[0]), parse_int(parts[1])))
        except ValueError:
            raise GraphError(f"bad edge line: {ln!r}") from None
    return Graph(n, edges)


def serialize_graph(g: Graph) -> str:
    lines = [f"graph {g.vertex_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"
