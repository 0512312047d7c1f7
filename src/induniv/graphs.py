"""Immutable simple undirected graphs and the metric operations built on them.

Vertices are dense integer ids ``0..n-1``. Neighbour rows are kept sorted,
which makes every ordering derived from them (vertex ranks, layouts)
deterministic. A graph built from edges keeps each row as a tuple; one built
from a neighbour table, as every LPS host is, keeps only that table, as a
read-only int32 array, and reads its rows as views of it. Closeness is always
"within distance 4" (``RADIUS``). An LPS host carries its metric,
``lps.PowerNeighborhoods``, which its build attaches and which decides
closeness by group arithmetic; any other graph gets the breadth-first
reference, ``BfsNeighborhoods``, from ``shared_power_neighborhoods``.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections import deque
from typing import Iterable, Iterator

import numpy as np

from .errors import ArgumentError

INF = math.inf
RADIUS = 4  # "close" in the product-graph oracle and in walk separation


def _is_int(value) -> bool:
    """An integer other than a bool, Python's or numpy's (``operator.index``)."""
    return not isinstance(value, bool) and hasattr(value, "__index__")


class Graph:
    """Simple undirected graph with sorted neighbour rows.

    ``_adj[v]`` is the sorted row of v: a tuple for a graph built from
    edges, and a view of the kept table (``_TableRows``) for one built by
    ``from_neighbor_table``, which holds no object per vertex. Both forms
    compare and hash alike: the hash is (vertex count, edge count), and
    equality compares the rows. Instances are immutable after construction.
    Connectivity is memoised on first use; it is a pure function of the
    adjacency, so a race at worst computes it twice. A graph pickles as its
    vertex count and edges, except an LPS host (one whose build attached its
    group metric to ``_metric``), which pickles as the ``lps.cached_lps_graph``
    call that rebuilds it with that metric. Self-loops are rejected;
    duplicate edges are collapsed.
    """

    __slots__ = ("vertex_count", "edge_count", "_adj", "_connected", "_metric", "_table")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if not _is_int(vertex_count):
            raise ArgumentError(f"vertex_count must be an integer, got {vertex_count!r}")
        vertex_count = operator.index(vertex_count)  # numpy's integers too
        if vertex_count < 0:
            raise ArgumentError(f"vertex_count must be non-negative, got {vertex_count}")
        adj: list[list[int]] = [[] for _ in range(vertex_count)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
            if not (type(u) is int and type(v) is int):
                if not (_is_int(u) and _is_int(v)):
                    raise ArgumentError(f"edge ({u!r}, {v!r}) must join integer vertex ids")
                u, v = operator.index(u), operator.index(v)  # numpy's integers too
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ArgumentError(f"edge ({u}, {v}) out of range for {vertex_count} vertices")
            if u == v:
                raise ArgumentError(f"self-loop at vertex {u} not allowed")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                continue
            seen.add(key)
            adj[u].append(v)
            adj[v].append(u)
        self._init_slots(vertex_count, len(seen), tuple(tuple(sorted(nb)) for nb in adj))

    def _init_slots(self, vertex_count: int, edge_count: int, adj,
                    table: np.ndarray | None = None) -> None:
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edge_count", edge_count)
        object.__setattr__(self, "_adj", adj)
        object.__setattr__(self, "_connected", None)
        object.__setattr__(self, "_metric", None)
        object.__setattr__(self, "_table", table)

    @classmethod
    def from_neighbor_table(cls, table) -> Graph:
        """The d-regular graph whose vertex v has the neighbours in row v of
        an (n, d) integer table, in any order.

        The rows must already describe a simple undirected graph: ids in
        range, no self-loop, no repeated neighbour, and w in row v exactly
        when v is in row w. Each is checked with whole-table numpy operations
        and a violation raises ArgumentError, so no edge set is built. The
        graph keeps the sorted table as a read-only int32 array, its
        ``neighbor_table``, and nothing per vertex: its rows are views of it.
        """
        rows = np.array(table, dtype=np.int64)
        if rows.ndim != 2:
            raise ArgumentError(f"neighbor table must be 2-D, got shape {rows.shape}")
        n, d = rows.shape
        rows.sort(axis=1)
        if rows.size and not (rows[:, 0].min() >= 0 and rows[:, -1].max() < n):
            raise ArgumentError(f"neighbor table holds ids out of range [0, {n})")
        if (rows[:, 1:] == rows[:, :-1]).any():
            raise ArgumentError("neighbor table repeats a neighbour")
        owner = np.arange(n, dtype=np.int64)[:, None]
        if (rows == owner).any():
            raise ArgumentError("neighbor table has a self-loop")
        forward = (owner * n + rows).reshape(-1)  # sorted, rows being sorted
        backward = np.sort((rows * n + owner).reshape(-1))
        if not np.array_equal(forward, backward):
            raise ArgumentError("neighbor table is not symmetric")
        kept = rows.astype(np.int32)
        kept.setflags(write=False)
        g = cls.__new__(cls)
        g._init_slots(n, n * d // 2, _TableRows(kept), kept)
        return g

    def neighbor_table(self) -> np.ndarray:
        """The sorted neighbour rows as an (n, d) int32 array; the graph must
        be d-regular (the inverse of ``from_neighbor_table``, whose table is
        returned as it was kept, read-only)."""
        if self._table is not None:
            return self._table
        if not self.is_regular():
            raise ArgumentError("neighbor_table needs a regular graph")
        return np.array(self._adj, dtype=np.int32).reshape(
            self.vertex_count, self.max_degree())

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        if self._metric is not None:
            from .lps import cached_lps_graph  # lps imports this module
            return cached_lps_graph, (self.max_degree() - 1, self._metric.group.q)
        return (type(self), (self.vertex_count, list(self.edges())))

    # -- basic accessors ---------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return tuple(self._adj[v])

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return [len(nb) for nb in self._adj]

    def max_degree(self) -> int:
        if self._table is not None:
            return self._table.shape[1] if self.vertex_count else 0
        return max((len(nb) for nb in self._adj), default=0)

    def is_regular(self) -> bool:
        if self._table is not None:
            return True
        return len(set(self.degrees())) <= 1

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        nb = self._adj[u]
        i = bisect_left(nb, v)
        return i < len(nb) and nb[i] == v

    def edges(self) -> Iterator[tuple[int, int]]:
        for u, nb in enumerate(self._adj):
            for v in nb:
                if u < v:
                    yield (u, v)

    def _check_vertex(self, v: int) -> None:
        # any integer type, numpy's among them, reads through __index__
        try:
            ok = 0 <= operator.index(v) < self.vertex_count
        except TypeError:
            ok = False
        if not ok:
            raise ArgumentError(f"vertex id {v!r} out of range [0, {self.vertex_count})")

    def __eq__(self, other) -> bool:
        if not (isinstance(other, Graph) and self.vertex_count == other.vertex_count
                and self.edge_count == other.edge_count):
            return False
        if self._table is None and other._table is None:
            return self._adj == other._adj
        # a table graph is regular, of degree 2m/n, and so is any graph equal
        # to it; flat, so that two graphs without vertices compare equal
        return self.is_regular() and other.is_regular() and np.array_equal(
            self.neighbor_table().reshape(-1), other.neighbor_table().reshape(-1))

    def __hash__(self) -> int:
        # the same for both storage forms, so it reads no row
        return hash((self.vertex_count, self.edge_count))

    def __repr__(self) -> str:
        return f"Graph(n={self.vertex_count}, m={self.edge_count})"

    # -- traversal and metrics ---------------------------------------------

    def bfs_distances(self, source: int, cutoff: int | None = None) -> list[int]:
        """Distances from ``source``; unreachable vertices get -1.

        With ``cutoff`` set, exploration stops past that depth (entries
        beyond it stay -1).
        """
        self._check_vertex(source)
        dist = [-1] * self.vertex_count
        dist[source] = 0
        queue = deque([source])
        adj = self._adj
        while queue:
            u = queue.popleft()
            du = dist[u]
            if cutoff is not None and du >= cutoff:
                continue
            for w in adj[u]:
                if dist[w] < 0:
                    dist[w] = du + 1
                    queue.append(w)
        return dist

    def distance(self, u: int, v: int) -> int | float:
        """Shortest-path length between u and v; inf across components."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return 0
        dist = [-1] * self.vertex_count
        dist[u] = 0
        queue = deque([u])
        while queue:
            x = queue.popleft()
            for w in self._adj[x]:
                if dist[w] < 0:
                    dist[w] = dist[x] + 1
                    if w == v:
                        return dist[w]
                    queue.append(w)
        return INF

    def is_connected(self) -> bool:
        if self._connected is None:
            if self.vertex_count <= 1:
                connected = True
            elif self._table is not None:
                depth = np.full(self.vertex_count, -1, dtype=np.int64)
                for _ in self._table_levels(depth):
                    pass
                connected = bool((depth >= 0).all())
            else:
                connected = min(self.bfs_distances(0)) >= 0
            object.__setattr__(self, "_connected", connected)
        return self._connected

    def _table_levels(self, depth: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """A breadth-first search from vertex 0 over the kept neighbour
        table, one whole level at a time. It fills ``depth``, all -1 on
        entry, with each vertex's distance, and yields each level's distance
        with the neighbour rows of its vertices, before the next level is
        marked; unreachable vertices keep -1."""
        depth[0] = level = 0
        frontier = np.zeros(1, dtype=np.int64)
        while len(frontier):
            ahead = self._table[frontier]
            yield level, ahead
            level += 1
            found = np.zeros(len(depth), dtype=bool)
            found[ahead] = True
            found &= depth < 0
            frontier = np.flatnonzero(found)
            depth[frontier] = level

    def connected_components(self) -> list[list[int]]:
        seen = [False] * self.vertex_count
        comps = []
        for s in range(self.vertex_count):
            if seen[s]:
                continue
            comp = [s]
            seen[s] = True
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in self._adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
                        queue.append(w)
            comps.append(sorted(comp))
        return comps

    def is_bipartite(self) -> bool:
        if self._table is not None and self.vertex_count:
            # an edge inside a breadth-first level closes an odd cycle; when
            # none does and every vertex is reached, the levels' parity
            # 2-colours the graph
            depth = np.full(self.vertex_count, -1, dtype=np.int64)
            for level, ahead in self._table_levels(depth):
                if (depth[ahead] == level).any():
                    return False
            if (depth >= 0).all():
                return True
        color = [-1] * self.vertex_count
        for s in range(self.vertex_count):
            if color[s] >= 0:
                continue
            color[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in self._adj[u]:
                    if color[w] < 0:
                        color[w] = 1 - color[u]
                        queue.append(w)
                    elif color[w] == color[u]:
                        return False
        return True

    def girth(self) -> int | float:
        """Length of the shortest cycle; inf for forests.

        Truncated BFS from every vertex, restricted to the subgraph of ids
        >= the start vertex (every shortest cycle is found from its minimum
        vertex, and detected closed walks never undercut the girth).
        """
        best: int | float = INF
        dist = [-1] * self.vertex_count
        for src in range(self.vertex_count - 1, -1, -1):
            if best == 3:
                break
            best = self._cycle_search(src, src, best, dist)
        return best

    def girth_through(self, source: int) -> int | float:
        """Girth bound from one BFS at ``source``: the shortest closed walk it
        detects, never below the girth, and equal to it whenever ``source``
        lies on a shortest cycle, as every vertex of a vertex-transitive
        graph does. inf when no cycle is reachable from ``source``.
        """
        self._check_vertex(source)
        return self._cycle_search(source, 0, INF, [-1] * self.vertex_count)

    def _cycle_search(self, src: int, floor: int, best, dist: list[int]):
        """BFS from src over ids >= floor; returns min(best, the shortest
        closed walk found), stopping once no shorter one can appear. Resets
        the entries of ``dist`` it set."""
        adj = self._adj
        dist[src] = 0
        queue = deque([src])
        touched = [src]
        while queue:
            u = queue.popleft()
            du = dist[u]
            if 2 * du + 1 >= best:
                break
            for w in adj[u]:
                if w < floor:
                    continue
                dw = dist[w]
                if dw < 0:
                    dist[w] = du + 1
                    touched.append(w)
                    queue.append(w)
                elif dw >= du:
                    cand = du + dw + 1
                    if cand < best:
                        best = cand
        for t in touched:
            dist[t] = -1
        return best


class _TableRows:
    """The rows of a neighbour table as ``Graph._adj`` reads them: row v is a
    1-D memoryview slice of the flat table, which yields Python ints and
    supports ``len``, ``in`` and ``bisect``, so the methods that read
    ``_adj[v]`` run on either storage form. Nothing is kept per row."""

    __slots__ = ("_flat", "_d", "_n")

    def __init__(self, table: np.ndarray):
        self._n, self._d = table.shape
        self._flat = memoryview(table.reshape(-1))

    def __getitem__(self, v: int) -> memoryview:
        d = self._d
        return self._flat[v * d:v * d + d]

    def __iter__(self) -> Iterator[memoryview]:
        return map(self.__getitem__, range(self._n))


# -- the radius-4 power metric ----------------------------------------------


class BfsNeighborhoods:
    """The breadth-first reference radius-4 metric, for graphs without a
    group: distance-<=4 (``RADIUS``) neighborhoods, the vertex itself left
    out, and a fixed rank for each member of each.

    The row of v is the sorted ids that ``Graph.bfs_distances(v,
    cutoff=RADIUS)`` puts at distance 1 to 4, made when v is first asked
    about and held in ``_cache`` as a tuple that ``contains`` and ``rank``
    bisect; the rank of w is its position there. It answers scalar queries
    only; the batched ``close_pairs`` is the LPS metric's alone.
    """

    def __init__(self, g: Graph):
        self.graph = g
        self._cache: dict[int, tuple[int, ...]] = {}

    def _row(self, v: int) -> tuple[int, ...]:
        row = self._cache.get(v)
        if row is None:
            dist = self.graph.bfs_distances(v, cutoff=RADIUS)
            row = self._cache[v] = tuple(w for w, d in enumerate(dist) if d > 0)
        return row

    def row(self, v: int) -> np.ndarray:
        """The sorted neighborhood of v, as an array."""
        return np.array(self._row(v), dtype=np.int64)

    def contains(self, v: int, w: int) -> bool:
        """True iff 0 < dist(v, w) <= 4, i.e. {v, w} is a power-graph edge."""
        return self.rank(v, w) is not None

    def rank(self, v: int, w: int) -> int | None:
        """The position of w in the row of v, None if absent."""
        row = self._row(v)
        i = bisect_left(row, w)
        return i if i < len(row) and row[i] == w else None


def shared_power_neighborhoods(g: Graph):
    """The radius-4 metric of g: an LPS host's group metric, which its build
    attached (``lps.PowerNeighborhoods``), or else a fresh breadth-first
    reference (``BfsNeighborhoods``) holding the rows asked about."""
    return g._metric if g._metric is not None else BfsNeighborhoods(g)


# -- factories ---------------------------------------------------------------


def empty_graph(n: int) -> Graph:
    return Graph(n)


def path_graph(n: int) -> Graph:
    return Graph(n, ((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ArgumentError(f"cycle needs at least 3 vertices, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def circulant_graph(n: int, offsets: Iterable[int]) -> Graph:
    edges = []
    for s in offsets:
        if not 1 <= s <= n // 2:
            raise ArgumentError(f"circulant offset {s} out of range for n={n}")
        edges.extend((i, (i + s) % n) for i in range(n))
    return Graph(n, edges)


def disjoint_union(a: Graph, b: Graph) -> Graph:
    off = a.vertex_count
    edges = list(a.edges()) + [(u + off, v + off) for u, v in b.edges()]
    return Graph(a.vertex_count + b.vertex_count, edges)


# -- edge-list text format ---------------------------------------------------
#
# First line "n m", then m lines "u v" with 0-based ids. Blank lines and
# lines starting with '#' are ignored.


def parse_edge_list(text: str) -> Graph:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ArgumentError("empty edge-list input")
    head = lines[0].split()
    if len(head) != 2:
        raise ArgumentError(f"expected header 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ArgumentError(f"non-integer header {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        try:
            u, v = (int(x) for x in parts)
        except ValueError as exc:
            raise ArgumentError(f"expected edge line 'u v', got {ln!r}") from exc
        edges.append((u, v))
    if len(edges) != m:
        raise ArgumentError(f"header declares {m} edges, found {len(edges)}")
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    lines = [f"{g.vertex_count} {g.edge_count}"]
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def load_edge_list(path) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


def dump_edge_list(g: Graph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
