"""Immutable simple undirected graphs and the metric operations built on them.

Vertices are dense integer ids ``0..n-1``. Neighbor lists are kept sorted,
which makes every ordering derived from them (vertex ranks, walk
tie-breaking, layouts) deterministic.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections import deque
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ArgumentError

INF = math.inf
RADIUS = 4  # "close" in the product-graph oracle and in walk separation
_BLOCK = 32  # consecutive vertices whose power rows are built together


class Graph:
    """Simple undirected graph with canonical sorted adjacency lists.

    Instances are immutable after construction. Connectivity and the radius-k
    metrics (``shared_power_neighborhoods``) are memoised on first use; as pure
    functions of the adjacency they keep sharing across threads safe, a race
    at worst computing one twice. A graph pickles as its vertex count and
    edges. Self-loops are rejected; duplicate edges are collapsed.
    """

    __slots__ = ("vertex_count", "edge_count", "_adj", "_hash", "_connected", "_metrics")

    def __init__(self, vertex_count: int, edges: Iterable[tuple[int, int]] = ()):
        if vertex_count < 0:
            raise ArgumentError(f"vertex_count must be non-negative, got {vertex_count}")
        adj: list[list[int]] = [[] for _ in range(vertex_count)]
        seen: set[tuple[int, int]] = set()
        for u, v in edges:
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
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "edge_count", len(seen))
        object.__setattr__(self, "_adj", tuple(tuple(sorted(nb)) for nb in adj))
        object.__setattr__(self, "_hash", hash((vertex_count, self._adj)))
        object.__setattr__(self, "_connected", None)
        object.__setattr__(self, "_metrics", {})

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Graph is immutable")

    def __reduce__(self):
        return (type(self), (self.vertex_count, list(self.edges())))

    # -- basic accessors ---------------------------------------------------

    def neighbors(self, v: int) -> tuple[int, ...]:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def degrees(self) -> list[int]:
        return [len(nb) for nb in self._adj]

    def max_degree(self) -> int:
        return max((len(nb) for nb in self._adj), default=0)

    def is_regular(self) -> bool:
        degs = self.degrees()
        return len(set(degs)) <= 1

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
        if not isinstance(v, int) or not (0 <= v < self.vertex_count):
            raise ArgumentError(f"vertex id {v!r} out of range [0, {self.vertex_count})")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph)
            and self.vertex_count == other.vertex_count
            and self._adj == other._adj
        )

    def __hash__(self) -> int:
        return self._hash

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
            connected = self.vertex_count <= 1 or min(self.bfs_distances(0)) >= 0
            object.__setattr__(self, "_connected", connected)
        return self._connected

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
        n = self.vertex_count
        adj = self._adj
        dist = [-1] * n
        for src in range(n - 1, -1, -1):
            if best == 3:
                break
            dist[src] = 0
            queue = deque([src])
            touched = [src]
            while queue:
                u = queue.popleft()
                du = dist[u]
                if 2 * du + 1 >= best:
                    break
                for w in adj[u]:
                    if w < src:
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


# -- the radius-k power metric ----------------------------------------------


class PowerNeighborhoods:
    """Sorted distance-<=k neighborhoods, the vertex itself left out.

    The first query about a vertex builds the rows of its whole block of
    ``_BLOCK`` consecutive ids by frontier expansion over a padded neighbor
    table, vectorised across the block. A block's rows are int64 views into
    one buffer and stay in ``_cache``, so memory follows the blocks touched,
    not the graph size.
    """

    def __init__(self, g: Graph, k: int = RADIUS):
        if k < 1:
            raise ArgumentError(f"power radius must be >= 1, got {k}")
        self.graph = g
        self.k = k
        n = g.vertex_count
        # row n is a sentinel; padding entries point at it
        table = np.full((n + 1, max(g.max_degree(), 1)), n, dtype=np.int32)
        for v, nb in enumerate(g._adj):
            table[v, :len(nb)] = nb
        self._table = table
        self._cache: dict[int, np.ndarray] = {}

    def _fill(self, v: int) -> np.ndarray:
        n = self.graph.vertex_count
        if not 0 <= v < n:
            raise ArgumentError(f"vertex id {v!r} out of range [0, {n})")
        start = v - v % _BLOCK
        src = np.arange(start, min(start + _BLOCK, n), dtype=np.int32)
        reached = src[:, None]
        for _ in range(self.k):
            grown = np.concatenate(
                [reached, self._table[reached].reshape(len(src), -1)], axis=1)
            grown.sort(axis=1)
            grown[:, 1:][grown[:, 1:] == grown[:, :-1]] = n
            grown.sort(axis=1)
            reached = grown[:, :int((grown < n).sum(axis=1).max())]
        keep = (reached < n) & (reached != src[:, None])
        buf = reached[keep].astype(np.int64)
        ends = np.cumsum(keep.sum(axis=1)).tolist()
        begin = 0
        for u, end in zip(range(start, start + len(src)), ends):
            self._cache[u] = buf[begin:end]
            begin = end
        return self._cache[v]

    def row(self, v: int) -> np.ndarray:
        r = self._cache.get(v)
        return self._fill(v) if r is None else r

    def contains(self, v: int, w: int) -> bool:
        """True iff 0 < dist(v, w) <= k, i.e. {v, w} is a power-graph edge."""
        row = self._cache.get(v)
        if row is None:
            row = self._fill(v)
        i = int(row.searchsorted(w))
        return i < len(row) and int(row[i]) == w

    def rank(self, v: int, w: int) -> int | None:
        """Position of w in the sorted neighborhood of v, None if absent."""
        row = self._cache.get(v)
        if row is None:
            row = self._fill(v)
        i = int(row.searchsorted(w))
        if i < len(row) and int(row[i]) == w:
            return i
        return None


def shared_power_neighborhoods(g: Graph, k: int = RADIUS) -> PowerNeighborhoods:
    """The radius-k metric of g, built on first use and held by g itself, so
    it lives exactly as long as the graph and is never rebuilt while it does."""
    pow_nbhd = g._metrics.get(k)
    if pow_nbhd is None:
        pow_nbhd = g._metrics.setdefault(k, PowerNeighborhoods(g, k))
    return pow_nbhd


# -- vertex sequences ------------------------------------------------------


def is_walk(g: Graph, seq: Sequence[int]) -> bool:
    """True iff consecutive vertices of the sequence are adjacent in g."""
    return all(g.has_edge(seq[i], seq[i + 1]) for i in range(len(seq) - 1))


def is_path(g: Graph, seq: Sequence[int]) -> bool:
    """True iff the sequence is a walk with all vertices distinct."""
    return len(set(seq)) == len(seq) and is_walk(g, seq)


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
        if len(parts) != 2:
            raise ArgumentError(f"expected edge line 'u v', got {ln!r}")
        edges.append((int(parts[0]), int(parts[1])))
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
