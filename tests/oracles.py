"""Independent oracle implementations used only by the tests.

Each oracle recomputes a quantity from its definition with a different
algorithm (and often a different library) than the package uses, so that an
agreement between the two is meaningful.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

import networkx as nx
import numpy as np

from induniv.graphs import Graph


def to_networkx(g: Graph) -> nx.Graph:
    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from(g.edges())
    return h


def oracle_distances(g: Graph, source: int) -> dict[int, int]:
    """Plain dict-and-deque BFS, independent of Graph.bfs_distances."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def oracle_power(g: Graph, k: int) -> set[tuple[int, int]]:
    """Edge set of the k-th power via all-pairs BFS."""
    edges = set()
    for u in range(g.vertex_count):
        dist = oracle_distances(g, u)
        for w, d in dist.items():
            if 0 < d <= k and u < w:
                edges.add((u, w))
    return edges


def oracle_girth(g: Graph) -> int | float:
    """Shortest cycle by edge removal: min over edges of dist(u, v) + 1
    in the graph without that edge."""
    best = math.inf
    edges = list(g.edges())
    for u, v in edges:
        rest = Graph(g.vertex_count, [e for e in edges if e != (u, v)])
        d = oracle_distances(rest, u).get(v)
        if d is not None and d + 1 < best:
            best = d + 1
    return best


def oracle_spectrum(g: Graph) -> np.ndarray:
    a = np.zeros((g.vertex_count, g.vertex_count))
    for u, v in g.edges():
        a[u, v] = a[v, u] = 1.0
    return np.linalg.eigvalsh(a)


def oracle_second_eigenvalue(g: Graph) -> float:
    """Full dense spectrum, then drop the trivial eigenvalues."""
    d = g.degree(0)
    vals = sorted(oracle_spectrum(g), key=abs, reverse=True)
    trivial = [d] + ([-d] if g.is_bipartite() else [])
    for t in trivial:
        for i, v in enumerate(vals):
            if abs(v - t) < 1e-8:
                vals.pop(i)
                break
    return max((abs(v) for v in vals), default=0.0)


# -- expanding vertices ---------------------------------------------------------


def oracle_all_paths(g: Graph, max_size: int) -> list[tuple[int, ...]]:
    """Every path with 1..max_size vertices, as raw sequences (both
    directions included)."""
    out = []
    for start in range(g.vertex_count):
        stack = [(start, (start,))]
        while stack:
            u, path = stack.pop()
            out.append(path)
            if len(path) < max_size:
                for w in g.neighbors(u):
                    if w not in path:
                        stack.append((w, path + (w,)))
    return out


def oracle_q_expanding(g: Graph, v: int, sets, q: int) -> bool:
    """Literal definition: enumerate every path P and every candidate
    walk from v, with no dedup, thresholds or early exits."""
    ell = g.vertex_count
    avoid = [set(s) for s in sets]
    from_v = [p for p in oracle_all_paths(g, q + 1) if p[0] == v and len(p) == q + 1]
    for p_seq in oracle_all_paths(g, q):
        p_set = set(p_seq)
        endpoints = set()
        for cand in from_v:
            walk = cand[1:]
            if all(walk[i] not in avoid[i] and walk[i] not in p_set for i in range(q)):
                endpoints.add(walk[-1])
        if len(endpoints) < ell / 2:
            return False
    return True


# -- thinness ---------------------------------------------------------------------


def _comp_subgraph_edges(g: Graph, comp: set[int]) -> list[tuple[int, int]]:
    return [(u, v) for u, v in g.edges() if u in comp and v in comp]


def _is_path_graph(edges: list[tuple[int, int]], verts: list[int]) -> bool:
    if not verts:
        return False
    if len(edges) != len(verts) - 1:
        return False
    degs = {v: 0 for v in verts}
    for u, v in edges:
        degs[u] += 1
        degs[v] += 1
    if any(d > 2 for d in degs.values()):
        return False
    return _connected(edges, verts)


def _is_cycle_graph(edges: list[tuple[int, int]], verts: list[int]) -> bool:
    if len(verts) < 3 or len(edges) != len(verts):
        return False
    degs = {v: 0 for v in verts}
    for u, v in edges:
        degs[u] += 1
        degs[v] += 1
    return all(d == 2 for d in degs.values()) and _connected(edges, verts)


def _connected(edges: list[tuple[int, int]], verts: list[int]) -> bool:
    if not verts:
        return False
    adj = {v: [] for v in verts}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {verts[0]}
    queue = deque([verts[0]])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(verts)


def oracle_augmentation_of_path_or_cycle(g: Graph, comp: list[int]) -> bool:
    """Try every subset W of added vertices, literally per the definition:
    all of W has degree 1, their anchors are distinct and outside W, and
    the rest is a path or a cycle."""
    comp_set = set(comp)
    for r in range(len(comp) + 1):
        for w_set in itertools.combinations(comp, r):
            w = set(w_set)
            base = [v for v in comp if v not in w]
            if not base:
                continue
            ok = True
            anchors = set()
            for x in w:
                nbrs = [y for y in g.neighbors(x) if y in comp_set]
                if len(nbrs) != 1 or nbrs[0] in w or nbrs[0] in anchors:
                    ok = False
                    break
                anchors.add(nbrs[0])
            if not ok:
                continue
            base_edges = [
                (u, v) for u, v in _comp_subgraph_edges(g, comp_set)
                if u not in w and v not in w
            ]
            if _is_path_graph(base_edges, base) or _is_cycle_graph(base_edges, base):
                return True
    return False


def oracle_is_thin(g: Graph) -> bool:
    if g.max_degree() > 3:
        return False
    for comp in g.connected_components():
        comp_set = set(comp)
        degs = {v: sum(1 for w in g.neighbors(v) if w in comp_set) for v in comp}
        if sum(1 for d in degs.values() if d == 3) <= 2:
            continue
        if not oracle_augmentation_of_path_or_cycle(g, comp):
            return False
    return True


def oracle_first_layout(g: Graph, comp: list[int]) -> list[int] | None:
    """The first stretch-4 order of comp found by a depth-first search that
    tries the unplaced vertices in increasing order at every slot, takes a
    vertex only if its placed neighbours sit within 4 slots, and gives up on
    a prefix once the vertex 5 slots back still has an unplaced neighbour."""
    comp_sorted = sorted(comp)
    comp_set = set(comp)
    pos: dict[int, int] = {}
    order: list[int] = []

    def rec() -> bool:
        t = len(order)
        if t == len(comp_sorted):
            return True
        if t >= 5 and any(w in comp_set and w not in pos for w in g.neighbors(order[t - 5])):
            return False
        for v in comp_sorted:
            if v in pos or any(w in pos and t - pos[w] > 4 for w in g.neighbors(v)):
                continue
            pos[v] = t
            order.append(v)
            if rec():
                return True
            del pos[v]
            order.pop()
        return False

    return order if rec() else None


def oracle_first_decomposition(
    h: Graph, delta: int, edge_order: list[tuple[int, int]]
) -> dict[tuple[int, int], tuple[int, int]] | None:
    """The first edge -> (part, part) map found by a depth-first search that
    places the edges in edge_order, tries the part pairs in lexicographic
    order and rebuilds both parts to test them with ``oracle_is_thin``."""
    pairs = list(itertools.combinations(range(delta), 2))
    parts: list[set[tuple[int, int]]] = [set() for _ in range(delta)]
    chosen: list[tuple[int, int]] = []

    def rec(k: int) -> bool:
        if k == len(edge_order):
            return True
        e = edge_order[k]
        for i, j in pairs:
            parts[i].add(e)
            parts[j].add(e)
            chosen.append((i, j))
            if (oracle_is_thin(Graph(h.vertex_count, parts[i]))
                    and oracle_is_thin(Graph(h.vertex_count, parts[j])) and rec(k + 1)):
                return True
            parts[i].discard(e)
            parts[j].discard(e)
            chosen.pop()
        return False

    return dict(zip(edge_order, chosen)) if rec(0) else None


# -- families ---------------------------------------------------------------------


def oracle_labeled_family(n: int, delta: int) -> list[Graph]:
    """Powerset enumeration: every subset of vertex pairs, degree-filtered."""
    pairs = list(itertools.combinations(range(n), 2))
    out = []
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if (bits >> i) & 1]
        degs = [0] * n
        for u, v in edges:
            degs[u] += 1
            degs[v] += 1
        if max(degs, default=0) <= delta:
            out.append(Graph(n, edges))
    return out


def oracle_class_count(graphs: list[Graph]) -> int:
    """Isomorphism classes counted with the networkx matcher."""
    reps: list[nx.Graph] = []
    for g in graphs:
        h = to_networkx(g)
        if not any(nx.is_isomorphic(h, r) for r in reps):
            reps.append(h)
    return len(reps)


def atlas_bounded_degree_counts(delta: int) -> dict[int, int]:
    """Isomorphism class counts for 1..7 vertices from the graph atlas."""
    from networkx.generators.atlas import graph_atlas_g

    counts: dict[int, int] = {}
    for g in graph_atlas_g()[1:]:
        n = g.number_of_nodes()
        if max((d for _, d in g.degree()), default=0) <= delta:
            counts[n] = counts.get(n, 0) + 1
    return counts
