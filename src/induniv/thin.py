"""Thin graphs: recognition, decomposition into thin spanning parts, and
low-stretch layouts along a path.

A graph is *thin* when its maximum degree is at most 3 and every connected
component is either an augmentation of a cycle or a path (the base plus a
matching to fresh degree-1 vertices) or has at most two vertices of degree 3.

The decomposition contract: given H with max degree at most Delta, produce
Delta thin spanning subgraphs such that every edge of H lies in exactly two
of them. Thin graphs additionally embed into the 4-th power of a path, i.e.
admit an injective placement on 0..n-1 with every edge stretched at most 4.
Both facts are re-validated on every output, never assumed.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from itertools import combinations, product

from .errors import ArgumentError, DecompositionError, IntegrityError, LayoutError
from .graphs import Graph

_SEARCH_BUDGET = 2_000_000  # part pairs _decompose_search may try for one graph


# -- thinness recognition -----------------------------------------------------


@dataclass(frozen=True)
class ThinReport:
    """Recognition result; truthy iff the graph is thin."""

    ok: bool
    failing_component: tuple[int, ...] | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _thin_rule(size: int, edges: int, branch: int, tree: int, cycle: int) -> bool:
    """Whether a connected component of maximum degree 3 with ``size``
    vertices and ``edges`` edges is thin, given how many of its vertices have
    degree 3 (``branch``), more than two non-leaf neighbours (``tree``), and
    degree 2 or more but not exactly two non-leaf neighbours (``cycle``).

    It is thin when it has at most two branch vertices; or is a tree whose
    non-leaf vertices form a path (a caterpillar, the augmentation of a
    path), which holds iff no vertex has more than two non-leaf neighbours;
    or is unicyclic and peeling its leaves once leaves a cycle (the
    augmentation of a cycle), which holds iff every non-leaf vertex has
    exactly two non-leaf neighbours.
    """
    return (branch <= 2 or (edges == size - 1 and tree == 0)
            or (edges == size and cycle == 0))


def is_thin(g: Graph) -> ThinReport:
    """Thinness check with a witness naming the first failing component."""
    return _classify(g)[0]


def _classify(g: Graph) -> tuple[ThinReport, list[list[int]]]:
    """The thinness report, and for a thin graph its components, each
    judged once by ``_thin_rule``."""
    degs = g.degrees()
    for v, d in enumerate(degs):
        if d > 3:
            return ThinReport(False, (v,), f"vertex {v} has degree {d} > 3"), []
    comps = g.connected_components()
    for comp in comps:
        edges = branch = tree = cycle = 0
        for v in comp:
            d = degs[v]
            inner = sum(degs[w] >= 2 for w in g.neighbors(v))
            edges += d
            branch += d == 3
            tree += inner > 2
            cycle += d >= 2 and inner != 2
        if not _thin_rule(len(comp), edges // 2, branch, tree, cycle):
            return ThinReport(
                False,
                tuple(comp),
                "component is neither an augmentation of a path or cycle "
                "nor limited to two degree-3 vertices",
            ), []
    return ThinReport(True), comps


# -- decomposition ------------------------------------------------------------


@dataclass(frozen=True)
class ThinDecomposition:
    """Delta thin spanning parts with an edge -> (part, part) certificate."""

    parts: tuple[Graph, ...]
    multiplicity: dict[tuple[int, int], tuple[int, int]]

    @property
    def delta(self) -> int:
        return len(self.parts)

    def to_json(self) -> dict:
        return {
            "parts": [sorted(p.edges()) for p in self.parts],
            "multiplicity": [
                [u, v, i, j] for (u, v), (i, j) in sorted(self.multiplicity.items())
            ],
        }


@dataclass(frozen=True)
class DecompositionReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_decomposition(h: Graph, dec: ThinDecomposition) -> DecompositionReport:
    """Independent recheck: thin parts, spanning, every edge in exactly the
    two parts its multiplicity names and in no others. A part that occurs
    twice (the even route's twin parts) is read and thin-checked once, and
    membership is read from each part's edge set."""
    out: list[str] = []
    h_edges = set(h.edges())
    seen: dict[Graph, tuple[ThinReport, set[tuple[int, int]]]] = {}
    part_edges = []
    for idx, part in enumerate(dec.parts):
        if part.vertex_count != h.vertex_count:
            out.append(f"part {idx} is not spanning "
                       f"({part.vertex_count} != {h.vertex_count} vertices)")
        if part not in seen:
            seen[part] = (is_thin(part), set(part.edges()))
        rep, edges = seen[part]
        part_edges.append(edges)
        if not rep:
            out.append(f"part {idx} is not thin: {rep.reason}")
        out.extend(f"part {idx} contains non-edge ({u}, {v})"
                   for u, v in sorted(edges - h_edges))

    if set(dec.multiplicity) != h_edges:
        missing = sorted(h_edges - set(dec.multiplicity))
        extra = sorted(set(dec.multiplicity) - h_edges)
        if missing:
            out.append(f"multiplicity map misses edges {missing[:5]}")
        if extra:
            out.append(f"multiplicity map names non-edges {extra[:5]}")
    for (u, v) in sorted(h_edges):
        members = tuple(i for i, edges in enumerate(part_edges) if (u, v) in edges)
        named = dec.multiplicity.get((u, v))
        if len(members) != 2:
            out.append(f"edge ({u}, {v}) lies in {len(members)} parts {members}, want 2")
        elif named is None or tuple(sorted(named)) != members:
            out.append(f"edge ({u}, {v}) multiplicity {named} != actual {members}")
    return DecompositionReport(violations=tuple(out))


def thin_decompose(h: Graph, delta: int) -> ThinDecomposition:
    """Split H into delta thin spanning parts covering every edge twice.

    Both routes rest on one greedy edge colouring with Kempe-chain swaps
    (``_kempe_colouring``). Even delta goes through the two-factor route:
    pad to a delta-regular multigraph by doubling, orient along Euler
    circuits, colour the k-regular out/in bipartite multigraph with
    k = delta / 2 colours, and duplicate each colour class, a 2-factor, into
    two identical parts. Odd delta delta-colours H and runs a backtracking
    search over per-edge part pairs, bounded by ``_SEARCH_BUDGET`` tries, in
    which part p takes the edges of colours p - 1 and p - 2 first: a
    properly coloured graph decomposes without backtracking, and only the
    edges the colouring leaves out (class-2 pieces such as the Petersen
    graph) are searched. The result is always re-validated.
    """
    if delta < 2:
        raise ArgumentError(f"delta must be >= 2, got {delta}")
    if h.max_degree() > delta:
        raise ArgumentError(
            f"max degree {h.max_degree()} exceeds delta {delta}")
    if delta % 2 == 0:
        dec = _decompose_even(h, delta)
    else:
        dec = _decompose_search(h, delta, _SEARCH_BUDGET)
    report = validate_decomposition(h, dec)
    if not report.ok:
        raise DecompositionError(
            "decomposition failed validation", violations=list(report.violations))
    return dec


def _decompose_even(h: Graph, delta: int) -> ThinDecomposition:
    n = h.vertex_count
    # Multigraph on originals plus clones: every vertex reaches degree delta,
    # so each component is Eulerian. Edges carry (u, v, real) tags.
    medges: list[tuple[int, int, bool]] = []
    for u, v in h.edges():
        medges.append((u, v, True))
        medges.append((u + n, v + n, False))
    for v in range(n):
        medges.extend((v, v + n, False) for _ in range(delta - h.degree(v)))

    oriented = _euler_orientation(2 * n, medges)
    # Every vertex has k out- and k in-edges, so the out/in bipartite
    # multigraph (tail t on the left, head w as 2n + w on the right) is
    # k-regular. Its k colour classes are perfect matchings: one out- and one
    # in-edge at every vertex, a 2-factor.
    k = delta // 2
    out_in = [(t, 2 * n + w) for _, t, w in oriented]
    order = _bfs_edge_order(4 * n, out_in)
    colours = _kempe_colouring(4 * n, [out_in[i] for i in order], k)
    if None in colours:
        raise IntegrityError("the out/in multigraph was left partly uncoloured")
    layers: list[list[int]] = [[] for _ in range(k)]
    for i, c in zip(order, colours):
        layers[c].append(oriented[i][0])

    parts: list[Graph] = []
    multiplicity: dict[tuple[int, int], tuple[int, int]] = {}
    for j, layer in enumerate(layers):
        real = [
            (min(medges[eid][0], medges[eid][1]), max(medges[eid][0], medges[eid][1]))
            for eid in sorted(layer)
            if medges[eid][2]
        ]
        part = Graph(n, real)
        parts.extend([part, part])
        for e in real:
            multiplicity[e] = (2 * j, 2 * j + 1)
    return ThinDecomposition(parts=tuple(parts), multiplicity=multiplicity)


def _euler_orientation(nv: int, medges: list[tuple[int, int, bool]]) -> list[tuple[int, int, int]]:
    """Orient a multigraph with all-even degrees along Euler circuits.

    Returns (edge_id, tail, head) triples. Deterministic: circuits start at
    the smallest vertex with unused edges and take the smallest edge id.
    """
    incidence: list[list[tuple[int, int]]] = [[] for _ in range(nv)]
    for eid, (u, v, _) in enumerate(medges):
        incidence[u].append((eid, v))
        incidence[v].append((eid, u))
    for inc in incidence:
        inc.sort(reverse=True)  # stacks pop the smallest edge id first
    used = [False] * len(medges)
    oriented: list[tuple[int, int, int]] = []
    for start in range(nv):
        if not incidence[start]:
            continue
        stack = [start]
        trail: list[tuple[int, int, int]] = []
        while stack:
            u = stack[-1]
            inc = incidence[u]
            while inc and used[inc[-1][0]]:
                inc.pop()
            if not inc:
                stack.pop()
                continue
            eid, w = inc.pop()
            used[eid] = True
            trail.append((eid, u, w))
            stack.append(w)
        oriented.extend(trail)
    return oriented


class _SearchPart:
    """One part of the decomposition search, which decides whether an edge
    may join it without re-reading the component it lands in.

    ``_thin_rule`` judges a component of maximum degree 3 from its size,
    its edge count and how many of its vertices break each of its three
    rules, and ``is_thin`` judges every component with it too. So each
    vertex keeps its count of non-leaf neighbours, and each component root
    its edge count and those three counts, in a union-find forest with no
    path compression. An insertion changes only its two ends and, when an end
    stops being a leaf, that end's neighbours. Insertions are undone in
    reverse order.
    """

    __slots__ = ("adj", "inner", "parent", "size", "counts", "undo")

    def __init__(self, n: int):
        self.adj: list[set[int]] = [set() for _ in range(n)]
        self.inner = [0] * n  # neighbours of degree 2 or more
        self.parent = list(range(n))
        self.size = [1] * n
        # per root: edges, branch vertices, caterpillar faults, cycle faults
        self.counts = [(0, 0, 0, 0)] * n
        self.undo: list[tuple[int, int, int, tuple[int, int, int, int]]] = []

    def _root(self, x: int) -> int:
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def _faults(self, touched) -> tuple[int, int, int]:
        """Branch vertices, caterpillar faults and cycle faults among touched."""
        adj, inner = self.adj, self.inner
        branch = tree = cycle = 0
        for x in touched:
            deg, k = len(adj[x]), inner[x]
            branch += deg >= 3
            tree += k > 2
            cycle += deg >= 2 and k != 2
        return branch, tree, cycle

    def _link(self, u: int, v: int, step: int) -> None:
        """Count edge uv in the non-leaf tallies, given the degrees without
        it; step 1 when it is inserted, -1 when it is removed."""
        adj, inner = self.adj, self.inner
        du, dv = len(adj[u]), len(adj[v])
        inner[u] += step * (dv >= 1)
        inner[v] += step * (du >= 1)
        for x, d in ((u, du), (v, dv)):
            if d == 1:  # x is a leaf without uv and not with it
                for w in adj[x] - {u, v}:
                    inner[w] += step

    def add(self, u: int, v: int) -> bool:
        """Insert edge uv; True when its component is still thin."""
        adj = self.adj
        r, other = self._root(u), self._root(v)
        if r != other and self.size[r] < self.size[other]:
            r, other = other, r
        old = self.counts[r]
        self.undo.append((u, v, other, old))
        edges, branch, tree, cycle = old
        edges += 1
        if other != r:
            self.parent[other] = r
            self.size[r] += self.size[other]
            e2, b2, t2, c2 = self.counts[other]
            edges, branch, tree, cycle = edges + e2, branch + b2, tree + t2, cycle + c2
        touched = {u, v}
        for x in (u, v):
            if len(adj[x]) == 1:  # x stops being a leaf
                touched |= adj[x]
        b, t, c = self._faults(touched)
        self._link(u, v, 1)
        adj[u].add(v)
        adj[v].add(u)
        b2, t2, c2 = self._faults(touched)
        branch, tree, cycle = branch + b2 - b, tree + t2 - t, cycle + c2 - c
        self.counts[r] = (edges, branch, tree, cycle)
        if len(adj[u]) > 3 or len(adj[v]) > 3:
            return False
        return _thin_rule(self.size[r], edges, branch, tree, cycle)

    def pop(self) -> None:
        """Undo the last insertion."""
        u, v, other, old = self.undo.pop()
        self.adj[u].discard(v)
        self.adj[v].discard(u)
        self._link(u, v, -1)
        r = self._root(u)
        if other != r:
            self.parent[other] = other
            self.size[r] -= self.size[other]
        self.counts[r] = old


def _bfs_edge_order(n: int, edges: list[tuple[int, int]]) -> list[int]:
    """The indices of the edges of a multigraph in breadth-first discovery
    order: roots by descending degree, each vertex's edges by their other
    end, parallel edges by index."""
    incidence: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edges):
        incidence[u].append((v, i))
        incidence[v].append((u, i))
    for inc in incidence:
        inc.sort()
    seen_v = [False] * n
    seen_e = [False] * len(edges)
    order: list[int] = []
    for s in sorted(range(n), key=lambda v: (-len(incidence[v]), v)):
        if seen_v[s]:
            continue
        seen_v[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w, i in incidence[u]:
                if not seen_e[i]:
                    seen_e[i] = True
                    order.append(i)
                if not seen_v[w]:
                    seen_v[w] = True
                    queue.append(w)
    return order


def _kempe_colouring(n: int, edges: list[tuple[int, int]], colours: int) -> list[int | None]:
    """Colours 0..colours-1 for the edges of a multigraph of maximum degree
    at most ``colours``, None where none fits.

    Edges are coloured greedily in the given order. When the two ends of uv
    share no free colour, take a colour a free at u and b free at v and swap
    a and b along the a/b chain that starts at v: the chain is a path, so the
    swap keeps the colouring proper and frees a at v, and a stays free at u
    unless the chain ends at u. A chain from u that swaps b and a is then the
    same path, so uv stays uncoloured only when every such chain from v ends
    at u. In a bipartite multigraph no chain does (König): it enters u's
    side only along a-edges, and a is free at u, so every edge gets a
    colour. Any two coloured edges that share a vertex differ in colour.
    """
    colour: list[int | None] = [None] * len(edges)
    at: list[dict[int, int]] = [{} for _ in range(n)]  # vertex -> colour -> edge index
    for k, (u, v) in enumerate(edges):
        free_u = [c for c in range(colours) if c not in at[u]]
        free_v = [c for c in range(colours) if c not in at[v]]
        common = [c for c in free_u if c in free_v]
        if not common:
            for a, b in product(free_u, free_v):
                chain, x, c = [], v, a
                while c in at[x]:  # walk the a/b path from v
                    e = at[x][c]
                    chain.append(e)
                    x = edges[e][0] if edges[e][1] == x else edges[e][1]
                    c = b if c == a else a
                if x == u:
                    continue
                for e in chain:
                    for y in edges[e]:
                        del at[y][colour[e]]
                for e in chain:
                    colour[e] = b if colour[e] == a else a
                    for y in edges[e]:
                        at[y][colour[e]] = e
                common = [a]
                break
            else:
                continue
        colour[k] = common[0]
        at[u][common[0]] = at[v][common[0]] = k
    return colour


def _decompose_search(h: Graph, delta: int, budget: int) -> ThinDecomposition:
    """Backtracking over per-edge part pairs with incremental thinness pruning.

    Thinness is hereditary under edge deletion, so a partial part that is
    already non-thin can never become thin again; pruning on it is exact.
    Adding an edge only touches the component it lands in, so only that
    component is re-classified, from counts kept per component
    (``_SearchPart``). Edges are assigned in breadth-first traversal order
    (roots by descending degree): consecutive decisions share vertices, so a
    doomed branch is contradicted within a few levels instead of deep in the
    tree.

    The edges are first delta-edge-coloured (``_kempe_colouring``), and an
    edge of colour c tries parts c + 1 and c + 2 (mod delta) first, then the
    other pairs in lexicographic order; an uncoloured edge tries them all in
    lexicographic order. Under a proper colouring part p is then a union of
    the matchings of colours p - 1 and p - 2, so every prefix of every part
    has maximum degree 2 and is thin, and the first descent never
    backtracks. Only the edges left uncoloured (class-2 pieces such as the
    Petersen graph) can make it search, and it gives up after ``budget``
    tries. The search runs on an explicit stack: ``tries[pos]`` counts the
    pairs the edge at depth pos has tried and ``refused[pos]`` holds the
    parts that cannot take it at that node.
    """
    n = h.vertex_count
    h_edges = list(h.edges())
    edges = [h_edges[i] for i in _bfs_edge_order(n, h_edges)]
    colours = _kempe_colouring(n, edges, delta)
    pairs = list(combinations(range(delta), 2))
    orders = {c: sorted(pairs, key=lambda pq: {(c + 1) % delta, (c + 2) % delta} != set(pq))
              for c in range(delta)}
    orders[None] = pairs
    parts = [_SearchPart(n) for _ in range(delta)]
    assignment: list[tuple[int, int]] = []
    tries = [0] * len(edges)
    refused: list[set[int]] = [set() for _ in edges]
    spent = 0
    pos = 0
    while pos < len(edges):
        if tries[pos] == len(pairs):  # every pair failed here: back up
            if pos == 0:
                raise DecompositionError(
                    "no thin decomposition found by exhaustive search",
                    assigned=[], budget=budget)
            pos -= 1
            i, j = assignment.pop()
            parts[i].pop()
            parts[j].pop()
            continue
        u, v = edges[pos]
        i, j = orders[colours[pos]][tries[pos]]
        tries[pos] += 1
        spent += 1
        if spent > budget:
            raise DecompositionError(
                "search budget exhausted",
                assigned=[[*edge, *pq] for edge, pq in zip(edges, assignment)],
                budget=budget,
            )
        if i in refused[pos] or j in refused[pos]:
            continue
        if not parts[i].add(u, v):
            parts[i].pop()
            refused[pos].add(i)
            continue
        if not parts[j].add(u, v):
            parts[j].pop()
            parts[i].pop()
            refused[pos].add(j)
            continue
        assignment.append((i, j))
        pos += 1
        if pos < len(edges):
            tries[pos] = 0
            refused[pos].clear()
    multiplicity = {e: pq for e, pq in zip(edges, assignment)}
    return ThinDecomposition(
        parts=tuple(Graph(n, ((u, v) for u in range(n) for v in part.adj[u] if u < v))
                    for part in parts),
        multiplicity=multiplicity)


# -- layouts into the 4-th power of a path ------------------------------------


@dataclass(frozen=True)
class PathPowerLayout:
    """Injective placement of the vertices on 0..n-1 with edge stretch <= 4.

    Positions form an initial segment: vertex v sits at ``phi[v]`` and the
    inverse ordering lists the vertex at each slot.
    """

    phi: tuple[int, ...]
    n: int

    def position(self, v: int) -> int:
        return self.phi[v]

    def order(self) -> list[int]:
        inv = [-1] * len(self.phi)
        for v, t in enumerate(self.phi):
            inv[t] = v
        return inv

    def to_json(self) -> dict:
        return {"phi": list(self.phi), "n": self.n}


def layout_thin(g: Graph, n: int) -> PathPowerLayout:
    """Layout of a thin graph into the 4-th power of a path, validated
    before return.

    Every component, whatever its shape, is ordered by ``_deadline_order``
    and the components take consecutive runs of slots. Alon and Capalbo show
    that every thin graph embeds in the 4-th power of a path; that this
    greedy order finds such an embedding is not proved, so an order that
    ``validate_layout`` rejects raises LayoutError and is never returned.
    """
    rep, comps = _classify(g)
    if not rep:
        raise ArgumentError(f"layout requires a thin graph: {rep.reason}")
    if g.vertex_count > n:
        raise ArgumentError(f"{g.vertex_count} vertices do not fit into {n} slots")

    order = [v for comp in comps for v in _deadline_order(g, comp)]
    phi = [-1] * g.vertex_count
    for t, v in enumerate(order):
        phi[v] = t
    layout = PathPowerLayout(phi=tuple(phi), n=n)
    problems = validate_layout(g, layout)
    if problems:
        raise LayoutError("layout failed validation", violations=problems)
    return layout


def validate_layout(g: Graph, layout: PathPowerLayout) -> list[str]:
    out = []
    if len(layout.phi) != g.vertex_count:
        out.append("phi length does not match the vertex count")
        return out
    if sorted(layout.phi) != list(range(g.vertex_count)):
        out.append("phi is not a bijection onto an initial segment")
    for u, v in g.edges():
        stretch = abs(layout.phi[u] - layout.phi[v])
        if stretch > 4:
            out.append(f"edge ({u}, {v}) stretched to {stretch} > 4")
    return out


def _deadline_order(g: Graph, comp: list[int]) -> list[int]:
    """An order of one connected component that fills its slots by deadline.

    It starts at the lowest-id vertex of least degree. A vertex falls due 4
    slots after its first placed neighbour, and each slot goes to the vertex
    due first. Ties go to the vertex with fewer unplaced neighbours when it
    fell due, then to the one that fell due last, with neighbours falling
    due in increasing id. A path is walked from its lowest-id end, and a
    cycle zigzags from its lowest id, larger neighbour second, so cycle
    edges stretch at most 2. Each vertex enters and leaves one heap once.
    """
    start = min(comp, key=lambda v: (g.degree(v), v))
    placed: set[int] = set()
    due = {start}
    heap = [(0, 0, 0, start)]
    order: list[int] = []
    while heap:
        v = heapq.heappop(heap)[3]
        placed.add(v)
        order.append(v)
        for w in g.neighbors(v):
            if w not in due:
                due.add(w)
                unplaced = sum(x not in placed for x in g.neighbors(w))
                heapq.heappush(heap, (len(order) + 3, unplaced, -len(due), w))
    return order
