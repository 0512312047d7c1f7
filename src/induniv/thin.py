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

from dataclasses import dataclass
from enum import Enum
from itertools import combinations

from .errors import ArgumentError, DecompositionError, LayoutError
from .graphs import Graph


# -- thinness recognition -----------------------------------------------------


@dataclass(frozen=True)
class ThinReport:
    """Recognition result; truthy iff the graph is thin."""

    ok: bool
    failing_component: tuple[int, ...] | None = None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def _component_kind(g, comp: list[int]) -> str:
    """Classify one connected component of a max-degree-3 graph.

    Returns 'path_aug' (augmentation of a path: a caterpillar),
    'cycle_aug' (augmentation of a cycle: cycle plus depth-1 leaves),
    'few_branch' (at most two degree-3 vertices) or 'not_thin'.
    """
    comp_set = set(comp)
    degs = {v: sum(1 for w in g.neighbors(v) if w in comp_set) for v in comp}
    edge_count = sum(degs.values()) // 2
    nv = len(comp)

    if edge_count == nv - 1:  # tree: augmentation of a path == caterpillar
        if nv <= 2:
            return "path_aug"
        core = [v for v in comp if degs[v] >= 2]
        if not core:
            return "path_aug"
        core_set = set(core)
        core_degs = [sum(1 for w in g.neighbors(v) if w in core_set) for v in core]
        if all(d <= 2 for d in core_degs) and sum(1 for d in core_degs if d <= 1) <= 2:
            return "path_aug"
    elif edge_count == nv:  # unicyclic: peel leaves once, a cycle must remain
        rest = {v for v in comp if degs[v] >= 2}
        if rest and all(
            sum(1 for w in g.neighbors(v) if w in rest) == 2 for v in rest
        ):
            return "cycle_aug"

    deg3 = sum(1 for v in comp if degs[v] == 3)
    if deg3 <= 2:
        return "few_branch"
    return "not_thin"


def is_thin(g: Graph) -> ThinReport:
    """Thinness check with a witness naming the first failing component."""
    for v in range(g.vertex_count):
        if g.degree(v) > 3:
            return ThinReport(False, (v,), f"vertex {v} has degree {g.degree(v)} > 3")
    for comp in g.connected_components():
        if _component_kind(g, comp) == "not_thin":
            return ThinReport(
                False,
                tuple(comp),
                "component is neither an augmentation of a path or cycle "
                "nor limited to two degree-3 vertices",
            )
    return ThinReport(True)


# -- decomposition ------------------------------------------------------------


class DecomposeStrategy(Enum):
    AUTO = "auto"
    EVEN_PETERSEN = "even-petersen"
    SEARCH = "search"


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
    two parts its multiplicity names and in no others."""
    out: list[str] = []
    for idx, part in enumerate(dec.parts):
        if part.vertex_count != h.vertex_count:
            out.append(f"part {idx} is not spanning "
                       f"({part.vertex_count} != {h.vertex_count} vertices)")
        rep = is_thin(part)
        if not rep:
            out.append(f"part {idx} is not thin: {rep.reason}")
        for u, v in part.edges():
            if not h.has_edge(u, v):
                out.append(f"part {idx} contains non-edge ({u}, {v})")

    h_edges = set(h.edges())
    if set(dec.multiplicity) != h_edges:
        missing = sorted(h_edges - set(dec.multiplicity))
        extra = sorted(set(dec.multiplicity) - h_edges)
        if missing:
            out.append(f"multiplicity map misses edges {missing[:5]}")
        if extra:
            out.append(f"multiplicity map names non-edges {extra[:5]}")
    for (u, v) in sorted(h_edges):
        members = tuple(i for i, p in enumerate(dec.parts) if p.has_edge(u, v))
        named = dec.multiplicity.get((u, v))
        if len(members) != 2:
            out.append(f"edge ({u}, {v}) lies in {len(members)} parts {members}, want 2")
        elif named is None or tuple(sorted(named)) != members:
            out.append(f"edge ({u}, {v}) multiplicity {named} != actual {members}")
    return DecompositionReport(violations=tuple(out))


def thin_decompose(
    h: Graph,
    delta: int,
    strategy: DecomposeStrategy = DecomposeStrategy.AUTO,
    search_budget: int = 2_000_000,
) -> ThinDecomposition:
    """Split H into delta thin spanning parts covering every edge twice.

    Even delta goes through the two-factor route (pad to a delta-regular
    multigraph by doubling, orient along Euler circuits, peel perfect
    matchings of the in/out bipartite graph) and duplicates each 2-regular
    layer into two identical parts. Odd delta uses validated backtracking
    over per-edge part pairs. The result is always re-validated.
    """
    if delta < 2:
        raise ArgumentError(f"delta must be >= 2, got {delta}")
    if h.max_degree() > delta:
        raise ArgumentError(
            f"max degree {h.max_degree()} exceeds delta {delta}")
    if strategy == DecomposeStrategy.AUTO:
        strategy = (
            DecomposeStrategy.EVEN_PETERSEN if delta % 2 == 0 else DecomposeStrategy.SEARCH
        )
    if strategy == DecomposeStrategy.EVEN_PETERSEN:
        if delta % 2 != 0:
            raise ArgumentError("the two-factor strategy needs even delta")
        dec = _decompose_even(h, delta)
    else:
        dec = _decompose_search(h, delta, search_budget)
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
    k = delta // 2
    layers = _bipartite_matchings(2 * n, oriented, k)

    parts: list[Graph] = []
    multiplicity: dict[tuple[int, int], tuple[int, int]] = {}
    for j, layer in enumerate(layers):
        real = [
            (min(medges[eid][0], medges[eid][1]), max(medges[eid][0], medges[eid][1]))
            for eid in layer
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


def _bipartite_matchings(nv: int, oriented: list[tuple[int, int, int]], k: int) -> list[list[int]]:
    """Peel k perfect matchings off the k-regular out/in bipartite graph."""
    layers: list[list[int]] = []
    remaining = list(oriented)
    for _ in range(k):
        adj: dict[int, list[tuple[int, int]]] = {}
        for eid, u, w in remaining:
            adj.setdefault(u, []).append((eid, w))
        for lst in adj.values():
            lst.sort()
        match_right: dict[int, tuple[int, int]] = {}  # head -> (eid, tail)

        def augment(u: int, seen: set[int]) -> bool:
            for eid, w in adj.get(u, ()):
                if w in seen:
                    continue
                seen.add(w)
                if w not in match_right or augment(match_right[w][1], seen):
                    match_right[w] = (eid, u)
                    return True
            return False

        lefts = sorted(adj)
        for u in lefts:
            if not augment(u, set()):
                raise DecompositionError(
                    f"no perfect matching while peeling layer {len(layers)}")
        layer = sorted(eid for eid, _ in match_right.values())
        layers.append(layer)
        taken = set(layer)
        remaining = [t for t in remaining if t[0] not in taken]
    if remaining:
        raise DecompositionError("two-factor peeling left unassigned edges")
    return layers


class _SearchPart:
    """One part of the decomposition search, which decides whether an edge
    may join it without re-reading the component it lands in.

    By ``_component_kind``, a component of maximum degree 3 is thin when it
    has at most two branch vertices (degree 3), or is a tree in which no
    vertex has more than two non-leaf neighbours (a caterpillar), or is
    unicyclic and every non-leaf vertex has exactly two non-leaf neighbours
    (a cycle with leaves). So each vertex keeps its count of non-leaf
    neighbours, and each component root its edge count and how many of its
    vertices break each rule, in a union-find forest with no path
    compression. An insertion changes only its two ends and, when an end
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
        size = self.size[r]
        return (branch <= 2 or (edges == size - 1 and tree == 0)
                or (edges == size and cycle == 0))

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


def _bfs_edge_order(h: Graph) -> list[tuple[int, int]]:
    """Edges in breadth-first discovery order, roots by descending degree."""
    from collections import deque

    seen_v: set[int] = set()
    seen_e: set[tuple[int, int]] = set()
    order: list[tuple[int, int]] = []
    for s in sorted(range(h.vertex_count), key=lambda v: (-h.degree(v), v)):
        if s in seen_v:
            continue
        seen_v.add(s)
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in h.neighbors(u):
                e = (u, w) if u < w else (w, u)
                if e not in seen_e:
                    seen_e.add(e)
                    order.append(e)
                if w not in seen_v:
                    seen_v.add(w)
                    queue.append(w)
    return order


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
    """
    edges = _bfs_edge_order(h)
    pairs = list(combinations(range(delta), 2))
    n = h.vertex_count
    parts = [_SearchPart(n) for _ in range(delta)]
    assignment: list[tuple[int, int]] = []
    spent = 0

    def rec(pos: int) -> bool:
        nonlocal spent
        if pos == len(edges):
            return True
        u, v = edges[pos]
        refused: set[int] = set()  # parts that cannot take uv at this node
        for i, j in pairs:
            spent += 1
            if spent > budget:
                raise DecompositionError(
                    "search budget exhausted",
                    assigned=[[*edge, *pq] for edge, pq in zip(edges, assignment)],
                    budget=budget,
                )
            if i in refused or j in refused:
                continue
            if not parts[i].add(u, v):
                parts[i].pop()
                refused.add(i)
                continue
            if not parts[j].add(u, v):
                parts[j].pop()
                parts[i].pop()
                refused.add(j)
                continue
            assignment.append((i, j))
            if rec(pos + 1):
                return True
            parts[i].pop()
            parts[j].pop()
            assignment.pop()
        return False

    if not rec(0):
        raise DecompositionError(
            "no thin decomposition found by exhaustive search",
            assigned=[], budget=budget)
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


def layout_thin(g: Graph, n: int, fallback_budget: int = 500_000) -> PathPowerLayout:
    """Constructive layout of a thin graph, validated before return.

    Caterpillar components put legs right after their spine partner; cycle
    augmentations zigzag the cycle from both ends so cycle edges stretch at
    most 2 and leaf insertion raises that to at most 4. Components with at
    most two branch vertices fall back to an exhaustive position search.
    """
    rep = is_thin(g)
    if not rep:
        raise ArgumentError(f"layout requires a thin graph: {rep.reason}")
    if g.vertex_count > n:
        raise ArgumentError(f"{g.vertex_count} vertices do not fit into {n} slots")

    order: list[int] = []
    for comp in g.connected_components():
        kind = _component_kind(g, comp)
        if kind == "path_aug":
            order.extend(_order_caterpillar(g, comp))
        elif kind == "cycle_aug":
            order.extend(_order_cycle_aug(g, comp))
        else:
            order.extend(_order_search(g, comp, fallback_budget))

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


def _leaves_by_partner(g: Graph, comp_set: set[int], base: set[int]) -> dict[int, list[int]]:
    out: dict[int, list[int]] = {}
    for v in sorted(comp_set - base):
        partner = next(w for w in g.neighbors(v) if w in comp_set)
        out.setdefault(partner, []).append(v)
    return out


def _order_caterpillar(g: Graph, comp: list[int]) -> list[int]:
    comp_set = set(comp)
    if len(comp) == 1:
        return list(comp)
    degs = {v: sum(1 for w in g.neighbors(v) if w in comp_set) for v in comp}
    if max(degs.values()) <= 2:  # bare path: walk it, stretch 1
        start = min(v for v in comp if degs[v] == 1)
        path = [start]
        prev = None
        while True:
            nxt = [w for w in g.neighbors(path[-1]) if w in comp_set and w != prev]
            if not nxt:
                return path
            prev = path[-1]
            path.append(min(nxt))
    spine = [v for v in comp if degs[v] >= 2]
    if not spine:  # single edge
        return sorted(comp)
    spine_set = set(spine)
    # walk the spine path from its smaller endpoint
    spine_deg = {v: sum(1 for w in g.neighbors(v) if w in spine_set) for v in spine}
    ends = sorted(v for v in spine if spine_deg[v] <= 1)
    start = ends[0] if ends else min(spine)
    path = [start]
    prev = None
    while True:
        nxt = [w for w in g.neighbors(path[-1]) if w in spine_set and w != prev]
        if not nxt:
            break
        prev = path[-1]
        path.append(min(nxt))
    legs = _leaves_by_partner(g, comp_set, spine_set)
    order: list[int] = []
    for s in path:
        order.append(s)
        order.extend(legs.get(s, ()))
    return order


def _order_cycle_aug(g: Graph, comp: list[int]) -> list[int]:
    comp_set = set(comp)
    degs = {v: sum(1 for w in g.neighbors(v) if w in comp_set) for v in comp}
    cyc_set = {v for v in comp if degs[v] >= 2}
    start = min(cyc_set)
    nbrs = sorted(w for w in g.neighbors(start) if w in cyc_set)
    cycle = [start, nbrs[0]]
    while True:
        nxt = next(
            w for w in g.neighbors(cycle[-1]) if w in cyc_set and w != cycle[-2])
        if nxt == start:
            break
        cycle.append(nxt)
    # two-ended zigzag: v1, vk, v2, v(k-1), ... keeps cycle edges within 2
    zig: list[int] = []
    lo, hi = 0, len(cycle) - 1
    while lo <= hi:
        zig.append(cycle[lo])
        if lo != hi:
            zig.append(cycle[hi])
        lo += 1
        hi -= 1
    legs = _leaves_by_partner(g, comp_set, cyc_set)
    order: list[int] = []
    for c in zig:
        order.append(c)
        order.extend(legs.get(c, ()))
    return order


def _order_search(g: Graph, comp: list[int], budget: int) -> list[int]:
    """Exhaustive left-to-right placement with stretch-4 pruning.

    Every unplaced neighbor of the vertex in slot j is due by slot j + 4. A
    partial order is cut as soon as k of its unplaced vertices are due within
    fewer than k free slots, and when the due vertices fill the next slots
    exactly, only one of them may take the next slot. Both cuts drop only
    branches that hold no layout, so the search returns the order a plain
    depth-first search in vertex order would, without walking its dead ends.
    """
    comp_sorted = sorted(comp)
    comp_set = set(comp_sorted)
    nbrs = {v: [w for w in g.neighbors(v) if w in comp_set] for v in comp_sorted}
    nv = len(comp_sorted)
    placed: set[int] = set()
    order: list[int] = []
    spent = 0

    def rec() -> bool:
        nonlocal spent
        t = len(order)
        if t == nv:
            return True
        # earlier slots have no unplaced neighbor left, or an ancestor was cut
        due: dict[int, int] = {}
        for j in range(max(0, t - 5), t):
            for w in nbrs[order[j]]:
                if w not in placed and w not in due:
                    due[w] = j + 4
        limit = None  # the last slot of the first full run of due slots
        for k, d in enumerate(sorted(due.values())):
            if d < t + k:
                return False
            if d == t + k and limit is None:
                limit = d
        for v in comp_sorted:
            if v in placed or (limit is not None and due.get(v, limit + 1) > limit):
                continue
            spent += 1
            if spent > budget:
                raise LayoutError(
                    "layout search budget exhausted",
                    component=comp_sorted, budget=budget)
            placed.add(v)
            order.append(v)
            if rec():
                return True
            placed.discard(v)
            order.pop()
        return False

    if not rec():
        raise LayoutError(
            "no stretch-4 layout found for component", component=comp_sorted)
    return order
