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
import scipy.sparse as sp

from induniv.embedder import LOCAL_WINDOW, EmbeddingResult, InducedReport
from induniv.errors import (
    ArgumentError,
    BudgetError,
    ConstructionIntegrityError,
    ScheduleOverflowError,
)
from induniv.gamma import GammaParams, GammaVertex, gamma_adjacent_witness
from induniv.graphs import Graph
from induniv.lps import (
    LpsParams,
    _canonical,
    quaternion_norm_solutions,
    sqrt_minus_one,
)


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


def oracle_ball_rows(g: Graph, k: int, block: int = 1024):
    """Yield (v, sorted array of the w with 0 < dist(v, w) <= k) for every
    vertex v, from the k-th power of A + I with scipy.sparse: the rows of a
    block of sources are multiplied out together, so no n x n matrix is
    ever built."""
    n = g.vertex_count
    u, w = np.array(list(g.edges()), dtype=np.int64).reshape(-1, 2).T
    step = sp.csr_matrix((np.ones(2 * len(u), dtype=bool),  # boolean: sums are ORs
                          (np.concatenate([u, w]), np.concatenate([w, u]))), shape=(n, n))
    step = step + sp.identity(n, dtype=bool, format="csr")
    for lo in range(0, n, block):
        reach = sp.identity(n, dtype=bool, format="csr")[lo:lo + block]
        for _ in range(k):
            reach = reach @ step
        reach.sort_indices()
        for i in range(reach.shape[0]):
            row = reach.indices[reach.indptr[i]:reach.indptr[i + 1]]
            yield lo + i, row[row != lo + i]


def oracle_close_pairs(pw, xs) -> list[tuple[int, int]]:
    """What ``PowerNeighborhoods.close_pairs`` lists, from scalar queries:
    every (a * len(xs) + b, rank of xs[b] seen from xs[a]) with a < b and
    xs[a], xs[b] close, in (a, b) order."""
    n = len(xs)
    return [(a * n + b, pw.rank(xs[a], xs[b])) for a in range(n) for b in range(a + 1, n)
            if pw.contains(xs[a], xs[b])]


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


def is_q_expanding(f_graph: Graph, v: int, sets, q: int, path_budget: int = 2_000_000) -> bool:
    """Exact universal check of the expanding-vertex property, the fast
    counterpart that criterion 2 holds to ``oracle_q_expanding``. No
    pipeline stage runs it: on a desk host the property cannot hold at
    small q, and at larger q the path enumeration is out of reach.

    v is q-expanding with respect to S_0..S_{q-1} iff for EVERY path P in the
    host with at most q vertices, at least half of all vertices w admit a
    path (v, w_0, ..., w_{q-1} = w) with w_i avoiding S_i and P throughout.
    Enumerates path vertex sets (a path and its reverse constrain
    identically) and counts feasible endpoints per set, with early exit both
    on reaching the half threshold and on the first failing P.
    """
    if q < 1:
        raise ArgumentError("q must be >= 1")
    if len(sets) != q:
        raise ArgumentError(f"expected {q} avoidance sets, got {len(sets)}")
    f_graph._check_vertex(v)
    ell = f_graph.vertex_count
    avoid = [frozenset(s) for s in sets]
    if any(len(a) >= ell for a in avoid):
        return False

    for p_set in _path_vertex_sets(f_graph, q, path_budget):
        reached: set[int] = set()
        layers = [avoid[i] | p_set for i in range(q)]
        stack = [(v, 0, (v,))]
        while stack and 2 * len(reached) < ell:
            u, depth, used = stack.pop()
            for w in reversed(f_graph.neighbors(u)):
                if w in layers[depth] or w in used:
                    continue
                if depth == q - 1:
                    reached.add(w)
                    if 2 * len(reached) >= ell:
                        break
                else:
                    stack.append((w, depth + 1, used + (w,)))
        if 2 * len(reached) < ell:
            return False
    return True


def _path_vertex_sets(g: Graph, max_size: int, budget: int):
    """Vertex sets of all paths in g with 1..max_size vertices, each once."""
    seen: set[frozenset[int]] = set()
    count = 0
    for start in range(g.vertex_count):
        stack = [(start, (start,))]
        while stack:
            u, path = stack.pop()
            fs = frozenset(path)
            if fs not in seen:
                seen.add(fs)
                count += 1
                if count > budget:
                    raise BudgetError(
                        f"path enumeration exceeded budget {budget}",
                        budget=budget)
                yield fs
            if len(path) < max_size:
                for w in g.neighbors(u):
                    if w not in path:
                        stack.append((w, path + (w,)))


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


def layout_order(phi: tuple[int, ...]) -> list[int]:
    """The vertex at each slot of a layout phi: the inverse of phi."""
    order = [-1] * len(phi)
    for v, t in enumerate(phi):
        order[t] = v
    return order


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
    h: Graph, delta: int, edge_order: list[tuple[int, int]],
    colours: list[int | None] | None = None,
) -> dict[tuple[int, int], tuple[int, int]] | None:
    """The first edge -> (part, part) map found by a depth-first search that
    places the edges in edge_order and rebuilds both parts to test them with
    ``oracle_is_thin``. An edge of colour c tries first parts c + 1 and
    c + 2 (mod delta), then the other pairs in lexicographic order; an edge
    with no colour (or no colours given) tries them all in lexicographic
    order."""
    pairs = list(itertools.combinations(range(delta), 2))
    if colours is None:
        colours = [None] * len(edge_order)
    tried = [sorted(pairs, key=lambda pq: c is not None
                    and set(pq) != {(c + 1) % delta, (c + 2) % delta})
             for c in colours]
    parts: list[set[tuple[int, int]]] = [set() for _ in range(delta)]
    chosen: list[tuple[int, int]] = []

    def rec(k: int) -> bool:
        if k == len(edge_order):
            return True
        e = edge_order[k]
        for i, j in tried[k]:
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



# -- quadratic pair checks ---------------------------------------------------------
#
# The embedder's pair checks as they were before they read closeness from
# ``PowerNeighborhoods.close_pairs``: every pair visited, closeness asked one
# scalar query at a time, and schedules and conflict sets kept as Python sets
# filled one pair at a time. Kept as the references the batched checks must
# reproduce exactly (reports with witnesses and order, conflict sets,
# schedules row for row, error payloads).

def oracle_sigma_i(
    i: int,
    h: Graph,
    coord_maps: list[tuple[int, ...]],
    layout: tuple[int, ...],
    params: GammaParams,
) -> dict[int, set[int]]:
    """Constraint schedule for coordinate map i from the earlier maps, as
    the set of each position that has entries.

    For each position t (with t0 one full block before t's block): earlier
    positions whose anchor image coincides with t's, plus earlier non-
    neighbors whose image in some previous coordinate map is within distance
    4 of t's. Keeping the new image away from both maintains the anchor-
    distinctness and conflict-set properties. The first position, in layout
    order, with more entries than the cap raises the overflow.
    """
    if i < 2:
        raise ArgumentError("constraint schedules start at the second coordinate")
    n = h.vertex_count
    order = layout_order(layout)
    q = params.q_m
    rm_pow = params.rm_pow
    anchor = coord_maps[0]
    cap = params.sigma_cap_for(n)
    sets: dict[int, set[int]] = {}
    for t in range(n):
        t0 = (t // q - 1) * q - 1
        if t0 < 0:
            continue
        ht = order[t]
        entries: set[int] = set()
        for t2 in range(0, t0 + 1):
            h2 = order[t2]
            if anchor[ht] == anchor[h2]:
                entries.add(t2)
                continue
            if not h.has_edge(ht, h2) and any(
                rm_pow.contains(cm[ht], cm[h2]) for cm in coord_maps
            ):
                entries.add(t2)
        if len(entries) > cap:
            raise ScheduleOverflowError(
                f"sigma({t}) for coordinate {i} has {len(entries)} entries, cap {cap}",
                position=t, size=len(entries), cap=cap)
        if entries:
            sets[t] = entries
    return sets


def oracle_bad_sets(
    i: int,
    h: Graph,
    coord_maps: list[tuple[int, ...]],
    layout: tuple[int, ...],
    params: GammaParams,
) -> dict[int, set[int]]:
    """Exact conflict sets for coordinate i, straight from the definition,
    for each vertex that has conflicts.

    h' conflicts with h when they are non-adjacent, more than 4 apart in the
    layout, and their images collide (lie within distance 4) both in map i
    and in some earlier map. Symmetric by construction.
    """
    maps = coord_maps[: i - 1]
    last = coord_maps[i - 1]
    rm_pow = params.rm_pow
    n = h.vertex_count
    out: dict[int, set[int]] = {v: set() for v in range(n)}
    for a in range(n):
        for b in range(a + 1, n):
            if h.has_edge(a, b):
                continue
            if abs(layout[a] - layout[b]) <= 4:
                continue
            if not rm_pow.contains(last[a], last[b]):
                continue
            if any(rm_pow.contains(cm[a], cm[b]) for cm in maps):
                out[a].add(b)
                out[b].add(a)
    return {v: s for v, s in out.items() if s}


def oracle_verify_induced(h: Graph, result: EmbeddingResult, params: GammaParams) -> InducedReport:
    """Full quadratic check: oracle adjacency iff input adjacency.

    Every violating pair is reported with its direction and, for spurious
    edges, the witnessing coordinate pair.
    """
    n = h.vertex_count
    gamma = result.gamma
    violations = []
    pairs = 0
    for a in range(n):
        for b in range(a + 1, n):
            pairs += 1
            expected = h.has_edge(a, b)
            got, witness = gamma_adjacent_witness(gamma[a], gamma[b], params)
            if got != expected:
                violations.append({
                    "pair": [a, b],
                    "expected": expected,
                    "got": got,
                    "witness": list(witness) if witness else None,
                })
    return InducedReport(pairs_checked=pairs, violations=tuple(violations))


def oracle_gamma_adjacent_witness(a, b, params: GammaParams):
    """The adjacency rule read off its definition: the witness is the
    smallest i whose mask and shield tests pass with a close x-pair at i and
    at some j < i, and j is the smallest close coordinate."""
    rm_pow, rz_pow = params.rm_pow, params.rz_pow
    close = [i for i in range(1, params.delta + 1)
             if rm_pow.contains(a.coords[i - 1], b.coords[i - 1])]
    for i in close[1:]:
        xa, mask_a, ua = a.blocks[i - 2]
        xb, mask_b, ub = b.blocks[i - 2]
        ra, rb = rm_pow.rank(xa, xb), rm_pow.rank(xb, xa)
        if (mask_a >> ra) & 1 and (mask_b >> rb) & 1 and rz_pow.contains(ua, ub):
            return True, (close[0], i)
    return False, None


def _reference_widths(params: GammaParams) -> tuple[int, int, int]:
    """The bits a label gives x, a subset and u: a coordinate the fewest of
    8, 16, 32 or 64 that hold it, a subset its width rounded up to whole
    bytes."""
    def coordinate(bits):
        width = 8
        while width < bits:
            width *= 2
        return width
    return (coordinate(params.x_bits), (params.subset_bits + 7) // 8 * 8,
            coordinate(params.u_bits))


def reference_encode_label(v: GammaVertex, params: GammaParams) -> str:
    """The label layout written out field by field: shift x_1..x_delta,
    then u_2..u_delta, then X_2..X_delta into one integer at their widths,
    and ``format`` it as hex zero-filled to whole digits, after an 8-digit
    header carrying the bit width."""
    xw, sw, uw = _reference_widths(params)
    acc = v.x1
    for x, _, _ in v.blocks:
        acc = (acc << xw) | x
    for _, _, u in v.blocks:
        acc = (acc << uw) | u
    for _, mask, _ in v.blocks:
        acc = (acc << sw) | mask
    total = xw + len(v.blocks) * (xw + sw + uw)
    return format(total, "08x") + format(acc, "x").zfill(total // 4)


def reference_decode_label(label: str, params: GammaParams) -> GammaVertex:
    """The inverse of ``reference_encode_label``, for well-formed labels:
    parse with ``int(..., 16)`` and shift each field off the low end."""
    xw, sw, uw = _reference_widths(params)
    k = params.delta - 1
    assert int(label[:8], 16) == xw + k * (xw + sw + uw)
    acc = int(label[8:], 16)
    fields = []
    for width in [sw] * k + [uw] * k + [xw] * k:
        fields.append(acc & ((1 << width) - 1))
        acc >>= width
    fields.append(acc)
    fields.reverse()  # x_1..x_delta, u_2..u_delta, X_2..X_delta
    xs, us, masks = fields[1:k + 1], fields[k + 1:2 * k + 1], fields[2 * k + 1:]
    return GammaVertex(x1=fields[0], blocks=tuple(zip(xs, masks, us)))


def oracle_edge_witnesses(h: Graph, result: EmbeddingResult, params: GammaParams) -> list[str]:
    """The edge-witness check read off its definition: at the parts j < i
    that contain an input edge, both x-pairs are close, each x_i's rank in
    the other's power row lies in its owner's subset, and the shield pair at
    i is close. The first test that fails names the edge."""
    rm_pow, rz_pow = params.rm_pow, params.rz_pow
    gamma = result.gamma
    out = []
    for (u, v), parts in sorted(result.homs.decomposition.multiplicity.items()):
        j, i = sorted(p + 1 for p in parts)
        a, b = gamma[u], gamma[v]
        if not all(rm_pow.contains(a.coords[k - 1], b.coords[k - 1]) for k in (j, i)):
            out.append(f"edge ({u}, {v}): coordinates not close at its parts ({j}, {i})")
            continue
        (xa, mask_a, ua), (xb, mask_b, ub) = a.blocks[i - 2], b.blocks[i - 2]
        if not ((mask_a >> rm_pow.rank(xa, xb)) & 1 and (mask_b >> rm_pow.rank(xb, xa)) & 1):
            out.append(f"edge ({u}, {v}): subset membership missing at part {i}")
        elif not rz_pow.contains(ua, ub):
            out.append(f"edge ({u}, {v}): shield pair not close at part {i}")
    return out


def oracle_anchor_distinct(
    anchor: tuple[int, ...], assignment: tuple[int, ...]
) -> list[str]:
    out = []
    n = len(anchor)
    for a in range(n):
        for b in range(a + 1, n):
            if anchor[a] == anchor[b] and assignment[a] == assignment[b]:
                out.append(
                    f"vertices {a}, {b} share both the anchor image and this image")
    return out


def oracle_window_distinct(
    layout: tuple[int, ...], assignment: tuple[int, ...]
) -> list[str]:
    out = []
    n = len(assignment)
    for a in range(n):
        for b in range(a + 1, n):
            if abs(layout[a] - layout[b]) <= LOCAL_WINDOW \
                    and assignment[a] == assignment[b]:
                out.append(
                    f"vertices {a}, {b} sit within {LOCAL_WINDOW} layout slots "
                    f"but share image {assignment[a]}")
    return out


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


def oracle_lps_graph(p, q: int | None = None) -> Graph:
    """The LPS builder as it was before the numpy Cayley build, verbatim:
    one Python tuple product per vertex and generator, then Graph(n, edges).

    Explicit non-bipartite (p+1)-regular LPS graph on q(q^2-1)/2 vertices.

    Vertices are the elements of PSL(2, q), canonicalized projectively and
    ordered lexicographically; edges join M to M*S for each of the p+1
    generator matrices S obtained from the quaternion solutions, mapped to
    2x2 matrices through a square root of -1 mod q. The generator set is
    closed under inverses, so the graph is undirected.
    """
    params = p if isinstance(p, LpsParams) else LpsParams(p=p, q=q)
    p, q = params.p, params.q

    ii = sqrt_minus_one(q)
    sols = quaternion_norm_solutions(p)
    gens: set[tuple[int, int, int, int]] = set()
    for a, b, c, d in sols:
        mat = ((a + b * ii) % q, (c + d * ii) % q, (-c + d * ii) % q, (a - b * ii) % q)
        gens.add(_canonical(mat, q))
    if len(gens) != p + 1:
        raise ConstructionIntegrityError(
            f"expected {p + 1} projective generators, got {len(gens)}",
            p=p,
            q=q,
        )

    square = [False] * q
    for x in range(1, q):
        square[x * x % q] = True

    # PSL(2, q) = projective classes with square determinant. Enumerate the
    # canonical representative of every class directly: first row-major
    # nonzero entry equal to 1.
    verts: list[tuple[int, int, int, int]] = []
    for b_ in range(q):
        bc = [b_ * c_ % q for c_ in range(q)]
        for c_ in range(q):
            base = bc[c_]
            for d_ in range(q):
                det = (d_ - base) % q
                if det and square[det]:
                    verts.append((1, b_, c_, d_))
    for c_ in range(1, q):
        det = -c_ % q
        if square[det]:
            verts.extend((0, 1, c_, d_) for d_ in range(q))
    verts.sort()
    expected = params.vertex_count
    if len(verts) != expected:
        raise ConstructionIntegrityError(
            f"PSL(2,{q}) enumeration produced {len(verts)} classes, expected {expected}"
        )
    index = {t: i for i, t in enumerate(verts)}

    gen_list = sorted(gens)
    edges = []
    for vid, (a_, b_, c_, d_) in enumerate(verts):
        row = set()
        for (e, f, g_, h) in gen_list:
            prod = (
                (a_ * e + b_ * g_) % q,
                (a_ * f + b_ * h) % q,
                (c_ * e + d_ * g_) % q,
                (c_ * f + d_ * h) % q,
            )
            wid = index[_canonical(prod, q)]
            row.add(wid)
        if vid in row or len(row) != p + 1:
            raise ConstructionIntegrityError(
                f"vertex {vid} has degenerate neighbor set (size {len(row)})",
                p=p,
                q=q,
            )
        edges.extend((vid, w) for w in row if vid < w)
    g = Graph(expected, edges)
    if any(g.degree(v) != p + 1 for v in range(expected)):
        raise ConstructionIntegrityError("constructed graph is not (p+1)-regular")
    return g


def oracle_psl2_elements(q: int) -> list[tuple[int, int, int, int]]:
    """PSL(2, q) from its definition: every 2x2 matrix over Z/q with a
    nonzero square determinant, scaled so its first nonzero entry is 1,
    deduplicated and sorted."""
    squares = {x * x % q for x in range(1, q)}
    classes = set()
    for a, b, c, d in itertools.product(range(q), repeat=4):
        if (a * d - b * c) % q in squares:
            lead = a or b
            inv = pow(lead, q - 2, q)
            classes.add((a * inv % q, b * inv % q, c * inv % q, d * inv % q))
    return sorted(classes)
