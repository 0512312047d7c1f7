import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import induniv
from induniv.errors import ArgumentError, DecompositionError
from induniv.graphs import (
    Graph,
    circulant_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    format_edge_list,
    path_graph,
)
from induniv.harness import FamilySpec, enumerate_family
from induniv.thin import (
    ThinDecomposition,
    _bfs_edge_order,
    _decompose_search,
    _euler_orientation,
    _kempe_colouring,
    _SearchPart,
    is_thin,
    layout_thin,
    thin_decompose,
    validate_decomposition,
    validate_layout,
)
from instances import random_bounded_graph
from oracles import oracle_first_decomposition, oracle_first_layout, oracle_is_thin


# -- recognition ---------------------------------------------------------------


def test_cycle_is_thin():
    assert is_thin(cycle_graph(9))


def test_cycle_with_pendants_is_thin():
    g = Graph(9, list(cycle_graph(6).edges()) + [(0, 6), (2, 7), (4, 8)])
    assert is_thin(g)


def test_k4_is_not_thin():
    rep = is_thin(complete_graph(4))
    assert not rep
    assert rep.failing_component == (0, 1, 2, 3)


def test_degree_four_is_not_thin():
    star = Graph(5, [(0, i) for i in range(1, 5)])
    rep = is_thin(star)
    assert not rep and "degree" in rep.reason


def test_double_pendant_on_one_cycle_vertex():
    # vertex 0 carries two leaves: degree 3 but not an augmentation; still
    # thin because only one vertex has degree 3
    g = Graph(8, list(cycle_graph(6).edges()) + [(0, 6), (0, 7)])
    assert g.degree(0) == 4 or is_thin(g)


def test_is_thin_matches_definition_oracle_subcubic():
    # every subcubic isomorphism class on up to 8 vertices
    for n in range(1, 9):
        for g in enumerate_family(FamilySpec(n, 3)):
            assert bool(is_thin(g)) == oracle_is_thin(g), sorted(g.edges())


def test_is_thin_matches_oracle_random_nine_vertices():
    rng = random.Random(7)
    for _ in range(150):
        n = rng.randrange(3, 10)
        edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.3}
        g = Graph(n, edges)
        assert bool(is_thin(g)) == oracle_is_thin(g), sorted(g.edges())


# -- decomposition ---------------------------------------------------------------


def test_forced_two_cover_on_cycle():
    c8 = cycle_graph(8)
    dec = thin_decompose(c8, 2)
    assert dec.parts[0] == c8 and dec.parts[1] == c8
    assert all(pair == (0, 1) for pair in dec.multiplicity.values())


def test_k4_three_parts():
    dec = thin_decompose(complete_graph(4), 3)
    assert validate_decomposition(complete_graph(4), dec).ok
    assert all(p.max_degree() <= 3 for p in dec.parts)


def test_empty_graph_decomposes_trivially():
    dec = thin_decompose(empty_graph(6), 4)
    assert len(dec.parts) == 4
    assert all(p.edge_count == 0 and p.vertex_count == 6 for p in dec.parts)
    assert validate_decomposition(empty_graph(6), dec).ok


def test_precondition_checks():
    with pytest.raises(ArgumentError):
        thin_decompose(complete_graph(5), 3)  # degree 4 > 3
    with pytest.raises(ArgumentError):
        thin_decompose(cycle_graph(4), 1)


def test_degree_sum_invariant():
    rng = random.Random(1)
    for _ in range(20):
        n = rng.randrange(4, 9)
        delta = rng.choice((2, 3, 4))
        edges = set()
        degs = [0] * n
        for _ in range(3 * n):
            u, v = rng.randrange(n), rng.randrange(n)
            if u != v and degs[u] < delta and degs[v] < delta:
                e = (min(u, v), max(u, v))
                if e not in edges:
                    edges.add(e)
                    degs[u] += 1
                    degs[v] += 1
        h = Graph(n, edges)
        dec = thin_decompose(h, delta)
        for v in range(n):
            assert sum(p.degree(v) for p in dec.parts) == 2 * h.degree(v)


@pytest.mark.parametrize("g", [
    complete_graph(5),
    circulant_graph(8, (1, 2)),
    circulant_graph(10, (1, 3)),
])
def test_even_petersen_parts_two_regular_on_regular_input(g):
    assert set(g.degrees()) == {4}
    dec = thin_decompose(g, 4)
    assert validate_decomposition(g, dec).ok
    assert all(set(p.degrees()) == {2} for p in dec.parts)


def test_even_petersen_on_a_long_cycle_power():
    # the Euler circuits and the Kempe chains that colour the out/in
    # multigraph run through hundreds of vertices
    g = circulant_graph(1000, (1, 2))
    dec = thin_decompose(g, 4)
    assert validate_decomposition(g, dec).ok
    assert all(set(p.degrees()) == {2} for p in dec.parts)


def test_even_petersen_delta_six():
    g = circulant_graph(12, (1, 2, 3))
    assert set(g.degrees()) == {6}
    dec = thin_decompose(g, 6)
    assert validate_decomposition(g, dec).ok
    assert all(set(p.degrees()) == {2} for p in dec.parts)


def test_search_budget_error_carries_partial():
    with pytest.raises(DecompositionError) as err:
        _decompose_search(complete_graph(4), 3, 2)
    assert "budget" in str(err.value)


@pytest.mark.parametrize("h,delta", [
    (cycle_graph(6), 2),
    (complete_graph(4), 3),  # the search route
    (circulant_graph(8, (1, 2)), 4),  # the even route, twin parts
], ids=["cycle6", "k4", "circulant8"])
def test_validator_fault_injection_missing_edge(h, delta):
    dec = thin_decompose(h, delta)
    edge = (0, 1)
    i, j = dec.multiplicity[edge]
    # the even route names a part and its twin: the edge leaves one twin only
    assert (dec.parts[i] == dec.parts[j]) == (delta % 2 == 0)
    parts = list(dec.parts)
    parts[i] = Graph(h.vertex_count, [e for e in parts[i].edges() if e != edge])
    bad = ThinDecomposition(parts=tuple(parts), multiplicity=dec.multiplicity)
    report = validate_decomposition(h, bad)
    assert len([v for v in report.violations if "lies in 1 parts" in v]) == 1


def test_validator_fault_injection_degree_bump():
    h = path_graph(6)
    dec = thin_decompose(h, 2)
    # splice a non-edge into part 0 to force a degree-4 or non-subgraph fault
    extra = (0, 5)
    part0 = Graph(6, list(dec.parts[0].edges()) + [extra])
    bad = ThinDecomposition(parts=(part0, dec.parts[1]), multiplicity=dec.multiplicity)
    report = validate_decomposition(h, bad)
    assert not report.ok


def test_decompose_every_subcubic_class_up_to_six():
    for n in range(1, 7):
        for h in enumerate_family(FamilySpec(n, 3)):
            dec = thin_decompose(h, 3)
            assert validate_decomposition(h, dec).ok


def _random_subcubic(rng: random.Random, n: int, keep: float) -> Graph:
    stubs = [v for v in range(n) for _ in range(3)]
    rng.shuffle(stubs)
    edges = {(min(a, b), max(a, b)) for a, b in zip(stubs[::2], stubs[1::2]) if a != b}
    return Graph(n, [e for e in sorted(edges) if rng.random() < keep])


def _simple_bfs_order(h: Graph) -> list[tuple[int, int]]:
    edges = list(h.edges())
    return [edges[i] for i in _bfs_edge_order(h.vertex_count, edges)]


def test_search_part_verdicts_match_thinness_oracle():
    # insert random edges into one part as the search does: a refused edge
    # is taken out again, and kept edges are sometimes taken out later, so
    # the verdicts also test that removals restore every count
    rng = random.Random(3)
    # a spider whose legs end in cherries: its last edge makes a tree with a
    # vertex of three non-leaf neighbours
    spider = [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (3, 8)]
    part = _SearchPart(9)
    assert [part.add(u, v) for u, v in spider] == [True] * 7 + [False]
    for _ in range(40):
        n = rng.randrange(4, 12)
        part = _SearchPart(n)
        present: list[tuple[int, int]] = []
        for _ in range(60):
            if present and rng.random() < 0.3:
                part.pop()
                present.pop()
                continue
            u, v = sorted(rng.sample(range(n), 2))
            if (u, v) in present:
                continue
            present.append((u, v))
            ok = part.add(u, v)
            assert ok == oracle_is_thin(Graph(n, present)), present
            if not ok:
                part.pop()
                present.pop()


def test_decomposition_is_the_plain_search_result():
    # the incremental checks and the refused-part memo only make the search
    # cheaper: it returns what the plain search over the same order returns
    rng = random.Random(5)
    graphs = [complete_graph(4), circulant_graph(8, (1, 4)), circulant_graph(10, (1, 5))]
    graphs += [_random_subcubic(rng, rng.randrange(5, 11), 1.0) for _ in range(25)]
    for h in graphs:
        edges = _simple_bfs_order(h)
        want = oracle_first_decomposition(
            h, 3, edges, _kempe_colouring(h.vertex_count, edges, 3))
        assert thin_decompose(h, 3).multiplicity == want, sorted(h.edges())


def _petersen() -> Graph:
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)]
                 + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def _bridged_cubic() -> Graph:
    # two copies of K4 with one edge subdivided, the subdivision vertices
    # joined by a bridge: cubic, and by the parity lemma not 3-edge-colourable
    half = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 4), (3, 4)]
    return Graph(10, half + [(u + 5, v + 5) for u, v in half] + [(4, 9)])


def test_kempe_colouring_is_proper():
    # any two coloured edges that share a vertex differ in colour
    rng = random.Random(11)
    graphs = [_petersen(), _bridged_cubic(), complete_graph(4), circulant_graph(700, (1, 350))]
    graphs += [_random_subcubic(rng, n, keep) for n in (10, 52, 300, 2000)
               for keep in (1.0, 0.8)]
    for h in graphs:
        edges = _simple_bfs_order(h)
        colours = _kempe_colouring(h.vertex_count, edges, 3)
        assert len(colours) == len(edges) and set(colours) <= {0, 1, 2, None}
        seen: dict[tuple[int, int], tuple[int, int]] = {}
        for e, c in zip(edges, colours):
            for x in e if c is not None else ():
                assert (x, c) not in seen, (e, seen[x, c], c)
                seen[x, c] = e


@pytest.mark.parametrize("n", [52, 100, 500, 2000])
def test_random_subcubic_graphs_decompose_along_the_colouring(n):
    # a proper colouring leaves nothing to search, and random subcubic graphs
    # leave at most a few edges uncoloured, so twice the edge count is ample
    rng = random.Random(n)
    for keep in (1.0, 1.0, 0.9):
        h = _random_subcubic(rng, n, keep)
        dec = _decompose_search(h, 3, 2 * h.edge_count)
        assert validate_decomposition(h, dec).ok


@pytest.mark.parametrize("h", [_petersen(), _bridged_cubic()], ids=["petersen", "bridged"])
def test_class_two_graphs_decompose_through_the_search(h):
    assert set(h.degrees()) == {3}
    colours = _kempe_colouring(h.vertex_count, _simple_bfs_order(h), 3)
    assert None in colours  # no proper 3-edge-colouring exists
    dec = thin_decompose(h, 3)
    assert validate_decomposition(h, dec).ok
    assert dec.multiplicity == oracle_first_decomposition(h, 3, _simple_bfs_order(h), colours)


def test_long_cubic_rings_decompose_and_lay_out():
    # one search level per edge, and a thousand and more edges: past the
    # recursion limit of a search that recursed once per edge
    h = circulant_graph(700, (1, 350))
    dec = thin_decompose(h, 3)
    assert validate_decomposition(h, dec).ok
    for part in dec.parts:
        assert validate_layout(part, layout_thin(part, 700)) == []
    h = _random_subcubic(random.Random(1000), 1000, 1.0)
    assert validate_decomposition(h, thin_decompose(h, 3)).ok


@pytest.mark.parametrize("h", [
    circulant_graph(1000, (1, 2, 500)),
    random_bounded_graph(random.Random(5), 1000, 5),
], ids=["ring", "random"])
def test_delta_five_decomposes_along_the_colouring(h):
    # the lexicographic search alone runs out of its budget on these
    start = time.perf_counter()
    dec = thin_decompose(h, 5)
    assert validate_decomposition(h, dec).ok
    assert time.perf_counter() - start < 5


def test_delta_five_decomposition_is_the_plain_search_result():
    # part p takes colours p - 1 and p - 2 first, as the reference search does
    rng = random.Random(6)
    graphs = [circulant_graph(12, (1, 2, 6)), complete_graph(6)]
    graphs += [random_bounded_graph(rng, rng.randrange(6, 12), 5) for _ in range(20)]
    for h in graphs:
        edges = _simple_bfs_order(h)
        want = oracle_first_decomposition(
            h, 5, edges, _kempe_colouring(h.vertex_count, edges, 5))
        assert thin_decompose(h, 5).multiplicity == want, sorted(h.edges())


@pytest.mark.parametrize("delta, top", [(4, 7), (5, 7), (6, 6)])
def test_decompose_every_class_at_higher_delta(delta, top):
    for n in range(1, top + 1):
        for h in enumerate_family(FamilySpec(n, delta)):
            assert validate_decomposition(h, thin_decompose(h, delta)).ok


def _out_in_multigraph(h: Graph, delta: int) -> list[tuple[int, int]]:
    # the even route's input to the colouring: H and a clone of it, each
    # vertex padded to degree delta by parallel edges to its clone, oriented
    # along Euler circuits; tail t on the left, head w as 2n + w on the right
    n = h.vertex_count
    medges = [e for u, v in h.edges() for e in ((u, v, True), (u + n, v + n, False))]
    medges += [(v, v + n, False) for v in range(n) for _ in range(delta - h.degree(v))]
    return [(t, 2 * n + w) for _, t, w in _euler_orientation(2 * n, medges)]


@pytest.mark.parametrize("h, delta", [
    (path_graph(9), 2),
    (path_graph(9), 4),
    (Graph(5, [(0, i) for i in range(1, 5)]), 4),
    (path_graph(9), 6),
    (Graph(7, [(0, i) for i in range(1, 7)]), 6),
    (random_bounded_graph(random.Random(4), 300, 6), 6),
], ids=["path-k1", "path-k2", "star-k2", "path-k3", "star-k3", "random-k3"])
def test_kempe_colouring_splits_the_out_in_multigraph_into_perfect_matchings(h, delta):
    out_in = _out_in_multigraph(h, delta)
    nv = 4 * h.vertex_count
    edges = [out_in[i] for i in _bfs_edge_order(nv, out_in)]
    colours = _kempe_colouring(nv, edges, delta // 2)
    assert None not in colours
    for c in range(delta // 2):
        # every vertex is an end of exactly one edge of colour c
        assert sorted(x for e, col in zip(edges, colours) if col == c for x in e) == list(range(nv))


def test_no_decomposition_route_recurses():
    # neither route, nor the layout of a part or of a long thin component
    tailed = _two_tailed_cycle()
    script = (
        "import sys\n"
        "from induniv.graphs import circulant_graph, parse_edge_list\n"
        "from induniv.thin import layout_thin, thin_decompose\n"
        "cases = [(circulant_graph(700, (1, 350)), 3), (circulant_graph(1000, (1, 2)), 4),\n"
        "         (circulant_graph(1000, (1, 2, 500)), 5)]\n"
        "tailed = parse_edge_list(sys.stdin.read())\n"
        "sys.setrecursionlimit(100)\n"
        "decs = [(h, thin_decompose(h, delta)) for h, delta in cases]\n"
        "print([len(dec.multiplicity) for _, dec in decs])\n"
        "print(sum(len(layout_thin(p, h.vertex_count).phi) for h, dec in decs for p in dec.parts))\n"
        "print(len(layout_thin(tailed, tailed.vertex_count).phi))\n")
    src = str(Path(induniv.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         input=format_edge_list(tailed),
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.split() == ["[1050,", "2000,", "2500]", "11100", "3003"]


def _component_graph(g: Graph, comp: list[int]) -> Graph:
    index = {v: i for i, v in enumerate(comp)}
    return Graph(len(comp), [(index[u], index[v]) for u, v in g.edges() if u in index])


def test_every_thin_random_component_lays_out():
    # no proof backs the deadline order, so it is checked on every thin
    # component of thousands of random subcubic graphs; on the small ones
    # the reference search confirms that a layout exists
    rng = random.Random(9)
    checked = 0
    for n in range(5, 41):
        for keep in (0.7, 0.8, 0.9, 1.0):
            for _ in range(50):
                g = _random_subcubic(rng, n, keep)
                for comp in g.connected_components():
                    part = _component_graph(g, comp)
                    if not is_thin(part):
                        continue
                    assert validate_layout(part, layout_thin(part, len(comp))) == [], \
                        sorted(part.edges())
                    if len(comp) <= 14:
                        assert oracle_first_layout(g, comp) is not None
                    checked += 1
    assert checked > 6000


# -- layouts ---------------------------------------------------------------------


def _relabelled(g: Graph) -> Graph:
    perm = list(range(g.vertex_count))
    random.Random(0).shuffle(perm)
    return Graph(g.vertex_count, [(perm[u], perm[v]) for u, v in g.edges()])


def test_path_layout_is_identity():
    lay = layout_thin(path_graph(6), 6)
    assert lay.phi == tuple(range(6))
    # relabelled, the walk starts at the lower-id end, 6 (the other is 7)
    g = _relabelled(path_graph(9))
    assert layout_thin(g, 9).order() == [6, 8, 0, 2, 4, 3, 1, 5, 7]


def test_cycle_zigzag_layout():
    lay = layout_thin(cycle_graph(5), 5)
    assert lay.phi == (0, 2, 4, 3, 1)
    assert max(abs(lay.phi[u] - lay.phi[v]) for u, v in cycle_graph(5).edges()) <= 2
    # relabelled as 0 2 5 1 4 6 7 3: from 0, its larger neighbour 3 second,
    # then the two arcs in turn
    g = _relabelled(cycle_graph(8))
    lay = layout_thin(g, 8)
    assert lay.order() == [0, 3, 2, 7, 5, 6, 1, 4]
    assert max(abs(lay.phi[u] - lay.phi[v]) for u, v in g.edges()) <= 2


def test_cycle_with_pendants_layout():
    g = Graph(8, list(cycle_graph(6).edges()) + [(0, 6), (3, 7)])
    lay = layout_thin(g, 8)
    assert validate_layout(g, lay) == []


def test_layout_requires_thin_and_capacity():
    with pytest.raises(ArgumentError):
        layout_thin(complete_graph(4), 10)
    with pytest.raises(ArgumentError):
        layout_thin(path_graph(5), 4)


def test_layout_fallback_components():
    theta = Graph(5, [(0, 1), (0, 2), (2, 1), (0, 3), (3, 4), (4, 1)])
    assert validate_layout(theta, layout_thin(theta, 5)) == []
    spider = Graph(7, [(0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)])
    assert validate_layout(spider, layout_thin(spider, 7)) == []
    dumbbell = Graph(8, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                         (4, 5), (5, 6), (6, 7), (7, 5)])
    assert validate_layout(dumbbell, layout_thin(dumbbell, 8)) == []


def test_layout_multi_component_disjoint_intervals():
    g = disjoint_union(cycle_graph(4), path_graph(3))
    lay = layout_thin(g, 7)
    assert validate_layout(g, lay) == []
    assert sorted(lay.phi) == list(range(7))


def test_layout_classifies_each_component_once(monkeypatch):
    from induniv import thin

    sizes = []
    rule = thin._thin_rule
    monkeypatch.setattr(thin, "_thin_rule",
                        lambda size, *counts: sizes.append(size) or rule(size, *counts))
    g = disjoint_union(cycle_graph(10), path_graph(7))
    assert validate_layout(g, layout_thin(g, 17)) == []
    assert sorted(sizes) == [7, 10]


def test_layout_every_thin_subcubic_class():
    for n in range(1, 9):
        for g in enumerate_family(FamilySpec(n, 3)):
            if is_thin(g):
                lay = layout_thin(g, n)
                assert validate_layout(g, lay) == []


def test_layout_places_a_long_tadpole():
    # a triangle on a 1,200-vertex tail: one branch vertex, met 1,197 slots
    # into the walk down the tail
    g = Graph(1200, [(i, i + 1) for i in range(1199)] + [(1197, 1199)])
    assert is_thin(g)
    assert validate_layout(g, layout_thin(g, 1200)) == []


class _Shape:
    """A graph grown from vertex 0 by paths, relabelled by a fixed shuffle."""

    def __init__(self):
        self.n, self.edges = 1, []

    def path(self, a: int, length: int, b: int | None = None) -> int:
        """Add a path of length edges from a to b, or to a new vertex when b
        is None, and return its last vertex."""
        for i in range(length):
            if b is not None and i == length - 1:
                nxt = b
            else:
                nxt, self.n = self.n, self.n + 1
            self.edges.append((a, nxt))
            a = nxt
        return a

    def graph(self) -> Graph:
        return _relabelled(Graph(self.n, self.edges))


def _two_tailed_cycle() -> Graph:
    # arcs of 3 and 2,000 edges between the branch vertices, a 500-vertex
    # tail on each: 3,003 vertices
    s = _Shape()
    b = s.path(0, 3)
    s.path(b, 2000, 0)
    s.path(0, 500)
    s.path(b, 500)
    return s.graph()


def _theta() -> Graph:
    s = _Shape()
    b = s.path(0, 10)
    s.path(0, 1000, b)
    s.path(0, 1000, b)
    return s.graph()


def _spider() -> Graph:
    s = _Shape()
    for leg in (700, 800, 900):
        s.path(0, leg)
    return s.graph()


def _h_tree() -> Graph:
    s = _Shape()
    b = s.path(0, 500)
    for a, leg in ((0, 400), (0, 600), (b, 300), (b, 700)):
        s.path(a, leg)
    return s.graph()


def _dumbbell() -> Graph:
    s = _Shape()
    s.path(0, 800, 0)
    b = s.path(0, 600)
    s.path(b, 900, b)
    return s.graph()


def _branching_tadpole() -> Graph:
    s = _Shape()
    s.path(0, 1000, 0)
    b = s.path(0, 500)
    s.path(b, 600)
    s.path(b, 400)
    return s.graph()


@pytest.mark.parametrize("make", [
    _two_tailed_cycle, _theta, _spider, _h_tree, _dumbbell, _branching_tadpole,
], ids=["two-tailed-cycle", "theta", "spider", "h-tree", "dumbbell", "branching-tadpole"])
def test_large_few_branch_shapes_lay_out_at_once(make):
    # each takes about 0.01 s; a slot-by-slot search took 17 s and more on
    # the theta and ran out of its budget on the two-tailed cycle
    g = make()
    assert 2000 <= g.vertex_count <= 3003 and is_thin(g)
    start = time.perf_counter()
    lay = layout_thin(g, g.vertex_count)
    assert time.perf_counter() - start < 0.5
    assert validate_layout(g, lay) == []


def test_layout_order_inverse():
    g = cycle_graph(6)
    lay = layout_thin(g, 6)
    order = lay.order()
    assert all(lay.phi[order[t]] == t for t in range(6))
