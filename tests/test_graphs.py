import hashlib
import math
import pickle
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from induniv.errors import ArgumentError
from induniv.graphs import (
    BfsNeighborhoods,
    Graph,
    circulant_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    format_edge_list,
    parse_edge_list,
    path_graph,
    shared_power_neighborhoods,
)
from induniv.lps import cached_lps_graph
from instances import random_bounded_graph
from oracles import oracle_distances, oracle_girth, oracle_power

INF = math.inf


@st.composite
def random_graphs(draw, max_n=9):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [p for p, keep in zip(pairs, mask) if keep])


def test_rejects_self_loops_and_bad_ids():
    with pytest.raises(ArgumentError):
        Graph(3, [(0, 0)])
    with pytest.raises(ArgumentError):
        Graph(3, [(0, 3)])
    with pytest.raises(ArgumentError):
        Graph(-1)


def test_vertex_ids_may_be_any_integer_type():
    g = circulant_graph(40, [1, 3])
    lps = cached_lps_graph(5, 29)
    for v in (np.int64(3), np.int32(3), np.uint8(3)):
        assert g.neighbors(v) == g.neighbors(3) and g.degree(v) == 4
        assert g.has_edge(v, np.int64(4)) and g.bfs_distances(v) == g.bfs_distances(3)
        # the reference metric and the group metric alike
        assert BfsNeighborhoods(g).row(v).tolist() == BfsNeighborhoods(g).row(3).tolist()
        assert shared_power_neighborhoods(lps).row(v).tolist() == \
            shared_power_neighborhoods(lps).row(3).tolist()
    for bad in (3.0, "3", None, np.float64(3.0), 40, np.int64(-1)):
        with pytest.raises(ArgumentError, match=r"vertex id .* out of range \[0, 40\)"):
            g.neighbors(bad)
        with pytest.raises(ArgumentError, match=r"out of range \[0, 40\)"):
            BfsNeighborhoods(g).row(bad)


def test_duplicate_edges_collapse():
    g = Graph(3, [(0, 1), (1, 0), (0, 1)])
    assert g.edge_count == 1
    assert g.neighbors(0) == (1,)


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_adjacency_symmetric_and_sorted(g):
    for v in range(g.vertex_count):
        nb = g.neighbors(v)
        assert list(nb) == sorted(nb)
        assert len(set(nb)) == len(nb)
        for w in nb:
            assert v in g.neighbors(w)


def _power_edges(g: Graph) -> set[tuple[int, int]]:
    pw = BfsNeighborhoods(g)
    return {(u, int(w)) for u in range(g.vertex_count) for w in pw.row(u) if u < w}


def test_power_c5_fourth_is_complete():
    assert _power_edges(cycle_graph(5)) == set(complete_graph(5).edges())


@given(random_graphs(max_n=12))
@settings(max_examples=40, deadline=None)
def test_power_membership_matches_distance(g):
    pk = BfsNeighborhoods(g)
    assert _power_edges(g) == oracle_power(g, 4)
    for u in range(g.vertex_count):
        for v in range(g.vertex_count):
            d = g.distance(u, v)
            assert pk.contains(u, v) == (0 < d <= 4)


def test_distance_examples():
    p5 = path_graph(5)
    assert p5.distance(0, 4) == 4
    assert p5.distance(2, 2) == 0
    two_edges = Graph(4, [(0, 1), (2, 3)])
    assert two_edges.distance(0, 3) == INF
    with pytest.raises(ArgumentError):
        p5.distance(0, 9)


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_distance_matches_oracle(g):
    for u in range(g.vertex_count):
        oracle = oracle_distances(g, u)
        for v in range(g.vertex_count):
            assert g.distance(u, v) == oracle.get(v, INF)


def test_girth_examples():
    assert cycle_graph(7).girth() == 7
    tree = Graph(5, [(0, 1), (0, 2), (2, 3), (2, 4)])
    assert tree.girth() == INF
    assert complete_graph(4).girth() == 3
    # two cycles, the shorter wins
    g = disjoint_union(cycle_graph(9), cycle_graph(5))
    assert g.girth() == 5


@given(random_graphs())
@settings(max_examples=60, deadline=None)
def test_girth_matches_edge_removal_oracle(g):
    assert g.girth() == oracle_girth(g)


def test_girth_through_a_vertex():
    # a triangle with a tail ending in a pentagon: the girth is 3, but BFS
    # from the pentagon only sees cycles no shorter than 5
    g = Graph(9, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4),
                  (4, 5), (5, 6), (6, 7), (7, 8), (8, 4)])
    assert g.girth() == 3
    assert g.girth_through(0) == 3
    assert g.girth_through(6) == 5
    assert g.girth_through(3) >= 3
    assert Graph(3, [(0, 1)]).girth_through(2) == INF
    with pytest.raises(ArgumentError):
        g.girth_through(9)


@given(random_graphs())
@settings(max_examples=40, deadline=None)
def test_girth_through_bounds_the_girth(g):
    through = [g.girth_through(v) for v in range(g.vertex_count)]
    assert min(through) == oracle_girth(g)


def test_neighbor_table_round_trip(rm_desk):
    for g in (rm_desk, circulant_graph(70, (1, 5, 12)), cycle_graph(3), Graph(2)):
        table = g.neighbor_table()
        assert table.shape == (g.vertex_count, g.max_degree())
        copy = Graph.from_neighbor_table(table[:, ::-1])  # row order is free
        assert copy == g and hash(copy) == hash(g)
        assert copy.edge_count == g.edge_count
        assert list(copy.edges()) == list(g.edges())
    with pytest.raises(ArgumentError):
        Graph(3, [(0, 1)]).neighbor_table()


def test_a_table_graph_keeps_its_table(rm_desk):
    table = rm_desk.neighbor_table()
    assert rm_desk.neighbor_table() is table and not table.flags.writeable
    assert rm_desk.is_regular() and rm_desk.max_degree() == 6
    assert rm_desk.degrees() == [6] * rm_desk.vertex_count
    plain = Graph(rm_desk.vertex_count, rm_desk.edges())
    assert np.array_equal(plain.neighbor_table(), table)
    assert plain.degrees() == rm_desk.degrees()


def test_a_table_graph_holds_no_object_per_vertex():
    # what the graph holds once built is its int32 table and a few objects,
    # no tuple or int per vertex
    table = cached_lps_graph(5, 29).neighbor_table()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        g = Graph.from_neighbor_table(table)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert g.vertex_count == 12180 and g.neighbor_table().dtype == np.int32
    assert held <= table.nbytes + (64 << 10)


@pytest.mark.parametrize("g", [cycle_graph(9), disjoint_union(cycle_graph(4), cycle_graph(5)),
                               circulant_graph(30, (1, 10)), Graph(1), Graph(2)])
def test_table_connectivity_matches_bfs(g):
    assert Graph.from_neighbor_table(g.neighbor_table()).is_connected() == g.is_connected()


@pytest.mark.parametrize("g", [cycle_graph(9), cycle_graph(10), circulant_graph(30, (1, 10)),
                               circulant_graph(40, (1, 3)), Graph(1), Graph(2),
                               disjoint_union(cycle_graph(4), cycle_graph(5)),
                               disjoint_union(cycle_graph(4), cycle_graph(6))])
def test_a_table_graph_reads_like_its_edges(g):
    # the whole-table paths and the row views answer as the tuples do
    t = Graph.from_neighbor_table(g.neighbor_table())
    assert t == g and g == t and hash(t) == hash(g)
    assert t.is_bipartite() == g.is_bipartite()
    assert t.connected_components() == g.connected_components()
    assert t.girth() == g.girth()
    for v in range(g.vertex_count):
        assert t.neighbors(v) == g.neighbors(v) and type(t.neighbors(v)) is tuple
        assert t.bfs_distances(v) == g.bfs_distances(v)
        assert [t.has_edge(v, w) for w in range(g.vertex_count)] == \
            [g.has_edge(v, w) for w in range(g.vertex_count)]


def test_a_table_graph_differs_from_other_graphs_of_its_size():
    # every graph of n vertices and m edges hashes alike; equality reads rows
    c6 = Graph.from_neighbor_table(cycle_graph(6).neighbor_table())
    two_triangles = disjoint_union(cycle_graph(3), cycle_graph(3))
    lopsided = Graph(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (4, 5)])
    for other in (two_triangles, lopsided,
                  Graph.from_neighbor_table(two_triangles.neighbor_table())):
        assert c6 != other and other != c6 and hash(c6) == hash(other)


@pytest.mark.parametrize("table,problem", [
    ([[1, 2], [0, 2], [0, 0]], "repeats"),
    ([[1, 2], [0, 2], [0, 2]], "self-loop"),
    ([[1, 2], [0, 2], [1, 3]], "out of range"),
    ([[1, 2], [0, 2], [1, 0], [0, 1]], "not symmetric"),
    ([[1], [2], [0]], "not symmetric"),
    ([1, 0], "2-D"),
])
def test_neighbor_table_must_be_a_simple_graph(table, problem):
    with pytest.raises(ArgumentError, match=problem):
        Graph.from_neighbor_table(table)


def test_girth_never_exceeds_a_found_cycle():
    # a cycle found by any means bounds the girth from above
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 2)])
    assert g.girth() <= 3


def test_bipartite_examples():
    assert cycle_graph(6).is_bipartite()
    assert not cycle_graph(5).is_bipartite()
    assert empty_graph(4).is_bipartite()
    assert path_graph(7).is_bipartite()


def test_connected_components():
    g = disjoint_union(path_graph(3), cycle_graph(3))
    assert g.connected_components() == [[0, 1, 2], [3, 4, 5]]
    assert not g.is_connected()
    assert cycle_graph(4).is_connected()


@pytest.mark.parametrize("make", [lambda: cycle_graph(5), lambda: cached_lps_graph(5, 29)],
                         ids=["cycle", "lps"])
def test_pickle_round_trip(make):
    g = make()
    assert g.is_connected()  # set a memo first: the pickle must not carry it
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and hash(copy) == hash(g)
    assert list(copy.edges()) == list(g.edges())
    assert copy.is_connected()
    # an LPS host comes back with its group metric, so it ranks as the original
    host, kept = shared_power_neighborhoods(g), shared_power_neighborhoods(copy)
    row = host.row(0).tolist()
    assert [kept.rank(0, w) for w in row] == [host.rank(0, w) for w in row]


def test_memos_agree_across_threads():
    g = circulant_graph(200, [1, 7])
    seen = []

    def work():
        seen.append(g.is_connected())

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(seen) == 8 and all(seen)


def test_edge_list_round_trip():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    text = format_edge_list(g)
    assert text.splitlines()[0] == "5 3"
    assert parse_edge_list(text) == g


def test_edge_list_comments_and_blanks():
    text = "# header comment\n\n4 2\n0 1\n\n# tail\n2 3\n"
    g = parse_edge_list(text)
    assert g.vertex_count == 4 and g.edge_count == 2


def test_edge_list_strictness():
    with pytest.raises(ArgumentError):
        parse_edge_list("2 2\n0 1\n")  # fewer edges than declared
    with pytest.raises(ArgumentError):
        parse_edge_list("")
    with pytest.raises(ArgumentError):
        parse_edge_list("nope\n")


def test_random_bounded_graph_is_pinned():
    # the tests' reference input (seed 7, n = 2000, degree at most 4), as
    # drawn before its membership test moved from a list to a set
    g = random_bounded_graph(random.Random(7), 2000, 4)
    assert g.edge_count == 3326 and g.max_degree() <= 4
    assert hashlib.sha256(repr(sorted(g.edges())).encode()).hexdigest() == \
        "449ff2f3192556b588c9710e90f9fd1a91d89515d7ba7f46898c111726c784b2"
