import math
import pickle
import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from induniv.errors import ArgumentError
from induniv.graphs import (
    Graph,
    PowerNeighborhoods,
    circulant_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    format_edge_list,
    is_path,
    is_walk,
    parse_edge_list,
    path_graph,
    shared_power_neighborhoods,
)
from induniv.lps import cached_lps_graph
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


def _power_edges(g: Graph, k: int) -> set[tuple[int, int]]:
    pw = PowerNeighborhoods(g, k)
    return {(u, int(w)) for u in range(g.vertex_count) for w in pw.row(u) if u < w}


def test_power_identity_on_path():
    p5 = path_graph(5)
    assert _power_edges(p5, 1) == set(p5.edges())


def test_power_c6_squared_degrees():
    # expected degrees computed by the all-pairs BFS oracle
    g = cycle_graph(6)
    pw = PowerNeighborhoods(g, 2)
    assert _power_edges(g, 2) == oracle_power(g, 2)
    assert all(len(pw.row(v)) == 4 for v in range(6))


def test_power_c5_fourth_is_complete():
    assert _power_edges(cycle_graph(5), 4) == set(complete_graph(5).edges())


def test_power_requires_positive_exponent():
    with pytest.raises(ArgumentError):
        PowerNeighborhoods(path_graph(3), 0)


@given(random_graphs(), st.integers(min_value=1, max_value=4))
@settings(max_examples=40, deadline=None)
def test_power_membership_matches_distance(g, k):
    pk = PowerNeighborhoods(g, k)
    for u in range(g.vertex_count):
        for v in range(g.vertex_count):
            d = g.distance(u, v)
            assert pk.contains(u, v) == (0 < d <= k)


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


def test_girth_never_exceeds_a_found_cycle():
    # a cycle found by any means bounds the girth from above
    g = Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 2)])
    assert g.girth() <= 3


def test_bipartite_examples():
    assert cycle_graph(6).is_bipartite()
    assert not cycle_graph(5).is_bipartite()
    assert empty_graph(4).is_bipartite()
    assert path_graph(7).is_bipartite()


def test_walk_and_path_predicates():
    c5 = cycle_graph(5)
    assert is_walk(c5, [0, 1, 2, 1, 0])
    assert not is_path(c5, [0, 1, 2, 1, 0])
    assert is_path(c5, [0, 1, 2, 3])
    assert not is_walk(c5, [0, 2])


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


def test_memos_agree_across_threads():
    g = circulant_graph(200, [1, 7])
    seen = []

    def work():
        seen.append((g.is_connected(), shared_power_neighborhoods(g)))

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
    assert len(seen) == 8 and all(connected for connected, _ in seen)
    assert len({id(metric) for _, metric in seen}) == 1


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
