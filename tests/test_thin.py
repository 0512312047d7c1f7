import random

import pytest

from induniv.errors import ArgumentError, DecompositionError
from induniv.graphs import (
    Graph,
    circulant_graph,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
)
from induniv.harness import FamilySpec, enumerate_family
from induniv.thin import (
    DecomposeStrategy,
    ThinDecomposition,
    _bfs_edge_order,
    _component_kind,
    _order_search,
    _SearchPart,
    is_thin,
    layout_thin,
    thin_decompose,
    validate_decomposition,
    validate_layout,
)
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
    with pytest.raises(ArgumentError):
        thin_decompose(cycle_graph(4), 3, DecomposeStrategy.EVEN_PETERSEN)


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
    dec = thin_decompose(g, 4, DecomposeStrategy.EVEN_PETERSEN)
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
        thin_decompose(complete_graph(4), 3, DecomposeStrategy.SEARCH, search_budget=2)
    assert "budget" in str(err.value)


def test_validator_fault_injection_missing_edge():
    h = cycle_graph(6)
    dec = thin_decompose(h, 2)
    edge = (0, 1)
    part0 = Graph(6, [e for e in dec.parts[0].edges() if e != edge])
    bad = ThinDecomposition(parts=(part0, dec.parts[1]), multiplicity=dec.multiplicity)
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
        want = oracle_first_decomposition(h, 3, _bfs_edge_order(h))
        assert thin_decompose(h, 3).multiplicity == want, sorted(h.edges())


def test_layout_search_is_the_plain_search_result():
    # the deadline cuts drop only orders with no layout, so the first order
    # found is the one the plain depth-first search finds
    rng = random.Random(9)
    checked = 0
    for _ in range(400):
        g = _random_subcubic(rng, rng.randrange(5, 15), 0.8)
        for comp in g.connected_components():
            if _component_kind(g, comp) == "few_branch" and len(comp) > 4:
                assert _order_search(g, comp, 10**6) == oracle_first_layout(g, comp)
                checked += 1
    assert checked > 50


# -- layouts ---------------------------------------------------------------------


def test_path_layout_is_identity():
    lay = layout_thin(path_graph(6), 6)
    assert lay.phi == tuple(range(6))


def test_cycle_zigzag_layout():
    lay = layout_thin(cycle_graph(5), 5)
    assert lay.phi == (0, 2, 4, 3, 1)
    assert max(abs(lay.phi[u] - lay.phi[v]) for u, v in cycle_graph(5).edges()) <= 2


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


def test_layout_every_thin_subcubic_class():
    for n in range(1, 8):
        for g in enumerate_family(FamilySpec(n, 3)):
            if is_thin(g):
                lay = layout_thin(g, n)
                assert validate_layout(g, lay) == []


def test_layout_order_inverse():
    g = cycle_graph(6)
    lay = layout_thin(g, 6)
    order = lay.order()
    assert all(lay.phi[order[t]] == t for t in range(6))
