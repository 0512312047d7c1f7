import random

import pytest

from induniv.embedder import (
    EmbeddingResult,
    RetryPolicy,
    build_f1,
    build_ri,
    check_edge_witnesses,
    compute_bad_sets,
    compute_sigma_i,
    embed,
    verify_induced,
)
from induniv.errors import (
    ArgumentError,
    EmbeddingFailureError,
    InfeasibleBuildError,
)
from induniv.gamma import GammaVertex, Profile, gamma_adjacent, make_gamma_params
from induniv.graphs import Graph, complete_graph, cycle_graph, empty_graph, path_graph
from induniv.thin import layout_thin, thin_decompose


def test_single_edge_delta_two(desk_params2):
    g = Graph(2, [(0, 1)])
    result = embed(g, 2, desk_params2)
    assert result.certificate.ok
    ok = gamma_adjacent(result.gamma[0], result.gamma[1], desk_params2)
    assert ok
    # the witnessing coordinates are the two parts holding the edge
    from induniv.gamma import gamma_adjacent_witness
    _, witness = gamma_adjacent_witness(result.gamma[0], result.gamma[1], desk_params2)
    assert witness == (1, 2)


def test_conflict_sets_computed_once_per_coordinate(monkeypatch, desk_params3):
    from induniv import embedder

    calls = []
    bad_sets = embedder.compute_bad_sets
    monkeypatch.setattr(embedder, "compute_bad_sets",
                        lambda i, *rest: calls.append(i) or bad_sets(i, *rest))
    h = cycle_graph(12)
    result = embed(h, 3, desk_params3)
    assert calls == [2, 3]
    assert result.homs.conflicts == {
        i: bad_sets(i, h, list(result.homs.coord), result.homs.layouts[i - 1],
                    desk_params3) for i in (2, 3)}


def test_cycle_delta_two(desk_params2):
    c8 = cycle_graph(8)
    result = embed(c8, 2, desk_params2)
    report = verify_induced(c8, result, desk_params2)
    assert report.ok and report.pairs_checked == 28
    assert check_edge_witnesses(c8, result, desk_params2) == []


def test_k4_delta_three(desk_params3):
    result = embed(complete_graph(4), 3, desk_params3)
    assert result.certificate.ok
    assert verify_induced(complete_graph(4), result, desk_params3).ok


def test_edgeless_graph(desk_params2):
    result = embed(empty_graph(5), 2, desk_params2)
    assert result.certificate.ok
    assert all(mask == 0 for v in result.gamma for _, mask, _ in v.blocks)
    assert len(set(result.gamma)) == 5  # injective


def test_embed_argument_errors(desk_params3):
    with pytest.raises(ArgumentError):
        embed(complete_graph(5), 3, desk_params3)  # max degree 4 > 3
    with pytest.raises(ArgumentError):
        embed(cycle_graph(4), 2, desk_params3)  # delta mismatch
    paper = make_gamma_params(2, 100, Profile.PAPER)
    with pytest.raises(InfeasibleBuildError):
        embed(cycle_graph(4), 2, paper)


def test_embed_capacity_check(desk_params2):
    big = path_graph(desk_params2.n + 1)
    with pytest.raises(ArgumentError):
        embed(big, 2, desk_params2)


def test_embed_deterministic(desk_params3):
    g = cycle_graph(6)
    a = embed(g, 3, desk_params3)
    b = embed(g, 3, desk_params3)
    assert a.gamma == b.gamma


def test_anchor_map_is_homomorphism(desk_params2):
    h = cycle_graph(8)
    dec = thin_decompose(h, 2)
    layout = layout_thin(dec.parts[0], 8)
    f1 = build_f1(dec.parts[0], layout, desk_params2)
    rm_pow = desk_params2.rm_pow
    for u, v in dec.parts[0].edges():
        assert rm_pow.contains(f1[u], f1[v])


def test_schedule_empty_for_tiny_instances(desk_params2):
    # below two blocks every constraint window is empty
    h = cycle_graph(6)
    dec = thin_decompose(h, 2)
    layout = layout_thin(dec.parts[0], 6)
    f1 = build_f1(dec.parts[0], layout, desk_params2)
    sched = compute_sigma_i(2, h, [f1], layout, desk_params2)
    assert sched.sigma == {}


def test_compute_sigma_collision_entries(desk_params2):
    # force an anchor collision far apart and check it lands in the schedule
    h = empty_graph(30)
    dec = thin_decompose(h, 2)
    layout = layout_thin(dec.parts[0], 30)
    order = layout.order()
    f1 = [0] * 30
    # distinct images except positions 0 and 25 share one
    row = [int(x) for x in desk_params2.rm_pow.row(0)[:40]]
    far = [v for v in range(30, 12180) if not desk_params2.rm_pow.contains(0, v)]
    for t in range(30):
        f1[order[t]] = far[t]
    f1[order[25]] = f1[order[0]]
    sched = compute_sigma_i(2, h, [tuple(f1)], layout, desk_params2)
    assert 0 in sched.at(25)


def test_bad_sets_empty_when_images_far(desk_params2):
    h = cycle_graph(8)
    dec = thin_decompose(h, 2)
    layout = layout_thin(dec.parts[0], 8)
    far: list[int] = []
    for v in range(12180):
        if all(not desk_params2.rm_pow.contains(v, w) for w in far):
            far.append(v)
        if len(far) == 8:
            break
    fmap = tuple(far)
    conflicts = compute_bad_sets(2, h, [fmap, fmap], layout, desk_params2)
    assert all(not c for c in conflicts.values())


def test_bad_sets_match_definition(desk_params3):
    rng = random.Random(3)
    h = Graph(6, [(0, 1), (1, 2), (3, 4)])
    result = embed(h, 3, desk_params3)
    layout = result.homs.layouts[1]
    coord = list(result.homs.coord[:2])
    conflicts = compute_bad_sets(2, h, coord, layout, desk_params3)
    rm_pow = desk_params3.rm_pow
    for a in range(6):
        for b in range(6):
            if a == b:
                continue
            member = (
                not h.has_edge(a, b)
                and abs(layout.phi[a] - layout.phi[b]) > 4
                and rm_pow.contains(coord[1][a], coord[1][b])
                and rm_pow.contains(coord[0][a], coord[0][b])
            )
            assert (b in conflicts[a]) == member


def test_shield_map_separates_conflicts(desk_params2):
    # synthetic conflict pair far apart in the layout
    h = empty_graph(20)
    dec = thin_decompose(h, 2)
    layout = layout_thin(dec.parts[0], 20)
    conflicts = {v: frozenset() for v in range(20)}
    a, b = layout.order()[0], layout.order()[15]
    conflicts[a] = frozenset({b})
    conflicts[b] = frozenset({a})
    r2 = build_ri(2, dec.parts[0], layout, conflicts, desk_params2)
    assert not desk_params2.rz_pow.contains(r2[a], r2[b])


def test_label_sets_cover_neighbors(desk_params2):
    h = cycle_graph(8)
    result = embed(h, 2, desk_params2)
    part = result.homs.decomposition.parts[1]
    masks = result.homs.label_sets[2]
    rm_pow = desk_params2.rm_pow
    f2 = result.homs.coord[1]
    for v in range(8):
        for w in part.neighbors(v):
            r = rm_pow.rank(f2[v], f2[w])
            assert r is not None and (masks[v] >> r) & 1


def test_verify_induced_detects_label_tamper(desk_params2):
    h = cycle_graph(8)
    result = embed(h, 2, desk_params2)
    # clear a used subset bit: one real edge must vanish
    v0 = result.gamma[0]
    x, mask, u = v0.blocks[0]
    assert mask != 0
    low = mask & -mask
    bad0 = GammaVertex(x1=v0.x1, blocks=((x, mask & ~low, u),))
    tampered = EmbeddingResult(
        gamma=(bad0,) + result.gamma[1:],
        certificate=result.certificate,
        homs=result.homs,
        params_digest=result.params_digest,
    )
    report = verify_induced(h, tampered, desk_params2)
    assert not report.ok
    assert any(v["expected"] and not v["got"] for v in report.violations)


def test_verify_induced_detects_shield_tamper(desk_params2):
    h = cycle_graph(8)
    result = embed(h, 2, desk_params2)
    # drag one shield coordinate next to another far vertex and grant the
    # subset bits both ways: a spurious edge appears
    p = desk_params2
    g0, g4 = result.gamma[0], result.gamma[4]
    if not p.rm_pow.contains(g0.x1, g4.x1):
        x0, m0, u0 = g0.blocks[0]
        x4, m4, u4 = g4.blocks[0]
        if p.rm_pow.contains(x0, x4):
            r04 = p.rm_pow.rank(x0, x4)
            r40 = p.rm_pow.rank(x4, x0)
            near = int(p.rz_pow.row(u4)[0])
            bad0 = GammaVertex(x1=g0.x1, blocks=((x0, m0 | (1 << r04), near),))
            bad4 = GammaVertex(x1=g4.x1, blocks=((x4, m4 | (1 << r40), u4),))
            gamma = list(result.gamma)
            gamma[0], gamma[4] = bad0, bad4
            tampered = EmbeddingResult(
                gamma=tuple(gamma), certificate=result.certificate,
                homs=result.homs, params_digest=result.params_digest)
            report = verify_induced(h, tampered, desk_params2)
            assert any(v["got"] and not v["expected"] for v in report.violations) \
                or report.ok is False


def test_retry_trail_on_failure(desk_params2):
    # an impossible host: delta-2 parameters with a path that cannot fail is
    # hard to fabricate, so force failure through a zero walk budget
    h = cycle_graph(8)
    policy = RetryPolicy(budget_scale=(0,))
    with pytest.raises(EmbeddingFailureError) as err:
        embed(h, 2, desk_params2, retry=policy)
    assert err.value.trail


def test_every_graph_on_five_vertices(desk_params3):
    from induniv.harness import FamilySpec, enumerate_family

    for g in enumerate_family(FamilySpec(5, 3)):
        result = embed(g, 3, desk_params3)
        assert verify_induced(g, result, desk_params3).ok
