import hashlib
import random
import time
from array import array

import pytest

from induniv import walks
from induniv.embedder import (
    CONFLICT_GAP,
    EmbeddingResult,
    _check_conflict_bound,
    build_f1,
    build_ri,
    check_edge_witnesses,
    check_oracle_agreement,
    compute_bad_sets,
    compute_sigma_i,
    embed,
    verify_induced,
)
from induniv.errors import ArgumentError, EmbeddingFailureError
from induniv.gamma import (
    GammaParams, GammaVertex, encode_label, gamma_adjacent, make_gamma_params)
from induniv.graphs import (
    Graph, circulant_graph, complete_graph, cycle_graph, disjoint_union, empty_graph,
    path_graph)
from induniv.thin import layout_thin, thin_decompose
from instances import random_bounded_graph
from oracles import layout_order


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


def test_twin_parts_are_laid_out_once(monkeypatch):
    # the even route's two copies of each 2-factor are one graph
    from induniv import embedder

    calls = []
    layout = embedder.layout_thin
    monkeypatch.setattr(embedder, "layout_thin",
                        lambda part: calls.append(part) or layout(part))
    h = circulant_graph(40, (1, 2))
    result = embed(h, 4, make_gamma_params(4, 40))
    parts = result.homs.decomposition.parts
    assert len(calls) == 2 and parts[0] is parts[1] and parts[2] is parts[3]
    assert result.homs.layouts[0] is result.homs.layouts[1]


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


def test_embed_capacity_check(desk_params2):
    big = path_graph(desk_params2.n + 1)
    with pytest.raises(ArgumentError):
        embed(big, 2, desk_params2)


def test_embed_deterministic(desk_params3):
    g = cycle_graph(6)
    a = embed(g, 3, desk_params3)
    b = embed(g, 3, desk_params3)
    assert a.gamma == b.gamma


# labels, their x and u coordinates alone, and their subset masks alone, as
# integers; the coordinates' digests are those of the labels made when ranks
# were positions in sorted BFS rows, so the change to ball-index ranks moved
# only the subset masks, and the masks' digests are those of the labels made
# when every subset field was 4 d^4 + 1 bits wide, so the change to fields of
# |B_4| bits moved only the labels, as did the change to a whole-byte layout
# with the coordinates first
@pytest.mark.parametrize("h, delta, digest, coord_digest, mask_digest", [
    (cycle_graph(50), 2, "52441d9aae5cdc08", "ccaeb8927a80ec83",
     "2ab75c4cb45b66c7"),
    (circulant_graph(40, (1, 2)), 4, "b4e15d9f78d3b858", "a1b3776151aca5fc",
     "1f8a1370952797d7"),
    (circulant_graph(20, (1, 10)), 3, "5e699dbc19c3b64e", "a3360637947beb6f",
     "e7a344ada5dc7055"),
    (path_graph(50), 2, "4f4b6074f2c42542", "11e3ae72d1264f5b",
     "fbb897c6724be453"),
    (disjoint_union(circulant_graph(24, (1, 2)), path_graph(16)), 4, "007d42d019dec5a6",
     "aed15f954f31f4f9", "4b217876021cacc5"),
    (disjoint_union(circulant_graph(20, (1, 10)), path_graph(12)), 3, "54659f60b9039e59",
     "4f6d33bab83e46e2", "ede39f05ba04178e"),
    (circulant_graph(24, (1, 2, 12)), 5, "27a5b5481f1b18a8", "e10397fba17d2c0b",
     "9774408290c25b5e"),
], ids=["c50", "circ40-1-2", "circ20-1-10", "p50", "circ24-1-2+p16", "circ20-1-10+p12",
        "circ24-1-2-12"])
def test_labels_match_their_golden_digest(h, delta, digest, coord_digest, mask_digest):
    # the first 16 hex digits of sha256 over the newline-joined labels, the
    # same under every PYTHONHASHSEED; each input has conflict pairs, so its
    # shield walks run with schedules
    params = make_gamma_params(delta, h.vertex_count)
    result = embed(h, delta, params)
    assert any(cs for conflicts in result.homs.conflicts.values() for cs in conflicts.values())
    text = "\n".join(encode_label(v, params) for v in result.gamma)
    assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest
    coords = "\n".join(" ".join(map(str, [v.x1] + [c for x, _, u in v.blocks for c in (x, u)]))
                       for v in result.gamma)
    assert hashlib.sha256(coords.encode()).hexdigest()[:16] == coord_digest
    masks = "\n".join(" ".join(str(mask) for _, mask, _ in v.blocks) for v in result.gamma)
    assert hashlib.sha256(masks.encode()).hexdigest()[:16] == mask_digest


def test_anchor_map_is_homomorphism(desk_params2):
    h = cycle_graph(8)
    dec = thin_decompose(h, 2)
    layout = layout_thin(dec.parts[0])
    f1 = build_f1(dec.parts[0], layout, desk_params2)
    rm_pow = desk_params2.rm_pow
    for u, v in dec.parts[0].edges():
        assert rm_pow.contains(f1[u], f1[v])


def test_schedule_empty_for_tiny_instances(desk_params2):
    # below two blocks every constraint window is empty
    h = cycle_graph(6)
    dec = thin_decompose(h, 2)
    layout = layout_thin(dec.parts[0])
    f1 = build_f1(dec.parts[0], layout, desk_params2)
    sched = compute_sigma_i(2, h, [f1], layout, desk_params2)
    assert sched.sigma == {}


def test_compute_sigma_collision_entries(desk_params2):
    # force an anchor collision far apart and check it lands in the schedule
    h = empty_graph(30)
    dec = thin_decompose(h, 2)
    layout = layout_thin(dec.parts[0])
    order = layout_order(layout)
    f1 = [0] * 30
    # distinct images except positions 0 and 25 share one
    row = [int(x) for x in desk_params2.rm_pow.row(0)[:40]]
    far = [v for v in range(30, 12180) if not desk_params2.rm_pow.contains(0, v)]
    for t in range(30):
        f1[order[t]] = far[t]
    f1[order[25]] = f1[order[0]]
    sched = compute_sigma_i(2, h, [tuple(f1)], layout, desk_params2)
    assert 0 in sched.sigma[25]


def test_bad_sets_empty_when_images_far(desk_params2):
    h = cycle_graph(8)
    dec = thin_decompose(h, 2)
    layout = layout_thin(dec.parts[0])
    far: list[int] = []
    for v in range(12180):
        if all(not desk_params2.rm_pow.contains(v, w) for w in far):
            far.append(v)
        if len(far) == 8:
            break
    fmap = tuple(far)
    conflicts = compute_bad_sets(2, h, [fmap, fmap], layout, desk_params2)
    assert conflicts == {}


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
                and abs(layout[a] - layout[b]) > 4
                and rm_pow.contains(coord[1][a], coord[1][b])
                and rm_pow.contains(coord[0][a], coord[0][b])
            )
            assert (b in conflicts.get(a, ())) == member


def test_shield_map_separates_conflicts(desk_params2):
    # synthetic conflict pair far apart in the layout
    h = empty_graph(20)
    dec = thin_decompose(h, 2)
    layout = layout_thin(dec.parts[0])
    a, b = layout.index(0), layout.index(15)  # the vertices at slots 0 and 15
    conflicts = {a: array("i", [b]), b: array("i", [a])}
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


def test_retry_trail_on_failure(monkeypatch, desk_params2):
    # an impossible host: delta-2 parameters with a path that cannot fail is
    # hard to fabricate, so force failure through a zero walk budget
    monkeypatch.setattr(walks, "SEARCH_BUDGET", 0)
    with pytest.raises(EmbeddingFailureError) as err:
        embed(cycle_graph(8), 2, desk_params2)
    assert err.value.trail


def test_every_graph_on_five_vertices(desk_params3):
    from induniv.harness import FamilySpec, enumerate_family

    for g in enumerate_family(FamilySpec(5, 3)):
        result = embed(g, 3, desk_params3)
        assert verify_induced(g, result, desk_params3).ok


def _from_labels(gamma):
    from induniv.embedder import EmbedCertificate

    return EmbeddingResult(gamma=tuple(gamma), certificate=EmbedCertificate(),
                           homs=None, params_digest="")


def test_verify_induced_rejects_a_label_count_mismatch(desk_params2):
    c6 = cycle_graph(6)
    result = embed(c6, 2, desk_params2)
    # six labels of C6 against the five vertices of P5, and five against C6
    with pytest.raises(ArgumentError):
        verify_induced(path_graph(5), result, desk_params2)
    with pytest.raises(ArgumentError):
        verify_induced(c6, _from_labels(result.gamma[:5]), desk_params2)


def test_edge_witnesses_need_the_decomposition(desk_params2):
    c6 = cycle_graph(6)
    result = embed(c6, 2, desk_params2)
    with pytest.raises(ArgumentError, match="decomposition"):
        check_edge_witnesses(c6, _from_labels(result.gamma), desk_params2)


def test_overflow_moves_on_without_a_larger_budget(monkeypatch):
    # a zero schedule cap overflows at the first scheduled entry, whatever the
    # walk budget, and the one attempt records it
    monkeypatch.setattr(GammaParams, "sigma_cap_for", lambda self, n: 0)
    tight = make_gamma_params(2, 40)
    with pytest.raises(EmbeddingFailureError) as err:
        embed(cycle_graph(40), 2, tight)
    assert [t["error"]["type"] for t in err.value.trail] == ["ScheduleOverflowError"]


def test_conflict_sets_pass_their_own_bound():
    # the conflict sets and their check read one layout gap; on this input
    # the closest conflict pair sits just past it
    h = circulant_graph(40, (1, 2))
    params = make_gamma_params(4, h.vertex_count)
    homs = embed(h, 4, params).homs
    gaps = []
    for i, layout in enumerate(homs.layouts[1:], start=2):
        conflicts = compute_bad_sets(i, h, list(homs.coord[:i]), layout, params)
        assert conflicts == homs.conflicts[i]
        assert _check_conflict_bound(conflicts, layout, params) == []
        gaps += [abs(layout[v] - layout[w]) for v, cs in conflicts.items() for w in cs]
    assert min(gaps) == CONFLICT_GAP + 1


def test_embed_asks_the_oracle_about_every_pair(monkeypatch, desk_params2):
    from induniv import embedder

    c6 = cycle_graph(6)
    calls = []
    scalar = embedder.gamma_adjacent_witness
    monkeypatch.setattr(embedder, "gamma_adjacent_witness",
                        lambda *args: calls.append(1) or scalar(*args))
    result = embed(c6, 2, desk_params2)
    oracle = [r for r in result.certificate.records if r.stage == "oracle"]
    assert len(oracle) == 1 and oracle[0].ok
    # one call per pair; the witness check reads the rule's block test instead
    assert len(calls) == 6 * 5 // 2


def test_the_oracle_pass_asks_countable_queries(monkeypatch, desk_params2):
    # a benchmark counts these calls by wrapping them where this test does:
    # the closeness queries at class level, the scalar oracle in the embedder
    from induniv import embedder, lps

    c6 = cycle_graph(6)
    result = embed(c6, 2, desk_params2)
    calls = {"witness": 0, "close": 0}

    def counted(fn, key):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    for name in ("contains", "rank"):
        monkeypatch.setattr(lps.PowerNeighborhoods, name,
                            counted(getattr(lps.PowerNeighborhoods, name), "close"))
    monkeypatch.setattr(embedder, "gamma_adjacent_witness",
                        counted(embedder.gamma_adjacent_witness, "witness"))
    assert check_oracle_agreement(c6, result, desk_params2) == []
    assert calls["witness"] == 6 * 5 // 2
    assert calls["close"] >= 6 * 5 // 2


def test_oracle_agreement_names_the_disagreeing_pair(desk_params2):
    c6 = cycle_graph(6)
    result = embed(c6, 2, desk_params2)
    assert check_oracle_agreement(c6, result, desk_params2) == []
    # the labels of C6 read against P6, which lacks the edge (0, 5)
    assert check_oracle_agreement(path_graph(6), result, desk_params2) == [
        "oracle says pair (0, 5) adjacent=True"]
    # and against C6 with the chord (0, 3), which the labels do not realize
    chorded = Graph(6, list(c6.edges()) + [(0, 3)])
    assert check_oracle_agreement(chorded, result, desk_params2) == [
        "oracle says pair (0, 3) adjacent=False"]
    with pytest.raises(ArgumentError):
        check_oracle_agreement(path_graph(5), result, desk_params2)


# -- inputs past the desk sizes --------------------------------------------------


def test_anchor_walk_spreads_over_the_expander():
    # a walk that circles a few vertices of R_m overflows the schedules built from it
    n = 200
    params = make_gamma_params(2, n)
    part = thin_decompose(cycle_graph(n), 2).parts[0]
    f1 = build_f1(part, layout_thin(part), params)
    assert len(set(f1)) >= n // 2


def _random_two_regular(n: int, rng: random.Random) -> Graph:
    """Disjoint cycles of random lengths, at least 3 each, on shuffled ids."""
    ids = list(range(n))
    rng.shuffle(ids)
    edges = []
    start = 0
    while start < n:
        size = rng.randint(3, 60)
        if n - start - size < 3:
            size = n - start
        cyc = ids[start:start + size]
        edges += [(cyc[i], cyc[(i + 1) % size]) for i in range(size)]
        start += size
    return Graph(n, edges)


# seconds each input may take; one embed takes 0.2-1.5 s on a 2-vCPU VM
SCALE_BUDGET_S = 20.0


@pytest.mark.parametrize("delta, h", [
    (2, cycle_graph(400)),
    (2, path_graph(400)),
    (2, _random_two_regular(400, random.Random(3))),
    (4, circulant_graph(128, (1, 2))),
    (4, circulant_graph(128, (1, 7))),
    (4, random_bounded_graph(random.Random(4), 128, 4)),
], ids=["c400", "p400", "2reg400", "circ128-1-2", "circ128-1-7", "rand128-d4"])
def test_spread_walks_embed_past_the_old_frontier(delta, h):
    params = make_gamma_params(delta, h.vertex_count)
    start = time.perf_counter()
    result = embed(h, delta, params)
    assert result.certificate.ok and verify_induced(h, result, params).ok
    assert time.perf_counter() - start < SCALE_BUDGET_S
