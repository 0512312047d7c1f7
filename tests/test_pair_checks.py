"""The batched pair checks against the quadratic references in oracles.py.

Every output is compared whole: induced reports (violations, their order and
witnesses), conflict sets and schedules row for row, check messages, and the
payload of a schedule overflow.
"""

import random
import tracemalloc
from array import array
from dataclasses import replace

import numpy as np
import pytest

from induniv import embedder
from induniv.embedder import (
    EmbedCertificate,
    EmbeddingResult,
    _check_anchor_distinct,
    _check_window_distinct,
    build_ri,
    check_edge_witnesses,
    compute_bad_sets,
    compute_sigma_i,
    embed,
    verify_induced,
)
from induniv.errors import ArgumentError, ScheduleOverflowError
from induniv.gamma import (
    GammaParams, GammaVertex, PowerNeighborhoods, adjacent_pairs, gamma_adjacent_witness,
    make_gamma_params)
from induniv.graphs import Graph, circulant_graph, cycle_graph, disjoint_union, path_graph
from induniv.harness import FamilySpec, enumerate_family
from induniv.walks import prefix_limit
from instances import bench_desk_set
from oracles import (
    oracle_anchor_distinct,
    oracle_bad_sets,
    oracle_edge_witnesses,
    oracle_sigma_i,
    oracle_verify_induced,
    oracle_window_distinct,
)


def _outcome(fn, *args):
    """The value, or the type, message and payload of the error raised."""
    try:
        return ("ok", fn(*args))
    except ScheduleOverflowError as exc:
        return ("error", type(exc).__name__, str(exc), exc.payload)


def _as_sets(rows) -> dict[int, set[int]]:
    """Grouped rows as the references' sets, once each row is shown to be a
    non-empty, strictly increasing ``array('i')`` of 4-byte entries."""
    for row in rows.values():
        assert type(row) is array and row.typecode == "i" and row.itemsize == 4
        assert row and all(a < b for a, b in zip(row, row[1:]))
    return {key: set(row) for key, row in rows.items()}


def _schedule_sets(i, h, coord_maps, layout, params) -> dict[int, set[int]]:
    schedule = compute_sigma_i(i, h, coord_maps, layout, params)
    assert schedule.n == h.vertex_count
    return _as_sets(schedule.sigma)


def _assert_checks_agree(h, coord, layouts, params) -> set[str]:
    """Compare every check at every coordinate; name the checks that found
    something, so a caller can tell its inputs reach them."""
    found = set()
    for i in range(2, len(coord) + 1):
        layout = layouts[i - 1]
        sigma = _outcome(_schedule_sets, i, h, coord[:i - 1], layout, params)
        assert sigma == _outcome(oracle_sigma_i, i, h, coord[:i - 1], layout, params)
        conflicts = _as_sets(compute_bad_sets(i, h, coord[:i], layout, params))
        assert conflicts == oracle_bad_sets(i, h, coord[:i], layout, params)
        anchor = _check_anchor_distinct(coord[0], coord[i - 1])
        assert anchor == oracle_anchor_distinct(coord[0], coord[i - 1])
        window = _check_window_distinct(layout, coord[i - 1])
        assert window == oracle_window_distinct(layout, coord[i - 1])
        found.update(name for name, hit in (
            ("overflow", sigma[0] == "error"), ("sigma", sigma[0] == "ok" and sigma[1]),
            ("conflict", conflicts), ("anchor", anchor), ("window", window)) if hit)
    return found


def _rebuilt(gamma):
    return EmbeddingResult(gamma=tuple(gamma), certificate=EmbedCertificate(),
                           homs=None, params_digest="")


@pytest.mark.parametrize("delta", [2, 3])
def test_every_small_graph_checks_like_the_reference(delta, desk_params2, desk_params3):
    params = {2: desk_params2, 3: desk_params3}[delta]
    count = 0
    for n in range(1, 8):
        for h in enumerate_family(FamilySpec(n, delta)):
            result = embed(h, delta, params)
            assert verify_induced(h, result, params) == oracle_verify_induced(h, result, params)
            assert check_edge_witnesses(h, result, params) == oracle_edge_witnesses(h, result, params)
            homs = result.homs
            _assert_checks_agree(h, list(homs.coord), homs.layouts, params)
            count += 1
    assert count > 50


@pytest.mark.parametrize("delta", [2, 3, 4])
def test_desk_inputs_group_like_the_reference(delta):
    # the schedules and conflict sets of the benchmark's desk inputs, each
    # row against the scalar all-pairs reference
    found = set()
    for inp in bench_desk_set(delta, seed=0):
        h = Graph(inp["n"], inp["edges"])
        params = make_gamma_params(delta, h.vertex_count)
        homs = embed(h, delta, params).homs
        found |= _assert_checks_agree(h, list(homs.coord), homs.layouts, params)
    assert {"sigma", "conflict"} <= found


def _two_call_shield_rows(conflicts, phi, q):
    """The shield's walk schedule and late rows as two groupings: the due
    pairs, then the rest."""
    slots = np.asarray(phi, dtype=np.int64)
    pairs = [(v, w) for v, row in conflicts.items() for w in row]
    ta = slots[np.array([v for v, _ in pairs], dtype=np.int64)]
    tb = slots[np.array([w for _, w in pairs], dtype=np.int64)]
    later, earlier = np.maximum(ta, tb), np.minimum(ta, tb)
    due = earlier <= prefix_limit(later, q)
    n = len(phi)
    return (embedder._rows(later[due], earlier[due], n),
            embedder._rows(later[~due], earlier[~due], n))


def _assert_shield_split(conflicts, phi, q) -> tuple[int, int]:
    """Compare the shield's one-grouping split with the two groupings; the
    counts of schedule and late rows."""
    got = embedder._shield_rows(conflicts, phi, q)
    want = _two_call_shield_rows(conflicts, phi, q)
    for rows, ref in zip(got, want):
        assert list(rows.items()) == list(ref.items())
        assert _as_sets(rows) == _as_sets(ref)
    return len(got[0]), len(got[1])


@pytest.mark.parametrize("delta", [2, 3, 4])
def test_desk_shield_rows_split_like_two_groupings(delta):
    # one grouping cut at each row's prefix limit gives the schedule and
    # the late rows that grouping the due and the other pairs apart gives;
    # every conflict pair of these small inputs is late
    late = 0
    for inp in bench_desk_set(delta, seed=0):
        h = Graph(inp["n"], inp["edges"])
        params = make_gamma_params(delta, h.vertex_count)
        homs = embed(h, delta, params).homs
        for i, conflicts in homs.conflicts.items():
            late += _assert_shield_split(conflicts, homs.layouts[i - 1], params.q_z)[1]
    assert late


def test_fuzzed_shield_rows_split_like_two_groupings():
    # random conflict pairs over a long layout fill both halves, and rows
    # that fall wholly in one half
    rng = random.Random(35)
    found = [0, 0]
    for n in (1, 2, 30, 200):
        for _ in range(20):
            sets: dict[int, set[int]] = {}
            for _ in range(rng.randrange(3 * n)):
                a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
                if a != b:
                    sets.setdefault(a, set()).add(b)
                    sets.setdefault(b, set()).add(a)
            conflicts = {v: array("i", sorted(ws)) for v, ws in sets.items()}
            for q in (2, 5):
                counts = _assert_shield_split(conflicts, _random_layout(rng, n), q)
                found = [f + c for f, c in zip(found, counts)]
    assert all(found)


def test_a_schedule_overflow_names_its_first_position(monkeypatch, desk_params3):
    # fuzzed maps under a cap of 1: the payload names the smallest position
    # over the cap, its size and the cap, as the reference's does
    monkeypatch.setattr(GammaParams, "sigma_cap_for", lambda self, n: 1)
    rng = random.Random(7)
    n = 60
    centers = rng.sample(range(desk_params3.ell_m), 2)
    coord = [_ball_map(rng, desk_params3.rm_pow, centers, n) for _ in range(2)]
    layout = _random_layout(rng, n)
    h = _random_graph(rng, n, n)
    got = _outcome(compute_sigma_i, 3, h, coord, layout, desk_params3)
    assert got == _outcome(oracle_sigma_i, 3, h, coord, layout, desk_params3)
    assert got[0] == "error" and sorted(got[3]) == ["cap", "position", "size"]
    assert got[3]["cap"] == 1 and got[3]["size"] > 1


def test_a_shield_overflow_names_its_first_position(monkeypatch, desk_params2):
    # slots 30 and 40 each conflict with three slots a full block behind
    # them, slot 35 with two; under a cap of 2 the overflow names slot 30,
    # though the vertex at slot 40 comes first in vertex order
    monkeypatch.setattr(GammaParams, "sigma_cap_for", lambda self, n: 2)
    n = 50
    layout = tuple(range(n - 1, -1, -1))  # vertex v sits at slot n - 1 - v
    sets: dict[int, set[int]] = {}
    for ta, tb in [(30, 0), (30, 5), (30, 10), (35, 1), (35, 2), (40, 3), (40, 4), (40, 6)]:
        a, b = n - 1 - ta, n - 1 - tb
        sets.setdefault(a, set()).add(b)
        sets.setdefault(b, set()).add(a)
    conflicts = {v: array("i", sorted(s)) for v, s in sets.items()}
    with pytest.raises(ScheduleOverflowError) as err:
        build_ri(2, Graph(n), layout, conflicts, desk_params2)
    assert err.value.payload == {"position": 30, "size": 3, "cap": 2}
    assert str(err.value) == "shield schedule at 30 has 3 entries, cap 2"


def _ball_map(rng, pw, centers, n):
    """Images drawn inside the radius-4 balls of a few centers, with some
    positions copying an earlier image."""
    out = []
    for _ in range(n):
        roll = rng.random()
        if out and roll < 0.1:
            out.append(rng.choice(out))
        elif roll < 0.2:
            out.append(rng.choice(centers))
        else:
            out.append(int(rng.choice(pw.row(rng.choice(centers)))))
    return tuple(out)


def _random_layout(rng, n):
    phi = list(range(n))
    rng.shuffle(phi)
    return tuple(phi)


def _random_graph(rng, n, m):
    edges = set()
    while n > 1 and len(edges) < m:
        a, b = rng.sample(range(n), 2)
        edges.add((min(a, b), max(a, b)))
    return Graph(n, edges)


def test_fuzzed_maps_check_like_the_reference(desk_params3):
    params = desk_params3
    rng = random.Random(2024)
    found = set()
    for _ in range(24):
        n = rng.choice([12, 30, 60, 120, 200])
        centers = rng.sample(range(params.ell_m), rng.randint(1, 3))
        coord = [_ball_map(rng, params.rm_pow, centers, n) for _ in range(3)]
        layouts = tuple(_random_layout(rng, n) for _ in range(3))
        h = _random_graph(rng, n, rng.randint(0, 2 * n))
        found |= _assert_checks_agree(h, coord, layouts, params)
    assert found == {"overflow", "sigma", "conflict", "anchor", "window"}


def _fuzzed_gamma(rng, params, n, shield_balls=2):
    """Vertices whose x-coordinates crowd a few balls, with random subset bits
    on close pairs and shield images in a few balls of R_z."""
    rm, rz = params.rm_pow, params.rz_pow
    centers = rng.sample(range(params.ell_m), 3)
    xs = [_ball_map(rng, rm, centers, n) for _ in range(params.delta)]
    shield_centers = rng.sample(range(params.ell_z), shield_balls)
    gamma = []
    for v in range(n):
        blocks = []
        for i in range(2, params.delta + 1):
            mask = 0
            for w in rng.sample(range(n), min(n, 12)):
                r = rm.rank(xs[i - 1][v], xs[i - 1][w])
                if r is not None and rng.random() < 0.7:
                    mask |= 1 << r
            u = _ball_map(rng, rz, shield_centers, 1)[0]
            blocks.append((xs[i - 1][v], mask, u))
        gamma.append(GammaVertex(x1=xs[0][v], blocks=tuple(blocks)))
    return gamma


def test_fuzzed_labels_verify_like_the_reference(desk_params2, desk_params3):
    rng = random.Random(77)
    witnesses = set()
    missing = 0
    desk_params4 = make_gamma_params(4, 30)
    for params, n, balls in ((desk_params3, 40, 2), (desk_params2, 90, 2),
                             (desk_params3, 150, 2), (desk_params3, 60, 1),
                             (desk_params4, 120, 1)):
        gamma = _fuzzed_gamma(rng, params, n, balls)
        h = _random_graph(rng, n, n)
        report = verify_induced(h, _rebuilt(gamma), params)
        assert report == oracle_verify_induced(h, _rebuilt(gamma), params)
        assert report.pairs_checked == n * (n - 1) // 2
        witnesses |= {tuple(v["witness"]) for v in report.violations if v["got"]}
        missing += sum(v["expected"] for v in report.violations)
    # spurious edges first witnessed at coordinate 2, 3 and 4, after
    # coordinates 1 and 2
    assert {(1, 2), (2, 3), (1, 3), (2, 4)} <= witnesses and missing


@pytest.mark.parametrize("bad", [
    lambda v, p: GammaVertex(v.x1, v.blocks + v.blocks),            # wrong Delta
    lambda v, p: GammaVertex(p.ell_m, v.blocks),                    # x out of range
    lambda v, p: GammaVertex(v.x1, ((v.blocks[0][0], 1 << p.subset_bits, v.blocks[0][2]),)),
])
def test_invalid_labels_raise_like_the_reference(bad, desk_params2):
    h = cycle_graph(8)
    result = embed(h, 2, desk_params2)
    gamma = list(result.gamma)
    gamma[5] = bad(gamma[5], desk_params2)
    errors = []
    for check in (verify_induced, oracle_verify_induced):
        with pytest.raises(ArgumentError) as err:
            check(h, _rebuilt(gamma), desk_params2)
        errors.append(str(err.value))
    assert errors[0] == errors[1]


def _replaced(result, v, vertex):
    gamma = list(result.gamma)
    gamma[v] = vertex
    return _rebuilt(gamma)


def test_tampered_embeddings_verify_like_the_reference(desk_params3):
    params = desk_params3
    h = Graph(14, [(i, (i + 1) % 12) for i in range(12)] + [(0, 12), (6, 13), (3, 9)])
    result = embed(h, 3, params)
    assert verify_induced(h, result, params).ok
    rm, rz = params.rm_pow, params.rz_pow
    gamma = result.gamma
    breaking, other = [], []
    # flipped subset bits: a used bit cleared, a free bit set; and with every
    # bit of a vertex cleared, its edges are lost
    v, g = next((v, g) for v, g in enumerate(gamma) if g.blocks[0][1])
    x, mask, u = g.blocks[0]
    low = mask & -mask
    other.append(_replaced(result, v, GammaVertex(g.x1, ((x, mask ^ low, u),) + g.blocks[1:])))
    other.append(_replaced(result, v, GammaVertex(g.x1, ((x, mask | low << 1, u),) + g.blocks[1:])))
    breaking.append(_replaced(result, v, GammaVertex(
        g.x1, tuple((x, 0, u) for x, _, u in g.blocks))))
    # non-adjacent pairs made adjacent: grant the subset bits both ways at the
    # given blocks and move a's shield image next to b's there; one pair close
    # at coordinates 1 and 3 only, one close at all three (witnessed by (1, 3)
    # when granted at block 3 alone, adjacent twice over when granted at both)
    def granted(a, b, blocks):
        out = list(gamma)
        ga, gb = list(gamma[a].blocks), list(gamma[b].blocks)
        for k in blocks:
            (xa, ma, _), (xb, mb, ub) = ga[k], gb[k]
            ga[k] = (xa, ma | 1 << rm.rank(xa, xb), int(rz.row(ub)[0]))
            gb[k] = (xb, mb | 1 << rm.rank(xb, xa), ub)
        out[a] = GammaVertex(gamma[a].x1, tuple(ga))
        out[b] = GammaVertex(gamma[b].x1, tuple(gb))
        return _rebuilt(out)

    def close_at(a, b):
        return tuple(rm.contains(gamma[a].coords[k], gamma[b].coords[k]) for k in range(3))

    non_edges = [(a, b) for a in range(14) for b in range(a + 1, 14) if not h.has_edge(a, b)]
    a, b = next(p for p in non_edges if close_at(*p) == (True, False, True))
    breaking.append(granted(a, b, [1]))
    a, b = next(p for p in non_edges if close_at(*p) == (True, True, True))
    breaking.append(granted(a, b, [1]))
    breaking.append(granted(a, b, [0, 1]))
    # swapped x-coordinates of two vertices, at coordinate 2 and at the
    # anchor: a and b are the first pair whose coordinate-2 swap loses an
    # edge (a, w) witnessed at coordinate 2
    def swapped_at_2(a, b):
        (xa, ma, ua), (xb, mb, ub) = gamma[a].blocks[0], gamma[b].blocks[0]
        out = list(gamma)
        out[a] = GammaVertex(gamma[a].x1, ((xb, ma, ua),) + gamma[a].blocks[1:])
        out[b] = GammaVertex(gamma[b].x1, ((xa, mb, ub),) + gamma[b].blocks[1:])
        return out

    a, b = next(
        (a, b) for u, v in h.edges() for a, w in ((u, v), (v, u))
        if 2 in gamma_adjacent_witness(gamma[a], gamma[w], params)[1]
        for b in range(14) if b not in (a, w)
        and not gamma_adjacent_witness(swapped_at_2(a, b)[a], gamma[w], params)[0])
    breaking.append(_rebuilt(swapped_at_2(a, b)))
    swapped = list(gamma)
    swapped[a], swapped[b] = GammaVertex(gamma[b].x1, gamma[a].blocks), \
        GammaVertex(gamma[a].x1, gamma[b].blocks)
    other.append(_rebuilt(swapped))
    for k, tampered in enumerate(breaking + other):
        report = verify_induced(h, tampered, params)
        assert report == oracle_verify_induced(h, tampered, params)
        assert not report.ok or k >= len(breaking), k


def test_tampered_edge_witnesses_check_like_the_reference(desk_params3):
    # the decomposition is kept, so each edge is checked at its own parts
    params = desk_params3
    h = Graph(14, [(i, (i + 1) % 12) for i in range(12)] + [(0, 12), (6, 13), (3, 9)])
    result = embed(h, 3, params)
    rm, rz = params.rm_pow, params.rz_pow
    gamma = result.gamma

    def far(pw, size, others):
        return next(z for z in range(size) if z not in others
                    and not any(pw.contains(z, o) for o in others))

    def tampered(v, x1=None, block=lambda k, blk: blk):
        out = list(gamma)
        out[v] = GammaVertex(gamma[v].x1 if x1 is None else x1,
                             tuple(block(k, blk) for k, blk in enumerate(gamma[v].blocks)))
        return replace(result, gamma=tuple(out))

    def nbr_x(v, i):
        return [gamma[w].coords[i - 1] for w in h.neighbors(v)]

    def nbr_u(v, k):
        return [gamma[w].blocks[k][2] for w in h.neighbors(v)]

    cases = []
    for v in (0, 3, 6):
        cases.append(tampered(v, block=lambda k, blk: (blk[0], 0, blk[2])))
        cases.append(tampered(v, block=lambda k, blk: (
            blk[0], blk[1], far(rz, params.ell_z, nbr_u(v, k)))))
        cases.append(tampered(v, x1=far(rm, params.ell_m, nbr_x(v, 1)), block=lambda k, blk: (
            far(rm, params.ell_m, nbr_x(v, k + 2)), blk[1], blk[2])))
    messages = []
    for case in cases:
        got = check_edge_witnesses(h, case, params)
        assert got == oracle_edge_witnesses(h, case, params)
        assert verify_induced(h, case, params) == oracle_verify_induced(h, case, params)
        messages += got
    for kind in ("coordinates not close", "subset membership missing", "shield pair not close"):
        assert any(kind in m for m in messages), kind


def test_verify_makes_no_per_pair_oracle_calls(monkeypatch):
    params = make_gamma_params(2, 40)
    h = cycle_graph(40)
    result = embed(h, 2, params)
    calls = []
    scalar = embedder.gamma_adjacent_witness
    monkeypatch.setattr(embedder, "gamma_adjacent_witness",
                        lambda *args: calls.append(1) or scalar(*args))
    report = verify_induced(h, result, params)
    assert report.ok and report.pairs_checked == 40 * 39 // 2
    assert len(calls) < h.vertex_count


def _walk_labelling(params, n: int) -> list[GammaVertex]:
    """A Delta=2 labelling of an n-vertex path by two random walks in R_m,
    with empty masks."""
    rng = random.Random(9)
    walks = []
    for start in (0, params.ell_m // 2):
        walk = [start]
        for _ in range(n - 1):
            walk.append(rng.choice(params.r_m.neighbors(walk[-1])))
        walks.append(walk)
    return [GammaVertex(walks[0][v], ((walks[1][v], 0, rng.randrange(params.ell_z)),))
            for v in range(n)]


def test_verify_memory_stays_below_quadratic(desk_params2):
    # the desk host's metric is group arithmetic and holds no rows, so the
    # peak is the check's own memory
    params = desk_params2
    n = 2048
    gamma = _walk_labelling(params, n)
    h = path_graph(n)
    tracemalloc.start()
    try:
        report = verify_induced(h, _rebuilt(gamma), params)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.pairs_checked == n * (n - 1) // 2
    assert len(report.violations) == n - 1  # every mask is empty: no edge realized
    assert peak < 8 * n * n


def test_desk_metric_holds_no_rows():
    # neither an embed (walks, schedules, conflict sets, the induced check)
    # nor a 2048-vertex verify leaves a per-vertex row behind
    metrics = []
    for h, delta in ((cycle_graph(100), 2), (circulant_graph(40, (1, 2)), 4)):
        params = make_gamma_params(delta, h.vertex_count)
        assert verify_induced(h, embed(h, delta, params), params).ok
        metrics += [params.rm_pow, params.rz_pow]
    n = 2048
    params = make_gamma_params(2, n)
    verify_induced(path_graph(n), _rebuilt(_walk_labelling(params, n)), params)
    for pw in metrics + [params.rm_pow, params.rz_pow]:
        assert type(pw) is PowerNeighborhoods


def _embed_keeping_tables(monkeypatch, h, delta, params):
    """Embed h; return the result and the CloseSets its induced check read."""
    seen = []
    verify = embedder.verify_induced
    monkeypatch.setattr(embedder, "verify_induced",
                        lambda *args, close=None: seen.append(close) or verify(*args, close=close))
    result = embed(h, delta, params)
    monkeypatch.setattr(embedder, "verify_induced", verify)
    assert len(seen) == 1 and isinstance(seen[0], embedder.CloseSets)
    return result, seen[0]


@pytest.mark.parametrize("delta, h", [
    (2, disjoint_union(cycle_graph(24), path_graph(16))),
    (3, disjoint_union(circulant_graph(20, (1, 10)), path_graph(12))),
    (4, circulant_graph(40, (1, 2))),
], ids=["d2", "d3", "d4"])
def test_induced_check_reads_the_attempt_tables(monkeypatch, delta, h):
    params = make_gamma_params(delta, h.vertex_count)
    result, close = _embed_keeping_tables(monkeypatch, h, delta, params)
    scans = []
    close_pairs = type(params.rm_pow).close_pairs
    monkeypatch.setattr(type(params.rm_pow), "close_pairs",
                        lambda self, xs: scans.append(1) or close_pairs(self, xs))
    shared = adjacent_pairs(result.gamma, params, close=close)
    assert not scans  # every coordinate was scanned while its map was built
    fresh = adjacent_pairs(result.gamma, params)
    assert len(scans) == delta
    assert shared == fresh and len(fresh) == h.edge_count


def test_a_moved_coordinate_misses_the_attempt_tables(monkeypatch, desk_params3):
    params = desk_params3
    h = Graph(14, [(i, (i + 1) % 12) for i in range(12)] + [(0, 12), (6, 13), (3, 9)])
    result, close = _embed_keeping_tables(monkeypatch, h, 3, params)
    gamma, rm = result.gamma, params.rm_pow
    for v in (0, 3, 6):
        # x_2 of v moves away from the x_2 of every neighbour
        nbrs = [gamma[w].coords[1] for w in h.neighbors(v)]
        x2 = next(z for z in range(params.ell_m)
                  if z not in nbrs and not any(rm.contains(z, o) for o in nbrs))
        (_, mask, u), *rest = gamma[v].blocks
        tampered = _replaced(result, v, GammaVertex(gamma[v].x1, ((x2, mask, u), *rest)))
        report = verify_induced(h, tampered, params, close=close)
        assert report == verify_induced(h, tampered, params)
        assert report == oracle_verify_induced(h, tampered, params)
        assert not report.ok


def test_close_set_union_is_sorted_and_distinct(desk_params2):
    rng = random.Random(4)
    n = 40
    close = embedder.CloseSets(desk_params2.rm_pow, n)
    near = desk_params2.rm_pow.row(0)[:30].tolist()  # a few vertices, many close pairs
    maps = [[rng.choice(near) for _ in range(n)] for _ in range(3)]
    for chosen in ([], maps[:1], maps, maps + maps):
        keys = close.union(chosen)
        assert keys.dtype == np.int64
        assert keys.tolist() == sorted(set().union(*(close.of(m).tolist() for m in chosen)))
