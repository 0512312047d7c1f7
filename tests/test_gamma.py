import math
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from induniv.errors import (
    ArgumentError, CertificationError, CodecError, ConstructionIntegrityError)
from induniv.gamma import (
    DeskConfig,
    GammaVertex,
    PAPER_D,
    PAPER_Z,
    PowerNeighborhoods,
    ScaledCount,
    adjacency_from_labels,
    adjacent_pairs,
    decode_label,
    encode_label,
    gamma_adjacent,
    gamma_adjacent_witness,
    gamma_vertex_count,
    make_gamma_params,
    paper_sizes,
    shared_power_neighborhoods,
    validate_vertex,
)
from induniv import gamma, lps
from induniv.embedder import embed
from induniv.graphs import BfsNeighborhoods, Graph, circulant_graph, cycle_graph, path_graph
from induniv.lps import (
    LpsParams, build_lps_graph, cached_lps_graph, certify_expander, psl2)
from instances import bench_desk_set, random_close_gamma_pair, random_gamma_vertex
from oracles import (
    ReferenceParsedLabel,
    _reference_widths,
    oracle_ball_rows,
    oracle_close_pairs,
    oracle_distances,
    oracle_gamma_adjacent_witness,
    oracle_power,
    reference_decode_label,
    reference_encode_label,
)


# -- power neighborhoods ---------------------------------------------------------


@pytest.mark.parametrize("g", [cycle_graph(12), path_graph(9),
                               Graph(7, [(0, 1), (2, 3), (3, 4), (4, 2)]),
                               circulant_graph(70, [1, 5])])
def test_power_neighborhoods_match_oracle(g):
    pw = BfsNeighborhoods(g)
    expected = oracle_power(g, 4)
    for u in range(g.vertex_count):
        for v in range(g.vertex_count):
            if u == v:
                assert not pw.contains(u, v)
            else:
                e = (min(u, v), max(u, v))
                assert pw.contains(u, v) == (e in expected)


def test_power_neighborhood_ranks_are_positions():
    g = cycle_graph(12)
    pw = BfsNeighborhoods(g)
    row = list(pw.row(0))
    for idx, w in enumerate(row):
        assert pw.rank(0, w) == idx
    assert pw.rank(0, 6) is None  # antipodal vertex is 6 away


def test_rows_match_bfs_oracle(rm_desk):
    pw = BfsNeighborhoods(rm_desk)
    ell = rm_desk.vertex_count
    for v in random.Random(5).sample(range(ell), 12) + [0, ell - 1]:
        dist = oracle_distances(rm_desk, v)
        row = pw.row(v)
        assert row.dtype == np.int64
        assert row.tolist() == sorted(w for w, d in dist.items() if 0 < d <= 4)


def _listed(pairs):
    keys, ranks = pairs
    assert keys.dtype == ranks.dtype == np.int64
    return list(zip(keys.tolist(), ranks.tolist()))


def test_rows_exist_only_for_the_vertices_asked_about(rm_desk):
    pw = BfsNeighborhoods(rm_desk)
    asked = random.Random(6).sample(range(rm_desk.vertex_count), 9)
    pw.row(asked[0])
    pw.contains(asked[1], asked[0])
    pw.rank(asked[2], asked[1])
    assert sorted(pw._cache) == sorted(asked[:3])
    for v in asked:
        pw.row(v)
        pw.contains(v, asked[0])
        pw.rank(v, asked[1])
    assert sorted(pw._cache) == sorted(asked)


def test_rows_past_two_byte_ids_match_bfs_oracle():
    # a host past 2**16 vertices, read at ids on both sides of 65,535
    n = 70_000
    circ = circulant_graph(n, [1, 5])
    pw = BfsNeighborhoods(circ)
    xs = [65_535, 65_536, 65_540, 65_531, 65_556, 0, n - 1, n - 20, 40_000, 40_021]
    for v in xs:
        expected = sorted(w for w, d in oracle_distances(circ, v).items() if 0 < d <= 4)
        assert pw.row(v).tolist() == expected
        assert [pw.rank(v, w) for w in expected] == list(range(len(expected)))
        assert all(pw.contains(v, w) for w in expected)
        assert not pw.contains(v, (v + 21) % n) and pw.rank(v, (v + 21) % n) is None
        assert not pw.contains(v, v)
    assert sorted(pw._cache) == sorted(xs)


def test_close_pairs_need_a_group(rm_desk):
    # the breadth-first reference answers scalar queries only
    for pw in (BfsNeighborhoods(rm_desk),
               shared_power_neighborhoods(circulant_graph(70, [1, 5]))):
        assert type(pw) is BfsNeighborhoods and not hasattr(pw, "close_pairs")


def test_close_pairs_span_several_chunks(rm_desk):
    pw = shared_power_neighborhoods(rm_desk)
    assert 300 > lps._PAIR_CHUNK // 300  # more than one chunk of positions
    rng = random.Random(12)
    centers = rng.sample(range(rm_desk.vertex_count), 2)
    xs = [int(rng.choice(pw.row(rng.choice(centers)))) for _ in range(300)]
    assert _listed(pw.close_pairs(xs)) == oracle_close_pairs(pw, xs)


def test_close_pairs_of_short_lists(rm_desk):
    pw = shared_power_neighborhoods(rm_desk)
    assert _listed(pw.close_pairs([])) == []
    assert _listed(pw.close_pairs([17])) == []
    assert _listed(pw.close_pairs([17, 17])) == []


def test_close_pairs_reject_out_of_range_ids(rm_desk):
    pw = shared_power_neighborhoods(rm_desk)
    with pytest.raises(ArgumentError):
        pw.close_pairs([0, rm_desk.vertex_count])
    with pytest.raises(ArgumentError):
        pw.close_pairs([-1, 3])


# -- the group metric of the desk hosts ---------------------------------------------


def test_lps_hosts_are_built_with_the_group_metric():
    # no call made before the first query can leave an LPS host ranked by rows
    for g in (build_lps_graph(5, 29), cached_lps_graph(5, 29)):
        pw = shared_power_neighborhoods(g)
        assert type(pw) is PowerNeighborhoods and len(pw.ball) == 936
        assert shared_power_neighborhoods(g) is pw


@pytest.mark.parametrize("p, q", [(5, 29), (5, 41), (5, 61), (13, 17)])
def test_the_word_ball_is_the_breadth_first_ball(p, q):
    g = cached_lps_graph(p, q)
    pw = shared_power_neighborhoods(g)
    e = [tuple(m) for m in psl2(q).elements.tolist()].index((1, 0, 0, 1))
    assert BfsNeighborhoods(g).row(e).tolist() == pw.ball.tolist()
    # inversion permutes the ranks, and undoes itself
    inverse = np.array(pw.inverse)
    assert sorted(pw.inverse) == list(range(len(pw.ball)))
    assert np.array_equal(inverse[inverse], np.arange(len(pw.ball)))
    assert [type(r) for r in pw.inverse[:3]] == [int] * 3
    # the rank seen from the other side of each close pair
    rng = random.Random(q)
    center = rng.randrange(g.vertex_count)
    xs = [int(rng.choice(pw.row(center))) for _ in range(60)]
    xs += rng.sample(range(g.vertex_count), 20)
    pairs = oracle_close_pairs(pw, xs)
    assert len(pairs) > 50
    for key, r in pairs:
        a, b = divmod(key, len(xs))
        assert pw.inverse[r] == pw.rank(xs[b], xs[a])


def test_a_ball_that_inversion_does_not_permute_is_refused():
    # a generator set not closed under inverses gives words whose inverses
    # are not words; the metric refuses it when it is made
    gens = lps.lps_generators(LpsParams(5, 29))
    with pytest.raises(ConstructionIntegrityError, match="involution"):
        PowerNeighborhoods(psl2(29), gens[:1])


def test_group_rows_match_bfs_rows_on_every_vertex(rm_desk):
    group = shared_power_neighborhoods(rm_desk)
    seen = 0
    for v, row in oracle_ball_rows(rm_desk, 4):
        assert np.array_equal(group.row(v), row)
        seen += 1
    assert seen == rm_desk.vertex_count


def test_group_ranks_index_each_neighbourhood_by_the_ball(rm_desk):
    pw = shared_power_neighborhoods(rm_desk)
    e = [tuple(m) for m in psl2(29).elements.tolist()].index((1, 0, 0, 1))
    ball = pw.ball.tolist()
    assert pw.row(e).tolist() == ball and [pw.rank(e, b) for b in ball] == list(range(936))
    n = rm_desk.vertex_count
    for v in random.Random(14).sample(range(n), 200) + [0, n - 1]:
        row = pw.row(v).tolist()
        assert sorted(pw.rank(v, w) for w in row) == list(range(936))
        assert pw.rank(v, v) is None and not pw.contains(v, v)
    with pytest.raises(ArgumentError):
        pw.rank(n, 0)
    with pytest.raises(ArgumentError):
        pw.row(-1)
    assert pw.rank(0, n) is None and not pw.contains(0, -1)


def test_group_metric_matches_bfs_on_a_larger_host():
    g = build_lps_graph(5, 61)
    pw, bfs = shared_power_neighborhoods(g), BfsNeighborhoods(g)
    n = g.vertex_count
    rng = random.Random(61)
    for v in rng.sample(range(n), 25):
        dist = g.bfs_distances(v, cutoff=5)
        near = [w for w, d in enumerate(dist) if 0 < d <= 4]
        rim = [w for w, d in enumerate(dist) if d == 5]
        assert pw.row(v).tolist() == bfs.row(v).tolist() == near
        for w in near + rim[:400] + rng.sample(range(n), 400) + [v]:
            assert pw.contains(v, w) == bfs.contains(v, w) == (0 < dist[w] <= 4)
        assert sorted(pw.rank(v, w) for w in near) == list(range(len(near)))


def test_group_close_pairs_match_scalar_queries(rm_desk):
    pw = shared_power_neighborhoods(rm_desk)
    n = rm_desk.vertex_count
    # ball members whose first entry is 0 take the rarer canonical branch
    assert (psl2(29).elements[pw.ball, 0] == 0).any()
    rng = random.Random(15)
    centers = rng.sample(range(n), 3)
    clustered = [int(rng.choice(pw.row(rng.choice(centers)))) for _ in range(300)]
    assert 300 > lps._PAIR_CHUNK // 300  # more than one chunk of positions
    for xs in (rng.sample(range(n), 400), clustered + centers, clustered[:40] * 2,
               [centers[0]] * 3, [], [17]):
        assert _listed(pw.close_pairs(xs)) == oracle_close_pairs(pw, xs)
    with pytest.raises(ArgumentError):
        pw.close_pairs([0, n])


def test_metric_lives_as_long_as_its_graph(desk_params2):
    p = desk_params2
    assert shared_power_neighborhoods(p.r_m) is p.rm_pow
    assert shared_power_neighborhoods(p.r_z) is p.rz_pow


def test_each_metric_query_is_one_call_of_its_class_method(monkeypatch):
    # a traced run counts the scalar queries by wrapping these two methods
    # on the class, so each query must be exactly one call of one of them,
    # also once earlier queries have made whatever the metric makes lazily
    assert type(make_gamma_params(2, 30).rm_pow) is gamma.PowerNeighborhoods
    assert type(shared_power_neighborhoods(cycle_graph(40))) is BfsNeighborhoods
    pw = shared_power_neighborhoods(cached_lps_graph(5, 29))
    w = int(pw.row(3)[0])
    r = pw.rank(3, w)
    assert pw.contains(3, w) and r is not None
    calls = {"contains": 0, "rank": 0}
    for name in calls:
        def counted(self, v, w, name=name, method=getattr(gamma.PowerNeighborhoods, name)):
            calls[name] += 1
            return method(self, v, w)
        monkeypatch.setattr(gamma.PowerNeighborhoods, name, counted)
    assert pw.contains(3, w) and calls == {"contains": 1, "rank": 0}
    assert pw.rank(3, w) == r and calls == {"contains": 1, "rank": 1}
    assert shared_power_neighborhoods(cached_lps_graph(5, 29)).contains(w, 3)
    assert calls == {"contains": 2, "rank": 1}


# -- parameters -------------------------------------------------------------------


def test_paper_params_constants():
    p = paper_sizes(3, 10**6)
    assert p.d == PAPER_D == 734
    assert p.z == PAPER_Z == 160 * 734**5
    assert p.m == 5 * 160 * 3 * 734**8 * 1000
    assert p.m <= p.ell_m <= 32 * p.m
    assert p.ell_z >= p.z
    # the paper keeps its generic subset universe; a desk field is |B_4| wide
    assert p.subset_bits == 4 * 734**4 + 1
    assert not hasattr(p, "r_m") and not hasattr(p, "r_z")


def test_desk_params_shapes(desk_params3):
    p = desk_params3
    assert p.d == 6
    assert p.ell_m == p.ell_z == 12180
    # a subset field has one bit per member of the identity's radius-4 ball
    assert p.subset_universe == 935
    assert p.subset_bits == len(p.rm_pow.ball) == 936
    assert p.x_bits == 14
    # whole bytes: x_1..x_3 and u_2, u_3 in 2 bytes each, then two subset
    # fields of 936 / 8 = 117 bytes
    assert p.label_bits == 8 * (5 * 2 + 2 * 117) == 1952
    assert p.certificates["r_m"].all_ok


def test_every_close_rank_fits_the_subset_field(desk_params2):
    # clustered positions give many close pairs, among them ranks near the
    # top of the ball
    p = desk_params2
    pw = p.rm_pow
    rng = random.Random(26)
    centers = rng.sample(range(p.ell_m), 3)
    xs = [int(rng.choice(pw.row(rng.choice(centers)))) for _ in range(400)]
    _, ranks = pw.close_pairs(xs)
    ranks = np.concatenate([ranks, np.take(pw.inverse, ranks)])  # both sides' ranks
    assert len(ranks) > 1000
    assert 0 <= ranks.min() and ranks.max() < p.subset_bits
    assert ranks.max() >= p.subset_bits - 50


def test_desk_rejects_uncertifiable_substitute(monkeypatch):
    failing = certify_expander(cycle_graph(6), LpsParams(5, 29))
    assert not failing.all_ok
    monkeypatch.setattr(gamma, "cached_lps_certificate", lambda p, q: failing)
    with pytest.raises(CertificationError, match="r_m failed certification"):
        make_gamma_params(2, 10)


def test_desk_hosts_must_share_their_degree():
    with pytest.raises(ArgumentError, match="fields rm_pq and rz_pq must share p"):
        DeskConfig(rz_pq=(13, 17))
    with pytest.raises(ArgumentError, match="fields rm_pq and rz_pq must share p"):
        make_gamma_params(2, 10, DeskConfig(rm_pq=(13, 17)))


def test_default_hosts_share_one_graph_and_one_metric(desk_params2):
    # only the lru caches keep R_m and R_z one graph, so check they do
    p = desk_params2
    assert p.r_m is p.r_z and p.rm_pow is p.rz_pow
    other = make_gamma_params(2, 30, DeskConfig(rz_pq=(5, 61)))
    assert other.r_m is p.r_m and other.rm_pow is p.rm_pow
    assert other.r_z is not other.r_m and other.rz_pow is not other.rm_pow
    assert other.ell_z == 61 * (61**2 - 1) // 2


def test_param_validation():
    with pytest.raises(ArgumentError):
        paper_sizes(1, 10)
    with pytest.raises(ArgumentError):
        paper_sizes(2, 0)


def test_delta_two_has_single_block(desk_params2):
    rng = random.Random(0)
    v = random_gamma_vertex(rng, desk_params2)
    assert len(v.blocks) == 1
    validate_vertex(v, desk_params2)


# -- counting ---------------------------------------------------------------------


def test_desk_vertex_count_exact(desk_params2):
    p = desk_params2
    count = gamma_vertex_count(p)
    assert (count.mantissa, count.exp2) == (p.ell_m**2 * p.ell_z, 936)
    assert count.mantissa << count.exp2 == p.ell_m**2 * 2**936 * p.ell_z


def test_paper_count_is_scaled():
    p = paper_sizes(3, 10**4)
    count = gamma_vertex_count(p)
    assert isinstance(count, ScaledCount)
    expected_log10 = (
        math.log10(p.ell_m) + 2 * (math.log10(p.ell_m) + math.log10(p.ell_z))
        + 2 * p.subset_bits * math.log10(2))
    assert count.log10() == pytest.approx(expected_log10, rel=1e-12)


def test_paper_count_ratio_under_quadrupling():
    # four times the capacity costs at most a bounded factor per coordinate
    for delta in (2, 3):
        a = gamma_vertex_count(paper_sizes(delta, 10**4))
        b = gamma_vertex_count(paper_sizes(delta, 4 * 10**4))
        ratio_log10 = b.ratio_log10(a)
        bound = delta * math.log10(64) + (delta / 2) * math.log10(2)
        assert 0 <= ratio_log10 <= bound


# -- adjacency oracle --------------------------------------------------------------


def test_self_adjacency_false(desk_params2):
    rng = random.Random(5)
    for _ in range(20):
        v = random_gamma_vertex(rng, desk_params2)
        assert not gamma_adjacent(v, v, desk_params2)


def test_symmetry_random_and_close_pairs(desk_params2):
    rng = random.Random(6)
    for i in range(200):
        if i % 3 == 0:
            a, b = random_close_gamma_pair(rng, desk_params2)
        else:
            a = random_gamma_vertex(rng, desk_params2)
            b = random_gamma_vertex(rng, desk_params2)
        assert gamma_adjacent(a, b, desk_params2) == gamma_adjacent(b, a, desk_params2)


@pytest.mark.parametrize("delta", [2, 3])
def test_witness_matches_the_definition(delta, desk_params2, desk_params3):
    # the oracle stops early once no coordinate is left to witness; the
    # verdict and the witness must still be the definition's
    params = desk_params2 if delta == 2 else desk_params3
    rng = random.Random(40 + delta)
    seen = set()
    for i in range(1200):
        if i % 4 == 3:
            a = random_gamma_vertex(rng, params)
            b = random_gamma_vertex(rng, params)
        else:
            a, b = random_close_gamma_pair(rng, params)
            if i % 4 == 1:  # x1 most likely far, so a witness must start later
                b = GammaVertex(rng.randrange(params.ell_m), b.blocks)
            elif i % 4 == 2:  # an empty mask at block 2 passes the witness on
                (x, _, u), *rest = b.blocks
                b = GammaVertex(b.x1, ((x, 0, u), *rest))
        got = gamma_adjacent_witness(a, b, params)
        assert got == oracle_gamma_adjacent_witness(a, b, params)
        seen.add(got[1])
    assert None in seen and (1, 2) in seen
    assert delta == 2 or {(1, 3), (2, 3)} <= seen


def test_empty_subsets_block_adjacency(desk_params2):
    # identical coordinates except a far shield move; all subsets empty
    p = desk_params2
    a = GammaVertex(x1=0, blocks=((0, 0, 0),))
    far = next(v for v in range(p.ell_z) if not p.rz_pow.contains(0, v) and v != 0)
    b = GammaVertex(x1=int(p.rm_pow.row(0)[0]), blocks=((int(p.rm_pow.row(0)[1]), 0, far),))
    assert not gamma_adjacent(a, b, p)


def test_constructed_adjacent_pair(desk_params2):
    p = desk_params2
    rng = random.Random(7)
    a, b = random_close_gamma_pair(rng, p)
    ok, witness = gamma_adjacent_witness(a, b, p)
    assert ok and witness == (1, 2)


def test_subset_monotonicity(desk_params2):
    rng = random.Random(8)
    grown_checked = 0
    for _ in range(120):
        a, b = random_close_gamma_pair(rng, desk_params2)
        if not gamma_adjacent(a, b, desk_params2):
            continue
        grown_checked += 1
        grown = GammaVertex(
            x1=a.x1,
            blocks=tuple((x, mask | rng.getrandbits(desk_params2.subset_bits), u)
                         for x, mask, u in a.blocks))
        assert gamma_adjacent(grown, b, desk_params2)
    assert grown_checked > 10


def test_vertex_validation(desk_params2):
    with pytest.raises(ArgumentError):
        validate_vertex(GammaVertex(x1=-1, blocks=((0, 0, 0),)), desk_params2)
    with pytest.raises(ArgumentError):
        validate_vertex(GammaVertex(x1=0, blocks=()), desk_params2)
    with pytest.raises(ArgumentError):
        validate_vertex(
            GammaVertex(x1=0, blocks=((0, 1 << desk_params2.subset_bits, 0),)),
            desk_params2)
    # a field that is not an int, or a block that is not an (x, mask, u)
    # triple, is named by the validation, the scalar oracle (either side)
    # and the encoder alike
    p, good = desk_params2, GammaVertex(x1=0, blocks=((1, 1, 2),))
    malformed = [
        (GammaVertex(x1=1.0, blocks=((1, 1, 2),)), "x1 must be an int, got 1.0"),
        (GammaVertex(x1=0, blocks=((1.0, 1, 2),)), "x_2 must be an int, got 1.0"),
        (GammaVertex(x1=np.int64(0), blocks=((1, 1, 2),)), "x1 must be an int"),
        (GammaVertex(x1=0, blocks=((np.int64(1), 1, 2),)), "x_2 must be an int"),
        (GammaVertex(x1=0, blocks=((1, np.int64(1), 2),)),
         "subset mask at block 2 must be an int"),
        (GammaVertex(x1=0, blocks=((1, 1, np.int64(2)),)), "u_2 must be an int"),
        (GammaVertex(x1=0, blocks=((1, 1.0, 2),)), "subset mask at block 2 must be an int"),
        (GammaVertex(x1=True, blocks=((1, 1, 2),)), "x1 must be an int, got True"),
        (GammaVertex(x1=0, blocks=((1, 1, 2, 3),)), r"block 2 must be an \(x, mask, u\) triple"),
        (GammaVertex(x1=0, blocks=(7,)), r"block 2 must be an \(x, mask, u\) triple"),
        (GammaVertex(x1=0, blocks=[(1, 1, 2)]), "blocks must be a tuple"),
    ]
    for v, message in malformed:
        for call in (lambda v: validate_vertex(v, p), lambda v: encode_label(v, p),
                     lambda v: gamma_adjacent_witness(v, good, p),
                     lambda v: gamma_adjacent_witness(good, v, p)):
            with pytest.raises(ArgumentError, match=message):
                call(v)
    # every accepted field is a Python int, so it encodes as itself
    assert decode_label(encode_label(good, p), p) == good


def test_the_held_check_follows_the_parameters(desk_params2):
    # an x in [12180, 113460) lies inside R_m (5, 61) and outside R_m (5, 29)
    small, big = desk_params2, _codec_params(2, DeskConfig((5, 61), (5, 29)))
    x = small.ell_m + 7
    assert x < big.ell_m
    for order in ((small, big), (big, small)):
        v, fresh = (GammaVertex(x1=3, blocks=((x, 1, 2),)) for _ in range(2))
        for params in order:
            if params is small:
                with pytest.raises(ArgumentError,
                                   match=rf"x_2={x} out of range \[0, {small.ell_m}\)"):
                    validate_vertex(v, params)
            else:
                validate_vertex(v, params)
        assert v.ranges is v.ranges and v.ranges == (1, 0, x, 2, 1)
        # held outside the fields, like coords
        assert v == fresh and hash(v) == hash(fresh) and repr(v) == repr(fresh)
        assert "ranges" not in repr(v)


def test_mask_width_edges(desk_params2):
    width = desk_params2.subset_bits
    validate_vertex(GammaVertex(x1=0, blocks=((0, (1 << width) - 1, 0),)), desk_params2)
    for mask in (1 << width, -1):
        with pytest.raises(ArgumentError, match=f"subset mask at block 2 exceeds width {width}"):
            validate_vertex(GammaVertex(x1=0, blocks=((0, mask, 0),)), desk_params2)


# -- label codec --------------------------------------------------------------------


def test_codec_round_trip(desk_params3):
    rng = random.Random(9)
    for _ in range(50):
        v = random_gamma_vertex(rng, desk_params3)
        assert decode_label(encode_label(v, desk_params3), desk_params3) == v


def test_a_decoded_vertex_reads_its_coordinates_from_its_fields(desk_params3):
    rng = random.Random(10)
    for _ in range(20):
        v = random_gamma_vertex(rng, desk_params3)
        w = decode_label(encode_label(v, desk_params3), desk_params3)
        xs = [w.x1] + [x for x, _, _ in w.blocks]
        us = [w.u(i) for i in range(2, w.delta + 1)]
        assert w.coords == (*xs, *us)
        assert w.coords is w.coords  # made once, then held
        # held outside the fields: a vertex whose coords were read equals,
        # hashes and prints like one whose were not
        assert w == v and hash(w) == hash(v) and repr(w) == repr(v)
        assert "coords" not in repr(w)


def test_label_width(desk_params2):
    v = random_gamma_vertex(random.Random(0), desk_params2)
    label = encode_label(v, desk_params2)
    declared = int(label[:8], 16)
    assert declared == desk_params2.label_bits
    assert len(label) == 8 + (declared + 3) // 4


def test_codec_errors(desk_params2):
    v = random_gamma_vertex(random.Random(1), desk_params2)
    label = encode_label(v, desk_params2)
    with pytest.raises(CodecError):
        decode_label(label[:-2], desk_params2)  # truncated payload
    with pytest.raises(CodecError):
        decode_label("zz" + label[2:], desk_params2)  # not hex
    wrong_width = format(desk_params2.label_bits + 8, "08x") + label[8:]
    with pytest.raises(CodecError):
        decode_label(wrong_width, desk_params2)


def test_the_top_rank_round_trips(desk_params3):
    p = desk_params3
    top = p.subset_bits - 1  # 935, the last member of the ball
    v = GammaVertex(x1=p.ell_m - 1, blocks=((1, 1 << top, p.ell_z - 1), (2, 1, 3)))
    label = encode_label(v, p)
    assert decode_label(label, p) == v
    parsed = gamma._ParsedLabel(label, p)
    assert parsed.in_subset(2, top) == 1 and parsed.in_subset(2, top - 1) == 0
    assert parsed.in_subset(3, top) == 0 and parsed.in_subset(3, 0) == 1


def test_a_rank_past_the_ball_is_rejected(desk_params3):
    p = desk_params3
    v = GammaVertex(x1=0, blocks=((1, 1, 2), (3, 1 << p.subset_bits, 4)))
    for call in (validate_vertex, encode_label):
        with pytest.raises(ArgumentError, match="subset mask at block 3 exceeds width 936"):
            call(v, p)


# The default hosts fill whole bytes: 14-bit coordinates in 2 bytes and a
# 936-bit subset field in 117. On (13, 17) each 2447-bit subset field has a
# spare bit on top, and on (5, 61) a 17-bit x takes 4 bytes beside 2-byte u's.
_CODEC_HOSTS = (DeskConfig(), DeskConfig((13, 17), (13, 17)), DeskConfig((5, 61), (5, 29)))


@lru_cache(maxsize=None)
def _codec_params(delta, hosts=DeskConfig()):
    return make_gamma_params(delta, 30, hosts)


def _draw_vertex(draw, params):
    x = st.integers(0, params.ell_m - 1)
    mask = st.integers(0, (1 << params.subset_bits) - 1)
    u = st.integers(0, params.ell_z - 1)
    blocks = tuple((draw(x), draw(mask), draw(u)) for _ in range(params.delta - 1))
    return GammaVertex(x1=draw(x), blocks=blocks)


@st.composite
def _codec_cases(draw):
    params = _codec_params(draw(st.sampled_from([2, 3, 4, 5])), draw(st.sampled_from(_CODEC_HOSTS)))
    return params, _draw_vertex(draw, params)


def test_payload_digit_counts():
    # (5, 29) gives 14-bit coordinates in 2 bytes and 936-bit subsets, one
    # bit per member of the radius-4 ball, in 117 bytes
    digits = {}
    for delta in (2, 3, 4, 5):
        v = GammaVertex(x1=0, blocks=((0, 0, 0),) * (delta - 1))
        digits[delta] = len(encode_label(v, _codec_params(delta))) - 8
    assert digits == {2: 246, 3: 488, 4: 730, 5: 972}


@pytest.mark.parametrize("bits, code, size", [
    (12, "H", 2), (14, "H", 2), (16, "H", 2), (17, "I", 4)])
def test_a_coordinate_takes_the_fewest_of_1_2_4_or_8_bytes(bits, code, size):
    layout = gamma.LabelLayout.of(1 << bits, 1 << bits, bits, 936, bits, 3)
    assert layout.widths == (8 * size, 8 * size, 936)
    # the coordinates follow the width header's 4 bytes in the decoded label
    assert layout.coords.format == ">4x" + code * 5 and layout.coords.size == 4 + 5 * size
    # the subset fields follow the coordinates
    assert layout.mask_ends == (4 + 5 * size + 117, 4 + 5 * size + 234)


@given(_codec_cases())
@settings(max_examples=150, deadline=None)
def test_labels_match_the_reference_codec(case):
    params, v = case
    label = encode_label(v, params)
    assert label == reference_encode_label(v, params)
    assert reference_decode_label(label, params) == v
    assert decode_label(label, params) == v
    assert decode_label(label.upper(), params) == v  # hex letter case is free


@pytest.mark.parametrize("delta", [2, 4, 5])
def test_a_set_spare_bit_is_rejected(delta):
    # |B_4| = 2447 on (13, 17), so each 306-byte subset field has one spare
    # bit on top; the decoder and the oracle reject it alike
    params = _codec_params(delta, _CODEC_HOSTS[1])
    assert params.subset_bits == 2447 and params.label_layout.spare_top == 0x80
    v = random_gamma_vertex(random.Random(delta), params)
    good = encode_label(v, params)
    assert decode_label(good, params) == v
    for i, end in enumerate(params.label_layout.mask_ends, start=2):
        at = 2 * (end - 306)  # the field's first hex digit, header included
        bad = good[:at] + format(int(good[at], 16) | 8, "x") + good[at + 1:]
        why = f"label sets a bit of X_{i} past its 2447 bits"
        assert _codec_error(decode_label, bad, params) == why
        assert _codec_error(adjacency_from_labels, bad, good, params) == why
        assert _codec_error(adjacency_from_labels, good, bad, params) == why


def test_the_default_hosts_leave_no_spare_bits():
    # |B_4| = 936 = 8 * 117 on (5, 29): every bit of a subset field is a rank
    for delta in (2, 3, 4, 5):
        params = _codec_params(delta)
        layout = params.label_layout
        assert layout.widths[2] == params.subset_bits and layout.spare_top == 0
        full = (1 << params.subset_bits) - 1
        v = GammaVertex(x1=1, blocks=((2, full, 3),) * (delta - 1))
        label = encode_label(v, params)
        assert label.endswith("f" * (delta - 1) * 234) and decode_label(label, params) == v


# Replacements for a leading "00" after which int(..., 16) still reads the
# same number; encode_label never writes them.
_LAX_FORMS = {
    "underscore between digits": "0_",
    "leading space": " 0",
    "leading tab": "\t0",
    "plus sign": "+0",
    "0x prefix": "0x",
    "fullwidth digit": "\uff100",
    "Arabic-Indic digit": "\u06600",
}


@pytest.mark.parametrize("part", ["header", "payload"])
@pytest.mark.parametrize("form", list(_LAX_FORMS))
def test_decoder_rejects_forms_encode_never_writes(desk_params2, form, part):
    v = GammaVertex(x1=5, blocks=((7, 3, 9),))  # x1 < 2^8: the payload starts with "00"
    label = encode_label(v, desk_params2)
    start, end = (0, 8) if part == "header" else (8, len(label))
    assert label[start:start + 2] == "00"
    lax = label[:start] + _LAX_FORMS[form] + label[start + 2:]
    assert len(lax) == len(label)
    assert int(lax[start:end], 16) == int(label[start:end], 16)
    with pytest.raises(CodecError, match="label is not hex"):
        decode_label(lax, desk_params2)


@st.composite
def _label_pairs(draw):
    """A codec case a and a second vertex b; a draw decides at which
    coordinates b's x is close to a's, and at which blocks the subsets hold
    the mutual ranks and the u's are close."""
    params, a = draw(_codec_cases())
    b = _draw_vertex(draw, params)
    rm, rz = params.rm_pow, params.rz_pow

    def near(pw, v):
        row = pw.row(v)
        return int(row[draw(st.integers(0, len(row) - 1))])

    x1 = near(rm, a.x1) if draw(st.booleans()) else b.x1
    blocks_a, blocks_b = [], []
    for (xa, ma, ua), (xb, mb, ub) in zip(a.blocks, b.blocks):
        if draw(st.booleans()):
            xb = near(rm, xa)
            if draw(st.booleans()):
                ma, mb = ma | 1 << rm.rank(xa, xb), mb | 1 << rm.rank(xb, xa)
            if draw(st.booleans()):
                ub = near(rz, ua)
        blocks_a.append((xa, ma, ua))
        blocks_b.append((xb, mb, ub))
    return params, GammaVertex(a.x1, tuple(blocks_a)), GammaVertex(x1, tuple(blocks_b))


@given(_label_pairs())
@settings(max_examples=200, deadline=None)
def test_label_oracle_agrees_with_the_decoded_vertices(case):
    params, a, b = case
    la, lb = encode_label(a, params), encode_label(b, params)
    want = gamma_adjacent_witness(decode_label(la, params), decode_label(lb, params), params)
    assert want == oracle_gamma_adjacent_witness(a, b, params)
    assert adjacency_from_labels(la, lb, params) == want[0]
    assert adjacency_from_labels(lb, la, params) == want[0]


@pytest.mark.parametrize("h, delta", [
    (cycle_graph(12), 2),
    (circulant_graph(12, (1, 6)), 3),
    (circulant_graph(12, (1, 2)), 4),
    (circulant_graph(12, (1, 2, 6)), 5),
])
def test_label_oracle_agrees_on_every_pair_of_an_embedding(h, delta):
    params = _codec_params(delta)
    labels = [encode_label(v, params) for v in embed(h, delta, params).gamma]
    decoded = [decode_label(label, params) for label in labels]
    for a, la in enumerate(labels):
        for b, lb in enumerate(labels):
            want, _ = gamma_adjacent_witness(decoded[a], decoded[b], params)
            assert adjacency_from_labels(la, lb, params) == want == h.has_edge(a, b)


def _labels_the_decoder_rejects(params):
    """Malformed labels for params, each under the name of its defect."""
    delta = params.delta
    v = GammaVertex(x1=5, blocks=((7, 3, 9),) * (delta - 1))  # the payload starts "00"
    label = encode_label(v, params)
    bad = {
        "shorter than its header": label[:7],
        "truncated": label[:-2],
        "a digit too many": label + "0",
        "not hex": "zz" + label[2:],
        "wrong width": format(params.label_bits + 8, "08x") + label[8:],
    }
    for form, lax in _LAX_FORMS.items():
        for part, start in (("header", 0), ("payload", 8)):
            bad[f"{form} in the {part}"] = label[:start] + lax + label[start + 2:]
    # the top bit of x_1's 2-byte field, above its 14 bits
    bad["top bit of x_1's field"] = label[:8] + "8" + label[9:]
    for i in range(1, delta + 1):
        x1, blocks = v.x1, list(v.blocks)
        if i == 1:
            x1 = params.ell_m
        else:
            blocks[i - 2] = (params.ell_m, *blocks[i - 2][1:])
        bad[f"x_{i} = ell_m"] = reference_encode_label(GammaVertex(x1, tuple(blocks)), params)
        if i > 1:
            blocks = list(v.blocks)
            blocks[i - 2] = (*blocks[i - 2][:2], params.ell_z)
            bad[f"u_{i} = ell_z"] = reference_encode_label(GammaVertex(x1=5, blocks=tuple(blocks)), params)
    return bad


def _codec_error(call, *args) -> str | None:
    try:
        call(*args)
    except CodecError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("delta", [2, 3, 4, 5])
def test_label_oracle_rejects_what_the_decoder_rejects(delta):
    params = _codec_params(delta)
    good = encode_label(random_gamma_vertex(random.Random(delta), params), params)
    bad = _labels_the_decoder_rejects(params)
    assert len(bad) == 5 + 2 * len(_LAX_FORMS) + 1 + 2 * delta - 1
    for defect, label in bad.items():
        why = _codec_error(decode_label, label, params)
        assert why is not None, defect
        assert _codec_error(adjacency_from_labels, label, good, params) == why, defect
        assert _codec_error(adjacency_from_labels, good, label, params) == why, defect


def test_a_label_of_the_wrong_width_is_rejected_before_the_layout_is_built(rm_desk):
    # an embedding file names its own delta, and the layout holds O(delta)
    # fields, so a short label must not pay for it
    params = make_gamma_params(10**4, 1)
    with pytest.raises(CodecError, match="label declares 1 bits"):
        decode_label("000000010", params)
    assert "label_layout" not in vars(params)
    with pytest.raises(CodecError, match="payload has 1 hex digits"):
        decode_label(params.label_header + "0", params)
    assert "label_layout" not in vars(params)


def _parse_outcome(parse, *args):
    """The CodecError message of a parse, else the name of the error it
    raised, else "ok"."""
    try:
        parse(*args)
    except CodecError as exc:
        return "CodecError", str(exc)
    except (AttributeError, TypeError) as exc:
        return type(exc).__name__
    return "ok"


def _assert_parses_like_the_reference(label, params):
    """The parse, the decoder and the oracle on either side accept and
    reject the label as the reference parse does, with its message; a
    decoded label gives the reference's vertex."""
    want = _parse_outcome(ReferenceParsedLabel, label, params)
    good = encode_label(GammaVertex(x1=0, blocks=((0, 0, 0),) * (params.delta - 1)), params)
    for call, args in ((gamma._ParsedLabel, (label, params)), (decode_label, (label, params)),
                       (adjacency_from_labels, (label, good, params)),
                       (adjacency_from_labels, (good, label, params))):
        assert _parse_outcome(call, *args) == want, (call, label)
    if want == "ok":
        assert decode_label(label, params) == ReferenceParsedLabel(label, params).vertex()
    return want


@pytest.mark.parametrize("hosts", _CODEC_HOSTS)
@pytest.mark.parametrize("delta", [2, 3, 4, 5])
def test_the_parse_rejects_what_the_reference_rejects(delta, hosts):
    # every rejection form of the decoder test, and each in upper case
    params = _codec_params(delta, hosts)
    bad = _labels_the_decoder_rejects(params)
    good = encode_label(random_gamma_vertex(random.Random(delta), params), params)
    assert _assert_parses_like_the_reference(good, params) == "ok"
    assert _assert_parses_like_the_reference(good.upper(), params) == "ok"
    for defect, label in bad.items():
        assert _assert_parses_like_the_reference(label, params)[0] == "CodecError", defect
        _assert_parses_like_the_reference(label.upper(), params)


@st.composite
def _raw_labels(draw):
    """A label whose fields take any value their widths hold: coordinates
    past ell_m or ell_z, and subset fields past subset_bits."""
    params = _codec_params(draw(st.sampled_from([2, 3, 4, 5])), draw(st.sampled_from(_CODEC_HOSTS)))
    xw, sw, uw = _reference_widths(params)

    def field(width, end=None):
        # mostly around the range's end, where the checks cut
        if end is not None and draw(st.booleans()):
            return draw(st.integers(end - 2, min((1 << width) - 1, end + 2)))
        return draw(st.integers(0, (1 << width) - 1))
    blocks = tuple((field(xw, params.ell_m), field(sw), field(uw, params.ell_z))
                   for _ in range(params.delta - 1))
    return params, reference_encode_label(GammaVertex(field(xw, params.ell_m), blocks), params)


@given(_raw_labels())
@settings(max_examples=300, deadline=None)
def test_coordinates_in_and_out_of_range_parse_like_the_reference(case):
    params, label = case
    _assert_parses_like_the_reference(label, params)


def test_a_coordinate_between_the_two_ranges_is_accepted():
    # R_m = (5, 61) is larger than R_z = (5, 29): an x at or above ell_z
    # fails the parse's one shared bound but is in range
    params = _codec_params(3, _CODEC_HOSTS[2])
    assert params.ell_m > params.ell_z == params.label_layout.bound
    top = GammaVertex(x1=params.ell_m - 1, blocks=((params.ell_z, 1, params.ell_z - 1),) * 2)
    assert _assert_parses_like_the_reference(encode_label(top, params), params) == "ok"
    for k, value in ((0, params.ell_m), (3, params.ell_z), (4, params.ell_z)):
        fields = [params.ell_m - 1, params.ell_z, params.ell_z, 0, 0]
        fields[k] = value
        x1, x2, x3, u2, u3 = fields
        label = reference_encode_label(GammaVertex(x1, ((x2, 0, u2), (x3, 0, u3))), params)
        why = _assert_parses_like_the_reference(label, params)
        assert why[0] == "CodecError" and "out of range" in why[1]


# single-character edits: digits and letters of either case, and what
# int(..., 16) would forgive but the parse must not
_EDITS = "0189afAFgG _+x\t\uff10\u0660"


@given(st.sampled_from([2, 3, 4, 5]), st.sampled_from(_CODEC_HOSTS), st.data())
@settings(max_examples=300, deadline=None)
def test_edited_labels_parse_like_the_reference(delta, hosts, data):
    params = _codec_params(delta, hosts)
    label = encode_label(_draw_vertex(data.draw, params), params)
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(label)))
        edit = data.draw(st.sampled_from(["replace", "insert", "delete", "cut"]))
        char = data.draw(st.sampled_from(_EDITS))
        if edit == "replace":
            label = label[:at] + char + label[at + 1:]
        elif edit == "insert":
            label = label[:at] + char + label[at:]
        elif edit == "delete":
            label = label[:at] + label[at + 1:]
        else:
            label = label[:at]
    _assert_parses_like_the_reference(label, params)


def test_a_label_that_is_not_a_str_is_named_by_its_type(desk_params3):
    good = encode_label(random_gamma_vertex(random.Random(3), desk_params3), desk_params3)
    raw = good.encode()
    for label in (None, 123, 1.5, b"", raw, bytearray(raw), memoryview(raw), [good]):
        # the reference parse fails too, mostly inside with a bare TypeError
        # or AttributeError; b"" is shorter than a header
        assert _parse_outcome(ReferenceParsedLabel, label, desk_params3) != "ok"
        why = ("CodecError", f"label must be a str, got {type(label).__name__}")
        for call, args in ((decode_label, (label, desk_params3)),
                           (adjacency_from_labels, (label, good, desk_params3)),
                           (adjacency_from_labels, (good, label, desk_params3))):
            assert _parse_outcome(call, *args) == why


@pytest.mark.parametrize("delta", [2, 3, 4, 5])
def test_every_desk_label_decodes_to_the_reference_vertex(delta):
    count = 0
    for inp in bench_desk_set(delta, seed=0):
        h = Graph(inp["n"], inp["edges"])
        params = make_gamma_params(delta, h.vertex_count)
        for v in embed(h, delta, params).gamma:
            label = encode_label(v, params)
            want = ReferenceParsedLabel(label, params).vertex()
            assert want == v
            assert decode_label(label, params) == want == decode_label(label.upper(), params)
            count += 1
    assert count > 100


def test_adjacent_pairs_of_fewer_than_two_vertices_scan_nothing(monkeypatch, rm_desk):
    params = make_gamma_params(200, 1)
    calls = []
    member = gamma._member
    monkeypatch.setattr(gamma, "_member", lambda *a: calls.append(1) or member(*a))
    assert adjacent_pairs([], params) == {}
    assert adjacent_pairs([GammaVertex(x1=0, blocks=((0, 0, 0),) * 199)], params) == {}
    assert not calls


def test_label_adjacency_agrees_with_oracle(desk_params2):
    rng = random.Random(10)
    for i in range(60):
        if i % 2 == 0:
            a, b = random_close_gamma_pair(rng, desk_params2)
        else:
            a = random_gamma_vertex(rng, desk_params2)
            b = random_gamma_vertex(rng, desk_params2)
        la, lb = encode_label(a, desk_params2), encode_label(b, desk_params2)
        assert adjacency_from_labels(la, lb, desk_params2) == \
            gamma_adjacent(a, b, desk_params2)


# -- misc --------------------------------------------------------------------------


@pytest.mark.parametrize("field, value", [
    ("rm_pq", 5), ("rm_pq", [5]), ("rz_pq", [5, "29"]),
])
def test_desk_config_rejects_a_field_of_the_wrong_type(field, value):
    with pytest.raises(ArgumentError, match=f"desk config field {field} must be"):
        DeskConfig.from_json({**DeskConfig().to_json(), field: value})


def test_desk_config_takes_json_numbers():
    # a key that is no longer a field, as in older embedding files, is ignored
    cfg = DeskConfig.from_json({"walk_budget": 0, "rm_pq": [5, 29]})
    assert (cfg.rm_pq, cfg.rz_pq) == ((5, 29), (5, 29)) and cfg == DeskConfig()


def test_desk_config_holds_only_the_hosts(desk_params2):
    # every cap, and the walk search budget, follows from the hosts and
    # (delta, n); none is configured
    assert list(DeskConfig().to_json()) == ["rm_pq", "rz_pq"]
    assert list(desk_params2.to_json()["desk"]) == ["rm_pq", "rz_pq"]
    assert desk_params2.sigma_cap_for(30) == max(2 * desk_params2.d, 4 * 5 + 4)
    assert desk_params2.usage_cap_for(30) == 40


@pytest.mark.parametrize("delta, n", [(2.5, 30), (2, 30.0), (2, "30"), (True, 30)])
def test_params_reject_sizes_that_are_not_integers(delta, n):
    name = "delta" if not isinstance(delta, int) or isinstance(delta, bool) else "n"
    with pytest.raises(ArgumentError, match=f"{name} must be an integer"):
        make_gamma_params(delta, n)


def test_params_digest_distinguishes_configs(desk_params2, desk_params3):
    assert desk_params2.digest() != desk_params3.digest()


def test_count_log10_plain_int():
    assert ScaledCount(mantissa=1000, exp2=0).log10() == pytest.approx(3.0)
