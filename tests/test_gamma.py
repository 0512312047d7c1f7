import math
import random

import numpy as np
import pytest

from induniv.errors import ArgumentError, CertificationError, CodecError, InfeasibleBuildError
from induniv.gamma import (
    GammaVertex,
    PAPER_D,
    PAPER_Z,
    PowerNeighborhoods,
    Profile,
    ScaledCount,
    adjacency_from_labels,
    count_log10,
    decode_label,
    encode_label,
    gamma_adjacent,
    gamma_adjacent_witness,
    gamma_vertex_count,
    make_gamma_params,
    shared_power_neighborhoods,
    validate_vertex,
)
from induniv import graphs
from induniv.graphs import Graph, circulant_graph, cycle_graph, path_graph
from induniv.harness import random_close_gamma_pair, random_gamma_vertex
from oracles import oracle_distances, oracle_power


# -- power neighborhoods ---------------------------------------------------------


@pytest.mark.parametrize("g", [cycle_graph(12), path_graph(9),
                               Graph(7, [(0, 1), (2, 3), (3, 4), (4, 2)]),
                               circulant_graph(70, [1, 5])])
def test_power_neighborhoods_match_oracle(g):
    # the circulant spans three row blocks
    for k in range(1, 5):
        pw = PowerNeighborhoods(g, k)
        expected = oracle_power(g, k)
        for u in range(g.vertex_count):
            for v in range(g.vertex_count):
                if u == v:
                    assert not pw.contains(u, v)
                else:
                    e = (min(u, v), max(u, v))
                    assert pw.contains(u, v) == (e in expected)


def test_power_neighborhood_ranks_are_positions():
    g = cycle_graph(12)
    pw = PowerNeighborhoods(g, 4)
    row = list(pw.row(0))
    for idx, w in enumerate(row):
        assert pw.rank(0, w) == idx
    assert pw.rank(0, 6) is None  # antipodal vertex is 6 away


def test_rows_match_bfs_oracle(rm_desk):
    pw = PowerNeighborhoods(rm_desk, 4)
    ell = rm_desk.vertex_count
    block = graphs._BLOCK
    picks = random.Random(5).sample(range(ell), 12)
    for v in picks + [0, ell - 1, block - 1, block, 3 * block - 1, 3 * block]:
        dist = oracle_distances(rm_desk, v)
        row = pw.row(v)
        assert row.dtype == np.int64
        assert row.tolist() == sorted(w for w, d in dist.items() if 0 < d <= 4)


def test_metric_lives_as_long_as_its_graph(desk_params2):
    p = desk_params2
    others = [circulant_graph(40 + i, [1, 3]) for i in range(10)]
    metrics = [shared_power_neighborhoods(g) for g in others]
    assert all(shared_power_neighborhoods(g) is m for g, m in zip(others, metrics))
    assert shared_power_neighborhoods(p.r_m) is p.rm_pow
    assert shared_power_neighborhoods(p.r_z) is p.rz_pow


# -- parameters -------------------------------------------------------------------


def test_paper_params_constants():
    p = make_gamma_params(3, 10**6, Profile.PAPER)
    assert p.d == PAPER_D == 734
    assert p.z == PAPER_Z == 160 * 734**5
    assert p.m == 5 * 160 * 3 * 734**8 * 1000
    assert p.m <= p.ell_m <= 32 * p.m
    assert p.ell_z >= p.z
    assert p.r_m is None and p.r_z is None


def test_paper_params_refuse_queries():
    p = make_gamma_params(2, 100, Profile.PAPER)
    v = GammaVertex(x1=0, blocks=((0, 0, 0),))
    with pytest.raises(InfeasibleBuildError):
        gamma_adjacent(v, v, p)
    with pytest.raises(InfeasibleBuildError):
        decode_label("0" * 16, p)


def test_desk_params_shapes(desk_params3):
    p = desk_params3
    assert p.d == 6
    assert p.ell_m == p.ell_z == 12180
    assert p.subset_universe == 4 * 6**4 == 5184
    assert p.subset_bits == 5185
    assert p.x_bits == 14
    # width formula: x1 plus per-block x, subset, u fields
    assert p.label_bits == 14 + 2 * (14 + 5185 + 14)
    assert p.certificates["r_m"].all_ok


def test_desk_rejects_uncertifiable_substitute():
    with pytest.raises(CertificationError):
        make_gamma_params(2, 10, Profile.DESK, rm_graph=cycle_graph(6),
                          rz_graph=cycle_graph(6))


def test_param_validation():
    with pytest.raises(ArgumentError):
        make_gamma_params(1, 10, Profile.PAPER)
    with pytest.raises(ArgumentError):
        make_gamma_params(2, 0, Profile.PAPER)


def test_delta_two_has_single_block(desk_params2):
    rng = random.Random(0)
    v = random_gamma_vertex(rng, desk_params2)
    assert len(v.blocks) == 1
    validate_vertex(v, desk_params2)


# -- counting ---------------------------------------------------------------------


def test_desk_vertex_count_exact(desk_params2):
    p = desk_params2
    count = gamma_vertex_count(p)
    assert isinstance(count, int)
    assert count == p.ell_m**2 * 2**5185 * p.ell_z


def test_paper_count_is_scaled():
    p = make_gamma_params(3, 10**4, Profile.PAPER)
    count = gamma_vertex_count(p)
    assert isinstance(count, ScaledCount)
    expected_log10 = (
        math.log10(p.ell_m) + 2 * (math.log10(p.ell_m) + math.log10(p.ell_z))
        + 2 * p.subset_bits * math.log10(2))
    assert count.log10() == pytest.approx(expected_log10, rel=1e-12)


def test_paper_count_ratio_under_quadrupling():
    # four times the capacity costs at most a bounded factor per coordinate
    for delta in (2, 3):
        a = gamma_vertex_count(make_gamma_params(delta, 10**4, Profile.PAPER))
        b = gamma_vertex_count(make_gamma_params(delta, 4 * 10**4, Profile.PAPER))
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


# -- label codec --------------------------------------------------------------------


def test_codec_round_trip(desk_params3):
    rng = random.Random(9)
    for _ in range(50):
        v = random_gamma_vertex(rng, desk_params3)
        assert decode_label(encode_label(v, desk_params3), desk_params3) == v


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


def test_params_digest_distinguishes_configs(desk_params2, desk_params3):
    assert desk_params2.digest() != desk_params3.digest()


def test_count_log10_plain_int():
    assert count_log10(1000) == pytest.approx(3.0)
