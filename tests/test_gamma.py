import math
import random
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from induniv.errors import ArgumentError, CertificationError, CodecError, InfeasibleBuildError
from induniv.gamma import (
    DeskConfig,
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
from induniv import gamma, graphs
from induniv.embedder import embed
from induniv.graphs import Graph, circulant_graph, cycle_graph, path_graph
from induniv.lps import LpsParams, certify_expander
from instances import random_close_gamma_pair, random_gamma_vertex
from oracles import (
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
    batched = PowerNeighborhoods(rm_desk, 4)
    ell = rm_desk.vertex_count
    block = graphs._FILL_GROUP
    picks = random.Random(5).sample(range(ell), 12)
    picks += [0, ell - 1, block - 1, block, 3 * block - 1, 3 * block]
    batched.close_pairs(picks)  # one batched fill of every pick
    for v in picks:
        dist = oracle_distances(rm_desk, v)
        row = pw.row(v)
        assert row.dtype == np.uint16  # ids below 2**16 are held in two bytes
        assert row.tolist() == sorted(w for w, d in dist.items() if 0 < d <= 4)
        assert batched._cache[v].tobytes() == row.tobytes()


def _scalar_close_pairs(pw, xs):
    return [(a, b, pw.rank(xs[a], xs[b])) for a in range(len(xs)) for b in range(len(xs))
            if a != b and pw.contains(xs[a], xs[b])]


def _listed(pairs):
    a, b, r = pairs
    assert a.dtype == b.dtype == r.dtype == np.int64
    return list(zip(a.tolist(), b.tolist(), r.tolist()))


def test_close_pairs_match_scalar_queries(rm_desk):
    pw = PowerNeighborhoods(rm_desk, 4)
    block = graphs._FILL_GROUP
    near = pw.row(block).tolist()
    # repeated images, and ids on both sides of two multiples of the fill group
    xs = [block - 1, block, block, 2 * block - 1, 2 * block, block - 1, near[0],
          near[-1], near[0], 0, rm_desk.vertex_count - 1, block]
    assert _listed(pw.close_pairs(xs)) == _scalar_close_pairs(pw, xs)
    rng = random.Random(11)
    circ = circulant_graph(70, [1, 5])
    small = PowerNeighborhoods(circ, 2)
    for _ in range(20):
        ys = [rng.randrange(70) for _ in range(rng.randint(2, 40))]
        assert _listed(small.close_pairs(ys)) == _scalar_close_pairs(small, ys)


def test_rows_exist_only_for_the_vertices_asked_about(rm_desk):
    pw = PowerNeighborhoods(rm_desk, 4)
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


def test_close_pairs_fill_only_their_images(rm_desk):
    ell = rm_desk.vertex_count
    rng = random.Random(7)
    xs = rng.sample(range(ell), 70) + [0, ell - 1]
    xs += [rng.choice(xs) for _ in range(20)]  # repeated images
    rng.shuffle(xs)
    cold = PowerNeighborhoods(rm_desk, 4)
    got = _listed(cold.close_pairs(xs))
    assert len(cold._cache) == len(set(xs))
    warm = PowerNeighborhoods(rm_desk, 4)
    for v in xs:
        warm.row(v)
    assert got == _listed(warm.close_pairs(xs))
    # a second call on the warm rows adds none
    assert _listed(cold.close_pairs(xs)) == got and len(cold._cache) == len(set(xs))


def test_batched_fills_match_bfs_oracle(rm_desk):
    ell = rm_desk.vertex_count
    block = graphs._FILL_GROUP
    rng = random.Random(8)
    xs = rng.sample(range(ell), 2 * block + 5) + [0, ell - 1, 0, ell - 1]
    xs += xs[:7]
    rng.shuffle(xs)
    pw = PowerNeighborhoods(rm_desk, 4)
    pw.row(xs[3])  # one image already held, the rest missing
    pw.close_pairs(xs)
    assert len(set(xs)) - 1 > 2 * block  # the misses span three groups
    for v in set(xs):
        dist = oracle_distances(rm_desk, v)
        row = pw._cache[v]
        assert row.typecode == "H"
        assert row.tolist() == sorted(w for w, d in dist.items() if 0 < d <= 4)
    circ = circulant_graph(70, [1, 5])
    small = PowerNeighborhoods(circ, 2)
    small.close_pairs(list(range(70)) * 2)
    assert len(small._cache) == 70
    for v in range(70):
        dist = oracle_distances(circ, v)
        assert small.row(v).tolist() == sorted(w for w, d in dist.items() if 0 < d <= 2)


def test_rows_past_two_byte_ids_match_bfs_oracle():
    # ids above 65,535 do not fit two bytes, so rows take four
    n = 70_000
    circ = circulant_graph(n, [1, 5])
    pw = PowerNeighborhoods(circ, 4)
    xs = [65_535, 65_536, 65_540, 65_531, 65_556, 0, n - 1, n - 20, 40_000, 40_000, 40_021]
    assert _listed(pw.close_pairs(xs)) == _scalar_close_pairs(pw, xs)
    assert sorted(pw._cache) == sorted(set(xs))
    for v in set(xs):
        expected = sorted(w for w, d in oracle_distances(circ, v).items() if 0 < d <= 4)
        assert pw._cache[v].typecode == "i"
        assert pw.row(v).tolist() == expected
        assert [pw.rank(v, w) for w in expected] == list(range(len(expected)))
        assert all(pw.contains(v, w) for w in expected)
        assert not pw.contains(v, (v + 21) % n) and pw.rank(v, (v + 21) % n) is None
        assert not pw.contains(v, v)


def test_close_pairs_span_several_chunks(rm_desk):
    pw = PowerNeighborhoods(rm_desk, 4)
    assert 300 > graphs._PAIR_CHUNK // 300  # more than one chunk of positions
    rng = random.Random(12)
    centers = rng.sample(range(rm_desk.vertex_count), 2)
    xs = [int(rng.choice(pw.row(rng.choice(centers)))) for _ in range(300)]
    assert _listed(pw.close_pairs(xs)) == _scalar_close_pairs(pw, xs)


def test_close_pairs_of_short_lists(rm_desk):
    pw = PowerNeighborhoods(rm_desk, 4)
    assert _listed(pw.close_pairs([])) == []
    assert _listed(pw.close_pairs([17])) == []
    assert _listed(pw.close_pairs([17, 17])) == []


def test_close_pairs_reject_out_of_range_ids(rm_desk):
    pw = PowerNeighborhoods(rm_desk, 4)
    with pytest.raises(ArgumentError):
        pw.close_pairs([0, rm_desk.vertex_count])
    with pytest.raises(ArgumentError):
        pw.close_pairs([-1, 3])


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


def test_desk_rejects_uncertifiable_substitute(monkeypatch):
    failing = certify_expander(cycle_graph(6), LpsParams(5, 29))
    assert not failing.all_ok
    monkeypatch.setattr(gamma, "cached_lps_certificate", lambda p, q: failing)
    with pytest.raises(CertificationError, match="r_m failed certification"):
        make_gamma_params(2, 10, Profile.DESK)


def test_desk_hosts_must_share_their_degree():
    with pytest.raises(ArgumentError, match="fields rm_pq and rz_pq must share p"):
        DeskConfig(rz_pq=(13, 17))
    with pytest.raises(ArgumentError, match="fields rm_pq and rz_pq must share p"):
        make_gamma_params(2, 10, "desk", {"rm_pq": (13, 17)})


def test_default_hosts_share_one_graph_and_one_metric(desk_params2):
    # only the lru caches keep R_m and R_z one graph, so check they do
    p = desk_params2
    assert p.r_m is p.r_z and p.rm_pow is p.rz_pow
    other = make_gamma_params(2, 30, "desk", {"rz_pq": (5, 61)})
    assert other.r_m is p.r_m and other.rm_pow is p.rm_pow
    assert other.r_z is not other.r_m and other.rz_pow is not other.rm_pow
    assert other.ell_z == 61 * (61**2 - 1) // 2


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


@lru_cache(maxsize=None)
def _codec_params(delta):
    return make_gamma_params(delta, 30, "desk")


def _draw_vertex(draw, params):
    x = st.integers(0, params.ell_m - 1)
    mask = st.integers(0, (1 << params.subset_bits) - 1)
    u = st.integers(0, params.ell_z - 1)
    blocks = tuple((draw(x), draw(mask), draw(u)) for _ in range(params.delta - 1))
    return GammaVertex(x1=draw(x), blocks=blocks)


@st.composite
def _codec_cases(draw):
    params = _codec_params(draw(st.sampled_from([2, 3, 4, 5])))
    return params, _draw_vertex(draw, params)


def test_payload_digit_counts():
    # (5, 29) gives 14-bit coordinates and 5185-bit subsets; both parities occur
    digits = {}
    for delta in (2, 3, 4, 5):
        v = GammaVertex(x1=0, blocks=((0, 0, 0),) * (delta - 1))
        digits[delta] = len(encode_label(v, _codec_params(delta))) - 8
    assert digits == {2: 1307, 3: 2610, 4: 3914, 5: 5217}


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
def test_a_set_pad_bit_is_rejected(delta):
    params = _codec_params(delta)
    pad = -params.label_bits % 4
    assert pad > 0
    label = encode_label(random_gamma_vertex(random.Random(delta), params), params)
    for bit in {3, 4 - pad}:  # the highest and the lowest pad bit of the first digit
        first = format(int(label[8], 16) | 1 << bit, "x")
        with pytest.raises(CodecError, match="payload wider than its declared width"):
            decode_label(label[:8] + first + label[9:], params)


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
    v = GammaVertex(x1=5, blocks=((7, 3, 9),))  # x1 < 2^7: the payload starts with "00"
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
    pad = -params.label_bits % 4
    for bit in range(4 - pad, 4):
        bad[f"pad bit {bit}"] = label[:8] + format(int(label[8], 16) | 1 << bit, "x") + label[9:]
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
    assert len(bad) == 5 + 2 * len(_LAX_FORMS) + -params.label_bits % 4 + 2 * delta - 1
    for defect, label in bad.items():
        why = _codec_error(decode_label, label, params)
        assert why is not None, defect
        assert _codec_error(adjacency_from_labels, label, good, params) == why, defect
        assert _codec_error(adjacency_from_labels, good, label, params) == why, defect


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
    ("rm_pq", 5), ("rm_pq", [5]), ("rz_pq", [5, "29"]), ("walk_budget", 2.5),
    ("walk_budget", True), ("walk_budget", -5),
])
def test_desk_config_rejects_a_field_of_the_wrong_type(field, value):
    with pytest.raises(ArgumentError, match=f"desk config field {field} must be"):
        DeskConfig.from_json({**DeskConfig().to_json(), field: value})
    if isinstance(value, list):
        value = tuple(value)
    with pytest.raises(ArgumentError, match=f"desk config field {field} must be"):
        make_gamma_params(2, 30, "desk", {field: value})


@pytest.mark.parametrize("overrides", [{"sigma_cap": 3}, {"walk_budget": 10, 7: 1}])
def test_desk_overrides_name_a_key_that_is_not_a_field(overrides):
    bad = next(k for k in overrides if k != "walk_budget")
    with pytest.raises(ArgumentError, match=f"desk config has no field {bad}$"):
        make_gamma_params(2, 30, "desk", overrides)


def test_desk_config_takes_json_numbers():
    cfg = DeskConfig.from_json({"walk_budget": 0, "rm_pq": [5, 29]})
    assert (cfg.walk_budget, cfg.rm_pq, cfg.rz_pq) == (0, (5, 29), (5, 29))


def test_desk_config_holds_the_hosts_and_the_walk_budget(desk_params2):
    # every cap follows from the hosts and (delta, n); none is configured
    assert list(DeskConfig().to_json()) == ["rm_pq", "rz_pq", "walk_budget"]
    assert list(desk_params2.to_json()["desk"]) == ["rm_pq", "rz_pq", "walk_budget"]
    assert desk_params2.sigma_cap_for(30) == max(2 * desk_params2.d, 4 * 5 + 4)
    assert desk_params2.usage_cap_for(30) == 40


@pytest.mark.parametrize("delta, n", [(2.5, 30), (2, 30.0), (2, "30"), (True, 30)])
def test_params_reject_sizes_that_are_not_integers(delta, n):
    name = "delta" if not isinstance(delta, int) or isinstance(delta, bool) else "n"
    with pytest.raises(ArgumentError, match=f"{name} must be an integer"):
        make_gamma_params(delta, n, "desk")


def test_params_digest_distinguishes_configs(desk_params2, desk_params3):
    assert desk_params2.digest() != desk_params3.digest()


def test_count_log10_plain_int():
    assert count_log10(1000) == pytest.approx(3.0)
