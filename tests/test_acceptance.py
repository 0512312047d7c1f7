"""Acceptance suite: one criterion per test, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
are produced. Every tolerance and budget is pinned here, not configurable.
"""

import math
import random
import time

import pytest

from induniv.gamma import (
    GammaVertex,
    adjacency_from_labels,
    decode_label,
    encode_label,
    gamma_adjacent,
    gamma_vertex_count,
    paper_sizes,
)
from induniv.graphs import Graph, circulant_graph, complete_graph
from induniv.harness import FamilySpec, enumerate_family, universality_sweep
from induniv.lps import build_lps_graph, certify_expander, LpsParams
from induniv.thin import (
    is_thin,
    layout_thin,
    thin_decompose,
    validate_decomposition,
    validate_layout,
)
from induniv import walks
from induniv.walks import build_walk_map, verify_walk_map
from instances import (
    inject_walk_fault,
    random_close_gamma_pair,
    random_gamma_vertex,
    random_walk_instance,
)
from oracles import is_q_expanding, oracle_q_expanding


def _report(number: int, name: str, ok: bool, elapsed: float, budget: float):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {number} ({name}): {status} [{elapsed:.1f}s / {budget:.0f}s]")
    assert ok, f"criterion {number} ({name}) failed"
    assert elapsed < budget, f"criterion {number} exceeded its {budget:.0f}s budget"


def test_criterion_1_lps_construction():
    t0 = time.time()
    params = LpsParams(5, 29)
    g = build_lps_graph(params)
    ok = g.vertex_count == 12180
    ok &= g.is_regular() and g.degree(0) == 6
    ok &= g.is_connected()
    ok &= not g.is_bipartite()
    cert = certify_expander(g, params)
    ok &= cert.second_eigenvalue_bound <= 2 * math.sqrt(5) + 1e-4
    girth_bound = math.ceil(0.5 * math.log(12180) / math.log(5))
    ok &= girth_bound == 3 and cert.girth_found >= 3
    _report(1, "lps construction", ok, time.time() - t0, 120)


def test_criterion_2_expanding_oracle_equivalence():
    t0 = time.time()
    rng = random.Random(2024)
    agreements = 0
    outcomes = {True: 0, False: 0}
    for i in range(200):
        if i % 2 == 0:
            # dense small hosts: the expanding property is attainable here
            n = rng.randrange(6, 13)
            p_edge = 0.5 + 0.4 * rng.random()
            edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < p_edge}
        else:
            # sparse tree-based hosts up to 40 vertices
            n = rng.randrange(6, 41)
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            for _ in range(rng.randrange(0, n)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
        g = Graph(n, edges)
        q = rng.randrange(1, 4)
        sets = [{rng.randrange(n) for _ in range(rng.randrange(0, n // 8 + 1))}
                for _ in range(q)]
        v = rng.randrange(n)
        got = is_q_expanding(g, v, sets, q)
        outcomes[got] += 1
        if got == oracle_q_expanding(g, v, sets, q):
            agreements += 1
    ok = agreements == 200 and outcomes[True] >= 20 and outcomes[False] >= 20
    _report(2, "expanding-vertex oracle equivalence", ok, time.time() - t0, 60)


def test_criterion_3_walk_lemma_properties(monkeypatch):
    t0 = time.time()
    rng = random.Random(31)
    monkeypatch.setattr(walks, "SEARCH_BUDGET", 1_000_000)
    built = verified = detected = injected = 0
    for i in range(500):
        host, schedule, caps = random_walk_instance(rng)
        walk = build_walk_map(host, schedule, **caps)
        built += 1
        if not verify_walk_map(host, schedule, walk, caps["usage_cap"]):
            verified += 1
        kind = ("separation", "blocks", "usage")[i % 3]
        if kind == "separation" and not schedule.sigma:
            kind = "blocks"
        injected += 1
        bad = inject_walk_fault(rng, host, schedule, walk, kind)
        if any(v.kind == kind for v in verify_walk_map(host, schedule, bad, caps["usage_cap"])):
            detected += 1
    ok = built == verified == 500 and detected == injected == 500
    _report(3, "walk construction properties", ok, time.time() - t0, 180)


@pytest.fixture(scope="module")
def subcubic_decompositions():
    out = []
    for n in range(1, 9):
        for h in enumerate_family(FamilySpec(n, 3)):
            out.append((h, thin_decompose(h, 3)))
    return out


def test_criterion_4_decomposition_contract(subcubic_decompositions):
    t0 = time.time()
    ok = all(
        not validate_decomposition(h, dec) for h, dec in subcubic_decompositions)
    regular_inputs = [complete_graph(5), circulant_graph(8, (1, 2)),
                      circulant_graph(10, (1, 3)), circulant_graph(12, (1, 5))]
    for g in regular_inputs:
        assert set(g.degrees()) == {4}
        dec = thin_decompose(g, 4)
        ok &= not validate_decomposition(g, dec)
        ok &= all(set(p.degrees()) == {2} for p in dec.parts)
    _report(4, "decomposition contract", ok, time.time() - t0, 300)


def test_criterion_5_layout_bound(subcubic_decompositions):
    t0 = time.time()
    violations = 0
    for h, dec in subcubic_decompositions:
        for part in dec.parts:
            assert is_thin(part)
            layout = layout_thin(part)
            violations += len(validate_layout(part, layout))
    _report(5, "layout stretch bound", violations == 0, time.time() - t0, 300)


def test_criterion_6_universality_sweep(desk_params3):
    t0 = time.time()
    total = embedded = 0
    failures = []
    for n in range(1, 8):
        report = universality_sweep(FamilySpec(n, 3), desk_params3)
        total += report.total
        embedded += report.embedded
        failures.extend(report.failures)
    ok = total == 253 and embedded == total and not failures
    _report(6, "universality at desk scale", ok, time.time() - t0, 600)


def test_criterion_7_size_scaling():
    t0 = time.time()
    ok = True
    for delta in (2, 3, 4, 5):
        ratios = []
        for k in range(2, 9):
            sizes = paper_sizes(delta, 10**k)
            ratios.append(gamma_vertex_count(sizes).log10() - (delta / 2) * k)
        ok &= (max(ratios) - min(ratios)) <= 4.0  # a factor of 10^4
    _report(7, "size scaling at formula level", ok, time.time() - t0, 1)


def test_criterion_8_oracle_properties(desk_params3):
    t0 = time.time()
    params = desk_params3
    rng = random.Random(88)
    ok = True
    monotone_checked = 0
    for i in range(100_000):
        if i % 5 == 0:
            a, b = random_close_gamma_pair(rng, params)
        else:
            a = random_gamma_vertex(rng, params)
            b = random_gamma_vertex(rng, params)
        ab = gamma_adjacent(a, b, params)
        if ab != gamma_adjacent(b, a, params):
            ok = False
            break
        if i % 10 == 0 and gamma_adjacent(a, a, params):
            ok = False
            break
        if ab:
            grown = GammaVertex(
                x1=a.x1,
                blocks=tuple((x, mask | rng.getrandbits(params.subset_bits), u)
                             for x, mask, u in a.blocks))
            if not gamma_adjacent(grown, b, params):
                ok = False
                break
            monotone_checked += 1
        la = encode_label(a, params)
        lb = encode_label(b, params)
        if decode_label(la, params) != a or decode_label(lb, params) != b:
            ok = False
            break
        if adjacency_from_labels(la, lb, params) != ab:
            ok = False
            break
    ok &= monotone_checked > 1000
    _report(8, "product-graph oracle properties", ok, time.time() - t0, 60)
