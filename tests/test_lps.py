import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import induniv
from induniv import lps
from induniv.errors import (
    ArgumentError, ConstructionIntegrityError, ConvergenceError, ExhaustedSearchError)
from induniv.graphs import Graph, circulant_graph, complete_graph, cycle_graph, disjoint_union
from induniv.lps import (
    LpsParams,
    Psl2,
    build_lps_graph,
    cached_lps_certificate,
    cached_lps_graph,
    certify_expander,
    find_lps_params,
    integer_cbrt,
    is_prime,
    legendre_symbol,
    lps_generators,
    quaternion_norm_solutions,
    second_eigenvalue,
    sqrt_minus_one,
)
from oracles import oracle_lps_graph, oracle_psl2_elements, oracle_second_eigenvalue, to_networkx


def test_primality_and_legendre():
    primes = [2, 3, 5, 13, 29, 733, 104729]
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(n) for n in (0, 1, 4, 15, 733 * 5))
    # Euler criterion against explicit squares mod 29
    squares = {x * x % 29 for x in range(1, 29)}
    for a in range(1, 29):
        assert (legendre_symbol(a, 29) == 1) == (a in squares)


def test_sqrt_minus_one():
    for q in (5, 13, 17, 29, 41):
        x = sqrt_minus_one(q)
        assert x * x % q == q - 1


def test_integer_cbrt():
    for n in (0, 1, 7, 8, 26, 27, 10**12, 8 * 160 * 734**5):
        c = integer_cbrt(n)
        assert c**3 <= n < (c + 1) ** 3


def test_integer_cbrt_is_exact_past_the_float_range():
    # n ** (1/3) overflows a float near 1.8e308, and its error grows with n
    assert integer_cbrt(10**600) == 10**200
    assert integer_cbrt(10**600 - 1) == 10**200 - 1


@pytest.mark.parametrize("p", [5, 13, 17, 29])
def test_quaternion_solution_count(p):
    assert len(quaternion_norm_solutions(p)) == p + 1


def test_find_lps_params_examples():
    # q = 13 and 17 fail the residue test for p = 5; 29 is the first hit
    assert legendre_symbol(5, 13) == -1
    assert legendre_symbol(5, 17) == -1
    params = find_lps_params(5, 1)
    assert params.q == 29
    assert params.vertex_count == 29 * 840 // 2 == 12180
    # next admissible prime once 20000 vertices are required
    assert find_lps_params(5, 20000).q == 41


def test_find_lps_params_arithmetic_progression():
    params = find_lps_params(5, 1, residue_class_modulus=16)
    assert params.q % 16 == 1
    assert legendre_symbol(5, params.q) == 1


def test_find_lps_params_exhaustion():
    with pytest.raises(ExhaustedSearchError):
        find_lps_params(5, 10**9, search_ceiling=100)


def test_lps_params_validation():
    with pytest.raises(ArgumentError):
        LpsParams(5, 13)  # 5 is not a residue mod 13
    with pytest.raises(ArgumentError):
        LpsParams(7, 29)  # 7 = 3 mod 4
    with pytest.raises(ArgumentError):
        LpsParams(5, 5)
    with pytest.raises(ArgumentError):
        LpsParams(13, 5)  # q too small against 2 sqrt(p)


def test_build_small_lps_graph():
    g = build_lps_graph(13, 17)
    assert g.vertex_count == 17 * (17 * 17 - 1) // 2 == 2448
    assert g.is_regular() and g.degree(0) == 14
    assert g.is_connected()
    assert not g.is_bipartite()
    assert g.girth() == 6  # golden value
    # independent structural oracles
    gn = to_networkx(g)
    assert nx.is_connected(gn)
    assert not nx.is_bipartite(gn)
    girth = nx.girth(gn)
    assert girth == 6
    cert = certify_expander(g, LpsParams(13, 17))
    assert cert.vertex_transitive and cert.girth_found == girth


def test_build_lps_deterministic():
    a = build_lps_graph(13, 17)
    b = build_lps_graph(LpsParams(13, 17))
    assert a == b


@pytest.mark.parametrize("p,q", [(5, 29), (13, 17)])
def test_generator_set_closed_under_inverses(p, q):
    # undirectedness of the Cayley graph rests on this closure
    from induniv.lps import _canonical, quaternion_norm_solutions

    ii = sqrt_minus_one(q)
    gens = set()
    for a, b, c, d in quaternion_norm_solutions(p):
        mat = ((a + b * ii) % q, (c + d * ii) % q,
               (-c + d * ii) % q, (a - b * ii) % q)
        gens.add(_canonical(mat, q))
    assert len(gens) == p + 1
    for (a, b, c, d) in gens:
        det = (a * d - b * c) % q
        inv_det = pow(det, q - 2, q)
        inv = (d * inv_det % q, -b * inv_det % q, -c * inv_det % q, a * inv_det % q)
        assert _canonical(inv, q) in gens


def test_second_eigenvalue_k4():
    assert second_eigenvalue(complete_graph(4)) == pytest.approx(1.0, abs=1e-9)


def test_second_eigenvalue_c6():
    # spectrum 2cos(pi k / 3); the +-2 pair is trivial for a bipartite cycle
    assert second_eigenvalue(cycle_graph(6)) == pytest.approx(
        oracle_second_eigenvalue(cycle_graph(6)), abs=1e-9)
    assert second_eigenvalue(cycle_graph(6)) == pytest.approx(1.0, abs=1e-9)


def test_second_eigenvalue_of_k1_and_k2_is_zero():
    # every eigenvalue is trivial: K1's 0 (K1 counts as bipartite) and K2's +-1
    for g in (complete_graph(1), complete_graph(2)):
        assert second_eigenvalue(g) == 0.0 == oracle_second_eigenvalue(g)
    # three vertices leave the iteration one nontrivial eigenvalue
    assert second_eigenvalue(complete_graph(3)) == pytest.approx(1.0, abs=1e-9)


def test_second_eigenvalue_matches_dense_oracle_midsize():
    g = circulant_graph(120, (1, 3, 9))
    assert second_eigenvalue(g) == pytest.approx(oracle_second_eigenvalue(g), abs=1e-5)


def _arpack_second_eigenvalue(g):
    """ARPACK's three largest-magnitude eigenvalues with the trivial ones
    dropped: a reference independent of the Lanczos in the package."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.linalg import eigsh

    n, d = g.vertex_count, g.degree(0)
    a = csr_matrix((np.ones(n * d), g.neighbor_table().reshape(-1), np.arange(n + 1) * d),
                   shape=(n, n))
    vals = sorted(eigsh(a, k=3, which="LM", tol=1e-12, return_eigenvectors=False),
                  key=abs, reverse=True)
    for t in [d] + ([-d] if g.is_bipartite() else []):
        vals.pop(min(range(len(vals)), key=lambda i: abs(vals[i] - t)))
    return max(abs(v) for v in vals)


def _hypercube(k):
    n = 1 << k
    return Graph(n, [(v, v ^ (1 << i)) for v in range(n) for i in range(k) if v < v ^ (1 << i)])


@pytest.mark.parametrize("p, q", [(5, 29), (13, 17)])
def test_second_eigenvalue_matches_arpack_on_lps_graphs(p, q):
    g = cached_lps_graph(p, q)
    lam = second_eigenvalue(g)
    assert lam == pytest.approx(_arpack_second_eigenvalue(g), abs=1e-8)
    assert lam < 2 * math.sqrt(p)
    if g.vertex_count < 3000:
        assert lam == pytest.approx(oracle_second_eigenvalue(g), abs=1e-8)


def test_second_eigenvalue_drops_both_trivial_eigenvalues_of_a_bipartite_graph():
    cube = _hypercube(7)
    for g in (cube, cycle_graph(130)):
        assert g.is_bipartite() and g.vertex_count > 64
        lam = second_eigenvalue(g)
        assert lam == pytest.approx(oracle_second_eigenvalue(g), abs=1e-8)
        assert lam == pytest.approx(_arpack_second_eigenvalue(g), abs=1e-8)
    # the 7-cube has spectrum 7 - 2k; +-7 are trivial, so the answer is 5
    assert second_eigenvalue(cube) == pytest.approx(5.0, abs=1e-9)


def test_second_eigenvalue_is_deterministic():
    g = cached_lps_graph(5, 29)
    first = second_eigenvalue(g)
    assert second_eigenvalue(g) == first
    assert second_eigenvalue(build_lps_graph(5, 29)) == first


def test_second_eigenvalue_does_not_follow_the_blas_thread_count():
    # the Lanczos inner products make no BLAS call, so a BLAS that splits
    # long vectors across threads cannot move the last digit
    script = ("from induniv.lps import cached_lps_graph, second_eigenvalue\n"
              "print(repr(second_eigenvalue(cached_lps_graph(5, 29))))\n")
    src = str(Path(induniv.__file__).parents[1])
    values = {threads: subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)).stdout
        for threads in ("1", "2")}
    assert values["1"] == values["2"] and float(values["1"]) > 0


def test_second_eigenvalue_reports_non_convergence():
    # the Krylov space of C101 is complete after 100 steps, and no residual
    # reaches 1e-300
    with pytest.raises(ConvergenceError) as err:
        second_eigenvalue(cycle_graph(101), tolerance=1e-300)
    assert err.value.payload["steps"] == 100


def _eigen_outcome(g, **kw):
    try:
        return second_eigenvalue(g, **kw)
    except ConvergenceError as exc:
        return exc.payload


_EIGEN_CASES = {
    "C6": lambda: (cycle_graph(6), {}),
    "K4": lambda: (complete_graph(4), {}),
    "circulant": lambda: (circulant_graph(200, (1, 7, 30)), {}),
    "C130": lambda: (cycle_graph(130), {}),
    "lps-13-17": lambda: (cached_lps_graph(13, 17), {}),
    "lps-5-29": lambda: (cached_lps_graph(5, 29), {}),
    "no-convergence": lambda: (cycle_graph(101), {"tolerance": 1e-300}),
    "loose": lambda: (cycle_graph(101), {"tolerance": 1e-3}),
}


@pytest.mark.parametrize("case", list(_EIGEN_CASES))
def test_testing_every_kth_step_gives_the_value_of_testing_every_step(monkeypatch, case):
    # the first step that converges is found among the last k, so the value,
    # or the failure's payload, is bit for bit that of a test at every step
    g, kw = _EIGEN_CASES[case]()
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda m: calls.append(len(m)) or eigh(m))
    sparse = _eigen_outcome(g, **kw)
    sparse_calls = len(calls)
    monkeypatch.setattr(lps, "_LANCZOS_CHECK_EVERY", 1)
    calls.clear()
    assert _eigen_outcome(g, **kw) == sparse
    assert sparse_calls <= len(calls)
    if len(calls) > 2 * lps._LANCZOS_CHECK_EVERY:
        assert sparse_calls < len(calls) / 2


def test_second_eigenvalue_rejects_bad_input():
    with pytest.raises(ArgumentError):
        second_eigenvalue(Graph(3, [(0, 1)]))  # not regular
    with pytest.raises(ArgumentError):
        second_eigenvalue(disjoint_union(cycle_graph(3), cycle_graph(3)))
    with pytest.raises(ArgumentError):
        second_eigenvalue(complete_graph(4), tolerance=0)


def test_certify_small_lps():
    params = LpsParams(13, 17)
    cert = certify_expander(build_lps_graph(params), params)
    assert cert.all_ok
    assert cert.vertex_count_ok and cert.non_bipartite and cert.connected
    assert cert.second_eigenvalue_bound <= 2 * math.sqrt(13) + 1e-4
    assert cert.girth_found == 6
    payload = cert.to_json()
    assert payload["ramanujan_ok"] and payload["all_ok"]


def test_certify_c4_reports_bipartite():
    cert = certify_expander(cycle_graph(4), LpsParams(5, 29))
    assert not cert.non_bipartite
    assert not cert.ramanujan_ok and not cert.all_ok
    assert cert.connected


def test_certify_disconnected():
    g = disjoint_union(cycle_graph(3), cycle_graph(3))
    cert = certify_expander(g, LpsParams(5, 29))
    assert not cert.connected
    assert not cert.all_ok


# -- the numpy Cayley build against the tuple-product builder ---------------------


@pytest.mark.parametrize("p,q", [(5, 29), (13, 17), (17, 13)])
def test_build_matches_reference_builder(p, q):
    new, old = build_lps_graph(p, q), oracle_lps_graph(p, q)
    assert new == old and hash(new) == hash(old)
    assert new.edge_count == old.edge_count


@pytest.mark.parametrize("p,q", [(13, 17), (17, 13)])
def test_elements_and_generators_match_their_definition(p, q):
    elements = oracle_psl2_elements(q)
    assert [tuple(e) for e in Psl2(q).elements.tolist()] == elements
    # the generators are the neighbours of the identity in the reference graph
    ref = oracle_lps_graph(p, q)
    identity = elements.index((1, 0, 0, 1))
    assert lps_generators(LpsParams(p, q)) == sorted(elements[w] for w in ref.neighbors(identity))


def test_products_follow_matrix_multiplication():
    q = 13
    group = Psl2(q)
    elements = [tuple(e) for e in group.elements.tolist()]
    s = (1, 2, 3, 5)  # det 5 - 6 = -1 = 5^2 mod 13
    for left in (False, True):
        ids = group.multiply(s, left=left).tolist()
        for m in (0, 1, 500, len(elements) - 1):
            a, b = (s, elements[m]) if left else (elements[m], s)
            prod = ((a[0] * b[0] + a[1] * b[2]) % q, (a[0] * b[1] + a[1] * b[3]) % q,
                    (a[2] * b[0] + a[3] * b[2]) % q, (a[2] * b[1] + a[3] * b[3]) % q)
            assert elements[ids[m]] == lps._canonical(prod, q)
    with pytest.raises(ConstructionIntegrityError):
        group.multiply((1, 0, 0, 2))  # det 2 is not a square mod 13


def test_builder_rejects_degenerate_generators(monkeypatch):
    gens = lps_generators(LpsParams(13, 17))
    # a self-loop (the set still has 14 members), a repeated neighbour (13)
    for bad, size in (((1, 0, 0, 1), 14), (gens[0], 13)):
        monkeypatch.setattr(lps, "lps_generators", lambda params: gens[:-1] + [bad])
        with pytest.raises(ConstructionIntegrityError,
                           match=rf"vertex 0 has degenerate neighbor set \(size {size}\)"):
            build_lps_graph(13, 17)
    # a set that is not closed under inverses gives a directed relation
    a, b, c, d = gens[0]
    square = lps._canonical((a * a + b * c, a * b + b * d, c * a + d * c, c * b + d * d), 17)
    monkeypatch.setattr(lps, "lps_generators", lambda params: gens[:-1] + [square])
    with pytest.raises(ConstructionIntegrityError, match="not symmetric"):
        build_lps_graph(13, 17)


# -- girth from one BFS, after a transitivity proof --------------------------------


@pytest.mark.parametrize("p,q", [(5, 29), (13, 17)])
def test_certificate_girth_is_the_all_source_girth(p, q):
    g = cached_lps_graph(p, q)
    cert = certify_expander(g, LpsParams(p, q))
    assert cert.all_ok and cert.vertex_transitive is True
    assert cert.girth_found == g.girth()  # at (13, 17) also nx.girth: test_build_small_lps_graph


def _two_switch(g: Graph) -> Graph:
    """Swap (a, b), (c, d) for (a, c), (b, d) where a and c have a common
    neighbour x, which leaves the triangle a, x, c; far from vertex 0."""
    dist = g.bfs_distances(0)
    a = dist.index(max(dist))
    b, x = g.neighbors(a)[:2]
    for c in g.neighbors(x):
        if c in (a, b) or g.has_edge(a, c):
            continue
        for d in g.neighbors(c):
            if d not in (a, b, x) and not g.has_edge(b, d):
                edges = set(g.edges()) - {tuple(sorted(e)) for e in ((a, b), (c, d))}
                return Graph(g.vertex_count, edges | {(min(a, c), max(a, c)),
                                                      (min(b, d), max(b, d))})
    raise AssertionError("no 2-switch found")


def test_two_switch_fails_the_lps_certificate():
    params = LpsParams(13, 17)
    g = _two_switch(cached_lps_graph(13, 17))
    assert g.is_regular() and g.degree(0) == 14 and g.is_connected()
    assert g.girth_through(0) == 6  # one BFS from vertex 0 would miss the triangle
    cert = certify_expander(g, params)
    assert cert.vertex_transitive is False and not cert.girth_ok and not cert.all_ok
    assert cert.girth_found is None
    assert any("not an automorphism" in note for note in cert.notes)
    assert cert.to_json()["vertex_transitive"] is False


def test_transitivity_needs_the_whole_orbit(monkeypatch):
    # left multiplication by one generator is an automorphism, but its
    # powers reach only a few vertices, so the girth stays undecided
    g, gens = cached_lps_graph(13, 17), lps_generators(LpsParams(13, 17))
    monkeypatch.setattr(lps, "lps_generators", lambda params: gens[:1])
    cert = certify_expander(g, LpsParams(13, 17))
    assert cert.vertex_transitive is False and cert.girth_found is None
    assert any("carry vertex 0 to only" in note for note in cert.notes)


def test_lps_certificate_needs_the_lps_vertex_set():
    cert = certify_expander(cached_lps_graph(17, 13), LpsParams(13, 17))
    assert cert.vertex_transitive is False and not cert.all_ok
    assert any("transitivity needs a 14-regular graph on 2448 vertices" in note
               for note in cert.notes)


def test_lps_certificate_does_not_search_every_vertex(monkeypatch):
    def refuse(self):
        raise AssertionError("all-source girth called")

    monkeypatch.setattr(Graph, "girth", refuse)
    cert = certify_expander(cached_lps_graph(5, 29), LpsParams(5, 29))
    assert cert.all_ok and cert.girth_found == 9 and cert.vertex_transitive


def test_certificate_of_the_kept_table_matches_the_edges(rm_desk):
    # the build keeps its neighbour table; an edge-built copy has none
    plain = Graph(rm_desk.vertex_count, rm_desk.edges())
    params = LpsParams(5, 29)
    assert certify_expander(rm_desk, params) == certify_expander(plain, params)
    assert lps.psl2(29) is lps.psl2(29)  # one enumeration for build and certificate


# Captured before the hosts kept their neighbour table alone: the certificate
# must keep every key and float, and the graph every edge. The edges are
# pinned by a digest of their sorted list, not of the table's bytes, so the
# table's dtype is free.
_CERTIFICATE_PINS = {
    (5, 29): {"degree": 6, "vertices": 12180, "regular": True, "connected": True,
              "non_bipartite": True, "girth": 9, "girth_bound": 2.9226198999612194,
              "girth_ok": True, "vertex_transitive": True, "lambda2": 4.442016442593794,
              "eigenvalue_threshold": 4.472235954999579, "eigenvalue_ok": True,
              "ramanujan_ok": True, "all_ok": True, "notes": []},
    (5, 61): {"degree": 6, "vertices": 113460, "regular": True, "connected": True,
              "non_bipartite": True, "girth": 11, "girth_bound": 3.6159225344945187,
              "girth_ok": True, "vertex_transitive": True, "lambda2": 4.420289422625555,
              "eigenvalue_threshold": 4.472235954999579, "eigenvalue_ok": True,
              "ramanujan_ok": True, "all_ok": True, "notes": []},
}
_EDGE_DIGESTS = {
    (5, 29): "c57d69aa35e727031a53c708adb686f8ffd8bd18f0c55ca1e33841bb92ca4221",
    (5, 61): "2bfb4e332da16b7f865cc00664ae9ce558ecd62604744cb14bcfffa40f36106f",
}


@pytest.mark.parametrize("p,q", sorted(_CERTIFICATE_PINS))
def test_certificate_and_edges_are_pinned(p, q):
    assert json.dumps(cached_lps_certificate(p, q).to_json()) == \
        json.dumps(_CERTIFICATE_PINS[p, q])
    edges = repr(sorted(cached_lps_graph(p, q).edges())).encode()
    assert hashlib.sha256(edges).hexdigest() == _EDGE_DIGESTS[p, q]
