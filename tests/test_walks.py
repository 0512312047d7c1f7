import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import induniv
from induniv import walks
from induniv.errors import ArgumentError, WalkStuckError
from induniv.graphs import Graph, complete_graph, cycle_graph, disjoint_union, path_graph
from induniv.walks import (
    ConstraintSchedule,
    build_walk_map,
    step_for,
    verify_walk_map,
)
from instances import inject_walk_fault, random_walk_instance
from oracles import is_q_expanding, oracle_q_expanding


def test_step_for():
    assert step_for(1) == 1
    assert step_for(6) == 1
    assert step_for(10) == 1
    assert step_for(11) == 2
    assert step_for(12180) == 5


# -- expanding vertices ------------------------------------------------------


def test_c6_not_expanding():
    # two neighbors can never reach half of six vertices
    assert not is_q_expanding(cycle_graph(6), 0, [set()], 1)


def test_k5_expanding():
    # four neighbors minus any single-vertex path still beats 5/2
    assert is_q_expanding(complete_graph(5), 0, [set()], 1)


def test_full_avoidance_set_blocks_everything():
    g = complete_graph(5)
    assert not is_q_expanding(g, 0, [set(range(5))], 1)
    assert not is_q_expanding(g, 0, [set(), set(range(5))], 2)


def test_expanding_budget_guard():
    from induniv.errors import BudgetError

    g = complete_graph(9)
    with pytest.raises(BudgetError):
        is_q_expanding(g, 0, [set(), set(), set()], 3, path_budget=10)


def test_expanding_matches_oracle_randomized():
    rng = random.Random(42)
    for i in range(60):
        if i % 3 == 2:
            # sparse hosts up to 60 vertices
            n = rng.randrange(20, 61)
            edges = {(rng.randrange(v), v) for v in range(1, n)}
            for _ in range(n // 2):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
        else:
            n = rng.randrange(5, 13)
            edges = {(u, v) for u in range(n) for v in range(u + 1, n)
                     if rng.random() < 0.35}
        g = Graph(n, edges)
        q = rng.randrange(1, 4)
        sets = [
            {rng.randrange(n) for _ in range(rng.randrange(0, 3))}
            for _ in range(q)
        ]
        v = rng.randrange(n)
        assert is_q_expanding(g, v, sets, q) == oracle_q_expanding(g, v, sets, q)


def test_expanding_golden_on_desk_expander(rm_desk):
    # single-vertex probe on the real 6-regular expander; a full count is
    # out of reach, so the value is frozen as a golden observation
    assert not is_q_expanding(rm_desk, 0, [set(), set()], 2)


# -- schedules -----------------------------------------------------------------


def test_schedule_invariants():
    # block length 2 and at most 2 entries per index
    good = ConstraintSchedule.from_sets(20, {10: {0, 1}})
    assert good.problems(2, 2) == []
    past_limit = ConstraintSchedule.from_sets(20, {10: {8}})
    assert past_limit.problems(2, 2)
    too_big = ConstraintSchedule.from_sets(20, {10: {0, 1, 2}})
    assert too_big.problems(2, 2)


# -- builder --------------------------------------------------------------------


def _caps_for(g, n):
    """Walk caps for n indices on host g: 40 uses of a vertex per
    ceil(n / ell) indices, and ell // 40 schedule entries at an index."""
    ell = g.vertex_count
    return {"usage_cap": max(1, 40 * math.ceil(n / ell)) if n else 1,
            "sigma_cap": max(1, ell // 40)}


def _kinds(violations, kind):
    return [v for v in violations if v.kind == kind]


def test_single_block_is_a_path():
    g = cycle_graph(30)
    walk = build_walk_map(g, ConstraintSchedule(2), **_caps_for(g, 2))  # n = q = 2
    assert len(set(walk)) == 2
    assert g.has_edge(*walk)


def test_empty_walk():
    g = cycle_graph(12)
    assert build_walk_map(g, ConstraintSchedule(0), **_caps_for(g, 1)) == ()


def test_builder_rejects_invalid_schedule():
    g = cycle_graph(30)
    bad = ConstraintSchedule.from_sets(20, {4: {3}})  # reaches into own block
    with pytest.raises(ArgumentError):
        build_walk_map(g, bad, **_caps_for(g, 20))


@pytest.mark.parametrize("caps", [{"usage_cap": 0, "sigma_cap": 1},
                                  {"usage_cap": 1, "sigma_cap": -1}])
def test_builder_rejects_caps_out_of_range(caps):
    with pytest.raises(ArgumentError, match="_cap must be"):
        build_walk_map(cycle_graph(30), ConstraintSchedule(4), **caps)


def test_builder_requires_connected_host():
    g = disjoint_union(cycle_graph(5), cycle_graph(5))
    with pytest.raises(ArgumentError):
        build_walk_map(g, ConstraintSchedule(4), **_caps_for(g, 4))


def _count_bfs(monkeypatch):
    calls = []
    bfs = Graph.bfs_distances

    def counted(self, *args, **kwargs):
        calls.append(self)
        return bfs(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "bfs_distances", counted)
    return calls


def test_builder_checks_host_connectivity_once(monkeypatch):
    g = cycle_graph(31)
    calls = _count_bfs(monkeypatch)
    for n in (12, 20):
        walk = build_walk_map(g, ConstraintSchedule(n), **_caps_for(g, n))
        assert len(walk) == n
    assert len(calls) <= 1


def test_disconnected_host_rejected_from_the_memo(monkeypatch):
    g = disjoint_union(cycle_graph(6), cycle_graph(7))
    calls = _count_bfs(monkeypatch)
    for _ in range(2):
        with pytest.raises(ArgumentError, match="connected"):
            build_walk_map(g, ConstraintSchedule(4), **_caps_for(g, 4))
    assert len(calls) == 1


def test_builder_work_follows_the_walk_not_the_host(monkeypatch, rm_desk):
    # one neighbour list per placed or retried index, none per host vertex
    n = 30
    calls = []
    neighbors = Graph.neighbors
    monkeypatch.setattr(
        Graph, "neighbors", lambda self, v: calls.append(v) or neighbors(self, v))
    build_walk_map(rm_desk, ConstraintSchedule(n), **_caps_for(rm_desk, n))
    assert len(calls) < 4 * n < rm_desk.vertex_count


def test_builder_stuck_on_infeasible_separation(monkeypatch):
    # an index 4 steps after its target can never be 5 away
    g = cycle_graph(40)
    sched = ConstraintSchedule.from_sets(12, {4: {0}})
    monkeypatch.setattr(walks, "SEARCH_BUDGET", 30_000)
    with pytest.raises(WalkStuckError) as err:
        build_walk_map(g, sched, **_caps_for(g, 12))
    assert err.value.position >= 0


def test_builder_reads_the_search_budget_when_called(monkeypatch):
    # a 30-step walk on C40 takes more than 10 steps of search
    g = cycle_graph(40)
    caps = _caps_for(g, 30)
    assert len(build_walk_map(g, ConstraintSchedule(30), **caps)) == 30
    monkeypatch.setattr(walks, "SEARCH_BUDGET", 10)
    with pytest.raises(WalkStuckError) as err:
        build_walk_map(g, ConstraintSchedule(30), **caps)
    assert err.value.payload["budget"] == 10
    assert 0 <= err.value.payload["position"] < 30


def test_builder_deterministic(monkeypatch):
    monkeypatch.setattr(walks, "SEARCH_BUDGET", 500_000)
    rng = random.Random(5)
    host, sched, caps = random_walk_instance(rng)
    assert build_walk_map(host, sched, **caps) == build_walk_map(host, sched, **caps)


def test_builder_monotone_in_schedule(monkeypatch):
    # dropping constraints never turns success into failure (ample budget)
    monkeypatch.setattr(walks, "SEARCH_BUDGET", 2_000_000)
    rng = random.Random(11)
    for _ in range(10):
        host, sched, caps = random_walk_instance(rng)
        build_walk_map(host, sched, **caps)
        thinned = {
            t: set(list(sorted(s))[:-1])
            for t, s in sched.sigma.items()
            if len(s) > 1
        }
        sub = ConstraintSchedule.from_sets(sched.n, thinned)
        build_walk_map(host, sub, **caps)


def test_extra_avoid_constraints_hold():
    g = cycle_graph(40)
    walk = build_walk_map(
        g, ConstraintSchedule(20), **_caps_for(g, 20), extra_avoid={9: {0}, 15: {9}})
    assert g.distance(walk[9], walk[0]) >= 5
    assert g.distance(walk[15], walk[9]) >= 5
    # an 8-cycle with a tail at vertex 4: unconstrained, the walk goes round
    # the cycle and sits next to vertex 0 at index 9; the constraint sends it
    # down the tail
    lolli = Graph(40, [(i, (i + 1) % 8) for i in range(8)] + [(4, 8)]
                  + [(i, i + 1) for i in range(8, 39)])
    free = build_walk_map(lolli, ConstraintSchedule(20), **_caps_for(lolli, 20))
    assert lolli.distance(free[9], free[0]) < 5
    walk = build_walk_map(lolli, ConstraintSchedule(20), **_caps_for(lolli, 20),
                          extra_avoid={9: {0}})
    assert lolli.distance(walk[9], walk[0]) >= 5


def test_extra_avoid_validation():
    g = cycle_graph(40)
    with pytest.raises(ArgumentError):
        build_walk_map(g, ConstraintSchedule(10), **_caps_for(g, 10), extra_avoid={3: {7}})


def test_fuzzed_instances_verify_clean(monkeypatch):
    monkeypatch.setattr(walks, "SEARCH_BUDGET", 500_000)
    rng = random.Random(123)
    for _ in range(40):
        host, sched, caps = random_walk_instance(rng)
        walk = build_walk_map(host, sched, **caps)
        assert verify_walk_map(host, sched, walk, caps["usage_cap"]) == ()


# -- verifier and fault injection ------------------------------------------------


def _barbell_instance():
    """Two 4-cliques joined by a long path; schedules across the bridge are
    satisfiable while clique moves keep block windows intact."""
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    bridge = [(3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10)]
    far = [(u, v) for u in range(10, 14) for v in range(u + 1, 14)]
    return Graph(14, edges + bridge + far)


def test_verifier_catches_separation_fault(monkeypatch):
    monkeypatch.setattr(walks, "SEARCH_BUDGET", 500_000)
    g = _barbell_instance()  # 14 vertices: block length 2
    sched = ConstraintSchedule.from_sets(12, {11: {0}})
    walk = build_walk_map(g, sched, usage_cap=4, sigma_cap=2)
    assert verify_walk_map(g, sched, walk, 4) == ()
    # move the constrained image onto its target, then next to it, keeping
    # the walk structurally intact at the clique end
    for moved, detail in ((walk[0], "share image"), (g.neighbors(walk[0])[0],
                                                     "at distance 1 <= 4")):
        bad = walk[:11] + (moved,) + walk[12:]
        separation = _kinds(verify_walk_map(g, sched, bad, 4), "separation")
        assert len(separation) == 1
        assert separation[0].where == (11, 0)
        assert detail in separation[0].detail


def test_verifier_catches_block_fault(monkeypatch):
    monkeypatch.setattr(walks, "SEARCH_BUDGET", 500_000)
    rng = random.Random(3)
    host, sched, caps = random_walk_instance(rng)
    walk = build_walk_map(host, sched, **caps)
    bad = inject_walk_fault(rng, host, sched, walk, "blocks")
    assert _kinds(verify_walk_map(host, sched, bad, caps["usage_cap"]), "blocks")


def test_verifier_catches_usage_fault(monkeypatch):
    monkeypatch.setattr(walks, "SEARCH_BUDGET", 500_000)
    rng = random.Random(4)
    host, sched, caps = random_walk_instance(rng)
    walk = build_walk_map(host, sched, **caps)
    bad = inject_walk_fault(rng, host, sched, walk, "usage")
    assert _kinds(verify_walk_map(host, sched, bad, caps["usage_cap"]), "usage")


def test_verifier_rejects_values_off_the_host():
    g = path_graph(25)
    caps = _caps_for(g, 12)
    walk = build_walk_map(g, ConstraintSchedule(12), **caps)
    for off in (25, -1, 1.0):
        with pytest.raises(ArgumentError, match="out of range"):
            verify_walk_map(g, ConstraintSchedule(12), walk[:-1] + (off,), caps["usage_cap"])


def test_verify_valid_map_is_clean():
    g = path_graph(25)
    caps = _caps_for(g, 12)
    walk = build_walk_map(g, ConstraintSchedule(12), **caps)
    assert verify_walk_map(g, ConstraintSchedule(12), walk, caps["usage_cap"]) == ()


# -- on the real expander -----------------------------------------------------


def test_unconstrained_walk_on_desk_expander(rm_desk):
    n = 100
    caps = _caps_for(rm_desk, n)
    assert step_for(rm_desk.vertex_count) == 5 and caps["usage_cap"] == 40
    sched = ConstraintSchedule(n)
    walk = build_walk_map(rm_desk, sched, **caps)
    assert verify_walk_map(rm_desk, sched, walk, caps["usage_cap"]) == ()


def test_pinned_start_avoidance_on_desk_expander(rm_desk):
    # every index from the third block onward must escape the radius-4
    # ball of the starting image
    n = 40
    caps = _caps_for(rm_desk, n)
    q = step_for(rm_desk.vertex_count)
    sched = ConstraintSchedule.from_sets(n, {t: {0} for t in range(2 * q, n)})
    walk = build_walk_map(rm_desk, sched, **caps)
    assert verify_walk_map(rm_desk, sched, walk, caps["usage_cap"]) == ()
    for t in range(2 * q, n):
        assert rm_desk.distance(walk[t], walk[0]) >= 5


def test_walk_order_does_not_follow_the_hash_seed():
    # the tie-break is a fixed integer mix, so every process builds one walk
    script = (
        "from induniv.graphs import circulant_graph\n"
        "from induniv.walks import ConstraintSchedule, build_walk_map\n"
        "g = circulant_graph(500, [1, 7, 50])\n"
        "print(list(build_walk_map(g, ConstraintSchedule(60), usage_cap=40, sigma_cap=12)))\n")
    src = str(Path(induniv.__file__).parents[1])
    printed = {subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              check=True, env=dict(os.environ, PYTHONPATH=src,
                                                   PYTHONHASHSEED=seed)).stdout
               for seed in ("1", "2", "random")}
    assert len(printed) == 1 and printed.pop().startswith("[")
