import random

import pytest

from induniv.errors import ArgumentError, WalkStuckError
from induniv.graphs import Graph, complete_graph, cycle_graph, disjoint_union, path_graph
from induniv.harness import inject_walk_fault, random_walk_instance
from induniv.walks import (
    ConstraintSchedule,
    WalkMap,
    WalkParams,
    build_walk_map,
    count_q_expanding,
    is_q_expanding,
    step_for,
    verify_walk_map,
)
from oracles import oracle_q_expanding


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
    with pytest.warns(UserWarning):
        assert count_q_expanding(g, [set(range(5))], 1) == 0


def test_c6_count_is_zero():
    assert count_q_expanding(cycle_graph(6), [set()], 1) == 0


def test_expanding_budget_guard():
    from induniv.errors import BudgetError

    g = complete_graph(9)
    with pytest.raises(BudgetError):
        is_q_expanding(g, 0, [set(), set(), set()], 3, path_budget=10)


def test_count_warns_outside_regime():
    with pytest.warns(UserWarning):
        count_q_expanding(cycle_graph(6), [set(range(3))], 1)


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
    wp = WalkParams(ell=30, step=2, usage_cap=4, sigma_cap=2)
    good = ConstraintSchedule.from_sets(20, {10: {0, 1}})
    assert good.problems(wp) == []
    past_limit = ConstraintSchedule.from_sets(20, {10: {8}})
    assert past_limit.problems(wp)
    too_big = ConstraintSchedule.from_sets(20, {10: {0, 1, 2}})
    assert too_big.problems(wp)


def test_schedule_digest_stable():
    a = ConstraintSchedule.from_sets(10, {8: {0, 1}})
    b = ConstraintSchedule.from_sets(10, {8: {1, 0}})
    assert a.digest() == b.digest()


def test_walk_map_serialization():
    g = cycle_graph(20)
    sched = ConstraintSchedule.empty(6)
    wm = build_walk_map(g, sched, WalkParams.for_graph(g, 6))
    doc = wm.to_json()
    assert doc["values"] == list(wm.values)
    assert doc["schedule_digest"] == sched.digest()


# -- builder --------------------------------------------------------------------


def _params_for(g, n, **kw):
    return WalkParams.for_graph(g, n, **kw)


def test_single_block_is_a_path():
    g = cycle_graph(30)
    wp = _params_for(g, 2)  # n = q = 2 for a 30-vertex host
    wm = build_walk_map(g, ConstraintSchedule.empty(2), wp)
    assert len(set(wm.values)) == 2
    assert g.has_edge(*wm.values)


def test_empty_walk():
    g = cycle_graph(12)
    wm = build_walk_map(g, ConstraintSchedule.empty(0), _params_for(g, 1))
    assert wm.values == ()


def test_builder_rejects_invalid_schedule():
    g = cycle_graph(30)
    wp = _params_for(g, 20)
    bad = ConstraintSchedule.from_sets(20, {4: {3}})  # reaches into own block
    with pytest.raises(ArgumentError):
        build_walk_map(g, bad, wp)


def test_builder_requires_connected_host():
    g = disjoint_union(cycle_graph(5), cycle_graph(5))
    with pytest.raises(ArgumentError):
        build_walk_map(g, ConstraintSchedule.empty(4), _params_for(g, 4))


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
        wm = build_walk_map(g, ConstraintSchedule.empty(n), _params_for(g, n))
        assert len(wm.values) == n
    assert len(calls) <= 1


def test_disconnected_host_rejected_from_the_memo(monkeypatch):
    g = disjoint_union(cycle_graph(6), cycle_graph(7))
    calls = _count_bfs(monkeypatch)
    for _ in range(2):
        with pytest.raises(ArgumentError, match="connected"):
            build_walk_map(g, ConstraintSchedule.empty(4), _params_for(g, 4))
    assert len(calls) == 1


def test_builder_work_follows_the_walk_not_the_host(monkeypatch, rm_desk):
    # one neighbour list per placed or retried index, none per host vertex
    n = 30
    calls = []
    neighbors = Graph.neighbors
    monkeypatch.setattr(
        Graph, "neighbors", lambda self, v: calls.append(v) or neighbors(self, v))
    wp = WalkParams.for_graph(rm_desk, n)
    build_walk_map(rm_desk, ConstraintSchedule.empty(n), wp)
    assert len(calls) < 4 * n < rm_desk.vertex_count


def test_builder_stuck_on_infeasible_separation():
    # an index 4 steps after its target can never be 5 away
    g = cycle_graph(40)
    wp = _params_for(g, 12)
    sched = ConstraintSchedule.from_sets(12, {4: {0}})
    with pytest.raises(WalkStuckError) as err:
        build_walk_map(g, sched, wp, search_budget=30_000)
    assert err.value.position >= 0


def test_builder_deterministic():
    rng = random.Random(5)
    host, sched, wp = random_walk_instance(rng)
    a = build_walk_map(host, sched, wp, search_budget=500_000)
    b = build_walk_map(host, sched, wp, search_budget=500_000)
    assert a.values == b.values


def test_builder_monotone_in_schedule():
    # dropping constraints never turns success into failure (ample budget)
    rng = random.Random(11)
    for _ in range(10):
        host, sched, wp = random_walk_instance(rng)
        build_walk_map(host, sched, wp, search_budget=2_000_000)
        thinned = {
            t: set(list(sorted(s))[:-1])
            for t, s in sched.sigma.items()
            if len(s) > 1
        }
        sub = ConstraintSchedule.from_sets(sched.n, thinned)
        build_walk_map(host, sub, wp, search_budget=2_000_000)


def test_extra_avoid_constraints_hold():
    g = cycle_graph(40)
    wp = _params_for(g, 20)
    wm = build_walk_map(
        g, ConstraintSchedule.empty(20), wp, extra_avoid={9: {0}, 15: {9}})
    assert g.distance(wm.values[9], wm.values[0]) >= 5
    assert g.distance(wm.values[15], wm.values[9]) >= 5
    # a 6-cycle with a tail: unconstrained, the walk circles back within
    # distance 3 of vertex 0 at index 9; the constraint sends it down the tail
    lolli = Graph(40, [(i, (i + 1) % 6) for i in range(6)]
                  + [(i, i + 1) for i in range(5, 39)])
    free = build_walk_map(lolli, ConstraintSchedule.empty(20), _params_for(lolli, 20))
    assert lolli.distance(free.values[9], free.values[0]) < 5
    wm = build_walk_map(lolli, ConstraintSchedule.empty(20), _params_for(lolli, 20),
                        extra_avoid={9: {0}})
    assert lolli.distance(wm.values[9], wm.values[0]) >= 5


def test_extra_avoid_validation():
    g = cycle_graph(40)
    wp = _params_for(g, 10)
    with pytest.raises(ArgumentError):
        build_walk_map(g, ConstraintSchedule.empty(10), wp, extra_avoid={3: {7}})


def test_fuzzed_instances_verify_clean():
    rng = random.Random(123)
    for _ in range(40):
        host, sched, wp = random_walk_instance(rng)
        wm = build_walk_map(host, sched, wp, search_budget=500_000)
        assert verify_walk_map(host, sched, wp, wm).ok


# -- verifier and fault injection ------------------------------------------------


def _barbell_instance():
    """Two 4-cliques joined by a long path; schedules across the bridge are
    satisfiable while clique moves keep block windows intact."""
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    bridge = [(3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 10)]
    far = [(u, v) for u in range(10, 14) for v in range(u + 1, 14)]
    return Graph(14, edges + bridge + far)


def test_verifier_catches_separation_fault():
    g = _barbell_instance()
    wp = WalkParams(ell=14, step=2, usage_cap=4, sigma_cap=2)
    sched = ConstraintSchedule.from_sets(12, {11: {0}})
    wm = build_walk_map(g, sched, wp, search_budget=500_000)
    assert verify_walk_map(g, sched, wp, wm).ok
    # move the constrained image onto its target, then next to it, keeping
    # the walk structurally intact at the clique end
    for moved, detail in ((wm.values[0], "share image"), (g.neighbors(wm.values[0])[0],
                                                          "at distance 1 <= 4")):
        values = list(wm.values)
        values[11] = moved
        bad = WalkMap(values=tuple(values), schedule=sched, usage=wm.usage)
        report = verify_walk_map(g, sched, wp, bad)
        separation = report.of_kind("separation")
        assert len(separation) == 1
        assert separation[0].where == (11, 0)
        assert detail in separation[0].detail


def test_verifier_catches_block_fault():
    rng = random.Random(3)
    host, sched, wp = random_walk_instance(rng)
    wm = build_walk_map(host, sched, wp, search_budget=500_000)
    bad = inject_walk_fault(rng, host, sched, wm, "blocks")
    report = verify_walk_map(host, sched, wp, bad)
    assert report.of_kind("blocks")


def test_verifier_catches_usage_fault():
    rng = random.Random(4)
    host, sched, wp = random_walk_instance(rng)
    wm = build_walk_map(host, sched, wp, search_budget=500_000)
    bad = inject_walk_fault(rng, host, sched, wm, "usage")
    report = verify_walk_map(host, sched, wp, bad)
    assert report.of_kind("usage")


def test_verify_valid_map_is_clean():
    g = path_graph(25)
    wp = _params_for(g, 12)
    wm = build_walk_map(g, ConstraintSchedule.empty(12), wp)
    assert verify_walk_map(g, ConstraintSchedule.empty(12), wp, wm).ok


# -- on the real expander -----------------------------------------------------


def test_unconstrained_walk_on_desk_expander(rm_desk):
    n = 100
    wp = WalkParams.for_graph(rm_desk, n)
    assert wp.step == 5 and wp.usage_cap == 40
    sched = ConstraintSchedule.empty(n)
    wm = build_walk_map(rm_desk, sched, wp)
    assert verify_walk_map(rm_desk, sched, wp, wm).ok


def test_pinned_start_avoidance_on_desk_expander(rm_desk):
    # every index from the third block onward must escape the radius-4
    # ball of the starting image
    n = 40
    wp = WalkParams.for_graph(rm_desk, n)
    q = wp.step
    sched = ConstraintSchedule.from_sets(n, {t: {0} for t in range(2 * q, n)})
    wm = build_walk_map(rm_desk, sched, wp)
    assert verify_walk_map(rm_desk, sched, wp, wm).ok
    v0 = wm.values[0]
    for t in range(2 * q, n):
        assert rm_desk.distance(wm.values[t], v0) >= 5
