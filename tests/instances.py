"""Seeded random instances for the tests: walk hosts and schedules, walk
faults, bounded-degree graphs and product-graph vertices, and the
benchmark's seeded desk inputs.

Each function draws only from the ``random.Random`` it is given, so a seeded
test sees the same instance on every run.
"""

from __future__ import annotations

import importlib.util
import itertools
import math
import random
from pathlib import Path

from induniv.errors import ArgumentError
from induniv.gamma import GammaParams, GammaVertex
from induniv.graphs import RADIUS, Graph
from induniv.walks import ConstraintSchedule, prefix_limit, step_for


def random_walk_instance(
    rng: random.Random,
) -> tuple[Graph, ConstraintSchedule, dict[str, int]]:
    """A host graph, a schedule and the walk's caps (``usage_cap`` and
    ``sigma_cap``, as keywords of ``build_walk_map``) on which the walk
    construction must succeed.

    Hosts are cycles with a few short chords: radius-4 balls stay small
    relative to the graph, so separation constraints leave room. Feasibility
    is guaranteed by construction: the walk is shorter than the cycle and a
    constraint t vs t' is only emitted when the canonical monotone walk
    (vertex t at index t) already separates the pair, so at least one valid
    assignment exists and the backtracking builder must find one.
    """
    ell = rng.randrange(36, 61)
    edges = [(i, (i + 1) % ell) for i in range(ell)]
    for _ in range(rng.randrange(0, 4)):
        a = rng.randrange(ell)
        b = (a + rng.randrange(2, 5)) % ell
        if a != b:
            edges.append((min(a, b), max(a, b)))
    host = Graph(ell, edges)
    n = rng.randrange(20, ell - 5)
    caps = {"usage_cap": max(4, math.ceil(n / ell) + 3), "sigma_cap": max(2, ell // 12)}
    q = step_for(ell)
    gap = max(8, 2 * q + 2)
    sets: dict[int, set[int]] = {}
    for t in range(gap, n):
        if rng.random() < 0.3:
            limit = min(prefix_limit(t, q), t - gap)
            if limit < 0:
                continue
            witness_ok = [
                t2 for t2 in range(0, limit + 1)
                if host.distance(t, t2) > RADIUS
            ]
            if not witness_ok:
                continue
            picks = {rng.choice(witness_ok) for _ in range(rng.randrange(1, 3))}
            sets[t] = set(itertools.islice(picks, caps["sigma_cap"]))
    return host, ConstraintSchedule.from_sets(n, sets), caps


def inject_walk_fault(
    rng: random.Random,
    host: Graph,
    schedule: ConstraintSchedule,
    walk: tuple[int, ...],
    kind: str,
) -> tuple[int, ...]:
    """Corrupt a verified walk map so the named property must fail."""
    values = list(walk)
    n = len(values)
    if kind == "separation":
        t = rng.choice(sorted(schedule.sigma))
        t2 = schedule.sigma[t][0]  # rows increase
        values[t] = values[t2]
    elif kind == "blocks":
        t = rng.randrange(1, n)
        values[t] = values[t - 1]
    elif kind == "usage":
        v = values[0]
        for t in range(n):
            values[t] = v
    else:
        raise ArgumentError(f"unknown fault kind {kind!r}")
    return tuple(values)


def random_bounded_graph(rng: random.Random, n: int, delta: int) -> Graph:
    edges = []
    seen = set()  # the edges drawn so far, for a membership test in O(1)
    degs = [0] * n
    attempts = 3 * n
    for _ in range(attempts):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or degs[u] >= delta or degs[v] >= delta:
            continue
        e = (min(u, v), max(u, v))
        if e in seen:
            continue
        seen.add(e)
        edges.append(e)
        degs[u] += 1
        degs[v] += 1
    return Graph(n, edges)


def random_gamma_vertex(rng: random.Random, params: GammaParams) -> GammaVertex:
    return GammaVertex(
        x1=rng.randrange(params.ell_m),
        blocks=tuple(
            (
                rng.randrange(params.ell_m),
                rng.getrandbits(params.subset_bits),
                rng.randrange(params.ell_z),
            )
            for _ in range(params.delta - 1)
        ),
    )


def random_close_gamma_pair(
    rng: random.Random, params: GammaParams
) -> tuple[GammaVertex, GammaVertex]:
    """A pair biased toward adjacency: coordinates drawn inside balls and
    subset masks granting the mutual ranks."""
    a = random_gamma_vertex(rng, params)
    x1b = _draw_close(rng, params.rm_pow, a.x1)
    blocks = []
    for (xa, mask_a, ua) in a.blocks:
        xb = _draw_close(rng, params.rm_pow, xa)
        ra = params.rm_pow.rank(xa, xb)
        rb = params.rm_pow.rank(xb, xa)
        mask_b = rng.getrandbits(params.subset_bits) | (1 << rb)
        mask_a |= 1 << ra
        ub = _draw_close(rng, params.rz_pow, ua)
        blocks.append(((xa, mask_a, ua), (xb, mask_b, ub)))
    a = GammaVertex(x1=a.x1, blocks=tuple(b[0] for b in blocks))
    b = GammaVertex(x1=x1b, blocks=tuple(b[1] for b in blocks))
    return a, b


def _draw_close(rng: random.Random, metric, x: int) -> int:
    """A uniform draw from the radius-4 row of x on an LPS host: M_x * b for
    one uniform element b of the identity's ball B, since b -> M_x * b maps
    B one to one onto the row."""
    b = metric.ball[rng.randrange(len(metric.ball))]
    elements = metric.group.elements
    return int(metric.group.product_ids(elements[x], elements[b])[0])


def bench_desk_set(delta: int, seed: int) -> list[dict]:
    """The benchmark's seeded desk inputs at delta, from its generator,
    which imports nothing of the program: dicts with ``n`` and ``edges``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "gen.py"
    spec = importlib.util.spec_from_file_location("bench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen.desk_set(delta, seed)
