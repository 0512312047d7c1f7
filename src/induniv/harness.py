"""Verification harness: small-graph family enumeration, universality sweeps,
invariant fuzzing, and formula-level size reports.

Everything here is an independent consumer of the pipeline: the sweep treats
an embedding as accepted only when its own induced check comes back clean,
and the fuzzers mix clean runs (which must report nothing) with injected
faults (which must all be caught).
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field, replace
from typing import Iterator

from .errors import ArgumentError, ArtifactError, BudgetError
from .gamma import (
    GammaParams,
    GammaVertex,
    Profile,
    count_log10,
    decode_label,
    encode_label,
    gamma_adjacent,
    gamma_vertex_count,
    make_gamma_params,
)
from .graphs import RADIUS, Graph
from .embedder import embed, verify_induced
from .thin import (
    ThinDecomposition,
    thin_decompose,
    validate_decomposition,
)
from .walks import (
    ConstraintSchedule,
    WalkMap,
    WalkParams,
    build_walk_map,
    prefix_limit,
    verify_walk_map,
)


@dataclass(frozen=True)
class FamilySpec:
    """All graphs on n labeled vertices with maximum degree at most delta."""

    n: int
    delta: int
    dedup: bool = True

    def __post_init__(self):
        if self.n < 1:
            raise ArgumentError("family needs n >= 1")
        if self.delta < 0:
            raise ArgumentError("family needs delta >= 0")


def enumerate_family(spec: FamilySpec, guard_n: int = 10) -> Iterator[Graph]:
    """Stream the family; one representative per isomorphism class if dedup.

    Labeled enumeration is a depth-first scan over vertex pairs with degree
    pruning. Deduplicated enumeration grows representatives one vertex at a
    time and canonicalizes by exhaustive relabeling (restricted to degree-
    and neighborhood-preserving permutations, which decide isomorphism
    exactly); it is guarded at n <= 8.
    """
    if spec.n > guard_n:
        raise BudgetError(
            f"family enumeration guarded at n <= {guard_n}, got {spec.n}",
            budget=guard_n)
    if spec.dedup:
        if spec.n > 8:
            raise BudgetError(
                "isomorphism-deduplicated enumeration is guarded at n <= 8",
                budget=8)
        yield from _enumerate_classes(spec.n, spec.delta)
    else:
        yield from _enumerate_labeled(spec.n, spec.delta)


def _enumerate_labeled(n: int, delta: int) -> Iterator[Graph]:
    pairs = list(itertools.combinations(range(n), 2))
    degs = [0] * n
    chosen: list[tuple[int, int]] = []

    def rec(idx: int) -> Iterator[Graph]:
        if idx == len(pairs):
            yield Graph(n, list(chosen))
            return
        u, v = pairs[idx]
        yield from rec(idx + 1)
        if degs[u] < delta and degs[v] < delta:
            degs[u] += 1
            degs[v] += 1
            chosen.append((u, v))
            yield from rec(idx + 1)
            chosen.pop()
            degs[u] -= 1
            degs[v] -= 1

    yield from rec(0)


def canonical_key(g: Graph) -> tuple:
    """Isomorphism-invariant key: minimum edge bitmask over all relabelings
    consistent with the (degree, sorted neighbor degrees) refinement."""
    n = g.vertex_count
    inv = []
    for v in range(n):
        nbd = tuple(sorted(g.degree(w) for w in g.neighbors(v)))
        inv.append((g.degree(v), nbd))
    order = sorted(range(n), key=lambda v: (inv[v], v))
    groups = []
    for _, members in itertools.groupby(order, key=lambda v: inv[v]):
        groups.append(list(members))
    best = None
    for perm_parts in itertools.product(*(itertools.permutations(gr) for gr in groups)):
        relabel = {}
        pos = 0
        for part in perm_parts:
            for v in part:
                relabel[v] = pos
                pos += 1
        mask = 0
        for u, v in g.edges():
            a, b = relabel[u], relabel[v]
            if a > b:
                a, b = b, a
            mask |= 1 << (a * n + b)
        if best is None or mask < best:
            best = mask
    return (n, best)


def _enumerate_classes(n: int, delta: int) -> Iterator[Graph]:
    # grow one vertex at a time: every graph with max degree <= delta arises
    # by attaching a new vertex with at most delta edges to smaller hosts
    level: dict[tuple, Graph] = {canonical_key(Graph(1)): Graph(1)}
    for size in range(2, n + 1):
        nxt: dict[tuple, Graph] = {}
        for g in level.values():
            eligible = [v for v in range(size - 1) if g.degree(v) < delta]
            for k in range(0, min(delta, len(eligible)) + 1):
                for subset in itertools.combinations(eligible, k):
                    cand = Graph(size, list(g.edges()) + [(v, size - 1) for v in subset])
                    key = canonical_key(cand)
                    if key not in nxt:
                        nxt[key] = cand
        level = nxt
    yield from (level[k] for k in sorted(level))


def count_family(spec: FamilySpec, guard_n: int = 10) -> int:
    return sum(1 for _ in enumerate_family(spec, guard_n))


# -- universality sweep ---------------------------------------------------------


@dataclass
class SweepReport:
    total: int
    embedded: int
    failures: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.embedded == self.total and not self.failures

    def to_json(self) -> dict:
        return {
            "schema": "induniv/sweep-v1",
            "total": self.total,
            "embedded": self.embedded,
            "failures": self.failures,
            "ok": self.ok,
        }

    @classmethod
    def of(cls, outcomes: list[dict | None]) -> "SweepReport":
        """The report on the per-graph outcomes of ``sweep_step``."""
        failures = [f for f in outcomes if f is not None]
        return cls(total=len(outcomes), embedded=len(outcomes) - len(failures),
                   failures=failures)


def universality_sweep(spec: FamilySpec, params: GammaParams) -> SweepReport:
    """Embed every family member; success means a clean induced re-check.

    Failures are data, not exceptions.
    """
    if params.profile != Profile.DESK:
        raise ArgumentError("universality sweeps need desk parameters")
    if spec.delta > params.delta:
        raise ArgumentError(
            f"family delta {spec.delta} exceeds parameter delta {params.delta}")
    return SweepReport.of([sweep_step(idx, h, params)
                           for idx, h in enumerate(enumerate_family(spec))])


def sweep_step(idx: int, h: Graph, params: GammaParams) -> dict | None:
    """Embed one family member and re-check it: None when it embeds with a
    clean certificate and induced check, else the failure record."""
    edges = sorted(h.edges())
    try:
        result = embed(h, params.delta, params)
        induced = verify_induced(h, result, params)
    except ArtifactError as exc:
        return {"index": idx, "edges": edges, "error": exc.to_json()}
    if induced.ok and result.certificate.ok:
        return None
    return {"index": idx, "edges": edges, "violations": list(induced.violations)}


# -- property fuzzing -------------------------------------------------------------


@dataclass
class FuzzReport:
    target: str
    rounds: int
    violations: list[str] = field(default_factory=list)
    injected: int = 0
    detected: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and self.detected == self.injected

    def to_json(self) -> dict:
        return {
            "schema": "induniv/fuzz-v1",
            "target": self.target,
            "rounds": self.rounds,
            "violations": self.violations,
            "injected": self.injected,
            "detected": self.detected,
            "ok": self.ok,
        }


def property_fuzz(
    target: str,
    seed: int = 0,
    rounds: int = 100,
    params: GammaParams | None = None,
) -> FuzzReport:
    """Random instances plus constructed faults for one subsystem.

    Clean runs must produce zero violations; every injected fault must be
    detected by the matching verifier.
    """
    rng = random.Random(seed)
    if target == "walks":
        return _fuzz_walks(rng, rounds)
    if target == "decomposition":
        return _fuzz_decomposition(rng, rounds)
    if target == "gamma":
        if params is None:
            raise ArgumentError("gamma fuzzing needs desk parameters")
        return _fuzz_gamma(rng, rounds, params)
    if target == "embedder":
        if params is None:
            raise ArgumentError("embedder fuzzing needs desk parameters")
        return _fuzz_embedder(rng, rounds, params)
    raise ArgumentError(f"unknown fuzz target {target!r}")


def random_walk_instance(
    rng: random.Random,
) -> tuple[Graph, ConstraintSchedule, WalkParams]:
    """A host graph and schedule on which the walk construction must succeed.

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
    wp = WalkParams.for_graph(
        host, n, usage_cap=max(4, math.ceil(n / ell) + 3),
        sigma_cap=max(2, ell // 12))
    q = wp.step
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
            sets[t] = set(itertools.islice(picks, wp.sigma_cap))
    return host, ConstraintSchedule.from_sets(n, sets), wp


def inject_walk_fault(
    rng: random.Random,
    host: Graph,
    schedule: ConstraintSchedule,
    wm: WalkMap,
    kind: str,
) -> WalkMap:
    """Corrupt a verified walk map so the named property must fail."""
    values = list(wm.values)
    n = len(values)
    if kind == "separation":
        constrained = [t for t in range(n) if schedule.at(t)]
        t = rng.choice(constrained)
        t2 = min(schedule.at(t))
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
    return WalkMap(values=tuple(values), schedule=schedule, usage=wm.usage)


def _fuzz_walks(rng: random.Random, rounds: int) -> FuzzReport:
    report = FuzzReport(target="walks", rounds=rounds)
    for i in range(rounds):
        host, schedule, wp = random_walk_instance(rng)
        try:
            wm = build_walk_map(host, schedule, wp, search_budget=500_000)
        except ArtifactError as exc:
            report.violations.append(f"round {i}: builder failed: {exc}")
            continue
        rep = verify_walk_map(host, schedule, wp, wm)
        if not rep.ok:
            report.violations.append(
                f"round {i}: verifier found {len(rep.violations)} violations")
            continue
        kind = ("separation", "blocks", "usage")[i % 3]
        if kind == "separation" and not schedule.sigma:
            kind = "blocks"
        report.injected += 1
        bad = inject_walk_fault(rng, host, schedule, wm, kind)
        bad_rep = verify_walk_map(host, schedule, wp, bad)
        if bad_rep.of_kind(kind):
            report.detected += 1
    return report


def random_bounded_graph(rng: random.Random, n: int, delta: int) -> Graph:
    edges = []
    degs = [0] * n
    attempts = 3 * n
    for _ in range(attempts):
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v or degs[u] >= delta or degs[v] >= delta:
            continue
        e = (min(u, v), max(u, v))
        if e in edges:
            continue
        edges.append(e)
        degs[u] += 1
        degs[v] += 1
    return Graph(n, edges)


def _fuzz_decomposition(rng: random.Random, rounds: int) -> FuzzReport:
    report = FuzzReport(target="decomposition", rounds=rounds)
    for i in range(rounds):
        n = rng.randrange(4, 9)
        delta = rng.choice((2, 3, 4))
        h = random_bounded_graph(rng, n, delta)
        try:
            dec = thin_decompose(h, delta)
        except ArtifactError as exc:
            report.violations.append(f"round {i}: decomposition failed: {exc}")
            continue
        rep = validate_decomposition(h, dec)
        if not rep.ok:
            report.violations.append(
                f"round {i}: validator found {list(rep.violations)[:2]}")
            continue
        if h.edge_count == 0:
            continue
        report.injected += 1
        edge = sorted(h.edges())[rng.randrange(h.edge_count)]
        part_idx = dec.multiplicity[edge][0]
        mutated = list(dec.parts)
        mutated[part_idx] = Graph(
            h.vertex_count,
            [e for e in dec.parts[part_idx].edges() if e != edge])
        bad = ThinDecomposition(parts=tuple(mutated), multiplicity=dec.multiplicity)
        if not validate_decomposition(h, bad).ok:
            report.detected += 1
    return report


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
    x1b = int(rng.choice(params.rm_pow.row(a.x1)))
    blocks = []
    for (xa, mask_a, ua) in a.blocks:
        row = params.rm_pow.row(xa)
        xb = int(rng.choice(row))
        ra = params.rm_pow.rank(xa, xb)
        rb = params.rm_pow.rank(xb, xa)
        mask_b = rng.getrandbits(params.subset_bits) | (1 << rb)
        mask_a |= 1 << ra
        ub = int(rng.choice(params.rz_pow.row(ua)))
        blocks.append(((xa, mask_a, ua), (xb, mask_b, ub)))
    a = GammaVertex(x1=a.x1, blocks=tuple(b[0] for b in blocks))
    b = GammaVertex(x1=x1b, blocks=tuple(b[1] for b in blocks))
    return a, b


def _fuzz_gamma(rng: random.Random, rounds: int, params: GammaParams) -> FuzzReport:
    report = FuzzReport(target="gamma", rounds=rounds)
    for i in range(rounds):
        if i % 4 == 0:
            a, b = random_close_gamma_pair(rng, params)
        else:
            a, b = random_gamma_vertex(rng, params), random_gamma_vertex(rng, params)
        ab = gamma_adjacent(a, b, params)
        if ab != gamma_adjacent(b, a, params):
            report.violations.append(f"round {i}: asymmetric pair")
        if gamma_adjacent(a, a, params):
            report.violations.append(f"round {i}: self-loop")
        if ab:
            grown = GammaVertex(
                x1=a.x1,
                blocks=tuple(
                    (x, mask | rng.getrandbits(params.subset_bits), u)
                    for x, mask, u in a.blocks),
            )
            if not gamma_adjacent(grown, b, params):
                report.violations.append(f"round {i}: subset growth broke adjacency")
        lab = encode_label(a, params)
        if decode_label(lab, params) != a:
            report.violations.append(f"round {i}: codec round-trip failed")
    return report


def _fuzz_embedder(rng: random.Random, rounds: int, params: GammaParams) -> FuzzReport:
    report = FuzzReport(target="embedder", rounds=rounds)
    for i in range(rounds):
        n = rng.randrange(2, 7)
        h = random_bounded_graph(rng, n, min(params.delta, 3))
        try:
            result = embed(h, params.delta, params)
        except ArtifactError as exc:
            report.violations.append(f"round {i}: embed failed: {exc}")
            continue
        rep = verify_induced(h, result, params)
        if not rep.ok:
            report.violations.append(f"round {i}: induced check failed")
            continue
        if h.edge_count == 0:
            continue
        # flip one subset bit used by a real edge: the edge must disappear
        report.injected += 1
        u, v = sorted(h.edges())[rng.randrange(h.edge_count)]
        mutated = list(result.gamma)
        target = None
        for bi, (x, mask, uu) in enumerate(mutated[u].blocks):
            r = params.rm_pow.rank(x, mutated[v].blocks[bi][0])
            if r is not None and (mask >> r) & 1:
                target = (bi, r)
                break
        if target is None:
            report.detected += 1  # nothing to flip means the pair relies on x1
            continue
        bi, r = target
        blocks = list(mutated[u].blocks)
        x, mask, uu = blocks[bi]
        blocks[bi] = (x, mask & ~(1 << r), uu)
        mutated[u] = GammaVertex(x1=mutated[u].x1, blocks=tuple(blocks))
        tampered = replace(result, gamma=tuple(mutated))
        if not verify_induced(h, tampered, params).ok:
            report.detected += 1
    return report


# -- size report -------------------------------------------------------------------


def size_report(delta_list: list[int], n_list: list[int]) -> dict:
    """Formula-level scaling table for paper-profile vertex counts.

    For each delta and n: log10 of the count, log10 of the n^(delta/2)
    reference curve (the counting lower bound up to its constant), and their
    difference. The per-delta spread of that difference measures how far the
    count strays from the reference shape.
    """
    for n in n_list:
        if n < 1:
            raise ArgumentError(f"size report needs n >= 1, got {n}")
    for delta in delta_list:
        if delta < 2:
            raise ArgumentError(f"size report needs delta >= 2, got {delta}")
    rows = []
    spreads = {}
    for delta in delta_list:
        ratios = []
        for n in n_list:
            params = make_gamma_params(delta, n, Profile.PAPER)
            c_log10 = count_log10(gamma_vertex_count(params))
            ref_log10 = (delta / 2) * math.log10(n)
            rows.append({
                "delta": delta,
                "n": n,
                "count_log10": c_log10,
                "lower_bound_log10": ref_log10,
                "ratio_log10": c_log10 - ref_log10,
            })
            ratios.append(c_log10 - ref_log10)
        spreads[str(delta)] = max(ratios) - min(ratios)
    return {
        "schema": "induniv/size-report-v1",
        "rows": rows,
        "ratio_spread_log10": spreads,
    }
