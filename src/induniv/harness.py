"""Verification harness: enumeration of small bounded-degree graphs up to
isomorphism, universality sweeps, and formula-level size reports.

The sweep is an independent consumer of the pipeline: it treats an embedding
as accepted only when its own induced check comes back clean.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator

from .errors import ArgumentError, ArtifactError, BudgetError
from .gamma import GammaParams, gamma_vertex_count, paper_sizes
from .graphs import Graph
from .embedder import embed, verify_induced


@dataclass(frozen=True)
class FamilySpec:
    """All graphs on n vertices with maximum degree at most delta, one per
    isomorphism class."""

    n: int
    delta: int

    def __post_init__(self):
        if self.n < 1:
            raise ArgumentError("family needs n >= 1")
        if self.delta < 0:
            raise ArgumentError("family needs delta >= 0")


def enumerate_family(spec: FamilySpec) -> Iterator[Graph]:
    """Stream one representative per isomorphism class of the family.

    Representatives grow one vertex at a time and are canonicalized by
    exhaustive relabeling (restricted to degree- and neighborhood-preserving
    permutations, which decide isomorphism exactly); enumeration is guarded
    at n <= 8.
    """
    if spec.n > 8:
        raise BudgetError(
            f"family enumeration is guarded at n <= 8, got {spec.n}",
            budget=8)
    yield from _enumerate_classes(spec.n, spec.delta)


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


def universality_sweep(spec: FamilySpec, params: GammaParams) -> SweepReport:
    """Embed every family member; success means a clean certificate and a
    clean induced re-check.

    Failures are data, not exceptions: each names the member's index and
    edges, with the error it raised or the violations its check found.
    """
    if spec.delta > params.delta:
        raise ArgumentError(
            f"family delta {spec.delta} exceeds parameter delta {params.delta}")
    members = list(enumerate_family(spec))
    failures = []
    for idx, h in enumerate(members):
        failure = {"index": idx, "edges": sorted(h.edges())}
        try:
            result = embed(h, params.delta, params)
            induced = verify_induced(h, result, params)
        except ArtifactError as exc:
            failures.append({**failure, "error": exc.to_json()})
            continue
        if not (induced.ok and result.certificate.ok):
            failures.append({**failure, "violations": list(induced.violations)})
    return SweepReport(total=len(members), embedded=len(members) - len(failures),
                       failures=failures)


# -- size report -------------------------------------------------------------------


def size_report(delta_list: list[int], n_list: list[int]) -> dict:
    """Formula-level scaling table for the paper's vertex counts.

    For each delta and n: log10 of the count, log10 of the n^(delta/2)
    reference curve (the counting lower bound up to its constant), and their
    difference. The per-delta spread of that difference measures how far the
    count strays from the reference shape.
    """
    if not delta_list or not n_list:
        raise ArgumentError("size report needs at least one delta and one n")
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
            c_log10 = gamma_vertex_count(paper_sizes(delta, n)).log10()
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
