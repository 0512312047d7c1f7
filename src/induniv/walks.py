"""Constrained walks in expanders and the expanding-vertex machinery.

The walk builder produces an assignment f of indices 0..n-1 to vertices of a
host graph F subject to three properties:

  * usage   -- no vertex is used more than ``usage_cap`` times;
  * separation -- for every index t and scheduled earlier index t' the images
    f(t), f(t') are distinct and more than ``RADIUS`` = 4 apart in F;
  * blocks  -- every window (f(kq), ..., f(kq + min(2q, n-kq) - 1)) is a path,
    so the whole sequence is a walk that is locally self-avoiding.

The schedule may only constrain an index against indices at least one full
block behind it, which is what makes the block-by-block construction sound.
The builder is a deterministic depth-first search with backtracking; its
output is always re-verified before being returned, never assumed correct.
Builder and checker decide "within distance 4" through the host's shared
radius-4 metric (``graphs.shared_power_neighborhoods``), the same one the
product-graph oracle uses. The host memoises that metric and its connectivity,
so a call costs what its own walk costs, never a pass over the host.
"""

from __future__ import annotations

import hashlib
import json
import math
import warnings
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import ArgumentError, BudgetError, IntegrityError, WalkStuckError
from .graphs import RADIUS, Graph, shared_power_neighborhoods


def step_for(ell: int) -> int:
    """Block length for a host graph with ell vertices: ceil(log10 ell)."""
    if ell <= 1:
        return 1
    return max(1, math.ceil(math.log10(ell)))


@dataclass(frozen=True)
class WalkParams:
    """Knobs of the walk construction for one host graph."""

    ell: int
    step: int
    usage_cap: int
    sigma_cap: int

    def __post_init__(self):
        if self.ell < 1:
            raise ArgumentError("ell must be >= 1")
        if self.step < 1:
            raise ArgumentError("step must be >= 1")
        if self.usage_cap < 1:
            raise ArgumentError("usage_cap must be >= 1")
        if self.sigma_cap < 0:
            raise ArgumentError("sigma_cap must be >= 0")

    @classmethod
    def for_graph(cls, f: Graph, n: int, usage_cap: int | None = None,
                  sigma_cap: int | None = None) -> "WalkParams":
        ell = f.vertex_count
        if usage_cap is None:
            usage_cap = max(1, 40 * math.ceil(n / ell)) if n else 1
        if sigma_cap is None:
            sigma_cap = max(1, ell // 40)
        return cls(ell=ell, step=step_for(ell), usage_cap=usage_cap,
                   sigma_cap=sigma_cap)


@dataclass(frozen=True)
class ConstraintSchedule:
    """Per-index sets of earlier indices whose images must stay far away."""

    n: int
    sigma: dict[int, frozenset[int]] = field(default_factory=dict)

    @classmethod
    def empty(cls, n: int) -> "ConstraintSchedule":
        return cls(n=n, sigma={})

    @classmethod
    def from_sets(cls, n: int, sets: Mapping[int, Iterable[int]]) -> "ConstraintSchedule":
        return cls(n=n, sigma={t: frozenset(s) for t, s in sets.items() if s})

    def at(self, t: int) -> frozenset[int]:
        return self.sigma.get(t, frozenset())

    def problems(self, params: WalkParams) -> list[str]:
        """Violations of the schedule invariants, empty when valid."""
        q = params.step
        out = []
        for t, targets in sorted(self.sigma.items()):
            if not 0 <= t < self.n:
                out.append(f"index {t} outside [0, {self.n})")
                continue
            limit = (t // q - 1) * q - 1
            bad = [x for x in targets if x > limit or x < 0]
            if bad:
                out.append(f"sigma({t}) reaches {sorted(bad)} past the prefix limit {limit}")
            if len(targets) > params.sigma_cap:
                out.append(f"sigma({t}) has {len(targets)} entries, cap {params.sigma_cap}")
        return out

    def digest(self) -> str:
        payload = json.dumps(
            {"n": self.n, "sigma": {str(t): sorted(s) for t, s in sorted(self.sigma.items())}},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class WalkMap:
    """A built assignment together with the schedule it satisfies."""

    values: tuple[int, ...]
    schedule: ConstraintSchedule
    usage: dict[int, int]

    def to_json(self) -> dict:
        return {"values": list(self.values), "schedule_digest": self.schedule.digest()}


@dataclass(frozen=True)
class WalkViolation:
    kind: str  # 'usage' | 'separation' | 'blocks'
    where: tuple
    detail: str


@dataclass(frozen=True)
class WalkReport:
    violations: tuple[WalkViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def of_kind(self, kind: str) -> list[WalkViolation]:
        return [v for v in self.violations if v.kind == kind]


def build_walk_map(
    f_graph: Graph,
    schedule: ConstraintSchedule,
    params: WalkParams,
    search_budget: int = 200_000,
    extra_avoid: Mapping[int, Iterable[int]] | None = None,
) -> WalkMap:
    """Deterministic backtracking construction of a walk map.

    ``extra_avoid`` adds separation constraints against earlier indices that
    the schedule invariant cannot express (targets inside the current or
    previous block); the caller is responsible for re-verifying whatever
    property those constraints serve.

    Raises WalkStuckError with the stuck position and a resumable prefix when
    the budget runs out, and ArgumentError on invalid schedules.
    """
    if f_graph.vertex_count != params.ell:
        raise ArgumentError(
            f"params.ell={params.ell} does not match host graph size {f_graph.vertex_count}")
    if not f_graph.is_connected():
        raise ArgumentError("walk host graph must be connected")
    issues = schedule.problems(params)
    if issues:
        raise ArgumentError("invalid schedule: " + "; ".join(issues))
    n = schedule.n
    if n < 0:
        raise ArgumentError("schedule length must be non-negative")
    if n == 0:
        return WalkMap(values=(), schedule=schedule, usage={})

    q = params.step
    cap = params.usage_cap
    close = shared_power_neighborhoods(f_graph, RADIUS).contains
    n_pad = ((n + q - 1) // q) * q

    late: dict[int, tuple[int, ...]] = {}
    if extra_avoid:
        for t, targets in extra_avoid.items():
            tg = tuple(sorted(set(targets)))
            if not tg:
                continue
            if not (0 <= t < n) or any(not 0 <= x < t for x in tg):
                raise ArgumentError(f"extra_avoid[{t}] must name earlier indices, got {tg}")
            late[t] = tg

    sigma_sorted = {t: tuple(sorted(schedule.at(t))) for t in schedule.sigma}
    values: list[int] = []
    usage: dict[int, int] = {}  # only the vertices the walk has used
    iters: list = []
    spent = 0

    def candidates(t: int):
        if t == 0:
            return iter(range(params.ell))
        return iter(f_graph.neighbors(values[t - 1]))

    def admissible(t: int, w: int) -> bool:
        if usage.get(w, 0) >= cap:
            return False
        window_start = max(0, (t // q - 1) * q)
        for t2 in range(window_start, t):
            if values[t2] == w:
                return False
        if t < n:
            for t2 in sigma_sorted.get(t, ()) + late.get(t, ()):
                x = values[t2]
                if x == w or close(x, w):
                    return False
        return True

    iters.append(candidates(0))
    while len(values) < n_pad:
        t = len(values)
        placed = False
        for w in iters[-1]:
            spent += 1
            if spent > search_budget:
                raise WalkStuckError(
                    "walk search budget exhausted",
                    position=t,
                    state=tuple(values),
                    budget=search_budget,
                    scheduled_targets=len(sigma_sorted.get(t, ())),
                    at_cap=sum(1 for u in usage.values() if u >= cap),
                )
            if admissible(t, w):
                values.append(w)
                usage[w] = usage.get(w, 0) + 1
                if len(values) < n_pad:
                    iters.append(candidates(len(values)))
                placed = True
                break
        if not placed:
            if t == 0:
                raise WalkStuckError(
                    "no feasible starting vertex", position=0, state=(),
                    budget=search_budget)
            iters.pop()
            prev = values.pop()
            usage[prev] -= 1

    final = tuple(values[:n])
    wm = WalkMap(values=final, schedule=schedule, usage=dict(Counter(final)))
    report = verify_walk_map(f_graph, schedule, params, wm)
    if not report.ok:
        raise IntegrityError(
            "walk builder produced a map failing its own verification",
            violations=[v.detail for v in report.violations],
        )
    return wm


def verify_walk_map(
    f_graph: Graph,
    schedule: ConstraintSchedule,
    params: WalkParams,
    wm: WalkMap,
) -> WalkReport:
    """Recheck of the usage, separation and block properties from the map.

    Recomputes the usage histogram, radius-4 closeness of every scheduled
    pair (through the shared metric, which the tests hold to BFS), and
    path-ness of every block window from scratch.
    """
    close = shared_power_neighborhoods(f_graph, RADIUS).contains
    vals = wm.values
    n = len(vals)
    out: list[WalkViolation] = []

    counts = Counter(vals)
    for v, c in sorted(counts.items()):
        if c > params.usage_cap:
            out.append(WalkViolation(
                "usage", (v,), f"vertex {v} used {c} times, cap {params.usage_cap}"))

    for t in range(n):
        for t2 in sorted(schedule.at(t)):
            if t2 >= n:
                continue
            a, b = vals[t], vals[t2]
            if a == b:
                out.append(WalkViolation(
                    "separation", (t, t2), f"indices {t},{t2} share image {a}"))
                continue
            if close(a, b):
                out.append(WalkViolation(
                    "separation", (t, t2),
                    f"images of {t},{t2} are at distance {f_graph.distance(a, b)} "
                    f"<= {RADIUS}"))

    q = params.step
    k = 0
    while k * q < n:
        start = k * q
        width = min(2 * q, n - start)
        window = vals[start:start + width]
        if len(set(window)) != len(window):
            out.append(WalkViolation(
                "blocks", (k,), f"window at block {k} repeats a vertex: {window}"))
        else:
            for i in range(len(window) - 1):
                if not f_graph.has_edge(window[i], window[i + 1]):
                    out.append(WalkViolation(
                        "blocks", (k,),
                        f"window at block {k} breaks adjacency at offset {i}"))
                    break
        k += 1
    return WalkReport(violations=tuple(out))


# -- expanding vertices -------------------------------------------------------


def is_q_expanding(
    f_graph: Graph,
    v: int,
    sets: Sequence[Iterable[int]],
    q: int,
    path_budget: int = 2_000_000,
) -> bool:
    """Exact universal check of the expanding-vertex property.

    v is q-expanding with respect to S_0..S_{q-1} iff for EVERY path P in the
    host with at most q vertices, at least half of all vertices w admit a
    path (v, w_0, ..., w_{q-1} = w) with w_i avoiding S_i and P throughout.
    Enumerates path vertex sets (a path and its reverse constrain
    identically) and counts feasible endpoints per set, with early exit both
    on reaching the half threshold and on the first failing P.
    """
    if q < 1:
        raise ArgumentError("q must be >= 1")
    if len(sets) != q:
        raise ArgumentError(f"expected {q} avoidance sets, got {len(sets)}")
    f_graph._check_vertex(v)
    ell = f_graph.vertex_count
    avoid = [frozenset(s) for s in sets]
    if any(len(a) >= ell for a in avoid):
        return False

    for p_set in _path_vertex_sets(f_graph, q, path_budget):
        reached: set[int] = set()
        layers = [avoid[i] | p_set for i in range(q)]
        stack = [(v, 0, (v,))]
        while stack and 2 * len(reached) < ell:
            u, depth, used = stack.pop()
            for w in reversed(f_graph.neighbors(u)):
                if w in layers[depth] or w in used:
                    continue
                if depth == q - 1:
                    reached.add(w)
                    if 2 * len(reached) >= ell:
                        break
                else:
                    stack.append((w, depth + 1, used + (w,)))
        if 2 * len(reached) < ell:
            return False
    return True


def _path_vertex_sets(g: Graph, max_size: int, budget: int):
    """Vertex sets of all paths in g with 1..max_size vertices, deduplicated."""
    seen: set[frozenset[int]] = set()
    count = 0
    for start in range(g.vertex_count):
        stack = [(start, (start,))]
        while stack:
            u, path = stack.pop()
            fs = frozenset(path)
            if fs not in seen:
                seen.add(fs)
                count += 1
                if count > budget:
                    raise BudgetError(
                        f"path enumeration exceeded budget {budget}",
                        budget=budget)
                yield fs
            if len(path) < max_size:
                for w in g.neighbors(u):
                    if w not in path:
                        stack.append((w, path + (w,)))


def count_q_expanding(
    f_graph: Graph,
    sets: Sequence[Iterable[int]],
    q: int,
    path_budget: int = 2_000_000,
) -> int:
    """Exact count of expanding vertices; warns outside the small-set regime."""
    ell = f_graph.vertex_count
    for i, s in enumerate(sets):
        if len(frozenset(s)) > ell / 20:
            warnings.warn(
                f"avoidance set {i} has more than ell/20 = {ell / 20:.1f} vertices; "
                "the expanding-vertex guarantee does not apply",
                stacklevel=2,
            )
            break
    return sum(
        1 for v in range(ell) if is_q_expanding(f_graph, v, sets, q, path_budget)
    )
