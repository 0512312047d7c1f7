"""Constrained walks in expanders.

The walk builder produces an assignment f of indices 0..n-1 to vertices of a
host graph F subject to three properties:

  * usage   -- no vertex is used more than ``usage_cap`` times;
  * separation -- for every index t and scheduled earlier index t' the images
    f(t), f(t') are distinct and more than ``RADIUS`` = 4 apart in F;
  * blocks  -- every window (f(kq), ..., f(kq + min(2q, n-kq) - 1)) is a path,
    so the whole sequence is a walk that is locally self-avoiding.

The block length q comes from the host, q = ceil(log10 ell) for a host
with ell vertices (``step_for``), as in the walk lemma of Alon-Capalbo; the
caller gives only the two caps. The schedule may only constrain an index
against indices at least one full block behind it, which is what makes the
block-by-block construction sound.
The builder is a deterministic depth-first search with backtracking; its
output is always re-verified before being returned, never assumed correct.
Each step tries the neighbours of the last vertex in order of how often the
walk has used them so far, ties broken by a fixed integer mix of (vertex,
position). So the walk spreads over the host, as the walk lemma of
Alon-Capalbo needs, instead of circling a few vertices; walks that circle
overflow the constraint schedules built from them.
Builder and checker decide "within distance 4" through the host's
radius-4 metric (``graphs.shared_power_neighborhoods``), the same one the
product-graph oracle uses. The host memoises its connectivity, so a call
costs what its own walk costs, never a pass over the host. An LPS host
carries its metric, ``lps.PowerNeighborhoods``, which is group arithmetic
and holds no rows, so a walk's memory does not grow with the host vertices
it visits; any other host gets a fresh breadth-first reference
(``graphs.BfsNeighborhoods``) for each call, which keeps the row of each
vertex that call asks about.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import ArgumentError, IntegrityError, WalkStuckError
from .graphs import RADIUS, Graph, shared_power_neighborhoods

_MASK64 = (1 << 64) - 1
# steps a walk search may take, an embedding's walks each held to it
SEARCH_BUDGET = 200_000


def _mix(w: int, t: int) -> int:
    """A fixed 64-bit mix of (vertex, position): the walk's tie-break among
    equally used neighbours. Unlike ``hash`` it does not follow
    PYTHONHASHSEED, so walks are the same in every process."""
    x = (w * 0x9E3779B97F4A7C15 + t * 0xC2B2AE3D27D4EB4F) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def step_for(ell: int) -> int:
    """Block length for a host graph with ell vertices: ceil(log10 ell)."""
    if ell <= 1:
        return 1
    return max(1, math.ceil(math.log10(ell)))


def prefix_limit(t, q: int):
    """Last index that a constraint at index t may name, for block length q:
    the end of the block before t's previous block, so every target lies one
    full block behind t. Negative when t has no such index. Takes an int or
    a numpy integer array of indices."""
    return (t // q - 1) * q - 1


@dataclass(frozen=True)
class ConstraintSchedule:
    """Per-index sets of earlier indices whose images must stay far away."""

    n: int
    sigma: dict[int, frozenset[int]] = field(default_factory=dict)

    @classmethod
    def from_sets(cls, n: int, sets: Mapping[int, Iterable[int]]) -> "ConstraintSchedule":
        return cls(n=n, sigma={t: frozenset(s) for t, s in sets.items() if s})

    def at(self, t: int) -> frozenset[int]:
        return self.sigma.get(t, frozenset())

    def problems(self, q: int, sigma_cap: int) -> list[str]:
        """Violations of the schedule invariants for block length q and at
        most ``sigma_cap`` entries per index, empty when valid."""
        out = []
        for t, targets in sorted(self.sigma.items()):
            if not 0 <= t < self.n:
                out.append(f"index {t} outside [0, {self.n})")
                continue
            limit = prefix_limit(t, q)
            bad = [x for x in targets if x > limit or x < 0]
            if bad:
                out.append(f"sigma({t}) reaches {sorted(bad)} past the prefix limit {limit}")
            if len(targets) > sigma_cap:
                out.append(f"sigma({t}) has {len(targets)} entries, cap {sigma_cap}")
        return out


@dataclass(frozen=True)
class WalkViolation:
    kind: str  # 'usage' | 'separation' | 'blocks'
    where: tuple
    detail: str


def build_walk_map(
    host: Graph,
    schedule: ConstraintSchedule,
    *,
    usage_cap: int,
    sigma_cap: int,
    extra_avoid: Mapping[int, Iterable[int]] | None = None,
) -> tuple[int, ...]:
    """Deterministic backtracking construction of a walk map: the image of
    each index 0..n-1, with n = ``schedule.n``.

    The block length is the host's, ``step_for(host.vertex_count)``; the
    caps are the embedding's (``GammaParams.usage_cap_for`` and
    ``sigma_cap_for``). The search takes at most ``SEARCH_BUDGET`` steps,
    read when the call starts.

    ``extra_avoid`` adds separation constraints against earlier indices that
    the schedule invariant cannot express (targets inside the current or
    previous block); the caller is responsible for re-verifying whatever
    property those constraints serve.

    Raises WalkStuckError with the stuck position when the budget runs out,
    and ArgumentError on invalid caps or schedules.
    """
    if usage_cap < 1:
        raise ArgumentError("usage_cap must be >= 1")
    if sigma_cap < 0:
        raise ArgumentError("sigma_cap must be >= 0")
    if not host.is_connected():
        raise ArgumentError("walk host graph must be connected")
    ell = host.vertex_count
    q = step_for(ell)
    issues = schedule.problems(q, sigma_cap)
    if issues:
        raise ArgumentError("invalid schedule: " + "; ".join(issues))
    n = schedule.n
    if n < 0:
        raise ArgumentError("schedule length must be non-negative")
    if n == 0:
        return ()

    budget = SEARCH_BUDGET
    close = shared_power_neighborhoods(host).contains
    adj = host._adj  # the host's sorted neighbour tuples, read without id checks
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

    # the earlier positions each position must keep its image away from
    due = {t: tuple(sorted(targets)) for t, targets in schedule.sigma.items()}
    for t, targets in late.items():
        due[t] = due.get(t, ()) + targets
    values: list[int] = []
    usage: dict[int, int] = {}  # only the vertices the walk has used
    spent = 0

    def frame(t: int):
        """Position t's candidates in walk order, the images of its window
        (t's block and the one before) and its scheduled and late targets.
        Made once when t is reached: the positions before t keep their
        images while t is being filled."""
        if t == 0:
            order = iter(range(ell))
        else:
            order = iter(sorted(adj[values[t - 1]],
                                key=lambda w: (usage.get(w, 0), _mix(w, t))))
        return order, values[max(0, prefix_limit(t, q) + 1):t], due.get(t, ())

    frames = [frame(0)]
    while len(values) < n_pad:
        t = len(values)
        order, window, targets = frames[-1]
        placed = False
        for w in order:
            spent += 1
            if spent > budget:
                raise WalkStuckError(
                    "walk search budget exhausted",
                    position=t,
                    budget=budget,
                    scheduled_targets=len(schedule.at(t)),
                    at_cap=sum(1 for u in usage.values() if u >= usage_cap),
                )
            if usage.get(w, 0) >= usage_cap or w in window:
                continue
            for t2 in targets:
                x = values[t2]
                if x == w or close(x, w):
                    break
            else:
                values.append(w)
                usage[w] = usage.get(w, 0) + 1
                if len(values) < n_pad:
                    frames.append(frame(len(values)))
                placed = True
                break
        if not placed:
            if t == 0:
                raise WalkStuckError(
                    "no feasible starting vertex", position=0, budget=budget)
            frames.pop()
            prev = values.pop()
            usage[prev] -= 1

    final = tuple(values[:n])
    violations = verify_walk_map(host, schedule, final, usage_cap)
    if violations:
        raise IntegrityError(
            "walk builder produced a map failing its own verification",
            violations=[v.detail for v in violations],
        )
    return final


def verify_walk_map(
    host: Graph,
    schedule: ConstraintSchedule,
    values: Sequence[int],
    usage_cap: int,
) -> tuple[WalkViolation, ...]:
    """Recheck of the usage, separation and block properties of ``values``,
    the image of each index, with the host's block length. Empty when the
    map is clean.

    Recomputes the usage histogram, radius-4 closeness of every scheduled
    pair (through the host's metric, which the tests hold to BFS), and
    path-ness of every block window from scratch. Raises ArgumentError on a
    value that is not a vertex of the host.
    """
    for v in values:
        host._check_vertex(v)
    close = shared_power_neighborhoods(host).contains
    adj = host._adj  # the host's sorted neighbour tuples, read without id checks
    n = len(values)
    out: list[WalkViolation] = []

    counts = Counter(values)
    for v, c in sorted(counts.items()):
        if c > usage_cap:
            out.append(WalkViolation(
                "usage", (v,), f"vertex {v} used {c} times, cap {usage_cap}"))

    for t in sorted(t for t in schedule.sigma if 0 <= t < n):
        for t2 in sorted(schedule.sigma[t]):
            if t2 >= n:
                continue
            a, b = values[t], values[t2]
            if a == b:
                out.append(WalkViolation(
                    "separation", (t, t2), f"indices {t},{t2} share image {a}"))
                continue
            if close(a, b):
                out.append(WalkViolation(
                    "separation", (t, t2),
                    f"images of {t},{t2} are at distance {host.distance(a, b)} "
                    f"<= {RADIUS}"))

    q = step_for(host.vertex_count)
    k = 0
    while k * q < n:
        start = k * q
        width = min(2 * q, n - start)
        window = values[start:start + width]
        if len(set(window)) != len(window):
            out.append(WalkViolation(
                "blocks", (k,), f"window at block {k} repeats a vertex: {window}"))
        else:
            for i in range(len(window) - 1):
                if window[i + 1] not in adj[window[i]]:
                    out.append(WalkViolation(
                        "blocks", (k,),
                        f"window at block {k} breaks adjacency at offset {i}"))
                    break
        k += 1
    return tuple(out)

