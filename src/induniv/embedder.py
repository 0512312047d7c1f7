"""Deterministic induced-embedding pipeline into the product graph.

Stages: decompose the input into thin spanning parts, lay each part out
along a path with stretch at most 4, then realize each part by a constrained
walk. The first (anchor) coordinate map needs no constraints; every later
coordinate map is constrained so that

  * anchor collisions stay distinct (indices sharing an anchor image get
    different images in every later coordinate),
  * nearby layout positions stay distinct (local injectivity),
  * conflict sets stay small: the non-neighbors of a vertex whose images
    collide in two coordinate maps form its conflict set, which must have at
    most d members.

Remaining conflict pairs are neutralized by a shield map into the small
expander, built with the conflict pairs as separation constraints. The
assembled embedding is certified: every property is re-verified from its
definition, and the final induced check compares adjacency of every vertex
pair against the oracle. Nothing is accepted on the strength of the
construction alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import (
    ArgumentError,
    EmbeddingFailureError,
    InfeasibleBuildError,
    IntegrityError,
    PropertyFailureError,
    ScheduleOverflowError,
    WalkStuckError,
)
from .gamma import (
    GammaParams,
    GammaVertex,
    Profile,
    encode_label,
    gamma_adjacent_witness,
)
from .graphs import Graph
from .thin import (
    DecomposeStrategy,
    PathPowerLayout,
    ThinDecomposition,
    layout_thin,
    thin_decompose,
)
from .walks import ConstraintSchedule, WalkParams, build_walk_map

LOCAL_WINDOW = 8  # layout gap under which coordinate images must differ


@dataclass(frozen=True)
class HomomorphismSet:
    """All per-part maps of one embedding attempt.

    ``coord[i]`` maps every vertex into the large expander for part i+1;
    ``shield[i]`` maps into the small expander for parts 2..delta (1-based
    part index as key). ``label_sets[i][h]`` is the bitmask of neighbor
    ranks seen from ``coord[i-1][h]``.
    """

    decomposition: ThinDecomposition
    layouts: tuple[PathPowerLayout, ...]
    orders: tuple[tuple[int, ...], ...]
    coord: tuple[tuple[int, ...], ...]
    shield: dict[int, tuple[int, ...]]
    label_sets: dict[int, tuple[int, ...]]
    conflicts: dict[int, dict[int, frozenset[int]]]


@dataclass
class StageRecord:
    stage: str
    ok: bool
    violations: list[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return {"stage": self.stage, "ok": self.ok, "violations": self.violations}


@dataclass
class EmbedCertificate:
    records: list[StageRecord] = field(default_factory=list)

    def add(self, stage: str, violations: list[str]) -> None:
        self.records.append(StageRecord(stage, not violations, list(violations)))

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.records)

    def to_json(self) -> dict:
        return {
            "ok": self.ok,
            "stages": [r.to_json() for r in self.records],
        }


@dataclass(frozen=True)
class EmbeddingResult:
    gamma: tuple[GammaVertex, ...]
    certificate: EmbedCertificate
    homs: HomomorphismSet | None  # None when rebuilt from decoded labels
    params_digest: str

    def to_json(self, params: GammaParams) -> dict:
        return {
            "schema": "induniv/embedding-v1",
            "delta": params.delta,
            "n": len(self.gamma),
            "gamma": [encode_label(v, params) for v in self.gamma],
            "certificate": self.certificate.to_json(),
            "params_digest": self.params_digest,
        }


@dataclass(frozen=True)
class InducedReport:
    pairs_checked: int
    violations: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


@dataclass(frozen=True)
class RetryPolicy:
    """Budget escalation; optionally larger parameter sets for later rounds."""

    budget_scale: tuple[int, ...] = (1, 4, 16)
    fallback_params: tuple[GammaParams, ...] = ()


# -- stage operations ----------------------------------------------------------


def build_f1(
    part: Graph,
    layout: PathPowerLayout,
    params: GammaParams,
    budget: int | None = None,
) -> tuple[int, ...]:
    """Anchor coordinate map: an unconstrained walk read through the layout.

    A walk in R_m that is locally a path, composed with a stretch-4 layout,
    is automatically a homomorphism of the part into the 4-th power; this is
    still verified, not assumed.
    """
    n = len(layout.phi)
    assignment = _run_walk(part, layout, params, ConstraintSchedule.empty(n),
                           budget=budget, stage="f1")
    _require_clean("f1", _check_coord_map(part, layout, assignment, params))
    return assignment


def compute_sigma_i(
    i: int,
    h: Graph,
    coord_maps: list[tuple[int, ...]],
    layout: PathPowerLayout,
    params: GammaParams,
) -> ConstraintSchedule:
    """Constraint schedule for coordinate map i from the earlier maps.

    For each position t (with t0 one full block before t's block): earlier
    positions whose anchor image coincides with t's, plus earlier non-
    neighbors whose image in some previous coordinate map is within distance
    4 of t's. Keeping the new image away from both maintains the anchor-
    distinctness and conflict-set properties.
    """
    if i < 2:
        raise ArgumentError("constraint schedules start at the second coordinate")
    n = h.vertex_count
    order = layout.order()
    q = params.q_m
    rm_pow = params.rm_pow
    anchor = coord_maps[0]
    cap = params.sigma_cap_for(n)
    sets: dict[int, set[int]] = {}
    for t in range(n):
        t0 = (t // q - 1) * q - 1
        if t0 < 0:
            continue
        ht = order[t]
        entries: set[int] = set()
        for t2 in range(0, t0 + 1):
            h2 = order[t2]
            if anchor[ht] == anchor[h2]:
                entries.add(t2)
                continue
            if not h.has_edge(ht, h2) and any(
                rm_pow.contains(cm[ht], cm[h2]) for cm in coord_maps
            ):
                entries.add(t2)
        if len(entries) > cap:
            raise ScheduleOverflowError(
                f"sigma({t}) for coordinate {i} has {len(entries)} entries, cap {cap}",
                position=t, size=len(entries), cap=cap)
        if entries:
            sets[t] = entries
    return ConstraintSchedule.from_sets(n, sets)


def build_fi(
    i: int,
    part: Graph,
    layout: PathPowerLayout,
    schedule: ConstraintSchedule,
    params: GammaParams,
    budget: int | None = None,
    *,
    h: Graph,
    coord_maps: list[tuple[int, ...]],
) -> tuple[tuple[int, ...], dict[int, frozenset[int]]]:
    """Coordinate map for part i and its conflict sets, both verified."""
    assignment = _run_walk(part, layout, params, schedule, budget=budget,
                           stage=f"f{i}")
    conflicts = compute_bad_sets(i, h, coord_maps + [assignment], layout, params)
    _require_clean(f"f{i}", _check_coord_map(part, layout, assignment, params)
                   + _check_anchor_distinct(coord_maps[0], assignment)
                   + _check_window_distinct(layout, assignment)
                   + _check_conflict_bound(conflicts, layout, params))
    return assignment, conflicts


def compute_bad_sets(
    i: int,
    h: Graph,
    coord_maps: list[tuple[int, ...]],
    layout: PathPowerLayout,
    params: GammaParams,
) -> dict[int, frozenset[int]]:
    """Exact conflict sets for coordinate i, straight from the definition.

    h' conflicts with h when they are non-adjacent, more than 4 apart in the
    layout, and their images collide (lie within distance 4) both in map i
    and in some earlier map. Symmetric by construction.
    """
    maps = coord_maps[: i - 1]
    last = coord_maps[i - 1]
    rm_pow = params.rm_pow
    n = h.vertex_count
    out: dict[int, set[int]] = {v: set() for v in range(n)}
    for a in range(n):
        for b in range(a + 1, n):
            if h.has_edge(a, b):
                continue
            if abs(layout.phi[a] - layout.phi[b]) <= 4:
                continue
            if not rm_pow.contains(last[a], last[b]):
                continue
            if any(rm_pow.contains(cm[a], cm[b]) for cm in maps):
                out[a].add(b)
                out[b].add(a)
    return {v: frozenset(s) for v, s in out.items()}


def build_ri(
    i: int,
    part: Graph,
    layout: PathPowerLayout,
    conflicts: dict[int, frozenset[int]],
    params: GammaParams,
    budget: int | None = None,
) -> tuple[int, ...]:
    """Shield map for part i: a walk in R_z separating all conflict pairs.

    Conflict pairs far enough apart enter the walk schedule; pairs inside
    the schedule's blind window (closer than two blocks) are handled as
    direct avoidance constraints during the search. The separation property
    is then verified outright.
    """
    rz = params.r_z
    n = len(layout.phi)
    order = layout.order()
    pos = layout.phi
    q = params.q_z
    sched_sets: dict[int, set[int]] = {}
    late: dict[int, set[int]] = {}
    for a in range(n):
        for b in conflicts.get(a, ()):  # type: ignore[union-attr]
            ta, tb = pos[a], pos[b]
            if tb >= ta:
                continue
            limit = (ta // q - 1) * q - 1
            (sched_sets if tb <= limit else late).setdefault(ta, set()).add(tb)

    cap = params.sigma_cap_for(n)
    for t, entries in sched_sets.items():
        if len(entries) > cap:
            raise ScheduleOverflowError(
                f"shield schedule at {t} has {len(entries)} entries, cap {cap}",
                position=t, size=len(entries), cap=cap)
    schedule = ConstraintSchedule.from_sets(n, sched_sets)
    wp = WalkParams.for_graph(rz, n, usage_cap=params.usage_cap_for(n),
                              sigma_cap=cap)
    wm = _walk(rz, schedule, wp, params, budget, stage=f"r{i}",
               extra_avoid={t: s for t, s in late.items()})
    assignment = tuple(wm.values[pos[v]] for v in range(n))
    violations = _check_shield_map(part, assignment, params)
    violations += _check_conflict_shielded(conflicts, assignment, params)
    _require_clean(f"r{i}", violations)
    return assignment


def assemble_gamma(homs: HomomorphismSet, params: GammaParams) -> EmbeddingResult:
    """Zip the maps into product-graph vertices and build the certificate.

    The label set of h at block i collects the ranks, seen from h's image,
    of the images of h's neighbors inside part i; a neighbor image outside
    the power neighborhood means a broken homomorphism and is an integrity
    error. Injectivity is re-checked even though it follows from the anchor
    property.
    """
    n = len(homs.coord[0])
    cert = EmbedCertificate()
    vertices = []
    for v in range(n):
        blocks = []
        for i in range(2, len(homs.coord) + 1):
            mask = homs.label_sets[i][v]
            blocks.append((homs.coord[i - 1][v], mask, homs.shield[i][v]))
        vertices.append(GammaVertex(x1=homs.coord[0][v], blocks=tuple(blocks)))
    dup = n - len(set(vertices))
    cert.add("injective", [f"{dup} duplicate images"] if dup else [])
    return EmbeddingResult(
        gamma=tuple(vertices),
        certificate=cert,
        homs=homs,
        params_digest=params.digest(),
    )


def build_label_sets(
    i: int,
    part: Graph,
    assignment: tuple[int, ...],
    params: GammaParams,
) -> tuple[int, ...]:
    rm_pow = params.rm_pow
    masks = []
    for v in range(part.vertex_count):
        mask = 0
        for w in part.neighbors(v):
            r = rm_pow.rank(assignment[v], assignment[w])
            if r is None:
                raise IntegrityError(
                    f"image of neighbor {w} is not a power neighbor of the "
                    f"image of {v} in part {i}")
            mask |= 1 << r
        masks.append(mask)
    return tuple(masks)


def verify_induced(h: Graph, result: EmbeddingResult, params: GammaParams) -> InducedReport:
    """Full quadratic check: oracle adjacency iff input adjacency.

    Every violating pair is reported with its direction and, for spurious
    edges, the witnessing coordinate pair.
    """
    n = h.vertex_count
    gamma = result.gamma
    violations = []
    pairs = 0
    for a in range(n):
        for b in range(a + 1, n):
            pairs += 1
            expected = h.has_edge(a, b)
            got, witness = gamma_adjacent_witness(gamma[a], gamma[b], params)
            if got != expected:
                violations.append({
                    "pair": [a, b],
                    "expected": expected,
                    "got": got,
                    "witness": list(witness) if witness else None,
                })
    return InducedReport(pairs_checked=pairs, violations=tuple(violations))


def check_edge_witnesses(
    h: Graph, result: EmbeddingResult, params: GammaParams
) -> list[str]:
    """Each input edge must be witnessed by the two parts that contain it:
    both coordinate pairs close, mutual subset membership and a close shield
    pair at the larger part index."""
    out = []
    dec = result.homs.decomposition
    gamma = result.gamma
    rm_pow = params.rm_pow
    for (u, v), (pi, pj) in sorted(dec.multiplicity.items()):
        got, _ = gamma_adjacent_witness(gamma[u], gamma[v], params)
        if not got:
            out.append(f"edge ({u}, {v}) not realized by the oracle")
            continue
        j, i = sorted((pi + 1, pj + 1))
        gu, gv = gamma[u], gamma[v]
        if not (rm_pow.contains(gu.x(j), gv.x(j))
                and rm_pow.contains(gu.x(i), gv.x(i))):
            out.append(f"edge ({u}, {v}): coordinates not close at its parts ({j}, {i})")
            continue
        xu, mask_u, su = gu.blocks[i - 2]
        xv, mask_v, sv = gv.blocks[i - 2]
        ruv = rm_pow.rank(xu, xv)
        rvu = rm_pow.rank(xv, xu)
        if ruv is None or rvu is None or not ((mask_u >> ruv) & 1 and (mask_v >> rvu) & 1):
            out.append(f"edge ({u}, {v}): subset membership missing at part {i}")
        elif not params.rz_pow.contains(su, sv):
            out.append(f"edge ({u}, {v}): shield pair not close at part {i}")
    return out


def embed(
    h: Graph,
    delta: int,
    params: GammaParams,
    retry: RetryPolicy | None = None,
    strategy: DecomposeStrategy = DecomposeStrategy.AUTO,
) -> EmbeddingResult:
    """Full pipeline with verification gates and bounded retry escalation."""
    if params.profile == Profile.PAPER:
        raise InfeasibleBuildError(
            "paper-profile parameters are formula-only; embedding needs desk parameters")
    if delta != params.delta:
        raise ArgumentError(
            f"embedding delta {delta} does not match parameter delta {params.delta}")
    if h.max_degree() > delta:
        raise ArgumentError(
            f"max degree {h.max_degree()} exceeds delta {delta}")
    if h.vertex_count > params.n:
        raise ArgumentError(
            f"{h.vertex_count} vertices exceed the parameter capacity {params.n}")

    if retry is None:
        scale = params.desk.retry_budget_scale if params.desk else (1, 4, 16)
        retry = RetryPolicy(budget_scale=tuple(scale))
    base_budget = params.desk.walk_budget if params.desk else 200_000

    dec = thin_decompose(h, delta, strategy)
    layouts = tuple(layout_thin(part, h.vertex_count) for part in dec.parts)

    trail: list[dict] = []
    param_rounds = (params,) + tuple(retry.fallback_params)
    for p in param_rounds:
        for mult in retry.budget_scale:
            try:
                return _attempt(h, dec, layouts, p, base_budget * mult)
            except (WalkStuckError, PropertyFailureError, ScheduleOverflowError) as exc:
                trail.append({
                    "budget": base_budget * mult,
                    "params_digest": p.digest(),
                    "error": exc.to_json(),
                })
    raise EmbeddingFailureError("all embedding rounds failed", trail=trail)


# -- internals -----------------------------------------------------------------


def _attempt(
    h: Graph,
    dec: ThinDecomposition,
    layouts: tuple[PathPowerLayout, ...],
    params: GammaParams,
    budget: int,
) -> EmbeddingResult:
    # a stage that fails its checks raises, so every logged stage is green
    stage_log = []
    coord: list[tuple[int, ...]] = [build_f1(dec.parts[0], layouts[0], params, budget)]
    stage_log.append("f1: homomorphism, well-distribution")
    shield: dict[int, tuple[int, ...]] = {}
    label_sets: dict[int, tuple[int, ...]] = {}
    conflicts_all: dict[int, dict[int, frozenset[int]]] = {}
    for i in range(2, params.delta + 1):
        part, layout = dec.parts[i - 1], layouts[i - 1]
        schedule = compute_sigma_i(i, h, coord, layout, params)
        fi, conflicts = build_fi(i, part, layout, schedule, params, budget,
                                 h=h, coord_maps=coord)
        coord.append(fi)
        stage_log.append(
            f"f{i}: homomorphism, well-distribution, anchor-distinct, "
            "window-distinct, conflict-bound")
        conflicts_all[i] = conflicts
        shield[i] = build_ri(i, part, layout, conflicts, params, budget)
        stage_log.append(f"r{i}: homomorphism, conflict-shielded")
        label_sets[i] = build_label_sets(i, part, coord[i - 1], params)

    homs = HomomorphismSet(
        decomposition=dec,
        layouts=layouts,
        orders=tuple(tuple(l.order()) for l in layouts),
        coord=tuple(coord),
        shield=shield,
        label_sets=label_sets,
        conflicts=conflicts_all,
    )
    result = assemble_gamma(homs, params)
    result.certificate.records[:0] = [
        StageRecord(stage, True) for stage in stage_log]
    induced = verify_induced(h, result, params)
    result.certificate.add(
        "induced",
        [f"pair {v['pair']}: expected {v['expected']}, got {v['got']}"
         for v in induced.violations],
    )
    result.certificate.add("edge_witnesses", check_edge_witnesses(h, result, params))
    if not result.certificate.ok:
        raise PropertyFailureError(
            "assembled embedding failed verification",
            certificate=result.certificate.to_json())
    return result


def _run_walk(
    part: Graph,
    layout: PathPowerLayout,
    params: GammaParams,
    schedule: ConstraintSchedule,
    budget: int | None,
    stage: str,
) -> tuple[int, ...]:
    n = len(layout.phi)
    wp = WalkParams.for_graph(
        params.r_m, n,
        usage_cap=params.usage_cap_for(n),
        sigma_cap=params.sigma_cap_for(n))
    wm = _walk(params.r_m, schedule, wp, params, budget, stage)
    pos = layout.phi
    return tuple(wm.values[pos[v]] for v in range(n))


def _walk(graph, schedule, wp, params, budget, stage, extra_avoid=None):
    if budget is None:
        budget = params.desk.walk_budget if params.desk else 200_000
    try:
        return build_walk_map(
            graph, schedule, wp, search_budget=budget, extra_avoid=extra_avoid)
    except WalkStuckError as exc:
        exc.payload["stage"] = stage
        exc.stage = stage
        raise


def _require_clean(stage: str, violations: list[str]) -> None:
    if violations:
        raise PropertyFailureError(
            f"stage {stage} failed verification", stage=stage, violations=violations)


def _check_coord_map(
    part: Graph,
    layout: PathPowerLayout,
    assignment: tuple[int, ...],
    params: GammaParams,
) -> list[str]:
    out = []
    rm_pow = params.rm_pow
    for u, v in part.edges():
        if assignment[u] == assignment[v] or not rm_pow.contains(assignment[u], assignment[v]):
            out.append(f"edge ({u}, {v}) maps to non-adjacent images "
                       f"({assignment[u]}, {assignment[v]})")
    cap = params.usage_cap_for(len(assignment))
    usage: dict[int, int] = {}
    for img in assignment:
        usage[img] = usage.get(img, 0) + 1
    for img, c in sorted(usage.items()):
        if c > cap:
            out.append(f"image {img} used {c} times, well-distribution cap {cap}")
    return out


def _check_shield_map(part: Graph, assignment: tuple[int, ...], params: GammaParams) -> list[str]:
    out = []
    rz_pow = params.rz_pow
    for u, v in part.edges():
        if assignment[u] == assignment[v] or not rz_pow.contains(assignment[u], assignment[v]):
            out.append(f"shield: edge ({u}, {v}) maps to non-adjacent images")
    return out


def _check_anchor_distinct(
    anchor: tuple[int, ...], assignment: tuple[int, ...]
) -> list[str]:
    out = []
    n = len(anchor)
    for a in range(n):
        for b in range(a + 1, n):
            if anchor[a] == anchor[b] and assignment[a] == assignment[b]:
                out.append(
                    f"vertices {a}, {b} share both the anchor image and this image")
    return out


def _check_window_distinct(
    layout: PathPowerLayout, assignment: tuple[int, ...]
) -> list[str]:
    out = []
    n = len(assignment)
    for a in range(n):
        for b in range(a + 1, n):
            if abs(layout.phi[a] - layout.phi[b]) <= LOCAL_WINDOW \
                    and assignment[a] == assignment[b]:
                out.append(
                    f"vertices {a}, {b} sit within {LOCAL_WINDOW} layout slots "
                    f"but share image {assignment[a]}")
    return out


def _check_conflict_bound(
    conflicts: dict[int, frozenset[int]],
    layout: PathPowerLayout,
    params: GammaParams,
) -> list[str]:
    out = []
    gap = params.desk.conflict_gap if params.desk else 2 * params.z
    for v, cs in sorted(conflicts.items()):
        if len(cs) > params.d:
            out.append(f"conflict set of {v} has {len(cs)} members, cap {params.d}")
        for w in sorted(cs):
            if abs(layout.phi[v] - layout.phi[w]) <= gap:
                out.append(
                    f"conflict pair ({v}, {w}) sits {abs(layout.phi[v] - layout.phi[w])} "
                    f"slots apart, need more than {gap}")
    return out


def _check_conflict_shielded(
    conflicts: dict[int, frozenset[int]],
    assignment: tuple[int, ...],
    params: GammaParams,
) -> list[str]:
    out = []
    rz_pow = params.rz_pow
    for v, cs in sorted(conflicts.items()):
        for w in sorted(cs):
            if w > v and rz_pow.contains(assignment[v], assignment[w]):
                out.append(
                    f"conflict pair ({v}, {w}) has shield images within distance 4")
    return out
