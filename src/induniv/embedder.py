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
expander, built with the conflict pairs as separation constraints.

The anchor map, the coordinate maps into the large expander R_m and the
shield maps into the small expander R_z are one walk stage (``_walk_stage``):
a constrained walk on the host, read through the part's layout and checked
to be a homomorphism into the host's 4th power. The walk itself is checked
for well-distribution (the usage cap) before it is returned. A schedule may
only name indices a full block behind (``walks.prefix_limit``); a shield
conflict closer than that goes to the walk as a direct avoidance constraint.

The assembled embedding is certified: every property is re-verified from its
definition, and the final induced check decides oracle adjacency for every
vertex pair and compares it with the input. The adjacency rule itself is
decided only in ``gamma``: the induced check compares the oracle's batched
form (``gamma.adjacent_pairs``, built from close-pair sets instead of
visiting all pairs) with the input, and the edge-witness check asks the
rule's block test (``gamma.block_link``) about each edge at its two parts.
The certificate also decides every pair once more with the scalar rule,
``gamma.gamma_adjacent_witness`` on the assembled vertices (the x-scan that
``adjacency_from_labels`` runs on parsed labels), so the batched verdict and
the scalar rule are held to agree; no label is encoded or parsed there.
Nothing is accepted on the strength of the construction alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ArgumentError,
    EmbeddingFailureError,
    IntegrityError,
    PropertyFailureError,
    ScheduleOverflowError,
    WalkStuckError,
)
from .gamma import (
    GammaParams,
    GammaVertex,
    _member,
    adjacent_pairs,
    block_link,
    close_pair_ranks,
    encode_label,
    gamma_adjacent_witness,
)
from .graphs import Graph
from .thin import ThinDecomposition, layout_thin, thin_decompose
from . import walks
from .walks import ConstraintSchedule, build_walk_map, prefix_limit

LOCAL_WINDOW = 8  # layout gap under which coordinate images must differ
CONFLICT_GAP = 4  # conflict pairs sit more than this many layout slots apart


@dataclass(frozen=True)
class HomomorphismSet:
    """All per-part maps of one embedding attempt.

    ``layouts[i]`` is the layout phi of part i+1 (``thin.layout_thin``);
    ``coord[i]`` maps every vertex into the large expander for part i+1;
    ``shield[i]`` maps into the small expander for parts 2..delta (1-based
    part index as key). ``label_sets[i][h]`` is the bitmask of neighbor
    ranks seen from ``coord[i-1][h]``.
    """

    decomposition: ThinDecomposition
    layouts: tuple[tuple[int, ...], ...]
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


class CloseSets:
    """The close pairs of one embedding attempt's coordinate maps, each map
    scanned once.

    ``ranks`` holds a map's close pairs a < b, as sorted keys a * n + b, with
    both ranks (``gamma.close_pair_ranks``), keyed by the exact coordinate
    tuple. The attempt's schedules and conflict sets read it as each map is
    built, and its induced check (``adjacent_pairs``) reads it again for the
    coordinates read off the assembled vertices: a vertex whose coordinate
    differs from its built map changes the tuple, misses the table and is
    scanned afresh. ``of`` gives a map's keys alone, ``union`` the keys close
    in at least one of several maps, keyed by the maps it joins, and
    ``edge_keys`` an input's edges as sorted keys; each is held once made.
    An attempt makes one instance and drops it with itself.
    """

    def __init__(self, rm_pow, n: int):
        self.rm_pow = rm_pow
        self.n = n
        self._ranks: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        self._unions: dict[tuple[tuple[int, ...], ...], np.ndarray] = {}
        self._edges: dict[Graph, np.ndarray] = {}

    def ranks(self, coord_map) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        coord_map = tuple(coord_map)
        found = self._ranks.get(coord_map)
        if found is None:
            found = self._ranks[coord_map] = close_pair_ranks(self.rm_pow, coord_map)
        return found

    def of(self, coord_map) -> np.ndarray:
        return self.ranks(coord_map)[0]

    def union(self, coord_maps) -> np.ndarray:
        """Keys of the pairs close in at least one of the maps, sorted and
        distinct. (Sorting and dropping repeats by hand, unlike ``np.unique``,
        does not import ``numpy.ma``, which costs a fresh process some 10 ms.)"""
        joined = tuple(map(tuple, coord_maps))
        keys = self._unions.get(joined)
        if keys is None:
            keys = np.sort(np.concatenate(
                [np.zeros(0, dtype=np.int64)] + [self.of(cm) for cm in joined]))
            first = np.ones(len(keys), dtype=bool)
            first[1:] = keys[1:] != keys[:-1]
            keys = self._unions[joined] = keys[first]
        return keys

    def edge_keys(self, h: Graph) -> np.ndarray:
        keys = self._edges.get(h)
        if keys is None:
            keys = self._edges[h] = _pair_keys(h.edges(), self.n)
        return keys


# -- stage operations ----------------------------------------------------------


def build_f1(
    part: Graph,
    phi: tuple[int, ...],
    params: GammaParams,
) -> tuple[int, ...]:
    """Anchor coordinate map: an unconstrained walk read through the layout.

    A walk in R_m that is locally a path, composed with a stretch-4 layout,
    is automatically a homomorphism of the part into the 4-th power; this is
    still verified, not assumed.
    """
    assignment, broken = _walk_stage(
        "f1", part, phi, params.r_m, params.rm_pow,
        ConstraintSchedule(len(phi)), params)
    _require_clean("f1", broken)
    return assignment


def compute_sigma_i(
    i: int,
    h: Graph,
    coord_maps: list[tuple[int, ...]],
    phi: tuple[int, ...],
    params: GammaParams,
    close: CloseSets | None = None,
) -> ConstraintSchedule:
    """Constraint schedule for coordinate map i from the earlier maps.

    For each position t (with t0 one full block before t's block): earlier
    positions whose anchor image coincides with t's, plus earlier non-
    neighbors whose image in some previous coordinate map is within distance
    4 of t's. Keeping the new image away from both maintains the anchor-
    distinctness and conflict-set properties. The candidate pairs are the
    anchor collisions and the close pairs of the earlier maps (read from
    ``close`` when given); no other pair can enter a schedule.
    """
    if i < 2:
        raise ArgumentError("constraint schedules start at the second coordinate")
    n = h.vertex_count
    q = params.q_m
    cap = params.sigma_cap_for(n)
    close = close or CloseSets(params.rm_pow, n)
    keys = close.union(coord_maps)
    keys = np.concatenate([keys[~_member(close.edge_keys(h), keys)],
                           _pair_keys(_collisions(coord_maps[0]), n)])
    phi = np.asarray(phi, dtype=np.int64)
    ta, tb = phi[keys // n], phi[keys % n]
    a_due = tb <= prefix_limit(ta, q)
    b_due = ta <= prefix_limit(tb, q)
    t = np.concatenate([ta[a_due], tb[b_due]])
    t2 = np.concatenate([tb[a_due], ta[b_due]])
    order = np.argsort(t, kind="stable")
    sets: dict[int, set[int]] = {}
    for at, earlier in zip(t[order].tolist(), t2[order].tolist()):
        sets.setdefault(at, set()).add(earlier)
    for at in sorted(sets):
        if len(sets[at]) > cap:
            raise ScheduleOverflowError(
                f"sigma({at}) for coordinate {i} has {len(sets[at])} entries, cap {cap}",
                position=at, size=len(sets[at]), cap=cap)
    return ConstraintSchedule.from_sets(n, sets)


def build_fi(
    i: int,
    part: Graph,
    phi: tuple[int, ...],
    schedule: ConstraintSchedule,
    params: GammaParams,
    *,
    h: Graph,
    coord_maps: list[tuple[int, ...]],
    close: CloseSets | None = None,
) -> tuple[tuple[int, ...], dict[int, frozenset[int]]]:
    """Coordinate map for part i and its conflict sets, both verified."""
    assignment, broken = _walk_stage(
        f"f{i}", part, phi, params.r_m, params.rm_pow, schedule, params)
    conflicts = compute_bad_sets(i, h, coord_maps + [assignment], phi, params, close)
    _require_clean(f"f{i}", broken + _check_anchor_distinct(coord_maps[0], assignment)
                   + _check_window_distinct(phi, assignment)
                   + _check_conflict_bound(conflicts, phi, params))
    return assignment, conflicts


def compute_bad_sets(
    i: int,
    h: Graph,
    coord_maps: list[tuple[int, ...]],
    phi: tuple[int, ...],
    params: GammaParams,
    close: CloseSets | None = None,
) -> dict[int, frozenset[int]]:
    """Exact conflict sets for coordinate i, straight from the definition.

    h' conflicts with h when they are non-adjacent, more than ``CONFLICT_GAP``
    apart in the layout, and their images collide (lie within distance 4)
    both in map i and in some earlier map. Symmetric by construction. Only
    pairs close in map i and in an earlier map can conflict, so only those
    are tested.
    """
    n = h.vertex_count
    close = close or CloseSets(params.rm_pow, n)
    keys = close.of(coord_maps[i - 1])
    keys = keys[_member(close.union(coord_maps[: i - 1]), keys)]
    keys = keys[~_member(close.edge_keys(h), keys)]
    phi = np.asarray(phi, dtype=np.int64)
    a, b = keys // n, keys % n
    far = np.abs(phi[a] - phi[b]) > CONFLICT_GAP
    out: dict[int, set[int]] = {v: set() for v in range(n)}
    for u, v in zip(a[far].tolist(), b[far].tolist()):
        out[u].add(v)
        out[v].add(u)
    return {v: frozenset(s) for v, s in out.items()}


def build_ri(
    i: int,
    part: Graph,
    phi: tuple[int, ...],
    conflicts: dict[int, frozenset[int]],
    params: GammaParams,
) -> tuple[int, ...]:
    """Shield map for part i: a walk in R_z separating all conflict pairs.

    Conflict pairs far enough apart enter the walk schedule; pairs inside
    the schedule's blind window (closer than two blocks) are handled as
    direct avoidance constraints during the search. The separation property
    is then verified outright.
    """
    n = len(phi)
    q = params.q_z
    sched_sets: dict[int, set[int]] = {}
    late: dict[int, set[int]] = {}
    for a in range(n):
        for b in conflicts.get(a, ()):  # type: ignore[union-attr]
            ta, tb = phi[a], phi[b]
            if tb < ta:
                due = sched_sets if tb <= prefix_limit(ta, q) else late
                due.setdefault(ta, set()).add(tb)

    cap = params.sigma_cap_for(n)
    for t, entries in sched_sets.items():
        if len(entries) > cap:
            raise ScheduleOverflowError(
                f"shield schedule at {t} has {len(entries)} entries, cap {cap}",
                position=t, size=len(entries), cap=cap)
    assignment, broken = _walk_stage(
        f"r{i}", part, phi, params.r_z, params.rz_pow,
        ConstraintSchedule.from_sets(n, sched_sets), params, late)
    _require_clean(f"r{i}", broken + _check_conflict_shielded(conflicts, assignment, params))
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


def verify_induced(
    h: Graph, result: EmbeddingResult, params: GammaParams, *, close: CloseSets | None = None
) -> InducedReport:
    """Exact check of every pair: oracle adjacency iff input adjacency.

    Every violating pair is reported with its direction and, for spurious
    edges, the witnessing coordinate pair. The adjacent pairs come from
    ``adjacent_pairs``, the batched form of the public oracle, which reads
    the close pairs of each coordinate from ``close`` when given (an
    attempt's tables, keyed by the coordinates themselves) and scans them
    afresh otherwise. Nothing is sampled: all n(n-1)/2 pairs are decided and
    compared with h.
    """
    n = h.vertex_count
    gamma = result.gamma
    if len(gamma) != n:
        raise ArgumentError(f"embedding has {len(gamma)} labels for {n} vertices")
    adjacent = adjacent_pairs(gamma, params, close=close)
    violations = []
    for pair in sorted(set(adjacent).symmetric_difference(h.edges())):
        got = pair in adjacent
        violations.append({
            "pair": list(pair),
            "expected": not got,
            "got": got,
            "witness": list(adjacent[pair]) if got else None,
        })
    return InducedReport(pairs_checked=n * (n - 1) // 2, violations=tuple(violations))


def check_edge_witnesses(
    h: Graph, result: EmbeddingResult, params: GammaParams
) -> list[str]:
    """Each input edge must be witnessed by the two parts j < i that contain
    it: both x-pairs close at j and at i, and block i linking the pair
    (``block_link``). That is the oracle's rule at (j, i), so an edge that
    passes is one the oracle calls adjacent."""
    if result.homs is None:
        raise ArgumentError(
            "the edge-witness check needs the decomposition, and a result "
            "rebuilt from labels has none")
    out = []
    gamma = result.gamma
    rm_pow = params.rm_pow
    for (u, v), parts in sorted(result.homs.decomposition.multiplicity.items()):
        j, i = sorted(p + 1 for p in parts)
        gu, gv = gamma[u], gamma[v]
        xu, xv = gu.coords, gv.coords
        ruv = rm_pow.rank(xu[i - 1], xv[i - 1])
        rvu = rm_pow.rank(xv[i - 1], xu[i - 1])
        if ruv is None or not rm_pow.contains(xu[j - 1], xv[j - 1]):
            out.append(f"edge ({u}, {v}): coordinates not close at its parts ({j}, {i})")
            continue
        reason = block_link(gu, gv, i, ruv, rvu, params)
        if reason is not None:
            out.append(f"edge ({u}, {v}): {reason} at part {i}")
    return out


def check_oracle_agreement(
    h: Graph, result: EmbeddingResult, params: GammaParams
) -> list[str]:
    """Every pair of assembled vertices, decided one call per pair by the
    scalar rule ``gamma_adjacent_witness``, must agree with the input.
    ``verify_induced`` decides the same question from batched close-pair
    sets; this check holds the batched form to the scalar x-scan, which
    ``adjacency_from_labels`` also runs, so a drift between the two is caught
    when the embedding is built. It works on the ``GammaVertex`` values and
    encodes or parses no label."""
    n = h.vertex_count
    gamma = result.gamma
    if len(gamma) != n:
        raise ArgumentError(f"embedding has {len(gamma)} labels for {n} vertices")
    out = []
    for a in range(n):
        va, row = gamma[a], frozenset(h.neighbors(a))
        for b in range(a + 1, n):
            got, _ = gamma_adjacent_witness(va, gamma[b], params)
            if got != (b in row):
                out.append(f"oracle says pair ({a}, {b}) adjacent={got}")
    return out


def embed(
    h: Graph,
    delta: int,
    params: GammaParams,
) -> EmbeddingResult:
    """Full pipeline with verification gates: one attempt, its walks held
    to ``walks.SEARCH_BUDGET`` steps each.

    The walks are deterministic, so a failed attempt would fail again. Its
    error is raised as an EmbeddingFailureError whose ``trail`` holds one
    entry: the walk budget, the parameter digest and the error.
    """
    if delta != params.delta:
        raise ArgumentError(
            f"embedding delta {delta} does not match parameter delta {params.delta}")
    if h.max_degree() > delta:
        raise ArgumentError(
            f"max degree {h.max_degree()} exceeds delta {delta}")
    if h.vertex_count > params.n:
        raise ArgumentError(
            f"{h.vertex_count} vertices exceed the parameter capacity {params.n}")

    dec = thin_decompose(h, delta)
    laid: dict[Graph, tuple[int, ...]] = {}  # the even route's twin parts are one graph
    for part in dec.parts:
        if part not in laid:
            laid[part] = layout_thin(part)
    layouts = tuple(laid[part] for part in dec.parts)

    try:
        return _attempt(h, dec, layouts, params)
    except (WalkStuckError, PropertyFailureError, ScheduleOverflowError) as exc:
        raise EmbeddingFailureError("the embedding attempt failed", trail=[{
            "budget": walks.SEARCH_BUDGET,
            "params_digest": params.digest(),
            "error": exc.to_json(),
        }]) from exc


# -- internals -----------------------------------------------------------------


def _attempt(
    h: Graph,
    dec: ThinDecomposition,
    layouts: tuple[tuple[int, ...], ...],
    params: GammaParams,
) -> EmbeddingResult:
    # a stage that fails its checks raises, so every logged stage is green
    stage_log = []
    coord: list[tuple[int, ...]] = [build_f1(dec.parts[0], layouts[0], params)]
    stage_log.append("f1: homomorphism, well-distribution")
    shield: dict[int, tuple[int, ...]] = {}
    label_sets: dict[int, tuple[int, ...]] = {}
    conflicts_all: dict[int, dict[int, frozenset[int]]] = {}
    close = CloseSets(params.rm_pow, h.vertex_count)
    for i in range(2, params.delta + 1):
        part, phi = dec.parts[i - 1], layouts[i - 1]
        schedule = compute_sigma_i(i, h, coord, phi, params, close)
        fi, conflicts = build_fi(i, part, phi, schedule, params,
                                 h=h, coord_maps=coord, close=close)
        coord.append(fi)
        stage_log.append(
            f"f{i}: homomorphism, well-distribution, anchor-distinct, "
            "window-distinct, conflict-bound")
        conflicts_all[i] = conflicts
        shield[i] = build_ri(i, part, phi, conflicts, params)
        stage_log.append(f"r{i}: homomorphism, conflict-shielded")
        label_sets[i] = build_label_sets(i, part, coord[i - 1], params)

    homs = HomomorphismSet(
        decomposition=dec,
        layouts=layouts,
        coord=tuple(coord),
        shield=shield,
        label_sets=label_sets,
        conflicts=conflicts_all,
    )
    result = assemble_gamma(homs, params)
    result.certificate.records[:0] = [
        StageRecord(stage, True) for stage in stage_log]
    induced = verify_induced(h, result, params, close=close)
    result.certificate.add(
        "induced",
        [f"pair {v['pair']}: expected {v['expected']}, got {v['got']}"
         for v in induced.violations],
    )
    result.certificate.add("edge_witnesses", check_edge_witnesses(h, result, params))
    result.certificate.add("oracle", check_oracle_agreement(h, result, params))
    if not result.certificate.ok:
        raise PropertyFailureError(
            "assembled embedding failed verification",
            certificate=result.certificate.to_json())
    return result


def _walk_stage(
    stage: str,
    part: Graph,
    phi: tuple[int, ...],
    host: Graph,
    host_pow,
    schedule: ConstraintSchedule,
    params: GammaParams,
    late: dict[int, set[int]] | None = None,
) -> tuple[tuple[int, ...], list[str]]:
    """One map of a part into a host expander (R_m or R_z) and the part's
    edges it fails to send into the host's 4th power.

    A walk on the host under ``schedule`` (plus the ``late`` avoidance
    constraints, see ``build_walk_map``), its block length the host's and
    its caps the embedding's for n vertices, is read through the part's
    layout; the walk has checked its own well-distribution. A walk stuck
    past ``walks.SEARCH_BUDGET`` steps gets ``stage`` in its payload. The
    map is a homomorphism into the 4th power when the list is empty: the
    layout stretches no edge past 4 and the walk is locally a path, but
    that is checked, not assumed.
    """
    n = len(phi)
    try:
        values = build_walk_map(host, schedule, usage_cap=params.usage_cap_for(n),
                                sigma_cap=params.sigma_cap_for(n), extra_avoid=late)
    except WalkStuckError as exc:
        exc.payload["stage"] = stage
        raise
    assignment = tuple(values[t] for t in phi)
    broken = [f"edge ({u}, {v}) maps to non-adjacent images "
              f"({assignment[u]}, {assignment[v]})"
              for u, v in part.edges()
              if assignment[u] == assignment[v]
              or not host_pow.contains(assignment[u], assignment[v])]
    return assignment, broken


def _require_clean(stage: str, violations: list[str]) -> None:
    if violations:
        raise PropertyFailureError(
            f"stage {stage} failed verification", stage=stage, violations=violations)


def _check_anchor_distinct(
    anchor: tuple[int, ...], assignment: tuple[int, ...]
) -> list[str]:
    return [f"vertices {a}, {b} share both the anchor image and this image"
            for a, b in _collisions(list(zip(anchor, assignment)))]


def _check_window_distinct(
    phi: tuple[int, ...], assignment: tuple[int, ...]
) -> list[str]:
    return [f"vertices {a}, {b} sit within {LOCAL_WINDOW} layout slots "
            f"but share image {assignment[a]}" for a, b in _collisions(assignment)
            if abs(phi[a] - phi[b]) <= LOCAL_WINDOW]


def _pair_keys(pairs, n: int) -> np.ndarray:
    return np.fromiter((a * n + b for a, b in pairs), dtype=np.int64)


def _collisions(values) -> list[tuple[int, int]]:
    """Pairs a < b of positions holding equal values, sorted."""
    if len(set(values)) == len(values):
        return []
    groups: dict = {}
    for v, value in enumerate(values):
        groups.setdefault(value, []).append(v)
    return sorted((a, b) for members in groups.values()
                  for k, a in enumerate(members) for b in members[k + 1:])


def _check_conflict_bound(
    conflicts: dict[int, frozenset[int]],
    phi: tuple[int, ...],
    params: GammaParams,
) -> list[str]:
    out = []
    for v, cs in sorted(conflicts.items()):
        if len(cs) > params.d:
            out.append(f"conflict set of {v} has {len(cs)} members, cap {params.d}")
        for w in sorted(cs):
            if abs(phi[v] - phi[w]) <= CONFLICT_GAP:
                out.append(
                    f"conflict pair ({v}, {w}) sits {abs(phi[v] - phi[w])} "
                    f"slots apart, need more than {CONFLICT_GAP}")
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
