"""The product graph on expander coordinates: parameters, an implicit
adjacency oracle, and a compact vertex-label codec.

A vertex is a tuple (x_1, (x_i, X_i, u_i) for i = 2..delta) where x
coordinates live in a large expander R_m, u coordinates in a small expander
R_z, and X_i is a subset of neighbor ranks in the 4-th power of R_m. Two
vertices are adjacent iff some pair of coordinates j < i has both x-pairs
close in R_m (within distance 4), mutually listed neighbor ranks at i, and
close u-coordinates in R_z. Closeness and ranks both come from the one
radius-4 metric, ``graphs.PowerNeighborhoods`` (re-exported here with
``shared_power_neighborhoods``): the rank of y seen from x is y's position in
x's sorted distance-<=4 neighborhood. The graph itself is never
materialized: with paper-scale constants even one subset coordinate is
astronomically wide, so everything is served by (params, oracle, codec).

Two profiles: PAPER keeps the literal constants (d = 734 and friends) and is
formula-only, refusing to build graphs; DESK builds real certified expanders
at desk scale and enforces every downstream contract by explicit
verification.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import lru_cache

from .errors import (
    ArgumentError,
    CertificationError,
    CodecError,
    ExhaustedSearchError,
    InfeasibleBuildError,
)
from .graphs import RADIUS, Graph, PowerNeighborhoods, shared_power_neighborhoods
from .lps import (
    ExpanderCertificate,
    LpsParams,
    cached_lps_certificate,
    cached_lps_graph,
    certify_expander,
    find_lps_params,
)
from .walks import step_for

PAPER_D = 734
PAPER_Z = 160 * PAPER_D**5


class Profile(Enum):
    PAPER = "paper"
    DESK = "desk"


# -- parameters ----------------------------------------------------------------


@dataclass(frozen=True)
class DeskConfig:
    """Desk-profile knobs; every relaxation is explicit and recorded."""

    rm_pq: tuple[int, int] = (5, 29)
    rz_pq: tuple[int, int] = (5, 29)
    eigen_tolerance: float = 1e-4
    eigen_slack: float = 0.0
    walk_budget: int = 200_000
    usage_cap_factor: int = 40
    sigma_cap: int | None = None       # None: max(2d, 4*ceil(sqrt(n)))
    conflict_gap: int = 4              # layout-gap floor in the conflict-set check
    retry_budget_scale: tuple[int, ...] = (1, 4, 16)

    def to_json(self) -> dict:
        return {
            "rm_pq": list(self.rm_pq),
            "rz_pq": list(self.rz_pq),
            "eigen_tolerance": self.eigen_tolerance,
            "eigen_slack": self.eigen_slack,
            "walk_budget": self.walk_budget,
            "usage_cap_factor": self.usage_cap_factor,
            "sigma_cap": self.sigma_cap,
            "conflict_gap": self.conflict_gap,
            "retry_budget_scale": list(self.retry_budget_scale),
        }

    @classmethod
    def from_json(cls, doc: dict) -> "DeskConfig":
        """Inverse of ``to_json``; absent fields take their defaults and
        keys that are not fields are ignored."""
        kwargs = {f.name: doc[f.name] for f in fields(cls) if f.name in doc}
        for name in ("rm_pq", "rz_pq", "retry_budget_scale"):
            if name in kwargs:
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)


@dataclass(frozen=True, eq=False)
class GammaParams:
    """Everything needed to answer adjacency queries on the product graph."""

    delta: int
    n: int
    profile: Profile
    d: int
    z: int
    m: int
    ell_m: int
    ell_z: int
    r_m: Graph | None
    r_z: Graph | None
    rm_pow: PowerNeighborhoods | None
    rz_pow: PowerNeighborhoods | None
    desk: DeskConfig | None
    certificates: dict[str, ExpanderCertificate] = field(default_factory=dict)

    @property
    def subset_universe(self) -> int:
        return 4 * self.d**4

    @property
    def subset_bits(self) -> int:
        # the universe {0, ..., 4d^4} has 4d^4 + 1 members
        return self.subset_universe + 1

    @property
    def q_m(self) -> int:
        return step_for(self.ell_m)

    @property
    def q_z(self) -> int:
        return step_for(self.ell_z)

    @property
    def x_bits(self) -> int:
        return max(1, math.ceil(math.log2(self.ell_m)))

    @property
    def u_bits(self) -> int:
        return max(1, math.ceil(math.log2(self.ell_z)))

    @property
    def label_bits(self) -> int:
        return self.x_bits + (self.delta - 1) * (self.x_bits + self.subset_bits + self.u_bits)

    def sigma_cap_for(self, n: int) -> int:
        if self.desk and self.desk.sigma_cap is not None:
            return self.desk.sigma_cap
        return max(2 * self.d, 4 * math.isqrt(max(n, 1)) + 4)

    def usage_cap_for(self, n: int) -> int:
        factor = self.desk.usage_cap_factor if self.desk else 40
        return max(1, factor * math.ceil(n / self.ell_m))

    def digest(self) -> str:
        payload = {
            "delta": self.delta,
            "n": self.n,
            "profile": self.profile.value,
            "d": self.d,
            "z": self.z,
            "m": self.m,
            "ell_m": self.ell_m,
            "ell_z": self.ell_z,
            "desk": self.desk.to_json() if self.desk else None,
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]

    def to_json(self) -> dict:
        return {
            "schema": "induniv/gamma-params-v1",
            "delta": self.delta,
            "n": self.n,
            "profile": self.profile.value,
            "d": self.d,
            "z": self.z,
            "m": self.m,
            "ell_m": self.ell_m,
            "ell_z": self.ell_z,
            "r_m_file": None,
            "r_z_file": None,
            "label_bits": self.label_bits,
            "desk": self.desk.to_json() if self.desk else None,
            "certificates": {k: c.to_json() for k, c in self.certificates.items()},
        }


def make_gamma_params(
    delta: int,
    n: int,
    profile: Profile | str = Profile.DESK,
    overrides: DeskConfig | dict | None = None,
    rm_graph: Graph | None = None,
    rz_graph: Graph | None = None,
) -> GammaParams:
    """Compute constants per profile and, for DESK, build certified expanders.

    PAPER keeps d = 734, z = 160 d^5, m = 800 delta d^8 sqrt(n) and resolves
    the two prime searches so sizes are exact, but refuses to build graphs.
    DESK builds (or accepts) two d-regular certified expanders and derives
    every cap from their actual sizes; supplied graphs failing certification
    raise CertificationError.
    """
    if delta < 2:
        raise ArgumentError(f"delta must be >= 2, got {delta}")
    if n < 1:
        raise ArgumentError(f"n must be >= 1, got {n}")
    profile = Profile(profile) if not isinstance(profile, Profile) else profile

    if profile == Profile.PAPER:
        return _paper_params(delta, n)

    cfg = overrides if isinstance(overrides, DeskConfig) else DeskConfig(**(overrides or {}))

    if rm_graph is None:
        rm_graph = cached_lps_graph(*cfg.rm_pq)
        rm_lps: LpsParams | None = LpsParams(*cfg.rm_pq)
    else:
        rm_lps = None
    if rz_graph is None:
        if rm_lps is not None and cfg.rz_pq == cfg.rm_pq:
            rz_graph, rz_lps = rm_graph, rm_lps
        else:
            rz_graph = cached_lps_graph(*cfg.rz_pq)
            rz_lps = LpsParams(*cfg.rz_pq)
    else:
        rz_lps = None

    certs = {}
    for name, graph, lps in (("r_m", rm_graph, rm_lps), ("r_z", rz_graph, rz_lps)):
        if lps is not None:
            cert = cached_lps_certificate(
                lps.p, lps.q, cfg.eigen_tolerance, cfg.eigen_slack)
        else:
            cert = certify_expander(
                graph, lps, tolerance=cfg.eigen_tolerance, eigen_slack=cfg.eigen_slack)
        certs[name] = cert
        if not cert.all_ok:
            raise CertificationError(
                f"{name} failed certification", certificate=cert.to_json())

    d = rm_graph.degree(0)
    if rz_graph.degree(0) != d:
        raise CertificationError(
            f"expander degrees differ: r_m is {d}-regular, "
            f"r_z is {rz_graph.degree(0)}-regular")

    return GammaParams(
        delta=delta,
        n=n,
        profile=profile,
        d=d,
        z=rz_graph.vertex_count,
        m=rm_graph.vertex_count,
        ell_m=rm_graph.vertex_count,
        ell_z=rz_graph.vertex_count,
        r_m=rm_graph,
        r_z=rz_graph,
        rm_pow=shared_power_neighborhoods(rm_graph, RADIUS),
        rz_pow=shared_power_neighborhoods(rz_graph, RADIUS),
        desk=cfg,
        certificates=certs,
    )


@lru_cache(maxsize=32)
def _paper_qz() -> LpsParams:
    # the small block does not depend on delta or n
    from .lps import integer_cbrt

    return find_lps_params(
        PAPER_D - 1, 1, extra_test=lambda q: q**3 > 8 * PAPER_Z,
        search_ceiling=10**9, min_q=integer_cbrt(8 * PAPER_Z))


def _paper_params(delta: int, n: int) -> GammaParams:
    from .lps import integer_cbrt

    d = PAPER_D
    m = 5 * 160 * delta * d**8 * math.isqrt(n)
    rcm = 4 * (d - 1)
    qm = find_lps_params(
        d - 1, 1, residue_class_modulus=rcm,
        extra_test=lambda q: q**3 > 8 * m, search_ceiling=10**14,
        min_q=integer_cbrt(8 * m))
    if qm.q**3 >= 64 * m:
        raise ExhaustedSearchError(
            f"no admissible prime inside (2 m^(1/3), 4 m^(1/3)) for m={m}",
            q_found=qm.q)
    ell_m = qm.vertex_count
    if not m <= ell_m <= 32 * m:
        raise ExhaustedSearchError(
            f"large block size {ell_m} escapes [m, 32 m] for m={m}")
    qz = _paper_qz()
    return GammaParams(
        delta=delta,
        n=n,
        profile=Profile.PAPER,
        d=d,
        z=PAPER_Z,
        m=m,
        ell_m=ell_m,
        ell_z=qz.vertex_count,
        r_m=None,
        r_z=None,
        rm_pow=None,
        rz_pow=None,
        desk=None,
    )


# -- vertices and the adjacency oracle ----------------------------------------


@dataclass(frozen=True)
class GammaVertex:
    """One product-graph vertex: anchor coordinate plus delta-1 blocks.

    Each block is (x_i, X_i, u_i) with X_i a bitmask over the subset
    universe (width 4 d^4 + 1).
    """

    x1: int
    blocks: tuple[tuple[int, int, int], ...]

    @property
    def delta(self) -> int:
        return len(self.blocks) + 1

    def x(self, i: int) -> int:
        """x-coordinate at 1-based index i."""
        return self.x1 if i == 1 else self.blocks[i - 2][0]


def validate_vertex(v: GammaVertex, params: GammaParams) -> None:
    if params.profile == Profile.PAPER:
        raise InfeasibleBuildError(
            "paper-profile parameters are formula-only; no vertices exist to query")
    if v.delta != params.delta:
        raise ArgumentError(
            f"vertex has {v.delta} coordinates, parameters want {params.delta}")
    if not 0 <= v.x1 < params.ell_m:
        raise ArgumentError(f"x1={v.x1} out of range [0, {params.ell_m})")
    limit = 1 << params.subset_bits
    for i, (x, mask, u) in enumerate(v.blocks, start=2):
        if not 0 <= x < params.ell_m:
            raise ArgumentError(f"x_{i}={x} out of range [0, {params.ell_m})")
        if not 0 <= u < params.ell_z:
            raise ArgumentError(f"u_{i}={u} out of range [0, {params.ell_z})")
        if not 0 <= mask < limit:
            raise ArgumentError(
                f"subset mask at block {i} exceeds width {params.subset_bits}")


def gamma_adjacent(a: GammaVertex, b: GammaVertex, params: GammaParams) -> bool:
    return gamma_adjacent_witness(a, b, params)[0]


def gamma_adjacent_witness(
    a: GammaVertex, b: GammaVertex, params: GammaParams
) -> tuple[bool, tuple[int, int] | None]:
    """Adjacency plus the witnessing coordinate pair (j, i), j < i.

    Adjacent iff for some j < i: both x-pairs at j and i are within distance
    4 in R_m, the rank of b's x_i among a's power neighbors lies in a's
    subset (and symmetrically), and the u-pair at i is within distance 4 in
    R_z. Index j only needs its x-pair close.
    """
    validate_vertex(a, params)
    validate_vertex(b, params)
    rm_pow, rz_pow = params.rm_pow, params.rz_pow
    close = [rm_pow.contains(a.x(i), b.x(i)) for i in range(1, params.delta + 1)]
    first_close = None
    for i in range(1, params.delta + 1):
        if (
            first_close is not None
            and i >= 2
            and close[i - 1]
        ):
            xa, mask_a, ua = a.blocks[i - 2]
            xb, mask_b, ub = b.blocks[i - 2]
            ra = rm_pow.rank(xa, xb)
            rb = rm_pow.rank(xb, xa)
            if (
                ra is not None
                and rb is not None
                and (mask_a >> ra) & 1
                and (mask_b >> rb) & 1
                and rz_pow.contains(ua, ub)
            ):
                return True, (first_close, i)
        if close[i - 1] and first_close is None:
            first_close = i
    return False, None


# -- counting ------------------------------------------------------------------


@dataclass(frozen=True)
class ScaledCount:
    """Exact integer of the form mantissa * 2**exp2.

    Paper-scale vertex counts have subset factors wider than memory allows,
    so the power of two is kept factored; nothing is rounded.
    """

    mantissa: int
    exp2: int

    def log10(self) -> float:
        return math.log10(self.mantissa) + self.exp2 * math.log10(2.0)

    def log2(self) -> float:
        return math.log2(self.mantissa) + self.exp2

    def ratio_log10(self, other: "ScaledCount") -> float:
        return self.log10() - other.log10()

    def __repr__(self) -> str:
        return f"ScaledCount(log10={self.log10():.3f})"


def gamma_vertex_count(params: GammaParams) -> int | ScaledCount:
    """|V| = ell_m * (ell_m * 2^(4d^4+1) * ell_z)^(delta-1), exactly.

    Desk parameters return a plain integer. Paper parameters return a
    ScaledCount because the binary expansion alone would not fit in memory.
    """
    width = params.subset_bits
    mant = params.ell_m * (params.ell_m * params.ell_z) ** (params.delta - 1)
    exp2 = width * (params.delta - 1)
    if params.profile == Profile.DESK and exp2 <= 10**6:
        return mant << exp2
    return ScaledCount(mantissa=mant, exp2=exp2)


def count_log10(count: int | ScaledCount) -> float:
    if isinstance(count, ScaledCount):
        return count.log10()
    return math.log10(count)


# -- label codec ---------------------------------------------------------------
#
# Fixed-width big-endian packing: x1, then per block x_i, subset mask, u_i.
# External form is hex with an 8-hex-digit header carrying the bit width.


def encode_label(v: GammaVertex, params: GammaParams) -> str:
    validate_vertex(v, params)
    xb, sb, ub = params.x_bits, params.subset_bits, params.u_bits
    acc = v.x1
    for x, mask, u in v.blocks:
        acc = (acc << xb) | x
        acc = (acc << sb) | mask
        acc = (acc << ub) | u
    total = params.label_bits
    payload_hex = format(acc, "x").zfill((total + 3) // 4)
    return format(total, "08x") + payload_hex


def decode_label(label: str, params: GammaParams) -> GammaVertex:
    if params.profile == Profile.PAPER:
        raise InfeasibleBuildError("paper-profile parameters carry no labels")
    if len(label) < 8:
        raise CodecError("label shorter than its width header")
    try:
        total = int(label[:8], 16)
        acc = int(label[8:], 16) if len(label) > 8 else 0
    except ValueError as exc:
        raise CodecError(f"label is not hex: {exc}") from exc
    if total != params.label_bits:
        raise CodecError(
            f"label declares {total} bits, parameters want {params.label_bits}")
    if len(label) - 8 != (total + 3) // 4:
        raise CodecError(
            f"label payload has {len(label) - 8} hex digits, "
            f"want {(total + 3) // 4}")
    xb, sb, ub = params.x_bits, params.subset_bits, params.u_bits
    blocks = []
    for _ in range(params.delta - 1):
        u = acc & ((1 << ub) - 1)
        acc >>= ub
        mask = acc & ((1 << sb) - 1)
        acc >>= sb
        x = acc & ((1 << xb) - 1)
        acc >>= xb
        blocks.append((x, mask, u))
    x1 = acc
    if x1 >= 1 << xb:
        raise CodecError("label payload wider than its declared width")
    vertex = GammaVertex(x1=x1, blocks=tuple(reversed(blocks)))
    try:
        validate_vertex(vertex, params)
    except ArgumentError as exc:
        raise CodecError(f"decoded label is out of range: {exc}") from exc
    return vertex


def adjacency_from_labels(label_a: str, label_b: str, params: GammaParams) -> bool:
    """Adjacency decided from two labels plus public parameters only."""
    return gamma_adjacent(
        decode_label(label_a, params), decode_label(label_b, params), params)
