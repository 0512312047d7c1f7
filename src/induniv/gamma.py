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
x's sorted distance-<=4 neighborhood. The rule's test at one block,
``block_link``, is written once; the scalar oracle
``gamma_adjacent_witness`` answers one pair with it, and ``adjacent_pairs``
answers all pairs of a vertex list at once from per-coordinate close pairs,
with the same witnesses. The rule reads a vertex only through ``x(i)``,
``u(i)`` and ``in_subset(i, r)``, so the label oracle
``adjacency_from_labels`` runs the same scan on two parsed labels: each gets
the strict parse that ``decode_label`` makes, which cuts and range-checks
only the x and u fields; the scan then reads at most one bit of each subset
mask, and only at a block whose x-pair is close, straight from the parsed
bytes. The graph itself is never materialized: with
paper-scale constants even one subset coordinate is astronomically wide, so
everything is served by (params, oracle, codec).

Two profiles: PAPER keeps the literal constants (d = 734 and friends) and is
formula-only, refusing to build graphs; DESK builds real certified expanders
at desk scale and enforces every downstream contract by explicit
verification.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
from binascii import a2b_hex
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import cached_property, lru_cache
from operator import ge, itemgetter
from typing import Sequence

import numpy as np

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
    """The desk profile's two expander hosts, as LPS primes (p, q) with one
    p, so both are (p+1)-regular, and the walk search budget. Every cap of
    the construction follows from these and from (delta, n); see
    ``GammaParams``."""

    rm_pq: tuple[int, int] = (5, 29)
    rz_pq: tuple[int, int] = (5, 29)
    walk_budget: int = 200_000

    def to_json(self) -> dict:
        return {
            "rm_pq": list(self.rm_pq),
            "rz_pq": list(self.rz_pq),
            "walk_budget": self.walk_budget,
        }

    def __post_init__(self):
        # the fields also come from embedding files, where a wrong type would
        # otherwise show only as a parameter digest that does not match
        def reject(name: str, want: str):
            raise ArgumentError(
                f"desk config field {name} must be {want}, got {getattr(self, name)!r}")

        for name in ("rm_pq", "rz_pq"):
            pq = getattr(self, name)
            if not (isinstance(pq, tuple) and len(pq) == 2 and all(map(_is_int, pq))):
                reject(name, "a pair of integers")
        if self.rm_pq[0] != self.rz_pq[0]:
            raise ArgumentError(
                f"desk config fields rm_pq and rz_pq must share p (the hosts' degree "
                f"is p+1), got {self.rm_pq!r} and {self.rz_pq!r}")
        if not (_is_int(self.walk_budget) and self.walk_budget >= 0):
            reject("walk_budget", "a nonnegative integer")

    @classmethod
    def from_json(cls, doc: dict) -> "DeskConfig":
        """Inverse of ``to_json``; absent fields take their defaults and
        keys that are not fields are ignored. A field of the wrong type
        raises ArgumentError naming it."""
        kwargs = {f.name: doc[f.name] for f in fields(cls) if f.name in doc}
        for name in ("rm_pq", "rz_pq"):
            if isinstance(kwargs.get(name), list):
                kwargs[name] = tuple(kwargs[name])
        return cls(**kwargs)


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


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

    # Widths and the label layout are computed on first use and then held;
    # the codec and the oracle read them on every call.

    @property
    def subset_universe(self) -> int:
        return 4 * self.d**4

    @cached_property
    def subset_bits(self) -> int:
        # the universe {0, ..., 4d^4} has 4d^4 + 1 members
        return self.subset_universe + 1

    @property
    def q_m(self) -> int:
        return step_for(self.ell_m)

    @property
    def q_z(self) -> int:
        return step_for(self.ell_z)

    @cached_property
    def x_bits(self) -> int:
        return max(1, math.ceil(math.log2(self.ell_m)))

    @cached_property
    def u_bits(self) -> int:
        return max(1, math.ceil(math.log2(self.ell_z)))

    @cached_property
    def label_bits(self) -> int:
        return self.x_bits + (self.delta - 1) * (self.x_bits + self.subset_bits + self.u_bits)

    @cached_property
    def label_layout(self) -> LabelLayout:
        return LabelLayout.of(self.ell_m, self.ell_z, self.x_bits, self.subset_bits,
                              self.u_bits, self.delta)

    def sigma_cap_for(self, n: int) -> int:
        """Entries a constraint schedule may hold at one index."""
        return max(2 * self.d, 4 * math.isqrt(max(n, 1)) + 4)

    def usage_cap_for(self, n: int) -> int:
        """Times a map of n indices into R_m may use one vertex
        (well-distribution)."""
        return max(1, 40 * math.ceil(n / self.ell_m))

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
            "label_bits": self.label_bits,
            "desk": self.desk.to_json() if self.desk else None,
            "certificates": {k: c.to_json() for k, c in self.certificates.items()},
        }


def make_gamma_params(
    delta: int,
    n: int,
    profile: Profile | str = Profile.DESK,
    overrides: DeskConfig | dict | None = None,
) -> GammaParams:
    """Compute constants per profile and, for DESK, build certified expanders.

    PAPER keeps d = 734, z = 160 d^5, m = 800 delta d^8 sqrt(n) and resolves
    the two prime searches so sizes are exact, but refuses to build graphs.
    DESK builds the two LPS expanders whose primes the desk config names,
    both (p+1)-regular, and derives every cap from their actual sizes; a
    failing certificate raises CertificationError. Graphs and certificates
    come from lru caches, so equal primes give R_m and R_z one graph and one
    metric.
    """
    for name, value in (("delta", delta), ("n", n)):
        if not _is_int(value):
            raise ArgumentError(f"{name} must be an integer, got {value!r}")
    if delta < 2:
        raise ArgumentError(f"delta must be >= 2, got {delta}")
    if n < 1:
        raise ArgumentError(f"n must be >= 1, got {n}")
    profile = Profile(profile) if not isinstance(profile, Profile) else profile

    if profile == Profile.PAPER:
        return _paper_params(delta, n)

    cfg = overrides
    if not isinstance(cfg, DeskConfig):
        unknown = sorted(map(str, set(cfg or ()) - {f.name for f in fields(DeskConfig)}))
        if unknown:
            raise ArgumentError(f"desk config has no field {', '.join(unknown)}")
        cfg = DeskConfig(**(cfg or {}))

    rm_graph = cached_lps_graph(*cfg.rm_pq)
    rz_graph = cached_lps_graph(*cfg.rz_pq)
    certs = {"r_m": cached_lps_certificate(*cfg.rm_pq),
             "r_z": cached_lps_certificate(*cfg.rz_pq)}
    for name, cert in certs.items():
        if not cert.all_ok:
            raise CertificationError(
                f"{name} failed certification", certificate=cert.to_json())

    return GammaParams(
        delta=delta,
        n=n,
        profile=profile,
        d=rm_graph.degree(0),
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

    def u(self, i: int) -> int:
        """u-coordinate of block i."""
        return self.blocks[i - 2][2]

    def in_subset(self, i: int, r: int) -> int:
        """1 if rank r lies in the subset of block i, else 0."""
        return self.blocks[i - 2][1] >> r & 1


def validate_vertex(v: GammaVertex, params: GammaParams) -> None:
    # only paper-profile parameters lack the metric; this runs on every
    # oracle call, and Profile.PAPER is a slow descriptor lookup on 3.11
    if params.rm_pow is None:
        raise InfeasibleBuildError(
            "paper-profile parameters are formula-only; no vertices exist to query")
    ell_m, ell_z, width = params.ell_m, params.ell_z, params.subset_bits
    if len(v.blocks) != params.delta - 1 or not 0 <= v.x1 < ell_m:
        _reject_vertex(v, params)
    for x, mask, u in v.blocks:
        if not (0 <= x < ell_m and 0 <= u < ell_z and 0 <= mask and mask.bit_length() <= width):
            _reject_vertex(v, params)


def _reject_vertex(v: GammaVertex, params: GammaParams) -> None:
    """Raise ArgumentError naming the first check that v fails."""
    if v.delta != params.delta:
        raise ArgumentError(
            f"vertex has {v.delta} coordinates, parameters want {params.delta}")
    if not 0 <= v.x1 < params.ell_m:
        raise ArgumentError(f"x1={v.x1} out of range [0, {params.ell_m})")
    width = params.subset_bits
    for i, (x, mask, u) in enumerate(v.blocks, start=2):
        if not 0 <= x < params.ell_m:
            raise ArgumentError(f"x_{i}={x} out of range [0, {params.ell_m})")
        if not 0 <= u < params.ell_z:
            raise ArgumentError(f"u_{i}={u} out of range [0, {params.ell_z})")
        if mask < 0 or mask.bit_length() > width:
            raise ArgumentError(f"subset mask at block {i} exceeds width {width}")


def gamma_adjacent(a: GammaVertex, b: GammaVertex, params: GammaParams) -> bool:
    return gamma_adjacent_witness(a, b, params)[0]


def gamma_adjacent_witness(
    a: GammaVertex, b: GammaVertex, params: GammaParams
) -> tuple[bool, tuple[int, int] | None]:
    """Adjacency plus the witnessing coordinate pair (j, i), j < i.

    Adjacent iff for some j < i: both x-pairs at j and i are within distance
    4 in R_m and block i links the pair (``block_link``). Index j only needs
    its x-pair close; the witness takes the smallest such i and the smallest
    close j.
    """
    validate_vertex(a, params)
    validate_vertex(b, params)
    return _witness(a, b, params)


def _witness(
    a: GammaVertex | _ParsedLabel, b: GammaVertex | _ParsedLabel, params: GammaParams
) -> tuple[bool, tuple[int, int] | None]:
    """The x-scan of ``gamma_adjacent_witness`` on two valid vertices or
    parsed labels: the first close j, then the first i > j whose x-pair is
    close and whose block links the pair."""
    rm_pow = params.rm_pow
    contains, rank = rm_pow.contains, rm_pow.rank
    ax, bx = a.x, b.x
    last = params.delta
    # the last coordinate has no later one to pair with
    for j in range(1, last):
        if contains(ax(j), bx(j)):
            break
    else:
        return False, None
    for i in range(j + 1, last + 1):
        xa, xb = ax(i), bx(i)
        ra = rank(xa, xb)  # None iff the x-pair at i is not close
        if ra is not None and block_link(a, b, i, ra, rank(xb, xa), params) is None:
            return True, (j, i)
    return False, None


def block_link(
    a: GammaVertex | _ParsedLabel, b: GammaVertex | _ParsedLabel, i: int,
    ra: int | None, rb: int | None, params: GammaParams,
) -> str | None:
    """None if block i links a and b, else why it does not.

    ``ra`` is the rank of b's x_i among a's power neighbors and ``rb`` the
    rank of a's x_i among b's (None when absent). Block i links the pair iff
    each rank lies in its owner's subset and the u-pair at i is within
    distance 4 in R_z.
    """
    if ra is None or rb is None or not (a.in_subset(i, ra) and b.in_subset(i, rb)):
        return "subset membership missing"
    if not params.rz_pow.contains(a.u(i), b.u(i)):
        return "shield pair not close"
    return None


def adjacent_pairs(
    vertices: Sequence[GammaVertex], params: GammaParams, *, close=None
) -> dict[tuple[int, int], tuple[int, int]]:
    """Every adjacent pair of positions a < b, with the witness (j, i) that
    ``gamma_adjacent_witness`` gives it, without visiting all pairs.

    ``close_pair_ranks`` returns every pair close at a coordinate, with both
    ranks, from the same rows that ``contains`` and ``rank`` read. So a pair
    close at i and at some j < i is decided by ``block_link`` with the
    smallest such j and i, which is the oracle's witness, and every other
    pair is non-adjacent by definition. Every vertex is validated first.
    ``close``, an embedding attempt's ``embedder.CloseSets``, answers for
    ``close_pair_ranks`` from the scans it holds, keyed by the coordinate
    tuple.
    """
    for v in vertices:
        validate_vertex(v, params)
    n = len(vertices)
    adjacent: dict[tuple[int, int], tuple[int, int]] = {}
    earlier: list[np.ndarray] = []  # close keys a * n + b, a < b, of coordinates 1..i-1
    for i in range(1, params.delta + 1):
        xs = tuple(v.x(i) for v in vertices)
        keys, rank_ab, rank_ba = (
            close_pair_ranks(params.rm_pow, xs) if close is None else close.ranks(xs))
        first = np.zeros(len(keys), dtype=np.int64)  # smallest earlier close j, or 0
        for j in range(i - 1, 0, -1):
            first[_member(earlier[j - 1], keys)] = j
        cand = np.flatnonzero(first)
        for key, ra, rb, j in zip(keys[cand].tolist(), rank_ab[cand].tolist(),
                                  rank_ba[cand].tolist(), first[cand].tolist()):
            pair = divmod(key, n)
            if pair not in adjacent and block_link(
                    vertices[pair[0]], vertices[pair[1]], i, ra, rb, params) is None:
                adjacent[pair] = (j, i)
        earlier.append(keys)
    return adjacent


def close_pair_ranks(
    rm_pow: PowerNeighborhoods, xs: Sequence[int]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The pairs of positions a < b whose images are close, as sorted keys
    a * len(xs) + b, with the rank of xs[b] seen from xs[a] and the rank of
    xs[a] seen from xs[b]: ``PowerNeighborhoods.close_pairs`` folded onto
    its unordered pairs."""
    n = len(xs)
    a, b, r = rm_pow.close_pairs(xs)
    keys = a * n + b
    fwd = a < b
    # the rank seen from b sits at the key of the reversed pair
    return keys[fwd], r[fwd], r[keys.searchsorted(b[fwd] * n + a[fwd])]


def _member(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Mask of the keys that occur in sorted_keys."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool)
    at = sorted_keys.searchsorted(keys)
    return sorted_keys[np.minimum(at, len(sorted_keys) - 1)] == keys


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
# Fixed-width big-endian packing: x1, then per block x_i, subset mask, u_i,
# with the pad bits that round the width up to whole hex digits on top (they
# are zero). External form: an 8-hex-digit header carrying the bit width,
# then the payload in lowercase hex. The decoder accepts exactly that form,
# hex letters of either case: it parses the payload into bytes in one strict
# pass and cuts each field from its fixed byte range.


@dataclass(frozen=True)
class LabelLayout:
    """Where each field of a label lies, fixed by the field widths.

    The payload has ``digits`` hex digits, parsed into ``nbytes`` bytes (an
    odd digit count takes one leading zero digit). ``mask_fields`` lists,
    for X_i of each block, the byte range ``start:end`` that holds the
    field, and the right shift and mask that cut it from the big-endian
    integer of those bytes. The coordinates are cut together:
    ``small_bytes`` picks the few bytes that hold them, and ``cuts`` holds
    the (shift, mask) pairs that cut x_1..x_delta and then u_2..u_delta
    from the big-endian integer of those bytes, each below its entry of
    ``bounds``. That integer shifted right by ``pad_shift`` is the pad bits.
    """

    delta: int
    bits: int
    header: str
    digits: int
    nbytes: int
    mask_fields: tuple[tuple[int, int, int, int], ...]
    small_bytes: itemgetter
    pad_shift: int
    cuts: tuple[tuple[int, int], ...]
    bounds: tuple[int, ...]

    @classmethod
    def of(cls, ell_m: int, ell_z: int, x_bits: int, subset_bits: int, u_bits: int,
           delta: int) -> LabelLayout:
        widths = [x_bits] + [x_bits, subset_bits, u_bits] * (delta - 1)
        bits = sum(widths)
        digits = (bits + 3) // 4
        nbytes = (digits + 1) // 2
        fields = []  # (start, end, shift, mask) of each field, in payload order
        lo = bits  # a field's lowest bit, counted from the payload's last bit
        for w in widths:
            lo -= w
            fields.append((nbytes - 1 - (lo + w - 1) // 8, nbytes - lo // 8, lo % 8, (1 << w) - 1))
        coords = [fields[0]] + fields[1::3] + fields[3::3]
        # byte 0 holds the pad bits on top of x1
        small = sorted({0}.union(*(range(start, end) for start, end, _, _ in coords)))
        # the place of byte k, counted in bytes from the small integer's end
        place = {k: len(small) - 1 - pos for pos, k in enumerate(small)}
        cuts = tuple((8 * place[end - 1] + shift, mask) for _, end, shift, mask in coords)
        return cls(delta, bits, format(bits, "08x"), digits, nbytes, tuple(fields[2::3]),
                   itemgetter(*small), cuts[0][0] + x_bits, cuts,
                   (ell_m,) * delta + (ell_z,) * (delta - 1))


def encode_label(v: GammaVertex, params: GammaParams) -> str:
    validate_vertex(v, params)
    xb, sb, ub = params.x_bits, params.subset_bits, params.u_bits
    acc = v.x1
    for x, mask, u in v.blocks:
        acc = (((((acc << xb) | x) << sb) | mask) << ub) | u
    layout = params.label_layout
    payload_hex = acc.to_bytes(layout.nbytes, "big").hex()
    # an odd digit count drops the zero digit that fills the first byte
    return layout.header + (payload_hex[1:] if layout.digits % 2 else payload_hex)


class _ParsedLabel:
    """A label after its one strict parse, read through the rule's methods
    ``x``, ``u`` and ``in_subset``.

    The parse checks the width header, parses the whole payload as hex in
    one pass and checks its digit count. It then cuts the coordinates,
    x_1..x_delta and u_2..u_delta into ``coords``, checks the pad bits and
    range-checks every coordinate. The subset fields need no check, since
    the layout bounds each to ``subset_bits`` bits: ``in_subset`` reads one
    bit of one from the parsed bytes, and ``decode_label`` cuts them whole.
    """

    __slots__ = ("raw", "layout", "coords")

    def __init__(self, label: str, params: GammaParams):
        if params.rm_pow is None:  # paper-profile parameters build no expanders
            raise InfeasibleBuildError("paper-profile parameters carry no labels")
        if len(label) < 8:
            raise CodecError("label shorter than its width header")
        layout = params.label_layout
        payload = label[8:]
        try:
            # the width header as encode_label writes it, else parsed strictly
            total = layout.bits if label.startswith(layout.header) else int.from_bytes(
                a2b_hex(label[:8]), "big")
            raw = a2b_hex("0" + payload if len(payload) % 2 else payload)
        except ValueError as exc:  # binascii.Error is a ValueError
            raise CodecError(f"label is not hex: {exc}") from exc
        if total != layout.bits:
            raise CodecError(
                f"label declares {total} bits, parameters want {layout.bits}")
        if len(payload) != layout.digits:
            raise CodecError(
                f"label payload has {len(payload)} hex digits, want {layout.digits}")
        small = int.from_bytes(bytes(layout.small_bytes(raw)), "big")
        if small >> layout.pad_shift:
            raise CodecError("label payload wider than its declared width")
        coords = [small >> shift & mask for shift, mask in layout.cuts]
        if any(map(ge, coords, layout.bounds)):
            _reject_coordinates(coords, layout)
        self.raw, self.layout, self.coords = raw, layout, coords

    def x(self, i: int) -> int:
        return self.coords[i - 1]

    def u(self, i: int) -> int:
        return self.coords[self.layout.delta + i - 2]

    def in_subset(self, i: int, r: int) -> int:
        # a rank is below its row's length, at most 4 d^4 in a d-regular
        # graph, so bit shift + r lies inside the field
        _, end, shift, _ = self.layout.mask_fields[i - 2]
        bit = shift + r
        return self.raw[end - 1 - (bit >> 3)] >> (bit & 7) & 1


def _reject_coordinates(coords: list[int], layout: LabelLayout) -> None:
    """Raise CodecError naming the first coordinate out of range."""
    delta = layout.delta
    for k, (value, bound) in enumerate(zip(coords, layout.bounds)):
        if value >= bound:
            name = f"x_{k + 1}" if k < delta else f"u_{k - delta + 2}"
            raise CodecError(
                f"decoded label is out of range: {name}={value} out of range [0, {bound})")


def decode_label(label: str, params: GammaParams) -> GammaVertex:
    parsed = _ParsedLabel(label, params)
    coords, delta, raw = parsed.coords, params.delta, parsed.raw
    masks = [int.from_bytes(raw[start:end], "big") >> shift & mask
             for start, end, shift, mask in parsed.layout.mask_fields]
    return GammaVertex(x1=coords[0], blocks=tuple(zip(coords[1:delta], masks, coords[delta:])))


def adjacency_from_labels(label_a: str, label_b: str, params: GammaParams) -> bool:
    """Adjacency decided from two labels plus public parameters only.

    Each label gets the strict parse of ``decode_label``; the rule then
    reads at most one bit of each subset field, so no mask is decoded."""
    return _witness(_ParsedLabel(label_a, params), _ParsedLabel(label_b, params), params)[0]
