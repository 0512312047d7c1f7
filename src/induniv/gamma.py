"""The product graph on expander coordinates: parameters, an implicit
adjacency oracle, and a compact vertex-label codec.

A vertex is a tuple (x_1, (x_i, X_i, u_i) for i = 2..delta) where x
coordinates live in a large expander R_m, u coordinates in a small expander
R_z, and X_i is a subset of neighbor ranks in the 4-th power of R_m. Two
vertices are adjacent iff some pair of coordinates j < i has both x-pairs
close in R_m (within distance 4), mutually listed neighbor ranks at i, and
close u-coordinates in R_z. Closeness and ranks both come from the host's
radius-4 metric, ``lps.PowerNeighborhoods`` (re-exported here with
``shared_power_neighborhoods``). A desk host is the LPS Cayley graph of
PSL(2, q), whose build attaches that metric, decided by group arithmetic:
y is close to x iff x^-1 y lies in the identity's distance-<=4
neighborhood B, and the rank of y seen from x is the index of x^-1 y in B,
listed by vertex id. So the metric holds no per-vertex rows, and it alone
answers ``close_pairs``, on which the batched pair checks
(``adjacent_pairs``, ``close_pair_ranks``) rest. A graph without a group
gets the breadth-first reference, ``graphs.BfsNeighborhoods``, which serves
scalar queries only.

The rule's test at one block, ``block_link``, is written once; the scalar
oracle ``gamma_adjacent_witness`` answers one pair with it, and
``adjacent_pairs`` answers all pairs of a vertex list at once from
per-coordinate close pairs, with the same witnesses. The rule reads a vertex
only through its coordinate tuple ``coords`` (x_1..x_delta, then
u_2..u_delta), ``u(i)`` and ``in_subset(i, r)``, so the label oracle
``adjacency_from_labels`` runs the same scan on two parsed labels. A label
is laid out in whole bytes with its coordinates first, so the strict parse
that ``decode_label`` makes reads x_1..x_delta and u_2..u_delta with one
``struct`` unpack and range-checks them; the scan then reads at most one
bit of each subset mask, and only at a block whose x-pair is close,
straight from the parsed bytes. The graph itself is never
materialized: even at desk scale one subset coordinate is hundreds of bits
wide, so everything is served by (params, oracle, codec).

``make_gamma_params`` builds the desk construction: real certified
expanders, with every downstream contract enforced by explicit
verification. The paper's literal constants (d = 734 and friends) are a
formula only, ``paper_sizes``, whose sizes and vertex count are exact but
whose graphs are never built.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import struct
from binascii import a2b_hex
from dataclasses import dataclass, field, fields
from functools import cached_property, lru_cache
from operator import ge
from typing import Sequence

import numpy as np

from .errors import ArgumentError, CertificationError, CodecError, ExhaustedSearchError
from .graphs import Graph, shared_power_neighborhoods
from .lps import (
    ExpanderCertificate,
    LpsParams,
    PowerNeighborhoods,
    cached_lps_certificate,
    cached_lps_graph,
    find_lps_params,
    integer_cbrt,
)
from .walks import step_for

PAPER_D = 734
PAPER_Z = 160 * PAPER_D**5
# what a rank in a subset mask means, named in the params digest: the index
# of x^-1 y in the identity's radius-4 ball, listed by vertex id; masks made
# under another meaning would fail their checks pair by pair
RANK_CONVENTION = "psl2-ball-index"
# how a label lays out its fields (see the label codec below), named in the
# params digest, so files written under another layout fail ``verify`` by
# digest rather than label by label
LABEL_LAYOUT = "bytes-coords-first"


# -- parameters ----------------------------------------------------------------


@dataclass(frozen=True)
class DeskConfig:
    """The two expander hosts, as LPS primes (p, q) with one p, so both are
    (p+1)-regular. Every cap of the construction follows from these and from
    (delta, n); see ``GammaParams``."""

    rm_pq: tuple[int, int] = (5, 29)
    rz_pq: tuple[int, int] = (5, 29)

    def to_json(self) -> dict:
        return {"rm_pq": list(self.rm_pq), "rz_pq": list(self.rz_pq)}

    def __post_init__(self):
        # the fields also come from embedding files, where a wrong type would
        # otherwise show only as a parameter digest that does not match
        for name in ("rm_pq", "rz_pq"):
            pq = getattr(self, name)
            if not (isinstance(pq, tuple) and len(pq) == 2 and all(map(_is_int, pq))):
                raise ArgumentError(
                    f"desk config field {name} must be a pair of integers, got {pq!r}")
        if self.rm_pq[0] != self.rz_pq[0]:
            raise ArgumentError(
                f"desk config fields rm_pq and rz_pq must share p (the hosts' degree "
                f"is p+1), got {self.rm_pq!r} and {self.rz_pq!r}")

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


def _check_sizes(delta: int, n: int) -> None:
    for name, value in (("delta", delta), ("n", n)):
        if not _is_int(value):
            raise ArgumentError(f"{name} must be an integer, got {value!r}")
    if delta < 2:
        raise ArgumentError(f"delta must be >= 2, got {delta}")
    if n < 1:
        raise ArgumentError(f"n must be >= 1, got {n}")


@dataclass(frozen=True, eq=False)
class ProductSizes:
    """The sizes of the product graph at (delta, n): the expander degree d,
    the paper's z and m, and the orders ell_m and ell_z of R_m and R_z. The
    label's field widths and the vertex count (``gamma_vertex_count``)
    follow from them. ``paper_sizes`` gives the paper's; ``GammaParams``
    adds the hosts that realize a desk construction."""

    delta: int
    n: int
    d: int
    z: int
    m: int
    ell_m: int
    ell_z: int

    # Widths are computed on first use and then held; the codec and the
    # oracle read them on every call.

    @property
    def subset_universe(self) -> int:
        """The largest rank a subset may hold: the paper's 4 d^4."""
        return 4 * self.d**4

    @cached_property
    def subset_bits(self) -> int:
        # the universe {0, ..., subset_universe} has subset_universe + 1
        # members: 4 d^4 + 1 in the paper, |B_4| in a desk construction
        return self.subset_universe + 1

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
    def label_header(self) -> str:
        """The 8-hex-digit width header that starts every label."""
        return format(self.label_bits, "08x")

    def to_json(self) -> dict:
        return {
            "schema": "induniv/gamma-params-v1",
            "delta": self.delta,
            "n": self.n,
            "d": self.d,
            "z": self.z,
            "m": self.m,
            "ell_m": self.ell_m,
            "ell_z": self.ell_z,
            "label_bits": self.label_bits,
        }


@dataclass(frozen=True, eq=False)
class GammaParams(ProductSizes):
    """Everything needed to answer adjacency queries on the product graph:
    the sizes of a desk construction and the certified hosts behind them."""

    r_m: Graph
    r_z: Graph
    rm_pow: PowerNeighborhoods
    rz_pow: PowerNeighborhoods
    desk: DeskConfig
    certificates: dict[str, ExpanderCertificate] = field(default_factory=dict)

    @property
    def subset_universe(self) -> int:
        """The largest rank: a rank is an index into the identity's radius-4
        ball B_4 of R_m, so a subset field has |B_4| bits (936 at p = 5)
        where the paper's bound gives 4 d^4 + 1 (5185)."""
        return len(self.rm_pow.ball) - 1

    @cached_property
    def label_bits(self) -> int:
        """8 times the payload's bytes: a desk label rounds each field up to
        whole bytes (``LabelLayout``), where the paper's sizes pack them."""
        return 8 * _payload_bytes(self.x_bits, self.subset_bits, self.u_bits, self.delta)

    @property
    def q_m(self) -> int:
        return step_for(self.ell_m)

    @property
    def q_z(self) -> int:
        return step_for(self.ell_z)

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
            "d": self.d,
            "z": self.z,
            "m": self.m,
            "ell_m": self.ell_m,
            "ell_z": self.ell_z,
            "desk": self.desk.to_json(),
            "ranks": RANK_CONVENTION,
            "subset_bits": self.subset_bits,  # files of another width fail by digest
            "layout": LABEL_LAYOUT,
        }
        return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()[:16]

    def to_json(self) -> dict:
        return {
            **super().to_json(),
            "desk": self.desk.to_json(),
            "certificates": {k: c.to_json() for k, c in self.certificates.items()},
        }


def make_gamma_params(
    delta: int,
    n: int,
    desk: DeskConfig | None = None,
) -> GammaParams:
    """Build the two certified LPS expanders whose primes the desk config
    names, both (p+1)-regular, and derive every cap from their actual sizes;
    a failing certificate raises CertificationError. Graphs and certificates
    come from lru caches, so equal primes give R_m and R_z one graph and one
    metric.
    """
    _check_sizes(delta, n)
    cfg = desk or DeskConfig()
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
        d=rm_graph.degree(0),
        z=rz_graph.vertex_count,
        m=rm_graph.vertex_count,
        ell_m=rm_graph.vertex_count,
        ell_z=rz_graph.vertex_count,
        r_m=rm_graph,
        r_z=rz_graph,
        rm_pow=shared_power_neighborhoods(rm_graph),
        rz_pow=shared_power_neighborhoods(rz_graph),
        desk=cfg,
        certificates=certs,
    )


@lru_cache(maxsize=32)
def _paper_qz() -> LpsParams:
    # the small block does not depend on delta or n; q^3 > 8 z
    return find_lps_params(
        PAPER_D - 1, 1, search_ceiling=10**9, min_q=integer_cbrt(8 * PAPER_Z) + 1)


def paper_sizes(delta: int, n: int) -> ProductSizes:
    """The paper's sizes at (delta, n), a formula: d = 734, z = 160 d^5,
    m = 800 delta d^8 sqrt(n), and the two prime searches resolved so that
    ell_m and ell_z are exact. No graph is built; at these sizes even one
    subset coordinate is astronomically wide."""
    _check_sizes(delta, n)
    d = PAPER_D
    m = 5 * 160 * delta * d**8 * math.isqrt(n)
    qm = find_lps_params(
        d - 1, 1, residue_class_modulus=4 * (d - 1), search_ceiling=10**14,
        min_q=integer_cbrt(8 * m) + 1)  # q^3 > 8 m
    if qm.q**3 >= 64 * m:
        raise ExhaustedSearchError(
            f"no admissible prime inside (2 m^(1/3), 4 m^(1/3)) for m={m}",
            q_found=qm.q)
    ell_m = qm.vertex_count
    if not m <= ell_m <= 32 * m:
        raise ExhaustedSearchError(
            f"large block size {ell_m} escapes [m, 32 m] for m={m}")
    return ProductSizes(delta=delta, n=n, d=d, z=PAPER_Z, m=m, ell_m=ell_m,
                        ell_z=_paper_qz().vertex_count)


# -- vertices and the adjacency oracle ----------------------------------------


class _held:
    """A ``functools.cached_property`` without its lock: the first read
    stores the value in the instance's ``__dict__``, where every later read
    finds it first. Python 3.10 and 3.11 take an RLock on each first read of
    a cached_property, which a decoded vertex's single read pays in full."""

    def __init__(self, fn):
        self.fn, self.name = fn, fn.__name__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


@dataclass(frozen=True)
class GammaVertex:
    """One product-graph vertex: anchor coordinate plus delta-1 blocks.

    Each block is (x_i, X_i, u_i) with X_i a bitmask over the subset
    universe (width ``subset_bits``: |B_4| in a desk construction). Every
    field is a Python int; ``validate_vertex`` names one that is not (a
    float, a bool or a numpy integer).
    """

    x1: int
    blocks: tuple[tuple[int, int, int], ...]

    @property
    def delta(self) -> int:
        return len(self.blocks) + 1

    @_held
    def coords(self) -> tuple[int, ...]:
        """x_1..x_delta, then u_2..u_delta, in a label's order; held once
        made, outside the fields, so equality, hash and repr do not see it."""
        blocks = self.blocks
        return (self.x1, *[block[0] for block in blocks], *[block[2] for block in blocks])

    @_held
    def ranges(self) -> tuple[int, int, int, int, int]:
        """The five facts ``validate_vertex`` compares with the parameters:
        the block count, the smallest field (0 if none is negative), the
        largest x, the largest u (-1 without blocks) and the widest subset
        mask in bits. Held once made, like ``coords``, so each later check
        is five comparisons. A field that is not an int, or a block that is
        not an (x, mask, u) triple, raises ArgumentError naming it."""
        x1, blocks = self.x1, self.blocks
        try:
            if type(x1) is not int or type(blocks) is not tuple:
                raise TypeError
            low = x1 if x1 < 0 else 0
            top_x, top_u, widest = x1, -1, 0
            for x, mask, u in blocks:
                if type(x) is not int or type(mask) is not int or type(u) is not int:
                    raise TypeError
                if x > top_x:
                    top_x = x
                if u > top_u:
                    top_u = u
                width = mask.bit_length()
                if width > widest:
                    widest = width
                if x < 0 or mask < 0 or u < 0:
                    low = min(low, x, mask, u)
        except (TypeError, ValueError):
            raise _malformed(self) from None
        return len(blocks), low, top_x, top_u, widest

    def u(self, i: int) -> int:
        """u-coordinate of block i."""
        return self.blocks[i - 2][2]

    def in_subset(self, i: int, r: int) -> int:
        """1 if rank r lies in the subset of block i, else 0."""
        return self.blocks[i - 2][1] >> r & 1


def validate_vertex(v: GammaVertex, params: GammaParams) -> None:
    """Raise ArgumentError unless v is a vertex of the product graph that
    params describe, naming the first check it fails; v's ``ranges`` are
    made on its first check and held for every later one."""
    count, low, top_x, top_u, widest = v.ranges
    if (count != params.delta - 1 or low < 0 or top_x >= params.ell_m
            or top_u >= params.ell_z or widest > params.subset_bits):
        _reject_vertex(v, params)


def _malformed(v: GammaVertex) -> ArgumentError:
    """The error naming the first field of v that is not an int, or the
    first block that is not an (x, mask, u) triple."""
    if type(v.x1) is not int:
        return ArgumentError(f"x1 must be an int, got {v.x1!r}")
    if type(v.blocks) is not tuple:
        return ArgumentError(f"blocks must be a tuple of (x, mask, u) triples, got {v.blocks!r}")
    for i, block in enumerate(v.blocks, start=2):
        try:
            x, mask, u = block
        except (TypeError, ValueError):
            return ArgumentError(f"block {i} must be an (x, mask, u) triple, got {block!r}")
        for name, value in ((f"x_{i}", x), (f"subset mask at block {i}", mask), (f"u_{i}", u)):
            if type(value) is not int:
                return ArgumentError(f"{name} must be an int, got {value!r}")
    raise AssertionError(f"no malformed field in {v!r}")


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
    close and whose block links the pair. Each side's ``coords`` holds
    x_j at index j - 1; the u's after x_delta are not read here."""
    rm_pow = params.rm_pow
    contains, rank = rm_pow.contains, rm_pow.rank
    ax, bx = a.coords, b.coords
    last = params.delta - 1  # the index of x_delta
    # the last coordinate has no later one to pair with
    for j in range(last):
        if contains(ax[j], bx[j]):
            break
    else:
        return False, None
    for i in range(j + 1, last + 1):
        xa, xb = ax[i], bx[i]
        ra = rank(xa, xb)  # None iff the x-pair at i + 1 is not close
        if ra is not None and block_link(a, b, i + 1, ra, rank(xb, xa), params) is None:
            return True, (j + 1, i + 1)
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
    ranks, from the same metric that ``contains`` and ``rank`` ask. So a pair
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
    if n < 2:  # no pair to find, whatever delta is
        return {}
    adjacent: dict[tuple[int, int], tuple[int, int]] = {}
    earlier: list[np.ndarray] = []  # close keys a * n + b, a < b, of coordinates 1..i-1
    for i in range(1, params.delta + 1):
        xs = tuple(v.coords[i - 1] for v in vertices)
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

    The subset factors of a vertex count are powers of two too wide to
    write out (hundreds of bits per block at desk scale, trillions in the
    paper), so the power of two is kept factored; nothing is rounded.
    """

    mantissa: int
    exp2: int

    def log10(self) -> float:
        return math.log10(self.mantissa) + self.exp2 * math.log10(2.0)

    def ratio_log10(self, other: "ScaledCount") -> float:
        return self.log10() - other.log10()

    def __repr__(self) -> str:
        return f"ScaledCount(log10={self.log10():.3f})"


def gamma_vertex_count(sizes: ProductSizes) -> ScaledCount:
    """|V| = ell_m * (ell_m * 2^subset_bits * ell_z)^(delta-1), exactly:
    subset_bits is 4 d^4 + 1 for ``paper_sizes`` and |B_4| for a desk
    construction."""
    return ScaledCount(mantissa=sizes.ell_m * (sizes.ell_m * sizes.ell_z) ** (sizes.delta - 1),
                       exp2=sizes.subset_bits * (sizes.delta - 1))


# -- label codec ---------------------------------------------------------------
#
# Whole bytes, coordinates first: x_1..x_delta, then u_2..u_delta, each
# big-endian in the smallest of 1, 2, 4 or 8 bytes that holds x_bits or
# u_bits, then X_2..X_delta, each big-endian in ceil(subset_bits / 8) bytes.
# A field's bits above its width are zero: a coordinate's by its range check,
# a subset field's spare top bits by their own. External form: an
# 8-hex-digit header carrying the bit width, 8 times the payload's bytes,
# then the payload in lowercase hex. The decoder accepts exactly that form,
# hex letters of either case: it parses the payload into bytes in one strict
# pass, reads every coordinate with one struct unpack and cuts each subset
# field from its byte range.

_COORD_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}  # struct codes by field bytes


def _coord_bytes(bits: int) -> int:
    """The smallest of 1, 2, 4 or 8 bytes that holds a ``bits``-bit field."""
    return min(size for size in _COORD_CODES if 8 * size >= bits)


def _payload_bytes(x_bits: int, subset_bits: int, u_bits: int, delta: int) -> int:
    return delta * _coord_bytes(x_bits) + (delta - 1) * (
        _coord_bytes(u_bits) + -(-subset_bits // 8))


@dataclass(frozen=True)
class LabelLayout:
    """Where each field of a label lies, fixed by the field widths.

    ``widths`` holds the bits that an x field, a u field and a subset field
    take, each a whole number of bytes. ``coords`` unpacks x_1..x_delta
    and then u_2..u_delta from the payload's start, each below its entry of
    ``bounds``. The subset fields X_2..X_delta follow;
    ``mask_ends`` lists where each ends. ``spare_top`` masks the bits of a
    subset field's first byte above ``subset_bits`` (0 when that width is a
    multiple of 8).
    """

    delta: int
    widths: tuple[int, int, int]
    coords: struct.Struct
    bounds: tuple[int, ...]
    mask_ends: tuple[int, ...]
    spare_top: int

    @classmethod
    def of(cls, ell_m: int, ell_z: int, x_bits: int, subset_bits: int, u_bits: int,
           delta: int) -> LabelLayout:
        x_bytes, u_bytes, size = _coord_bytes(x_bits), _coord_bytes(u_bits), -(-subset_bits // 8)
        coords = struct.Struct(
            ">" + _COORD_CODES[x_bytes] * delta + _COORD_CODES[u_bytes] * (delta - 1))
        return cls(delta, (8 * x_bytes, 8 * u_bytes, 8 * size), coords,
                   (ell_m,) * delta + (ell_z,) * (delta - 1),
                   tuple(range(coords.size + size, coords.size + delta * size, size)),
                   0xFF << (subset_bits - 8 * size + 8) & 0xFF)


def encode_label(v: GammaVertex, params: GammaParams) -> str:
    validate_vertex(v, params)
    # shifting the fields into one integer at the layout's widths is quicker
    # than gathering the blocks' coordinates for a struct pack
    xw, uw, sw = params.label_layout.widths
    blocks = v.blocks
    acc = v.x1
    for x, _, _ in blocks:
        acc = acc << xw | x
    for _, _, u in blocks:
        acc = acc << uw | u
    for _, mask, _ in blocks:
        acc = acc << sw | mask
    return params.label_header + acc.to_bytes(params.label_bits // 8, "big").hex()


class _ParsedLabel:
    """A label after its one strict parse, read through the rule's
    ``coords``, ``u`` and ``in_subset``.

    The parse checks the width header and the payload's digit count against
    ``label_bits`` before the layout is read: a layout holds O(delta)
    fields, and an embedding file names its own delta. It then parses the
    payload as hex in one pass, unpacks the coordinates into ``coords``
    (x_1..x_delta, then u_2..u_delta), range-checks each and checks that
    no subset field sets a spare top bit. ``in_subset`` reads one bit of a
    subset field from the parsed bytes, and ``decode_label`` cuts them whole.
    """

    __slots__ = ("raw", "layout", "coords")

    def __init__(self, label: str, params: GammaParams):
        if len(label) < 8:
            raise CodecError("label shorter than its width header")
        bits = params.label_bits
        try:
            # the width header as encode_label writes it, else parsed strictly
            total = bits if label.startswith(params.label_header) else int.from_bytes(
                a2b_hex(label[:8]), "big")
        except ValueError as exc:  # binascii.Error is a ValueError
            raise CodecError(f"label is not hex: {exc}") from exc
        if total != bits:
            raise CodecError(f"label declares {total} bits, parameters want {bits}")
        if len(label) - 8 != bits // 4:
            raise CodecError(
                f"label payload has {len(label) - 8} hex digits, want {bits // 4}")
        try:
            raw = a2b_hex(label[8:])
        except ValueError as exc:
            raise CodecError(f"label is not hex: {exc}") from exc
        layout = params.label_layout
        coords = layout.coords.unpack_from(raw)
        if any(map(ge, coords, layout.bounds)):
            _reject_coordinates(coords, layout)
        if layout.spare_top:
            size = layout.widths[2] // 8
            for i, end in enumerate(layout.mask_ends, start=2):
                if raw[end - size] & layout.spare_top:
                    raise CodecError(
                        f"label sets a bit of X_{i} past its {params.subset_bits} bits")
        self.raw, self.layout, self.coords = raw, layout, coords

    def u(self, i: int) -> int:
        return self.coords[self.layout.delta + i - 2]

    def in_subset(self, i: int, r: int) -> int:
        # a rank is an index into the identity's radius-4 ball, below its
        # size subset_bits, so bit r lies inside the field
        return self.raw[self.layout.mask_ends[i - 2] - 1 - (r >> 3)] >> (r & 7) & 1


def _reject_coordinates(coords: tuple[int, ...], layout: LabelLayout) -> None:
    """Raise CodecError naming the first coordinate out of range."""
    delta = layout.delta
    for k, (value, bound) in enumerate(zip(coords, layout.bounds)):
        if value >= bound:
            name = f"x_{k + 1}" if k < delta else f"u_{k - delta + 2}"
            raise CodecError(
                f"decoded label is out of range: {name}={value} out of range [0, {bound})")


def decode_label(label: str, params: GammaParams) -> GammaVertex:
    parsed = _ParsedLabel(label, params)
    coords, delta, raw, size = parsed.coords, params.delta, parsed.raw, parsed.layout.widths[2] // 8
    masks = [int.from_bytes(raw[end - size:end], "big") for end in parsed.layout.mask_ends]
    vertex = GammaVertex(x1=coords[0], blocks=tuple(zip(coords[1:delta], masks, coords[delta:])))
    # the parse's tuple is the vertex's coords, x_1..x_delta then u_2..u_delta
    vertex.__dict__["coords"] = coords
    return vertex


def adjacency_from_labels(label_a: str, label_b: str, params: GammaParams) -> bool:
    """Adjacency decided from two labels plus public parameters only.

    Each label gets the strict parse of ``decode_label``; the rule then
    reads at most one bit of each subset field, so no mask is decoded."""
    return _witness(_ParsedLabel(label_a, params), _ParsedLabel(label_b, params), params)[0]
