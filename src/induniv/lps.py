"""High-girth Ramanujan expanders via the Lubotzky-Phillips-Sarnak construction.

For primes p, q congruent to 1 mod 4 with p a quadratic residue mod q, the
Cayley graph of PSL(2, q) with respect to the p+1 generators coming from
integer quaternions of norm p is a non-bipartite (p+1)-regular Ramanujan
graph on q(q^2-1)/2 vertices. This module builds those graphs explicitly,
searches for admissible primes, and certifies the results numerically
(degree, connectivity, non-bipartiteness, girth, spectral gap).

Both steps use the group structure. ``Psl2`` enumerates the group elements
in vertex order and maps "multiply every element by S" to vertex ids with
numpy, so the build is one such product per generator. The graph is a right
Cayley graph (M ~ M*S), so every left multiplication M -> T*M is an
automorphism of it, and left multiplications by a generating set carry any
vertex to any other: the graph is vertex-transitive, every vertex lies on a
shortest cycle, and one BFS from a single vertex finds the girth.
``certify_expander`` relies on that only after checking both facts on the
graph it is given.

The same automorphisms decide the radius-4 metric: ``build_lps_graph``
attaches ``PowerNeighborhoods``, which takes the identity's ball from the
words of at most four generators, searching no graph, and answers
closeness, ranks (the reverse one by inversion), rows and batched close
pairs by products in PSL(2, q), holding no per-vertex rows. Graphs without
a group have only the breadth-first reference, ``graphs.BfsNeighborhoods``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import product

import numpy as np

from .errors import (
    ArgumentError,
    ConstructionIntegrityError,
    ConvergenceError,
    ExhaustedSearchError,
)
from .graphs import RADIUS, Graph

_LANCZOS_STEPS = 400  # Lanczos steps before second_eigenvalue gives up
_LANCZOS_SEED = 20080101  # seeds the fixed Lanczos start vector
EIGEN_TOLERANCE = 1e-4  # certified lambda_2 may exceed 2 sqrt(d - 1) by this
_PAIR_CHUNK = 1 << 16  # pair queries close_pairs answers at a time

# Deterministic Miller-Rabin witness set, valid for n < 3.3 * 10^24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre_symbol(a: int, p: int) -> int:
    """Euler's criterion: 1 if a is a nonzero square mod p, -1 if not, 0 if p | a."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return -1 if r == p - 1 else 1


def sqrt_minus_one(q: int) -> int:
    """Smallest x with x^2 = -1 (mod q); exists for primes q = 1 (mod 4).

    Exhaustive scan: q stays small wherever a graph is built (the paper's
    sizes are a formula only).
    """
    for x in range(2, q):
        if x * x % q == q - 1:
            return x
    raise ArgumentError(f"-1 is not a square mod {q}")


def quaternion_norm_solutions(p: int) -> list[tuple[int, int, int, int]]:
    """All (a, b, c, d) with a odd positive, b, c, d even, a^2+b^2+c^2+d^2 = p.

    For p = 1 (mod 4) there are exactly p + 1 of them.
    """
    lim = math.isqrt(p)
    odds = [a for a in range(1, lim + 1) if a % 2 == 1]
    evens = [b for b in range(-lim, lim + 1) if b % 2 == 0]
    sols = []
    for a in odds:
        for b, c, d in product(evens, repeat=3):
            if a * a + b * b + c * c + d * d == p:
                sols.append((a, b, c, d))
    return sols


@dataclass(frozen=True)
class LpsParams:
    """Admissible prime pair for a non-bipartite LPS graph.

    Requires p, q prime and congruent to 1 mod 4, q > 2*sqrt(p), p != q,
    and p a quadratic residue mod q (the connected, non-bipartite case).
    """

    p: int
    q: int

    def __post_init__(self):
        p, q = self.p, self.q
        if not (is_prime(p) and p % 4 == 1):
            raise ArgumentError(f"p={p} must be a prime congruent to 1 mod 4")
        if not (is_prime(q) and q % 4 == 1):
            raise ArgumentError(f"q={q} must be a prime congruent to 1 mod 4")
        if p == q:
            raise ArgumentError("p and q must be distinct")
        if q * q <= 4 * p:
            raise ArgumentError(f"q={q} must exceed 2*sqrt(p)={2 * math.sqrt(p):.3f}")
        if legendre_symbol(p, q) != 1:
            raise ArgumentError(f"p={p} is not a quadratic residue mod q={q}")

    @property
    def degree(self) -> int:
        return self.p + 1

    @property
    def vertex_count(self) -> int:
        return self.q * (self.q * self.q - 1) // 2


def integer_cbrt(n: int) -> int:
    """Largest integer c with c^3 <= n (exact, no float round-off)."""
    if n < 0:
        raise ArgumentError("integer_cbrt needs a non-negative argument")
    if n == 0:
        return 0
    # integer Newton from above: the start 2^ceil(bits/3) exceeds the root,
    # and each step stays at or above it until the value stops falling
    c = 1 << -(-n.bit_length() // 3)
    while True:
        nxt = (2 * c + n // (c * c)) // 3
        if nxt >= c:
            return c
        c = nxt


def find_lps_params(
    degree_minus_one: int,
    min_vertices: int,
    residue_class_modulus: int = 4,
    search_ceiling: int = 10**12,
    min_q: int = 0,
) -> LpsParams:
    """Smallest admissible q giving at least ``min_vertices`` vertices.

    With ``residue_class_modulus > 4`` the search is restricted to
    q = 1 (mod residue_class_modulus), the arithmetic progression used to
    guarantee quadratic residuosity for q = 1 (mod 4(p)). ``min_q`` lets a
    caller jump straight to a known lower bound.
    """
    p = degree_minus_one
    if not (is_prime(p) and p % 4 == 1):
        raise ArgumentError(f"degree_minus_one={p} must be a prime congruent to 1 mod 4")
    if min_vertices < 1:
        raise ArgumentError("min_vertices must be >= 1")
    mod = residue_class_modulus if residue_class_modulus > 4 else 4
    if mod % 4 != 0:
        raise ArgumentError(f"residue_class_modulus={mod} must be a multiple of 4")
    # smallest q in the progression with q(q^2-1)/2 able to reach min_vertices
    size_floor = integer_cbrt(max(2 * min_vertices - 1, 0))
    start = max(mod + 1, min_q, size_floor - mod)
    q = ((start - 2) // mod + 1) * mod + 1 if start > mod + 1 else mod + 1
    while q <= search_ceiling:
        if (
            q != p
            and q * q > 4 * p
            and q * (q * q - 1) // 2 >= min_vertices
            and is_prime(q)
            and legendre_symbol(p, q) == 1
        ):
            return LpsParams(p=p, q=q)
        q += mod
    raise ExhaustedSearchError(
        f"no admissible q below {search_ceiling} for p={p}, "
        f"min_vertices={min_vertices}, modulus={mod}",
        ceiling=search_ceiling,
    )


# -- the Cayley graph construction -------------------------------------------


def _canonical(t: tuple[int, int, int, int], q: int) -> tuple[int, int, int, int]:
    """Projective canonical form: scale so the first nonzero entry is 1."""
    for x in t:
        if x % q:
            inv = pow(x, q - 2, q)
            return (t[0] * inv % q, t[1] * inv % q, t[2] * inv % q, t[3] * inv % q)
    raise ConstructionIntegrityError("zero matrix cannot be normalized")


def lps_generators(params: LpsParams) -> list[tuple[int, int, int, int]]:
    """The p+1 generator matrices, in canonical form and sorted.

    Each integer quaternion a + bi + cj + dk of norm p from
    ``quaternion_norm_solutions`` maps to ((a+bx, c+dx), (-c+dx, a-bx)) mod q,
    with x a square root of -1 mod q. The set is closed under inverses.
    """
    p, q = params.p, params.q
    ii = sqrt_minus_one(q)
    gens: set[tuple[int, int, int, int]] = set()
    for a, b, c, d in quaternion_norm_solutions(p):
        mat = ((a + b * ii) % q, (c + d * ii) % q, (-c + d * ii) % q, (a - b * ii) % q)
        gens.add(_canonical(mat, q))
    if len(gens) != p + 1:
        raise ConstructionIntegrityError(
            f"expected {p + 1} projective generators, got {len(gens)}",
            p=p,
            q=q,
        )
    return sorted(gens)


class Psl2:
    """PSL(2, q) as arrays: its elements in vertex order, and products of
    elements as vertex ids.

    PSL(2, q) is the set of projective classes of 2x2 matrices over Z/q whose
    determinant is a nonzero square. A class is represented by its member
    whose first row-major nonzero entry is 1. ``elements`` is the (l, 4)
    int64 array of those representatives (a, b, c, d), row-major, in
    lexicographic order, so row i is vertex i of the LPS graph; ``keys``
    holds their base-q values, ascending. A representative's first entry is
    0 or 1, so every key lies below 2 q^3, and a dense table over that range
    turns the key of any class into its vertex id.
    """

    def __init__(self, q: int):
        self.q = q
        r = np.arange(q, dtype=np.int64)
        square = np.zeros(q, dtype=bool)
        square[r[1:] ** 2 % q] = True
        # (0, 1, c, d) with det -c a square, then (1, b, c, d) with det d - bc
        # a square; np.nonzero lists each in lexicographic order.
        c0, d0 = np.nonzero(np.broadcast_to(square[-r % q][:, None], (q, q)))
        b1, c1, d1 = np.nonzero(square[(r[None, None, :] - np.outer(r, r)[:, :, None]) % q])
        self.elements = np.concatenate([
            np.stack([np.zeros_like(c0), np.ones_like(c0), c0, d0], axis=1),
            np.stack([np.ones_like(b1), b1, c1, d1], axis=1),
        ])
        self.keys = ((self.elements[:, 0] * q + self.elements[:, 1]) * q
                     + self.elements[:, 2]) * q + self.elements[:, 3]
        self._inverse = np.array([0] + [pow(x, q - 2, q) for x in range(1, q)], dtype=np.int32)
        self._ids = np.full(2 * q ** 3, -1, dtype=np.int32)  # -1 off the keys
        self._ids[self.keys] = np.arange(len(self.keys))
        for arr in (self.elements, self.keys, self._inverse, self._ids):
            arr.setflags(write=False)  # shared through ``psl2``

    def product_keys(self, x, y) -> np.ndarray:
        """The keys of the classes of the products x*y of 2x2 matrices over
        Z/q, given by their four row-major entries in [0, q): ints, or arrays
        that broadcast together. Flat, in the order of the broadcast shape.
        Entries stay below 2 q^3, so int32 arrays may carry them for q below
        1024. The key of a product whose first row is zero is 0, no key."""
        q, inverse = self.q, self._inverse
        a, b, c, d = x
        e, f, g, h = y
        m0 = (a * e + b * g) % q
        m1, m2, m3 = a * f + b * h, c * e + d * g, c * f + d * h  # reduced once scaled
        s = inverse[m0]  # the canonical form scales m0 to 1, when it is not 0
        keys = (((m1 * s % q + q) * q + m2 * s % q) * q + m3 * s % q).reshape(-1)
        zero = np.flatnonzero(m0 == 0)  # and else m1, in about one product in q
        if len(zero):
            m1, m2, m3 = (m.reshape(-1)[zero] for m in (m1, m2, m3))
            s = inverse[m1 % q]
            keys[zero] = ((m1 * s % q) * q + m2 * s % q) * q + m3 * s % q
        return keys

    def product_ids(self, x, y) -> np.ndarray:
        """Vertex ids of the products x*y (as in ``product_keys``). Raises
        ConstructionIntegrityError when one of them is not an element."""
        ids = self._ids[self.product_keys(x, y)]
        if (ids < 0).any():
            raise ConstructionIntegrityError(
                f"a product of matrices over Z/{self.q} is not an element of "
                f"PSL(2,{self.q})", q=self.q)
        return ids

    def multiply(self, s: tuple[int, int, int, int], left: bool = False) -> np.ndarray:
        """Vertex ids of M*S for every element M in vertex order (S*M with
        ``left``). Raises ConstructionIntegrityError when a product is not
        an element, i.e. when S is not."""
        s = tuple(x % self.q for x in s)
        m = self.elements.T
        return self.product_ids(s, m) if left else self.product_ids(m, s)


class PowerNeighborhoods:
    """The radius-4 (``graphs.RADIUS``) metric of an LPS graph: its
    distance-<=4 neighbourhoods, the vertex itself left out, and a fixed
    rank for each member of each, decided by arithmetic in PSL(2, q) instead
    of by stored neighbourhoods.

    The graph joins M to M*S for each generator S, so left multiplication by
    M is an automorphism carrying the identity e to M: the neighbourhood of
    M is M*B, B being that of e, and 0 < dist(M, N) <= 4 exactly when
    M^-1 N lies in B: the products of one to four generators other than e,
    whose ids ``ball`` holds, ascending. The rank of N seen from M is the
    index of M^-1 N in ``ball``, a bijection of each neighbourhood onto
    range(len(ball)), and ``inverse[r]``, the index of ``ball[r]``^-1, is
    the rank of M seen from N (the generators, and so B, are closed under
    inverses). M^-1 is the adjugate (d, -b, -c, a) of M = (a, b, c, d) up to
    a scalar, which the canonical form absorbs. Scalar queries look the key
    of the product up in a dict of B's keys; ``close_pairs`` looks whole
    blocks of keys up in a dense table over the range of keys (two bytes for
    each of 2 q^3, about four a vertex). Nothing grows with the vertices.
    """

    def __init__(self, group: Psl2, gens: list[tuple[int, int, int, int]]):
        q = group.q
        self.group = group
        reached = np.zeros(len(group.keys), dtype=bool)
        words = identity = group._ids[[q ** 3 + 1]]  # the key of (1, 0, 0, 1)
        columns = np.array(gens, dtype=np.int64).T[:, None, :]
        for _ in range(RADIUS):  # the words one generator longer
            words = group.product_ids(group.elements[words].T[:, :, None], columns)
            reached[words] = True
        reached[identity] = False
        self.ball = np.flatnonzero(reached)
        keys = group.keys[self.ball]
        self._rank = dict(zip(keys.tolist(), range(len(keys))))
        self._ranks = np.full(2 * q ** 3, -1, dtype=np.int16 if len(keys) < 1 << 15 else np.int32)
        self._ranks[keys] = np.arange(len(keys))
        self._columns = tuple(np.ascontiguousarray(group.elements[self.ball].T))
        a, b, c, d = self._columns
        inverse = self._ranks[group.product_keys((d, q - b, q - c, a), (1, 0, 0, 1))]
        if (inverse < 0).any() or (inverse[inverse] != np.arange(len(keys))).any():
            raise ConstructionIntegrityError(
                f"inversion is not an involution of the ball of PSL(2,{q})", q=q)
        self.inverse = tuple(inverse.tolist())
        self._q, self._n = q, len(group.keys)

    @cached_property
    def _entries(self) -> list[list[int]]:
        """The elements as Python lists, for scalar arithmetic (about 1 MB
        at q = 29); made by the first query that needs them."""
        return self.group.elements.tolist()

    @cached_property
    def _rank_of(self):
        """The scalar arithmetic behind ``rank`` and ``contains``: the index
        of M_v^-1 M_w in ``ball``, None when it is not there or w is not a
        vertex id; raises ArgumentError when v is not one. A closure over
        the tables, so a query reads no attribute; made by the first one."""
        q, n, index, entries = self._q, self._n, self._rank, self._entries
        inverse = self.group._inverse.tolist()

        def rank_of(v: int, w: int) -> int | None:
            if not (0 <= v < n and 0 <= w < n):
                if 0 <= v < n:
                    return None
                raise ArgumentError(f"vertex id {v!r} out of range [0, {n})")
            a, b, c, d = entries[v]
            e, f, g, h = entries[w]
            m0 = (d * e - b * g) % q
            if m0:  # as in ``Psl2.product_keys``
                s = inverse[m0]
                key = ((q + (d * f - b * h) * s % q) * q + (a * g - c * e) * s % q) * q \
                    + (a * h - c * f) * s % q
            else:
                s = inverse[(d * f - b * h) % q]
                key = (q + (a * g - c * e) * s % q) * q + (a * h - c * f) * s % q
            return index.get(key)

        return rank_of

    def contains(self, v: int, w: int) -> bool:
        """True iff 0 < dist(v, w) <= 4, i.e. {v, w} is a power-graph edge."""
        return self._rank_of(v, w) is not None

    def rank(self, v: int, w: int) -> int | None:
        """The fixed rank of w in the neighbourhood of v, None if absent."""
        return self._rank_of(v, w)

    def row(self, v: int) -> np.ndarray:
        """The sorted ids of M_v * B, computed, not kept."""
        if not 0 <= v < self._n:
            raise ArgumentError(f"vertex id {v!r} out of range [0, {self._n})")
        return np.sort(self.group.product_ids(self._entries[v], self._columns))

    def close_pairs(self, xs) -> tuple[np.ndarray, np.ndarray]:
        """Every pair of list positions a < b whose images are close.

        Returns int64 arrays: the keys a * len(xs) + b, ascending, and the
        rank of xs[b] seen from xs[a] (what ``rank`` returns; ``inverse``
        turns it into the rank of xs[a] seen from xs[b]). The adjugates of a
        block of positions are multiplied by the images from the block's
        first position on, about ``_PAIR_CHUNK`` products a block in int32,
        so no len(xs)^2 array is built. Raises ArgumentError on a non-vertex.
        """
        q, n = self._q, self._n
        xs = np.asarray(xs, dtype=np.int64).reshape(-1)
        size = len(xs)
        if size and not (0 <= xs.min() and xs.max() < n):
            bad = int(xs[(xs < 0) | (xs >= n)][0])
            raise ArgumentError(f"vertex id {bad!r} out of range [0, {n})")
        e, f, g, h = cols = self.group.elements[xs].T.astype(np.int32, order="C")
        adj = np.stack([h, q - f, q - g, e])  # (d, -b, -c, a) mod q, per position
        found = [(np.zeros(0, dtype=np.int64),) * 2]
        step = max(1, _PAIR_CHUNK // max(size, 1))
        for lo in range(0, size, step):
            ranks = self._ranks[self.group.product_keys(adj[:, lo:lo + step, None], cols[:, lo:])]
            hit = np.flatnonzero(ranks >= 0)
            a, b = hit // (size - lo) + lo, hit % (size - lo) + lo
            later = b > a
            found.append((a[later] * size + b[later], ranks[hit[later]].astype(np.int64)))
        return tuple(np.concatenate(part) for part in zip(*found))


@lru_cache(maxsize=8)
def psl2(q: int) -> Psl2:
    """The one ``Psl2(q)`` that the build and the certificate of an LPS
    graph on PSL(2, q) both read, enumerated once."""
    return Psl2(q)


def build_lps_graph(p, q: int | None = None) -> Graph:
    """Explicit non-bipartite (p+1)-regular LPS graph on q(q^2-1)/2 vertices.

    Vertex i is row i of ``Psl2(q).elements``; edges join M to M*S for each
    of the p+1 ``lps_generators`` S. Each generator multiplies all elements
    in one numpy step, giving one column of an (l, p+1) neighbour table. The
    generator set is closed under inverses, so the graph is undirected, which
    ``Graph.from_neighbor_table`` checks.
    """
    params = p if isinstance(p, LpsParams) else LpsParams(p=p, q=q)
    p, q = params.p, params.q

    gens = lps_generators(params)
    group = psl2(q)
    expected = params.vertex_count
    if len(group.elements) != expected:
        raise ConstructionIntegrityError(
            f"PSL(2,{q}) enumeration produced {len(group.elements)} classes, expected {expected}"
        )
    table = np.stack([group.multiply(s) for s in gens], axis=1)
    table.sort(axis=1)
    degenerate = ((table[:, 1:] == table[:, :-1]).any(axis=1)
                  | (table == np.arange(expected)[:, None]).any(axis=1))
    if degenerate.any():
        vid = int(np.flatnonzero(degenerate)[0])
        raise ConstructionIntegrityError(
            f"vertex {vid} has degenerate neighbor set (size {len(set(table[vid].tolist()))})",
            p=p,
            q=q,
        )
    try:
        g = Graph.from_neighbor_table(table)
    except ArgumentError as exc:
        raise ConstructionIntegrityError(
            f"neighbour table is not an undirected graph: {exc}", p=p, q=q) from exc
    if g.max_degree() != p + 1:
        raise ConstructionIntegrityError("constructed graph is not (p+1)-regular")
    # attached from the start, so no query can meet the graph without it
    object.__setattr__(g, "_metric", PowerNeighborhoods(group, gens))
    return g


@lru_cache(maxsize=8)
def cached_lps_graph(p: int, q: int) -> Graph:
    """Shared immutable instance for repeated parameter pairs."""
    return build_lps_graph(p, q)


@lru_cache(maxsize=16)
def cached_lps_certificate(p: int, q: int) -> "ExpanderCertificate":
    """Certificate of the cached graph; girth and spectra are recomputed once."""
    return certify_expander(cached_lps_graph(p, q), LpsParams(p, q))


# -- spectral and structural certification -----------------------------------


def second_eigenvalue(g: Graph, tolerance: float = 1e-6) -> float:
    """Largest |eigenvalue| of the adjacency matrix below the trivial ones.

    The trivial eigenvalues of a connected d-regular graph are +d, with the
    all-ones eigenvector, and, when the graph is bipartite, -d, with the
    vector that is +1 on one side and -1 on the other. A graph with no other
    eigenvalue (K1 and K2) gives 0.0. Any other takes a Lanczos iteration
    over ``g.neighbor_table()`` from a fixed start vector, with the
    trivial eigenvectors projected out at every step, so its extreme Ritz
    values approach the smallest and largest of the rest of the spectrum.
    It stops once the residual bound beta * |s| of both is at most
    ``tolerance``, s being the last entry of the Ritz vector in the
    tridiagonal basis: each is then within ``tolerance`` of an eigenvalue of
    the graph (Paige: this holds in floating point too, so the basis is not
    reorthogonalised and no basis is stored). Paige's bound holds only down
    to round-off, so it is never taken below eps * d: an s that underflows
    to 0.0 certifies nothing. It raises ConvergenceError when that does not
    happen within ``_LANCZOS_STEPS`` steps. The start vector is uniform on
    [-1, 1), drawn from ``random.Random(_LANCZOS_SEED)``.
    """
    if tolerance <= 0:
        raise ArgumentError("tolerance must be positive")
    if not g.is_regular() or g.vertex_count == 0:
        raise ArgumentError("second_eigenvalue requires a nonempty regular graph")
    if not g.is_connected():
        raise ArgumentError("second_eigenvalue requires a connected graph")
    d = g.degree(0)
    n = g.vertex_count
    bipartite = g.is_bipartite()
    table = g.neighbor_table()
    trivial = [np.full(n, 1 / math.sqrt(n))]
    if bipartite:
        side = np.array(g.bfs_distances(0)) % 2
        trivial.append((1 - 2 * side) / math.sqrt(n))
    if n <= len(trivial):
        return 0.0
    columns = np.ascontiguousarray(table.T, dtype=np.intp)  # take converts any other type
    # uniform on [-1, 1), drawn from the stdlib: numpy.random would cost
    # every process some 6 MB of resident memory
    bits = random.Random(_LANCZOS_SEED).getrandbits(64 * n)
    v = np.frombuffer(bits.to_bytes(8 * n, "little"), dtype=np.int64) / 2.0 ** 63
    prev = np.zeros(n)
    alpha: list[float] = []
    beta: list[float] = []
    ritz = np.zeros(0)
    steps = min(_LANCZOS_STEPS, n - len(trivial))
    floor = np.finfo(float).eps * d  # Paige's bound, below round-off
    for _ in range(steps):
        for u in trivial:
            v -= u * _dot(u, v)
        v /= math.sqrt(_dot(v, v))
        w = v.take(columns).sum(axis=0) - (beta[-1] * prev if beta else 0.0)
        alpha.append(_dot(v, w))
        w -= alpha[-1] * v
        beta.append(math.sqrt(_dot(w, w)))
        ritz, s = np.linalg.eigh(
            np.diag(alpha) + np.diag(beta[:-1], 1) + np.diag(beta[:-1], -1))
        bound = beta[-1] * max(abs(s[-1, 0]), abs(s[-1, -1]))
        if max(bound, floor) <= tolerance:
            return float(max(abs(ritz[0]), abs(ritz[-1])))
        prev, v = v, w
    raise ConvergenceError(
        "eigenvalue iteration did not converge",
        extreme_ritz_values=[float(ritz[0]), float(ritz[-1])] if len(ritz) else [],
        steps=steps)


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """The inner product by numpy's own sum of products. ``u @ v`` and
    ``np.linalg.norm`` go through BLAS, which splits long vectors across its
    threads and so rounds differently for each thread count."""
    return float(np.einsum("i,i->", u, v))


@dataclass(frozen=True)
class ExpanderCertificate:
    """Outcome of every structural and spectral sub-check, pass or fail."""

    degree: int
    vertex_count: int
    regular: bool
    connected: bool
    non_bipartite: bool
    girth_found: int | None
    girth_bound: float
    girth_ok: bool
    second_eigenvalue_bound: float | None
    eigenvalue_threshold: float
    eigenvalue_ok: bool
    vertex_count_expected: int
    vertex_count_ok: bool
    vertex_transitive: bool
    notes: tuple[str, ...] = field(default_factory=tuple)

    @property
    def ramanujan_ok(self) -> bool:
        return self.regular and self.connected and self.non_bipartite and self.eigenvalue_ok

    @property
    def all_ok(self) -> bool:
        return self.ramanujan_ok and self.girth_ok and self.vertex_count_ok

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "vertices": self.vertex_count,
            "regular": self.regular,
            "connected": self.connected,
            "non_bipartite": self.non_bipartite,
            "girth": self.girth_found,
            "girth_bound": self.girth_bound,
            "girth_ok": self.girth_ok,
            "vertex_transitive": self.vertex_transitive,
            "lambda2": self.second_eigenvalue_bound,
            "eigenvalue_threshold": self.eigenvalue_threshold,
            "eigenvalue_ok": self.eigenvalue_ok,
            "ramanujan_ok": self.ramanujan_ok,
            "all_ok": self.all_ok,
            "notes": list(self.notes),
        }


def certify_expander(g: Graph, params: LpsParams) -> ExpanderCertificate:
    """Bundle regularity, connectivity, bipartiteness, girth and spectral
    checks of g as the LPS graph of ``params``.

    Failures are reported inside the certificate, never raised. The girth is
    checked against (1/2) log_p of the vertex count, the vertex count against
    q(q^2-1)/2 and the degree against p+1. The Ramanujan threshold is
    2 sqrt(d - 1) + ``EIGEN_TOLERANCE``.

    The girth comes from one BFS at vertex 0 (``Graph.girth_through``),
    which is the girth only when vertex 0 lies on a shortest cycle. So the
    certificate first proves on ``g`` itself that g is vertex-transitive
    (``vertex_transitive``): for each generator S, left multiplication
    M -> S*M of the ``Psl2`` elements is a permutation of the vertices that
    maps the neighbour row of every vertex onto the neighbour row of its
    image, hence an automorphism (in a right Cayley graph
    S*(M*T) = (S*M)*T); and these permutations carry vertex 0 to every
    vertex. An automorphism carrying a vertex of a shortest cycle to vertex 0
    carries the cycle through 0. When either check fails, a note names it,
    the girth is left undecided and the certificate is not ok; there is no
    fallback to another girth computation.
    """
    notes = []
    n = g.vertex_count
    regular = g.is_regular() and n > 0
    degree = g.degree(0) if n else 0
    connected = g.is_connected()
    non_bipartite = not g.is_bipartite()
    failure = _transitivity_failure(g, params)
    girth_found = None
    if failure is None:
        girth = g.girth_through(0)
        girth_found = None if girth == math.inf else int(girth)
    else:
        notes.append(f"girth not decided: {failure}")
    if degree != params.degree:
        notes.append(f"degree {degree} != p+1 = {params.degree}")
        regular = False
    girth_bound = 0.5 * math.log(max(n, 2)) / math.log(params.p)

    lam = None
    threshold = 2.0 * math.sqrt(max(degree - 1, 0)) + EIGEN_TOLERANCE
    eig_ok = False
    if regular and connected and n > 0:
        try:
            lam = second_eigenvalue(g)
            eig_ok = lam <= threshold
        except ConvergenceError as exc:
            notes.append(f"eigenvalue iteration failed: {exc}")
    else:
        notes.append("eigenvalue check skipped (needs a connected regular graph)")

    return ExpanderCertificate(
        degree=degree,
        vertex_count=n,
        regular=regular,
        connected=connected,
        non_bipartite=non_bipartite,
        girth_found=girth_found,
        girth_bound=girth_bound,
        girth_ok=girth_found is not None and girth_found >= math.ceil(girth_bound),
        second_eigenvalue_bound=lam,
        eigenvalue_threshold=threshold,
        eigenvalue_ok=eig_ok,
        vertex_count_expected=params.vertex_count,
        vertex_count_ok=n == params.vertex_count,
        vertex_transitive=failure is None,
        notes=tuple(notes),
    )


def _transitivity_failure(g: Graph, params: LpsParams) -> str | None:
    """The first check by which left multiplication fails to show g
    vertex-transitive, or None when it shows it (see ``certify_expander``)."""
    n = params.vertex_count
    if g.vertex_count != n or not g.is_regular() or g.max_degree() != params.degree:
        return (f"transitivity needs a {params.degree}-regular graph "
                f"on {n} vertices, the LPS vertex set")
    table = g.neighbor_table().astype(np.intp)  # an index of every permutation
    group = psl2(params.q)
    perms = []
    try:
        gens = lps_generators(params)
        for k, s in enumerate(gens):
            perm = group.multiply(s, left=True)
            if len(perm) != n or (np.bincount(perm, minlength=n) != 1).any():
                return f"left multiplication by generator {k} is not a permutation"
            moved = np.flatnonzero((np.sort(perm[table], axis=1) != table[perm]).any(axis=1))
            if len(moved):
                v = int(moved[0])
                return (f"left multiplication by generator {k} is not an automorphism: "
                        f"it does not map the neighbours of vertex {v} onto those "
                        f"of vertex {int(perm[v])}")
            perms.append(perm)
    except ConstructionIntegrityError as exc:
        return f"left multiplication is undefined: {exc}"
    reached = np.zeros(n, dtype=bool)
    frontier = np.zeros(1, dtype=np.int64)
    while len(frontier):
        reached[frontier] = True
        images = np.zeros(n, dtype=bool)
        for perm in perms:
            images[perm[frontier]] = True
        frontier = np.flatnonzero(images & ~reached)
    if not reached.all():
        return (f"left multiplications carry vertex 0 to only "
                f"{int(reached.sum())} of {n} vertices")
    return None
