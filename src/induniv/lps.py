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
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Callable

import numpy as np

from .errors import (
    ArgumentError,
    ConstructionIntegrityError,
    ConvergenceError,
    ExhaustedSearchError,
)
from .graphs import Graph

_DENSE_EIGEN = 64  # graphs up to this size get a dense eigenvalue solve
_LANCZOS_STEPS = 400  # Lanczos steps before second_eigenvalue gives up
_LANCZOS_SEED = 20080101  # seeds the fixed Lanczos start vector
EIGEN_TOLERANCE = 1e-4  # certified lambda_2 may exceed 2 sqrt(d - 1) by this

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

    Exhaustive scan: q stays small in every profile that builds graphs.
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
    c = round(n ** (1 / 3)) if n < 2**50 else round(n ** (1 / 3) * (1 + 1e-12))
    while c**3 > n:
        c -= 1
    while (c + 1) ** 3 <= n:
        c += 1
    return c


def find_lps_params(
    degree_minus_one: int,
    min_vertices: int,
    residue_class_modulus: int = 4,
    search_ceiling: int = 10**12,
    extra_test: Callable[[int], bool] | None = None,
    min_q: int = 0,
) -> LpsParams:
    """Smallest admissible q giving at least ``min_vertices`` vertices.

    With ``residue_class_modulus > 4`` the search is restricted to
    q = 1 (mod residue_class_modulus), the arithmetic progression used to
    guarantee quadratic residuosity for q = 1 (mod 4(p)). ``extra_test``
    narrows the search further (e.g. to a prime window) and ``min_q`` lets a
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
            and (extra_test is None or extra_test(q))
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
    """PSL(2, q) as arrays: its elements in vertex order, and products with
    a fixed matrix as vertex ids.

    PSL(2, q) is the set of projective classes of 2x2 matrices over Z/q whose
    determinant is a nonzero square. A class is represented by its member
    whose first row-major nonzero entry is 1. ``elements`` is the (l, 4)
    int64 array of those representatives (a, b, c, d), row-major, in
    lexicographic order, so row i is vertex i of the LPS graph; ``keys``
    holds their base-q values, ascending.
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
        self.keys = self._key(self.elements)
        self._inverse = np.array([0] + [pow(x, q - 2, q) for x in range(1, q)], dtype=np.int64)
        for arr in (self.elements, self.keys, self._inverse):
            arr.setflags(write=False)  # shared through ``psl2``

    def _key(self, mats: np.ndarray) -> np.ndarray:
        q = self.q
        return ((mats[:, 0] * q + mats[:, 1]) * q + mats[:, 2]) * q + mats[:, 3]

    def multiply(self, s: tuple[int, int, int, int], left: bool = False) -> np.ndarray:
        """Vertex ids of M*S for every element M in vertex order (S*M with
        ``left``). Raises ConstructionIntegrityError when a product is not
        an element, i.e. when S is not."""
        q = self.q
        a, b, c, d = self.elements.T
        e, f, g, h = s
        if left:
            prod = (e * a + f * c, e * b + f * d, g * a + h * c, g * b + h * d)
        else:
            prod = (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)
        mats = np.stack(prod, axis=1) % q
        # the first row of an invertible matrix is nonzero
        lead = np.where(mats[:, 0] != 0, mats[:, 0], mats[:, 1])
        keys = self._key(mats * self._inverse[lead][:, None] % q)
        ids = self.keys.searchsorted(keys)
        found = (lead != 0) & (self.keys[np.minimum(ids, len(self.keys) - 1)] == keys)
        if not found.all():
            raise ConstructionIntegrityError(
                f"{s} times an element of PSL(2,{q}) is not an element", q=q)
        return ids


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
    vector that is +1 on one side and -1 on the other. Graphs of at most
    ``_DENSE_EIGEN`` vertices take a dense solve. Larger ones take a Lanczos
    iteration over ``g.neighbor_table()`` from a fixed start vector, with the
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
    if n <= _DENSE_EIGEN:
        a = np.zeros((n, n))
        a[np.arange(n).repeat(d), table.reshape(-1)] = 1.0
        vals = list(np.linalg.eigvalsh(a))
        slack = max(10 * tolerance, 1e-9) * max(d, 1)
        vals.sort(key=abs, reverse=True)
        for t in [d] + ([-d] if bipartite else []):
            for i, v in enumerate(vals):
                if abs(v - t) <= slack:
                    vals.pop(i)
                    break
        return float(max((abs(v) for v in vals), default=0.0))

    trivial = [np.full(n, 1 / math.sqrt(n))]
    if bipartite:
        side = np.array(g.bfs_distances(0)) % 2
        trivial.append((1 - 2 * side) / math.sqrt(n))
    columns = np.ascontiguousarray(table.T)
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
    table = g.neighbor_table()
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
