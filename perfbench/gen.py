"""Seeded input generators owned by the benchmark.

Every input is a plain edge list ``(n, edges)`` built from ``random.Random``:
the desk sets and label pairs from the benchmark's ``--seed``, the frontier
ladder from a fixed seed. Nothing here imports the program, so a change to
the program (its harness included) cannot change a workload. ``digest``
hashes inputs so two commits can show they ran the same ones.
"""

from __future__ import annotations

import hashlib
import json
import random

# The desk set has one fixed (family, n) shape; only the random draws and the
# vertex labels depend on the seed. It stops at 40 vertices: at 44 a delta=3
# union overflowed the schedule cap for one seed in ten, and at 48 so does a
# relabelled cycle, while none of 960 desk inputs of 32 to 40 vertices
# (delta 2, 3 and 4, seeds 401-440) failed. The frontier ladder measures
# where embedding stops working.
DESK_SIZES = (8, 12, 16, 20, 24, 28, 32, 36, 40)
# Random components in the desk set stay this small: the odd-delta
# decomposition search is exponential in them. Over 30 draws a random cubic
# graph took at most 0.04 s at 16 vertices, 0.9 s at 20 and over 5 s (four
# times) at 28, so larger parts would make the latency percentiles a matter
# of the draw. Larger random graphs are the frontier ladder's job.
DESK_RANDOM_PART = 16

LADDER_START = 16
LADDER_STOP = 2048
LADDER_RATIO = 2 ** (1 / 3)


def ladder_rungs() -> list[int]:
    """Geometric vertex counts from 16 to 2048, three rungs per doubling."""
    rungs = []
    k = 0
    while True:
        n = round(LADDER_START * LADDER_RATIO ** k)
        rungs.append(n)
        if n >= LADDER_STOP:
            return rungs
        k += 1


def _relabel(n: int, edges, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    perm = list(range(n))
    rng.shuffle(perm)
    out = sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)
    return n, out


def cycle(n: int) -> list[tuple[int, int]]:
    return [(i, (i + 1) % n) for i in range(n)]


def path(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def circulant(n: int, offsets) -> list[tuple[int, int]]:
    edges = set()
    for s in offsets:
        for i in range(n):
            j = (i + s) % n
            edges.add((min(i, j), max(i, j)))
    return sorted(edges)


def random_bounded(n: int, delta: int, rng: random.Random) -> list[tuple[int, int]]:
    """Random graph of maximum degree delta: pair up delta stubs per vertex
    in random order, dropping self-loops and repeated edges."""
    stubs = [v for v in range(n) for _ in range(delta)]
    rng.shuffle(stubs)
    edges = set()
    for a, b in zip(stubs[::2], stubs[1::2]):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return sorted(edges)


def union(*parts: tuple[int, list[tuple[int, int]]]) -> tuple[int, list[tuple[int, int]]]:
    off = 0
    edges = []
    for n, es in parts:
        edges.extend((u + off, v + off) for u, v in es)
        off += n
    return off, edges


def structured(n: int, delta: int) -> list[tuple[int, int]]:
    """The delta-regular ring of the family: a cycle, a circulant, or for
    odd delta a circulant plus the long diagonals (n even)."""
    offsets = list(range(1, delta // 2 + 1))
    if delta % 2:
        offsets.append(n // 2)
    return circulant(n, offsets)


def random_parts(n: int, delta: int, part_max: int | None, rng: random.Random):
    """Disjoint union of random bounded graphs of at most part_max vertices."""
    k = 1 if part_max is None else -(-n // part_max)
    sizes = [n // k + (i < n % k) for i in range(k)]
    return union(*((m, random_bounded(m, delta, rng)) for m in sizes))


def _family(name: str, n: int, delta: int, part_max: int | None, rng: random.Random):
    if name == "cycle":
        return n, cycle(n)
    if name == "path":
        return n, path(n)
    if name == "ring":
        return n, structured(n, delta)
    if name == "random":
        return random_parts(n, delta, part_max, rng)
    if name == "union":
        # a ring and a random part; for odd delta the ring needs an even size
        r = n // 2 if part_max is None else min(n // 2, part_max)
        if delta % 2 and (n - r) % 2:
            r -= 1
        return union((n - r, structured(n - r, delta)), random_parts(r, delta, part_max, rng))
    raise ValueError(f"unknown family {name}")


DESK_FAMILIES = ("cycle", "path", "ring", "random", "union")
LADDER_FAMILIES = ("ring", "random", "union")
# The ladder does not follow --seed. A rung fails when any input misses its
# budget, and the odd-delta decomposition time of one random graph ranges
# over three orders of magnitude with its labels; a ladder drawn per seed
# put frontier_n.d3 anywhere from 24 to 38 over eight seeds. A fixed ladder
# makes the frontier a property of the program, not of the draw.
LADDER_SEED = 0


def make_input(family: str, n: int, delta: int, rng: random.Random,
               part_max: int | None = None) -> dict:
    nv, edges = _family(family, n, delta, part_max, rng)
    nv, edges = _relabel(nv, edges, rng)
    return {"family": family, "delta": delta, "n": nv, "edges": edges}


def desk_set(delta: int, seed: int, per_size: int = 1) -> list[dict]:
    """``per_size`` inputs per size, the families taken in turn, so the set
    keeps the same shape for every seed."""
    rng = random.Random(f"desk/{delta}/{seed}")
    out = []
    for k, n in enumerate(DESK_SIZES):
        for j in range(per_size):
            family = DESK_FAMILIES[(per_size * k + j) % len(DESK_FAMILIES)]
            if family == "ring" and delta % 2 and n % 2:
                n += 1
            out.append(make_input(family, n, delta, rng, DESK_RANDOM_PART))
    return out


def ladder(delta: int) -> list[list[dict]]:
    """Inputs for each rung of the frontier ladder, one per ladder family."""
    rng = random.Random(f"ladder/{delta}/{LADDER_SEED}")
    rungs = []
    for n in ladder_rungs():
        n_even = n + (n % 2)
        rungs.append([
            make_input(family, n_even, delta, rng) for family in LADDER_FAMILIES])
    return rungs


def label_pairs(graphs, count: int, seed: int) -> list[tuple[int, int, int]]:
    """(graph index, a, b) vertex pairs over the given (n, edges) graphs: a
    quarter are edges, so their labels must be adjacent, the rest uniform
    pairs of distinct vertices."""
    rng = random.Random(f"pairs/{seed}")
    with_edges = [k for k, (_, edges) in enumerate(graphs) if edges]
    out = []
    for i in range(count):
        if i % 4 == 0 and with_edges:
            k = with_edges[rng.randrange(len(with_edges))]
            edges = graphs[k][1]
            a, b = edges[rng.randrange(len(edges))]
        else:
            k = rng.randrange(len(graphs))
            n = graphs[k][0]
            a = rng.randrange(n)
            b = (a + 1 + rng.randrange(n - 1)) % n
        out.append((k, a, b) if rng.random() < 0.5 else (k, b, a))
    return out


def digest(items) -> str:
    """Short hash of any JSON-serialisable inputs."""
    text = json.dumps(items, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
