"""Adversarial and random instance generators.

Each family builds disjoint blocks whose union has max degree exactly
delta.  The clique families are the structures that make single-pass
delta-coloring hard: near-cliques whose only valid colorings repeat a
color on a non-edge, clique pairs with switched edges, delta-cliques
with either one stray edge per vertex or a couple of heavily-connected
outside neighbors.

The two random families are in-package, stdlib-seeded versions of
NetworkX 3.6's generators: random-regular is the Steger-Wormald pairing
model, erdos-renyi is Gilbert's G(n, p) followed by a degree trim and a
local-sparsity repair.  At the same seed both give NetworkX's edges in
NetworkX's order.

An instance is plain arrays; `stream.stream_source` turns one into an
edge stream, so this module imports nothing of `stream`.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from streamcolor.params import rng_for


class GeneratorSpecError(ValueError):
    pass


FAMILIES = (
    "clique-minus-edge",
    "clique-pairs",
    "lonely-clique",
    "hard-phase6",
    "holey-clique",
    "mixed",
    "random-regular",
    "erdos-renyi",
)

_KEY_ALIASES = {
    "delta": "delta",
    "Δ": "delta",
    "d": "delta",
    "count": "count",
    "pairs": "count",
    "blocks": "count",
    "seed": "seed",
    "n": "n",
    "t": "t",
}


@dataclass
class Instance:
    n: int
    edges: np.ndarray  # (m, 2) int64
    delta: int
    family: str
    blocks: list[list[int]]  # vertex groups, one per generated block
    cores: list[list[int]]   # per block, the vertex sets that should come out as almost-cliques


def is_generator_spec(source: str) -> bool:
    head = source.split(":", 1)[0].strip()
    return head in FAMILIES


def parse_generator_spec(spec: str) -> tuple[str, dict]:
    """Parse 'family:key=val,key=val' strings."""
    family, _, rest = spec.partition(":")
    family = family.strip()
    if family not in FAMILIES:
        raise GeneratorSpecError(f"unknown family {family!r}")
    params: dict = {}
    for item in filter(None, (s.strip() for s in rest.split(","))):
        key, eq, val = item.partition("=")
        if not eq:
            raise GeneratorSpecError(f"expected key=val, got {item!r}")
        key = _KEY_ALIASES.get(key.strip())
        if key is None:
            raise GeneratorSpecError(f"unknown key in {item!r}")
        params[key] = int(val)
    return family, params


# ---------------------------------------------------------------------------
# Block builders: return (block vertex count, edge list over 0..size-1)
# ---------------------------------------------------------------------------


def _clique_edges(vertices: list[int]) -> list[tuple[int, int]]:
    return [(u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]]


def _clique_minus_edge_block(delta: int, rng):
    verts = list(range(delta + 1))
    edges = set(_clique_edges(verts))
    drop = tuple(sorted(rng.choice(delta + 1, size=2, replace=False)))
    edges.discard(drop)
    return delta + 1, sorted(edges), [verts]


def _clique_pairs_block(delta: int, rng):
    k = delta + 1
    left = list(range(k))
    right = list(range(k, 2 * k))
    edges = set(_clique_edges(left)) | set(_clique_edges(right))
    u1, v1 = sorted(rng.choice(k, size=2, replace=False))
    u2, v2 = sorted(rng.choice(k, size=2, replace=False) + k)
    edges.discard((u1, v1))
    edges.discard((u2, v2))
    edges.add((u1, v2))
    edges.add((v1, u2))
    return 2 * k, sorted(edges), [left, right]


def _lonely_clique_block(delta: int, rng):
    """A delta-clique whose vertices each have exactly one edge to an
    external ring; every ring vertex gets exactly one clique edge.

    The ring carries chords at offset 3 (when it is long enough) so each
    ring vertex sees only pairwise non-adjacent neighbors - enough
    non-edges to stay locally sparse at every desk-scale threshold."""
    clique = list(range(delta))
    ring = list(range(delta, 2 * delta))
    edges = _clique_edges(clique)
    offsets = (1, 3) if delta >= 8 else (1,)
    for o in offsets:
        edges += [(ring[i], ring[(i + o) % delta]) for i in range(delta)]
    attach = rng.permutation(delta)
    edges += [(clique[i], ring[int(attach[i])]) for i in range(delta)]
    edges = sorted({(min(a, b), max(a, b)) for a, b in edges})
    return 2 * delta, edges, [clique]


def _hard_phase6_block(delta: int, rng):
    """A delta-clique plus two outside vertices that split all the
    clique's free edge slots between them; the only delta-colorings give
    both outsiders colors that leave the clique a full palette."""
    clique = list(range(delta))
    u1, u2 = delta, delta + 1
    edges = _clique_edges(clique)
    order = rng.permutation(delta)
    half = (delta + 1) // 2
    edges += [(int(order[i]), u1) for i in range(half)]
    edges += [(int(order[i]), u2) for i in range(half, delta)]
    edges.append((u1, u2))
    return delta + 2, sorted((min(a, b), max(a, b)) for a, b in edges), [clique]


def _holey_clique_block(delta: int, rng, t: int | None = None):
    """A (delta+1)-clique minus a planted non-edge set: a perfect matching
    by default, or t random pairs."""
    k = delta + 1
    edges = set(_clique_edges(list(range(k))))
    if t is None:
        perm = rng.permutation(k)
        for i in range(0, k - 1, 2):
            a, b = int(perm[i]), int(perm[i + 1])
            edges.discard((min(a, b), max(a, b)))
    else:
        if t > k * (k - 1) // 2:
            raise GeneratorSpecError(f"cannot plant {t} non-edges in a {k}-clique")
        pool = sorted(edges)
        for idx in rng.choice(len(pool), size=t, replace=False):
            edges.discard(pool[int(idx)])
    return k, sorted(edges), [list(range(k))]


def _mixed_blocks(delta: int, rng):
    return [
        _lonely_clique_block(delta, rng),
        _clique_minus_edge_block(delta, rng),
        _hard_phase6_block(delta, rng),
        _holey_clique_block(delta, rng),
    ]


def _random_regular(n: int, delta: int, seed: int) -> np.ndarray:
    """A random delta-regular graph from the pairing model of Steger and
    Wormald (1999): shuffle n*delta stubs, pair them off, keep the pairs
    that are neither loops nor repeats, and pair the leftover stubs again;
    an attempt whose leftovers admit no new edge starts over.

    The draws, the retries and the edge order are those of NetworkX 3.6's
    `random_regular_graph` at the same integer seed, so the edges equal its
    `g.edges()` row for row."""
    if (n * delta) % 2:
        raise GeneratorSpecError("n*delta must be even for a regular graph")
    if delta >= n:
        raise GeneratorSpecError("need delta < n")
    rnd = random.Random(int(seed))

    def suitable(edges, potential) -> bool:
        # some two leftover stubs could still form a new edge
        if not potential:
            return True
        for s1 in potential:
            for s2 in potential:
                if s1 == s2:
                    break
                if s1 > s2:  # rebinds s1 for the rest of the row, as NetworkX does
                    s1, s2 = s2, s1
                if (s1, s2) not in edges:
                    return True
        return False

    def attempt():
        edges = set()
        stubs = list(range(n)) * delta
        while stubs:
            potential: dict[int, int] = {}
            rnd.shuffle(stubs)
            it = iter(stubs)
            for s1, s2 in zip(it, it):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential[s1] = potential.get(s1, 0) + 1
                    potential[s2] = potential.get(s2, 0) + 1
            if not suitable(edges, potential):
                return None
            stubs = [v for v, k in potential.items() for _ in range(k)]
        return edges

    edges = attempt()
    while edges is None:
        edges = attempt()
    e = np.array(list(edges), dtype=np.int64)
    # NetworkX lists a node's edges in insertion order, the nodes ascending
    return e[np.argsort(e[:, 0], kind="stable")]


def _desk_sparse_floor(delta: int) -> int:
    """Non-edges a vertex's neighborhood needs to count as locally sparse
    under the desk-default decomposition threshold."""
    eps_delta = min(delta / 40, 4.0)
    return max(1, math.ceil(eps_delta * eps_delta / 2))


def _ensure_locally_sparse(adj: list[dict], degs: list[int], delta: int, rng) -> None:
    """Add edges at vertices whose neighborhoods are too clique-like
    (degree <= 1 or too few non-adjacent neighbor pairs) until every
    vertex clears the desk sparsity floor."""
    floor = _desk_sparse_floor(delta)
    n = len(adj)
    for _ in range(50):
        dirty = False
        for v in range(n):
            while True:
                nbrs = list(adj[v])
                non_edges = sum(
                    1
                    for i, a in enumerate(nbrs)
                    for b in nbrs[i + 1 :]
                    if b not in adj[a]
                )
                if len(nbrs) >= 2 and non_edges >= floor:
                    break
                pool = [
                    w
                    for w in range(n)
                    if w != v and degs[w] < delta and w not in adj[v]
                ]
                if not pool or degs[v] >= delta:
                    raise GeneratorSpecError(
                        f"cannot make vertex {v} locally sparse at delta={delta}"
                    )
                w = pool[int(rng.integers(len(pool)))]
                _add_edge(adj, degs, v, w)
                dirty = True
        if not dirty:
            return
    raise GeneratorSpecError("local-sparsity repair did not converge")


def _add_edge(adj: list[dict], degs: list[int], v: int, w: int) -> None:
    adj[v][w] = adj[w][v] = None
    degs[v] += 1
    degs[w] += 1


def _erdos_renyi(n: int, delta: int, seed: int) -> np.ndarray:
    """Gilbert's G(n, p) with p = delta / (1.3 n), tuned and trimmed so the
    max degree is exactly delta and every vertex is locally sparse enough
    for the decomposition (clique-like neighborhoods are neither sparse nor
    almost-clique members, so the verification gate would refuse them).

    Adjacency is a list of insertion-ordered dicts: deleting an edge and
    adding it again moves it to the end, as in a NetworkX `Graph`, so the
    sampled graph and its edge order equal NetworkX 3.6's
    `gnp_random_graph` at the same integer seed, put through the same
    trim, fill and repair."""
    if delta >= n:
        raise GeneratorSpecError("need delta < n")
    if delta < 3 or n < 5:
        raise GeneratorSpecError("need delta >= 3 and n >= 5")
    rnd = random.Random(int(seed))
    p = delta / (1.3 * n)
    adj: list[dict] = [{} for _ in range(n)]
    degs = [0] * n
    for u, v in itertools.combinations(range(n), 2):
        if rnd.random() < p:
            _add_edge(adj, degs, u, v)
    rng = rng_for(seed, "instance", extra=1)
    while True:
        hot = [v for v in range(n) if degs[v] > delta]
        if not hot:
            break
        v = hot[0]
        nbrs = list(adj[v])
        w = nbrs[int(rng.integers(len(nbrs)))]
        del adj[v][w], adj[w][v]
        degs[v] -= 1
        degs[w] -= 1
    if max(degs) < delta:
        for v in range(n):
            if degs[v] >= delta:
                break
            for w in range(n):
                if w != v and degs[w] < delta and w not in adj[v]:
                    _add_edge(adj, degs, v, w)
                    if degs[v] >= delta:
                        break
    _ensure_locally_sparse(adj, degs, delta, rng)
    return np.array(
        [(u, v) for u in range(n) for v in adj[u] if v > u], dtype=np.int64
    ).reshape(-1, 2)


def generate_instance(family: str, delta: int, count: int = 1, seed: int = 0,
                      n: int | None = None, t: int | None = None) -> Instance:
    """Build `count` disjoint blocks of the requested family.

    Fixed (family, delta, count, seed) is bit-reproducible.
    """
    if family not in FAMILIES:
        raise GeneratorSpecError(f"unknown family {family!r}")
    if delta < 3:
        raise GeneratorSpecError("delta must be >= 3")
    if count < 1:
        raise GeneratorSpecError("count must be >= 1")

    if family in ("random-regular", "erdos-renyi"):
        n = n if n is not None else 10 * delta
        make = _random_regular if family == "random-regular" else _erdos_renyi
        inst = Instance(
            n=n,
            edges=make(n, delta, seed),
            delta=delta,
            family=family,
            blocks=[list(range(n))],
            cores=[],
        )
    else:
        rng = rng_for(seed, "instance")
        all_edges: list[tuple[int, int]] = []
        blocks: list[list[int]] = []
        cores: list[list[int]] = []
        offset = 0
        for _ in range(count):
            if family == "mixed":
                parts = _mixed_blocks(delta, rng)
            elif family == "clique-minus-edge":
                parts = [_clique_minus_edge_block(delta, rng)]
            elif family == "clique-pairs":
                parts = [_clique_pairs_block(delta, rng)]
            elif family == "lonely-clique":
                parts = [_lonely_clique_block(delta, rng)]
            elif family == "hard-phase6":
                parts = [_hard_phase6_block(delta, rng)]
            else:
                parts = [_holey_clique_block(delta, rng, t=t)]
            for size, edges, part_cores in parts:
                all_edges += [(u + offset, v + offset) for u, v in edges]
                blocks.append(list(range(offset, offset + size)))
                cores += [[c + offset for c in core] for core in part_cores]
                offset += size
        inst = Instance(
            n=offset,
            edges=np.asarray(all_edges, dtype=np.int64).reshape(-1, 2),
            delta=delta,
            family=family,
            blocks=blocks,
            cores=cores,
        )

    degs = np.bincount(inst.edges.ravel(), minlength=inst.n)
    if int(degs.max()) != delta:
        raise GeneratorSpecError(
            f"{family} produced max degree {int(degs.max())}, wanted {delta}"
        )
    return inst


def instance_from_spec(spec: str, seed: int = 0) -> Instance:
    """The instance a 'family:key=val,...' spec names; a seed in the spec
    wins over `seed`."""
    family, params = parse_generator_spec(spec)
    if "delta" not in params:
        raise GeneratorSpecError(f"spec {spec!r} must set delta")
    return generate_instance(family, **({"seed": seed} | params))
