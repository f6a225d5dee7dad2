"""Seeded input generator for the benchmark workloads.

    python bench/gen.py <workload> <seed> <outdir>

Runs in its own process and never imports the package, so nothing it
computes warms a cache of a timed process (the exact oracles are memoized
process-wide).  Every input it writes is certified valid by its own exact
computations:

* n <= 16: the game's exact promise (|a|+|b| > max biclique, |a|+|b| > max
  clique, |a|*|b| > max edge biclique);
* biclique game beyond that: |a| > |common neighbours of b|, which forces a
  nonedge between a and b that the threshold circuit separates;
* clique game: |a|+|b| > omega, with omega computed here.

It writes ``manifest.json`` (and graph files for big-graphs) into outdir.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
import sys

ORACLE_LIMIT = 16
N6_STAR_FREE = 27_449
SEPARATE_SAMPLE = 400
VERIFY_SAMPLE = 2_000
BIG_SIZES = (16, 64, 128)
CLIQUE_MAX_N = 64
BIG_ROUNDS = 25  # rounds of timed warm plays per pass
ROUND_CLASSES = 20  # inputs per graph and family in one round, one per size class
MAX_TRIES = 10_000


def adjacency(n: int, edges) -> list[int]:
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return adj


def star_free(n: int, adj: list[int]) -> bool:
    return all(adj[v].bit_count() < n - 1 for v in range(n))


def is_clique(adj: list[int], members) -> bool:
    members = list(members)
    return all(adj[u] >> v & 1 for u, v in itertools.combinations(members, 2))


def max_clique(n: int, adj: list[int]) -> int:
    """Exact clique number by pivoted Bron-Kerbosch on bitmasks."""
    best = 0

    def expand(size: int, p: int, x: int) -> None:
        nonlocal best
        if not p:
            best = max(best, size)
            return
        if size + p.bit_count() <= best:
            return
        pivot_mask = p | x
        pivot = max(
            (u for u in range(n) if pivot_mask >> u & 1),
            key=lambda u: (p & adj[u]).bit_count(),
        )
        cand = p & ~adj[pivot]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            expand(size + 1, p & adj[v], x & adj[v])
            p &= ~low
            x |= low
            cand ^= low

    expand(0, (1 << n) - 1, 0)
    return best


def common_masks(n: int, adj: list[int]) -> list[int]:
    """Common-neighbour mask of every vertex subset, indexed by the subset."""
    full = (1 << n) - 1
    gamma = [full] * (1 << n)
    for m in range(1, 1 << n):
        low = m & -m
        gamma[m] = gamma[m ^ low] & adj[low.bit_length() - 1]
    return gamma


def max_bicliques(n: int, adj: list[int]) -> tuple[int, int]:
    """(max |a|+|b|, max |a|*|b|) over bicliques; a lone vertex counts as size 1."""
    gamma = common_masks(n, adj)
    best_sum = 1 if n else 0
    best_prod = 0
    for m in range(1, 1 << n):
        g = gamma[m] & ~m
        if g:
            a, b = m.bit_count(), g.bit_count()
            best_sum = max(best_sum, a + b)
            best_prod = max(best_prod, a * b)
    return best_sum, best_prod


def graph_text(n: int, edges) -> str:
    lines = [f"p edge {n} {len(edges)}"]
    lines += [f"e {u + 1} {v + 1}" for u, v in edges]
    return "\n".join(lines) + "\n"


def random_graph(n: int, rng: random.Random) -> list[tuple[int, int]]:
    return [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]


# ---------------------------------------------------------------------------
# verify-n5: a seeded sample of plays to referee independently of the CLI


def promise_holds(game: str, a: set, b: set, omega: int, omega_b: int, edge_b: int) -> bool:
    if game in ("biclique", "edge-biclique") and (not a or not b):
        return False
    if game == "biclique":
        return len(a) + len(b) > omega_b
    if game == "edge-biclique":
        return len(a) * len(b) > edge_b
    return len(a) + len(b) > omega


def gen_verify(seed: int) -> dict:
    rng = random.Random(f"verify-n5:{seed}")
    games = ("biclique", "clique", "relaxed-clique", "edge-biclique")
    sample = []
    while len(sample) < VERIFY_SAMPLE:
        n = rng.choice((2, 3, 4, 5, 5, 5))
        edges = random_graph(n, rng)
        adj = adjacency(n, edges)
        if not star_free(n, adj):
            continue
        omega = max_clique(n, adj)
        omega_b, edge_b = max_bicliques(n, adj)
        for _ in range(10):
            game = rng.choice(games)
            for _ in range(200):
                side = [rng.randrange(3) for _ in range(n)]
                a = {v for v in range(n) if side[v] == 1}
                b = {v for v in range(n) if side[v] == 2}
                if promise_holds(game, a, b, omega, omega_b, edge_b):
                    sample.append({"n": n, "edges": edges, "game": game, "a": sorted(a), "b": sorted(b)})
                    break
    return {"sample": sample[:VERIFY_SAMPLE]}


# ---------------------------------------------------------------------------
# separate-n6: a seeded sample of the star-free labeled n = 6 graphs


def expected_vectors(n: int, adj: list[int]) -> dict:
    """How many vectors each separator suite must evaluate on this graph."""
    subsets = [m for m in range(1 << n)]
    cliques = [m for m in subsets if is_clique(adj, (v for v in range(n) if m >> v & 1))]
    omega = max(m.bit_count() for m in cliques)
    omega_b, _ = max_bicliques(n, adj)
    sizes = [m.bit_count() for m in subsets]
    csizes = [m.bit_count() for m in cliques]
    inc = clq = rel = 0
    for k in range(1, n + 1):
        inc += sum(1 for s in sizes if s == k) + sum(1 for s in sizes if s and s > omega_b - k)
        clq += sum(1 for s in csizes if s == k) + sum(1 for s in csizes if s > omega - k)
        rel += sum(1 for s in sizes if s == k) + sum(1 for s in csizes if s and s > omega - k)
    return {
        "incidence-separation": inc,
        "clique-separation": clq,
        "relaxed-separation": rel,
        "induced-clique": n * (1 << n),
    }


def gen_separate(seed: int) -> dict:
    n = 6
    pairs = list(itertools.combinations(range(n), 2))
    catalog = []
    for mask in range(1 << len(pairs)):
        edges = [e for i, e in enumerate(pairs) if mask >> i & 1]
        if star_free(n, adjacency(n, edges)):
            catalog.append(edges)
    if len(catalog) != N6_STAR_FREE:
        raise SystemExit(f"gen: {len(catalog)} star-free n=6 graphs, expected {N6_STAR_FREE}")
    # stratified by edge count, in proportion to the catalog, so that every
    # seed draws about the same amount of work
    rng = random.Random(f"separate-n6:{seed}")
    strata: dict[int, list] = {}
    for edges in catalog:
        strata.setdefault(len(edges), []).append(edges)
    sample = []
    for m in sorted(strata):
        sample += rng.sample(strata[m], round(SEPARATE_SAMPLE * len(strata[m]) / len(catalog)))
    expected = dict.fromkeys(expected_vectors(n, adjacency(n, [])), 0)
    for edges in sample:
        for suite, count in expected_vectors(n, adjacency(n, edges)).items():
            expected[suite] += count
    return {"graphs": [graph_text(n, edges) for edges in sample], "expected": expected}


# ---------------------------------------------------------------------------
# big-graphs: G(n, 1/2) files with certified inputs


def random_clique(adj: list[int], pool: list[int], rng: random.Random) -> list[int]:
    """Greedy maximal clique inside ``pool``, in random order."""
    order = pool[:]
    rng.shuffle(order)
    clique: list[int] = []
    for v in order:
        if all(adj[v] >> u & 1 for u in clique):
            clique.append(v)
    return clique


def clique_of_size(adj: list[int], pool: list[int], size: int, rng: random.Random) -> list[int]:
    for _ in range(MAX_TRIES):
        clique = random_clique(adj, pool, rng)
        if len(clique) >= size:
            return clique[:size]
    raise SystemExit(f"gen: no clique of size {size} found in {MAX_TRIES} tries")


def biclique_a_size(n: int, sb: int) -> int:
    """An |a| that G(n, 1/2) common neighbourhoods of ``sb`` vertices rarely reach."""
    p = 0.5**sb
    return math.ceil((n - sb) * p + 3 * math.sqrt((n - sb) * p * (1 - p))) + 1


def biclique_input(n, adj, omega_b, c, rng) -> tuple[list[int], list[int]]:
    """An input of size class ``c``: the sizes are fixed by ``c``, the members are random."""
    vertices = list(range(n))
    if n <= ORACLE_LIMIT:
        total = min(n, omega_b + 1 + c % 3)
        sa = 1 + (c // 3) % (total - 1)
        chosen = rng.sample(vertices, total)
        return sorted(chosen[:sa]), sorted(chosen[sa:])
    sb = 1 + c % 5
    sa = biclique_a_size(n, sb) + (c // 5) % 4
    for _ in range(MAX_TRIES):
        b = rng.sample(vertices, sb)
        gamma = (1 << n) - 1
        for v in b:
            gamma &= adj[v]
        if gamma.bit_count() < sa:
            a = rng.sample([v for v in vertices if v not in b], sa)
            return sorted(a), sorted(b)
    raise SystemExit(f"gen: no biclique input with |a| = {sa}, |b| = {sb}")


def clique_input(n, adj, omega, c, rng) -> tuple[list[int], list[int]]:
    """Both sides cliques half the time; otherwise one side is not a clique.

    The sizes are fixed by the class ``c``: |a| sets which circuit the
    parties walk, and so most of a play's cost.
    """
    vertices = list(range(n))
    shape, j = ("cliques", "alice-not-clique", "cliques", "bob-not-clique")[c % 4], c // 4
    for _ in range(MAX_TRIES):
        if shape == "cliques":
            sa = max(1, omega - 3 + j % 3)
            a = clique_of_size(adj, vertices, sa, rng)
            b = clique_of_size(adj, [v for v in vertices if v not in a], omega + 1 - sa, rng)
            return sorted(a), sorted(b)
        total = omega + 1 + j % 3
        if shape == "alice-not-clique":
            sa = 2 + j % 3
            chosen = rng.sample(vertices, total)
            a, b = chosen[:sa], chosen[sa:]
            if not is_clique(adj, a):
                return sorted(a), sorted(b)
        else:
            a = clique_of_size(adj, vertices, max(1, omega - 3), rng)
            b = rng.sample([v for v in vertices if v not in a], total - len(a))
            if not is_clique(adj, b):
                return sorted(a), sorted(b)
    raise SystemExit(f"gen: no {shape} input of class {c}")


def gen_big(seed: int, outdir: str) -> dict:
    """Fixed graphs (their seed is a constant), inputs drawn from ``seed``.

    The circuit cost, and so ``bit_bound``'s time, depends on the graph
    alone; keeping the graphs fixed leaves only the inputs to the seed.
    Per graph and family the inputs are one cold play, one warm-up play and
    BIG_ROUNDS rounds of ROUND_CLASSES inputs, one of each size class, so
    every round of every seed asks for the same kind of work.
    """
    entries = []
    for n in BIG_SIZES:
        graph_rng = random.Random(f"big-graphs:graph:{n}")
        while True:
            edges = random_graph(n, graph_rng)
            adj = adjacency(n, edges)
            if star_free(n, adj):
                break
        rng = random.Random(f"big-graphs:{seed}:{n}")
        name = f"gnp{n}.col"
        with open(os.path.join(outdir, name), "w") as fh:
            fh.write(graph_text(n, edges))
        count = 2 + BIG_ROUNDS * ROUND_CLASSES
        omega_b = max_bicliques(n, adj)[0] if n <= ORACLE_LIMIT else None
        inputs = {"biclique": [biclique_input(n, adj, omega_b, i % ROUND_CLASSES, rng) for i in range(count)]}
        if n <= CLIQUE_MAX_N:
            omega = max_clique(n, adj)
            inputs["clique"] = [clique_input(n, adj, omega, i % ROUND_CLASSES, rng) for i in range(count)]
        entries.append({"file": name, "n": n, "inputs": inputs})
    return {"graphs": entries, "rounds": BIG_ROUNDS, "round_classes": ROUND_CLASSES}


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    workload, seed, outdir = argv[0], int(argv[1]), argv[2]
    os.makedirs(outdir, exist_ok=True)
    if workload == "verify-n5":
        manifest = gen_verify(seed)
    elif workload == "separate-n6":
        manifest = gen_separate(seed)
    elif workload == "big-graphs":
        manifest = gen_big(seed, outdir)
    else:
        print(f"gen: unknown workload {workload!r}", file=sys.stderr)
        return 2
    manifest.update(workload=workload, seed=seed)
    with open(os.path.join(outdir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
