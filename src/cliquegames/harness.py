"""Exhaustive and randomized verification: catalogs, suites, bit statistics.

Suites evaluate the separator-circuit guarantees and referee full protocol
runs over small graph catalogs.  Failures are data, not exceptions: each one
carries enough to reproduce (edge list, k, the sets, the seed).

The separator suites evaluate byte-lane columns built from set masks, one
lane per case, with ``circuit._eval_masks``; ``evaluate_many`` and the
vector makers of ``games`` stay the public batch API and the references
the lanes are tested against.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence

from .circuit import _eval_masks, build_threshold_sort
from .games import (
    BICLIQUE,
    CLIQUE,
    EDGE_BICLIQUE,
    RELAXED_CLIQUE,
    GameConfig,
    GameKind,
    _gamma_mask,
    _game_network,
    bit_bound,
    game_circuit,
    induced_clique_circuit,
    legal_answer,
    play,
    promise_bound,
    promise_size,
    replay_transcript,
)
from .graph import (
    Graph,
    OracleLimitError,
    TrivialGraphError,
    _mask,
    graph_from_edges,
    maximal_cliques,
    nonedges,
    strip_stars,
)

# ---------------------------------------------------------------------------
# named graphs and catalogs


def path_graph(n: int) -> Graph:
    return graph_from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return graph_from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return graph_from_edges(n, itertools.combinations(range(n), 2))


def complete_bipartite_graph(m: int, k: int, declared: bool = False) -> Graph:
    edges = [(i, m + j) for i in range(m) for j in range(k)]
    parts = (range(m), range(m, m + k)) if declared else None
    return graph_from_edges(m + k, edges, bipartition=parts)


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    edges = [e for e in itertools.combinations(range(n), 2) if rng.random() < p]
    return graph_from_edges(n, edges)


def all_labeled_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices (2^C(n,2) of them), raw."""
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield graph_from_edges(n, [e for i, e in enumerate(pairs) if mask >> i & 1])


def _strip_or_none(g: Graph) -> Optional[Graph]:
    try:
        stripped, _ = strip_stars(g)
    except TrivialGraphError:
        return None
    return stripped


def catalog_all_graphs(n_max: int, n_min: int = 2) -> list[Graph]:
    """All labeled graphs on n_min..n_max vertices, star-stripped.

    Trivial results are discarded and exact duplicates (which stripping
    creates) collapse, so every surviving graph is star-free with >= 2
    vertices.  Deterministic order.
    """
    seen: set[tuple[int, frozenset]] = set()
    out: list[Graph] = []
    for n in range(n_min, n_max + 1):
        for g in all_labeled_graphs(n):
            stripped = _strip_or_none(g)
            if stripped is None:
                continue
            key = (stripped.n, stripped.edges)
            if key in seen:
                continue
            seen.add(key)
            out.append(stripped)
    return out


def catalog_random(n: int, p: float, count: int, seed: int) -> list[Graph]:
    """Exactly ``count`` star-stripped nontrivial seeded random graphs."""
    rng = random.Random(f"catalog:{n}:{p}:{seed}")
    out: list[Graph] = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 100 * count + 100:
            raise RuntimeError("random catalog keeps producing trivial graphs")
        stripped = _strip_or_none(random_graph(n, p, rng))
        if stripped is not None:
            out.append(stripped)
    return out


def catalog_named(n_max: int = 7) -> list[Graph]:
    """Small named menagerie used by the protocol suites."""
    out: list[Graph] = []
    for n in range(4, n_max + 1):
        out.append(path_graph(n))
    for n in range(4, n_max + 1):
        out.append(cycle_graph(n))
    for m, k in ((2, 2), (2, 3), (3, 3)):
        if m + k <= n_max:
            out.append(complete_bipartite_graph(m, k))
    return [g for g in (_strip_or_none(g) for g in out) if g is not None]


# ---------------------------------------------------------------------------
# valid-input enumeration


@dataclass(frozen=True)
class ValidInput:
    a: frozenset
    b: frozenset
    both_cliques: bool


def enumerate_valid_inputs(
    g: Graph, kind: GameKind, config: Optional[GameConfig] = None
) -> list[ValidInput]:
    """Every disjoint pair satisfying the kind's promise, in canonical order.

    Clique-style inputs are tagged with whether both sides are cliques (the
    only inputs that reach the circuit phase).  Requires the exact oracles,
    hence the graph must be within the oracle limit.
    """
    cfg = config if config is not None else GameConfig()
    if g.n > cfg.oracle_limit:
        raise OracleLimitError(
            f"oracle limit: cannot enumerate valid inputs for n = {g.n} > {cfg.oracle_limit}"
        )
    if kind.undefined_on(g):
        raise ValueError("clique games are not defined on bipartite-declared graphs")

    bound = promise_bound(kind, g)
    a_universe, b_universe = _sides(g, kind)
    a_sets = _subset_records(g, a_universe)
    b_sets = a_sets if b_universe == a_universe else _subset_records(g, b_universe)
    # Bob's sets by size, each size in canonical order: those disjoint from
    # a are the subsets of the rest, in the order ``_subsets`` gives them
    b_by_size: list[list[tuple[int, frozenset, bool]]] = [[] for _ in range(len(b_universe) + 1)]
    for record in b_sets:
        b_by_size[len(record[1])].append(record)
    out: list[ValidInput] = []
    for a_mask, a, a_clique in a_sets:
        if kind.crossing_goal and not a:
            continue
        for size, records in enumerate(b_by_size):
            if (kind.crossing_goal and not size) or promise_size(kind, len(a), size) <= bound:
                continue
            for b_mask, b, b_clique in records:
                if not a_mask & b_mask:
                    out.append(ValidInput(a=a, b=b, both_cliques=a_clique and b_clique))
    return out


def _subset_records(g: Graph, universe: list[int]) -> list[tuple[int, frozenset, bool]]:
    """(mask, set, is a clique) of every subset of ``universe``, in ``_subsets`` order."""
    return [(_mask(sub), frozenset(sub), g.is_clique(sub)) for sub in _subsets(universe)]


def _sides(g: Graph, kind: GameKind) -> tuple[list[int], list[int]]:
    """The vertices Alice's and Bob's sets are drawn from.

    The two parts in the crossing games on a bipartite-declared graph, else
    every vertex for both.
    """
    if g.bipartition is not None and kind.crossing_goal:
        return sorted(g.bipartition[0]), sorted(g.bipartition[1])
    return list(range(g.n)), list(range(g.n))


def _subsets(universe: list[int]) -> Iterator[tuple[int, ...]]:
    for r in range(len(universe) + 1):
        yield from itertools.combinations(universe, r)


# ---------------------------------------------------------------------------
# suite reports


@dataclass
class SuiteReport:
    suite: str
    graphs_tested: int = 0
    inputs_tested: int = 0
    failures: list = field(default_factory=list)
    max_bits_observed: int = 0
    bound: int = 0
    wall_time: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_obj(self) -> dict:
        return {
            "suite": self.suite,
            "graphs_tested": self.graphs_tested,
            "inputs_tested": self.inputs_tested,
            "failures": self.failures,
            "max_bits_observed": self.max_bits_observed,
            "bound": self.bound,
            "wall_time": round(self.wall_time, 3),
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True)


def _graph_repr(g: Graph) -> dict:
    return {"n": g.n, "edges": sorted(g.edges)}


# ---------------------------------------------------------------------------
# separator-circuit suites


# entry m of table b is bit b of the byte m
_BIT_TABLES = [bytes([m >> b & 1 for m in range(256)]) for b in range(8)]


def _lanes(masks: Sequence[int], n: int) -> list[int]:
    """One byte-lane column per vertex: byte j of column v is bit v of ``masks[j]``.

    Each byte of the masks is one ``bytes`` over the cases, and
    ``translate`` picks a bit out of every case of it at once.
    """
    chunks = [bytes([m >> i & 255 for m in masks]) for i in range(0, n, 8)]
    return [int.from_bytes(chunks[v >> 3].translate(_BIT_TABLES[v & 7]), "little") for v in range(n)]


def _case_columns(g: Graph, pairs: Sequence, masks: Sequence[int], side: str) -> tuple[list[int], int]:
    """Each nonedge's column over the cases, and the all-ones lane mask.

    Lane j of nonedge (u, v) is that entry of case j's vector: the
    ``incidence_vector`` of set ``masks[j]`` on side "alice", its
    ``non_incidence_vector`` on "bob", or its ``relaxed_non_incidence_vector``
    on "relaxed".
    """
    ones = int.from_bytes(b"\x01" * len(masks), "little")
    lanes = _lanes(masks, g.n)
    if side == "alice":
        return [lanes[u] | lanes[v] for u, v in pairs], ones
    if side == "bob":
        return [ones ^ (lanes[u] | lanes[v]) for u, v in pairs], ones
    gamma = _lanes([_gamma_mask(g, m) for m in masks], g.n)
    return [ones ^ (lanes[u] | lanes[v] | (gamma[u] & gamma[v])) for u, v in pairs], ones


def _size_lanes(sets: list, n: int) -> list[int]:
    """The lanes of the cases of each set size 0..n, case j in lane j."""
    out = [0] * (n + 1)
    for j, s in enumerate(sets):
        out[len(s)] |= 1 << 8 * j
    return out


def _check_circuit_on(
    report: SuiteReport, g: Graph, k: int, circ, sets: list, columns: tuple[list[int], int],
    select: int, expected: int, side: str,
) -> None:
    """Evaluate ``circ`` on the cases in the ``select`` lanes; record each one not giving ``expected``."""
    if not select:
        return
    got = _eval_masks(circ, *columns)[circ.output]
    report.inputs_tested += select.bit_count()
    wrong = select & (got if expected == 0 else ~got)
    if not wrong:
        return
    for j, subset in enumerate(sets):
        if wrong >> 8 * j & 1:
            report.failures.append(
                {
                    "graph": _graph_repr(g),
                    "k": k,
                    "side": side,
                    "set": sorted(subset),
                    "expected": expected,
                    "got": 1 - expected,
                }
            )


def _all_cliques(g: Graph) -> list[tuple[int, ...]]:
    """Every clique, the empty one first, by size and then lexicographically.

    Each clique grows by the vertices above its last one that are adjacent
    to all of it, a mask carried along with it.
    """
    out = [()]
    layer = [((), (1 << g.n) - 1)]
    while layer:
        grown = []
        for clique, above in layer:
            while above:
                low = above & -above
                above ^= low
                v = low.bit_length() - 1
                grown.append((clique + (v,), above & g.adj[v]))
        out.extend(clique for clique, _ in grown)
        layer = grown
    return out


def _clique_numbers(g: Graph) -> list[int]:
    """Exact reference: the clique number of the subgraph induced by every vertex mask.

    Entry S is ω(S) = max(ω(S ∖ {v}), 1 + ω(S ∩ N(v))) with v the lowest
    vertex of S, since a largest clique of S either leaves v out or is v
    with a clique of v's neighbors in S.  Both masks are below S, so one
    pass in mask order fills the table from ``g.adj`` alone.
    """
    adj = g.adj
    omega = [0] * (1 << g.n)
    for s in range(1, 1 << g.n):
        low = s & -s
        rest = s ^ low
        without = omega[rest]
        with_v = 1 + omega[rest & adj[low.bit_length() - 1]]
        omega[s] = with_v if with_v > without else without
    return omega


def _suite_induced_clique(g: Graph, cfg: GameConfig, report: SuiteReport) -> None:
    """The induced-clique circuit matches the exact clique-number table on
    every input, and its depth stays within the OR-fanin + threshold budget
    of the maximal cliques its round joins."""
    mc = maximal_cliques(g)
    omega = _clique_numbers(g)
    rows = 1 << g.n
    # row m is lane m: vertex v's column holds bit v of every row
    columns = _lanes(range(rows), g.n)
    ones = int.from_bytes(b"\x01" * rows, "little")
    for k in range(1, g.n + 1):
        circ = induced_clique_circuit(g, k)
        got = _eval_masks(circ, columns, ones)[circ.output]
        report.inputs_tested += rows
        want = int.from_bytes(bytes([w >= k for w in omega]), "little")
        if got != want:
            for m, value in enumerate(got.to_bytes(rows, "little")):
                if value != want >> 8 * m & 1:
                    report.failures.append(
                        {
                            "graph": _graph_repr(g),
                            "k": k,
                            "side": "truth-table",
                            "set": [v for v in range(g.n) if m >> v & 1],
                            "expected": 1 - value,
                            "got": value,
                        }
                    )
        qualifying = [c for c in mc if len(c) >= k]
        depth_cap = 0
        if qualifying:
            depth_cap = math.ceil(math.log2(len(qualifying))) + max(
                build_threshold_sort(len(c), k).depth for c in qualifying
            )
        if circ.depth > depth_cap:
            report.failures.append(
                {
                    "graph": _graph_repr(g),
                    "k": k,
                    "side": "depth",
                    "expected": depth_cap,
                    "got": circ.depth,
                }
            )


# ---------------------------------------------------------------------------
# protocol refereeing, and the suite makers that take a game kind


def _referee_play(
    g: Graph, kind: GameKind, vi: ValidInput, cfg: GameConfig, bound: int, report: SuiteReport
) -> None:
    outcome = play(kind, g, vi.a, vi.b, cfg)
    report.inputs_tested += 1
    bits = outcome.transcript.total_bits
    report.max_bits_observed = max(report.max_bits_observed, bits)
    problems = []
    if not legal_answer(kind, g, vi.a, vi.b, outcome.nonedge):
        problems.append("illegal-answer")
    if bits > bound:
        problems.append("bits-exceed-bound")
    if replay_transcript(g, kind, outcome.transcript, cfg) != outcome.nonedge:
        problems.append("transcript-not-decodable")
    for problem in problems:
        report.failures.append(
            {
                "graph": _graph_repr(g),
                "game": kind.name,
                "a": sorted(vi.a),
                "b": sorted(vi.b),
                "problem": problem,
                "bits": bits,
            }
        )


def _make_separation_suite(kind: GameKind):
    def run(g: Graph, cfg: GameConfig, report: SuiteReport) -> None:
        idx = nonedges(g)
        slots = _game_network(g, kind).slots
        bound = promise_bound(kind, g)
        # the sets each side can hold
        if kind == CLIQUE:
            alice_sets = bob_sets = _all_cliques(g)
        else:
            a_side, b_side = _sides(g, kind)
            alice_sets = list(_subsets(a_side))
            # Bob's empty set has no Γ(b) in the relaxed game and crosses nothing in the other
            bob_sets = (_all_cliques(g) if kind == RELAXED_CLIQUE else list(_subsets(b_side)))[1:]
        # each side's cases once per graph, a lane per set in size order, and
        # none for a Bob set too small for every k
        alice_sets = [s for s in alice_sets if s]
        bob_sets = [s for s in bob_sets if promise_size(kind, slots, len(s)) > bound]
        alice = _case_columns(g, idx.pairs, [_mask(s) for s in alice_sets], "alice")
        bob_side = "relaxed" if kind == RELAXED_CLIQUE else "bob"
        bob = _case_columns(g, idx.pairs, [_mask(s) for s in bob_sets], bob_side)
        alice_lanes, bob_lanes = _size_lanes(alice_sets, g.n), _size_lanes(bob_sets, g.n)
        for k in range(1, slots + 1):
            circ = game_circuit(g, idx, kind, k, cfg)
            rejects = sum(lanes for size, lanes in enumerate(bob_lanes) if promise_size(kind, k, size) > bound)
            _check_circuit_on(report, g, k, circ, alice_sets, alice, alice_lanes[k], 1, "accepts")
            _check_circuit_on(report, g, k, circ, bob_sets, bob, rejects, 0, "rejects")

    run.__doc__ = (
        f"The round-k circuit of the {kind.name} game accepts the incidence vector "
        "of every set Alice can hold with k members and rejects Bob's vector of "
        "every set he can hold that meets the promise with k."
    )
    return run


def _make_game_suite(kind: GameKind):
    def run(g: Graph, cfg: GameConfig, report: SuiteReport) -> None:
        bound = bit_bound(kind, g, cfg)
        report.bound = max(report.bound, bound)
        for vi in enumerate_valid_inputs(g, kind, cfg):
            _referee_play(g, kind, vi, cfg, bound, report)

    run.__doc__ = f"Referee every valid input of the {kind.name} game."
    return run


# name -> (the game kind the suite checks, or None; the check of one graph)
_SUITES = {
    "incidence-separation": (BICLIQUE, _make_separation_suite(BICLIQUE)),
    "clique-separation": (CLIQUE, _make_separation_suite(CLIQUE)),
    "relaxed-separation": (RELAXED_CLIQUE, _make_separation_suite(RELAXED_CLIQUE)),
    "induced-clique": (None, _suite_induced_clique),
    "game-biclique": (BICLIQUE, _make_game_suite(BICLIQUE)),
    "game-clique": (CLIQUE, _make_game_suite(CLIQUE)),
    "game-relaxed-clique": (RELAXED_CLIQUE, _make_game_suite(RELAXED_CLIQUE)),
    "game-edge-biclique": (EDGE_BICLIQUE, _make_game_suite(EDGE_BICLIQUE)),
}

SUITE_NAMES = tuple(_SUITES)


def run_suite(
    suite: str, graphs: Iterable[Graph], config: Optional[GameConfig] = None
) -> SuiteReport:
    """Run one named suite over a graph catalog; failures are recorded, not raised.

    The clique-style suites skip bipartite-declared graphs, where those games
    are not defined.  Every graph is checked under the caller's config,
    which holds settings only; the circuits come from the bounded network
    memo of ``games``.
    """
    if suite not in _SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {sorted(_SUITES)}")
    cfg = config if config is not None else GameConfig()
    kind, check = _SUITES[suite]
    report = SuiteReport(suite=suite)
    start = time.perf_counter()
    for g in graphs:
        if kind is not None and kind.undefined_on(g):
            continue
        report.graphs_tested += 1
        check(g, cfg, report)
    report.wall_time = time.perf_counter() - start
    return report


def worst_case_bits(
    g: Graph, kind: GameKind, config: Optional[GameConfig] = None
) -> tuple[int, ValidInput]:
    """Exact communication maximum over all valid inputs, with one witness."""
    cfg = config if config is not None else GameConfig()
    best_bits = -1
    witness = None
    for vi in enumerate_valid_inputs(g, kind, cfg):
        outcome = play(kind, g, vi.a, vi.b, cfg)
        bits = outcome.transcript.total_bits
        if bits > best_bits:
            best_bits, witness = bits, vi
    if witness is None:
        raise ValueError(f"the {kind.name} game has no valid inputs on this graph")
    return best_bits, witness
