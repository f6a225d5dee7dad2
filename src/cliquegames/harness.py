"""Exhaustive and randomized verification: catalogs, suites, bit statistics.

Suites evaluate the separator-circuit guarantees and referee full protocol
runs over small graph catalogs.  Failures are data, not exceptions: each one
carries enough to reproduce (edge list, k, the sets, the seed).
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator, Optional

from .circuit import build_threshold_sort, evaluate_many
from .games import (
    BICLIQUE,
    CLIQUE,
    EDGE_BICLIQUE,
    RELAXED_CLIQUE,
    GameConfig,
    GameKind,
    _game_network,
    bit_bound,
    game_circuit,
    incidence_vector,
    induced_clique_circuit,
    legal_answer,
    non_incidence_vector,
    play,
    promise_bound,
    promise_size,
    relaxed_non_incidence_vector,
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


def _check_circuit_on(
    report: SuiteReport, g: Graph, k: int, circ, cases: list, expected: int, side: str
) -> None:
    """Evaluate ``circ`` on every (set, vector) case; record each one not giving ``expected``."""
    if not cases:
        return
    got = evaluate_many(circ, [vector for _, vector in cases])
    report.inputs_tested += len(cases)
    if got.count(expected) == len(got):
        return
    for value, (subset, _) in zip(got, cases):
        if value != expected:
            report.failures.append(
                {
                    "graph": _graph_repr(g),
                    "k": k,
                    "side": side,
                    "set": sorted(subset),
                    "expected": expected,
                    "got": value,
                }
            )


def _all_cliques(g: Graph) -> list[tuple[int, ...]]:
    out = [()]
    for r in range(1, g.n + 1):
        layer = [c for c in itertools.combinations(range(g.n), r) if g.is_clique(c)]
        if not layer:
            break
        out.extend(layer)
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
    inputs = [tuple([m >> v & 1 for v in range(g.n)]) for m in range(1 << g.n)]
    for k in range(1, g.n + 1):
        circ = induced_clique_circuit(g, k)
        got = evaluate_many(circ, inputs)
        report.inputs_tested += len(inputs)
        want = [1 if w >= k else 0 for w in omega]
        if got != want:
            for m, value in enumerate(got):
                if value != want[m]:
                    report.failures.append(
                        {
                            "graph": _graph_repr(g),
                            "k": k,
                            "side": "truth-table",
                            "set": [v for v in range(g.n) if m >> v & 1],
                            "expected": want[m],
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


def _by_size(n: int, cases: list) -> list[list]:
    """(set, vector) cases in lists by set size, 0..n, each in the given order."""
    out: list[list] = [[] for _ in range(n + 1)]
    for case in cases:
        out[len(case[0])].append(case)
    return out


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
        if kind == RELAXED_CLIQUE:
            bob_vector = partial(relaxed_non_incidence_vector, g)
        else:
            bob_vector = non_incidence_vector
        # each set's vector once per graph, bucketed by set size; a Bob set
        # too small for every k gets none.  The sets come in size order, so
        # reading the buckets in size order keeps it.
        alice = _by_size(g.n, [(s, incidence_vector(idx, s)) for s in alice_sets if s])
        bob = _by_size(g.n, [(s, bob_vector(idx, s)) for s in bob_sets if promise_size(kind, slots, len(s)) > bound])
        for k in range(1, slots + 1):
            circ = game_circuit(g, idx, kind, k, cfg)
            rejects = [c for size, cases in enumerate(bob) if promise_size(kind, k, size) > bound for c in cases]
            _check_circuit_on(report, g, k, circ, alice[k], 1, "accepts")
            _check_circuit_on(report, g, k, circ, rejects, 0, "rejects")

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
