"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Catalog sizes follow the stated scopes: exhaustive
labeled graphs at small n plus seeded random graphs above that.
"""

import itertools
import json
import math
import random
import time

import pytest

from cliquegames.circuit import (
    build_threshold_sort,
    build_threshold_valiant,
    threshold_truth_table,
    truth_table,
)
from cliquegames.games import (
    BICLIQUE,
    CLIQUE,
    EDGE_BICLIQUE,
    RELAXED_CLIQUE,
    GameConfig,
    bit_bound,
    play,
    size_field_width,
)
from cliquegames.graph import (
    Graph,
    max_biclique_size,
    max_clique_size,
    max_edge_biclique,
    maximal_cliques,
    strip_stars,
)
from cliquegames.harness import (
    catalog_all_graphs,
    catalog_named,
    catalog_random,
    random_graph,
    run_suite,
)

from brute import (
    brute_max_biclique,
    brute_max_clique,
    brute_max_edge_biclique,
    brute_maximal_cliques,
)


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS ({detail})")


@pytest.fixture(scope="module")
def small_catalog():
    return catalog_all_graphs(5)


@pytest.fixture(scope="module")
def random_67():
    return catalog_random(6, 0.5, 100, seed=101) + catalog_random(7, 0.5, 100, seed=102)


def test_1_threshold_sort_exact_to_n12():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 13):
        for k in range(1, n + 1):
            circ = build_threshold_sort(n, k)
            assert truth_table(circ) == threshold_truth_table(n, k), (n, k)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"threshold exactness took {elapsed:.1f}s"
    _report(
        "1 threshold-sort exactness",
        f"{checked} (n,k) pairs, all 2^n inputs, {elapsed:.1f}s",
    )


def test_2_randomized_builder_soundness_to_n10():
    start = time.perf_counter()
    checked = 0
    for n in range(1, 11):
        for k in range(1, n + 1):
            circ = build_threshold_valiant(n, k, seed=0)
            # independent full-table check, not the builder's boundary pass
            assert truth_table(circ) == threshold_truth_table(n, k), (n, k)
            checked += 1
    for n, k in ((6, 3), (8, 4), (10, 5)):
        again = build_threshold_valiant(n, k, seed=0)
        reference = build_threshold_valiant(n, k, seed=0)
        assert again.gates == reference.gates and again.output == reference.output
    elapsed = time.perf_counter() - start
    _report(
        "2 randomized-builder soundness",
        f"{checked} (n,k) pairs truth-table verified, determinism spot-checked, {elapsed:.1f}s",
    )


def test_3_separation_suites(small_catalog, random_67):
    start = time.perf_counter()
    graphs = small_catalog + random_67
    totals = {}
    for name in ("incidence-separation", "clique-separation", "relaxed-separation"):
        report = run_suite(name, graphs, GameConfig())
        assert report.passed, (name, report.failures[:3])
        totals[name] = report.inputs_tested
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0, f"separation suites took {elapsed:.1f}s"
    _report(
        "3 separation suites",
        f"{len(graphs)} graphs ({len(small_catalog)} exhaustive <=5, "
        f"{len(random_67)} random 6-7), "
        + ", ".join(f"{k}={v}" for k, v in totals.items())
        + f", {elapsed:.1f}s",
    )


def test_4_induced_clique_suite(small_catalog):
    start = time.perf_counter()
    graphs = list(small_catalog)
    for n in (6, 7, 8):
        graphs += catalog_random(n, 0.3, 7, seed=200 + n)
        graphs += catalog_random(n, 0.5, 7, seed=300 + n)
        graphs += catalog_random(n, 0.7, 6, seed=400 + n)
    report = run_suite("induced-clique", graphs, GameConfig())
    assert report.passed, report.failures[:3]
    elapsed = time.perf_counter() - start
    _report(
        "4 induced-clique circuits",
        f"{len(graphs)} graphs, {report.inputs_tested} truth-table rows "
        f"plus depth caps, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def protocol_catalog():
    return (
        catalog_all_graphs(4)
        + catalog_named(7)
        + catalog_random(6, 0.5, 10, seed=501)
        + catalog_random(7, 0.5, 10, seed=502)
    )


@pytest.fixture(scope="module")
def protocol_reports(protocol_catalog):
    reports = {}
    for name in (
        "game-biclique",
        "game-clique",
        "game-relaxed-clique",
        "game-edge-biclique",
    ):
        reports[name] = run_suite(name, protocol_catalog, GameConfig())
    return reports


def test_5_protocol_correctness(protocol_catalog, protocol_reports):
    assert max(g.n for g in protocol_catalog) <= 7
    plays = 0
    for name, report in protocol_reports.items():
        assert report.passed, (name, report.failures[:3])
        plays += report.inputs_tested
    _report(
        "5 protocol correctness",
        f"{len(protocol_catalog)} graphs, {plays} plays across 4 game kinds, "
        "agreement and goal predicate refereed on every valid input",
    )


def _complement_connected(g: Graph) -> bool:
    full = g.full_mask
    seen = 1
    frontier = [0]
    while frontier:
        v = frontier.pop()
        reach = ~g.adj[v] & full & ~(1 << v) & ~seen
        while reach:
            low = reach & -reach
            seen |= low
            frontier.append(low.bit_length() - 1)
            reach ^= low
    return seen == full


def test_6_bit_bounds(protocol_reports):
    # exhaustive part: every refereed play stayed within its graph's bound
    # (a violation would have been recorded as a bits-exceed-bound failure)
    for name, report in protocol_reports.items():
        assert report.passed
        assert report.max_bits_observed <= report.bound, name

    # large-n part: random graphs, sort builder, measured circuit depth d(n)
    details = []
    for n in (8, 16, 32, 64):
        rng = random.Random(f"acceptance-6:{n}")
        g, _ = strip_stars(random_graph(n, 0.5, rng))
        # spanning biclique exists iff the complement is disconnected, so a
        # connected complement makes every full bipartition a valid input
        assert _complement_connected(g)
        cfg = GameConfig()
        bound = bit_bound(BICLIQUE, g, cfg)
        width = size_field_width(g.n)
        depth = bound - width
        log = (1 << (g.n - 1).bit_length()).bit_length() - 1
        assert depth <= log * (log + 1) // 2 + log, (n, depth)
        worst = 0
        for trial in range(5):
            a = {v for v in range(g.n) if rng.random() < 0.5}
            if not a or len(a) == g.n:
                continue
            b = set(range(g.n)) - a
            out = play(BICLIQUE, g, a, b, cfg)
            worst = max(worst, out.transcript.total_bits)
            assert out.transcript.total_bits <= bound
            assert out.transcript.total_bits <= 2 + width + depth
            assert out.promise_verified == (g.n <= cfg.oracle_limit)
        details.append(f"n={g.n}: d={depth}, worst={worst}, bound={bound}")
    _report("6 bit bounds", "; ".join(details))


def test_7_oracle_cross_checks(small_catalog, random_67, protocol_catalog):
    checked = 0
    samples = list(small_catalog)
    rng_graphs = []
    for n in range(6, 11):
        rng_graphs += catalog_random(n, 0.5, 6, seed=600 + n)
    for g in samples + rng_graphs:
        assert max_clique_size(g) == brute_max_clique(g), g.edges
        assert max_biclique_size(g) == brute_max_biclique(g), g.edges
        assert max_edge_biclique(g) == brute_max_edge_biclique(g), g.edges
        assert maximal_cliques(g) == brute_maximal_cliques(g), g.edges
        checked += 1
    ordered = 0
    for g in samples + rng_graphs + random_67 + protocol_catalog:
        assert max_clique_size(g) <= max_biclique_size(g), g.edges
        ordered += 1
    _report(
        "7 oracle cross-checks",
        f"4 oracles vs subset enumeration on {checked} graphs (n <= 10), "
        f"clique <= biclique on {ordered} catalog graphs",
    )


def test_8_transcript_determinism():
    cases = [
        (BICLIQUE, catalog_named(5)[0], {0, 1}, {2, 3}),
        (CLIQUE, catalog_named(6)[2], {0, 1}, {3}),
        (RELAXED_CLIQUE, catalog_named(6)[2], {0, 1}, {3}),
        (EDGE_BICLIQUE, catalog_named(5)[0], {0, 1}, {2, 3}),
    ]
    for kind, g, a, b in cases:
        dumps = []
        for _ in range(2):
            cfg = GameConfig(seed=7)
            out = play(kind, g, a, b, cfg)
            dumps.append(json.dumps(out.to_json_obj(), indent=2, sort_keys=True))
        assert dumps[0] == dumps[1], kind.name
    _report(
        "8 transcript determinism",
        f"{len(cases)} games byte-identical across fresh runs",
    )
