import dataclasses
import itertools
import json
import random

import pytest

from brute import brute_contains_k_clique
from cliquegames import harness
from cliquegames.circuit import AND, CONST, Circuit
from cliquegames.games import (
    BICLIQUE,
    CLIQUE,
    EDGE_BICLIQUE,
    RELAXED_CLIQUE,
    GameConfig,
    incidence_vector,
    legal_answer,
    non_incidence_vector,
    play,
    promise_bound,
    promise_size,
    relaxed_non_incidence_vector,
)
from cliquegames.graph import OracleLimitError, graph_from_edges, nonedges
from cliquegames.harness import (
    SUITE_NAMES,
    SuiteReport,
    all_labeled_graphs,
    catalog_all_graphs,
    catalog_named,
    catalog_random,
    complete_bipartite_graph,
    cycle_graph,
    enumerate_valid_inputs,
    path_graph,
    random_graph,
    run_suite,
    worst_case_bits,
)


class TestCatalogs:
    def test_labeled_count(self):
        assert sum(1 for _ in all_labeled_graphs(4)) == 64
        assert sum(1 for _ in all_labeled_graphs(3)) == 8

    def test_catalog_star_free_and_nontrivial(self):
        for g in catalog_all_graphs(5):
            assert g.n >= 2
            assert all(g.degree(v) < g.n - 1 for v in range(g.n))

    def test_random_catalog_deterministic(self):
        a = catalog_random(7, 0.5, 20, seed=9)
        b = catalog_random(7, 0.5, 20, seed=9)
        assert [g.edges for g in a] == [g.edges for g in b]
        c = catalog_random(7, 0.5, 20, seed=10)
        assert [g.edges for g in a] != [g.edges for g in c]

    def test_named_catalog_contains_cycle(self):
        cats = catalog_named(7)
        assert any(g.edges == cycle_graph(5).edges and g.n == 5 for g in cats)


class TestEnumerateValidInputs:
    def test_p4_biclique(self):
        p4 = path_graph(4)
        inputs = enumerate_valid_inputs(p4, BICLIQUE)
        pairs = {(tuple(sorted(vi.a)), tuple(sorted(vi.b))) for vi in inputs}
        assert ((0, 1), (2, 3)) in pairs
        assert all(len(vi.a) + len(vi.b) >= 4 for vi in inputs)
        assert all(vi.a and vi.b and not vi.a & vi.b for vi in inputs)

    def test_c5_clique_tags(self):
        c5 = cycle_graph(5)
        inputs = {
            (tuple(sorted(vi.a)), tuple(sorted(vi.b))): vi.both_cliques
            for vi in enumerate_valid_inputs(c5, CLIQUE)
        }
        assert inputs[((0, 1), (3,))] is True
        assert inputs[((0, 2), (4,))] is False

    def test_edgeless_pair(self):
        # with the degenerate single-vertex biclique counting as size 1,
        # only singleton-vs-singleton inputs qualify (either orientation)
        g = graph_from_edges(2, [])
        inputs = enumerate_valid_inputs(g, BICLIQUE)
        assert [(sorted(vi.a), sorted(vi.b)) for vi in inputs] == [([0], [1]), ([1], [0])]

    def test_oracle_limit(self):
        with pytest.raises(OracleLimitError):
            enumerate_valid_inputs(path_graph(8), BICLIQUE, GameConfig(oracle_limit=7))

    def test_every_enumerated_input_plays(self):
        g = cycle_graph(5)
        cfg = GameConfig()
        for kind in (BICLIQUE, CLIQUE, RELAXED_CLIQUE, EDGE_BICLIQUE):
            for vi in enumerate_valid_inputs(g, kind, cfg):
                out = play(kind, g, vi.a, vi.b, cfg)
                assert legal_answer(kind, g, vi.a, vi.b, out.nonedge)


class TestSuites:
    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_small_catalog_passes(self, name):
        report = run_suite(name, catalog_all_graphs(4))
        assert report.passed, report.failures[:3]
        assert report.graphs_tested > 0 and report.inputs_tested > 0

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("nope", [])

    def test_report_json(self):
        report = run_suite("induced-clique", [path_graph(4)])
        obj = json.loads(report.to_json())
        assert obj["suite"] == "induced-clique"
        assert obj["passed"] is True
        assert obj["failures"] == []
        assert obj["graphs_tested"] == 1

    def test_game_suite_tracks_bits(self):
        report = run_suite("game-biclique", [path_graph(4)])
        assert report.max_bits_observed == 7
        assert report.bound == 7

    def test_bipartite_graphs_skipped_by_clique_suites(self):
        bip = complete_bipartite_graph(2, 2, declared=True)
        report = run_suite("game-clique", [bip])
        assert report.graphs_tested == 0

    def test_every_suite_records_on_a_bipartite_graph(self):
        # the clique-style suites skip it, as their games are undefined there
        g = graph_from_edges(5, [(0, 3), (1, 3), (1, 4), (2, 4)], bipartition=({0, 1, 2}, {3, 4}))
        skipped = {"clique-separation", "relaxed-separation", "game-clique", "game-relaxed-clique"}
        for name in SUITE_NAMES:
            report = run_suite(name, [g])
            assert report.passed, (name, report.failures[:3])
            assert report.graphs_tested == (0 if name in skipped else 1), name

    def test_caller_config_keeps_no_circuits(self):
        # a config holds its two settings and nothing else, and cannot take a network
        cfg = GameConfig(seed=5)
        for name in SUITE_NAMES:
            run_suite(name, catalog_all_graphs(3), cfg)
        assert vars(cfg) == {"seed": 5, "oracle_limit": 16}
        with pytest.raises(dataclasses.FrozenInstanceError):
            cfg.circuit_cache = {}

    def test_failures_carry_reproduction_data(self):
        # force a failure by lying about the edge bound via a monkeypatched
        # kind; simpler: check the failure record structure via a contrived
        # suite over an impossible bound is not reachable, so instead verify
        # the record fields on a healthy run are absent and the report
        # invariant failures == [] <=> passed holds
        report = run_suite("game-clique", [cycle_graph(5)])
        assert report.passed == (not report.failures)


def _members(m):
    return [v for v in range(m.bit_length()) if m >> v & 1]


def _constant(g, bit):
    return Circuit(((CONST, bit),), 0, len(nonedges(g).pairs))


class TestCliqueNumbers:
    """The induced-clique suite's reference table against brute force."""

    @pytest.mark.parametrize(
        "graphs",
        [
            pytest.param(lambda: catalog_all_graphs(5), id="catalog-n5"),
            pytest.param(lambda: [random_graph(n, 0.5, random.Random(s)) for n in (7, 8) for s in range(3)], id="gnp-7-8"),
        ],
    )
    def test_table_matches_brute_force(self, graphs):
        for g in graphs():
            omega = harness._clique_numbers(g)
            assert len(omega) == 1 << g.n
            for m, w in enumerate(omega):
                members = _members(m)
                for k in range(1, g.n + 1):
                    assert (w >= k) == brute_contains_k_clique(g, members, k), (sorted(g.edges), m, k)

    def test_a_wrong_round_is_recorded_row_by_row(self, monkeypatch):
        # round k asks for round k + 1's circuit, which misses every set whose
        # largest clique has exactly k vertices
        original = harness.induced_clique_circuit

        def next_round(g, k):
            return original(g, k + 1) if k < g.n else Circuit(((CONST, 0),), 0, g.n)

        monkeypatch.setattr(harness, "induced_clique_circuit", next_round)
        graphs = [cycle_graph(5), path_graph(4), graph_from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])]
        report = run_suite("induced-clique", graphs)
        want = []
        for g in graphs:
            for k in range(1, g.n + 1):
                for m in range(1 << g.n):
                    members = _members(m)
                    if brute_contains_k_clique(g, members, k) and not brute_contains_k_clique(g, members, k + 1):
                        want.append(
                            {
                                "graph": {"n": g.n, "edges": sorted(g.edges)},
                                "k": k,
                                "side": "truth-table",
                                "set": members,
                                "expected": 1,
                                "got": 0,
                            }
                        )
        assert want
        assert [f for f in report.failures if f["side"] == "truth-table"] == want
        assert report.inputs_tested == sum(g.n << g.n for g in graphs)

    def test_depth_cap_counts_only_the_cliques_round_k_joins(self, monkeypatch):
        # a triangle with a pendant edge: round 3 joins one of the two maximal
        # cliques, so its cap has no OR level, and one gate more is recorded
        original = harness.induced_clique_circuit
        g = graph_from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        cap = original(g, 3).depth

        def deeper(g, k):
            c = original(g, k)
            if k != 3:
                return c
            return Circuit(c.gates + ((AND, c.output, c.output),), len(c.gates), c.var_count)

        monkeypatch.setattr(harness, "induced_clique_circuit", deeper)
        report = run_suite("induced-clique", [g])
        assert report.failures == [
            {"graph": {"n": 4, "edges": sorted(g.edges)}, "k": 3, "side": "depth", "expected": cap, "got": cap + 1}
        ]

    @pytest.mark.parametrize(
        "suite, g",
        [
            pytest.param("incidence-separation", cycle_graph(5), id="incidence-separation"),
            pytest.param("clique-separation", cycle_graph(5), id="clique-separation"),
            pytest.param("relaxed-separation", cycle_graph(5), id="relaxed-separation"),
            # Bob's part has 3 vertices, never more than the bound of 5 less k
            pytest.param("incidence-separation", complete_bipartite_graph(2, 3, declared=True), id="incidence-bipartite"),
        ],
    )
    def test_a_separation_round_that_misses_is_recorded_case_by_case(self, monkeypatch, suite, g):
        # rounds 1 and 3 accept everything and rounds 2 and 4 reject
        # everything: every Alice set of 2 or 4 and every Bob set that meets
        # the promise with 1 or 3 is recorded, in the order the suite lists
        # the sets.  A round where the failing side has no case (a clique of
        # 4 in C5, any Bob set on K2,3) records and counts nothing.
        original = harness.game_circuit
        patched = {1: 1, 2: 0, 3: 1, 4: 0}

        def broken(g, idx, kind, k, cfg):
            return _constant(g, patched[k]) if k in patched else original(g, idx, kind, k, cfg)

        healthy = run_suite(suite, [g])
        monkeypatch.setattr(harness, "game_circuit", broken)
        report = run_suite(suite, [g])
        kind = {"incidence-separation": BICLIQUE, "clique-separation": CLIQUE, "relaxed-separation": RELAXED_CLIQUE}[suite]
        bound = promise_bound(kind, g)
        parts = [sorted(p) for p in g.bipartition] if g.bipartition else [range(g.n)] * 2
        alice, bob = ([c for r in range(1, len(p) + 1) for c in itertools.combinations(p, r)] for p in parts)
        if suite != "incidence-separation":
            bob = [c for c in bob if g.is_clique(c)]
        if suite == "clique-separation":
            # Bob may hold the empty clique in the clique game
            alice, bob = [c for c in alice if g.is_clique(c)], [()] + bob
        accepts = {k: [s for s in alice if len(s) == k] for k in range(1, len(parts[0]) + 1)}
        rejects = {k: [s for s in bob if promise_size(kind, k, len(s)) > bound] for k in accepts}
        graph = {"n": g.n, "edges": sorted(g.edges)}
        want = []
        for k in sorted(set(patched) & set(accepts)):
            side, expected, sets = ("accepts", 1, accepts[k]) if patched[k] == 0 else ("rejects", 0, rejects[k])
            want += [{"graph": graph, "k": k, "side": side, "set": list(s), "expected": expected, "got": 1 - expected} for s in sets]
        assert report.failures == want
        assert healthy.passed
        assert healthy.inputs_tested == report.inputs_tested == sum(len(accepts[k]) + len(rejects[k]) for k in accepts)
        if suite == "clique-separation":
            assert not accepts[4] and not [f for f in want if f["k"] == 4]
        if g.bipartition is not None:
            assert not any(rejects.values()) and not [f for f in want if f["side"] == "rejects"]


class TestSeparationLanes:
    """The separator suites' byte-lane columns and clique lists against the public references."""

    def test_all_cliques_matches_subset_testing(self):
        graphs = catalog_all_graphs(5) + [
            random_graph(n, p, random.Random(f"{n}:{p}:{s}")) for n in range(6, 10) for p in (0.3, 0.5, 0.7) for s in range(4)
        ]
        for g in graphs:
            want = [()] + [c for r in range(1, g.n + 1) for c in itertools.combinations(range(g.n), r) if g.is_clique(c)]
            assert harness._all_cliques(g) == want, sorted(g.edges)

    @pytest.mark.parametrize("n", [0, 1, 5, 8, 9, 16])
    def test_vertex_lanes_hold_each_mask_bit(self, n):
        rng = random.Random(n)
        for cases in (0, 1, 7, 64, 300):
            masks = [rng.getrandbits(n) for _ in range(cases)]
            lanes = harness._lanes(masks, n)
            assert len(lanes) == n
            for v, column in enumerate(lanes):
                assert column == sum((m >> v & 1) << 8 * j for j, m in enumerate(masks)), (cases, v)

    def test_lanes_read_back_as_the_vector_makers(self):
        declared = [
            complete_bipartite_graph(2, 2, declared=True),
            complete_bipartite_graph(2, 3, declared=True),
            graph_from_edges(5, [(0, 3), (1, 3), (1, 4), (2, 4)], bipartition=({0, 1, 2}, {3, 4})),
        ]
        makers = {
            "alice": incidence_vector,
            "bob": non_incidence_vector,
            "relaxed": lambda idx, s: relaxed_non_incidence_vector(g, idx, s),
        }
        for g in catalog_all_graphs(5) + declared:
            idx = nonedges(g)
            for side, maker in makers.items():
                if side == "relaxed" and g.bipartition is not None:
                    continue
                masks = list(range(side == "relaxed", 1 << g.n))
                columns, ones = harness._case_columns(g, idx.pairs, masks, side)
                assert ones == int.from_bytes(b"\x01" * len(masks), "little")
                for j, m in enumerate(masks):
                    lanes = tuple(c >> 8 * j & 0xFF for c in columns)
                    assert lanes == maker(idx, _members(m)), (sorted(g.edges), side, m)


class TestWorstCaseBits:
    def test_p4_biclique_golden(self):
        bits, witness = worst_case_bits(path_graph(4), BICLIQUE)
        assert bits == 7
        assert witness.a and witness.b

    def test_matches_exhaustive_replay(self):
        g = cycle_graph(5)
        cfg = GameConfig()
        bits, _ = worst_case_bits(g, BICLIQUE, cfg)
        replayed = max(
            play(BICLIQUE, g, vi.a, vi.b, cfg).transcript.total_bits
            for vi in enumerate_valid_inputs(g, BICLIQUE, cfg)
        )
        assert bits == replayed

    def test_shortcut_only_graph(self):
        # on an edgeless pair the biclique game is a single-variable circuit
        g = graph_from_edges(2, [])
        bits, witness = worst_case_bits(g, BICLIQUE)
        assert bits == 3
        assert (sorted(witness.a), sorted(witness.b)) == ([0], [1])

    def test_no_valid_inputs(self):
        g = complete_bipartite_graph(2, 2, declared=True)
        with pytest.raises(ValueError, match="no valid inputs"):
            worst_case_bits(g, BICLIQUE)

    def test_deterministic_outcomes_across_runs(self):
        g = cycle_graph(5)
        runs = []
        for _ in range(2):
            cfg = GameConfig(seed=3)
            outs = [
                play(CLIQUE, g, vi.a, vi.b, cfg).to_json_obj()
                for vi in enumerate_valid_inputs(g, CLIQUE, cfg)[:40]
            ]
            runs.append(json.dumps(outs, sort_keys=True))
        assert runs[0] == runs[1]
