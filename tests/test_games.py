import dataclasses
import itertools
import json
import random
from bisect import bisect_right

import pytest

import cliquegames.games as games_module
from cliquegames.circuit import (
    CONST,
    VAR,
    Circuit,
    CircuitBuilder,
    CircuitInvariantError,
    build_threshold_sort,
    evaluate,
    extract,
    node_values,
    serialize_circuit,
    threshold_network,
)
from cliquegames.games import (
    BICLIQUE,
    CLIQUE,
    EDGE_BICLIQUE,
    RELAXED_CLIQUE,
    GameConfig,
    GameKind,
    PromiseViolationError,
    SeparationError,
    Transcript,
    TranscriptEntry,
    bit_bound,
    find_separating_variable,
    game_circuit,
    incidence_vector,
    induced_clique_circuit,
    kind_from_name,
    legal_answer,
    monomial_clique_circuit,
    monomial_threshold_circuit,
    non_incidence_vector,
    play,
    relaxed_non_incidence_vector,
    replay_transcript,
    size_field_width,
    vertex_field_width,
)
from cliquegames.games import (
    _Channel,
    _decode_pair,
    _encode_pair,
    monomial_universe,
)
from cliquegames.graph import graph_from_edges, max_clique_size, nonedges, parse_graph, strip_stars
from cliquegames.harness import (
    catalog_all_graphs,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    enumerate_valid_inputs,
    path_graph,
    random_graph,
    run_suite,
)

from brute import (
    brute_gamma,
    brute_party_vector,
    brute_separator_value,
    full_vector_parties,
    reference_game_circuit,
    reference_ones,
    reference_play,
    reference_values,
)


@pytest.fixture
def p4():
    return path_graph(4)


@pytest.fixture
def c5():
    return cycle_graph(5)


class TestVectors:
    def test_incidence_p4(self, p4):
        idx = nonedges(p4)
        assert incidence_vector(idx, {0}) == (1, 1, 0)
        assert incidence_vector(idx, {0, 1}) == (1, 1, 1)
        assert incidence_vector(idx, set()) == (0, 0, 0)

    def test_non_incidence(self, p4, c5):
        assert non_incidence_vector(nonedges(p4), {3}) == (1, 0, 0)
        assert non_incidence_vector(nonedges(p4), set()) == (1, 1, 1)
        assert non_incidence_vector(nonedges(c5), {0}) == (0, 0, 1, 1, 1)

    def test_relaxed_examples(self, p4, c5):
        assert relaxed_non_incidence_vector(c5, nonedges(c5), {0}) == (0, 0, 1, 0, 1)
        assert relaxed_non_incidence_vector(p4, nonedges(p4), {3}) == (1, 0, 0)

    def test_relaxed_pointwise_below_plain(self):
        rng = random.Random(2)
        for _ in range(40):
            g = random_graph(6, 0.5, rng)
            idx = nonedges(g)
            b = {v for v in range(6) if rng.random() < 0.4}
            if not b:
                continue
            plain = non_incidence_vector(idx, b)
            relaxed = relaxed_non_incidence_vector(g, idx, b)
            assert all(r <= q for r, q in zip(relaxed, plain))

    def test_relaxed_equals_plain_when_gamma_spans_nothing(self, p4):
        # common neighborhood of {3} is {2}: a single vertex spans no nonedge
        idx = nonedges(p4)
        assert relaxed_non_incidence_vector(p4, idx, {3}) == non_incidence_vector(idx, {3})


class TestSeparatorCircuits:
    def test_p4_monomials(self, p4):
        idx = nonedges(p4)
        circ = monomial_threshold_circuit(p4, idx, 2)
        assert evaluate(circ, incidence_vector(idx, {0, 1})) == 1
        assert evaluate(circ, non_incidence_vector(idx, {2, 3})) == 0

    def test_k1_is_disjunction(self, p4):
        idx = nonedges(p4)
        circ = monomial_threshold_circuit(p4, idx, 1)
        assert evaluate(circ, (1, 1, 1)) == 1
        assert evaluate(circ, (0, 0, 0)) == 0

    def test_threshold_circuit_matches_brute_definition(self):
        # full truth-table agreement with the OR-over-k-subsets definition
        for g in [path_graph(4), cycle_graph(5), graph_from_edges(4, [])]:
            idx = nonedges(g)
            from cliquegames.games import monomial_universe

            for k in range(1, len(monomial_universe(g)) + 1):
                circ = monomial_threshold_circuit(g, idx, k)
                for m in range(1 << len(idx)):
                    bits = tuple(m >> i & 1 for i in range(len(idx)))
                    assert evaluate(circ, bits) == brute_separator_value(
                        g, idx, k, bits, clique_only=False
                    ), (g.edges, k, bits)

    def test_clique_circuit_matches_brute_definition(self):
        for g in [path_graph(4), cycle_graph(5), cycle_graph(4)]:
            idx = nonedges(g)
            for k in range(1, g.n + 1):
                circ = monomial_clique_circuit(g, idx, k)
                for m in range(1 << len(idx)):
                    bits = tuple(m >> i & 1 for i in range(len(idx)))
                    assert evaluate(circ, bits) == brute_separator_value(
                        g, idx, k, bits, clique_only=True
                    ), (g.edges, k, bits)

    def test_bipartite_monomials_over_first_part(self):
        g = graph_from_edges(
            5, [(0, 3), (1, 3), (1, 4), (2, 4)], bipartition=({0, 1, 2}, {3, 4})
        )
        idx = nonedges(g)
        for k in (1, 2, 3):
            circ = monomial_threshold_circuit(g, idx, k)
            for m in range(1 << len(idx)):
                bits = tuple(m >> i & 1 for i in range(len(idx)))
                assert evaluate(circ, bits) == brute_separator_value(
                    g, idx, k, bits, clique_only=False
                )

    def test_clique_circuit_example(self, c5):
        idx = nonedges(c5)
        circ = monomial_clique_circuit(c5, idx, 2)
        assert evaluate(circ, incidence_vector(idx, {0, 1})) == 1
        assert evaluate(circ, non_incidence_vector(idx, {3})) == 0

    def test_no_k_clique_gives_constant_zero(self, c5):
        idx = nonedges(c5)
        circ = monomial_clique_circuit(c5, idx, 3)
        assert circ.size == 0
        assert evaluate(circ, (1,) * len(idx)) == 0

    def test_rejects_starred_graph(self):
        star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        with pytest.raises(ValueError, match="strip"):
            monomial_threshold_circuit(star, nonedges(star), 1)

    def test_clique_circuit_rejects_bipartite_graph(self):
        g = graph_from_edges(
            5, [(0, 3), (1, 3), (1, 4), (2, 4)], bipartition=({0, 1, 2}, {3, 4})
        )
        with pytest.raises(ValueError, match="full nonedge space"):
            monomial_clique_circuit(g, nonedges(g), 2)


def _moon_moser(t):
    """K_{3,...,3} with t parts: 3^t maximal cliques, every one of size t."""
    n = 3 * t
    return graph_from_edges(n, [(u, v) for u, v in itertools.combinations(range(n), 2) if u // 3 != v // 3])


def _assert_matches_reference(g, cfg):
    idx = nonedges(g)
    for kind in (BICLIQUE, CLIQUE):
        family = "clique" if kind == CLIQUE else "threshold"
        for k in range(1, g.n + 1):
            try:
                ref = reference_game_circuit(g, idx, family, k, build_threshold_sort)
                want = serialize_circuit(ref)
            except ValueError:
                with pytest.raises(ValueError):
                    game_circuit(g, idx, kind, k, cfg)
                continue
            got = serialize_circuit(game_circuit(g, idx, kind, k, cfg))
            assert got == want, (g.n, sorted(g.edges), kind.name, k)
            # a play walks the same gates, read by id from round k's root
            net = games_module._network(g, family)
            walked = serialize_circuit(extract(net.walk(k), net.output(k), len(idx)))
            assert walked == want, (g.n, sorted(g.edges), kind.name, k)


class TestSharedNetwork:
    """Game circuits come from one builder per (graph, family); each k's
    circuit must still be gate-for-gate the per-k construction."""

    def test_matches_per_k_reference_on_catalog(self):
        for g in catalog_all_graphs(5):
            _assert_matches_reference(g, GameConfig())

    @pytest.mark.parametrize("n", [16, 32])
    def test_matches_per_k_reference_on_random_graphs(self, n):
        g, _ = strip_stars(random_graph(n, 0.5, random.Random(n)))
        _assert_matches_reference(g, GameConfig())

    @pytest.mark.parametrize("t", [2, 3, 4])
    def test_matches_per_k_reference_on_moon_moser_graphs(self, t):
        _assert_matches_reference(_moon_moser(t), GameConfig())

    def test_matches_per_k_reference_on_bipartite_graph(self):
        # vertex 1 is adjacent to the whole second part: a constant-1 monomial
        g = graph_from_edges(
            5, [(0, 3), (1, 3), (1, 4), (2, 4)], bipartition=({0, 1, 2}, {3, 4})
        )
        _assert_matches_reference(g, GameConfig())
        with pytest.raises(ValueError, match="full nonedge space"):
            game_circuit(g, nonedges(g), CLIQUE, 1, GameConfig())

    def test_each_monomial_built_once(self, monkeypatch):
        g, _ = strip_stars(random_graph(32, 0.5, random.Random(32)))
        calls = []
        and_tree = CircuitBuilder.and_tree

        def counting(self, nodes):
            calls.append(len(nodes))
            return and_tree(self, nodes)

        monkeypatch.setattr(CircuitBuilder, "and_tree", counting)
        cfg = GameConfig()
        bit_bound(BICLIQUE, g, cfg)
        assert len(calls) == len(monomial_universe(g))
        bit_bound(CLIQUE, g, cfg)
        assert len(calls) == len(monomial_universe(g)) + g.n

    def test_network_keeps_no_circuits(self):
        # each k's circuit is assembled on demand; the network holds only
        # its one validated array of stored gates, whatever was asked of it
        # before, and no builder
        g, _ = strip_stars(random_graph(32, 0.5, random.Random(32)))
        idx = nonedges(g)
        cfg = GameConfig()
        for kind in (BICLIQUE, CLIQUE):
            bit_bound(kind, g, cfg)
            for k in range(1, g.n + 1):
                game_circuit(g, idx, kind, k, cfg)
        assert games_module._network.cache_info().currsize == 2
        nets = [games_module._network(g, family) for family in ("threshold", "clique")]
        for net in nets:
            assert not any(isinstance(v, CircuitBuilder) for v in vars(net).values())
            held = [v for v in vars(net).values() if isinstance(v, Circuit)]
            assert held == [net.array] and len(net.array.gates) == len(net.gates)
            for v in vars(net).values():
                if isinstance(v, (dict, list, tuple)):
                    items = v.values() if isinstance(v, dict) else v
                    assert not any(isinstance(x, Circuit) for x in items)

    def test_clique_network_holds_no_graft_gate(self):
        # a whole-array network held 67,203 gates for this graph: its prefix,
        # a copy of a sorting network per maximal clique and every k's OR tree
        g, _ = strip_stars(random_graph(64, 0.5, random.Random(64)))
        cfg = GameConfig()
        bit_bound(CLIQUE, g, cfg)
        net = games_module._network(g, "clique")
        assert len(net.gates) == net.lead and not net._walks
        for a, b in _random_inputs(g, random.Random(9), 12, cliques=True):
            _outcome_or_error(lambda: play(CLIQUE, g, a, b, cfg))
        rounds = sorted(net._walks)
        assert len(rounds) >= 2
        trees = [len(net.walk(k).tree) for k in rounds]
        assert trees == [sum(len(graft.slots) >= k for graft in net.grafts) - 1 for k in rounds]
        assert all(gate[0] == "OR" for k in rounds for gate in net.walk(k).tree)
        # with every round's tree built it would still be under a third of it
        assert len(net.gates) + sum(trees) < 67_203 // 3

    def test_equal_graphs_share_one_cache_entry(self):
        # the same P4 from the parser, from an edge list and from stripping a
        # star off P4 + one vertex: the memo holds one network for all three
        stripped, _ = strip_stars(
            graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)])
        )
        parsed = parse_graph("p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n")
        copies = [parsed, graph_from_edges(4, [(0, 1), (2, 1), (3, 2)]), stripped]
        cfg = GameConfig()
        outcomes = [play(BICLIQUE, g, {0, 1}, {2, 3}, cfg).to_json_obj() for g in copies]
        assert outcomes[0] == outcomes[1] == outcomes[2]
        info = games_module._network.cache_info()
        assert (info.misses, info.currsize) == (1, 1)
        net = games_module._network(stripped, "threshold")
        assert all(games_module._network(g, "threshold") is net for g in copies)
        # one entry per family: the clique family adds one more, whichever copy asks
        assert len({bit_bound(CLIQUE, g, cfg) for g in copies}) == 1
        info = games_module._network.cache_info()
        assert (info.misses, info.currsize) == (2, 2)


class TestNetworkMemo:
    """Every separator network comes from one bounded memo keyed on (graph,
    family): it never holds more than its bound, and traffic that fits in
    it builds each network once."""

    def test_stays_within_its_bound(self):
        graphs = catalog_all_graphs(4)
        bound = games_module._network.cache_info().maxsize
        assert len(graphs) > bound
        cfg = GameConfig()
        for g in graphs:
            bit_bound(BICLIQUE, g, cfg)
            for vi in enumerate_valid_inputs(g, BICLIQUE, cfg)[:3]:
                play(BICLIQUE, g, vi.a, vi.b, cfg)
            assert games_module._network.cache_info().currsize <= bound
        info = games_module._network.cache_info()
        assert (info.misses, info.currsize) == (len(graphs), bound)

    def test_five_interleaved_networks_are_built_once(self):
        # five (graph, family) networks, interleaved round after round
        graphs = [strip_stars(random_graph(7, 0.5, random.Random(seed)))[0] for seed in (1, 2, 3)]
        jobs = [(g, kind) for g in graphs for kind in (BICLIQUE, CLIQUE)][:5]
        cfg = GameConfig()
        inputs = [_walk_inputs(g, kind, cfg) for g, kind in jobs]
        for r in range(4):
            for (g, kind), pairs in zip(jobs, inputs):
                a, b = pairs[r]
                out = play(kind, g, a, b, cfg)
                assert out.transcript.total_bits <= bit_bound(kind, g, cfg)
                assert replay_transcript(g, kind, out.transcript, cfg) == out.nonedge
        info = games_module._network.cache_info()
        assert (info.misses, info.currsize) == (5, 5) and info.hits > 5


def _outcome_or_error(run):
    try:
        return run().to_json_obj()
    except (ValueError, RuntimeError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _random_inputs(g, rng, count, cliques):
    """Seeded disjoint pairs; with ``cliques``, greedy cliques that reach the walk."""
    pairs = []
    for _ in range(count):
        order = list(range(g.n))
        rng.shuffle(order)
        if not cliques:
            cut, end = sorted(rng.sample(range(1, g.n + 1), 2))
            pairs.append((frozenset(order[:cut]), frozenset(order[cut:end])))
            continue
        sides = ([], [])
        for v in order:
            for side in sides:
                if all(g.adjacent(v, u) for u in side):
                    side.append(v)
                    break
        pairs.append(tuple(frozenset(side) for side in sides))
    return pairs


def _all_disjoint_pairs(n):
    for labels in itertools.product(range(3), repeat=n):
        yield (
            frozenset(v for v in range(n) if labels[v] == 1),
            frozenset(v for v in range(n) if labels[v] == 2),
        )


ALL_KINDS = (BICLIQUE, CLIQUE, RELAXED_CLIQUE, EDGE_BICLIQUE)


class TestTwoLayerEvaluation:
    """A party reads its slot roots off set masks, evaluates the gates above
    them in one pass and the monomial trees below only where the walk goes;
    ``brute.reference_play`` evaluates every node on the whole vector.  The
    two must agree on every outcome and every value read."""

    def _assert_same(self, kind, g, pairs, cfg):
        outcomes = []
        for a, b in pairs:
            got = _outcome_or_error(lambda: play(kind, g, a, b, cfg))
            want = _outcome_or_error(lambda: reference_play(kind, g, a, b, cfg))
            assert got == want, (kind.name, sorted(g.edges), sorted(a), sorted(b))
            outcomes.append(got)
        return outcomes

    def test_catalog_every_input_that_reaches_the_walk(self):
        # inputs a clique-style handshake settles never evaluate a node
        for g in catalog_all_graphs(5):
            for kind in ALL_KINDS:
                cfg = GameConfig()
                pairs = [
                    (vi.a, vi.b)
                    for vi in enumerate_valid_inputs(g, kind, cfg)
                    if vi.both_cliques or kind.crossing_goal
                ]
                got = [play(kind, g, a, b, cfg).to_json_obj() for a, b in pairs]
                with full_vector_parties():
                    want = [play(kind, g, a, b, cfg).to_json_obj() for a, b in pairs]
                assert got == want, (kind.name, sorted(g.edges))

    @pytest.mark.parametrize("kind", [BICLIQUE, CLIQUE], ids=lambda k: k.name)
    def test_random_graph_n32(self, kind):
        g, _ = strip_stars(random_graph(32, 0.5, random.Random(32)))
        pairs = _random_inputs(g, random.Random(5), 40, cliques=kind == CLIQUE)
        outcomes = self._assert_same(kind, g, pairs, GameConfig())
        # every input reaches the walk, so the comparison covers node values
        assert all(any(e["meaning"] == "descend" for e in out["entries"]) for out in outcomes)

    def test_bipartite_graph_with_constant_monomial(self):
        # vertex 1 is adjacent to the whole second part: a constant-1 monomial
        g = graph_from_edges(
            5, [(0, 3), (1, 3), (1, 4), (2, 4)], bipartition=({0, 1, 2}, {3, 4})
        )
        pairs = [(a, b) for a, b in _all_disjoint_pairs(5) if a <= {0, 1, 2} and b <= {3, 4}]
        for cfg in (GameConfig(), GameConfig(oracle_limit=0)):
            for kind in (BICLIQUE, GameKind("edge-biclique", 1)):
                self._assert_same(kind, g, pairs, cfg)

    def test_monomial_that_is_one_shared_variable(self):
        # nonedges (0, 1), (1, 2), (3, 4): the monomials of 3 and 4 are the
        # same VAR node, and the monomial of 0 is a leaf of the tree of 1
        missing = {(0, 1), (1, 2), (3, 4)}
        g = graph_from_edges(5, [p for p in itertools.combinations(range(5), 2) if p not in missing])
        cfg = GameConfig()
        bit_bound(BICLIQUE, g, cfg)
        net = games_module._network(g, "threshold")
        roots, gates = net.slot_nodes, net.gates
        assert roots[3] == roots[4] and gates[roots[3]][0] == "VAR"
        assert gates[roots[0]][0] == "VAR" and gates[roots[1]][0] == "AND"
        pairs = list(_all_disjoint_pairs(5))
        for cfg in (GameConfig(), GameConfig(oracle_limit=0)):
            for kind in (BICLIQUE, CLIQUE, RELAXED_CLIQUE, GameKind("edge-biclique", 2)):
                self._assert_same(kind, g, pairs, cfg)

    def test_every_value_read_matches_node_values(self, monkeypatch):
        two_layer = games_module._Party._value
        reads = []

        def checked(party, node):
            val = two_layer(party, node)
            ref = party.__dict__.get("ref_vals")
            if ref is None:
                vec = brute_party_vector(party.g, nonedges(party.g), party.kind.name, party.role, party.own)
                ref = party.ref_vals = reference_values(party.net, party.k, vec)
            assert val == ref[node], (party.role, party.kind.name, node)
            reads.append(node)
            return val

        monkeypatch.setattr(games_module._Party, "_value", checked)
        for g in catalog_all_graphs(4):
            for kind in ALL_KINDS:
                cfg = GameConfig()
                for vi in enumerate_valid_inputs(g, kind, cfg):
                    play(kind, g, vi.a, vi.b, cfg)
        for n in (32, 64):
            g, _ = strip_stars(random_graph(n, 0.5, random.Random(n)))
            for kind in (BICLIQUE, CLIQUE):
                cfg = GameConfig()
                for a, b in _random_inputs(g, random.Random(6), 20, cliques=kind == CLIQUE):
                    _outcome_or_error(lambda: play(kind, g, a, b, cfg))
        assert len(reads) > 10_000

    def test_play_builds_no_vector(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("play materialised a whole vector")

        vector_makers = ("incidence_vector", "non_incidence_vector", "relaxed_non_incidence_vector")
        for name in vector_makers + ("node_values",):
            monkeypatch.setattr(games_module, name, forbidden)
        g, _ = strip_stars(random_graph(32, 0.5, random.Random(32)))
        for kind in (BICLIQUE, CLIQUE, RELAXED_CLIQUE):
            cfg = GameConfig()
            for a, b in _random_inputs(g, random.Random(7), 10, cliques=kind != BICLIQUE):
                _outcome_or_error(lambda: play(kind, g, a, b, cfg))


def _walk_inputs(g, kind, cfg):
    # inputs a clique-style handshake settles never reach the circuit
    return [
        (vi.a, vi.b)
        for vi in enumerate_valid_inputs(g, kind, cfg)
        if vi.both_cliques or kind.crossing_goal
    ]


def _play_tables(g):
    """Per network family of ``g``: the rounds with a play table, and the graft widths with count rows."""
    tables = {}
    for family in ("threshold", "clique"):
        net = games_module._network(g, family)
        tables[family] = sorted(net._rounds), sorted(net._widths)
    return tables


class TestGraftSeeds:
    """A party seeds each graft root from the threshold count of its inputs
    and reads a graft's nodes from count rows; the first time the walk
    enters a graft it checks the graft's threshold-k row against that seed.
    The tables behind this exist only for plays."""

    def test_wrong_threshold_fails_loudly(self, monkeypatch):
        # round k reads every graft's threshold-(k + 1) node while the seeds count to k
        honest = threshold_network

        def shifted(s):
            network, thresholds = honest(s)
            return network, thresholds[1:] + thresholds[-1:]

        monkeypatch.setattr(games_module, "threshold_network", shifted)
        root_checks = 0
        for g in catalog_all_graphs(4):
            for kind in ALL_KINDS:
                cfg = GameConfig()
                for a, b in _walk_inputs(g, kind, cfg):
                    try:
                        out = play(kind, g, a, b, cfg)
                    except SeparationError:
                        continue
                    except CircuitInvariantError as exc:
                        root_checks += "threshold count" in str(exc)
                        continue
                    assert legal_answer(kind, g, a, b, out.nonedge), (kind.name, sorted(g.edges), a, b)
        assert root_checks > 0

    def test_every_graft_the_walk_enters_is_checked(self, monkeypatch):
        reads, checked = [], set()
        value, enter = games_module._Party._value, games_module._Party._enter

        def reading(party, node):
            reads.append((party, node))
            return value(party, node)

        def checking(party, j):
            checked.add((id(party), j))
            return enter(party, j)

        monkeypatch.setattr(games_module._Party, "_value", reading)
        monkeypatch.setattr(games_module._Party, "_enter", checking)
        for g in catalog_all_graphs(4):
            for kind in ALL_KINDS:
                cfg = GameConfig()
                for a, b in _walk_inputs(g, kind, cfg):
                    play(kind, g, a, b, cfg)
        # a read of a graft node, its seeded root included, must have run its check
        entered = {
            (id(party), bisect_right(party.net.graft_starts, node) - 1)
            for party, node in reads
            if party.net.lead <= node < party.tree_start
        }
        assert entered and entered <= checked

    def test_a_mutated_network_gate_raises_in_play(self, monkeypatch):
        # the sorting network with its first AND turned into an OR has no count rows
        honest = threshold_network

        def mutated(s):
            network, thresholds = honest(s)
            gates = list(network.gates)
            first = next(i for i, gate in enumerate(gates) if gate[0] == "AND")
            gates[first] = ("OR",) + gates[first][1:]
            return Circuit(tuple(gates), network.output, network.var_count), thresholds

        monkeypatch.setattr(games_module, "threshold_network", mutated)
        g, _ = strip_stars(random_graph(16, 0.5, random.Random(16)))
        a, b = frozenset(range(0, 16, 2)), frozenset(range(1, 16, 2))
        with pytest.raises(CircuitInvariantError, match="count threshold|neither its block"):
            play(BICLIQUE, g, a, b, GameConfig(oracle_limit=0))

    def test_a_wrong_group_column_trips_the_entry_check(self):
        # a group column that counts Alice's slots into a group they are not
        # in makes her hit that group; entering its graft must refute the hit
        g, _ = strip_stars(random_graph(16, 0.5, random.Random(16)))
        cliques = [c for c in games_module.maximal_cliques(g) if len(c) >= 3]
        a = frozenset(cliques[0][:3])
        alice = games_module._Party("A", g, a, CLIQUE)
        net = games_module._network(g, "clique")
        columns = net.slot_table().columns
        alice.prepare(3)
        groups = [j for j, graft in enumerate(net.grafts) if len(graft.slots) >= 3]
        missed = [j for j in groups if not alice.hits >> j & 1]
        assert missed
        j = missed[0]
        for s in a:
            columns[s] |= 1 << j
        alice.prepare(3)
        assert alice.hits >> j & 1
        start, end, _ = net.graft_reads(j)
        assert start < end
        with pytest.raises(CircuitInvariantError, match="threshold count"):
            alice._value(start)

    def test_graft_tables_are_play_only(self, monkeypatch):
        g, _ = strip_stars(random_graph(8, 0.5, random.Random(8)))
        idx = nonedges(g)
        cfg = GameConfig()
        empty = {"threshold": ([], []), "clique": ([], [])}
        for kind in (BICLIQUE, CLIQUE):
            bit_bound(kind, g, cfg)
            for k in range(1, g.n + 1):
                game_circuit(g, idx, kind, k, cfg)
        assert _play_tables(g) == empty

        def forbidden(net, *args):
            raise AssertionError("a circuit-only network built a play table")

        with monkeypatch.context() as m:
            for table in ("prefix_rows", "slot_table", "round", "graft_reads"):
                m.setattr(games_module.SeparatorNetwork, table, forbidden)
            m.setattr(games_module, "count_tables", forbidden)
            for suite in ("incidence-separation", "clique-separation", "relaxed-separation"):
                assert run_suite(suite, catalog_all_graphs(4)).passed

        # the reference evaluates every node itself and reads no table
        a, b = _walk_inputs(g, CLIQUE, GameConfig())[0]
        reference_play(CLIQUE, g, a, b, cfg)
        assert _play_tables(g) == empty
        # a play builds its own round's table, and count rows for the widths its walk enters
        play(CLIQUE, g, a, b, cfg)
        rounds, widths = _play_tables(g)["clique"]
        net = games_module._network(g, "clique")
        assert rounds == [len(a)] and widths
        assert set(widths) <= {len(graft.slots) for graft in net.grafts if len(graft.slots) >= len(a)}
        assert _play_tables(g)["threshold"] == ([], [])


class TestPrefixRows:
    """A party reads every node below the grafts from one (vertex bit,
    partner mask) row of its network; a prefix gate that is no AND of one
    vertex's nonedges has no row, and a slot tree missing one of them is no
    monomial: both fail loudly, whichever party asks."""

    @staticmethod
    def _mutate_vertex_0(monkeypatch, mutate):
        honest = games_module._vertex_monomials

        def mutated(b, g, pairs, vertices):
            monomials = honest(b, g, pairs, vertices)
            monomials[0] = mutate(b, pairs, monomials)
            return monomials

        monkeypatch.setattr(games_module, "_vertex_monomials", mutated)

    @staticmethod
    def _or_of_vertex_0(b, pairs, monomials):
        return b.or_tree([b.var(i) for i, pair in enumerate(pairs) if 0 in pair])

    @staticmethod
    def _vertex_0_and_vertex_3(b, pairs, monomials):
        return b.and_(monomials[0], monomials[3])

    @staticmethod
    def _one_nonedge_of_vertex_0(b, pairs, monomials):
        return b.var(pairs.index((0, 2)))

    # each mutation, and the error that names it
    _errors = {
        "_or_of_vertex_0": r"\(OR\) is not an AND of nonedges",
        "_vertex_0_and_vertex_3": "is a nonedge off vertex 0",
        "_one_nonedge_of_vertex_0": "is not the monomial of vertex 0",
    }

    @pytest.mark.parametrize("mutate", list(_errors))
    @pytest.mark.parametrize("role", ["A", "B"])
    def test_gate_without_a_row_fails_for_both_roles(self, p4, monkeypatch, mutate, role):
        # P4's nonedges (0, 2), (0, 3), (1, 3): vertex 0 has two, so its OR is a gate
        self._mutate_vertex_0(monkeypatch, getattr(self, mutate))
        error = self._errors[mutate]
        own = frozenset({0, 1} if role == "A" else {2, 3})
        party = games_module._Party(role, p4, own, BICLIQUE)
        with pytest.raises(CircuitInvariantError, match=f"prefix node [0-9]+ {error}"):
            party.prepare(2)
        with pytest.raises(CircuitInvariantError, match=f"prefix node [0-9]+ {error}"):
            play(BICLIQUE, p4, {0, 1}, {2, 3})

    def test_rows_are_the_monomials(self):
        # every prefix node's row names exactly the nonedges of the variables
        # under it, and a slot's row is its vertex's monomial
        graphs = catalog_all_graphs(5) + [
            graph_from_edges(5, [(0, 3), (1, 3), (1, 4), (2, 4)], bipartition=({0, 1, 2}, {3, 4}))
        ]
        for g in graphs:
            idx = nonedges(g)
            for family in ("threshold", "clique"):
                if family == "clique" and g.bipartition is not None:
                    continue
                net = games_module._network(g, family)
                rows = net.prefix_rows()
                assert len(rows) == net.lead

                def named(node):
                    bit, partners = rows[node]
                    v = bit.bit_length() - 1
                    return {frozenset((v, x)) for x in range(g.n) if partners >> x & 1}

                def under(node):
                    gate = net.gates[node]
                    if gate[0] == VAR:
                        return {frozenset(idx.pairs[gate[1]])}
                    return set() if gate[0] == CONST else under(gate[1]) | under(gate[2])

                for node in range(net.lead):
                    assert named(node) == under(node), (sorted(g.edges), family, node)
                universe = range(g.n) if family == "clique" else monomial_universe(g)
                for v, node in zip(universe, net.slot_nodes):
                    want = {frozenset(p) for p in idx.pairs if v in p}
                    assert named(node) == want, (sorted(g.edges), family, v)


# bipartite graphs of the tests: vertex 1 of the first is adjacent to the
# whole second part (a constant-1 slot); the last two are the CLI's files
BIPARTITE = (
    graph_from_edges(5, [(0, 3), (1, 3), (1, 4), (2, 4)], bipartition=({0, 1, 2}, {3, 4})),
    graph_from_edges(6, [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (2, 3), (2, 5)], bipartition=({0, 1, 2}, {3, 4, 5})),
    parse_graph("p edge 5 4\nb 3\ne 1 4\ne 2 4\ne 2 5\ne 3 5\n"),
    parse_graph("p edge 4 3\nb 2\ne 1 3\ne 1 4\ne 2 4\n"),
)


class TestSlotMasks:
    """``prepare`` works out which slots hold by mask algebra on the
    network's ``SlotTable``; one ``holds`` per slot on its prefix row
    (``brute.reference_ones``) must give the same slot mask, for both
    roles in all four games."""

    @staticmethod
    def _assert_same_slots(g, sets):
        checked = 0
        for kind in ALL_KINDS:
            if kind.undefined_on(g):
                continue
            for role in ("A", "B"):
                for own in sets:
                    gamma = ()
                    if role == "B" and kind == RELAXED_CLIQUE:
                        if not own:
                            continue  # Γ of the empty set is not defined
                        gamma = brute_gamma(g, own)
                    party = games_module._Party(role, g, own, kind)
                    party.prepare(1)
                    want = reference_ones(party.net, role, own, gamma)
                    assert party.ones == want, (sorted(g.edges), kind.name, role, sorted(own))
                    checked += 1
        return checked

    def test_every_set_on_the_catalog(self):
        for g in catalog_all_graphs(5):
            sets = [frozenset(c) for r in range(g.n + 1) for c in itertools.combinations(range(g.n), r)]
            assert self._assert_same_slots(g, sets)

    @pytest.mark.parametrize("g", BIPARTITE, ids=range(len(BIPARTITE)))
    def test_every_set_on_bipartite_graphs(self, g):
        sets = [frozenset(c) for r in range(g.n + 1) for c in itertools.combinations(range(g.n), r)]
        assert self._assert_same_slots(g, sets)
        assert games_module._network(g, "threshold").slot_table().spread is not None

    def test_constant_slot_holds_for_both_parties(self):
        g = BIPARTITE[0]
        net = games_module._network(g, "threshold")
        table = net.slot_table()
        assert table.constant == 1 << 1 and table.partners[1] == 0
        for role, own in (("A", {0}), ("B", {3, 4})):
            party = games_module._Party(role, g, frozenset(own), BICLIQUE)
            party.prepare(1)
            assert party.ones >> 1 & 1, role

    @pytest.mark.parametrize("n", [16, 64])
    def test_random_sets_on_random_graphs(self, n):
        g, _ = strip_stars(random_graph(n, 0.5, random.Random(n)))
        rng = random.Random(17)
        sets = [frozenset(rng.sample(range(g.n), rng.randint(0, g.n // 2))) for _ in range(200)]
        assert self._assert_same_slots(g, sets) == 8 * 200 - sum(not own for own in sets)


class TestRoundChecks:
    """``SeparatorNetwork.round`` reads round k's OR tree gate by gate: a
    gate that is no OR, a child that is no group, or two children whose
    runs of groups are not adjacent in group order raises."""

    @staticmethod
    def _round_with_pairing(monkeypatch, pairing, k=2):
        g, _ = strip_stars(random_graph(16, 0.5, random.Random(16)))
        bit_bound(CLIQUE, g)  # builds the network's prefix
        net = games_module._network(g, "clique")
        honest = games_module.balanced
        monkeypatch.setattr(games_module, "balanced", lambda op, nodes: honest(pairing(net, op), nodes))
        assert sum(len(graft.slots) >= k for graft in net.grafts) >= 4
        return net, k

    def test_honest_tree_gives_one_run_per_gate(self):
        g, _ = strip_stars(random_graph(16, 0.5, random.Random(16)))
        net = games_module._network(g, "clique")
        table = net.round(2)
        groups = [j for j, graft in enumerate(net.grafts) if len(graft.slots) >= 2]
        assert len(table.first) == len(net.walk(2).tree) == len(groups) - 1
        # the root covers every group of the round
        assert (table.first[-1], table.last[-1]) == (groups[0], groups[-1])

    @pytest.mark.parametrize("pairing", ["swapped-leaves", "swapped-gates"])
    def test_children_that_are_not_adjacent_raise(self, monkeypatch, pairing):
        def swapped_leaves(net, op):
            # every gate reads its right child first: leaves out of turn
            return lambda x, y: op(y, x)

        def swapped_gates(net, op):
            # leaves in turn, but a gate over two gates reads them in reverse
            return lambda x, y: op(y, x) if x >= net.top and y >= net.top else op(x, y)

        mutate = swapped_leaves if pairing == "swapped-leaves" else swapped_gates
        net, k = self._round_with_pairing(monkeypatch, mutate)
        with pytest.raises(CircuitInvariantError, match="OR tree joins groups that are not adjacent"):
            net.round(k)

    def test_a_child_that_is_no_group_raises(self, monkeypatch):
        def stray(net, op):
            # the first gate reads a slot node in place of its first group
            leaf = net._leaves(2)[1][0]
            return lambda x, y: op(net.slot_nodes[0] if x == leaf else x, y)

        net, k = self._round_with_pairing(monkeypatch, stray)
        with pytest.raises(CircuitInvariantError, match="OR tree reads no group"):
            net.round(k)

    def test_a_round_with_no_group_has_no_or_gate(self, c5):
        net = games_module._network(c5, "clique")
        with pytest.raises(CircuitInvariantError, match="OR tree is no OR gate"):
            net.round(3)


class TestInducedCliqueCircuit:
    def test_c5_edge_level(self, c5):
        circ = induced_clique_circuit(c5, 2)
        assert evaluate(circ, (1, 1, 0, 0, 0)) == 1
        assert evaluate(circ, (1, 0, 1, 0, 0)) == 0

    def test_c5_no_triangle(self, c5):
        circ = induced_clique_circuit(c5, 3)
        assert all(
            evaluate(circ, tuple(m >> v & 1 for v in range(5))) == 0 for m in range(32)
        )

    def test_complete_graph(self):
        circ = induced_clique_circuit(complete_graph(4), 4)
        assert evaluate(circ, (1, 1, 1, 1)) == 1
        assert evaluate(circ, (1, 1, 1, 0)) == 0


class TestTraversal:
    def test_and_rule(self):
        b = CircuitBuilder(2)
        c = b.build(b.and_(b.var(0), b.var(1)))
        ch = _Channel()
        assert find_separating_variable(c, (1, 1), (1, 0), ch) == 1
        assert ch.transcript.total_bits == 1
        assert ch.transcript.entries[0].sender == "B"

    def test_or_rule(self):
        b = CircuitBuilder(2)
        c = b.build(b.or_(b.var(0), b.var(1)))
        ch = _Channel()
        assert find_separating_variable(c, (0, 1), (0, 0), ch) == 1
        assert ch.transcript.entries[0].sender == "A"

    def test_single_variable_zero_bits(self):
        b = CircuitBuilder(1)
        c = b.build(b.var(0))
        ch = _Channel()
        assert find_separating_variable(c, (1,), (0,), ch) == 0
        assert ch.transcript.total_bits == 0

    def test_left_preference_when_both_qualify(self):
        b = CircuitBuilder(2)
        c = b.build(b.and_(b.var(0), b.var(1)))
        # both children are 0 on the zero side: bit 0, land on the left
        assert find_separating_variable(c, (1, 1), (0, 0)) == 0

    def test_separation_failure(self):
        b = CircuitBuilder(2)
        c = b.build(b.and_(b.var(0), b.var(1)))
        with pytest.raises(SeparationError, match="separation failure"):
            find_separating_variable(c, (1, 0), (0, 0))

    def test_soundness_property(self):
        # wherever the precondition holds, the returned variable separates
        # and the bit count never exceeds the depth
        rng = random.Random(13)
        for _ in range(150):
            n = rng.randrange(2, 8)
            k = rng.randrange(1, n + 1)
            c = build_threshold_sort(n, k)
            one = tuple(rng.randrange(2) for _ in range(n))
            zero = tuple(rng.randrange(2) for _ in range(n))
            if evaluate(c, one) != 1 or evaluate(c, zero) != 0:
                continue
            ch = _Channel()
            i = find_separating_variable(c, one, zero, ch)
            assert one[i] == 1 and zero[i] == 0
            assert ch.transcript.total_bits <= c.depth

    def test_same_walk_as_play_on_catalog(self):
        # on the whole vectors of both sides, the standalone walk of the
        # round-k circuit must reach play's answer by play's descend bits
        walks = 0
        for g in catalog_all_graphs(4):
            for kind in ALL_KINDS:
                cfg = GameConfig()
                idx = nonedges(g)
                for vi in enumerate_valid_inputs(g, kind, cfg):
                    if not (vi.both_cliques or kind.crossing_goal):
                        continue
                    out = play(kind, g, vi.a, vi.b, cfg)
                    circ = game_circuit(g, idx, kind, len(vi.a), cfg)
                    ch = _Channel()
                    var = find_separating_variable(
                        circ,
                        brute_party_vector(g, idx, kind.name, "A", vi.a),
                        brute_party_vector(g, idx, kind.name, "B", vi.b),
                        ch,
                    )
                    assert idx.pair(var) == out.nonedge, (kind.name, sorted(g.edges), vi)
                    descends = [(e.sender, e.bits) for e in out.transcript.entries if e.meaning == "descend"]
                    assert [(e.sender, e.bits) for e in ch.transcript.entries] == descends
                    walks += 1
        assert walks > 1_000


class TestWalkChecks:
    """``play`` has each party check its own value wherever the walk stands."""

    @pytest.mark.parametrize("role, value", [("A", 0), ("B", 1)])
    def test_wrong_value_below_output_breaks_invariant(self, p4, monkeypatch, role, value):
        honest = games_module._Party._value

        def lying(party, node):
            if party.role == role and node != party.root:
                return value
            return honest(party, node)

        monkeypatch.setattr(games_module._Party, "_value", lying)
        with pytest.raises(CircuitInvariantError, match="traversal invariant broke"):
            play(BICLIQUE, p4, {0, 1}, {2, 3})

    def test_wrong_value_at_output_is_separation_error(self, p4, monkeypatch):
        honest = games_module._Party._value

        def lying(party, node):
            val = honest(party, node)
            return 1 - val if party.role == "A" and node == party.root else val

        monkeypatch.setattr(games_module._Party, "_value", lying)
        with pytest.raises(
            SeparationError,
            match=r"the first party's vector evaluates to 0, expected 1 \[game=biclique, k=3\]",
        ):
            play(BICLIQUE, p4, {0, 1, 2}, {3})


class TestPlayBiclique:
    def test_p4_crossing(self, p4):
        out = play(BICLIQUE, p4, {0, 1}, {2, 3})
        assert out.nonedge in {(0, 2), (0, 3), (1, 3)}
        assert out.alice_answer == out.bob_answer == out.nonedge
        assert out.kind_of_answer == "crossing"
        assert out.promise_verified

    def test_deterministic(self, p4):
        first = play(BICLIQUE, p4, {0, 1}, {2, 3})
        second = play(BICLIQUE, p4, {0, 1}, {2, 3})
        assert json.dumps(first.to_json_obj(), sort_keys=True) == json.dumps(
            second.to_json_obj(), sort_keys=True
        )

    def test_bit_bound_golden(self, p4):
        # size announcement is 3 bits, deepest separator circuit has depth 4
        assert bit_bound(BICLIQUE, p4) == 7

    def test_all_p4_partitions(self, p4):
        for a_mask in range(1, 15):
            a = frozenset(v for v in range(4) if a_mask >> v & 1)
            b = frozenset(range(4)) - a
            out = play(BICLIQUE, p4, a, b)
            assert legal_answer(BICLIQUE, p4, a, b, out.nonedge)
            assert out.transcript.total_bits <= 7

    def test_promise_rejections(self, p4):
        with pytest.raises(PromiseViolationError, match="<="):
            play(BICLIQUE, p4, {0}, {3})
        with pytest.raises(PromiseViolationError, match="nonempty"):
            play(BICLIQUE, p4, set(), {0, 1, 2, 3})
        with pytest.raises(PromiseViolationError, match="intersect"):
            play(BICLIQUE, p4, {0, 1}, {1, 2})

    @pytest.mark.parametrize("v", [-1, 4, 2**40, 10**20])
    def test_vertex_out_of_range_raises(self, p4, v):
        # checked before the sets become masks, so a huge id costs nothing
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            play(BICLIQUE, p4, {0, v}, {2})
        with pytest.raises(ValueError, match=f"vertex {v} out of range"):
            play(CLIQUE, p4, {0}, {2, v})

    def test_separation_failure_when_promise_skipped(self, p4):
        cfg = GameConfig(oracle_limit=0)  # disables promise validation
        with pytest.raises(SeparationError, match="game=biclique"):
            play(BICLIQUE, p4, {0}, {3}, cfg)

    def test_equal_plays_hash_equal(self, p4):
        first, second = (play(BICLIQUE, p4, {0, 1}, {2, 3}) for _ in range(2))
        assert first == second and hash(first) == hash(second)
        assert len({first, second, play(BICLIQUE, p4, {0, 1, 2}, {3})}) == 2

    def test_transcript_holds_a_tuple(self, p4):
        entries = play(BICLIQUE, p4, {0, 1}, {2, 3}).transcript.entries
        assert isinstance(entries, tuple)
        assert Transcript(list(entries)) == Transcript(iter(entries))
        with pytest.raises(dataclasses.FrozenInstanceError):
            Transcript(entries).entries = ()

    def test_two_vertex_edgeless(self):
        g = graph_from_edges(2, [])
        out = play(BICLIQUE, g, {0}, {1})
        assert out.nonedge == (0, 1)
        assert out.transcript.total_bits == 3  # 2 size bits + 1 traversal bit
        assert out.transcript.total_bits <= bit_bound(BICLIQUE, g)


class TestPlayClique:
    def test_shortcut_alice_not_clique(self, c5):
        out = play(CLIQUE, c5, {0, 2}, {4})
        assert out.kind_of_answer == "within_a"
        assert out.nonedge == (0, 2)
        # 1 flag bit + two 3-bit vertex ids
        assert out.transcript.total_bits == 1 + 2 * 3

    def test_shortcut_bob_not_clique(self, c5):
        out = play(CLIQUE, c5, {4}, {0, 2})
        assert out.kind_of_answer == "within_b"
        assert out.nonedge == (0, 2)
        assert out.transcript.total_bits == 2 + 2 * 3

    def test_both_cliques_crossing(self, c5):
        out = play(CLIQUE, c5, {0, 1}, {3})
        assert out.nonedge in {(0, 3), (1, 3)}
        assert out.kind_of_answer == "crossing"

    def test_empty_alice_with_large_bob(self, c5):
        out = play(CLIQUE, c5, set(), {0, 1, 2})
        assert out.kind_of_answer == "within_b"
        assert legal_answer(CLIQUE, c5, frozenset(), frozenset({0, 1, 2}), out.nonedge)

    def test_rejected_on_bipartite_graph(self):
        g = graph_from_edges(4, [(0, 2), (1, 3)], bipartition=({0, 1}, {2, 3}))
        with pytest.raises(ValueError, match="full nonedge space"):
            play(CLIQUE, g, {0}, {1})

    def test_promise_rejection(self, c5):
        with pytest.raises(PromiseViolationError):
            play(CLIQUE, c5, {0}, {2})


class TestPlayRelaxed:
    def test_c5_answer_in_relaxed_set(self, c5):
        a, b = frozenset({0, 1}), frozenset({3})
        out = play(RELAXED_CLIQUE, c5, a, b)
        assert legal_answer(RELAXED_CLIQUE, c5, a, b, out.nonedge)
        assert out.nonedge in {(0, 2), (0, 3), (1, 3), (1, 4)}

    def test_common_neighbor_answers_happen(self):
        # some graph/input yields an answer outside a-union-b, reaching the
        # relaxed clause rather than the plain clique goal
        seen_gamma = False
        for g in catalog_all_graphs(4):
            if g.bipartition is not None:
                continue
            omega = max_clique_size(g)
            for a in itertools.combinations(range(g.n), 2):
                if not g.is_clique(a):
                    continue
                for b in itertools.combinations(range(g.n), omega - 1):
                    a_set, b_set = frozenset(a), frozenset(b)
                    if a_set & b_set or not g.is_clique(b_set):
                        continue
                    if len(a_set) + len(b_set) <= omega:
                        continue
                    out = play(RELAXED_CLIQUE, g, a_set, b_set)
                    assert legal_answer(RELAXED_CLIQUE, g, a_set, b_set, out.nonedge)
                    if out.kind_of_answer == "to_common_neighbor":
                        seen_gamma = True
        assert seen_gamma

    def test_handshake_shortcuts(self, c5):
        out = play(RELAXED_CLIQUE, c5, {0, 2}, {4})
        assert out.kind_of_answer == "within_a"


class TestPlayEdgeBiclique:
    def test_p4_explicit_bound(self, p4):
        kind = GameKind("edge-biclique", 2)
        out = play(kind, p4, {0, 1}, {2, 3})
        assert out.nonedge in {(0, 2), (0, 3), (1, 3)}
        assert out.edge_bound == 2

    def test_oracle_resolved_bound(self, p4):
        out = play(EDGE_BICLIQUE, p4, {0, 1}, {2, 3})
        assert out.edge_bound == 2

    def test_rejects_product_below_bound(self, p4):
        with pytest.raises(PromiseViolationError, match=r"\|a\|\*\|b\|"):
            play(GameKind("edge-biclique", 2), p4, {0}, {2})

    def test_rejects_understated_bound(self, p4):
        with pytest.raises(PromiseViolationError, match="below the true maximum"):
            play(GameKind("edge-biclique", 1), p4, {0, 1}, {2, 3})

    def test_kind_from_name(self):
        kind = kind_from_name("edge-biclique", 5)
        assert kind.edge_bound == 5
        with pytest.raises(ValueError):
            kind_from_name("biclique", 5)
        with pytest.raises(ValueError):
            kind_from_name("nonsense")


class TestBipartiteBiclique:
    @pytest.fixture
    def bip(self):
        # 3+3 bipartite with two cross nonedges
        return graph_from_edges(
            6,
            [(0, 3), (0, 4), (0, 5), (1, 3), (1, 4), (2, 3), (2, 5)],
            bipartition=({0, 1, 2}, {3, 4, 5}),
        )

    def test_play_crossing(self, bip):
        from cliquegames.graph import max_biclique_size

        threshold = max_biclique_size(bip)
        out = play(BICLIQUE, bip, {0, 1, 2}, {3, 4, 5})
        assert 6 > threshold
        assert legal_answer(BICLIQUE, bip, frozenset({0, 1, 2}), frozenset({3, 4, 5}), out.nonedge)

    def test_wrong_side_rejected(self, bip):
        with pytest.raises(PromiseViolationError, match="first part"):
            play(BICLIQUE, bip, {3}, {4})
        with pytest.raises(PromiseViolationError, match="second part"):
            play(BICLIQUE, bip, {0}, {1})


class TestTranscripts:
    def test_schema_fields(self, p4):
        obj = play(BICLIQUE, p4, {0, 1}, {2, 3}).to_json_obj()
        assert set(obj) == {
            "game",
            "n",
            "a",
            "b",
            "builder",
            "seed",
            "entries",
            "total_bits",
            "nonedge",
            "kind_of_answer",
            "promise_verified",
        }
        assert obj["a"] == [1, 2] and obj["b"] == [3, 4]
        assert obj["nonedge"][0] < obj["nonedge"][1]
        for entry in obj["entries"]:
            assert set(entry) == {"round", "sender", "bits", "meaning"}

    def test_edge_bound_field_only_for_edge_game(self, p4):
        obj = play(EDGE_BICLIQUE, p4, {0, 1}, {2, 3}).to_json_obj()
        assert obj["edge_bound"] == 2
        assert "edge_bound" not in play(BICLIQUE, p4, {0, 1}, {2, 3}).to_json_obj()

    def test_rounds_strictly_increasing(self, c5):
        out = play(CLIQUE, c5, {0, 1}, {3})
        rounds = [e.round for e in out.transcript.entries]
        assert rounds == sorted(set(rounds)) == list(range(1, len(rounds) + 1))

    def test_total_bits_is_sum(self, c5):
        t = play(CLIQUE, c5, {0, 1}, {3}).transcript
        assert t.total_bits == sum(len(e.bits) for e in t.entries)

    def test_field_widths(self):
        assert size_field_width(4) == 3 and size_field_width(5) == 3
        assert vertex_field_width(5) == 3 and vertex_field_width(4) == 2

    def test_equal_entries_are_one_object(self, p4):
        first, again = (play(BICLIQUE, p4, {0, 1}, {2, 3}).transcript.entries for _ in range(2))
        assert first == again and all(x is y for x, y in zip(first, again))
        # a changed copy is a new entry; the shared one is untouched
        forged = dataclasses.replace(first[0], bits="011")
        assert forged.bits == "011" and again[0].bits == "010"
        with pytest.raises(dataclasses.FrozenInstanceError):
            first[0].bits = "011"

    @pytest.mark.parametrize("sender, bits", [("C", "0"), ("A", ""), ("B", " 1"), ("A", "012"), ("B", "1 ")])
    def test_channel_rejects_every_malformed_message(self, sender, bits):
        ch = _Channel()
        for _ in range(2):  # never memoized
            with pytest.raises(ValueError, match="malformed message"):
                ch.send(sender, bits, "descend")
        assert ch.send("A", "01", "descend") == "01"
        assert [(e.round, e.sender, e.bits) for e in ch.transcript.entries] == [(1, "A", "01")]

    def test_one_digit_test_in_channel_replay_and_decoder(self, c5):
        # " 0" and "0 " hide a digit from a one-sided test; all three places reject them
        entries = list(play(CLIQUE, c5, {0, 2}, {4}).transcript.entries)
        assert entries[1].bits == "000010"
        for bits in (" 00010", "00001 ", "0000 0"):
            with pytest.raises(ValueError, match="malformed message"):
                _Channel().send("A", bits, "alice-nonedge")
            with pytest.raises(ValueError, match="binary digit"):
                replay_transcript(c5, CLIQUE, [entries[0], dataclasses.replace(entries[1], bits=bits)])
            with pytest.raises(ValueError, match="binary digits"):
                _decode_pair(bits, 5)


class TestReplay:
    def test_traversal_games(self, p4, c5):
        for kind, g, a, b in (
            (BICLIQUE, p4, {0, 1}, {2, 3}),
            (CLIQUE, c5, {0, 1}, {3}),
            (RELAXED_CLIQUE, c5, {0, 1}, {3}),
            (EDGE_BICLIQUE, p4, {0, 1}, {2, 3}),
        ):
            out = play(kind, g, a, b)
            assert replay_transcript(g, kind, out.transcript) == out.nonedge

    def test_shortcut_games(self, c5):
        out = play(CLIQUE, c5, {0, 2}, {4})
        assert replay_transcript(c5, CLIQUE, out.transcript) == out.nonedge

    def test_pair_round_trip(self):
        for n in (2, 5, 8):
            for u, v in itertools.combinations(range(n), 2):
                assert _decode_pair(_encode_pair((u, v), n), n) == (u, v)

    def test_decode_rejects_larger_vertex_first(self):
        # the side that sends a pair sends its smaller vertex first
        for n in (2, 5, 8):
            for u, v in itertools.combinations(range(n), 2):
                with pytest.raises(ValueError, match="smaller vertex first"):
                    _decode_pair(_encode_pair((v, u), n), n)

    def test_replay_rejects_reversed_handshake_pair(self, c5):
        out = play(CLIQUE, c5, {0, 2}, {4})
        entries = list(out.transcript.entries)
        assert entries[1].meaning == "alice-nonedge" and out.nonedge == (0, 2)
        assert replay_transcript(c5, CLIQUE, entries) == (0, 2)
        entries[1] = entries[1].__class__(2, "A", _encode_pair((2, 0), 5), "alice-nonedge")
        with pytest.raises(ValueError, match="smaller vertex first"):
            replay_transcript(c5, CLIQUE, entries)

    def test_decode_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="binary digits"):
            _decode_pair("11111", 5)
        with pytest.raises(ValueError, match="binary digits"):
            _decode_pair("0010011", 5)
        with pytest.raises(ValueError, match="binary digits"):
            _decode_pair("001 01", 4)

    def test_decode_rejects_endpoint_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            _decode_pair("111111", 5)
        with pytest.raises(ValueError, match="out of range"):
            _decode_pair("000101", 5)

    def test_decode_rejects_repeated_vertex(self):
        with pytest.raises(ValueError, match="twice"):
            _decode_pair("010010", 5)

    def test_replay_rejects_forged_nonedge(self, c5):
        out = play(CLIQUE, c5, {0, 2}, {4})
        entries = list(out.transcript.entries)
        assert entries[1].meaning == "alice-nonedge"
        entries[1] = entries[1].__class__(2, "A", "111111", "alice-nonedge")
        with pytest.raises(ValueError, match="out of range"):
            replay_transcript(c5, CLIQUE, entries)

    def test_malformed_transcript_rejected(self, p4):
        out = play(BICLIQUE, p4, {0, 1}, {2, 3})
        with pytest.raises(ValueError, match="malformed|trailing"):
            replay_transcript(p4, BICLIQUE, out.transcript.entries[:-1] * 2)


    def test_replay_rejects_sender_swap_onto_an_edge(self, c5):
        # the alice-nonedge entry re-sent by Bob, naming the edge (0, 1)
        entries = list(play(CLIQUE, c5, {0, 2}, {4}).transcript.entries)
        entries[1] = TranscriptEntry(2, "B", "000001", "alice-nonedge")
        with pytest.raises(ValueError, match="sender A"):
            replay_transcript(c5, CLIQUE, entries)
        entries[1] = TranscriptEntry(2, "A", "000001", "alice-nonedge")
        with pytest.raises(ValueError, match="is an edge"):
            replay_transcript(c5, CLIQUE, entries)

    def test_replay_rejects_widened_set_size(self, p4):
        entries = list(play(BICLIQUE, p4, {0, 1}, {2, 3}).transcript.entries)
        size = entries[0]
        assert size.meaning == "set-size"
        entries[0] = dataclasses.replace(size, bits="0" + size.bits)
        with pytest.raises(ValueError, match="3 binary digit"):
            replay_transcript(p4, BICLIQUE, entries)

    def test_replay_rejects_non_binary_digits(self, p4):
        # int(" 10", 2) == 2 would read the genuine size from a forged field
        entries = list(play(BICLIQUE, p4, {0, 1}, {2, 3}).transcript.entries)
        assert entries[0].bits == "010"
        entries[0] = dataclasses.replace(entries[0], bits=" 10")
        with pytest.raises(ValueError, match="binary digit"):
            replay_transcript(p4, BICLIQUE, entries)

    def test_replay_rejects_two_digit_descend(self, p4):
        entries = list(play(BICLIQUE, p4, {0, 1}, {2, 3}).transcript.entries)
        assert entries[1].meaning == "descend"
        entries[1] = dataclasses.replace(entries[1], bits="00")
        with pytest.raises(ValueError, match="malformed at entry 2"):
            replay_transcript(p4, BICLIQUE, entries)

    def test_replay_rejects_relabelled_sender(self, p4):
        entries = list(play(BICLIQUE, p4, {0, 1}, {2, 3}).transcript.entries)
        for i, e in enumerate(entries):
            forged = list(entries)
            forged[i] = dataclasses.replace(e, sender="B" if e.sender == "A" else "A")
            with pytest.raises(ValueError, match=f"malformed at entry {i + 1}"):
                replay_transcript(p4, BICLIQUE, forged)

    def test_replay_rejects_wrong_round(self, c5):
        entries = list(play(CLIQUE, c5, {0, 1}, {3}).transcript.entries)
        entries[-1] = dataclasses.replace(entries[-1], round=entries[-1].round + 1)
        with pytest.raises(ValueError, match="expected round"):
            replay_transcript(c5, CLIQUE, entries)

    def test_replay_rejects_trailing_entry_after_handshake(self, c5):
        entries = list(play(CLIQUE, c5, {0, 2}, {4}).transcript.entries)
        entries.append(TranscriptEntry(3, "A", "011", "set-size"))
        with pytest.raises(ValueError, match="trailing"):
            replay_transcript(c5, CLIQUE, entries)


def _mutations(entries: list, rng: random.Random) -> list[list]:
    """One corruption of each kind at a seeded entry of a genuine transcript."""
    i = rng.randrange(len(entries))
    e = entries[i]
    j = rng.randrange(len(e.bits))

    def put(**changes):
        out = list(entries)
        out[i] = dataclasses.replace(e, **changes)
        return out

    def renumbered(es):
        return [dataclasses.replace(x, round=r) for r, x in enumerate(es, 1)]

    return [
        put(bits=e.bits[:j] + "10"[int(e.bits[j])] + e.bits[j + 1 :]),
        put(bits=e.bits + rng.choice("01")),
        put(bits=e.bits[:-1]),
        put(sender="B" if e.sender == "A" else "A"),
        renumbered(entries[:i] + entries[i + 1 :]),
        renumbered(entries[: i + 1] + entries[i:]),
    ]


def test_mutated_transcripts_never_replay_to_an_edge():
    rng = random.Random(20240)
    accepted = rejected = 0
    for g in catalog_all_graphs(4):
        for kind in (BICLIQUE, CLIQUE, RELAXED_CLIQUE, EDGE_BICLIQUE):
            cfg = GameConfig()
            for vi in enumerate_valid_inputs(g, kind, cfg):
                entries = play(kind, g, vi.a, vi.b, cfg).transcript.entries
                for forged in _mutations(entries, rng):
                    try:
                        u, v = replay_transcript(g, kind, forged, cfg)
                    except (ValueError, CircuitInvariantError):
                        rejected += 1
                        continue
                    assert 0 <= u < v < g.n and (u, v) not in g.edges, (g.edges, kind, forged)
                    accepted += 1
    assert accepted and rejected


class TestBitBound:
    def test_covers_played_bits(self, p4):
        cfg = GameConfig(seed=4)
        bound = bit_bound(BICLIQUE, p4, cfg)
        for a_mask in range(1, 15):
            a = frozenset(v for v in range(4) if a_mask >> v & 1)
            b = frozenset(range(4)) - a
            out = play(BICLIQUE, p4, a, b, cfg)
            assert out.transcript.total_bits <= bound

    def test_single_variable_case(self):
        g = graph_from_edges(2, [])
        # one nonedge: announcement width plus depth of an OR over two
        # identical monomials
        assert bit_bound(BICLIQUE, g) == size_field_width(2) + 1

    def test_handshake_included_for_clique_games(self, c5):
        cfg = GameConfig()
        assert bit_bound(CLIQUE, c5, cfg) >= 2 + size_field_width(5)
        out = play(CLIQUE, c5, {0, 1}, {3}, cfg)
        assert out.transcript.total_bits <= bit_bound(CLIQUE, c5, cfg)

    def test_covers_bob_nonedge_exit(self, c5, monkeypatch):
        # with every threshold folded to constant 0 each circuit has depth 0,
        # so only the handshake branch covers a play ending in Bob's nonedge
        monkeypatch.setattr(
            games_module, "threshold_network", lambda m: (Circuit(((CONST, 0),), 0, m), (0,) * m)
        )
        cfg = GameConfig()
        out = play(CLIQUE, c5, {4}, {0, 2}, cfg)
        assert out.kind_of_answer == "within_b"
        assert out.transcript.total_bits == 2 + 2 * vertex_field_width(5)
        assert bit_bound(CLIQUE, c5, cfg) == out.transcript.total_bits
        assert bit_bound(BICLIQUE, c5, cfg) == size_field_width(5)

    @staticmethod
    def _bound_from_circuits(kind, g, cfg):
        """The bound from every extracted round-k circuit, the handshake branch included."""
        idx = nonedges(g)
        depth = max(game_circuit(g, idx, kind, k, cfg).depth for k in range(1, g.n + 1))
        circuit_branch = size_field_width(g.n) + depth
        if not kind.has_handshake:
            return circuit_branch
        return max(2 + 2 * vertex_field_width(g.n), 2 + circuit_branch)

    def test_one_depth_pass_matches_the_extracted_circuits(self):
        # both families, with and without the handshake branch
        graphs = list(catalog_all_graphs(5))
        graphs += [strip_stars(random_graph(n, 0.5, random.Random(n)))[0] for n in (16, 32, 64)]
        graphs += [_moon_moser(t) for t in range(2, 6)]
        for g in graphs:
            cfg = GameConfig()
            for kind in (BICLIQUE, RELAXED_CLIQUE, CLIQUE):
                assert bit_bound(kind, g, cfg) == self._bound_from_circuits(kind, g, cfg), (
                    kind.name,
                    sorted(g.edges),
                )

    def test_n128_network_is_one_small_array(self):
        # one gate array for every k: the 128 per-k circuits, each with its
        # own copy of the monomial prefix, held about 1.8 M gates between them
        g, _ = strip_stars(random_graph(128, 0.5, random.Random(128)))
        cfg = GameConfig()
        bound = bit_bound(BICLIQUE, g, cfg)
        net = games_module._network(g, "threshold")
        assert len(net.gates) < 20_000
        assert bound == self._bound_from_circuits(BICLIQUE, g, cfg)
