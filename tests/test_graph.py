import itertools
import random

import pytest

import cliquegames.graph as graph_module
from cliquegames.graph import (
    Graph,
    GraphParseError,
    OracleLimitError,
    TrivialGraphError,
    common_neighbors,
    find_nonedge_within,
    graph_from_edges,
    incident_nonedges,
    max_biclique_size,
    max_clique_size,
    max_edge_biclique,
    maximal_cliques,
    nonedges,
    parse_graph,
    strip_stars,
)
from cliquegames.harness import (
    all_labeled_graphs,
    catalog_all_graphs,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    path_graph,
    random_graph,
)

from brute import (
    brute_max_biclique,
    brute_max_clique,
    brute_max_edge_biclique,
    brute_maximal_cliques,
    brute_nonedges,
)

P4_TEXT = "p edge 4 3\ne 1 2\ne 2 3\ne 3 4\n"
C5_TEXT = "p edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n"


class TestParse:
    def test_p4(self):
        g = parse_graph(P4_TEXT)
        assert g.n == 4
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3)})
        assert g.labels == (1, 2, 3, 4)

    def test_c5(self):
        g = parse_graph(C5_TEXT)
        assert g.n == 5
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)})

    def test_comments_and_blank_lines(self):
        g = parse_graph("c hello\n\nc more\np edge 2 1\ne 1 2\n")
        assert g.edges == frozenset({(0, 1)})

    def test_duplicate_edges_collapse(self):
        g = parse_graph("p edge 3 3\ne 1 2\ne 2 1\ne 1 2\n")
        assert g.edges == frozenset({(0, 1)})

    def test_vertex_out_of_range(self):
        with pytest.raises(GraphParseError, match="line 2.*out of range"):
            parse_graph("p edge 5 1\ne 1 6\n")

    def test_self_loop(self):
        with pytest.raises(GraphParseError, match="self-loop"):
            parse_graph("p edge 3 1\ne 2 2\n")

    def test_edge_before_header(self):
        with pytest.raises(GraphParseError, match="line 1"):
            parse_graph("e 1 2\np edge 3 1\n")

    def test_missing_header(self):
        with pytest.raises(GraphParseError, match="missing"):
            parse_graph("c nothing here\n")

    def test_unknown_line_type(self):
        with pytest.raises(GraphParseError, match="unknown line type"):
            parse_graph("p edge 2 0\nq 1 2\n")

    def test_malformed_edge(self):
        with pytest.raises(GraphParseError, match="line 2"):
            parse_graph("p edge 2 1\ne 1\n")

    def test_bipartite_declaration(self):
        g = parse_graph("p edge 4 3\nb 2\ne 1 3\ne 1 4\ne 2 3\n")
        assert g.bipartition == (frozenset({0, 1}), frozenset({2, 3}))

    def test_edge_within_part_rejected(self):
        with pytest.raises(GraphParseError, match="line 3.*within a declared part"):
            parse_graph("p edge 4 2\nb 2\ne 1 2\n")

    def test_bipartition_after_edges_still_checked(self):
        with pytest.raises(GraphParseError, match="within a declared part"):
            parse_graph("p edge 4 1\ne 1 2\nb 2\n")


class TestStripStars:
    def test_star_center_removed(self):
        star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        stripped, removed = strip_stars(star)
        assert removed == frozenset({0})
        assert stripped.n == 3 and not stripped.edges
        assert stripped.labels == (2, 3, 4)

    def test_c5_unchanged(self):
        c5 = cycle_graph(5)
        stripped, removed = strip_stars(c5)
        assert removed == frozenset() and stripped is c5

    def test_triangle_trivial(self):
        with pytest.raises(TrivialGraphError, match="trivial after star stripping"):
            strip_stars(complete_graph(3))

    def test_cascading_removal(self):
        # K4 minus one edge: stripping the two hubs exposes nothing new,
        # stripping continues until the remaining pair is edgeless
        g = graph_from_edges(4, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        stripped, removed = strip_stars(g)
        assert removed == frozenset({2, 3})
        assert stripped.n == 2 and not stripped.edges

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(25):
            g = random_graph(6, 0.6, rng)
            try:
                once, _ = strip_stars(g)
            except TrivialGraphError:
                continue
            again, removed = strip_stars(once)
            assert removed == frozenset() and again is once


class TestNonedges:
    def test_p4(self):
        assert nonedges(parse_graph(P4_TEXT)).pairs == ((0, 2), (0, 3), (1, 3))

    def test_c5(self):
        assert nonedges(parse_graph(C5_TEXT)).pairs == (
            (0, 2),
            (0, 3),
            (1, 3),
            (1, 4),
            (2, 4),
        )

    def test_complete_graph_empty(self):
        assert nonedges(complete_graph(4)).pairs == ()

    def test_bipartite_cross_only(self):
        g = complete_bipartite_graph(2, 2, declared=True)
        # complete cross edges: no cross nonedges, same-part pairs excluded
        assert nonedges(g).pairs == ()
        g2 = graph_from_edges(4, [(0, 2), (1, 3)], bipartition=({0, 1}, {2, 3}))
        assert nonedges(g2).pairs == ((0, 3), (1, 2))

    def test_count_formula(self):
        rng = random.Random(3)
        for _ in range(20):
            g = random_graph(7, 0.5, rng)
            assert len(nonedges(g)) == 7 * 6 // 2 - len(g.edges)

    def test_matches_brute(self):
        for g in catalog_all_graphs(4):
            assert list(nonedges(g).pairs) == brute_nonedges(g)

    def test_bijection(self):
        idx = nonedges(cycle_graph(6))
        for i, pair in enumerate(idx.pairs):
            assert idx.index(*pair) == i


class TestIncidence:
    def test_p4_examples(self):
        g = parse_graph(P4_TEXT)
        idx = nonedges(g)
        pairs = lambda ids: {idx.pair(i) for i in ids}
        assert pairs(incident_nonedges(idx, {0})) == {(0, 2), (0, 3)}
        assert pairs(incident_nonedges(idx, {0, 1})) == {(0, 2), (0, 3), (1, 3)}
        assert incident_nonedges(idx, set()) == frozenset()

    def test_union_property(self):
        rng = random.Random(5)
        for _ in range(20):
            g = random_graph(7, 0.4, rng)
            idx = nonedges(g)
            a = {v for v in range(7) if rng.random() < 0.4}
            b = {v for v in range(7) if rng.random() < 0.4}
            assert incident_nonedges(idx, a | b) == incident_nonedges(
                idx, a
            ) | incident_nonedges(idx, b)


class TestCommonNeighbors:
    def test_c5(self):
        c5 = cycle_graph(5)
        assert common_neighbors(c5, {0}) == frozenset({1, 4})
        assert common_neighbors(c5, {0, 2}) == frozenset({1})

    def test_p4_disjoint(self):
        assert common_neighbors(path_graph(4), {0, 3}) == frozenset()

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            common_neighbors(path_graph(4), set())


class TestOracles:
    def test_named_values(self):
        p4, c5, c4 = path_graph(4), cycle_graph(5), cycle_graph(4)
        assert max_clique_size(p4) == 2
        assert max_clique_size(c5) == 2
        assert max_clique_size(c4) == 2
        assert max_biclique_size(p4) == 3
        assert max_biclique_size(c5) == 3
        assert max_biclique_size(c4) == 4
        assert max_edge_biclique(p4) == 2
        assert max_edge_biclique(c4) == 4
        assert max_edge_biclique(c5) == 2

    def test_maximal_cliques_named(self):
        assert maximal_cliques(cycle_graph(5)) == [
            (0, 1),
            (0, 4),
            (1, 2),
            (2, 3),
            (3, 4),
        ]
        assert maximal_cliques(path_graph(4)) == [(0, 1), (1, 2), (2, 3)]
        assert maximal_cliques(complete_graph(4)) == [(0, 1, 2, 3)]

    def test_against_brute_exhaustive(self):
        for n in range(2, 6):
            for g in all_labeled_graphs(n):
                assert max_clique_size(g) == brute_max_clique(g), g.edges
                assert max_biclique_size(g) == brute_max_biclique(g), g.edges
                assert max_edge_biclique(g) == brute_max_edge_biclique(g), g.edges
                assert maximal_cliques(g) == brute_maximal_cliques(g), g.edges

    def test_against_brute_random(self):
        rng = random.Random(17)
        for n in (7, 8):
            for _ in range(15):
                g = random_graph(n, rng.choice((0.3, 0.5, 0.7)), rng)
                assert max_clique_size(g) == brute_max_clique(g)
                assert max_biclique_size(g) == brute_max_biclique(g)
                assert max_edge_biclique(g) == brute_max_edge_biclique(g)
                assert maximal_cliques(g) == brute_maximal_cliques(g)

    def test_bipartite_mode_cross_only(self):
        g = graph_from_edges(
            4, [(0, 2), (0, 3), (1, 2)], bipartition=({0, 1}, {2, 3})
        )
        assert max_biclique_size(g) == brute_max_biclique(g) == 3
        assert max_edge_biclique(g) == brute_max_edge_biclique(g) == 2

    def test_bipartite_declared_against_brute(self):
        # the pruned walk over the first part, on parts of every balance at n = 10..12
        rng = random.Random(1012)
        for n in (10, 11, 12):
            for left in (1, n // 3, n // 2, n - 2):
                for p in (0.2, 0.5, 0.8, 1.0):
                    edges = [(u, v) for u in range(left) for v in range(left, n) if rng.random() < p]
                    g = graph_from_edges(n, edges, bipartition=(range(left), range(left, n)))
                    assert max_biclique_size(g) == brute_max_biclique(g), (left, sorted(edges))
                    assert max_edge_biclique(g) == brute_max_edge_biclique(g), (left, sorted(edges))

    def test_clique_never_exceeds_biclique(self):
        for n in range(2, 7):
            for g in all_labeled_graphs(n):
                assert max_clique_size(g) <= max_biclique_size(g), g.edges
        rng = random.Random(23)
        for n in (7, 8):
            for _ in range(20):
                g = random_graph(n, 0.5, rng)
                assert max_clique_size(g) <= max_biclique_size(g)

    def test_oracle_limits(self):
        big = path_graph(21)
        with pytest.raises(OracleLimitError, match="oracle limit"):
            max_clique_size(big)
        with pytest.raises(OracleLimitError, match="oracle limit"):
            max_biclique_size(path_graph(17))
        with pytest.raises(OracleLimitError, match="oracle limit"):
            max_edge_biclique(path_graph(17))
        with pytest.raises(OracleLimitError, match="maximal cliques"):
            maximal_cliques(cycle_graph(9), max_count=2)

    def test_caches_are_bounded(self):
        for oracle in (
            graph_module._maximal_cliques_cached,
            max_clique_size,
            max_biclique_size,
            max_edge_biclique,
        ):
            info = oracle.cache_info()
            assert info.maxsize is not None and info.currsize <= info.maxsize
        # the whole n <= 5 catalog fits, so suites over it compute each oracle once
        assert len(catalog_all_graphs(5)) <= graph_module._ORACLE_CACHE_SIZE


class TestFindNonedgeWithin:
    def test_examples(self):
        c5 = cycle_graph(5)
        assert find_nonedge_within(c5, {0, 2}) == (0, 2)
        assert find_nonedge_within(c5, {0, 1}) is None
        assert find_nonedge_within(c5, {3}) is None

    def test_lexicographically_smallest(self):
        g = graph_from_edges(4, [])
        assert find_nonedge_within(g, {1, 2, 3}) == (1, 2)

    def test_matches_pairwise_scan(self):
        for g in catalog_all_graphs(5):
            for m in range(1 << g.n):
                members = [v for v in range(g.n) if m >> v & 1]
                want = next(
                    ((u, v) for u, v in itertools.combinations(members, 2) if not g.adjacent(u, v)), None
                )
                # any order, with repeats
                assert find_nonedge_within(g, members[::-1] + members[:1]) == want, (sorted(g.edges), members)


class TestGraphType:
    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Graph(n=3, edges=frozenset({(1, 1)}))
        with pytest.raises(ValueError):
            Graph(n=3, edges=frozenset({(0, 5)}))

    def test_rejects_noncrossing_bipartite(self):
        with pytest.raises(ValueError):
            graph_from_edges(4, [(0, 1)], bipartition=({0, 1}, {2, 3}))

    def test_hashable_and_comparable(self):
        assert path_graph(4) == path_graph(4)
        assert hash(path_graph(4)) == hash(path_graph(4))
        # P4 from the parser, from an edge list, and from stripping a vertex
        # adjacent to all four off P4 + 1: equal, with labels 1..4
        starred = graph_from_edges(5, [(0, 1), (1, 2), (2, 3), (0, 4), (1, 4), (2, 4), (3, 4)])
        stripped, removed = strip_stars(starred)
        parsed, built = parse_graph(P4_TEXT), graph_from_edges(4, [(2, 3), (1, 0), (1, 2)])
        assert removed == {4}
        assert parsed == built == stripped
        assert hash(parsed) == hash(built) == hash(stripped) == hash((4, built.edges, None, (1, 2, 3, 4)))
        # labels still count
        relabelled = Graph(n=4, edges=built.edges, labels=(5, 6, 7, 8))
        assert relabelled != built and hash(relabelled) == hash((4, built.edges, None, (5, 6, 7, 8)))
