"""Independent brute-force oracles used to cross-check the package.

Everything here enumerates definitions directly (subsets, disjoint pairs),
deliberately sharing no code path with the implementations under test.
The two exceptions are references for a construction or an evaluation
that the package does differently: ``reference_game_circuit`` (the per-k
circuit) and ``FullVectorParty`` (the whole-vector node evaluation), which
say what they share.
"""

import contextlib
import itertools
from unittest import mock

from cliquegames import games
from cliquegames.circuit import node_values
from cliquegames.graph import Graph, nonedges


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def brute_is_clique(g: Graph, members) -> bool:
    return all(g.adjacent(u, v) for u, v in itertools.combinations(sorted(members), 2))


def brute_max_clique(g: Graph) -> int:
    best = 0
    for r in range(g.n, 0, -1):
        if any(brute_is_clique(g, c) for c in itertools.combinations(range(g.n), r)):
            return r
    return best


def brute_maximal_cliques(g: Graph) -> list:
    cliques = [
        set(c)
        for r in range(1, g.n + 1)
        for c in itertools.combinations(range(g.n), r)
        if brute_is_clique(g, c)
    ]
    maximal = [
        c for c in cliques if not any(c < other for other in cliques)
    ]
    return sorted(tuple(sorted(c)) for c in maximal)


def _pair_universes(g: Graph):
    if g.bipartition is not None:
        left, right = g.bipartition
        a_mask = sum(1 << v for v in left)
        b_mask = sum(1 << v for v in right)
        return a_mask, b_mask
    return g.full_mask, g.full_mask


def _cross_complete(g: Graph, am: int, bm: int) -> bool:
    return all(g.adj[u] & bm == bm for u in _bits(am))


def _iter_bicliques(g: Graph):
    a_univ, b_univ = _pair_universes(g)
    am = a_univ
    while am:
        comp = b_univ & ~am
        bm = comp
        while bm:
            if _cross_complete(g, am, bm):
                yield am, bm
            bm = (bm - 1) & comp
        am = (am - 1) & a_univ


def brute_max_biclique(g: Graph) -> int:
    """Max |a|+|b| over disjoint nonempty all-cross-edge pairs, plus the
    degenerate single-vertex biclique of size 1."""
    best = 1 if g.n else 0
    for am, bm in _iter_bicliques(g):
        best = max(best, am.bit_count() + bm.bit_count())
    return best


def brute_max_edge_biclique(g: Graph) -> int:
    best = 0
    for am, bm in _iter_bicliques(g):
        best = max(best, am.bit_count() * bm.bit_count())
    return best


def brute_nonedges(g: Graph) -> list:
    out = []
    for u in range(g.n):
        for v in range(u + 1, g.n):
            if g.bipartition is not None:
                left = g.bipartition[0]
                if (u in left) == (v in left):
                    continue
            if not g.adjacent(u, v):
                out.append((u, v))
    return out


def brute_separator_value(g: Graph, idx, k: int, bits, clique_only: bool) -> int:
    """Direct definition of the separator: OR over k-element vertex sets c
    (k-cliques only if ``clique_only``) of the AND of all variables of
    nonedges incident with c."""
    if g.bipartition is not None:
        universe = sorted(g.bipartition[0])
    else:
        universe = range(g.n)
    for c in itertools.combinations(universe, k):
        if clique_only and not brute_is_clique(g, c):
            continue
        if all(bits[i] for i in idx.incident_indices(c)):
            return 1
    return 0


def brute_contains_k_clique(g: Graph, members, k: int) -> bool:
    return any(brute_is_clique(g, c) for c in itertools.combinations(sorted(members), k))


def reference_game_circuit(g: Graph, idx, family: str, k: int, threshold):
    """The per-k construction the game circuits must reproduce exactly.

    A fresh ``CircuitBuilder`` for this k alone: every vertex monomial is
    rebuilt by scanning all nonedges, then the ``threshold(m, k)`` circuit
    (``family == "threshold"``) or the OR over maximal cliques of at least k
    vertices of per-clique thresholds (``family == "clique"``) is grafted
    onto them.  Unlike the rest of this module it uses the circuit layer and
    the maximal-clique oracle (checked against ``brute_maximal_cliques``
    elsewhere), since the point is a gate-for-gate comparison at sizes
    subset enumeration cannot reach.
    """
    from cliquegames.circuit import CircuitBuilder
    from cliquegames.graph import maximal_cliques

    if family == "clique":
        if g.bipartition is not None:
            raise ValueError("clique games need the full nonedge space")
        universe = list(range(g.n))
    elif g.bipartition is not None:
        universe = sorted(g.bipartition[0])
    else:
        universe = list(range(g.n))
    if not 1 <= k <= len(universe):
        raise ValueError(f"k={k} out of range")
    b = CircuitBuilder(len(idx))
    monomials = []
    for v in universe:
        incident = [b.var(i) for i, (x, y) in enumerate(idx.pairs) if v in (x, y)]
        if incident:
            monomials.append(b.and_tree(incident))
        elif g.bipartition is not None:
            monomials.append(b.const(1))
        else:
            raise ValueError(f"vertex {v} touches no nonedge")
    if family == "threshold":
        sub = threshold(len(universe), k)
        return b.build(b.graft(sub, monomials)[sub.output])
    # the induced-clique circuit on vertex variables, grafted onto the monomials
    inner = CircuitBuilder(g.n)
    qualifying = [c for c in maximal_cliques(g) if len(c) >= k]
    if qualifying:
        out = inner.or_tree(
            [_graft_output(inner, threshold(len(c), k), [inner.var(v) for v in c]) for c in qualifying]
        )
    else:
        out = inner.const(0)
    return b.build(_graft_output(b, inner.build(out), monomials))


def _graft_output(b, sub, inputs):
    return b.graft(sub, inputs)[sub.output]


def brute_party_vector(g: Graph, idx, kind_name: str, role: str, own) -> tuple:
    """A party's whole vector over the nonedges, straight from the definitions.

    Alice's is 1 exactly on nonedges touching her set; Bob's is 0 exactly on
    nonedges touching his set and, in the relaxed game, also on nonedges
    with both endpoints adjacent to all of his set.
    """
    if role == "A":
        return tuple(int(u in own or v in own) for u, v in idx.pairs)
    gamma = set()
    if kind_name == "relaxed-clique":
        if not own:
            raise ValueError("relaxed vector requires a nonempty set")
        gamma = {w for w in range(g.n) if w not in own and all(g.adjacent(w, x) for x in own)}
    return tuple(
        int(not (u in own or v in own or (u in gamma and v in gamma))) for u, v in idx.pairs
    )


class FullVectorParty(games._Party):
    """A party that evaluates every node of the network's array on its whole vector.

    This is the one-pass ``node_values`` walk that the lazy evaluation of
    ``games._Party`` must reproduce value for value; the messages it says
    and the checks ``play`` makes on its values are unchanged.
    """

    def prepare(self, k):
        self.net = games._game_network(self.g, self.kind)
        self.root = self.net.output(k)
        vec = brute_party_vector(self.g, nonedges(self.g), self.kind.name, self.role, self.own)
        self.vals = node_values(self.net.array, vec)

    def _value(self, node):
        return self.vals[node]


@contextlib.contextmanager
def full_vector_parties():
    """Within the block, ``games.play`` seats two ``FullVectorParty`` players."""
    with mock.patch.object(games, "_Party", FullVectorParty):
        yield


def reference_play(kind, g: Graph, a, b, cfg=None):
    """``play`` with both parties evaluating their full vectors."""
    with full_vector_parties():
        return games.play(kind, g, a, b, cfg)
