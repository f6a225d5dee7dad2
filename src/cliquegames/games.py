"""Separator circuits and the four two-party nonedge-finding games.

The games all share one shape: Alice holds a vertex set ``a``, Bob a
disjoint set ``b``, the graph is public, and a promise on the sizes of the
sets guarantees that a nonedge of the required kind exists.  The parties
exchange bits over a counting channel until both know the same nonedge.

The machinery: over one boolean variable per nonedge, associate with every
vertex v the monomial AND of the variables of nonedges touching v.  Alice's
set induces the incidence vector (1 exactly on nonedges touching ``a``),
Bob's the complementary vector.  A threshold (or induced-clique) circuit
applied to the monomials evaluates to 1 on Alice's vector and 0 on Bob's
whenever the promise holds, and a backward Karchmer-Wigderson-style walk
from the output gate, steered one bit per gate, lands on a variable where
the two vectors differ -- a nonedge touching both sets.

Game kinds:

* ``biclique``: promise |a|+|b| > max biclique size; answer crosses a and b.
* ``clique``: promise |a|+|b| > max clique size; answer lies within a ∪ b.
  Per the standard reduction, a side that is not a clique just announces one
  of its own nonedges, so the circuit phase only ever sees clique inputs.
* ``relaxed-clique``: same promise; the answer may also connect ``a`` to a
  common neighbor of ``b`` (Bob zeroes those variables too).
* ``edge-biclique``: promise |a|*|b| > K where no biclique of the graph has
  more than K edges; same circuits, crossing answer.

The message schedule is written once (``_protocol``): who speaks next, what
the message means, how wide it is and where the walk goes all follow from
the public data and the bits already sent.  ``play`` runs it with the two
parties answering and ``replay_transcript`` with a recorded transcript, so
the agreed nonedge is a function of the transcript alone, as in the
Karchmer-Wigderson game.  Both parties rebuild circuits deterministically
from shared data instead of exchanging them.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import repeat
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .circuit import (
    AND,
    CONST,
    OR,
    VAR,
    Circuit,
    CircuitBuilder,
    CircuitInvariantError,
    CountRow,
    Gate,
    balanced,
    build_threshold_sort,
    cone,
    count_tables,
    extract,
    node_depths,
    node_values,
    threshold_network,
)
from .graph import (
    Graph,
    NonedgeIndex,
    Pair,
    _bits,
    _common_neighbor_mask,
    _mask,
    common_neighbors,
    find_nonedge_within,
    has_complete_star,
    max_biclique_size,
    max_clique_size,
    max_edge_biclique,
    maximal_cliques,
    nonedges,
)


class PromiseViolationError(ValueError):
    """The input pair provably fails the game's promise."""


class SeparationError(RuntimeError):
    """A circuit failed to separate the two parties' vectors."""


GAME_NAMES = ("biclique", "clique", "relaxed-clique", "edge-biclique")


@dataclass(frozen=True)
class GameKind:
    """One of the four game variants; the edge variant carries its bound K.

    ``has_handshake`` (the clique-style games) and ``crossing_goal`` (the
    answer must cross a and b) follow from the name and are set when the
    kind is built, since every play and every referee step reads them.
    """

    name: str
    edge_bound: Optional[int] = None
    has_handshake: bool = field(init=False, repr=False, compare=False)
    crossing_goal: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.name not in GAME_NAMES:
            raise ValueError(f"unknown game kind {self.name!r}")
        if self.edge_bound is not None:
            if self.name != "edge-biclique":
                raise ValueError("only the edge-biclique game takes an edge bound")
            if self.edge_bound < 0:
                raise ValueError("edge bound must be nonnegative")
        object.__setattr__(self, "has_handshake", self.name in ("clique", "relaxed-clique"))
        object.__setattr__(self, "crossing_goal", self.name in ("biclique", "edge-biclique"))

    def undefined_on(self, g: Graph) -> bool:
        """True if ``g`` rules this game out: the clique-style games need the
        full nonedge space, and a bipartition declaration restricts it."""
        return self.has_handshake and g.bipartition is not None


BICLIQUE = GameKind("biclique")
CLIQUE = GameKind("clique")
RELAXED_CLIQUE = GameKind("relaxed-clique")
EDGE_BICLIQUE = GameKind("edge-biclique")


def kind_from_name(name: str, edge_bound: Optional[int] = None) -> GameKind:
    return GameKind(name, edge_bound)


@dataclass(frozen=True)
class GameConfig:
    """Settings shared by play and the harness; it holds no cache.

    ``seed`` is only recorded in the output: every circuit is the
    deterministic sorting-network construction.  ``oracle_limit`` is the
    largest n the exact oracles are asked about (promise checks, valid-input
    enumeration).  The
    separator networks depend on the graph and the circuit family alone,
    so they live in one bounded module-level memo (``_network``), keyed on
    values: equal graphs share one entry whichever constructor made them.
    Node values are never cached; a play computes the few it reads from the
    two sets (see ``_Party``).  Equal transcript entries are one shared
    object from a small process-wide memo (``_entry``).
    """

    seed: int = 0
    oracle_limit: int = 16


def incidence_vector(idx: NonedgeIndex, s: Iterable[int]) -> tuple[int, ...]:
    """Bit per nonedge: 1 exactly on nonedges with an endpoint in ``s``."""
    m = _mask(s)
    return tuple([1 if (m >> u & 1) or (m >> v & 1) else 0 for u, v in idx.pairs])


def non_incidence_vector(idx: NonedgeIndex, s: Iterable[int]) -> tuple[int, ...]:
    """Complement of ``incidence_vector``: 0 exactly on nonedges touching ``s``."""
    m = _mask(s)
    return tuple([0 if (m >> u & 1) or (m >> v & 1) else 1 for u, v in idx.pairs])


def relaxed_non_incidence_vector(
    g: Graph, idx: NonedgeIndex, b: Iterable[int]
) -> tuple[int, ...]:
    """Like ``non_incidence_vector`` but also 0 on nonedges spanned by Γ(b).

    A nonedge both of whose endpoints are common neighbors of ``b`` is an
    acceptable answer in the relaxed game, so Bob zeroes it as well; the
    result is pointwise <= the plain vector.
    """
    bm = _mask(b)
    gm = _gamma_mask(g, bm)
    out = []
    for u, v in idx.pairs:
        touches_b = (bm >> u & 1) or (bm >> v & 1)
        spanned = (gm >> u & 1) and (gm >> v & 1)
        out.append(0 if touches_b or spanned else 1)
    return tuple(out)


def _gamma_mask(g: Graph, bm: int) -> int:
    """Mask of Γ(b): the endpoints of the nonedges Bob's relaxed vector also zeroes."""
    if not bm:
        raise ValueError("relaxed vector requires a nonempty set")
    return _common_neighbor_mask(g, bm)


def monomial_universe(g: Graph) -> list[int]:
    """Vertices owning a monomial: the first part in bipartite mode, else all."""
    if g.bipartition is not None:
        return sorted(g.bipartition[0])
    return list(range(g.n))


def _vertex_monomials(b: CircuitBuilder, g: Graph, pairs: Sequence[Pair], vertices) -> list[int]:
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (x, y) in enumerate(pairs):
        incident[x].append(i)
        incident[y].append(i)
    monomials = []
    for v in vertices:
        if incident[v]:
            monomials.append(b.and_tree([b.var(i) for i in incident[v]]))
        elif g.bipartition is not None:
            # adjacent to the whole opposite part: the empty AND is constant 1
            monomials.append(b.const(1))
        else:
            raise ValueError(f"vertex {v} touches no nonedge; strip complete stars first")
    return monomials


class Graft(NamedTuple):
    """A group of slots in a ``SeparatorNetwork``, and where its sorting network lies."""

    start: int  # its first id; it ends where the next graft, or ``top``, starts
    slots: tuple[int, ...]  # the slot feeding each of its inputs


class SeparatorNetwork:
    """Every k's separator circuit of one (graph, family), each shared part held once.

    ``family`` is ``"threshold"`` (threshold-k of the vertex monomials of
    the monomial universe), ``"clique"`` (the induced-k-clique circuit
    applied to the monomials of every vertex) or ``"induced"`` (the
    induced-k-clique circuit on one variable per vertex).  The network works
    out from the graph its slots, one per vertex of ``vertices``, and its
    variables: one per nonedge of ``pairs`` (``nonedges`` order) for the
    monomial families, one per vertex for ``"induced"``, whose ``pairs`` is
    empty.  Networks come from one bounded memo (``_network``), since they
    depend on nothing else.

    Nodes have ids.  Each slot gets one input node, its vertex's monomial
    (or variable, for ``"induced"``); those nodes and the trees under them
    are the prefix, ids below ``lead``, built on the first request and
    validated once as ``array``.  Above them lie the grafts, one sorting
    network (``threshold_network``) per group of slots, back to back, and
    from ``top`` up round k's OR tree over the threshold-k node of every
    group with at least k slots.  The threshold family has one group of
    every slot, grafted into ``gates`` after the prefix, since a constant
    slot folds some of its gates away.  The clique families have one group
    per maximal clique, in ``maximal_cliques`` order, and store no graft
    gate: node i of a group's network has id ``start + i``, and its inputs
    are the group's slots, so all groups of one width share one cached
    network.  Round k's tree is built on the first request for k
    (``walk``), two child ids per gate, and a walk reads every node above
    the prefix through it.

    ``circuit(k)`` assembles round k's circuit on every call, numbered as
    one builder would number it for that k alone: the prefix cone under the
    slots the round reads, then each qualifying group's threshold-k cone
    (``build_threshold_sort``), then the OR tree.  ``depth`` builds no
    graft or tree gate: one ``node_depths`` pass over a group's network,
    from its inputs' depths, gives its threshold-k nodes' depths, once per
    pattern of input depths, and an OR tree pairs its leaves' depths as
    ``CircuitBuilder.or_tree`` pairs nodes.

    Plays read a monomial network through tables built on a party's first
    request (``prefix_rows``, ``slot_table``, ``round``, ``graft_reads``),
    so networks that only serve circuits never hold one, and every node a
    walk reads is read in closed form.  A prefix node is the AND of the
    nonedges from one vertex to a set of partners (a vertex monomial, a
    subtree of one, or a single variable), so one (vertex bit, partner
    mask) row per node gives any party's value from its own set mask alone.
    Which slots hold follows from the set masks and per-vertex partner
    masks by mask algebra (``SlotTable``), and which groups hold at least k
    of them from one column of groups per slot, built once per network in
    network group order.  A graft node is a node of its sorting network, so
    its ``count_tables`` row gives its value from two counts of the graft's
    slots that hold.  An OR-tree node covers one run of groups, stored as
    its first and last position (``RoundTable``), so the tables of a round
    grow linearly in its groups; it is 1 exactly when some group of that
    run holds at least k of its slots.
    """

    def __init__(self, g: Graph, family: str):
        self.g = g
        self.family = family
        self.vertices = monomial_universe(g) if family == "threshold" else range(g.n)
        self.slots = len(self.vertices)
        self.pairs: tuple[Pair, ...] = () if family == "induced" else nonedges(g).pairs
        self.gates: tuple[Gate, ...] | None = None
        self._var_count = g.n if family == "induced" else len(self.pairs)
        self._rows: tuple[tuple[int, int], ...] | None = None
        self._slot_table: SlotTable | None = None
        self._walks: dict[int, Sequence[Gate]] = {}
        self._rounds: dict[int, RoundTable] = {}
        self._widths: dict[int, Sequence[CountRow]] = {}

    def _build(self) -> None:
        b = CircuitBuilder(self._var_count)
        if self.family == "induced":
            slot_nodes = [b.var(v) for v in self.vertices]
        else:
            slot_nodes = _vertex_monomials(b, self.g, self.pairs, self.vertices)
        self.slot_nodes = slot_nodes
        self.lead = top = len(b)
        if self.family == "threshold":
            network, thresholds = threshold_network(self.slots)
            nodes = self._layout = b.graft(network, slot_nodes)  # the node map, until graft_reads inverts it
            self.roots = [nodes[t] for t in thresholds]
            self.grafts = [Graft(top, tuple(range(self.slots)))]
            top = len(b)
        else:
            self.grafts = []
            for group in maximal_cliques(self.g):
                self.grafts.append(Graft(top, group))
                top += len(threshold_network(len(group))[0].gates)
        self.graft_starts = [graft.start for graft in self.grafts]
        self.top = top
        self.array = b.snapshot(len(b) - 1)
        self.gates = self.array.gates

    def _leaves(self, k: int) -> tuple[list[int], list[int]]:
        """A clique family's round k groups, those with at least k slots, and their threshold-k nodes.

        The groups are given by their positions in network order.
        """
        at: dict[int, int] = {}  # per width, its network's threshold-k node
        groups, roots, nodes = [], [], self.slot_nodes
        for j, (start, slots) in enumerate(self.grafts):
            if len(slots) >= k:
                t = at.get(len(slots))
                if t is None:
                    t = at[len(slots)] = threshold_network(len(slots))[1][k - 1]
                groups.append(j)
                roots.append(start + t if t >= len(slots) else nodes[slots[t]])
        return groups, roots

    def _ready(self, k: int) -> None:
        """Check k, and build the prefix on the first request."""
        if not 1 <= k <= self.slots:
            raise ValueError(f"k={k} out of range 1..{self.slots}")
        if self.gates is None:
            self._build()

    def walk(self, k: int) -> Sequence[Gate]:
        """Round k's gates by id, as a walk reads them.

        The threshold family stores them all.  A clique family's round
        gets a ``_Walk``, its OR tree built here on the first request for k.
        """
        walk = self._walks.get(k)
        if walk is None:
            self._ready(k)
            walk = self._walks[k] = self.gates if self.family == "threshold" else self._tree_walk(self._leaves(k)[1])
        return walk

    def _tree_walk(self, roots: list[int]) -> _Walk:
        """A clique family's walk over the OR tree of ``roots``: the gates or_tree would add, from ``top``."""
        if not roots:
            return _Walk(self, ((CONST, 0),), self.top)
        tree = _OrTree(self.top)
        return _Walk(self, tree, balanced(tree.join, roots))

    def output(self, k: int) -> int:
        """The root of round k's circuit."""
        walk = self.walk(k)
        return self.roots[k - 1] if self.family == "threshold" else walk.root

    def circuit(self, k: int) -> Circuit:
        """Round k's circuit: the cone of its root, pruned and renumbered in id order.

        The threshold family's is the cone of its root in the stored graft,
        renumbered to follow the prefix.  A clique family's comes from a
        builder seeded with the prefix, which grafts each qualifying group's
        threshold-k cone (``build_threshold_sort``) and ORs their roots, as
        a builder for this k alone would.  When every slot is read, so is
        every prefix node, and the prefix keeps its ids; otherwise the
        whole is pruned to the root's cone (``extract``).
        """
        self._ready(k)
        lead = self.lead
        if self.family == "threshold":
            ids = cone(self.gates, root := self.roots[k - 1], lead)
            at = {old: new for new, old in enumerate(ids, lead)}
            upper = [(op, at.get(x, x), at.get(y, y)) for op, x, y in map(self.gates.__getitem__, ids)]
            whole = Circuit(self.gates[:lead] + tuple(upper), root := at.get(root, root), self._var_count)
        else:
            b = CircuitBuilder(self._var_count, self.gates)
            roots = []
            for graft in self.grafts:
                if len(graft.slots) >= k:
                    sub = build_threshold_sort(len(graft.slots), k)
                    roots.append(b.graft(sub, [self.slot_nodes[s] for s in graft.slots])[sub.output])
            if not roots:
                return Circuit(((CONST, 0),), 0, self._var_count)
            whole = b.snapshot(root := b.or_tree(roots))
        reads = {c for gate in whole.gates[lead:] if gate[0] != CONST for c in gate[1:] if c < lead}
        return whole if reads.issuperset(self.slot_nodes) else extract(whole.gates, root, self._var_count)

    @cached_property
    def depth(self) -> int:
        """The deepest round's circuit depth, with no graft or tree gate built."""
        if not self.slots:
            return 0
        self._ready(1)
        depths = node_depths(self.gates)
        if self.family == "threshold":
            return max(depths[root] for root in self.roots)
        inputs, rows, memo = [depths[node] for node in self.slot_nodes], [], {}
        for graft in self.grafts:
            # per pattern of input depths, its threshold-k node's depth for each k
            pattern = tuple(inputs[s] for s in graft.slots)
            if pattern not in memo:
                network, thresholds = threshold_network(len(pattern))
                reached = node_depths(network.gates, pattern)
                memo[pattern] = [reached[t] for t in thresholds]
            rows.append(memo[pattern])
        deeper = lambda x, y: (x if x > y else y) + 1  # noqa: E731
        widest = len(max(rows, key=len))
        return max(balanced(deeper, [row[k - 1] for row in rows if len(row) >= k]) for k in range(1, widest + 1))

    def prefix_rows(self) -> tuple[tuple[int, int], ...]:
        """Per node below ``lead``, the (vertex bit, partner mask) of the AND it is.

        A slot's row is its vertex and that vertex's nonedge partners, read
        from the graph.  The rows under it follow top-down from that vertex:
        a variable's partner is its nonedge's other end, an AND's partners
        are its children's, and the constant 1 of a vertex with no nonedge
        has none.  Any other gate, a variable off the slot's vertex, or a
        slot tree that misses some of its vertex's nonedges raises
        ``CircuitInvariantError``.
        """
        if self._rows is None:
            if self.gates is None:
                self._build()
            g, gates, pairs = self.g, self.gates, self.pairs
            rows: list = [None] * self.lead
            bits = [1 << u for u in range(g.n)]  # one int per vertex bit, shared by the rows
            v = bit = 0

            def partners(node: int) -> int:
                gate = gates[node]
                if gate[0] == VAR:
                    x, y = pairs[gate[1]]
                    if v != x and v != y:
                        raise CircuitInvariantError(f"prefix node {node} is a nonedge off vertex {v}")
                    found = bits[x + y - v]
                elif gate[0] == AND:
                    found = partners(gate[1]) | partners(gate[2])
                elif gate == (CONST, 1):
                    found = 0
                else:
                    raise CircuitInvariantError(f"prefix node {node} ({gate[0]}) is not an AND of nonedges")
                rows[node] = bit, found
                return found

            # nonedges run between any two vertices, or across the parts
            space = g.full_mask if g.bipartition is None else _mask(g.bipartition[1])
            verified = self._slot_partners = []
            for v, root in zip(self.vertices, self.slot_nodes):
                bit = bits[v]
                verified.append(partners(root))
                if verified[-1] != space & ~g.adj[v] & ~bit:
                    raise CircuitInvariantError(f"prefix node {root} is not the monomial of vertex {v}")
            self._rows = tuple(rows)
        return self._rows

    def slot_table(self) -> SlotTable:
        """The network's ``SlotTable``, built on a party's first request.

        Every slot's partners are its row in ``prefix_rows``, as that pass
        verified them against the graph; a vertex that is no slot gets the
        slot vertices it is a partner of.  A clique family's group columns
        are set one byte per (group, slot) and read as ints once.
        """
        if self._slot_table is None:
            self.prefix_rows()
            n, vertices, verified = self.g.n, self.vertices, self._slot_partners
            partners, space, constant = [0] * n, 0, 0
            for v, found in zip(vertices, verified):
                partners[v] = found
                space |= 1 << v
                if not found:
                    constant |= 1 << v
            for v, found in zip(vertices, verified):
                for u in _bits(found & ~space):
                    partners[u] |= 1 << v
            by_count = tuple(sorted((found.bit_count(), 1 << v, found) for v, found in zip(vertices, verified)))
            spread = None
            if self.slots != n:
                spread = [0] * n
                for s, v in enumerate(vertices):
                    spread[v] = 1 << s
            columns = []
            if self.family != "threshold":
                bufs = [bytearray(len(self.grafts) // 8 + 1) for _ in range(self.slots)]
                for j, graft in enumerate(self.grafts):
                    byte, bit = j >> 3, 1 << (j & 7)
                    for s in graft.slots:
                        bufs[s][byte] |= bit
                columns = [int.from_bytes(buf, "little") for buf in bufs]
            self._slot_table = SlotTable(partners, by_count, space, constant, spread, columns)
            del self._slot_partners  # the table holds all a play needs of them
        return self._slot_table

    def round(self, k: int) -> RoundTable:
        """Round k's play table, built on a party's first request for k.

        Each gate of the OR tree the walk reads (``walk``) must be an OR
        whose children are tree gates below it or groups' threshold-k nodes,
        and the groups under its two children must be two adjacent runs, in
        group order, or ``CircuitInvariantError`` is raised.  So every gate
        covers one run of groups, and its first and last position say
        exactly which.
        """
        table = self._rounds.get(k)
        if table is None:
            table = self._rounds[k] = self._round(k)
        return table

    def _round(self, k: int) -> RoundTable:
        self._ready(k)
        if self.family == "threshold":
            return RoundTable((), ())  # the root is a node of the one group
        groups, roots = self._leaves(k)
        walk = self._walks.get(k)
        if walk is None:
            walk = self._walks[k] = self._tree_walk(roots)
        top = self.top
        if walk.root < top:
            return RoundTable((), ())  # one group: its node is the root
        # per tree gate, the first and the last position among ``groups`` of the run under it
        first, last = array("l"), array("l")
        leaf, count = 0, len(roots)  # the group the next leaf must be: ``balanced`` joins them in order
        for node, gate in enumerate(walk.tree, top):
            if gate[0] != OR:
                raise _tree_error(node, k, "is no OR gate")
            x, y = gate[1], gate[2]
            if top <= x < node:
                lo, mid = first[x - top], last[x - top]
            elif leaf < count and roots[leaf] == x:
                lo = mid = leaf
                leaf += 1
            else:
                raise _tree_error(node, k, "joins groups that are not adjacent" if x in roots else "reads no group")
            if top <= y < node:
                on, hi = first[y - top], last[y - top]
            elif leaf < count and roots[leaf] == y:
                on = hi = leaf
                leaf += 1
            else:
                raise _tree_error(node, k, "joins groups that are not adjacent" if y in roots else "reads no group")
            if mid + 1 != on:
                raise _tree_error(node, k, "joins groups that are not adjacent")
            first.append(lo)
            last.append(hi)
        return RoundTable(array("l", map(groups.__getitem__, first)), array("l", map(groups.__getitem__, last)))

    def graft_reads(self, j: int) -> tuple[int, int, Sequence[CountRow]]:
        """Graft ``j``'s ids as count rows: (its first id, its end, one row per id).

        The rows are those of its network's nodes (``count_tables``), one
        list per width, built the first time a walk enters a graft of that
        width.  A clique family's graft is its network, id for id.  The
        threshold family's one graft may have folded some gates away, so its
        gates are matched up with the node map ``CircuitBuilder.graft``
        returned: each gate the graft added stands for the first network
        node mapped to it, after a constant the graft may add first.
        """
        start, slots = self.grafts[j]
        end = self.graft_starts[j + 1] if j + 1 < len(self.grafts) else self.top
        reads = self._widths.get(len(slots))
        if reads is None:
            reads = count_tables(threshold_network(len(slots))[0])
            if self.family == "threshold":
                behind: dict[int, int] = {}  # each added node, in the order it was made, and its network node
                for i, node in enumerate(self._layout):
                    if node >= start:
                        behind.setdefault(node, i)
                reads = [reads[i] for node, i in behind.items() if self.gates[node][0] != CONST]
                del self._layout  # the rows hold all a play needs of it
            self._widths[len(slots)] = reads
        return end - len(reads), end, reads


def _tree_error(node: int, k: int, what: str) -> CircuitInvariantError:
    return CircuitInvariantError(f"node {node} of round {k}'s OR tree {what}")


class _OrTree:
    """Round k's OR tree, numbered from ``top``, read as a tuple of (OR, left, right) gates.

    It stores two child ids per gate and no gate object, so a round of a
    network with many groups costs two machine words per gate.
    """

    __slots__ = ("top", "left", "right")

    def __init__(self, top: int):
        self.top, self.left, self.right = top, array("l"), array("l")

    def join(self, x: int, y: int) -> int:
        """Add the gate OR(x, y) and return its id."""
        self.left.append(x)
        self.right.append(y)
        return self.top + len(self.left) - 1

    def __len__(self) -> int:
        return len(self.left)

    def __getitem__(self, i: int) -> Gate:
        return OR, self.left[i], self.right[i]

    def __iter__(self):
        return zip(repeat(OR), self.left, self.right)


class _Walk:
    """A clique family's round k gates by id, read as a gate array.

    The prefix is read as it is stored, and the OR tree from ``top`` up.  A
    graft node is its network's node, its children's ids moved to the
    graft's (``window``: the last graft read, its first id and end, its
    network's gates and its slots).  ``_descend`` reads the prefix straight
    from the stored gates and only the nodes above it through the walk.
    """

    __slots__ = ("gates", "lead", "top", "tree", "root", "starts", "grafts", "slot_nodes", "window")

    def __init__(self, net: SeparatorNetwork, tree: Sequence[Gate], root: int):
        self.gates, self.lead, self.top, self.tree, self.root = net.gates, net.lead, net.top, tree, root
        self.starts, self.grafts, self.slot_nodes = net.graft_starts, net.grafts, net.slot_nodes
        self.window = (0, 0, (), ())

    def __getitem__(self, node: int) -> Gate:
        if node < self.lead:
            return self.gates[node]
        if node >= self.top:
            return self.tree[node - self.top]
        start, end, gates, slots = self.window
        if not start <= node < end:
            start, slots = self.grafts[bisect_right(self.starts, node) - 1]
            gates = threshold_network(len(slots))[0].gates
            end = start + len(gates)
            self.window = (start, end, gates, slots)
        op, left, right = gates[node - start]
        width, nodes = len(slots), self.slot_nodes
        left = left + start if left >= width else nodes[slots[left]]
        return op, left, right + start if right >= width else nodes[slots[right]]


class SlotTable(NamedTuple):
    """What a play reads of its network to tell which slots hold, built once per network.

    A slot's monomial is the AND of the nonedges from its vertex to that
    vertex's partners, so which slots hold follows from a party's set mask
    by a few ORs of partner masks (``_Party.prepare``).  ``partners`` holds
    per vertex its nonedge partners: a slot vertex's are its slot's
    verified row, and a vertex that is no slot (the second part of a
    bipartite graph) gets the slot vertices it is a partner of.
    ``by_count`` lists the slot vertices as (partner count, vertex bit,
    partners), fewest partners first.  ``space`` is the mask of the slot
    vertices and ``constant`` of those with no partner, whose monomial is
    constant 1.  ``spread`` gives each vertex its slot's bit when the slots
    are not the vertices 0..n-1 in order, and is None when they are.
    ``columns`` (clique families only; empty for the threshold family's one
    group) holds per slot the groups that contain it, one bit per group in
    network order.
    """

    partners: list[int]
    by_count: tuple[tuple[int, int, int], ...]
    space: int
    constant: int
    spread: list[int] | None
    columns: list[int]


class RoundTable(NamedTuple):
    """Round k's OR tree as a play reads it: each gate's run of groups.

    Per tree gate from ``top`` up, the groups under it are those at
    positions ``first`` through ``last`` in network order, but for any
    group between them with fewer than k slots, which never holds k of
    them.  A party counts with the network's columns which groups hold at
    least k of its slots (``_hits``), and a tree gate is 1 exactly when one
    of them lies in its run.  Both are empty when the tree has no gate.
    """

    first: Sequence[int]
    last: Sequence[int]


def _hits(ones: int, columns: Sequence[int], k: int) -> int:
    """The groups holding at least k of the slots in ``ones``, as one mask.

    A bit-sliced count: ``at_least[i]`` is the mask of groups holding at
    least i of the slots added so far, and adding a slot's column raises
    each level from the one below it.
    """
    at_least = [0] * (k + 1)
    while ones:
        low = ones & -ones
        column = columns[low.bit_length() - 1]
        for i in range(k, 1, -1):
            at_least[i] |= at_least[i - 1] & column
        at_least[1] |= column
        ones ^= low
    return at_least[k]


# Networks held at once.  The heaviest traffic, the benchmark's big-graphs
# workload, interleaves five (graph, family) networks in every round (plays
# on G(16, 1/2) and G(64, 1/2) in both families, and on G(128, 1/2) in the
# threshold family); the suites and the CLI use one at a time.  Eight keep
# all five warm.
@lru_cache(maxsize=8)
def _network(g: Graph, family: str) -> SeparatorNetwork:
    """The one ``SeparatorNetwork`` of (``g``, ``family``), shared by every caller."""
    return SeparatorNetwork(g, family)


def monomial_threshold_circuit(g: Graph, idx: NonedgeIndex, k: int) -> Circuit:
    """Threshold-k of the vertex monomials, over the nonedge variables.

    Fires exactly when at least k vertices (of the monomial universe) have
    all their incident nonedge variables set, i.e. when the input covers the
    incident-nonedge set of some k-element vertex set.  The variables are
    ``nonedges(g)``, which ``idx`` names; the circuit does not read it.
    """
    return _network(g, "threshold").circuit(k)


def induced_clique_circuit(g: Graph, k: int) -> Circuit:
    """Circuit on one variable per vertex: does the chosen set contain a k-clique?

    Every clique extends to a maximal one, so it suffices to OR, over the
    maximal cliques of size >= k, a threshold-k circuit restricted to that
    clique's variables.  Constant 0 when no maximal clique is large enough.
    """
    return _network(g, "induced").circuit(k)


def monomial_clique_circuit(g: Graph, idx: NonedgeIndex, k: int) -> Circuit:
    """Induced-k-clique circuit applied to the vertex monomials.

    Equivalent to the OR of monomials over k-cliques only, which is what the
    clique game needs: a clique ``b`` that shares no vertex with a clique
    ``c`` and satisfies the promise always kills every monomial.  Like the
    game, it rejects a bipartite-declared graph.  The variables are
    ``nonedges(g)``, which ``idx`` names; the circuit does not read it.
    """
    return _game_network(g, CLIQUE).circuit(k)


# --------------------------------------------------------------------------
# transcripts and the channel


@dataclass(frozen=True)
class TranscriptEntry:
    round: int
    sender: str  # "A" or "B"
    bits: str
    meaning: str


@lru_cache(maxsize=512)
def _entry(round: int, sender: str, bits: str, meaning: str) -> TranscriptEntry:
    """The channel's checked entry constructor.

    Equal messages share one entry, checked and built once: the plays of
    the whole n <= 5 catalog send 82 distinct messages in about 1.3 million,
    so a small bounded memo stands in for building one per message.  A
    malformed message is never memoized and raises every time.
    """
    if sender not in ("A", "B") or not _binary(bits):
        raise ValueError("malformed message")
    return TranscriptEntry(round, sender, bits, meaning)


@dataclass(frozen=True, slots=True)
class Transcript:
    """The entries of one play, in order; built from any iterable of them."""

    entries: tuple[TranscriptEntry, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    @property
    def total_bits(self) -> int:
        return sum(len(e.bits) for e in self.entries)

    def to_json_obj(self) -> list[dict]:
        return [
            {"round": e.round, "sender": e.sender, "bits": e.bits, "meaning": e.meaning}
            for e in self.entries
        ]


class _Channel:
    def __init__(self):
        self.entries: list[TranscriptEntry] = []

    @property
    def transcript(self) -> Transcript:
        return Transcript(self.entries)

    def send(self, sender: str, bits: str, meaning: str) -> str:
        entries = self.entries
        entries.append(_entry(len(entries) + 1, sender, bits, meaning))
        return bits


# The handshake of the clique-style games, one step per party in order:
# sender, meaning of the 1-bit clique flag, and meaning of the nonedge that
# follows a "0" flag.
_HANDSHAKE = (
    ("A", "alice-clique-flag", "alice-nonedge"),
    ("B", "bob-clique-flag", "bob-nonedge"),
)


def _binary(bits: str) -> bool:
    """Is ``bits`` a nonempty string of binary digits?  The one digit test of
    the channel, the replay and the pair decoder."""
    return bits != "" and not bits.strip("01")


def size_field_width(n: int) -> int:
    """Bits used to announce a set size in 0..n."""
    return n.bit_length()


def vertex_field_width(n: int) -> int:
    """Bits used to name one vertex id in 0..n-1."""
    return (n - 1).bit_length() if n > 1 else 1


def _encode_pair(pair: Pair, n: int) -> str:
    w = vertex_field_width(n)
    return format(pair[0], f"0{w}b") + format(pair[1], f"0{w}b")


def _decode_pair(bits: str, n: int) -> Pair:
    """Inverse of ``_encode_pair``; rejects anything it could not have sent.

    ``play`` sends the smaller vertex first (``find_nonedge_within`` gives
    u < v), so a pair in the other order raises too.
    """
    w = vertex_field_width(n)
    if len(bits) != 2 * w or not _binary(bits):
        raise ValueError(f"a vertex pair takes {2 * w} binary digits, got {bits!r}")
    u, v = int(bits[:w], 2), int(bits[w:], 2)
    if u >= n or v >= n:
        raise ValueError(f"vertex pair ({u}, {v}) out of range for n={n}")
    if u == v:
        raise ValueError(f"vertex pair ({u}, {v}) names one vertex twice")
    if u > v:
        raise ValueError(f"vertex pair ({u}, {v}) is not sent smaller vertex first")
    return u, v


# --------------------------------------------------------------------------
# game circuits and the two parties


def _game_network(g: Graph, kind: GameKind) -> SeparatorNetwork:
    if kind.undefined_on(g):
        raise ValueError("clique games need the full nonedge space; drop the bipartition")
    return _network(g, "clique" if kind.name == "clique" else "threshold")


def game_circuit(g: Graph, idx: NonedgeIndex, kind: GameKind, k: int, cfg: GameConfig) -> Circuit:
    """The circuit both parties deterministically rebuild for round k.

    Assembled by the network on every call; a play walks the same gates by
    id (``SeparatorNetwork.walk``), from round k's root.  The circuit depends on
    the graph, the kind and k alone: its variables are ``nonedges(g)``,
    which ``idx`` names, and ``cfg`` holds no circuit.  Neither is read.
    """
    return _game_network(g, kind).circuit(k)


# an empty window: every graft node is outside it
_NO_WINDOW = (0, 0, [], 0)


class _Party:
    """One side of a session.  Sees the graph, its own set, and the messages.

    Alice's target value is 1 (she steers OR gates toward a child that stays
    1 on her vector); Bob's is 0 (he steers AND gates toward a child that
    stays 0 on his).  Preference goes to the left child, and a bit is sent
    even when the choice is forced, so where the walk stands follows from
    the transcript alone (``_protocol``).

    A party never builds its vector over the nonedges, and it evaluates no
    gate: every node the walk reads is read in closed form from the
    network's tables (see ``SeparatorNetwork``).  ``prepare`` works out
    which slots hold by mask algebra on the network's ``SlotTable``, with
    work in the size of the sets and not in the number of slots: Alice's
    are her own and those whose partners all lie in ``a``, found among the
    slots with at most |a| partners; Bob's are all but those whose vertex or
    some partner is in ``b``, or, in the relaxed game, whose vertex and some
    partner are in Γ(b).  When round k has an OR tree it also works out
    which groups hold at least k of those slots (``_hits``).  A
    monomial-tree node is read from its prefix row, and an OR-tree node is
    1 exactly when a group in its run holds.  A graft node is two
    popcounts of the graft's local input pattern and one index into its
    count row.  The first read of a graft (``_enter``) takes that pattern
    and checks the graft's threshold-k node against the seed the walk was
    promised: the group's hit, or the count of its slots that hold when the
    round has no tree.  So a play reads only the nodes its walk touches.
    """

    def __init__(self, role: str, g: Graph, own: frozenset, kind: GameKind, mask: int | None = None):
        self.role = role
        self.target = 1 if role == "A" else 0
        self.g = g
        self.own = own
        self.kind = kind
        self.net: SeparatorNetwork | None = None
        self.mask = _mask(own) if mask is None else mask
        self.gamma = 0
        # ``prepare`` sets the round and its root, the prefix rows, which
        # slots and groups hold and where the layers start; each graft
        # entered (``entered``) gets a window (first gate, end, count rows,
        # local input pattern), the last one read in ``window``.  ``chose``
        # is the last left child this party found at its own target value.
        self.k = self.root = 0
        self.chose = -1

    def say(self, meaning: str, width: int) -> str:
        """This party's bits for one message of ``_protocol`` other than a descend bit."""
        if meaning == "set-size":
            return format(len(self.own), f"0{width}b")
        if meaning.endswith("clique-flag"):
            return "1" if self.g.is_clique(self.own) else "0"
        pair = find_nonedge_within(self.g, self.own)
        assert pair is not None
        return _encode_pair(pair, self.g.n)

    def prepare(self, k: int) -> None:
        """Get ready to read round k: which slots, and which groups, hold."""
        net = self.net = _game_network(self.g, self.kind)
        table = net.round(k)
        masks = net.slot_table()
        self.rows = net.prefix_rows()
        m = self.mask
        if self.target:
            # Alice's vector is 1 exactly on the nonedges touching a: a slot
            # holds when its vertex is in a or all its partners are, which
            # only a slot with at most |a| partners can
            held, size = m, len(self.own)
            for count, bit, partners in masks.by_count:
                if count > size:
                    break
                if not partners & ~m:
                    held |= bit
            held &= masks.space
        else:
            # Bob's is 0 on the nonedges touching b, and in the relaxed game
            # also on those with both endpoints in Γ(b): a slot fails when
            # its vertex or a partner is in b, or its vertex and a partner
            # are in Γ(b), unless it has no partner at all
            partners, touched = masks.partners, m
            for v in self.own:
                touched |= partners[v]
            if self.kind.name == "relaxed-clique":
                gm = self.gamma = _gamma_mask(self.g, m)
                spanned = 0
                for v in _bits(gm):
                    spanned |= partners[v]
                touched |= gm & spanned
            held = masks.space & ~touched | masks.constant
        ones = held if masks.spread is None else sum(masks.spread[v] for v in _bits(held))
        self.k, self.root, self.ones, self.entered = k, net.output(k), ones, {}
        self.lead, self.starts, self.tree_start = net.lead, net.graft_starts, net.top
        self.first, self.last = table
        self.hits = _hits(ones, masks.columns, k) if table.first else 0
        self.window = _NO_WINDOW

    def _enter(self, j: int) -> tuple:
        """Graft ``j``'s window, its threshold-k node checked against the seed."""
        slots, k, ones = self.net.grafts[j].slots, self.k, self.ones
        start, end, reads = self.net.graft_reads(j)
        if slots[-1] == len(slots) - 1:
            # slots 0..w-1: the pattern is the slot mask itself
            pattern = ones & ((1 << len(slots)) - 1)
        else:
            pattern = sum(1 << i for i, s in enumerate(slots) if ones >> s & 1)
        if self.net.family == "threshold":
            root = self.net.roots[k - 1] - start
        else:
            # node t of the network, an input for a group of one, whose row is exact too
            root = threshold_network(len(slots))[1][k - 1]
        # a root the threshold graft folded onto a constant slot is read where it lies
        if root >= 0:
            a, b, stair = reads[root]
            seed = self.hits >> j & 1 if self.first else pattern.bit_count() >= k
            if ((pattern & b).bit_count() >= stair[(pattern & a).bit_count()]) != seed:
                raise CircuitInvariantError("a graft disagrees with the threshold count of its inputs")
        window = self.entered[j] = (start, end, reads, pattern)
        return window

    def _value(self, node: int) -> int:
        if node < self.lead:
            # a node of a monomial tree, at or below a slot root: the AND of
            # the nonedges from one vertex to its partners
            bit, partners = self.rows[node]
            m = self.mask
            if self.target:
                return 1 if m & bit or not partners & ~m else 0
            gm = self.gamma
            return 0 if partners and (m & bit or partners & m or (gm & bit and partners & gm)) else 1
        if node >= self.tree_start:
            # a gate of round k's OR tree: does a group in its run hold?
            i = node - self.tree_start
            first = self.first[i]
            return 1 if self.hits >> first & ((2 << (self.last[i] - first)) - 1) else 0
        start, end, reads, pattern = self.window
        if not start <= node < end:
            # a graft, entered the first time
            j = bisect_right(self.starts, node) - 1
            start, end, reads, pattern = self.window = self.entered.get(j) or self._enter(j)
        a, b, stair = reads[node - start]
        return 1 if (pattern & b).bit_count() >= stair[(pattern & a).bit_count()] else 0


# --------------------------------------------------------------------------
# the message schedule


# who speaks at a gate the walk stands on; any other gate is a leaf
_SPEAKER = {AND: "B", OR: "A"}


def _descend(
    gates: Sequence[Gate],
    node: int,
    speak: Callable[[str, str, int, Optional[int]], str],
    stand: Optional[Callable[[int], None]] = None,
    upper: Optional[Sequence[Gate]] = None,
) -> int:
    """Walk from ``node`` to a variable, one bit per AND/OR gate.

    ``gates`` holds the nodes below ``len(gates)`` and ``upper``, when
    given, reads those above (a clique family's grafts and OR tree, through
    ``_Walk``); ids fall along the walk, so once it is in ``gates`` it stays
    there.  Bob speaks at an AND gate, Alice at an OR gate, each told the
    gate's left child, and "0" goes to that child.  ``stand`` sees every
    node the walk stands on, the first and the leaf included.  Returns the
    leaf's variable index.
    """
    lead = len(gates)
    while True:
        if stand is not None:
            stand(node)
        gate = gates[node] if node < lead else upper[node]
        sender = _SPEAKER.get(gate[0])
        if sender is None:
            if gate[0] == VAR:
                return gate[1]
            raise CircuitInvariantError("reached a constant leaf during traversal")
        left = gate[1]
        node = left if speak(sender, "descend", 1, left) == "0" else gate[2]


def _protocol(
    g: Graph,
    kind: GameKind,
    speak: Callable[[str, str, int, Optional[int]], str],
    stand: Optional[Callable[[int], None]] = None,
) -> Pair:
    """The message schedule of every game; returns the agreed nonedge.

    ``speak(sender, meaning, width, left)`` gives the bits of each message
    in turn: in the clique-style games the handshake of ``_HANDSHAKE``,
    which ends the game at the first "0" flag with that sender's nonedge;
    then Alice's set size k; then one descend bit per gate on the walk of
    round k's circuit, from its root in the network (``walk``), where
    ``left`` is that gate's left child (it is None for every other message).  ``stand`` is handed
    to ``_descend``.  The walk's variable maps to its nonedge through the
    network's ``pairs``.
    """
    if kind.has_handshake:
        for sender, flag, nonedge in _HANDSHAKE:
            if speak(sender, flag, 1, None) == "0":
                return _decode_pair(speak(sender, nonedge, 2 * vertex_field_width(g.n), None), g.n)
    k = int(speak("A", "set-size", size_field_width(g.n), None), 2)
    net = _game_network(g, kind)
    walk = net.walk(k)
    # the stored gates are read as they are; a clique family's walk reads the rest
    return net.pairs[_descend(net.gates, net.output(k), speak, stand, walk)]


def find_separating_variable(
    c: Circuit, one_vec: Sequence[int], zero_vec: Sequence[int], channel=None
) -> int:
    """Backward walk of a monotone circuit separating two assignments.

    Requires ``c`` to evaluate 1 on ``one_vec`` and 0 on ``zero_vec``; each
    AND gate costs one bit chosen by the zero side, each OR gate one bit by
    the one side, so at most depth(c) bits.  Returns a variable index where
    the first assignment has 1 and the second 0.
    """
    ones = node_values(c, one_vec)
    zeros = node_values(c, zero_vec)
    if ones[c.output] != 1 or zeros[c.output] != 0:
        raise SeparationError(
            "separation failure: assignments are not separated by this circuit"
        )

    def speak(sender: str, meaning: str, width: int, left: int) -> str:
        vals, target = (ones, 1) if sender == "A" else (zeros, 0)
        bit = "0" if vals[left] == target else "1"
        if channel is not None:
            channel.send(sender, bit, meaning)
        return bit

    return _descend(c.gates, c.output, speak)


# --------------------------------------------------------------------------
# outcome, validation, play


@dataclass(frozen=True, slots=True)
class Outcome:
    kind: GameKind
    graph: Graph
    a: frozenset
    b: frozenset
    nonedge: Pair
    alice_answer: Pair
    bob_answer: Pair
    kind_of_answer: str
    transcript: Transcript
    promise_verified: bool
    edge_bound: Optional[int]
    seed: int

    def to_json_obj(self) -> dict:
        g = self.graph
        obj = {
            "game": self.kind.name,
            "n": g.n,
            "a": sorted(g.labels[v] for v in self.a),
            "b": sorted(g.labels[v] for v in self.b),
            "builder": "sort",
            "seed": self.seed,
            "entries": self.transcript.to_json_obj(),
            "total_bits": self.transcript.total_bits,
            "nonedge": sorted(g.labels[v] for v in self.nonedge),
            "kind_of_answer": self.kind_of_answer,
            "promise_verified": self.promise_verified,
        }
        if self.kind.name == "edge-biclique":
            obj["edge_bound"] = self.edge_bound
        return obj


def classify_answer(g: Graph, a: frozenset, b: frozenset, pair: Pair) -> str:
    u, v = pair
    if u in a and v in a:
        return "within_a"
    if u in b and v in b:
        return "within_b"
    if (u in a and v in b) or (u in b and v in a):
        return "crossing"
    return "to_common_neighbor"


def legal_answer(kind: GameKind, g: Graph, a: frozenset, b: frozenset, pair: Pair) -> bool:
    """Referee predicate: is ``pair`` a valid answer for this game?"""
    u, v = min(pair), max(pair)
    if (u, v) in g.edges or u == v:
        return False
    if kind.crossing_goal:
        return (u in a and v in b) or (u in b and v in a)
    within = u in (a | b) and v in (a | b)
    if kind.name == "clique" or within:
        return within
    if not b:
        return False
    gamma = common_neighbors(g, b)
    return (u in a and v in gamma) or (v in a and u in gamma)


def _mask_within(s: frozenset, n: int) -> int | None:
    """The mask of ``s``, or None if a vertex lies outside 0..n-1 (checked before its bit is made)."""
    m = 0
    for v in s:
        if not 0 <= v < n:
            return None
        m |= 1 << v
    return m


def _check_structure(kind: GameKind, g: Graph, a: frozenset, b: frozenset) -> tuple[int, int]:
    """The checks on the input that call no oracle; returns the masks of ``a`` and ``b``."""
    am, bm = _mask_within(a, g.n), _mask_within(b, g.n)
    if am is None or bm is None:
        for v in a | b:
            if not 0 <= v < g.n:
                raise ValueError(f"vertex {v} out of range")
    if am & bm:
        raise PromiseViolationError("rejected input: the two sets intersect")
    if has_complete_star(g):
        raise ValueError("graph has a complete star; apply strip_stars first")
    if kind.undefined_on(g):
        raise ValueError(
            "clique games need the full nonedge space; load the graph without "
            "the bipartition declaration"
        )
    if kind.crossing_goal:
        if not a or not b:
            raise PromiseViolationError("rejected input: both sets must be nonempty")
        if g.bipartition is not None:
            left, right = g.bipartition
            if not a <= left:
                raise PromiseViolationError("rejected input: a must lie in the first part")
            if not b <= right:
                raise PromiseViolationError("rejected input: b must lie in the second part")
    return am, bm


def promise_bound(kind: GameKind, g: Graph) -> int:
    """The K of the kind's promise: ``promise_size(kind, |a|, |b|) > K``.

    The max biclique size, the edge bound (the max edge biclique when none
    is given) or the max clique size.  Calls the exact oracles, except for
    an edge bound that is given.
    """
    if kind.name == "biclique":
        return max_biclique_size(g)
    if kind.name == "edge-biclique":
        return kind.edge_bound if kind.edge_bound is not None else max_edge_biclique(g)
    return max_clique_size(g)


def promise_size(kind: GameKind, a_size: int, b_size: int) -> int:
    """What the promise compares with ``promise_bound``: |a|*|b| for the edge game, else |a|+|b|."""
    return a_size * b_size if kind.name == "edge-biclique" else a_size + b_size


def _check_promise(
    kind: GameKind, g: Graph, a: frozenset, b: frozenset, cfg: GameConfig
) -> tuple[bool, Optional[int]]:
    """Best-effort promise validation.

    Returns (verified, resolved edge bound).  Provable violations raise;
    instances beyond the oracle limit are trusted and flagged unverified.
    """
    feasible = g.n <= cfg.oracle_limit
    edge = kind.name == "edge-biclique"
    if not feasible:
        if not edge:
            return False, None
        if kind.edge_bound is None:
            raise ValueError("edge-biclique needs an explicit edge bound beyond the oracle limit")
    bound = promise_bound(kind, g)
    size = promise_size(kind, len(a), len(b))
    if size <= bound:
        if edge:
            raise PromiseViolationError(f"rejected input: |a|*|b| = {size} <= edge bound {bound}")
        raise PromiseViolationError(f"rejected input: |a|+|b| = {size} <= {bound}")
    if not edge:
        return True, None
    if feasible and bound < max_edge_biclique(g):
        raise PromiseViolationError(
            f"rejected input: edge bound {bound} is below the true maximum "
            f"edge biclique {max_edge_biclique(g)}"
        )
    return feasible, bound


def play(
    kind: GameKind,
    g: Graph,
    a: Iterable[int],
    b: Iterable[int],
    config: Optional[GameConfig] = None,
) -> Outcome:
    """Run one full game between two information-separated parties.

    Phases: optional clique handshake (clique/relaxed games), Alice's
    fixed-width size announcement, deterministic circuit construction on
    both sides, the one-bit-per-gate backward traversal, and the shared
    mapping of the reached variable back to a nonedge, all in the order
    ``_protocol`` gives.  Each party checks its own value wherever the walk
    stands.  Both parties follow that one walk, so the outcome's
    ``alice_answer`` and ``bob_answer`` are both the agreed nonedge.
    """
    cfg = config if config is not None else GameConfig()
    a = frozenset(a)
    b = frozenset(b)
    am, bm = _check_structure(kind, g, a, b)
    promise_verified, edge_bound = _check_promise(kind, g, a, b, cfg)
    entries: list[TranscriptEntry] = []
    alice = _Party("A", g, a, kind, am)
    bob = _Party("B", g, b, kind, bm)

    def speak(sender: str, meaning: str, width: int, left: Optional[int]) -> str:
        party = alice if sender == "A" else bob
        if left is not None:
            # a descend bit: "0" when the left child keeps the speaker's value
            if party._value(left) == party.target:
                party.chose, bits = left, "0"
            else:
                bits = "1"
        else:
            bits = party.say(meaning, width)
            if meaning == "set-size":
                alice.prepare(int(bits, 2))
                bob.prepare(int(bits, 2))
        entries.append(_entry(len(entries) + 1, sender, bits, meaning))
        return bits

    def stand(node: int) -> None:
        # the output must separate the two vectors; below it the speaker
        # keeps its own value by its choice and the other party by the
        # gate's semantics, so a miss there means the circuit rules are wrong.
        # A party's value at the left child it has just chosen is known.
        if (alice.chose == node or alice._value(node)) and (bob.chose == node or not bob._value(node)):
            return
        for party in (alice, bob):
            value = party._value(node)
            if value == party.target:
                continue
            if node != party.root:
                raise CircuitInvariantError("traversal invariant broke; circuit rules are wrong")
            side = "first" if party.role == "A" else "second"
            raise SeparationError(
                f"separation failure: the {side} party's vector evaluates to "
                f"{value}, expected {party.target} [game={kind.name}, k={len(a)}]"
            )

    nonedge = _protocol(g, kind, speak, stand)
    if nonedge in g.edges:
        raise CircuitInvariantError("the agreed pair is an edge, not a nonedge")
    return Outcome(
        kind=kind,
        graph=g,
        a=a,
        b=b,
        nonedge=nonedge,
        alice_answer=nonedge,
        bob_answer=nonedge,
        kind_of_answer=classify_answer(g, a, b, nonedge),
        transcript=Transcript(entries),
        promise_verified=promise_verified,
        edge_bound=edge_bound,
        seed=cfg.seed,
    )


def replay_transcript(
    g: Graph,
    kind: GameKind,
    transcript: Transcript | Sequence[TranscriptEntry],
    config: Optional[GameConfig] = None,
) -> Pair:
    """Recover the agreed nonedge from the transcript and public data alone.

    This is the referee's decoder: it sees neither party's set, only the
    bits, so it doubles as a check that the answer really is common
    knowledge.  It accepts exactly what ``play`` can emit: entry i has
    round i, and its sender and width follow from the game, n and, for a
    descend bit, the op of the gate the walk stands at.  A handshake pair
    must be a nonedge of ``g``.  Anything else raises ``ValueError``, except
    a walk onto a constant leaf, which raises ``CircuitInvariantError``.
    The decoding depends on the graph, the kind and the bits alone;
    ``config`` is accepted and not read.
    """
    entries = transcript.entries if isinstance(transcript, Transcript) else list(transcript)
    pos = 0

    def take(sender: str, meaning: str, width: int, left: Optional[int]) -> str:
        nonlocal pos
        if pos == len(entries):
            raise ValueError(f"transcript ends where entry {pos + 1} ({meaning}) is due")
        e = entries[pos]
        pos += 1
        bad = e.round != pos or e.sender != sender or e.meaning != meaning
        if bad or len(e.bits) != width or not _binary(e.bits):
            raise ValueError(
                f"transcript malformed at entry {pos}: expected round {pos}, "
                f"sender {sender} and {width} binary digit(s) of {meaning}"
            )
        return e.bits

    pair = _protocol(g, kind, take)
    if pair in g.edges:
        raise ValueError(f"handshake pair {pair} is an edge, not a nonedge")
    if pos != len(entries):
        raise ValueError("transcript has trailing entries")
    return pair


def bit_bound(kind: GameKind, g: Graph, config: Optional[GameConfig] = None) -> int:
    """The protocol's own worst-case bit guarantee on this graph.

    The maximum over the ways a play can end.  The circuit branch is the
    fixed-width size announcement plus the depth of the deepest circuit the
    protocol could traverse, after two clique flags in the clique-style
    games; there the handshake branch, two flags and one vertex pair, is the
    other way out.  The depth is that of every k's circuit, worked out by
    the network without building one (``SeparatorNetwork.depth``), so it is
    a checkable bound rather than an asymptotic claim, and later plays find
    the network's prefix built.  The
    bound depends on the graph and the kind alone; ``config`` is accepted
    and not read.
    """
    circuit_branch = size_field_width(g.n) + _game_network(g, kind).depth
    if not kind.has_handshake:
        return circuit_branch
    return max(2 + 2 * vertex_field_width(g.n), 2 + circuit_branch)
