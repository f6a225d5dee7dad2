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

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from .circuit import (
    AND,
    CONST,
    OR,
    VAR,
    Circuit,
    CircuitBuilder,
    CircuitInvariantError,
    Gate,
    cone,
    extract,
    node_depths,
    node_values,
    threshold_network,
)
from .graph import (
    Graph,
    NonedgeIndex,
    Pair,
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
    """One of the four game variants; the edge variant carries its bound K."""

    name: str
    edge_bound: Optional[int] = None

    def __post_init__(self):
        if self.name not in GAME_NAMES:
            raise ValueError(f"unknown game kind {self.name!r}")
        if self.edge_bound is not None:
            if self.name != "edge-biclique":
                raise ValueError("only the edge-biclique game takes an edge bound")
            if self.edge_bound < 0:
                raise ValueError("edge bound must be nonnegative")

    @property
    def has_handshake(self) -> bool:
        return self.name in ("clique", "relaxed-clique")

    @property
    def crossing_goal(self) -> bool:
        return self.name in ("biclique", "edge-biclique")

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


@dataclass
class GameConfig:
    """Settings shared by play and the harness, plus a per-graph memo table.

    ``seed`` is only recorded in the output: every circuit is the
    deterministic sorting-network construction.  ``circuit_cache`` is pure
    memoization keyed on immutable inputs (the graph, and the circuit
    family): sharing a config across plays of the same graph avoids
    rebuilding its nonedge index and its separator networks.  It is not
    bounded, so the harness caches one graph at a time: ``run_suite`` hands
    each graph a fresh config with the caller's settings.  Node values are
    never cached; a play computes the few it reads from the two sets (see
    ``_Party``).
    """

    seed: int = 0
    oracle_limit: int = 16
    circuit_cache: dict = field(default_factory=dict, repr=False, compare=False)


def incidence_vector(idx: NonedgeIndex, s: Iterable[int]) -> tuple[int, ...]:
    """Bit per nonedge: 1 exactly on nonedges with an endpoint in ``s``."""
    m = _mask(s)
    return tuple(1 if (m >> u & 1) or (m >> v & 1) else 0 for u, v in idx.pairs)


def non_incidence_vector(idx: NonedgeIndex, s: Iterable[int]) -> tuple[int, ...]:
    """Complement of ``incidence_vector``: 0 exactly on nonedges touching ``s``."""
    m = _mask(s)
    return tuple(0 if (m >> u & 1) or (m >> v & 1) else 1 for u, v in idx.pairs)


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


def _vertex_monomials(b: CircuitBuilder, g: Graph, idx: NonedgeIndex, vertices) -> list[int]:
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for i, (x, y) in enumerate(idx.pairs):
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
    """One whole sorting network in a ``SeparatorNetwork``'s array, over a group of slots."""

    start: int  # its first node; it ends where the next graft, or the first OR tree, starts
    slots: tuple[int, ...]  # the slot feeding each of its inputs
    mask: int  # the same slots as a bitmask
    roots: tuple[int, ...]  # roots[k - 1] is its threshold-k node


class SeparatorNetwork:
    """Every k's separator circuit of one (graph, family), in one gate array.

    The array is built on the first request.  ``leaves(b)`` builds one input
    node per slot on the builder ``b`` and returns them: the vertex
    monomials for game circuits, plain vertex variables for
    ``induced_clique_circuit``.  Those nodes and the trees under them are the
    prefix, the ids below ``lead``.  Above it lie the grafts, back to back:
    one whole sorting network (``threshold_network``) per group of slots,
    where the threshold family has one group of every slot and the clique
    family one per maximal clique, in ``maximal_cliques`` order.  Each is
    recorded as it is grafted (``Graft``).  Last come the OR trees, for
    k = 1..slots: round k's is the OR of the threshold-k node of every
    group with at least k slots (an OR of one node adds no gate), and its
    root is ``outputs[k]``; it starts at ``tree_starts[k]``.

    ``circuit(k)`` extracts round k's cone from the array (``extract``) on
    every call; the network keeps none of them, nor the builder that made
    the array.  Constant folding acts gate by gate and grafts never share
    gates, so the cone is exactly the circuit a fresh builder would produce
    for that k alone, grafting only each network's threshold-k cone.  The
    array is validated once, as one circuit (``array``), and ``depth``
    comes from one pass over it.

    A network over vertex monomials also gets ``vertices``, the vertex of
    each slot.  Plays read it through tables built on a party's first
    request (``monomial_masks``, ``round``, ``cone``), so networks that only
    serve circuits never hold one.
    """

    def __init__(
        self,
        g: Graph,
        family: str,
        slots: int,
        var_count: int,
        leaves: Callable[[CircuitBuilder], list[int]],
        vertices: Sequence[int] = (),
    ):
        self.g = g
        self.family = family
        self.slots = slots
        self.vertices = vertices
        self.gates: tuple[Gate, ...] | None = None
        self._var_count = var_count
        self._leaves = leaves
        self._masks: tuple[tuple[int, ...], tuple[int, ...]] | None = None
        self._rounds: dict[int, RoundTable] = {}

    def _build(self) -> None:
        b = CircuitBuilder(self._var_count)
        self.slot_nodes = slot_nodes = self._leaves(b)
        self.lead = len(b)
        groups = maximal_cliques(self.g) if self.family == "clique" else [tuple(range(self.slots))]
        self.grafts = []
        for group in groups:
            network, thresholds = threshold_network(len(group))
            start = len(b)
            nodes = b.graft(network, [slot_nodes[s] for s in group])
            self.grafts.append(Graft(start, tuple(group), _mask(group), tuple(nodes[t] for t in thresholds)))
        self.graft_starts = [graft.start for graft in self.grafts]
        self.outputs, self.tree_starts = [-1], [-1]
        for k in range(1, self.slots + 1):
            roots = [graft.roots[k - 1] for graft in self.grafts if len(graft.roots) >= k]
            self.tree_starts.append(len(b))
            self.outputs.append(b.or_tree(roots) if roots else b.const(0))
        self.array = b.snapshot(len(b) - 1)
        self.gates = self.array.gates

    def output(self, k: int) -> int:
        """The root of round k's circuit in the array."""
        if not 1 <= k <= self.slots:
            raise ValueError(f"k={k} out of range 1..{self.slots}")
        if self.gates is None:
            self._build()
        return self.outputs[k]

    def circuit(self, k: int) -> Circuit:
        """Round k's circuit: the cone of its root, pruned and renumbered."""
        out = self.output(k)  # builds the array on the first request
        return extract(self.gates, out, self._var_count)

    @cached_property
    def depth(self) -> int:
        """The deepest round's circuit depth, from one pass over the array."""
        if not self.slots:
            return 0
        if self.gates is None:
            self._build()
        depths = node_depths(self.gates)
        return max(depths[out] for out in self.outputs[1:])

    def monomial_masks(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Per slot, the bit of its vertex and the mask of its nonedge partners."""
        if self._masks is None:
            g = self.g
            # nonedges run between any two vertices, or across the parts
            space = g.full_mask if g.bipartition is None else _mask(g.bipartition[1])
            bits = tuple(1 << v for v in self.vertices)
            self._masks = bits, tuple(space & ~g.adj[v] & ~bit for v, bit in zip(self.vertices, bits))
        return self._masks

    def round(self, k: int) -> RoundTable:
        """Round k's play table, built on a party's first request for k."""
        table = self._rounds.get(k)
        if table is None:
            root = self.output(k)
            grafts = [graft for graft in self.grafts if len(graft.roots) >= k]
            tree = _block(self.gates, [graft.roots[k - 1] for graft in grafts], root, self.tree_starts[k])
            if not tree.program:
                # an OR over one group, or none: the root is that group's node or a constant
                grafts, tree = [], None
            table = self._rounds[k] = RoundTable(tuple(graft.mask for graft in grafts), tree, {})
        return table

    def cone(self, j: int, k: int) -> Block:
        """Graft ``j``'s gates under its threshold-k node, as a block over its slots."""
        cones = self.round(k).cones
        block = cones.get(j)
        if block is None:
            graft = self.grafts[j]
            inputs = [self.slot_nodes[s] for s in graft.slots]
            block = cones[j] = _block(self.gates, inputs, graft.roots[k - 1], graft.start)
        return block


class Block(NamedTuple):
    """Gates from one node up, renumbered for ``_run``: a flat pass over a local list.

    The list starts with the values of the block's inputs; node n sits at
    n - ``base``.  ``program`` holds one (position, is AND, left, right)
    per gate, in order.
    """

    program: tuple[tuple[int, bool, int, int], ...]
    base: int
    length: int


class RoundTable(NamedTuple):
    """What a play of round k reads of its network beyond the slot masks.

    ``masks`` holds the slot mask of each group with at least k slots,
    whose threshold-k nodes are the inputs of ``tree``, round k's OR tree,
    in that order; ``masks`` is empty and ``tree`` None when the tree has no
    gate.  ``cones[j]`` is graft j's round-k cone, added the first time a
    walk enters the graft.
    """

    masks: tuple[int, ...]
    tree: Block | None
    cones: dict[int, Block]


def _block(gates: Sequence[Gate], inputs: Sequence[int], root: int, start: int) -> Block:
    """The gates from ``start`` up under ``root`` as a ``Block`` over ``inputs``."""
    ids = cone(gates, root, start)
    base = start - len(inputs)
    pos = {node: i for i, node in enumerate(inputs)}
    program = []
    for node in ids:
        gate = gates[node]
        if gate[0] not in (AND, OR):
            raise CircuitInvariantError(f"node {node} above the slots is a {gate[0]} leaf")
        pos[node] = node - base
        program.append((node - base, gate[0] == AND, pos[gate[1]], pos[gate[2]]))
    return Block(tuple(program), base, ids[-1] - base + 1 if ids else len(inputs))


def _run(inputs: list[int], block: Block) -> list[int]:
    """One flat pass over ``block``, given its inputs' values; returns its local list."""
    vals = inputs + [None] * (block.length - len(inputs))
    for out, is_and, left, right in block.program:
        vals[out] = vals[left] & vals[right] if is_and else vals[left] | vals[right]
    return vals


def _monomial_network(g: Graph, idx: NonedgeIndex, family: str) -> SeparatorNetwork:
    """The network of game circuits over the vertex monomials of ``g``.

    ``family`` is ``"threshold"`` (threshold-k of the monomials of the
    monomial universe) or ``"clique"`` (the induced-k-clique circuit applied
    to the monomials of every vertex).
    """
    universe = range(g.n) if family == "clique" else monomial_universe(g)
    return SeparatorNetwork(
        g,
        family,
        len(universe),
        len(idx),
        lambda b: _vertex_monomials(b, g, idx, universe),
        universe,
    )


def monomial_threshold_circuit(g: Graph, idx: NonedgeIndex, k: int) -> Circuit:
    """Threshold-k of the vertex monomials, over the nonedge variables.

    Fires exactly when at least k vertices (of the monomial universe) have
    all their incident nonedge variables set, i.e. when the input covers the
    incident-nonedge set of some k-element vertex set.
    """
    return _monomial_network(g, idx, "threshold").circuit(k)


def induced_clique_circuit(g: Graph, k: int) -> Circuit:
    """Circuit on one variable per vertex: does the chosen set contain a k-clique?

    Every clique extends to a maximal one, so it suffices to OR, over the
    maximal cliques of size >= k, a threshold-k circuit restricted to that
    clique's variables.  Constant 0 when no maximal clique is large enough.
    """
    return _induced_network(g).circuit(k)


# the induced-clique suite asks for every k of one graph in a row
@lru_cache(maxsize=4)
def _induced_network(g: Graph) -> SeparatorNetwork:
    return SeparatorNetwork(g, "clique", g.n, g.n, lambda b: [b.var(v) for v in range(g.n)])


def monomial_clique_circuit(g: Graph, idx: NonedgeIndex, k: int) -> Circuit:
    """Induced-k-clique circuit applied to the vertex monomials.

    Equivalent to the OR of monomials over k-cliques only, which is what the
    clique game needs: a clique ``b`` that shares no vertex with a clique
    ``c`` and satisfies the promise always kills every monomial.  Like the
    game, it rejects a bipartite-declared graph.
    """
    return game_circuit(g, idx, CLIQUE, k, GameConfig())


# --------------------------------------------------------------------------
# transcripts and the channel


@dataclass(frozen=True)
class TranscriptEntry:
    round: int
    sender: str  # "A" or "B"
    bits: str
    meaning: str


@dataclass
class Transcript:
    entries: list[TranscriptEntry] = field(default_factory=list)

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
        self.transcript = Transcript()

    def send(self, sender: str, bits: str, meaning: str) -> str:
        if sender not in ("A", "B") or not bits or bits.strip("01"):
            raise ValueError("malformed message")
        self.transcript.entries.append(
            TranscriptEntry(len(self.transcript.entries) + 1, sender, bits, meaning)
        )
        return bits


# The handshake of the clique-style games, one step per party in order:
# sender, meaning of the 1-bit clique flag, and meaning of the nonedge that
# follows a "0" flag.
_HANDSHAKE = (
    ("A", "alice-clique-flag", "alice-nonedge"),
    ("B", "bob-clique-flag", "bob-nonedge"),
)


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
    """Inverse of ``_encode_pair``; rejects anything it could not have sent."""
    w = vertex_field_width(n)
    if len(bits) != 2 * w or set(bits) - {"0", "1"}:
        raise ValueError(f"a vertex pair takes {2 * w} binary digits, got {bits!r}")
    u, v = int(bits[:w], 2), int(bits[w:], 2)
    if u >= n or v >= n:
        raise ValueError(f"vertex pair ({u}, {v}) out of range for n={n}")
    if u == v:
        raise ValueError(f"vertex pair ({u}, {v}) names one vertex twice")
    return (u, v) if u < v else (v, u)


# --------------------------------------------------------------------------
# game circuits and the two parties


def _family(kind: GameKind) -> str:
    return "clique" if kind.name == "clique" else "threshold"


def _game_network(g: Graph, idx: NonedgeIndex, kind: GameKind, cfg: GameConfig) -> SeparatorNetwork:
    if kind.undefined_on(g):
        raise ValueError("clique games need the full nonedge space; drop the bipartition")
    family = _family(kind)
    key = (g, family)
    net = cfg.circuit_cache.get(key)
    if net is None:
        net = _monomial_network(g, idx, family)
        cfg.circuit_cache[key] = net
    return net


def game_circuit(g: Graph, idx: NonedgeIndex, kind: GameKind, k: int, cfg: GameConfig) -> Circuit:
    """The circuit both parties deterministically rebuild for round k.

    Extracted from the network's array on every call; a play walks the same
    gates in the array itself, from round k's root.
    """
    return _game_network(g, idx, kind, cfg).circuit(k)


def _nonedge_index(g: Graph, cfg: GameConfig) -> NonedgeIndex:
    key = ("nonedges", g)
    idx = cfg.circuit_cache.get(key)
    if idx is None:
        idx = nonedges(g)
        cfg.circuit_cache[key] = idx
    return idx


# an empty window: every node above the monomial trees is outside it
_NO_WINDOW = (0, 0, [], 0)


class _Party:
    """One side of a session.  Sees the graph, its own set, and the messages.

    Alice's target value is 1 (she steers OR gates toward a child that stays
    1 on her vector); Bob's is 0 (he steers AND gates toward a child that
    stays 0 on his).  Preference goes to the left child, and a bit is sent
    even when the choice is forced, so where the walk stands follows from
    the transcript alone (``_protocol``).

    A party never builds its vector over the nonedges, and it evaluates
    only what round k can read of the network's array.  Every node is an
    AND or OR of variables, and a party's value on a variable, or on the
    AND of all variables at one vertex, follows from its own set mask and
    that vertex's nonedge-partner mask (``_holds``).  So ``prepare`` sets
    the slot roots from the masks, and evaluates round k's OR tree
    (``SeparatorNetwork.round``) in one flat pass over its inputs, the
    groups' threshold-k nodes, each seeded from the count of the group's
    slots that hold, since a graft is exactly threshold-k of its slots.
    The rest is evaluated only when the walk reads it (``_value``): a node
    of a graft evaluates that graft's round-k cone in one flat pass
    (``SeparatorNetwork.cone``), which must reproduce the seeded value of
    its threshold-k node, and a node of a monomial tree is evaluated from
    its own variables.  The OR tree and each graft entered keep their values
    in a list of their own, a window on the array, so a play allocates
    nothing the size of the array.
    """

    def __init__(self, role: str, g: Graph, idx: NonedgeIndex, own: frozenset, kind: GameKind, cfg: GameConfig):
        self.role = role
        self.target = 1 if role == "A" else 0
        self.g = g
        self.idx = idx
        self.own = own
        self.kind = kind
        self.cfg = cfg
        self.net: SeparatorNetwork | None = None
        self.mask = 0
        self.gamma = 0
        # ``prepare`` sets the round, its table and root, which slots hold,
        # where the layers start and the monomial-tree values (``memo``); the
        # OR tree (``tree``) and each graft entered (``entered``) get a window
        # (first node, end, values, base), the last one read in ``window``
        self.k = self.root = 0
        self.table: RoundTable | None = None

    def say(self, meaning: str, width: int, node: int | None) -> str:
        """This party's bits for one message of ``_protocol``."""
        if node is not None:
            return self.descend_bit(node)
        if meaning == "set-size":
            return format(len(self.own), f"0{width}b")
        if meaning.endswith("clique-flag"):
            return "1" if self.g.is_clique(self.own) else "0"
        pair = find_nonedge_within(self.g, self.own)
        assert pair is not None
        return _encode_pair(pair, self.g.n)

    def _holds(self, bit: int, partners: int) -> int:
        """This party's value of the AND over the nonedges from ``bit`` to ``partners``.

        ``bit`` is one vertex's bit.  With all its nonedge partners this is
        the vertex monomial (constant 1 when there are none); with one
        partner it is that nonedge's variable.
        """
        m = self.mask
        if self.role == "A":
            # Alice's vector is 1 exactly on the nonedges touching a
            return 1 if m & bit or not partners & ~m else 0
        # Bob's is 0 on the nonedges touching b, and in the relaxed game
        # also on those with both endpoints in Γ(b)
        gm = self.gamma
        return 0 if partners and (m & bit or partners & m or (gm & bit and partners & gm)) else 1

    def prepare(self, k: int) -> None:
        net = self.net = _game_network(self.g, self.idx, self.kind, self.cfg)
        table = self.table = net.round(k)
        self.mask = _mask(self.own)
        if self.role == "B" and self.kind.name == "relaxed-clique":
            self.gamma = _gamma_mask(self.g, self.mask)
        memo = self.memo = {}
        ones = 0
        for slot, (node, bit, partners) in enumerate(zip(net.slot_nodes, *net.monomial_masks())):
            val = memo[node] = self._holds(bit, partners)
            ones |= val << slot
        self.k, self.root, self.ones, self.entered = k, net.outputs[k], ones, {}
        self.lead, self.starts, self.tree_start = net.lead, net.graft_starts, net.tree_starts[k]
        self.tree = self.window = _NO_WINDOW
        if table.tree is not None:
            # the walk reads the seeded inputs only through ``_enter``, which checks them
            seeds = [1 if (ones & m).bit_count() >= k else 0 for m in table.masks]
            self.tree = self.window = (self.tree_start, len(net.gates), _run(seeds, table.tree), table.tree.base)

    def _enter(self, j: int) -> tuple:
        """Evaluate graft ``j``'s round-k cone in one flat pass and check it against the seed."""
        graft, k, ones = self.net.grafts[j], self.k, self.ones
        block = self.table.cones.get(j) or self.net.cone(j, k)
        vals = _run([ones >> slot & 1 for slot in graft.slots], block)
        if vals[graft.roots[k - 1] - block.base] != ((ones & graft.mask).bit_count() >= k):
            raise CircuitInvariantError("a graft disagrees with the threshold count of its inputs")
        end = self.starts[j + 1] if j + 1 < len(self.starts) else self.tree_start
        window = self.entered[j] = (graft.start, end, vals, block.base)
        return window

    def _value(self, node: int) -> int:
        if node >= self.lead:
            start, end, vals, base = self.window
            if not start <= node < end:
                # into the OR tree, or a graft, entered the first time
                if node >= self.tree_start:
                    window = self.tree
                else:
                    j = bisect_right(self.starts, node) - 1
                    window = self.entered.get(j) or self._enter(j)
                start, end, vals, base = self.window = window
            return vals[node - base]
        # a node of a monomial tree, at or below a slot root
        val = self.memo.get(node)
        if val is None:
            gate = self.net.gates[node]
            if gate[0] == VAR:
                u, v = self.idx.pairs[gate[1]]
                val = self._holds(1 << u, 1 << v)
            else:
                val = self._value(gate[1]) and self._value(gate[2])
            self.memo[node] = val
        return val

    def descend_bit(self, node: int) -> str:
        return "0" if self._value(self.net.gates[node][1]) == self.target else "1"


# --------------------------------------------------------------------------
# the message schedule


def _descend(
    gates: Sequence[Gate],
    node: int,
    speak: Callable[[str, str, int, Optional[int]], str],
    stand: Optional[Callable[[int], None]] = None,
) -> int:
    """Walk ``gates`` from ``node`` to a variable, one bit per AND/OR gate.

    Bob speaks at an AND gate, Alice at an OR gate, and "0" goes to the
    left child.  ``stand`` sees every node the walk stands on, the first
    and the leaf included.  Returns the leaf's variable index.
    """
    while True:
        if stand is not None:
            stand(node)
        gate = gates[node]
        if gate[0] == VAR:
            return gate[1]
        if gate[0] == CONST:
            raise CircuitInvariantError("reached a constant leaf during traversal")
        bit = speak("B" if gate[0] == AND else "A", "descend", 1, node)
        node = gate[1] if bit == "0" else gate[2]


def _protocol(
    g: Graph,
    kind: GameKind,
    cfg: GameConfig,
    speak: Callable[[str, str, int, Optional[int]], str],
    stand: Optional[Callable[[int], None]] = None,
) -> Pair:
    """The message schedule of every game; returns the agreed nonedge.

    ``speak(sender, meaning, width, node)`` gives the bits of each message
    in turn: in the clique-style games the handshake of ``_HANDSHAKE``,
    which ends the game at the first "0" flag with that sender's nonedge;
    then Alice's set size k; then one descend bit per gate on the walk of
    round k's circuit, from its root in the network's array, where ``node``
    is that gate (it is None for every other message).  ``stand`` is handed
    to ``_descend``.
    """
    if kind.has_handshake:
        for sender, flag, nonedge in _HANDSHAKE:
            if speak(sender, flag, 1, None) == "0":
                return _decode_pair(speak(sender, nonedge, 2 * vertex_field_width(g.n), None), g.n)
    k = int(speak("A", "set-size", size_field_width(g.n), None), 2)
    idx = _nonedge_index(g, cfg)
    net = _game_network(g, idx, kind, cfg)
    root = net.output(k)
    return idx.pair(_descend(net.gates, root, speak, stand))


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

    def speak(sender: str, meaning: str, width: int, node: int) -> str:
        vals, target = (ones, 1) if sender == "A" else (zeros, 0)
        bit = "0" if vals[c.gates[node][1]] == target else "1"
        if channel is not None:
            channel.send(sender, bit, meaning)
        return bit

    return _descend(c.gates, c.output, speak)


# --------------------------------------------------------------------------
# outcome, validation, play


@dataclass(frozen=True)
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


def _check_structure(kind: GameKind, g: Graph, a: frozenset, b: frozenset) -> None:
    for v in a | b:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range")
    if a & b:
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
    _check_structure(kind, g, a, b)
    promise_verified, edge_bound = _check_promise(kind, g, a, b, cfg)
    idx = _nonedge_index(g, cfg)
    ch = _Channel()
    alice = _Party("A", g, idx, a, kind, cfg)
    bob = _Party("B", g, idx, b, kind, cfg)

    def speak(sender: str, meaning: str, width: int, node: Optional[int]) -> str:
        bits = ch.send(sender, (alice if sender == "A" else bob).say(meaning, width, node), meaning)
        if meaning == "set-size":
            alice.prepare(int(bits, 2))
            bob.prepare(int(bits, 2))
        return bits

    def stand(node: int) -> None:
        # the output must separate the two vectors; below it the speaker
        # keeps its own value by its choice and the other party by the
        # gate's semantics, so a miss there means the circuit rules are wrong
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

    nonedge = _protocol(g, kind, cfg, speak, stand)
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
        transcript=ch.transcript,
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
    """
    cfg = config if config is not None else GameConfig()
    entries = transcript.entries if isinstance(transcript, Transcript) else list(transcript)
    pos = 0

    def take(sender: str, meaning: str, width: int, node: Optional[int]) -> str:
        nonlocal pos
        if pos == len(entries):
            raise ValueError(f"transcript ends where entry {pos + 1} ({meaning}) is due")
        e = entries[pos]
        pos += 1
        bad = e.round != pos or e.sender != sender or e.meaning != meaning
        if bad or len(e.bits) != width or e.bits.strip("01"):
            raise ValueError(
                f"transcript malformed at entry {pos}: expected round {pos}, "
                f"sender {sender} and {width} binary digit(s) of {meaning}"
            )
        return e.bits

    pair = _protocol(g, kind, cfg, take)
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
    other way out.  The depth comes from one pass over the network's gate
    array, which holds every k's circuit, so it is a checkable bound rather
    than an asymptotic claim, and later plays find the network built.
    """
    cfg = config if config is not None else GameConfig()
    circuit_branch = size_field_width(g.n) + _game_network(g, _nonedge_index(g, cfg), kind, cfg).depth
    if not kind.has_handshake:
        return circuit_branch
    return max(2 + 2 * vertex_field_width(g.n), 2 + circuit_branch)
