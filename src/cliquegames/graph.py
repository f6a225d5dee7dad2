"""Graph ingestion, preprocessing, and exact combinatorial oracles.

Vertices carry dense 0-based internal ids; the labels from the input file
(1-based) are preserved in ``Graph.labels`` so that command-line output can
speak the caller's language.  A graph may optionally be declared bipartite,
in which case the nonedge variable space is restricted to cross-part pairs.

All oracles here are exact.  They refuse instances above a hard size limit
instead of silently approximating, because downstream they serve as ground
truth for promise validation and for the verification harness.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Optional


class GraphParseError(ValueError):
    """Malformed graph file; names the offending line when known."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TrivialGraphError(ValueError):
    """Fewer than two vertices remain after preprocessing."""


class OracleLimitError(RuntimeError):
    """An exact oracle was asked for an instance above its size limit."""


Pair = tuple[int, int]


def _norm(u: int, v: int) -> Pair:
    return (u, v) if u < v else (v, u)


def _mask(vertices: Iterable[int]) -> int:
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def _bits(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class Graph:
    """Undirected graph on vertices 0..n-1 with optional bipartition.

    ``edges`` holds normalized pairs (u, v) with u < v.  If ``bipartition``
    is present every edge must cross the two parts.  Instances are immutable
    and hashable, so oracle results can be memoized on the graph itself.
    The hash is computed once, on the first request: every per-graph cache
    is keyed on the graph, and a play looks several of them up.
    """

    n: int
    edges: frozenset[Pair]
    bipartition: Optional[tuple[frozenset[int], frozenset[int]]] = None
    labels: tuple = ()

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range or unnormalized")
        if self.bipartition is not None:
            left, right = self.bipartition
            if left & right or left | right != frozenset(range(self.n)):
                raise ValueError("bipartition must partition the vertex set")
            for u, v in self.edges:
                if (u in left) == (v in left):
                    raise ValueError(f"edge ({u},{v}) does not cross the bipartition")
        if not self.labels:
            object.__setattr__(self, "labels", tuple(range(1, self.n + 1)))
        elif len(self.labels) != self.n:
            raise ValueError("labels must cover every vertex")

    @cached_property
    def _hash(self) -> int:
        return hash((self.n, self.edges, self.bipartition, self.labels))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def adj(self) -> tuple[int, ...]:
        """Adjacency bitmask per vertex."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def complete_star(self) -> bool:
        """True if some vertex is adjacent to all other vertices (see ``has_complete_star``)."""
        if self.n < 2:
            return self.n == 1
        return any(self.degree(v) == self.n - 1 for v in range(self.n))

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def adjacent(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def is_clique(self, s: Iterable[int]) -> bool:
        m = _mask(s)
        for v in _bits(m):
            if m & ~self.adj[v] & ~(1 << v):
                return False
        return True

    @cached_property
    def label_to_id(self) -> dict:
        return {lab: v for v, lab in enumerate(self.labels)}


def graph_from_edges(
    n: int,
    edges: Iterable[tuple[int, int]],
    bipartition: Optional[tuple[Iterable[int], Iterable[int]]] = None,
    labels: tuple = (),
) -> Graph:
    """Convenience constructor normalizing edge pairs."""
    norm = frozenset(_norm(u, v) for u, v in edges)
    parts = None
    if bipartition is not None:
        parts = (frozenset(bipartition[0]), frozenset(bipartition[1]))
    return Graph(n=n, edges=norm, bipartition=parts, labels=labels)


def parse_graph(text: str) -> Graph:
    """Parse the DIMACS-flavored format.

    Lines: ``c`` comments, one ``p edge <n> <m>`` header, ``e <u> <v>`` edges
    with 1-based endpoints, and optionally ``b <k>`` declaring a bipartition
    whose first part is vertices 1..k.  Duplicate edges collapse silently;
    anything structurally wrong raises ``GraphParseError`` with the line.
    """
    n: int | None = None
    part_k: int | None = None
    part_line = 0
    edge_lines: list[tuple[int, int, int]] = []
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        tok = line.split()
        if tok[0] == "p":
            if n is not None:
                raise GraphParseError("duplicate problem header", ln)
            if len(tok) != 4 or tok[1] != "edge":
                raise GraphParseError("malformed header, expected 'p edge <n> <m>'", ln)
            try:
                n = int(tok[2])
                int(tok[3])
            except ValueError:
                raise GraphParseError("malformed header, counts must be integers", ln) from None
            if n < 0:
                raise GraphParseError("negative vertex count", ln)
        elif tok[0] == "e":
            if n is None:
                raise GraphParseError("edge before problem header", ln)
            if len(tok) != 3:
                raise GraphParseError("malformed edge line, expected 'e <u> <v>'", ln)
            try:
                u, v = int(tok[1]), int(tok[2])
            except ValueError:
                raise GraphParseError("malformed edge line, endpoints must be integers", ln) from None
            if not (1 <= u <= n and 1 <= v <= n):
                raise GraphParseError(f"vertex out of range in edge ({u},{v})", ln)
            if u == v:
                raise GraphParseError(f"self-loop at vertex {u}", ln)
            edge_lines.append((ln, u - 1, v - 1))
        elif tok[0] == "b":
            if n is None:
                raise GraphParseError("bipartition before problem header", ln)
            if part_k is not None:
                raise GraphParseError("duplicate bipartition line", ln)
            if len(tok) != 2:
                raise GraphParseError("malformed bipartition line, expected 'b <k>'", ln)
            try:
                part_k = int(tok[1])
            except ValueError:
                raise GraphParseError("malformed bipartition line, size must be an integer", ln) from None
            if not (0 <= part_k <= n):
                raise GraphParseError(f"bipartition size {part_k} out of range", ln)
            part_line = ln
        else:
            raise GraphParseError(f"unknown line type {tok[0]!r}", ln)
    if n is None:
        raise GraphParseError("missing 'p edge' header")
    if part_k is not None:
        for ln, u, v in edge_lines:
            if (u < part_k) == (v < part_k):
                raise GraphParseError(f"edge ({u + 1},{v + 1}) lies within a declared part", ln)
    edges = frozenset(_norm(u, v) for _, u, v in edge_lines)
    parts = None
    if part_k is not None:
        parts = (frozenset(range(part_k)), frozenset(range(part_k, n)))
    return Graph(n=n, edges=edges, bipartition=parts)


def strip_stars(g: Graph) -> tuple[Graph, frozenset[int]]:
    """Repeatedly remove vertices adjacent to all other remaining vertices.

    Such vertices touch no nonedge, so they contribute nothing to any of the
    games; removing one can expose another, hence the loop.  Returns the
    reduced graph (ids re-densified, labels preserved) and the set of removed
    vertices in the ids of ``g``.  Raises ``TrivialGraphError`` when fewer
    than two vertices survive.
    """
    alive = list(range(g.n))
    adj = list(g.adj)
    removed: set[int] = set()
    alive_mask = g.full_mask
    while len(alive) >= 2:
        star = None
        for v in alive:
            if adj[v] & alive_mask == alive_mask & ~(1 << v):
                star = v
                break
        if star is None:
            break
        alive.remove(star)
        removed.add(star)
        alive_mask &= ~(1 << star)
    if len(alive) < 2:
        raise TrivialGraphError("graph trivial after star stripping")
    if not removed:
        return g, frozenset()
    old_to_new = {old: new for new, old in enumerate(alive)}
    edges = frozenset(
        _norm(old_to_new[u], old_to_new[v])
        for u, v in g.edges
        if u in old_to_new and v in old_to_new
    )
    parts = None
    if g.bipartition is not None:
        parts = tuple(
            frozenset(old_to_new[v] for v in side if v in old_to_new)
            for side in g.bipartition
        )
    labels = tuple(g.labels[old] for old in alive)
    return Graph(n=len(alive), edges=edges, bipartition=parts, labels=labels), frozenset(removed)


@dataclass(frozen=True)
class NonedgeIndex:
    """Canonical ordering of the nonedges: the protocols' variable space.

    Pairs are sorted lexicographically by (min endpoint, max endpoint); in
    bipartite mode only cross-part pairs appear.  The index <-> pair mapping
    is a bijection, which keeps transcripts reproducible.
    """

    pairs: tuple[Pair, ...]

    @cached_property
    def position(self) -> dict:
        return {pair: i for i, pair in enumerate(self.pairs)}

    def __len__(self) -> int:
        return len(self.pairs)

    def pair(self, i: int) -> Pair:
        return self.pairs[i]

    def index(self, u: int, v: int) -> int:
        return self.position[_norm(u, v)]

    def incident_indices(self, s: Iterable[int]) -> frozenset[int]:
        m = _mask(s)
        return frozenset(
            i for i, (u, v) in enumerate(self.pairs) if m >> u & 1 or m >> v & 1
        )


def nonedges(g: Graph) -> NonedgeIndex:
    """All nonedges of ``g`` in canonical order (cross-part only if bipartite)."""
    pairs = []
    if g.bipartition is None:
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if not g.adjacent(u, v):
                    pairs.append((u, v))
    else:
        left, _ = g.bipartition
        for u in range(g.n):
            for v in range(u + 1, g.n):
                if ((u in left) != (v in left)) and not g.adjacent(u, v):
                    pairs.append((u, v))
    return NonedgeIndex(tuple(pairs))


def incident_nonedges(idx: NonedgeIndex, s: Iterable[int]) -> frozenset[int]:
    """Indices of nonedges with at least one endpoint in ``s``."""
    return idx.incident_indices(s)


def common_neighbors(g: Graph, b: Iterable[int]) -> frozenset[int]:
    """Vertices outside ``b`` adjacent to every vertex of ``b`` (``b`` nonempty)."""
    bm = _mask(b)
    if not bm:
        raise ValueError("common_neighbors requires a nonempty set")
    inter = g.full_mask
    for v in _bits(bm):
        inter &= g.adj[v]
    return frozenset(_bits(inter & ~bm))


def find_nonedge_within(g: Graph, s: Iterable[int]) -> Pair | None:
    """Lexicographically smallest nonedge with both endpoints in ``s``."""
    m = _mask(s)
    for u in _bits(m):
        # the members above u that u is not adjacent to
        later = m & ~g.adj[u] & -(2 << u)
        if later:
            return (u, (later & -later).bit_length() - 1)
    return None


# Memo entries per oracle: room for the whole 814-graph star-free n <= 5
# catalog, so the suites over it compute each oracle once per graph.
_ORACLE_CACHE_SIZE = 1024


def _check_limit(g: Graph, limit: int, what: str) -> None:
    if g.n > limit:
        raise OracleLimitError(f"oracle limit: {what} supports n <= {limit}, got n = {g.n}")


@lru_cache(maxsize=_ORACLE_CACHE_SIZE)
def _maximal_cliques_cached(g: Graph) -> tuple[tuple[int, ...], ...]:
    adj = g.adj
    found: list[int] = []

    def expand(r: int, p: int, x: int) -> None:
        if not p and not x:
            found.append(r)
            return
        pivot = max(_bits(p | x), key=lambda u: (p & adj[u]).bit_count())
        cand = p & ~adj[pivot]
        while cand:
            low = cand & -cand
            v = low.bit_length() - 1
            expand(r | low, p & adj[v], x & adj[v])
            p &= ~low
            x |= low
            cand ^= low

    if g.n:
        expand(0, g.full_mask, 0)
    cliques = [tuple(_bits(m)) for m in found]
    cliques.sort()
    return tuple(cliques)


def maximal_cliques(g: Graph, max_count: int | None = None) -> list[tuple[int, ...]]:
    """All inclusion-maximal cliques via pivoted recursion, canonically ordered.

    The count can be exponential; pass ``max_count`` to fail loudly instead
    of grinding.
    """
    cliques = _maximal_cliques_cached(g)
    if max_count is not None and len(cliques) > max_count:
        raise OracleLimitError(
            f"oracle limit: {len(cliques)} maximal cliques exceed cap {max_count}"
        )
    return list(cliques)


@lru_cache(maxsize=_ORACLE_CACHE_SIZE)
def max_clique_size(g: Graph, limit: int = 20) -> int:
    """Exact size of a maximum clique (single vertices count as cliques)."""
    _check_limit(g, limit, "max_clique_size")
    if g.n == 0:
        return 0
    return max(len(c) for c in _maximal_cliques_cached(g))


def _biclique_universe(g: Graph) -> int:
    if g.bipartition is not None:
        return _mask(g.bipartition[0])
    return g.full_mask


def _best_biclique(g: Graph, score: Callable[[int, int], int]) -> int:
    """Max of ``score(|a|, |Γ(a)|)`` over nonempty ``a`` in the biclique universe
    with a common neighbour; 0 if no such ``a`` exists.

    A depth-first walk over the universe in vertex order carries Γ(a), the
    AND of the members' adjacency masks.  Γ only shrinks as ``a`` grows, so
    every superset of a set with no common neighbour is skipped.
    """
    adj = g.adj
    verts = list(_bits(_biclique_universe(g)))
    best = 0
    stack = [(0, g.full_mask, 0)]  # (next vertex position, Γ(a), |a|)
    while stack:
        start, gamma, size = stack.pop()
        for i in range(start, len(verts)):
            common = gamma & adj[verts[i]]
            if common:
                best = max(best, score(size + 1, common.bit_count()))
                stack.append((i + 1, common, size + 1))
    return best


def _common_neighbor_mask(g: Graph, m: int) -> int:
    inter = g.full_mask
    for v in _bits(m):
        inter &= g.adj[v]
    return inter & ~m


@lru_cache(maxsize=_ORACLE_CACHE_SIZE)
def max_biclique_size(g: Graph, limit: int = 16) -> int:
    """Exact maximum of |a| + |b| over bicliques (a, b).

    A biclique is a pair of disjoint nonempty vertex sets with every cross
    pair an edge; a single vertex additionally counts as a degenerate
    biclique of size 1, so that a maximum clique always contains a biclique
    of the same size.  In bipartite mode ``a`` is constrained to the first
    part (cross bicliques only).
    """
    _check_limit(g, limit, "max_biclique_size")
    return max(1 if g.n else 0, _best_biclique(g, operator.add))


@lru_cache(maxsize=_ORACLE_CACHE_SIZE)
def max_edge_biclique(g: Graph, limit: int = 16) -> int:
    """Exact maximum of |a| * |b| over bicliques (a, b); 0 if there are none."""
    _check_limit(g, limit, "max_edge_biclique")
    return _best_biclique(g, operator.mul)


def has_complete_star(g: Graph) -> bool:
    """True if some vertex is adjacent to all other vertices (memoized on ``g``)."""
    return g.complete_star
