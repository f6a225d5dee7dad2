"""Immutable monotone circuits and two threshold-circuit constructors.

A circuit is a DAG of fanin-2 AND/OR gates over variable and constant
leaves; no negation exists anywhere, so every circuit built here is monotone
by construction.  Depth counts AND/OR gates on the longest leaf-to-output
path; size counts AND/OR gates.

Two constructors compute the threshold function ("at least k of n inputs
are 1"):

* ``build_threshold_sort`` reads the k-th largest wire of a Batcher
  odd-even merge sorting network built out of comparator gadgets (OR = max,
  AND = min).  ``threshold_network`` keeps the whole network, every k's
  wire at once.  Deterministic, depth O(log^2 n), works at any size.
  ``count_tables`` gives every node of that network in closed form: each
  is a function of two counts, the inputs that are 1 in each half of the
  smallest aligned block holding its inputs.
* ``build_threshold_valiant`` reduces the threshold to majority by padding
  with constant leaves, then amplifies with a complete ternary tree of
  3-input majority gadgets whose leaves are independently uniform random
  inputs.  Correctness is guaranteed by an explicit verification pass over
  the weight-(k-1) and weight-k boundary inputs (sufficient by
  monotonicity), retrying with fresh randomness as needed.  Depth
  O(log n), but the mandatory verification limits usable sizes.  The games
  do not use it: it was never shallower than the sorting network at any
  size its verification can reach.
"""

from __future__ import annotations

import math
import random
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from itertools import combinations
from typing import Iterable, Sequence

VAR = "VAR"
CONST = "CONST"
AND = "AND"
OR = "OR"


class VerificationBudgetError(RuntimeError):
    """Boundary-input verification would exceed the configured budget."""


class AmplificationError(RuntimeError):
    """The randomized builder exhausted its retries without verifying."""


class CircuitInvariantError(RuntimeError):
    """A structural impossibility was reached (e.g. a constant leaf mid-game)."""


Gate = tuple
Bits = Sequence[int]


@dataclass(frozen=True)
class Circuit:
    """Append-only gate array; children always precede parents."""

    gates: tuple[Gate, ...]
    output: int
    var_count: int

    def __post_init__(self):
        for i, gate in enumerate(self.gates):
            op = gate[0]
            if op == VAR:
                if not 0 <= gate[1] < self.var_count:
                    raise ValueError(f"node {i}: variable index out of range")
            elif op == CONST:
                if gate[1] not in (0, 1):
                    raise ValueError(f"node {i}: constant must be 0 or 1")
            elif op in (AND, OR):
                if not (0 <= gate[1] < i and 0 <= gate[2] < i):
                    raise ValueError(f"node {i}: children must precede the node")
            else:
                raise ValueError(f"node {i}: unknown op {op!r}")
        if not 0 <= self.output < len(self.gates):
            raise ValueError("output id out of range")

    @cached_property
    def depth(self) -> int:
        return node_depths(self.gates)[self.output]

    @cached_property
    def size(self) -> int:
        return sum(1 for gate in self.gates if gate[0] in (AND, OR))


def node_depths(gates: Sequence[Gate], leaves: Sequence[int] = ()) -> list[int]:
    """Depth of every node of a gate array, in one pass; variable i starts at ``leaves[i]`` if given."""
    depths = [0] * len(gates)
    for i, gate in enumerate(gates):
        if gate[0] in (AND, OR):
            left, right = depths[gate[1]], depths[gate[2]]
            depths[i] = (left if left > right else right) + 1
        elif leaves and gate[0] == VAR:
            depths[i] = leaves[gate[1]]
    return depths


def node_values(c: Circuit, x: Bits) -> list[int]:
    """Value of every node on assignment ``x`` (single bottom-up pass)."""
    if len(x) != c.var_count:
        raise ValueError(f"assignment length {len(x)} != var_count {c.var_count}")
    return _eval_masks(c, [1 if b else 0 for b in x], 1)


def evaluate(c: Circuit, x: Bits) -> int:
    return node_values(c, x)[c.output]


def evaluate_many(c: Circuit, xs: Sequence[Bits]) -> list[int]:
    """Evaluate on many assignments at once, one byte lane per assignment.

    Assignment j is byte j of every node's value, a Python bigint, so a
    single pass over the gate array evaluates every assignment in parallel:
    AND and OR act on each byte alone, and a lane only ever holds 0 or 1.
    Every entry must be 0, 1 or a bool; any other entry raises
    ``ValueError``, as does an assignment whose length is not
    ``c.var_count``.
    """
    cols = len(xs)
    if cols and set(map(len, xs)) != {c.var_count}:
        j = next(j for j, x in enumerate(xs) if len(x) != c.var_count)
        raise ValueError(f"assignment {j} has length {len(xs[j])} != {c.var_count}")
    try:
        # zip(*xs) yields no column at all when there is no assignment
        columns = list(map(bytes, zip(*xs))) if cols else [b""] * c.var_count
        stray = b"".join(columns).translate(None, b"\x00\x01")
    except (TypeError, ValueError):  # an entry outside 0..255, or no integer
        stray = True
    if stray:
        raise ValueError("assignment entries must be 0 or 1")
    var_masks = [int.from_bytes(col, "little") for col in columns]
    out = _eval_masks(c, var_masks, int.from_bytes(b"\x01" * cols, "little"))[c.output]
    return list(out.to_bytes(cols, "little"))


def _eval_masks(c: Circuit, var_masks: Sequence[int], ones: int) -> list[int]:
    """Every node's value column: variable i reads ``var_masks[i]``, constant 1 reads ``ones``."""
    vals = [0] * len(c.gates)
    for i, gate in enumerate(c.gates):
        op = gate[0]
        if op == VAR:
            vals[i] = var_masks[gate[1]]
        elif op == CONST:
            vals[i] = ones if gate[1] else 0
        elif op == AND:
            vals[i] = vals[gate[1]] & vals[gate[2]]
        else:
            vals[i] = vals[gate[1]] | vals[gate[2]]
    return vals


def truth_table(c: Circuit) -> int:
    """Full truth table as a bigint: bit j = value on input j (bit i of j = var i)."""
    n = c.var_count
    rows = 1 << n
    var_masks = [0] * n
    for j in range(rows):
        for i in range(n):
            if j >> i & 1:
                var_masks[i] |= 1 << j
    return _eval_masks(c, var_masks, (1 << rows) - 1)[c.output]


def threshold_truth_table(n: int, k: int) -> int:
    """Reference table for the threshold predicate [weight >= k]."""
    acc = 0
    for j in range(1 << n):
        if j.bit_count() >= k:
            acc |= 1 << j
    return acc


def cone(gates: Sequence[Gate], root: int, start: int = 0) -> list[int]:
    """``root`` and the ids it reaches, sorted, without going below ``start``."""
    seen = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node >= start and node not in seen:
            seen.add(node)
            gate = gates[node]
            if gate[0] in (AND, OR):
                stack.append(gate[1])
                stack.append(gate[2])
    return sorted(seen)


def extract(gates: Sequence[Gate], output: int, var_count: int) -> Circuit:
    """The cone of ``output`` as one validated circuit, renumbered in array order."""
    ids = cone(gates, output)
    renum = {old: new for new, old in enumerate(ids)}
    kept = []
    for old in ids:
        gate = gates[old]
        kept.append((gate[0], renum[gate[1]], renum[gate[2]]) if gate[0] in (AND, OR) else gate)
    return Circuit(gates=tuple(kept), output=renum[output], var_count=var_count)


def balanced(op, nodes: Sequence):
    """Join ``nodes`` pairwise with ``op``, level by level and left to right, down to one value.

    The one pairing of the builder's gate trees, so a caller can repeat it
    over anything that stands for their nodes (depths, say).
    """
    if not nodes:
        raise ValueError("cannot build a gate tree over an empty list")
    level = list(nodes)
    while len(level) > 1:
        nxt = [op(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


class CircuitBuilder:
    """Mutable gate appender with constant propagation.

    Constant folding is the only simplification performed: AND/OR with a
    constant child collapses.  Variable and constant leaves are deduplicated
    among the nodes it adds; it may start from given ``gates``.  ``build``
    extracts the cone of one output (``extract``), and ``snapshot`` keeps
    every node.
    """

    def __init__(self, var_count: int, gates: Sequence[Gate] = ()):
        self.var_count = var_count
        self._gates: list[Gate] = list(gates)
        self._var_ids: dict[int, int] = {}
        self._const_ids: dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._gates)

    def _append(self, gate: Gate) -> int:
        self._gates.append(gate)
        return len(self._gates) - 1

    def var(self, i: int) -> int:
        if not 0 <= i < self.var_count:
            raise ValueError(f"variable index {i} out of range")
        if i not in self._var_ids:
            self._var_ids[i] = self._append((VAR, i))
        return self._var_ids[i]

    def const(self, bit: int) -> int:
        bit = 1 if bit else 0
        if bit not in self._const_ids:
            self._const_ids[bit] = self._append((CONST, bit))
        return self._const_ids[bit]

    def _const_value(self, node: int) -> int | None:
        gate = self._gates[node]
        return gate[1] if gate[0] == CONST else None

    def and_(self, left: int, right: int) -> int:
        lv, rv = self._const_value(left), self._const_value(right)
        if lv == 0 or rv == 0:
            return self.const(0)
        if lv == 1:
            return right
        if rv == 1:
            return left
        return self._append((AND, left, right))

    def or_(self, left: int, right: int) -> int:
        lv, rv = self._const_value(left), self._const_value(right)
        if lv == 1 or rv == 1:
            return self.const(1)
        if lv == 0:
            return right
        if rv == 0:
            return left
        return self._append((OR, left, right))

    def and_tree(self, nodes: Sequence[int]) -> int:
        """Balanced AND over ``nodes``; depth ceil(log2(len))."""
        return balanced(self.and_, nodes)

    def or_tree(self, nodes: Sequence[int]) -> int:
        """Balanced OR over ``nodes``; depth ceil(log2(len))."""
        return balanced(self.or_, nodes)

    def graft(self, sub: Circuit, inputs: Sequence[int]) -> list[int]:
        """Copy ``sub`` into this builder with its variables replaced.

        ``inputs[i]`` is the node standing in for variable i of ``sub``;
        constant folding re-applies, so grafting onto constant inputs
        simplifies on the fly.  Returns the node standing in for each node
        of ``sub``, its output and any other node alike.
        """
        if len(inputs) != sub.var_count:
            raise ValueError("graft requires one input node per variable")
        remap: list[int] = []
        for gate in sub.gates:
            op = gate[0]
            if op == VAR:
                remap.append(inputs[gate[1]])
            elif op == CONST:
                remap.append(self.const(gate[1]))
            elif op == AND:
                remap.append(self.and_(remap[gate[1]], remap[gate[2]]))
            else:
                remap.append(self.or_(remap[gate[1]], remap[gate[2]]))
        return remap

    def snapshot(self, output: int) -> Circuit:
        """Every node built so far, unpruned and in order, as one (validated) circuit."""
        return Circuit(gates=tuple(self._gates), output=output, var_count=self.var_count)

    def build(self, output: int) -> Circuit:
        """Finalize: prune nodes unreachable from ``output`` and renumber in order."""
        return extract(self._gates, output, self.var_count)


def sorting_network(width: int) -> list[tuple[int, int]]:
    """Batcher odd-even merge sort comparators for a power-of-two width.

    Each pair (i, j) with i < j compares wires i and j, leaving the minimum
    on i and the maximum on j; the full list sorts ascending.
    """
    if width < 1 or width & (width - 1):
        raise ValueError("width must be a power of two")

    def sort(lo: int, cnt: int):
        if cnt > 1:
            half = cnt // 2
            yield from sort(lo, half)
            yield from sort(lo + half, half)
            yield from merge(lo, cnt, 1)

    def merge(lo: int, cnt: int, step: int):
        doubled = step * 2
        if doubled < cnt:
            yield from merge(lo, cnt, doubled)
            yield from merge(lo + step, cnt, doubled)
            for i in range(lo + step, lo + cnt - step, doubled):
                yield (i, i + step)
        else:
            yield (lo, lo + step)

    return list(sort(0, width))


def comparator_depths(width: int) -> list[int]:
    """Comparator-chain depth of each wire after the full network runs."""
    depths = [0] * width
    for i, j in sorting_network(width):
        d = max(depths[i], depths[j]) + 1
        depths[i] = depths[j] = d
    return depths


@lru_cache(maxsize=16)
def threshold_network(n: int) -> tuple[Circuit, tuple[int, ...]]:
    """One sorting network over n inputs, and its threshold nodes.

    Node ``thresholds[k - 1]`` of the circuit is threshold-k, the k-th
    largest wire; the circuit's output is threshold-1.  Inputs are padded
    with constant-0 wires up to the next power of two; constant propagation
    removes every comparator that only shuffles pads.  The circuit keeps
    every node, so one network serves every k.
    """
    width = 1 << (n - 1).bit_length() if n > 1 else 1
    b = CircuitBuilder(n)
    wires = [b.var(i) for i in range(n)] + [b.const(0)] * (width - n)
    for i, j in sorting_network(width) if width > 1 else []:
        lo = b.and_(wires[i], wires[j])
        hi = b.or_(wires[i], wires[j])
        wires[i], wires[j] = lo, hi
    thresholds = tuple(wires[width - k] for k in range(1, n + 1))
    return b.snapshot(thresholds[0]), thresholds


# A node's count row (mask of half A, mask of half B, staircase t): on an
# input pattern x, bit i for input i, the node's value is |x & B| >= t[|x & A|].
CountRow = tuple[int, int, Sequence[int]]


@lru_cache(maxsize=16)
def count_tables(network: Circuit) -> tuple[CountRow, ...]:
    """One count row per node of a sorting network, checked as it is built.

    A node of Batcher's odd-even merge sort depends on two counts only: how
    many inputs are 1 in each half, A and B, of the smallest aligned block
    (in the padded width) that holds the inputs it reads, counting real
    inputs only.  Being monotone in both, it is ``|x & B| >= t[|x & A|]``
    for a staircase ``t[0..|A|]`` with entries in 0..|B| + 1 (|B| + 1 never
    fires).  An input is a block of its own, with an empty A and t = [1];
    a constant has no block.

    Rows are built in gate order.  An AND takes the elementwise max of its
    children's staircases, an OR the min, each read in the node's block: a
    constant child is a flat staircase, a child in the same block is taken
    as it is, and a child in one half must be a count threshold of exactly
    that half, ``|x & half| >= T``, which is checked the first time a
    higher block reads it.  Any other child raises ``CircuitInvariantError``.
    By induction every row is exact.  Memoized on the network's value, like
    ``threshold_network``, so a changed network gets rows of its own.
    """
    n, gates = network.var_count, network.gates
    width = 1 << (n - 1).bit_length() if n > 1 else 1
    # staircase entries reach |B| + 1 <= width / 2 + 1: one byte each up to width 256
    pack = bytes if width <= 256 else partial(array, "H")
    rows: list[CountRow] = []
    blocks: list = []  # (lo, size) per node, None for a constant
    halves: dict[tuple[int, int], tuple] = {}  # block -> (block, mask of A, mask of B, |B| + 1, end)
    # Blocks of one size repeat along the width, and so do their staircases,
    # so each distinct way of making a staircase is worked out once; keys
    # hold the ids of staircases that ``rows`` or ``made`` keep alive.
    made: dict[int | tuple, Sequence[int]] = {}
    counts: dict[tuple[int, int], int] = {}  # (staircase id, |B|) -> T

    def threshold(node: int) -> int:
        a, b, stair = rows[node]
        nb = b.bit_count()
        t = counts.get((id(stair), nb))
        if t is None:
            t = next((x + s for x, s in enumerate(stair) if 0 < s <= nb), -1)
            if t < 0 or stair != pack([min(max(t - x, 0), nb + 1) for x in range(a.bit_count() + 1)]):
                raise CircuitInvariantError(f"network node {node} is no count threshold of its block")
            counts[id(stair), nb] = t
        return t

    for i, gate in enumerate(gates):
        op = gate[0]
        if op == VAR:
            blocks.append((gate[1], 1))
            rows.append((0, 1 << gate[1], pack((1,))))
            continue
        if op == CONST:
            blocks.append(None)
            rows.append((0, 0, pack((1 - gate[1],))))
            continue
        spans = [blocks[c] for c in gate[1:] if blocks[c] is not None]
        if not spans:
            raise CircuitInvariantError(f"network node {i} reads no input")
        lo = min(s[0] for s in spans)
        size = 1 << (lo ^ (max(s[0] + s[1] for s in spans) - 1)).bit_length()
        lo &= -size
        half = size >> 1
        mid = lo + half
        shape = halves.get((lo, size))
        if shape is None:
            top = min(lo + size, n)
            mask_a, mask_b = ((1 << half) - 1) << lo, ((1 << (top - mid)) - 1) << mid
            shape = halves[lo, size] = ((lo, size), mask_a, mask_b, top - mid + 1, top)
        block, mask_a, mask_b, never, top = shape
        read = []
        for child in gate[1:]:
            inner = blocks[child]
            if inner == block:
                read.append(rows[child][2])
                continue
            # otherwise a flat staircase, key (|A|, t), or [|x & A| >= t], key (|A|, |B| + 1, t)
            if inner is None:
                key = (half, 0 if gates[child][1] else never)
            elif inner == (lo, half):
                key = (half, never, threshold(child))
            elif inner[0] == mid and min(inner[0] + inner[1], n) == top:
                key = (half, threshold(child))
            else:
                raise CircuitInvariantError(f"network node {i} reads node {child} from neither its block nor a half")
            stair = made.get(key)
            if stair is None:
                t = key[-1]
                stair = made[key] = pack([t] * (half + 1) if len(key) == 2 else [never] * t + [0] * (half + 1 - t))
            read.append(stair)
        blocks.append(block)
        key = (id(read[0]) << 64 | id(read[1])) << 1 | (op == AND)
        stair = made.get(key)
        if stair is None:
            left, right = read
            if op == AND:
                stair = pack([x if x > y else y for x, y in zip(left, right)])
            else:
                stair = pack([x if x < y else y for x, y in zip(left, right)])
            if size < width:
                # the whole width is one block, which never repeats
                made[key] = stair
        rows.append((mask_a, mask_b, stair))
    return tuple(rows)


# the induced-clique suite asks for the small widths of cliques again and again
@lru_cache(maxsize=64)
def build_threshold_sort(n: int, k: int) -> Circuit:
    """Threshold via a sorting network: the k-th largest of n wires (memoized).

    The threshold-k cone of ``threshold_network(n)``, extracted as is.
    """
    if not 1 <= k <= n:
        raise ValueError(f"threshold arity out of range: k={k}, n={n}")
    network, thresholds = threshold_network(n)
    return extract(network.gates, thresholds[k - 1], n)


def _majority_padding(n: int, k: int) -> tuple[int, int]:
    """Constant-1 and constant-0 pad counts turning threshold-k into majority.

    With c ones and z zeros appended, majority over N = n + c + z inputs
    fires iff weight >= (n + z - c + 1) / 2, so c - z = n + 1 - 2k puts the
    majority boundary exactly at k.  Exactly one of c, z is nonzero and the
    padded width N is always odd.
    """
    if 2 * k <= n:
        return n + 1 - 2 * k, 0
    return 0, 2 * k - n - 1


def _maj3(b: CircuitBuilder, x: int, y: int, z: int) -> int:
    # fixed 4-gate, depth-3 gadget: (x AND y) OR ((x OR y) AND z)
    return b.or_(b.and_(x, y), b.and_(b.or_(x, y), z))


def _boundary_vectors(n: int, k: int) -> tuple[list[tuple[int, ...]], list[int]]:
    vectors: list[tuple[int, ...]] = []
    expected: list[int] = []
    for weight, want in ((k - 1, 0), (k, 1)):
        for ones in combinations(range(n), weight):
            vec = [0] * n
            for i in ones:
                vec[i] = 1
            vectors.append(tuple(vec))
            expected.append(want)
    return vectors, expected


def verify_threshold(c: Circuit, n: int, k: int, budget: int = 8192) -> bool:
    """Check ``c`` against the threshold boundary inputs.

    True iff every weight-(k-1) input evaluates to 0 and every weight-k
    input to 1.  For a monotone circuit this is equivalent to full
    truth-table agreement with the threshold function: any heavier input
    dominates a weight-k one and any lighter is dominated by a
    weight-(k-1) one.
    """
    if not 1 <= k <= n:
        raise ValueError(f"threshold arity out of range: k={k}, n={n}")
    if c.var_count != n:
        raise ValueError(f"circuit has {c.var_count} variables, expected {n}")
    count = math.comb(n, k) + math.comb(n, k - 1)
    if count > budget:
        raise VerificationBudgetError(
            f"verification budget exceeded: {count} boundary inputs > {budget}"
        )
    vectors, expected = _boundary_vectors(n, k)
    return evaluate_many(c, vectors) == expected


def build_threshold_valiant(
    n: int,
    k: int,
    seed: int = 0,
    depth_factor: float = 2.7,
    retries: int = 64,
    verify_budget: int = 8192,
) -> Circuit:
    """Randomized O(log n)-depth threshold circuit, verified before return.

    The threshold is padded to a majority instance (see ``_majority_padding``),
    then a complete ternary tree of 3-majority gadgets of depth
    ceil(depth_factor * log2(N)) is filled with independently uniform random
    padded inputs at the leaves.  Candidates failing boundary verification
    are rebuilt with fresh randomness; the returned circuit is always
    verified.  Pure function of (n, k, seed, depth_factor).
    """
    if not 1 <= k <= n:
        raise ValueError(f"threshold arity out of range: k={k}, n={n}")
    boundary = math.comb(n, k) + math.comb(n, k - 1)
    if boundary > verify_budget:
        raise VerificationBudgetError(
            f"unverifiable construction size: {boundary} boundary inputs > {verify_budget}"
        )
    ones_pad, zeros_pad = _majority_padding(n, k)
    width = n + ones_pad + zeros_pad
    levels = math.ceil(depth_factor * math.log2(width)) if width > 1 else 0
    vectors, expected = _boundary_vectors(n, k)
    for attempt in range(retries):
        rng = random.Random(f"threshold-tree:{n}:{k}:{seed}:{depth_factor}:{attempt}")
        b = CircuitBuilder(n)
        var_nodes = [b.var(i) for i in range(n)]

        def leaf(slot: int) -> int:
            if slot < n:
                return var_nodes[slot]
            return b.const(1 if slot < n + ones_pad else 0)

        level = [leaf(rng.randrange(width)) for _ in range(3**levels)]
        while len(level) > 1:
            level = [
                _maj3(b, level[i], level[i + 1], level[i + 2])
                for i in range(0, len(level), 3)
            ]
        candidate = b.build(level[0])
        if evaluate_many(candidate, vectors) == expected:
            return candidate
    raise AmplificationError(
        f"amplification failed for n={n}, k={k} after {retries} attempts; "
        "increase depth_factor"
    )


def serialize_circuit(c: Circuit) -> str:
    """Line-oriented text form: one node per line, then ``OUTPUT <id>``."""
    lines = []
    for i, gate in enumerate(c.gates):
        if gate[0] == VAR:
            lines.append(f"{i} VAR {gate[1]}")
        elif gate[0] == CONST:
            lines.append(f"{i} CONST {gate[1]}")
        else:
            lines.append(f"{i} {gate[0]} {gate[1]} {gate[2]}")
    lines.append(f"OUTPUT {c.output}")
    return "\n".join(lines) + "\n"


def _canonical_int(tok: str, ln: int) -> int:
    """A nonnegative integer written the way ``serialize_circuit`` writes it."""
    if not (tok.isascii() and tok.isdigit()) or (tok[0] == "0" and len(tok) > 1):
        raise ValueError(f"line {ln}: {tok!r} is not a plain nonnegative integer")
    return int(tok)


def parse_circuit(text: str, var_count: int | None = None) -> Circuit:
    """Inverse of ``serialize_circuit``; infers var_count unless given.

    Accepts exactly the text ``serialize_circuit`` emits: one node per line
    with single spaces and plain decimal numbers, the ``OUTPUT`` line last,
    and a final newline.  Anything else raises ``ValueError``, so a parsed
    circuit always serializes back to the text it came from.
    """
    if not text.endswith("\n"):
        raise ValueError("circuit text must end with a newline (missing OUTPUT line?)")
    gates: list[Gate] = []
    output: int | None = None
    max_var = -1
    for ln, line in enumerate(text[:-1].split("\n"), 1):
        if output is not None:
            raise ValueError(f"line {ln}: nothing may follow the OUTPUT line")
        tok = line.split(" ")
        if tok[0] == "OUTPUT":
            if len(tok) != 2:
                raise ValueError(f"line {ln}: malformed OUTPUT line")
            output = _canonical_int(tok[1], ln)
            continue
        if len(tok) < 3 or _canonical_int(tok[0], ln) != len(gates):
            raise ValueError(f"line {ln}: node ids must be dense and in order")
        op = tok[1]
        if op in (VAR, CONST):
            if len(tok) != 3:
                raise ValueError(f"line {ln}: {op} takes one argument")
            arg = _canonical_int(tok[2], ln)
            if op == VAR:
                max_var = max(max_var, arg)
            gates.append((op, arg))
        elif op in (AND, OR):
            if len(tok) != 4:
                raise ValueError(f"line {ln}: {op} takes two children")
            gates.append((op, _canonical_int(tok[2], ln), _canonical_int(tok[3], ln)))
        else:
            raise ValueError(f"line {ln}: unknown op {op!r}")
    if output is None:
        raise ValueError("missing OUTPUT line")
    if var_count is None:
        var_count = max_var + 1
    return Circuit(gates=tuple(gates), output=output, var_count=var_count)
