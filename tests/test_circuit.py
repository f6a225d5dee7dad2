import hashlib
import math
import random

import pytest

from cliquegames.circuit import (
    AND,
    CONST,
    OR,
    VAR,
    AmplificationError,
    Circuit,
    CircuitBuilder,
    CircuitInvariantError,
    VerificationBudgetError,
    _eval_masks,
    build_threshold_sort,
    build_threshold_valiant,
    comparator_depths,
    cone,
    count_tables,
    evaluate,
    evaluate_many,
    extract,
    parse_circuit,
    serialize_circuit,
    sorting_network,
    threshold_network,
    threshold_truth_table,
    truth_table,
    verify_threshold,
)


def _and2():
    b = CircuitBuilder(2)
    return b.build(b.and_(b.var(0), b.var(1)))


def _or2():
    b = CircuitBuilder(2)
    return b.build(b.or_(b.var(0), b.var(1)))


class TestEvaluate:
    def test_gate_basics(self):
        assert evaluate(_and2(), (1, 0)) == 0
        assert evaluate(_and2(), (1, 1)) == 1
        assert evaluate(_or2(), (1, 0)) == 1
        assert evaluate(_or2(), (0, 0)) == 0

    def test_constant(self):
        b = CircuitBuilder(3)
        one = b.build(b.const(1))
        assert all(evaluate(one, x) == 1 for x in ((0, 0, 0), (1, 1, 1)))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            evaluate(_and2(), (1, 0, 1))

    def test_evaluate_many_matches_single(self):
        c = build_threshold_sort(5, 3)
        xs = [tuple(j >> i & 1 for i in range(5)) for j in range(32)]
        assert evaluate_many(c, xs) == [evaluate(c, x) for x in xs]


def _random_circuit(rng, var_count, gates=40):
    """A random circuit over ``var_count`` variables: both constants, both ops, nothing folded."""
    b = CircuitBuilder(var_count)
    nodes = [b.var(i) for i in range(var_count)] + [b.const(0), b.const(1)]
    for _ in range(gates):
        nodes.append(b._append((rng.choice((AND, OR)), rng.choice(nodes), rng.choice(nodes))))
    return b.snapshot(nodes[-1])


class TestEvaluateManyLanes:
    """``evaluate_many`` keeps one byte lane per assignment; it must agree with ``evaluate``."""

    @pytest.mark.parametrize("cols", [0, 1, 7, 8, 9, 64, 255, 256, 257])
    def test_matches_single_on_random_circuits(self, cols):
        rng = random.Random(cols)
        for var_count in (1, 5, 13):
            c = _random_circuit(rng, var_count)
            xs = [tuple(rng.randrange(2) for _ in range(var_count)) for _ in range(cols)]
            want = [evaluate(c, x) for x in xs]
            assert evaluate_many(c, xs) == want
            assert evaluate_many(c, [tuple(bool(b) for b in x) for x in xs]) == want
            assert evaluate_many(c, [list(x) for x in xs]) == want

    @pytest.mark.parametrize("cols", [0, 1, 9, 257])
    def test_no_variables(self, cols):
        for bit in (0, 1):
            b = CircuitBuilder(0)
            c = b.build(b.const(bit))
            assert c.var_count == 0
            assert evaluate_many(c, [()] * cols) == [bit] * cols

    def test_length_mismatch_message(self):
        with pytest.raises(ValueError, match=r"^assignment 1 has length 3 != 2$"):
            evaluate_many(_and2(), [(1, 0), (1, 0, 1)])

    @pytest.mark.parametrize("entry", [2, -1, 256, 0.5, None])
    def test_entries_other_than_0_and_1_raise(self, entry):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            evaluate_many(_and2(), [(1, 0), (entry, 1)])

    def test_verify_threshold_still_rejects_a_broken_circuit(self):
        # 462 boundary vectors, so more lanes than 256
        c = build_threshold_sort(10, 5)
        assert verify_threshold(c, 10, 5)
        rejected = 0
        for i, gate in enumerate(c.gates):
            if gate[0] != AND:
                continue
            gates = list(c.gates)
            gates[i] = (OR,) + gate[1:]
            broken = Circuit(tuple(gates), c.output, c.var_count)
            exact = truth_table(broken) == threshold_truth_table(10, 5)
            assert verify_threshold(broken, 10, 5) == exact, i
            rejected += not exact
        assert rejected


class TestBuilder:
    @pytest.mark.parametrize("leaves,depth", [(1, 0), (2, 1), (4, 2), (5, 3), (8, 3)])
    def test_tree_depths(self, leaves, depth):
        b = CircuitBuilder(leaves)
        out = b.and_tree([b.var(i) for i in range(leaves)])
        assert b.build(out).depth == depth
        b = CircuitBuilder(leaves)
        out = b.or_tree([b.var(i) for i in range(leaves)])
        assert b.build(out).depth == depth

    def test_empty_tree_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            CircuitBuilder(1).and_tree([])

    def test_constant_folding(self):
        b = CircuitBuilder(1)
        x = b.var(0)
        assert b.and_(x, b.const(1)) == x
        assert b.or_(x, b.const(0)) == x
        assert b._gates[b.and_(x, b.const(0))] == (CONST, 0)
        assert b._gates[b.or_(x, b.const(1))] == (CONST, 1)

    def test_majority_gadget_depth(self):
        b = CircuitBuilder(3)
        x, y, z = b.var(0), b.var(1), b.var(2)
        gadget = b.or_(b.and_(x, y), b.and_(b.or_(x, y), z))
        c = b.build(gadget)
        assert c.depth == 3 and c.size == 4
        assert truth_table(c) == threshold_truth_table(3, 2)

    def test_graft_substitutes_variables(self):
        inner = _or2()
        b = CircuitBuilder(3)
        nodes = b.graft(inner, [b.var(2), b.and_(b.var(0), b.var(1))])
        assert len(nodes) == len(inner.gates) and nodes[0] == b.var(2)
        c = b.build(nodes[inner.output])
        assert evaluate(c, (0, 0, 1)) == 1
        assert evaluate(c, (1, 1, 0)) == 1
        assert evaluate(c, (1, 0, 0)) == 0

    def test_build_prunes_unreachable(self):
        b = CircuitBuilder(2)
        b.and_(b.var(0), b.var(1))  # dead
        out = b.or_(b.var(0), b.var(1))
        c = b.build(out)
        assert c.size == 1

    def test_circuit_validates_structure(self):
        with pytest.raises(ValueError, match="children"):
            Circuit(gates=((AND, 0, 1), (VAR, 0)), output=0, var_count=1)
        with pytest.raises(ValueError, match="variable index"):
            Circuit(gates=((VAR, 3),), output=0, var_count=2)


# node 5's cone, 0 2 3 4 5, is not a prefix and not in depth-first order; 1 and 6 are dead
_SPARSE = ((VAR, 0), (VAR, 1), (VAR, 2), (VAR, 3), (AND, 0, 3), (OR, 4, 2), (OR, 0, 1))


class TestExtract:
    def test_keeps_order_and_renumbers(self):
        c = extract(_SPARSE, 5, 4)
        assert c.gates == ((VAR, 0), (VAR, 2), (VAR, 3), (AND, 0, 2), (OR, 3, 1))
        assert c.output == 4 and c.var_count == 4
        assert truth_table(c) == truth_table(Circuit(_SPARSE, 5, 4))
        assert extract(_SPARSE, 2, 4) == Circuit(((VAR, 2),), 0, 4)

    def test_cone_stops_at_start(self):
        assert cone(_SPARSE, 5) == [0, 2, 3, 4, 5]
        assert cone(_SPARSE, 5, 3) == [3, 4, 5]
        assert cone(_SPARSE, 5, 5) == [5]
        assert cone(_SPARSE, 4, 5) == []


class TestSortingNetwork:
    def test_small_network_shape(self):
        assert sorting_network(4) == [(0, 1), (2, 3), (0, 2), (1, 3), (1, 2)]

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            sorting_network(6)

    @pytest.mark.parametrize("width", [2, 4, 8, 16])
    def test_sorts_everything(self, width):
        for x in range(1 << width):
            vals = [x >> i & 1 for i in range(width)]
            for i, j in sorting_network(width):
                if vals[i] > vals[j]:
                    vals[i], vals[j] = vals[j], vals[i]
            assert vals == sorted(vals)

    def test_depth_formula(self):
        for width in (2, 4, 8, 16, 32):
            log = width.bit_length() - 1
            assert max(comparator_depths(width)) == log * (log + 1) // 2


class TestThresholdSort:
    def test_serialized_circuits_pinned(self):
        # the threshold circuits of every 1 <= k <= n <= 20; a change here changes transcripts
        h = hashlib.sha256()
        for n in range(1, 21):
            for k in range(1, n + 1):
                h.update(serialize_circuit(build_threshold_sort(n, k)).encode())
        assert h.hexdigest() == "9b8223c9cc91437dec43efa5f767845fbdf1838ddc968c81fe0b46f6af692be9"

    def test_exact_small(self):
        for n in range(1, 10):
            for k in range(1, n + 1):
                c = build_threshold_sort(n, k)
                assert truth_table(c) == threshold_truth_table(n, k), (n, k)

    def test_identity_case(self):
        c = build_threshold_sort(1, 1)
        assert c.gates == ((VAR, 0),) and c.depth == 0

    def test_spot_values(self):
        c = build_threshold_sort(3, 2)
        assert evaluate(c, (1, 0, 1)) == 1
        assert evaluate(c, (0, 0, 1)) == 0

    def test_k_out_of_range(self):
        with pytest.raises(ValueError):
            build_threshold_sort(3, 0)
        with pytest.raises(ValueError):
            build_threshold_sort(3, 4)

    def test_depth_bounds(self):
        for n in range(2, 17):
            width = 1 << (n - 1).bit_length()
            log = width.bit_length() - 1
            cap = log * (log + 1) // 2
            wire_depths = comparator_depths(width)
            for k in range(1, n + 1):
                c = build_threshold_sort(n, k)
                assert c.depth <= cap, (n, k)
                if n == width:
                    # no pads, no folding: gate depth equals the wire's
                    # comparator-chain depth exactly
                    assert c.depth == wire_depths[width - k], (n, k)
                else:
                    assert c.depth <= wire_depths[width - k], (n, k)

    def test_monotone_under_bit_flips(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randrange(2, 9)
            k = rng.randrange(1, n + 1)
            c = build_threshold_sort(n, k)
            x = [rng.randrange(2) for _ in range(n)]
            i = rng.randrange(n)
            if x[i] == 0:
                before = evaluate(c, x)
                x[i] = 1
                assert evaluate(c, x) >= before


def _flip_first_and(network):
    """The network with its first AND gate turned into an OR."""
    gates = list(network.gates)
    first = next(i for i, gate in enumerate(gates) if gate[0] == AND)
    gates[first] = (OR,) + gates[first][1:]
    return Circuit(tuple(gates), network.output, network.var_count)


class TestCountTables:
    """Every node of ``threshold_network(n)`` is |x & B| >= t[|x & A|] for its row."""

    @staticmethod
    def _assert_rows_match(n, xs):
        # one column per input pattern: node i's column from its gates, and from its row
        network, _ = threshold_network(n)
        rows = count_tables(network)
        cols = [sum(1 << j for j, x in enumerate(xs) if x >> i & 1) for i in range(n)]
        values = _eval_masks(network, cols, (1 << len(xs)) - 1)
        assert len(rows) == len(network.gates)
        for node, (a, b, stair) in enumerate(rows):
            read = sum(1 << j for j, x in enumerate(xs) if (x & b).bit_count() >= stair[(x & a).bit_count()])
            assert read == values[node], (n, node)

    def test_rows_match_node_values_on_every_input(self):
        for n in range(1, 11):
            self._assert_rows_match(n, range(1 << n))

    @pytest.mark.parametrize("n", [33, 64, 100, 128])
    def test_rows_match_node_values_on_random_inputs(self, n):
        rng = random.Random(n)
        # every weight, so every staircase step is read
        xs = [sum(1 << i for i in rng.sample(range(n), rng.randrange(n + 1))) for _ in range(300)]
        self._assert_rows_match(n, xs)

    def test_rows_are_memoized_on_the_network_value(self):
        network, _ = threshold_network(12)
        copy = Circuit(tuple(network.gates), network.output, network.var_count)
        assert count_tables(copy) is count_tables(network)

    def test_a_flipped_gate_raises(self):
        # the first AND sorts inputs 0 and 1; as an OR, the sorted pair is no
        # longer a count of them, so the next block up cannot read it
        network, _ = threshold_network(16)
        with pytest.raises(CircuitInvariantError, match="count threshold|neither its block"):
            count_tables(_flip_first_and(network))


class TestVerifyThreshold:
    def test_accepts_correct_circuit(self):
        assert verify_threshold(build_threshold_sort(4, 2), 4, 2)

    def test_rejects_constant_zero(self):
        b = CircuitBuilder(3)
        zero = b.build(b.const(0))
        assert not verify_threshold(zero, 3, 1)

    def test_rejects_wrong_threshold(self):
        assert not verify_threshold(build_threshold_sort(5, 3), 5, 2)

    def test_budget(self):
        with pytest.raises(VerificationBudgetError, match="budget exceeded"):
            verify_threshold(build_threshold_sort(20, 10), 20, 10, budget=100)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError):
            verify_threshold(build_threshold_sort(3, 1), 3, 0)

    def test_boundary_equals_full_equivalence(self):
        # for monotone circuits the boundary check must coincide with full
        # truth-table agreement; probe with correct, shifted, and mangled
        # candidates
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randrange(2, 9)
            k = rng.randrange(1, n + 1)
            kind = rng.randrange(3)
            if kind == 0:
                c = build_threshold_sort(n, k)
            elif kind == 1:
                other = max(1, min(n, k + rng.choice((-1, 1))))
                c = build_threshold_sort(n, other)
            else:
                b = CircuitBuilder(n)
                picks = [b.var(rng.randrange(n)) for _ in range(5)]
                c = b.build(
                    b.or_(b.and_(picks[0], picks[1]), b.and_(b.or_(picks[2], picks[3]), picks[4]))
                )
            assert verify_threshold(c, n, k) == (
                truth_table(c) == threshold_truth_table(n, k)
            ), (n, k, kind)


class TestThresholdValiant:
    def test_exact_small(self):
        for n in range(1, 7):
            for k in range(1, n + 1):
                c = build_threshold_valiant(n, k, seed=3)
                assert truth_table(c) == threshold_truth_table(n, k), (n, k)

    def test_or_case(self):
        c = build_threshold_valiant(2, 1, seed=0)
        assert truth_table(c) == threshold_truth_table(2, 1)

    def test_seeded_determinism(self):
        a = build_threshold_valiant(6, 3, seed=42)
        b = build_threshold_valiant(6, 3, seed=42)
        assert a.gates == b.gates and a.output == b.output

    def test_seed_changes_structure(self):
        a = build_threshold_valiant(6, 3, seed=1)
        b = build_threshold_valiant(6, 3, seed=2)
        assert a.gates != b.gates  # astronomically unlikely to collide

    def test_depth_factor_too_small_fails(self):
        # one gadget level cannot represent a 5-input threshold
        with pytest.raises(AmplificationError, match="increase depth_factor"):
            build_threshold_valiant(5, 3, seed=0, depth_factor=0.1, retries=8)

    def test_unverifiable_size(self):
        with pytest.raises(VerificationBudgetError, match="unverifiable construction size"):
            build_threshold_valiant(40, 20, seed=0)

    def test_monotone_under_bit_flips(self):
        rng = random.Random(11)
        c = build_threshold_valiant(6, 3, seed=5)
        for _ in range(100):
            x = [rng.randrange(2) for _ in range(6)]
            i = rng.randrange(6)
            if x[i] == 0:
                before = evaluate(c, x)
                x[i] = 1
                assert evaluate(c, x) >= before


class TestSerialization:
    def test_golden_format(self):
        text = serialize_circuit(_and2())
        assert text == "0 VAR 0\n1 VAR 1\n2 AND 0 1\nOUTPUT 2\n"

    def test_round_trip(self):
        for n, k in ((1, 1), (4, 2), (6, 4)):
            c = build_threshold_sort(n, k)
            back = parse_circuit(serialize_circuit(c), var_count=n)
            assert back == c

    def test_parse_errors(self):
        with pytest.raises(ValueError, match="OUTPUT"):
            parse_circuit("0 VAR 0\n")
        with pytest.raises(ValueError, match="dense"):
            parse_circuit("1 VAR 0\nOUTPUT 1\n")

    @pytest.mark.parametrize(
        "text",
        [
            "0 VAR 0 7\nOUTPUT 0\n",
            "0 CONST 1 1\nOUTPUT 0\n",
            "0 VAR 0\n1 VAR 1\n2 AND 0 1 2\nOUTPUT 2\n",
            "0 VAR 0\nOUTPUT 0 0\n",
        ],
    )
    def test_parse_rejects_trailing_tokens(self, text):
        with pytest.raises(ValueError, match="takes|OUTPUT"):
            parse_circuit(text)

    @pytest.mark.parametrize(
        "text",
        [
            "0 VAR 0\nOUTPUT 0",  # no final newline
            "0 VAR 0\n\nOUTPUT 0\n",  # blank line
            "0  VAR 0\nOUTPUT 0\n",  # double space
            "0\tVAR 0\nOUTPUT 0\n",  # tab
            "0 VAR 00\nOUTPUT 0\n",  # leading zero
            "0 VAR +0\nOUTPUT 0\n",  # sign
            "0 VAR 1_0\nOUTPUT 0\n",  # underscore
            "0 VAR \u0663\nOUTPUT 0\n",  # a non-ASCII digit
            "0 VAR 0\nOUTPUT 0\n0 VAR 0\n",  # a node after OUTPUT
        ],
    )
    def test_parse_accepts_only_the_serialized_form(self, text):
        with pytest.raises(ValueError):
            parse_circuit(text)

    def test_mutated_text_is_rejected_or_round_trips(self):
        """Seeded edits of serialized circuits: a ValueError, or a circuit
        whose serialization is the edited text itself."""
        rng = random.Random(77)
        bases = [serialize_circuit(build_threshold_sort(5, 3)), serialize_circuit(_and2())]
        pool = [chr(c) for c in range(256)] + ["\u0663", "\u2003"]
        parsed = 0
        for trial in range(3000):
            text = bases[trial % len(bases)]
            for _ in range(rng.randrange(1, 3)):
                i = rng.randrange(len(text))
                op = rng.randrange(4)
                if op == 0:
                    text = text[:i] + rng.choice(pool + list("0123456789 \n")) + text[i + 1 :]
                elif op == 1:
                    text = text[:i] + rng.choice(pool + list("0123456789 \n")) + text[i:]
                elif op == 2:
                    text = text[:i] + text[i + 1 :]
                else:
                    lines = text.split("\n")
                    j = rng.randrange(len(lines))
                    text = "\n".join(lines[:j] + [lines[j]] + lines[j:])
                if not text:
                    text = "\n"
            try:
                c = parse_circuit(text)
            except ValueError:
                continue
            parsed += 1
            assert serialize_circuit(c) == text
        assert parsed > 10
