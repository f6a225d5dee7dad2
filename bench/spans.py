"""Outside tracer: spans around the package's public functions.

The package modules import each other with ``from .x import y``, so a
function is replaced in every module namespace that holds it, which is
where its callers look it up.  Each call becomes one span: its name, its
start and end on ``time.perf_counter`` (the same clock in every process),
and the span that was open when it started.  Spans live in flat arrays and
are written once, when the traced process ends.

Tiny helpers (field widths, ``monomial_universe``, ``classify_answer``) are
left unwrapped: a span would cost more than the call.  ``game_circuit`` is
a cache lookup on almost every call, so it only gets a call counter.
"""

from __future__ import annotations

import array
import hashlib
import json
import sys
import time

MODULES = ("graph", "circuit", "games", "harness", "cli")

TRACED = {
    "graph": (
        "graph_from_edges",
        "parse_graph",
        "strip_stars",
        "nonedges",
        "incident_nonedges",
        "common_neighbors",
        "find_nonedge_within",
        "has_complete_star",
        "maximal_cliques",
        "max_clique_size",
        "max_biclique_size",
        "max_edge_biclique",
    ),
    "circuit": (
        "node_values",
        "evaluate",
        "evaluate_many",
        "truth_table",
        "build_threshold_sort",
        "build_threshold_valiant",
        "verify_threshold",
        "serialize_circuit",
        "parse_circuit",
    ),
    "games": (
        "incidence_vector",
        "non_incidence_vector",
        "relaxed_non_incidence_vector",
        "monomial_threshold_circuit",
        "monomial_clique_circuit",
        "induced_clique_circuit",
        "find_separating_variable",
        "legal_answer",
        "play",
        "replay_transcript",
        "bit_bound",
    ),
    "harness": (
        "catalog_all_graphs",
        "catalog_random",
        "catalog_named",
        "enumerate_valid_inputs",
        "run_suite",
        "worst_case_bits",
    ),
}

ORACLE_CACHES = ("_maximal_cliques_cached", "max_clique_size", "max_biclique_size", "max_edge_biclique")


class PlayLog:
    """Digest of every transcript in call order, and bits per phase.

    The digest covers the game, both sets, every entry (sender, bits,
    meaning) and the agreed nonedge.  It is kept cheap because in a traced
    run it is computed once per play.
    """

    def __init__(self):
        self.sha = hashlib.sha256()
        self.plays = 0
        self.sized_plays = 0
        self.bits = {"handshake": 0, "size": 0, "descend": 0}
        self.bits_max = 0

    def add(self, outcome) -> None:
        entries = outcome.transcript.entries
        parts = [outcome.kind.name, str(sorted(outcome.a)), str(sorted(outcome.b)), str(outcome.nonedge)]
        total = handshake = size = descend = 0
        for e in entries:
            parts.append(e.sender + e.bits + e.meaning)
            k = len(e.bits)
            total += k
            if e.meaning == "descend":
                descend += k
            elif e.meaning == "set-size":
                size += k
                self.sized_plays += 1
            else:
                handshake += k
        self.sha.update("|".join(parts).encode())
        self.plays += 1
        self.bits["handshake"] += handshake
        self.bits["size"] += size
        self.bits["descend"] += descend
        if total > self.bits_max:
            self.bits_max = total

    def __call__(self, args, outcome) -> None:
        self.add(outcome)

    def summary(self) -> dict:
        total = sum(self.bits.values())
        return {
            "digest": self.sha.hexdigest(),
            "plays": self.plays,
            "sized_plays": self.sized_plays,
            "bits": dict(self.bits),
            "bits_max": self.bits_max,
            "bits_mean": total / self.plays if self.plays else 0.0,
        }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_parent = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.stack = [-1]
        self.active = True
        self.counters = {
            "game_circuit_calls": 0,
            "eval_gate_cols": 0,
            "batch_cols": 0,
            "gates_built": 0,
            "inputs": 0,
        }
        self.plays = PlayLog()
        self._caches = {}

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def span(self, name: str, start: float, end: float) -> None:
        """Record an already finished span under the currently open one."""
        self.span_name.append(self._id(name))
        self.span_parent.append(self.stack[-1])
        self.span_start.append(start)
        self.span_end.append(end)

    def open(self, name: str) -> int:
        i = len(self.span_name)
        self.span(name, time.perf_counter(), 0.0)
        self.stack.append(i)
        return i

    def close(self, i: int) -> None:
        self.span_end[i] = time.perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, after=None, timed_after: bool = False):
        nid = self._id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        stack = self.stack
        perf = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if after is not None:
                if timed_after:
                    ta = perf()
                    after(args, result)
                    tracer.span("bench.hook", ta, perf())
                else:
                    after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace each traced function in every package namespace holding it."""
        import cliquegames
        from cliquegames import circuit, cli, games, graph, harness

        spaces = [cliquegames, graph, circuit, games, harness, cli]
        counters = self.counters

        def count_eval(args, result):
            counters["eval_gate_cols"] += len(args[0].gates)

        def count_batch(args, result):
            cols = len(args[1])
            counters["eval_gate_cols"] += len(args[0].gates) * cols
            counters["batch_cols"] += cols

        def count_build(args, result):
            counters["gates_built"] += result.size

        clique_build = self._id("games.monomial_clique_circuit")

        def count_induced(args, result):
            # inside monomial_clique_circuit it is part of that build
            parent = self.stack[-1]
            if parent < 0 or self.span_name[parent] != clique_build:
                counters["gates_built"] += result.size

        def count_inputs(args, result):
            counters["inputs"] += len(result)

        hooks = {
            "node_values": (count_eval, False),
            "evaluate_many": (count_batch, False),
            "monomial_threshold_circuit": (count_build, False),
            "monomial_clique_circuit": (count_build, False),
            "induced_clique_circuit": (count_induced, False),
            "enumerate_valid_inputs": (count_inputs, False),
            "play": (self.plays, True),
        }
        for name in ORACLE_CACHES:
            self._caches[name] = getattr(graph, name)
        for module, attrs in TRACED.items():
            home = sys.modules[f"cliquegames.{module}"]
            for attr in attrs:
                original = getattr(home, attr)
                after, timed = hooks.get(attr, (None, False))
                wrapped = self.wrap(f"{module}.{attr}", original, after, timed)
                for space in spaces:
                    if getattr(space, attr, None) is original:
                        setattr(space, attr, wrapped)

        original_build = circuit.CircuitBuilder.build
        circuit.CircuitBuilder.build = self.wrap("circuit.CircuitBuilder.build", original_build)

        original_gc = games.game_circuit
        tracer = self

        def game_circuit(*args, **kwargs):
            if tracer.active:
                counters["game_circuit_calls"] += 1
            return original_gc(*args, **kwargs)

        for space in spaces:
            if getattr(space, "game_circuit", None) is original_gc:
                setattr(space, "game_circuit", game_circuit)

    def write(self, prefix: str, extra: dict | None = None) -> None:
        """Write the spans (binary arrays) and a JSON header next to them."""
        hits = misses = 0
        for fn in self._caches.values():
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "counters": dict(self.counters, oracle_hits=hits, oracle_misses=misses),
            "plays": self.plays.summary(),
            "extra": extra or {},
        }
        with open(prefix + ".bin", "wb") as fh:
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        with open(prefix + ".json", "w") as fh:
            json.dump(header, fh)


def read_spans(prefix: str):
    with open(prefix + ".json") as fh:
        header = json.load(fh)
    n = header["spans"]
    arrays = []
    with open(prefix + ".bin", "rb") as fh:
        for code in ("i", "i", "d", "d"):
            arr = array.array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return header, arrays


# Groups of spans behind the per-layer metrics.  "_s" metrics are inclusive
# time: a span counts unless its direct parent belongs to the same group.
GROUPS = {
    "graph.parse": ("graph.parse_graph", "graph.strip_stars"),
    "graph.nonedges": ("graph.nonedges",),
    "graph.oracle": (
        "graph.maximal_cliques",
        "graph.max_clique_size",
        "graph.max_biclique_size",
        "graph.max_edge_biclique",
    ),
    "circuit.sort": ("circuit.build_threshold_sort",),
    "circuit.builder": ("circuit.CircuitBuilder.build",),
    "circuit.eval": ("circuit.node_values", "circuit.evaluate", "circuit.evaluate_many"),
    "games.build": (
        "games.monomial_threshold_circuit",
        "games.monomial_clique_circuit",
        "games.induced_clique_circuit",
    ),
    "games.replay": ("games.replay_transcript",),
    "games.bound": ("games.bit_bound",),
    "games.legal": ("games.legal_answer",),
    "games.vector": (
        "games.incidence_vector",
        "games.non_incidence_vector",
        "games.relaxed_non_incidence_vector",
    ),
    "harness.catalog": ("harness.catalog_all_graphs",),
    "harness.enumerate": ("harness.enumerate_valid_inputs",),
}


def aggregate(main: str, children: list[str]) -> dict:
    """Self and inclusive times over one traced process and the processes it ran.

    A child process's root spans ran inside a ``bench`` span of the main
    process, so their time is taken out of the main process's bench self time.
    """
    group_of = {name: group for group, names in GROUPS.items() for name in names}
    self_by_name: dict[str, float] = {}
    calls_by_name: dict[str, int] = {}
    incl_by_group = {group: 0.0 for group in GROUPS}
    bound_self: dict[str, float] = {}
    counters: dict[str, int] = {}
    plays = None
    child_roots = 0.0
    spans = 0
    for prefix in [main] + children:
        header, (nid, parent, start, end) = read_spans(prefix)
        names = header["names"]
        n = header["spans"]
        spans += n
        for key, value in header["counters"].items():
            counters[key] = counters.get(key, 0) + value
        summary = header["plays"]
        if plays is None:
            plays = summary
        else:
            plays = _merge_plays(plays, summary)
        dur = [end[i] - start[i] for i in range(n)]
        child_time = [0.0] * n
        span_groups = [group_of.get(name) for name in names]
        bound_id = names.index("games.bit_bound") if "games.bit_bound" in names else -1
        in_bound = bytearray(n)
        for i in range(n):
            p = parent[i]
            if nid[i] == bound_id or (p >= 0 and in_bound[p]):
                in_bound[i] = 1
            if p >= 0:
                child_time[p] += dur[i]
            elif prefix != main:
                child_roots += dur[i]
            g = span_groups[nid[i]]
            if g is not None and (p < 0 or span_groups[nid[p]] != g):
                incl_by_group[g] += dur[i]
        for i in range(n):
            name = names[nid[i]]
            own = dur[i] - child_time[i]
            self_by_name[name] = self_by_name.get(name, 0.0) + own
            calls_by_name[name] = calls_by_name.get(name, 0) + 1
            if in_bound[i]:
                bound_self[name] = bound_self.get(name, 0.0) + own
    layer_self = {m: 0.0 for m in MODULES + ("bench",)}
    for name, own in self_by_name.items():
        layer_self[name.split(".")[0]] += own
    layer_self["bench"] -= child_roots
    return {
        "self": self_by_name,
        "calls": calls_by_name,
        "incl": incl_by_group,
        "layer_self": layer_self,
        "bound_self": bound_self,
        "counters": counters,
        "plays": plays,
        "spans": spans,
    }


def _merge_plays(a: dict, b: dict) -> dict:
    plays = a["plays"] + b["plays"]
    bits = {k: a["bits"][k] + b["bits"][k] for k in a["bits"]}
    return {
        "digest": None,
        "plays": plays,
        "sized_plays": a["sized_plays"] + b["sized_plays"],
        "bits": bits,
        "bits_max": max(a["bits_max"], b["bits_max"]),
        "bits_mean": sum(bits.values()) / plays if plays else 0.0,
    }
