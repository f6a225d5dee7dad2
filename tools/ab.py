"""Plays of two checkouts timed in one process: a parent and a change.

    python3 tools/ab.py --parent <dir> --change <dir> [--rounds 24]

Imports each checkout's ``src/cliquegames`` under a module name of its own,
so both live in one process and share its state of the machine.  The plays
are those of the n <= 5 catalog (``catalog_all_graphs(5)``) on every
``STRIDE``-th graph, for all four games, refereed as the game suites of
``verify`` referee them: per game and graph one ``bit_bound``, then per
valid input ``play``, ``legal_answer`` and ``replay_transcript``.  Valid
inputs are listed before any timing.  Each round times the same plays on
both sides, the side that goes first alternating (the parent first in even
rounds).  Prints each side's plays/s over all rounds and the quartiles of
the per-round ratio of the change's plays/s over the parent's, with
``statistics.quantiles(n=4, method="inclusive")``.  A play that raises, or
an answer one side refutes, stops the script.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
import time

GAMES = ("biclique", "clique", "relaxed-clique", "edge-biclique")
STRIDE = 20  # every 20th catalog graph: about a second of plays per side and round


def load(root: str, name: str):
    """The package under ``root/src/cliquegames``, imported as module ``name``."""
    pkg = os.path.join(root, "src", "cliquegames")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(pkg, "__init__.py"), submodule_search_locations=[pkg]
    )
    if spec is None or spec.loader is None:
        raise SystemExit(f"no cliquegames package under {root}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def workload(cg) -> list:
    """Per game and graph: (kind, graph, its valid inputs), in suite order."""
    cfg = cg.GameConfig()
    graphs = cg.catalog_all_graphs(5)[::STRIDE]
    work = []
    for name in GAMES:
        kind = cg.kind_from_name(name)
        for g in graphs:
            if not kind.undefined_on(g):
                work.append((kind, g, [(vi.a, vi.b) for vi in cg.enumerate_valid_inputs(g, kind, cfg)]))
    return work


def run(cg, work: list) -> tuple[int, float]:
    """Referee every play of ``work`` once; returns (plays, seconds)."""
    cfg = cg.GameConfig()
    plays = 0
    t0 = time.perf_counter()
    for kind, g, inputs in work:
        bound = cg.bit_bound(kind, g, cfg)
        for a, b in inputs:
            out = cg.play(kind, g, a, b, cfg)
            ok = cg.legal_answer(kind, g, a, b, out.nonedge) and out.transcript.total_bits <= bound
            if not ok or cg.replay_transcript(g, kind, out.transcript, cfg) != out.nonedge:
                raise SystemExit(f"{cg.__name__}: refuted answer on {kind.name} {sorted(g.edges)} {a} {b}")
        plays += len(inputs)
    return plays, time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the change checkout")
    ap.add_argument("--rounds", type=int, default=24)
    args = ap.parse_args(argv)
    if args.rounds < 2:
        ap.error("--rounds must be at least 2")
    sides = {"parent": load(args.parent, "cliquegames_parent"), "change": load(args.change, "cliquegames_change")}
    work = {side: workload(cg) for side, cg in sides.items()}
    counts = {side: sum(len(inputs) for _, _, inputs in w) for side, w in work.items()}
    if counts["parent"] != counts["change"]:
        raise SystemExit(f"the two sides list different valid inputs: {counts}")
    spent = {"parent": 0.0, "change": 0.0}
    ratios = []
    for r in range(args.rounds):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        rate = {}
        for side in order:
            plays, seconds = run(sides[side], work[side])
            spent[side] += seconds
            rate[side] = plays / seconds
        ratios.append(rate["change"] / rate["parent"])
        print(f"round {r} {order[0]} first: parent {rate['parent']:.0f}/s change {rate['change']:.0f}/s "
              f"ratio {ratios[-1]:.3f}", file=sys.stderr)
    plays = counts["parent"] * args.rounds
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    print(f"plays per side: {plays} ({counts['parent']} per round, {args.rounds} rounds)")
    print(f"parent: {plays / spent['parent']:.0f} plays/s")
    print(f"change: {plays / spent['change']:.0f} plays/s")
    print(f"change/parent per round: median {median:.3f}, quartiles {q1:.3f}-{q3:.3f}, "
          f"{sum(x > 1 for x in ratios)}/{len(ratios)} rounds above 1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
