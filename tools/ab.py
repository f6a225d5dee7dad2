"""Plays and separator suites of two checkouts timed in one process: a parent and a change.

    python3 tools/ab.py --parent <dir> --change <dir> [--rounds N]
                        [--workload catalog|big-graphs|separate-n6] [--seed 62000]

Imports each checkout's ``src/cliquegames`` under a module name of its own,
so both live in one process and share its state of the machine.  Prints
each side's plays/s over all rounds and the quartiles of the per-round
ratio of the change's plays/s over the parent's, with
``statistics.quantiles(n=4, method="inclusive")``.  Standard library only.

``--workload catalog`` (the default, 24 rounds) plays the n <= 5 catalog
(``catalog_all_graphs(5)``) on every ``STRIDE``-th graph, for all four
games, refereed as the game suites of ``verify`` referee them: per game and
graph one ``bit_bound``, then per valid input ``play``, ``legal_answer``
and ``replay_transcript``.  Valid inputs are listed before any timing.
Each round times the same plays on both sides, the side that goes first
alternating (the parent first in even rounds).  A play that raises, or an
answer one side refutes, stops the script.

``--workload big-graphs`` (default 4 rounds) runs ``bench/gen.py
big-graphs <seed> <tmpdir>`` from the change checkout and plays its warm
loop as ``bench/worker.py`` plays it: per graph and family one
``bit_bound`` and one warm-up play on each side, untimed, then per round
the manifest's rounds of one input per size class on every graph and
family, interleaved.  Every play runs on both sides, the side that goes
first alternating from play to play, and the two must agree on the nonedge
and on every transcript entry.  Besides the overall ratio it prints each
(graph, family) job's plays/s ratio over all rounds.  The first round pays
each round table's first request inside the timing, as a benchmark pass
does; later rounds find them built.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

GAMES = ("biclique", "clique", "relaxed-clique", "edge-biclique")
SEPARATOR_SUITES = ("incidence-separation", "clique-separation", "relaxed-separation", "induced-clique")
STRIDE = 20  # every 20th catalog graph: about a second of plays per side and round
SIDES = ("parent", "change")
ROUNDS = {"catalog": 24, "big-graphs": 4, "separate-n6": 6}  # default rounds per workload


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


def report(plays: int, spent: dict, ratios: list[float], unit: str = "plays") -> None:
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    print(f"parent: {plays / spent['parent']:.0f} {unit}/s")
    print(f"change: {plays / spent['change']:.0f} {unit}/s")
    print(f"change/parent overall: {spent['parent'] / spent['change']:.3f}")
    print(f"change/parent per round: median {median:.3f}, quartiles {q1:.3f}-{q3:.3f}, "
          f"{sum(x > 1 for x in ratios)}/{len(ratios)} rounds above 1")


def catalog(sides: dict, rounds: int) -> None:
    work = {side: workload(cg) for side, cg in sides.items()}
    counts = {side: sum(len(inputs) for _, _, inputs in w) for side, w in work.items()}
    if counts["parent"] != counts["change"]:
        raise SystemExit(f"the two sides list different valid inputs: {counts}")
    spent = {"parent": 0.0, "change": 0.0}
    ratios = []
    for r in range(rounds):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        rate = {}
        for side in order:
            plays, seconds = run(sides[side], work[side])
            spent[side] += seconds
            rate[side] = plays / seconds
        ratios.append(rate["change"] / rate["parent"])
        print(f"round {r} {order[0]} first: parent {rate['parent']:.0f}/s change {rate['change']:.0f}/s "
              f"ratio {ratios[-1]:.3f}", file=sys.stderr)
    plays = counts["parent"] * rounds
    print(f"plays per side: {plays} ({counts['parent']} per round, {rounds} rounds)")
    report(plays, spent, ratios)


def _entries(outcome) -> list[tuple]:
    return [(e.round, e.sender, e.bits, e.meaning) for e in outcome.transcript.entries]


def generate(change_root: str, workload: str, seed: int) -> tuple[dict, dict]:
    """``bench/gen.py``'s manifest for the workload and seed, and the text of its other files by name."""
    with tempfile.TemporaryDirectory() as inputs:
        gen = [sys.executable, "bench/gen.py", workload, str(seed), inputs]
        subprocess.run(gen, cwd=change_root, check=True)
        texts = {}
        for name in os.listdir(inputs):
            with open(os.path.join(inputs, name)) as fh:
                texts[name] = fh.read()
    return json.loads(texts.pop("manifest.json")), texts


def big_graphs(sides: dict, change_root: str, seed: int, rounds: int) -> None:
    manifest, texts = generate(change_root, "big-graphs", seed)
    jobs = [(entry, family) for entry in manifest["graphs"] for family in entry["inputs"]]
    state = {}  # per side: per job, (kind, graph)
    for side, cg in sides.items():
        graphs = {name: cg.strip_stars(cg.parse_graph(text))[0] for name, text in texts.items()}
        kinds = {"biclique": cg.BICLIQUE, "clique": cg.CLIQUE}
        state[side] = {}
        for entry, family in jobs:
            g, kind = graphs[entry["file"]], kinds[family]
            cg.bit_bound(kind, g, cg.GameConfig())
            a, b = entry["inputs"][family][1]
            cg.play(kind, g, a, b, cg.GameConfig())  # warm-up, as bench/worker.py plays one
            state[side][entry["file"], family] = kind, g
    classes, played = manifest["round_classes"], 0
    job_s = {(entry["file"], family): {side: 0.0 for side in SIDES} for entry, family in jobs}
    spent = {side: 0.0 for side in SIDES}
    ratios = []
    for r in range(rounds):
        round_s = {side: 0.0 for side in SIDES}
        for warm in range(manifest["rounds"]):
            for c in range(classes):
                for entry, family in jobs:
                    a, b = entry["inputs"][family][2 + warm * classes + c]
                    key = entry["file"], family
                    outcomes = {}
                    for side in SIDES if played % 2 == 0 else SIDES[::-1]:
                        cg, (kind, g) = sides[side], state[side][key]
                        cfg = cg.GameConfig()
                        t0 = time.perf_counter()
                        outcomes[side] = cg.play(kind, g, a, b, cfg)
                        dt = time.perf_counter() - t0
                        round_s[side] += dt
                        job_s[key][side] += dt
                    played += 1
                    parent, change = outcomes["parent"], outcomes["change"]
                    if parent.nonedge != change.nonedge or _entries(parent) != _entries(change):
                        raise SystemExit(f"the two sides disagree on {key} a={a} b={b}")
        for side in SIDES:
            spent[side] += round_s[side]
        ratios.append(round_s["parent"] / round_s["change"])
        print(f"round {r}: parent {round_s['parent']:.3f} s change {round_s['change']:.3f} s "
              f"ratio {ratios[-1]:.3f}", file=sys.stderr)
    print(f"plays per side: {played} ({played // rounds} per round, {rounds} rounds, seed {seed})")
    for (name, family), s in job_s.items():
        print(f"  {name} {family}: change/parent {s['parent'] / s['change']:.3f}")
    report(played, spent, ratios)


def separate(sides: dict, change_root: str, seed: int, rounds: int) -> None:
    manifest, _ = generate(change_root, "separate-n6", seed)
    graphs = {side: [cg.strip_stars(cg.parse_graph(text))[0] for text in manifest["graphs"]]
              for side, cg in sides.items()}
    expected = manifest["expected"]
    suite_s = {name: {side: 0.0 for side in SIDES} for name in SEPARATOR_SUITES}
    ratios = []
    for r in range(rounds):
        order = SIDES if r % 2 == 0 else SIDES[::-1]
        reports = {}
        for side in order:
            cg, cfg = sides[side], sides[side].GameConfig()
            reports[side] = [cg.run_suite(name, graphs[side], cfg) for name in SEPARATOR_SUITES]
        objs = {}
        for side, reps in reports.items():
            objs[side] = [{**rep.to_json_obj(), "wall_time": None} for rep in reps]
            for rep in reps:
                suite_s[rep.suite][side] += rep.wall_time
                if not rep.passed or rep.inputs_tested != expected[rep.suite]:
                    raise SystemExit(f"{side}: suite {rep.suite} failed or tested "
                                     f"{rep.inputs_tested} vectors, expected {expected[rep.suite]}")
        if objs["parent"] != objs["change"]:
            raise SystemExit(f"the two sides' reports differ in round {r}")
        spent = {side: sum(rep.wall_time for rep in reports[side]) for side in SIDES}
        ratios.append(spent["parent"] / spent["change"])
        print(f"round {r} {order[0]} first: parent {spent['parent']:.3f} s change {spent['change']:.3f} s "
              f"ratio {ratios[-1]:.3f}", file=sys.stderr)
    vectors = sum(expected[name] for name in SEPARATOR_SUITES) * rounds
    print(f"vectors per side: {vectors} ({vectors // rounds} per round, {rounds} rounds, seed {seed})")
    for name, s in suite_s.items():
        print(f"  {name}: change/parent {s['parent'] / s['change']:.3f}")
    spent = {side: sum(s[side] for s in suite_s.values()) for side in SIDES}
    report(vectors, spent, ratios, "vectors")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the change checkout")
    ap.add_argument("--workload", choices=tuple(ROUNDS), default="catalog")
    ap.add_argument("--rounds", type=int, help="rounds (default 24 for catalog, 4 for big-graphs, 6 for separate-n6)")
    ap.add_argument("--seed", type=int, default=62000, help="input seed of big-graphs and separate-n6")
    args = ap.parse_args(argv)
    rounds = args.rounds if args.rounds is not None else ROUNDS[args.workload]
    if rounds < 2:
        ap.error("--rounds must be at least 2")
    sides = {"parent": load(args.parent, "cliquegames_parent"), "change": load(args.change, "cliquegames_change")}
    if args.workload == "catalog":
        catalog(sides, rounds)
    elif args.workload == "big-graphs":
        big_graphs(sides, args.change, args.seed, rounds)
    else:
        separate(sides, args.change, args.seed, rounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
