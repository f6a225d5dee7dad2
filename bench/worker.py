"""Processes the benchmark times: one pass of a workload, a traced CLI, a set-up probe.

    python bench/worker.py cli <trace|digest> <out-prefix> -- <cliquegames arguments>
    python bench/worker.py setup <workload> <inputs-dir>
    python bench/worker.py sep <plain|trace> <inputs-dir> <out-prefix>
    python bench/worker.py big <plain|trace> <inputs-dir> <out-prefix>
    python bench/worker.py vcheck <inputs-dir> <out-prefix>

Each writes its result as ``<out-prefix>.result.json``; traced processes
also write their spans (see spans.py).  The package is imported from
PYTHONPATH, which the caller points at the checkout's ``src``.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time

from spans import PlayLog, Tracer

SEPARATOR_SUITES = ("incidence-separation", "clique-separation", "relaxed-separation", "induced-clique")


def _write(prefix: str, obj: dict) -> None:
    obj["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    obj["children_maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    with open(prefix + ".result.json", "w") as fh:
        json.dump(obj, fh)


def _manifest(inputs: str) -> dict:
    with open(os.path.join(inputs, "manifest.json")) as fh:
        return json.load(fh)


def cost_counts(cg, items) -> dict:
    """Gates and depth of every game circuit (each family, every k) of the graphs.

    ``items`` holds (graph, config, game kinds the workload plays on it);
    circuits already in a config are reused, not rebuilt.
    """
    gates = depth = 0
    for g, cfg, kinds in items:
        idx = cg.nonedges(g)
        for kind in kinds:
            for k in range(1, g.n + 1):
                circ = cg.game_circuit(g, idx, kind, k, cfg)
                gates += circ.size
                depth = max(depth, circ.depth)
    return {"gates_total": gates, "depth_max": depth}


def referee(cg, kind, g, a, b, nonedge, transcript, bound, cfg) -> list[str]:
    """What is wrong with one play's answer, by the package's own predicates."""
    problems = []
    if not cg.legal_answer(kind, g, frozenset(a), frozenset(b), nonedge):
        problems.append("illegal-answer")
    if transcript.total_bits > bound:
        problems.append("bits-exceed-bound")
    if cg.replay_transcript(g, kind, transcript, cfg) != nonedge:
        problems.append("transcript-not-decodable")
    return problems


def referee_outcome(cg, kind, g, a, b, outcome, bound, cfg) -> list[str]:
    problems = [] if outcome.alice_answer == outcome.bob_answer else ["answer-mismatch"]
    return problems + referee(cg, kind, g, a, b, outcome.nonedge, outcome.transcript, bound, cfg)


# ---------------------------------------------------------------------------
# the CLI, traced or with a transcript digest only


def run_cli(mode: str, prefix: str, argv: list[str]) -> int:
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        i = tracer.open("cli.import")
    import cliquegames.cli as cli

    if tracer is not None:
        tracer.close(i)
        tracer.install()
        j = tracer.open("cli.main")
        rc = cli.main(argv)
        tracer.close(j)
        sys.stdout.flush()
        tracer.write(prefix, {"rc": rc})
        return rc
    import cliquegames
    from cliquegames import games, harness

    log = PlayLog()
    original = games.play

    def play(*args, **kwargs):
        outcome = original(*args, **kwargs)
        log(args, outcome)
        return outcome

    for space in (cliquegames, games, harness, cli):
        space.play = play
    rc = cli.main(argv)
    sys.stdout.flush()
    _write(prefix, {"rc": rc, "plays": log.summary()})
    return rc


# ---------------------------------------------------------------------------
# set-up: what a pass does before its timed region


def setup(workload: str, inputs: str) -> None:
    if workload == "verify-n5":
        import cliquegames.cli  # noqa: F401  (the CLI imports everything)
        from cliquegames import catalog_all_graphs

        catalog_all_graphs(5)
    elif workload == "separate-n6":
        import cliquegames  # noqa: F401

        _manifest(inputs)
    else:
        load_big(inputs)


# ---------------------------------------------------------------------------
# separate-n6


def run_sep(mode: str, inputs: str, prefix: str) -> None:
    manifest = _manifest(inputs)
    import cliquegames as cg

    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
        root = tracer.open("bench.pass")
    t0 = time.perf_counter()
    graphs = [cg.strip_stars(cg.parse_graph(text))[0] for text in manifest["graphs"]]
    cfg = cg.GameConfig()
    reports = [cg.run_suite(name, graphs, cfg) for name in SEPARATOR_SUITES]
    region = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        tracer.active = False
    out = {
        "region_s": region,
        "reports": [r.to_json_obj() for r in reports],
        "suite_s": {r.suite: r.wall_time for r in reports},
        "stripped_unchanged": sum(1 for g in graphs if g.n == 6),
    }
    out.update(cost_counts(cg, [(g, cfg, (cg.BICLIQUE, cg.CLIQUE)) for g in graphs]))
    if tracer is not None:
        tracer.write(prefix)
    _write(prefix, out)


# ---------------------------------------------------------------------------
# big-graphs


def load_big(inputs: str):
    manifest = _manifest(inputs)
    import cliquegames as cg

    graphs = {}
    for entry in manifest["graphs"]:
        with open(os.path.join(inputs, entry["file"])) as fh:
            graphs[entry["file"]] = cg.strip_stars(cg.parse_graph(fh.read()))[0]
    return cg, manifest, graphs


def _labels(ids) -> str:
    return ",".join(str(v + 1) for v in ids)


def run_big(mode: str, inputs: str, prefix: str) -> None:
    cg, manifest, graphs = load_big(inputs)
    kinds = {"biclique": cg.BICLIQUE, "clique": cg.CLIQUE}
    jobs = [(e, family) for e in manifest["graphs"] for family in e["inputs"]]
    tracer = None
    if mode == "trace":
        tracer = Tracer()
        tracer.install()
        root = tracer.open("bench.pass")
    children = []
    cold, cold_ms, bound_s, play_ms, round_s, warm = [], [], [], [], [], []
    configs = {}
    t0 = time.perf_counter()
    for entry, family in jobs:
        a, b = entry["inputs"][family][0]
        args = ["play", os.path.join(inputs, entry["file"]), "--game", family, "--a", _labels(a), "--b", _labels(b)]
        if tracer is None:
            cmd = [sys.executable, "-m", "cliquegames.cli"] + args
        else:
            child = f"{prefix}.cold{len(children)}"
            children.append(child)
            cmd = [sys.executable, __file__, "cli", "trace", child, "--"] + args
            span = tracer.open("bench.cold_play")
        tc = time.perf_counter()
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        cold_ms.append((time.perf_counter() - tc) * 1000)
        if tracer is not None:
            tracer.close(span)
        cold.append((entry, family, proc.returncode, proc.stdout, proc.stderr))
    for entry, family in jobs:
        g, kind = graphs[entry["file"]], kinds[family]
        cfg = cg.GameConfig()
        tb = time.perf_counter()
        bound = cg.bit_bound(kind, g, cfg)
        bound_s.append(time.perf_counter() - tb)
        configs[entry["file"], family] = (cfg, bound)
        a, b = entry["inputs"][family][1]
        cg.play(kind, g, a, b, cfg)  # warm-up: oracle caches, first evaluation
    # closed loop, one client: each round plays one input of every size class
    # on every graph and family, interleaved, so each round asks for the same work
    classes = manifest["round_classes"]
    job_s = {f"{entry['file']}:{family}": 0.0 for entry, family in jobs}
    for r in range(manifest["rounds"]):
        spent = 0.0
        for c in range(classes):
            for entry, family in jobs:
                g, kind = graphs[entry["file"]], kinds[family]
                a, b = entry["inputs"][family][2 + r * classes + c]
                tp = time.perf_counter()
                outcome = cg.play(kind, g, a, b, configs[entry["file"], family][0])
                dt = time.perf_counter() - tp
                spent += dt
                job_s[f"{entry['file']}:{family}"] += dt
                play_ms.append(dt * 1000)
                warm.append((entry, family, a, b, outcome))
        round_s.append(spent)
    region = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(root)
        tracer.active = False

    # untimed: referee every play with the package's own predicates
    failures = []
    log = PlayLog()
    cold_sha = hashlib.sha256()
    for entry, family, rc, stdout, stderr in cold:
        g, kind = graphs[entry["file"]], kinds[family]
        cfg, bound = configs[entry["file"], family]
        a, b = entry["inputs"][family][0]
        if rc != 0:
            failures.append(f"cold play exit {rc} on {entry['file']} {family}: {stderr.strip()[-200:]}")
            continue
        obj = json.loads(stdout)
        cold_sha.update(json.dumps(obj, sort_keys=True).encode())
        # the graphs are star-free, so labels are ids + 1; a disagreement makes the CLI exit 1
        pair = tuple(sorted(v - 1 for v in obj["nonedge"]))
        transcript = cg.Transcript(
            [cg.TranscriptEntry(e["round"], e["sender"], e["bits"], e["meaning"]) for e in obj["entries"]]
        )
        problems = referee(cg, kind, g, a, b, pair, transcript, bound, cfg)
        failures += [f"cold {entry['file']} {family}: {p}" for p in problems]
    for entry, family, a, b, outcome in warm:
        g, kind = graphs[entry["file"]], kinds[family]
        cfg, bound = configs[entry["file"], family]
        log.add(outcome)
        problems = referee_outcome(cg, kind, g, a, b, outcome, bound, cfg)
        failures += [f"warm {entry['file']} {family} a={a} b={b}: {p}" for p in problems]

    out = {
        "region_s": region,
        "cold_ms": cold_ms,
        "bound_s": bound_s,
        "play_ms": play_ms,
        "round_s": round_s,
        "job_s": job_s,
        "round_plays": len(jobs) * manifest["round_classes"],
        "attempted": len(cold) + len(warm),
        "failures": failures,
        "plays": log.summary(),
        "cold_digest": cold_sha.hexdigest(),
        "children": children,
    }
    out.update(cost_counts(cg, [(graphs[e["file"]], configs[e["file"], f][0], (kinds[f],)) for e, f in jobs]))
    if tracer is not None:
        tracer.write(prefix)
    _write(prefix, out)


# ---------------------------------------------------------------------------
# verify-n5: referee a seeded sample of plays, and count the circuits' cost


def run_vcheck(inputs: str, prefix: str) -> None:
    manifest = _manifest(inputs)
    import cliquegames as cg

    kinds = {name: cg.kind_from_name(name) for name in ("biclique", "clique", "relaxed-clique", "edge-biclique")}
    failures = []
    log = PlayLog()
    for item in manifest["sample"]:
        g = cg.graph_from_edges(item["n"], [tuple(e) for e in item["edges"]])
        kind = kinds[item["game"]]
        a, b = frozenset(item["a"]), frozenset(item["b"])
        cfg = cg.GameConfig()
        outcome = cg.play(kind, g, a, b, cfg)
        log.add(outcome)
        problems = referee_outcome(cg, kind, g, a, b, outcome, cg.bit_bound(kind, g, cfg), cfg)
        failures += [f"sample {item}: {p}" for p in problems]
    catalog = [(g, cg.GameConfig(), (cg.BICLIQUE, cg.CLIQUE)) for g in cg.catalog_all_graphs(5)]
    out = {"attempted": len(manifest["sample"]), "failures": failures, "plays": log.summary()}
    out.update(cost_counts(cg, catalog))
    _write(prefix, out)


def main(argv: list[str]) -> int:
    cmd = argv[0] if argv else ""
    if cmd == "cli" and len(argv) >= 4 and argv[3] == "--":
        return run_cli(argv[1], argv[2], argv[4:])
    if cmd == "setup" and len(argv) == 3:
        setup(argv[1], argv[2])
    elif cmd == "sep" and len(argv) == 4:
        run_sep(argv[1], argv[2], argv[3])
    elif cmd == "big" and len(argv) == 4:
        run_big(argv[1], argv[2], argv[3])
    elif cmd == "vcheck" and len(argv) == 3:
        run_vcheck(argv[1], argv[2])
    else:
        print(__doc__, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
