"""Paired benchmark runs of two checkouts: a parent and a change.

    python3 tools/pairs.py --parent <dir> --change <dir> --workload verify-n5
                           [--pairs 10] [--seed 3000]

Runs ``python3 bench/run.py --trace 0`` from the root of each checkout for
the ``run_seconds`` that the change's ``BENCHMARK.json`` sets, one pair
after another; pair i uses seed ``--seed`` + i on both sides, and the side
that runs first alternates (the parent first in even pairs), so drift on a
shared machine falls on both sides alike.  Writes ``BENCH_<workload>.json``
in the current directory: every run, each side's median and quartiles per
end-to-end metric, the change's median over the parent's, and how many
pairs the change wins, where a win is a strictly better value in the
direction ``BENCHMARK.json`` gives, and the gap between the medians next to
the spread of the parent's quartiles.  Quartiles are
``statistics.quantiles(values, n=4, method="inclusive")``.  A run that
exits nonzero or prints no result stops the script.  Standard library
only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys


def describe(root: str) -> str:
    """The checkout's commit, marked "-dirty" when its tree has changes."""
    try:
        out = subprocess.run(
            ["git", "-C", root, "describe", "--always", "--dirty", "--abbrev=12"],
            capture_output=True, text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def run_once(root: str, workload: str, seed: int, seconds: int) -> dict:
    """One ``bench/run.py`` run: its result line, with each metric's value only."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {root} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    out = {}
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["parent"]["metrics"][name] for r in runs]
        change = [r["change"]["metrics"][name] for r in runs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        p, c = spread(parent), spread(change)
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent": p,
            "change": c,
            "change_over_parent": c["median"] / p["median"] if p["median"] else None,
            "median_gap": c["median"] - p["median"],
            "parent_iqr": p["q3"] - p["q1"],
            "wins": wins,
            "ties": sum(pv == cv for pv, cv in zip(parent, change)),
            "pairs": len(runs),
        }
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="root of the parent checkout")
    ap.add_argument("--change", required=True, help="root of the change checkout")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=3000, help="seed of pair 0; pair i uses seed + i")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    with open(os.path.join(args.change, "BENCHMARK.json")) as fh:
        benchmark = json.load(fh)
    declared, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    runs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        run = {"pair": i, "seed": seed, "first": order[0]}
        for side in order:
            run[side] = run_once(getattr(args, side), args.workload, seed, seconds)
        runs.append(run)
        shown = {side: run[side]["metrics"].get("ops_per_s") for side in ("parent", "change")}
        print(f"pair {i} seed {seed} {order[0]} first: ops_per_s {shown}", file=sys.stderr)
    record = {
        "workload": args.workload,
        "command": f"python3 bench/run.py --workload {args.workload} --seed <seed> --seconds {seconds} --trace 0",
        "parent": describe(args.parent),
        "change": describe(args.change),
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "metrics": summarize(runs, declared),
        "runs": runs,
    }
    with open(f"BENCH_{args.workload}.json", "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    for name, m in record["metrics"].items():
        print(f"{name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g} "
              f"({m['wins']}/{m['pairs']} wins)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
