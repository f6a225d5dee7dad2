"""The cliquegames benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload <verify-n5|separate-n6|big-graphs> --seed <n>
                         --seconds <s> --trace <0|1>

Run it from the root of a checkout; the package is imported from ``src``.
Inputs come from ``--seed`` (bench/gen.py, in its own process).  The timed
work runs in child processes, one pass after another, until ``--seconds``
is used up (at least two passes).  Every output is refereed with the
package's own predicates, and the last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
Lines before it starting with ``#`` describe the run for a reader.
Scratch files go to ``.bench_out/<workload>/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

from spans import aggregate  # noqa: E402

WORKLOADS = ("verify-n5", "separate-n6", "big-graphs")
SETUP_PROBES = 11
MIN_PASSES = 2
DEADLINE_S = 170
VERIFY_ARGS = ["verify", "--suite", "all", "--n-max", "5"]
GAME_SUITES = ("game-biclique", "game-clique", "game-relaxed-clique", "game-edge-biclique")
SEPARATOR_SUITES = ("incidence-separation", "clique-separation", "relaxed-separation", "induced-clique")
ALL_SUITES = SEPARATOR_SUITES + GAME_SUITES
# exhaustive n <= 5 counts every verify-n5 run must reproduce
VERIFY_GRAPHS = 814
VERIFY_PLAYS = 323_708
VERIFY_VECTORS = 340_082

END_TO_END = ("setup_s", "wall_s", "ops_per_s", "peak_rss_mb", "depth_max", "gates_total")
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "depth_max": "count",
    "gates_total": "count",
}


class BenchError(RuntimeError):
    """The benchmark itself could not run (missing source, a child crashed)."""


def _stop(signum, frame):
    raise BenchError(f"stopped by signal {signum} (the deadline is {DEADLINE_S} s)")


class Run:
    def __init__(self, root: str, workload: str, seed: int, seconds: int, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out = os.path.join(root, ".bench_out", workload)
        self.inputs = os.path.join(self.out, "inputs")
        self.py = sys.executable
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    # -- bookkeeping ------------------------------------------------------
    def check(self, ok: bool, what: str, count: int = 1, misses: int = 1) -> None:
        """Count ``count`` checked operations; on failure, ``misses`` of them failed."""
        self.attempted += count
        if not ok:
            self.failed += misses
            self.failures.append(what)

    def path(self, name: str) -> str:
        return os.path.join(self.out, name)

    # -- children ---------------------------------------------------------
    def child(self, args: list[str], stdout_name: str | None = None):
        """Run one child to completion: (wall s, exit code, stdout, max RSS kB)."""
        out_path = self.path(stdout_name or "child.stdout")
        with open(out_path, "w") as out, open(self.path("child.stderr"), "w") as err:
            t0 = time.perf_counter()
            # own session, so a deadline can stop the child and whatever it started
            proc = subprocess.Popen(args, stdout=out, stderr=err, env=self.env, cwd=self.root, start_new_session=True)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        with open(out_path) as fh:
            stdout = fh.read()
        return wall, os.waitstatus_to_exitcode(status), stdout, usage.ru_maxrss

    def worker(self, *args: str) -> dict:
        """Run bench/worker.py and return its result file."""
        prefix = self.path(args[0])
        wall, rc, _, maxrss = self.child([self.py, os.path.join(BENCH, "worker.py"), *args, prefix])
        if rc != 0:
            with open(self.path("child.stderr")) as fh:
                raise BenchError(f"worker {args[0]} exited {rc}: {fh.read()[-2000:]}")
        with open(prefix + ".result.json") as fh:
            result = json.load(fh)
        result["process_s"] = wall
        result["process_maxrss_kb"] = maxrss
        return result

    def prepare(self) -> None:
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.inputs)
        gen = [self.py, os.path.join(BENCH, "gen.py"), self.workload, str(self.seed), self.inputs]
        _, rc, _, _ = self.child(gen)
        if rc != 0:
            raise BenchError(f"input generator exited {rc}")
        # the package must come from this checkout; this also writes its bytecode
        probe = "import cliquegames.cli, cliquegames; print(cliquegames.__file__)"
        _, rc, stdout, _ = self.child([self.py, "-c", probe])
        src = os.path.join(self.root, "src", "cliquegames")
        if rc != 0 or os.path.dirname(os.path.abspath(stdout.strip())) != src:
            raise BenchError(f"cannot import cliquegames from {src}")

    def setup_s(self) -> float:
        walls = []
        for _ in range(SETUP_PROBES):
            wall, rc, _, _ = self.child([self.py, os.path.join(BENCH, "worker.py"), "setup", self.workload, self.inputs])
            if rc != 0:
                raise BenchError(f"set-up probe exited {rc}")
            walls.append(wall)
        return statistics.median(walls)

    def repeat(self, one_pass) -> list[dict]:
        """Whole passes until the next one would overrun --seconds (at least MIN_PASSES)."""
        passes = []
        t0 = time.perf_counter()
        while True:
            start = time.perf_counter()
            passes.append(one_pass())
            last = time.perf_counter() - start
            if len(passes) >= MIN_PASSES and time.perf_counter() - t0 + last > self.seconds:
                return passes


# ---------------------------------------------------------------------------
# workloads: each returns (passes, cost counts, numbers for the "#" line)


def suite_digest(reports: list[dict]) -> str:
    stable = [{k: v for k, v in r.items() if k != "wall_time"} for r in reports]
    return hashlib.sha256(json.dumps(stable, sort_keys=True).encode()).hexdigest()


def verify_pass(run: Run, cmd: list[str], name: str) -> dict:
    wall, rc, stdout, maxrss = run.child(cmd, name)
    run.check(rc == 0, f"verify exited {rc}")
    try:
        reports = json.loads(stdout)
    except json.JSONDecodeError:
        raise BenchError("verify printed no JSON report") from None
    by_suite = {r["suite"]: r for r in reports}
    run.check(sorted(by_suite) == sorted(ALL_SUITES), f"verify ran suites {sorted(by_suite)}")
    for r in reports:
        run.check(r["passed"], f"suite {r['suite']} failed", r["inputs_tested"], len(r["failures"]))
        run.check(r["graphs_tested"] == VERIFY_GRAPHS, f"suite {r['suite']} tested {r['graphs_tested']} graphs")
        if r["suite"] in GAME_SUITES:
            run.check(r["max_bits_observed"] <= r["bound"], f"suite {r['suite']} exceeds its bound")
    plays = sum(by_suite[s]["inputs_tested"] for s in GAME_SUITES)
    vectors = sum(by_suite[s]["inputs_tested"] for s in SEPARATOR_SUITES)
    run.check(plays == VERIFY_PLAYS, f"verify refereed {plays} plays, expected {VERIFY_PLAYS}")
    run.check(vectors == VERIFY_VECTORS, f"verify evaluated {vectors} vectors, expected {VERIFY_VECTORS}")
    return {
        "wall": wall,
        "ops": plays,
        "ops_s": sum(by_suite[s]["wall_time"] for s in GAME_SUITES),
        "vectors": vectors,
        "vectors_s": sum(by_suite[s]["wall_time"] for s in SEPARATOR_SUITES),
        "rss_kb": maxrss,
        "digest": suite_digest(reports),
        "reports": reports,
        "bits_max": max(by_suite[s]["max_bits_observed"] for s in GAME_SUITES),
    }


def run_verify(run: Run):
    cli = [run.py, "-m", "cliquegames.cli", *VERIFY_ARGS, "--seed", str(run.seed)]
    passes = run.repeat(lambda: verify_pass(run, cli, "verify.stdout"))
    check = run.worker("vcheck", run.inputs)
    run.check(not check["failures"], "; ".join(check["failures"][:3]), check["attempted"], len(check["failures"]))
    sample = check["plays"]
    info = {
        "vectors_per_s": statistics.median(p["vectors"] / p["vectors_s"] for p in passes),
        "bits_max": passes[0]["bits_max"],
        "sample_plays": sample["plays"],
        "sample_bits_mean": sample["bits_mean"],
        "sample_digest": sample["digest"],
        "suite_digest": passes[0]["digest"],
    }
    costs = {"depth_max": check["depth_max"], "gates_total": check["gates_total"]}
    return passes, costs, info


def sep_expected(run: Run) -> tuple[int, dict]:
    with open(os.path.join(run.inputs, "manifest.json")) as fh:
        manifest = json.load(fh)
    return len(manifest["graphs"]), manifest["expected"]


def run_separate(run: Run):
    expected = sep_expected(run)
    passes = run.repeat(lambda: sep_result(run, run.worker("sep", "plain", run.inputs), expected))
    info = {"suite_digest": passes[0]["digest"]}
    return passes, passes[0]["costs"], info


def sep_result(run: Run, r: dict, expected: tuple[int, dict]) -> dict:
    graphs, vectors = expected
    run.check(r["stripped_unchanged"] == graphs, "a sampled graph lost vertices to star stripping")
    for report in r["reports"]:
        name = report["suite"]
        run.check(report["graphs_tested"] == graphs, f"suite {name} tested {report['graphs_tested']} graphs")
        run.check(report["passed"], f"suite {name} failed", report["inputs_tested"], len(report["failures"]))
        run.check(report["inputs_tested"] == vectors[name],
                  f"suite {name} evaluated {report['inputs_tested']} vectors, expected {vectors[name]}")
    return {
        "wall": r["region_s"],
        "ops": sum(rep["inputs_tested"] for rep in r["reports"]),
        "ops_s": sum(r["suite_s"].values()),
        "rss_kb": max(r["process_maxrss_kb"], r["children_maxrss_kb"]),
        "digest": suite_digest(r["reports"]),
        "reports": r["reports"],
        "suite_s": r["suite_s"],
        "costs": {"depth_max": r["depth_max"], "gates_total": r["gates_total"]},
    }


def big_result(run: Run, r: dict) -> dict:
    run.check(not r["failures"], "; ".join(r["failures"][:3]), r["attempted"], len(r["failures"]))
    return {
        "wall": r["region_s"],
        "ops": len(r["play_ms"]),
        "ops_s": sum(r["round_s"]),
        "round_rates": [r["round_plays"] / s for s in r["round_s"]],
        "rss_kb": max(r["process_maxrss_kb"], r["children_maxrss_kb"]),
        "digest": r["plays"]["digest"] + r["cold_digest"],
        "play_ms": r["play_ms"],
        "cold_ms": r["cold_ms"],
        "job_s": r["job_s"],
        "bound_s": sum(r["bound_s"]),
        "plays": r["plays"],
        "costs": {"depth_max": r["depth_max"], "gates_total": r["gates_total"]},
    }


def percentile_with_tail(samples: list[float], tail: int = 10) -> tuple[float, float]:
    """The highest of p99/p95/p90/p50 that leaves at least ``tail`` samples above it."""
    ordered = sorted(samples)
    for q in (99, 95, 90, 50):
        if len(ordered) * (100 - q) / 100 >= tail:
            return q, ordered[min(len(ordered) - 1, int(len(ordered) * q / 100))]
    return 50, statistics.median(ordered)


def run_big(run: Run):
    passes = run.repeat(lambda: big_result(run, run.worker("big", "plain", run.inputs)))
    play_ms = [x for p in passes for x in p["play_ms"]]
    q, tail = percentile_with_tail(play_ms)
    info = {
        "play_ms_p50": statistics.median(play_ms),
        f"play_ms_p{q}": tail,
        "play_samples": len(play_ms),
        "warm_rounds": sum(len(p["round_rates"]) for p in passes),
        "cold_play_ms": statistics.median([x for p in passes for x in p["cold_ms"]]),
        "cold_samples": sum(len(p["cold_ms"]) for p in passes),
        "bound_s": statistics.median(p["bound_s"] for p in passes),
        "warm_s_by_job": {job: statistics.median(p["job_s"][job] for p in passes) for job in passes[0]["job_s"]},
        "bits_max": passes[0]["plays"]["bits_max"],
        "bits_mean": passes[0]["plays"]["bits_mean"],
        "transcript_digest": passes[0]["digest"],
    }
    return passes, passes[0]["costs"], info


# ---------------------------------------------------------------------------
# the traced pass


def per_layer(agg: dict, suite_s: dict, traced_wall: float, untraced_wall: float) -> dict:
    s, calls, incl, counters = agg["self"], agg["calls"], agg["incl"], agg["counters"]
    plays = agg["plays"]

    def self_of(*names):
        return sum(s.get(n, 0.0) for n in names)

    def calls_of(*names):
        return sum(calls.get(n, 0) for n in names)

    layers = agg["layer_self"]
    misses = calls_of("games.monomial_threshold_circuit", "games.monomial_clique_circuit")
    batches = calls_of("circuit.evaluate_many")
    gc_calls = counters.get("game_circuit_calls", 0)
    sized = plays["sized_plays"] if plays else 0
    module_self = sum(layers[m] for m in ("graph", "circuit", "games", "harness", "cli"))
    m = {
        "graph.self_s": layers["graph"],
        "graph.parse_s": incl["graph.parse"],
        "graph.nonedges_s": incl["graph.nonedges"],
        "graph.nonedges_calls": calls_of("graph.nonedges"),
        "graph.oracle_s": incl["graph.oracle"],
        "graph.oracle_hits": counters.get("oracle_hits", 0),
        "graph.oracle_misses": counters.get("oracle_misses", 0),
        "circuit.self_s": layers["circuit"],
        "circuit.sort_s": incl["circuit.sort"],
        "circuit.builder_s": incl["circuit.builder"],
        "circuit.eval_s": incl["circuit.eval"],
        "circuit.eval_calls": calls_of("circuit.node_values", "circuit.evaluate", "circuit.evaluate_many"),
        "circuit.eval_gate_cols": counters.get("eval_gate_cols", 0),
        "circuit.batch_cols": counters.get("batch_cols", 0) / batches if batches else 0.0,
        "games.self_s": layers["games"],
        "games.build_s": incl["games.build"],
        "games.build_self_s": self_of(
            "games.monomial_threshold_circuit", "games.monomial_clique_circuit", "games.induced_clique_circuit"
        ),
        "games.builds": calls_of("games.monomial_threshold_circuit", "games.induced_clique_circuit"),
        "games.gates_built": counters.get("gates_built", 0),
        "games.circuit_hit_ratio": 1 - misses / gc_calls if gc_calls else 0.0,
        "games.eval_hit_ratio": 1 - calls_of("circuit.node_values") / (2 * sized) if sized else 0.0,
        "games.play_self_s": self_of("games.play"),
        "games.plays": calls_of("games.play"),
        "games.replay_s": incl["games.replay"],
        "games.bound_s": incl["games.bound"],
        "games.bound_calls": calls_of("games.bit_bound"),
        "games.legal_s": incl["games.legal"],
        "games.vector_s": incl["games.vector"],
        "games.bits_handshake": plays["bits"]["handshake"] if plays else 0,
        "games.bits_size": plays["bits"]["size"] if plays else 0,
        "games.bits_descend": plays["bits"]["descend"] if plays else 0,
        "harness.self_s": layers["harness"],
        "harness.catalog_s": incl["harness.catalog"],
        "harness.enumerate_s": incl["harness.enumerate"],
        "harness.inputs": counters.get("inputs", 0),
    }
    for suite in ALL_SUITES:
        m[f"harness.suite_s.{suite}"] = suite_s.get(suite, 0.0)
    m.update(
        {
            "cli.self_s": layers["cli"] - self_of("cli.import"),
            "cli.import_s": self_of("cli.import"),
            "bench.self_s": layers["bench"],
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.layer_share": module_self / traced_wall,
            "trace.spans": agg["spans"],
        }
    )
    return m


def traced(run: Run, passes: list[dict], info: dict) -> dict:
    untraced_wall = statistics.median(p["wall"] for p in passes)
    prefix = run.path("traced")
    if run.workload == "verify-n5":
        worker = os.path.join(BENCH, "worker.py")
        digest_cli = [run.py, worker, "cli", "digest", run.path("digest"), "--", *VERIFY_ARGS, "--seed", str(run.seed)]
        _, rc, _, _ = run.child(digest_cli, "digest.stdout")
        run.check(rc == 0, f"digest run exited {rc}")
        with open(run.path("digest.result.json")) as fh:
            untraced_digest = json.load(fh)["plays"]["digest"]
        traced_cli = [run.py, worker, "cli", "trace", prefix, "--", *VERIFY_ARGS, "--seed", str(run.seed)]
        t = verify_pass(run, traced_cli, "traced.stdout")
        agg = aggregate(prefix, [])
        traced_digest = agg["plays"]["digest"]
        run.check(t["digest"] == passes[0]["digest"], "traced suite reports differ from untraced")
        run.check(agg["plays"]["plays"] == VERIFY_PLAYS, f"trace saw {agg['plays']['plays']} plays")
        suite_s = {r["suite"]: r["wall_time"] for r in t["reports"]}
    elif run.workload == "separate-n6":
        t = sep_result(run, run.worker("sep", "trace", run.inputs), sep_expected(run))
        agg = aggregate(run.path("sep"), [])
        untraced_digest, traced_digest = passes[0]["digest"], t["digest"]
        suite_s = t["suite_s"]
    else:
        r = run.worker("big", "trace", run.inputs)
        t = big_result(run, r)
        agg = aggregate(run.path("big"), r["children"])
        untraced_digest, traced_digest = passes[0]["digest"], t["digest"]
        suite_s = {}
    run.check(traced_digest == untraced_digest, "traced transcripts differ from untraced")
    metrics = per_layer(agg, suite_s, t["wall"], untraced_wall)
    info["traced_digest"] = traced_digest
    info["untraced_digest"] = untraced_digest
    share = metrics["trace.layer_share"]
    info["layer_share_ok"] = 0.9 <= share <= 1.1
    if run.workload == "verify-n5":
        info["bound_calls_ge_plays"] = metrics["games.bound_calls"] >= metrics["games.plays"]
        info["bits_mean"] = agg["plays"]["bits_mean"]
    bound_self = sorted(agg["bound_self"].items(), key=lambda kv: -kv[1])
    info["bound_self_top"] = [(name, round(v, 4)) for name, v in bound_self[:4]]
    return metrics


# ---------------------------------------------------------------------------


def env_record(root: str) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "none (not a git checkout)"
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    sha = hashlib.sha256()
    src = os.path.join(root, "src", "cliquegames")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                sha.update(name.encode() + b"\0" + fh.read())
    return {
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": commit,
        "src_sha256": sha.hexdigest()[:16],
    }


def loadavg() -> str:
    try:
        with open("/proc/loadavg") as fh:
            return " ".join(fh.read().split()[:3])
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "cliquegames", "__init__.py")):
        print("error: run from the root of a cliquegames checkout (src/cliquegames missing)", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _stop)
    signal.signal(signal.SIGTERM, _stop)
    signal.alarm(DEADLINE_S)
    run = Run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    env = env_record(root)
    load_before = loadavg()
    try:
        run.prepare()
        setup = run.setup_s()
        workload = {"verify-n5": run_verify, "separate-n6": run_separate, "big-graphs": run_big}[args.workload]
        passes, costs, info = workload(run)
        run.check(len({p["digest"] for p in passes}) == 1, "passes disagree on their outputs")
        run.check(all(p.get("costs", costs) == costs for p in passes), "passes disagree on cost counts")
        metrics = {
            "setup_s": setup,
            "wall_s": statistics.median(p["wall"] for p in passes),
            "ops_per_s": sum(p["ops"] for p in passes) / sum(p["ops_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["rss_kb"] for p in passes) / 1024,
            "depth_max": costs["depth_max"],
            "gates_total": costs["gates_total"],
        }
        if run.trace:
            layer_metrics = traced(run, passes, info)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
    info["pass_walls"] = [round(p["wall"], 4) for p in passes]
    info["fail_ratio"] = run.failed / run.attempted
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "loadavg_before": load_before,
        "loadavg_after": loadavg(),
        "end_to_end": metrics,
        "info": info,
        "pass_walls": [p["wall"] for p in passes],
        "pass_rates": [p["ops"] / p["ops_s"] for p in passes],
        "round_rates": [p.get("round_rates", []) for p in passes],
        "failures": run.failures[:20],
    }
    if run.trace:
        record["per_layer"] = layer_metrics
    with open(run.path("record.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"# env {json.dumps(env)} loadavg {record['loadavg_before']} -> {record['loadavg_after']}")
    print(f"# {args.workload} seed {args.seed}: {json.dumps(info)}")
    for failure in run.failures[:20]:
        print(f"# FAILED {failure}")
    if run.trace:
        chosen = {name: {"value": v, "unit": layer_unit(name)} for name, v in layer_metrics.items()}
    else:
        chosen = {name: {"value": metrics[name], "unit": UNITS[name]} for name in END_TO_END}
    result = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": chosen,
    }
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name.startswith("harness.suite_s."):
        return "s"
    if name.endswith("_ratio") or name.endswith("_share"):
        return "ratio"
    if name.startswith("games.bits_"):
        return "bits"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
