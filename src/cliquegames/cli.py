"""Command-line front end: oracles, circuit export, game play, verification.

Exit codes: 0 success, 1 protocol/verification failure, 2 usage error,
3 graph parse error, 4 oracle limit exceeded.  Defaults can be overridden
with ``CLIQUEGAMES_<FLAG>`` environment variables (e.g. CLIQUEGAMES_SEED).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from .circuit import serialize_circuit
from .games import (
    GAME_NAMES,
    GameConfig,
    GameKind,
    _game_network,
    bit_bound,
    kind_from_name,
    play,
)
from .graph import (
    Graph,
    GraphParseError,
    OracleLimitError,
    TrivialGraphError,
    max_biclique_size,
    max_clique_size,
    max_edge_biclique,
    maximal_cliques,
    parse_graph,
    strip_stars,
)
from .harness import SUITE_NAMES, catalog_all_graphs, run_suite, worst_case_bits

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_ORACLE = 4

class UsageError(ValueError):
    """A malformed flag value or environment override (exit 2)."""


def _env(name: str, fallback, choices: Sequence = ()):
    raw = os.environ.get(f"CLIQUEGAMES_{name}")
    if raw is None:
        return fallback
    if choices and raw not in choices:
        raise UsageError(
            f"CLIQUEGAMES_{name}={raw!r} is not one of {', '.join(choices)}"
        )
    try:
        return type(fallback)(raw)
    except ValueError:
        raise UsageError(
            f"CLIQUEGAMES_{name}={raw!r} is not a valid {type(fallback).__name__}"
        ) from None


def _nonnegative(name: str, value: int) -> None:
    if value < 0:
        raise UsageError(f"{name}: {value} is negative")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--seed",
        type=int,
        default=_env("SEED", 0),
        help="recorded in the output; every circuit is deterministic",
    )
    parser.add_argument(
        "--oracle-limit",
        type=int,
        default=_env("ORACLE_LIMIT", 16),
        help="largest n the exact oracles will accept",
    )
    outputs = ("json", "text")
    parser.add_argument("--output", choices=outputs, default=_env("OUTPUT", "json", outputs))
    parser.add_argument("-v", "--verbose", action="count", default=0)


def _config(args) -> GameConfig:
    return GameConfig(seed=args.seed, oracle_limit=args.oracle_limit)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)


def _load_graph(path: str) -> Graph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphParseError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise GraphParseError(f"{path} is not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    return parse_graph(text)


def _load_stripped(path: str) -> tuple[Graph, frozenset]:
    g = _load_graph(path)
    stripped, removed = strip_stars(g)
    return stripped, frozenset(g.labels[v] for v in removed)


def _parse_vertex_list(raw: str, g: Graph, removed_labels: frozenset, flag: str) -> frozenset:
    ids = set()
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        try:
            label = int(piece)
        except ValueError:
            raise UsageError(f"{flag}: {piece!r} is not a vertex label") from None
        if label in removed_labels:
            raise ValueError(
                f"{flag}: vertex {label} was removed by star stripping"
            )
        if label not in g.label_to_id:
            raise UsageError(f"{flag}: unknown vertex label {label}")
        ids.add(g.label_to_id[label])
    return frozenset(ids)


def _game_kind(args) -> GameKind:
    edge_bound = getattr(args, "edge_bound", None)
    if edge_bound is not None:
        if args.game != "edge-biclique":
            raise UsageError("--edge-bound only applies to the edge-biclique game")
        _nonnegative("--edge-bound", edge_bound)
    return kind_from_name(args.game, edge_bound)


def _cmd_oracle(args) -> int:
    _nonnegative("--clique-cap", args.clique_cap)
    g = _load_graph(args.file)
    limit = args.oracle_limit
    omega = max_clique_size(g, max(limit, 20))
    omega_b = max_biclique_size(g, limit)
    mc = len(maximal_cliques(g, max_count=args.clique_cap))
    edge_b = max_edge_biclique(g, limit)
    if args.output == "json":
        print(_dump({"omega": omega, "omega_b": omega_b, "mc": mc, "edge_biclique": edge_b}))
    else:
        print(f"omega={omega} omega_b={omega_b} mc={mc} edge_biclique={edge_b}")
    return EXIT_OK


def _cmd_build_circuit(args) -> int:
    g, _ = _load_stripped(args.file)
    kind = _game_kind(args)
    cfg = _config(args)
    net = _game_network(g, kind)
    if not 1 <= args.k <= net.slots:
        raise UsageError(f"--k: {args.k} is outside 1..{net.slots}")
    circ = net.circuit(args.k)
    text = serialize_circuit(circ)
    if args.output == "json":
        print(
            _dump(
                {
                    "n": g.n,
                    "game": kind.name,
                    "k": args.k,
                    "builder": "sort",
                    "seed": cfg.seed,
                    "depth": circ.depth,
                    "size": circ.size,
                    "circuit": text,
                }
            )
        )
    else:
        sys.stdout.write(text)
        print(f"depth={circ.depth} size={circ.size}", file=sys.stderr)
    return EXIT_OK


def _cmd_play(args) -> int:
    g, removed = _load_stripped(args.file)
    kind = _game_kind(args)
    cfg = _config(args)
    a = _parse_vertex_list(args.a, g, removed, "--a")
    b = _parse_vertex_list(args.b, g, removed, "--b")
    outcome = play(kind, g, a, b, cfg)
    if args.output == "json":
        print(_dump(outcome.to_json_obj()))
    else:
        o = outcome.to_json_obj()
        print(
            f"game={o['game']} nonedge={o['nonedge']} kind_of_answer={o['kind_of_answer']} "
            f"total_bits={o['total_bits']} promise_verified={o['promise_verified']}"
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.n_max < 2:
        raise UsageError(f"--n-max: {args.n_max} is below 2, so no graph would be checked")
    cfg = _config(args)
    graphs = catalog_all_graphs(args.n_max)
    suites = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    ok = True
    reports = []
    for name in suites:
        if args.verbose:
            print(f"running suite {name} ...", file=sys.stderr)
        report = run_suite(name, graphs, cfg)
        reports.append(report.to_json_obj())
        ok = ok and report.passed
    print(_dump(reports if len(reports) > 1 else reports[0]))
    return EXIT_OK if ok else EXIT_FAILURE


def _cmd_stats(args) -> int:
    g, _ = _load_stripped(args.file)
    kind = _game_kind(args)
    cfg = _config(args)
    bits, witness = worst_case_bits(g, kind, cfg)
    obj = {
        "game": kind.name,
        "n": g.n,
        "max_bits": bits,
        "bound": bit_bound(kind, g, cfg),
        "witness_a": sorted(g.labels[v] for v in witness.a),
        "witness_b": sorted(g.labels[v] for v in witness.b),
    }
    if args.output == "json":
        print(_dump(obj))
    else:
        print(
            f"game={obj['game']} max_bits={obj['max_bits']} bound={obj['bound']} "
            f"witness_a={obj['witness_a']} witness_b={obj['witness_b']}"
        )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliquegames",
        description="Monotone circuits and nonedge-finding games on graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oracle", help="print exact clique/biclique statistics")
    p.add_argument("file")
    p.add_argument("--clique-cap", type=int, default=1_000_000)
    _add_common(p)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("build-circuit", help="emit a separator circuit")
    p.add_argument("file")
    p.add_argument("--game", choices=GAME_NAMES, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)
    p.set_defaults(func=_cmd_build_circuit)

    p = sub.add_parser("play", help="run one game and print the transcript")
    p.add_argument("file")
    p.add_argument("--game", choices=GAME_NAMES, required=True)
    p.add_argument("--a", required=True, help="comma-separated vertex labels for Alice")
    p.add_argument("--b", required=True, help="comma-separated vertex labels for Bob")
    p.add_argument("--edge-bound", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_play)

    p = sub.add_parser("verify", help="run a verification suite over small graphs")
    p.add_argument("--suite", choices=SUITE_NAMES + ("all",), required=True)
    p.add_argument("--n-max", type=int, default=5)
    _add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("stats", help="worst-case bits over all valid inputs")
    p.add_argument("file")
    p.add_argument("--game", choices=GAME_NAMES, required=True)
    p.add_argument("--edge-bound", type=int, default=None)
    _add_common(p)
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        parser = _build_parser()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args = parser.parse_args(argv)
    try:
        _nonnegative("--oracle-limit", args.oracle_limit)  # its default may come from the environment
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GraphParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OracleLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except (TrivialGraphError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
