"""Command-line entry point.

Subcommands: simulate, discover, score, analyze-polytope, compare.  Every
invocation that writes an output also writes a run manifest next to the
primary output (``<out>.manifest.json``) recording the command, the full
configuration, library versions, input and output hashes, and wall-clock
time.  Outputs themselves are deterministic given the same inputs and
seed, so re-running a manifest's command reproduces them byte for byte.

Exit codes: 0 success, 2 validation error (bad flags, malformed files),
1 unexpected runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from typing import Optional

import numpy as np

from . import __version__
from .graphs import (Dag, GraphError, Mec, UndirectedGraph, VStructure,
                     consistent_extension, essential_graph, format_graph_text,
                     is_acyclic, mec_of, parse_graph_text, shd)
from .ci_tests import CiTestError
from .imset import ImsetError
from .moves import MoveError
from .polytope import edge_census, enumerate_mecs, enumerate_mecs_with_skeleton
from .scoring import (LocalScoreCache, ScoringError, require_full_rank,
                      score_mec, stats_from_csv)
from .search import (BEST_IMPROVEMENT, FIRST_IMPROVEMENT, SearchConfig,
                     SearchError, greedy_cim, recurrent_phased_greedy_cim,
                     skeletal_greedy_cim)
from .simulate import (SimulationError, assign_weights, make_rng, random_dag,
                       sample)

_ALGOS = ("greedy-cim", "skeletal-greedy-cim", "recurrent-cim")
_STRATEGIES = {"first-improvement": FIRST_IMPROVEMENT,
               "best-improvement": BEST_IMPROVEMENT}
# Markov equivalence classes on 5 nodes: the vertex count of a p = 5 census
_P5_CLASSES = 8782


class ValidationError(Exception):
    """User-input problem: reported with exit code 2."""


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    try:
        with open(path, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                digest.update(chunk)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}")
    return digest.hexdigest()


def _write_text(path: str, text: str) -> None:
    try:
        with open(path, "w") as handle:
            handle.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}")


def _check_writable(path: str) -> None:
    """Raise the ValidationError that writing path would raise, creating nothing."""
    folder = os.path.dirname(path) or "."
    if os.path.isdir(path):
        problem = "is a directory"
    elif not os.path.isdir(folder):
        problem = "no such directory"
    elif not os.access(path if os.path.exists(path) else folder, os.W_OK):
        problem = "permission denied"
    else:
        return
    raise ValidationError(f"cannot write {path}: {problem}")


def _write_json(path: str, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_manifest(primary_out: str, command: str, config: dict, seed,
                    inputs: list, outputs: list, t0: float,
                    stage_seconds: Optional[dict] = None) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "versions": {
            "cimwalk": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "input_hashes": {path: _sha256(path) for path in inputs},
        "output_hashes": {path: _sha256(path) for path in outputs},
        "wall_clock_seconds": round(time.time() - t0, 3),
    }
    if stage_seconds is not None:
        manifest["stage_seconds"] = {k: round(v, 3) for k, v in stage_seconds.items()}
    _write_json(primary_out + ".manifest.json", manifest)


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _load_json(path: str):
    try:
        with open(path) as handle:
            return json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON in {path}: {exc}")


def _graph_json(p: int, arcs, edges) -> dict:
    return {
        "p": p,
        "arcs": [list(a) for a in sorted(arcs)],
        "edges": [list(e) for e in sorted(edges)],
        "text": format_graph_text(p, arcs=sorted(arcs), edges=sorted(edges)),
    }


def _graph_fields(obj, keys: tuple, what: str) -> int:
    """Check a graph JSON object's fields; returns its node count p."""
    _require(isinstance(obj, dict), f"{what} must be a JSON object")
    for key in keys:
        _require(key in obj, f"{what} missing field {key!r}")
    _require(type(obj["p"]) is int and obj["p"] >= 1,
             f"{what}: field 'p' must be a positive integer")
    return obj["p"]


def _node_pairs(items, p: int, what: str) -> list:
    """A JSON list of [a, b] node pairs, each node an int in [0, p)."""
    _require(isinstance(items, list), f"{what} must be a list")
    for item in items:
        _require(isinstance(item, list) and len(item) == 2
                 and all(type(v) is int and 0 <= v < p for v in item),
                 f"{what} entry {item!r} is not a pair of nodes in [0, {p})")
    return [tuple(item) for item in items]


def _mec_from_graph_json(obj: dict) -> Mec:
    p = _graph_fields(obj, ("p", "arcs", "edges"), "essential graph JSON")
    arcs = _node_pairs(obj["arcs"], p, "essential graph 'arcs'")
    edges = _node_pairs(obj["edges"], p, "essential graph 'edges'")
    _require(is_acyclic(p, arcs), "essential graph 'arcs' contain a directed cycle")
    try:
        skel = UndirectedGraph.from_edges(
            p, [tuple(sorted(a)) for a in arcs] + [tuple(sorted(e)) for e in edges])
        directed = set(arcs)
        vstructs = set()
        for (a, c0) in directed:
            for (b, c1) in directed:
                if c0 == c1 and a < b and not skel.has_edge(a, b):
                    vstructs.add(VStructure(c0, (a, b)))
        mec = Mec(skel, frozenset(vstructs))
    except GraphError as exc:
        raise ValidationError(f"invalid essential graph: {exc}")
    _require(consistent_extension(mec) is not None,
             "essential graph does not describe a realizable class")
    return mec


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_simulate(args) -> int:
    t0 = time.time()
    _require(args.p >= 1, "--p must be at least 1")
    _require(args.n >= 1, "--n must be at least 1")
    _require(0 <= args.d <= max(args.p - 1, 0),
             f"--d must lie in [0, {max(args.p - 1, 0)}]")
    _require(args.seed >= 0, "--seed must be non-negative")
    outputs = (args.out, args.truth, args.out + ".manifest.json")
    _require(len({os.path.abspath(path) for path in outputs}) == len(outputs),
             "--out, --truth and the manifest must be different files")
    for path in outputs:  # so that a failed run leaves no partial dataset
        _check_writable(path)
    rng = make_rng(args.seed)
    dag = random_dag(args.p, args.d, rng)
    model = assign_weights(dag, rng)
    data, _ = sample(model, args.n, rng)

    rows = [",".join(map(repr, row)) for row in data.tolist()]
    _require(len(rows) == args.n and data.shape[1] == args.p,
             "internal: simulated data has wrong shape")
    _write_text(args.out, "\n".join(rows) + "\n")

    truth = {
        "p": args.p,
        "arcs": [list(a) for a in dag.arcs()],
        "weights": [[t, h, model.weights[(t, h)]] for t, h in dag.arcs()],
    }
    _write_json(args.truth, truth)
    _write_manifest(args.out, "simulate",
                    {"p": args.p, "d": args.d, "n": args.n, "seed": args.seed,
                     "out": args.out, "truth": args.truth},
                    args.seed, [], [args.out, args.truth], t0)
    return 0


def _load_stats(path: str):
    # One degenerate-data policy for every command that fits a model:
    # rank-deficient data are rejected before any search or scoring.
    stats = stats_from_csv(path)
    require_full_rank(stats, path)
    return stats


def _cmd_discover(args) -> int:
    t0 = time.time()
    stats = _load_stats(args.data)
    try:
        config = SearchConfig(strategy=_STRATEGIES[args.strategy],
                              subset_cap=args.subset_cap,
                              tree_moves_enabled=args.tree_moves,
                              alpha=args.alpha)
    except SearchError as exc:
        raise ValidationError(str(exc))
    driver = {"greedy-cim": greedy_cim,
              "skeletal-greedy-cim": skeletal_greedy_cim,
              "recurrent-cim": recurrent_phased_greedy_cim}[args.algo]
    mec, trace = driver(stats, config)
    cpdag = essential_graph(mec)
    result = {
        "algo": args.algo,
        "p": stats.p,
        "essential_graph": _graph_json(stats.p, cpdag.arcs, cpdag.undirected),
        "score": score_mec(mec, stats, LocalScoreCache(stats)),
        "trace": trace.to_json(),
    }
    _require(isinstance(result["score"], float), "internal: score must be a float")
    _write_json(args.out, result)
    _write_manifest(args.out, "discover",
                    {"algo": args.algo, "data": args.data, "alpha": args.alpha,
                     "strategy": args.strategy,
                     "subset_cap": args.subset_cap, "tree_moves": args.tree_moves,
                     "out": args.out},
                    None, [args.data], [args.out], t0)
    return 0


def _cmd_score(args) -> int:
    t0 = time.time()
    stats = _load_stats(args.data)
    try:
        with open(args.graph) as handle:
            p, arcs, edges = parse_graph_text(handle.read())
    except OSError as exc:
        raise ValidationError(f"cannot read {args.graph}: {exc}")
    _require(not edges, "graph file must contain only directed arcs ('a -> b')")
    _require(p == stats.p,
             f"graph has {p} nodes but data has {stats.p} columns")
    dag = Dag.from_arcs(p, arcs)
    value = score_mec(mec_of(dag), stats, LocalScoreCache(stats))
    result = {"p": p, "score": value,
              "graph": _graph_json(p, arcs, [])}
    _write_json(args.out, result)
    _write_manifest(args.out, "score",
                    {"data": args.data, "graph": args.graph, "out": args.out},
                    None, [args.data, args.graph], [args.out], t0)
    return 0


def _cmd_analyze_polytope(args) -> int:
    t0 = time.time()
    _require((args.p is None) != (args.skeleton is None),
             "exactly one of --p and --skeleton is required")
    _require(args.threads is None or args.threads >= 1, "--threads must be at least 1")
    inputs = []
    start = time.perf_counter()
    if args.p is not None:
        pairs = _P5_CLASSES * (_P5_CLASSES - 1) // 2
        _require(args.p != 5,
                 f"--p 5 is not supported: the p = 5 polytope has {_P5_CLASSES:,} "
                 f"vertices, so {pairs:,} vertex pairs to prefilter and certify; "
                 "census a face with --skeleton instead")
        _require(2 <= args.p <= 4, "--p must be between 2 and 4")
        vertex_set = enumerate_mecs(args.p)
    else:
        try:
            with open(args.skeleton) as handle:
                p, arcs, edges = parse_graph_text(handle.read())
        except OSError as exc:
            raise ValidationError(f"cannot read {args.skeleton}: {exc}")
        _require(not arcs, "skeleton file must contain only undirected edges ('a -- b')")
        vertex_set = enumerate_mecs_with_skeleton(UndirectedGraph.from_edges(p, edges))
        inputs.append(args.skeleton)
    stages = {"enumerate": time.perf_counter() - start}
    census = edge_census(vertex_set, seconds=stages)
    _write_json(args.out, census)
    _write_manifest(args.out, "analyze-polytope",
                    {"p": args.p, "skeleton": args.skeleton,
                     "threads": args.threads, "out": args.out},
                    None, inputs, [args.out], t0, stages)
    return 0


def _cmd_compare(args) -> int:
    t0 = time.time()
    result = _load_json(args.result)
    _require(isinstance(result, dict) and "essential_graph" in result,
             f"{args.result} missing field 'essential_graph'")
    found = _mec_from_graph_json(result["essential_graph"])

    truth = _load_json(args.truth)
    p = _graph_fields(truth, ("p", "arcs"), args.truth)
    try:
        true_dag = Dag.from_arcs(p, _node_pairs(truth["arcs"], p, f"{args.truth} 'arcs'"))
    except GraphError as exc:
        raise ValidationError(f"invalid truth graph: {exc}")
    true_mec = mec_of(true_dag)
    _require(true_mec.p == found.p,
             f"truth has {true_mec.p} nodes, result has {found.p}")
    report = {"shd": shd(found, true_mec), "recovered": found == true_mec}
    _write_json(args.out, report)
    print(json.dumps(report, sort_keys=True))
    _write_manifest(args.out, "compare",
                    {"result": args.result, "truth": args.truth, "out": args.out},
                    None, [args.result, args.truth], [args.out], t0)
    return 0


# ---------------------------------------------------------------------------
# Argument parsing and dispatch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cimwalk",
        description="Causal structure discovery by greedy edge-walks.")
    parser.add_argument("--version", action="version",
                        version=f"cimwalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw data from a random linear SEM")
    sim.add_argument("--p", type=int, required=True)
    sim.add_argument("--d", type=float, required=True)
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default="data.csv")
    sim.add_argument("--truth", default="truth.json")
    sim.set_defaults(func=_cmd_simulate)

    dis = sub.add_parser("discover", help="run a greedy search on CSV data")
    dis.add_argument("--algo", choices=_ALGOS, required=True)
    dis.add_argument("--data", required=True)
    dis.add_argument("--alpha", type=float, default=1e-4)
    dis.add_argument("--strategy", choices=sorted(_STRATEGIES),
                     default="first-improvement")
    dis.add_argument("--subset-cap", type=int, default=None)
    dis.add_argument("--tree-moves", action="store_true")
    dis.add_argument("--out", default="result.json")
    dis.set_defaults(func=_cmd_discover)

    sco = sub.add_parser("score", help="BIC-score a DAG's class on CSV data")
    sco.add_argument("--data", required=True)
    sco.add_argument("--graph", required=True)
    sco.add_argument("--out", default="score.json")
    sco.set_defaults(func=_cmd_score)

    ana = sub.add_parser("analyze-polytope",
                         help="edge census of a class polytope")
    ana.add_argument("--p", type=int, default=None)
    ana.add_argument("--skeleton", default=None)
    # accepted and recorded in the manifest; the census runs in one process
    ana.add_argument("--threads", type=int, default=None)
    ana.add_argument("--out", default="census.json")
    ana.set_defaults(func=_cmd_analyze_polytope)

    cmp_ = sub.add_parser("compare", help="compare a discovery result to truth")
    cmp_.add_argument("--result", required=True)
    cmp_.add_argument("--truth", required=True)
    cmp_.add_argument("--out", default="compare.json")
    cmp_.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValidationError, ScoringError, CiTestError, GraphError,
            SimulationError, MoveError, ImsetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
