"""Output checks that hold for any correct result without pinning its bytes."""

from __future__ import annotations

import json

import numpy as np

from cimwalk.graphs import (Dag, GraphError, Mec, UndirectedGraph, VStructure,
                            consistent_extension, essential_graph, mec_of, shd)
from cimwalk.scoring import LocalScoreCache, SufficientStats, score_mec

# The exact p = 4 edge census (guarantee 1 of the acceptance suite).
CENSUS_P4 = {"vertices": 185, "total_edges": 4259, "turn_pairs": 180,
             "edge_pairs": 756}

SCORE_RTOL = 1e-9


def _mec_from_essential(graph: dict) -> Mec:
    p = graph["p"]
    arcs = [tuple(a) for a in graph["arcs"]]
    edges = [tuple(e) for e in graph["edges"]]
    skel = UndirectedGraph.from_edges(
        p, [tuple(sorted(a)) for a in arcs] + [tuple(sorted(e)) for e in edges])
    vstructs = {VStructure(c0, (a, b))
                for (a, c0) in arcs for (b, c1) in arcs
                if c0 == c1 and a < b and not skel.has_edge(a, b)}
    return Mec(skel, frozenset(vstructs))


def check_discover(result_path: str, csv_path: str, truth_path: str,
                   stats_memo: dict) -> tuple:
    """(problems, shd, recovered) for one `discover` output.

    Checks that the result parses, that its essential graph is the
    essential graph of a realizable class, that the reported score equals
    `score_mec` of that class to SCORE_RTOL relative, and that the trace
    scores strictly increase.  `stats_memo` caches the data's statistics
    across calls for the same CSV; they are read with numpy rather than
    the program's own CSV reader.
    """
    try:
        with open(result_path) as handle:
            result = json.load(handle)
        graph = result["essential_graph"]
        mec = _mec_from_essential(graph)
    except (OSError, ValueError, KeyError, TypeError, GraphError) as exc:
        return [f"unparsable result: {exc!r}"], None, None
    problems = []
    if consistent_extension(mec) is None:
        return ["essential graph is not a realizable class"], None, None
    cpdag = essential_graph(mec)
    if (sorted(map(list, cpdag.arcs)) != sorted(graph["arcs"])
            or sorted(map(list, cpdag.undirected)) != sorted(graph["edges"])):
        problems.append("essential graph is not the essential graph of its class")

    if csv_path not in stats_memo:
        data = np.loadtxt(csv_path, delimiter=",", ndmin=2)
        stats_memo[csv_path] = SufficientStats.from_data(data)
    expected = score_mec(mec, stats_memo[csv_path], LocalScoreCache(stats_memo[csv_path]))
    reported = result.get("score")
    if not isinstance(reported, float) or (
            abs(reported - expected) > SCORE_RTOL * max(1.0, abs(expected))):
        problems.append(f"score {reported!r} differs from score_mec {expected!r}")

    previous = None
    for k, step in enumerate(result.get("trace", [])):
        before, after = step["score_before"], step["score_after"]
        if not after > before or (previous is not None and before != previous):
            problems.append(f"trace scores do not strictly increase at step {k}")
            break
        previous = after

    with open(truth_path) as handle:
        truth = json.load(handle)
    true_mec = mec_of(Dag.from_arcs(truth["p"], [tuple(a) for a in truth["arcs"]]))
    return problems, shd(mec, true_mec), mec == true_mec


def check_census(result_path: str) -> list:
    """Problems with one p = 4 `analyze-polytope` output."""
    try:
        with open(result_path) as handle:
            census = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"unparsable census: {exc!r}"]
    problems = [f"{key} is {census.get(key)!r}, expected {want}"
                for key, want in CENSUS_P4.items() if census.get(key) != want]
    if census.get("lp_stats", {}).get("edges") != CENSUS_P4["total_edges"]:
        problems.append("lp_stats.edges disagrees with the edge count")
    return problems
