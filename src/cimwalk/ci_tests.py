"""Gaussian conditional-independence tests and skeleton recovery.

Fisher's z test on partial correlations, and a stable variant of the
PC skeleton phase: adjacency sets are frozen at the start of each
conditioning-size level, so the output does not depend on edge
processing order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

import numpy as np

from .graphs import UndirectedGraph, _bits
from .scoring import SufficientStats

__all__ = [
    "CiTestError",
    "CiDecision",
    "fisher_z_test",
    "pc_skeleton",
]


class CiTestError(Exception):
    """Raised for malformed test requests or degenerate statistics."""


@dataclass(frozen=True)
class CiDecision:
    """Outcome of one conditional-independence test.

    ``independent`` is True exactly when ``p_value > alpha``.
    """

    i: int
    j: int
    cond: tuple[int, ...]
    statistic: float
    p_value: float
    independent: bool


def _partial_correlation(i: int, j: int, cond: tuple[int, ...],
                         cov: np.ndarray) -> float:
    idx = [i, j, *cond]
    block = cov[np.ix_(idx, idx)]
    try:
        prec = np.linalg.inv(block)
    except np.linalg.LinAlgError:
        raise CiTestError(
            f"singular covariance block for ({i},{j}) given {list(cond)}")
    return _precision_correlation(prec, i, j, cond)


def _precision_correlation(prec: np.ndarray, i: int, j: int, cond: tuple) -> float:
    """The partial correlation of i and j from the inverse of their block."""
    denom = prec[0, 0] * prec[1, 1]
    if denom <= 0.0:
        raise CiTestError(
            f"non-positive precision diagonal for ({i},{j}) given {list(cond)}")
    return float(-prec[0, 1] / math.sqrt(denom))


def _fisher_z(r: float, n: int, size: int) -> tuple[float, float]:
    """(statistic, two-sided p value) of r given size conditioning nodes."""
    if abs(r) >= 1.0:
        return (math.inf if r > 0 else -math.inf), 0.0
    statistic = math.sqrt(n - size - 3) * math.atanh(r)
    return statistic, math.erfc(abs(statistic) / math.sqrt(2.0))


def fisher_z_test(i: int, j: int, cond: Iterable[int],
                  stats: SufficientStats, alpha: float) -> CiDecision:
    """Two-sided Fisher z test of i independent of j given cond."""
    cond = tuple(sorted(set(cond)))
    p = stats.p
    if i == j or i in cond or j in cond:
        raise CiTestError(f"test nodes ({i},{j}) overlap conditioning set {cond}")
    if any(not 0 <= v < p for v in (i, j, *cond)):
        raise CiTestError(f"node out of range in ({i},{j}|{cond}) for p={p}")
    if stats.n <= len(cond) + 3:
        raise CiTestError(
            f"need n > |cond| + 3, got n={stats.n} with |cond|={len(cond)}")
    r = _partial_correlation(i, j, cond, stats.cov_matrix())
    statistic, p_value = _fisher_z(r, stats.n, len(cond))
    return CiDecision(i=i, j=j, cond=cond, statistic=statistic,
                      p_value=p_value, independent=p_value > alpha)


# Tests per stacked inverse: spreads numpy's call cost, bounds a dense level's memory
_STACK_BLOCKS = 4096


def _separated(pairs, frozen: list, level: int, stats: SufficientStats, alpha: float):
    """(i, j, cond) for each pair the level separates, with the first cond found.

    A pair tries the sets of i's pool, then those of j's pool not yet tried.
    The blocks of about _STACK_BLOCKS tests are inverted in one call, then
    read in scan order up to each pair's first independent test, so an
    unreached test cannot raise.  A singular block sends its batch through
    fisher_z_test, which raises at the first singular block the scan reaches.
    """
    cov, batch = stats.cov_matrix(), []
    for count, (i, j) in enumerate(pairs, 1):
        conds = {}
        for anchor, other in ((i, j), (j, i)):
            pool = tuple(v for v in frozen[anchor] if v != other)
            conds.update(dict.fromkeys(combinations(pool, level)))
        batch.extend((i, j, cond) for cond in conds)
        if not batch or (len(batch) < _STACK_BLOCKS and count < len(pairs)):
            continue
        ix = np.array([(a, b, *cond) for a, b, cond in batch], dtype=np.intp)
        try:
            prec = np.linalg.inv(cov[ix[:, :, None], ix[:, None, :]])
        except np.linalg.LinAlgError:
            prec = None
        done = None
        for t, (a, b, cond) in enumerate(batch):
            if (a, b) == done:
                continue
            if prec is None:
                independent = fisher_z_test(a, b, cond, stats, alpha).independent
            else:
                r = _precision_correlation(prec[t], a, b, cond)
                independent = _fisher_z(r, stats.n, level)[1] > alpha
            if independent:
                done = (a, b)
                yield a, b, cond
        batch = []


def pc_skeleton(stats: SufficientStats, alpha: float,
                max_cond: Optional[int] = None):
    """Skeleton phase of the PC algorithm (order-stable variant).

    Returns (graph, sepsets): the recovered undirected skeleton and a
    map from each removed pair to the first separating set found.
    Pairs are scanned in lexicographic order, conditioning sets in
    lexicographic order within each level, and neighborhoods are the
    ones frozen when the level began.
    """
    p = stats.p
    if not 0.0 < alpha < 1.0:
        raise CiTestError(f"alpha must be in (0,1), got {alpha}")
    graph = UndirectedGraph.from_edges(p, combinations(range(p), 2))
    sepsets: dict[tuple[int, int], tuple[int, ...]] = {}
    level = 0
    while True:
        if max_cond is not None and level > max_cond:
            break
        frozen = [tuple(_bits(mask)) for mask in graph.neighbor_masks]
        if all(len(nbrs) - 1 < level for nbrs in frozen):
            break
        if stats.n <= level + 3:
            break
        pairs = [(i, j) for i, j in combinations(range(p), 2) if graph.has_edge(i, j)]
        for i, j, cond in _separated(pairs, frozen, level, stats, alpha):
            graph = graph.remove_edge(i, j)
            sepsets[(i, j)] = sepsets[(j, i)] = cond
        level += 1
    return graph, sepsets
