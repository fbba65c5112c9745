"""Greedy edge-walk search drivers.

Each driver is one walk: a start class and a tuple of phases, repeated
until a full cycle of them leaves the class unchanged (a single phase
runs once, to its fixpoint).  A phase scans its candidate moves in a
fixed deterministic order and applies BIC-improving ones until a
fixpoint: turn phases walk between classes sharing a skeleton, edge
phases add or delete one edge, forward phases only add and backward
phases only delete.

Score comparisons use strict ``>`` with no epsilon slack, so every
applied move strictly increases the score and termination follows from
the finiteness of the class space.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Optional

# consistent_extension stays importable here for perfbench's tracer
from .graphs import Dag, Mec, consistent_extension, mec_of
# full_imset stays importable here for perfbench's tracer
from .imset import full_imset, key_of, nodes_of
# apply_move, verify_pair and _class_imset stay importable here for perfbench's tracer
from .moves import (BUDDING, EDGE_PAIR, FLIP, Move, apply_move, verify_pair,
                    _class_imset, _raw_edge_candidates, _raw_tree_candidates,
                    _raw_turn_candidates, _verified)
from .scoring import LocalScoreCache, SufficientStats, class_delta, score_mec
from .ci_tests import pc_skeleton

__all__ = [
    "FIRST_IMPROVEMENT",
    "BEST_IMPROVEMENT",
    "SearchError",
    "SearchConfig",
    "TraceStep",
    "SearchTrace",
    "turn_phase",
    "edge_phase",
    "greedy_cim",
    "skeletal_greedy_cim",
    "recurrent_phased_greedy_cim",
]

FIRST_IMPROVEMENT = "first_improvement"
BEST_IMPROVEMENT = "best_improvement"


class SearchError(Exception):
    """Raised when a search config or phase is invalid."""


@dataclass(frozen=True)
class SearchConfig:
    """Every driver reads `subset_cap`, and `tree_moves_enabled` in its turn
    phases; all but recurrent, which always takes the best improvement, read
    `strategy`; only skeletal reads `alpha`."""

    strategy: str = FIRST_IMPROVEMENT
    subset_cap: Optional[int] = None
    tree_moves_enabled: bool = False
    alpha: float = 1e-4

    def __post_init__(self) -> None:
        if self.strategy not in (FIRST_IMPROVEMENT, BEST_IMPROVEMENT):
            raise SearchError(f"unknown strategy {self.strategy!r}")
        if self.subset_cap is not None and self.subset_cap < 1:
            raise SearchError("subset_cap must be positive when given")
        if not 0.0 < self.alpha < 1.0:
            raise SearchError(f"alpha must be in (0,1), got {self.alpha}")


@dataclass(frozen=True)
class TraceStep:
    move: Move
    score_before: float
    score_after: float
    phase: str

    def to_json(self) -> dict:
        return {
            "move": self.move.to_json(),
            "score_before": self.score_before,
            "score_after": self.score_after,
            "phase": self.phase,
        }


@dataclass(frozen=True)
class SearchTrace:
    steps: tuple = ()

    def __len__(self) -> int:
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def to_json(self) -> list:
        return [step.to_json() for step in self.steps]


class _Run:
    """Mutable state threaded through the phases of one search."""

    def __init__(self, stats: SufficientStats) -> None:
        self.cache = LocalScoreCache(stats)
        self.steps: list[TraceStep] = []


# The adjacency sides each edge phase sweeps: False for additions, True for deletions
_EDGE_SIDES = {"edge": (False, True), "forward": (False,), "backward": (True,)}


def _candidates(mec: Mec, phase: str, config: SearchConfig) -> Iterator[Move]:
    if phase == "turn":
        yield from _raw_turn_candidates(mec, config.subset_cap)
        if config.tree_moves_enabled:
            yield from _raw_tree_candidates(mec)
    elif phase in _EDGE_SIDES:
        yield from _raw_edge_candidates(mec, config.subset_cap, _EDGE_SIDES[phase])
    else:
        raise SearchError(f"unknown phase {phase!r}")


def _extension_delta(source: Mec, target: Mec, run: _Run) -> float:
    return class_delta(source, target, run.cache)


def _gain(cache: LocalScoreCache, h: int, t: int, a: int) -> float:
    """L(h, a + t) - L(h, a): r(S) summed over the family {T + {h, t} : T within a}."""
    return cache.local(h, a | 1 << t) - cache.local(h, a)


def _side(cache: LocalScoreCache, h: int, t: int, s: int, c: int) -> float:
    """r(S) summed over {T + {h, t} : T within s, T not within c}."""
    return _gain(cache, h, t, s) - _gain(cache, h, t, s & c)


def _estimate(move: Move, ne: tuple, cache: LocalScoreCache) -> float:
    """r(S) summed over the added entries minus the removed ones, with no target
    class: a score-equivalent score telescopes each parent-set family to two gains."""
    sign = 1 if move.added else -1
    if move.kind == EDGE_PAIR:
        h, t, s = move.params
        return sign * _gain(cache, h, t, key_of(s))
    if move.kind == BUDDING:
        h, t, s = move.params
        return sign * _side(cache, h, t, key_of(s), ne[t])
    if move.kind == FLIP:
        i, j, s_i, s_j = move.params
        return _side(cache, i, j, key_of(s_i), ne[j]) - _side(cache, j, i, key_of(s_j), ne[i])
    # v-structure additions, shifts and splits: each size-3 key's r(S), head max(S)
    return (sum(_side(cache, h, t, 1 << m, 0) for t, m, h in map(nodes_of, move.added))
            - sum(_side(cache, h, t, 1 << m, 0) for t, m, h in map(nodes_of, move.removed)))


def _run_phase(mec: Mec, score: float, phase: str, config: SearchConfig, run: _Run):
    """Drive one phase to its fixpoint; returns (mec, score).

    Candidates come through the verified enumeration: deduplicated by
    delta, materialised, and kept only when the claimed delta matches the
    entries of both classes on the parent-set families of the nodes whose
    parents differ between their representatives.  Before it is
    materialised, a candidate is skipped when its estimate plus a rounding
    margin cannot beat the best delta so far (or 0); a valid move's delta
    is within the margin of its estimate.
    """

    def promising(move: Move) -> bool:  # reads ne, best and margin as they change
        return _estimate(move, ne, run.cache) + margin > (best[0] if best else 0.0)

    current = mec
    while True:
        ne = current.skeleton.neighbor_masks
        margin = 1e-9 * max(1.0, abs(score))
        best = None
        for move, target in _verified(current, _candidates(current, phase, config),
                                      promising):
            delta = _extension_delta(current, target, run)
            if delta > 0.0 and (best is None or delta > best[0]):
                best = (delta, move, target)
                if config.strategy == FIRST_IMPROVEMENT:
                    break
        if best is None:
            return current, score
        delta, move, target = best
        run.steps.append(TraceStep(move, score, score + delta, phase))
        current = target
        score += delta


def _walk(start: Mec, stats: SufficientStats, config: SearchConfig, phases: tuple):
    """Run the phases in turn from start until a full cycle of them leaves
    the class unchanged; a single phase runs once, to its fixpoint."""
    run = _Run(stats)
    current, score = start, score_mec(start, stats, run.cache)
    while True:
        previous = current
        for phase in phases:
            current, score = _run_phase(current, score, phase, config, run)
        if len(phases) == 1 or current == previous:
            return current, SearchTrace(tuple(run.steps))


def turn_phase(mec: Mec, stats: SufficientStats, config: SearchConfig):
    return _walk(mec, stats, config, ("turn",))


def edge_phase(mec: Mec, stats: SufficientStats, config: SearchConfig):
    return _walk(mec, stats, config, ("edge",))


def greedy_cim(stats: SufficientStats, config: SearchConfig):
    """Alternate edge and turn phases from the empty class to a joint fixpoint."""
    return _walk(mec_of(Dag.from_arcs(stats.p, [])), stats, config, ("edge", "turn"))


def skeletal_greedy_cim(stats: SufficientStats, config: SearchConfig):
    """CI-recovered skeleton, low-to-high orientation, then turn phase."""
    skel, _ = pc_skeleton(stats, config.alpha)
    return _walk(mec_of(Dag.from_arcs(stats.p, sorted(skel.edges))), stats, config, ("turn",))


def recurrent_phased_greedy_cim(stats: SufficientStats, config: SearchConfig):
    """Forward, backward and turn phases cycled with best-improvement scans."""
    return _walk(mec_of(Dag.from_arcs(stats.p, [])), stats,
                 replace(config, strategy=BEST_IMPROVEMENT), ("forward", "backward", "turn"))
