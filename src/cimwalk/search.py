"""Greedy edge-walk search drivers.

Each phase scans candidate moves in a fixed deterministic order and
applies BIC-improving ones until a fixpoint: turn phases walk between
classes sharing a skeleton, edge phases add or delete one edge.  The
drivers compose phases into the two-stage skeletal search, the
from-scratch alternating search, and a recurrent phased variant that
separates additions from deletions and always takes the best move of
a scan.

Score comparisons use strict ``>`` with no epsilon slack, so every
applied move strictly increases the score and termination follows from
the finiteness of the class space.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

# consistent_extension stays importable here for perfbench's tracer
from .graphs import Dag, Mec, consistent_extension, mec_of
# full_imset stays importable here for perfbench's tracer
from .imset import full_imset
# apply_move, verify_pair and _class_imset stay importable here for perfbench's tracer
from .moves import (Move, apply_move, verify_pair, _class_imset,
                    _raw_edge_candidates, _raw_tree_candidates,
                    _raw_turn_candidates, _verified)
from .scoring import (LocalScoreCache, ScoringError, SufficientStats,
                      class_delta, score_mec)
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

_SCREEN_MAX = 8  # largest screened |S|: r(S) costs 2^(|S|-1) local scores


class SearchError(Exception):
    """Raised when a search config or phase is invalid."""


@dataclass(frozen=True)
class SearchConfig:
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


def _candidates(mec: Mec, phase: str, config: SearchConfig) -> Iterator[Move]:
    if phase == "turn":
        yield from _raw_turn_candidates(mec, config.subset_cap)
        if config.tree_moves_enabled:
            skel = mec.skeleton
            if skel.is_tree() or skel.is_single_cycle():
                yield from _raw_tree_candidates(mec)
    elif phase == "edge":
        yield from _raw_edge_candidates(mec, config.subset_cap)
    elif phase in ("forward", "backward"):
        for move in _raw_edge_candidates(mec, config.subset_cap):
            if not (move.removed if phase == "forward" else move.added):
                yield move
    else:
        raise SearchError(f"unknown phase {phase!r}")


def _extension_delta(source: Mec, target: Mec, run: _Run) -> float:
    return class_delta(source, target, run.cache)


def _estimate(move: Move, cache: LocalScoreCache) -> Optional[float]:
    """Sum of Möbius coefficients over the move's delta; None past _SCREEN_MAX."""
    if max(map(int.bit_count, move.added | move.removed), default=0) > _SCREEN_MAX:
        return None
    try:
        return sum(map(cache.mobius, move.added)) - sum(map(cache.mobius, move.removed))
    except ScoringError:  # singular statistics: leave it to the full path
        return None


def _run_phase(mec: Mec, score: float, phase: str, strategy: str,
               config: SearchConfig, run: _Run):
    """Drive one phase to its fixpoint; returns (mec, score).

    Candidates come through the verified enumeration: deduplicated by
    delta, materialised, and kept only when the claimed delta matches the
    entries of both classes on the parent-set families of the nodes whose
    parents differ between their representatives.  Before it is
    materialised, a candidate is skipped when its estimate plus a rounding
    margin cannot beat the best delta so far (or 0); a valid move's delta
    is within the margin of its estimate.
    """

    def promising(move: Move) -> bool:  # reads best and margin as they change
        est = _estimate(move, run.cache)
        return est is None or est + margin > (best[0] if best else 0.0)

    current = mec
    while True:
        margin = 1e-9 * max(1.0, abs(score))
        best = None
        for move, target in _verified(current, _candidates(current, phase, config),
                                      promising):
            delta = _extension_delta(current, target, run)
            if delta > 0.0 and (best is None or delta > best[0]):
                best = (delta, move, target)
                if strategy == FIRST_IMPROVEMENT:
                    break
        if best is None:
            return current, score
        delta, move, target = best
        run.steps.append(TraceStep(move, score, score + delta, phase))
        current = target
        score += delta


def _single_phase(start: Mec, stats: SufficientStats, config: SearchConfig,
                  phase: str):
    run = _Run(stats)
    out, _ = _run_phase(start, score_mec(start, stats, run.cache), phase,
                        config.strategy, config, run)
    return out, SearchTrace(tuple(run.steps))


def turn_phase(mec: Mec, stats: SufficientStats, config: SearchConfig):
    return _single_phase(mec, stats, config, "turn")


def edge_phase(mec: Mec, stats: SufficientStats, config: SearchConfig):
    return _single_phase(mec, stats, config, "edge")


def _cycle_phases(stats: SufficientStats, config: SearchConfig, phases: tuple,
                  strategy: str):
    """Run the phases in turn from the empty class until a full cycle of
    them leaves the class unchanged."""
    run = _Run(stats)
    current = mec_of(Dag.from_arcs(stats.p, []))
    score = score_mec(current, stats, run.cache)
    while True:
        previous = current
        for phase in phases:
            current, score = _run_phase(current, score, phase, strategy, config, run)
        if current == previous:
            return current, SearchTrace(tuple(run.steps))


def greedy_cim(stats: SufficientStats, config: SearchConfig):
    """Alternate edge and turn phases from the empty class to a joint fixpoint."""
    return _cycle_phases(stats, config, ("edge", "turn"), config.strategy)


def skeletal_greedy_cim(stats: SufficientStats, config: SearchConfig):
    """CI-recovered skeleton, low-to-high orientation, then turn phase."""
    skel, _ = pc_skeleton(stats, config.alpha)
    start = mec_of(Dag.from_arcs(stats.p, sorted(skel.edges)))
    return _single_phase(start, stats, config, "turn")


def recurrent_phased_greedy_cim(stats: SufficientStats, config: SearchConfig):
    """Forward, backward and turn phases cycled with best-improvement scans."""
    return _cycle_phases(stats, config, ("forward", "backward", "turn"), BEST_IMPROVEMENT)
