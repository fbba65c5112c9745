"""Search drivers: phases, traces, determinism, candidate screen."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cimwalk.search as search_mod
from cimwalk.ci_tests import CiTestError
from cimwalk.graphs import Dag, consistent_extension, mec_of
from cimwalk.imset import imset_delta, mec_restricted_imset
from cimwalk.moves import (BUDDING, EDGE_PAIR, FLIP, SHIFT, SPLIT,
                           V_STRUCTURE_ADDITION, MoveError, apply_move,
                           enumerate_edge_moves, enumerate_tree_moves,
                           enumerate_turn_moves)
from cimwalk.polytope import enumerate_mecs
from cimwalk.scoring import (LocalScoreCache, ScoringError, SufficientStats,
                             score_delta, score_mec)
from cimwalk.search import (BEST_IMPROVEMENT, FIRST_IMPROVEMENT, SearchConfig,
                            SearchError, TraceStep, edge_phase, greedy_cim,
                            recurrent_phased_greedy_cim, skeletal_greedy_cim,
                            turn_phase)
from cimwalk.simulate import assign_weights, make_rng, random_dag, sample
from imset_reference import tuple_keys
from score_reference import mobius_sum

CHAIN_COV = [[1.0, 1.0, 1.0], [1.0, 2.0, 2.0], [1.0, 2.0, 3.0]]
COLLIDER_COV = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 3.0]]

CHAIN_MEC = mec_of(Dag.from_arcs(3, [(0, 1), (1, 2)]))
COLLIDER_MEC = mec_of(Dag.from_arcs(3, [(0, 2), (1, 2)]))


def _stats(cov, n=1000):
    return SufficientStats.from_covariance(cov, n=n)


def test_turn_phase_finds_the_collider_in_one_step():
    start = mec_of(Dag.from_arcs(3, [(0, 2), (2, 1)]))
    out, trace = turn_phase(start, _stats(COLLIDER_COV), SearchConfig())
    assert out == COLLIDER_MEC
    assert len(trace) == 1
    step = trace.steps[0]
    assert step.phase == "turn"
    assert step.move.kind == V_STRUCTURE_ADDITION
    assert step.score_after > step.score_before


def test_edge_phase_only_changes_edges():
    start = mec_of(Dag.from_arcs(3, []))
    out, trace = edge_phase(start, _stats(CHAIN_COV), SearchConfig())
    assert len(out.skeleton.edges) >= 2
    for step in trace:
        assert step.phase == "edge"


def test_greedy_recovers_collider():
    out, trace = greedy_cim(_stats(COLLIDER_COV), SearchConfig())
    assert out == COLLIDER_MEC
    assert all(s.score_after > s.score_before for s in trace)


def test_greedy_recovers_chain_class():
    out, _ = greedy_cim(_stats(CHAIN_COV), SearchConfig())
    assert out == CHAIN_MEC


def test_greedy_on_independent_data_stays_empty():
    stats = _stats([[1.0, 0.0], [0.0, 1.0]])
    out, trace = greedy_cim(stats, SearchConfig())
    assert out == mec_of(Dag.from_arcs(2, []))
    assert len(trace) == 0


def test_strategies_agree_on_easy_instances():
    for cov in (CHAIN_COV, COLLIDER_COV):
        first, _ = greedy_cim(_stats(cov), SearchConfig(strategy=FIRST_IMPROVEMENT))
        best, _ = greedy_cim(_stats(cov), SearchConfig(strategy=BEST_IMPROVEMENT))
        assert first == best


def test_trace_is_a_running_sum():
    out, trace = greedy_cim(_stats(COLLIDER_COV), SearchConfig())
    steps = list(trace)
    for a, b in zip(steps, steps[1:]):
        assert b.score_before == a.score_after
    assert trace.to_json() == [s.to_json() for s in steps]


def test_skeletal_recovers_collider():
    out, trace = skeletal_greedy_cim(_stats(COLLIDER_COV), SearchConfig())
    assert out == COLLIDER_MEC
    for step in trace:
        assert step.phase == "turn"


def test_recurrent_recovers_chain_class():
    out, trace = recurrent_phased_greedy_cim(_stats(CHAIN_COV), SearchConfig())
    assert out == CHAIN_MEC
    for step in trace:
        assert step.phase in ("forward", "backward", "turn")
        if step.phase == "forward":
            assert not step.move.removed
        if step.phase == "backward":
            assert not step.move.added


def test_runs_are_deterministic_on_sampled_data():
    model = assign_weights(random_dag(6, 2.0, make_rng(3)), make_rng(4))
    _, stats = sample(model, 800, make_rng(5))
    first_out, first_trace = greedy_cim(stats, SearchConfig())
    second_out, second_trace = greedy_cim(stats, SearchConfig())
    assert first_out == second_out
    assert first_trace.to_json() == second_trace.to_json()


def test_subset_cap_limits_still_converge():
    out, _ = greedy_cim(_stats(CHAIN_COV), SearchConfig(subset_cap=1))
    assert out == CHAIN_MEC


def test_config_validation():
    with pytest.raises(SearchError):
        SearchConfig(strategy="steepest")
    with pytest.raises(SearchError):
        SearchConfig(subset_cap=0)
    with pytest.raises(SearchError):
        SearchConfig(alpha=1.5)


# ---------------------------------------------------------------------------
# The imset-delta screen


def _sampled_stats(p, seed, n=500):
    model = assign_weights(random_dag(p, 2.0, make_rng(seed)), make_rng(seed + 1))
    _, stats = sample(model, n, make_rng(seed + 2))
    return stats


_TREES = SearchConfig(tree_moves_enabled=True)


def _assert_estimates_match(mec, stats):
    """On every turn and edge candidate that passes apply_move and the
    full-imset check, the local-term estimate equals the extension delta to
    within a thousandth of the screen's margin."""
    cache = LocalScoreCache(stats)
    tolerance = 1e-9 * max(1.0, abs(score_mec(mec, stats, cache))) / 1000
    checked = 0
    for move, _ in enumerate_turn_moves(mec) + enumerate_edge_moves(mec):
        est = search_mod._estimate(move, mec.skeleton.neighbor_masks, cache)
        assert abs(est - score_delta(mec, move, stats, cache)) <= tolerance
        checked += 1
    return checked


@st.composite
def _classes_with_data(draw):
    p = draw(st.integers(4, 7))
    order = draw(st.permutations(range(p)))
    pairs = list(itertools.combinations(range(p), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    arcs = [(order[a], order[b]) for (a, b), k in zip(pairs, keep) if k]
    return mec_of(Dag.from_arcs(p, arcs)), _sampled_stats(p, draw(st.integers(0, 10**6)))


@settings(max_examples=60)
@given(_classes_with_data())
def test_screen_estimate_matches_score_delta_on_random_classes(case):
    assert _assert_estimates_match(*case) > 0


def test_screen_estimate_matches_score_delta_on_every_p4_class():
    stats = _sampled_stats(4, 17)
    assert sum(_assert_estimates_match(mec, stats) for mec in enumerate_mecs(4).mecs) > 0


def test_estimate_is_the_mobius_sum_on_every_raw_candidate_up_to_p4():
    """Every raw turn, tree and edge candidate of every class with p <= 4,
    including those that apply_move or the family check would reject: the
    local terms telescope the Möbius sum over the delta, whatever the class."""
    kinds = set()
    full = _sampled_stats(4, 44)
    for p in (2, 3, 4):
        cache = LocalScoreCache(_stats([row[:p] for row in full.cov[:p]], full.n))
        for mec in enumerate_mecs(p).mecs:
            ne = mec.skeleton.neighbor_masks
            for phase in ("turn", "edge"):
                for move in search_mod._candidates(mec, phase, _TREES):
                    want = mobius_sum(move, cache)
                    assert abs(search_mod._estimate(move, ne, cache) - want) <= 1e-9 * max(
                        1.0, abs(want)), move
                    kinds.add(move.kind)
    assert kinds == {V_STRUCTURE_ADDITION, BUDDING, FLIP, EDGE_PAIR, SHIFT, SPLIT}


def test_an_edge_candidate_over_eleven_nodes_is_screened_by_its_delta():
    """Node 0 has nine pairwise non-adjacent parents and node 10 is isolated:
    adding 10 -> 0 with S* all nine parents gains an entry over all eleven
    nodes, and its estimate is the score change."""
    dag = Dag.from_arcs(11, [(k, 0) for k in range(1, 10)])
    _, stats = sample(assign_weights(dag, make_rng(5)), 500, make_rng(6))
    mec = mec_of(dag)
    cache = LocalScoreCache(stats)
    [move] = [m for m in search_mod._candidates(mec, "edge", SearchConfig())
              if m.params == (0, 10, tuple(range(1, 10)))]
    assert move.added and max(map(int.bit_count, move.added)) == 11
    est = search_mod._estimate(move, mec.skeleton.neighbor_masks, cache)
    assert est is not None
    margin = 1e-9 * max(1.0, abs(score_mec(mec, stats, cache)))
    assert abs(est - score_delta(mec, move, stats, cache)) <= margin / 1000


def _duplicated_column_stats(seed):
    """Five sampled columns with column 4 an exact copy of column 2."""
    data, _ = sample(assign_weights(random_dag(5, 2.0, make_rng(seed)), make_rng(seed + 1)),
                     500, make_rng(seed + 2))
    data[:, 4] = data[:, 2]
    return SufficientStats.from_data(data)


def test_an_exactly_duplicated_column_stops_each_driver_with_its_error():
    """The screen scores candidates through the same cache as the applied
    move, so a singular local score raises from the driver; the CLI rejects
    such data before any driver runs."""
    stats = _duplicated_column_stats(0)
    for driver in (greedy_cim, recurrent_phased_greedy_cim):
        with pytest.raises(ScoringError, match=re.escape(
                "zero residual variance for node 2 given parents [4]")):
            driver(stats, SearchConfig())
    with pytest.raises(CiTestError, match=re.escape(
            "singular covariance block for (2,4) given []")):
        skeletal_greedy_cim(stats, SearchConfig())
    for seed in range(1, 6):
        stats = _duplicated_column_stats(seed)
        for driver in (greedy_cim, recurrent_phased_greedy_cim):
            with pytest.raises(ScoringError):
                driver(stats, SearchConfig())
        with pytest.raises(CiTestError):
            skeletal_greedy_cim(stats, SearchConfig())


def test_the_class_caches_hold_at_most_4096_classes():
    """A walk reuses only the current class and the targets of its last
    step, so neither per-class cache grows with the classes it materialises."""
    for cached in (consistent_extension, mec_restricted_imset):
        assert cached.cache_parameters()["maxsize"] == 4096


def _unscreened_run_phase(mec, score, phase, config, run):
    """The phase loop without the screen: every deduplicated candidate is
    materialised, checked against full imsets and scored."""
    current = mec
    while True:
        source_imset = search_mod._class_imset(current)
        best = None
        seen = set()
        for move in search_mod._candidates(current, phase, config):
            key = (move.added, move.removed)
            if key in seen:
                continue
            seen.add(key)
            try:
                target = apply_move(current, move)
            except MoveError:
                continue
            added, removed = imset_delta(source_imset,
                                         search_mod._class_imset(target))
            if added != move.added or removed != move.removed:
                continue
            delta = search_mod._extension_delta(current, target, run)
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


_DRIVER_RUNS = [(driver, strategy)
                for driver in (greedy_cim, skeletal_greedy_cim)
                for strategy in (FIRST_IMPROVEMENT, BEST_IMPROVEMENT)]
_DRIVER_RUNS.append((recurrent_phased_greedy_cim, BEST_IMPROVEMENT))


def _all_runs(stats):
    out = []
    for driver, strategy in _DRIVER_RUNS:
        mec, trace = driver(stats, SearchConfig(strategy=strategy))
        out.append((mec, trace.to_json()))
    return out


@pytest.mark.parametrize("index", range(10))
def test_screen_leaves_traces_and_results_unchanged(monkeypatch, index):
    stats = _sampled_stats(5 + index % 6, 300 + index)
    screened = _all_runs(stats)
    with monkeypatch.context() as patch:
        patch.setattr(search_mod, "_run_phase", _unscreened_run_phase)
        assert _all_runs(stats) == screened



def test_turn_candidates_with_tree_moves_hold_the_path4_shift_and_the_cycle5_splits():
    at_1 = mec_of(Dag.from_arcs(4, [(0, 1), (2, 1), (2, 3)]))
    shifts = [move for move in search_mod._candidates(at_1, "turn", _TREES)
              if move.kind == SHIFT]
    assert [tuple_keys(move.added) for move in shifts] == [{(1, 2, 3)}]
    assert [tuple_keys(move.removed) for move in shifts] == [{(0, 1, 2)}]
    one = mec_of(Dag.from_arcs(5, [(0, 1), (1, 2), (3, 2), (3, 4), (4, 0)]))
    splits = [move for move in search_mod._candidates(one, "turn", _TREES)
              if move.kind == SPLIT]
    assert ((frozenset({(0, 1, 2), (2, 3, 4)}), frozenset({(1, 2, 3)}))
            in [(tuple_keys(m.added), tuple_keys(m.removed)) for m in splits])
    assert {m.kind for m in search_mod._candidates(one, "turn", SearchConfig())} <= {
        V_STRUCTURE_ADDITION, BUDDING, FLIP}


@pytest.mark.parametrize("arcs", [
    [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)],          # a 4-cycle with a chord
    [(0, 1), (1, 2), (3, 4)],                          # a forest
    [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],  # two cycles
])
def test_turn_candidates_hold_no_tree_move_off_trees_and_single_cycles(arcs):
    mec = mec_of(Dag.from_arcs(6, arcs))
    assert not mec.skeleton.is_tree() and not mec.skeleton.is_single_cycle()
    assert not [move for move in search_mod._candidates(mec, "turn", _TREES)
                if move.kind in (SHIFT, SPLIT)]
    assert enumerate_tree_moves(mec) == []
