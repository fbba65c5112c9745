"""Fisher z tests and the order-stable PC skeleton."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cimwalk import ci_tests
from cimwalk.ci_tests import CiTestError, fisher_z_test, pc_skeleton
from cimwalk.graphs import UndirectedGraph
from cimwalk.scoring import SufficientStats
from cimwalk.simulate import assign_weights, make_rng, random_dag, sample

# population covariances of x0 -> x1 -> x2 and x0 -> x2 <- x1, unit weights
CHAIN_COV = [[1.0, 1.0, 1.0], [1.0, 2.0, 2.0], [1.0, 2.0, 3.0]]
COLLIDER_COV = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 3.0]]


def _stats(cov, n=1000):
    return SufficientStats.from_covariance(cov, n=n)


def test_statistic_and_p_value_formula():
    stats = _stats([[1.0, 0.6], [0.6, 1.0]], n=100)
    d = fisher_z_test(0, 1, (), stats, alpha=0.05)
    z = math.sqrt(97) * math.atanh(0.6)
    assert d.statistic == pytest.approx(z, abs=1e-12)
    assert d.p_value == pytest.approx(math.erfc(z / math.sqrt(2.0)), abs=1e-15)
    assert not d.independent
    assert d.cond == ()


def test_chain_conditional_independence():
    stats = _stats(CHAIN_COV)
    marginal = fisher_z_test(0, 2, (), stats, alpha=0.05)
    assert not marginal.independent
    given_mid = fisher_z_test(0, 2, (1,), stats, alpha=0.05)
    assert given_mid.independent
    assert given_mid.statistic == pytest.approx(0.0, abs=1e-9)
    assert given_mid.p_value == pytest.approx(1.0, abs=1e-9)


def test_collider_reverses_the_pattern():
    stats = _stats(COLLIDER_COV)
    assert fisher_z_test(0, 1, (), stats, alpha=0.05).independent
    assert not fisher_z_test(0, 1, (2,), stats, alpha=0.05).independent


def test_correlation_beyond_one_saturates():
    # an indefinite matrix drives |r| past 1; the transform must not blow up
    stats = _stats([[1.0, 2.0], [2.0, 1.0]], n=100)
    d = fisher_z_test(0, 1, (), stats, alpha=0.05)
    assert math.isinf(d.statistic) and d.p_value == 0.0
    assert not d.independent


def test_input_validation():
    stats = _stats(CHAIN_COV, n=100)
    with pytest.raises(CiTestError):
        fisher_z_test(0, 0, (), stats, alpha=0.05)
    with pytest.raises(CiTestError):
        fisher_z_test(0, 1, (1,), stats, alpha=0.05)
    with pytest.raises(CiTestError):
        fisher_z_test(0, 5, (), stats, alpha=0.05)
    with pytest.raises(CiTestError):
        fisher_z_test(0, 1, (2,), _stats(CHAIN_COV, n=4), alpha=0.05)


def test_singular_block_is_an_error():
    cov = [[1.0, 1.0, 0.5], [1.0, 1.0, 0.5], [0.5, 0.5, 1.0]]
    with pytest.raises(CiTestError):
        fisher_z_test(0, 2, (1,), _stats(cov), alpha=0.05)


def test_pc_skeleton_chain():
    graph, sepsets = pc_skeleton(_stats(CHAIN_COV), alpha=0.05)
    assert sorted(graph.edges) == [(0, 1), (1, 2)]
    assert sepsets[(0, 2)] == (1,)
    assert sepsets[(2, 0)] == (1,)


def test_pc_skeleton_collider():
    graph, sepsets = pc_skeleton(_stats(COLLIDER_COV), alpha=0.05)
    assert sorted(graph.edges) == [(0, 2), (1, 2)]
    assert sepsets[(0, 1)] == ()


def test_pc_skeleton_max_cond_zero_keeps_chain_closed():
    graph, sepsets = pc_skeleton(_stats(CHAIN_COV), alpha=0.05, max_cond=0)
    # 0 and 2 are marginally dependent; the separating set needs level 1
    assert (0, 2) in graph.edges
    assert (0, 2) not in sepsets


def test_pc_skeleton_alpha_validation():
    with pytest.raises(CiTestError):
        pc_skeleton(_stats(CHAIN_COV), alpha=0.0)
    with pytest.raises(CiTestError):
        pc_skeleton(_stats(CHAIN_COV), alpha=1.0)


def test_pc_skeleton_relabeling_equivariance():
    # x0 -> x2 -> x1 -> x3 with unit weights; permute and compare skeletons
    w = np.zeros((4, 4))
    w[0, 2] = w[2, 1] = w[1, 3] = 1.0
    eye = np.eye(4)
    cov = np.linalg.inv(eye - w.T) @ np.linalg.inv(eye - w)
    base, _ = pc_skeleton(_stats(cov.tolist()), alpha=0.05)

    perm = [2, 0, 3, 1]
    pmat = np.zeros((4, 4))
    for new, old in enumerate(perm):
        pmat[new, old] = 1.0
    permuted_cov = pmat @ cov @ pmat.T
    permuted, _ = pc_skeleton(_stats(permuted_cov.tolist()), alpha=0.05)

    inverse = {old: new for new, old in enumerate(perm)}
    mapped = {tuple(sorted((inverse[a], inverse[b]))) for a, b in base.edges}
    assert mapped == set(permuted.edges)


def test_pc_skeleton_from_samples():
    rng = np.random.default_rng(11)
    n = 4000
    x0 = rng.standard_normal(n)
    x1 = x0 + rng.standard_normal(n)
    x2 = x1 + rng.standard_normal(n)
    stats = SufficientStats.from_data(np.column_stack([x0, x1, x2]))
    graph, _ = pc_skeleton(stats, alpha=0.01)
    assert sorted(graph.edges) == [(0, 1), (1, 2)]


def _pc_skeleton_unskipped(stats, alpha, max_cond=None):
    """pc_skeleton before it skipped conditioning sets already tried for a
    pair: both anchors test every set of their pools."""
    p = stats.p
    graph = UndirectedGraph.from_edges(p, combinations(range(p), 2))
    sepsets = {}
    level = 0
    while True:
        if max_cond is not None and level > max_cond:
            break
        frozen = {v: tuple(sorted(graph.neighbors(v))) for v in range(p)}
        if all(len(frozen[v]) - 1 < level for v in range(p)):
            break
        if stats.n <= level + 3:
            break
        for i, j in combinations(range(p), 2):
            if not graph.has_edge(i, j):
                continue
            removed = False
            for anchor, other in ((i, j), (j, i)):
                pool = tuple(v for v in frozen[anchor] if v != other)
                if len(pool) < level:
                    continue
                for cond in combinations(pool, level):
                    decision = fisher_z_test(i, j, cond, stats, alpha)
                    if decision.independent:
                        graph = graph.remove_edge(i, j)
                        sepsets[(i, j)] = decision.cond
                        sepsets[(j, i)] = decision.cond
                        removed = True
                        break
                if removed:
                    break
        level += 1
    return graph, sepsets


@pytest.mark.parametrize("seed, p", enumerate([5, 6, 7, 8, 9, 10, 11, 12, 14, 16]))
def test_pc_skeleton_matches_the_unskipped_loop(seed, p, monkeypatch):
    rng = make_rng(seed)
    _, stats = sample(assign_weights(random_dag(p, 2.0, rng), rng), 2000, rng)
    want = _pc_skeleton_unskipped(stats, alpha=0.01)
    calls = []
    correlation = ci_tests._precision_correlation

    def counting(prec, i, j, cond):
        calls.append((i, j, tuple(cond)))
        return correlation(prec, i, j, cond)

    # every test the scan reaches reads its correlation here, stacked or not
    monkeypatch.setattr(ci_tests, "_precision_correlation", counting)
    graph, sepsets = pc_skeleton(stats, alpha=0.01)
    assert sorted(graph.edges) == sorted(want[0].edges)
    assert sepsets == want[1]
    # no test is run twice: a conditioning set has one size per level
    assert calls and len(calls) == len(set(calls))


def _pc_skeleton_per_test(stats, alpha, max_cond=None):
    """pc_skeleton before stacked inverses: one fisher_z_test per
    (pair, cond) the scan reaches."""
    p = stats.p
    graph = UndirectedGraph.from_edges(p, combinations(range(p), 2))
    sepsets = {}
    level = 0
    while True:
        if max_cond is not None and level > max_cond:
            break
        frozen = {v: tuple(sorted(graph.neighbors(v))) for v in range(p)}
        if all(len(frozen[v]) - 1 < level for v in range(p)):
            break
        if stats.n <= level + 3:
            break
        for i, j in combinations(range(p), 2):
            if not graph.has_edge(i, j):
                continue
            removed = False
            tried = set()
            for anchor, other in ((i, j), (j, i)):
                pool = tuple(v for v in frozen[anchor] if v != other)
                if len(pool) < level:
                    continue
                for cond in combinations(pool, level):
                    if cond in tried:
                        continue
                    tried.add(cond)
                    decision = fisher_z_test(i, j, cond, stats, alpha)
                    if decision.independent:
                        graph = graph.remove_edge(i, j)
                        sepsets[(i, j)] = decision.cond
                        sepsets[(j, i)] = decision.cond
                        removed = True
                        break
                if removed:
                    break
        level += 1
    return graph, sepsets


def _outcome(run, *args):
    """(sorted edges, sepsets) of a skeleton run, or its error message; the
    test settings raise numpy's overflow warnings as errors."""
    try:
        graph, sepsets = run(*args)
    except (CiTestError, RuntimeWarning) as exc:
        return f"{type(exc).__name__}: {exc}"
    return sorted(graph.edges), sepsets


@pytest.mark.parametrize("seed, p", enumerate([5, 6, 7, 8, 9, 10, 11, 12, 14, 16]))
def test_stacked_pc_skeleton_matches_the_per_test_loop(seed, p):
    rng = make_rng(100 + seed)
    _, stats = sample(assign_weights(random_dag(p, 2.0, rng), rng), 2000, rng)
    for alpha in (1e-4, 0.05):
        for max_cond in (0, 1, None):
            want = _outcome(_pc_skeleton_per_test, stats, alpha, max_cond)
            assert not isinstance(want, str)
            assert _outcome(pc_skeleton, stats, alpha, max_cond) == want


def test_stacked_pc_skeleton_batches_a_level_in_parts(monkeypatch):
    rng = make_rng(3)
    _, stats = sample(assign_weights(random_dag(12, 2.0, rng), rng), 2000, rng)
    want = _outcome(_pc_skeleton_per_test, stats, 0.05)
    for blocks in (1, 7):
        monkeypatch.setattr(ci_tests, "_STACK_BLOCKS", blocks)
        assert _outcome(pc_skeleton, stats, 0.05) == want


@st.composite
def _covariances(draw):
    # integer factors make exactly singular blocks common
    p = draw(st.integers(3, 6))
    k = draw(st.integers(1, p))
    entries = st.integers(-2, 2) if draw(st.booleans()) else st.floats(-2, 2)
    a = np.array(draw(st.lists(entries, min_size=p * k, max_size=p * k)),
                 dtype=float).reshape(p, k)
    n = draw(st.sampled_from([6, 50, 1000]))
    return SufficientStats.from_covariance((a @ a.T).tolist(), n=n)


@settings(max_examples=150)
@given(_covariances(), st.sampled_from([1e-4, 0.05, 0.5]),
       st.sampled_from([None, 0, 1, 2]))
def test_stacked_pc_skeleton_matches_the_per_test_loop_on_drawn_covariances(
        stats, alpha, max_cond):
    assert _outcome(pc_skeleton, stats, alpha, max_cond) == \
        _outcome(_pc_skeleton_per_test, stats, alpha, max_cond)


def _counting_fisher_z(monkeypatch):
    calls = []

    def counting(i, j, cond, *args):
        calls.append((i, j, tuple(cond)))
        return fisher_z_test(i, j, cond, *args)

    monkeypatch.setattr(ci_tests, "fisher_z_test", counting)
    return calls


def test_a_singular_block_the_scan_reaches_raises_as_before(monkeypatch):
    # level 1 tests (0, 1) given (2,), whose block is exactly singular
    cov = [[1.0, 0.5, 0.0, 1.0], [0.5, 1.0, -1.5, 0.0],
           [0.0, -1.5, 3.0, 2.0], [1.0, 0.0, 2.0, 2.0]]
    want = "CiTestError: singular covariance block for (0,1) given [2]"
    assert _outcome(_pc_skeleton_per_test, _stats(cov), 0.05) == want
    calls = _counting_fisher_z(monkeypatch)
    assert _outcome(pc_skeleton, _stats(cov), 0.05) == want
    assert calls[-1] == (0, 1, (2,))


def test_a_singular_block_after_the_pair_is_separated_does_not_raise(monkeypatch):
    # a level-1 block is exactly singular, so the stacked inverse fails and
    # the level runs test by test; the scan separates that block's pair
    # before it reaches the block
    cov = [[1.0, -1.5, 0.0, -1.0], [-1.5, 3.0, 0.0, 1.5],
           [0.0, 0.0, 1.0, -1.5], [-1.0, 1.5, -1.5, 3.0]]
    want = _outcome(_pc_skeleton_per_test, _stats(cov), 0.05)
    assert want == ([(0, 1), (0, 3), (2, 3)],
                    {(0, 2): (), (2, 0): (), (1, 2): (), (2, 1): (),
                     (1, 3): (0,), (3, 1): (0,)})
    calls = _counting_fisher_z(monkeypatch)
    assert _outcome(pc_skeleton, _stats(cov), 0.05) == want
    assert calls
