"""Local Gaussian score, caching, CSV loading, deltas."""

import math
import warnings

import numpy as np
import pytest

from cimwalk.graphs import (Dag, GraphError, Mec, UndirectedGraph, VStructure,
                            all_dags, mec_of)
from cimwalk.moves import apply_move, enumerate_edge_moves, enumerate_turn_moves
from cimwalk.scoring import (LocalScoreCache, ScoringError, SufficientStats,
                             load_csv, local_bic,
                             require_full_rank, score_dag, score_delta,
                             score_mec, stats_from_csv)


def _random_stats(p, n=200, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((n, p))
    return SufficientStats.from_data(data)


def test_local_score_frozen_value():
    # standard normal with no parents at n = 100
    stats = SufficientStats.from_covariance([[1.0]], n=100)
    value = local_bic(0, (), stats)
    assert value == -144.1964384134613
    recomputed = -0.5 * 100 * (math.log(2 * math.pi) + 1.0) - 0.5 * math.log(100)
    assert value == pytest.approx(recomputed, abs=1e-12)


def test_local_score_formula_with_parent():
    # var(x0 | x1) = 1 - 0.36 with correlation 0.6
    stats = SufficientStats.from_covariance([[1.0, 0.6], [0.6, 1.0]], n=50)
    value = local_bic(0, (1,), stats)
    resid = 1.0 - 0.36
    expected = -0.5 * 50 * (math.log(2 * math.pi * resid) + 1.0) - 0.5 * math.log(50) * 2
    assert value == pytest.approx(expected, abs=1e-12)


def test_uncorrelated_parent_costs_exactly_the_penalty():
    stats = SufficientStats.from_covariance(np.eye(3), n=400)
    lam = 0.5 * math.log(400)
    base = local_bic(0, (), stats)
    assert local_bic(0, (1,), stats) == pytest.approx(base - lam, abs=1e-12)
    assert local_bic(0, (1, 2), stats) == pytest.approx(base - 2 * lam, abs=1e-12)


def test_parent_order_is_irrelevant():
    stats = _random_stats(4)
    assert local_bic(0, (2, 1, 3), stats) == local_bic(0, (3, 1, 2), stats)


def test_markov_equivalent_dags_score_identically():
    for p in (2, 3):
        stats = _random_stats(p, seed=p)
        by_class = {}
        for dag in all_dags(p):
            by_class.setdefault(mec_of(dag), []).append(score_dag(dag, stats))
        for scores in by_class.values():
            assert max(scores) - min(scores) < 1e-9
        for mec, scores in by_class.items():
            assert score_mec(mec, stats) == pytest.approx(scores[0], abs=1e-9)


def test_local_score_input_validation():
    stats = _random_stats(3)
    with pytest.raises(ScoringError):
        local_bic(0, (0,), stats)  # node cannot parent itself
    with pytest.raises(ScoringError):
        local_bic(0, (5,), stats)
    with pytest.raises(ScoringError):
        local_bic(3, (), stats)


def test_deterministic_residual_is_rejected():
    stats = SufficientStats.from_covariance([[1.0, 1.0], [1.0, 1.0]], n=50)
    with pytest.raises(ScoringError):
        local_bic(0, (1,), stats)


def test_collinear_parents_are_rejected():
    cov = [[1.0, 0.5, 0.5], [0.5, 1.0, 1.0], [0.5, 1.0, 1.0]]
    stats = SufficientStats.from_covariance(cov, n=50)
    with pytest.raises(ScoringError):
        local_bic(0, (1, 2), stats)


def test_cache_counts_hits_and_misses():
    stats = _random_stats(3)
    cache = LocalScoreCache(stats)
    dag = Dag.from_arcs(3, [(0, 1), (1, 2)])
    first = score_dag(dag, stats, cache)
    assert cache.misses == 3 and cache.hits == 0 and len(cache) == 3
    second = score_dag(dag, stats, cache)
    assert second == first
    assert cache.misses == 3 and cache.hits == 3


def test_cache_is_keyed_on_parent_masks():
    stats = _random_stats(3)
    cache = LocalScoreCache(stats)
    assert cache.local(1, 0b101) == local_bic(1, (0, 2), stats)
    assert cache.local(1, 0b101) == cache.local(1, 5)
    assert (cache.misses, cache.hits, len(cache)) == (1, 2, 1)


def test_cache_rejects_a_negative_mask_and_a_parent_out_of_range():
    """A negative mask has no finite set of bits, so it is refused before it
    is decoded; a bit at or above p is refused by local_bic."""
    cache = LocalScoreCache(_random_stats(3))
    with pytest.raises(ScoringError, match="negative"):
        cache.local(0, -1)
    with pytest.raises(ScoringError, match="out of range"):
        cache.local(0, 1 << 3)
    with pytest.raises(ScoringError, match="own parent"):
        cache.local(0, 0b1)
    assert len(cache) == 0


def test_cache_rejects_foreign_stats():
    cache = LocalScoreCache(_random_stats(3, seed=1))
    with pytest.raises(ScoringError):
        score_dag(Dag.from_arcs(3, []), _random_stats(3, seed=2), cache)


def test_score_dag_shape_mismatch():
    with pytest.raises(ScoringError):
        score_dag(Dag.from_arcs(2, []), _random_stats(3))


def test_score_mec_requires_realizable_class():
    stats = _random_stats(4)
    skel = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    vs = frozenset({VStructure(1, (0, 2)), VStructure(2, (1, 3))})
    with pytest.raises(GraphError):
        score_mec(Mec(skel, vs), stats)


def test_score_delta_matches_full_rescore():
    stats = _random_stats(4, seed=5)
    mec = mec_of(Dag.from_arcs(4, [(0, 1), (1, 2)]))
    base = score_mec(mec, stats)
    for move, target in enumerate_edge_moves(mec) + enumerate_turn_moves(mec):
        assert apply_move(mec, move) == target
        delta = score_delta(mec, move, stats)
        assert delta == pytest.approx(score_mec(target, stats) - base, abs=1e-9)


def test_sufficient_stats_validation():
    with pytest.raises(ScoringError):
        SufficientStats.from_covariance([[1.0, 0.0]], n=10)
    with pytest.raises(ScoringError):
        SufficientStats.from_covariance(np.eye(2), n=10, mean=[0.0])
    with pytest.raises(ScoringError):
        SufficientStats.from_covariance(np.eye(2), n=0)
    with pytest.raises(ScoringError):
        SufficientStats.from_data(np.zeros((0, 3)))


def test_from_data_uses_mle_divisor():
    data = np.array([[0.0], [2.0]])
    stats = SufficientStats.from_data(data)
    assert stats.mean == (1.0,)
    assert stats.cov == ((1.0,),)  # divisor n, not n - 1


def test_csv_loading(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
    data = load_csv(path)
    assert data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
    stats = stats_from_csv(path.read_text(), path)
    assert stats.n == 2 and stats.p == 2

    headerless = tmp_path / "plain.csv"
    headerless.write_text("1.0,2.0\n3.0,4.0\n")
    assert load_csv(headerless).tolist() == [[1.0, 2.0], [3.0, 4.0]]


def test_csv_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ScoringError):
        load_csv(ragged)

    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0,oops\n")
    with pytest.raises(ScoringError):
        load_csv(bad)

    empty = tmp_path / "empty.csv"
    empty.write_text("\n")
    with pytest.raises(ScoringError):
        load_csv(empty)

    with pytest.raises(ScoringError):
        load_csv(tmp_path / "absent.csv")


def test_csv_values_equal_float_bit_for_bit(tmp_path):
    cells = [["-0.0", "5e-324", "1.7976931348623157e308"],
             ["0.30000000000000004", "-1.2345678901234567e-05", "9007199254740993"],
             ["2.2250738585072014e-308", "0.1", "-3.141592653589793"]]
    text = ('"x","y","z"\r\n' + ",".join(cells[0]) + "\r\n\r\n"
            + ",".join(f'"{c}"' for c in cells[1]) + "\r\n"
            + " " + " , ".join(cells[2]) + " \r\n\r\n")
    path = tmp_path / "exact.csv"
    path.write_bytes(text.encode())
    data = load_csv(path)
    expected = np.array([[float(c) for c in row] for row in cells])
    assert data.shape == (3, 3)
    assert data.tobytes() == expected.tobytes()
    assert math.copysign(1.0, data[0, 0]) == -1.0


@pytest.mark.parametrize("header", ["", "a,b\n"])
def test_byte_order_mark_is_not_taken_for_a_header(tmp_path, header):
    # a UTF-8 byte order mark before the first cell must not make a data
    # row unparseable, and so mistaken for a header and dropped
    rows = [[float(i), i / 4] for i in range(40)]
    text = header + "".join(f"{a!r},{b!r}\n" for a, b in rows)
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert load_csv(path).tolist() == rows


def test_quoted_numeric_first_line_is_data(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_text('"1.0","2.0"\n3.0,4.0\n')
    assert load_csv(path).tolist() == [[1.0, 2.0], [3.0, 4.0]]


@pytest.mark.parametrize("text, line", [
    ("a,b\n1.0,2.0\n\n3.0\n", 4),        # ragged row
    ("1.0,2.0\n3.0,\n", 2),              # empty cell
    ("1.0,2.0\n3.0,4.0,\n", 2),          # trailing cell
    ("a,b\n1.0,2.0\n3.0,oops\n", 3),     # non-numeric cell
    ("1.0,2.0\n1_0,2.0\n", 2),           # digit separator
    ("1.0,2.0\n   \n3.0,4.0\n", 2),      # whitespace-only line
    ('1.0,2.0\n3.0,"4\n5"\n', 3),        # quoted cell across lines
])
def test_csv_errors_name_the_line(tmp_path, text, line):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(ScoringError, match=rf"line {line} of .*bad\.csv"):
        load_csv(path)


@pytest.mark.parametrize("text, line, column", [
    ("a,b\n1.0,2.0\n\n3.0,nan\n", 4, 2),
    ("1.0,-inf\n", 1, 2),
    ("1.0,2.0\n1e400,2.0\n", 2, 1),
])
def test_csv_rejects_non_finite_values(tmp_path, text, line, column):
    path = tmp_path / "nonfinite.csv"
    path.write_text(text)
    with pytest.raises(ScoringError, match=rf"at line {line}, column {column} of"):
        load_csv(path)


@pytest.mark.parametrize("text", ["", "\n\n", "a,b\n", "a,b\n\n"])
def test_empty_and_header_only_csv_raise_without_warnings(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ScoringError, match="no data rows"):
            load_csv(path)


def test_require_full_rank_names_dependent_columns():
    rng = np.random.default_rng(3)
    data = rng.standard_normal((50, 4))
    data[:, 2] = 2.0 * data[:, 0] - data[:, 1]
    with pytest.raises(ScoringError, match=r"columns \[2\] are constant or linearly"):
        require_full_rank(SufficientStats.from_data(data), "collinear.csv")

    data[:, 2] = 7.0
    with pytest.raises(ScoringError, match=r"columns \[2\]"):
        require_full_rank(SufficientStats.from_data(data), "constant.csv")

    # three rows centre to rank two
    short = SufficientStats.from_data(rng.standard_normal((3, 5)))
    with pytest.raises(ScoringError, match=r"columns \[2, 3, 4\]"):
        require_full_rank(short, "short.csv")

    # a column on a tiny scale is not degenerate
    data = rng.standard_normal((50, 3))
    data[:, 1] *= 1e-9
    require_full_rank(SufficientStats.from_data(data), "tiny.csv")


def test_cov_matrix_is_built_once_and_read_only():
    stats = _random_stats(3)
    cov = stats.cov_matrix()
    assert stats.cov_matrix() is cov
    assert not cov.flags.writeable
    assert cov.tolist() == [list(row) for row in stats.cov]
    # the cached array is not a field: an equal twin that never built it
    # compares, hashes and shares score caches as before
    twin = SufficientStats(stats.n, stats.mean, stats.cov)
    assert twin == stats and hash(twin) == hash(stats)
    dag = Dag.from_arcs(3, [(0, 1)])
    assert score_dag(dag, twin, LocalScoreCache(stats)) == score_dag(dag, stats)


def test_collinear_parents_error_names_those_parents():
    cov = np.eye(4)
    cov[2, 3] = cov[3, 2] = 1.0
    stats = SufficientStats.from_covariance(cov, n=50)
    with pytest.raises(ScoringError, match=r"parents \[3\] are collinear"):
        local_bic(0, (2, 3), stats)
