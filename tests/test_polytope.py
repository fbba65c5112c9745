"""Vertex sets, LP edge certification, censuses, and structural checks."""

from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from cimwalk import moves as moves_mod
from cimwalk import polytope
from cimwalk import search as search_mod
from cimwalk.graphs import GraphError, UndirectedGraph
from cimwalk.imset import full_imset
from cimwalk.lp import OPTIMAL, simplex_max, simplex_max_many
from cimwalk.moves import (enumerate_edge_moves, enumerate_tree_moves,
                           enumerate_turn_moves, representative)
from cimwalk.polytope import (EdgeCertificate, _midpoint_prefilter,
                              _restricted, _solve_margin, certify_all_edges,
                              certify_edge, complete_minus_edge, cycle_graph,
                              edge_census,
                              enumerate_mecs, enumerate_mecs_with_skeleton,
                              exact_rank, face_objective, imset_vector,
                              maximizers, path_graph, poset_b_matrix,
                              star_over_cliques, thread_count,
                              verify_simplex_faces, verify_stab_equivalence,
                              verify_turn_connectivity)


def test_enumerate_mecs_counts_and_order():
    for p, count in ((2, 2), (3, 11), (4, 185)):
        vs = enumerate_mecs(p)
        assert len(vs) == count
        assert list(vs.matrix) == sorted(vs.matrix)
        assert len(set(vs.matrix)) == count
    with pytest.raises(GraphError):
        enumerate_mecs(1)
    with pytest.raises(GraphError):
        enumerate_mecs(6)


def test_imset_vector_matches_full_imset():
    vs = enumerate_mecs(3)
    for mec, row in zip(vs.mecs, vs.matrix):
        ones = full_imset(representative(mec)).ones
        assert row == tuple(1 if key in ones else 0 for key in vs.coords)


def test_enumerate_mecs_with_skeleton():
    assert len(enumerate_mecs_with_skeleton(path_graph(3))) == 2
    triangle = UndirectedGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert len(enumerate_mecs_with_skeleton(triangle)) == 1
    assert len(enumerate_mecs_with_skeleton(cycle_graph(4))) == 6


def _midpoint_mass(vs, u, v):
    """Max convex-combination mass outside {u, v} at their midpoint.

    The pair spans a polytope edge exactly when this maximum is zero; solved
    in exact arithmetic so the comparison with zero is meaningful.
    """
    n = len(vs.matrix)
    d = len(vs.coords)
    rows = []
    rhs = []
    for k in range(d):
        rows.append([Fraction(vs.matrix[i][k]) for i in range(n)])
        rhs.append(Fraction(vs.matrix[u][k] + vs.matrix[v][k], 2))
    rows.append([Fraction(1)] * n)
    rhs.append(Fraction(1))
    c = [Fraction(0 if i in (u, v) else 1) for i in range(n)]
    res = simplex_max(c, rows, ["="] * len(rows), rhs, exact=True)
    assert res.status == OPTIMAL
    return res.objective


def test_certify_edge_agrees_with_midpoint_mass_oracle():
    vs = enumerate_mecs(3)
    n = len(vs)
    for u in range(n):
        for v in range(u + 1, n):
            expected = _midpoint_mass(vs, u, v) == 0
            cert = certify_edge(u, v, vs)
            assert (cert is not None) == expected, (u, v)
            if cert is not None:
                assert cert.check(vs)


def test_certify_edge_exact_mode_agrees():
    vs = enumerate_mecs(3)
    for u, v in ((0, 1), (0, 10), (3, 7)):
        assert (certify_edge(u, v, vs) is None) == (
            certify_edge(u, v, vs, exact=True) is None
        )


def test_certify_edge_input_validation():
    vs = enumerate_mecs(2)
    with pytest.raises(ValueError):
        certify_edge(0, 0, vs)
    with pytest.raises(ValueError):
        certify_edge(0, 5, vs)


def test_certificate_check_rejects_zero_weights():
    vs = enumerate_mecs(3)
    survey = certify_all_edges(vs, threads=1)
    u, v = survey.edges[0]
    good = survey.certificates[(u, v)]
    assert good.check(vs)
    flat = EdgeCertificate(u, v, tuple(0.0 for _ in vs.coords), good.margin,
                           good.objective, good.mode)
    assert not flat.check(vs)


def test_midpoint_prefilter_is_sound():
    vs = enumerate_mecs(3)
    _, rmat = _restricted(vs)
    skipped = _midpoint_prefilter(rmat)
    assert skipped
    for u, v in skipped:
        assert _midpoint_mass(vs, u, v) > 0


def test_certify_all_edges_stats():
    vs = enumerate_mecs(3)
    survey = certify_all_edges(vs, threads=1)
    stats = survey.stats
    assert stats["pairs"] == 55
    assert stats["prefiltered"] + stats["lp_solved"] == 55
    assert stats["edges"] == len(survey.edges) == 33
    assert set(survey.certificates) == set(survey.edges)


def test_edge_census_p2():
    census = edge_census(enumerate_mecs(2), threads=1)
    census.pop("lp_stats")
    assert census == {
        "p": 2,
        "vertices": 2,
        "total_edges": 1,
        "v_structure_additions": 0,
        "buddings": 0,
        "flips": 0,
        "turn_pairs": 0,
        "edge_additions": 1,
        "edge_pairs_not_additions": 0,
        "edge_pairs": 1,
        "shifts": 0,
        "splits": 0,
        "unclassified": 0,
        "same_skeleton_edges": 0,
        "same_skeleton_turn": 0,
        "same_skeleton_non_turn": 0,
        "same_skeleton_non_turn_by_class": [],
        "tag_multiplicities": 0,
        "moves_not_certified": [],
    }


def test_edge_census_p3():
    census = edge_census(enumerate_mecs(3), threads=1)
    census.pop("lp_stats")
    assert census == {
        "p": 3,
        "vertices": 11,
        "total_edges": 33,
        "v_structure_additions": 3,
        "buddings": 0,
        "flips": 0,
        "turn_pairs": 3,
        "edge_additions": 12,
        "edge_pairs_not_additions": 9,
        "edge_pairs": 21,
        "shifts": 0,
        "splits": 0,
        "unclassified": 9,
        "same_skeleton_edges": 3,
        "same_skeleton_turn": 3,
        "same_skeleton_non_turn": 0,
        "same_skeleton_non_turn_by_class": [],
        "tag_multiplicities": 0,
        "moves_not_certified": [],
    }


def test_face_objective_maximizers_path3():
    vs = enumerate_mecs(3)
    path = path_graph(3)
    obj = face_objective(path, path)
    arg = maximizers(vs, obj)
    assert len(arg) == 2
    assert all(vs.mecs[i].skeleton == path for i in arg)
    assert vs.mecs[arg[0]] != vs.mecs[arg[1]]
    # widening the upper graph admits the subgraph skeletons as well
    single = UndirectedGraph.from_edges(3, [(0, 1)])
    arg = maximizers(vs, face_objective(single, path))
    assert len(arg) == 3
    assert all(single.edges <= vs.mecs[i].skeleton.edges <= path.edges for i in arg)
    with pytest.raises(GraphError):
        face_objective(path, single)


def test_stab_equivalence_path4():
    report = verify_stab_equivalence("path", 4, threads=1)
    assert report == {
        "kind": "path",
        "p": 4,
        "vertices": 3,
        "stable_sets": 3,
        "count_match": True,
        "bijection_match": True,
        "missing_stable_sets": [],
        "coordinate_match": True,
        "lp_edges": 3,
        "chvatal_edges": 3,
        "classified_edges": 3,
        "lp_equals_chvatal": True,
        "lp_equals_classified": True,
        "classified_subset_of_lp": True,
        "extra_lp_pairs": [],
    }


def test_stab_equivalence_path5():
    report = verify_stab_equivalence("path", 5, threads=1)
    assert report["vertices"] == report["stable_sets"] == 5
    assert report["lp_edges"] == report["chvatal_edges"] == 8
    assert report["classified_edges"] == 8
    assert report["count_match"] and report["bijection_match"]
    assert report["coordinate_match"]
    assert report["lp_equals_chvatal"] and report["lp_equals_classified"]


def test_stab_equivalence_cycle4():
    report = verify_stab_equivalence("cycle", 4, threads=1)
    assert report["vertices"] == 6 and report["stable_sets"] == 7
    assert not report["count_match"] and not report["bijection_match"]
    # the collider-free stable set has no acyclic counterpart
    assert report["missing_stable_sets"] == [[]]
    assert report["coordinate_match"]
    assert report["lp_edges"] == 15
    assert report["chvatal_edges"] == report["classified_edges"] == 13
    assert report["classified_subset_of_lp"]
    assert report["extra_lp_pairs"] == [(0, 2), (1, 4)]


def test_stab_equivalence_cycle5():
    report = verify_stab_equivalence("cycle", 5, threads=1)
    assert report["vertices"] == 10 and report["stable_sets"] == 11
    assert report["missing_stable_sets"] == [[]]
    assert report["lp_edges"] == 35
    assert report["chvatal_edges"] == report["classified_edges"] == 30
    assert report["classified_subset_of_lp"]
    assert report["extra_lp_pairs"] == [
        (0, 4), (0, 7), (1, 2), (1, 4), (2, 7)
    ]


def test_simplex_faces_p4():
    report = verify_simplex_faces(4)
    assert report["ok"]
    rows = {tuple(r["partition"]): r for r in report["star_over_cliques"]}
    assert rows[(3,)]["dimension"] == 0 and rows[(3,)]["vertices"] == 1
    assert rows[(1, 1, 1)]["dimension"] == 4 and rows[(1, 1, 1)]["vertices"] == 5
    cme = report["complete_minus_edge"]
    assert cme["dimension"] == 3 and cme["vertices"] == 4
    assert all(b["full_rank"] for b in report["basis_checks"])
    with pytest.raises(GraphError):
        verify_simplex_faces(3)


def test_turn_connectivity_small_skeletons():
    assert verify_turn_connectivity(path_graph(4))
    assert verify_turn_connectivity(cycle_graph(4))
    assert verify_turn_connectivity(
        UndirectedGraph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    )
    complete = UndirectedGraph.from_edges(
        4, [(a, b) for a in range(4) for b in range(a + 1, 4)]
    )
    assert verify_turn_connectivity(complete)


def test_exact_rank():
    assert exact_rank([]) == 0
    assert exact_rank([[1, 2], [2, 4]]) == 1
    assert exact_rank([[1, 0], [0, 1]]) == 2
    assert exact_rank([[Fraction(1, 3), 1], [1, 3]]) == 1
    assert exact_rank([[0, 0], [0, 0]]) == 0


def test_poset_b_matrix_bases():
    chain = list(range(5))
    assert exact_rank(poset_b_matrix(chain, lambda r, q: r <= q)) == 5
    antichain = poset_b_matrix(chain, lambda r, q: r == q)
    assert antichain == [[1 if r == q else 0 for r in chain] for q in chain]


def test_star_over_cliques_shapes():
    assert len(star_over_cliques(4, (1, 1, 1)).edges) == 3
    assert len(star_over_cliques(4, (3,)).edges) == 6
    with pytest.raises(GraphError):
        star_over_cliques(4, (2, 2))
    cme = complete_minus_edge(4)
    assert len(cme.edges) == 5 and (0, 1) not in cme.edges


def test_thread_count_env_fallback(monkeypatch):
    monkeypatch.setattr(polytope.os, "cpu_count", lambda: 8)
    assert thread_count(3) == 3
    monkeypatch.setenv("CIMWALK_THREADS", "2")
    assert thread_count() == 2
    monkeypatch.setenv("CIMWALK_THREADS", "junk")
    assert thread_count() >= 1
    monkeypatch.delenv("CIMWALK_THREADS")
    assert thread_count() >= 1


def test_thread_count_is_capped_by_cpu_count(monkeypatch):
    monkeypatch.setattr(polytope.os, "cpu_count", lambda: 2)
    assert thread_count(1) == 1
    assert thread_count(10**9) == 2
    monkeypatch.setenv("CIMWALK_THREADS", str(10**9))
    assert thread_count() == 2


class _InProcessPool:
    """Stands in for multiprocessing.Pool: records the worker count and
    runs the work in this process, so no worker is ever started."""

    workers = []

    def __init__(self, workers, initializer, initargs):
        self.workers.append(workers)
        initializer(*initargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap_unordered(self, fn, items, chunksize):
        return map(fn, items)


def test_certify_all_edges_never_asks_for_more_workers_than_cpus(monkeypatch):
    monkeypatch.setattr(polytope.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(polytope, "Pool", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "workers", [])
    vs = enumerate_mecs_with_skeleton(cycle_graph(6))  # 76 pairs reach the LP
    pooled = certify_all_edges(vs, threads=10**9)
    assert _InProcessPool.workers == [2]
    assert pooled.edges == certify_all_edges(vs, threads=1).edges
    assert _InProcessPool.workers == [2]


def _assert_float_and_exact_agree(vs):
    n = len(vs)
    for u in range(n):
        for v in range(u + 1, n):
            flt = certify_edge(u, v, vs)
            ext = certify_edge(u, v, vs, exact=True)
            assert (flt is None) == (ext is None), (u, v)
            for cert in (flt, ext):
                assert cert is None or cert.check(vs)


def test_float_and_exact_certification_agree_p3():
    _assert_float_and_exact_agree(enumerate_mecs(3))


@pytest.mark.parametrize("p", [4, 5, 6])
def test_float_and_exact_certification_agree_cycle_faces(p):
    _assert_float_and_exact_agree(enumerate_mecs_with_skeleton(cycle_graph(p)))


def test_exact_margin_lp_duals_attain_the_margin():
    # minus the coordinate-row duals of the exact dual LP must be a feasible,
    # optimal cost vector of the margin LP: inside the unit box, level on
    # (u, v), and exposing the pair with gap exactly t*
    vs = enumerate_mecs(3)
    _, rmat = _restricted(vs)
    n = len(rmat)
    for u in range(n):
        for v in range(u + 1, n):
            w, t = _solve_margin(rmat, u, v, exact=True)
            assert all(abs(x) <= 1 for x in w)
            scores = [sum(a * b for a, b in zip(w, row)) for row in rmat.tolist()]
            assert scores[u] == scores[v]
            assert t == min(scores[u] - s for x, s in enumerate(scores) if x not in (u, v))
            assert (t > 0) == (_midpoint_mass(vs, u, v) == 0)


def test_every_p4_certificate_checks():
    vs = enumerate_mecs(4)
    survey = certify_all_edges(vs, threads=2)
    assert len(survey.certificates) == 4259
    assert all(cert.check(vs) for cert in survey.certificates.values())


def test_certify_all_edges_pooled_batches_give_equal_certificates(monkeypatch):
    monkeypatch.setattr(polytope.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(polytope, "Pool", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "workers", [])
    vs = enumerate_mecs_with_skeleton(cycle_graph(6))  # 76 pairs, two batches
    pooled = certify_all_edges(vs, threads=2)
    single = certify_all_edges(vs, threads=1)
    assert _InProcessPool.workers == [2]
    assert pooled.edges == single.edges
    assert pooled.certificates == single.certificates
    assert pooled.stats == single.stats


def _pair_move_kinds_by_vector(vs):
    """The classification before the class index: every target's imset
    vector is rebuilt and looked up among the rows."""
    index = {row: i for i, row in enumerate(vs.matrix)}
    kinds = {}
    for i, mec in enumerate(vs.mecs):
        moves = enumerate_turn_moves(mec) + enumerate_edge_moves(mec)
        if mec.skeleton.is_tree() or mec.skeleton.is_single_cycle():
            moves += enumerate_tree_moves(mec)
        for move, target in moves:
            j = index.get(imset_vector(target, vs.coords))
            if j is not None and j != i:
                kinds.setdefault((min(i, j), max(i, j)), set()).add(move.kind)
    return kinds


@pytest.mark.parametrize("face, p", [("full", 2), ("full", 3), ("full", 4),
                                     ("cycle", 4), ("cycle", 5), ("cycle", 6)])
def test_pair_move_kinds_match_the_imset_vector_lookup(face, p):
    if face == "full":
        vs = enumerate_mecs(p)
    else:
        vs = enumerate_mecs_with_skeleton(cycle_graph(p))
    assert polytope._pair_move_kinds(vs) == _pair_move_kinds_by_vector(vs)


def test_edge_census_reports_stage_seconds_apart_from_the_census():
    vs = enumerate_mecs(3)
    seconds = {}
    census = edge_census(vs, threads=1, seconds=seconds)
    assert set(seconds) == {"prefilter", "certify", "classify"}
    assert all(t >= 0 for t in seconds.values())
    assert census == edge_census(vs, threads=1)


# ---------------------------------------------------------------------------
# Margin LPs started from the census basis


def _margin_batches(vs, step=1):
    _, rmat = _restricted(vs)
    n = len(rmat)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)][::step]
    c, a, b = polytope._margin_lps(rmat, pairs)
    return rmat, pairs, c, a, b


@pytest.mark.parametrize("face, p, step", [("full", 3, 1), ("cycle", 4, 1), ("cycle", 5, 1),
                                           ("cycle", 6, 1), ("full", 4, 10)])
def test_started_margin_equals_the_two_phase_margin(face, p, step):
    vs = enumerate_mecs(p) if face == "full" else enumerate_mecs_with_skeleton(cycle_graph(p))
    rmat, pairs, c, a, b = _margin_batches(vs, step)
    senses = ["="] * len(b)
    d = rmat.shape[1]
    two = simplex_max_many(c, a, senses, [b] * len(a))
    started = simplex_max_many(c, a, senses, [b] * len(a),
                               start=polytope._margin_start(rmat, pairs))
    for x, y in zip(two, started):
        t_two = polytope._margin_solution(x, d)[1]
        assert abs(polytope._margin_solution(y, d)[1] - t_two) <= 1e-12


def test_started_exact_margin_equals_the_two_phase_exact_margin_p3():
    rmat, pairs, c, a, b = _margin_batches(enumerate_mecs(3))
    senses = ["="] * len(b)
    for mat, start in zip(a, polytope._margin_start(rmat, pairs)):
        two = simplex_max(c, mat, senses, b, exact=True)
        started = simplex_max(c, mat, senses, b, exact=True, start=start)
        assert started.status == two.status == OPTIMAL
        assert started.objective == two.objective


def test_margin_start_is_a_feasible_basis():
    # the y column of the vertex x0 closest to u and v, and per coordinate
    # the residual slack whose sign matches u - x0
    rmat, pairs, c, a, b = _margin_batches(enumerate_mecs(3))
    n, d = rmat.shape
    for (u, v), mat, start in zip(pairs, a, polytope._margin_start(rmat, pairs)):
        others = [x for x in range(n) if x not in (u, v)]
        dist = [abs(rmat[x] - rmat[u]).sum() + abs(rmat[x] - rmat[v]).sum() for x in others]
        x0 = others[dist.index(min(dist))]
        assert start[d] == d + others.index(x0)
        for i in range(d):
            assert start[i] == (d + n + i if rmat[u, i] >= rmat[x0, i] else i)
        basic = np.zeros(mat.shape[1])
        basic[start[d]] = 1
        basic[start[:d]] = np.abs(rmat[u] - rmat[x0])
        assert (mat @ basic == b).all()


@pytest.mark.parametrize("threads", [1, 2])
def test_every_p4_certificate_checks_without_exact_resolves(threads):
    vs = enumerate_mecs(4)
    survey = certify_all_edges(vs, threads=threads)
    assert survey.stats["lp_solved"] == len(survey.certificates) == 4259
    assert survey.stats["exact_resolves"] == 0
    assert all(cert.check(vs) for cert in survey.certificates.values())


def test_pair_move_kinds_build_each_class_imset_at_most_once(monkeypatch):
    vs = enumerate_mecs(4)
    built = Counter()

    def counting(dag):
        built[dag] += 1
        return full_imset(dag)

    moves_mod._class_imset.cache_clear()
    monkeypatch.setattr(moves_mod, "full_imset", counting)
    polytope._pair_move_kinds(vs)
    assert built and max(built.values()) == 1
    assert search_mod._class_imset is moves_mod._class_imset
