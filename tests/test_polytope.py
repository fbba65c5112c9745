"""Vertex sets, LP edge certification, censuses, and structural checks."""

import itertools
import json
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cimwalk import lp as lp_mod
from cimwalk import moves as moves_mod
from cimwalk import polytope
from cimwalk import search as search_mod
from cimwalk.graphs import Dag, GraphError, Mec, UndirectedGraph, mec_of
from cimwalk.imset import full_imset, nodes_of
from cimwalk.lp import OPTIMAL, LpResult, simplex_max, simplex_max_many
from cimwalk.moves import (enumerate_edge_moves, enumerate_tree_moves,
                           enumerate_turn_moves, representative)
from cimwalk.polytope import (EdgeCertificate, _midpoint_prefilter,
                              _restricted, _solve_margin, certify_all_edges,
                              certify_edge, complete_minus_edge, cycle_graph,
                              edge_census,
                              enumerate_mecs, enumerate_mecs_with_skeleton,
                              exact_rank, face_objective,
                              maximizers, path_graph, poset_b_matrix,
                              star_over_cliques,
                              verify_simplex_faces, verify_stab_equivalence,
                              verify_turn_connectivity)
from enumeration_reference import (dags_by_arcs, imset_vector, mecs_by_dag,
                                   orientations_by_arcs, parent_masks,
                                   vertex_set_by_dag)
from lp_reference import two_phase_simplex_max
from margin_reference import (distances, face_lp, margin_lps, margin_solution,
                              margin_start)


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


@pytest.mark.parametrize("p", [2, 3, 4])
def test_enumerate_mecs_matches_the_dag_by_dag_reference(p):
    assert enumerate_mecs(p) == vertex_set_by_dag(p, mecs_by_dag(dags_by_arcs(p)))


@pytest.mark.parametrize("face, p", [("path", 3), ("path", 4), ("path", 5),
                                     ("cycle", 3), ("cycle", 4), ("cycle", 5),
                                     ("asym", 6), ("star", 9)])
def test_faces_match_the_dag_by_dag_reference(face, p):
    g = {"path": path_graph, "cycle": cycle_graph, "asym": lambda p: _ASYMMETRIC,
         "star": lambda p: star_over_cliques(p, (1,) * (p - 1))}[face](p)
    assert enumerate_mecs_with_skeleton(g) == vertex_set_by_dag(
        p, mecs_by_dag(orientations_by_arcs(g)))


def _independent_columns(columns, order, size):
    """The first size columns of order, each kept only when it is linearly
    independent of those kept before it, by exact elimination."""
    kept, reduced = [], []
    for j in order:
        vec = list(columns[j])
        for pivot, row in reduced:
            if vec[pivot]:
                f = vec[pivot] / row[pivot]
                vec = [a - f * b for a, b in zip(vec, row)]
        pivot = next((k for k, x in enumerate(vec) if x), None)
        if pivot is not None:
            kept.append(j)
            reduced.append((pivot, vec))
            if len(kept) == size:
                break
    assert len(kept) == size, "the rows are linearly dependent"
    return kept


def _midpoint_mass(vs, u, v):
    """Max convex-combination mass outside {u, v} at their midpoint.

    The pair spans a polytope edge exactly when this maximum is zero; solved
    in exact arithmetic so the comparison with zero is meaningful.  The start
    basis holds columns u and v, then the lowest-index columns that keep it
    nonsingular; it is feasible because x_u = x_v = 1/2 solves the rows.
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
    columns = [[row[i] for row in rows] for i in range(n)]
    order = [u, v] + [i for i in range(n) if i not in (u, v)]
    start = _independent_columns(columns, order, len(rows))
    res = simplex_max(c, rows, rhs, start, exact=True)
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
    survey = certify_all_edges(vs)
    u, v = survey.edges[0]
    good = survey.certificates[(u, v)]
    assert good.check(vs)
    flat = EdgeCertificate(u, v, tuple(0.0 for _ in vs.coords), good.margin,
                           good.objective, good.mode)
    assert not flat.check(vs)


def _skipped(matrix):
    """The pairs that the prefilter's mask marks, as a set of (u, v)."""
    hit = _midpoint_prefilter(matrix)
    i, j = np.triu_indices(len(matrix), 1)
    return set(zip(i[hit].tolist(), j[hit].tolist()))


def test_midpoint_prefilter_is_sound():
    vs = enumerate_mecs(3)
    _, rmat = _restricted(vs)
    skipped = _skipped(rmat)
    assert skipped
    for u, v in skipped:
        assert _midpoint_mass(vs, u, v) > 0


def test_certify_all_edges_stats():
    vs = enumerate_mecs(3)
    survey = certify_all_edges(vs)
    stats = survey.stats
    assert stats["pairs"] == 55
    assert (stats["prefiltered"] + stats["lp_solved"] + stats["two_vertex_faces"]
            + stats["by_symmetry"]) == 55
    assert (stats["prefiltered"], stats["lp_solved"], stats["two_vertex_faces"],
            stats["by_symmetry"]) == (22, 5, 4, 24)
    assert stats["edges"] == len(survey.edges) == 33
    assert set(survey.certificates) == set(survey.edges)


def test_edge_census_p2():
    census = edge_census(enumerate_mecs(2))
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
    census = edge_census(enumerate_mecs(3))
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
    report = verify_stab_equivalence("path", 4)
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
    report = verify_stab_equivalence("path", 5)
    assert report["vertices"] == report["stable_sets"] == 5
    assert report["lp_edges"] == report["chvatal_edges"] == 8
    assert report["classified_edges"] == 8
    assert report["count_match"] and report["bijection_match"]
    assert report["coordinate_match"]
    assert report["lp_equals_chvatal"] and report["lp_equals_classified"]


def test_stab_equivalence_cycle4():
    report = verify_stab_equivalence("cycle", 4)
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
    report = verify_stab_equivalence("cycle", 5)
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
    # minus the coordinate-row duals of the exact face LP must be a feasible,
    # optimal cost vector of the face LP: inside the unit box, zero where u
    # and v agree, level on (u, v), and exposing the pair with gap exactly
    # t* over the vertices of its box.  A pair with an empty box is an edge.
    vs = enumerate_mecs(3)
    _, rmat = _restricted(vs)
    n = len(rmat)
    faces = 0
    for u in range(n):
        for v in range(u + 1, n):
            agree = rmat[u] == rmat[v]
            box = [x for x in range(n) if x not in (u, v)
                   and (rmat[x][agree] == rmat[u][agree]).all()]
            if not box:
                assert _midpoint_mass(vs, u, v) == 0
                continue
            faces += 1
            w, t = _solve_margin(rmat, u, v)
            assert all(abs(x) <= 1 for x in w)
            assert all(x == 0 for x, same in zip(w, agree) if same)
            scores = [sum(a * b for a, b in zip(w, row)) for row in rmat.tolist()]
            assert scores[u] == scores[v]
            assert t == min(scores[u] - scores[x] for x in box)
            assert (t > 0) == (_midpoint_mass(vs, u, v) == 0)
    assert 0 < faces < n * (n - 1) // 2


def test_every_p4_certificate_checks():
    vs = enumerate_mecs(4)
    survey = certify_all_edges(vs)
    assert len(survey.certificates) == 4259
    assert all(cert.check(vs) for cert in survey.certificates.values())


# a triangle with pendant paths of lengths 2 and 1: no automorphism but the
# identity
_ASYMMETRIC = UndirectedGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4),
                                             (2, 5), (3, 5)])


def _rotation_orbit():
    """The three rotations of a class with no symmetry of its own under the
    3-cycle (0 1 2): the only relabellings that map this set onto itself
    are the rotations, though the union of its skeletons is K4."""
    dags = [Dag.from_arcs(4, [(a, b), (c, b), (c, 3)])
            for a, b, c in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
    return polytope._build_vertex_set(4, [(mec_of(dag), parent_masks(dag)) for dag in dags])


def _face(kind, p):
    if kind == "full":
        return enumerate_mecs(p)
    if kind == "asym":
        return enumerate_mecs_with_skeleton(_ASYMMETRIC)
    if kind == "rotations":
        return _rotation_orbit()
    return enumerate_mecs_with_skeleton(
        {"path": path_graph, "cycle": cycle_graph,
         "star": lambda p: star_over_cliques(p, (1,) * (p - 1)),
         "complete": lambda p: UndirectedGraph.from_edges(
             p, itertools.combinations(range(p), 2))}[kind](p))


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
                                     ("cycle", 4), ("cycle", 5), ("cycle", 6),
                                     ("path", 4), ("path", 5), ("path", 6),
                                     ("path", 7), ("asym", 6), ("star", 5), ("star", 6),
                                     ("complete", 4), ("complete", 5)])
def test_pair_move_kinds_match_the_imset_vector_lookup(face, p):
    vs = _face(face, p)
    assert polytope._pair_move_kinds(vs) == _pair_move_kinds_by_vector(vs)


def test_edge_census_reports_stage_seconds_apart_from_the_census():
    vs = enumerate_mecs(3)
    seconds = {}
    census = edge_census(vs, seconds=seconds)
    assert set(seconds) == {"prefilter", "certify", "classify"}
    assert all(t >= 0 for t in seconds.values())
    assert census == edge_census(vs)


# ---------------------------------------------------------------------------
# Margin LPs started from the census basis


def _margin_batches(vs, step=1):
    _, rmat = _restricted(vs)
    n = len(rmat)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)][::step]
    c, a, b = margin_lps(rmat, pairs)
    return rmat, pairs, c, a, b


@pytest.mark.parametrize("face, p, step", [("full", 3, 1), ("cycle", 4, 1), ("cycle", 5, 1),
                                           ("cycle", 6, 1), ("full", 4, 10)])
def test_started_margin_equals_the_two_phase_margin(face, p, step):
    vs = enumerate_mecs(p) if face == "full" else enumerate_mecs_with_skeleton(cycle_graph(p))
    rmat, pairs, c, a, b = _margin_batches(vs, step)
    d = rmat.shape[1]
    started = simplex_max_many(c, a, [b] * len(a), margin_start(rmat, pairs))
    for mat, res in zip(a, started):
        t_two = margin_solution(two_phase_simplex_max(c, mat, ["="] * len(b), b), d)[1]
        assert abs(margin_solution(res, d)[1] - t_two) <= 1e-12


def test_started_exact_margin_equals_the_two_phase_margin_p3():
    rmat, pairs, c, a, b = _margin_batches(enumerate_mecs(3))
    for mat, start in zip(a, margin_start(rmat, pairs)):
        two = two_phase_simplex_max(c, mat, ["="] * len(b), b)
        started = simplex_max(c, mat, b, start, exact=True)
        assert started.status == two.status == OPTIMAL
        assert abs(float(started.objective) - two.objective) <= 1e-12


def test_margin_start_is_a_feasible_basis():
    _check_margin_start(enumerate_mecs(3))


@pytest.mark.parametrize("face, p, step", [("cycle", 6, 1), ("full", 4, 41)])
def test_margin_start_is_a_feasible_basis_on_larger_faces(face, p, step):
    _check_margin_start(_face(face, p), step)


def _check_margin_start(vs, step=1):
    # the y column of the vertex x0 closest to u and v, and per coordinate
    # the residual slack whose sign matches u - x0
    rmat, pairs, c, a, b = _margin_batches(vs, step)
    n, d = rmat.shape
    for (u, v), mat, start in zip(pairs, a, margin_start(rmat, pairs)):
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


@pytest.mark.parametrize("runs", [1, 2])
def test_every_p4_certificate_checks_without_exact_resolves(runs):
    # a second census in the same process, after the first has filled the
    # module caches, must certify the same edges with the same counts
    vs = enumerate_mecs(4)
    for _ in range(runs):
        survey = certify_all_edges(vs)
        stats = survey.stats
        assert (stats["prefiltered"] + stats["lp_solved"] + stats["two_vertex_faces"]
                + stats["by_symmetry"]) == stats["pairs"]
        assert (stats["lp_solved"], stats["two_vertex_faces"], stats["by_symmetry"]) == \
            (204, 33, 4022)
        assert len(survey.certificates) == stats["edges"] == 4259
        assert stats["exact_resolves"] == 0
        assert all(cert.check(vs) for cert in survey.certificates.values())


def test_pair_move_kinds_build_no_imset_and_apply_or_verify_no_move(monkeypatch):
    # a move's target is looked up among the rows, so no full imset is
    # built and no move is applied to a class or verified
    vs = enumerate_mecs(4)
    calls = Counter()

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    moves_mod._class_imset.cache_clear()
    for module in (moves_mod, polytope):
        monkeypatch.setattr(module, "full_imset", counting("full_imset", full_imset))
    for name in ("apply_move", "verify_pair"):
        monkeypatch.setattr(moves_mod, name, counting(name, getattr(moves_mod, name)))
    assert polytope._pair_move_kinds(vs)
    assert not calls
    assert search_mod._class_imset is moves_mod._class_imset


# ---------------------------------------------------------------------------
# Node relabellings: orbits of vertex pairs and of classes


def _group_order(gens, p):
    """Size of the group of node relabellings that gens generate."""
    seen = {tuple(range(p))}
    stack = list(seen)
    while stack:
        perm = stack.pop()
        for g in gens:
            image = tuple(g.nodes[x] for x in perm)
            if image not in seen:
                seen.add(image)
                stack.append(image)
    return len(seen)


@pytest.mark.parametrize("kind, p, order", [
    ("full", 2, 2), ("full", 3, 6), ("full", 4, 24),
    *[("cycle", p, 2 * p) for p in range(4, 9)],
    *[("path", p, 2) for p in range(4, 9)],
    ("asym", 6, 1), ("rotations", 4, 3),
])
def test_symmetries_generate_the_relabelling_group(kind, p, order):
    vs = _face(kind, p)
    gens = polytope._symmetries(vs)
    assert len(gens) <= p - 1
    assert _group_order(gens, p) == order


@pytest.mark.parametrize("kind, p", [("full", 2), ("full", 3), ("full", 4),
                                     ("cycle", 6), ("path", 7), ("rotations", 4)])
def test_every_symmetry_maps_the_rows_onto_the_rows(kind, p):
    vs = _face(kind, p)
    pos = {nodes_of(key): k for k, key in enumerate(vs.coords)}
    for g in polytope._symmetries(vs):
        assert sorted(g.nodes) == list(range(p))
        assert g.coords == tuple(pos[tuple(sorted(g.nodes[x] for x in nodes_of(key)))]
                                 for key in vs.coords)
        assert sorted(g.rows) == list(range(len(vs)))
        for i, row in enumerate(vs.matrix):
            image = [None] * len(row)
            for k, bit in enumerate(row):
                image[g.coords[k]] = bit
            assert tuple(image) == vs.matrix[g.rows[i]]


def test_a_vertex_set_is_hashed_once(monkeypatch):
    vs = enumerate_mecs(4)
    again = enumerate_mecs(4)
    assert vs is not again and vs == again and hash(vs) == hash(again)
    for cached in (polytope._restricted, polytope._coord_pos, polytope._symmetries):
        cached(vs)
    hashed = []
    original = Mec.__hash__
    monkeypatch.setattr(Mec, "__hash__", lambda mec: hashed.append(mec) or original(mec))
    for cached in (polytope._restricted, polytope._coord_pos, polytope._symmetries):
        cached(vs)
    assert hashed == []
    hash(vs.mecs[0])
    assert hashed == [vs.mecs[0]]


def test_symmetry_detection_on_the_star_face_is_fast():
    vs = enumerate_mecs_with_skeleton(star_over_cliques(9, (1,) * 8))
    start = time.perf_counter()
    gens = polytope._symmetries.__wrapped__(vs)
    assert time.perf_counter() - start < 2
    assert len(gens) == 7
    assert all(g.nodes[8] == 8 for g in gens)  # the centre stays put


@pytest.mark.parametrize("budget, generators, solved", [(0, 0, 33), (20, 1, 20)])
def test_a_spent_symmetry_budget_only_costs_lps(monkeypatch, budget, generators, solved):
    vs = enumerate_mecs(3)
    full = certify_all_edges(vs)
    monkeypatch.setattr(polytope, "_SYMMETRY_BUDGET", budget)
    assert len(polytope._symmetries.__wrapped__(vs)) == generators
    monkeypatch.setattr(polytope, "_symmetries", polytope._symmetries.__wrapped__)
    spent = certify_all_edges(vs)
    # solved counts the pairs decided with an LP or on a two-vertex face
    assert spent.stats["lp_solved"] + spent.stats["two_vertex_faces"] == solved
    assert spent.stats["lp_solved"] == {0: 18, 20: 11}[budget]
    assert spent.edges == full.edges
    assert {pair: cert.mode for pair, cert in spent.certificates.items()} == \
        {pair: cert.mode for pair, cert in full.certificates.items()}
    assert all(cert.check(vs) for cert in spent.certificates.values())
    assert polytope._pair_move_kinds(vs) == _pair_move_kinds_by_vector(vs)


def _per_pair_survey(vs):
    """Edges and the mode of each, with a margin LP for every pair that
    passes the prefilter: the certification before pair orbits."""
    _, rmat = _restricted(vs)
    n = len(rmat)
    skip = _skipped(rmat)
    todo = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in skip]
    decided = polytope._decide_pairs(rmat, todo)
    return {(u, v): mode for u, v, is_edge, _, mode, _, _ in decided if is_edge}


@pytest.mark.parametrize("kind, p", [("full", 2), ("full", 3), ("full", 4),
                                     *[(k, p) for k in ("path", "cycle") for p in (4, 5, 6)],
                                     ("rotations", 4)])
def test_orbit_certification_matches_a_margin_lp_per_pair(kind, p):
    vs = _face(kind, p)
    expected = _per_pair_survey(vs)
    survey = certify_all_edges(vs)
    assert set(survey.edges) == set(expected)
    assert {pair: cert.mode for pair, cert in survey.certificates.items()} == expected
    assert all(cert.check(vs) for cert in survey.certificates.values())


@pytest.mark.parametrize("kind, p, batches", [("full", 4, 1), ("cycle", 6, 1)])
def test_certificates_do_not_depend_on_the_lp_batching(monkeypatch, kind, p, batches):
    vs = _face(kind, p)
    _, rmat = _restricted(vs)
    default = certify_all_edges(vs)
    assert -(-default.stats["lp_solved"] // polytope._batch_size(rmat)) == batches
    monkeypatch.setattr(polytope, "_BATCH_BYTES", 1)
    assert polytope._batch_size(rmat) == 1
    one_lp = certify_all_edges(vs)
    assert one_lp.edges == default.edges
    assert one_lp.certificates == default.certificates
    assert one_lp.stats == default.stats


def _census_per_edge(vs):
    """edge_census before orbit weighting: every edge is classified and
    counted on its own."""
    survey = polytope.certify_all_edges(vs)
    kinds = polytope._pair_move_kinds(vs)
    tags = polytope.classify_edges(vs, survey.edges, kinds)
    uncertified_moves = sorted(set(kinds) - set(survey.edges))
    counts = Counter()
    multiplicities = []
    same_skeleton = []
    for pair in survey.edges:
        counts[tags[pair][0]] += 1
        if len(tags[pair]) > 1:
            multiplicities.append(pair)
        i, j = pair
        if vs.mecs[i].skeleton == vs.mecs[j].skeleton:
            same_skeleton.append(pair)
    turn_kinds = (moves_mod.V_STRUCTURE_ADDITION, moves_mod.BUDDING, moves_mod.FLIP)
    same_turn = [q for q in same_skeleton if tags[q][0] in turn_kinds]
    same_non_turn = [q for q in same_skeleton if tags[q][0] not in turn_kinds]
    by_class = Counter(polytope._canonical_skeleton(vs.mecs[i].skeleton)
                       for i, _ in same_non_turn)
    class_rows = []
    for canon, cnt in by_class.items():
        deg = [0] * vs.p
        for a, b in canon:
            deg[a] += 1
            deg[b] += 1
        class_rows.append({"skeleton_edges": [list(e) for e in canon],
                           "degree_sequence": sorted(deg), "count": cnt})
    class_rows.sort(key=lambda r: (-r["count"], r["skeleton_edges"]))
    return {
        "p": vs.p,
        "vertices": len(vs),
        "total_edges": len(survey.edges),
        "v_structure_additions": counts[moves_mod.V_STRUCTURE_ADDITION],
        "buddings": counts[moves_mod.BUDDING],
        "flips": counts[moves_mod.FLIP],
        "turn_pairs": sum(counts[k] for k in turn_kinds),
        "edge_additions": counts[polytope.EDGE_ADDITION],
        "edge_pairs_not_additions": counts[polytope.EDGE_PAIR_OTHER],
        "edge_pairs": counts[polytope.EDGE_ADDITION] + counts[polytope.EDGE_PAIR_OTHER],
        "shifts": counts[moves_mod.SHIFT],
        "splits": counts[moves_mod.SPLIT],
        "unclassified": counts[polytope.UNCLASSIFIED],
        "same_skeleton_edges": len(same_skeleton),
        "same_skeleton_turn": len(same_turn),
        "same_skeleton_non_turn": len(same_non_turn),
        "same_skeleton_non_turn_by_class": class_rows,
        "tag_multiplicities": len(multiplicities),
        "moves_not_certified": [list(q) for q in uncertified_moves],
        "lp_stats": survey.stats,
    }


@pytest.mark.parametrize("kind, p", [("full", 2), ("full", 3), ("full", 4),
                                     *[(k, p) for k in ("path", "cycle") for p in range(4, 9)],
                                     ("rotations", 4), ("asym", 6)])
def test_orbit_weighted_census_matches_the_per_edge_count(kind, p):
    vs = _face(kind, p)
    census = edge_census(vs)
    assert json.dumps(census) == json.dumps(_census_per_edge(vs))
    survey = certify_all_edges(vs)
    assert sum(survey.orbits.values()) == len(survey.edges)
    assert set(survey.orbits) <= set(survey.edges)


@pytest.mark.parametrize("budget", [0, 20])
@pytest.mark.parametrize("p", [3, 4])
def test_orbit_weighted_census_with_finer_orbits(monkeypatch, p, budget):
    vs = enumerate_mecs(p)
    full = edge_census(vs)
    monkeypatch.setattr(polytope, "_SYMMETRY_BUDGET", budget)
    monkeypatch.setattr(polytope, "_symmetries", polytope._symmetries.__wrapped__)
    # one survey serves the census and its reference, since without orbits
    # every survey solves all the LPs again
    survey = certify_all_edges(vs)
    monkeypatch.setattr(polytope, "certify_all_edges", lambda _: survey)
    census = edge_census(vs)
    assert census["lp_stats"]["lp_solved"] > full["lp_stats"]["lp_solved"]
    assert json.dumps(census) == json.dumps(_census_per_edge(vs))
    census.pop("lp_stats")
    full.pop("lp_stats")
    assert census == full


def _eager_certificates(vs):
    """certify_all_edges before lazy certificates: every edge decided by
    symmetry has its weights lifted while the survey is built."""
    varying, rmat = _restricted(vs)
    n = len(rmat)
    skip = _skipped(rmat)
    todo = [(i, j) for i in range(n) for j in range(i + 1, n) if (i, j) not in skip]
    syms = polytope._symmetries(vs)
    reps, derived = polytope._orbit_tree(todo, [g.rows for g in syms], polytope._pair_image)
    decided = {(u, v): decision for u, v, *decision in polytope._decide_pairs(rmat, reps)}
    column = {pos: k for k, pos in enumerate(varying)}
    moved = [[column[g.coords[pos]] for pos in varying] for g in syms]
    for pair, source, s in derived:
        is_edge, margin, mode, weights, objective = decided[source]
        if is_edge:
            image = [0.0] * len(weights)
            for k, w in zip(moved[s], weights):
                image[k] = w
            weights = tuple(image)
        decided[pair] = (is_edge, margin, mode, weights, objective)
    edges = sorted(pair for pair, decision in decided.items() if decision[0])
    return {(u, v): polytope._certificate(vs, varying, u, v, *decided[(u, v)][1:])
            for u, v in edges}


def test_edge_census_builds_no_certificate(monkeypatch):
    vs = enumerate_mecs(4)
    want = edge_census(vs)

    def refuse(*args):
        raise AssertionError("the census built a certificate")

    monkeypatch.setattr(polytope, "_certificate", refuse)
    assert edge_census(vs) == want
    assert (want["total_edges"], want["turn_pairs"], want["edge_pairs"]) == (4259, 180, 756)
    with pytest.raises(AssertionError):
        certify_all_edges(vs).certificates


@pytest.mark.parametrize("kind, p", [("full", 3), ("full", 4), ("cycle", 6)])
def test_lazy_certificates_equal_the_eager_lift(kind, p):
    vs = _face(kind, p)
    survey = certify_all_edges(vs)
    assert "certificates" not in vars(survey)
    want = _eager_certificates(vs)
    assert list(survey.certificates) == list(want) == list(survey.edges)
    for pair, cert in want.items():
        assert survey.certificates[pair] == cert
    assert survey.certificates is survey.certificates


def _midpoint_prefilter_by_dict(matrix):
    """The prefilter before integer keys: a dict of every pair sum."""
    rows = matrix.tolist()
    sums = {}
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            sums.setdefault(tuple(a + b for a, b in zip(rows[i], rows[j])), []).append((i, j))
    doubles = {tuple(2 * a for a in row) for row in rows}
    skip = set()
    for s, pairs in sums.items():
        if len(pairs) > 1 or s in doubles:
            skip.update(pairs)
    return skip


@pytest.mark.parametrize("kind, p", [("full", 2), ("full", 3), ("full", 4),
                                     *[(k, p) for k in ("path", "cycle") for p in range(4, 9)]])
def test_midpoint_prefilter_matches_the_dict_of_pair_sums(kind, p):
    _, rmat = _restricted(_face(kind, p))
    assert _skipped(rmat) == _midpoint_prefilter_by_dict(rmat)


def test_census_of_a_single_class_face():
    # the triangle has one class, so no coordinate varies and no pair exists
    vs = enumerate_mecs_with_skeleton(UndirectedGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)]))
    assert _restricted(vs)[1].shape == (1, 0)
    census = edge_census(vs)
    assert census["total_edges"] == 0
    assert census["lp_stats"] == {"pairs": 0, "prefiltered": 0, "lp_solved": 0,
                                  "two_vertex_faces": 0, "by_symmetry": 0,
                                  "exact_resolves": 0, "edges": 0}


def test_midpoint_prefilter_keys_rows_wider_than_one_chunk():
    # 100 coordinates take three base-3 keys.  Rows 4, 5 and 6 are row 0
    # with coordinate 99, 98 or both flipped, so r0 + r6 = r4 + r5 and the
    # two sums differ from each other's neighbours only in the last key.
    rng = np.random.default_rng(5)
    m = rng.integers(0, 2, size=(30, 100))
    m[4] = m[5] = m[6] = m[0]
    m[4, 99], m[5, 98], m[6, 99], m[6, 98] = 1 - m[0, 99], 1 - m[0, 98], 1 - m[0, 99], 1 - m[0, 98]
    assert len({tuple(r) for r in m.tolist()}) == len(m)
    skip = _skipped(m)
    assert skip == _midpoint_prefilter_by_dict(m)
    assert (0, 6) in skip and (4, 5) in skip


def _canonical_by_brute_force(g):
    best = None
    for perm in itertools.permutations(range(g.p)):
        mapped = tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in g.edges))
        if best is None or mapped < best:
            best = mapped
    return best


def test_canonical_skeleton_matches_brute_force_on_every_small_graph():
    for p in range(6):
        pairs = list(itertools.combinations(range(p), 2))
        for mask in range(1 << len(pairs)):
            g = UndirectedGraph.from_edges(p, [e for k, e in enumerate(pairs) if mask >> k & 1])
            assert polytope._canonical_skeleton(g) == _canonical_by_brute_force(g), g


@st.composite
def _graphs(draw):
    p = draw(st.integers(6, 7))
    pairs = list(itertools.combinations(range(p), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return UndirectedGraph.from_edges(p, [e for e, k in zip(pairs, keep) if k])


@settings(max_examples=30)
@given(_graphs())
def test_canonical_skeleton_matches_brute_force_on_drawn_graphs(g):
    assert polytope._canonical_skeleton(g) == _canonical_by_brute_force(g)


def test_canonical_skeleton_of_a_ten_node_path_is_fast():
    start = time.perf_counter()
    canon = polytope._canonical_skeleton.__wrapped__(path_graph(10))
    assert time.perf_counter() - start < 1
    assert len(canon) == 9 and canon[:2] == ((0, 1), (0, 2))


# ---------------------------------------------------------------------------
# Column-generated face LPs against the full margin LP


def _full_lp_decisions(rmat, pairs):
    """is_edge per pair from the margin LP over every vertex, all pairs in
    one lockstep batch, with the float decision rule and the exact
    re-solve window, whose exact LP is over every vertex too: the
    certification before faces and column generation."""
    c, a, b = margin_lps(rmat, pairs)
    starts = margin_start(rmat, pairs)
    solved = simplex_max_many(c, a, [b] * len(a), starts)
    d = rmat.shape[1]
    out = []
    for (u, v), mat, start, res in zip(pairs, a, starts, solved):
        w, t = margin_solution(res, d)
        _, gaps, imbalance = polytope._normalized_margins(rmat, [u], [v], w[None])
        margin = gaps.min()
        if imbalance[0] > 1e-9 or polytope._EXACT_LO < margin < polytope._EXACT_HI:
            out.append(margin_solution(simplex_max(c, mat, b, start, exact=True), d)[1] > 0)
        else:
            out.append(margin > polytope.EDGE_TOL)
    return out


def _assert_column_generation_matches_the_full_lp(rmat, pairs, got=None):
    got = polytope._decide_pairs(rmat, pairs) if got is None else got
    want = _full_lp_decisions(rmat, pairs)
    d = rmat.shape[1]
    for (u, v, is_edge, margin, mode, weights, t), want_edge in zip(got, want):
        assert is_edge == want_edge, (u, v)
        if mode == "trivial":
            assert t == float("inf")
        else:
            # t is the optimum of the face LP
            c, a, b = face_lp(rmat, u, v)
            t_two = margin_solution(two_phase_simplex_max(c, a, ["="] * len(b), b), d)[1]
            assert abs(t - t_two) <= 1e-9, (u, v)
        if is_edge:
            # the weights expose the pair over every vertex, with the margin
            scores = rmat @ np.array(weights)
            assert abs(scores[u] - scores[v]) <= 1e-9
            assert abs(min(scores[u] - s for x, s in enumerate(scores) if x not in (u, v))
                       - margin) <= 1e-9
    return [g[2] for g in got]


def test_column_generation_matches_the_full_lp_on_every_p3_pair():
    _, rmat = _restricted(enumerate_mecs(3))
    n = len(rmat)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    assert sum(_assert_column_generation_matches_the_full_lp(rmat, pairs)) == 33


def test_column_generation_matches_the_full_lp_on_random_p4_pairs(monkeypatch):
    # drawn from all pairs, so the prefilter is bypassed: at p = 4 every
    # pair that passes it is an edge, and these include non-edges; none
    # needs an exact re-solve, including the two whose LPs end at t ~ 0
    # with a w that is not level on the pair
    _, rmat = _restricted(enumerate_mecs(4))
    n = len(rmat)
    i, j = np.triu_indices(n, 1)
    picked = np.sort(np.random.default_rng(4).choice(len(i), 240, replace=False))
    pairs = list(zip(i[picked].tolist(), j[picked].tolist()))
    exact = Counter()
    decide_exact = polytope._decide_exact

    def counting(*args):
        exact[args[1:]] += 1
        return decide_exact(*args)

    monkeypatch.setattr(polytope, "_decide_exact", counting)
    got = polytope._decide_pairs(rmat, pairs)
    monkeypatch.undo()
    assert not exact
    decisions = _assert_column_generation_matches_the_full_lp(rmat, pairs, got)
    assert 0 < sum(decisions) < len(pairs)


@pytest.mark.parametrize("kind, p", [(k, p) for k in ("path", "cycle") for p in range(4, 9)])
def test_column_generation_matches_the_full_lp_on_path_and_cycle_faces(kind, p):
    vs = _face(kind, p)
    _, rmat = _restricted(vs)
    n = len(rmat)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    _assert_column_generation_matches_the_full_lp(rmat, pairs)
    assert all(cert.check(vs) for cert in certify_all_edges(vs).certificates.values())


def test_column_generation_adds_columns_in_rounds_and_restarts_warm_at_p4(monkeypatch):
    # the census LPs of p = 4 start with _START_COLUMNS y columns; those
    # that need more come back in later rounds as the tableau they ended the
    # round before with, in the same order, with the new y columns inserted
    # before z+ and the basis carried along.  Every p = 4 box holds at most
    # 16 vertices, so fewer start columns are taken to make rounds.
    monkeypatch.setattr(polytope, "_START_COLUMNS", 4)
    monkeypatch.setattr(polytope, "_ROUND_COLUMNS", 4)
    rounds = []
    pivot = polytope.pivot_tableaux

    def recording(stack, basis, exact=False):
        before, start = stack.copy(), basis.copy()
        out = pivot(stack, basis, exact)
        rounds.append((before, start, stack.copy(), basis.copy(), out))
        return out

    monkeypatch.setattr(polytope, "pivot_tableaux", recording)
    survey = certify_all_edges(enumerate_mecs(4))
    d = _restricted(enumerate_mecs(4))[1].shape[1]
    m = d + 1
    assert [stack.shape[2] - m - 1 for stack, *_ in rounds] == [
        2 * d + 2 + polytope._START_COLUMNS + r * polytope._ROUND_COLUMNS
        for r in range(len(rounds))]
    assert len(rounds[0][0]) == survey.stats["lp_solved"] == 204
    assert len(rounds) > 1
    assert all(res == OPTIMAL for *_, out in rounds for res in out)
    for (_, _, solved, ended, _), (after, starts, *_) in zip(rounds, rounds[1:]):
        k = solved.shape[2] - m - 1 - 2 * d - 2
        add = after.shape[2] - solved.shape[2]
        q = 0
        for tab, start in zip(after, starts):
            # the LPs keep their order, and a restarted LP keeps its final
            # tableau, with the new y columns inserted before z+
            while not ((solved[q][:, :d + k] == tab[:, :d + k]).all()
                       and (solved[q][:, d + k:] == tab[:, d + k + add:]).all()):
                q += 1
            assert (start == np.where(ended[q] >= d + k, ended[q] + add, ended[q])).all()
            assert (tab[:, start] == np.eye(m + 1)[:, :m]).all()
            q += 1
        assert len(after) < len(solved)


def test_two_vertex_faces_are_decided_with_no_lp_at_p4(monkeypatch):
    # a pair whose box holds no other vertex is an edge of a two-vertex
    # face: c_F = u + v - 1 exposes it with every gap at least 1, and no LP
    # is built or pivoted, in float or in exact mode
    vs = enumerate_mecs(4)
    _, rmat = _restricted(vs)
    n = len(rmat)
    i, j = np.triu_indices(n, 1)
    keep = ~_midpoint_prefilter(rmat)
    at = np.stack([i[keep], j[keep]], axis=1)
    flat = ~(polytope._faces(rmat, at)[1] == 0).any(axis=1)
    assert (len(at), flat.sum()) == (4259, 522)
    survey = certify_all_edges(vs)
    assert survey.stats["two_vertex_faces"] == 33
    pairs = [tuple(pair) for pair in at[flat].tolist()]

    def refuse(*args, **kwargs):
        raise AssertionError("a two-vertex face solved an LP")

    with monkeypatch.context() as patch:
        for name in ("_first_tableaux", "pivot_tableaux", "_solve_margin"):
            patch.setattr(polytope, name, refuse)
        decided = polytope._decide_pairs(rmat, pairs)
        assert polytope._decide_pairs(rmat, pairs, exact=True) == decided
    for u, v, is_edge, margin, mode, weights, objective in decided:
        assert (is_edge, margin, mode, objective) == (True, 1.0, "trivial", float("inf"))
        assert weights == tuple(rmat[u] + rmat[v] - 1)
    trivial = {pair: cert for pair, cert in survey.certificates.items() if cert.mode == "trivial"}
    assert len(trivial) == 522
    for (u, v), cert in trivial.items():
        # an integer vector of max-norm 1, so scaling left it as it was
        assert set(cert.weights) <= {-1.0, 0.0, 1.0} and max(map(abs, cert.weights)) == 1
        assert cert.check(vs)
        # sums of small integers, so the float gaps are exact
        wu = polytope._dot(cert.weights, vs.matrix[u])
        assert min(wu - polytope._dot(cert.weights, row)
                   for x, row in enumerate(vs.matrix) if x not in (u, v)) == 1


def test_exact_face_decisions_match_the_float_census_at_p4():
    # every p = 4 orbit representative through the exact path: the same
    # decisions, objectives and margins as the float path
    vs = enumerate_mecs(4)
    varying, rmat = _restricted(vs)
    survey = certify_all_edges(vs)
    decided = survey._lift[2]
    reps = sorted(decided)
    assert len(reps) == 237
    exact = polytope._decide_pairs(rmat, reps, exact=True)
    assert Counter(mode for *_, mode, _, _ in exact) == {"exact": 204, "trivial": 33}
    for u, v, is_edge, margin, mode, weights, objective in exact:
        want = decided[(u, v)]
        assert is_edge == want[0] is True
        assert objective == pytest.approx(want[4], rel=0, abs=1e-9)
        assert margin == pytest.approx(want[1], rel=0, abs=1e-9)
        assert polytope._certificate(vs, varying, u, v, margin, mode, weights, objective).check(vs)


@pytest.mark.parametrize("kind, p", [("full", 3), ("cycle", 6)])
def test_pairs_in_the_exact_window_are_decided_on_the_exact_face_lp(monkeypatch, kind, p):
    # a window wider than every margin sends each float edge to the exact
    # face LP, which gives the same decision and face t*
    _, rmat = _restricted(_face(kind, p))
    n = len(rmat)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    want = polytope._decide_pairs(rmat, pairs)
    monkeypatch.setattr(polytope, "_EXACT_HI", float("inf"))
    got = polytope._decide_pairs(rmat, pairs)
    assert Counter(mode for *_, mode, _, _ in got) == Counter(
        "exact" if is_edge and mode == "float" else mode
        for _, _, is_edge, _, mode, _, _ in want)
    assert any(mode == "exact" for *_, mode, _, _ in got)
    for (u, v, is_edge, _, _, _, t), (*_, want_edge, _, _, _, want_t) in zip(got, want):
        assert is_edge == want_edge, (u, v)
        assert t == pytest.approx(want_t, rel=0, abs=1e-9)


def _enter_basis_tableaux(rmat, pairs, cols, bases):
    """The margin LPs of pairs over cols, rebuilt by _margin_lps and moved
    to the bases by lp._enter_basis: the tableaux before they were kept."""
    c, a, b = polytope._margin_lps(rmat, pairs, cols)
    count, m, structural = a.shape
    stack = np.zeros((count, m + 1, structural + m + 1))
    stack[:, :m, :structural] = a
    stack[:, np.arange(m), structural + np.arange(m)] = 1.0
    stack[:, :m, -1] = b
    stack[:, m, :structural] = c
    basis = np.array(bases)
    assert lp_mod._enter_basis(stack, basis, basis.copy(), False) == [None] * count
    return stack


@pytest.mark.parametrize("kind, p", [("full", 3), ("full", 4), ("cycle", 6)])
def test_first_tableaux_equal_the_inverted_start_bit_for_bit(kind, p):
    # every pair, in chunks, with the census's first y columns
    _, rmat = _restricted(_face(kind, p))
    n = len(rmat)
    i, j = np.triu_indices(n, 1)
    at = np.stack([i, j], axis=1)
    for s in range(0, len(at), 2000):
        # the pairs whose box holds a vertex, with their first y columns
        box = polytope._faces(rmat, at[s:s + 2000])[1] == 0
        pairs, box = at[s:s + 2000][box.any(axis=1)], box[box.any(axis=1)]
        cols = polytope._box_columns(box, min(box.sum(axis=1).max(), polytope._START_COLUMNS))
        tabs, bases = polytope._first_tableaux(rmat, pairs, cols)
        d = rmat.shape[1]
        # margin_start's basis: its x0, the vertex nearest the pair, is the
        # first y column, and each coordinate row has the same slack, s-
        # (below d) or s+ (above)
        full = margin_start(rmat, pairs)
        assert (cols[:, 0] == distances(rmat, pairs).argmin(axis=1)).all()
        assert (bases[:, d] == d).all()
        assert ((bases[:, :d] > d) == (full[:, :d] > d)).all()
        want = _enter_basis_tableaux(rmat, pairs, cols, bases)
        assert (tabs.view(np.int64) == want.view(np.int64)).all()


@pytest.mark.parametrize("kind, p, picked", [("full", 4, None), ("full", 4, 240),
                                             ("cycle", 8, None)])
def test_carried_tableaux_equal_the_rebuilt_lps_in_every_round(monkeypatch, kind, p, picked):
    # the census survivors, or pairs drawn from all pairs (non-edges too)
    _, rmat = _restricted(_face(kind, p))
    n = len(rmat)
    i, j = np.triu_indices(n, 1)
    keep = ~polytope._midpoint_prefilter(rmat)
    if picked:
        keep = np.zeros(len(i), dtype=bool)
        keep[np.random.default_rng(4).choice(len(i), picked, replace=False)] = True
    pairs = list(zip(i[keep].tolist(), j[keep].tolist()))
    # most boxes here fit in fewer columns than the census starts with
    monkeypatch.setattr(polytope, "_START_COLUMNS", 4)
    carried = []
    add_columns = polytope._add_columns

    def recording(tabs, bases, rmat, pairs, cols, k):
        out = add_columns(tabs, bases, rmat, pairs, cols, k)
        if len(pairs):
            carried.append((pairs, cols, *out))
        return out

    monkeypatch.setattr(polytope, "_add_columns", recording)
    got = polytope._decide_pairs(rmat, pairs)
    monkeypatch.undo()
    assert carried
    for at, cols, tabs, bases in carried:
        assert np.abs(tabs - _enter_basis_tableaux(rmat, at, cols, bases)).max() <= 1e-9
    _assert_column_generation_matches_the_full_lp(rmat, pairs, got)


def test_a_p4_census_walks_no_pair_orbit_and_inverts_no_basis(monkeypatch):
    # counts, not times: the pair orbits are labelled with arrays, each
    # batch builds its margin LPs once, and later rounds carry tableaux
    vs = enumerate_mecs(4)
    _, rmat = _restricted(vs)
    one_lp = polytope._BATCH_BYTES // polytope._batch_size(rmat)
    orbit_tree = polytope._orbit_tree
    for batch_bytes, batches in [(polytope._BATCH_BYTES, 1), (100 * one_lp, 3)]:
        calls, walked = Counter(), []

        def counting(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        def walking(items, perms, image):
            walked.append(list(items))
            return orbit_tree(walked[-1], perms, image)

        with monkeypatch.context() as patch:
            patch.setattr(polytope, "_BATCH_BYTES", batch_bytes)
            for module, name in [(polytope, "_margin_lps"), (polytope, "_add_columns"),
                                 (lp_mod, "_enter_basis"), (np.linalg, "inv")]:
                patch.setattr(module, name, counting(name, getattr(module, name)))
            patch.setattr(polytope, "_orbit_tree", walking)
            census = edge_census(vs)
        assert census["lp_stats"]["lp_solved"] == 204
        assert walked == [list(range(185))]
        assert calls["_margin_lps"] == batches
        # every p = 4 box fits in the first round's columns
        assert calls["_add_columns"] == 0
        assert calls["_enter_basis"] == calls["inv"] == 0


def _check_pair_orbits(vs):
    """_pair_orbits against the orbit walk over the prefilter survivors:
    the same first pairs, the same root for every pair, and the same count
    decided by symmetry."""
    _, rmat = _restricted(vs)
    n = len(rmat)
    hit = _midpoint_prefilter(rmat)
    i, j = np.triu_indices(n, 1)
    i, j = i[~hit], j[~hit]
    todo = list(zip(i.tolist(), j.tolist()))
    perms = [g.rows for g in polytope._symmetries(vs)]
    reps, derived = polytope._orbit_tree(todo, perms, polytope._pair_image)
    root = {pair: pair for pair in reps}
    for pair, source, _ in derived:
        root[pair] = root[source]
    label = polytope._pair_orbits(i, j, n, perms)
    assert [todo[q] for q in label.tolist()] == [root[pair] for pair in todo]
    first = np.nonzero(label == np.arange(len(label)))[0]
    assert [todo[q] for q in first.tolist()] == reps
    assert len(label) - len(first) == len(derived) == certify_all_edges(vs).stats["by_symmetry"]


@pytest.mark.parametrize("kind, p", [("full", 2), ("full", 3), ("full", 4),
                                     *[(k, p) for k in ("path", "cycle") for p in range(4, 9)],
                                     ("rotations", 4), ("asym", 6)])
def test_pair_orbits_match_the_orbit_tree(kind, p):
    _check_pair_orbits(_face(kind, p))


@pytest.mark.parametrize("budget", [0, 20])
@pytest.mark.parametrize("p", [3, 4])
def test_pair_orbits_match_the_orbit_tree_with_finer_orbits(monkeypatch, p, budget):
    monkeypatch.setattr(polytope, "_SYMMETRY_BUDGET", budget)
    monkeypatch.setattr(polytope, "_symmetries", polytope._symmetries.__wrapped__)
    _check_pair_orbits(enumerate_mecs(p))


def test_pair_orbits_reject_pairs_that_are_not_closed():
    vs = enumerate_mecs(3)
    _, rmat = _restricted(vs)
    n = len(rmat)
    i, j = np.triu_indices(n, 1)
    perms = [g.rows for g in polytope._symmetries(vs)]
    label = polytope._pair_orbits(i, j, n, perms)
    # drop the last pair of an orbit of two or more, and then the first
    big = np.nonzero(np.bincount(label) > 1)[0][0]
    members = np.nonzero(label == big)[0]
    for q in (members[-1], members[0]):
        keep = np.arange(len(i)) != q
        with pytest.raises(ValueError, match="not closed"):
            polytope._pair_orbits(i[keep], j[keep], n, perms)
