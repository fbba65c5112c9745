"""Acceptance suite: one test (or labeled sub-test) per shipped guarantee.

Module-scoped fixtures run the two expensive studies once: the p = 4
edge census and the p = 8 simulation grid.  Guarantees that the code
base deliberately does not meet are asserted verbatim and marked
strict-xfail with the measured reason, so a regression in either
direction is visible.
"""

import heapq
import itertools
import time

import numpy as np
import pytest

from cimwalk.ci_tests import pc_skeleton
from cimwalk.graphs import (CycleError, Dag, UndirectedGraph, acyclic_orientations,
                            all_dags, all_mecs, consistent_extension, mec_of, shd)
from cimwalk.imset import full_imset, imset_delta, subset_key
from cimwalk.moves import (BUDDING, add_edge_delta, enumerate_turn_moves,
                           turn_edge_delta)
from cimwalk.polytope import edge_census, enumerate_mecs
from cimwalk.scoring import SufficientStats, score_dag, score_mec
from cimwalk.search import (SearchConfig, greedy_cim,
                            recurrent_phased_greedy_cim, skeletal_greedy_cim)
from cimwalk.simulate import assign_weights, make_rng, random_dag, sample
from paper_claims import (verify_simplex_faces, verify_stab_equivalence,
                          verify_turn_connectivity)


@pytest.fixture(scope="module")
def census_p4():
    t0 = time.time()
    census = edge_census(enumerate_mecs(4))
    census["elapsed_seconds"] = time.time() - t0
    return census


@pytest.fixture(scope="module")
def simulation_study():
    """p = 8, n = 10,000, alpha = 1e-4, 50 seeded replicates per d in {1, 2}."""
    t0 = time.time()
    config = SearchConfig(alpha=1e-4)
    rows = []
    for d, seed_base in ((1.0, 0), (2.0, 10_000)):
        for rep in range(50):
            rng = make_rng(seed_base + rep)
            dag = random_dag(8, d, rng)
            model = assign_weights(dag, rng)
            _, stats = sample(model, 10_000, rng)
            truth = mec_of(dag)
            skel, _ = pc_skeleton(stats, 1e-4)
            skeletal_out, _ = skeletal_greedy_cim(stats, config)
            greedy_out, _ = greedy_cim(stats, config)
            recurrent_out, _ = recurrent_phased_greedy_cim(stats, config)
            rows.append({
                "skeleton_true": skel.edges == truth.skeleton.edges,
                "skeletal_recovered": skeletal_out == truth,
                "greedy_recovered": greedy_out == truth,
                "recurrent_recovered": recurrent_out == truth,
                "skeletal_shd": shd(skeletal_out, truth),
                "greedy_shd": shd(greedy_out, truth),
            })
    return {"rows": rows, "elapsed_seconds": time.time() - t0}


def test_01_p4_edge_census_totals(census_p4):
    assert census_p4["total_edges"] == 4259
    assert census_p4["turn_pairs"] == 180
    assert census_p4["v_structure_additions"] == 96
    assert census_p4["buddings"] == 60
    assert census_p4["flips"] == 24
    assert census_p4["edge_pairs"] == 756
    assert census_p4["edge_additions"] == 276
    assert census_p4["edge_pairs_not_additions"] == 480
    assert census_p4["same_skeleton_edges"] == 241
    assert census_p4["elapsed_seconds"] <= 600


def test_02_p4_same_skeleton_census_by_class(census_p4):
    counts = [row["count"] for row in census_p4["same_skeleton_non_turn_by_class"]]
    assert counts == [21, 16, 12, 12]
    assert census_p4["same_skeleton_non_turn"] == 61
    assert census_p4["same_skeleton_turn"] == 180


def test_03_p4_every_move_is_a_certified_edge(census_p4):
    assert census_p4["moves_not_certified"] == []


def test_04_path_faces_match_stable_set_model():
    for p in (4, 5, 6, 7):
        report = verify_stab_equivalence("path", p)
        assert report["count_match"], p
        assert report["bijection_match"], p
        assert report["coordinate_match"], p
        assert report["lp_equals_classified"], p


@pytest.mark.xfail(
    strict=True,
    reason="every acyclic orientation of a cycle has a sink, so the "
    "collider-free stable set has no class on the cycle skeleton; its "
    "absence leaves the remaining vertex count one short and exposes "
    "p*(p-3)/2 polytope edges beyond the move classification",
)
def test_04_cycle_faces_match_stable_set_model():
    for p in (4, 5, 6, 7):
        report = verify_stab_equivalence("cycle", p)
        assert report["count_match"], p
        assert report["bijection_match"], p
        assert report["coordinate_match"], p
        assert report["lp_equals_classified"], p


def test_05_simplex_faces_p4_and_p5():
    for p in (4, 5):
        report = verify_simplex_faces(p)
        assert report["ok"], report


def _pruefer_tree(seq, p):
    degree = [1] * p
    for v in seq:
        degree[v] += 1
    heap = [v for v in range(p) if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for v in seq:
        u = heapq.heappop(heap)
        edges.append((min(u, v), max(u, v)))
        degree[u] -= 1
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    u = heapq.heappop(heap)
    v = heapq.heappop(heap)
    edges.append((min(u, v), max(u, v)))
    return UndirectedGraph.from_edges(p, edges)


def test_06_turn_connectivity():
    # every connected skeleton on up to four nodes
    checked = 0
    for p in (1, 2, 3, 4):
        pairs = list(itertools.combinations(range(p), 2))
        for bits in itertools.product((0, 1), repeat=len(pairs)):
            edges = [e for e, bit in zip(pairs, bits) if bit]
            g = UndirectedGraph.from_edges(p, edges)
            if not g.is_connected():
                continue
            assert verify_turn_connectivity(g), edges
            checked += 1
    assert checked == 1 + 1 + 4 + 38

    # every labeled tree on up to six nodes, generated independently
    trees = 0
    for p in (2, 3, 4, 5, 6):
        for seq in itertools.product(range(p), repeat=p - 2):
            g = _pruefer_tree(seq, p)
            assert verify_turn_connectivity(g), sorted(g.edges)
            trees += 1
    assert trees == 1 + 3 + 16 + 125 + 1296


def test_07_score_equivalence_and_affine_linearity():
    # all member DAGs of one class score identically, five stats draws each
    for instance in range(5):
        for p in (2, 3, 4):
            rng = np.random.default_rng(100 * instance + p)
            stats = SufficientStats.from_data(rng.standard_normal((500, p)))
            by_class = {}
            for dag in all_dags(p):
                by_class.setdefault(mec_of(dag), []).append(score_dag(dag, stats))
            for scores in by_class.values():
                ref = scores[0]
                assert all(abs(s - ref) <= 1e-9 * abs(ref) for s in scores)

    # the p = 3 score is affine in the imset: fit on five classes,
    # predict the held-out six
    rng = np.random.default_rng(424)
    stats = SufficientStats.from_data(rng.standard_normal((500, 3)))
    coords = [subset_key(s, 3) for s in ((0, 1), (0, 2), (1, 2), (0, 1, 2))]
    rows = []
    values = []
    for mec in all_mecs(3):
        ones = full_imset(consistent_extension(mec)).ones
        rows.append([1.0] + [1.0 if key in ones else 0.0 for key in coords])
        values.append(score_mec(mec, stats))
    design = np.array(rows)
    picked = []
    for k in range(len(rows)):
        trial = picked + [k]
        if np.linalg.matrix_rank(design[trial]) == len(trial):
            picked.append(k)
        if len(picked) == 5:
            break
    assert len(picked) == 5
    coeffs = np.linalg.solve(design[picked], np.array(values)[picked])
    for k in range(len(rows)):
        predicted = float(design[k] @ coeffs)
        assert abs(predicted - values[k]) <= 1e-6 * abs(values[k]), k


def _member_dags(mec):
    """Every DAG in the class, via acyclic orientations of the skeleton."""
    return [dag for dag in acyclic_orientations(mec.skeleton) if mec_of(dag) == mec]


def test_08_budding_is_not_a_single_arc_reversal():
    # two six-node classes joined by a budding over (2, 3) with bud set {0, 1}
    g = mec_of(Dag.from_arcs(6, [(0, 1), (2, 0), (2, 1), (3, 2), (4, 3), (5, 3)]))
    h = mec_of(Dag.from_arcs(6, [(0, 1), (0, 2), (1, 2), (3, 2), (4, 3), (5, 3)]))
    assert g != h and g.skeleton == h.skeleton

    joining = [(m, t) for m, t in enumerate_turn_moves(g) if t == h]
    assert [m.kind for m, _ in joining] == [BUDDING]
    assert joining[0][0].params == (2, 3, (0, 1))

    # no member DAG of either class reaches the other class by one reversal
    for source, target in ((g, h), (h, g)):
        for dag in _member_dags(source):
            for i, j in dag.arcs():
                try:
                    reversed_dag = dag.reverse_arc(i, j)
                except CycleError:
                    continue
                assert mec_of(reversed_dag) != target


def test_09a_skeletal_recovery_given_true_skeleton(simulation_study):
    rows = simulation_study["rows"]
    eligible = [r for r in rows if r["skeleton_true"]]
    assert eligible
    recovered = sum(r["skeletal_recovered"] for r in eligible)
    assert recovered / len(eligible) >= 0.90
    assert simulation_study["elapsed_seconds"] <= 1800


@pytest.mark.xfail(
    strict=True,
    reason="on this seeded grid the from-scratch greedy walk, whose phases "
    "rescan from the top after every applied move, reaches mean SHD 0.43 "
    "while the skeleton-first variant is pinned to conditional-independence "
    "errors on weak edges and lands near 1.39",
)
def test_09b_skeletal_mean_shd_at_most_greedy(simulation_study):
    rows = simulation_study["rows"]
    skeletal = sum(r["skeletal_shd"] for r in rows) / len(rows)
    greedy = sum(r["greedy_shd"] for r in rows) / len(rows)
    assert skeletal <= greedy


@pytest.mark.xfail(
    strict=True,
    reason="measured 87 recoveries for the phased variant against 89 for "
    "the plain greedy walk on this seeded grid; the discordant runs end "
    "at score-equivalent optima, so the gap is tie-breaking noise, but "
    "the inequality as stated does not hold",
)
def test_09c_recurrent_recovery_at_least_greedy(simulation_study):
    rows = simulation_study["rows"]
    recurrent = sum(r["recurrent_recovered"] for r in rows)
    greedy = sum(r["greedy_recovered"] for r in rows)
    assert recurrent >= greedy


def test_10_oracle_equivalence_up_to_p4():
    t0 = time.time()
    for p in (1, 2, 3, 4):
        restricted_to_full = {}
        full_to_restricted = {}
        for dag in all_dags(p):
            mec = mec_of(dag)
            extension = consistent_extension(mec)
            assert extension is not None
            assert mec_of(extension) == mec

            ones = full_imset(dag).ones
            restricted = frozenset(k for k in ones if k.bit_count() <= 3)
            assert restricted_to_full.setdefault(restricted, ones) == ones
            assert full_to_restricted.setdefault(ones, restricted) == restricted

            for i, j in dag.arcs():
                try:
                    reversed_dag = dag.reverse_arc(i, j)
                except CycleError:
                    continue
                move = turn_edge_delta(dag, i, j)
                assert (move.added, move.removed) == imset_delta(
                    full_imset(dag), full_imset(reversed_dag))
            for tail, head in itertools.permutations(range(p), 2):
                if dag.adjacent(tail, head):
                    continue
                try:
                    grown = dag.add_arc(tail, head)
                except CycleError:
                    continue
                move = add_edge_delta(dag, tail, head)
                assert (move.added, move.removed) == imset_delta(
                    full_imset(dag), full_imset(grown))
    assert time.time() - t0 <= 120
