"""Core graph types: DAGs, skeletons, v-structures, classes, CPDAGs."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import graphs_reference
from cimwalk import cli
from cimwalk.graphs import (CycleError, Dag, GraphError, Mec, UndirectedGraph,
                            VStructure, acyclic_orientations, all_classes, all_dags, all_mecs,
                            consistent_extension, cpdag_of_dag, dag_from_text,
                            essential_graph, format_graph_text, is_acyclic,
                            markov_equivalent, mec_of, orientation_masks,
                            parse_graph_text, shd, skeleton, skeleton_classes,
                            topological_order, topological_order_or_none,
                            undirected_from_text, v_structures)
from enumeration_reference import (dags_by_arcs, mecs_by_dag, orientations_by_arcs,
                                   parent_masks)


def test_dag_rejects_cycles():
    with pytest.raises(GraphError):
        Dag.from_arcs(3, [(0, 1), (1, 2), (2, 0)])
    with pytest.raises(GraphError):
        Dag.from_arcs(2, [(0, 1), (1, 0)])


def test_dag_rejects_bad_nodes_and_duplicates():
    with pytest.raises(GraphError):
        Dag.from_arcs(2, [(0, 2)])
    with pytest.raises(GraphError):
        Dag.from_arcs(3, [(0, 1), (0, 1)])


def test_arc_editing_returns_new_dags():
    d = Dag.from_arcs(3, [(0, 1), (1, 2)])
    r = d.reverse_arc(0, 1)
    assert r.has_arc(1, 0) and not r.has_arc(0, 1)
    assert d.has_arc(0, 1)  # original untouched
    a = d.add_arc(0, 2)
    assert a.has_arc(0, 2) and not d.has_arc(0, 2)
    m = d.remove_arc(1, 2)
    assert not m.has_arc(1, 2)
    with pytest.raises(CycleError):
        d.add_arc(2, 0)
    with pytest.raises(CycleError):
        Dag.from_arcs(3, [(0, 1), (1, 2), (0, 2)]).reverse_arc(0, 2)


def test_topological_order_respects_arcs():
    d = Dag.from_arcs(4, [(2, 0), (0, 3), (1, 3)])
    order = topological_order(d)
    pos = {v: k for k, v in enumerate(order)}
    for tail, head in d.arcs():
        assert pos[tail] < pos[head]
    assert is_acyclic(3, [(0, 1)]) and not is_acyclic(2, [(0, 1), (1, 0)])
    assert is_acyclic(0, []) and is_acyclic(2, [(0, 1), (0, 1)])
    assert not is_acyclic(2, [(1, 1)]) and not is_acyclic(4, [(0, 1), (1, 2), (2, 3), (3, 1)])


def _sorted_ready_kahn(p, arcs):
    """Kahn's algorithm that re-sorts its ready list after every step."""
    indeg = [0] * p
    children = [[] for _ in range(p)]
    for a, b in arcs:
        indeg[b] += 1
        children[a].append(b)
    order = []
    ready = sorted(i for i in range(p) if indeg[i] == 0)
    while ready:
        x = ready.pop(0)
        order.append(x)
        for y in children[x]:
            indeg[y] -= 1
            if indeg[y] == 0:
                ready.append(y)
        ready.sort()
    return order if len(order) == p else None


def test_topological_order_matches_sorted_ready_kahn():
    rng = random.Random(5)
    cyclic = 0
    for _ in range(500):
        p = rng.randint(0, 9)
        pairs = [(a, b) for a in range(p) for b in range(p) if a != b]
        arcs = rng.sample(pairs, rng.randint(0, min(len(pairs), 2 * p)))
        expected = _sorted_ready_kahn(p, arcs)
        assert topological_order_or_none(p, arcs) == expected
        cyclic += expected is None
    assert 50 < cyclic < 450


def test_skeleton_and_v_structures():
    collider = Dag.from_arcs(3, [(0, 2), (1, 2)])
    assert sorted(skeleton(collider).edges) == [(0, 2), (1, 2)]
    assert v_structures(collider) == frozenset({VStructure(2, (0, 1))})
    # shielded collider is not a v-structure
    shielded = Dag.from_arcs(3, [(0, 2), (1, 2), (0, 1)])
    assert v_structures(shielded) == frozenset()


def test_markov_equivalence_of_paths():
    chain = Dag.from_arcs(3, [(0, 1), (1, 2)])
    reverse = Dag.from_arcs(3, [(2, 1), (1, 0)])
    fork = Dag.from_arcs(3, [(1, 0), (1, 2)])
    collider = Dag.from_arcs(3, [(0, 1), (2, 1)])
    assert markov_equivalent(chain, reverse)
    assert markov_equivalent(chain, fork)
    assert not markov_equivalent(chain, collider)


def test_mec_validation():
    skel = UndirectedGraph.from_edges(3, [(0, 2), (1, 2)])
    Mec(skel, frozenset({VStructure(2, (0, 1))}))
    with pytest.raises(GraphError):
        # tails adjacent in the skeleton
        Mec(UndirectedGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)]),
            frozenset({VStructure(2, (0, 1))}))
    with pytest.raises(GraphError):
        # tail not adjacent to the collider
        Mec(UndirectedGraph.from_edges(3, [(0, 2)]),
            frozenset({VStructure(2, (0, 1))}))
    # the collider below, between and above its tails
    for collider, tails in ((0, (1, 2)), (1, (0, 2)), (2, (0, 1))):
        vs = frozenset({VStructure(collider, tails)})
        legs = [(min(collider, t), max(collider, t)) for t in tails]
        Mec(UndirectedGraph.from_edges(3, legs), vs)
        for leg in legs:
            with pytest.raises(GraphError, match="tails not adjacent to collider"):
                Mec(UndirectedGraph.from_edges(3, [e for e in legs if e != leg]), vs)
        with pytest.raises(GraphError, match="tails are adjacent"):
            Mec(UndirectedGraph.from_edges(3, legs + [tails]), vs)


def test_consistent_extension_round_trip_small():
    for p in (1, 2, 3):
        for dag in all_dags(p):
            mec = mec_of(dag)
            ext = consistent_extension(mec)
            assert ext is not None
            assert mec_of(ext) == mec


def test_consistent_extension_rejects_unrealizable():
    # square with all four corners colliders cannot be realized
    skel = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    vs = frozenset({VStructure(1, (0, 2)), VStructure(3, (0, 2)),
                    VStructure(0, (1, 3)), VStructure(2, (1, 3))})
    assert consistent_extension(Mec(skel, vs)) is None


def test_essential_graph_is_meek_closed():
    # 0 -> 1 <- 2 with extra edge 1 - 3: the collider compels 1 -> 3
    dag = Dag.from_arcs(4, [(0, 1), (2, 1), (1, 3)])
    eg = essential_graph(mec_of(dag))
    assert eg.pair_status(0, 1) == "forward"
    assert eg.pair_status(2, 1) == "forward"
    assert eg.pair_status(1, 3) == "forward"
    # fully undirected case
    chain = cpdag_of_dag(Dag.from_arcs(3, [(0, 1), (1, 2)]))
    assert chain.pair_status(0, 1) == "undirected"
    assert chain.pair_status(1, 2) == "undirected"
    assert chain.pair_status(0, 2) == "absent"


def test_shd_counts_pair_status_mismatches():
    chain = mec_of(Dag.from_arcs(3, [(0, 1), (1, 2)]))
    collider = mec_of(Dag.from_arcs(3, [(0, 1), (2, 1)]))
    empty = mec_of(Dag.from_arcs(3, []))
    assert shd(chain, chain) == 0
    assert shd(chain, collider) == 2
    assert shd(chain, empty) == 2
    with pytest.raises(GraphError):
        shd(chain, mec_of(Dag.from_arcs(2, [])))


def test_graph_text_round_trip():
    text = format_graph_text(4, arcs=[(0, 1)], edges=[(2, 3)])
    p, arcs, edges = parse_graph_text(text)
    assert (p, arcs, edges) == (4, [(0, 1)], [(2, 3)])
    dag = dag_from_text("p 3\n0 -> 1\n2 -> 1\n")
    assert dag.has_arc(0, 1) and dag.has_arc(2, 1)
    und = undirected_from_text("p 3\n0 -- 1\n")
    assert und.has_edge(0, 1)
    with pytest.raises(GraphError):
        parse_graph_text("no header")
    with pytest.raises(GraphError):
        parse_graph_text("p 2\n0 -> 0\n")


def test_exhaustive_counts():
    assert [sum(1 for _ in all_dags(p)) for p in (1, 2, 3, 4, 5)] == [1, 3, 25, 543, 29281]
    assert [len(all_mecs(p)) for p in (1, 2, 3, 4, 5)] == [1, 2, 11, 185, 8782]
    assert cli._P5_CLASSES == 8782  # the count the --p 5 rejection quotes


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_enumeration_matches_the_dag_by_dag_reference(p):
    dags = dags_by_arcs(p)
    assert list(all_dags(p)) == dags
    assert all_mecs(p) == mecs_by_dag(dags)


@pytest.mark.parametrize("edges", [
    [], [(0, 1)], [(0, 1), (1, 2), (0, 2)], [(0, 1), (1, 2), (2, 3), (0, 3)],
    list(itertools.combinations(range(4), 2)), [(0, 2), (1, 3), (2, 4), (3, 4), (0, 4)]])
def test_acyclic_orientations_match_the_reference(edges):
    g = UndirectedGraph.from_edges(5, edges)
    dags = list(acyclic_orientations(g))
    assert dags == orientations_by_arcs(g)
    assert [parent_masks(dag) for dag in dags] == list(orientation_masks(g))
    assert [mec for mec, _ in skeleton_classes(g)] == mecs_by_dag(dags)
    for mec, masks in skeleton_classes(g):
        assert mec_of(Dag(5, tuple(frozenset(k for k in range(5) if m >> k & 1)
                                   for m in masks))) == mec


def test_undirected_graph_shape_predicates():
    path = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    cycle = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    assert path.is_tree() and not path.is_single_cycle()
    assert cycle.is_single_cycle() and not cycle.is_tree()
    assert path.is_connected()
    assert not UndirectedGraph.from_edges(4, [(0, 1)]).is_connected()
    assert sorted(cycle.neighbors(0)) == [1, 3]
    assert cycle.degree(0) == 2
    assert cycle.neighbor_masks == (0b1010, 0b0101, 0b1010, 0b0101)
    assert UndirectedGraph(0, frozenset()).is_connected()
    assert UndirectedGraph(1, frozenset()).is_connected()
    assert not UndirectedGraph(2, frozenset()).is_connected()


def _assert_matches_the_set_reference(mec):
    """The extension (None included) and, for a realizable class, the
    essential graph equal the set-based reference's."""
    ext = consistent_extension(mec)
    assert ext == graphs_reference.consistent_extension(mec)
    if ext is None:
        with pytest.raises(GraphError):
            essential_graph(mec)
    else:
        assert mec_of(ext) == mec
        assert essential_graph(mec) == graphs_reference.essential_graph(mec)
    return ext


def test_extension_and_closure_match_the_set_reference_on_every_class_up_to_p5():
    for p in range(1, 6):
        for mec, _ in all_classes(p):
            assert _assert_matches_the_set_reference(mec) is not None


def test_extension_and_closure_match_the_set_reference_on_random_patterns():
    """Random skeletons on 3-9 nodes, each unshielded triple a v-structure
    with probability 0.2; about half of these patterns are unrealizable."""
    rng = random.Random(11)
    unrealizable = 0
    for _ in range(20_000):
        p = rng.randint(3, 9)
        skel = UndirectedGraph.from_edges(
            p, [e for e in itertools.combinations(range(p), 2) if rng.random() < 0.5])
        triples = [VStructure(c, (a, b)) for c in range(p)
                   for a, b in itertools.combinations(sorted(skel.neighbors(c)), 2)
                   if not skel.has_edge(a, b)]
        mec = Mec(skel, frozenset(t for t in triples if rng.random() < 0.2))
        unrealizable += _assert_matches_the_set_reference(mec) is None
    assert 8_000 < unrealizable < 12_000


@st.composite
def _dags_up_to_12(draw):
    p = draw(st.integers(1, 12))
    order = draw(st.permutations(range(p)))
    pairs = list(itertools.combinations(range(p), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Dag.from_arcs(p, [(order[a], order[b]) for (a, b), k in zip(pairs, keep) if k])


@settings(max_examples=300)
@given(_dags_up_to_12())
def test_extension_and_closure_match_the_set_reference_on_drawn_dags(dag):
    assert _assert_matches_the_set_reference(mec_of(dag)) is not None
