"""Property tests on random DAGs with up to seven nodes: move deltas against
imsets built by their definition, consistent extensions against their class,
and score deltas against full rescoring."""

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cimwalk.graphs import (CycleError, Dag, consistent_extension, mec_of, skeleton,
                            v_structures)
from cimwalk.moves import (add_edge_delta, enumerate_edge_moves, enumerate_turn_moves,
                           turn_edge_delta)
from cimwalk.scoring import SufficientStats, score_delta, score_mec
from imset_reference import tuple_keys


@st.composite
def _dags(draw, least=2):
    p = draw(st.integers(least, 7))
    order = draw(st.permutations(range(p)))
    pairs = list(itertools.combinations(range(p), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Dag.from_arcs(p, [(order[a], order[b]) for (a, b), k in zip(pairs, keep) if k])


def _imset_by_definition(dag):
    """The sets S with |S| >= 2 that hold a node i with S - {i} within pa(i)."""
    return {s for size in range(2, dag.p + 1) for s in itertools.combinations(range(dag.p), size)
            if any(set(s) - {i} <= dag.parents[i] for i in s)}


def _delta(before, after):
    a, b = _imset_by_definition(before), _imset_by_definition(after)
    return b - a, a - b


@settings(max_examples=60)
@given(_dags())
def test_turn_edge_delta_matches_imsets_by_definition(dag):
    for i, j in dag.arcs():
        try:
            after = dag.reverse_arc(i, j)
        except CycleError:
            continue
        move = turn_edge_delta(dag, i, j)
        assert ((tuple_keys(move.added), tuple_keys(move.removed))
                == _delta(dag, after)), (dag, i, j)


@settings(max_examples=60)
@given(_dags())
def test_add_edge_delta_matches_imsets_by_definition(dag):
    for tail, head in itertools.permutations(range(dag.p), 2):
        if dag.adjacent(tail, head):
            continue
        try:
            after = dag.add_arc(tail, head)
        except CycleError:
            continue
        move = add_edge_delta(dag, tail, head)
        assert ((tuple_keys(move.added), tuple_keys(move.removed))
                == _delta(dag, after)), (dag, tail, head)
        assert not move.removed


@settings(max_examples=100)
@given(_dags())
def test_consistent_extension_realises_the_class(dag):
    mec = mec_of(dag)
    ext = consistent_extension(mec)
    assert isinstance(ext, Dag)  # a Dag is acyclic by construction
    assert skeleton(ext) == mec.skeleton
    assert v_structures(ext) == mec.vstructs


@settings(max_examples=40)
@given(_dags(least=3), st.integers(0, 2**32 - 1))
def test_score_delta_equals_full_rescoring(dag, seed):
    data = np.random.default_rng(seed).normal(size=(60, dag.p))
    stats = SufficientStats.from_data(data)
    source = mec_of(dag)
    before = score_mec(source, stats)
    for move, target in enumerate_turn_moves(source) + enumerate_edge_moves(source):
        after = score_mec(target, stats)
        got = score_delta(source, move, stats)
        assert abs(got - (after - before)) <= 1e-9 * max(abs(before), abs(after)), move
