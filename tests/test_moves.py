"""Moves between classes: kinds, deltas, application, enumeration."""

import itertools
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cimwalk import moves as moves_mod
from cimwalk.graphs import (Dag, GraphError, Mec, UndirectedGraph, VStructure,
                            all_mecs, consistent_extension, mec_of)
from cimwalk.imset import (CharImset, ImsetError, full_imset, imset_delta,
                           key_of, mec_restricted_imset, recover_mec)
from cimwalk.moves import (BUDDING, EDGE_PAIR, FLIP, MARKOV_EQUIVALENT,
                           SHIFT, SPLIT, V_STRUCTURE_ADDITION, Move,
                           MoveError, _admissible, _raw_edge_candidates,
                           _raw_tree_candidates, _raw_turn_candidates,
                           add_edge_delta, apply_move,
                           enumerate_edge_moves, enumerate_tree_moves,
                           enumerate_turn_moves, representative,
                           turn_edge_delta, verify_pair)
from imset_reference import family, imset_entry, tuple_keys


def test_markov_equivalent_reversal_has_empty_delta():
    chain = Dag.from_arcs(3, [(0, 1), (1, 2)])
    move = turn_edge_delta(chain, 0, 1)
    assert move.kind == MARKOV_EQUIVALENT
    assert move.added == frozenset() and move.removed == frozenset()


def test_v_structure_addition_delta():
    chain = Dag.from_arcs(3, [(0, 1), (1, 2)])
    # reversing 1 -> 2 creates the collider at 1
    move = turn_edge_delta(chain, 1, 2)
    assert move.kind == V_STRUCTURE_ADDITION
    assert tuple_keys(move.added) == frozenset({(0, 1, 2)})
    assert move.removed == frozenset()


def test_budding_delta():
    # i = 0 with parents {1, 2} adjacent pair, head j = 3
    dag = Dag.from_arcs(4, [(1, 0), (2, 0), (1, 2), (0, 3)])
    move = turn_edge_delta(dag, 0, 3)
    assert move.kind == BUDDING
    assert tuple_keys(move.added) == frozenset({(0, 1, 3), (0, 2, 3), (0, 1, 2, 3)})
    assert move.removed == frozenset()


def test_flip_delta_swaps_families():
    # pa(i) and pa(j) - {i} incomparable: i=1 has parent 0, j=2 has parent 3
    dag = Dag.from_arcs(4, [(0, 1), (1, 2), (3, 2)])
    move = turn_edge_delta(dag, 1, 2)
    assert move.kind == FLIP
    assert tuple_keys(move.added) == frozenset({(0, 1, 2)})
    assert tuple_keys(move.removed) == frozenset({(1, 2, 3)})


def test_turn_delta_matches_brute_force():
    dag = Dag.from_arcs(4, [(1, 0), (2, 0), (1, 2), (0, 3)])
    move = turn_edge_delta(dag, 0, 3)
    added, removed = imset_delta(full_imset(dag), full_imset(dag.reverse_arc(0, 3)))
    assert (move.added, move.removed) == (added, removed)


def test_add_edge_delta_matches_brute_force():
    dag = Dag.from_arcs(4, [(0, 2), (1, 2)])
    move = add_edge_delta(dag, 3, 2)
    added, removed = imset_delta(full_imset(dag), full_imset(dag.add_arc(3, 2)))
    assert move.kind == EDGE_PAIR
    assert (move.added, move.removed) == (added, removed)
    assert removed == frozenset()


def test_delta_preconditions():
    dag = Dag.from_arcs(3, [(0, 1)])
    with pytest.raises(GraphError):
        turn_edge_delta(dag, 1, 0)  # no such arc
    with pytest.raises(GraphError):
        add_edge_delta(dag, 0, 1)  # already adjacent


def test_apply_move_and_inverse_round_trip():
    source = mec_of(Dag.from_arcs(3, [(0, 1), (1, 2)]))
    for move, target in enumerate_turn_moves(source):
        back = apply_move(target, move.inverse())
        assert back == source


def test_apply_move_rejects_clashing_delta():
    source = mec_of(Dag.from_arcs(3, []))
    bogus = Move(EDGE_PAIR, (0, 1, ()), frozenset(), frozenset({key_of((0, 1))}))
    with pytest.raises(MoveError):
        apply_move(source, bogus)  # removes an entry that is absent


def _apply_from_scratch(mec, move):
    """The reference materialisation: edit the source's restricted imset,
    rebuild the whole target with recover_mec and check that the target's
    own restricted imset is the edited one."""
    base = set(mec_restricted_imset(mec).ones)
    for key in move.added:
        if key.bit_count() > 3:
            continue
        if key in base:
            raise MoveError(f"added entry {key} already present")
        base.add(key)
    for key in move.removed:
        if key.bit_count() > 3:
            continue
        if key not in base:
            raise MoveError(f"removed entry {key} not present")
        base.remove(key)
    try:
        target = recover_mec(CharImset(mec.p, frozenset(base), restricted=True))
    except ImsetError as exc:
        raise MoveError(str(exc)) from exc
    if mec_restricted_imset(target).ones != frozenset(base):
        raise MoveError("updated entries are inconsistent")
    if consistent_extension(target) is None:
        raise MoveError("target class is not realizable")
    return target


def _outcome(apply, mec, move):
    try:
        return apply(mec, move)
    except MoveError:
        return None


def _raw_candidates(mec, cap=None):
    yield from _raw_turn_candidates(mec, cap)
    yield from _raw_edge_candidates(mec, cap)
    if mec.skeleton.is_tree() or mec.skeleton.is_single_cycle():
        yield from _raw_tree_candidates(mec)


def _small(keys):
    return {k for k in keys if k.bit_count() <= 3}


def _check_against_from_scratch(mec, move) -> list:
    """Apply move and its inverse to mec, and the inverse to an accepted
    target; each must agree with the reference.  Returns the outcomes."""
    outcomes = []
    for source, m in ((mec, move), (mec, move.inverse()), (None, move.inverse())):
        if source is None:
            source = outcomes[0]
            if source is None:
                continue
        target = _outcome(apply_move, source, m)
        assert target == _outcome(_apply_from_scratch, source, m), (source, m)
        if target is not None:
            edited = (mec_restricted_imset(source).ones | _small(m.added)) - _small(m.removed)
            assert mec_restricted_imset(target).ones == edited
        outcomes.append(target)
    return outcomes


def test_apply_move_matches_from_scratch_rebuild_on_all_small_classes():
    accepted = rejected = 0
    for p in (2, 3, 4):
        for mec in all_mecs(p):
            for move in _raw_candidates(mec):
                for target in _check_against_from_scratch(mec, move):
                    accepted += target is not None
                    rejected += target is None
    # every raw candidate and its inverse from the source, plus the inverse
    # from each accepted target
    assert accepted > 1000 and rejected > 1000


def test_apply_move_matches_from_scratch_rebuild_on_multi_pair_deltas():
    empty = mec_of(Dag.from_arcs(3, []))
    collider = mec_of(Dag.from_arcs(3, [(1, 0), (2, 0)]))
    def keys(*subsets):
        return frozenset(map(key_of, subsets))

    triangle = keys((0, 1), (0, 2), (1, 2))
    cases = [
        # a whole triangle of new edges without its size-3 entry
        (empty, Move(EDGE_PAIR, (), triangle, frozenset()), None),
        (empty, Move(EDGE_PAIR, (), triangle | keys((0, 1, 2)), frozenset()),
         mec_of(Dag.from_arcs(3, [(0, 1), (0, 2), (1, 2)]))),
        # both edges of a v-structure removed but its entry kept
        (collider, Move(EDGE_PAIR, (), frozenset(), keys((0, 1), (0, 2))), None),
        (collider, Move(EDGE_PAIR, (), frozenset(), keys((0, 1), (0, 2), (0, 1, 2))),
         empty),
        # an entry both added and removed cancels out
        (empty, Move(EDGE_PAIR, (), keys((0, 1)), keys((0, 1))), empty),
    ]
    for mec, move, expected in cases:
        assert _check_against_from_scratch(mec, move)[0] == expected


@st.composite
def _random_classes(draw):
    p = draw(st.integers(3, 8))
    order = draw(st.permutations(range(p)))
    pairs = list(itertools.combinations(range(p), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    arcs = [(order[a], order[b]) for (a, b), k in zip(pairs, keep) if k]
    return mec_of(Dag.from_arcs(p, arcs))


@settings(max_examples=40)
@given(_random_classes())
def test_apply_move_matches_from_scratch_rebuild_on_random_classes(mec):
    for move in _raw_candidates(mec, cap=2):
        _check_against_from_scratch(mec, move)


def test_verify_pair_detects_wrong_delta():
    source = mec_of(Dag.from_arcs(2, []))
    moves = enumerate_edge_moves(source)
    assert len(moves) == 1
    move, target = moves[0]
    assert tuple_keys(move.added) == frozenset({(0, 1)}) and move.removed == frozenset()
    assert verify_pair(source, target, move)
    assert not verify_pair(source, target, move.inverse())


def _full_verify_pair(source, target, move):
    """The reference check: the delta between full imsets rebuilt from the
    representatives of both classes."""
    added, removed = imset_delta(full_imset(representative(source)),
                                 full_imset(representative(target)))
    return added == move.added and removed == move.removed


def _verify_against_full_imsets(mec, cap=None):
    """Check verify_pair against the reference on every raw candidate of
    mec that apply_move accepts; returns (checked, rejected)."""
    checked = rejected = 0
    for move in _raw_candidates(mec, cap):
        target = _outcome(apply_move, mec, move)
        if target is None:
            continue
        full = _full_verify_pair(mec, target, move)
        assert verify_pair(mec, target, move) == full, (mec, move)
        checked += 1
        rejected += not full
    return checked, rejected


def test_verify_pair_agrees_with_full_imsets_on_all_small_classes():
    counts = [_verify_against_full_imsets(mec) for p in (2, 3, 4) for mec in all_mecs(p)]
    assert tuple(map(sum, zip(*counts))) == (3448, 312)


@settings(max_examples=30)
@given(_random_classes())
def test_verify_pair_agrees_with_full_imsets_on_random_classes(mec):
    _verify_against_full_imsets(mec, cap=2)


def test_path3_turn_moves():
    no_collider = mec_of(Dag.from_arcs(3, [(0, 1), (1, 2)]))
    collider = mec_of(Dag.from_arcs(3, [(0, 1), (2, 1)]))
    moves = enumerate_turn_moves(no_collider)
    assert len(moves) == 1
    move, target = moves[0]
    assert move.kind == V_STRUCTURE_ADDITION and target == collider
    back = enumerate_turn_moves(collider)
    assert len(back) == 1 and back[0][1] == no_collider


def test_turn_moves_preserve_skeleton():
    for mec in all_mecs(3):
        for move, target in enumerate_turn_moves(mec):
            assert target.skeleton == mec.skeleton


def test_edge_moves_change_one_edge():
    for mec in all_mecs(3):
        n = len(mec.skeleton.edges)
        for move, target in enumerate_edge_moves(mec):
            assert abs(len(target.skeleton.edges) - n) == 1


def test_path4_tree_moves_shift():
    # colliders at the two interior nodes of a 4-path exchange via a shift
    at_1 = mec_of(Dag.from_arcs(4, [(0, 1), (2, 1), (2, 3)]))
    at_2 = mec_of(Dag.from_arcs(4, [(0, 1), (1, 2), (3, 2)]))
    moves = enumerate_tree_moves(at_1)
    targets = {t for _, t in moves}
    assert at_2 in targets
    kinds = {m.kind for m, t in moves if t == at_2}
    assert SHIFT in kinds


def test_cycle5_tree_moves_split():
    # one collider on a 5-cycle splits into two along the walk through it
    one = mec_of(Dag.from_arcs(5, [(0, 1), (1, 2), (3, 2), (3, 4), (4, 0)]))
    two = mec_of(Dag.from_arcs(5, [(0, 1), (2, 1), (2, 3), (4, 3), (0, 4)]))
    splits = [(m, t) for m, t in enumerate_tree_moves(one) if m.kind == SPLIT]
    match = [m for m, t in splits if t == two]
    assert match
    assert tuple_keys(match[0].added) == frozenset({(0, 1, 2), (2, 3, 4)})
    assert tuple_keys(match[0].removed) == frozenset({(1, 2, 3)})


def test_enumeration_is_deterministic():
    mec = mec_of(Dag.from_arcs(4, [(0, 1), (1, 2), (2, 3)]))
    first = [(m.kind, m.params, m.added, m.removed)
             for m, _ in enumerate_turn_moves(mec) + enumerate_edge_moves(mec)]
    second = [(m.kind, m.params, m.added, m.removed)
              for m, _ in enumerate_turn_moves(mec) + enumerate_edge_moves(mec)]
    assert first == second


def test_verified_filters_each_distinct_delta_once_before_materialising(monkeypatch):
    mec = mec_of(Dag.from_arcs(4, [(0, 1), (1, 2), (2, 3)]))
    raw = list(_raw_edge_candidates(mec, None))
    distinct = list(dict.fromkeys((m.added, m.removed) for m in raw))
    assert len(distinct) < len(raw)
    unfiltered = list(moves_mod._verified(mec, iter(raw)))
    offered, applied = [], []

    def keep(move):
        offered.append((move.added, move.removed))
        return len(offered) % 2 == 0

    def counting(source, move):
        applied.append((move.added, move.removed))
        return apply_move(source, move)

    monkeypatch.setattr(moves_mod, "apply_move", counting)
    kept = list(moves_mod._verified(mec, iter(raw), keep))
    assert offered == distinct
    assert applied == distinct[1::2]
    assert kept == [(m, t) for m, t in unfiltered if (m.added, m.removed) in applied]


def test_move_json_round_trip():
    mec = mec_of(Dag.from_arcs(3, [(0, 1), (1, 2)]))
    move, _ = enumerate_turn_moves(mec)[0]
    obj = move.to_json()
    assert obj["kind"] == move.kind
    assert obj["added"] == sorted(list(k) for k in tuple_keys(move.added))


def test_representative_requires_realizable_class():
    for mec in all_mecs(3):
        rep = representative(mec)
        assert mec_of(rep) == mec
    # colliders at both interior positions of one path force 1 -> 2 and 2 -> 1
    skel = UndirectedGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    vs = frozenset({VStructure(1, (0, 2)), VStructure(2, (1, 3))})
    with pytest.raises(MoveError):
        representative(Mec(skel, vs))


def _admissible_tuples(mec, i, cap):
    """The admissible families grown on sorted tuples with the tuple entry
    rule (the reference for _admissible), in (size, lex) order."""
    rep = representative(mec)
    nbrs = sorted(mec.skeleton.neighbors(i))
    out = [(k,) for k in nbrs]
    level = out[:]
    size = 1
    while level and (cap is None or size < cap):
        size += 1
        valid = set(out)
        level = [t + (k,) for t in level for k in nbrs if k > t[-1]
                 and all(tuple(x for x in t + (k,) if x != y) in valid for y in t + (k,))
                 and imset_entry(rep, t + (k, i)) == 1]
        out.extend(level)
    return out


def _family(s_star, i, j, excluded_nbrs):
    return family(s_star, (i, j), 1) - family(excluded_nbrs.intersection(s_star), (i, j), 1)


def _turn_candidates_unhoisted(mec, cap):
    """The turn sweep on sorted tuples with the tuple entry rule, which
    rebuilds the lost family for every S_i (the reference for the hoisted
    mask generator): the same moves in the same order, as (kind, params,
    added, removed) with the keys as sorted tuples."""
    c = partial(imset_entry, representative(mec))
    ne = [mec.skeleton.neighbors(i) for i in range(mec.p)]
    for i in range(mec.p):
        for j in sorted(ne[i]):
            s_i_list = [()] + [t for t in _admissible_tuples(mec, i, cap) if j not in t]
            s_j_list = [()] + [t for t in _admissible_tuples(mec, j, cap) if i not in t]
            for s_i in s_i_list:
                if s_i and set(s_i) <= ne[j]:
                    continue
                plus = _family(s_i, i, j, ne[j]) if s_i else frozenset()
                if any(c(k) for k in plus):
                    continue
                for s_j in s_j_list:
                    if not s_i and not s_j:
                        continue
                    if s_j and set(s_j) <= ne[i]:
                        continue
                    minus = _family(s_j, j, i, ne[i]) if s_j else frozenset()
                    if any(not c(k) for k in minus):
                        continue
                    if s_i and s_j:
                        yield FLIP, (i, j, s_i, s_j), plus, minus
                    elif s_i:
                        if len(s_i) == 1:
                            yield V_STRUCTURE_ADDITION, (next(iter(plus)),), plus, minus
                        else:
                            yield BUDDING, (i, j, s_i), plus, minus
                    elif len(s_j) == 1:
                        yield V_STRUCTURE_ADDITION, (next(iter(minus)),), plus, minus
                    else:
                        yield BUDDING, (j, i, s_j), plus, minus


def _turn_candidates(mec, cap):
    return [(m.kind, m.params, tuple_keys(m.added), tuple_keys(m.removed))
            for m in _raw_turn_candidates(mec, cap)]


def test_turn_candidates_match_the_unhoisted_sweep_on_all_small_classes():
    for p in (2, 3, 4):
        for mec in all_mecs(p):
            for cap in (None, 1, 2):
                assert (_turn_candidates(mec, cap)
                        == list(_turn_candidates_unhoisted(mec, cap))), (mec, cap)
                assert ([tuple_keys([t]) for t in _admissible(mec, 0, cap)]
                        == [frozenset([t]) for t in _admissible_tuples(mec, 0, cap)])


@settings(max_examples=40)
@given(_random_classes())
def test_turn_candidates_match_the_unhoisted_sweep_on_random_classes(mec):
    for cap in (None, 2):
        assert _turn_candidates(mec, cap) == list(_turn_candidates_unhoisted(mec, cap))
