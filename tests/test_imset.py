"""Characteristic imsets: construction, determination, recovery, deltas."""

import itertools
import re

import pytest

from cimwalk.graphs import Dag, all_dags, consistent_extension, mec_of
from cimwalk.imset import (CharImset, ImsetError, family, full_imset, imset_delta,
                           imset_entry, mask_entry, mec_restricted_imset,
                           recover_mec, restricted_imset, subset_key)
from cimwalk.polytope import enumerate_mecs
from cimwalk.simulate import make_rng, random_dag


def test_subset_key_sorts_and_rejects_duplicates():
    assert subset_key((2, 0, 1)) == (0, 1, 2)
    with pytest.raises(ValueError):
        subset_key((0, 0))
    with pytest.raises(ValueError):
        subset_key((3,))


def test_empty_graph_imset_is_zero():
    im = full_imset(Dag.from_arcs(4, []))
    assert im.ones == frozenset()
    assert imset_entry(Dag.from_arcs(4, []), (0, 1)) == 0


def test_complete_dag_imset_is_all_ones():
    dag = Dag.from_arcs(3, [(0, 1), (0, 2), (1, 2)])
    im = full_imset(dag)
    expected = set()
    for r in (2, 3):
        for sub in itertools.combinations(range(3), r):
            expected.add(sub)
    assert im.ones == frozenset(expected)


def test_collider_imset_entries():
    dag = Dag.from_arcs(3, [(0, 2), (1, 2)])
    im = full_imset(dag)
    assert im.ones == frozenset({(0, 2), (1, 2), (0, 1, 2)})
    assert im.entry((0, 1)) == 0
    assert im.entry((0, 1, 2)) == 1


def test_imsets_are_class_invariants():
    for p in (2, 3):
        for dag in all_dags(p):
            mec = mec_of(dag)
            assert full_imset(dag) == full_imset(consistent_extension(mec))


def test_mask_entry_is_imset_entry_on_bitmasks():
    for p in (2, 3, 4):
        for dag in all_dags(p):
            parents = tuple(sum(1 << k for k in pa) for pa in dag.parents)
            for size in range(2, p + 1):
                for key in itertools.combinations(range(p), size):
                    mask = sum(1 << v for v in key)
                    assert mask_entry(parents, mask) == imset_entry(dag, key)


def test_family_lists_every_subset_joined_with_extra():
    assert family((3, 1), (2,)) == {(2,), (1, 2), (2, 3), (1, 2, 3)}
    assert family((3, 1), (0, 2), 1) == {(0, 1, 2), (0, 2, 3), (0, 1, 2, 3)}
    assert family((), (4, 0)) == {(0, 4)} and family((), (4,), 1) == frozenset()


def test_full_imset_has_no_size_limit():
    dag = Dag.from_arcs(20, [(k, 19) for k in range(3)])
    assert full_imset(dag).ones == family((0, 1, 2), (19,), 1)


def test_two_three_sets_determine_the_class():
    # restricted imsets agree exactly when full imsets agree
    dags = list(all_dags(3))
    for a in dags:
        for b in dags:
            restricted_equal = restricted_imset(a) == restricted_imset(b)
            full_equal = full_imset(a) == full_imset(b)
            assert restricted_equal == full_equal


def test_recover_mec_round_trip():
    for p in (2, 3, 4):
        seen = set()
        for dag in all_dags(p):
            mec = mec_of(dag)
            if mec in seen:
                continue
            seen.add(mec)
            assert recover_mec(mec_restricted_imset(mec)) == mec


def test_recover_mec_rejects_non_imsets():
    # {0,1,2} set without any size-2 support cannot come from a DAG
    with pytest.raises(ImsetError):
        recover_mec(CharImset(3, frozenset({(0, 1, 2)}), restricted=True))


def test_imset_delta_directions():
    empty = full_imset(Dag.from_arcs(2, []))
    one = full_imset(Dag.from_arcs(2, [(0, 1)]))
    added, removed = imset_delta(empty, one)
    assert added == frozenset({(0, 1)}) and removed == frozenset()
    added, removed = imset_delta(one, empty)
    assert added == frozenset() and removed == frozenset({(0, 1)})


def test_json_round_trip():
    dag = Dag.from_arcs(3, [(0, 2), (1, 2)])
    im = full_imset(dag)
    again = CharImset.from_json(im.to_json())
    assert again == im


def _oracle_restricted_imset(mec):
    # Scan every triple of nodes, as the triangle enumeration must agree.
    ones = set(mec.skeleton.edges)
    for a, b, c in itertools.combinations(range(mec.p), 3):
        if all(mec.skeleton.has_edge(*pair) for pair in ((a, b), (a, c), (b, c))):
            ones.add((a, b, c))
    ones.update(vs.nodes() for vs in mec.vstructs)
    return CharImset(mec.p, frozenset(ones), restricted=True)


def _oracle_first_unmarked_triangle(imset):
    edges = {k for k in imset.ones if len(k) == 2}
    for a, b, c in itertools.combinations(range(imset.p), 3):
        if {(a, b), (a, c), (b, c)} <= edges and (a, b, c) not in imset.ones:
            return (a, b, c)
    return None


def _triangle_scan_classes():
    classes = list(enumerate_mecs(4).mecs)
    rng = make_rng(2024)
    for _ in range(60):
        p = int(rng.integers(3, 9))
        classes.append(mec_of(random_dag(p, float(rng.uniform(1.0, p - 1)), rng)))
    return classes


def test_triangle_scans_match_all_triples_oracle():
    classes = _triangle_scan_classes()
    assert len(classes) == 185 + 60
    rng = make_rng(5)
    unmarked_checked = 0
    for mec in classes:
        imset = mec_restricted_imset(mec)
        assert imset == _oracle_restricted_imset(mec)
        assert recover_mec(imset) == mec
        # Zero out a random subset of the class's triangle entries: the
        # scan must reject the lexicographically first of them.
        triangles = sorted(k for k in imset.ones if len(k) == 3
                           and all(pair in imset.ones for pair in
                                   itertools.combinations(k, 2)))
        if not triangles:
            continue
        keep = rng.random(len(triangles)) < 0.5
        dropped = [t for t, kept in zip(triangles, keep) if not kept] or triangles[-1:]
        broken = CharImset(mec.p, imset.ones - frozenset(dropped), restricted=True)
        first = _oracle_first_unmarked_triangle(broken)
        assert first == min(dropped)
        with pytest.raises(ImsetError, match=re.escape(f"complete triangle {first} ")):
            recover_mec(broken)
        unmarked_checked += 1
    assert unmarked_checked > 50


def test_imset_entry_range_check():
    dag = Dag.from_arcs(3, [(0, 2), (1, 2)])
    assert imset_entry(dag, (2, 0, 1)) == 1
    with pytest.raises(ImsetError):
        imset_entry(dag, (1, 3))
    with pytest.raises(ImsetError):
        imset_entry(dag, (-1, 2))
