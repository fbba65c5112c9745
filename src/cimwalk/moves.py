"""Moves between Markov equivalence classes, seen as steps between imsets.

A move records the signed difference between the characteristic imsets of
two classes: `added` entries flip 0 -> 1 and `removed` entries flip 1 -> 0
when walking from the source class to the target.  Move kinds:

  v_structure_addition  single size-3 entry, same skeleton
  budding               one-sided family over a pair {i, j}, same skeleton
  flip                  two-sided family over a pair {i, j}, same skeleton
  edge_pair             skeletons differ in exactly one edge
  shift / split         v-structures traded along a path (trees and cycles)

Enumerators emit only verified moves: the claimed delta is checked on the
only entries that can differ, the parent-set families of the nodes whose
parents differ between representative DAGs of the two endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Iterator, Optional

from .graphs import Dag, GraphError, Mec, UndirectedGraph, _bits, consistent_extension
# recover_mec stays importable here for perfbench's tracer
from .imset import (ImsetError, family, full_imset, key_of, mask_entry,
                    mec_restricted_imset, nodes_of, recover_mec, triple_vstructure)

MARKOV_EQUIVALENT = "markov_equivalent"
V_STRUCTURE_ADDITION = "v_structure_addition"
BUDDING = "budding"
FLIP = "flip"
EDGE_PAIR = "edge_pair"
SHIFT = "shift"
SPLIT = "split"

TURN_KINDS = (V_STRUCTURE_ADDITION, BUDDING, FLIP)


class MoveError(ValueError):
    """Raised when a claimed move is not realizable as a step between classes."""


@dataclass(frozen=True)
class Move:
    """A signed imset delta (sets of subset keys) relative to a source
    class, with a kind label and node-tuple parameters."""

    kind: str
    params: tuple
    added: frozenset
    removed: frozenset

    def inverse(self) -> "Move":
        return Move(self.kind, self.params, self.removed, self.added)

    def to_json(self) -> dict:
        def enc(x):
            if isinstance(x, (tuple, frozenset)):
                return [enc(v) for v in (sorted(x) if isinstance(x, frozenset) else x)]
            return x

        return {
            "kind": self.kind,
            "params": enc(self.params),
            "added": sorted(list(nodes_of(k)) for k in self.added),
            "removed": sorted(list(nodes_of(k)) for k in self.removed),
        }


def representative(mec: Mec) -> Dag:
    # One consistent extension per class, cached by consistent_extension; a
    # Dag is immutable, so it is shared.
    dag = consistent_extension(mec)
    if dag is None:
        raise MoveError("class is not realizable by any DAG")
    return dag


@lru_cache(maxsize=65_536)
def _class_imset(mec: Mec):
    """The class's full imset, built once from its representative DAG."""
    return full_imset(representative(mec))


# ---------------------------------------------------------------------------
# Single-arc operations on DAGs


def turn_edge_delta(dag: Dag, i: int, j: int) -> Move:
    """Classify the reversal of arc i -> j as a move between the two classes.

    The delta is built from the two parent-set families
    A+ = {S + {i,j} : S within pa(i)} and A- = {S + {i,j} : S within pa(j)-{i}};
    entries in A+ only are gained and entries in A- only are lost.  The kind
    follows from how pa(i) and pa(j)-{i} relate: equal parent sets give a
    Markov-equivalent reversal, incomparable ones a flip, and nested ones a
    budding (or a v-structure addition when the larger side is a singleton).
    """
    if not dag.has_arc(i, j):
        raise GraphError(f"no arc {(i, j)}")
    dag.reverse_arc(i, j)  # raises CycleError when the reversal is cyclic
    ij = 1 << i | 1 << j
    pa_i = dag.parent_masks[i]
    pa_j = dag.parent_masks[j] & ~(1 << i)
    a_plus = family(pa_i, ij)
    a_minus = family(pa_j, ij)
    added = a_plus - a_minus
    removed = a_minus - a_plus

    if pa_i == pa_j:
        return Move(MARKOV_EQUIVALENT, (i, j), frozenset(), frozenset())
    if pa_i & ~pa_j and pa_j & ~pa_i:
        return Move(FLIP, (i, j, nodes_of(pa_i), nodes_of(pa_j)), added, removed)
    # nested parent sets; when pa_i < pa_j the reversed graph is the sparse side
    a, b, pa = (i, j, pa_i) if not pa_j & ~pa_i else (j, i, pa_j)
    if pa.bit_count() >= 2:
        return Move(BUDDING, (a, b, nodes_of(pa)), added, removed)
    return Move(V_STRUCTURE_ADDITION, (nodes_of(ij | pa),), added, removed)


def add_edge_delta(dag: Dag, tail: int, head: int) -> Move:
    """The move realized by adding arc tail -> head between non-adjacent nodes.

    Every subset of pa(head) joined with {tail, head} flips from 0 to 1;
    nothing is removed.
    """
    if dag.adjacent(tail, head):
        raise GraphError(f"nodes {tail},{head} already adjacent")
    dag.add_arc(tail, head)  # raises CycleError when the addition is cyclic
    pa = dag.parent_masks[head]
    return Move(EDGE_PAIR, (head, tail, nodes_of(pa)), family(pa, 1 << tail | 1 << head),
                frozenset())


# ---------------------------------------------------------------------------
# Applying and verifying moves on classes


def apply_move(mec: Mec, move: Move) -> Mec:
    """Apply a move's delta to a class and return the target class.

    Only size-2/3 entries matter, and only on the triples the delta touches:
    its size-3 keys and every triple holding one of its pairs.  Those are
    re-classified from their new entry and edges; every other v-structure of
    the source carries over.  Raises MoveError when the delta clashes with
    the current entries, the updated entries are impossible for any DAG, or
    the resulting class is not realizable.
    """
    base = mec_restricted_imset(mec).ones
    added = {k for k in move.added if k.bit_count() <= 3}
    removed = {k for k in move.removed if k.bit_count() <= 3}
    for key in added:
        if key in base:
            raise MoveError(f"added entry {nodes_of(key)} already present")
    for key in removed:
        if key not in base and key not in added:
            raise MoveError(f"removed entry {nodes_of(key)} not present")
    ones = base.union(added).difference(removed)
    changed = added | removed
    pairs = [k for k in changed if k.bit_count() == 2]
    touched = {k for k in changed if k.bit_count() == 3}
    skel = new_skel = mec.skeleton
    if pairs:
        new_skel = UndirectedGraph(mec.p, skel.edges.difference(map(nodes_of, pairs)).union(
            nodes_of(k) for k in pairs if k in ones))
    adj, new_adj = skel.neighbor_masks, new_skel.neighbor_masks
    for pair in pairs:
        a, b = nodes_of(pair)
        near = adj[a] | adj[b] | new_adj[a] | new_adj[b]
        touched.update(pair | 1 << c for c in _bits(near & ~pair))
    vstructs = {vs for vs in mec.vstructs if vs.mask not in touched}
    try:
        for key in touched:
            # the size-2 keys of ones are the edges of new_skel
            vs = triple_vstructure(key, ones, key in ones)
            if vs is not None:
                vstructs.add(vs)
    except ImsetError as exc:
        raise MoveError(str(exc)) from exc
    target = Mec(new_skel, frozenset(vstructs))
    if consistent_extension(target) is None:
        raise MoveError("target class is not realizable")
    return target


def verify_pair(source: Mec, target: Mec, move: Move) -> bool:
    """Check the move's delta against the representatives g and h of the
    two classes, on the nodes whose parent sets differ.

    A set S has at most one node i with S - {i} within pa(i), since two
    such nodes would be each other's parents.  So an imset is the disjoint
    union of its nodes' families {S + {i} : S within pa(i)}, the families
    of nodes with equal parents in g and h cancel, and the delta is the
    difference of the other nodes' families.
    """
    g, h = representative(source), representative(target)
    f_g, f_h = set(), set()
    for i, (pa_g, pa_h) in enumerate(zip(g.parent_masks, h.parent_masks)):
        if pa_g != pa_h:
            f_g |= family(pa_g, 1 << i, True)
            f_h |= family(pa_h, 1 << i, True)
    return f_h - f_g == move.added and f_g - f_h == move.removed


# ---------------------------------------------------------------------------
# Candidate generation

@lru_cache(maxsize=4_096)  # a walk reuses only its recent classes
def _admissible(mec: Mec, i: int, cap: Optional[int]) -> tuple:
    """Keys of the subsets T of ne(i) whose every nonempty subset S has
    entry(S+{i}) == 1.

    The family is downward closed, so it is grown level by level; returned in
    (size, lex) order of the node tuples.  `cap` bounds the subset size.
    """
    pa = representative(mec).parent_masks
    nbrs = list(_bits(mec.skeleton.neighbor_masks[i]))
    out = [1 << k for k in nbrs]
    valid = set(out)
    level = out[:]
    size = 1
    while level and (cap is None or size < cap):
        size += 1
        nxt = []
        for t in level:
            for k in nbrs:
                if t >> k:  # k is not above every node of t
                    continue
                cand = t | 1 << k
                if all(cand ^ 1 << y in valid for y in _bits(cand)):
                    if mask_entry(pa, cand | 1 << i) == 1:
                        valid.add(cand)
                        nxt.append(cand)
        out.extend(nxt)
        level = nxt
    return tuple(out)


def _family(s_star: int, ij: int, excluded_nbrs: int) -> frozenset:
    """{T | ij : nonempty T within s_star, T not within excluded_nbrs}."""
    return family(s_star, ij, True) - family(s_star & excluded_nbrs, ij, True)


def _raw_turn_candidates(mec: Mec, cap: Optional[int]) -> Iterator[Move]:
    """Parameter sweep for turn moves; deterministic (i, j, S_i, S_j) order.

    For ordered adjacent (i, j) and subset pairs S_i of ne(i)-{j} and S_j of
    ne(j)-{i}: entries over S_i joined with {i, j} must currently be 0 (they
    are gained) and entries over S_j joined with {i, j} must be 1 (lost).
    One side may be empty; the empty/singleton/larger split of the non-empty
    sides yields the kind.  Preconditions on entries of the form S + {i} are
    enforced through the admissible families.
    """
    c = partial(mask_entry, representative(mec).parent_masks)
    ne = mec.skeleton.neighbor_masks

    for i in range(mec.p):
        for j in _bits(ne[i]):
            ij = 1 << i | 1 << j
            s_i_list = [0] + [t for t in _admissible(mec, i, cap) if not t >> j & 1]
            # the lost side does not depend on S_i: build and check it once
            s_j_list = []
            for s_j in [0] + [t for t in _admissible(mec, j, cap) if not t >> i & 1]:
                if s_j and not s_j & ~ne[i]:
                    continue
                minus = _family(s_j, ij, ne[i]) if s_j else frozenset()
                if all(map(c, minus)):
                    s_j_list.append((s_j, minus))
            for s_i in s_i_list:
                if s_i and not s_i & ~ne[j]:
                    continue
                plus = _family(s_i, ij, ne[j]) if s_i else frozenset()
                if any(map(c, plus)):
                    continue
                for s_j, minus in s_j_list:
                    if not s_i and not s_j:
                        continue
                    if s_i and s_j:
                        yield Move(FLIP, (i, j, nodes_of(s_i), nodes_of(s_j)), plus, minus)
                        continue
                    # one side is empty; the budding runs from the other
                    a, b, s = (i, j, s_i) if s_i else (j, i, s_j)
                    if s.bit_count() == 1:
                        yield Move(V_STRUCTURE_ADDITION, (nodes_of(s | ij),), plus, minus)
                    else:
                        yield Move(BUDDING, (a, b, nodes_of(s)), plus, minus)


def _raw_edge_candidates(mec: Mec, cap: Optional[int],
                         sides: tuple = (False, True)) -> Iterator[Move]:
    """Parameter sweep for edge moves over the ordered pairs (i, j) whose
    adjacency is in sides: False for additions, True for deletions.

    Non-adjacent ordered (i, j): the family {S + {i,j} : S within S*} is
    gained, so all its entries must be 0.  Adjacent (i, j): the same family
    is lost, so all entries must be 1.
    """
    c = partial(mask_entry, representative(mec).parent_masks)
    p = mec.p
    ne = mec.skeleton.neighbor_masks

    for i in range(p):
        for j in range(p):
            adjacent = bool(ne[i] >> j & 1)
            if i == j or adjacent not in sides:
                continue
            ij = 1 << i | 1 << j
            for s_star in [0] + [t for t in _admissible(mec, i, cap) if not t >> j & 1]:
                fam = family(s_star, ij)
                if adjacent and all(map(c, fam)):
                    yield Move(EDGE_PAIR, (i, j, nodes_of(s_star)), frozenset(), fam)
                elif not adjacent and not any(map(c, fam)):
                    yield Move(EDGE_PAIR, (i, j, nodes_of(s_star)), fam, frozenset())


def _tree_paths(mec: Mec) -> Iterator[tuple]:
    """Paths usable by shifts and splits, with at least four nodes.

    On a tree these are the unique simple paths between node pairs, in both
    orientations.  On a cycle, walks that keep advancing in one direction may
    wrap past the start, as long as no middle triple repeats; both directions
    and all start points are produced.  Any other skeleton has none.
    """
    skel = mec.skeleton
    p = skel.p
    adj = skel.neighbor_masks
    if skel.is_tree():
        for a in range(p):
            prev = {a: None}
            queue = [a]
            while queue:
                x = queue.pop(0)
                for y in _bits(adj[x]):
                    if y not in prev:
                        prev[y] = x
                        queue.append(y)
            for b in range(p):
                if b == a:
                    continue
                path = [b]
                while prev[path[-1]] is not None:
                    path.append(prev[path[-1]])
                path.reverse()
                if len(path) >= 4:
                    yield tuple(path)
    elif skel.is_single_cycle():
        start = 0
        order = [start, next(_bits(adj[start]))]
        while len(order) < p:
            order.append(next(_bits(adj[order[-1]] & ~(1 << order[-2]))))
        for s in range(p):
            for direction in (1, -1):
                for n_nodes in range(4, p + 3):
                    yield tuple(order[(s + direction * k) % p] for k in range(n_nodes))


def _raw_tree_candidates(mec: Mec) -> Iterator[Move]:
    c = partial(mask_entry, representative(mec).parent_masks)
    for path in _tree_paths(mec):
        n = len(path)
        triples = [key_of(path[j - 1:j + 2]) for j in range(1, n - 1)]
        if len(set(triples)) != len(triples):
            continue
        odd = frozenset(triples[0::2])
        even = frozenset(triples[1::2])
        if n % 2 == 1 and len(triples) < 3:
            continue  # a one-triple split is just a v-structure addition
        if any(map(c, odd)) or not all(map(c, even)):
            continue
        kind = SHIFT if n % 2 == 0 else SPLIT
        yield Move(kind, (path,), odd, even)


def _distinct_deltas(raw: Iterator[Move], keep=None) -> Iterator[Move]:
    """The first move of each distinct delta of raw, if it passes keep."""
    seen = set()
    for move in raw:
        key = (move.added, move.removed)
        if key in seen:
            continue
        seen.add(key)
        if keep is None or keep(move):
            yield move


def _verified(mec: Mec, raw: Iterator[Move], keep=None) -> Iterator[tuple]:
    """(move, target) for each move of _distinct_deltas(raw, keep) that
    passes apply_move and verify_pair."""
    for move in _distinct_deltas(raw, keep):
        try:
            target = apply_move(mec, move)
        except MoveError:
            continue
        if verify_pair(mec, target, move):
            yield move, target


def enumerate_turn_moves(mec: Mec, cap: Optional[int] = None) -> list:
    """All verified turn moves (v-structure additions, buddings, flips) from mec."""
    return list(_verified(mec, _raw_turn_candidates(mec, cap)))


def enumerate_edge_moves(mec: Mec, cap: Optional[int] = None) -> list:
    """All verified edge moves (single-edge additions and deletions) from mec."""
    return list(_verified(mec, _raw_edge_candidates(mec, cap)))


def enumerate_tree_moves(mec: Mec) -> list:
    """All verified shifts and splits from mec: none unless its skeleton is a tree or a cycle."""
    return list(_verified(mec, _raw_tree_candidates(mec)))
