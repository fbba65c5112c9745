"""Characteristic imsets: 0/1 vectors indexed by node subsets of size >= 2.

The entry at S is 1 exactly when some node i in S has all of S \\ {i} among
its parents.  Two DAGs are Markov equivalent iff their imsets coincide, and
the entries on subsets of size two and three already determine the rest.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .graphs import Dag, Mec, UndirectedGraph, VStructure

SubsetKey = tuple


def subset_key(nodes: Iterable) -> SubsetKey:
    key = tuple(sorted(nodes))
    if len(set(key)) != len(key):
        raise ValueError(f"subset has repeated nodes: {nodes}")
    if len(key) < 2:
        raise ValueError("imset entries are indexed by subsets of size >= 2")
    return key


class ImsetError(ValueError):
    pass


@dataclass(frozen=True)
class CharImset:
    """Sparse characteristic imset: the set of subsets with entry 1.

    restricted=True means only entries on subsets of size 2 and 3 are stored;
    restricted=False means all subset sizes from 2 to p are covered.
    """

    p: int
    ones: frozenset
    restricted: bool = True

    def __post_init__(self):
        for key in self.ones:
            if len(key) < 2 or any(not (0 <= v < self.p) for v in key):
                raise ImsetError(f"bad subset key {key}")
            if self.restricted and len(key) > 3:
                raise ImsetError(f"restricted imset has key {key} of size > 3")

    def entry(self, nodes: Iterable) -> int:
        key = subset_key(nodes)
        if self.restricted and len(key) > 3:
            raise ImsetError("restricted imset has no entries beyond size 3")
        return 1 if key in self.ones else 0

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "restricted": self.restricted,
            "ones": sorted(list(k) for k in self.ones),
        }

    @staticmethod
    def from_json(obj: dict) -> "CharImset":
        return CharImset(
            int(obj["p"]),
            frozenset(subset_key(k) for k in obj["ones"]),
            bool(obj.get("restricted", True)),
        )


def imset_entry(dag: Dag, nodes: Iterable) -> int:
    key = subset_key(nodes)
    if key[0] < 0 or key[-1] >= dag.p:
        raise ImsetError(f"subset {key} out of range for p={dag.p}")
    s = set(key)
    for i in key:
        if s - {i} <= dag.parents[i]:
            return 1
    return 0


def restricted_imset(dag: Dag) -> CharImset:
    ones = set()
    for i in range(dag.p):
        pa = sorted(dag.parents[i])
        for k in pa:
            ones.add(subset_key((i, k)))
        for a, b in itertools.combinations(pa, 2):
            ones.add(subset_key((i, a, b)))
    return CharImset(dag.p, frozenset(ones), restricted=True)


def family(base: Iterable, extra: tuple, least: int = 0) -> frozenset:
    """{T + extra : T within base, |T| >= least} as sorted key tuples.

    base and extra must be disjoint node sets; the keys are not re-validated.
    """
    base = sorted(base)
    return frozenset(tuple(sorted(sub + extra))
                     for r in range(least, len(base) + 1)
                     for sub in itertools.combinations(base, r))


def full_imset(dag: Dag) -> CharImset:
    """All entries; walks parent-set subsets, so cost is sum of 2^|pa(i)|."""
    ones = frozenset().union(*(family(pa, (i,), 1) for i, pa in enumerate(dag.parents)))
    return CharImset(dag.p, ones, restricted=False)


def _triangles(edges: Iterable) -> set:
    """Sorted triples (a, b, c) whose three pairs are all among the sorted
    pairs in edges: for each edge (a, b), the common higher neighbours c."""
    higher = defaultdict(set)
    for a, b in edges:
        higher[a].add(b)
    return {(a, b, c) for a, b in edges for c in higher[a] & higher[b]}


@lru_cache(maxsize=1_000_000)
def mec_restricted_imset(mec: Mec) -> CharImset:
    """Restricted imset of a class straight from skeleton and v-structures.

    Size-2 entries are the skeleton edges.  A size-3 entry is 1 iff the
    triple is a complete triangle of the skeleton or a recorded v-structure.
    """
    ones = set(mec.skeleton.edges) | _triangles(mec.skeleton.edges)
    ones.update(vs.nodes() for vs in mec.vstructs)
    return CharImset(mec.p, frozenset(ones), restricted=True)


def triple_vstructure(key: SubsetKey, edges, entry: bool):
    """The v-structure a size-3 subset's entry implies given the skeleton
    edges: an entry over exactly two edges; None for any other consistent
    triple.  Raises ImsetError for an entry over fewer than two edges or a
    complete triangle whose entry is zero."""
    a, b, c = key
    missing = [pair for pair in ((a, b), (a, c), (b, c)) if pair not in edges]
    if entry and len(missing) > 1:
        raise ImsetError(f"size-3 entry {key} with fewer than two edges")
    if not entry and not missing:
        raise ImsetError(f"complete triangle {key} with zero entry")
    if not entry or not missing:
        return None
    return VStructure(next(v for v in key if v not in missing[0]), missing[0])


def recover_mec(imset: CharImset) -> Mec:
    """Rebuild skeleton and v-structures from size-2/3 entries.

    Raises ImsetError when the entries are structurally impossible for any
    DAG: a size-3 one whose triple has fewer than two skeleton edges, or a
    complete skeleton triangle whose size-3 entry is zero.
    """
    edges = {k for k in imset.ones if len(k) == 2}
    skel = UndirectedGraph(imset.p, frozenset(edges))
    vstructs = {triple_vstructure(k, edges, True) for k in imset.ones if len(k) == 3}
    unmarked = _triangles(edges) - imset.ones
    if unmarked:
        triple_vstructure(min(unmarked), edges, False)  # raises
    return Mec(skel, frozenset(vstructs - {None}))


def imset_delta(a: CharImset, b: CharImset) -> tuple:
    """(added, removed) subset keys going from a to b."""
    if a.p != b.p:
        raise ImsetError("imsets have different p")
    if a.restricted != b.restricted:
        raise ImsetError("cannot diff restricted against full imsets")
    return (frozenset(b.ones - a.ones), frozenset(a.ones - b.ones))
