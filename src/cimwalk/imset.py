"""Characteristic imsets: 0/1 vectors indexed by node subsets of size >= 2.

The entry at S is 1 exactly when some node i in S has all of S \\ {i} among
its parents.  Two DAGs are Markov equivalent iff their imsets coincide, and
the entries on subsets of size two and three already determine the rest.

A subset key is an int with bit x set for node x.  Keys are checked where
they come in from outside (subset_key) and decoded to sorted node tuples
(nodes_of) only for output and messages.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .graphs import Dag, Mec, UndirectedGraph, VStructure, _bits


class ImsetError(ValueError):
    pass


def key_of(nodes: Iterable) -> int:
    """The key of a node set; the nodes are not checked."""
    return sum(1 << v for v in set(nodes))


def nodes_of(key: int) -> tuple:
    """The nodes of a key, in increasing order."""
    return tuple(_bits(key))


def subset_key(nodes: Iterable, p: int) -> int:
    """The key of a node subset given from outside, which must be at least
    two distinct nodes, each an int in [0, p)."""
    nodes = list(nodes)
    if (not all(isinstance(v, int) and 0 <= v < p for v in nodes)
            or len(nodes) < 2 or len(set(nodes)) != len(nodes)):
        raise ImsetError(f"subset {nodes} is not two or more distinct nodes in [0, {p})")
    return key_of(nodes)


@dataclass(frozen=True)
class CharImset:
    """Sparse characteristic imset: the set of subset keys with entry 1.

    restricted=True means only entries on subsets of size 2 and 3 are stored;
    restricted=False means all subset sizes from 2 to p are covered.
    """

    p: int
    ones: frozenset
    restricted: bool = True

    def __post_init__(self):
        for key in self.ones:
            # a negative key shifts to -1, so it fails the range test too
            if key >> self.p or key.bit_count() < 2:
                raise ImsetError(f"bad subset key {key!r}")
            if self.restricted and key.bit_count() > 3:
                raise ImsetError(f"restricted imset has key {nodes_of(key)} of size > 3")

    def entry(self, nodes: Iterable) -> int:
        key = subset_key(nodes, self.p)
        if self.restricted and key.bit_count() > 3:
            raise ImsetError("restricted imset has no entries beyond size 3")
        return 1 if key in self.ones else 0

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "restricted": self.restricted,
            "ones": sorted(list(nodes_of(k)) for k in self.ones),
        }

    @staticmethod
    def from_json(obj: dict) -> "CharImset":
        p = int(obj["p"])
        return CharImset(
            p,
            frozenset(subset_key(k, p) for k in obj["ones"]),
            bool(obj.get("restricted", True)),
        )


def mask_entry(parents: Sequence, s: int) -> int:
    """The entry at key s of the DAG whose parent bitmasks are parents.
    s must hold at least two nodes in range; that is not checked."""
    rest = s
    while rest:
        low = rest & -rest
        if not s & ~(low | parents[low.bit_length() - 1]):
            return 1
        rest ^= low
    return 0


def family(base: int, extra: int, nonempty: bool = False) -> frozenset:
    """{T | extra : T a submask of base, nonempty if asked}.

    base and extra must be disjoint; the keys are not checked.
    """
    out = [base | extra]
    sub = base
    while sub:  # the submasks of base, down to 0
        sub = (sub - 1) & base
        out.append(sub | extra)
    if nonempty:
        out.pop()
    return frozenset(out)


def full_imset(dag: Dag) -> CharImset:
    """All entries; walks parent-set subsets, so cost is sum of 2^|pa(i)|."""
    ones = frozenset().union(*(family(pa, 1 << i, True)
                               for i, pa in enumerate(dag.parent_masks)))
    return CharImset(dag.p, ones, restricted=False)


def _triangles(edges: Iterable) -> set:
    """Keys of the triples whose three pairs are all among the sorted pairs
    in edges: for each edge (a, b), the common higher neighbours c."""
    higher = defaultdict(int)
    for a, b in edges:
        higher[a] |= 1 << b
    return {1 << a | 1 << b | 1 << c for a, b in edges for c in _bits(higher[a] & higher[b])}


@lru_cache(maxsize=4_096)  # a walk reuses only its recent classes
def mec_restricted_imset(mec: Mec) -> CharImset:
    """Restricted imset of a class straight from skeleton and v-structures.

    Size-2 entries are the skeleton edges.  A size-3 entry is 1 iff the
    triple is a complete triangle of the skeleton or a recorded v-structure.
    """
    ones = {key_of(e) for e in mec.skeleton.edges} | _triangles(mec.skeleton.edges)
    ones.update(vs.mask for vs in mec.vstructs)
    return CharImset(mec.p, frozenset(ones), restricted=True)


def triple_vstructure(key: int, edges, entry: bool):
    """The v-structure a size-3 key's entry implies given the keys of the
    skeleton edges: an entry over exactly two edges; None for any other
    consistent triple.  Raises ImsetError for an entry over fewer than two
    edges or a complete triangle whose entry is zero."""
    missing = [key ^ 1 << v for v in _bits(key) if key ^ 1 << v not in edges]
    if entry and len(missing) > 1:
        raise ImsetError(f"size-3 entry {nodes_of(key)} with fewer than two edges")
    if not entry and not missing:
        raise ImsetError(f"complete triangle {nodes_of(key)} with zero entry")
    if not entry or not missing:
        return None
    return VStructure((key ^ missing[0]).bit_length() - 1, nodes_of(missing[0]))


def recover_mec(imset: CharImset) -> Mec:
    """Rebuild skeleton and v-structures from size-2/3 entries.

    Raises ImsetError when the entries are structurally impossible for any
    DAG: a size-3 one whose triple has fewer than two skeleton edges, or a
    complete skeleton triangle whose size-3 entry is zero; of the latter,
    the lexicographically first is named.
    """
    edges = {k for k in imset.ones if k.bit_count() == 2}
    skel = UndirectedGraph(imset.p, frozenset(map(nodes_of, edges)))
    vstructs = {triple_vstructure(k, edges, True) for k in imset.ones if k.bit_count() == 3}
    unmarked = _triangles(skel.edges) - imset.ones
    if unmarked:
        triple_vstructure(min(unmarked, key=nodes_of), edges, False)  # raises
    return Mec(skel, frozenset(vstructs - {None}))


def imset_delta(a: CharImset, b: CharImset) -> tuple:
    """(added, removed) subset keys going from a to b."""
    if a.p != b.p:
        raise ImsetError("imsets have different p")
    if a.restricted != b.restricted:
        raise ImsetError("cannot diff restricted against full imsets")
    return (frozenset(b.ones - a.ones), frozenset(a.ones - b.ones))
