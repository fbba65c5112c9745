"""The sorted-tuple imset rules that the imset and move tests use as a reference.

Here a subset is a sorted tuple of nodes, the entry rule tests set
inclusion on a Dag's parent sets and a family is built from
itertools.combinations.  It shares no code with the bitmask rules in
cimwalk.imset; tuple_keys decodes cimwalk's integer keys into this form.
"""

import itertools

from cimwalk.graphs import Dag
from cimwalk.imset import CharImset, ImsetError, nodes_of, subset_key


def tuple_keys(keys) -> frozenset:
    """cimwalk's integer subset keys as sorted node tuples."""
    return frozenset(map(nodes_of, keys))


def tuple_key(nodes) -> tuple:
    key = tuple(sorted(nodes))
    if len(set(key)) != len(key):
        raise ValueError(f"subset has repeated nodes: {nodes}")
    if len(key) < 2:
        raise ValueError("imset entries are indexed by subsets of size >= 2")
    return key


def imset_entry(dag: Dag, nodes) -> int:
    """c(S) = 1 iff some i in S has S - {i} within pa(i)."""
    key = tuple_key(nodes)
    if key[0] < 0 or key[-1] >= dag.p:
        raise ImsetError(f"subset {key} out of range for p={dag.p}")
    s = set(key)
    for i in key:
        if s - {i} <= dag.parents[i]:
            return 1
    return 0


def family(base, extra: tuple, least: int = 0) -> frozenset:
    """{T + extra : T within base, |T| >= least} as sorted tuples."""
    base = sorted(base)
    return frozenset(tuple(sorted(sub + extra))
                     for r in range(least, len(base) + 1)
                     for sub in itertools.combinations(base, r))


def full_imset_tuples(dag: Dag) -> frozenset:
    """The entries of the full imset equal to 1, as sorted tuples."""
    return frozenset().union(*(family(pa, (i,), 1) for i, pa in enumerate(dag.parents)))


def restricted_imset(dag: Dag) -> CharImset:
    """The size-2 and size-3 entries of the DAG, read from its parent sets."""
    ones = set()
    for i in range(dag.p):
        pa = sorted(dag.parents[i])
        for k in pa:
            ones.add(subset_key((i, k), dag.p))
        for a, b in itertools.combinations(pa, 2):
            ones.add(subset_key((i, a, b), dag.p))
    return CharImset(dag.p, frozenset(ones), restricted=True)
