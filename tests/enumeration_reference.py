"""The DAG-by-DAG class enumeration that the enumeration tests use as a reference.

Every orientation of a skeleton is built as a validated Dag from its arcs
(a cyclic one raises and is skipped), every DAG is reduced to its class
with mec_of, and each class's row is read from the full imset of its
consistent extension.  It shares no code with the parent-bitmask
enumerator in cimwalk.graphs.
"""

import itertools

from cimwalk.graphs import CycleError, Dag, GraphError, UndirectedGraph, mec_of
from cimwalk.moves import _class_imset
from cimwalk.polytope import VertexSet


def orientations_by_arcs(g: UndirectedGraph) -> list:
    """Every acyclic orientation of g as a Dag, edges sorted, bit 0 = a -> b."""
    edges = sorted(g.edges)
    out = []
    for bits in itertools.product((0, 1), repeat=len(edges)):
        try:
            out.append(Dag.from_arcs(g.p, [(a, b) if bit == 0 else (b, a)
                                           for (a, b), bit in zip(edges, bits)]))
        except CycleError:
            continue
    return out


def dags_by_arcs(p: int) -> list:
    """Every DAG on p nodes: the orientations of each skeleton in turn."""
    pairs = list(itertools.combinations(range(p), 2))
    return [dag for keep in itertools.product((False, True), repeat=len(pairs))
            for dag in orientations_by_arcs(
                UndirectedGraph.from_edges(p, itertools.compress(pairs, keep)))]


def mecs_by_dag(dags) -> list:
    """The classes of the DAGs, each once, in order of first DAG."""
    return list(dict.fromkeys(mec_of(dag) for dag in dags))


def imset_vector(mec, coords: tuple) -> tuple:
    ones = _class_imset(mec).ones
    return tuple(1 if key in ones else 0 for key in coords)


def vertex_set_by_dag(p: int, mecs) -> VertexSet:
    """The vertex set of the classes, rows from full imsets, sorted by vector."""
    coords = tuple(c for size in range(2, p + 1)
                   for c in itertools.combinations(range(p), size))
    rows = sorted(((imset_vector(mec, coords), mec) for mec in mecs), key=lambda rv: rv[0])
    matrix = tuple(r for r, _ in rows)
    if len(set(matrix)) != len(matrix):
        raise GraphError("imset vectors are not pairwise distinct")
    return VertexSet(p, tuple(m for _, m in rows), coords, matrix)


def parent_masks(dag: Dag) -> tuple:
    """The parent set of each node as a bitmask."""
    return tuple(sum(1 << k for k in pa) for pa in dag.parents)
