"""Set-based Dor-Tarsi extension, v-structures and Meek closure, the
reference that the bitmask versions in cimwalk.graphs are compared against
(`==`, None included)."""

import itertools
from functools import lru_cache
from typing import Optional

from cimwalk.graphs import (Dag, GraphError, Mec, PartiallyDirectedGraph, VStructure,
                            _canon_pair, skeleton)


def v_structures(dag: Dag) -> frozenset:
    out = set()
    for j in range(dag.p):
        for a, b in itertools.combinations(sorted(dag.parents[j]), 2):
            if not dag.adjacent(a, b):
                out.add(VStructure(j, (a, b)))
    return frozenset(out)


@lru_cache(maxsize=1_000_000)
def consistent_extension(mec: Mec) -> Optional[Dag]:
    """Find a DAG inducing the given class, or None if there is none.

    Peels sink candidates: a node with no outgoing required arc whose every
    undirected neighbor is adjacent to all of its other remaining neighbors.
    Orienting the undirected edges of such a node into it creates no new
    v-structure.  Smallest-index candidate is taken, so the result is
    deterministic.  The output is re-checked against the class, which guards
    against patterns whose peeling succeeds by accident.
    """
    skel = mec.skeleton
    p = skel.p
    required = set()
    for vs in mec.vstructs:
        for t in vs.tails:
            required.add((t, vs.collider))
    for a, b in required:
        if (b, a) in required:
            return None
    directed_pairs = {_canon_pair(a, b) for a, b in required}
    und = {e for e in skel.edges if e not in directed_pairs}

    adj = [set(skel.neighbors(i)) for i in range(p)]
    out_heads = [set() for _ in range(p)]
    for a, b in required:
        out_heads[a].add(b)
    und_nbrs = [set() for _ in range(p)]
    for a, b in und:
        und_nbrs[a].add(b)
        und_nbrs[b].add(a)

    remaining = set(range(p))
    arcs = list(required)
    while remaining:
        chosen = None
        for x in sorted(remaining):
            if out_heads[x] & remaining:
                continue
            nb = adj[x] & remaining
            ok = True
            for y in und_nbrs[x] & remaining:
                if (nb - {y}) - adj[y]:
                    ok = False
                    break
            if ok:
                chosen = x
                break
        if chosen is None:
            return None
        for y in und_nbrs[chosen] & remaining:
            arcs.append((y, chosen))
        remaining.discard(chosen)

    dag = Dag.from_arcs(p, arcs)
    if skeleton(dag) != skel or v_structures(dag) != mec.vstructs:
        return None
    return dag



def essential_graph(mec: Mec) -> PartiallyDirectedGraph:
    """The CPDAG of the class: v-structure arcs closed under the Meek rules."""
    if consistent_extension(mec) is None:
        raise GraphError("class is not realizable by any DAG")
    p = mec.skeleton.p
    adj = [set(mec.skeleton.neighbors(i)) for i in range(p)]
    arcs = set()
    for vs in mec.vstructs:
        for t in vs.tails:
            arcs.add((t, vs.collider))
    und = {e for e in mec.skeleton.edges if e not in {_canon_pair(a, b) for a, b in arcs}}

    def orient(a, b):
        und.discard(_canon_pair(a, b))
        arcs.add((a, b))

    changed = True
    while changed:
        changed = False
        for a, b in sorted(und):
            for x, y in ((a, b), (b, a)):
                # Rule 1: z -> x, x - y, z and y non-adjacent  =>  x -> y
                if any((z, x) in arcs and y not in adj[z] and z != y for z in range(p)):
                    orient(x, y)
                    changed = True
                    break
                # Rule 2: x -> z -> y with x - y  =>  x -> y
                if any((x, z) in arcs and (z, y) in arcs for z in range(p)):
                    orient(x, y)
                    changed = True
                    break
                # Rule 3: x - z1, x - z2, z1 -> y, z2 -> y, z1,z2 non-adjacent
                done = False
                for z1, z2 in itertools.combinations(sorted(adj[x]), 2):
                    if z2 in adj[z1] or z1 == y or z2 == y:
                        continue
                    if (
                        _canon_pair(x, z1) in und
                        and _canon_pair(x, z2) in und
                        and (z1, y) in arcs
                        and (z2, y) in arcs
                    ):
                        orient(x, y)
                        changed = True
                        done = True
                        break
                if done:
                    break
                # Rule 4: x - d, d -> c, c -> y, x adjacent to c, d,y non-adjacent
                done = False
                for d in sorted(adj[x]):
                    if _canon_pair(x, d) not in und or d == y:
                        continue
                    for c in range(p):
                        if (d, c) in arcs and (c, y) in arcs and c in adj[x] and y not in adj[d]:
                            orient(x, y)
                            changed = True
                            done = True
                            break
                    if done:
                        break
                if done:
                    break
            if changed:
                break
    return PartiallyDirectedGraph(p, frozenset(arcs), frozenset(und))
