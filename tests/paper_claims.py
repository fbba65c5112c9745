"""The source paper's structural claims about faces of CIM_p, checked on
small polytopes: stable-set models of path and cycle faces, simplex faces,
and turn-move connectivity on a fixed skeleton.

The tests call these checks; no pipeline of the package runs them.
"""

import itertools
from fractions import Fraction
from typing import Iterable

import numpy as np

from cimwalk import moves
from cimwalk.graphs import GraphError, UndirectedGraph
from cimwalk.imset import key_of, nodes_of
from cimwalk.moves import V_STRUCTURE_ADDITION
from cimwalk.polytope import (VertexSet, _build_vertex_set, _coord_pos,
                              _mecs_with_skeleton, _move_targets,
                              certify_all_edges, enumerate_mecs_with_skeleton)


# ---------------------------------------------------------------------------
# Face objectives


def face_objective(h: UndirectedGraph, h_prime: UndirectedGraph) -> dict:
    """Pair weights whose maximizers are the MECs with skeleton between h and h_prime.

    Weight 1 on edges of h, 0 on edges only in h_prime, -1 on all other node
    pairs, keyed by subset key; entries for larger sets are zero and omitted.
    """
    if h.p != h_prime.p:
        raise GraphError("graphs must share a node set")
    if not h.edges <= h_prime.edges:
        raise GraphError("first graph must be a subgraph of the second")
    out = {}
    for pair in itertools.combinations(range(h.p), 2):
        key = key_of(pair)
        if pair in h.edges:
            out[key] = 1
        elif pair in h_prime.edges:
            out[key] = 0
        else:
            out[key] = -1
    return out


def maximizers(vs: VertexSet, objective: dict) -> tuple:
    """Indices of the vertices attaining the maximum of a sparse objective."""
    pos = _coord_pos(vs)
    best = None
    arg = []
    for i, row in enumerate(vs.matrix):
        val = sum(weight * row[pos[key]] for key, weight in objective.items() if weight)
        if best is None or val > best:
            best = val
            arg = [i]
        elif val == best:
            arg.append(i)
    return tuple(arg)


# ---------------------------------------------------------------------------
# Structural verification: stable-set models for paths and cycles


def path_graph(p: int) -> UndirectedGraph:
    return UndirectedGraph.from_edges(p, [(i, i + 1) for i in range(p - 1)])


def cycle_graph(p: int) -> UndirectedGraph:
    if p < 3:
        raise GraphError("a cycle needs at least three nodes")
    return UndirectedGraph.from_edges(
        p, [(i, i + 1) for i in range(p - 1)] + [(0, p - 1)]
    )


def _stable_sets(n: int, adjacent) -> list:
    out = []
    for size in range(n + 1):
        for sub in itertools.combinations(range(n), size):
            if all(not adjacent(a, b) for a, b in itertools.combinations(sub, 2)):
                out.append(frozenset(sub))
    return out


def verify_stab_equivalence(kind: str, p: int) -> dict:
    """Compare a path or cycle face against its stable-set model.

    The model: MECs on the skeleton correspond to stable sets of collider
    positions (a path on p-2 interior positions, or the cycle itself), and
    the polytope edges are exactly the pairs whose induced symmetric
    difference is connected, which the move families v-structure addition,
    shift, and split realize.  The report records each comparison
    separately; on cycles the collider-free stable set has no DAG
    counterpart, since every acyclic orientation of a cycle has a sink, and
    dropping that vertex exposes extra polytope edges.
    """
    # ground position idx is the collider at node idx + shift
    if kind == "path":
        if not 2 <= p <= 9:
            raise GraphError("paths supported for 2 <= p <= 9")
        g, ground, shift = path_graph(p), p - 2, 1

        def adjacent(a, b):
            return abs(a - b) == 1

    elif kind == "cycle":
        if not 4 <= p <= 9:
            raise GraphError("cycles supported for 4 <= p <= 9")
        g, ground, shift = cycle_graph(p), p, 0

        def adjacent(a, b):
            return (a - b) % p in (1, p - 1)

    else:
        raise GraphError("kind must be 'path' or 'cycle'")

    def triple_of(idx):
        c = idx + shift
        return key_of(((c - 1) % p, c, (c + 1) % p))

    vs = enumerate_mecs_with_skeleton(g)
    stables = _stable_sets(ground, adjacent)
    expected = {frozenset(triple_of(i) for i in s) for s in stables}

    vertex_sets = []
    coordinate_ok = True
    for i, mec in enumerate(vs.mecs):
        triples = frozenset(v.mask for v in mec.vstructs)
        vertex_sets.append(frozenset(v.collider - shift for v in mec.vstructs))
        ones = {key for key, bit in zip(vs.coords, vs.matrix[i]) if bit}
        if ones != set(map(key_of, g.edges)) | triples:
            coordinate_ok = False
    actual = {frozenset(triple_of(i) for i in s) for s in vertex_sets}

    survey = certify_all_edges(vs)
    lp_edges = set(survey.edges)

    chvatal = set()
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            sym = vertex_sets[i] ^ vertex_sets[j]
            if sym and _induced_connected(sym, adjacent):
                chvatal.add((i, j))

    classified = set()
    targets = _move_targets(vs)
    for i, mec in enumerate(vs.mecs):
        found = [(j, kind) for j, kind in targets(i, moves._raw_turn_candidates(mec, None))
                 if kind == V_STRUCTURE_ADDITION]
        found += targets(i, moves._raw_tree_candidates(mec))
        classified.update((min(i, j), max(i, j)) for j, _ in found)

    return {
        "kind": kind,
        "p": p,
        "vertices": len(vs),
        "stable_sets": len(stables),
        "count_match": len(vs) == len(stables),
        "bijection_match": actual == expected,
        "missing_stable_sets": sorted(sorted(map(nodes_of, s)) for s in (expected - actual)),
        "coordinate_match": coordinate_ok,
        "lp_edges": len(lp_edges),
        "chvatal_edges": len(chvatal),
        "classified_edges": len(classified),
        "lp_equals_chvatal": lp_edges == chvatal,
        "lp_equals_classified": lp_edges == classified,
        "classified_subset_of_lp": classified <= lp_edges,
        "extra_lp_pairs": sorted(lp_edges - classified),
    }


def _induced_connected(nodes: frozenset, adjacent) -> bool:
    nodes = set(nodes)
    start = next(iter(nodes))
    seen = {start}
    stack = [start]
    while stack:
        x = stack.pop()
        for y in nodes - seen:
            if adjacent(x, y):
                seen.add(y)
                stack.append(y)
    return seen == nodes


# ---------------------------------------------------------------------------
# Structural verification: simplex faces and poset bases


def exact_rank(rows: Iterable) -> int:
    """Matrix rank over the rationals, by Gaussian elimination on Fractions."""
    mat = [[Fraction(v) for v in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col] != 0), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def poset_b_matrix(elements: list, leq) -> list:
    """Rows b_q = sum of e_r over r <= q; invertible for any finite poset."""
    return [[1 if leq(r, q) else 0 for r in elements] for q in elements]


def _partitions(n: int) -> list:
    out = []

    def rec(remaining, largest, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        for part in range(min(remaining, largest), 0, -1):
            rec(remaining - part, part, prefix + [part])

    rec(n, n, [])
    return out


def star_over_cliques(p: int, partition: tuple) -> UndirectedGraph:
    """Node p-1 joined to everything; the rest split into consecutive cliques."""
    if sum(partition) != p - 1:
        raise GraphError("partition must cover the non-center nodes")
    edges = [(i, p - 1) for i in range(p - 1)]
    offset = 0
    for block in partition:
        for a, b in itertools.combinations(range(offset, offset + block), 2):
            edges.append((a, b))
        offset += block
    return UndirectedGraph.from_edges(p, edges)


def complete_minus_edge(p: int) -> UndirectedGraph:
    edges = [e for e in itertools.combinations(range(p), 2) if e != (0, 1)]
    return UndirectedGraph.from_edges(p, edges)


def _affine_rank(vs: VertexSet) -> int:
    diffs = [[a - b for a, b in zip(row, vs.matrix[0])] for row in vs.matrix[1:]]
    return exact_rank(diffs) if diffs else 0


def _basis_check(poset: str, elements: list, leq) -> dict:
    rank = exact_rank(poset_b_matrix(elements, leq))
    return {"poset": poset, "size": len(elements), "rank": rank, "full_rank": rank == len(elements)}


def verify_simplex_faces(p: int) -> dict:
    """Check the two simplex families at a given p: counts and affine rank.

    For the star-over-cliques skeletons the face dimension is
    2^(p-1) - 1 - sum(2^size - 1 over cliques); for the complete graph less
    one edge it is 2^(p-2) - 1.  Affine independence is certified by an
    exact rank computation on the difference vectors, and the underlying
    poset argument is exercised directly through b-vector bases.
    """
    if not 4 <= p <= 6:
        raise GraphError("supported for 4 <= p <= 6")
    report = {"p": p, "star_over_cliques": [], "complete_minus_edge": None, "basis_checks": []}
    overall = True

    for partition in _partitions(p - 1):
        vs = enumerate_mecs_with_skeleton(star_over_cliques(p, partition))
        d = 2 ** (p - 1) - 1 - sum(2 ** s - 1 for s in partition)
        rank = _affine_rank(vs)
        ok = len(vs) == d + 1 and rank == d
        overall = overall and ok
        report["star_over_cliques"].append(
            {
                "partition": list(partition),
                "dimension": d,
                "vertices": len(vs),
                "affine_rank": rank,
                "ok": ok,
            }
        )
        # the poset behind the rank argument: classes ordered by the center
        # node's v-structure tails, with the collider-free class at the bottom
        tails = []
        for mec in vs.mecs:
            union = set()
            for v in mec.vstructs:
                union.update(v.tails)
            tails.append(frozenset(union))
        report["basis_checks"].append(_basis_check(
            f"center-tails p={p} partition={list(partition)}", tails,
            lambda r, q: r == frozenset() or r <= q))

    vs = enumerate_mecs_with_skeleton(complete_minus_edge(p))
    d = 2 ** (p - 2) - 1
    rank = _affine_rank(vs)
    ok = len(vs) == d + 1 and rank == d
    overall = overall and ok
    report["complete_minus_edge"] = {
        "dimension": d,
        "vertices": len(vs),
        "affine_rank": rank,
        "ok": ok,
    }

    subsets = [frozenset(s) for size in range(4) for s in itertools.combinations(range(3), size)]
    report["basis_checks"].append(_basis_check("chain-6", list(range(6)), lambda r, q: r <= q))
    report["basis_checks"].append(_basis_check("subset-lattice-3", subsets, lambda r, q: r <= q))
    report["ok"] = overall and all(b["full_rank"] for b in report["basis_checks"])
    return report


# ---------------------------------------------------------------------------
# Turn-move connectivity


def verify_turn_connectivity(g: UndirectedGraph) -> bool:
    """Whether turn moves alone connect every MEC on the fixed skeleton g.

    A turn move keeps the skeleton, so its targets are read among the rows
    of the face by _move_targets, and each move merges its two components.
    """
    vs = _build_vertex_set(g.p, _mecs_with_skeleton(g))
    targets = _move_targets(vs)
    label = np.arange(len(vs))
    for i, mec in enumerate(vs.mecs):
        for j, _ in targets(i, moves._raw_turn_candidates(mec, None)):
            label[label == label[j]] = label[i]
    return len(set(label.tolist())) <= 1
