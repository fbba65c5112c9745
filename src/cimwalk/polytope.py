"""Vertex sets, LP edge certification, and edge censuses for small imset polytopes.

Vertices are characteristic imsets of MECs, held as dense 0/1 vectors indexed
by the subsets of {0..p-1} with at least two elements.  A pair of vertices
spans an edge exactly when some cost vector exposes the pair: w.u = w.v while
every other vertex scores strictly lower.  The rows are 0/1, so the vertices
in the smallest cube face holding u and v span a face of the polytope, and
the pair is an edge exactly when it is an edge of that face.  The exposure
problem is solved on that face as a small LP, and certified edges are then
classified by the move sweeps: a move's target is its source row plus the
move's imset delta, looked up among the rows.

Two cheap midpoint filters run before any LP: if u + v collides with the sum
of a different vertex pair, or equals twice a third vertex, then the segment
midpoint lies in the hull of other vertices and neither pair is an edge.
"""

from __future__ import annotations

import itertools
import math
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Optional

import numpy as np

# consistent_extension, full_imset and simplex_max are not called here;
# they stay importable for perfbench's tracer, which wraps them in this
# module.
from .graphs import (
    GraphError,
    UndirectedGraph,
    _adjacency,
    _bits,
    all_classes,
    consistent_extension,
    skeleton_classes,
)
from .imset import full_imset, key_of, mask_entry, nodes_of
from .lp import OPTIMAL, LpError, pivot_tableaux, simplex_max
from .moves import (
    EDGE_PAIR,
    SHIFT,
    SPLIT,
    TURN_KINDS,
    V_STRUCTURE_ADDITION,
    BUDDING,
    FLIP,
    _distinct_deltas,
    _raw_edge_candidates,
    _raw_tree_candidates,
    _raw_turn_candidates,
    enumerate_turn_moves,
)

EDGE_TOL = 1e-7
_EXACT_LO = EDGE_TOL / 10
_EXACT_HI = EDGE_TOL * 10

_FAMILY_ORDER = (V_STRUCTURE_ADDITION, BUDDING, FLIP, EDGE_PAIR, SHIFT, SPLIT)

EDGE_ADDITION = "edge_addition"
EDGE_PAIR_OTHER = "edge_pair_other"
UNCLASSIFIED = "unclassified"


# ---------------------------------------------------------------------------
# Vertex sets


@dataclass(frozen=True)
class VertexSet:
    """MECs on a common node set with their full imset vectors, in row order.

    coords holds the subset key of each column.  Rows are sorted by vector,
    so the order is reproducible for a given set of classes.  All vectors
    are pairwise distinct.  The lru caches below are keyed by whole vertex
    sets, so the hash is computed once per instance.
    """

    p: int
    mecs: tuple
    coords: tuple
    matrix: tuple

    def __len__(self) -> int:
        return len(self.mecs)

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return hash((self.p, self.mecs, self.coords, self.matrix))


def _all_coords(p: int) -> tuple:
    """The keys of the subsets of size >= 2, in (size, lex) order."""
    return tuple(key_of(key) for size in range(2, p + 1)
                 for key in itertools.combinations(range(p), size))


def _build_vertex_set(p: int, classes: Iterable) -> VertexSet:
    """The vertex set of (Mec, parent bitmasks of a member DAG) pairs; each
    row is read from the masks with the imset entry rule."""
    coords = _all_coords(p)
    rows = [(tuple([mask_entry(parents, s) for s in coords]), mec) for mec, parents in classes]
    rows.sort(key=lambda rv: rv[0])
    matrix = tuple(r for r, _ in rows)
    if len(set(matrix)) != len(matrix):
        raise GraphError("imset vectors are not pairwise distinct")
    return VertexSet(p, tuple(m for _, m in rows), coords, matrix)


@lru_cache(maxsize=64)
def _coord_pos(vs: VertexSet) -> dict:
    return {key: k for k, key in enumerate(vs.coords)}


def _move_targets(vs: VertexSet):
    """targets(i, raw, keep=None): (j, kind) for each move of
    _distinct_deltas(raw, keep) whose target, row i with the move's added
    coordinates set to 1 and removed ones to 0, is a row j != i of vs.

    A characteristic imset determines its class, and the sweeps add only
    0 entries and remove only 1 entries, so that is row j exactly when the
    move verifies from class i to class j; no target class is built.
    """
    # each row as an int, bit k holding coordinate k
    pos = _coord_pos(vs)
    rows = [sum(b << k for k, b in enumerate(row)) for row in vs.matrix]
    index = {row: j for j, row in enumerate(rows)}

    def targets(i: int, raw, keep=None) -> list:
        out = []
        for move in _distinct_deltas(raw, keep):
            added = sum(1 << pos[key] for key in move.added)
            removed = sum(1 << pos[key] for key in move.removed)
            j = index.get((rows[i] | added) & ~removed)
            if j is not None and j != i:
                out.append((j, move.kind))
        return out

    return targets


def enumerate_mecs(p: int) -> VertexSet:
    """All MECs on p nodes as a vertex set; supported for 2 <= p <= 5."""
    if not 2 <= p <= 5:
        raise GraphError("full enumeration supported for 2 <= p <= 5 only")
    return _build_vertex_set(p, all_classes(p))


@lru_cache(maxsize=4096)
def _mecs_with_skeleton(g: UndirectedGraph) -> tuple:
    """skeleton_classes(g): each MEC whose skeleton is exactly g, in order of
    first orientation, with that orientation's parent bitmasks."""
    if len(g.edges) > 24:
        raise GraphError("too many edges to orient exhaustively")
    return tuple(skeleton_classes(g))


def enumerate_mecs_with_skeleton(g: UndirectedGraph) -> VertexSet:
    """The face spanned by all MECs with skeleton exactly g."""
    if g.p > 12:
        raise GraphError("p too large for dense imset vectors")
    return _build_vertex_set(g.p, _mecs_with_skeleton(g))


# ---------------------------------------------------------------------------
# Node relabellings


class Symmetry(NamedTuple):
    """A node relabelling that maps a vertex set onto itself.

    nodes[x] is the new label of node x.  coords[k] is the position of the
    coordinate that coordinate k (a node set S) becomes, nodes[S].  rows[i]
    is the row that row i becomes when each entry k moves to coords[k].
    """

    nodes: tuple
    coords: tuple
    rows: tuple


# Work units that _symmetries may spend on one vertex set: one per candidate
# image tried, and one per coordinate and per row when a candidate is
# checked against the rows.  Past it the generators found so far are kept;
# orbits then only get finer, which costs LPs and never changes a decision.
_SYMMETRY_BUDGET = 200_000


def _refined_colours(adj: list) -> list:
    """Stable colour refinement of a graph given by neighbour bitmasks;
    every automorphism maps each node to a node of the same colour."""
    colours = [0] * len(adj)
    while True:
        sig = [(colours[x], tuple(sorted(colours[y] for y in _bits(adj[x]))))
               for x in range(len(adj))]
        ids = {s: k for k, s in enumerate(sorted(set(sig)))}
        refined = [ids[s] for s in sig]
        if len(ids) == len(set(colours)):
            return refined
        colours = refined


def _node_orbit(x: int, gens: list) -> set:
    orbit, stack = {x}, [x]
    while stack:
        y = stack.pop()
        for g in gens:
            z = g.nodes[y]
            if z not in orbit:
                orbit.add(z)
                stack.append(z)
    return orbit


@lru_cache(maxsize=64)
def _symmetries(vs: VertexSet) -> tuple:
    """Generators of the node relabellings that map vs onto itself.

    A relabelling of the nodes permutes the imset coordinates and maps the
    polytope onto itself, so it maps edges to edges.  Candidates are the
    automorphisms of the union of the class skeletons, found by
    backtracking along the stabiliser chain of nodes p-1, ..., 0: at level
    i every generator found so far fixes the nodes below i, and i is sent
    to each node outside its orbit so far.  A candidate is kept only if it
    maps every row onto a row.  Each kept generator joins two node orbits,
    so there are at most p - 1; unless _SYMMETRY_BUDGET runs out they
    generate the whole group.
    """
    p = vs.p
    adj = _adjacency(p, frozenset().union(*(mec.skeleton.edges for mec in vs.mecs)))
    colours = _refined_colours(adj)
    pos = _coord_pos(vs)
    rows = np.array(vs.matrix, dtype=np.uint8)
    row_of = {row.tobytes(): i for i, row in enumerate(rows)}
    budget = _SYMMETRY_BUDGET

    def fits(img, t):
        # node len(img) -> t keeps every adjacency to the nodes placed so far
        k = len(img)
        used = sum(1 << y for y in img)
        return (colours[t] == colours[k] and not used >> t & 1
                and sum(1 << img[x] for x in _bits(adj[k] & ((1 << k) - 1)))
                == adj[t] & used)

    def verified(img):
        nonlocal budget
        budget -= len(vs.coords) + len(rows)
        cp = tuple(pos[key_of(img[x] for x in _bits(key))] for key in vs.coords)
        image = np.empty_like(rows)
        image[:, cp] = rows
        vp = tuple(row_of.get(row.tobytes()) for row in image)
        return None if None in vp else Symmetry(tuple(img), cp, vp)

    def extend(img):
        nonlocal budget
        if len(img) == p:
            return verified(img)
        for t in range(p):
            budget -= 1
            if budget < 0:
                return None
            if fits(img, t):
                found = extend(img + [t])
                if found:
                    return found
        return None

    gens = []
    for i in reversed(range(p)):
        orbit = _node_orbit(i, gens)
        for y in range(i + 1, p):
            if y not in orbit and fits(list(range(i)), y):
                found = extend(list(range(i)) + [y])
                if found:
                    gens.append(found)
                    orbit = _node_orbit(i, gens)
    return tuple(gens)


def _orbit_tree(items: Iterable, perms: list, image) -> tuple:
    """Split items, a set closed under perms, into orbits, in item order.

    Returns the first item of each orbit, and every other item as
    (item, source, k) with item = image(source, perms[k]); each source
    comes before the items derived from it.
    """
    seen = set()
    reps, derived = [], []
    for item in items:
        if item in seen:
            continue
        seen.add(item)
        reps.append(item)
        queue = [item]
        for source in queue:
            for k, perm in enumerate(perms):
                new = image(source, perm)
                if new not in seen:
                    seen.add(new)
                    queue.append(new)
                    derived.append((new, source, k))
    return reps, derived


def _pair_image(pair, perm):
    a, b = perm[pair[0]], perm[pair[1]]
    return (a, b) if a < b else (b, a)


def _pair_orbits(i, j, n: int, perms: list) -> np.ndarray:
    """The index of the first pair of each pair's orbit, for the pairs
    (i[q], j[q]) of n vertices, i < j, ordered by u n + v and closed under
    perms.

    Each pair is the id u n + v, and its image under every generator is
    looked up among the sorted ids with np.searchsorted.  Then each pair
    takes the least label of its images, and the labels jump to their own
    labels, until nothing changes.  A label stays in its orbit and never
    grows, and at the fixed point it is constant along every generator's
    cycles, so it is the least index of the orbit.  Memory is O(pairs).
    """
    ids = i * n + j
    # an image past the last id meets the sentinel -1
    padded = np.append(ids, -1)
    images = []
    for perm in perms:
        perm = np.asarray(perm)
        a, b = perm[i], perm[j]
        image = np.minimum(a, b) * n + np.maximum(a, b)
        at = np.searchsorted(ids, image)
        if (padded[at] != image).any():
            raise ValueError("the pairs are not closed under the relabellings")
        images.append(at)
    label = np.arange(len(ids))
    while True:
        old = label
        for at in images:
            label = np.minimum(label, label[at])
        label = label[label]
        if (label == old).all():
            return label


# ---------------------------------------------------------------------------
# LP edge certification


@dataclass(frozen=True)
class EdgeCertificate:
    """A cost vector exposing the pair (u, v), with its separation margin.

    weights is aligned with the parent vertex set's coords; margin is the
    smallest gap w.u - w.x over all other vertices after scaling w to unit
    max-norm.  objective is the optimum t* of the pair's face LP (see
    _decide_pairs), and inf on a two-vertex face.  mode records how the pair
    was decided: "float" or "exact" arithmetic, or "trivial" for a
    two-vertex face, decided with no LP.
    """

    u: int
    v: int
    weights: tuple
    margin: float
    objective: float
    mode: str

    def check(self, vs: VertexSet, tol: float = 1e-9) -> bool:
        """Re-evaluate the certificate against every vertex of vs."""
        wu = _dot(self.weights, vs.matrix[self.u])
        wv = _dot(self.weights, vs.matrix[self.v])
        if abs(wu - wv) > tol:
            return False
        gaps = [
            wu - _dot(self.weights, row)
            for k, row in enumerate(vs.matrix)
            if k not in (self.u, self.v)
        ]
        if not gaps:
            return True
        return min(gaps) > 0 and min(gaps) >= self.margin - tol


def _dot(w, row) -> float:
    return sum(a * b for a, b in zip(w, row))


@lru_cache(maxsize=64)
def _restricted(vs: VertexSet) -> tuple:
    """Columns that vary across the vertex set, and the matrix restricted to them.

    Constant coordinates contribute the same amount to every w.x, so their
    weights can be fixed at zero without changing any margin.  The matrix is
    a read-only integer array, one row per vertex.
    """
    full = np.array(vs.matrix, dtype=np.int64)
    varying = tuple(int(k) for k in np.nonzero((full != full[0]).any(axis=0))[0])
    rmat = full[:, list(varying)]
    rmat.flags.writeable = False
    return varying, rmat


def _faces(rmat, at):
    """Per pair (u, v) of at: c_F = u + v - 1, and c_F.(u - x) for every
    vertex x, with -1 at u and v.

    Rows are 0/1, so c_F is +1 where u = v = 1, -1 where u = v = 0 and 0
    where they differ.  c_F.(u - x) is then a nonnegative integer, 0
    exactly when x agrees with u wherever u and v agree: when x lies in the
    box of (u, v), the smallest cube face holding both.
    """
    u = rmat[at[:, 0]]
    face = u + rmat[at[:, 1]] - 1
    slack = (face * u).sum(axis=1)[:, None] - face @ rmat.T
    np.put_along_axis(slack, at, -1, axis=1)
    return face, slack


def _box_columns(box, k: int):
    """k y columns per row of the mask box: the row's first k vertices in
    index order, padded by repeating its first vertex where it has fewer;
    a repeated column leaves an LP's value unchanged."""
    order = np.argsort(~box, axis=1, kind="stable")[:, :k]
    return np.where(np.arange(k) < box.sum(axis=1)[:, None], order, order[:, :1])


def _margin_lps(rmat, pairs, cols):
    """(c, a, b) of the equality-form LPs that give the exposure margins of
    pairs over the y vertices cols, one row of cols per pair.

    The margin LP of (u, v) over vertices X  max t  s.t.  w.(u - v) = 0,
    w.(u - x) >= t for every x in X,  w in [-1, 1]^d  is posed in its dual
    form

        min |r|_1,  r = sum_x y_x (u - x) + z (u - v),  y >= 0,  sum_x y_x = 1,

    with z free.  The residual is split as r = s+ - s-, so the rows are the d
    coordinate equations s+ - s- - r = 0 and the convexity row, and the
    tableau has d + 1 rows whatever the vertex count.  Columns run s-, y,
    z+, z-, s+; of the orders tried for the two-phase solve, this one took
    the fewest Bland pivots on the p = 4 polytope.  With X the box of
    (u, v) this is the pair's face LP (see _decide_pairs); with part of the
    box, a relaxation whose optimum t bounds the face t* from above.  c
    and b are shared; a holds one matrix per pair.
    """
    d = rmat.shape[1]
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    k = cols.shape[1]
    eye = np.eye(d, dtype=np.int64)
    a = np.zeros((len(u), d + 1, d + k + 2 + d))
    a[:, :d, :d] = -eye
    # gathered from rmat.T, so the subtraction's inner loop runs along k
    np.subtract(rmat.T[:, cols].transpose(1, 0, 2), rmat[u][:, :, None],
                out=a[:, :d, d:d + k])
    a[:, d, d:d + k] = 1
    a[:, :d, d + k] = rmat[v] - rmat[u]
    a[:, :d, d + k + 1] = rmat[u] - rmat[v]
    a[:, :d, d + k + 2:] = eye
    c = np.zeros(a.shape[2], dtype=np.int64)
    c[:d] = -1
    c[d + k + 2:] = -1
    b = np.zeros(d + 1, dtype=np.int64)
    b[d] = 1
    return c, a, b


def _first_tableaux(rmat, pairs, cols):
    """The margin LPs of pairs over the y columns cols, as canonical
    tableaux B^-1 [A | I | b] at their start bases, and those bases.  All
    entries are small integers, so they are exact.

    The start is feasible: y = e_x0 for x0 = cols[:, 0], z = 0, and in
    coordinate row i the residual u_i - x0_i carried by s+_i where it is
    >= 0 and by s-_i where it is negative.  Its basis matrix is B =
    [[D, x0 - u], [0, 1]] with D = diag(+-1), the sign carrying u - x0 in
    each coordinate row, so B^-1 = [[D, D (u - x0)], [0, 1]]: coordinate
    row i of the tableau is D_ii times (row i plus (u_i - x0_i) times the
    convexity row), and no inverse is computed.  The convexity row is 1 on
    the y columns, on its identity column and in the rhs, and 0 elsewhere.
    The slack rows' costs are -1 and the convexity row's 0, so the
    objective row is c plus the sum of the coordinate rows.
    """
    d, k = rmat.shape[1], cols.shape[1]
    at = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    c, a, _ = _margin_lps(rmat, at, cols)
    count, m, structural = a.shape
    diff = (rmat[at[:, 0]] - rmat[cols[:, 0]]).astype(np.float64)
    sign = np.where(diff >= 0, 1.0, -1.0)
    tabs = np.zeros((count, m + 1, structural + m + 1))
    tabs[:, :m, :structural] = a
    tabs[:, d, structural + d:] = 1.0
    rows = tabs[:, :d]
    rows[:, :, d:d + k] += diff[:, :, None]
    rows[:, np.arange(d), structural + np.arange(d)] = 1.0
    rows[:, :, structural + d] = rows[:, :, -1] = diff
    rows *= sign[:, :, None]
    rows += 0.0  # turns the -0.0 of -1 times 0 into 0.0
    tabs[:, m, :structural] = c
    tabs[:, m] += rows.sum(axis=1)
    bases = np.empty((count, m), dtype=np.int64)
    bases[:, :d] = np.where(sign > 0, structural - d + np.arange(d), np.arange(d))
    bases[:, d] = d
    return tabs, bases


def _add_columns(tabs, bases, rmat, pairs, cols, k):
    """The final tableaux tabs of the margin LPs of pairs, at bases, with y
    columns for the vertices cols[:, k:] inserted after their first k: the
    tableaux of the margin LPs of pairs over cols at the same bases.

    A tableau's identity block holds B^-1 above minus the prices c_B B^-1
    in its objective row, and a y column costs 0, so that block times
    [x - u; 1] is the new column, its reduced cost included.  The new
    columns shift z+, z-, s+ and the basis indices at them along.
    """
    d = rmat.shape[1]
    m, at, add = d + 1, d + k, cols.shape[1] - k
    structural = tabs.shape[2] - m - 1
    u = np.array(pairs, dtype=np.int64).reshape(-1, 2)[:, 0]
    new = np.ones((len(u), m, add))
    new[:, :d] = rmat.T[:, cols[:, k:]].transpose(1, 0, 2) - rmat[u][:, :, None]
    new = tabs[:, :, structural:structural + m] @ new
    tabs = np.concatenate([tabs[:, :, :at], new, tabs[:, :, at:]], axis=2)
    return tabs, np.where(bases >= at, bases + add, bases)


def _solve_margin(rmat, u: int, v: int):
    """The face t* of (u, v), and a cost vector attaining it that is 0 where
    u and v agree, from the face LP over every vertex of the box, which
    must hold one.  _first_tableaux's start, whose entries are small
    integers, is lifted to Fractions and pivoted exactly."""
    at = np.array([[u, v]])
    face, slack = _faces(rmat, at)
    cols = _box_columns(slack == 0, int((slack == 0).sum()))
    tabs, bases = _first_tableaux(rmat, at, cols)
    tabs = np.frompyfunc(Fraction, 1, 1)(tabs.astype(np.int64).astype(object))
    if pivot_tableaux(tabs, bases, exact=True) != [OPTIMAL]:
        raise LpError("the exact face LP ended without an optimum")
    d, k = rmat.shape[1], cols.shape[1]
    # w is minus the coordinate rows' duals, and t minus the objective
    w = tabs[0, -1, 2 * d + k + 2:3 * d + k + 2]
    return np.where(face[0] == 0, w, Fraction(0)), tabs[0, -1, -1]


def _normalized_margins(rmat, u, v, w):
    """Per row of w: w / max|w| (zero stays zero), its gaps w.u - w.x to every
    vertex x (inf at u and v) and |w.u - w.v|.  Each row is scored by its
    own product, so its bits do not depend on the other rows."""
    scale = np.abs(w).max(axis=1)
    wn = w / np.where(scale == 0, 1, scale)[:, None]
    scores = (wn[:, None, :] @ rmat.T)[:, 0]
    lpi = np.arange(len(w))
    gaps = scores[lpi, u][:, None] - scores
    imbalance = np.abs(gaps[lpi, v])
    gaps[lpi, u] = gaps[lpi, v] = np.inf
    return wn, gaps, imbalance


def _lift(rmat, at, w):
    """Cost vectors of unit max-norm exposing each pair (u, v) of at on the
    whole polytope, and their margins, from face weights w that are 0 where
    u and v agree.

    Scaled to unit max-norm, w keeps every box vertex at least t below u,
    t > 0 being its face margin.  Adding lam c_F changes no box vertex's
    gap, as c_F.(u - x) = 0 there, and adds lam c_F.(u - x) >= lam to every
    other gap; the least lam >= 0 that lifts each of those to t or more
    exposes the pair with margin t / max(1, lam).
    """
    u, v = at.T
    face, slack = _faces(rmat, at)
    wn, gaps, _ = _normalized_margins(rmat, u, v, w)
    t = np.where(slack == 0, gaps, np.inf).min(axis=1)
    lam = np.where(slack > 0, (t[:, None] - gaps) / np.maximum(slack, 1), 0.0).max(axis=1)
    wn, gaps, _ = _normalized_margins(rmat, u, v, wn + lam[:, None] * face)
    return wn, gaps.min(axis=1)


def _decide_exact(rmat, u: int, v: int):
    w, t = _solve_margin(rmat, u, v)
    if t <= 0:
        return False, 0.0, "exact", None, 0.0
    wn, margin = _lift(rmat, np.array([[u, v]]), w[None].astype(np.float64))
    return True, float(margin[0]), "exact", tuple(wn[0].tolist()), float(t)


# y columns of a margin LP's first round, and of each later round; chosen on
# the p = 4 census LPs over every vertex, see CHANGES.md.
_START_COLUMNS = 40
_ROUND_COLUMNS = 24


def _face_lps(rmat, at, box, differ):
    """(w, t) per pair of at from its float face LP over the vertices of
    box, solved in lockstep by column generation; w is 0 where differ is
    False, and t is nan where the solve failed.

    Each LP starts with y columns for the first _START_COLUMNS vertices of
    its box, built by _first_tableaux, and is done once t <= 0, which
    proves a non-edge as t >= t*, or once its w leaves no other box vertex
    1e-9 below the least gap of its column vertices, as w is then optimal
    for the face LP.  The rest keep their final tableaux, which stay
    feasible, and get columns for the _ROUND_COLUMNS box vertices of least
    gap from _add_columns; no LP is built or inverted again.
    """
    d = rmat.shape[1]
    u, v = at.T
    w, t, live = np.zeros((len(at), d)), np.zeros(len(at)), np.arange(len(at))
    cols = _box_columns(box, min(box.sum(axis=1).max(), _START_COLUMNS))
    tabs, bases = _first_tableaux(rmat, at, cols)
    while True:
        k = cols.shape[1]
        solved = np.array([res == OPTIMAL for res in pivot_tableaux(tabs, bases)], dtype=bool)
        # w is minus the coordinate rows' duals, and t minus the objective
        w[live[solved]] = np.where(differ[live[solved]],
                                   tabs[solved, -1, 2 * d + k + 2:3 * d + k + 2], 0.0)
        t[live] = np.where(solved, tabs[:, -1, -1], np.nan)  # nan: decided exactly
        gaps = _normalized_margins(rmat, u[live], v[live], w[live])[1]
        gaps[~box[live]] = np.inf
        level = np.take_along_axis(gaps, cols, axis=1).min(axis=1)
        gaps[np.arange(len(live))[:, None], cols] = np.inf
        more = (t[live] > 0) & (gaps.min(axis=1) < level - 1e-9)
        if not more.any():
            return w, t
        gaps, cols, live = gaps[more], cols[more], live[more]
        left = np.isfinite(gaps).sum(axis=1)
        add = min(_ROUND_COLUMNS, left.max())
        new = np.argsort(gaps, axis=1, kind="stable")[:, :add]
        cols = np.concatenate([cols, np.where(np.arange(add) < left[:, None], new, cols[:, :1])],
                              axis=1)
        tabs, bases = _add_columns(tabs[more], bases[more], rmat, at[live], cols, k)


def _decide_pairs(rmat, pairs, exact: bool = False) -> list:
    """(u, v, is_edge, margin, mode, weights, objective) for each pair.

    Each pair is decided on its face.  The box of (u, v) is a face of the
    0/1 cube, so the vertices in it span a face of the polytope (see
    _faces), and a face of a face is a face: [u, v] is an edge of the
    polytope exactly when it is an edge of that face.  A box with no other
    vertex is a two-vertex face, decided with no LP: c_F exposes the pair,
    with every gap at least 1.

    The other pairs' face LPs are solved in float by _face_lps, or in
    Fractions by _decide_exact when exact is set.  A float decision reads
    the face t and the face margin, the least gap to a box vertex of w
    scaled to unit max-norm.  A pair whose LP ended at t <= _EXACT_LO is a
    float non-edge whatever its w, as w = 0 is feasible and so
    0 <= t* <= t; of the others, a failed solve, a w not level on (u, v)
    or a face margin in the exact window goes to _decide_exact.  An edge's
    w is lifted to the whole polytope by _lift, so its margin is over every
    vertex; its objective is the face t*.
    """
    at = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    face, slack = _faces(rmat, at)
    box = slack == 0
    out = [None] * len(at)
    flat = np.nonzero(~box.any(axis=1))[0]
    wn, gaps, _ = _normalized_margins(rmat, at[flat, 0], at[flat, 1], face[flat].astype(np.float64))
    for q, weights, margin in zip(flat.tolist(), wn.tolist(), gaps.min(axis=1).tolist()):
        out[q] = (*pairs[q], True, margin, "trivial", tuple(weights), math.inf)
    lp = np.nonzero(box.any(axis=1))[0]
    if exact or not lp.size:
        for q in lp.tolist():
            out[q] = (*pairs[q], *_decide_exact(rmat, *pairs[q]))
        return out
    sub = at[lp]
    w, t = _face_lps(rmat, sub, box[lp], face[lp] == 0)
    _, gaps, imbalance = _normalized_margins(rmat, sub[:, 0], sub[:, 1], w)
    margins = np.where(box[lp], gaps, np.inf).min(axis=1)
    edge = (t > _EXACT_LO) & (imbalance <= 1e-9) & (margins >= _EXACT_HI)
    lifted = zip(*_lift(rmat, sub[edge], w[edge]))
    for q, tq, margin, off, is_edge in zip(lp.tolist(), t.tolist(), margins.tolist(),
                                           imbalance.tolist(), edge.tolist()):
        pu, pv = pairs[q]
        if is_edge:
            weights, margin = next(lifted)
            out[q] = (pu, pv, True, float(margin), "float", tuple(weights.tolist()), tq)
        elif math.isnan(tq) or tq > _EXACT_LO and (off > 1e-9 or margin > _EXACT_LO):
            out[q] = (pu, pv, *_decide_exact(rmat, pu, pv))
        else:
            out[q] = (pu, pv, False, margin, "float", None, tq)
    return out


def certify_edge(u: int, v: int, vs: VertexSet, exact: bool = False) -> Optional[EdgeCertificate]:
    """Certificate that conv(u, v) is an edge of the polytope, or None.

    With exact=True the pair's face LP is solved in Fractions directly
    instead of the float path with its re-solve window.
    """
    if u == v:
        raise ValueError("vertex indices must be distinct")
    n = len(vs.matrix)
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError("vertex index out of range")
    varying, rmat = _restricted(vs)
    _, _, is_edge, *rest = _decide_pairs(rmat, [(u, v)], exact)[0]
    return _certificate(vs, varying, u, v, *rest) if is_edge else None


def _certificate(vs, varying, u, v, margin, mode, weights, objective) -> EdgeCertificate:
    """Lift restricted weights back to the full coordinates of vs."""
    full = [0.0] * len(vs.coords)
    for k, pos in enumerate(varying):
        full[pos] = weights[k]
    return EdgeCertificate(u, v, tuple(full), margin, objective, mode)


# Coordinates per base-3 key: 3**39 - 1 < 2**63, so a key of a row sum fits
# an int64.
_KEY_DIGITS = 39


def _midpoint_prefilter(matrix) -> np.ndarray:
    """Mask over the pairs of np.triu_indices(n, 1): True where the pair's
    midpoint provably lies in the hull of other vertices.

    If u + v = x + y for a different pair {x, y}, any exposing w would have
    to put both sums at the same maximum, so neither pair is an edge.  The
    same argument applies when u + v doubles a third vertex.  Each sum is
    keyed by its base-3 digits, one int64 per chunk of _KEY_DIGITS
    coordinates; a row's key plus another's is the key of their sum, since
    no digit exceeds 2.  Pair sums and doubled rows are sorted together,
    and a pair whose key equals a neighbour's is marked: doubled rows are
    pairwise distinct, so that neighbour is another pair or a double.
    """
    m = np.asarray(matrix, dtype=np.int64)
    n, d = m.shape
    chunks = np.arange(d) // _KEY_DIGITS
    weights = 3 ** (np.arange(d) % _KEY_DIGITS)
    keys = np.zeros((n, max(1, -(-d // _KEY_DIGITS))), dtype=np.int64)
    np.add.at(keys.T, chunks, (m * weights).T)
    i, j = np.triu_indices(n, 1)
    sums = np.concatenate([keys[i] + keys[j], 2 * keys])
    order = np.lexsort(sums.T[::-1])
    same = (sums[order[1:]] == sums[order[:-1]]).all(axis=1)
    collides = np.zeros(len(sums), dtype=bool)
    collides[order[1:]] |= same
    collides[order[:-1]] |= same
    return collides[:len(i)]


# Bytes of the first-round tableau stack of one lockstep batch of margin LPs
# (523 LPs at p = 4): enough LPs to spread each step's fixed numpy overhead,
# few enough that the stack stays small.  On a 2-CPU host, 1 to 8 MiB gave
# the same census time within noise, before column generation.
_BATCH_BYTES = 4 << 20


def _batch_size(rmat) -> int:
    """Margin LPs per lockstep batch, from the byte size of one tableau.

    A first-round margin LP has d + 1 rows and an objective row, and
    3d + k + 4 columns with its k y columns, the identity block and the
    rhs; k is at most min(n - 2, _START_COLUMNS).
    """
    n, d = rmat.shape
    tableau_bytes = 8 * (d + 2) * (3 * d + min(n - 2, _START_COLUMNS) + 4)
    return max(1, _BATCH_BYTES // tableau_bytes)


@dataclass(frozen=True)
class EdgeSurvey:
    """All certified edges of a vertex set, with their orbits and LP stats.

    orbits maps the first edge of each orbit of edges under _symmetries to
    the orbit's size.  certificates is built on first access, from the
    pairs that passed the prefilter: the pair walk of _orbit_tree that
    moves each witness to the other pairs of its orbit runs only then.
    seconds holds the wall-clock time of the prefilter and certify stages;
    it is kept out of stats so that stats stays deterministic.
    """

    edges: tuple
    orbits: dict
    stats: dict
    seconds: dict
    # vs, its relabellings, the decisions of the orbits' first pairs, and
    # the pairs that passed the prefilter
    _lift: tuple = field(repr=False, compare=False)

    @cached_property
    def certificates(self) -> dict:
        """Every edge's certificate.  An edge decided by symmetry takes the
        witness of the pair it was reached from, with the weights moved to
        its own coordinates."""
        vs, syms, decided, (i, j) = self._lift
        varying, _ = _restricted(vs)
        todo = list(zip(i.tolist(), j.tolist()))
        _, derived = _orbit_tree(todo, [g.rows for g in syms], _pair_image)
        decided = dict(decided)
        # under syms[s], restricted weight k of a pair moves to position moved[s][k]
        column = {pos: k for k, pos in enumerate(varying)}
        moved = [[column[g.coords[pos]] for pos in varying] for g in syms]
        for pair, source, s in derived:
            is_edge, margin, mode, weights, objective = decided[source]
            if is_edge:
                image = [0.0] * len(weights)
                for k, w in zip(moved[s], weights):
                    image[k] = w
                weights = tuple(image)
            decided[pair] = (is_edge, margin, mode, weights, objective)
        return {(u, v): _certificate(vs, varying, u, v, *decided[(u, v)][1:])
                for u, v in self.edges}


def certify_all_edges(vs: VertexSet) -> EdgeSurvey:
    """Certify every vertex pair; deterministic regardless of batching.

    The pairs that pass the prefilter are labelled with the first pair of
    their orbit under the relabellings of _symmetries by _pair_orbits, and
    only those first pairs are decided, each on its face by _decide_pairs.
    These are cut into batches whose face LPs are solved in lockstep.
    Every other pair takes the decision of its orbit, read from the labels.
    """
    t0 = time.perf_counter()
    _, rmat = _restricted(vs)
    n = len(rmat)
    hit = _midpoint_prefilter(rmat)
    i, j = np.triu_indices(n, 1)
    i, j = i[~hit], j[~hit]
    t1 = time.perf_counter()
    syms = _symmetries(vs)
    label = _pair_orbits(i, j, n, [g.rows for g in syms])
    first = np.nonzero(label == np.arange(len(label)))[0]
    reps = list(zip(i[first].tolist(), j[first].tolist()))
    size = _batch_size(rmat)
    decided = {}
    for k in range(0, len(reps), size):
        for u, v, *decision in _decide_pairs(rmat, reps[k:k + size]):
            decided[(u, v)] = decision
    modes = Counter(decision[2] for decision in decided.values())
    is_edge = np.zeros(len(label), dtype=bool)
    is_edge[first] = [decided[pair][0] for pair in reps]
    edge = is_edge[label]
    edges = tuple(zip(i[edge].tolist(), j[edge].tolist()))
    sizes = np.bincount(label[edge], minlength=len(label))
    shown = first[is_edge[first]]
    orbits = dict(zip(zip(i[shown].tolist(), j[shown].tolist()), sizes[shown].tolist()))
    stats = {
        "pairs": n * (n - 1) // 2,
        "prefiltered": int(hit.sum()),
        "lp_solved": len(reps) - modes["trivial"],
        "two_vertex_faces": modes["trivial"],
        "by_symmetry": len(label) - len(reps),
        "exact_resolves": modes["exact"],
        "edges": len(edges),
    }
    seconds = {"prefilter": t1 - t0, "certify": time.perf_counter() - t1}
    return EdgeSurvey(edges, orbits, stats, seconds, (vs, syms, decided, (i, j)))


# ---------------------------------------------------------------------------
# Edge classification and census


def _pair_move_kinds(vs: VertexSet) -> dict:
    """Map vertex pair -> set of move kinds whose delta joins the pair.

    A relabelling of the nodes maps a class's moves to its image's moves of
    the same kinds, so the moves are enumerated for the first class of each
    orbit under _symmetries and carried along to the rest of the orbit.  An
    edge move adds or removes one skeleton edge, so edge moves are skipped
    for a class when no class of vs has such a skeleton.
    """
    skeletons = {mec.skeleton.edges for mec in vs.mecs}
    perms = [g.rows for g in _symmetries(vs)]
    reps, derived = _orbit_tree(range(len(vs)), perms, lambda i, perm: perm[i])
    targets = _move_targets(vs)
    found = {}
    for i in reps:
        mec = vs.mecs[i]
        found[i] = targets(i, _raw_turn_candidates(mec, None))
        if any(len(mec.skeleton.edges ^ s) == 1 for s in skeletons):
            found[i] += targets(i, _raw_edge_candidates(mec, None))
        if mec.skeleton.is_tree() or mec.skeleton.is_single_cycle():
            found[i] += targets(i, _raw_tree_candidates(mec))
    for i, source, k in derived:
        found[i] = [(perms[k][j], kind) for j, kind in found[source]]
    kinds = {}
    for i, targets in found.items():
        for j, kind in targets:
            kinds.setdefault((min(i, j), max(i, j)), set()).add(kind)
    return kinds


@lru_cache(maxsize=4096)
def _canonical_skeleton(g: UndirectedGraph) -> tuple:
    """The lexicographically smallest sorted edge tuple of any relabelling of g.

    Of two relabellings with the same edge count, the smaller edge tuple
    has the larger upper triangle of the adjacency matrix, read row by row.
    Labels 0, 1, ... are handed out in turn by branch and bound.  A partial
    labelling is dropped when the best triangle it could still reach is no
    larger than the best found: its rows as far as known, each then filled
    with as many ones as the row's node has unlabelled neighbours, then
    ones for all edges among the unlabelled nodes.  Of two unlabelled twins
    (nodes with the same other neighbours) only the first is tried, since
    swapping them is an automorphism.
    """
    p = g.p
    adj = _adjacency(p, g.edges)
    twins = [sum(1 << x for x in range(y)
                 if adj[x] & ~(1 << y) == adj[y] & ~(1 << x)) for y in range(p)]
    best = [()]

    def bound(order, free):
        bits = []
        for a, x in enumerate(order):
            bits.extend(adj[x] >> order[b] & 1 for b in range(a + 1, len(order)))
            rest = (adj[x] & free).bit_count()
            bits.extend([1] * rest + [0] * (p - len(order) - rest))
        inner = sum((adj[x] & free).bit_count() for x in _bits(free)) // 2
        tail = (p - len(order)) * (p - len(order) - 1) // 2
        return tuple(bits + [1] * inner + [0] * (tail - inner))

    def search(order, free):
        if not free:
            best[0] = max(best[0], bound(order, free))
            return
        children = sorted(
            ((bound(order + [x], free & ~(1 << x)), x)
             for x in _bits(free) if not twins[x] & free),
            reverse=True)
        for b, x in children:
            if b <= best[0]:
                break
            search(order + [x], free & ~(1 << x))

    search([], (1 << p) - 1)
    pairs = itertools.combinations(range(p), 2)
    return tuple(pair for pair, bit in zip(pairs, best[0]) if bit)


def classify_edges(vs: VertexSet, edges: Iterable, kinds: dict) -> dict:
    """Tag each certified edge with the first matching move family.

    Families are tried in a fixed order; every further family that also
    matches is kept in the tags list, so overlaps stay visible.  An edge
    pair whose vectors differ in exactly one coordinate (necessarily the
    2-set of the gained edge) is an edge addition.  kinds is the pair map
    _pair_move_kinds(vs), which the caller computes once per census.
    """
    tags = {}
    for (i, j) in edges:
        matched = [k for k in _FAMILY_ORDER if k in kinds.get((i, j), ())]
        if not matched:
            tags[(i, j)] = (UNCLASSIFIED,)
            continue
        resolved = []
        for kind in matched:
            if kind == EDGE_PAIR:
                differing = sum(
                    1 for a, b in zip(vs.matrix[i], vs.matrix[j]) if a != b
                )
                kind = EDGE_ADDITION if differing == 1 else EDGE_PAIR_OTHER
            resolved.append(kind)
        tags[(i, j)] = tuple(resolved)
    return tags


def edge_census(vs: VertexSet, seconds: Optional[dict] = None) -> dict:
    """Full LP census of the polytope's edges, grouped the way the counts
    are usually reported: turn pairs by kind, edge pairs by addition status,
    and same-skeleton non-turn edges by skeleton isomorphism class.

    If a dict is passed as seconds, the wall-clock times of the prefilter,
    certify and classify stages are stored in it; the census itself holds
    only deterministic counts.
    """
    survey = certify_all_edges(vs)
    start = time.perf_counter()
    kinds = _pair_move_kinds(vs)
    # a relabelling keeps move kinds, permutes coordinates and keeps skeleton
    # classes, so an orbit's edges share its first edge's tags and count by its size
    tags = classify_edges(vs, survey.orbits, kinds)
    uncertified_moves = sorted(set(kinds) - set(survey.edges))

    counts = dict.fromkeys((V_STRUCTURE_ADDITION, BUDDING, FLIP, EDGE_ADDITION,
                            EDGE_PAIR_OTHER, SHIFT, SPLIT, UNCLASSIFIED), 0)
    multiplicities = same_turn = same_non_turn = 0
    by_class = {}
    for (i, j), size in survey.orbits.items():
        primary = tags[(i, j)][0]
        counts[primary] += size
        if len(tags[(i, j)]) > 1:
            multiplicities += size
        if vs.mecs[i].skeleton != vs.mecs[j].skeleton:
            continue
        if primary in TURN_KINDS:
            same_turn += size
        else:
            same_non_turn += size
            canon = _canonical_skeleton(vs.mecs[i].skeleton)
            by_class[canon] = by_class.get(canon, 0) + size

    turn_total = counts[V_STRUCTURE_ADDITION] + counts[BUDDING] + counts[FLIP]
    class_rows = sorted(
        ({"skeleton_edges": [list(e) for e in canon],
          "degree_sequence": sorted(sum(x in e for e in canon) for x in range(vs.p)),
          "count": cnt} for canon, cnt in by_class.items()),
        key=lambda r: (-r["count"], r["skeleton_edges"]))

    if seconds is not None:
        seconds.update(survey.seconds, classify=time.perf_counter() - start)
    return {
        "p": vs.p,
        "vertices": len(vs),
        "total_edges": len(survey.edges),
        "v_structure_additions": counts[V_STRUCTURE_ADDITION],
        "buddings": counts[BUDDING],
        "flips": counts[FLIP],
        "turn_pairs": turn_total,
        "edge_additions": counts[EDGE_ADDITION],
        "edge_pairs_not_additions": counts[EDGE_PAIR_OTHER],
        "edge_pairs": counts[EDGE_ADDITION] + counts[EDGE_PAIR_OTHER],
        "shifts": counts[SHIFT],
        "splits": counts[SPLIT],
        "unclassified": counts[UNCLASSIFIED],
        "same_skeleton_edges": same_turn + same_non_turn,
        "same_skeleton_turn": same_turn,
        "same_skeleton_non_turn": same_non_turn,
        "same_skeleton_non_turn_by_class": class_rows,
        "tag_multiplicities": multiplicities,
        "moves_not_certified": [list(p) for p in uncertified_moves],
        "lp_stats": survey.stats,
    }


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
        found = targets(i, _raw_turn_candidates(mec, None),
                        lambda m: m.kind == V_STRUCTURE_ADDITION)
        found += targets(i, _raw_tree_candidates(mec))
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
    """Whether turn moves alone connect every MEC on the fixed skeleton g."""
    mecs = [mec for mec, _ in _mecs_with_skeleton(g)]
    index = {mec: k for k, mec in enumerate(mecs)}
    parent = list(range(len(mecs)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for mec in mecs:
        for _, target in enumerate_turn_moves(mec):
            a, b = find(index[mec]), find(index[target])
            if a != b:
                parent[a] = b
    roots = {find(k) for k in range(len(mecs))}
    return len(roots) <= 1
