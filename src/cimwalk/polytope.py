"""Vertex sets, LP edge certification, and edge censuses for small imset polytopes.

Vertices are characteristic imsets of MECs, held as dense 0/1 vectors indexed
by the subsets of {0..p-1} with at least two elements.  A pair of vertices
spans an edge exactly when some cost vector exposes the pair: w.u = w.v while
every other vertex scores strictly lower.  The exposure problem is solved as
a small LP, and certified edges are then classified by matching their imset
deltas against the move enumerators.

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

# consistent_extension and full_imset are not called here; they stay
# importable for perfbench's tracer, which wraps them in this module.
from .graphs import (
    GraphError,
    Mec,
    UndirectedGraph,
    _adjacency,
    _bits,
    acyclic_orientations,
    all_classes,
    consistent_extension,
    mec_of,
    skeleton_classes,
)
from .imset import full_imset, mask_entry, subset_key
from .lp import OPTIMAL, LpError, simplex_max, simplex_max_many
from .moves import (
    EDGE_PAIR,
    SHIFT,
    SPLIT,
    TURN_KINDS,
    V_STRUCTURE_ADDITION,
    BUDDING,
    FLIP,
    enumerate_edge_moves,
    enumerate_tree_moves,
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

    Rows are sorted by vector, so the order is reproducible for a given set
    of classes.  All vectors are pairwise distinct.
    """

    p: int
    mecs: tuple
    coords: tuple
    matrix: tuple

    def __len__(self) -> int:
        return len(self.mecs)


def _all_coords(p: int) -> tuple:
    out = []
    for size in range(2, p + 1):
        out.extend(itertools.combinations(range(p), size))
    return tuple(out)


def _build_vertex_set(p: int, classes: Iterable) -> VertexSet:
    """The vertex set of (Mec, parent bitmasks of a member DAG) pairs; each
    row is read from the masks with the imset entry rule."""
    coords = _all_coords(p)
    masks = [sum(1 << x for x in key) for key in coords]
    rows = [(tuple([mask_entry(parents, s) for s in masks]), mec) for mec, parents in classes]
    rows.sort(key=lambda rv: rv[0])
    matrix = tuple(r for r, _ in rows)
    if len(set(matrix)) != len(matrix):
        raise GraphError("imset vectors are not pairwise distinct")
    return VertexSet(p, tuple(m for _, m in rows), coords, matrix)


@lru_cache(maxsize=64)
def _mec_index(vs: VertexSet) -> dict:
    """Row of each class; rows have pairwise distinct imsets, so this finds a
    class's row without building its imset."""
    return {mec: i for i, mec in enumerate(vs.mecs)}


@lru_cache(maxsize=64)
def _coord_pos(vs: VertexSet) -> dict:
    return {key: k for k, key in enumerate(vs.coords)}


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
        cp = tuple(pos[tuple(sorted(img[x] for x in key))] for key in vs.coords)
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


# ---------------------------------------------------------------------------
# LP edge certification


@dataclass(frozen=True)
class EdgeCertificate:
    """A cost vector exposing the pair (u, v), with its separation margin.

    weights is aligned with the parent vertex set's coords; margin is the
    smallest gap w.u - w.x over all other vertices after scaling w to unit
    max-norm.  mode records which arithmetic decided the pair.
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


def _margin_lps(rmat, pairs, cols=None):
    """(c, a, b) of the equality-form LPs that give the exposure margins of pairs.

    The margin LP of (u, v)  max t  s.t.  w.(u - v) = 0,  w.(u - x) >= t for
    every other vertex x,  w in [-1, 1]^d  is posed in its dual form

        min |r|_1,  r = sum_x y_x (u - x) + z (u - v),  y >= 0,  sum_x y_x = 1,

    with z free.  The residual is split as r = s+ - s-, so the rows are the d
    coordinate equations s+ - s- - r = 0 and the convexity row, and the
    tableau has d + 1 rows whatever the vertex count.  Columns run s-, y,
    z+, z-, s+; of the orders tried for the two-phase solve, this one took
    the fewest Bland pivots on the p = 4 polytope.  cols lists the y
    vertices per pair, by default all but u and v in index order; with
    fewer, the LP is a relaxation whose optimum t bounds t* from above.  c
    and b are shared; a holds one matrix per pair, and _margin_start gives
    a feasible basis to start each from.
    """
    n, d = rmat.shape
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    rest = np.arange(n)
    if cols is None:
        cols = np.nonzero((rest != u[:, None]) & (rest != v[:, None]))[1].reshape(-1, n - 2)
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


def _distances(rmat, pairs):
    """Per pair, |u - x|_1 + |v - x|_1 <= 2d for every vertex x, and 2d + 1
    for u and v, in the smallest dtype holding 2d + 1, where a stable sort
    is a radix sort; rows are 0/1, so |u - x|_1 = |u| + |x| - 2 u.x."""
    at, top = np.array(pairs, dtype=np.int64).reshape(-1, 2), 2 * rmat.shape[1] + 1
    sums = rmat[at[:, 0]] + rmat[at[:, 1]]
    dist = sums.sum(axis=1)[:, None] + 2 * rmat.sum(axis=1) - 2 * sums @ rmat.T
    np.put_along_axis(dist, at, top, axis=1)
    return dist.astype(np.min_scalar_type(top))


def _margin_start(rmat, pairs, cols=None):
    """A feasible starting basis for each margin LP of _margin_lps(rmat,
    pairs, cols), one column per row.

    y = e_x0 for the other vertex x0 nearest to u and v in summed l1
    distance (the first on ties), which cols must hold, z = 0, and in
    coordinate row i the residual u_i - x0_i carried by s+_i where it is
    >= 0 and by s-_i where it is negative.  The basis matrix is a signed
    identity plus the y_x0 column, so it is never singular.
    """
    n, d = rmat.shape
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    k = n - 2 if cols is None else cols.shape[1]
    x0 = _distances(rmat, pairs).argmin(axis=1)
    coord = np.arange(d)
    start = np.empty((len(u), d + 1), dtype=np.int64)
    start[:, :d] = np.where(rmat[u] >= rmat[x0], d + k + 2 + coord, coord)
    # y_x0 is column d + (position of x0 in cols)
    pos = x0 - (x0 > u) - (x0 > v) if cols is None else (cols == x0[:, None]).argmax(axis=1)
    start[:, d] = d + pos
    return start


def _margin_solution(res, d: int):
    """(w, t*) from a solved margin LP: strong duality gives the optimum t*,
    and minus the duals of the d coordinate rows is an optimal w."""
    if isinstance(res, LpError):
        raise res
    if res.status != OPTIMAL:
        raise LpError(f"margin LP ended with status {res.status}")
    return -np.array(res.duals[:d]), -res.objective


def _solve_margin(rmat, u: int, v: int, exact: bool):
    """The largest exposure margin t* of (u, v), and a cost vector attaining it."""
    c, a, b = _margin_lps(rmat, [(u, v)])
    start = _margin_start(rmat, [(u, v)])[0]
    res = simplex_max(c, a[0], b, start, exact=exact)
    return _margin_solution(res, rmat.shape[1])


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


def _decide_exact(rmat, u: int, v: int):
    w, t = _solve_margin(rmat, u, v, exact=True)
    if t <= 0:
        return False, 0.0, "exact", None, 0.0
    wn, gaps, _ = _normalized_margins(rmat, [u], [v], w[None])
    return True, float(gaps.min()), "exact", tuple(float(x) for x in wn[0]), float(t)


# y columns of a margin LP's first round, and of each later round; chosen on
# the p = 4 census LPs, see CHANGES.md.
_START_COLUMNS = 40
_ROUND_COLUMNS = 24


def _decide_pairs(rmat, pairs) -> list:
    """(u, v, is_edge, margin, mode, weights, objective) for each pair.

    The float margin LPs are solved in lockstep by column generation.  Each
    starts with y columns for the _START_COLUMNS vertices nearest its pair
    and is done once t <= 0, which proves a non-edge as t >= t*, or once
    its w leaves no other vertex 1e-9 below the least gap of its column
    vertices, as w is then optimal for the full LP.  The rest get columns
    for the _ROUND_COLUMNS vertices of least gap and restart from their
    final bases, which stay feasible.  A failed solve, a w not level on
    (u, v) or a final margin in the exact window goes to _decide_exact.
    """
    if len(rmat) == 2:
        zeros = tuple(0.0 for _ in rmat[0])
        return [(u, v, True, math.inf, "trivial", zeros, math.inf) for u, v in pairs]
    n, d = rmat.shape
    at = np.array(pairs, dtype=np.int64).reshape(-1, 2)
    u, v = at.T
    w, t, live = np.zeros((len(at), d)), np.zeros(len(at)), np.arange(len(at))
    cols = np.argsort(_distances(rmat, at), axis=1, kind="stable")[:, :min(n - 2, _START_COLUMNS)]
    start = _margin_start(rmat, at, cols)
    while live.size:
        c, a, b = _margin_lps(rmat, at[live], cols)
        for slot, (q, res) in enumerate(zip(live, simplex_max_many(c, a, [b] * len(live), start))):
            try:
                w[q], t[q] = _margin_solution(res, d)
                start[slot] = res.basis
            except LpError:
                t[q] = np.nan  # decided exactly
        gaps = _normalized_margins(rmat, u[live], v[live], w[live])[1]
        level = np.take_along_axis(gaps, cols, axis=1).min(axis=1)
        gaps[np.arange(len(live))[:, None], cols] = np.inf
        more = (t[live] > 0) & (gaps.min(axis=1) < level - 1e-9)
        k, add = cols.shape[1], min(_ROUND_COLUMNS, n - 2 - cols.shape[1])
        new = np.argsort(gaps[more], axis=1, kind="stable")[:, :add]
        cols = np.concatenate([cols[more], new], axis=1)
        # the new y columns shift z+, z- and s+ along
        start = np.where(start[more] >= d + k, start[more] + add, start[more])
        live = live[more]
    wn, gaps, imbalance = _normalized_margins(rmat, u, v, w)
    margins = gaps.min(axis=1).tolist()
    out = []
    for q, (pu, pv) in enumerate(pairs):
        if np.isnan(t[q]) or imbalance[q] > 1e-9 or _EXACT_LO < margins[q] < _EXACT_HI:
            out.append((pu, pv, *_decide_exact(rmat, pu, pv)))
        else:
            edge = margins[q] > EDGE_TOL
            weights = tuple(wn[q].tolist()) if edge else None
            out.append((pu, pv, edge, margins[q], "float", weights, float(t[q])))
    return out


def certify_edge(u: int, v: int, vs: VertexSet, exact: bool = False) -> Optional[EdgeCertificate]:
    """Certificate that conv(u, v) is an edge of the polytope, or None.

    With exact=True the rational solve is used directly instead of the float
    path with its re-solve window.
    """
    if u == v:
        raise ValueError("vertex indices must be distinct")
    n = len(vs.matrix)
    if not (0 <= u < n and 0 <= v < n):
        raise ValueError("vertex index out of range")
    varying, rmat = _restricted(vs)
    exact = exact and len(rmat) > 2
    is_edge, *rest = _decide_exact(rmat, u, v) if exact else _decide_pairs(rmat, [(u, v)])[0][2:]
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
    3d + k + 4 columns with its k y columns, the identity block and the rhs.
    """
    n, d = rmat.shape
    tableau_bytes = 8 * (d + 2) * (3 * d + min(n - 2, _START_COLUMNS) + 4)
    return max(1, _BATCH_BYTES // tableau_bytes)


@dataclass(frozen=True)
class EdgeSurvey:
    """All certified edges of a vertex set, with their orbits and LP stats.

    orbits maps the first edge of each orbit of edges under _symmetries to
    the orbit's size.  certificates is built on first access.  seconds
    holds the wall-clock time of the prefilter and certify stages; it is
    kept out of stats so that stats stays deterministic.
    """

    edges: tuple
    orbits: dict
    stats: dict
    seconds: dict
    # vs, its relabellings, and the decisions and walk of certify_all_edges
    _lift: tuple = field(repr=False, compare=False)

    @cached_property
    def certificates(self) -> dict:
        """Every edge's certificate.  An edge decided by symmetry takes the
        witness of the pair it was reached from, with the weights moved to
        its own coordinates."""
        vs, syms, decided, derived = self._lift
        varying, _ = _restricted(vs)
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

    The pairs that pass the prefilter are split into orbits under the
    relabellings of _symmetries, and only the first pair of each orbit has
    its margin LP solved.  These are cut into batches whose margin LPs are
    solved in lockstep.  Every other pair takes the decision of its orbit.
    """
    t0 = time.perf_counter()
    _, rmat = _restricted(vs)
    n = len(rmat)
    hit = _midpoint_prefilter(rmat)
    i, j = np.triu_indices(n, 1)
    todo = list(zip(i[~hit].tolist(), j[~hit].tolist()))
    t1 = time.perf_counter()
    syms = _symmetries(vs)
    reps, derived = _orbit_tree(todo, [g.rows for g in syms], _pair_image)
    size = _batch_size(rmat)
    decided = {}
    exact_used = 0
    for k in range(0, len(reps), size):
        for u, v, *decision in _decide_pairs(rmat, reps[k:k + size]):
            if decision[1] == "exact":
                exact_used += 1
            decided[(u, v)] = decision
    root = {pair: pair for pair in reps}
    for pair, source, _ in derived:
        root[pair] = root[source]
    edges = [pair for pair in todo if decided[root[pair]][0]]
    orbits = Counter(root[pair] for pair in edges)
    stats = {
        "pairs": n * (n - 1) // 2,
        "prefiltered": int(hit.sum()),
        "lp_solved": len(reps),
        "by_symmetry": len(derived),
        "exact_resolves": exact_used,
        "edges": len(edges),
    }
    seconds = {"prefilter": t1 - t0, "certify": time.perf_counter() - t1}
    return EdgeSurvey(tuple(edges), orbits, stats, seconds, (vs, syms, decided, derived))


# ---------------------------------------------------------------------------
# Edge classification and census


@lru_cache(maxsize=100_000)
def _member_dags(mec: Mec) -> tuple:
    """Every DAG in the class, via acyclic orientations of the skeleton."""
    return tuple(dag for dag in acyclic_orientations(mec.skeleton) if mec_of(dag) == mec)


def _pair_move_kinds(vs: VertexSet) -> dict:
    """Map vertex pair -> set of move kinds whose delta joins the pair.

    A relabelling of the nodes maps a class's moves to its image's moves of
    the same kinds, so the moves are enumerated for the first class of each
    orbit under _symmetries and carried along to the rest of the orbit.  An
    edge move adds or removes one skeleton edge, so edge moves are skipped
    for a class when no class of vs has such a skeleton.
    """
    index = _mec_index(vs)
    skeletons = {mec.skeleton.edges for mec in vs.mecs}
    perms = [g.rows for g in _symmetries(vs)]
    reps, derived = _orbit_tree(range(len(vs)), perms, lambda i, perm: perm[i])
    found = {}
    for i in reps:
        mec = vs.mecs[i]
        moves = enumerate_turn_moves(mec)
        if any(len(mec.skeleton.edges ^ s) == 1 for s in skeletons):
            moves += enumerate_edge_moves(mec)
        if mec.skeleton.is_tree() or mec.skeleton.is_single_cycle():
            moves += enumerate_tree_moves(mec)
        targets = ((index.get(target), move.kind) for move, target in moves)
        found[i] = [(j, kind) for j, kind in targets if j is not None and j != i]
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
    pairs; entries for larger sets are zero and omitted.
    """
    if h.p != h_prime.p:
        raise GraphError("graphs must share a node set")
    if not h.edges <= h_prime.edges:
        raise GraphError("first graph must be a subgraph of the second")
    out = {}
    for pair in itertools.combinations(range(h.p), 2):
        key = subset_key(pair)
        if key in h.edges:
            out[key] = 1
        elif key in h_prime.edges:
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
    if kind == "path":
        if not 2 <= p <= 9:
            raise GraphError("paths supported for 2 <= p <= 9")
        g = path_graph(p)
        ground = p - 2

        def adjacent(a, b):
            return abs(a - b) == 1

        def triple_of(idx):
            return subset_key((idx, idx + 1, idx + 2))

        def ground_of(center):
            return center - 1

    elif kind == "cycle":
        if not 4 <= p <= 9:
            raise GraphError("cycles supported for 4 <= p <= 9")
        g = cycle_graph(p)
        ground = p

        def adjacent(a, b):
            return (a - b) % p in (1, p - 1)

        def triple_of(idx):
            return subset_key(((idx - 1) % p, idx, (idx + 1) % p))

        def ground_of(center):
            return center

    else:
        raise GraphError("kind must be 'path' or 'cycle'")

    vs = enumerate_mecs_with_skeleton(g)
    stables = _stable_sets(ground, adjacent)
    expected = {frozenset(triple_of(i) for i in s) for s in stables}

    vertex_sets = []
    coordinate_ok = True
    for i, mec in enumerate(vs.mecs):
        triples = frozenset(subset_key(v.nodes()) for v in mec.vstructs)
        vertex_sets.append(frozenset(ground_of(v.collider) for v in mec.vstructs))
        ones = {key for key, bit in zip(vs.coords, vs.matrix[i]) if bit}
        if ones != set(g.edges) | set(triples):
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
    index = _mec_index(vs)
    for i, mec in enumerate(vs.mecs):
        moves = [
            (m, t)
            for m, t in enumerate_turn_moves(mec)
            if m.kind == V_STRUCTURE_ADDITION
        ]
        moves.extend(enumerate_tree_moves(mec))
        for move, target in moves:
            j = index.get(target)
            if j is not None and j != i:
                classified.add((min(i, j), max(i, j)))

    return {
        "kind": kind,
        "p": p,
        "vertices": len(vs),
        "stable_sets": len(stables),
        "count_match": len(vs) == len(stables),
        "bijection_match": actual == expected,
        "missing_stable_sets": sorted(sorted(s) for s in (expected - actual)),
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
        g = star_over_cliques(p, partition)
        vs = enumerate_mecs_with_skeleton(g)
        d = 2 ** (p - 1) - 1 - sum(2 ** s - 1 for s in partition)
        base = vs.matrix[0]
        diffs = [
            [a - b for a, b in zip(row, base)] for row in vs.matrix[1:]
        ]
        rank = exact_rank(diffs) if diffs else 0
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
        bmat = poset_b_matrix(tails, lambda r, q: r == frozenset() or r <= q)
        report["basis_checks"].append(
            {
                "poset": f"center-tails p={p} partition={list(partition)}",
                "size": len(tails),
                "rank": exact_rank(bmat),
                "full_rank": exact_rank(bmat) == len(tails),
            }
        )

    g = complete_minus_edge(p)
    vs = enumerate_mecs_with_skeleton(g)
    d = 2 ** (p - 2) - 1
    base = vs.matrix[0]
    diffs = [[a - b for a, b in zip(row, base)] for row in vs.matrix[1:]]
    rank = exact_rank(diffs) if diffs else 0
    ok = len(vs) == d + 1 and rank == d
    overall = overall and ok
    report["complete_minus_edge"] = {
        "dimension": d,
        "vertices": len(vs),
        "affine_rank": rank,
        "ok": ok,
    }

    chain = list(range(6))
    bmat = poset_b_matrix(chain, lambda r, q: r <= q)
    report["basis_checks"].append(
        {
            "poset": "chain-6",
            "size": 6,
            "rank": exact_rank(bmat),
            "full_rank": exact_rank(bmat) == 6,
        }
    )
    subsets = [frozenset(s) for size in range(4) for s in itertools.combinations(range(3), size)]
    bmat = poset_b_matrix(subsets, lambda r, q: r <= q)
    report["basis_checks"].append(
        {
            "poset": "subset-lattice-3",
            "size": len(subsets),
            "rank": exact_rank(bmat),
            "full_rank": exact_rank(bmat) == len(subsets),
        }
    )
    overall = overall and all(b["full_rank"] for b in report["basis_checks"])
    report["ok"] = overall
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
