"""The margin LP over every vertex, the census's LP before faces.

The tests use it as the oracle that the face LPs of cimwalk.polytope must
agree with: the margin LP of a pair (u, v) with a y column for every other
vertex, its feasible start basis built from the vertex nearest the pair,
and the reading of (w, t*) from a solved LP.  The face LP of a pair, its
y columns limited to the pair's box, is built here too, for two-phase
solves.
"""

import numpy as np

from cimwalk import polytope
from cimwalk.lp import OPTIMAL, LpError


def distances(rmat, pairs):
    """Per pair, |u - x|_1 + |v - x|_1 for every vertex x, and 2d + 1 for u
    and v; rows are 0/1, so |u - x|_1 = |u| + |x| - 2 u.x."""
    at, top = np.array(pairs, dtype=np.int64).reshape(-1, 2), 2 * rmat.shape[1] + 1
    sums = rmat[at[:, 0]] + rmat[at[:, 1]]
    dist = sums.sum(axis=1)[:, None] + 2 * rmat.sum(axis=1) - 2 * sums @ rmat.T
    np.put_along_axis(dist, at, top, axis=1)
    return dist


def other_columns(n: int, pairs):
    """Per pair, every vertex but u and v, in index order."""
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    rest = np.arange(n)
    return np.nonzero((rest != u[:, None]) & (rest != v[:, None]))[1].reshape(-1, n - 2)


def margin_lps(rmat, pairs):
    """(c, a, b) of the margin LPs of pairs over every other vertex."""
    return polytope._margin_lps(rmat, pairs, other_columns(len(rmat), pairs))


def margin_start(rmat, pairs):
    """A feasible starting basis for each LP of margin_lps(rmat, pairs), one
    column per row.

    y = e_x0 for the other vertex x0 nearest to u and v in summed l1
    distance (the first on ties), z = 0, and in coordinate row i the
    residual u_i - x0_i carried by s+_i where it is >= 0 and by s-_i where
    it is negative.  The basis matrix is a signed identity plus the y_x0
    column, so it is never singular.
    """
    n, d = rmat.shape
    u, v = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    x0 = distances(rmat, pairs).argmin(axis=1)
    start = np.empty((len(u), d + 1), dtype=np.int64)
    start[:, :d] = np.where(rmat[u] >= rmat[x0], d + n + np.arange(d), np.arange(d))
    # y_x0 is column d + (position of x0 among the other vertices)
    start[:, d] = d + x0 - (x0 > u) - (x0 > v)
    return start


def margin_solution(res, d: int):
    """(w, t*) from a solved margin LP: strong duality gives the optimum t*,
    and minus the duals of the d coordinate rows is an optimal w."""
    if isinstance(res, LpError):
        raise res
    if res.status != OPTIMAL:
        raise LpError(f"margin LP ended with status {res.status}")
    return -np.array(res.duals[:d]), -res.objective


def face_lp(rmat, u: int, v: int):
    """(c, a, b) of the face LP of (u, v): the margin LP over the vertices of
    its box, the vertices that agree with u wherever u and v agree."""
    agree = rmat[u] == rmat[v]
    box = [x for x in range(len(rmat))
           if x not in (u, v) and (rmat[x][agree] == rmat[u][agree]).all()]
    c, a, b = polytope._margin_lps(rmat, [(u, v)], np.array([box]))
    return c, a[0], b
