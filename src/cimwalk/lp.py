"""Dense primal simplex with Bland's rule, run from a feasible basis the caller gives.

Solves  max c.x  s.t.  A x = b,  x >= 0,  starting from a basis of m columns
of A whose basic solution B^-1 b is nonnegative.  Each LP's tableau is
[A | I | b] with one objective row; the identity columns never enter the
basis, and after the pivots they hold B^-1, from which the row duals are
read.

One tableau layout and one pivot loop serve two arithmetic modes: float64
numpy arrays for speed, and Fraction object arrays with exact comparisons
for re-solves of numerically ambiguous instances.  Entering columns follow
Bland's smallest-index rule, which rules out cycling in the exact mode and
is harmless in the float mode.

pivot_tableaux pivots a stack of tableaux that are already canonical in
lockstep, so many LPs of one shape cost one numpy call per step, and a
caller can keep them between solves: a final tableau holds B^-1 in its
identity block and minus the prices c_B B^-1 in the objective row there,
so a column a of cost c_a added later enters as that block times a, plus
c_a in the objective row, with no inverse computed: the warm start of
column generation.  simplex_max solves one LP: it builds the tableau,
moves it to the start basis and pivots it as a stack of one, and returns
an LpResult with the row duals as well as the primal point, or raises
LpError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"

_MAX_PIVOTS = 50_000


class LpError(RuntimeError):
    pass


@dataclass
class LpResult:
    status: str
    x: Sequence
    objective: object
    duals: Sequence = ()
    basis: Sequence = ()


def pivot_tableaux(stack, basis, exact: bool = False) -> list:
    """Pivot canonical tableaux to their optima, in place.

    stack is (count, m + 1, n + m + 1): each LP's B^-1 [A | I | b] at the
    basis basis[k], with the objective row c - c_B B^-1 A last (zero on
    the basic columns, -c_B B^-1 b in its rhs cell).  Only the n
    structural columns enter.

    At each step every LP still running picks its entering column (the
    first positive reduced cost) and its leaving row (the smallest ratio,
    ties to the smallest basis index), and all of them pivot at once with
    elementwise arithmetic, so each tableau ends where a solve on its own
    would, bit for bit in float.  Exact stacks of Fractions compare with no
    tolerance, and every value written into them is a Fraction.  The pivots
    run on a copy; a finished tableau is written back into stack and basis
    and leaves the running set.  Returns one outcome per LP: OPTIMAL,
    UNBOUNDED, or None where the pivot limit was hit.
    """
    count, rows, width = stack.shape
    if not count:
        return []
    m, n = rows - 1, width - rows
    zero = Fraction(0) if exact else 0.0
    tol = zero if exact else 1e-9
    outcome = [None] * count
    # the running LPs are tab[:count]; live maps a slot to its LP in stack
    tab, bas = stack.copy(), basis.copy()
    live = np.arange(count)
    for _ in range(_MAX_PIVOTS):
        t, b = tab[:count], bas[:count]
        cand = t[:, m, :n] > tol
        enter = cand.argmax(axis=1)
        col = t[np.arange(count), :m, enter]
        pos = col > tol
        optimal = ~cand.any(axis=1)
        done = optimal | ~pos.any(axis=1)
        if done.any():
            finished = np.nonzero(done)[0]
            for q in finished:
                outcome[live[q]] = OPTIMAL if optimal[q] else UNBOUNDED
            stack[live[finished]] = t[finished]
            basis[live[finished]] = b[finished]
            count -= len(finished)
            if not count:
                break
            # refill the freed slots below count from the running LPs above it
            holes = finished[finished < count]
            movers = count + np.nonzero(~done[count:])[0]
            for arr in (tab, bas, live, enter, col, pos):
                arr[holes] = arr[movers]
            t, b = tab[:count], bas[:count]
            enter, col, pos = enter[:count], col[:count], pos[:count]
        ratios = np.divide(t[:, :m, -1], col, where=pos,
                           out=np.full(col.shape, np.inf, dtype=t.dtype))
        best = ratios.min(axis=1, keepdims=True)
        near = pos & (ratios <= (best if exact else best + 1e-12 + 1e-9 * np.abs(best)))
        leave = np.where(near, b, width).argmin(axis=1)
        idx = np.arange(count)
        row = t[idx, leave] / t[idx, leave, enter][:, None]
        t[idx, leave] = row
        factors = t[idx, :, enter]
        factors[idx, leave] = zero
        t -= factors[:, :, None] * row[:, None, :]
        b[idx, leave] = enter
    return outcome


def _enter_basis(tableau, start, exact: bool) -> None:
    """Turn a tableau [A | I | b] over c into B^-1 [A | I | b] for the basis
    start, in place, or raise LpError for a singular or infeasible start.

    start holds the column made basic in each row.  The objective row
    becomes c - c_B B^-1 A with -c_B B^-1 b in its rhs cell.  A float
    tableau is multiplied by the basis inverse; an exact one is pivoted
    column by column, swapping in a later row where a pivot entry is zero.
    """
    m = len(tableau) - 1
    if exact:
        for i, col in enumerate(start):
            nonzero = [r for r in range(i, m) if tableau[r, col] != 0]
            if not nonzero:
                raise LpError("singular start basis")
            tableau[[i, nonzero[0]]] = tableau[[nonzero[0], i]]
            tableau[i] = tableau[i] / tableau[i, col]
            factors = tableau[:, col].copy()
            factors[i] = Fraction(0)
            tableau -= np.outer(factors, tableau[i])
        if (tableau[:m, -1] < 0).any():
            raise LpError("infeasible start basis")
        return
    # a nearly singular basis leaves inf or nan behind, and is caught below
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        try:
            inverse = np.linalg.inv(tableau[:m, start])
        except np.linalg.LinAlgError:
            raise LpError("singular start basis") from None
        prices = tableau[m, start][None] @ inverse
        tableau[m] -= (prices @ tableau[:m])[0]
        tableau[:m] = inverse @ tableau[:m]
        singular = not (np.abs(tableau[:m, start] - np.eye(m)) <= 1e-9).all()
        infeasible = (tableau[:m, -1] < -1e-7).any()
    if singular:
        raise LpError("singular start basis")
    if infeasible:
        raise LpError("infeasible start basis")
    # the basic columns are exactly the unit vectors of their rows
    tableau[:m, start] = np.eye(m)
    tableau[m, start] = 0.0


def simplex_max(c, a, b, start, exact: bool = False) -> LpResult:
    """Maximize c.x subject to a x = b and x >= 0, from the basis start.

    a may be a nested sequence or a 2-d array.  start holds one column of a
    per row, and the basis they form must be nonsingular with a nonnegative
    basic solution; otherwise LpError is raised, as it is when the pivot
    limit is hit.  With exact=True all data is lifted to Fractions and the
    solve is exact; otherwise float64.

    An optimal result also carries its basis, which restarts it as start,
    and the row duals: duals[i] is the rate at which the optimum grows
    with b[i], read from the final objective row under identity column i.
    """
    n, m = len(c), len(b)
    start = np.array(start, dtype=np.int64).reshape(m)
    if ((start < 0) | (start >= n)).any():
        raise ValueError("a start basis holds structural columns only")
    tab = np.zeros((m + 1, n + m + 1), dtype=object if exact else np.float64)
    tab[:m, :n] = np.array(a, dtype=tab.dtype).reshape(m, n)
    tab[np.arange(m), n + np.arange(m)] = 1
    tab[:m, -1] = b
    tab[m, :n] = c
    if exact:
        tab = np.frompyfunc(Fraction, 1, 1)(tab)
    _enter_basis(tab, start, exact)
    basis = start[None].copy()
    [status] = pivot_tableaux(tab[None], basis, exact)
    if status is None:
        raise LpError("pivot limit exceeded")
    if status == UNBOUNDED:
        return LpResult(UNBOUNDED, [], None)
    x = np.full(n, Fraction(0) if exact else 0.0, dtype=tab.dtype)
    x[basis[0]] = tab[:m, -1]
    return LpResult(OPTIMAL, x.tolist(), -tab[m, -1], (-tab[m, n:n + m]).tolist(),
                    basis[0].tolist())
