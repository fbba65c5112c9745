"""Dense primal simplex with Bland's rule, run from a feasible basis the caller gives.

Solves  max c.x  s.t.  A x = b,  x >= 0,  starting from a basis of m columns
of A whose basic solution B^-1 b is nonnegative.  Each LP's tableau is
[A | I | b] with one objective row; the identity columns never enter the
basis, and after the pivots they hold B^-1, from which the row duals are
read.

One tableau layout and one pivot loop serve two arithmetic modes: float64
numpy arrays for speed, and Fraction object arrays with exact comparisons
for re-solves of numerically ambiguous instances.  LPs of one shape are
solved as a stack of tableaux pivoted in lockstep, so many LPs cost one
numpy call per step; a single LP is a stack of one.  Entering columns
follow Bland's smallest-index rule, which rules out cycling in the exact
mode and is harmless in the float mode.  An optimal result carries the row
duals as well as the primal point.

simplex_max and simplex_max_many build the tableaux and move them to the
start basis.  pivot_tableaux pivots tableaux that are already canonical, so
a caller can keep them between solves: a final tableau holds B^-1 in its
identity block and minus the prices c_B B^-1 in the objective row there,
so a column a of cost c_a added later enters as that block times a, plus
c_a in the objective row, with no inverse computed: the warm start of
column generation.
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


def _pivot(tableau, basis, r, col):
    tableau[r] = tableau[r] / tableau[r, col]
    factors = tableau[:, col].copy()
    factors[r] = 0 * factors[r]  # keeps the dtype in object mode
    tableau -= np.outer(factors, tableau[r])
    basis[r] = col


def _run(stack, basis, m, obj_row, allowed_mask, exact):
    """Bland's-rule pivots on every tableau of a stack (count, rows, width).

    At each step every LP still running picks its entering column (the first
    allowed positive reduced cost) and its leaving row (the smallest ratio,
    ties to the smallest basis index), and all of them pivot at once with
    _pivot's elementwise arithmetic, so each tableau ends where a solve on
    its own would, bit for bit in float.  Exact stacks of Fractions compare
    with no tolerance, and every value written into them is a Fraction.
    The pivots run on a copy; a finished tableau is written back into stack
    and basis and leaves the running set.  Returns one outcome per LP:
    OPTIMAL, UNBOUNDED, or None where the pivot limit was hit.
    """
    zero = Fraction(0) if exact else 0.0
    tol = zero if exact else 1e-9
    outcome = [None] * len(stack)
    # the running LPs are tab[:count]; live maps a slot to its LP in stack
    tab, bas = stack.copy(), basis.copy()
    live = np.arange(len(stack))
    count = len(stack)
    for _ in range(_MAX_PIVOTS):
        t, b = tab[:count], bas[:count]
        cand = (t[:, obj_row, :-1] > tol) & allowed_mask
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
        leave = np.where(near, b, t.shape[2]).argmin(axis=1)
        idx = np.arange(count)
        row = t[idx, leave] / t[idx, leave, enter][:, None]
        t[idx, leave] = row
        factors = t[idx, :, enter]
        factors[idx, leave] = zero
        t -= factors[:, :, None] * row[:, None, :]
        b[idx, leave] = enter
    return outcome


def _enter_basis(stack, basis, start, exact):
    """Turn tableaux [A | I | b] over c into B^-1 [A | I | b] for the basis start.

    start is (count, m): the column made basic in each row.  The objective
    row becomes c - c_B B^-1 A with -c_B B^-1 b in its rhs cell, and basis is
    set to start.  Float stacks are multiplied by their batched basis
    inverses; exact tableaux are pivoted column by column, swapping in a
    later row where a pivot entry is zero.  Returns one entry per LP: None,
    or the LpError for a singular or infeasible start.
    """
    count, rows, width = stack.shape
    m = rows - 1
    out = [None] * count
    if exact:
        zero = Fraction(0)
        for k in range(count):
            tab, cols = stack[k], start[k]
            for i, col in enumerate(cols):
                nonzero = [r for r in range(i, m) if tab[r, col] != zero]
                if not nonzero:
                    out[k] = LpError("singular start basis")
                    break
                tab[[i, nonzero[0]]] = tab[[nonzero[0], i]]
                _pivot(tab, basis[k], i, col)
            if out[k] is None and (tab[:m, -1] < zero).any():
                out[k] = LpError("infeasible start basis")
    else:
        lpi = np.arange(count)[:, None]
        mats = stack[lpi, :m, start].transpose(0, 2, 1)
        # a singular basis leaves nan or inf behind, and is flagged below
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            try:
                inverse = np.linalg.inv(mats)
            except np.linalg.LinAlgError:
                inverse = np.full(mats.shape, np.nan)
                for k in range(count):
                    try:
                        inverse[k] = np.linalg.inv(mats[k])
                    except np.linalg.LinAlgError:
                        pass
            prices = stack[lpi, m, start][:, None, :] @ inverse
            stack[:, m] -= (prices @ stack[:, :m])[:, 0]
            stack[:, :m] = inverse @ stack[:, :m]
            basic = stack[:, :m][lpi, :, start]
            singular = ~(np.abs(basic - np.eye(m)) <= 1e-9).all(axis=(1, 2))
            infeasible = (stack[:, :m, -1] < -1e-7).any(axis=1)
        # the basic columns are exactly the unit vectors of their rows
        stack[:, :m][lpi, :, start] = np.eye(m)
        stack[:, m][lpi, start] = 0.0
        for k in range(count):
            if singular[k]:
                out[k] = LpError("singular start basis")
            elif infeasible[k]:
                out[k] = LpError("infeasible start basis")
    basis[:] = start
    return out


def pivot_tableaux(stack, basis, exact: bool = False) -> list:
    """Pivot canonical tableaux to their optima, in place.

    stack is (count, m + 1, n + m + 1): each LP's B^-1 [A | I | b] at the
    basis basis[k], with the objective row c - c_B B^-1 A last (zero on
    the basic columns, -c_B B^-1 b in its rhs cell).  Only the n
    structural columns enter.  Returns one outcome per LP: OPTIMAL,
    UNBOUNDED, or None where the pivot limit was hit.
    """
    count, rows, width = stack.shape
    if not count:
        return []
    m = rows - 1
    return _run(stack, basis, m, m, np.arange(width - 1) < width - 1 - m, exact)


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
    res = simplex_max_many(c, [a], [b], [start], exact=exact)[0]
    if isinstance(res, LpError):
        raise res
    return res


def simplex_max_many(c, a_stack, b_stack, start, exact: bool = False) -> list:
    """simplex_max(c, a, b, s, exact) for every (a, b, s) of the stacks.

    a_stack holds one (m, n) matrix per LP, b_stack one length-m rhs and
    start one basis of m columns; c is shared.  The LPs are pivoted in
    lockstep, each exactly as it would be pivoted alone.  Returns one entry
    per LP: its LpResult, or the LpError that simplex_max raises for it.
    """
    n, (count, m) = len(c), np.shape(b_stack)
    if exact:
        zero, one = Fraction(0), Fraction(1)
        lift = np.frompyfunc(Fraction, 1, 1)
        a = lift(np.array(a_stack, dtype=object).reshape(count, m, n))
        rhs = lift(np.array(b_stack, dtype=object).reshape(count, m))
        cost = lift(np.array(c, dtype=object).reshape(n))
    else:
        zero, one = 0.0, 1.0
        a = np.asarray(a_stack, dtype=np.float64).reshape(count, m, n)
        rhs = np.array(b_stack, dtype=np.float64).reshape(count, m)
        cost = np.array(c, dtype=np.float64).reshape(n)
    start = np.array(start, dtype=np.int64).reshape(count, m)
    if ((start < 0) | (start >= n)).any():
        raise ValueError("a start basis holds structural columns only")
    stack = np.full((count, m + 1, n + m + 1), zero, dtype=a.dtype)
    stack[:, :m, :n] = a
    stack[:, np.arange(m), n + np.arange(m)] = one
    stack[:, :m, -1] = rhs
    stack[:, m, :n] = cost
    basis = start.copy()
    out = _enter_basis(stack, basis, start, exact)
    ok = [k for k in range(count) if out[k] is None]
    if not ok:
        return out
    tabs, bases = stack[ok], basis[ok]
    outcomes = pivot_tableaux(tabs, bases, exact)
    x = np.full((len(ok), n), zero, dtype=a.dtype)
    x[np.arange(len(ok))[:, None], bases] = tabs[:, :m, -1]
    duals = (-tabs[:, m, n:n + m]).tolist()
    for q, (k, status) in enumerate(zip(ok, outcomes)):
        if status is None:
            out[k] = LpError("pivot limit exceeded")
        elif status == UNBOUNDED:
            out[k] = LpResult(UNBOUNDED, [], None)
        else:
            out[k] = LpResult(OPTIMAL, x[q].tolist(), -tabs[q, m, -1], duals[q], bases[q].tolist())
    return out
