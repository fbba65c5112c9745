"""Dense two-phase primal simplex with Bland's rule.

Solves  max c.x  s.t.  A x (<=|=|>=) b,  x >= 0.

One tableau layout serves two arithmetic modes: float64 numpy arrays with
vectorized pivots for speed, and Fraction object arrays with exact
comparisons for re-solves of numerically ambiguous instances.  Entering
columns follow Bland's smallest-index rule, which rules out cycling in the
exact mode and is harmless in the float mode.  An optimal result carries the
row duals as well as the primal point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_MAX_PIVOTS = 50_000
_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}


class LpError(RuntimeError):
    pass


@dataclass
class LpResult:
    status: str
    x: Sequence
    objective: object
    duals: Sequence = ()


def _pivot(tableau, basis, r, col):
    tableau[r] = tableau[r] / tableau[r, col]
    factors = tableau[:, col].copy()
    factors[r] = 0 * factors[r]  # keeps the dtype in object mode
    tableau -= np.outer(factors, tableau[r])
    basis[r] = col


def _run_float(tableau, basis, m, obj_row, allowed_mask, width):
    tol = 1e-9
    for _ in range(_MAX_PIVOTS):
        reduced = tableau[obj_row, : width - 1]
        candidates = np.nonzero((reduced > tol) & allowed_mask)[0]
        if candidates.size == 0:
            return True
        enter = int(candidates[0])
        col = tableau[:m, enter]
        pos = np.nonzero(col > tol)[0]
        if pos.size == 0:
            return False
        ratios = tableau[pos, -1] / col[pos]
        best = ratios.min()
        near = pos[ratios <= best + 1e-12 + 1e-9 * abs(best)]
        leave = int(min(near, key=lambda i: basis[i]))
        _pivot(tableau, basis, leave, enter)
    raise LpError("pivot limit exceeded")


def _run_exact(tableau, basis, m, obj_row, allowed_mask, width):
    zero = Fraction(0)
    for _ in range(_MAX_PIVOTS):
        enter = -1
        for j in range(width - 1):
            if allowed_mask[j] and tableau[obj_row, j] > zero:
                enter = j
                break
        if enter < 0:
            return True
        leave = -1
        best = None
        for i in range(m):
            aij = tableau[i, enter]
            if aij > zero:
                ratio = tableau[i, -1] / aij
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return False
        _pivot(tableau, basis, leave, enter)
    raise LpError("pivot limit exceeded")


def simplex_max(c, a_rows, senses, b, exact: bool = False) -> LpResult:
    """Maximize c.x subject to rows of (a_rows, senses, b) and x >= 0.

    senses[i] is one of '<=', '=', '>='.  a_rows may be a nested sequence or
    a 2-d array.  With exact=True all data is lifted to Fractions and the
    solve is exact; otherwise float64.

    An optimal result also carries the row duals: duals[i] is the rate at
    which the optimum grows with b[i], so it is >= 0 on a '<=' row, <= 0 on a
    '>=' row and free on an '=' row.  It is read from the final objective row
    under the column that held e_i in the starting basis (the slack of a
    '<=' row, the artificial of any other).  A row dropped as redundant
    after phase 1 gets dual 0.
    """
    n = len(c)
    m = len(senses)
    if any(s not in _FLIPPED for s in senses):
        raise ValueError("senses must be '<=', '=' or '>='")
    if exact:
        zero, one = Fraction(0), Fraction(1)
        lift = np.frompyfunc(Fraction, 1, 1)
        a = lift(np.array(a_rows, dtype=object).reshape(m, n))
        rhs = lift(np.array(b, dtype=object).reshape(m))
        cost = lift(np.array(c, dtype=object).reshape(n))
    else:
        zero, one = 0.0, 1.0
        a = np.array(a_rows, dtype=np.float64).reshape(m, n)
        rhs = np.array(b, dtype=np.float64).reshape(m)
        cost = np.array(c, dtype=np.float64).reshape(n)

    # a negative right-hand side is negated with its row, so the starting
    # basis of slacks and artificials is feasible
    flip = rhs < zero
    a[flip] = -a[flip]
    rhs[flip] = -rhs[flip]
    senses = [_FLIPPED[s] if f else s for s, f in zip(senses, flip)]

    # columns: structural, then one slack or surplus per '<=' / '>=' row, then
    # one artificial per '>=' / '=' row, each block in row order
    slack_rows = [i for i, s in enumerate(senses) if s != "="]
    art_rows = [i for i, s in enumerate(senses) if s != "<="]
    slack_cols = list(range(n, n + len(slack_rows)))
    art_cols = list(range(n + len(slack_rows), n + len(slack_rows) + len(art_rows)))
    width = n + len(slack_rows) + len(art_rows) + 1
    if exact:
        tableau = np.full((m + 2, width), zero, dtype=object)
    else:
        tableau = np.zeros((m + 2, width), dtype=np.float64)
    tableau[:m, :n] = a
    tableau[:m, -1] = rhs
    unit = [0] * m
    for i, col in zip(slack_rows, slack_cols):
        if senses[i] == "<=":
            tableau[i, col] = one
            unit[i] = col
        else:
            tableau[i, col] = -one
    for i, col in zip(art_rows, art_cols):
        tableau[i, col] = one
        unit[i] = col
    basis = list(unit)
    rows = list(range(m))  # original row of each tableau row

    obj1, obj2 = m, m + 1
    # phase-1 objective: the sum of the artificial rows, so the rhs cell
    # tracks the current total infeasibility
    if art_rows:
        tableau[obj1] = tableau[art_rows].sum(axis=0)
        tableau[obj1, art_cols] = zero
    # phase-2 objective: reduced costs of the original objective
    tableau[obj2, :n] = cost

    run = _run_exact if exact else _run_float
    art_mask = np.zeros(width - 1, dtype=bool)
    art_mask[art_cols] = True

    if art_cols:
        finished = run(tableau, basis, m, obj1, np.ones(width - 1, dtype=bool), width)
        if not finished:
            raise LpError("phase 1 reported unbounded")
        feas_tol = zero if exact else 1e-7
        if tableau[obj1, -1] > feas_tol:
            return LpResult(INFEASIBLE, [], None)
        # drive leftover artificials out of the basis
        piv_tol = zero if exact else 1e-9
        drop = []
        for i in range(m):
            if art_mask[basis[i]]:
                cols = np.nonzero(~art_mask & (np.abs(tableau[i, :-1]) > piv_tol))[0]
                if cols.size:
                    _pivot(tableau, basis, i, int(cols[0]))
                else:
                    drop.append(i)
        if drop:
            keep = [i for i in range(m) if i not in set(drop)]
            tableau = tableau[keep + [obj1, obj2]]
            basis = [basis[i] for i in keep]
            rows = keep
            m = len(keep)
            obj1, obj2 = m, m + 1

    if not run(tableau, basis, m, obj2, ~art_mask, width):
        return LpResult(UNBOUNDED, [], None)

    x = [zero] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i, -1]
    duals = [zero] * len(unit)
    for i in rows:
        dual = -tableau[obj2, unit[i]]
        duals[i] = -dual if flip[i] else dual
    objective = -tableau[obj2, -1]
    return LpResult(OPTIMAL, x, objective, duals)
