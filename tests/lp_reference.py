"""The simplex loops that the LP tests use as references.

One tableau at a time, with the same Bland's rule as cimwalk.lp's lockstep
kernel: a float loop with its tolerances, an exact loop over Fractions with
none, and a full two-phase float solve (senses, negated rows, phase 1 and
the drive-out of leftover artificials) for LPs that come without a start
basis.  lockstep_simplex_max is simplex_max for a batch of LPs of one
shape, pivoted together by cimwalk.lp.pivot_tableaux.
"""

from fractions import Fraction

import numpy as np

from cimwalk import lp
from cimwalk.lp import OPTIMAL, UNBOUNDED, LpError, LpResult, pivot_tableaux

INFEASIBLE = "infeasible"
_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}


def _pivot(tableau, basis, r, col):
    tableau[r] = tableau[r] / tableau[r, col]
    factors = tableau[:, col].copy()
    factors[r] = 0 * factors[r]
    tableau -= np.outer(factors, tableau[r])
    basis[r] = col


def tableaux(c, a_stack, b_stack, exact=False):
    """The tableaux [A | I | b] over c of '=' LPs of one shape, one per
    (a, b) of the stacks: float64, or Fractions with exact=True."""
    (count, m), n = np.shape(b_stack), len(c)
    stack = np.zeros((count, m + 1, n + m + 1), dtype=object if exact else np.float64)
    stack[:, :m, :n] = np.array(a_stack, dtype=stack.dtype).reshape(count, m, n)
    stack[:, np.arange(m), n + np.arange(m)] = 1
    stack[:, :m, -1] = b_stack
    stack[:, m, :n] = c
    return np.frompyfunc(Fraction, 1, 1)(stack) if exact else stack


def optimal_result(tableau, basis, n, exact=False):
    """The LpResult of a tableau that is optimal at basis, with n
    structural columns: the primal point, the optimum and the row duals."""
    m = len(basis)
    x = [Fraction(0) if exact else 0.0] * n
    for i, col in enumerate(basis):
        x[col] = tableau[i, -1]
    duals = [-tableau[m, n + i] for i in range(m)]
    return LpResult(OPTIMAL, x, -tableau[m, -1], duals, [int(col) for col in basis])


def lockstep_simplex_max(c, a_stack, b_stack, starts, exact=False):
    """simplex_max(c, a, b, s, exact) for every (a, b, s) of the stacks.

    Each tableau is moved to its start basis by lp._enter_basis, and those
    that enter are pivoted as one stack by pivot_tableaux, each exactly as
    it would be pivoted alone.  Returns one entry per LP: its LpResult, or
    the LpError that simplex_max raises for it.
    """
    stack = tableaux(c, a_stack, b_stack, exact)
    count, rows, width = stack.shape
    starts = np.array(starts, dtype=np.int64).reshape(count, rows - 1)
    out = [None] * count
    for k in range(count):
        try:
            lp._enter_basis(stack[k], starts[k], exact)
        except LpError as exc:
            out[k] = exc
    ok = [k for k in range(count) if out[k] is None]
    tabs, bases = stack[ok], starts[ok]
    for k, tab, basis, status in zip(ok, tabs, bases, pivot_tableaux(tabs, bases, exact)):
        if status is None:
            out[k] = LpError("pivot limit exceeded")
        elif status == UNBOUNDED:
            out[k] = LpResult(UNBOUNDED, [], None)
        else:
            out[k] = optimal_result(tab, basis, width - rows, exact)
    return out


def serial_run(tableau, basis, m, obj_row, allowed_mask, width, counter, max_pivots):
    """Bland's-rule pivots on one tableau; True at an optimum, False when
    unbounded.  counter[0] counts the pivots."""
    tol = 1e-9
    for _ in range(max_pivots):
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
        counter[0] += 1
    raise LpError("pivot limit exceeded")


def serial_exact_run(tableau, basis, m, obj_row, allowed_mask, width, counter, max_pivots):
    """Bland's-rule pivots on one Fraction tableau with exact comparisons;
    True at an optimum, False when unbounded.  counter[0] counts the pivots."""
    zero = Fraction(0)
    for _ in range(max_pivots):
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
        counter[0] += 1
    raise LpError("pivot limit exceeded")


def two_phase_simplex_max(c, a_rows, senses, b, counter=None, max_pivots=50_000):
    """max c.x s.t. A x (<=|=|>=) b, x >= 0 by the serial two-phase simplex;
    counter[0] counts its pivots."""
    counter = [0] if counter is None else counter
    n, m = len(c), len(senses)
    a = np.array(a_rows, dtype=np.float64).reshape(m, n)
    rhs = np.array(b, dtype=np.float64).reshape(m)
    cost = np.array(c, dtype=np.float64).reshape(n)
    flip = rhs < 0.0
    a[flip] = -a[flip]
    rhs[flip] = -rhs[flip]
    senses = [_FLIPPED[s] if f else s for s, f in zip(senses, flip)]
    slack_rows = [i for i, s in enumerate(senses) if s != "="]
    art_rows = [i for i, s in enumerate(senses) if s != "<="]
    slack_cols = list(range(n, n + len(slack_rows)))
    art_cols = list(range(n + len(slack_rows), n + len(slack_rows) + len(art_rows)))
    width = n + len(slack_rows) + len(art_rows) + 1
    tableau = np.zeros((m + 2, width), dtype=np.float64)
    tableau[:m, :n] = a
    tableau[:m, -1] = rhs
    unit = [0] * m
    for i, col in zip(slack_rows, slack_cols):
        if senses[i] == "<=":
            tableau[i, col] = 1.0
            unit[i] = col
        else:
            tableau[i, col] = -1.0
    for i, col in zip(art_rows, art_cols):
        tableau[i, col] = 1.0
        unit[i] = col
    basis = list(unit)
    rows = list(range(m))
    obj1, obj2 = m, m + 1
    if art_rows:
        tableau[obj1] = tableau[art_rows].sum(axis=0)
        tableau[obj1, art_cols] = 0.0
    tableau[obj2, :n] = cost
    art_mask = np.zeros(width - 1, dtype=bool)
    art_mask[art_cols] = True
    if art_cols:
        if not serial_run(tableau, basis, m, obj1, np.ones(width - 1, dtype=bool),
                          width, counter, max_pivots):
            raise LpError("phase 1 reported unbounded")
        if tableau[obj1, -1] > 1e-7:
            return LpResult(INFEASIBLE, [], None)
        drop = []
        for i in range(m):
            if art_mask[basis[i]]:
                cols = np.nonzero(~art_mask & (np.abs(tableau[i, :-1]) > 1e-9))[0]
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
    if not serial_run(tableau, basis, m, obj2, ~art_mask, width, counter, max_pivots):
        return LpResult(UNBOUNDED, [], None)
    x = [0.0] * n
    for i in range(m):
        if basis[i] < n:
            x[basis[i]] = tableau[i, -1]
    duals = [0.0] * len(unit)
    for i in rows:
        dual = -tableau[obj2, unit[i]]
        duals[i] = -dual if flip[i] else dual
    return LpResult(OPTIMAL, x, -tableau[obj2, -1], duals)
