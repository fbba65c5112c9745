"""Dense primal simplex with Bland's rule: two-phase, or phase 2 from a given basis.

Solves  max c.x  s.t.  A x (<=|=|>=) b,  x >= 0.

One tableau layout serves two arithmetic modes: float64 numpy arrays for
speed, and Fraction object arrays with exact comparisons for re-solves of
numerically ambiguous instances.  Float LPs are solved as a stack of
tableaux pivoted in lockstep, so many LPs of one shape cost one numpy call
per step; a single float LP is a stack of one.  Entering columns follow
Bland's smallest-index rule, which rules out cycling in the exact mode and
is harmless in the float mode.  An optimal result carries the row duals as
well as the primal point.  A caller that knows a feasible basis of
structural columns passes it as a start, and the solve skips phase 1.
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


def _run_float(stack, basis, m, obj_row, allowed_mask):
    """Bland's-rule pivots on every tableau of a float stack (count, rows, width).

    At each step every LP still running picks its entering column (the first
    allowed positive reduced cost) and its leaving row (the smallest ratio,
    ties to the smallest basis index), and all of them pivot at once with
    _pivot's elementwise arithmetic, so each tableau ends bit for bit where
    a solve on its own would.  The pivots run on a copy; a finished tableau
    is written back into stack and basis and leaves the running set.
    Returns one outcome per LP: OPTIMAL, UNBOUNDED, or None where the pivot
    limit was hit.
    """
    tol = 1e-9
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
        ratios = np.divide(t[:, :m, -1], col, out=np.full(col.shape, np.inf), where=pos)
        best = ratios.min(axis=1, keepdims=True)
        near = pos & (ratios <= best + 1e-12 + 1e-9 * np.abs(best))
        leave = np.where(near, b, t.shape[2]).argmin(axis=1)
        idx = np.arange(count)
        row = t[idx, leave] / t[idx, leave, enter][:, None]
        t[idx, leave] = row
        factors = t[idx, :, enter]
        factors[idx, leave] = 0.0
        t -= factors[:, :, None] * row[:, None, :]
        b[idx, leave] = enter
    return outcome


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


def _run_exact_stack(stack, basis, m, obj_row, allowed_mask):
    """_run_exact on each tableau of a stack, with _run_float's outcomes."""
    width = stack.shape[2]
    return [OPTIMAL if _run_exact(tab, bas, m, obj_row, allowed_mask, width) else UNBOUNDED
            for tab, bas in zip(stack, basis)]


def _start(cost, a, rhs, senses, zero, one):
    """Starting tableaux of a stack of LPs that share cost and senses.

    a is (count, m, n) and rhs (count, m) >= 0.  Columns run structural,
    then one slack or surplus per '<=' / '>=' row, then one artificial per
    '>=' / '=' row, each block in row order.  Returns (stack, unit,
    art_cols), where unit[i] is the column holding e_i in the starting basis
    (the slack of a '<=' row, the artificial of any other).  Row m is left
    zero for the phase-1 objective, which _solve fills in only when phase 1
    runs.
    """
    count, m, n = a.shape
    slack_rows = [i for i, s in enumerate(senses) if s != "="]
    art_rows = [i for i, s in enumerate(senses) if s != "<="]
    slack_cols = list(range(n, n + len(slack_rows)))
    art_cols = list(range(n + len(slack_rows), n + len(slack_rows) + len(art_rows)))
    width = n + len(slack_rows) + len(art_rows) + 1
    stack = np.full((count, m + 2, width), zero, dtype=a.dtype)
    stack[:, :m, :n] = a
    stack[:, :m, -1] = rhs
    unit = [0] * m
    for i, col in zip(slack_rows, slack_cols):
        if senses[i] == "<=":
            stack[:, i, col] = one
            unit[i] = col
        else:
            stack[:, i, col] = -one
    for i, col in zip(art_rows, art_cols):
        stack[:, i, col] = one
        unit[i] = col
    # phase-2 objective (row m + 1): reduced costs of the original objective
    stack[:, m + 1, :n] = cost
    return stack, unit, art_cols


def _drive_out(tableau, basis, m, art_mask, piv_tol):
    """Pivot leftover artificials out of the basis after phase 1.

    A row whose artificial cannot leave is redundant and is dropped.
    Returns the tableau, the basis and the original row of each kept row.
    """
    drop = []
    for i in range(m):
        if art_mask[basis[i]]:
            cols = np.nonzero(~art_mask & (np.abs(tableau[i, :-1]) > piv_tol))[0]
            if cols.size:
                _pivot(tableau, basis, i, int(cols[0]))
            else:
                drop.append(i)
    keep = [i for i in range(m) if i not in drop]
    return tableau[keep + [m, m + 1]], basis[keep], keep


def _enter_basis(stack, basis, start, exact):
    """Turn starting tableaux from _start into B^-1 [A | b] for the basis start.

    start is (count, m): the column made basic in each row.  The phase-2 row
    becomes c - c_B B^-1 A with -c_B B^-1 b in its rhs cell, and basis is
    set to start.  Float stacks are multiplied by their batched basis
    inverses; exact tableaux are pivoted column by column, swapping in a
    later row where a pivot entry is zero.  Returns one entry per LP: None,
    or the LpError for a singular or infeasible start.
    """
    count, rows, width = stack.shape
    m = rows - 2
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
            prices = stack[lpi, m + 1, start][:, None, :] @ inverse
            stack[:, m + 1] -= (prices @ stack[:, :m])[:, 0]
            stack[:, :m] = inverse @ stack[:, :m]
            basic = stack[:, :m][lpi, :, start]
            singular = ~(np.abs(basic - np.eye(m)) <= 1e-9).all(axis=(1, 2))
            infeasible = (stack[:, :m, -1] < -1e-7).any(axis=1)
        # the basic columns are exactly the unit vectors of their rows
        stack[:, :m][lpi, :, start] = np.eye(m)
        stack[:, m + 1][lpi, start] = 0.0
        for k in range(count):
            if singular[k]:
                out[k] = LpError("singular start basis")
            elif infeasible[k]:
                out[k] = LpError("infeasible start basis")
    basis[:] = start
    return out


def _solve(stack, unit, art_cols, n, flip, exact, start=None):
    """Both phases on a stack of starting tableaux from _start, or phase 2
    alone from the basis start (count, m) of structural columns.

    flip marks the rows that were negated for a negative rhs.  Returns one
    entry per LP: its LpResult, or the LpError that simplex_max raises for
    it.  An LP that keeps an artificial in its basis after phase 1 goes
    through _drive_out and finishes on its own; the rest finish together.
    """
    count, rows, width = stack.shape
    m = rows - 2
    zero = Fraction(0) if exact else 0.0
    run = _run_exact_stack if exact else _run_float
    basis = np.tile(np.array(unit, dtype=np.int64), (count, 1))
    art_mask = np.zeros(width - 1, dtype=bool)
    art_mask[art_cols] = True
    out = [None] * count

    if start is not None:
        out = _enter_basis(stack, basis, start, exact)
    elif art_cols:
        # phase-1 objective (row m): the sum of the artificial rows, so the
        # rhs cell tracks the current total infeasibility
        art_rows = [i for i, col in enumerate(unit) if art_mask[col]]
        stack[:, m] = stack[:, art_rows].sum(axis=1)
        stack[:, m, art_cols] = zero
        feas_tol = zero if exact else 1e-7
        for k, status in enumerate(run(stack, basis, m, m, np.ones(width - 1, dtype=bool))):
            if status is None:
                out[k] = LpError("pivot limit exceeded")
            elif status == UNBOUNDED:
                out[k] = LpError("phase 1 reported unbounded")
            elif stack[k, m, -1] > feas_tol:
                out[k] = LpResult(INFEASIBLE, [], None)
    # phase 2 runs on (LPs, their tableaux, their bases, original row of
    # each tableau row) jobs
    stuck = [k for k in range(count) if out[k] is None and art_mask[basis[k]].any()]
    together = [k for k in range(count) if out[k] is None and k not in stuck]
    jobs = [(together, stack[together], basis[together], list(range(m)))] if together else []
    for k in stuck:
        tableau, bas, kept = _drive_out(stack[k], basis[k], m, art_mask, zero if exact else 1e-9)
        jobs.append(([k], tableau[None], bas[None], kept))

    for members, tabs, bases, kept in jobs:
        obj2 = len(kept) + 1
        outcomes = run(tabs, bases, len(kept), obj2, ~art_mask)
        for k, tableau, bas, status in zip(members, tabs, bases, outcomes):
            if status is None:
                out[k] = LpError("pivot limit exceeded")
                continue
            if status == UNBOUNDED:
                out[k] = LpResult(UNBOUNDED, [], None)
                continue
            rhs, reduced = tableau[:, -1], tableau[obj2]
            x = [zero] * n
            for i, col in enumerate(bas.tolist()):
                if col < n:
                    x[col] = rhs[i]
            # a row dropped as redundant keeps dual 0
            duals = [zero] * m
            for i in kept:
                dual = -reduced[unit[i]]
                duals[i] = -dual if flip[i] else dual
            out[k] = LpResult(OPTIMAL, x, -reduced[-1], duals)
    return out


def simplex_max(c, a_rows, senses, b, exact: bool = False, start=None) -> LpResult:
    """Maximize c.x subject to rows of (a_rows, senses, b) and x >= 0.

    senses[i] is one of '<=', '=', '>='.  a_rows may be a nested sequence or
    a 2-d array.  With exact=True all data is lifted to Fractions and the
    solve is exact; otherwise float64.  Raises LpError when the pivot limit
    is hit or phase 1 reports an unbounded ray.

    An optimal result also carries the row duals: duals[i] is the rate at
    which the optimum grows with b[i], so it is >= 0 on a '<=' row, <= 0 on a
    '>=' row and free on an '=' row.  It is read from the final objective row
    under the column that held e_i in the starting basis (the slack of a
    '<=' row, the artificial of any other).  A row dropped as redundant
    after phase 1 gets dual 0.

    start, if given, is a feasible basis: one structural column per row.
    The solve then skips phase 1 and runs phase 2 from that basis; a start
    that is singular or whose basic solution is negative raises LpError.
    """
    starts = None if start is None else [start]
    res = simplex_max_many(c, [a_rows], senses, [b], exact=exact, start=starts)[0]
    if isinstance(res, LpError):
        raise res
    return res


def simplex_max_many(c, a_stack, senses, b_stack, exact: bool = False, start=None) -> list:
    """simplex_max(c, a, senses, b, exact, s) for every (a, b, s) of the stacks.

    a_stack holds one (m, n) matrix per LP and b_stack one length-m rhs;
    c and senses are shared; start is None or holds one starting basis of
    m structural columns per LP.  In float mode, LPs whose negative
    right-hand sides fall on the same rows are pivoted in lockstep, each
    exactly as it would be pivoted alone.  Exact LPs are solved one after another, and
    their pivot limit raises.  Returns one entry per LP: its LpResult, or
    the LpError that simplex_max raises for it.
    """
    senses = list(senses)
    if any(s not in _FLIPPED for s in senses):
        raise ValueError("senses must be '<=', '=' or '>='")
    n, m, count = len(c), len(senses), len(b_stack)
    if exact:
        zero, one = Fraction(0), Fraction(1)
        lift = np.frompyfunc(Fraction, 1, 1)
        a = lift(np.array(a_stack, dtype=object).reshape(count, m, n))
        rhs = lift(np.array(b_stack, dtype=object).reshape(count, m))
        cost = lift(np.array(c, dtype=object).reshape(n))
    else:
        zero, one = 0.0, 1.0
        a = np.array(a_stack, dtype=np.float64).reshape(count, m, n)
        rhs = np.array(b_stack, dtype=np.float64).reshape(count, m)
        cost = np.array(c, dtype=np.float64).reshape(n)
    if start is not None:
        start = np.array(start, dtype=np.int64).reshape(count, m)
        if ((start < 0) | (start >= n)).any():
            raise ValueError("a start basis holds structural columns only")
    # a negative right-hand side is negated with its row, so the starting
    # basis of slacks and artificials is feasible
    flips = rhs < zero
    a[flips] = -a[flips]
    rhs[flips] = -rhs[flips]
    groups = {}
    for k, flip in enumerate(flips):
        groups.setdefault(flip.tobytes(), []).append(k)
    out = [None] * count
    for members in groups.values():
        flip = flips[members[0]]
        flipped = [_FLIPPED[s] if f else s for s, f in zip(senses, flip)]
        stack, unit, art_cols = _start(cost, a[members], rhs[members], flipped, zero, one)
        begin = None if start is None else start[members]
        for k, res in zip(members, _solve(stack, unit, art_cols, n, flip, exact, begin)):
            out[k] = res
    return out
