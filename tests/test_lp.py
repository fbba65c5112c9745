"""Two-phase simplex: known optima, senses, exact mode, degenerate cases."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cimwalk import lp, polytope
from cimwalk.lp import (INFEASIBLE, OPTIMAL, UNBOUNDED, LpError, LpResult, simplex_max,
                        simplex_max_many)


def test_small_known_optimum():
    # max 3x + 2y, x + y <= 4, x + 3y <= 6: optimum 12 at (4, 0)
    res = simplex_max([3, 2], [[1, 1], [1, 3]], ["<=", "<="], [4, 6])
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(12.0)
    assert list(res.x) == pytest.approx([4.0, 0.0])


def test_equality_and_ge_senses():
    res = simplex_max([1], [[1]], ["="], [2])
    assert res.status == OPTIMAL and res.objective == pytest.approx(2.0)
    res = simplex_max([-1], [[1]], [">="], [3])
    assert res.status == OPTIMAL and res.objective == pytest.approx(-3.0)


def test_negative_rhs_is_normalized():
    # -x >= -5 is x <= 5
    res = simplex_max([1], [[-1]], [">="], [-5])
    assert res.status == OPTIMAL and res.objective == pytest.approx(5.0)


def test_infeasible():
    res = simplex_max([1], [[1], [1]], ["<=", ">="], [1, 2])
    assert res.status == INFEASIBLE
    res = simplex_max([1], [[1], [1]], ["<=", ">="], [1, 2], exact=True)
    assert res.status == INFEASIBLE


def test_unbounded():
    res = simplex_max([1], [[-1]], ["<="], [1])
    assert res.status == UNBOUNDED


def test_beale_degenerate_instance():
    # classic degenerate instance that cycles under naive pivoting
    c = [0.75, -150, 0.02, -6]
    a = [
        [0.25, -60, -0.04, 9],
        [0.5, -90, -0.02, 3],
        [0, 0, 1, 0],
    ]
    b = [0, 0, 1]
    res = simplex_max(c, a, ["<=", "<=", "<="], b)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(0.05)

    exact = simplex_max(
        [Fraction(3, 4), -150, Fraction(1, 50), -6],
        [
            [Fraction(1, 4), -60, Fraction(-1, 25), 9],
            [Fraction(1, 2), -90, Fraction(-1, 50), 3],
            [0, 0, 1, 0],
        ],
        ["<=", "<=", "<="],
        [0, 0, 1],
        exact=True,
    )
    assert exact.status == OPTIMAL
    assert exact.objective == Fraction(1, 20)


def test_exact_mode_returns_fractions():
    res = simplex_max([1, 1], [[2, 1], [1, 2]], ["<=", "<="], [1, 1], exact=True)
    assert res.status == OPTIMAL
    assert isinstance(res.objective, Fraction)
    assert res.objective == Fraction(2, 3)
    assert list(res.x) == [Fraction(1, 3), Fraction(1, 3)]


def test_float_and_exact_agree_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m = 4, 5
        c = rng.uniform(-1, 1, n)
        a = rng.uniform(0, 1, (m, n))
        b = rng.uniform(0.5, 1.5, m)
        rows = a.tolist() + [[1.0] * n]
        senses = ["<="] * m + ["<="]
        rhs = b.tolist() + [10.0]
        flt = simplex_max(c.tolist(), rows, senses, rhs)
        ext = simplex_max(c.tolist(), rows, senses, rhs, exact=True)
        assert flt.status == OPTIMAL and ext.status == OPTIMAL
        assert flt.objective == pytest.approx(float(ext.objective), abs=1e-9)


def test_mixed_senses_with_equality():
    # max x + y, x + y = 1, x - y <= 0.25: any point on the segment works,
    # the objective is pinned by the equality
    res = simplex_max([1, 1], [[1, 1], [1, -1]], ["=", "<="], [1, 0.25])
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0)
    x, y = res.x
    assert x + y == pytest.approx(1.0) and x - y <= 0.25 + 1e-9


@pytest.mark.parametrize("exact", [False, True])
def test_duals_of_small_known_optimum(exact):
    # max 3x + 2y, x + y <= 4, x + 3y <= 6: the first row binds with price 3
    res = simplex_max([3, 2], [[1, 1], [1, 3]], ["<=", "<="], [4, 6], exact=exact)
    assert res.status == OPTIMAL
    assert list(res.duals) == [3, 0]


@pytest.mark.parametrize("exact", [False, True])
def test_duals_of_every_sense_and_a_negated_rhs(exact):
    # max 3x + 2y + z, x + y + z <= 10, -x >= -4, y - z = 1: optimum 21.5 at
    # (4, 3.5, 2.5); the '>=' row is stored negated, its dual keeps its sign
    b = [10, -4, 1]
    res = simplex_max([3, 2, 1], [[1, 1, 1], [-1, 0, 0], [0, 1, -1]],
                      ["<=", ">=", "="], b, exact=exact)
    assert res.status == OPTIMAL
    assert res.objective == Fraction(43, 2)
    assert list(res.duals) == [Fraction(3, 2), Fraction(-3, 2), Fraction(1, 2)]
    assert sum(y * bi for y, bi in zip(res.duals, b)) == res.objective
    if exact:
        assert all(isinstance(y, Fraction) for y in res.duals)


@pytest.mark.parametrize("exact", [False, True])
def test_duals_of_ge_row_with_positive_rhs(exact):
    # max -x - y, x + y >= 2, x - y = 0: optimum -2 at (1, 1)
    res = simplex_max([-1, -1], [[1, 1], [1, -1]], [">=", "="], [2, 0], exact=exact)
    assert res.status == OPTIMAL
    assert list(res.duals) == [-1, 0]


@pytest.mark.parametrize("exact", [False, True])
def test_redundant_row_gets_dual_zero(exact):
    # the second equality repeats the first and is dropped after phase 1
    res = simplex_max([1, 1], [[1, 1], [2, 2], [1, 0]], ["=", "=", "<="],
                      [2, 4, Fraction(3, 2)], exact=exact)
    assert res.status == OPTIMAL
    assert res.objective == 2
    assert list(res.duals) == [1, 0, 0]


def test_duals_absent_unless_optimal():
    assert simplex_max([1], [[-1]], ["<="], [1]).duals == ()
    assert simplex_max([1], [[1], [1]], ["<=", ">="], [1, 2]).duals == ()


def test_unknown_sense_is_rejected():
    with pytest.raises(ValueError):
        simplex_max([1], [[1]], ["<"], [1])


# ---------------------------------------------------------------------------
# The lockstep float kernel against the serial float simplex it replaced


_FLIPPED = {"<=": ">=", ">=": "<=", "=": "="}


def _reference_pivot(tableau, basis, r, col):
    tableau[r] = tableau[r] / tableau[r, col]
    factors = tableau[:, col].copy()
    factors[r] = 0 * factors[r]
    tableau -= np.outer(factors, tableau[r])
    basis[r] = col


def _reference_run(tableau, basis, m, obj_row, allowed_mask, width, counter, max_pivots):
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
        _reference_pivot(tableau, basis, leave, enter)
        counter[0] += 1
    raise LpError("pivot limit exceeded")


def _reference_simplex_max(c, a_rows, senses, b, counter=None, max_pivots=50_000):
    """The serial float simplex, one tableau at a time (the reference for
    the lockstep kernel); counter[0] counts its pivots."""
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
        if not _reference_run(tableau, basis, m, obj1, np.ones(width - 1, dtype=bool),
                              width, counter, max_pivots):
            raise LpError("phase 1 reported unbounded")
        if tableau[obj1, -1] > 1e-7:
            return LpResult(INFEASIBLE, [], None)
        drop = []
        for i in range(m):
            if art_mask[basis[i]]:
                cols = np.nonzero(~art_mask & (np.abs(tableau[i, :-1]) > 1e-9))[0]
                if cols.size:
                    _reference_pivot(tableau, basis, i, int(cols[0]))
                else:
                    drop.append(i)
        if drop:
            keep = [i for i in range(m) if i not in set(drop)]
            tableau = tableau[keep + [obj1, obj2]]
            basis = [basis[i] for i in keep]
            rows = keep
            m = len(keep)
            obj1, obj2 = m, m + 1
    if not _reference_run(tableau, basis, m, obj2, ~art_mask, width, counter, max_pivots):
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


def _bits(values):
    return np.array(values, dtype=np.float64).view(np.int64).tolist()


def _assert_same(got, want):
    """Bitwise equality of two outcomes: an LpResult or an LpError each."""
    if isinstance(want, LpError):
        assert isinstance(got, LpError) and str(got) == str(want)
        return
    assert isinstance(got, LpResult)
    assert got.status == want.status
    assert _bits(got.x) == _bits(want.x)
    assert _bits(got.duals) == _bits(want.duals)
    if want.objective is None:
        assert got.objective is None
    else:
        assert _bits([got.objective]) == _bits([want.objective])


def _reference_outcome(c, a, senses, b, **kwargs):
    try:
        return _reference_simplex_max(c, a, senses, b, **kwargs)
    except LpError as exc:
        return exc


def _outcome(c, a, senses, b):
    try:
        return simplex_max(c, a, senses, b)
    except LpError as exc:
        return exc


_entries = st.one_of(st.integers(-3, 3),
                     st.sampled_from([0.5, -0.25, 1e-10, -0.0, 2.0 / 3.0, 1e-9]))


@st.composite
def _small_lps(draw, count=1):
    """count LPs sharing c and senses, with mixed senses, negative right-hand
    sides and rows repeated (scaled) as redundant constraints."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 4))
    senses = draw(st.lists(st.sampled_from(["<=", "=", ">="]), min_size=m, max_size=m))
    c = draw(st.lists(_entries, min_size=n, max_size=n))
    repeat = draw(st.lists(st.tuples(st.integers(0, m - 1), st.sampled_from([1, 2, -1])),
                           max_size=2))
    senses = senses + [senses[i] if k > 0 else _FLIPPED[senses[i]] for i, k in repeat]
    lps = []
    for _ in range(count):
        a = draw(st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=m, max_size=m))
        b = draw(st.lists(_entries, min_size=m, max_size=m))
        a = a + [[k * x for x in a[i]] for i, k in repeat]
        b = b + [k * b[i] for i, k in repeat]
        lps.append((a, b))
    return c, senses, lps


@given(_small_lps())
def test_float_simplex_matches_the_serial_reference_bitwise(lp_data):
    c, senses, [(a, b)] = lp_data
    _assert_same(_outcome(c, a, senses, b), _reference_outcome(c, a, senses, b))


@given(_small_lps(count=6))
def test_batch_matches_the_serial_reference_bitwise(lp_data):
    c, senses, lps = lp_data
    got = simplex_max_many(c, [a for a, _ in lps], senses, [b for _, b in lps])
    for res, (a, b) in zip(got, lps):
        _assert_same(res, _reference_outcome(c, a, senses, b))


# max x - y + z over rows (<=, >=, <=): optima reached after 1, 3, 5 and 7
# pivots, then an infeasible LP, an unbounded one and one whose negative
# right-hand sides flip two rows and make it infeasible
_MIXED_C, _MIXED_SENSES = [1, -1, 1], ["<=", ">=", "<="]
_MIXED = [
    ([[2, 1, -1], [-2, 1, -1], [3, -1, -1]], [5, 0, 3]),
    ([[1, 0, 1], [3, -2, 1], [-2, 0, 3]], [6, 3, 5]),
    ([[1, 2, 1], [2, -2, 1], [-1, 3, 1]], [3, 1, 2]),
    ([[2, 1, -1], [3, 3, 2], [-1, 1, 1]], [0, 2, 4]),
    ([[1, 1, 1], [1, 1, 1], [0, 0, 1]], [1, 2, 5]),
    ([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], [1, 1, 1]),
    ([[1, 2, 0], [1, 0, 0], [0, 0, 1]], [-3, -5, 1]),
]


def _solve_mixed():
    return simplex_max_many(_MIXED_C, [a for a, _ in _MIXED], _MIXED_SENSES,
                            [b for _, b in _MIXED])


def test_batch_with_mixed_outcomes_and_finishing_steps():
    got = _solve_mixed()
    pivots = []
    for res, (a, b) in zip(got, _MIXED):
        counter = [0]
        _assert_same(res, _reference_outcome(_MIXED_C, a, _MIXED_SENSES, b, counter=counter))
        pivots.append(counter[0])
    assert [r.status for r in got] == [OPTIMAL] * 4 + [INFEASIBLE, UNBOUNDED, INFEASIBLE]
    assert pivots[:4] == [1, 3, 5, 7]


def test_pivot_limit_fails_only_the_lps_that_reach_it(monkeypatch):
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 2)
    got = _solve_mixed()
    for res, (a, b) in zip(got, _MIXED):
        _assert_same(res, _reference_outcome(_MIXED_C, a, _MIXED_SENSES, b, max_pivots=2))
    assert isinstance(got[0], LpResult) and isinstance(got[3], LpError)
    with pytest.raises(LpError, match="pivot limit"):
        simplex_max(_MIXED_C, _MIXED[3][0], _MIXED_SENSES, _MIXED[3][1])


def _assert_margin_lps_match(vs, step=1):
    _, rmat = polytope._restricted(vs)
    n = len(rmat)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)][::step]
    c, a, b = polytope._margin_lps(rmat, pairs)
    senses = ["="] * len(b)
    for res, mat in zip(simplex_max_many(c, a, senses, [b] * len(a)), a):
        _assert_same(res, _reference_outcome(c, mat, senses, b))


def test_margin_lps_match_the_serial_reference_p3():
    _assert_margin_lps_match(polytope.enumerate_mecs(3))


@pytest.mark.parametrize("p", [4, 5, 6])
def test_margin_lps_match_the_serial_reference_cycle_faces(p):
    _assert_margin_lps_match(polytope.enumerate_mecs_with_skeleton(polytope.cycle_graph(p)))


def test_margin_lps_match_the_serial_reference_every_tenth_p4_pair():
    _assert_margin_lps_match(polytope.enumerate_mecs(4), step=10)


# ---------------------------------------------------------------------------
# Phase 2 from a given feasible basis


def _nonsingular(rows):
    """Exact nonsingularity of a square matrix, by fraction elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    for i in range(len(mat)):
        pivot = next((r for r in range(i, len(mat)) if mat[r][i] != 0), None)
        if pivot is None:
            return False
        mat[i], mat[pivot] = mat[pivot], mat[i]
        for r in range(i + 1, len(mat)):
            f = mat[r][i] / mat[i][i]
            mat[r] = [a - f * b for a, b in zip(mat[r], mat[i])]
    return True


_basis_entries = st.one_of(st.integers(-3, 3),
                           st.sampled_from([Fraction(1, 2), Fraction(-2, 3)]))


@st.composite
def _based_lps(draw):
    """An '=' LP built around a known basis: A, a nonsingular column subset
    B and x_B >= 0 (zeros allowed, for degenerate starts), with b = B x_B.
    Returns (c, a, b, start) with exact entries."""
    m = draw(st.integers(1, 4))
    n = m + draw(st.integers(0, 3))
    a = draw(st.lists(st.lists(_basis_entries, min_size=n, max_size=n),
                      min_size=m, max_size=m))
    start = draw(st.permutations(range(n)))[:m]
    assume(_nonsingular([[row[j] for j in start] for row in a]))
    x_b = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
    b = [sum(Fraction(row[j]) * x for j, x in zip(start, x_b)) for row in a]
    c = draw(st.lists(_basis_entries, min_size=n, max_size=n))
    return c, a, b, start


def _floats(rows):
    return [[float(x) for x in row] for row in rows]


@given(_based_lps())
def test_started_float_solve_matches_the_two_phase_solve(lp_data):
    c, a, b, start = lp_data
    c, a, b = [float(x) for x in c], _floats(a), [float(x) for x in b]
    senses = ["="] * len(b)
    two = simplex_max(c, a, senses, b)
    got = simplex_max(c, a, senses, b, start=start)
    assert got.status == two.status
    if got.status == OPTIMAL:
        assert abs(got.objective - two.objective) <= 1e-9
        assert abs(sum(y * bi for y, bi in zip(got.duals, b)) - got.objective) <= 1e-9


@given(_based_lps())
def test_started_exact_solve_matches_the_two_phase_solve(lp_data):
    c, a, b, start = lp_data
    senses = ["="] * len(b)
    two = simplex_max(c, a, senses, b, exact=True)
    got = simplex_max(c, a, senses, b, exact=True, start=start)
    assert got.status == two.status
    if got.status == OPTIMAL:
        assert got.objective == two.objective
        assert sum(y * bi for y, bi in zip(got.duals, b)) == got.objective


@pytest.mark.parametrize("exact", [False, True])
@given(lp_data=_based_lps())
def test_infeasible_or_singular_start_is_an_error(exact, lp_data):
    c, a, b, start = lp_data
    senses = ["="] * len(b)
    # a zero column in the basis makes it singular
    a_zero = [row + [0] for row in a]
    with pytest.raises(LpError, match="singular"):
        simplex_max(c + [0], a_zero, senses, b, exact=exact, start=[len(c)] + start[1:])
    # x_B with a negative entry: b = B x_B is reached only off the start's orthant
    x_b = [-1] + [1] * (len(start) - 1)
    b_neg = [sum(Fraction(row[j]) * x for j, x in zip(start, x_b)) for row in a]
    if not exact:
        a, b_neg = _floats(a), [float(x) for x in b_neg]
    with pytest.raises(LpError, match="infeasible"):
        simplex_max(c, a, senses, b_neg, exact=exact, start=start)


def test_start_holds_structural_columns_only():
    with pytest.raises(ValueError):
        simplex_max([1], [[1]], ["="], [1], start=[1])


def _started_reference(c, a, b, starts):
    """Each LP of an '=' batch with b >= 0, pivoted by the serial reference
    from the tableau that lp builds for its start basis.  Returns the
    outcomes and the pivot count of each."""
    m, n = len(b[0]), len(c)
    stack, unit, art_cols = lp._start(np.array(c, dtype=np.float64),
                                      np.array(a, dtype=np.float64),
                                      np.array(b, dtype=np.float64), ["="] * m, 0.0, 1.0)
    basis = np.array(starts, dtype=np.int64)
    assert lp._enter_basis(stack, basis, basis.copy(), False) == [None] * len(b)
    width = stack.shape[2]
    allowed = np.ones(width - 1, dtype=bool)
    allowed[art_cols] = False
    outcomes, pivots = [], []
    for tableau, bas in zip(stack, basis.tolist()):
        counter = [0]
        if not _reference_run(tableau, bas, m, m + 1, allowed, width, counter, 50_000):
            outcomes.append(LpResult(UNBOUNDED, [], None))
        else:
            x = [0.0] * n
            for i, col in enumerate(bas):
                x[col] = tableau[i, -1]
            duals = [-tableau[m + 1, col] for col in unit]
            outcomes.append(LpResult(OPTIMAL, x, -tableau[m + 1, -1], duals))
        pivots.append(counter[0])
    return outcomes, pivots


def test_started_margin_lps_take_at_most_three_quarters_of_the_two_phase_pivots():
    # every 10th p = 4 pair that the census solves (the midpoint prefilter
    # settles the rest): the batch solve from the census start basis is
    # bitwise the serial reference's phase 2 from the same tableau, and it
    # needs no more than 75% of the serial two-phase solve's pivots
    _, rmat = polytope._restricted(polytope.enumerate_mecs(4))
    n = len(rmat)
    skip = polytope._midpoint_prefilter(rmat)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in skip][::10]
    c, a, b = polytope._margin_lps(rmat, pairs)
    starts = polytope._margin_start(rmat, pairs)
    senses = ["="] * len(b)
    want, started = _started_reference(c, a, [b] * len(a), starts)
    got = simplex_max_many(c, a, senses, [b] * len(a), start=starts)
    for res, ref in zip(got, want):
        _assert_same(res, ref)
    two_phase = 0
    for mat in a:
        counter = [0]
        _reference_simplex_max(c, mat, senses, b, counter=counter)
        two_phase += counter[0]
    assert sum(started) <= 0.75 * two_phase, (sum(started), two_phase)
