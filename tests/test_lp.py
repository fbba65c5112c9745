"""Phase-2 simplex from a given basis: known optima, duals, exact mode,
degenerate and unbounded cases, and the lockstep kernel against the serial
references in both arithmetics."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from cimwalk import lp, polytope
from cimwalk.lp import OPTIMAL, UNBOUNDED, LpError, LpResult, simplex_max, simplex_max_many
from lp_reference import serial_exact_run, serial_run, two_phase_simplex_max
from margin_reference import margin_lps, margin_start


def _le(c, rows):
    """The LP max c.x s.t. rows x <= b, x >= 0 in '=' form: one slack column
    per row, appended after the structural columns.  Returns the padded c,
    the rows with the slack block, and the slack columns as a start basis,
    which is feasible whenever b >= 0."""
    n, m = len(c), len(rows)
    a = [list(row) + [int(i == k) for k in range(m)] for i, row in enumerate(rows)]
    return list(c) + [0] * m, a, list(range(n, n + m))


def test_small_known_optimum():
    # max 3x + 2y, x + y <= 4, x + 3y <= 6: optimum 12 at (4, 0)
    c, a, start = _le([3, 2], [[1, 1], [1, 3]])
    res = simplex_max(c, a, [4, 6], start)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(12.0)
    assert list(res.x[:2]) == pytest.approx([4.0, 0.0])


def test_equality_and_ge_senses():
    res = simplex_max([1], [[1]], [2], [0])
    assert res.status == OPTIMAL and res.objective == pytest.approx(2.0)
    # x >= 3 as x - s = 3 with a surplus column s
    res = simplex_max([-1, 0], [[1, -1]], [3], [0])
    assert res.status == OPTIMAL and res.objective == pytest.approx(-3.0)


def test_unbounded():
    c, a, start = _le([1], [[-1]])
    res = simplex_max(c, a, [1], start)
    assert res.status == UNBOUNDED


def test_beale_degenerate_instance():
    # classic degenerate instance that cycles under naive pivoting
    c, a, start = _le([0.75, -150, 0.02, -6], [
        [0.25, -60, -0.04, 9],
        [0.5, -90, -0.02, 3],
        [0, 0, 1, 0],
    ])
    res = simplex_max(c, a, [0, 0, 1], start)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(0.05)

    c, a, start = _le([Fraction(3, 4), -150, Fraction(1, 50), -6], [
        [Fraction(1, 4), -60, Fraction(-1, 25), 9],
        [Fraction(1, 2), -90, Fraction(-1, 50), 3],
        [0, 0, 1, 0],
    ])
    exact = simplex_max(c, a, [0, 0, 1], start, exact=True)
    assert exact.status == OPTIMAL
    assert exact.objective == Fraction(1, 20)


def test_exact_mode_returns_fractions():
    c, a, start = _le([1, 1], [[2, 1], [1, 2]])
    res = simplex_max(c, a, [1, 1], start, exact=True)
    assert res.status == OPTIMAL
    assert res.objective == Fraction(2, 3)
    assert list(res.x[:2]) == [Fraction(1, 3), Fraction(1, 3)]
    assert all(type(v) is Fraction for v in [res.objective, *res.x, *res.duals])


def test_exact_mode_has_no_tolerance():
    # max e x, x + s1 = 1 + d, x + s2 = 1 from (s1, s2), with e and d far
    # below the float tolerances: x enters although its reduced cost is
    # tiny, and the strictly smaller ratio 1 < 1 + d picks s2 to leave
    e, d = Fraction(1, 10**12), Fraction(1, 10**13)
    res = simplex_max([e, 0, 0], [[1, 1, 0], [1, 0, 1]], [1 + d, 1], [1, 2], exact=True)
    assert (res.status, res.objective, res.x) == (OPTIMAL, e, [1, d, 0])


def test_float_and_exact_agree_on_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n, m = 4, 5
        c = rng.uniform(-1, 1, n)
        a = rng.uniform(0, 1, (m, n))
        b = rng.uniform(0.5, 1.5, m)
        c, rows, start = _le(c.tolist(), a.tolist() + [[1.0] * n])
        rhs = b.tolist() + [10.0]
        flt = simplex_max(c, rows, rhs, start)
        ext = simplex_max(c, rows, rhs, start, exact=True)
        assert flt.status == OPTIMAL and ext.status == OPTIMAL
        assert flt.objective == pytest.approx(float(ext.objective), abs=1e-9)


def test_mixed_senses_with_equality():
    # max x + y, x + y = 1, x - y <= 0.25 (slack s), from the basis (y, s):
    # any point on the segment works, the objective is pinned by the equality
    res = simplex_max([1, 1, 0], [[1, 1, 0], [1, -1, 1]], [1, 0.25], [1, 2])
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(1.0)
    x, y, _ = res.x
    assert x + y == pytest.approx(1.0) and x - y <= 0.25 + 1e-9


@pytest.mark.parametrize("exact", [False, True])
def test_duals_of_small_known_optimum(exact):
    # max 3x + 2y, x + y <= 4, x + 3y <= 6: the first row binds with price 3
    c, a, start = _le([3, 2], [[1, 1], [1, 3]])
    res = simplex_max(c, a, [4, 6], start, exact=exact)
    assert res.status == OPTIMAL
    assert list(res.duals) == [3, 0]


@pytest.mark.parametrize("exact", [False, True])
def test_duals_of_every_sense_and_a_negated_rhs(exact):
    # max 3x + 2y + z, x + y + z <= 10, -x >= -4, y - z = 1: optimum 21.5 at
    # (4, 3.5, 2.5).  The '<=' row has slack s1, the '>=' row is -x - s2 = -4
    # with its negative rhs as given, and the start basis (s1, x, y) puts
    # (5, 4, 1) on them.  The '>=' row's dual is the rate in its own rhs.
    b = [10, -4, 1]
    res = simplex_max([3, 2, 1, 0, 0], [[1, 1, 1, 1, 0], [-1, 0, 0, 0, -1], [0, 1, -1, 0, 0]],
                      b, [3, 0, 1], exact=exact)
    assert res.status == OPTIMAL
    assert res.objective == Fraction(43, 2)
    assert list(res.duals) == [Fraction(3, 2), Fraction(-3, 2), Fraction(1, 2)]
    assert sum(y * bi for y, bi in zip(res.duals, b)) == res.objective
    if exact:
        assert all(isinstance(y, Fraction) for y in res.duals)


@pytest.mark.parametrize("exact", [False, True])
def test_duals_of_ge_row_with_positive_rhs(exact):
    # max -x - y, x + y >= 2 (surplus s), x - y = 0: optimum -2 at (1, 1),
    # which is also the start basis (x, y)
    res = simplex_max([-1, -1, 0], [[1, 1, -1], [1, -1, 0]], [2, 0], [0, 1], exact=exact)
    assert res.status == OPTIMAL
    assert list(res.duals) == [-1, 0]


def test_duals_absent_unless_optimal():
    c, a, start = _le([1], [[-1]])
    assert simplex_max(c, a, [1], start).duals == ()


# ---------------------------------------------------------------------------
# The lockstep kernel against the serial references


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


def _assert_exact_same(got, want):
    """Equality of two exact outcomes, with every number a Fraction: a float
    that crept into a tableau would compare equal where it is exact."""
    if isinstance(want, LpError):
        assert isinstance(got, LpError) and str(got) == str(want)
        return
    assert isinstance(got, LpResult)
    assert (got.status, list(got.x), list(got.duals), got.objective) == \
        (want.status, list(want.x), list(want.duals), want.objective)
    numbers = [*got.x, *got.duals] + ([] if got.objective is None else [got.objective])
    assert all(type(v) is Fraction for v in numbers)


def _started_reference(c, a, b, starts, max_pivots=50_000, exact=False):
    """Each '=' LP of a batch, pivoted one at a time by the serial reference
    from the tableau [A | I | b] that lp._enter_basis moves to its start
    basis; with exact=True in Fractions by the serial exact loop.  Returns
    the outcomes and the pivot count of each."""
    count, m, n = len(b), len(b[0]), len(c)
    stack = np.zeros((count, m + 1, n + m + 1), dtype=object if exact else np.float64)
    stack[:, :m, :n] = np.array(a, dtype=stack.dtype).reshape(count, m, n)
    stack[:, np.arange(m), n + np.arange(m)] = 1.0
    stack[:, :m, -1] = b
    stack[:, m, :n] = c
    if exact:
        stack = np.frompyfunc(Fraction, 1, 1)(stack)
    basis = np.array(starts, dtype=np.int64).reshape(count, m)
    errors = lp._enter_basis(stack, basis, basis.copy(), exact)
    allowed = np.arange(n + m) < n
    run = serial_exact_run if exact else serial_run
    outcomes, pivots = [], []
    for tableau, bas, error in zip(stack, basis.tolist(), errors):
        counter = [0]
        try:
            if error is not None:
                raise error
            if not run(tableau, bas, m, m, allowed, n + m + 1, counter, max_pivots):
                outcomes.append(LpResult(UNBOUNDED, [], None))
            else:
                x = [Fraction(0) if exact else 0.0] * n
                for i, col in enumerate(bas):
                    x[col] = tableau[i, -1]
                duals = [-tableau[m, n + i] for i in range(m)]
                outcomes.append(LpResult(OPTIMAL, x, -tableau[m, -1], duals))
        except LpError as exc:
            outcomes.append(exc)
        pivots.append(counter[0])
    return outcomes, pivots


def _outcome(c, a, b, start):
    try:
        return simplex_max(c, a, b, start)
    except LpError as exc:
        return exc


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
# adds entries at and around the kernel's tolerances
_entries = st.one_of(_basis_entries, st.sampled_from([1e-10, -0.0, 2.0 / 3.0, 1e-9]))


@st.composite
def _based_lps(draw, count=1, entries=_basis_entries):
    """count '=' LPs of one shape that share c, each built around a known
    basis: A, a nonsingular column subset B and x_B >= 0 (zeros allowed,
    for degenerate starts), with b = B x_B.  Returns (c, [(a, b, start),
    ...]) with exact b."""
    m = draw(st.integers(1, 4))
    n = m + draw(st.integers(0, 3))
    c = draw(st.lists(entries, min_size=n, max_size=n))
    lps = []
    for _ in range(count):
        a = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                          min_size=m, max_size=m))
        start = draw(st.permutations(range(n)))[:m]
        assume(_nonsingular([[row[j] for j in start] for row in a]))
        x_b = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m))
        b = [sum(Fraction(row[j]) * x for j, x in zip(start, x_b)) for row in a]
        lps.append((a, b, start))
    return c, lps


def _floats(rows):
    return [[float(x) for x in row] for row in rows]


def _float_lps(lp_data):
    c, lps = lp_data
    return [float(x) for x in c], [(_floats(a), [float(x) for x in b], s) for a, b, s in lps]


@given(_based_lps(entries=_entries))
def test_float_simplex_matches_the_serial_reference_bitwise(lp_data):
    c, [(a, b, start)] = _float_lps(lp_data)
    want, _ = _started_reference(c, [a], [b], [start])
    _assert_same(_outcome(c, a, b, start), want[0])


@given(_based_lps(count=6, entries=_entries))
def test_batch_matches_the_serial_reference_bitwise(lp_data):
    c, lps = _float_lps(lp_data)
    got = simplex_max_many(c, *zip(*lps))
    for res, (a, b, start) in zip(got, lps):
        _assert_same(res, _started_reference(c, [a], [b], [start])[0][0])


# max x - y + z over three '<=' rows, from the slack basis: optima reached
# after 1, 3, 5 and 6 pivots, an LP unbounded at the start and one unbounded
# after 3 pivots, then the first LP again from a singular start
_MIXED_C, _, _SLACKS = _le([1, -1, 1], [[0] * 3] * 3)
_MIXED = [(_le([1, -1, 1], rows)[1], b, _SLACKS) for rows, b in [
    ([[-1, 1, 2], [-1, 0, 3], [1, 1, 2]], [3, 6, 5]),
    ([[3, 2, 0], [3, -2, 1], [-1, -1, 2]], [5, 6, 1]),
    ([[1, -2, -2], [3, 1, 1], [3, -1, -1]], [0, 6, 2]),
    ([[1, 2, 0], [2, -2, 1], [1, -2, 0]], [5, 4, 1]),
    ([[-1, 2, -1], [0, 1, 1], [-2, -2, 3]], [5, 5, 3]),
    ([[-2, 0, -1], [2, -2, 1], [-2, 1, 2]], [6, 0, 1]),
]]
_MIXED.append((_MIXED[0][0], _MIXED[0][1], [3, 3, 4]))


def _solve_mixed(exact=False):
    return simplex_max_many(_MIXED_C, *zip(*_MIXED), exact=exact)


def test_batch_with_mixed_outcomes_and_finishing_steps():
    got = _solve_mixed()
    pivots = []
    for res, (a, b, start) in zip(got, _MIXED):
        want, count = _started_reference(_MIXED_C, [a], [b], [start])
        _assert_same(res, want[0])
        pivots += count
    assert [getattr(r, "status", None) for r in got] == [OPTIMAL] * 4 + [UNBOUNDED] * 2 + [None]
    assert pivots == [1, 3, 5, 6, 0, 3, 0]
    assert "singular" in str(got[6])


def test_pivot_limit_fails_only_the_lps_that_reach_it(monkeypatch):
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 2)
    for exact, same in [(False, _assert_same), (True, _assert_exact_same)]:
        got = _solve_mixed(exact)
        for res, (a, b, start) in zip(got, _MIXED):
            want = _started_reference(_MIXED_C, [a], [b], [start], max_pivots=2, exact=exact)
            same(res, want[0][0])
        assert isinstance(got[0], LpResult) and isinstance(got[3], LpError)
        with pytest.raises(LpError, match="pivot limit"):
            simplex_max(_MIXED_C, *_MIXED[3], exact=exact)


def _assert_exact_matches_the_serial_reference(monkeypatch, c, lps):
    """The lockstep exact solve of lps against the serial exact loop under
    every pivot limit up to one past the largest pivot count.  An LP that
    needs k pivots hits every limit up to k and ends at k + 1, so it must
    fail at exactly those limits and otherwise end as the reference does.
    Returns the pivot counts."""
    a, b, starts = zip(*lps)
    want, pivots = _started_reference(c, a, b, starts, exact=True)
    for limit in range(1, max(pivots) + 2):
        monkeypatch.setattr(lp, "_MAX_PIVOTS", limit)
        got = simplex_max_many(c, a, b, starts, exact=True)
        for res, ref, k in zip(got, want, pivots):
            if k >= limit and not isinstance(ref, LpError):
                ref = LpError("pivot limit exceeded")
            _assert_exact_same(res, ref)
    return pivots


def test_exact_batch_matches_the_serial_exact_reference(monkeypatch):
    pivots = _assert_exact_matches_the_serial_reference(monkeypatch, _MIXED_C, _MIXED)
    assert pivots == [1, 3, 5, 6, 0, 3, 0]
    assert [getattr(r, "status", None) for r in _solve_mixed(exact=True)] == \
        [OPTIMAL] * 4 + [UNBOUNDED] * 2 + [None]


def test_exact_margin_lps_match_the_serial_exact_reference_p3(monkeypatch):
    _, rmat = polytope._restricted(polytope.enumerate_mecs(3))
    n = len(rmat)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    c, a, b = margin_lps(rmat, pairs)
    lps = list(zip(a, [b] * len(a), margin_start(rmat, pairs)))
    assert max(_assert_exact_matches_the_serial_reference(monkeypatch, c, lps)) > 1


def _assert_margin_lps_match(vs, step=1):
    _, rmat = polytope._restricted(vs)
    n = len(rmat)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)][::step]
    c, a, b = margin_lps(rmat, pairs)
    starts = margin_start(rmat, pairs)
    want, _ = _started_reference(c, a, [b] * len(a), starts)
    for res, ref in zip(simplex_max_many(c, a, [b] * len(a), starts), want):
        _assert_same(res, ref)


def test_margin_lps_match_the_serial_reference_p3():
    _assert_margin_lps_match(polytope.enumerate_mecs(3))


@pytest.mark.parametrize("p", [4, 5, 6])
def test_margin_lps_match_the_serial_reference_cycle_faces(p):
    _assert_margin_lps_match(polytope.enumerate_mecs_with_skeleton(polytope.cycle_graph(p)))


def test_margin_lps_match_the_serial_reference_every_tenth_p4_pair():
    _assert_margin_lps_match(polytope.enumerate_mecs(4), step=10)


# ---------------------------------------------------------------------------
# Solves from a given feasible basis


@given(_based_lps())
def test_started_float_solve_matches_the_two_phase_solve(lp_data):
    c, [(a, b, start)] = _float_lps(lp_data)
    two = two_phase_simplex_max(c, a, ["="] * len(b), b)
    got = simplex_max(c, a, b, start)
    assert got.status == two.status
    if got.status == OPTIMAL:
        assert abs(got.objective - two.objective) <= 1e-9
        assert abs(sum(y * bi for y, bi in zip(got.duals, b)) - got.objective) <= 1e-9


@given(_based_lps())
def test_started_exact_solve_meets_strong_duality(lp_data):
    # an optimal x and its duals y certify each other: A x = b, x >= 0,
    # c - A^T y <= 0 and c.x = b.y
    c, [(a, b, start)] = lp_data
    got = simplex_max(c, a, b, start, exact=True)
    if got.status == UNBOUNDED:
        c, [(a, b, _)] = _float_lps(lp_data)
        assert two_phase_simplex_max(c, a, ["="] * len(b), b).status == UNBOUNDED
        return
    assert got.status == OPTIMAL
    x, y = got.x, got.duals
    assert all(sum(aij * xj for aij, xj in zip(row, x)) == bi for row, bi in zip(a, b))
    assert all(xj >= 0 for xj in x)
    assert all(cj <= sum(row[j] * yi for row, yi in zip(a, y)) for j, cj in enumerate(c))
    assert sum(cj * xj for cj, xj in zip(c, x)) == got.objective
    assert sum(bi * yi for bi, yi in zip(b, y)) == got.objective


@pytest.mark.parametrize("exact", [False, True])
@given(lp_data=_based_lps())
def test_infeasible_or_singular_start_is_an_error(exact, lp_data):
    c, [(a, b, start)] = lp_data
    # a zero column in the basis makes it singular
    a_zero = [row + [0] for row in a]
    with pytest.raises(LpError, match="singular"):
        simplex_max(c + [0], a_zero, b, [len(c)] + start[1:], exact=exact)
    # x_B with a negative entry: b = B x_B is reached only off the start's orthant
    x_b = [-1] + [1] * (len(start) - 1)
    b_neg = [sum(Fraction(row[j]) * x for j, x in zip(start, x_b)) for row in a]
    if not exact:
        a, b_neg = _floats(a), [float(x) for x in b_neg]
    with pytest.raises(LpError, match="infeasible"):
        simplex_max(c, a, b_neg, start, exact=exact)


def test_start_holds_structural_columns_only():
    with pytest.raises(ValueError):
        simplex_max([1], [[1]], [1], [1])


def test_started_margin_lps_take_at_most_three_quarters_of_the_two_phase_pivots():
    # every 10th p = 4 pair that the census solves (the midpoint prefilter
    # settles the rest): the batch solve from the census start basis is
    # bitwise the serial reference's pivots from the same tableau, and it
    # needs no more than 75% of the serial two-phase solve's pivots
    _, rmat = polytope._restricted(polytope.enumerate_mecs(4))
    hit = polytope._midpoint_prefilter(rmat)
    i, j = np.triu_indices(len(rmat), 1)
    pairs = list(zip(i[~hit].tolist(), j[~hit].tolist()))[::10]
    c, a, b = margin_lps(rmat, pairs)
    starts = margin_start(rmat, pairs)
    want, started = _started_reference(c, a, [b] * len(a), starts)
    got = simplex_max_many(c, a, [b] * len(a), starts)
    for res, ref in zip(got, want):
        _assert_same(res, ref)
    two_phase = 0
    for mat in a:
        counter = [0]
        two_phase_simplex_max(c, mat, ["="] * len(b), b, counter=counter)
        two_phase += counter[0]
    assert sum(started) <= 0.75 * two_phase, (sum(started), two_phase)


# ---------------------------------------------------------------------------
# Restarts from a returned basis


def _assert_restart_takes_no_pivot(monkeypatch, c, lps, exact):
    """Each optimal LP of lps, restarted from the basis it returned, is
    optimal again before any pivot: with a pivot limit of 1 a solve that
    pivoted would end at the limit."""
    first = simplex_max_many(c, *zip(*lps), exact=exact)
    monkeypatch.setattr(lp, "_MAX_PIVOTS", 1)
    solved = [(res, a, b) for res, (a, b, _) in zip(first, lps)
              if isinstance(res, LpResult) and res.status == OPTIMAL]
    if not solved:
        return 0
    again = simplex_max_many(c, [a for _, a, _ in solved], [b for _, _, b in solved],
                             [res.basis for res, _, _ in solved], exact=exact)
    for (res, _, _), res2 in zip(solved, again):
        assert isinstance(res2, LpResult) and res2.status == OPTIMAL
        assert res2.basis == res.basis
        if exact:
            assert (res2.objective, res2.duals) == (res.objective, res.duals)
        else:
            assert res2.objective == pytest.approx(res.objective, rel=1e-12, abs=1e-12)
            assert res2.duals == pytest.approx(res.duals, rel=1e-12, abs=1e-12)
    return len(solved)


@pytest.mark.parametrize("exact", [False, True])
def test_restart_from_the_returned_basis_takes_no_pivot(monkeypatch, exact):
    assert _assert_restart_takes_no_pivot(monkeypatch, _MIXED_C, _MIXED, exact) == 4


@given(_based_lps(count=3))
def test_restart_from_the_returned_basis_takes_no_pivot_on_random_lps(lp_data):
    c, lps = _float_lps(lp_data)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_restart_takes_no_pivot(monkeypatch, c, lps, exact=False)


def test_margin_lp_restart_takes_no_pivot_p3(monkeypatch):
    _, rmat = polytope._restricted(polytope.enumerate_mecs(3))
    n = len(rmat)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    c, a, b = margin_lps(rmat, pairs)
    lps = list(zip(a, [b] * len(a), margin_start(rmat, pairs)))
    assert _assert_restart_takes_no_pivot(monkeypatch, c, lps, exact=False) == len(pairs)
