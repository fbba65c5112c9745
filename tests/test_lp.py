"""Two-phase simplex: known optima, senses, exact mode, degenerate cases."""

from fractions import Fraction

import numpy as np
import pytest

from cimwalk.lp import INFEASIBLE, OPTIMAL, UNBOUNDED, simplex_max


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
