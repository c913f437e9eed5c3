import itertools

import numpy as np
import pytest

from specgames import simplex
from specgames.matrix_games import _ce_constraint_rows, is_correlated_equilibrium, optimize_ce
from specgames.scenario import parse_scenario


def simplex_grid_document(channel_seed):
    """A two-user power game on 2 bins with simplex_grid actions at levels 7 (8x8)."""
    return {
        "version": 1,
        "kind": "power_game",
        "grid": {"bins": 2, "band": 2.0},
        "channels": {"seed": channel_seed, "taps": 4},
        "noise": 1.0,
        "budgets": [10.0, 10.0],
        "actions": {"type": "simplex_grid", "levels": 7},
    }


def brute_force_max(c, a_ub, b_ub, a_eq=None, b_eq=None):
    """Enumerate candidate vertices: every n-subset of tight constraints."""
    c = np.asarray(c, float)
    n = c.size
    rows = [(np.asarray(r, float), float(v)) for r, v in zip(a_ub, b_ub)]
    if a_eq is not None:
        rows += [(np.asarray(r, float), float(v)) for r, v in zip(a_eq, b_eq)]
    eq_count = 0 if a_eq is None else len(a_eq)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        rows.append((e, 0.0))
    best = None
    for subset in itertools.combinations(range(len(rows)), n):
        a = np.array([rows[i][0] for i in subset])
        b = np.array([rows[i][1] for i in subset])
        try:
            x = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            continue
        if np.any(x < -1e-9):
            continue
        if np.any(np.asarray(a_ub) @ x > np.asarray(b_ub) + 1e-9):
            continue
        if a_eq is not None and np.any(np.abs(np.asarray(a_eq) @ x - np.asarray(b_eq)) > 1e-9):
            continue
        value = float(c @ x)
        if best is None or value > best:
            best = value
    assert eq_count <= n
    return best


def test_known_production_problem():
    # max 2x + 3y s.t. x+y <= 100, 6x+3y <= 360, x+2y <= 120
    res = simplex.solve_lp(
        [2.0, 3.0],
        a_ub=[[1, 1], [6, 3], [1, 2]],
        b_ub=[100, 360, 120],
        maximize=True,
    )
    assert res.status == simplex.OPTIMAL
    assert res.x == pytest.approx([40.0, 40.0], abs=1e-9)
    assert res.value == pytest.approx(200.0, abs=1e-9)


def test_equality_constraint():
    # max x + 2y on the simplex x + y = 1
    res = simplex.solve_lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], maximize=True)
    assert res.status == simplex.OPTIMAL
    assert res.x == pytest.approx([0.0, 1.0], abs=1e-12)
    assert res.value == pytest.approx(2.0, abs=1e-12)


def test_minimization_with_negative_rhs():
    # min x + y s.t. x + y >= 2  (encoded as -x - y <= -2)
    res = simplex.solve_lp([1.0, 1.0], a_ub=[[-1.0, -1.0]], b_ub=[-2.0])
    assert res.status == simplex.OPTIMAL
    assert res.value == pytest.approx(2.0, abs=1e-9)


def test_infeasible():
    res = simplex.solve_lp(
        [1.0], a_ub=[[1.0]], b_ub=[1.0], a_eq=[[1.0]], b_eq=[3.0], maximize=True
    )
    assert res.status == simplex.INFEASIBLE


def test_unbounded():
    res = simplex.solve_lp([1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0], maximize=True)
    assert res.status == simplex.UNBOUNDED


def test_degenerate_cycling_guard():
    # Beale's classic cycling example; Bland's rule must terminate
    c = [0.75, -150.0, 0.02, -6.0]
    a_ub = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    b_ub = [0.0, 0.0, 1.0]
    res = simplex.solve_lp(c, a_ub=a_ub, b_ub=b_ub, maximize=True)
    assert res.status == simplex.OPTIMAL
    assert res.value == pytest.approx(0.05, abs=1e-9)


def test_redundant_equalities():
    res = simplex.solve_lp(
        [1.0, 1.0],
        a_eq=[[1.0, 1.0], [2.0, 2.0]],
        b_eq=[1.0, 2.0],
        maximize=True,
    )
    assert res.status == simplex.OPTIMAL
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_random_lps_against_vertex_enumeration():
    hits = 0
    for idx in range(40):
        rng = np.random.default_rng([31, idx])
        n = int(rng.integers(2, 4))
        m = int(rng.integers(2, 5))
        c = rng.normal(size=n)
        a_ub = rng.normal(size=(m, n))
        b_ub = rng.uniform(0.5, 2.0, size=m)  # origin feasible, bounded-ish
        a_ub = np.vstack([a_ub, np.ones(n)])  # cap the region to force boundedness
        b_ub = np.concatenate([b_ub, [5.0]])
        res = simplex.solve_lp(c, a_ub=a_ub, b_ub=b_ub, maximize=True)
        assert res.status == simplex.OPTIMAL
        oracle = brute_force_max(c, a_ub, b_ub)
        assert res.value == pytest.approx(oracle, abs=1e-7)
        assert np.all(a_ub @ res.x <= b_ub + 1e-9)
        assert np.all(res.x >= -1e-12)
        hits += 1
    assert hits == 40


def test_random_lps_with_equalities():
    for idx in range(20):
        rng = np.random.default_rng([47, idx])
        n = 3
        c = rng.normal(size=n)
        a_ub = np.vstack([rng.normal(size=(3, n)), np.eye(n)])
        b_ub = np.concatenate([rng.uniform(0.5, 2.0, size=3), np.full(n, 3.0)])
        a_eq = np.ones((1, n))
        b_eq = np.array([1.0])
        res = simplex.solve_lp(c, a_ub=a_ub, b_ub=b_ub, a_eq=a_eq, b_eq=b_eq, maximize=True)
        oracle = brute_force_max(c, a_ub, b_ub, a_eq, b_eq)
        if oracle is None:
            assert res.status == simplex.INFEASIBLE
        else:
            assert res.status == simplex.OPTIMAL
            assert res.value == pytest.approx(oracle, abs=1e-7)
            assert abs(res.x.sum() - 1.0) <= 1e-9


def test_ce_program_matches_highs_on_degenerate_draws():
    # every CE inequality has right-hand side 0; seeds 18, 93 and 166 made
    # Bland's rule cycle to the pivot cap and seed 88 reported infeasible
    linprog = pytest.importorskip("scipy.optimize").linprog
    misses = []
    for seed in range(200):
        game = parse_scenario(simplex_grid_document(seed)).finite_game()
        rows = _ce_constraint_rows(game)
        c = game.payoffs.sum(axis=-1).reshape(-1)
        ref = linprog(-c, A_ub=rows, b_ub=np.zeros(len(rows)), A_eq=np.ones((1, c.size)),
                      b_eq=[1.0], method="highs")
        assert ref.status == 0
        try:
            dist, value = optimize_ce(game, weights=[1.0, 1.0])
        except ArithmeticError as exc:
            misses.append((seed, str(exc)))
            continue
        ok, violation = is_correlated_equilibrium(game, dist, tol=1e-9)
        if abs(value + ref.fun) > 1e-9 or not ok:
            misses.append((seed, value, -ref.fun, violation))
    assert not misses, f"CE LP misses HiGHS (watch seeds 18, 88, 93, 166): {misses}"


def test_optimum_is_checked_against_the_constraints(monkeypatch):
    # a pivot that corrupts the tableau must not come back as optimal
    pivot = simplex._pivot

    def skewed(tableau, cost, basis, row, col):
        pivot(tableau, cost, basis, row, col)
        tableau[:, -1] *= 1.5

    monkeypatch.setattr(simplex, "_pivot", skewed)
    with pytest.raises(ArithmeticError, match="misses its constraints"):
        simplex.solve_lp([1.0, 2.0], a_eq=[[1.0, 1.0]], b_eq=[1.0], maximize=True)
