import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from specgames import simplex
from specgames.matrix_games import (
    NormalFormGame,
    _ce_constraint_rows,
    is_correlated_equilibrium,
    optimize_ce,
)
from specgames.scenario import load_scenario, parse_scenario

# fig6's fixed gains: unlike a seeded channel draw, they do not depend on the BLAS kernel
FIG6_GAINS = [[[1.0, 1.0], [0.8, 0.4]], [[0.4, 0.4], [1.0, 1.0]]]


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


def reference_leaving_row(tableau, column, rows, start):
    """The key-by-key lexicographic ratio test: the right-hand side, clipped
    at 0, then each start basis column, until one row is left."""
    rhs = tableau.shape[1] - 1
    for key in [rhs, *start]:
        ratios = tableau[rows, key] / column[rows]
        if key == rhs:
            ratios = np.maximum(ratios, 0.0)
        rows = rows[ratios <= ratios.min() + simplex._TOL]
        if rows.size == 1:
            break
    return rows[0]


# Each key column draws its entries from a base plus one of these offset sets:
# exact ties, ties within _TOL, chains (0 ~ 6e-10 ~ 1.2e-9 but 0 !~ 1.2e-9),
# splits just past _TOL, and wide splits.
OFFSET_SETS = [[0.0, -0.0], [0.0, 6e-10], [0.0, 1.05e-9], [0.0, 6e-10, 1.2e-9], [0.0, 2e-9],
               [0.0, 1e-8, 0.5, -1.0]]


@st.composite
def degenerate_tableaux(draw):
    m = draw(st.integers(2, 14))
    keys = draw(st.integers(1, 10))
    columns = [(draw(st.sampled_from([0.0, 1.0, -2.0, 1e-300])), draw(st.sampled_from(OFFSET_SETS)))
               for _ in range(keys)]
    body = [[base + draw(st.sampled_from(offsets)) for base, offsets in columns] for _ in range(m)]
    column = [draw(st.sampled_from([1.0, 1.0, 1.0, 1.0 + 8e-10, 0.25, 3.0, 1.01e-9, 1e-12, 0.0, -1.0]))
              for _ in range(m)]
    rhs = [draw(st.sampled_from([0.0, 0.0, 0.0, -0.0, -3e-17, 5e-10, 1.0])) for _ in range(m)]
    tableau = np.column_stack([np.array(body), column, rhs])
    start = draw(st.permutations(range(keys)))
    return tableau, np.array(start)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(degenerate_tableaux())
def test_leaving_row_matches_key_by_key_walk(case):
    tableau, start = case
    column = tableau[:, -2]
    rows = np.flatnonzero(column > simplex._TOL)
    assume(rows.size > 0)
    expected = reference_leaving_row(tableau, column, rows, start)
    assert simplex._leaving_row(tableau.copy(), column, rows, start) == expected


def test_leaving_row_matches_key_by_key_walk_along_ce_solves(monkeypatch):
    # every ratio test met on the way to the optimum of real degenerate programs
    leaving_row = simplex._leaving_row
    seen = []

    def both(tableau, column, rows, start):
        row = leaving_row(tableau, column, rows, start)
        assert row == reference_leaving_row(tableau, column, rows, start)
        seen.append(rows.size)
        return row

    monkeypatch.setattr(simplex, "_leaving_row", both)
    for seed in (7, 18, 88, 93, 166):
        optimize_ce(parse_scenario(simplex_grid_document(seed)).finite_game(), weights=[1.0, 1.0])
    assert len(seen) > 50 and max(seen) > 10


def integer_draws(seed, count):
    """Integer-payoff two-player games of 2 to 8 actions each."""
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        shape = tuple(rng.integers(2, 9, size=2))
        draws.append(rng.integers(0, 4, size=shape + (2,)).astype(float))
    return draws


# (seed, draw) pairs that ran into the pivot cap before the ratio test clipped
# the right-hand side at 0 (a degenerate row that rounded below 0 won it) and
# took its pivot floor relative to the entering column's largest entry (pivots
# of 1.01e-9 let the tableau grow to 8e15)
STALLED_DRAWS = [(0, 175), (0, 373), (1, 27), (1, 151), (1, 154), (1, 413), (1, 589)]


def ce_program(game):
    rows = _ce_constraint_rows(game)
    c = game.payoffs.sum(axis=-1).reshape(-1)
    return dict(c=c, a_ub=rows, b_ub=np.zeros(len(rows)), a_eq=np.ones((1, c.size)), b_eq=[1.0],
                maximize=True)


def test_ce_program_matches_highs_on_integer_draws_that_stalled():
    linprog = pytest.importorskip("scipy.optimize").linprog
    draws = {seed: integer_draws(seed, 590) for seed in (0, 1)}
    for seed, index in STALLED_DRAWS:
        game = NormalFormGame(draws[seed][index])
        lp = ce_program(game)
        ref = linprog(-lp["c"], A_ub=lp["a_ub"], b_ub=lp["b_ub"], A_eq=lp["a_eq"], b_eq=lp["b_eq"],
                      method="highs")
        assert ref.status == 0
        dist, value = optimize_ce(game, weights=[1.0, 1.0])
        assert abs(value + ref.fun) <= 1e-9, (seed, index, value, -ref.fun)
        assert is_correlated_equilibrium(game, dist, tol=1e-9)[0]


def pinned_programs(scenario_dir):
    yield "contention", ce_program(load_scenario(scenario_dir / "contention.json").finite_game())
    fixed = {**simplex_grid_document(0), "channels": {"gains": FIG6_GAINS}}
    yield "simplex_grid", ce_program(parse_scenario(fixed).finite_game())
    for seed in (7, 18, 88, 93, 166):
        yield f"channel-{seed}", ce_program(parse_scenario(simplex_grid_document(seed)).finite_game())
    for index, payoffs in enumerate(integer_draws(0, 5)):
        yield f"integer-{index}", ce_program(NormalFormGame(payoffs))
    yield "production", dict(c=[2.0, 3.0], a_ub=[[1, 1], [6, 3], [1, 2]], b_ub=[100, 360, 120],
                             maximize=True)
    yield "infeasible", dict(c=[1.0], a_ub=[[1.0]], b_ub=[1.0], a_eq=[[1.0]], b_eq=[3.0])
    yield "unbounded", dict(c=[1.0, 0.0], a_ub=[[0.0, 1.0]], b_ub=[1.0], maximize=True)
    # phase one stops at once with its artificial basic at 0, then pivots it out
    yield "drive-out", dict(c=[1.0, 0.0, -1.0], a_ub=[[1.0, 1.0, 1.0]], b_ub=[1.0],
                            a_eq=[[-1.0, -1.0, 0.0]], b_eq=[0.0], maximize=True)


# Pivots made by the key-by-key ratio test, counted at each call of _pivot.
PINNED_PIVOTS = {
    "contention": 6, "simplex_grid": 31, "channel-7": 18, "channel-18": 13, "channel-88": 30,
    "channel-93": 20, "channel-166": 10, "integer-0": 97, "integer-1": 16, "integer-2": 48,
    "integer-3": 4, "integer-4": 108, "production": 2, "infeasible": 1, "unbounded": 0,
    "drive-out": 1,
}


def test_pivot_counts_are_pinned(scenario_dir):
    counts = {name: simplex.solve_lp(**program).pivots for name, program in pinned_programs(scenario_dir)}
    assert counts == PINNED_PIVOTS
