import io
import re
import tracemalloc
from importlib import resources
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cauchylab import (
    LinearMatrix,
    LinearPSD,
    NormSubdifferential,
    Rotation,
    ScaledIdentity,
    SolverConfig,
    SpaceContext,
    SqrtSemigroup,
    StronglyAccretive,
    TimeGrid,
    Trajectory,
    check_apriori,
    linear_oracle,
    norm_oracle,
    solve_regularized,
    solve_second_order,
)
from cauchylab import second_order
from cauchylab.config import load_config
from cauchylab.errors import HorizonError, SolverError
from cauchylab.second_order import (
    CSV_BLOCK_ROWS,
    DEFAULT_SCHEDULE,
    MIN_STEPS,
    _eliminate,
    _reduce,
    _second_difference,
    _solve_newton_system,
    _solve_toeplitz_system,
    export_trajectory_csv,
    projection_profile,
    solve_unregularized,
)


def test_time_grid_validation():
    grid = TimeGrid(2.0, 0.5)
    assert grid.n_steps == 4
    assert np.allclose(grid.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
    with pytest.raises(ValueError):
        TimeGrid(1.0, 0.3)
    with pytest.raises(ValueError):
        TimeGrid(1.0, -0.1)


def test_regularized_zero_operator_pure_decay(hilbert2):
    # u'' = u with unit restoring term decays like e^{-t}
    op = ScaledIdentity(0.0, hilbert2)
    grid = TimeGrid(20.0, 0.01)
    traj = solve_regularized(op, 0.1, 1.0, np.array([1.0, 0.0]), grid)
    expected = np.exp(-grid.nodes)
    assert np.max(np.abs(traj.values[:, 0] - expected)) <= 2e-5
    assert np.max(np.abs(traj.values[:, 1])) <= 1e-12


def test_regularized_decay_rate(hilbert2):
    # rate sqrt(c/(1+rc) + p) for the scaled identity
    op = ScaledIdentity(1.0, hilbert2)
    grid = TimeGrid(20.0, 0.01)
    traj = solve_regularized(op, 0.1, 0.01, np.array([1.0, 0.0]), grid)
    i2, i8 = 200, 800
    rate = (np.log(traj.values[i2, 0]) - np.log(traj.values[i8, 0])) / (
        grid.nodes[i8] - grid.nodes[i2]
    )
    assert rate == pytest.approx(np.sqrt(1.0 / 1.1 + 0.01), abs=2e-4)


def test_regularized_zero_initial_point(hilbert2):
    op = ScaledIdentity(1.0, hilbert2)
    traj = solve_regularized(op, 0.1, 0.1, np.zeros(2), TimeGrid(10.0, 0.01))
    assert np.max(np.abs(traj.values)) == 0.0


def test_regularized_rejects_bad_parameters(hilbert2):
    op = ScaledIdentity(1.0, hilbert2)
    with pytest.raises(ValueError):
        solve_regularized(op, 0.0, 0.1, np.zeros(2), TimeGrid(10.0, 0.01))
    with pytest.raises(ValueError):
        solve_regularized(op, 0.1, -0.1, np.zeros(2), TimeGrid(10.0, 0.01))


def test_second_order_linear_psd_oracle(hilbert2):
    op = LinearPSD(np.diag([1.0, 4.0]), hilbert2)
    x = np.array([1.0, 1.0])
    traj = solve_second_order(op, x, SolverConfig(TimeGrid(20.0, 0.01)))
    expected = np.stack(
        [linear_oracle(op.matrix, t, x) for t in traj.times[:: 100]]
    )
    assert np.max(np.abs(traj.values[::100] - expected)) <= 1e-4
    assert traj.meta["stabilized"]


def test_second_order_zero_operator_constant(hilbert2):
    op = ScaledIdentity(0.0, hilbert2)
    x = np.array([0.7, -0.3])
    traj = solve_second_order(op, x, SolverConfig(TimeGrid(40.0, 0.01)))
    assert np.max(np.abs(traj.values - x)) <= 1e-5


def test_direct_solve_zero_operator_is_exact(hilbert2):
    # the chain stopped 3.5e-5 from x at T = 100 while claiming stabilization
    op = ScaledIdentity(0.0, hilbert2)
    x = np.array([0.7, -0.3])
    traj = solve_second_order(op, x, SolverConfig(TimeGrid(100.0, 0.01)))
    assert np.max(np.abs(traj.values - x)) <= 1e-12
    assert traj.meta["stabilized"]


@pytest.mark.parametrize(
    "matrix", [1.3 * np.eye(2), np.array([[2.0, 1.0], [1.0, 1.0]]), np.zeros((2, 2))]
)
def test_direct_solve_long_horizon_oracle(hilbert2, matrix):
    op = LinearPSD(matrix, hilbert2)
    x = np.array([0.8, -0.6])
    traj = solve_second_order(op, x, SolverConfig(TimeGrid(100.0, 0.01)))
    expected = np.stack([linear_oracle(matrix, t, x) for t in traj.times[::50]])
    assert np.max(np.abs(traj.values[::50] - expected)) <= 1e-5
    assert traj.meta["continuation"] == [(0.0, 0.0)]
    assert traj.meta["stage_diffs"] == []
    assert traj.meta["far_end_ok"]


def test_direct_solve_strongly_accretive_over_linear_base(hilbert2):
    # A = B + c I is linear; its generic Yosida form divides by r, so the
    # direct solve must go through linear_matrix
    op = StronglyAccretive(Rotation(space=hilbert2), 1.0)
    x = np.array([1.0, 0.0])
    traj = solve_second_order(op, x, SolverConfig(TimeGrid(40.0, 0.01)))
    assert traj.meta["continuation"] == [(0.0, 0.0)]
    root = scipy.linalg.sqrtm(op.linear_matrix).real
    expected = np.stack([scipy.linalg.expm(-t * root) @ x for t in traj.times[::100]])
    assert np.max(np.abs(traj.values[::100] - expected)) <= 1e-4


def test_regularized_singular_resolvent_is_solver_error(hilbert2):
    # I + rB is singular for B = -10 I at r = 0.1
    op = LinearMatrix(-10.0 * np.eye(2), hilbert2)
    with pytest.raises(SolverError, match=r"r=0\.1, p=0\.1"):
        solve_regularized(op, 0.1, 0.1, np.array([1.0, 0.0]), TimeGrid(10.0, 0.05))


def test_second_order_scalar_closed_form(hilbert2):
    op = ScaledIdentity(4.0, hilbert2)
    traj = solve_second_order(op, np.array([1.0, 0.0]), SolverConfig(TimeGrid(20.0, 0.01)))
    expected = np.exp(-2.0 * traj.times)
    assert np.max(np.abs(traj.values[:, 0] - expected)) <= 1e-4


def test_sqrt_semigroup_queries(hilbert2):
    op = LinearPSD(np.diag([1.0, 4.0]), hilbert2)
    x = np.array([1.0, 1.0])
    sg = SqrtSemigroup(op, x, SolverConfig(TimeGrid(20.0, 0.01)))
    assert np.allclose(sg.at(0.0), x)
    assert np.allclose(sg.at(1.0), [0.3679, 0.1353], atol=1e-4)
    with pytest.raises(HorizonError):
        sg.at(19.5)
    with pytest.raises(HorizonError):
        sg.at(-0.1)


def test_nan_time_is_outside_the_horizon(hilbert2):
    # NaN compares false with both ends, so it must not slip into indexing
    op = LinearPSD(np.diag([1.0, 4.0]), hilbert2)
    sg = SqrtSemigroup(op, np.array([1.0, 1.0]), SolverConfig(TimeGrid(20.0, 0.01)))
    with pytest.raises(HorizonError, match="time nan outside trusted range"):
        sg.at_many(np.array([1.0, np.nan]))
    with pytest.raises(HorizonError, match=r"time nan outside \[0, 20\.0\]"):
        sg.trajectory.at_many(np.array([1.0, np.nan]))


def test_sqrt_semigroup_law(hilbert2):
    op = LinearPSD(np.diag([1.0, 4.0]), hilbert2)
    x = np.array([1.0, 1.0])
    sg = SqrtSemigroup(op, x, SolverConfig(TimeGrid(20.0, 0.01)))
    rng = np.random.default_rng(9)
    for _ in range(3):
        t, s = rng.uniform(0.2, 3.0, size=2)
        mid = sg.at(s)
        restart = sg.restart_from(mid)
        assert np.linalg.norm(sg.at(t + s) - restart.at(t)) <= 3e-4


def test_linear_oracle_values():
    b = np.diag([1.0, 4.0])
    x = np.array([1.0, 1.0])
    assert np.allclose(linear_oracle(b, 1.0, x), [np.exp(-1.0), np.exp(-2.0)])
    assert np.allclose(linear_oracle(b, 0.0, x), x)
    assert np.allclose(linear_oracle(np.zeros((2, 2)), 7.0, x), x)
    with pytest.raises(ValueError):
        linear_oracle(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0, x)


def test_linear_oracle_against_scipy():
    # independent cross-check: expm of the matrix square root
    rng = np.random.default_rng(21)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    b = q @ np.diag([0.5, 2.0, 7.0]) @ q.T
    b = (b + b.T) / 2
    x = rng.normal(size=3)
    root = scipy.linalg.sqrtm(b).real
    for t in [0.3, 1.0, 2.5]:
        assert np.allclose(
            linear_oracle(b, t, x), scipy.linalg.expm(-t * root) @ x, atol=1e-10
        )


def test_norm_oracle_values():
    x = np.array([0.6, -0.8])
    # c = 0: rho = (T* - t)^2 / 2 with T* = sqrt(2)
    assert np.allclose(norm_oracle(0.0, 0.0, x), x)
    assert np.allclose(norm_oracle(0.0, 0.5, x), 0.5 * (np.sqrt(2.0) - 0.5) ** 2 * x)
    assert np.allclose(norm_oracle(0.0, 1.5, x), 0.0)
    # c > 0: rho'' = 1 + c rho along the ray, and rho = 0 after T*
    c, h = 1.3, 1e-4
    rho = lambda t: np.linalg.norm(norm_oracle(c, t, x))
    assert rho(0.0) == pytest.approx(1.0)
    for t in (0.2, 0.5, 0.8):
        ddrho = (rho(t + h) - 2.0 * rho(t) + rho(t - h)) / (h * h)
        assert ddrho == pytest.approx(1.0 + c * rho(t), rel=1e-5)
    t_star = np.arccosh(1.0 + c) / np.sqrt(c)
    assert rho(t_star - 1e-3) <= 1e-6
    assert np.allclose(norm_oracle(c, t_star + 0.1, x), 0.0)
    assert np.allclose(norm_oracle(c, 3.0, np.zeros(2)), 0.0)
    with pytest.raises(ValueError):
        norm_oracle(-1.0, 1.0, x)
    with pytest.raises(ValueError):
        norm_oracle(c, -1.0, x)


def _norm_oracle_deviation(op, c, x, solver):
    sg = SqrtSemigroup(op, x, solver)
    traj = sg.trajectory
    keep = traj.times <= sg.trusted_horizon
    expected = np.stack([norm_oracle(c, t, x) for t in traj.times[keep]])
    return traj, float(np.max(np.linalg.norm(traj.values[keep] - expected, axis=1)))


@pytest.mark.parametrize(
    "c, x",
    [
        # the first four stalled at r = 1e-7 when A_r' was a forward difference
        (1.088, [1.38, 0.5887]),
        (1.127, [-0.9187, -1.186]),
        (0.9561, [-0.3676, 1.454]),
        (1.05, [-0.6967, 1.328]),
        (0.8605, [1.482, -0.2345]),
        (0.9272, [0.0927, -1.497]),
    ],
)
def test_strongly_accretive_norm_chain_matches_oracle(hilbert2, c, x):
    # the long-horizon benchmark draws of c Id over the norm subdifferential
    op = StronglyAccretive(NormSubdifferential(hilbert2), c)
    solver = SolverConfig(TimeGrid(85.0, 85.0 / 12000), margin=1.0)
    traj, deviation = _norm_oracle_deviation(op, c, np.array(x), solver)
    assert traj.meta["stabilized"]
    assert deviation <= 1e-5


def test_subdifferential_norm_config_matches_oracle():
    spec = load_config(str(resources.files("cauchylab") / "configs" / "subdifferential_norm.cfg"))
    traj, deviation = _norm_oracle_deviation(spec.op, 0.0, spec.x, spec.solver)
    assert traj.meta["stabilized"]
    assert deviation <= 1e-5


# lh05 and lh11 of the long-horizon benchmark at seed 7001, with the oracle
# deviations of the chain down to r = 1e-7 (2.24e-6 and 5.06e-6); the
# unregularized solve reads 2.33e-6 and 5.15e-6
NORM_FAMILY_CASES = [
    (0.0, [-0.5299, 1.017, 0.9672], TimeGrid(60.0, 0.005), 2.4e-6),
    (0.9867, [0.7523, -1.298], TimeGrid(85.0, 85.0 / 12000), 5.3e-6),
]


@pytest.mark.parametrize("c, x, grid, bound", NORM_FAMILY_CASES)
def test_unregularized_solve_matches_norm_oracle(c, x, grid, bound):
    x = np.array(x)
    base = NormSubdifferential(SpaceContext.hilbert(x.size))
    op = base if c == 0.0 else StronglyAccretive(base, c)
    traj, deviation = _norm_oracle_deviation(op, c, x, SolverConfig(grid, margin=1.0))
    assert deviation <= bound
    assert traj.meta["stabilized"]
    assert traj.meta["continuation"] == list(DEFAULT_SCHEDULE) + [(0.0, 0.0)]
    assert len(traj.meta["stage_diffs"]) == len(DEFAULT_SCHEDULE)
    # semismooth Newton from the r = 1e-3 stage: 2 and 1 steps
    assert traj.meta["newton_steps"] <= 2
    u = traj.values[1:]
    active = u.any(axis=1)
    last = int(np.flatnonzero(active)[-1])
    # extinction well inside the horizon, and nothing but 0.0 after it
    assert last < u.shape[0] // 2
    assert np.all(u[last + 1 :] == 0.0)
    # complementarity: at a zero node u'' - c u = u'' lies in the unit ball
    d2 = _second_difference(x, grid.step, u)
    assert np.max(np.linalg.norm(d2[~active] - c * u[~active], axis=1)) <= 1.0 + 1e-9


def test_unregularized_solve_from_a_coarse_schedule(monkeypatch):
    # from r = 0.1, sigma = 0.1: the second and third iterates have an
    # active node past an inactive gap, whose couplings the step drops
    op = StronglyAccretive(NormSubdifferential(SpaceContext.hilbert(2)), 3.0)
    x = np.array([1.8, 2.4])
    grid = TimeGrid(4.0, 0.01)
    step = second_order._active_set_step
    gaps = []

    def recorded(op, h, sigma, u, v, rhs):
        active = v.any(axis=1)
        gaps.append(not active[: np.flatnonzero(active)[-1]].all())
        return step(op, h, sigma, u, v, rhs)

    monkeypatch.setattr(second_order, "_active_set_step", recorded)
    stage = solve_regularized(op, 0.1, 0.1, x, grid)
    coarse = solve_unregularized(op, x, grid, 0.1, stage.values[1:])
    assert any(gaps)
    fine = solve_second_order(op, x, SolverConfig(grid))
    assert np.max(np.abs(coarse.values - fine.values)) <= 1e-9


def _single_grid_chain(op, x, grid):
    # every stage of the schedule on the solver's own grid, then r = 0
    stage = None
    for r, p in DEFAULT_SCHEDULE:
        stage = solve_regularized(op, r, p, x, grid, None if stage is None else stage.values[1:])
    return solve_unregularized(op, x, grid, DEFAULT_SCHEDULE[-1][0], stage.values[1:])


@pytest.mark.parametrize(
    "c, x, grid, coarse_step",
    [
        *[(c, x, grid, 8 * grid.step) for c, x, grid, _ in NORM_FAMILY_CASES],
        # 401 steps: the coarse grid's 51 steps reach past the horizon
        (3.0, [1.8, 2.4], TimeGrid(4.01, 0.01), 0.08),
        # under 8 MIN_STEPS steps the factor shrinks: 30 // 4 = 7, and 1 at 6 steps
        (0.0, [1.0, 0.5], TimeGrid(3.0, 0.1), 0.7),
        (0.0, [0.02, 0.01], TimeGrid(0.06, 0.01), 0.01),
    ],
)
def test_coarse_stages_give_the_single_grid_solution(c, x, grid, coarse_step):
    x = np.array(x)
    base = NormSubdifferential(SpaceContext.hilbert(x.size))
    op = base if c == 0.0 else StronglyAccretive(base, c)
    traj = solve_second_order(op, x, SolverConfig(grid, margin=grid.horizon / 2))
    assert traj.meta["coarse_step"] == pytest.approx(coarse_step, rel=1e-12)
    assert len(traj.meta["stage_steps"]) == len(DEFAULT_SCHEDULE) + 2
    assert np.max(np.abs(traj.values - _single_grid_chain(op, x, grid).values)) <= 1e-12


def test_coarse_stages_in_a_restart(hilbert2):
    op = StronglyAccretive(NormSubdifferential(hilbert2), 0.5)
    solver = SolverConfig(TimeGrid(10.0, 0.01))
    sg = SqrtSemigroup(op, np.array([1.5, -0.5]), solver)
    y = sg.at(0.5)
    restart = sg.restart_from(y)
    assert restart is not sg
    chain = _single_grid_chain(op, y, solver.grid)
    assert np.max(np.abs(restart.trajectory.values - chain.values)) <= 1e-12


def test_norm_chain_far_from_its_zero():
    # extinction at sqrt(60) = 7.75 of a horizon of 20: on the solver's grid
    # the first stage needed more than NEWTON_MAX_ITER steps; on the coarse
    # grid it takes 34, and the r = 0 solve 4
    x = np.array([30.0, 0.0])
    op = NormSubdifferential(SpaceContext.hilbert(2))
    traj, deviation = _norm_oracle_deviation(op, 0.0, x, SolverConfig(TimeGrid(20.0, 0.01)))
    assert traj.meta["stabilized"]
    assert deviation <= 1e-5


def test_unregularized_stall_is_one_line_solver_error(monkeypatch, hilbert2):
    # an ascent direction: the line search halves the step to nothing
    step = second_order._active_set_step
    monkeypatch.setattr(second_order, "_active_set_step", lambda *args: -step(*args))
    with pytest.raises(SolverError) as info:
        solve_second_order(
            NormSubdifferential(hilbert2), np.array([1.0, 0.5]), SolverConfig(TimeGrid(5.0, 0.01))
        )
    message = str(info.value)
    assert re.fullmatch(r"unregularized solve stalled at residual \S+ \(r=0, p=0\)", message)


# the residual's rounding floor grows like eps ||x||_inf 4/h^2, about 1e-7
# here: every solve below stalled short of the absolute tolerance 1e-8
LARGE_X = np.array([1e4, 0.0])


@pytest.mark.parametrize(
    "make",
    [lambda s: ScaledIdentity(1.0, s), lambda s: LinearPSD([[2.0, 1.0], [1.0, 1.0]], s)],
    ids=["scaled_identity", "linear_psd"],
)
def test_linear_solve_at_a_large_initial_point(hilbert2, make):
    op = make(hilbert2)
    traj = solve_second_order(op, LARGE_X, SolverConfig(TimeGrid(20.0, 0.005)))
    expected = np.stack([linear_oracle(op.linear_matrix, t, LARGE_X) for t in traj.times[::50]])
    assert np.max(np.abs(traj.values[::50] - expected)) <= 1e-5 * np.linalg.norm(LARGE_X)


def test_norm_family_solve_at_a_large_initial_point(hilbert2):
    op = StronglyAccretive(NormSubdifferential(hilbert2), 1.0)
    solver = SolverConfig(TimeGrid(20.0, 0.005))
    traj, deviation = _norm_oracle_deviation(op, 1.0, LARGE_X, solver)
    assert traj.meta["stabilized"]
    assert deviation <= 1e-5 * np.linalg.norm(LARGE_X)


def test_check_apriori_zero_operator(hilbert2):
    op = ScaledIdentity(0.0, hilbert2)
    x = np.array([0.7, -0.3])
    traj = solve_second_order(op, x, SolverConfig(TimeGrid(40.0, 0.01)))
    bounds = check_apriori(op, x, traj, 1.0)
    assert bounds.passed
    assert bounds.int_du_sq <= 1e-6
    assert bounds.int_ddu_sq <= 1e-6


def test_check_apriori_identity_margins(hilbert2):
    op = ScaledIdentity(1.0, hilbert2)
    x = np.array([1.0, 0.0])
    traj = solve_second_order(op, x, SolverConfig(TimeGrid(40.0, 0.01)))
    bounds = check_apriori(op, x, traj, 1.0)
    assert bounds.passed
    # closed forms: both integrals equal 1/2 against the cap 2
    assert bounds.int_du_sq == pytest.approx(0.5, abs=1e-3)
    assert bounds.int_ddu_sq == pytest.approx(0.5, abs=1e-3)
    assert bounds.rhs_du == pytest.approx(2.0)
    assert bounds.rhs_ddu == pytest.approx(2.0)


def test_subdifferential_extinction_closed_form(hilbert2):
    # radial flow: u(t) = (sqrt(|x|) - t/sqrt(2))_+^2 along x
    op = NormSubdifferential(hilbert2)
    traj = solve_second_order(op, np.array([1.0, 0.0]), SolverConfig(TimeGrid(20.0, 0.01)))
    expected = np.maximum(1.0 - traj.times / np.sqrt(2.0), 0.0) ** 2
    assert np.max(np.abs(traj.values[:, 0] - expected)) <= 1e-3


def test_grid_refinement_second_order(hilbert2):
    op = ScaledIdentity(1.0, hilbert2)
    x = np.array([1.0, 0.0])
    errs = []
    for h in [0.04, 0.02]:
        traj = solve_second_order(op, x, SolverConfig(TimeGrid(20.0, h)))
        errs.append(np.max(np.abs(traj.values[:, 0] - np.exp(-traj.times))))
    assert 3.0 <= errs[0] / errs[1] <= 5.5


def test_far_end_drift_flag(hilbert2):
    # horizon too short for the slow mode: the drift monitor must fire
    op = LinearPSD(np.diag([0.25, 1.0]), hilbert2)
    short = solve_regularized(op, 0.01, 0.01, np.array([1.0, 0.0]), TimeGrid(3.0, 0.01))
    assert not short.meta["far_end_ok"]
    long = solve_regularized(op, 0.01, 0.01, np.array([1.0, 0.0]), TimeGrid(40.0, 0.01))
    assert long.meta["far_end_ok"]


def test_derivatives_second_order_accuracy():
    grid = TimeGrid(1.0, 0.001)
    values = np.sin(grid.nodes)[:, None]
    traj = Trajectory(grid=grid, values=values)
    assert np.max(np.abs(traj.derivative()[:, 0] - np.cos(grid.nodes))) <= 1e-5
    assert np.max(np.abs(traj.second_derivative()[:, 0] + np.sin(grid.nodes))) <= 1e-4


def test_trajectory_csv_export(tmp_path, hilbert2):
    op = ScaledIdentity(1.0, hilbert2)
    x = np.array([1.0, 0.0])
    traj = solve_second_order(op, x, SolverConfig(TimeGrid(5.0, 0.05)))
    path = tmp_path / "traj.csv"
    with open(path, "x") as fh:
        export_trajectory_csv(op, traj, fh)
    header = path.read_text().splitlines()[0]
    assert header == "t,u_0,u_1,norm_u,dist_to_zero_set"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (traj.times.size, 5)
    # shortest round-trip floats: every value parses back exactly
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1:3], traj.values)
    assert np.array_equal(data[:, 3], hilbert2.norms(traj.values))
    assert np.array_equal(data[:, 4], projection_profile(op, traj.values))


def test_trajectory_csv_is_written_in_row_blocks(hilbert2):
    # more rows than one block: the blocks join into one table, in order
    op = ScaledIdentity(1.0, hilbert2)
    traj = solve_second_order(op, np.array([1.0, 0.0]), SolverConfig(TimeGrid(50.0, 0.01)))
    assert traj.times.size > 2 * CSV_BLOCK_ROWS

    class CountingWriter(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    out = CountingWriter()
    export_trajectory_csv(op, traj, out)
    assert out.writes == 1 + -(-traj.times.size // CSV_BLOCK_ROWS)  # header, then blocks
    data = np.loadtxt(io.StringIO(out.getvalue()), delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1:3], traj.values)


# the helpers split the rows into lines: pytest reports the first line that
# differs at once, where a diff of two long strings takes minutes


def _reference_csv_rows(op, traj):
    """The table's lines as the ``%r`` row template formats them."""
    data = np.column_stack(
        [traj.times, traj.values, op.space.norms(traj.values), projection_profile(op, traj.values)]
    )
    row = ",".join(["%r"] * data.shape[1]) + "\n"
    return "".join([row % tuple(r) for r in data.tolist()]).split("\n")


def _csv_rows(op, traj):
    out = io.StringIO()
    export_trajectory_csv(op, traj, out)
    return out.getvalue().split("\n")[1:]


# signed zeros, the smallest subnormal and normal doubles, values whose
# squares underflow, and both sides of repr's switches to exponent form
EDGE_VALUES = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.2250738585072014e-308,
    1.2345678901234567e-173,
    -9.87e-174,
    1e-05,
    0.0001,
    1e16,
    9999999999999998.0,
    -1e16,
    0.1,
    1.0,
]


def test_trajectory_csv_edge_values_are_the_template_bytes():
    op = ScaledIdentity(1.0, SpaceContext.hilbert(2))
    rng = np.random.default_rng(5)
    times = np.array(EDGE_VALUES * 3)
    values = rng.choice(EDGE_VALUES, size=(times.size, 2))
    values[:2, 0] = [0.0, -0.0]  # both zeros in one column
    traj = SimpleNamespace(times=times, values=values)
    lines = _csv_rows(op, traj)
    assert lines == _reference_csv_rows(op, traj)
    assert lines[0].split(",")[1] == "0.0"
    assert lines[1].split(",")[1] == "-0.0"
    cells = {cell for line in lines for cell in line.split(",")}
    assert {"5e-324", "2.2250738585072014e-308", "1e-05", "0.0001", "1e+16"} <= cells
    assert "9999999999999998.0" in cells


@pytest.mark.parametrize(
    "rows", [1, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1], ids=["one_row", "one_block", "block_plus_one"]
)
@pytest.mark.parametrize("table", ["repeated", "distinct"])
def test_trajectory_csv_is_the_template_bytes(rows, table):
    # a multi-row table fails here too if the writer indexes the inverse of
    # np.unique without reshaping it to the table's rows
    op = ScaledIdentity(1.0, SpaceContext.hilbert(3))
    rng = np.random.default_rng(rows)
    if table == "repeated":
        values = np.tile(rng.normal(size=(3, 3)), (-(-rows // 3), 1))[:rows]
    else:
        values = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-150, 150, size=(rows, 3))
    traj = SimpleNamespace(times=np.arange(rows) * 0.01, values=values)
    assert _csv_rows(op, traj) == _reference_csv_rows(op, traj)


def _dense(lower, diag, upper):
    """The assembled matrix; lower[0] and upper[-1] lie outside it."""
    m, dim, _ = diag.shape
    mat = np.zeros((m * dim, m * dim))
    for i in range(m):
        rows = slice(i * dim, (i + 1) * dim)
        mat[rows, rows] = diag[i]
        if i > 0:
            mat[rows, (i - 1) * dim : i * dim] = lower[i]
        if i < m - 1:
            mat[rows, (i + 1) * dim : (i + 2) * dim] = upper[i]
    return mat


def _level(lower, diag, upper, rhs):
    """The batch-last [D | L | U | r] array that ``_reduce`` takes."""
    return np.concatenate([diag, lower, upper, rhs[:, :, None]], axis=2).transpose(1, 2, 0)


def _block_systems(m, dim, rng):
    """The Newton system's shape (identity couplings, doubled on the ghost
    row, diagonal blocks -2/h^2 - F' with a rotation-like skew part), then
    a general system of random non-symmetric blocks, then (dim >= 2) that
    system with the first two equations of every block row swapped and a
    zero leading entry in every diagonal block, so the elimination must
    swap rows.  lower[0] and upper[-1] hold junk, which the solver must
    ignore.  The first system also yields its coupling 1/h^2."""
    inv_h2 = 1.0 / 0.01**2
    eye = np.eye(dim)
    skew = rng.normal(size=(m, dim, dim))
    skew -= skew.transpose(0, 2, 1)
    psd = rng.normal(size=(m, dim, dim))
    fjac = psd @ psd.transpose(0, 2, 1) + 3.0 * skew + 0.01 * eye
    upper = np.repeat(inv_h2 * eye[None], m, axis=0)
    lower = upper.copy()
    lower[-1] *= 2.0
    lower[0] = upper[-1] = 7.0
    yield lower, -2.0 * inv_h2 * eye - fjac, upper, inv_h2
    lower = rng.normal(size=(m, dim, dim))
    upper = rng.normal(size=(m, dim, dim))
    diag = rng.normal(size=(m, dim, dim)) + 8.0 * eye
    yield lower, diag, upper, None
    if dim >= 2:
        diag[:, 1, 0] = 0.0
        swap = [1, 0] + list(range(2, dim))
        yield lower[:, swap], diag[:, swap], upper[:, swap], None


# a level of fewer than _ELIMINATION_BLOCKS = 24 odd blocks per coordinate
# is solved by LAPACK, and so is every level from _ELIMINATION_DIM = 13
# coordinates up; a system of at most 96 unknowns is solved densely
@pytest.mark.parametrize("dim", [1, 2, 3, 6, 8, 14])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1000])
def test_block_cyclic_reduction_matches_dense_solve(m, dim):
    rng = np.random.default_rng(1000 * m + dim)
    for lower, diag, upper, coupling in _block_systems(m, dim, rng):
        rhs = rng.normal(size=(m, dim))
        solves = [_reduce(_level(lower, diag, upper, rhs)).T]
        if coupling is not None:
            solves.append(_solve_newton_system(coupling, diag.transpose(1, 2, 0), rhs.T).T)
        if m * dim <= 3000:
            ref = np.linalg.solve(_dense(lower, diag, upper), rhs.ravel()).reshape(m, dim)
        for y in solves:
            assert y.shape == (m, dim)
            if m * dim <= 3000:
                assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))
            else:
                # a dense matrix of this size takes 288 MB: check the
                # residual block by block instead
                res = (diag @ y[:, :, None])[:, :, 0] - rhs
                res[1:] += (lower[1:] @ y[:-1, :, None])[:, :, 0]
                res[:-1] += (upper[:-1] @ y[1:, :, None])[:, :, 0]
                assert np.max(np.abs(res)) <= 1e-10 * np.max(np.abs(rhs))


@pytest.mark.parametrize("dim", [1, 2, 3, 6, 7, 8, 12])
@pytest.mark.parametrize("k", [1, 5, 150])
def test_eliminate_matches_lapack(k, dim):
    # diagonally dominant blocks, every other one with its rows reversed
    # and a zero leading entry, so the elimination must swap rows
    rng = np.random.default_rng(100 * k + dim)
    a = rng.normal(size=(k, dim, dim)) + 8.0 * np.eye(dim)
    if dim > 1:
        a[::2, -1, 0] = 0.0
        a[::2] = a[::2, ::-1]
    b = rng.normal(size=(k, dim, 2 * dim + 1))
    ref = np.linalg.solve(a, b)
    aug = np.concatenate([a, b], axis=2).transpose(1, 2, 0).copy()
    z = _eliminate(aug, dim).transpose(2, 0, 1)
    assert np.max(np.abs(z - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim", [2, 8, 14])
def test_block_cyclic_reduction_singular_block_raises(dim):
    # an all-ones block leaves an exactly zero pivot after one elimination
    # step; its level has 200 odd blocks, solved by _eliminate at 2 and 8
    # coordinates and by LAPACK at 14
    eye = np.eye(dim)
    lower = upper = np.repeat(eye[None], 401, axis=0)
    diag = np.repeat(4.0 * eye[None], 401, axis=0)
    diag[5] = 1.0
    with pytest.raises(np.linalg.LinAlgError):
        _reduce(_level(lower, diag, upper, np.ones((401, dim))))
    with pytest.raises(np.linalg.LinAlgError):
        _solve_newton_system(1.0, diag.transpose(1, 2, 0), np.ones((dim, 401)))
    aug = np.concatenate([diag[1::2], np.ones((200, dim, 1))], axis=2)
    with pytest.raises(np.linalg.LinAlgError):
        _eliminate(aug.transpose(1, 2, 0).copy(), dim)


def _banded_newton(c, diag):
    """The Newton system's matrix (couplings c I, 2c I into the ghost row)
    in LAPACK's banded storage, ab[u + i - j, j] = a[i, j], with
    u = 2 dim - 1 bands on either side of the diagonal."""
    m, dim, _ = diag.shape
    u = 2 * dim - 1
    ab = np.zeros((2 * u + 1, m * dim))
    for i in range(m):
        for a in range(dim):
            row = i * dim + a
            cols = np.arange(i * dim, (i + 1) * dim)
            ab[u + row - cols, cols] = diag[i, a]
            if i > 0:
                ab[u + dim, row - dim] = 2.0 * c if i == m - 1 else c
            if i < m - 1:
                ab[u - dim, row + dim] = c
    return ab


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 300),
    dim=st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 14]),
    h=st.floats(0.005, 2.0),
    pivoting=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=300, dim=14, h=0.01, pivoting=True, seed=1)
@example(m=299, dim=8, h=0.01, pivoting=True, seed=2)
@example(m=300, dim=2, h=0.01, pivoting=True, seed=3)
@example(m=299, dim=3, h=0.5, pivoting=True, seed=4)
@example(m=1, dim=2, h=0.1, pivoting=False, seed=5)
@example(m=2, dim=7, h=0.1, pivoting=True, seed=6)
def test_newton_system_matches_direct_solve(m, dim, h, pivoting, seed):
    """c y[i-1] + D[i] y[i] + c y[i+1] = r[i] with c = 1/h^2 and the ghost
    row's 2c, against LAPACK's banded solve of the assembled matrix (a
    direct solve with partial pivoting over whole columns; its dense
    matrix would take up to 141 MB here).  Diagonal blocks are -2c - F'
    with a rotation-like F', or, with ``pivoting``, about half of them a
    row swap of a dominant block with an exactly zero leading entry, so
    the elimination must swap rows."""
    rng = np.random.default_rng(seed)
    c = 1.0 / (h * h)
    eye = np.eye(dim)
    skew = rng.normal(size=(m, dim, dim))
    skew -= skew.transpose(0, 2, 1)
    psd = rng.normal(size=(m, dim, dim))
    diag = -2.0 * c * eye - (psd @ psd.transpose(0, 2, 1) + 3.0 * skew + 0.01 * eye)
    if pivoting and dim >= 2:
        dominant = 4.0 * (c + 1.0) * (eye + 0.1 * rng.normal(size=(m, dim, dim)))
        dominant[:, 1, 0] = 0.0
        swap = [1, 0] + list(range(2, dim))
        swapped = rng.random(m) < 0.5
        diag[swapped] = dominant[swapped][:, swap]
    rhs = rng.normal(size=(m, dim))
    y = _solve_newton_system(c, diag.transpose(1, 2, 0), rhs.T).T
    u = 2 * dim - 1
    ref = scipy.linalg.solve_banded((u, u), _banded_newton(c, diag), rhs.ravel())
    assert np.max(np.abs(y.ravel() - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim", [2, 14])
def test_singular_newton_block_is_solver_error(dim):
    # B = -5 I at r = 0.1 and p = 2 gives A_r' + p = -8 I, which cancels
    # -2/h^2 at h = 0.5: every diagonal block of the Newton step is zero
    op = LinearMatrix(-5.0 * np.eye(dim))
    x = np.ones(dim)
    with pytest.raises(SolverError, match=r"singular matrix \(r=0\.1, p=2\)"):
        solve_regularized(op, 0.1, 2.0, x, TimeGrid(200.0, 0.5))


def _linear_newton_residual(c, diag, y, rhs):
    """c y[i-1] + diag y[i] + c y[i+1] - rhs[i] row by row, with the ghost
    row's 2c y[n-2]; y and rhs are (n, dim)."""
    res = y @ diag.T - rhs
    res[1:] += c * y[:-1]
    res[:-1] += c * y[1:]
    res[-1] += c * y[-2]
    return res


def _linear_matrix(kind, dim, rng):
    """B of a linear operator: symmetric PSD, skew (a rotation generator),
    or general with a PSD symmetric part."""
    g = rng.normal(size=(dim, dim))
    skew = 2.0 * (g - g.T)
    psd = rng.normal(size=(dim, dim))
    psd = psd @ psd.T
    if rng.random() < 0.3:  # a nontrivial nullspace
        w, v = np.linalg.eigh(psd)
        psd = (v * np.where(np.arange(dim) < dim // 2, 0.0, w)) @ v.T
    return {"psd": psd, "skew": skew, "general": psd + skew}[kind]


# the first level is always reduced; a level of at most 96 unknowns is the
# dense tail, so small n * dim reach it after one level and large ones after many
@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(MIN_STEPS, 3000),
    dim=st.integers(1, 14),
    kind=st.sampled_from(["psd", "skew", "general"]),
    h=st.floats(0.01, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
@example(n=MIN_STEPS, dim=1, kind="psd", h=0.01, seed=1)
@example(n=5, dim=14, kind="general", h=0.5, seed=2)
@example(n=96, dim=1, kind="psd", h=0.1, seed=3)
@example(n=97, dim=1, kind="psd", h=0.1, seed=4)
@example(n=194, dim=1, kind="skew", h=0.1, seed=5)
@example(n=1500, dim=1, kind="general", h=0.01, seed=6)
@example(n=3000, dim=14, kind="general", h=0.01, seed=7)
@example(n=2999, dim=6, kind="skew", h=0.02, seed=8)
@example(n=100, dim=13, kind="psd", h=1.5, seed=9)
def test_toeplitz_reduction_matches_dense_solve(n, dim, kind, h, seed):
    """The Newton system of a linear forcing (one diagonal block -2c - B,
    couplings c = 1/h^2, 2c into the ghost row), against LAPACK's solve of
    the assembled matrix while that fits in 18 MB, and by its residual
    everywhere."""
    rng = np.random.default_rng(seed)
    c = 1.0 / (h * h)
    b = _linear_matrix(kind, dim, rng)
    diag = -2.0 * c * np.eye(dim) - b
    rhs = rng.normal(size=(n, dim))
    y = _solve_toeplitz_system(c, diag, rhs.T).T
    assert y.shape == (n, dim)
    # normwise: the matrix's infinity norm is that of diag plus 2c
    scale = (np.linalg.norm(diag, np.inf) + 2.0 * c) * np.max(np.abs(y))
    res = _linear_newton_residual(c, diag, y, rhs)
    assert np.max(np.abs(res)) <= 1e-10 * scale
    if n * dim <= 1500:
        eye = np.eye(dim)
        lower = np.repeat(c * eye[None], n, axis=0)
        lower[-1] *= 2.0
        upper = np.repeat(c * eye[None], n, axis=0)
        mat = _dense(lower, np.repeat(diag[None], n, axis=0), upper)
        ref = np.linalg.solve(mat, rhs.ravel()).reshape(n, dim)
        assert np.max(np.abs(y - ref)) <= 1e-8 * np.max(np.abs(ref))


@pytest.mark.parametrize("n", [MIN_STEPS, 5, 48, 49, 401])
@pytest.mark.parametrize("dim", [1, 2, 14])
def test_toeplitz_reduction_singular_block_raises(n, dim):
    # B = -8 I at h = 0.5 cancels -2/h^2: the diagonal block is zero, while
    # the assembled matrix of an even n is not singular; the reduction must
    # raise whether the dense tail comes after one level or after many
    diag = -2.0 * 4.0 * np.eye(dim) - (-8.0 * np.eye(dim))  # -2c - B, exactly zero
    with pytest.raises(np.linalg.LinAlgError):
        _solve_toeplitz_system(4.0, diag, np.ones((dim, n)))
    with pytest.raises(ValueError):
        _solve_toeplitz_system(4.0, -10.0 * np.eye(dim), np.ones((dim, 2)))


@pytest.mark.parametrize("dim", [2, 6])
def test_singular_linear_solve_is_solver_error(dim):
    # 4 grid steps of a dim-2 system are 8 unknowns, one dense solve after
    # the first level
    op = LinearMatrix(-8.0 * np.eye(dim))
    solver = SolverConfig(TimeGrid(2.0, 0.5), margin=0.5)
    with pytest.raises(SolverError, match=r"linear solve hit a singular matrix \(r=0, p=0\)"):
        solve_second_order(op, np.ones(dim), solver)


def test_linear_newton_step_memory_is_linear():
    # 12,000 nodes at dim 6: the reduction keeps a few (dim, nodes) arrays;
    # the block-per-row reduction it replaced peaked at 20.4 MiB here
    rng = np.random.default_rng(0)
    g = rng.normal(size=(6, 6))
    c = 1.0 / 0.01**2
    diag = -2.0 * c * np.eye(6) - g @ g.T
    rhs = rng.normal(size=(12_000, 6)).T
    tracemalloc.start()
    try:
        y = _solve_toeplitz_system(c, diag, rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5 * 2**20
    assert np.max(np.abs(_linear_newton_residual(c, diag, y.T, rhs.T))) <= 1e-8
