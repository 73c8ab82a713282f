import io
import math
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
    solve_second_order,
)
from cauchylab import second_order
from cauchylab.config import load_config
from cauchylab.errors import HorizonError, SolverError
from cauchylab.runner import run_config
from cauchylab.verification import first_order_trajectory
from cauchylab.operators import norm_family_constant
from cauchylab.second_order import (
    CSV_BLOCK_ROWS,
    MIN_STEPS,
    SIGMA,
    _closed_form_start,
    _distinct_doubles,
    _eliminate,
    _reduce,
    _regularized_step,
    _second_difference,
    _solve_toeplitz_system,
    export_trajectory_csv,
    projection_profile,
    solve_regularized,
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
    # the solve's record: its Newton steps and the far-end flag, nothing else
    assert traj.meta.keys() == {"newton_steps", "far_end_ok"}


def test_second_order_zero_operator_constant(hilbert2):
    op = ScaledIdentity(0.0, hilbert2)
    x = np.array([0.7, -0.3])
    traj = solve_second_order(op, x, SolverConfig(TimeGrid(40.0, 0.01)))
    assert np.max(np.abs(traj.values - x)) <= 1e-5


def test_direct_solve_zero_operator_is_exact(hilbert2):
    # the regularized chain stopped 3.5e-5 from x at T = 100
    op = ScaledIdentity(0.0, hilbert2)
    x = np.array([0.7, -0.3])
    traj = solve_second_order(op, x, SolverConfig(TimeGrid(100.0, 0.01)))
    assert np.max(np.abs(traj.values - x)) <= 1e-12


@pytest.mark.parametrize(
    "matrix", [1.3 * np.eye(2), np.array([[2.0, 1.0], [1.0, 1.0]]), np.zeros((2, 2))]
)
def test_direct_solve_long_horizon_oracle(hilbert2, matrix, no_regularized_solve):
    op = LinearPSD(matrix, hilbert2)
    x = np.array([0.8, -0.6])
    traj = solve_second_order(op, x, SolverConfig(TimeGrid(100.0, 0.01)))
    expected = np.stack([linear_oracle(matrix, t, x) for t in traj.times[::50]])
    assert np.max(np.abs(traj.values[::50] - expected)) <= 1e-5
    assert traj.meta["far_end_ok"]


def test_direct_solve_strongly_accretive_over_linear_base(hilbert2, no_regularized_solve):
    # A = B + c I is linear; its generic Yosida form divides by r, so the
    # direct solve must go through linear_matrix
    op = StronglyAccretive(Rotation(space=hilbert2), 1.0)
    x = np.array([1.0, 0.0])
    traj = solve_second_order(op, x, SolverConfig(TimeGrid(40.0, 0.01)))
    root = scipy.linalg.sqrtm(op.linear_matrix).real
    expected = np.stack([scipy.linalg.expm(-t * root) @ x for t in traj.times[::100]])
    assert np.max(np.abs(traj.values[::100] - expected)) <= 1e-4


def test_regularized_singular_resolvent_is_solver_error(hilbert2):
    # I + rB is singular for B = -10 I at r = 0.1
    op = LinearMatrix(-10.0 * np.eye(2), hilbert2)
    message = r"^regularized solve \(r=0\.1, p=0\.1\) hit a singular matrix$"
    with pytest.raises(SolverError, match=message):
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
    assert deviation <= 1e-5


def test_subdifferential_norm_config_matches_oracle():
    spec = load_config(str(resources.files("cauchylab") / "configs" / "subdifferential_norm.cfg"))
    traj, deviation = _norm_oracle_deviation(spec.op, 0.0, spec.x, spec.solver)
    assert deviation <= 1e-5


# lh05 and lh11 of the long-horizon benchmark at seed 7001, with the oracle
# deviations of the chain down to r = 1e-7 (2.24e-6 and 5.06e-6); the
# unregularized solve reads 2.33e-6 and 5.15e-6
NORM_FAMILY_CASES = [
    (0.0, [-0.5299, 1.017, 0.9672], TimeGrid(60.0, 0.005), 2.4e-6),
    (0.9867, [0.7523, -1.298], TimeGrid(85.0, 85.0 / 12000), 5.3e-6),
]


@pytest.mark.parametrize("c, x, grid, bound", NORM_FAMILY_CASES)
def test_unregularized_solve_matches_norm_oracle(c, x, grid, bound, no_regularized_solve):
    x = np.array(x)
    base = NormSubdifferential(SpaceContext.lp(x.size, 2.0))
    op = base if c == 0.0 else StronglyAccretive(base, c)
    traj, deviation = _norm_oracle_deviation(op, c, x, SolverConfig(grid, margin=1.0))
    assert deviation <= bound
    assert traj.meta.keys() == {"newton_steps", "far_end_ok"}
    # semismooth Newton from the closed-form start: 1 step each
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
    op = StronglyAccretive(NormSubdifferential(SpaceContext.lp(2, 2.0)), 3.0)
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


# The continuation that started the r = 0 solve before the closed-form
# start, kept as the tests' reference: regularized stages (r, p) warm-started
# one from the next, the last r being the r = 0 solve's sigma
REFERENCE_SCHEDULE = ((0.1, 0.1), (0.01, 0.01), (SIGMA, SIGMA))
# the reference's stages run on a grid this many times coarser than the
# solver's (fewer times when that would leave fewer than MIN_STEPS steps)
REFERENCE_COARSE_FACTOR = 8


def _single_grid_chain(op, x, grid):
    # every stage of the schedule on the solver's own grid, then r = 0
    stage = None
    for r, p in REFERENCE_SCHEDULE:
        stage = solve_regularized(op, r, p, x, grid, None if stage is None else stage.values[1:])
    return solve_unregularized(op, x, grid, SIGMA, stage.values[1:])


def _reference_chain(op, x, grid):
    """The stages on the coarse grid, which covers ceil(n / factor) coarse
    steps, the last stage again on ``grid`` from its linear interpolation,
    then the r = 0 solve from that; returns it with the coarse step.  The
    stages go through the module attribute, which ``_count_stages``
    counts."""
    n = grid.n_steps
    factor = min(REFERENCE_COARSE_FACTOR, max(1, n // MIN_STEPS))
    m = -(-n // factor)
    coarse = TimeGrid(m * factor * grid.step, factor * grid.step)
    stage = None
    for r, p in REFERENCE_SCHEDULE:
        stage = second_order.solve_regularized(
            op, r, p, x, coarse, None if stage is None else stage.values[1:]
        )
    i = np.arange(1, n + 1)
    j = np.minimum(i // factor, m - 1)
    frac = ((i - j * factor) / factor)[:, None]
    refined = (1.0 - frac) * stage.values[j] + frac * stage.values[j + 1]
    refined = second_order.solve_regularized(op, SIGMA, SIGMA, x, grid, refined)
    return solve_unregularized(op, x, grid, SIGMA, refined.values[1:]), coarse.step


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
    # the reference chain on its coarse grid and on the solver's, and the
    # closed-form start, reach one discrete solution
    x = np.array(x)
    base = NormSubdifferential(SpaceContext.lp(x.size, 2.0))
    op = base if c == 0.0 else StronglyAccretive(base, c)
    traj = solve_second_order(op, x, SolverConfig(grid, margin=grid.horizon / 2))
    chain, step = _reference_chain(op, x, grid)
    assert step == pytest.approx(coarse_step, rel=1e-12)
    tol = 1e-12 * max(1.0, np.max(np.abs(x)))
    assert np.max(np.abs(traj.values - chain.values)) <= tol
    assert np.max(np.abs(traj.values - _single_grid_chain(op, x, grid).values)) <= tol


def test_warm_restart_gives_the_single_grid_solution(monkeypatch, hilbert2):
    op = StronglyAccretive(NormSubdifferential(hilbert2), 0.5)
    solver = SolverConfig(TimeGrid(10.0, 0.01))
    sg = SqrtSemigroup(op, np.array([1.5, -0.5]), solver)
    y = sg.at(0.5)
    stages = _count_stages(monkeypatch)
    restart = sg.restart_from(y)
    assert restart is not sg
    assert stages == []
    chain = _single_grid_chain(op, y, solver.grid)
    assert np.max(np.abs(restart.trajectory.values - chain.values)) <= 1e-12


RESTART_X = np.array([1.5, -0.5])
RESTART_V = np.array([0.3, 0.4])


def _restart_base(space, c):
    base = NormSubdifferential(space)
    op = base if c == 0.0 else StronglyAccretive(base, c)
    return SqrtSemigroup(op, RESTART_X, SolverConfig(TimeGrid(10.0, 0.01)))


def _count_stages(monkeypatch):
    stages = []
    solve = second_order.solve_regularized

    def counted(*args, **kwargs):
        stages.append(args[1])
        return solve(*args, **kwargs)

    monkeypatch.setattr(second_order, "solve_regularized", counted)
    return stages


@pytest.mark.parametrize("c", [0.0, 0.5])
@pytest.mark.parametrize(
    "space", [SpaceContext.lp(2, 2.0), SpaceContext.lp(2, 2.0)], ids=["hilbert", "l2"]
)
def test_warm_restart_matches_the_cold_chain(monkeypatch, space, c):
    sg = _restart_base(space, c)
    # extinction at sqrt(2 ||x||) = 1.78 or before
    assert not sg.at(4.0).any()
    points = [
        # on the ray: the time warp u(s + delta e^-s), between two nodes
        sg.at(0.5 + 0.5 * np.exp(-0.5)),
        # off the ray: the additive decay u(s) + e^-s v, at s = 0 beyond ||x||
        RESTART_X + RESTART_V,
        sg.at(1.0) + np.exp(-1.0) * RESTART_V,
        # past extinction, e^-s v alone
        sg.at(4.0) + np.exp(-4.0) * RESTART_V,
    ]
    stages = _count_stages(monkeypatch)
    restarts = [sg.restart_from(y) for y in points]
    assert stages == []
    for y, restart in zip(points, restarts):
        # each restart starts from y's own closed-form profile: 1-3 steps,
        # within the 4 that the base-profile start was allowed
        assert restart.trajectory.meta["newton_steps"] <= 4
        cold, _ = _reference_chain(sg.op, y, sg.solver.grid)
        assert np.max(np.abs(restart.trajectory.values - cold.values)) <= 1e-12
    # the counter sees the cold chains' stages: three coarse, one fine
    assert len(stages) == len(points) * (len(REFERENCE_SCHEDULE) + 1)


@pytest.mark.parametrize("c", [0.0, 0.5])
@pytest.mark.parametrize("y", [[0.0, 0.0], [-0.0, 0.0]], ids=["zero", "signed_zero"])
def test_restart_from_the_origin_takes_no_step(monkeypatch, hilbert2, c, y):
    # a time warp sampled past extinction restarts from 0: the r = 0 solve
    # starts from the constant 0 and stops there, with no regularized stage
    sg = _restart_base(hilbert2, c)
    y = np.array(y)
    stages = _count_stages(monkeypatch)
    restart = sg.restart_from(y)
    assert stages == []
    assert restart.trajectory.meta["newton_steps"] == 0
    cold, _ = _reference_chain(sg.op, y, sg.solver.grid)
    assert len(stages) == len(REFERENCE_SCHEDULE) + 1
    assert restart.trajectory.values.tobytes() == cold.values.tobytes()


def test_norm_chain_far_from_its_zero():
    # extinction at sqrt(60) = 7.75 of a horizon of 20: a regularized stage
    # on the solver's grid needed more than NEWTON_MAX_ITER steps from the
    # constant x; from the closed form the r = 0 solve takes 1
    x = np.array([30.0, 0.0])
    op = NormSubdifferential(SpaceContext.lp(2, 2.0))
    traj, deviation = _norm_oracle_deviation(op, 0.0, x, SolverConfig(TimeGrid(20.0, 0.01)))
    assert traj.meta["newton_steps"] <= 2
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
    assert re.fullmatch(r"unregularized solve stalled at residual \S+", message)


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
    assert deviation <= 1e-5 * np.linalg.norm(LARGE_X)


# starts far from the zero: extinction at T* = 16.1, 17.9 and 14.1 of a
# horizon of 22, 3,200-5,700 nodes in
@pytest.mark.parametrize("x, step", [(130.0, 0.005), (160.0, 0.005), (100.0, 0.0025)])
def test_norm_configs_far_from_the_zero_solve(tmp_path, x, step):
    text = (resources.files("cauchylab") / "configs" / "subdifferential_norm.cfg").read_text()
    cfg = tmp_path / "far.cfg"
    cfg.write_text(
        text.replace("initial_point: [1.0, 0.0]", f"initial_point: [{x}, 0.0]")
        .replace("horizon: 40.0", "horizon: 22.0")
        .replace("step: 0.01", f"step: {step}")
    )
    assert run_config(str(cfg), out_dir=tmp_path / "out").exit_code == 0
    spec = load_config(str(cfg))
    traj, deviation = _norm_oracle_deviation(spec.op, 0.0, spec.x, spec.solver)
    assert traj.meta["newton_steps"] <= 8
    assert deviation <= 1e-5


# ||x|| from 1e-8 to 1000, each with the four shifts c, steps and dims in
# turn; the horizon covers 1.2 T* + 1, at least 2 and at most 60
GRID_NORMS = np.logspace(-8.0, 3.0, 12)
GRID_SHIFTS = (0.0, 0.05, 1.0, 25.0)
GRID_STEPS = (0.0025, 0.005, 0.01)


def _extinction_time(c, rho0):
    if c == 0.0:
        return math.sqrt(2.0 * rho0)
    return math.acosh(1.0 + c * rho0) / math.sqrt(c)


@pytest.mark.parametrize("c", GRID_SHIFTS)
def test_norm_family_newton_steps_are_bounded(c):
    rng = np.random.default_rng(int(100 * c))
    for i, rho0 in enumerate(GRID_NORMS):
        dim = 1 + (i % 6)
        step = GRID_STEPS[i % 3]
        horizon = step * math.ceil(min(60.0, max(2.0, 1.2 * _extinction_time(c, rho0) + 1.0)) / step)
        direction = rng.normal(size=dim)
        x = rho0 * direction / np.linalg.norm(direction)
        base = NormSubdifferential(SpaceContext.lp(dim, 2.0))
        op = base if c == 0.0 else StronglyAccretive(base, c)
        traj = solve_second_order(op, x, SolverConfig(TimeGrid(horizon, step)))
        assert traj.meta["newton_steps"] <= 8, (c, rho0, dim, step)


@pytest.mark.parametrize("a, b", [(0.5, 0.25), (1e-3, 40.0)])
def test_nested_shifts_are_one_shift_in_both_flows(hilbert2, a, b):
    nested = StronglyAccretive(StronglyAccretive(NormSubdifferential(hilbert2), a), b)
    single = StronglyAccretive(NormSubdifferential(hilbert2), a + b)
    assert norm_family_constant(nested) == a + b
    assert norm_family_constant(NormSubdifferential(hilbert2)) == 0.0
    assert norm_family_constant(ScaledIdentity(1.0, hilbert2)) is None
    x, grid = np.array([0.6, -0.8]), TimeGrid(6.0, 0.01)
    first = first_order_trajectory(nested, x, grid)
    assert first.values.tobytes() == first_order_trajectory(single, x, grid).values.tobytes()
    start = _closed_form_start(nested, x, grid)
    assert start.tobytes() == _closed_form_start(single, x, grid).tobytes()
    expected = np.stack([norm_oracle(a + b, t, x) for t in grid.nodes[1:]])
    assert np.max(np.abs(start - expected)) <= 1e-12
    traj, deviation = _norm_oracle_deviation(nested, a + b, x, SolverConfig(grid))
    assert deviation <= 1e-3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "c, x, horizon",
    [
        # c ||x|| = 1e450 is beyond the float range
        (1e300, [1e150, 0.0], 4.0),
        # T* = 0.099 of a horizon of 100: cosh(sqrt(c) (T* - t)) overflows
        # on every late node
        (1e4, [1.0, 0.0], 100.0),
    ],
)
def test_closed_form_start_does_not_overflow(hilbert2, c, x, horizon):
    op = StronglyAccretive(NormSubdifferential(hilbert2), c)
    x = np.array(x)
    grid = TimeGrid(horizon, 0.01)
    start = _closed_form_start(op, x, grid)
    assert np.all(np.isfinite(start)) and not start[-1].any()
    traj = solve_second_order(op, x, SolverConfig(grid))
    assert traj.meta["newton_steps"] <= 8
    assert np.all(np.linalg.norm(traj.values, axis=1) <= np.linalg.norm(x))


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


def _expression_differences(x, h, u):
    """The three finite differences as whole-array expressions: the
    residual's second difference, then u' and u'' of the trajectory u."""
    full = np.vstack([x[None, :], u])
    residual = np.empty_like(u)
    residual[:-1] = (full[2:] - 2.0 * full[1:-1] + full[:-2]) / (h * h)
    residual[-1] = 2.0 * (u[-2] - u[-1]) / (h * h)
    du = np.empty_like(u)
    du[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
    du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
    du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
    ddu = np.empty_like(u)
    ddu[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
    ddu[0] = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / (h * h)
    ddu[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / (h * h)
    return residual, du, ddu


@pytest.mark.parametrize("dim", range(1, 15))
def test_finite_differences_are_the_expressions_bit_for_bit(dim):
    # the differences are computed in place, one operation at a time: the
    # bits are those of the whole-array expressions
    rng = np.random.default_rng(dim)
    for rows in (MIN_STEPS + 1, MIN_STEPS + 2, 97):
        h = float(rng.choice([0.001, 0.005, 0.01, 0.3]))
        grid = TimeGrid(h * (rows - 1), h)
        u = rng.normal(size=(rows, dim)) * 10.0 ** rng.integers(-8, 8, size=(rows, dim))
        x = rng.normal(size=dim)
        traj = Trajectory(grid=grid, values=u)
        got = _second_difference(x, grid.step, u), traj.derivative(), traj.second_derivative()
        for have, want in zip(got, _expression_differences(x, grid.step, u)):
            assert have.tobytes() == want.tobytes()


def test_trajectory_csv_export(tmp_path, hilbert2):
    op = ScaledIdentity(1.0, hilbert2)
    x = np.array([1.0, 0.0])
    traj = solve_second_order(op, x, SolverConfig(TimeGrid(5.0, 0.05)))
    path = tmp_path / "traj.csv"
    with open(path, "xb") as fh:
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

    class CountingWriter(io.BytesIO):
        writes = 0

        def write(self, data):
            self.writes += 1
            return super().write(data)

    out = CountingWriter()
    export_trajectory_csv(op, traj, out)
    assert out.writes == 1 + -(-traj.times.size // CSV_BLOCK_ROWS)  # header, then blocks
    data = np.loadtxt(io.BytesIO(out.getvalue()), delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], traj.times)
    assert np.array_equal(data[:, 1:3], traj.values)


# the helpers split the rows into lines: pytest reports the first line that
# differs at once, where a diff of two long strings takes minutes


def _reference_csv_rows(op, traj, profile=None):
    """The table's lines as the ``%r`` row template formats them."""
    if profile is None:
        profile = SimpleNamespace(
            norms=op.space.norms(traj.values), residual=projection_profile(op, traj.values)
        )
    data = np.column_stack([traj.times, traj.values, profile.norms, profile.residual])
    row = ",".join(["%r"] * data.shape[1]) + "\n"
    return "".join([row % tuple(r) for r in data.tolist()]).split("\n")


def _csv_rows(op, traj, profile=None):
    out = io.BytesIO()
    export_trajectory_csv(op, traj, out, profile)
    return out.getvalue().decode("ascii").split("\n")[1:]


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
    op = ScaledIdentity(1.0, SpaceContext.lp(2, 2.0))
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
    # a multi-row table fails here too if the writer indexes the cells'
    # ranks without laying them back out as the table's rows
    op = ScaledIdentity(1.0, SpaceContext.lp(3, 2.0))
    rng = np.random.default_rng(rows)
    if table == "repeated":
        values = np.tile(rng.normal(size=(3, 3)), (-(-rows // 3), 1))[:rows]
    else:
        values = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-150, 150, size=(rows, 3))
    traj = SimpleNamespace(times=np.arange(rows) * 0.01, values=values)
    assert _csv_rows(op, traj) == _reference_csv_rows(op, traj)


def test_trajectory_csv_times_that_repeat_other_cells():
    # t is formatted apart from the sorted columns: a t equal to a u or
    # norm_u cell keeps its own slot, and both print the same bytes
    op = ScaledIdentity(1.0, SpaceContext.lp(2, 2.0))
    times = np.arange(8) * 0.5
    values = np.column_stack([times[::-1], np.where(np.arange(8) % 2, 0.0, 0.5)])
    values[3] = [0.3, 0.4]  # norm_u 0.5, a t value too
    traj = SimpleNamespace(times=times, values=values)
    lines = _csv_rows(op, traj)
    assert lines == _reference_csv_rows(op, traj)
    assert lines[3].split(",") == ["1.5", "0.3", "0.4", "0.5", "0.5"]


def _shared_profile(op, values, cell, value):
    """A profile whose residuals are its norms but for one cell."""
    norms = op.space.norms(values)
    residual = norms.copy()
    residual[cell] = value(norms[cell])
    return SimpleNamespace(norms=norms, residual=residual)


@pytest.mark.parametrize(
    "value", [lambda v: np.nextafter(v, np.inf), lambda v: -v], ids=["one_ulp", "signed_zero"]
)
def test_trajectory_csv_dist_column_one_cell_apart(value):
    # dist_to_zero_set reuses norm_u's slots only when the two columns are
    # equal bit for bit: one ulp, or 0.0 against -0.0, keeps its own slot
    op = ScaledIdentity(1.0, SpaceContext.lp(3, 2.0))
    rng = np.random.default_rng(3)
    values = rng.normal(size=(CSV_BLOCK_ROWS + 5, 3))
    zero = len(values) - 3
    values[zero] = 0.0
    traj = SimpleNamespace(times=np.arange(len(values)) * 0.01, values=values)
    cell = zero if value(0.0) == 0.0 else 7
    profile = _shared_profile(op, values, cell, value)
    lines = _csv_rows(op, traj, profile)
    assert lines == _reference_csv_rows(op, traj, profile)
    norm_u, dist = lines[cell].split(",")[-2:]
    assert norm_u != dist
    if cell == zero:
        assert (norm_u, dist) == ("0.0", "-0.0")


@pytest.mark.parametrize("rows", [1, CSV_BLOCK_ROWS + 1], ids=["one_row", "block_plus_one"])
@pytest.mark.parametrize(
    "space, zero_set",
    [
        (SpaceContext.lp(3, 2.0), "origin"),
        (SpaceContext.lp(3, 2.0), "everything"),
        (SpaceContext.lp(3, 1.5), "origin"),
    ],
    ids=["hilbert", "zero_operator", "lp"],
)
def test_trajectory_csv_shared_and_separate_dist_columns(space, zero_set, rows):
    # the zero set {0} shares norm_u's slots; the zero operator's residual,
    # 0 throughout, differs from norm_u in every row and is sorted with it
    if zero_set == "origin":
        op = ScaledIdentity(1.0, space)
    else:
        op = LinearMatrix(np.zeros((space.dim, space.dim)), space)
    rng = np.random.default_rng(rows)
    values = np.tile(rng.normal(size=(4, space.dim)), (-(-rows // 4), 1))[:rows]
    traj = SimpleNamespace(times=np.arange(rows) * 0.01, values=values)
    norms, residual = op.space.norms(values), projection_profile(op, values)
    assert np.array_equal(norms.view(np.uint64), residual.view(np.uint64)) == (
        zero_set == "origin"
    )
    assert _csv_rows(op, traj) == _reference_csv_rows(op, traj)


def test_trajectory_csv_rounding_floor_tail():
    # lh00's pattern: past a block boundary several columns alternate
    # between two doubles; one double is a u cell and a norm_u cell, and
    # one column holds both zeros
    op = ScaledIdentity(1.0, SpaceContext.lp(3, 2.0))
    rows = CSV_BLOCK_ROWS + 300
    times = np.arange(rows) * 0.01
    values = np.exp(-np.outer(times, [1.0, 2.0, 3.0])) * [0.9, -0.5, 0.3]
    tail = np.where(np.arange(rows - CSV_BLOCK_ROWS + 100) % 2, 2.220446049250313e-16, 5e-324)
    values[CSV_BLOCK_ROWS - 100 :, 0] = tail
    values[CSV_BLOCK_ROWS - 100 :, 2] = -tail
    values[7] = [0.0, 0.0, 0.7]  # norm_u 0.7
    values[11, 1] = 0.7
    values[[20, 21], 1] = [0.0, -0.0]
    traj = SimpleNamespace(times=times, values=values)
    lines = _csv_rows(op, traj)
    assert lines == _reference_csv_rows(op, traj)
    assert lines[7].split(",")[-2] == lines[11].split(",")[2] == "0.7"
    assert [lines[i].split(",")[2] for i in (20, 21)] == ["0.0", "-0.0"]
    assert lines[CSV_BLOCK_ROWS].split(",")[1] in ("5e-324", "2.220446049250313e-16")


@pytest.mark.parametrize("table", ["random", "repeated"])
@pytest.mark.parametrize("rows, columns", [(1, 2), (7, 3), (CSV_BLOCK_ROWS + 3, 8)])
def test_distinct_doubles_are_np_unique(table, rows, columns):
    rng = np.random.default_rng(rows * columns)
    if table == "random":
        data = rng.normal(size=(rows, columns)) * 10.0 ** rng.integers(-300, 300, (rows, columns))
    else:
        data = rng.choice([0.0, -0.0, 5e-324, 1.0, -1.0, 0.1, np.inf], size=(rows, columns))
    bits, inverse = _distinct_doubles(list(data.T))
    want_bits, want_inverse = np.unique(data.view(np.uint64).ravel(), return_inverse=True)
    assert bits.dtype == np.uint64 and np.array_equal(bits, want_bits)
    assert np.array_equal(inverse, want_inverse.reshape(rows, columns))
    assert np.array_equal(bits.view(np.float64)[inverse].view(np.uint64), data.view(np.uint64))


def test_trajectory_csv_memory_is_bounded():
    # long_horizon's largest table: 12,001 rows x 9 columns, about 48,000
    # distinct doubles.  The repr writer peaked at 6.3 MiB on this one (and
    # 7.3 MiB on lh00 at seed 7001), the kernel formatting every distinct
    # double in one slab at 18.6 MiB; its slabs hold the writer at 5.4 MiB,
    # and sorting only the u and norm_u columns, with t formatted unsorted
    # and dist_to_zero_set sharing norm_u's slots, at 4.5 MiB; one stable
    # sort of the column-major cells, with the blocks written as bytes to a
    # binary handle, also peaks at 4.5 MiB
    times = np.arange(12_001) * 0.005
    rates = 0.3 * np.arange(1, 7)
    values = np.array([0.9, -0.5, 0.3, 0.6, -0.2, 0.4]) * np.exp(-rates * times[:, None])
    values[np.abs(values) < 1e-9] = 0.0
    traj = SimpleNamespace(times=times, values=values)
    op = ScaledIdentity(1.0, SpaceContext.lp(6, 2.0))
    export_trajectory_csv(op, traj, io.BytesIO())  # the kernel's tables are built once
    out = io.BytesIO()
    tracemalloc.start()
    try:
        export_trajectory_csv(op, traj, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    data = np.column_stack([times, values, np.linalg.norm(values, axis=1)])
    assert 45_000 <= np.unique(data.view(np.uint64)).size <= 55_000
    assert peak <= 1.1 * 6.3 * 2**20
    assert out.getvalue().decode("ascii").split("\n")[1:] == _reference_csv_rows(op, traj)


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
    ignore."""
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
    yield lower, -2.0 * inv_h2 * eye - fjac, upper
    lower = rng.normal(size=(m, dim, dim))
    upper = rng.normal(size=(m, dim, dim))
    diag = rng.normal(size=(m, dim, dim)) + 8.0 * eye
    yield lower, diag, upper
    if dim >= 2:
        diag[:, 1, 0] = 0.0
        swap = [1, 0] + list(range(2, dim))
        yield lower[:, swap], diag[:, swap], upper[:, swap]


# a level of fewer than _ELIMINATION_BLOCKS = 24 odd blocks per coordinate
# is solved by LAPACK, and so is every level from _ELIMINATION_DIM = 13
# coordinates up; a system of at most 96 unknowns is solved densely
@pytest.mark.parametrize("dim", [1, 2, 3, 6, 8, 14])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1000])
def test_block_cyclic_reduction_matches_dense_solve(m, dim):
    rng = np.random.default_rng(1000 * m + dim)
    for lower, diag, upper in _block_systems(m, dim, rng):
        rhs = rng.normal(size=(m, dim))
        y = _reduce(_level(lower, diag, upper, rhs)).T
        assert y.shape == (m, dim)
        if m * dim <= 3000:
            ref = np.linalg.solve(_dense(lower, diag, upper), rhs.ravel()).reshape(m, dim)
            assert np.max(np.abs(y - ref)) <= 1e-12 * np.max(np.abs(ref))
        else:
            # a dense matrix of this size takes 288 MB: check the residual
            # block by block instead
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
    """``_regularized_step``'s system, c y[i-1] + D[i] y[i] + c y[i+1] = r[i]
    with c = 1/h^2 and the ghost row's 2c, against LAPACK's banded solve of
    the assembled matrix (a direct solve with partial pivoting over whole
    columns; its dense matrix would take up to 141 MB here).  Diagonal
    blocks are -2c - F' with a rotation-like Jacobian F', or, with
    ``pivoting``, about half of them a row swap of a dominant block with
    an exactly zero leading entry, so the elimination must swap rows."""
    rng = np.random.default_rng(seed)
    c = 1.0 / (h * h)
    eye = np.eye(dim)
    skew = rng.normal(size=(m, dim, dim))
    skew -= skew.transpose(0, 2, 1)
    psd = rng.normal(size=(m, dim, dim))
    jac = psd @ psd.transpose(0, 2, 1) + 3.0 * skew + 0.01 * eye
    if pivoting and dim >= 2:
        dominant = 4.0 * (c + 1.0) * (eye + 0.1 * rng.normal(size=(m, dim, dim)))
        dominant[:, 1, 0] = 0.0
        swap = [1, 0] + list(range(2, dim))
        swapped = rng.random(m) < 0.5
        # -F' - 2c I is then the swapped block, with its zero entry exact
        jac[swapped] = -dominant[swapped][:, swap] - 2.0 * c * eye
    # the step's blocks, -F' with 2c taken off the diagonal, bit for bit
    diag = -jac
    diag[:, np.arange(dim), np.arange(dim)] -= 2.0 * c
    rhs = rng.normal(size=(m, dim))
    op = SimpleNamespace(yosida_jacobian_many=lambda r, u: jac)
    y = _regularized_step(op, 0.1, 0.0, c, np.zeros((m, dim)), rhs.T).T
    u = 2 * dim - 1
    ref = scipy.linalg.solve_banded((u, u), _banded_newton(c, diag), rhs.ravel())
    assert np.max(np.abs(y.ravel() - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("dim", [2, 14])
def test_singular_newton_block_is_solver_error(dim):
    # B = -5 I at r = 0.1 and p = 2 gives A_r' + p = -8 I, which cancels
    # -2/h^2 at h = 0.5: every diagonal block of the Newton step is zero
    op = LinearMatrix(-5.0 * np.eye(dim))
    x = np.ones(dim)
    message = r"^regularized solve \(r=0\.1, p=2\) hit a singular matrix$"
    with pytest.raises(SolverError, match=message):
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
    with pytest.raises(SolverError, match=r"^linear solve hit a singular matrix$"):
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
