import numpy as np
import pytest
import scipy.linalg

from cauchylab import (
    LinearMatrix,
    LinearPSD,
    NormSubdifferential,
    Rotation,
    ScaledIdentity,
    SolverConfig,
    SqrtSemigroup,
    StronglyAccretive,
    TimeGrid,
    Trajectory,
    check_apriori,
    linear_oracle,
    solve_regularized,
    solve_second_order,
)
from cauchylab.errors import HorizonError, SolverError
from cauchylab.second_order import (
    _solve_block_tridiagonal,
    export_trajectory_csv,
    projection_profile,
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
    traj = solve_second_order(op, x, TimeGrid(20.0, 0.01))
    expected = np.stack(
        [linear_oracle(op.matrix, t, x) for t in traj.times[:: 100]]
    )
    assert np.max(np.abs(traj.values[::100] - expected)) <= 1e-4
    assert traj.meta["stabilized"]


def test_second_order_zero_operator_constant(hilbert2):
    op = ScaledIdentity(0.0, hilbert2)
    x = np.array([0.7, -0.3])
    traj = solve_second_order(op, x, TimeGrid(40.0, 0.01))
    assert np.max(np.abs(traj.values - x)) <= 1e-5


def test_direct_solve_zero_operator_is_exact(hilbert2):
    # the chain stopped 3.5e-5 from x at T = 100 while claiming stabilization
    op = ScaledIdentity(0.0, hilbert2)
    x = np.array([0.7, -0.3])
    traj = solve_second_order(op, x, TimeGrid(100.0, 0.01))
    assert np.max(np.abs(traj.values - x)) <= 1e-12
    assert traj.meta["stabilized"]


@pytest.mark.parametrize(
    "matrix", [1.3 * np.eye(2), np.array([[2.0, 1.0], [1.0, 1.0]]), np.zeros((2, 2))]
)
def test_direct_solve_long_horizon_oracle(hilbert2, matrix):
    op = LinearPSD(matrix, hilbert2)
    x = np.array([0.8, -0.6])
    traj = solve_second_order(op, x, TimeGrid(100.0, 0.01))
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
    traj = solve_second_order(op, x, TimeGrid(40.0, 0.01))
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
    traj = solve_second_order(op, np.array([1.0, 0.0]), TimeGrid(20.0, 0.01))
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


def test_check_apriori_zero_operator(hilbert2):
    op = ScaledIdentity(0.0, hilbert2)
    x = np.array([0.7, -0.3])
    traj = solve_second_order(op, x, TimeGrid(40.0, 0.01))
    bounds = check_apriori(op, x, traj, 1.0)
    assert bounds.passed
    assert bounds.int_du_sq <= 1e-6
    assert bounds.int_ddu_sq <= 1e-6


def test_check_apriori_identity_margins(hilbert2):
    op = ScaledIdentity(1.0, hilbert2)
    x = np.array([1.0, 0.0])
    traj = solve_second_order(op, x, TimeGrid(40.0, 0.01))
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
    traj = solve_second_order(op, np.array([1.0, 0.0]), TimeGrid(20.0, 0.01))
    expected = np.maximum(1.0 - traj.times / np.sqrt(2.0), 0.0) ** 2
    assert np.max(np.abs(traj.values[:, 0] - expected)) <= 1e-3


def test_grid_refinement_second_order(hilbert2):
    op = ScaledIdentity(1.0, hilbert2)
    x = np.array([1.0, 0.0])
    errs = []
    for h in [0.04, 0.02]:
        traj = solve_second_order(op, x, TimeGrid(20.0, h))
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
    traj = solve_second_order(op, x, TimeGrid(5.0, 0.05))
    path = tmp_path / "traj.csv"
    export_trajectory_csv(op, traj, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,u_0,u_1,norm_u,dist_to_zero_set"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (traj.times.size, 5)
    assert np.allclose(data[:, 3], np.linalg.norm(traj.values, axis=1), atol=1e-12)
    assert np.allclose(data[:, 4], projection_profile(op, traj), atol=1e-12)


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


def _block_systems(m, dim, rng):
    """The Newton system's shape (identity couplings, doubled on the ghost
    row, diagonal blocks -2/h^2 - F' with a rotation-like skew part), then
    a general system of random non-symmetric blocks.  lower[0] and
    upper[-1] hold junk, which the solver must ignore."""
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
    yield lower, rng.normal(size=(m, dim, dim)) + 8.0 * eye, upper


@pytest.mark.parametrize("dim", [1, 2, 3, 6])
@pytest.mark.parametrize("m", [1, 2, 3, 4, 5, 7, 8, 9, 63, 64, 65, 1000])
def test_block_cyclic_reduction_matches_dense_solve(m, dim):
    rng = np.random.default_rng(1000 * m + dim)
    for lower, diag, upper in _block_systems(m, dim, rng):
        rhs = rng.normal(size=(m, dim))
        y = _solve_block_tridiagonal(lower, diag, upper, rhs)
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
