"""The first-order semigroup S(t)x, the flow of u' + Au = 0, in closed form:
e^(-tB)x for a linear B, and the shrinking ray of the norm subdifferential
under strongly accretive shifts."""

import numpy as np
import pytest
import scipy.linalg

from cauchylab import (
    LinearMatrix,
    LinearPSD,
    NormSubdifferential,
    Rotation,
    ScaledIdentity,
    StronglyAccretive,
    TimeGrid,
    first_order_trajectory,
)
from cauchylab.errors import SolverError
from cauchylab.operators import AccretiveOperator


def flow(op, x, t):
    """S(t)x, the last node of a one-step grid."""
    return first_order_trajectory(op, x, TimeGrid(t, t)).values[-1]


def random_matrices(rng, scale):
    """Random B of dims 1-14 at spectral norm ``scale``: PSD with a kernel,
    and skew."""
    for dim in rng.integers(1, 15, size=8):
        g = rng.normal(size=(dim, dim))
        g[:, -1] = 0.0
        for b in (g @ g.T, g - g.T):
            norm = np.linalg.norm(b, 2)
            yield b * (scale / norm) if norm else b


def test_zero_operator_fixed(hilbert2):
    x = np.array([1.0, -2.0])
    for op in (ScaledIdentity(0.0, hilbert2), LinearMatrix(np.zeros((2, 2)))):
        traj = first_order_trajectory(op, x, TimeGrid(3.0, 0.5))
        assert np.array_equal(traj.values, np.tile(x, (7, 1)))


def test_exp_formula_converges_to_exponential(hilbert2):
    # the n-fold resolvent (1 + t/n)^(-n) tends to the closed form e^(-t)
    op = ScaledIdentity(1.0, hilbert2)
    x = np.array([1.0, 0.0])
    for t in (1.0, 2.0):
        value = flow(op, x, t)
        assert value[0] == pytest.approx(np.exp(-t), rel=1e-15)
        assert value[1] == 0.0
        assert abs((1.0 + t / 2**20) ** -(2**20) - value[0]) <= 1e-6


def check_against_expm(op, x):
    for grid in (TimeGrid(40.0, 0.05), TimeGrid(40.0, 2.5), TimeGrid(40.0, 40.0)):
        traj = first_order_trajectory(op, x, grid)
        b = op.linear_matrix
        want = np.stack([scipy.linalg.expm(-t * b) @ x for t in grid.nodes])
        error = np.linalg.norm(traj.values - want, axis=1)
        assert np.max(error) <= 1e-12 * np.linalg.norm(x)


def test_matrix_exponential_oracle():
    # scipy's expm forms e^(-tB) afresh at each t, and its own error grows
    # with ||tB||: at ||B|| = 1 and t <= 40 it stays below 1e-12 ||x||, the
    # flow being nonexpansive; test_normal_matrices_against_eigendecomposition
    # covers larger norms
    rng = np.random.default_rng(11)
    jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
    for b in [*random_matrices(rng, 1.0), jordan]:
        base = LinearMatrix(b)
        for op in (base, StronglyAccretive(base, float(rng.uniform(0.01, 1.0)))):
            check_against_expm(op, rng.normal(size=len(b)))


def test_normal_matrices_against_eigendecomposition():
    # e^(-tB) = V e^(-t lambda) V* for symmetric and skew B (iB is Hermitian)
    rng = np.random.default_rng(12)
    grid = TimeGrid(40.0, 0.25)
    for b in random_matrices(rng, 4.0):
        if np.array_equal(b, b.T):
            lam, v = np.linalg.eigh(b)
        else:
            mu, v = np.linalg.eigh(1j * b)
            lam = -1j * mu
        x = rng.normal(size=len(b))
        for c in (0.0, float(rng.uniform(0.01, 1.0))):
            op = StronglyAccretive(LinearMatrix(b), c) if c else LinearMatrix(b)
            traj = first_order_trajectory(op, x, grid)
            want = ((np.exp(-grid.nodes[:, None] * (lam + c)) * (v.conj().T @ x)) @ v.T).real
            error = np.linalg.norm(traj.values - want, axis=1)
            assert np.all(error <= 1e-12 * np.linalg.norm(want, axis=1))


def test_defective_block_in_closed_form():
    # e^(-tJ) = e^(-t) [[1, -t], [0, 1]] for the Jordan block J = [[1, 1], [0, 1]]
    op = LinearMatrix(np.array([[1.0, 1.0], [0.0, 1.0]]))
    x = np.array([0.5, -1.0])
    grid = TimeGrid(40.0, 0.05)
    t = grid.nodes
    want = np.exp(-t)[:, None] * np.stack([x[0] - t * x[1], np.full_like(t, x[1])], axis=1)
    error = np.linalg.norm(first_order_trajectory(op, x, grid).values - want, axis=1)
    assert np.all(error <= 1e-13 * np.linalg.norm(want, axis=1))


def test_matrix_power_path_equals_literal_composition(hilbert2):
    # node k is a product of the powers E^(2^j): it equals k steps of E
    op = LinearPSD(np.array([[2.0, 1.0], [1.0, 3.0]]), hilbert2)
    x = np.array([1.0, 0.5])
    grid = TimeGrid(10.0, 0.05)
    step = np.stack([flow(op, e, 0.05) for e in np.eye(2)], axis=1)
    z, want = x, [x]
    for _ in range(grid.n_steps):
        z = step @ z
        want.append(z)
    error = np.linalg.norm(first_order_trajectory(op, x, grid).values - want, axis=1)
    assert np.all(error <= 1e-13 * np.linalg.norm(want, axis=1))


def one_of_each(space):
    """A PSD matrix, the rotation, the norm subdifferential, and the latter
    under two nested shifts."""
    norm = NormSubdifferential(space)
    return [
        LinearPSD(np.diag([1.0, 4.0]), space),
        Rotation(space=space),
        norm,
        StronglyAccretive(StronglyAccretive(norm, 0.25), 0.5),
    ]


def test_semigroup_law(hilbert2):
    rng = np.random.default_rng(3)
    for op in one_of_each(hilbert2):
        for _ in range(5):
            x = rng.uniform(-2, 2, size=2)
            t, s = rng.uniform(0.1, 2.0, size=2)
            lhs, rhs = flow(op, x, t + s), flow(op, flow(op, x, s), t)
            assert np.allclose(lhs, rhs, rtol=0, atol=1e-14)


def test_contraction(hilbert2):
    rng = np.random.default_rng(4)
    for op in one_of_each(hilbert2):
        for _ in range(10):
            x, y = rng.uniform(-2, 2, size=2), rng.uniform(-2, 2, size=2)
            t = float(rng.uniform(0.01, 3.0))
            gap = np.linalg.norm(flow(op, x, t) - flow(op, y, t))
            assert gap <= np.linalg.norm(x - y) * (1.0 + 1e-14)


def test_error_decreases_with_doubling(hilbert2):
    # the exponential formula's error against the closed form is O(1/n):
    # each doubling of n halves it, linear or not
    x = np.array([1.0, 1.0])
    for op in (
        LinearPSD(np.diag([1.0, 4.0]), hilbert2),
        StronglyAccretive(NormSubdifferential(hilbert2), 0.5),
    ):
        exact = flow(op, x, 1.0)
        errors = []
        for n in (64, 128, 256, 512):
            z = x
            for _ in range(n):
                z = op.resolvent(1.0 / n, z)
            errors.append(np.linalg.norm(z - exact))
        ratios = [e1 / e2 for e1, e2 in zip(errors, errors[1:])]
        assert all(1.9 <= r <= 2.1 for r in ratios), ratios


def test_rotation_orbit_does_not_converge(hilbert2):
    op = Rotation(space=hilbert2)
    x = np.array([1.0, 0.0])
    at_pi = flow(op, x, np.pi)
    assert np.allclose(at_pi, -x, rtol=0, atol=1e-15)


def test_rotation_is_an_isometry(hilbert2):
    # the rotation config's orbit: the exponential formula lost 0.048 of the
    # norm by t = 40, the closed form stays on the unit circle
    op, x = Rotation(space=hilbert2), np.array([1.0, 0.0])
    traj = first_order_trajectory(op, x, TimeGrid(40.0, 0.05))
    assert np.max(np.abs(np.linalg.norm(traj.values, axis=1) - 1.0)) <= 1e-12


def test_nonlinear_composition_norm_subdifferential(hilbert2):
    # prox steps shrink radially by exactly gamma each, so the n-fold
    # composition moves the point by t toward the origin, and reaches it
    op = NormSubdifferential(hilbert2)
    x = np.array([2.0, 0.0])
    assert np.array_equal(flow(op, x, 1.0), [1.0, 0.0])
    z = x
    for _ in range(4096):
        z = op.resolvent(1.0 / 4096, z)
    assert np.allclose(flow(op, x, 1.0), z, rtol=0, atol=1e-12)
    traj = first_order_trajectory(op, x, TimeGrid(5.0, 0.25))
    assert np.all(traj.values[traj.times >= 2.0] == 0.0)
    assert np.all(traj.values[traj.times < 2.0, 0] > 0.0)


def test_shifted_norm_extinction(hilbert2):
    # rho' = -1 - c rho reaches 0 at log1p(c rho0)/c, exactly 0.0 from there;
    # a tiny c is the unshifted flow to rounding
    x = np.array([0.6, 0.8])
    for c in (0.5, 2.0, 1e-12):
        op = StronglyAccretive(NormSubdifferential(hilbert2), c)
        traj = first_order_trajectory(op, x, TimeGrid(2.0, 0.01))
        rho = np.linalg.norm(traj.values, axis=1)
        t, t_star = traj.times, np.log1p(c) / c
        assert np.all(rho[t >= t_star] == 0.0) and np.all(rho[t < t_star] > 0.0)
        live = t < t_star
        if c > 1e-6:
            want = (1.0 + 1.0 / c) * np.exp(-c * t[live]) - 1.0 / c
        else:  # rho = 1 - t - c (t - t^2/2) + O(c^2)
            want = 1.0 - t[live]
        assert np.allclose(rho[live], want, rtol=0, atol=1e-12 + c)
        assert np.allclose(traj.values[live], rho[live, None] * x, rtol=0, atol=1e-15)


def test_growing_flow_has_no_singular_step(hilbert2):
    # B = -I: the exponential formula's I + (t/n)B was singular at t = n;
    # the closed form is e^t x, and an overflowing flow is a SolverError
    x = np.array([1.0, -0.5])
    traj = first_order_trajectory(LinearMatrix(-np.eye(2)), x, TimeGrid(40.0, 0.05))
    assert np.allclose(traj.values, np.exp(traj.times)[:, None] * x, rtol=1e-12, atol=0)
    with pytest.raises(SolverError, match="overflows the float range at t = 7.1"):
        first_order_trajectory(LinearMatrix(-100.0 * np.eye(2)), x, TimeGrid(40.0, 0.05))


def test_input_validation(hilbert2):
    # only the catalog's two families have a closed form
    class Other(AccretiveOperator):
        def select(self, x):
            return np.zeros_like(x)

    with pytest.raises(ValueError, match="no closed-form first-order flow for Other"):
        first_order_trajectory(Other(hilbert2), np.zeros(2), TimeGrid(1.0, 0.5))
    with pytest.raises(ValueError, match="for StronglyAccretive"):
        op = StronglyAccretive(Other(hilbert2), 1.0)
        first_order_trajectory(op, np.zeros(2), TimeGrid(1.0, 0.5))
