import numpy as np
import pytest

from cauchylab import (
    LinearPSD,
    NormSubdifferential,
    Rotation,
    ScaledIdentity,
    SolverConfig,
    SpaceContext,
    StronglyAccretive,
    TimeGrid,
    solve_second_order,
)


@pytest.fixture(scope="session")
def hilbert2():
    return SpaceContext.lp(2, 2.0)


@pytest.fixture(scope="session")
def hilbert3():
    return SpaceContext.lp(3, 2.0)


@pytest.fixture(scope="session")
def lp15():
    # the space of the bundled lp_identity config: M = p - 1 = 0.5
    return SpaceContext.lp(2, 1.5)


@pytest.fixture
def no_regularized_solve(monkeypatch):
    """Make a regularized solve fail the test: a run's solve is one r = 0
    solve, and a call through the module attribute would show up here."""

    def regularized(*args, **kwargs):
        raise AssertionError("solve_regularized called")

    monkeypatch.setattr("cauchylab.second_order.solve_regularized", regularized)


@pytest.fixture(scope="session")
def catalog(hilbert2):
    """Catalog operators with initial points for trajectory-level checks."""
    return [
        ("identity", ScaledIdentity(1.0, hilbert2), np.array([1.0, 0.0])),
        ("diag14", LinearPSD(np.diag([1.0, 4.0]), hilbert2), np.array([1.0, 1.0])),
        ("subdiff", NormSubdifferential(hilbert2), np.array([1.0, 0.0])),
        (
            "strongly_accretive",
            StronglyAccretive(Rotation(space=hilbert2), 1.0),
            np.array([1.0, 0.0]),
        ),
        ("rotation", Rotation(space=hilbert2), np.array([1.0, 0.0])),
        ("zero", ScaledIdentity(0.0, hilbert2), np.array([0.7, -0.3])),
    ]


@pytest.fixture(scope="session")
def catalog_trajectories(catalog):
    grid = TimeGrid(40.0, 0.01)
    return [
        (name, op, x, solve_second_order(op, x, SolverConfig(grid))) for name, op, x in catalog
    ]
