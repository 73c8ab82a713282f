import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchylab import (
    AccretiveOperator,
    LinearMatrix,
    LinearPSD,
    NormSubdifferential,
    Rotation,
    ScaledIdentity,
    SpaceContext,
    StronglyAccretive,
    verify_accretive,
)


def test_resolvent_scaled_identity(hilbert2):
    op = ScaledIdentity(3.0, hilbert2)
    assert np.allclose(op.resolvent(1.0, np.array([4.0, 0.0])), [1.0, 0.0])


def test_resolvent_linear_psd_componentwise(hilbert2):
    op = LinearPSD(np.diag([1.0, 4.0]), hilbert2)
    assert np.allclose(op.resolvent(0.5, np.array([3.0, 3.0])), [2.0, 1.0])


def test_resolvent_zero_operator_identity(hilbert2):
    op = ScaledIdentity(0.0, hilbert2)
    x = np.array([2.5, -1.0])
    for gamma in [0.1, 1.0, 10.0]:
        assert np.allclose(op.resolvent(gamma, x), x)


def test_yosida_scaled_identity(hilbert2):
    op = ScaledIdentity(1.0, hilbert2)
    assert np.allclose(op.yosida(1.0, np.array([2.0, 0.0])), [1.0, 0.0])


def test_yosida_zero_operator(hilbert2):
    op = ScaledIdentity(0.0, hilbert2)
    assert np.allclose(op.yosida(0.5, np.array([1.0, 2.0])), 0.0)


def test_yosida_closed_form_matches_resolvent_composition(hilbert2):
    # B (I + rB)^{-1} x for B = diag(1, 4), r = 1/4: eigenvalues 0.8 and 2
    op = LinearPSD(np.diag([1.0, 4.0]), hilbert2)
    x = np.array([1.0, 1.0])
    closed = op.yosida_many(0.25, x[None, :])[0]
    assert np.allclose(closed, [0.8, 2.0], atol=1e-12)
    composed = (x - op.resolvent(0.25, x)) / 0.25
    assert np.allclose(closed, composed, atol=1e-12)


def test_select_examples(hilbert2):
    assert np.allclose(ScaledIdentity(2.0, hilbert2).select(np.array([1.0, 1.0])), [2.0, 2.0])
    assert np.allclose(NormSubdifferential(hilbert2).select(np.zeros(2)), 0.0)
    assert np.allclose(Rotation(space=hilbert2).select(np.array([1.0, 0.0])), [0.0, 1.0])


def test_dist_zero_examples(hilbert2):
    assert ScaledIdentity(1.0, hilbert2).dist_zero(np.array([3.0, 4.0])) == pytest.approx(5.0)
    assert ScaledIdentity(1.0, hilbert2).dist_zero(np.zeros(2)) == 0.0
    op = LinearPSD(np.diag([1.0, 4.0]), hilbert2)
    assert op.dist_zero(np.array([1.0, 1.0])) == pytest.approx(np.sqrt(17.0))


def test_project_zeros_nullspace(hilbert2):
    op = LinearPSD(np.diag([0.0, 1.0]), hilbert2)
    assert np.allclose(op.project_zeros(np.array([2.0, 5.0])), [2.0, 0.0])


def test_project_zeros_origin_and_identity(hilbert2):
    assert np.allclose(ScaledIdentity(1.0, hilbert2).project_zeros(np.array([3.0, 4.0])), 0.0)
    x = np.array([3.0, 4.0])
    assert np.allclose(ScaledIdentity(0.0, hilbert2).project_zeros(x), x)


def test_projection_idempotent_image_zeros(hilbert2, catalog):
    rng = np.random.default_rng(11)
    for _, op, _ in catalog:
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            px = op.project_zeros(x)
            assert np.allclose(op.project_zeros(px), px, atol=1e-10)
            assert op.space.norm(op.select(px)) <= 1e-8


def test_projection_nonexpansive_hilbert(catalog):
    # omega(r, k) = k is a valid modulus exactly when P is nonexpansive
    rng = np.random.default_rng(13)
    for _, op, _ in catalog:
        for _ in range(50):
            x, y = rng.uniform(-3, 3, size=2), rng.uniform(-3, 3, size=2)
            lhs = op.space.norm(op.project_zeros(x) - op.project_zeros(y))
            assert lhs <= op.space.norm(x - y) + 1e-9


def test_resolvent_nonexpansive(catalog):
    rng = np.random.default_rng(5)
    for _, op, _ in catalog:
        for _ in range(25):
            x, y = rng.uniform(-2, 2, size=2), rng.uniform(-2, 2, size=2)
            gamma = float(rng.uniform(0.05, 5.0))
            lhs = op.space.norm(op.resolvent(gamma, x) - op.resolvent(gamma, y))
            assert lhs <= op.space.norm(x - y) + 1e-9


def test_resolvent_identity_on_catalog(catalog):
    # the Yosida approximate lands in the image of A at the resolvent point
    rng = np.random.default_rng(17)
    for _, op, _ in catalog:
        for _ in range(20):
            x = rng.uniform(-2, 2, size=2)
            r = float(rng.uniform(0.1, 2.0))
            assert op.graph_distance(op.resolvent(r, x), op.yosida(r, x)) <= 1e-8


def test_verify_accretive_scaled_identity(hilbert2):
    report = verify_accretive(ScaledIdentity(1.0, hilbert2), 200, 2.0)
    assert report.passed
    assert report.min_pairing >= 0.0


def test_verify_accretive_rotation_boundary(hilbert2):
    report = verify_accretive(Rotation(space=hilbert2), 200, 2.0)
    assert report.passed
    assert abs(report.min_pairing) <= 1e-9


def test_verify_accretive_fails_on_nonmonotone_matrix(hilbert2):
    report = verify_accretive(LinearMatrix(np.diag([-1.0, 1.0]), hilbert2), 500, 2.0)
    assert not report.passed
    assert report.min_pairing < -1e-3
    assert report.witness is not None


def test_strongly_accretive_resolvent_composition(hilbert2):
    op = StronglyAccretive(Rotation(space=hilbert2), 1.0)
    rng = np.random.default_rng(23)
    for _ in range(20):
        x = rng.uniform(-2, 2, size=2)
        gamma = float(rng.uniform(0.05, 3.0))
        z = op.resolvent(gamma, x)
        assert np.linalg.norm(z + gamma * op.select(z) - x) <= 1e-10


def test_strongly_accretive_nonlinear_base(hilbert2):
    op = StronglyAccretive(NormSubdifferential(hilbert2), 0.5)
    x = np.array([2.0, 1.0])
    z = op.resolvent(0.8, x)
    assert np.linalg.norm(z + 0.8 * op.select(z) - x) <= 1e-9


def test_strongly_accretive_requires_vanishing_base(hilbert2):
    class Shifted(AccretiveOperator):
        def select(self, x):
            return x + 1.0

    with pytest.raises(ValueError):
        StronglyAccretive(Shifted(hilbert2), 1.0)


class _Cubic(AccretiveOperator):
    """Componentwise x + x^3: monotone, no closed-form resolvent."""

    kind = "cubic"

    def select(self, x):
        x = self.space.check(x)
        return x + x ** 3

    def project_zeros(self, x):
        return np.zeros(self.space.dim)


def test_newton_resolvent_fallback(hilbert2):
    op = _Cubic(hilbert2)
    rng = np.random.default_rng(31)
    for _ in range(10):
        x = rng.uniform(-3, 3, size=2)
        gamma = float(rng.uniform(0.1, 2.0))
        z = op.resolvent(gamma, x)
        assert np.linalg.norm(z + gamma * op.select(z) - x) <= 1e-9


def test_structural_validation(hilbert2):
    with pytest.raises(ValueError):
        LinearPSD(np.array([[0.0, 1.0], [0.0, 0.0]]), hilbert2)  # not symmetric
    with pytest.raises(ValueError):
        LinearPSD(np.diag([-1.0, 1.0]), hilbert2)  # not PSD
    with pytest.raises(ValueError):
        Rotation(np.array([[0.0, 1.0], [1.0, 0.0]]), hilbert2)  # not skew
    with pytest.raises(ValueError):
        Rotation(np.zeros((2, 2)), hilbert2)  # degenerate
    with pytest.raises(ValueError):
        ScaledIdentity(-1.0, hilbert2)


def test_lp_space_rejects_proper_nullspace():
    lp = SpaceContext.lp(2, 4.0, 0.02)
    with pytest.raises(ValueError):
        LinearPSD(np.diag([0.0, 1.0]), lp)
    LinearPSD(np.diag([1.0, 2.0]), lp)  # trivial nullspace is fine


def test_graph_bound(hilbert2):
    op = LinearPSD(np.diag([1.0, 4.0]), hilbert2)
    x = np.array([1.0, 1.0])
    # max(||x||, ||Bx||) = sqrt(17), ceiled
    assert op.graph_bound(x) == 5
    assert ScaledIdentity(1.0, hilbert2).graph_bound(np.array([1.0, 0.0])) == 1


def test_domain_witness_constant_in_index(hilbert2):
    op = LinearPSD(np.diag([1.0, 4.0]), hilbert2)
    x = np.array([1.0, 1.0])
    witness = op.domain_witness(x)
    for n in [0, 3, 10**6]:
        wx, wy, bound = witness(n)
        assert np.allclose(wx, x)
        assert np.allclose(wy, op.select(x))
        assert bound == 5
        assert np.linalg.norm(wx - x) <= 1.0 / (n + 1)


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=2, max_size=2),
    st.floats(0.01, 10.0),
)
def test_resolvent_residual_property(coords, gamma):
    space = SpaceContext.hilbert(2)
    op = LinearPSD(np.diag([1.0, 4.0]), space)
    x = np.array(coords)
    z = op.resolvent(gamma, x)
    assert np.linalg.norm(z + gamma * op.select(z) - x) <= 1e-9 * (1 + np.linalg.norm(x))


def _null_space_matrices():
    """(matrix, nullity): diagonal, PSD, skew and non-symmetric entries with
    trivial, one-dimensional and full nullspaces."""
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    g = rng.normal(size=(4, 4))
    yield np.diag([1.0, 4.0]), 0
    yield np.diag([0.0, 4.0, 2.5]), 1
    yield np.zeros((3, 3)), 3
    yield q @ np.diag([0.5, 2.0, 7.0, 1.0]) @ q.T, 0
    yield q @ np.diag([0.0, 2.0, 7.0, 1.0]) @ q.T, 1
    yield np.array([[0.0, -2.0], [2.0, 0.0]]), 0
    yield np.array([[0.0, -1.0, 2.0], [1.0, 0.0, -3.0], [-2.0, 3.0, 0.0]]), 1
    yield g, 0
    yield g @ np.diag([1.0, 1.0, 1.0, 0.0]) @ rng.normal(size=(4, 4)), 1


def test_null_projector_matches_scipy_null_space():
    # scipy.linalg.null_space is the reference the projector must reproduce
    for matrix, nullity in _null_space_matrices():
        ns = scipy.linalg.null_space(matrix, rcond=1e-10)
        assert ns.shape[1] == nullity
        ref = ns @ ns.T if ns.size else np.zeros_like(matrix)
        op = LinearMatrix(matrix)
        x = np.arange(1.0, matrix.shape[0] + 1.0)
        assert np.allclose(op.project_zeros(x), ref @ x, rtol=0.0, atol=1e-12)
        eye = np.eye(matrix.shape[0])
        assert np.allclose(op.project_zeros_many(eye), ref.T, rtol=0.0, atol=1e-12)
