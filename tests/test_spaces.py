import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchylab import SpaceContext
from cauchylab.errors import DimensionMismatch


def test_hilbert_norm_pythagorean(hilbert2):
    assert hilbert2.norm(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_lp_norm_direct_formula(lp4):
    assert lp4.norm(np.array([1.0, 1.0])) == pytest.approx(2.0 ** 0.25)


def test_zero_vector_norm(hilbert2, lp4):
    zero = np.zeros(2)
    assert hilbert2.norm(zero) == 0.0
    assert lp4.norm(zero) == 0.0


def test_dual_pair_dot_product(hilbert2):
    assert hilbert2.dual_pair(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0
    assert hilbert2.dual_pair(np.zeros(2), np.array([9.0, -1.0])) == 0.0


def test_duality_identity_hilbert(hilbert2):
    x = np.array([3.0, 4.0])
    j = hilbert2.duality_map(x)
    assert np.allclose(j, x)
    assert hilbert2.dual_pair(j, x) == pytest.approx(25.0)


def test_duality_map_lp_unit_basis(lp4):
    assert np.allclose(lp4.duality_map(np.array([1.0, 0.0])), [1.0, 0.0])


def test_duality_map_lp_diagonal(lp4):
    # closed form at (1, 1): both coordinates 2^{-1/2}, pairing sqrt(2)
    x = np.array([1.0, 1.0])
    j = lp4.duality_map(x)
    assert np.allclose(j, [2.0 ** -0.5, 2.0 ** -0.5], atol=1e-12)
    assert lp4.dual_pair(j, x) == pytest.approx(np.sqrt(2.0), abs=1e-10)
    assert lp4.dual_norm(j) == pytest.approx(lp4.norm(x), abs=1e-10)


def test_duality_map_at_zero(lp4):
    assert np.all(lp4.duality_map(np.zeros(2)) == 0.0)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=2),
    st.sampled_from(["hilbert", "lp"]),
)
def test_duality_identities_random(coords, kind):
    space = SpaceContext.hilbert(2) if kind == "hilbert" else SpaceContext.lp(2, 4.0, 0.02)
    assert space.check_duality_identities(np.array(coords))


# a coordinate: 0, or of magnitude in [1e-6, 1e3], so no power underflows
_COORD = st.just(0.0) | st.floats(1e-6, 1e3) | st.floats(-1e3, -1e-6)


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(2.0, 8.0),
    lam=st.floats(1e-3, 1e3),
    rows=st.integers(1, 4).flatmap(
        lambda dim: st.lists(st.lists(_COORD, min_size=dim, max_size=dim), min_size=1, max_size=6)
    ),
)
def test_lp_duality_map_is_one_homogeneous(p, lam, rows):
    # J(lam x) = lam J(x): a pair's ratio <Jx - Jy, x - y> / ||x - y||^2 is
    # the same at every scale, so the monotonicity sampling radius moves no
    # verdict
    rows = np.array(rows)
    space = SpaceContext.lp(rows.shape[1], p, 0.02)
    scaled = space.duality_map_many(lam * rows)
    expected = lam * space.duality_map_many(rows)
    err = np.abs(scaled - expected).max(axis=1)
    assert np.all(err <= 1e-12 * np.abs(expected).max(axis=1))


def test_hilbert_strong_monotonicity_exact(hilbert2):
    rng = np.random.default_rng(7)
    for _ in range(100):
        x, y = rng.normal(size=2), rng.normal(size=2)
        d = x - y
        gap = hilbert2.dual_pair(hilbert2.duality_map(x) - hilbert2.duality_map(y), d)
        assert gap == pytest.approx(hilbert2.norm(d) ** 2, rel=1e-12)


def test_lp_monotonicity_sampling(lp4):
    report = lp4.validate_strong_monotonicity(2.0, 2000, np.random.default_rng(3))
    assert report.passed
    assert report.min_ratio >= lp4.M


def test_lp_monotonicity_rejects_overclaimed_constant():
    space = SpaceContext.lp(2, 4.0, 0.5)
    report = space.validate_strong_monotonicity(2.0, 2000, np.random.default_rng(3))
    assert not report.passed


def test_p_below_two_rejected():
    with pytest.raises(ValueError):
        SpaceContext.lp(2, 1.5, 0.1)


def test_nonpositive_m_rejected():
    with pytest.raises(ValueError):
        SpaceContext.lp(2, 4.0, 0.0)


def test_dimension_mismatch(hilbert2):
    with pytest.raises(DimensionMismatch):
        hilbert2.norm(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DimensionMismatch):
        hilbert2.norms(np.ones((4, 3)))
