import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchylab import SpaceContext
from cauchylab.errors import DimensionMismatch


def test_hilbert_norm_pythagorean(hilbert2):
    assert hilbert2.norm(np.array([3.0, 4.0])) == pytest.approx(5.0)


def test_lp_norm_direct_formula(lp15):
    assert lp15.norm(np.array([1.0, 1.0])) == pytest.approx(2.0 ** (2.0 / 3.0))


def test_zero_vector_norm(hilbert2, lp15):
    zero = np.zeros(2)
    assert hilbert2.norm(zero) == 0.0
    assert lp15.norm(zero) == 0.0


def test_dual_pair_dot_product(hilbert2):
    assert hilbert2.dual_pair(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0
    assert hilbert2.dual_pair(np.zeros(2), np.array([9.0, -1.0])) == 0.0


def test_duality_identity_hilbert(hilbert2):
    x = np.array([3.0, 4.0])
    j = hilbert2.duality_map(x)
    assert np.allclose(j, x)
    assert hilbert2.dual_pair(j, x) == pytest.approx(25.0)


def test_duality_map_lp_unit_basis(lp15):
    assert np.allclose(lp15.duality_map(np.array([1.0, 0.0])), [1.0, 0.0])


def test_duality_map_lp_diagonal(lp15):
    # closed form at (1, 1): both coordinates 2^{1/3}, pairing 2^{4/3}
    x = np.array([1.0, 1.0])
    j = lp15.duality_map(x)
    assert np.allclose(j, [2.0 ** (1.0 / 3.0), 2.0 ** (1.0 / 3.0)], atol=1e-12)
    assert lp15.dual_pair(j, x) == pytest.approx(2.0 ** (4.0 / 3.0), abs=1e-10)
    assert lp15.dual_norm(j) == pytest.approx(lp15.norm(x), abs=1e-10)


def test_duality_map_at_zero(lp15):
    assert np.all(lp15.duality_map(np.zeros(2)) == 0.0)
    # finite at a zero coordinate, where |x_i|^(p-2) is not
    assert np.allclose(lp15.duality_map(np.array([0.0, -4.0])), [0.0, -4.0], rtol=1e-15, atol=0.0)


def test_lp_duality_map_at_p_two_is_the_identity():
    for dim in (1, 2, 5):
        rows = np.random.default_rng(dim).standard_normal((50, dim))
        rows[::7, 0] = 0.0
        rows[::11, 0] = -0.0
        space = SpaceContext.lp(dim, 2.0)
        assert space.duality_map_many(rows).tobytes() == rows.tobytes()
        assert all(space.duality_map(row).tobytes() == row.tobytes() for row in rows)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=2, max_size=2),
    st.none() | st.floats(1.0, 2.0, exclude_min=True),
)
def test_duality_identities_random(coords, p):
    space = SpaceContext.lp(2, 2.0 if p is None else p)
    assert space.check_duality_identities(np.array(coords))


# a coordinate: 0, or of magnitude in [1e-6, 1e3], so no power underflows
_COORD = st.just(0.0) | st.floats(1e-6, 1e3) | st.floats(-1e3, -1e-6)


@settings(max_examples=200, deadline=None)
@given(
    p=st.floats(1.0, 2.0, exclude_min=True),
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
    space = SpaceContext.lp(rows.shape[1], p)
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


def test_lp_monotonicity_sampling():
    # M = p - 1 (Ball, Carlen & Lieb 1994), with the sampler as the oracle.
    # These draws' minima lie 0.0042 and 0.0054 above M at p = 1.25 and 1.5,
    # and 4.4e-16 below it at p = 2: the allowance M - 1e-12 is needed
    for p in (1.25, 1.5, 2.0):
        for dim in (1, 2, 5):
            space = SpaceContext.lp(dim, p)
            assert space.M == p - 1.0
            report = space.validate_strong_monotonicity(2.0, 2000, np.random.default_rng(3))
            assert report.passed, (p, dim, report.min_ratio)
            # pairs with zero coordinates, where |x_i|^(p-2) x_i divides by 0
            x = np.random.default_rng(dim).uniform(-2.0, 2.0, size=(200, dim))
            y = x.copy()
            y[:, 0] += 0.5
            x[::2, 0] = 0.0
            y[1::2, -1] = 0.0
            y[::4] = 0.0
            d = x - y
            gap = np.einsum("ij,ij->i", space.duality_map_many(x) - space.duality_map_many(y), d)
            assert np.all(gap >= (space.M - 1e-12) * space.norms(d) ** 2), (p, dim)


def test_lp_monotonicity_rejects_overclaimed_constant():
    # p > 2 admits no M > 0: at x = (1, 0), y = (1, eps) the ratio is of
    # order eps^2 (Xu 1991).  A p = 4 space, which lp() refuses, would claim
    # M = 3, and the sampler rejects it
    space = SpaceContext(dim=2, p=4.0)
    report = space.validate_strong_monotonicity(2.0, 2000, np.random.default_rng(3))
    assert not report.passed
    x = np.array([1.0, 0.0])
    for eps in (1e-1, 1e-2, 1e-3):
        y = np.array([1.0, eps])
        gap = space.dual_pair(space.duality_map(x) - space.duality_map(y), x - y)
        assert 0.0 < gap / space.norm(x - y) ** 2 <= eps * eps


def test_p_outside_one_to_two_rejected():
    for p in (4.0, 2.0 + 1e-12, 1.0, 0.5, -2.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match=r"outside \(1, 2\]"):
            SpaceContext.lp(2, p)


def test_nonpositive_m_rejected():
    # p = 1 would give M = p - 1 = 0
    with pytest.raises(ValueError):
        SpaceContext.lp(2, 1.0)


def test_dimension_mismatch(hilbert2):
    with pytest.raises(DimensionMismatch):
        hilbert2.norm(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(DimensionMismatch):
        hilbert2.norms(np.ones((4, 3)))


@pytest.mark.parametrize("p", [1.25, 1.5, 2.0])
def test_max_norm_is_the_largest_vector_norm_bit_for_bit(p):
    # rows of one norm in permuted coordinates sum in different orders, so
    # the batched and vector paths pick their maxima from last-bit ties; a
    # plain max of norms() differs here in about one case in eight
    rng = np.random.default_rng(int(p * 4))
    plain = 0
    for dim in range(1, 15):
        space = SpaceContext.lp(dim, p)
        for exponent in range(-150, 151, 30):
            base = rng.normal(size=(8, dim)) * 10.0**exponent
            permuted = rng.permuted(np.repeat(base[:1], 8, axis=0), axis=1)
            rows = np.vstack([base, permuted, base * (1.0 + 1e-15)])
            want = max(space.norm(row) for row in rows)
            assert space.max_norm(rows) == want, (dim, exponent)
            plain += float(space.norms(rows).max()) != want
        # rows of 0, and rows whose every |x_i|^p underflows, have norm 0
        tiny = np.full((3, dim), 1e-170 if p == 2.0 else 1e-300)
        tiny[0] = 0.0
        tiny[1, 0] = -0.0
        assert space.max_norm(tiny) == max(space.norm(row) for row in tiny) == 0.0
    assert plain > 0  # the cases above do tell the two paths apart
