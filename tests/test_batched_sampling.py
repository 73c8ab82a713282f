"""The batched samplers against the row-by-row loops they replace.

Each reference below is the sequential loop the library ran before its
samplers were batched: same draws, same arithmetic, one sample or one
grid node at a time.  The batched code must reproduce its results
exactly, including the rows that only rounding decides.
"""

import tracemalloc

import numpy as np
import pytest

from cauchylab import (
    ExpFormulaConfig,
    LinearMatrix,
    LinearPSD,
    NormSubdifferential,
    Rotation,
    ScaledIdentity,
    SpaceContext,
    StronglyAccretive,
    TimeGrid,
    first_order_trajectory,
    modulus_check,
    modulus_strongly_accretive,
    semigroup_point,
    verify_accretive,
)
from cauchylab.errors import ContractError
from cauchylab.rates import ConvergenceModulus, constant_modulus

SPACES = [("hilbert", None)] + [("lp", p) for p in (2.0, 3.0, 4.0)]


def make_space(kind, p, dim):
    if kind == "hilbert":
        return SpaceContext.hilbert(dim)
    return SpaceContext.lp(dim, p, 0.01)


# -- row-by-row references ---------------------------------------------------------


def monotonicity_reference(space, radius, samples, rng):
    min_ratio = np.inf
    for _ in range(samples):
        x = rng.uniform(-radius, radius, size=space.dim)
        y = rng.uniform(-radius, radius, size=space.dim)
        d = x - y
        nd = space.norm(d)
        if nd < 1e-9:
            continue
        gap = space.dual_pair(space.duality_map(x) - space.duality_map(y), d)
        min_ratio = min(min_ratio, gap / (nd * nd))
    return min_ratio


def accretivity_reference(op, sample_count, region_radius, rng):
    space = op.space
    min_pairing = np.inf
    witness = None
    for _ in range(sample_count):
        x1 = rng.uniform(-region_radius, region_radius, size=space.dim)
        x2 = rng.uniform(-region_radius, region_radius, size=space.dim)
        y1, y2 = op.select(x1), op.select(x2)
        pairing = space.dual_pair(space.duality_map(x1 - x2), y1 - y2)
        if pairing < min_pairing:
            min_pairing = pairing
            witness = (x1, x2)
    return min_pairing, witness


def modulus_reference(op, modulus, k_max, cap_max, n_samples, rng, tol=1e-9, max_cex=10):
    space = op.space
    counterexamples = []
    checked = 0
    for _ in range(n_samples):
        cap = int(rng.integers(1, cap_max + 1))
        x = rng.uniform(-cap, cap, size=space.dim)
        y = op.select(x)
        if space.norm(x) > cap or space.norm(y) > cap:
            continue
        checked += 1
        px = op.project_zeros(x)
        pairing = space.dual_pair(space.duality_map(x - px), y)
        dist = space.norm(x - px)
        for k in range(k_max + 1):
            if pairing <= 1.0 / (modulus(k, cap) + 1.0) and dist > 1.0 / (k + 1.0) + tol:
                counterexamples.append(
                    {
                        "x": x.tolist(),
                        "y": y.tolist(),
                        "k": k,
                        "cap": cap,
                        "pairing": float(pairing),
                        "dist": float(dist),
                    }
                )
                break
        if len(counterexamples) >= max_cex:
            break
    return checked, counterexamples


def exp_formula_reference(op, t, x, n):
    if t == 0.0:
        return x.copy()
    gamma = t / n
    b = op.linear_matrix
    if b is not None:
        single = np.linalg.inv(np.eye(op.space.dim) + gamma * b)
        return np.linalg.matrix_power(single, n) @ x
    z = x.copy()
    for _ in range(n):
        z = op.resolvent(gamma, z)
    return z


def semigroup_point_reference(op, t, x, cfg):
    if t == 0.0:
        return x.copy(), cfg.n_min, True
    n = cfg.n_min
    prev = exp_formula_reference(op, t, x, n)
    while 2 * n <= cfg.n_max:
        n *= 2
        cur = exp_formula_reference(op, t, x, n)
        if float(op.space.norm(cur - prev)) <= cfg.tol:
            return cur, n, True
        prev = cur
    return prev, n, False


class ScriptedRng:
    """Replays fixed (cap, x) draws in the order modulus_check makes them."""

    def __init__(self, draws):
        self._draws = iter(draws)
        self._x = None

    def integers(self, low, high):
        cap, self._x = next(self._draws)
        assert low <= cap < high
        return cap

    def uniform(self, low, high, size):
        return np.array(self._x, dtype=float).reshape(size)


# -- strong monotonicity ---------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("kind,p", SPACES)
def test_min_ratio_equals_reference(kind, p, dim):
    space = make_space(kind, p, dim)
    # at seed 15 some minimum rows are not batched minima: only their
    # rounding margin makes them candidates
    for seed in (0, 1, 15):
        report = space.validate_strong_monotonicity(1.5, 2000, np.random.default_rng(seed))
        expected = monotonicity_reference(space, 1.5, 2000, np.random.default_rng(seed))
        assert report.min_ratio == expected


def test_min_ratio_with_no_pair_compared_fails():
    # every pair lies closer than the 1e-9 cut, so nothing was compared
    space = SpaceContext.lp(2, 4.0, 0.01)
    report = space.validate_strong_monotonicity(1e-12, 100, np.random.default_rng(0))
    assert report.min_ratio == np.inf
    assert not report.passed


# -- accretivity -----------------------------------------------------------------------


def accretivity_operators(space):
    dim = space.dim
    ops = [
        ScaledIdentity(1.5, space),
        ScaledIdentity(0.0, space),
        LinearPSD(np.diag(np.arange(1.0, dim + 1.0)), space),
        LinearMatrix(np.diag([-1.0] + [1.0] * (dim - 1)), space),
    ]
    if space.kind == "hilbert":
        ops += [NormSubdifferential(space), StronglyAccretive(NormSubdifferential(space), 0.5)]
    if dim == 2:
        ops += [Rotation(space=space), StronglyAccretive(Rotation(space=space), 0.25)]
    return ops


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("kind,p", SPACES)
def test_min_pairing_and_witness_equal_reference(kind, p, dim):
    space = make_space(kind, p, dim)
    for op in accretivity_operators(space):
        report = verify_accretive(op, 1500, 2.0, np.random.default_rng(11))
        pairing, witness = accretivity_reference(op, 1500, 2.0, np.random.default_rng(11))
        assert report.min_pairing == pairing
        assert np.signbit(report.min_pairing) == np.signbit(pairing)
        assert np.array_equal(report.witness[0], witness[0])
        assert np.array_equal(report.witness[1], witness[1])


# -- modulus check ---------------------------------------------------------------------


def modulus_cases(space):
    cases = [
        (ScaledIdentity(1.0, space), modulus_strongly_accretive(1.0)),
        (ScaledIdentity(1.0, space), constant_modulus(0)),
        (ScaledIdentity(0.0, space), constant_modulus(0)),
        (LinearPSD(np.diag(np.arange(1.0, space.dim + 1.0)), space), constant_modulus(3)),
    ]
    if space.kind == "hilbert":
        cases.append((NormSubdifferential(space), constant_modulus(0)))
    if space.dim == 2:
        # nearly every sample is a counterexample: the check stops early
        cases.append((Rotation(space=space), constant_modulus(0)))
    return cases


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("kind,p", SPACES)
def test_modulus_check_equals_reference(kind, p, dim):
    space = make_space(kind, p, dim)
    for op, modulus in modulus_cases(space):
        report = modulus_check(op, modulus, n_samples=2500, rng=np.random.default_rng(5))
        checked, cex = modulus_reference(op, modulus, 5, 10, 2500, np.random.default_rng(5))
        assert report.samples_checked == checked
        assert report.counterexamples == cex
        assert report.passed == (not cex)


def test_modulus_check_rotation_stops_at_tenth_counterexample(hilbert2):
    op = Rotation(space=hilbert2)
    report = modulus_check(op, constant_modulus(0), n_samples=5000, rng=np.random.default_rng(2))
    rng = np.random.default_rng(2)
    checked, cex = modulus_reference(op, constant_modulus(0), 5, 10, 5000, rng)
    assert len(report.counterexamples) == 10
    assert report.samples_checked == checked < 5000
    assert report.counterexamples == cex


def test_modulus_check_cap_and_threshold_edges():
    # rows exactly on a cap, a hair past it, and exactly on a threshold:
    # each is decided the way the row-by-row loop decides it
    space = SpaceContext.hilbert(1)
    op = ScaledIdentity(1.0, space)
    draws = [
        (3, [3.0]),  # |x| = |y| = cap: checked
        (3, [np.nextafter(3.0, 4.0)]),  # just past the cap: skipped
        (1, [1.0]),  # pairing = 1 = threshold, dist = 1: counterexample at k = 1
        (2, [-0.5]),  # dist 0.5 = 1/(k+1) at k = 1: counterexample at k = 2
        (1, [-1.0]),
    ] * 3
    modulus = constant_modulus(0)
    report = modulus_check(op, modulus, n_samples=len(draws), rng=ScriptedRng(draws))
    checked, cex = modulus_reference(op, modulus, 5, 10, len(draws), ScriptedRng(draws))
    assert (report.samples_checked, report.counterexamples) == (checked, cex)
    assert checked == 12 and [c["k"] for c in cex] == [1, 2, 1] * 3


def test_modulus_check_raises_where_the_reference_raises(hilbert2):
    # the modulus fails at (k, cap) = (3, 7) only: the check raises iff the
    # row-by-row loop reaches that entry before its tenth counterexample
    bad = ConvergenceModulus(fn=lambda k, cap: -1 if (k, cap) == (3, 7) else 0)

    def outcome(check):
        try:
            return check()
        except ContractError as exc:
            return str(exc)

    cases = ((ScaledIdentity(1.0, hilbert2), True), (Rotation(space=hilbert2), False))
    for op, expect_error in cases:
        got = outcome(
            lambda: modulus_check(op, bad, n_samples=3000, rng=np.random.default_rng(4))
        )
        want = outcome(lambda: modulus_reference(op, bad, 5, 10, 3000, np.random.default_rng(4)))
        if expect_error:
            assert got == want == "modulus returned non-natural -1"
        else:
            assert (got.samples_checked, got.counterexamples) == want


# -- first-order orbits ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["rotation", "psd", "norm_subdifferential", "strongly_accretive_subdifferential"],
)
def test_first_order_equals_reference(name, hilbert2):
    op, x, grid, cfg = {
        "rotation": (
            Rotation(space=hilbert2),
            np.array([1.0, 0.0]),
            TimeGrid(20.0, 0.05),
            ExpFormulaConfig(n_max=2**12),
        ),
        "psd": (
            LinearPSD(np.array([[2.0, 1.0], [1.0, 3.0]]), hilbert2),
            np.array([1.0, -0.5]),
            TimeGrid(10.0, 0.05),
            ExpFormulaConfig(n_max=2**16),
        ),
        "norm_subdifferential": (
            NormSubdifferential(hilbert2),
            np.array([1.5, -0.5]),
            TimeGrid(3.0, 0.25),
            ExpFormulaConfig(n_max=2**10, tol=1e-10),
        ),
        "strongly_accretive_subdifferential": (
            StronglyAccretive(NormSubdifferential(hilbert2), 0.5),
            np.array([1.0, 1.0]),
            TimeGrid(3.0, 0.25),
            ExpFormulaConfig(n_max=2**10),
        ),
    }[name]
    traj = first_order_trajectory(op, x, grid, cfg)
    rows = [semigroup_point_reference(op, float(t), x, cfg) for t in grid.nodes]
    assert np.array_equal(traj.values, np.array([value for value, _, _ in rows]))
    assert traj.meta["exp_formula_converged"] == all(conv for _, _, conv in rows)
    for t, (value, n_used, conv) in list(zip(grid.nodes, rows))[::4]:
        point, meta = semigroup_point(op, float(t), x, cfg)
        assert np.array_equal(point, value)
        assert (meta.n_used, meta.converged) == (n_used, conv)


def test_first_order_rotation_mixes_converged_and_not(hilbert2):
    # early nodes converge, late ones exhaust n_max: the mask keeps each
    op = Rotation(space=hilbert2)
    x = np.array([1.0, 0.0])
    cfg = ExpFormulaConfig(n_max=2**12, tol=1e-6)
    flags = [semigroup_point(op, t, x, cfg)[1].converged for t in (0.0, 0.05, 20.0)]
    assert flags == [True, True, False]


# -- memory -------------------------------------------------------------------------------


def test_validators_memory_bounded_at_a_million_samples():
    # all pairs at once would hold 10^6 x 2 x 5 floats (76 MiB) per array
    space = SpaceContext.lp(5, 4.0, 0.01)
    op = LinearPSD(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), space)
    tracemalloc.start()
    try:
        mono = space.validate_strong_monotonicity(2.0, 10**6, np.random.default_rng(0))
        acc = verify_accretive(op, 10**6, 2.0, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mono.passed and acc.passed
    assert peak < 8 * 2**20
