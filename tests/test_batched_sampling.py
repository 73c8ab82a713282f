"""The batched samplers against row-by-row references.

Each reference below is a sequential loop: same draws, same arithmetic,
one sample or one grid node at a time.  The batched code must take every
decision the reference takes: pass flags, samples checked, and the sampled
points of counterexamples and witnesses.  Reported minima, pairings and
distances may differ in rounding, by at most ROUNDING times the bound on
the sum of their terms.  First-order orbits, in closed form, are checked
node by node against scipy's expm and the exponential formula.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from cauchylab import (
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
    verify_accretive,
)
from cauchylab.errors import ContractError
from cauchylab.operators import ACCRETIVE_RADIUS
from cauchylab.rates import ConvergenceModulus, constant_modulus
from cauchylab.spaces import SAMPLE_CHUNK

# Both paths evaluate a pairing as a dot of at most 5 terms whose factors
# carry a few ulps each from the norms and the powers in J: under 32 ulps
# of the terms' sum per path, so under 64 between the two.  Measured on the
# monotonicity ratios over p in {1.25, 1.5, 2}: 2.9.
ROUNDING = 64 * np.finfo(float).eps

SPACES = [("hilbert", None)] + [("lp", p) for p in (1.25, 1.5, 2.0)]


def make_space(kind, p, dim):
    return SpaceContext.lp(dim, 2.0 if kind == "hilbert" else p)


# -- row-by-row references ---------------------------------------------------------


def monotonicity_reference(space, radius, samples, rng):
    """(ratio, rounding bound) of each pair at least 1e-9 apart."""
    rows = []
    for _ in range(samples):
        x = rng.uniform(-radius, radius, size=space.dim)
        y = rng.uniform(-radius, radius, size=space.dim)
        d = x - y
        nd = space.norm(d)
        if nd < 1e-9:
            continue
        gap = space.dual_pair(space.duality_map(x) - space.duality_map(y), d)
        # |Jx - Jy|_* <= |x| + |y|, so the ratio's terms sum to at most
        # (|x| + |y|) / |d|
        rows.append((gap / (nd * nd), ROUNDING * (space.norm(x) + space.norm(y)) / nd))
    return rows


def accretivity_reference(op, sample_count, region_radius, rng):
    """(pairing, rounding bound, x1, x2) of each sampled pair."""
    space = op.space
    rows = []
    for _ in range(sample_count):
        x1 = rng.uniform(-region_radius, region_radius, size=space.dim)
        x2 = rng.uniform(-region_radius, region_radius, size=space.dim)
        y1, y2 = op.select(x1), op.select(x2)
        pairing = space.dual_pair(space.duality_map(x1 - x2), y1 - y2)
        # |J(d)|_* = |d|, so the terms sum to at most |d| (|y1| + |y2|)
        bound = ROUNDING * space.norm(x1 - x2) * (space.norm(y1) + space.norm(y2))
        rows.append((pairing, bound, x1, x2))
    return rows


def assert_min_within(got, rows):
    """``got`` is the minimum of values each within its bound of the
    reference value of its row."""
    values = np.array([row[0] for row in rows])
    bounds = np.array([row[1] for row in rows])
    j = int(np.argmin(values))
    assert np.min(values - bounds) <= got <= values[j] + bounds[j]


def modulus_reference(op, modulus, k_max, cap_max, n_samples, rng, tol=1e-9, max_cex=10):
    space = op.space
    counterexamples = []
    checked = 0
    for start in range(0, n_samples, SAMPLE_CHUNK):
        # the library's draw order: a block's caps, then its points
        size = min(SAMPLE_CHUNK, n_samples - start)
        caps = rng.integers(1, cap_max + 1, size=size)
        xs = rng.uniform(-caps[:, None], caps[:, None], size=(size, space.dim))
        if op.linear_matrix is not None:
            # a linear operator's points are scaled into the region it can judge
            xs = xs / max(1.0, np.linalg.norm(op.linear_matrix, 2))
        for cap, x in zip(caps.tolist(), xs):
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
                return checked, counterexamples
    return checked, counterexamples


def assert_counterexamples_match(got, want):
    """Same points, k and cap; pairing and dist within rounding.  v = x - Px
    carries the rounding of |x|, and |J(v)|_* = |v|, so the pairing's terms
    sum to at most (|x| + |v|) |y|."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g["x"], g["y"], g["k"], g["cap"]) == (w["x"], w["y"], w["k"], w["cap"])
        nx, ny = np.linalg.norm(w["x"]), np.linalg.norm(w["y"])
        assert abs(g["pairing"] - w["pairing"]) <= ROUNDING * (nx + w["dist"]) * ny
        assert abs(g["dist"] - w["dist"]) <= ROUNDING * nx


def exp_formula_reference(op, t, x, n):
    """S(t)x by the exponential formula: n resolvent steps of size t/n
    (Crandall and Liggett, Amer. J. Math. 93, 1971)."""
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


class ScriptedRng:
    """Replays fixed (cap, x) draws in the order modulus_check makes them:
    a block's caps, then its points."""

    def __init__(self, draws):
        self._draws = list(draws)
        self._block = None

    def integers(self, low, high, size):
        self._block, self._draws = self._draws[:size], self._draws[size:]
        caps = np.array([cap for cap, _ in self._block])
        assert np.all((low <= caps) & (caps < high))
        return caps

    def uniform(self, low, high, size):
        return np.array([x for _, x in self._block], dtype=float).reshape(size)


# -- strong monotonicity ---------------------------------------------------------------


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("kind,p", SPACES)
def test_min_ratio_equals_reference(kind, p, dim):
    space = make_space(kind, p, dim)
    for seed in (0, 1, 15):
        report = space.validate_strong_monotonicity(1.5, 2000, np.random.default_rng(seed))
        rows = monotonicity_reference(space, 1.5, 2000, np.random.default_rng(seed))
        assert_min_within(report.min_ratio, rows)
        assert report.passed == (min(ratio for ratio, _ in rows) >= space.M - 1e-12)


def test_min_ratio_with_no_pair_compared_fails():
    # every pair lies closer than the 1e-9 cut, so nothing was compared
    space = SpaceContext.lp(2, 1.5)
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
    if space.p == 2.0:
        ops += [NormSubdifferential(space), StronglyAccretive(NormSubdifferential(space), 0.5)]
    if dim == 2:
        ops += [Rotation(space=space), StronglyAccretive(Rotation(space=space), 0.25)]
    return ops


@pytest.mark.parametrize("dim", [1, 2, 5])
@pytest.mark.parametrize("kind,p", SPACES)
def test_min_pairing_and_witness_equal_reference(kind, p, dim):
    space = make_space(kind, p, dim)
    for op in accretivity_operators(space):
        report = verify_accretive(op, 1500, np.random.default_rng(11))
        rows = accretivity_reference(op, 1500, ACCRETIVE_RADIUS, np.random.default_rng(11))
        assert_min_within(report.min_pairing, rows)
        pairings = [pairing for pairing, _, _, _ in rows]
        assert report.passed == (min(pairings) >= -1e-9)
        # the witness is a sampled pair; where it is not the reference's,
        # the two pairings tie within rounding (the rotation's zeros)
        w = next(
            i
            for i, (_, _, x1, x2) in enumerate(rows)
            if np.array_equal(x1, report.witness[0]) and np.array_equal(x2, report.witness[1])
        )
        j = int(np.argmin(pairings))
        assert w == j or pairings[w] - pairings[j] <= rows[w][1] + rows[j][1]


# -- modulus check ---------------------------------------------------------------------


def modulus_cases(space):
    cases = [
        (ScaledIdentity(1.0, space), modulus_strongly_accretive(1.0)),
        (ScaledIdentity(1.0, space), constant_modulus(0)),
        (ScaledIdentity(0.0, space), constant_modulus(0)),
        (LinearPSD(np.diag(np.arange(1.0, space.dim + 1.0)), space), constant_modulus(3)),
    ]
    if space.p == 2.0:
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
        assert_counterexamples_match(report.counterexamples, cex)
        assert report.passed == (checked > 0 and not cex)


def test_modulus_check_rotation_stops_at_tenth_counterexample(hilbert2):
    op = Rotation(space=hilbert2)
    report = modulus_check(op, constant_modulus(0), n_samples=5000, rng=np.random.default_rng(2))
    rng = np.random.default_rng(2)
    checked, cex = modulus_reference(op, constant_modulus(0), 5, 10, 5000, rng)
    assert len(report.counterexamples) == 10
    assert report.samples_checked == checked < 5000
    assert_counterexamples_match(report.counterexamples, cex)


def test_modulus_check_cap_and_threshold_edges():
    # rows exactly on a cap, a hair past it, and exactly on a threshold:
    # each is decided the way the row-by-row loop decides it
    space = SpaceContext.lp(1, 2.0)
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


def test_modulus_check_with_no_sample_inside_the_caps_fails():
    # |Ax| = 1 + 1000 |x| exceeds every cap up to 10 unless |x| <= 0.009,
    # which no sample of the default caps reaches in dimension 6; the
    # operator is nonlinear, so its points are not scaled by 1 / |A|
    op = StronglyAccretive(NormSubdifferential(SpaceContext.lp(6, 2.0)), 1000.0)
    report = modulus_check(op, constant_modulus(0), n_samples=2000, rng=np.random.default_rng(0))
    assert report.samples_checked == 0
    assert report.counterexamples == []
    assert not report.passed
    # and a check that may stop at no counterexample is refused
    with pytest.raises(ContractError, match="max_counterexamples"):
        modulus_check(op, constant_modulus(0), n_samples=10, max_counterexamples=0)


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
            assert got.samples_checked == want[0]
            assert_counterexamples_match(got.counterexamples, want[1])


@pytest.mark.parametrize("before,after,raises", [(9, 1, True), (10, 0, False), (5, 0, True)])
def test_modulus_check_raises_only_up_to_the_stopping_row(before, after, raises):
    # counterexamples at cap 1 around one row that needs the failing entry
    # (0, 5), in one block: it raises before the tenth counterexample and
    # as the block's last row, not after the tenth
    op = ScaledIdentity(1.0, SpaceContext.lp(1, 2.0))
    bad = ConvergenceModulus(fn=lambda k, cap: -1 if (k, cap) == (0, 5) else 0)
    draws = [(1, [1.0])] * before + [(5, [0.5])] + [(1, [1.0])] * after
    if raises:
        with pytest.raises(ContractError, match="non-natural -1"):
            modulus_check(op, bad, n_samples=len(draws), rng=ScriptedRng(draws))
        with pytest.raises(ContractError, match="non-natural -1"):
            modulus_reference(op, bad, 5, 10, len(draws), ScriptedRng(draws))
    else:
        report = modulus_check(op, bad, n_samples=len(draws), rng=ScriptedRng(draws))
        checked, cex = modulus_reference(op, bad, 5, 10, len(draws), ScriptedRng(draws))
        assert (report.samples_checked, report.counterexamples) == (checked, cex)
        assert checked == 10 and len(cex) == 10


# -- first-order orbits ------------------------------------------------------------------


@pytest.mark.parametrize(
    "name",
    ["rotation", "psd", "norm_subdifferential", "strongly_accretive_subdifferential"],
)
def test_first_order_equals_reference(name, hilbert2):
    op, x, grid = {
        "rotation": (Rotation(space=hilbert2), np.array([1.0, 0.0]), TimeGrid(20.0, 0.05)),
        "psd": (
            LinearPSD(np.array([[2.0, 1.0], [1.0, 3.0]]), hilbert2),
            np.array([1.0, -0.5]),
            TimeGrid(10.0, 0.05),
        ),
        "norm_subdifferential": (
            NormSubdifferential(hilbert2),
            np.array([1.5, -0.5]),
            TimeGrid(3.0, 0.25),
        ),
        "strongly_accretive_subdifferential": (
            StronglyAccretive(NormSubdifferential(hilbert2), 0.5),
            np.array([1.0, 1.0]),
            TimeGrid(3.0, 0.25),
        ),
    }[name]
    values = first_order_trajectory(op, x, grid).values

    def reference(n):
        return np.array([exp_formula_reference(op, float(t), x, n) for t in grid.nodes])

    b = op.linear_matrix
    if b is not None:
        want = np.array([scipy.linalg.expm(-t * b) @ x for t in grid.nodes])
        assert np.max(np.linalg.norm(values - want, axis=1)) <= 1e-12 * np.linalg.norm(x)
        return
    if name == "norm_subdifferential":
        # each soft-threshold step takes t/n off the radius: rho0 - t, to rounding
        assert np.max(np.linalg.norm(values - reference(1024), axis=1)) <= 1e-12
    else:
        # each step also divides by 1 + ct/n: the formula is off by O(1/n)
        errors = [np.max(np.linalg.norm(values - reference(n), axis=1)) for n in (256, 512)]
        assert errors[1] <= 1e-3 and 1.9 <= errors[0] / errors[1] <= 2.1
    # both are exactly 0 once t reaches |x|, past the extinction time
    gone = grid.nodes >= np.linalg.norm(x)
    assert gone.any() and np.all(values[gone] == 0.0) and np.all(reference(64)[gone] == 0.0)


# -- memory -------------------------------------------------------------------------------


def test_validators_memory_bounded_at_a_million_samples():
    # all pairs at once would hold 10^6 x 2 x 5 floats (76 MiB) per array
    space = SpaceContext.lp(5, 1.5)
    op = LinearPSD(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]), space)
    tracemalloc.start()
    try:
        mono = space.validate_strong_monotonicity(2.0, 10**6, np.random.default_rng(0))
        acc = verify_accretive(op, 10**6, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert mono.passed and acc.passed
    assert peak < 8 * 2**20
