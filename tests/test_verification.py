import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cauchylab import (
    LinearPSD,
    NormSubdifferential,
    Rotation,
    ScaledIdentity,
    SpaceContext,
    SolverConfig,
    SqrtSemigroup,
    StronglyAccretive,
    TimeGrid,
    fejer_report,
    first_order_trajectory,
    integral_liminf_search,
    make_almost_orbit,
    modulus_check,
    sweep_theorem,
)
from cauchylab.counterfunctions import (
    Counterfunction,
    MetastabilityRate,
    parse_counterfunction,
)
from cauchylab.errors import ContractError, OrbitConstructionError
from cauchylab.rates import (
    cauchy_metastability_rate,
    constant_modulus,
    modulus_strongly_accretive,
)
from cauchylab.semigroup import ExpFormulaConfig
from cauchylab.verification import (
    SUFFIX_CHUNK,
    AlmostOrbit,
    RateReport,
    SampleSet,
    ScenarioBundle,
    _suffix_pair_sup,
)

MOD1 = modulus_strongly_accretive(1.0)


# -- liminf search ------------------------------------------------------------


def test_liminf_search_exponential():
    times = np.arange(0.0, 25.0 + 1e-12, 0.001)
    samples = np.exp(-times)
    t = integral_liminf_search(times, samples, 1.0, 9, 0)
    # first grid time with e^{-t} <= 0.1
    assert t == pytest.approx(math.log(10.0), abs=2e-3)
    assert t <= (1.0 + 1.0) * 10.0


def test_liminf_search_zero_function():
    times = np.arange(0.0, 30.0, 0.01)
    for n in [0, 3, 5]:
        assert integral_liminf_search(times, np.zeros_like(times), 1.0, 4, n) == pytest.approx(
            times[np.searchsorted(times, n)]
        )


def test_liminf_search_step_function():
    times = np.arange(0.0, 10.0 + 1e-12, 0.01)
    samples = np.where(times <= 1.0, 1.0, 0.0)
    assert integral_liminf_search(times, samples, 1.0, 0, 2) == pytest.approx(2.0)


def test_liminf_search_precondition_violation():
    times = np.arange(0.0, 30.0, 0.01)
    samples = np.ones_like(times)  # integral 30 > 1
    with pytest.raises(ContractError):
        integral_liminf_search(times, samples, 1.0, 0, 0)


def test_liminf_search_window_beyond_samples():
    times = np.arange(0.0, 5.0, 0.01)
    samples = np.zeros_like(times)
    with pytest.raises(ContractError):
        integral_liminf_search(times, samples, 1.0, 9, 0)  # window end 20 > 5


# -- modulus validity ------------------------------------------------------------


def test_modulus_check_identity_quadratic(hilbert2):
    op = ScaledIdentity(1.0, hilbert2)
    report = modulus_check(op, MOD1, k_max=5, cap_max=10, n_samples=2000)
    assert report.passed
    assert report.samples_checked > 500


def test_modulus_check_rotation_counterexamples(hilbert2):
    op = Rotation(space=hilbert2)
    report = modulus_check(op, constant_modulus(0), k_max=5, cap_max=5, n_samples=2000)
    assert not report.passed
    ce = report.counterexamples[0]
    assert abs(ce["pairing"]) <= 1e-9  # skew pairing vanishes identically
    assert ce["dist"] > 1.0 / (ce["k"] + 1.0)


def test_modulus_check_linear_points_are_scaled_into_the_cap():
    # A = B + I with B PSD and ||A|| = 3 in dim 5: uniform points in
    # [-cap, cap]^5 seldom have ||Ax|| <= cap; unscaled, this check judged
    # 13 of its 2,000 samples
    rng = np.random.default_rng(11)
    q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
    psd = q @ np.diag([0.0, 0.5, 1.0, 1.5, 2.0]) @ q.T
    op = StronglyAccretive(LinearPSD(psd), 1.0)
    assert abs(np.linalg.norm(op.linear_matrix, 2) - 3.0) <= 1e-12
    report = modulus_check(op, modulus_strongly_accretive(1.0), rng=np.random.default_rng(7001))
    assert report.passed
    assert report.samples_checked >= 1000


def test_modulus_check_zero_operator_vacuous(hilbert2):
    op = ScaledIdentity(0.0, hilbert2)
    report = modulus_check(op, constant_modulus(0), n_samples=500)
    assert report.passed


# -- almost-orbits ----------------------------------------------------------------


@pytest.fixture(scope="module")
def identity_sg(hilbert2):
    op = ScaledIdentity(1.0, hilbert2)
    return SqrtSemigroup(op, np.array([1.0, 0.0]), SolverConfig(TimeGrid(40.0, 0.01)))


def test_exact_orbit(identity_sg):
    orbit = make_almost_orbit(identity_sg, "exact")
    assert orbit.phi_roc(5) == 0
    assert orbit.phi_meta.f_independent
    assert orbit.certificate["worst_defect"] <= 1e-4


def test_additive_decay_orbit(identity_sg):
    v = np.array([0.0, 1.0])
    orbit = make_almost_orbit(identity_sg, "additive_decay", v=v, lam=1.0)
    # rate ceil(ln(2 |v| (k+1)) / lam)
    assert orbit.phi_roc(0) == 1
    assert orbit.phi_roc(3) == math.ceil(math.log(8.0))
    by_hand = identity_sg.at(2.0) + math.exp(-2.0) * v
    assert np.allclose(orbit.evaluate(2.0), by_hand)
    # sampled defect at s = 1 stays under the triangle-inequality cap
    for record in orbit.certificate["samples"]:
        assert record["defect"] <= 2.0 * math.exp(-record["s"]) + 1e-3


def test_additive_decay_zero_direction_reduces_to_exact(identity_sg):
    orbit = make_almost_orbit(identity_sg, "additive_decay", v=np.zeros(2), lam=1.0)
    assert orbit.phi_roc(9) == 0


def test_time_warp_orbit(identity_sg):
    orbit = make_almost_orbit(identity_sg, "time_warp", delta=0.5)
    assert np.allclose(orbit.evaluate(0.0), identity_sg.at(0.5 * math.exp(0.0)))
    assert orbit.certificate["worst_defect"] <= 1.0


def test_time_warp_delta_must_fit_margin(identity_sg):
    with pytest.raises(ValueError):
        make_almost_orbit(identity_sg, "time_warp", delta=2.0)


def _interpolate_pointwise(sg, t):
    # the one-time-at-a-time interpolation the batched orbit curves replace
    t = min(t, sg.solver.grid.horizon)
    pos = t / sg.solver.grid.step
    i = min(int(pos), sg.solver.grid.n_steps - 1)
    frac = pos - i
    return (1.0 - frac) * sg.trajectory.values[i] + frac * sg.trajectory.values[i + 1]


def test_orbit_values_match_pointwise_formulas(identity_sg):
    v = np.array([0.3, -1.0])
    lam, delta = 0.7, 0.5
    pointwise = {
        "exact": lambda t: _interpolate_pointwise(identity_sg, t),
        "additive_decay": lambda t: _interpolate_pointwise(identity_sg, t)
        + math.exp(-lam * t) * v,
        "time_warp": lambda t: _interpolate_pointwise(identity_sg, t + delta * math.exp(-t)),
    }
    horizon = identity_sg.trusted_horizon - delta
    rng = np.random.default_rng(3)
    times = np.concatenate([[0.0, 0.01, 1.0, horizon], rng.uniform(0.0, horizon, 500)])
    for kind, by_hand in pointwise.items():
        orbit = make_almost_orbit(identity_sg, kind, v=v, lam=lam, delta=delta, certify=False)
        assert np.array_equal(orbit.values(times), np.stack([by_hand(float(t)) for t in times]))
        assert np.array_equal(orbit.evaluate(horizon), by_hand(horizon))


@pytest.mark.parametrize(
    "name", ["subdiff_inside_ball", "subdiff", "identity", "psd", "strong_subdiff", "lp_identity"]
)
def test_sample_set_graph_bound_matches_row_by_row(name, hilbert2, lp4):
    ops = {
        "subdiff_inside_ball": (NormSubdifferential(hilbert2), 0.7),
        "subdiff": (NormSubdifferential(hilbert2), 3.0),
        "identity": (ScaledIdentity(1.0, hilbert2), 3.0),
        "psd": (LinearPSD(np.array([[2.0, 1.0], [1.0, 1.0]]), hilbert2), 2.0),
        "strong_subdiff": (StronglyAccretive(NormSubdifferential(hilbert2), 0.5), 2.0),
        "lp_identity": (ScaledIdentity(1.0, lp4), 3.0),
    }
    op, radius = ops[name]
    rng = np.random.default_rng(11)
    # random rows, plus rows whose norms are integers, where rounding decides the ceiling
    groups = {
        "random": rng.uniform(-radius, radius, (3000, 2)),
        "integer": np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 4.0], [0.6, 0.8], [0.0, 0.0]]),
        "small": rng.standard_normal((300, 2)) * 1e-3,
        # a decayed tail: exact zeros, levels near 0 and 1/2, and rows whose
        # squares underflow to 0
        "tail": np.concatenate(
            [
                np.zeros((40, 2)),
                rng.standard_normal((40, 2)) * 1e-12,
                [[0.5, 0.0], [0.0, np.nextafter(0.5, 0.0)], [5e-324, 0.0]],
                rng.standard_normal((40, 2)) * 1e-170,
            ]
        ),
        # an orbit at rest on a point of integer norm
        "constant": np.tile([[0.6, 0.8]], (50, 1)),
    }
    rows = np.concatenate(list(groups.values()))
    bounds = [op.graph_bound(row) for row in rows]
    assert SampleSet(op, np.arange(len(rows), dtype=float), rows).graph_bound == max(bounds)
    for label, group in groups.items():
        expected = max(op.graph_bound(row) for row in group)
        assert SampleSet(op, np.arange(len(group), dtype=float), group).graph_bound == expected, label
    for row, bound in zip(rows, bounds):
        assert SampleSet(op, np.zeros(1), row[None]).graph_bound == bound


def test_norm_subdifferential_graph_bound_inside_unit_ball(hilbert2):
    # ||x/||x|| || rounds above 1.0 for some rows, which once made the
    # graph bound read 2 for an orbit inside the unit ball; d(0, Ax) is
    # exactly 1 off the origin and 0 at it, in both paths
    op = NormSubdifferential(hilbert2)
    rows = np.random.default_rng(5).uniform(-0.6, 0.6, (5000, 2))
    rows[:7] = 0.0
    assert np.max(np.linalg.norm(op.select_many(rows), axis=1)) > 1.0
    expected = (np.linalg.norm(rows, axis=1) > 0.0).astype(float)
    assert np.array_equal(op.dist_zero_many(rows), expected)
    assert np.array_equal([op.dist_zero(row) for row in rows], expected)
    assert max(op.graph_bound(row) for row in rows) == 1
    assert SampleSet(op, np.arange(len(rows), dtype=float), rows).graph_bound == 1


def test_sample_set_residual_is_judged_at_the_step_tolerance(hilbert2):
    # the zero set of the identity is {0}, so the residual is the norm; a
    # rise of 5e-6 exceeds STEP_MONOTONE_TOL, the rule fejer_report applies
    op = ScaledIdentity(1.0, hilbert2)
    times = np.arange(4, dtype=float)
    for norms, expected in (([1.0, 0.5, 0.4, 0.2], 3.0), ([1.0, 0.5, 0.500005, 0.2], None)):
        values = np.column_stack([norms, np.zeros(4)])
        assert SampleSet(op, times, values).residual_threshold(0.3) == expected


def test_unknown_orbit_kind(identity_sg):
    with pytest.raises(ValueError):
        make_almost_orbit(identity_sg, "wobble")


def test_orbit_certification_failure(identity_sg):
    # claim exactness for a drifting curve: certification must reject it.
    # the perturbation decays slower than the semigroup, so the defect at
    # s = 0 stays around 0.75 while precision 1/4 is claimed.
    v = np.array([0.0, 3.0])
    orbit = make_almost_orbit(identity_sg, "additive_decay", v=v, lam=1.0, certify=False)
    fake = orbit.__class__(
        kind="exact",
        description="fake",
        curve=lambda ts: identity_sg.at_many(ts) + np.exp(-0.5 * ts)[:, None] * v,
        phi_roc=Counterfunction.constant(0),
        phi_meta=orbit.phi_meta,
        trusted_horizon=orbit.trusted_horizon,
        base=identity_sg,
    )
    from cauchylab.verification import _certify_orbit

    with pytest.raises(OrbitConstructionError):
        _certify_orbit(fake, (3,), 5e-4)


# -- sweeps -----------------------------------------------------------------------


@pytest.fixture(scope="module")
def identity_bundle(hilbert2):
    op = ScaledIdentity(1.0, hilbert2)
    x = np.array([1.0, 0.0])
    sg = SqrtSemigroup(op, x, SolverConfig(TimeGrid(100.0, 0.01)))
    orbits = [
        make_almost_orbit(sg, "exact"),
        make_almost_orbit(sg, "additive_decay", v=np.array([0.0, 1.0]), lam=1.0),
    ]
    return ScenarioBundle(
        scenario_id="identity",
        op=op,
        x=x,
        modulus=MOD1,
        trajectory=sg.trajectory,
        solver=sg.solver,
        orbits=orbits,
    )


def test_sweep_interior_identity(identity_bundle):
    reports = sweep_theorem(identity_bundle, "4.1", range(2))
    assert reports[0].bound == 80
    assert not reports[0].extrapolated  # 80 <= trusted horizon 99
    assert all(r.passed for r in reports)
    assert all(r.bound > r.observed for r in reports)
    assert reports[1].extrapolated  # 1280 beyond the horizon


def test_sweep_closure_identity(identity_bundle):
    reports = sweep_theorem(identity_bundle, "4.2", range(2))
    assert all(r.passed for r in reports)
    interior = sweep_theorem(identity_bundle, "4.1", range(2))
    for closure_r, interior_r in zip(reports, interior):
        assert closure_r.bound >= interior_r.bound


def test_sweep_metastable_exact_trivial_window(identity_bundle):
    f0 = parse_counterfunction("0")
    reports = sweep_theorem(identity_bundle, "5.1", range(2), counterfunctions=[f0])
    for r in reports:
        assert r.passed
        if r.scenario.endswith("exact"):
            assert r.observed == 0.0  # single-point window at n = 0


def test_sweep_metastable_windows(identity_bundle):
    fs = [parse_counterfunction(t) for t in ["5", "n", "2*n+3"]]
    reports = sweep_theorem(identity_bundle, "5.1", range(4), counterfunctions=fs)
    assert len(reports) == 2 * 4 * 3
    assert all(r.passed and not r.extrapolated for r in reports)
    assert all(r.observed <= r.bound for r in reports)


def test_sweep_roc_additive(identity_bundle):
    reports = sweep_theorem(
        identity_bundle, "5.3", range(3), orbits=[identity_bundle.orbits[1]]
    )
    assert all(r.passed for r in reports)
    assert all(r.bound > r.observed for r in reports)


def test_sweep_unknown_theorem(identity_bundle):
    with pytest.raises(ContractError):
        sweep_theorem(identity_bundle, "9.9", range(2))


def test_sweep_soundness_at_doubled_sampling(hilbert2, identity_bundle):
    dense = ScenarioBundle(
        scenario_id="identity",
        op=identity_bundle.op,
        x=identity_bundle.x,
        modulus=identity_bundle.modulus,
        trajectory=identity_bundle.trajectory,
        solver=replace(identity_bundle.solver, sample_points=1000),
        orbits=identity_bundle.orbits,
    )
    for theorem in ["4.1", "4.2"]:
        sparse_reports = sweep_theorem(identity_bundle, theorem, range(2))
        dense_reports = sweep_theorem(dense, theorem, range(2))
        for a, b in zip(sparse_reports, dense_reports):
            assert a.passed == b.passed


def test_first_order_rotation_bundle_fails_cauchy(hilbert2):
    op = Rotation(space=hilbert2)
    x = np.array([1.0, 0.0])
    traj = first_order_trajectory(op, x, TimeGrid(40.0, 0.05), ExpFormulaConfig(n_max=2**14))
    bundle = ScenarioBundle(
        scenario_id="rotation",
        op=op,
        x=x,
        modulus=constant_modulus(0),
        trajectory=traj,
        solver=SolverConfig(TimeGrid(40.0, 0.05)),
    )
    reports = sweep_theorem(bundle, "4.1", range(4))
    assert all(r.bound == 5 for r in reports)  # (D+1) with D = 4
    assert all(not r.passed and not r.extrapolated for r in reports)


def test_metastable_report_without_witness_inside_the_samples_fails(hilbert2):
    # a unit circle never settles: every window [n, n + 5] has diameter 2.
    # With bound 11 every window up to the bound lies inside the samples,
    # so the samples decide and the report fails; windows of n + 200 leave
    # the horizon, so only the residual can speak, and it stays at 1
    op = Rotation(space=hilbert2)
    x = np.array([1.0, 0.0])
    sg = SqrtSemigroup(op, x, SolverConfig(TimeGrid(100.0, 0.01)))
    circle = AlmostOrbit(
        kind="circle",
        description="unit circle",
        curve=lambda ts: np.column_stack([np.cos(ts), np.sin(ts)]),
        phi_roc=Counterfunction.constant(0),
        phi_meta=MetastabilityRate.zero(),
        trusted_horizon=sg.trusted_horizon,
        base=sg,
    )
    bundle = ScenarioBundle(
        scenario_id="circle",
        op=op,
        x=x,
        modulus=constant_modulus(0),
        trajectory=sg.trajectory,
        solver=sg.solver,
        orbits=[circle],
    )
    fs = [parse_counterfunction("5"), parse_counterfunction("n+200")]
    inside, outside = sweep_theorem(bundle, "5.1", [0], counterfunctions=fs)
    assert sg.trusted_horizon == 99.0 and inside.bound == 11
    assert not inside.passed and not inside.extrapolated
    assert inside.observed == math.inf
    assert not outside.passed and outside.extrapolated


def test_orbit_rate_data_bounds(identity_bundle):
    additive = identity_bundle.orbits[1]
    data = identity_bundle.orbit_rate_data(additive)
    assert data.orbit_bound == 2  # sup ||u - 0|| = sqrt(2) ceiled
    # one uniform graph bound: the worst over the orbit, here at u(0)
    assert data.f_at(0)(7) == 2
    assert data.f_at(5)(0) == 2
    assert data.f_at(10 ** 9)(0) == 2


# -- sweep kernels ------------------------------------------------------------------


def _suffix_pair_sup_reference(values, space):
    """The full n x n x dim difference tensor, as the sweeps once built it."""
    n = values.shape[0]
    diffs = values[:, None, :] - values[None, :, :]
    if space.kind == "hilbert":
        dist = np.linalg.norm(diffs, axis=2)
    else:
        dist = np.linalg.norm(diffs, ord=space.p, axis=2)
    suffix = np.empty(n)
    running = 0.0
    for i in range(n - 1, -1, -1):
        running = max(running, dist[i, i:].max())
        suffix[i] = running
    return suffix


# the kernel reads only kind and p, so p = 1.5 needs no validated space
KERNEL_SPACES = {
    "hilbert": SpaceContext.hilbert(3),
    "lp1.5": SpaceContext(kind="lp", dim=2, p=1.5),
    "lp3": SpaceContext(kind="lp", dim=3, p=3.0),
    # np.linalg.norm takes p = 2 down its sum-of-squares path
    "lp2": SpaceContext(kind="lp", dim=3, p=2.0),
}
# numpy sums the coordinates in order below 8 and in unrolled blocks from
# 8 on; linear_diag14 runs in 14
for _dim in [1, 2, 3, 4, 5, 6, 7, 8, 14]:
    KERNEL_SPACES[f"hilbert_dim{_dim}"] = SpaceContext.hilbert(_dim)
    KERNEL_SPACES[f"lp1.5_dim{_dim}"] = SpaceContext(kind="lp", dim=_dim, p=1.5)
    KERNEL_SPACES[f"lp3_dim{_dim}"] = SpaceContext(kind="lp", dim=_dim, p=3.0)
# n = SUFFIX_CHUNK * k + 1 ends in a block of one row, whose only later
# sample is itself
KERNEL_SIZES = [1, 2, SUFFIX_CHUNK - 1, SUFFIX_CHUNK, SUFFIX_CHUNK + 1, 3 * SUFFIX_CHUNK + 1]
# the reference's full tensor of 2000 samples takes 31 MiB per coordinate
KERNEL_CASES = [(name, 2000) for name in ["hilbert", "lp1.5", "lp3"]] + [
    (name, n) for name in sorted(KERNEL_SPACES) for n in KERNEL_SIZES
]


def _kernel_inputs(n, dim, seed):
    """A decaying random walk, like a sampled trajectory; constant samples,
    where every distance is 0; and a tail near 1e-14 moving by single ulps."""
    rng = np.random.default_rng(seed)
    walk = np.cumsum(rng.standard_normal((n, dim)), axis=0) / (1.0 + np.arange(n))[:, None]
    constant = np.tile(rng.standard_normal(dim), (n, 1))
    steps = np.where(rng.integers(0, 2, (n, dim)) == 1, np.inf, -np.inf)
    tail = np.empty((n, dim))
    tail[0] = 1e-14 * (1.0 + rng.uniform(size=dim))
    for i in range(1, n):
        tail[i] = np.nextafter(tail[i - 1], steps[i])
    return {"walk": walk, "constant": constant, "ulp_tail": tail}


@pytest.mark.parametrize("name, n", KERNEL_CASES)
def test_chunked_suffix_kernel_matches_full_tensor(name, n):
    space = KERNEL_SPACES[name]
    for label, values in _kernel_inputs(n, space.dim, [n, space.dim]).items():
        reference = _suffix_pair_sup_reference(values, space)
        assert np.array_equal(_suffix_pair_sup(values, space), reference), label
        # window diameters, memoized by index range, against the same tensor
        samples = SampleSet(SimpleNamespace(space=space), np.arange(n, dtype=float), values)
        for lo, width in [(0, n - 1), (0, 1), (n // 3, n // 2), (n - 2, 1)]:
            if lo < 0 or lo + width >= n or width < 1:
                continue
            expected = _suffix_pair_sup_reference(values[lo : lo + width + 1], space)[0]
            assert samples.window_diameter(lo, width, n - 1.0) == expected, (label, lo, width)


def test_chunked_suffix_kernel_matches_full_tensor_in_high_dimension():
    # from 8 coordinates on, numpy sums the squares in unrolled blocks
    space = SpaceContext.hilbert(14)
    values = np.random.default_rng(14).standard_normal((2 * SUFFIX_CHUNK + 7, 14))
    assert np.array_equal(
        _suffix_pair_sup(values, space), _suffix_pair_sup_reference(values, space)
    )


def test_chunked_suffix_kernel_memory_is_linear():
    import tracemalloc

    values = np.random.default_rng(0).standard_normal((4000, 2))
    tracemalloc.start()
    try:
        _suffix_pair_sup(values, SpaceContext.hilbert(2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the full tensor needs 4000 * 4000 * 2 floats (244 MiB) per temporary
    assert peak < 24 * 2**20


def _metastable_reports_by_cell(bundle, ks, fs, orbits):
    """5.1 reports computed cell by cell: every (k, f, n) window is masked
    out of freshly evaluated orbit samples and measured with the full
    tensor, and the residual is recomputed for every unwitnessed cell
    that the samples cannot decide."""
    space = bundle.op.space
    reports = []
    for orbit in orbits:
        data = bundle.orbit_rate_data(orbit)
        for k in ks:
            eps = 1.0 / (k + 1.0)
            for f in fs:
                times = bundle.sample_times[bundle.sample_times <= orbit.trusted_horizon]
                values = orbit.values(times)
                bound = cauchy_metastability_rate(k, f, orbit.phi_meta, bundle.modulus, data)
                horizon = float(times[-1])
                witness = None
                left = False
                n = 0
                while n <= bound and n <= horizon:
                    width = f(n)
                    left = left or n + width > horizon + 1e-9
                    if n + width <= horizon + 1e-9:
                        mask = (times >= n - 1e-9) & (times <= n + width + 1e-9)
                        window = values[mask]
                        if window.shape[0] == 0:
                            window = orbit.values(np.array([float(n)]))
                        if _suffix_pair_sup_reference(window, space)[0] <= eps + bundle.solver.num_tol:
                            witness = n
                            break
                    n += 1
                tau = None
                extrapolated = witness is None and (left or n <= bound)
                if extrapolated:
                    residual = space.norms(values - bundle.op.project_zeros_many(values))
                    if np.max(np.diff(residual)) <= 1e-6:
                        hits = np.nonzero(residual <= eps / 2.0)[0]
                        tau = float(times[hits[0]]) if hits.size else None
                observed = float(witness) if witness is not None else tau
                reports.append(
                    RateReport(
                        scenario=f"{bundle.scenario_id}/{orbit.kind}",
                        theorem="5.1",
                        k=k,
                        f_desc=f.description,
                        bound=bound,
                        observed=math.inf if observed is None else observed,
                        margin=-math.inf if observed is None else bound - observed,
                        passed=observed is not None,
                        extrapolated=extrapolated,
                    )
                )
    return reports


def test_memoized_metastable_windows_match_cell_by_cell(identity_bundle):
    # 137 samples over the horizon: windows of width 0 at integer n often
    # hold no sample, and many (k, f, n) cells share one index range;
    # windows of n + 200 always leave the horizon, so no witness exists;
    # the spike fails at n = 0 and then finds empty windows
    bundle = ScenarioBundle(
        scenario_id="identity",
        op=identity_bundle.op,
        x=identity_bundle.x,
        modulus=identity_bundle.modulus,
        trajectory=identity_bundle.trajectory,
        solver=replace(identity_bundle.solver, sample_points=137),
        orbits=identity_bundle.orbits,
    )
    fs = [parse_counterfunction(t) for t in ["0", "1", "5", "n", "2*n+3", "max(n, 30)", "n+200"]]
    fs.append(Counterfunction(lambda n: 50 if n == 0 else 0, "50 at 0, then 0"))
    ks = list(range(12))
    reports = sweep_theorem(bundle, "5.1", ks, counterfunctions=fs)
    expected = _metastable_reports_by_cell(bundle, ks, fs, bundle.orbits)
    assert reports == expected
    assert {r.extrapolated for r in reports} == {False, True}


def test_metastability_implies_finite_cauchy_thresholds(identity_bundle):
    # when every windowed sweep passes on the small counterfunction
    # family, the directly measured Cauchy thresholds are finite
    fs = [parse_counterfunction(t) for t in ["0", "1", "5", "20", "n", "2*n+3"]]
    reports = sweep_theorem(identity_bundle, "5.1", range(4), counterfunctions=fs)
    assert all(r.passed for r in reports)
    for orbit in identity_bundle.orbits:
        times = identity_bundle.sample_times[
            identity_bundle.sample_times <= orbit.trusted_horizon
        ]
        suffix = _suffix_pair_sup(orbit.values(times), identity_bundle.op.space)
        for k in range(4):
            hits = np.nonzero(suffix <= 1.0 / (k + 1) + 1e-6)[0]
            assert hits.size, f"no finite Cauchy threshold for {orbit.kind} at k={k}"


def test_liminf_never_errors_on_apriori_certified_trajectories(catalog_trajectories):
    # trajectories whose a-priori check passed feed the search with the
    # corresponding budget: by the window-length formula a witness must
    # always exist
    from cauchylab import check_apriori

    for name, op, x, traj in catalog_trajectories:
        bounds = check_apriori(op, x, traj, op.space.M)
        assert bounds.passed
        samples = op.space.norms(traj.second_derivative()) ** 2
        budget = bounds.rhs_ddu * (1 + 1e-3) + 1e-3
        for k in range(0, 6, 2):
            for n in [0, 3]:
                if (budget + 1) * (k + 1) + n > traj.times[-1]:
                    continue
                t = integral_liminf_search(traj.times, samples, budget, k, n)
                assert t >= n - 1e-9


def test_fejer_report_on_decaying_trajectory(identity_sg):
    report = fejer_report(identity_sg.op, identity_sg.trajectory)
    assert report.passed
    assert report.max_step_increase <= 1e-6


def test_fejer_report_flags_increase(hilbert2):
    from cauchylab.second_order import Trajectory

    grid = TimeGrid(1.0, 0.25)
    values = np.array([[1.0, 0], [0.5, 0], [0.8, 0], [0.2, 0], [0.1, 0]])
    op = ScaledIdentity(1.0, hilbert2)
    report = fejer_report(op, Trajectory(grid=grid, values=values))
    assert not report.monotone
