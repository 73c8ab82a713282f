"""Acceptance gate: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to get one printed
pass line per criterion next to the pytest verdicts.
"""

import json
import math
import time
from importlib import resources

import numpy as np
import pytest

from cauchylab import (
    LinearPSD,
    Rotation,
    ScaledIdentity,
    SpaceContext,
    SolverConfig,
    SqrtSemigroup,
    TimeGrid,
    cauchy_metastability_rate,
    almost_orbit_cauchy_rate,
    check_apriori,
    fejer_report,
    first_order_trajectory,
    integral_liminf_search,
    linear_oracle,
    make_almost_orbit,
    modulus_strongly_accretive,
    projection_residual_rate,
    solve_second_order,
    sweep_theorem,
    verify_accretive,
)
from cauchylab.counterfunctions import Counterfunction, parse_counterfunction
from cauchylab.errors import LemmaViolationError
from cauchylab.rates import constant_modulus
from cauchylab.runner import run_config
from cauchylab.semigroup import ExpFormulaConfig
from cauchylab.verification import ScenarioBundle

CFG_DIR = resources.files("cauchylab") / "configs"
MOD1 = modulus_strongly_accretive(1.0)
SAMPLE_COUNTERFUNCTIONS = ["0", "1", "5", "20", "n", "2*n+3"]


def _passline(n, label):
    print(f"\n[acceptance] criterion {n} ({label}): PASS")


@pytest.fixture(scope="module")
def identity_bundle(hilbert2):
    """Unit-scale scenario on a horizon long enough to verify the k=0
    bound (80) directly."""
    op = ScaledIdentity(1.0, hilbert2)
    x = np.array([1.0, 0.0])
    sg = SqrtSemigroup(op, x, SolverConfig(TimeGrid(100.0, 0.01)))
    return ScenarioBundle(
        scenario_id="identity_hilbert",
        op=op,
        x=x,
        modulus=MOD1,
        trajectory=sg.trajectory,
        trusted_horizon=sg.trusted_horizon,
    )


@pytest.fixture(scope="module")
def orbit_bundles(hilbert2):
    """Exact, additive-decay and time-warp orbits over two operators."""
    bundles = []
    for name, op, x in [
        ("identity", ScaledIdentity(1.0, hilbert2), np.array([1.0, 0.0])),
        ("diag14", LinearPSD(np.diag([1.0, 4.0]), hilbert2), np.array([1.0, 1.0])),
    ]:
        sg = SqrtSemigroup(op, x, SolverConfig(TimeGrid(40.0, 0.01)))
        orbits = [
            make_almost_orbit(sg, "exact"),
            make_almost_orbit(sg, "additive_decay", v=np.array([0.0, 1.0]), lam=1.0),
            make_almost_orbit(sg, "time_warp", delta=0.5),
        ]
        bundles.append(
            ScenarioBundle(
                scenario_id=name,
                op=op,
                x=x,
                modulus=MOD1,
                trajectory=sg.trajectory,
                trusted_horizon=sg.trusted_horizon,
                orbits=orbits,
            )
        )
    return bundles


def test_criterion_01_oracle_equivalence(hilbert2, hilbert3):
    start = time.monotonic()
    rng = np.random.default_rng(42)
    q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
    random_psd = q @ np.diag(np.geomspace(0.1, 10.0, 4)) @ q.T
    random_psd = (random_psd + random_psd.T) / 2  # condition number 100
    matrices = [
        (np.diag([1.0, 4.0]), hilbert2),
        (np.diag([0.25, 1.0, 9.0]), hilbert3),
        (random_psd, SpaceContext.hilbert(4)),
    ]
    ts = np.linspace(0.0, 5.0, 50)
    worst = 0.0
    for b, space in matrices:
        op = LinearPSD(b, space)
        for _ in range(10):
            x = rng.normal(size=space.dim)
            x *= rng.uniform(0.2, 1.0) / np.linalg.norm(x)
            sg = SqrtSemigroup(op, x, SolverConfig(TimeGrid(20.0, 0.01)))
            for t in ts:
                err = np.linalg.norm(sg.at(float(t)) - linear_oracle(b, float(t), x))
                worst = max(worst, float(err))
    elapsed = time.monotonic() - start
    assert worst <= 1e-4, f"worst oracle deviation {worst:.3e}"
    assert elapsed <= 120.0, f"runtime {elapsed:.1f}s exceeds the 2 minute cap"
    _passline(1, f"oracle equivalence, worst {worst:.2e}, {elapsed:.0f}s")


def test_criterion_02_apriori_bounds(catalog_trajectories, lp4):
    for name, op, x, traj in catalog_trajectories:
        bounds = check_apriori(op, x, traj, op.space.M)
        assert bounds.passed, f"a-priori bounds failed for {name}: {bounds}"
    # the lp catalog scenario carries its own sampled constant
    lp_op = ScaledIdentity(1.0, lp4)
    lp_x = np.array([1.0, 0.0])
    lp_traj = solve_second_order(lp_op, lp_x, TimeGrid(40.0, 0.01))
    assert check_apriori(lp_op, lp_x, lp_traj, lp4.M).passed
    # unit-scale reference values: integral 1/2 against cap 2
    identity = next(t for t in catalog_trajectories if t[0] == "identity")
    bounds = check_apriori(identity[1], identity[2], identity[3], 1.0)
    assert bounds.int_ddu_sq == pytest.approx(0.5, abs=1e-3)
    assert bounds.rhs_ddu == pytest.approx(2.0)
    assert bounds.rhs_ddu - bounds.int_ddu_sq >= 1.4
    _passline(2, "a-priori bounds on the catalog")


def test_criterion_03_interior_cauchy_sweep(identity_bundle):
    reports = sweep_theorem(identity_bundle, "4.1", range(6))
    assert [r.bound for r in reports] == [80, 1280, 6480, 20480, 50000, 103680]
    assert all(r.passed for r in reports), "zero failures required"
    assert all(r.bound > r.observed for r in reports)
    direct = reports[0]
    assert not direct.extrapolated  # k = 0 verified inside the horizon
    # re-verify the k = 0 conclusion straight from the trajectory
    times = identity_bundle.sample_times
    values = identity_bundle.sample_values[times >= direct.bound]
    diffs = values[:, None, :] - values[None, :, :]
    assert np.max(np.linalg.norm(diffs, axis=2)) <= 1.0 + 1e-6
    _passline(3, "interior Cauchy sweep k=0..5, bound(0)=80")


def test_criterion_04_closure_sweep(identity_bundle):
    f_dom = Counterfunction.constant(1, "1")
    closure = sweep_theorem(identity_bundle, "4.2", range(6), f_dom=f_dom)
    interior = sweep_theorem(identity_bundle, "4.1", range(6))
    assert all(r.passed for r in closure)
    for c, i in zip(closure, interior):
        assert c.bound >= i.bound
    _passline(4, "closure sweep dominates the interior bounds")


def test_criterion_05_metastability_sweep(orbit_bundles):
    fs = [parse_counterfunction(t) for t in SAMPLE_COUNTERFUNCTIONS]
    for bundle in orbit_bundles:
        reports = sweep_theorem(bundle, "5.1", range(4), counterfunctions=fs)
        assert len(reports) == 3 * 4 * 6
        for r in reports:
            assert r.passed, f"no witness for {r.scenario} k={r.k} f={r.f_desc}"
            assert not r.extrapolated
            assert r.observed <= r.bound
        # exact-orbit collapse: the metastability bound equals the
        # index-zero residual rate at precision 24k+23, exactly
        exact = next(o for o in bundle.orbits if o.kind == "exact")
        data = bundle.orbit_rate_data(exact)
        for k in range(4):
            expected = projection_residual_rate(0, 24 * k + 23, MOD1, data)
            for f in fs:
                got = cauchy_metastability_rate(k, f, exact.phi_meta, MOD1, data)
                assert got == expected
    _passline(5, "metastability witnesses and exact-orbit collapse")


def test_criterion_06_roc_sweep_and_f_independence(orbit_bundles):
    fs = [parse_counterfunction(t) for t in SAMPLE_COUNTERFUNCTIONS]
    for bundle in orbit_bundles:
        additive = [o for o in bundle.orbits if o.kind == "additive_decay"]
        reports = sweep_theorem(bundle, "5.3", range(4), orbits=additive)
        for r in reports:
            assert r.passed
            assert r.bound > r.observed
        data = bundle.orbit_rate_data(additive[0])
        phi = additive[0].phi_meta
        for k in range(4):
            direct = almost_orbit_cauchy_rate(k, additive[0].phi_roc, MOD1, data)
            for f in fs:
                assert direct == cauchy_metastability_rate(k, f, phi, MOD1, data)
    _passline(6, "rate-of-convergence sweep and f-independence identity")


def test_criterion_07_liminf_property_suite():
    rng = np.random.default_rng(1234)
    step = 0.05
    times = np.arange(0.0, 140.0 + 1e-9, step)
    failures = 0
    for trial in range(1000):
        bound_l = 1.0 if trial % 2 == 0 else 10.0
        n_pieces = int(rng.integers(5, 40))
        cuts = np.sort(rng.choice(np.arange(1, times.size - 1), n_pieces, replace=False))
        heights = rng.exponential(1.0, size=n_pieces + 1)
        samples = np.repeat(heights, np.diff(np.r_[0, cuts, times.size]))
        total = np.trapezoid(samples, times)
        samples *= rng.uniform(0.3, 0.95) * bound_l / total
        for k in range(0, 11, 2):
            for n in range(0, 6, 5):
                try:
                    witness = integral_liminf_search(times, samples, bound_l, k, n)
                except LemmaViolationError:
                    failures += 1
                    continue
                assert n - 1e-9 <= witness <= (bound_l + 1) * (k + 1) + n + 1e-9
                idx = int(round(witness / step))
                assert samples[idx] <= 1.0 / (k + 1) + 1e-12
    assert failures == 0
    _passline(7, "liminf search over 1000 randomized functions")


def test_criterion_08_counterexample_necessity(hilbert2, tmp_path):
    op = Rotation(space=hilbert2)
    assert verify_accretive(op, 500, 2.0).passed
    x = np.array([1.0, 0.0])
    traj = first_order_trajectory(op, x, TimeGrid(40.0, 0.05), ExpFormulaConfig(n_max=2**14))
    bundle = ScenarioBundle(
        scenario_id="rotation",
        op=op,
        x=x,
        modulus=constant_modulus(0),
        trajectory=traj,
        trusted_horizon=39.0,
    )
    reports = sweep_theorem(bundle, "4.1", range(4))
    hard_failures = [r for r in reports if not r.passed and not r.extrapolated]
    assert hard_failures and min(r.k for r in hard_failures) <= 3
    result = run_config(
        str(CFG_DIR / "rotation_counterexample.cfg"), out_dir=tmp_path / "rot"
    )
    assert result.exit_code == 2
    assert result.diagnostics["accretivity"]["pass"] is True
    _passline(8, "rotation fails the Cauchy sweep while accretivity passes")


def test_criterion_09_fejer_and_stability(catalog_trajectories):
    for name, op, _, traj in catalog_trajectories:
        report = fejer_report(op, traj, step_tol=1e-6)
        assert report.monotone, f"projection residual increased for {name}"
        assert report.stable, f"step bound violated for {name}"
    _passline(9, "Fejer monotonicity and two-sided step bound")


def test_criterion_10_determinism(tmp_path):
    for name in ["identity_hilbert.cfg", "rotation_counterexample.cfg"]:
        first = run_config(str(CFG_DIR / name), out_dir=tmp_path / "a" / name)
        second = run_config(str(CFG_DIR / name), out_dir=tmp_path / "b" / name)
        assert first.exit_code == second.exit_code
        a = (tmp_path / "a" / name / "reports.json").read_bytes()
        b = (tmp_path / "b" / name / "reports.json").read_bytes()
        assert a == b, f"reports.json differ between runs of {name}"
    _passline(10, "byte-identical reports for fixed seeds")
