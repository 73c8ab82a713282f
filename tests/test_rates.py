"""Rate functionals against straight-line re-evaluations.

Every derived value here is frozen from an independent recomputation of
the displayed formula chains: the oracles below re-evaluate each chain
in plain arithmetic, sharing no code with the library implementation.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchylab.counterfunctions import Counterfunction, MetastabilityRate, query_budget
from cauchylab.errors import ContractError, EvaluationCapExceeded
from cauchylab.rates import (
    ScenarioRateData,
    almost_orbit_cauchy_rate,
    cauchy_metastability_rate,
    closure_cauchy_rate,
    constant_modulus,
    modulus_strongly_accretive,
    projection_residual_rate,
    residual_metastability_rate,
    residual_window_fn,
    semigroup_cauchy_rate,
    shifted_window_fn,
    trunc_sub,
    window_end,
    witness_gap_fn,
)


def identity_data(orbit_bound=1, graph_bound=1, m_const=1.0):
    """Rate data of the unit-scale scenario: ||x|| = |x - Px| = d(0,Ax) = 1."""
    return ScenarioRateData.for_point(
        m_const=m_const,
        norm_x=1.0,
        dist_proj=1.0,
        dist_zero=1.0,
        orbit_bound=orbit_bound,
        graph_bound=graph_bound,
    )


MOD1 = modulus_strongly_accretive(1.0)


# -- elementary pieces ---------------------------------------------------------


def test_trunc_sub_examples():
    assert trunc_sub(5, 9) == 0
    assert trunc_sub(9, 5) == 4
    assert trunc_sub(7, 0) == 7


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**9))
def test_trunc_sub_properties(a, b):
    r = trunc_sub(a, b)
    assert r >= 0
    assert r <= a
    assert r + b >= a


def test_strongly_accretive_modulus_values():
    assert MOD1(1, 99) == 3
    assert MOD1(0, 1) == 0
    assert modulus_strongly_accretive(0.5)(1, 1) == 7
    with pytest.raises(ValueError):
        modulus_strongly_accretive(0.0)


def test_window_end_values():
    assert window_end(4, 15) == 80
    assert window_end(0, 0) == 1
    assert window_end(10, 3) == 44


def test_rate_data_invariants():
    data = identity_data()
    assert data.d_budget == 4  # ceil((1 + 1) * 2 * 1 * 1)
    with pytest.raises(ContractError):
        ScenarioRateData.for_point(0.0, 1.0, 1.0, 1.0)
    for bounds in ({"orbit_bound": -1}, {"graph_bound": -1}):
        with pytest.raises(ContractError, match="must be naturals"):
            ScenarioRateData.for_point(1.0, 1.0, 1.0, 1.0, **bounds)


# -- interior-point Cauchy rate ---------------------------------------------------


def oracle_interior(k, c, b, d_budget):
    m = math.ceil((2 * k + 2) ** 2 / c) - 1
    return math.ceil((d_budget + 1) * (max((m + 1) ** 2 - 1, 0) + 1))


def test_interior_rate_reference_chain():
    data = identity_data()
    assert semigroup_cauchy_rate(0, MOD1, data) == 80
    assert semigroup_cauchy_rate(1, MOD1, data) == 1280
    for k in range(11):
        assert semigroup_cauchy_rate(k, MOD1, data) == oracle_interior(k, 1.0, 1, 4)


def test_interior_rate_degenerate_zero_operator():
    data = ScenarioRateData.for_point(1.0, 0.7, 0.0, 0.0)
    assert data.d_budget == 0
    assert semigroup_cauchy_rate(0, constant_modulus(0), data) == 1


def test_interior_rate_observed_monotone_in_k():
    # not asserted in general, only observed on the reference scenario
    data = identity_data()
    values = [semigroup_cauchy_rate(k, MOD1, data) for k in range(11)]
    assert values == sorted(values)


# -- closure extension ----------------------------------------------------------


def oracle_closure(k, c, f_value, dist_proj, norm_x, m_const=1.0):
    v = f_value
    b_k = dist_proj + norm_x + v
    d_k = math.ceil((1 + b_k * b_k) * (2 / m_const**2) * v * v)
    m = math.ceil((6 * k + 6) ** 2 / c) - 1
    return math.ceil((d_k + 1) * (max((m + 1) ** 2 - 1, 0) + 1))


def test_closure_rate_constant_f():
    data = identity_data()
    f1 = Counterfunction.constant(1)
    assert closure_cauchy_rate(0, MOD1, f1, data) == 27216
    for k in range(6):
        assert closure_cauchy_rate(k, MOD1, f1, data) == oracle_closure(k, 1.0, 1, 1.0, 1.0)


def test_closure_rate_dominates_interior():
    data = identity_data()
    f = Counterfunction.constant(math.ceil(data.b))
    for k in range(6):
        assert closure_cauchy_rate(k, MOD1, f, data) >= semigroup_cauchy_rate(k, MOD1, data)


def test_closure_rate_degenerate():
    data = ScenarioRateData.for_point(1.0, 0.0, 0.0, 0.0)
    value = closure_cauchy_rate(0, constant_modulus(0), Counterfunction.constant(0), data)
    assert value == 1  # everything collapses to the minimal window


def test_closure_rate_rejects_nonmonotone_f():
    data = identity_data()
    drop = Counterfunction(lambda n: 5 if n < 10 else 1, "drop")
    with pytest.raises(ContractError):
        closure_cauchy_rate(4, MOD1, drop, data)  # f(0)=5 > f(14)=1


# -- per-index residual rate ------------------------------------------------------


def oracle_residual(k, c, orbit_bound, graph_bound, m_const=1.0):
    v = graph_bound
    d_sk = math.ceil((1 + (orbit_bound + 1) ** 2) * (2 / m_const**2) * v * v)
    m = math.ceil((3 * k + 3) ** 2 / c) - 1
    return math.ceil((d_sk + 1) * (max((m + 1) ** 2 - 1, 0) + 1))


def test_residual_rate_hand_chain():
    data = identity_data()
    assert projection_residual_rate(0, MOD1, data) == 891
    for k in [0, 1, 5, 23, 95]:
        assert projection_residual_rate(k, MOD1, data) == oracle_residual(k, 1.0, 1, 1)


def test_residual_rate_budget_linearity():
    # halving M quadruples the raw budget; the rate scales through (D + 1)
    data1 = identity_data(m_const=1.0)  # D_{s,k} = 10
    data2 = identity_data(m_const=0.5)  # D_{s,k} = 40, exactly (binary floats)
    for k in range(4):
        v1 = projection_residual_rate(k, MOD1, data1)
        v2 = projection_residual_rate(k, MOD1, data2)
        assert v1 * (40 + 1) == v2 * (10 + 1)


def test_residual_rate_zero_modulus_collapse():
    data = identity_data()
    # value collapses to D + 1
    assert projection_residual_rate(3, constant_modulus(0), data) == 11


def test_residual_rate_requires_orbit_bound():
    for bounds in ({}, {"orbit_bound": 1}, {"graph_bound": 1}):
        data = ScenarioRateData.for_point(1.0, 1.0, 1.0, 1.0, **bounds)
        with pytest.raises(ContractError, match="required for almost-orbit rates"):
            projection_residual_rate(0, MOD1, data)


# -- counterfunction builders ------------------------------------------------------


def test_shifted_window_zero_shift_is_f():
    f = Counterfunction(lambda n: 3 * n + 1, "3n+1")
    h = shifted_window_fn(0, f)
    assert [h(n) for n in range(5)] == [f(n) for n in range(5)]


def test_witness_gap_zero_rate():
    j = witness_gap_fn(2, Counterfunction.identity(), MetastabilityRate.zero())
    assert [j(n) for n in range(5)] == [0, 0, 0, 0, 0]


def test_residual_window_zero_f():
    data = identity_data()
    g = residual_window_fn(1, Counterfunction.constant(0), projection_residual_rate(5, MOD1, data))
    for m in range(3):
        assert g(m) == projection_residual_rate(3 * 1 + 2, MOD1, data)


# -- metastability functionals -----------------------------------------------------


def test_metastability_query_computes_the_residual_rate_once(monkeypatch):
    # residual_metastability_rate hands its residual rate R to the window
    # g(m) = R + f(m + R), which once computed R a second time
    from cauchylab import rates

    calls = []
    residual_rate = rates.projection_residual_rate

    def counted(*args):
        calls.append(args)
        return residual_rate(*args)

    monkeypatch.setattr(rates, "projection_residual_rate", counted)
    data = identity_data()
    rate = MetastabilityRate.from_convergence_rate(lambda k: k + 1)
    for phi in (MetastabilityRate.zero(), rate):
        for k in range(4):
            calls.clear()
            cauchy_metastability_rate(k, Counterfunction.identity(), phi, MOD1, data)
            assert len(calls) == 1


def test_residual_metastability_exact_collapse():
    data = identity_data()
    for k in range(4):
        value = residual_metastability_rate(
            k, Counterfunction.constant(7), MetastabilityRate.zero(), MOD1, data
        )
        assert value == projection_residual_rate(3 * k + 2, MOD1, data)


def test_cauchy_metastability_exact_collapse():
    data = identity_data()
    for k in range(4):
        for f in [Counterfunction.constant(0), Counterfunction.identity()]:
            value = cauchy_metastability_rate(k, f, MetastabilityRate.zero(), MOD1, data)
            assert value == projection_residual_rate(24 * k + 23, MOD1, data)


def test_gamma_monotone_under_larger_phi():
    data = identity_data()
    small = MetastabilityRate.from_convergence_rate(lambda k: 0)
    large = MetastabilityRate.from_convergence_rate(lambda k: 5)
    for k in range(3):
        for f in [Counterfunction.constant(2), Counterfunction.identity()]:
            assert cauchy_metastability_rate(
                k, f, large, MOD1, data
            ) >= cauchy_metastability_rate(k, f, small, MOD1, data)


def test_gamma_f_independent_transfer():
    data = identity_data()
    phi = MetastabilityRate.from_convergence_rate(lambda k: (k + 2) // 3)
    fs = [
        Counterfunction.constant(0),
        Counterfunction.constant(20),
        Counterfunction.identity(),
        Counterfunction(lambda n: 2 * n + 3, "2n+3"),
    ]
    for k in range(3):
        values = {cauchy_metastability_rate(k, f, phi, MOD1, data) for f in fs}
        assert len(values) == 1


def test_roc_rate_equals_gamma_under_f_independence():
    data = identity_data()
    roc = Counterfunction(lambda k: (k + 2) // 3, "slow roc")
    phi = MetastabilityRate.from_convergence_rate(roc.fn)
    fs = [Counterfunction.constant(c) for c in (0, 1, 5, 20)] + [
        Counterfunction.identity(),
        Counterfunction(lambda n: 2 * n + 3, "2n+3"),
    ]
    for k in range(11):
        direct = almost_orbit_cauchy_rate(k, roc, MOD1, data)
        for f in fs:
            assert direct == cauchy_metastability_rate(k, f, phi, MOD1, data)


def test_roc_rate_zero_collapse():
    data = identity_data()
    zero_roc = Counterfunction.constant(0)
    for k in range(4):
        expected = projection_residual_rate(24 * k + 23, MOD1, data)
        assert almost_orbit_cauchy_rate(k, zero_roc, MOD1, data) == expected


def test_roc_rate_huge_constant():
    data = identity_data()
    big = 10**6
    roc = Counterfunction.constant(big)
    value = almost_orbit_cauchy_rate(0, roc, MOD1, data)
    assert value == max(big, big + projection_residual_rate(23, MOD1, data))


def test_roc_rate_rejects_nonmonotone():
    data = identity_data()
    roc = Counterfunction(lambda k: 5 if k < 10 else 1, "decreasing")
    with pytest.raises(ContractError):
        almost_orbit_cauchy_rate(0, roc, MOD1, data)


def test_rate_functionals_pure():
    data = identity_data()
    f = Counterfunction(lambda n: 2 * n + 3, "2n+3")
    phi = MetastabilityRate.from_convergence_rate(lambda k: k)
    first = cauchy_metastability_rate(2, f, phi, MOD1, data)
    assert cauchy_metastability_rate(2, f, phi, MOD1, data) == first


def test_evaluation_cap_on_f_dependent_enumeration():
    # an f-sensitive rate forces the literal enumeration up to Gamma',
    # which dwarfs the budget; the cap turns the hang into an error
    data = identity_data()
    phi = MetastabilityRate(fn=lambda k, f: f(0) + k, f_independent=False)
    with pytest.raises(EvaluationCapExceeded):
        cauchy_metastability_rate(0, Counterfunction.constant(2), phi, MOD1, data)


def test_residual_metastability_large_rate_is_one_probe():
    # the residual rate is the same at every orbit index, so a large phi
    # costs one probe, not an enumeration of the indices up to phi
    data = identity_data()
    phi = MetastabilityRate.from_convergence_rate(lambda k: 10**7)
    with query_budget() as budget:
        value = residual_metastability_rate(0, Counterfunction.constant(1), phi, MOD1, data)
    assert value == 10**7 + oracle_residual(2, 1.0, 1, 1) == 10_072_171
    assert budget.used < 10
