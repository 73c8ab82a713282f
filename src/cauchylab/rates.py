"""Explicit rate functionals on natural numbers.

This module carries the quantitative content of the package: moduli for
the convergence condition, the Cauchy-rate transformations for the
square-root semigroup (interior and closure initial points), and the
higher-order metastability functionals for almost-orbits, together with
the rate-of-convergence variant.

All real-valued budget constants are ceiled once at data construction,
so every functional below computes in exact integer arithmetic under the
shared evaluation budget.  The one inner maximum left, over the shifts of
an f-dependent metastability rate, is enumerated; a rate known to ignore
its counterfunction argument collapses it to a single probe.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from decimal import Decimal
from typing import Callable

from .counterfunctions import (
    Counterfunction,
    MetastabilityRate,
    charge,
    query_budget,
)
from .errors import ContractError


def trunc_sub(a: int, b: int) -> int:
    """Truncated subtraction on naturals: max(a - b, 0)."""
    if a < 0 or b < 0:
        raise ContractError("truncated subtraction is defined on naturals")
    return a - b if a > b else 0


def ceil_nat(x: float) -> int:
    """Ceiling to a natural; rejects negatives and non-finite values."""
    if x < 0:
        raise ContractError(f"cannot ceil negative value {x} to a natural")
    if isinstance(x, float) and not math.isfinite(x):  # an int may exceed the float range
        raise ContractError(f"cannot ceil non-finite value {x} to a natural")
    return int(math.ceil(x))


def window_end(budget: float, index: int) -> int:
    """Endpoint (budget + 1) * (index + 1) of the liminf search window,
    ceiled to a natural."""
    if index < 0:
        raise ContractError("index must be a natural")
    if budget < 0:
        raise ContractError("budget must be nonnegative")
    return ceil_nat((budget + 1) * (index + 1))


@dataclass(frozen=True)
class ConvergenceModulus:
    """Error transformer for the convergence condition.

    For graph pairs (x, y) with norms at most K, a pairing
    <y, J(x - Px)> at most 1/(value(k, K) + 1) forces ||x - Px|| to be
    at most 1/(k + 1).  Whether a candidate actually has this property
    is checked empirically by the verification module.
    """

    fn: Callable[[int, int], int]
    provenance: str = "user-supplied"
    description: str = ""

    def __call__(self, k: int, cap: int) -> int:
        if k < 0 or cap < 0:
            raise ContractError("modulus arguments must be naturals")
        charge(1, f"modulus {self.description or self.provenance}")
        value = self.fn(k, cap)
        if not isinstance(value, int) or value < 0:
            raise ContractError(f"modulus returned non-natural {value!r}")
        if value > sys.float_info.max:
            # its threshold 1/(value + 1) and every bound built on it are floats
            raise ContractError(
                f"modulus value {Decimal(value):.3e} at k={k}, K={cap} exceeds the float range"
            )
        return value


def modulus_strongly_accretive(c: float) -> ConvergenceModulus:
    """Modulus for a strongly accretive operator with constant c.

    From <y, J(x - Px)> >= c ||x - Px||^2: a pairing below
    c / (k + 1)^2 forces ||x - Px|| <= 1/(k + 1), so
    value(k, K) = ceil((k + 1)^2 / c) - 1 works and never needs K.
    """
    if c <= 0.0:
        raise ValueError("strong-accretivity constant must be positive")
    ceil_nat(1.0 / c)  # the smallest value, at k = 0, must lie in the float range
    return ConvergenceModulus(
        fn=lambda k, cap: ceil_nat((k + 1) * (k + 1) / c) - 1,
        provenance="strongly-accretive-derived",
        description=f"strongly accretive, c={c:g}",
    )


def constant_modulus(value: int) -> ConvergenceModulus:
    if value < 0:
        raise ValueError("modulus constant must be a natural")
    return ConvergenceModulus(
        fn=lambda k, cap: value,
        provenance="user-supplied",
        description=f"constant {value}",
    )


class _MonotoneGuard:
    """Wraps a counterfunction, failing if queried points ever reveal a
    decrease.  Used where a hypothesis demands a nondecreasing f."""

    def __init__(self, f: Counterfunction | Callable[[int], int], label: str):
        self.f = f
        self.label = label
        self.seen: dict[int, int] = {}

    def __call__(self, n: int) -> int:
        value = self.f(n)
        for m, v in self.seen.items():
            if (m < n and v > value) or (m > n and v < value):
                raise ContractError(
                    f"{self.label} must be nondecreasing: "
                    f"f({m})={v}, f({n})={value}"
                )
        self.seen[n] = value
        return value


@dataclass(frozen=True)
class ScenarioRateData:
    """Quantitative scenario data feeding the rate functionals.

    ``b`` is max(||x||, ||x - Px||); ``d_budget`` is the ceiled
    integral budget (1 + b^2)(2/M^2) d(0,Ax)^{1/2} b^{3/2}; ``orbit_bound``
    is a natural B with ||u(t) - p|| <= B on the certified horizon;
    ``graph_bound`` is a natural bounding a graph pair near every orbit
    point u(s), the same for every index s.

    The almost-orbit theorems also take a modulus of uniform continuity
    ω(r, k) for the zero-set projection P on the ball of radius r.  It is
    built in as ω(r, k) = k: every catalog P is nonexpansive, so
    ||x - y|| <= 1/(k + 1) gives ||Px - Py|| <= 1/(k + 1), and k is the
    least value the theorems take.
    """

    m_const: float
    norm_x: float
    dist_proj: float
    dist_zero: float
    b: float
    d_budget: int
    orbit_bound: int | None = None
    graph_bound: int | None = None

    def __post_init__(self):
        for bound in (self.orbit_bound, self.graph_bound):
            if bound is not None and bound < 0:
                raise ContractError("orbit and graph bounds must be naturals")

    @staticmethod
    def for_point(
        m_const: float,
        norm_x: float,
        dist_proj: float,
        dist_zero: float,
        orbit_bound: int | None = None,
        graph_bound: int | None = None,
    ) -> "ScenarioRateData":
        if m_const <= 0.0:
            raise ContractError("strong-monotonicity constant must be positive")
        b = max(norm_x, dist_proj)
        try:
            d_budget = (1.0 + b * b) * (2.0 / (m_const * m_const)) * math.sqrt(dist_zero) * b**1.5
        except OverflowError:  # b ** 1.5 beyond the float range
            d_budget = math.inf
        if not math.isfinite(d_budget):
            raise ContractError(
                f"integral budget (1 + b^2)(2/M^2) d(0,Ax)^(1/2) b^(3/2) at b = {b:.3e} "
                "exceeds the float range"
            )
        return ScenarioRateData(
            m_const=m_const,
            norm_x=norm_x,
            dist_proj=dist_proj,
            dist_zero=dist_zero,
            b=float(b),
            d_budget=ceil_nat(d_budget),
            orbit_bound=orbit_bound,
            graph_bound=graph_bound,
        )


# -- Cauchy rates for the square-root semigroup --------------------------------


def semigroup_cauchy_rate(k: int, modulus: ConvergenceModulus, data: ScenarioRateData) -> int:
    """Time bound after which the trajectory from an interior initial
    point is 1/(k+1)-Cauchy."""
    if k < 0:
        raise ContractError("precision index must be a natural")
    with query_budget():
        cap = max(1, ceil_nat(data.b))
        m = modulus(2 * k + 1, cap)
        return window_end(data.d_budget, trunc_sub((m + 1) ** 2, 1))


def closure_cauchy_rate(
    k: int,
    modulus: ConvergenceModulus,
    f_dom: Counterfunction,
    data: ScenarioRateData,
) -> int:
    """Extension of the Cauchy rate to closure initial points, given a
    nondecreasing f bounding approximating graph pairs."""
    if k < 0:
        raise ContractError("precision index must be a natural")
    with query_budget():
        f = _MonotoneGuard(f_dom, f"domain-approximation function {f_dom.description}")
        f(0)  # baseline probe so single-index queries still see a pair
        v = f(3 * k + 2)
        b_k = data.dist_proj + data.norm_x + v
        d_k = ceil_nat((1.0 + b_k * b_k) * (2.0 / (data.m_const ** 2)) * v * v)
        m = modulus(6 * k + 5, max(1, v))
        return window_end(d_k, trunc_sub((m + 1) ** 2, 1))


# -- almost-orbit functionals ---------------------------------------------------


def projection_residual_rate(k: int, modulus: ConvergenceModulus, data: ScenarioRateData) -> int:
    """Time bound after which the flow started near any orbit point u(s)
    stays within 1/(3(k+1)) of the zero set (the ingredient of the
    metastability functionals; with one graph bound for every s, it is
    the same for every s)."""
    if k < 0:
        raise ContractError("precision index must be a natural")
    if data.orbit_bound is None or data.graph_bound is None:
        raise ContractError("orbit bound B and graph bound are required for almost-orbit rates")
    with query_budget():
        v = data.graph_bound
        d_sk = ceil_nat(
            (1.0 + (data.orbit_bound + 1) ** 2) * (2.0 / (data.m_const ** 2)) * v * v
        )
        m = modulus(3 * k + 2, max(1, v))
        return window_end(d_sk, trunc_sub((m + 1) ** 2, 1))


def shifted_window_fn(n_shift: int, f: Counterfunction) -> Counterfunction:
    """h(n) = f(max(N, n)) + max(N, n) - n for the shift N."""
    if n_shift < 0:
        raise ContractError("shift must be a natural")

    def fn(n: int) -> int:
        m = max(n_shift, n)
        return f(m) + m - n

    return Counterfunction(fn, f"shifted[{n_shift}]({f.description})")


def witness_gap_fn(k: int, f: Counterfunction, phi: MetastabilityRate) -> Counterfunction:
    """j(n) = max(n, phi(8k+7, h_{n,f})) - n."""
    if k < 0:
        raise ContractError("precision index must be a natural")

    def fn(n: int) -> int:
        return max(n, phi(8 * k + 7, shifted_window_fn(n, f))) - n

    return Counterfunction(fn, f"witness_gap[k={k}]({f.description})")


def residual_window_fn(k: int, f: Counterfunction, r: int) -> Counterfunction:
    """g(m) = R + f(m + R), where ``r`` is R, the projection-residual rate
    at precision 3k+2."""
    return Counterfunction(lambda m: r + f(m + r), f"residual_window[k={k}]({f.description})")


def _enumerate_max(values_fn: Callable[[int], int], bound: int, label: str) -> int:
    best = 0
    for m in range(bound + 1):
        charge(1, label)
        best = max(best, values_fn(m))
    return best


def residual_metastability_rate(
    k: int,
    f: Counterfunction,
    phi: MetastabilityRate,
    modulus: ConvergenceModulus,
    data: ScenarioRateData,
) -> int:
    """Metastability rate for the zero-set residual ||u(t) - Pu(t)||
    along an almost-orbit with metastability rate phi."""
    if k < 0:
        raise ContractError("precision index must be a natural")
    with query_budget():
        r = projection_residual_rate(3 * k + 2, modulus, data)
        return phi(3 * k + 2, residual_window_fn(k, f, r)) + r


def cauchy_metastability_rate(
    k: int,
    f: Counterfunction,
    phi: MetastabilityRate,
    modulus: ConvergenceModulus,
    data: ScenarioRateData,
) -> int:
    """Metastability rate for the Cauchy property of an almost-orbit."""
    if k < 0:
        raise ContractError("precision index must be a natural")
    with query_budget():
        jf = witness_gap_fn(k, f, phi)
        gp = residual_metastability_rate(8 * k + 7, jf, phi, modulus, data)
        if phi.f_independent:
            best_phi = phi(8 * k + 7, f)
        else:
            best_phi = _enumerate_max(
                lambda n_shift: phi(8 * k + 7, shifted_window_fn(n_shift, f)),
                gp,
                "shift enumeration",
            )
        return max(gp, best_phi)


def almost_orbit_cauchy_rate(
    k: int,
    phi_roc: Counterfunction,
    modulus: ConvergenceModulus,
    data: ScenarioRateData,
) -> int:
    """Full Cauchy rate for an almost-orbit carrying a nondecreasing rate
    of convergence on the almost-orbit condition."""
    if k < 0:
        raise ContractError("precision index must be a natural")
    with query_budget():
        r = projection_residual_rate(24 * k + 23, modulus, data)
        roc = _MonotoneGuard(phi_roc, f"rate of convergence {phi_roc.description}")
        s_star = roc(24 * k + 23)
        return max(roc(8 * k + 7), s_star + r)
