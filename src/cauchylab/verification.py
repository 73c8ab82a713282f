"""Empirical certification of the extracted bounds.

Each theorem sweep computes the explicit bound from scenario data and
checks the corresponding conclusion against a sampled trajectory:

* Cauchy-type conclusions (the semigroup rates and the rate-of-
  convergence variant) are verified on all sampled time pairs beyond
  the bound inside the trusted horizon.  When a bound exceeds the
  horizon the report is marked ``extrapolated`` and the conclusion is
  certified only through the projection residual ||u(t) - Pu(t)||,
  whose monotone decrease is itself checked on the horizon; such
  reports are second class and never count toward acceptance.
* Metastability conclusions are existential: the sweep searches for a
  witness index n at most the computed bound whose window [n, n + f(n)]
  realizes the target inequality.

The module also houses the liminf search behind the window-length
formula, the empirical modulus validity check, and the almost-orbit
constructions with certified defect rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .counterfunctions import Counterfunction, MetastabilityRate
from .errors import (
    ContractError,
    HorizonError,
    LemmaViolationError,
    OrbitConstructionError,
)
from .operators import AccretiveOperator
from .rates import (
    ConvergenceModulus,
    ScenarioRateData,
    almost_orbit_cauchy_rate,
    cauchy_metastability_rate,
    closure_cauchy_rate,
    semigroup_cauchy_rate,
)
from .second_order import (
    SqrtSemigroup,
    TimeGrid,
    Trajectory,
    projection_profile,
)
from .semigroup import ExpFormulaConfig, semigroup_point

STEP_MONOTONE_TOL = 1e-6
# rows per block of the suffix-diameter kernel: a block holds a few
# SUFFIX_CHUNK x n x dim float arrays, so memory grows linearly in n
SUFFIX_CHUNK = 64


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class RateReport:
    """Outcome of one sweep cell."""

    scenario: str
    theorem: str
    k: int
    f_desc: str
    bound: int
    observed: float
    margin: float
    passed: bool
    extrapolated: bool

    def to_dict(self) -> dict:
        observed = self.observed if math.isfinite(self.observed) else None
        margin = self.margin if math.isfinite(self.margin) else None
        return {
            "scenario": self.scenario,
            "theorem": self.theorem,
            "k": self.k,
            "f_desc": self.f_desc,
            "bound": self.bound,
            "observed": observed,
            "margin": margin,
            "pass": self.passed,
            "extrapolated": self.extrapolated,
        }


@dataclass(frozen=True)
class ModulusCheckReport:
    samples_checked: int
    counterexamples: list
    passed: bool


@dataclass(frozen=True)
class FejerReport:
    max_step_increase: float
    monotone: bool
    max_stability_excess: float
    stable: bool

    @property
    def passed(self) -> bool:
        return self.monotone and self.stable


# -- liminf search ---------------------------------------------------------------


def integral_liminf_search(
    times: np.ndarray,
    samples: np.ndarray,
    bound_l: float,
    k: int,
    n: int,
) -> float:
    """First grid time in [n, (L+1)(k+1)+n] where the sampled function
    dips to 1/(k+1).

    Requires the trapezoidal integral of the samples to be at most L; a
    missing witness then signals a bug or quadrature failure upstream,
    not a property of the input.  The discrete search ignores null sets:
    grid points stand in for almost-every time.
    """
    times = np.asarray(times, dtype=float)
    samples = np.asarray(samples, dtype=float)
    if times.shape != samples.shape or times.ndim != 1:
        raise ContractError("times and samples must be matching 1-d arrays")
    if np.any(samples < -1e-12):
        raise ContractError("sampled function must be nonnegative")
    if k < 0 or n < 0:
        raise ContractError("k and n must be naturals")
    total = float(np.trapezoid(samples, times))
    # allow half-cell trapezoid overshoot on jump discontinuities
    step = float(np.max(np.diff(times))) if times.size > 1 else 0.0
    slack = 1e-6 * (1.0 + abs(bound_l)) + 0.5 * step * float(np.max(samples, initial=0.0))
    if total > bound_l + slack:
        raise ContractError(
            f"sampled integral {total:.6g} exceeds the declared bound {bound_l:.6g}"
        )
    window_hi = (bound_l + 1.0) * (k + 1.0) + n
    if times[-1] + 1e-12 < window_hi:
        raise ContractError(
            f"samples end at {times[-1]:.6g}, before the window end {window_hi:.6g}"
        )
    mask = (times >= n - 1e-12) & (times <= window_hi + 1e-12)
    idx = np.nonzero(mask & (samples <= 1.0 / (k + 1.0) + 1e-12))[0]
    if idx.size == 0:
        raise LemmaViolationError(
            f"no witness in [{n}, {window_hi:.6g}] for threshold 1/{k + 1}"
        )
    return float(times[idx[0]])


# -- modulus validity --------------------------------------------------------------


def modulus_check(
    op: AccretiveOperator,
    modulus: ConvergenceModulus,
    k_max: int = 5,
    cap_max: int = 10,
    n_samples: int = 10_000,
    rng: np.random.Generator | None = None,
    tol: float = 1e-9,
    max_counterexamples: int = 10,
) -> ModulusCheckReport:
    """Sample graph pairs and hunt for violations of the modulus contract.

    A counterexample is a pair within the norm cap whose pairing clears
    the modulus threshold while the projection distance stays large.
    """
    if rng is None:
        rng = np.random.default_rng(0)
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
        if len(counterexamples) >= max_counterexamples:
            break
    return ModulusCheckReport(
        samples_checked=checked,
        counterexamples=counterexamples,
        passed=not counterexamples,
    )


# -- trajectory-level checks ---------------------------------------------------------


def fejer_report(
    op: AccretiveOperator,
    traj: Trajectory,
    step_tol: float = STEP_MONOTONE_TOL,
) -> FejerReport:
    """Monotonicity of the zero-set distance along the trajectory, plus
    the two-sided step bound ||u(t+h) - u(t)|| <= 2||u(t) - Pu(t)||."""
    residual = projection_profile(op, traj)
    increments = np.diff(residual)
    steps = op.space.norms(np.diff(traj.values, axis=0))
    excess = steps - 2.0 * residual[:-1]
    return FejerReport(
        max_step_increase=float(np.max(increments)) if increments.size else 0.0,
        monotone=bool(np.all(increments <= step_tol)),
        max_stability_excess=float(np.max(excess)) if excess.size else 0.0,
        stable=bool(np.all(excess <= step_tol)),
    )


def first_order_trajectory(
    op: AccretiveOperator,
    x: np.ndarray,
    grid: TimeGrid,
    cfg: ExpFormulaConfig | None = None,
) -> Trajectory:
    """Orbit of the first-order semigroup sampled on the grid."""
    if cfg is None:
        cfg = ExpFormulaConfig(n_max=2**16)
    x = op.space.check(x)
    values = np.empty((grid.n_steps + 1, op.space.dim))
    converged = True
    for i, t in enumerate(grid.nodes):
        values[i], meta = semigroup_point(op, float(t), x, cfg)
        converged = converged and meta.converged
    traj = Trajectory(grid=grid, values=values, meta={"dynamics": "first_order"})
    traj.meta["exp_formula_converged"] = converged
    traj.meta["initial_point"] = x.copy()
    return traj


# -- almost-orbits ---------------------------------------------------------------


@dataclass(eq=False)
class AlmostOrbit:
    """Curve with a certified defect rate against the semigroup.

    Orbits compare and hash by identity, so a bundle can hold the samples
    of each orbit it sweeps in a dict keyed by the orbit itself.
    """

    kind: str
    description: str
    curve: Callable[[np.ndarray], np.ndarray]  # times -> one row per time
    phi_roc: Counterfunction
    phi_meta: MetastabilityRate
    trusted_horizon: float
    base: SqrtSemigroup
    certificate: dict = field(default_factory=dict)

    def evaluate(self, t: float) -> np.ndarray:
        return self.curve(np.array([t]))[0]

    def values(self, times) -> np.ndarray:
        return self.curve(np.asarray(times, dtype=float))


def _exp(xs: np.ndarray) -> np.ndarray:
    # math.exp, element by element: np.exp may differ from it in the last
    # ulp, and orbit samples must not move with the vectorization
    return np.array([math.exp(x) for x in xs.tolist()])


def make_almost_orbit(
    base: SqrtSemigroup,
    kind: str,
    v: np.ndarray | None = None,
    lam: float | None = None,
    delta: float | None = None,
    certify: bool = True,
    sample_ks: Sequence[int] = (0, 1, 2, 3),
    cert_tol: float = 5e-4,
) -> AlmostOrbit:
    """Construct an exact, additive-decay or time-warp almost-orbit.

    The additive-decay orbit needs ``v`` and ``lam``, the time warp
    needs ``delta``; their config defaults live in ``config.ORBITS``.
    The claimed defect rate is certified by sampling the defect
    sup_t ||u(s + t) - S(t)u(s)|| at s on and past the rate, against
    freshly solved restarts of the semigroup.
    """
    space = base.op.space
    if kind == "exact":
        orbit = AlmostOrbit(
            kind=kind,
            description="exact orbit",
            curve=base.at_many,
            phi_roc=Counterfunction.constant(0, "0"),
            phi_meta=MetastabilityRate.zero(),
            trusted_horizon=base.trusted_horizon,
            base=base,
        )
    elif kind == "additive_decay":
        if v is None or lam is None:
            raise ValueError("additive-decay orbit needs a direction v and a rate lam")
        if lam <= 0.0:
            raise ValueError("decay rate must be positive")
        v = space.check(v)
        nv = space.norm(v)

        def curve(ts: np.ndarray) -> np.ndarray:
            return base.at_many(ts) + _exp(-lam * ts)[:, None] * v

        def roc(k: int) -> int:
            # defect <= 2 ||v|| e^{-lam s} by contraction + triangle inequality
            if nv == 0.0:
                return 0
            return max(0, math.ceil(math.log(2.0 * nv * (k + 1)) / lam))

        orbit = AlmostOrbit(
            kind=kind,
            description=f"additive decay |v|={nv:g}, lam={lam:g}",
            curve=curve,
            phi_roc=Counterfunction(roc, f"additive-decay rate lam={lam:g}"),
            phi_meta=MetastabilityRate.from_convergence_rate(
                roc, "additive-decay metastability"
            ),
            trusted_horizon=base.trusted_horizon,
            base=base,
        )
    elif kind == "time_warp":
        if delta is None or delta <= 0.0:
            raise ValueError("time-warp offset must be positive")
        if delta >= base.solver.margin:
            raise ValueError("time-warp offset must stay inside the margin")
        deriv = base.trajectory.derivative()
        lip = float(np.max(space.norms(deriv)))

        def curve(ts: np.ndarray) -> np.ndarray:
            return base.at_many(ts + delta * _exp(-ts))

        def roc(k: int) -> int:
            # |u(t+s) - S(t)u(s)| <= lip * delta * e^{-s}, sampled Lipschitz bound
            level = lip * delta * (k + 1)
            if level <= 1.0:
                return 0
            return max(0, math.ceil(math.log(level)))

        orbit = AlmostOrbit(
            kind=kind,
            description=f"time warp delta={delta:g}",
            curve=curve,
            phi_roc=Counterfunction(roc, f"time-warp rate delta={delta:g}"),
            phi_meta=MetastabilityRate.from_convergence_rate(
                roc, "time-warp metastability"
            ),
            trusted_horizon=base.trusted_horizon - delta,
            base=base,
        )
    else:
        raise ValueError(f"unknown almost-orbit kind: {kind}")

    if certify:
        _certify_orbit(orbit, sample_ks, cert_tol)
    return orbit


def _certify_orbit(orbit: AlmostOrbit, sample_ks: Sequence[int], cert_tol: float) -> None:
    base = orbit.base
    restarts: dict[float, SqrtSemigroup] = {}
    worst = 0.0
    records = []
    for k in sample_ks:
        s = float(orbit.phi_roc(int(k)))
        if s >= orbit.trusted_horizon - 1.0:
            raise OrbitConstructionError(
                f"defect rate {s} for k={k} leaves no certifiable window"
            )
        if s not in restarts:
            restarts[s] = base.restart_from(orbit.evaluate(s))
        restart = restarts[s]
        t_max = min(orbit.trusted_horizon - s, restart.trusted_horizon)
        ts = np.linspace(0.0, t_max, 33)
        gaps = orbit.values(s + ts) - restart.at_many(ts)
        defect = max(float(base.op.space.norm(gap)) for gap in gaps)
        worst = max(worst, defect)
        records.append({"k": int(k), "s": s, "defect": defect})
        if defect > 1.0 / (k + 1.0) + cert_tol:
            raise OrbitConstructionError(
                f"{orbit.description}: defect {defect:.3e} at s={s} exceeds "
                f"1/{k + 1} + {cert_tol}"
            )
    orbit.certificate = {"samples": records, "worst_defect": worst}


# -- sweep machinery ----------------------------------------------------------------


def _suffix_pair_sup(values: np.ndarray, space) -> np.ndarray:
    """suffix[i] = sup over j, l >= i of ||v_j - v_l|| (space norm).

    Rows are taken in blocks of SUFFIX_CHUNK against every later sample:
    each block's upper-triangle row maxima, then one reversed running
    maximum.  Every norm is taken over the same difference vector as in
    the full n x n x dim tensor, so the profile is exactly the same.
    """
    n = values.shape[0]
    ord_ = None if space.kind == "hilbert" else space.p
    row_max = np.empty(n)
    for a in range(0, n, SUFFIX_CHUNK):
        b = min(a + SUFFIX_CHUNK, n)
        dist = np.linalg.norm(values[a:b, None, :] - values[None, a:, :], ord=ord_, axis=2)
        row_max[a:b] = np.triu(dist).max(axis=1)
    return np.maximum.accumulate(row_max[::-1])[::-1]


class SampleSet:
    """One curve sampled at sorted times, with the quantities the sweeps
    derive from the samples, each computed at most once."""

    def __init__(self, op: AccretiveOperator, times: np.ndarray, values: np.ndarray):
        self.op = op
        self.times = times
        self.values = values
        self._diameters: dict[tuple[int, int], float] = {}

    @cached_property
    def suffix(self) -> np.ndarray:
        """Suffix-diameter profile: sup of pairwise distances from i on."""
        return _suffix_pair_sup(self.values, self.op.space)

    @cached_property
    def graph_bound(self) -> int:
        """Worst operator graph bound over the samples (0 when empty).

        ceil(max(||x||, d(0, Ax))) is taken over all rows at once.  Rows
        within rounding of an integer, where the batched norms could round
        the other way than ``op.graph_bound``, are redone row by row, so
        the result is the row-by-row maximum.
        """
        op, rows = self.op, self.values
        level = np.maximum(op.space.norms(rows), op.space.norms(op.select_many(rows)))
        near = np.abs(level - np.rint(level)) <= 1e-9 * np.maximum(level, 1.0)
        batched = int(np.ceil(level[~near]).max(initial=0))
        return max([batched] + [op.graph_bound(row) for row in rows[near]])

    @cached_property
    def _residual(self) -> np.ndarray | None:
        """Zero-set residual at the samples, None unless it is monotone."""
        residual = self.op.space.norms(self.values - self.op.project_zeros_many(self.values))
        increments = np.diff(residual)
        if increments.size and np.max(increments) > 10 * STEP_MONOTONE_TOL:
            return None
        return residual

    def residual_threshold(self, level: float) -> float | None:
        """First sample time where the residual drops to level, provided
        the sampled residual is monotone."""
        if self._residual is None:
            return None
        idx = np.nonzero(self._residual <= level)[0]
        if idx.size == 0:
            return None
        return float(self.times[idx[0]])

    def window_diameter(self, start: int, width: int, horizon: float) -> float:
        """Diameter of the samples in [start, start + width]; inf when the
        window leaves the horizon, 0 when it holds at most one sample.

        The window is the contiguous index range that the time mask
        times in [start - 1e-9, start + width + 1e-9] selects; its
        diameter is memoized by that range.
        """
        if start + width > horizon + 1e-9:
            return math.inf
        lo = int(np.searchsorted(self.times, start - 1e-9, side="left"))
        hi = int(np.searchsorted(self.times, start + width + 1e-9, side="right"))
        if hi - lo < 2:
            return 0.0
        key = (lo, hi)
        if key not in self._diameters:
            self._diameters[key] = float(_suffix_pair_sup(self.values[lo:hi], self.op.space)[0])
        return self._diameters[key]


@dataclass
class ScenarioBundle:
    """Everything a sweep needs about one scenario, solved and sampled."""

    scenario_id: str
    op: AccretiveOperator
    x: np.ndarray
    modulus: ConvergenceModulus
    trajectory: Trajectory
    trusted_horizon: float
    omega: Callable[[int, int], int] | None = None
    b_override: float | None = None
    d_override: float | None = None
    orbit_bound_override: int | None = None
    num_tol: float = 2e-6
    sample_points: int = 500
    orbits: list[AlmostOrbit] = field(default_factory=list)

    def __post_init__(self):
        grid = self.trajectory.grid
        stride = max(grid.step, self.trusted_horizon / self.sample_points)
        idx = np.unique(
            np.round(
                np.arange(0.0, self.trusted_horizon + 1e-9, stride) / grid.step
            ).astype(int)
        )
        idx = idx[idx <= grid.n_steps]
        self.sample_times = grid.nodes[idx]
        self.sample_values = self.trajectory.values[idx]
        self.samples = SampleSet(self.op, self.sample_times, self.sample_values)
        self._orbit_samples: dict[AlmostOrbit, SampleSet] = {}
        self._residual = projection_profile(self.op, self.trajectory)

    def orbit_samples(self, orbit: AlmostOrbit) -> SampleSet:
        """The orbit at the sample times inside its trusted horizon,
        evaluated once per orbit and shared by every sweep over it."""
        samples = self._orbit_samples.get(orbit)
        if samples is None:
            times = self.sample_times[self.sample_times <= orbit.trusted_horizon]
            samples = SampleSet(self.op, times, orbit.values(times))
            self._orbit_samples[orbit] = samples
        return samples

    # -- rate data -------------------------------------------------------------

    def point_rate_data(self) -> ScenarioRateData:
        space = self.op.space
        norm_x = space.norm(self.x)
        dist_proj = space.norm(self.x - self.op.project_zeros(self.x))
        # the identity modulus is valid whenever the zero-set projection is
        # nonexpansive (always in the Hilbert kind); configs may override
        omega = self.omega if self.omega is not None else (lambda r, k: k)
        return ScenarioRateData.for_point(
            m_const=space.M,
            norm_x=norm_x,
            dist_proj=dist_proj,
            dist_zero=self.op.dist_zero(self.x),
            b=self.b_override,
            d_budget=self.d_override,
            omega=omega,
        )

    def orbit_rate_data(self, orbit: AlmostOrbit) -> ScenarioRateData:
        space = self.op.space
        p = self.op.zero_point
        samples = self.orbit_samples(orbit)
        sup_dev = float(np.max(space.norms(samples.values - p[None, :])))
        orbit_bound = self.orbit_bound_override
        if orbit_bound is None:
            orbit_bound = max(1, math.ceil(sup_dev - 1e-9))
        worst = samples.graph_bound

        # one uniform bound for the whole family: valid at every orbit
        # index (horizon-certified), and constant in s so the enumerated
        # maxima in the metastability functionals collapse
        def family(s: int) -> Counterfunction:
            return Counterfunction.constant(worst, "graph bound over the orbit")

        base = self.point_rate_data()
        return ScenarioRateData(
            m_const=base.m_const,
            norm_x=base.norm_x,
            dist_proj=base.dist_proj,
            dist_zero=base.dist_zero,
            b=base.b,
            d_budget=base.d_budget,
            orbit_bound=orbit_bound,
            omega=base.omega,
            f_family=family,
        )

    # -- sampled profiles --------------------------------------------------------

    def residual_threshold(self, level: float) -> float | None:
        """First grid time where the projection residual drops to level,
        provided the residual is monotone on the horizon."""
        increments = np.diff(self._residual)
        if increments.size and np.max(increments) > STEP_MONOTONE_TOL:
            return None
        idx = np.nonzero(self._residual <= level)[0]
        if idx.size == 0:
            return None
        return float(self.trajectory.times[idx[0]])


def _cauchy_report(
    bundle: ScenarioBundle,
    theorem: str,
    k: int,
    bound: int,
    f_desc: str,
    samples: SampleSet,
    residual_threshold: Callable[[float], float | None],
) -> RateReport:
    eps = 1.0 / (k + 1.0)
    times = samples.times
    suffix = samples.suffix
    ok_mask = suffix <= eps + bundle.num_tol
    idx_ok = np.nonzero(ok_mask)[0]
    observed = float(times[idx_ok[0]]) if idx_ok.size else math.inf
    horizon = float(times[-1]) if times.size else 0.0
    if bound <= horizon:
        at_bound = int(np.searchsorted(times, bound - 1e-9))
        at_bound = min(at_bound, len(times) - 1)
        passed = bool(suffix[at_bound] <= eps + bundle.num_tol)
        extrapolated = False
    else:
        extrapolated = True
        tau = residual_threshold(eps / 2.0)
        passed = tau is not None
        if passed and not math.isfinite(observed):
            observed = tau
    margin = bound - observed if math.isfinite(observed) else -math.inf
    return RateReport(
        scenario=bundle.scenario_id,
        theorem=theorem,
        k=k,
        f_desc=f_desc,
        bound=bound,
        observed=observed,
        margin=margin,
        passed=passed,
        extrapolated=extrapolated,
    )


def _sweep_interior(bundle: ScenarioBundle, ks: Sequence[int]) -> list[RateReport]:
    data = bundle.point_rate_data()
    reports = []
    for k in ks:
        bound = semigroup_cauchy_rate(int(k), bundle.modulus, data)
        reports.append(
            _cauchy_report(
                bundle, "4.1", int(k), bound, "", bundle.samples, bundle.residual_threshold
            )
        )
    return reports


def _sweep_closure(
    bundle: ScenarioBundle, ks: Sequence[int], f_dom: Counterfunction
) -> list[RateReport]:
    data = bundle.point_rate_data()
    reports = []
    for k in ks:
        bound = closure_cauchy_rate(int(k), bundle.modulus, f_dom, data)
        reports.append(
            _cauchy_report(
                bundle,
                "4.2",
                int(k),
                bound,
                f_dom.description,
                bundle.samples,
                bundle.residual_threshold,
            )
        )
    return reports


def _sweep_metastable(
    bundle: ScenarioBundle,
    ks: Sequence[int],
    counterfunctions: Sequence[Counterfunction],
    orbits: Sequence[AlmostOrbit],
) -> list[RateReport]:
    reports = []
    for orbit in orbits:
        data = bundle.orbit_rate_data(orbit)
        samples = bundle.orbit_samples(orbit)
        horizon = float(samples.times[-1]) if samples.times.size else 0.0
        for k in ks:
            eps = 1.0 / (int(k) + 1.0)
            for f in counterfunctions:
                bound = cauchy_metastability_rate(
                    int(k), f, orbit.phi_meta, bundle.modulus, data
                )
                witness = None
                n = 0
                while n <= bound and n <= horizon:
                    if samples.window_diameter(n, f(n), horizon) <= eps + bundle.num_tol:
                        witness = n
                        break
                    n += 1
                if witness is not None:
                    report = RateReport(
                        scenario=f"{bundle.scenario_id}/{orbit.kind}",
                        theorem="5.1",
                        k=int(k),
                        f_desc=f.description,
                        bound=bound,
                        observed=float(witness),
                        margin=bound - float(witness),
                        passed=True,
                        extrapolated=False,
                    )
                else:
                    tau = samples.residual_threshold(eps / 2.0)
                    report = RateReport(
                        scenario=f"{bundle.scenario_id}/{orbit.kind}",
                        theorem="5.1",
                        k=int(k),
                        f_desc=f.description,
                        bound=bound,
                        observed=tau if tau is not None else math.inf,
                        margin=bound - tau if tau is not None else -math.inf,
                        passed=tau is not None,
                        extrapolated=True,
                    )
                reports.append(report)
    return reports


def _sweep_roc(
    bundle: ScenarioBundle, ks: Sequence[int], orbits: Sequence[AlmostOrbit]
) -> list[RateReport]:
    reports = []
    for orbit in orbits:
        data = bundle.orbit_rate_data(orbit)
        samples = bundle.orbit_samples(orbit)
        for k in ks:
            bound = almost_orbit_cauchy_rate(
                int(k), orbit.phi_roc, bundle.modulus, data
            )
            report = _cauchy_report(
                bundle,
                "5.3",
                int(k),
                bound,
                orbit.phi_roc.description,
                samples,
                samples.residual_threshold,
            )
            reports.append(
                replace(report, scenario=f"{bundle.scenario_id}/{orbit.kind}")
            )
    return reports


def sweep_theorem(
    bundle: ScenarioBundle,
    theorem: str,
    ks: Sequence[int],
    counterfunctions: Sequence[Counterfunction] | None = None,
    orbits: Sequence[AlmostOrbit] | None = None,
    f_dom: Counterfunction | None = None,
) -> list[RateReport]:
    """Run one theorem sweep over the precision range ``ks``."""
    if theorem == "4.1":
        return _sweep_interior(bundle, ks)
    if theorem == "4.2":
        if f_dom is None:
            f_dom = Counterfunction.constant(
                bundle.op.graph_bound(bundle.x), "graph bound at x"
            )
        return _sweep_closure(bundle, ks, f_dom)
    if theorem == "5.1":
        if not counterfunctions:
            raise ContractError("metastability sweep needs counterfunctions")
        orbits = orbits if orbits is not None else bundle.orbits
        if not orbits:
            raise ContractError("metastability sweep needs at least one orbit")
        return _sweep_metastable(bundle, ks, counterfunctions, orbits)
    if theorem == "5.3":
        orbits = orbits if orbits is not None else bundle.orbits
        if not orbits:
            raise ContractError("rate-of-convergence sweep needs at least one orbit")
        return _sweep_roc(bundle, ks, orbits)
    raise ContractError(f"unknown theorem id {theorem!r}")
