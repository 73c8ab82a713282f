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
  realizes the target inequality.  Without a witness the report is
  extrapolated only when the search stopped at the horizon before the
  bound or some window left the horizon; otherwise it fails.

The module also houses the liminf search behind the window-length
formula, the empirical modulus validity check, and the almost-orbit
constructions with certified defect rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from decimal import Decimal
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .counterfunctions import Counterfunction, MetastabilityRate
from .errors import (
    CauchyLabError,
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
    SolverConfig,
    SqrtSemigroup,
    TimeGrid,
    Trajectory,
    projection_profile,
)
# semigroup_point stays importable from here: perfbench/spans.py counts
# its calls under this name
from .semigroup import ExpFormulaConfig, semigroup_point, semigroup_points  # noqa: F401
from .spaces import SAMPLE_CHUNK

STEP_MONOTONE_TOL = 1e-6
# rows per block of the sweep kernels: a block holds two SUFFIX_CHUNK x n
# float buffers (Euclidean, below _SEQUENTIAL_DIM coordinates) or a
# SUFFIX_CHUNK x n x dim difference tensor, so memory grows linearly in n
SUFFIX_CHUNK = 64
# numpy's add.reduce sums fewer terms than this strictly in order
_SEQUENTIAL_DIM = 8
# pairs of a block's leading square with an earlier sample
_LOWER = np.tri(SUFFIX_CHUNK, k=-1, dtype=bool)


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
    n_samples: int = 2_000,
    rng: np.random.Generator | None = None,
    tol: float = 1e-9,
    max_counterexamples: int = 10,
) -> ModulusCheckReport:
    """Sample graph pairs and hunt for violations of the modulus contract.

    A counterexample is a pair within the norm cap whose pairing clears
    the modulus threshold while the projection distance stays large.
    Samples are drawn in blocks, caps first, and each block is judged at
    once against a lazily built (k, cap) table of thresholds.  The check
    stops at the ``max_counterexamples``-th counterexample, and
    ``samples_checked`` counts the samples within the caps up to it.  A
    modulus that fails at an entry raises when a sample up to that stop
    needs the entry.  A check that judged no sample does not pass.

    Only samples with ||x|| and ||Ax|| within the cap are judged, so a
    linear operator's points (A = B) are scaled by 1 / max(1, ||B||_2)
    after the draw: the random stream is the same, and every draw with
    ||x|| within the cap is judged however large ||B|| is.
    """
    if max_counterexamples < 1:
        raise ContractError("max_counterexamples must be positive")
    if rng is None:
        rng = np.random.default_rng(0)
    space = op.space
    counterexamples = []
    checked = 0
    table: dict[tuple[int, int], float] = {}
    failures: dict[tuple[int, int], CauchyLabError] = {}
    b = op.linear_matrix
    spread = 1.0 if b is None else max(1.0, float(np.linalg.norm(b, 2)))

    def threshold(k: int, cap: int) -> float:
        if (k, cap) not in table:
            try:
                table[k, cap] = 1.0 / (modulus(k, cap) + 1.0)
            except CauchyLabError as exc:
                table[k, cap] = math.nan  # raised by the first sample that needs it
                failures[k, cap] = exc
        return table[k, cap]

    for start in range(0, n_samples, SAMPLE_CHUNK):
        size = min(SAMPLE_CHUNK, n_samples - start)
        caps = rng.integers(1, cap_max + 1, size=size)
        xs = rng.uniform(-caps[:, None], caps[:, None], size=(size, space.dim)) / spread
        ys = op.select_many(xs)
        inside = (space.norms(xs) <= caps) & (space.norms(ys) <= caps)
        v = xs - op.project_zeros_many(xs)
        pairing = np.einsum("ij,ij->i", space.duality_map_many(v), ys)
        dist = space.norms(v)
        # per row, the k of its counterexample and the k of a failing
        # modulus entry it needs, -1 for none
        hit_k = np.full(size, -1)
        failed_k = np.full(size, -1)
        open_rows = np.flatnonzero(inside)
        for k in range(k_max + 1):
            if not open_rows.size:
                break
            levels, where = np.unique(caps[open_rows], return_inverse=True)
            thr = np.array([threshold(k, int(c)) for c in levels])[where]
            unknown = np.isnan(thr)
            failed_k[open_rows[unknown]] = k
            violated = (pairing[open_rows] <= thr) & (dist[open_rows] > 1.0 / (k + 1.0) + tol)
            hit_k[open_rows[violated]] = k
            open_rows = open_rows[~(violated | unknown)]
        room = max_counterexamples - len(counterexamples)
        hits = np.flatnonzero(hit_k >= 0)[:room]
        # the last row judged: the stopping counterexample, or the block's end
        stop = hits[-1] if hits.size == room else size - 1
        needs = np.flatnonzero(failed_k[: stop + 1] >= 0)
        if needs.size:
            raise failures[int(failed_k[needs[0]]), int(caps[needs[0]])]
        for i in hits:
            counterexamples.append(
                {
                    "x": xs[i].tolist(),
                    "y": ys[i].tolist(),
                    "k": int(hit_k[i]),
                    "cap": int(caps[i]),
                    "pairing": float(pairing[i]),
                    "dist": float(dist[i]),
                }
            )
        checked += int(np.count_nonzero(inside[: stop + 1]))
        if len(counterexamples) >= max_counterexamples:
            break
    return ModulusCheckReport(
        samples_checked=checked,
        counterexamples=counterexamples,
        passed=checked > 0 and not counterexamples,
    )


# -- trajectory-level checks ---------------------------------------------------------


def _max_increase(profile: np.ndarray) -> float:
    """Largest step-to-step increase of a profile, 0.0 below two entries."""
    increments = np.diff(profile)
    return float(np.max(increments)) if increments.size else 0.0


def fejer_report(
    op: AccretiveOperator,
    traj: Trajectory,
    step_tol: float = STEP_MONOTONE_TOL,
) -> FejerReport:
    """Monotonicity of the zero-set distance along the trajectory, plus
    the two-sided step bound ||u(t+h) - u(t)|| <= 2||u(t) - Pu(t)||."""
    residual = projection_profile(op, traj.values)
    rise = _max_increase(residual)
    steps = op.space.norms(np.diff(traj.values, axis=0))
    excess = steps - 2.0 * residual[:-1]
    return FejerReport(
        max_step_increase=rise,
        monotone=rise <= step_tol,
        max_stability_excess=float(np.max(excess)) if excess.size else 0.0,
        stable=bool(np.all(excess <= step_tol)),
    )


def first_order_trajectory(
    op: AccretiveOperator,
    x: np.ndarray,
    grid: TimeGrid,
    cfg: ExpFormulaConfig | None = None,
) -> Trajectory:
    """Orbit of the first-order semigroup sampled on the grid; ``cfg``
    defaults to the ``SolverConfig`` cap on the formula's n."""
    if cfg is None:
        cfg = ExpFormulaConfig(n_max=SolverConfig.first_order_n_max)
    x = op.space.check(x)
    values, _, _, converged = semigroup_points(op, grid.nodes, x, cfg)
    traj = Trajectory(grid=grid, values=values, meta={"dynamics": "first_order"})
    traj.meta["exp_formula_converged"] = bool(np.all(converged))
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


def _euclidean(space) -> bool:
    # np.linalg.norm takes ord = 2 down its sum-of-squares path as well
    return space.kind == "hilbert" or space.p == 2.0


def _upper_row_max(values: np.ndarray, space) -> np.ndarray:
    """row[i] = max over l >= i of the pair key of v_i and v_l: the
    squared distance in a Euclidean space, the distance in l^p.

    Rows are taken in blocks of SUFFIX_CHUNK against every sample from
    the block's first on.  A Euclidean block below _SEQUENTIAL_DIM
    coordinates is summed one coordinate at a time in two (rows, n)
    buffers; any other block is numpy's own expression over the
    difference tensor.  Only the leading square of a block pairs a row
    with earlier samples; it is masked with -1, below every key.
    """
    n, dim = values.shape
    euclidean = _euclidean(space)
    by_column = euclidean and dim < _SEQUENTIAL_DIM
    if by_column:
        cols = np.ascontiguousarray(values.T)
        buf = np.empty((2, min(SUFFIX_CHUNK, n) * n))
    row = np.empty(n)
    for a in range(0, n, SUFFIX_CHUNK):
        b = min(a + SUFFIX_CHUNK, n)
        if by_column:
            shape = (b - a, n - a)
            key, term = (flat[: shape[0] * shape[1]].reshape(shape) for flat in buf)
            for k, col in enumerate(cols):
                out = term if k else key
                np.subtract(col[a:b, None], col[None, a:], out=out)
                np.multiply(out, out, out=out)
                if k:
                    key += term
        else:
            diff = values[a:b, None, :] - values[None, a:, :]
            if euclidean:
                key = np.add.reduce(diff * diff, axis=2)
            else:
                key = np.linalg.norm(diff, ord=space.p, axis=2)
        np.copyto(key[:, : b - a], -1.0, where=_LOWER[: b - a, : b - a])
        row[a:b] = key.max(axis=1)
    return row


def _key_distance(key, space):
    return np.sqrt(key) if _euclidean(space) else key


def _suffix_pair_sup(values: np.ndarray, space) -> np.ndarray:
    """suffix[i] = sup over j, l >= i of ||v_j - v_l|| (space norm).

    The reversed running maximum of ``_upper_row_max``, bit for bit the
    profile of the full n x n x dim distance tensor of ``np.linalg.norm``:

    * every key sums the same squares in numpy's order.  Below
      _SEQUENTIAL_DIM coordinates ``add.reduce`` sums them one after the
      other, as the per-coordinate sum does; from there on it sums in
      unrolled blocks, and those blocks keep numpy's reduction;
    * a Euclidean space takes one square root per row, after the
      maximum: IEEE sqrt is correctly rounded, hence monotone, so the
      root of a maximum is the maximum of the roots;
    * l^p keeps numpy's root per pair: libm ``pow`` is not correctly
      rounded, so a root after the maximum is not provably equal.
    """
    row = _upper_row_max(values, space)
    return _key_distance(np.maximum.accumulate(row[::-1])[::-1], space)


def _pair_sup(values: np.ndarray, space) -> float:
    """max over j, l of ||v_j - v_l||: ``_suffix_pair_sup(values, space)[0]``
    without the profile, and one square root in all."""
    return float(_key_distance(_upper_row_max(values, space).max(), space))


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
        """Worst operator graph bound over the samples (0 when empty)."""
        return int(self.op.graph_bound_many(self.values).max(initial=0))

    @cached_property
    def _residual(self) -> np.ndarray | None:
        """Zero-set residual at the samples, None unless it is monotone:
        no increment above STEP_MONOTONE_TOL, the rule of ``fejer_report``."""
        residual = projection_profile(self.op, self.values)
        return residual if _max_increase(residual) <= STEP_MONOTONE_TOL else None

    def residual_threshold(self, level: float) -> float | None:
        """First sample time where the residual drops to level, provided
        the sampled residual is monotone."""
        hits = [] if self._residual is None else np.flatnonzero(self._residual <= level)
        return float(self.times[hits[0]]) if len(hits) else None

    def window_diameter(self, start: int, width: int, horizon: float) -> float:
        """Diameter of the samples in [start, start + width]; inf when the
        window leaves the horizon, 0 when it holds at most one sample.

        The window is the contiguous index range that the time mask
        times in [start - 1e-9, start + width + 1e-9] selects.  Its
        diameter, ``_pair_sup`` of that range, is one maximum over all its
        pairs, equal bit for bit to the first entry of its suffix profile,
        and is memoized by the range.
        """
        if start + width > horizon + 1e-9:
            return math.inf
        lo = int(np.searchsorted(self.times, start - 1e-9, side="left"))
        hi = int(np.searchsorted(self.times, start + width + 1e-9, side="right"))
        if hi - lo < 2:
            return 0.0
        key = (lo, hi)
        if key not in self._diameters:
            self._diameters[key] = _pair_sup(self.values[lo:hi], self.op.space)
        return self._diameters[key]


@dataclass
class ScenarioBundle:
    """Everything a sweep needs about one scenario, solved and sampled.

    ``solver`` is the trajectory's solver setup: its trusted horizon and
    ``sample_points`` set the samples, and its ``num_tol`` the allowance
    of every distance comparison.  The rate data b, D, B and omega are
    computed from the scenario, never supplied."""

    scenario_id: str
    op: AccretiveOperator
    x: np.ndarray
    modulus: ConvergenceModulus
    trajectory: Trajectory
    solver: SolverConfig
    orbits: list[AlmostOrbit] = field(default_factory=list)

    def __post_init__(self):
        grid = self.trajectory.grid
        trusted = self.solver.trusted_horizon
        stride = max(grid.step, trusted / self.solver.sample_points)
        idx = np.unique(
            np.round(np.arange(0.0, trusted + 1e-9, stride) / grid.step).astype(int)
        )
        idx = idx[idx <= grid.n_steps]
        self.sample_times = grid.nodes[idx]
        self.sample_values = self.trajectory.values[idx]
        self.samples = SampleSet(self.op, self.sample_times, self.sample_values)
        # every grid node, for the residual of the 4.1 and 4.2 sweeps only:
        # its suffix profile is never built
        self.grid_samples = SampleSet(self.op, self.trajectory.times, self.trajectory.values)
        self._orbit_samples: dict[AlmostOrbit, SampleSet] = {}

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
        return ScenarioRateData.for_point(
            m_const=space.M,
            norm_x=norm_x,
            dist_proj=dist_proj,
            dist_zero=self.op.dist_zero(self.x),
            # the identity modulus: every catalog zero-set projection is
            # nonexpansive
            omega=lambda r, k: k,
        )

    def orbit_rate_data(self, orbit: AlmostOrbit) -> ScenarioRateData:
        space = self.op.space
        samples = self.orbit_samples(orbit)
        # deviation from the origin, which every catalog zero set contains
        sup_dev = float(np.max(space.norms(samples.values)))
        orbit_bound = max(1, math.ceil(sup_dev - 1e-9))
        worst = samples.graph_bound

        # one uniform bound for the whole family: valid at every orbit
        # index (horizon-certified), and constant in s so the enumerated
        # maxima in the metastability functionals collapse
        def family(s: int) -> Counterfunction:
            return Counterfunction.constant(worst, "graph bound over the orbit")

        return replace(self.point_rate_data(), orbit_bound=orbit_bound, f_family=family)


def _margin(bound: int, observed: float) -> float:
    """bound - observed, -inf when nothing was observed."""
    if not math.isfinite(observed):
        return -math.inf
    try:
        return bound - observed
    except OverflowError:  # an integer bound beyond the float range
        raise ContractError(f"rate bound {Decimal(bound):.3e} exceeds the float range") from None


def _observe(
    theorem: str, eps: float, level: float, bound: int, f, samples: SampleSet, residual: SampleSet
) -> tuple[float, bool, bool]:
    """(observed, passed, extrapolated) of one report at precision eps.

    5.1 searches for the first n <= bound whose window [n, n + f(n)] has
    diameter at most ``level``; the other theorems read the suffix profile
    at the bound.  When the samples cannot decide (the bound, or for 5.1
    the search or one of its windows, lies beyond the horizon), the
    monotone residual of ``residual`` certifies the report instead.
    """
    times = samples.times
    horizon = float(times[-1]) if times.size else 0.0
    if theorem == "5.1":
        n, left = 0, False  # left: some window left the horizon
        while n <= bound and n <= horizon:
            diameter = samples.window_diameter(n, f(n), horizon)
            if diameter <= level:
                return float(n), True, False
            left = left or diameter == math.inf
            n += 1
        if n > bound and not left:  # every window up to the bound was sampled
            return math.inf, False, False
        observed = math.inf
    else:
        suffix = samples.suffix
        hits = np.nonzero(suffix <= level)[0]
        observed = float(times[hits[0]]) if hits.size else math.inf
        if bound <= horizon:
            at_bound = min(int(np.searchsorted(times, bound - 1e-9)), len(times) - 1)
            return observed, bool(suffix[at_bound] <= level), False
    tau = residual.residual_threshold(eps / 2.0)
    if tau is not None and not math.isfinite(observed):
        observed = tau
    return observed, tau is not None, True


def sweep_theorem(
    bundle: ScenarioBundle,
    theorem: str,
    ks: Sequence[int],
    counterfunctions: Sequence[Counterfunction] | None = None,
    orbits: Sequence[AlmostOrbit] | None = None,
    f_dom: Counterfunction | None = None,
) -> list[RateReport]:
    """Run one theorem sweep over the precision range ``ks``: one report
    per target, k and function, in that order.

    The target of 4.1 and 4.2 is the point x: its samples, with the
    residual taken at every grid node.  5.1 and 5.3 have one target per
    orbit (``bundle.orbits`` unless ``orbits`` is given), whose samples
    are their own residual.
    """
    if theorem in ("4.1", "4.2"):
        if theorem == "4.1":
            f_dom = None
        elif f_dom is None:
            f_dom = Counterfunction.constant(bundle.op.graph_bound(bundle.x), "graph bound at x")
        targets = [(bundle.samples, bundle.point_rate_data(), None)]
    elif theorem in ("5.1", "5.3"):
        if theorem == "5.1" and not counterfunctions:
            raise ContractError("metastability sweep needs counterfunctions")
        orbits = bundle.orbits if orbits is None else orbits
        if not orbits:
            raise ContractError(f"theorem {theorem} sweeps need at least one orbit")
        targets = [(bundle.orbit_samples(o), bundle.orbit_rate_data(o), o) for o in orbits]
    else:
        raise ContractError(f"unknown theorem id {theorem!r}")
    reports = []
    for samples, data, orbit in targets:
        if orbit is None:
            scenario, residual, fs = bundle.scenario_id, bundle.grid_samples, [f_dom]
        else:
            scenario, residual = f"{bundle.scenario_id}/{orbit.kind}", samples
            fs = counterfunctions if theorem == "5.1" else [orbit.phi_roc]
        for k in map(int, ks):
            eps = 1.0 / (k + 1.0)
            for f in fs:
                f_desc = f.description if f is not None else ""
                try:
                    if theorem == "4.1":
                        bound = semigroup_cauchy_rate(k, bundle.modulus, data)
                    elif theorem == "4.2":
                        bound = closure_cauchy_rate(k, bundle.modulus, f, data)
                    elif theorem == "5.1":
                        bound = cauchy_metastability_rate(
                            k, f, orbit.phi_meta, bundle.modulus, data
                        )
                    else:
                        bound = almost_orbit_cauchy_rate(k, f, bundle.modulus, data)
                    observed, passed, extrapolated = _observe(
                        theorem, eps, eps + bundle.solver.num_tol, bound, f, samples, residual
                    )
                    margin = _margin(bound, observed)
                except ContractError as exc:  # name the report that could not be made
                    source = f"theorem {theorem} sweep over {scenario} at k={k}"
                    source += f", f = {f_desc}" if f_desc else ""
                    raise ContractError(f"{source}: {exc}") from None
                reports.append(
                    RateReport(
                        scenario, theorem, k, f_desc, bound, observed, margin, passed, extrapolated
                    )
                )
    return reports
