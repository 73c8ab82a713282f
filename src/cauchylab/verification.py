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

Both are threshold questions, whether sampled pairs lie within the level
1/(k + 1) + NUM_TOL.  ``SampleSet`` answers them by a distance bound
where it suffices and by computed distances elsewhere, so each answer is
the one the full pairwise profile gives.

The module also declares two catalog tables of the config, each beside
the code that runs it: ``ORBITS``, the almost-orbit kinds and their
parameters, and ``THEOREMS``, each theorem's sweep keys and rate
functional.  It houses as well the liminf search behind the window-length
formula, the empirical modulus validity check, the almost-orbit
constructions with certified defect rates, and the first-order orbits in
closed form.
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
    SolverError,
)
from .operators import AccretiveOperator, norm_family_constant
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
from .spaces import SAMPLE_CHUNK

STEP_MONOTONE_TOL = 1e-6
# rows per block of the threshold queries: a block compares its rows with
# the columns the distance bound leaves open, in two SUFFIX_CHUNK x n float
# buffers (Euclidean, below _SEQUENTIAL_DIM coordinates) or a
# SUFFIX_CHUNK x n x dim difference tensor, so memory grows linearly in n
SUFFIX_CHUNK = 64
# numpy's add.reduce sums fewer terms than this strictly in order
_SEQUENTIAL_DIM = 8
# relative slack of the distance bound d_j + d_l: keys and norms round at
# about 1e-15 relative inside the levels SampleSet._budget admits
_BOUND_SLACK = 1e-9


# -- reports -------------------------------------------------------------------


@dataclass(frozen=True)
class RateReport:
    """Outcome of one sweep cell, written as one ``reports`` row by
    ``runner.reports_json_text``."""

    scenario: str
    theorem: str
    k: int
    f_desc: str
    bound: int
    observed: float
    margin: float
    passed: bool
    extrapolated: bool


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
    passed: bool


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


# the allowance of the modulus check's distance comparison, on top of 1/(k + 1)
MODULUS_TOL = 1e-9


def modulus_check(
    op: AccretiveOperator,
    modulus: ConvergenceModulus,
    k_max: int = 5,
    cap_max: int = 10,
    n_samples: int = 2_000,
    rng: np.random.Generator | None = None,
    max_counterexamples: int = 10,
) -> ModulusCheckReport:
    """Sample graph pairs and hunt for violations of the modulus contract.

    A counterexample is a pair within the norm cap whose pairing clears
    the modulus threshold while the projection distance stays large.
    The modulus is evaluated once, into a (k_max + 1) x cap_max table of
    thresholds 1/(modulus(k, cap) + 1), NaN where it raises.  Samples are
    drawn in blocks, caps first, and each block is judged against the
    table's columns of its caps for every k at once: a row stops at its
    first k that is a counterexample or needs a NaN entry.  The check
    stops at the ``max_counterexamples``-th counterexample, and
    ``samples_checked`` counts the samples within the caps up to it.  The
    modulus's error at an entry is raised when a sample up to that stop
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
    b = op.linear_matrix
    spread = 1.0 if b is None else max(1.0, float(np.linalg.norm(b, 2)))
    # table[k, cap - 1]; failures[k, cap] is raised by the first sample that needs it
    table = np.full((k_max + 1, cap_max), np.nan)
    failures: dict[tuple[int, int], CauchyLabError] = {}
    for k in range(k_max + 1):
        for cap in range(1, cap_max + 1):
            try:
                table[k, cap - 1] = 1.0 / (modulus(k, cap) + 1.0)
            except CauchyLabError as exc:
                failures[k, cap] = exc
    levels = 1.0 / (np.arange(k_max + 1.0) + 1.0)[:, None] + MODULUS_TOL

    for start in range(0, n_samples, SAMPLE_CHUNK):
        size = min(SAMPLE_CHUNK, n_samples - start)
        caps = rng.integers(1, cap_max + 1, size=size)
        xs = rng.uniform(-caps[:, None], caps[:, None], size=(size, space.dim)) / spread
        ys = op.select_many(xs)
        inside = (space.norms(xs) <= caps) & (space.norms(ys) <= caps)
        v = xs - op.project_zeros_many(xs)
        pairing = np.einsum("ij,ij->i", space.duality_map_many(v), ys)
        dist = space.norms(v)
        # each judged row stops at its first k that is a counterexample or
        # needs a failing entry: the k of either, -1 for none
        thr = table[:, caps - 1]
        violated = (pairing <= thr) & (dist > levels)
        at = ((violated | np.isnan(thr)) & inside).argmax(axis=0), np.arange(size)
        hit_k = np.where(violated[at] & inside, at[0], -1)
        failed_k = np.where(np.isnan(thr[at]) & inside, at[0], -1)
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


def fejer_report(op: AccretiveOperator, traj: Trajectory, profile=None) -> FejerReport:
    """Monotonicity of the zero-set distance along the trajectory, plus
    the two-sided step bound ||u(t+h) - u(t)|| <= 2||u(t) - Pu(t)||, each
    to STEP_MONOTONE_TOL.  The
    distances are ``profile.residual``, the residuals of the rows of
    ``traj.values`` that the run shares (its grid ``SampleSet``), computed
    here when not given."""
    if profile is None:
        profile = SampleSet(op, traj.times, traj.values)
    residual = profile.residual
    rise = _max_increase(residual)
    steps = op.space.norms(np.diff(traj.values, axis=0))
    excess = steps - 2.0 * residual[:-1]
    monotone = rise <= STEP_MONOTONE_TOL
    stable = bool(np.all(excess <= STEP_MONOTONE_TOL))
    return FejerReport(
        max_step_increase=rise,
        monotone=monotone,
        max_stability_excess=float(np.max(excess)) if excess.size else 0.0,
        stable=stable,
        passed=monotone and stable,
    )


def _expm(a: np.ndarray) -> np.ndarray:
    """e^a by scaling and squaring (Higham, SIAM J. Matrix Anal. Appl. 26,
    2005) around a degree-16 Taylor core: a is scaled by 2^-s to 1-norm at
    most 1/2, where the dropped terms are below 2^-17/17! < 1e-19.  No
    eigendecomposition, so a defective a is as accurate as any other."""
    s = max(0, int(np.frexp(np.linalg.norm(a, 1))[1]) + 1)
    a = a / 2.0**s
    eye = np.eye(a.shape[0])
    out = eye
    for j in range(16, 0, -1):
        out = eye + (a @ out) / j
    for _ in range(s):
        out = out @ out
    return out


def first_order_trajectory(op: AccretiveOperator, x: np.ndarray, grid: TimeGrid) -> Trajectory:
    """Orbit of the first-order semigroup, u' + Au = 0 with u(0) = x, in
    closed form at the grid nodes.

    A linear operator B flows by e^(-tB): node k is E^k x with E = e^(-hB),
    each power a product of the powers E^(2^j) by the binary digits of k.
    The norm subdifferential under strongly accretive shifts whose constants
    add up to c keeps u on the ray of x, and its radius solves
    rho' = -1 - c rho: rho(t) = rho0 e^(-ct) + expm1(-ct)/c (rho0 - t at
    c = 0) until the extinction time log1p(c rho0)/c (rho0 at c = 0), and 0
    from there on.  A flow that overflows is a ``SolverError``.
    """
    x = op.space.check(x)
    b = op.linear_matrix
    if b is not None:
        values = np.empty((grid.n_steps + 1, x.size))
        values[0] = x
        done = 1
        with np.errstate(over="ignore", invalid="ignore"):
            power = _expm(-(grid.horizon / grid.n_steps) * b)
            while done < values.shape[0]:
                more = min(done, values.shape[0] - done)
                values[done : done + more] = values[:more] @ power.T
                power = power @ power
                done += more
    else:
        c = norm_family_constant(op)
        if c is None:
            raise ValueError(f"no closed-form first-order flow for {type(op).__name__}")
        rho0, t = float(np.linalg.norm(x)), grid.nodes
        if c == 0.0:
            extinction, rho = rho0, rho0 - t
        else:
            extinction = math.log1p(c * rho0) / c
            rho = rho0 * np.exp(-c * t) + np.expm1(-c * t) / c
        live = (t < extinction) & (rho > 0.0)
        scale = np.divide(rho, rho0, out=np.zeros_like(t), where=live)
        values = scale[:, None] * x
    finite = np.isfinite(values).all(axis=1)
    if not finite.all():
        at = grid.nodes[np.argmin(finite)]
        raise SolverError(
            f"the first-order flow of {type(op).__name__} overflows the float range at t = {at:g}"
        )
    return Trajectory(grid=grid, values=values)


# perfbench/spans.py looks this name up in the module and counts its calls
semigroup_point = first_order_trajectory


# -- almost-orbits ---------------------------------------------------------------


@dataclass(frozen=True)
class OrbitParam:
    """An almost-orbit parameter: a vector of the space's dimension when
    ``default`` is None, else a number that ``valid(value, margin)``
    must accept."""

    help: str
    default: float | None = None
    valid: Callable[[float, float], bool] | None = None


# the almost-orbit kinds, their parameters and config defaults: the loader
# and make_almost_orbit check an orbit against them
ORBITS = {
    "exact": {},
    "additive_decay": {
        "v": OrbitParam("vector"),
        "lam": OrbitParam("decay rate > 0", 1.0, lambda lam, margin: lam > 0.0),
    },
    "time_warp": {
        "delta": OrbitParam("offset in (0, margin)", 0.5, lambda d, margin: 0.0 < d < margin)
    },
}

# the precisions k at which an orbit's claimed defect rate is sampled, and
# the allowance of each sampled defect on top of 1/(k + 1)
CERT_KS = (0, 1, 2, 3)
CERT_TOL = 5e-4


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
    trusted_horizon: float
    base: SqrtSemigroup
    certificate: dict = field(default_factory=dict)

    @property
    def phi_meta(self) -> MetastabilityRate:
        """The metastability rate of every kind: its rate of convergence,
        whatever the counterfunction."""
        return MetastabilityRate.from_convergence_rate(
            self.phi_roc.fn, f"{self.kind} metastability"
        )

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
) -> AlmostOrbit:
    """Construct an exact, additive-decay or time-warp almost-orbit.

    Each parameter of ``kind`` is checked against its ``ORBITS`` entry, as
    the loader checks a config's, and a rejected one raises a ValueError
    with the loader's message: the additive-decay orbit needs ``v`` and
    ``lam``, the time warp needs ``delta``.  The claimed defect rate is
    certified at each k of ``CERT_KS`` by sampling the defect
    sup_t ||u(s + t) - S(t)u(s)|| at s on and past the rate, against
    freshly solved restarts of the semigroup.
    """
    if kind not in ORBITS:
        raise ValueError(f"unknown almost-orbit kind: {kind}")
    space = base.op.space
    given = {"v": v, "lam": lam, "delta": delta}
    for name, param in ORBITS[kind].items():
        value = given[name]
        if value is None or not (
            math.isfinite(space.norm(value))  # the defect rate takes log ||v||
            if param.default is None
            else param.valid(value, base.solver.margin)
        ):
            raise ValueError(f"{kind} {name} must be {param.help}")
    horizon = base.trusted_horizon
    if kind == "exact":
        description, rate, curve, roc = "exact orbit", "0", base.at_many, lambda k: 0
    elif kind == "additive_decay":
        v = space.check(v)
        nv = space.norm(v)
        description = f"additive decay |v|={nv:g}, lam={lam:g}"
        rate = f"additive-decay rate lam={lam:g}"

        def curve(ts: np.ndarray) -> np.ndarray:
            return base.at_many(ts) + _exp(-lam * ts)[:, None] * v

        def roc(k: int) -> int:
            # defect <= 2 ||v|| e^{-lam s} by contraction + triangle inequality;
            # log ||v|| apart, since 2 ||v|| (k + 1) may overflow
            if nv == 0.0:
                return 0
            return max(0, math.ceil((math.log(nv) + math.log(2.0 * (k + 1))) / lam))

    else:
        description, rate = f"time warp delta={delta:g}", f"time-warp rate delta={delta:g}"
        horizon -= delta
        lip = float(np.max(space.norms(base.trajectory.derivative())))

        def curve(ts: np.ndarray) -> np.ndarray:
            return base.at_many(ts + delta * _exp(-ts))

        def roc(k: int) -> int:
            # |u(t+s) - S(t)u(s)| <= lip * delta * e^{-s}, sampled Lipschitz bound
            level = lip * delta * (k + 1)
            if level <= 1.0:
                return 0
            return max(0, math.ceil(math.log(level)))

    orbit = AlmostOrbit(kind, description, curve, Counterfunction(roc, rate), horizon, base)
    if certify:
        _certify_orbit(orbit, CERT_KS, CERT_TOL)
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
        defect = base.op.space.max_norm(orbit.values(s + ts) - restart.at_many(ts))
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
    return space.p == 2.0


def _pair_keys(rows: np.ndarray, cols: np.ndarray, space) -> np.ndarray:
    """keys[a, b] of the pair (rows[a], cols[b]): the squared distance in a
    Euclidean space, the distance in l^p, bit for bit numpy's norm over the
    full difference tensor.

    Below _SEQUENTIAL_DIM coordinates a Euclidean key is summed one
    coordinate at a time in two (rows, cols) buffers, in the order
    ``add.reduce`` sums so few terms; from there on it is ``add.reduce``
    itself, which sums in unrolled blocks.  l^p keeps ``np.linalg.norm``
    with its root per pair: libm ``pow`` is not correctly rounded, so a
    root after a maximum is not provably the maximum of the roots.
    """
    if not _euclidean(space):
        return np.linalg.norm(rows[:, None, :] - cols[None, :, :], ord=space.p, axis=2)
    if rows.shape[1] >= _SEQUENTIAL_DIM:
        diff = rows[:, None, :] - cols[None, :, :]
        return np.add.reduce(diff * diff, axis=2)
    key = np.empty((rows.shape[0], cols.shape[0]))
    term = np.empty_like(key)
    for k in range(rows.shape[1]):
        out = term if k else key
        np.subtract(rows[:, k, None], cols[None, :, k], out=out)
        np.multiply(out, out, out=out)
        if k:
            key += term
    return key


def _key_distance(key, space):
    return np.sqrt(key) if _euclidean(space) else key


class SampleSet:
    """One curve sampled at sorted times, with the quantities the sweeps
    and checks derive from the samples, each computed at most once.  The
    grid samples of a run are its one per-node profile: the a-priori check
    reads their ``norms``, the Fejer check and the 4.1/4.2 residual their
    ``residual``, and the CSV writes both.

    The threshold queries ``settles_from`` and ``window_fits`` decide
    whether sampled pairs lie within a level.  A pair (j, l) lies within
    d_j + d_l, where d_j is the distance of sample j to the last sample c;
    a pair with d_j + d_l <= level / (1 + _BOUND_SLACK) is decided by this
    bound, and every other pair by its computed distance, compared with the
    level exactly as the full diameter was: one square root per row
    maximum in a Euclidean space (IEEE sqrt is correctly rounded, hence
    monotone), numpy's l^p norm per pair.
    """

    def __init__(self, op: AccretiveOperator, times: np.ndarray, values: np.ndarray):
        self.op = op
        self.times = times
        self.values = values
        # per window index range: (largest pair distance found, smallest
        # level certified)
        self._windows: dict[tuple[int, int], tuple[float, float]] = {}

    @cached_property
    def norms(self) -> np.ndarray:
        """||v_j|| per sample."""
        return self.op.space.norms(self.values)

    @cached_property
    def residual(self) -> np.ndarray:
        """||v_j - Pv_j|| per sample: the zero-set residual."""
        return projection_profile(self.op, self.values)

    @cached_property
    def _to_last(self) -> np.ndarray:
        """d[j] = ||v_j - c||, the distance of sample j to the last sample c."""
        return self.op.space.norms(self.values - self.values[-1])

    def _budget(self, level: float) -> float:
        """Largest d_j + d_l that the bound decides at ``level``; -1, which
        decides no pair, for a level outside the range where it is safe.

        Keys and norms round at about 1e-15 relative, far inside
        _BOUND_SLACK, except where underflow or overflow sets in: a norm
        may lose (dim * 2^-1074)^(1/p) to underflow (p = 2 in a Euclidean
        space: 3.1e-162 at 2 coordinates), so the bound decides from 1e10
        times that on, and up to where no power below the level overflows.
        """
        space = self.op.space
        tiny = 1e10 * (space.dim * 2.0**-1074) ** (1.0 / space.p)
        huge = (2.0**1000 / space.dim) ** (1.0 / space.p)
        return level / (1.0 + _BOUND_SLACK) if tiny <= level <= huge else -1.0

    def _open_rows(self, lo: int, hi: int, budget: float) -> np.ndarray:
        """The rows r in [lo, hi) with a pair (r, l), r <= l < hi, that the
        bound leaves open: d_r + max of d_l over [r, hi) above the budget."""
        d = self._to_last[lo:hi]
        reach = np.maximum.accumulate(d[::-1])[::-1]
        return lo + np.flatnonzero(~(d + reach <= budget))

    def _scan(self, rows: np.ndarray, hi: int, budget: float):
        """(block, dist) over open ``rows`` (ascending) from the last
        backward, SUFFIX_CHUNK rows at a time: dist[a] is the largest
        ||v_r - v_l|| over the columns l in [r, hi) that the bound leaves
        open, r = block[a]; every open row has one."""
        d, space = self._to_last, self.op.space
        for end in range(rows.size, 0, -SUFFIX_CHUNK):
            block = rows[max(0, end - SUFFIX_CHUNK) : end]
            lo = int(block[0])
            cols = lo + np.flatnonzero(~(d[lo:hi] + d[block].max() <= budget))
            keys = _pair_keys(self.values[block], self.values[cols], space)
            # rows and cols ascend: only columns before the last row precede a row
            lead = int(cols.searchsorted(block[-1]))
            np.copyto(keys[:, :lead], -1.0, where=cols[:lead] < block[:, None])
            yield block, _key_distance(keys.max(axis=1), space)

    def settles_from(self, level: float) -> int | None:
        """Smallest index i whose suffix diameter, the sup of ||v_j - v_l||
        over j, l >= i, is at most ``level``; None when there is none.

        The open rows are scanned from the last backward, each against its
        later open columns; the first row with a pair above the level ends
        the scan, since no later row has one.  The last row r farther than
        the level from c is not scanned: its pair with c, whose computed
        distance is d_r bit for bit, is above the level, so the answer is
        r + 1 unless a later row has a pair above it.  The earlier rows,
        which would widen a block's columns to nearly every sample, are
        never scanned.
        """
        n = len(self.times)
        if n == 0:
            return None
        budget = self._budget(level)
        rows = self._open_rows(0, n, budget)
        far = rows[~(self._to_last[rows] <= level)]
        first = int(far[-1]) + 1 if far.size else 0
        for block, dist in self._scan(rows[rows >= first], n, budget):
            above = np.flatnonzero(~(dist <= level))
            if above.size:
                first = int(block[above[-1]]) + 1
                break
        return first if first < n else None

    def window_fits(self, start: int, width: int, horizon: float, level: float) -> bool | None:
        """Whether the samples in [start, start + width] lie within
        ``level`` of each other; None when the window leaves the horizon.

        The window is the contiguous index range that the time mask
        times in [start - 1e-9, start + width + 1e-9] selects.  Its sample
        farthest from c is probed first against every other, then the open
        rows are scanned as in ``settles_from``.  Per index range the
        largest pair distance found and the smallest level certified are
        kept, and decide the later queries they cover.
        """
        if start + width > horizon + 1e-9:
            return None
        lo = int(self.times.searchsorted(start - 1e-9, side="left"))
        hi = int(self.times.searchsorted(start + width + 1e-9, side="right"))
        if hi - lo < 2:  # at most one sample: diameter 0
            return level >= 0.0
        found, certified = self._windows.get((lo, hi), (-math.inf, math.inf))
        if not found <= level:
            return False
        if level >= certified:
            return True
        window = self._to_last[lo:hi]
        budget = self._budget(level)
        dist = [np.array([found])]
        if not 2.0 * window.max() <= budget:  # else the bound decides every pair
            far = lo + int(window.argmax())
            probe = _pair_keys(self.values[far : far + 1], self.values[lo:hi], self.op.space)
            dist.append(_key_distance(probe.max(axis=1), self.op.space))
            if dist[-1][0] <= level:
                for _, block_dist in self._scan(self._open_rows(lo, hi, budget), hi, budget):
                    dist.append(block_dist)
                    if not block_dist.max() <= level:
                        break
        found = float(np.max(np.concatenate(dist)))
        fits = found <= level
        self._windows[lo, hi] = (found, min(certified, level) if fits else certified)
        return fits

    @cached_property
    def graph_bound(self) -> int:
        """Worst operator graph bound over the samples (0 when empty)."""
        return int(self.op.graph_bound_many(self.values).max(initial=0))

    @cached_property
    def _monotone_residual(self) -> np.ndarray | None:
        """The residual, None unless it is monotone: no increment above
        STEP_MONOTONE_TOL, the rule of ``fejer_report``."""
        return self.residual if _max_increase(self.residual) <= STEP_MONOTONE_TOL else None

    def residual_threshold(self, level: float) -> float | None:
        """First sample time where the residual drops to level, provided
        the sampled residual is monotone."""
        residual = self._monotone_residual
        hits = [] if residual is None else np.flatnonzero(residual <= level)
        return float(self.times[hits[0]]) if len(hits) else None


@dataclass
class ScenarioBundle:
    """Everything a sweep needs about one scenario, solved and sampled.

    ``solver`` is the trajectory's solver setup: its trusted horizon and
    ``sample_points`` set the samples.  The rate data b, D, B and the
    graph bound are computed from the scenario, never supplied."""

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
        # every grid node: the run's per-node profile, and the residual of
        # the 4.1 and 4.2 sweeps; no threshold query runs on it
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
        )

    def orbit_rate_data(self, orbit: AlmostOrbit) -> ScenarioRateData:
        samples = self.orbit_samples(orbit)
        # deviation from the origin, which every catalog zero set contains
        sup_dev = float(np.max(samples.norms))
        orbit_bound = max(1, math.ceil(sup_dev - 1e-9))
        # the worst graph bound over the samples holds at every orbit index
        # (horizon-certified)
        return replace(
            self.point_rate_data(), orbit_bound=orbit_bound, graph_bound=samples.graph_bound
        )


def _margin(bound: int, observed: float) -> float:
    """bound - observed, -inf when nothing was observed."""
    if not math.isfinite(observed):
        return -math.inf
    try:
        return bound - observed
    except OverflowError:  # an integer bound beyond the float range
        raise ContractError(f"rate bound {Decimal(bound):.3e} exceeds the float range") from None


def _observe(
    search: bool, eps: float, level: float, bound: int, f, samples: SampleSet, residual: SampleSet
) -> tuple[float, bool, bool]:
    """(observed, passed, extrapolated) of one report at precision eps.

    A witness ``search`` looks for the first n <= bound whose window
    [n, n + f(n)] has diameter at most ``level``; otherwise the first sample
    whose suffix diameter is at most ``level`` is compared with the bound.
    When the samples cannot decide (the bound, or for a search the search
    or one of its windows, lies beyond the horizon), the monotone residual
    of ``residual`` certifies the report instead.
    """
    times = samples.times
    horizon = float(times[-1]) if times.size else 0.0
    if search:
        n, left = 0, False  # left: some window left the horizon
        while n <= bound and n <= horizon:
            fits = samples.window_fits(n, f(n), horizon, level)
            if fits:
                return float(n), True, False
            left = left or fits is None
            n += 1
        if n > bound and not left:  # every window up to the bound was sampled
            return math.inf, False, False
        observed = math.inf
    else:
        first = samples.settles_from(level)
        observed = math.inf if first is None else float(times[first])
        if bound <= horizon:
            at_bound = min(int(np.searchsorted(times, bound - 1e-9)), len(times) - 1)
            return observed, first is not None and at_bound >= first, False
    tau = residual.residual_threshold(eps / 2.0)
    if tau is not None and not math.isfinite(observed):
        observed = tau
    return observed, tau is not None, True


# the allowance of every sweep comparison, on top of its precision 1/(k + 1)
NUM_TOL = 2e-6


@dataclass(frozen=True)
class Theorem:
    """A theorem a sweep may name: ``keys``, the sweep keys it reads beyond
    theorem and k_range, and ``bound(k, f, orbit, modulus, data)``, its rate
    functional.  A theorem whose keys name orbits sweeps them; one whose keys
    name counterfunctions searches for a metastability witness."""

    keys: tuple[str, ...]
    bound: Callable[..., int]


# each bound looks its rate functional up in this module when it runs, where
# perfbench/spans.py may have wrapped it
THEOREMS = {
    "4.1": Theorem((), lambda k, f, o, mod, data: semigroup_cauchy_rate(k, mod, data)),
    "4.2": Theorem(("f_dom",), lambda k, f, o, mod, data: closure_cauchy_rate(k, mod, f, data)),
    "5.1": Theorem(
        ("counterfunctions", "orbits"),
        lambda k, f, o, mod, data: cauchy_metastability_rate(k, f, o.phi_meta, mod, data),
    ),
    "5.3": Theorem(
        ("orbits",), lambda k, f, o, mod, data: almost_orbit_cauchy_rate(k, f, mod, data)
    ),
}


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

    A theorem over orbits has one target per orbit (``bundle.orbits``
    unless ``orbits`` is given), whose samples are their own residual, and
    its function is the orbit's rate of convergence, or each of
    ``counterfunctions`` for a witness search.  Any other theorem's target
    is the point x: its samples, with the residual taken at every grid
    node, and its function ``f_dom`` where it reads one.
    """
    spec = THEOREMS.get(theorem)
    if spec is None:
        raise ContractError(f"unknown theorem id {theorem!r}")
    search = "counterfunctions" in spec.keys
    if "orbits" not in spec.keys:
        if "f_dom" not in spec.keys:
            f_dom = None
        elif f_dom is None:
            f_dom = Counterfunction.constant(bundle.op.graph_bound(bundle.x), "graph bound at x")
        targets = [(bundle.samples, None)]
    else:
        if search and not counterfunctions:
            raise ContractError("metastability sweep needs counterfunctions")
        orbits = bundle.orbits if orbits is None else orbits
        if not orbits:
            raise ContractError(f"theorem {theorem} sweeps need at least one orbit")
        targets = [(bundle.orbit_samples(o), o) for o in orbits]
    reports = []
    for samples, orbit in targets:
        if orbit is None:
            scenario, residual, fs = bundle.scenario_id, bundle.grid_samples, [f_dom]
        else:
            scenario, residual = f"{bundle.scenario_id}/{orbit.kind}", samples
            fs = counterfunctions if search else [orbit.phi_roc]
        try:
            data = bundle.point_rate_data() if orbit is None else bundle.orbit_rate_data(orbit)
        except ContractError as exc:  # name the sweep whose rate data could not be made
            raise ContractError(f"theorem {theorem} sweep over {scenario}: {exc}") from None
        for k in map(int, ks):
            eps = 1.0 / (k + 1.0)
            for f in fs:
                f_desc = f.description if f is not None else ""
                try:
                    bound = spec.bound(k, f, orbit, bundle.modulus, data)
                    observed, passed, extrapolated = _observe(
                        search, eps, eps + NUM_TOL, bound, f, samples, residual
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
