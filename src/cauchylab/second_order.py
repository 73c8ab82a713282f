"""Second-order flow u'' in Au via regularized two-point boundary solves.

The incomplete problem (second derivative in Au, bounded on the half
line, u(0) = x) is approached through its regularization chain: first
replace A by its Yosida approximate at parameter r and add a linear
restoring term p*u, solve the resulting smooth problem on [0, T] by
finite differences, then drive (r, p) to zero along a continuation
schedule with warm starts until successive trajectories stabilize.
The limiting trajectory realizes the square-root semigroup of A at the
initial point.  A linear operator A = B needs no chain: its limit A_0 = B
is exact, and the unregularized problem is solved once.

Boundary treatment: the left end is clamped at x; the far end carries a
zero-derivative (ghost-node) condition.  A Dirichlet far end would force
decay even for operators with nontrivial zero sets, whose bounded
solutions converge to a nonzero limit; the Neumann condition reproduces
the correct bounded-solution limit for both decaying and constant modes.
A drift monitor flags horizons too short for the asymptotics to settle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import HorizonError, SolverError
from .operators import AccretiveOperator

DEFAULT_SCHEDULE = ((0.1, 0.1), (0.01, 0.01), (0.001, 0.001))


@dataclass(frozen=True)
class TimeGrid:
    horizon: float
    step: float

    def __post_init__(self):
        if self.step <= 0.0 or self.horizon <= 0.0:
            raise ValueError("horizon and step must be positive")
        ratio = self.horizon / self.step
        if not math.isfinite(ratio):
            raise ValueError("horizon / step overflows")
        if abs(ratio - round(ratio)) > 1e-12 * max(1.0, ratio):
            raise ValueError("horizon must be an integral multiple of the step")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.step))

    @property
    def nodes(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


@dataclass
class Trajectory:
    """Sampled curve on a time grid with finite-difference derivatives."""

    grid: TimeGrid
    values: np.ndarray  # (n_nodes, dim)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        n = self.grid.n_steps + 1
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != n:
            raise ValueError(f"expected ({n}, dim) value array, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("trajectory contains non-finite values")

    @property
    def times(self) -> np.ndarray:
        return self.grid.nodes

    def derivative(self) -> np.ndarray:
        """Central differences, second-order one-sided at the ends."""
        u, h = self.values, self.grid.step
        du = np.empty_like(u)
        du[1:-1] = (u[2:] - u[:-2]) / (2.0 * h)
        du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
        du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
        return du

    def second_derivative(self) -> np.ndarray:
        u, h = self.values, self.grid.step
        ddu = np.empty_like(u)
        ddu[1:-1] = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / (h * h)
        ddu[0] = (2.0 * u[0] - 5.0 * u[1] + 4.0 * u[2] - u[3]) / (h * h)
        ddu[-1] = (2.0 * u[-1] - 5.0 * u[-2] + 4.0 * u[-3] - u[-4]) / (h * h)
        return ddu

    def at(self, t: float) -> np.ndarray:
        """Linear interpolation between grid nodes."""
        return self.at_many(np.array([t]))[0]

    def at_many(self, times) -> np.ndarray:
        """``at`` for an array of times, one row per time."""
        ts = np.asarray(times, dtype=float)
        outside = (ts < 0.0) | (ts > self.grid.horizon)
        if outside.any():
            raise HorizonError(f"time {float(ts[outside][0])} outside [0, {self.grid.horizon}]")
        pos = ts / self.grid.step
        i = np.minimum(pos.astype(int), self.grid.n_steps - 1)
        frac = (pos - i)[:, None]
        return (1.0 - frac) * self.values[i] + frac * self.values[i + 1]


@dataclass(frozen=True)
class AprioriBounds:
    """Computed trajectory functionals against their theoretical caps."""

    sup_norm: float
    int_du_sq: float
    int_ddu_sq: float
    rhs_sup: float
    rhs_du: float
    rhs_ddu: float
    sup_ok: bool
    du_ok: bool
    ddu_ok: bool

    @property
    def passed(self) -> bool:
        return self.sup_ok and self.du_ok and self.ddu_ok


# damped Newton for the discrete solves
NEWTON_RESIDUAL_TOL = 1e-8
NEWTON_MAX_ITER = 60
NEWTON_MIN_DAMPING = 1e-8


@dataclass(frozen=True)
class SolverConfig:
    """How a second-order trajectory is solved, and how much of it is
    trusted: times beyond horizon - margin are not, since the far-end
    closure bends the tail."""

    grid: TimeGrid
    schedule: tuple = DEFAULT_SCHEDULE
    stab_tol: float = 1e-6
    margin: float = 1.0
    auto_extend: bool = True

    def __post_init__(self):
        if self.margin < 0.0 or self.margin >= self.grid.horizon:
            raise ValueError("margin must lie in [0, horizon)")

    @property
    def trusted_horizon(self) -> float:
        return self.grid.horizon - self.margin


def _residual(x: np.ndarray, h: float, u: np.ndarray, force: np.ndarray) -> np.ndarray:
    """Residual of the discrete system u'' = F(u).

    Unknowns are the nodes 1..N (node 0 clamped at x).  Interior rows are
    the central second difference minus the forcing ``force`` = F(u);
    the last row uses the ghost-node Neumann closure u_{N+1} = u_{N-1}.
    """
    n = u.shape[0]
    full = np.vstack([x[None, :], u])
    res = np.empty_like(u)
    res[: n - 1] = (full[2:] - 2.0 * full[1:-1] + full[:-2]) / (h * h) - force[: n - 1]
    res[n - 1] = 2.0 * (u[n - 2] - u[n - 1]) / (h * h) - force[n - 1]
    return res


def _solve_block_tridiagonal(
    lower: np.ndarray, diag: np.ndarray, upper: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """Solve lower[i] y[i-1] + diag[i] y[i] + upper[i] y[i+1] = rhs[i].

    Blocks are (m, dim, dim) and rhs is (m, dim); lower[0] and upper[-1]
    only ever meet zero padding.  Block cyclic reduction: each level
    solves the odd rows for their even neighbours in one batched solve and
    substitutes them into the even rows, a block-tridiagonal system of
    half the size.
    """
    m, dim = rhs.shape
    if m == 1:
        return np.linalg.solve(diag[0], rhs[0])[None, :]
    # odd row i: y[i] = phi - alpha y[i-1] - gamma y[i+1], kept as [alpha | gamma | phi]
    odd = np.linalg.solve(
        diag[1::2], np.concatenate([lower[1::2], upper[1::2], rhs[1::2, :, None]], axis=2)
    )
    # the odd rows before and after each even row, zero past the ends
    pad = np.concatenate([np.zeros_like(odd[:1]), odd, np.zeros_like(odd[: m % 2])])
    left, right = lower[::2] @ pad[:-1], upper[::2] @ pad[1:]
    even = _solve_block_tridiagonal(
        -left[:, :, :dim],
        diag[::2] - left[:, :, dim:-1] - right[:, :, :dim],
        -right[:, :, dim:-1],
        rhs[::2] - left[:, :, -1] - right[:, :, -1],
    )
    # the even rows before and after each odd row, zero past the end
    pad = np.concatenate([even, np.zeros_like(even[: 1 - m % 2])])
    sides = np.concatenate([pad[:-1], pad[1:]], axis=1)[:, :, None]
    y = np.empty_like(rhs)
    y[::2] = even
    y[1::2] = odd[:, :, -1] - (odd[:, :, :-1] @ sides)[:, :, 0]
    return y


def _newton(
    op: AccretiveOperator,
    x: np.ndarray,
    grid: TimeGrid,
    force,
    force_jacobian,
    init: np.ndarray | None,
    label: str,
    r: float,
    reg_p: float,
) -> Trajectory:
    """Damped Newton on the discrete system u'' = force(u), started at
    ``init`` (the constant x when None).  The forcing belongs to the
    regularization (r, p), which errors name and the metadata records.

    The Jacobian is block tridiagonal: diagonal blocks -2/h^2 - F'(u_i),
    couplings 1/h^2 times the identity (doubled on the ghost-node row).
    It is evaluated only at accepted iterates; line-search trials need the
    residual alone.  A linear forcing is solved by the first step; the
    damping only engages for the nonlinear ones.
    """
    x = op.space.check(x)
    n = grid.n_steps
    if n < 4:
        raise ValueError("grid too coarse: need at least 4 steps")
    dim = op.space.dim
    if init is None:
        u = np.tile(x, (n, 1))
    else:
        u = np.array(init, dtype=float)
        if u.shape != (n, dim):
            raise ValueError("warm-start shape mismatch")

    params = f"(r={r:g}, p={reg_p:g})"
    h = grid.step
    inv_h2 = 1.0 / (h * h)
    eye = np.eye(dim)
    upper = np.broadcast_to(inv_h2 * eye, (n, dim, dim))
    lower = upper.copy()
    lower[-1] *= 2.0  # ghost-node closure doubles the last coupling
    try:
        res = _residual(x, h, u, force(u))
        rnorm = float(np.max(np.abs(res)))
        for _ in range(NEWTON_MAX_ITER):
            if rnorm <= NEWTON_RESIDUAL_TOL:
                break
            diag = np.broadcast_to(-2.0 * inv_h2 * eye - force_jacobian(u), (n, dim, dim))
            step = _solve_block_tridiagonal(lower, diag, upper, -res)
            lam = 1.0
            while True:
                u_new = u + lam * step
                res_new = _residual(x, h, u_new, force(u_new))
                rnorm_new = float(np.max(np.abs(res_new)))
                if rnorm_new < rnorm or rnorm_new <= NEWTON_RESIDUAL_TOL:
                    u, res, rnorm = u_new, res_new, rnorm_new
                    break
                lam *= 0.5
                if lam < NEWTON_MIN_DAMPING:
                    raise SolverError(
                        f"{label} stalled at residual {rnorm:.3e} {params}", rnorm
                    )
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{label} hit a singular matrix {params}") from exc
    if rnorm > NEWTON_RESIDUAL_TOL:
        raise SolverError(
            f"{label} did not reach tolerance: residual {rnorm:.3e} {params}", rnorm
        )

    values = np.vstack([x[None, :], u])
    traj = Trajectory(grid=grid, values=values, meta={"r": r, "reg_p": reg_p})
    _flag_far_end(op, x, traj)
    return traj


def solve_regularized(
    op: AccretiveOperator,
    r: float,
    reg_p: float,
    x: np.ndarray,
    grid: TimeGrid,
    init: np.ndarray | None = None,
) -> Trajectory:
    """Solve the doubly-regularized two-point problem u'' = A_r(u) + p*u by
    damped Newton."""
    if r <= 0.0 or reg_p <= 0.0:
        raise ValueError("regularization parameters must be positive")
    eye = np.eye(op.space.dim)
    return _newton(
        op,
        x,
        grid,
        lambda u: op.yosida_many(r, u) + reg_p * u,
        lambda u: op.yosida_jacobian_many(r, u) + reg_p * eye,
        init,
        "regularized solve",
        r,
        reg_p,
    )


def _flag_far_end(op: AccretiveOperator, x: np.ndarray, traj: Trajectory) -> None:
    """Flag horizons where the solution still drifts near the far end.

    Measures the drift velocity over the last stretch of the grid;
    bounded solutions that have settled move negligibly there, while a
    too-short horizon leaves visible motion against the far-end closure.
    """
    window = min(1.0, traj.grid.horizon / 10.0)
    k = max(1, int(round(window / traj.grid.step)))
    rate = op.space.norm(traj.values[-1] - traj.values[-1 - k]) / (k * traj.grid.step)
    scale = max(op.space.norm(x), 1e-12)
    traj.meta["far_end_drift_rate"] = float(rate)
    traj.meta["far_end_ok"] = bool(rate <= 0.01 * scale)


def solve_second_order(
    op: AccretiveOperator,
    x: np.ndarray,
    grid: TimeGrid,
    schedule=DEFAULT_SCHEDULE,
    stab_tol: float = 1e-6,
    auto_extend: bool = True,
    r_floor: float = 1e-9,
) -> Trajectory:
    """Solve u'' in Au, u(0) = x, on the grid.

    A linear operator A = B is its own limit A_0: the unregularized
    problem u'' = Bu is solved once, at r = p = 0, and the schedule is not
    used.  Otherwise continuation runs along the decreasing (r, p)
    schedule with warm starts, and stops when successive trajectories
    differ by at most ``stab_tol`` in the sup norm.  When the supplied
    schedule is exhausted unstabilized and ``auto_extend`` is set, both
    parameters keep shrinking by factors of ten down to ``r_floor``;
    failing that, the trajectory is returned with a warning flag in the
    metadata.
    """
    x = op.space.check(x)
    stages = [(float(r), float(p)) for r, p in schedule]
    if not stages:
        raise ValueError("continuation schedule is empty")
    b = op.linear_matrix
    if b is not None:
        traj = _newton(
            op,
            x,
            grid,
            lambda u: u @ b.T,
            lambda u: b,
            None,
            "linear solve",
            0.0,
            0.0,
        )
        # solved to the Newton tolerance at r = p = 0: nothing left to stabilize
        traj.meta.update(
            continuation=[(0.0, 0.0)], stage_diffs=[], stabilized=True, initial_point=x.copy()
        )
        return traj
    prev_traj = None
    warm = None
    diffs = []
    stabilized = False
    used = []
    i = 0
    while True:
        if i < len(stages):
            r, p = stages[i]
        elif auto_extend and stages[-1][0] > r_floor:
            r, p = stages[-1]
            r, p = max(r / 10.0, r_floor), max(p / 10.0, r_floor)
            stages.append((r, p))
        else:
            break
        traj = solve_regularized(op, r, p, x, grid, init=warm)
        used.append((r, p))
        if prev_traj is not None:
            diff = float(np.max(op.space.norms(traj.values - prev_traj.values)))
            diffs.append(diff)
            if diff <= stab_tol:
                stabilized = True
                prev_traj = traj
                break
        prev_traj = traj
        warm = traj.values[1:]
        i += 1
    traj = prev_traj
    traj.meta["continuation"] = used
    traj.meta["stage_diffs"] = diffs
    traj.meta["stabilized"] = stabilized
    traj.meta["initial_point"] = x.copy()
    return traj


class SqrtSemigroup:
    """Square-root semigroup of A at an initial point.

    Solves the second-order flow once and answers time queries by linear
    interpolation.  Times beyond the solver's trusted horizon raise
    HorizonError.
    """

    def __init__(self, op: AccretiveOperator, x: np.ndarray, solver: SolverConfig):
        self.op = op
        self.x = op.space.check(x)
        self.solver = solver
        self.trajectory = solve_second_order(
            op,
            x,
            solver.grid,
            schedule=solver.schedule,
            stab_tol=solver.stab_tol,
            auto_extend=solver.auto_extend,
        )

    @property
    def trusted_horizon(self) -> float:
        return self.solver.trusted_horizon

    def at(self, t: float) -> np.ndarray:
        return self.at_many(np.array([t]))[0]

    def at_many(self, times) -> np.ndarray:
        ts = np.asarray(times, dtype=float)
        outside = (ts < 0.0) | (ts > self.trusted_horizon + 1e-12)
        if outside.any():
            raise HorizonError(
                f"time {float(ts[outside][0])} outside trusted range [0, {self.trusted_horizon}]"
            )
        return self.trajectory.at_many(np.minimum(ts, self.solver.grid.horizon))

    def restart_from(self, y: np.ndarray) -> "SqrtSemigroup":
        """Semigroup started at a new initial point (same solver setup)."""
        return SqrtSemigroup(self.op, y, self.solver)


def linear_oracle(b: np.ndarray, t: float, x: np.ndarray) -> np.ndarray:
    """Independent closed form exp(-t sqrt(B)) x for symmetric PSD B.

    Spectral decomposition only; shares no code with the trajectory
    solver so it can certify it.
    """
    b = np.asarray(b, dtype=float)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise ValueError("oracle matrix must be square")
    if np.max(np.abs(b - b.T)) > 1e-10:
        raise ValueError("oracle matrix must be symmetric")
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    x = np.asarray(x, dtype=float)
    w, v = np.linalg.eigh(b)
    w = np.clip(w, 0.0, None)
    return v @ (np.exp(-t * np.sqrt(w)) * (v.T @ x))


def check_apriori(
    op: AccretiveOperator,
    x: np.ndarray,
    traj: Trajectory,
    m_const: float,
    quad_rel_tol: float = 1e-3,
) -> AprioriBounds:
    """Trapezoidal check of the three a-priori trajectory bounds.

    sup ||u|| <= ||x||, integral of ||u'||^2 <= (2/M^2) d(0,Ax)^{3/2} ||x||^{1/2},
    integral of ||u''||^2 <= (2/M^2) d(0,Ax)^{1/2} ||x||^{3/2}, each with a
    quadrature allowance of quad_rel_tol * (1 + rhs).
    """
    x = op.space.check(x)
    nx = op.space.norm(x)
    d0 = op.dist_zero(x)
    ts = traj.times
    sup_norm = float(np.max(op.space.norms(traj.values)))
    int_du = float(np.trapezoid(op.space.norms(traj.derivative()) ** 2, ts))
    int_ddu = float(np.trapezoid(op.space.norms(traj.second_derivative()) ** 2, ts))
    coeff = 2.0 / (m_const * m_const)
    rhs_du = coeff * d0 ** 1.5 * math.sqrt(nx)
    rhs_ddu = coeff * math.sqrt(d0) * nx ** 1.5
    return AprioriBounds(
        sup_norm=sup_norm,
        int_du_sq=int_du,
        int_ddu_sq=int_ddu,
        rhs_sup=nx,
        rhs_du=rhs_du,
        rhs_ddu=rhs_ddu,
        sup_ok=bool(sup_norm <= nx + 1e-6),
        du_ok=bool(int_du <= rhs_du + quad_rel_tol * (1.0 + rhs_du)),
        ddu_ok=bool(int_ddu <= rhs_ddu + quad_rel_tol * (1.0 + rhs_ddu)),
    )


def projection_profile(op: AccretiveOperator, traj: Trajectory) -> np.ndarray:
    """||u(t) - Pu(t)|| along the trajectory."""
    return op.space.norms(traj.values - op.project_zeros_many(traj.values))


def export_trajectory_csv(op: AccretiveOperator, traj: Trajectory, path) -> None:
    """CSV columns: t, u_0..u_{d-1}, norm_u, dist_to_zero_set."""
    ts = traj.times
    norms = op.space.norms(traj.values)
    dist = projection_profile(op, traj)
    dim = traj.values.shape[1]
    header = "t," + ",".join(f"u_{i}" for i in range(dim)) + ",norm_u,dist_to_zero_set"
    data = np.column_stack([ts, traj.values, norms, dist])
    np.savetxt(path, data, delimiter=",", header=header, comments="")
