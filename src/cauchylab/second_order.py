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
from decimal import Decimal

import numpy as np

from .errors import HorizonError, SolverError
from .operators import AccretiveOperator

DEFAULT_SCHEDULE = ((0.1, 0.1), (0.01, 0.01), (0.001, 0.001))
# the fewest grid steps the discrete two-point system is solved on
MIN_STEPS = 4


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
        outside = ~((ts >= 0.0) & (ts <= self.grid.horizon))  # NaN is outside too
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
    closure bends the tail.  It is the config's ``solver:`` section, and
    its defaults are the only ones: ``sample_points`` sets how many
    trajectory samples the sweeps compare, and ``first_order_n_max`` caps
    n in the exponential formula of first-order dynamics."""

    grid: TimeGrid
    schedule: tuple = DEFAULT_SCHEDULE
    stab_tol: float = 1e-6
    margin: float = 1.0
    sample_points: int = 500
    first_order_n_max: int = 2**16

    def __post_init__(self):
        if self.margin < 0.0 or self.margin >= self.grid.horizon:
            raise ValueError("margin must lie in [0, horizon)")

    @property
    def trusted_horizon(self) -> float:
        return self.grid.horizon - self.margin

    @property
    def num_tol(self) -> float:
        """Allowance of the sweeps' distance comparisons: the solver's
        stabilization tolerance on top of 1e-6."""
        return 1e-6 + self.stab_tol


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


def _eliminate(aug: np.ndarray, dim: int) -> np.ndarray:
    """Solve a[:, :, i] z[:, :, i] = b[:, :, i] in place, for the batch-last
    augmented blocks aug = [a | b] of shape (dim, dim + q, k); returns z,
    the (dim, q, k) view of aug's last q columns.

    Gaussian elimination with partial pivoting, one pivot column at a time,
    each step a numpy operation over contiguous rows of length k.  An
    exactly zero pivot raises ``LinAlgError``.
    """
    for j in range(dim):
        if j + 1 < dim:
            # argmax along the short first axis is slow: find the blocks
            # whose pivot is not already in place first
            mag = np.abs(aug[j:, j])
            below = mag[1] if j + 2 == dim else np.max(mag[1:], axis=0)
            swap = np.flatnonzero(below > mag[0])
            if swap.size:
                rows = j + np.argmax(mag[:, swap], axis=0)
                top = aug[j, j:, swap]
                aug[j, j:, swap] = aug[rows, j:, swap]
                aug[rows, j:, swap] = top
        if not aug[j, j].all():
            raise np.linalg.LinAlgError("Singular matrix")
        if j + 1 < dim:
            factor = aug[j + 1 :, j] / aug[j, j]
            aug[j + 1 :, j + 1 :] -= factor[:, None] * aug[j, j + 1 :]
    z = aug[:, dim:]
    for j in range(dim - 1, -1, -1):
        z[j] /= aug[j, j]
        if j:
            z[:j] -= aug[:j, j, None] * z[j]
    return z


# _eliminate beats LAPACK's batched solve on a level's odd-row blocks below
# this many coordinates, once there are at least this many blocks per
# coordinate; LAPACK pays less per call and more per block (see README)
_ELIMINATION_DIM = 13
_ELIMINATION_BLOCKS = 24


def _solve_blocks(aug: np.ndarray, dim: int) -> np.ndarray:
    """The solution of batch-last augmented blocks [a | b], by ``_eliminate``
    (in place) or LAPACK, chosen by shape."""
    if dim < _ELIMINATION_DIM and aug.shape[2] >= _ELIMINATION_BLOCKS * dim:
        return _eliminate(aug, dim)
    batch = aug.transpose(2, 0, 1)
    return np.linalg.solve(batch[:, :, :dim], batch[:, :, dim:]).transpose(1, 2, 0)


# einsum's fused loops over contiguous rows beat matmul on the blockwise
# products below this many coordinates; from it up, matmul (see README)
_EINSUM_DIM = 4


def _block_products(a: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Blockwise products a[:, :, i] @ z[:, :, i] of batch-last blocks."""
    if a.shape[0] < _EINSUM_DIM:
        return np.einsum("ack,cbk->abk", a, z)
    return (a.transpose(2, 0, 1) @ z.transpose(2, 0, 1)).transpose(1, 2, 0)


# a level costs tens of microseconds in numpy calls however few its rows, so
# a system of at most this many unknowns is solved densely instead
_DENSE_UNKNOWNS = 96


def _parts(level: np.ndarray) -> tuple[np.ndarray, ...]:
    """The D, L, U and r views of a batch-last [D | L | U | r] level."""
    dim = level.shape[0]
    return level[:, :dim], level[:, dim : 2 * dim], level[:, 2 * dim : 3 * dim], level[:, 3 * dim]


def _solve_dense(level: np.ndarray) -> np.ndarray:
    """``_reduce``'s system, assembled and solved by one LAPACK call."""
    dim, _, m = level.shape
    diag, lower, upper, rhs = _parts(level)
    mat = np.zeros((m, dim, m, dim))
    i = np.arange(m)
    mat[i, :, i] = diag.transpose(2, 0, 1)
    mat[i[1:], :, i[:-1]] = lower[:, :, 1:].transpose(2, 0, 1)
    mat[i[:-1], :, i[1:]] = upper[:, :, :-1].transpose(2, 0, 1)
    y = np.linalg.solve(mat.reshape(m * dim, m * dim), rhs.T.ravel())
    return y.reshape(m, dim).T


def _reduce(level: np.ndarray) -> np.ndarray:
    """Solve L[i] y[i-1] + D[i] y[i] + U[i] y[i+1] = r[i] by block cyclic
    reduction; returns y as (dim, m).

    ``level`` holds the m block rows batch-last, as one (dim, 3 dim + 1, m)
    array [D | L | U | r]; L of the first row and U of the last (finite)
    never reach the solution.  Each level solves the odd rows for their even
    neighbours in one batched solve, y[i] = phi - alpha y[i-1] - gamma y[i+1]
    with [alpha | gamma | phi] = D^-1 [L | U | r], and substitutes them into
    the even rows, a block-tridiagonal system of half the size.  Partial
    pivoting within each block suffices, since the reduction keeps a block
    diagonally dominant system so (Heller, SIAM J. Numer. Anal. 1976).
    """
    dim, _, m = level.shape
    if m == 1 or m * dim <= _DENSE_UNKNOWNS:
        return _solve_dense(level)
    n_odd, n_even = m // 2, (m + 1) // 2
    odd = _solve_blocks(level[:, :, 1::2].copy(), dim)
    # each even row meets the odd rows before (left) and after (right) it
    even_diag, even_lower, even_upper, even_rhs = _parts(level[:, :, ::2])
    left = _block_products(even_lower[:, :, 1:], odd[:, :, : n_even - 1])
    right = _block_products(even_upper[:, :, :n_odd], odd)
    nxt = np.empty((dim, 3 * dim + 1, n_even))
    diag, lower, upper, rhs = _parts(nxt)
    diag[...] = even_diag
    diag[:, :, 1:] -= left[:, dim : 2 * dim]
    diag[:, :, :n_odd] -= right[:, :dim]
    lower[:, :, 0] = 0.0
    np.negative(left[:, :dim], out=lower[:, :, 1:])
    np.negative(right[:, dim : 2 * dim], out=upper[:, :, :n_odd])
    upper[:, :, n_odd:] = 0.0
    rhs[...] = even_rhs
    rhs[:, 1:] -= left[:, 2 * dim]
    rhs[:, :n_odd] -= right[:, 2 * dim]
    del left, right  # not needed by the levels below: free them first
    y = np.empty((dim, m))
    y[:, ::2] = _reduce(nxt)
    # the even rows before and after each odd row, zero past the end
    sides = np.zeros((2 * dim, n_odd))
    sides[:dim] = y[:, 0 : 2 * n_odd : 2]
    sides[dim:, : n_even - 1] = y[:, 2::2]
    y[:, 1::2] = odd[:, 2 * dim] - np.einsum("ack,ck->ak", odd[:, : 2 * dim], sides)
    return y


def _solve_newton_system(c: float, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve c y[i-1] + diag[i] y[i] + c y[i+1] = rhs[i] for i < n, the
    Newton step's system, whose last row is the ghost node's: its lower
    coupling is 2c and it has no upper one.  Blocks are batch-last, diag
    (dim, dim, n) and rhs (dim, n); returns y as (dim, n).

    The first reduction level, specialized: every coupling is c times the
    identity, so the odd rows solve D X = [cI | r], with dim + 1 columns,
    and alpha = gamma = X[:, :dim] (alpha = 2 X[:, :dim] on the ghost row);
    the even rows take scalar multiples of X.  Later levels go to
    ``_reduce``.
    """
    dim, n = rhs.shape
    if n == 1:
        return np.linalg.solve(diag[:, :, 0], rhs[:, 0])[:, None]
    n_odd, n_even = n // 2, (n + 1) // 2
    aug = np.zeros((dim, 2 * dim + 1, n_odd))
    aug[:, :dim] = diag[:, :, 1::2]
    aug[np.arange(dim), dim + np.arange(dim)] = c
    aug[:, 2 * dim] = rhs[:, 1::2]
    x = _solve_blocks(aug, dim)
    w = -c * x  # -c alpha and -c phi of every odd row
    nxt = np.empty((dim, 3 * dim + 1, n_even))
    d, lower, upper, r = _parts(nxt)
    d[...] = diag[:, :, ::2]
    d[:, :, 1:] += w[:, :dim, : n_even - 1]
    d[:, :, :n_odd] += w[:, :dim]
    lower[:, :, 0] = 0.0
    lower[:, :, 1:] = w[:, :dim, : n_even - 1]
    upper[:, :, :n_odd] = w[:, :dim]
    upper[:, :, n_odd:] = 0.0
    r[...] = rhs[:, ::2]
    r[:, 1:] += w[:, dim, : n_even - 1]
    r[:, :n_odd] += w[:, dim]
    if n % 2:
        # the ghost row is even: its whole lower coupling doubles
        lower[:, :, -1] *= 2.0
        d[:, :, -1] += w[:, :dim, -1]
        r[:, -1] += w[:, dim, -1]
    else:
        # the ghost row is odd: its alpha doubles
        d[:, :, -1] += w[:, :dim, -1]
    del w  # not needed by the levels below: free it first
    y = np.empty((dim, n))
    y[:, ::2] = even = _reduce(nxt)
    sides = even[:, :n_odd].copy()
    sides[:, : n_even - 1] += even[:, 1:]
    if n % 2 == 0:
        sides[:, -1] *= 2.0
    y[:, 1::2] = x[:, dim] - np.einsum("ack,ck->ak", x[:, :dim], sides)
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
    if n < MIN_STEPS:
        raise ValueError(f"grid too coarse: need at least {MIN_STEPS} steps")
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
    try:
        res = _residual(x, h, u, force(u))
        rnorm = float(np.max(np.abs(res)))
        for _ in range(NEWTON_MAX_ITER):
            if rnorm <= NEWTON_RESIDUAL_TOL:
                break
            diag = -2.0 * inv_h2 * eye - force_jacobian(u)
            if diag.ndim == 3:
                # one transposing copy: the reduction's strided reads of a
                # transposed view would cost several
                diag = np.ascontiguousarray(diag.transpose(1, 2, 0))
            else:
                diag = np.broadcast_to(diag[:, :, None], (dim, dim, n))
            step = _solve_newton_system(inv_h2, diag, -res.T).T
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
    solver: SolverConfig,
    r_floor: float = 1e-9,
) -> Trajectory:
    """Solve u'' in Au, u(0) = x, on the solver's grid.

    A linear operator A = B is its own limit A_0: the unregularized
    problem u'' = Bu is solved once, at r = p = 0, and the schedule is not
    used.  Otherwise continuation runs along the decreasing (r, p)
    ``solver.schedule`` with warm starts, and stops when successive
    trajectories differ by at most ``solver.stab_tol`` in the sup norm.
    When the supplied schedule is exhausted unstabilized, both parameters
    keep shrinking by decades down to ``r_floor``: the j-th extra stage is
    the last supplied pair shifted j decimal places, so it holds the
    intended decimal value (1e-07, not the 1.0000000000000002e-07 of
    repeated division by ten).  Failing that, the trajectory is returned
    with a warning flag in the metadata.
    """
    x = op.space.check(x)
    grid = solver.grid
    stages = [(float(r), float(p)) for r, p in solver.schedule]
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
    supplied = len(stages)
    while True:
        if i < len(stages):
            r, p = stages[i]
        elif stages[-1][0] > r_floor:
            r, p = (
                max(float(Decimal(repr(v)).scaleb(supplied - 1 - i)), r_floor)
                for v in stages[supplied - 1]
            )
            stages.append((r, p))
        else:
            break
        traj = solve_regularized(op, r, p, x, grid, init=warm)
        used.append((r, p))
        if prev_traj is not None:
            diff = float(np.max(op.space.norms(traj.values - prev_traj.values)))
            diffs.append(diff)
            if diff <= solver.stab_tol:
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
        self.trajectory = solve_second_order(op, x, solver)

    @property
    def trusted_horizon(self) -> float:
        return self.solver.trusted_horizon

    def at(self, t: float) -> np.ndarray:
        return self.at_many(np.array([t]))[0]

    def at_many(self, times) -> np.ndarray:
        ts = np.asarray(times, dtype=float)
        outside = ~((ts >= 0.0) & (ts <= self.trusted_horizon + 1e-12))  # NaN too
        if outside.any():
            raise HorizonError(
                f"time {float(ts[outside][0])} outside trusted range [0, {self.trusted_horizon}]"
            )
        return self.trajectory.at_many(np.minimum(ts, self.solver.grid.horizon))

    def restart_from(self, y: np.ndarray) -> "SqrtSemigroup":
        """Semigroup started at a new initial point (same solver setup).

        The solve is deterministic, so a restart from this semigroup's own
        initial point, bit for bit, is this semigroup."""
        y = self.op.space.check(y)
        if y.tobytes() == self.x.tobytes():
            return self
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


def norm_oracle(c: float, t: float, x: np.ndarray) -> np.ndarray:
    """Independent closed form of u'' in (d||.|| + c Id) u, u(0) = x, for
    c >= 0 in the Hilbert kind (c = 0 is the plain norm subdifferential).

    The solution stays on the ray of x, u = rho(t) x / ||x||, where
    rho'' = 1 + c rho until rho reaches 0 with zero slope at T*, and rho = 0
    after T*.  For c > 0, rho(t) = (cosh(sqrt(c)(T* - t)) - 1)/c with
    cosh(sqrt(c) T*) = 1 + c ||x||; for c = 0, rho(t) = (T* - t)^2/2 with
    T* = sqrt(2 ||x||).  Shares no code with the trajectory solver.
    """
    if c < 0.0:
        raise ValueError("strong-accretivity constant must be nonnegative")
    if t < 0.0:
        raise ValueError("time must be nonnegative")
    x = np.asarray(x, dtype=float)
    rho0 = float(np.linalg.norm(x))
    if rho0 == 0.0:
        return np.zeros_like(x)
    if c == 0.0:
        t_star = math.sqrt(2.0 * rho0)
        rho = 0.5 * (t_star - t) ** 2
    else:
        root = math.sqrt(c)
        t_star = math.acosh(1.0 + c * rho0) / root
        rho = (math.cosh(root * (t_star - t)) - 1.0) / c
    return (rho / rho0) * x if t < t_star else np.zeros_like(x)


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


def projection_profile(op: AccretiveOperator, values: np.ndarray) -> np.ndarray:
    """||u - Pu|| for each row u of ``values``: the zero-set residual."""
    return op.space.norms(values - op.project_zeros_many(values))


CSV_BLOCK_ROWS = 2048


def export_trajectory_csv(op: AccretiveOperator, traj: Trajectory, out) -> None:
    """Write the CSV to the open text handle ``out``, in blocks of rows.

    Columns: t, u_0..u_{d-1}, norm_u, dist_to_zero_set, each value the
    shortest string that parses back to the same float.  The caller opens
    the file once: ``np.savetxt(path)`` creates, closes and reopens it, and
    ext4 (``auto_da_alloc``) treats that truncation of an existing file as
    a replace, forcing its blocks to be allocated at close.

    A converging trajectory repeats its values, so each distinct double
    (by bits: -0.0 is not 0.0) is formatted once, and the rows index those
    strings; the bytes are those of a ``%r`` row template.
    """
    dim = traj.values.shape[1]
    out.write("t," + ",".join(f"u_{i}" for i in range(dim)) + ",norm_u,dist_to_zero_set\n")
    data = np.column_stack(
        [traj.times, traj.values, op.space.norms(traj.values), projection_profile(op, traj.values)]
    )
    # a 1-D input: the inverse's shape for a 2-D one differs across numpy versions
    bits, inverse = np.unique(data.view(np.uint64).ravel(), return_inverse=True)
    inverse = inverse.reshape(data.shape)
    del data  # the strings and the blocks set the peak: free the rest first
    texts = np.array([repr(v) for v in bits.view(np.float64).tolist()], dtype=object)
    del bits
    for start in range(0, len(inverse), CSV_BLOCK_ROWS):
        rows = texts[inverse[start : start + CSV_BLOCK_ROWS]].tolist()
        out.write("\n".join(map(",".join, rows)) + "\n")
