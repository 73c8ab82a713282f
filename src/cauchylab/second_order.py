"""Second-order flow u'' in Au via two-point boundary solves at r = p = 0.

The incomplete problem (second derivative in Au, bounded on the half
line, u(0) = x) is solved by finite differences on [0, T].  A linear
operator A = B is its own limit A_0, and u'' = Bu is solved once.  A
nonlinear one is solved by one semismooth Newton solve of the inclusion,
written with the resolvent at ``SIGMA`` as u_i = J_sigma(u_i + sigma u_i'');
nodes in the zero set's basin come out exactly 0.  For the norm family
(the norm subdifferential, alone or shifted by c Id) the solve starts
from the closed-form solution of the continuous problem, which lies next
to the discrete one; any other operator starts from the constant x.

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

from . import floatfmt
from .errors import ContractError, HorizonError, SolverError
from .operators import AccretiveOperator, norm_family_constant

# the fewest grid steps the discrete two-point system is solved on
MIN_STEPS = 4
# the resolvent parameter of the nonlinear solve's u_i = J_sigma(u_i + sigma u_i'')
SIGMA = 1e-3


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
        np.subtract(u[2:], u[:-2], out=du[1:-1])
        du[1:-1] /= 2.0 * h
        du[0] = (-3.0 * u[0] + 4.0 * u[1] - u[2]) / (2.0 * h)
        du[-1] = (3.0 * u[-1] - 4.0 * u[-2] + u[-3]) / (2.0 * h)
        return du

    def second_derivative(self) -> np.ndarray:
        u, h = self.values, self.grid.step
        ddu = np.empty_like(u)
        _central_second_difference(u, h * h, ddu[1:-1])
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
    passed: bool


# damped Newton for the discrete solves
NEWTON_RESIDUAL_TOL = 1e-8
NEWTON_MAX_ITER = 60
NEWTON_MIN_DAMPING = 1e-8
# The residual cannot fall below the rounding of its second difference,
# about eps ||x||_inf 4/h^2 (the stencil's weights sum to 4), so the stop
# test is max(NEWTON_RESIDUAL_TOL, NEWTON_ROUNDING_FACTOR eps ||x||_inf 4/h^2).
# Measured floors were at most 0.29 of that scale (linear, rotation and
# norm-family operators, dims 2-14, ||x||_inf 1 to 1e12, steps 0.005 to 1);
# 64 leaves two orders of magnitude above them.  For ||x||_inf <= 1.5 and
# steps >= 0.005 the scaled term is below 3.5e-9, so 1e-8 decides there.
NEWTON_ROUNDING_FACTOR = 64.0


@dataclass(frozen=True)
class SolverConfig:
    """How a second-order trajectory is solved, and how much of it is
    trusted: times beyond horizon - margin are not, since the far-end
    closure bends the tail.  It is the config's ``solver:`` section, and
    its defaults are the only ones: ``sample_points`` sets how many
    trajectory samples the sweeps compare."""

    grid: TimeGrid
    margin: float = 1.0
    sample_points: int = 500

    def __post_init__(self):
        if self.margin < 0.0 or self.margin >= self.grid.horizon:
            raise ValueError("margin must lie in [0, horizon)")

    @property
    def trusted_horizon(self) -> float:
        return self.grid.horizon - self.margin


def _central_second_difference(u: np.ndarray, hh: float, out: np.ndarray) -> None:
    """(u[2:] - 2 u[1:-1] + u[:-2]) / hh into ``out``, one operation at a
    time in that order, so the rows are those of the expression bit for bit."""
    np.multiply(u[1:-1], 2.0, out=out)
    np.subtract(u[2:], out, out=out)
    out += u[:-2]
    out /= hh


def _second_difference(x: np.ndarray, h: float, u: np.ndarray) -> np.ndarray:
    """Central second difference at the unknowns, the nodes 1..N (node 0
    clamped at x, N >= 2); the last row uses the ghost-node Neumann
    closure u_{N+1} = u_{N-1}."""
    n = u.shape[0]
    out = np.empty_like(u)
    out[0] = (u[1] - 2.0 * u[0] + x) / (h * h)
    _central_second_difference(u, h * h, out[1 : n - 1])
    out[n - 1] = 2.0 * (u[n - 2] - u[n - 1]) / (h * h)
    return out


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


# OpenBLAS spreads one gemm over its threads once m n k passes about 10^6,
# and on a small shared host that can cost far more than it gains: a
# (14, 14) x (14, 6000) product took 0.5 ms threaded against 0.07 ms on one
# thread.  Products of a (dim, dim) block and many columns are cut into
# column blocks of at most this many multiply-adds, well below that
_GEMM_MNK = 2**18


def _columns_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a (dim, dim) block a and (dim, k) columns b, in column
    blocks of at most ``_GEMM_MNK`` multiply-adds each."""
    width = max(1, _GEMM_MNK // a.size)
    if b.shape[1] <= width:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]))
    for j in range(0, b.shape[1], width):
        np.matmul(a, b[:, j : j + width], out=out[:, j : j + width])
    return out


def _solve_toeplitz_dense(blocks: tuple, rhs: np.ndarray) -> np.ndarray:
    """``_solve_toeplitz_system``'s dense tail: a level's five blocks
    spread over its m >= 2 rows, solved by ``_solve_dense``."""
    diag, coupling, first, last, last_lower = blocks
    dim, m = rhs.shape
    level = np.empty((dim, 3 * dim + 1, m))
    d, lower, upper, r = _parts(level)
    d[...] = diag[:, :, None]
    d[:, :, 0] = first
    d[:, :, -1] = last
    lower[...] = coupling[:, :, None]
    lower[:, :, -1] = last_lower
    upper[...] = coupling[:, :, None]
    r[...] = rhs
    return _solve_dense(level)


def _solve_toeplitz_system(c: float, diag: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve c y[i-1] + diag y[i] + c y[i+1] = rhs[i] for i < n, the Newton
    system of a linear forcing, with one constant (dim, dim) diagonal block
    and the ghost row's lower coupling 2c.  rhs is (dim, n), n >= 3;
    returns y as (dim, n).

    Block-Toeplitz cyclic reduction (Buzbee, Golub & Nielson, SIAM J.
    Numer. Anal. 1970).  Every block of every level is a rational function
    of diag and c, so a level is five dim x dim blocks and its right-hand
    side: the interior D and coupling C (lower and upper alike), the first
    row's D and the last row's D and lower coupling.  A level inverts D
    once; its odd rows are y[i] = phi[i] - D^-1 C (y[i-1] + y[i+1]) with
    phi = D^-1 r, and its even rows, a system of half the size, take
    r - C (phi[i-1] + phi[i+1]).  An odd last row is solved with its own
    blocks.  The first level is always reduced, so a singular diag raises
    ``LinAlgError`` however few the unknowns; once at most
    ``_DENSE_UNKNOWNS`` unknowns are left, they are solved densely.
    Memory is O(n dim): each level keeps its phi for the back-substitution.
    """
    dim, n = rhs.shape
    if n < 3:
        raise ValueError("a block-Toeplitz reduction needs at least 3 rows")
    coupling = c * np.eye(dim)
    blocks = (diag, coupling, diag, diag, 2.0 * coupling)
    levels = []
    while not levels or (rhs.shape[1] * dim > _DENSE_UNKNOWNS and rhs.shape[1] >= 3):
        diag, coupling, first, last, last_lower = blocks
        m = rhs.shape[1]
        n_odd, n_even = m // 2, (m + 1) // 2
        inv = np.linalg.inv(diag)
        alpha = inv @ coupling
        phi = _columns_product(inv, rhs[:, 1::2])
        schur = coupling @ alpha  # C D^-1 C
        if m % 2:
            # the last row is even: its odd neighbour couples by last_lower
            last_alpha = None
            nxt_last_lower = -(last_lower @ alpha)
            nxt_last = last + nxt_last_lower
        else:
            # the last row is odd: the even row before it becomes the last
            last_alpha = np.linalg.solve(last, last_lower)
            phi[:, -1] = np.linalg.solve(last, rhs[:, -1])
            nxt_last_lower = -schur
            nxt_last = diag - schur - coupling @ last_alpha
        sums = np.zeros((dim, n_even))
        sums[:, :n_odd] = phi
        sums[:, 1:] += phi[:, : n_even - 1]
        nxt = rhs[:, ::2] - _columns_product(coupling, sums)
        if m % 2:
            nxt[:, -1] = rhs[:, -1] - last_lower @ sums[:, -1]
        levels.append((alpha, phi, last_alpha))
        blocks = (diag - 2.0 * schur, -schur, first - schur, nxt_last, nxt_last_lower)
        rhs = nxt
    y = _solve_toeplitz_dense(blocks, rhs)
    for alpha, phi, last_alpha in reversed(levels):
        n_odd, n_even = phi.shape[1], y.shape[1]
        full = np.empty((dim, n_odd + n_even))
        full[:, ::2] = y
        sides = y[:, :n_odd].copy()
        sides[:, : n_even - 1] += y[:, 1:]
        full[:, 1::2] = phi - _columns_product(alpha, sides)
        if last_alpha is not None:
            full[:, -1] = phi[:, -1] - last_alpha @ sides[:, -1]
        y = full
    return y


def _newton(
    op: AccretiveOperator,
    x: np.ndarray,
    grid: TimeGrid,
    residual,
    solve_step,
    init: np.ndarray | None,
    label: str,
    r: float,
    reg_p: float,
) -> Trajectory:
    """Damped Newton on the discrete system residual(u) = 0 in the
    unknowns u (n, dim), started at ``init`` (the constant x when None).
    The system belongs to the regularization (r, p), which errors name and
    the metadata records.  A solve not at the tolerance after
    ``NEWTON_MAX_ITER`` steps raises ``SolverError``.

    ``solve_step(u, rhs)`` solves the Newton system at the iterate u for
    a batch-last right-hand side rhs (dim, n).  For u'' = F(u) the
    residual is u'' - F(u) and the Jacobian is block tridiagonal:
    diagonal blocks -2/h^2 - F'(u_i), couplings 1/h^2 times the identity
    (doubled on the ghost-node row).  A nonlinear forcing assembles its
    blocks into one level for ``_reduce``; a linear one, F = B, has the
    one block -2/h^2 - B and uses ``_solve_toeplitz_system``.  It is
    called only at accepted iterates; line-search trials need the residual
    alone.  A linear forcing is solved by the first step; the damping only
    engages for the nonlinear ones.
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
            raise ValueError("start shape mismatch")

    params = f"(r={r:g}, p={reg_p:g})"
    rounding = NEWTON_ROUNDING_FACTOR * np.finfo(float).eps * np.max(np.abs(x)) * 4.0
    tol = max(NEWTON_RESIDUAL_TOL, rounding / grid.step**2)
    try:
        res = residual(u)
        rnorm = float(np.max(np.abs(res)))
        for steps in range(NEWTON_MAX_ITER + 1):
            if rnorm <= tol or steps == NEWTON_MAX_ITER:
                break
            step = solve_step(u, -res.T).T
            lam = 1.0
            while True:
                u_new = u + lam * step
                res_new = residual(u_new)
                rnorm_new = float(np.max(np.abs(res_new)))
                if rnorm_new < rnorm or rnorm_new <= tol:
                    u, res, rnorm = u_new, res_new, rnorm_new
                    break
                lam *= 0.5
                if lam < NEWTON_MIN_DAMPING:
                    raise SolverError(
                        f"{label} stalled at residual {rnorm:.3e} {params}", rnorm
                    )
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"{label} hit a singular matrix {params}") from exc
    if not rnorm <= tol:  # a NaN residual too
        raise SolverError(
            f"{label} did not reach tolerance: residual {rnorm:.3e} {params}", rnorm
        )

    values = np.vstack([x[None, :], u])
    traj = Trajectory(
        grid=grid, values=values, meta={"r": r, "reg_p": reg_p, "newton_steps": steps}
    )
    _flag_far_end(op, x, traj)
    return traj


def _regularized_step(op: AccretiveOperator, r: float, reg_p: float, c: float, u, rhs):
    """The Newton step of ``solve_regularized`` at the iterate u, for the
    couplings c = 1/h^2 (2c into the ghost row): one level of diagonal
    blocks -2c - A_r'(u_i) - p, solved by ``_reduce``."""
    n, dim = u.shape
    level = np.zeros((dim, 3 * dim + 1, n))
    diag, lower, upper, b = _parts(level)
    np.negative(op.yosida_jacobian_many(r, u).transpose(1, 2, 0), out=diag)
    i = np.arange(dim)
    diag[i, i] -= 2.0 * c + reg_p
    lower[i, i] = c
    lower[i, i, -1] = 2.0 * c
    upper[i, i] = c
    b[...] = rhs
    return _reduce(level)


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
    x = op.space.check(x)
    h = grid.step
    inv_h2 = 1.0 / (h * h)
    return _newton(
        op,
        x,
        grid,
        lambda u: _second_difference(x, h, u) - (op.yosida_many(r, u) + reg_p * u),
        lambda u, rhs: _regularized_step(op, r, reg_p, inv_h2, u, rhs),
        init,
        "regularized solve",
        r,
        reg_p,
    )


def _active_set_step(
    op: AccretiveOperator, h: float, sigma: float, u: np.ndarray, v: np.ndarray, rhs
) -> np.ndarray:
    """The semismooth Newton step of ``solve_unregularized`` at the iterate
    u, for v = J_sigma(z) and rhs = -F(u)/sigma (dim, n); returns the step
    as (dim, n).

    A row where v is exactly 0 is inactive: its row of F' is the identity,
    and its step -u_i makes the node exactly 0.  An active row, multiplied
    by J_sigma'(z_i)^-1 = I + sigma A_0'(v_i), reads
    (d[i-1] - 2 d[i] + d[i+1])/h^2 - A_0'(v_i) d[i] = (I + sigma A_0'(v_i)) F_i/sigma,
    so the active rows are one block-tridiagonal system, solved by
    ``_reduce``.
    """
    n, dim = u.shape
    c = 1.0 / (h * h)
    step = -u.T
    act = np.flatnonzero(v.any(axis=1))
    if not act.size:
        return step
    jac = op.yosida_jacobian_many(0.0, v[act])
    level = np.zeros((dim, 3 * dim + 1, act.size))
    diag, lower, upper, r = _parts(level)
    np.negative(jac.transpose(1, 2, 0), out=diag)
    i = np.arange(dim)
    diag[i, i] -= 2.0 * c
    # couplings: c between neighbouring active nodes, 2c into the ghost row,
    # none across an inactive gap, whose known steps -u_j move to the right
    weight = np.where(act == n - 1, 2.0 * c, c)
    gap = np.diff(act) > 1
    lower[i, i, 1:] = np.where(gap, 0.0, weight[1:])
    upper[i, i, :-1] = np.where(gap, 0.0, c)
    b = rhs[:, act]
    np.negative(b + sigma * np.einsum("kab,bk->ak", jac, b), out=r)
    below = np.r_[True, gap] & (act > 0)
    above = np.r_[gap, True] & (act < n - 1)
    r[:, below] += weight[below] * u[act[below] - 1].T
    r[:, above] += c * u[act[above] + 1].T
    step[:, act] = _reduce(level)
    return step


def solve_unregularized(
    op: AccretiveOperator,
    x: np.ndarray,
    grid: TimeGrid,
    sigma: float,
    init: np.ndarray | None = None,
) -> Trajectory:
    """Solve the discrete u'' in Au, u(0) = x, at r = p = 0 by semismooth
    Newton (Qi & Sun 1993) from ``init`` (the constant x when None).

    At each unknown the inclusion is F_i(u) = u_i - J_sigma(z_i) = 0, with
    z = u + sigma u'' for any sigma > 0; the residual is F/sigma, which is
    u'' - A J_sigma(z) where the resolvent is not 0.  F' has identity rows
    where the resolvent is exactly 0, so this is the primal-dual active-set
    method (Hintermueller, Ito & Kunisch 2002), ``_active_set_step``.
    """
    x = op.space.check(x)
    h = grid.step
    gammas = np.full(grid.n_steps, sigma)

    def resolvent(u):
        return op.resolvent_many(gammas, u + sigma * _second_difference(x, h, u))

    return _newton(
        op,
        x,
        grid,
        lambda u: (u - resolvent(u)) / sigma,
        lambda u, rhs: _active_set_step(op, h, sigma, u, resolvent(u), rhs),
        init,
        "unregularized solve",
        0.0,
        0.0,
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


def _closed_form_start(op: AccretiveOperator, x: np.ndarray, grid: TimeGrid) -> np.ndarray | None:
    """The unknowns 1..n of the norm family's exact solution, the start of
    its r = 0 solve; None (the constant x) for any other operator or x = 0.

    With c the sum of the shifts (``norm_family_constant``), u stays on the
    ray of x, u = rho(t) x/||x||, and rho'' = 1 + c rho until rho reaches 0
    with zero slope at T*, 0 from there on (``norm_oracle``'s closed form).
    At c = 0, rho = (T* - t)^2/2 with T* = sqrt(2 ||x||).  For c > 0, with
    b = sqrt(c)(T* - t)/2 = asinh(sqrt(c ||x||/2)) - sqrt(c) t/2,
    rho = (cosh 2b - 1)/c = 2 sinh(b)^2/c, evaluated where b > 0 as
    (expm1(-2b) e^(b - log(c)/2))^2 / 2: no factor exceeds the float range
    however large c ||x|| is.
    """
    c = norm_family_constant(op)
    rho0 = float(np.linalg.norm(x))
    if c is None or rho0 == 0.0:
        return None
    t = grid.nodes[1:]
    rho = np.zeros(t.size)
    if c == 0.0:
        t_star = math.sqrt(2.0 * rho0)
        live = t < t_star
        rho[live] = 0.5 * (t_star - t[live]) ** 2
    else:
        b = math.asinh(math.sqrt(0.5 * c) * math.sqrt(rho0)) - 0.5 * math.sqrt(c) * t
        b = b[b > 0.0]  # decreasing in t: the live nodes come first
        rho[: b.size] = 0.5 * (np.expm1(-2.0 * b) * np.exp(b - 0.5 * math.log(c))) ** 2
    return rho[:, None] * (x / rho0)


def solve_second_order(op: AccretiveOperator, x: np.ndarray, solver: SolverConfig) -> Trajectory:
    """Solve u'' in Au, u(0) = x, on the solver's grid, at r = p = 0.

    A linear operator A = B is its own limit A_0: the unregularized
    problem u'' = Bu is solved once.  Its Newton system has the one
    diagonal block -2/h^2 - B on every row, so a step is one
    block-Toeplitz reduction (``_solve_toeplitz_system``) in O(n dim)
    memory.

    Any other operator is one ``solve_unregularized`` at ``SIGMA``, started
    from ``_closed_form_start``: the norm family's exact solution, or the
    constant x.  Every solve records ``continuation`` [(0, 0)] and no
    ``stage_diffs``, and ``stabilized`` means that the r = p = 0 system
    was solved to the Newton tolerance; a solve that fails raises
    ``SolverError``.
    """
    x = op.space.check(x)
    grid = solver.grid
    b = op.linear_matrix
    if b is not None:
        inv_h2 = 1.0 / (grid.step * grid.step)
        diag = -2.0 * inv_h2 * np.eye(op.space.dim) - b
        traj = _newton(
            op,
            x,
            grid,
            lambda u: _second_difference(x, grid.step, u) - u @ b.T,
            lambda u, rhs: _solve_toeplitz_system(inv_h2, diag, rhs),
            None,
            "linear solve",
            0.0,
            0.0,
        )
    else:
        traj = solve_unregularized(op, x, grid, SIGMA, _closed_form_start(op, x, grid))
    traj.meta.update(continuation=[(0.0, 0.0)], stage_diffs=[], stabilized=True)
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
        """Semigroup started at a new initial point (same solver setup): a
        fresh semigroup from y, whose solve starts from y's own closed-form
        profile.  The solve is deterministic, so a restart from this
        semigroup's own initial point, bit for bit, is this semigroup."""
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


# the relative quadrature allowance of check_apriori's two integral bounds
QUAD_REL_TOL = 1e-3


def check_apriori(
    op: AccretiveOperator,
    x: np.ndarray,
    traj: Trajectory,
    m_const: float,
    profile=None,
) -> AprioriBounds:
    """Trapezoidal check of the three a-priori trajectory bounds.

    sup ||u|| <= ||x||, integral of ||u'||^2 <= (2/M^2) d(0,Ax)^{3/2} ||x||^{1/2},
    integral of ||u''||^2 <= (2/M^2) d(0,Ax)^{1/2} ||x||^{3/2}, each with a
    quadrature allowance of QUAD_REL_TOL * (1 + rhs).  A functional or cap
    beyond the float range raises a ContractError that names it.  sup ||u||
    reads ``profile.norms``, the norms of the rows of ``traj.values`` that
    the run shares (its grid ``SampleSet``), computed here when not given.
    """
    x = op.space.check(x)
    nx = op.space.norm(x)
    ts = traj.times
    coeff = 2.0 / (m_const * m_const)
    norms = op.space.norms(traj.values) if profile is None else profile.norms
    with np.errstate(over="ignore"):  # beyond the float range: inf, named below
        d0 = op.dist_zero(x)
        values = {
            "||x||, the cap of sup ||u||": nx,
            "sup ||u||": np.max(norms),
            "integral of ||u'||^2": np.trapezoid(op.space.norms(traj.derivative()) ** 2, ts),
            "integral of ||u''||^2": np.trapezoid(
                op.space.norms(traj.second_derivative()) ** 2, ts
            ),
            "cap (2/M^2) d(0,Ax)^(3/2) ||x||^(1/2)": coeff * np.float64(d0) ** 1.5 * math.sqrt(nx),
            "cap (2/M^2) d(0,Ax)^(1/2) ||x||^(3/2)": coeff * math.sqrt(d0) * np.float64(nx) ** 1.5,
        }
    for name, value in values.items():
        if not math.isfinite(value):
            message = f"a-priori check at ||x|| = {nx:.3e}: {name} exceeds the float range"
            raise ContractError(message)
    _, sup_norm, int_du, int_ddu, rhs_du, rhs_ddu = map(float, values.values())
    du_cap, ddu_cap = (rhs + QUAD_REL_TOL * (1.0 + rhs) for rhs in (rhs_du, rhs_ddu))
    return AprioriBounds(
        sup_norm=sup_norm,
        int_du_sq=int_du,
        int_ddu_sq=int_ddu,
        rhs_sup=nx,
        rhs_du=rhs_du,
        rhs_ddu=rhs_ddu,
        passed=bool(sup_norm <= nx + 1e-6 and int_du <= du_cap and int_ddu <= ddu_cap),
    )


def projection_profile(op: AccretiveOperator, values: np.ndarray) -> np.ndarray:
    """||u - Pu|| for each row u of ``values``: the zero-set residual."""
    return op.space.norms(values - op.project_zeros_many(values))


CSV_BLOCK_ROWS = 2048


def _distinct_doubles(columns) -> tuple[np.ndarray, np.ndarray]:
    """The distinct doubles (by bits: -0.0 is not 0.0) of the equal-length
    float64 ``columns``, as uint64 bits in ascending order, the order of
    ``np.unique``, and the (n, len(columns)) index of each cell's double.

    The cells are laid out column by column and sorted once, stably: the
    columns of a converging trajectory are a few monotone runs each, which
    TimSort merges instead of sorting every cell."""
    cells = np.concatenate(columns).view(np.uint64)
    order = cells.argsort(kind="stable")
    cells = cells[order]
    starts = np.empty(cells.size, dtype=bool)
    starts[0] = True
    np.not_equal(cells[1:], cells[:-1], out=starts[1:])
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(starts) - 1
    return cells[starts], inverse.reshape(len(columns), -1).T


def export_trajectory_csv(op: AccretiveOperator, traj: Trajectory, out, profile=None) -> None:
    """Write the CSV to the open binary handle ``out``, in blocks of rows.

    Columns: t, u_0..u_{d-1}, norm_u, dist_to_zero_set, each value the
    shortest string that parses back to the same float, in ASCII.  The last
    two are ``profile.norms`` and ``profile.residual``, those of the rows of
    ``traj.values`` that the run shares (its grid ``SampleSet``), computed
    here when not given.  The caller opens the file once:
    ``np.savetxt(path)`` creates, closes and reopens it, and ext4
    (``auto_da_alloc``) treats that truncation of an existing file as a
    replace, forcing its blocks to be allocated at close.

    ``floatfmt.repr_bytes`` writes repr's bytes, in slabs, into the rows of
    a table of NUL-padded slots that end in ','.  The t column increases, so
    each t gets its own row, unsorted.  A converging trajectory repeats its
    values, so each distinct double (by bits: -0.0 is not 0.0) of the u and
    norm_u columns gets one row, found by one stable sort of those columns'
    cells (``_distinct_doubles``).  dist_to_zero_set reuses norm_u's rows
    when the two columns are equal bit for bit, as for the zero set {0};
    else its doubles are sorted with theirs.  A block of rows is one gather
    of table rows, the last column's ',' made '\\n', with the NULs deleted:
    the bytes of a ``%r`` row template, written as they are, and no value
    goes through ``repr``.
    """
    n, dim = traj.values.shape
    header = "t," + ",".join(f"u_{i}" for i in range(dim)) + ",norm_u,dist_to_zero_set\n"
    out.write(header.encode("ascii"))
    if profile is None:
        norms, residual = op.space.norms(traj.values), projection_profile(op, traj.values)
    else:
        norms, residual = profile.norms, profile.residual
    shared = np.array_equal(norms.view(np.uint64), residual.view(np.uint64))
    columns = [*traj.values.T, norms] if shared else [*traj.values.T, norms, residual]
    bits, inverse = _distinct_doubles(columns)
    # the distinct doubles' rows, then one row per t
    m = len(bits)
    table = np.empty((m + n, floatfmt.WIDTH + 1), dtype=np.uint8)
    floatfmt.repr_bytes(bits.view(np.float64), table[:m, :-1])
    del bits
    floatfmt.repr_bytes(traj.times, table[m:, :-1])
    table[:, -1] = ord(",")
    for start in range(0, n, CSV_BLOCK_ROWS):
        rows = inverse[start : start + CSV_BLOCK_ROWS]
        t_rows = np.arange(m + start, m + start + len(rows))
        index = np.column_stack([t_rows, rows, rows[:, -1]] if shared else [t_rows, rows])
        block = table.take(index, axis=0)
        block[:, -1, -1] = ord("\n")
        out.write(block.tobytes().translate(None, b"\0"))
