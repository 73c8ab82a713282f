"""Second-order flow u'' in Au via two-point boundary solves at r = p = 0.

The incomplete problem (second derivative in Au, bounded on the half
line, u(0) = x) is solved by finite differences on [0, T].  A linear
operator A = B is its own limit A_0, and u'' = Bu is solved once.  For a
nonlinear one, each stage of the fixed ``DEFAULT_SCHEDULE`` replaces A by
its Yosida approximate at parameter r plus a linear restoring term p*u and
solves that smooth problem, warm-started from the stage before, on a grid
``COARSE_FACTOR`` times coarser.  The last stage, at r = 1e-3, is solved
again on the solver's grid from its interpolation, and then starts a
semismooth Newton solve of the unregularized inclusion, written with the
resolvent at sigma = that r as u_i = J_sigma(u_i + sigma u_i''); nodes in
the zero set's basin come out exactly 0.

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

# the warm-start stages (r, p) of a nonlinear solve, p = r; the r = 0 solve
# takes the last r as its sigma
DEFAULT_SCHEDULE = ((0.1, 0.1), (0.01, 0.01), (0.001, 0.001))
# the fewest grid steps the discrete two-point system is solved on
MIN_STEPS = 4
# the warm-start stages run on a grid this many times coarser than the
# solver's (fewer times when that would leave fewer than MIN_STEPS steps)
COARSE_FACTOR = 8


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
    trajectory samples the sweeps compare, and ``first_order_n_max`` caps
    n in the exponential formula of first-order dynamics."""

    grid: TimeGrid
    margin: float = 1.0
    sample_points: int = 500
    first_order_n_max: int = 2**16

    def __post_init__(self):
        if self.margin < 0.0 or self.margin >= self.grid.horizon:
            raise ValueError("margin must lie in [0, horizon)")

    @property
    def trusted_horizon(self) -> float:
        return self.grid.horizon - self.margin


def _second_difference(x: np.ndarray, h: float, u: np.ndarray) -> np.ndarray:
    """Central second difference at the unknowns, the nodes 1..N (node 0
    clamped at x); the last row uses the ghost-node Neumann closure
    u_{N+1} = u_{N-1}."""
    n = u.shape[0]
    full = np.vstack([x[None, :], u])
    out = np.empty_like(u)
    out[: n - 1] = (full[2:] - 2.0 * full[1:-1] + full[:-2]) / (h * h)
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
    # x is aug's last dim + 1 columns, kept for the back-substitution: a copy
    # lets the levels below run without aug
    x = _solve_blocks(aug, dim).copy()
    del aug
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
    """``_solve_newton_system`` for a constant (dim, dim) diagonal block:
    solve c y[i-1] + diag y[i] + c y[i+1] = rhs[i] for i < n, with the
    ghost row's lower coupling 2c.  rhs is (dim, n), n >= 3; returns y as
    (dim, n).

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
    the metadata records.

    ``solve_step(u, rhs)`` solves the Newton system at the iterate u for
    a batch-last right-hand side rhs (dim, n).  For u'' = F(u) the
    residual is u'' - F(u) and the Jacobian is block tridiagonal:
    diagonal blocks -2/h^2 - F'(u_i), couplings 1/h^2 times the identity
    (doubled on the ghost-node row).  A nonlinear forcing passes its
    Jacobian blocks to ``_solve_newton_system``; a linear one, F = B, has
    the one block -2/h^2 - B and uses ``_solve_toeplitz_system``.  It is
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
            raise ValueError("warm-start shape mismatch")

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
    if rnorm > tol:
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
    couplings c = 1/h^2: its diagonal blocks -2c - A_r'(u_i) - p are built
    batch-last in one array, in place."""
    dim = u.shape[1]
    diag = np.empty((dim, dim, u.shape[0]))
    np.negative(op.yosida_jacobian_many(r, u).transpose(1, 2, 0), out=diag)
    diag[np.arange(dim), np.arange(dim)] -= 2.0 * c + reg_p
    return _solve_newton_system(c, diag, rhs)


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
    Newton (Qi & Sun 1993) from ``init``.

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


def _refine(values: np.ndarray, factor: int, n: int) -> np.ndarray:
    """The unknowns 1..n of a fine grid, linear between the nodes of
    ``values``, a trajectory on the grid ``factor`` times coarser."""
    i = np.arange(1, n + 1)
    j = np.minimum(i // factor, len(values) - 2)
    frac = ((i - j * factor) / factor)[:, None]
    return (1.0 - frac) * values[j] + frac * values[j + 1]


def solve_second_order(op: AccretiveOperator, x: np.ndarray, solver: SolverConfig) -> Trajectory:
    """Solve u'' in Au, u(0) = x, on the solver's grid, at r = p = 0.

    A linear operator A = B is its own limit A_0: the unregularized
    problem u'' = Bu is solved once, with no warm-start stage.  Its Newton
    system has the one diagonal block -2/h^2 - B on every row, so a step
    is one block-Toeplitz reduction (``_solve_toeplitz_system``) in
    O(n dim) memory.

    Otherwise every (r, p) stage of ``DEFAULT_SCHEDULE`` is solved in
    turn, each warm-started from the one before, on a grid whose step is
    ``COARSE_FACTOR`` times the solver's (the largest smaller factor that
    leaves ``MIN_STEPS`` steps on a shorter grid; a factor of 1 is the
    solver's grid).  It covers ceil(n / factor) coarse steps, so it
    reaches the horizon or past it.  The last stage, at r = 1e-3, is
    interpolated linearly onto the solver's grid and solved there once
    more at the same r, and that trajectory starts ``solve_unregularized``
    with sigma = its r.  The metadata records the stages and then (0, 0)
    in ``continuation``, and in ``stage_diffs`` the sup-norm change from
    each stage to the next: between the coarse stages on the coarse grid,
    and then from the fine r = 1e-3 solve to the unregularized one.  It
    records ``coarse_step`` and, in ``stage_steps``, the Newton steps of
    the coarse stages, the fine r = 1e-3 solve and the r = 0 solve.  In
    both cases ``stabilized`` means that the r = p = 0 system was solved
    to the Newton tolerance; a solve that fails raises ``SolverError``.
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
        traj.meta.update(continuation=[(0.0, 0.0)], stage_diffs=[])
    else:
        n = grid.n_steps
        factor = min(COARSE_FACTOR, max(1, n // MIN_STEPS))
        m = -(-n // factor)
        coarse_step = factor * grid.step
        coarse = TimeGrid(m * coarse_step, coarse_step)
        stages = []
        for r, p in DEFAULT_SCHEDULE:
            warm = stages[-1].values[1:] if stages else None
            stages.append(solve_regularized(op, r, p, x, coarse, init=warm))
        r, p = DEFAULT_SCHEDULE[-1]
        refined = solve_regularized(op, r, p, x, grid, init=_refine(stages[-1].values, factor, n))
        traj = solve_unregularized(op, x, grid, r, refined.values[1:])
        diffs = [
            float(np.max(op.space.norms(nxt.values - prev.values)))
            for prev, nxt in zip([*stages[:-1], refined], [*stages[1:], traj])
        ]
        traj.meta.update(
            continuation=[*DEFAULT_SCHEDULE, (0.0, 0.0)],
            stage_diffs=diffs,
            coarse_step=coarse_step,
            stage_steps=[s.meta["newton_steps"] for s in [*stages, refined, traj]],
        )
    traj.meta.update(stabilized=True, initial_point=x.copy())
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
