"""First-order contraction semigroup via the exponential formula.

S(t)x is approximated by the n-fold composition of the resolvent at
step t/n, evaluated at a whole array of times at once.  For linear
operators the composition equals a matrix power of the single-step
resolvent, evaluated as one stacked inverse and matrix power over the
times; nonlinear entries run the literal composition, each step one
batched resolvent over the times.  ``semigroup_points`` wraps the formula
with Richardson-style stopping on successive doubling of n, with a mask
that keeps each time at the n where it stopped; ``semigroup_point`` is
its one-time case.  The engine serves as an oracle and as a generator of
first-order orbits; the asymptotic targets of the package live in the
second-order module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import AccretiveOperator


@dataclass(frozen=True)
class ExpFormulaConfig:
    n_min: int = 16
    n_max: int = 2**20
    tol: float = 1e-8

    def __post_init__(self):
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError("require 1 <= n_min <= n_max")
        if self.tol <= 0.0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class SemigroupMeta:
    n_used: int
    achieved: float
    converged: bool


def exp_formula(
    op: AccretiveOperator, t: float | np.ndarray, x: np.ndarray, n: int
) -> np.ndarray:
    """n-fold composition of the resolvent at step t/n applied to x.

    ``t`` is one time or an array of times; the result has one row per
    time, and at t = 0 it is x itself.
    """
    times = np.asarray(t, dtype=float)
    if np.any(times < 0.0):
        raise ValueError("time must be nonnegative")
    if n < 1:
        raise ValueError("step count must be positive")
    x = op.space.check(x)
    flat = times.reshape(-1)
    out = np.tile(x, (flat.size, 1))
    moving = flat != 0.0
    gammas = flat[moving] / n
    b = op.linear_matrix
    if b is not None:
        single = np.linalg.inv(np.eye(op.space.dim) + gammas[:, None, None] * b)
        out[moving] = np.linalg.matrix_power(single, n) @ x
    else:
        z = out[moving]
        for _ in range(n):
            z = op.resolvent_many(gammas, z)
        out[moving] = z
    return out.reshape(times.shape + x.shape)


def semigroup_points(
    op: AccretiveOperator,
    times: np.ndarray,
    x: np.ndarray,
    cfg: ExpFormulaConfig | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Evaluate S(t)x at each of the 1-d array ``times``, doubling n from
    n_min until successive values agree within cfg.tol or n_max is reached.

    Returns the values, one row per time, and per time the n used, the
    last successive difference and whether it converged.  Hitting n_max
    without agreement is flagged, not an error: the last iterate is still
    the best available value.  A time stops at the first doubling whose
    difference is within the tolerance and is then left out of the
    following doublings; ``semigroup_point`` is this function at one time,
    so a one-time evaluation stops where the batched one does.
    """
    if cfg is None:
        cfg = ExpFormulaConfig()
    x = op.space.check(x)
    times = np.asarray(times, dtype=float)
    values = exp_formula(op, times, x, cfg.n_min)
    n_used = np.full(times.shape, cfg.n_min)
    converged = times == 0.0
    achieved = np.where(converged, 0.0, np.nan)
    active = np.flatnonzero(~converged)
    n = cfg.n_min
    while 2 * n <= cfg.n_max and active.size:
        n *= 2
        cur = exp_formula(op, times[active], x, n)
        diff = op.space.norms(cur - values[active])
        values[active] = cur
        n_used[active] = n
        achieved[active] = diff
        done = diff <= cfg.tol
        converged[active[done]] = True
        active = active[~done]
    return values, n_used, achieved, converged


def semigroup_point(
    op: AccretiveOperator,
    t: float,
    x: np.ndarray,
    cfg: ExpFormulaConfig | None = None,
) -> tuple[np.ndarray, SemigroupMeta]:
    """Evaluate S(t)x at one time: ``semigroup_points`` at [t]."""
    values, n_used, achieved, converged = semigroup_points(op, np.array([t]), x, cfg)
    meta = SemigroupMeta(
        n_used=int(n_used[0]), achieved=float(achieved[0]), converged=bool(converged[0])
    )
    return values[0], meta
