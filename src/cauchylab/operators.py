"""Catalog of m-accretive operators with closed-form resolvents.

An operator is five closed forms over the rows of an (n, dim) array:
the minimal-norm selection of its graph, the resolvent (Id + gamma A)^{-1},
the Yosida approximate and its Jacobian, and the nearest-point projection
onto its zero set.  Each single-point form is their one-row case, derived
once in ``AccretiveOperator``.  Catalog entries have full domain and a
nonempty zero set containing the origin; configurations declaring an
empty zero set are rejected at load time.

Multi-valued entries (the norm subdifferential) are exposed through
their minimal-norm selection: every bound computed downstream only needs
some graph element with controlled norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spaces import SAMPLE_CHUNK, SpaceContext

_NULLSPACE_TOL = 1e-10


@dataclass(frozen=True)
class AccretivityReport:
    min_pairing: float
    witness: tuple[np.ndarray, np.ndarray] | None
    samples: int
    passed: bool


class AccretiveOperator:
    """The operator contract: the five batched members that raise here,
    each in closed form, with no fallbacks.  Every single-point form is
    the one-row case of its batched form."""

    def __init__(self, space: SpaceContext):
        self.space = space

    # -- graph ---------------------------------------------------------------

    def select(self, x: np.ndarray) -> np.ndarray:
        """Minimal-norm element of Ax: the one-row case of ``select_many``."""
        return self.select_many(self.space.check(x)[None, :])[0]

    def select_many(self, rows: np.ndarray) -> np.ndarray:
        """``select`` of each row of an (n, dim) array."""
        raise NotImplementedError

    def dist_zero(self, x: np.ndarray) -> float:
        """Infimum of ||y|| over y in Ax; the minimal-norm selection norm."""
        return self.space.norm(self.select(x))

    def dist_zero_many(self, rows: np.ndarray) -> np.ndarray:
        """``dist_zero`` of each row of an (n, dim) array."""
        return self.space.norms(self.select_many(rows))

    def graph_distance(self, x: np.ndarray, y: np.ndarray) -> float:
        """Distance from y to the set Ax; zero iff (x, y) is a graph pair.

        Single-valued entries reduce to the distance from the selection;
        multi-valued entries override this with the true set distance.
        """
        return self.space.norm(y - self.select(x))

    def graph_bound(self, x: np.ndarray) -> int:
        """Natural bound on max(||x||, ||Ax||) used as domain-witness data."""
        return int(self.graph_bound_many(self.space.check(x)[None, :])[0])

    def graph_bound_many(self, rows: np.ndarray) -> np.ndarray:
        """``graph_bound`` of each row of an (n, dim) array, as floats."""
        return np.ceil(np.maximum(self.space.norms(rows), self.dist_zero_many(rows)))

    # -- resolvent and Yosida approximate --------------------------------------

    def resolvent(self, gamma: float, x: np.ndarray) -> np.ndarray:
        """The solution z of z + gamma*A(z) = x."""
        if gamma <= 0.0:
            raise ValueError("resolvent parameter must be positive")
        return self.resolvent_many(np.array([gamma]), self.space.check(x)[None, :])[0]

    def resolvent_many(self, gammas: np.ndarray, rows: np.ndarray) -> np.ndarray:
        """``resolvent`` of each row of an (n, dim) array, at the positive
        parameter of its row in the (n,) array ``gammas``."""
        raise NotImplementedError

    def yosida_many(self, r: float, rows: np.ndarray) -> np.ndarray:
        """Yosida approximate A_r = (Id - J_r)/r of each row."""
        raise NotImplementedError

    def yosida_jacobian_many(self, r: float, rows: np.ndarray) -> np.ndarray:
        """(n, dim, dim) Jacobians of the Yosida approximate at the rows."""
        raise NotImplementedError

    # -- zero set ---------------------------------------------------------------

    def project_zeros(self, x: np.ndarray) -> np.ndarray:
        """Nearest point of A^{-1}0: the one-row case of ``project_zeros_many``."""
        return self.project_zeros_many(self.space.check(x)[None, :])[0]

    def project_zeros_many(self, rows: np.ndarray) -> np.ndarray:
        """``project_zeros`` of each row of an (n, dim) array."""
        raise NotImplementedError

    # -- linearity hook ----------------------------------------------------------

    @property
    def linear_matrix(self) -> np.ndarray | None:
        """Matrix B when A = B is linear; None otherwise."""
        return None


class LinearMatrix(AccretiveOperator):
    """General linear operator Ax = Bx.

    Not validated for accretivity; the scaled-identity, PSD and skew
    catalog entries are factories that check their structure and return
    one of these.  The zero set is the nullspace and its projector is the
    Euclidean orthogonal projection, which is the nearest-point
    projection at p = 2.  In l^p with p < 2 a linear operator is only
    admitted when its nullspace is trivial or full, where the two
    projections coincide.
    """

    def __init__(self, matrix: np.ndarray, space: SpaceContext | None = None):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        if space is None:
            space = SpaceContext.lp(matrix.shape[0], 2.0)
        if matrix.shape[0] != space.dim:
            raise ValueError("matrix size does not match space dimension")
        super().__init__(space)
        self.matrix = matrix
        # nullspace basis: right singular vectors past the singular values
        # above _NULLSPACE_TOL times the largest
        _, sing, vh = np.linalg.svd(matrix)
        rank = int(np.sum(sing > _NULLSPACE_TOL * np.amax(sing, initial=0.0)))
        ns = vh[rank:].T
        self._null_proj = ns @ ns.T
        if space.p != 2.0 and 0 < ns.shape[1] < space.dim:
            raise ValueError(
                "linear operator with a proper nontrivial nullspace is only "
                "supported at p = 2 (nearest-point projection)"
            )

    @property
    def linear_matrix(self) -> np.ndarray:
        return self.matrix

    def select_many(self, rows: np.ndarray) -> np.ndarray:
        return np.asarray(rows, dtype=float) @ self.matrix.T

    def resolvent_many(self, gammas: np.ndarray, rows: np.ndarray) -> np.ndarray:
        lhs = np.eye(self.space.dim) + np.asarray(gammas, dtype=float)[:, None, None] * self.matrix
        return np.linalg.solve(lhs, np.asarray(rows, dtype=float)[:, :, None])[:, :, 0]

    def yosida_many(self, r: float, rows: np.ndarray) -> np.ndarray:
        # closed form B (I + rB)^{-1}
        lhs = np.eye(self.space.dim) + r * self.matrix
        return np.linalg.solve(lhs, np.asarray(rows, dtype=float).T).T @ self.matrix.T

    def yosida_jacobian_many(self, r: float, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        lhs = np.eye(self.space.dim) + r * self.matrix
        jac = self.matrix @ np.linalg.inv(lhs)
        return np.broadcast_to(jac, (rows.shape[0],) + jac.shape)

    def project_zeros_many(self, rows: np.ndarray) -> np.ndarray:
        return np.asarray(rows, dtype=float) @ self._null_proj.T


def LinearPSD(matrix: np.ndarray, space: SpaceContext | None = None) -> LinearMatrix:
    """Symmetric positive-semidefinite linear operator."""
    matrix = np.asarray(matrix, dtype=float)
    if np.max(np.abs(matrix - matrix.T)) > 1e-10:
        raise ValueError("PSD operator matrix must be symmetric")
    eigvals = np.linalg.eigvalsh(matrix)
    if eigvals.min() < -1e-10:
        raise ValueError(f"matrix is not PSD (min eigenvalue {eigvals.min():.3e})")
    return LinearMatrix(matrix, space)


def Rotation(matrix: np.ndarray | None = None, space: SpaceContext | None = None) -> LinearMatrix:
    """2x2 skew operator: accretive with identically-zero pairing.

    Satisfies the accretivity inequality with equality everywhere, hence
    admits no modulus for the convergence condition.
    """
    if matrix is None:
        matrix = np.array([[0.0, -1.0], [1.0, 0.0]])
    matrix = np.asarray(matrix, dtype=float)
    if matrix.shape != (2, 2):
        raise ValueError("rotation operator must be 2x2")
    if np.max(np.abs(matrix + matrix.T)) > 1e-10:
        raise ValueError("rotation operator matrix must be skew-symmetric")
    if abs(matrix[0, 1]) < 1e-12:
        raise ValueError("degenerate skew matrix; use the zero operator instead")
    return LinearMatrix(matrix, space)


def ScaledIdentity(c: float, space: SpaceContext) -> LinearMatrix:
    """Ax = c*x with c >= 0; c = 0 is the zero operator."""
    if c < 0.0:
        raise ValueError("scale must be nonnegative")
    return LinearMatrix(float(c) * np.eye(space.dim), space)


class NormSubdifferential(AccretiveOperator):
    """Subdifferential of the Euclidean norm.

    Single-valued x/||x|| away from the origin; at the origin the
    minimal-norm subgradient is 0.  The resolvent is the proximal map of
    gamma*||.||, a radial soft threshold.  Euclidean geometry only, the
    Hilbert kind or l^2 (the proximal map is Euclidean).
    """

    def __init__(self, space: SpaceContext):
        if space.p != 2.0:
            raise ValueError("norm subdifferential catalog entry needs p = 2 (Euclidean norm)")
        super().__init__(space)

    # exactly 0 or 1: a computed ||x / ||x|||| may round to just above 1
    def dist_zero(self, x: np.ndarray) -> float:
        return 1.0 if np.linalg.norm(self.space.check(x)) > 0.0 else 0.0

    def dist_zero_many(self, rows: np.ndarray) -> np.ndarray:
        return (np.linalg.norm(np.asarray(rows, dtype=float), axis=1) > 0.0).astype(float)

    def select_many(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        n = np.linalg.norm(rows, axis=1, keepdims=True)
        return np.divide(rows, n, out=np.zeros_like(rows), where=n > 0)

    def graph_distance(self, x: np.ndarray, y: np.ndarray) -> float:
        # at the origin the image is the whole closed unit ball
        x = self.space.check(x)
        n = np.linalg.norm(x)
        if n == 0.0:
            return max(0.0, float(np.linalg.norm(y)) - 1.0)
        return float(np.linalg.norm(y - x / n))

    def resolvent_many(self, gammas: np.ndarray, rows: np.ndarray) -> np.ndarray:
        # radial soft threshold: 0 inside the ball of radius gamma
        rows = np.asarray(rows, dtype=float)
        gammas = np.asarray(gammas, dtype=float)[:, None]
        n = np.linalg.norm(rows, axis=1, keepdims=True)
        shrink = 1.0 - gammas / np.maximum(n, gammas)
        return np.where(n > gammas, shrink * rows, 0.0)

    def yosida_many(self, r: float, rows: np.ndarray) -> np.ndarray:
        # (x - prox)(1/r) = x / max(||x||, r)
        rows = np.asarray(rows, dtype=float)
        n = np.linalg.norm(rows, axis=1, keepdims=True)
        return rows / np.maximum(n, r)

    def yosida_jacobian_many(self, r: float, rows: np.ndarray) -> np.ndarray:
        # I/r inside the ball of radius r, (I - x x^T/||x||^2)/||x|| outside:
        # with s = 1/max(||x||, r), s I - s^3 x x^T on the outside rows only
        rows = np.asarray(rows, dtype=float)
        norms = np.linalg.norm(rows, axis=1)
        s = 1.0 / np.maximum(norms, r)
        weight = np.where(norms > r, -(s**3), 0.0)
        jac = np.einsum("ni,nj->nij", rows * weight[:, None], rows)
        diag = np.arange(rows.shape[1])
        jac[:, diag, diag] += s[:, None]
        return jac

    def project_zeros_many(self, rows: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(rows, dtype=float))


class StronglyAccretive(AccretiveOperator):
    """A = base + c*Id with c > 0: strongly accretive whenever the base is
    accretive, with the unique zero at the origin (base(0) = 0 is checked).

    The resolvent, the Yosida approximate and its Jacobian compose exactly
    through the base, the latter two with no x - J_r x cancellation: with
    s = 1 + gamma c (s = 1 + r c for the Yosida pair),
        (Id + gamma A)^{-1} x = J^base_{gamma/s}(x / s),
        A_r(x) = (c/s) x + base_{r/s}(x/s) / s,
        A_r'(x) = (c/s) I + base'_{r/s}(x/s) / s^2.
    """

    def __init__(self, base: AccretiveOperator, c: float):
        if c <= 0.0:
            raise ValueError("strong-accretivity constant must be positive")
        super().__init__(base.space)
        origin = np.zeros(base.space.dim)
        if base.space.norm(base.select(origin)) > 1e-10:
            raise ValueError("base operator must vanish at the origin")
        self.base = base
        self.c = float(c)

    @property
    def linear_matrix(self) -> np.ndarray | None:
        b = self.base.linear_matrix
        if b is None:
            return None
        return b + self.c * np.eye(self.space.dim)

    def select_many(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        return self.base.select_many(rows) + self.c * rows

    def resolvent_many(self, gammas: np.ndarray, rows: np.ndarray) -> np.ndarray:
        gammas = np.asarray(gammas, dtype=float)
        scale = 1.0 + gammas * self.c
        rows = np.asarray(rows, dtype=float)
        return self.base.resolvent_many(gammas / scale, rows / scale[:, None])

    def yosida_many(self, r: float, rows: np.ndarray) -> np.ndarray:
        scale = 1.0 + r * self.c
        rows = np.asarray(rows, dtype=float)
        return (self.c / scale) * rows + self.base.yosida_many(r / scale, rows / scale) / scale

    def yosida_jacobian_many(self, r: float, rows: np.ndarray) -> np.ndarray:
        scale = 1.0 + r * self.c
        rows = np.asarray(rows, dtype=float)
        jac = self.base.yosida_jacobian_many(r / scale, rows / scale) / (scale * scale)
        diag = np.arange(self.space.dim)
        jac[:, diag, diag] += self.c / scale
        return jac

    def project_zeros_many(self, rows: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(rows, dtype=float))


def norm_family_constant(op: AccretiveOperator) -> float | None:
    """c for the norm subdifferential under strongly accretive shifts whose
    constants add up to c, the flows that stay on the ray of x; None for
    any other operator."""
    c = 0.0
    while isinstance(op, StronglyAccretive):
        op, c = op.base, c + op.c
    return c if isinstance(op, NormSubdifferential) else None


# the least duality pairing of a sampled graph pair that verify_accretive accepts
ACCRETIVE_TOL = -1e-9
# verify_accretive draws each point of a graph pair from [-r, r]^dim
ACCRETIVE_RADIUS = 2.0


def verify_accretive(
    op: AccretiveOperator,
    sample_count: int = 200,
    rng: np.random.Generator | None = None,
) -> AccretivityReport:
    """Sample graph pairs in [-ACCRETIVE_RADIUS, ACCRETIVE_RADIUS]^dim and
    report the minimum duality pairing.

    Passes iff min <y1 - y2, J(x1 - x2)> >= ACCRETIVE_TOL over a nonempty sample.
    The witness is the first pair that attains the minimum.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    space = op.space
    min_pairing = math.inf
    witness = None
    for start in range(0, sample_count, SAMPLE_CHUNK):
        # one draw per block: the same stream as x1, x2 drawn pair by pair
        size = (min(SAMPLE_CHUNK, sample_count - start), 2, space.dim)
        pairs = rng.uniform(-ACCRETIVE_RADIUS, ACCRETIVE_RADIUS, size=size)
        x1, x2 = pairs[:, 0], pairs[:, 1]
        pairing = np.einsum(
            "ij,ij->i", space.duality_map_many(x1 - x2), op.select_many(x1) - op.select_many(x2)
        )
        i = int(np.argmin(pairing))
        if pairing[i] < min_pairing:
            min_pairing = float(pairing[i])
            witness = (x1[i].copy(), x2[i].copy())
    return AccretivityReport(
        min_pairing=float(min_pairing),
        witness=witness,
        samples=sample_count,
        passed=bool(ACCRETIVE_TOL <= min_pairing < math.inf),
    )
