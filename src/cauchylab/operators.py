"""Catalog of m-accretive operators with computable resolvents.

Every operator exposes a minimal-norm selection of its graph, the
resolvent (Id + gamma A)^{-1}, the Yosida approximate, the distance
d(0, Ax) and the nearest-point projection onto its zero set.  Catalog
entries have full domain and a nonempty zero set containing the origin;
configurations declaring an empty zero set are rejected at load time.

Multi-valued entries (the norm subdifferential) are exposed through
their minimal-norm selection: every bound computed downstream only needs
some graph element with controlled norm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SolverError
from .spaces import SpaceContext

_NULLSPACE_TOL = 1e-10


@dataclass(frozen=True)
class AccretivityReport:
    min_pairing: float
    witness: tuple[np.ndarray, np.ndarray] | None
    samples: int
    passed: bool


class AccretiveOperator:
    """Base class; concrete entries override the hooks they can do in
    closed form and inherit damped-Newton fallbacks for the rest."""

    def __init__(self, space: SpaceContext):
        self.space = space

    # -- graph ---------------------------------------------------------------

    def select(self, x: np.ndarray) -> np.ndarray:
        """Minimal-norm element of Ax."""
        raise NotImplementedError

    def select_many(self, rows: np.ndarray) -> np.ndarray:
        return np.stack([self.select(r) for r in np.asarray(rows, dtype=float)])

    def dist_zero(self, x: np.ndarray) -> float:
        """Infimum of ||y|| over y in Ax; the minimal-norm selection norm."""
        return self.space.norm(self.select(x))

    def graph_distance(self, x: np.ndarray, y: np.ndarray) -> float:
        """Distance from y to the set Ax; zero iff (x, y) is a graph pair.

        Single-valued entries reduce to the distance from the selection;
        multi-valued entries override this with the true set distance.
        """
        return self.space.norm(y - self.select(x))

    def graph_bound(self, x: np.ndarray) -> int:
        """Natural bound on max(||x||, ||Ax||) used as domain-witness data."""
        return int(math.ceil(max(self.space.norm(x), self.dist_zero(x))))

    def domain_witness(self, x: np.ndarray):
        """Approximating graph pairs near x, indexed by precision.

        Catalog operators have full domain, so the pair at x itself
        serves every precision index: the witness is constant in n.
        """
        x = self.space.check(x)
        y = self.select(x)
        bound = self.graph_bound(x)
        return lambda n: (x, y, bound)

    # -- resolvent and Yosida approximate --------------------------------------

    def resolvent(self, gamma: float, x: np.ndarray) -> np.ndarray:
        """Solve z + gamma*A(z) = x.  Fallback: damped Newton."""
        if gamma <= 0.0:
            raise ValueError("resolvent parameter must be positive")
        return self._newton_resolvent(gamma, self.space.check(x))

    def resolvent_many(self, gamma: float, rows: np.ndarray) -> np.ndarray:
        return np.stack([self.resolvent(gamma, r) for r in np.asarray(rows, dtype=float)])

    def yosida(self, r: float, x: np.ndarray) -> np.ndarray:
        if r <= 0.0:
            raise ValueError("Yosida parameter must be positive")
        x = self.space.check(x)
        return (x - self.resolvent(r, x)) / r

    def yosida_many(self, r: float, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        return (rows - self.resolvent_many(r, rows)) / r

    def yosida_jacobian_many(self, r: float, rows: np.ndarray) -> np.ndarray:
        """(n, dim, dim) Jacobians of the Yosida approximate, by forward
        differences unless a closed form is available."""
        rows = np.asarray(rows, dtype=float)
        n, dim = rows.shape
        base = self.yosida_many(r, rows)
        jac = np.empty((n, dim, dim))
        eps = 1e-7
        for c in range(dim):
            pert = rows.copy()
            pert[:, c] += eps
            jac[:, :, c] = (self.yosida_many(r, pert) - base) / eps
        return jac

    # -- zero set ---------------------------------------------------------------

    def project_zeros(self, x: np.ndarray) -> np.ndarray:
        """Nearest point of A^{-1}0."""
        raise NotImplementedError

    def project_zeros_many(self, rows: np.ndarray) -> np.ndarray:
        return np.stack([self.project_zeros(r) for r in np.asarray(rows, dtype=float)])

    @property
    def zero_point(self) -> np.ndarray:
        return np.zeros(self.space.dim)

    # -- linearity hook ----------------------------------------------------------

    @property
    def linear_matrix(self) -> np.ndarray | None:
        """Matrix B when A = B is linear; None otherwise."""
        return None

    # -- internals ---------------------------------------------------------------

    def _newton_resolvent(
        self,
        gamma: float,
        x: np.ndarray,
        tol: float = 1e-12,
        max_iter: int = 200,
    ) -> np.ndarray:
        """Damped Newton on g(z) = z + gamma*A(z) - x, damping halved on
        residual increase."""
        dim = self.space.dim
        z = x.copy()
        res = z + gamma * self.select(z) - x
        rnorm = float(np.linalg.norm(res))
        for _ in range(max_iter):
            if rnorm <= tol:
                return z
            jac = np.eye(dim) + gamma * self._select_jacobian(z)
            try:
                step = np.linalg.solve(jac, -res)
            except np.linalg.LinAlgError as exc:
                raise SolverError(f"singular resolvent Jacobian: {exc}", rnorm)
            lam = 1.0
            while lam > 1e-10:
                z_new = z + lam * step
                res_new = z_new + gamma * self.select(z_new) - x
                rnorm_new = float(np.linalg.norm(res_new))
                if rnorm_new < rnorm:
                    z, res, rnorm = z_new, res_new, rnorm_new
                    break
                lam *= 0.5
            else:
                break
        if rnorm <= 1e-10:
            return z
        raise SolverError(
            f"resolvent Newton stalled at residual {rnorm:.3e}", rnorm
        )

    def _select_jacobian(self, z: np.ndarray, eps: float = 1e-7) -> np.ndarray:
        dim = self.space.dim
        base = self.select(z)
        jac = np.empty((dim, dim))
        for c in range(dim):
            pert = z.copy()
            pert[c] += eps
            jac[:, c] = (self.select(pert) - base) / eps
        return jac


class LinearMatrix(AccretiveOperator):
    """General linear operator Ax = Bx.

    Not validated for accretivity; the scaled-identity, PSD and skew
    catalog entries are factories that check their structure and return
    one of these.  The zero set is the nullspace and its projector is the
    Euclidean orthogonal projection, which is the nearest-point
    projection in the Hilbert kind.  In lp spaces a linear operator is
    only admitted when its nullspace is trivial or full, where the two
    projections coincide.
    """

    def __init__(self, matrix: np.ndarray, space: SpaceContext | None = None):
        matrix = np.asarray(matrix, dtype=float)
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError("operator matrix must be square")
        if space is None:
            space = SpaceContext.hilbert(matrix.shape[0])
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
        if space.kind == "lp" and 0 < ns.shape[1] < space.dim:
            raise ValueError(
                "linear operator with a proper nontrivial nullspace is only "
                "supported in the Hilbert kind (nearest-point projection)"
            )

    @property
    def linear_matrix(self) -> np.ndarray:
        return self.matrix

    def select(self, x: np.ndarray) -> np.ndarray:
        return self.matrix @ self.space.check(x)

    def select_many(self, rows: np.ndarray) -> np.ndarray:
        return np.asarray(rows, dtype=float) @ self.matrix.T

    def resolvent(self, gamma: float, x: np.ndarray) -> np.ndarray:
        if gamma <= 0.0:
            raise ValueError("resolvent parameter must be positive")
        x = self.space.check(x)
        lhs = np.eye(self.space.dim) + gamma * self.matrix
        return np.linalg.solve(lhs, x)

    def resolvent_many(self, gamma: float, rows: np.ndarray) -> np.ndarray:
        lhs = np.eye(self.space.dim) + gamma * self.matrix
        return np.linalg.solve(lhs, np.asarray(rows, dtype=float).T).T

    def yosida_many(self, r: float, rows: np.ndarray) -> np.ndarray:
        # closed form B (I + rB)^{-1}
        return self.resolvent_many(r, rows) @ self.matrix.T

    def yosida_jacobian_many(self, r: float, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        lhs = np.eye(self.space.dim) + r * self.matrix
        jac = self.matrix @ np.linalg.inv(lhs)
        return np.broadcast_to(jac, (rows.shape[0],) + jac.shape)

    def project_zeros(self, x: np.ndarray) -> np.ndarray:
        return self._null_proj @ self.space.check(x)

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
    gamma*||.||, a radial soft threshold, so no Newton iteration is ever
    needed.  Hilbert kind only (the proximal map is Euclidean).
    """

    def __init__(self, space: SpaceContext):
        if space.kind != "hilbert":
            raise ValueError("norm subdifferential catalog entry is Hilbert-only")
        super().__init__(space)

    def select(self, x: np.ndarray) -> np.ndarray:
        x = self.space.check(x)
        n = np.linalg.norm(x)
        if n == 0.0:
            return np.zeros_like(x)
        return x / n

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

    def resolvent(self, gamma: float, x: np.ndarray) -> np.ndarray:
        if gamma <= 0.0:
            raise ValueError("resolvent parameter must be positive")
        x = self.space.check(x)
        n = np.linalg.norm(x)
        if n <= gamma:
            return np.zeros_like(x)
        return (1.0 - gamma / n) * x

    def resolvent_many(self, gamma: float, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        n = np.linalg.norm(rows, axis=1, keepdims=True)
        factor = np.maximum(0.0, 1.0 - gamma / np.maximum(n, 1e-300))
        return factor * rows

    def yosida_many(self, r: float, rows: np.ndarray) -> np.ndarray:
        # (x - prox)(1/r) = x / max(||x||, r)
        rows = np.asarray(rows, dtype=float)
        n = np.linalg.norm(rows, axis=1, keepdims=True)
        return rows / np.maximum(n, r)

    def yosida_jacobian_many(self, r: float, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        n_rows, dim = rows.shape
        norms = np.linalg.norm(rows, axis=1)
        jac = np.empty((n_rows, dim, dim))
        eye = np.eye(dim)
        inside = norms <= r
        jac[inside] = eye / r
        out_idx = np.nonzero(~inside)[0]
        if out_idx.size:
            u = rows[out_idx] / norms[out_idx, None]
            outer = np.einsum("ni,nj->nij", u, u)
            jac[out_idx] = (eye[None, :, :] - outer) / norms[out_idx, None, None]
        return jac

    def project_zeros(self, x: np.ndarray) -> np.ndarray:
        return np.zeros(self.space.dim)

    def project_zeros_many(self, rows: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(rows, dtype=float))


class StronglyAccretive(AccretiveOperator):
    """A = base + c*Id with c > 0: strongly accretive whenever the base is
    accretive, with the unique zero at the origin (base(0) = 0 is checked).

    The resolvent composes exactly through the base:
        (Id + gamma A)^{-1} x = J^base_{gamma'}(x / (1 + gamma c)),
    gamma' = gamma / (1 + gamma c).
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

    def select(self, x: np.ndarray) -> np.ndarray:
        x = self.space.check(x)
        return self.base.select(x) + self.c * x

    def select_many(self, rows: np.ndarray) -> np.ndarray:
        rows = np.asarray(rows, dtype=float)
        return self.base.select_many(rows) + self.c * rows

    def resolvent(self, gamma: float, x: np.ndarray) -> np.ndarray:
        if gamma <= 0.0:
            raise ValueError("resolvent parameter must be positive")
        x = self.space.check(x)
        scale = 1.0 + gamma * self.c
        return self.base.resolvent(gamma / scale, x / scale)

    def resolvent_many(self, gamma: float, rows: np.ndarray) -> np.ndarray:
        scale = 1.0 + gamma * self.c
        return self.base.resolvent_many(gamma / scale, np.asarray(rows, dtype=float) / scale)

    def project_zeros(self, x: np.ndarray) -> np.ndarray:
        return np.zeros(self.space.dim)

    def project_zeros_many(self, rows: np.ndarray) -> np.ndarray:
        return np.zeros_like(np.asarray(rows, dtype=float))


def verify_accretive(
    op: AccretiveOperator,
    sample_count: int = 200,
    region_radius: float = 2.0,
    rng: np.random.Generator | None = None,
    tol: float = -1e-9,
) -> AccretivityReport:
    """Sample graph pairs and report the minimum duality pairing.

    Passes iff min <y1 - y2, J(x1 - x2)> >= -1e-9 over the sample.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    space = op.space
    min_pairing = np.inf
    witness = None
    for _ in range(sample_count):
        x1 = rng.uniform(-region_radius, region_radius, size=space.dim)
        x2 = rng.uniform(-region_radius, region_radius, size=space.dim)
        y1, y2 = op.select(x1), op.select(x2)
        pairing = space.dual_pair(space.duality_map(x1 - x2), y1 - y2)
        if pairing < min_pairing:
            min_pairing = pairing
            witness = (x1, x2)
    return AccretivityReport(
        min_pairing=float(min_pairing),
        witness=witness,
        samples=sample_count,
        passed=bool(min_pairing >= tol),
    )
