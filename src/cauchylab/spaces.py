"""Concrete finite-dimensional normed spaces with explicit duality maps.

Two kinds are supported: Euclidean (Hilbert) space, where the normalized
duality map is the identity and the strong-monotonicity constant is
exactly one, and finite-dimensional l^p space with real p >= 2, where the
duality map has the closed form

    J(x)_i = ||x||_p^(2-p) * |x_i|^(p-2) * x_i,   J(0) = 0,

and the strong-monotonicity constant M is supplied per scenario and
validated by sampling on a bounded region.  p < 2 is rejected: the
formula degenerates at zero coordinates and no sampled bound would be
trustworthy there.

The sampling validators here, in ``operators`` and in ``verification``,
draw and evaluate their samples in blocks of SAMPLE_CHUNK rows, each
block in one batched evaluation.  Each reports the batched value, and
judges ``pass`` with a stated allowance: -1e-9 on the accretivity
pairing, M - 1e-12 on the monotonicity ratio, and the modulus check's
``tol``.  A check that compared nothing does not pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch

_IDENTITY_TOL = 1e-10
# samples per block of the batched validators: a block holds a few
# SAMPLE_CHUNK x 2 x dim float arrays, so memory stays bounded at any count
SAMPLE_CHUNK = 1024


@dataclass(frozen=True)
class MonotonicityReport:
    """Result of sampling <x-y, Jx-Jy> >= M ||x-y||^2 on a ball."""

    constant: float
    min_ratio: float
    samples: int
    radius: float
    passed: bool


@dataclass(frozen=True)
class SpaceContext:
    """Immutable description of the ambient space.

    ``kind`` is "hilbert" or "lp"; ``M`` is the strong-monotonicity
    constant of the duality map (1.0 exactly in the Hilbert case).
    """

    kind: str
    dim: int
    M: float = 1.0
    p: float = field(default=2.0)

    @staticmethod
    def hilbert(dim: int) -> "SpaceContext":
        if dim < 1:
            raise ValueError("dimension must be positive")
        return SpaceContext(kind="hilbert", dim=dim, M=1.0, p=2.0)

    @staticmethod
    def lp(dim: int, p: float, M: float) -> "SpaceContext":
        if dim < 1:
            raise ValueError("dimension must be positive")
        if p < 2.0:
            raise ValueError("p < 2 is not supported (duality map degenerates)")
        if M <= 0.0:
            raise ValueError("strong-monotonicity constant must be positive")
        return SpaceContext(kind="lp", dim=dim, M=M, p=float(p))

    # -- basic vector plumbing ------------------------------------------------

    def check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected vector of dimension {self.dim}, got shape {x.shape}"
            )
        return x

    def norm(self, x: np.ndarray) -> float:
        x = self.check(x)
        if self.kind == "hilbert":
            return float(np.linalg.norm(x))
        return float(np.linalg.norm(x, ord=self.p))

    def norms(self, rows: np.ndarray) -> np.ndarray:
        """Row-wise norms of an (n, dim) array."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise DimensionMismatch(f"expected (n, {self.dim}) array, got {rows.shape}")
        if self.kind == "hilbert":
            return np.linalg.norm(rows, axis=1)
        return np.linalg.norm(rows, ord=self.p, axis=1)

    def duality_map_many(self, rows: np.ndarray) -> np.ndarray:
        """``duality_map`` of each row of an (n, dim) array."""
        rows = np.asarray(rows, dtype=float)
        if self.kind == "hilbert":
            return rows.copy()
        nx = self.norms(rows)[:, None]
        scale = np.where(nx > 0.0, nx, 1.0) ** (2.0 - self.p)
        return np.where(nx > 0.0, scale * np.abs(rows) ** (self.p - 2.0) * rows, 0.0)

    def dual_norm(self, f: np.ndarray) -> float:
        f = self.check(f)
        if self.kind == "hilbert":
            return float(np.linalg.norm(f))
        q = self.p / (self.p - 1.0)
        return float(np.linalg.norm(f, ord=q))

    def dual_pair(self, f: np.ndarray, x: np.ndarray) -> float:
        """Finite-dimensional pairing <x, f>: the coordinate dot product."""
        f = self.check(f)
        x = self.check(x)
        return float(f @ x)

    def duality_map(self, x: np.ndarray) -> np.ndarray:
        """Normalized duality map: <x, Jx> = ||x||^2 and ||Jx||_* = ||x||."""
        x = self.check(x)
        if self.kind == "hilbert":
            return x.copy()
        nx = self.norm(x)
        if nx == 0.0:
            return np.zeros_like(x)
        return nx ** (2.0 - self.p) * np.abs(x) ** (self.p - 2.0) * x

    # -- validation -----------------------------------------------------------

    def check_duality_identities(self, x: np.ndarray, tol: float = _IDENTITY_TOL) -> bool:
        x = self.check(x)
        j = self.duality_map(x)
        nx = self.norm(x)
        scale = 1.0 + nx * nx
        return (
            abs(self.dual_pair(j, x) - nx * nx) <= tol * scale
            and abs(self.dual_norm(j) - nx) <= tol * (1.0 + nx)
        )

    def validate_strong_monotonicity(
        self,
        radius: float = 2.0,
        samples: int = 10_000,
        rng: np.random.Generator | None = None,
    ) -> MonotonicityReport:
        """Sample pairs in the ball of ``radius`` and check the M-inequality.

        For the Hilbert kind the inequality is an identity with M = 1, so
        the report is a formality.  For lp the configured M is a scenario
        datum; the sampled minimum ratio certifies it on the region only.
        J is 1-homogeneous, so a pair's ratio is scale-free: ``radius``
        moves no verdict.
        """
        if rng is None:
            rng = np.random.default_rng(0)
        min_ratio = math.inf
        for start in range(0, samples, SAMPLE_CHUNK):
            # one draw per block: the same stream as x, y drawn pair by pair
            size = (min(SAMPLE_CHUNK, samples - start), 2, self.dim)
            pairs = rng.uniform(-radius, radius, size=size)
            d = pairs[:, 0] - pairs[:, 1]
            nd = self.norms(d)
            # pairs closer than 1e-9 are skipped
            far = nd >= 1e-9
            x, y, d, nd = pairs[far, 0], pairs[far, 1], d[far], nd[far]
            gap = np.einsum("ij,ij->i", self.duality_map_many(x) - self.duality_map_many(y), d)
            min_ratio = min(min_ratio, float(np.min(gap / (nd * nd), initial=math.inf)))
        # a check that compared no pair certifies nothing
        passed = bool(min_ratio < math.inf and min_ratio >= self.M - 1e-12)
        return MonotonicityReport(
            constant=self.M,
            min_ratio=float(min_ratio),
            samples=samples,
            radius=radius,
            passed=passed,
        )
