"""Concrete finite-dimensional normed spaces with explicit duality maps.

A space is finite-dimensional l^p with real 1 < p <= 2, and p alone
decides its geometry: the Hilbert kind is the name of p = 2.  The
duality map has the closed form

    J(x)_i = sign(x_i) * |x_i|^(p-1) * ||x||_p^(2-p),

finite at zero coordinates and at x = 0, and x bit for bit at p = 2,
where the powers are 1 and 0.  The duality map of l^p is (p - 1)-strongly
monotone: 1/2 ||.||_p^2 is (p - 1)-strongly convex for 1 < p <= 2 (Ball,
Carlen & Lieb, Invent. Math. 115, 1994), so M = p - 1, and M = 1 in
Euclidean space.  For p > 2 no M > 0 exists (x = (1, 0), y = (1, eps)
gives a ratio of order eps^2; Xu, Nonlinear Anal. 16, 1991), so such
spaces are refused.

The sampling validators here, in ``operators`` and in ``verification``,
draw and evaluate their samples in blocks of SAMPLE_CHUNK rows, each
block in one batched evaluation.  Each reports the batched value, and
judges ``pass`` with a stated allowance: -1e-9 on the accretivity
pairing, M - 1e-12 on the monotonicity ratio, and the modulus check's
``tol``.  A check that compared nothing does not pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Immutable description of the ambient space, l^p on R^dim; the
    config's ``hilbert`` kind is p = 2.  The strong-monotonicity constant
    of the duality map is ``M`` = p - 1, so 1 in the Hilbert space.
    """

    dim: int
    p: float = 2.0

    @property
    def M(self) -> float:
        return self.p - 1.0

    @staticmethod
    def lp(dim: int, p: float) -> "SpaceContext":
        if dim < 1:
            raise ValueError("dimension must be positive")
        if not 1.0 < p <= 2.0:
            raise ValueError(
                f"p = {p} lies outside (1, 2]: only there is the duality map "
                "M-strongly monotone, with M = p - 1 > 0"
            )
        return SpaceContext(dim=dim, p=float(p))

    # -- basic vector plumbing ------------------------------------------------

    def check(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DimensionMismatch(
                f"expected vector of dimension {self.dim}, got shape {x.shape}"
            )
        return x

    def norm(self, x: np.ndarray) -> float:
        # not norms(x[None]): the vector path (dot) and the row path (add.reduce)
        # may differ in the last bit, and d(0, Ax) and the rate data read this one
        return float(np.linalg.norm(self.check(x), ord=self.p))

    def norms(self, rows: np.ndarray) -> np.ndarray:
        """Row-wise norms of an (n, dim) array."""
        rows = np.asarray(rows, dtype=float)
        if rows.ndim != 2 or rows.shape[1] != self.dim:
            raise DimensionMismatch(f"expected (n, {self.dim}) array, got {rows.shape}")
        return np.linalg.norm(rows, ord=self.p, axis=1)

    def max_norm(self, rows: np.ndarray) -> float:
        """max(norm(row) for row in rows), bit for bit, from one ``norms``
        pass: the two paths may differ in the last bit, so the rows within
        a relative 1e-12 of its maximum, among them the winner by ``norm``,
        are taken again through ``norm``.  A row's norm is 0 on either path
        exactly when each |x_i|^p rounds to 0, so a maximum of 0 is the
        answer."""
        batched = self.norms(rows)
        top = batched.max()
        if top == 0.0:
            return 0.0
        near = batched >= top * (1.0 - 1e-12)
        return max(self.norm(row) for row in np.asarray(rows, dtype=float)[near])

    def duality_map_many(self, rows: np.ndarray) -> np.ndarray:
        """``duality_map`` of each row of an (n, dim) array."""
        rows = np.asarray(rows, dtype=float)
        nx = self.norms(rows)[:, None]
        return np.copysign(np.abs(rows) ** (self.p - 1.0), rows) * nx ** (2.0 - self.p)

    def dual_norm(self, f: np.ndarray) -> float:
        f = self.check(f)
        # the exponent q = p / (p - 1) is huge for p near 1: |f_i|^q in
        # units of max |f_i| cannot overflow
        q = self.p / (self.p - 1.0)
        top = float(np.max(np.abs(f), initial=0.0))
        return top * float(np.linalg.norm(f / top, ord=q)) if top > 0.0 else 0.0

    def dual_pair(self, f: np.ndarray, x: np.ndarray) -> float:
        """Finite-dimensional pairing <x, f>: the coordinate dot product."""
        f = self.check(f)
        x = self.check(x)
        return float(f @ x)

    def duality_map(self, x: np.ndarray) -> np.ndarray:
        """Normalized duality map: <x, Jx> = ||x||^2 and ||Jx||_* = ||x||."""
        return self.duality_map_many(self.check(x)[None, :])[0]

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

        M = p - 1 is a theorem, so the program no longer calls this; the
        tests use it as the oracle for that constant.  J is 1-homogeneous,
        so a pair's ratio is scale-free: ``radius`` moves no verdict.
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
