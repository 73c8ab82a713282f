"""Seeded scenario configs for the generated benchmark workloads.

Every config is plain YAML in the public schema of ``cauchylab run``; the
program sees nothing else.  The same (workload, seed) pair always gives
byte-identical files.

The parameters that set the cost of a scenario (operator composition,
dimension, horizon, node count, sample count, sweep ranges,
counterfunctions) are fixed per slot of a workload, and the seed draws the
rest: matrices, constants, the directions of initial points, and
validation seeds.  The seed then changes what is solved without changing how much is
solved, so run-to-run spread measures the program and not the draw.

    python3 perfbench/generate.py --workload long_horizon --seed 7 --out DIR
"""

from __future__ import annotations

import argparse
import math
import random
from pathlib import Path

import yaml

# Every operator composition of the catalog once: the plain kinds, and the
# strongly_accretive shift over each of them, so strongly_accretive over
# norm_subdifferential (which can stall in the regularized solve) keeps its
# 1-in-12 share.  (composition, dimension, horizon, grid nodes, ||x||):
# horizons span 60-100 and steps 0.005-0.01; rotation bases are 2x2 only.
# At ||x|| = 1.5 every k = 0 bound clears or misses its horizon by a wide
# margin whatever the drawn direction.  The zero operator starts at 0.9:
# with every coordinate of x below 1.11, the warm start of the last
# continuation stage already meets the Newton tolerance, so that stage
# takes no step, reports no change and stops the solve one stage early, in
# every direction.  Where a coordinate exceeds 1.11 the solve goes one
# stage further and oracle_max_dev drops tenfold, so a larger norm would
# make it jump between draws.
LONG_HORIZON_SLOTS = (
    ("scaled_identity", 6, 80, 12000, 1.5),
    ("zero", 5, 100, 12000, 0.9),
    ("linear_psd", 4, 70, 14000, 1.5),
    ("linear", 3, 90, 14000, 1.5),
    ("rotation", 2, 100, 16000, 1.5),
    ("norm_subdifferential", 3, 60, 12000, 1.5),
    ("strongly_accretive/scaled_identity", 2, 100, 16000, 1.5),
    ("strongly_accretive/zero", 4, 75, 12000, 1.5),
    ("strongly_accretive/linear_psd", 5, 65, 12000, 1.5),
    ("strongly_accretive/linear", 2, 80, 16000, 1.5),
    ("strongly_accretive/rotation", 2, 95, 16000, 1.5),
    ("strongly_accretive/norm_subdifferential", 2, 85, 12000, 1.5),
)

# (composition, horizon, sample_points): two-dimensional, step 0.01.  An
# odd slot count puts the scenario-time median on one slot, not between two.
CERTIFY_DENSE_SLOTS = (
    ("scaled_identity", 56, 2000),
    ("linear_psd", 52, 1500),
    ("strongly_accretive/rotation", 48, 1200),
    ("zero", 60, 1000),
    ("norm_subdifferential", 40, 1000),
)


def _r(x: float) -> float:
    """Round a drawn value to 4 significant digits, so configs stay legible."""
    return float(f"{x:.4g}")


def _near(rng: random.Random, center: float) -> float:
    """A constant within 15% of its slot's center: rate bounds, and with
    them which reports are extrapolated, stay comparable across seeds."""
    return _r(center * rng.uniform(0.85, 1.15))


def _vector(rng: random.Random, dim: int, norm: float) -> list[float]:
    """Random direction at a norm off the integers, so rounding cannot move
    ceil(||x||)."""
    v = [rng.gauss(0.0, 1.0) for _ in range(dim)]
    n = math.sqrt(sum(c * c for c in v)) or 1.0
    return [_r(norm * c / n) for c in v]


def _spd(rng: random.Random, dim: int, lo: float, hi: float) -> tuple[list, float]:
    """Symmetric matrix Q diag(w) Q^T and a lower bound on its smallest
    eigenvalue.  One eigenvalue lies within 15% of lo, the others in
    [lo, hi]; Q is a product of random Givens rotations."""
    w = [_near(rng, lo)] + [rng.uniform(lo, hi) for _ in range(dim - 1)]
    m = [[w[i] if i == j else 0.0 for j in range(dim)] for i in range(dim)]
    for _ in range(2 * dim):
        i, j = rng.sample(range(dim), 2)
        th = rng.uniform(0.0, math.pi)
        c, s = math.cos(th), math.sin(th)
        for row in m:  # m <- m G
            a, b = row[i], row[j]
            row[i], row[j] = c * a - s * b, s * a + c * b
        ri, rj = m[i][:], m[j][:]  # m <- G^T m
        m[i] = [c * a - s * b for a, b in zip(ri, rj)]
        m[j] = [s * a + c * b for a, b in zip(ri, rj)]
    sym = [[_r(0.5 * (m[i][j] + m[j][i])) for j in range(dim)] for i in range(dim)]
    for i in range(dim):
        for j in range(i):
            sym[i][j] = sym[j][i]
    # rounding moves eigenvalues by at most dim * 5e-4 * hi (Gershgorin)
    return sym, min(w) - dim * 5e-4 * hi


def _operator(rng: random.Random, composition: str, dim: int) -> tuple[dict, dict]:
    """Operator spec and a modulus valid for it."""
    head, _, base = composition.partition("/")
    if head == "strongly_accretive":
        c = _near(rng, 1.0)
        base_spec, _ = _operator(rng, base, dim)
        return (
            {"kind": "strongly_accretive", "c": c, "base": base_spec},
            {"kind": "strongly_accretive", "c": c},
        )
    if head == "scaled_identity":
        c = _near(rng, 1.0)
        return {"kind": "scaled_identity", "c": c}, {"kind": "strongly_accretive", "c": c}
    if head == "zero":
        return {"kind": "zero"}, {"kind": "constant", "value": 0}
    if head == "linear_psd":
        m, lam = _spd(rng, dim, 1.0, 3.0)
        return (
            {"kind": "linear_psd", "matrix": m},
            {"kind": "strongly_accretive", "c": _r(lam)},
        )
    if head == "linear":
        # symmetric part positive definite plus a skew part: accretive,
        # not symmetric, strongly accretive with the symmetric part's floor
        m, lam = _spd(rng, dim, 1.0, 3.0)
        for i in range(dim):
            for j in range(i + 1, dim):
                k = _r(rng.uniform(-0.5, 0.5))
                m[i][j] = _r(m[i][j] + k)
                m[j][i] = _r(m[j][i] - k)
        return (
            {"kind": "linear", "matrix": m},
            {"kind": "strongly_accretive", "c": _r(lam - dim * 1e-3)},
        )
    if head == "rotation":
        w = _near(rng, 1.0)
        return (
            {"kind": "rotation", "matrix": [[0.0, -w], [w, 0.0]]},
            {"kind": "constant", "value": 0},
        )
    if head == "norm_subdifferential":
        return {"kind": "norm_subdifferential"}, {"kind": "expression", "text": "k"}
    raise ValueError(f"unknown composition {composition!r}")


def _dump(cfg: dict) -> str:
    return yaml.safe_dump(cfg, sort_keys=False, default_flow_style=None, width=100)


def long_horizon(seed: int) -> list[tuple[str, str]]:
    """One long second-order solve per catalog composition, each with one
    small 4.1 sweep and the default sample_points."""
    rng = random.Random(f"long_horizon:{seed}")
    out = []
    for i, (composition, dim, horizon, nodes, norm) in enumerate(LONG_HORIZON_SLOTS):
        op, modulus = _operator(rng, composition, dim)
        scenario = {
            "id": f"lh{i:02d}_{composition.replace('/', '_')}",
            "space": {"kind": "hilbert", "dim": dim},
            "operator": op,
            "initial_point": _vector(rng, dim, norm),
            "dynamics": "second_order",
            "solver": {"horizon": float(horizon), "step": horizon / nodes, "margin": 1.0},
            "modulus": modulus,
            "sweeps": [{"theorem": "4.1", "k_range": [0, 3]}],
        }
        cfg = {"seed": rng.randrange(2**31), "scenario": scenario}
        out.append((scenario["id"], _dump(cfg)))
    return out


def certify_dense(seed: int) -> list[tuple[str, str]]:
    """Dense certification: three orbit kinds, all four theorem sweeps."""
    rng = random.Random(f"certify_dense:{seed}")
    out = []
    for i, (composition, horizon, sample_points) in enumerate(CERTIFY_DENSE_SLOTS):
        op, modulus = _operator(rng, composition, 2)
        x = _vector(rng, 2, 0.9)
        scenario = {
            "id": f"cd{i:02d}_{composition.replace('/', '_')}",
            "space": {"kind": "hilbert", "dim": 2},
            "operator": op,
            "initial_point": x,
            "dynamics": "second_order",
            "solver": {
                "horizon": float(horizon),
                "step": 0.01,
                "margin": 1.0,
                "sample_points": sample_points,
            },
            "modulus": modulus,
            "orbits": [
                {"kind": "exact"},
                {
                    "kind": "additive_decay",
                    # orthogonal to x, so sup ||orbit|| and its graph bound
                    # do not depend on the drawn direction
                    "v": [_r(-x[1] * 5 / 9), _r(x[0] * 5 / 9)],
                    "lam": 1.0,
                },
                {"kind": "time_warp", "delta": 0.5},
            ],
            "counterfunctions": {"lin": "2*n+3", "sq": "lin(n)*n+1", "cap": "max(lin(n), 20)"},
            "sweeps": [
                {"theorem": "4.1", "k_range": [0, 3]},
                {"theorem": "4.2", "k_range": [0, 2]},
                {
                    "theorem": "5.1",
                    "k_range": [0, 3],
                    "counterfunctions": ["0", "1", "n", "lin(n)", "cap(n)", "sq(n)"],
                },
                {"theorem": "5.3", "k_range": [0, 2], "orbits": ["additive_decay"]},
            ],
        }
        cfg = {"seed": rng.randrange(2**31), "scenario": scenario}
        out.append((scenario["id"], _dump(cfg)))
    return out


GENERATORS = {"long_horizon": long_horizon, "certify_dense": certify_dense}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True, help="directory for the .cfg files")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in GENERATORS[args.workload](args.seed):
        (out / f"{name}.cfg").write_text(text)
        print(out / f"{name}.cfg")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
