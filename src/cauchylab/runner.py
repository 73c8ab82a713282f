"""Batch execution of a scenario config: solve, validate, sweep, report.

Outputs land in the configured directory: ``reports.json`` (canonical,
byte-reproducible for a fixed seed), ``reports.csv``, the scenario
``trajectories.csv``, and a ``plotdata/`` directory of plain-text .dat
files plus a small plotting script.  All files are written to a
temporary name and renamed into place, so a crash never leaves partial
outputs behind.

Exit code contract: 0 when every non-extrapolated report passes, 2 when
any fails, 1 on configuration or solver errors.  Extrapolated reports
are diagnostics only and never count toward acceptance.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .config import ScenarioSpec, SweepSpec, load_config
from .errors import CauchyLabError, ConfigError
from .second_order import (
    SqrtSemigroup,
    check_apriori,
    export_trajectory_csv,
    projection_profile,
)
from .semigroup import ExpFormulaConfig
from .verification import (
    RateReport,
    ScenarioBundle,
    fejer_report,
    first_order_trajectory,
    make_almost_orbit,
    modulus_check,
    sweep_theorem,
)
from .operators import verify_accretive


@dataclass
class RunResult:
    exit_code: int
    reports: list[RateReport]
    diagnostics: dict
    output_dir: Path | None
    error: str | None = None


def _jsonable(obj):
    """Recursively convert reports/diagnostics into strict-JSON values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def materialize(spec: ScenarioSpec) -> tuple[ScenarioBundle, dict]:
    """Solve the scenario trajectory, build orbits, run load validations."""
    diagnostics: dict = {"scenario": spec.scenario_id, "dynamics": spec.dynamics}

    if spec.space.kind == "lp":
        rng = np.random.default_rng([spec.seed, 1])
        mono = spec.space.validate_strong_monotonicity(
            spec.lp_validate_radius, spec.validation.monotonicity_samples, rng
        )
        diagnostics["strong_monotonicity"] = {
            "constant": mono.constant,
            "min_ratio": mono.min_ratio,
            "samples": mono.samples,
            "radius": mono.radius,
            "pass": mono.passed,
        }
        if not mono.passed:
            raise ConfigError(
                f"configured M={spec.space.M} violated on sampled region: "
                f"min ratio {mono.min_ratio:.6g}"
            )

    rng = np.random.default_rng([spec.seed, 2])
    acc = verify_accretive(
        spec.op,
        spec.validation.accretivity_samples,
        spec.validation.region_radius,
        rng,
    )
    diagnostics["accretivity"] = {
        "min_pairing": acc.min_pairing,
        "samples": acc.samples,
        "pass": acc.passed,
    }

    sg = None
    if spec.dynamics == "second_order":
        sg = SqrtSemigroup(spec.op, spec.x, spec.solver)
        trajectory = sg.trajectory
    else:
        trajectory = first_order_trajectory(
            spec.op, spec.x, spec.solver.grid, ExpFormulaConfig(n_max=spec.first_order_n_max)
        )
    diagnostics["solver"] = {
        "stabilized": trajectory.meta.get("stabilized"),
        "far_end_ok": trajectory.meta.get("far_end_ok"),
        "continuation": trajectory.meta.get("continuation"),
        "stage_diffs": trajectory.meta.get("stage_diffs"),
        "exp_formula_converged": trajectory.meta.get("exp_formula_converged"),
    }

    orbits = []
    for ospec in spec.orbit_specs:
        kwargs = {k: v for k, v in ospec.items() if k != "kind"}
        orbits.append(make_almost_orbit(sg, ospec["kind"], **kwargs))
    if orbits:
        diagnostics["orbits"] = {
            orbit.kind: _jsonable(orbit.certificate) for orbit in orbits
        }

    bundle = ScenarioBundle(
        scenario_id=spec.scenario_id,
        op=spec.op,
        x=spec.x,
        modulus=spec.modulus,
        trajectory=trajectory,
        trusted_horizon=spec.solver.trusted_horizon,
        omega=spec.omega,
        b_override=spec.b_override,
        d_override=spec.d_override,
        orbit_bound_override=spec.orbit_bound_override,
        num_tol=1e-6 + spec.solver.stab_tol,
        sample_points=spec.sample_points,
        orbits=orbits,
    )

    if spec.dynamics == "second_order":
        ap = check_apriori(spec.op, spec.x, trajectory, spec.space.M)
        diagnostics["apriori"] = {
            "sup_norm": ap.sup_norm,
            "int_du_sq": ap.int_du_sq,
            "int_ddu_sq": ap.int_ddu_sq,
            "rhs_sup": ap.rhs_sup,
            "rhs_du": ap.rhs_du,
            "rhs_ddu": ap.rhs_ddu,
            "pass": ap.passed,
        }
    fj = fejer_report(spec.op, trajectory)
    diagnostics["fejer"] = {
        "max_step_increase": fj.max_step_increase,
        "monotone": fj.monotone,
        "max_stability_excess": fj.max_stability_excess,
        "stable": fj.stable,
        "pass": fj.passed,
    }

    if spec.validation.run_modulus_check:
        rng = np.random.default_rng([spec.seed, 3])
        mc = modulus_check(
            spec.op, spec.modulus, n_samples=spec.validation.modulus_samples, rng=rng
        )
        diagnostics["modulus_check"] = {
            "samples_checked": mc.samples_checked,
            "counterexamples": _jsonable(mc.counterexamples),
            "pass": mc.passed,
        }

    return bundle, diagnostics


def _run_sweep(bundle: ScenarioBundle, sweep: SweepSpec) -> list[RateReport]:
    orbits = bundle.orbits
    if sweep.orbit_kinds:
        orbits = [o for o in bundle.orbits if o.kind in sweep.orbit_kinds]
    return sweep_theorem(
        bundle,
        sweep.theorem,
        sweep.ks,
        counterfunctions=sweep.counterfunctions,
        orbits=orbits if orbits else None,
        f_dom=sweep.f_dom,
    )


def run_sweeps(bundle: ScenarioBundle, spec: ScenarioSpec) -> list[RateReport]:
    """Run the sweeps in order, sharing the bundle's sample profiles;
    results are sorted into canonical order."""
    reports = [r for sweep in spec.sweeps for r in _run_sweep(bundle, sweep)]
    reports.sort(key=lambda r: (r.theorem, r.scenario, r.k, r.f_desc))
    return reports


def observed_bound_monotonicity(reports: list[RateReport]) -> dict:
    """Whether computed bounds grow with k, per sweep group.

    Monotonicity in the precision index is observed behavior, not a
    certified property; it is reported, never asserted.
    """
    groups: dict[tuple, list] = {}
    for r in reports:
        groups.setdefault((r.theorem, r.scenario, r.f_desc), []).append(r)
    out = {}
    for (theorem, scenario, f_desc), rows in sorted(groups.items()):
        rows.sort(key=lambda r: r.k)
        bounds = [r.bound for r in rows]
        key = f"{theorem}|{scenario}" + (f"|{f_desc}" if f_desc else "")
        out[key] = bool(all(a <= b for a, b in zip(bounds, bounds[1:])))
    return out


def _atomic_write(path: Path, data: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(data)
    os.replace(tmp, path)


def reports_json_text(spec: ScenarioSpec, reports, diagnostics) -> str:
    payload = {
        "config": {
            "scenario": spec.scenario_id,
            "seed": spec.seed,
            "dynamics": spec.dynamics,
            "horizon": spec.solver.grid.horizon,
            "step": spec.solver.grid.step,
        },
        "diagnostics": _jsonable(diagnostics),
        "reports": [_jsonable(r.to_dict()) for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def reports_csv_text(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["scenario", "theorem", "k", "f_desc", "bound", "observed", "margin", "pass", "extrapolated"]
    )
    for r in reports:
        d = r.to_dict()
        writer.writerow(
            [
                d["scenario"],
                d["theorem"],
                d["k"],
                d["f_desc"],
                d["bound"],
                "" if d["observed"] is None else repr(d["observed"]),
                "" if d["margin"] is None else repr(d["margin"]),
                int(d["pass"]),
                int(d["extrapolated"]),
            ]
        )
    return buf.getvalue()


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render the .dat files next to this script into PNG figures.\"\"\"
import pathlib

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

here = pathlib.Path(__file__).parent
profile = np.loadtxt(here / "trajectory_profile.dat")
fig, ax = plt.subplots()
ax.plot(profile[:, 0], profile[:, 1], label="|u(t)|")
ax.plot(profile[:, 0], profile[:, 2], label="dist to zero set")
ax.set_xlabel("t")
ax.set_yscale("log")
ax.legend()
fig.savefig(here / "trajectory_profile.png", dpi=150)

for dat in sorted(here.glob("bounds_*.dat")):
    data = np.loadtxt(dat, ndmin=2)
    fig, ax = plt.subplots()
    ax.semilogy(data[:, 0], data[:, 1], "o-", label="computed bound")
    finite = data[:, 2] >= 0
    ax.semilogy(data[finite, 0], np.maximum(data[finite, 2], 1e-6), "s--",
                label="observed threshold")
    ax.set_xlabel("k")
    ax.set_title(dat.stem)
    ax.legend()
    fig.savefig(dat.with_suffix(".png"), dpi=150)
print("wrote figures to", here)
"""


def write_outputs(
    out_dir: Path, spec: ScenarioSpec, bundle: ScenarioBundle, reports, diagnostics
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "reports.json", reports_json_text(spec, reports, diagnostics))
    _atomic_write(out_dir / "reports.csv", reports_csv_text(reports))

    traj_tmp = out_dir / "trajectories.csv.tmp"
    export_trajectory_csv(bundle.op, bundle.trajectory, traj_tmp)
    os.replace(traj_tmp, out_dir / "trajectories.csv")

    plot_dir = out_dir / "plotdata"
    plot_dir.mkdir(exist_ok=True)
    ts = bundle.trajectory.times
    norms = bundle.op.space.norms(bundle.trajectory.values)
    dist = projection_profile(bundle.op, bundle.trajectory)
    _atomic_write(
        plot_dir / "trajectory_profile.dat",
        "# t  norm_u  dist_to_zero_set\n"
        + "\n".join(
            f"{float(t)!r} {float(n)!r} {float(d)!r}" for t, n, d in zip(ts, norms, dist)
        )
        + "\n",
    )
    by_theorem: dict[str, list] = {}
    for r in reports:
        by_theorem.setdefault(r.theorem, []).append(r)
    for theorem, rows in sorted(by_theorem.items()):
        text = "# k  bound  observed(-1 if none)\n"
        for r in sorted(rows, key=lambda r: (r.k, r.scenario, r.f_desc)):
            observed = float(r.observed) if math.isfinite(r.observed) else -1.0
            text += f"{r.k} {int(r.bound)!r} {observed!r}\n"
        name = "bounds_" + theorem.replace(".", "_") + ".dat"
        _atomic_write(plot_dir / name, text)
    _atomic_write(plot_dir / "plot_all.py", _PLOT_SCRIPT)


def exit_code_for(reports) -> int:
    counted = [r for r in reports if not r.extrapolated]
    if any(not r.passed for r in counted):
        return 2
    return 0


def run_config(
    config_path, out_dir=None, jobs: int = 1, seed: int | None = None
) -> RunResult:
    """Load, run and write one scenario config.

    ``jobs`` is accepted for compatibility and has no effect: sweeps run
    sequentially, since they share the bundle's cached sample profiles.
    """
    try:
        spec = load_config(config_path)
        if seed is not None:
            if seed < 0:
                raise ConfigError("seed must be a natural", "--seed")
            spec = replace(spec, seed=seed)
        out = Path(out_dir) if out_dir else Path(spec.output_dir or "out") / spec.scenario_id
        bundle, diagnostics = materialize(spec)
        reports = run_sweeps(bundle, spec)
        diagnostics["bounds_monotone_in_k"] = observed_bound_monotonicity(reports)
        write_outputs(out, spec, bundle, reports, diagnostics)
        return RunResult(
            exit_code=exit_code_for(reports),
            reports=reports,
            diagnostics=diagnostics,
            output_dir=out,
        )
    except CauchyLabError as exc:
        return RunResult(
            exit_code=1, reports=[], diagnostics={}, output_dir=None, error=str(exc)
        )
