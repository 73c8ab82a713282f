"""Batch execution of a scenario config: solve, validate, sweep, report.

Outputs land in the configured directory: ``reports.json`` (canonical,
byte-reproducible for a fixed seed, and the only report file), the
scenario ``trajectories.csv``, each value the bytes of its ``repr``,
formatted in numpy and written as bytes
(``second_order.export_trajectory_csv``), and ``plotdata/plot_all.py``,
a small script that plots both.  Each file is written once, through one
binary handle on a fresh temporary name, and renamed into place, so no
output is ever left half written; a failed write removes its temporary.
A rerun into the same directory unlinks each old file just before the
rename, since ext4 forces a file renamed over an existing one out to
disk; the price is that a crash or a failed rename between the two
loses the old file.

Exit code contract: 0 when every non-extrapolated report passes, 2 when
any fails, 1 on configuration or solver errors.  Extrapolated reports
are diagnostics only and never count toward acceptance.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, fields, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .config import ScenarioSpec, SweepSpec, load_config
from .errors import CauchyLabError, ConfigError
from .second_order import SqrtSemigroup, check_apriori, export_trajectory_csv
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


def _check_entry(report) -> dict:
    """A check's diagnostics entry: its report's fields, ``passed`` as
    ``pass``, without the accretivity witness."""
    return {
        "pass" if f.name == "passed" else f.name: getattr(report, f.name)
        for f in fields(report)
        if f.name != "witness"
    }


def materialize(spec: ScenarioSpec) -> tuple[ScenarioBundle, dict]:
    """Solve the scenario trajectory, build orbits, run load validations,
    each at its validator's default budget.  The diagnostics hold one entry
    per check that ran (``accretivity``, ``fejer``, ``modulus_check``, and
    ``apriori`` for a second-order run), the almost-orbit certificates
    under ``orbits`` when there are any, and, for a second-order run, the
    solve's ``solver: {far_end_ok}``; the first-order orbit is closed-form."""
    rng = np.random.default_rng([spec.seed, 2])
    diagnostics: dict = {"accretivity": _check_entry(verify_accretive(spec.op, rng=rng))}

    sg = None
    if spec.dynamics == "second_order":
        sg = SqrtSemigroup(spec.op, spec.x, spec.solver)
        trajectory = sg.trajectory
        diagnostics["solver"] = {"far_end_ok": trajectory.meta["far_end_ok"]}
    else:
        trajectory = first_order_trajectory(spec.op, spec.x, spec.solver.grid)

    orbits = [make_almost_orbit(sg, **ospec) for ospec in spec.orbit_specs]
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
        solver=spec.solver,
        orbits=orbits,
    )

    # the grid samples are the run's one per-node profile
    profile = bundle.grid_samples
    if spec.dynamics == "second_order":
        ap = check_apriori(spec.op, spec.x, trajectory, spec.space.M, profile=profile)
        diagnostics["apriori"] = _check_entry(ap)
    diagnostics["fejer"] = _check_entry(fejer_report(spec.op, trajectory, profile=profile))

    rng = np.random.default_rng([spec.seed, 3])
    diagnostics["modulus_check"] = _check_entry(modulus_check(spec.op, spec.modulus, rng=rng))

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
        orbits=orbits,
        f_dom=sweep.f_dom,
    )


def run_sweeps(bundle: ScenarioBundle, spec: ScenarioSpec) -> list[RateReport]:
    """Run the sweeps in order, sharing the bundle's sample sets;
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


@contextlib.contextmanager
def _atomic_open(path: Path):
    """A binary handle on a fresh ``<name>.tmp``, renamed to ``path`` on
    success and removed on failure.  An existing ``path`` is unlinked just
    before the rename: ext4 (``auto_da_alloc``) forces a file renamed over
    an existing one out to disk."""
    tmp = path.with_name(path.name + ".tmp")
    tmp.unlink(missing_ok=True)  # left by a killed run: never reopen it
    try:
        with open(tmp, "xb") as fh:
            yield fh
        path.unlink(missing_ok=True)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _atomic_write(path: Path, data: str) -> None:
    with _atomic_open(path) as fh:
        fh.write(data.encode("utf-8"))


# one reports row as json.dumps(..., indent=2, sort_keys=True) lays it out
# inside the payload's "reports" list
_REPORT_ROW = """\
    {
      "bound": %d,
      "extrapolated": %s,
      "f_desc": %s,
      "k": %d,
      "margin": %s,
      "observed": %s,
      "pass": %s,
      "scenario": %s,
      "theorem": %s
    }"""


def _json_float(value) -> str:
    """A float as strict JSON writes it after ``_jsonable``: null unless finite."""
    value = float(value)
    return float.__repr__(value) if math.isfinite(value) else "null"


def _report_row(r: RateReport) -> str:
    return _REPORT_ROW % (
        r.bound,
        "true" if r.extrapolated else "false",
        encode_basestring_ascii(r.f_desc),
        r.k,
        _json_float(r.margin),
        _json_float(r.observed),
        "true" if r.passed else "false",
        encode_basestring_ascii(r.scenario),
        encode_basestring_ascii(r.theorem),
    )


def reports_json_text(spec: ScenarioSpec, reports, diagnostics) -> str:
    """The text of ``reports.json``: ``json.dumps(payload, indent=2,
    sort_keys=True, allow_nan=False)`` and a newline, byte for byte, where
    the payload is ``config``, ``diagnostics`` and the ``reports`` rows.
    ``json.dumps`` writes the first two; each row, whose schema is fixed,
    comes from one %-template: strings through json's own ASCII encoder,
    numbers through int's and float's repr, as json writes them, and a
    non-finite float as null.  "reports" sorts last, so its list closes
    the payload."""
    payload = {
        "config": {
            "scenario": spec.scenario_id,
            "seed": spec.seed,
            "dynamics": spec.dynamics,
            "horizon": spec.solver.grid.horizon,
            "step": spec.solver.grid.step,
        },
        "diagnostics": _jsonable(diagnostics),
    }
    head = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    rows = "[\n" + ",\n".join(map(_report_row, reports)) + "\n  ]" if reports else "[]"
    return head[:-2] + ',\n  "reports": ' + rows + "\n}\n"


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Render ../trajectories.csv and the rows of ../reports.json into PNG figures.\"\"\"
import json
import pathlib

import matplotlib
matplotlib.use("Agg")
import matplotlib.pyplot as plt
import numpy as np

here = pathlib.Path(__file__).parent
# columns t, u_0..u_{d-1}, norm_u, dist_to_zero_set
traj = np.loadtxt(here.parent / "trajectories.csv", delimiter=",", skiprows=1, ndmin=2)
fig, ax = plt.subplots()
ax.plot(traj[:, 0], traj[:, -2], label="|u(t)|")
ax.plot(traj[:, 0], traj[:, -1], label="dist to zero set")
ax.set_xlabel("t")
ax.set_yscale("log")
ax.legend()
fig.savefig(here / "trajectory_profile.png", dpi=150)

# one figure per theorem, two lines per (scenario, f_desc) series
series = {}
for r in json.loads((here.parent / "reports.json").read_text())["reports"]:
    series.setdefault(r["theorem"], {}).setdefault((r["scenario"], r["f_desc"]), []).append(r)
for theorem, groups in sorted(series.items()):
    fig, ax = plt.subplots()
    for (scenario, f_desc), rows in sorted(groups.items()):
        rows.sort(key=lambda r: r["k"])
        name = scenario + (f", f = {f_desc}" if f_desc else "")
        seen = [r for r in rows if r["observed"] is not None]
        ax.semilogy([r["k"] for r in rows], [r["bound"] for r in rows], "o-",
                    label=f"{name}: computed bound")
        ax.semilogy([r["k"] for r in seen], [max(r["observed"], 1e-6) for r in seen], "s--",
                    label=f"{name}: observed threshold")
    ax.set_xlabel("k")
    ax.set_title(f"Theorem {theorem}")
    ax.legend(fontsize="x-small")
    fig.savefig(here / ("bounds_" + theorem.replace(".", "_") + ".png"), dpi=150)
print("wrote figures to", here)
"""


def write_outputs(
    out_dir: Path, spec: ScenarioSpec, bundle: ScenarioBundle, reports, diagnostics
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _atomic_write(out_dir / "reports.json", reports_json_text(spec, reports, diagnostics))

    with _atomic_open(out_dir / "trajectories.csv") as fh:
        export_trajectory_csv(bundle.op, bundle.trajectory, fh, bundle.grid_samples)

    (out_dir / "plotdata").mkdir(exist_ok=True)
    _atomic_write(out_dir / "plotdata" / "plot_all.py", _PLOT_SCRIPT)


def exit_code_for(reports) -> int:
    counted = [r for r in reports if not r.extrapolated]
    if any(not r.passed for r in counted):
        return 2
    return 0


def run_config(config_path, out_dir=None, seed: int | None = None) -> RunResult:
    """Load, run and write one scenario config.  Sweeps run sequentially,
    since they share the bundle's cached sample sets."""
    try:
        spec = load_config(config_path)
        if seed is not None:
            if seed < 0:
                raise ConfigError("seed must be a natural", "--seed")
            spec = replace(spec, seed=seed)
        out = Path(out_dir or spec.output_dir or Path("out", spec.scenario_id))
        try:  # before the solve, so a bad --out fails fast
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(
                f"cannot create output directory {out}: {exc.strerror or exc}",
                "--out" if out_dir else "output_dir",
            ) from None
        bundle, diagnostics = materialize(spec)
        reports = run_sweeps(bundle, spec)
        diagnostics["bounds_monotone_in_k"] = observed_bound_monotonicity(reports)
        try:
            write_outputs(out, spec, bundle, reports, diagnostics)
        except OSError as exc:
            raise CauchyLabError(f"cannot write outputs to {out}: {exc}") from None
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
