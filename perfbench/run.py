"""End-to-end benchmark for cauchylab: whole scenarios through the CLI.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 34 --trace 0

One process runs a workload's scenarios in a closed loop: each
``cauchylab.cli.main(["run", cfg, "--out", dir, "--jobs", "1"])`` starts
after the previous one returns.  A pass runs every scenario of the
workload once; passes repeat, on the same inputs, while another one still
fits in ``--seconds``.  After each pass the benchmark checks every output
(exit code, reports.json, report count, the closed-form linear oracle).
End-to-end times are reported at a reference host speed (see Calibration).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs an
untraced pass, a pass with every layer wrapped and a pass that measures
sweep memory (see spans.py), and prints the per-layer metrics.  Either way the last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

WORKLOADS = ("catalog", "long_horizon", "certify_dense")
SETUP_RUNS = 7
ORACLE_TOL = 1e-4  # acceptance criterion 1 of the test suite
ORACLE_SAMPLES = 200
# Mean time of Calibration.sample on the reference host (BASELINE.md)
CALIBRATION_REFERENCE_S = 0.036

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "scenario_s_p50": "s",
    "peak_rss_mib": "MiB",
    "extrapolated_frac": "ratio",
    "oracle_max_dev": "norm",
}


@dataclass
class Scenario:
    name: str
    path: Path
    cfg: dict
    args: tuple[str, ...] = ()
    expected_exit: int = 0


@dataclass
class Outcome:
    seconds: float
    exit_code: int | None
    stderr: str
    exception: str | None = None


@dataclass
class Check:
    """What one scenario run produced, judged against its config."""

    failures: list[str] = field(default_factory=list)  # failed_frac criteria
    integrity: list[str] = field(default_factory=list)  # wrong outputs
    reports: int = 0
    extrapolated: int = 0
    oracle_dev: float | None = None
    digest: str | None = None


# -- workloads -------------------------------------------------------------------


def catalog(seed: int) -> list[Scenario]:
    """The bundled configs at their shipped seed, then at a derived seed."""
    shipped, seeded = [], []
    for path in sorted((SRC / "cauchylab" / "configs").glob("*.cfg")):
        cfg = yaml.safe_load(path.read_text())
        expected = 2 if path.stem == "rotation_counterexample" else 0
        derived = random.Random(f"catalog:{seed}:{path.stem}").randrange(2**31)
        shipped.append(Scenario(path.stem, path, cfg, (), expected))
        seeded.append(
            Scenario(f"{path.stem}@{derived}", path, cfg, ("--seed", str(derived)), expected)
        )
    return shipped + seeded


def generated(workload: str, seed: int) -> list[Scenario]:
    import generate

    cfg_dir = WORK / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    out = []
    for name, text in generate.GENERATORS[workload](seed):
        path = cfg_dir / f"{name}.cfg"
        path.write_text(text)
        out.append(Scenario(name, path, yaml.safe_load(text)))
    return out


def scenarios_for(workload: str, seed: int) -> list[Scenario]:
    return catalog(seed) if workload == "catalog" else generated(workload, seed)


# -- running and checking ----------------------------------------------------------


def release_memory() -> None:
    """Each `cauchylab run` starts in a fresh process: leave no garbage and
    no free heap pages from the previous scenario to inflate this one's
    memory or time.  Without malloc_trim, the first-pass peak RSS of one
    long_horizon seed read 144 and 167 MiB in two runs."""
    gc.collect()
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):  # not glibc: nothing more to release
        pass


def run_scenario(cli, sc: Scenario, tracer=None) -> Outcome:
    out_dir = WORK / "out" / sc.name
    shutil.rmtree(out_dir, ignore_errors=True)
    release_memory()
    argv = ["run", str(sc.path), "--out", str(out_dir), "--jobs", "1", *sc.args]
    stdout, stderr = io.StringIO(), io.StringIO()
    span = tracer.span("scenario") if tracer else contextlib.nullcontext()
    if tracer:
        tracer.scenario = sc.name
    start = time.perf_counter()
    try:
        with span, contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        return Outcome(time.perf_counter() - start, code, stderr.getvalue())
    except Exception as exc:  # a traceback is a scenario failure, not a benchmark crash
        return Outcome(
            time.perf_counter() - start, None, stderr.getvalue(), f"{type(exc).__name__}: {exc}"
        )


def expected_report_count(cfg: dict) -> int:
    sc = cfg["scenario"]
    orbit_kinds = [o["kind"] for o in sc.get("orbits") or []]
    total = 0
    for sweep in sc.get("sweeps") or []:
        lo, hi = sweep["k_range"]
        ks = hi - lo + 1
        orbits = len(sweep.get("orbits") or orbit_kinds)
        theorem = str(sweep["theorem"])
        if theorem in ("4.1", "4.2"):
            total += ks
        elif theorem == "5.1":
            total += ks * len(sweep["counterfunctions"]) * orbits
        elif theorem == "5.3":
            total += ks * orbits
    return total


def symmetric_matrix(op: dict, dim: int):
    """B for operators Ax = Bx with B symmetric PSD, else None."""
    import numpy as np

    kind = op["kind"]
    if kind == "linear_psd":
        return np.array(op["matrix"], dtype=float)
    if kind == "scaled_identity":
        return float(op["c"]) * np.eye(dim)
    if kind == "zero":
        return np.zeros((dim, dim))
    if kind == "strongly_accretive":
        base = symmetric_matrix(op["base"], dim)
        return None if base is None else base + float(op["c"]) * np.eye(dim)
    return None


def oracle_deviation(cfg: dict, traj_path: Path) -> float | None:
    """max ||u(t) - exp(-t sqrt(B)) x|| over sampled t <= horizon - margin."""
    import numpy as np

    from cauchylab.second_order import linear_oracle

    sc = cfg["scenario"]
    space = sc["space"]
    if space["kind"] != "hilbert" or sc.get("dynamics", "second_order") != "second_order":
        return None
    b = symmetric_matrix(sc["operator"], space["dim"])
    if b is None:
        return None
    solver = sc.get("solver") or {}
    trusted = solver.get("horizon", 40.0) - solver.get("margin", 1.0)
    data = np.loadtxt(traj_path, delimiter=",", skiprows=1, ndmin=2)
    t, u = data[:, 0], data[:, 1 : 1 + space["dim"]]
    last = int(np.searchsorted(t, trusted + 1e-9)) - 1
    rows = np.unique(np.linspace(0, last, ORACLE_SAMPLES).round().astype(int))
    x = np.array(sc["initial_point"], dtype=float)
    return max(float(np.linalg.norm(u[i] - linear_oracle(b, float(t[i]), x))) for i in rows)


def check(sc: Scenario, outcome: Outcome) -> Check:
    result = Check()
    code = outcome.exit_code
    if outcome.exception is not None:
        result.failures.append(f"raised {outcome.exception}")
        result.integrity.append(f"raised {outcome.exception}")
    elif code != sc.expected_exit:
        detail = outcome.stderr.strip().splitlines()[-1:] or [""]
        result.failures.append(f"exit {code} (expected {sc.expected_exit}) {detail[0]}")
    if code not in (0, 2):
        return result

    out_dir = WORK / "out" / sc.name
    try:
        text = (out_dir / "reports.json").read_text()
        reports = json.loads(text)["reports"]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result.failures.append(f"reports.json unreadable: {exc}")
        result.integrity.append(f"reports.json unreadable: {exc}")
        return result
    result.digest = hashlib.sha256(text.encode()).hexdigest()
    result.reports = len(reports)
    result.extrapolated = sum(bool(r["extrapolated"]) for r in reports)
    expected = expected_report_count(sc.cfg)
    if len(reports) != expected:
        msg = f"{len(reports)} reports, sweeps imply {expected}"
        result.failures.append(msg)
        result.integrity.append(msg)
    counted_fail = any(not r["pass"] and not r["extrapolated"] for r in reports)
    if counted_fail and sc.expected_exit == 0:
        result.failures.append("non-extrapolated report with pass: false")
    if (code == 2) != counted_fail:
        result.integrity.append(f"exit {code} disagrees with the reports")
    result.oracle_dev = oracle_deviation(sc.cfg, out_dir / "trajectories.csv")
    if result.oracle_dev is not None and not result.oracle_dev <= ORACLE_TOL:
        result.integrity.append(f"oracle deviation {result.oracle_dev:.3g} > {ORACLE_TOL}")
    return result


class Calibration:
    """A fixed kernel, timed between scenarios, that follows the host's speed.

    The host is shared, and its speed drifts: one catalog pass took 5.5 s
    and, minutes later, 9.5 s, with CPU time within 6% of wall time and
    almost no steal, so the core itself ran slower.  The kernel mixes the
    program's kinds of work (interpreted loops, small dense solves, a
    sparse LU) and slows with it.  ``scale`` turns seconds measured next to
    some samples into seconds at the reference speed.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse

        rng = np.random.default_rng(0)
        self.dense = rng.random((8, 8)) + 8.0 * np.eye(8)
        self.rhs = rng.random(8)
        n = 20_000
        self.banded = scipy.sparse.diags(
            [-np.ones(n - 1), 4.0 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1], format="csc"
        )
        self.band_rhs = np.ones(n)

    def sample(self) -> float:
        import numpy as np
        from scipy.sparse.linalg import splu

        start = time.perf_counter()
        acc, table = 0.0, {}
        for i in range(100_000):
            acc += (i % 7) * 0.5
            table[i & 1023] = acc
        for _ in range(500):
            np.linalg.solve(self.dense, self.rhs)
        splu(self.banded).solve(self.band_rhs)
        return time.perf_counter() - start

    @staticmethod
    def scale(samples: list[float]) -> float:
        return CALIBRATION_REFERENCE_S / statistics.fmean(samples)


def run_pass(
    cli, scenarios: list[Scenario], calibration: Calibration, tracer=None
) -> tuple[float, list[Outcome], list[float]]:
    """Run every scenario once; calibration samples bracket each of them
    and are not part of the pass's wall time."""
    samples = [calibration.sample()]
    start = time.perf_counter()
    outcomes = []
    for sc in scenarios:
        outcomes.append(run_scenario(cli, sc, tracer))
        samples.append(calibration.sample())
    return time.perf_counter() - start - sum(samples[1:]), outcomes, samples


def measure_setup(calibration: Calibration) -> tuple[float, list[float]]:
    """Median wall time of a fresh interpreter importing cauchylab.cli,
    with the calibration samples taken around the imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-c", "import cauchylab.cli"]
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)  # warm the bytecode cache
    times, samples = [], [calibration.sample()]
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
        samples.append(calibration.sample())
    return statistics.median(times), samples


# -- main ---------------------------------------------------------------------------------


def main(argv=None) -> int:
    # String hashing is salted per process, and the salt alone moved the
    # peak RSS of one long_horizon input between 157 and 189 MiB.  Pin it.
    # One BLAS thread: the host has few cores, and the program's dense
    # matrices are too small for BLAS threads to help.
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = {**os.environ, "PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1"}
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cauchylab" / "cli.py").is_file():
        print(f"error: no cauchylab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cauchylab.cli as cli

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    scenarios = scenarios_for(args.workload, args.seed)

    walls, outcomes, checks, tracer = [], [], [], None
    rss_kib, scales = [], []
    calibration = Calibration()

    def measured_pass(traced_by=None):
        wall, outs, samples = run_pass(cli, scenarios, calibration, traced_by)
        scales.append(Calibration.scale(samples))
        # later passes only add allocator fragmentation, so the peak is
        # taken after the first: it must not grow when more passes fit
        rss_kib.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        walls.append(wall)
        outcomes.append(outs)
        checks.append([check(sc, o) for sc, o in zip(scenarios, outs)])

    if args.trace:
        import spans

        tracer = spans.Tracer()
        measured_pass()
        with spans.instrument(tracer):
            measured_pass(tracer)
        with spans.sweep_memory(tracer):
            measured_pass()
        tracer.write(WORK / f"spans_{args.workload}_{args.seed}.json")
    else:
        start = time.perf_counter()
        while True:
            measured_pass()
            elapsed = time.perf_counter() - start
            if elapsed + elapsed / len(walls) > args.seconds:
                break
        # after the passes: starting child processes first raised the peak
        # RSS of the first pass by 25 MiB for some inputs
        setup_raw, setup_samples = measure_setup(calibration)

    integrity, failures = [], {}
    for p, pass_checks in enumerate(checks):
        for i, (sc, c) in enumerate(zip(scenarios, pass_checks)):
            integrity += [f"pass {p} {sc.name}: {m}" for m in c.integrity]
            if c.failures and sc.name not in failures:
                failures[sc.name] = f"{sc.name} (pass {p}): {'; '.join(c.failures)}"
            if c.digest != checks[0][i].digest:
                integrity.append(f"pass {p} {sc.name}: reports.json differs from pass 0")
    flat = [c for pass_checks in checks for c in pass_checks]
    # attempted and failed count scenarios, not runs: a scenario fails if
    # any of its runs failed.  Counting runs would tie them to how many
    # passes fit in --seconds, so the same inputs would give other counts.
    attempted = len(scenarios)
    failed = len(failures)
    n_reports = sum(c.reports for c in flat)
    devs = [c.oracle_dev for c in flat if c.oracle_dev is not None]

    if tracer is None:
        # times at the reference speed, each pass scaled by its own samples
        ref_walls = [w * k for w, k in zip(walls, scales)]
        # a failed run misses any time limit, so it sorts above every success
        times = [
            math.inf if c.failures else o.seconds * k
            for outs, pass_checks, k in zip(outcomes, checks, scales)
            for o, c in zip(outs, pass_checks)
        ]
        setup_scale = Calibration.scale(setup_samples)
        units = END_TO_END
        metrics = {
            "setup_s": setup_raw * setup_scale,
            "wall_s": statistics.median(ref_walls),
            "scenario_s_p50": statistics.median(times),
            "peak_rss_mib": rss_kib[0] / 1024.0,
            "extrapolated_frac": (
                sum(c.extrapolated for c in flat) / n_reports if n_reports else math.nan
            ),
            "oracle_max_dev": max(devs) if devs else math.nan,
        }
        notes = {
            "setup_s": f"median of {SETUP_RUNS} fresh interpreters, measured "
            f"{setup_raw:.4f} s at speed {setup_scale:.3f}",
            "wall_s": f"median of {len(walls)} passes, measured s at speed: "
            + " ".join(f"{w:.3f}@{k:.3f}" for w, k in zip(walls, scales)),
            "scenario_s_p50": f"median of {len(times)} scenario runs, failed ones as slowest",
            "peak_rss_mib": "benchmark process, after the first pass",
            "extrapolated_frac": f"of {n_reports} reports",
            "oracle_max_dev": f"max over {len(devs)} symmetric linear runs",
        }
    else:
        units = spans.LAYER_METRICS
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_s"] = walls[1] - walls[0]
        notes = {
            "trace.overhead_s": f"traced pass {walls[1]:.3f} s - untraced {walls[0]:.3f} s",
            "verification.sweep_peak_mib": "from a third pass under tracemalloc",
        }
    for name, value in metrics.items():
        if not math.isfinite(value):
            integrity.append(f"{name} is not finite")

    print(
        f"workload {args.workload}, seed {args.seed}: {len(scenarios)} scenarios per pass, "
        f"{len(walls)} passes, closed loop, one process, --jobs 1"
    )
    for name, value in metrics.items():
        print(f"  {name:30s} {value:>14.6g} {units[name]:6s} {notes.get(name, '')}")
    print(
        f"  {'failed_frac':30s} {failed / attempted:>14.6g} {'ratio':6s} "
        f"{failed} of {attempted} scenarios, over {len(flat)} runs"
    )
    for i, sc in enumerate(scenarios):
        seconds = statistics.median(outs[i].seconds for outs in outcomes)
        scaled = statistics.median(outs[i].seconds * k for outs, k in zip(outcomes, scales))
        first = checks[0][i]
        print(
            f"  {sc.name:46s} {seconds:8.3f} s measured {scaled:8.3f} s at reference speed  "
            f"exit {outcomes[0][i].exit_code}  {first.extrapolated}/{first.reports} extrapolated"
        )
    for line in failures.values():
        print(f"  failed: {line}")
    for line in integrity:
        print(f"  WRONG OUTPUT: {line}")
    result = {
        "correct": not integrity,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else None, "unit": units[name]}
            for name, value in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
