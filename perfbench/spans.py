"""Span recorder and the instrumentation for the traced benchmark run.

Nothing here lives in the library: ``instrument`` replaces public
functions of the cauchylab modules, at the names their callers look them
up under, with wrappers that open a span or bump a counter, and puts the
originals back when it exits.  Spans are kept in memory and written out
once, at the end of the run.

A layer's self time is the summed duration of its spans minus the time of
their child spans, so the self times of all spans add up to the traced
wall time of the scenarios; what no layer claims is reported as ``other``.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# per-layer metric -> unit; times are self times in seconds
LAYER_METRICS = {
    "config.load_s": "s",
    "spaces.monotonicity_s": "s",
    "operators.accretivity_s": "s",
    "semigroup.first_order_s": "s",
    "semigroup.points": "count",
    "semigroup.resolvent_steps": "count",
    "second_order.solve_s": "s",
    "second_order.stages": "count",
    "second_order.factorizations": "count",
    "second_order.factor_s": "s",
    "second_order.assemblies": "count",
    "second_order.unknowns": "count",
    "second_order.apriori_s": "s",
    "verification.certify_s": "s",
    "verification.restart_solves": "count",
    "verification.sweep41_s": "s",
    "verification.sweep42_s": "s",
    "verification.sweep51_s": "s",
    "verification.sweep53_s": "s",
    "verification.sweep_peak_mib": "MiB",
    "verification.modulus_check_s": "s",
    "verification.fejer_s": "s",
    "rates.query_s": "s",
    "rates.queries": "count",
    "counterfunctions.charges": "count",
    "counterfunctions.charges_max": "count",
    "runner.write_s": "s",
    "runner.bytes_written": "bytes",
    "other_s": "s",
    "trace.overhead_s": "s",
}

# span names whose self time is a layer metric (root "scenario" spans
# carry the residual, reported as other_s)
_SPAN_METRIC = {
    "config.load": "config.load_s",
    "spaces.monotonicity": "spaces.monotonicity_s",
    "operators.accretivity": "operators.accretivity_s",
    "semigroup.first_order": "semigroup.first_order_s",
    "second_order.solve": "second_order.solve_s",
    "second_order.factor": "second_order.factor_s",
    "second_order.apriori": "second_order.apriori_s",
    "verification.certify": "verification.certify_s",
    "verification.sweep41": "verification.sweep41_s",
    "verification.sweep42": "verification.sweep42_s",
    "verification.sweep51": "verification.sweep51_s",
    "verification.sweep53": "verification.sweep53_s",
    "verification.modulus_check": "verification.modulus_check_s",
    "verification.fejer": "verification.fejer_s",
    "rates.query": "rates.query_s",
    "runner.write": "runner.write_s",
    "scenario": "other_s",
}

_RATE_FUNCTIONALS = (
    "semigroup_cauchy_rate",
    "closure_cauchy_rate",
    "cauchy_metastability_rate",
    "almost_orbit_cauchy_rate",
)


class Tracer:
    """In-memory spans (id, parent id, scenario, name, start, end) and
    exact counters, for one single-threaded traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.scenario: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, self.scenario, name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(record[0])
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def wrap(self, fn, name: str):
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> dict[str, float]:
        child_time = Counter()
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = Counter()
        for sid, _, _, name, start, end in self.spans:
            out[name] += (end - start) - child_time[sid]
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric but trace.overhead_s, which needs an
        untraced pass to compare with."""
        self_time = Counter()
        for span_name, seconds in self.self_times().items():
            self_time[_SPAN_METRIC[span_name]] += seconds
        return {
            name: float(self_time[name]) if unit == "s" else self.counts[name]
            for name, unit in LAYER_METRICS.items()
            if name != "trace.overhead_s"
        }

    def write(self, path: Path) -> None:
        keys = ("id", "parent", "scenario", "name", "start", "end")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n")


class _Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the public functions of every cauchylab layer for one pass."""
    import scipy.sparse.linalg

    from cauchylab import counterfunctions, operators, runner, second_order, spaces
    from cauchylab import verification

    patches = _Patches()
    counts = tracer.counts

    # spans at the names the runner calls them by
    for attr, name in (
        ("load_config", "config.load"),
        ("verify_accretive", "operators.accretivity"),
        ("first_order_trajectory", "semigroup.first_order"),
        ("SqrtSemigroup", "second_order.solve"),
        ("check_apriori", "second_order.apriori"),
        ("make_almost_orbit", "verification.certify"),
        ("modulus_check", "verification.modulus_check"),
        ("fejer_report", "verification.fejer"),
    ):
        patches.set(runner, attr, tracer.wrap(runner.__dict__[attr], name))

    patches.set(
        spaces.SpaceContext,
        "validate_strong_monotonicity",
        tracer.wrap(spaces.SpaceContext.validate_strong_monotonicity, "spaces.monotonicity"),
    )

    semigroup_point = verification.semigroup_point

    def counted_semigroup_point(*args, **kwargs):
        value, meta = semigroup_point(*args, **kwargs)
        counts["semigroup.points"] += 1
        counts["semigroup.resolvent_steps"] += meta.n_used
        return value, meta

    patches.set(verification, "semigroup_point", counted_semigroup_point)

    solve_regularized = second_order.solve_regularized

    def counted_solve_regularized(op, r, reg_p, x, grid, *args, **kwargs):
        counts["second_order.stages"] += 1
        counts["second_order.unknowns"] += grid.n_steps * op.space.dim
        return solve_regularized(op, r, reg_p, x, grid, *args, **kwargs)

    patches.set(second_order, "solve_regularized", counted_solve_regularized)

    splu = tracer.wrap(scipy.sparse.linalg.splu, "second_order.factor")

    def counted_splu(*args, **kwargs):
        counts["second_order.factorizations"] += 1
        return splu(*args, **kwargs)

    patches.set(scipy.sparse.linalg, "splu", counted_splu)

    # one Jacobian evaluation per residual/Jacobian assembly
    for cls in vars(operators).values():
        if isinstance(cls, type) and "yosida_jacobian_many" in cls.__dict__:
            patches.set(cls, "yosida_jacobian_many", _counted(cls.yosida_jacobian_many, counts))

    restart_from = second_order.SqrtSemigroup.restart_from

    def counted_restart_from(self, y):
        counts["verification.restart_solves"] += 1
        return restart_from(self, y)

    patches.set(second_order.SqrtSemigroup, "restart_from", counted_restart_from)

    sweep_theorem = runner.sweep_theorem

    def traced_sweep_theorem(bundle, theorem, *args, **kwargs):
        with tracer.span("verification.sweep" + str(theorem).replace(".", "")):
            return sweep_theorem(bundle, theorem, *args, **kwargs)

    patches.set(runner, "sweep_theorem", traced_sweep_theorem)

    # the benchmark opens the outermost budget, so it sees every charge
    for attr in _RATE_FUNCTIONALS:
        rate_fn = verification.__dict__[attr]
        patches.set(verification, attr, _budgeted(rate_fn, tracer, counterfunctions))

    write_outputs = runner.write_outputs

    def traced_write_outputs(out_dir, *args, **kwargs):
        with tracer.span("runner.write"):
            write_outputs(out_dir, *args, **kwargs)
        counts["runner.bytes_written"] += _dir_bytes(out_dir)

    patches.set(runner, "write_outputs", traced_write_outputs)

    try:
        yield tracer
    finally:
        patches.undo()


@contextmanager
def sweep_memory(tracer: Tracer):
    """Record the tracemalloc peak of each run_sweeps call.

    Kept apart from ``instrument``: tracemalloc slows every allocation,
    so a pass that measures memory is not used for times."""
    from cauchylab import runner

    patches = _Patches()
    run_sweeps = runner.run_sweeps

    def measured_run_sweeps(*args, **kwargs):
        tracemalloc.start()
        try:
            return run_sweeps(*args, **kwargs)
        finally:
            peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            key = "verification.sweep_peak_mib"
            tracer.counts[key] = max(tracer.counts[key], peak_mib)

    patches.set(runner, "run_sweeps", measured_run_sweeps)
    try:
        yield tracer
    finally:
        patches.undo()


def _counted(fn, counts: Counter):
    def wrapper(*args, **kwargs):
        counts["second_order.assemblies"] += 1
        return fn(*args, **kwargs)

    return wrapper


def _budgeted(fn, tracer: Tracer, counterfunctions):
    def wrapper(*args, **kwargs):
        with tracer.span("rates.query"), counterfunctions.query_budget() as budget:
            value = fn(*args, **kwargs)
        tracer.counts["rates.queries"] += 1
        tracer.counts["counterfunctions.charges"] += budget.used
        tracer.counts["counterfunctions.charges_max"] = max(
            tracer.counts["counterfunctions.charges_max"], budget.used
        )
        return value

    return wrapper
