"""Scenario configuration: YAML schema, line-anchored validation, build.

A configuration file describes one scenario: the space, the operator,
the initial point, solver parameters, the modulus for the convergence
condition, optional rate-data overrides, almost-orbit constructions and
the theorem sweeps to run.  ``load_config`` parses and validates it,
reporting violations with file and line anchors; ``build_spec`` turns
the validated data into live objects (space, operator, modulus,
counterfunctions) without doing any solving.

A mandatory RNG seed makes every sampling-based validation
reproducible: identical config and seed give byte-identical reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np
import yaml

from .counterfunctions import Counterfunction, parse_counterfunction, parse_nat_function2
from .errors import CauchyLabError, ConfigError
from .operators import (
    AccretiveOperator,
    LinearMatrix,
    LinearPSD,
    NormSubdifferential,
    Rotation,
    ScaledIdentity,
    StronglyAccretive,
)
from .rates import ConvergenceModulus, constant_modulus, modulus_strongly_accretive
from .second_order import DEFAULT_SCHEDULE, TimeGrid
from .spaces import SpaceContext

KNOWN_THEOREMS = ("4.1", "4.2", "5.1", "5.3")
KNOWN_ORBIT_KINDS = ("exact", "additive_decay", "time_warp")
# resource caps: the sweeps cost O(sample_points^2) time and one report
# per k (per orbit and counterfunction) in each sweep
MAX_SAMPLE_POINTS = 10_000
MAX_K_VALUES = 1_000


@dataclass(frozen=True)
class SweepSpec:
    theorem: str
    ks: tuple[int, ...]
    counterfunctions: tuple[Counterfunction, ...] = ()
    orbit_kinds: tuple[str, ...] = ()
    f_dom: Counterfunction | None = None


@dataclass(frozen=True)
class ValidationSpec:
    accretivity_samples: int = 200
    region_radius: float = 2.0
    monotonicity_samples: int = 10_000
    modulus_samples: int = 2_000
    run_modulus_check: bool = True


@dataclass
class ScenarioSpec:
    """Validated, materialized scenario description (nothing solved yet)."""

    scenario_id: str
    seed: int
    space: SpaceContext
    op: AccretiveOperator
    x: np.ndarray
    dynamics: str
    grid: TimeGrid
    schedule: tuple
    margin: float
    stab_tol: float
    auto_extend: bool
    modulus: ConvergenceModulus
    omega: Callable[[int, int], int] | None
    b_override: float | None
    d_override: float | None
    orbit_bound_override: int | None
    orbit_specs: tuple[dict, ...]
    sweeps: tuple[SweepSpec, ...]
    validation: ValidationSpec
    output_dir: str | None
    lp_validate_radius: float = 2.0
    first_order_n_max: int = 2**16
    sample_points: int = 500


class _Anchors:
    """Line positions of config nodes, for anchored error messages."""

    def __init__(self, filename: str, text: str):
        self.filename = filename
        self.lines: dict[str, int] = {}
        try:
            root = yaml.compose(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"not valid YAML: {exc}", filename)
        if root is not None:
            self._walk(root, "")

    def _walk(self, node, path):
        self.lines[path] = node.start_mark.line + 1
        if isinstance(node, yaml.MappingNode):
            for key_node, value_node in node.value:
                key = str(key_node.value)
                self._walk(value_node, f"{path}.{key}" if path else key)
        elif isinstance(node, yaml.SequenceNode):
            for i, item in enumerate(node.value):
                self._walk(item, f"{path}[{i}]")

    def where(self, path: str) -> str:
        probe = path
        while probe and probe not in self.lines:
            probe = probe.rsplit(".", 1)[0] if "." in probe else ""
        line = self.lines.get(probe, 1)
        return f"{self.filename}:{line}: {path}"


class _Section:
    """Typed accessor over a mapping with anchored errors."""

    def __init__(self, data: dict, anchors: _Anchors, path: str):
        if not isinstance(data, dict):
            raise ConfigError("expected a mapping", anchors.where(path))
        self.data = data
        self.anchors = anchors
        self.path = path

    def _sub(self, key):
        return f"{self.path}.{key}" if self.path else key

    def require(self, key: str, kind=None):
        if key not in self.data:
            raise ConfigError(
                f"missing required field {key!r}", self.anchors.where(self._sub(key))
            )
        return self._coerce(key, self.data[key], kind)

    def get(self, key: str, default=None, kind=None):
        if key not in self.data:
            return default
        return self._coerce(key, self.data[key], kind)

    def _coerce(self, key, value, kind):
        if kind is None:
            return value
        if kind is float:
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigError(
                    f"field {key!r} must be a number", self.anchors.where(self._sub(key))
                )
            return float(value)
        if kind is int:
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(
                    f"field {key!r} must be an integer", self.anchors.where(self._sub(key))
                )
            return value
        if kind is str:
            if not isinstance(value, str):
                raise ConfigError(
                    f"field {key!r} must be a string", self.anchors.where(self._sub(key))
                )
            return value
        if kind is bool:
            if not isinstance(value, bool):
                raise ConfigError(
                    f"field {key!r} must be a boolean", self.anchors.where(self._sub(key))
                )
            return value
        if kind is list:
            if not isinstance(value, list):
                raise ConfigError(
                    f"field {key!r} must be a list", self.anchors.where(self._sub(key))
                )
            return value
        if kind is dict:
            if not isinstance(value, dict):
                raise ConfigError(
                    f"field {key!r} must be a mapping", self.anchors.where(self._sub(key))
                )
            return value
        raise AssertionError(kind)

    def section(self, key: str, required: bool = True) -> "_Section | None":
        if key not in self.data:
            if required:
                raise ConfigError(
                    f"missing required section {key!r}", self.anchors.where(self._sub(key))
                )
            return None
        return _Section(self.require(key, dict), self.anchors, self._sub(key))


def _build_space(sec: _Section) -> SpaceContext:
    kind = sec.require("kind", str)
    dim = sec.require("dim", int)
    try:
        if kind == "hilbert":
            return SpaceContext.hilbert(dim)
        if kind == "lp":
            space = SpaceContext.lp(dim, sec.require("p", float), sec.require("M", float))
            return space
        raise ConfigError(f"unknown space kind {kind!r}", sec.anchors.where(sec._sub("kind")))
    except ValueError as exc:
        raise ConfigError(str(exc), sec.anchors.where(sec.path))


def _build_operator(sec: _Section, space: SpaceContext) -> AccretiveOperator:
    kind = sec.require("kind", str)
    try:
        if kind == "scaled_identity":
            return ScaledIdentity(sec.require("c", float), space)
        if kind == "zero":
            return ScaledIdentity(0.0, space)
        if kind == "linear_psd":
            return LinearPSD(np.array(sec.require("matrix", list), dtype=float), space)
        if kind == "linear":
            return LinearMatrix(np.array(sec.require("matrix", list), dtype=float), space)
        if kind == "rotation":
            matrix = sec.get("matrix", kind=list)
            m = np.array(matrix, dtype=float) if matrix is not None else None
            return Rotation(m, space)
        if kind == "norm_subdifferential":
            return NormSubdifferential(space)
        if kind == "strongly_accretive":
            base_sec = sec.section("base")
            base = _build_operator(base_sec, space)
            return StronglyAccretive(base, sec.require("c", float))
        raise ConfigError(
            f"unknown operator kind {kind!r}", sec.anchors.where(sec._sub("kind"))
        )
    except (ValueError, CauchyLabError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc), sec.anchors.where(sec.path))


def _build_modulus(sec: _Section) -> ConvergenceModulus:
    kind = sec.require("kind", str)
    if kind == "strongly_accretive":
        c = sec.require("c", float)
        if c <= 0:
            raise ConfigError(
                "strong-accretivity constant must be positive",
                sec.anchors.where(sec._sub("c")),
            )
        return modulus_strongly_accretive(c)
    if kind == "constant":
        value = sec.require("value", int)
        if value < 0:
            raise ConfigError(
                "constant modulus must be a natural", sec.anchors.where(sec._sub("value"))
            )
        return constant_modulus(value)
    if kind == "expression":
        text = sec.require("text", str)
        try:
            fn = parse_nat_function2(text, ("k", "K"))
        except CauchyLabError as exc:
            raise ConfigError(str(exc), sec.anchors.where(sec._sub("text")))
        return ConvergenceModulus(fn=fn, provenance="user-supplied", description=text)
    raise ConfigError(f"unknown modulus kind {kind!r}", sec.anchors.where(sec._sub("kind")))


def _parse_cf(text, named, anchors, path) -> Counterfunction:
    try:
        return parse_counterfunction(str(text), named)
    except CauchyLabError as exc:
        raise ConfigError(str(exc), anchors.where(path))


def load_config(path: str | Path) -> ScenarioSpec:
    """Parse, validate and build a scenario spec from a config file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}", str(path))
    anchors = _Anchors(str(path), text)
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"not valid YAML: {exc}", str(path))
    if not isinstance(data, dict):
        raise ConfigError("top level must be a mapping", f"{path}:1")
    root = _Section(data, anchors, "")

    seed = root.require("seed", int)
    output_dir = root.get("output_dir", kind=str)
    sc = root.section("scenario")
    scenario_id = sc.require("id", str)

    space = _build_space(sc.section("space"))
    op = _build_operator(sc.section("operator"), space)

    x = np.array(sc.require("initial_point", list), dtype=float)
    if x.shape != (space.dim,):
        raise ConfigError(
            f"initial point must have dimension {space.dim}",
            anchors.where("scenario.initial_point"),
        )

    dynamics = sc.get("dynamics", "second_order", kind=str)
    if dynamics not in ("second_order", "first_order"):
        raise ConfigError(
            f"dynamics must be second_order or first_order, got {dynamics!r}",
            anchors.where("scenario.dynamics"),
        )

    sol = sc.section("solver", required=False)
    horizon = sol.get("horizon", 40.0, kind=float) if sol else 40.0
    step = sol.get("step", 0.01, kind=float) if sol else 0.01
    margin = sol.get("margin", 1.0, kind=float) if sol else 1.0
    stab_tol = sol.get("stabilization_tol", 1e-6, kind=float) if sol else 1e-6
    auto_extend = sol.get("auto_extend", True, kind=bool) if sol else True
    first_order_n_max = sol.get("first_order_n_max", 2**16, kind=int) if sol else 2**16
    sample_points = sol.get("sample_points", 500, kind=int) if sol else 500
    if not 1 <= sample_points <= MAX_SAMPLE_POINTS:
        raise ConfigError(
            f"sample_points must lie in [1, {MAX_SAMPLE_POINTS}]",
            anchors.where("scenario.solver.sample_points"),
        )
    schedule = DEFAULT_SCHEDULE
    if sol:
        raw = sol.get("schedule", kind=list)
        if raw is not None:
            try:
                schedule = tuple((float(r), float(p)) for r, p in raw)
            except (TypeError, ValueError):
                raise ConfigError(
                    "schedule must be a list of [r, p] pairs",
                    anchors.where("scenario.solver.schedule"),
                )
    try:
        grid = TimeGrid(horizon, step)
    except ValueError as exc:
        raise ConfigError(str(exc), anchors.where("scenario.solver"))
    if margin < 0 or margin >= horizon:
        raise ConfigError(
            "margin must lie in [0, horizon)", anchors.where("scenario.solver.margin")
        )

    modulus = _build_modulus(sc.section("modulus"))

    rd = sc.section("rate_data", required=False)
    b_override = rd.get("b", kind=float) if rd else None
    d_override = rd.get("d_budget", kind=float) if rd else None
    orbit_bound_override = rd.get("orbit_bound", kind=int) if rd else None
    omega = None
    if rd:
        omega_text = rd.get("omega", kind=str)
        if omega_text is not None and omega_text.strip() != "k":
            try:
                omega = parse_nat_function2(omega_text, ("r", "k"))
            except CauchyLabError as exc:
                raise ConfigError(str(exc), anchors.where("scenario.rate_data.omega"))

    named: dict[str, Counterfunction] = {}
    raw_named = sc.get("counterfunctions", kind=dict)
    if raw_named:
        for name, expr in raw_named.items():
            named[str(name)] = _parse_cf(
                expr, named, anchors, f"scenario.counterfunctions.{name}"
            )

    orbit_specs = []
    raw_orbits = sc.get("orbits", kind=list) or []
    for i, entry in enumerate(raw_orbits):
        osec = _Section(entry, anchors, f"scenario.orbits[{i}]")
        kind = osec.require("kind", str)
        if kind not in KNOWN_ORBIT_KINDS:
            raise ConfigError(
                f"unknown orbit kind {kind!r}", anchors.where(f"scenario.orbits[{i}].kind")
            )
        spec = {"kind": kind}
        if kind == "additive_decay":
            spec["v"] = np.array(osec.require("v", list), dtype=float)
            spec["lam"] = osec.get("lam", 1.0, kind=float)
        if kind == "time_warp":
            spec["delta"] = osec.get("delta", 0.5, kind=float)
        orbit_specs.append(spec)
    if dynamics == "first_order" and orbit_specs:
        raise ConfigError(
            "almost-orbits require second-order dynamics",
            anchors.where("scenario.orbits"),
        )

    sweeps = []
    raw_sweeps = sc.get("sweeps", kind=list) or []
    for i, entry in enumerate(raw_sweeps):
        ssec = _Section(entry, anchors, f"scenario.sweeps[{i}]")
        theorem = str(ssec.require("theorem"))
        if theorem not in KNOWN_THEOREMS:
            raise ConfigError(
                f"unknown theorem {theorem!r} (known: {', '.join(KNOWN_THEOREMS)})",
                anchors.where(f"scenario.sweeps[{i}].theorem"),
            )
        k_range = ssec.require("k_range", list)
        if (
            len(k_range) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in k_range)
            or k_range[0] > k_range[1]
            or k_range[0] < 0
        ):
            raise ConfigError(
                "k_range must be [k_min, k_max] with 0 <= k_min <= k_max",
                anchors.where(f"scenario.sweeps[{i}].k_range"),
            )
        if k_range[1] - k_range[0] >= MAX_K_VALUES:
            raise ConfigError(
                f"k_range may span at most {MAX_K_VALUES} values",
                anchors.where(f"scenario.sweeps[{i}].k_range"),
            )
        ks = tuple(range(k_range[0], k_range[1] + 1))
        cfs = tuple(
            _parse_cf(text, named, anchors, f"scenario.sweeps[{i}].counterfunctions")
            for text in (ssec.get("counterfunctions", kind=list) or [])
        )
        orbit_kinds = tuple(str(v) for v in (ssec.get("orbits", kind=list) or ()))
        for kind in orbit_kinds:
            if kind not in {spec["kind"] for spec in orbit_specs}:
                raise ConfigError(
                    f"sweep references undefined orbit kind {kind!r}",
                    anchors.where(f"scenario.sweeps[{i}].orbits"),
                )
        f_dom = None
        f_dom_text = ssec.get("f_dom")
        if f_dom_text is not None:
            f_dom = _parse_cf(f_dom_text, named, anchors, f"scenario.sweeps[{i}].f_dom")
        if theorem in ("5.1", "5.3"):
            if dynamics == "first_order":
                raise ConfigError(
                    f"theorem {theorem} sweeps need second-order dynamics",
                    anchors.where(f"scenario.sweeps[{i}].theorem"),
                )
            if not orbit_kinds and not orbit_specs:
                raise ConfigError(
                    f"theorem {theorem} sweeps need at least one orbit",
                    anchors.where(f"scenario.sweeps[{i}]"),
                )
        if theorem == "5.1" and not cfs:
            raise ConfigError(
                "theorem 5.1 sweeps need counterfunctions",
                anchors.where(f"scenario.sweeps[{i}]"),
            )
        sweeps.append(
            SweepSpec(
                theorem=theorem,
                ks=ks,
                counterfunctions=cfs,
                orbit_kinds=orbit_kinds,
                f_dom=f_dom,
            )
        )

    vsec = sc.section("validation", required=False)
    validation = ValidationSpec(
        accretivity_samples=vsec.get("accretivity_samples", 200, kind=int) if vsec else 200,
        region_radius=vsec.get("region_radius", 2.0, kind=float) if vsec else 2.0,
        monotonicity_samples=vsec.get("monotonicity_samples", 10_000, kind=int)
        if vsec
        else 10_000,
        modulus_samples=vsec.get("modulus_samples", 2_000, kind=int) if vsec else 2_000,
        run_modulus_check=vsec.get("run_modulus_check", True, kind=bool) if vsec else True,
    )
    lp_validate_radius = 2.0
    sp = sc.section("space")
    if space.kind == "lp":
        lp_validate_radius = sp.get("validate_radius", 2.0, kind=float)

    return ScenarioSpec(
        scenario_id=scenario_id,
        seed=seed,
        space=space,
        op=op,
        x=x,
        dynamics=dynamics,
        grid=grid,
        schedule=schedule,
        margin=margin,
        stab_tol=stab_tol,
        auto_extend=auto_extend,
        modulus=modulus,
        omega=omega,
        b_override=b_override,
        d_override=d_override,
        orbit_bound_override=orbit_bound_override,
        orbit_specs=tuple(orbit_specs),
        sweeps=tuple(sweeps),
        validation=validation,
        output_dir=output_dir,
        lp_validate_radius=lp_validate_radius,
        first_order_n_max=first_order_n_max,
        sample_points=sample_points,
    )
