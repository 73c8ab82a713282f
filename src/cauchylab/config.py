"""Scenario configuration: YAML schema, line-anchored validation, build.

A configuration file describes one scenario: the space, the operator,
the initial point, solver parameters, the modulus for the convergence
condition, optional rate-data overrides, almost-orbit constructions and
the theorem sweeps to run.  ``load_config`` parses and validates it,
reporting violations with file and line anchors, and builds the live
objects (space, operator, modulus, counterfunctions) without doing any
solving.  Every operator, modulus, almost-orbit and theorem a config may
name is declared once, in the catalog tables below, which the loader
reads and ``cauchylab list-catalog`` prints.

A mandatory RNG seed makes every sampling-based validation
reproducible: identical config and seed give byte-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NoReturn

import numpy as np
import yaml

from .counterfunctions import (
    GRAMMAR,
    Counterfunction,
    parse_counterfunction,
    parse_nat_function2,
)
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
from .second_order import DEFAULT_SCHEDULE, SolverConfig, TimeGrid
from .spaces import SpaceContext

# resource caps: the sweeps cost O(sample_points^2) time and one report
# per k (per orbit and counterfunction) in each sweep; each validation
# sample is one graph pair or modulus evaluation; the Newton system holds
# (horizon / step) dim x dim blocks
MAX_SAMPLE_POINTS = 10_000
MAX_K_VALUES = 1_000
MAX_VALIDATION_SAMPLES = 1_000_000
MAX_SYSTEM_ENTRIES = 10_000_000


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
    solver: SolverConfig
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


def _finite(value) -> bool:
    """A YAML number (not a boolean) that is a finite float."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(float(value))
    except OverflowError:  # an integer too large for a float
        return False


_TYPE_NAMES = {
    float: "a finite number",
    int: "an integer",
    str: "a string",
    bool: "a boolean",
    list: "a list",
    dict: "a mapping",
}


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

    def fail(self, key: str, message: str) -> NoReturn:
        raise ConfigError(message, self.anchors.where(self._sub(key)))

    def require(self, key: str, kind=None):
        if key not in self.data:
            self.fail(key, f"missing required field {key!r}")
        return self._coerce(key, self.data[key], kind)

    def get(self, key: str, default=None, kind=None):
        if key not in self.data:
            return default
        return self._coerce(key, self.data[key], kind)

    def _coerce(self, key, value, kind):
        if kind is None:
            return value
        if kind is float:
            ok = _finite(value)
        elif kind is int:
            ok = isinstance(value, int) and not isinstance(value, bool)
        else:
            ok = isinstance(value, kind)
        if not ok:
            self.fail(key, f"field {key!r} must be {_TYPE_NAMES[kind]}")
        return float(value) if kind is float else value

    def vector(self, key: str, dim: int) -> np.ndarray:
        """A required list of ``dim`` finite numbers, as a float array."""
        value = self.require(key, list)
        if len(value) != dim or not all(_finite(v) for v in value):
            self.fail(
                key, f"field {key!r} must be {dim} finite numbers (the space dimension)"
            )
        return np.array(value, dtype=float)

    def matrix(self, key: str) -> np.ndarray:
        """A required list of equally long rows of finite numbers."""
        rows = self.require(key, list)
        if not all(
            isinstance(row, list) and len(row) == len(rows[0]) and all(_finite(v) for v in row)
            for row in rows
        ):
            self.fail(key, f"field {key!r} must be rows of finite numbers, all of one length")
        return np.array(rows, dtype=float)

    def section(self, key: str, required: bool = True) -> "_Section":
        """The mapping at ``key``; an optional one that is missing reads
        as empty, so every field takes its default."""
        if key not in self.data:
            if required:
                self.fail(key, f"missing required section {key!r}")
            return _Section({}, self.anchors, self._sub(key))
        return _Section(self.require(key, dict), self.anchors, self._sub(key))


# -- the catalog: every kind a config may name, declared once ------------------


@dataclass(frozen=True)
class Kind:
    """One menu entry: how to build it from its config mapping, and the
    parameter help (and zero set) that ``list-catalog`` prints."""

    build: Callable
    params: dict[str, str]
    zero_set: str | None = None


@dataclass(frozen=True)
class OrbitParam:
    """An almost-orbit parameter: a vector of the space's dimension when
    ``default`` is None, else a number that ``valid(value, margin)``
    must accept."""

    help: str
    default: float | None = None
    valid: Callable[[float, float], bool] | None = None


def _modulus_expression(sec: _Section) -> ConvergenceModulus:
    text = sec.require("text", str)
    fn = parse_nat_function2(text, ("k", "K"))
    return ConvergenceModulus(fn=fn, provenance="user-supplied", description=text)


OPERATORS = {
    "scaled_identity": Kind(
        lambda sec, space: ScaledIdentity(sec.require("c", float), space),
        {"c": "scale >= 0 (c = 0 is the zero operator)"},
        "{0} for c > 0, the whole space for c = 0",
    ),
    "zero": Kind(lambda sec, space: ScaledIdentity(0.0, space), {}, "the whole space"),
    "linear_psd": Kind(
        lambda sec, space: LinearPSD(sec.matrix("matrix"), space),
        {"matrix": "symmetric positive-semidefinite matrix literal"},
        "nullspace of the matrix",
    ),
    "linear": Kind(
        lambda sec, space: LinearMatrix(sec.matrix("matrix"), space),
        {"matrix": "square matrix literal (accretivity not enforced)"},
        "nullspace of the matrix",
    ),
    "rotation": Kind(
        lambda sec, space: Rotation(
            sec.matrix("matrix") if "matrix" in sec.data else None, space
        ),
        {"matrix": "optional 2x2 skew matrix, default [[0,-1],[1,0]]"},
        "{0}; admits no modulus for the convergence condition",
    ),
    "norm_subdifferential": Kind(
        lambda sec, space: NormSubdifferential(space),
        {},
        "{0}; resolvent is the radial soft threshold",
    ),
    "strongly_accretive": Kind(
        lambda sec, space: StronglyAccretive(
            _build(sec.section("base"), OPERATORS, "operator", space),
            sec.require("c", float),
        ),
        {"base": "operator spec with base(0) = 0", "c": "constant > 0"},
        "{0}",
    ),
}

MODULI = {
    "strongly_accretive": Kind(
        lambda sec: modulus_strongly_accretive(sec.require("c", float)),
        {"c": "constant > 0"},
    ),
    "constant": Kind(
        lambda sec: constant_modulus(sec.require("value", int)), {"value": "natural"}
    ),
    "expression": Kind(_modulus_expression, {"text": "expression over k, K"}),
}

ORBITS = {
    "exact": {},
    "additive_decay": {
        "v": OrbitParam("vector"),
        "lam": OrbitParam("decay rate > 0", 1.0, lambda lam, margin: lam > 0.0),
    },
    "time_warp": {
        "delta": OrbitParam(
            "offset in (0, margin)", 0.5, lambda delta, margin: 0.0 < delta < margin
        ),
    },
}

THEOREMS = ("4.1", "4.2", "5.1", "5.3")


def catalog() -> dict:
    """The menus above as ``cauchylab list-catalog`` prints them."""
    return {
        "operators": [
            {"kind": kind, "params": dict(entry.params), "zero_set": entry.zero_set}
            for kind, entry in OPERATORS.items()
        ],
        "moduli": [
            {"kind": kind, "params": dict(entry.params)} for kind, entry in MODULI.items()
        ],
        # an orbit kind without parameters lists no params at all
        "orbits": [
            {"kind": kind, "params": {name: p.help for name, p in params.items()}}
            if params
            else {"kind": kind}
            for kind, params in ORBITS.items()
        ],
        "theorems": list(THEOREMS),
        "counterfunction_grammar": GRAMMAR,
    }


def _lookup(sec: _Section, menu: dict, what: str):
    kind = sec.require("kind", str)
    if kind not in menu:
        sec.fail("kind", f"unknown {what} kind {kind!r}")
    return kind, menu[kind]


def _build(sec: _Section, menu: dict, what: str, *args):
    """Build the menu entry that ``sec`` names; what its build function rejects
    becomes a ConfigError anchored at the entry."""
    _, entry = _lookup(sec, menu, what)
    try:
        return entry.build(sec, *args)
    except ConfigError:
        raise
    except (ValueError, CauchyLabError) as exc:
        raise ConfigError(str(exc), sec.anchors.where(sec.path))


def _build_space(sec: _Section) -> SpaceContext:
    kind = sec.require("kind", str)
    dim = sec.require("dim", int)
    try:
        if kind == "hilbert":
            return SpaceContext.hilbert(dim)
        if kind == "lp":
            space = SpaceContext.lp(dim, sec.require("p", float), sec.require("M", float))
            return space
        sec.fail("kind", f"unknown space kind {kind!r}")
    except ValueError as exc:
        raise ConfigError(str(exc), sec.anchors.where(sec.path))


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
    if seed < 0:
        root.fail("seed", "seed must be a natural")
    output_dir = root.get("output_dir", kind=str)
    sc = root.section("scenario")
    scenario_id = sc.require("id", str)

    space = _build_space(sc.section("space"))
    # the initial point first: its length in the file bounds the dimension
    # that building the operator may allocate for
    x = sc.vector("initial_point", space.dim)
    op = _build(sc.section("operator"), OPERATORS, "operator", space)

    dynamics = sc.get("dynamics", "second_order", kind=str)
    if dynamics not in ("second_order", "first_order"):
        sc.fail("dynamics", f"dynamics must be second_order or first_order, got {dynamics!r}")

    sol = sc.section("solver", required=False)
    first_order_n_max = sol.get("first_order_n_max", 2**16, kind=int)
    sample_points = sol.get("sample_points", 500, kind=int)
    if not 1 <= sample_points <= MAX_SAMPLE_POINTS:
        sol.fail("sample_points", f"sample_points must lie in [1, {MAX_SAMPLE_POINTS}]")
    schedule = DEFAULT_SCHEDULE
    raw = sol.get("schedule", kind=list)
    if raw is not None:
        if not raw or not all(
            isinstance(pair, list) and len(pair) == 2 and all(_finite(v) and v > 0 for v in pair)
            for pair in raw
        ):
            sol.fail("schedule", "schedule must be a nonempty list of positive [r, p] pairs")
        schedule = tuple((float(r), float(p)) for r, p in raw)
    try:
        grid = TimeGrid(sol.get("horizon", 40.0, kind=float), sol.get("step", 0.01, kind=float))
    except ValueError as exc:
        raise ConfigError(str(exc), anchors.where("scenario.solver"))
    if grid.n_steps * space.dim**2 > MAX_SYSTEM_ENTRIES:
        message = f"(horizon / step) * dim^2 exceeds {MAX_SYSTEM_ENTRIES} Newton system entries"
        sol.fail("step", message)
    try:
        solver = SolverConfig(
            grid,
            schedule,
            sol.get("stabilization_tol", 1e-6, kind=float),
            sol.get("margin", 1.0, kind=float),
            sol.get("auto_extend", True, kind=bool),
        )
    except ValueError as exc:
        sol.fail("margin", str(exc))

    modulus = _build(sc.section("modulus"), MODULI, "modulus")

    rd = sc.section("rate_data", required=False)
    b_override = rd.get("b", kind=float)
    d_override = rd.get("d_budget", kind=float)
    orbit_bound_override = rd.get("orbit_bound", kind=int)
    omega = None
    omega_text = rd.get("omega", kind=str)
    if omega_text is not None and omega_text.strip() != "k":
        try:
            omega = parse_nat_function2(omega_text, ("r", "k"))
        except CauchyLabError as exc:
            rd.fail("omega", str(exc))

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
        kind, params = _lookup(osec, ORBITS, "orbit")
        # sweeps and diagnostics name an orbit by its kind
        if any(spec["kind"] == kind for spec in orbit_specs):
            osec.fail("kind", f"orbit kind {kind!r} is defined twice")
        spec = {"kind": kind}
        for name, param in params.items():
            if param.default is None:
                spec[name] = osec.vector(name, space.dim)
                continue
            spec[name] = osec.get(name, param.default, kind=float)
            if not param.valid(spec[name], solver.margin):
                osec.fail(name, f"{kind} {name} must be {param.help}")
        orbit_specs.append(spec)
    if dynamics == "first_order" and orbit_specs:
        sc.fail("orbits", "almost-orbits require second-order dynamics")

    sweeps = []
    raw_sweeps = sc.get("sweeps", kind=list) or []
    for i, entry in enumerate(raw_sweeps):
        ssec = _Section(entry, anchors, f"scenario.sweeps[{i}]")
        theorem = str(ssec.require("theorem"))
        if theorem not in THEOREMS:
            ssec.fail("theorem", f"unknown theorem {theorem!r} (known: {', '.join(THEOREMS)})")
        k_range = ssec.require("k_range", list)
        if (
            len(k_range) != 2
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in k_range)
            or k_range[0] > k_range[1]
            or k_range[0] < 0
        ):
            ssec.fail("k_range", "k_range must be [k_min, k_max] with 0 <= k_min <= k_max")
        if k_range[1] - k_range[0] >= MAX_K_VALUES:
            ssec.fail("k_range", f"k_range may span at most {MAX_K_VALUES} values")
        ks = tuple(range(k_range[0], k_range[1] + 1))
        cfs = tuple(
            _parse_cf(text, named, anchors, f"scenario.sweeps[{i}].counterfunctions")
            for text in (ssec.get("counterfunctions", kind=list) or [])
        )
        orbit_kinds = tuple(str(v) for v in (ssec.get("orbits", kind=list) or ()))
        for kind in orbit_kinds:
            if kind not in {spec["kind"] for spec in orbit_specs}:
                ssec.fail("orbits", f"sweep references undefined orbit kind {kind!r}")
        f_dom = None
        f_dom_text = ssec.get("f_dom")
        if f_dom_text is not None:
            f_dom = _parse_cf(f_dom_text, named, anchors, f"scenario.sweeps[{i}].f_dom")
        if theorem in ("5.1", "5.3"):
            if dynamics == "first_order":
                ssec.fail("theorem", f"theorem {theorem} sweeps need second-order dynamics")
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
    samples = {}
    for key in ("accretivity_samples", "monotonicity_samples", "modulus_samples"):
        samples[key] = vsec.get(key, getattr(ValidationSpec, key), kind=int)
        if not 1 <= samples[key] <= MAX_VALIDATION_SAMPLES:
            vsec.fail(key, f"{key} must lie in [1, {MAX_VALIDATION_SAMPLES}]")
    validation = ValidationSpec(
        region_radius=vsec.get("region_radius", 2.0, kind=float),
        run_modulus_check=vsec.get("run_modulus_check", True, kind=bool),
        **samples,
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
        solver=solver,
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
