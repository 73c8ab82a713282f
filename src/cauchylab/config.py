"""Scenario configuration: YAML schema, line-anchored validation, build.

A configuration file describes one scenario: the space, the operator,
the initial point, solver parameters, the modulus for the convergence
condition, almost-orbit constructions and the theorem sweeps to run.
``load_config`` parses and validates it, reporting violations with file
and line anchors, and builds the live objects (space, operator, modulus,
counterfunctions) without doing any solving.  Every space, operator,
modulus, almost-orbit and theorem a config may name is declared once: the
spaces, operators and moduli in the catalog tables below, the almost-orbit
kinds and the theorems in ``verification.ORBITS`` and
``verification.THEOREMS``, beside the code that runs them.  The loader
reads all five and ``cauchylab list-catalog`` prints them.  A space sets
no strong-monotonicity constant: ``SpaceContext.M`` is p - 1, a theorem
for l^p with 1 < p <= 2, the only exponents the loader accepts.

A mandatory RNG seed makes every sampling-based validation
reproducible: identical config and seed give byte-identical reports.
A config sets no rate data and no validation budget: the sweeps compute
b, D, B and the graph bound from the scenario, and every run makes both
checks, ``verify_accretive`` and ``modulus_check``, at their defaults.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NoReturn

import numpy as np
import yaml

from .counterfunctions import (
    GRAMMAR,
    NAME_RULE,
    Counterfunction,
    callable_name,
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
from .second_order import MIN_STEPS, SolverConfig, TimeGrid
from .spaces import SpaceContext
from .verification import ORBITS, THEOREMS

# resource caps: the sweeps cost O(sample_points^2) time and write one
# report per k (per orbit and counterfunction) in each sweep, at most
# MAX_REPORTS in all; the Newton system holds (horizon / step) dim x dim blocks
MAX_SAMPLE_POINTS = 10_000
MAX_K_VALUES = 1_000
MAX_REPORTS = 100_000
MAX_SYSTEM_ENTRIES = 10_000_000


@dataclass(frozen=True)
class SweepSpec:
    theorem: str
    ks: tuple[int, ...]
    counterfunctions: tuple[Counterfunction, ...] = ()
    orbit_kinds: tuple[str, ...] = ()
    f_dom: Counterfunction | None = None


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
    orbit_specs: tuple[dict, ...]
    sweeps: tuple[SweepSpec, ...]
    output_dir: str | None


# libyaml's parser where PyYAML has it, else the pure-Python one; both
# resolve scalars by the same Python rules, so they give equal data
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
# PyYAML converts an integer scalar with int(), which refuses a decimal
# string longer than this (sys.int_info) with a bare ValueError
MAX_INT_DIGITS = 4300


def _parse(filename: str, text: str) -> tuple[object, _Anchors]:
    """The config's data and its line anchors, from one parse of the text."""
    loader = _LOADER(text)
    try:
        root = loader.get_single_node()
        anchors = _Anchors(filename, root)  # first: it bounds the integer scalars
        data = None if root is None else loader.construct_document(root)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: e.g. the date 2020-02-30
        raise ConfigError(f"not valid YAML: {exc}", filename)
    finally:
        loader.dispose()
    return data, anchors


class _Anchors:
    """Line positions of config nodes, for anchored error messages."""

    def __init__(self, filename: str, root: yaml.Node | None):
        self.filename = filename
        self.lines: dict[str, int] = {}
        if root is not None:
            self._walk(root, "")

    def _walk(self, node, path):
        self.lines[path] = node.start_mark.line + 1
        if node.tag == "tag:yaml.org,2002:int" and len(node.value) > MAX_INT_DIGITS:
            raise ConfigError(f"integer of more than {MAX_INT_DIGITS} digits", self.where(path))
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


# YAML 1.1, which PyYAML follows, wants a dot in a float, a digit before a
# signed dot and a sign on the exponent: 1e6, 1.0e6, 2E-3 and -.5 load as
# strings
_NUMBER_TEXT = re.compile(r"([-+]?)([0-9_]*)\.?([0-9_]*)(?:([eE])([-+]?)([0-9_]+))?")


def _string_number_note(values) -> str:
    """For the first string among ``values`` that Python reads as a finite
    number: that YAML read it as a string, and a spelling YAML reads as
    that float.  '' if there is none."""
    for value in values:
        match = isinstance(value, str) and _NUMBER_TEXT.fullmatch(value)
        try:
            if not match or not math.isfinite(float(value)):
                continue
        except ValueError:
            continue
        sign, whole, frac, e, exp_sign, exp = match.groups()
        spelling = f"{sign}{whole or '0'}.{frac or '0'}"
        if e:
            spelling += f"{e}{exp_sign or '+'}{exp.replace('_', '')}"
        return f"; YAML 1.1 read {value!r} as a string, write {spelling}"
    return ""


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

    def fail(self, key: str | None, message: str) -> NoReturn:
        """Raise a ConfigError anchored at ``key``, or at the mapping itself
        when ``key`` is None."""
        path = self.path if key is None else self._sub(key)
        raise ConfigError(message, self.anchors.where(path))

    def known(self, *keys: str) -> None:
        """Reject any key of the mapping that is not one of ``keys``: a
        misspelt field must not silently take its default."""
        for key in self.data:
            if key not in keys:
                self.fail(
                    str(key), f"unknown key {str(key)!r} (allowed: {', '.join(keys)})"
                )

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
            note = _string_number_note([value]) if kind is float else ""
            self.fail(key, f"field {key!r} must be {_TYPE_NAMES[kind]}{note}")
        return float(value) if kind is float else value

    def vector(self, key: str, dim: int) -> np.ndarray:
        """A required list of ``dim`` finite numbers, as a float array."""
        value = self.require(key, list)
        if len(value) != dim or not all(_finite(v) for v in value):
            self.fail(
                key,
                f"field {key!r} must be {dim} finite numbers (the space dimension)"
                + _string_number_note(value),
            )
        return np.array(value, dtype=float)

    def point(self, key: str, space: SpaceContext, name: str) -> np.ndarray:
        """``vector`` of the space's dimension whose norm is a finite float
        too; ``name`` names it in the error."""
        x = self.vector(key, space.dim)
        with np.errstate(over="ignore"):
            finite = math.isfinite(space.norm(x))
        if not finite:
            self.fail(key, f"{name} has a norm beyond the float range")
        return x

    def matrix(self, key: str) -> np.ndarray:
        """A required list of equally long rows of finite numbers."""
        rows = self.require(key, list)
        if not all(
            isinstance(row, list) and len(row) == len(rows[0]) and all(_finite(v) for v in row)
            for row in rows
        ):
            note = _string_number_note(v for row in rows if isinstance(row, list) for v in row)
            self.fail(key, f"field {key!r} must be rows of finite numbers, all of one length{note}")
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
    parameter help (and an operator's zero set) that ``list-catalog`` prints."""

    build: Callable
    params: dict[str, str]
    zero_set: str | None = None


def _modulus_expression(sec: _Section) -> ConvergenceModulus:
    text = sec.require("text", str)
    fn = parse_nat_function2(text, ("k", "K"))
    return ConvergenceModulus(fn=fn, provenance="user-supplied", description=text)


def _modulus_strongly_accretive(sec: _Section) -> ConvergenceModulus:
    try:
        return modulus_strongly_accretive(sec.require("c", float))
    except (ValueError, CauchyLabError) as exc:  # c <= 0, or 1/c beyond the float range
        sec.fail("c", str(exc))


SPACES = {
    "hilbert": Kind(
        lambda sec: SpaceContext.lp(sec.require("dim", int), 2.0),
        {"dim": "dimension >= 1; the duality map is the identity, M = 1"},
    ),
    "lp": Kind(
        lambda sec: SpaceContext.lp(sec.require("dim", int), sec.require("p", float)),
        {
            "dim": "dimension >= 1",
            "p": "exponent in (1, 2]; the duality map is M-strongly monotone, M = p - 1",
        },
    ),
}

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
    "strongly_accretive": Kind(_modulus_strongly_accretive, {"c": "constant > 0"}),
    "constant": Kind(
        lambda sec: constant_modulus(sec.require("value", int)), {"value": "natural"}
    ),
    "expression": Kind(_modulus_expression, {"text": "expression over k, K"}),
}

def catalog() -> dict:
    """The menus above as ``cauchylab list-catalog`` prints them."""
    return {
        "spaces": [{"kind": kind, "params": dict(entry.params)} for kind, entry in SPACES.items()],
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
    sec.known("kind", *entry.params)
    try:
        return entry.build(sec, *args)
    except ConfigError:
        raise
    except (ValueError, CauchyLabError) as exc:
        sec.fail(None, str(exc))


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
    data, anchors = _parse(str(path), text)
    if not isinstance(data, dict):
        raise ConfigError("top level must be a mapping", f"{path}:1")
    root = _Section(data, anchors, "")
    root.known("seed", "output_dir", "scenario")

    seed = root.require("seed", int)
    if seed < 0:
        root.fail("seed", "seed must be a natural")
    output_dir = root.get("output_dir", kind=str)
    sc = root.section("scenario")
    sc.known(
        "id",
        "space",
        "operator",
        "initial_point",
        "dynamics",
        "solver",
        "modulus",
        "counterfunctions",
        "orbits",
        "sweeps",
    )
    scenario_id = sc.require("id", str)

    space = _build(sc.section("space"), SPACES, "space")
    # the initial point first: its length in the file bounds the dimension
    # that building the operator may allocate for; the solver's scale and
    # the rate data take ||x||
    x = sc.point("initial_point", space, "initial_point")
    op = _build(sc.section("operator"), OPERATORS, "operator", space)

    dynamics = sc.get("dynamics", "second_order", kind=str)
    if dynamics not in ("second_order", "first_order"):
        sc.fail("dynamics", f"dynamics must be second_order or first_order, got {dynamics!r}")

    sol = sc.section("solver", required=False)
    sol.known("horizon", "step", "margin", "sample_points")
    # every default is SolverConfig's own
    sample_points = sol.get("sample_points", SolverConfig.sample_points, kind=int)
    if not 1 <= sample_points <= MAX_SAMPLE_POINTS:
        sol.fail("sample_points", f"sample_points must lie in [1, {MAX_SAMPLE_POINTS}]")
    try:
        grid = TimeGrid(sol.get("horizon", 40.0, kind=float), sol.get("step", 0.01, kind=float))
    except ValueError as exc:
        raise ConfigError(str(exc), anchors.where("scenario.solver"))
    if grid.n_steps * space.dim**2 > MAX_SYSTEM_ENTRIES:
        message = f"(horizon / step) * dim^2 exceeds {MAX_SYSTEM_ENTRIES} Newton system entries"
        sol.fail("step", message)
    if dynamics == "second_order" and grid.n_steps < MIN_STEPS:
        sol.fail("step", f"a second-order grid needs horizon / step >= {MIN_STEPS}")
    margin = sol.get("margin", SolverConfig.margin, kind=float)
    try:
        solver = SolverConfig(grid, margin, sample_points)
    except ValueError as exc:
        sol.fail("margin", str(exc))

    modulus = _build(sc.section("modulus"), MODULI, "modulus")

    named: dict[str, Counterfunction] = {}
    for name, expr in (sc.get("counterfunctions", kind=dict) or {}).items():
        name, path = str(name), f"scenario.counterfunctions.{name}"
        if not callable_name(name):
            message = f"counterfunction name {name!r} can never be called: {NAME_RULE}"
            raise ConfigError(message, anchors.where(path))
        named[name] = _parse_cf(expr, named, anchors, path)

    orbit_specs = []
    for i, entry in enumerate(sc.get("orbits", kind=list) or []):
        osec = _Section(entry, anchors, f"scenario.orbits[{i}]")
        kind, params = _lookup(osec, ORBITS, "orbit")
        osec.known("kind", *params)
        # sweeps and diagnostics name an orbit by its kind
        if any(spec["kind"] == kind for spec in orbit_specs):
            osec.fail("kind", f"orbit kind {kind!r} is defined twice")
        spec = {"kind": kind}
        for name, param in params.items():
            if param.default is None:
                # the defect rate takes log ||v||
                spec[name] = osec.point(name, space, f"{kind} {name}")
                continue
            spec[name] = osec.get(name, param.default, kind=float)
            if not param.valid(spec[name], solver.margin):
                osec.fail(name, f"{kind} {name} must be {param.help}")
        orbit_specs.append(spec)
    if dynamics == "first_order" and orbit_specs:
        sc.fail("orbits", "almost-orbits require second-order dynamics")

    sweeps, reports = [], 0
    for i, entry in enumerate(sc.get("sweeps", kind=list) or []):
        ssec = _Section(entry, anchors, f"scenario.sweeps[{i}]")
        theorem = str(ssec.require("theorem"))
        if theorem not in THEOREMS:
            ssec.fail("theorem", f"unknown theorem {theorem!r} (known: {', '.join(THEOREMS)})")
        thm = THEOREMS[theorem]
        ssec.known("theorem", "k_range", *thm.keys)
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
        for j, kind in enumerate(orbit_kinds):
            if kind not in {spec["kind"] for spec in orbit_specs}:
                ssec.fail("orbits", f"sweep references undefined orbit kind {kind!r}")
            # the sweep runs each orbit once, however often it is named
            if kind in orbit_kinds[:j]:
                ssec.fail("orbits", f"orbit kind {kind!r} is named twice")
        f_dom = ssec.get("f_dom")
        if f_dom is not None:
            f_dom = _parse_cf(f_dom, named, anchors, f"scenario.sweeps[{i}].f_dom")
        over_orbits, search = "orbits" in thm.keys, "counterfunctions" in thm.keys
        if over_orbits:
            if dynamics == "first_order":
                ssec.fail("theorem", f"theorem {theorem} sweeps need second-order dynamics")
            if not orbit_kinds and not orbit_specs:
                ssec.fail(None, f"theorem {theorem} sweeps need at least one orbit")
        if search and not cfs:
            ssec.fail(None, f"theorem {theorem} sweeps need counterfunctions")
        # one report per k, and per orbit and counterfunction where the theorem has them
        orbit_count = len(orbit_kinds or orbit_specs) if over_orbits else 1
        reports += len(ks) * orbit_count * (len(cfs) if search else 1)
        if reports > MAX_REPORTS:
            message = f"the sweeps up to this one ask for {reports} reports"
            ssec.fail(None, f"{message}, more than {MAX_REPORTS}")
        sweeps.append(SweepSpec(theorem, ks, cfs, orbit_kinds, f_dom))

    return ScenarioSpec(
        scenario_id, seed, space, op, x, dynamics, solver, modulus,
        tuple(orbit_specs), tuple(sweeps), output_dir,
    )
