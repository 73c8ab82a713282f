import dataclasses
import json
import math
import os
import re
import runpy
import subprocess
import sys
import tempfile
import textwrap
import types
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import cauchylab
from cauchylab import SolverConfig, TimeGrid, runner
from cauchylab.cli import main as cli_main
from cauchylab.config import load_config
from cauchylab.errors import ConfigError
from cauchylab.runner import run_config
from cauchylab.verification import RateReport

CFG_DIR = resources.files("cauchylab") / "configs"
BUNDLED = [
    "identity_hilbert.cfg",
    "rotation_counterexample.cfg",
    "linear_diag14.cfg",
    "subdifferential_norm.cfg",
    "strongly_accretive.cfg",
    "zero_operator.cfg",
    "rotation_second_order.cfg",
    "lp_identity.cfg",
]


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(text))
    return path


MINIMAL = """\
seed: 7
scenario:
  id: mini
  space: {kind: hilbert, dim: 2}
  operator: {kind: scaled_identity, c: 1.0}
  initial_point: [1.0, 0.0]
  solver: {horizon: 10.0, step: 0.05}
  modulus: {kind: strongly_accretive, c: 1.0}
  sweeps:
    - {theorem: "4.1", k_range: [0, 1]}
"""


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_configs_load(name):
    spec = load_config(str(CFG_DIR / name))
    assert spec.seed == 20270809
    assert spec.scenario_id == name.removesuffix(".cfg")


def test_minimal_config_fields(tmp_path):
    spec = load_config(write_cfg(tmp_path, MINIMAL))
    assert spec.space.p == 2.0
    assert spec.solver.grid.horizon == 10.0
    assert spec.dynamics == "second_order"
    assert spec.sweeps[0].theorem == "4.1"
    assert spec.sweeps[0].ks == (0, 1)
    # every other solver field takes SolverConfig's default
    assert spec.solver == SolverConfig(TimeGrid(10.0, 0.05))


def test_each_solver_key_reaches_its_field(tmp_path):
    # every value differs from its default, so a dropped key shows
    solver = "solver: {horizon: 20.0, step: 0.1, margin: 2.0, sample_points: 42}"
    text = MINIMAL.replace("solver: {horizon: 10.0, step: 0.05}", solver)
    spec = load_config(write_cfg(tmp_path, text))
    assert spec.solver == SolverConfig(TimeGrid(20.0, 0.1), 2.0, 42)


def test_one_step_first_order_grid_loads(tmp_path):
    # only the second-order Newton system needs 4 steps
    text = MINIMAL.replace(
        "  solver: {horizon: 10.0, step: 0.05}",
        "  solver: {horizon: 0.01, step: 0.01, margin: 0.0}\n  dynamics: first_order",
    )
    spec = load_config(write_cfg(tmp_path, text))
    assert spec.dynamics == "first_order"
    assert spec.solver.grid.n_steps == 1


def test_missing_seed(tmp_path):
    path = write_cfg(tmp_path, MINIMAL.replace("seed: 7\n", ""))
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)


def test_missing_lp_constant_names_field_and_line(tmp_path):
    text = MINIMAL.replace(
        "space: {kind: hilbert, dim: 2}", "space: {kind: lp, dim: 2, p: 4.0}"
    )
    path = write_cfg(tmp_path, text)
    with pytest.raises(ConfigError) as err:
        load_config(path)
    message = str(err.value)
    assert "M" in message
    assert f"{path}:4" in message  # anchored at the space mapping line


# operators whose zero-set projection or proximal map is Euclidean: they
# need p = 2, the Hilbert kind or l^2
EUCLIDEAN_OPERATORS = [
    "{kind: norm_subdifferential}",
    "{kind: linear_psd, matrix: [[0.0, 0.0], [0.0, 1.0]]}",  # a proper nullspace
]


def _with_space_and_operator(space, operator):
    return MINIMAL.replace("{kind: hilbert, dim: 2}", space).replace(
        "{kind: scaled_identity, c: 1.0}", operator
    )


@pytest.mark.parametrize("operator", EUCLIDEAN_OPERATORS)
def test_euclidean_operators_load_in_l2(tmp_path, operator):
    spec = load_config(write_cfg(tmp_path, _with_space_and_operator("{kind: lp, dim: 2, p: 2}", operator)))
    assert spec.space.p == spec.op.space.p == 2.0


@pytest.mark.parametrize("operator", EUCLIDEAN_OPERATORS)
def test_euclidean_operators_refused_below_p2(tmp_path, operator):
    path = write_cfg(tmp_path, _with_space_and_operator("{kind: lp, dim: 2, p: 1.5}", operator))
    with pytest.raises(ConfigError, match="p = 2") as err:
        load_config(path)
    assert f"{path}:5" in str(err.value)  # anchored at the operator mapping line


def test_l2_norm_subdifferential_trajectory_is_the_hilbert_one(tmp_path):
    norm = "{kind: norm_subdifferential}"
    trajectories = []
    for space in ("{kind: hilbert, dim: 2}", "{kind: lp, dim: 2, p: 2}"):
        spec = load_config(write_cfg(tmp_path, _with_space_and_operator(space, norm)))
        trajectories.append(cauchylab.solve_second_order(spec.op, spec.x, spec.solver).values)
    np.testing.assert_array_equal(*trajectories)


BAD_CASES = [
    ("operator: {kind: scaled_identity, c: 1.0}", "operator: {kind: warp}", "warp"),
    ('- {theorem: "4.1", k_range: [0, 1]}', '- {theorem: "7.7", k_range: [0, 1]}', "7.7"),
    ('- {theorem: "4.1", k_range: [0, 1]}', '- {theorem: "4.1", k_range: [3, 1]}', "k_range"),
    ("initial_point: [1.0, 0.0]", "initial_point: [1.0, 0.0, 3.0]", "dimension"),
    ('- {theorem: "4.1", k_range: [0, 1]}', '- {theorem: "5.1", k_range: [0, 1]}', "orbit"),
    ("k_range: [0, 1]", "k_range: [0, 100000000]", "k_range"),
    ("step: 0.05}", "step: 0.05, sample_points: 0}", "sample_points"),
    ("step: 0.05}", "step: 0.05, sample_points: -5}", "sample_points"),
    ("step: 0.05}", "step: 0.05, sample_points: 10001}", "sample_points"),
    ("c: 1.0}\n  initial", "c: .nan}\n  initial", "finite"),
    ("initial_point: [1.0, 0.0]", 'initial_point: ["a", 0.0]', "initial_point"),
    ("initial_point: [1.0, 0.0]", "initial_point: [.nan, 0.0]", "initial_point"),
    ("initial_point: [1.0, 0.0]", "initial_point: [.inf, 0.0]", "initial_point"),
    ("  sweeps:", "  orbits: [{kind: additive_decay, v: [0, 1], lam: -1}]\n  sweeps:", "lam"),
    ("  sweeps:", "  orbits: [{kind: time_warp, delta: 5.0}]\n  sweeps:", "delta"),
    ("  sweeps:", '  orbits: [{kind: additive_decay, v: ["x", 1]}]\n  sweeps:', "'v'"),
    ("kind: scaled_identity, c: 1.0", "kind: linear, matrix: [[1, 0], [0, {a: 1}]]", "matrix"),
    ("seed: 7", "seed: -7", "seed"),
    ("step: 0.05}", "step: 0.05, margin: 10.0}", "margin"),
    # no continuation schedule is settable, and the sweep allowance is fixed
    *(
        (
            "step: 0.05}",
            f"step: 0.05, {entry}}}",
            rf":7: scenario\.solver\.{key}: unknown key '{key}' "
            r"\(allowed: horizon, step, margin, sample_points\)$",
        )
        for key, entry in (
            ("schedule", "schedule: [[0.1, 0.0]]"),
            ("schedule", "schedule: [[0.1, 0.1], [0.01, 0.01], [0.001, 0.001]]"),
            ("stabilization_tol", "stabilization_tol: -1.0"),
            ("stabilization_tol", "stabilization_tol: 1.0e-6"),
        )
    ),
    ("step: 0.05}", "step: 1.0e-320}", "overflows"),
    # the sampling radii are fixed: a negative one once ended in a
    # traceback, and 0 in a vacuous pass
    *(
        (
            "space: {kind: hilbert, dim: 2}",
            f"space: {{kind: lp, dim: 2, p: 1.5, validate_radius: {r}}}",
            r":4: scenario\.space\.validate_radius: unknown key 'validate_radius' "
            r"\(allowed: kind, dim, p\)",
        )
        for r in ("-3.0", "0.0")
    ),
    # M = p - 1 is a theorem, not a setting: a configured M once certified
    # the p = 4 reports against a false constant
    *(
        (
            "space: {kind: hilbert, dim: 2}",
            f"space: {{{entry}}}",
            rf":4: scenario\.space\.M: unknown key 'M' \(allowed: {allowed}\)$",
        )
        for entry, allowed in (
            ("kind: lp, dim: 2, p: 4.0, M: 0.02", "kind, dim, p"),
            ("kind: lp, dim: 2, p: 1.5, M: 0.5", "kind, dim, p"),
            ("kind: hilbert, dim: 2, M: 1.0", "kind, dim"),
        )
    ),
    # only for 1 < p <= 2 is the duality map M-strongly monotone with M > 0
    *(
        (
            "space: {kind: hilbert, dim: 2}",
            f"space: {{kind: lp, dim: 2, p: {p}}}",
            rf":4: scenario\.space: p = {re.escape(p)} lies outside \(1, 2\]",
        )
        for p in ("4.0", "2.5", "1.0", "0.5", "-2.0")
    ),
    # a sweep accepts only the keys its theorem reads
    *(
        (
            '- {theorem: "4.1", k_range: [0, 1]}',
            f'- {{theorem: "{theorem}", k_range: [0, 1], {entry}}}',
            rf":10: scenario\.sweeps\[0\]\.{entry.split(':')[0]}: unknown key "
            rf"'{entry.split(':')[0]}' \(allowed: theorem, k_range{allowed}\)$",
        )
        for theorem, allowed, entry in (
            ("4.1", "", 'f_dom: "7"'),
            ("4.1", "", 'counterfunctions: ["n"]'),
            ("4.1", "", "orbits: [exact]"),
            ("4.2", ", f_dom", 'counterfunctions: ["n"]'),
            ("4.2", ", f_dom", "orbits: [exact]"),
            ("5.1", ", counterfunctions, orbits", 'f_dom: "7"'),
            ("5.3", ", orbits", 'f_dom: "7"'),
            ("5.3", ", orbits", 'counterfunctions: ["n"]'),
        )
    ),
    # the validation section is gone: every budget and radius it held is
    # its validator's default, and every run makes the modulus check
    *(
        (
            "  sweeps:",
            f"  validation: {{{entry}}}\n  sweeps:",
            r":9: scenario\.validation: unknown key 'validation' \(allowed: id, space,",
        )
        for entry in (
            "monotonicity_samples: 0",
            "accretivity_samples: -5",
            "modulus_samples: 1000001",
            "region_radius: -5.0",
            "region_radius: 0.0",
            "region_radius: .inf",
            "region_radius: 1.0, radius: 2",
            "run_modulus_check: false",
        )
    ),
    # the reports a config asks for are capped at load time: 1000 values of
    # k times 101 counterfunctions in one 5.1 sweep, after 2 reports of 4.1
    (
        '  sweeps:\n    - {theorem: "4.1", k_range: [0, 1]}',
        "  orbits: [{kind: exact}]\n  sweeps:\n"
        '    - {theorem: "4.1", k_range: [0, 1]}\n'
        '    - {theorem: "5.1", k_range: [0, 999], counterfunctions: ['
        + ", ".join(f'"{j}"' for j in range(101))
        + "]}",
        r":12: scenario\.sweeps\[1\]: the sweeps up to this one ask for 101002 reports, "
        r"more than 100000$",
    ),
    # an expression literal above the float range: a 5000-digit one ended in
    # a ValueError traceback from the int-string limit
    (
        "  sweeps:",
        f"  counterfunctions: {{big: \"{'9' * 5000}\"}}\n  sweeps:",
        r"counterfunctions\.big: expression value 1\.000e\+5000 exceeds the float range",
    ),
    (
        "  sweeps:",
        f"  rate_data: {{omega: \"{'9' * 5000}\"}}\n  sweeps:",
        r"scenario\.rate_data: unknown key 'rate_data'",
    ),
    ("horizon: 10.0, step: 0.05", "horizon: 1.0e+6, step: 0.01", "Newton system"),
    (
        "  sweeps:",
        "  orbits:\n"
        "    - {kind: additive_decay, v: [0, 1]}\n"
        "    - {kind: additive_decay, v: [1, 0]}\n"
        "  sweeps:",
        r"orbits\[1\]\.kind: orbit kind 'additive_decay' is defined twice",
    ),
    # a sweep runs each orbit it names once: one named three times was
    # counted three times against the report cap
    (
        '  sweeps:\n    - {theorem: "4.1", k_range: [0, 1]}',
        "  orbits: [{kind: exact}]\n  sweeps:\n"
        '    - {theorem: "5.3", k_range: [0, 1], orbits: [exact, exact, exact]}',
        r":11: scenario\.sweeps\[0\]\.orbits: orbit kind 'exact' is named twice$",
    ),
    # a counterfunction name an expression can never call: n and max always
    # mean the variable and the maximum, and 2x is no name at all
    *(
        (
            "  sweeps:",
            f'  counterfunctions: {{{name}: "n+7"}}\n  sweeps:',
            rf":9: scenario\.counterfunctions\.{name}: counterfunction name '{name}' "
            r"can never be called",
        )
        for name in ("n", "max", "2x")
    ),
    # a key no mapping reads is an error, never a silently ignored typo
    (
        "seed: 7",
        "seed: 7\nsed: 3",
        r":2: sed: unknown key 'sed' \(allowed: seed, output_dir, scenario\)",
    ),
    ("  id: mini", "  id: mini\n  dynamcs: first_order", r"scenario\.dynamcs: unknown key"),
    ("step: 0.05}", "step: 0.05, stabilisation_tol: 0.5}", r"solver\.stabilisation_tol: unknown"),
    ("horizon: 10.0", "horizn: 3.0", r"solver\.horizn: unknown key 'horizn' \(allowed: horizon,"),
    ("step: 0.05}", "step: 0.05, auto_extend: false}", r"solver\.auto_extend: unknown key"),
    ("dim: 2}", "dim: 2, validate_radius: 2.0}", r"allowed: kind, dim\)"),
    (
        "operator: {kind: scaled_identity, c: 1.0}",
        "operator: {kind: scaled_identity, c: 1.0, cc: 2.0}",
        r"operator\.cc: unknown key 'cc' \(allowed: kind, c\)",
    ),
    (
        "operator: {kind: scaled_identity, c: 1.0}",
        "operator: {kind: strongly_accretive, c: 1.0, base: {kind: zero, c: 3.0}}",
        r"operator\.base\.c: unknown key 'c' \(allowed: kind\)",
    ),
    ("strongly_accretive, c: 1.0}", "strongly_accretive, c: 1.0, k: 1}", r"modulus\.k: unknown"),
    ("  sweeps:", "  rate_data: {b: 1.0, bb: 2.0}\n  sweeps:", r"scenario\.rate_data: unknown"),
    ("  sweeps:", "  orbits: [{kind: exact, lam: 1.0}]\n  sweeps:", r"orbits\[0\]\.lam: unknown"),
    ("k_range: [0, 1]}", "k_range: [0, 1], theorm: 4.2}", r"sweeps\[0\]\.theorm: unknown"),
    # the program computes the rate data: an override could only loosen the
    # bounds, and an orbit_bound below the orbit's deviation (0, or -3) broke
    # the theorems' hypothesis while the reports still passed
    *(
        (
            "  sweeps:",
            f"  rate_data: {{{entry}}}\n  sweeps:",
            r":9: scenario\.rate_data: unknown key 'rate_data' \(allowed: id, space,",
        )
        for entry in ("orbit_bound: -3", "orbit_bound: 0", "b: -1.0", "d_budget: -5.0")
    ),
    # the discrete second-order system needs 4 steps: 3 ended in a
    # ValueError traceback from the Newton solve
    (
        "solver: {horizon: 10.0, step: 0.05}",
        "solver: {horizon: 0.03, step: 0.01, margin: 0.0}",
        r":7: scenario\.solver\.step: a second-order grid needs horizon / step >= 4$",
    ),
    # a strong-accretivity constant so small that 1/c is infinite ended in an
    # OverflowError traceback from ceil_nat in the 4.1 sweep
    (
        "strongly_accretive, c: 1.0}",
        "strongly_accretive, c: 1.0e-320}",
        r":8: scenario\.modulus\.c: cannot ceil non-finite value inf to a natural",
    ),
    # an integer beyond Python's digit limit ended in a ValueError traceback
    # from PyYAML's int constructor
    (
        "kind: strongly_accretive, c: 1.0",
        f"kind: constant, value: 1{'0' * 5000}",
        r":8: scenario\.modulus\.value: integer of more than 4300 digits",
    ),
    # a scalar that PyYAML resolves to an impossible date ended likewise
    ("  id: mini", "  id: 2020-02-30", r"not valid YAML: day is out of range for month"),
    # YAML 1.1 reads 1e6 as a string: the error says so, and how to spell it
    (
        "horizon: 10.0",
        "horizon: 1e6",
        r"solver\.horizon: field 'horizon' must be a finite number; "
        r"YAML 1\.1 read '1e6' as a string, write 1\.0e\+6$",
    ),
    (
        "initial_point: [1.0, 0.0]",
        "initial_point: [1e308, 1e308]",
        r"initial_point: .*; YAML 1\.1 read '1e308' as a string, write 1\.0e\+308$",
    ),
    (
        "kind: scaled_identity, c: 1.0",
        "kind: linear, matrix: [[1.0, 0.0], [0.0, 1e-3]]",
        r":5: scenario\.operator\.matrix: .*; YAML 1\.1 read '1e-3' as a string, write 1\.0e-3$",
    ),
]


@pytest.mark.parametrize("text", ["1e6", "1e-6", "1.0e6", "2E-3", "-.5", "+5.e3", "1_0e1_0"])
def test_number_read_as_a_string_names_a_spelling_that_loads(tmp_path, text):
    point = "initial_point: [1.0, 0.0]"
    path = write_cfg(tmp_path, MINIMAL.replace(point, f"initial_point: [{text}, 0.0]"))
    with pytest.raises(ConfigError, match=f"read {re.escape(repr(text))} as a string") as err:
        load_config(path)
    spelling = str(err.value).rsplit(" ", 1)[1]
    path = write_cfg(tmp_path, MINIMAL.replace(point, f"initial_point: [{spelling}, 0.0]"))
    assert load_config(path).x[0] == float(text)


def test_bad_entries_rejected(tmp_path):
    for old, new, fragment in BAD_CASES:
        assert MINIMAL.count(old) == 1
        path = write_cfg(tmp_path, MINIMAL.replace(old, new))
        with pytest.raises(ConfigError, match=fragment):
            load_config(path)


@pytest.mark.parametrize("name", BUNDLED)
def test_report_cap_counts_the_reports_a_run_makes(monkeypatch, name):
    # the golden rows are the reports each bundled run makes (pinned by
    # test_bundled_report_rows_match_golden): a cap of that many loads the
    # config, one less refuses it
    from cauchylab import config

    made = len(GOLDEN_REPORTS[name.removesuffix(".cfg")])
    monkeypatch.setattr(config, "MAX_REPORTS", made)
    load_config(CFG_DIR / name)
    monkeypatch.setattr(config, "MAX_REPORTS", made - 1)
    with pytest.raises(ConfigError, match=rf"ask for {made} reports, more than {made - 1}$"):
        load_config(CFG_DIR / name)


@pytest.mark.parametrize(
    "kind, name, value",
    [
        ("additive_decay", "lam", 0.0),
        ("additive_decay", "lam", -1.0),
        ("time_warp", "delta", 0.0),
        ("time_warp", "delta", SolverConfig.margin),
    ],
)
def test_orbit_parameter_errors_match_the_loader(tmp_path, kind, name, value):
    # the loader and make_almost_orbit check an orbit against one
    # verification.ORBITS entry, with one message
    spec = load_config(write_cfg(tmp_path, MINIMAL))
    sg = cauchylab.SqrtSemigroup(spec.op, spec.x, spec.solver)
    extra = ", v: [0.0, 1.0]" if kind == "additive_decay" else ""
    entry = f"  orbits: [{{kind: {kind}, {name}: {value!r}{extra}}}]\n  sweeps:"
    with pytest.raises(ConfigError) as loaded:
        load_config(write_cfg(tmp_path, MINIMAL.replace("  sweeps:", entry)))
    args = {"v": np.array([0.0, 1.0]), "lam": 1.0, "delta": 0.5, name: value}
    with pytest.raises(ValueError) as built:
        cauchylab.make_almost_orbit(sg, kind, **args, certify=False)
    assert str(loaded.value) == f"{loaded.value.location}: {built.value}"
    assert loaded.value.location.endswith(f"scenario.orbits[0].{name}")


def _state(value, seen=()):
    """A comparable picture of a loaded spec: arrays by their bytes, objects
    by type and attributes, closures by code and captured values."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return (type(value).__name__, tuple(_state(v, seen) for v in value))
    if isinstance(value, dict):
        return ("dict", tuple((k, _state(v, seen)) for k, v in value.items()))
    if id(value) in seen:  # a recursive closure
        return ("cycle", type(value).__name__)
    seen = (*seen, id(value))
    if isinstance(value, types.FunctionType):
        cells = tuple(_state(c.cell_contents, seen) for c in value.__closure__ or ())
        return ("function", value.__code__, cells)
    if hasattr(value, "__dict__") and not isinstance(value, (type, types.ModuleType)):
        return (type(value).__qualname__, _state(vars(value), seen))
    return value


@pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
def test_c_and_python_yaml_parsers_load_alike(tmp_path, monkeypatch):
    # the loader parses once, with libyaml where PyYAML has it: the pure-Python
    # parser must give the same spec, and the same anchored error
    from cauchylab import config

    def load(loader, path):
        monkeypatch.setattr(config, "_LOADER", loader)
        try:
            return _state(load_config(path))
        except ConfigError as exc:
            return str(exc)

    for name in BUNDLED:
        spec = load(yaml.CSafeLoader, CFG_DIR / name)
        assert not isinstance(spec, str)
        assert spec == load(yaml.SafeLoader, CFG_DIR / name)
    for old, new, fragment in BAD_CASES:
        path = write_cfg(tmp_path, MINIMAL.replace(old, new))
        message = load(yaml.CSafeLoader, path)
        assert isinstance(message, str) and re.search(fragment, message)
        assert message == load(yaml.SafeLoader, path)


def _field_paths(node, path=()):
    """The key path of every section and field of a parsed config."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, path + (key,))


_SCALARS = st.one_of(
    st.integers(),
    st.floats(),
    st.text(max_size=8),
    st.booleans(),
    st.none(),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=4), inner, max_size=3),
    ),
    max_leaves=6,
)


@pytest.mark.parametrize("field", list(_field_paths(yaml.safe_load(MINIMAL))), ids=str)
@settings(max_examples=40, deadline=None)
@given(value=_VALUES)
def test_loader_fuzz_loads_or_raises_config_error(field, value):
    # one field of MINIMAL replaced by an arbitrary YAML value: the loader
    # returns a spec or raises ConfigError, never anything else
    data = yaml.safe_load(MINIMAL)
    node = data
    for key in field[:-1]:
        node = node[key]
    node[field[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.cfg"
        path.write_text(yaml.safe_dump(data))
        try:
            load_config(path)
        except ConfigError:
            pass


def test_first_order_forbids_orbits(tmp_path):
    text = MINIMAL.replace(
        "  solver: {horizon: 10.0, step: 0.05}",
        "  solver: {horizon: 10.0, step: 0.05}\n"
        "  dynamics: first_order\n"
        "  orbits:\n    - {kind: exact}",
    )
    with pytest.raises(ConfigError, match="second-order"):
        load_config(write_cfg(tmp_path, text))


def test_bundled_identity_run(tmp_path):
    result = run_config(str(CFG_DIR / "identity_hilbert.cfg"), out_dir=tmp_path / "out")
    assert result.exit_code == 0
    interior = [r for r in result.reports if r.theorem == "4.1"]
    assert sorted(r.k for r in interior) == [0, 1, 2, 3, 4, 5]
    assert all(r.passed for r in interior)
    assert interior[0].bound == 80


GOLDEN_REPORTS = json.loads((Path(__file__).parent / "data" / "golden_reports.json").read_text())


def test_exact_orbit_restart_reuses_base_solve(tmp_path, monkeypatch):
    # the exact orbit restarts at s = 0 from the base's own initial point:
    # that restart is the base semigroup, one _newton call fewer, and the
    # certificates are the ones cold restarts give
    from cauchylab import second_order

    newton = second_order._newton

    def certify(out):
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return newton(*args, **kwargs)

        monkeypatch.setattr(second_order, "_newton", counted)
        run_config(str(CFG_DIR / "identity_hilbert.cfg"), out_dir=out)
        payload = json.loads((out / "reports.json").read_text())
        return len(calls), json.dumps(payload["diagnostics"]["orbits"])

    reused = certify(tmp_path / "reused")
    monkeypatch.setattr(
        second_order.SqrtSemigroup,
        "restart_from",
        lambda self, y: second_order.SqrtSemigroup(self.op, y, self.solver),
    )
    cold = certify(tmp_path / "cold")
    assert reused[0] == cold[0] - 1
    assert reused[1] == cold[1]


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_report_rows_match_golden(tmp_path, no_regularized_solve, name):
    # every reports row of each bundled config at its shipped seed, exactly;
    # diagnostics are left out, since solver changes may move their last digits.
    # No run takes a regularized solve: a nonlinear one is one r = 0 solve
    run_config(str(CFG_DIR / name), out_dir=tmp_path / "out")
    payload = json.loads((tmp_path / "out" / "reports.json").read_text())
    assert payload["reports"] == GOLDEN_REPORTS[name.removesuffix(".cfg")]


def test_run_config_minimal(tmp_path):
    result = run_config(write_cfg(tmp_path, MINIMAL), out_dir=tmp_path / "out")
    assert result.exit_code == 0
    out = tmp_path / "out"
    # reports.json is the only report file; the plot script reads it and
    # trajectories.csv, so a run writes nothing else
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert files == ["plotdata/plot_all.py", "reports.json", "trajectories.csv"]
    assert not (out / "reports.csv").exists()
    payload = json.loads((tmp_path / "out" / "reports.json").read_text())
    assert payload["config"]["seed"] == 7
    assert payload["diagnostics"]["accretivity"]["pass"] is True
    assert all(r["pass"] for r in payload["reports"])


def _reference_reports_json(spec, reports, diagnostics):
    """reports.json as json.dumps writes the whole payload."""
    payload = {
        "config": {
            "scenario": spec.scenario_id,
            "seed": spec.seed,
            "dynamics": spec.dynamics,
            "horizon": spec.solver.grid.horizon,
            "step": spec.solver.grid.step,
        },
        "diagnostics": runner._jsonable(diagnostics),
        "reports": [runner._jsonable(_report_dict(r)) for r in reports],
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _report_dict(r):
    return {
        "scenario": r.scenario,
        "theorem": r.theorem,
        "k": r.k,
        "f_desc": r.f_desc,
        "bound": r.bound,
        "observed": r.observed if math.isfinite(r.observed) else None,
        "margin": r.margin if math.isfinite(r.margin) else None,
        "pass": r.passed,
        "extrapolated": r.extrapolated,
    }


def _report(**fields):
    row = {
        "scenario": "mini",
        "theorem": "4.1",
        "k": 2,
        "f_desc": "",
        "bound": 12,
        "observed": 0.25,
        "margin": 11.75,
        "passed": True,
        "extrapolated": False,
    }
    return RateReport(**{**row, **fields})


REPORT_ROWS = {
    "none": [],
    "plain": [_report(), _report(k=3, passed=False, extrapolated=True)],
    "bound_past_2_64": [_report(bound=2**64), _report(bound=3 * 2**70 + 1)],
    "not_finite": [
        _report(observed=math.inf, margin=-math.inf),
        _report(observed=math.nan, margin=math.nan),
    ],
    "float_edges": [_report(observed=v, margin=-v) for v in (-0.0, 5e-324, 1e16, 0.1, 1e-05)],
    "numpy_scalars": [
        _report(
            observed=np.float64(0.1),
            margin=np.float64(6.9),
            bound=np.int64(7),
            k=np.int64(1),
            passed=np.bool_(True),
            extrapolated=np.bool_(False),
        )
    ],
    "escaped_text": [
        _report(scenario='sub"norm \u00e9', f_desc="back\\slash \u2192 \t"),
        _report(scenario="mini/x", theorem="5.1", f_desc="n + 1"),
    ],
}


@pytest.mark.parametrize("rows", REPORT_ROWS.values(), ids=REPORT_ROWS.keys())
def test_reports_json_rows_are_the_json_dumps_bytes(tmp_path, rows):
    # the rows come from one %-template, the rest from json.dumps: together
    # the bytes of json.dumps over the whole payload
    spec = load_config(write_cfg(tmp_path, MINIMAL))
    diagnostics = {"scenario": "mini", "fejer": {"pass": np.bool_(True), "x": np.float64(0.5)}}
    text = runner.reports_json_text(spec, rows, diagnostics)
    assert text == _reference_reports_json(spec, rows, diagnostics)


def test_reports_json_of_a_run_is_the_json_dumps_bytes(tmp_path):
    result = run_config(write_cfg(tmp_path, MINIMAL), out_dir=tmp_path / "out")
    spec = load_config(write_cfg(tmp_path, MINIMAL))
    want = _reference_reports_json(spec, result.reports, result.diagnostics)
    assert (tmp_path / "out" / "reports.json").read_text() == want


def test_a_run_computes_the_trajectory_residuals_once(tmp_path, monkeypatch):
    # the Fejer check, the 4.1 residual and the CSV share one profile of the
    # solved trajectory: its nodes are projected on the zero set once
    from cauchylab.operators import LinearMatrix

    rows = []
    project_zeros_many = LinearMatrix.project_zeros_many

    def counted(self, values):
        rows.append(len(values))
        return project_zeros_many(self, values)

    monkeypatch.setattr(LinearMatrix, "project_zeros_many", counted)
    result = run_config(write_cfg(tmp_path, MINIMAL), out_dir=tmp_path / "out")
    assert result.exit_code == 0 and result.reports
    assert rows.count(201) == 1  # the 10.0 / 0.05 grid's nodes


# each check's diagnostics entry is its report whole, but for the
# accretivity witness: a new report field reaches reports.json only when
# it is added here too
CHECK_ENTRIES = {
    "accretivity": ("verify_accretive", {"min_pairing", "samples", "pass"}),
    "apriori": (
        "check_apriori",
        {"sup_norm", "int_du_sq", "int_ddu_sq", "rhs_sup", "rhs_du", "rhs_ddu", "pass"},
    ),
    "fejer": (
        "fejer_report",
        {"max_step_increase", "monotone", "max_stability_excess", "stable", "pass"},
    ),
    "modulus_check": ("modulus_check", {"samples_checked", "counterexamples", "pass"}),
}


# the diagnostics blocks of each bundled config besides the three checks
# that every run takes: a second-order run adds its solve's far-end flag
# and the a-priori check, and a config with orbits their certificates
DIAGNOSTICS_EXTRA = {
    "identity_hilbert.cfg": {"solver", "apriori", "orbits"},
    "rotation_counterexample.cfg": set(),
    "linear_diag14.cfg": {"solver", "apriori", "orbits"},
    "subdifferential_norm.cfg": {"solver", "apriori"},
    "strongly_accretive.cfg": {"solver", "apriori"},
    "zero_operator.cfg": {"solver", "apriori"},
    "rotation_second_order.cfg": {"solver", "apriori"},
    "lp_identity.cfg": {"solver", "apriori"},
}


@pytest.mark.parametrize("name", BUNDLED)
def test_check_entries_are_their_reports(name, monkeypatch):
    reports = {}
    for key, (attr, _) in CHECK_ENTRIES.items():

        def recorded(*args, key=key, check=getattr(runner, attr), **kwargs):
            reports[key] = check(*args, **kwargs)
            return reports[key]

        monkeypatch.setattr(runner, attr, recorded)
    spec = load_config(str(CFG_DIR / name))
    diagnostics = runner.materialize(spec)[1]
    second_order = {"apriori"} if spec.dynamics == "second_order" else set()
    assert set(reports) == {"accretivity", "fejer", "modulus_check"} | second_order
    for key, report in reports.items():
        want = {
            "pass" if f.name == "passed" else f.name: getattr(report, f.name)
            for f in dataclasses.fields(report)
            if f.name != "witness"
        }
        assert set(want) == CHECK_ENTRIES[key][1]
        assert diagnostics[key].keys() == want.keys()
        assert all(diagnostics[key][field] is value for field, value in want.items())
    # the whole record, before run_config adds bounds_monotone_in_k
    every_run = {"accretivity", "fejer", "modulus_check"}
    assert diagnostics.keys() == every_run | DIAGNOSTICS_EXTRA[name]
    if "solver" in diagnostics:
        assert diagnostics["solver"].keys() == {"far_end_ok"}


@pytest.mark.parametrize("output_dir", [None, "results/mine"])
def test_output_dir_names_the_output_directory(tmp_path, monkeypatch, capsys, output_dir):
    # without --out a run writes to output_dir itself, as --out names it,
    # or to out/<scenario id> when the config sets none; either is relative
    # to the working directory
    text = MINIMAL if output_dir is None else f"output_dir: {output_dir}\n" + MINIMAL
    cfg = write_cfg(tmp_path, text)
    monkeypatch.chdir(tmp_path)
    assert cli_main(["run", str(cfg)]) == 0
    want = Path(output_dir or "out/mini")
    assert capsys.readouterr().out.splitlines()[0].endswith(f"-> {want}")
    written = sorted(p.relative_to(tmp_path) for p in tmp_path.rglob("reports.json"))
    assert written == [want / "reports.json"]


def test_run_config_error_exit_1(tmp_path):
    path = write_cfg(tmp_path, MINIMAL.replace("seed: 7\n", ""))
    result = run_config(path, out_dir=tmp_path / "out")
    assert result.exit_code == 1
    assert "seed" in result.error


def test_determinism_same_seed(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    run_config(cfg, out_dir=tmp_path / "a")
    run_config(cfg, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "reports.json").read_bytes() == (
        tmp_path / "b" / "reports.json"
    ).read_bytes()


def test_jobs_do_not_change_output(tmp_path):
    cfg = str(write_cfg(tmp_path, MINIMAL))
    assert cli_main(["run", cfg, "--out", str(tmp_path / "a"), "--jobs", "1"]) == 0
    assert cli_main(["run", cfg, "--out", str(tmp_path / "b"), "--jobs", "4"]) == 0
    assert (tmp_path / "a" / "reports.json").read_bytes() == (
        tmp_path / "b" / "reports.json"
    ).read_bytes()


def test_seed_override_lands_in_reports(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    result = run_config(cfg, out_dir=tmp_path / "out", seed=99)
    assert result.exit_code == 0
    payload = json.loads((tmp_path / "out" / "reports.json").read_text())
    assert payload["config"]["seed"] == 99


def test_cli_run_and_exit_codes(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    rotation = CFG_DIR / "rotation_counterexample.cfg"
    assert cli_main(["run", str(rotation), "--out", str(tmp_path / "rot")]) == 2
    missing = tmp_path / "nope.cfg"
    assert cli_main(["run", str(missing), "--out", str(tmp_path / "x")]) == 1
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "neg"), "--seed", "-1"]) == 1


def _huge_modulus(zeros):
    # a constant: an expression stops at the float range, and the loader
    # rejects a literal beyond it
    return MINIMAL.replace(
        "kind: strongly_accretive, c: 1.0", f"kind: constant, value: 1{'0' * zeros}"
    )


@pytest.mark.parametrize(
    "text, message",
    [
        # every odd diagonal block -2/h^2 I - B of the direct linear solve is
        # zero for B = -8 I at h = 0.5; the whole line, up to its newline
        (
            MINIMAL.replace(
                "kind: scaled_identity, c: 1.0", "kind: linear, matrix: [[-8, 0], [0, -8]]"
            ).replace("step: 0.05}", "step: 0.5}"),
            "error: linear solve hit a singular matrix\n",
        ),
        # a modulus value beyond the float range, met by the modulus check
        # (the 4.1 sweep meets it too: test_verification)
        (_huge_modulus(400), "modulus value 1.000e+400 at k=0, K="),
        # a modulus value of 1e200 passes the check and squares to a bound
        # beyond the float range in the sweep
        (_huge_modulus(200), "rate bound 5.000e+400 exceeds the float range"),
        # the deleted solver keys are unknown keys, anchored at their line
        *(
            (
                MINIMAL.replace("step: 0.05}", f"step: 0.05, {key}: {value}}}"),
                f".cfg:7: scenario.solver.{key}: unknown key '{key}'",
            )
            for key, value in (("schedule", "[[0.1, 0.1]]"), ("stabilization_tol", "1.0e-6"))
        ),
        # the first-order flow is in closed form: B = -100 I overflows the
        # float range, which ended in a ValueError traceback from Trajectory
        (
            MINIMAL.replace(
                "kind: scaled_identity, c: 1.0", "kind: linear, matrix: [[-100, 0], [0, -100]]"
            ).replace("step: 0.05}", "step: 0.05}\n  dynamics: first_order"),
            "error: the first-order flow of LinearMatrix overflows the float range",
        ),
        # the exponential formula and its cap on n are gone
        (
            MINIMAL.replace("step: 0.05}", "step: 0.05, first_order_n_max: 16384}"),
            "unknown key 'first_order_n_max' (allowed: horizon, step, margin, sample_points)",
        ),
        # the l^p constant is p - 1: a configured M, and a p outside (1, 2]
        (
            MINIMAL.replace("kind: hilbert, dim: 2", "kind: lp, dim: 2, p: 4.0, M: 0.02"),
            ".cfg:4: scenario.space.M: unknown key 'M' (allowed: kind, dim, p)",
        ),
        (
            MINIMAL.replace("kind: hilbert, dim: 2", "kind: lp, dim: 2, p: 4.0"),
            ".cfg:4: scenario.space: p = 4.0 lies outside (1, 2]",
        ),
        # ||v|| overflows, and the defect rate took log(inf), which ended in
        # an OverflowError traceback
        (
            (CFG_DIR / "identity_hilbert.cfg")
            .read_text()
            .replace("v: [0.0, 1.0]", "v: [1.0e+200, 0.0]"),
            ".cfg:26: scenario.orbits[1].v: additive_decay v has a norm beyond the float range",
        ),
        # the integral budget of the rate data overflows; the error named
        # neither the sweep nor the quantity
        (
            (CFG_DIR / "strongly_accretive.cfg")
            .read_text()
            .replace("initial_point: [1.0, 0.0]", "initial_point: [1.0e+100, 0.0]"),
            "error: theorem 4.1 sweep over strongly_accretive: integral budget (1 + b^2)(2/M^2)"
            " d(0,Ax)^(1/2) b^(3/2) at b = 1.000e+100 exceeds the float range",
        ),
        # b^(3/2) itself overflows, which Python's float power raises; the
        # first-order flow has no a-priori check to meet it first
        (
            (CFG_DIR / "strongly_accretive.cfg")
            .read_text()
            .replace("kind: hilbert\n", "kind: lp\n    p: 1.01\n")
            .replace("initial_point: [1.0, 0.0]", "initial_point: [1.0e+250, 0.0]")
            .replace("dynamics: second_order", "dynamics: first_order"),
            "d(0,Ax)^(1/2) b^(3/2) at b = 1.000e+250 exceeds the float range",
        ),
        # the same start in second-order dynamics: the a-priori check squared
        # the derivative's norms past the float range, warned twice and then
        # ended in an OverflowError traceback at d(0,Ax)^(3/2)
        (
            (CFG_DIR / "strongly_accretive.cfg")
            .read_text()
            .replace("kind: hilbert\n", "kind: lp\n    p: 1.01\n")
            .replace("initial_point: [1.0, 0.0]", "initial_point: [1.0e+250, 0.0]"),
            "error: a-priori check at ||x|| = 1.000e+250: integral of ||u'||^2 exceeds the float",
        ),
        # finite coordinates, ||x|| overflows: the solve warned of an overflow
        # in the far-end check and the a-priori check then failed at inf
        (
            (CFG_DIR / "strongly_accretive.cfg")
            .read_text()
            .replace("initial_point: [1.0, 0.0]", "initial_point: [1.0e+200, 1.0e+200]"),
            ".cfg:15: scenario.initial_point: initial_point has a norm beyond the float range",
        ),
    ],
    ids=[
        "singular_solve",
        "modulus_in_check",
        "bound_in_sweep",
        "schedule_key",
        "stabilization_tol_key",
        "first_order_overflow",
        "first_order_n_max_key",
        "space_M_key",
        "lp_p_above_two",
        "orbit_direction_overflow",
        "rate_data_overflow",
        "rate_data_power_overflow",
        "apriori_overflow",
        "initial_point_overflow",
    ],
)
def test_cli_error_is_one_line(tmp_path, capsys, text, message):
    # an error, no traceback
    cfg = write_cfg(tmp_path, text)
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    stderr = capsys.readouterr().err
    err = stderr.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and message in stderr


def test_cli_runs_without_scipy(tmp_path):
    # numpy is the only linear-algebra dependency: a run must not import scipy
    src = Path(cauchylab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from cauchylab.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    cfg = CFG_DIR / "linear_diag14.cfg"
    proc = subprocess.run(
        [sys.executable, "-c", code, "run", str(cfg), "--out", str(tmp_path / "out")],
        env=env,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "reports.json").exists()


def test_cli_summary_counts_extrapolated_apart(tmp_path, capsys):
    # the unit-scale bound is 80 at k = 0 (inside the horizon) and 1280
    # at k = 1 (beyond it): one verified pass, one extrapolated report
    cfg = write_cfg(tmp_path, MINIMAL.replace("horizon: 10.0", "horizon: 100.0"))
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    payload = json.loads((tmp_path / "out" / "reports.json").read_text())
    assert [r["extrapolated"] for r in payload["reports"]] == [False, True]
    assert "2 reports (1 pass, 0 fail, 1 extrapolated)" in capsys.readouterr().out
    rotation = CFG_DIR / "rotation_counterexample.cfg"
    assert cli_main(["run", str(rotation), "--out", str(tmp_path / "rot")]) == 2
    assert "(0 pass, 4 fail, 0 extrapolated)" in capsys.readouterr().out


def test_cli_list_catalog(capsys):
    assert cli_main(["list-catalog"]) == 0
    text = capsys.readouterr().out
    assert "scaled_identity" in text
    assert "counterfunction grammar" in text
    assert cli_main(["list-catalog", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert {"operators", "moduli", "orbits", "theorems", "counterfunction_grammar"} <= set(
        payload
    )
    # the space menu, with the l^p exponent's range and constant
    assert "space kinds:" in text and "M = p - 1" in text
    spaces = {entry["kind"]: entry["params"] for entry in payload["spaces"]}
    assert set(spaces) == {"hilbert", "lp"}
    assert set(spaces["lp"]) == {"dim", "p"}
    assert "(1, 2]" in spaces["lp"]["p"] and "M = p - 1" in spaces["lp"]["p"]


def test_cli_unknown_flag_exits_1():
    with pytest.raises(SystemExit) as err:
        cli_main(["list-catalog", "--bogus"])
    assert err.value.code == 1
    with pytest.raises(SystemExit) as err:
        cli_main([])
    assert err.value.code == 1


def test_named_counterfunctions_in_sweeps(tmp_path):
    text = MINIMAL.replace(
        '  sweeps:\n    - {theorem: "4.1", k_range: [0, 1]}\n',
        "  counterfunctions:\n"
        "    lin: \"2*n+3\"\n"
        "    twice: \"lin(lin(n))\"\n"
        "  orbits:\n"
        "    - {kind: exact}\n"
        "  sweeps:\n"
        '    - {theorem: "5.1", k_range: [0, 1], counterfunctions: ["twice(n)", "lin(0)"]}\n',
    )
    result = run_config(write_cfg(tmp_path, text), out_dir=tmp_path / "out")
    assert result.exit_code == 0
    descs = {r.f_desc for r in result.reports}
    assert descs == {"twice(n)", "lin(0)"}


def test_monotonicity_diagnostics_reported(tmp_path):
    result = run_config(write_cfg(tmp_path, MINIMAL), out_dir=tmp_path / "out")
    mono = result.diagnostics["bounds_monotone_in_k"]
    assert mono == {"4.1|mini": True}


def test_trajectory_csv_matches_library(tmp_path):
    result = run_config(write_cfg(tmp_path, MINIMAL), out_dir=tmp_path / "out")
    data = np.loadtxt(tmp_path / "out" / "trajectories.csv", delimiter=",", skiprows=1)
    assert data.shape[1] == 5  # t, two coordinates, norm, zero-set distance
    assert data[0, 1] == pytest.approx(1.0)
    assert np.all(np.diff(data[:, 0]) > 0)


@pytest.mark.parametrize("under", [False, True], ids=["file", "path_under_file"])
def test_cli_out_on_a_file_is_one_error_line(tmp_path, capsys, monkeypatch, under):
    # refused before the solve, as one error line anchored at --out
    blocker = tmp_path / "taken"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if under else blocker
    monkeypatch.setattr(runner, "materialize", mock.Mock(side_effect=AssertionError("solved")))
    assert cli_main(["run", str(write_cfg(tmp_path, MINIMAL)), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: --out: cannot create output directory")
    assert blocker.read_text() == "not a directory\n"


def test_failed_write_leaves_no_tmp_file(tmp_path, capsys, monkeypatch):
    def refuse(src, dst):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "replace", refuse)
    out = tmp_path / "out"
    assert cli_main(["run", str(write_cfg(tmp_path, MINIMAL)), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: cannot write outputs") and "No space left" in err[0]
    assert not list(out.rglob("*.tmp"))


_write_opens: list | None = None  # recording only while a test sets it
_moves: list | None = None  # likewise: removes and renames, in order


def _record_write_opens(event, args):
    if event in ("os.remove", "os.rename") and _moves is not None:
        _moves.append((event, *(os.fsdecode(a) for a in args if isinstance(a, (str, Path)))))
    if event != "open" or _write_opens is None or not isinstance(args[0], (str, bytes, Path)):
        return
    path, mode, flags = args
    writes = any(c in mode for c in "wxa+") if mode else flags & (os.O_WRONLY | os.O_RDWR)
    if writes:
        _write_opens.append((os.fsdecode(path), os.path.exists(path)))


_audit_installed = False


def _install_audit_hook():
    global _audit_installed
    if not _audit_installed:  # audit hooks cannot be removed: install one, once
        sys.addaudithook(_record_write_opens)
        _audit_installed = True


def test_run_opens_every_output_file_once_fresh(tmp_path):
    # reopening or truncating an existing file makes ext4 allocate its blocks
    # at close (auto_da_alloc), which makes deleting it later slow
    global _write_opens
    _install_audit_hook()
    cfg = write_cfg(tmp_path, MINIMAL)
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "trajectories.csv.tmp").write_text("left by a killed run\n")
    _write_opens = []
    try:
        assert run_config(cfg, out_dir=tmp_path / "out").exit_code == 0
        opens = _write_opens
    finally:
        _write_opens = None
    assert [p for p, existed in opens if existed] == []
    names = sorted(Path(p).name for p, _ in opens)
    assert "trajectories.csv.tmp" in names and "reports.json.tmp" in names
    assert len(names) == len(set(names))


def test_rerun_into_same_out_rewrites_identical_files(tmp_path):
    # a rerun unlinks each old output just before renaming the new one in:
    # ext4 (auto_da_alloc) forces a file renamed over an existing one out
    # to disk
    global _moves
    _install_audit_hook()
    cfg = write_cfg(tmp_path, MINIMAL)
    out = tmp_path / "out"

    def snapshot():
        return {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}

    assert run_config(cfg, out_dir=out).exit_code == 0
    first = snapshot()
    _moves = []
    try:
        assert run_config(cfg, out_dir=out).exit_code == 0
        moves = _moves
    finally:
        _moves = None
    assert snapshot() == first
    assert not list(out.rglob("*.tmp"))
    renames = [i for i, move in enumerate(moves) if move[0] == "os.rename"]
    assert sorted(moves[i][2] for i in renames) == sorted(str(p) for p in first)
    for i in renames:
        assert moves[i - 1] == ("os.remove", moves[i][2])


def _run_plot_script(out, monkeypatch, capsys):
    """Run ``out/plotdata/plot_all.py`` under a matplotlib stub (matplotlib
    is not a dependency); return the (fig, ax) mocks it drew on."""
    pyplot = types.ModuleType("matplotlib.pyplot")
    figures = []

    def subplots():
        figures.append((mock.Mock(), mock.Mock()))
        return figures[-1]

    pyplot.subplots = subplots
    mpl = types.ModuleType("matplotlib")
    mpl.use = mock.Mock()
    mpl.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", mpl)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)
    runpy.run_path(str(out / "plotdata" / "plot_all.py"), run_name="__main__")
    assert "wrote figures to" in capsys.readouterr().out
    return figures


def test_plot_script_reads_trajectory_csv_and_bounds(tmp_path, monkeypatch, capsys):
    text = MINIMAL.replace(
        '    - {theorem: "4.1", k_range: [0, 1]}\n',
        '    - {theorem: "4.1", k_range: [0, 1]}\n    - {theorem: "4.2", k_range: [0, 2]}\n',
    )
    out = tmp_path / "out"
    assert run_config(write_cfg(tmp_path, text), out_dir=out).exit_code == 0
    # the run wrote only reports.json, trajectories.csv and the script
    # (test_run_config_minimal), so those are all the script can read
    figures = _run_plot_script(out, monkeypatch, capsys)
    plot_dir = out / "plotdata"

    data = np.loadtxt(out / "trajectories.csv", delimiter=",", skiprows=1)
    (fig, ax), *bounds_figs = figures
    (t1, norm_u), _ = ax.plot.call_args_list[0]
    (t2, dist), _ = ax.plot.call_args_list[1]
    assert np.array_equal(t1, data[:, 0]) and np.array_equal(t2, data[:, 0])
    assert np.array_equal(norm_u, data[:, 3]) and np.array_equal(dist, data[:, 4])
    fig.savefig.assert_called_once_with(plot_dir / "trajectory_profile.png", dpi=150)

    reports = json.loads((out / "reports.json").read_text())["reports"]
    assert len(bounds_figs) == 2
    for theorem, (fig, ax) in zip(["4.1", "4.2"], bounds_figs):
        rows = sorted((r["k"], r["bound"]) for r in reports if r["theorem"] == theorem)
        (ks, bounds, _), _ = ax.semilogy.call_args_list[0]
        assert ks == [k for k, _ in rows] and bounds == [b for _, b in rows]
        name = "bounds_" + theorem.replace(".", "_") + ".png"
        fig.savefig.assert_called_once_with(plot_dir / name, dpi=150)


def test_plot_script_draws_one_bound_line_per_series(tmp_path, monkeypatch, capsys):
    # every (orbit, counterfunction) series of a theorem gets its own bound
    # and observed lines over the sweep's ks, not one line through all rows
    text = MINIMAL.replace(
        '  sweeps:\n    - {theorem: "4.1", k_range: [0, 1]}\n',
        "  orbits:\n"
        "    - {kind: exact}\n"
        "    - {kind: additive_decay, v: [0.0, 1.0], lam: 1.0}\n"
        "  sweeps:\n"
        '    - {theorem: "5.1", k_range: [0, 2], counterfunctions: ["0", "n"]}\n',
    )
    out = tmp_path / "out"
    assert run_config(write_cfg(tmp_path, text), out_dir=out).exit_code == 0
    figures = _run_plot_script(out, monkeypatch, capsys)
    assert len(figures) == 2
    fig, ax = figures[1]
    calls = ax.semilogy.call_args_list
    bound_lines = [c for c in calls if c.args[2] == "o-"]
    observed_lines = [c for c in calls if c.args[2] == "s--"]
    assert len(bound_lines) == 4 and len(observed_lines) == 4
    assert all(c.args[0] == [0, 1, 2] for c in bound_lines)
    labels = [c.kwargs["label"] for c in bound_lines]
    assert labels == [
        "mini/additive_decay, f = 0: computed bound",
        "mini/additive_decay, f = n: computed bound",
        "mini/exact, f = 0: computed bound",
        "mini/exact, f = n: computed bound",
    ]
    fig.savefig.assert_called_once_with(out / "plotdata" / "bounds_5_1.png", dpi=150)
