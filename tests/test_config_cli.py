import json
import os
import subprocess
import sys
import tempfile
import textwrap
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

import cauchylab
from cauchylab.cli import main as cli_main
from cauchylab.config import load_config
from cauchylab.errors import ConfigError
from cauchylab.runner import run_config

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
    assert spec.space.kind == "hilbert"
    assert spec.solver.grid.horizon == 10.0
    assert spec.dynamics == "second_order"
    assert spec.sweeps[0].theorem == "4.1"
    assert spec.sweeps[0].ks == (0, 1)


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


def test_bad_entries_rejected(tmp_path):
    bad_cases = [
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
        ("step: 0.05}", "step: 0.05, schedule: [[0.1, 0.0]]}", "schedule"),
        ("step: 0.05}", "step: 1.0e-320}", "overflows"),
        ("  sweeps:", "  validation: {monotonicity_samples: 0}\n  sweeps:", "monotonicity_samples"),
        ("  sweeps:", "  validation: {accretivity_samples: -5}\n  sweeps:", "accretivity_samples"),
        ("  sweeps:", "  validation: {modulus_samples: 1000001}\n  sweeps:", "modulus_samples"),
        ("horizon: 10.0, step: 0.05", "horizon: 1.0e+6, step: 0.01", "Newton system"),
        (
            "  sweeps:",
            "  orbits:\n"
            "    - {kind: additive_decay, v: [0, 1]}\n"
            "    - {kind: additive_decay, v: [1, 0]}\n"
            "  sweeps:",
            r"orbits\[1\]\.kind: orbit kind 'additive_decay' is defined twice",
        ),
    ]
    for old, new, fragment in bad_cases:
        assert MINIMAL.count(old) == 1
        path = write_cfg(tmp_path, MINIMAL.replace(old, new))
        with pytest.raises(ConfigError, match=fragment):
            load_config(path)


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


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_report_rows_match_golden(tmp_path, name):
    # every reports row of each bundled config at its shipped seed, exactly;
    # diagnostics are left out, since solver changes may move their last digits
    run_config(str(CFG_DIR / name), out_dir=tmp_path / "out")
    payload = json.loads((tmp_path / "out" / "reports.json").read_text())
    assert payload["reports"] == GOLDEN_REPORTS[name.removesuffix(".cfg")]


def test_run_config_minimal(tmp_path):
    result = run_config(write_cfg(tmp_path, MINIMAL), out_dir=tmp_path / "out")
    assert result.exit_code == 0
    assert (tmp_path / "out" / "reports.json").exists()
    assert (tmp_path / "out" / "reports.csv").exists()
    assert (tmp_path / "out" / "trajectories.csv").exists()
    assert (tmp_path / "out" / "plotdata" / "plot_all.py").exists()
    assert (tmp_path / "out" / "plotdata" / "trajectory_profile.dat").exists()
    payload = json.loads((tmp_path / "out" / "reports.json").read_text())
    assert payload["config"]["seed"] == 7
    assert payload["diagnostics"]["accretivity"]["pass"] is True
    assert all(r["pass"] for r in payload["reports"])


def test_run_config_error_exit_1(tmp_path):
    path = write_cfg(tmp_path, MINIMAL.replace("seed: 7\n", ""))
    result = run_config(path, out_dir=tmp_path / "out")
    assert result.exit_code == 1
    assert "seed" in result.error


def test_reports_csv_schema(tmp_path):
    result = run_config(write_cfg(tmp_path, MINIMAL), out_dir=tmp_path / "out")
    assert result.exit_code == 0
    lines = (tmp_path / "out" / "reports.csv").read_text().splitlines()
    assert lines[0] == "scenario,theorem,k,f_desc,bound,observed,margin,pass,extrapolated"
    assert len(lines) == 1 + len(result.reports)


def test_determinism_same_seed(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    run_config(cfg, out_dir=tmp_path / "a")
    run_config(cfg, out_dir=tmp_path / "b")
    assert (tmp_path / "a" / "reports.json").read_bytes() == (
        tmp_path / "b" / "reports.json"
    ).read_bytes()


def test_jobs_do_not_change_output(tmp_path):
    cfg = write_cfg(tmp_path, MINIMAL)
    run_config(cfg, out_dir=tmp_path / "a", jobs=1)
    run_config(cfg, out_dir=tmp_path / "b", jobs=4)
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


def test_cli_singular_solve_is_one_error_line(tmp_path, capsys):
    # every odd diagonal block -2/h^2 I - B of the direct linear solve is
    # zero for B = -8 I at h = 0.5: a solver error, no traceback
    text = MINIMAL.replace(
        "kind: scaled_identity, c: 1.0", "kind: linear, matrix: [[-8, 0], [0, -8]]"
    ).replace("step: 0.05}", "step: 0.5}")
    cfg = write_cfg(tmp_path, text)
    assert cli_main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and "linear solve hit a singular matrix (r=0, p=0)" in err[0]


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
