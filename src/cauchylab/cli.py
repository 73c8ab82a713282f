"""Command-line front end: ``cauchylab run`` and ``cauchylab list-catalog``."""

from __future__ import annotations

import argparse
import json
import sys

from .runner import run_config

CATALOG = {
    "operators": [
        {
            "kind": "scaled_identity",
            "params": {"c": "scale >= 0 (c = 0 is the zero operator)"},
            "zero_set": "{0} for c > 0, the whole space for c = 0",
        },
        {
            "kind": "zero",
            "params": {},
            "zero_set": "the whole space",
        },
        {
            "kind": "linear_psd",
            "params": {"matrix": "symmetric positive-semidefinite matrix literal"},
            "zero_set": "nullspace of the matrix",
        },
        {
            "kind": "linear",
            "params": {"matrix": "square matrix literal (accretivity not enforced)"},
            "zero_set": "nullspace of the matrix",
        },
        {
            "kind": "rotation",
            "params": {"matrix": "optional 2x2 skew matrix, default [[0,-1],[1,0]]"},
            "zero_set": "{0}; admits no modulus for the convergence condition",
        },
        {
            "kind": "norm_subdifferential",
            "params": {},
            "zero_set": "{0}; resolvent is the radial soft threshold",
        },
        {
            "kind": "strongly_accretive",
            "params": {"base": "operator spec with base(0) = 0", "c": "constant > 0"},
            "zero_set": "{0}",
        },
    ],
    "moduli": [
        {"kind": "strongly_accretive", "params": {"c": "constant > 0"}},
        {"kind": "constant", "params": {"value": "natural"}},
        {"kind": "expression", "params": {"text": "expression over k, K"}},
    ],
    "orbits": [
        {"kind": "exact"},
        {"kind": "additive_decay", "params": {"v": "vector", "lam": "decay rate > 0"}},
        {"kind": "time_warp", "params": {"delta": "offset in (0, margin)"}},
    ],
    "theorems": ["4.1", "4.2", "5.1", "5.3"],
    "counterfunction_grammar": (
        "expr := term ('+' term)* ; term := atom ('*' atom)* ; "
        "atom := natural | 'n' | 'max(' expr ',' expr ')' | name '(' expr ')' "
        "| '(' expr ')'  -- names refer to earlier entries in "
        "scenario.counterfunctions; all arithmetic is exact"
    ),
}


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, reserving 2 for failed verification sweeps
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        sys.exit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cauchylab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario config and write reports")
    run_p.add_argument("config", help="path to the scenario config file")
    run_p.add_argument("--out", help="output directory (default from config)")
    run_p.add_argument(
        "--jobs", type=int, default=1, help="accepted for compatibility; has no effect"
    )
    run_p.add_argument("--seed", type=int, help="override the config RNG seed")

    cat_p = sub.add_parser("list-catalog", help="list operators, moduli and grammar")
    cat_p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    return parser


def _print_catalog(as_json: bool) -> None:
    if as_json:
        print(json.dumps(CATALOG, indent=2, sort_keys=True))
        return
    print("operator catalog:")
    for entry in CATALOG["operators"]:
        params = ", ".join(f"{k}: {v}" for k, v in entry.get("params", {}).items())
        print(f"  {entry['kind']:<22} {params}")
        print(f"  {'':<22} zero set: {entry['zero_set']}")
    print("modulus constructions:")
    for entry in CATALOG["moduli"]:
        params = ", ".join(f"{k}: {v}" for k, v in entry.get("params", {}).items())
        print(f"  {entry['kind']:<22} {params}")
    print("almost-orbit kinds:")
    for entry in CATALOG["orbits"]:
        params = ", ".join(f"{k}: {v}" for k, v in entry.get("params", {}).items())
        print(f"  {entry['kind']:<22} {params}")
    print("theorem sweeps: " + ", ".join(CATALOG["theorems"]))
    print("counterfunction grammar:")
    print("  " + CATALOG["counterfunction_grammar"])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-catalog":
        _print_catalog(args.json)
        return 0
    result = run_config(args.config, out_dir=args.out, jobs=args.jobs, seed=args.seed)
    if result.error is not None:
        print(f"error: {result.error}", file=sys.stderr)
        return result.exit_code
    # extrapolated reports are diagnostics, never counted as passes
    verified = [r for r in result.reports if not r.extrapolated]
    n_pass = sum(r.passed for r in verified)
    n_extra = len(result.reports) - len(verified)
    print(
        f"{len(result.reports)} reports ({n_pass} pass, {len(verified) - n_pass} fail, "
        f"{n_extra} extrapolated) -> {result.output_dir}"
    )
    for r in result.reports:
        if not r.passed and not r.extrapolated:
            print(
                f"FAIL {r.theorem} {r.scenario} k={r.k}"
                + (f" f={r.f_desc}" if r.f_desc else "")
            )
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
