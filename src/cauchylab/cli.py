"""Command-line front end: ``cauchylab run`` and ``cauchylab list-catalog``."""

from __future__ import annotations

import argparse
import json
import sys

from .config import catalog
from .runner import run_config


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

    cat_p = sub.add_parser("list-catalog", help="list spaces, operators, moduli and grammar")
    cat_p.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    return parser


def _print_catalog(as_json: bool) -> None:
    menus = catalog()
    if as_json:
        print(json.dumps(menus, indent=2, sort_keys=True))
        return
    for key, title in (
        ("spaces", "space kinds"),
        ("operators", "operator catalog"),
        ("moduli", "modulus constructions"),
        ("orbits", "almost-orbit kinds"),
    ):
        print(f"{title}:")
        for entry in menus[key]:
            params = ", ".join(f"{k}: {v}" for k, v in entry.get("params", {}).items())
            print(f"  {entry['kind']:<22} {params}")
            if "zero_set" in entry:
                print(f"  {'':<22} zero set: {entry['zero_set']}")
    print("theorem sweeps: " + ", ".join(menus["theorems"]))
    print("counterfunction grammar:")
    print("  " + menus["counterfunction_grammar"])


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list-catalog":
        _print_catalog(args.json)
        return 0
    result = run_config(args.config, out_dir=args.out, seed=args.seed)
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
