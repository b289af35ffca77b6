"""CLI for the repo checker: ``python -m tools.check [paths...]``.

Exit codes: 0 clean, 1 violations found, 2 parse/usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .engine import run_paths
from .rules import ALL_RULES


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="tools.check",
        description=(
            "AST-based checker for this repo's concurrency and invariant "
            "contracts (guarded-by locks, mutation deltas, action keys, "
            "overlay-only config, SQL hygiene, identity keying, route auth)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to check (default: src)",
    )
    parser.add_argument(
        "--json",
        dest="json_out",
        metavar="FILE",
        help="write a machine-readable report to FILE",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="list rule ids and exit"
    )
    parser.add_argument(
        "-q", "--quiet", action="store_true", help="suppress the summary line"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.id:18} {rule.summary}")
        return 0

    select = None
    if args.select:
        select = {r.strip() for r in args.select.split(",") if r.strip()}
        known = {rule.id for rule in ALL_RULES}
        unknown = sorted(select - known)
        if unknown:
            print(
                f"tools.check: unknown rule(s) {unknown}; "
                f"known: {sorted(known)}",
                file=sys.stderr,
            )
            return 2

    report = run_paths(args.paths, select=select)
    for error in report.errors:
        print(f"tools.check: error: {error}", file=sys.stderr)
    for violation in report.violations:
        print(violation.render())
    if not args.quiet:
        print(
            f"tools.check: {len(report.violations)} violation(s), "
            f"{report.suppressed} suppressed, "
            f"{report.files_checked} file(s) checked"
        )
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
    if report.errors:
        return 2
    return 1 if report.violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
