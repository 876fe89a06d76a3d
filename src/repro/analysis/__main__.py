"""Command-line entry point: ``python -m repro.analysis src/``.

Exit status 0 means zero findings; 1 means findings were reported;
2 means usage error.  ``--json`` emits a machine-readable report for
CI annotation tooling; ``--sarif`` emits SARIF 2.1.0 for GitHub code
scanning.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.findings import sarif_report
from repro.analysis.rules import rule_catalogue
from repro.analysis.runner import analyze_paths

__all__ = ["main"]


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "reprolint: AST invariant checks for the synopsis engine "
            "(per-file rules RL001-RL012 plus project rules "
            "RL013-RL015; see docs/static_analysis.md)"
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (e.g. src/)",
    )
    output = parser.add_mutually_exclusive_group()
    output.add_argument(
        "--json",
        action="store_true",
        help="emit findings as a JSON array instead of text lines",
    )
    output.add_argument(
        "--sarif",
        action="store_true",
        help="emit findings as SARIF 2.1.0 (GitHub code scanning)",
    )
    parser.add_argument(
        "--root",
        type=Path,
        default=None,
        help=(
            "scoping root for module paths (default: the common "
            "parent of the scanned paths)"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )
    options = parser.parse_args(argv)

    if options.list_rules:
        for entry in rule_catalogue():
            print(f"{entry['code']}  {entry['title']}  [{entry['scope']}]")
            print(f"       {entry['rationale']}")
        return 0

    if not options.paths:
        parser.print_usage(sys.stderr)
        print(
            "error: at least one path is required (try: src/)",
            file=sys.stderr,
        )
        return 2

    missing = [path for path in options.paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"error: no such path: {path}", file=sys.stderr)
        return 2

    findings = analyze_paths(options.paths, root=options.root)
    if options.json:
        print(
            json.dumps(
                [finding.to_json() for finding in findings], indent=2
            )
        )
    elif options.sarif:
        print(json.dumps(sarif_report(findings, rule_catalogue()), indent=2))
    else:
        for finding in findings:
            print(finding.render())
        count = len(findings)
        noun = "finding" if count == 1 else "findings"
        print(f"reprolint: {count} {noun}", file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
