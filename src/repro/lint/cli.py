"""The ``repro lint`` subcommand: the CI gate.

Lints the tree, prints every finding, and exits 1 on any, framework
findings (LNT001/LNT002) included. A reasoned ``# repro-lint:
disable=`` comment is the one way to accept a finding. Two runs over
the same tree print byte-identical output.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.lint import all_checkers, lint_tree

#: Default lint roots (relative to the repo root, where CI runs).
DEFAULT_PATHS = ("src/repro",)


def add_lint_arguments(parser) -> None:
    """Attach the ``repro lint`` arguments to an argparse subparser."""
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories to lint "
                             "(default: src/repro)")


def run_lint(args) -> int:
    """Execute ``repro lint``; returns the process exit code."""
    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"repro lint: error: no such path: "
              f"{', '.join(str(p) for p in missing)}", file=sys.stderr)
        return 2
    findings = lint_tree(paths, all_checkers())
    for finding in findings:
        print(finding.format())
    print(f"repro lint: {len(findings)} finding(s)")
    return 1 if findings else 0
