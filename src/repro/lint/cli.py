"""The ``repro lint`` subcommand.

Modes:

* default — lint the tree, print findings, always exit 0
  (informational);
* ``--strict`` — the CI gate: exit 1 on any finding, framework findings
  (LNT001/LNT002) included. A reasoned ``# repro-lint: disable=``
  comment is the one way to accept a finding;
* ``--explain CHECK_ID`` — a checker's rationale and a bad/good pair,
  for review discussions and suppression reasons;
* ``--list-checks`` — print the checker catalog.

Output is human text or (``--json``) canonical JSON — two runs over the
same tree are byte-identical.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.lint import all_checkers, lint_tree
from repro.lint.framework import Checker
from repro.telemetry.export import canonical_json

#: Default lint roots (relative to the repo root, where CI runs).
DEFAULT_PATHS = ("src/repro",)

#: LNT001/LNT002 pseudo-checkers for --list-checks / --explain.
_LNT_DOCS = {
    "LNT001": ("suppression missing a reason",
               "Suppressions are reviewed debt; the reason is the "
               "review. A bare disable comment hides a finding with "
               "no trace of why that was acceptable.",
               "x = time.time()  # repro-lint: disable=DET001",
               "x = time.time()  # repro-lint: disable=DET001 host "
               "profiling only, not simulated time"),
    "LNT002": ("suppression matching no finding",
               "A suppression that outlives the finding it silenced "
               "will silently swallow the next, unrelated finding on "
               "that line.",
               "return 0  # repro-lint: disable=DET001 removed call",
               "return 0"),
}


def _catalog() -> list[Checker]:
    """Every checker plus the LNT pseudo-checkers, in id order."""
    checkers = all_checkers()
    for check_id, (title, rationale, bad, good) in _LNT_DOCS.items():
        checker = Checker()
        checker.id = check_id
        checker.title = title
        checker.severity = "note"
        checker.rationale = rationale
        checker.example_bad = bad
        checker.example_good = good
        checkers.append(checker)
    return sorted(checkers, key=lambda c: c.id)


def add_lint_arguments(parser) -> None:
    """Attach the ``repro lint`` flags to an argparse subparser."""
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--strict", action="store_true",
                        help="CI gate: fail on any finding, suppression "
                             "misuse included")
    parser.add_argument("--json", action="store_true",
                        help="emit the canonical JSON report")
    parser.add_argument("--list-checks", action="store_true",
                        help="list the available checks and exit")
    parser.add_argument("--explain", metavar="CHECK_ID",
                        help="print one checker's rationale and a "
                             "bad/good example, then exit")


def _explain(check_id: str) -> int:
    checker = next((c for c in _catalog() if c.id == check_id), None)
    if checker is None:
        print(f"repro lint: error: unknown check '{check_id}'; see "
              f"--list-checks", file=sys.stderr)
        return 2
    doc = (type(checker).__doc__ or "").strip() \
        if type(checker) is not Checker else ""
    lines = [f"{checker.id} — {checker.title} [{checker.severity}]"]
    if doc:
        lines += ["", doc]
    if checker.rationale:
        lines += ["", "Why:", f"  {checker.rationale}"]
    if checker.example_bad:
        lines += ["", "Bad:"] + [f"  {line}" for line
                                 in checker.example_bad.splitlines()]
    if checker.example_good:
        lines += ["", "Good:"] + [f"  {line}" for line
                                  in checker.example_good.splitlines()]
    lines += ["", f"Suppress with: # repro-lint: disable={checker.id} "
                  f"<reason> (the reason is mandatory)"]
    print("\n".join(lines))
    return 0


def run_lint(args) -> int:
    """Execute ``repro lint``; returns the process exit code."""
    if args.explain:
        return _explain(args.explain)
    if args.list_checks:
        for checker in _catalog():
            print(f"{checker.id}  {checker.title} [{checker.severity}]")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"repro lint: error: no such path: "
              f"{', '.join(str(p) for p in missing)}", file=sys.stderr)
        return 2
    findings = lint_tree(paths, all_checkers())

    if args.json:
        print(canonical_json({
            "findings": [f.to_dict() for f in findings],
            "summary": {"findings": len(findings), "strict": args.strict},
        }))
    else:
        for finding in findings:
            print(finding.format())
        print(f"repro lint: {len(findings)} finding(s)")
    return 1 if args.strict and findings else 0
