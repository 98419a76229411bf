"""The ``repro lint`` subcommand.

Modes:

* default — lint the tree (both phases), print findings
  (baseline-accepted ones are tagged), always exit 0 (informational);
* ``--strict`` — the CI gate: exit 1 on any finding not covered by the
  baseline, on any stale baseline entry, and on framework findings
  (LNT001/LNT002), so the accepted-debt set can only shrink;
* ``--sarif`` — emit the SARIF 2.1.0 log (CI uploads it so findings
  annotate the PR diff);
* ``--self-test`` — run every checker against the bundled fixture
  bundle and fail on any drift;
* ``--explain CHECK_ID`` — a checker's rationale and a bad/good pair,
  for review discussions and suppression reasons;
* ``--update-baseline`` — accept the current findings as debt;
* ``--list-checks`` — print the checker catalog.

Output is human text or (``--json`` / ``--sarif``) canonical JSON —
two runs over the same tree are byte-identical.
"""

from __future__ import annotations

import sys
from pathlib import Path

from repro.lint import (
    all_checkers,
    all_project_checkers,
    diff_against_baseline,
    lint_tree,
)
from repro.lint.baseline import Baseline
from repro.lint.framework import Checker
from repro.lint.sarif import sarif_report
from repro.telemetry.export import canonical_json

#: Default lint roots (relative to the repo root, where CI runs).
DEFAULT_PATHS = ("src/repro",)

#: Default committed baseline location.
DEFAULT_BASELINE = "lint-baseline.json"

#: LNT001/LNT002 pseudo-checkers for --list-checks / --explain / SARIF.
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


def _lnt_checkers() -> list[Checker]:
    checkers = []
    for check_id, (title, rationale, bad, good) in sorted(
            _LNT_DOCS.items()):
        checker = Checker()
        checker.id = check_id
        checker.title = title
        checker.severity = "note"
        checker.rationale = rationale
        checker.example_bad = bad
        checker.example_good = good
        checkers.append(checker)
    return checkers


def add_lint_arguments(parser) -> None:
    """Attach the ``repro lint`` flags to an argparse subparser."""
    parser.add_argument("paths", nargs="*", default=list(DEFAULT_PATHS),
                        help="files or directories to lint "
                             "(default: src/repro)")
    parser.add_argument("--strict", action="store_true",
                        help="CI gate: fail on new findings, stale "
                             "baseline entries, or suppression misuse")
    parser.add_argument("--json", action="store_true",
                        help="emit the canonical JSON report")
    parser.add_argument("--sarif", action="store_true",
                        help="emit the SARIF 2.1.0 log (for CI diff "
                             "annotations)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE,
                        help="baseline file of accepted findings "
                             f"(default: {DEFAULT_BASELINE})")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite the baseline to accept every "
                             "current finding")
    parser.add_argument("--self-test", action="store_true",
                        help="run all checkers against the bundled "
                             "fixtures of known violations")
    parser.add_argument("--list-checks", action="store_true",
                        help="list the available checks and exit")
    parser.add_argument("--explain", metavar="CHECK_ID",
                        help="print one checker's rationale and a "
                             "bad/good example, then exit")


def _explain(check_id: str) -> int:
    catalog = {checker.id: checker
               for checker in (all_checkers() + all_project_checkers()
                               + _lnt_checkers())}
    checker = catalog.get(check_id)
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
    if args.self_test:
        from repro.lint.selftest import run_self_test
        ok, lines = run_self_test()
        print("\n".join(lines), file=sys.stdout if ok else sys.stderr)
        return 0 if ok else 1
    if args.explain:
        return _explain(args.explain)

    checkers = all_checkers()
    project_checkers = all_project_checkers()
    if args.list_checks:
        for checker in sorted(checkers + project_checkers,
                              key=lambda c: c.id):
            kind = "project" if checker in project_checkers else "module"
            print(f"{checker.id}  {checker.title} "
                  f"[{checker.severity}, {kind}]")
        for check_id, (title, _, _, _) in sorted(_LNT_DOCS.items()):
            print(f"{check_id}  {title} [note, framework]")
        return 0

    paths = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        print(f"repro lint: error: no such path: "
              f"{', '.join(str(p) for p in missing)}", file=sys.stderr)
        return 2
    findings = lint_tree(paths, checkers, project_checkers)

    baseline_path = Path(args.baseline)
    if args.update_baseline:
        Baseline.from_findings(findings).save(baseline_path)
        print(f"baseline: wrote {len(findings)} finding(s) to "
              f"{baseline_path}")
        return 0

    baseline = Baseline.load(baseline_path)
    new, accepted, stale = diff_against_baseline(findings, baseline)
    lnt = [f for f in new if f.check.startswith("LNT")]

    if args.sarif:
        print(canonical_json(sarif_report(
            sorted(findings, key=lambda f: f.sort_key),
            checkers + project_checkers + _lnt_checkers(),
            baselined=accepted)))
    elif args.json:
        print(canonical_json({
            "findings": [dict(f.to_dict(), baselined=f in accepted)
                         for f in sorted(findings,
                                         key=lambda f: f.sort_key)],
            "stale_baseline": stale,
            "summary": {"new": len(new), "baselined": len(accepted),
                        "stale_baseline": len(stale), "strict": args.strict},
        }))
    else:
        for finding in new:
            print(finding.format())
        for finding in accepted:
            print(f"{finding.format()} [baselined]")
        for entry in stale:
            print(f"{entry['path']}: stale baseline entry "
                  f"{entry['check']} ({entry['message']}); regenerate "
                  f"with --update-baseline")
        print(f"repro lint: {len(new)} new, {len(accepted)} baselined, "
              f"{len(stale)} stale baseline entr"
              f"{'y' if len(stale) == 1 else 'ies'}")

    if args.strict and (new or stale or lnt):
        return 1
    return 0
