"""Framework tests: suppressions, baselines, CLI exit codes, determinism."""

import json
import textwrap

import pytest

from repro.cli import main
from repro.lint import all_checkers, lint_modules
from repro.lint.baseline import (
    BASELINE_VERSION,
    Baseline,
    diff_against_baseline,
)
from repro.lint.framework import (
    Finding,
    SourceModule,
    module_name_from_path,
    parse_suppressions,
)
from repro.lint.selftest import run_self_test


def make_finding(path="src/repro/sim/x.py", line=3, col=1,
                 check="DET001", message="wall clock"):
    return Finding(path=path, line=line, col=col, check=check,
                   message=message)


class TestSuppressionParsing:
    def test_basic_with_reason(self):
        got = parse_suppressions(
            "x = 1  # repro-lint: disable=DET001 uses wall clock on purpose\n")
        assert list(got) == [1]
        assert got[1].checks == ("DET001",)
        assert got[1].reason == "uses wall clock on purpose"

    def test_multiple_ids(self):
        got = parse_suppressions(
            "x = 1  # repro-lint: disable=DET001, ARCH002 both fine\n")
        assert got[1].checks == ("DET001", "ARCH002")
        assert got[1].covers("DET001") and got[1].covers("ARCH002")
        assert not got[1].covers("DET003")

    def test_all_wildcard(self):
        got = parse_suppressions("x = 1  # repro-lint: disable=all why\n")
        assert got[1].covers("DET004")

    def test_missing_reason_is_empty(self):
        got = parse_suppressions("x = 1  # repro-lint: disable=DET001\n")
        assert got[1].reason == ""

    def test_plain_comments_ignored(self):
        assert parse_suppressions("x = 1  # just a comment\n") == {}

    def test_string_literals_are_inert(self):
        # The suppression syntax inside a string (docs, the self-test
        # fixture source) must not register as a suppression.
        src = 's = "code  # repro-lint: disable=DET001 reason"\n'
        assert parse_suppressions(src) == {}


class TestSuppressionSemantics:
    def lint(self, source, module="repro.faas.snippet"):
        mod = SourceModule(path="<snippet>",
                           source=textwrap.dedent(source), module=module)
        return lint_modules([mod], all_checkers())

    def test_suppression_silences_finding_on_same_line(self):
        src = """\
        import time

        def f():
            return time.time()  # repro-lint: disable=DET001 profiling only
        """
        assert self.lint(src) == []

    def test_suppression_only_covers_listed_checks(self):
        src = """\
        import time

        def f():
            return time.time()  # repro-lint: disable=DET002 wrong id
        """
        found = self.lint(src)
        # The DET001 finding survives, and the suppression is unused
        # (LNT002 sorts first: same line, column 1).
        assert sorted(f.check for f in found) == ["DET001", "LNT002"]

    def test_reasonless_suppression_flagged(self):
        src = """\
        import time

        def f():
            return time.time()  # repro-lint: disable=DET001
        """
        assert [f.check for f in self.lint(src)] == ["LNT001"]

    def test_unused_suppression_flagged(self):
        src = "x = 1  # repro-lint: disable=DET001 nothing here\n"
        assert [f.check for f in self.lint(src)] == ["LNT002"]

    def test_findings_sorted_canonically(self):
        src = """\
        import time
        import random

        def f():
            random.random()
            return time.time()
        """
        found = self.lint(src)
        assert [f.sort_key for f in found] == \
            sorted(f.sort_key for f in found)
        assert [f.check for f in found] == ["DET002", "DET001"]


class TestModuleNames:
    @pytest.mark.parametrize("path,expected", [
        ("src/repro/sim/kernel.py", "repro.sim.kernel"),
        ("src/repro/sim/__init__.py", "repro.sim"),
        ("src/repro/__init__.py", "repro"),
        ("/abs/src/repro/cli.py", "repro.cli"),
        ("tests/test_sim.py", None),
    ])
    def test_module_name_from_path(self, path, expected):
        assert module_name_from_path(path) == expected


class TestBaseline:
    def test_load_missing_file_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "nope.json")
        assert baseline.entries == []

    def test_round_trip(self, tmp_path):
        findings = [make_finding(), make_finding(check="ARCH002",
                                                 message="raw json")]
        path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).save(path)
        reloaded = Baseline.load(path)
        assert len(reloaded.entries) == 2
        assert reloaded.to_json() == path.read_text(encoding="utf-8")

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": BASELINE_VERSION + 1,
                                    "findings": []}))
        with pytest.raises(ValueError, match="unsupported baseline version"):
            Baseline.load(path)

    def test_diff_ignores_line_numbers(self):
        baseline = Baseline.from_findings([make_finding(line=10)])
        new, accepted, stale = diff_against_baseline(
            [make_finding(line=99)], baseline)
        assert (new, len(accepted), stale) == ([], 1, [])

    def test_diff_is_multiset_aware(self):
        # Two identical findings, one baseline allowance: one accepted,
        # one new.
        baseline = Baseline.from_findings([make_finding()])
        new, accepted, stale = diff_against_baseline(
            [make_finding(line=1), make_finding(line=2)], baseline)
        assert (len(new), len(accepted), stale) == (1, 1, [])

    def test_diff_reports_stale_entries(self):
        baseline = Baseline.from_findings(
            [make_finding(), make_finding(check="DET004", message="id()")])
        new, accepted, stale = diff_against_baseline(
            [make_finding()], baseline)
        assert (new, len(accepted)) == ([], 1)
        assert [e["check"] for e in stale] == ["DET004"]


CLEAN = "SEED = 7\n"

DIRTY = """\
import time


def stamp():
    return time.time()
"""


@pytest.fixture
def tree(tmp_path, monkeypatch):
    """A minimal lintable tree; cwd moved there so paths relativize."""
    pkg = tmp_path / "src" / "repro" / "faas"
    pkg.mkdir(parents=True)
    (pkg / "clean.py").write_text(CLEAN)
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestCli:
    def test_clean_tree_strict_exit_zero(self, tree, capsys):
        assert main(["lint", "--strict", "src"]) == 0
        assert "0 new" in capsys.readouterr().out

    def test_violation_fails_strict_but_not_default(self, tree, capsys):
        (tree / "src/repro/faas/dirty.py").write_text(DIRTY)
        assert main(["lint", "src"]) == 0
        assert main(["lint", "--strict", "src"]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_baseline_accepts_then_goes_stale(self, tree, capsys):
        dirty = tree / "src/repro/faas/dirty.py"
        dirty.write_text(DIRTY)
        assert main(["lint", "--update-baseline", "src"]) == 0
        # Accepted debt passes strict...
        assert main(["lint", "--strict", "src"]) == 0
        # ...until the code is fixed, when the stale entry fails strict
        # (the baseline must shrink along with the debt).
        dirty.write_text(CLEAN)
        assert main(["lint", "--strict", "src"]) == 1
        assert "stale baseline entry" in capsys.readouterr().out

    def test_missing_path_exit_two(self, tree):
        assert main(["lint", "no/such/dir"]) == 2

    @pytest.mark.parametrize("dest,value", [
        ("no_cache", []), ("cache", ["x"]), ("max_seconds", ["1"])],
        ids=("no_cache", "cache", "max_seconds"))
    def test_options_about_the_linters_own_speed_are_gone(self, tree,
                                                          dest, value):
        """The incremental cache and the wall-time gate took their
        flags with them: argparse rejects each (named here by its old
        ``dest``), no shim."""
        flag = "--" + dest.replace("_", "-")
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", flag, *value, "src"])
        assert exit_info.value.code == 2

    def test_list_checks(self, tree, capsys):
        assert main(["lint", "--list-checks"]) == 0
        out = capsys.readouterr().out
        for check in ["DET001", "DET002", "DET003", "DET004", "DET005",
                      "CONC001", "RES001", "EXC001",
                      "ARCH001", "ARCH002", "LNT001", "LNT002"]:
            assert check in out
        assert len(out.splitlines()) == 12

    @pytest.mark.parametrize("check_id", [
        "DET001", "DET005", "CONC001", "RES001", "EXC001",
        "ARCH001", "LNT001",
    ])
    def test_explain_prints_rationale_and_examples(self, tree, capsys,
                                                   check_id):
        assert main(["lint", "--explain", check_id]) == 0
        out = capsys.readouterr().out
        assert out.startswith(check_id)
        assert "Why:" in out
        assert "Bad:" in out and "Good:" in out
        assert f"disable={check_id}" in out

    def test_explain_unknown_check_exit_two(self, tree, capsys):
        assert main(["lint", "--explain", "NOPE999"]) == 2
        assert "unknown check" in capsys.readouterr().err

    def test_json_output_byte_identical_across_runs(self, tree, capsys):
        (tree / "src/repro/faas/dirty.py").write_text(DIRTY)
        assert main(["lint", "--json", "src"]) == 0
        first = capsys.readouterr().out
        assert main(["lint", "--json", "src"]) == 0
        second = capsys.readouterr().out
        assert first == second
        payload = json.loads(first)
        assert payload["summary"]["new"] == 1
        assert payload["findings"][0]["check"] == "DET001"

    def test_self_test_passes(self, capsys):
        assert main(["lint", "--self-test"]) == 0
        assert "self-test" in capsys.readouterr().out


class TestSelfTest:
    def test_fixture_findings_match_expectations(self):
        ok, lines = run_self_test()
        assert ok, "\n".join(lines)
