"""SARIF 2.1.0 export: structure, schema validity, and determinism."""

import json
import textwrap

import pytest

from repro.cli import main
from repro.lint import all_checkers, all_project_checkers
from repro.lint.cli import _lnt_checkers
from repro.lint.framework import Finding
from repro.lint.sarif import SARIF_VERSION, sarif_report

jsonschema = pytest.importorskip("jsonschema")

#: Structural subset of the OASIS SARIF 2.1.0 schema covering
#: everything `repro lint --sarif` emits. The full schema is ~350 kB
#: and needs network access to fetch; this subset pins the fields that
#: GitHub code scanning and other consumers actually require, with
#: `additionalProperties` left open exactly where the spec leaves the
#: format extensible.
SARIF_SUBSET_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"enum": ["2.1.0"]},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {"$ref":
                                                  "#/definitions/rule"},
                                    },
                                },
                            },
                        },
                    },
                    "columnKind": {"enum": ["utf16CodeUnits",
                                            "unicodeCodePoints"]},
                    "results": {
                        "type": "array",
                        "items": {"$ref": "#/definitions/result"},
                    },
                },
            },
        },
    },
    "definitions": {
        "rule": {
            "type": "object",
            "required": ["id"],
            "properties": {
                "id": {"type": "string"},
                "shortDescription": {"$ref": "#/definitions/message"},
                "fullDescription": {"$ref": "#/definitions/message"},
                "help": {"$ref": "#/definitions/message"},
                "defaultConfiguration": {
                    "type": "object",
                    "properties": {
                        "level": {"enum": ["none", "note", "warning",
                                           "error"]},
                    },
                },
            },
        },
        "message": {
            "type": "object",
            "required": ["text"],
            "properties": {"text": {"type": "string"}},
        },
        "result": {
            "type": "object",
            "required": ["message"],
            "properties": {
                "ruleId": {"type": "string"},
                "ruleIndex": {"type": "integer", "minimum": 0},
                "level": {"enum": ["none", "note", "warning", "error"]},
                "message": {"$ref": "#/definitions/message"},
                "locations": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "properties": {
                            "physicalLocation": {
                                "type": "object",
                                "properties": {
                                    "artifactLocation": {
                                        "type": "object",
                                        "properties": {
                                            "uri": {"type": "string"},
                                            "uriBaseId":
                                                {"type": "string"},
                                        },
                                    },
                                    "region": {
                                        "type": "object",
                                        "properties": {
                                            "startLine": {
                                                "type": "integer",
                                                "minimum": 1},
                                            "startColumn": {
                                                "type": "integer",
                                                "minimum": 1},
                                        },
                                    },
                                },
                            },
                        },
                    },
                },
                "suppressions": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["kind"],
                        "properties": {
                            "kind": {"enum": ["inSource", "external"]},
                            "justification": {"type": "string"},
                        },
                    },
                },
            },
        },
    },
}

DIRTY = textwrap.dedent("""\
    import time


    def stamp():
        return time.time()
""")


def catalog():
    return all_checkers() + all_project_checkers() + _lnt_checkers()


def make_finding(check="DET001", severity="error", line=5):
    return Finding(path="src/repro/faas/dirty.py", line=line, col=12,
                   check=check, message="wall clock", severity=severity)


@pytest.fixture
def tree(tmp_path, monkeypatch):
    pkg = tmp_path / "src" / "repro" / "faas"
    pkg.mkdir(parents=True)
    (pkg / "dirty.py").write_text(DIRTY)
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestSarifReport:
    def test_report_validates_against_schema(self):
        report = sarif_report([make_finding()], catalog())
        jsonschema.validate(report, SARIF_SUBSET_SCHEMA)
        assert report["version"] == SARIF_VERSION

    def test_rules_cover_every_checker_in_id_order(self):
        report = sarif_report([], catalog())
        rules = report["runs"][0]["tool"]["driver"]["rules"]
        ids = [rule["id"] for rule in rules]
        assert ids == sorted(ids)
        assert set(ids) == {c.id for c in catalog()}
        for rule in rules:
            assert rule["defaultConfiguration"]["level"] \
                in {"error", "warning", "note"}

    def test_result_carries_location_and_level(self):
        report = sarif_report(
            [make_finding(check="RES001", severity="warning")],
            catalog())
        result = report["runs"][0]["results"][0]
        assert result["ruleId"] == "RES001"
        assert result["level"] == "warning"
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] \
            == "src/repro/faas/dirty.py"
        assert location["region"] == {"startLine": 5, "startColumn": 12}
        rules = report["runs"][0]["tool"]["driver"]["rules"]
        assert rules[result["ruleIndex"]]["id"] == "RES001"

    def test_baselined_findings_are_suppressed(self):
        finding = make_finding()
        report = sarif_report([finding], catalog(),
                              baselined=[finding])
        result = report["runs"][0]["results"][0]
        assert result["suppressions"] == [{
            "kind": "external",
            "justification": "lint-baseline.json"}]
        fresh = sarif_report([finding], catalog())
        assert "suppressions" not in fresh["runs"][0]["results"][0]


class TestSarifCli:
    def test_cli_sarif_is_valid_and_lists_the_finding(self, tree,
                                                      capsys):
        assert main(["lint", "--sarif", "src"]) == 0
        report = json.loads(capsys.readouterr().out)
        jsonschema.validate(report, SARIF_SUBSET_SCHEMA)
        results = report["runs"][0]["results"]
        assert [r["ruleId"] for r in results] == ["DET001"]
        assert results[0]["locations"][0]["physicalLocation"][
            "artifactLocation"]["uri"] == "src/repro/faas/dirty.py"

    def test_cli_sarif_byte_identical_across_runs(self, tree, capsys):
        assert main(["lint", "--sarif", "src"]) == 0
        first = capsys.readouterr().out
        assert main(["lint", "--sarif", "src"]) == 0
        assert capsys.readouterr().out == first

    def test_baselined_tree_emits_suppressed_results(self, tree,
                                                     capsys):
        assert main(["lint", "--update-baseline", "src"]) == 0
        capsys.readouterr()
        assert main(["lint", "--sarif", "src"]) == 0
        report = json.loads(capsys.readouterr().out)
        results = report["runs"][0]["results"]
        assert results and all("suppressions" in r for r in results)
