"""CLI coverage for `repro check`: exit codes, selection, output
formats (JSON + SARIF 2.1.0 keys), and the baseline workflow."""

import json
import textwrap

import pytest

from repro.checker.emitters import SARIF_SCHEMA_URI
from repro.cli import main as cli_main

BAD_SOURCE = textwrap.dedent(
    """
    import asyncio

    async def fetch(path):
        reader, writer = await asyncio.open_unix_connection(path)
        return await reader.readline()

    def parse(payload):
        raise ValueError(payload)
    """
)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "service_shim.py"
    path.write_text(BAD_SOURCE)
    return path


class TestExitCodesAndSelection:
    def test_errors_exit_nonzero(self, bad_file, capsys):
        rc = cli_main(["check", str(bad_file)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "ASYNC102" in out
        assert "ERR302" in out

    def test_select_family_filters(self, bad_file, capsys):
        rc = cli_main(["check", str(bad_file), "--select", "ERR"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "ERR302" in out
        assert "ASYNC102" not in out

    def test_ignore_family(self, bad_file, capsys):
        rc = cli_main(["check", str(bad_file), "--ignore", "ERR,ASYNC"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s)" in out

    def test_ignore_single_rule(self, bad_file, capsys):
        rc = cli_main(["check", str(bad_file), "--ignore", "ASYNC102"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "ASYNC102" not in out
        assert "ERR302" in out

    def test_unknown_family_errors(self, bad_file, capsys):
        for family in ("BOGUS", "SPMD"):  # SPMD: retired with the SPMD form
            rc = cli_main(["check", str(bad_file), "--select", family])
            assert rc == 2
            assert "unknown rule or family" in capsys.readouterr().err

    def test_missing_path_errors(self, tmp_path, capsys):
        """A typo'd path must not silently pass the CI gate."""
        rc = cli_main(["check", str(tmp_path / "no_such_dir")])
        assert rc == 2
        assert "no such path" in capsys.readouterr().err

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text(
            textwrap.dedent(
                """
                import asyncio

                async def fetch(path):
                    reader, writer = await asyncio.open_unix_connection(
                        path, limit=1 << 20
                    )
                    return await reader.readline()
                """
            )
        )
        rc = cli_main(["check", str(clean)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 error(s)" in out

    def test_list_rules_covers_new_families(self, capsys):
        rc = cli_main(["check", "--list-rules"])
        out = capsys.readouterr().out
        assert rc == 0
        for probe in ("ASYNC102", "RES201", "ERR302", "COST400", "OBS501"):
            assert probe in out


class TestDynamic:
    def test_phase_forms_run_clean(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("def ok():\n    return 1\n")
        rc = cli_main(["check", str(clean), "--dynamic"])
        out = capsys.readouterr().out
        assert rc == 0
        (line,) = [ln for ln in out.splitlines() if ln.startswith("dynamic:")]
        for name in ("transpose", "broadcast", "parallel_histogram", "parallel_components"):
            assert name in line


class TestOutputFormats:
    def test_json_payload(self, bad_file, tmp_path, capsys):
        out_file = tmp_path / "findings.json"
        rc = cli_main(
            ["check", str(bad_file), "--format", "json", "-o", str(out_file)]
        )
        assert rc == 1  # writing a report does not mask the errors
        payload = json.loads(out_file.read_text())
        assert payload["schema"] == "repro-checker-findings/v1"
        assert payload["summary"]["errors"] == 2
        rules = {f["rule"] for f in payload["findings"]}
        assert rules == {"ASYNC102", "ERR302"}
        for finding in payload["findings"]:
            assert finding["line"] > 0
            assert finding["severity"] == "error"

    def test_json_to_stdout(self, bad_file, capsys):
        rc = cli_main(["check", str(bad_file), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 1
        assert payload["summary"]["errors"] == 2

    def test_sarif_keys(self, bad_file, tmp_path):
        out_file = tmp_path / "findings.sarif"
        rc = cli_main(
            ["check", str(bad_file), "--format", "sarif", "-o", str(out_file)]
        )
        assert rc == 1
        doc = json.loads(out_file.read_text())
        # The 2.1.0 schema keys GitHub code scanning requires:
        assert doc["version"] == "2.1.0"
        assert doc["$schema"] == SARIF_SCHEMA_URI
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-check"
        rule_ids = [r["id"] for r in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        for rule in driver["rules"]:
            assert rule["shortDescription"]["text"]
            assert rule["defaultConfiguration"]["level"] in ("error", "warning")
        assert run["results"], "findings must appear as results"
        for res in run["results"]:
            assert res["ruleId"] in rule_ids
            assert driver["rules"][res["ruleIndex"]]["id"] == res["ruleId"]
            assert res["level"] in ("error", "warning")
            loc = res["locations"][0]["physicalLocation"]
            assert loc["artifactLocation"]["uri"].endswith("service_shim.py")
            assert loc["region"]["startLine"] > 0
            assert loc["region"]["startColumn"] >= 1

    def test_sarif_clean_run_is_valid(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text("def ok():\n    return 1\n")
        out_file = tmp_path / "clean.sarif"
        rc = cli_main(["check", str(clean), "--format", "sarif", "-o", str(out_file)])
        assert rc == 0
        doc = json.loads(out_file.read_text())
        assert doc["runs"][0]["results"] == []


class TestBaselineWorkflow:
    def test_update_then_suppress(self, bad_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        rc = cli_main(
            ["check", str(bad_file), "--baseline", str(baseline), "--update-baseline"]
        )
        assert rc == 0
        assert baseline.exists()
        capsys.readouterr()

        rc = cli_main(["check", str(bad_file), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0  # everything grandfathered
        assert "2 baselined" in out

    def test_new_finding_fails_against_baseline(self, bad_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        cli_main(
            ["check", str(bad_file), "--baseline", str(baseline), "--update-baseline"]
        )
        capsys.readouterr()
        bad_file.write_text(
            BAD_SOURCE + "\ndef encode(payload):\n    raise TypeError(payload)\n"
        )
        rc = cli_main(["check", str(bad_file), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 1  # the new raise is NOT covered
        assert out.count("ERR302") == 1

    def test_fixed_finding_reports_stale(self, bad_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        cli_main(
            ["check", str(bad_file), "--baseline", str(baseline), "--update-baseline"]
        )
        capsys.readouterr()
        bad_file.write_text("def ok():\n    return 1\n")
        rc = cli_main(["check", str(bad_file), "--baseline", str(baseline)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "stale allowance" in out

    def test_no_baseline_flag_disables(self, bad_file, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        cli_main(
            ["check", str(bad_file), "--baseline", str(baseline), "--update-baseline"]
        )
        capsys.readouterr()
        rc = cli_main(["check", str(bad_file), "--no-baseline"])
        assert rc == 1
