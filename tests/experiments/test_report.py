"""Consolidated-report generator tests."""

import json

import pytest

from repro.experiments.report import build_report, write_report


def seed_results(tmp_path):
    (tmp_path / "fig11.json").write_text(
        json.dumps(
            {
                "w91": {
                    "family": "cloudphysics",
                    "saf": {
                        "LS": {"total": 2.9},
                        "LS+defrag": {"total": 1.6},
                        "LS+prefetch": {"total": 1.3},
                        "LS+cache": {"total": 0.7},
                    },
                }
            }
        )
    )
    (tmp_path / "fig8.json").write_text(json.dumps({"src2_2": 0.05, "w76": 0.0}))
    (tmp_path / "fig6.json").write_text(
        json.dumps(
            {
                "without_defrag": {"rd_2_5_first": {"read_seeks": 4}},
                "with_defrag": {
                    "rd_2_5_again": {"read_seeks": 1},
                    "rd_1_2": {"read_seeks": 2},
                },
            }
        )
    )
    (tmp_path / "taxonomy.json").write_text(
        json.dumps(
            {
                "w91": {"measured": "log-sensitive", "predicted": "log-sensitive"},
                "usr_0": {"measured": "log-friendly", "predicted": "log-sensitive"},
            }
        )
    )


class TestBuildReport:
    def test_sections_from_available_jsons(self, tmp_path):
        seed_results(tmp_path)
        report = build_report(tmp_path)
        assert "## Fig. 11" in report
        assert "| w91 | cloudphysics | 2.90 | 1.60 | 1.30 | 0.70 | LS+cache |" in report
        assert "## Fig. 8" in report
        assert "## Fig. 6" in report
        assert "1/2 workloads" in report  # taxonomy agreement

    def test_missing_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            build_report(tmp_path / "nope")

    def test_empty_dir(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="no exhibit JSONs"):
            build_report(tmp_path)

    def test_write_report_default_path(self, tmp_path):
        seed_results(tmp_path)
        path = write_report(tmp_path)
        assert path == tmp_path / "REPORT.md"
        assert path.read_text().startswith("# Reproduction report")


class TestCli:
    def test_report_command(self, tmp_path, capsys):
        from repro.experiments.__main__ import main

        seed_results(tmp_path)
        assert main(["report", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "REPORT.md").exists()

    def test_report_requires_out(self):
        from repro.experiments.__main__ import main

        with pytest.raises(SystemExit):
            main(["report"])

    def test_unknown_exhibit_errors(self):
        from repro.experiments.__main__ import main

        for argv in (["fig99"], ["all", "--jobs", "0"], ["all", "--resume"]):
            with pytest.raises(SystemExit):
                main(argv)

    def test_single_exhibit_runs(self, capsys):
        from repro.experiments.__main__ import main

        assert main(["fig6"]) == 0
        assert "Fig. 6 scenario" in capsys.readouterr().out
