"""Example scripts run end to end.

Each example is importable without side effects and has a documented
``main(scale=1.0)``; every one runs here at toy scale, as it would with no
arguments, and the cheapest also runs as a subprocess at full scale.
"""

import importlib.util
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))


def load(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_examples_present(self):
        names = {p.stem for p in EXAMPLES}
        assert {
            "quickstart",
            "database_scan_workload",
            "technique_tuning",
            "replay_real_trace",
            "cleaning_and_waf",
            "seek_time_costs",
        } <= names

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_importable_with_main(self, path):
        module = load(path)
        assert callable(module.main)
        assert module.__doc__, f"{path.stem} lacks a docstring"

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.stem)
    def test_runs_at_toy_scale(self, path, tmp_path, monkeypatch, capsys):
        module = load(path)
        monkeypatch.setattr(sys, "argv", [str(path)])
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        module.main(scale=0.05)
        assert capsys.readouterr().out.strip()

    def test_replay_real_trace_demo_runs(self):
        # The cheapest end-to-end example: writes its own demo MSR file.
        result = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "replay_real_trace.py")],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert result.returncode == 0, result.stderr
        assert "SAF total" in result.stdout
