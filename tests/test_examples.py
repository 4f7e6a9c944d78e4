"""Example-script smoke tests.

Each example must be importable (no module-level side effects) and expose
a ``main``; the cheapest one runs end-to-end.
"""

import importlib.util
import subprocess
import sys
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

    def test_replay_real_trace_demo_runs(self, tmp_path):
        # The cheapest end-to-end example: writes its own demo MSR file.
        result = subprocess.run(
            [sys.executable, str(EXAMPLES_DIR / "replay_real_trace.py")],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert result.returncode == 0, result.stderr
        assert "SAF total" in result.stdout
