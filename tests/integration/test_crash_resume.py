"""Crash-safety end to end: kill a real run mid-exhibit, then resume.

The acceptance bar: killing an ``all`` run mid-exhibit leaves only valid
JSON on disk, and re-running with ``--resume`` skips completed exhibits,
finishes the rest, and produces a ``run.json`` manifest with per-exhibit
status.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")


def _spawn(args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return subprocess.Popen(
        [sys.executable, "-m", "repro.experiments", *args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )


def _assert_all_json_valid(out_dir: Path):
    dumps = list(out_dir.glob("*.json"))
    for path in dumps:
        with path.open() as handle:
            json.load(handle)  # raises on a truncated file
    return dumps


@pytest.mark.slow
class TestKillAndResume:
    def test_sigkill_mid_run_then_resume(self, tmp_path):
        out = tmp_path / "results"
        # Scale 0.1 keeps the full run around ten seconds — long enough
        # that a kill shortly after the first JSONs appear lands mid-run
        # with completed exhibits behind it.
        proc = _spawn(["all", "--scale", "0.1", "--seed", "11", "--out", str(out), "--keep-going"])
        try:
            deadline = time.time() + 120
            while time.time() < deadline:
                # Count exhibit dumps only: run.json exists from the first
                # instant.  Once N exhibit dumps exist, at least N-1
                # exhibits are already checkpointed ok in the manifest.
                dumps = [p for p in out.glob("*.json") if p.name != "run.json"]
                if len(dumps) >= 2:
                    break
                if proc.poll() is not None:
                    pytest.fail("run finished before it could be killed")
                time.sleep(0.05)
            else:
                pytest.fail("no exhibit JSON appeared in time")
            proc.kill()  # SIGKILL: no cleanup handlers run
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # 1. Whatever hit the disk must be complete, parseable JSON.
        dumps = _assert_all_json_valid(out)
        assert dumps, "expected at least one completed exhibit dump"
        manifest = json.loads((out / "run.json").read_text())
        completed_before = {
            name
            for name, entry in manifest["exhibits"].items()
            if entry["status"] == "ok"
        }
        assert completed_before

        # 2. Resume with identical parameters: completed exhibits are
        # skipped, the rest run to completion.
        proc = _spawn(
            [
                "all", "--scale", "0.1", "--seed", "11",
                "--out", str(out), "--keep-going", "--resume",
            ]
        )
        output, _ = proc.communicate(timeout=600)
        assert proc.returncode == 0, output
        for name in completed_before:
            assert f"=== {name}: already complete, skipping (resume)" in output

        # 3. Final state: every exhibit ok in the manifest, all JSON valid.
        manifest = json.loads((out / "run.json").read_text())
        from repro.experiments.registry import EXHIBITS

        assert set(manifest["exhibits"]) == set(EXHIBITS)
        assert all(entry["status"] == "ok" for entry in manifest["exhibits"].values())
        _assert_all_json_valid(out)
