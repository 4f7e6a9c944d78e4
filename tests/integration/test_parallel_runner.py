"""Parallel runner: determinism, manifest semantics, resume under the pool.

The headline guarantee of ``jobs=N`` is that it is *unobservable* in the
results: exhibit JSON dumps are byte-identical to a serial run, and the
manifest carries the same statuses and fingerprints (only wall-clock
durations may differ).  Exhibits always run in the parent, after the pool
has filled the result table, so the fake registries below hold under
``jobs=2`` too; the real-registry test drives the spawn pool end to end.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.experiments import registry
from repro.experiments.runner import (MANIFEST_NAME, STATUS_FAILED, STATUS_OK, STATUS_RUNNING,
                                      STATUS_SKIPPED, STATUS_TIMEOUT, run_exhibits)

QUIET = {"echo": lambda s: None}


def _manifest(out_dir) -> dict:
    return json.loads((Path(out_dir) / MANIFEST_NAME).read_text())


def _exhibit_bytes(out_dir) -> dict:
    return {path.name: path.read_bytes()
            for path in sorted(Path(out_dir).glob("*.json")) if path.name != MANIFEST_NAME}


@pytest.fixture
def fake_exhibits(monkeypatch, tmp_path):
    """A registry of tiny exhibits that log each run to
    ``<tmp_path>/<name>.ran``, one line per run."""

    def make(name, fail=False, sleep=0.0):
        def run(engine):
            with open(tmp_path / f"{name}.ran", "a") as handle:
                handle.write(f"{os.getpid()}\n")
            if sleep:
                time.sleep(sleep)
            if fail:
                raise RuntimeError(f"{name} exploded")
            return {"name": name, "seed": engine.seed, "scale": engine.scale}

        return run

    fakes = {
        "alpha": make("alpha"),
        "beta": make("beta", fail=True),
        "gamma": make("gamma"),
        "sleepy": make("sleepy", sleep=5.0),
    }
    monkeypatch.setattr(registry, "EXHIBITS", fakes)
    return fakes


def nap(engine, trace):
    """An analysis row that outlasts any test's time budget (spawn workers
    import it from this module)."""
    time.sleep(5.0)


def _runs(out_dir, name) -> int:
    path = Path(out_dir) / f"{name}.ran"
    return len(path.read_text().splitlines()) if path.exists() else 0


class TestParallelSemantics:
    def test_all_ok_matches_serial_manifest(self, fake_exhibits, tmp_path):
        serial, parallel = tmp_path / "serial", tmp_path / "parallel"
        run_exhibits(["alpha", "gamma"], out_dir=str(serial), **QUIET)
        run_exhibits(
            ["alpha", "gamma"],
            out_dir=str(parallel),
            jobs=2,
            **QUIET,
        )
        serial_manifest, parallel_manifest = _manifest(serial), _manifest(parallel)
        assert list(parallel_manifest["exhibits"]) == list(serial_manifest["exhibits"])
        for name in ("alpha", "gamma"):
            serial_entry = serial_manifest["exhibits"][name]
            parallel_entry = parallel_manifest["exhibits"][name]
            assert parallel_entry["status"] == serial_entry["status"] == STATUS_OK
            assert parallel_entry["fingerprint"] == serial_entry["fingerprint"]
        # The dumps themselves (everything but wall-clock) are identical.
        serial_bytes = {k: v for k, v in _exhibit_bytes(serial).items() if k.endswith(".json")}
        parallel_bytes = {k: v for k, v in _exhibit_bytes(parallel).items() if k.endswith(".json")}
        assert parallel_bytes == serial_bytes

    def test_outcomes_keep_names_order(self, fake_exhibits, tmp_path):
        outcomes = run_exhibits(
            ["gamma", "alpha"],
            out_dir=str(tmp_path),
            jobs=2,
            **QUIET,
        )
        assert [o.name for o in outcomes] == ["gamma", "alpha"]
        assert all(o.status == STATUS_OK for o in outcomes)

    def test_failure_recorded_and_no_running_left(self, fake_exhibits, tmp_path):
        outcomes = run_exhibits(
            ["alpha", "beta", "gamma"],
            out_dir=str(tmp_path),
            jobs=2,
            **QUIET,
        )
        by_name = {o.name: o for o in outcomes}
        assert by_name["beta"].status == STATUS_FAILED
        assert "beta exploded" in by_name["beta"].error
        assert "RuntimeError" in by_name["beta"].error
        # Cancelled placeholders are cleaned up: whatever remains in the
        # manifest is finished, exactly like a serial run that stopped.
        for name, entry in _manifest(tmp_path)["exhibits"].items():
            assert entry["status"] != STATUS_RUNNING, name

    def test_keep_going_runs_everything(self, fake_exhibits, tmp_path):
        outcomes = run_exhibits(
            ["alpha", "beta", "gamma"],
            out_dir=str(tmp_path),
            jobs=2,
            keep_going=True,
            **QUIET,
        )
        assert [o.name for o in outcomes] == ["alpha", "beta", "gamma"]
        assert [o.status for o in outcomes] == [STATUS_OK, STATUS_FAILED, STATUS_OK]
        assert _runs(tmp_path, "alpha") == 1
        assert _runs(tmp_path, "gamma") == 1

    def test_timeout_fires_inside_worker(self, fake_exhibits, monkeypatch, tmp_path):
        """A pool task over budget gives up (its row is recomputed by the
        exhibit that asks), instead of holding the run for its full nap."""
        monkeypatch.setitem(registry.NEEDS, "sleepy", {"hm_1": [nap]})
        start = time.time()
        outcomes = run_exhibits(
            ["sleepy"],
            scale=0.05,
            out_dir=str(tmp_path),
            jobs=2,
            timeout_s=0.2,
            keep_going=True,
            **QUIET,
        )
        assert outcomes[0].status == STATUS_TIMEOUT
        assert _manifest(tmp_path)["exhibits"]["sleepy"]["status"] == STATUS_TIMEOUT
        assert time.time() - start < 4.0

    def test_jobs_must_be_positive(self, fake_exhibits):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            run_exhibits(["alpha"], jobs=0, **QUIET)


class TestResumeUnderPool:
    def test_resume_skips_completed_in_parallel(self, fake_exhibits, tmp_path):
        run_exhibits(["alpha"], out_dir=str(tmp_path), **QUIET)
        outcomes = run_exhibits(
            ["alpha", "gamma"],
            out_dir=str(tmp_path),
            resume=True,
            jobs=2,
            **QUIET,
        )
        assert [o.status for o in outcomes] == [STATUS_SKIPPED, STATUS_OK]
        assert _runs(tmp_path, "alpha") == 1  # not re-run in a worker
        assert _runs(tmp_path, "gamma") == 1

    def test_resume_after_simulated_crash(self, fake_exhibits, tmp_path):
        # A parallel run killed mid-flight leaves 'running' placeholders;
        # resume must re-run those and keep the completed work.
        run_exhibits(["alpha", "gamma"], out_dir=str(tmp_path), **QUIET)
        manifest_path = Path(tmp_path) / MANIFEST_NAME
        raw = json.loads(manifest_path.read_text())
        raw["exhibits"]["gamma"]["status"] = STATUS_RUNNING
        manifest_path.write_text(json.dumps(raw))
        outcomes = run_exhibits(
            ["alpha", "gamma"],
            out_dir=str(tmp_path),
            resume=True,
            jobs=2,
            **QUIET,
        )
        assert [o.status for o in outcomes] == [STATUS_SKIPPED, STATUS_OK]
        assert _runs(tmp_path, "alpha") == 1
        assert _runs(tmp_path, "gamma") == 2
        assert _manifest(tmp_path)["exhibits"]["gamma"]["status"] == STATUS_OK

    def test_parallel_resume_all_skipped_touches_nothing(self, fake_exhibits, tmp_path):
        run_exhibits(["alpha", "gamma"], out_dir=str(tmp_path), **QUIET)
        before = _exhibit_bytes(tmp_path)
        outcomes = run_exhibits(
            ["alpha", "gamma"],
            out_dir=str(tmp_path),
            resume=True,
            jobs=4,
            **QUIET,
        )
        assert [o.status for o in outcomes] == [STATUS_SKIPPED, STATUS_SKIPPED]
        assert _exhibit_bytes(tmp_path) == before


class TestRealExhibitsByteIdentical:
    """End-to-end over the real registry with the spawn pool."""

    def test_parallel_and_fast_dumps_match_serial(self, tmp_path):
        names = ["fig8", "fig11"]
        serial = tmp_path / "serial"
        parallel = tmp_path / "parallel"
        outcomes = run_exhibits(names, scale=0.05, out_dir=str(serial), **QUIET)
        assert all(o.status == STATUS_OK for o in outcomes)
        outcomes = run_exhibits(
            names, scale=0.05, out_dir=str(parallel), jobs=2, **QUIET
        )
        assert all(o.status == STATUS_OK for o in outcomes)

        assert _exhibit_bytes(parallel) == _exhibit_bytes(serial)
        serial_manifest, parallel_manifest = _manifest(serial), _manifest(parallel)
        assert list(parallel_manifest["exhibits"]) == list(serial_manifest["exhibits"])
        for name in names:
            assert (
                parallel_manifest["exhibits"][name]["fingerprint"]
                == serial_manifest["exhibits"][name]["fingerprint"]
            )
            assert parallel_manifest["exhibits"][name]["status"] == STATUS_OK
