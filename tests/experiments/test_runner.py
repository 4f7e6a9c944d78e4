"""Crash-safe runner: manifest lifecycle, isolation, timeout, resume."""

import json

import pytest

from repro.experiments import registry
from repro.experiments.runner import (MANIFEST_NAME, STATUS_FAILED, STATUS_OK, STATUS_SKIPPED,
                                      STATUS_TIMEOUT, ExhibitOutcome, RunManifest,
                                      exhibit_fingerprint, exhibit_timeout, ExhibitTimeoutError,
                                      format_outcome_table, run_exhibits)


@pytest.fixture
def fake_exhibits(monkeypatch, tmp_path):
    """Replace the registry with three tiny exhibits: ok, ok, failing."""
    calls = []

    def make(name, fail=False):
        def run(engine):
            calls.append(name)
            if fail:
                raise RuntimeError(f"{name} exploded")
            return {"name": name, "seed": engine.seed}

        return run

    fakes = {"alpha": make("alpha"), "beta": make("beta", fail=True), "gamma": make("gamma")}
    monkeypatch.setattr(registry, "EXHIBITS", fakes)
    return calls


class TestRunExhibits:
    def test_all_ok_without_out_dir(self, fake_exhibits):
        outcomes = run_exhibits(["alpha", "gamma"], echo=lambda s: None)
        assert [o.status for o in outcomes] == [STATUS_OK, STATUS_OK]

    def test_failure_stops_without_keep_going(self, fake_exhibits):
        outcomes = run_exhibits(["alpha", "beta", "gamma"], echo=lambda s: None)
        assert [o.status for o in outcomes] == [STATUS_OK, STATUS_FAILED]
        assert "gamma" not in fake_exhibits

    def test_keep_going_runs_everything(self, fake_exhibits):
        outcomes = run_exhibits(["alpha", "beta", "gamma"], keep_going=True, echo=lambda s: None)
        assert [o.status for o in outcomes] == [STATUS_OK, STATUS_FAILED, STATUS_OK]
        failed = outcomes[1]
        assert "beta exploded" in failed.error
        assert "RuntimeError" in failed.error  # full traceback, not just repr

    def test_manifest_records_every_exhibit(self, fake_exhibits, tmp_path):
        run_exhibits(
            ["alpha", "beta"],
            out_dir=str(tmp_path),
            keep_going=True,
            echo=lambda s: None,
        )
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["fill_s"] >= 0  # the run's fill, apart from each render
        assert manifest["exhibits"]["alpha"]["status"] == STATUS_OK
        assert manifest["exhibits"]["beta"]["status"] == STATUS_FAILED
        assert "beta exploded" in manifest["exhibits"]["beta"]["error"]
        assert manifest["exhibits"]["alpha"]["fingerprint"] == exhibit_fingerprint(
            "alpha", 42, 1.0
        )

    def test_resume_skips_completed(self, fake_exhibits, tmp_path):
        run_exhibits(["alpha"], out_dir=str(tmp_path), echo=lambda s: None)
        fake_exhibits.clear()
        outcomes = run_exhibits(
            ["alpha", "gamma"], out_dir=str(tmp_path), resume=True, echo=lambda s: None
        )
        assert [o.status for o in outcomes] == [STATUS_SKIPPED, STATUS_OK]
        assert fake_exhibits == ["gamma"]  # alpha was not re-run

    def test_resume_reruns_on_fingerprint_mismatch(self, fake_exhibits, tmp_path):
        run_exhibits(["alpha"], out_dir=str(tmp_path), echo=lambda s: None)
        fake_exhibits.clear()
        outcomes = run_exhibits(
            ["alpha"], seed=7, out_dir=str(tmp_path), resume=True, echo=lambda s: None
        )
        assert outcomes[0].status == STATUS_OK
        assert fake_exhibits == ["alpha"]

    def test_resume_reruns_when_json_missing(self, fake_exhibits, tmp_path):
        run_exhibits(["alpha"], out_dir=str(tmp_path), echo=lambda s: None)
        (tmp_path / "alpha.json").unlink()
        fake_exhibits.clear()
        outcomes = run_exhibits(["alpha"], out_dir=str(tmp_path), resume=True, echo=lambda s: None)
        assert outcomes[0].status == STATUS_OK
        assert fake_exhibits == ["alpha"]

    def test_resume_reruns_failed(self, fake_exhibits, tmp_path):
        run_exhibits(["beta"], out_dir=str(tmp_path), keep_going=True, echo=lambda s: None)
        fake_exhibits.clear()
        run_exhibits(["beta"], out_dir=str(tmp_path), resume=True, echo=lambda s: None)
        assert fake_exhibits == ["beta"]

    def test_resume_without_out_dir_rejected(self, fake_exhibits):
        with pytest.raises(ValueError, match="resume requires"):
            run_exhibits(["alpha"], resume=True)

    def test_fresh_run_ignores_stale_manifest(self, fake_exhibits, tmp_path):
        run_exhibits(["alpha"], out_dir=str(tmp_path), echo=lambda s: None)
        fake_exhibits.clear()
        # Without resume, a new run starts a fresh manifest and re-runs.
        run_exhibits(["alpha"], out_dir=str(tmp_path), echo=lambda s: None)
        assert fake_exhibits == ["alpha"]


class TestTimeout:
    def test_timeout_marks_exhibit(self, monkeypatch, tmp_path):
        import time

        def sleepy(engine):
            time.sleep(5.0)
            return {}

        monkeypatch.setattr(registry, "EXHIBITS", {"sleepy": sleepy})
        outcomes = run_exhibits(
            ["sleepy"],
            out_dir=str(tmp_path),
            timeout_s=0.2,
            keep_going=True,
            echo=lambda s: None,
        )
        assert outcomes[0].status == STATUS_TIMEOUT
        manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
        assert manifest["exhibits"]["sleepy"]["status"] == STATUS_TIMEOUT

    def test_exhibit_timeout_context_manager(self):
        import time

        with pytest.raises(ExhibitTimeoutError):
            with exhibit_timeout(0.05):
                time.sleep(1.0)
        # And it disarms cleanly: this must not raise.
        with exhibit_timeout(10.0):
            pass

    def test_no_timeout_is_noop(self):
        with exhibit_timeout(None):
            pass


class TestManifest:
    def test_load_or_create_survives_corrupt_file(self, tmp_path):
        path = tmp_path / MANIFEST_NAME
        path.write_text("{truncated")
        manifest = RunManifest.load_or_create(path, seed=1, scale=0.5)
        assert manifest.exhibits == {}

    def test_save_is_atomic_no_tmp_left(self, tmp_path):
        manifest = RunManifest(tmp_path / MANIFEST_NAME, seed=1, scale=1.0)
        manifest.mark_running("x", "fp")
        assert not (tmp_path / (MANIFEST_NAME + ".tmp")).exists()
        assert json.loads((tmp_path / MANIFEST_NAME).read_text())


class TestOutcomeTable:
    def test_table_lists_all_and_counts(self):
        table = format_outcome_table(
            [
                ExhibitOutcome("fig2", STATUS_OK, 1.0),
                ExhibitOutcome("fig3", STATUS_FAILED, 2.0, "boom"),
                ExhibitOutcome("fig4", STATUS_SKIPPED, 0.0),
            ]
        )
        assert "fig2" in table and "failed" in table
        assert "2/3 exhibits ok" in table
