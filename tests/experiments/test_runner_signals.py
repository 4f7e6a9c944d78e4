"""Interrupt handling: SIGTERM/SIGINT finalize the manifest, resume works."""

import json
import os
import signal
import threading

import pytest

from repro.core.config import LS
from repro.experiments import registry, runner
from repro.experiments.runner import (MANIFEST_NAME, STATUS_FAILED, STATUS_OK, STATUS_SKIPPED,
                                      RunInterrupted, run_exhibits, run_signal_handlers)


@pytest.fixture
def sigterm_exhibits(monkeypatch):
    """alpha completes; beta receives SIGTERM mid-exhibit; gamma never runs."""
    calls = []

    def make(name, sig=None):
        def run(engine):
            calls.append(name)
            if sig is not None:
                os.kill(os.getpid(), sig)
            return {"name": name, "seed": engine.seed}

        return run

    fakes = {
        "alpha": make("alpha"),
        "beta": make("beta", sig=signal.SIGTERM),
        "gamma": make("gamma"),
    }
    monkeypatch.setattr(registry, "EXHIBITS", fakes)
    return calls


def test_run_signal_handlers_translates_sigterm():
    before_term = signal.getsignal(signal.SIGTERM)
    before_int = signal.getsignal(signal.SIGINT)
    with pytest.raises(RunInterrupted) as excinfo:
        with run_signal_handlers():
            os.kill(os.getpid(), signal.SIGTERM)
    assert excinfo.value.signum == signal.SIGTERM
    assert excinfo.value.signal_name == "SIGTERM"
    # Previous handlers are restored even on the raising path.
    assert signal.getsignal(signal.SIGTERM) is before_term
    assert signal.getsignal(signal.SIGINT) is before_int

    def off_the_main_thread():
        with run_signal_handlers():  # runs with the host's handlers
            seen.append(signal.getsignal(signal.SIGTERM))

    seen, thread = [], threading.Thread(target=off_the_main_thread)
    thread.start()
    thread.join()
    assert seen == [before_term]


def test_sigterm_mid_exhibit_finalizes_manifest_for_resume(
    sigterm_exhibits, monkeypatch, tmp_path
):
    with pytest.raises(RunInterrupted):
        run_exhibits(["alpha", "beta", "gamma"], out_dir=str(tmp_path), echo=lambda s: None)
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    assert manifest["exhibits"]["alpha"]["status"] == STATUS_OK
    assert manifest["exhibits"]["beta"]["status"] == STATUS_FAILED
    assert "interrupted (SIGTERM)" in manifest["exhibits"]["beta"]["error"]
    assert "gamma" not in manifest["exhibits"]  # never attempted
    assert sigterm_exhibits == ["alpha", "beta"]

    # Resume after the interrupt: alpha is skipped, beta and gamma run.
    fakes = dict(registry.EXHIBITS)
    original_beta = fakes["beta"]
    calls = []

    def tame_beta(engine):
        calls.append("beta")
        return {"name": "beta", "seed": engine.seed}

    fakes["beta"] = tame_beta
    monkeypatch.setattr(registry, "EXHIBITS", fakes)
    outcomes = run_exhibits(
        ["alpha", "beta", "gamma"],
        out_dir=str(tmp_path),
        resume=True,
        echo=lambda s: None,
    )
    assert [o.status for o in outcomes] == [STATUS_SKIPPED, STATUS_OK, STATUS_OK]
    assert calls == ["beta"]
    assert original_beta is not tame_beta


def test_parallel_interrupt_cancels_reaps_and_finalizes(sigterm_exhibits, monkeypatch, tmp_path):
    """An interrupt while the pool fills the result table cancels pending
    tasks, terminates workers and leaves no dangling 'running' entry."""
    reaped = []
    original_reap = runner._reap_pool

    def spy_reap(pool):
        reaped.append(pool)
        original_reap(pool)

    def interrupting_wait(fs, return_when=None):
        raise RunInterrupted(signal.SIGTERM)

    monkeypatch.setattr(runner, "_reap_pool", spy_reap)
    monkeypatch.setattr(runner, "wait", interrupting_wait)
    monkeypatch.setitem(registry.NEEDS, "alpha", {"hm_1": [LS]})

    with pytest.raises(RunInterrupted):
        run_exhibits(
            ["alpha", "gamma"],
            scale=0.05,
            out_dir=str(tmp_path),
            jobs=2,
            echo=lambda s: None,
        )
    assert len(reaped) == 1
    manifest = json.loads((tmp_path / MANIFEST_NAME).read_text())
    # The placeholder 'running' entries were dropped: the manifest tells
    # the truth (nothing completed) and a resume re-runs both.
    assert all(entry["status"] != "running" for entry in manifest["exhibits"].values())


def test_cli_exit_code_is_128_plus_signum(monkeypatch, capsys):
    from repro.experiments import __main__ as cli

    def interrupted_run(*args, **kwargs):
        raise RunInterrupted(signal.SIGTERM)

    monkeypatch.setattr(cli, "run_exhibits", interrupted_run)
    code = cli.main(["table1"])
    assert code == 128 + signal.SIGTERM
    assert "--resume" in capsys.readouterr().err
