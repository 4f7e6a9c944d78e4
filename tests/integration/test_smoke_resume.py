"""The ``make smoke`` contract as an in-process integration test.

A tiny full ``all`` run with ``--keep-going`` must exit 0, dump valid JSON
plus a complete manifest, and an immediate ``--resume`` of the same run
must skip every exhibit and also exit 0.
"""

import json

import pytest

from repro.experiments.__main__ import main
from repro.experiments.registry import EXHIBITS


@pytest.mark.slow
class TestSmokeRun:
    def test_all_then_resume(self, tmp_path, capsys):
        out = str(tmp_path)
        args = ["all", "--scale", "0.05", "--out", out, "--keep-going"]
        assert main(args) == 0
        capsys.readouterr()

        manifest = json.loads((tmp_path / "run.json").read_text())
        assert set(manifest["exhibits"]) == set(EXHIBITS)
        assert all(e["status"] == "ok" for e in manifest["exhibits"].values())
        for name in EXHIBITS:
            with (tmp_path / f"{name}.json").open() as handle:
                json.load(handle)

        # Second run with --resume: everything skips, still exit 0.
        assert main(args + ["--resume"]) == 0
        output = capsys.readouterr().out
        for name in EXHIBITS:
            assert f"=== {name}: already complete, skipping (resume)" in output
        assert f"{len(EXHIBITS)}/{len(EXHIBITS)} exhibits ok" in output

    def test_failing_exhibit_exits_nonzero(self, tmp_path, monkeypatch, capsys):
        from repro.experiments import registry

        def boom(engine):
            raise RuntimeError("smoke boom")

        fakes = dict(registry.EXHIBITS)
        fakes["fig2"] = boom
        monkeypatch.setattr(registry, "EXHIBITS", fakes)
        code = main(["fig2", "fig3", "--scale", "0.05", "--out", str(tmp_path), "--keep-going"])
        output = capsys.readouterr().out
        assert code == 1
        assert "1/2 exhibits ok" in output
        assert "smoke boom" in output
