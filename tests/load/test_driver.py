"""End-to-end load driver runs against a real daemon (small scale)."""

import pytest

from repro.core.config import LS, LS_DEFRAG
from repro.load.driver import LoadReport, TenantLoad, run_load
from repro.load.schedule import arrival_offsets
from repro.service.daemon import DaemonConfig
from repro.service.harness import DaemonThread

MIX = (("hm_1", 0.8), ("usr_1", 0.2))


@pytest.fixture()
def daemon(tmp_path):
    server = DaemonThread(
        tmp_path / "state", config=DaemonConfig(port=0, queue_depth=64)
    )
    port = server.start()
    yield port
    server.stop()


def _spec(name, ops=6_000, **kw):
    defaults = dict(
        components=MIX, config=LS, total_ops=ops, batch_ops=500,
        window=8, seed=17,
    )
    defaults.update(kw)
    return TenantLoad(name=name, **defaults)


@pytest.mark.slow
def test_two_tenants_report_fully(daemon, tmp_path):
    tenants = [
        _spec("ls_t"),
        _spec("defrag_t", config=LS_DEFRAG, seed=18),
    ]
    report = run_load("127.0.0.1", daemon, tenants, query_interval_s=0.01)
    assert isinstance(report, LoadReport)
    assert report.ops == 12_000
    assert report.seconds > 0 and report.ops_per_s > 0
    assert report.resyncs == 0
    assert report.peak_rss_mib > 0
    # Every batch earned a latency sample (12 batches per tenant).
    assert report.per_tenant["ls_t"]["batches"] == 12
    assert report.per_tenant["defrag_t"]["batches"] == 12
    assert report.apply_p99_ms >= report.apply_p50_ms > 0
    # The live-query sidecar actually ran against open sessions.
    assert report.queries > 0
    assert report.query_p99_ms >= report.query_p50_ms > 0
    round_trip = report.to_dict()
    assert round_trip["ops"] == 12_000
    assert set(round_trip["per_tenant"]) == {"ls_t", "defrag_t"}


@pytest.mark.slow
def test_run_shorter_than_query_interval_still_queries(daemon):
    # One 500-op batch is acked long before a 30 s interval elapses once:
    # the sidecar must query when it starts, not after its first wait.
    report = run_load(
        "127.0.0.1", daemon, [_spec("brief", ops=500)], query_interval_s=30.0
    )
    assert report.ops == 500 and report.seconds < 30.0
    assert report.queries >= 1
    assert report.query_p99_ms > 0


@pytest.mark.slow
def test_paced_burst_schedule_stretches_the_run(daemon):
    # The daemon could absorb 4000 ops instantly, but pacing must hold
    # the run open until at least the last scheduled send.
    floor = arrival_offsets(
        8, 500, 10_000, kind="burst", period_s=0.2, duty=0.25
    )[-1]
    assert floor > 0.05
    report = run_load(
        "127.0.0.1",
        daemon,
        [_spec("paced", ops=4_000)],
        target_ops_per_s=10_000,
        schedule="burst",
        period_s=0.2,
        duty=0.25,
        live_queries=False,
    )
    assert report.ops == 4_000
    assert report.seconds >= floor
    assert report.queries == 0


@pytest.mark.slow
def test_tenant_error_propagates(daemon):
    bad = TenantLoad(
        name="bad", components=(("no_such_workload", 1.0),),
        total_ops=1_000,
    )
    with pytest.raises(KeyError, match="no_such_workload"):
        run_load("127.0.0.1", daemon, [bad], live_queries=False)
    with pytest.raises(ValueError, match="at least one"):
        run_load("127.0.0.1", daemon, [])
