"""Supervised streaming replay service.

The batch pipeline replays a *finished* trace; this package serves the
other operating mode the paper's drive-level setting implies: a
long-running translator fed an **open-ended op stream**, queried live for
the §II metrics (current SAF, Fig. 5 fragment CDF, seek budget) while the
stream is still arriving.

Layered bottom-up:

* :mod:`repro.service.checkpoint` — content-checksummed snapshots of a
  session's full kernel + analysis state, committed with the atomic
  fsync+rename discipline of :mod:`repro.util.npystore`.
* :mod:`repro.service.journal` — a CRC'd, fsync-per-batch op journal
  (write-ahead log); checkpoint + journal tail replay recovers a
  ``kill -9``'d session to byte-identical stats.
* :mod:`repro.service.session` — one tenant's resident replay state:
  the chunk-resumable engine (:class:`repro.core.batch.IncrementalBatchReplay`),
  the incremental analyses, sequence-number dedupe, and the
  journal-before-apply recovery contract.
* :mod:`repro.service.wire` — the one columnar byte layout a batch
  keeps from the client's frame to the WAL record.
* :mod:`repro.service.worker` — a session hosted in a spawned process,
  driven over a pipe.
* :mod:`repro.service.supervisor` — restarts crashed workers with
  bounded exponential backoff and replays in-flight calls once.
* :mod:`repro.service.daemon` — the asyncio front end: newline-JSON
  requests and replies with a framed columnar payload behind each
  ``apply``, per-tenant bounded queues (backpressure), deadline shedding,
  group commit.
* :mod:`repro.service.client` — a small blocking client with
  resync-after-reconnect.

``python -m repro serve`` (see :mod:`repro.__main__`) boots the daemon.
"""
