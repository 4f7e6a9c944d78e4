"""Deterministic multi-tenant traffic for the streaming replay service.

The building blocks of a many-tenant load (ROADMAP item 1); what drives
a daemon with them, and times it from due time, lives in ``bench/``:

* :mod:`repro.load.mixture` — synthesizes multi-tenant op streams as
  weighted mixtures of the Table-I workload archetypes, riffled so hot
  overwrites, scans, and replays interleave the way mixed traffic does.
* :mod:`repro.load.schedule` — arrival schedules (steady, diurnal
  sinusoid, on/off bursts) that pace batches at a target ops/s.
"""
