"""Block I/O trace infrastructure.

* :mod:`repro.trace.record` — the :class:`~repro.trace.record.IORequest`
  record shared by the whole simulator.
* :mod:`repro.trace.trace` — :class:`~repro.trace.trace.Trace`, the one
  trace type, over four read-only columns.
* :mod:`repro.trace.msr`, :mod:`repro.trace.cloudphysics`,
  :mod:`repro.trace.csvio` — per-line parsers for the MSR Cambridge and
  CloudPhysics-style formats the paper uses and the native CSV;
  :mod:`repro.trace.columnar` — their exact bulk equivalents;
  :mod:`repro.trace.writers` — export in the external dialects.
* :mod:`repro.trace.errors` — the strict/lenient/quarantine parse policies.
* :mod:`repro.trace.store` — the compiled-trace store.
* :mod:`repro.trace.stats` — trace statistics (the Table I columns).
"""
