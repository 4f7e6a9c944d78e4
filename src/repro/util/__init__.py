"""Shared low-level helpers used by every other subsystem in :mod:`repro`:
units (:mod:`~repro.util.units`), argument checks
(:mod:`~repro.util.validation`), RNG (:mod:`~repro.util.rngtools`),
statistics (:mod:`~repro.util.stats`), atomic writes (:mod:`~repro.util.io`,
:mod:`~repro.util.npystore`), the bulk-state contract
(:mod:`~repro.util.bulkstate`), range cells (:mod:`~repro.util.cells`) and
the compiled-kernel loader (:mod:`~repro.util.native`).
"""
