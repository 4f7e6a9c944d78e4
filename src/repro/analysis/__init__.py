"""Workload and replay analyses behind the paper's characterization figures.

Each module maps to one analytical lens:

* :mod:`repro.analysis.distances` — seek/access-distance CDFs (Fig. 4).
* :mod:`repro.analysis.temporal` — windowed long-seek differencing (Fig. 3).
* :mod:`repro.analysis.fragmentation` — dynamic-fragmentation CDFs and
  concentration curves (Fig. 5).
* :mod:`repro.analysis.misorder` — mis-ordered-write detection (Fig. 8).
* :mod:`repro.analysis.popularity` — fragment access popularity and the
  cumulative cache-size curve (Fig. 10).
* :mod:`repro.analysis.classify` — the §III taxonomy and SAF predictor.
* :mod:`repro.analysis.fast` — exact vectorized equivalents of the above.
* :mod:`repro.analysis.incremental` — the streaming forms a serving
  session feeds batch by batch.
"""
