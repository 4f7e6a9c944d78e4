"""The paper's primary contribution: log-structured translation with
seek accounting and three seek-reduction techniques.

Typical use::

    from repro.core.config import LS_CACHE, NOLS, build_translator
    from repro.core.metrics import seek_amplification
    from repro.core.simulator import replay

    baseline = replay(trace, build_translator(trace, NOLS))
    cached = replay(trace, build_translator(trace, LS_CACHE))
    saf = seek_amplification(cached.stats, baseline.stats)
"""
