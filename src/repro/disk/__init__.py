"""Disk substrate: head/seek model, seek-time costs, SMR zones.

The paper's metric layer is the :class:`~repro.disk.head.DiskHead` model —
a seek occurs when an I/O starts anywhere other than the sector immediately
following the previous I/O (§II).  Everything else in this package supports
the Background-section claims: seek *cost* as a function of distance (§III)
and SMR zone semantics (Fig. 1).
"""
