"""Logical-to-physical address mapping structures.

The log-structured translator needs a map from LBA ranges to the physical
(log) locations that currently hold them.  Two interchangeable
implementations are provided:

* :class:`~repro.extentmap.extent_map.ExtentMap` — the production structure:
  a sorted list of non-overlapping extents with bisect lookup and
  split/trim on overwrite.  Memory is proportional to *fragmentation*, not
  address-space size.
* :class:`~repro.extentmap.array_map.ArrayExtentMap` — a numpy-backed
  two-level (base arrays + small overlay) tier engineered for the write
  path, with batch entry points for the replay kernels; selected via
  :func:`~repro.extentmap.tiers.make_address_map` (see
  :mod:`repro.extentmap.tiers` for the tier registry and the
  ``REPRO_EXTENT_MAP`` override).
* :class:`~repro.extentmap.block_map.BlockMap` — a block-granular dict used
  as an executable specification; property tests assert the two agree on
  random operation sequences.

Both return :class:`~repro.extentmap.base.Segment` lists from lookups; a
segment is either mapped (``pba`` set) or a hole (``pba is None``), and the
number of *mapped, mutually discontiguous* segments returned for a read is
exactly the paper's "dynamic fragmentation" of that read.
"""
