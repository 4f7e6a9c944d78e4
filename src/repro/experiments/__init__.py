"""Experiment harness: regenerate every table and figure of the paper.

One module per exhibit (the ablations share one); each exhibit is
``run(engine) -> dict``: it reads the run's
:class:`~repro.experiments.sweep.SweepEngine`, prints a paper-style text
rendering and returns the exhibit's data, which
:func:`~repro.experiments.runner.run_exhibits` dumps as JSON.

Command line::

    python -m repro.experiments all
    python -m repro.experiments fig11 --seed 42 --scale 1.0 --out results/
"""
