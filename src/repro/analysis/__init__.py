"""Probability facts, curve fitting, statistics, and report rendering.

Supports the experiment suite: :mod:`concentration` codifies the Figure 3
facts used throughout the paper's proofs (with exact binomial checks),
:mod:`fitting` decides empirically whether round counts grow like
``log log n``, ``log n`` or ``n``, :mod:`stats` summarizes trial
distributions, and :mod:`tables`/:mod:`ascii_plot` render the tables and
figures EXPERIMENTS.md records.
"""
