"""The experiment suite: one module per reproduced claim.

The paper is a theory paper — its "evaluation" is Theorems 1-4 and the
key lemmas, plus three illustrative figures.  Each module here regenerates
one of those claims empirically; :mod:`repro.experiments.registry` maps
experiment ids (EXP-T2, EXP-L6, ...) to runners, and
``python -m repro run <id>`` executes them.  EXPERIMENTS.md records the
paper-vs-measured comparison produced by these modules.
"""
