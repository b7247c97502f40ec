"""Experiment harness: :func:`run_transfer` runs one transfer; the paper's
tables and figures are declarations in :mod:`repro.experiments.catalog`."""

from repro.experiments.runner import ExperimentResult, run_transfer

__all__ = ["ExperimentResult", "run_transfer"]
