"""Comparison systems of Table 3: the Encore Multimax configuration.

The sequential baselines (T seq, Mul-T seq) need no module of their
own: :mod:`repro.harness.table3` builds them as grid cells compiled in
sequential mode."""

from repro.baselines.encore import encore_config

__all__ = ["encore_config"]
