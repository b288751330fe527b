"""Shared test settings: hypothesis runs derandomized, with no deadline.

Property tests then draw the same examples on every run, so the suite
stays deterministic, and slow machines do not trip per-example timing.
"""

from hypothesis import settings

settings.register_profile("tcqubits", derandomize=True, deadline=None, database=None)
settings.load_profile("tcqubits")
