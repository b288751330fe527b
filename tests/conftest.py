"""Shared test settings: hypothesis runs derandomized, with no deadline.

Property tests then draw the same examples on every run, so the suite
stays deterministic, and slow machines do not trip per-example timing.
The time_limit fixture bounds a block that must return at once.
"""

import signal
from contextlib import contextmanager

import pytest
from hypothesis import settings

settings.register_profile("tcqubits", derandomize=True, deadline=None, database=None)
settings.load_profile("tcqubits")


@contextmanager
def _alarm(seconds: float):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def time_limit():
    """time_limit(seconds): a block that raises TimeoutError once it runs that long."""
    return _alarm
