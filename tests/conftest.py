import signal
from contextlib import contextmanager

import pytest


class Overran(Exception):
    """Raised in the main thread when a ``deadline`` passes."""


@pytest.fixture
def deadline():
    """``with deadline(s):`` interrupts its body with ``Overran`` once it has
    run for s seconds, so a regression to an endless loop fails instead of
    hanging the suite (SIGALRM: Unix, main thread)."""

    @contextmanager
    def within(seconds):
        def overran(signum, frame):
            raise Overran(f"still running after {seconds} s")

        previous = signal.signal(signal.SIGALRM, overran)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return within
