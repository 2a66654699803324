import os
import signal
from contextlib import contextmanager

import pytest
from hypothesis import settings

# On CI a failing property prints the blob that replays it
# (@reproduce_failure), so a rare draw can be rerun from the log alone.
settings.register_profile("ci", print_blob=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


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
